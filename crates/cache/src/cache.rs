//! The set-associative cache model, stored as a contiguous SoA arena.
//!
//! # Arena layout
//!
//! A cache of `S` sets × `W` ways owns exactly three flat allocations:
//!
//! ```text
//! tags:    [u64; S*W]   line address per way, u64::MAX = invalid
//! meta:    [u8;  S*W]   bits 0-1 MESI state (M=0/E=1/S=2), bit 2 spilled
//! recency: [u64; S]     packed LRU permutation, 4 bits per way (nibble 0 = MRU)
//! ```
//!
//! Set `s` occupies `tags[s*W .. (s+1)*W]` / `meta[s*W .. (s+1)*W]` and
//! `recency[s]`. Compared to the seed layout (a `Vec` of per-set structs,
//! each owning a `Vec<Option<CacheLine>>` and a `Vec<u16>` recency stack —
//! two heap allocations per set), a lookup now touches one contiguous tag
//! row plus a single byte and word, and a whole 32 Ki-set L2's replacement
//! state fits in 256 KiB of tags instead of ~65 K scattered allocations.
//!
//! The set-granular API is preserved through the [`SetRef`]/[`SetMut`] view
//! types; behaviour is bit-identical to the seed layout (asserted by the
//! `engine_golden` integration test).

use crate::geometry::CacheGeometry;
use crate::mesi::MesiState;
use crate::obs::{ObsEvent, ObsProbe};
use crate::recency::{identity_word, RecencyStack};
use crate::set::{decode_line, encode_meta, CacheLine, SetMut, SetRef, TAG_INVALID};
use crate::stats::{CacheStats, SetStats};
use crate::types::{CoreId, FillKind, InsertPos, LineAddr, SetIdx, WayIdx};
use cmp_snap::{SnapError, SnapReader, SnapWriter};

/// Way holding `raw` in one set's tag row, if resident.
///
/// Branchless replacement for `iter().position()`: the accumulating
/// compare visits every way unconditionally, which the compiler turns into
/// conditional moves (and, for the common 4/8/16-way rows, vector
/// compares) instead of a data-dependent early-exit branch per way. A line
/// is resident at most once per cache, so keeping the last match is
/// equivalent to keeping the first.
#[inline]
fn find_way(tags: &[u64], raw: u64) -> Option<usize> {
    let mut found = usize::MAX;
    for (w, &t) in tags.iter().enumerate() {
        found = if t == raw { w } else { found };
    }
    (found != usize::MAX).then_some(found)
}

/// Hints the host CPU to pull the cache line holding `value` into its
/// L1 data cache. A pure performance hint: no state changes, and on
/// targets without a prefetch instruction it does nothing.
///
/// This is the workspace's one `unsafe` block. Taking `&T` rather than a
/// pointer keeps it sound by construction: a live reference is always in
/// bounds, so callers cannot ask it to form a pointer past an allocation.
#[inline(always)]
#[allow(unsafe_code)]
pub fn host_prefetch<T>(value: &T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: the pointer comes from a live reference, and `_mm_prefetch`
    // only hints the cache hierarchy — it dereferences nothing and cannot
    // fault.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch((value as *const T).cast::<i8>(), _MM_HINT_T0);
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = value;
}

/// A set-associative cache with true-LRU recency tracking and pluggable
/// insertion positions.
///
/// The cache is a *passive* model: it answers lookups, performs fills into a
/// victim way chosen by the caller (usually through an [`crate::LlcPolicy`])
/// and reports evictions. All timing, coherence and spill orchestration live
/// above it in `cmp-sim`. See the [module docs](self) for the storage layout.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), cmp_cache::GeometryError> {
/// use cmp_cache::{CacheGeometry, FillKind, InsertPos, LineAddr, MesiState, SetAssocCache};
///
/// let mut l2 = SetAssocCache::new(CacheGeometry::from_capacity(1 << 20, 8, 32)?);
/// let line = LineAddr::new(0x40);
/// assert!(l2.access(line).is_none()); // cold miss
/// let set = l2.geometry().set_of(line);
/// let victim = l2.set(set).default_victim();
/// l2.fill(set, victim, cmp_cache::CacheLine::demand(line, MesiState::Exclusive),
///         InsertPos::Mru, FillKind::Demand);
/// assert!(l2.access(line).is_some()); // now a hit
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct SetAssocCache {
    geometry: CacheGeometry,
    /// Line address per way, `S*W` entries, [`TAG_INVALID`] = empty way.
    tags: Box<[u64]>,
    /// Packed state/spilled byte per way, `S*W` entries.
    meta: Box<[u8]>,
    /// Packed recency permutation per set, `S` entries.
    recency: Box<[u64]>,
    stats: CacheStats,
    set_stats: Option<Vec<SetStats>>,
}

impl SetAssocCache {
    /// Creates an empty cache of the given geometry.
    pub fn new(geometry: CacheGeometry) -> Self {
        let lines = geometry.lines() as usize;
        let sets = geometry.sets() as usize;
        SetAssocCache {
            geometry,
            tags: vec![TAG_INVALID; lines].into_boxed_slice(),
            meta: vec![0; lines].into_boxed_slice(),
            recency: vec![identity_word(geometry.ways()); sets].into_boxed_slice(),
            stats: CacheStats::default(),
            set_stats: None,
        }
    }

    /// Enables per-set hit/miss counters (needed by the Fig. 2 study).
    pub fn with_set_stats(mut self) -> Self {
        self.set_stats = Some(vec![SetStats::default(); self.geometry.sets() as usize]);
        self
    }

    /// The cache's geometry.
    #[inline]
    pub fn geometry(&self) -> &CacheGeometry {
        &self.geometry
    }

    /// Aggregate statistics.
    #[inline]
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Per-set statistics, if enabled via [`SetAssocCache::with_set_stats`].
    pub fn set_stats(&self) -> Option<&[SetStats]> {
        self.set_stats.as_deref()
    }

    /// Zeroes all statistics (end of warmup).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
        if let Some(ss) = &mut self.set_stats {
            ss.iter_mut().for_each(|s| *s = SetStats::default());
        }
    }

    /// Byte range of `set`'s ways within the tag/meta arrays.
    #[inline]
    fn row(&self, set: SetIdx) -> std::ops::Range<usize> {
        let w = self.geometry.ways() as usize;
        let base = set.index() * w;
        base..base + w
    }

    /// Read-only view of a set.
    ///
    /// # Panics
    ///
    /// Panics if `set` is out of range.
    #[inline]
    pub fn set(&self, set: SetIdx) -> SetRef<'_> {
        let r = self.row(set);
        SetRef::new(
            &self.tags[r.clone()],
            &self.meta[r],
            RecencyStack::from_word(self.recency[set.index()], self.geometry.ways()),
        )
    }

    /// Mutable view of a set.
    ///
    /// Set-level mutation does not maintain the aggregate statistics — use
    /// the cache-level [`access`](SetAssocCache::access) /
    /// [`fill`](SetAssocCache::fill) /
    /// [`invalidate`](SetAssocCache::invalidate) entry points in simulation
    /// code.
    ///
    /// # Panics
    ///
    /// Panics if `set` is out of range.
    #[inline]
    pub fn set_mut(&mut self, set: SetIdx) -> SetMut<'_> {
        let r = self.row(set);
        SetMut::new(
            &mut self.tags[r.clone()],
            &mut self.meta[r],
            &mut self.recency[set.index()],
        )
    }

    /// Looks a line up *without* touching recency or statistics — the snoop
    /// path used by the coherence bus.
    pub fn probe(&self, line: LineAddr) -> Option<(SetIdx, WayIdx)> {
        let set = self.geometry.set_of(line);
        let raw = line.raw();
        find_way(&self.tags[self.row(set)], raw).map(|w| (set, WayIdx(w as u16)))
    }

    /// Hints the host CPU at the tag row of `set` — used by the batched
    /// engine to pull an upcoming access's set slab into cache ahead of
    /// the access. Pure performance hint: no simulator-visible state
    /// changes.
    ///
    /// # Panics
    ///
    /// Panics if `set` is out of range.
    #[inline]
    pub fn prefetch_set(&self, set: SetIdx) {
        host_prefetch(&self.tags[set.index() * self.geometry.ways() as usize]);
    }

    /// Performs a local access: on a hit the line is promoted to MRU and its
    /// way returned; statistics are updated either way.
    ///
    /// Returns the hit way, or `None` on a miss. If the hit line was spilled
    /// in from a peer the `spilled_line_hits` statistic is bumped and the
    /// flag cleared (the line now belongs to the local working set).
    pub fn access(&mut self, line: LineAddr) -> Option<WayIdx> {
        let set = self.geometry.set_of(line);
        let row = self.row(set);
        let raw = line.raw();
        match find_way(&self.tags[row.clone()], raw) {
            Some(w) => {
                let way = WayIdx(w as u16);
                let rw = &mut self.recency[set.index()];
                *rw = crate::recency::touch_mru_word(*rw, self.geometry.ways(), way);
                self.stats.hits += 1;
                if let Some(ss) = &mut self.set_stats {
                    ss[set.index()].hits += 1;
                }
                let m = &mut self.meta[row.start + w];
                if *m & 0b100 != 0 {
                    self.stats.spilled_line_hits += 1;
                    // The local core reuses the line: it now belongs to the
                    // local working set, not the shared/spilled region.
                    *m &= !0b100;
                }
                Some(way)
            }
            None => {
                self.stats.misses += 1;
                if let Some(ss) = &mut self.set_stats {
                    ss[set.index()].misses += 1;
                }
                None
            }
        }
    }

    /// MESI state of a resident line.
    pub fn state_of(&self, line: LineAddr) -> Option<MesiState> {
        self.probe(line)
            .and_then(|(s, w)| self.set(s).line(w))
            .map(|l| l.state)
    }

    /// Rewrites the MESI state of a resident line. Returns `false` if the
    /// line is not present.
    pub fn set_state(&mut self, line: LineAddr, state: MesiState) -> bool {
        if let Some((s, w)) = self.probe(line) {
            let i = s.index() * self.geometry.ways() as usize + w.index();
            self.meta[i] = encode_meta(state, self.meta[i] & 0b100 != 0);
            return true;
        }
        false
    }

    /// Fills `line` into `(set, way)` at recency position `pos`, returning
    /// the evicted occupant, if the way held a valid line.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `line` does not map to `set`.
    pub fn fill(
        &mut self,
        set: SetIdx,
        way: WayIdx,
        line: CacheLine,
        pos: InsertPos,
        kind: FillKind,
    ) -> Option<CacheLine> {
        debug_assert_eq!(
            self.geometry.set_of(line.addr),
            set,
            "line {:?} does not map to {set}",
            line.addr
        );
        match kind {
            FillKind::Demand => self.stats.demand_fills += 1,
            FillKind::Spill => self.stats.spill_fills += 1,
            FillKind::Prefetch => self.stats.prefetch_fills += 1,
        }
        let evicted = self.set_mut(set).fill(way, line, pos);
        if evicted.is_some() {
            self.stats.evictions += 1;
        }
        evicted
    }

    /// [`fill`](SetAssocCache::fill), additionally reporting the fill (and
    /// any displacement) to `probe` on behalf of `owner` — the core whose
    /// private cache this is.
    ///
    /// With [`NullProbe`](crate::NullProbe) this monomorphizes to exactly
    /// [`fill`](SetAssocCache::fill): the event construction is gated on
    /// [`ObsProbe::ACTIVE`] and compiles away.
    #[allow(clippy::too_many_arguments)] // fill()'s five operands + the (owner, probe) observation pair
    pub fn fill_probed<P: ObsProbe>(
        &mut self,
        owner: CoreId,
        set: SetIdx,
        way: WayIdx,
        line: CacheLine,
        pos: InsertPos,
        kind: FillKind,
        probe: &mut P,
    ) -> Option<CacheLine> {
        let evicted = self.fill(set, way, line, pos, kind);
        if P::ACTIVE {
            probe.record(ObsEvent::Fill {
                core: owner,
                set,
                kind,
            });
            if let Some(ref old) = evicted {
                probe.record(ObsEvent::Eviction {
                    core: owner,
                    set,
                    dirty: old.state.is_dirty(),
                });
            }
        }
        evicted
    }

    /// Invalidates a resident line, returning it.
    pub fn invalidate(&mut self, line: LineAddr) -> Option<CacheLine> {
        let (set, way) = self.probe(line)?;
        self.set_mut(set).invalidate_way(way)
    }

    /// Total valid lines in the cache (O(lines); for tests and assertions).
    pub fn valid_lines(&self) -> u64 {
        self.tags.iter().filter(|&&t| t != TAG_INVALID).count() as u64
    }

    /// The line stored at `(set, way)`, if valid — a direct arena read.
    ///
    /// # Panics
    ///
    /// Panics if `set` or `way` is out of range.
    #[inline]
    pub fn line_at(&self, set: SetIdx, way: WayIdx) -> Option<CacheLine> {
        let i = set.index() * self.geometry.ways() as usize + way.index();
        decode_line(self.tags[i], self.meta[i])
    }

    /// Serialises the full cache state — geometry fingerprint, tag/meta/
    /// recency arenas, stats, optional per-set stats — into `w`.
    ///
    /// Restored by [`load_state`](SetAssocCache::load_state) on a cache of
    /// identical geometry.
    pub fn save_state(&self, w: &mut SnapWriter) {
        w.put_u32(self.geometry.sets());
        w.put_u16(self.geometry.ways());
        w.put_u32(self.geometry.line_bytes());
        w.put_u64_slice(&self.tags);
        w.put_bytes(&self.meta);
        w.put_u64_slice(&self.recency);
        let s = &self.stats;
        for v in [
            s.hits,
            s.misses,
            s.demand_fills,
            s.spill_fills,
            s.prefetch_fills,
            s.evictions,
            s.spilled_line_hits,
        ] {
            w.put_u64(v);
        }
        match &self.set_stats {
            None => w.put_bool(false),
            Some(ss) => {
                w.put_bool(true);
                w.put_u64(ss.len() as u64);
                for st in ss {
                    w.put_u64(st.hits);
                    w.put_u64(st.misses);
                }
            }
        }
    }

    /// Restores state captured by [`save_state`](SetAssocCache::save_state).
    ///
    /// Fails with [`SnapError::Mismatch`] if the snapshot was taken from a
    /// cache of different geometry, and with [`SnapError::Corrupt`] if the
    /// arenas violate structural invariants (tags mapping to the wrong set,
    /// undecodable MESI bits, non-permutation recency words) — corruption
    /// is rejected up front rather than surfacing as a panic mid-run.
    pub fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let (sets, ways, line_bytes) = (r.get_u32()?, r.get_u16()?, r.get_u32()?);
        let g = self.geometry;
        if (sets, ways, line_bytes) != (g.sets(), g.ways(), g.line_bytes()) {
            return Err(SnapError::Mismatch(format!(
                "cache geometry: snapshot {sets}x{ways}x{line_bytes}B, \
                 live {}x{}x{}B",
                g.sets(),
                g.ways(),
                g.line_bytes()
            )));
        }
        let tags = r.get_u64_slice()?;
        let meta = r.get_bytes()?;
        let recency = r.get_u64_slice()?;
        if tags.len() != self.tags.len()
            || meta.len() != self.meta.len()
            || recency.len() != self.recency.len()
        {
            return Err(SnapError::Corrupt(format!(
                "cache arena sizes {}/{}/{} do not match geometry ({} lines, {} sets)",
                tags.len(),
                meta.len(),
                recency.len(),
                g.lines(),
                g.sets()
            )));
        }
        let ways_us = ways as usize;
        for (i, (&tag, &m)) in tags.iter().zip(meta.iter()).enumerate() {
            if tag == TAG_INVALID {
                continue;
            }
            let set = SetIdx((i / ways_us) as u32);
            if g.set_of(LineAddr::new(tag)) != set {
                return Err(SnapError::Corrupt(format!(
                    "tag {tag:#x} stored in set {set} but maps to {}",
                    g.set_of(LineAddr::new(tag))
                )));
            }
            if decode_line(tag, m).is_none() || m & !0b111 != 0 {
                return Err(SnapError::Corrupt(format!(
                    "undecodable meta byte {m:#04x} for valid tag {tag:#x}"
                )));
            }
        }
        for (s, &word) in recency.iter().enumerate() {
            let mut seen = 0u32;
            for w_i in 0..ways_us {
                let nibble = ((word >> (4 * w_i)) & 0xF) as usize;
                if nibble >= ways_us || seen & (1 << nibble) != 0 {
                    return Err(SnapError::Corrupt(format!(
                        "recency word {word:#x} of set {s} is not a permutation of 0..{ways}"
                    )));
                }
                seen |= 1 << nibble;
            }
        }
        self.tags.copy_from_slice(&tags);
        self.meta.copy_from_slice(meta);
        self.recency.copy_from_slice(&recency);
        let mut st = [0u64; 7];
        for v in &mut st {
            *v = r.get_u64()?;
        }
        self.stats = CacheStats {
            hits: st[0],
            misses: st[1],
            demand_fills: st[2],
            spill_fills: st[3],
            prefetch_fills: st[4],
            evictions: st[5],
            spilled_line_hits: st[6],
        };
        if r.get_bool()? {
            let n = r.get_u64()? as usize;
            if n != g.sets() as usize {
                return Err(SnapError::Corrupt(format!(
                    "per-set stats length {n} for {} sets",
                    g.sets()
                )));
            }
            let mut ss = Vec::with_capacity(n);
            for _ in 0..n {
                ss.push(SetStats {
                    hits: r.get_u64()?,
                    misses: r.get_u64()?,
                });
            }
            self.set_stats = Some(ss);
        } else {
            self.set_stats = None;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cache() -> SetAssocCache {
        // 4 sets x 2 ways x 32B lines.
        SetAssocCache::new(CacheGeometry::new(4, 2, 32).unwrap())
    }

    fn fill_demand(c: &mut SetAssocCache, line: u64) -> Option<CacheLine> {
        let la = LineAddr::new(line);
        let set = c.geometry().set_of(la);
        let v = c.set(set).default_victim();
        c.fill(
            set,
            v,
            CacheLine::demand(la, MesiState::Exclusive),
            InsertPos::Mru,
            FillKind::Demand,
        )
    }

    #[test]
    fn miss_then_hit() {
        let mut c = small_cache();
        assert!(c.access(LineAddr::new(1)).is_none());
        fill_demand(&mut c, 1);
        assert!(c.access(LineAddr::new(1)).is_some());
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
        assert_eq!(c.stats().demand_fills, 1);
    }

    #[test]
    fn lru_eviction_within_set() {
        let mut c = small_cache();
        // Lines 0, 4, 8 all map to set 0 (4 sets).
        fill_demand(&mut c, 0);
        fill_demand(&mut c, 4);
        let evicted = fill_demand(&mut c, 8).expect("set is full, must evict");
        assert_eq!(evicted.addr, LineAddr::new(0));
        assert_eq!(c.stats().evictions, 1);
        assert!(c.probe(LineAddr::new(0)).is_none());
        assert!(c.probe(LineAddr::new(4)).is_some());
        assert!(c.probe(LineAddr::new(8)).is_some());
    }

    #[test]
    fn probe_does_not_touch() {
        let mut c = small_cache();
        fill_demand(&mut c, 0);
        fill_demand(&mut c, 4);
        // Probing line 0 must not promote it: filling a third line still
        // evicts line 0 (the LRU).
        assert!(c.probe(LineAddr::new(0)).is_some());
        let evicted = fill_demand(&mut c, 8).unwrap();
        assert_eq!(evicted.addr, LineAddr::new(0));
        assert_eq!(c.stats().hits, 0, "probe must not count as a hit");
    }

    #[test]
    fn spilled_hit_statistic_and_flag_clearing() {
        let mut c = small_cache();
        let la = LineAddr::new(2);
        let set = c.geometry().set_of(la);
        let v = c.set(set).default_victim();
        c.fill(
            set,
            v,
            CacheLine::spilled(la, MesiState::Modified),
            InsertPos::Mru,
            FillKind::Spill,
        );
        assert_eq!(c.stats().spill_fills, 1);
        c.access(la);
        assert_eq!(c.stats().spilled_line_hits, 1);
        // The flag clears on local reuse: a second hit is an ordinary hit.
        c.access(la);
        assert_eq!(c.stats().spilled_line_hits, 1);
    }

    #[test]
    fn state_updates() {
        let mut c = small_cache();
        fill_demand(&mut c, 3);
        assert_eq!(c.state_of(LineAddr::new(3)), Some(MesiState::Exclusive));
        assert!(c.set_state(LineAddr::new(3), MesiState::Shared));
        assert_eq!(c.state_of(LineAddr::new(3)), Some(MesiState::Shared));
        assert!(!c.set_state(LineAddr::new(99), MesiState::Shared));
        assert_eq!(c.state_of(LineAddr::new(99)), None);
    }

    #[test]
    fn set_state_preserves_spilled_flag() {
        let mut c = small_cache();
        let la = LineAddr::new(2);
        let set = c.geometry().set_of(la);
        let v = c.set(set).default_victim();
        c.fill(
            set,
            v,
            CacheLine::spilled(la, MesiState::Exclusive),
            InsertPos::Mru,
            FillKind::Spill,
        );
        assert!(c.set_state(la, MesiState::Shared));
        let l = c.line_at(set, v).unwrap();
        assert_eq!(l.state, MesiState::Shared);
        assert!(l.spilled, "state rewrite must not clear the spilled bit");
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = small_cache();
        fill_demand(&mut c, 5);
        let gone = c.invalidate(LineAddr::new(5)).unwrap();
        assert_eq!(gone.addr, LineAddr::new(5));
        assert!(c.probe(LineAddr::new(5)).is_none());
        assert_eq!(c.valid_lines(), 0);
        assert!(c.invalidate(LineAddr::new(5)).is_none());
    }

    #[test]
    fn per_set_stats() {
        let mut c = small_cache().with_set_stats();
        c.access(LineAddr::new(0)); // miss in set 0
        fill_demand(&mut c, 0);
        c.access(LineAddr::new(0)); // hit in set 0
        c.access(LineAddr::new(1)); // miss in set 1
        let ss = c.set_stats().unwrap();
        assert_eq!(ss[0].hits, 1);
        assert_eq!(ss[0].misses, 1);
        assert_eq!(ss[1].misses, 1);
        c.reset_stats();
        assert_eq!(c.set_stats().unwrap()[0].accesses(), 0);
        assert_eq!(c.stats().accesses(), 0);
    }

    #[test]
    fn fill_probed_reports_fill_and_eviction() {
        use crate::obs::{NullProbe, VecProbe};
        use crate::types::CoreId;

        let mut c = small_cache();
        let mut probe = VecProbe::default();
        for line in [0u64, 4, 8] {
            let la = LineAddr::new(line);
            let set = c.geometry().set_of(la);
            let v = c.set(set).default_victim();
            c.fill_probed(
                CoreId(1),
                set,
                v,
                CacheLine::demand(la, MesiState::Modified),
                InsertPos::Mru,
                FillKind::Demand,
                &mut probe,
            );
        }
        let fills = probe
            .events
            .iter()
            .filter(|e| matches!(e, ObsEvent::Fill { .. }))
            .count();
        assert_eq!(fills, 3);
        let evictions: Vec<_> = probe
            .events
            .iter()
            .filter(|e| matches!(e, ObsEvent::Eviction { .. }))
            .collect();
        assert_eq!(evictions.len(), 1);
        assert_eq!(
            *evictions[0],
            ObsEvent::Eviction {
                core: CoreId(1),
                set: SetIdx(0),
                dirty: true
            }
        );

        // The NullProbe path behaves identically to plain fill().
        let mut c2 = small_cache();
        let la = LineAddr::new(12);
        let set = c2.geometry().set_of(la);
        let v = c2.set(set).default_victim();
        let evicted = c2.fill_probed(
            CoreId(0),
            set,
            v,
            CacheLine::demand(la, MesiState::Exclusive),
            InsertPos::Mru,
            FillKind::Demand,
            &mut NullProbe,
        );
        assert!(evicted.is_none());
        assert_eq!(c2.stats().demand_fills, 1);
    }

    #[test]
    fn valid_lines_counts() {
        let mut c = small_cache();
        assert_eq!(c.valid_lines(), 0);
        fill_demand(&mut c, 0);
        fill_demand(&mut c, 1);
        fill_demand(&mut c, 2);
        assert_eq!(c.valid_lines(), 3);
    }

    #[test]
    fn set_mut_round_trips_through_views() {
        let mut c = small_cache();
        fill_demand(&mut c, 0);
        let set = SetIdx(0);
        let way = c.set(set).find(LineAddr::new(0)).unwrap();
        c.set_mut(set).set_state(way, MesiState::Shared);
        assert_eq!(c.state_of(LineAddr::new(0)), Some(MesiState::Shared));
        assert_eq!(c.set(set).valid_count(), 1);
        let gone = c.set_mut(set).invalidate_way(way).unwrap();
        assert_eq!(gone.addr, LineAddr::new(0));
        assert_eq!(c.set(set).valid_count(), 0);
    }
}
