//! **TinyLFU** admission filtering (Einziger, Friedman & Manes, ACM ToS
//! 2017) composable in front of any [`LlcPolicy`].
//!
//! TinyLFU is not a replacement policy: it is a *gate* on the off-chip fill
//! path. An approximate frequency sketch — here a 4-bit count-min sketch
//! fronted by a 1-bit *doorkeeper* bloom filter — observes every L2 access.
//! When a fetched line would evict a resident victim, the candidate is
//! admitted only if its estimated frequency strictly exceeds the victim's;
//! otherwise the fill is bypassed entirely (the engine skips both the L2
//! and L1 fills via [`LlcPolicy::admit_fill`]). Every `sample_period`
//! observations the sketch is *reset* by halving every counter and clearing
//! the doorkeeper, which ages out stale history exponentially.
//!
//! The sketch and doorkeeper live in [`SidecarSlab`] arenas (16 4-bit
//! counters per word; 64 doorkeeper bits per word), and all hashing is a
//! fixed SplitMix64 finalizer over per-row seed constants, so the policy is
//! deterministic and snapshot-exact.
//!
//! The wrapped eviction policy decides victims, insertion positions and
//! spill routing untouched — `TinyLfuPolicy` forwards every other
//! [`LlcPolicy`] hook to it.

use cmp_cache::{
    AccessOutcome, CoreId, FillKind, InsertPos, LineAddr, LlcPolicy, ObsEvent, PolicySnapshot,
    PrivateBaseline, SetIdx, SetRef, SpillDecision, SpillVictim, WayIdx,
};

use crate::storage::SidecarSlab;

/// Per-row seed constants for the count-min sketch rows.
const ROW_SEEDS: [u64; 8] = [
    0x9e37_79b9_7f4a_7c15,
    0xc2b2_ae3d_27d4_eb4f,
    0x1656_67b1_9e37_79f9,
    0x27d4_eb2f_1656_67c5,
    0xff51_afd7_ed55_8ccd,
    0xc4ce_b9fe_1a85_ec53,
    0x8538_ecb5_bd45_6ea3,
    0x2545_f491_4f6c_dd1d,
];

/// Seed for the doorkeeper bloom bit.
const DOORKEEPER_SEED: u64 = 0x5851_f42d_4c95_7f2d;

/// SplitMix64 finalizer: a fast, well-distributed 64-bit mixer.
#[inline]
fn mix(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

/// Configuration of [`TinyLfuPolicy`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TinyLfuConfig {
    /// Counters per sketch row; must be a power of two.
    pub width: u32,
    /// Sketch rows (hash functions), `1..=8`.
    pub depth: u32,
    /// Observations between halving resets (the sample window `W`).
    pub sample_period: u64,
}

impl TinyLfuConfig {
    /// Sizes the sketch for a CMP of `cores` private LLCs of
    /// `sets` x `ways` lines each: 4 counters per cached line (rounded up
    /// to a power of two), depth 4, and a sample window of 8x the total
    /// line count — small enough to reset within a run, large enough to
    /// separate frequent from one-hit lines.
    pub fn for_geometry(cores: usize, sets: u32, ways: u16) -> Self {
        let lines = cores as u64 * sets as u64 * ways as u64;
        TinyLfuConfig {
            width: (lines.saturating_mul(4)).next_power_of_two().max(64) as u32,
            depth: 4,
            sample_period: (lines * 8).max(1024),
        }
    }

    /// Builds the filter in front of the plain private-LRU baseline
    /// (the classic "TinyLFU admission + LRU eviction" pairing).
    pub fn build(self) -> TinyLfuPolicy {
        self.wrap(Box::new(PrivateBaseline::new()))
    }

    /// Builds the filter in front of an arbitrary eviction policy.
    ///
    /// # Panics
    ///
    /// Panics if `width` is not a power of two below 2^32, is under 64,
    /// or `depth` is outside `1..=8`.
    pub fn wrap(self, inner: Box<dyn LlcPolicy>) -> TinyLfuPolicy {
        assert!(
            self.width.is_power_of_two() && self.width >= 64,
            "sketch width must be a power of two >= 64, got {}",
            self.width
        );
        assert!(
            (1..=8).contains(&self.depth),
            "sketch depth must be 1..=8, got {}",
            self.depth
        );
        assert!(self.sample_period > 0, "sample period must be positive");
        let name = if inner.name() == "baseline" {
            "TinyLFU".to_string()
        } else {
            format!("TinyLFU+{}", inner.name())
        };
        TinyLfuPolicy {
            cfg: self,
            name,
            sketch: SidecarSlab::new(self.depth as usize, self.width as usize / 16),
            doorkeeper: SidecarSlab::new(1, self.width as usize / 64),
            samples: 0,
            resets: 0,
            admissions: 0,
            rejections: 0,
            inner,
        }
    }
}

/// A TinyLFU admission filter wrapped around an eviction policy (see the
/// [module docs](self)).
pub struct TinyLfuPolicy {
    cfg: TinyLfuConfig,
    name: String,
    /// Count-min sketch: row per hash function, 16 4-bit counters per word.
    sketch: SidecarSlab,
    /// Doorkeeper bloom filter: 64 bits per word, single row.
    doorkeeper: SidecarSlab,
    /// Observations since the last reset.
    samples: u64,
    /// Halving resets performed.
    resets: u64,
    admissions: u64,
    rejections: u64,
    inner: Box<dyn LlcPolicy>,
}

impl std::fmt::Debug for TinyLfuPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TinyLfuPolicy")
            .field("cfg", &self.cfg)
            .field("samples", &self.samples)
            .field("resets", &self.resets)
            .field("admissions", &self.admissions)
            .field("rejections", &self.rejections)
            .field("inner", &self.inner.name())
            .finish()
    }
}

impl TinyLfuPolicy {
    fn column(&self, row: usize, addr: LineAddr) -> usize {
        (mix(addr.raw() ^ ROW_SEEDS[row]) & (self.cfg.width as u64 - 1)) as usize
    }

    fn counter(&self, row: usize, col: usize) -> u8 {
        let word = self.sketch.row(row)[col / 16];
        ((word >> ((col % 16) * 4)) & 0xf) as u8
    }

    fn bump(&mut self, row: usize, col: usize) {
        let word = &mut self.sketch.row_mut(row)[col / 16];
        let shift = (col % 16) * 4;
        let nibble = (*word >> shift) & 0xf;
        if nibble < 15 {
            *word += 1 << shift;
        }
    }

    fn doorkeeper_bit(&self, addr: LineAddr) -> (usize, u64) {
        let bit = (mix(addr.raw() ^ DOORKEEPER_SEED) & (self.cfg.width as u64 - 1)) as usize;
        (bit / 64, 1u64 << (bit % 64))
    }

    /// Whether the doorkeeper has seen `addr` since the last reset.
    pub fn doorkeeper_contains(&self, addr: LineAddr) -> bool {
        let (word, mask) = self.doorkeeper_bit(addr);
        self.doorkeeper.row(0)[word] & mask != 0
    }

    /// The sketch's frequency estimate for `addr` (doorkeeper bit included).
    pub fn estimate(&self, addr: LineAddr) -> u32 {
        let sketch_min = (0..self.cfg.depth as usize)
            .map(|row| self.counter(row, self.column(row, addr)) as u32)
            .min()
            .unwrap_or(0);
        sketch_min + self.doorkeeper_contains(addr) as u32
    }

    fn observe(&mut self, addr: LineAddr) {
        let (word, mask) = self.doorkeeper_bit(addr);
        let seen = self.doorkeeper.row(0)[word] & mask != 0;
        if seen {
            // Recurring within the window: count in the sketch.
            for row in 0..self.cfg.depth as usize {
                let col = self.column(row, addr);
                self.bump(row, col);
            }
        } else {
            // First sight this window: the doorkeeper absorbs it, keeping
            // one-hit wonders out of the sketch counters.
            self.doorkeeper.row_mut(0)[word] |= mask;
        }
        self.samples += 1;
        if self.samples >= self.cfg.sample_period {
            self.reset();
        }
    }

    /// The periodic aging step: halve every sketch counter, clear the
    /// doorkeeper, restart the window.
    fn reset(&mut self) {
        for word in self.sketch.words_mut() {
            *word = (*word >> 1) & 0x7777_7777_7777_7777;
        }
        self.doorkeeper.clear();
        self.samples = 0;
        self.resets += 1;
    }

    /// Observations in the current sample window.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Halving resets performed since construction.
    pub fn resets(&self) -> u64 {
        self.resets
    }

    /// Fills admitted past a resident victim (invalid-way fills included).
    pub fn admissions(&self) -> u64 {
        self.admissions
    }

    /// Fills rejected (bypassed) by the filter.
    pub fn rejections(&self) -> u64 {
        self.rejections
    }

    /// The wrapped eviction policy.
    pub fn inner(&self) -> &dyn LlcPolicy {
        self.inner.as_ref()
    }

    /// Every sketch counter, `[row][col]` (diff-harness observability).
    pub fn sketch_counters(&self) -> Vec<Vec<u8>> {
        (0..self.cfg.depth as usize)
            .map(|row| {
                (0..self.cfg.width as usize)
                    .map(|col| self.counter(row, col))
                    .collect()
            })
            .collect()
    }

    /// Every doorkeeper bit (diff-harness observability).
    pub fn doorkeeper_bits(&self) -> Vec<bool> {
        (0..self.cfg.width as usize)
            .map(|bit| self.doorkeeper.row(0)[bit / 64] & (1u64 << (bit % 64)) != 0)
            .collect()
    }
}

impl LlcPolicy for TinyLfuPolicy {
    fn name(&self) -> &str {
        &self.name
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn snapshot(&self) -> PolicySnapshot {
        let mut s = self.inner.snapshot();
        s.policy = self.name.clone();
        s.admission_rejections = Some(self.rejections);
        s.sketch_resets = Some(self.resets);
        s
    }

    fn set_observed(&mut self, observed: bool) {
        self.inner.set_observed(observed);
    }

    fn drain_events(&mut self, out: &mut Vec<ObsEvent>) {
        self.inner.drain_events(out);
    }

    fn record_access(&mut self, core: CoreId, set: SetIdx, outcome: AccessOutcome) {
        self.inner.record_access(core, set, outcome);
    }

    fn note_access(
        &mut self,
        core: CoreId,
        line: LineAddr,
        set: SetIdx,
        outcome: AccessOutcome,
        way: Option<WayIdx>,
    ) {
        self.observe(line);
        self.inner.note_access(core, line, set, outcome, way);
    }

    fn admit_fill(
        &mut self,
        core: CoreId,
        set: SetIdx,
        line: LineAddr,
        contents: SetRef<'_>,
    ) -> bool {
        if !self.inner.admit_fill(core, set, line, contents) {
            self.rejections += 1;
            return false;
        }
        let Some(victim) = contents.line(contents.default_victim()) else {
            // A free way: admission costs nothing.
            self.admissions += 1;
            return true;
        };
        // The candidate must beat the line it would displace. Strict
        // inequality keeps churn out: a tie is not worth an eviction.
        if self.estimate(line) > self.estimate(victim.addr) {
            self.admissions += 1;
            true
        } else {
            self.rejections += 1;
            false
        }
    }

    fn demand_insert_pos(&mut self, core: CoreId, set: SetIdx) -> InsertPos {
        self.inner.demand_insert_pos(core, set)
    }

    fn spill_insert_pos(&mut self, core: CoreId, set: SetIdx) -> InsertPos {
        self.inner.spill_insert_pos(core, set)
    }

    fn spill_decision(&mut self, from: CoreId, set: SetIdx, victim: SpillVictim) -> SpillDecision {
        self.inner.spill_decision(from, set, victim)
    }

    fn swap_enabled(&self) -> bool {
        self.inner.swap_enabled()
    }

    fn choose_victim(
        &mut self,
        core: CoreId,
        set: SetIdx,
        kind: FillKind,
        contents: SetRef<'_>,
    ) -> WayIdx {
        self.inner.choose_victim(core, set, kind, contents)
    }

    fn note_remote_hit(&mut self, owner: CoreId, set: SetIdx, was_spilled: bool) {
        self.inner.note_remote_hit(owner, set, was_spilled);
    }

    fn on_cycle(&mut self, core: CoreId, cycles: u64) {
        self.inner.on_cycle(core, cycles);
    }

    fn has_cycle_work(&self) -> bool {
        self.inner.has_cycle_work()
    }

    fn check_invariants(&self) -> Vec<String> {
        let mut out = self.inner.check_invariants();
        if self.samples >= self.cfg.sample_period {
            out.push(format!(
                "sample counter {} at or past the window {}",
                self.samples, self.cfg.sample_period
            ));
        }
        out
    }

    fn save_state(&self, w: &mut cmp_snap::SnapWriter) {
        w.put_str(&self.name);
        w.put_u64(self.samples);
        w.put_u64(self.resets);
        w.put_u64(self.admissions);
        w.put_u64(self.rejections);
        self.sketch.save_state(w);
        self.doorkeeper.save_state(w);
        self.inner.save_state(w);
    }

    fn load_state(&mut self, r: &mut cmp_snap::SnapReader<'_>) -> Result<(), cmp_snap::SnapError> {
        let name = r.get_str()?;
        if name != self.name {
            return Err(cmp_snap::SnapError::Mismatch(format!(
                "policy variant: snapshot \"{name}\", live \"{}\"",
                self.name
            )));
        }
        self.samples = r.get_u64()?;
        self.resets = r.get_u64()?;
        self.admissions = r.get_u64()?;
        self.rejections = r.get_u64()?;
        self.sketch.load_state(r)?;
        self.doorkeeper.load_state(r)?;
        self.inner.load_state(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmp_cache::{CacheLine, CacheSet, InsertPos, MesiState};

    fn tiny(window: u64) -> TinyLfuPolicy {
        TinyLfuConfig {
            width: 64,
            depth: 4,
            sample_period: window,
        }
        .build()
    }

    fn observe_n(p: &mut TinyLfuPolicy, addr: u64, n: usize) {
        for _ in 0..n {
            p.note_access(
                CoreId(0),
                LineAddr::new(addr),
                SetIdx(0),
                AccessOutcome::Miss,
                None,
            );
        }
    }

    #[test]
    fn doorkeeper_absorbs_first_touch() {
        let mut p = tiny(1_000);
        assert_eq!(p.estimate(LineAddr::new(0xabc)), 0);
        observe_n(&mut p, 0xabc, 1);
        assert!(p.doorkeeper_contains(LineAddr::new(0xabc)));
        assert_eq!(p.estimate(LineAddr::new(0xabc)), 1, "doorkeeper bit only");
        observe_n(&mut p, 0xabc, 3);
        assert_eq!(p.estimate(LineAddr::new(0xabc)), 4, "3 sketch + doorkeeper");
    }

    #[test]
    fn admission_requires_strictly_higher_estimate() {
        let mut p = tiny(1_000);
        let mut set = CacheSet::new(2);
        set.view_mut().fill(
            WayIdx(0),
            CacheLine {
                addr: LineAddr::new(0x10),
                state: MesiState::Exclusive,
                spilled: false,
            },
            InsertPos::Mru,
        );
        set.view_mut().fill(
            WayIdx(1),
            CacheLine {
                addr: LineAddr::new(0x20),
                state: MesiState::Exclusive,
                spilled: false,
            },
            InsertPos::Mru,
        );
        observe_n(&mut p, 0x10, 5); // victim candidate is hot
        observe_n(&mut p, 0x99, 1); // newcomer is cold
        assert!(
            !p.admit_fill(CoreId(0), SetIdx(0), LineAddr::new(0x99), set.view()),
            "cold line must not displace a hot victim"
        );
        assert_eq!(p.rejections(), 1);
        observe_n(&mut p, 0x99, 9);
        assert!(
            p.admit_fill(CoreId(0), SetIdx(0), LineAddr::new(0x99), set.view()),
            "now-hot line beats the victim"
        );
        assert_eq!(p.admissions(), 1);
    }

    #[test]
    fn invalid_way_always_admits() {
        let mut p = tiny(1_000);
        let set = CacheSet::new(2);
        assert!(p.admit_fill(CoreId(0), SetIdx(0), LineAddr::new(0x99), set.view()));
    }

    #[test]
    fn reset_halves_counters_and_clears_doorkeeper() {
        let mut p = tiny(10);
        observe_n(&mut p, 0x42, 9); // doorkeeper + 8 sketch increments
        assert_eq!(p.estimate(LineAddr::new(0x42)), 9);
        observe_n(&mut p, 0x42, 1); // 10th observation triggers the reset
        assert_eq!(p.resets(), 1);
        assert_eq!(p.samples(), 0);
        assert!(!p.doorkeeper_contains(LineAddr::new(0x42)));
        // 9 sketch increments halved: 4 remain, doorkeeper bit gone.
        assert_eq!(p.estimate(LineAddr::new(0x42)), 4);
    }

    #[test]
    fn counters_saturate_at_fifteen() {
        let mut p = tiny(1_000_000);
        observe_n(&mut p, 0x7, 40);
        assert_eq!(p.estimate(LineAddr::new(0x7)), 16, "15 sketch + doorkeeper");
    }

    #[test]
    fn save_load_round_trips_sketch_and_window() {
        let mut p = tiny(50);
        for a in 0..30u64 {
            observe_n(&mut p, 0x100 + a % 7, 1);
        }
        let mut w = cmp_snap::SnapWriter::new();
        p.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut q = tiny(50);
        let mut r = cmp_snap::SnapReader::new(&bytes);
        q.load_state(&mut r).expect("load");
        assert_eq!(p.samples(), q.samples());
        assert_eq!(p.resets(), q.resets());
        for a in 0..7u64 {
            assert_eq!(
                p.estimate(LineAddr::new(0x100 + a)),
                q.estimate(LineAddr::new(0x100 + a))
            );
        }
    }
}
