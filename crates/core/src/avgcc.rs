//! AVGCC — Adaptive Variable-Granularity Cooperative Caching (§4) and its
//! Quality-of-Service extension (§8).
//!
//! AVGCC is ASCC whose *granularity* (sets per SSL counter) adapts at run
//! time. Per cache it keeps the three hardware counters of §4.1:
//!
//! * `D` — log2 of the current sets-per-counter (counter `I >> D` covers
//!   set `I`);
//! * `A` — how many adjacent counter pairs are *similar* (absolute value
//!   difference of at most 2 and the same insertion policy), maintained by
//!   evaluating the pair condition before and after every counter update;
//! * `B` — how many counters in use are below `K`, maintained on every
//!   `K`-boundary crossing.
//!
//! Every `epoch_accesses` accesses (the paper uses 100 000) the cache
//! doubles its counters (`D -= 1`) when `B > (S >> D) / 2` — more than half
//! the counters signal spare capacity, so finer tracking pays — or halves
//! them (`D += 1`) when `A == (S >> D) / 2` — every pair is redundant. After
//! a change the new counters are initialised to `K - 1` and the insertion
//! policies reset to MRU. Different caches may run at different
//! granularities.
//!
//! The QoS extension estimates the baseline's misses from sets that are in
//! MRU mode with `SSL > K-1` (they neither receive nor insert deep), and
//! every 100 000 cycles updates `QoSRatio = MBC / max(MBC, MissesWithAVGCC)`
//! (1.3 fixed point). Each miss then adds `QoSRatio` instead of 1 to the
//! SSL, throttling the whole mechanism when it is hurting.

use crate::ssl::{SetRole, SslTable};
use crate::tuning::SslTuning;
use cmp_cache::{
    AccessOutcome, CoreId, CoreSnapshot, InsertPos, LlcPolicy, ObsEvent, PolicySnapshot,
    RoleHistogram, SetIdx, SpillDecision, SpillVictim,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Configuration of an [`AvgccPolicy`].
#[derive(Clone, Debug)]
pub struct AvgccConfig {
    /// Number of cores / private LLCs.
    pub cores: usize,
    /// Sets per LLC.
    pub sets: u32,
    /// LLC associativity (`K`).
    pub ways: u16,
    /// Accesses per cache between granularity recalculations (§5: 100 000).
    pub epoch_accesses: u64,
    /// Enable the §8 QoS extension.
    pub qos: bool,
    /// Cycles between QoS ratio recalculations (§8: 100 000).
    pub qos_epoch_cycles: u64,
    /// Cap on the number of counters (the §7 cost study limits to 128 or
    /// 2048); `None` allows the finest one-counter-per-set granularity.
    pub max_counters: Option<u32>,
    /// BIP/SABIP probability of MRU insertion.
    pub bip_epsilon: f64,
    /// Enable the requested/victim swap of §3.2.
    pub swap: bool,
    /// SSL saturation-range tuning.
    pub tuning: SslTuning,
    /// RNG seed.
    pub seed: u64,
}

impl AvgccConfig {
    /// The paper's AVGCC.
    ///
    /// # Examples
    ///
    /// ```
    /// use ascc::AvgccConfig;
    /// use cmp_cache::CoreId;
    ///
    /// // 4 cores with the paper's 4096-set, 8-way LLCs.
    /// let policy = AvgccConfig::avgcc(4, 4096, 8).build();
    /// // Every cache starts with a single counter for the whole cache.
    /// assert_eq!(policy.counters_in_use(CoreId(0)), 1);
    /// ```
    pub fn avgcc(cores: usize, sets: u32, ways: u16) -> Self {
        AvgccConfig {
            cores,
            sets,
            ways,
            epoch_accesses: 100_000,
            qos: false,
            qos_epoch_cycles: 100_000,
            max_counters: None,
            bip_epsilon: 1.0 / 32.0,
            swap: true,
            tuning: SslTuning::default(),
            seed: 0xA26CC,
        }
    }

    /// The QoS-aware AVGCC of §8.
    pub fn qos_avgcc(cores: usize, sets: u32, ways: u16) -> Self {
        let mut c = Self::avgcc(cores, sets, ways);
        c.qos = true;
        c
    }

    /// Limits the maximum number of counters (§7 cost study).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero, not a power of two, or exceeds `sets`.
    pub fn with_max_counters(mut self, n: u32) -> Self {
        assert!(
            n > 0 && n.is_power_of_two() && n <= self.sets,
            "max counters must be a power of two within the set count"
        );
        self.max_counters = Some(n);
        self
    }

    /// Builds the policy.
    pub fn build(self) -> AvgccPolicy {
        AvgccPolicy::new(self)
    }
}

/// Fixed-point 1.0 for the 1.3-format QoS ratio.
const QOS_ONE: u16 = 1 << 3;

#[derive(Clone, Debug, Default)]
struct QosState {
    misses_with: u64,
    sampled_misses: u64,
    last_cycle: u64,
    ratio_fixed: u16,
}

struct AvgccCache {
    ssl: SslTable,
    bip: Vec<bool>,
    d: u8,
    a: u32,
    b: u32,
    accesses: u64,
    qos: QosState,
}

impl AvgccCache {
    fn in_use(&self) -> u32 {
        self.ssl.counters() as u32
    }

    /// Whether the pair containing counter `idx` is "similar": values within
    /// 2 SSL units and the same insertion policy (§4).
    fn pair_similar(&self, idx: usize) -> bool {
        let j = idx ^ 1;
        if j >= self.ssl.counters() {
            return false;
        }
        let vi = self.ssl.value_at(idx) as i32;
        let vj = self.ssl.value_at(j) as i32;
        (vi - vj).abs() <= 2 * SslTable::ONE as i32 && self.bip[idx] == self.bip[j]
    }

    /// Applies a counter mutation while maintaining `A` and `B` exactly as
    /// the hardware of §4.1 does (evaluate-before / evaluate-after).
    fn mutate(&mut self, idx: usize, new_value: Option<u16>, new_bip: Option<bool>) {
        let before = self.pair_similar(idx);
        if let Some(nv) = new_value {
            let old = self.ssl.value_at(idx);
            let k = self.ssl.k_fixed();
            if old >= k && nv < k {
                self.b += 1;
            } else if old < k && nv >= k {
                self.b -= 1;
            }
            self.ssl.set_value_at(idx, nv);
        }
        if let Some(nb) = new_bip {
            self.bip[idx] = nb;
        }
        let after = self.pair_similar(idx);
        match (before, after) {
            (false, true) => self.a += 1,
            (true, false) => self.a -= 1,
            _ => {}
        }
    }

    /// Recomputes `A`/`B` from scratch (used after re-initialisation and by
    /// the consistency tests).
    fn recount_ab(&self) -> (u32, u32) {
        let n = self.ssl.counters();
        let a = (0..n / 2).filter(|&m| self.pair_similar(2 * m)).count() as u32;
        let b = (0..n)
            .filter(|&i| self.ssl.value_at(i) < self.ssl.k_fixed())
            .count() as u32;
        (a, b)
    }

    fn reinit(&mut self, sets: u32, k: u16, tuning: SslTuning) {
        self.ssl = SslTable::with_tuning(sets, k, 1 << self.d, tuning);
        self.bip = vec![false; self.ssl.counters()];
        let (a, b) = self.recount_ab();
        self.a = a;
        self.b = b;
    }
}

/// The AVGCC / QoS-AVGCC policy.
pub struct AvgccPolicy {
    cfg: AvgccConfig,
    name: String,
    caches: Vec<AvgccCache>,
    rng: SmallRng,
    d_min: u8,
    d_max: u8,
    granularity_changes: u64,
    /// Event buffering is enabled only while a probe observes the run.
    observed: bool,
    events: Vec<ObsEvent>,
}

impl std::fmt::Debug for AvgccPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AvgccPolicy")
            .field("name", &self.name)
            .field("cores", &self.cfg.cores)
            .finish()
    }
}

impl AvgccPolicy {
    /// Builds the policy. Every cache starts at the coarsest granularity —
    /// "our proposal entails starting with one counter for the whole cache"
    /// (§4).
    ///
    /// # Panics
    ///
    /// Panics on inconsistent configuration (zero cores, non-power-of-two
    /// shapes, epsilon outside `[0, 1]`).
    pub fn new(cfg: AvgccConfig) -> Self {
        assert!(cfg.cores > 0, "need at least one core");
        assert!(
            (0.0..=1.0).contains(&cfg.bip_epsilon),
            "epsilon must be a probability"
        );
        assert!(cfg.epoch_accesses > 0, "epoch must be nonzero");
        let d_max = cfg.sets.trailing_zeros() as u8;
        let d_min = cfg
            .max_counters
            .map(|mc| d_max - mc.trailing_zeros() as u8)
            .unwrap_or(0);
        let name = match (cfg.qos, cfg.max_counters) {
            (true, _) => "QoS-AVGCC".to_string(),
            (false, Some(mc)) => format!("AVGCC-c{mc}"),
            (false, None) => "AVGCC".to_string(),
        };
        let caches = (0..cfg.cores)
            .map(|_| {
                let mut c = AvgccCache {
                    ssl: SslTable::with_tuning(cfg.sets, cfg.ways, cfg.sets, cfg.tuning),
                    bip: vec![false],
                    d: d_max,
                    a: 0,
                    b: 0,
                    accesses: 0,
                    qos: QosState {
                        ratio_fixed: QOS_ONE,
                        ..QosState::default()
                    },
                };
                let (a, b) = c.recount_ab();
                c.a = a;
                c.b = b;
                c
            })
            .collect();
        AvgccPolicy {
            rng: SmallRng::seed_from_u64(cfg.seed),
            name,
            caches,
            d_min,
            d_max,
            granularity_changes: 0,
            observed: false,
            events: Vec::new(),
            cfg,
        }
    }

    /// The configuration this policy was built from.
    pub fn config(&self) -> &AvgccConfig {
        &self.cfg
    }

    /// Current `D` (log2 sets-per-counter) of a cache.
    pub fn granularity_log2(&self, core: CoreId) -> u8 {
        self.caches[core.index()].d
    }

    /// Number of counters a cache currently uses.
    pub fn counters_in_use(&self, core: CoreId) -> u32 {
        self.caches[core.index()].in_use()
    }

    /// Total granularity changes across all caches (behaviour stats).
    pub fn granularity_changes(&self) -> u64 {
        self.granularity_changes
    }

    /// Current QoS ratio of a cache as a float in `[0, 1]`.
    pub fn qos_ratio(&self, core: CoreId) -> f64 {
        self.caches[core.index()].qos.ratio_fixed as f64 / QOS_ONE as f64
    }

    /// Current role of `core`'s `set`.
    pub fn role(&self, core: CoreId, set: SetIdx) -> SetRole {
        self.caches[core.index()].ssl.role(set.0)
    }

    /// Whether `core`'s `set` is in SABIP mode.
    pub fn in_capacity_mode(&self, core: CoreId, set: SetIdx) -> bool {
        let c = &self.caches[core.index()];
        c.bip[c.ssl.counter_of(set.0)]
    }

    /// Fixed-point values of all in-use SSL counters of `core`, counter
    /// order (differential-testing helper).
    pub fn ssl_values(&self, core: CoreId) -> Vec<u16> {
        let t = &self.caches[core.index()].ssl;
        (0..t.counters()).map(|i| t.value_at(i)).collect()
    }

    /// SABIP flags of all in-use counters of `core`, counter order
    /// (differential-testing helper).
    pub fn bip_flags(&self, core: CoreId) -> Vec<bool> {
        self.caches[core.index()].bip.clone()
    }

    /// The incremental `(A, B)` epoch counters of `core`
    /// (differential-testing helper).
    pub fn ab_counters(&self, core: CoreId) -> (u32, u32) {
        let c = &self.caches[core.index()];
        (c.a, c.b)
    }

    /// Verifies the incremental `A`/`B` counters against a recount
    /// (debug/test helper).
    ///
    /// # Panics
    ///
    /// Panics if the incremental state diverged.
    pub fn assert_ab_consistent(&self) {
        for (i, c) in self.caches.iter().enumerate() {
            let (a, b) = c.recount_ab();
            assert_eq!((c.a, c.b), (a, b), "cache {i}: A/B diverged from recount");
        }
    }

    fn epoch(&mut self, core: usize) {
        let (sets, ways, tuning) = (self.cfg.sets, self.cfg.ways, self.cfg.tuning);
        let c = &mut self.caches[core];
        let in_use = c.in_use();
        // Refine (duplicate the counters) when more than half signal spare
        // capacity; coarsen (halve) when every adjacent pair is redundant.
        // Refinement is checked first: capacity that can be shared at a
        // finer grain is the mechanism's raison d'être.
        if c.b > in_use / 2 && c.d > self.d_min {
            c.d -= 1;
            c.reinit(sets, ways, tuning);
            let (d, n) = (c.d, c.in_use());
            self.granularity_changes += 1;
            self.note_regranularized(core, d, n);
        } else if in_use >= 2 && c.a == in_use / 2 && c.d < self.d_max {
            c.d += 1;
            c.reinit(sets, ways, tuning);
            let (d, n) = (c.d, c.in_use());
            self.granularity_changes += 1;
            self.note_regranularized(core, d, n);
        }
    }

    fn note_regranularized(&mut self, core: usize, d: u8, counters: u32) {
        if self.observed {
            self.events.push(ObsEvent::Regranularized {
                core: CoreId(core as u8),
                granularity_log2: d,
                counters,
            });
        }
    }

    fn sabip_pos(&mut self) -> InsertPos {
        if self.rng.gen::<f64>() < self.cfg.bip_epsilon {
            InsertPos::Mru
        } else {
            InsertPos::LruMinus1
        }
    }
}

impl LlcPolicy for AvgccPolicy {
    fn name(&self) -> &str {
        &self.name
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn record_access(&mut self, core: CoreId, set: SetIdx, outcome: AccessOutcome) {
        let hit = outcome.is_hit();
        let qos_on = self.cfg.qos;
        let c = &mut self.caches[core.index()];
        let idx = c.ssl.counter_of(set.0);
        let old = c.ssl.value_at(idx);
        let k = c.ssl.k_fixed();
        let reverted = if hit {
            let new = old.saturating_sub(SslTable::ONE);
            let revert = new < k && c.bip[idx];
            c.mutate(idx, Some(new), revert.then_some(false));
            revert
        } else {
            if qos_on {
                c.qos.misses_with += 1;
                // Sampled sets: MRU policy and SSL > K-1 (cannot receive).
                if !c.bip[idx] && old >= k {
                    c.qos.sampled_misses += 1;
                }
            }
            let inc = if qos_on {
                c.qos.ratio_fixed
            } else {
                SslTable::ONE
            };
            let new = old.saturating_add(inc).min(c.ssl.max_fixed());
            let revert = new < k && c.bip[idx];
            c.mutate(idx, Some(new), revert.then_some(false));
            revert
        };
        c.accesses += 1;
        let epoch_due = c.accesses.is_multiple_of(self.cfg.epoch_accesses);
        if reverted && self.observed {
            self.events.push(ObsEvent::InsertionModeSwitch {
                core,
                counter: idx as u32,
                deep: false,
            });
        }
        if epoch_due {
            self.epoch(core.index());
        }
    }

    fn demand_insert_pos(&mut self, core: CoreId, set: SetIdx) -> InsertPos {
        if self.in_capacity_mode(core, set) {
            self.sabip_pos()
        } else {
            InsertPos::Mru
        }
    }

    fn spill_decision(&mut self, from: CoreId, set: SetIdx, _victim: SpillVictim) -> SpillDecision {
        if self.cfg.qos && self.caches[from.index()].qos.ratio_fixed == 0 {
            // Fully inhibited: behave like the baseline (no spilling).
            return SpillDecision::NotSpiller;
        }
        if self.role(from, set) != SetRole::Spiller {
            return SpillDecision::NotSpiller;
        }
        // Minimum-SSL receiver among the peers, each evaluated at its own
        // current granularity; ties broken randomly. Under QoS, a cache
        // whose ratio dropped below 1 is being *harmed* by the mechanism
        // (its misses exceed the baseline estimate): inhibiting AVGCC for
        // it means it neither spills nor accepts further spills until its
        // ratio recovers (§8's "losing performance may be unacceptable").
        let k = self.caches[from.index()].ssl.k_fixed();
        let mut best = k;
        let mut candidates: Vec<CoreId> = Vec::with_capacity(self.cfg.cores);
        for (i, c) in self.caches.iter().enumerate() {
            if i == from.index() {
                continue;
            }
            if self.cfg.qos && c.qos.ratio_fixed < QOS_ONE {
                continue;
            }
            let v = c.ssl.value(set.0);
            if v < best {
                best = v;
                candidates.clear();
                candidates.push(CoreId(i as u8));
            } else if v < k && v == best {
                candidates.push(CoreId(i as u8));
            }
        }
        match candidates.len() {
            0 => {
                let c = &mut self.caches[from.index()];
                let idx = c.ssl.counter_of(set.0);
                if !c.bip[idx] {
                    c.mutate(idx, None, Some(true));
                    if self.observed {
                        self.events.push(ObsEvent::InsertionModeSwitch {
                            core: from,
                            counter: idx as u32,
                            deep: true,
                        });
                    }
                }
                SpillDecision::NoCandidate
            }
            1 => SpillDecision::Spill(candidates[0]),
            n => SpillDecision::Spill(candidates[self.rng.gen_range(0..n)]),
        }
    }

    fn swap_enabled(&self) -> bool {
        self.cfg.swap
    }

    fn check_invariants(&self) -> Vec<String> {
        let mut out = Vec::new();
        for (i, c) in self.caches.iter().enumerate() {
            let t = &c.ssl;
            let values: Vec<u16> = (0..t.counters()).map(|j| t.value_at(j)).collect();
            let reported: Vec<cmp_coherence::SslRole> = (0..t.counters())
                .map(|j| {
                    let set = (j as u32) * t.sets_per_counter();
                    match self.role(CoreId(i as u8), SetIdx(set)) {
                        SetRole::Receiver => cmp_coherence::SslRole::Receiver,
                        SetRole::Neutral => cmp_coherence::SslRole::Neutral,
                        SetRole::Spiller => cmp_coherence::SslRole::Spiller,
                    }
                })
                .collect();
            out.extend(
                cmp_coherence::check_ssl(
                    i,
                    &values,
                    t.k_fixed(),
                    t.spiller_fixed(),
                    t.max_fixed(),
                    &reported,
                )
                .iter()
                .map(|v| v.to_string()),
            );
            out.extend(
                cmp_coherence::check_granularity(
                    i,
                    self.cfg.sets,
                    c.in_use(),
                    self.cfg.max_counters,
                )
                .iter()
                .map(|v| v.to_string()),
            );
            // The incremental A/B bookkeeping must agree with a recount.
            let (a, b) = c.recount_ab();
            if (c.a, c.b) != (a, b) {
                out.push(format!(
                    "core {i}: incremental A/B ({}, {}) diverged from recount ({a}, {b})",
                    c.a, c.b
                ));
            }
        }
        out
    }

    fn has_cycle_work(&self) -> bool {
        self.cfg.qos
    }

    fn on_cycle(&mut self, core: CoreId, cycles: u64) {
        if !self.cfg.qos {
            return;
        }
        let sets = self.cfg.sets;
        let c = &mut self.caches[core.index()];
        if cycles.saturating_sub(c.qos.last_cycle) < self.cfg.qos_epoch_cycles {
            return;
        }
        c.qos.last_cycle = cycles;
        // Estimate the baseline's misses from the sampled sets (Eq. 1).
        let spc = c.ssl.sets_per_counter() as u64;
        let k = c.ssl.k_fixed();
        let sampled_counters = (0..c.ssl.counters())
            .filter(|&i| !c.bip[i] && c.ssl.value_at(i) >= k)
            .count() as u64;
        let sampled_sets = sampled_counters * spc;
        let ratio = if sampled_sets == 0 || c.qos.misses_with == 0 {
            1.0
        } else {
            let mbc = sets as f64 * (c.qos.sampled_misses as f64 / sampled_sets as f64);
            mbc / mbc.max(c.qos.misses_with as f64)
        };
        c.qos.ratio_fixed = ((ratio * QOS_ONE as f64).round() as u16).min(QOS_ONE);
        c.qos.misses_with = 0;
        c.qos.sampled_misses = 0;
        let ratio = c.qos.ratio_fixed as f64 / QOS_ONE as f64;
        if self.observed {
            self.events.push(ObsEvent::QosRatioUpdate { core, ratio });
        }
    }

    fn snapshot(&self) -> PolicySnapshot {
        let mut snap = PolicySnapshot::new(&self.name);
        snap.granularity_changes = Some(self.granularity_changes);
        snap.ab_consistent = Some(self.caches.iter().all(|c| c.recount_ab() == (c.a, c.b)));
        snap.per_core = self
            .caches
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let mut cs = CoreSnapshot::new(CoreId(i as u8));
                let mut h = RoleHistogram::default();
                for set in 0..self.cfg.sets {
                    match c.ssl.role(set) {
                        SetRole::Receiver => h.receiver += 1,
                        SetRole::Neutral => h.neutral += 1,
                        SetRole::Spiller => h.spiller += 1,
                    }
                }
                cs.roles = Some(h);
                cs.sabip_sets = Some(
                    (0..self.cfg.sets)
                        .filter(|&s| c.bip[c.ssl.counter_of(s)])
                        .count() as u32,
                );
                cs.granularity_log2 = Some(c.d);
                cs.counters_in_use = Some(c.in_use());
                if self.cfg.qos {
                    cs.qos_ratio = Some(c.qos.ratio_fixed as f64 / QOS_ONE as f64);
                }
                cs
            })
            .collect();
        snap
    }

    fn set_observed(&mut self, observed: bool) {
        self.observed = observed;
        if !observed {
            self.events.clear();
        }
    }

    fn drain_events(&mut self, out: &mut Vec<ObsEvent>) {
        out.append(&mut self.events);
    }

    fn save_state(&self, w: &mut cmp_snap::SnapWriter) {
        w.put_str(&self.name);
        w.put_u64_slice(&self.rng.state());
        w.put_u64(self.granularity_changes);
        w.put_u64(self.caches.len() as u64);
        for c in &self.caches {
            w.put_u8(c.d);
            c.ssl.save_state(w);
            w.put_u64(c.bip.len() as u64);
            for &b in &c.bip {
                w.put_bool(b);
            }
            w.put_u32(c.a);
            w.put_u32(c.b);
            w.put_u64(c.accesses);
            w.put_u64(c.qos.misses_with);
            w.put_u64(c.qos.sampled_misses);
            w.put_u64(c.qos.last_cycle);
            w.put_u16(c.qos.ratio_fixed);
        }
    }

    fn load_state(&mut self, r: &mut cmp_snap::SnapReader<'_>) -> Result<(), cmp_snap::SnapError> {
        let name = r.get_str()?;
        if name != self.name {
            return Err(cmp_snap::SnapError::Mismatch(format!(
                "policy variant: snapshot \"{name}\", live \"{}\"",
                self.name
            )));
        }
        let rng = r.get_u64_slice()?;
        let rng: [u64; 4] = rng
            .as_slice()
            .try_into()
            .map_err(|_| cmp_snap::SnapError::Corrupt("RNG state is not 4 words".into()))?;
        if rng == [0; 4] {
            return Err(cmp_snap::SnapError::Corrupt("all-zero RNG state".into()));
        }
        self.rng = SmallRng::from_state(rng);
        self.granularity_changes = r.get_u64()?;
        let n = r.get_u64()?;
        if n != self.caches.len() as u64 {
            return Err(cmp_snap::SnapError::Mismatch(format!(
                "core count: snapshot {n}, live {}",
                self.caches.len()
            )));
        }
        let (sets, ways, tuning) = (self.cfg.sets, self.cfg.ways, self.cfg.tuning);
        for c in &mut self.caches {
            let d = r.get_u8()?;
            if !(self.d_min..=self.d_max).contains(&d) {
                return Err(cmp_snap::SnapError::Corrupt(format!(
                    "granularity D={d} outside [{}, {}]",
                    self.d_min, self.d_max
                )));
            }
            // Rebuild the table at the snapshot's granularity first: the
            // SSL shape (and the BIP flag count) depends on `D`, then the
            // saved counter values overwrite the reinitialised ones and
            // `A`/`B` are taken from the snapshot (they were maintained
            // incrementally and must continue bit-exactly).
            c.d = d;
            c.reinit(sets, ways, tuning);
            c.ssl.load_state(r)?;
            let len = r.get_u64()?;
            if len != c.bip.len() as u64 {
                return Err(cmp_snap::SnapError::Corrupt(format!(
                    "BIP flag count {len} for {} counters",
                    c.bip.len()
                )));
            }
            for b in &mut c.bip {
                *b = r.get_bool()?;
            }
            c.a = r.get_u32()?;
            c.b = r.get_u32()?;
            c.accesses = r.get_u64()?;
            c.qos = QosState {
                misses_with: r.get_u64()?,
                sampled_misses: r.get_u64()?,
                last_cycle: r.get_u64()?,
                ratio_fixed: r.get_u16()?,
            };
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SETS: u32 = 16;
    const K: u16 = 4;

    fn quick(cores: usize) -> AvgccConfig {
        let mut c = AvgccConfig::avgcc(cores, SETS, K);
        c.epoch_accesses = 64; // fast epochs for tests
        c
    }

    #[test]
    fn starts_with_one_counter() {
        let p = quick(2).build();
        assert_eq!(p.counters_in_use(CoreId(0)), 1);
        assert_eq!(p.granularity_log2(CoreId(0)), 4); // log2(16)
        assert_eq!(p.name(), "AVGCC");
    }

    #[test]
    fn refines_under_spare_capacity() {
        let mut p = quick(2).build();
        // All hits: the single counter drops below K; B = 1 > 1/2 = 0 -> refine.
        for i in 0..200u32 {
            p.record_access(
                CoreId(0),
                SetIdx(i % SETS),
                AccessOutcome::Hit {
                    spilled: false,
                    depth: 0,
                },
            );
        }
        assert!(
            p.counters_in_use(CoreId(0)) > 1,
            "cache with spare capacity should refine; in use: {}",
            p.counters_in_use(CoreId(0))
        );
        p.assert_ab_consistent();
    }

    #[test]
    fn coarsens_when_counters_agree() {
        let mut cfg = quick(1);
        cfg.epoch_accesses = 32;
        let mut p = cfg.build();
        // Refine a few times first.
        for i in 0..200u32 {
            p.record_access(
                CoreId(0),
                SetIdx(i % SETS),
                AccessOutcome::Hit {
                    spilled: false,
                    depth: 0,
                },
            );
        }
        let fine = p.counters_in_use(CoreId(0));
        assert!(fine > 1);
        // Uniform misses keep all counters equal and >= K: A = pairs -> coarsen.
        for round in 0..40 {
            for i in 0..SETS {
                let _ = round;
                p.record_access(CoreId(0), SetIdx(i), AccessOutcome::Miss);
            }
        }
        assert!(
            p.counters_in_use(CoreId(0)) < fine,
            "uniform pressure should coarsen: {} -> {}",
            fine,
            p.counters_in_use(CoreId(0))
        );
        p.assert_ab_consistent();
    }

    #[test]
    fn granularity_stays_within_bounds() {
        let mut p = quick(1).build();
        for i in 0..10_000u32 {
            let hit = (i / 32) % 3 != 0;
            p.record_access(
                CoreId(0),
                SetIdx(i % SETS),
                if hit {
                    AccessOutcome::Hit {
                        spilled: false,
                        depth: 0,
                    }
                } else {
                    AccessOutcome::Miss
                },
            );
            let d = p.granularity_log2(CoreId(0));
            assert!(d <= 4, "d={d} exceeded log2(sets)");
        }
        p.assert_ab_consistent();
    }

    #[test]
    fn max_counters_caps_refinement() {
        let mut cfg = quick(1).with_max_counters(4);
        cfg.epoch_accesses = 16;
        let mut p = cfg.build();
        assert_eq!(p.name(), "AVGCC-c4");
        for i in 0..5_000u32 {
            p.record_access(
                CoreId(0),
                SetIdx(i % SETS),
                AccessOutcome::Hit {
                    spilled: false,
                    depth: 0,
                },
            );
        }
        assert!(p.counters_in_use(CoreId(0)) <= 4);
    }

    #[test]
    fn ab_match_recount_under_mixed_traffic() {
        let mut p = quick(3).build();
        let mut x = 12345u64;
        for _ in 0..20_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let core = (x >> 60) as usize % 3;
            let set = ((x >> 20) % SETS as u64) as u32;
            let hit = (x >> 40) % 5 < 3;
            p.record_access(
                CoreId(core as u8),
                SetIdx(set),
                if hit {
                    AccessOutcome::Hit {
                        spilled: false,
                        depth: 0,
                    }
                } else {
                    AccessOutcome::Miss
                },
            );
            let _ = p.spill_decision(CoreId(core as u8), SetIdx(set), SpillVictim::default());
        }
        p.assert_ab_consistent();
    }

    #[test]
    fn spiller_switches_to_sabip_without_candidates() {
        let mut p = quick(2).build();
        // Saturate both caches (single global counter each).
        for _ in 0..200 {
            p.record_access(CoreId(0), SetIdx(0), AccessOutcome::Miss);
            p.record_access(CoreId(1), SetIdx(0), AccessOutcome::Miss);
        }
        assert_eq!(p.role(CoreId(0), SetIdx(0)), SetRole::Spiller);
        assert_eq!(
            p.spill_decision(CoreId(0), SetIdx(0), SpillVictim::default()),
            SpillDecision::NoCandidate
        );
        assert!(
            p.in_capacity_mode(CoreId(0), SetIdx(5)),
            "global counter: every set"
        );
        assert_ne!(p.demand_insert_pos(CoreId(0), SetIdx(0)), InsertPos::Mru);
        p.assert_ab_consistent();
    }

    #[test]
    fn spills_to_the_lower_ssl_peer() {
        let mut p = quick(3).build();
        for _ in 0..200 {
            p.record_access(CoreId(0), SetIdx(0), AccessOutcome::Miss);
        }
        for _ in 0..10 {
            p.record_access(
                CoreId(2),
                SetIdx(0),
                AccessOutcome::Hit {
                    spilled: false,
                    depth: 0,
                },
            );
        }
        // Cache 1 sits at K-1; cache 2 is lower.
        match p.spill_decision(CoreId(0), SetIdx(0), SpillVictim::default()) {
            SpillDecision::Spill(c) => assert_eq!(c, CoreId(2)),
            d => panic!("expected spill, got {d:?}"),
        }
    }

    #[test]
    fn qos_ratio_drops_when_avgcc_miss_count_exceeds_estimate() {
        let mut cfg = AvgccConfig::qos_avgcc(1, SETS, K);
        cfg.qos_epoch_cycles = 100;
        let mut p = cfg.build();
        assert_eq!(p.name(), "QoS-AVGCC");
        assert!((p.qos_ratio(CoreId(0)) - 1.0).abs() < 1e-9);
        // Misses taken while the counter looks like a receiver (SSL < K) are
        // *not* sampled — they are misses the baseline estimator does not
        // see. Oscillate miss/hit so every miss lands below K.
        for _ in 0..50 {
            p.record_access(CoreId(0), SetIdx(0), AccessOutcome::Miss);
            p.record_access(
                CoreId(0),
                SetIdx(0),
                AccessOutcome::Hit {
                    spilled: false,
                    depth: 0,
                },
            );
        }
        // Leave the counter at K in MRU mode so it *is* sampled at the
        // epoch, with zero sampled misses against 51 total misses.
        p.record_access(CoreId(0), SetIdx(0), AccessOutcome::Miss);
        p.on_cycle(CoreId(0), 1_000);
        // MBC = 16 * 0/16 = 0 << MissesWithAVGCC = 51 -> ratio collapses.
        let r = p.qos_ratio(CoreId(0));
        assert!(r < 1.0, "ratio should drop, got {r}");
        // With the ratio at 0, further misses leave the SSL untouched: the
        // mechanism is inhibited (no spilling can start).
        let v0 = p.caches[0].ssl.value(0);
        p.record_access(CoreId(0), SetIdx(0), AccessOutcome::Miss);
        assert_eq!(p.caches[0].ssl.value(0), v0);
    }

    #[test]
    fn qos_ratio_recovers() {
        let mut cfg = AvgccConfig::qos_avgcc(1, SETS, K);
        cfg.qos_epoch_cycles = 100;
        let mut p = cfg.build();
        for _ in 0..50 {
            p.record_access(CoreId(0), SetIdx(0), AccessOutcome::Miss);
        }
        p.on_cycle(CoreId(0), 1_000);
        let low = p.qos_ratio(CoreId(0));
        // A quiet epoch with no misses resets to 1.0.
        p.on_cycle(CoreId(0), 2_000);
        assert!((p.qos_ratio(CoreId(0)) - 1.0).abs() < 1e-9, "was {low}");
    }

    #[test]
    fn snapshot_and_events_track_adaptation() {
        let mut p = quick(2).build();
        p.set_observed(true);
        // All hits: spare capacity refines the granularity.
        for i in 0..200u32 {
            p.record_access(
                CoreId(0),
                SetIdx(i % SETS),
                AccessOutcome::Hit {
                    spilled: false,
                    depth: 0,
                },
            );
        }
        let mut events = Vec::new();
        p.drain_events(&mut events);
        let regrans: Vec<_> = events
            .iter()
            .filter(|e| matches!(e, ObsEvent::Regranularized { .. }))
            .collect();
        assert!(!regrans.is_empty(), "refinement must emit events");
        if let ObsEvent::Regranularized {
            core,
            granularity_log2,
            counters,
        } = regrans[0]
        {
            assert_eq!(*core, CoreId(0));
            assert!(*granularity_log2 < 4);
            assert!(*counters > 1);
        }

        let snap = p.snapshot();
        assert_eq!(snap.policy, "AVGCC");
        assert_eq!(snap.granularity_changes, Some(p.granularity_changes()));
        assert_eq!(snap.ab_consistent, Some(true));
        let c0 = &snap.per_core[0];
        assert_eq!(c0.granularity_log2, Some(p.granularity_log2(CoreId(0))));
        assert_eq!(c0.counters_in_use, Some(p.counters_in_use(CoreId(0))));
        assert_eq!(c0.roles.unwrap().total(), SETS);
        assert!(c0.qos_ratio.is_none(), "plain AVGCC has no QoS ratio");
    }

    #[test]
    fn qos_snapshot_and_ratio_events() {
        let mut cfg = AvgccConfig::qos_avgcc(1, SETS, K);
        cfg.qos_epoch_cycles = 100;
        let mut p = cfg.build();
        p.set_observed(true);
        for _ in 0..50 {
            p.record_access(CoreId(0), SetIdx(0), AccessOutcome::Miss);
            p.record_access(
                CoreId(0),
                SetIdx(0),
                AccessOutcome::Hit {
                    spilled: false,
                    depth: 0,
                },
            );
        }
        p.record_access(CoreId(0), SetIdx(0), AccessOutcome::Miss);
        p.on_cycle(CoreId(0), 1_000);
        let mut events = Vec::new();
        p.drain_events(&mut events);
        let ratios: Vec<f64> = events
            .iter()
            .filter_map(|e| match e {
                ObsEvent::QosRatioUpdate { ratio, .. } => Some(*ratio),
                _ => None,
            })
            .collect();
        assert_eq!(ratios.len(), 1);
        assert!(ratios[0] < 1.0);
        let snap = p.snapshot();
        assert_eq!(snap.policy, "QoS-AVGCC");
        assert_eq!(snap.per_core[0].qos_ratio, Some(ratios[0]));
    }

    #[test]
    fn different_caches_adapt_independently() {
        let mut p = quick(2).build();
        for i in 0..2_000u32 {
            p.record_access(
                CoreId(0),
                SetIdx(i % SETS),
                AccessOutcome::Hit {
                    spilled: false,
                    depth: 0,
                },
            ); // spare
            p.record_access(CoreId(1), SetIdx(i % SETS), AccessOutcome::Miss); // pressured
        }
        assert!(p.counters_in_use(CoreId(0)) > p.counters_in_use(CoreId(1)));
        assert!(p.granularity_changes() > 0);
    }
}
