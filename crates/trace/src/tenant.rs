//! Multi-tenant service traffic: the "millions of users" scenario family.
//!
//! The SPEC mixes model 2012-era multiprogrammed batch work; a cache
//! serving a sharded online service sees none of their structure. This
//! module models that traffic directly: `N` tenants sharded over the
//! address space, each with Zipf-skewed key popularity, overlaid with the
//! disturbances such services actually produce — tenant churn (arrivals
//! map a fresh shard, a wave of compulsory misses), scan storms (a
//! sequential sweep flushing resident hot sets), hot-key flash crowds (one
//! globally shared line every core hammers at once) and diurnal phase
//! shifts (the popular-tenant ranking rotates on a long dwell, composed
//! with [`Phased`]).
//!
//! ## Sharding and scale
//!
//! Keys are routed to cores the way a sharded service routes requests:
//! tenant `t`'s key `k` as seen by core `c` lives at line `k * cores + c`
//! of the tenant's shard, so regular keyed traffic is per-core disjoint
//! (no false sharing between shards) while flash-crowd keys live in a
//! small dedicated region shared by every core. At the default 32 tenants
//! x 65,536 keys, each core addresses ~2.1 M distinct keys and an 8-core
//! system exposes ~16.8 M — millions-of-keys scale, far beyond any LLC.
//!
//! ## Determinism
//!
//! A stream is a pure function of `(scenario, cores, core, seed)`: every
//! churn/scan/flash event fires on the stream's own access counter, and
//! each `(tenant, generation, core)` draws its rank-scramble salt from the
//! [`tenant_seed`] schedule. That makes streams arena-materializable
//! (keyed by exactly those inputs), byte-identical across `ASCC_JOBS`
//! worker counts, and resumable via `fast_forward` after a crash.

use crate::access::{Access, AccessStream};
use crate::gen::Phased;
use crate::spec::{CoreWorkload, CpuModel, LINE_BYTES};
use crate::zipf::Zipf;
use cmp_cache::{AccessKind, Addr};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Base of the tenant shard heap.
const TENANT_BASE: u64 = 0x100_0000_0000;
/// Base of the small flash-crowd region every core shares.
const FLASH_BASE: u64 = 0x8000_0000;
/// Distinct hot keys the flash-crowd region rotates through.
const FLASH_KEYS: u64 = 64;

/// Stream ids (PC surrogates) of the three traffic classes.
const SID_KEYED: u16 = 0;
const SID_SCAN: u16 = 1;
const SID_FLASH: u16 = 2;

/// The deterministic per-(tenant, core) seed schedule: the rank-scramble
/// salt of tenant slot `slot` in its `generation`-th incarnation as
/// observed by `core`, derived from the run `seed` with a SplitMix64
/// finalizer. Pure, so a resumed or re-materialized stream re-derives the
/// identical salt without serializing any state.
pub fn tenant_seed(seed: u64, slot: usize, generation: u64, core: usize) -> u64 {
    let mut z =
        seed ^ ((slot as u64) << 40) ^ (generation << 16) ^ core as u64 ^ 0x9E37_79B9_7F4A_7C15;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Tuning knobs of a tenant-traffic stream. Periods count the stream's own
/// accesses; a period of zero disables that disturbance.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct TenantParams {
    /// Live tenant slots.
    pub tenants: usize,
    /// Keys per tenant shard (power of two, for the rank-scramble
    /// bijection).
    pub keys_per_tenant: u64,
    /// Zipf exponent of the cross-tenant popularity ranking.
    pub tenant_alpha: f64,
    /// Zipf exponent of the within-tenant key popularity.
    pub key_alpha: f64,
    /// Fraction of keyed accesses that are stores.
    pub store_fraction: f64,
    /// Accesses between tenant replacements (arrival/departure churn).
    pub churn_every: u64,
    /// Accesses between scan storms.
    pub scan_every: u64,
    /// Length of one scan storm, in accesses.
    pub scan_len: u64,
    /// Accesses between flash crowds.
    pub flash_every: u64,
    /// Length of one flash-crowd window, in accesses.
    pub flash_len: u64,
    /// Fraction of in-window traffic the hot key absorbs.
    pub flash_weight: f64,
}

impl TenantParams {
    /// The base service shape every scenario starts from: 32 tenants of
    /// 64 Ki keys with a skewed-but-heavy-tailed popularity profile and no
    /// disturbances. See DESIGN.md for the calibration rationale.
    pub fn steady() -> Self {
        TenantParams {
            tenants: 32,
            keys_per_tenant: 1 << 16,
            tenant_alpha: 0.80,
            key_alpha: 0.95,
            store_fraction: 0.10,
            churn_every: 0,
            scan_every: 0,
            scan_len: 0,
            flash_every: 0,
            flash_len: 0,
            flash_weight: 0.0,
        }
    }
}

/// The named multi-tenant traffic scenarios of the `tenant_traffic`
/// experiment.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum TenantScenario {
    /// Stationary sharded Zipf traffic: the reference point.
    Steady,
    /// Tenant arrival/departure: every churn period one tenant departs and
    /// a fresh one maps a cold shard (compulsory-miss waves).
    Churn,
    /// Periodic sequential scans flushing the resident hot set.
    ScanStorm,
    /// Hot-key flash crowds: one globally shared line takes half the
    /// traffic of every core for a window.
    FlashCrowd,
    /// Diurnal phase shift: the popular-tenant ranking rotates on a long
    /// dwell (composed with [`Phased`]).
    Diurnal,
}

impl TenantScenario {
    /// All scenarios, in experiment-row order.
    pub const ALL: [TenantScenario; 5] = [
        TenantScenario::Steady,
        TenantScenario::Churn,
        TenantScenario::ScanStorm,
        TenantScenario::FlashCrowd,
        TenantScenario::Diurnal,
    ];

    /// Scenario name as used in result tables and the serve job API.
    pub fn name(self) -> &'static str {
        match self {
            TenantScenario::Steady => "steady",
            TenantScenario::Churn => "churn",
            TenantScenario::ScanStorm => "scan_storm",
            TenantScenario::FlashCrowd => "flash_crowd",
            TenantScenario::Diurnal => "diurnal",
        }
    }

    /// Parses a scenario name (the inverse of [`name`](Self::name)).
    pub fn parse(s: &str) -> Option<TenantScenario> {
        TenantScenario::ALL.into_iter().find(|t| t.name() == s)
    }

    /// The scenario's traffic parameters.
    pub fn params(self) -> TenantParams {
        let mut p = TenantParams::steady();
        match self {
            TenantScenario::Steady | TenantScenario::Diurnal => {}
            TenantScenario::Churn => p.churn_every = 200_000,
            TenantScenario::ScanStorm => {
                p.scan_every = 400_000;
                p.scan_len = 40_000;
            }
            TenantScenario::FlashCrowd => {
                p.flash_every = 300_000;
                p.flash_len = 60_000;
                p.flash_weight = 0.5;
            }
        }
        p
    }

    /// CPU-side model of a request-serving core: moderately memory-bound,
    /// decent memory-level parallelism, read-mostly.
    pub fn cpu_model(self) -> CpuModel {
        CpuModel {
            mem_fraction: 0.30,
            base_cpi: 1.0,
            overlap: 0.45,
            store_fraction: self.params().store_fraction,
        }
    }

    /// The scenario's access stream for `core` of `cores`.
    ///
    /// # Panics
    ///
    /// Panics if `core >= cores` or `cores == 0`.
    pub fn stream(self, cores: usize, core: usize, seed: u64) -> Box<dyn AccessStream> {
        match self {
            TenantScenario::Diurnal => {
                // Day/night popularity shift: same traffic shape, but the
                // hot tenant ranking rotates half the slots. 250 k
                // accesses per phase ~ several LLC turnovers, so each
                // shift strands the previous phase's hot set.
                let p = self.params();
                let day = TenantStream::new(p, cores, core, core, seed);
                let night = TenantStream::new(p, cores, core, core + p.tenants / 2, seed ^ 0xD1);
                Box::new(Phased::new(vec![
                    (250_000, Box::new(day) as Box<dyn AccessStream>),
                    (250_000, Box::new(night)),
                ]))
            }
            _ => Box::new(TenantStream::new(self.params(), cores, core, core, seed)),
        }
    }

    /// The scenario's full per-core workload (CPU model + stream).
    pub fn workload(self, cores: usize, core: usize, seed: u64) -> CoreWorkload {
        CoreWorkload {
            label: format!("tenant:{}.c{core}", self.name()),
            cpu: self.cpu_model(),
            stream: self.stream(cores, core, seed),
        }
    }
}

impl std::fmt::Display for TenantScenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One core's view of the sharded multi-tenant key space.
#[derive(Clone, Debug)]
pub struct TenantStream {
    params: TenantParams,
    cores: usize,
    core: usize,
    /// Rotation of the tenant popularity ranking: core `c`'s hottest
    /// tenant is slot `(0 + rotation) % tenants`, so per-core cache
    /// pressure is asymmetric (the spill/receive opportunity ASCC needs).
    rotation: usize,
    seed: u64,
    tenant_zipf: Zipf,
    key_zipf: Zipf,
    rng: SmallRng,
    /// Per-slot incarnation counters (bumped by churn).
    generations: Vec<u64>,
    /// Per-slot shard numbers (fresh on every churn; shards are never
    /// reused, so a new tenant's keys are all compulsory misses).
    shard_of: Vec<u64>,
    next_shard: u64,
    /// Per-slot rank-scramble salts from the [`tenant_seed`] schedule.
    salts: Vec<u64>,
    /// Accesses emitted.
    clock: u64,
    scan_slot: usize,
    scan_pos: u64,
}

impl TenantStream {
    /// Builds the stream for `core` of `cores` with the popularity ranking
    /// rotated by `rotation` slots.
    ///
    /// # Panics
    ///
    /// Panics if `cores == 0`, `core >= cores`, `params.tenants == 0` or
    /// `params.keys_per_tenant` is not a power of two.
    pub fn new(
        params: TenantParams,
        cores: usize,
        core: usize,
        rotation: usize,
        seed: u64,
    ) -> Self {
        assert!(cores > 0 && core < cores, "bad core index");
        assert!(params.tenants > 0, "need at least one tenant");
        assert!(
            params.keys_per_tenant.is_power_of_two(),
            "keys_per_tenant must be a power of two"
        );
        let generations = vec![0u64; params.tenants];
        let shard_of: Vec<u64> = (0..params.tenants as u64).collect();
        let salts = (0..params.tenants)
            .map(|slot| tenant_seed(seed, slot, 0, core))
            .collect();
        TenantStream {
            params,
            cores,
            core,
            rotation,
            seed,
            tenant_zipf: Zipf::new(params.tenants, params.tenant_alpha),
            key_zipf: Zipf::new(params.keys_per_tenant as usize, params.key_alpha),
            rng: SmallRng::seed_from_u64(tenant_seed(seed, 0, u64::MAX, core)),
            generations,
            shard_of,
            next_shard: params.tenants as u64,
            salts,
            clock: 0,
            scan_slot: 0,
            scan_pos: 0,
        }
    }

    /// Byte address of `key` in `slot`'s current shard, as this core sees
    /// it (core-interleaved lines keep regular keyed traffic per-core
    /// disjoint).
    fn addr_of(&self, slot: usize, key: u64) -> u64 {
        let shard_bytes = self.params.keys_per_tenant * self.cores as u64 * LINE_BYTES;
        TENANT_BASE
            + self.shard_of[slot] * shard_bytes
            + (key * self.cores as u64 + self.core as u64) * LINE_BYTES
    }

    /// Retires one tenant slot and maps a fresh shard in its place.
    fn churn(&mut self, slot: usize) {
        self.generations[slot] += 1;
        self.shard_of[slot] = self.next_shard;
        self.next_shard += 1;
        self.salts[slot] = tenant_seed(self.seed, slot, self.generations[slot], self.core);
    }
}

impl AccessStream for TenantStream {
    fn next_access(&mut self) -> Access {
        let p = self.params;
        let c = self.clock;
        self.clock += 1;

        // Tenant churn: a departure/arrival every `churn_every` accesses,
        // round-robin over the slots. Clock-driven, so a re-created stream
        // replays the identical schedule.
        if p.churn_every > 0 && c > 0 && c.is_multiple_of(p.churn_every) {
            let slot = ((c / p.churn_every - 1) % p.tenants as u64) as usize;
            self.churn(slot);
        }

        // Scan storm: a sequential sweep over one tenant's shard slice for
        // `scan_len` accesses at the top of every scan period.
        if p.scan_every > 0 && c % p.scan_every < p.scan_len {
            if c.is_multiple_of(p.scan_every) {
                self.scan_slot = ((c / p.scan_every) % p.tenants as u64) as usize;
                self.scan_pos = 0;
            }
            let key = self.scan_pos % p.keys_per_tenant;
            self.scan_pos += 1;
            return Access::load(Addr::new(self.addr_of(self.scan_slot, key)), SID_SCAN);
        }

        // Flash crowd: inside the window, `flash_weight` of the traffic
        // collapses onto one globally shared line (every core, same line).
        if p.flash_every > 0
            && c % p.flash_every < p.flash_len
            && self.rng.gen::<f64>() < p.flash_weight
        {
            let hot = (c / p.flash_every) % FLASH_KEYS;
            return Access::load(Addr::new(FLASH_BASE + hot * LINE_BYTES), SID_FLASH);
        }

        // Regular keyed lookup: pick a tenant by rotated popularity rank,
        // then a key by within-tenant popularity, scrambled per
        // (tenant, generation, core) so hot keys scatter over the sets.
        let rank = self.tenant_zipf.sample(&mut self.rng);
        let slot = (rank + self.rotation) % p.tenants;
        let krank = self.key_zipf.sample(&mut self.rng) as u64;
        let salt = self.salts[slot];
        let key = (krank.wrapping_mul(salt | 1) ^ (salt >> 17)) & (p.keys_per_tenant - 1);
        let mut a = Access::load(Addr::new(self.addr_of(slot, key)), SID_KEYED);
        if self.rng.gen::<f64>() < p.store_fraction {
            a.kind = AccessKind::Store;
        }
        a
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn collect(s: &mut dyn AccessStream, n: usize) -> Vec<Access> {
        (0..n).map(|_| s.next_access()).collect()
    }

    #[test]
    fn scenario_names_round_trip() {
        for t in TenantScenario::ALL {
            assert_eq!(TenantScenario::parse(t.name()), Some(t));
            assert_eq!(t.to_string(), t.name());
        }
        assert_eq!(TenantScenario::parse("nope"), None);
    }

    #[test]
    fn streams_are_deterministic_per_core_and_seed() {
        for t in TenantScenario::ALL {
            let mut a = t.stream(4, 2, 9);
            let mut b = t.stream(4, 2, 9);
            assert_eq!(
                collect(a.as_mut(), 3_000),
                collect(b.as_mut(), 3_000),
                "{t}"
            );
            // Seed sensitivity: compare past the scan_storm scenario's
            // 40 k-access opening sweep, which is seed-independent by
            // design.
            let mut c = t.stream(4, 2, 10);
            assert_ne!(
                collect(t.stream(4, 2, 9).as_mut(), 50_000),
                collect(c.as_mut(), 50_000),
                "{t} must depend on the seed"
            );
        }
    }

    #[test]
    fn seed_schedule_separates_tenants_generations_and_cores() {
        let mut seen = HashSet::new();
        for slot in 0..8 {
            for generation in 0..4 {
                for core in 0..4 {
                    assert!(
                        seen.insert(tenant_seed(7, slot, generation, core)),
                        "salt collision at ({slot}, {generation}, {core})"
                    );
                }
            }
        }
        // And the schedule is a pure function (re-derivable on resume).
        assert_eq!(tenant_seed(7, 3, 2, 1), tenant_seed(7, 3, 2, 1));
    }

    #[test]
    fn keyed_traffic_is_per_core_disjoint_but_flash_keys_are_shared() {
        let lines = |core: usize| -> (HashSet<u64>, HashSet<u64>) {
            let mut s = TenantScenario::FlashCrowd.stream(4, core, 5);
            let mut keyed = HashSet::new();
            let mut flash = HashSet::new();
            for a in collect(s.as_mut(), 120_000) {
                let line = a.addr.raw() / LINE_BYTES;
                if a.stream == SID_FLASH {
                    flash.insert(line);
                } else {
                    keyed.insert(line);
                }
            }
            (keyed, flash)
        };
        let (k0, f0) = lines(0);
        let (k1, f1) = lines(1);
        assert_eq!(
            k0.intersection(&k1).count(),
            0,
            "shard slices must not overlap"
        );
        assert!(!f0.is_empty() && !f1.is_empty(), "flash windows must fire");
        assert!(
            f0.intersection(&f1).count() > 0,
            "flash keys must be globally shared"
        );
    }

    #[test]
    fn churn_maps_fresh_shards() {
        let p = TenantScenario::Churn.params();
        let mut s = TenantScenario::Churn.stream(2, 0, 3);
        let shard_bytes = p.keys_per_tenant * 2 * LINE_BYTES;
        let shard = |a: &Access| (a.addr.raw() - TENANT_BASE) / shard_bytes;
        let before: HashSet<u64> = collect(s.as_mut(), p.churn_every as usize)
            .iter()
            .map(shard)
            .collect();
        assert!(before.iter().all(|&sh| sh < p.tenants as u64));
        // After a few churn periods, retired slots point at brand-new
        // shards (numbers >= tenants), whose keys were never touched.
        let later: HashSet<u64> = collect(s.as_mut(), 4 * p.churn_every as usize)
            .iter()
            .map(shard)
            .collect();
        assert!(
            later.iter().any(|&sh| sh >= p.tenants as u64),
            "churn never mapped a fresh shard: {later:?}"
        );
    }

    #[test]
    fn scan_storms_sweep_sequentially() {
        let p = TenantScenario::ScanStorm.params();
        let mut s = TenantScenario::ScanStorm.stream(2, 1, 8);
        let head = collect(s.as_mut(), p.scan_len as usize);
        // The first scan window opens at access 0: a line-strided
        // sequential sweep, tagged with the scan stream id.
        assert!(head.iter().all(|a| a.stream == SID_SCAN));
        for w in head.windows(2) {
            assert_eq!(
                w[1].addr.raw() - w[0].addr.raw(),
                2 * LINE_BYTES,
                "scan must stride this core's interleaved lines"
            );
        }
        // Between windows the traffic is keyed again.
        let tail = collect(s.as_mut(), 10_000);
        assert!(tail.iter().any(|a| a.stream == SID_KEYED));
    }

    #[test]
    fn diurnal_rotation_shifts_the_hot_tenant() {
        let p = TenantScenario::Diurnal.params();
        let mut s = TenantScenario::Diurnal.stream(2, 0, 4);
        let shard_bytes = p.keys_per_tenant * 2 * LINE_BYTES;
        let hot = |accs: &[Access]| -> u64 {
            let mut counts = std::collections::HashMap::new();
            for a in accs {
                *counts
                    .entry((a.addr.raw() - TENANT_BASE) / shard_bytes)
                    .or_insert(0usize) += 1;
            }
            counts.into_iter().max_by_key(|&(_, n)| n).unwrap().0
        };
        let day = collect(s.as_mut(), 100_000);
        for _ in 0..150_000 {
            s.next_access();
        }
        let night = collect(s.as_mut(), 100_000);
        assert_ne!(
            hot(&day),
            hot(&night),
            "phase shift must move the hot tenant"
        );
    }

    #[test]
    fn keyed_traffic_carries_stores_at_the_configured_fraction() {
        let p = TenantScenario::Steady.params();
        let mut s = TenantScenario::Steady.stream(4, 0, 1);
        let accs = collect(s.as_mut(), 50_000);
        let stores = accs.iter().filter(|a| a.kind.is_store()).count();
        let frac = stores as f64 / accs.len() as f64;
        assert!(
            (frac - p.store_fraction).abs() < 0.02,
            "store fraction {frac}"
        );
    }

    #[test]
    fn millions_of_keys_scale() {
        let p = TenantParams::steady();
        // Distinct addressable keys per core at the default shape.
        let per_core = p.tenants as u64 * p.keys_per_tenant;
        assert!(per_core > 2_000_000, "per-core key space {per_core}");
        // And a stream really does spread over a multi-megabyte footprint.
        let mut s = TenantScenario::Steady.stream(2, 0, 2);
        let lines: HashSet<u64> = collect(s.as_mut(), 200_000)
            .iter()
            .map(|a| a.addr.raw() / LINE_BYTES)
            .collect();
        assert!(
            lines.len() as u64 * LINE_BYTES > 1 << 20,
            "footprint only {} lines — smaller than the 1 MB baseline LLC",
            lines.len()
        );
    }

    #[test]
    #[should_panic(expected = "bad core index")]
    fn bad_core_panics() {
        let _ = TenantStream::new(TenantParams::steady(), 2, 2, 0, 0);
    }
}
