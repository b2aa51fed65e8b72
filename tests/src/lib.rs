//! Shared helpers for the cross-crate integration tests.
//!
//! The real content of this package lives in `tests/` (one file per
//! concern: system invariants, policy behaviour under simulation,
//! metric semantics, determinism). The [`diff`] module is the
//! oracle-vs-engine differential harness, shared between the fuzzing
//! tests and `trace_tool repro`.

#![forbid(unsafe_code)]

pub mod diff;

use ascc::{ArcConfig, AsccConfig, AvgccConfig, RdcbConfig, TinyLfuConfig};
use cmp_cache::{CacheGeometry, LlcPolicy, ObsProbe, PrivateBaseline};
use cmp_sim::{CmpSystem, SystemConfig};
use spill_baselines::{CcPolicy, DsrConfig, DsrDipPolicy, EccConfig};

/// A downscaled Table 2 system: same shape, 1/16 the capacity, so
/// integration tests run in milliseconds while exercising the same code
/// paths (64 kB 8-way L2 = 256 sets, 2 kB L1).
pub fn small_config(cores: usize) -> SystemConfig {
    let mut cfg = SystemConfig::table2(cores);
    cfg.l1 = CacheGeometry::from_capacity(2 << 10, 4, 32).expect("valid L1");
    cfg.l2 = CacheGeometry::from_capacity(64 << 10, 8, 32).expect("valid L2");
    cfg
}

/// Every policy the simulator must be able to drive, built for `cfg`.
pub fn all_policies(cfg: &SystemConfig) -> Vec<Box<dyn LlcPolicy>> {
    let (cores, sets, ways) = (cfg.cores, cfg.l2.sets(), cfg.l2.ways());
    vec![
        Box::new(PrivateBaseline::new()),
        Box::new(CcPolicy::new(cores, 0xCC)),
        Box::new(DsrConfig::dsr(cores, sets).build()),
        Box::new(DsrConfig::dsr_3s(cores, sets).build()),
        Box::new(DsrDipPolicy::new(cores, sets)),
        Box::new(EccConfig::ecc(cores, ways).build()),
        Box::new(AsccConfig::ascc(cores, sets, ways).build()),
        Box::new(AsccConfig::ascc_2s(cores, sets, ways).build()),
        Box::new(AsccConfig::gms_sabip(cores, sets, ways).build()),
        Box::new(AvgccConfig::avgcc(cores, sets, ways).build()),
        Box::new(AvgccConfig::qos_avgcc(cores, sets, ways).build()),
        Box::new(ArcConfig::new(cores, sets, ways).build()),
        Box::new(TinyLfuConfig::for_geometry(cores, sets, ways).build()),
        Box::new(RdcbConfig::new(cores, sets, ways).build()),
    ]
}

/// The reference interleave, spelled out: `n` times, step the core with
/// the smallest clock — a linear `total_cmp` scan, so ties go to the
/// lowest index — through the public [`CmpSystem::step`]. The event loop
/// ([`CmpSystem::try_run_batched`]) is checked against it.
pub fn reference_steps<P: ObsProbe>(sys: &mut CmpSystem<P>, n: u64) {
    for _ in 0..n {
        sys.step(reference_pick(sys));
    }
}

/// The reference's next core: the first index attaining the minimum
/// clock under `total_cmp`.
pub fn reference_pick<P: ObsProbe>(sys: &CmpSystem<P>) -> usize {
    let mut i = 0;
    for j in 1..sys.l1s().len() {
        if sys.clock(j).total_cmp(&sys.clock(i)) == std::cmp::Ordering::Less {
            i = j;
        }
    }
    i
}

/// The event loop stopped by its hook after exactly `n` global accesses.
/// Warm-up is never reached, so — like [`reference_steps`] — it captures
/// no measurement window.
pub fn loop_steps<P: ObsProbe>(sys: &mut CmpSystem<P>, n: u64) {
    let aborted = sys.try_run_batched(1, u64::MAX, n, |_| false);
    assert!(aborted.is_none(), "the stopping hook must end the run");
}

/// Runs `n` accesses of two systems from `build` — one through
/// [`reference_steps`], one through [`loop_steps`] — and asserts their
/// snapshot bytes (every cache slab, counter, policy register, RNG stream
/// and feed position) agree. Returns the pair for further checks.
pub fn assert_loop_matches_reference<P: ObsProbe>(
    mut build: impl FnMut() -> CmpSystem<P>,
    n: u64,
    what: &str,
) -> (CmpSystem<P>, CmpSystem<P>) {
    let (mut reference, mut looped) = (build(), build());
    reference_steps(&mut reference, n);
    loop_steps(&mut looped, n);
    assert!(
        looped.snapshot() == reference.snapshot(),
        "{what}: the event loop's state after {n} accesses diverged from the reference"
    );
    (reference, looped)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_config_shape() {
        let cfg = small_config(2);
        assert_eq!(cfg.l2.sets(), 256);
        assert_eq!(cfg.l2.ways(), 8);
    }

    #[test]
    fn policy_zoo_builds() {
        assert_eq!(all_policies(&small_config(4)).len(), 14);
    }
}
