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
use cmp_cache::{CacheGeometry, LlcPolicy, PrivateBaseline};
use cmp_sim::SystemConfig;
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
