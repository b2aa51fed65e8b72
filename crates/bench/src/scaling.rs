//! The coherence core-scaling sweep shared by `sim_throughput`'s scaling
//! section and the `scaling_cores` experiment binary.
//!
//! One row per (core count, fabric): ASCC on the event loop over the
//! first two [`cmp_trace::mixes_for`] mixes of that width, with per-core
//! work scaled down as the width grows so every row simulates a comparable
//! access total. Warmup is zero so the fabric counters cover exactly the
//! counted accesses — `probes` is then a deterministic function of the
//! trace, which is what lets CI gate on it.

use crate::{Policy, Scale};
use cmp_coherence::FabricKind;
use cmp_sim::{mix_sources, CmpSystem, SystemConfig};
use cmp_trace::mixes_for;

/// One (core count, fabric) measurement of the scaling sweep.
#[derive(Clone, Copy, Debug)]
pub struct ScalingRow {
    /// Simulated core count.
    pub cores: usize,
    /// Coherence fabric under measurement.
    pub fabric: FabricKind,
    /// Wall-clock seconds for the whole row (all mixes).
    pub wall_s: f64,
    /// Simulated L1 accesses across all cores and mixes.
    pub accesses: u64,
    /// Fabric snoop transactions (identical across fabrics by design).
    pub snoops: u64,
    /// Peer-tag probes — the cost that separates broadcast (O(cores))
    /// from the directory (O(sharers)).
    pub probes: u64,
}

impl ScalingRow {
    /// Aggregate simulation rate.
    pub fn per_sec(&self) -> f64 {
        self.accesses as f64 / self.wall_s.max(1e-9)
    }

    /// Host nanoseconds per simulated L1 access.
    pub fn ns_per_access(&self) -> f64 {
        self.wall_s * 1e9 / self.accesses.max(1) as f64
    }

    /// Peer-tag probes per simulated L1 access — the headline metric:
    /// grows with the core count under broadcast, stays flat under the
    /// directory.
    pub fn probes_per_access(&self) -> f64 {
        self.probes as f64 / self.accesses.max(1) as f64
    }
}

/// Runs the sweep: both fabrics at every width in `core_counts`.
pub fn scaling_sweep(core_counts: &[usize], scale: Scale) -> Vec<ScalingRow> {
    core_counts
        .iter()
        .flat_map(|&cores| {
            [FabricKind::Broadcast, FabricKind::Directory]
                .map(|fabric| scaling_row(cores, fabric, scale))
        })
        .collect()
}

/// One row of the sweep: ASCC on `fabric` over the first two mixes of
/// width `cores`. Per-core instructions are `scale.instrs * 2 / cores`,
/// floored at 50 k, so a 64-core row does not take 32× the wall-clock of
/// a 2-core row.
pub fn scaling_row(cores: usize, fabric: FabricKind, scale: Scale) -> ScalingRow {
    let instrs = (scale.instrs * 2 / cores as u64).max(50_000);
    let cfg = SystemConfig::table2(cores).with_fabric(fabric);
    let (mut accesses, mut snoops, mut probes) = (0u64, 0u64, 0u64);
    let t0 = std::time::Instant::now();
    for mix in mixes_for(cores).iter().take(2) {
        let mut sys = CmpSystem::from_sources(
            cfg.clone(),
            Policy::Ascc.build(&cfg),
            mix_sources(mix, scale.seed),
        );
        let r = sys.run(instrs, 0);
        accesses += r.cores.iter().map(|c| c.l1_accesses).sum::<u64>();
        let s = sys.fabric().stats();
        snoops += s.snoops;
        probes += s.probes;
    }
    ScalingRow {
        cores,
        fabric,
        wall_s: t0.elapsed().as_secs_f64(),
        accesses,
        snoops,
        probes,
    }
}

/// Formats the sweep as a [`crate::print_table`] header + rows pair.
pub fn scaling_table(rows: &[ScalingRow]) -> (Vec<String>, Vec<Vec<String>>) {
    let headers = [
        "cores",
        "fabric",
        "wall s",
        "accesses",
        "acc/s",
        "snoops",
        "probes",
        "probes/acc",
    ]
    .map(String::from)
    .to_vec();
    let table = rows
        .iter()
        .map(|r| {
            vec![
                r.cores.to_string(),
                r.fabric.label().to_string(),
                format!("{:.2}", r.wall_s),
                r.accesses.to_string(),
                format!("{:.0}", r.per_sec()),
                r.snoops.to_string(),
                r.probes.to_string(),
                format!("{:.3}", r.probes_per_access()),
            ]
        })
        .collect();
    (headers, table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_row_rates() {
        let r = ScalingRow {
            cores: 4,
            fabric: FabricKind::Directory,
            wall_s: 2.0,
            accesses: 1_000_000,
            snoops: 10,
            probes: 250_000,
        };
        assert!((r.per_sec() - 500_000.0).abs() < 1e-6);
        assert!((r.probes_per_access() - 0.25).abs() < 1e-12);
        assert!((r.ns_per_access() - 2000.0).abs() < 1e-9);
        let (headers, table) = scaling_table(&[r]);
        assert_eq!(headers.len(), table[0].len());
        assert_eq!(table[0][1], "directory");
    }

    #[test]
    fn sweep_probes_directory_at_most_broadcast() {
        // Tiny deterministic run: the directory must never probe more
        // than broadcast, and snoop counts must match exactly.
        let scale = Scale {
            instrs: 30_000,
            warmup: 0,
            seed: 42,
        };
        let rows = scaling_sweep(&[4], scale);
        assert_eq!(rows.len(), 2);
        let (b, d) = (&rows[0], &rows[1]);
        assert_eq!(b.fabric, FabricKind::Broadcast);
        assert_eq!(d.fabric, FabricKind::Directory);
        assert_eq!(b.accesses, d.accesses, "fabrics must be bit-identical");
        assert_eq!(b.snoops, d.snoops);
        assert!(d.probes <= b.probes, "{} > {}", d.probes, b.probes);
    }
}
