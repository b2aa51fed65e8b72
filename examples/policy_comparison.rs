//! Compare every cooperation policy on one four-application mix — the
//! Fig. 8 experiment in miniature, including the paper's ablation variants.
//!
//! Run with: `cargo run --release -p ascc-examples --bin policy_comparison`

#![forbid(unsafe_code)]

use ascc::{AsccConfig, AvgccConfig};
use cmp_cache::{LlcPolicy, PrivateBaseline};
use cmp_sim::{run_mix, weighted_speedup_improvement, RunResult, SystemConfig};
use cmp_trace::four_app_mixes;

fn main() {
    let cfg = SystemConfig::table2(4);
    let mix = four_app_mixes().remove(4); // 458+444+401+471
    let (instrs, warmup, seed) = (12_000_000, 4_000_000, 42);
    let (cores, sets, ways) = (cfg.cores, cfg.l2.sets(), cfg.l2.ways());

    println!("mix {mix}, {instrs} measured instructions/core\n");
    let run = |policy: Box<dyn LlcPolicy>| -> RunResult {
        run_mix(&cfg, &mix, policy, instrs, warmup, seed)
    };
    let base = run(Box::new(PrivateBaseline::new()));

    let policies: Vec<Box<dyn LlcPolicy>> = vec![
        Box::new(spill_baselines::CcPolicy::new(cores, 1)),
        Box::new(spill_baselines::DsrConfig::dsr(cores, sets).build()),
        Box::new(spill_baselines::DsrDipPolicy::new(cores, sets)),
        Box::new(spill_baselines::EccConfig::ecc(cores, ways).build()),
        Box::new(AsccConfig::lms(cores, sets, ways).build()),
        Box::new(AsccConfig::ascc(cores, sets, ways).build()),
        Box::new(AvgccConfig::avgcc(cores, sets, ways).build()),
        Box::new(AvgccConfig::qos_avgcc(cores, sets, ways).build()),
    ];
    println!(
        "{:12} {:>9} {:>10} {:>12}",
        "policy", "speedup", "spills", "hits/spill"
    );
    for p in policies {
        let name = p.name().to_string();
        let r = run(p);
        println!(
            "{:12} {:>8.2}% {:>10} {:>12.2}",
            name,
            100.0 * weighted_speedup_improvement(&r, &base),
            r.spills + r.swaps,
            r.hits_per_spill()
        );
    }
}
