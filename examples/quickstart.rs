//! Quickstart: simulate a 2-core CMP where a capacity-hungry application
//! (471.omnetpp) runs beside one with spare cache (444.namd), first with
//! plain private LLCs and then under AVGCC.
//!
//! Run with: `cargo run --release -p ascc-examples --bin quickstart`

#![forbid(unsafe_code)]

use ascc::AvgccConfig;
use cmp_cache::PrivateBaseline;
use cmp_sim::{run_mix, weighted_speedup_improvement, SystemConfig};
use cmp_trace::{SpecBench, WorkloadMix};

fn main() {
    // The paper's baseline architecture (Table 2), two cores.
    let cfg = SystemConfig::table2(2);
    let mix = WorkloadMix::new(vec![SpecBench::Omnetpp, SpecBench::Namd]);
    // omnetpp's capacity bursts recur every ~7M instructions: simulate
    // long enough to cover a few cycles.
    let (instrs, warmup, seed) = (12_000_000, 4_000_000, 42);

    println!("mix {mix} on {} + private L1s", cfg.l2);

    // 1. Private baseline: the two applications cannot interact.
    let base = run_mix(
        &cfg,
        &mix,
        Box::new(PrivateBaseline::new()),
        instrs,
        warmup,
        seed,
    );

    // 2. AVGCC: omnetpp's saturated sets spill last-copy victims into
    //    namd's underutilized same-index sets; reuse becomes 25-cycle
    //    remote hits instead of 460-cycle memory misses.
    let policy = AvgccConfig::avgcc(cfg.cores, cfg.l2.sets(), cfg.l2.ways()).build();
    let avgcc = run_mix(&cfg, &mix, Box::new(policy), instrs, warmup, seed);

    for (b, a) in base.cores.iter().zip(&avgcc.cores) {
        println!(
            "  {:14} CPI {:.3} -> {:.3}   (L2: {} remote hits, {} fewer memory misses)",
            b.label,
            b.cpi(),
            a.cpi(),
            a.l2_remote_hits,
            b.l2_mem.saturating_sub(a.l2_mem),
        );
    }
    println!(
        "  spills {}  swaps {}  hits/spill {:.2}",
        avgcc.spills,
        avgcc.swaps,
        avgcc.hits_per_spill()
    );
    println!(
        "  weighted speedup improvement: {:+.2}%",
        100.0 * weighted_speedup_improvement(&avgcc, &base)
    );
}
