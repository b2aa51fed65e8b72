//! Implement your own cooperation policy against the `LlcPolicy` trait and
//! race it against ASCC.
//!
//! The example policy, *EagerSpill*, spills every last-copy victim to the
//! next core round-robin — no stress tracking at all — and demonstrates
//! why the paper's set-level classification matters: EagerSpill moves far
//! more lines for far fewer remote hits.
//!
//! Run with: `cargo run --release -p ascc-examples --bin custom_policy`

#![forbid(unsafe_code)]

use ascc::AsccConfig;
use cmp_cache::{
    AccessOutcome, CoreId, LlcPolicy, PrivateBaseline, SetIdx, SpillDecision, SpillVictim,
};
use cmp_sim::{run_mix, weighted_speedup_improvement, SystemConfig};
use cmp_trace::four_app_mixes;

/// Spills everything, round-robin, no questions asked.
#[derive(Debug)]
struct EagerSpill {
    cores: usize,
    next: usize,
}

impl EagerSpill {
    fn new(cores: usize) -> Self {
        EagerSpill { cores, next: 0 }
    }
}

impl LlcPolicy for EagerSpill {
    fn name(&self) -> &str {
        "EagerSpill"
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn record_access(&mut self, _core: CoreId, _set: SetIdx, _outcome: AccessOutcome) {}

    fn spill_decision(&mut self, from: CoreId, _set: SetIdx, victim: SpillVictim) -> SpillDecision {
        if self.cores < 2 || victim.spilled {
            return SpillDecision::NotSpiller;
        }
        // Round-robin over the peers.
        self.next = (self.next + 1) % self.cores;
        if self.next == from.index() {
            self.next = (self.next + 1) % self.cores;
        }
        SpillDecision::Spill(CoreId(self.next as u8))
    }
}

fn main() {
    let cfg = SystemConfig::table2(4);
    let mix = four_app_mixes().remove(4); // 458+444+401+471
    let (instrs, warmup, seed) = (12_000_000, 4_000_000, 42);

    let base = run_mix(
        &cfg,
        &mix,
        Box::new(PrivateBaseline::new()),
        instrs,
        warmup,
        seed,
    );
    let eager = run_mix(
        &cfg,
        &mix,
        Box::new(EagerSpill::new(cfg.cores)),
        instrs,
        warmup,
        seed,
    );
    let ascc = run_mix(
        &cfg,
        &mix,
        Box::new(AsccConfig::ascc(cfg.cores, cfg.l2.sets(), cfg.l2.ways()).build()),
        instrs,
        warmup,
        seed,
    );

    println!("mix {mix}:");
    for r in [&eager, &ascc] {
        println!(
            "  {:10} speedup {:+.2}%  spills {:>8}  hits/spill {:.2}",
            r.policy,
            100.0 * weighted_speedup_improvement(r, &base),
            r.spills + r.swaps,
            r.hits_per_spill()
        );
    }
    println!(
        "\nEagerSpill moves lines blindly; ASCC's SSL classification spills \
         fewer lines with much better reuse per spill — the paper's central \
         point (and §6.4's metric)."
    );
}
