//! The benchmark's workloads: what each one simulates, at which scale, and
//! how its inputs and systems are built from a seed.
//!
//! A workload is a fixed list of simulations ([`Sim`]) over a fixed list of
//! input groups ([`Input`]). Every simulation of one input group replays the
//! same per-core traces, as `run_all` does for the policies of one mix.

use std::sync::Arc;

use ascc::{AsccConfig, AvgccConfig};
use cmp_cache::{LlcPolicy, NullProbe, ObsProbe, PrivateBaseline};
use cmp_sim::{core_seed, CmpSystem, SystemConfig, CORE_SPACE_BITS};
use cmp_trace::{
    mixes_for, two_app_mixes, AccessFeed, AccessStream, CoreSource, ParallelBench, SharedTrace,
    SharingSpec, TraceArena, WorkloadMix,
};

/// Byte cap of the benchmark's trace arenas: far above what any workload
/// materializes, so replay never falls back to live generation.
const ARENA_MAX_BYTES: u64 = 4 << 30;

/// A named benchmark workload.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// 2 cores: the first four two-app mixes × {baseline, ASCC, AVGCC},
    /// replayed from a warm arena.
    Mix2,
    /// 32 cores: the first 32-app mix under ASCC, replayed from a warm arena.
    Wide32,
    /// 8 threads of canneal and streamcluster with read-write sharing under
    /// ASCC, fed by live generators.
    Shared8,
}

impl Workload {
    /// Every workload, in the order the benchmark reports them.
    pub const ALL: [Workload; 3] = [Workload::Mix2, Workload::Wide32, Workload::Shared8];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Mix2 => "mix2",
            Workload::Wide32 => "wide32",
            Workload::Shared8 => "shared8",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The scale the benchmark measures at.
    pub fn scale(self) -> Scale {
        match self {
            Workload::Mix2 => Scale {
                instrs: 1_500_000,
                warmup: 500_000,
                epoch_accesses: 100_000,
            },
            Workload::Wide32 => Scale {
                instrs: 150_000,
                warmup: 50_000,
                epoch_accesses: 50_000,
            },
            Workload::Shared8 => Scale {
                instrs: 300_000,
                warmup: 100_000,
                epoch_accesses: 20_000,
            },
        }
    }

    /// The simulations of this workload at `seed`.
    pub fn plan(self, seed: u64, scale: Scale) -> Plan {
        let (cfg, inputs, policies) = match self {
            Workload::Mix2 => (
                SystemConfig::table2(2),
                two_app_mixes()
                    .into_iter()
                    .take(4)
                    .map(Input::Mix)
                    .collect(),
                vec![PolicyKind::Baseline, PolicyKind::Ascc, PolicyKind::Avgcc],
            ),
            Workload::Wide32 => (
                SystemConfig::table2(32),
                vec![Input::Mix(mixes_for(32).swap_remove(0))],
                vec![PolicyKind::Ascc],
            ),
            Workload::Shared8 => (
                SystemConfig::multithreaded(8),
                [ParallelBench::Canneal, ParallelBench::Streamcluster]
                    .into_iter()
                    .map(|bench| Input::Sharing {
                        bench,
                        spec: SharingSpec::read_write(0.5),
                    })
                    .collect(),
                vec![PolicyKind::Ascc],
            ),
        };
        let sims = (0..inputs.len())
            .flat_map(|input| policies.iter().map(move |&policy| Sim { input, policy }))
            .collect();
        Plan {
            workload: self,
            cfg,
            inputs,
            sims,
            seed,
            scale,
        }
    }
}

/// How long each simulation runs, and the timing-epoch length.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Scale {
    /// Measured instructions per core.
    pub instrs: u64,
    /// Warm-up instructions per core.
    pub warmup: u64,
    /// Global L1 accesses per timing epoch (the run hook's cadence).
    pub epoch_accesses: u64,
}

impl Scale {
    /// A very small scale for the benchmark's own tests.
    pub fn tiny() -> Scale {
        Scale {
            instrs: 40_000,
            warmup: 10_000,
            epoch_accesses: 5_000,
        }
    }
}

/// The LLC policies the workloads run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PolicyKind {
    /// Private LLCs, no spilling.
    Baseline,
    /// ASCC (the paper's set-granular design).
    Ascc,
    /// AVGCC (adaptive granularity).
    Avgcc,
}

impl PolicyKind {
    /// A fresh policy for `cfg`'s L2 geometry.
    pub fn build(self, cfg: &SystemConfig) -> Box<dyn LlcPolicy> {
        let (cores, sets, ways) = (cfg.cores, cfg.l2.sets(), cfg.l2.ways());
        match self {
            PolicyKind::Baseline => Box::new(PrivateBaseline::new()),
            PolicyKind::Ascc => Box::new(AsccConfig::ascc(cores, sets, ways).build()),
            PolicyKind::Avgcc => Box::new(AvgccConfig::avgcc(cores, sets, ways).build()),
        }
    }
}

/// One input group: the per-core traces its simulations share.
#[derive(Clone, Debug)]
pub enum Input {
    /// A multiprogrammed mix: core `i` runs `benches[i]` in its own address
    /// region, seeded as `run_mix` seeds it.
    Mix(WorkloadMix),
    /// A multithreaded benchmark with tunable sharing, as `run_sharing` runs
    /// it.
    Sharing {
        /// The benchmark.
        bench: ParallelBench,
        /// Its sharing degree and store fraction.
        spec: SharingSpec,
    },
}

/// One simulation: an input group under a policy.
#[derive(Clone, Copy, Debug)]
pub struct Sim {
    /// Index into [`Plan::inputs`].
    pub input: usize,
    /// The policy.
    pub policy: PolicyKind,
}

/// Everything one workload simulates at one seed.
#[derive(Clone, Debug)]
pub struct Plan {
    /// Which workload this is.
    pub workload: Workload,
    /// The system configuration every simulation uses.
    pub cfg: SystemConfig,
    /// Input groups.
    pub inputs: Vec<Input>,
    /// Simulations, in run order.
    pub sims: Vec<Sim>,
    /// Workload seed.
    pub seed: u64,
    /// Run lengths.
    pub scale: Scale,
}

/// Per-core materialized traces of one input group (`None` for inputs fed
/// by live generators).
pub type InputTraces = Option<Vec<Arc<SharedTrace>>>;

impl Plan {
    /// Whether the workload replays materialized traces (as opposed to live
    /// generators).
    pub fn replays(&self) -> bool {
        self.inputs.iter().all(|i| matches!(i, Input::Mix(_)))
    }

    /// The shared traces of every input group, registered in `arena`
    /// (nothing is materialized yet).
    pub fn traces(&self, arena: &TraceArena) -> Vec<InputTraces> {
        self.inputs
            .iter()
            .map(|input| match input {
                Input::Mix(mix) => Some(
                    mix.benches
                        .iter()
                        .enumerate()
                        .map(|(i, &b)| arena.shared(b, mix_base(i), core_seed(self.seed, i)))
                        .collect(),
                ),
                Input::Sharing { .. } => None,
            })
            .collect()
    }

    /// A fresh arena for this plan's traces.
    pub fn arena(&self) -> TraceArena {
        TraceArena::with_max_bytes(ARENA_MAX_BYTES)
    }

    /// The per-core sources of input group `input`: replay cursors over
    /// `traces` for mixes, fresh generators for sharing inputs.
    pub fn sources(&self, input: usize, traces: &InputTraces) -> Vec<CoreSource> {
        match (&self.inputs[input], traces) {
            (Input::Mix(mix), Some(traces)) => mix
                .benches
                .iter()
                .zip(traces)
                .map(|(b, t)| CoreSource {
                    label: b.name().to_string(),
                    cpu: b.cpu_model(),
                    feed: AccessFeed::Replay(t.cursor()),
                })
                .collect(),
            (Input::Sharing { bench, spec }, None) => bench
                .workloads_sharing(self.cfg.cores, self.seed, *spec)
                .into_iter()
                .map(Into::into)
                .collect(),
            _ => unreachable!("mix inputs replay traces; sharing inputs generate"),
        }
    }

    /// Fresh live generators for every core of input group `input`, the
    /// same access sequences its sources produce.
    pub fn generators(&self, input: usize) -> Vec<Box<dyn AccessStream>> {
        match &self.inputs[input] {
            Input::Mix(mix) => mix
                .benches
                .iter()
                .enumerate()
                .map(|(i, b)| b.workload(mix_base(i), core_seed(self.seed, i)).stream)
                .collect(),
            Input::Sharing { bench, spec } => bench
                .workloads_sharing(self.cfg.cores, self.seed, *spec)
                .into_iter()
                .map(|w| w.stream)
                .collect(),
        }
    }

    /// Materialized traces of input group `input` for layer replays: the
    /// arena's traces for mixes, a fresh materialization of the generators
    /// for sharing inputs.
    pub fn replay_traces(&self, input: usize, traces: &InputTraces) -> Vec<Arc<SharedTrace>> {
        match (&self.inputs[input], traces) {
            (_, Some(t)) => t.clone(),
            (Input::Sharing { bench, spec }, None) => {
                let (bench, spec, seed, cores) = (*bench, *spec, self.seed, self.cfg.cores);
                (0..cores)
                    .map(|t| {
                        SharedTrace::new(move || {
                            bench.thread_workload_sharing(t, cores, seed, spec).stream
                        })
                    })
                    .collect()
            }
            _ => unreachable!("mix inputs always have traces"),
        }
    }

    /// A system for simulation `sim` over `sources`, observed by `probe`.
    pub fn system<P: ObsProbe>(
        &self,
        sim: usize,
        sources: Vec<CoreSource>,
        probe: P,
    ) -> CmpSystem<P> {
        let policy = self.sims[sim].policy.build(&self.cfg);
        CmpSystem::with_probe_sources(self.cfg.clone(), policy, sources, probe, 0)
    }

    /// An unobserved system for simulation `sim`.
    pub fn plain_system(&self, sim: usize, traces: &[InputTraces]) -> CmpSystem<NullProbe> {
        let input = self.sims[sim].input;
        self.system(sim, self.sources(input, &traces[input]), NullProbe)
    }
}

/// Base address of core `i`'s private region in a multiprogrammed mix.
fn mix_base(i: usize) -> u64 {
    (i as u64) << CORE_SPACE_BITS
}
