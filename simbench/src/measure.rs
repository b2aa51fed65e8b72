//! The timed run: set-up, the timed simulations, and the checks around
//! them.
//!
//! The timed window covers only `try_run_batched` calls. Set-up builds the
//! trace sources, materializes every chunk the simulations will replay and
//! builds the systems; the checks run after each simulation, outside the
//! window. A sizing pass before the first set-up finds how many chunks each
//! trace needs and records the digest every later run must reproduce.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use cmp_cache::ObsProbe;
use cmp_sim::{CmpSystem, RunResult};
use cmp_trace::TraceArena;

use crate::calib::{Calibration, REFERENCE_NS_PER_OP};
use crate::check::{check_invariants, sim_digest, workload_digest, Reference};
use crate::span::Spans;
use crate::workload::{InputTraces, Plan};

/// What the sizing pass learned about a plan.
#[derive(Clone, Debug)]
pub struct Sizing {
    /// Chunks each trace needs, per input group and core (empty for
    /// generator-fed inputs).
    pub chunks: Vec<Vec<usize>>,
    /// Digest of each simulation, in plan order.
    pub sim_digests: Vec<String>,
    /// Digest of the whole workload.
    pub digest: String,
    /// Why the workload digest does not match the recorded one, if it does
    /// not.
    pub reference_error: Option<String>,
}

/// Runs every simulation once, lazily materializing traces, to size the
/// arena and record the digests later runs are held to.
///
/// # Panics
///
/// Panics if a simulation panics: without a sizing pass nothing can be
/// measured.
pub fn size(plan: &Plan, reference: &Reference) -> Sizing {
    let arena = plan.arena();
    let traces = plan.traces(&arena);
    let sim_digests = (0..plan.sims.len())
        .map(|sim| {
            let mut sys = plan.plain_system(sim, &traces);
            let result = sys.run_batched(plan.scale.instrs, plan.scale.warmup);
            sim_digest(&sys, &result)
        })
        .collect::<Vec<_>>();
    let chunks = traces
        .iter()
        .map(|t| {
            t.iter()
                .flatten()
                .map(|trace| trace.chunks_generated())
                .collect()
        })
        .collect();
    let digest = workload_digest(&sim_digests);
    let reference_error = reference
        .get(plan.workload, plan.seed)
        .filter(|&recorded| recorded != digest)
        .map(|recorded| {
            format!(
                "{} seed {}: workload digest {digest} differs from the recorded {recorded}",
                plan.workload.name(),
                plan.seed
            )
        });
    Sizing {
        chunks,
        sim_digests,
        digest,
        reference_error,
    }
}

/// Inputs and systems ready to run.
#[derive(Debug)]
pub struct Prepared<P: ObsProbe> {
    /// The arena holding every materialized trace.
    pub arena: TraceArena,
    /// Per input group, its traces.
    pub traces: Vec<InputTraces>,
    /// One system per simulation, in plan order.
    pub systems: Vec<CmpSystem<P>>,
}

/// Wall time of each set-up phase.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    /// Registering the trace sources.
    pub sources: Duration,
    /// Materializing every chunk the simulations replay.
    pub materialize: Duration,
    /// Building the systems.
    pub systems: Duration,
}

impl SetupTimes {
    /// Total set-up time.
    pub fn total(&self) -> Duration {
        self.sources + self.materialize + self.systems
    }
}

/// Builds a fresh arena, materializes the chunks `sizing` found, and builds
/// one system per simulation, observed by the probe `probe(sim)` returns.
pub fn prepare<P: ObsProbe>(
    plan: &Plan,
    sizing: &Sizing,
    mut probe: impl FnMut(usize) -> P,
) -> (Prepared<P>, SetupTimes) {
    let t0 = Instant::now();
    let arena = plan.arena();
    let traces = plan.traces(&arena);
    let t1 = Instant::now();
    for (input, counts) in traces.iter().zip(&sizing.chunks) {
        for (trace, &n) in input.iter().flatten().zip(counts) {
            for idx in 0..n {
                trace
                    .chunk(idx)
                    .expect("the benchmark arena's budget covers every workload");
            }
        }
    }
    let t2 = Instant::now();
    let systems = (0..plan.sims.len())
        .map(|sim| {
            let input = plan.sims[sim].input;
            plan.system(sim, plan.sources(input, &traces[input]), probe(sim))
        })
        .collect();
    let t3 = Instant::now();
    let times = SetupTimes {
        sources: t1 - t0,
        materialize: t2 - t1,
        systems: t3 - t2,
    };
    (
        Prepared {
            arena,
            traces,
            systems,
        },
        times,
    )
}

/// One finished simulation run.
#[derive(Clone, Debug)]
pub struct SimRun {
    /// The measured-window result.
    pub result: RunResult,
    /// Simulated L1 accesses over the whole run, warm-up included.
    pub accesses: u64,
    /// When the run started.
    pub start: Instant,
    /// When the run ended.
    pub end: Instant,
    /// When each full timing epoch ended.
    pub epoch_ends: Vec<Instant>,
}

impl SimRun {
    /// Host wall time of the run.
    pub fn wall(&self) -> Duration {
        self.end - self.start
    }

    /// Host ns per simulated access of each full epoch.
    pub fn epoch_ns_per_access(&self, epoch_accesses: u64) -> impl Iterator<Item = f64> + '_ {
        std::iter::once(self.start)
            .chain(self.epoch_ends.iter().copied())
            .zip(&self.epoch_ends)
            .map(move |(a, &b)| (b - a).as_nanos() as f64 / epoch_accesses as f64)
    }
}

/// Runs `sys` to completion with the epoch hook. The timed window is this
/// call.
pub fn run_sim<P: ObsProbe>(plan: &Plan, sys: &mut CmpSystem<P>) -> SimRun {
    // Sized so the hook never reallocates inside the timed window.
    let mut epoch_ends = Vec::with_capacity(4096);
    let start = Instant::now();
    let result = sys
        .try_run_batched(
            plan.scale.instrs,
            plan.scale.warmup,
            plan.scale.epoch_accesses,
            |_| {
                epoch_ends.push(Instant::now());
                true
            },
        )
        .expect("an always-continue hook cannot abort the run");
    let end = Instant::now();
    SimRun {
        result,
        accesses: sys.total_accesses(),
        start,
        end,
        epoch_ends,
    }
}

/// Checks a finished run of simulation `sim`: its digest matches the sizing
/// pass (and through it the recorded reference), no trace was generated
/// during the run, and the structural invariants hold.
pub fn check_run<P: ObsProbe>(
    sizing: &Sizing,
    sim: usize,
    prepared: &Prepared<P>,
    run: &SimRun,
    arena_bytes_before: u64,
) -> Result<(), String> {
    if let Some(e) = &sizing.reference_error {
        return Err(e.clone());
    }
    let sys = &prepared.systems[sim];
    let digest = sim_digest(sys, &run.result);
    if digest != sizing.sim_digests[sim] {
        return Err(format!(
            "simulation {sim}: digest {digest} differs from the sizing pass's {}",
            sizing.sim_digests[sim]
        ));
    }
    if prepared.arena.bytes() != arena_bytes_before {
        return Err(format!(
            "simulation {sim}: trace was generated inside the timed window"
        ));
    }
    check_invariants(sys)
}

/// Failure reasons a [`Timed`] keeps for the report.
const MAX_FAILURES: usize = 8;

/// Everything the timed run measured.
#[derive(Clone, Debug, Default)]
pub struct Timed {
    /// Simulation runs attempted.
    pub runs: u64,
    /// Runs that panicked or failed a check.
    pub failed: u64,
    /// The first failures, for the report.
    pub failures: Vec<String>,
    /// Summed wall time of the timed simulations.
    pub sim_wall: Duration,
    /// Summed simulated L1 accesses of the timed simulations.
    pub accesses: u64,
    /// Host ns per access of each pass over the whole workload.
    pub pass_ns: Vec<f64>,
    /// Host ns per access of every full epoch.
    pub epoch_ns: Vec<f64>,
    /// Each set-up's total time, in seconds.
    pub setup_s: Vec<f64>,
    /// Each set-up's materialization time, in seconds.
    pub materialize_s: Vec<f64>,
    /// The calibration kernel, measured after every pass.
    pub calibration: Calibration,
}

impl Timed {
    /// Host ns per simulated access over every timed simulation.
    pub fn ns_per_access(&self) -> f64 {
        self.sim_wall.as_nanos() as f64 / self.accesses.max(1) as f64
    }

    /// The factor that scales this run's host times to the reference host's
    /// speed: the reference kernel time over the kernel time measured here.
    pub fn speed_scale(&self) -> f64 {
        self.calibration
            .ns_per_op()
            .map_or(1.0, |k| REFERENCE_NS_PER_OP / k)
    }

    /// Adds another run's measurements to these.
    pub fn merge(&mut self, other: Timed) {
        self.runs += other.runs;
        self.failed += other.failed;
        let room = MAX_FAILURES.saturating_sub(self.failures.len());
        self.failures.extend(other.failures.into_iter().take(room));
        self.sim_wall += other.sim_wall;
        self.accesses += other.accesses;
        self.pass_ns.extend(other.pass_ns);
        self.epoch_ns.extend(other.epoch_ns);
        self.setup_s.extend(other.setup_s);
        self.materialize_s.extend(other.materialize_s);
        self.calibration.merge(&other.calibration);
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < MAX_FAILURES {
            self.failures.push(why);
        }
    }
}

/// Repeats set-up + every simulation of the plan until the timed
/// simulations have run for `seconds` (at least once), checking each run
/// and measuring the calibration kernel after each pass.
/// Spans of every set-up, run, epoch and check go to `spans`; `after_run`
/// adds its own checks (and records what it needs) after the standard ones
/// pass.
pub fn run_timed<P: ObsProbe>(
    plan: &Plan,
    sizing: &Sizing,
    seconds: f64,
    spans: &mut Spans,
    mut probe: impl FnMut(usize) -> P,
    mut after_run: impl FnMut(&mut Spans, usize, &Prepared<P>, &SimRun) -> Result<(), String>,
) -> Timed {
    let mut timed = Timed::default();
    loop {
        let setup_span = spans.open("setup", None);
        let (mut prepared, times) = prepare(plan, sizing, &mut probe);
        spans.close(setup_span);
        record_setup(spans, setup_span, times);
        timed.setup_s.push(times.total().as_secs_f64());
        timed.materialize_s.push(times.materialize.as_secs_f64());
        let (mut pass_wall, mut pass_accesses) = (Duration::ZERO, 0u64);
        for sim in 0..plan.sims.len() {
            timed.runs += 1;
            let before = prepared.arena.bytes();
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                run_sim(plan, &mut prepared.systems[sim])
            }));
            let run = match outcome {
                Ok(run) => run,
                Err(_) => {
                    timed.fail(format!("simulation {sim} panicked"));
                    continue;
                }
            };
            let run_span = spans.add("run", None, run.start, run.end);
            spans.count(run_span, "sim", sim as f64);
            spans.count(run_span, "accesses", run.accesses as f64);
            let mut prev = run.start;
            for &end in &run.epoch_ends {
                spans.add("epoch", Some(run_span), prev, end);
                prev = end;
            }
            pass_wall += run.wall();
            pass_accesses += run.accesses;
            timed
                .epoch_ns
                .extend(run.epoch_ns_per_access(plan.scale.epoch_accesses));
            let check_span = spans.open("check", Some(run_span));
            let checked = catch_unwind(AssertUnwindSafe(|| {
                check_run(sizing, sim, &prepared, &run, before)?;
                after_run(spans, sim, &prepared, &run)
            }))
            .unwrap_or_else(|_| Err(format!("simulation {sim}: a check panicked")));
            spans.close(check_span);
            if let Err(e) = checked {
                timed.fail(e);
            }
        }
        drop(prepared);
        if pass_accesses == 0 {
            // Every simulation of the pass panicked: repeating it would
            // never fill the window.
            return timed;
        }
        timed.calibration.measure();
        timed.sim_wall += pass_wall;
        timed.accesses += pass_accesses;
        timed
            .pass_ns
            .push(pass_wall.as_nanos() as f64 / pass_accesses.max(1) as f64);
        if timed.sim_wall.as_secs_f64() >= seconds {
            return timed;
        }
    }
}

/// Records a set-up's phases as children of `setup_span`, laid end to end
/// from its start.
fn record_setup(spans: &mut Spans, setup_span: usize, times: SetupTimes) {
    let start = spans.spans()[setup_span].start_ns;
    let mut at = start;
    for (name, d) in [
        ("setup.sources", times.sources),
        ("setup.materialize", times.materialize),
        ("setup.systems", times.systems),
    ] {
        let id = spans.add_ns(name, Some(setup_span), at, at + d.as_nanos() as u64);
        at = spans.spans()[id].end_ns;
    }
}
