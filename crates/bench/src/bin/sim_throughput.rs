//! End-to-end simulator throughput: simulated L1 accesses per wall-clock
//! second, per policy, per access front-end (live generation vs shared
//! materialized-trace replay, both through the one event loop, DESIGN.md
//! §5h), at one worker and at the machine's worker count.
//!
//! This is the engine-level benchmark the cache-arena layout, the
//! [`cmp_sim::SweepPool`] fan-out and the trace arena are aimed at: each
//! row sweeps the same four mixes under one policy and divides the
//! simulated accesses of the measured windows by the wall-clock of the
//! whole sweep (warmup included, identically in every row). The
//! `generator` rows regenerate every access from the workload generator
//! stack; the `arena` rows replay shared materialized chunks — measured
//! with the arena warm (one untimed warming sweep runs first). A
//! generator-only microbenchmark separates front-end cost from engine
//! cost. Results go to stdout and to `BENCH_throughput.json` (override
//! with `ASCC_BENCH_OUT`).
//!
//! `ASCC_QUICK=1` gives a fast smoke run; `ASCC_INSTRS`/`ASCC_WARMUP`
//! rescale as usual. `--jobs` (or `ASCC_JOBS`) sets the "many workers"
//! worker count (default: available parallelism); the one-worker rows are
//! always measured with an explicit single-worker pool. `--cores` (or
//! `ASCC_CORES`) sets the simulated core count of the main sweep
//! (default 2). `ASCC_TRACE_CACHE=0` disables the arena, making the
//! `arena` rows a second generator measurement (the JSON records
//! `trace_cache` so the two configurations stay distinguishable in
//! archived results). See `--help` for the full flag ↔ env mapping.
//!
//! A coherence-scaling section follows the main sweep: ASCC at 4/8/16/32
//! cores (or just `--cores` when given) on both coherence fabrics,
//! reporting tag probes per L1 access. Broadcast probes grow with the
//! core count; the sharer-bitmask directory's stay flat — that contrast
//! is the `scaling` block of the JSON artifact.
//!
//! First of all, the scaling gate measures ASCC on the directory fabric
//! at 2 and 16 cores in this process, with the same fixed work at every
//! scale, and records ns per simulated access at each and their 16/2
//! ratio as the `scaling_gate` block. `--check-scaling` is the CI gate:
//! it exits nonzero if that ratio exceeds the one committed in
//! `BENCH_throughput.json` by more than 15% (re-measuring twice before
//! it fails), or if the directory ever probes more than broadcast or, at
//! full scale, falls behind it in throughput.

use ascc_bench::cli::Cli;
use ascc_bench::scaling::{scaling_row, scaling_sweep, scaling_table};
use ascc_bench::{print_table, Policy, Scale};
use cmp_coherence::FabricKind;
use cmp_json::Value;
use cmp_sim::{mix_sources, mix_workloads, CmpSystem, RunResult, SweepPool, SystemConfig};
use cmp_trace::{mixes_for, trace_cache_enabled, AccessStream, WorkloadMix};

const POLICIES: [Policy; 4] = [
    Policy::Baseline,
    Policy::Ascc,
    Policy::Avgcc,
    Policy::QosAvgcc,
];
const MIXES: usize = 4;

#[derive(Clone, Copy, PartialEq)]
enum FrontEnd {
    Generator,
    Arena,
}

impl FrontEnd {
    fn label(self) -> &'static str {
        match self {
            FrontEnd::Generator => "generator",
            FrontEnd::Arena => "arena",
        }
    }
}

const FRONT_ENDS: [FrontEnd; 2] = [FrontEnd::Generator, FrontEnd::Arena];

/// The scaling gate's two core counts and the slack its 16/2 ns-per-access
/// ratio gets over the committed reference.
const GATE_CORES: [usize; 2] = [2, 16];
const GATE_SLACK: f64 = 1.15;

/// The gate's work, fixed whatever scale the rest of the run uses (the
/// scaling rows have no warm-up), so the reference a full-scale run
/// commits is comparable with every CI run.
const GATE_SCALE: Scale = Scale {
    instrs: 1_200_000,
    warmup: 0,
    seed: 42,
};

struct Row {
    policy: String,
    front_end: FrontEnd,
    jobs: usize,
    wall_s: f64,
    accesses: u64,
}

impl Row {
    fn per_sec(&self) -> f64 {
        self.accesses as f64 / self.wall_s.max(1e-9)
    }

    /// Engine rate per worker thread.
    fn per_sec_per_worker(&self) -> f64 {
        self.per_sec() / self.jobs.max(1) as f64
    }
}

fn simulated_accesses(runs: &[RunResult]) -> u64 {
    runs.iter()
        .flat_map(|r| &r.cores)
        .map(|c| c.l1_accesses)
        .sum()
}

fn run_one(
    cfg: &SystemConfig,
    mix: &WorkloadMix,
    policy: Policy,
    scale: Scale,
    front_end: FrontEnd,
) -> RunResult {
    let sources = match front_end {
        FrontEnd::Generator => mix_workloads(mix, scale.seed)
            .into_iter()
            .map(Into::into)
            .collect(),
        FrontEnd::Arena => mix_sources(mix, scale.seed),
    };
    CmpSystem::from_sources(cfg.clone(), policy.build(cfg), sources).run(scale.instrs, scale.warmup)
}

fn sweep(
    cfg: &SystemConfig,
    mixes: &[WorkloadMix],
    policy: Policy,
    scale: Scale,
    pool: SweepPool,
    front_end: FrontEnd,
) -> Row {
    let t0 = std::time::Instant::now();
    let runs = pool.map((0..MIXES.min(mixes.len())).collect(), |m| {
        run_one(cfg, &mixes[m], policy, scale, front_end)
    });
    Row {
        policy: policy.label(),
        front_end,
        jobs: pool.jobs(),
        wall_s: t0.elapsed().as_secs_f64(),
        accesses: simulated_accesses(&runs),
    }
}

/// Pure front-end rates, no simulator behind them: accesses/sec of live
/// generation vs warm materialized replay over the first mix.
fn generator_rates(mix: &WorkloadMix, scale: Scale, accesses: u64) -> (f64, f64) {
    let n = mix.cores() as u64;
    let per_core = (accesses / n).max(1);

    let mut ws = mix_workloads(mix, scale.seed);
    let t0 = std::time::Instant::now();
    let mut sink = 0u64;
    for w in &mut ws {
        for _ in 0..per_core {
            sink = sink.wrapping_add(w.stream.next_access().addr.raw());
        }
    }
    let streaming = (per_core * n) as f64 / t0.elapsed().as_secs_f64().max(1e-9);

    // Warm pass materializes the chunks; the timed pass replays them.
    for s in &mut mix_sources(mix, scale.seed) {
        for _ in 0..per_core {
            sink = sink.wrapping_add(s.feed.next_access().addr.raw());
        }
    }
    let mut srcs = mix_sources(mix, scale.seed);
    let t1 = std::time::Instant::now();
    for s in &mut srcs {
        for _ in 0..per_core {
            sink = sink.wrapping_add(s.feed.next_access().addr.raw());
        }
    }
    let replay = (per_core * n) as f64 / t1.elapsed().as_secs_f64().max(1e-9);
    std::hint::black_box(sink);
    (streaming, replay)
}

/// ns per simulated access of ASCC on the directory fabric at each of
/// [`GATE_CORES`]. After an untimed run of each warms the trace arena,
/// five timed rounds alternate the two widths, so host drift lands on
/// both, and each side keeps its best.
fn gate_ns_per_access() -> [f64; 2] {
    for cores in GATE_CORES {
        let _ = scaling_row(cores, FabricKind::Directory, GATE_SCALE);
    }
    let mut best = [f64::INFINITY; 2];
    for _ in 0..5 {
        for (b, cores) in best.iter_mut().zip(GATE_CORES) {
            *b = b.min(scaling_row(cores, FabricKind::Directory, GATE_SCALE).ns_per_access());
        }
    }
    best
}

/// The 16/2 ratio committed in `BENCH_throughput.json`, read before this
/// run overwrites it.
fn committed_gate_ratio() -> Result<f64, String> {
    let path = "BENCH_throughput.json";
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let doc = Value::parse(&text).map_err(|e| format!("parse {path}: {e:?}"))?;
    let gate = doc
        .get("scaling_gate")
        .ok_or_else(|| format!("{path} has no scaling_gate block"))?;
    let instrs = gate
        .get("scale")
        .and_then(|s| s.get("instrs"))
        .and_then(Value::as_u64);
    if instrs != Some(GATE_SCALE.instrs) {
        return Err(format!(
            "{path}'s scaling_gate was measured at another scale"
        ));
    }
    gate.get("ratio")
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("{path}'s scaling_gate has no ratio"))
}

fn main() {
    let parsed = Cli::new(
        "sim_throughput",
        "simulated accesses per wall-clock second, per policy and front-end",
    )
    .flag(
        "--check-scaling",
        "exit nonzero if the 16/2-core ns/acc ratio regresses >15% or the directory loses to broadcast (CI gate)",
    )
    .harness_flags()
    .parse();
    let config = parsed.run_config().unwrap_or_else(|e| {
        eprintln!("sim_throughput: {e}");
        std::process::exit(2);
    });
    let check = parsed.has("--check-scaling");
    let reference = check.then(|| {
        committed_gate_ratio().unwrap_or_else(|e| {
            eprintln!("sim_throughput: no scaling reference: {e}");
            std::process::exit(2);
        })
    });
    // Republish before the pool and arena latch their first env read.
    config.apply();
    let scale = Scale::from_env();
    let cores = config.cores.unwrap_or(2);
    let cfg = SystemConfig::table2(cores);
    let mixes = mixes_for(cores);
    let many = SweepPool::from_env();
    println!(
        "sim_throughput: {} cores, {} mixes x {} policies x {} front-ends, {} + {} worker(s), {} instrs/core (trace cache {})",
        cores,
        MIXES.min(mixes.len()),
        POLICIES.len(),
        FRONT_ENDS.len(),
        1,
        many.jobs(),
        scale.instrs,
        if trace_cache_enabled() { "on" } else { "off" },
    );

    // The scaling gate runs first, so the process it measures in (trace
    // arena, heap) is the same whatever the rest of the run does. It is a
    // same-process ratio, so it holds on any host. One slow sample on a
    // shared host is not yet a regression — re-measure twice and gate on
    // the best ratio seen; a real slowdown fails every time, scheduler
    // jitter does not.
    let mut gate = gate_ns_per_access();
    let ratio_of = |ns: [f64; 2]| ns[1] / ns[0].max(1e-9);
    let mut ratio = ratio_of(gate);
    println!(
        "scaling gate: {:.1} ns/acc at {} cores, {:.1} at {}: {:.2}x",
        gate[0], GATE_CORES[0], gate[1], GATE_CORES[1], ratio
    );
    let mut scaling_regressed = false;
    if let Some(reference) = reference {
        let limit = reference * GATE_SLACK;
        for retry in 1..=2 {
            if ratio <= limit {
                break;
            }
            let again = gate_ns_per_access();
            println!("  re-measure #{retry}: {:.2}x", ratio_of(again));
            if ratio_of(again) < ratio {
                gate = again;
                ratio = ratio_of(again);
            }
        }
        println!("  committed reference {reference:.2}x, limit {limit:.2}x");
        if ratio > limit {
            eprintln!("regression: {ratio:.2}x exceeds {limit:.2}x");
            scaling_regressed = true;
        }
    }

    let gen_accesses = (scale.instrs / 2).clamp(200_000, 8_000_000);
    let (gen_streaming, gen_replay) = generator_rates(&mixes[0], scale, gen_accesses);
    println!(
        "generator only: streaming {gen_streaming:.0} acc/s, warm replay {gen_replay:.0} acc/s ({:.2}x)",
        gen_replay / gen_streaming.max(1e-9)
    );

    // Warm the arena outside any timed window so the `arena` rows measure
    // replay, not first-touch materialization.
    for mix in mixes.iter().take(MIXES) {
        let _ = run_one(&cfg, mix, Policy::Baseline, scale, FrontEnd::Arena);
    }

    let mut rows = Vec::new();
    for policy in POLICIES {
        for fe in FRONT_ENDS {
            rows.push(sweep(
                &cfg,
                &mixes,
                policy,
                scale,
                SweepPool::with_jobs(1),
                fe,
            ));
            if many.jobs() > 1 {
                rows.push(sweep(&cfg, &mixes, policy, scale, many, fe));
            }
        }
    }
    if many.jobs() == 1 {
        println!("(single-core host: skipping the many-worker rows)");
    }

    let headers = [
        "policy",
        "front end",
        "jobs",
        "wall s",
        "accesses",
        "acc/s",
        "acc/s/worker",
    ]
    .map(String::from)
    .to_vec();
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.policy.clone(),
                r.front_end.label().to_string(),
                r.jobs.to_string(),
                format!("{:.2}", r.wall_s),
                r.accesses.to_string(),
                format!("{:.0}", r.per_sec()),
                format!("{:.0}", r.per_sec_per_worker()),
            ]
        })
        .collect();
    println!();
    print_table(&headers, &table);

    // Arena replay over live generation, per (policy, jobs).
    let mut speedups: Vec<Value> = Vec::new();
    for after in rows.iter().filter(|r| r.front_end == FrontEnd::Arena) {
        let Some(before) = rows.iter().find(|b| {
            b.front_end == FrontEnd::Generator && b.policy == after.policy && b.jobs == after.jobs
        }) else {
            continue;
        };
        let s = after.per_sec() / before.per_sec().max(1e-9);
        println!(
            "speedup arena over generator {} jobs={}: {:.2}x ({:.0} -> {:.0} acc/s)",
            after.policy,
            after.jobs,
            s,
            before.per_sec(),
            after.per_sec()
        );
        speedups.push(
            Value::object()
                .insert("policy", after.policy.clone())
                .insert("jobs", after.jobs as f64)
                .insert("baseline_front_end", before.front_end.label())
                .insert("front_end", after.front_end.label())
                .insert("baseline_acc_per_sec", before.per_sec())
                .insert("acc_per_sec", after.per_sec())
                .insert("speedup", s),
        );
    }

    // Coherence scaling: broadcast vs directory across core counts.
    let quick = std::env::var("ASCC_QUICK").is_ok_and(|v| v != "0");
    let scaling_cores: Vec<usize> = match config.cores {
        Some(n) => vec![n],
        None => vec![4, 8, 16, 32],
    };
    let scaling = scaling_sweep(&scaling_cores, scale);
    println!();
    let (sc_headers, sc_table) = scaling_table(&scaling);
    print_table(&sc_headers, &sc_table);
    let mut directory_regressed = false;
    for d in scaling.iter().filter(|r| r.fabric == FabricKind::Directory) {
        let Some(b) = scaling
            .iter()
            .find(|r| r.fabric == FabricKind::Broadcast && r.cores == d.cores)
        else {
            continue;
        };
        println!(
            "scaling {} cores: directory {:.2}x broadcast throughput, {:.1}% of its probes",
            d.cores,
            d.per_sec() / b.per_sec().max(1e-9),
            100.0 * d.probes as f64 / b.probes.max(1) as f64
        );
        // Probe counts are deterministic and gate everywhere; the
        // throughput comparison is only meaningful at full scale.
        if d.probes > b.probes || (!quick && d.per_sec() < b.per_sec()) {
            eprintln!(
                "regression: directory fabric worse than broadcast at {} cores",
                d.cores
            );
            directory_regressed = true;
        }
    }

    let json = Value::object()
        .insert("bench", "sim_throughput")
        .insert("cores", cores as f64)
        .insert("trace_cache", trace_cache_enabled())
        .insert(
            "scale",
            Value::object()
                .insert("instrs", scale.instrs as f64)
                .insert("warmup", scale.warmup as f64)
                .insert("seed", scale.seed as f64),
        )
        .insert("mixes", MIXES as f64)
        .insert(
            "generator",
            Value::object()
                .insert("accesses", gen_accesses as f64)
                .insert("streaming_acc_per_sec", gen_streaming)
                .insert("replay_acc_per_sec", gen_replay),
        )
        .insert(
            "rows",
            Value::Array(
                rows.iter()
                    .map(|r| {
                        Value::object()
                            .insert("policy", r.policy.clone())
                            .insert("front_end", r.front_end.label())
                            .insert("jobs", r.jobs as f64)
                            .insert("wall_s", r.wall_s)
                            .insert("accesses", r.accesses as f64)
                            .insert("accesses_per_sec", r.per_sec())
                            .insert("accesses_per_sec_per_worker", r.per_sec_per_worker())
                    })
                    .collect(),
            ),
        )
        .insert("speedups", Value::Array(speedups))
        .insert(
            "scaling",
            Value::Array(
                scaling
                    .iter()
                    .map(|r| {
                        Value::object()
                            .insert("cores", r.cores as f64)
                            .insert("fabric", r.fabric.label())
                            .insert("wall_s", r.wall_s)
                            .insert("accesses", r.accesses as f64)
                            .insert("accesses_per_sec", r.per_sec())
                            .insert("snoops", r.snoops as f64)
                            .insert("probes", r.probes as f64)
                            .insert("probes_per_access", r.probes_per_access())
                    })
                    .collect(),
            ),
        )
        .insert(
            "scaling_gate",
            Value::object()
                .insert("policy", Policy::Ascc.label())
                .insert("fabric", FabricKind::Directory.label())
                .insert(
                    "scale",
                    Value::object()
                        .insert("instrs", GATE_SCALE.instrs as f64)
                        .insert("seed", GATE_SCALE.seed as f64),
                )
                .insert(
                    "cores",
                    Value::Array(GATE_CORES.map(|c| (c as f64).into()).to_vec()),
                )
                .insert(
                    "ns_per_access",
                    Value::Array(gate.map(Value::from).to_vec()),
                )
                .insert("ratio", ratio),
        );
    let path = config
        .out
        .clone()
        .unwrap_or_else(|| "BENCH_throughput.json".into());
    ascc_bench::atomic_write_text(&path, &json.pretty())
        .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("\n[saved {}]", path.display());

    if check && (scaling_regressed || directory_regressed) {
        if scaling_regressed {
            eprintln!("sim_throughput: 16/2-core ns/acc ratio regressed (see scaling gate)");
        }
        if directory_regressed {
            eprintln!("sim_throughput: directory fabric regressed vs broadcast (see scaling)");
        }
        std::process::exit(1);
    }
}
