//! The traced run: per-layer counts and self-time estimates.
//!
//! It runs the workload once untraced and once with a [`CountingProbe`]
//! attached (the difference is the tracing overhead), snapshots and
//! restores every traced system, and then replays the workload's own
//! inputs through each layer alone (see `layers.rs`). Every phase is
//! a span; the spans and counts are written out when the run ends.

use std::time::{Duration, Instant};

use cmp_cache::NullProbe;
use cmp_coherence::BusStats;
use cmp_json::Value;

use crate::check::Reference;
use crate::layers::{self, Timing};
use crate::measure::{prepare, run_timed, size, Prepared, Timed};
use crate::probe::CountingProbe;
use crate::report::{Metric, Report};
use crate::span::Spans;
use crate::workload::Plan;

/// Most accesses a layer replay walks per input group.
const REPLAY_CAP: u64 = 4_000_000;

/// Lifetime counters summed over the traced simulations.
#[derive(Clone, Copy, Debug, Default)]
struct Lifetime {
    l1_accesses: u64,
    l1_hits: u64,
    l2_accesses: u64,
    local: u64,
    remote: u64,
    mem: u64,
}

/// Snapshot/restore totals over the traced simulations.
#[derive(Clone, Copy, Debug, Default)]
struct Snap {
    systems: u64,
    bytes: u64,
    snapshot: Duration,
    restore: Duration,
}

/// Checks the probe against the system's lifetime counters: every L2
/// outcome event must match the engine's own count.
fn reconcile(probe: &CountingProbe, life: &Lifetime) -> Result<(), String> {
    for (what, events, counters) in [
        ("LocalHit", probe.local_hits, life.local),
        ("RemoteHit", probe.remote_hits, life.remote),
        ("MemFetch", probe.mem_fetches, life.mem),
    ] {
        if events != counters {
            return Err(format!(
                "probe saw {events} {what} events, lifetime counters say {counters}"
            ));
        }
    }
    Ok(())
}

impl Lifetime {
    /// Adds every core of `result` to these counters.
    fn add(&mut self, result: &cmp_sim::RunResult) {
        for c in &result.cores {
            self.l1_accesses += c.l1_accesses;
            self.l1_hits += c.l1_hits;
            self.l2_accesses += c.l2_accesses;
            self.local += c.l2_local_hits;
            self.remote += c.l2_remote_hits;
            self.mem += c.l2_mem;
        }
    }
}

/// Snapshots simulation `sim` of `prepared`, restores the bytes into a
/// freshly built system and checks that it snapshots to the same bytes.
fn snapshot_round_trip(
    plan: &Plan,
    spans: &mut Spans,
    sim: usize,
    prepared: &Prepared<CountingProbe>,
    snap: &mut Snap,
) -> Result<(), String> {
    let t0 = Instant::now();
    let bytes = prepared.systems[sim].snapshot();
    let t1 = Instant::now();
    let input = plan.sims[sim].input;
    let mut fresh = plan.system(sim, plan.sources(input, &prepared.traces[input]), NullProbe);
    let t2 = Instant::now();
    fresh
        .restore(&bytes)
        .map_err(|e| format!("simulation {sim}: restore failed: {e}"))?;
    let t3 = Instant::now();
    let span = spans.add("snapshot", None, t0, t1);
    spans.count(span, "bytes", bytes.len() as f64);
    spans.add("restore", None, t2, t3);
    if fresh.snapshot() != bytes {
        return Err(format!(
            "simulation {sim}: restored system does not snapshot to the same bytes"
        ));
    }
    snap.systems += 1;
    snap.bytes += bytes.len() as u64;
    snap.snapshot += t1 - t0;
    snap.restore += t3 - t2;
    Ok(())
}

/// Layer replay timings summed over input groups.
#[derive(Clone, Copy, Debug, Default)]
struct Layers {
    replay: Timing,
    generate: Timing,
    l1: Timing,
    l2: Timing,
    hooks: Timing,
    sharers: Timing,
}

/// Runs one layer replay inside a span named `name` and adds its timing to
/// `total`.
fn time_layer(
    spans: &mut Spans,
    name: &str,
    parent: usize,
    total: &mut Timing,
    replay: impl FnOnce() -> Timing,
) {
    let id = spans.open(name, Some(parent));
    let t = replay();
    spans.close(id);
    spans.count(id, "ops", t.ops as f64);
    total.add(t);
}

/// Replays each input group through each layer, with `counts[input]` the
/// per-core access counts of the input's traced run.
fn replay_layers(
    plan: &Plan,
    spans: &mut Spans,
    prepared: &Prepared<NullProbe>,
    counts: &[Vec<u64>],
) -> Layers {
    let cfg = &plan.cfg;
    let mut out = Layers::default();
    for (input, run_counts) in counts.iter().enumerate() {
        let parent = spans.open(format!("layers.input{input}"), None);
        let counts = layers::replay_counts(run_counts, REPLAY_CAP);
        let traces = plan.replay_traces(input, &prepared.traces[input]);
        time_layer(spans, "layer.trace.replay", parent, &mut out.replay, || {
            layers::replay(&traces, &counts)
        });
        time_layer(
            spans,
            "layer.trace.generate",
            parent,
            &mut out.generate,
            || layers::generate(plan.generators(input), &counts),
        );
        let streams = layers::collect(&traces, &counts);
        let requests = layers::l1_requests(cfg.l1, &streams);
        time_layer(spans, "layer.cache.l1", parent, &mut out.l1, || {
            layers::l1_probe(cfg.l1, &streams)
        });
        drop(streams);
        let log = layers::l2_log(cfg.l2, &requests);
        time_layer(spans, "layer.cache.l2", parent, &mut out.l2, || {
            layers::l2_probe(cfg.l2, &requests)
        });
        for sim in plan.sims.iter().filter(|s| s.input == input) {
            time_layer(spans, "layer.policy", parent, &mut out.hooks, || {
                layers::policy_hooks(sim.policy.build(cfg), &log)
            });
        }
        let lines_hint = cfg.cores * cfg.l2.lines() as usize;
        time_layer(
            spans,
            "layer.coherence.sharers",
            parent,
            &mut out.sharers,
            || layers::sharer_ops(lines_hint, &log),
        );
        spans.close(parent);
    }
    out
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The traced run's report and its trace document (spans and counts).
///
/// Untraced and traced passes over the whole workload repeat until their
/// simulations have run for `seconds` together (at least one of each).
pub fn run_traced(plan: &Plan, reference: &Reference, seconds: f64) -> (Report, Value) {
    let mut spans = Spans::default();
    let sizing_span = spans.open("sizing", None);
    let sizing = size(plan, reference);
    spans.close(sizing_span);

    let mut probe_total = CountingProbe::default();
    let mut life = Lifetime::default();
    let mut bus = BusStats::default();
    let mut snap = Snap::default();
    let mut input_counts: Vec<Vec<u64>> = vec![Vec::new(); plan.inputs.len()];
    let mut sim_rows = Vec::new();
    let (mut untraced, mut traced) = (Timed::default(), Timed::default());
    // Untraced and traced passes alternate, so drift in the host's speed
    // does not show up as tracing overhead.
    while (untraced.sim_wall + traced.sim_wall).as_secs_f64() < seconds || traced.runs == 0 {
        let measured = untraced.accesses + traced.accesses;
        untraced.merge(run_timed(
            plan,
            &sizing,
            0.0,
            &mut spans,
            |_| NullProbe,
            |_, _, _, _| Ok(()),
        ));
        let first_pass = traced.runs == 0;
        traced.merge(run_timed(
            plan,
            &sizing,
            0.0,
            &mut spans,
            |_| CountingProbe::default(),
            |spans, sim, prepared, run| {
                let sys = &prepared.systems[sim];
                let lifetime = sys.lifetime_result();
                let mut l = Lifetime::default();
                l.add(&lifetime);
                let probe = sys.probe();
                reconcile(probe, &l).map_err(|e| format!("simulation {sim}: {e}"))?;
                let input = plan.sims[sim].input;
                if input_counts[input].is_empty() {
                    input_counts[input] = lifetime.cores.iter().map(|c| c.l1_accesses).collect();
                }
                probe_total.merge(probe);
                life.add(&lifetime);
                let b = sys.fabric().stats();
                bus.snoops += b.snoops;
                bus.transfers += b.transfers;
                bus.invalidations += b.invalidations;
                bus.probes += b.probes;
                if first_pass {
                    sim_rows.push(
                        probe
                            .fields()
                            .iter()
                            .fold(Value::object(), |o, &(k, v)| o.insert(k, v))
                            .insert("sim", sim as u64)
                            .insert("policy", lifetime.policy.clone())
                            .insert("l1_accesses", l.l1_accesses)
                            .insert("snoops", b.snoops)
                            .insert("probes", b.probes)
                            .insert("wall_ns", run.wall().as_nanos() as u64),
                    );
                }
                snapshot_round_trip(plan, spans, sim, prepared, &mut snap)
            },
        ));
        if untraced.accesses + traced.accesses == measured {
            break; // every simulation panicked
        }
    }

    let (prepared, _) = prepare(plan, &sizing, |_| NullProbe);
    let arena_mib = prepared.arena.bytes() as f64 / f64::from(1u32 << 20);
    let lay = replay_layers(plan, &mut spans, &prepared, &input_counts);
    drop(prepared);

    let acc = life.l1_accesses;
    let l2_per_access = ratio(life.l2_accesses, acc);
    let front_end = if plan.replays() {
        lay.replay.per_op()
    } else {
        lay.generate.per_op()
    };
    let sharer_ops_per_access = ratio(
        probe_total.misses + probe_total.fills + probe_total.evictions,
        acc,
    );
    let explained = front_end
        + lay.l1.per_op()
        + (lay.l2.per_op() + lay.hooks.per_op()) * l2_per_access
        + lay.sharers.per_op() * sharer_ops_per_access;
    let untraced_ns = untraced.ns_per_access();
    let paired: Vec<f64> = traced
        .pass_ns
        .iter()
        .zip(&untraced.pass_ns)
        .map(|(t, u)| t / u)
        .collect();
    let mut materialize = untraced.materialize_s.clone();
    materialize.extend(&traced.materialize_s);
    let per_k = |n: u64| ratio(n * 1000, acc);
    let snaps = snap.systems.max(1) as f64;
    let metrics = vec![
        Metric::new(
            "trace.materialize_s",
            "s",
            crate::quantile(&materialize, 0.5).unwrap_or(0.0),
        ),
        Metric::new("trace.arena_mib", "MiB", arena_mib),
        Metric::new("trace.replay_ns", "ns", lay.replay.per_op()),
        Metric::new("trace.generate_ns", "ns", lay.generate.per_op()),
        Metric::new("cache.l1_hit_ratio", "ratio", ratio(life.l1_hits, acc)),
        Metric::new("cache.l1_probe_ns", "ns", lay.l1.per_op()),
        Metric::new("cache.l2_per_access", "ratio", l2_per_access),
        Metric::new(
            "cache.l2_local_hit_ratio",
            "ratio",
            ratio(life.local, life.l2_accesses),
        ),
        Metric::new(
            "cache.evictions_per_access",
            "ratio",
            ratio(probe_total.evictions, acc),
        ),
        Metric::new("cache.l2_probe_ns", "ns", lay.l2.per_op()),
        Metric::new(
            "policy.spills_per_kacc",
            "1/kacc",
            per_k(probe_total.spills),
        ),
        Metric::new(
            "policy.spill_hit_ratio",
            "ratio",
            ratio(
                probe_total.spilled_local_hits + probe_total.spilled_remote_hits,
                probe_total.spills,
            ),
        ),
        Metric::new(
            "policy.no_candidate_per_kacc",
            "1/kacc",
            per_k(probe_total.no_candidate),
        ),
        Metric::new("policy.swaps_per_kacc", "1/kacc", per_k(probe_total.swaps)),
        Metric::new(
            "policy.mode_switches_per_kacc",
            "1/kacc",
            per_k(probe_total.mode_switches),
        ),
        Metric::new(
            "policy.regranularizations",
            "count",
            probe_total.regranularizations as f64,
        ),
        Metric::new("policy.hook_ns", "ns", lay.hooks.per_op()),
        Metric::new(
            "coherence.snoops_per_access",
            "ratio",
            ratio(bus.snoops, acc),
        ),
        Metric::new(
            "coherence.probes_per_snoop",
            "ratio",
            ratio(bus.probes, bus.snoops),
        ),
        Metric::new(
            "coherence.remote_hit_ratio",
            "ratio",
            ratio(life.remote, life.remote + life.mem),
        ),
        Metric::new("coherence.sharer_op_ns", "ns", lay.sharers.per_op()),
        Metric::new("sim.self_ns_per_access", "ns", untraced_ns - explained).note(format!(
            "untraced {untraced_ns:.2} ns/acc - layers {explained:.2}"
        )),
        Metric::new(
            "sim.tracing_overhead",
            "ratio",
            crate::quantile(&paired, 0.5).unwrap_or(0.0),
        )
        .note(format!("median of {} paired passes", paired.len())),
        Metric::new("snap.bytes", "B", snap.bytes as f64 / snaps),
        Metric::new(
            "snap.snapshot_ms",
            "ms",
            snap.snapshot.as_secs_f64() * 1e3 / snaps,
        ),
        Metric::new(
            "snap.restore_ms",
            "ms",
            snap.restore.as_secs_f64() * 1e3 / snaps,
        ),
    ];

    let mut failures = untraced.failures.clone();
    failures.extend(traced.failures.iter().cloned());
    let report = Report {
        attempted: untraced.runs + traced.runs,
        failed: untraced.failed + traced.failed,
        failures,
        metrics,
    };
    let counts = probe_total
        .fields()
        .iter()
        .fold(Value::object(), |o, &(k, v)| o.insert(k, v))
        .insert("l1_accesses", life.l1_accesses)
        .insert("l1_hits", life.l1_hits)
        .insert("l2_accesses", life.l2_accesses)
        .insert("l2_local_hits", life.local)
        .insert("l2_remote_hits", life.remote)
        .insert("l2_mem", life.mem)
        .insert("snoops", bus.snoops)
        .insert("transfers", bus.transfers)
        .insert("invalidations", bus.invalidations)
        .insert("probes", bus.probes);
    let doc = Value::object()
        .insert("workload", plan.workload.name())
        .insert("seed", plan.seed)
        .insert("digest", sizing.digest.clone())
        .insert("untraced_ns_per_access", untraced_ns)
        .insert("traced_ns_per_access", traced.ns_per_access())
        .insert("counts", counts)
        .insert("sims", Value::Array(sim_rows))
        .insert(
            "metrics",
            report.json().get("metrics").cloned().unwrap_or(Value::Null),
        )
        .insert("spans", spans.to_json());
    (report, doc)
}
