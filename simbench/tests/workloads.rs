//! The benchmark's own checks, at a tiny scale.

use cmp_cache::NullProbe;
use cmp_json::Value;
use simbench::measure::{run_timed, size, Timed};
use simbench::probe::CountingProbe;
use simbench::span::Spans;
use simbench::traced::run_traced;
use simbench::workload::Plan;
use simbench::{Reference, Scale, Workload};

const SEED: u64 = 7;

fn plan(w: Workload, seed: u64) -> Plan {
    w.plan(seed, Scale::tiny())
}

fn timed(plan: &Plan, reference: &Reference) -> Timed {
    let sizing = size(plan, reference);
    run_timed(
        plan,
        &sizing,
        0.0,
        &mut Spans::default(),
        |_| NullProbe,
        |_, _, _, _| Ok(()),
    )
}

#[test]
fn every_workload_passes_its_checks() {
    for w in Workload::ALL {
        let plan = plan(w, SEED);
        let t = timed(&plan, &Reference::default());
        assert_eq!(t.runs, plan.sims.len() as u64, "{w:?}");
        assert_eq!(t.failed, 0, "{w:?}: {:?}", t.failures);
        assert!(t.accesses > 0 && t.ns_per_access() > 0.0, "{w:?}");
        assert!(!t.epoch_ns.is_empty(), "{w:?} recorded no epochs");
        assert!(
            t.calibration.ns_per_op().is_some_and(|k| k > 0.0),
            "{w:?} did not measure the calibration kernel"
        );
    }
}

#[test]
fn the_matching_recorded_digest_passes() {
    let plan = plan(Workload::Mix2, SEED);
    let digest = size(&plan, &Reference::default()).digest;
    let mut reference = Reference::default();
    reference.set("mix2", SEED, &digest);
    let t = timed(&plan, &reference);
    assert_eq!(t.failed, 0, "{:?}", t.failures);
}

#[test]
fn a_wrong_recorded_digest_fails_every_run() {
    let plan = plan(Workload::Wide32, SEED);
    let mut reference = Reference::default();
    reference.set("wide32", SEED, "0123456789abcdef");
    let t = timed(&plan, &reference);
    assert!(t.runs > 0);
    assert_eq!(t.failed, t.runs, "{:?}", t.failures);
}

#[test]
fn a_seed_that_does_not_match_its_recorded_digest_fails_every_run() {
    let recorded = size(&plan(Workload::Shared8, SEED), &Reference::default()).digest;
    let mut reference = Reference::default();
    reference.set("shared8", SEED + 1, &recorded);
    let t = timed(&plan(Workload::Shared8, SEED + 1), &reference);
    assert!(t.runs > 0);
    assert_eq!(t.failed, t.runs, "{:?}", t.failures);
}

#[test]
fn probe_totals_reconcile_with_lifetime_counters() {
    for w in Workload::ALL {
        let plan = plan(w, SEED);
        let arena = plan.arena();
        let traces = plan.traces(&arena);
        for sim in 0..plan.sims.len() {
            let input = plan.sims[sim].input;
            let mut probe = CountingProbe::default();
            let mut sys = plan.system(sim, plan.sources(input, &traces[input]), &mut probe);
            sys.run_batched(plan.scale.instrs, plan.scale.warmup);
            let life = sys.lifetime_result();
            drop(sys);
            let sum = |f: fn(&cmp_sim::CoreResult) -> u64| life.cores.iter().map(f).sum::<u64>();
            assert_eq!(
                probe.local_hits,
                sum(|c| c.l2_local_hits),
                "{w:?} sim {sim}"
            );
            assert_eq!(
                probe.remote_hits,
                sum(|c| c.l2_remote_hits),
                "{w:?} sim {sim}"
            );
            assert_eq!(probe.mem_fetches, sum(|c| c.l2_mem), "{w:?} sim {sim}");
        }
    }
}

/// The metric names a `BENCHMARK.json` section lists.
fn listed(section: &str) -> Vec<String> {
    let text = include_str!("../../BENCHMARK.json");
    let doc = Value::parse(text).expect("BENCHMARK.json parses");
    doc.get(section)
        .and_then(Value::as_array)
        .expect("section is an array")
        .iter()
        .map(|m| m.get("name").and_then(Value::as_str).unwrap().to_string())
        .collect()
}

fn reported(report: &simbench::report::Report) -> Vec<String> {
    report.metrics.iter().map(|m| m.name.to_string()).collect()
}

#[test]
fn the_timed_run_reports_every_end_to_end_metric() {
    let plan = plan(Workload::Mix2, SEED);
    let t = timed(&plan, &Reference::default());
    let report = simbench::report::timed_report(&plan, &t);
    assert_eq!(reported(&report), listed("end_to_end"));
    let json = report.json();
    assert_eq!(json.get("attempted").and_then(Value::as_u64), Some(t.runs));
    assert_eq!(json.get("failed").and_then(Value::as_u64), Some(0));
}

#[test]
fn the_traced_run_reports_every_per_layer_metric_without_failures() {
    for w in Workload::ALL {
        let plan = plan(w, SEED);
        let (report, doc) = run_traced(&plan, &Reference::default(), 0.0);
        assert_eq!(report.failed, 0, "{w:?}: {:?}", report.failures);
        assert_eq!(reported(&report), listed("per_layer"), "{w:?}");
        let spans = doc.get("spans").and_then(Value::as_array).unwrap();
        for kind in [
            "sizing", "setup", "run", "epoch", "check", "snapshot", "restore",
        ] {
            assert!(
                spans
                    .iter()
                    .any(|s| s.get("name").and_then(Value::as_str) == Some(kind)),
                "{w:?}: no {kind} span"
            );
        }
        assert!(spans.iter().any(|s| s
            .get("name")
            .and_then(Value::as_str)
            .is_some_and(|n| n.starts_with("layer."))));
    }
}

#[test]
fn the_recorded_reference_covers_the_default_seed_of_every_workload() {
    let reference = Reference::recorded();
    for w in Workload::ALL {
        let digest = reference.get(w, 42);
        assert!(
            digest.is_some_and(|d| d.len() == 16),
            "{w:?}: no digest recorded for the default seed"
        );
    }
}
