//! The `on_cycle` gate: the simulator reads
//! [`LlcPolicy::has_cycle_work`] once when it is built and skips the
//! per-access `on_cycle` call for policies that answer `false`. That skip
//! is exact only if such a policy's `on_cycle` never changes state, which
//! these tests pin for every policy the experiments build; they also pin
//! which policies answer `true`, and that a policy with cycle work runs
//! bit-identically under the event loop and the reference interleave.

use ascc::{AvgccConfig, TinyLfuConfig};
use ascc_integration::{all_policies, assert_loop_matches_reference, small_config};
use cmp_cache::{AccessOutcome, CoreId, LlcPolicy, ObsEvent, SetIdx, VecProbe};
use cmp_sim::{mix_sources, CmpSystem};
use cmp_snap::SnapWriter;
use cmp_trace::mixes_for;
use proptest::prelude::*;

/// The policy's full adaptive state, as its snapshot section serializes it.
fn state_bytes(p: &dyn LlcPolicy) -> Vec<u8> {
    let mut w = SnapWriter::new();
    p.save_state(&mut w);
    w.into_bytes()
}

fn outcome() -> impl Strategy<Value = AccessOutcome> {
    prop_oneof![
        Just(AccessOutcome::Miss),
        (prop::bool::ANY, 0u16..8)
            .prop_map(|(spilled, depth)| AccessOutcome::Hit { spilled, depth }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    /// Warm every policy with random L2 accesses, then call `on_cycle` at
    /// random clocks: a policy that reports no cycle work must come out
    /// with its snapshot and serialized state untouched.
    #[test]
    fn on_cycle_is_a_no_op_without_cycle_work(
        cores in 2usize..5,
        warm in prop::collection::vec((0usize..4, 0u32..256, outcome()), 0..400),
        cycles in prop::collection::vec((0usize..4, 0u64..10_000_000), 1..40),
    ) {
        let cfg = small_config(cores);
        let sets = cfg.l2.sets();
        for mut p in all_policies(&cfg) {
            for &(core, set, out) in &warm {
                p.record_access(CoreId((core % cores) as u8), SetIdx(set % sets), out);
            }
            if p.has_cycle_work() {
                continue;
            }
            let (snap, bytes) = (p.snapshot(), state_bytes(p.as_ref()));
            for &(core, clock) in &cycles {
                p.on_cycle(CoreId((core % cores) as u8), clock);
            }
            prop_assert_eq!(&p.snapshot(), &snap, "{}: on_cycle moved the snapshot", p.name());
            prop_assert_eq!(
                state_bytes(p.as_ref()),
                bytes,
                "{}: on_cycle moved the serialized state",
                p.name()
            );
        }
    }
}

/// Only QoS-AVGCC has cycle work in the zoo, and a TinyLFU filter wrapped
/// around it forwards the answer.
#[test]
fn only_qos_avgcc_reports_cycle_work() {
    let cfg = small_config(4);
    let with_work: Vec<String> = all_policies(&cfg)
        .iter()
        .filter(|p| p.has_cycle_work())
        .map(|p| p.name().to_string())
        .collect();
    let qos = || Box::new(AvgccConfig::qos_avgcc(4, cfg.l2.sets(), cfg.l2.ways()).build());
    assert_eq!(with_work, [qos().name()]);
    let wrapped = TinyLfuConfig::for_geometry(4, cfg.l2.sets(), cfg.l2.ways()).wrap(qos());
    assert!(
        wrapped.has_cycle_work(),
        "TinyLFU over QoS-AVGCC must forward its cycle work"
    );
}

/// The state comparison above is sensitive: a QoS epoch boundary does
/// change QoS-AVGCC's serialized state.
#[test]
fn qos_epoch_changes_state() {
    let cfg = small_config(2);
    let mut p = AvgccConfig::qos_avgcc(2, cfg.l2.sets(), cfg.l2.ways()).build();
    for set in 0..cfg.l2.sets() {
        p.record_access(CoreId(0), SetIdx(set), AccessOutcome::Miss);
    }
    let before = state_bytes(&p);
    p.on_cycle(CoreId(0), 1_000_000);
    assert_ne!(
        state_bytes(&p),
        before,
        "a QoS epoch left the state as it was"
    );
}

/// A QoS-AVGCC system runs bit-identically under the event loop and the
/// reference interleave, at 2 and 32 cores, with the QoS epochs — the
/// only `on_cycle` work there is — firing in both.
#[test]
fn qos_avgcc_batched_matches_streaming() {
    for (cores, steps) in [(2, 400_000), (32, 1_000_000)] {
        let cfg = small_config(cores);
        let mix = &mixes_for(cores)[0];
        let sys = || {
            let policy =
                Box::new(AvgccConfig::qos_avgcc(cores, cfg.l2.sets(), cfg.l2.ways()).build());
            CmpSystem::with_probe_sources(
                cfg.clone(),
                policy,
                mix_sources(mix, 5),
                VecProbe::default(),
                0,
            )
        };
        let (reference, looped) =
            assert_loop_matches_reference(sys, steps, &format!("{cores} cores"));
        let updates = |s: &CmpSystem<VecProbe>| {
            s.probe()
                .events
                .iter()
                .filter(|e| matches!(e, ObsEvent::QosRatioUpdate { .. }))
                .count()
        };
        assert_eq!(updates(&looped), updates(&reference));
        assert!(
            updates(&looped) >= cores,
            "{cores} cores: too few QoS epochs ({}) to exercise on_cycle",
            updates(&looped)
        );
    }
}
