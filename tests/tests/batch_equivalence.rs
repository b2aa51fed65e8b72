//! The event loop against the reference interleave (DESIGN.md §5h).
//!
//! The engine runs every access through one event loop, which picks the
//! next core from a winner tree and serves accesses from cached chunk
//! runs. The reference is the interleave spelled out in the test crate
//! ([`reference_steps`]): a linear first-minimum scan over the cores'
//! clocks and one public `step(i)` per access. The test names date from
//! when the engine ran this interleave several ways: "batched" and "step
//! mode" now mean the event loop, "streaming" the reference. Layers of
//! evidence:
//!
//! * after N accesses, every policy in the zoo leaves the same snapshot
//!   bytes under both, arena- and generator-fed;
//! * an 8-worker `SweepPool` of event-loop runs matches the sequential
//!   reference byte for byte;
//! * the hook fires at *exactly* every `hook_every` global accesses (the
//!   `ASCC_CKPT_EVERY` contract), and a run aborted at a checkpoint
//!   restores and finishes bit-identically;
//! * at 16 and 32 cores, where the schedule changes core nearly every
//!   access, the same identities hold for arena- and generator-fed runs,
//!   through hooks and a mid-run restore, and across chunk edges every 1
//!   to 64 accesses;
//! * a real SIGKILL of a checkpointed `run_mix` child process, followed
//!   by `ASCC_RESUME=1`, reproduces the uninterrupted run's result
//!   byte-for-byte.

use ascc_integration::{all_policies, assert_loop_matches_reference, small_config};
use ascc_integration::{loop_steps, reference_pick, reference_steps};
use cmp_cache::{CacheGeometry, LlcPolicy};
use cmp_sim::{mix_sources, mix_workloads, CmpSystem, SweepPool, SystemConfig};
use cmp_trace::{mixes_for, two_app_mixes};

const INSTRS: u64 = 40_000;
const WARMUP: u64 = 10_000;
const SEED: u64 = 11;
/// Accesses the 2-core cases compare: about what a full
/// `INSTRS + WARMUP` run executes (46–58 k on the pressured mixes).
const STEPS: u64 = 50_000;

/// A pressured 2-core system (16 kB 4-way L2) so evictions, spills and
/// adaptive-policy state changes all happen within a short run.
fn pressured_cfg() -> SystemConfig {
    let mut cfg = SystemConfig::table2(2);
    cfg.l1 = CacheGeometry::from_capacity(1 << 10, 2, 32).unwrap();
    cfg.l2 = CacheGeometry::from_capacity(16 << 10, 4, 32).unwrap();
    cfg
}

fn sys_for(cfg: &SystemConfig, mix_idx: usize, policy: Box<dyn LlcPolicy>) -> CmpSystem {
    let mix = &two_app_mixes()[mix_idx];
    CmpSystem::from_sources(cfg.clone(), policy, mix_sources(mix, SEED))
}

/// Every policy the simulator can drive: the event loop's state after
/// N accesses equals the reference's, down to the snapshot bytes (tags,
/// recency words, policy state, cursor positions — everything
/// `snapshot()` serializes).
#[test]
fn batched_matches_streaming_for_every_policy() {
    let cfg = pressured_cfg();
    for idx in 0..all_policies(&cfg).len() {
        let name = all_policies(&cfg).remove(idx).name().to_string();
        let build = || sys_for(&cfg, 0, all_policies(&cfg).remove(idx));
        assert_loop_matches_reference(build, STEPS, &name);
    }
}

/// Generator-fed cores (no materialized chunks, so every access goes
/// through the loop's per-access pull) match the reference too.
#[test]
fn batched_matches_streaming_without_trace_chunks() {
    let cfg = small_config(2);
    let mix = &two_app_mixes()[1];
    for idx in 0..all_policies(&cfg).len() {
        let name = all_policies(&cfg).remove(idx).name().to_string();
        let build = || {
            CmpSystem::new(
                cfg.clone(),
                all_policies(&cfg).remove(idx),
                mix_workloads(mix, SEED),
            )
        };
        assert_loop_matches_reference(build, STEPS, &format!("{name}, generator-fed"));
    }
}

/// An 8-worker sweep of event-loop runs must be byte-identical to the
/// sequential reference — the loop composes with the parallel fan-out
/// without perturbing any run.
#[test]
fn eight_worker_batched_sweep_matches_sequential_streaming() {
    let cfg = pressured_cfg();
    let jobs: Vec<(usize, bool)> = (0..4).flat_map(|m| [(m, false), (m, true)]).collect();
    let build = |ascc: bool| -> Box<dyn LlcPolicy> {
        if ascc {
            Box::new(ascc::AsccConfig::ascc(cfg.cores, cfg.l2.sets(), cfg.l2.ways()).build())
        } else {
            Box::new(cmp_cache::PrivateBaseline::new())
        }
    };
    let sequential: Vec<Vec<u8>> = jobs
        .iter()
        .map(|&(m, a)| {
            let mut sys = sys_for(&cfg, m, build(a));
            reference_steps(&mut sys, STEPS);
            sys.snapshot()
        })
        .collect();
    let parallel = SweepPool::with_jobs(8).map(jobs, |(m, a)| {
        let mut sys = sys_for(&cfg, m, build(a));
        loop_steps(&mut sys, STEPS);
        sys.snapshot()
    });
    assert!(
        parallel == sequential,
        "an 8-worker sweep of the event loop diverged from the sequential reference"
    );
}

/// `ASCC_CKPT_EVERY` semantics: the hook fires at *exactly* every
/// `hook_every` global accesses, with state flushed enough to snapshot.
#[test]
fn batched_hook_fires_at_exact_global_access_multiples() {
    let cfg = pressured_cfg();
    let policy = all_policies(&cfg).remove(6); // ASCC
    let mut sys = sys_for(&cfg, 0, policy);
    const EVERY: u64 = 7_001; // coprime to the chunk size
    let mut fired = 0u64;
    sys.try_run_batched(INSTRS, WARMUP, EVERY, |s| {
        fired += 1;
        assert_eq!(
            s.total_accesses(),
            fired * EVERY,
            "hook #{fired} fired off-cadence"
        );
        true
    })
    .expect("an always-continue hook cannot abort the run");
    assert!(
        fired >= 3,
        "run too short to exercise the cadence ({fired} hooks)"
    );
}

/// A run killed at a checkpoint resumes bit-identically: abort the run
/// from its Nth hook (state exactly as a SIGKILL after the
/// Nth checkpoint write would leave on disk), restore a fresh system from
/// that snapshot and finish — same `RunResult`, same end snapshot.
#[test]
fn mid_batch_checkpoint_restores_bit_identically() {
    let cfg = pressured_cfg();
    for idx in 0..all_policies(&cfg).len() {
        let build = || all_policies(&cfg).remove(idx);
        let name = build().name().to_string();
        let mut straight = sys_for(&cfg, 0, build());
        let straight_result = straight.run(INSTRS, WARMUP);
        let straight_end = straight.snapshot();

        let mut victim = sys_for(&cfg, 0, build());
        let mut ckpt = None;
        let mut fired = 0u64;
        let aborted = victim.try_run_batched(INSTRS, WARMUP, 7_001, |s| {
            fired += 1;
            ckpt = Some(s.snapshot());
            fired < 3
        });
        assert!(
            aborted.is_none(),
            "{name}: the aborting hook must kill the run"
        );
        let ckpt = ckpt.unwrap_or_else(|| panic!("{name}: no checkpoint captured"));

        let mut resumed = sys_for(&cfg, 0, build());
        resumed
            .restore(&ckpt)
            .unwrap_or_else(|e| panic!("{name}: restore: {e}"));
        let resumed_result = resumed.run(INSTRS, WARMUP);
        assert_eq!(
            resumed_result, straight_result,
            "{name}: RunResult diverged after a mid-run restore"
        );
        assert_eq!(
            resumed.snapshot(),
            straight_end,
            "{name}: end snapshot diverged after a mid-run restore"
        );
    }
}

// ----- 16 and 32 cores ---------------------------------------------------
//
// At 16+ cores the schedule moves to another core after nearly every
// access, so the winner tree's picks and the schedule-ahead prefetch
// carry the run, where at 2 cores one core often keeps the schedule.

const WIDE_INSTRS: u64 = 20_000;
const WIDE_WARMUP: u64 = 5_000;
/// Accesses the 32-core cases compare (half that at 16 cores): about
/// what a full `WIDE_INSTRS + WIDE_WARMUP` run executes.
const WIDE_STEPS: u64 = 1_000_000;

/// Baseline (every access local) and ASCC (spills, swaps and coherence
/// traffic between the private L2s).
fn wide_policy(cfg: &SystemConfig, ascc: bool) -> Box<dyn LlcPolicy> {
    if ascc {
        Box::new(ascc::AsccConfig::ascc(cfg.cores, cfg.l2.sets(), cfg.l2.ways()).build())
    } else {
        Box::new(cmp_cache::PrivateBaseline::new())
    }
}

/// A `cores`-wide system over the first mix of that width, fed from the
/// trace arena or from live generators.
fn wide_sys(cores: usize, ascc: bool, arena: bool) -> CmpSystem {
    let cfg = small_config(cores);
    let mix = &mixes_for(cores)[0];
    let policy = wide_policy(&cfg, ascc);
    if arena {
        CmpSystem::from_sources(cfg, policy, mix_sources(mix, SEED))
    } else {
        CmpSystem::new(cfg, policy, mix_workloads(mix, SEED))
    }
}

fn assert_wide_loop_matches_reference(arena: bool) {
    for cores in [16, 32] {
        for ascc in [false, true] {
            let what = format!("{cores} cores, ascc={ascc}, arena={arena}");
            let steps = WIDE_STEPS * cores as u64 / 32;
            assert_loop_matches_reference(|| wide_sys(cores, ascc, arena), steps, &what);
        }
    }
}

#[test]
fn step_mode_matches_streaming_at_16_and_32_cores_from_the_arena() {
    assert_wide_loop_matches_reference(true);
}

#[test]
fn step_mode_matches_streaming_at_16_and_32_cores_from_generators() {
    assert_wide_loop_matches_reference(false);
}

/// The loop's pick order itself, not only where it ends up. At a width
/// that is not a power of two the tree's bottom-up layout puts
/// higher-index leaves left of lower ones (at 6 cores, leaves 2–5 sit
/// left of 0–1), and a run starts with every clock tied at zero: a tie
/// settled by tree position instead of core index shows on the first
/// pick, though hardly in the end state. With a hook after every access
/// exactly one clock has moved, naming the core that ran.
#[test]
fn loop_picks_the_reference_order_at_six_cores() {
    const N: u64 = 20_000;
    let mut reference = wide_sys(6, true, true);
    let picks: Vec<usize> = (0..N)
        .map(|_| {
            let i = reference_pick(&reference);
            reference.step(i);
            i
        })
        .collect();
    let mut looped = wide_sys(6, true, true);
    let mut clocks: Vec<f64> = (0..6).map(|i| looped.clock(i)).collect();
    let mut order = Vec::new();
    looped.try_run_batched(1, u64::MAX, 1, |s| {
        let ran = (0..6)
            .find(|&i| s.clock(i) != clocks[i])
            .expect("a core ran");
        clocks[ran] = s.clock(ran);
        order.push(ran);
        (order.len() as u64) < N
    });
    assert!(order == picks, "the event loop's pick order diverged");
    assert!(
        looped.snapshot() == reference.snapshot(),
        "end state diverged"
    );
    assert_loop_matches_reference(|| wide_sys(6, false, true), WIDE_STEPS / 4, "6 cores");
}

/// 32 cores with a hook period coprime to the chunk size, so hooks land
/// at shifting offsets: the hook fires on exact multiples, the hooked run
/// equals the straight one, and a run aborted at its third hook restores
/// and finishes bit-identically.
#[test]
fn step_mode_hooks_and_mid_run_restore_at_32_cores() {
    const EVERY: u64 = 7_001;
    let mut straight = wide_sys(32, true, true);
    let rs = straight.run(WIDE_INSTRS, WIDE_WARMUP);
    let end = straight.snapshot();

    let mut hooked = wide_sys(32, true, true);
    let mut fired = 0u64;
    let rh = hooked
        .try_run_batched(WIDE_INSTRS, WIDE_WARMUP, EVERY, |s| {
            fired += 1;
            assert_eq!(
                s.total_accesses(),
                fired * EVERY,
                "hook #{fired} fired off-cadence"
            );
            true
        })
        .expect("an always-continue hook cannot abort the run");
    assert!(fired >= 10, "run too short for the cadence ({fired} hooks)");
    assert_eq!(rh, rs, "hooked RunResult diverged from the straight run");
    assert!(hooked.snapshot() == end, "hooked end state diverged");

    let mut victim = wide_sys(32, true, true);
    let mut ckpt = None;
    let mut fired = 0u64;
    let aborted = victim.try_run_batched(WIDE_INSTRS, WIDE_WARMUP, EVERY, |s| {
        fired += 1;
        ckpt = Some(s.snapshot());
        fired < 3
    });
    assert!(aborted.is_none(), "the aborting hook must kill the run");
    let mut resumed = wide_sys(32, true, true);
    resumed
        .restore(&ckpt.expect("a checkpoint"))
        .unwrap_or_else(|e| panic!("restore: {e}"));
    let rr = resumed.run(WIDE_INSTRS, WIDE_WARMUP);
    assert_eq!(rr, rs, "RunResult diverged after a mid-run restore");
    assert!(
        resumed.snapshot() == end,
        "end state diverged after restore"
    );
}

/// The loop's prefetches read the chunk up to `PF_DIST` past a core's
/// next access, clamped to the chunk, and a chunk boundary sends the core
/// through `refresh_chunk`. Arena chunks hold 64 Ki accesses, so the runs
/// above cross few boundaries; here every core replays its own
/// `SharedTrace` cut into chunks of `k` accesses, so a boundary falls
/// every access (k = 1), at odd offsets (7, 9: below and just above
/// `PF_DIST`) or every 64 (one store word).
#[test]
fn step_mode_matches_streaming_across_chunk_edges_at_32_cores() {
    use cmp_sim::{core_seed, CORE_SPACE_BITS};
    use cmp_trace::{AccessFeed, CoreSource, SharedTrace};
    let cfg = small_config(32);
    let mix = &mixes_for(32)[0];
    for k in [1, 7, 9, 64] {
        let traces: Vec<_> = mix
            .benches
            .iter()
            .enumerate()
            .map(|(i, &bench)| {
                let (base, seed) = ((i as u64) << CORE_SPACE_BITS, core_seed(SEED, i));
                let trace =
                    SharedTrace::with_chunk_accesses(move || bench.workload(base, seed).stream, k);
                (bench, trace)
            })
            .collect();
        let sources = || {
            traces
                .iter()
                .map(|(bench, trace)| CoreSource {
                    label: bench.name().to_string(),
                    cpu: bench.cpu_model(),
                    feed: AccessFeed::Replay(trace.cursor()),
                })
                .collect()
        };
        for ascc in [false, true] {
            let what = format!("chunks of {k}, ascc={ascc}");
            let sys = || CmpSystem::from_sources(cfg.clone(), wide_policy(&cfg, ascc), sources());
            assert_loop_matches_reference(sys, WIDE_STEPS, &what);
        }
    }
}

// ----- real SIGKILL + ASCC_RESUME=1, end to end through run_mix ----------

const CHILD_INSTRS: u64 = 400_000;
const CHILD_WARMUP: u64 = 50_000;

/// Child-mode entry, re-invoked from this same test binary (a no-op unless
/// `ASCC_BE_CHILD` is set): one `run_mix` under the env-driven
/// checkpointing knobs, its `RunResult` printed for byte comparison.
#[test]
fn sigkill_child_entry() {
    if std::env::var("ASCC_BE_CHILD").is_err() {
        return;
    }
    let cfg = pressured_cfg();
    let mix = &two_app_mixes()[6];
    let policy = all_policies(&cfg).remove(6); // ASCC
    let r = cmp_sim::run_mix(&cfg, mix, policy, CHILD_INSTRS, CHILD_WARMUP, SEED);
    println!("RESULT {r:?}");
}

/// A checkpointed `run_mix` child is SIGKILLed mid-run; rerunning with `ASCC_RESUME=1` restores the
/// on-disk checkpoint and lands on the *byte-identical* result of an
/// uninterrupted run.
#[test]
fn sigkill_mid_batch_resumes_byte_identically() {
    use std::process::{Command, Stdio};
    let exe = std::env::current_exe().expect("test binary path");
    let dir = std::env::temp_dir().join(format!("ascc-batch-kill-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let dirs = dir.display().to_string();
    let child = |envs: &[(&str, &str)]| {
        let mut c = Command::new(&exe);
        c.args(["sigkill_child_entry", "--exact", "--nocapture"])
            .env("ASCC_BE_CHILD", "1")
            .env_remove("ASCC_CKPT_EVERY")
            .env_remove("ASCC_CKPT_DIR")
            .env_remove("ASCC_RESUME");
        for (k, v) in envs {
            c.env(k, v);
        }
        c
    };
    let result_line = |out: &std::process::Output| -> String {
        assert!(
            out.status.success(),
            "child failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        // With --nocapture the harness may glue its "test ... " prefix onto
        // the same line, so locate the marker anywhere in a line.
        let stdout = String::from_utf8_lossy(&out.stdout);
        stdout
            .lines()
            .find_map(|l| l.find("RESULT ").map(|at| l[at..].to_string()))
            .unwrap_or_else(|| {
                panic!(
                    "child printed no RESULT line\nstdout:\n{stdout}\nstderr:\n{}",
                    String::from_utf8_lossy(&out.stderr)
                )
            })
    };

    // 1. The uninterrupted reference (no checkpointing at all).
    let reference = result_line(&child(&[]).output().expect("reference child"));

    // 2. A checkpointed run, SIGKILLed as soon as a checkpoint lands on
    //    disk — i.e. a few thousand accesses into the run.
    let mut victim = child(&[("ASCC_CKPT_EVERY", "5000"), ("ASCC_CKPT_DIR", &dirs)])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("victim child");
    let has_snap = |d: &std::path::Path| {
        std::fs::read_dir(d)
            .ok()
            .into_iter()
            .flatten()
            .flatten()
            .any(|e| e.path().extension().is_some_and(|x| x == "snap"))
    };
    for _ in 0..6000 {
        if has_snap(&dir) || victim.try_wait().expect("victim poll").is_some() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    victim.kill().ok(); // SIGKILL on unix
    victim.wait().expect("victim reaped");
    assert!(
        has_snap(&dir),
        "victim left no checkpoint (finished or died before one landed)"
    );

    // 3. Resume from the on-disk checkpoint; must be byte-identical.
    let resumed_out = child(&[
        ("ASCC_CKPT_EVERY", "5000"),
        ("ASCC_CKPT_DIR", &dirs),
        ("ASCC_RESUME", "1"),
    ])
    .output()
    .expect("resumed child");
    assert!(
        String::from_utf8_lossy(&resumed_out.stderr).contains("[ckpt] resumed"),
        "resumed child did not restore the checkpoint"
    );
    assert_eq!(
        result_line(&resumed_out),
        reference,
        "resumed run diverged from the uninterrupted reference"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
