//! Command-line entry point of the simulator benchmark.
//!
//! ```text
//! simbench --workload <mix2|wide32|shared8> [--seed N] [--seconds S] [--trace 0|1]
//! simbench --digest --workload <name> [--seed N]
//! ```
//!
//! `--trace 0` (the default) is the timed run: it prints the end-to-end
//! metrics. `--trace 1` is the traced run: it prints the per-layer metrics
//! and writes its spans and counts to `out/trace-<workload>-seed<N>.json`
//! in the benchmark's directory. `--digest` prints the workload's result
//! digest at the seed (the value `reference.json` records). The last line
//! of standard output is always the result object.

use std::process::ExitCode;

use simbench::measure::{run_timed, size};
use simbench::report::timed_report;
use simbench::span::Spans;
use simbench::traced::run_traced;
use simbench::{pin_environment, Reference, Workload};

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    digest: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut digest) = (42u64, 30.0f64, false, false);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--digest" {
            digest = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?} (expected one of {names:?})")
                })?)
            }
            "--seed" => {
                seed = value
                    .parse()
                    .map_err(|e| format!("--seed {value:?}: {e}"))?
            }
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("--seconds {value:?}: expected seconds >= 0"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value:?}: expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        digest,
    })
}

fn main() -> ExitCode {
    pin_environment();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("simbench: {e}");
            return ExitCode::from(2);
        }
    };
    let plan = args.workload.plan(args.seed, args.workload.scale());
    let reference = Reference::recorded();
    if args.digest {
        println!("{}", size(&plan, &Reference::default()).digest);
        return ExitCode::SUCCESS;
    }
    println!(
        "workload {} seed {} ({} simulations of {} cores, {} + {} instructions per core)",
        plan.workload.name(),
        plan.seed,
        plan.sims.len(),
        plan.cfg.cores,
        plan.scale.warmup,
        plan.scale.instrs
    );
    let report = if args.trace {
        let (report, doc) = run_traced(&plan, &reference, args.seconds);
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!(
            "trace-{}-seed{}.json",
            plan.workload.name(),
            plan.seed
        ));
        if let Err(e) =
            std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, doc.pretty()))
        {
            eprintln!("simbench: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("spans and counts: {}", path.display());
        report
    } else {
        let sizing = size(&plan, &reference);
        let timed = run_timed(
            &plan,
            &sizing,
            args.seconds,
            &mut Spans::default(),
            |_| cmp_cache::NullProbe,
            |_, _, _, _| Ok(()),
        );
        timed_report(&plan, &timed)
    };
    for line in report.lines() {
        println!("{line}");
    }
    println!("{}", report.json());
    ExitCode::SUCCESS
}
