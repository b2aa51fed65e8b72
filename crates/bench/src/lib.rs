//! Shared harness for the experiment binaries (one per paper table/figure).
//!
//! Everything here is plumbing: the policy zoo ([`Policy`]), scaled run
//! lengths ([`Scale`]), the [`parallel_map`] fan-out over independent
//! simulations (a [`cmp_sim::SweepPool`] honouring `ASCC_JOBS`), the
//! (mix × policy) [`run_grid`] driver, table printing, and JSON result
//! dumps under `results/` that `run_all` collects into EXPERIMENTS.md.
//!
//! The control-plane layers on top:
//!
//! * [`RunConfig`] (in [`config`]) — the typed harness configuration that
//!   subsumes the `ASCC_*` env sprawl (one parse site, one apply site);
//! * [`cli`] — the unified flag grammar every binary parses with;
//! * [`orchestrate`] — the experiment engine extracted from `run_all`
//!   (selection, journaling, retries, timeouts, cancellation);
//! * [`serve`] — the `ascc-serve` daemon application: jobs, journal
//!   tailing, live snapshots and Prometheus `/metrics` over the
//!   `ascc_serve` HTTP substrate.

#![forbid(unsafe_code)]

pub mod cli;
pub mod config;
pub mod orchestrate;
pub mod scaling;
pub mod serve;

pub use config::RunConfig;

use ascc::{ArcConfig, AsccConfig, AvgccConfig, RdcbConfig, TinyLfuConfig};
use cmp_cache::{LlcPolicy, PrivateBaseline};
use cmp_json::Value;
use cmp_sim::{
    fairness_improvement, geomean_improvement, run_mix, weighted_speedup_improvement, RunResult,
    SweepPool, SystemConfig,
};
use cmp_trace::WorkloadMix;
use spill_baselines::{CcPolicy, DipConfig, DsrConfig, DsrDipPolicy, EccConfig};

/// Simulation lengths, overridable via environment:
/// `ASCC_INSTRS` (measured instructions per core), `ASCC_WARMUP`, and
/// `ASCC_QUICK=1` for a fast smoke-test scale.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Measured instructions per core.
    pub instrs: u64,
    /// Warmup instructions per core.
    pub warmup: u64,
    /// Base RNG seed for workloads.
    pub seed: u64,
}

impl Scale {
    /// Reads the scale from the environment (defaults: 12 M measured, 4 M
    /// warmup instructions per core — long enough to cover several passes
    /// of the >1 MB thrashing loops of the capacity-hungry benchmarks).
    pub fn from_env() -> Self {
        let env_u64 = |k: &str| std::env::var(k).ok().and_then(|v| v.parse::<u64>().ok());
        if std::env::var("ASCC_QUICK").is_ok_and(|v| v != "0") {
            return Scale {
                instrs: env_u64("ASCC_INSTRS").unwrap_or(600_000),
                warmup: env_u64("ASCC_WARMUP").unwrap_or(200_000),
                seed: env_u64("ASCC_SEED").unwrap_or(42),
            };
        }
        Scale {
            instrs: env_u64("ASCC_INSTRS").unwrap_or(12_000_000),
            warmup: env_u64("ASCC_WARMUP").unwrap_or(4_000_000),
            seed: env_u64("ASCC_SEED").unwrap_or(42),
        }
    }
}

/// The policy zoo: every design evaluated anywhere in the paper.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Policy {
    /// Private LLCs, no cooperation.
    Baseline,
    /// Cooperative Caching (random spill).
    Cc,
    /// Dynamic Spill-Receive.
    Dsr,
    /// Three-state DSR (Fig. 5).
    Dsr3s,
    /// DSR with DIP insertion.
    DsrDip,
    /// Standalone DIP (no spilling).
    Dip,
    /// Elastic Cooperative Caching.
    Ecc,
    /// The paper's ASCC.
    Ascc,
    /// Two-state ASCC (Fig. 5).
    Ascc2s,
    /// ASCC at a fixed number of counters (Table 1).
    AsccN(u32),
    /// Fig. 4 ablation: local random spilling.
    Lrs,
    /// Fig. 4 ablation: local minimum spilling.
    Lms,
    /// Fig. 4 ablation: global minimum spilling.
    Gms,
    /// Fig. 4 ablation: LMS + plain BIP.
    LmsBip,
    /// Fig. 4 ablation: GMS + SABIP.
    GmsSabip,
    /// The paper's AVGCC.
    Avgcc,
    /// AVGCC with a counter cap (§7).
    AvgccMax(u32),
    /// QoS-aware AVGCC (§8).
    QosAvgcc,
    /// ASCC using the hardware spill-allocator structure (§3.1 ablation).
    AsccAllocator,
    /// ASCC without the §3.2 swap (ablation).
    AsccNoSwap,
    /// Per-set ARC (post-2012 frontier contender).
    Arc,
    /// TinyLFU admission filtering over the private-LRU baseline
    /// (post-2012 frontier contender).
    TinyLfu,
    /// Reuse-distance clean-line copy-back over ASCC (post-2012 frontier
    /// contender).
    RdCb,
}

impl Policy {
    /// The designs compared in the headline figures (7, 8, 9, 10).
    pub const HEADLINE: [Policy; 5] = [
        Policy::Dsr,
        Policy::DsrDip,
        Policy::Ecc,
        Policy::Ascc,
        Policy::Avgcc,
    ];

    /// The full non-baseline zoo: every named design (paper policies plus
    /// the post-2012 frontier contenders), excluding the parameterised
    /// variants and single-figure ablations. The scenario experiments
    /// (`tenant_traffic`, `sharing_degree`) sweep exactly this set against
    /// the private baseline.
    pub const ZOO: [Policy; 13] = [
        Policy::Cc,
        Policy::Dsr,
        Policy::Dsr3s,
        Policy::DsrDip,
        Policy::Dip,
        Policy::Ecc,
        Policy::Ascc,
        Policy::Ascc2s,
        Policy::Avgcc,
        Policy::QosAvgcc,
        Policy::Arc,
        Policy::TinyLfu,
        Policy::RdCb,
    ];

    /// Builds the policy for a system configuration.
    pub fn build(&self, cfg: &SystemConfig) -> Box<dyn LlcPolicy> {
        let (cores, sets, ways) = (cfg.cores, cfg.l2.sets(), cfg.l2.ways());
        match *self {
            Policy::Baseline => Box::new(PrivateBaseline::new()),
            Policy::Cc => Box::new(CcPolicy::new(cores, 0xCC)),
            Policy::Dsr => Box::new(DsrConfig::dsr(cores, sets).build()),
            Policy::Dsr3s => Box::new(DsrConfig::dsr_3s(cores, sets).build()),
            Policy::DsrDip => Box::new(DsrDipPolicy::new(cores, sets)),
            Policy::Dip => Box::new(DipConfig::dip(cores, sets).build()),
            Policy::Ecc => Box::new(EccConfig::ecc(cores, ways).build()),
            Policy::Ascc => Box::new(AsccConfig::ascc(cores, sets, ways).build()),
            Policy::Ascc2s => Box::new(AsccConfig::ascc_2s(cores, sets, ways).build()),
            Policy::AsccN(n) => {
                Box::new(AsccConfig::ascc(cores, sets, ways).with_counters(n).build())
            }
            Policy::Lrs => Box::new(AsccConfig::lrs(cores, sets, ways).build()),
            Policy::Lms => Box::new(AsccConfig::lms(cores, sets, ways).build()),
            Policy::Gms => Box::new(AsccConfig::gms(cores, sets, ways).build()),
            Policy::LmsBip => Box::new(AsccConfig::lms_bip(cores, sets, ways).build()),
            Policy::GmsSabip => Box::new(AsccConfig::gms_sabip(cores, sets, ways).build()),
            Policy::Avgcc => Box::new(AvgccConfig::avgcc(cores, sets, ways).build()),
            Policy::AvgccMax(n) => Box::new(
                AvgccConfig::avgcc(cores, sets, ways)
                    .with_max_counters(n)
                    .build(),
            ),
            Policy::QosAvgcc => Box::new(AvgccConfig::qos_avgcc(cores, sets, ways).build()),
            Policy::AsccAllocator => {
                let mut c = AsccConfig::ascc(cores, sets, ways);
                c.use_spill_allocator = true;
                Box::new(c.build())
            }
            Policy::AsccNoSwap => {
                let mut c = AsccConfig::ascc(cores, sets, ways);
                c.swap = false;
                Box::new(c.build())
            }
            Policy::Arc => Box::new(ArcConfig::new(cores, sets, ways).build()),
            Policy::TinyLfu => Box::new(TinyLfuConfig::for_geometry(cores, sets, ways).build()),
            Policy::RdCb => Box::new(RdcbConfig::new(cores, sets, ways).build()),
        }
    }

    /// Display label.
    pub fn label(&self) -> String {
        match *self {
            Policy::Baseline => "baseline".into(),
            Policy::Cc => "CC".into(),
            Policy::Dsr => "DSR".into(),
            Policy::Dsr3s => "DSR-3S".into(),
            Policy::DsrDip => "DSR+DIP".into(),
            Policy::Dip => "DIP".into(),
            Policy::Ecc => "ECC".into(),
            Policy::Ascc => "ASCC".into(),
            Policy::Ascc2s => "ASCC-2S".into(),
            Policy::AsccN(n) => format!("ASCC{n}"),
            Policy::Lrs => "LRS".into(),
            Policy::Lms => "LMS".into(),
            Policy::Gms => "GMS".into(),
            Policy::LmsBip => "LMS+BIP".into(),
            Policy::GmsSabip => "GMS+SABIP".into(),
            Policy::Avgcc => "AVGCC".into(),
            Policy::AvgccMax(n) => format!("AVGCC-c{n}"),
            Policy::QosAvgcc => "QoS-AVGCC".into(),
            Policy::AsccAllocator => "ASCC-alloc".into(),
            Policy::AsccNoSwap => "ASCC-noswap".into(),
            Policy::Arc => "ARC".into(),
            Policy::TinyLfu => "TinyLFU".into(),
            Policy::RdCb => "RD-CB".into(),
        }
    }
}

/// Runs `f` over `items` on a [`SweepPool`] sized by `ASCC_JOBS` (default:
/// all available cores), preserving submission order.
pub fn parallel_map<T: Send, R: Send>(items: Vec<T>, f: impl Fn(T) -> R + Sync) -> Vec<R> {
    SweepPool::from_env().map(items, f)
}

/// Full results of a (mix × policy) grid.
#[derive(Debug)]
pub struct GridResult {
    /// Mix names, row order.
    pub mixes: Vec<String>,
    /// Policy labels, column order (baseline excluded).
    pub policies: Vec<String>,
    /// Baseline run per mix.
    pub baselines: Vec<RunResult>,
    /// Policy runs: `runs[mix][policy]`.
    pub runs: Vec<Vec<RunResult>>,
}

impl GridResult {
    /// Weighted-speedup improvement table `[mix][policy]`.
    pub fn speedup_improvements(&self) -> Vec<Vec<f64>> {
        self.runs
            .iter()
            .zip(&self.baselines)
            .map(|(row, base)| {
                row.iter()
                    .map(|r| weighted_speedup_improvement(r, base))
                    .collect()
            })
            .collect()
    }

    /// Fairness improvement table `[mix][policy]`.
    pub fn fairness_improvements(&self) -> Vec<Vec<f64>> {
        self.runs
            .iter()
            .zip(&self.baselines)
            .map(|(row, base)| row.iter().map(|r| fairness_improvement(r, base)).collect())
            .collect()
    }

    /// Geomean row for a `[mix][policy]` table.
    pub fn geomeans(table: &[Vec<f64>]) -> Vec<f64> {
        if table.is_empty() {
            return Vec::new();
        }
        (0..table[0].len())
            .map(|p| {
                let col: Vec<f64> = table.iter().map(|row| row[p]).collect();
                geomean_improvement(&col)
            })
            .collect()
    }
}

/// Runs every mix under the baseline plus each policy, in parallel.
pub fn run_grid(
    cfg: &SystemConfig,
    mixes: &[WorkloadMix],
    policies: &[Policy],
    scale: Scale,
) -> GridResult {
    let jobs: Vec<(usize, Option<Policy>)> = (0..mixes.len())
        .flat_map(|m| std::iter::once((m, None)).chain(policies.iter().map(move |&p| (m, Some(p)))))
        .collect();
    let results = parallel_map(jobs, |(m, p)| {
        let policy = p.map_or_else(|| Policy::Baseline.build(cfg), |p| p.build(cfg));
        run_mix(
            cfg,
            &mixes[m],
            policy,
            scale.instrs,
            scale.warmup,
            scale.seed,
        )
    });
    // Unpack in (mix-major) order: baseline then policies.
    let per_mix = policies.len() + 1;
    let mut baselines = Vec::with_capacity(mixes.len());
    let mut runs = Vec::with_capacity(mixes.len());
    let mut it = results.into_iter();
    for _ in 0..mixes.len() {
        baselines.push(it.next().expect("baseline run"));
        runs.push(
            (0..per_mix - 1)
                .map(|_| it.next().expect("policy run"))
                .collect(),
        );
    }
    GridResult {
        mixes: mixes.iter().map(|m| m.name.clone()).collect(),
        policies: policies.iter().map(|p| p.label()).collect(),
        baselines,
        runs,
    }
}

/// One-line summary of the counters a policy exposes through its
/// [`cmp_cache::PolicySnapshot`], omitting fields the policy leaves unset.
pub fn snapshot_summary(s: &cmp_cache::PolicySnapshot) -> String {
    let mut parts = Vec::new();
    if let Some(h) = s.role_totals() {
        parts.push(format!(
            "roles r/n/s={}/{}/{}",
            h.receiver, h.neutral, h.spiller
        ));
    }
    if let Some(x) = s.capacity_activations {
        parts.push(format!("capacity_activations={x}"));
    }
    if let Some(x) = s.granularity_changes {
        parts.push(format!("granularity_changes={x}"));
    }
    if let Some(x) = s.repartitions {
        parts.push(format!("repartitions={x}"));
    }
    if let Some(x) = s.spills_refused {
        parts.push(format!("spills_refused={x}"));
    }
    let modes: Vec<String> = s
        .per_core
        .iter()
        .filter_map(|c| c.follower_mode.map(|m| format!("c{}:{m}", c.core.index())))
        .collect();
    if !modes.is_empty() {
        parts.push(format!("modes[{}]", modes.join(" ")));
    }
    if parts.is_empty() {
        parts.push("(no snapshot fields)".into());
    }
    parts.join(" ")
}

/// Formats a fraction as a signed percentage, e.g. `+7.8%`.
pub fn pct(x: f64) -> String {
    format!("{:+.1}%", x * 100.0)
}

/// Prints a fixed-width table.
pub fn print_table(headers: &[String], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let joined: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths.get(i).copied().unwrap_or(c.len())))
            .collect();
        println!("{}", joined.join("  "));
    };
    line(headers);
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
    );
    for row in rows {
        line(row);
    }
}

/// Prints an improvement table (`[mix][policy]`) with a geomean row, and
/// returns the geomeans.
pub fn print_improvement_table(
    title: &str,
    mixes: &[String],
    policies: &[String],
    table: &[Vec<f64>],
) -> Vec<f64> {
    println!("\n== {title} ==");
    let mut headers = vec!["workload".to_string()];
    headers.extend(policies.iter().cloned());
    let mut rows: Vec<Vec<String>> = Vec::new();
    for (m, name) in mixes.iter().enumerate() {
        let mut row = vec![name.clone()];
        row.extend(table[m].iter().map(|&x| pct(x)));
        rows.push(row);
    }
    let geo = GridResult::geomeans(table);
    let mut grow = vec!["geomean".to_string()];
    grow.extend(geo.iter().map(|&x| pct(x)));
    rows.push(grow);
    print_table(&headers, &rows);
    geo
}

/// Writes `text` to `path` atomically (temp file in the same directory,
/// then rename), creating parent directories as needed.
///
/// Every results artifact — `results/*.json`, `BENCH_throughput.json`,
/// EpochRecorder dumps, the run manifest — goes through here so a kill
/// mid-write can never leave a torn file that poisons later report or
/// compare steps.
pub fn atomic_write_text(path: impl AsRef<std::path::Path>, text: &str) -> std::io::Result<()> {
    cmp_snap::atomic_write(path.as_ref(), text.as_bytes())
}

/// The fault-tolerant orchestration journal behind `run_all`
/// (`results/run_manifest.json`).
///
/// Every per-binary transition (launch, completion, failure, timeout) is
/// recorded and the whole journal republished atomically, so a killed
/// orchestrator leaves an accurate account: `run_all --resume` skips
/// entries marked done and re-runs everything else (an entry still marked
/// running means the previous orchestrator died mid-experiment).
pub mod manifest {
    use crate::atomic_write_text;
    use cmp_json::Value;
    use std::path::{Path, PathBuf};

    /// Journal format version.
    pub const MANIFEST_VERSION: u64 = 1;

    /// Outcome of one experiment binary.
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    pub enum Status {
        /// Launched but not finished — after a crash this marks the
        /// experiment that was in flight.
        Running,
        /// Exited successfully.
        Done,
        /// Exited with a failure status.
        Failed,
        /// Killed after exceeding the per-binary wall-clock timeout.
        TimedOut,
    }

    impl Status {
        /// The journal's string form.
        pub fn as_str(self) -> &'static str {
            match self {
                Status::Running => "running",
                Status::Done => "done",
                Status::Failed => "failed",
                Status::TimedOut => "timeout",
            }
        }

        /// Parses the journal's string form.
        pub fn parse(s: &str) -> Option<Status> {
            match s {
                "running" => Some(Status::Running),
                "done" => Some(Status::Done),
                "failed" => Some(Status::Failed),
                "timeout" => Some(Status::TimedOut),
                _ => None,
            }
        }
    }

    /// One experiment's journal entry.
    #[derive(Clone, Debug)]
    pub struct Entry {
        /// Experiment binary name, e.g. `"fig08_speedup4"`.
        pub name: String,
        /// Latest status.
        pub status: Status,
        /// Attempts launched so far (1-based).
        pub attempts: u64,
        /// Wall-clock seconds of the latest attempt.
        pub seconds: f64,
    }

    /// The journal: per-binary entries in first-seen order, republished
    /// atomically on every [`record`](RunManifest::record).
    #[derive(Debug)]
    pub struct RunManifest {
        path: PathBuf,
        entries: Vec<Entry>,
    }

    impl RunManifest {
        /// Loads the journal at `path`, or starts an empty one if the file
        /// is missing or unparseable (a torn journal is impossible by
        /// construction, but a hand-edited one should not wedge the run).
        pub fn load_or_new(path: &Path) -> RunManifest {
            let entries = std::fs::read_to_string(path)
                .ok()
                .and_then(|text| Value::parse(&text).ok())
                .and_then(|doc| Self::entries_of(&doc))
                .unwrap_or_default();
            RunManifest {
                path: path.to_path_buf(),
                entries,
            }
        }

        fn entries_of(doc: &Value) -> Option<Vec<Entry>> {
            let mut entries = Vec::new();
            for e in doc.get("entries")?.as_array()? {
                entries.push(Entry {
                    name: e.get("name")?.as_str()?.to_string(),
                    status: Status::parse(e.get("status")?.as_str()?)?,
                    attempts: e.get("attempts")?.as_u64()?,
                    seconds: e.get("seconds")?.as_f64()?,
                });
            }
            Some(entries)
        }

        /// The entry for `name`, if any run has been journaled.
        pub fn entry(&self, name: &str) -> Option<&Entry> {
            self.entries.iter().find(|e| e.name == name)
        }

        /// Whether `name` completed successfully in a previous run.
        pub fn is_done(&self, name: &str) -> bool {
            self.entry(name).is_some_and(|e| e.status == Status::Done)
        }

        /// Upserts `name`'s entry and republishes the journal atomically.
        pub fn record(
            &mut self,
            name: &str,
            status: Status,
            attempts: u64,
            seconds: f64,
        ) -> std::io::Result<()> {
            match self.entries.iter_mut().find(|e| e.name == name) {
                Some(e) => {
                    e.status = status;
                    e.attempts = attempts;
                    e.seconds = seconds;
                }
                None => self.entries.push(Entry {
                    name: name.to_string(),
                    status,
                    attempts,
                    seconds,
                }),
            }
            atomic_write_text(&self.path, &self.to_json().pretty())
        }

        /// The journal as a JSON document.
        pub fn to_json(&self) -> Value {
            Value::object()
                .insert("version", MANIFEST_VERSION as f64)
                .insert(
                    "entries",
                    Value::Array(
                        self.entries
                            .iter()
                            .map(|e| {
                                Value::object()
                                    .insert("name", e.name.clone())
                                    .insert("status", e.status.as_str())
                                    .insert("attempts", e.attempts as f64)
                                    .insert("seconds", e.seconds)
                            })
                            .collect(),
                    ),
                )
        }
    }
}

/// A serialisable record of one experiment, written under `results/`.
#[derive(Debug)]
pub struct ExperimentRecord {
    /// Experiment id, e.g. `"fig08"`.
    pub id: String,
    /// Human description.
    pub title: String,
    /// Column labels.
    pub columns: Vec<String>,
    /// Row labels.
    pub rows: Vec<String>,
    /// `values[row][column]`.
    pub values: Vec<Vec<f64>>,
    /// What the paper reports for the headline number(s), for EXPERIMENTS.md.
    pub paper_reference: String,
}

impl ExperimentRecord {
    /// The record as a JSON document.
    pub fn to_json(&self) -> Value {
        Value::object()
            .insert("id", self.id.clone())
            .insert("title", self.title.clone())
            .insert("columns", self.columns.clone())
            .insert("rows", self.rows.clone())
            .insert(
                "values",
                Value::Array(self.values.iter().map(|row| row.clone().into()).collect()),
            )
            .insert("paper_reference", self.paper_reference.clone())
    }

    /// Writes the record to `results/<id>.json` (under the workspace root
    /// or the current directory).
    ///
    /// # Panics
    ///
    /// Panics if the file cannot be written.
    pub fn save(&self) {
        let path = std::path::Path::new("results").join(format!("{}.json", self.id));
        atomic_write_text(&path, &self.to_json().pretty())
            .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        println!("\n[saved {}]", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_order() {
        let out = parallel_map((0..100).collect(), |x: i32| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_empty() {
        let out: Vec<i32> = parallel_map(Vec::<i32>::new(), |x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn policy_labels_and_build() {
        let cfg = SystemConfig::table2(2);
        for p in [
            Policy::Baseline,
            Policy::Cc,
            Policy::Dsr,
            Policy::Dsr3s,
            Policy::DsrDip,
            Policy::Dip,
            Policy::Ecc,
            Policy::Ascc,
            Policy::Ascc2s,
            Policy::AsccN(64),
            Policy::Lrs,
            Policy::Lms,
            Policy::Gms,
            Policy::LmsBip,
            Policy::GmsSabip,
            Policy::Avgcc,
            Policy::AvgccMax(128),
            Policy::QosAvgcc,
            Policy::AsccAllocator,
            Policy::AsccNoSwap,
            Policy::Arc,
            Policy::TinyLfu,
            Policy::RdCb,
        ] {
            let built = p.build(&cfg);
            assert!(!built.name().is_empty(), "{p:?}");
            assert!(!p.label().is_empty());
        }
    }

    #[test]
    fn geomean_rows() {
        let table = vec![vec![0.1, 0.2], vec![0.1, 0.0]];
        let g = GridResult::geomeans(&table);
        assert!((g[0] - 0.1).abs() < 1e-9);
        assert!(g[1] > 0.09 && g[1] < 0.11);
    }

    #[test]
    fn snapshot_summary_renders_present_fields_only() {
        let empty = cmp_cache::PolicySnapshot::new("p");
        assert_eq!(snapshot_summary(&empty), "(no snapshot fields)");
        let mut s = cmp_cache::PolicySnapshot::new("ASCC");
        s.capacity_activations = Some(3);
        let mut c = cmp_cache::CoreSnapshot::new(cmp_cache::CoreId(0));
        c.follower_mode = Some("bip");
        s.per_core.push(c);
        let line = snapshot_summary(&s);
        assert!(line.contains("capacity_activations=3"), "{line}");
        assert!(line.contains("c0:bip"), "{line}");
        assert!(!line.contains("repartitions"), "{line}");
    }

    #[test]
    fn pct_formatting() {
        assert_eq!(pct(0.078), "+7.8%");
        assert_eq!(pct(-0.021), "-2.1%");
    }

    #[test]
    fn atomic_write_replaces_and_creates_dirs() {
        let dir = std::env::temp_dir().join(format!("ascc-bench-aw-{}", std::process::id()));
        let path = dir.join("nested").join("out.json");
        atomic_write_text(&path, "first").unwrap();
        atomic_write_text(&path, "second").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "second");
        // No temp files left behind.
        let litter: Vec<_> = std::fs::read_dir(path.parent().unwrap())
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(litter.len(), 1, "{litter:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn manifest_round_trips_and_tracks_status() {
        use manifest::{RunManifest, Status};
        let dir = std::env::temp_dir().join(format!("ascc-bench-man-{}", std::process::id()));
        let path = dir.join("run_manifest.json");

        // Missing file → empty journal.
        let mut m = RunManifest::load_or_new(&path);
        assert!(m.entry("fig08_speedup4").is_none());
        assert!(!m.is_done("fig08_speedup4"));

        m.record("fig08_speedup4", Status::Running, 1, 0.0).unwrap();
        m.record("fig08_speedup4", Status::TimedOut, 1, 12.5)
            .unwrap();
        m.record("fig08_speedup4", Status::Done, 2, 7.25).unwrap();
        m.record("ablations", Status::Failed, 3, 1.0).unwrap();

        // Reload and check the journal survived the round trip.
        let m2 = RunManifest::load_or_new(&path);
        assert!(m2.is_done("fig08_speedup4"));
        assert!(!m2.is_done("ablations"));
        let e = m2.entry("fig08_speedup4").unwrap();
        assert_eq!((e.status, e.attempts), (Status::Done, 2));
        assert!((e.seconds - 7.25).abs() < 1e-12);
        assert_eq!(m2.entry("ablations").unwrap().status, Status::Failed);

        // Garbage journal → empty, not a crash.
        std::fs::write(&path, "{ not json").unwrap();
        let m3 = RunManifest::load_or_new(&path);
        assert!(m3.entry("fig08_speedup4").is_none());

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn manifest_status_strings_round_trip() {
        use manifest::Status;
        for s in [
            Status::Running,
            Status::Done,
            Status::Failed,
            Status::TimedOut,
        ] {
            assert_eq!(Status::parse(s.as_str()), Some(s));
        }
        assert_eq!(Status::parse("nonsense"), None);
    }
}
