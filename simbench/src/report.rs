//! The benchmark's output: one line per metric, by name with its unit,
//! then the result object as the last line of standard output.

use cmp_json::Value;

use crate::measure::Timed;
use crate::workload::Plan;

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name, as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Its unit.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
    /// Context printed beside the value (sample counts and the like).
    pub note: String,
}

impl Metric {
    /// A metric without a note.
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name,
            unit,
            value,
            note: String::new(),
        }
    }

    /// Adds the note printed beside the value.
    pub fn note(mut self, note: impl Into<String>) -> Metric {
        self.note = note.into();
        self
    }
}

/// A finished run's report.
#[derive(Clone, Debug)]
pub struct Report {
    /// Simulation runs attempted.
    pub attempted: u64,
    /// Runs that panicked or failed a check.
    pub failed: u64,
    /// Why runs failed (the first few).
    pub failures: Vec<String>,
    /// The metrics, in print order.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// The human-readable lines: every metric by name with its unit, then
    /// `runs_failed` of `runs`.
    pub fn lines(&self) -> Vec<String> {
        let mut out: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let note = if m.note.is_empty() {
                    String::new()
                } else {
                    format!("  ({})", m.note)
                };
                format!("{:<32} {:>14.4} {}{note}", m.name, m.value, m.unit)
            })
            .collect();
        out.push(format!(
            "{:<32} {:>14} count  (of runs {})",
            "runs_failed", self.failed, self.attempted
        ));
        out.extend(self.failures.iter().map(|f| format!("failure: {f}")));
        out
    }

    /// The result object printed as the last line of standard output.
    pub fn json(&self) -> Value {
        let metrics = self.metrics.iter().fold(Value::object(), |o, m| {
            o.insert(
                m.name,
                Value::object()
                    .insert("value", m.value)
                    .insert("unit", m.unit),
            )
        });
        Value::object()
            .insert("correct", self.failed == 0)
            .insert("attempted", self.attempted)
            .insert("failed", self.failed)
            .insert("metrics", metrics)
    }
}

/// The timed run's report: the end-to-end metrics. Host ns per access
/// are scaled to the reference host's speed ([`Timed::speed_scale`]); the
/// notes give the raw values.
pub fn timed_report(plan: &Plan, timed: &Timed) -> Report {
    let scale = timed.speed_scale();
    let raw = timed.ns_per_access();
    let raw_p90 = crate::quantile(&timed.epoch_ns, 0.9).unwrap_or(0.0);
    let beyond = timed.epoch_ns.iter().filter(|&&v| v > raw_p90).count();
    let setup = crate::quantile(&timed.setup_s, 0.5).unwrap_or(0.0);
    let metrics = vec![
        Metric::new("ns_per_access", "ns", raw * scale).note(format!(
            "raw {raw:.4} ns x speed scale {scale:.4}; {} accesses in {:.3} s over {} passes",
            timed.accesses,
            timed.sim_wall.as_secs_f64(),
            timed.pass_ns.len()
        )),
        Metric::new("ns_per_access_p90", "ns", raw_p90 * scale).note(format!(
            "raw {raw_p90:.4} ns; {} epochs of {} accesses, {beyond} beyond p90",
            timed.epoch_ns.len(),
            plan.scale.epoch_accesses
        )),
        Metric::new("setup_s", "s", setup)
            .note(format!("median of {} set-ups", timed.setup_s.len())),
        Metric::new("peak_rss_mib", "MiB", crate::peak_rss_mib().unwrap_or(0.0)).note("VmHWM"),
    ];
    Report {
        attempted: timed.runs,
        failed: timed.failed,
        failures: timed.failures.clone(),
        metrics,
    }
}
