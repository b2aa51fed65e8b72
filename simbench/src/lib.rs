//! # simbench — the simulator's benchmark
//!
//! Measures host time per simulated access, set-up time and memory of the
//! CMP simulator on three fixed workloads (see [`Workload`]), checks the
//! simulated results against recorded digests, and — in a separate traced
//! run — attributes the cost to the simulator's layers by replaying each
//! workload's own inputs through each layer's public functions.
//!
//! The benchmark reaches the program only through public entry points:
//! `cmp_trace` sources, `CmpSystem` construction and `try_run_batched`,
//! `snapshot`/`restore`, `fabric().stats()`, `ObsProbe`, `SetAssocCache`,
//! `LlcPolicy` and `SharerTable`.

pub mod calib;
pub mod check;
mod layers;
pub mod measure;
pub mod probe;
pub mod report;
pub mod span;
pub mod traced;
pub mod workload;

pub use check::Reference;
pub use workload::{Scale, Workload};

/// The environment the benchmark pins: every `ASCC_*` knob the simulator's
/// crates read, set to the value the benchmark measures with. Any other
/// inherited `ASCC_*` variable is removed.
pub const PINNED_ENV: [(&str, &str); 10] = [
    ("ASCC_BATCH", "1"),
    ("ASCC_FABRIC", "directory"),
    ("ASCC_TRACE_CACHE", "1"),
    ("ASCC_TRACE_ARENA_MB", "4096"),
    ("ASCC_JOBS", "1"),
    ("ASCC_CKPT_EVERY", "0"),
    ("ASCC_QUICK", "0"),
    ("ASCC_INSTRS", ""),
    ("ASCC_WARMUP", ""),
    ("ASCC_CORES", ""),
];

/// Removes every inherited `ASCC_*` variable and sets the pinned ones, so
/// an exported shell variable cannot change what is measured. Knobs pinned
/// to `""` stay unset (their defaults apply).
///
/// Call before any other thread starts.
pub fn pin_environment() {
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("ASCC_") {
            std::env::remove_var(&key);
        }
    }
    for (key, value) in PINNED_ENV {
        if !value.is_empty() {
            std::env::set_var(key, value);
        }
    }
}

/// The process's resident-set high-water mark (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The `q`-quantile of `values` (linear interpolation between order
/// statistics); `None` when empty.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let last = v.len().checked_sub(1)?;
    let pos = q.clamp(0.0, 1.0) * last as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}
