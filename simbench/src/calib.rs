//! The host-speed calibration kernel.
//!
//! On a shared host the speed available to one process drifts by tens of
//! percent over minutes (other tenants' load on the same cores and caches),
//! far more than the changes the benchmark must resolve. The timed run
//! therefore measures this fixed kernel between its passes, outside the
//! timed window, and scales its host times to the speed the kernel had on
//! the reference host. The kernel is the benchmark's own code: no change to
//! the program can speed it up or slow it down.
//!
//! It is a set-associative cache simulation in miniature (a 256 KiB
//! tag array probed by a seeded address stream with locality, LRU by
//! rotation), so it leans on the same host resources as the simulator's hot
//! path: branchy integer code over an L2-resident array.

use std::hint::black_box;
use std::time::Instant;

/// The kernel's ns per operation on the reference host (the 2-vCPU
/// Xeon the benchmark's first record was taken on, `record/first.json`).
pub const REFERENCE_NS_PER_OP: f64 = 20.0;

/// Kernel operations per measurement (about 0.1 s on the reference host).
const OPS: u64 = 5_000_000;

const SETS: usize = 4096;
const WAYS: usize = 8;

/// Accumulated kernel timings.
#[derive(Clone, Debug)]
pub struct Calibration {
    tags: Vec<u64>,
    ns: f64,
    ops: u64,
}

impl Default for Calibration {
    fn default() -> Self {
        Calibration {
            tags: vec![u64::MAX; SETS * WAYS],
            ns: 0.0,
            ops: 0,
        }
    }
}

impl Calibration {
    /// Runs the kernel once and adds its time.
    pub fn measure(&mut self) {
        let start = Instant::now();
        black_box(kernel(&mut self.tags, OPS));
        self.ns += start.elapsed().as_nanos() as f64;
        self.ops += OPS;
    }

    /// The kernel's mean ns per operation so far (`None` before the first
    /// measurement).
    pub fn ns_per_op(&self) -> Option<f64> {
        (self.ops > 0).then(|| self.ns / self.ops as f64)
    }

    /// Adds another calibration's timings to these.
    pub fn merge(&mut self, other: &Calibration) {
        self.ns += other.ns;
        self.ops += other.ops;
    }
}

/// `ops` probes of a `SETS`×`WAYS` LRU tag array; returns the hit count.
fn kernel(tags: &mut [u64], ops: u64) -> u64 {
    let mut x: u64 = 0x1234_5678;
    let mut hits = 0;
    for _ in 0..ops {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let r = x >> 33;
        // Seven in eight probes fall in a 16 Ki-line hot region.
        let line = if r & 7 != 0 {
            (r >> 3) & 0x3fff
        } else {
            (r >> 3) & 0xf_ffff
        };
        let set = (line as usize) & (SETS - 1);
        let row = &mut tags[set * WAYS..(set + 1) * WAYS];
        match row.iter().position(|&t| t == line) {
            Some(way) => {
                hits += 1;
                row[..=way].rotate_right(1);
            }
            None => {
                row.rotate_right(1);
                row[0] = line;
            }
        }
    }
    hits
}
