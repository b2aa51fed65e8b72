//! Correctness checks on simulated results: the result digest, the
//! recorded reference digests, and structural invariants.

use cmp_cache::ObsProbe;
use cmp_json::Value;
use cmp_sim::{CmpSystem, RunResult};

use crate::workload::Workload;

/// FNV-1a, 64-bit: a stable digest of simulated results.
#[derive(Clone, Copy, Debug)]
struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds bytes into the digest.
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Folds a number into the digest.
    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Folds a string (length-prefixed) into the digest.
    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    /// The digest as 16 hex digits.
    fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Digest of one simulation: its measured-window [`RunResult`] plus the
/// coherence fabric's snoop, transfer, invalidation and probe counts.
pub(crate) fn sim_digest<P: ObsProbe>(sys: &CmpSystem<P>, result: &RunResult) -> String {
    let mut h = Fnv::default();
    h.str(&result.policy);
    for c in &result.cores {
        h.str(&c.label);
        for v in [
            c.instrs,
            c.cycles.to_bits(),
            c.l2_accesses,
            c.l2_local_hits,
            c.l2_remote_hits,
            c.l2_mem,
            c.offchip_fetches,
            c.writebacks,
            c.l1_accesses,
            c.l1_hits,
        ] {
            h.u64(v);
        }
    }
    let bus = sys.fabric().stats();
    for v in [
        result.spills,
        result.swaps,
        result.spill_hits,
        bus.snoops,
        bus.transfers,
        bus.invalidations,
        bus.probes,
    ] {
        h.u64(v);
    }
    h.hex()
}

/// Digest of a whole workload: its simulations' digests, in run order.
pub(crate) fn workload_digest(sim_digests: &[String]) -> String {
    let mut h = Fnv::default();
    for d in sim_digests {
        h.str(d);
    }
    h.hex()
}

/// Checks the structural invariants of a finished simulation: L1 ⊆ L2
/// inclusion, and for every core (over its whole lifetime)
/// `l2_local_hits + l2_remote_hits + l2_mem == l2_accesses` and
/// `l1_hits <= l1_accesses`.
pub(crate) fn check_invariants<P: ObsProbe>(sys: &CmpSystem<P>) -> Result<(), String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sys.assert_inclusive()))
        .map_err(|_| "L1 ⊆ L2 inclusion violated".to_string())?;
    for (i, c) in sys.lifetime_result().cores.iter().enumerate() {
        if c.l2_local_hits + c.l2_remote_hits + c.l2_mem != c.l2_accesses {
            return Err(format!(
                "core {i}: local {} + remote {} + mem {} != l2 accesses {}",
                c.l2_local_hits, c.l2_remote_hits, c.l2_mem, c.l2_accesses
            ));
        }
        if c.l1_hits > c.l1_accesses {
            return Err(format!(
                "core {i}: l1 hits {} > l1 accesses {}",
                c.l1_hits, c.l1_accesses
            ));
        }
    }
    Ok(())
}

/// Recorded workload digests, keyed by workload and seed.
#[derive(Clone, Debug, Default)]
pub struct Reference {
    entries: Vec<(String, u64, String)>,
}

impl Reference {
    /// The reference recorded in the benchmark's `reference.json`.
    pub fn recorded() -> Reference {
        let text = include_str!("../reference.json");
        let doc = Value::parse(text).expect("reference.json is valid JSON");
        let mut reference = Reference::default();
        let digests = doc.get("digests").and_then(Value::entries).unwrap_or(&[]);
        for (workload, seeds) in digests {
            for (seed, digest) in seeds.entries().unwrap_or(&[]) {
                let seed = seed.parse().expect("reference seeds are integers");
                let digest = digest.as_str().expect("reference digests are strings");
                reference.set(workload, seed, digest);
            }
        }
        reference
    }

    /// Records `digest` for `workload` at `seed`, replacing any earlier one.
    pub fn set(&mut self, workload: &str, seed: u64, digest: &str) {
        self.entries
            .retain(|(w, s, _)| !(w == workload && *s == seed));
        self.entries
            .push((workload.to_string(), seed, digest.to_string()));
    }

    /// The recorded digest of `workload` at `seed`, if any.
    pub fn get(&self, workload: Workload, seed: u64) -> Option<&str> {
        self.entries
            .iter()
            .find(|(w, s, _)| w == workload.name() && *s == seed)
            .map(|(_, _, d)| d.as_str())
    }
}
