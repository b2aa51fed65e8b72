//! A counting [`ObsProbe`]: how many events of each kind a run emitted.

use cmp_cache::{ObsEvent, ObsProbe};

/// Event counts of one or more observed runs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CountingProbe {
    /// L2 accesses that hit locally.
    pub local_hits: u64,
    /// Local hits on lines that had been spilled in.
    pub spilled_local_hits: u64,
    /// L2 accesses that missed locally.
    pub misses: u64,
    /// Local misses served by a peer.
    pub remote_hits: u64,
    /// Remote hits on lines that had been spilled into the owner.
    pub spilled_remote_hits: u64,
    /// Local misses served by memory.
    pub mem_fetches: u64,
    /// Lines filled into a cache.
    pub fills: u64,
    /// Valid lines displaced by fills.
    pub evictions: u64,
    /// Dirty lines written back off chip.
    pub writebacks: u64,
    /// Last-copy victims spilled into a peer.
    pub spills: u64,
    /// Spiller sets that found no receiver.
    pub no_candidate: u64,
    /// §3.2 requested/victim swaps.
    pub swaps: u64,
    /// Insertion-mode switches (MRU ↔ BIP/SABIP).
    pub mode_switches: u64,
    /// AVGCC granularity changes.
    pub regranularizations: u64,
    /// QoS throttle-ratio updates.
    pub qos_updates: u64,
}

impl ObsProbe for CountingProbe {
    fn record(&mut self, event: ObsEvent) {
        match event {
            ObsEvent::LocalHit { spilled, .. } => {
                self.local_hits += 1;
                self.spilled_local_hits += u64::from(spilled);
            }
            ObsEvent::Miss { .. } => self.misses += 1,
            ObsEvent::RemoteHit { was_spilled, .. } => {
                self.remote_hits += 1;
                self.spilled_remote_hits += u64::from(was_spilled);
            }
            ObsEvent::MemFetch { .. } => self.mem_fetches += 1,
            ObsEvent::Fill { .. } => self.fills += 1,
            ObsEvent::Eviction { .. } => self.evictions += 1,
            ObsEvent::Writeback { .. } => self.writebacks += 1,
            ObsEvent::Spill { .. } => self.spills += 1,
            ObsEvent::SpillNoCandidate { .. } => self.no_candidate += 1,
            ObsEvent::Swap { .. } => self.swaps += 1,
            ObsEvent::InsertionModeSwitch { .. } => self.mode_switches += 1,
            ObsEvent::Regranularized { .. } => self.regranularizations += 1,
            ObsEvent::QosRatioUpdate { .. } => self.qos_updates += 1,
        }
    }
}

impl CountingProbe {
    /// Every count, by name.
    pub fn fields(&self) -> [(&'static str, u64); 15] {
        [
            ("local_hits", self.local_hits),
            ("spilled_local_hits", self.spilled_local_hits),
            ("misses", self.misses),
            ("remote_hits", self.remote_hits),
            ("spilled_remote_hits", self.spilled_remote_hits),
            ("mem_fetches", self.mem_fetches),
            ("fills", self.fills),
            ("evictions", self.evictions),
            ("writebacks", self.writebacks),
            ("spills", self.spills),
            ("no_candidate", self.no_candidate),
            ("swaps", self.swaps),
            ("mode_switches", self.mode_switches),
            ("regranularizations", self.regranularizations),
            ("qos_updates", self.qos_updates),
        ]
    }

    /// Adds `other`'s counts to these.
    pub fn merge(&mut self, other: &CountingProbe) {
        self.local_hits += other.local_hits;
        self.spilled_local_hits += other.spilled_local_hits;
        self.misses += other.misses;
        self.remote_hits += other.remote_hits;
        self.spilled_remote_hits += other.spilled_remote_hits;
        self.mem_fetches += other.mem_fetches;
        self.fills += other.fills;
        self.evictions += other.evictions;
        self.writebacks += other.writebacks;
        self.spills += other.spills;
        self.no_candidate += other.no_candidate;
        self.swaps += other.swaps;
        self.mode_switches += other.mode_switches;
        self.regranularizations += other.regranularizations;
        self.qos_updates += other.qos_updates;
    }
}
