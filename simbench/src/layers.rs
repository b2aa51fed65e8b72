//! Layer replays: each layer's self time, estimated by feeding a workload's
//! own inputs through that layer's public functions alone.
//!
//! Every replay walks the cores round-robin, one access (or one L2
//! request) per core per round, so the host-cache footprint of the per-core
//! structures resembles the full run's. Derived streams (the L1-miss stream,
//! the L2 outcome log) are built in an untimed pass first, so each timed
//! pass holds only the layer's own work.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use cmp_cache::{
    AccessOutcome, Addr, CacheGeometry, CacheLine, CoreId, FillKind, InsertPos, LineAddr,
    LlcPolicy, MesiState, SetAssocCache, SetIdx, SpillVictim,
};
use cmp_coherence::SharerTable;
use cmp_trace::{AccessStream, SharedTrace};

/// Time spent on a number of operations.
#[derive(Clone, Copy, Debug, Default)]
pub struct Timing {
    /// Total host time, ns.
    pub ns: f64,
    /// Operations performed.
    pub ops: u64,
}

impl Timing {
    /// Host ns per operation (0 when nothing ran).
    pub fn per_op(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.ns / self.ops as f64
        }
    }

    /// Adds `other` to this timing.
    pub fn add(&mut self, other: Timing) {
        self.ns += other.ns;
        self.ops += other.ops;
    }

    fn since(start: Instant, ops: u64) -> Timing {
        Timing {
            ns: start.elapsed().as_nanos() as f64,
            ops,
        }
    }
}

/// Per-core replay lengths: each core's access count from the run, scaled
/// down proportionally so they sum to at most `cap`.
pub fn replay_counts(run_counts: &[u64], cap: u64) -> Vec<u64> {
    let total: u64 = run_counts.iter().sum();
    if total <= cap {
        return run_counts.to_vec();
    }
    run_counts
        .iter()
        .map(|&n| (n as u128 * cap as u128 / total as u128) as u64)
        .collect()
}

/// Calls `f(core, index)` round-robin: index 0 of every core, then index 1
/// of every core still running, and so on.
fn round_robin(lens: &[usize], mut f: impl FnMut(usize, usize)) {
    let rounds = lens.iter().copied().max().unwrap_or(0);
    for i in 0..rounds {
        for (core, &len) in lens.iter().enumerate() {
            if i < len {
                f(core, i);
            }
        }
    }
}

fn lens(counts: &[u64]) -> Vec<usize> {
    counts.iter().map(|&n| n as usize).collect()
}

/// Packs an access as `byte address << 1 | is_store`.
fn pack(addr: Addr, store: bool) -> u64 {
    addr.raw() << 1 | u64::from(store)
}

/// Warm replay from materialized traces: `counts[c]` accesses of core `c`
/// through a fresh cursor. Every chunk is materialized before the clock
/// starts.
pub fn replay(traces: &[Arc<SharedTrace>], counts: &[u64]) -> Timing {
    for (t, &n) in traces.iter().zip(counts) {
        for idx in 0..=(n as usize / t.chunk_accesses()) {
            t.chunk(idx).expect("replay traces are uncapped");
        }
    }
    let mut cursors: Vec<_> = traces.iter().map(|t| t.cursor()).collect();
    let mut sink = 0u64;
    let start = Instant::now();
    round_robin(&lens(counts), |core, _| {
        sink ^= cursors[core].next_access().addr.raw();
    });
    black_box(sink);
    Timing::since(start, counts.iter().sum())
}

/// Live generation: `counts[c]` accesses of core `c` from a fresh
/// generator.
pub fn generate(mut gens: Vec<Box<dyn AccessStream>>, counts: &[u64]) -> Timing {
    let mut sink = 0u64;
    let start = Instant::now();
    round_robin(&lens(counts), |core, _| {
        sink ^= gens[core].next_access().addr.raw();
    });
    black_box(sink);
    Timing::since(start, counts.iter().sum())
}

/// Each core's first `counts[c]` accesses, packed (untimed).
pub fn collect(traces: &[Arc<SharedTrace>], counts: &[u64]) -> Vec<Vec<u64>> {
    traces
        .iter()
        .zip(counts)
        .map(|(t, &n)| {
            let mut cursor = t.cursor();
            (0..n)
                .map(|_| {
                    let a = cursor.next_access();
                    pack(a.addr, a.kind.is_store())
                })
                .collect()
        })
        .collect()
}

/// One L1 access of the replay; on a miss the line is filled at MRU over
/// the LRU way. Returns whether it hit.
#[inline]
fn l1_access(l1: &mut SetAssocCache, geo: CacheGeometry, line: LineAddr) -> bool {
    if l1.access(line).is_some() {
        return true;
    }
    let set = geo.set_of(line);
    let way = l1.set(set).default_victim();
    l1.fill(
        set,
        way,
        CacheLine::demand(line, MesiState::Exclusive),
        InsertPos::Mru,
        FillKind::Demand,
    );
    false
}

/// The L2 request stream each core's L1 sends (untimed): the refill of
/// every L1 miss and the write-through of every store, packed as
/// `line << 1 | is_store`.
pub fn l1_requests(l1_geo: CacheGeometry, streams: &[Vec<u64>]) -> Vec<Vec<u64>> {
    let bits = l1_geo.offset_bits();
    let mut l1s: Vec<_> = streams.iter().map(|_| SetAssocCache::new(l1_geo)).collect();
    let mut out: Vec<Vec<u64>> = streams.iter().map(|_| Vec::new()).collect();
    let lens: Vec<usize> = streams.iter().map(Vec::len).collect();
    round_robin(&lens, |core, i| {
        let packed = streams[core][i];
        let store = packed & 1 == 1;
        let line = Addr::new(packed >> 1).line(bits);
        if !l1_access(&mut l1s[core], l1_geo, line) {
            out[core].push(line.raw() << 1);
        }
        if store {
            out[core].push(line.raw() << 1 | 1);
        }
    });
    out
}

/// The L1 probe: every access into a standalone L1 per core.
pub fn l1_probe(l1_geo: CacheGeometry, streams: &[Vec<u64>]) -> Timing {
    let bits = l1_geo.offset_bits();
    let mut l1s: Vec<_> = streams.iter().map(|_| SetAssocCache::new(l1_geo)).collect();
    let lens: Vec<usize> = streams.iter().map(Vec::len).collect();
    let mut hits = 0u64;
    let start = Instant::now();
    round_robin(&lens, |core, i| {
        let line = Addr::new(streams[core][i] >> 1).line(bits);
        hits += u64::from(l1_access(&mut l1s[core], l1_geo, line));
    });
    black_box(hits);
    Timing::since(start, lens.iter().sum::<usize>() as u64)
}

/// One L2 request of the replay, as the L2 saw it.
#[derive(Clone, Copy, Debug)]
pub struct L2Op {
    /// Requesting core.
    pub core: CoreId,
    /// Requested line.
    pub line: LineAddr,
    /// Its set.
    pub set: SetIdx,
    /// Whether the line was resident.
    pub hit: bool,
    /// The line a miss fill displaced, if any.
    pub evicted: Option<LineAddr>,
}

/// One L2 request into a standalone L2: on a miss the line is filled at
/// MRU over the LRU way. Returns whether it hit and what the fill evicted.
#[inline]
fn l2_access(
    l2: &mut SetAssocCache,
    geo: CacheGeometry,
    line: LineAddr,
) -> (bool, Option<LineAddr>) {
    if l2.access(line).is_some() {
        return (true, None);
    }
    let set = geo.set_of(line);
    let way = l2.set(set).default_victim();
    let evicted = l2.fill(
        set,
        way,
        CacheLine::demand(line, MesiState::Exclusive),
        InsertPos::Mru,
        FillKind::Demand,
    );
    (false, evicted.map(|l| l.addr))
}

/// The L2 outcome log of the request streams, round-robin over cores
/// (untimed).
pub fn l2_log(l2_geo: CacheGeometry, requests: &[Vec<u64>]) -> Vec<L2Op> {
    let mut l2s: Vec<_> = requests
        .iter()
        .map(|_| SetAssocCache::new(l2_geo))
        .collect();
    let lens: Vec<usize> = requests.iter().map(Vec::len).collect();
    let mut log = Vec::with_capacity(lens.iter().sum());
    round_robin(&lens, |core, i| {
        let line = LineAddr::new(requests[core][i] >> 1);
        let (hit, evicted) = l2_access(&mut l2s[core], l2_geo, line);
        log.push(L2Op {
            core: CoreId(core as u8),
            line,
            set: l2_geo.set_of(line),
            hit,
            evicted,
        });
    });
    log
}

/// The L2 probe: every request into a standalone L2 per core.
pub fn l2_probe(l2_geo: CacheGeometry, requests: &[Vec<u64>]) -> Timing {
    let mut l2s: Vec<_> = requests
        .iter()
        .map(|_| SetAssocCache::new(l2_geo))
        .collect();
    let lens: Vec<usize> = requests.iter().map(Vec::len).collect();
    let mut hits = 0u64;
    let start = Instant::now();
    round_robin(&lens, |core, i| {
        let line = LineAddr::new(requests[core][i] >> 1);
        hits += u64::from(l2_access(&mut l2s[core], l2_geo, line).0);
    });
    black_box(hits);
    Timing::since(start, lens.iter().sum::<usize>() as u64)
}

/// The policy hooks: `record_access` for every L2 outcome and
/// `spill_decision` for every eviction, timed per L2 request.
pub fn policy_hooks(mut policy: Box<dyn LlcPolicy>, log: &[L2Op]) -> Timing {
    let start = Instant::now();
    for op in log {
        let outcome = if op.hit {
            AccessOutcome::Hit {
                spilled: false,
                depth: 0,
            }
        } else {
            AccessOutcome::Miss
        };
        policy.record_access(op.core, op.set, outcome);
        if let Some(victim) = op.evicted {
            black_box(policy.spill_decision(op.core, op.set, SpillVictim::clean(victim)));
        }
    }
    Timing::since(start, log.len() as u64)
}

/// The directory's sharer table: a lookup and an insert for every L2 miss
/// and a remove for every eviction, timed per table operation.
pub fn sharer_ops(lines_hint: usize, log: &[L2Op]) -> Timing {
    let mut table = SharerTable::with_capacity(lines_hint);
    let mut ops = 0u64;
    let mut sink = 0u64;
    let start = Instant::now();
    for op in log {
        if !op.hit {
            sink ^= table.get(op.line);
            table.insert(op.line, op.core);
            ops += 2;
        }
        if let Some(victim) = op.evicted {
            table.remove(victim, op.core);
            ops += 1;
        }
    }
    black_box(sink);
    Timing::since(start, ops)
}
