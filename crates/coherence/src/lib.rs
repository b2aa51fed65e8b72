//! # cmp-coherence — MESI broadcast coherence for private LLCs
//!
//! The ASCC/AVGCC paper relies on the chip's "MESI-based broadcasting"
//! coherence protocol (Table 2) for three things:
//!
//! 1. finding a requested line in a *peer* private LLC (remote hits, 25
//!    cycles vs 9 local);
//! 2. determining whether an evicted line is the **last copy on chip** — the
//!    precondition for spilling it instead of evicting to memory (§3.1);
//! 3. carrying the spill-candidate (SSL) information alongside the regular
//!    line-search broadcast, making candidate selection traffic-free.
//!
//! This crate implements the snoop-bus side of that picture over
//! [`cmp_cache::SetAssocCache`] instances: [`SnoopBus`] performs read/write
//! miss broadcasts with either *migration* (multiprogrammed private data) or
//! *replication* (multithreaded shared data) semantics, and
//! [`check_mesi`]/[`assert_coherent`] verify the protocol invariants in
//! tests.
//!
//! ## Example
//!
//! ```
//! use cmp_cache::{CacheGeometry, CacheLine, CoreId, FillKind, InsertPos,
//!                 LineAddr, MesiState, SetAssocCache};
//! use cmp_coherence::{ReadPolicy, SnoopBus};
//!
//! # fn main() -> Result<(), cmp_cache::GeometryError> {
//! let geom = CacheGeometry::from_capacity(1 << 14, 4, 32)?;
//! let mut l2s = vec![SetAssocCache::new(geom), SetAssocCache::new(geom)];
//! // Core 1 holds the line; core 0 misses and snoops it out.
//! let line = LineAddr::new(0x80);
//! let set = geom.set_of(line);
//! let way = l2s[1].set(set).default_victim();
//! l2s[1].fill(set, way, CacheLine::demand(line, MesiState::Exclusive),
//!             InsertPos::Mru, FillKind::Demand);
//!
//! let mut bus = SnoopBus::new();
//! let hit = bus.read_miss(&mut l2s, CoreId(0), line, ReadPolicy::Migrate)
//!     .expect("peer holds the line");
//! assert_eq!(hit.from, CoreId(1));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

mod bus;
mod checker;
mod fabric;

pub use bus::{BusStats, ReadPolicy, RemoteHit, SnoopBus};
pub use checker::{
    assert_coherent, check_granularity, check_mesi, check_recency, check_spilled_last_copies,
    check_ssl, ssl_role, InvariantViolation, ProtocolViolation, SslRole,
};
pub use fabric::{CoherenceFabric, DirectoryFabric, Fabric, FabricKind, SharerTable};
