//! # ascc — Adaptive Set-Granular Cooperative Caching
//!
//! The primary contribution of the HPCA 2012 paper *Adaptive Set-Granular
//! Cooperative Caching* (Rolán, Fraguela, Doallo), implemented against the
//! [`cmp_cache::LlcPolicy`] interface:
//!
//! * [`AsccPolicy`] / [`AsccConfig`] — **ASCC** (§3): per-set Set Saturation
//!   Level counters classify each set as *spiller*, *neutral* or *receiver*;
//!   spiller sets spill last-copy victims to the minimum-SSL receiver set of
//!   a peer cache; when no receiver exists, the set switches to the
//!   **SABIP** insertion policy (`LRU-1` insertion, ε-MRU) to fight capacity
//!   thrashing. All the paper's ablations (LRS, LMS, GMS, LMS+BIP,
//!   GMS+SABIP, ASCC-2S, static granularities) are configurations.
//! * [`AvgccPolicy`] / [`AvgccConfig`] — **AVGCC** (§4): dynamically adapts
//!   the granularity (sets per counter) with the `A`/`B`/`D` hardware
//!   counters, and its **QoS** extension (§8) that throttles the mechanism
//!   when it performs worse than the estimated baseline.
//! * [`SpillAllocator`] — the scalable hardware candidate-tracking structure
//!   sketched in §3.1.
//! * [`StorageModel`] — the Table 5 / §7 storage-cost accounting.
//!
//! Beyond the paper, the post-2012 policy frontier (ROADMAP item 2):
//!
//! * [`ArcPolicy`] / [`ArcConfig`] — per-set **ARC** with T1/T2 membership,
//!   B1/B2 ghost lists and the adaptive target `p`;
//! * [`TinyLfuPolicy`] / [`TinyLfuConfig`] — a **TinyLFU admission filter**
//!   (4-bit count-min sketch + doorkeeper + periodic halving reset)
//!   composable in front of any [`cmp_cache::LlcPolicy`];
//! * [`RdcbPolicy`] / [`RdcbConfig`] — **reuse-distance clean-line
//!   copy-back** layered over ASCC's spill allocator (arXiv 2105.14442).
//!
//! Their variable-size metadata (ghost tags, sketch counters, predictor
//! rows) lives in [`SidecarSlab`] arenas next to the SoA set layout.
//!
//! ## Example
//!
//! ```
//! use ascc::{AsccConfig, SetRole};
//! use cmp_cache::{AccessOutcome, CoreId, LlcPolicy, SetIdx, SpillDecision, SpillVictim};
//!
//! // 2 cores, 64-set 8-way LLCs.
//! let mut policy = AsccConfig::ascc(2, 64, 8).build();
//!
//! // Core 0 hammers set 3 with misses until it saturates...
//! for _ in 0..16 {
//!     policy.record_access(CoreId(0), SetIdx(3), AccessOutcome::Miss);
//! }
//! assert_eq!(policy.role(CoreId(0), SetIdx(3)), SetRole::Spiller);
//!
//! // ...so an evicted last-copy line from that set spills to core 1,
//! // whose same-index set is underutilized.
//! assert_eq!(policy.spill_decision(CoreId(0), SetIdx(3), SpillVictim::default()),
//!            SpillDecision::Spill(CoreId(1)));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

mod arc;
mod avgcc;
mod policy;
mod rdcb;
mod spill_alloc;
mod ssl;
mod storage;
mod tinylfu;
mod tuning;

pub use arc::{ArcConfig, ArcPolicy};
pub use avgcc::{AvgccConfig, AvgccPolicy};
pub use policy::{AsccConfig, AsccPolicy, CapacityPolicy, ReceiverSelection};
pub use rdcb::{RdcbConfig, RdcbPolicy};
pub use spill_alloc::{cluster_of, SpillAllocator, CLUSTER_CORES};
pub use ssl::{SetRole, SslTable};
pub use storage::{SidecarSlab, StorageCost, StorageModel};
pub use tinylfu::{TinyLfuConfig, TinyLfuPolicy};
pub use tuning::{SslTuning, StressMetric};
