//! # cmp-oracle — the deliberately naive reference model
//!
//! A second, independent implementation of the whole ASCC/AVGCC system,
//! written straight from DESIGN.md §1 and the paper's prose with *zero*
//! code shared with the optimized crates:
//!
//! * caches are `Vec`s of `Option<Line>` with explicit most-recently-used
//!   lists (`Vec<u16>` spliced on every touch) instead of SoA tag slabs and
//!   packed nibble permutations;
//! * SSL counters are plain `Vec<u16>` fixed-point values updated by the
//!   paper's increment/decrement rules; ASCC, AVGCC and QoS-AVGCC are
//!   direct transcriptions of §3–§8;
//! * the MESI bus rebuilds a full line → holders map from scratch on every
//!   broadcast (maximally allocation-happy, no cached state to drift).
//!
//! The only shared dependency is the vendored `rand` crate: the optimized
//! policies consume `SmallRng` draws at specific decision points, and the
//! oracle must consume the *same* draws in the same order for lockstep
//! equality to be meaningful.
//!
//! The differential harness (`ascc-integration`'s `diff` module) runs this
//! model against `cmp_sim::CmpSystem` on generated multi-core access
//! sequences and compares [`SysSnap`] state dumps at every epoch boundary.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

mod cache;
mod policy;
mod snapshot;
mod system;

pub use cache::{OracleCache, OracleFill, OracleLine, OracleMesi, OraclePos, OracleStats};
pub use policy::{
    OracleArc, OracleArcConfig, OracleAscc, OracleAsccConfig, OracleAvgcc, OracleAvgccConfig,
    OracleCapacity, OraclePolicy, OraclePolicyConfig, OracleRdcb, OracleRdcbConfig,
    OracleSelection, OracleSpill, OracleTinyLfu, OracleTinyLfuConfig,
};
pub use snapshot::{diff_snapshots, CacheSnap, CoreSnap, LineSnap, PolicySnap, SetSnap, SysSnap};
pub use system::{OracleConfig, OracleCpu, OracleSystem};
