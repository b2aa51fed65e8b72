//! # spill-baselines — the comparison policies of the ASCC/AVGCC evaluation
//!
//! Implementations of every prior design the paper compares against, all
//! behind the [`cmp_cache::LlcPolicy`] interface:
//!
//! * [`CcPolicy`] — Cooperative Caching (ISCA 2006): indiscriminate random
//!   spilling of last-copy victims, 1-chance forwarding;
//! * [`DsrPolicy`] — Dynamic Spill-Receive (HPCA 2009): per-cache
//!   spiller/receiver roles learned by set duelling, plus the **DSR-3S**
//!   three-state variant the paper constructs for Fig. 5;
//! * [`DipPolicy`] — Dynamic Insertion Policy (ISCA 2007): per-cache
//!   LRU-vs-BIP insertion duelling;
//! * [`DsrDipPolicy`] — the DSR+DIP combination of §6 (spills from DSR,
//!   insertion from DIP, *not* spilling-aware);
//! * [`EccPolicy`] — Elastic Cooperative Caching (ISCA 2010): per-cache
//!   private/shared way partitions with periodic repartitioning.
//!
//! ## Example
//!
//! ```
//! use cmp_cache::{CoreId, LlcPolicy, SetIdx};
//! use spill_baselines::DsrConfig;
//!
//! let dsr = DsrConfig::dsr(/*cores=*/4, /*sets=*/4096).build();
//! // Monitor sets have pinned roles; followers take the PSEL winner.
//! let _ = dsr.role(CoreId(0), SetIdx(0));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

mod cc;
mod dip;
mod dsr;
mod dsr_dip;
mod ecc;

/// Shared snapshot plumbing for the baseline policies' RNG streams.
pub(crate) mod snap_util {
    use cmp_snap::{SnapError, SnapReader, SnapWriter};
    use rand::rngs::SmallRng;

    pub(crate) fn save_rng(w: &mut SnapWriter, rng: &SmallRng) {
        w.put_u64_slice(&rng.state());
    }

    pub(crate) fn load_rng(r: &mut SnapReader<'_>) -> Result<SmallRng, SnapError> {
        let words = r.get_u64_slice()?;
        let s: [u64; 4] = words
            .as_slice()
            .try_into()
            .map_err(|_| SnapError::Corrupt("RNG state is not 4 words".into()))?;
        if s == [0; 4] {
            return Err(SnapError::Corrupt("all-zero RNG state".into()));
        }
        Ok(SmallRng::from_state(s))
    }
}

pub use cc::CcPolicy;
pub use dip::{DipConfig, DipMode, DipPolicy};
pub use dsr::{DsrConfig, DsrPolicy, DsrRole};
pub use dsr_dip::DsrDipPolicy;
pub use ecc::{EccConfig, EccPolicy};
