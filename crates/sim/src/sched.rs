//! First-minimum clock scheduling for the batched event loop.
//!
//! The streaming loop re-runs `min_by(total_cmp)` over every core clock
//! for each access. The batched loop makes the same pick in one of two
//! ways, matching its two modes:
//!
//! - **Drain mode** needs the pick plus the *horizon* (minimum clock of
//!   the other cores) and its first owner, once per drain. Scanning
//!   `CoreState.clock` directly would touch one large, scattered core
//!   struct per core per drain, so the loop mirrors the clocks into a
//!   compact contiguous array and calls [`argmin_and_horizon`]: one fused
//!   pass that yields all three values from a few cache lines.
//! - **Step mode** runs once drains have degenerated to a few accesses
//!   (always at 16+ cores, often at 2 when both cores miss), so it picks
//!   once per access and needs no horizon. It keeps a [`WinnerTree`] over
//!   the clocks, rebuilt when a step run starts: after each access only
//!   the picked core's clock moves, and replaying its leaf-to-root path
//!   costs ⌈log₂ cores⌉ comparisons instead of a sweep over every core.
//!
//! On the simulator benchmark (`simbench`, 2-vCPU x86-64 host), the
//! linear `argmin` sweep step mode used before took ~39% of the 32-core
//! workload's profile samples; the tree took that workload from ~210 to
//! ~120 ns per simulated access, and left the 2-core one within noise.
//! Drain mode keeps the fused linear pass: routing its picks through the
//! tree as well (runner-up from the winner's path) measured ~5% slower at
//! 2 cores and ~4% faster at 8.
//!
//! Bit-identity matters more than speed here: both structures reproduce
//! the first-minimum semantics of the streaming scan — `min_by` keeps the
//! *first* of tied elements, and the horizon owner is the first peer
//! attaining the horizon. Property tests pin them against the verbatim
//! linear scans.

use std::cmp::Ordering;

/// One fused pass over the clock array, returning `(argmin, horizon,
/// horizon_owner)`:
///
/// - `argmin` — the core the streaming `min_by` would schedule (first
///   index attaining the minimum clock);
/// - `horizon` — the minimum clock over the *other* cores, i.e. the
///   point the drained core's clock must not pass;
/// - `horizon_owner` — the first core attaining the horizon, which
///   settles clock ties: the drained core keeps the schedule on an exact
///   tie only while its index is smaller.
///
/// With a single core the horizon is `+∞` and the owner `usize::MAX`,
/// matching a linear scan over an empty peer set.
#[inline]
pub(crate) fn argmin_and_horizon(clocks: &[f64]) -> (usize, f64, usize) {
    let mut best = f64::INFINITY;
    let mut bi = usize::MAX;
    let mut second = f64::INFINITY;
    let mut si = usize::MAX;
    for (j, &c) in clocks.iter().enumerate() {
        if c.total_cmp(&best) == Ordering::Less {
            second = best;
            si = bi;
            best = c;
            bi = j;
        } else if c.total_cmp(&second) == Ordering::Less {
            // Ties with `best` land here: the first occurrence keeps the
            // schedule, the second becomes the horizon owner.
            second = c;
            si = j;
        }
    }
    (bi, second, si)
}

/// A winner (tournament) tree over the core clocks: the step-mode
/// scheduler. Ordering is by `(clock under total_cmp, core index)`, a
/// total order, so the winner is exactly the streaming scan's first
/// minimum however the leaves are grouped.
///
/// The layout is the implicit bottom-up one: leaf `k` sits at node
/// `n + k`, internal node `i` (for `1 <= i < n`) holds the lesser of
/// nodes `2i` and `2i + 1`, and node 1 is the root. It needs no padding
/// for a core count that is not a power of two.
#[derive(Debug, Default)]
pub(crate) struct WinnerTree {
    /// One [`entry`] per node; index 0 is unused.
    node: Vec<u128>,
}

/// Packs `(clock, core)` into one integer whose unsigned order is the
/// first-minimum order: the high word is the clock's `total_cmp` key
/// (the bit transform [`f64::total_cmp`] applies, shifted to unsigned),
/// the low word the core index. A node comparison is then one
/// branch-free integer `min`.
#[inline]
fn entry(clock: f64, core: usize) -> u128 {
    let bits = clock.to_bits();
    // Negative values flip every bit; non-negative ones only the sign.
    let key = bits ^ (((bits as i64 >> 63) as u64) | (1 << 63));
    (u128::from(key) << 64) | core as u128
}

impl WinnerTree {
    /// Rebuilds the tree over `clocks` (at least one core).
    pub(crate) fn rebuild(&mut self, clocks: &[f64]) {
        let n = clocks.len();
        assert!(n > 0, "the scheduler needs at least one core");
        self.node.clear();
        self.node.resize(n, 0);
        self.node
            .extend(clocks.iter().enumerate().map(|(k, &c)| entry(c, k)));
        for i in (1..n).rev() {
            self.node[i] = self.node[2 * i].min(self.node[2 * i + 1]);
        }
    }

    /// The core the streaming `min_by` would schedule: the first index
    /// attaining the minimum clock.
    #[inline]
    pub(crate) fn winner(&self) -> usize {
        self.node[1] as u64 as usize
    }

    /// Sets `core`'s clock, replays its leaf-to-root path and returns
    /// the new [`winner`](WinnerTree::winner).
    #[inline]
    pub(crate) fn update(&mut self, core: usize, clock: f64) -> usize {
        let mut i = self.node.len() / 2 + core;
        let mut w = entry(clock, core);
        self.node[i] = w;
        // The first match takes the new entry from a register, sparing the
        // pick a store-to-load round trip (the whole tree at two cores).
        if i > 1 {
            w = w.min(self.node[i ^ 1]);
            i >>= 1;
            self.node[i] = w;
        }
        // Higher matches load both children: with a register-carried
        // winner the compiler turns the `min` into a data-dependent branch,
        // which mispredicts at every level once the winner changes each
        // access (32 cores); from memory it stays a conditional move.
        while i > 1 {
            w = self.node[i & !1].min(self.node[i | 1]);
            i >>= 1;
            self.node[i] = w;
        }
        w as u64 as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The streaming loop's scheduling scan, verbatim.
    fn scan_argmin(clocks: &[f64]) -> usize {
        let mut i = 0;
        for j in 1..clocks.len() {
            if clocks[j].total_cmp(&clocks[i]) == Ordering::Less {
                i = j;
            }
        }
        i
    }

    /// The pre-fusion horizon scan, verbatim.
    fn scan_excluding(clocks: &[f64], i: usize) -> (f64, usize) {
        let mut horizon = f64::INFINITY;
        let mut jfirst = usize::MAX;
        for (j, &c) in clocks.iter().enumerate() {
            if j != i && c.total_cmp(&horizon) == Ordering::Less {
                horizon = c;
                jfirst = j;
            }
        }
        (horizon, jfirst)
    }

    #[test]
    fn single_core_has_infinite_horizon() {
        let (i, h, j) = argmin_and_horizon(&[7.5]);
        assert_eq!(i, 0);
        assert_eq!(h, f64::INFINITY);
        assert_eq!(j, usize::MAX);
    }

    #[test]
    fn ties_resolve_to_the_first_index() {
        let (i, h, j) = argmin_and_horizon(&[3.0, 1.0, 1.0, 2.0]);
        assert_eq!(i, 1);
        assert_eq!((h, j), (1.0, 2));
    }

    #[test]
    fn winner_tree_breaks_ties_to_the_first_index() {
        // With five leaves the bottom-up layout makes leaf 0 the right
        // child of the node over leaves 3 and 4, so a first-index tie
        // cannot be settled by position alone.
        let mut tree = WinnerTree::default();
        tree.rebuild(&[1.0, 2.0, 3.0, 1.0, 1.0]);
        assert_eq!(tree.winner(), 0);
        assert_eq!(tree.update(0, 5.0), 3);
        assert_eq!(tree.update(3, 1.5), 4);
        assert_eq!(tree.update(4, 2.0), 3);
        assert_eq!(tree.winner(), 3);
        tree.rebuild(&[7.0]);
        assert_eq!(tree.winner(), 0);
        assert_eq!(tree.update(0, 9.0), 0);
    }

    #[test]
    fn entry_order_is_total_cmp_order_on_special_values() {
        let specials = [
            f64::NEG_INFINITY,
            -1.5,
            -f64::MIN_POSITIVE,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            1.0,
            1.5,
            f64::INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        for a in specials {
            for b in specials {
                assert_eq!(entry(a, 0).cmp(&entry(b, 0)), a.total_cmp(&b), "{a} vs {b}");
            }
        }
    }

    proptest! {
        /// The fused pass and the linear scans agree through a random
        /// update sequence — including repeated clock values, the tie
        /// case the first-minimum rule exists for.
        #[test]
        fn fused_pass_matches_linear_scans(
            n in 1usize..67,
            updates in prop::collection::vec((0usize..67, 0u32..12), 0..200),
        ) {
            let mut clocks: Vec<f64> = (0..n).map(|i| (i % 5) as f64).collect();
            for (slot, quantized) in updates {
                // Coarse values force plenty of exact ties.
                clocks[slot % n] += quantized as f64 * 0.5;
                let (bi, horizon, si) = argmin_and_horizon(&clocks);
                prop_assert_eq!(bi, scan_argmin(&clocks));
                prop_assert_eq!((horizon, si), scan_excluding(&clocks, bi));
            }
        }

        /// The winner tree picks what the linear scan picks through a
        /// random sequence of single-leaf updates and full rebuilds, for
        /// every core count up to 64 — powers of two or not.
        #[test]
        fn winner_tree_matches_linear_scan(
            n in 1usize..=64,
            ops in prop::collection::vec((0usize..64, 0u32..12, 0u8..16), 0..300),
        ) {
            let mut clocks: Vec<f64> = (0..n).map(|i| (i % 3) as f64).collect();
            let mut tree = WinnerTree::default();
            tree.rebuild(&clocks);
            prop_assert_eq!(tree.winner(), scan_argmin(&clocks));
            for (slot, quantized, kind) in ops {
                // Coarse values force plenty of exact ties.
                let value = quantized as f64 * 0.5;
                if kind == 0 {
                    // Move several clocks behind the tree's back, then
                    // rebuild, as a step run does after drain mode.
                    for (j, c) in clocks.iter_mut().enumerate() {
                        if (j + slot) % 3 == 0 {
                            *c = value;
                        }
                    }
                    tree.rebuild(&clocks);
                } else {
                    // Step mode only ever moves the winner's clock, but
                    // the tree must hold for any leaf.
                    let k = if kind % 2 == 0 { tree.winner() } else { slot % n };
                    clocks[k] = if kind < 8 { clocks[k] + value } else { value };
                    let next = tree.update(k, clocks[k]);
                    prop_assert_eq!(next, tree.winner());
                }
                prop_assert_eq!(tree.winner(), scan_argmin(&clocks));
            }
        }

        /// The packed key orders arbitrary bit patterns as `total_cmp`
        /// does, with the core index breaking exact ties.
        #[test]
        fn entry_order_is_total_cmp_order(
            a in 0u64..u64::MAX,
            b in 0u64..u64::MAX,
            same in 0u8..4,
        ) {
            let (x, y) = (f64::from_bits(a), f64::from_bits(if same == 0 { a } else { b }));
            prop_assert_eq!(
                entry(x, 1).cmp(&entry(y, 2)),
                x.total_cmp(&y).then(Ordering::Less)
            );
        }
    }
}
