//! First-minimum clock scheduling for the event loop.
//!
//! The loop runs the globally-oldest core next: the first index attaining
//! the minimum clock under `total_cmp`, exactly what a linear `min_by`
//! scan picks. It picks once per access, and after each access only the
//! picked core's clock has moved, so it keeps a [`WinnerTree`] over the
//! clocks: replaying that core's leaf-to-root path costs ⌈log₂ cores⌉
//! comparisons instead of a sweep over every core.
//!
//! On the simulator benchmark (`simbench`, 2-vCPU x86-64 host), the
//! linear sweep took ~39% of the 32-core workload's profile samples; the
//! tree took that workload from ~210 to ~120 ns per simulated access, and
//! left the 2-core one within noise.
//!
//! Bit-identity matters more than speed here: the tree's order is
//! `(clock, core index)`, a total order, so ties go to the first index as
//! in the linear scan. Property tests pin it against that scan.

/// A winner (tournament) tree over the core clocks: the event loop's
/// scheduler. Ordering is by `(clock under total_cmp, core index)`, a
/// total order, so the winner is exactly a linear scan's first minimum
/// however the leaves are grouped.
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
    pub(crate) fn rebuild(&mut self, clocks: impl ExactSizeIterator<Item = f64>) {
        let n = clocks.len();
        assert!(n > 0, "the scheduler needs at least one core");
        self.node.clear();
        self.node.resize(n, 0);
        self.node
            .extend(clocks.enumerate().map(|(k, c)| entry(c, k)));
        for i in (1..n).rev() {
            self.node[i] = self.node[2 * i].min(self.node[2 * i + 1]);
        }
    }

    /// The core to run next: the first index attaining the minimum clock.
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
    use std::cmp::Ordering;

    /// The first-minimum linear scan the tree must reproduce.
    fn scan_argmin(clocks: &[f64]) -> usize {
        let mut i = 0;
        for j in 1..clocks.len() {
            if clocks[j].total_cmp(&clocks[i]) == Ordering::Less {
                i = j;
            }
        }
        i
    }

    #[test]
    fn ties_resolve_to_the_first_index() {
        let mut tree = WinnerTree::default();
        tree.rebuild([3.0, 1.0, 1.0, 2.0].into_iter());
        assert_eq!(tree.winner(), 1);
        assert_eq!(tree.update(1, 1.0), 1);
        assert_eq!(tree.update(1, 1.5), 2);
    }

    #[test]
    fn winner_tree_breaks_ties_to_the_first_index() {
        // With five leaves the bottom-up layout makes leaf 0 the right
        // child of the node over leaves 3 and 4, so a first-index tie
        // cannot be settled by position alone.
        let mut tree = WinnerTree::default();
        tree.rebuild([1.0, 2.0, 3.0, 1.0, 1.0].into_iter());
        assert_eq!(tree.winner(), 0);
        assert_eq!(tree.update(0, 5.0), 3);
        assert_eq!(tree.update(3, 1.5), 4);
        assert_eq!(tree.update(4, 2.0), 3);
        assert_eq!(tree.winner(), 3);
        tree.rebuild([7.0].into_iter());
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
            tree.rebuild(clocks.iter().copied());
            prop_assert_eq!(tree.winner(), scan_argmin(&clocks));
            for (slot, quantized, kind) in ops {
                // Coarse values force plenty of exact ties.
                let value = quantized as f64 * 0.5;
                if kind == 0 {
                    // Move several clocks behind the tree's back, then
                    // rebuild, as the event loop does after a hook.
                    for (j, c) in clocks.iter_mut().enumerate() {
                        if (j + slot) % 3 == 0 {
                            *c = value;
                        }
                    }
                    tree.rebuild(clocks.iter().copied());
                } else {
                    // The event loop only ever moves the winner's clock,
                    // but the tree must hold for any leaf.
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
