//! Zipf-distributed rank sampling.
//!
//! Skewed reuse is what gives real applications their smooth
//! "more-ways-help-a-bit" miss curves (Fig. 1's lower row) and their uneven
//! per-set pressure (Fig. 2). We sample ranks from a Zipf distribution with
//! a precomputed inverse-CDF table — exact and easy to verify, which
//! matters more here than constant-time sampling.
//!
//! A guide table (Chen & Asau's cutpoint method) with one bucket per
//! `1/M` of probability narrows each inverse-CDF search to the ranks whose
//! CDF entries fall in the draw's bucket. Every bucket holds the same
//! probability, so a sample costs a table lookup plus a binary search over
//! the few ranks sharing its bucket, rather than O(log n) over the whole
//! CDF; the answer is the full search's, bit for bit.
//!
//! Tables are a pure function of `(n, alpha)`, so every sampler built
//! from the same pair shares one, interned process-wide while any holder
//! lives.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock, Weak};

use rand::rngs::SmallRng;
use rand::Rng;

/// Zipf sampler over ranks `0..n` where rank `k` has probability
/// proportional to `1 / (k+1)^alpha`.
#[derive(Clone, Debug)]
pub struct Zipf {
    table: Arc<Table>,
}

/// The immutable sampling tables of one `(n, alpha)` pair.
#[derive(Debug)]
struct Table {
    /// `cdf[k]` = P(rank ≤ k); the last entry is exactly 1.
    cdf: Vec<f64>,
    /// `M + 1` entries for `M = n.next_power_of_two()` buckets: `guide[j]`
    /// is the first rank whose CDF is ≥ j/M.
    guide: Vec<u32>,
    /// `M` as a float, the bucket scale.
    buckets: f64,
}

impl Table {
    fn build(n: usize, alpha: f64) -> Table {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for k in 0..n {
            acc += 1.0 / ((k + 1) as f64).powf(alpha);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        // Guard against floating error at the top end.
        *cdf.last_mut().expect("n > 0") = 1.0;
        let m = n.next_power_of_two();
        let mut guide = Vec::with_capacity(m + 1);
        let mut k = 0;
        for j in 0..=m {
            // j/M is exact: M is a power of two.
            let cut = j as f64 / m as f64;
            // Ends by k = n - 1 at the latest: cdf[n - 1] == 1 >= cut.
            while cdf[k] < cut {
                k += 1;
            }
            guide.push(u32::try_from(k).expect("Zipf ranks fit in u32"));
        }
        Table {
            cdf,
            guide,
            buckets: m as f64,
        }
    }

    /// The first rank whose CDF is ≥ `u`, for `u` in `[0, 1)`.
    ///
    /// Scaling by a power of two is exact in f64, so with `j = ⌊u·M⌋`
    /// we have `j/M ≤ u < (j+1)/M` exactly: every rank before `guide[j]`
    /// has CDF < j/M ≤ u, and `guide[j + 1]` has CDF ≥ (j+1)/M > u, so the
    /// answer lies in `guide[j]..=guide[j + 1]`.
    #[inline]
    fn search(&self, u: f64) -> usize {
        let j = (u * self.buckets) as usize;
        let lo = self.guide[j] as usize;
        let hi = self.guide[j + 1] as usize;
        lo + self.cdf[lo..hi].partition_point(|&c| c < u)
    }
}

/// Live tables by `(n, alpha bits)`. Entries are weak, so a table is
/// freed with its last sampler; dead entries are swept on insertion.
type TableMap = HashMap<(usize, u64), Weak<Table>>;

/// The shared table for `(n, alpha)`, built if no live sampler holds one.
fn interned(n: usize, alpha: f64) -> Arc<Table> {
    static TABLES: OnceLock<Mutex<TableMap>> = OnceLock::new();
    let mut tables = TABLES
        .get_or_init(Default::default)
        .lock()
        // Every update is one whole insert or sweep of weak entries, so a
        // panic elsewhere under the lock cannot leave the map invalid.
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let key = (n, alpha.to_bits());
    if let Some(table) = tables.get(&key).and_then(Weak::upgrade) {
        return table;
    }
    let table = Arc::new(Table::build(n, alpha));
    tables.retain(|_, t| t.strong_count() > 0);
    tables.insert(key, Arc::downgrade(&table));
    table
}

impl Zipf {
    /// Builds the sampler, sharing the tables of any live sampler with
    /// the same `n` and `alpha`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `alpha` is negative or non-finite.
    pub fn new(n: usize, alpha: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        assert!(
            alpha.is_finite() && alpha >= 0.0,
            "alpha must be a nonnegative finite number"
        );
        Zipf {
            table: interned(n, alpha),
        }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.table.cdf.len()
    }

    /// `true` when the sampler holds no ranks. Construction enforces
    /// `n > 0`, so this is always `false` for a live sampler — it exists
    /// to keep the conventional `len`/`is_empty` pair consistent.
    pub fn is_empty(&self) -> bool {
        self.table.cdf.is_empty()
    }

    /// Samples a rank in `0..n`: the first rank whose CDF is ≥ a uniform
    /// draw from `[0, 1)`.
    pub fn sample(&self, rng: &mut SmallRng) -> usize {
        self.table.search(rng.gen())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// The plain inverse-CDF rule the guide table must reproduce.
    fn full_search(t: &Table, u: f64) -> usize {
        t.cdf.partition_point(|&c| c < u).min(t.cdf.len() - 1)
    }

    /// Every `(n, alpha)` shape the generators build — the sharing pool
    /// and the SPLASH2/PARSEC-like shared regions, the SPEC-like Zipf
    /// components, the tenant and key rankings — plus a 1 MB pool at the
    /// sharing pool's skew and the edge cases: one rank, a non-power of
    /// two, uniform, and steeper than any generator.
    const SHAPES: [(usize, f64); 19] = [
        (65_536, 0.60),
        (32_768, 0.90),
        (16_384, 0.70),
        (8_192, 1.10),
        (262_144, 0.60),
        (16_384, 1.20),
        (131_072, 1.00),
        (262_144, 1.30),
        (131_072, 0.55),
        (4_096, 1.10),
        (65_536, 1.00),
        (32, 0.80),
        (65_536, 0.95),
        (32_768, 0.60),
        (1, 1.0),
        (1, 0.0),
        (17, 0.8),
        (1_000, 0.0),
        (1_000, 2.5),
    ];

    #[test]
    fn guide_search_matches_full_search_at_every_bucket_edge() {
        for (n, alpha) in SHAPES {
            let z = Zipf::new(n, alpha);
            let t = &*z.table;
            let m = n.next_power_of_two();
            assert_eq!(t.guide.len(), m + 1);
            for j in 0..m {
                let edge = j as f64 / m as f64;
                assert_eq!(
                    t.search(edge),
                    full_search(t, edge),
                    "({n}, {alpha}) at {j}/M"
                );
                if j > 0 {
                    let below = edge.next_down();
                    assert_eq!(
                        t.search(below),
                        full_search(t, below),
                        "({n}, {alpha}) just below {j}/M"
                    );
                }
            }
            let top = 1.0f64.next_down();
            assert_eq!(t.search(top), full_search(t, top), "({n}, {alpha}) at 1-");
        }
    }

    #[test]
    fn guide_search_matches_full_search_on_random_draws() {
        let mut rng = SmallRng::seed_from_u64(12);
        for (n, alpha) in SHAPES {
            let z = Zipf::new(n, alpha);
            for _ in 0..100_000 {
                let u: f64 = rng.gen();
                assert_eq!(
                    z.table.search(u),
                    full_search(&z.table, u),
                    "({n}, {alpha}) at {u}"
                );
            }
        }
    }

    #[test]
    fn equal_shapes_share_one_table_until_the_last_holder_drops() {
        // An alpha no other test uses, so parallel tests cannot hold it.
        const ALPHA: f64 = 0.8125;
        let a = Zipf::new(300, ALPHA);
        let b = Zipf::new(300, ALPHA);
        let c = a.clone();
        assert!(Arc::ptr_eq(&a.table, &b.table));
        assert!(Arc::ptr_eq(&a.table, &c.table));
        assert!(!Arc::ptr_eq(&a.table, &Zipf::new(301, ALPHA).table));
        assert!(!Arc::ptr_eq(&a.table, &Zipf::new(300, 0.8126).table));

        // Holding a weak reference keeps the allocation (not the table)
        // alive, so a rebuilt table cannot reuse its address.
        let old = Arc::downgrade(&a.table);
        drop((a, b, c));
        assert!(
            old.upgrade().is_none(),
            "the intern map must not own tables"
        );
        let rebuilt = Zipf::new(300, ALPHA);
        assert!(!std::ptr::eq(old.as_ptr(), Arc::as_ptr(&rebuilt.table)));
        assert_eq!(rebuilt.table.cdf, Table::build(300, ALPHA).cdf);
    }

    #[test]
    fn uniform_when_alpha_zero() {
        let z = Zipf::new(4, 0.0);
        let mut rng = SmallRng::seed_from_u64(7);
        let mut counts = [0usize; 4];
        for _ in 0..40_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        for &c in &counts {
            assert!((c as f64 - 10_000.0).abs() < 800.0, "counts {counts:?}");
        }
    }

    #[test]
    fn rank_zero_dominates_with_high_alpha() {
        let z = Zipf::new(1024, 1.2);
        let mut rng = SmallRng::seed_from_u64(3);
        let mut zero = 0usize;
        const N: usize = 20_000;
        for _ in 0..N {
            if z.sample(&mut rng) == 0 {
                zero += 1;
            }
        }
        // With alpha=1.2 and n=1024, P(0) ~ 1/H ~ 0.17.
        assert!(zero > N / 10, "rank 0 sampled only {zero} times");
    }

    #[test]
    fn samples_stay_in_range() {
        let z = Zipf::new(17, 0.8);
        assert_eq!(z.len(), 17);
        assert!(!z.is_empty());
        let mut rng = SmallRng::seed_from_u64(11);
        for _ in 0..10_000 {
            assert!(z.sample(&mut rng) < 17);
        }
    }

    #[test]
    fn single_rank_always_zero() {
        let z = Zipf::new(1, 1.0);
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..100 {
            assert_eq!(z.sample(&mut rng), 0);
        }
    }

    #[test]
    fn monotone_probabilities() {
        // Empirically check P(k) >= P(k+1) for a few ranks.
        let z = Zipf::new(8, 1.0);
        let mut rng = SmallRng::seed_from_u64(5);
        let mut counts = [0usize; 8];
        for _ in 0..80_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        for w in counts.windows(2) {
            assert!(
                w[0] as f64 >= w[1] as f64 * 0.8,
                "not roughly monotone: {counts:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_ranks_panics() {
        let _ = Zipf::new(0, 1.0);
    }

    #[test]
    // The comparison with `len() == 0` is the contract under test.
    #[allow(clippy::len_zero)]
    fn is_empty_agrees_with_len() {
        // The contract: is_empty() == (len() == 0), for every
        // constructible sampler — including the single-rank edge case,
        // which the old hardcoded `false` happened to get right only by
        // accident of the construction-time assert.
        for n in [1usize, 2, 17, 1024] {
            let z = Zipf::new(n, 0.9);
            assert_eq!(z.len(), n);
            assert_eq!(z.is_empty(), z.len() == 0);
            assert!(!z.is_empty());
        }
    }
}
