//! Exact ground truth: parallel brute-force top-`k`, recomputed on every
//! run.
//!
//! [`GroundTruth::compute`] shards the per-query scans across the thread
//! pool (the order-preserving parallel map, so the result is identical for
//! every thread count); [`GroundTruth::compute_sampled`] scores a seeded
//! sample of the queries where `n · m` distance computations would cost
//! more than the experiment itself. Nothing is kept on disk: at every size
//! the experiments run, the scan costs far less than the index builds it
//! scores (`EXPERIMENTS.md` § Pay-or-delete verdicts).

use pg_metric::{Dataset, Metric};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Draws `count` distinct query indices from `0..m` — a seeded partial
/// Fisher–Yates shuffle, returned **ascending** so sampled query order is
/// a stable function of `(m, count, seed)` alone. Requires
/// `1 <= count <= m`.
pub fn sample_indices(m: usize, count: usize, seed: u64) -> Vec<usize> {
    assert!(count >= 1, "a query sample needs at least one query");
    assert!(
        count <= m,
        "cannot sample {count} of {m} queries without replacement"
    );
    let mut pool: Vec<usize> = (0..m).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    for i in 0..count {
        let j = rng.random_range(i..m);
        pool.swap(i, j);
    }
    let mut picked = pool;
    picked.truncate(count);
    picked.sort_unstable();
    picked
}

/// Exact top-`k` neighbors (ids and distances) of a fixed query set over a
/// fixed dataset — the reference every quality metric in this crate scores
/// against.
///
/// Rows are query-major: query `q`'s neighbors are
/// [`ids_for(q)`](GroundTruth::ids_for) /
/// [`dists_for(q)`](GroundTruth::dists_for), ascending by distance with
/// ties broken by smaller id — exactly the
/// [`Dataset::k_nearest_brute`] order that every search routine in the
/// workspace also reports, so comparisons never need re-sorting.
#[derive(Debug, Clone, PartialEq)]
pub struct GroundTruth {
    k: usize,
    m: usize,
    ids: Vec<u32>,
    dists: Vec<f64>,
}

impl GroundTruth {
    /// Computes exact ground truth by parallel brute force: one
    /// [`Dataset::k_nearest_brute`] scan per query, sharded across the
    /// thread pool with the order-preserving map — the result is
    /// bit-identical for every thread count.
    ///
    /// Requires `1 <= k <= data.len()` and at least one query. Cost:
    /// `m · n` distance computations (counted by a `Counting` metric, if
    /// the dataset wears one).
    pub fn compute<P: Sync, M: Metric<P> + Sync>(
        data: &Dataset<P, M>,
        queries: &[P],
        k: usize,
    ) -> Self {
        assert!(k >= 1, "ground truth needs k >= 1");
        assert!(
            k <= data.len(),
            "k = {k} exceeds the dataset size {}",
            data.len()
        );
        assert!(!queries.is_empty(), "ground truth needs at least one query");
        let per_query = rayon::par_map(queries, |q| data.k_nearest_brute(q, k));
        let mut ids = Vec::with_capacity(queries.len() * k);
        let mut dists = Vec::with_capacity(queries.len() * k);
        for row in per_query {
            debug_assert_eq!(row.len(), k);
            for (id, d) in row {
                ids.push(id as u32);
                dists.push(d);
            }
        }
        GroundTruth {
            k,
            m: queries.len(),
            ids,
            dists,
        }
    }

    /// `k` — neighbors stored per query.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of queries `m`.
    pub fn queries(&self) -> usize {
        self.m
    }

    /// The exact top-`k` neighbor ids of query `q`, ascending by distance
    /// (ties by id).
    pub fn ids_for(&self, q: usize) -> &[u32] {
        &self.ids[q * self.k..(q + 1) * self.k]
    }

    /// The exact top-`k` neighbor distances of query `q`, ascending.
    pub fn dists_for(&self, q: usize) -> &[f64] {
        &self.dists[q * self.k..(q + 1) * self.k]
    }

    /// The `k`-th smallest true distance for query `q` — the membership
    /// threshold of the exact top-`k` set (see
    /// [`recall_at_k`](crate::metrics::recall_at_k) for why hits are decided
    /// by this threshold rather than by id membership).
    pub fn threshold(&self, q: usize) -> f64 {
        self.dists_for(q)[self.k - 1]
    }

    /// The exact nearest-neighbor distance of query `q`.
    pub fn nearest_dist(&self, q: usize) -> f64 {
        self.dists_for(q)[0]
    }

    /// Exact ground truth for a seeded sample of the query set — the
    /// million-point escape hatch: at `n = 10^6`, full ground truth for
    /// thousands of queries costs billions of distance computations, but
    /// recall estimated on a few hundred sampled queries already has a
    /// standard error below a percentage point. Returns the truth plus the
    /// **ascending** sampled indices ([`sample_indices`]) so callers can
    /// line their own answers up against it.
    pub fn compute_sampled<P: Sync + Clone, M: Metric<P> + Sync>(
        data: &Dataset<P, M>,
        queries: &[P],
        k: usize,
        sample_seed: u64,
        sample_count: usize,
    ) -> (Self, Vec<usize>) {
        let picked = sample_indices(queries.len(), sample_count, sample_seed);
        let sampled: Vec<P> = picked.iter().map(|&i| queries[i].clone()).collect();
        (GroundTruth::compute(data, &sampled, k), picked)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pg_metric::{Euclidean, FlatPoints, FlatRow};

    fn grid(n: usize) -> Dataset<FlatRow, Euclidean> {
        FlatPoints::from_fn(n, 2, |i, out| {
            out.push((i % 8) as f64);
            out.push((i / 8) as f64);
        })
        .into_dataset(Euclidean)
    }

    fn queries() -> Vec<FlatRow> {
        (0..6)
            .map(|i| FlatRow::from(vec![i as f64 * 1.3, 2.0 - i as f64 * 0.4]))
            .collect()
    }

    #[test]
    fn compute_matches_k_nearest_brute_per_query() {
        let ds = grid(40);
        let qs = queries();
        let gt = GroundTruth::compute(&ds, &qs, 5);
        assert_eq!(gt.k(), 5);
        assert_eq!(gt.queries(), qs.len());
        for (i, q) in qs.iter().enumerate() {
            let want = ds.k_nearest_brute(q, 5);
            let ids: Vec<u32> = want.iter().map(|&(id, _)| id as u32).collect();
            let dists: Vec<f64> = want.iter().map(|&(_, d)| d).collect();
            assert_eq!(gt.ids_for(i), &ids[..]);
            assert_eq!(gt.dists_for(i), &dists[..]);
            assert_eq!(gt.threshold(i), dists[4]);
            assert_eq!(gt.nearest_dist(i), dists[0]);
        }
    }

    #[test]
    fn compute_is_thread_count_invariant() {
        let ds = grid(50);
        let qs = queries();
        let one = rayon::with_threads(1, || GroundTruth::compute(&ds, &qs, 4));
        let machine = std::thread::available_parallelism().map_or(1, |t| t.get());
        for threads in [2, machine] {
            let t = rayon::with_threads(threads, || GroundTruth::compute(&ds, &qs, 4));
            assert_eq!(one, t, "diverged at {threads} threads");
        }
    }

    #[test]
    #[should_panic(expected = "exceeds the dataset size")]
    fn compute_rejects_oversized_k() {
        let ds = grid(4);
        let _ = GroundTruth::compute(&ds, &queries(), 5);
    }

    #[test]
    fn sample_indices_are_a_deterministic_ascending_subset() {
        let picked = sample_indices(100, 17, 9);
        assert_eq!(picked, sample_indices(100, 17, 9), "same seed, same sample");
        assert_ne!(picked, sample_indices(100, 17, 10), "seed changes sample");
        assert_eq!(picked.len(), 17);
        assert!(
            picked.windows(2).all(|w| w[0] < w[1]),
            "ascending, distinct"
        );
        assert!(picked.iter().all(|&i| i < 100), "in range");
        // Sampling everything is the identity.
        assert_eq!(sample_indices(6, 6, 3), vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn compute_sampled_is_full_truth_restricted_to_the_sample() {
        let ds = grid(40);
        let qs = queries();
        let full = GroundTruth::compute(&ds, &qs, 4);
        let (sampled, picked) = GroundTruth::compute_sampled(&ds, &qs, 4, 7, 3);
        assert_eq!(sampled.queries(), 3);
        for (row, &q) in picked.iter().enumerate() {
            assert_eq!(sampled.ids_for(row), full.ids_for(q));
            assert_eq!(sampled.dists_for(row), full.dists_for(q));
        }
    }
}
