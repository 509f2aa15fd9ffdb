//! Id-addressed datasets: a point collection paired with a metric.
//!
//! A flat dataset (`FlatPoints::into_dataset`) scores from its row-major
//! buffer, and through the metric's named `L_p` kernel
//! ([`Metric::lp_kernel`]) where it has one — statically dispatched per
//! call, and for a walk resolved once against the query
//! ([`Dataset::surrogates_to`]). A metric without one, `Counting` and the
//! other wrappers included, is called through its own slice kernel and
//! sees every call.

use std::sync::Arc;

use crate::metric::Metric;

/// A finite set of data points `P` together with the metric of the ambient
/// space, addressed by dense integer ids `0..n`.
///
/// This mirrors the problem setup of Section 1.1: the data input is a set `P`
/// of `n >= 2` points from a metric space `(M, D)`. Graphs in `pg-core`
/// reference points by id (`u32`), so a `Dataset` is the bridge between graph
/// structure and geometry.
///
/// A dataset built by [`FlatPoints::into_dataset`](crate::FlatPoints::into_dataset)
/// additionally remembers the shared row-major buffer behind its
/// [`FlatRow`](crate::FlatRow) handles, and the distance accessors
/// ([`dist`](Dataset::dist), [`dist_to`](Dataset::dist_to),
/// [`dist_surrogate`](Dataset::dist_surrogate),
/// [`surrogate_to`](Dataset::surrogate_to),
/// [`surrogates_to`](Dataset::surrogates_to)) read row `i` as
/// `buf[i·d .. (i+1)·d]` instead of loading the 24-byte handle first — one
/// dependent cache miss per distance instead of two, with bit-identical
/// values. When the metric names its `L_p` kernel
/// ([`Metric::lp_kernel`]: `Euclidean`, `Manhattan`, `Chebyshev`) the
/// accessors run that kernel inlined; any other metric — `Counting` and
/// the other wrappers included — is called through its own `[f64]` kernel,
/// the one the handle's `AsRef<[f64]>` reaches, so it sees (and counts)
/// every call as before.
#[derive(Debug, Clone)]
pub struct Dataset<P, M> {
    points: Vec<P>,
    metric: M,
    rows: Option<RowMajor<P, M>>,
}

/// The buffer path of a flat-backed dataset: the coordinates of `points`,
/// row-major, how a query point's coordinates are read, and the metric's
/// slice kernels resolved once at construction (a struct generic in `P`
/// cannot name `Metric<[f64]>` or `AsRef<[f64]>` at the call site). The
/// kernels are called only for a metric that names no [`Lp`](crate::Lp).
#[derive(Debug, Clone)]
struct RowMajor<P, M> {
    buf: Arc<[f64]>,
    dim: usize,
    coords: fn(&P) -> &[f64],
    dist: fn(&M, &[f64], &[f64]) -> f64,
    surrogate: fn(&M, &[f64], &[f64]) -> f64,
}

impl<P, M> RowMajor<P, M> {
    #[inline]
    fn row(&self, i: usize) -> &[f64] {
        &self.buf[i * self.dim..(i + 1) * self.dim]
    }
}

/// Coordinates per 64-byte cache line.
const LINE: usize = 8;

/// Reads one coordinate of `row` per [`LINE`] from the first, and the
/// last. Wherever the row starts inside a line, they fall in every line it
/// spans: steps of one line each cover all but the tail, the last
/// coordinate the tail. An empty row reads nothing. The reads are summed,
/// not `^`-folded, so a coordinate read twice (the last, when a step lands
/// on it) cannot cancel out and let the compiler drop the loads.
#[inline]
fn touch_row(row: &[f64]) -> u64 {
    let mut sum = row.last().map_or(0, |c| c.to_bits());
    let mut k = 0;
    while k < row.len() {
        sum = sum.wrapping_add(row[k].to_bits());
        k += LINE;
    }
    sum
}

impl<P, M: Metric<P>> RowMajor<P, M> {
    #[inline]
    fn dist(&self, m: &M, a: &[f64], b: &[f64]) -> f64 {
        match m.lp_kernel() {
            Some(lp) => lp.dist(a, b),
            None => (self.dist)(m, a, b),
        }
    }

    #[inline]
    fn surrogate(&self, m: &M, a: &[f64], b: &[f64]) -> f64 {
        match m.lp_kernel() {
            Some(lp) => lp.surrogate(a, b),
            None => (self.surrogate)(m, a, b),
        }
    }
}

impl<M: Metric<crate::FlatRow> + Metric<[f64]>> Dataset<crate::FlatRow, M> {
    /// A dataset over `points`, which must be the handles of the row-major
    /// `buf` in id order (what [`FlatPoints::into_rows`](crate::FlatPoints::into_rows)
    /// produces) — the constructor behind `FlatPoints::into_dataset`.
    pub(crate) fn row_major(
        points: Vec<crate::FlatRow>,
        buf: Arc<[f64]>,
        dim: usize,
        metric: M,
    ) -> Self {
        debug_assert_eq!(points.len() * dim, buf.len());
        let mut data = Dataset::new(points, metric);
        data.rows = Some(RowMajor {
            buf,
            dim,
            coords: crate::FlatRow::coords,
            dist: |m, a, b| m.dist(a, b),
            surrogate: |m, a, b| m.surrogate(a, b),
        });
        data
    }
}

impl<P, M: Metric<P>> Dataset<P, M> {
    /// Creates a dataset.
    ///
    /// # Panics
    ///
    /// Panics if `points` is empty. The paper's setup assumes `n >= 2`, but
    /// this constructor deliberately also accepts a single-point dataset so
    /// degenerate cases are testable; the operations that genuinely need two
    /// points ([`Dataset::nearest_excluding`],
    /// [`Dataset::min_max_interpoint`], [`Dataset::aspect_ratio_exact`])
    /// assert `n >= 2` themselves.
    pub fn new(points: Vec<P>, metric: M) -> Self {
        assert!(
            !points.is_empty(),
            "dataset must contain at least one point"
        );
        Dataset {
            points,
            metric,
            rows: None,
        }
    }

    /// Whether the distance accessors read a shared row-major buffer (a
    /// dataset from `FlatPoints::into_dataset`) rather than `points`. A
    /// probe for the parity tests, not part of the API.
    #[doc(hidden)]
    pub fn reads_row_major_buffer(&self) -> bool {
        self.rows.is_some()
    }

    /// Number of data points `n`.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the dataset is empty (never true after construction).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The point with id `i`.
    pub fn point(&self, i: usize) -> &P {
        &self.points[i]
    }

    /// All points, id-ordered.
    pub fn points(&self) -> &[P] {
        &self.points
    }

    /// The metric.
    pub fn metric(&self) -> &M {
        &self.metric
    }

    /// Distance between data points `i` and `j`.
    #[inline]
    pub fn dist(&self, i: usize, j: usize) -> f64 {
        match &self.rows {
            Some(r) => r.dist(&self.metric, r.row(i), r.row(j)),
            None => self.metric.dist(&self.points[i], &self.points[j]),
        }
    }

    /// Distance from data point `i` to an arbitrary query point `q` of the
    /// ambient space.
    #[inline]
    pub fn dist_to(&self, i: usize, q: &P) -> f64 {
        match &self.rows {
            Some(r) => r.dist(&self.metric, r.row(i), (r.coords)(q)),
            None => self.metric.dist(&self.points[i], q),
        }
    }

    /// Monotone comparison surrogate between data points `i` and `j` — see
    /// [`Metric::surrogate`]. Counts as one distance computation.
    #[inline]
    pub fn dist_surrogate(&self, i: usize, j: usize) -> f64 {
        match &self.rows {
            Some(r) => r.surrogate(&self.metric, r.row(i), r.row(j)),
            None => self.metric.surrogate(&self.points[i], &self.points[j]),
        }
    }

    /// Monotone comparison surrogate from data point `i` to query `q` — the
    /// hot-path primitive of the search routines (squared distance under
    /// [`Euclidean`](crate::Euclidean), so no `sqrt` per comparison).
    #[inline]
    pub fn surrogate_to(&self, i: usize, q: &P) -> f64 {
        match &self.rows {
            Some(r) => r.surrogate(&self.metric, r.row(i), (r.coords)(q)),
            None => self.metric.surrogate(&self.points[i], q),
        }
    }

    /// [`surrogate_to`](Dataset::surrogate_to) against one fixed query, as
    /// a function of the id — what a walk scores with. Whatever does not
    /// depend on the id is resolved here, once: on a flat dataset the
    /// buffer, its stride, `q`'s coordinates and the metric's `L_p` kernel,
    /// so each call is the bare kernel on `buf[i·d .. (i+1)·d]`, inlined
    /// into the caller's loop. Values and `Counting` counts are
    /// `surrogate_to`'s.
    #[inline]
    pub fn surrogates_to<'a>(&'a self, q: &'a P) -> impl Fn(usize) -> f64 + 'a {
        let flat = self
            .rows
            .as_ref()
            .map(|r| (r, &r.buf[..], r.dim, (r.coords)(q)));
        move |i| match flat {
            Some((r, buf, dim, qc)) => r.surrogate(&self.metric, &buf[i * dim..(i + 1) * dim], qc),
            None => self.metric.surrogate(&self.points[i], q),
        }
    }

    /// Loads every cache line of a point's coordinates, as a function of
    /// the id, on a flat dataset; loads nothing on any other. What a walk
    /// calls for a band's targets before scoring any of them, so their
    /// fetches overlap instead of each waiting its turn. As in
    /// [`surrogates_to`](Dataset::surrogates_to), the buffer and its
    /// stride are resolved here, once. The value means nothing; folded
    /// into one the caller consumes (`std::hint::black_box`), it keeps the
    /// loads from being dropped. Calls no metric, so no `Counting` total
    /// moves.
    #[inline]
    pub fn touches(&self) -> impl Fn(usize) -> u64 + '_ {
        let flat = self.rows.as_ref().map(|r| (&r.buf[..], r.dim));
        move |i| match flat {
            Some((buf, dim)) => touch_row(&buf[i * dim..(i + 1) * dim]),
            None => 0,
        }
    }

    /// Maps a surrogate value back to the true distance (pure float
    /// transform, not counted); see [`Metric::dist_from_surrogate`].
    #[inline]
    pub fn dist_from_surrogate(&self, s: f64) -> f64 {
        self.metric.dist_from_surrogate(s)
    }

    /// Exact nearest neighbor of `q` by brute force: returns `(id, dist)`.
    /// Scans in surrogate space (no `sqrt` per candidate under `L_2`).
    pub fn nearest_brute(&self, q: &P) -> (usize, f64) {
        let mut best = (0usize, f64::INFINITY);
        for i in 0..self.len() {
            let s = self.surrogate_to(i, q);
            if s < best.1 {
                best = (i, s);
            }
        }
        (best.0, self.dist_from_surrogate(best.1))
    }

    /// Exact `k` nearest neighbors of `q` by brute force, ascending by
    /// distance (ties broken by id).
    ///
    /// One pass over the points in id order through
    /// [`surrogates_to`](Dataset::surrogates_to), keeping the `k` best
    /// `(surrogate, id)` pairs sorted: a point enters only if it beats the
    /// current `k`-th, so the work past the first `k` points is one
    /// comparison each and the memory `O(k)`, not an `n`-entry list per
    /// query. Ids arrive ascending, so a later point ties an earlier one
    /// behind it and a new entry goes after every equal surrogate.
    pub fn k_nearest_brute(&self, q: &P, k: usize) -> Vec<(usize, f64)> {
        let score = self.surrogates_to(q);
        let mut best: Vec<(usize, f64)> = Vec::with_capacity(k.min(self.len()) + 1);
        for i in 0..self.len() {
            let s = score(i);
            if best.len() == k && best.last().is_none_or(|&(_, worst)| s >= worst) {
                continue;
            }
            let at = best.partition_point(|&(_, e)| e <= s);
            best.insert(at, (i, s));
            best.truncate(k);
        }
        for e in &mut best {
            e.1 = self.dist_from_surrogate(e.1);
        }
        best
    }

    /// Nearest *other* data point to data point `i`: returns `(id, dist)`.
    /// Panics if the dataset has fewer than two points.
    pub fn nearest_excluding(&self, i: usize) -> (usize, f64) {
        assert!(self.len() >= 2, "need at least two points");
        let mut best = (usize::MAX, f64::INFINITY);
        for j in 0..self.len() {
            if j == i {
                continue;
            }
            let d = self.dist(i, j);
            if d < best.1 {
                best = (j, d);
            }
        }
        best
    }

    /// All ids within distance `r` of `q` (closed ball `B(q, r)`), ascending.
    pub fn range_brute(&self, q: &P, r: f64) -> Vec<usize> {
        (0..self.len())
            .filter(|&i| self.dist_to(i, q) <= r)
            .collect()
    }

    /// Keeps the points and swaps the metric. The result always scores
    /// through `points`: the row-major buffer path of a flat-backed dataset
    /// is resolved for one metric type and does not carry over.
    pub fn map_metric<M2: Metric<P>>(self, m2: M2) -> Dataset<P, M2> {
        Dataset::new(self.points, m2)
    }
}

impl<P: Sync, M: Metric<P> + Sync> Dataset<P, M> {
    /// Exact minimum and maximum inter-point distances `(d_min, d_max)` by
    /// the full `O(n^2)` scan, sharded across the thread pool (one row of
    /// the upper triangle per work item). `d_max` is the diameter `diam(P)`.
    ///
    /// `min`/`max` over finite `f64` are exact (no rounding), so the
    /// reduction is order-independent: the result is **bit-identical for
    /// every thread count**, asserted by tests like the parallel graph
    /// builds.
    ///
    /// The scan reduces in surrogate space and maps only the two final
    /// scalars back — a monotone non-decreasing map commutes with `min`/
    /// `max`, so this equals reducing true distances bit for bit while
    /// skipping the per-pair `sqrt` under `L_2`.
    pub fn min_max_interpoint(&self) -> (f64, f64) {
        assert!(self.len() >= 2, "need at least two points");
        let n = self.len();
        let per_row = rayon::par_map_range(n - 1, |i| {
            let mut smin = f64::INFINITY;
            let mut smax: f64 = 0.0;
            for j in (i + 1)..n {
                let s = self.dist_surrogate(i, j);
                smin = smin.min(s);
                smax = smax.max(s);
            }
            (smin, smax)
        });
        let (smin, smax) = per_row
            .into_iter()
            .fold((f64::INFINITY, 0.0_f64), |(lo, hi), (smin, smax)| {
                (lo.min(smin), hi.max(smax))
            });
        (
            self.dist_from_surrogate(smin),
            self.dist_from_surrogate(smax),
        )
    }

    /// Exact aspect ratio `Δ = diam(P) / d_min` by the full `O(n^2)` scan
    /// (parallel, see [`Dataset::min_max_interpoint`]).
    pub fn aspect_ratio_exact(&self) -> f64 {
        let (dmin, dmax) = self.min_max_interpoint();
        assert!(dmin > 0.0, "duplicate points have zero minimum distance");
        dmax / dmin
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lp::Euclidean;

    fn grid_dataset() -> Dataset<Vec<f64>, Euclidean> {
        // 3x3 unit grid.
        let mut pts = Vec::new();
        for x in 0..3 {
            for y in 0..3 {
                pts.push(vec![x as f64, y as f64]);
            }
        }
        Dataset::new(pts, Euclidean)
    }

    #[test]
    fn brute_nearest_is_correct() {
        let ds = grid_dataset();
        let q = vec![1.9, 1.9];
        let (id, d) = ds.nearest_brute(&q);
        assert_eq!(ds.point(id), &vec![2.0, 2.0]);
        assert!((d - (0.1f64 * 0.1 * 2.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn k_nearest_is_sorted_and_exact() {
        let ds = grid_dataset();
        let q = vec![0.0, 0.0];
        let knn = ds.k_nearest_brute(&q, 4);
        assert_eq!(knn.len(), 4);
        assert_eq!(knn[0].1, 0.0); // the corner itself
        assert_eq!(knn[1].1, 1.0);
        assert_eq!(knn[2].1, 1.0);
        assert!((knn[3].1 - 2f64.sqrt()).abs() < 1e-12);
        assert!(knn.windows(2).all(|w| w[0].1 <= w[1].1));
    }

    #[test]
    fn min_max_and_aspect_ratio() {
        let ds = grid_dataset();
        let (dmin, dmax) = ds.min_max_interpoint();
        assert_eq!(dmin, 1.0);
        assert!((dmax - 8f64.sqrt()).abs() < 1e-12);
        assert!((ds.aspect_ratio_exact() - 8f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn range_brute_matches_definition() {
        let ds = grid_dataset();
        let ids = ds.range_brute(&vec![0.0, 0.0], 1.0);
        assert_eq!(ids, vec![0, 1, 3]); // (0,0), (0,1), (1,0)
    }

    #[test]
    fn single_point_dataset_is_allowed_and_usable() {
        // The documented below-paper-minimum case: n = 1 constructs fine and
        // every single-point-safe query works on it.
        let ds = Dataset::new(vec![vec![3.0, 4.0]], Euclidean);
        assert_eq!(ds.len(), 1);
        assert!(!ds.is_empty());
        let (id, d) = ds.nearest_brute(&vec![0.0, 0.0]);
        assert_eq!(id, 0);
        assert!((d - 5.0).abs() < 1e-12);
        assert_eq!(ds.k_nearest_brute(&vec![0.0, 0.0], 3).len(), 1);
        assert_eq!(ds.range_brute(&vec![3.0, 4.0], 0.5), vec![0]);
    }

    #[test]
    #[should_panic(expected = "at least one point")]
    fn empty_dataset_rejected() {
        let _ = Dataset::new(Vec::<Vec<f64>>::new(), Euclidean);
    }

    #[test]
    #[should_panic(expected = "need at least two points")]
    fn two_point_operations_reject_single_point_sets() {
        let ds = Dataset::new(vec![vec![1.0]], Euclidean);
        let _ = ds.nearest_excluding(0);
    }

    #[test]
    fn nearest_excluding_skips_self() {
        let ds = grid_dataset();
        let (j, d) = ds.nearest_excluding(4); // center point (1,1)
        assert_ne!(j, 4);
        assert_eq!(d, 1.0);
    }

    /// Deterministic pseudo-random dataset for the selection/scan tests.
    fn scattered_dataset(n: usize, seed: u64) -> Dataset<Vec<f64>, Euclidean> {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^= z >> 31;
            (z >> 11) as f64 / (1u64 << 53) as f64 * 50.0
        };
        Dataset::new(
            (0..n).map(|_| vec![next(), next(), next()]).collect(),
            Euclidean,
        )
    }

    #[test]
    fn partitioned_k_nearest_matches_full_sort_for_every_k() {
        let ds = scattered_dataset(120, 3);
        let q = vec![25.0, 10.0, 40.0];
        // Reference: the seed's full-sort implementation.
        let mut full: Vec<(usize, f64)> = (0..ds.len()).map(|i| (i, ds.dist_to(i, &q))).collect();
        full.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then(a.0.cmp(&b.0)));
        for k in [0usize, 1, 2, 7, 119, 120, 500] {
            let got = ds.k_nearest_brute(&q, k);
            let want: Vec<(usize, f64)> = full.iter().copied().take(k).collect();
            assert_eq!(got, want, "k = {k}");
        }
    }

    #[test]
    fn min_max_interpoint_is_thread_count_invariant() {
        let ds = scattered_dataset(90, 9);
        // Sequential reference.
        let mut dmin = f64::INFINITY;
        let mut dmax: f64 = 0.0;
        for i in 0..ds.len() {
            for j in (i + 1)..ds.len() {
                let d = ds.dist(i, j);
                dmin = dmin.min(d);
                dmax = dmax.max(d);
            }
        }
        let machine = std::thread::available_parallelism().map_or(1, |t| t.get());
        for threads in [1usize, 2, machine] {
            let got = rayon::with_threads(threads, || ds.min_max_interpoint());
            assert_eq!(got, (dmin, dmax), "diverged at {threads} threads");
        }
    }

    /// Every accessor of a flat dataset under `metric` — the named kernel
    /// inlined — against the same points through `Dataset::new` (the
    /// metric on `Vec<f64>`) and through `Counting` (the buffer path's
    /// function pointers): bit-identical, and `Counting` counts each call.
    fn kernel_matches_the_metric<M>(metric: M, lp: crate::Lp)
    where
        M: Metric<Vec<f64>> + Metric<crate::FlatRow> + Metric<[f64]> + Clone,
    {
        use crate::{Counting, FlatPoints, FlatRow};
        let coord = |k: usize| ((k * 7919 + 13) % 1000) as f64 / 37.0 - 11.0;
        for d in [1usize, 2, 3, 7, 8, 9, 128] {
            let nested: Vec<Vec<f64>> = (0..24)
                .map(|p| (0..d).map(|c| coord(p * d + c)).collect())
                .collect();
            let q: Vec<f64> = nested[0].iter().map(|x| x * 0.5 + 1.25).collect();
            let plain = Dataset::new(nested.clone(), metric.clone());
            let flat = FlatPoints::from(&nested[..]).into_dataset(metric.clone());
            let counter = Counting::new(metric.clone());
            let counted = FlatPoints::from(&nested[..]).into_dataset(counter.clone());
            assert_eq!(Metric::<FlatRow>::lp_kernel(&metric), Some(lp));
            assert_eq!(Metric::<FlatRow>::lp_kernel(&counter), None);
            let fq = FlatRow::from(q.clone());
            let (each, counted_each) = (flat.surrogates_to(&fq), counted.surrogates_to(&fq));
            for (i, point) in nested.iter().enumerate() {
                let j = (i * 5 + 1) % nested.len();
                let want = [
                    plain.surrogate_to(i, &q),
                    plain.dist_to(i, &q),
                    plain.dist(i, j),
                    plain.dist_surrogate(i, j),
                    lp.surrogate(point, &q),
                ];
                let before = counter.count();
                for got in [
                    [
                        flat.surrogate_to(i, &fq),
                        flat.dist_to(i, &fq),
                        flat.dist(i, j),
                        flat.dist_surrogate(i, j),
                        each(i),
                    ],
                    [
                        counted.surrogate_to(i, &fq),
                        counted.dist_to(i, &fq),
                        counted.dist(i, j),
                        counted.dist_surrogate(i, j),
                        counted_each(i),
                    ],
                ] {
                    assert_eq!(got.map(f64::to_bits), want.map(f64::to_bits), "d = {d}");
                }
                assert_eq!(counter.count() - before, 5);
                assert_eq!(lp.dist(point, &q), want[1]);
            }
        }
    }

    #[test]
    fn named_kernels_are_the_metrics_bit_for_bit_on_the_buffer_path() {
        kernel_matches_the_metric(Euclidean, crate::Lp::L2);
        kernel_matches_the_metric(crate::Manhattan, crate::Lp::L1);
        kernel_matches_the_metric(crate::Chebyshev, crate::Lp::LInf);
    }

    /// Which coordinates `touch_row` reads from a `dim`-dimensional row,
    /// and how often: coordinate `k`'s bits are `4^k`, so the sum holds
    /// each coordinate's read count in its own pair of bits.
    fn coordinates_read(dim: usize) -> Vec<(usize, u32)> {
        assert!(dim <= 32, "one bit pair per coordinate");
        let row: Vec<f64> = (0..dim).map(|k| f64::from_bits(1 << (2 * k))).collect();
        let sum = touch_row(&row);
        (0..dim)
            .map(|k| (k, ((sum >> (2 * k)) & 0b11) as u32))
            .filter(|&(_, reads)| reads > 0)
            .collect()
    }

    #[test]
    fn a_touched_row_is_read_in_every_cache_line_it_spans() {
        use std::collections::BTreeSet;
        for dim in 0..=32 {
            let read = coordinates_read(dim);
            // The steps, once each, and the last coordinate once more.
            let mut want: Vec<(usize, u32)> = (0..dim).step_by(LINE).map(|k| (k, 1)).collect();
            if let Some(last) = dim.checked_sub(1) {
                match want.last_mut() {
                    Some(w) if w.0 == last => w.1 = 2,
                    _ => want.push((last, 1)),
                }
            }
            assert_eq!(read, want, "dim = {dim}");
            // Wherever in a line the row starts, every line it spans is read.
            for offset in 0..LINE {
                let hit: BTreeSet<usize> = read.iter().map(|(k, _)| (offset + k) / LINE).collect();
                let spanned: BTreeSet<usize> = match dim {
                    0 => BTreeSet::new(),
                    _ => (offset / LINE..=(offset + dim - 1) / LINE).collect(),
                };
                assert_eq!(hit, spanned, "dim = {dim}, offset = {offset}");
            }
        }
    }

    #[test]
    fn touching_a_point_reads_its_lines_counts_nothing_and_never_panics() {
        use crate::{Counting, FlatPoints};
        let coord = |k: usize| ((k * 7919 + 13) % 1000) as f64 / 37.0 - 11.0;
        for d in [0usize, 1, 7, 8, 9, 16, 17, 128] {
            let nested: Vec<Vec<f64>> = (0..12)
                .map(|p| (0..d).map(|c| coord(p * d + c)).collect())
                .collect();
            let counter = Counting::new(Euclidean);
            // A nested dataset has no buffer to load from: nothing is read,
            // whatever the dimension — a zero-dimensional one included.
            let plain = Dataset::new(nested.clone(), Euclidean);
            let counted = Dataset::new(nested.clone(), counter.clone());
            let (plain_touch, counted_touch) = (plain.touches(), counted.touches());
            for i in 0..nested.len() {
                assert_eq!((plain_touch(i), counted_touch(i)), (0, 0), "d = {d}");
            }
            if d > 0 {
                // A flat one reads row `i` of its buffer, and no other row.
                let flat = FlatPoints::from(&nested[..]).into_dataset(Euclidean);
                let counted = FlatPoints::from(&nested[..]).into_dataset(counter.clone());
                let (flat_touch, counted_touch) = (flat.touches(), counted.touches());
                for (i, row) in nested.iter().enumerate() {
                    let want = touch_row(row);
                    assert_eq!((flat_touch(i), counted_touch(i)), (want, want), "d = {d}");
                }
            }
            assert_eq!(counter.count(), 0, "d = {d}: a load counted");
        }
    }

    #[test]
    fn surrogate_helpers_round_trip_under_l2() {
        let ds = grid_dataset();
        let s = ds.dist_surrogate(0, 8);
        assert_eq!(s, 8.0); // squared distance across the grid diagonal
        assert_eq!(ds.dist_from_surrogate(s), ds.dist(0, 8));
        let q = vec![0.5, 0.0];
        assert_eq!(ds.surrogate_to(0, &q), 0.25);
    }
}
