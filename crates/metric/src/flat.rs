//! Contiguous point storage: the cache-friendly layout for `R^d` datasets.
//!
//! The seed stored Euclidean datasets as `Vec<Vec<f64>>` — one heap
//! allocation per point, so every distance computation chases a pointer to a
//! scattered row. [`FlatPoints`] packs all `n` points into a single
//! row-major `n × d` buffer: `row(i)` is a direct slice at offset `i * d`,
//! adjacent ids are adjacent in memory, and a linear scan streams through
//! the cache the way the hardware wants.
//!
//! To plug into the workspace's generic machinery (`Dataset<P, M>`, the
//! search routines, every graph construction) without a new set of APIs,
//! [`FlatPoints::into_dataset`] converts the buffer into a
//! `Dataset<FlatRow, M>`: a [`FlatRow`] is a cheap handle
//! (`Arc<[f64]>` + offset) that implements `AsRef<[f64]>`, so all `L_p`
//! metrics and every `P: AsRef<[f64]>`-generic algorithm accept it
//! unchanged while the coordinates stay contiguous. Query points use the
//! same type via `FlatRow::from(vec)` (a one-row buffer) or
//! [`FlatPoints::into_rows`] for whole query sets.
//!
//! The handles are for code that wants a *point*. Code that wants a
//! *distance by id* — every search and every construction — goes through
//! the dataset's accessors, and a dataset from
//! [`FlatPoints::into_dataset`] answers those from the buffer itself,
//! `buf[i·d .. (i+1)·d]`, without loading the handle: one dependent cache
//! miss per distance instead of two, bit-identical values (see
//! [`Dataset`]).
//!
//! ```
//! use pg_metric::{Euclidean, FlatPoints, FlatRow, Metric};
//!
//! let mut fp = FlatPoints::new(2);
//! fp.push(&[0.0, 0.0]);
//! fp.push(&[3.0, 4.0]);
//! assert_eq!(fp.row(1), &[3.0, 4.0]);
//!
//! let data = fp.into_dataset(Euclidean);
//! assert_eq!(data.dist(0, 1), 5.0);
//! let q = FlatRow::from(vec![3.0, 0.0]);
//! assert_eq!(data.nearest_brute(&q).0, 0);
//! ```
//!
//! Generators should fill flat storage directly via [`FlatPoints::from_fn`]
//! (the `pg_workloads` `*_flat` variants do), and serving systems should
//! persist it: the buffer round-trips losslessly through the `pg_store`
//! snapshot format via [`FlatPoints::as_slice`] on the way out and
//! [`FlatPoints::try_from_raw`] on the way back. The full design rationale
//! (why a 24-byte handle, why one shared allocation) lives in
//! `ARCHITECTURE.md` at the repository root.

use std::sync::Arc;

use crate::dataset::Dataset;
use crate::metric::Metric;

/// An `n × d` row-major contiguous point buffer (see the module docs).
///
/// The invariant `data.len() == n * dim` always holds; rows are addressed by
/// dense ids `0..n` exactly like [`Dataset`] points. There is deliberately
/// no `Default`: a buffer needs a dimension (`dim >= 1`), so construct via
/// [`FlatPoints::new`] / [`FlatPoints::with_capacity`] / [`FlatPoints::from_fn`].
#[derive(Debug, Clone, PartialEq)]
pub struct FlatPoints {
    data: Vec<f64>,
    dim: usize,
}

impl FlatPoints {
    /// An empty buffer for `dim`-dimensional points (`dim >= 1`).
    pub fn new(dim: usize) -> Self {
        assert!(dim >= 1, "dimension must be at least 1");
        FlatPoints {
            data: Vec::new(),
            dim,
        }
    }

    /// [`FlatPoints::new`] with capacity pre-reserved for `n` points.
    pub fn with_capacity(n: usize, dim: usize) -> Self {
        assert!(dim >= 1, "dimension must be at least 1");
        FlatPoints {
            data: Vec::with_capacity(n * dim),
            dim,
        }
    }

    /// Builds the `n × d` buffer from a coordinate function — the generator
    /// entry point: workloads fill flat storage directly instead of routing
    /// through `Vec<Vec<f64>>`. `f(i)` must append exactly `dim` values for
    /// point `i` (asserted).
    ///
    /// ```
    /// use pg_metric::FlatPoints;
    ///
    /// // A 4 × 3 buffer without any intermediate per-point Vec.
    /// let fp = FlatPoints::from_fn(4, 3, |i, out| {
    ///     out.extend((0..3).map(|j| (i * 3 + j) as f64));
    /// });
    /// assert_eq!(fp.len(), 4);
    /// assert_eq!(fp.row(2), &[6.0, 7.0, 8.0]);
    /// ```
    pub fn from_fn(n: usize, dim: usize, mut f: impl FnMut(usize, &mut Vec<f64>)) -> Self {
        let mut fp = FlatPoints::with_capacity(n, dim);
        for i in 0..n {
            let before = fp.data.len();
            f(i, &mut fp.data);
            assert_eq!(
                fp.data.len() - before,
                dim,
                "generator wrote the wrong number of coordinates for point {i}"
            );
        }
        fp
    }

    /// Appends one point (`p.len()` must equal the buffer's dimension).
    pub fn push(&mut self, p: &[f64]) {
        assert_eq!(p.len(), self.dim, "dimension mismatch");
        self.data.extend_from_slice(p);
    }

    /// Number of points `n`.
    pub fn len(&self) -> usize {
        self.data.len() / self.dim
    }

    /// Whether the buffer holds no points.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The dimension `d` (row stride).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The coordinates of point `i` — a direct slice into the buffer.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        let start = i * self.dim;
        &self.data[start..start + self.dim]
    }

    /// Iterates over all rows in id order.
    pub fn rows(&self) -> impl Iterator<Item = &[f64]> {
        self.data.chunks_exact(self.dim)
    }

    /// The whole `n * d` buffer, row-major.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Copies out the legacy nested layout (one `Vec` per point).
    pub fn to_nested(&self) -> Vec<Vec<f64>> {
        self.rows().map(|r| r.to_vec()).collect()
    }

    /// Rebuilds a buffer from a raw row-major coordinate vector — the
    /// deserialization entry point (`pg_store` snapshots carry exactly this
    /// vector). Unlike the panicking constructors, untrusted input gets a
    /// typed rejection: the length must be a non-zero multiple of `dim`,
    /// `dim >= 1`, and every value finite.
    pub fn try_from_raw(data: Vec<f64>, dim: usize) -> Result<Self, String> {
        if dim == 0 {
            return Err("dimension must be at least 1".into());
        }
        if data.is_empty() {
            return Err("coordinate buffer is empty".into());
        }
        if !data.len().is_multiple_of(dim) {
            return Err(format!(
                "coordinate buffer length {} is not a multiple of dim = {dim}",
                data.len()
            ));
        }
        if data.iter().any(|c| !c.is_finite()) {
            return Err("non-finite coordinate".into());
        }
        Ok(FlatPoints { data, dim })
    }

    /// Converts into per-point [`FlatRow`] handles that all share one
    /// allocation — the point type for flat-backed [`Dataset`]s and query
    /// batches.
    pub fn into_rows(self) -> Vec<FlatRow> {
        self.into_shared_rows().0
    }

    /// The handles of [`FlatPoints::into_rows`] and the allocation they
    /// share.
    fn into_shared_rows(self) -> (Vec<FlatRow>, Arc<[f64]>) {
        assert!(
            self.data.len() <= u32::MAX as usize,
            "flat buffer exceeds u32 addressing (4G coordinates)"
        );
        let dim = self.dim;
        let n = self.len();
        let buf: Arc<[f64]> = self.data.into();
        let rows = (0..n)
            .map(|i| FlatRow {
                buf: Arc::clone(&buf),
                start: (i * dim) as u32,
                dim: dim as u32,
            })
            .collect();
        (rows, buf)
    }

    /// Converts into a flat-backed dataset: `Dataset<FlatRow, M>` with all
    /// coordinates in one contiguous allocation, which the dataset's
    /// distance accessors read directly (`buf[i·d .. (i+1)·d]` — see
    /// [`Dataset`]); the handles stay available through `point(i)`. Panics
    /// if empty, exactly like [`Dataset::new`].
    pub fn into_dataset<M: Metric<FlatRow> + Metric<[f64]>>(
        self,
        metric: M,
    ) -> Dataset<FlatRow, M> {
        let dim = self.dim;
        let (rows, buf) = self.into_shared_rows();
        Dataset::row_major(rows, buf, dim, metric)
    }
}

impl From<Vec<Vec<f64>>> for FlatPoints {
    /// Flattens a nested point set (all rows must share one dimension).
    fn from(rows: Vec<Vec<f64>>) -> Self {
        FlatPoints::from(&rows[..])
    }
}

impl From<&[Vec<f64>]> for FlatPoints {
    fn from(rows: &[Vec<f64>]) -> Self {
        assert!(!rows.is_empty(), "cannot infer dimension from zero rows");
        let mut fp = FlatPoints::with_capacity(rows.len(), rows[0].len());
        for r in rows {
            fp.push(r);
        }
        fp
    }
}

/// A point handle into a shared contiguous buffer (see the module docs).
///
/// `Clone` is an `Arc` bump; `AsRef<[f64]>` yields the coordinate slice, so
/// every `P: AsRef<[f64]>` metric and algorithm accepts `FlatRow` points
/// directly. Offsets are `u32` (up to 4G coordinates per buffer), keeping
/// the handle at 24 bytes — the same footprint as the `Vec<f64>` header it
/// replaces. Equal footprint is not free access: a coordinate reached
/// through its handle is two dependent loads, and scoring the ≈ 1 200
/// points one `gnet2d-batch` beam walk visits measured 6.5 µs through
/// handles against 5.2 µs straight from the buffer (2.5 µs with the kernel
/// inlined); at d = 128, 158 µs against 125 µs for ≈ 1 000 points, the
/// handle load delaying the start of each 1 KB row miss. Hence the buffer
/// path of [`FlatPoints::into_dataset`]: id-addressed distances never touch
/// the handle array.
#[derive(Debug, Clone)]
pub struct FlatRow {
    buf: Arc<[f64]>,
    start: u32,
    dim: u32,
}

impl FlatRow {
    /// The coordinate slice.
    #[inline]
    pub fn coords(&self) -> &[f64] {
        let start = self.start as usize;
        &self.buf[start..start + self.dim as usize]
    }

    /// The dimension `d`.
    pub fn dim(&self) -> usize {
        self.dim as usize
    }
}

impl AsRef<[f64]> for FlatRow {
    #[inline]
    fn as_ref(&self) -> &[f64] {
        self.coords()
    }
}

impl From<Vec<f64>> for FlatRow {
    /// Wraps a single owned point (e.g. an ad-hoc query) in its own one-row
    /// buffer.
    fn from(p: Vec<f64>) -> Self {
        let dim = p.len();
        assert!(dim >= 1, "dimension must be at least 1");
        assert!(dim <= u32::MAX as usize, "point dimension exceeds u32");
        FlatRow {
            buf: p.into(),
            start: 0,
            dim: dim as u32,
        }
    }
}

impl From<&[f64]> for FlatRow {
    fn from(p: &[f64]) -> Self {
        FlatRow::from(p.to_vec())
    }
}

impl PartialEq for FlatRow {
    /// Coordinate equality (handles into different buffers compare equal
    /// when the points coincide).
    fn eq(&self, other: &Self) -> bool {
        self.coords() == other.coords()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lp::Euclidean;

    #[test]
    fn push_row_and_iteration_round_trip() {
        let mut fp = FlatPoints::with_capacity(3, 2);
        fp.push(&[0.0, 1.0]);
        fp.push(&[2.0, 3.0]);
        fp.push(&[4.0, 5.0]);
        assert_eq!(fp.len(), 3);
        assert_eq!(fp.dim(), 2);
        assert_eq!(fp.row(1), &[2.0, 3.0]);
        assert_eq!(fp.rows().count(), 3);
        assert_eq!(fp.as_slice(), &[0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(fp.to_nested()[2], vec![4.0, 5.0]);
    }

    #[test]
    fn nested_round_trip_is_lossless() {
        let nested = vec![vec![1.5, -2.0, 0.25], vec![0.0, 7.0, 9.0]];
        let fp = FlatPoints::from(nested.clone());
        assert_eq!(fp.to_nested(), nested);
    }

    #[test]
    fn from_fn_builds_without_intermediate_rows() {
        let fp = FlatPoints::from_fn(4, 3, |i, out| {
            out.extend((0..3).map(|j| (i * 3 + j) as f64));
        });
        assert_eq!(fp.len(), 4);
        assert_eq!(fp.row(2), &[6.0, 7.0, 8.0]);
    }

    #[test]
    #[should_panic(expected = "wrong number of coordinates")]
    fn from_fn_rejects_ragged_generators() {
        let _ = FlatPoints::from_fn(2, 3, |i, out| {
            out.resize(out.len() + 3 - i, 0.0);
        });
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn push_rejects_wrong_dimension() {
        let mut fp = FlatPoints::new(2);
        fp.push(&[1.0, 2.0, 3.0]);
    }

    #[test]
    fn rows_share_one_allocation() {
        let mut fp = FlatPoints::new(2);
        fp.push(&[0.0, 0.0]);
        fp.push(&[3.0, 4.0]);
        let rows = fp.into_rows();
        assert_eq!(rows.len(), 2);
        assert!(Arc::ptr_eq(&rows[0].buf, &rows[1].buf));
        assert_eq!(rows[1].coords(), &[3.0, 4.0]);
        assert_eq!(rows[1].dim(), 2);
    }

    #[test]
    fn flat_dataset_matches_nested_distances() {
        let nested = vec![vec![0.0, 0.0], vec![3.0, 4.0], vec![6.0, 8.0]];
        let flat = FlatPoints::from(nested.clone()).into_dataset(Euclidean);
        let nest = Dataset::new(nested, Euclidean);
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(flat.dist(i, j), nest.dist(i, j));
            }
        }
        let q = FlatRow::from(vec![3.1, 3.9]);
        assert_eq!(flat.nearest_brute(&q).0, 1);
    }

    #[test]
    fn try_from_raw_round_trips_and_rejects_bad_input() {
        let fp = FlatPoints::from(vec![vec![1.0, 2.0], vec![3.0, 4.0]]);
        let back = FlatPoints::try_from_raw(fp.as_slice().to_vec(), fp.dim()).unwrap();
        assert_eq!(back, fp);
        assert!(FlatPoints::try_from_raw(vec![1.0, 2.0], 0).is_err());
        assert!(FlatPoints::try_from_raw(Vec::new(), 2).is_err());
        assert!(FlatPoints::try_from_raw(vec![1.0, 2.0, 3.0], 2).is_err());
        assert!(FlatPoints::try_from_raw(vec![1.0, f64::INFINITY], 2).is_err());
        assert!(FlatPoints::try_from_raw(vec![1.0, f64::NAN], 2).is_err());
    }

    #[test]
    fn flat_row_equality_is_coordinate_equality() {
        let a = FlatRow::from(vec![1.0, 2.0]);
        let mut fp = FlatPoints::new(2);
        fp.push(&[1.0, 2.0]);
        let b = fp.into_rows().pop().unwrap();
        assert_eq!(a, b);
        assert_ne!(a, FlatRow::from(vec![1.0, 2.5]));
    }
}
