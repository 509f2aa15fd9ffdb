//! Compact (reduced-precision) point storage: `f32` and 8-bit scalar
//! quantization (SQ8) behind one [`CompactPoints`] / [`Quantized`]
//! abstraction.
//!
//! Every hot path in this workspace is `f64` by default; at scale the QPS
//! ceiling is set by memory bandwidth, not arithmetic, so halving
//! ([`F32Points`]) or quartering-and-then-halving-again ([`Sq8Points`],
//! one byte per coordinate) the bytes streamed per distance evaluation is
//! the next multiplier after the eight-lane kernels of [`crate::lp`].
//!
//! # The re-rank contract
//!
//! Compact storage is a **navigation surrogate only**. A quantized search
//! walks the graph comparing [`Quantized::surrogate`] values (squared
//! Euclidean distance in the compact representation), but before any result
//! is reported the whole candidate set is **re-ranked with exact `f64`
//! distances** against the original points and only then truncated to `k`.
//! Consequences, pinned by `tests/proptest_quant.rs`:
//!
//! * reported distances are always exact — quantization can only affect
//!   *which* candidates the walk gathers, never the correctness of their
//!   reported order or values;
//! * whenever the candidate set contains the exact top-`k`, the re-ranked
//!   top-`k` **equals** the exact `f64` top-`k`, ids and distances alike;
//! * recall is therefore measurable through `pg_eval` exactly like every
//!   full-precision configuration.
//!
//! # SQ8 codes
//!
//! [`Sq8Points`] stores per-dimension affine codes: dimension `j` keeps
//! `min_j` and `step_j = (max_j - min_j) / 255`, and a coordinate `x`
//! encodes as `round((x - min_j) / step_j)` clamped to `0..=255`. Decoding
//! returns `min_j + code * step_j`, so the round-trip error is at most
//! `step_j / 2` per dimension. A constant dimension (`min_j == max_j`)
//! has `step_j == 0`, encodes as code `0`, and decodes **exactly**.
//!
//! Queries stay `f64` (asymmetric distance): only the stored side is
//! quantized, which halves the quantization noise versus coding both sides
//! and costs nothing — the query is decoded zero times.

/// Which compact representation to use. The `f64` path is not listed here:
/// full precision is the *reference* representation, stored in
/// [`FlatPoints`](crate::FlatPoints) and never behind this abstraction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuantKind {
    /// IEEE-754 single precision, 4 bytes per coordinate.
    F32,
    /// 8-bit scalar quantization with per-dimension affine codes.
    Sq8,
}

impl QuantKind {
    /// Stable lowercase name (used in experiment tables and artifacts).
    pub fn name(self) -> &'static str {
        match self {
            QuantKind::F32 => "f32",
            QuantKind::Sq8 => "sq8",
        }
    }
}

/// A query prepared once for repeated surrogate evaluations against one
/// compact representation. Construct with [`Quantized::prepare`]; the
/// variant always matches the storage that produced it.
#[derive(Debug, Clone)]
pub enum PreparedQuery {
    /// The query cast to `f32` once (for [`F32Points`]; casting per
    /// evaluation would waste the bandwidth the representation saves).
    F32(Vec<f32>),
    /// The query kept in `f64` (for [`Sq8Points`]; SQ8 distances are
    /// asymmetric — exact query vs decoded codes).
    F64(Vec<f64>),
}

impl PreparedQuery {
    /// Dimensionality of the prepared query.
    pub fn dim(&self) -> usize {
        match self {
            PreparedQuery::F32(q) => q.len(),
            PreparedQuery::F64(q) => q.len(),
        }
    }
}

/// A compact, id-addressed point store that can evaluate a squared-`L_2`
/// **navigation surrogate** between a stored point and a prepared query.
///
/// The surrogate is deterministic (a pure function of the stored codes and
/// the query — bit-identical across thread counts by construction) and
/// approximates squared Euclidean distance; it is *never* reported. See the
/// module docs for the re-rank contract that keeps reported results exact.
pub trait Quantized {
    /// Number of stored points.
    fn len(&self) -> usize;

    /// `true` when no points are stored. (Encoders reject empty input, so
    /// this is `false` for every constructed value; the method exists for
    /// API completeness.)
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Dimensionality of the stored points.
    fn dim(&self) -> usize;

    /// Prepares a `f64` query for repeated [`Quantized::surrogate`] calls.
    ///
    /// # Panics
    /// If `q.len() != self.dim()`.
    fn prepare(&self, q: &[f64]) -> PreparedQuery;

    /// Squared-`L_2` surrogate between stored point `i` and a query
    /// prepared by **this** store.
    ///
    /// # Panics
    /// If `i` is out of range or the prepared query came from a store of a
    /// different representation or dimensionality.
    fn surrogate(&self, i: usize, q: &PreparedQuery) -> f64;

    /// Appends the decoded (approximate `f64`) coordinates of point `i`
    /// into `out` after clearing it.
    ///
    /// # Panics
    /// If `i` is out of range.
    fn decode_row(&self, i: usize, out: &mut Vec<f64>);

    /// The compact representation stored here.
    fn kind(&self) -> QuantKind;
}

/// Squared Euclidean distance on `f32` slices: the [`F32Points`] navigation
/// kernel. Eight-lane unrolled exactly like [`crate::lp::l2_squared`], with
/// `f32` lane accumulators (the representation's own precision — the exact
/// re-rank makes wider accumulation pointless on the navigation path).
#[inline]
pub fn l2_squared_f32(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len(), "dimension mismatch");
    let mut ca = a.chunks_exact(8);
    let mut cb = b.chunks_exact(8);
    let mut s = [0.0f32; 8];
    for (xa, xb) in ca.by_ref().zip(cb.by_ref()) {
        let (xa, xb): (&[f32; 8], &[f32; 8]) = (xa.try_into().unwrap(), xb.try_into().unwrap());
        for l in 0..8 {
            let d = xa[l] - xb[l];
            s[l] += d * d;
        }
    }
    let mut tail = 0.0f32;
    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
        let d = x - y;
        tail += d * d;
    }
    (((s[0] + s[1]) + (s[2] + s[3])) + ((s[4] + s[5]) + (s[6] + s[7]))) + tail
}

/// Squared Euclidean distance between a `f64` query and one SQ8-coded row,
/// decoding on the fly: `diff_j = q[j] - (min_j + code_j * step_j)`.
/// Eight-lane unrolled with `f64` accumulators (the decode is already
/// `f64`; there is no narrower representation to stay in).
#[inline]
fn sq8_row_surrogate(codes: &[u8], mins: &[f64], steps: &[f64], q: &[f64]) -> f64 {
    debug_assert_eq!(codes.len(), q.len(), "dimension mismatch");
    let mut cc = codes.chunks_exact(8);
    let mut cm = mins.chunks_exact(8);
    let mut cs = steps.chunks_exact(8);
    let mut cq = q.chunks_exact(8);
    let mut s = [0.0f64; 8];
    for (((xc, xm), xs), xq) in cc
        .by_ref()
        .zip(cm.by_ref())
        .zip(cs.by_ref())
        .zip(cq.by_ref())
    {
        let xc: &[u8; 8] = xc.try_into().unwrap();
        let xm: &[f64; 8] = xm.try_into().unwrap();
        let xs: &[f64; 8] = xs.try_into().unwrap();
        let xq: &[f64; 8] = xq.try_into().unwrap();
        for l in 0..8 {
            let d = xq[l] - (xm[l] + f64::from(xc[l]) * xs[l]);
            s[l] += d * d;
        }
    }
    let mut tail = 0.0;
    for (((c, m), st), x) in cc
        .remainder()
        .iter()
        .zip(cm.remainder())
        .zip(cs.remainder())
        .zip(cq.remainder())
    {
        let d = x - (m + f64::from(*c) * st);
        tail += d * d;
    }
    (((s[0] + s[1]) + (s[2] + s[3])) + ((s[4] + s[5]) + (s[6] + s[7]))) + tail
}

/// Validates a rectangular `f64` row set for encoding: at least one row,
/// `dim >= 1`, every row of the same dimensionality, every coordinate
/// finite. Returns `(n, dim)`.
fn check_rows<R: AsRef<[f64]>>(rows: &[R]) -> Result<(usize, usize), String> {
    let first = rows
        .first()
        .ok_or_else(|| "cannot encode an empty point set".to_string())?;
    let dim = first.as_ref().len();
    if dim == 0 {
        return Err("cannot encode zero-dimensional points".to_string());
    }
    for (i, row) in rows.iter().enumerate() {
        let row = row.as_ref();
        if row.len() != dim {
            return Err(format!(
                "row {i} has {} coordinates, expected {dim}",
                row.len()
            ));
        }
        if let Some(x) = row.iter().find(|x| !x.is_finite()) {
            return Err(format!("row {i} has a non-finite coordinate {x}"));
        }
    }
    Ok((rows.len(), dim))
}

/// Contiguous row-major `f32` points: the stored side of the half-width
/// representation. See the module docs for where it sits in the search.
#[derive(Debug, Clone, PartialEq)]
pub struct F32Points {
    data: Vec<f32>,
    dim: usize,
}

impl F32Points {
    /// Encodes a rectangular set of `f64` rows by casting each coordinate
    /// to `f32` (round-to-nearest-even, the IEEE default).
    pub fn from_rows<R: AsRef<[f64]>>(rows: &[R]) -> Result<Self, String> {
        let (_, dim) = check_rows(rows)?;
        let mut data = Vec::with_capacity(rows.len() * dim);
        for row in rows {
            data.extend(row.as_ref().iter().map(|&x| x as f32));
        }
        Ok(F32Points { data, dim })
    }

    /// The raw row-major coordinates.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Row `i` as a `f32` slice.
    ///
    /// # Panics
    /// If `i` is out of range.
    pub fn row(&self, i: usize) -> &[f32] {
        &self.data[i * self.dim..(i + 1) * self.dim]
    }
}

impl Quantized for F32Points {
    fn len(&self) -> usize {
        self.data.len() / self.dim
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn prepare(&self, q: &[f64]) -> PreparedQuery {
        assert_eq!(q.len(), self.dim, "query dimension mismatch");
        PreparedQuery::F32(q.iter().map(|&x| x as f32).collect())
    }

    fn surrogate(&self, i: usize, q: &PreparedQuery) -> f64 {
        match q {
            PreparedQuery::F32(q) => f64::from(l2_squared_f32(self.row(i), q)),
            PreparedQuery::F64(_) => {
                panic!("PreparedQuery::F64 used against F32Points; prepare() on the right store")
            }
        }
    }

    fn decode_row(&self, i: usize, out: &mut Vec<f64>) {
        out.clear();
        out.extend(self.row(i).iter().map(|&x| f64::from(x)));
    }

    fn kind(&self) -> QuantKind {
        QuantKind::F32
    }
}

/// 8-bit scalar-quantized points with per-dimension affine codes (see the
/// module docs for the code definition and error bound).
#[derive(Debug, Clone, PartialEq)]
pub struct Sq8Points {
    codes: Vec<u8>,
    mins: Vec<f64>,
    steps: Vec<f64>,
    dim: usize,
}

impl Sq8Points {
    /// Trains per-dimension `[min, max]` ranges on `rows` and encodes them.
    pub fn from_rows<R: AsRef<[f64]>>(rows: &[R]) -> Result<Self, String> {
        let (n, dim) = check_rows(rows)?;
        let mut mins = vec![f64::INFINITY; dim];
        let mut maxs = vec![f64::NEG_INFINITY; dim];
        for row in rows {
            for (j, &x) in row.as_ref().iter().enumerate() {
                if x < mins[j] {
                    mins[j] = x;
                }
                if x > maxs[j] {
                    maxs[j] = x;
                }
            }
        }
        let steps: Vec<f64> = mins
            .iter()
            .zip(&maxs)
            .map(|(lo, hi)| (hi - lo) / 255.0)
            .collect();
        let mut codes = Vec::with_capacity(n * dim);
        for row in rows {
            for (j, &x) in row.as_ref().iter().enumerate() {
                codes.push(Self::encode_one(x, mins[j], steps[j]));
            }
        }
        Ok(Sq8Points {
            codes,
            mins,
            steps,
            dim,
        })
    }

    /// One affine code: `round((x - min) / step)` clamped to `0..=255`;
    /// a zero step (constant dimension) always codes as `0`.
    fn encode_one(x: f64, min: f64, step: f64) -> u8 {
        if step > 0.0 {
            ((x - min) / step).round().clamp(0.0, 255.0) as u8
        } else {
            0
        }
    }

    /// The raw codes, row-major.
    pub fn codes(&self) -> &[u8] {
        &self.codes
    }

    /// Per-dimension range minima.
    pub fn mins(&self) -> &[f64] {
        &self.mins
    }

    /// Per-dimension code steps; `step(j) == 0` marks a constant dimension.
    pub fn steps(&self) -> &[f64] {
        &self.steps
    }

    /// Row `i` as a code slice.
    ///
    /// # Panics
    /// If `i` is out of range.
    pub fn row(&self, i: usize) -> &[u8] {
        &self.codes[i * self.dim..(i + 1) * self.dim]
    }
}

impl Quantized for Sq8Points {
    fn len(&self) -> usize {
        self.codes.len() / self.dim
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn prepare(&self, q: &[f64]) -> PreparedQuery {
        assert_eq!(q.len(), self.dim, "query dimension mismatch");
        PreparedQuery::F64(q.to_vec())
    }

    fn surrogate(&self, i: usize, q: &PreparedQuery) -> f64 {
        match q {
            PreparedQuery::F64(q) => sq8_row_surrogate(self.row(i), &self.mins, &self.steps, q),
            PreparedQuery::F32(_) => {
                panic!("PreparedQuery::F32 used against Sq8Points; prepare() on the right store")
            }
        }
    }

    fn decode_row(&self, i: usize, out: &mut Vec<f64>) {
        out.clear();
        out.extend(
            self.row(i)
                .iter()
                .zip(&self.mins)
                .zip(&self.steps)
                .map(|((&c, min), step)| min + f64::from(c) * step),
        );
    }

    fn kind(&self) -> QuantKind {
        QuantKind::Sq8
    }
}

/// The closed set of compact representations an engine can search: one
/// enum so call sites (engine, sharded merge, snapshot checks, adapters)
/// dispatch without a generic parameter.
#[derive(Debug, Clone, PartialEq)]
pub enum CompactPoints {
    /// Half-width floating point.
    F32(F32Points),
    /// 8-bit scalar quantization.
    Sq8(Sq8Points),
}

impl CompactPoints {
    /// Encodes `rows` into the representation `kind`.
    pub fn from_rows<R: AsRef<[f64]>>(kind: QuantKind, rows: &[R]) -> Result<Self, String> {
        match kind {
            QuantKind::F32 => F32Points::from_rows(rows).map(CompactPoints::F32),
            QuantKind::Sq8 => Sq8Points::from_rows(rows).map(CompactPoints::Sq8),
        }
    }
}

impl Quantized for CompactPoints {
    fn len(&self) -> usize {
        match self {
            CompactPoints::F32(p) => p.len(),
            CompactPoints::Sq8(p) => p.len(),
        }
    }

    fn dim(&self) -> usize {
        match self {
            CompactPoints::F32(p) => p.dim(),
            CompactPoints::Sq8(p) => p.dim(),
        }
    }

    fn prepare(&self, q: &[f64]) -> PreparedQuery {
        match self {
            CompactPoints::F32(p) => p.prepare(q),
            CompactPoints::Sq8(p) => p.prepare(q),
        }
    }

    fn surrogate(&self, i: usize, q: &PreparedQuery) -> f64 {
        match self {
            CompactPoints::F32(p) => p.surrogate(i, q),
            CompactPoints::Sq8(p) => p.surrogate(i, q),
        }
    }

    fn decode_row(&self, i: usize, out: &mut Vec<f64>) {
        match self {
            CompactPoints::F32(p) => p.decode_row(i, out),
            CompactPoints::Sq8(p) => p.decode_row(i, out),
        }
    }

    fn kind(&self) -> QuantKind {
        match self {
            CompactPoints::F32(p) => p.kind(),
            CompactPoints::Sq8(p) => p.kind(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn random_rows(n: usize, d: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| (0..d).map(|_| rng.random_range(-50.0..50.0)).collect())
            .collect()
    }

    /// Single-accumulator references; the unrolled kernels are pinned
    /// against these (exactly on integer inputs, 1e-12 relative otherwise —
    /// only the summation order differs), mirroring the `lp` kernel tests.
    fn l2_squared_f32_scalar(a: &[f32], b: &[f32]) -> f32 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y) * (x - y))
            .fold(0.0, |acc, v| acc + v)
    }

    fn sq8_scalar(codes: &[u8], mins: &[f64], steps: &[f64], q: &[f64]) -> f64 {
        codes
            .iter()
            .enumerate()
            .map(|(j, &c)| {
                let d = q[j] - (mins[j] + f64::from(c) * steps[j]);
                d * d
            })
            .fold(0.0, |acc, v| acc + v)
    }

    #[test]
    fn f32_kernel_matches_scalar_reference() {
        let mut rng = StdRng::seed_from_u64(7);
        for d in [1usize, 3, 7, 8, 9, 16, 31, 64, 100] {
            let a: Vec<f32> = (0..d)
                .map(|_| rng.random_range(-10.0..10.0) as f32)
                .collect();
            let b: Vec<f32> = (0..d)
                .map(|_| rng.random_range(-10.0..10.0) as f32)
                .collect();
            let fast = l2_squared_f32(&a, &b);
            let slow = l2_squared_f32_scalar(&a, &b);
            let tol = 1e-5 * slow.abs().max(1.0);
            assert!((fast - slow).abs() <= tol, "d={d}: {fast} vs {slow}");

            // Integer-valued inputs: both orders sum exactly representable
            // squares, so the kernels agree bit-for-bit.
            let ai: Vec<f32> = (0..d).map(|_| rng.random_range(-9i32..9) as f32).collect();
            let bi: Vec<f32> = (0..d).map(|_| rng.random_range(-9i32..9) as f32).collect();
            assert_eq!(l2_squared_f32(&ai, &bi), l2_squared_f32_scalar(&ai, &bi));
        }
    }

    #[test]
    fn sq8_kernel_matches_scalar_reference() {
        let mut rng = StdRng::seed_from_u64(8);
        for d in [1usize, 5, 8, 13, 24, 65] {
            let rows = random_rows(20, d, 100 + d as u64);
            let p = Sq8Points::from_rows(&rows).unwrap();
            let q: Vec<f64> = (0..d).map(|_| rng.random_range(-50.0..50.0)).collect();
            for i in 0..p.len() {
                let fast = sq8_row_surrogate(p.row(i), p.mins(), p.steps(), &q);
                let slow = sq8_scalar(p.row(i), p.mins(), p.steps(), &q);
                let tol = 1e-12 * slow.abs().max(1.0);
                assert!((fast - slow).abs() <= tol, "d={d} i={i}: {fast} vs {slow}");
            }
        }
    }

    #[test]
    fn sq8_round_trip_error_is_bounded_by_half_a_step() {
        let rows = random_rows(64, 12, 3);
        let p = Sq8Points::from_rows(&rows).unwrap();
        let mut decoded = Vec::new();
        for (i, row) in rows.iter().enumerate() {
            p.decode_row(i, &mut decoded);
            for (j, (&x, &y)) in row.iter().zip(&decoded).enumerate() {
                let bound = p.steps()[j] / 2.0 * (1.0 + 1e-9) + 1e-12;
                assert!(
                    (x - y).abs() <= bound,
                    "point {i} dim {j}: |{x} - {y}| > {bound}"
                );
            }
        }
    }

    #[test]
    fn sq8_constant_dimension_decodes_exactly() {
        // Dimension 1 is constant (min == max => step == 0 => code 0).
        let rows: Vec<Vec<f64>> = vec![vec![1.0, 42.5], vec![2.0, 42.5], vec![-3.0, 42.5]];
        let p = Sq8Points::from_rows(&rows).unwrap();
        assert_eq!(p.steps()[1], 0.0);
        let mut decoded = Vec::new();
        for (i, row) in rows.iter().enumerate() {
            p.decode_row(i, &mut decoded);
            assert_eq!(decoded[1], row[1], "constant dim must round-trip exactly");
        }
    }

    #[test]
    fn f32_decode_is_the_ieee_cast() {
        let rows = random_rows(10, 5, 4);
        let p = F32Points::from_rows(&rows).unwrap();
        let mut decoded = Vec::new();
        for (i, row) in rows.iter().enumerate() {
            p.decode_row(i, &mut decoded);
            for (&x, &y) in row.iter().zip(&decoded) {
                assert_eq!(y, f64::from(x as f32));
            }
        }
    }

    #[test]
    fn surrogates_approximate_the_exact_squared_distance() {
        let rows = random_rows(40, 16, 5);
        let q: Vec<f64> = random_rows(1, 16, 6).pop().unwrap();
        let exact: Vec<f64> = rows.iter().map(|r| crate::lp::l2_squared(r, &q)).collect();
        for kind in [QuantKind::F32, QuantKind::Sq8] {
            let p = CompactPoints::from_rows(kind, &rows).unwrap();
            let pq = p.prepare(&q);
            for (i, &e) in exact.iter().enumerate() {
                let s = p.surrogate(i, &pq);
                // Coordinates span ~[-50, 50]: SQ8 steps are <= 100/255, so
                // relative surrogate error stays small on this scale.
                assert!(
                    (s - e).abs() <= 0.05 * e.max(1.0),
                    "{} point {i}: surrogate {s} vs exact {e}",
                    kind.name()
                );
            }
        }
    }

    #[test]
    fn degenerate_shapes_encode_and_evaluate() {
        // A single point, d = 1, signed zero and a subnormal coordinate.
        for kind in [QuantKind::F32, QuantKind::Sq8] {
            let single = vec![vec![-0.0, f64::MIN_POSITIVE / 2.0, 3.5]];
            let p = CompactPoints::from_rows(kind, &single).unwrap();
            assert_eq!((p.len(), p.dim()), (1, 3));
            let pq = p.prepare(&[0.0, 0.0, 3.5]);
            let s = p.surrogate(0, &pq);
            assert!(s.is_finite() && s.abs() < 1e-9, "{}: {s}", kind.name());

            let d1 = vec![vec![1.0], vec![4.0]];
            let p = CompactPoints::from_rows(kind, &d1).unwrap();
            let pq = p.prepare(&[1.0]);
            assert!(p.surrogate(0, &pq) < p.surrogate(1, &pq));
        }
    }

    #[test]
    fn encoders_reject_malformed_input() {
        let empty: Vec<Vec<f64>> = Vec::new();
        let ragged = vec![vec![1.0, 2.0], vec![3.0]];
        let nan = vec![vec![1.0, f64::NAN]];
        for kind in [QuantKind::F32, QuantKind::Sq8] {
            assert!(CompactPoints::from_rows(kind, &empty).is_err());
            assert!(CompactPoints::from_rows(kind, &ragged).is_err());
            assert!(CompactPoints::from_rows(kind, &nan).is_err());
        }
    }
}
