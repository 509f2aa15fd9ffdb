//! `L_p` metrics on `R^d`.
//!
//! The paper works with a general metric space `(M, D)` and specializes to
//! `(R^d, L_2)` in Section 5 and `(R^d, L_inf)` in Section 4. All three
//! metrics here accept any point type that can be viewed as `&[f64]`
//! (`Vec<f64>`, `[f64; N]`, slices, [`FlatRow`](crate::FlatRow)), so datasets
//! can store whatever layout is convenient — the contiguous
//! [`FlatPoints`](crate::FlatPoints) layout being the fast one.
//!
//! # Kernels
//!
//! The free functions ([`l2_squared`], [`l2`], [`l1`], [`linf`]) are the
//! workspace's distance kernels. They accumulate in **eight independent
//! lanes** plus a scalar remainder, which breaks the loop-carried dependency
//! chain of the naive loop (the add/max latency, not throughput, bounds the
//! naive loop) and lets LLVM auto-vectorize without any target-feature gates
//! or external dependencies. The unit tests keep the original
//! single-accumulator loops (`*_scalar`) as a reference and pin the unrolled
//! kernels against them: exactly on integer-valued inputs, to relative
//! `1e-12` otherwise — only the summation *order* differs.

use crate::metric::Metric;

/// The Euclidean metric `L_2(p, q) = sqrt(sum_i (p[i] - q[i])^2)`.
///
/// Its [`Metric::surrogate`] is the **squared** distance ([`l2_squared`]):
/// comparison-only code paths (greedy routing, beam search, brute-force
/// selection) skip the `sqrt` entirely and pay it once per reported value.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Euclidean;

/// The Chebyshev metric `L_inf(p, q) = max_i |p[i] - q[i]|`.
///
/// Used by the hard instance of Section 4, whose data-to-data distances are
/// `L_inf` on integer blocks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Chebyshev;

/// The Manhattan metric `L_1(p, q) = sum_i |p[i] - q[i]|`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Manhattan;

/// Squared Euclidean distance; **not** a metric (fails the triangle
/// inequality) but the monotone comparison surrogate of [`Euclidean`]:
/// `a < b` iff `sqrt(a) < sqrt(b)`, and exact `f64` ties coincide, so any
/// ordering decision made on squared values agrees with the true metric.
///
/// Eight-lane unrolled; see the module docs.
#[inline]
pub fn l2_squared(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "dimension mismatch");
    let mut ca = a.chunks_exact(8);
    let mut cb = b.chunks_exact(8);
    let mut s = [0.0f64; 8];
    for (xa, xb) in ca.by_ref().zip(cb.by_ref()) {
        // Fixed-size views: no per-lane bounds checks, clean vector lowering.
        let (xa, xb): (&[f64; 8], &[f64; 8]) = (xa.try_into().unwrap(), xb.try_into().unwrap());
        for l in 0..8 {
            let d = xa[l] - xb[l];
            s[l] += d * d;
        }
    }
    let mut tail = 0.0;
    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
        let d = x - y;
        tail += d * d;
    }
    (((s[0] + s[1]) + (s[2] + s[3])) + ((s[4] + s[5]) + (s[6] + s[7]))) + tail
}

/// Euclidean distance on raw slices: `sqrt` of [`l2_squared`].
#[inline]
pub fn l2(a: &[f64], b: &[f64]) -> f64 {
    l2_squared(a, b).sqrt()
}

/// Chebyshev distance on raw slices. Eight-lane unrolled; `max` over finite
/// values is exact and order-independent, so this is bit-identical to the
/// single-accumulator loop on the finite inputs metrics require. The lane
/// update is written as a compare-and-select (not `f64::max`) so it lowers
/// to the packed-max instruction.
#[inline]
pub fn linf(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "dimension mismatch");
    let mut ca = a.chunks_exact(8);
    let mut cb = b.chunks_exact(8);
    let mut m = [0.0f64; 8];
    for (xa, xb) in ca.by_ref().zip(cb.by_ref()) {
        let (xa, xb): (&[f64; 8], &[f64; 8]) = (xa.try_into().unwrap(), xb.try_into().unwrap());
        for l in 0..8 {
            let v = (xa[l] - xb[l]).abs();
            m[l] = if v > m[l] { v } else { m[l] };
        }
    }
    let mut tail: f64 = 0.0;
    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
        tail = tail.max((x - y).abs());
    }
    (((m[0].max(m[1])).max(m[2].max(m[3]))).max((m[4].max(m[5])).max(m[6].max(m[7])))).max(tail)
}

/// Manhattan distance on raw slices. Eight-lane unrolled; see module docs.
#[inline]
pub fn l1(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "dimension mismatch");
    let mut ca = a.chunks_exact(8);
    let mut cb = b.chunks_exact(8);
    let mut s = [0.0f64; 8];
    for (xa, xb) in ca.by_ref().zip(cb.by_ref()) {
        let (xa, xb): (&[f64; 8], &[f64; 8]) = (xa.try_into().unwrap(), xb.try_into().unwrap());
        for l in 0..8 {
            s[l] += (xa[l] - xb[l]).abs();
        }
    }
    let mut tail = 0.0;
    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
        tail += (x - y).abs();
    }
    (((s[0] + s[1]) + (s[2] + s[3])) + ((s[4] + s[5]) + (s[6] + s[7]))) + tail
}

/// The kernel of an `L_p` metric on coordinate slices — what
/// [`Metric::lp_kernel`] names. Its two methods are the metric's own
/// `surrogate` and `dist`, bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lp {
    /// [`Manhattan`]: [`l1`] for both.
    L1,
    /// [`Euclidean`]: [`l2_squared`] as the surrogate, [`l2`] as the distance.
    L2,
    /// [`Chebyshev`]: [`linf`] for both.
    LInf,
}

impl Lp {
    /// The metric's [`Metric::surrogate`] of two coordinate slices.
    #[inline]
    pub fn surrogate(self, a: &[f64], b: &[f64]) -> f64 {
        match self {
            Lp::L1 => l1(a, b),
            Lp::L2 => l2_squared(a, b),
            Lp::LInf => linf(a, b),
        }
    }

    /// The metric's [`Metric::dist`] of two coordinate slices.
    #[inline]
    pub fn dist(self, a: &[f64], b: &[f64]) -> f64 {
        match self {
            Lp::L2 => l2(a, b),
            other => other.surrogate(a, b),
        }
    }
}

impl<P: AsRef<[f64]> + ?Sized> Metric<P> for Euclidean {
    #[inline]
    fn dist(&self, a: &P, b: &P) -> f64 {
        l2(a.as_ref(), b.as_ref())
    }

    #[inline]
    fn surrogate(&self, a: &P, b: &P) -> f64 {
        l2_squared(a.as_ref(), b.as_ref())
    }

    #[inline]
    fn dist_from_surrogate(&self, s: f64) -> f64 {
        s.sqrt()
    }

    #[inline]
    fn lp_kernel(&self) -> Option<Lp> {
        Some(Lp::L2)
    }
}

impl<P: AsRef<[f64]> + ?Sized> Metric<P> for Chebyshev {
    #[inline]
    fn dist(&self, a: &P, b: &P) -> f64 {
        linf(a.as_ref(), b.as_ref())
    }

    #[inline]
    fn lp_kernel(&self) -> Option<Lp> {
        Some(Lp::LInf)
    }
}

impl<P: AsRef<[f64]> + ?Sized> Metric<P> for Manhattan {
    #[inline]
    fn dist(&self, a: &P, b: &P) -> f64 {
        l1(a.as_ref(), b.as_ref())
    }

    #[inline]
    fn lp_kernel(&self) -> Option<Lp> {
        Some(Lp::L1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference single-accumulator squared-Euclidean loop (the seed's
    /// kernel), kept as what [`l2_squared`] is pinned against.
    fn l2_squared_scalar(a: &[f64], b: &[f64]) -> f64 {
        debug_assert_eq!(a.len(), b.len(), "dimension mismatch");
        let mut acc = 0.0;
        for (x, y) in a.iter().zip(b.iter()) {
            let d = x - y;
            acc += d * d;
        }
        acc
    }

    /// Reference scalar Chebyshev loop; see [`l2_squared_scalar`].
    fn linf_scalar(a: &[f64], b: &[f64]) -> f64 {
        debug_assert_eq!(a.len(), b.len(), "dimension mismatch");
        let mut acc: f64 = 0.0;
        for (x, y) in a.iter().zip(b.iter()) {
            acc = acc.max((x - y).abs());
        }
        acc
    }

    /// Reference scalar Manhattan loop; see [`l2_squared_scalar`].
    fn l1_scalar(a: &[f64], b: &[f64]) -> f64 {
        debug_assert_eq!(a.len(), b.len(), "dimension mismatch");
        let mut acc = 0.0;
        for (x, y) in a.iter().zip(b.iter()) {
            acc += (x - y).abs();
        }
        acc
    }

    #[test]
    fn l2_matches_hand_computation() {
        assert_eq!(l2(&[0.0, 0.0], &[3.0, 4.0]), 5.0);
        assert_eq!(l2(&[1.0], &[1.0]), 0.0);
    }

    #[test]
    fn linf_matches_hand_computation() {
        assert_eq!(linf(&[0.0, 0.0], &[3.0, 4.0]), 4.0);
        assert_eq!(linf(&[-1.0, 2.0], &[1.0, 2.5]), 2.0);
    }

    #[test]
    fn l1_matches_hand_computation() {
        assert_eq!(l1(&[0.0, 0.0], &[3.0, 4.0]), 7.0);
    }

    #[test]
    fn norm_ordering_l_inf_le_l2_le_l1() {
        let a = [0.3, -1.2, 4.5, 0.0];
        let b = [-2.0, 0.7, 3.3, 9.1];
        assert!(linf(&a, &b) <= l2(&a, &b) + 1e-12);
        assert!(l2(&a, &b) <= l1(&a, &b) + 1e-12);
    }

    #[test]
    fn works_on_vec_and_array_points() {
        let v1 = vec![1.0, 2.0];
        let v2 = vec![4.0, 6.0];
        assert_eq!(Euclidean.dist(&v1, &v2), 5.0);
        let a1 = [1.0, 2.0];
        let a2 = [4.0, 6.0];
        assert_eq!(Euclidean.dist(&a1, &a2), 5.0);
    }

    /// Deterministic pseudo-random coordinates (SplitMix64 bits mapped into
    /// [-8, 8)) so the kernel pinning sweeps need no RNG dependency.
    fn coords(seed: u64, len: usize) -> Vec<f64> {
        let mut state = seed;
        (0..len)
            .map(|_| {
                state = state.wrapping_add(0x9E3779B97F4A7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
                z ^= z >> 31;
                (z >> 11) as f64 / (1u64 << 53) as f64 * 16.0 - 8.0
            })
            .collect()
    }

    #[test]
    fn unrolled_kernels_match_scalar_on_odd_dims_and_remainders() {
        // d = 1, 3, 5, 7 exercise the pure-remainder and chunk+remainder
        // paths; 4 and 8 the exact-chunk path; 13 a longer mixed case.
        for d in [1usize, 2, 3, 4, 5, 6, 7, 8, 13, 32, 129] {
            let a = coords(2 * d as u64 + 1, d);
            let b = coords(7 * d as u64 + 5, d);
            let (s, sr) = (l2_squared(&a, &b), l2_squared_scalar(&a, &b));
            assert!(
                (s - sr).abs() <= 1e-12 * sr.abs().max(1.0),
                "l2_squared diverged at d={d}: {s} vs {sr}"
            );
            let (s, sr) = (l1(&a, &b), l1_scalar(&a, &b));
            assert!(
                (s - sr).abs() <= 1e-12 * sr.abs().max(1.0),
                "l1 diverged at d={d}: {s} vs {sr}"
            );
            // max has no rounding: bit-identical for every length.
            assert_eq!(linf(&a, &b), linf_scalar(&a, &b), "linf diverged at d={d}");
        }
    }

    #[test]
    fn unrolled_kernels_exact_on_integer_coordinates() {
        // Integer-valued inputs make every partial sum exact, so unrolled
        // and scalar summation orders must agree to the bit.
        for d in [1usize, 3, 4, 5, 7, 8, 11] {
            let a: Vec<f64> = (0..d).map(|i| (i as f64) * 3.0 - 7.0).collect();
            let b: Vec<f64> = (0..d).map(|i| (i as f64 * i as f64) - 2.0).collect();
            assert_eq!(l2_squared(&a, &b), l2_squared_scalar(&a, &b), "d={d}");
            assert_eq!(l1(&a, &b), l1_scalar(&a, &b), "d={d}");
            assert_eq!(linf(&a, &b), linf_scalar(&a, &b), "d={d}");
        }
    }

    /// Pins P = Vec<f64>: the surrogate-mapping method alone does not
    /// mention the point type, so concrete calls need a bounded context.
    fn round_trip<M: Metric<Vec<f64>>>(m: &M, a: &Vec<f64>, b: &Vec<f64>) -> (f64, f64, f64) {
        let s = m.surrogate(a, b);
        (s, m.dist_from_surrogate(s), m.dist(a, b))
    }

    #[test]
    fn euclidean_surrogate_is_consistent_with_dist() {
        let a = coords(11, 9);
        let b = coords(12, 9);
        let (s, via_surrogate, direct) = round_trip(&Euclidean, &a, &b);
        assert_eq!(s, l2_squared(&a, &b));
        // Contract 1: bit-identical round-trip.
        assert_eq!(via_surrogate, direct);
        // Defaults on the other metrics: surrogate == dist, identity map.
        let (s1, via1, direct1) = round_trip(&Manhattan, &a, &b);
        assert_eq!(s1, direct1);
        assert_eq!(via1, s1);
    }

    #[test]
    fn surrogate_forwards_through_references() {
        let a = vec![0.0, 0.0];
        let b = vec![3.0, 4.0];
        let (s, via_surrogate, direct) = round_trip(&&Euclidean, &a, &b);
        assert_eq!(s, 25.0);
        assert_eq!(via_surrogate, 5.0);
        assert_eq!(direct, 5.0);
    }
}
