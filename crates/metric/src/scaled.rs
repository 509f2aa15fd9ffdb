//! Uniform rescaling of a metric.
//!
//! Sections 2.1 and 5 normalize the input so that the smallest inter-point
//! distance is 2 ("as can be achieved by scaling D appropriately"), which
//! makes the aspect ratio `Δ = diam(P) / 2`. [`Scaled`] performs exactly that
//! normalization without touching the stored points.

use crate::metric::Metric;

/// A metric multiplied by a positive constant factor.
///
/// Scaling preserves all metric axioms, nets scale accordingly, and greedy
/// routing is invariant under it, so `Scaled` is safe to use anywhere a
/// metric is expected.
#[derive(Debug, Clone, Copy)]
pub struct Scaled<M> {
    inner: M,
    factor: f64,
}

impl<M> Scaled<M> {
    /// Scales `inner` by `factor` (> 0).
    pub fn new(inner: M, factor: f64) -> Self {
        assert!(
            factor.is_finite() && factor > 0.0,
            "scale factor must be positive and finite"
        );
        Scaled { inner, factor }
    }

    /// The scale factor.
    pub fn factor(&self) -> f64 {
        self.factor
    }

    /// The wrapped metric.
    pub fn inner(&self) -> &M {
        &self.inner
    }
}

impl<P: ?Sized, M: Metric<P>> Metric<P> for Scaled<M> {
    #[inline]
    fn dist(&self, a: &P, b: &P) -> f64 {
        self.factor * self.inner.dist(a, b)
    }

    /// Scaling by a positive factor preserves order, so the inner metric's
    /// surrogate works unscaled — the fast comparison path (e.g. squared
    /// Euclidean) survives the wrapper.
    #[inline]
    fn surrogate(&self, a: &P, b: &P) -> f64 {
        self.inner.surrogate(a, b)
    }

    #[inline]
    fn dist_from_surrogate(&self, s: f64) -> f64 {
        self.factor * self.inner.dist_from_surrogate(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lp::Euclidean;
    use crate::metric::axioms;

    #[test]
    fn scaling_multiplies_distances() {
        let m = Scaled::new(Euclidean, 3.0);
        assert_eq!(m.dist(&vec![0.0], &vec![2.0]), 6.0);
    }

    #[test]
    fn normalization_maps_dmin_to_two() {
        // The paper's normalization: scale by 2 / d_min.
        let m = Scaled::new(Euclidean, 2.0 / 0.5);
        assert_eq!(m.dist(&vec![0.0], &vec![0.5]), 2.0);
    }

    #[test]
    fn scaled_surrogate_round_trips_bit_exactly_and_preserves_order() {
        // Pin P = Vec<f64>: the surrogate-mapping method alone does not
        // mention the point type.
        fn round_trip<M: Metric<Vec<f64>>>(m: &M, a: &Vec<f64>, b: &Vec<f64>) -> (f64, f64) {
            (m.dist_from_surrogate(m.surrogate(a, b)), m.dist(a, b))
        }
        let m = Scaled::new(Euclidean, 3.0);
        let a = vec![0.3, -1.2];
        let b = vec![2.0, 0.7];
        let c = vec![9.5, -4.0];
        let (via_surrogate, direct) = round_trip(&m, &a, &b);
        assert_eq!(via_surrogate, direct);
        // Unscaled surrogates still order exactly like scaled distances.
        assert_eq!(
            m.surrogate(&a, &b) < m.surrogate(&a, &c),
            m.dist(&a, &b) < m.dist(&a, &c)
        );
    }

    #[test]
    fn scaled_metric_still_satisfies_axioms() {
        let m = Scaled::new(Euclidean, 0.125);
        let pts: Vec<Vec<f64>> = vec![
            vec![0.0, 1.0],
            vec![2.0, -1.0],
            vec![5.5, 0.25],
            vec![-3.0, 4.0],
        ];
        axioms::check_all(&m, &pts).unwrap();
    }
}
