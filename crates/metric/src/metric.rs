//! The [`Metric`] trait.

use crate::lp::Lp;

/// Relative slack of every test that lets the triangle inequality stand in
/// for a distance computation: a candidate is ruled out unseen only when the
/// bound that excludes it clears the threshold by more than this fraction of
/// the larger of the two lengths compared. Two users:
///
/// * the walks of `pg_core::search` skip an edge-length band whose gap to
///   `D(p, q)` exceeds the beam's bound by more than the slack;
/// * the net ladder of `pg_nets` decides the children of a listed centre
///   from the centre's own distance — all in, all out, or tested — and
///   decides them all in or all out only outside the slack.
///
/// The `L_p` kernels compute a distance to within `≈ d · 2⁻⁵³` of its value,
/// seven orders of magnitude inside the slack. A metric whose *computed*
/// values break the triangle inequality by more than `1e-9` relative (e.g.
/// `arccos`-based angles below `10⁻⁴` rad, resolved to `≈ 10⁻⁸` absolute)
/// may lose walk candidates within that error of the bound, and may make
/// `GNet::build_fast` differ from `GNet::build_naive` in the edges whose
/// length sits within that error of a level's reach.
pub const ANNULUS_SLACK: f64 = 1e-9;

/// A metric (distance function) over points of type `P`.
///
/// Implementations must satisfy the metric axioms of Section 1.1:
///
/// 1. **Identity of indiscernibles**: `dist(a, b) == 0.0` iff `a == b`;
/// 2. **Symmetry**: `dist(a, b) == dist(b, a)`;
/// 3. **Triangle inequality**: `dist(a, b) <= dist(a, c) + dist(b, c)`.
///
/// Distances are non-negative finite `f64` values. The axioms are checked by
/// property tests (see [`axioms`]) for every metric in the workspace,
/// including the adversarial metric family `D_{p*}` of Section 4 implemented
/// in `pg-hardness`.
pub trait Metric<P: ?Sized> {
    /// The distance `D(a, b)` between two points.
    fn dist(&self, a: &P, b: &P) -> f64;

    /// A monotone *surrogate* of the distance, for comparison-only code
    /// paths.
    ///
    /// The routing procedures (`greedy`, `query`, beam search) only ever
    /// *compare* distances to the query; the actual values are reported once
    /// at the end. A metric may therefore expose a cheaper monotone stand-in
    /// — Euclidean uses the **squared** distance, skipping the `sqrt` on
    /// every comparison. Implementations must guarantee:
    ///
    /// 1. `dist_from_surrogate(surrogate(a, b))` is **bit-identical** to
    ///    `dist(a, b)`;
    /// 2. `surrogate(a, b) <= surrogate(c, d)` implies
    ///    `dist(a, b) <= dist(c, d)`, and surrogate equality implies
    ///    distance equality.
    ///
    /// Note the implication is one-way: a rounded monotone map can collapse
    /// *distinct* surrogates onto *equal* distances (correctly-rounded
    /// `sqrt` does, by pigeonhole), so the surrogate order refines the
    /// distance order. Comparison-only code that switches to surrogates
    /// therefore never gets a wrong answer — where the two orders differ,
    /// the surrogate is the more discriminating (pre-rounding) comparison —
    /// but it may break a rounded-distance tie that `dist`-based code
    /// would have seen.
    ///
    /// One `surrogate` call counts as one distance computation in the
    /// paper's cost model (the [`Counting`](crate::Counting) wrapper counts
    /// it), because it does the same coordinate work. The default is the
    /// distance itself.
    #[inline]
    fn surrogate(&self, a: &P, b: &P) -> f64 {
        self.dist(a, b)
    }

    /// Maps a [`surrogate`](Metric::surrogate) value back to the true
    /// distance (default: identity). Must be monotone non-decreasing; this
    /// is a pure float transform, **not** a distance computation.
    #[inline]
    fn dist_from_surrogate(&self, s: f64) -> f64 {
        s
    }

    /// The `L_p` kernel this metric *is* on coordinate slices, if any: a
    /// metric that names one promises that [`Lp::surrogate`] and
    /// [`Lp::dist`] on the coordinates of two points are bit-identical to
    /// its own `surrogate` and `dist` on the points. A flat dataset
    /// (`FlatPoints::into_dataset`) then scores through the named kernel,
    /// statically dispatched and inlined where it is called, instead of
    /// through a function pointer resolved for the metric.
    ///
    /// The default is `None`, and a wrapper must not forward it unless it
    /// computes the same values *and* needs to see no call: `Counting`
    /// (which counts every call) and `Scaled` (which changes the values)
    /// keep the default and score as they always did.
    #[inline]
    fn lp_kernel(&self) -> Option<Lp> {
        None
    }
}

impl<P: ?Sized, M: Metric<P> + ?Sized> Metric<P> for &M {
    #[inline]
    fn dist(&self, a: &P, b: &P) -> f64 {
        (**self).dist(a, b)
    }

    #[inline]
    fn surrogate(&self, a: &P, b: &P) -> f64 {
        (**self).surrogate(a, b)
    }

    #[inline]
    fn dist_from_surrogate(&self, s: f64) -> f64 {
        (**self).dist_from_surrogate(s)
    }

    #[inline]
    fn lp_kernel(&self) -> Option<Lp> {
        (**self).lp_kernel()
    }
}

/// Helpers for checking the metric axioms on concrete instances.
///
/// These are deliberately exposed as library functions (not only as tests) so
/// that downstream crates can re-check the axioms for their own metrics —
/// `pg-hardness` uses them to validate the adversarial metrics `D_{p*}`.
pub mod axioms {
    use super::Metric;

    /// Absolute slack used when comparing floating-point distances.
    pub const EPS: f64 = 1e-9;

    /// Checks symmetry `D(a, b) == D(b, a)` up to floating-point slack.
    pub fn symmetric<P: ?Sized, M: Metric<P>>(m: &M, a: &P, b: &P) -> bool {
        let ab = m.dist(a, b);
        let ba = m.dist(b, a);
        ab.is_finite() && ba.is_finite() && (ab - ba).abs() <= EPS * (1.0 + ab.abs())
    }

    /// Checks non-negativity of `D(a, b)`.
    pub fn non_negative<P: ?Sized, M: Metric<P>>(m: &M, a: &P, b: &P) -> bool {
        m.dist(a, b) >= 0.0
    }

    /// Checks the triangle inequality `D(a, b) <= D(a, c) + D(b, c)` up to
    /// relative floating-point slack.
    pub fn triangle<P: ?Sized, M: Metric<P>>(m: &M, a: &P, b: &P, c: &P) -> bool {
        let ab = m.dist(a, b);
        let ac = m.dist(a, c);
        let bc = m.dist(b, c);
        ab <= ac + bc + EPS * (1.0 + ab + ac + bc)
    }

    /// Checks `D(a, a) == 0`.
    pub fn zero_self<P: ?Sized, M: Metric<P>>(m: &M, a: &P) -> bool {
        m.dist(a, a).abs() <= EPS
    }

    /// Checks all axioms over every (ordered) triple drawn from `pts`.
    ///
    /// Quadratic/cubic in `pts.len()` — intended for small test inputs.
    pub fn check_all<P, M: Metric<P>>(m: &M, pts: &[P]) -> Result<(), String> {
        for (i, a) in pts.iter().enumerate() {
            if !zero_self(m, a) {
                return Err(format!("D(p{i}, p{i}) != 0"));
            }
            for (j, b) in pts.iter().enumerate() {
                if !non_negative(m, a, b) {
                    return Err(format!("D(p{i}, p{j}) < 0"));
                }
                if !symmetric(m, a, b) {
                    return Err(format!("D(p{i}, p{j}) != D(p{j}, p{i})"));
                }
                for (k, c) in pts.iter().enumerate() {
                    if !triangle(m, a, b, c) {
                        return Err(format!(
                            "triangle inequality violated on (p{i}, p{j}, p{k})"
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::axioms;
    use crate::lp::Euclidean;

    #[test]
    fn euclidean_axioms_on_small_set() {
        let pts: Vec<Vec<f64>> = vec![
            vec![0.0, 0.0],
            vec![1.0, 0.0],
            vec![0.0, 1.0],
            vec![-3.5, 2.25],
            vec![1e-9, -1e-9],
        ];
        axioms::check_all(&Euclidean, &pts).unwrap();
    }

    #[test]
    fn metric_impl_for_references() {
        // `&M` must also be a metric, so instrumented metrics can be shared.
        fn takes_metric<M: super::Metric<Vec<f64>>>(m: M) -> f64 {
            m.dist(&vec![0.0], &vec![3.0])
        }
        let e = Euclidean;
        assert_eq!(takes_metric(e), 3.0);
        assert_eq!(takes_metric(e), 3.0);
    }
}
