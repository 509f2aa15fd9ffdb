//! Cone systems covering `R^d` (the Yao-construction substitute of
//! Section 5.1).
//!
//! The θ-graph proofs use exactly two properties of the cone family `C`
//! (Section 5.1): every cone has **angular diameter at most θ**, and the
//! **union of the cones is `R^d`**. We realize such families as exact
//! partitions:
//!
//! * `d = 1`: the two half-lines;
//! * `d = 2`: `k = ceil(2π/θ)` half-open angular sectors `[j·w, (j+1)·w)`
//!   with `w = 2π/k <= θ`;
//! * `d >= 3`: *snap-to-grid* cells. Axis directions come from gridding the
//!   faces of the cube `[-1, 1]^d` with pitch `2/m`; a direction `v` is
//!   assigned to the axis obtained by projecting `v` onto its dominant cube
//!   face and rounding to the grid. The snap error satisfies
//!   `sin(angle(v, axis)) <= |w - u|_2 <= sqrt(d-1)/m`, so choosing
//!   `m = ceil(sqrt(d-1) / sin(θ/2))` keeps every direction within `θ/2` of
//!   its snapped axis — cells have angular diameter `<= θ` and partition
//!   `R^d \ {0}`. Crucially the snap is `O(d)` (no scan over the
//!   `O((1/θ)^{d-1})` axes), which keeps θ-graph construction cheap.
//!
//! The paper only asks for some family with those two properties, so any
//! exact partition will do; property tests sample random directions and
//! verify the covering and diameter bounds empirically.

use std::collections::HashMap;

/// A family of cones with apex at the origin partitioning `R^d \ {0}`, each
/// with angular diameter at most `theta`.
#[derive(Debug, Clone)]
pub struct ConeSet {
    dim: usize,
    theta: f64,
    kind: ConeKind,
}

#[derive(Debug, Clone)]
enum ConeKind {
    /// `d = 1`: cones 0 (`v > 0`) and 1 (`v < 0`).
    Line,
    /// `d = 2`: `k` equal sectors partitioning the plane.
    Sectors { k: usize },
    /// `d >= 3`: snap-to-grid cells (see module docs). `axes` are the unit
    /// snapped directions; `lookup` maps a grid key (face, sign, counters)
    /// to the axis index; `m` is the per-face grid resolution.
    GridSnap {
        axes: Vec<Vec<f64>>,
        lookup: HashMap<Vec<i32>, usize>,
        m: usize,
    },
}

impl ConeSet {
    /// Builds a covering cone family for dimension `dim` with angular
    /// diameter at most `theta` (radians, `0 < theta < π/2`).
    pub fn covering(dim: usize, theta: f64) -> Self {
        assert!(dim >= 1, "dimension must be at least 1");
        assert!(
            theta > 0.0 && theta < std::f64::consts::FRAC_PI_2,
            "theta must lie in (0, π/2), got {theta}"
        );
        let kind = match dim {
            1 => ConeKind::Line,
            2 => {
                let k = (2.0 * std::f64::consts::PI / theta).ceil() as usize;
                ConeKind::Sectors { k }
            }
            d => {
                let half = theta / 2.0;
                // sin(snap angle) <= sqrt(d-1)/m.
                let m = ((d as f64 - 1.0).sqrt() / half.sin()).ceil() as usize;
                let (axes, lookup) = grid_axes(d, m.max(1));
                ConeKind::GridSnap {
                    axes,
                    lookup,
                    m: m.max(1),
                }
            }
        };
        ConeSet { dim, theta, kind }
    }

    /// Ambient dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The requested angular-diameter bound θ.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// Number of cones — `O((1/θ)^{d-1})`.
    pub fn count(&self) -> usize {
        match &self.kind {
            ConeKind::Line => 2,
            ConeKind::Sectors { k } => *k,
            ConeKind::GridSnap { axes, .. } => axes.len(),
        }
    }

    /// The designated-ray direction (unit axis) of cone `c`.
    pub fn axis(&self, c: usize) -> Vec<f64> {
        match &self.kind {
            ConeKind::Line => vec![if c == 0 { 1.0 } else { -1.0 }],
            ConeKind::Sectors { k } => {
                let w = 2.0 * std::f64::consts::PI / *k as f64;
                let a = (c as f64 + 0.5) * w;
                vec![a.cos(), a.sin()]
            }
            ConeKind::GridSnap { axes, .. } => axes[c].clone(),
        }
    }

    /// The cone containing the direction `v`, or `None` for the zero vector.
    /// `O(d)` for every cone family (the families partition `R^d \ {0}`).
    pub fn cone_of(&self, v: &[f64]) -> Option<usize> {
        debug_assert_eq!(v.len(), self.dim);
        match &self.kind {
            ConeKind::Line => {
                if v[0] > 0.0 {
                    Some(0)
                } else if v[0] < 0.0 {
                    Some(1)
                } else {
                    None
                }
            }
            ConeKind::Sectors { k } => {
                if v[0] == 0.0 && v[1] == 0.0 {
                    return None;
                }
                let w = 2.0 * std::f64::consts::PI / *k as f64;
                let mut a = v[1].atan2(v[0]);
                if a < 0.0 {
                    a += 2.0 * std::f64::consts::PI;
                }
                let mut c = (a / w) as usize;
                if c >= *k {
                    c = *k - 1; // guard against a == 2π rounding
                }
                Some(c)
            }
            ConeKind::GridSnap { lookup, m, .. } => {
                let key = snap_key(v, *m)?;
                Some(*lookup.get(&key).expect("snap key always pre-registered"))
            }
        }
    }

    /// Projection of `v` onto the designated ray of cone `c` (signed).
    pub fn projection(&self, c: usize, v: &[f64]) -> f64 {
        match &self.kind {
            ConeKind::Line => {
                if c == 0 {
                    v[0]
                } else {
                    -v[0]
                }
            }
            ConeKind::Sectors { k } => {
                let w = 2.0 * std::f64::consts::PI / *k as f64;
                let a = (c as f64 + 0.5) * w;
                v[0] * a.cos() + v[1] * a.sin()
            }
            ConeKind::GridSnap { axes, .. } => dot(&axes[c], v),
        }
    }

    /// Angle (radians) between `v` and the axis of its own cone; the
    /// membership guarantee is `angle <= theta / 2`. Returns `None` for the
    /// zero vector.
    pub fn snap_angle(&self, v: &[f64]) -> Option<f64> {
        let c = self.cone_of(v)?;
        let a = self.axis(c);
        let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
        let cosang = (dot(&a, v) / norm).clamp(-1.0, 1.0);
        Some(cosang.acos())
    }

    /// Empirical covering check: samples `samples` random directions and
    /// returns the maximum angle (radians) between a direction and the axis
    /// of the cone it is assigned to. Must be at most `theta / 2`; exposed
    /// for property tests.
    pub fn covering_gap(&self, samples: usize, seed: u64) -> f64 {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut worst: f64 = 0.0;
        for _ in 0..samples {
            // Gaussian direction via Box–Muller for rotation invariance.
            let v: Vec<f64> = (0..self.dim)
                .map(|_| {
                    let u1: f64 = rng.random_range(1e-12..1.0);
                    let u2: f64 = rng.random_range(0.0..1.0);
                    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
                })
                .collect();
            if let Some(a) = self.snap_angle(&v) {
                worst = worst.max(a);
            }
        }
        worst
    }
}

#[inline]
fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b.iter()).map(|(x, y)| x * y).sum()
}

/// Grid key of a direction: `[face, sign, g_1, ..., g_{d-1}]` where `face`
/// is the dominant coordinate (ties to the lowest index), `sign` its sign,
/// and `g_i` the rounded grid positions of the remaining coordinates after
/// normalizing the dominant one to ±1.
fn snap_key(v: &[f64], m: usize) -> Option<Vec<i32>> {
    let d = v.len();
    let mut face = 0usize;
    let mut best = v[0].abs();
    for (i, &x) in v.iter().enumerate().skip(1) {
        if x.abs() > best {
            best = x.abs();
            face = i;
        }
    }
    if best == 0.0 {
        return None;
    }
    let sign = if v[face] >= 0.0 { 1i32 } else { -1 };
    let mut key = Vec::with_capacity(d + 1);
    key.push(face as i32);
    key.push(sign);
    let denom = v[face].abs();
    for (i, &x) in v.iter().enumerate() {
        if i == face {
            continue;
        }
        // w = x / denom ∈ [-1, 1]; grid position round((w + 1) * m / 2).
        let w = (x / denom).clamp(-1.0, 1.0);
        let g = ((w + 1.0) * m as f64 / 2.0).round() as i32;
        key.push(g.clamp(0, m as i32));
    }
    Some(key)
}

/// All grid axes plus the key -> index lookup table.
#[allow(clippy::needless_range_loop)] // odometer-style reconstruction reads clearest indexed
fn grid_axes(d: usize, m: usize) -> (Vec<Vec<f64>>, HashMap<Vec<i32>, usize>) {
    let mut axes: Vec<Vec<f64>> = Vec::new();
    let mut lookup: HashMap<Vec<i32>, usize> = HashMap::new();
    for face in 0..d {
        for sign in [1i32, -1] {
            let mut counters = vec![0i32; d - 1];
            loop {
                // Reconstruct the (unnormalized) direction for this cell.
                let mut v = vec![0.0; d];
                v[face] = sign as f64;
                let mut vi = 0;
                for coord in 0..d {
                    if coord == face {
                        continue;
                    }
                    v[coord] = -1.0 + 2.0 * counters[vi] as f64 / m as f64;
                    vi += 1;
                }
                let mut key = Vec::with_capacity(d + 1);
                key.push(face as i32);
                key.push(sign);
                key.extend(counters.iter().copied());
                let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
                let axis: Vec<f64> = v.iter().map(|x| x / norm).collect();
                let idx = axes.len();
                axes.push(axis);
                lookup.insert(key, idx);
                // Odometer.
                let mut carry = true;
                for c in counters.iter_mut() {
                    if carry {
                        *c += 1;
                        if *c > m as i32 {
                            *c = 0;
                        } else {
                            carry = false;
                        }
                    }
                }
                if carry {
                    break;
                }
            }
        }
    }
    (axes, lookup)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_cones() {
        let cs = ConeSet::covering(1, 0.5);
        assert_eq!(cs.count(), 2);
        assert_eq!(cs.cone_of(&[3.0]), Some(0));
        assert_eq!(cs.cone_of(&[-0.1]), Some(1));
        assert_eq!(cs.cone_of(&[0.0]), None);
        assert_eq!(cs.projection(0, &[3.0]), 3.0);
        assert_eq!(cs.projection(1, &[-2.0]), 2.0);
    }

    #[test]
    fn sector_count_matches_theta() {
        let cs = ConeSet::covering(2, 0.5);
        assert_eq!(
            cs.count(),
            (2.0 * std::f64::consts::PI / 0.5).ceil() as usize
        );
    }

    #[test]
    fn sectors_partition_every_direction() {
        let cs = ConeSet::covering(2, 0.7);
        for i in 0..360 {
            let a = i as f64 * std::f64::consts::PI / 180.0;
            let v = [a.cos() * 2.0, a.sin() * 2.0];
            assert!(cs.cone_of(&v).is_some(), "direction {i}° unassigned");
        }
    }

    #[test]
    fn sector_members_are_within_half_theta_of_axis() {
        let cs = ConeSet::covering(2, 0.6);
        for i in 0..720 {
            let a = i as f64 * std::f64::consts::PI / 360.0;
            let v = [a.cos(), a.sin()];
            let angle = cs.snap_angle(&v).unwrap();
            assert!(
                angle <= 0.3 + 1e-9,
                "direction at angle {a} is {angle} rad from its sector axis"
            );
        }
    }

    #[test]
    fn grid_snap_covers_3d() {
        let cs = ConeSet::covering(3, 0.6);
        let gap = cs.covering_gap(3000, 99);
        assert!(
            gap <= 0.3 + 1e-9,
            "covering gap {gap} exceeds theta/2 = 0.3"
        );
    }

    #[test]
    fn grid_snap_covers_4d() {
        let cs = ConeSet::covering(4, 0.9);
        let gap = cs.covering_gap(2000, 100);
        assert!(gap <= 0.45 + 1e-9, "covering gap {gap} exceeds 0.45");
    }

    #[test]
    fn grid_snap_covers_3d_small_theta() {
        let cs = ConeSet::covering(3, 0.2);
        let gap = cs.covering_gap(2000, 101);
        assert!(gap <= 0.1 + 1e-9, "covering gap {gap} exceeds 0.1");
    }

    #[test]
    fn snap_assignment_is_deterministic_and_consistent() {
        let cs = ConeSet::covering(3, 0.6);
        let v = [0.3, -0.7, 0.2];
        let c = cs.cone_of(&v).unwrap();
        // Same direction, different magnitude: same cone.
        let v2 = [0.6, -1.4, 0.4];
        assert_eq!(cs.cone_of(&v2), Some(c));
        // The projection onto the snapped axis is positive (half-angle < π/2).
        assert!(cs.projection(c, &v) > 0.0);
    }

    #[test]
    fn every_axis_is_unit_length() {
        let cs = ConeSet::covering(3, 0.5);
        for c in 0..cs.count() {
            let a = cs.axis(c);
            let norm: f64 = a.iter().map(|x| x * x).sum::<f64>().sqrt();
            assert!((norm - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn cone_count_scales_inversely_with_theta_2d() {
        let big = ConeSet::covering(2, 0.8).count();
        let small = ConeSet::covering(2, 0.2).count();
        assert!(
            small >= 3 * big,
            "expected ~4x more cones: {small} vs {big}"
        );
    }

    #[test]
    fn zero_vector_has_no_cone() {
        assert_eq!(ConeSet::covering(3, 0.5).cone_of(&[0.0, 0.0, 0.0]), None);
        assert_eq!(ConeSet::covering(2, 0.5).cone_of(&[0.0, 0.0]), None);
    }

    #[test]
    #[should_panic(expected = "theta must lie in")]
    fn theta_too_large_rejected() {
        let _ = ConeSet::covering(2, 2.0);
    }
}
