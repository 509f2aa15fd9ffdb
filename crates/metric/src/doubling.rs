//! Empirical doubling-dimension diagnostics.
//!
//! The doubling dimension `λ` of `(M, D)` is the smallest value such that
//! every ball of radius `r` is covered by at most `2^λ` balls of radius
//! `r/2` (Section 1.1). Computing `λ` exactly is NP-hard in general, so this
//! module provides a practical estimator, which the workload and hardness
//! tests use to check the dimension of their instances:
//! [`greedy_cover_log2`] — for a sampled ball `B(p, r)`, greedily covers its
//! points with balls of radius `r/2` centered at data points and reports
//! `log2(#balls)`. By the standard net argument a greedy cover uses at most
//! `2^{2λ}`-ish balls, so this estimates `λ` up to a factor 2 while being
//! exact enough to separate, say, a line (λ=1) from a plane.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::dataset::Dataset;
use crate::metric::Metric;

/// Greedy half-radius cover estimate: samples balls `B(p, r)` and reports the
/// maximum `log2` of the number of radius-`r/2` balls a greedy cover needs.
///
/// Cost: `O(samples * n * cover_size)` distances.
pub fn greedy_cover_log2<P, M: Metric<P>>(data: &Dataset<P, M>, samples: usize, seed: u64) -> f64 {
    let n = data.len();
    if n < 2 {
        return 0.0;
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut worst: f64 = 0.0;
    for _ in 0..samples {
        let p = rng.random_range(0..n);
        let j = rng.random_range(0..n);
        if p == j {
            continue;
        }
        let r = data.dist(p, j);
        if r <= 0.0 {
            continue;
        }
        let ball: Vec<usize> = (0..n).filter(|&i| data.dist(p, i) <= r).collect();
        let covers = greedy_half_cover(data, &ball, r / 2.0);
        if covers > 0 {
            worst = worst.max((covers as f64).log2());
        }
    }
    worst
}

/// Number of balls of radius `r_half` (centered at members) that a greedy
/// pass needs to cover `ball`.
fn greedy_half_cover<P, M: Metric<P>>(data: &Dataset<P, M>, ball: &[usize], r_half: f64) -> usize {
    let mut covered = vec![false; ball.len()];
    let mut count = 0usize;
    for k in 0..ball.len() {
        if covered[k] {
            continue;
        }
        // Greedy: make ball[k] a center; mark everything within r_half.
        count += 1;
        for (l, &other) in ball.iter().enumerate() {
            if !covered[l] && data.dist(ball[k], other) <= r_half {
                covered[l] = true;
            }
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lp::Euclidean;

    fn line(n: usize) -> Dataset<Vec<f64>, Euclidean> {
        Dataset::new((0..n).map(|i| vec![i as f64]).collect(), Euclidean)
    }

    fn grid2d(side: usize) -> Dataset<Vec<f64>, Euclidean> {
        let mut pts = Vec::new();
        for x in 0..side {
            for y in 0..side {
                pts.push(vec![x as f64, y as f64]);
            }
        }
        Dataset::new(pts, Euclidean)
    }

    #[test]
    fn line_has_low_estimated_dimension() {
        let est = greedy_cover_log2(&line(200), 30, 7);
        // A 1-d line needs at most ~3 half-radius balls greedily: log2 <= 2.
        assert!(est <= 2.5, "line estimate too high: {est}");
    }

    #[test]
    fn grid_estimate_exceeds_line_estimate() {
        let l = greedy_cover_log2(&line(225), 40, 7);
        let g = greedy_cover_log2(&grid2d(15), 40, 7);
        assert!(
            g > l,
            "2-d grid ({g}) should have larger doubling estimate than line ({l})"
        );
    }
}
