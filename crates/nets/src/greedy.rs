//! Textbook greedy `r`-nets (quadratic; ground truth for tests and the
//! "naive" construction path).

use pg_metric::{Dataset, Metric};

/// Computes an `r`-net of the points `ids` by a greedy pass: a point becomes
/// a center unless an existing center lies within `r` of it.
///
/// The result satisfies both net properties by construction:
/// separation `> r` between centers (strictly, so `>= r` holds) and covering
/// radius `<= r`. Cost: `O(|ids| * |net|)` distance evaluations.
pub fn greedy_net<P, M: Metric<P>>(data: &Dataset<P, M>, ids: &[u32], r: f64) -> Vec<u32> {
    assert!(r >= 0.0 && r.is_finite());
    let mut centers: Vec<u32> = Vec::new();
    'outer: for &p in ids {
        for &c in &centers {
            if data.dist(p as usize, c as usize) <= r {
                continue 'outer;
            }
        }
        centers.push(p);
    }
    centers
}

/// Checks the two net properties of Section 2 for `centers` as an `r`-net of
/// `ids`: separation (`D(y_1, y_2) >= r`) and covering
/// (`∀x ∃y: D(x, y) <= r`). Quadratic; intended for tests.
pub fn validate_net<P, M: Metric<P>>(
    data: &Dataset<P, M>,
    ids: &[u32],
    centers: &[u32],
    r: f64,
) -> Result<(), String> {
    for (a, &y1) in centers.iter().enumerate() {
        if !ids.contains(&y1) {
            return Err(format!("center {y1} is not a member of the ground set"));
        }
        for &y2 in centers.iter().skip(a + 1) {
            let d = data.dist(y1 as usize, y2 as usize);
            if d < r * (1.0 - 1e-12) {
                return Err(format!(
                    "separation violated: D({y1}, {y2}) = {d} < r = {r}"
                ));
            }
        }
    }
    'cover: for &x in ids {
        for &y in centers {
            if data.dist(x as usize, y as usize) <= r * (1.0 + 1e-12) {
                continue 'cover;
            }
        }
        return Err(format!(
            "covering violated: point {x} has no center within {r}"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pg_metric::Euclidean;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn random_dataset(n: usize, seed: u64) -> Dataset<Vec<f64>, Euclidean> {
        let mut rng = StdRng::seed_from_u64(seed);
        Dataset::new(
            (0..n)
                .map(|_| vec![rng.random_range(0.0..100.0), rng.random_range(0.0..100.0)])
                .collect(),
            Euclidean,
        )
    }

    #[test]
    fn greedy_net_is_a_valid_net() {
        let ds = random_dataset(300, 1);
        let ids: Vec<u32> = (0..300).collect();
        for r in [1.0, 5.0, 20.0, 100.0] {
            let net = greedy_net(&ds, &ids, r);
            validate_net(&ds, &ids, &net, r).unwrap();
        }
    }

    #[test]
    fn tiny_radius_keeps_every_point() {
        let ds = random_dataset(50, 2);
        let ids: Vec<u32> = (0..50).collect();
        let (dmin, _) = ds.min_max_interpoint();
        let net = greedy_net(&ds, &ids, dmin * 0.5);
        assert_eq!(net.len(), 50, "a net finer than d_min must be all of P");
    }

    #[test]
    fn huge_radius_keeps_one_point() {
        let ds = random_dataset(50, 3);
        let ids: Vec<u32> = (0..50).collect();
        let net = greedy_net(&ds, &ids, 1e6);
        assert_eq!(net, vec![0]);
    }

    #[test]
    fn validator_detects_separation_violation() {
        let ds = random_dataset(20, 4);
        let ids: Vec<u32> = (0..20).collect();
        // All points as centers at a large radius: separation must fail.
        let err = validate_net(&ds, &ids, &ids, 1e5).unwrap_err();
        assert!(err.contains("separation"));
    }

    #[test]
    fn validator_detects_covering_violation() {
        let ds = random_dataset(20, 5);
        let ids: Vec<u32> = (0..20).collect();
        // Single center at a tiny radius: covering must fail.
        let err = validate_net(&ds, &ids, &[0], 1e-6).unwrap_err();
        assert!(err.contains("covering"));
    }
}
