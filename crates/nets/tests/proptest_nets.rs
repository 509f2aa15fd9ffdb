//! Property tests for net construction: every hierarchy level is an exact
//! net on arbitrary inputs (including adversarial shapes), and the cascade
//! is complete for any admissible factor.

use pg_metric::{Dataset, Euclidean};
use pg_nets::{greedy_net, validate_net, NetHierarchy, RelativesCascade};
use proptest::prelude::*;

fn pointset() -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(
        (0i32..3000, 0i32..3000).prop_map(|(x, y)| vec![x as f64 * 0.07, y as f64 * 0.07]),
        2..60,
    )
    .prop_map(|mut pts| {
        pts.sort_by(|a, b| a.partial_cmp(b).unwrap());
        pts.dedup();
        pts
    })
    .prop_filter("need >= 2 distinct", |p| p.len() >= 2)
}

/// Collinear, exponentially spaced — a worst-case aspect-ratio shape.
fn collinear() -> impl Strategy<Value = Vec<Vec<f64>>> {
    (2usize..20).prop_map(|k| (0..k).map(|i| vec![(1.7f64).powi(i as i32), 0.0]).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn hierarchy_valid_on_random_sets(pts in pointset()) {
        let data = Dataset::new(pts, Euclidean);
        let h = NetHierarchy::build(&data);
        prop_assert!(h.validate(&data).is_ok());
    }

    #[test]
    fn hierarchy_valid_on_collinear_exponential(pts in collinear()) {
        let data = Dataset::new(pts, Euclidean);
        let h = NetHierarchy::build(&data);
        prop_assert!(h.validate(&data).is_ok());
    }

    #[test]
    fn bottom_radius_brackets_dmin(pts in pointset()) {
        let data = Dataset::new(pts, Euclidean);
        let (dmin, dmax) = data.min_max_interpoint();
        prop_assume!(dmin > 0.0);
        let h = NetHierarchy::build(&data);
        prop_assert!(h.bottom_radius() >= dmin / 2.0 - 1e-12);
        prop_assert!(h.bottom_radius() < dmin);
        prop_assert!(h.top_radius() >= dmax - 1e-9);
        prop_assert!(h.top_radius() <= 2.0 * dmax + 1e-9);
    }

    #[test]
    fn greedy_net_valid_at_any_radius(pts in pointset(), r in 0.01f64..500.0) {
        let data = Dataset::new(pts, Euclidean);
        let ids: Vec<u32> = (0..data.len() as u32).collect();
        let net = greedy_net(&data, &ids, r);
        prop_assert!(validate_net(&data, &ids, &net, r).is_ok());
    }

    #[test]
    fn cascade_complete_for_any_factor(pts in pointset(), k in 4.0f64..12.0) {
        let data = Dataset::new(pts, Euclidean);
        let h = NetHierarchy::build(&data);
        let mut cascade = RelativesCascade::new(&data, &h, k);
        loop {
            let lvl = h.level(cascade.level_idx());
            // Brute-force verify completeness at this level.
            for (pos, &y) in lvl.centers.iter().enumerate() {
                let rel = cascade.relatives(pos);
                for (pos2, &z) in lvl.centers.iter().enumerate() {
                    let within = data.dist(y as usize, z as usize) <= k * lvl.radius;
                    let listed = rel.contains(&(pos2 as u32));
                    prop_assert_eq!(within, listed,
                        "level {} center {} vs {}", cascade.level_idx(), pos, pos2);
                }
            }
            if !cascade.descend() {
                break;
            }
        }
    }

    #[test]
    fn nesting_and_monotone_sizes(pts in pointset()) {
        let data = Dataset::new(pts, Euclidean);
        let h = NetHierarchy::build(&data);
        for i in 0..h.num_levels() - 1 {
            prop_assert!(h.level(i).len() >= h.level(i + 1).len(),
                "level sizes must shrink going up");
        }
        prop_assert_eq!(h.level(0).len(), data.len());
        prop_assert_eq!(h.level(h.num_levels() - 1).len(), 1);
    }
}
