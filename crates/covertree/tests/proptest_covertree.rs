//! Property tests for the cover tree: structural invariants and agreement
//! with brute force under random build orders and delete/restore schedules.

use pg_covertree::{approx_min_dist, CoverTree};
use pg_metric::{Dataset, Euclidean};
use proptest::prelude::*;

fn pointset() -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(
        (0i32..2000, 0i32..2000).prop_map(|(x, y)| vec![x as f64 * 0.1, y as f64 * 0.1]),
        2..50,
    )
    .prop_map(|mut pts| {
        pts.sort_by(|a, b| a.partial_cmp(b).unwrap());
        pts.dedup();
        pts
    })
    .prop_filter("need >= 2 distinct", |p| p.len() >= 2)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn invariants_hold_for_any_insertion_order(
        pts in pointset(),
        perm_seed in 0u64..1000,
    ) {
        let data = Dataset::new(pts, Euclidean);
        // Insertion order derived from a seed: stride through the ids.
        let n = data.len();
        let stride = 1 + (perm_seed as usize) % n;
        let mut seen = vec![false; n];
        let mut order: Vec<u32> = Vec::with_capacity(n);
        for i in 0..n {
            let id = (i * stride) % n;
            if !seen[id] {
                seen[id] = true;
                order.push(id as u32);
            }
        }
        for (id, &s) in seen.iter().enumerate() {
            if !s {
                order.push(id as u32);
            }
        }
        let t = CoverTree::build(&data, order);
        prop_assert_eq!(t.len(), n);
        prop_assert!(t.check_invariants().is_ok());
    }

    #[test]
    fn nearest_matches_brute_force_under_tombstones(
        pts in pointset(),
        qx in -20.0f64..220.0,
        qy in -20.0f64..220.0,
        dead_mask in 0u64..u64::MAX,
    ) {
        let data = Dataset::new(pts, Euclidean);
        let n = data.len();
        let mut t = CoverTree::build_all(&data);
        let mut live = Vec::new();
        for i in 0..n {
            if dead_mask >> (i % 64) & 1 == 1 {
                t.remove(i as u32);
            } else {
                live.push(i);
            }
        }
        prop_assume!(!live.is_empty());
        let q = vec![qx, qy];
        let (tid, td) = t.nearest(&q).unwrap();
        let bd = live.iter().map(|&i| data.dist_to(i, &q)).fold(f64::INFINITY, f64::min);
        prop_assert!((td - bd).abs() <= 1e-9, "tree {td} vs brute {bd}");
        prop_assert!(t.contains_live(tid));
    }

    #[test]
    fn two_ann_guarantee_holds(
        pts in pointset(),
        qx in -20.0f64..220.0,
        qy in -20.0f64..220.0,
    ) {
        let data = Dataset::new(pts, Euclidean);
        let t = CoverTree::build_all(&data);
        let q = vec![qx, qy];
        let (_, exact) = data.nearest_brute(&q);
        let (_, approx) = t.ann(&q, 2.0).unwrap();
        prop_assert!(approx <= 2.0 * exact + 1e-9);
    }

    #[test]
    fn range_equals_brute(
        pts in pointset(),
        qx in 0.0f64..200.0,
        qy in 0.0f64..200.0,
        r in 0.1f64..80.0,
    ) {
        let data = Dataset::new(pts, Euclidean);
        let t = CoverTree::build_all(&data);
        let q = vec![qx, qy];
        let got = t.range(&q, r);
        let expect: Vec<u32> = data.range_brute(&q, r).into_iter().map(|i| i as u32).collect();
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn approx_min_dist_band(pts in pointset()) {
        let data = Dataset::new(pts, Euclidean);
        let (dmin, _) = data.min_max_interpoint();
        prop_assume!(dmin > 0.0);
        let est = approx_min_dist(&data);
        prop_assert!(est >= dmin / 2.0 - 1e-12 && est <= dmin + 1e-12,
            "estimate {est} outside [{}, {dmin}]", dmin / 2.0);
    }
}
