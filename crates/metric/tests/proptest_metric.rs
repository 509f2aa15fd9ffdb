//! Property tests for the metric kernel: axioms for every `L_p` metric on
//! random vectors, instrumentation exactness, and estimator bands.

use pg_metric::aspect::{approx_diameter, ceil_log2};
use pg_metric::metric::axioms;
use pg_metric::{Chebyshev, Counting, Dataset, Euclidean, FlatPoints, Manhattan, Metric, Scaled};
use proptest::prelude::*;

fn vec3() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1e4f64..1e4, 3)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn euclidean_axioms(a in vec3(), b in vec3(), c in vec3()) {
        let m = Euclidean;
        prop_assert!(axioms::zero_self(&m, &a));
        prop_assert!(axioms::symmetric(&m, &a, &b));
        prop_assert!(axioms::non_negative(&m, &a, &b));
        prop_assert!(axioms::triangle(&m, &a, &b, &c));
    }

    #[test]
    fn chebyshev_axioms(a in vec3(), b in vec3(), c in vec3()) {
        let m = Chebyshev;
        prop_assert!(axioms::symmetric(&m, &a, &b));
        prop_assert!(axioms::triangle(&m, &a, &b, &c));
    }

    #[test]
    fn manhattan_axioms(a in vec3(), b in vec3(), c in vec3()) {
        let m = Manhattan;
        prop_assert!(axioms::symmetric(&m, &a, &b));
        prop_assert!(axioms::triangle(&m, &a, &b, &c));
    }

    #[test]
    fn norm_sandwich(a in vec3(), b in vec3()) {
        // L_inf <= L_2 <= L_1 <= d * L_inf.
        let linf = Chebyshev.dist(&a, &b);
        let l2 = Euclidean.dist(&a, &b);
        let l1 = Manhattan.dist(&a, &b);
        prop_assert!(linf <= l2 + 1e-9);
        prop_assert!(l2 <= l1 + 1e-9);
        prop_assert!(l1 <= 3.0 * linf + 1e-9);
    }

    #[test]
    fn counting_is_exact(pts in prop::collection::vec(vec3(), 2..20)) {
        let m = Counting::new(Euclidean);
        let k = pts.len();
        for i in 0..k {
            for j in 0..k {
                let _ = m.dist(&pts[i], &pts[j]);
            }
        }
        prop_assert_eq!(m.count(), (k * k) as u64);
    }

    #[test]
    fn scaling_commutes_with_distance(a in vec3(), b in vec3(), f in 0.001f64..1000.0) {
        let m = Scaled::new(Euclidean, f);
        let lhs = m.dist(&a, &b);
        let rhs = f * Euclidean.dist(&a, &b);
        prop_assert!((lhs - rhs).abs() <= 1e-9 * (1.0 + rhs.abs()));
    }

    #[test]
    fn ceil_log2_is_correct(x in 1u64..1_000_000) {
        let c = ceil_log2(x as f64);
        prop_assert!((1u64 << c) >= x, "2^{c} < {x}");
        if c > 0 {
            prop_assert!((1u64 << (c - 1)) < x, "2^{} >= {x}", c - 1);
        }
    }

    #[test]
    fn approx_diameter_band(pts in prop::collection::vec(vec3(), 2..25)) {
        let ds = Dataset::new(pts, Euclidean);
        let (_, dmax) = ds.min_max_interpoint();
        prop_assume!(dmax > 0.0);
        let est = approx_diameter(&ds);
        prop_assert!(est >= dmax - 1e-9);
        prop_assert!(est <= 2.0 * dmax + 1e-9);
    }

    #[test]
    fn brute_force_knn_is_sorted_and_consistent(
        pts in prop::collection::vec(vec3(), 3..25),
        q in vec3(),
        k in 1usize..5,
    ) {
        let ds = Dataset::new(pts, Euclidean);
        let knn = ds.k_nearest_brute(&q, k);
        prop_assert_eq!(knn.len(), k.min(ds.len()));
        prop_assert!(knn.windows(2).all(|w| w[0].1 <= w[1].1));
        let (nn, d) = ds.nearest_brute(&q);
        prop_assert_eq!(knn[0].1, d);
        let _ = nn;
    }

    #[test]
    fn brute_force_knn_equals_sorting_every_point_on_tie_heavy_data(
        pts in prop::collection::vec(prop::collection::vec(0i32..4, 2), 1..60),
        q in prop::collection::vec(0i32..4, 2),
        k in 0usize..70,
    ) {
        let rows: Vec<Vec<f64>> = pts
            .iter()
            .map(|p| p.iter().map(|&c| c as f64).collect())
            .collect();
        let q: Vec<f64> = q.iter().map(|&c| c as f64).collect();
        let flat = FlatPoints::from_fn(rows.len(), 2, |i, out| out.extend_from_slice(&rows[i]));
        fn reference<P, M: Metric<P>>(ds: &Dataset<P, M>, q: &P, k: usize) -> Vec<(usize, u64)> {
            let mut all: Vec<(usize, f64)> =
                (0..ds.len()).map(|i| (i, ds.surrogate_to(i, q))).collect();
            all.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then(a.0.cmp(&b.0)));
            all.truncate(k);
            all.iter().map(|&(i, s)| (i, ds.dist_from_surrogate(s).to_bits())).collect()
        }
        fn bits(knn: Vec<(usize, f64)>) -> Vec<(usize, u64)> {
            knn.into_iter().map(|(i, d)| (i, d.to_bits())).collect()
        }
        let euclid = Dataset::new(rows.clone(), Euclidean);
        prop_assert_eq!(bits(euclid.k_nearest_brute(&q, k)), reference(&euclid, &q, k));
        let manhattan = Dataset::new(rows, Manhattan);
        prop_assert_eq!(bits(manhattan.k_nearest_brute(&q, k)), reference(&manhattan, &q, k));
        let flat = flat.into_dataset(Euclidean);
        let fq = pg_metric::FlatRow::from(q);
        prop_assert_eq!(bits(flat.k_nearest_brute(&fq, k)), reference(&flat, &fq, k));
    }
}
