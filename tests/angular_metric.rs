//! Integration: the full pipeline on a non-`L_p` metric — angular distance
//! on the unit sphere (cosine-similarity retrieval). `(S^{d-1}, angular)` is
//! a doubling metric, so Theorem 1.1 applies verbatim; this exercises the
//! generic (coordinate-free) code paths end to end.

use proximity_graphs::core::{check_navigable, check_pg_exhaustive, greedy, GNet, Starts};
use proximity_graphs::covertree::CoverTree;
use proximity_graphs::metric::{normalize, Angular, Counting, Dataset, Metric};
use proximity_graphs::nets::NetHierarchy;
use proximity_graphs::workloads;

fn sphere_dataset(n: usize, d: usize, seed: u64) -> Dataset<Vec<f64>, Angular> {
    Dataset::new(workloads::unit_sphere(n, d, seed), Angular)
}

#[test]
fn net_hierarchy_is_valid_on_the_sphere() {
    let data = sphere_dataset(120, 3, 1);
    let h = NetHierarchy::build(&data);
    h.validate(&data).unwrap();
}

#[test]
fn gnet_is_a_pg_under_angular_distance() {
    let data = sphere_dataset(90, 3, 2);
    let g = GNet::build(&data, 1.0);
    let queries = workloads::unit_sphere(25, 3, 3);
    check_navigable(&g.graph, &data, &queries, 1.0).unwrap();
    check_pg_exhaustive(&g.graph, &data, &queries, 1.0, Starts::All).unwrap();
}

#[test]
fn all_three_builders_agree_on_the_sphere() {
    let data = sphere_dataset(80, 3, 4);
    let h = NetHierarchy::build(&data);
    let naive = GNet::build_naive_on(&data, 1.0, h.clone());
    let ct = GNet::build_covertree_on(&data, 1.0, h);
    assert_eq!(ct.graph, naive.graph);
    // The fast pipeline end to end (hierarchy included) on the pool.
    for threads in [1, 2, 7] {
        let fast = rayon::with_threads(threads, || GNet::build_fast(&data, 1.0));
        assert_eq!(fast.graph, naive.graph, "{threads} threads");
    }
}

#[test]
fn covertree_nearest_matches_brute_on_the_sphere() {
    let data = sphere_dataset(150, 4, 5);
    let tree = CoverTree::build_all(&data);
    for q in workloads::unit_sphere(20, 4, 6) {
        let (_, exact) = data.nearest_brute(&q);
        let (_, got) = tree.nearest(&q).unwrap();
        assert!((got - exact).abs() < 1e-9);
    }
}

#[test]
fn greedy_angular_search_is_sublinear_and_correct() {
    let n = 1500;
    let data = Dataset::new(workloads::unit_sphere(n, 3, 7), Counting::new(Angular));
    let g = GNet::build(&data, 1.0);
    data.metric().reset();
    let mut total = 0u64;
    for (i, raw) in workloads::uniform_queries(25, 3, -1.0, 1.0, 8)
        .iter()
        .enumerate()
    {
        if raw.iter().all(|&x| x == 0.0) {
            continue;
        }
        let q = normalize(raw);
        let out = greedy(&g.graph, &data, ((i * 97) % n) as u32, &q);
        total += out.dist_comps;
        let (_, exact) = data.nearest_brute(&q);
        assert!(out.result_dist <= 2.0 * exact + 1e-9);
    }
    assert!(
        total < 25 * n as u64 / 2,
        "angular greedy should be well below brute force ({total})"
    );
}

#[test]
fn angular_and_euclidean_nn_agree_on_unit_vectors() {
    // On the unit sphere, angular and chordal (L2) distances are monotone in
    // each other, so the exact NN coincides.
    let pts = workloads::unit_sphere(200, 3, 9);
    let ang = Dataset::new(pts.clone(), Angular);
    let euc = Dataset::new(pts, proximity_graphs::metric::Euclidean);
    for q in workloads::unit_sphere(20, 3, 10) {
        let (a, _) = ang.nearest_brute(&q);
        let (e, _) = euc.nearest_brute(&q);
        assert_eq!(a, e);
    }
    let _ = Angular.dist(&vec![1.0, 0.0, 0.0], &vec![0.0, 1.0, 0.0]);
}
