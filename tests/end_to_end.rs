//! Integration: end-to-end pipelines — instrumented construction-cost
//! ordering, budgeted queries, recall across all indexes, and the
//! theorem-shaped scaling facts that must hold on any machine (distance
//! counts, not wall clock).

use proximity_graphs::baselines::{nsw, vamana, Hnsw, HnswParams, NswParams, VamanaParams};
use proximity_graphs::core::{
    beam_search_detailed, greedy, query, GNet, GNetParams, MergedGraph, MergedParams,
};
use proximity_graphs::metric::{Counting, Dataset, Euclidean};
use proximity_graphs::nets::{NetHierarchy, RelativesCascade};
use proximity_graphs::workloads;

#[test]
fn fast_builder_uses_fewer_distances_than_naive() {
    let points = workloads::uniform_cube(600, 2, 100.0, 1);
    let data = Dataset::new(points, Counting::new(Euclidean));
    let _ = GNet::build_fast(&data, 1.0);
    let fast = data.metric().take();
    let _ = GNet::build_naive(&data, 1.0);
    let naive = data.metric().take();
    assert!(
        fast * 3 < naive,
        "fast ({fast}) should be well below naive ({naive})"
    );
}

#[test]
fn fast_build_distance_accounting_is_exact_and_thread_invariant() {
    // build_fast = hierarchy + cascade + one test per (point, fresh relative
    // of its covering centre): a centre is tested at the level it was
    // promoted at and never again below it.
    let points = workloads::uniform_cube(600, 2, 100.0, 1);
    let n = points.len();
    let data = Dataset::new(points, Counting::new(Euclidean));
    let hierarchy = NetHierarchy::build(&data);
    let hierarchy_cost = data.metric().take();

    let mut cascade = RelativesCascade::new(&data, &hierarchy, GNetParams::new(1.0).phi + 1.0);
    let mut fresh_tests = 0u64;
    loop {
        let i = cascade.level_idx();
        let lvl = hierarchy.level(i);
        let first_fresh = hierarchy.levels().get(i + 1).map_or(0, |up| up.len());
        for p in 0..n {
            fresh_tests += cascade
                .relatives(lvl.cover[p] as usize)
                .iter()
                .filter(|&&y| y as usize >= first_fresh && lvl.centers[y as usize] != p as u32)
                .count() as u64;
        }
        if !cascade.descend() {
            break;
        }
    }
    let cascade_cost = data.metric().take();

    let expect = hierarchy_cost + cascade_cost + fresh_tests;
    for threads in [1, 2, 7] {
        let _ = rayon::with_threads(threads, || GNet::build_fast(&data, 1.0));
        assert_eq!(data.metric().take(), expect, "{threads} threads");
    }
    // Before a listed centre's distance decided its children in the ladder
    // (all in, all out, or tested; the hierarchy's and the cascade's share
    // of the difference, the fresh tests are the same) this input cost
    // 393 164 distances; before a level's centres kept their cover without
    // a friends scan, 409 737 (all of that difference the hierarchy's); and
    // before each (point, centre) pair was tested once, 476 646.
    assert_eq!(expect, 295_700);
}

#[test]
fn construction_cost_scales_subquadratically() {
    // Distance-count version of the T1.1-build experiment, as a regression
    // test: doubling n must far less than quadruple the fast builder's cost.
    let cost = |n: usize| {
        let points = workloads::uniform_cube(n, 2, (n as f64).sqrt() * 4.0, 2);
        let data = Dataset::new(points, Counting::new(Euclidean));
        let _ = GNet::build_fast(&data, 1.0);
        data.metric().count()
    };
    let c1 = cost(1000);
    let c2 = cost(2000);
    let growth = c2 as f64 / c1 as f64;
    assert!(
        growth < 3.0,
        "near-linear construction expected; observed growth factor {growth}"
    );
}

#[test]
fn greedy_query_cost_is_sublinear() {
    let n = 4000;
    let points = workloads::uniform_cube(n, 2, 260.0, 3);
    let data = Dataset::new(points, Counting::new(Euclidean));
    let g = GNet::build_fast(&data, 1.0);
    data.metric().reset();
    let queries = workloads::uniform_queries(20, 2, 0.0, 260.0, 4);
    let mut reported = 0u64;
    for q in &queries {
        reported += greedy(&g.graph, &data, 0, q).dist_comps;
    }
    let counted = data.metric().count();
    assert_eq!(reported, counted, "distance accounting must be exact");
    assert!(
        counted < (n as u64) * queries.len() as u64 / 3,
        "greedy should be well below brute force"
    );
}

#[test]
fn budgeted_query_respects_the_budget_exactly() {
    let points = workloads::uniform_cube(500, 2, 100.0, 5);
    let data = Dataset::new(points, Counting::new(Euclidean));
    let g = GNet::build_fast(&data, 1.0);
    let q = vec![50.0, 50.0];
    for budget in [1u64, 5, 20, 100] {
        data.metric().reset();
        let out = query(&g.graph, &data, 0, &q, budget);
        assert!(out.dist_comps <= budget);
        assert_eq!(out.dist_comps, data.metric().count());
        if !out.self_terminated {
            assert_eq!(out.dist_comps, budget);
        }
    }
    // A generous budget lets greedy self-terminate with the guarantee.
    data.metric().reset();
    let out = query(&g.graph, &data, 0, &q, u64::MAX);
    assert!(out.self_terminated);
    let (_, exact) = data.nearest_brute(&q);
    assert!(out.result_dist <= 2.0 * exact + 1e-9);
}

#[test]
fn all_indexes_reach_reasonable_recall() {
    let n = 500;
    let points = workloads::gaussian_clusters(n, 2, 8, 2.0, 80.0, 6);
    let data = Dataset::new(points, Euclidean);
    let queries = workloads::perturbed_queries(data.points(), 50, 0.5, 7);
    let truth: Vec<usize> = queries.iter().map(|q| data.nearest_brute(q).0).collect();

    let recall = |hits: usize| hits as f64 / queries.len() as f64;

    let g = GNet::build_fast(&data, 1.0);
    let hits = queries
        .iter()
        .zip(&truth)
        .filter(|(q, &t)| greedy(&g.graph, &data, 0, q).result as usize == t)
        .count();
    assert!(recall(hits) >= 0.9, "G_net greedy recall {}", recall(hits));

    let m = MergedGraph::build(&data, MergedParams::new(1.0).with_theta(0.25));
    let hits = queries
        .iter()
        .zip(&truth)
        .filter(|(q, &t)| greedy(&m.graph, &data, 0, q).result as usize == t)
        .count();
    assert!(recall(hits) >= 0.9, "merged greedy recall {}", recall(hits));

    let v = vamana(&data, VamanaParams::default());
    let hits = queries
        .iter()
        .zip(&truth)
        .filter(|(q, &t)| beam_search_detailed(&v, &data, 0, q, 24, 1).results[0].0 as usize == t)
        .count();
    assert!(recall(hits) >= 0.85, "vamana recall {}", recall(hits));

    let h = Hnsw::build(&data, HnswParams::default());
    let hits = queries
        .iter()
        .zip(&truth)
        .filter(|(q, &t)| h.search_detailed(&data, q, 24, 1).results[0].0 as usize == t)
        .count();
    assert!(recall(hits) >= 0.85, "hnsw recall {}", recall(hits));

    let ns = nsw(&data, NswParams::default());
    let hits = queries
        .iter()
        .zip(&truth)
        .filter(|(q, &t)| beam_search_detailed(&ns, &data, 0, q, 24, 1).results[0].0 as usize == t)
        .count();
    assert!(recall(hits) >= 0.75, "nsw recall {}", recall(hits));
}

#[test]
fn hop_count_respects_the_log_drop_ceiling() {
    // Section 2.3: greedy needs at most h iterations to reach a (1+ε)-ANN.
    let points = workloads::geometric_chain(12, 30, 3.0, 2, 8);
    let data = Dataset::new(points, Euclidean);
    let g = GNet::build_fast(&data, 1.0);
    let h = g.hierarchy.h();
    let queries = workloads::perturbed_queries(data.points(), 30, 0.2, 9);
    for (i, q) in queries.iter().enumerate() {
        let start = ((i * 37) % data.len()) as u32;
        let out = greedy(&g.graph, &data, start, q);
        let (_, nn) = data.nearest_brute(q);
        let first_ann = out
            .hops
            .iter()
            .position(|&v| data.dist_to(v as usize, q) <= 2.0 * nn + 1e-12)
            .expect("greedy reaches a 2-ANN");
        assert!(
            first_ann <= h + 1,
            "query {i}: reached 2-ANN after {first_ann} hops, h = {h}"
        );
    }
}

#[test]
fn merged_graph_query_cost_tracks_gnet_within_a_factor() {
    let points = workloads::uniform_cube(2000, 2, 180.0, 10);
    let data = Dataset::new(points, Counting::new(Euclidean));
    let g = GNet::build_fast(&data, 1.0);
    let m = MergedGraph::build(&data, MergedParams::new(1.0));
    // The theorems compare graphs under one scan: the merged graph's rows
    // are un-banded and scanned whole, so G_net's are too (same edges,
    // bands stripped), not cut to the annulus.
    let plain = g.graph.without_bands();
    let queries = workloads::uniform_queries(20, 2, 0.0, 180.0, 11);
    let mut cg = 0u64;
    let mut cm = 0u64;
    for q in &queries {
        cg += greedy(&plain, &data, 7, q).dist_comps;
        cm += greedy(&m.graph, &data, 7, q).dist_comps;
    }
    // Theorem 1.3's query bound carries an extra log n factor; empirically
    // the two stay within a small constant on uniform data.
    assert!(
        cm < cg * 6,
        "merged query cost {cm} too far above G_net {cg}"
    );
}
