//! Integration: the `(1+ε)`-PG property (Fact 2.1) holds operationally for
//! every graph the library claims it for, across workloads, metrics,
//! epsilons, query distributions and start vertices — and both checkers
//! (declarative navigability and exhaustive greedy) agree.

use proximity_graphs::baselines::slow_preprocessing;
use proximity_graphs::core::{
    check_navigable, check_pg_exhaustive, GNet, MergedGraph, MergedParams, Starts, ThetaGraph,
};
use proximity_graphs::metric::{Dataset, Euclidean};
use proximity_graphs::workloads;

fn queries_for(points: &[Vec<f64>], seed: u64) -> Vec<Vec<f64>> {
    let mut qs = workloads::perturbed_queries(points, 10, 1.0, seed);
    let d = points[0].len();
    qs.extend(workloads::uniform_queries(10, d, -30.0, 130.0, seed + 1));
    // Data points themselves are legal queries (exact NN must be returned,
    // since (1+ε) * 0 = 0).
    qs.push(points[0].clone());
    qs.push(points[points.len() / 2].clone());
    qs
}

#[test]
fn gnet_is_a_pg_on_every_workload() {
    for (name, points) in workloads::standard_suite(120, 7) {
        let queries = queries_for(&points, 100);
        let data = Dataset::new(points, Euclidean);
        for eps in [1.0, 0.5] {
            let g = GNet::build(&data, eps);
            check_navigable(&g.graph, &data, &queries, eps)
                .unwrap_or_else(|v| panic!("{name} eps={eps}: not navigable: {v}"));
            check_pg_exhaustive(&g.graph, &data, &queries, eps, Starts::All)
                .unwrap_or_else(|v| panic!("{name} eps={eps}: greedy failed: {v}"));
        }
    }
}

#[test]
fn theta_graph_is_a_pg_at_the_lemma_constant() {
    let points = workloads::uniform_cube(70, 2, 40.0, 9);
    let queries = queries_for(&points, 102);
    let data = Dataset::new(points, Euclidean);
    let g = ThetaGraph::build_for_pg(&data, 1.0);
    check_navigable(&g.graph, &data, &queries, 1.0).unwrap();
    check_pg_exhaustive(&g.graph, &data, &queries, 1.0, Starts::All).unwrap();
}

#[test]
fn merged_graph_is_a_pg_for_several_seeds() {
    let points = workloads::gaussian_clusters(100, 2, 8, 2.0, 80.0, 10);
    let queries = queries_for(&points, 103);
    let data = Dataset::new(points, Euclidean);
    for seed in [1u64, 22, 333] {
        let m = MergedGraph::build(
            &data,
            MergedParams {
                seed,
                ..MergedParams::new(1.0)
            },
        );
        check_navigable(&m.graph, &data, &queries, 1.0)
            .unwrap_or_else(|v| panic!("seed {seed}: {v}"));
        check_pg_exhaustive(&m.graph, &data, &queries, 1.0, Starts::Stride(9))
            .unwrap_or_else(|v| panic!("seed {seed}: {v}"));
    }
}

#[test]
fn best_of_runs_rebuilds_from_its_own_params() {
    // The kept run was sampled at `params.seed + r`; the graph it returns
    // must say so, or its params describe another graph.
    for seed in [1u64, 2, 3] {
        let points = workloads::uniform_cube(300, 2, 100.0, seed);
        let data = Dataset::new(points, Euclidean);
        let best = MergedGraph::build_best_of(&data, MergedParams::new(1.0), 10);
        let rebuilt = MergedGraph::build(&data, best.params);
        assert_eq!(rebuilt.graph, best.graph, "input seed {seed}");
        assert_eq!(rebuilt.jackpots, best.jackpots, "input seed {seed}");
    }
}

#[test]
fn diskann_slow_honors_the_indyk_xu_ratio() {
    let points = workloads::uniform_cube(80, 2, 50.0, 11);
    let queries = queries_for(&points, 104);
    let data = Dataset::new(points, Euclidean);
    for alpha in [1.5f64, 2.0, 3.0] {
        let eps = 2.0 / (alpha - 1.0); // ratio (α+1)/(α-1) = 1 + ε
        let g = slow_preprocessing(&data, alpha);
        check_navigable(&g, &data, &queries, eps).unwrap_or_else(|v| panic!("alpha {alpha}: {v}"));
        check_pg_exhaustive(&g, &data, &queries, eps, Starts::Stride(7))
            .unwrap_or_else(|v| panic!("alpha {alpha}: {v}"));
    }
}

#[test]
fn checkers_agree_on_broken_graphs() {
    // Remove edges until navigability breaks; both checkers must flag the
    // same graphs (failure-injection cross-validation).
    let points = workloads::uniform_cube(50, 2, 30.0, 12);
    let queries = queries_for(&points, 105);
    let data = Dataset::new(points, Euclidean);
    let g = GNet::build(&data, 1.0);

    let mut broken = g.graph.clone();
    // Strip vertex 0 of all its out-edges: it becomes a sink, so greedy
    // starting there cannot leave. Unless 0 is a (1+ε)-ANN for every query,
    // both checkers must fail.
    for &t in g.graph.neighbors(0).to_vec().iter() {
        broken = broken.without_edge(0, t);
    }
    let nav = check_navigable(&broken, &data, &queries, 1.0);
    let exh = check_pg_exhaustive(&broken, &data, &queries, 1.0, Starts::All);
    assert_eq!(nav.is_ok(), exh.is_ok(), "checkers disagree");
    assert!(nav.is_err(), "a sink vertex should break the PG property");
}

#[test]
fn complete_graph_is_always_a_pg() {
    use proximity_graphs::core::Graph;
    let points = workloads::uniform_cube(40, 3, 20.0, 13);
    let queries = queries_for(&points, 106);
    let data = Dataset::new(points, Euclidean);
    let g = Graph::complete(40);
    for eps in [0.01, 0.5, 1.0] {
        check_navigable(&g, &data, &queries, eps).unwrap();
    }
}
