//! Property tests for the parallel batched query engine: on random graphs,
//! datasets and thread counts (1, 2, and the machine's parallelism), every
//! `batch_*` routine must return exactly what the sequential routine
//! returns per query, and the aggregated distance count must be the sum of
//! the per-query counts.

use pg_core::{beam_search_detailed, greedy, query, Graph, QueryEngine};
use pg_metric::{Dataset, Euclidean};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Deterministic random instance: an `n`-point 2-d dataset, a random sparse
/// digraph over it, `m` queries and start vertices.
#[allow(clippy::type_complexity)]
fn random_instance(
    n: usize,
    m: usize,
    seed: u64,
) -> (Dataset<Vec<f64>, Euclidean>, Graph, Vec<Vec<f64>>, Vec<u32>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let pts: Vec<Vec<f64>> = (0..n)
        .map(|_| vec![rng.random_range(0.0..30.0), rng.random_range(0.0..30.0)])
        .collect();
    let data = Dataset::new(pts, Euclidean);
    let adj: Vec<Vec<u32>> = (0..n)
        .map(|_| {
            let deg = rng.random_range(0..6usize);
            (0..deg).map(|_| rng.random_range(0..n) as u32).collect()
        })
        .collect();
    let graph = Graph::from_adjacency(adj);
    let queries: Vec<Vec<f64>> = (0..m)
        .map(|_| vec![rng.random_range(-5.0..35.0), rng.random_range(-5.0..35.0)])
        .collect();
    let starts: Vec<u32> = (0..m).map(|_| rng.random_range(0..n) as u32).collect();
    (data, graph, queries, starts)
}

fn thread_counts() -> [usize; 3] {
    let machine = std::thread::available_parallelism().map_or(1, |c| c.get());
    [1, 2, machine]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn batch_greedy_equals_sequential_greedy(
        n in 2usize..48,
        m in 1usize..20,
        seed in 0u64..1_000_000,
    ) {
        let (data, graph, queries, starts) = random_instance(n, m, seed);
        for threads in thread_counts() {
            let engine = QueryEngine::new(graph.clone(), data.clone()).with_threads(threads);
            let batch = engine.batch_greedy(&starts, &queries);
            prop_assert_eq!(batch.outcomes.len(), m);
            let mut total = 0u64;
            for (i, out) in batch.outcomes.iter().enumerate() {
                let solo = greedy(&graph, &data, starts[i], &queries[i]);
                prop_assert_eq!(out.result, solo.result);
                prop_assert_eq!(out.result_dist, solo.result_dist);
                prop_assert_eq!(&out.hops, &solo.hops);
                prop_assert_eq!(out.dist_comps, solo.dist_comps);
                prop_assert_eq!(out.self_terminated, solo.self_terminated);
                total += solo.dist_comps;
            }
            prop_assert_eq!(batch.dist_comps, total);
        }
    }

    #[test]
    fn batch_query_equals_sequential_query(
        n in 2usize..48,
        m in 1usize..20,
        seed in 0u64..1_000_000,
        budget in 1u64..120,
    ) {
        let (data, graph, queries, starts) = random_instance(n, m, seed);
        for threads in thread_counts() {
            let engine = QueryEngine::new(graph.clone(), data.clone()).with_threads(threads);
            let batch = engine.batch_query(&starts, &queries, budget);
            for (i, out) in batch.outcomes.iter().enumerate() {
                let solo = query(&graph, &data, starts[i], &queries[i], budget);
                prop_assert_eq!(out.result, solo.result);
                prop_assert_eq!(out.result_dist, solo.result_dist);
                prop_assert_eq!(&out.hops, &solo.hops);
                prop_assert_eq!(out.dist_comps, solo.dist_comps);
                prop_assert_eq!(out.self_terminated, solo.self_terminated);
                prop_assert!(out.dist_comps <= budget.max(1));
            }
        }
    }

    #[test]
    fn batch_beam_equals_sequential_beam_search(
        n in 2usize..48,
        m in 1usize..16,
        seed in 0u64..1_000_000,
        ef in 1usize..10,
        k in 1usize..6,
    ) {
        let (data, graph, queries, starts) = random_instance(n, m, seed);
        for threads in thread_counts() {
            let engine = QueryEngine::new(graph.clone(), data.clone()).with_threads(threads);
            let batch = engine.batch_beam_detailed(&starts, &queries, ef, k);
            prop_assert_eq!(batch.outcomes.len(), m);
            let mut total = 0u64;
            for (i, out) in batch.outcomes.iter().enumerate() {
                let solo = beam_search_detailed(&graph, &data, starts[i], &queries[i], ef, k);
                prop_assert_eq!(&out.results, &solo.results);
                total += solo.dist_comps;
            }
            prop_assert_eq!(batch.dist_comps, total);
        }
    }
}
