//! Layout parity: a flat-backed dataset (`FlatPoints` → `Dataset<FlatRow>`)
//! must be **observationally identical** to the legacy nested
//! `Vec<Vec<f64>>` dataset holding the same coordinates — same built
//! graphs, same greedy/budgeted/beam answers hop for hop, same brute-force
//! k-NN, and the same `dist_comps` accounting, at every thread count. The
//! flat layout (and the squared-distance comparison surrogate both layouts
//! share) is allowed to change the wall clock only.

use proptest::prelude::*;
use proximity_graphs::core::{
    beam_search_detailed, greedy, query, GNet, QueryEngine, ShardAssignment, ShardedEngine,
};
use proximity_graphs::metric::{
    Angular, Chebyshev, Counting, Dataset, Euclidean, FlatPoints, FlatRow, Manhattan, Metric,
    Scaled,
};
use proximity_graphs::workloads;

type CountingDataset<P> = Dataset<P, Counting<Euclidean>>;

/// The same instance in both layouts, plus queries and start vertices.
#[allow(clippy::type_complexity)]
fn paired_instance(
    n: usize,
    d: usize,
    m: usize,
    seed: u64,
) -> (
    CountingDataset<FlatRow>,
    CountingDataset<Vec<f64>>,
    Vec<FlatRow>,
    Vec<Vec<f64>>,
    Vec<u32>,
) {
    let side = 40.0;
    let flat_pts = workloads::uniform_cube_flat(n, d, side, seed);
    let nested_pts = flat_pts.to_nested();
    let queries_flat = workloads::uniform_queries_flat(m, d, -5.0, side + 5.0, seed ^ 0xABCD);
    let queries_nested = queries_flat.to_nested();
    let starts: Vec<u32> = (0..m)
        .map(|i| ((i * 31 + seed as usize) % n) as u32)
        .collect();
    (
        flat_pts.into_dataset(Counting::new(Euclidean)),
        Dataset::new(nested_pts, Counting::new(Euclidean)),
        queries_flat.into_rows(),
        queries_nested,
        starts,
    )
}

fn thread_counts() -> [usize; 3] {
    let machine = std::thread::available_parallelism().map_or(1, |c| c.get());
    [1, 2, machine]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn search_and_knn_agree_across_layouts(
        n in 8usize..100,
        d in 1usize..6,
        m in 1usize..10,
        seed in 0u64..1_000_000,
        budget in 1u64..200,
        ef in 1usize..8,
        k in 1usize..6,
    ) {
        let (flat, nested, q_flat, q_nested, starts) = paired_instance(n, d, m, seed);

        // The same graph comes out of both layouts.
        let gf = GNet::build_fast(&flat, 1.0);
        let gn = GNet::build_fast(&nested, 1.0);
        prop_assert_eq!(&gf.graph, &gn.graph);
        prop_assert!(gf.graph.is_banded());
        flat.metric().reset();
        nested.metric().reset();

        // Both inputs of every walk: the banded graph as built (annulus
        // scan) and the same edges with the bands stripped (whole rows).
        let stripped = (gf.graph.without_bands(), gn.graph.without_bands());
        let inputs = [(&gf.graph, &gn.graph), (&stripped.0, &stripped.1)];
        let walks = inputs.iter().flat_map(|g| q_flat.iter().zip(&q_nested).enumerate().map(move |w| (g, w)));
        for (&(graph_f, graph_n), (i, (qf, qn))) in walks {
            let s = starts[i];
            let a = greedy(graph_f, &flat, s, qf);
            let b = greedy(graph_n, &nested, s, qn);
            prop_assert_eq!(a.result, b.result);
            prop_assert_eq!(a.result_dist, b.result_dist);
            prop_assert_eq!(&a.hops, &b.hops);
            prop_assert_eq!(a.dist_comps, b.dist_comps);
            prop_assert_eq!(a.self_terminated, b.self_terminated);

            let a = query(graph_f, &flat, s, qf, budget);
            let b = query(graph_n, &nested, s, qn, budget);
            prop_assert_eq!(a.result, b.result);
            prop_assert_eq!(a.result_dist, b.result_dist);
            prop_assert_eq!(&a.hops, &b.hops);
            prop_assert_eq!(a.dist_comps, b.dist_comps);
            prop_assert_eq!(a.self_terminated, b.self_terminated);

            let a = beam_search_detailed(graph_f, &flat, s, qf, ef, k);
            let b = beam_search_detailed(graph_n, &nested, s, qn, ef, k);
            prop_assert_eq!(a, b);

            // Brute-force selection: same ids, bit-identical distances.
            prop_assert_eq!(flat.k_nearest_brute(qf, k), nested.k_nearest_brute(qn, k));
            prop_assert_eq!(flat.nearest_brute(qf), nested.nearest_brute(qn));
        }
        // Identical work done on both layouts, counted by the shared-atomic
        // instrumentation the paper's cost model uses.
        prop_assert_eq!(flat.metric().count(), nested.metric().count());
    }

    #[test]
    fn engine_batches_agree_across_layouts_and_thread_counts(
        n in 8usize..80,
        d in 1usize..5,
        m in 1usize..12,
        seed in 0u64..1_000_000,
        ef in 1usize..8,
        k in 1usize..5,
    ) {
        let (flat, nested, q_flat, q_nested, starts) = paired_instance(n, d, m, seed);
        let g = GNet::build_fast(&flat, 1.0);
        let flat_engine = QueryEngine::new(g.graph.clone(), flat);
        let nested_engine = QueryEngine::new(g.graph, nested);

        let mut reference: Option<u64> = None;
        for threads in thread_counts() {
            let bf = flat_engine.clone().with_threads(threads).batch_greedy(&starts, &q_flat);
            let bn = nested_engine.clone().with_threads(threads).batch_greedy(&starts, &q_nested);
            prop_assert_eq!(bf.dist_comps, bn.dist_comps);
            for (a, b) in bf.outcomes.iter().zip(bn.outcomes.iter()) {
                prop_assert_eq!(a.result, b.result);
                prop_assert_eq!(a.result_dist, b.result_dist);
                prop_assert_eq!(&a.hops, &b.hops);
                prop_assert_eq!(a.dist_comps, b.dist_comps);
            }
            // Thread-count invariance of the distance totals, across layouts.
            let expect = *reference.get_or_insert(bf.dist_comps);
            prop_assert_eq!(bf.dist_comps, expect);

            let ebf = flat_engine.clone().with_threads(threads).batch_beam_detailed(&starts, &q_flat, ef, k);
            let ebn = nested_engine.clone().with_threads(threads).batch_beam_detailed(&starts, &q_nested, ef, k);
            prop_assert_eq!(&ebf.outcomes, &ebn.outcomes);
            prop_assert_eq!(ebf.dist_comps, ebn.dist_comps);
        }
    }
}

/// A dataset from `FlatPoints::into_dataset` scores from its row-major
/// buffer; `Dataset::new` over the same handles scores through them. Every
/// accessor must agree to the last bit, and count the same work.
fn buffer_path_matches_handle_path<M>(points: &FlatPoints, queries: &[FlatRow], metric: M)
where
    M: Metric<FlatRow> + Metric<[f64]> + Clone,
{
    let counter = Counting::new(metric);
    let buffer = points.clone().into_dataset(counter.clone());
    let handles = Dataset::new(points.clone().into_rows(), counter.clone());
    assert!(buffer.reads_row_major_buffer());
    assert!(!handles.reads_row_major_buffer());
    assert_eq!(buffer.points(), handles.points());

    // Each call on one path is followed by the same call on the other, so
    // the shared counter must advance by exactly one per call.
    let same = |a: f64, b: f64| {
        assert_eq!(a.to_bits(), b.to_bits());
        assert_eq!(
            counter.take(),
            2,
            "each accessor is one distance computation"
        );
    };
    let n = buffer.len();
    for i in 0..n {
        for j in [0, i, (i * 7 + 3) % n, n - 1] {
            same(buffer.dist(i, j), handles.dist(i, j));
            same(buffer.dist_surrogate(i, j), handles.dist_surrogate(i, j));
        }
        for q in queries {
            same(buffer.dist_to(i, q), handles.dist_to(i, q));
            same(buffer.surrogate_to(i, q), handles.surrogate_to(i, q));
        }
    }
    for q in queries {
        for k in [1, 5, n] {
            assert_eq!(buffer.k_nearest_brute(q, k), handles.k_nearest_brute(q, k));
            assert_eq!(counter.take(), 2 * n as u64);
        }
    }
}

#[test]
fn buffer_path_is_bit_identical_under_every_metric() {
    for (d, seed) in [(1, 5u64), (2, 6), (7, 7), (16, 8)] {
        let points = workloads::uniform_cube_flat(60, d, 25.0, seed);
        let queries = workloads::uniform_queries_flat(6, d, -3.0, 28.0, seed ^ 0xF00).into_rows();
        buffer_path_matches_handle_path(&points, &queries, Euclidean);
        buffer_path_matches_handle_path(&points, &queries, Manhattan);
        buffer_path_matches_handle_path(&points, &queries, Chebyshev);
        buffer_path_matches_handle_path(&points, &queries, Scaled::new(Euclidean, 0.37));
    }
    let sphere = workloads::unit_sphere_flat(60, 5, 9);
    let queries = workloads::unit_sphere_flat(6, 5, 10).into_rows();
    buffer_path_matches_handle_path(&sphere, &queries, Angular);
}

#[test]
fn map_metric_drops_the_buffer_path_and_keeps_the_answers() {
    let points = workloads::uniform_cube_flat(40, 3, 10.0, 21);
    let flat = points.clone().into_dataset(Euclidean);
    let mapped = points.into_dataset(Euclidean).map_metric(Manhattan);
    assert!(flat.reads_row_major_buffer());
    assert!(!mapped.reads_row_major_buffer());
    assert_eq!(mapped.points(), flat.points());
    for i in 0..40 {
        let want = Manhattan.dist(flat.point(i), flat.point(39 - i));
        assert_eq!(mapped.dist(i, 39 - i).to_bits(), want.to_bits());
    }
}

#[test]
fn loaded_and_sharded_engines_score_from_the_buffer() {
    let points = workloads::uniform_cube_flat(120, 2, 30.0, 33);
    let data = points.clone().into_dataset(Euclidean);
    let graph = GNet::build_fast(&data, 1.0).graph;
    let built = QueryEngine::new(graph, data);
    assert!(built.data().reads_row_major_buffer());

    let snapshot = built
        .to_snapshot(0, None)
        .expect("a built engine snapshots");
    let (loaded, _) =
        QueryEngine::<FlatRow, Euclidean>::from_snapshot(snapshot).expect("its own snapshot loads");
    assert!(loaded.data().reads_row_major_buffer());

    let sharded = ShardedEngine::build(
        &points,
        Euclidean,
        1.0,
        3,
        &ShardAssignment::SeededRandom { seed: 4 },
    );
    assert!(sharded
        .shards()
        .iter()
        .all(|shard| shard.data().reads_row_major_buffer()));
}
