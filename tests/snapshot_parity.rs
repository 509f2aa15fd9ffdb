//! Snapshot parity: a saved-then-loaded `QueryEngine` must be
//! **observationally identical** to the engine it was saved from — same
//! graph, same coordinates bit for bit, and identical `batch_greedy` /
//! `batch_query` / `batch_beam_detailed` answers (results, hops,
//! `dist_comps`) at every thread count. Persistence, like parallelism and the flat layout
//! (`tests/flat_parity.rs`), is allowed to change the wall clock only.

use proptest::prelude::*;
use proximity_graphs::core::{GNet, QueryEngine};
use proximity_graphs::metric::{Euclidean, FlatRow};
use proximity_graphs::store::MetricTag;
use proximity_graphs::workloads;

fn thread_counts() -> [usize; 3] {
    let machine = std::thread::available_parallelism().map_or(1, |c| c.get());
    [1, 2, machine]
}

fn temp_path(n: usize, d: usize, seed: u64) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "pg_snap_parity_{}_{n}_{d}_{seed}.pgix",
        std::process::id()
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn saved_then_loaded_engine_answers_bit_identically(
        n in 8usize..90,
        d in 1usize..5,
        m in 1usize..10,
        seed in 0u64..1_000_000,
        budget in 1u64..200,
        ef in 1usize..8,
        k in 1usize..6,
    ) {
        let side = 40.0;
        let data = workloads::uniform_cube_flat(n, d, side, seed).into_dataset(Euclidean);
        let g = GNet::build_fast(&data, 1.0);
        let params = g.params;
        let engine = QueryEngine::new(g.graph, data);

        let path = temp_path(n, d, seed);
        engine.save_with(&path, 0, Some(params.into())).unwrap();
        let (loaded, meta) = QueryEngine::<FlatRow, Euclidean>::load_with_meta(&path).unwrap();
        std::fs::remove_file(&path).unwrap();

        // The stored artifacts round-trip exactly.
        prop_assert_eq!(loaded.graph(), engine.graph());
        prop_assert_eq!(loaded.data().len(), engine.data().len());
        for i in 0..engine.data().len() {
            prop_assert_eq!(
                loaded.data().point(i).coords(),
                engine.data().point(i).coords()
            );
        }
        prop_assert_eq!(meta.metric, MetricTag::Euclidean);
        prop_assert_eq!(meta.n, n as u64);
        prop_assert_eq!(meta.dims, d as u32);
        prop_assert_eq!(meta.build.unwrap().epsilon, params.epsilon);

        // ...and so does every observable of the serving API, for thread
        // counts 1 / 2 / machine.
        let queries = workloads::uniform_queries_flat(m, d, -5.0, side + 5.0, seed ^ 0x5A5A)
            .into_rows();
        let starts: Vec<u32> = (0..m).map(|i| ((i * 37 + seed as usize) % n) as u32).collect();
        for threads in thread_counts() {
            let a = engine.clone().with_threads(threads);
            let b = loaded.clone().with_threads(threads);

            let ba = a.batch_greedy(&starts, &queries);
            let bb = b.batch_greedy(&starts, &queries);
            prop_assert_eq!(ba.dist_comps, bb.dist_comps, "greedy at {} threads", threads);
            for (x, y) in ba.outcomes.iter().zip(bb.outcomes.iter()) {
                prop_assert_eq!(x.result, y.result);
                prop_assert_eq!(x.result_dist, y.result_dist);
                prop_assert_eq!(&x.hops, &y.hops);
                prop_assert_eq!(x.dist_comps, y.dist_comps);
                prop_assert_eq!(x.self_terminated, y.self_terminated);
            }

            let ba = a.batch_query(&starts, &queries, budget);
            let bb = b.batch_query(&starts, &queries, budget);
            prop_assert_eq!(ba.dist_comps, bb.dist_comps, "budgeted at {} threads", threads);
            for (x, y) in ba.outcomes.iter().zip(bb.outcomes.iter()) {
                prop_assert_eq!(x.result, y.result);
                prop_assert_eq!(x.result_dist, y.result_dist);
                prop_assert_eq!(&x.hops, &y.hops);
                prop_assert_eq!(x.dist_comps, y.dist_comps);
                prop_assert_eq!(x.self_terminated, y.self_terminated);
            }

            let ba = a.batch_beam_detailed(&starts, &queries, ef, k);
            let bb = b.batch_beam_detailed(&starts, &queries, ef, k);
            prop_assert_eq!(&ba.outcomes, &bb.outcomes, "beam at {} threads", threads);
            prop_assert_eq!(ba.dist_comps, bb.dist_comps);
        }
    }
}
