//! BFS/degree vertex relabeling is a **pure relabeling**: for every graph
//! family in the workspace — `GNet`, θ-graphs, HNSW's ground layer, Vamana,
//! NSW, and the complete graph — searching the reordered index must be
//! bit-identical to searching the original once ids are mapped back:
//! same greedy walk (result, full hop sequence, `dist_comps`), same
//! budgeted walk, same beam results and accounting. A reordered engine must
//! also survive the snapshot round trip (plain and quantized) unchanged.

use proximity_graphs::baselines::{nsw, vamana, Hnsw, HnswParams, NswParams, VamanaParams};
use proximity_graphs::core::{
    beam_search_detailed, bfs_degree_order, greedy, query, GNet, Graph, QueryEngine, ThetaGraph,
};
use proximity_graphs::metric::{Dataset, Euclidean, FlatRow, QuantKind};
use proximity_graphs::workloads;

/// The six graph families the satellite pins, as `(name, builder)` pairs.
fn families(data: &Dataset<Vec<f64>, Euclidean>) -> Vec<(&'static str, Graph)> {
    vec![
        ("gnet", GNet::build_fast(data, 1.0).graph),
        (
            "theta",
            ThetaGraph::build(data, std::f64::consts::FRAC_PI_4).graph,
        ),
        (
            "hnsw-ground",
            Hnsw::build(data, HnswParams::default()).ground_layer(),
        ),
        ("vamana", vamana(data, VamanaParams::default())),
        ("nsw", nsw(data, NswParams::default())),
        ("brute", Graph::complete(data.len())),
    ]
}

/// Start vertices spread deterministically over `0..n`.
fn spread_starts(count: usize, n: usize) -> Vec<u32> {
    (0..count).map(|i| ((i * 2654435761) % n) as u32).collect()
}

#[test]
fn relabeling_preserves_every_search_family_bit_for_bit() {
    let n = 160;
    let d = 2;
    let rows = workloads::uniform_cube(n, d, 90.0, 0x5EED);
    let queries = workloads::uniform_queries_flat(12, d, -5.0, 95.0, 0xFACE);
    let queries: Vec<Vec<f64>> = (0..12).map(|i| queries.row(i).to_vec()).collect();
    let data = Dataset::new(rows.clone(), Euclidean);

    for (name, graph) in families(&data) {
        let map = bfs_degree_order(&graph, 0);
        let relabeled = map.relabel_graph(&graph);
        let permuted: Vec<Vec<f64>> = (0..n)
            .map(|new| rows[map.to_old(new as u32) as usize].clone())
            .collect();
        let rdata = Dataset::new(permuted, Euclidean);

        // `QueryEngine::reorder_bfs` is this relabeling and nothing else, so
        // the walks below pin the engine-level pass too.
        let (reordered, rmap) = QueryEngine::new(graph.clone(), data.clone()).reorder_bfs(0);
        assert_eq!(reordered.graph(), &relabeled, "{name}: reorder_bfs graph");
        for v in 0..n {
            assert_eq!(rmap.to_old(v as u32), map.to_old(v as u32), "{name}: map");
            assert_eq!(reordered.data().point(v), rdata.point(v), "{name}: points");
        }

        for (qi, q) in queries.iter().enumerate() {
            for &start in &spread_starts(5, n) {
                let rstart = map.to_new(start);

                // Greedy: identical walk under the id map, hop by hop.
                let a = greedy(&graph, &data, start, q);
                let b = greedy(&relabeled, &rdata, rstart, q);
                let b_hops: Vec<u32> = b.hops.iter().map(|&v| map.to_old(v)).collect();
                assert_eq!(
                    (
                        map.to_old(b.result),
                        b.result_dist,
                        b_hops,
                        b.dist_comps,
                        b.self_terminated
                    ),
                    (
                        a.result,
                        a.result_dist,
                        a.hops.clone(),
                        a.dist_comps,
                        a.self_terminated
                    ),
                    "{name}: greedy diverged under relabeling (query {qi}, start {start})"
                );

                // Budgeted walk: same contract at tight and loose budgets.
                for budget in [3u64, 25] {
                    let a = query(&graph, &data, start, q, budget);
                    let b = query(&relabeled, &rdata, rstart, q, budget);
                    let b_hops: Vec<u32> = b.hops.iter().map(|&v| map.to_old(v)).collect();
                    assert_eq!(
                        (map.to_old(b.result), b.result_dist, b_hops, b.dist_comps),
                        (a.result, a.result_dist, a.hops.clone(), a.dist_comps),
                        "{name}: budget-{budget} walk diverged (query {qi}, start {start})"
                    );
                }

                // Beam: identical results and accounting at narrow and full width.
                for ef in [4usize, n] {
                    let a = beam_search_detailed(&graph, &data, start, q, ef, 5);
                    let b = beam_search_detailed(&relabeled, &rdata, rstart, q, ef, 5);
                    let b_results: Vec<(u32, f64)> =
                        b.results.iter().map(|&(v, s)| (map.to_old(v), s)).collect();
                    assert_eq!(
                        (b_results, b.dist_comps, b.expansions),
                        (a.results.clone(), a.dist_comps, a.expansions),
                        "{name}: beam ef={ef} diverged (query {qi}, start {start})"
                    );
                }
            }
        }
    }
}

#[test]
fn reordering_is_a_permutation_on_every_family() {
    let data = Dataset::new(workloads::uniform_cube(120, 3, 50.0, 0xA11), Euclidean);
    for (name, graph) in families(&data) {
        let map = bfs_degree_order(&graph, 7);
        let mut seen = vec![false; data.len()];
        for old in 0..data.len() as u32 {
            let new = map.to_new(old);
            assert_eq!(map.to_old(new), old, "{name}: to_old(to_new) != id");
            assert!(!seen[new as usize], "{name}: new id {new} assigned twice");
            seen[new as usize] = true;
        }
        // Edge multiset is preserved, just relabeled.
        let relabeled = map.relabel_graph(&graph);
        let count = |g: &Graph| {
            (0..data.len())
                .map(|v| g.neighbors(v as u32).len())
                .sum::<usize>()
        };
        assert_eq!(
            count(&relabeled),
            count(&graph),
            "{name}: edge count changed"
        );
    }
}

#[test]
fn a_reordered_engine_survives_the_snapshot_round_trip() {
    let n = 140;
    let d = 2;
    let side = 70.0;
    let data = workloads::uniform_cube_flat(n, d, side, 0xD0E).into_dataset(Euclidean);
    let g = GNet::build_fast(&data, 1.0);
    let engine = QueryEngine::new(g.graph, data);
    let (reordered, map) = engine.reorder_bfs(0);

    let queries = workloads::uniform_queries_flat(10, d, -5.0, side + 5.0, 0xB0B).into_rows();
    let starts: Vec<u32> = spread_starts(10, n)
        .iter()
        .map(|&s| map.to_new(s))
        .collect();
    let before = reordered.batch_beam_detailed(&starts, &queries, 24, 5);

    // Plain snapshot (format v1).
    let path = std::env::temp_dir().join(format!("pg_reorder_rt_{}.pgix", std::process::id()));
    reordered.save(&path).unwrap();
    let loaded = QueryEngine::<FlatRow, Euclidean>::load(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    assert_eq!(loaded.graph(), reordered.graph());
    let after = loaded.batch_beam_detailed(&starts, &queries, 24, 5);
    assert_eq!(
        after.outcomes, before.outcomes,
        "plain round trip changed answers"
    );

    // Quantized snapshot (format v2), both compact representations.
    for kind in [QuantKind::F32, QuantKind::Sq8] {
        let compact = reordered.quantize(kind).unwrap();
        let qbefore = reordered.batch_beam_quantized_detailed(&compact, &starts, &queries, 24, 5);
        let path = std::env::temp_dir().join(format!(
            "pg_reorder_rt_{}_{}.pgix",
            std::process::id(),
            kind.name()
        ));
        reordered.save_quantized(&path, 0, None, &compact).unwrap();
        let (qloaded, back, meta) =
            QueryEngine::<FlatRow, Euclidean>::load_quantized(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(back, compact, "{}: compact store round trip", kind.name());
        assert_eq!(meta.n, n as u64);
        assert_eq!(qloaded.graph(), reordered.graph());
        let qafter = qloaded.batch_beam_quantized_detailed(&back, &starts, &queries, 24, 5);
        assert_eq!(
            qafter.outcomes,
            qbefore.outcomes,
            "{}: quantized round trip changed answers",
            kind.name()
        );
    }
}
