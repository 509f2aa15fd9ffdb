//! Recommendation-style scenario: clustered "embedding" vectors, queries
//! perturbed from real items — the workload the paper's introduction
//! motivates (recommendation systems, entity matching, multimedia search).
//!
//! Builds the paper's graphs and the practical baselines, then reports
//! recall@1 and distance computations per query for each.
//!
//! Run with: `cargo run --release --example recommendation`

use std::time::Instant;

use proximity_graphs::baselines::{nsw, vamana, Hnsw, HnswParams, NswParams, VamanaParams};
use proximity_graphs::core::{
    beam_search_detailed, greedy, GNet, Graph, MergedGraph, MergedParams,
};
use proximity_graphs::metric::{Counting, Dataset, Euclidean};
use proximity_graphs::workloads;

fn main() {
    let n = 4_000;
    let dim = 4;
    // 32 "genres" of items, Gaussian-clustered embeddings.
    let points = workloads::gaussian_clusters(n, dim, 32, 2.0, 100.0, 2024);
    let queries = workloads::perturbed_queries(&points, 200, 1.0, 99);
    let data = Dataset::new(points, Counting::new(Euclidean));

    println!("Recommendation workload: n = {n}, d = {dim}, 32 clusters, 200 near-item queries");
    println!();
    println!(
        "{:<18} {:>10} {:>10} {:>12} {:>10} {:>10}",
        "index", "build-s", "edges", "dists/query", "recall@1", "hops"
    );

    // Ground truth.
    let truth: Vec<usize> = queries.iter().map(|q| data.nearest_brute(q).0).collect();

    let report = |name: &str, graph: &Graph, build_s: f64, beam: bool| {
        let mut comps = 0u64;
        let mut hits = 0usize;
        let mut hops = 0usize;
        for (q, &t) in queries.iter().zip(truth.iter()) {
            data.metric().reset();
            let got = if beam {
                let out = beam_search_detailed(graph, &data, 0, q, 16, 1);
                comps += out.dist_comps;
                out.results[0].0 as usize
            } else {
                let out = greedy(graph, &data, 0, q);
                comps += out.dist_comps;
                hops += out.hops.len();
                out.result as usize
            };
            if got == t {
                hits += 1;
            }
        }
        println!(
            "{:<18} {:>10.2} {:>10} {:>12.0} {:>9.1}% {:>10.1}",
            name,
            build_s,
            graph.edge_count(),
            comps as f64 / queries.len() as f64,
            100.0 * hits as f64 / queries.len() as f64,
            hops as f64 / queries.len() as f64,
        );
    };

    // G_net (Theorem 1.1), greedy routing.
    let t0 = Instant::now();
    let gnet = GNet::build(&data, 1.0);
    let t_gnet = t0.elapsed().as_secs_f64();
    report("G_net (greedy)", &gnet.graph, t_gnet, false);

    // Merged graph (Theorem 1.3), greedy routing. θ widened for speed at
    // d = 4: Lemma 5.1's ε/32 is a worst-case constant; `pg_paper`'s
    // θ-graph row finds θ = 1.2, 38× coarser, still navigable on 250
    // uniform points in the plane.
    let t0 = Instant::now();
    let merged = MergedGraph::build(&data, MergedParams::new(1.0).with_theta(0.9));
    let t_merged = t0.elapsed().as_secs_f64();
    report("merged (greedy)", &merged.graph, t_merged, false);

    // Vamana (practical DiskANN), beam routing.
    let t0 = Instant::now();
    let vg = vamana(&data, VamanaParams::default());
    let t_v = t0.elapsed().as_secs_f64();
    report("Vamana (beam16)", &vg, t_v, true);

    // NSW, beam routing.
    let t0 = Instant::now();
    let ng = nsw(&data, NswParams::default());
    let t_n = t0.elapsed().as_secs_f64();
    report("NSW (beam16)", &ng, t_n, true);

    // HNSW with its own layered search.
    let t0 = Instant::now();
    let h = Hnsw::build(&data, HnswParams::default());
    let t_h = t0.elapsed().as_secs_f64();
    let mut comps = 0u64;
    let mut hits = 0usize;
    for (q, &t) in queries.iter().zip(truth.iter()) {
        let out = h.search_detailed(&data, q, 16, 1);
        comps += out.dist_comps;
        if out.results[0].0 as usize == t {
            hits += 1;
        }
    }
    println!(
        "{:<18} {:>10.2} {:>10} {:>12.0} {:>9.1}% {:>10}",
        "HNSW (ef16)",
        t_h,
        h.total_edges(),
        comps as f64 / queries.len() as f64,
        100.0 * hits as f64 / queries.len() as f64,
        "-",
    );

    println!();
    println!("Brute force reference: {n} distance computations per query, 100% recall.");
    println!("Note: G_net/merged answers carry a worst-case (1+ε) guarantee from ANY start;");
    println!("the practical baselines do not (Indyk–Xu showed only DiskANN-slow has one).");
}
