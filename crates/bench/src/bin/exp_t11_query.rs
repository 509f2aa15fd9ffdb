//! **Experiment T1.1-query** — Theorem 1.1 query bound:
//! greedy on `G_net` finds a `(1+ε)`-ANN within `O((1/ε)^λ log² Δ)`
//! distance computations, from any start vertex.
//!
//! Tables: query cost vs `n` (must stay ~flat while brute force grows
//! linearly), hop counts vs the proven `h` ceiling, cost vs `ε`, and
//! batched-query throughput vs thread count (the engine's answers and
//! distance totals are identical at every thread count; only the wall
//! clock moves).
//!
//! Run: `cargo run --release -p pg_bench --bin exp_t11_query
//! [--full] [--threads N] [--load-index PATH]`
//!
//! `--load-index PATH` makes the throughput section the **online half** of
//! the experiment pair: instead of rebuilding, the engine is loaded from a
//! snapshot persisted by `exp_t11_build --save-index PATH` (the loaded
//! engine's answers are bit-identical to a fresh build — pinned by
//! `tests/snapshot_parity.rs`). The scaling tables earlier in the binary
//! always build their own per-`n` indexes.

#![forbid(unsafe_code)]

use std::time::Instant;

use pg_bench::{fmt, measure_greedy_batch, spread_start, Args, Table};
use pg_core::{GNet, QueryEngine};
use pg_metric::{Euclidean, FlatRow};
use pg_workloads as workloads;

fn main() {
    let args = Args::parse(&["--full"], &["--threads", "--load-index"]);
    let full = args.has("--full");
    let threads = args.init_threads();
    println!("# T1.1-query: greedy cost = O((1/eps)^lambda * log^2 Delta), any start");
    println!("(query batches sharded over {threads} thread(s))\n");

    // ---- Query cost vs n ----------------------------------------------------
    let ns: Vec<usize> = if full {
        vec![1000, 2000, 4000, 8000, 16000, 32000]
    } else {
        vec![500, 1000, 2000, 4000, 8000]
    };
    let mut t = Table::new(&[
        "n",
        "logΔ",
        "dists/query",
        "hops",
        "h+1 ceiling",
        "worst ratio",
        "brute force",
    ]);
    for &n in &ns {
        // Constant density so log Δ grows gently with n.
        let data =
            workloads::uniform_cube_flat(n, 2, (n as f64).sqrt() * 4.0, 21).into_dataset(Euclidean);
        let g = GNet::build_fast(&data, 1.0);
        let log_aspect = g.hierarchy.log_aspect();
        let h = g.hierarchy.h();
        let queries =
            workloads::uniform_queries_flat(60, 2, 0.0, (n as f64).sqrt() * 4.0, 22).into_rows();
        let engine = QueryEngine::new(g.graph, data);
        let (dists, hops, worst) = measure_greedy_batch(&engine, &queries);
        t.row(vec![
            n.to_string(),
            log_aspect.to_string(),
            fmt(dists, 0),
            fmt(hops, 1),
            (h + 1).to_string(),
            fmt(worst, 3),
            n.to_string(),
        ]);
    }
    t.print();
    println!("\nShape: dists/query grows ~log^2 n (polylog) while brute force grows ~n;");
    println!("hops never exceed the proven h+1 ceiling; worst ratio <= 1+ε = 2.\n");

    // ---- Query cost vs epsilon ----------------------------------------------
    let n = if full { 4000 } else { 2000 };
    let data = workloads::uniform_cube_flat(n, 2, 260.0, 23).into_dataset(Euclidean);
    let queries = workloads::uniform_queries_flat(40, 2, -20.0, 280.0, 24).into_rows();
    let mut t = Table::new(&[
        "ε",
        "φ",
        "dists/query",
        "hops",
        "worst ratio",
        "guarantee 1+ε",
    ]);
    for eps in [1.0, 0.5, 0.25] {
        let g = GNet::build_fast(&data, eps);
        let phi = g.params.phi;
        let engine = QueryEngine::new(g.graph, data.clone());
        let (dists, hops, worst) = measure_greedy_batch(&engine, &queries);
        t.row(vec![
            fmt(eps, 2),
            fmt(phi, 0),
            fmt(dists, 0),
            fmt(hops, 1),
            fmt(worst, 4),
            fmt(1.0 + eps, 2),
        ]);
    }
    t.print();
    println!("\nSmaller ε buys a tighter worst ratio at ~φ^λ more distance work —");
    println!("exactly the (1/ε)^λ trade-off of Theorem 1.1.\n");

    // ---- Batched throughput vs thread count ---------------------------------
    let m = if full { 4096 } else { 1024 };
    let (engine, n, dims) = match args.value("--load-index") {
        Some(path) => {
            // Online half: serve a persisted index instead of rebuilding.
            let t0 = Instant::now();
            let (engine, meta) = QueryEngine::<FlatRow, Euclidean>::load_with_meta(&path)
                .expect("loading the index snapshot failed");
            let eps = meta.build.map_or("?".to_string(), |b| fmt(b.epsilon, 2));
            println!(
                "index loaded from {path} in {} s (n = {}, d = {}, built with eps = {eps})",
                fmt(t0.elapsed().as_secs_f64(), 3),
                meta.n,
                meta.dims
            );
            let n = meta.n as usize;
            (engine, n, meta.dims as usize)
        }
        None => {
            let n = if full { 16000 } else { 8000 };
            let data = workloads::uniform_cube_flat(n, 2, (n as f64).sqrt() * 4.0, 25)
                .into_dataset(Euclidean);
            let g = GNet::build_fast(&data, 1.0);
            (QueryEngine::new(g.graph, data), n, 2)
        }
    };
    let queries =
        workloads::uniform_queries_flat(m, dims, 0.0, (n as f64).sqrt() * 4.0, 26).into_rows();
    let starts: Vec<u32> = (0..m).map(|i| spread_start(i, n)).collect();

    let mut t = Table::new(&["threads", "batch dists", "wall-clock s", "queries/s"]);
    let mut reference_dists: Option<u64> = None;
    let mut sweep: Vec<usize> = vec![1, 2, 4];
    if !sweep.contains(&threads) {
        sweep.push(threads);
    }
    for &tc in &sweep {
        let e = engine.clone().with_threads(tc);
        let t0 = Instant::now();
        let batch = e.batch_greedy(&starts, &queries);
        let secs = t0.elapsed().as_secs_f64();
        // The engine contract: thread count never changes the work done.
        let expect = *reference_dists.get_or_insert(batch.dist_comps);
        assert_eq!(
            batch.dist_comps, expect,
            "distance totals must not depend on threads"
        );
        t.row(vec![
            tc.to_string(),
            batch.dist_comps.to_string(),
            fmt(secs, 3),
            fmt(m as f64 / secs, 0),
        ]);
    }
    t.print();
    println!("\n{m} queries on n = {n}: identical batch distance totals at every thread");
    println!("count (asserted above); wall-clock scales with the cores available.");
}
