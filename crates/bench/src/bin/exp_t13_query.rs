//! **Experiment T1.3-query** — Theorem 1.3 query bound: greedy on the
//! merged graph costs `O((1/ε)^λ log²Δ + (1/ε)^{d-1} log n log²Δ)` distance
//! computations, and the Section 5.2 walk structure holds — jackpot hops
//! partition the walk into short non-jackpot subsequences.
//!
//! Run: `cargo run --release -p pg-bench --bin exp_t13_query [--full]`

#![forbid(unsafe_code)]

use pg_bench::{fmt, measure_greedy, Args, Table};
use pg_core::{greedy, MergedGraph, MergedParams};
use pg_metric::Euclidean;
use pg_workloads as workloads;

fn main() {
    let full = Args::parse(&["--full"], &[]).has("--full");
    println!("# T1.3-query: merged-graph greedy cost and the Section 5.2 walk structure\n");

    let ns: Vec<usize> = if full {
        vec![1000, 2000, 4000, 8000, 16000]
    } else {
        vec![500, 1000, 2000, 4000]
    };

    let mut t = Table::new(&[
        "n",
        "logΔ",
        "τ",
        "dists/query",
        "hops",
        "worst ratio",
        "max non-jackpot run",
        "⌈ln n·logΔ⌉ bound",
    ]);
    for &n in &ns {
        let data =
            workloads::uniform_cube_flat(n, 2, (n as f64).sqrt() * 4.0, 31).into_dataset(Euclidean);
        let merged = MergedGraph::build(&data, MergedParams::new(1.0));
        let queries =
            workloads::uniform_queries_flat(50, 2, 0.0, (n as f64).sqrt() * 4.0, 32).into_rows();
        let (dists, hops, worst) = measure_greedy(&merged.graph, &data, &queries);

        // Section 5.2 structure: the longest run of consecutive non-jackpot
        // hop vertices must stay below ceil(ln n * log Δ) w.h.p.
        let mut max_run = 0usize;
        for (i, q) in queries.iter().enumerate() {
            let start = ((i * 7919) % n) as u32;
            let out = greedy(&merged.graph, &data, start, q);
            let mut run = 0usize;
            for &h in &out.hops {
                if merged.jackpots[h as usize] {
                    run = 0;
                } else {
                    run += 1;
                    max_run = max_run.max(run);
                }
            }
        }
        // tau = min(1, z / logΔ)  ⇒  logΔ = z / tau whenever tau < 1.
        let ld = (merged.params.z / merged.tau).max(1.0);
        let bound = ((n as f64).ln() * ld).ceil();
        t.row(vec![
            n.to_string(),
            fmt(ld, 0),
            fmt(merged.tau, 3),
            fmt(dists, 0),
            fmt(hops, 1),
            fmt(worst, 3),
            max_run.to_string(),
            fmt(bound, 0),
        ]);
    }
    t.print();
    println!("\nShape: dists/query stays polylog while brute force would be n; every");
    println!("non-jackpot run sits far below the ⌈ln n · log Δ⌉ ceiling of Lemma 5.2;");
    println!("worst ratio <= 1+ε = 2 from every start (the merged graph is a (1+ε)-PG).");
}
