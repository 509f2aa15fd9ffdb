//! **Experiment T1.3-sep** — the Euclidean separation: Theorem 1.2(1) vs
//! Theorem 1.3.
//!
//! * **Table A (general metric)** — the Section 3 tree instance: *every*
//!   2-PG is forced to carry `n · ⌈h/2⌉` edges, i.e. edges per point grow
//!   linearly in `log Δ` no matter how the graph is built. The paper's own
//!   `G_net` (a valid 2-PG) is shown paying the tax.
//! * **Table B (Euclidean)** — a fixed-`n` line-plus-satellite instance
//!   whose aspect ratio is swept over ten doublings: the merged graph of
//!   Theorem 1.3 keeps `O((1/ε)^λ · n)` edges — flat in `Δ` — while the
//!   nested `G_net` still drifts upward with `log Δ`.
//!
//! The contrast between the two slopes is the separation the paper's title
//! refers to: the `log Δ` edge tax is unavoidable in general metric spaces
//! (Table A) and removable in `R^d` (Table B).
//!
//! Run: `cargo run --release -p pg-bench --bin exp_t13_separation [--full]`

#![forbid(unsafe_code)]

use pg_bench::{fmt, linear_slope, Args, Table};
use pg_core::{GNet, MergedGraph, MergedParams};
use pg_hardness::TreeInstance;
use pg_metric::{Euclidean, FlatPoints};

/// Euclidean instance with exactly `n` points, `d_min = 1`,
/// `diam = spread`: a unit-spaced line of `n - 1` points plus one satellite.
fn line_plus_satellite(n: usize, spread: f64) -> FlatPoints {
    assert!(spread > 2.0 * n as f64, "satellite must clear the line");
    let mut pts = FlatPoints::with_capacity(n, 2);
    for i in 0..n - 1 {
        pts.push(&[i as f64, 0.0]);
    }
    pts.push(&[spread, 0.0]);
    pts
}

fn main() {
    let full = Args::parse(&["--full"], &[]).has("--full");
    println!("# T1.3-sep: the log Δ edge tax — forced in general metrics, absent in R^d\n");

    // ---- Table A: tree instance (general metric, forced growth) ------------
    println!("## A. General metric (Section 3 tree): forced edges per point vs log Δ\n");
    let ks: Vec<u32> = if full {
        vec![3, 4, 5, 6, 7, 8]
    } else {
        vec![3, 4, 5, 6, 7]
    };
    let mut t = Table::new(&["|P|", "Δ", "logΔ", "forced e/p", "G_net e/p"]);
    let mut a_ld = Vec::new();
    let mut a_forced = Vec::new();
    for &k in &ks {
        let n = 1u64 << k;
        let delta = (n * n) / 2;
        let inst = TreeInstance::new(n, delta);
        let tree_data = inst.dataset();
        let tree_gnet = GNet::build(&tree_data, 1.0);
        assert_eq!(inst.find_missing_required_edge(&tree_gnet.graph), None);
        let p = inst.len() as f64;
        let forced = inst.required_edge_count() as f64 / p;
        let ld = (delta as f64).log2();
        t.row(vec![
            inst.len().to_string(),
            delta.to_string(),
            fmt(ld, 0),
            fmt(forced, 1),
            fmt(tree_gnet.graph.edge_count() as f64 / p, 1),
        ]);
        a_ld.push(ld);
        a_forced.push(forced);
    }
    t.print();

    // ---- Table B: Euclidean line + satellite (fixed n, Δ sweep) ------------
    let n = if full { 1024 } else { 512 };
    println!("\n## B. Euclidean (line + satellite, n = {n} fixed): edges per point vs log Δ\n");
    let js: Vec<i32> = if full {
        vec![11, 13, 15, 17, 19, 21, 23]
    } else {
        vec![11, 14, 17, 20, 23]
    };
    let mut t = Table::new(&["spread", "logΔ", "τ", "merged e/p", "θ e/p", "G_net e/p"]);
    let mut b_ld = Vec::new();
    let mut b_merged = Vec::new();
    for &j in &js {
        let spread = (2.0f64).powi(j);
        let data = line_plus_satellite(n, spread).into_dataset(Euclidean);
        // Section 5.3 amplification: smallest of ~log n sampling runs.
        let merged = MergedGraph::build_best_of(&data, MergedParams::new(1.0), 10);
        let gnet = GNet::build_fast(&data, 1.0);
        let ld = j as f64;
        let me = merged.graph.edge_count() as f64 / n as f64;
        t.row(vec![
            format!("2^{j}"),
            fmt(ld, 0),
            fmt(merged.tau, 3),
            fmt(me, 1),
            fmt(merged.theta_edges as f64 / n as f64, 1),
            fmt(gnet.graph.edge_count() as f64 / n as f64, 1),
        ]);
        b_ld.push(ld);
        b_merged.push(me);
    }
    t.print();

    let f_slope = linear_slope(&a_ld, &a_forced);
    let m_slope = linear_slope(&b_ld, &b_merged);
    println!("\nedges-per-point growth per unit of log Δ:");
    println!("  A. tree metric, forced (Thm 1.2(1)): {f_slope:+.3}  — every 2-PG pays ~log Δ / 2");
    println!("  B. Euclidean, merged (Thm 1.3):      {m_slope:+.3}  — bounded: O((1/ε)^λ · n)");
    println!("     (τ = z/log Δ shrinks, so the merged size *decreases* toward the θ floor)");
    assert!(
        f_slope > 0.3,
        "tree-side growth not visible: slope {f_slope}"
    );
    assert!(
        m_slope < 0.15 * f_slope,
        "Euclidean side grows with Δ: merged slope {m_slope} vs forced slope {f_slope}"
    );
    println!("\nSeparation confirmed: the log Δ edge tax is unavoidable in general metric");
    println!("spaces but removable in R^d — the paper's Euclidean separation.");
}
