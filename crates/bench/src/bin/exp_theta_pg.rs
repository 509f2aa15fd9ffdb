//! **Experiment Fig 3–6 / Lemma 5.1** — the θ-graph geometry of Section 5.1
//! and Appendix E, executed:
//!
//! * cone-family quality: count `O((1/θ)^{d-1})`, covering gap `<= θ/2`;
//! * Lemma 5.1 operationally: the `(ε/32)`-graph passes the exhaustive
//!   `(1+ε)`-PG check; coarser θ values show where the worst-case constant
//!   starts to matter;
//! * size: θ-graph edges per point vs `1/θ` (linear in 2-d — the
//!   `(1/θ)^{d-1}` cone bound).
//!
//! Run: `cargo run --release -p pg-bench --bin exp_theta_pg [--full]`

#![forbid(unsafe_code)]

use pg_bench::{fmt, Args, Table};
use pg_core::{check_navigable, ConeSet, ThetaGraph};
use pg_metric::Euclidean;
use pg_workloads as workloads;

fn main() {
    let full = Args::parse(&["--full"], &[]).has("--full");
    println!("# Fig 3-6 / Lemma 5.1: cone families and theta-graph navigability\n");

    // ---- Cone family quality ------------------------------------------------
    let mut t = Table::new(&["d", "θ", "cones", "covering gap", "θ/2 ceiling"]);
    for (d, theta) in [
        (2usize, 0.5f64),
        (2, 0.125),
        (2, 1.0 / 32.0),
        (3, 0.6),
        (3, 0.3),
        (4, 0.9),
    ] {
        let cs = ConeSet::covering(d, theta);
        let gap = cs.covering_gap(if full { 20000 } else { 4000 }, 77);
        assert!(gap <= theta / 2.0 + 1e-9, "covering property violated");
        t.row(vec![
            d.to_string(),
            fmt(theta, 4),
            cs.count().to_string(),
            fmt(gap, 4),
            fmt(theta / 2.0, 4),
        ]);
    }
    t.print();
    println!("\nEvery family covers R^d within θ/2 of an axis (the two properties the");
    println!("proof of Lemma 5.1 needs), with O((1/θ)^(d-1)) cones.\n");

    // ---- Lemma 5.1: navigability vs θ ---------------------------------------
    let n = if full { 600 } else { 250 };
    let data = workloads::uniform_cube_flat(n, 2, 50.0, 13).into_dataset(Euclidean);
    let queries = workloads::uniform_queries_flat(40, 2, -5.0, 55.0, 14).into_rows();
    let eps = 1.0;

    let mut t = Table::new(&["θ", "θ vs ε/32", "cones", "edges/p", "(1+ε)-navigable?"]);
    for theta in [
        eps / 32.0,
        eps / 16.0,
        eps / 8.0,
        eps / 4.0,
        eps / 2.0,
        1.2f64,
    ] {
        let tg = ThetaGraph::build(&data, theta.min(1.5));
        let nav = check_navigable(&tg.graph, &data, &queries, eps).is_ok();
        t.row(vec![
            fmt(theta, 4),
            if (theta - eps / 32.0).abs() < 1e-12 {
                "= (Lemma 5.1)".into()
            } else {
                format!("{}x", fmt(theta / (eps / 32.0), 0))
            },
            tg.cone_count.to_string(),
            fmt(tg.graph.edge_count() as f64 / n as f64, 1),
            if nav { "yes".into() } else { "NO".to_string() },
        ]);
        if (theta - eps / 32.0).abs() < 1e-12 {
            assert!(nav, "Lemma 5.1 must hold at θ = ε/32");
        }
    }
    t.print();
    println!("\nθ = ε/32 always passes (Lemma 5.1); moderately coarser θ usually passes");
    println!("on random data (the /32 is worst-case); very coarse θ eventually fails.\n");

    // ---- Size vs 1/θ ---------------------------------------------------------
    let mut t = Table::new(&["1/θ", "cones", "edges/p", "edges/p per cone"]);
    for inv in [4.0f64, 8.0, 16.0, 32.0] {
        let tg = ThetaGraph::build(&data, 1.0 / inv);
        t.row(vec![
            fmt(inv, 0),
            tg.cone_count.to_string(),
            fmt(tg.graph.edge_count() as f64 / n as f64, 1),
            fmt(
                tg.graph.edge_count() as f64 / n as f64 / tg.cone_count as f64,
                3,
            ),
        ]);
    }
    t.print();
    println!("\nEdges per point grow linearly in 1/θ — the (1/θ)^(d-1) bound at d = 2 —");
    println!("and never exceed one per cone (nearest-point-on-ray is unique).");
}
