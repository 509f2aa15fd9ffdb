//! **Experiment LB1 / Figure 1** — Theorem 1.2(1): on the Section 3 tree
//! instance, any 2-PG needs `|P1| × |P2| = Ω(n log Δ)` edges, regardless of
//! query time.
//!
//! The table sweeps `Δ` (with `n = sqrt(2Δ)`, the extreme of the admissible
//! range) and reports: the forced edge count, the `n·⌈h/2⌉` formula, the
//! edge count of the paper's own `G_net` (a valid 2-PG, so it must pay), and
//! adversarial spot checks that removing any required edge breaks
//! navigability.
//!
//! Run: `cargo run --release -p pg-bench --bin exp_lb1_tree [--full]`

#![forbid(unsafe_code)]

use pg_bench::{fmt, Args, Table};
use pg_core::{GNet, Graph};
use pg_hardness::TreeInstance;

fn main() {
    let full = Args::parse(&["--full"], &[]).has("--full");
    println!("# LB1 (Thm 1.2(1), Fig 1): forced edges on the tree instance\n");

    let ks: Vec<u32> = if full {
        vec![2, 3, 4, 5, 6, 7]
    } else {
        vec![2, 3, 4, 5, 6]
    };
    let mut t = Table::new(&[
        "n",
        "Δ",
        "h=log(2Δ)",
        "|P|",
        "forced |P1||P2|",
        "n·⌈h/2⌉",
        "G_net edges",
        "G_net/forced",
    ]);
    for &k in &ks {
        let n = 1u64 << k;
        let delta = (n * n) / 2; // smallest admissible: 2Δ = n²
        let inst = TreeInstance::new(n, delta);
        let data = inst.dataset();
        let gnet = GNet::build(&data, 1.0);
        assert_eq!(
            inst.find_missing_required_edge(&gnet.graph),
            None,
            "G_net is a 2-PG: it must contain every forced edge"
        );
        let formula = n * inst.h.div_ceil(2) as u64;
        t.row(vec![
            n.to_string(),
            delta.to_string(),
            inst.h.to_string(),
            inst.len().to_string(),
            inst.required_edge_count().to_string(),
            formula.to_string(),
            gnet.graph.edge_count().to_string(),
            fmt(
                gnet.graph.edge_count() as f64 / inst.required_edge_count() as f64,
                2,
            ),
        ]);
    }
    t.print();

    println!("\nShape: forced edges = n·⌈h/2⌉ exactly (the Ω(n log Δ) bound); G_net pays");
    println!("the bound within a constant factor — its O(n log Δ) size is tight here.\n");

    // Adversarial spot check on a mid-size instance.
    let inst = TreeInstance::new(8, 32);
    let complete = Graph::complete(inst.len());
    let mut broken_count = 0;
    for (v1, v2) in inst.required_edges() {
        let g = complete.without_edge(v1, v2);
        if inst.adversary_violation(&g, v1, v2).is_some() {
            broken_count += 1;
        }
    }
    println!(
        "Failure injection (n=8, Δ=32): {}/{} required-edge deletions each break \
         2-navigability — the counting argument is airtight.",
        broken_count,
        inst.required_edge_count()
    );
    assert_eq!(broken_count as u64, inst.required_edge_count());
}
