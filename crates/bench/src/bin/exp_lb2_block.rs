//! **Experiment LB2 / Figure 2** — Theorem 1.2(2): on the Section 4 block
//! instance with `ε = 1/(2s)`, any `(1+ε)`-PG needs every ordered
//! intra-block pair: `s^d (s^d - 1) t = Ω(s^d · n)` edges.
//!
//! The table sweeps `(s, d, t)` and reports the forced count, the `Ω(s^d·n)`
//! reading, and the edge count of `G_net` built with exactly that `ε` (it
//! must contain all forced edges — asserted). Alice's adversary move is spot
//! checked by failure injection.
//!
//! Run: `cargo run --release -p pg-bench --bin exp_lb2_block [--full]`

#![forbid(unsafe_code)]

use pg_bench::{fmt, Args, Table};
use pg_core::{GNet, Graph};
use pg_hardness::BlockInstance;

fn main() {
    let full = Args::parse(&["--full"], &[]).has("--full");
    println!("# LB2 (Thm 1.2(2), Fig 2): forced intra-block edges, eps = 1/(2s)\n");

    let mut combos = vec![
        (2u32, 1u32, 2u32),
        (2, 1, 8),
        (2, 2, 2),
        (2, 2, 8),
        (3, 2, 2),
        (3, 2, 6),
        (2, 3, 2),
        (4, 2, 2),
    ];
    if full {
        combos.extend_from_slice(&[(3, 3, 2), (5, 2, 2), (4, 2, 6), (2, 2, 32)]);
    }

    let mut t = Table::new(&[
        "s",
        "d",
        "t",
        "n",
        "ε=1/(2s)",
        "forced s^d(s^d-1)t",
        "s^d·n",
        "G_net edges",
        "G_net/forced",
    ]);
    for (s, d, tt) in combos {
        let inst = BlockInstance::new(s, d, tt);
        let data = inst.data_dataset();
        let gnet = GNet::build(&data, inst.epsilon());
        assert_eq!(
            inst.find_missing_required_edge(&gnet.graph),
            None,
            "a valid (1+1/(2s))-PG must contain every intra-block pair"
        );
        let sd = (s as u64).pow(d);
        t.row(vec![
            s.to_string(),
            d.to_string(),
            tt.to_string(),
            inst.n().to_string(),
            fmt(inst.epsilon(), 3),
            inst.required_edge_count().to_string(),
            (sd * inst.n() as u64).to_string(),
            gnet.graph.edge_count().to_string(),
            fmt(
                gnet.graph.edge_count() as f64 / inst.required_edge_count() as f64,
                2,
            ),
        ]);
    }
    t.print();

    println!("\nShape: forced edges track s^d · n (the (1/ε)^λ·n term is necessary);");
    println!("with t=1 and ε = Θ(1/n^(1/λ)) this forces Ω(n²) — the worst possible.");
    println!("G_net pays the bound within a constant (its (1/ε)^λ·n term is tight).\n");

    // Alice's move, exhaustively on a small instance.
    let inst = BlockInstance::new(2, 2, 2);
    let complete = Graph::complete(inst.n());
    let mut wins = 0u64;
    for (p1, p2) in inst.required_edges() {
        let g = complete.without_edge(p1, p2);
        if inst.adversary_violation(&g, p1, p2).is_some() {
            wins += 1;
        }
    }
    println!(
        "Adversary check (s=2,d=2,t=2): Alice wins on {}/{} single-edge deletions.",
        wins,
        inst.required_edge_count()
    );
    assert_eq!(wins, inst.required_edge_count());
}
