//! **Experiment ABL-φ** — ablation of the reach constant `φ`.
//!
//! Theorem 1.1's proof (Lemma 2.2) requires `φ = 1 + 2^{η+1}` (Eq. 4; `φ = 9`
//! at ε = 1). How much of that is proof slack on concrete inputs? This sweep
//! rebuilds `G_net`'s edges with reach factors below and above the paper's
//! and reports edge count, navigability, and worst greedy ratio on three
//! workload shapes (uniform, clustered, geometric chain).
//!
//! Expected shape: the paper's `φ` always passes; small reach factors break
//! first on the *chain* (multi-scale) workload, because a hop must be able to
//! jump from a level-`i` cover to a level-`β = α − η − 1` cover (the proof of
//! Lemma 2.2) — exactly the multi-scale structure chains exercise.
//!
//! Run: `cargo run --release -p pg-bench --bin exp_ablation_phi [--full]`

#![forbid(unsafe_code)]

use pg_bench::{fmt, measure_greedy, Args, Table};
use pg_core::{check_navigable, gnet_edges_with_phi, GNetParams};
use pg_metric::{Euclidean, FlatPoints};
use pg_nets::NetHierarchy;
use pg_workloads as workloads;

fn main() {
    let full = Args::parse(&["--full"], &[]).has("--full");
    println!("# ABL-phi: is the paper's reach constant phi = 1 + 2^(eta+1) tight?\n");
    let eps = 1.0;
    let paper_phi = GNetParams::new(eps).phi;
    println!("paper constant at ε = {eps}: φ = {paper_phi}\n");

    let n = if full { 1000 } else { 400 };
    let datasets: Vec<(&str, FlatPoints)> = vec![
        ("uniform", workloads::uniform_cube_flat(n, 2, 120.0, 61)),
        (
            "clusters",
            workloads::gaussian_clusters_flat(n, 2, 10, 1.5, 120.0, 62),
        ),
        (
            "chain",
            workloads::geometric_chain_flat(10, n / 10, 4.0, 2, 63),
        ),
    ];

    for (name, points) in datasets {
        let queries = {
            let mut qs = workloads::perturbed_queries_flat(&points, 25, 0.8, 64).into_rows();
            qs.extend(workloads::uniform_queries_flat(15, 2, -20.0, 150.0, 65).into_rows());
            qs
        };
        let data = points.into_dataset(Euclidean);
        let hierarchy = NetHierarchy::build(&data);

        println!(
            "## workload: {name} (n = {n}, logΔ ≈ {})\n",
            hierarchy.log_aspect()
        );
        let mut t = Table::new(&["φ", "vs paper", "edges", "navigable?", "worst greedy ratio"]);
        for phi in [1.5, 2.0, 3.0, 5.0, 7.0, paper_phi, 12.0] {
            let g = gnet_edges_with_phi(&data, &hierarchy, phi);
            let nav = check_navigable(&g, &data, &queries, eps).is_ok();
            let (_, _, worst) = measure_greedy(&g, &data, &queries);
            t.row(vec![
                fmt(phi, 1),
                if (phi - paper_phi).abs() < 1e-9 {
                    "= (Eq. 4)".into()
                } else {
                    format!("{:.2}x", phi / paper_phi)
                },
                g.edge_count().to_string(),
                if nav { "yes".into() } else { "NO".to_string() },
                if worst.is_finite() {
                    fmt(worst, 3)
                } else {
                    "∞".into()
                },
            ]);
            if (phi - paper_phi).abs() < 1e-9 {
                assert!(nav, "the paper's constant must always be navigable");
            }
        }
        t.print();
        println!();
    }

    println!("Reading: the guarantee column flips to NO below some workload-dependent");
    println!("threshold < 9 — the proof constant buys worst-case safety; practical");
    println!("deployments could trade reach for size where the data is benign.");
}
