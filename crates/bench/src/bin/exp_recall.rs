//! **Experiment RECALL** — quality–cost frontiers for every index family on
//! the standard workload suite: the recall/QPS methodology of the empirical
//! proximity-graph literature (FCPG; the monotonic-PG study), wired through
//! `pg_eval`.
//!
//! For each workload of `pg_workloads::eval_suite_flat` and each algorithm
//! (`gnet`, `theta`, `hnsw`, `vamana`, `nsw`, `brute`), the binary:
//!
//! 1. computes exact ground truth (parallel brute force, recomputed every
//!    run: it costs less than the index builds it scores);
//! 2. **asserts before timing anything** that (a) the brute-force
//!    "algorithm" scores recall@k exactly 1.0 and mean distance ratio
//!    exactly 1.0 at every axis point, and (b) every deterministic metric
//!    (recall, ratio, success@ε, dist comps, hops) is bit-identical across
//!    thread counts 1 / 2 / machine;
//! 3. walks the beam-width axis (`ef`) through the batched engine and
//!    prints one frontier table per workload;
//! 4. additionally walks the **paper's axis** — the greedy distance budget
//!    of the Section 1.1 `query` — for the `G_net` index.
//!
//! The tables are the result: the `ef` axis is the beam width (`brute`
//! ignores it — its rows are the flat reference line), the `budget` axis
//! the greedy distance budget at `k = 1`. How to read the frontier is
//! documented in `EXPERIMENTS.md` at the repository root; the committed
//! `BENCH_pr5.json` is this binary's output as of PR 5.
//!
//! Run: `cargo run --release -p pg_bench --bin exp_recall
//! [--smoke | --full]`, with the pool sized by `PG_THREADS` (else the
//! machine).

#![forbid(unsafe_code)]

use pg_baselines::{
    nsw, vamana, BruteIndex, GraphIndex, Hnsw, HnswParams, NswParams, SweepSearch, VamanaParams,
};
use pg_bench::{fmt, spread_start, Args, Table};
use pg_core::{GNet, QueryEngine, ThetaGraph};
use pg_eval::{FrontierSweep, GroundTruth, Score};
use pg_metric::{Euclidean, FlatRow};
use pg_workloads as workloads;

const ALGOS: [&str; 6] = ["gnet", "theta", "hnsw", "vamana", "nsw", "brute"];

/// A boxed adapter over the flat Euclidean layout every sweep runs on.
type DynIndex = Box<dyn SweepSearch<FlatRow, Euclidean>>;

fn machine_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |t| t.get())
}

fn main() {
    let args = Args::parse(&["--smoke", "--full"], &[]);
    let threads = rayon::current_num_threads();
    let smoke = args.has("--smoke");
    let full = args.has("--full");
    let (n, m, k) = if smoke {
        (300, 32, 5)
    } else if full {
        (4000, 200, 10)
    } else {
        (1200, 80, 10)
    };
    // The axis deliberately starts below k: a beam narrower than k cannot
    // return k results, so the low end traces the steep rising segment of
    // the frontier even on datasets small enough for ef >= k to saturate.
    let efs: Vec<usize> = if smoke {
        vec![2, 5, 8, 16, 32]
    } else if full {
        vec![2, 4, 10, 16, 32, 64, 128, 256]
    } else {
        vec![2, 4, 10, 16, 32, 64, 128]
    };
    let budgets: Vec<u64> = if full {
        vec![1, 4, 16, 64, 256, 1024]
    } else {
        vec![1, 4, 16, 64, 256]
    };
    let machine = machine_threads();
    let sweep = FrontierSweep::new(k, efs.clone());

    println!(
        "# RECALL: quality-cost frontiers on the standard suite \
         (n = {n}, m = {m}, k = {k}, {threads} thread(s))\n"
    );
    println!(
        "Deterministic metrics are asserted bit-identical across thread counts \
         1/2/{machine} before any timing, and brute-force recall is asserted \
         exactly 1.0.\n"
    );

    for (wname, points, queries) in workloads::eval_suite_flat(n, m, 99) {
        let dim = points.dim();
        let data = points.into_dataset(Euclidean);
        let queries: Vec<FlatRow> = queries.into_rows();

        let truth = GroundTruth::compute(&data, &queries, k);
        println!("## workload: {wname} (d = {dim})\n");

        // ---- build the indexes --------------------------------------------
        // One adapter per family, built HERE, outside any timing window (so
        // the q/s column measures pure search work). Its default parallel
        // map follows the `with_threads` override, so the invariance gate
        // below exercises real 1/2/machine sharding on the very index the
        // timed sweep then runs.
        let theta = if dim <= 2 { 0.25 } else { 0.7 };
        let gnet = GNet::build_fast(&data, 1.0);
        let mut indexes: Vec<(&'static str, DynIndex)> = Vec::new();
        for name in ALGOS {
            let graph = match name {
                "gnet" => Some(gnet.graph.clone()),
                "theta" => Some(ThetaGraph::build(&data, theta).graph),
                "vamana" => Some(vamana(&data, VamanaParams::default())),
                "nsw" => Some(nsw(&data, NswParams::default())),
                _ => None,
            };
            let index: DynIndex = match graph {
                Some(g) => Box::new(GraphIndex::new(g)),
                None if name == "hnsw" => Box::new(Hnsw::build(&data, HnswParams::default())),
                None => Box::new(BruteIndex),
            };
            indexes.push((name, index));
        }

        let mut table = Table::new(&[
            "algo", "ef", "recall@k", "ratio", "succ@1", "dists/q", "hops/q", "q/s",
        ]);
        for (name, index) in &indexes {
            // ---- determinism gate: scores at 1/2/machine threads ----------
            let score_all = |t: usize| -> Vec<Score> {
                rayon::with_threads(t, || {
                    efs.iter()
                        .map(|&ef| sweep.score_at(index.as_ref(), &data, &queries, &truth, ef))
                        .collect()
                })
            };
            let base = score_all(1);
            for t in [2, machine] {
                assert_eq!(
                    score_all(t),
                    base,
                    "{wname}/{name}: metrics diverged at {t} threads"
                );
            }
            if *name == "brute" {
                for (ef, s) in efs.iter().zip(base.iter()) {
                    assert_eq!(s.recall, 1.0, "brute recall@{k} must be exactly 1.0");
                    assert_eq!(s.mean_dist_ratio, 1.0, "brute ratio must be exactly 1.0");
                    assert_eq!(s.success_at_eps, 1.0, "brute success@eps at ef = {ef}");
                }
            }

            // ---- timed frontier (scores re-checked against the gate) ------
            let pts = sweep.run(index.as_ref(), &data, &queries, &truth);
            for (p, b) in pts.iter().zip(base.iter()) {
                assert_eq!(&p.score, b, "{wname}/{name}: timed run changed a metric");
                table.row(vec![
                    (*name).into(),
                    (p.param as usize).to_string(),
                    fmt(p.score.recall, 3),
                    fmt(p.score.mean_dist_ratio, 3),
                    fmt(p.score.success_at_eps, 2),
                    fmt(p.score.dist_comps, 0),
                    fmt(p.score.hops, 1),
                    fmt(p.qps, 0),
                ]);
            }
        }
        table.print();

        // ---- the paper's axis: greedy distance budget on G_net ------------
        // The k-truth suffices: budget scoring only reads the rank-0
        // (nearest-neighbor) distance of each query.
        let starts: Vec<u32> = (0..queries.len()).map(|i| spread_start(i, n)).collect();
        let budget_sweep = FrontierSweep::new(1, vec![1]);
        let run_budget = |t: usize| -> Vec<Score> {
            rayon::with_threads(t, || {
                let engine = QueryEngine::new(gnet.graph.clone(), data.clone());
                budget_sweep
                    .run_greedy_budget(&engine, &starts, &queries, &truth, &budgets)
                    .into_iter()
                    .map(|p| p.score)
                    .collect()
            })
        };
        let base = run_budget(1);
        for t in [2, machine] {
            assert_eq!(
                run_budget(t),
                base,
                "{wname}/gnet budget diverged at {t} threads"
            );
        }
        let engine = QueryEngine::new(gnet.graph.clone(), data.clone());
        let pts = budget_sweep.run_greedy_budget(&engine, &starts, &queries, &truth, &budgets);
        let mut btable = Table::new(&[
            "algo", "budget", "recall@1", "ratio", "succ@1", "dists/q", "hops/q", "q/s",
        ]);
        for (p, b) in pts.iter().zip(base.iter()) {
            assert_eq!(
                &p.score, b,
                "{wname}/gnet: timed budget run changed a metric"
            );
            btable.row(vec![
                "gnet".into(),
                (p.param as u64).to_string(),
                fmt(p.score.recall, 3),
                fmt(p.score.mean_dist_ratio, 3),
                fmt(p.score.success_at_eps, 2),
                fmt(p.score.dist_comps, 0),
                fmt(p.score.hops, 1),
                fmt(p.qps, 0),
            ]);
        }
        println!("\nGreedy budget frontier (the Section 1.1 `query(p, q, Q)` axis, k = 1):\n");
        btable.print();
        println!();
    }

    println!("Reading guide: each (workload, algo) traces a frontier — recall rises with ef");
    println!("while dists/q grows and q/s falls; curves closer to the top-left dominate.");
    println!("`brute` is the exact reference (recall 1.0 at n dists/q); see EXPERIMENTS.md.");
}
