//! **Experiment SHARD** — the million-point unlock: `ShardedEngine` build
//! and search frontiers at `n` far beyond what the single-engine benches
//! touch, quality-guarded by sampled ground truth.
//!
//! The binary runs three phases, in order:
//!
//! 1. **Parity gate (before any timing).** On a small prefix-sized
//!    workload it asserts the PR 9 tentpole contract directly: a
//!    `ShardedEngine` at `ef = n` is **bit-identical** to a single
//!    `QueryEngine` — result ids, distances, merge order, and aggregate
//!    `dist_comps` — for shard counts {1, 2, 3, 8} × thread counts
//!    {1, 2, machine}. The same gate asserts that the build itself —
//!    several shards side by side on the pool — equals a one-thread
//!    build shard by shard (graph and points). Any divergence aborts the
//!    run.
//! 2. **Build frontier.** For each shard count `S` it builds the sharded
//!    index under a `Counting` metric (the clone-shared counter aggregates
//!    across shards) and reports total build distance computations, build
//!    seconds, and the recall@k the built index reaches at a reference
//!    `ef` — the build-cost-vs-quality trade of splitting one `G_net` into
//!    `S` smaller ones.
//! 3. **Search frontier.** For each shard count it walks the `ef` axis on
//!    the sampled queries and reports recall, mean dist comps/query, and
//!    q/s — scored against **sampled ground truth**
//!    (`GroundTruth::compute_sampled`, recomputed every run), because full
//!    ground truth at `n = 10^6` would cost `n · m` ≈ 10^9 distance
//!    computations before the experiment even starts.
//!
//! Run: `cargo run --release -p pg_bench --bin exp_shard
//! [--smoke | --full] [--n N] [--shards S1,S2,…] [--sampled-queries C]`,
//! with the pool sized by `PG_THREADS` (else the machine). `--n` must be
//! at least 10 (`k = 10`; the parity gate splits into 8 shards), every
//! shard count in `1..=n`, and `C` in `1..=m`; any other value is a usage
//! error (exit 2) before anything runs.
//!
//! `--full` is the configuration behind the committed `BENCH_pr9.json`:
//! `n = 10^6`. See EXPERIMENTS.md for expected runtimes.

#![forbid(unsafe_code)]

use std::time::Instant;

use pg_bench::{fmt, Args, Table};
use pg_core::sharded::thread_split;
use pg_core::{GNet, QueryEngine, ShardAssignment, ShardedEngine};
use pg_eval::{FrontierSweep, GroundTruth};
use pg_metric::{Counting, Euclidean, FlatRow};
use pg_workloads as workloads;

const EPSILON: f64 = 1.0;
const DATA_SEED: u64 = 4242;
const QUERY_SEED: u64 = 7177;
const ASSIGN_SEED: u64 = 7;
const SAMPLE_SEED: u64 = 909;

fn machine_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |t| t.get())
}

struct BuildRow {
    shards: usize,
    dist_comps: u64,
    seconds: f64,
    recall: f64,
}

struct SearchRow {
    shards: usize,
    ef: usize,
    recall: f64,
    ratio: f64,
    dist_comps: f64,
    qps: f64,
}

/// The parity gate: sharded == single, bit for bit, at `ef = n`.
/// Returns the gate size and the thread counts exercised; panics on any
/// divergence (this runs before a single timer starts).
fn parity_gate(n_gate: usize, d: usize, side: f64, k: usize) -> (usize, Vec<usize>) {
    let points = workloads::uniform_cube_flat(n_gate, d, side, DATA_SEED);
    let queries: Vec<FlatRow> =
        workloads::uniform_queries_flat(24, d, 0.0, side, QUERY_SEED).into_rows();
    let single = {
        let data = points.clone().into_dataset(Euclidean);
        let g = GNet::build(&data, EPSILON);
        QueryEngine::new(g.graph, data)
    };
    let starts = vec![0u32; queries.len()];
    let want = single.batch_beam_detailed(&starts, &queries, n_gate, k);
    let thread_counts = vec![1, 2, machine_threads()];
    for shards in [1usize, 2, 3, 8] {
        let build = || {
            ShardedEngine::build(
                &points,
                Euclidean,
                EPSILON,
                shards,
                &ShardAssignment::SeededRandom { seed: ASSIGN_SEED },
            )
        };
        let engine = build();
        let sequential = rayon::with_threads(1, build);
        for (i, (got, want)) in engine.shards().iter().zip(sequential.shards()).enumerate() {
            let same_points = (0..want.data().len())
                .all(|p| got.data().point(p).coords() == want.data().point(p).coords());
            assert!(
                got.graph() == want.graph() && got.data().len() == want.data().len() && same_points,
                "PARITY FAILURE: shard {i} of {shards} built concurrently differs from its \
                 one-thread build"
            );
        }
        for &t in &thread_counts {
            let got = engine
                .clone()
                .with_threads(t)
                .batch_beam_detailed(&queries, n_gate, k);
            assert_eq!(
                got.outcomes, want.outcomes,
                "PARITY FAILURE: {shards} shards at {t} threads diverged from the single engine"
            );
            assert_eq!(
                got.dist_comps, want.dist_comps,
                "PARITY FAILURE: aggregate dist_comps diverged at {shards} shards / {t} threads"
            );
        }
    }
    (n_gate, thread_counts)
}

fn main() {
    let args = Args::parse(
        &["--smoke", "--full"],
        &["--n", "--shards", "--sampled-queries"],
    );
    let threads = rayon::current_num_threads();
    let smoke = args.has("--smoke");
    let full = args.has("--full");
    let (n_default, m, sample_default, shards_default, efs): (
        usize,
        usize,
        usize,
        &[usize],
        Vec<usize>,
    ) = if smoke {
        (2_000, 64, 16, &[1, 2, 4], vec![4, 16, 64])
    } else if full {
        (1_000_000, 1_000, 100, &[1, 8, 32], vec![16, 64, 256])
    } else {
        (50_000, 400, 50, &[1, 4, 16], vec![8, 32, 128])
    };
    let k = 10usize;
    // Ids are u32; k exact neighbours and the gate's 8 shards need n >= k.
    let n = args.ints("--n", false, k..=u32::MAX as usize, &[n_default])[0];
    let shard_list = args.ints("--shards", true, 1..=n, shards_default);
    let sample_count = args.ints("--sampled-queries", false, 1..=m, &[sample_default])[0];
    // Low dimension on purpose: G_net's degree grows exponentially with the
    // doubling dimension (Theorem 1.1's 2^O(λ) factor), so d = 2 is where
    // million-point graphs stay sparse enough to search in sub-linear time —
    // the same regime the paper's separation results live in.
    let d = 2usize;
    let side = 1_000.0;
    let ef_ref = efs[efs.len() / 2];

    println!(
        "# SHARD: sharded build/search frontiers \
         (n = {n}, d = {d}, k = {k}, shards {shard_list:?}, \
         {sample_count}/{m} sampled queries, {threads} thread(s))\n"
    );

    // ---- phase 1: parity gate, before any timing --------------------------
    let (gate_n, gate_threads) = parity_gate(n.min(1_500), d, side, k.min(5));
    println!(
        "Parity gate passed: sharded == single engine bit-for-bit at n = {gate_n}, \
         shard counts {{1, 2, 3, 8}} x thread counts {gate_threads:?}; every shard built \
         on the {threads}-thread pool == its one-thread build.\n"
    );

    // ---- workload and sampled ground truth --------------------------------
    let points = workloads::uniform_cube_flat(n, d, side, DATA_SEED);
    let all_queries: Vec<FlatRow> =
        workloads::uniform_queries_flat(m, d, 0.0, side, QUERY_SEED).into_rows();
    let gt_data = points.clone().into_dataset(Euclidean);
    let gt_start = Instant::now();
    let (truth, picked) =
        GroundTruth::compute_sampled(&gt_data, &all_queries, k, SAMPLE_SEED, sample_count);
    drop(gt_data);
    let sampled: Vec<FlatRow> = picked.iter().map(|&i| all_queries[i].clone()).collect();
    println!(
        "Sampled ground truth over {sample_count} of {m} queries ({:.1}s).\n",
        gt_start.elapsed().as_secs_f64()
    );

    // ---- phases 2 + 3: build and search frontiers per shard count ---------
    let sweep = FrontierSweep::new(k, efs.clone());
    let mut build_rows: Vec<BuildRow> = Vec::new();
    let mut search_rows: Vec<SearchRow> = Vec::new();
    for &shards in &shard_list {
        let counting = Counting::new(Euclidean);
        let t0 = Instant::now();
        let engine = ShardedEngine::build(
            &points,
            counting.clone(),
            EPSILON,
            shards,
            &ShardAssignment::SeededRandom { seed: ASSIGN_SEED },
        );
        let seconds = t0.elapsed().as_secs_f64();
        let build_comps = counting.count();
        let (outer, inner) = thread_split(threads, shards);
        println!(
            "built {shards} shard(s) of n = {n} in {:.1}s, {outer} shard(s) at a time x \
             {inner} thread(s) each ({build_comps} build dist comps)",
            seconds
        );

        for &ef in &efs {
            let t0 = Instant::now();
            let batch = engine.batch_beam_detailed(&sampled, ef, k);
            let elapsed = t0.elapsed().as_secs_f64();
            let score = sweep.score_outcomes(&truth, &batch.outcomes);
            if ef == ef_ref {
                build_rows.push(BuildRow {
                    shards,
                    dist_comps: build_comps,
                    seconds,
                    recall: score.recall,
                });
            }
            search_rows.push(SearchRow {
                shards,
                ef,
                recall: score.recall,
                ratio: score.mean_dist_ratio,
                dist_comps: score.dist_comps,
                qps: sampled.len() as f64 / elapsed,
            });
        }
    }
    println!();

    println!("Build frontier (recall column at reference ef = {ef_ref}):\n");
    let mut btable = Table::new(&["shards", "n", "build dists", "seconds", "recall@k"]);
    for r in &build_rows {
        btable.row(vec![
            r.shards.to_string(),
            n.to_string(),
            r.dist_comps.to_string(),
            fmt(r.seconds, 1),
            fmt(r.recall, 3),
        ]);
    }
    btable.print();

    println!("\nSearch frontier ({sample_count} sampled queries):\n");
    let mut stable = Table::new(&["shards", "ef", "recall@k", "ratio", "dists/q", "q/s"]);
    for r in &search_rows {
        stable.row(vec![
            r.shards.to_string(),
            r.ef.to_string(),
            fmt(r.recall, 3),
            fmt(r.ratio, 3),
            fmt(r.dist_comps, 0),
            fmt(r.qps, 0),
        ]);
    }
    stable.print();

    println!("\nReading guide: more shards cut build dist comps (each G_net is built on a");
    println!("smaller set) but spend more search dists/q at fixed ef (every shard is probed);");
    println!("recall at matched ef stays close because each shard returns its exact local");
    println!("top-k candidates. See EXPERIMENTS.md for expected runtimes.");
}
