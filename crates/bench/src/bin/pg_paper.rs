//! **pg_paper** — the paper's claims as one table, in the paper's order.
//! Each row prints what it measured, then checks it against a bound written
//! once in the row and reviewed like a test's expectation. A closing table
//! lists every check with its verdict; any red check exits 1.
//!
//! Every printed number is a count or is computed from counts (distances,
//! the paper's cost model; edges; hops; ratios). No clock is read, so at a
//! given size stdout is byte-identical from run to run and at every pool
//! size (`PG_THREADS`); wall clock belongs to `pg_ladder`. The test at the
//! bottom runs every row at smoke size.
//!
//! Run: `cargo run --release -p pg_bench --bin pg_paper [-- --full]`

#![forbid(unsafe_code)]

use pg_baselines::{
    nsw, slow_preprocessing, vamana, BruteIndex, GraphIndex, Hnsw, HnswParams, NswParams,
    SweepSearch, VamanaParams,
};
use pg_bench::{linear_slope, loglog_slope, measure_greedy, spread_start, Args, Table};
use pg_core::{
    check_navigable, gnet_edges_with_phi, greedy, BuildPhase, ConeSet, GNet, GNetParams, Graph,
    MergedGraph, MergedParams, QueryEngine, ShardAssignment, ShardedEngine, ThetaGraph,
};
use pg_eval::sweep::greedy_budget_frontier;
use pg_eval::{success_at_eps, FrontierSweep, GroundTruth, Score};
use pg_hardness::{BlockInstance, TreeInstance};
use pg_metric::{Counting, Dataset, Euclidean, FlatPoints, FlatRow, Metric};
use pg_nets::NetHierarchy;
use pg_workloads as workloads;

/// How large a run is: `Smoke` for the tier-1 test, `Default` for CI and
/// EXPERIMENTS.md, `Full` for `--full`.
#[derive(Clone, Copy)]
enum Size {
    #[cfg_attr(not(test), allow(dead_code))]
    Smoke,
    Default,
    Full,
}

impl Size {
    fn pick<T>(self, smoke: T, default: T, full: T) -> T {
        match self {
            Size::Smoke => smoke,
            Size::Default => default,
            Size::Full => full,
        }
    }
}

/// One check behind a row's verdict: what the row read, the bound it
/// must meet, and whether it does.
struct Check {
    reading: String,
    bound: String,
    ok: bool,
}

fn check(reading: String, bound: impl Into<String>, ok: bool) -> Check {
    let bound = bound.into();
    Check { reading, bound, ok }
}

/// `what value` against `≤ bound`.
fn at_most(what: &str, value: f64, bound: f64, decimals: usize) -> Check {
    let reading = format!("{what} {value:.decimals$}");
    check(reading, format!("≤ {bound:.decimals$}"), value <= bound)
}

/// `hits` of `total` cases hold, against all of them.
fn every(what: &str, hits: usize, total: usize) -> Check {
    check(format!("{what}: {hits}/{total}"), "all", hits == total)
}

/// A table whose column headers are listed in one string, `" | "` apart.
fn table(headers: &str) -> Table {
    Table::new(&headers.split(" | ").collect::<Vec<_>>())
}

/// A table row from its cells, `" | "` apart.
fn cells(row: String) -> Vec<String> {
    row.split(" | ").map(str::to_string).collect()
}

/// The `n` sweep of the `G_net` size and query rows.
fn gnet_sweep(size: Size) -> Vec<usize> {
    size.pick(
        vec![200, 400, 800],
        vec![500, 1000, 2000, 4000, 8000],
        vec![1000, 2000, 4000, 8000, 16000, 32000],
    )
}

/// The log–log slope through `(x, y)` samples.
fn slope(curve: &[(f64, f64)]) -> f64 {
    let (xs, ys): (Vec<f64>, Vec<f64>) = curve.iter().copied().unzip();
    loglog_slope(&xs, &ys)
}

/// A row: measures one claim at a size, prints its tables, returns its checks.
type Row = fn(Size) -> Vec<Check>;

/// The paper's claims in order: a name with its section, and its row.
const ROWS: [(&str, Row); 11] = [
    ("Thm 1.1 size (§2)", size_bound),
    ("Thm 1.1 construction (§2.4)", construction),
    ("Thm 1.1 query (§2)", query),
    ("Fact 2.1 at every beam width (§2)", beam_frontier),
    ("Fact 2.1 through shards (§2)", shard_frontier),
    ("Thm 1.2(1) tree (§3)", tree_lower_bound),
    ("Thm 1.2(2) block (§4)", block_lower_bound),
    ("Thm 1.3 query (§5.2)", merged_query),
    ("Separation (§5)", separation),
    ("Lemma 5.1 θ-graph (§5.1)", theta_graph),
    ("Eq. 4 reach φ (§2)", reach_constant),
];

fn main() {
    let full = Args::parse(&["--full"]).has("--full");
    let size = if full { Size::Full } else { Size::Default };
    println!("# The paper's claims, measured\n");
    let mut verdicts = table("claim | measured | bound | verdict");
    let mut red = 0;
    for (claim, row) in ROWS {
        println!("## {claim}\n");
        for (i, Check { reading, bound, ok }) in row(size).into_iter().enumerate() {
            red += usize::from(!ok);
            let claim = if i == 0 { claim } else { "" };
            let verdict = if ok { "green" } else { "RED" };
            verdicts.row(cells(format!("{claim} | {reading} | {bound} | {verdict}")));
        }
        println!();
    }
    println!("## Verdicts\n");
    verdicts.print();
    println!("\n{red} red check(s)");
    if red > 0 {
        std::process::exit(1);
    }
}

/// Theorem 1.1: `|E(G_net)| = O((1/ε)^λ · n log Δ)`. At ε = 1 the edges per
/// point per level stay within a constant factor as `n` grows; over ε, the
/// edges divided by `φ^λ` (λ = 2 in the plane) do not grow as ε shrinks.
fn size_bound(size: Size) -> Vec<Check> {
    const MAX_SPREAD: f64 = 2.0;
    let ns = gnet_sweep(size);
    let mut t = table("n | logΔ | edges | edges/(n·logΔ) | max deg");
    let (mut curve, mut per_level) = (Vec::new(), Vec::new());
    for &n in &ns {
        let side = (n as f64).sqrt() * 4.0;
        let data = workloads::uniform_cube_flat(n, 2, side, 42).into_dataset(Euclidean);
        let g = GNet::build_fast(&data, 1.0);
        let log_delta = g.hierarchy.log_aspect();
        let edges = g.graph.edge_count();
        let normalised = edges as f64 / (n * log_delta) as f64;
        per_level.push(normalised);
        curve.push((n as f64, edges as f64));
        let max_deg = g.graph.max_out_degree();
        t.row(cells(format!(
            "{n} | {log_delta} | {edges} | {normalised:.2} | {max_deg}"
        )));
    }
    t.print();
    println!("\nlog–log slope of edges against n: {:.3}\n", slope(&curve));
    let spread = per_level.iter().copied().fold(0.0, f64::max)
        / per_level.iter().copied().fold(f64::INFINITY, f64::min);

    let n = size.pick(300, 1500, 4000);
    let data = workloads::uniform_cube_flat(n, 2, 200.0, 43).into_dataset(Euclidean);
    let mut t = table("ε | η | φ | edges | edges/n | edges/(n·φ²·logΔ)·10³");
    let mut normalised = Vec::new();
    for eps in [1.0, 0.5, 0.25, 0.125] {
        let g = GNet::build_fast(&data, eps);
        let (edges, eta, phi) = (g.graph.edge_count() as f64, g.params.eta, g.params.phi);
        let value = edges / (n as f64 * phi * phi * g.hierarchy.log_aspect() as f64) * 1000.0;
        normalised.push(value);
        let per_point = edges / n as f64;
        t.row(cells(format!(
            "{eps:.3} | {eta} | {phi:.0} | {edges:.0} | {per_point:.1} | {value:.2}"
        )));
    }
    t.print();
    let smaller_eps = normalised[1..].iter().copied().fold(0.0, f64::max);
    let reading = format!("edges/(n·φ²·logΔ)·10³ at ε < 1: max {smaller_eps:.2}");
    let bound = format!("≤ {:.2}, ε = 1's", normalised[0]);
    vec![
        at_most("edges/(n·logΔ) max/min", spread, MAX_SPREAD, 2),
        check(reading, bound, smaller_eps <= normalised[0]),
    ]
}

/// Theorem 1.1: near-linear construction. The fast (cascade) build returns
/// the naive scan's and the §2.4 cover-tree build's graph, and its distance
/// count grows at least half an exponent slower than the naive scan's.
/// Baselines: DiskANN's slow preprocessing, and HNSW at one thread and at
/// two (where the plans its helper thread discards add distances).
fn construction(size: Size) -> Vec<Check> {
    const MIN_GAP: f64 = 0.5;
    let (ns, slow_cap) = size.pick(
        (vec![64, 128, 256], 256),
        (vec![500, 1000, 2000, 4000], 2000),
        (vec![1000, 2000, 4000, 8000, 16000], 8000),
    );
    let mut t = table("n | fast | naive | cover-tree | DiskANN-slow | HNSW | HNSW 2 thr | hierarchy/pt | cascade/pt | candidates/pt");
    // Distances against n: fast, naive, cover-tree and HNSW at every n,
    // DiskANN-slow up to `slow_cap`.
    let (mut curves, mut slow_curve): ([Vec<(f64, f64)>; 4], Vec<_>) = Default::default();
    let mut equal = 0;
    for &n in &ns {
        let side = (n as f64).sqrt() * 4.0;
        let data =
            workloads::uniform_cube_flat(n, 2, side, 7).into_dataset(Counting::new(Euclidean));
        let take = || data.metric().take();
        let hierarchy = NetHierarchy::build(&data);
        // Distances by phase: hierarchy, cascade, candidate tests, assembly.
        let mut phases = [take(), 0, 0, 0];
        let fast = GNet::build_fast_on_observed(&data, 1.0, hierarchy.clone(), |phase| {
            phases[match phase {
                BuildPhase::Cascade => 1,
                BuildPhase::Candidates => 2,
                BuildPhase::Assembly => 3,
            }] += take()
        });
        let fast_dists = phases.iter().sum::<u64>();
        let naive = GNet::build_naive_on(&data, 1.0, hierarchy.clone());
        let naive_dists = phases[0] + take();
        let covertree = GNet::build_covertree_on(&data, 1.0, hierarchy);
        let covertree_dists = phases[0] + take();
        equal += usize::from(fast.graph == naive.graph && covertree.graph == naive.graph);
        drop((fast, naive, covertree));
        let slow_dists = (n <= slow_cap).then(|| {
            slow_preprocessing(&data, 3.0);
            take()
        });
        let [hnsw, hnsw2] = [1, 2].map(|threads| {
            rayon::with_threads(threads, || Hnsw::build(&data, HnswParams::default()));
            take()
        });
        let counts = [fast_dists, naive_dists, covertree_dists, hnsw];
        curves
            .iter_mut()
            .zip(counts)
            .for_each(|(curve, d)| curve.push((n as f64, d as f64)));
        slow_curve.extend(slow_dists.map(|d| (n as f64, d as f64)));
        let slow = slow_dists.map_or("-".into(), |d| d.to_string());
        let [hierarchy, cascade, candidates, _] = phases.map(|d| d as f64 / n as f64);
        t.row(cells(format!(
            "{n} | {fast_dists} | {naive_dists} | {covertree_dists} | {slow} | {hnsw} | {hnsw2} | \
             {hierarchy:.1} | {cascade:.1} | {candidates:.1}"
        )));
    }
    t.print();
    let [fast, naive, covertree, hnsw] = curves.each_ref().map(|c| slope(c));
    let slow = slope(&slow_curve);
    println!("\nlog–log slopes of distances against n: fast {fast:.2}, naive {naive:.2}, cover-tree {covertree:.2}, DiskANN-slow {slow:.2}, HNSW {hnsw:.2}");
    let reading = format!("distance slopes: fast {fast:.2}, naive {naive:.2}");
    let bound = format!("fast ≤ naive − {MIN_GAP}");
    vec![
        every("n where fast = naive = cover-tree graph", equal, ns.len()),
        check(reading, bound, fast <= naive - MIN_GAP),
    ]
}

/// How many of `measure_greedy`'s walks `query` under `g`'s certified
/// budget runs to greedy's own end: same answer, not stopped by the budget.
fn within_certified_budget<P, M: Metric<P>>(
    g: &GNet,
    data: &Dataset<P, M>,
    queries: &[P],
) -> usize {
    let budget = g.certified_query_budget();
    let ends_within = |(i, q): &(usize, &P)| {
        let start = spread_start(*i, data.len());
        let capped = pg_core::query(&g.graph, data, start, q, budget);
        capped.self_terminated && capped.result == greedy(&g.graph, data, start, q).result
    };
    queries.iter().enumerate().filter(ends_within).count()
}

/// Theorem 1.1: greedy on `G_net` finds a `(1+ε)`-approximate nearest
/// neighbour from any start within `h + 1` hops and `O((1/ε)^λ log² Δ)`
/// distances, which grow with `log Δ`, not with `n`; `query` under
/// [`GNet::certified_query_budget`] returns greedy's answer.
fn query(size: Size) -> Vec<Check> {
    const MAX_SLOPE: f64 = 0.5;
    let ns = gnet_sweep(size);
    let mut t = table("n | logΔ | dists/query | hops | max hops | h+1 | worst ratio");
    let (mut curve, mut worst_over_n, mut within_hops) = (Vec::new(), 1.0f64, 0);
    let (mut budgeted, mut walks) = (0, 0);
    for &n in &ns {
        let side = (n as f64).sqrt() * 4.0;
        let data = workloads::uniform_cube_flat(n, 2, side, 21).into_dataset(Euclidean);
        let g = GNet::build_fast(&data, 1.0);
        let queries = workloads::uniform_queries_flat(60, 2, 0.0, side, 22).into_rows();
        let (dists, hops, max_hops, worst) = measure_greedy(&g.graph, &data, &queries);
        budgeted += within_certified_budget(&g, &data, &queries);
        walks += queries.len();
        let (log_delta, ceiling) = (g.hierarchy.log_aspect(), g.hierarchy.h() + 1);
        within_hops += usize::from(max_hops <= ceiling);
        worst_over_n = worst_over_n.max(worst);
        curve.push((n as f64, dists));
        t.row(cells(format!(
            "{n} | {log_delta} | {dists:.0} | {hops:.1} | {max_hops} | {ceiling} | {worst:.3}"
        )));
    }
    t.print();
    let dists_slope = slope(&curve);
    println!("\nlog–log slope of dists/query against n: {dists_slope:.2}\n");

    let n = size.pick(400, 2000, 4000);
    let data = workloads::uniform_cube_flat(n, 2, 260.0, 23).into_dataset(Euclidean);
    let queries = workloads::uniform_queries_flat(40, 2, -20.0, 280.0, 24).into_rows();
    let mut t = table("ε | φ | dists/query | hops | worst ratio | 1+ε");
    let mut within_eps = 0;
    for eps in [1.0, 0.5, 0.25] {
        let g = GNet::build_fast(&data, eps);
        let (dists, hops, _, worst) = measure_greedy(&g.graph, &data, &queries);
        budgeted += within_certified_budget(&g, &data, &queries);
        walks += queries.len();
        within_eps += usize::from(worst <= 1.0 + eps);
        let (phi, guarantee) = (g.params.phi, 1.0 + eps);
        t.row(cells(format!(
            "{eps:.2} | {phi:.0} | {dists:.0} | {hops:.1} | {worst:.4} | {guarantee:.2}"
        )));
    }
    t.print();
    vec![
        at_most("worst ratio over n at ε = 1", worst_over_n, 2.0, 3),
        every("ε with worst ratio ≤ 1 + ε", within_eps, 3),
        every("n with max hops ≤ h + 1", within_hops, ns.len()),
        at_most("dists/query slope against n", dists_slope, MAX_SLOPE, 2),
        every("query = greedy at certified budget", budgeted, walks),
    ]
}

/// A frontier row's cells: recall, ratio, succ@1, dists/q, hops/q.
fn score_cells(s: &Score) -> String {
    format!(
        "{:.3} | {:.3} | {:.2} | {:.0} | {:.1}",
        s.recall, s.mean_dist_ratio, s.success_at_eps, s.dist_comps, s.hops
    )
}

/// Any index a frontier sweeps, over the flat Euclidean layout.
type DynIndex = Box<dyn SweepSearch<FlatRow, Euclidean>>;

/// Fact 2.1 with Theorem 1.1: a banded beam on `G_net` opens where a
/// first-improvement descent stops, and its top-1 is a `(1+ε)`-ANN at
/// every width. The recall–distance
/// frontier (FCPG; Zhu & Zhang) of six index families over the `ef` axis on
/// the standard suite, scored against exact ground truth, plus `G_net`'s
/// frontier over the paper's own axis, the greedy budget of §1.1's `query`.
/// Brute force is the exact reference line.
///
/// The succ@1 check holds for any finished beam, descent or not, so no
/// input can turn it red when the descent is dropped. A finished beam has
/// expanded its top-1 `t`, and a neighbour `u` strictly closer to the query
/// has `0 < D(t, u) < 2 D(t, q)`, inside the annulus that expansion scanned
/// (its bound `w` is at least `D(t, q)`): `u` was scored, would have stayed
/// above `t`, and so does not exist. `t` is a local minimum, a `(1+ε)`-ANN
/// by Fact 2.1 from any entry. What pins the descent is `pg_core`'s
/// `search::tests` and `proptest_invariants::banded_gnet_walks_are_bit_identical_to_stripped_ones`.
fn beam_frontier(size: Size) -> Vec<Check> {
    let (n, m, k) = size.pick((300, 32, 5), (1200, 80, 10), (4000, 200, 10));
    // The axis starts below k: a beam narrower than k cannot return k
    // results, so the low end traces the steep part of the frontier.
    let efs = size.pick(
        vec![2, 5, 8, 16, 32],
        vec![2, 4, 10, 16, 32, 64, 128],
        vec![2, 4, 10, 16, 32, 64, 128, 256],
    );
    let budgets = size.pick(
        vec![1, 4, 16, 64, 256],
        vec![1, 4, 16, 64, 256],
        vec![1, 4, 16, 64, 256, 1024],
    );
    let sweep = FrontierSweep::new(k, efs);
    let (mut gnet_exact, mut brute_exact, mut cases) = (0, 0, 0);
    for (workload, points, queries) in workloads::eval_suite_flat(n, m, 99) {
        let dim = points.dim();
        let data = points.into_dataset(Euclidean);
        let queries: Vec<FlatRow> = queries.into_rows();
        let truth = GroundTruth::compute(&data, &queries, k);
        println!("{workload} (d = {dim}, n = {n}, m = {m}, k = {k}):\n");
        let gnet = GNet::build_fast(&data, 1.0);
        let theta = if dim <= 2 { 0.25 } else { 0.7 };
        let indexes: [(&str, DynIndex); 6] = [
            ("gnet", Box::new(GraphIndex::new(gnet.graph.clone()))),
            (
                "theta",
                Box::new(GraphIndex::new(ThetaGraph::build(&data, theta).graph)),
            ),
            ("hnsw", Box::new(Hnsw::build(&data, HnswParams::default()))),
            (
                "vamana",
                Box::new(GraphIndex::new(vamana(&data, VamanaParams::default()))),
            ),
            (
                "nsw",
                Box::new(GraphIndex::new(nsw(&data, NswParams::default()))),
            ),
            ("brute", Box::new(BruteIndex)),
        ];
        let mut t = table("algo | ef | recall@k | ratio | succ@1 | dists/q | hops/q");
        for (algo, index) in &indexes {
            for p in sweep.run(index.as_ref(), &data, &queries, &truth) {
                let s = &p.score;
                match *algo {
                    "gnet" => gnet_exact += usize::from(s.success_at_eps == 1.0),
                    "brute" => {
                        let exact = [s.recall, s.mean_dist_ratio, s.success_at_eps];
                        brute_exact += usize::from(exact == [1.0; 3]);
                    }
                    _ => {}
                }
                t.row(cells(format!("{algo} | {} | {}", p.param, score_cells(s))));
            }
        }
        cases += sweep.ef_values.len();
        t.print();

        // The paper's axis; only the nearest distance of the truth is read.
        let starts: Vec<u32> = (0..queries.len()).map(|i| spread_start(i, n)).collect();
        let engine = QueryEngine::new(gnet.graph, data);
        let frontier = greedy_budget_frontier(&engine, &starts, &queries, &truth, &budgets);
        println!("\nGreedy budget frontier (the §1.1 `query(p, q, Q)` axis, k = 1):\n");
        let mut t = table("algo | budget | recall@1 | ratio | succ@1 | dists/q | hops/q");
        for p in frontier {
            t.row(cells(format!(
                "gnet | {} | {}",
                p.param,
                score_cells(&p.score)
            )));
        }
        t.print();
        println!();
    }
    vec![
        every("G_net (workload, ef) with succ@1 = 1", gnet_exact, cases),
        every(
            "brute (workload, ef) with recall = ratio = succ@1 = 1",
            brute_exact,
            cases,
        ),
    ]
}

/// Fact 2.1 through shards: each shard's banded top-1 is a `(1+ε)`-ANN of
/// its own points and the merge keeps the best, so the merged top-1 is one
/// for the whole set at every shard count and width. The build table trades
/// build distances against recall at a reference `ef`; the search table is
/// the frontier per shard count, both scored against exact ground truth on a
/// seeded sample of the queries (`n · m` distances would dwarf the builds
/// at `n = 10⁶`).
fn shard_frontier(size: Size) -> Vec<Check> {
    const EPSILON: f64 = 1.0;
    let (n, m, sampled, shard_counts, efs) = size.pick(
        (2_000, 64, 16, vec![1, 2, 4], vec![4, 16, 64]),
        (50_000, 400, 50, vec![1, 4, 16], vec![8, 32, 128]),
        (1_000_000, 1_000, 100, vec![1, 8, 32], vec![16, 64, 256]),
    );
    let (d, k, side) = (2, 10, 1_000.0);
    let ef_ref = efs[efs.len() / 2];
    let points = workloads::uniform_cube_flat(n, d, side, 4242);
    let queries = workloads::uniform_queries_flat(m, d, 0.0, side, 7177).into_rows();
    let (truth, picked) = GroundTruth::compute_sampled(
        &points.clone().into_dataset(Euclidean),
        &queries,
        k,
        909,
        sampled,
    );
    let queries: Vec<FlatRow> = picked.iter().map(|&i| queries[i].clone()).collect();
    println!(
        "n = {n}, d = {d}, k = {k}, {sampled} of {m} queries scored (sampled exact ground truth)\n"
    );
    let sweep = FrontierSweep::new(k, efs);
    let mut build = table("shards | n | build dists | recall@k");
    let mut search = table("shards | ef | recall@k | ratio | dists/q");
    let (mut hits, mut total) = (0, 0);
    for &shards in &shard_counts {
        let counting = Counting::new(Euclidean);
        let assignment = ShardAssignment::SeededRandom { seed: 7 };
        let engine = ShardedEngine::build(&points, counting.clone(), EPSILON, shards, &assignment);
        let build_dists = counting.count();
        for &ef in &sweep.ef_values {
            let outcomes = engine.batch_beam_detailed(&queries, ef, k).outcomes;
            hits += (0..outcomes.len())
                .filter(|&q| success_at_eps(&truth, q, &outcomes[q].results, EPSILON))
                .count();
            total += outcomes.len();
            let s = sweep.score_outcomes(&truth, &outcomes);
            if ef == ef_ref {
                build.row(cells(format!(
                    "{shards} | {n} | {build_dists} | {:.3}",
                    s.recall
                )));
            }
            let (recall, ratio, dists) = (s.recall, s.mean_dist_ratio, s.dist_comps);
            search.row(cells(format!(
                "{shards} | {ef} | {recall:.3} | {ratio:.3} | {dists:.0}"
            )));
        }
    }
    println!("Build table (recall at the reference ef = {ef_ref}):\n");
    build.print();
    println!("\nSearch frontier:\n");
    search.print();
    vec![every(
        "(query, shards, ef) with merged top-1 a (1+ε)-ANN",
        hits,
        total,
    )]
}

/// Theorem 1.2(1), Figure 1: on the §3 tree instance every 2-PG holds the
/// `n · ⌈h/2⌉ = Ω(n log Δ)` forced edges `|P1| × |P2|`, and deleting any
/// one of them from the complete graph breaks 2-navigability. `G_net`, a
/// 2-PG, pays the bound within a constant factor.
fn tree_lower_bound(size: Size) -> Vec<Check> {
    const MAX_FACTOR: f64 = 8.0;
    let ks = size.pick(vec![2, 3, 4], vec![2, 3, 4, 5, 6], vec![2, 3, 4, 5, 6, 7]);
    let mut t =
        table("n | Δ | h=log(2Δ) | |P| | forced |P1||P2| | n·⌈h/2⌉ | G_net edges | G_net/forced");
    let (mut exact, mut held, mut factor) = (0, 0, 0.0f64);
    for &k in &ks {
        let n = 1u64 << k;
        let delta = n * n / 2; // the smallest admissible Δ: 2Δ = n²
        let inst = TreeInstance::new(n, delta);
        let gnet = GNet::build(&inst.dataset(), 1.0);
        let (h, points, edges) = (inst.h, inst.len(), gnet.graph.edge_count());
        let forced = inst.required_edge_count();
        let formula = n * h.div_ceil(2) as u64;
        let ratio = edges as f64 / forced as f64;
        exact += usize::from(forced == formula);
        held += usize::from(inst.find_missing_required_edge(&gnet.graph).is_none());
        factor = factor.max(ratio);
        t.row(cells(format!(
            "{n} | {delta} | {h} | {points} | {forced} | {formula} | {edges} | {ratio:.2}"
        )));
    }
    t.print();

    let inst = TreeInstance::new(8, 32);
    let complete = Graph::complete(inst.len());
    let forced = inst.required_edges().count();
    let broken = inst
        .required_edges()
        .filter(|&(a, b)| {
            inst.adversary_violation(&complete.without_edge(a, b), a, b)
                .is_some()
        })
        .count();
    println!("\nn = 8, Δ = 32: {broken}/{forced} single forced-edge deletions from the complete graph break 2-navigability");
    vec![
        every("instances with forced = n·⌈h/2⌉", exact, ks.len()),
        every("G_net holds every forced edge", held, ks.len()),
        at_most("G_net/forced max", factor, MAX_FACTOR, 2),
        every("deletions that break 2-navigability", broken, forced),
    ]
}

/// Theorem 1.2(2), Figure 2: on the §4 block instance with `ε = 1/(2s)`,
/// every `(1+ε)`-PG holds all `s^d (s^d − 1) t = Ω(s^d · n)` ordered
/// intra-block pairs, and Alice wins against any one deletion.
fn block_lower_bound(size: Size) -> Vec<Check> {
    // (s, d, t): smoke size runs the first 4, default size the first 8.
    const COMBOS: [(u32, u32, u32); 12] = [
        (2, 1, 2),
        (2, 1, 8),
        (2, 2, 2),
        (2, 2, 8),
        (3, 2, 2),
        (3, 2, 6),
        (2, 3, 2),
        (4, 2, 2),
        (3, 3, 2),
        (5, 2, 2),
        (4, 2, 6),
        (2, 2, 32),
    ];
    let combos = &COMBOS[..size.pick(4, 8, 12)];
    let mut t = table(
        "s | d | t | n | ε=1/(2s) | forced | s^d(s^d-1)t | s^d·n | G_net edges | G_net/forced",
    );
    let (mut exact, mut held) = (0, 0);
    for &(s, d, blocks) in combos {
        let inst = BlockInstance::new(s, d, blocks);
        let gnet = GNet::build(&inst.data_dataset(), inst.epsilon());
        let (n, eps, edges) = (inst.n(), inst.epsilon(), gnet.graph.edge_count());
        let sd = (s as u64).pow(d);
        let forced = inst.required_edge_count();
        let formula = sd * (sd - 1) * blocks as u64;
        exact += usize::from(forced == formula);
        held += usize::from(inst.find_missing_required_edge(&gnet.graph).is_none());
        let (sd_n, ratio) = (sd * n as u64, edges as f64 / forced as f64);
        t.row(cells(format!(
            "{s} | {d} | {blocks} | {n} | {eps:.3} | {forced} | {formula} | {sd_n} | {edges} | {ratio:.2}"
        )));
    }
    t.print();

    let inst = BlockInstance::new(2, 2, 2);
    let complete = Graph::complete(inst.n());
    let forced = inst.required_edges().count();
    let wins = inst
        .required_edges()
        .filter(|&(a, b)| {
            inst.adversary_violation(&complete.without_edge(a, b), a, b)
                .is_some()
        })
        .count();
    println!("\ns = 2, d = 2, t = 2: Alice wins on {wins}/{forced} single-edge deletions");
    vec![
        every("instances with forced = s^d(s^d−1)t", exact, combos.len()),
        every("G_net holds every forced edge", held, combos.len()),
        every("deletions Alice wins", wins, forced),
    ]
}

/// Theorem 1.3: greedy on the merged graph returns a `(1+ε)`-approximate
/// nearest neighbour from any start, and (Lemma 5.2) the longest run of
/// consecutive non-jackpot hop vertices stays below `⌈ln n · log Δ⌉`.
fn merged_query(size: Size) -> Vec<Check> {
    let ns = size.pick(
        vec![200, 400],
        vec![500, 1000, 2000, 4000],
        vec![1000, 2000, 4000, 8000, 16000],
    );
    let mut t = table(
        "n | logΔ | τ | dists/query | hops | worst ratio | max non-jackpot run | ⌈ln n·logΔ⌉",
    );
    let (mut worst_over_n, mut within) = (1.0f64, 0);
    for &n in &ns {
        let side = (n as f64).sqrt() * 4.0;
        let data = workloads::uniform_cube_flat(n, 2, side, 31).into_dataset(Euclidean);
        let merged = MergedGraph::build(&data, MergedParams::new(1.0));
        let queries = workloads::uniform_queries_flat(50, 2, 0.0, side, 32).into_rows();
        let (dists, hops, _, worst) = measure_greedy(&merged.graph, &data, &queries);
        worst_over_n = worst_over_n.max(worst);

        let mut max_run = 0;
        for (i, q) in queries.iter().enumerate() {
            let hops = greedy(&merged.graph, &data, ((i * 7919) % n) as u32, q).hops;
            let runs = hops
                .split(|&h| merged.jackpots[h as usize])
                .map(<[u32]>::len);
            max_run = max_run.max(runs.max().unwrap_or(0));
        }
        // τ = min(1, z / logΔ), so logΔ = z / τ whenever τ < 1.
        let (tau, log_delta) = (merged.tau, (merged.params.z / merged.tau).max(1.0));
        let ceiling = ((n as f64).ln() * log_delta).ceil();
        within += usize::from(max_run as f64 <= ceiling);
        t.row(cells(format!(
            "{n} | {log_delta:.0} | {tau:.3} | {dists:.0} | {hops:.1} | {worst:.3} | {max_run} | {ceiling:.0}"
        )));
    }
    t.print();
    vec![
        at_most("worst ratio over n at ε = 1", worst_over_n, 2.0, 3),
        every("n with max run ≤ ⌈ln n·logΔ⌉", within, ns.len()),
    ]
}

/// The Euclidean separation, Theorem 1.2(1) against Theorem 1.3. On the
/// §3 tree metric the forced edges per point grow linearly in `log Δ`; on
/// a Euclidean line-plus-satellite set at fixed `n` whose `Δ` is swept,
/// the merged graph's edges per point do not grow with `log Δ`.
fn separation(size: Size) -> Vec<Check> {
    const MIN_TAX: f64 = 0.3;
    const MAX_SHARE: f64 = 0.15;
    let ks = size.pick(vec![3, 4, 5], vec![3, 4, 5, 6, 7], vec![3, 4, 5, 6, 7, 8]);
    println!("General metric (the §3 tree instance): edges per point against log Δ\n");
    let mut t = table("|P| | Δ | logΔ | forced e/p | G_net e/p");
    let (mut forced_curve, mut held) = ((Vec::new(), Vec::new()), 0);
    for &k in &ks {
        let n = 1u64 << k;
        let delta = n * n / 2;
        let inst = TreeInstance::new(n, delta);
        let gnet = GNet::build(&inst.dataset(), 1.0);
        held += usize::from(inst.find_missing_required_edge(&gnet.graph).is_none());
        let points = inst.len();
        let forced = inst.required_edge_count() as f64 / points as f64;
        let gnet_per_point = gnet.graph.edge_count() as f64 / points as f64;
        let log_delta = (delta as f64).log2();
        forced_curve.0.push(log_delta);
        forced_curve.1.push(forced);
        t.row(cells(format!(
            "{points} | {delta} | {log_delta:.0} | {forced:.1} | {gnet_per_point:.1}"
        )));
    }
    t.print();

    let n = size.pick(128, 512, 1024);
    let exponents = size.pick(
        vec![11, 14, 17, 20, 23],
        vec![11, 14, 17, 20, 23],
        vec![12, 14, 16, 18, 20, 22, 24],
    );
    println!("\nEuclidean (a unit-spaced line plus one satellite, n = {n}): edges per point against log Δ\n");
    let mut t = table("spread | logΔ | τ | merged e/p | θ e/p | G_net e/p");
    let mut merged_curve = (Vec::new(), Vec::new());
    for &j in &exponents {
        let data = line_plus_satellite(n, 2f64.powi(j)).into_dataset(Euclidean);
        // §5.3 amplification: the smallest of several jackpot samplings,
        // drawn from the one `G_net` whose edges it counts.
        let merged = MergedGraph::build_best_of(&data, MergedParams::new(1.0), 10);
        let per_point = |edges: usize| edges as f64 / n as f64;
        let (tau, merged_pp) = (merged.tau, per_point(merged.graph.edge_count()));
        let theta_pp = per_point(merged.theta_edges);
        let gnet_pp = per_point(merged.gnet_edges);
        merged_curve.0.push(j as f64);
        merged_curve.1.push(merged_pp);
        t.row(cells(format!(
            "2^{j} | {j} | {tau:.3} | {merged_pp:.1} | {theta_pp:.1} | {gnet_pp:.1}"
        )));
    }
    t.print();
    let tax = linear_slope(&forced_curve.0, &forced_curve.1);
    let merged = linear_slope(&merged_curve.0, &merged_curve.1);
    println!("\nedges per point per unit of log Δ: forced on the tree {tax:+.3}, merged in the plane {merged:+.3}");
    let readings = (
        format!("forced e/p per unit of logΔ {tax:+.3}"),
        format!("merged e/p per unit of logΔ {merged:+.3}"),
    );
    vec![
        every("tree: G_net holds every forced edge", held, ks.len()),
        check(readings.0, format!("> {MIN_TAX}"), tax > MIN_TAX),
        check(
            readings.1,
            format!("< {MAX_SHARE} × forced"),
            merged < MAX_SHARE * tax,
        ),
    ]
}

/// A Euclidean instance with exactly `n` points, `d_min = 1` and
/// `diam = spread`: a unit-spaced line of `n − 1` points plus a satellite.
fn line_plus_satellite(n: usize, spread: f64) -> FlatPoints {
    assert!(spread > 2.0 * n as f64, "the satellite must clear the line");
    FlatPoints::from_fn(n, 2, |i, out| {
        out.extend([if i + 1 < n { i as f64 } else { spread }, 0.0])
    })
}

/// Lemma 5.1 and Figures 3–6: every cone family covers `R^d` within `θ/2`
/// of an axis with `O((1/θ)^{d−1})` cones, the `(ε/32)`-θ-graph is a
/// `(1+ε)`-PG, and a point keeps at most one edge per cone.
fn theta_graph(size: Size) -> Vec<Check> {
    let samples = size.pick(1000, 4000, 20000);
    let mut t = table("d | θ | cones | covering gap | θ/2");
    let families = [
        (2, 0.5),
        (2, 0.125),
        (2, 0.03125),
        (3, 0.6),
        (3, 0.3),
        (4, 0.9),
    ];
    let mut covered = 0;
    for (d, theta) in families {
        let cones = ConeSet::covering(d, theta);
        let (count, gap, half) = (cones.count(), cones.covering_gap(samples, 77), theta / 2.0);
        covered += usize::from(gap <= half + 1e-9);
        t.row(cells(format!(
            "{d} | {theta:.4} | {count} | {gap:.4} | {half:.4}"
        )));
    }
    t.print();

    let n = size.pick(100, 250, 600);
    let data = workloads::uniform_cube_flat(n, 2, 50.0, 13).into_dataset(Euclidean);
    let queries = workloads::uniform_queries_flat(40, 2, -5.0, 55.0, 14).into_rows();
    let eps = 1.0;
    println!();
    let mut t = table("θ | θ/(ε/32) | cones | edges/p | edges/p per cone | (1+ε)-navigable");
    let (mut lemma_holds, mut max_per_cone) = (false, 0.0f64);
    for theta in [eps / 32.0, eps / 16.0, eps / 8.0, eps / 4.0, eps / 2.0, 1.2] {
        let multiple = theta / (eps / 32.0);
        let tg = ThetaGraph::build(&data, theta);
        let navigable = check_navigable(&tg.graph, &data, &queries, eps).is_ok();
        lemma_holds |= multiple == 1.0 && navigable;
        let (cones, edges) = (tg.cone_count, tg.graph.edge_count() as f64 / n as f64);
        let per_cone = edges / cones as f64;
        max_per_cone = max_per_cone.max(per_cone);
        t.row(cells(format!(
            "{theta:.4} | {multiple:.1} | {cones} | {edges:.1} | {per_cone:.3} | {}",
            if navigable { "yes" } else { "NO" }
        )));
    }
    t.print();
    vec![
        every("families with covering gap ≤ θ/2", covered, families.len()),
        every("θ = ε/32 (1+ε)-navigable", usize::from(lemma_holds), 1),
        at_most("edges per point per cone max", max_per_cone, 1.0, 3),
    ]
}

/// Eq. 4: Lemma 2.2's proof needs the reach `φ = 1 + 2^{η+1}` (9 at
/// ε = 1). At that φ `G_net` is `(1+ε)`-navigable on uniform, clustered and
/// chain points; the sweep below it must break each of them, or it shows
/// nothing about how much of the constant is proof slack.
fn reach_constant(size: Size) -> Vec<Check> {
    let eps = 1.0;
    let paper_phi = GNetParams::new(eps).phi;
    let n = size.pick(150, 400, 1000);
    let uniform = workloads::uniform_cube_flat(n, 2, 120.0, 61);
    let clusters = workloads::gaussian_clusters_flat(n, 2, 10, 1.5, 120.0, 62);
    let chain = workloads::geometric_chain_flat(10, n / 10, 4.0, 2, 63);
    let mut t = table("workload | logΔ | φ | φ/φ_paper | edges | navigable | worst ratio");
    let (mut navigable_at_paper, mut broken, mut worst_at_paper) = (0, 0, 1.0f64);
    let mut smallest = vec![];
    for (name, points) in [
        ("uniform", uniform),
        ("clusters", clusters),
        ("chain", chain),
    ] {
        let mut queries = workloads::perturbed_queries_flat(&points, 25, 0.8, 64).into_rows();
        queries.extend(workloads::uniform_queries_flat(15, 2, -20.0, 150.0, 65).into_rows());
        let data = points.into_dataset(Euclidean);
        let hierarchy = NetHierarchy::build(&data);
        let log_delta = hierarchy.log_aspect();
        let mut navigable_phis = Vec::new();
        for phi in [1.5, 2.0, 3.0, 5.0, 7.0, paper_phi, 12.0] {
            let g = gnet_edges_with_phi(&data, &hierarchy, phi);
            let navigable = check_navigable(&g, &data, &queries, eps).is_ok();
            let (_, _, _, worst) = measure_greedy(&g, &data, &queries);
            if phi == paper_phi {
                navigable_at_paper += usize::from(navigable);
                worst_at_paper = worst_at_paper.max(worst);
            }
            navigable_phis.extend(navigable.then_some(phi));
            let (ratio, edges) = (phi / paper_phi, g.edge_count());
            t.row(cells(format!(
                "{name} | {log_delta} | {phi:.1} | {ratio:.2} | {edges} | {} | {worst:.3}",
                if navigable { "yes" } else { "NO" }
            )));
        }
        broken += usize::from(navigable_phis.len() < 7);
        let least = navigable_phis.iter().copied().fold(f64::INFINITY, f64::min);
        smallest.push(format!("{name} {least:.1}"));
    }
    t.print();
    let smallest = smallest.join(", ");
    println!("\nφ_paper = {paper_phi}; smallest navigable φ swept: {smallest}");
    vec![
        every("workloads navigable at φ_paper", navigable_at_paper, 3),
        at_most("worst ratio at φ_paper", worst_at_paper, 1.0 + eps, 3),
        every("workloads the sweep breaks", broken, 3),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every row at smoke size, in-process: each check must be green.
    #[test]
    fn every_row_is_green_at_smoke_size() {
        for (claim, row) in ROWS {
            for Check { reading, bound, ok } in row(Size::Smoke) {
                assert!(ok, "{claim}: {reading} against {bound}");
            }
        }
    }
}
