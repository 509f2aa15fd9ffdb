//! Shared helpers for the experiment harness: table formatting, log–log
//! slope fitting, and query-cost measurement.
//!
//! Every experiment in DESIGN.md §3 has a binary in `src/bin/` that prints
//! the corresponding paper-shaped table; `benches/` holds the criterion
//! wall-clock micro-benchmarks. Binaries accept `--full` for the larger
//! parameter sweeps recorded in EXPERIMENTS.md.
//!
//! Where this crate sits in the workspace is mapped in `ARCHITECTURE.md`
//! at the repository root.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use pg_core::{greedy, Graph, QueryEngine};
use pg_metric::{Dataset, Metric};

/// Ordinary least squares slope of `ln y` against `ln x` — the growth
/// exponent read off a log–log plot. Requires positive samples.
pub fn loglog_slope(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len());
    assert!(xs.len() >= 2, "need at least two samples");
    let lx: Vec<f64> = xs.iter().map(|&x| x.ln()).collect();
    let ly: Vec<f64> = ys.iter().map(|&y| y.ln()).collect();
    let mx = lx.iter().sum::<f64>() / lx.len() as f64;
    let my = ly.iter().sum::<f64>() / ly.len() as f64;
    let cov: f64 = lx
        .iter()
        .zip(ly.iter())
        .map(|(x, y)| (x - mx) * (y - my))
        .sum();
    let var: f64 = lx.iter().map(|x| (x - mx) * (x - mx)).sum();
    cov / var
}

/// Least-squares slope of `y` against `x` (linear scale).
pub fn linear_slope(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len());
    assert!(xs.len() >= 2);
    let mx = xs.iter().sum::<f64>() / xs.len() as f64;
    let my = ys.iter().sum::<f64>() / ys.len() as f64;
    let cov: f64 = xs
        .iter()
        .zip(ys.iter())
        .map(|(x, y)| (x - mx) * (y - my))
        .sum();
    let var: f64 = xs.iter().map(|x| (x - mx) * (x - mx)).sum();
    cov / var
}

/// The start vertex the measurement helpers assign to query `i` on an
/// `n`-point dataset (a Knuth-hash stride through the vertex set).
pub fn spread_start(i: usize, n: usize) -> u32 {
    ((i * 2654435761) % n) as u32
}

/// Average greedy distance computations and hops over the given queries,
/// cycling through start vertices. Returns `(avg_dists, avg_hops,
/// worst_ratio)` where `worst_ratio` is the worst approximation ratio
/// observed against brute force.
pub fn measure_greedy<P, M: Metric<P>>(
    graph: &Graph,
    data: &Dataset<P, M>,
    queries: &[P],
) -> (f64, f64, f64) {
    let n = data.len();
    let mut comps = 0u64;
    let mut hops = 0usize;
    let mut worst: f64 = 1.0;
    for (i, q) in queries.iter().enumerate() {
        let out = greedy(graph, data, spread_start(i, n), q);
        comps += out.dist_comps;
        hops += out.hops.len();
        let (_, exact) = data.nearest_brute(q);
        if exact > 0.0 {
            worst = worst.max(out.result_dist / exact);
        } else if out.result_dist > 0.0 {
            worst = f64::INFINITY;
        }
    }
    (
        comps as f64 / queries.len() as f64,
        hops as f64 / queries.len() as f64,
        worst,
    )
}

/// [`measure_greedy`] through a [`QueryEngine`] batch: same start-vertex
/// schedule, same `(avg_dists, avg_hops, worst_ratio)` — the engine
/// guarantees per-query outcomes identical to the sequential `greedy`, so
/// the two helpers agree for any thread count (asserted in tests).
pub fn measure_greedy_batch<P: Sync, M: Metric<P> + Sync>(
    engine: &QueryEngine<P, M>,
    queries: &[P],
) -> (f64, f64, f64) {
    let n = engine.data().len();
    let starts: Vec<u32> = (0..queries.len()).map(|i| spread_start(i, n)).collect();
    let batch = engine.batch_greedy(&starts, queries);
    let hops: usize = batch.outcomes.iter().map(|o| o.hops.len()).sum();
    let mut worst: f64 = 1.0;
    for (q, out) in queries.iter().zip(batch.outcomes.iter()) {
        let (_, exact) = engine.data().nearest_brute(q);
        if exact > 0.0 {
            worst = worst.max(out.result_dist / exact);
        } else if out.result_dist > 0.0 {
            worst = f64::INFINITY;
        }
    }
    (
        batch.dist_comps as f64 / queries.len() as f64,
        hops as f64 / queries.len() as f64,
        worst,
    )
}

/// Simple Markdown-ish table printer with right-aligned numeric columns.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Starts a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (stringified cells).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows.push(cells);
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row.iter()) {
                *w = (*w).max(c.len());
            }
        }
        let line = |cells: &[String]| {
            let mut s = String::from("|");
            for (c, w) in cells.iter().zip(widths.iter()) {
                s.push_str(&format!(" {c:>w$} |"));
            }
            s
        };
        println!("{}", line(&self.headers));
        let mut sep = String::from("|");
        for w in &widths {
            sep.push_str(&format!("{}|", "-".repeat(w + 2)));
        }
        println!("{sep}");
        for row in &self.rows {
            println!("{}", line(row));
        }
    }
}

/// Formats a float with the given number of decimals.
pub fn fmt(v: f64, decimals: usize) -> String {
    format!("{v:.decimals$}")
}

/// True when the binary was invoked with `--full` (bigger sweeps).
pub fn full_mode() -> bool {
    std::env::args().any(|a| a == "--full")
}

/// The value of a `--name VALUE` / `--name=VALUE` flag, if present.
///
/// This is the shared flag-parsing primitive of the experiment binaries:
/// `--threads` goes through it, and the snapshot pair uses it for
/// `--save-index PATH` / `--load-index PATH` (the offline/online split of
/// `exp_t11_build` / `exp_t11_query`).
pub fn value_flag(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    parse_value_flag(&args, name)
}

/// Flag-parsing core of [`value_flag`], split out for testability. `name`
/// includes the leading dashes (e.g. `"--threads"`). In the space-separated
/// form, a following token that is itself a flag (`--…`) is not consumed as
/// the value — `exp --save-index --full` means the path is missing, not
/// that the index goes to a file named `--full`. Use `--name=--value` if a
/// dash-leading value is really intended.
fn parse_value_flag(args: &[String], name: &str) -> Option<String> {
    let prefix = format!("{name}=");
    for (i, a) in args.iter().enumerate() {
        if a == name {
            return args.get(i + 1).filter(|v| !v.starts_with("--")).cloned();
        }
        if let Some(v) = a.strip_prefix(&prefix) {
            return Some(v.to_string());
        }
    }
    None
}

/// The `--threads N` / `--threads=N` flag, if present and valid.
pub fn threads_flag() -> Option<usize> {
    let args: Vec<String> = std::env::args().collect();
    parse_threads_flag(&args)
}

/// Flag-parsing core of [`threads_flag`].
fn parse_threads_flag(args: &[String]) -> Option<usize> {
    parse_value_flag(args, "--threads")
        .and_then(|v| v.parse().ok())
        .filter(|&t| t >= 1)
}

/// Applies the `--threads` flag (if any) to the global pool default and
/// returns the effective worker count. Every `exp_*` binary calls this
/// first, so `--threads 1` reproduces the sequential wall-clock and the
/// default engages the whole machine (or `PG_THREADS`).
pub fn init_threads() -> usize {
    if let Some(t) = threads_flag() {
        rayon::set_default_threads(t);
    }
    rayon::current_num_threads()
}

/// True when the binary was invoked with `--force` (allow clobbering a
/// committed `BENCH_*.json`).
pub fn force_flag() -> bool {
    std::env::args().any(|a| a == "--force")
}

/// The overwrite rule for committed benchmark artifacts: writing
/// `BENCH_<label>.json` is allowed when the file does not exist yet, when
/// `--force` was given, or when the label is not the binary's default
/// (scratch runs under `--label mytest` never endanger committed numbers).
///
/// This exists because a bare re-run of an experiment binary used to
/// silently overwrite the committed artifact of its original PR (see
/// CHANGES.md, PR 5) — now it refuses with a pointer to `--force`.
pub fn bench_overwrite_allowed(exists: bool, label_is_default: bool, force: bool) -> bool {
    !exists || force || !label_is_default
}

/// Writes `BENCH_<label>.json` into the current directory, honoring
/// [`bench_overwrite_allowed`] (with `--force` read from the arguments).
/// On refusal, returns an error message for the binary to print before
/// exiting non-zero.
pub fn write_bench_artifact(
    label: &str,
    label_is_default: bool,
    json: &str,
) -> Result<std::path::PathBuf, String> {
    write_bench_artifact_in(
        std::path::Path::new("."),
        label,
        label_is_default,
        force_flag(),
        json,
    )
}

/// Core of [`write_bench_artifact`], parameterized for testability.
pub fn write_bench_artifact_in(
    dir: &std::path::Path,
    label: &str,
    label_is_default: bool,
    force: bool,
    json: &str,
) -> Result<std::path::PathBuf, String> {
    let path = dir.join(format!("BENCH_{label}.json"));
    if !bench_overwrite_allowed(path.exists(), label_is_default, force) {
        return Err(format!(
            "refusing to overwrite existing {}: pass --force to replace the committed \
             artifact, or use --label <name> for a scratch run",
            path.display()
        ));
    }
    std::fs::write(&path, json).map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loglog_slope_recovers_exponents() {
        let xs = [100.0, 200.0, 400.0, 800.0];
        let quad: Vec<f64> = xs.iter().map(|x| 3.0 * x * x).collect();
        let lin: Vec<f64> = xs.iter().map(|x| 5.0 * x).collect();
        assert!((loglog_slope(&xs, &quad) - 2.0).abs() < 1e-9);
        assert!((loglog_slope(&xs, &lin) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn linear_slope_recovers_coefficient() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [2.5, 5.0, 7.5, 10.0];
        assert!((linear_slope(&xs, &ys) - 2.5).abs() < 1e-9);
    }

    #[test]
    fn table_prints_without_panicking() {
        let mut t = Table::new(&["a", "bb"]);
        t.row(vec!["1".into(), "2".into()]);
        t.print();
    }

    #[test]
    fn threads_flag_parsing() {
        let to_args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(
            parse_threads_flag(&to_args(&["exp", "--threads", "4"])),
            Some(4)
        );
        assert_eq!(
            parse_threads_flag(&to_args(&["exp", "--threads=2"])),
            Some(2)
        );
        assert_eq!(parse_threads_flag(&to_args(&["exp", "--full"])), None);
        assert_eq!(parse_threads_flag(&to_args(&["exp", "--threads"])), None);
        assert_eq!(
            parse_threads_flag(&to_args(&["exp", "--threads", "0"])),
            None
        );
        assert_eq!(
            parse_threads_flag(&to_args(&["exp", "--threads", "x"])),
            None
        );
    }

    #[test]
    fn value_flag_parsing() {
        let to_args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(
            parse_value_flag(
                &to_args(&["exp", "--save-index", "/tmp/i.pgix"]),
                "--save-index"
            ),
            Some("/tmp/i.pgix".to_string())
        );
        assert_eq!(
            parse_value_flag(&to_args(&["exp", "--load-index=idx.pgix"]), "--load-index"),
            Some("idx.pgix".to_string())
        );
        assert_eq!(
            parse_value_flag(&to_args(&["exp", "--full"]), "--save-index"),
            None
        );
        // A bare flag with no value yields nothing to parse downstream.
        assert_eq!(
            parse_value_flag(&to_args(&["exp", "--save-index"]), "--save-index"),
            None
        );
        // A following flag is not swallowed as the value…
        assert_eq!(
            parse_value_flag(&to_args(&["exp", "--save-index", "--full"]), "--save-index"),
            None
        );
        // …but the explicit `=` form can still pass anything.
        assert_eq!(
            parse_value_flag(&to_args(&["exp", "--save-index=--odd"]), "--save-index"),
            Some("--odd".to_string())
        );
    }

    #[test]
    fn overwrite_guard_truth_table() {
        // (exists, default label, force) → allowed.
        assert!(bench_overwrite_allowed(false, true, false)); // first write
        assert!(bench_overwrite_allowed(false, false, false));
        assert!(bench_overwrite_allowed(true, true, true)); // forced
        assert!(bench_overwrite_allowed(true, false, false)); // scratch label
                                                              // The regression case (PR 5): a bare re-run with the default label
                                                              // over a committed artifact is the one refused combination.
        assert!(!bench_overwrite_allowed(true, true, false));
    }

    #[test]
    fn write_bench_artifact_refuses_then_obeys_force_and_scratch_labels() {
        let dir = std::env::temp_dir().join(format!("pg_bench_guard_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();

        // First default-label write lands.
        let p = write_bench_artifact_in(&dir, "pr0", true, false, "{\"a\":1}").unwrap();
        assert_eq!(std::fs::read_to_string(&p).unwrap(), "{\"a\":1}");

        // A bare re-run is refused and the committed bytes survive.
        let err = write_bench_artifact_in(&dir, "pr0", true, false, "{\"a\":2}").unwrap_err();
        assert!(
            err.contains("--force"),
            "message must point at --force: {err}"
        );
        assert_eq!(std::fs::read_to_string(&p).unwrap(), "{\"a\":1}");

        // --force replaces; a non-default label writes beside it freely.
        write_bench_artifact_in(&dir, "pr0", true, true, "{\"a\":3}").unwrap();
        assert_eq!(std::fs::read_to_string(&p).unwrap(), "{\"a\":3}");
        let scratch = write_bench_artifact_in(&dir, "scratch", false, false, "{}").unwrap();
        write_bench_artifact_in(&dir, "scratch", false, false, "{\"b\":1}").unwrap();
        assert_eq!(std::fs::read_to_string(&scratch).unwrap(), "{\"b\":1}");

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn engine_measurement_agrees_with_sequential_helper() {
        use pg_core::{GNet, QueryEngine};
        use pg_metric::{Dataset, Euclidean};
        use pg_workloads as workloads;

        let pts = workloads::uniform_cube(300, 2, 60.0, 5);
        let data = Dataset::new(pts, Euclidean);
        let g = GNet::build_fast(&data, 1.0);
        let queries = workloads::uniform_queries(20, 2, 0.0, 60.0, 6);
        let seq = measure_greedy(&g.graph, &data, &queries);
        for threads in [1, 4] {
            let engine = QueryEngine::new(g.graph.clone(), data.clone()).with_threads(threads);
            let par = measure_greedy_batch(&engine, &queries);
            assert_eq!(seq, par, "helpers diverged at {threads} threads");
        }
    }

    /// The pay-or-delete measurement behind EXPERIMENTS.md's BFS-reorder
    /// row: single-thread beam walks on `gnet2d-batch`- and
    /// `hnsw128-batch`-shaped indexes with ids as built, relabelled by
    /// `QueryEngine::reorder_bfs` (handles into the old buffer, permuted),
    /// and relabelled with the row-major buffer permuted to match. Timing
    /// only, so not part of the suite: `cargo test --release -p pg_bench
    /// --lib reorder_walk_timing -- --ignored --nocapture` (~30 s).
    #[test]
    #[ignore = "wall-clock measurement, not a check"]
    fn reorder_walk_timing() {
        use pg_baselines::{Hnsw, HnswParams};
        use pg_core::{beam_search_detailed, GNet};
        use pg_metric::{Euclidean, FlatPoints, FlatRow};
        use std::time::Instant;

        type Arm = (&'static str, Graph, Dataset<FlatRow, Euclidean>, u32);
        let time = |(arm, graph, data, entry): &Arm, queries: &[FlatRow], ef: usize| {
            let mut rounds: Vec<f64> = (0..12)
                .map(|_| {
                    let t = Instant::now();
                    for q in queries {
                        std::hint::black_box(beam_search_detailed(graph, data, *entry, q, ef, 10));
                    }
                    t.elapsed().as_secs_f64() * 1e6 / queries.len() as f64
                })
                .skip(1)
                .collect();
            rounds.sort_by(f64::total_cmp);
            let at = |p: f64| rounds[((rounds.len() - 1) as f64 * p).round() as usize];
            println!(
                "  {arm:<22} {:7.2} us/query  [{:.2} .. {:.2}]",
                at(0.5),
                at(0.25),
                at(0.75)
            );
        };
        let arms = |points: FlatPoints, graph: Graph, entry: u32| -> Vec<Arm> {
            let engine = QueryEngine::new(graph, points.clone().into_dataset(Euclidean));
            let (reordered, map) = engine.reorder_bfs(entry);
            let permuted = FlatPoints::from_fn(points.len(), points.dim(), |new, out| {
                out.extend_from_slice(points.row(map.to_old(new as u32) as usize))
            });
            let (graph, data) = engine.into_parts();
            let (rgraph, rdata) = reordered.into_parts();
            vec![
                ("ids as built", graph, data, entry),
                ("reorder_bfs", rgraph.clone(), rdata, map.to_new(entry)),
                (
                    "reorder + moved buffer",
                    rgraph,
                    permuted.into_dataset(Euclidean),
                    map.to_new(entry),
                ),
            ]
        };

        println!("gnet2d-batch shape (n = 100000, d = 2, G_net eps = 1, ef = 16):");
        let points = pg_workloads::uniform_cube_flat(100_000, 2, 1000.0, 1);
        let queries = pg_workloads::uniform_queries_flat(2000, 2, 0.0, 1000.0, 2).into_rows();
        let graph = GNet::build_fast(&points.clone().into_dataset(Euclidean), 1.0).graph;
        for arm in arms(points, graph, 0) {
            time(&arm, &queries, 16);
        }

        println!("hnsw128-batch shape (n = 30000, d = 128, HNSW ground layer, ef = 64):");
        let points = pg_workloads::gaussian_clusters_flat(30_000, 128, 64, 600.0, 1000.0, 1);
        let queries = pg_workloads::perturbed_queries_flat(&points, 2000, 45.0, 2).into_rows();
        let hnsw = Hnsw::build(
            &points.clone().into_dataset(Euclidean),
            HnswParams::default(),
        );
        for arm in arms(points, hnsw.ground_layer(), hnsw.entry_point()) {
            time(&arm, &queries, 64);
        }
    }
}
