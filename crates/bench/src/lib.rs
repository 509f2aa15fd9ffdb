//! Shared helpers for the experiment harness: table formatting, log–log
//! slope fitting, and query-cost measurement.
//!
//! Every experiment in DESIGN.md §3 has a binary in `src/bin/` that prints
//! the corresponding paper-shaped table; wall-clock belongs to
//! `src/bin/pg_ladder/`. Binaries accept `--full` for the larger parameter
//! sweeps recorded in EXPERIMENTS.md, and refuse flags they do not declare
//! ([`Args`]).
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

/// The command line of one `exp_*` binary, checked against the flags that
/// binary declares: an argument it does not know, or a value flag without
/// its value, is a usage error (exit 2) rather than a silently different
/// run.
pub struct Args {
    argv: Vec<String>,
    switches: &'static [&'static str],
    value_flags: &'static [&'static str],
}

impl Args {
    /// Parses the process arguments. `switches` are the bare flags the
    /// binary accepts (`--full`, `--smoke`), `value_flags` the ones that
    /// take a value (`--threads N` or `--threads=N`); names include the
    /// leading dashes. On a usage error, prints the problem and a usage
    /// line to stderr and exits 2.
    pub fn parse(switches: &'static [&'static str], value_flags: &'static [&'static str]) -> Args {
        let mut argv = std::env::args();
        let bin = argv.next().unwrap_or_default();
        let bin = bin.rsplit('/').next().unwrap_or_default();
        Args::parse_from(argv.collect(), switches, value_flags).unwrap_or_else(|problem| {
            let usage: Vec<String> = switches
                .iter()
                .map(|s| format!("[{s}]"))
                .chain(value_flags.iter().map(|v| format!("[{v} VALUE]")))
                .collect();
            eprintln!("{bin}: {problem}\nusage: {bin} {}", usage.join(" "));
            std::process::exit(2)
        })
    }

    /// Core of [`Args::parse`], split out for testability: `argv` is the
    /// command line without the binary's name.
    fn parse_from(
        argv: Vec<String>,
        switches: &'static [&'static str],
        value_flags: &'static [&'static str],
    ) -> Result<Args, String> {
        let args = Args {
            argv,
            switches,
            value_flags,
        };
        let mut i = 0;
        while i < args.argv.len() {
            let arg = args.argv[i].as_str();
            let name = arg.split_once('=').map_or(arg, |(name, _)| name);
            if switches.contains(&arg) {
                i += 1;
            } else if value_flags.contains(&name) {
                let Some(value) = parse_value_flag(&args.argv[i..], name) else {
                    return Err(format!("{name} needs a value"));
                };
                if name == "--threads" && !value.parse().is_ok_and(|t: usize| t >= 1) {
                    return Err(format!("--threads takes a positive integer, got `{value}`"));
                }
                i += if arg == name { 2 } else { 1 };
            } else {
                return Err(format!("unknown argument `{arg}`"));
            }
        }
        Ok(args)
    }

    /// True when the bare flag `switch` was given.
    pub fn has(&self, switch: &str) -> bool {
        assert!(self.switches.contains(&switch), "undeclared {switch}");
        self.argv.iter().any(|a| a == switch)
    }

    /// The value of `--name VALUE` / `--name=VALUE`, if given — e.g.
    /// `--save-index PATH` / `--load-index PATH`, the offline/online split
    /// of `exp_t11_build` / `exp_t11_query`.
    pub fn value(&self, name: &str) -> Option<String> {
        assert!(self.value_flags.contains(&name), "undeclared {name}");
        parse_value_flag(&self.argv, name)
    }

    /// Applies `--threads` (if given) to the global pool default and
    /// returns the effective worker count, so `--threads 1` reproduces the
    /// sequential wall-clock and the default engages the whole machine (or
    /// `PG_THREADS`).
    pub fn init_threads(&self) -> usize {
        if let Some(t) = self.value("--threads").and_then(|v| v.parse().ok()) {
            rayon::set_default_threads(t);
        }
        rayon::current_num_threads()
    }
}

/// Finds `--name VALUE` / `--name=VALUE` in `args`. `name` includes the
/// leading dashes (e.g. `"--threads"`). In the space-separated form, a
/// following token that is itself a flag (`--…`) is not consumed as the
/// value — `exp --save-index --full` means the path is missing, not that
/// the index goes to a file named `--full`. Use `--name=--value` if a
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

    fn parse(
        argv: &[&str],
        switches: &'static [&'static str],
        value_flags: &'static [&'static str],
    ) -> Result<Args, String> {
        let argv = argv.iter().map(|s| s.to_string()).collect();
        Args::parse_from(argv, switches, value_flags)
    }

    #[test]
    fn threads_flag_parsing() {
        let threads =
            |argv: &[&str]| parse(argv, &["--full"], &["--threads"]).map(|a| a.value("--threads"));
        assert_eq!(threads(&["--threads", "4"]), Ok(Some("4".to_string())));
        assert_eq!(threads(&["--threads=2"]), Ok(Some("2".to_string())));
        assert_eq!(threads(&["--full"]), Ok(None));
        // A thread count the pool cannot use is a usage error, not a run at
        // the default.
        assert!(threads(&["--threads"]).is_err());
        assert!(threads(&["--threads", "0"]).is_err());
        assert!(threads(&["--threads", "x"]).is_err());
        // The typo this parser exists for: `--thread 2` used to be ignored.
        assert_eq!(
            threads(&["--thread", "2"]).unwrap_err(),
            "unknown argument `--thread`"
        );
    }

    #[test]
    fn value_flag_parsing() {
        let save = |argv: &[&str]| {
            parse(argv, &["--full", "--smoke"], &["--save-index"]).map(|a| a.value("--save-index"))
        };
        assert_eq!(
            save(&["--save-index", "/tmp/i.pgix"]),
            Ok(Some("/tmp/i.pgix".to_string()))
        );
        assert_eq!(
            save(&["--full", "--save-index=idx.pgix"]),
            Ok(Some("idx.pgix".to_string()))
        );
        assert_eq!(save(&["--full"]), Ok(None));
        // A bare value flag is a usage error…
        assert_eq!(
            save(&["--save-index"]).unwrap_err(),
            "--save-index needs a value"
        );
        // …and a following flag is not swallowed as the value…
        assert!(save(&["--save-index", "--full"]).is_err());
        // …but the explicit `=` form can still pass anything.
        assert_eq!(save(&["--save-index=--odd"]), Ok(Some("--odd".to_string())));
        // Unknown flags, misspelt switches and stray words are refused; a
        // flag another binary accepts is unknown here.
        for bad in ["--smok", "--load-index=x", "--save-indexes=x", "stray"] {
            assert_eq!(
                save(&["--full", bad]).unwrap_err(),
                format!("unknown argument `{bad}`")
            );
        }
        let args = parse(&["--smoke"], &["--full", "--smoke"], &[]).unwrap();
        assert!(args.has("--smoke") && !args.has("--full"));
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
}
