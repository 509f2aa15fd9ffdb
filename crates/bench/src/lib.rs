//! Shared helpers for the experiment harness: table formatting, log–log
//! slope fitting, and query-cost measurement.
//!
//! `src/bin/pg_paper.rs` reproduces the paper's claims, the quality
//! frontiers and the sharded frontiers among them, as one clock-free table
//! with a verdict per claim; `exp_serve` sweeps closed-loop load against a
//! live server; wall-clock belongs to `src/bin/pg_ladder/`. Binaries accept
//! `--full` for the larger parameter sweeps recorded in EXPERIMENTS.md, and
//! refuse flags they do not declare ([`Args`]).
//!
//! Where this crate sits in the workspace is mapped in `ARCHITECTURE.md`
//! at the repository root.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use pg_core::{greedy, Graph};
use pg_metric::{Dataset, Metric};

/// Ordinary least squares slope of `ln y` against `ln x` — the growth
/// exponent read off a log–log plot. Requires positive samples.
pub fn loglog_slope(xs: &[f64], ys: &[f64]) -> f64 {
    let ln = |vs: &[f64]| vs.iter().map(|v| v.ln()).collect::<Vec<_>>();
    linear_slope(&ln(xs), &ln(ys))
}

/// Least-squares slope of `y` against `x` (linear scale).
pub fn linear_slope(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len());
    assert!(xs.len() >= 2, "need at least two samples");
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
/// cycling through start vertices. Returns `(avg_dists, avg_hops, max_hops,
/// worst_ratio)` where `worst_ratio` is the worst approximation ratio
/// observed against brute force.
pub fn measure_greedy<P, M: Metric<P>>(
    graph: &Graph,
    data: &Dataset<P, M>,
    queries: &[P],
) -> (f64, f64, usize, f64) {
    let n = data.len();
    let mut comps = 0u64;
    let (mut hops, mut max_hops) = (0, 0);
    let mut worst: f64 = 1.0;
    for (i, q) in queries.iter().enumerate() {
        let out = greedy(graph, data, spread_start(i, n), q);
        comps += out.dist_comps;
        hops += out.hops.len();
        max_hops = max_hops.max(out.hops.len());
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
        max_hops,
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

/// The command line of one binary, checked against the switches that
/// binary declares: an argument it does not know, or a `PG_THREADS` the
/// pool cannot use, is a usage error (exit 2) rather than a silently
/// different run.
pub struct Args {
    argv: Vec<String>,
    switches: &'static [&'static str],
}

impl Args {
    /// Parses the process arguments. `switches` are the bare flags the
    /// binary accepts (`--full`, `--smoke`), names including the leading
    /// dashes. The pool is sized by `PG_THREADS` (else the machine), so a
    /// set `PG_THREADS` must be a positive integer. On a usage error,
    /// prints the problem and a usage line to stderr and exits 2.
    pub fn parse(switches: &'static [&'static str]) -> Args {
        let mut argv = std::env::args();
        let bin = argv.next().unwrap_or_default();
        let args = Args {
            argv: argv.collect(),
            switches,
        };
        let pg_threads = std::env::var_os("PG_THREADS").map(|v| v.to_string_lossy().into_owned());
        if let Err(problem) = args.check().and(check_pg_threads(pg_threads.as_deref())) {
            let bin = bin.rsplit('/').next().unwrap_or_default();
            let usage: Vec<String> = switches.iter().map(|s| format!("[{s}]")).collect();
            eprintln!("{bin}: {problem}\nusage: {bin} {}", usage.join(" "));
            std::process::exit(2)
        }
        args
    }

    /// Core of [`Args::parse`], split out for testability: every argument
    /// is a declared switch.
    fn check(&self) -> Result<(), String> {
        match self
            .argv
            .iter()
            .find(|a| !self.switches.contains(&a.as_str()))
        {
            Some(arg) => Err(format!("unknown argument `{arg}`")),
            None => Ok(()),
        }
    }

    /// True when the bare flag `switch` was given.
    pub fn has(&self, switch: &str) -> bool {
        assert!(self.switches.contains(&switch), "undeclared {switch}");
        self.argv.iter().any(|a| a == switch)
    }
}

/// Checks a `PG_THREADS` value the way the pool reads it: unset or blank
/// means the machine's parallelism, anything else must be a positive
/// integer (the pool would otherwise ignore it and run at the default).
fn check_pg_threads(value: Option<&str>) -> Result<(), String> {
    match value.map(str::trim) {
        None | Some("") => Ok(()),
        Some(v) if v.parse().is_ok_and(|t: usize| t >= 1) => Ok(()),
        Some(v) => Err(format!("PG_THREADS takes a positive integer, got `{v}`")),
    }
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

    fn parse(argv: &[&str], switches: &'static [&'static str]) -> Result<Args, String> {
        let args = Args {
            argv: argv.iter().map(|s| s.to_string()).collect(),
            switches,
        };
        args.check().map(|()| args)
    }

    #[test]
    fn only_declared_switches_are_accepted() {
        let args = parse(&["--smoke"], &["--full", "--smoke"]).unwrap();
        assert!(args.has("--smoke") && !args.has("--full"));
        // Misspelt switches, stray words, a switch another binary accepts
        // and the removed value flags (`--n`, `--shards`, `--threads`:
        // `PG_THREADS` sizes the pool) are refused.
        for bad in [
            "--smok",
            "stray",
            "--overload",
            "--n",
            "--shards=4",
            "--threads=2",
        ] {
            assert_eq!(
                parse(&["--full", bad], &["--full", "--smoke"]).err(),
                Some(format!("unknown argument `{bad}`"))
            );
        }
    }

    #[test]
    fn pg_threads_must_be_a_positive_integer_when_set() {
        for ok in [None, Some(""), Some(" "), Some("1"), Some("2"), Some(" 4 ")] {
            assert_eq!(check_pg_threads(ok), Ok(()), "{ok:?}");
        }
        // A value the pool would silently replace by the machine default
        // is a usage error, not a run at the default.
        for bad in ["0", "two", "-1", "1.5", "2 threads"] {
            assert_eq!(
                check_pg_threads(Some(bad)).unwrap_err(),
                format!("PG_THREADS takes a positive integer, got `{bad}`")
            );
        }
    }
}
