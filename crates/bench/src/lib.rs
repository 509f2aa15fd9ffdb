//! Shared helpers for the experiment harness: table formatting, log–log
//! slope fitting, and query-cost measurement.
//!
//! `src/bin/pg_paper.rs` reproduces the paper's claims as one table with a
//! verdict per claim; `exp_recall`, `exp_serve` and `exp_shard` print the
//! quality, serving and sharding tables; wall-clock belongs to
//! `src/bin/pg_ladder/`. Binaries accept `--full` for the larger parameter
//! sweeps recorded in EXPERIMENTS.md, and refuse flags they do not declare
//! ([`Args`]).
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
    /// `--gt-cache DIR`, where `exp_recall` and `exp_shard` keep ground
    /// truth.
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
/// value — `exp_recall --gt-cache --full` means the directory is missing,
/// not that the cache goes to a directory named `--full`. Use
/// `--name=--value` if a dash-leading value is really intended.
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
        let cache = |argv: &[&str]| {
            parse(argv, &["--full", "--smoke"], &["--gt-cache"]).map(|a| a.value("--gt-cache"))
        };
        assert_eq!(
            cache(&["--gt-cache", "/tmp/gt"]),
            Ok(Some("/tmp/gt".to_string()))
        );
        assert_eq!(
            cache(&["--full", "--gt-cache=gt"]),
            Ok(Some("gt".to_string()))
        );
        assert_eq!(cache(&["--full"]), Ok(None));
        // A bare value flag is a usage error…
        assert_eq!(
            cache(&["--gt-cache"]).unwrap_err(),
            "--gt-cache needs a value"
        );
        // …and a following flag is not swallowed as the value…
        assert!(cache(&["--gt-cache", "--full"]).is_err());
        // …but the explicit `=` form can still pass anything.
        assert_eq!(cache(&["--gt-cache=--odd"]), Ok(Some("--odd".to_string())));
        // Unknown flags, misspelt switches and stray words are refused; a
        // flag another binary accepts is unknown here.
        for bad in ["--smok", "--algo=x", "--gt-caches=x", "stray"] {
            assert_eq!(
                cache(&["--full", bad]).unwrap_err(),
                format!("unknown argument `{bad}`")
            );
        }
        let args = parse(&["--smoke"], &["--full", "--smoke"], &[]).unwrap();
        assert!(args.has("--smoke") && !args.has("--full"));
    }
}
