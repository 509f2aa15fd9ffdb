//! What leaves the process: the table a person reads, the result file
//! `compare` reads, the one-line result the benchmark driver reads, and
//! the `compare` verdicts.

use std::fmt::Write as _;
use std::path::Path;

use crate::catalog::{Better, MetricDef, Moves, END_TO_END, PER_LAYER, WORKLOADS};
use crate::json::{self, Json};
use crate::ladder::Run;
use crate::stats::Summary;

const SCHEMA: &str = "pg_ladder/1";

fn num(v: f64) -> Json {
    Json::Num(v)
}

fn summary_json(def: &MetricDef, s: &Summary) -> Json {
    Json::obj([
        ("value", num(s.median)),
        ("unit", Json::Str(def.unit.into())),
        ("better", Json::Str(def.better.as_str().into())),
        ("q1", num(s.q1)),
        ("q3", num(s.q3)),
        ("n", num(s.n as f64)),
    ])
}

/// The measured summary of `def` in a run's rows, if its layer ran.
fn measured<'a>(rows: &'a [(&'static str, Summary)], def: &MetricDef) -> Option<&'a Summary> {
    rows.iter()
        .find(|(name, _)| *name == def.name)
        .map(|(_, s)| s)
}

fn metrics_json(defs: &[MetricDef], rows: &[(&'static str, Summary)]) -> Json {
    Json::Obj(
        defs.iter()
            .filter_map(|def| {
                Some((
                    def.name.to_string(),
                    summary_json(def, measured(rows, def)?),
                ))
            })
            .collect(),
    )
}

/// One run as it is stored in a result file.
pub fn run_json(run: &Run) -> Json {
    let o = &run.opts;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Json::obj([
        ("workload", Json::Str(run.workload.into())),
        ("seed", num(o.seed as f64)),
        ("smoke", Json::Bool(o.smoke)),
        ("trace", Json::Bool(o.trace)),
        ("threads", num(o.threads as f64)),
        ("clients", num(o.clients as f64)),
        ("nproc", num(nproc as f64)),
        ("seconds", num(o.seconds)),
        ("attempted", num(run.attempted as f64)),
        ("failed", num(run.failed as f64)),
        (
            "fail_rate",
            num(run.failed as f64 / run.attempted.max(1) as f64),
        ),
        (
            "failures",
            Json::Arr(run.failures.iter().cloned().map(Json::Str).collect()),
        ),
        ("end_to_end", metrics_json(END_TO_END, &run.end_to_end)),
        ("per_layer", metrics_json(PER_LAYER, &run.per_layer)),
        (
            "tail",
            run.tail.map_or(Json::Null, |(p, us)| {
                Json::obj([("percentile", num(p)), ("us", num(us))])
            }),
        ),
        ("peak_rss_mb", num(run.peak_rss_mib)),
    ])
}

/// The table printed for a person: every metric by name, with its unit,
/// quartiles and sample count.
pub fn table(run: &Run) -> String {
    let o = &run.opts;
    let mut out = format!(
        "# pg_ladder {} seed={} T={} C={} seconds={} trace={} smoke={}\n",
        run.workload, o.seed, o.threads, o.clients, o.seconds, o.trace, o.smoke
    );
    if let Some(w) = WORKLOADS.iter().find(|w| w.name == run.workload) {
        let _ = writeln!(out, "# why: {}", w.why);
    }
    for (title, defs, rows) in [
        ("end to end", END_TO_END, &run.end_to_end),
        ("per layer", PER_LAYER, &run.per_layer),
    ] {
        if rows.is_empty() {
            continue;
        }
        let _ = writeln!(out, "{title}:");
        for def in defs {
            let _ = match measured(rows, def) {
                Some(s) if s.n > 1 => write!(
                    out,
                    "  {:<32} {:>14.4} {:<10} [{:.4} .. {:.4}, n={}]",
                    def.name, s.median, def.unit, s.q1, s.q3, s.n
                ),
                Some(s) => write!(out, "  {:<32} {:>14.4} {}", def.name, s.median, def.unit),
                None => write!(
                    out,
                    "  {:<32} {:>14} (not on this workload's path)",
                    def.name, "-"
                ),
            };
            // The prediction: what this layer metric should move.
            let Moves { metrics, workloads } = def.moves;
            if !metrics.is_empty() {
                let on = if workloads.len() == WORKLOADS.len() {
                    "every workload".into()
                } else {
                    workloads.join(", ")
                };
                let _ = write!(out, "  -> {} on {on}", metrics.join(", "));
            }
            out.push('\n');
        }
    }
    if let Some((p, us)) = run.tail {
        let _ = writeln!(out, "deepest supported tail: p{} = {us:.1} us", p * 100.0);
    }
    let _ = writeln!(out, "peak resident memory: {:.1} MiB", run.peak_rss_mib);
    let _ = writeln!(
        out,
        "checked {} operations, {} failed (fail_rate {})",
        run.attempted,
        run.failed,
        run.failed as f64 / run.attempted.max(1) as f64
    );
    for failure in &run.failures {
        let _ = writeln!(out, "GATE FAILED: {failure}");
    }
    out
}

/// The last line of standard output: exactly `correct`, `attempted`,
/// `failed` and `metrics` — every end-to-end metric of an untraced run,
/// every per-layer metric of a traced one (0 where the layer is not on the
/// workload's path).
pub fn result_line(run: &Run) -> String {
    let (defs, rows) = if run.opts.trace {
        (PER_LAYER, &run.per_layer)
    } else {
        (END_TO_END, &run.end_to_end)
    };
    let metrics = defs
        .iter()
        .map(|def| {
            let value = measured(rows, def).map_or(0.0, |s| s.median);
            let entry = Json::obj([("value", num(value)), ("unit", Json::Str(def.unit.into()))]);
            (def.name.to_string(), entry)
        })
        .collect();
    Json::obj([
        ("correct", Json::Bool(run.failed == 0)),
        ("attempted", num(run.attempted as f64)),
        ("failed", num(run.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ])
    .compact()
}

/// Appends `run` to the result file at `path` (created if missing), so a
/// file can hold every workload — and repeated runs — of one commit.
pub fn append(path: &Path, run: &Run) -> Result<(), String> {
    let mut runs = match std::fs::read_to_string(path) {
        Ok(text) => load_runs(&text).map_err(|e| format!("{}: {e}", path.display()))?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(format!("reading {}: {e}", path.display())),
    };
    runs.push(run_json(run));
    let doc = Json::obj([
        ("schema", Json::Str(SCHEMA.into())),
        ("runs", Json::Arr(runs)),
    ]);
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    std::fs::write(path, doc.pretty()).map_err(|e| format!("writing {}: {e}", path.display()))
}

fn load_runs(text: &str) -> Result<Vec<Json>, String> {
    let doc = json::parse(text)?;
    if doc.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
        return Err(format!("not a {SCHEMA} result file"));
    }
    Ok(doc.get("runs").map_or(&[][..], Json::as_arr).to_vec())
}

/// A `compare` verdict on one workload × metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    Ok,
    /// Worse than the baseline by more than the bound (and the spread).
    Regressed,
    /// The spread between runs is wider than the bound: the data cannot
    /// say "unchanged".
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The bound `compare` holds `def` to: its same-seed bound when both files
/// ran the workload on one seed and the metric repeats exactly there.
fn bound_for(def: &MetricDef, same_seed: bool) -> f64 {
    match def.same_seed {
        Some(bound) if same_seed => bound,
        _ => def.bound,
    }
}

/// The rule: how much worse `new` is than `base` as a share of `base`, in
/// the metric's own direction, against `bound` and the wider spread.
pub fn verdict(better: Better, bound: f64, base: &Summary, new: &Summary) -> Verdict {
    let worse = match better {
        Better::Lower => (new.median - base.median) / base.median.abs(),
        Better::Higher => (base.median - new.median) / base.median.abs(),
    };
    let spread = base.spread().max(new.spread());
    if worse > bound.max(spread) {
        Verdict::Regressed
    } else if spread > bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

/// The untraced runs of `workload` in a file.
fn untraced<'a>(runs: &'a [Json], workload: &'a str) -> impl Iterator<Item = &'a Json> {
    runs.iter()
        .filter(move |r| r.get("workload").and_then(Json::as_str) == Some(workload))
        .filter(|r| r.get("trace").and_then(Json::as_bool) == Some(false))
}

/// Whether every untraced run of `workload` in both files used one seed.
fn one_seed(base: &[Json], new: &[Json], workload: &str) -> bool {
    let mut seeds = untraced(base, workload)
        .chain(untraced(new, workload))
        .map(|r| r.get("seed").and_then(Json::as_f64));
    match seeds.next() {
        Some(Some(first)) => seeds.all(|seed| seed == Some(first)),
        _ => false,
    }
}

/// The untraced runs of `workload` in a file, reduced to one summary per
/// metric: a single run keeps its own quartiles; repeated runs are
/// summarised across runs.
fn summarise(runs: &[Json], workload: &str, metric: &str) -> Option<Summary> {
    let entries: Vec<&Json> = untraced(runs, workload)
        .filter_map(|r| r.get("end_to_end")?.get(metric))
        .collect();
    let field = |e: &Json, key: &str| e.get(key).and_then(Json::as_f64);
    match entries.as_slice() {
        [] => None,
        [one] => Some(Summary {
            median: field(one, "value")?,
            q1: field(one, "q1")?,
            q3: field(one, "q3")?,
            n: field(one, "n")? as usize,
        }),
        _ => {
            let values: Option<Vec<f64>> = entries.iter().map(|e| field(e, "value")).collect();
            Some(Summary::of(&values?))
        }
    }
}

fn failed_ops(runs: &[Json], workload: &str) -> f64 {
    runs.iter()
        .filter(|r| r.get("workload").and_then(Json::as_str) == Some(workload))
        .filter_map(|r| r.get("failed").and_then(Json::as_f64))
        .sum()
}

/// Diffs two result files: one row per workload × end-to-end metric with
/// both medians, the ratio with its base, and the verdict. Returns the
/// report and whether any row regressed.
pub fn compare(base_text: &str, new_text: &str) -> Result<(String, bool), String> {
    let base = load_runs(base_text).map_err(|e| format!("first file: {e}"))?;
    let new = load_runs(new_text).map_err(|e| format!("second file: {e}"))?;
    let mut out = format!(
        "{:<15} {:<22} {:>14} {:>14} {:>22} {:>7} {:>7}  verdict\n",
        "workload", "metric", "base", "new", "new/base", "spread", "bound"
    );
    let mut regressed = false;
    let mut rows = 0;
    for w in WORKLOADS {
        let same_seed = one_seed(&base, &new, w.name);
        for def in END_TO_END {
            let (Some(b), Some(n)) = (
                summarise(&base, w.name, def.name),
                summarise(&new, w.name, def.name),
            ) else {
                continue;
            };
            let bound = bound_for(def, same_seed);
            let v = verdict(def.better, bound, &b, &n);
            regressed |= v == Verdict::Regressed;
            rows += 1;
            let _ = writeln!(
                out,
                "{:<15} {:<22} {:>14.4} {:>14.4} {:>9.4} of {:>9.4} {:>7.4} {:>7.4}  {}",
                w.name,
                def.name,
                b.median,
                n.median,
                n.median / b.median,
                b.median,
                b.spread().max(n.spread()),
                bound,
                v.as_str()
            );
        }
        let (fb, fn_) = (failed_ops(&base, w.name), failed_ops(&new, w.name));
        if summarise(&new, w.name, "qps").is_some() {
            let v = if fn_ > 0.0 {
                Verdict::Regressed
            } else {
                Verdict::Ok
            };
            regressed |= v == Verdict::Regressed;
            let _ = writeln!(
                out,
                "{:<15} {:<22} {fb:>14} {fn_:>14} {:>22} {:>7} {:>7}  {}",
                w.name,
                "failed",
                "-",
                "-",
                "0 abs",
                v.as_str()
            );
        }
    }
    if rows == 0 {
        return Err("the two files share no untraced run of any workload".into());
    }
    Ok((out, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn around(median: f64, half_spread: f64) -> Summary {
        Summary {
            median,
            q1: median * (1.0 - half_spread),
            q3: median * (1.0 + half_spread),
            n: 10,
        }
    }

    #[test]
    fn verdict_follows_direction_bound_and_spread() {
        use Better::{Higher, Lower};
        let base = around(100.0, 0.01);
        let at = |better, new: Summary| verdict(better, 0.10, &base, &new);
        assert_eq!(at(Lower, around(109.0, 0.01)), Verdict::Ok);
        assert_eq!(at(Lower, around(111.0, 0.01)), Verdict::Regressed);
        assert_eq!(at(Lower, around(50.0, 0.01)), Verdict::Ok);
        assert_eq!(at(Higher, around(89.0, 0.01)), Verdict::Regressed);
        assert_eq!(at(Higher, around(200.0, 0.01)), Verdict::Ok);
        // A spread wider than the bound cannot certify "unchanged" …
        assert_eq!(at(Lower, around(105.0, 0.08)), Verdict::Unresolved);
        // … but a loss larger than even that spread is still a loss.
        assert_eq!(at(Lower, around(140.0, 0.08)), Verdict::Regressed);
        // Exact metrics: identical is ok at any bound, any loss past it is not.
        let exact = |bound, new| verdict(Higher, bound, &Summary::exact(0.9), &Summary::exact(new));
        assert_eq!(exact(0.0, 0.9), Verdict::Ok);
        assert_eq!(exact(0.0, 0.8999), Verdict::Regressed);
        assert_eq!(exact(0.0, 0.95), Verdict::Ok);
        assert_eq!(exact(0.05, 0.8999), Verdict::Ok);
    }

    fn file(runs: &[(&str, f64, f64)]) -> String {
        let runs = runs
            .iter()
            .map(|&(workload, qps, failed)| {
                Json::obj([
                    ("workload", Json::Str(workload.into())),
                    ("trace", Json::Bool(false)),
                    ("failed", num(failed)),
                    (
                        "end_to_end",
                        Json::obj([("qps", summary_json(&END_TO_END[2], &around(qps, 0.01)))]),
                    ),
                ])
            })
            .collect();
        Json::obj([
            ("schema", Json::Str(SCHEMA.into())),
            ("runs", Json::Arr(runs)),
        ])
        .pretty()
    }

    #[test]
    fn compare_reports_rows_and_flags_regressions() {
        let base = file(&[("gnet2d-batch", 1000.0, 0.0), ("hnsw32-serve", 500.0, 0.0)]);
        let same = file(&[("gnet2d-batch", 990.0, 0.0), ("hnsw32-serve", 505.0, 0.0)]);
        let (report, regressed) = compare(&base, &same).unwrap();
        assert!(!regressed, "{report}");
        assert_eq!(report.matches(" ok").count(), 4, "{report}");

        let slow = file(&[("gnet2d-batch", 500.0, 0.0), ("hnsw32-serve", 505.0, 0.0)]);
        let (report, regressed) = compare(&base, &slow).unwrap();
        assert!(regressed);
        assert_eq!(report.matches("regressed").count(), 1, "{report}");

        let wrong = file(&[("gnet2d-batch", 1000.0, 3.0)]);
        let (report, regressed) = compare(&base, &wrong).unwrap();
        assert!(regressed && report.contains("failed"), "{report}");

        assert!(compare(&base, "{}").is_err());
        assert!(compare(&base, &file(&[("hnsw128-batch", 1.0, 0.0)])).is_err());
    }

    /// One run of `gnet2d-batch` on `seed` that cost `dists` per query.
    fn counted(seed: f64, dists: f64) -> String {
        let def = |name| END_TO_END.iter().find(|d| d.name == name).unwrap();
        let metrics = [
            ("qps", summary_json(def("qps"), &around(1000.0, 0.01))),
            (
                "dist_comps_per_query",
                summary_json(def("dist_comps_per_query"), &Summary::exact(dists)),
            ),
        ];
        let run = Json::obj([
            ("workload", Json::Str("gnet2d-batch".into())),
            ("seed", num(seed)),
            ("trace", Json::Bool(false)),
            ("failed", num(0.0)),
            ("end_to_end", Json::obj(metrics)),
        ]);
        Json::obj([
            ("schema", Json::Str(SCHEMA.into())),
            ("runs", Json::Arr(vec![run])),
        ])
        .pretty()
    }

    #[test]
    fn counts_are_held_to_their_tight_bound_on_one_seed_only() {
        // 5 % more distance computations: a change in the program when the
        // seed is the same, within the lottery of the data when it is not.
        let (report, regressed) = compare(&counted(7.0, 1000.0), &counted(7.0, 1050.0)).unwrap();
        assert!(regressed, "{report}");
        let (report, regressed) = compare(&counted(7.0, 1000.0), &counted(8.0, 1050.0)).unwrap();
        assert!(!regressed, "{report}");
        let (_, regressed) = compare(&counted(7.0, 1000.0), &counted(7.0, 1000.0)).unwrap();
        assert!(!regressed);
    }

    #[test]
    fn repeated_runs_are_summarised_across_runs() {
        let runs = load_runs(&file(&[
            ("gnet2d-batch", 100.0, 0.0),
            ("gnet2d-batch", 104.0, 0.0),
            ("gnet2d-batch", 96.0, 0.0),
        ]))
        .unwrap();
        let s = summarise(&runs, "gnet2d-batch", "qps").unwrap();
        assert_eq!((s.q1, s.median, s.q3, s.n), (96.0, 100.0, 104.0, 3));
        assert!(summarise(&runs, "gnet2d-batch", "p50_us").is_none());
    }
}
