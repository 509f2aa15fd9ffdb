//! `pg_ladder` — the repository's one benchmark: four workloads, the same
//! end-to-end metrics on each, and a per-layer ladder from distance kernel
//! to socket. See `README.md` in this directory and `BENCHMARK.json` at
//! the repository root.
//!
//! ```text
//! pg_ladder run --workload <name> --seed <u64> [--seconds S] [--trace [0|1]]
//!               [--smoke] [--out FILE]
//! pg_ladder compare BASE.json NEW.json
//! ```
//!
//! `run` prints every metric by name with its unit, then — as the last
//! line of standard output — one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`; it exits 1 when a correctness gate fails.
//! `compare` exits 1 when any row regressed.

#![forbid(unsafe_code)]

mod api;
mod catalog;
mod json;
mod ladder;
mod layers;
mod report;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use catalog::{Workload, WORKLOADS};
use ladder::Opts;

/// Seconds the timed phases of a run last unless `--seconds` says
/// otherwise; `BENCHMARK.json`'s `run_seconds` is the same number.
const DEFAULT_SECONDS: f64 = 10.0;

const USAGE: &str = "usage:
  pg_ladder run --workload <name> --seed <u64> [--seconds S] [--trace [0|1]] [--smoke] [--out FILE]
  pg_ladder compare BASE.json NEW.json";

/// Where results and the served workload's snapshot go unless `--out` names
/// a file: `pg_ladder/` under cargo's target directory (`CARGO_TARGET_DIR`,
/// or `target`), taken relative to the working directory as cargo takes it
/// — never the repository root.
fn scratch_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    PathBuf::from(target).join("pg_ladder")
}

/// Pool threads `T` and client connections `C`: `min(nproc, 4)`.
fn default_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(4))
}

struct RunArgs {
    workload: &'static Workload,
    opts: Opts,
    out: Option<PathBuf>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut smoke = false;
    let mut out = None;
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                workload = Some(Workload::by_name(&name).ok_or_else(|| {
                    let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {name:?}; one of {}", known.join(", "))
                })?);
            }
            "--seed" => {
                let v = value("--seed")?;
                seed = Some(
                    v.parse::<u64>()
                        .map_err(|_| format!("--seed {v:?} is not a u64"))?,
                );
            }
            "--seconds" => {
                let v = value("--seconds")?;
                let s = v.parse::<f64>().ok().filter(|s| s.is_finite() && *s > 0.0);
                seconds =
                    Some(s.ok_or_else(|| format!("--seconds {v:?} is not a positive number"))?);
            }
            "--out" => out = Some(PathBuf::from(value("--out")?)),
            "--smoke" => smoke = true,
            // A bare flag, or the driver's `--trace 0` / `--trace 1`.
            "--trace" => {
                trace = match it.next_if(|v| matches!(v.as_str(), "0" | "1")) {
                    Some(v) => v == "1",
                    None => true,
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let parallelism = default_parallelism();
    Ok(RunArgs {
        workload: workload.ok_or("--workload is required")?,
        opts: Opts {
            seed: seed.ok_or("--seed is required")?,
            // A smoke run is bounded by its sample floors, not the clock.
            seconds: seconds.unwrap_or(if smoke { 0.05 } else { DEFAULT_SECONDS }),
            trace,
            smoke,
            threads: parallelism,
            clients: parallelism,
            scratch: scratch_dir(),
        },
        out,
    })
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let RunArgs {
        workload,
        opts,
        out,
    } = parse_run(args)?;
    let workload = if opts.smoke {
        workload.smoke()
    } else {
        *workload
    };
    let result = ladder::run(&workload, &opts)?;

    let suffix = if opts.trace { "-trace" } else { "" };
    let out = out.unwrap_or_else(|| opts.scratch.join(format!("{}{suffix}.json", workload.name)));
    report::append(&out, &result)?;
    if let Some(spans) = &result.trace_json {
        let path = PathBuf::from(format!("{}.trace.json", out.display()));
        std::fs::write(&path, spans).map_err(|e| format!("writing {}: {e}", path.display()))?;
    }

    print!("{}", report::table(&result));
    println!("result file: {}", out.display());
    println!("{}", report::result_line(&result));
    Ok(if result.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn compare(args: &[String]) -> Result<ExitCode, String> {
    let [base, new] = args else {
        return Err("compare takes exactly two result files".into());
    };
    let read = |p: &String| std::fs::read_to_string(p).map_err(|e| format!("reading {p}: {e}"));
    let (table, regressed) = report::compare(&read(base)?, &read(new)?)?;
    print!("{table}");
    Ok(if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => run(rest),
        Some((cmd, rest)) if cmd == "compare" => compare(rest),
        _ => Err(USAGE.into()),
    };
    outcome.unwrap_or_else(|message| {
        eprintln!("pg_ladder: {message}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{MetricDef, END_TO_END, PER_LAYER};
    use crate::json::Json;

    fn args(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn the_driver_command_line_parses() {
        let a = parse_run(&args(&[
            "--workload",
            "hnsw32-serve",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "0",
        ]))
        .unwrap();
        assert_eq!(
            (a.workload.name, a.opts.seed, a.opts.seconds),
            ("hnsw32-serve", 7, 3.0)
        );
        assert!(!a.opts.trace && !a.opts.smoke && a.out.is_none());
        let a = parse_run(&args(&[
            "--trace",
            "1",
            "--workload",
            "gnet2d-batch",
            "--seed",
            "1",
        ]))
        .unwrap();
        assert!(a.opts.trace);
        assert_eq!(a.opts.seconds, DEFAULT_SECONDS);
        // The bare flag, followed by another flag.
        let a = parse_run(&args(&[
            "--workload",
            "gnet2d-batch",
            "--seed",
            "1",
            "--trace",
            "--smoke",
        ]))
        .unwrap();
        assert!(a.opts.trace && a.opts.smoke);
        for bad in [
            &["--workload", "nope", "--seed", "1"][..],
            &["--workload", "gnet2d-batch"],
            &["--seed", "1"],
            &["--workload", "gnet2d-batch", "--seed", "-1"],
            &[
                "--workload",
                "gnet2d-batch",
                "--seed",
                "1",
                "--seconds",
                "0",
            ],
            &["--workload", "gnet2d-batch", "--seed", "1", "--frobnicate"],
        ] {
            assert!(parse_run(&args(bad)).is_err(), "{bad:?} parsed");
        }
    }

    /// `BENCHMARK.json`, found by walking up from this package: the bin
    /// builds both inside `pg_bench` and as the standalone package here.
    fn benchmark_json() -> Json {
        let mut dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        loop {
            let candidate = dir.join("BENCHMARK.json");
            if candidate.is_file() {
                let text = std::fs::read_to_string(&candidate).unwrap();
                return json::parse(&text).expect("BENCHMARK.json parses");
            }
            assert!(
                dir.pop(),
                "no BENCHMARK.json above {}",
                env!("CARGO_MANIFEST_DIR")
            );
        }
    }

    fn declared(defs: &[MetricDef], with_bound: bool) -> Vec<Json> {
        defs.iter()
            .map(|d| {
                let mut pairs = vec![
                    ("name", Json::Str(d.name.into())),
                    ("unit", Json::Str(d.unit.into())),
                    ("better", Json::Str(d.better.as_str().into())),
                ];
                if with_bound {
                    pairs.push(("bound", Json::Num(d.bound)));
                }
                Json::obj(pairs)
            })
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_what_the_catalog_does() {
        let b = benchmark_json();
        assert_eq!(
            b.get("end_to_end").unwrap().as_arr(),
            declared(END_TO_END, true)
        );
        assert_eq!(
            b.get("per_layer").unwrap().as_arr(),
            declared(PER_LAYER, false)
        );
        let workloads: Vec<Json> = WORKLOADS
            .iter()
            .map(|w| {
                Json::obj([
                    ("name", Json::Str(w.name.into())),
                    ("why", Json::Str(w.why.into())),
                ])
            })
            .collect();
        assert_eq!(b.get("workloads").unwrap().as_arr(), workloads);
        assert_eq!(
            b.get("run_seconds").and_then(Json::as_f64),
            Some(DEFAULT_SECONDS)
        );
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
        for d in END_TO_END {
            assert!(
                d.bound > 0.0 && d.bound <= 0.25,
                "{} bound {}",
                d.name,
                d.bound
            );
        }
    }

    /// This directory is also a package of its own (`Cargo.toml` here, which
    /// `BENCHMARK.json`'s command builds) with a hand-written dependency
    /// list; the `pg_bench` build that runs this test cannot see it go stale.
    #[test]
    fn the_standalone_manifest_names_every_crate_api_rs_calls() {
        let manifest = include_str!("Cargo.toml");
        let code = include_str!("api.rs")
            .lines()
            .filter(|line| !line.trim_start().starts_with("//"));
        for line in code {
            let mut paths: Vec<&str> = line.split("::").collect();
            paths.pop();
            for head in paths {
                let name = head
                    .rsplit(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
                    .next()
                    .unwrap_or_default();
                if name.starts_with("pg_") || name == "rayon" {
                    assert!(
                        manifest.contains(&format!("\n{name} = ")),
                        "api.rs calls {name}, which pg_ladder/Cargo.toml does not list"
                    );
                }
            }
        }
    }

    /// Rot protection inside tier-1: every workload, traced and untraced,
    /// at smoke size; every gate must pass, and the result line must carry
    /// exactly the declared metric names.
    #[test]
    fn all_workloads_smoke_traced_and_untraced() {
        // Not under the target directory, where a `pg_ladder` beside this
        // test executable's directory is the benchmark executable itself.
        let scratch = std::env::temp_dir().join(format!("pg_ladder-smoke-{}", std::process::id()));
        let mut layers_seen = Vec::new();
        for w in WORKLOADS {
            let mut seen_layers = Vec::new();
            for trace in [false, true] {
                let opts = Opts {
                    seed: 11,
                    seconds: 0.05,
                    trace,
                    smoke: true,
                    threads: 2,
                    clients: 2,
                    scratch: scratch.clone(),
                };
                let run = ladder::run(&w.smoke(), &opts).unwrap();
                assert_eq!(
                    run.failures,
                    Vec::<String>::new(),
                    "{} trace={trace}",
                    w.name
                );
                assert_eq!(run.failed, 0);
                assert!(run.attempted > 0);

                let line = json::parse(&report::result_line(&run)).unwrap();
                let keys: Vec<&str> = line.entries().iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
                assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
                let want = if trace { PER_LAYER } else { END_TO_END };
                let emitted = line.get("metrics").unwrap().entries();
                assert_eq!(
                    emitted.iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>(),
                    want.iter().map(|d| d.name).collect::<Vec<_>>()
                );
                for ((name, entry), def) in emitted.iter().zip(want) {
                    assert!(
                        name.bytes()
                            .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b)),
                        "{name}"
                    );
                    assert_eq!(entry.get("unit").and_then(Json::as_str), Some(def.unit));
                    let value = entry.get("value").and_then(Json::as_f64);
                    assert!(value.is_some_and(f64::is_finite), "{name} = {value:?}");
                }
                if trace {
                    assert!(run
                        .trace_json
                        .as_deref()
                        .is_some_and(|t| json::parse(t).is_ok()));
                    seen_layers = run.per_layer.iter().map(|(name, _)| *name).collect();
                } else {
                    assert_eq!(
                        run.end_to_end.iter().map(|(n, _)| *n).collect::<Vec<_>>(),
                        END_TO_END.iter().map(|d| d.name).collect::<Vec<_>>()
                    );
                    for (name, s) in &run.end_to_end {
                        assert!(s.median > 0.0, "{name} is 0");
                    }
                    // The stored form round-trips through `compare`.
                    let file = scratch.join(format!("{}.json", w.name));
                    let _ = std::fs::remove_file(&file);
                    report::append(&file, &run).unwrap();
                    report::append(&file, &run).unwrap();
                    let text = std::fs::read_to_string(&file).unwrap();
                    let (table, regressed) = report::compare(&text, &text).unwrap();
                    assert!(!regressed, "{table}");
                }
            }
            // Every layer on this workload's path reported; the ladder as a
            // whole is covered by the union over workloads (below).
            assert!(seen_layers.contains(&"search.beam_us"), "{}", w.name);
            layers_seen.extend(seen_layers);
        }
        for def in PER_LAYER {
            assert!(
                layers_seen.contains(&def.name),
                "{} was measured on no workload",
                def.name
            );
        }
        let _ = std::fs::remove_dir_all(&scratch);
    }
}
