//! Runs one workload end to end: set-up passes, the correctness gates
//! (before any timer that feeds a metric starts), the timed phases, and —
//! in a traced run — the per-layer ladder of `layers.rs`.
//!
//! Load generation is this one process. Batch workloads time calls into
//! the engine; the served workload runs `clients` closed-loop connections
//! (each caller waits for its reply before sending the next request, so a
//! slow server receives less load).

use std::path::PathBuf;
use std::sync::Barrier;
use std::time::Duration;

use crate::api::{self, BatcherStats, BeamOutcome, Family, FlatPoints, FlatRow, Index};
use crate::catalog::{Shape, Workload, EPSILON};
use crate::layers;
use crate::stats::{self, Summary};
use crate::trace::Tracer;

/// Side of the cube points and cluster centres are drawn from.
const SIDE: f64 = 1000.0;

/// How one `pg_ladder run` was asked to run.
#[derive(Debug, Clone)]
pub struct Opts {
    pub seed: u64,
    /// Length of the timed phases together.
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    /// Pool threads `T` for builds and batch calls.
    pub threads: usize,
    /// Closed-loop client connections `C`.
    pub clients: usize,
    /// Directory for the snapshot file the served workload writes.
    pub scratch: PathBuf,
}

impl Opts {
    /// Fewest throughput rounds a phase reports from.
    pub fn min_rounds(&self) -> usize {
        if self.smoke {
            3
        } else {
            10
        }
    }

    /// Fewest latency samples a phase reports from.
    pub fn min_latency_samples(&self) -> usize {
        if self.smoke {
            200
        } else {
            stats::MIN_LATENCY_SAMPLES
        }
    }

    /// Set-up passes an untraced run takes the median of. A traced run
    /// reports no set-up time and sets up once.
    fn setup_passes(&self) -> usize {
        match (self.trace, self.smoke) {
            (true, _) => 1,
            (false, true) => 2,
            (false, false) => 3,
        }
    }
}

/// Everything one run measured.
#[derive(Debug)]
pub struct Run {
    pub workload: &'static str,
    pub opts: Opts,
    /// Operations whose output was checked: gate queries plus every timed
    /// query or request.
    pub attempted: u64,
    /// Operations that errored, were refused, or answered wrong.
    pub failed: u64,
    /// One line per failed gate.
    pub failures: Vec<String>,
    pub end_to_end: Vec<(&'static str, Summary)>,
    pub per_layer: Vec<(&'static str, Summary)>,
    /// The deepest percentile the latency sample supports, and its value
    /// in µs — a diagnostic without a bound.
    pub tail: Option<(f64, f64)>,
    /// `VmHWM` at the end of the run, in MiB (0 off Linux) — a diagnostic
    /// without a bound: the parallel `G_net` build's peak depends on which
    /// allocator arena each pool thread lands in.
    pub peak_rss_mib: f64,
    /// The span file of a traced run.
    pub trace_json: Option<String>,
}

/// Independent seed streams from the one `--seed` (SplitMix64 finaliser).
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed.wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const POINTS: u64 = 1;
const QUERIES: u64 = 2;
const SHARDS: u64 = 3;

pub fn gen_points(w: &Workload, seed: u64) -> FlatPoints {
    let seed = sub_seed(seed, POINTS);
    match w.shape {
        Shape::Uniform => api::uniform_points(w.n, w.d, SIDE, seed),
        Shape::Clustered => api::cluster_points(w.n, w.d, 64, 600.0, SIDE, seed),
    }
}

fn gen_queries(w: &Workload, points: &FlatPoints, seed: u64) -> Vec<FlatRow> {
    let seed = sub_seed(seed, QUERIES);
    match w.shape {
        Shape::Uniform => api::uniform_queries(w.m, w.d, SIDE, seed),
        Shape::Clustered => api::perturbed_queries(points, w.m, 45.0, seed),
    }
}

pub fn shard_seed(seed: u64) -> u64 {
    sub_seed(seed, SHARDS)
}

/// The span a family's construction call is recorded under.
fn build_span(family: Family) -> &'static str {
    match family {
        Family::GNet { .. } => "gnet.build",
        Family::Hnsw => "baselines.hnsw_build",
        Family::ShardedGNet { .. } => "sharded.build",
    }
}

/// Seconds each part of a set-up pass took.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub total: f64,
    pub gen: f64,
    pub truth: f64,
    pub build: f64,
    pub save: f64,
    pub load: f64,
}

/// A running server and the snapshot file it was loaded from.
pub struct Served {
    pub server: api::Server,
    pub snapshot: PathBuf,
}

/// What a set-up pass leaves behind for the gates and the timed phases.
pub struct Setup {
    pub index: Index,
    pub queries: Vec<FlatRow>,
    pub truth: api::GroundTruth,
    /// The direct engine's answer to every query, computed by the warm-up.
    pub expected: Vec<BeamOutcome>,
    pub served: Option<Served>,
    pub times: SetupTimes,
}

fn set_up(w: &Workload, o: &Opts, tr: &mut Tracer, pass: u64) -> Result<Setup, String> {
    let mut times = SetupTimes::default();
    let (built, total) = tr.timed("setup", pass, |tr| -> Result<_, String> {
        let (points, gen_p) = tr.timed("workloads.gen", pass, |_| gen_points(w, o.seed));
        let (queries, gen_q) = tr.timed("workloads.gen", pass, |_| gen_queries(w, &points, o.seed));
        times.gen = gen_p + gen_q;
        let (truth, truth_s) = tr.timed("eval.truth", pass, |_| {
            api::ground_truth(&points, &queries[..w.truth_queries], w.k)
        });
        times.truth = truth_s;
        let (index, build_s) = tr.timed(build_span(w.family), pass, |_| {
            api::build(w.family, points, shard_seed(o.seed), o.threads)
        });
        times.build = build_s;

        let served = if w.served {
            std::fs::create_dir_all(&o.scratch)
                .map_err(|e| format!("creating {}: {e}", o.scratch.display()))?;
            let snapshot = o
                .scratch
                .join(format!("{}-{}.pgix", w.name, std::process::id()));
            let (saved, save_s) = tr.timed("store.save", pass, |_| index.save(&snapshot));
            saved?;
            times.save = save_s;
            let (server, load_s) = tr.timed("store.load", pass, |_| api::serve(&snapshot, true));
            times.load = load_s;
            Some(Served {
                server: server?,
                snapshot,
            })
        } else {
            None
        };

        // Warm-up: one pass over every query fills caches and yields the
        // direct-engine answers; a served index also sees its first
        // requests here, not in a timed phase.
        let (expected, _) = tr.timed("warmup", pass, |_| index.search(&queries, w.ef, w.k));
        if let Some(s) = &served {
            let mut client = api::connect(api::server_addr(&s.server))?;
            for q in queries.iter().take(200) {
                api::query(&mut client, q, w.ef, w.k).ok_or("a warm-up request failed")?;
            }
        }
        Ok((index, queries, truth, expected, served))
    });
    let (index, queries, truth, expected, served) = built?;
    times.total = total;
    Ok(Setup {
        index,
        queries,
        truth,
        expected,
        served,
        times,
    })
}

/// Checked operations and the gates that failed.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Tally {
    fn gate(&mut self, name: &str, attempted: u64, failed: u64, detail: impl FnOnce() -> String) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            self.failures.push(format!(
                "{name}: {failed} of {attempted} failed ({})",
                detail()
            ));
        }
    }
}

/// The correctness gates. Each feeds `failed` and a non-zero exit.
fn gates(w: &Workload, o: &Opts, s: &Setup, tr: &mut Tracer) -> Result<(Tally, f64), String> {
    let mut tally = Tally::default();
    let scored = &s.queries[..w.truth_queries];

    // 1. Recall floor.
    let recall = api::mean_recall(&s.truth, &s.expected);
    tally.gate(
        "recall floor",
        1,
        u64::from(recall < w.recall_floor),
        || format!("recall@{} {recall:.4} < {}", w.k, w.recall_floor),
    );

    // 2. Theorem 1.1: greedy on G_net returns a (1+eps)-ANN every time.
    if matches!(w.family, Family::GNet { .. } | Family::ShardedGNet { .. }) {
        let (answers, _) = tr.timed("gate.greedy", 0, |_| s.index.greedy(scored));
        let worst = worst_ratio(&s.truth, &answers);
        let bad = answers
            .iter()
            .enumerate()
            .filter(|(q, a)| a.dist > (1.0 + EPSILON) * api::nearest_dist(&s.truth, *q))
            .count();
        tally.gate("(1+eps) greedy", answers.len() as u64, bad as u64, || {
            format!("worst ratio {worst:.4} > {}", 1.0 + EPSILON)
        });
    }

    // 3. A sharded query's cost is the sum of its shards' costs.
    if s.index.part_count() > 1 {
        let (bad, _) = tr.timed("gate.shard_sum", 0, |_| {
            scored
                .iter()
                .zip(&s.expected)
                .filter(|(q, want)| {
                    let (mut dists, mut expansions) = (0, 0);
                    for part in 0..s.index.part_count() {
                        let out = s.index.beam_part(part, q, w.ef, w.k);
                        dists += out.dist_comps;
                        expansions += out.expansions;
                    }
                    (dists, expansions) != (want.dist_comps, want.expansions)
                })
                .count()
        });
        tally.gate("shard cost sum", scored.len() as u64, bad as u64, || {
            "sharded dist_comps/expansions differ from the sum over shards()".into()
        });
    }

    // 4. Served replies are bit-identical to direct engine calls, one
    //    connection at a time and coalesced.
    if let Some(served) = &s.served {
        let addr = api::server_addr(&served.server);
        for (name, clients) in [("served == direct", 1), ("coalesced == direct", o.clients)] {
            let (checked, _) = tr.timed("gate.served", clients as u64, |_| {
                std::thread::scope(|scope| {
                    let handles: Vec<_> = (0..clients)
                        .map(|_| {
                            scope.spawn(|| -> Result<u64, String> {
                                let mut client = api::connect(addr)?;
                                Ok(s.queries
                                    .iter()
                                    .zip(&s.expected)
                                    .filter(|(q, want)| {
                                        !api::query(&mut client, q, w.ef, w.k)
                                            .is_some_and(|r| api::reply_matches(&r, want))
                                    })
                                    .count() as u64)
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("a gate client panicked"))
                        .sum::<Result<u64, String>>()
                })
            });
            let asked = (clients * s.queries.len()) as u64;
            tally.gate(name, asked, checked?, || {
                "a reply differs from the direct engine answer".into()
            });
        }
    }
    Ok((tally, recall))
}

/// Mean `dist_comps` per query — the paper's own query-cost unit.
pub fn mean_dist_comps(outcomes: &[BeamOutcome]) -> f64 {
    outcomes.iter().map(|o| o.dist_comps).sum::<u64>() as f64 / outcomes.len() as f64
}

/// Largest `greedy distance / exact nearest distance` over the scored
/// queries (1 when both are 0).
pub fn worst_ratio(truth: &api::GroundTruth, answers: &[api::GreedyAnswer]) -> f64 {
    answers
        .iter()
        .enumerate()
        .map(|(q, a)| match api::nearest_dist(truth, q) {
            0.0 if a.dist == 0.0 => 1.0,
            nearest => a.dist / nearest,
        })
        .fold(0.0, f64::max)
}

/// What the timed phases of one workload produced.
#[derive(Debug, Clone)]
pub struct Phases {
    pub qps: Summary,
    pub p50_us: Summary,
    pub p99_us: Summary,
    pub tail: Option<(f64, f64)>,
    pub attempted: u64,
    pub wrong: u64,
    /// Batcher counters over the closed loop (served workloads).
    pub batcher: Option<BatcherStats>,
}

/// The deepest supported percentile of all latency samples, in µs.
fn tail_of(streams: &[Vec<f64>]) -> Option<(f64, f64)> {
    let mut all: Vec<f64> = streams.iter().flatten().copied().collect();
    all.sort_by(f64::total_cmp);
    let p = stats::deepest_tail(all.len())?;
    Some((p, stats::percentile(&all, p) * 1e6))
}

/// Batch workloads: throughput rounds at `T` threads, then one thread
/// asking one query at a time; each phase gets half of `seconds`.
fn batch_phases(w: &Workload, o: &Opts, s: &Setup, tr: &mut Tracer, seconds: f64) -> Phases {
    let half = Duration::from_secs_f64(seconds / 2.0);
    let (rounds, wrong_rounds) = tr.sample(
        "phase.throughput",
        "engine.batch",
        1,
        half,
        o.min_rounds(),
        |_| s.index.search(&s.queries, w.ef, w.k) == s.expected,
    );
    let (singles, wrong_singles) = tr.sample(
        "phase.latency",
        "engine.single",
        s.queries.len().min(200),
        half,
        o.min_latency_samples(),
        |i| {
            let j = i % s.queries.len();
            s.index.search(&s.queries[j..=j], w.ef, w.k)[0] == s.expected[j]
        },
    );
    let attempted = (rounds.len() * s.queries.len() + singles.len()) as u64;
    let streams = [singles];
    Phases {
        qps: Summary::of(&rounds).rate(s.queries.len() as f64),
        p50_us: stats::windowed(&streams, 0.5).scaled(1e6),
        p99_us: stats::windowed(&streams, 0.99).scaled(1e6),
        tail: tail_of(&streams),
        attempted,
        wrong: wrong_rounds * s.queries.len() as u64 + wrong_singles,
        batcher: None,
    }
}

/// The shape of one closed-loop phase.
#[derive(Debug, Clone, Copy)]
pub struct Load {
    /// Span the phase is recorded under.
    pub phase: &'static str,
    pub clients: usize,
    pub budget: Duration,
    /// Fewest requests the phase reports from, over all clients.
    pub min_samples: usize,
}

/// One closed-loop phase against `server`: `load.clients` connections,
/// each sending its next request when the previous reply has been checked.
pub fn closed_loop(
    w: &Workload,
    s: &Setup,
    server: &api::Server,
    tr: &mut Tracer,
    load: Load,
) -> Result<Phases, String> {
    let Load {
        phase,
        clients,
        budget,
        min_samples,
    } = load;
    let addr = api::server_addr(server);
    let before = api::batcher_stats(server);
    let start = Barrier::new(clients + 1);
    let per_client = min_samples.div_ceil(clients);
    let (joined, _) = tr.timed(phase, clients as u64, |tr| {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|c| {
                    let mut tr = tr.fork();
                    let start = &start;
                    scope.spawn(move || {
                        // Offset each client's schedule so the wire never
                        // sees every client asking the same question.
                        let shift = c * s.queries.len() / clients;
                        let mut connected = api::connect(addr);
                        if let Ok(client) = &mut connected {
                            for q in s.queries.iter().cycle().skip(shift).take(50) {
                                api::query(client, q, w.ef, w.k);
                            }
                        }
                        // Every client reaches the barrier, connected or
                        // not, so a refused connection cannot hang the run.
                        start.wait();
                        let mut client = connected?;
                        let (samples, wrong) = tr.sample(
                            "serve.client",
                            "serve.request",
                            0,
                            budget,
                            per_client,
                            |i| {
                                let j = (i + shift) % s.queries.len();
                                api::query(&mut client, &s.queries[j], w.ef, w.k)
                                    .is_some_and(|r| api::reply_matches(&r, &s.expected[j]))
                            },
                        );
                        Ok::<_, String>((samples, wrong, tr))
                    })
                })
                .collect();
            // The wall clock of the load starts when the clients do: thread
            // spawn, connect and their untimed warm-up are behind the barrier.
            start.wait();
            let (outcome, wall) = tr.timed("serve.load", clients as u64, |tr| {
                let joined: Vec<_> = handles
                    .into_iter()
                    .map(|h| h.join().expect("a load client panicked"))
                    .collect();
                let mut streams = Vec::with_capacity(clients);
                let mut wrong = 0;
                for client in joined {
                    let (samples, w, child) = client?;
                    streams.push(samples);
                    wrong += w;
                    tr.adopt(child);
                }
                Ok::<_, String>((streams, wrong))
            });
            let (streams, wrong) = outcome?;
            Ok::<_, String>((streams, wrong, wall))
        })
    });
    let (streams, wrong, wall) = joined?;
    let after = api::batcher_stats(server);
    let attempted: usize = streams.iter().map(Vec::len).sum();
    Ok(Phases {
        qps: Summary::exact(attempted as f64 / wall),
        p50_us: stats::windowed(&streams, 0.5).scaled(1e6),
        p99_us: stats::windowed(&streams, 0.99).scaled(1e6),
        tail: tail_of(&streams),
        attempted: attempted as u64,
        wrong,
        batcher: Some(BatcherStats {
            requests: after.requests - before.requests,
            batches: after.batches - before.batches,
            coalesced_batches: after.coalesced_batches - before.coalesced_batches,
            shed: after.shed - before.shed,
            ..after
        }),
    })
}

fn phases(
    w: &Workload,
    o: &Opts,
    s: &Setup,
    tr: &mut Tracer,
    seconds: f64,
) -> Result<Phases, String> {
    match &s.served {
        None => Ok(batch_phases(w, o, s, tr, seconds)),
        Some(served) => closed_loop(
            w,
            s,
            &served.server,
            tr,
            Load {
                phase: "phase.closed_loop",
                clients: o.clients,
                budget: Duration::from_secs_f64(seconds),
                min_samples: o.min_latency_samples(),
            },
        ),
    }
}

/// `VmHWM` of this process in MiB; 0 where `/proc` does not exist.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Runs workload `w` once. `Err` is a harness failure (cannot bind,
/// connect or write); wrong answers are counted in the returned [`Run`].
pub fn run(w: &Workload, o: &Opts) -> Result<Run, String> {
    api::set_pool_threads(o.threads);
    let mut tr = Tracer::new(o.trace);

    // Set-up passes: all but the last are dropped before the next starts,
    // so peak memory is one index, not several.
    let passes = o.setup_passes();
    let mut setup_s = Vec::with_capacity(passes);
    let mut build_s = Vec::with_capacity(passes);
    let mut setup = None;
    for pass in 0..passes {
        drop(setup.take());
        let s = set_up(w, o, &mut tr, pass as u64)?;
        setup_s.push(s.times.total);
        build_s.push(s.times.build);
        setup = Some(s);
    }
    let s = setup.expect("at least one set-up pass");

    let (tally, recall) = gates(w, o, &s, &mut tr)?;

    // A traced run times the phases twice — recording off, then on — for
    // the tracing overhead; end-to-end figures always come from the
    // half with recording off.
    let (e2e, traced) = if o.trace {
        tr.set_recording(false);
        let plain = phases(w, o, &s, &mut tr, o.seconds / 2.0)?;
        tr.set_recording(true);
        let traced = phases(w, o, &s, &mut tr, o.seconds / 2.0)?;
        (plain, Some(traced))
    } else {
        (phases(w, o, &s, &mut tr, o.seconds)?, None)
    };

    let timed_ops = e2e.attempted + traced.as_ref().map_or(0, |t| t.attempted);
    let timed_wrong = e2e.wrong + traced.as_ref().map_or(0, |t| t.wrong);
    let mut failures = tally.failures;
    if timed_wrong > 0 {
        failures.push(format!(
            "timed phases: {timed_wrong} of {timed_ops} answers differ from the direct engine answer"
        ));
    }

    let mean_dists = mean_dist_comps(&s.expected);
    let bytes_per_point = s.index.computed_bytes() as f64 / s.index.n() as f64;
    let snapshot = s.served.as_ref().map(|served| served.snapshot.clone());

    let per_layer = match traced {
        Some(traced) => layers::measure(w, o, &mut tr, s, &e2e, &traced)?,
        None => {
            drop(s);
            Vec::new()
        }
    };
    if let Some(path) = snapshot {
        let _ = std::fs::remove_file(path);
    }

    let end_to_end = vec![
        ("setup_s", Summary::of(&setup_s)),
        ("build_s", Summary::of(&build_s)),
        ("qps", e2e.qps),
        ("p50_us", e2e.p50_us),
        ("p99_us", e2e.p99_us),
        ("recall_at_10", Summary::exact(recall)),
        ("dist_comps_per_query", Summary::exact(mean_dists)),
        ("index_bytes_per_point", Summary::exact(bytes_per_point)),
    ];
    Ok(Run {
        workload: w.name,
        opts: o.clone(),
        attempted: tally.attempted + timed_ops,
        failed: tally.failed + timed_wrong,
        failures,
        end_to_end,
        per_layer,
        tail: e2e.tail,
        peak_rss_mib: peak_rss_mib(),
        trace_json: o.trace.then(|| tr.to_json()),
    })
}
