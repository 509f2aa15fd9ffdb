//! The per-layer ladder of a traced run, distance kernel to socket.
//!
//! Every number here is measured **from outside**, by timing calls into
//! public functions of the `pg_*` crates (through `api.rs`) with span
//! recording on. A layer that is not on a workload's path is not measured
//! there. `catalog::PER_LAYER` says which end-to-end metric each of these
//! should move; the README holds the same table with its predictions.

use std::hint::black_box;
use std::time::Duration;

use crate::api::{self, Family, QuantKind};
use crate::catalog::{Workload, PER_LAYER};
use crate::ladder::{self, Load, Opts, Phases, Setup};
use crate::stats::{self, Summary};
use crate::trace::Tracer;

const KERNEL_IDS: u64 = 4;
const FLOOR_QUERIES: u64 = 5;

/// The ladder under construction: `(metric name, summary)` rows.
struct Rows(Vec<(&'static str, Summary)>);

impl Rows {
    fn put(&mut self, name: &'static str, summary: Summary) {
        debug_assert!(
            PER_LAYER.iter().any(|m| m.name == name),
            "{name} is not a declared per-layer metric"
        );
        self.0.push((name, summary));
    }

    fn exact(&mut self, name: &'static str, value: f64) {
        self.put(name, Summary::exact(value));
    }

    fn median(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, s)| s.median)
    }
}

/// `count` ids below `n` from a SplitMix64 stream.
fn random_ids(count: usize, n: usize, seed: u64) -> Vec<u32> {
    (0..count as u64)
        .map(|i| (ladder::sub_seed(seed, i) % n as u64) as u32)
        .collect()
}

/// Times `blocks` calls of `f(block)` under span `name`, after one
/// discarded call, and returns the per-operation summary in ns.
fn time_blocks(
    tr: &mut Tracer,
    name: &'static str,
    blocks: usize,
    ops_per_block: usize,
    mut f: impl FnMut(usize),
) -> Summary {
    f(0);
    let samples: Vec<f64> = (0..blocks)
        .map(|b| tr.time(name, b as u64, || f(b + 1)))
        .collect();
    Summary::of(&samples).scaled(1e9 / ops_per_block as f64)
}

/// Measures every layer on `w`'s path. `plain` and `traced` are the timed
/// phases with span recording off and on.
pub fn measure(
    w: &Workload,
    o: &Opts,
    tr: &mut Tracer,
    s: Setup,
    plain: &Phases,
    traced: &Phases,
) -> Result<Vec<(&'static str, Summary)>, String> {
    let mut rows = Rows(Vec::new());
    let m = s.queries.len();
    let n = s.index.n() as f64;
    let mean_dists = ladder::mean_dist_comps(&s.expected);
    let mean_expansions = s.expected.iter().map(|o| o.expansions).sum::<u64>() as f64 / m as f64;

    rows.exact("workloads.gen_s", s.times.gen);
    rows.exact("eval.truth_s", s.times.truth);
    rows.exact(
        "trace.overhead_frac",
        (traced.qps.median - plain.qps.median) / plain.qps.median,
    );

    // The direct walks come before anything that builds another index, so
    // they run in the allocator and cache state the timed phases ran in.
    kernels(o, tr, &s, &mut rows)?;
    let beam_mean_ns = search(w, o, tr, &s, &mut rows)?;
    rows.exact("search.expansions_per_query", mean_expansions);
    rows.exact("search.ns_per_dist", beam_mean_ns / mean_dists);
    rows.exact(
        "search.nondist_frac",
        1.0 - mean_dists * rows.median("metric.l2sq_rand_ns") / beam_mean_ns,
    );
    floor(o, tr, &mut rows);
    construction(w, o, tr, &s, &mut rows);

    if let Some(served) = &s.served {
        let bytes = std::fs::metadata(&served.snapshot).map_or(0, |meta| meta.len());
        rows.exact("store.save_s", s.times.save);
        rows.exact("store.load_s", s.times.load);
        rows.exact("store.bytes_per_point", bytes as f64 / n);
        wire(w, o, tr, &s, traced, &mut rows)?;
        return Ok(rows.0);
    }

    // Engine, pool and merge: the same batch calls at one thread.
    let Setup {
        index,
        queries,
        expected,
        ..
    } = s;
    let index = index.with_threads(1);
    let (rounds, _) = tr.sample(
        "engine.rounds_t1",
        "engine.batch_t1",
        1,
        Duration::from_secs_f64(o.seconds / 6.0),
        o.min_rounds() / 2,
        |_| index.search(&queries, w.ef, w.k) == expected,
    );
    let qps_t1 = Summary::of(&rounds).rate(m as f64);
    rows.put("engine.qps_t1", qps_t1);
    rows.exact(
        "engine.scaling_eff",
        plain.qps.median / (o.threads as f64 * qps_t1.median),
    );
    let beam_us = rows.median("search.beam_us");
    rows.exact("engine.single_overhead_us", plain.p50_us.median - beam_us);
    if index.part_count() > 1 {
        let (singles, _) = tr.sample(
            "sharded.singles_t1",
            "sharded.single_t1",
            m.min(200),
            Duration::ZERO,
            o.min_latency_samples() / 10,
            |i| index.search(&queries[i % m..=i % m], w.ef, w.k) == expected[i % m..=i % m],
        );
        rows.exact("sharded.dists_per_query", mean_dists);
        rows.exact(
            "sharded.merge_overhead_us",
            Summary::of(&singles).median * 1e6 - beam_us,
        );
    }
    Ok(rows.0)
}

/// `metric.*`: the distance kernels as the walks call them, over ids in
/// order (cache-resident after the first block) and over fresh random ids
/// every block (what a walk's scattered accesses pay).
fn kernels(o: &Opts, tr: &mut Tracer, s: &Setup, rows: &mut Rows) -> Result<(), String> {
    let (blocks, len) = if o.smoke { (8, 256) } else { (100, 4096) };
    let points = s.index.kernel_points();
    let len = len.min(points);
    let sequential: Vec<u32> = (0..len as u32).collect();
    let random = random_ids(
        (blocks + 1) * len,
        points,
        ladder::sub_seed(o.seed, KERNEL_IDS),
    );
    let q = |b: usize| &s.queries[b % s.queries.len()];
    let ids = |b: usize| &random[b * len..(b + 1) * len];

    let seq = time_blocks(tr, "metric.l2sq_seq", blocks, len, |b| {
        black_box(s.index.surrogate_sum(&sequential, q(b)));
    });
    rows.put("metric.l2sq_seq_ns", seq);
    let rand = time_blocks(tr, "metric.l2sq_rand", blocks, len, |b| {
        black_box(s.index.surrogate_sum(ids(b), q(b)));
    });
    rows.put("metric.l2sq_rand_ns", rand);
    for (kind, span, metric) in [
        (QuantKind::F32, "metric.f32_rand", "metric.f32_rand_ns"),
        (QuantKind::Sq8, "metric.sq8_rand", "metric.sq8_rand_ns"),
    ] {
        let compact = s.index.quantize(kind)?;
        let t = time_blocks(tr, span, blocks, len, |b| {
            black_box(api::compact_surrogate_sum(&compact, ids(b), q(b)));
        });
        rows.put(metric, t);
    }
    Ok(())
}

/// `gnet.*` / `baselines.*`: what the construction call is made of.
fn construction(w: &Workload, o: &Opts, tr: &mut Tracer, s: &Setup, rows: &mut Rows) {
    let n = s.index.n() as f64;
    let edges_per_point = s.index.edges() as f64 / n;
    if w.family == Family::Hnsw {
        rows.exact("baselines.hnsw_build_s", s.times.build);
        rows.exact("baselines.hnsw_edges_per_point", edges_per_point);
        return;
    }
    rows.exact("gnet.edges_per_point", edges_per_point);
    let (levels, hierarchy_s) = tr.timed("gnet.hierarchy", 0, |_| s.index.build_hierarchies());
    rows.exact("gnet.hierarchy_s", hierarchy_s);
    rows.exact("gnet.levels", levels as f64);
    let shard_seed = ladder::shard_seed(o.seed);
    let (dists, _) = tr.timed("gnet.build_counting", 0, |_| {
        api::gnet_build_dist_comps(w.family, ladder::gen_points(w, o.seed), shard_seed)
    });
    rows.exact("gnet.build_dists_per_point", dists as f64 / n);
    let points = ladder::gen_points(w, o.seed);
    let (_, build_t1) = tr.timed("gnet.build_t1", 0, |_| {
        api::single_threaded(|| api::build(w.family, points, shard_seed, 1))
    });
    rows.exact("gnet.build_speedup", build_t1 / s.times.build);
}

/// `search.*` (and `sharded.shard_skew`): the walks called directly, one
/// thread, no engine. Returns the mean direct beam time per query in ns.
fn search(
    w: &Workload,
    o: &Opts,
    tr: &mut Tracer,
    s: &Setup,
    rows: &mut Rows,
) -> Result<f64, String> {
    let m = s.queries.len();
    let parts = s.index.part_count();
    let passes = if o.smoke { 1 } else { 2 };

    // One "search.beam" span per query, one "search.beam_part" child per
    // part: on a sharded index their sum is the search a query pays for
    // before fan-out and merge.
    let mut beams = Vec::with_capacity(passes * m);
    let mut skews = Vec::with_capacity(passes * m);
    for i in 0..passes * m {
        let q = &s.queries[i % m];
        let (part_times, total) = tr.timed("search.beam", i as u64, |tr| {
            (0..parts)
                .map(|part| {
                    tr.time("search.beam_part", i as u64, || {
                        black_box(s.index.beam_part(part, q, w.ef, w.k));
                    })
                })
                .collect::<Vec<f64>>()
        });
        beams.push(total);
        let mean = part_times.iter().sum::<f64>() / parts as f64;
        skews.push(part_times.iter().copied().fold(0.0, f64::max) / mean);
    }
    rows.put("search.beam_us", Summary::of(&beams).scaled(1e6));
    if parts > 1 {
        rows.put("sharded.shard_skew", Summary::of(&skews));
    }

    if w.family != Family::Hnsw {
        let greedy: Vec<f64> = (0..m)
            .map(|i| {
                tr.time("search.greedy", i as u64, || {
                    black_box(s.index.greedy(&s.queries[i..=i]));
                })
            })
            .collect();
        let answers = s.index.greedy(&s.queries);
        let dists = answers.iter().map(|a| a.dist_comps).sum::<u64>() as f64 / m as f64;
        rows.put("search.greedy_us", Summary::of(&greedy).scaled(1e6));
        rows.exact("search.greedy_dists_per_query", dists);
        rows.exact(
            "search.greedy_worst_ratio",
            ladder::worst_ratio(&s.truth, &answers[..w.truth_queries]),
        );
    }

    if parts == 1 {
        for (kind, span, us, recall) in [
            (
                QuantKind::F32,
                "search.quant_f32",
                "search.quant_f32_us",
                "search.quant_f32_recall",
            ),
            (
                QuantKind::Sq8,
                "search.quant_sq8",
                "search.quant_sq8_us",
                "search.quant_sq8_recall",
            ),
        ] {
            let compact = s.index.quantize(kind)?;
            let mut outcomes = Vec::with_capacity(m);
            let times: Vec<f64> = (0..m)
                .map(|i| {
                    let (out, secs) = tr.timed(span, i as u64, |_| {
                        s.index
                            .search_quantized(&compact, &s.queries[i..=i], w.ef, w.k)
                    });
                    outcomes.extend(out.into_iter().flatten());
                    secs
                })
                .collect();
            rows.put(us, Summary::of(&times).scaled(1e6));
            rows.exact(recall, api::mean_recall(&s.truth, &outcomes));
        }
    }
    Ok(beams.iter().sum::<f64>() / beams.len() as f64 * 1e9)
}

/// `search.floor_*`: the same 64-vertex ring walk inside an `n`-vertex
/// graph at two `n`; the difference is the per-query `O(n)` term.
fn floor(o: &Opts, tr: &mut Tracer, rows: &mut Rows) {
    let (samples, scale) = if o.smoke { (100, 50) } else { (2_000, 1) };
    let queries = api::floor_queries(256, ladder::sub_seed(o.seed, FLOOR_QUERIES));
    for (n, span, metric) in [
        (100_000, "search.floor_n1e5", "search.floor_us_n1e5"),
        (2_000_000, "search.floor_n2e6", "search.floor_us_n2e6"),
    ] {
        let index = api::floor_index(n / scale);
        let walk = |i: usize| {
            black_box(index.beam_part(0, &queries[i % queries.len()], 8, 1));
        };
        for i in 0..queries.len() {
            walk(i);
        }
        let times: Vec<f64> = (0..samples)
            .map(|i| tr.time(span, i as u64, || walk(i)))
            .collect();
        rows.put(metric, Summary::of(&times).scaled(1e6));
    }
}

/// Round trips of `call` over one connection, after 100 discarded ones.
fn round_trips(
    tr: &mut Tracer,
    span: &'static str,
    samples: usize,
    mut call: impl FnMut(usize) -> bool,
) -> Result<Vec<f64>, String> {
    let mut failed = 0;
    let times = (0..samples + 100)
        .map(|i| {
            let (ok, secs) = tr.timed(span, i as u64, |_| call(i));
            failed += u64::from(!ok);
            secs
        })
        .skip(100)
        .collect();
    match failed {
        0 => Ok(times),
        _ => Err(format!("{failed} {span} round trips failed")),
    }
}

/// `protocol.*`, `serve.*`, `batcher.*`: codec, socket and batcher, and
/// the accounting-closure residual `serve.unaccounted_us`.
fn wire(
    w: &Workload,
    o: &Opts,
    tr: &mut Tracer,
    s: &Setup,
    traced: &Phases,
    rows: &mut Rows,
) -> Result<(), String> {
    let served = s.served.as_ref().expect("wire layers need a served index");
    let m = s.queries.len();
    let (blocks, per_block, trips) = if o.smoke {
        (5, 100, 200)
    } else {
        (50, 1_000, 5_000)
    };

    let request = api::query_request(&s.queries[0], w.ef, w.k);
    let request_frame = api::encode_request(&request);
    let response = api::query_response(&s.expected[0]);
    let response_frame = api::encode_response(&response);
    let repeat = |f: &dyn Fn()| (0..per_block).for_each(|_| f());
    let codecs = [
        time_blocks(tr, "protocol.encode_request", blocks, per_block, |_| {
            repeat(&|| drop(black_box(api::encode_request(black_box(&request)))));
        }),
        time_blocks(tr, "protocol.decode_request", blocks, per_block, |_| {
            repeat(&|| drop(black_box(api::decode_request(black_box(&request_frame)))));
        }),
        time_blocks(tr, "protocol.encode_response", blocks, per_block, |_| {
            repeat(&|| drop(black_box(api::encode_response(black_box(&response)))));
        }),
        time_blocks(tr, "protocol.decode_response", blocks, per_block, |_| {
            repeat(&|| drop(black_box(api::decode_response(black_box(&response_frame)))));
        }),
    ];
    rows.put("protocol.encode_request_ns", codecs[0]);
    rows.put("protocol.decode_request_ns", codecs[1]);
    rows.put("protocol.encode_response_ns", codecs[2]);
    rows.put("protocol.decode_response_ns", codecs[3]);

    let ask = |client: &mut api::Client, i: usize| {
        api::query(client, &s.queries[i % m], w.ef, w.k)
            .is_some_and(|r| api::reply_matches(&r, &s.expected[i % m]))
    };

    // The batched server: an empty round trip, then a query, one connection.
    let mut client = api::connect(api::server_addr(&served.server))?;
    let pings = [round_trips(tr, "serve.ping", trips, |_| {
        api::ping(&mut client)
    })?];
    rows.put(
        "serve.ping_rtt_p50_us",
        stats::windowed(&pings, 0.5).scaled(1e6),
    );
    rows.put(
        "serve.ping_rtt_p99_us",
        stats::windowed(&pings, 0.99).scaled(1e6),
    );
    let batched = round_trips(tr, "serve.query_c1", trips, |i| ask(&mut client, i))?;
    rows.put("serve.query_rtt_c1_us", Summary::of(&batched).scaled(1e6));
    drop(client);

    // A second server over the same snapshot with the batcher off.
    let direct = api::serve(&served.snapshot, false)?;
    let mut client = api::connect(api::server_addr(&direct))?;
    let unbatched = round_trips(tr, "serve.direct_c1", trips, |i| ask(&mut client, i))?;
    rows.put(
        "serve.direct_rtt_c1_us",
        Summary::of(&unbatched).scaled(1e6),
    );
    drop(client);
    let load = Load {
        phase: "phase.direct_loop",
        clients: o.clients,
        budget: Duration::from_secs_f64(o.seconds / 6.0),
        min_samples: o.min_latency_samples() / 2,
    };
    let direct_loop = ladder::closed_loop(w, s, &direct, tr, load)?;
    if direct_loop.wrong > 0 {
        return Err(format!(
            "{} unbatched replies differ from the direct engine answer",
            direct_loop.wrong
        ));
    }
    rows.put("serve.direct_qps", direct_loop.qps);
    rows.put("serve.direct_p50_us", direct_loop.p50_us);
    drop(direct);

    let counts = traced.batcher.unwrap_or_default();
    let batches = counts.batches.max(1) as f64;
    rows.exact("batcher.mean_batch", counts.requests as f64 / batches);
    rows.exact(
        "batcher.coalesced_frac",
        counts.coalesced_batches as f64 / batches,
    );
    rows.exact("batcher.shed", counts.shed as f64);
    let direct_rtt = rows.median("serve.direct_rtt_c1_us");
    rows.exact(
        "batcher.overhead_us",
        rows.median("serve.query_rtt_c1_us") - direct_rtt,
    );
    let codec_us: f64 = codecs.iter().map(|c| c.median).sum::<f64>() / 1e3;
    rows.exact(
        "serve.unaccounted_us",
        direct_rtt
            - rows.median("serve.ping_rtt_p50_us")
            - rows.median("search.beam_us")
            - codec_us,
    );
    Ok(())
}
