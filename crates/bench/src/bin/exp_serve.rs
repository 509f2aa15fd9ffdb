//! **Experiment: serve** — the online serving layer under closed-loop
//! client load: batched (per-core search slots) vs unbatched
//! latency/throughput from 1 to 16·cores connections.
//!
//! Protocol:
//!
//! 1. Build an index, save it through `pg_store`, serve it from a
//!    `pg_serve::Server`.
//! 2. Closed-loop load: C client threads issue single queries as fast as
//!    responses return, against the batched server and then against an
//!    unbatched one, for C ∈ {1, cores, 4·cores, 16·cores} — the same
//!    number of requests per row. Reported per row: p50/p99 request
//!    latency, aggregate QPS, and how many requests waited for a slot.
//!
//! The binary gates nothing: that the wire answers equal a direct engine
//! run, that a hot swap drops no request and that an overloaded server
//! sheds with typed, retryable frames are `pg_serve`'s `equivalence`,
//! `hot_swap`, `hardening` and `chaos` suites.
//!
//! How to read the sweep: the batcher runs at most one search per core
//! and answers each query on the connection thread that received it, so
//! up to C = cores the two arms are the same path (nothing waits) and
//! should measure the same. Past that, the batched arm trades the
//! unbatched arm's oversubscribed cores for a bounded wait; a released
//! slot goes to whichever thread takes it first, not to the longest
//! waiter. Quality does not change between the arms: same engine, same
//! answers.
//!
//! Run: `cargo run --release -p pg_bench --bin exp_serve
//! [--smoke | --full]`, with the pool sized by `PG_THREADS` (else the
//! machine).

#![forbid(unsafe_code)]

use std::sync::Arc;
use std::time::Instant;

use pg_bench::{fmt, Args, Table};
use pg_core::{GNet, QueryEngine};
use pg_metric::Euclidean;
use pg_serve::client::Client;
use pg_serve::registry::IndexRegistry;
use pg_serve::server::{ServeConfig, Server};
use pg_workloads as workloads;

const EF: u32 = 32;
const K: u32 = 10;
const INDEX: &str = "main";

fn percentile(sorted: &[u64], p: f64) -> u64 {
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx]
}

struct LoadOutcome {
    clients: usize,
    p50_us: f64,
    p99_us: f64,
    qps: f64,
    requests: u64,
    waited: u64,
}

/// Closed-loop load: `clients` threads, each issuing its query schedule
/// one request at a time, recording per-request latency.
fn closed_loop(
    server: &Server,
    clients: usize,
    rounds: usize,
    queries: &Arc<Vec<Vec<f64>>>,
) -> LoadOutcome {
    let before = server.stats();
    let addr = server.local_addr();
    let t0 = Instant::now();
    let workers: Vec<_> = (0..clients)
        .map(|c| {
            let queries = Arc::clone(queries);
            std::thread::spawn(move || -> Vec<u64> {
                let mut client = Client::connect(addr).expect("client connect");
                let mut lat = Vec::with_capacity(rounds * queries.len());
                for round in 0..rounds {
                    // Offset each client's schedule so the wire never sees
                    // all clients asking the same question at once.
                    let shift = (c * 7 + round) % queries.len();
                    for i in 0..queries.len() {
                        let q = &queries[(i + shift) % queries.len()];
                        let t = Instant::now();
                        client
                            .query(INDEX, q, EF, K)
                            .expect("query failed under load");
                        lat.push(t.elapsed().as_nanos() as u64);
                    }
                }
                lat
            })
        })
        .collect();
    let mut lat: Vec<u64> = Vec::new();
    for w in workers {
        lat.extend(w.join().expect("load client panicked"));
    }
    let wall = t0.elapsed().as_secs_f64();
    let after = server.stats();
    lat.sort_unstable();
    let requests = lat.len() as u64;
    LoadOutcome {
        clients,
        p50_us: percentile(&lat, 0.50) as f64 / 1_000.0,
        p99_us: percentile(&lat, 0.99) as f64 / 1_000.0,
        qps: requests as f64 / wall,
        requests,
        waited: after.waited - before.waited,
    }
}

fn main() {
    let args = Args::parse(&["--smoke", "--full"]);
    let threads = rayon::current_num_threads();
    let (n, d, m, clients, rounds) = if args.has("--smoke") {
        (400, 2, 32, 4usize, 2usize)
    } else if args.has("--full") {
        (20_000, 3, 256, 8, 6)
    } else {
        (6_000, 3, 128, 8, 4)
    };

    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    println!("# serve: TCP serving on per-core search slots");
    println!(
        "(n = {n}, d = {d}, m = {m} queries, {clients} client(s) x {rounds} round(s), \
         ef = {EF}, k = {K}, {threads} thread(s), {cores} core(s))\n"
    );

    // ---- 1. Build and save the snapshot every server loads ------------------
    let side = (n as f64).sqrt() * 4.0;
    let t0 = Instant::now();
    let data = workloads::uniform_cube_flat(n, d, side, 11).into_dataset(Euclidean);
    let engine = QueryEngine::new(GNet::build_fast(&data, 1.0).graph, data);
    let build_secs = t0.elapsed().as_secs_f64();
    let path = std::env::temp_dir().join(format!("exp_serve_{}.pgix", std::process::id()));
    engine
        .save_with(&path, 0, None)
        .expect("saving the snapshot");
    println!(
        "built and saved a {n}-point snapshot (build: {} s)\n",
        fmt(build_secs, 2)
    );
    let queries: Arc<Vec<Vec<f64>>> = Arc::new(
        workloads::uniform_queries_flat(m, d, 0.0, side, 31)
            .into_rows()
            .iter()
            .map(|r| r.coords().to_vec())
            .collect(),
    );

    // ---- 2. Closed-loop load: batched vs unbatched, 1 to 16·cores clients ---
    let mut sweep = vec![1, cores, 4 * cores, 16 * cores];
    sweep.dedup();
    // Every row issues (about) the same number of requests.
    let rounds_at = |c: usize| (clients * rounds).div_ceil(c);
    let arm = |batching: bool| -> Vec<LoadOutcome> {
        let registry = Arc::new(IndexRegistry::new());
        registry
            .register_from_path(INDEX, &path)
            .expect("registering the snapshot");
        let config = ServeConfig {
            batching,
            ..ServeConfig::default()
        };
        let server = Server::bind("127.0.0.1:0", registry, config).expect("binding a load server");
        sweep
            .iter()
            .map(|&c| closed_loop(&server, c, rounds_at(c), &queries))
            .collect()
    };
    let batched = arm(true);
    let unbatched = arm(false);
    std::fs::remove_file(&path).ok();

    let mut t = Table::new(&[
        "mode", "clients", "requests", "p50 us", "p99 us", "QPS", "waited",
    ]);
    for (name, rows) in [("batched", &batched), ("unbatched", &unbatched)] {
        for o in rows {
            t.row(vec![
                name.into(),
                o.clients.to_string(),
                o.requests.to_string(),
                fmt(o.p50_us, 1),
                fmt(o.p99_us, 1),
                fmt(o.qps, 0),
                o.waited.to_string(),
            ]);
        }
    }
    t.print();
}
