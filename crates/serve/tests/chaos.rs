//! Fault-injection suite for the serving layer (requires the `failpoints`
//! cargo feature; CI's chaos job runs it with `--test-threads=1`).
//!
//! The failure contract under test, site by site:
//!
//! * every injected fault yields a **typed error or a clean retry** —
//!   never a panic, never a hung caller, never a wrong or partial answer
//!   (successful replies are still bit-identical to direct engine runs);
//! * a failed or torn hot-swap **always leaves the old generation
//!   serving**, verified through the epoch every reply carries;
//! * a search that stalls or panics **never strands the queries waiting
//!   for its slot**: every admitted query gets exactly one reply, the
//!   panic costs one request, and the slot is released.
//!
//! `faults_cover_every_registered_serve_site` enumerates
//! `pg_serve::sites::ALL` with an exhaustive match (the snapshot-I/O
//! sites are enumerated the same way by `pg_store`'s own chaos suite), so
//! adding a failpoint without a chaos scenario fails this suite.

mod common;

use std::io::ErrorKind;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use pg_fault::{configure, reset, FaultAction, FaultConfig};
use pg_metric::FlatRow;
use pg_serve::batcher::{run_single, Batcher};
use pg_serve::client::{Client, RetryPolicy, RetryingClient};
use pg_serve::error::{ErrorCode, ServeError};
use pg_serve::registry::{IndexRegistry, ServingIndex};
use pg_serve::server::{ServeConfig, Server};
use pg_serve::sites;

const ENTRY: u32 = 0;
const EF: u32 = 16;
const K: u32 = 4;

/// The pg_fault registry is process-global; every test serializes on this
/// lock and resets the registry at entry and exit.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    let guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    reset();
    guard
}

/// One query's expected results as `(id, f64 bits)` pairs.
type BitRows = Vec<Vec<(u32, u64)>>;

/// Bit-exact expected results for the standard query set on `engine`.
fn direct_bits(
    engine: &pg_core::QueryEngine<FlatRow, pg_metric::Euclidean>,
    queries: &[Vec<f64>],
) -> BitRows {
    let flat = common::flat_queries(queries);
    let starts = vec![ENTRY; flat.len()];
    engine
        .batch_beam_detailed(&starts, &flat, EF as usize, K as usize)
        .outcomes
        .iter()
        .map(|o| common::results_bits(&o.results))
        .collect()
}

fn serve_engine() -> (Server, Vec<Vec<f64>>, BitRows) {
    let engine = common::build_engine(200, 3);
    let queries = common::queries(12, 41);
    let bits = direct_bits(&engine, &queries);
    let registry = Arc::new(IndexRegistry::new());
    registry.register("main", engine, ENTRY).unwrap();
    let server = Server::bind("127.0.0.1:0", registry, ServeConfig::default()).unwrap();
    (server, queries, bits)
}

/// Every registered serve-side failpoint site has a scenario: inject a
/// fault, assert a typed (and correctly classified) error, assert the
/// server as a whole keeps working, and assert a clean retry succeeds.
#[test]
fn faults_cover_every_registered_serve_site() {
    let _g = serial();
    assert!(!sites::ALL.is_empty());
    for &site in sites::ALL {
        reset();
        // A fresh server per site: no half-dead connection from a previous
        // scenario can swallow a Times(1) fault.
        let (server, queries, bits) = serve_engine();
        let addr = server.local_addr();
        let q = &queries[0];

        // Exhaustive over the registered sites: a new failpoint without a
        // scenario here fails the suite.
        match site {
            sites::CONN_READ | sites::CONN_WRITE => {
                configure(
                    site,
                    FaultConfig::times(FaultAction::Fail(ErrorKind::ConnectionReset), 1),
                );
                let mut victim = Client::connect(addr).expect("victim connect");
                // The injected transport fault disconnects this client —
                // as a typed, retryable error, never a hang or a panic.
                let err = victim.ping().expect_err("injected transport fault");
                assert!(
                    matches!(
                        err,
                        ServeError::Io(_)
                            | ServeError::ConnectionClosed
                            | ServeError::Truncated { .. }
                    ),
                    "typed transport error expected at {site}, got {err:?}"
                );
                assert!(err.is_retryable(), "{site}: transport faults are transient");
                // The "clean retry" half of the contract: a new connection
                // (the fault budget is spent) serves correct answers.
                let mut retry = Client::connect(addr).expect("retry connect");
                let reply = retry.query("main", q, EF, K).expect("retry succeeds");
                assert_eq!(common::results_bits(&reply.results), bits[0]);
            }
            sites::BATCH_QUEUE => {
                configure(
                    site,
                    FaultConfig::times(FaultAction::Fail(ErrorKind::Other), 1),
                );
                let mut client = Client::connect(addr).expect("client connect");
                // A fired queue fault is shedding: an Overloaded error
                // frame, not a dropped connection.
                let err = client.query("main", q, EF, K).expect_err("shed");
                match &err {
                    ServeError::Remote { code, .. } => assert_eq!(*code, ErrorCode::Overloaded),
                    other => panic!("expected a Remote Overloaded frame, got {other:?}"),
                }
                assert!(err.is_retryable(), "shedding is transient by definition");
                assert_eq!(server.stats().shed, 1, "a fault-shed query is counted");
                // Same connection, fault spent: the retry succeeds.
                let reply = client.query("main", q, EF, K).expect("retry on same conn");
                assert_eq!(common::results_bits(&reply.results), bits[0]);
            }
            sites::ENGINE_DISPATCH => {
                configure(
                    site,
                    FaultConfig::times(FaultAction::Fail(ErrorKind::Other), 1),
                );
                let mut client = Client::connect(addr).expect("client connect");
                let err = client.query("main", q, EF, K).expect_err("dispatch fault");
                match &err {
                    ServeError::Remote { code, .. } => assert_eq!(*code, ErrorCode::Internal),
                    other => panic!("expected a Remote Internal frame, got {other:?}"),
                }
                assert!(err.is_retryable());
                let reply = client.query("main", q, EF, K).expect("retry on same conn");
                assert_eq!(common::results_bits(&reply.results), bits[0]);
            }
            other => panic!("failpoint site {other} has no chaos scenario — add one"),
        }
        assert!(pg_fault::fired(site) >= 1, "{site} never fired");
    }
    reset();
}

/// A panicking worker costs exactly its own request a typed error: the
/// connection survives, neighbors before and after are answered
/// bit-identically, and this holds on both the batched and unbatched
/// paths.
#[test]
fn worker_panic_is_contained_per_request() {
    let _g = serial();
    for batching in [true, false] {
        reset();
        let engine = common::build_engine(200, 3);
        let queries = common::queries(10, 41);
        let bits = direct_bits(&engine, &queries);
        let registry = Arc::new(IndexRegistry::new());
        registry.register("main", engine, ENTRY).unwrap();
        let config = ServeConfig {
            batching,
            ..ServeConfig::default()
        };
        let server = Server::bind("127.0.0.1:0", registry, config).unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();

        // One sequential connection dispatches one engine call per query,
        // so Nth(5) panics exactly the fifth query — deterministically.
        configure(
            sites::ENGINE_DISPATCH,
            FaultConfig::nth(FaultAction::Panic, 5),
        );
        for (i, q) in queries.iter().enumerate() {
            let result = client.query("main", q, EF, K);
            if i == 4 {
                match result {
                    Err(ServeError::Remote { code, .. }) => {
                        assert_eq!(code, ErrorCode::Internal, "batching={batching}")
                    }
                    other => panic!(
                        "query {i} (batching={batching}): expected a contained panic as a Remote Internal frame, got {other:?}"
                    ),
                }
            } else {
                let reply = result.unwrap_or_else(|e| {
                    panic!("query {i} (batching={batching}) must survive the panic: {e}")
                });
                assert_eq!(
                    common::results_bits(&reply.results),
                    bits[i],
                    "query {i} (batching={batching}): wrong answer after a contained panic"
                );
            }
        }
        assert_eq!(pg_fault::fired(sites::ENGINE_DISPATCH), 1);
    }
    reset();
}

/// A generation to drive a bare `Batcher` with.
fn serving() -> Arc<ServingIndex> {
    let registry = IndexRegistry::new();
    registry
        .register("m", common::build_engine(120, 5), ENTRY)
        .unwrap();
    registry.get("m").unwrap()
}

fn row(x: f64) -> FlatRow {
    FlatRow::from(vec![x, 1.0])
}

fn direct_row_bits(serving: &ServingIndex, x: f64) -> Vec<(u32, u64)> {
    common::results_bits(&run_single(serving, row(x), EF, K).results)
}

/// One slot held by a stalled search, eight callers waiting behind it,
/// and a panic fault on the third dispatch after the stall: every caller
/// still gets exactly one reply — the panicked dispatch a typed error,
/// everyone else the correct answer — and the slot comes back, so the
/// next `run` is served instead of waiting forever.
#[test]
fn a_panicking_search_costs_one_request_and_strands_no_waiter() {
    const WAITERS: usize = 8;
    const PANIC_AT: u64 = 3;
    let _g = serial();
    let serving = serving();
    let batcher = Batcher::with_slots(64, 1);
    configure(
        sites::ENGINE_DISPATCH,
        FaultConfig::always(FaultAction::Stall(250)),
    );
    let replies = std::thread::scope(|scope| {
        let (batcher, serving) = (&batcher, &serving);
        let stalled = scope.spawn(move || batcher.run(Arc::clone(serving), row(50.0), EF, K));
        while pg_fault::hits(sites::ENGINE_DISPATCH) < 1 {
            std::thread::yield_now();
        }
        let waiters: Vec<_> = (0..WAITERS)
            .map(|i| scope.spawn(move || batcher.run(Arc::clone(serving), row(i as f64), EF, K)))
            .collect();
        while batcher.stats().waited < WAITERS as u64 {
            std::thread::yield_now();
        }
        // Re-arming resets the site's counters: the waiters' dispatches
        // are numbered 1..=WAITERS, provided none has started yet.
        configure(
            sites::ENGINE_DISPATCH,
            FaultConfig::nth(FaultAction::Panic, PANIC_AT),
        );
        assert_eq!(
            batcher.stats().batches,
            0,
            "the stall ended before the fault was re-armed"
        );
        let stalled = stalled.join().unwrap().expect("a stall is not a failure");
        assert_eq!(
            common::results_bits(&stalled.results),
            direct_row_bits(serving, 50.0)
        );
        let joined = waiters.into_iter().map(|w| w.join().unwrap());
        joined.collect::<Vec<_>>()
    });

    let mut panicked = 0;
    for (i, reply) in replies.into_iter().enumerate() {
        match reply {
            Ok(r) => assert_eq!(
                common::results_bits(&r.results),
                direct_row_bits(&serving, i as f64),
                "waiting query {i}"
            ),
            Err(ServeError::WorkerPanicked) => panicked += 1,
            Err(other) => panic!("waiting query {i}: unexpected error {other:?}"),
        }
    }
    assert_eq!(panicked, 1, "exactly one dispatch pays for the panic");
    assert_eq!(pg_fault::fired(sites::ENGINE_DISPATCH), 1);
    assert_eq!(pg_fault::hits(sites::ENGINE_DISPATCH), WAITERS as u64);

    let next = batcher
        .run(Arc::clone(&serving), row(50.0), EF, K)
        .expect("the slot must have been released");
    assert_eq!(
        common::results_bits(&next.results),
        direct_row_bits(&serving, 50.0)
    );
    let stats = batcher.stats();
    let total = WAITERS as u64 + 2;
    assert_eq!((stats.requests, stats.batches), (total, total));
    assert_eq!(stats.waited, WAITERS as u64);
    reset();
}

/// Hot-swap under injected store faults: a swap whose snapshot load fails
/// returns a typed error and the old generation keeps serving — proven by
/// the epoch on every reply — and the same swap succeeds once the fault
/// clears.
#[test]
fn failed_swap_keeps_the_old_generation_serving() {
    let _g = serial();
    let engine_a = common::build_engine(200, 1);
    let engine_b = common::build_engine(200, 2);
    let queries = common::queries(12, 77);
    let bits_a = direct_bits(&engine_a, &queries);
    let bits_b = direct_bits(&engine_b, &queries);
    assert_ne!(bits_a, bits_b, "the snapshots must disagree somewhere");

    let path_a = common::temp("chaos_swap_a");
    let path_b = common::temp("chaos_swap_b");
    engine_a.save_with(&path_a, ENTRY, None).unwrap();
    engine_b.save_with(&path_b, ENTRY, None).unwrap();

    let registry = Arc::new(IndexRegistry::new());
    let epoch_a = registry.register_from_path("main", &path_a).unwrap();
    let server =
        Server::bind("127.0.0.1:0", Arc::clone(&registry), ServeConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    let assert_serving = |client: &mut Client, bits: &[Vec<(u32, u64)>], epoch: u64, ctx: &str| {
        for (i, q) in queries.iter().enumerate() {
            let reply = client.query("main", q, EF, K).expect("query must succeed");
            assert_eq!(reply.epoch, epoch, "{ctx}: query {i} epoch");
            assert_eq!(
                common::results_bits(&reply.results),
                bits[i],
                "{ctx}: query {i} answer"
            );
        }
    };
    assert_serving(&mut client, &bits_a, epoch_a, "before any swap");

    // Swap attempts whose snapshot *read* fails: typed error, old
    // generation untouched.
    configure(
        pg_store::sites::LOAD_READ,
        FaultConfig::times(FaultAction::Fail(ErrorKind::Other), 2),
    );
    for attempt in 0..2 {
        let err = registry
            .swap_from_path("main", &path_b)
            .expect_err("injected load fault must fail the swap");
        assert!(
            matches!(err, ServeError::Snapshot(_)),
            "attempt {attempt}: typed snapshot error expected, got {err:?}"
        );
        assert_serving(&mut client, &bits_a, epoch_a, "after a failed swap");
    }

    // A torn save can't even produce a file for the swap to read: the
    // save fails atomically, and serving never wavers.
    let path_torn = common::temp("chaos_swap_torn");
    let _ = std::fs::remove_file(&path_torn);
    configure(
        pg_store::sites::SAVE_WRITE,
        FaultConfig::times(FaultAction::ShortWrite(64), 1),
    );
    engine_b
        .save_with(&path_torn, ENTRY, None)
        .expect_err("torn save must fail");
    let err = registry
        .swap_from_path("main", &path_torn)
        .expect_err("no complete file can exist to swap to");
    assert!(matches!(err, ServeError::Snapshot(_)));
    assert_serving(
        &mut client,
        &bits_a,
        epoch_a,
        "after a torn-save swap attempt",
    );

    // Faults spent: the same swap now succeeds and the epoch advances.
    let epoch_b = registry
        .swap_from_path("main", &path_b)
        .expect("clean swap succeeds");
    assert!(epoch_b > epoch_a, "epochs are strictly increasing");
    assert_serving(&mut client, &bits_b, epoch_b, "after the clean swap");

    reset();
    for p in [path_a, path_b, path_torn] {
        let _ = std::fs::remove_file(&p);
    }
}

/// An injected stall delays a dispatch but never corrupts it: the reply
/// arrives complete and bit-identical.
#[test]
fn stalls_delay_but_never_corrupt() {
    let _g = serial();
    let (server, queries, bits) = serve_engine();
    let mut client = Client::connect(server.local_addr()).unwrap();
    configure(
        sites::ENGINE_DISPATCH,
        FaultConfig::times(FaultAction::Stall(30), 2),
    );
    for (i, q) in queries.iter().take(4).enumerate() {
        let reply = client.query("main", q, EF, K).expect("stalled, not broken");
        assert_eq!(common::results_bits(&reply.results), bits[i], "query {i}");
    }
    assert_eq!(pg_fault::fired(sites::ENGINE_DISPATCH), 2);
    reset();
}

/// The retrying client turns injected shedding and transport faults into
/// eventual success, and its retry counter proves the loop actually ran.
#[test]
fn retrying_client_rides_out_shedding_and_disconnects() {
    let _g = serial();
    let policy = RetryPolicy {
        max_retries: 5,
        backoff_start: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(4),
    };

    // Shedding: the first two attempts come back Overloaded, the third
    // succeeds — same connection throughout (shedding is not a disconnect).
    let (server, queries, bits) = serve_engine();
    let mut client = RetryingClient::connect(server.local_addr(), policy).unwrap();
    configure(
        sites::BATCH_QUEUE,
        FaultConfig::times(FaultAction::Fail(ErrorKind::Other), 2),
    );
    let reply = client
        .query("main", &queries[0], EF, K)
        .expect("retries must ride out shedding");
    assert_eq!(common::results_bits(&reply.results), bits[0]);
    assert_eq!(client.retries(), 2, "exactly the two shed attempts retried");
    drop(server);

    // Transport fault: the injected read fault kills the connection; the
    // retry loop redials and succeeds.
    reset();
    let (server, queries, bits) = serve_engine();
    let mut client = RetryingClient::connect(server.local_addr(), policy).unwrap();
    configure(
        sites::CONN_READ,
        FaultConfig::times(FaultAction::Fail(ErrorKind::ConnectionReset), 1),
    );
    let reply = client
        .query("main", &queries[0], EF, K)
        .expect("reconnect-and-retry must succeed");
    assert_eq!(common::results_bits(&reply.results), bits[0]);
    assert!(
        (1..=policy.max_retries as u64).contains(&client.retries()),
        "the disconnect must have cost at least one retry, got {}",
        client.retries()
    );
    reset();
}
