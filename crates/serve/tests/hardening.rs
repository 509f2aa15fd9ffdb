//! Hardening suite (tier-1, no fault injection needed): the two
//! backpressure mechanisms the server applies to misbehaving or excessive
//! load, driven purely through real sockets.
//!
//! * **Load shedding** — a full (here: zero-capacity) batcher queue
//!   refuses queries with an `Overloaded` error frame on a connection
//!   that stays open, and non-query requests keep working; a retrying
//!   client spends its whole budget against it and returns the typed
//!   error, and a burst of retrying clients against a queue of one rides
//!   its shedding out with every request answered.
//! * **Slow-peer disconnect** — a peer that stops reading responses is
//!   disconnected once a response write blocks past
//!   [`ServeConfig::write_timeout`], freeing its handler thread; the
//!   server keeps serving everyone else.

mod common;

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use pg_serve::client::{Client, RetryPolicy, RetryingClient};
use pg_serve::error::{ErrorCode, ServeError};
use pg_serve::protocol::{encode_request, Request};
use pg_serve::registry::IndexRegistry;
use pg_serve::server::{ServeConfig, Server};

const ENTRY: u32 = 0;
const EF: u32 = 16;
const K: u32 = 4;

fn bind(config: ServeConfig) -> Server {
    let registry = Arc::new(IndexRegistry::new());
    registry
        .register("main", common::build_engine(160, 3), ENTRY)
        .unwrap();
    Server::bind("127.0.0.1:0", registry, config).unwrap()
}

/// `max_queue: 0` is deterministic lame-duck mode: every batched query is
/// shed with an `Overloaded` error frame — a typed, retryable refusal on a
/// connection that keeps serving — while pings, listings, and the
/// unbatched path are unaffected. A retrying client classifies the
/// refusal as transient, spends its whole retry budget, and returns the
/// typed error.
#[test]
fn zero_capacity_queue_sheds_queries_with_overloaded_frames() {
    let server = bind(ServeConfig {
        max_queue: 0,
        ..ServeConfig::default()
    });
    let mut client = Client::connect(server.local_addr()).unwrap();
    let q = &common::queries(1, 7)[0];

    for round in 0..5 {
        let err = client
            .query("main", q, EF, K)
            .expect_err("a zero-capacity queue must shed");
        match &err {
            ServeError::Remote { code, .. } => {
                assert_eq!(*code, ErrorCode::Overloaded, "round {round}")
            }
            other => panic!("round {round}: expected an Overloaded frame, got {other:?}"),
        }
        assert!(err.is_retryable(), "shedding is a transient condition");
        // Shedding costs an error frame, never the connection: the same
        // client keeps talking.
        client.ping().expect("connection must survive shedding");
    }
    assert!(!client.list().unwrap().is_empty());
    let stats = server.stats();
    assert_eq!(stats.shed, 5, "every refused query is counted");
    assert_eq!(stats.requests, 0, "shed queries never reach a dispatch");

    let policy = RetryPolicy {
        max_retries: 3,
        backoff_start: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(4),
    };
    let mut retrying = RetryingClient::connect(server.local_addr(), policy).unwrap();
    let err = retrying
        .query("main", q, EF, K)
        .expect_err("a lame-duck server never stops shedding");
    assert!(
        matches!(
            err,
            ServeError::Remote {
                code: ErrorCode::Overloaded,
                ..
            }
        ),
        "the last refusal surfaces typed, got {err:?}"
    );
    assert!(err.is_retryable());
    assert_eq!(retrying.retries(), u64::from(policy.max_retries));
    assert_eq!(
        server.stats().shed,
        5 + 1 + u64::from(policy.max_retries),
        "the first attempt and every retry are shed"
    );

    // The unbatched path has no queue and must ignore `max_queue`.
    let direct = bind(ServeConfig {
        batching: false,
        max_queue: 0,
        ..ServeConfig::default()
    });
    let mut client = Client::connect(direct.local_addr()).unwrap();
    let reply = client
        .query("main", q, EF, K)
        .expect("the unbatched path has no queue to overflow");
    assert_eq!(reply.results.len(), K as usize);
}

/// A burst of retrying clients, started together, against one search slot
/// per core and a queue of one: most arrivals find both full and are shed,
/// yet every request is answered once its retries ride the burst out. How
/// many are shed depends on timing, so only the accounting is exact. The
/// clients are bounded (`min(4 · cores, 64)`) so the test starts a modest
/// number of threads on any machine.
#[test]
fn a_burst_of_retrying_clients_rides_out_a_one_deep_queue() {
    let server = bind(ServeConfig {
        max_queue: 1,
        ..ServeConfig::default()
    });
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    let clients = (4 * cores).min(64);
    let policy = RetryPolicy {
        max_retries: 16,
        backoff_start: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(8),
    };
    let queries = Arc::new(common::queries(64, 5));
    let start = Arc::new(Barrier::new(clients));
    let workers: Vec<_> = (0..clients)
        .map(|_| {
            let (queries, start) = (Arc::clone(&queries), Arc::clone(&start));
            let addr = server.local_addr();
            std::thread::spawn(move || {
                let mut client = RetryingClient::connect(addr, policy).unwrap();
                client.ping().expect("connect before the burst");
                start.wait();
                // A beam as wide as the index holds its slot long enough
                // for arrivals to pile up behind it.
                for q in queries.iter() {
                    let reply = client
                        .query("main", q, 160, K)
                        .expect("a burst query must eventually succeed");
                    assert_eq!(reply.results.len(), K as usize);
                }
                client.retries()
            })
        })
        .collect();
    let retries: u64 = workers.into_iter().map(|w| w.join().unwrap()).sum();
    let stats = server.stats();
    assert_eq!(stats.requests, (clients * queries.len()) as u64);
    assert_eq!(stats.shed, retries, "each shed attempt costs one retry");
}

/// A peer that pipelines requests but never reads responses eventually
/// blocks the server's response write; the write timeout then disconnects
/// the slow peer instead of pinning its handler thread forever, and the
/// server keeps serving new connections.
#[test]
fn slow_reader_is_disconnected_by_the_write_timeout() {
    let server = bind(ServeConfig {
        write_timeout: Duration::from_millis(200),
        ..ServeConfig::default()
    });

    // A raw slow peer: write queries as fast as possible, read nothing.
    // Queries specifically, because a reply (k results plus counters) is
    // several times larger than its request: the server must produce more
    // response bytes than the request backlog it consumes, so its send
    // path is guaranteed to fill — and its response write to block — while
    // this peer refuses to read.
    let mut slow = TcpStream::connect(server.local_addr()).unwrap();
    slow.set_nodelay(true).unwrap();
    slow.set_write_timeout(Some(Duration::from_millis(100)))
        .unwrap();
    // k = n: every reply carries all 160 results (~2 KB) for a ~60-byte
    // request — a >30x amplification, so the send path must fill (and the
    // response write block) after only a few thousand queries, long before
    // the request backlog runs out.
    let query = encode_request(&Request::Query {
        index: "main".into(),
        ef: 200,
        k: 160,
        coords: vec![1.5, 2.5],
    });
    // A chunk of pipelined query frames (`encode_request` emits complete
    // frames, length prefix included), so kernel buffers fill in few
    // syscalls.
    let chunk: Vec<u8> = query.repeat(256);
    // Backpressure must reach this writer: once the server's response
    // write blocks (peer-receive plus server-send buffers full), the
    // server stops reading, so its receive buffer and our send buffer fill
    // too and this write times out. The cap only bounds a broken test.
    let mut wrote_chunks = 0u32;
    let stalled = loop {
        match slow.write_all(&chunk) {
            Ok(()) => wrote_chunks += 1,
            Err(_) => break true,
        }
        if wrote_chunks > 1 << 14 {
            break false; // hundreds of MB written and no backpressure: broken.
        }
    };
    assert!(stalled, "backpressure never reached the slow peer");

    // While the slow peer is stalled, everyone else is still served.
    let mut healthy = Client::connect(server.local_addr()).unwrap();
    let q = &common::queries(1, 7)[0];
    let reply = healthy.query("main", q, EF, K).expect("healthy peer");
    assert_eq!(reply.results.len(), K as usize);

    // Keep refusing to read for several write-timeout periods: the
    // server's blocked response write cannot make progress (nothing drains
    // the buffers), so the timeout must fire and disconnect the slow peer.
    // Reading here instead would rescue the connection — un-blocking the
    // write inside every timeout window is exactly what a *healthy* peer
    // does.
    // Budget: filling a few MB of kernel buffers with amplified replies,
    // plus the 200 ms timeout itself, plus scheduler slack.
    std::thread::sleep(Duration::from_millis(3000));

    // Now drain: buffered replies (if the close was a clean FIN), then EOF
    // — or an immediate reset, since the server hung up with unread
    // requests still in its receive buffer. If the server never hung up,
    // this loop keeps yielding replies until the deadline fails the test.
    slow.set_read_timeout(Some(Duration::from_millis(500)))
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut buf = vec![0u8; 64 * 1024];
    let disconnected = loop {
        if Instant::now() > deadline {
            break false;
        }
        match slow.read(&mut buf) {
            Ok(0) => break true, // clean EOF
            Ok(_) => {}          // draining buffered replies
            Err(ref e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                // Server gone quiet but not yet closed; keep waiting.
            }
            Err(_) => break true, // reset: the server hung up mid-buffer
        }
    };
    assert!(disconnected, "the slow peer was never disconnected");

    // The freed server is fully functional afterwards.
    let reply = healthy.query("main", q, EF, K).expect("after disconnect");
    assert_eq!(reply.results.len(), K as usize);
}
