//! Hot-swap under load: clients hammer the server while the registry
//! swaps between two snapshots many times. The contract being pinned:
//!
//! * **zero dropped requests** — no connection errors, no error frames,
//!   every query answered;
//! * **no mixed answers** — every response is bit-identical to a direct
//!   engine run on exactly one of the two snapshots, identified by the
//!   epoch the response carries.
//!
//! That a swap does not retarget a query already waiting for a search slot
//! is pinned by `batcher::tests::a_swap_does_not_retarget_queries_already_waiting`.

mod common;

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use pg_serve::client::Client;
use pg_serve::registry::IndexRegistry;
use pg_serve::server::{ServeConfig, Server};

const ENTRY: u32 = 0;
const EF: u32 = 12;
const K: u32 = 4;
const SWAPS: usize = 14;
const CLIENTS: usize = 4;

/// Per-epoch ground truth: bit-exact expected results for every query.
type Expected = HashMap<u64, Vec<Vec<(u32, u64)>>>;

#[test]
fn swapping_snapshots_under_load_drops_nothing_and_mixes_nothing() {
    // Two genuinely different snapshots over the same dimensionality.
    let engine_a = common::build_engine(200, 1);
    let engine_b = common::build_engine(200, 2);
    let queries = common::queries(24, 77);
    let flat = common::flat_queries(&queries);
    let starts = vec![ENTRY; flat.len()];
    let answers_a = engine_a.batch_beam_detailed(&starts, &flat, EF as usize, K as usize);
    let answers_b = engine_b.batch_beam_detailed(&starts, &flat, EF as usize, K as usize);
    let bits_a: Vec<Vec<(u32, u64)>> = answers_a
        .outcomes
        .iter()
        .map(|o| common::results_bits(&o.results))
        .collect();
    let bits_b: Vec<Vec<(u32, u64)>> = answers_b
        .outcomes
        .iter()
        .map(|o| common::results_bits(&o.results))
        .collect();
    assert_ne!(
        bits_a, bits_b,
        "the two snapshots must disagree somewhere, or the test proves nothing"
    );

    // Save snapshot B to disk so half the swaps exercise the full
    // load-validate-swap path (the other half swap in-memory engines).
    let path_b = common::temp("hotswap_b");
    engine_b.save_with(&path_b, ENTRY, None).unwrap();

    let registry = Arc::new(IndexRegistry::new());
    let epoch_a0 = registry.register("main", engine_a.clone(), ENTRY).unwrap();
    let expected: Arc<Mutex<Expected>> = Arc::new(Mutex::new(HashMap::new()));
    expected.lock().unwrap().insert(epoch_a0, bits_a.clone());

    let server = Server::bind("127.0.0.1:0", Arc::clone(&registry), ServeConfig::default())
        .expect("binding an ephemeral port");
    let addr = server.local_addr();
    let stop = Arc::new(AtomicBool::new(false));

    // Closed-loop clients: query as fast as possible, verify each answer
    // against the ground truth of the epoch that answered it.
    let workers: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let queries = queries.clone();
            let expected = Arc::clone(&expected);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || -> u64 {
                let mut client = Client::connect(addr).expect("client connect");
                let mut served = 0u64;
                let mut epochs_seen = std::collections::HashSet::new();
                while !stop.load(Ordering::Relaxed) {
                    for (i, q) in queries.iter().enumerate() {
                        let reply = client
                            .query("main", q, EF, K)
                            .unwrap_or_else(|e| panic!("client {c} dropped a request: {e}"));
                        let table = expected.lock().unwrap();
                        let per_epoch = table.get(&reply.epoch).unwrap_or_else(|| {
                            panic!("client {c} saw unregistered epoch {}", reply.epoch)
                        });
                        assert_eq!(
                            common::results_bits(&reply.results),
                            per_epoch[i],
                            "client {c}: answer matches neither snapshot for its epoch"
                        );
                        epochs_seen.insert(reply.epoch);
                        served += 1;
                    }
                }
                assert!(
                    epochs_seen.len() >= 2,
                    "client {c} never observed a swap (epochs: {epochs_seen:?})"
                );
                served
            })
        })
        .collect();

    // Swap under load, alternating between the in-memory engine path and
    // the from-disk snapshot path. The expected-answers table is extended
    // *before* each swap so no client can see an epoch before its ground
    // truth is registered.
    std::thread::sleep(Duration::from_millis(50));
    let mut last_epoch = epoch_a0;
    for swap in 0..SWAPS {
        let to_b = swap % 2 == 0;
        // Register the ground truth *before* the swap: epochs come from
        // one atomic counter and only this thread mints them, so the next
        // swap's epoch is exactly `last + 1` — and no client can ever be
        // answered by an epoch the table does not yet hold.
        let next = last_epoch + 1;
        expected
            .lock()
            .unwrap()
            .insert(next, if to_b { bits_b.clone() } else { bits_a.clone() });
        let epoch = if to_b {
            registry
                .swap_from_path("main", &path_b)
                .expect("swap from path")
        } else {
            registry
                .swap("main", engine_a.clone(), ENTRY)
                .expect("swap in memory")
        };
        assert_eq!(epoch, next, "only this thread mints epochs");
        last_epoch = epoch;
        std::thread::sleep(Duration::from_millis(40));
    }
    stop.store(true, Ordering::Relaxed);

    let mut total = 0;
    for w in workers {
        total += w.join().expect("a client thread failed");
    }
    std::fs::remove_file(&path_b).unwrap();
    assert!(
        total > 0,
        "the load generator served nothing; the test proved nothing"
    );

    // Final state: the last swap (odd count ⇒ engine A side when SWAPS is
    // even) is what new clients see, at the newest epoch.
    let mut fresh = Client::connect(addr).unwrap();
    let info = fresh.info("main").unwrap();
    assert_eq!(info.epoch, (SWAPS + 1) as u64);
    assert_eq!(info.n, 200);
}

/// The load test above leans on epoch arithmetic (`next = last + 1`);
/// this pins the underlying property: epochs are strictly increasing
/// across every registration and swap, on every cell, because they all
/// draw from one registry-level counter.
#[test]
fn epochs_are_strictly_increasing_across_mixed_registrations_and_swaps() {
    let registry = IndexRegistry::new();
    let e1 = registry
        .register("a", common::build_engine(80, 3), 0)
        .unwrap();
    let e2 = registry
        .register("b", common::build_engine(80, 4), 0)
        .unwrap();
    let e3 = registry.swap("a", common::build_engine(80, 5), 0).unwrap();
    let e4 = registry.swap("b", common::build_engine(80, 6), 0).unwrap();
    assert!(e1 < e2 && e2 < e3 && e3 < e4);
    assert_eq!(registry.get("a").unwrap().epoch(), e3);
    assert_eq!(registry.get("b").unwrap().epoch(), e4);
}

/// A failed swap (missing or corrupt file) must leave the serving
/// generation untouched — load-then-swap, never swap-then-load.
#[test]
fn a_failed_swap_leaves_the_old_snapshot_serving() {
    let registry = Arc::new(IndexRegistry::new());
    registry
        .register("main", common::build_engine(100, 7), 0)
        .unwrap();
    let before = registry.get("main").unwrap();

    let err = registry
        .swap_from_path("main", "/definitely/not/a/real/snapshot.pgix")
        .unwrap_err();
    assert!(
        matches!(err, pg_serve::ServeError::Snapshot(_)),
        "got {err:?}"
    );

    // A corrupt file: valid snapshot, one byte flipped.
    let path = common::temp("failed_swap");
    common::build_engine(100, 8)
        .save_with(&path, 0, None)
        .unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&path, &bytes).unwrap();
    let err = registry.swap_from_path("main", &path).unwrap_err();
    std::fs::remove_file(&path).unwrap();
    assert!(
        matches!(err, pg_serve::ServeError::Snapshot(_)),
        "got {err:?}"
    );

    let after = registry.get("main").unwrap();
    assert!(
        Arc::ptr_eq(&before, &after),
        "the serving generation changed"
    );
    assert_eq!(after.epoch(), before.epoch());
}
