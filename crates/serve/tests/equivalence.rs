//! Serving-equivalence suite: responses that crossed the wire — through
//! the batcher or around it — are **bit-identical** to a direct
//! `QueryEngine::batch_beam_detailed` run over the same snapshot, across
//! engine thread counts 1, 2, and the machine's parallelism, under every
//! metric a snapshot can name. This is the serving layer's core claim: the
//! network and the batcher add transport and a bound on concurrent
//! searches, never a different answer.

mod common;

use std::sync::Arc;

use pg_core::engine::{BatchBeamDetail, QueryEngine};
use pg_metric::{Chebyshev, FlatRow, Manhattan, Metric};
use pg_serve::client::Client;
use pg_serve::registry::IndexRegistry;
use pg_serve::server::{ServeConfig, Server};

const ENTRY: u32 = 3;
const EF: u32 = 16;
const K: u32 = 5;

/// The ground truth: the direct engine run every wire answer must match.
fn direct<M: Metric<FlatRow> + Sync>(engine: &QueryEngine<FlatRow, M>) -> BatchBeamDetail {
    let queries = common::flat_queries(&common::queries(40, 9));
    let starts = vec![ENTRY; queries.len()];
    engine.batch_beam_detailed(&starts, &queries, EF as usize, K as usize)
}

fn assert_reply_matches(
    reply: &pg_serve::QueryReply,
    expected: &pg_core::BeamOutcome,
    context: &str,
) {
    assert_eq!(
        common::results_bits(&reply.results),
        common::results_bits(&expected.results),
        "{context}: result bits diverged"
    );
    assert_eq!(
        reply.dist_comps, expected.dist_comps,
        "{context}: dist_comps"
    );
    assert_eq!(
        reply.expansions, expected.expansions,
        "{context}: expansions"
    );
}

/// Sequential single-client queries over TCP, against engines pinned to
/// thread counts 1, 2, and the machine default: every response matches the
/// direct run bit for bit (which also proves the thread counts agree with
/// each other). Besides the registered L2 engine, L1 and L∞ snapshots are
/// served through `register_from_path`, so every metric arm of the served
/// engine answers over the wire.
#[test]
fn tcp_responses_match_the_direct_engine_at_every_thread_count() {
    let machine = std::thread::available_parallelism().map_or(4, |n| n.get());
    let l1 = common::build_engine_in(240, 5, Manhattan);
    let linf = common::build_engine_in(240, 5, Chebyshev);
    let (l1_path, linf_path) = (
        common::temp("equivalence_l1"),
        common::temp("equivalence_linf"),
    );
    l1.save_with(&l1_path, ENTRY, None).unwrap();
    linf.save_with(&linf_path, ENTRY, None).unwrap();
    for threads in [1, 2, machine] {
        let engine = common::build_engine(240, 5).with_threads(threads);
        let expected = [
            ("main", 1, direct(&engine)),
            ("l1", 2, direct(&l1.clone().with_threads(threads))),
            ("linf", 3, direct(&linf.clone().with_threads(threads))),
        ];

        let registry = Arc::new(IndexRegistry::new());
        registry.register("main", engine, ENTRY).unwrap();
        registry.register_from_path("l1", &l1_path).unwrap();
        registry.register_from_path("linf", &linf_path).unwrap();
        let server = Server::bind("127.0.0.1:0", registry, ServeConfig::default()).unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();

        for (index, epoch, expected) in &expected {
            for (i, q) in common::queries(40, 9).iter().enumerate() {
                let reply = client.query(index, q, EF, K).unwrap();
                assert_reply_matches(
                    &reply,
                    &expected.outcomes[i],
                    &format!("{index}, threads {threads}, query {i}"),
                );
                assert_eq!(reply.epoch, *epoch);
            }
        }
    }
    std::fs::remove_file(&l1_path).unwrap();
    std::fs::remove_file(&linf_path).unwrap();
}

/// Concurrent clients hammering the batched server — more of them than
/// search slots on a machine with fewer than 8 cores: answers stay
/// bit-identical to the direct run whether or not a query waited for its
/// slot, and the batcher's counters account for every request exactly
/// once however many searches updated them.
#[test]
fn concurrent_coalesced_responses_match_the_direct_engine() {
    let engine = common::build_engine(240, 5);
    let expected = Arc::new(direct(&engine));
    let registry = Arc::new(IndexRegistry::new());
    registry.register("main", engine, ENTRY).unwrap();
    let server = Server::bind("127.0.0.1:0", registry, ServeConfig::default()).unwrap();
    let addr = server.local_addr();

    let queries = Arc::new(common::queries(40, 9));
    const CLIENTS: usize = 8;
    const ROUNDS: usize = 3;
    let workers: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let queries = Arc::clone(&queries);
            let expected = Arc::clone(&expected);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for round in 0..ROUNDS {
                    for (i, q) in queries.iter().enumerate() {
                        let reply = client.query("main", q, EF, K).unwrap();
                        assert_reply_matches(
                            &reply,
                            &expected.outcomes[i],
                            &format!("client {c}, round {round}, query {i}"),
                        );
                    }
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("client thread panicked");
    }

    let stats = server.stats();
    assert_eq!(stats.requests, (CLIENTS * ROUNDS * queries.len()) as u64);
    assert_eq!(
        stats.batches, stats.requests,
        "one search per request: {stats:?}"
    );
    assert_eq!(stats.coalesced_batches, 0);
    assert!(stats.waited <= stats.requests, "{stats:?}");
    assert_eq!(stats.shed, 0);
}

/// Batched and unbatched servers produce identical responses for the same
/// requests — batching is a scheduling decision, not a semantic one.
#[test]
fn batched_and_unbatched_servers_agree() {
    let engine = common::build_engine(240, 5);
    let queries = common::queries(40, 9);
    let mut replies = Vec::new();
    for batching in [true, false] {
        let registry = Arc::new(IndexRegistry::new());
        registry.register("main", engine.clone(), ENTRY).unwrap();
        let config = ServeConfig {
            batching,
            ..ServeConfig::default()
        };
        let server = Server::bind("127.0.0.1:0", registry, config).unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();
        replies.push(
            queries
                .iter()
                .map(|q| {
                    let r = client.query("main", q, EF, K).unwrap();
                    (common::results_bits(&r.results), r.dist_comps, r.expansions)
                })
                .collect::<Vec<_>>(),
        );
    }
    assert_eq!(replies[0], replies[1]);
}
