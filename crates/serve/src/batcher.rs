//! Micro-batching: coalescing concurrent single queries into one
//! `batch_beam_detailed` dispatch.
//!
//! Every connection thread that receives a query enqueues a [`Pending`]
//! and blocks on its private reply channel. A single dispatcher thread
//! drains the queue — everything that accumulated while the previous batch
//! ran, up to `max_batch` — groups the drained requests by
//! `(index generation, ef, k)`, and runs **one**
//! [`batch_beam_detailed`](pg_core::AnyEngine::batch_beam_detailed) call
//! per group. Under concurrent load the queue naturally holds several
//! requests by the time the dispatcher returns, so per-dispatch overhead
//! (thread-pool entry, engine resolution) amortizes across the batch; this
//! is the classic closed-loop coalescing effect, measured by `exp_serve`.
//!
//! Two properties make coalescing safe:
//!
//! * **Answers cannot change.** `batch_beam_detailed` runs each query
//!   independently — outcome `i` is exactly `beam_search_detailed(graph,
//!   data, starts[i], &queries[i], ef, k)` — so a query answered in a batch of 40 returns
//!   bit-identical results to the same query answered alone (pinned by
//!   `tests/equivalence.rs`).
//! * **Hot-swap atomicity is preserved.** The serving generation is
//!   resolved at *enqueue* time and carried in the [`Pending`]: a swap that
//!   lands while a request waits in the queue does not retarget it, so
//!   every answer is attributable to exactly one snapshot epoch.
//!
//! Two robustness properties ride on top (see ARCHITECTURE.md § "Failure
//! model"):
//!
//! * **The queue is bounded.** Admission past `max_queue` waiting requests
//!   is refused with [`ServeError::Overloaded`] *before* the request costs
//!   anything — load shedding instead of unbounded memory growth and
//!   unbounded latency under overload.
//! * **Panics are contained.** Engine dispatch runs under
//!   `catch_unwind`: a panicking worker costs its own batch group a typed
//!   [`ServeError::WorkerPanicked`] reply, while the dispatcher thread,
//!   the other groups, and everything still queued proceed normally —
//!   shutdown still drains every accepted request.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use pg_metric::FlatRow;

use crate::error::ServeError;
use crate::protocol::QueryReply;
use crate::registry::ServingIndex;
use crate::sites;

/// One enqueued query: the generation that will answer it (resolved at
/// enqueue time), the query itself, and the channel the caller blocks on.
pub struct Pending {
    /// The snapshot generation this query is pinned to.
    pub index: Arc<ServingIndex>,
    /// The query point.
    pub query: FlatRow,
    /// Beam width.
    pub ef: u32,
    /// Result count.
    pub k: u32,
    /// Where the dispatcher sends the answer.
    pub reply: mpsc::Sender<Result<QueryReply, ServeError>>,
}

impl std::fmt::Debug for Pending {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pending")
            .field("epoch", &self.index.epoch())
            .field("ef", &self.ef)
            .field("k", &self.k)
            .finish_non_exhaustive()
    }
}

/// Answers one query directly on its pinned generation — the unbatched
/// serving path, and the per-request body the dispatcher replicates per
/// batch group. Keeping it as the single shared implementation is what
/// makes batched and unbatched responses structurally identical.
pub fn run_single(index: &ServingIndex, query: FlatRow, ef: u32, k: u32) -> QueryReply {
    let starts = [index.entry()];
    let queries = [query];
    let detail = index
        .engine()
        .batch_beam_detailed(&starts, &queries, ef as usize, k as usize);
    let outcome = detail.outcomes.into_iter().next().expect("one query in");
    QueryReply {
        epoch: index.epoch(),
        dist_comps: outcome.dist_comps,
        expansions: outcome.expansions,
        results: outcome.results,
    }
}

/// [`run_single`] with panic containment: an engine panic (or an injected
/// `serve.engine.dispatch` fault) becomes a typed error instead of a dead
/// connection thread. The unbatched serving path goes through here, so
/// both paths honor the same never-panic contract the dispatcher does.
pub fn run_protected(
    index: &ServingIndex,
    query: FlatRow,
    ef: u32,
    k: u32,
) -> Result<QueryReply, ServeError> {
    match catch_unwind(AssertUnwindSafe(|| {
        crate::failpoint(sites::ENGINE_DISPATCH)?;
        Ok(run_single(index, query, ef, k))
    })) {
        Ok(result) => result,
        Err(_) => Err(ServeError::WorkerPanicked),
    }
}

/// Re-creates an error per batch-group member (a [`ServeError`] holding an
/// `io::Error` is not `Clone`). Only the variants the dispatch path can
/// produce need faithful copies.
fn replicate(e: &ServeError) -> ServeError {
    match e {
        ServeError::Io(io) => ServeError::Io(std::io::Error::new(io.kind(), io.to_string())),
        ServeError::WorkerPanicked => ServeError::WorkerPanicked,
        ServeError::Overloaded => ServeError::Overloaded,
        ServeError::ShuttingDown => ServeError::ShuttingDown,
        other => ServeError::Io(std::io::Error::other(other.to_string())),
    }
}

#[derive(Debug, Default)]
struct StatsInner {
    requests: AtomicU64,
    batches: AtomicU64,
    coalesced_batches: AtomicU64,
    max_batch: AtomicU64,
    shed: AtomicU64,
}

/// A point-in-time snapshot of the dispatcher's counters — how `exp_serve`
/// and the equivalence tests assert that coalescing actually happened
/// (rather than every query riding alone in a batch of one).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BatcherStats {
    /// Queries answered through the queue.
    pub requests: u64,
    /// `batch_beam_detailed` dispatches issued.
    pub batches: u64,
    /// Dispatches that coalesced more than one query.
    pub coalesced_batches: u64,
    /// Largest single dispatch.
    pub max_batch: u64,
    /// Requests refused with [`ServeError::Overloaded`] because the queue
    /// was at capacity (load shedding; never counted in `requests`).
    pub shed: u64,
}

#[derive(Debug)]
struct Shared {
    queue: Mutex<Vec<Pending>>,
    available: Condvar,
    shutdown: AtomicBool,
    stats: StatsInner,
    max_queue: usize,
}

/// The dispatcher: one worker thread draining the shared queue. Dropping
/// the batcher shuts the worker down after it has answered everything
/// still queued — shutdown never drops an accepted request.
#[derive(Debug)]
pub struct Batcher {
    shared: Arc<Shared>,
    worker: Option<JoinHandle<()>>,
}

impl Batcher {
    /// Starts the dispatcher thread. `max_batch` caps how many queued
    /// requests one dispatch may coalesce (bounding per-batch latency);
    /// `max_queue` caps how many requests may wait in the queue at once —
    /// a submission that would exceed it is refused with
    /// [`ServeError::Overloaded`] instead of queueing without bound
    /// (load shedding). `max_queue == 0` sheds *everything*: lame-duck
    /// mode, useful for drains and for deterministic overload tests.
    pub fn start(max_batch: usize, max_queue: usize) -> Self {
        assert!(max_batch >= 1, "max_batch must be at least 1");
        let shared = Arc::new(Shared {
            queue: Mutex::new(Vec::new()),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
            stats: StatsInner::default(),
            max_queue,
        });
        let worker_shared = Arc::clone(&shared);
        let worker = std::thread::Builder::new()
            .name("pg-serve-batcher".into())
            .spawn(move || dispatch_loop(&worker_shared, max_batch))
            .expect("spawning the dispatcher thread");
        Batcher {
            shared,
            worker: Some(worker),
        }
    }

    /// Enqueues a query and wakes the dispatcher. Fails with
    /// [`ServeError::ShuttingDown`] once shutdown has begun and with
    /// [`ServeError::Overloaded`] when the queue is at capacity — shed
    /// requests are refused *before* queueing, so they cost the server
    /// nothing and are always safe to retry.
    pub fn submit(&self, pending: Pending) -> Result<(), ServeError> {
        queue_failpoint()?;
        let mut queue = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
        if self.shared.shutdown.load(Ordering::Acquire) {
            return Err(ServeError::ShuttingDown);
        }
        if queue.len() >= self.shared.max_queue {
            self.shared.stats.shed.fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::Overloaded);
        }
        queue.push(pending);
        drop(queue);
        self.shared.available.notify_one();
        Ok(())
    }

    /// Enqueues several queries under one lock acquisition, then wakes the
    /// dispatcher once. Because the dispatcher only drains while holding
    /// the same lock, everything submitted here lands in the queue
    /// together — so the group is **guaranteed** to coalesce (in chunks of
    /// at most `max_batch`), which makes batching effects testable without
    /// racing the dispatcher.
    /// Admission is all-or-nothing: a group that would push the queue past
    /// capacity is refused whole with [`ServeError::Overloaded`] (partial
    /// admission would silently break the coalescing guarantee).
    pub fn submit_many(&self, pendings: Vec<Pending>) -> Result<(), ServeError> {
        queue_failpoint()?;
        let mut queue = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
        if self.shared.shutdown.load(Ordering::Acquire) {
            return Err(ServeError::ShuttingDown);
        }
        if queue.len().saturating_add(pendings.len()) > self.shared.max_queue {
            self.shared
                .stats
                .shed
                .fetch_add(pendings.len() as u64, Ordering::Relaxed);
            return Err(ServeError::Overloaded);
        }
        queue.extend(pendings);
        drop(queue);
        self.shared.available.notify_one();
        Ok(())
    }

    /// Enqueues a query and blocks until its answer arrives — the
    /// convenience wrapper connection handlers use.
    pub fn run(
        &self,
        index: Arc<ServingIndex>,
        query: FlatRow,
        ef: u32,
        k: u32,
    ) -> Result<QueryReply, ServeError> {
        let (tx, rx) = mpsc::channel();
        self.submit(Pending {
            index,
            query,
            ef,
            k,
            reply: tx,
        })?;
        match rx.recv() {
            Ok(result) => result,
            // The dispatcher dropped the sender without replying. With
            // panic containment in `run_batch` every drained request gets
            // an answer, so this is a should-not-happen backstop, kept as
            // a typed error rather than a panic.
            Err(_) => Err(ServeError::ShuttingDown),
        }
    }

    /// Snapshot of the coalescing counters.
    pub fn stats(&self) -> BatcherStats {
        let s = &self.shared.stats;
        BatcherStats {
            requests: s.requests.load(Ordering::Relaxed),
            batches: s.batches.load(Ordering::Relaxed),
            coalesced_batches: s.coalesced_batches.load(Ordering::Relaxed),
            max_batch: s.max_batch.load(Ordering::Relaxed),
            shed: s.shed.load(Ordering::Relaxed),
        }
    }
}

impl Drop for Batcher {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.available.notify_all();
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

fn dispatch_loop(shared: &Shared, max_batch: usize) {
    loop {
        let drained: Vec<Pending> = {
            let mut queue = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if !queue.is_empty() {
                    break;
                }
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                queue = shared
                    .available
                    .wait(queue)
                    .unwrap_or_else(|e| e.into_inner());
            }
            let take = queue.len().min(max_batch);
            queue.drain(..take).collect()
        };
        record_batch(&shared.stats, drained.len());
        run_batch(drained);
    }
}

fn record_batch(stats: &StatsInner, size: usize) {
    stats.requests.fetch_add(size as u64, Ordering::Relaxed);
    stats.batches.fetch_add(1, Ordering::Relaxed);
    if size > 1 {
        stats.coalesced_batches.fetch_add(1, Ordering::Relaxed);
    }
    stats.max_batch.fetch_max(size as u64, Ordering::Relaxed);
}

/// Groups a drained batch by `(generation, ef, k)` and issues one engine
/// dispatch per group, then routes each answer back to its requester.
fn run_batch(drained: Vec<Pending>) {
    // Group while preserving arrival order within each group. The key is
    // the generation's pointer identity: two requests pinned to the same
    // Arc<ServingIndex> share an engine, an entry point, and an epoch.
    let mut groups: Vec<(usize, u32, u32, Vec<Pending>)> = Vec::new();
    for p in drained {
        let key = Arc::as_ptr(&p.index) as usize;
        match groups
            .iter_mut()
            .find(|(ptr, ef, k, _)| *ptr == key && *ef == p.ef && *k == p.k)
        {
            Some((_, _, _, members)) => members.push(p),
            None => groups.push((key, p.ef, p.k, vec![p])),
        }
    }
    for (_, ef, k, members) in groups {
        let index = Arc::clone(&members[0].index);
        // Panic containment: an engine panic (or injected dispatch fault)
        // must cost this group a typed error, never the dispatcher thread
        // — a dead dispatcher would hang every queued and future caller.
        let dispatched = match catch_unwind(AssertUnwindSafe(|| {
            crate::failpoint(sites::ENGINE_DISPATCH)?;
            let starts = vec![index.entry(); members.len()];
            let queries: Vec<FlatRow> = members.iter().map(|p| p.query.clone()).collect();
            Ok(index
                .engine()
                .batch_beam_detailed(&starts, &queries, ef as usize, k as usize))
        })) {
            Ok(result) => result,
            Err(_) => Err(ServeError::WorkerPanicked),
        };
        match dispatched {
            Ok(detail) => {
                for (pending, outcome) in members.into_iter().zip(detail.outcomes) {
                    // A send failure means the requester hung up (connection
                    // died while waiting); the answer is simply discarded.
                    let _ = pending.reply.send(Ok(QueryReply {
                        epoch: index.epoch(),
                        dist_comps: outcome.dist_comps,
                        expansions: outcome.expansions,
                        results: outcome.results,
                    }));
                }
            }
            Err(err) => {
                for pending in members {
                    let _ = pending.reply.send(Err(replicate(&err)));
                }
            }
        }
    }
}

/// The queue-admission failpoint: a fired `serve.batcher.queue` fault is
/// treated as "queue at capacity" and shed. Compiled to a no-op without
/// the `failpoints` feature.
#[cfg(feature = "failpoints")]
fn queue_failpoint() -> Result<(), ServeError> {
    if pg_fault::hit(sites::BATCH_QUEUE).is_some() {
        return Err(ServeError::Overloaded);
    }
    Ok(())
}

#[cfg(not(feature = "failpoints"))]
#[inline(always)]
fn queue_failpoint() -> Result<(), ServeError> {
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::IndexRegistry;
    use pg_core::engine::QueryEngine;
    use pg_core::GNet;
    use pg_metric::{Euclidean, FlatPoints};

    fn serving() -> Arc<ServingIndex> {
        let mut points = FlatPoints::new(2);
        for i in 0..40 {
            points.push(&[i as f64, (i % 7) as f64]);
        }
        let data = points.into_dataset(Euclidean);
        let pg = GNet::build(&data, 1.0);
        let engine = QueryEngine::new(pg.graph, data);
        let registry = IndexRegistry::new();
        registry.register("m", engine, 0).unwrap();
        registry.get("m").unwrap()
    }

    fn pending(
        index: &Arc<ServingIndex>,
        x: f64,
    ) -> (Pending, mpsc::Receiver<Result<QueryReply, ServeError>>) {
        let (tx, rx) = mpsc::channel();
        (
            Pending {
                index: Arc::clone(index),
                query: FlatRow::from(vec![x, 1.0]),
                ef: 8,
                k: 2,
                reply: tx,
            },
            rx,
        )
    }

    /// A thread that panics while holding the queue mutex poisons it; the
    /// `unwrap_or_else(|e| e.into_inner())` recovery on every lock site
    /// must keep both submission and dispatch alive afterwards.
    #[test]
    fn poisoned_queue_mutex_recovers() {
        let batcher = Batcher::start(4, 64);
        let index = serving();
        let shared = Arc::clone(&batcher.shared);
        let poisoner = std::thread::spawn(move || {
            let _guard = shared.queue.lock().unwrap();
            panic!("poison the queue mutex on purpose");
        });
        assert!(poisoner.join().is_err(), "poisoner must panic");
        let reply = batcher
            .run(Arc::clone(&index), FlatRow::from(vec![3.0, 1.0]), 8, 2)
            .expect("a poisoned queue mutex must not break serving");
        assert_eq!(reply.results.len(), 2);
        let reply2 = batcher
            .run(index, FlatRow::from(vec![17.0, 2.0]), 8, 2)
            .expect("and it stays recovered");
        assert_eq!(reply2.results.len(), 2);
    }

    /// Dropping the batcher with work still queued must answer everything
    /// first — shutdown never drops an accepted request.
    #[test]
    fn shutdown_drains_every_queued_request() {
        let batcher = Batcher::start(1, 1024);
        let index = serving();
        let mut receivers = Vec::new();
        let mut group = Vec::new();
        for i in 0..50 {
            let (p, rx) = pending(&index, i as f64);
            group.push(p);
            receivers.push(rx);
        }
        batcher.submit_many(group).unwrap();
        drop(batcher);
        for (i, rx) in receivers.into_iter().enumerate() {
            let reply = rx
                .recv()
                .unwrap_or_else(|_| panic!("request {i} was dropped at shutdown"));
            assert!(reply.is_ok(), "request {i} must succeed, got {reply:?}");
        }
    }

    /// `max_queue == 0` is lame-duck mode: every submission is shed with
    /// `Overloaded` before costing anything, and the shed counter says so.
    #[test]
    fn zero_capacity_queue_sheds_deterministically() {
        let batcher = Batcher::start(4, 0);
        let index = serving();
        let (p, _rx) = pending(&index, 1.0);
        assert!(matches!(batcher.submit(p), Err(ServeError::Overloaded)));
        let (p1, _rx1) = pending(&index, 2.0);
        let (p2, _rx2) = pending(&index, 3.0);
        assert!(matches!(
            batcher.submit_many(vec![p1, p2]),
            Err(ServeError::Overloaded)
        ));
        let stats = batcher.stats();
        assert_eq!(stats.shed, 3);
        assert_eq!(stats.requests, 0, "shed requests never count as served");
    }
}
