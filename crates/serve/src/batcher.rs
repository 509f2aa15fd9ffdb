//! Group dispatch: a query is answered on the thread that received it.
//!
//! The batcher has **no thread of its own**. Under one mutex it keeps a
//! bounded FIFO of waiting queries and a count of held **search slots**
//! (one per core, read once from `available_parallelism` at start). A
//! connection thread calling [`Batcher::run`] passes admission and then
//! plays one of two roles:
//!
//! * **Leader** — a slot is free. The thread takes it and answers its own
//!   query on its own stack: no channel, no clone, nobody to wake. With
//!   connections ≤ cores this is the direct path plus one uncontended
//!   lock, and different connections search in parallel.
//! * **Follower** — every slot is held. The thread enqueues a [`Pending`]
//!   and blocks on its private channel.
//!
//! A leader that finishes with followers waiting **hands its slot off**:
//! it takes up to `max_batch` of the queue and wakes the head follower
//! with that group ([`Wake::Lead`]), then returns its own reply at once —
//! it never serves later arrivals ahead of its own caller. The new leader
//! answers the group member by member, FIFO, on its own thread (one
//! wake-up per group; parallelism comes from concurrent leaders, never
//! from inside a group). With the queue empty the slot is simply released.
//!
//! The invariant that rules out a lost wake-up: **queue non-empty ⇒ every
//! slot is held.** Both transitions — "enqueue because no slot is free"
//! and "release a slot because nobody waits" — happen under the one state
//! mutex, and a hand-off keeps the slot held while it changes owner, so a
//! follower always has a leader that will either answer it or hand over.
//! A leader never holds the mutex while it searches.
//!
//! What this preserves:
//!
//! * **Answers cannot change.** Every member of a group is answered by
//!   [`run_protected`] — the same call the unbatched path makes — so a
//!   query answered in a group of 40 returns bit-identical results to the
//!   same query answered alone (pinned by `tests/equivalence.rs`).
//! * **Hot-swap atomicity.** The serving generation is resolved *before*
//!   admission and travels with the query: a swap that lands while a
//!   request waits does not retarget it, so every answer is attributable
//!   to exactly one snapshot epoch.
//! * **The queue is bounded.** Admission past `max_queue` waiting queries
//!   is refused with [`ServeError::Overloaded`] before the request costs
//!   anything; `max_queue == 0` sheds everything (lame-duck).
//! * **Panics are contained per request.** [`run_protected`] turns an
//!   engine panic into [`ServeError::WorkerPanicked`] for exactly the
//!   request that hit it; the slot itself is a drop guard, so even an
//!   unwind past it hands off or releases instead of stranding followers.
//! * **Shutdown drains.** Dropping the batcher answers anything still
//!   queued on the dropping thread (see ARCHITECTURE.md § "Failure
//!   model").

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc, Mutex, MutexGuard};

use pg_metric::FlatRow;

use crate::error::ServeError;
use crate::protocol::QueryReply;
use crate::registry::ServingIndex;
use crate::sites;

/// One waiting query: the generation that will answer it (resolved before
/// admission), the query itself, and the channel its owner blocks on.
pub struct Pending {
    /// The snapshot generation this query is pinned to.
    pub index: Arc<ServingIndex>,
    /// The query point.
    pub query: FlatRow,
    /// Beam width.
    pub ef: u32,
    /// Result count.
    pub k: u32,
    /// Where the answer — or the slot — goes.
    pub reply: mpsc::Sender<Wake>,
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

/// What a waiting query's channel receives, exactly once.
#[derive(Debug)]
pub enum Wake {
    /// A leader answered it.
    Answer(Result<QueryReply, ServeError>),
    /// A finishing leader handed over its search slot: the receiver now
    /// leads — it answers its own query (handed back, first) and then the
    /// rest of the group, in arrival order, on its own thread.
    Lead(Pending, VecDeque<Pending>),
}

/// Answers one query directly on its pinned generation — the single
/// implementation behind the unbatched path and every group member, which
/// is what makes batched and unbatched responses structurally identical.
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
/// `serve.engine.dispatch` fault) becomes a typed error for this one
/// request instead of a dead connection thread.
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

/// Answers waiting queries in order on the calling thread.
fn answer(group: impl IntoIterator<Item = Pending>) {
    for p in group {
        let result = run_protected(&p.index, p.query, p.ef, p.k);
        // A send failure means the requester hung up while waiting; the
        // answer is simply discarded.
        let _ = p.reply.send(Wake::Answer(result));
    }
}

/// The batcher's counters. Every field is updated under the state mutex —
/// `requests` and `shed` at admission, the rest when a group's slot is
/// handed off or released — so a snapshot is coherent no matter how many
/// leaders run at once.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BatcherStats {
    /// Queries admitted through [`Batcher::run`] (leaders' own and
    /// followers). Each is answered exactly once, so with nothing in
    /// flight this is the number of queries answered.
    pub requests: u64,
    /// Groups answered. A lone leader is a group of one.
    pub batches: u64,
    /// Groups of more than one query.
    pub coalesced_batches: u64,
    /// Largest group.
    pub max_batch: u64,
    /// Queries refused with [`ServeError::Overloaded`] at admission;
    /// never counted in `requests`.
    pub shed: u64,
    /// The sum of the sizes of all groups answered — equal to `requests`
    /// whenever nothing is in flight.
    pub answered: u64,
}

#[derive(Debug, Default)]
struct State {
    /// Admitted queries no leader has taken yet, in arrival order.
    queue: VecDeque<Pending>,
    /// Search slots currently held by a leader. Invariant: the queue is
    /// non-empty only while `held == slots`.
    held: usize,
    /// Set by `Drop`; checked first at admission. `Drop`'s `&mut self`
    /// already excludes a concurrent `run`, so nothing observes it set
    /// today — the check stays so that admission order (`ShuttingDown`
    /// before `Overloaded`) does not depend on who owns the batcher.
    shutdown: bool,
    stats: BatcherStats,
}

impl State {
    /// Removes up to `max` queries from the head of the queue.
    fn take(&mut self, max: usize) -> VecDeque<Pending> {
        let n = self.queue.len().min(max);
        self.queue.drain(..n).collect()
    }

    fn record_group(&mut self, size: usize) {
        let size = size as u64;
        self.stats.answered += size;
        self.stats.batches += 1;
        self.stats.coalesced_batches += u64::from(size > 1);
        self.stats.max_batch = self.stats.max_batch.max(size);
    }
}

/// The leader/follower scheduler. It owns no thread: every query is
/// answered by a thread that called [`Batcher::run`] (or, for anything
/// still queued at shutdown, by the thread that drops the batcher).
#[derive(Debug)]
pub struct Batcher {
    state: Mutex<State>,
    slots: usize,
    max_batch: usize,
    max_queue: usize,
}

/// A held search slot covering a group of `group` queries. Dropping it —
/// on return or during an unwind — records the group and then hands the
/// slot to the head follower or, with nobody waiting, releases it.
struct Slot<'a> {
    batcher: &'a Batcher,
    group: usize,
}

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        let mut state = self.batcher.lock();
        state.record_group(self.group);
        let Some(head) = state.queue.pop_front() else {
            state.held -= 1;
            return;
        };
        // Hand-off: the slot stays held while it changes owner. The head
        // of the queue is a thread blocked in `run`, so the send cannot
        // fail; it is woken once, for the whole group.
        let rest = state.take(self.batcher.max_batch - 1);
        drop(state);
        let to = head.reply.clone();
        let _ = to.send(Wake::Lead(head, rest));
    }
}

impl Batcher {
    /// Creates the scheduler with one search slot per core. `max_batch`
    /// caps how many queries one group may hold (bounding how long a
    /// hand-off keeps its new leader busy); `max_queue` caps how many
    /// queries may wait at once — a submission that would exceed it is
    /// refused with [`ServeError::Overloaded`] instead of queueing without
    /// bound. `max_queue == 0` sheds *everything*: lame-duck mode, useful
    /// for drains and for deterministic overload tests.
    pub fn start(max_batch: usize, max_queue: usize) -> Self {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        Self::with_slots(max_batch, max_queue, cores)
    }

    /// [`Batcher::start`] with the slot count pinned. Test hook: one slot
    /// makes "every slot is held" reachable with a single stalled leader.
    #[doc(hidden)]
    pub fn with_slots(max_batch: usize, max_queue: usize, slots: usize) -> Self {
        assert!(max_batch >= 1, "max_batch must be at least 1");
        assert!(slots >= 1, "a batcher needs at least one search slot");
        Batcher {
            state: Mutex::default(),
            slots,
            max_batch,
            max_queue,
        }
    }

    /// Every update leaves `State` valid at each step, so a mutex poisoned
    /// by a panicking holder is simply recovered.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Admission for `n` queries, all or nothing: [`ServeError::ShuttingDown`]
    /// once shutdown has begun, then [`ServeError::Overloaded`] when the
    /// queue cannot take them. Refused queries cost the server nothing and
    /// are always safe to retry.
    fn admit(&self, state: &mut State, n: usize) -> Result<(), ServeError> {
        if state.shutdown {
            return Err(ServeError::ShuttingDown);
        }
        if state.queue.len().saturating_add(n) > self.max_queue {
            state.stats.shed += n as u64;
            return Err(ServeError::Overloaded);
        }
        state.stats.requests += n as u64;
        Ok(())
    }

    /// Answers one query, blocking until its answer exists: as a leader
    /// on this thread when a search slot is free, otherwise as a follower
    /// of whichever leader takes it (see the module docs).
    pub fn run(
        &self,
        index: Arc<ServingIndex>,
        query: FlatRow,
        ef: u32,
        k: u32,
    ) -> Result<QueryReply, ServeError> {
        queue_failpoint()?;
        let mut state = self.lock();
        self.admit(&mut state, 1)?;
        if state.held == self.slots {
            let (reply, woken) = mpsc::channel();
            state.queue.push_back(Pending {
                index,
                query,
                ef,
                k,
                reply,
            });
            drop(state);
            return match woken.recv() {
                Ok(Wake::Answer(result)) => result,
                Ok(Wake::Lead(own, rest)) => {
                    let _slot = Slot {
                        batcher: self,
                        group: 1 + rest.len(),
                    };
                    let result = run_protected(&own.index, own.query, own.ef, own.k);
                    answer(rest);
                    result
                }
                // A leader dropped this query unanswered. Every taken
                // query is answered, so this is a should-not-happen
                // backstop, kept as a typed error rather than a panic.
                Err(_) => Err(ServeError::ShuttingDown),
            };
        }
        state.held += 1;
        // With a slot free the queue is empty unless `submit_many` parked
        // something; whatever waits arrived first and is answered first.
        let waiting = state.take(self.max_batch - 1);
        drop(state);
        let _slot = Slot {
            batcher: self,
            group: waiting.len() + 1,
        };
        answer(waiting);
        run_protected(&index, query, ef, k)
    }

    /// Parks queries in the queue with no thread behind them: they are
    /// answered by the next thread to take a slot (together with its own
    /// query, as one group) or by `Drop`. Test hook — it makes group
    /// effects deterministic without racing real followers. A parked query
    /// cannot lead, so park no more than one leader takes at once
    /// (`max_batch - 1`) unless `Drop` is what will answer them.
    /// Admission is all-or-nothing: a group that would push the queue past
    /// capacity is refused whole with [`ServeError::Overloaded`].
    #[doc(hidden)]
    pub fn submit_many(&self, pendings: Vec<Pending>) -> Result<(), ServeError> {
        queue_failpoint()?;
        let mut state = self.lock();
        self.admit(&mut state, pendings.len())?;
        state.queue.extend(pendings);
        Ok(())
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> BatcherStats {
        self.lock().stats
    }
}

impl Drop for Batcher {
    /// `&mut self` means no `run` is in flight, so anything still queued
    /// was parked: it is answered here, on the dropping thread — shutdown
    /// never drops an admitted query.
    fn drop(&mut self) {
        let max_batch = self.max_batch;
        let state = self.state.get_mut().unwrap_or_else(|e| e.into_inner());
        state.shutdown = true;
        while !state.queue.is_empty() {
            let group = state.take(max_batch);
            state.record_group(group.len());
            answer(group);
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

    fn query(x: f64) -> FlatRow {
        FlatRow::from(vec![x, 1.0])
    }

    fn pending(index: &Arc<ServingIndex>, x: f64, reply: &mpsc::Sender<Wake>) -> Pending {
        Pending {
            index: Arc::clone(index),
            query: query(x),
            ef: 8,
            k: 2,
            reply: reply.clone(),
        }
    }

    /// The answer a parked query's channel received.
    fn answer_of(wake: Wake) -> Result<QueryReply, ServeError> {
        match wake {
            Wake::Answer(result) => result,
            Wake::Lead(..) => panic!("a parked query has no thread to lead"),
        }
    }

    /// Bit-exact view of a reply: ids, distance bits, and both counters.
    fn bits(reply: &QueryReply) -> (Vec<(u32, u64)>, u64, u64) {
        let results = reply.results.iter().map(|&(id, d)| (id, d.to_bits()));
        (results.collect(), reply.dist_comps, reply.expansions)
    }

    /// A thread that panics while holding the state mutex poisons it; the
    /// `into_inner` recovery in `lock` must keep admission, search and
    /// slot release alive afterwards.
    #[test]
    fn poisoned_queue_mutex_recovers() {
        let batcher = Batcher::start(4, 64);
        let index = serving();
        std::thread::scope(|scope| {
            let poisoner = scope.spawn(|| {
                let _guard = batcher.state.lock().unwrap();
                panic!("poison the state mutex on purpose");
            });
            assert!(poisoner.join().is_err(), "poisoner must panic");
        });
        assert!(batcher.state.is_poisoned());
        let reply = batcher
            .run(Arc::clone(&index), query(3.0), 8, 2)
            .expect("a poisoned state mutex must not break serving");
        assert_eq!(reply.results.len(), 2);
        let reply2 = batcher
            .run(index, query(17.0), 8, 2)
            .expect("and it stays recovered");
        assert_eq!(reply2.results.len(), 2);
    }

    /// Dropping the batcher with work still queued must answer everything
    /// first — shutdown never drops an accepted request.
    #[test]
    fn shutdown_drains_every_queued_request() {
        let batcher = Batcher::start(1, 1024);
        let index = serving();
        let (tx, rx) = mpsc::channel();
        let group = (0..50).map(|i| pending(&index, i as f64, &tx)).collect();
        batcher.submit_many(group).unwrap();
        drop(batcher);
        drop(tx);
        let replies: Vec<_> = rx.iter().map(answer_of).collect();
        assert_eq!(replies.len(), 50, "a request was dropped at shutdown");
        for (i, reply) in replies.iter().enumerate() {
            assert!(reply.is_ok(), "request {i} must succeed, got {reply:?}");
        }
    }

    /// `max_queue == 0` is lame-duck mode: every submission is shed with
    /// `Overloaded` before costing anything — free slots or not — and the
    /// shed counter says so.
    #[test]
    fn zero_capacity_queue_sheds_deterministically() {
        let batcher = Batcher::start(4, 0);
        let index = serving();
        assert!(matches!(
            batcher.run(Arc::clone(&index), query(1.0), 8, 2),
            Err(ServeError::Overloaded)
        ));
        let (tx, _rx) = mpsc::channel();
        assert!(matches!(
            batcher.submit_many(vec![pending(&index, 2.0, &tx), pending(&index, 3.0, &tx)]),
            Err(ServeError::Overloaded)
        ));
        let stats = batcher.stats();
        assert_eq!(stats.shed, 3);
        assert_eq!(stats.requests, 0, "shed requests never count as served");
        assert_eq!(stats.batches, 0);
    }

    /// A thread that takes a slot answers what already waits — FIFO, as
    /// one group with its own query — and every answer is the one
    /// `run_single` gives.
    #[test]
    fn a_leader_answers_the_waiting_queue_in_arrival_order() {
        let batcher = Batcher::with_slots(8, 64, 1);
        let index = serving();
        // One shared channel: its receive order is the answer order.
        let (tx, rx) = mpsc::channel();
        let parked = [5.0, 31.0, 12.0];
        let group = parked.iter().map(|&x| pending(&index, x, &tx)).collect();
        batcher.submit_many(group).unwrap();
        let own = batcher.run(Arc::clone(&index), query(20.0), 8, 2).unwrap();
        assert_eq!(bits(&own), bits(&run_single(&index, query(20.0), 8, 2)));
        for &x in &parked {
            let reply = answer_of(rx.try_recv().expect("answered before the leader returns"));
            assert_eq!(
                bits(&reply.unwrap()),
                bits(&run_single(&index, query(x), 8, 2)),
                "parked query {x} answered out of order or wrongly"
            );
        }
        let stats = batcher.stats();
        assert_eq!((stats.requests, stats.answered), (4, 4));
        assert_eq!((stats.batches, stats.coalesced_batches), (1, 1));
        assert_eq!(stats.max_batch, 4);
    }

    /// The new failure mode is a hang, so hammer the narrowest
    /// configuration: one slot, 16 threads, 200 calls each. Every call
    /// must return the `run_single` answer and the counters must account
    /// for every call exactly once. The test thread leads first — `run`'s
    /// leader path by hand, searching only once all 16 first calls have
    /// queued — so followers are guaranteed to have formed groups.
    #[test]
    fn one_slot_under_sixteen_threads_answers_every_call_exactly_once() {
        const THREADS: usize = 16;
        const CALLS: usize = 200;
        let batcher = Batcher::with_slots(8, 1024, 1);
        let index = serving();
        let expected: Vec<_> = (0..40)
            .map(|x| bits(&run_single(&index, query(x as f64), 8, 2)))
            .collect();
        {
            let mut state = batcher.lock();
            batcher.admit(&mut state, 1).unwrap();
            state.held += 1;
        }
        let slot = Slot {
            batcher: &batcher,
            group: 1,
        };
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let (batcher, index, expected) = (&batcher, &index, &expected);
                scope.spawn(move || {
                    for call in 0..CALLS {
                        let x = (t * 7 + call) % 40;
                        let reply = batcher
                            .run(Arc::clone(index), query(x as f64), 8, 2)
                            .unwrap_or_else(|e| panic!("thread {t}, call {call}: {e}"));
                        assert_eq!(bits(&reply), expected[x], "thread {t}, call {call}");
                    }
                });
            }
            while batcher.lock().queue.len() < THREADS {
                std::thread::yield_now();
            }
            let own = run_protected(&index, query(0.0), 8, 2).unwrap();
            assert_eq!(bits(&own), expected[0]);
            drop(slot); // hands the slot and the first eight to the head follower
        });
        let stats = batcher.stats();
        let total = (THREADS * CALLS) as u64 + 1;
        assert_eq!(stats.requests, total);
        assert_eq!(stats.answered, total, "group sizes must sum to the calls");
        assert_eq!(stats.shed, 0);
        assert!(stats.batches + stats.coalesced_batches <= total);
        assert!(stats.coalesced_batches >= 2, "16 queued, 8 per group");
        assert_eq!(stats.max_batch, 8);
        let state = batcher.lock();
        assert!(state.queue.is_empty() && state.held == 0, "{state:?}");
    }
}
