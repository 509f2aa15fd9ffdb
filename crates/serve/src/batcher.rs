//! Search slots: a bound on concurrent searches, and nothing else.
//!
//! The batcher has **no thread of its own**. It is a counting semaphore:
//! one mutex over the number of held **search slots** (one per core, read
//! once from `available_parallelism` at start), the number of queries
//! waiting for one, and the counters, plus a [`Condvar`] signalled when
//! a slot is released while someone waits. A connection thread calling
//! [`Batcher::run`] passes admission, waits while every slot is held,
//! takes a slot, and answers its own query on its own stack. With
//! connections ≤ cores that is the direct path plus one uncontended lock.
//!
//! What this preserves:
//!
//! * **Answers cannot change.** Every query is answered by
//!   [`run_protected`] — the same call the unbatched path makes — on the
//!   thread that received it (pinned by `tests/equivalence.rs`).
//! * **Hot-swap atomicity.** The serving generation is resolved *before*
//!   admission and travels with the query: a swap that lands while a
//!   request waits does not retarget it, so every answer is attributable
//!   to exactly one snapshot epoch.
//! * **The wait is bounded.** Admission past `max_queue` waiting queries
//!   is refused with [`ServeError::Overloaded`] before the request costs
//!   anything; `max_queue == 0` sheds everything (lame-duck).
//! * **Panics are contained per request.** [`run_protected`] turns an
//!   engine panic into [`ServeError::WorkerPanicked`] for exactly the
//!   request that hit it, and the slot is a drop guard, so even an unwind
//!   past it releases the slot.
//! * **Shutdown drains by construction.** An admitted query is answered
//!   by the thread that waits on it, so nothing is left to answer when the
//!   batcher goes (see ARCHITECTURE.md § "Failure model").
//!
//! Waiters are not served in arrival order: a released slot goes to
//! whichever thread takes the lock first, which may be a new arrival.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use pg_metric::FlatRow;

use crate::error::ServeError;
use crate::protocol::QueryReply;
use crate::registry::ServingIndex;
use crate::sites;

/// Answers one query directly on its pinned generation — the single
/// implementation behind the batched and the unbatched path, which is
/// what makes their responses structurally identical.
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

/// The batcher's counters, all updated under the state mutex, so a
/// snapshot is coherent however many searches run at once.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BatcherStats {
    /// Queries admitted through [`Batcher::run`]. Each is answered exactly
    /// once, so with nothing in flight this equals `batches`.
    pub requests: u64,
    /// Searches finished — one per admitted query.
    pub batches: u64,
    /// Always 0: every query is answered alone. `pg_ladder` still reads
    /// it for its `batcher.coalesced_frac` row.
    pub coalesced_batches: u64,
    /// Queries refused with [`ServeError::Overloaded`] at admission;
    /// never counted in `requests`.
    pub shed: u64,
    /// Admitted queries that found every slot held and had to wait.
    pub waited: u64,
}

#[derive(Debug, Default)]
struct State {
    /// Search slots currently held.
    held: usize,
    /// Admitted queries waiting for a slot.
    waiting: usize,
    stats: BatcherStats,
}

/// The counting semaphore over search slots. It owns no thread: every
/// query is answered by the thread that called [`Batcher::run`].
#[derive(Debug)]
pub struct Batcher {
    state: Mutex<State>,
    /// Signalled when a slot is released while someone waits.
    released: Condvar,
    slots: usize,
    max_queue: usize,
}

/// A held search slot. Dropping it — on return or during an unwind —
/// counts the finished search, releases the slot and wakes one waiter,
/// if any.
struct Slot<'a>(&'a Batcher);

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        let mut state = self.0.lock();
        state.held -= 1;
        state.stats.batches += 1;
        // A waiter registers under this lock before it sleeps, so with
        // none registered there is nobody to wake — and the uncontended
        // path skips the wake-up system call.
        let waiters = state.waiting > 0;
        drop(state);
        if waiters {
            self.0.released.notify_one();
        }
    }
}

impl Batcher {
    /// Creates the semaphore with one search slot per core. `max_queue`
    /// caps how many queries may wait for a slot at once — an arrival that
    /// would exceed it is refused with [`ServeError::Overloaded`] instead
    /// of waiting without bound. `max_queue == 0` sheds *everything*:
    /// lame-duck mode, useful for drains and for deterministic overload
    /// tests.
    pub fn start(max_queue: usize) -> Self {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        Self::with_slots(max_queue, cores)
    }

    /// [`Batcher::start`] with the slot count pinned. Test hook: one slot
    /// makes "every slot is held" reachable with a single stalled search.
    #[doc(hidden)]
    pub fn with_slots(max_queue: usize, slots: usize) -> Self {
        assert!(slots >= 1, "a batcher needs at least one search slot");
        Batcher {
            state: Mutex::default(),
            released: Condvar::new(),
            slots,
            max_queue,
        }
    }

    /// Every update leaves `State` valid at each step, so a mutex poisoned
    /// by a panicking holder is simply recovered.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Admission, then a slot: [`ServeError::Overloaded`] when `max_queue`
    /// queries already wait (or the `serve.batcher.queue` failpoint fires),
    /// checked before the slots so that `max_queue == 0` sheds even with
    /// slots free; otherwise blocks until a slot is free and takes it.
    fn acquire(&self) -> Result<Slot<'_>, ServeError> {
        let mut state = self.lock();
        if state.waiting >= self.max_queue || queue_fault() {
            state.stats.shed += 1;
            return Err(ServeError::Overloaded);
        }
        state.stats.requests += 1;
        if state.held == self.slots {
            state.stats.waited += 1;
            state.waiting += 1;
            state = self
                .released
                .wait_while(state, |s| s.held == self.slots)
                .unwrap_or_else(|e| e.into_inner());
            state.waiting -= 1;
        }
        state.held += 1;
        Ok(Slot(self))
    }

    /// Answers one query on this thread once a search slot is free (see
    /// the module docs). A refused query cost the server nothing and is
    /// always safe to retry.
    pub fn run(
        &self,
        index: Arc<ServingIndex>,
        query: FlatRow,
        ef: u32,
        k: u32,
    ) -> Result<QueryReply, ServeError> {
        let _slot = self.acquire()?;
        run_protected(&index, query, ef, k)
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> BatcherStats {
        self.lock().stats
    }
}

/// The queue-admission failpoint: a fired `serve.batcher.queue` fault is
/// treated as "queue at capacity" and shed. Compiled to `false` without
/// the `failpoints` feature.
#[cfg(feature = "failpoints")]
fn queue_fault() -> bool {
    pg_fault::hit(sites::BATCH_QUEUE).is_some()
}

#[cfg(not(feature = "failpoints"))]
#[inline(always)]
fn queue_fault() -> bool {
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::IndexRegistry;
    use pg_core::engine::QueryEngine;
    use pg_core::GNet;
    use pg_metric::{Euclidean, FlatPoints};

    /// A 40-point 2-D engine; `shift` moves every other point, so two
    /// shifts give two snapshots that answer differently.
    fn engine(shift: f64) -> QueryEngine<FlatRow, Euclidean> {
        let mut points = FlatPoints::new(2);
        for i in 0..40 {
            let x = i as f64 + if i % 2 == 0 { shift } else { 0.0 };
            points.push(&[x, (i % 7) as f64]);
        }
        let data = points.into_dataset(Euclidean);
        let pg = GNet::build(&data, 1.0);
        QueryEngine::new(pg.graph, data)
    }

    fn serving() -> Arc<ServingIndex> {
        let registry = IndexRegistry::new();
        registry.register("m", engine(0.0), 0).unwrap();
        registry.get("m").unwrap()
    }

    fn query(x: f64) -> FlatRow {
        FlatRow::from(vec![x, 1.0])
    }

    /// Bit-exact view of a reply: ids, distance bits, and both counters.
    fn bits(reply: &QueryReply) -> (Vec<(u32, u64)>, u64, u64) {
        let results = reply.results.iter().map(|&(id, d)| (id, d.to_bits()));
        (results.collect(), reply.dist_comps, reply.expansions)
    }

    /// Spins until `waited` admitted queries have found every slot held.
    fn until_waited(batcher: &Batcher, waited: u64) {
        while batcher.stats().waited < waited {
            std::thread::yield_now();
        }
    }

    /// A thread that panics while holding the state mutex poisons it; the
    /// `into_inner` recovery in `lock` must keep admission, search and
    /// slot release alive afterwards.
    #[test]
    fn poisoned_queue_mutex_recovers() {
        let batcher = Batcher::start(64);
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

    /// `max_queue == 0` is lame-duck mode: every query is shed with
    /// `Overloaded` before costing anything — free slots or not — and the
    /// shed counter says so.
    #[test]
    fn zero_capacity_queue_sheds_deterministically() {
        let batcher = Batcher::start(0);
        let index = serving();
        for x in [1.0, 2.0, 3.0] {
            assert!(matches!(
                batcher.run(Arc::clone(&index), query(x), 8, 2),
                Err(ServeError::Overloaded)
            ));
        }
        let stats = batcher.stats();
        assert_eq!(stats.shed, 3);
        assert_eq!(stats.requests, 0, "shed requests never count as served");
        assert_eq!(stats.batches, 0);
    }

    /// The failure mode of a semaphore is a hang (a missed wake-up), so
    /// hammer the narrowest configuration: one slot, 16 threads, 200 calls
    /// each. The test thread holds the slot by hand until all 16 first
    /// calls wait, so the wait path is guaranteed to run. Every call must
    /// return the `run_single` answer, the counters must account for every
    /// call exactly once, and the semaphore must end empty.
    #[test]
    fn one_slot_under_sixteen_threads_answers_every_call_exactly_once() {
        const THREADS: usize = 16;
        const CALLS: usize = 200;
        let batcher = Batcher::with_slots(1024, 1);
        let index = serving();
        let expected: Vec<_> = (0..40)
            .map(|x| bits(&run_single(&index, query(x as f64), 8, 2)))
            .collect();
        let slot = batcher.acquire().unwrap();
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
            until_waited(&batcher, THREADS as u64);
            let own = run_protected(&index, query(0.0), 8, 2).unwrap();
            assert_eq!(bits(&own), expected[0]);
            drop(slot);
        });
        let stats = batcher.stats();
        let total = (THREADS * CALLS) as u64 + 1;
        assert_eq!((stats.requests, stats.batches), (total, total));
        assert_eq!((stats.coalesced_batches, stats.shed), (0, 0));
        assert!(stats.waited >= THREADS as u64, "{stats:?}");
        let state = batcher.lock();
        assert!(state.held == 0 && state.waiting == 0, "{state:?}");
    }

    /// A swap while queries wait for a slot: each reply carries the epoch
    /// — and the answer — of the generation resolved *before* admission,
    /// even though the swap landed before any of them searched.
    #[test]
    fn a_swap_does_not_retarget_queries_already_waiting() {
        const WAITERS: usize = 6;
        let registry = IndexRegistry::new();
        let epoch_a = registry.register("main", engine(0.0), 0).unwrap();
        let serving_a = registry.get("main").unwrap();
        let on_a: Vec<_> = (0..WAITERS)
            .map(|i| bits(&run_single(&serving_a, query(i as f64 * 6.0 + 0.5), 8, 2)))
            .collect();
        let batcher = Batcher::with_slots(64, 1);
        let slot = batcher.acquire().unwrap();
        std::thread::scope(|scope| {
            let waiters: Vec<_> = (0..WAITERS)
                .map(|i| {
                    let (batcher, serving_a) = (&batcher, &serving_a);
                    let q = query(i as f64 * 6.0 + 0.5);
                    scope.spawn(move || batcher.run(Arc::clone(serving_a), q, 8, 2))
                })
                .collect();
            until_waited(&batcher, WAITERS as u64);
            let epoch_b = registry.swap("main", engine(0.5), 0).unwrap();
            assert!(epoch_b > epoch_a);
            let serving_b = registry.get("main").unwrap();
            let on_b: Vec<_> = (0..WAITERS)
                .map(|i| bits(&run_single(&serving_b, query(i as f64 * 6.0 + 0.5), 8, 2)))
                .collect();
            assert_ne!(on_a, on_b, "the two snapshots must disagree somewhere");
            drop(slot);
            for (i, waiter) in waiters.into_iter().enumerate() {
                let reply = waiter.join().unwrap().unwrap();
                assert_eq!(reply.epoch, epoch_a, "waiting query {i} was retargeted");
                assert_eq!(bits(&reply), on_a[i], "waiting query {i}");
            }
        });
    }
}
