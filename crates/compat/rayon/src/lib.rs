//! Offline stand-in for the slice of `rayon` this workspace uses.
//!
//! The build environment has no access to crates.io, so this crate provides
//! the parallel-execution surface the workspace consumes (see
//! `crates/compat/README.md`): a **scoped, work-stealing-lite pool** rather
//! than rayon's full `ParallelIterator` machinery. Workers pull fixed-size
//! blocks of work from a shared atomic cursor (cheap dynamic load balancing)
//! and results are reassembled in input order, so every helper is
//! **deterministic in its output ordering regardless of thread count** —
//! the property all `batch_*` engine routines and the parallel graph
//! constructions rely on.
//!
//! Surface:
//!
//! * [`par_map`] / [`par_map_indexed`] / [`par_map_range`] — order-preserving
//!   parallel maps (`par_iter().map().collect()` morally);
//! * [`par_chunks`] — parallel map over contiguous chunks, results in chunk
//!   order;
//! * [`par_for_each_mut`] — parallel in-place update of a mutable slice
//!   (`par_iter_mut().enumerate().for_each()` morally);
//! * [`scope`] / [`Scope::spawn`] — structured fork/join on borrowed data;
//! * [`spawn_task`] / [`TaskHandle::join`] — an owned (`'static`) task on
//!   the persistent workers (below);
//! * [`current_num_threads`], [`set_default_threads`], [`with_threads`] —
//!   pool sizing, overridable per call site, per process, or via the
//!   `PG_THREADS` environment variable.
//!
//! Thread-count resolution order: [`with_threads`] scope (thread-local) >
//! [`set_default_threads`] (process-global, e.g. a `--threads` flag) >
//! `PG_THREADS` > `std::thread::available_parallelism()`.
//!
//! # Two ways to run work, and why both
//!
//! The scoped helpers above take **borrowed** closures: each call starts
//! its workers inside a `std::thread::scope` and joins them before it
//! returns, which is what lets a closure read the caller's stack without
//! `unsafe`. Their cost is a thread spawn and join per call — nothing next
//! to a graph build or a batch of thousands of walks, most of a sub-
//! millisecond call.
//!
//! [`spawn_task`] takes an **owned** closure instead and hands it to a
//! small set of **persistent workers**: at most `available_parallelism() −
//! 1` threads (named `pool-worker-<n>`), created the first time a task
//! finds none idle and parked on a condvar between tasks. No thread is
//! started per call once they exist. Owning its data (`Arc`s, moved
//! values) is the price of never borrowing across a thread that outlives
//! the call; it is also what keeps this crate `#![forbid(unsafe_code)]`.
//! [`TaskHandle::join`] runs the task on the caller when no worker has
//! claimed it yet, so a caller that joins its tasks always makes progress,
//! whatever the workers are busy with; and it re-raises the task's panic.
//!
//! Unlike the `rand` and `proptest` stand-ins, this API is *not*
//! call-site-compatible with the real crate (rayon's iterator traits cannot
//! be reproduced small); swapping the real rayon back in would mean porting
//! call sites to `par_iter`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

static DEFAULT_THREADS: AtomicUsize = AtomicUsize::new(0); // 0 = unset

thread_local! {
    static THREAD_OVERRIDE: Cell<usize> = const { Cell::new(0) }; // 0 = unset
}

/// Parses a `PG_THREADS`-style value; `None`/empty/non-numeric/zero mean
/// "unset". Split out of [`current_num_threads`] so it is testable without
/// mutating process environment.
fn threads_from_env(value: Option<&str>) -> Option<usize> {
    value
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
}

/// The number of worker threads parallel helpers use, resolved as:
/// [`with_threads`] override, then [`set_default_threads`], then the
/// `PG_THREADS` environment variable, then the machine's available
/// parallelism (at least 1).
pub fn current_num_threads() -> usize {
    let o = THREAD_OVERRIDE.with(Cell::get);
    if o > 0 {
        return o;
    }
    let g = DEFAULT_THREADS.load(Ordering::Relaxed);
    if g > 0 {
        return g;
    }
    if let Some(n) = threads_from_env(std::env::var("PG_THREADS").ok().as_deref()) {
        return n;
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Sets the process-wide default thread count (0 restores auto-detection).
/// Typically wired to a `--threads` command-line flag. A [`with_threads`]
/// scope still takes precedence on its thread.
pub fn set_default_threads(n: usize) {
    DEFAULT_THREADS.store(n, Ordering::Relaxed);
}

/// Runs `f` with the calling thread's pool size pinned to `n` (restored on
/// exit, including on panic). Only affects parallel helpers invoked *on this
/// thread* — the deterministic way for tests to compare thread counts
/// without touching process-global state.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    assert!(n >= 1, "thread count must be at least 1");
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREAD_OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let _guard = Restore(THREAD_OVERRIDE.with(|c| c.replace(n)));
    f()
}

/// Order-preserving parallel map: semantically
/// `items.iter().map(f).collect()`, computed on [`current_num_threads`]
/// workers. `f` must be pure for the parallel and sequential results to
/// agree (every call site in this workspace satisfies that).
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    par_map_indexed_with(current_num_threads(), items, |_, t| f(t))
}

/// [`par_map`] with the element index passed to `f`.
pub fn par_map_indexed<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    par_map_indexed_with(current_num_threads(), items, f)
}

/// [`par_map`] with an explicit worker count.
pub fn par_map_with<T, U, F>(threads: usize, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    par_map_indexed_with(threads, items, |_, t| f(t))
}

/// Order-preserving parallel map over `0..n`: semantically
/// `(0..n).map(f).collect()`. The natural shape for the per-point loops of
/// the graph constructions.
pub fn par_map_range<U, F>(n: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    par_map_range_with(current_num_threads(), n, f)
}

/// [`par_map_range`] with an explicit worker count.
pub fn par_map_range_with<U, F>(threads: usize, n: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    // Dispatch through the slice path with unit items; the index is the
    // only input.
    let units = vec![(); n];
    par_map_indexed_with(threads, &units, |i, ()| f(i))
}

/// Parallel map over contiguous `chunk_size`-sized chunks (last chunk may be
/// shorter); results are in chunk order, exactly as
/// `items.chunks(chunk_size).map(f).collect()`.
pub fn par_chunks<T, U, F>(items: &[T], chunk_size: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&[T]) -> U + Sync,
{
    assert!(chunk_size >= 1, "chunk size must be at least 1");
    let chunks: Vec<&[T]> = items.chunks(chunk_size).collect();
    par_map_indexed_with(current_num_threads(), &chunks, |_, c| f(c))
}

/// How many workers to start for `n` items on a pool of `threads`, and the
/// block size they claim work in (about four blocks per worker). At most
/// one worker per item; one worker means "run sequentially".
fn workers_and_block(threads: usize, n: usize) -> (usize, usize) {
    let threads = threads.max(1).min(n.max(1));
    (threads, n.div_ceil(threads * 4).max(1))
}

/// [`par_map_indexed`] with an explicit worker count — the primitive every
/// other helper lowers to.
///
/// Work-stealing-lite: the input is cut into blocks of roughly
/// `len / (4 * threads)` items and workers claim blocks from a shared atomic
/// cursor, so an unlucky worker stuck on an expensive block does not serialize
/// the rest. Each block remembers its start offset and the blocks are
/// reassembled in input order, making the output independent of scheduling.
pub fn par_map_indexed_with<T, U, F>(threads: usize, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    let n = items.len();
    let (threads, block) = workers_and_block(threads, n);
    if threads <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }

    let cursor = AtomicUsize::new(0);
    let mut parts: Vec<(usize, Vec<U>)> = Vec::with_capacity(n.div_ceil(block));
    std::thread::scope(|s| {
        let mut handles = Vec::with_capacity(threads);
        for _ in 0..threads {
            let cursor = &cursor;
            let f = &f;
            handles.push(s.spawn(move || {
                let mut local: Vec<(usize, Vec<U>)> = Vec::new();
                loop {
                    let start = cursor.fetch_add(block, Ordering::Relaxed);
                    if start >= n {
                        break;
                    }
                    let end = (start + block).min(n);
                    let results = items[start..end]
                        .iter()
                        .enumerate()
                        .map(|(j, t)| f(start + j, t))
                        .collect();
                    local.push((start, results));
                }
                local
            }));
        }
        for h in handles {
            // A panic in `f` propagates to the caller with its original
            // payload, exactly as it would from a plain sequential map.
            match h.join() {
                Ok(local) => parts.extend(local),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    parts.sort_unstable_by_key(|&(start, _)| start);
    let mut out = Vec::with_capacity(n);
    for (_, mut v) in parts {
        out.append(&mut v);
    }
    out
}

/// Parallel in-place update: semantically
/// `items.iter_mut().enumerate().for_each(|(i, t)| f(i, t))`, computed on
/// [`current_num_threads`] workers. Each element is visited exactly once and
/// by one worker, so when `f(i, t)` depends only on `i` and `*t` the result
/// is the sequential one for any thread count. Elements may own disjoint
/// `&mut` sub-slices of one buffer (from `split_at_mut`) — the safe way to
/// have workers fill a shared allocation in place.
pub fn par_for_each_mut<T, F>(items: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    par_for_each_mut_with(current_num_threads(), items, f)
}

/// [`par_for_each_mut`] with an explicit worker count.
///
/// Same block scheduling as [`par_map_indexed_with`]; the blocks are
/// `chunks_mut` of the input handed out from a mutex-guarded iterator, held
/// only while a worker claims its next block.
pub fn par_for_each_mut_with<T, F>(threads: usize, items: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    let (threads, block) = workers_and_block(threads, items.len());
    if threads <= 1 {
        items.iter_mut().enumerate().for_each(|(i, t)| f(i, t));
        return;
    }

    let queue = Mutex::new(items.chunks_mut(block).enumerate());
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| loop {
                    // `f` runs outside the lock, so a panic in it cannot
                    // poison the queue.
                    let claimed = queue.lock().expect("no holder can panic").next();
                    let Some((b, chunk)) = claimed else { break };
                    for (j, t) in chunk.iter_mut().enumerate() {
                        f(b * block + j, t);
                    }
                })
            })
            .collect();
        for h in handles {
            if let Err(payload) = h.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
}

/// A structured fork/join scope over borrowed data; see [`scope`].
pub struct Scope<'scope, 'env: 'scope> {
    inner: &'scope std::thread::Scope<'scope, 'env>,
}

impl<'scope, 'env> Scope<'scope, 'env> {
    /// Spawns a task that may borrow from outside the scope. All spawned
    /// tasks are joined before [`scope`] returns; a task panic propagates.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'scope,
    {
        self.inner.spawn(f);
    }
}

/// Structured concurrency over borrowed data: `scope(|s| s.spawn(...))`
/// joins every spawned task before returning, so tasks may freely borrow
/// from the enclosing stack frame. The shape of `rayon::scope`, backed by
/// `std::thread::scope`.
pub fn scope<'env, F, R>(f: F) -> R
where
    F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
{
    std::thread::scope(|s| f(&Scope { inner: s }))
}

/// Locks `m`, ignoring poison: no lock in this module is held while user
/// code runs, so a panic cannot leave a guarded value half-updated.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// How many times a worker out of tasks, or a joiner whose task runs
/// elsewhere, yields its core and looks again before it sleeps on a
/// condvar — a few tens of µs (a yield costs a few hundred ns on an idle
/// x86 core), about one short walk. A caller sending one query after
/// another then finds its worker still awake, and a join that waits less
/// than that pays no wake-up. Counted, not timed: the pool reads no clock.
const SPINS: u32 = 128;

/// Polls `ready` until it holds or [`SPINS`] yields have passed.
fn spin_until(ready: impl Fn() -> bool) {
    for _ in 0..SPINS {
        if ready() {
            return;
        }
        std::thread::yield_now();
    }
}

/// One owned task: its closure until a thread claims it, then its outcome
/// once it has run.
struct Slot<R> {
    state: Mutex<SlotState<R>>,
    /// Set after the outcome, for a joiner that polls. A hint only (the
    /// joiner reads the outcome under the lock), so its Release/Acquire
    /// pair publishes nothing the lock does not.
    finished: AtomicBool,
    done: Condvar,
}

struct SlotState<R> {
    task: Option<Box<dyn FnOnce() -> R + Send>>,
    outcome: Option<std::thread::Result<R>>,
}

/// What the worker queue holds: a task of any result type.
trait Job: Send + Sync {
    /// Runs the task if no thread has claimed it yet, keeping its outcome
    /// (a panic included) for the joiner.
    fn run_unclaimed(&self);
}

impl<R: Send> Job for Slot<R> {
    fn run_unclaimed(&self) {
        let Some(task) = lock(&self.state).task.take() else {
            return;
        };
        let outcome = panic::catch_unwind(AssertUnwindSafe(task));
        lock(&self.state).outcome = Some(outcome);
        self.finished.store(true, Ordering::Release);
        self.done.notify_one();
    }
}

/// The persistent workers and the tasks waiting for them.
struct Workers {
    queue: Mutex<Queue>,
    /// `queue.jobs.len()`, for a worker that polls; a hint like
    /// `Slot::finished` (the worker pops under the lock).
    queued: AtomicUsize,
    wake: Condvar,
    limit: usize,
}

struct Queue {
    /// Tasks in submission order. An entry its joiner already ran stays
    /// until a worker pops and skips it.
    jobs: VecDeque<Arc<dyn Job>>,
    started: usize,
    /// Workers out of tasks: polling or parked.
    idle: usize,
    parked: usize,
}

fn workers() -> &'static Workers {
    static WORKERS: OnceLock<Workers> = OnceLock::new();
    WORKERS.get_or_init(|| Workers {
        queue: Mutex::new(Queue {
            jobs: VecDeque::new(),
            started: 0,
            idle: 0,
            parked: 0,
        }),
        queued: AtomicUsize::new(0),
        wake: Condvar::new(),
        limit: std::thread::available_parallelism().map_or(1, |n| n.get()) - 1,
    })
}

impl Workers {
    /// Queues `job`, waking a parked worker, and starts one more worker
    /// while the queue holds more jobs than there are idle workers and the
    /// limit allows. On a one-core machine nothing is queued: the joiner
    /// runs every task.
    fn submit(&'static self, job: Arc<dyn Job>) {
        if self.limit == 0 {
            return;
        }
        let mut q = lock(&self.queue);
        q.jobs.push_back(job);
        self.queued.store(q.jobs.len(), Ordering::Release);
        if q.parked > 0 {
            self.wake.notify_one();
        }
        if q.jobs.len() > q.idle && q.started < self.limit {
            q.started += 1;
            let name = format!("pool-worker-{}", q.started);
            drop(q);
            // Workers live as long as the process, so their handles are
            // dropped; a task's panic is caught and handed to its joiner,
            // so none is lost with them.
            let spawned = std::thread::Builder::new()
                .name(name)
                .spawn(move || self.serve());
            if spawned.is_err() {
                // The queued task still runs: its joiner claims it.
                lock(&self.queue).started -= 1;
            }
        }
    }

    /// A worker's life: pop and run tasks; out of tasks, poll for
    /// [`SPINS`] yields, then park until a submit wakes it.
    fn serve(&self) {
        let mut q = lock(&self.queue);
        loop {
            if let Some(job) = q.jobs.pop_front() {
                self.queued.store(q.jobs.len(), Ordering::Release);
                drop(q);
                job.run_unclaimed();
                q = lock(&self.queue);
                continue;
            }
            q.idle += 1;
            drop(q);
            spin_until(|| self.queued.load(Ordering::Acquire) > 0);
            q = lock(&self.queue);
            if q.jobs.is_empty() {
                q.parked += 1;
                q = self.wake.wait(q).unwrap_or_else(PoisonError::into_inner);
                q.parked -= 1;
            }
            q.idle -= 1;
        }
    }
}

/// The handle of a task started by [`spawn_task`].
#[must_use = "a task that is never joined may never run"]
pub struct TaskHandle<R> {
    slot: Arc<Slot<R>>,
}

impl<R> TaskHandle<R> {
    /// The task's result. Runs the task on the calling thread if no worker
    /// has claimed it yet, waits if a worker is running it, and re-raises
    /// the task's panic with its original payload.
    pub fn join(self) -> R {
        let mut state = lock(&self.slot.state);
        if let Some(task) = state.task.take() {
            drop(state);
            return task();
        }
        drop(state);
        spin_until(|| self.slot.finished.load(Ordering::Acquire));
        let state = lock(&self.slot.state);
        let mut state = self
            .slot
            .done
            .wait_while(state, |s| s.outcome.is_none())
            .unwrap_or_else(PoisonError::into_inner);
        match state.outcome.take() {
            Some(Ok(value)) => value,
            Some(Err(payload)) => panic::resume_unwind(payload),
            None => unreachable!("waited until the outcome was set"),
        }
    }
}

/// Starts `f` on the persistent workers (module docs) and returns its
/// handle. A worker that is idle, or the next one to finish its task, takes
/// it; if none has by the time the caller [`join`](TaskHandle::join)s, the
/// caller runs it. Tasks may spawn and join tasks of their own. A task
/// obeys the pool size its own thread sees, not its spawner's
/// [`with_threads`] scope.
pub fn spawn_task<F, R>(f: F) -> TaskHandle<R>
where
    F: FnOnce() -> R + Send + 'static,
    R: Send + 'static,
{
    let slot = Arc::new(Slot {
        state: Mutex::new(SlotState {
            task: Some(Box::new(f)),
            outcome: None,
        }),
        finished: AtomicBool::new(false),
        done: Condvar::new(),
    });
    workers().submit(slot.clone());
    TaskHandle { slot }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn par_map_preserves_order_for_every_thread_count() {
        let items: Vec<u64> = (0..997).collect();
        let expect: Vec<u64> = items.iter().map(|&x| x * x + 1).collect();
        let machine = std::thread::available_parallelism().map_or(1, |n| n.get());
        for threads in [1, 2, 3, machine, machine + 3] {
            let got = par_map_with(threads, &items, |&x| x * x + 1);
            assert_eq!(got, expect, "ordering broke at {threads} threads");
        }
    }

    #[test]
    fn par_map_indexed_passes_true_indices() {
        let items = vec![10u64; 503];
        let got = par_map_indexed_with(4, &items, |i, &x| i as u64 + x);
        let expect: Vec<u64> = (0..503).map(|i| i + 10).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn par_map_range_matches_sequential_range_map() {
        let expect: Vec<usize> = (0..777).map(|i| i * 3).collect();
        for threads in [1, 2, 5] {
            assert_eq!(par_map_range_with(threads, 777, |i| i * 3), expect);
        }
    }

    #[test]
    fn par_chunks_keeps_chunk_order_and_boundaries() {
        let items: Vec<u32> = (0..100).collect();
        let sums = par_chunks(&items, 7, |c| c.iter().sum::<u32>());
        let expect: Vec<u32> = items.chunks(7).map(|c| c.iter().sum()).collect();
        assert_eq!(sums, expect);
        assert_eq!(sums.len(), 100usize.div_ceil(7));
    }

    #[test]
    fn par_for_each_mut_visits_every_element_once_with_its_index() {
        let expect: Vec<usize> = (0..613).map(|i| i * 2 + 1).collect();
        for threads in [1, 2, 3, 8] {
            let mut items = vec![1usize; 613];
            par_for_each_mut_with(threads, &mut items, |i, t| *t += i * 2);
            assert_eq!(items, expect, "diverged at {threads} threads");
        }
        par_for_each_mut_with(4, &mut [] as &mut [u8], |_, _| unreachable!());
    }

    #[test]
    fn par_for_each_mut_fills_disjoint_slices_of_one_buffer() {
        // The CSR-assembly shape: elements own `split_at_mut` pieces.
        let mut buffer = vec![0u32; 100];
        let mut rest = buffer.as_mut_slice();
        let mut pieces = Vec::new();
        for len in [0, 7, 33, 1, 59] {
            let (head, tail) = rest.split_at_mut(len);
            pieces.push(head);
            rest = tail;
        }
        par_for_each_mut_with(3, &mut pieces, |i, piece| piece.fill(i as u32));
        let expect: Vec<u32> = [(1, 7), (2, 33), (3, 1), (4, 59)]
            .iter()
            .flat_map(|&(v, len)| std::iter::repeat_n(v, len))
            .collect();
        assert_eq!(buffer, expect);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert_eq!(par_map_with(8, &empty, |&x| x), Vec::<u32>::new());
        assert_eq!(par_map_with(8, &[41u32], |&x| x + 1), vec![42]);
        assert_eq!(par_map_range_with(8, 0, |i| i), Vec::<usize>::new());
    }

    #[test]
    fn scope_joins_all_spawned_tasks_before_returning() {
        let hits = AtomicU64::new(0);
        scope(|s| {
            for _ in 0..16 {
                s.spawn(|| {
                    hits.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
        assert_eq!(hits.load(Ordering::SeqCst), 16);
    }

    #[test]
    fn with_threads_overrides_and_restores() {
        let outer = current_num_threads();
        let inner = with_threads(3, || {
            // Nested overrides stack.
            let nested = with_threads(2, current_num_threads);
            assert_eq!(nested, 2);
            current_num_threads()
        });
        assert_eq!(inner, 3);
        assert_eq!(current_num_threads(), outer);
    }

    #[test]
    fn a_worker_obeys_its_own_with_threads_and_not_the_spawners() {
        // The nesting rule `ShardedEngine::build` splits its budget by.
        let unscoped = current_num_threads();
        let seen = with_threads(unscoped + 1, || {
            par_map_range_with(2, 2, |_| {
                let me = std::thread::current().id();
                let inline = with_threads(1, || {
                    par_map_range(64, |_| std::thread::current().id())
                        .iter()
                        .all(|&id| id == me)
                });
                (
                    current_num_threads(),
                    with_threads(3, current_num_threads),
                    inline,
                )
            })
        });
        assert_eq!(seen, vec![(unscoped, 3, true); 2]);
    }

    #[test]
    fn with_threads_restores_after_panic() {
        let before = current_num_threads();
        let caught = std::panic::catch_unwind(|| {
            with_threads(7, || panic!("boom"));
        });
        assert!(caught.is_err());
        assert_eq!(current_num_threads(), before);
    }

    #[test]
    fn env_parsing_rules() {
        assert_eq!(threads_from_env(None), None);
        assert_eq!(threads_from_env(Some("")), None);
        assert_eq!(threads_from_env(Some("abc")), None);
        assert_eq!(threads_from_env(Some("0")), None);
        assert_eq!(threads_from_env(Some("4")), Some(4));
        assert_eq!(threads_from_env(Some(" 12 ")), Some(12));
    }

    #[test]
    fn worker_panic_propagates_with_original_payload() {
        let items: Vec<u32> = (0..64).collect();
        let caught = std::panic::catch_unwind(|| {
            let _ = par_map_with(4, &items, |&x| {
                assert!(x < 60, "planted failure");
                x
            });
        });
        // The payload must survive the join, so diagnostics do not depend
        // on the thread count.
        let payload = caught.expect_err("planted panic must propagate");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(msg.contains("planted failure"), "payload lost: {msg:?}");
    }

    use std::thread::ThreadId;
    use std::time::{Duration, Instant};

    /// Serializes the tests that hold every worker: two of them holding
    /// some workers each would wait for each other forever.
    static HOLDING: Mutex<()> = Mutex::new(());

    /// Every persistent worker parked inside a task until released (or
    /// dropped), so that tasks spawned meanwhile find none free.
    struct Held {
        gate: Arc<(Mutex<bool>, Condvar)>,
        blockers: Vec<TaskHandle<ThreadId>>,
        _turn: MutexGuard<'static, ()>,
    }

    fn hold_every_worker() -> Held {
        let turn = lock(&HOLDING);
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let started = Arc::new(AtomicUsize::new(0));
        let blockers = (0..workers().limit)
            .map(|_| {
                let (gate, started) = (Arc::clone(&gate), Arc::clone(&started));
                spawn_task(move || {
                    started.fetch_add(1, Ordering::SeqCst);
                    let (open, opened) = &*gate;
                    drop(opened.wait_while(lock(open), |open| !*open));
                    std::thread::current().id()
                })
            })
            .collect();
        let deadline = Instant::now() + Duration::from_secs(60);
        while started.load(Ordering::SeqCst) < workers().limit {
            assert!(
                Instant::now() < deadline,
                "the workers never all took a blocker"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        Held {
            gate,
            blockers,
            _turn: turn,
        }
    }

    impl Held {
        /// Opens the gate and returns the thread ids the blockers ran on.
        fn release(mut self) -> Vec<ThreadId> {
            self.open();
            std::mem::take(&mut self.blockers)
                .into_iter()
                .map(TaskHandle::join)
                .collect()
        }

        fn open(&self) {
            *lock(&self.gate.0) = true;
            self.gate.1.notify_all();
        }
    }

    impl Drop for Held {
        fn drop(&mut self) {
            self.open();
        }
    }

    fn is_worker() -> bool {
        std::thread::current()
            .name()
            .is_some_and(|n| n.starts_with("pool-worker-"))
    }

    #[test]
    fn tasks_answer_in_join_order() {
        let handles: Vec<TaskHandle<u64>> =
            (0..200u64).map(|i| spawn_task(move || i * i)).collect();
        let got: Vec<u64> = handles.into_iter().map(TaskHandle::join).collect();
        assert_eq!(got, (0..200u64).map(|i| i * i).collect::<Vec<_>>());
        // Joined back to front, each handle still answers for its own task.
        let handles: Vec<TaskHandle<u64>> =
            (0..200u64).map(|i| spawn_task(move || i + 7)).collect();
        let mut got: Vec<u64> = handles.into_iter().rev().map(TaskHandle::join).collect();
        got.reverse();
        assert_eq!(got, (7..207u64).collect::<Vec<_>>());
    }

    #[test]
    fn a_task_no_worker_claims_runs_on_the_caller() {
        let held = hold_every_worker();
        let me = std::thread::current().id();
        let ran_on = spawn_task(|| std::thread::current().id()).join();
        assert_eq!(ran_on, me);
        let blockers = held.release();
        assert_eq!(blockers.len(), workers().limit);
        assert!(!blockers.contains(&me));
    }

    #[test]
    fn a_panicking_task_reraises_at_join_and_its_worker_keeps_serving() {
        let on_worker = Arc::new(Mutex::new(None));
        let claimed = Arc::clone(&on_worker);
        let task = spawn_task(move || {
            if is_worker() {
                *lock(&claimed) = Some(std::thread::current().id());
            }
            panic!("planted task failure");
        });
        // Give a worker the chance to claim it first (there is none on a
        // one-core machine, and then the caller runs it at `join`).
        let deadline = Instant::now() + Duration::from_secs(60);
        while workers().limit > 0 && lock(&on_worker).is_none() {
            assert!(Instant::now() < deadline, "no worker claimed the task");
            std::thread::sleep(Duration::from_millis(1));
        }
        let payload = panic::catch_unwind(AssertUnwindSafe(|| task.join()))
            .expect_err("the task's panic must reach its joiner");
        assert_eq!(
            payload.downcast_ref::<&str>(),
            Some(&"planted task failure")
        );
        // Held busy, the workers are every worker there is: the one that
        // caught the panic is among them, so it is still serving.
        let serving = hold_every_worker().release();
        let worker = *lock(&on_worker);
        if let Some(worker) = worker {
            assert!(
                serving.contains(&worker),
                "the panicking task's worker is gone"
            );
        }
    }

    #[test]
    fn a_task_may_spawn_and_join_tasks_of_its_own() {
        let outer: Vec<TaskHandle<u64>> = (0..16u64)
            .map(|i| {
                spawn_task(move || {
                    let inner: Vec<TaskHandle<u64>> =
                        (0..16u64).map(|j| spawn_task(move || i * 16 + j)).collect();
                    inner.into_iter().map(TaskHandle::join).sum()
                })
            })
            .collect();
        let total: u64 = outer.into_iter().map(TaskHandle::join).sum();
        assert_eq!(total, (0..256u64).sum());
    }

    #[test]
    fn ten_thousand_tasks_run_on_at_most_the_worker_limit_of_threads() {
        let me = std::thread::current().id();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            let handles: Vec<_> = (0..100)
                .map(|_| spawn_task(|| (std::thread::current().id(), is_worker())))
                .collect();
            for (id, worker) in handles.into_iter().map(TaskHandle::join) {
                assert!(
                    id == me || worker,
                    "a task ran on a thread outside the pool"
                );
                seen.insert(id);
            }
        }
        seen.remove(&me);
        assert!(
            seen.len() <= workers().limit,
            "{} worker threads, limit {}",
            seen.len(),
            workers().limit
        );
    }
}
