//! Parallel batched query execution.
//!
//! The paper's cost model counts distance computations because "distance
//! calculation is the bottleneck" (Section 1.1) — which is exactly why a
//! serving system runs many queries at once. [`QueryEngine`] owns a built
//! [`Graph`] and its [`Dataset`] and shards query batches across a thread
//! pool (`crates/compat/rayon`), while returning results in **input order,
//! identical to the sequential routines** ([`greedy`](crate::search::greedy),
//! [`query`], [`beam_search_detailed`]): the routing walk for one query
//! never depends on any other query, so parallelism cannot change an
//! answer, only the wall clock.
//!
//! Distance accounting stays sound under parallelism on both levels: each
//! outcome carries its own `dist_comps`, and the [`Counting`] metric wrapper
//! (`pg_metric`) uses a shared `Arc<AtomicU64>`, so concurrent shards all
//! flow into one total.
//!
//! # `Sync` bounds
//!
//! The batch methods (and every parallel construction path in this
//! workspace: `pg_nets`' `NetHierarchy::build` and `RelativesCascade`,
//! the fast and naive [`GNet`](crate::gnet::GNet) builders,
//! [`gnet_edges_with_phi`](crate::gnet::gnet_edges_with_phi),
//! [`MergedGraph`](crate::merged::MergedGraph)) require `P: Sync` and
//! `M: Metric<P> + Sync`: worker threads share `&Dataset<P, M>` across the
//! pool's scope. Every point type in the workspace (`Vec<f64>`,
//! [`FlatRow`], arrays) and every metric (the `L_p` family, `Counting`,
//! `Scaled`) is `Sync`, so the bounds cost callers nothing — they only
//! become visible when writing code generic over `P`/`M`, where they must
//! be propagated (this is the PR-2 API change the sequential seed didn't
//! need). The sequential entry points ([`greedy`](crate::search::greedy),
//! [`query`], [`beam_search_detailed`]) remain bound-free.
//! [`ShardedEngine::build`](crate::sharded::ShardedEngine::build) and
//! [`load`](crate::sharded::ShardedEngine::load) also require `M: Send`:
//! their pool workers hand back whole per-shard engines, which own a clone
//! of the metric. Every metric in the workspace is `Send` as well.
//!
//! # Persistence
//!
//! Construction is the expensive phase; queries are cheap. The engine
//! therefore splits into an offline and an online half:
//! [`QueryEngine::save_with`] writes the index (graph + flat points +
//! metadata) to the versioned `pg_store` on-disk format, and
//! [`QueryEngine::load`] reconstructs an engine that answers
//! **bit-identically** — same results,
//! hops and `dist_comps` at every thread count (pinned by
//! `tests/snapshot_parity.rs`). See the [`snapshot`](crate::snapshot)
//! module and `ARCHITECTURE.md` at the repository root.
//!
//! [`Counting`]: pg_metric::Counting
//!
//! # Example
//!
//! Serving datasets should use the contiguous [`FlatPoints`] layout — the
//! engine (like every search routine) is generic over the point type, so a
//! flat-backed dataset drops in via [`FlatRow`] handles:
//!
//! ```
//! use pg_core::engine::QueryEngine;
//! use pg_core::GNet;
//! use pg_metric::{Euclidean, FlatPoints, FlatRow};
//!
//! let mut points = FlatPoints::new(2);
//! for i in 0..60 {
//!     points.push(&[i as f64, (i % 5) as f64]);
//! }
//! let data = points.into_dataset(Euclidean);
//! let pg = GNet::build(&data, 1.0);
//!
//! let engine = QueryEngine::new(pg.graph, data).with_threads(2);
//! let queries: Vec<FlatRow> = vec![vec![7.2, 1.0].into(), vec![41.9, 3.3].into()];
//! let starts = vec![0, 30];
//! let batch = engine.batch_greedy(&starts, &queries);
//! assert_eq!(batch.outcomes.len(), 2);
//! // Same answers as running `greedy` one query at a time:
//! let solo = pg_core::greedy(engine.graph(), engine.data(), 0, &queries[0]);
//! assert_eq!(batch.outcomes[0].result, solo.result);
//! assert_eq!(batch.dist_comps, batch.outcomes.iter().map(|o| o.dist_comps).sum::<u64>());
//! ```
//!
//! [`FlatPoints`]: pg_metric::FlatPoints
//! [`FlatRow`]: pg_metric::FlatRow

use pg_metric::{CompactPoints, Dataset, Metric, QuantKind, Quantized};

use crate::graph::Graph;
use crate::search::{
    beam_search_detailed, beam_search_quantized, query, BeamOutcome, GreedyOutcome,
};

/// The result of a [`QueryEngine::batch_greedy`] / [`QueryEngine::batch_query`]
/// call: per-query outcomes in input order plus the aggregated distance count.
#[derive(Debug, Clone)]
pub struct BatchOutcome {
    /// One [`GreedyOutcome`] per query, in the order the queries were given.
    pub outcomes: Vec<GreedyOutcome>,
    /// Total distance computations across the batch (the sum of the
    /// per-outcome `dist_comps`).
    pub dist_comps: u64,
}

/// The result of a [`QueryEngine::batch_beam_detailed`] call: one full
/// [`BeamOutcome`] per query, so evaluation code can score recall and plot
/// per-query cost (`dist_comps`, `expansions`) without re-deriving anything
/// from a batch total.
#[derive(Debug, Clone)]
pub struct BatchBeamDetail {
    /// One [`BeamOutcome`] per query, in the order the queries were given.
    pub outcomes: Vec<BeamOutcome>,
    /// Total distance computations across the batch (the sum of the
    /// per-outcome `dist_comps`).
    pub dist_comps: u64,
}

/// A batched query executor owning a routable index: a [`Graph`] over a
/// [`Dataset`].
///
/// The thread count is resolved at construction from the pool default
/// (`rayon::set_default_threads`, else `PG_THREADS`, else the machine's
/// parallelism) and can be overridden per engine with
/// [`QueryEngine::with_threads`]. Every `batch_*` method is deterministic:
/// the output is independent of the thread count.
#[derive(Debug, Clone)]
pub struct QueryEngine<P, M> {
    graph: Graph,
    data: Dataset<P, M>,
    threads: usize,
}

impl<P, M: Metric<P>> QueryEngine<P, M> {
    /// Creates an engine over a built graph and its dataset.
    ///
    /// Panics if the graph's vertex count differs from the dataset size.
    pub fn new(graph: Graph, data: Dataset<P, M>) -> Self {
        assert_eq!(
            graph.n(),
            data.len(),
            "graph vertex count must match dataset size"
        );
        QueryEngine {
            graph,
            data,
            threads: rayon::current_num_threads(),
        }
    }

    /// Overrides the worker count for this engine (at least 1).
    pub fn with_threads(mut self, threads: usize) -> Self {
        assert!(threads >= 1, "thread count must be at least 1");
        self.threads = threads;
        self
    }

    /// The worker count `batch_*` calls will use.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The routed graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The dataset (points + metric).
    pub fn data(&self) -> &Dataset<P, M> {
        &self.data
    }
}

impl<P: Sync, M: Metric<P> + Sync> QueryEngine<P, M> {
    /// The shared body of every `batch_*` method: runs `one(starts[i],
    /// &queries[i])` for every pair through the order-preserving pool and
    /// sums the per-outcome distance counts (`cost`).
    fn batch<T: Send>(
        &self,
        starts: &[u32],
        queries: &[P],
        one: impl Fn(u32, &P) -> T + Sync,
        cost: impl Fn(&T) -> u64,
    ) -> (Vec<T>, u64) {
        assert_eq!(
            starts.len(),
            queries.len(),
            "one start vertex per query required"
        );
        let outcomes = rayon::par_map_indexed_with(self.threads, queries, |i, q| one(starts[i], q));
        let dist_comps = outcomes.iter().map(cost).sum();
        (outcomes, dist_comps)
    }

    /// Runs [`greedy`](crate::search::greedy) for every `(start, query)`
    /// pair, sharded across the pool. `starts` and `queries` must have equal
    /// lengths; outcome `i` is exactly `greedy(graph, data, starts[i],
    /// &queries[i])`.
    pub fn batch_greedy(&self, starts: &[u32], queries: &[P]) -> BatchOutcome {
        self.batch_query(starts, queries, u64::MAX)
    }

    /// Runs the budgeted [`query`] for every
    /// `(start, query)` pair, sharded across the pool. Outcome `i` is exactly
    /// `query(graph, data, starts[i], &queries[i], budget)`.
    pub fn batch_query(&self, starts: &[u32], queries: &[P], budget: u64) -> BatchOutcome {
        let (outcomes, dist_comps) = self.batch(
            starts,
            queries,
            |s, q| query(&self.graph, &self.data, s, q, budget),
            |o| o.dist_comps,
        );
        BatchOutcome {
            outcomes,
            dist_comps,
        }
    }

    /// Runs [`beam_search_detailed`] (width `ef`, top `k`) for every
    /// `(start, query)` pair, sharded across the pool: outcome `i` is exactly
    /// `beam_search_detailed(graph, data, starts[i], &queries[i], ef, k)`,
    /// carrying that query's own `dist_comps` and `expansions` — the
    /// per-query detail evaluation sweeps (`pg_eval`) score from, with the
    /// batch total still aggregated on the side.
    pub fn batch_beam_detailed(
        &self,
        starts: &[u32],
        queries: &[P],
        ef: usize,
        k: usize,
    ) -> BatchBeamDetail {
        let (outcomes, dist_comps) = self.batch(
            starts,
            queries,
            |s, q| beam_search_detailed(&self.graph, &self.data, s, q, ef, k),
            |o| o.dist_comps,
        );
        BatchBeamDetail {
            outcomes,
            dist_comps,
        }
    }
}

impl<P: Sync + AsRef<[f64]>, M: Metric<P> + Sync> QueryEngine<P, M> {
    /// Encodes this engine's points into the compact representation `kind`
    /// (see `pg_metric::quant`). The engine keeps its full-precision points
    /// — the compact store rides alongside for the quantized search path,
    /// and the exact re-rank needs the originals anyway. Fails only on
    /// malformed data (empty set, non-finite coordinates).
    pub fn quantize(&self, kind: QuantKind) -> Result<CompactPoints, String> {
        let rows: Vec<&[f64]> = self.data.points().iter().map(|p| p.as_ref()).collect();
        CompactPoints::from_rows(kind, &rows)
    }

    /// Runs [`beam_search_quantized`]
    /// for every `(start, query)` pair, sharded across the pool: the walk
    /// navigates in `compact`'s surrogate space and every candidate set is
    /// re-ranked with exact `f64` distances before truncation. Outcome `i`
    /// is exactly the sequential call — deterministic at every thread count
    /// like all `batch_*` methods.
    ///
    /// # Panics
    /// If `compact` does not describe exactly this engine's points (length
    /// mismatch), or `starts.len() != queries.len()`.
    pub fn batch_beam_quantized_detailed<C: Quantized + Sync>(
        &self,
        compact: &C,
        starts: &[u32],
        queries: &[P],
        ef: usize,
        k: usize,
    ) -> BatchBeamDetail {
        let (outcomes, dist_comps) = self.batch(
            starts,
            queries,
            |s, q| beam_search_quantized(&self.graph, &self.data, compact, s, q, ef, k),
            |o| o.dist_comps,
        );
        BatchBeamDetail {
            outcomes,
            dist_comps,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gnet::GNet;
    use crate::search::greedy;
    use pg_metric::{Counting, Euclidean};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn random_dataset(n: usize, seed: u64) -> Dataset<Vec<f64>, Euclidean> {
        let mut rng = StdRng::seed_from_u64(seed);
        Dataset::new(
            (0..n)
                .map(|_| vec![rng.random_range(0.0..40.0), rng.random_range(0.0..40.0)])
                .collect(),
            Euclidean,
        )
    }

    fn random_queries(m: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..m)
            .map(|_| vec![rng.random_range(-5.0..45.0), rng.random_range(-5.0..45.0)])
            .collect()
    }

    fn outcomes_equal(a: &GreedyOutcome, b: &GreedyOutcome) -> bool {
        a.result == b.result
            && a.result_dist == b.result_dist
            && a.hops == b.hops
            && a.dist_comps == b.dist_comps
            && a.self_terminated == b.self_terminated
    }

    #[test]
    fn batch_greedy_matches_sequential_for_every_thread_count() {
        let ds = random_dataset(200, 1);
        let pg = GNet::build(&ds, 1.0);
        let queries = random_queries(40, 2);
        let starts: Vec<u32> = (0..40).map(|i| (i * 31) % 200).collect();
        let sequential: Vec<GreedyOutcome> = starts
            .iter()
            .zip(queries.iter())
            .map(|(&s, q)| greedy(&pg.graph, &ds, s, q))
            .collect();
        for threads in [1, 2, 8] {
            let engine = QueryEngine::new(pg.graph.clone(), ds.clone()).with_threads(threads);
            let batch = engine.batch_greedy(&starts, &queries);
            assert_eq!(batch.outcomes.len(), sequential.len());
            for (b, s) in batch.outcomes.iter().zip(sequential.iter()) {
                assert!(outcomes_equal(b, s), "divergence at {threads} threads");
            }
            assert_eq!(
                batch.dist_comps,
                sequential.iter().map(|o| o.dist_comps).sum::<u64>()
            );
        }
    }

    #[test]
    fn batch_query_respects_budget_exactly() {
        let ds = random_dataset(150, 3);
        let pg = GNet::build(&ds, 1.0);
        let queries = random_queries(25, 4);
        let starts = vec![0u32; 25];
        let engine = QueryEngine::new(pg.graph.clone(), ds.clone()).with_threads(4);
        for budget in [1, 5, 20] {
            let batch = engine.batch_query(&starts, &queries, budget);
            for (i, (q, out)) in queries.iter().zip(batch.outcomes.iter()).enumerate() {
                let solo = crate::search::query(&pg.graph, &ds, starts[i], q, budget);
                assert!(outcomes_equal(out, &solo));
                assert!(out.dist_comps <= budget.max(1));
            }
        }
    }

    #[test]
    fn batch_beam_matches_sequential_and_orders_results() {
        let ds = random_dataset(180, 5);
        let pg = GNet::build(&ds, 1.0);
        let queries = random_queries(30, 6);
        let starts: Vec<u32> = (0..30).map(|i| (i * 13) % 180).collect();
        let engine = QueryEngine::new(pg.graph.clone(), ds.clone()).with_threads(3);
        let batch = engine.batch_beam_detailed(&starts, &queries, 16, 4);
        let mut comps_total = 0u64;
        for (i, q) in queries.iter().enumerate() {
            let solo = beam_search_detailed(&pg.graph, &ds, starts[i], q, 16, 4);
            assert_eq!(batch.outcomes[i].results, solo.results);
            comps_total += solo.dist_comps;
        }
        assert_eq!(batch.dist_comps, comps_total);
    }

    #[test]
    fn batch_beam_detailed_matches_sequential_for_every_thread_count() {
        let ds = random_dataset(170, 12);
        let pg = GNet::build(&ds, 1.0);
        let queries = random_queries(24, 13);
        let starts: Vec<u32> = (0..24).map(|i| (i * 7) % 170).collect();
        let sequential: Vec<BeamOutcome> = starts
            .iter()
            .zip(queries.iter())
            .map(|(&s, q)| beam_search_detailed(&pg.graph, &ds, s, q, 12, 3))
            .collect();
        for threads in [1, 2, 6] {
            let engine = QueryEngine::new(pg.graph.clone(), ds.clone()).with_threads(threads);
            let detail = engine.batch_beam_detailed(&starts, &queries, 12, 3);
            assert_eq!(detail.outcomes, sequential, "diverged at {threads} threads");
            assert_eq!(
                detail.dist_comps,
                sequential.iter().map(|o| o.dist_comps).sum::<u64>()
            );
        }
    }

    #[test]
    fn counting_metric_total_matches_batch_aggregate_under_parallelism() {
        let base = random_dataset(160, 7);
        let counted = Dataset::new(base.points().to_vec(), Counting::new(Euclidean));
        let pg = GNet::build(&counted, 1.0);
        let queries = random_queries(32, 8);
        let starts = vec![5u32; 32];
        let engine = QueryEngine::new(pg.graph, counted).with_threads(4);
        engine.data().metric().reset();
        let batch = engine.batch_greedy(&starts, &queries);
        // The shared Arc<AtomicU64> collects every shard's evaluations.
        assert_eq!(engine.data().metric().count(), batch.dist_comps);
    }

    #[test]
    fn batch_beam_quantized_matches_sequential_for_every_thread_count() {
        use crate::search::beam_search_quantized;
        let ds = random_dataset(150, 21);
        let pg = GNet::build(&ds, 1.0);
        let queries = random_queries(20, 22);
        let starts: Vec<u32> = (0..20).map(|i| (i * 11) % 150).collect();
        for kind in [QuantKind::F32, QuantKind::Sq8] {
            let base = QueryEngine::new(pg.graph.clone(), ds.clone());
            let compact = base.quantize(kind).unwrap();
            let sequential: Vec<BeamOutcome> = starts
                .iter()
                .zip(queries.iter())
                .map(|(&s, q)| beam_search_quantized(&pg.graph, &ds, &compact, s, q, 10, 3))
                .collect();
            for threads in [1, 2, 5] {
                let engine = base.clone().with_threads(threads);
                let detail =
                    engine.batch_beam_quantized_detailed(&compact, &starts, &queries, 10, 3);
                assert_eq!(detail.outcomes, sequential, "diverged at {threads} threads");
                assert_eq!(
                    detail.dist_comps,
                    sequential.iter().map(|o| o.dist_comps).sum::<u64>()
                );
            }
        }
    }

    #[test]
    fn quantized_batch_at_full_width_equals_the_exact_batch() {
        let n = 120;
        let ds = random_dataset(n, 23);
        let pg = GNet::build(&ds, 1.0);
        let queries = random_queries(15, 24);
        let starts = vec![0u32; 15];
        let engine = QueryEngine::new(pg.graph.clone(), ds.clone()).with_threads(3);
        let exact = engine.batch_beam_detailed(&starts, &queries, n, 5);
        for kind in [QuantKind::F32, QuantKind::Sq8] {
            let compact = engine.quantize(kind).unwrap();
            let quant = engine.batch_beam_quantized_detailed(&compact, &starts, &queries, n, 5);
            // At ef = n every candidate set contains the exact top-k, so the
            // re-ranked results are bit-identical to the exact path.
            for (e, q) in exact.outcomes.iter().zip(quant.outcomes.iter()) {
                assert_eq!(e.results, q.results);
            }
        }
    }

    #[test]
    #[should_panic(expected = "one start vertex per query")]
    fn mismatched_starts_rejected() {
        let ds = random_dataset(50, 9);
        let pg = GNet::build(&ds, 1.0);
        let engine = QueryEngine::new(pg.graph, ds);
        let _ = engine.batch_greedy(&[0, 1], &random_queries(3, 10));
    }

    #[test]
    #[should_panic(expected = "must match dataset size")]
    fn graph_dataset_size_mismatch_rejected() {
        let ds = random_dataset(50, 11);
        let _ = QueryEngine::new(Graph::empty(49), ds);
    }
}
