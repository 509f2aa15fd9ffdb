//! Uniform search adapters: every index family in the workspace behind one
//! trait, so evaluation sweeps (`pg_eval`) can walk a quality–cost frontier
//! over `G_net`, θ-graphs, DiskANN/Vamana, NSW, HNSW and brute force with
//! identical driver code.
//!
//! The three shapes an ANN index takes in this workspace are:
//!
//! * **a plain [`Graph`]** routed by [`pg_core::beam_search_detailed`] —
//!   `G_net`, θ-graphs, the merged graph, Vamana, NSW, slow-preprocessing
//!   DiskANN ([`GraphIndex`] wraps any of them);
//! * **a layered structure with its own search** — [`Hnsw`](crate::Hnsw);
//! * **no index at all** — exact brute force ([`BruteIndex`]), the
//!   recall-1.0 reference every frontier is scored against.
//!
//! [`SweepSearch`] erases the difference: one query in, one
//! [`BeamOutcome`] out (results in brute-force-comparable `(dist, id)`
//! order, plus that query's own `dist_comps` and `expansions`). The
//! provided [`SweepSearch::search_batch`] shards a query set across the
//! thread pool with the order-preserving parallel map — the same map
//! `QueryEngine::batch_beam_detailed` runs — so every adapter is
//! batch-sweepable and **thread-count invariant** by construction.
//!
//! # `ef` semantics
//!
//! `ef` is the *effort axis* a frontier sweep walks: the beam width of the
//! one shared walk ([`pg_core::beam_walk`]); larger `ef` buys recall with
//! distance computations. The adapters differ in how a width below `k` is
//! treated: [`GraphIndex`] keeps `ef` as given, so a result list has
//! `min(k, ef, reachable)` entries, while [`Hnsw`](crate::Hnsw) widens its
//! ground-layer beam to `ef.max(k)`. [`BruteIndex`] deliberately **ignores**
//! `ef` — brute force always scans all `n` points, so its frontier is a
//! single point repeated along the axis, which is exactly what makes it the
//! fixed reference line of a recall/QPS plot.
//!
//! # Example
//!
//! ```
//! use pg_baselines::{BruteIndex, GraphIndex, SweepSearch};
//! use pg_core::GNet;
//! use pg_metric::{Euclidean, FlatPoints, FlatRow};
//!
//! let data = FlatPoints::from_fn(80, 2, |i, out| {
//!     out.push((i % 9) as f64);
//!     out.push((i / 9) as f64);
//! })
//! .into_dataset(Euclidean);
//! let pg = GNet::build(&data, 1.0);
//!
//! let index = GraphIndex::new(pg.graph);
//! let q: FlatRow = vec![4.3, 3.9].into();
//! let approx = index.search_one(&data, &q, 8, 3);
//! let exact = BruteIndex.search_one(&data, &q, 8, 3);
//! assert_eq!(approx.results.len(), 3);
//! // Brute force is the ground truth: dist_comps == n, results exact.
//! assert_eq!(exact.dist_comps, 80);
//! assert!(approx.results[0].1 >= exact.results[0].1);
//! ```

use pg_core::{beam_search_detailed, BeamOutcome, Graph};
use pg_metric::{Dataset, Metric};

/// One batched top-`k` search interface over every index family — see the
/// [module docs](self) for the adapter map and the uniform `ef` semantics.
///
/// Implementations must be deterministic: [`SweepSearch::search_one`] is a
/// pure function of `(index, data, q, ef, k)`, and the provided
/// [`SweepSearch::search_batch`] preserves input order, so batch output is
/// identical for every thread count (the evaluation harness asserts this
/// before timing anything).
pub trait SweepSearch<P: Sync, M: Metric<P> + Sync>: Sync {
    /// Top-`k` search for one query at effort `ef`. Results ascend by true
    /// distance with ties broken by smaller id (the
    /// [`Dataset::k_nearest_brute`] order), so they are directly comparable
    /// against exact ground truth.
    fn search_one(&self, data: &Dataset<P, M>, q: &P, ef: usize, k: usize) -> BeamOutcome;

    /// [`SweepSearch::search_one`] for a whole query set, sharded across
    /// the thread pool. Outcome `i` is exactly `search_one(data,
    /// &queries[i], ef, k)` for every thread count.
    fn search_batch(
        &self,
        data: &Dataset<P, M>,
        queries: &[P],
        ef: usize,
        k: usize,
    ) -> Vec<BeamOutcome> {
        rayon::par_map(queries, |q| self.search_one(data, q, ef, k))
    }
}

/// Adapter for any plain [`Graph`] index (`G_net`, θ-graph, merged graph,
/// Vamana, NSW, slow-preprocessing DiskANN): routes queries with
/// [`pg_core::beam_search_detailed`] from vertex `0` (beam search is
/// start-sensitive; one fixed entry keeps sweeps reproducible), batching
/// via the default order-preserving parallel map. The graph must have been
/// built over the dataset passed to the search methods (the same implicit
/// contract every routing call in the workspace has).
#[derive(Debug, Clone)]
pub struct GraphIndex {
    /// The routed graph.
    pub graph: Graph,
}

impl GraphIndex {
    /// Wraps a graph; searches start from vertex `0` with exact `f64`
    /// scoring — on a banded graph (`G_net`) they descend from it, hopping
    /// at the first closer neighbour, before the beam widens.
    pub fn new(graph: Graph) -> Self {
        GraphIndex { graph }
    }
}

impl<P: Sync, M: Metric<P> + Sync> SweepSearch<P, M> for GraphIndex {
    fn search_one(&self, data: &Dataset<P, M>, q: &P, ef: usize, k: usize) -> BeamOutcome {
        beam_search_detailed(&self.graph, data, 0, q, ef, k)
    }
}

/// Adapter for exact brute-force search: [`Dataset::k_nearest_brute`],
/// reported as a [`BeamOutcome`] with `dist_comps = n` (a full scan) and
/// `expansions = 0` (no graph is walked). `ef` is ignored — see the
/// [module docs](self). This is the exact reference every recall frontier
/// is scored against: its recall is 1.0 **by construction**, a property the
/// evaluation harness asserts as a self-check before trusting any sweep.
#[derive(Debug, Clone, Copy, Default)]
pub struct BruteIndex;

impl<P: Sync, M: Metric<P> + Sync> SweepSearch<P, M> for BruteIndex {
    fn search_one(&self, data: &Dataset<P, M>, q: &P, _ef: usize, k: usize) -> BeamOutcome {
        let results = data
            .k_nearest_brute(q, k)
            .into_iter()
            .map(|(i, d)| (i as u32, d))
            .collect();
        BeamOutcome {
            results,
            dist_comps: data.len() as u64,
            expansions: 0,
        }
    }
}

impl<P: Sync, M: Metric<P> + Sync> SweepSearch<P, M> for crate::Hnsw {
    /// [`Hnsw::search_detailed`](crate::Hnsw::search_detailed): greedy
    /// descent plus a ground-layer beam of effective width `ef.max(k)`.
    fn search_one(&self, data: &Dataset<P, M>, q: &P, ef: usize, k: usize) -> BeamOutcome {
        self.search_detailed(data, q, ef, k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{nsw, vamana, Hnsw, HnswParams, NswParams, VamanaParams};
    use pg_core::{GNet, QueryEngine};
    use pg_metric::{Euclidean, FlatPoints, FlatRow};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn random_dataset(n: usize, seed: u64) -> Dataset<FlatRow, Euclidean> {
        let mut rng = StdRng::seed_from_u64(seed);
        FlatPoints::from_fn(n, 2, |_, out| {
            out.push(rng.random_range(0.0..30.0));
            out.push(rng.random_range(0.0..30.0));
        })
        .into_dataset(Euclidean)
    }

    fn random_queries(m: usize, seed: u64) -> Vec<FlatRow> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..m)
            .map(|_| {
                FlatRow::from(vec![
                    rng.random_range(0.0..30.0),
                    rng.random_range(0.0..30.0),
                ])
            })
            .collect()
    }

    #[test]
    fn brute_adapter_matches_k_nearest_brute_exactly() {
        let ds = random_dataset(120, 1);
        for q in random_queries(10, 2) {
            let out = BruteIndex.search_one(&ds, &q, 7, 4);
            let want: Vec<(u32, f64)> = ds
                .k_nearest_brute(&q, 4)
                .into_iter()
                .map(|(i, d)| (i as u32, d))
                .collect();
            assert_eq!(out.results, want);
            assert_eq!(out.dist_comps, 120);
            assert_eq!(out.expansions, 0);
        }
    }

    #[test]
    fn graph_adapter_batch_equals_one_by_one_for_every_thread_count() {
        let ds = random_dataset(200, 3);
        let pg = GNet::build(&ds, 1.0);
        let index = GraphIndex::new(pg.graph);
        let queries = random_queries(24, 4);
        let solo: Vec<BeamOutcome> = queries
            .iter()
            .map(|q| index.search_one(&ds, q, 10, 3))
            .collect();
        for threads in [1, 2, 4] {
            let batch = rayon::with_threads(threads, || index.search_batch(&ds, &queries, 10, 3));
            assert_eq!(batch, solo, "diverged at {threads} threads");
        }
    }

    #[test]
    fn graph_adapter_batch_is_the_engine_batch() {
        let ds = random_dataset(220, 9);
        let pg = GNet::build(&ds, 1.0);
        let index = GraphIndex::new(pg.graph.clone());
        let engine = QueryEngine::new(pg.graph, ds.clone());
        let queries = random_queries(16, 10);
        let starts = vec![0u32; queries.len()];
        assert_eq!(
            index.search_batch(&ds, &queries, 9, 2),
            engine.batch_beam_detailed(&starts, &queries, 9, 2).outcomes
        );
    }

    #[test]
    fn every_graph_family_is_sweepable_through_the_one_trait() {
        let ds = random_dataset(150, 7);
        let queries = random_queries(8, 8);
        let indexes: Vec<Box<dyn SweepSearch<FlatRow, Euclidean>>> = vec![
            Box::new(GraphIndex::new(GNet::build(&ds, 1.0).graph)),
            Box::new(GraphIndex::new(vamana(&ds, VamanaParams::default()))),
            Box::new(GraphIndex::new(nsw(&ds, NswParams::default()))),
            Box::new(Hnsw::build(&ds, HnswParams::default())),
        ];
        for index in &indexes {
            let batch = index.search_batch(&ds, &queries, 16, 2);
            assert_eq!(batch.len(), 8);
            for out in &batch {
                assert_eq!(out.results.len(), 2);
                assert!(out.results[0].1 <= out.results[1].1);
                // Every walk expands its entry, and every vertex it expands
                // it scored.
                assert!(out.expansions >= 1);
                assert!(out.expansions <= out.dist_comps);
            }
        }
    }
}
