//! The quality–cost frontier driver: walk a parameter axis through batched
//! searches and score every point against exact ground truth.
//!
//! A quality–cost *frontier* is the methodology of the empirical
//! proximity-graph literature (FCPG, the monotonic-PG study, and every
//! ANN-benchmarks plot): one index traces a curve by sweeping its search
//! effort knob, and indexes are compared curve-against-curve, never at a
//! single arbitrary operating point. The cost axis here is distance
//! computations per query, the paper's cost model; wall clock belongs to
//! the `pg_ladder` benchmark. Two axes are walked:
//!
//! * **beam width `ef`** ([`FrontierSweep::run`]) — the practical knob,
//!   swept through any [`SweepSearch`] adapter (graph indexes route through
//!   [`QueryEngine::batch_beam_detailed`]);
//! * **greedy distance budget** ([`greedy_budget_frontier`]) —
//!   the *paper's* knob: the budgeted `query(p_start, q, Q)` of Section
//!   1.1, swept through [`QueryEngine::batch_query`].
//!
//! Every frontier point is its axis value and a [`Score`]: recall, mean
//! distance ratio, success@ε, distance comps, hops. No clock is read.
//! Scores are pure functions of `(index, data, queries, axis value)` and
//! therefore identical at every thread count (the adapters and the engine
//! guarantee order-preserving, walk-identical parallelism), so a frontier
//! printed at one pool size can be compared byte for byte with one
//! printed at another.

use pg_baselines::SweepSearch;
use pg_core::{BeamOutcome, QueryEngine};
use pg_metric::{Dataset, Metric};

use crate::metrics::{mean_distance_ratio, recall_at_k, success_at_eps};
use crate::truth::GroundTruth;

/// The score of a frontier point: every quality/cost metric. `PartialEq`
/// so thread-count invariance is a plain equality assertion (all fields
/// are exact means of exact per-query values — no accumulation-order
/// ambiguity: the summation order over queries is fixed by input order).
#[derive(Debug, Clone, PartialEq)]
pub struct Score {
    /// Mean recall@k over the query set (see
    /// [`recall_at_k`]).
    pub recall: f64,
    /// Mean over queries of the per-query mean distance ratio (see
    /// [`mean_distance_ratio`]); `f64::INFINITY` if any query got an
    /// infinitely bad answer.
    pub mean_dist_ratio: f64,
    /// Fraction of queries whose best answer was a `(1+ε)`-ANN (see
    /// [`success_at_eps`]).
    pub success_at_eps: f64,
    /// Mean distance computations per query — the paper's cost model.
    pub dist_comps: f64,
    /// Mean graph-walk length per query: beam expansions, or greedy hops.
    pub hops: f64,
}

/// One point of a quality–cost frontier: the axis value and its [`Score`].
#[derive(Debug, Clone)]
pub struct FrontierPoint {
    /// The swept parameter value (`ef`, or the greedy budget).
    pub param: f64,
    /// The quality/cost metrics at this parameter.
    pub score: Score,
}

/// The ε of the success@ε column.
const EPS: f64 = 1.0;

/// Sweep configuration: result size `k` and the `ef` axis.
///
/// The success@ε column is scored at ε = 1 — exactly the paper's 2-ANN
/// guarantee (Fact 2.1 with ε = 1), so the column reads as "fraction of
/// queries on which the index empirically delivered what `G_net(ε = 1)`
/// proves".
#[derive(Debug, Clone)]
pub struct FrontierSweep {
    /// Results requested per query; must equal the ground truth's `k`.
    pub k: usize,
    /// The `ef` values [`FrontierSweep::run`] walks, in order.
    pub ef_values: Vec<usize>,
}

impl FrontierSweep {
    /// A sweep at result size `k` over the given `ef` axis, with ε = 1.
    pub fn new(k: usize, ef_values: Vec<usize>) -> Self {
        assert!(k >= 1, "sweeps need k >= 1");
        assert!(!ef_values.is_empty(), "sweeps need at least one ef value");
        FrontierSweep { k, ef_values }
    }

    /// Scores a batch of per-query outcomes against ground truth (no
    /// search — pure arithmetic).
    pub fn score_outcomes(&self, truth: &GroundTruth, outcomes: &[BeamOutcome]) -> Score {
        assert_eq!(
            outcomes.len(),
            truth.queries(),
            "one outcome per ground-truth query required"
        );
        assert_eq!(
            truth.k(),
            self.k,
            "ground truth must be computed at the sweep's k"
        );
        let m = outcomes.len() as f64;
        let mut recall = 0.0;
        let mut ratio = 0.0;
        let mut success = 0.0;
        let mut comps = 0.0;
        let mut hops = 0.0;
        for (q, out) in outcomes.iter().enumerate() {
            recall += recall_at_k(truth, q, &out.results);
            ratio += mean_distance_ratio(truth, q, &out.results);
            success += success_at_eps(truth, q, &out.results, EPS) as u32 as f64;
            comps += out.dist_comps as f64;
            hops += out.expansions as f64;
        }
        Score {
            recall: recall / m,
            mean_dist_ratio: ratio / m,
            success_at_eps: success / m,
            dist_comps: comps / m,
            hops: hops / m,
        }
    }

    /// Runs one axis point: batch-search at `ef`, score the outcomes.
    pub fn score_at<P, M, I>(
        &self,
        index: &I,
        data: &Dataset<P, M>,
        queries: &[P],
        truth: &GroundTruth,
        ef: usize,
    ) -> Score
    where
        P: Sync,
        M: Metric<P> + Sync,
        I: SweepSearch<P, M> + ?Sized,
    {
        let outcomes = index.search_batch(data, queries, ef, self.k);
        self.score_outcomes(truth, &outcomes)
    }

    /// Walks the `ef` axis: at each value, one
    /// [`SweepSearch::search_batch`] call scored against `truth`
    /// ([`FrontierSweep::score_at`]). Returns one [`FrontierPoint`] per
    /// `ef`, in axis order.
    pub fn run<P, M, I>(
        &self,
        index: &I,
        data: &Dataset<P, M>,
        queries: &[P],
        truth: &GroundTruth,
    ) -> Vec<FrontierPoint>
    where
        P: Sync,
        M: Metric<P> + Sync,
        I: SweepSearch<P, M> + ?Sized,
    {
        self.ef_values
            .iter()
            .map(|&ef| FrontierPoint {
                param: ef as f64,
                score: self.score_at(index, data, queries, truth, ef),
            })
            .collect()
    }
}

/// Walks the **greedy budget** axis of the paper's Section 1.1 `query`: at
/// each budget `Q`, one [`QueryEngine::batch_query`] call from `starts`.
/// This frontier is scored at `k = 1` (greedy returns a single vertex);
/// ground truth of any `k >= 1` works because only the nearest-neighbor
/// distance is consulted. Hops are the greedy hop count (`hops.len() - 1`),
/// and the same tie-safe threshold convention as [`recall_at_k`] applies: a
/// returned vertex exactly as close as the true NN is a hit.
pub fn greedy_budget_frontier<P: Sync, M: Metric<P> + Sync>(
    engine: &QueryEngine<P, M>,
    starts: &[u32],
    queries: &[P],
    truth: &GroundTruth,
    budgets: &[u64],
) -> Vec<FrontierPoint> {
    assert_eq!(queries.len(), truth.queries());
    let m = queries.len() as f64;
    budgets
        .iter()
        .map(|&budget| {
            let batch = engine.batch_query(starts, queries, budget);
            let mut recall = 0.0;
            let mut ratio = 0.0;
            let mut success = 0.0;
            let mut hops = 0.0;
            for (q, out) in batch.outcomes.iter().enumerate() {
                let nn = truth.nearest_dist(q);
                recall += (out.result_dist <= nn) as u32 as f64;
                ratio += if nn > 0.0 {
                    out.result_dist / nn
                } else if out.result_dist == 0.0 {
                    1.0
                } else {
                    f64::INFINITY
                };
                success += (out.result_dist <= (1.0 + EPS) * nn) as u32 as f64;
                hops += (out.hops.len() - 1) as f64;
            }
            FrontierPoint {
                param: budget as f64,
                score: Score {
                    recall: recall / m,
                    mean_dist_ratio: ratio / m,
                    success_at_eps: success / m,
                    dist_comps: batch.dist_comps as f64 / m,
                    hops: hops / m,
                },
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pg_baselines::{BruteIndex, GraphIndex};
    use pg_core::GNet;
    use pg_metric::{Euclidean, FlatPoints, FlatRow};

    fn workload() -> (Dataset<FlatRow, Euclidean>, Vec<FlatRow>) {
        let data = FlatPoints::from_fn(120, 2, |i, out| {
            out.push((i % 11) as f64 * 1.7);
            out.push((i / 11) as f64 * 1.3);
        })
        .into_dataset(Euclidean);
        let queries: Vec<FlatRow> = (0..20)
            .map(|i| FlatRow::from(vec![i as f64 * 0.83, (20 - i) as f64 * 0.61]))
            .collect();
        (data, queries)
    }

    #[test]
    fn brute_force_frontier_is_exact_at_every_axis_point() {
        let (data, queries) = workload();
        let truth = GroundTruth::compute(&data, &queries, 5);
        let sweep = FrontierSweep::new(5, vec![1, 8, 64]);
        for p in sweep.run(&BruteIndex, &data, &queries, &truth) {
            assert_eq!(p.score.recall, 1.0);
            assert_eq!(p.score.mean_dist_ratio, 1.0);
            assert_eq!(p.score.success_at_eps, 1.0);
            assert_eq!(p.score.dist_comps, 120.0);
            assert_eq!(p.score.hops, 0.0);
        }
    }

    #[test]
    fn graph_frontier_recall_is_monotone_enough_and_costs_grow() {
        let (data, queries) = workload();
        let truth = GroundTruth::compute(&data, &queries, 3);
        let pg = GNet::build(&data, 1.0);
        let index = GraphIndex::new(pg.graph);
        let sweep = FrontierSweep::new(3, vec![3, 120]);
        let pts = sweep.run(&index, &data, &queries, &truth);
        // A beam as wide as the dataset on a connected graph is near-exact;
        // recall must not *decrease* from ef = 3 to ef = n.
        assert!(pts[1].score.recall >= pts[0].score.recall);
        assert!(pts[1].score.dist_comps > pts[0].score.dist_comps);
        assert!(
            pts[1].score.recall > 0.9,
            "ef = n recall {}",
            pts[1].score.recall
        );
    }

    #[test]
    fn scores_are_thread_count_invariant() {
        let (data, queries) = workload();
        let truth = GroundTruth::compute(&data, &queries, 4);
        let pg = GNet::build(&data, 1.0);
        let index = GraphIndex::new(pg.graph);
        let sweep = FrontierSweep::new(4, vec![2, 9]);
        let machine = std::thread::available_parallelism().map_or(1, |t| t.get());
        let base: Vec<Score> = rayon::with_threads(1, || {
            sweep
                .ef_values
                .iter()
                .map(|&ef| sweep.score_at(&index, &data, &queries, &truth, ef))
                .collect()
        });
        for threads in [2, machine] {
            let got: Vec<Score> = rayon::with_threads(threads, || {
                sweep
                    .ef_values
                    .iter()
                    .map(|&ef| sweep.score_at(&index, &data, &queries, &truth, ef))
                    .collect()
            });
            assert_eq!(base, got, "scores diverged at {threads} threads");
        }
    }

    #[test]
    fn greedy_budget_frontier_improves_with_budget() {
        let (data, queries) = workload();
        let truth = GroundTruth::compute(&data, &queries, 1);
        let pg = GNet::build(&data, 1.0);
        let engine = QueryEngine::new(pg.graph, data);
        let starts: Vec<u32> = (0..queries.len()).map(|i| (i * 31 % 120) as u32).collect();
        let pts = greedy_budget_frontier(&engine, &starts, &queries, &truth, &[1, 1_000_000]);
        assert!(pts[1].score.recall >= pts[0].score.recall);
        assert!(pts[1].score.dist_comps >= pts[0].score.dist_comps);
        // An effectively unbounded budget lets greedy self-terminate: on a
        // (1+1)-PG every query must be a 2-ANN (success at ε = 1).
        assert_eq!(pts[1].score.success_at_eps, 1.0);
        // Budget 1 pins the walk to its start vertex: exactly one distance
        // computation, zero hops.
        assert_eq!(pts[0].score.dist_comps, 1.0);
        assert_eq!(pts[0].score.hops, 0.0);
    }

    #[test]
    #[should_panic(expected = "ground truth must be computed at the sweep's k")]
    fn mismatched_truth_k_is_rejected() {
        let (data, queries) = workload();
        let truth = GroundTruth::compute(&data, &queries, 2);
        let sweep = FrontierSweep::new(3, vec![4]);
        let _ = sweep.score_at(&BruteIndex, &data, &queries, &truth, 4);
    }
}
