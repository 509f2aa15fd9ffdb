//! Property tests for the evaluation subsystem, pinning the two
//! self-check invariants `pg_paper`'s frontier row relies on (it checks
//! the first at its own sizes; CI's `cmp` across pool sizes holds the
//! second for every number it prints):
//!
//! 1. a frontier swept with the brute-force "algorithm" scores recall@k
//!    **exactly** 1.0 (and mean distance ratio exactly 1.0) at every axis
//!    point, on arbitrary inputs — ground truth agrees with itself;
//! 2. every deterministic metric a sweep reports is **bit-identical**
//!    across thread counts 1 / 2 / the machine's parallelism, for every
//!    index family behind the `SweepSearch` trait.

use pg_baselines::{BruteIndex, GraphIndex, Hnsw, HnswParams, SweepSearch};
use pg_core::{GNet, QueryEngine};
use pg_eval::sweep::greedy_budget_frontier;
use pg_eval::{FrontierSweep, GroundTruth, Score};
use pg_metric::{Dataset, Euclidean, FlatPoints, FlatRow};
use proptest::prelude::*;

/// A seeded flat dataset plus off-grid queries: coordinates come from a
/// coarse integer lattice scaled by an exact dyadic factor, so exact
/// distance ties are *common* — the adversarial case for recall scoring.
/// Data points are deduplicated (`GNet` requires a finite aspect ratio);
/// queries may repeat and may coincide with data points.
fn workload() -> impl Strategy<Value = (FlatPoints, FlatPoints)> {
    (
        prop::collection::vec((0i32..40, 0i32..40), 30..90),
        prop::collection::vec((0i32..45, 0i32..45), 5..20),
    )
        .prop_map(|(mut pts, qs)| {
            pts.sort_unstable();
            pts.dedup();
            let data = FlatPoints::from_fn(pts.len(), 2, |i, out| {
                out.push(pts[i].0 as f64 * 0.75);
                out.push(pts[i].1 as f64 * 0.75);
            });
            let queries = FlatPoints::from_fn(qs.len(), 2, |i, out| {
                out.push(qs[i].0 as f64 * 0.661);
                out.push(qs[i].1 as f64 * 0.661);
            });
            (data, queries)
        })
}

fn machine_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |t| t.get())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn brute_force_sweep_scores_exactly_one((data, queries) in workload()) {
        let data = data.into_dataset(Euclidean);
        let queries = queries.into_rows();
        let k = 3.min(data.len());
        let truth = GroundTruth::compute(&data, &queries, k);
        let sweep = FrontierSweep::new(k, vec![1, 4, 16]);
        for p in sweep.run(&BruteIndex, &data, &queries, &truth) {
            prop_assert_eq!(p.score.recall, 1.0);
            prop_assert_eq!(p.score.mean_dist_ratio, 1.0);
            prop_assert_eq!(p.score.success_at_eps, 1.0);
            prop_assert_eq!(p.score.dist_comps, data.len() as f64);
        }
    }

    #[test]
    fn scores_are_invariant_across_thread_counts((data, queries) in workload()) {
        let data = data.into_dataset(Euclidean);
        let queries = queries.into_rows();
        let k = 2.min(data.len());
        let truth = GroundTruth::compute(&data, &queries, k);
        let sweep = FrontierSweep::new(k, vec![2, 8]);

        let gnet = GraphIndex::new(GNet::build(&data, 1.0).graph);
        let hnsw = Hnsw::build(&data, HnswParams::default());
        let indexes: Vec<&dyn SweepSearch<FlatRow, Euclidean>> =
            vec![&gnet, &hnsw, &BruteIndex];

        for index in indexes {
            let score_all = |threads: usize| -> Vec<Score> {
                rayon::with_threads(threads, || {
                    sweep
                        .ef_values
                        .iter()
                        .map(|&ef| sweep.score_at(index, &data, &queries, &truth, ef))
                        .collect()
                })
            };
            let base = score_all(1);
            for threads in [2, machine_threads()] {
                prop_assert_eq!(&score_all(threads), &base, "diverged at {} threads", threads);
            }
        }
    }

    #[test]
    fn ground_truth_itself_is_invariant_across_thread_counts((data, queries) in workload()) {
        let data = data.into_dataset(Euclidean);
        let queries = queries.into_rows();
        let k = 4.min(data.len());
        let base = rayon::with_threads(1, || GroundTruth::compute(&data, &queries, k));
        for threads in [2, machine_threads()] {
            let gt = rayon::with_threads(threads, || GroundTruth::compute(&data, &queries, k));
            prop_assert_eq!(&gt, &base, "ground truth diverged at {} threads", threads);
        }
    }

    #[test]
    fn greedy_budget_scores_are_invariant_across_thread_counts((data, queries) in workload()) {
        let data = data.into_dataset(Euclidean);
        let queries = queries.into_rows();
        let truth = GroundTruth::compute(&data, &queries, 1);
        let n = data.len();
        let pg = GNet::build(&data, 1.0);
        let starts: Vec<u32> = (0..queries.len()).map(|i| ((i * 17) % n) as u32).collect();
        let budgets = [1u64, 8, u64::MAX];
        let run = |threads: usize| -> Vec<Score> {
            rayon::with_threads(threads, || {
                let engine = QueryEngine::new(pg.graph.clone(), data.clone());
                greedy_budget_frontier(&engine, &starts, &queries, &truth, &budgets)
                    .into_iter()
                    .map(|p| p.score)
                    .collect()
            })
        };
        let base = run(1);
        // An unbounded budget on a (1+1)-PG must deliver the 2-ANN
        // guarantee on every query, from any start vertex.
        prop_assert_eq!(base[2].success_at_eps, 1.0);
        for threads in [2, machine_threads()] {
            prop_assert_eq!(&run(threads), &base, "diverged at {} threads", threads);
        }
    }
}

/// Non-property regression: scoring through a `Counting`-wrapped dataset
/// leaves the counter consistent with the reported per-query costs (the
/// sharded build table of `pg_paper` relies on this).
#[test]
fn counting_metric_agrees_with_reported_dist_comps() {
    use pg_metric::Counting;

    let flat = FlatPoints::from_fn(60, 2, |i, out| {
        out.push((i % 8) as f64);
        out.push((i / 8) as f64);
    });
    let queries: Vec<FlatRow> = (0..7)
        .map(|i| FlatRow::from(vec![i as f64 * 0.875, i as f64 * 0.375]))
        .collect();
    let data = Dataset::new(flat.clone().into_rows(), Counting::new(Euclidean));
    let truth = GroundTruth::compute(&data, &queries, 2);
    assert_eq!(
        data.metric().take(),
        60 * 7,
        "ground truth costs n per query"
    );

    let sweep = FrontierSweep::new(2, vec![6]);
    let score = sweep.score_at(&BruteIndex, &data, &queries, &truth, 6);
    assert_eq!(
        data.metric().take(),
        score.dist_comps as u64 * queries.len() as u64
    );
}
