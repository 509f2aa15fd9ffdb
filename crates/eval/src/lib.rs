//! Evaluation subsystem: the workspace scores itself.
//!
//! The paper's empirical claims — and those of the proximity-graph
//! literature it builds on (FCPG, the monotonic-PG study) — are about the
//! **trade-off** between answer quality and search cost, not about raw
//! speed: a regression that returns the wrong neighbors faster is a loss,
//! and only a harness that measures recall can see it. This crate is that
//! harness, in three layers:
//!
//! * [`truth`] — exact ground truth: parallel brute-force top-`k`
//!   ([`GroundTruth::compute`]), or over a seeded sample of the queries
//!   ([`GroundTruth::compute_sampled`]), recomputed on every run;
//! * [`metrics`] — answer quality per query: [`recall_at_k`],
//!   [`mean_distance_ratio`], [`success_at_eps`], all scored with the
//!   tie-safe distance-threshold rule (see the [`metrics`] module docs for
//!   why no epsilon fudge is needed);
//! * [`sweep`] — [`FrontierSweep`], which walks the beam `ef` axis
//!   through batched searches of any [`pg_baselines::SweepSearch`] index,
//!   and [`sweep::greedy_budget_frontier`], which walks the paper's greedy
//!   distance budget through a `QueryEngine`; both emit `(param, Score)`
//!   frontier points — recall, ratio, success@ε, dist_comps, hops. They
//!   read no clock, so every point is the same at every pool size.
//!
//! The measurement strategy — what is asserted deterministic, and how the
//! recall–distance frontier is read — is documented in `ARCHITECTURE.md`
//! (§ Measurement strategy) and `EXPERIMENTS.md` at the repository root;
//! `pg_paper`'s "Fact 2.1 at every beam width" row in `pg_bench` is the
//! standard-workload driver.
//!
//! # Example: score an index against brute force
//!
//! ```
//! use pg_baselines::{BruteIndex, GraphIndex};
//! use pg_core::GNet;
//! use pg_eval::{FrontierSweep, GroundTruth};
//! use pg_metric::{Euclidean, FlatPoints, FlatRow};
//!
//! // A small grid dataset and a handful of off-grid queries.
//! let data = FlatPoints::from_fn(150, 2, |i, out| {
//!     out.push((i % 15) as f64);
//!     out.push((i / 15) as f64);
//! })
//! .into_dataset(Euclidean);
//! let queries: Vec<FlatRow> = (0..10)
//!     .map(|i| FlatRow::from(vec![i as f64 * 1.4 + 0.3, i as f64 * 0.9 + 0.2]))
//!     .collect();
//!
//! // Exact ground truth (parallel brute force), then a two-point frontier.
//! let truth = GroundTruth::compute(&data, &queries, 3);
//! let sweep = FrontierSweep::new(3, vec![2, 32]);
//!
//! // Brute force scores a perfect 1.0 recall by construction…
//! let brute = sweep.run(&BruteIndex, &data, &queries, &truth);
//! assert!(brute.iter().all(|p| p.score.recall == 1.0));
//!
//! // …and a G_net beam search buys recall with distance computations.
//! let pg = GNet::build(&data, 1.0);
//! let frontier = sweep.run(&GraphIndex::new(pg.graph), &data, &queries, &truth);
//! assert!(frontier[1].score.recall >= frontier[0].score.recall);
//! assert!(frontier[1].score.dist_comps > frontier[0].score.dist_comps);
//! assert!(frontier[1].score.dist_comps < 150.0); // still beats a linear scan
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod metrics;
pub mod sweep;
pub mod truth;

pub use metrics::{mean_distance_ratio, recall_at_k, success_at_eps};
pub use sweep::{FrontierPoint, FrontierSweep, Score};
pub use truth::{sample_indices, GroundTruth};
