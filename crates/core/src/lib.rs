//! Proximity graphs for similarity search — the primary contribution of
//! Lu & Tao, *Proximity Graphs for Similarity Search: Fast Construction,
//! Lower Bounds, and Euclidean Separation* (PODS 2025), implemented from
//! scratch.
//!
//! # What lives here
//!
//! * [`graph`] — CSR directed graphs over dataset ids, plus failure
//!   injection (edge removal) and the merge operation of Section 5;
//! * [`search`] — the `greedy` walk and budgeted `query` of Section 1.1,
//!   verbatim, counting distance computations (one per distinct vertex
//!   scored); `beam_search_detailed`, which on a banded graph first
//!   descends, hopping at the first closer neighbour, then widens; the
//!   one best-first walk (`beam_walk`) every beam search and baseline
//!   construction composes;
//! * [`navigability`] — the `(1+ε)`-navigability checker of Fact 2.1 and an
//!   exhaustive operational PG checker;
//! * [`params`] — `η` and `φ` (Eqs. 3–4);
//! * [`gnet`] — `G_net` of Theorem 1.1 with three equivalent constructions
//!   (naive, fast relatives-cascade, and the Section 2.4 dynamic-ANN
//!   procedure);
//! * [`theta`] — cone covers and θ-graphs of Section 5.1 (Lemma 5.1:
//!   an `(ε/32)`-graph is a `(1+ε)`-PG);
//! * [`merged`] — the merged Euclidean graph of Theorem 1.3 with jackpot
//!   vertex sampling (Eq. 17) and best-of-runs amplification (Section 5.3);
//! * [`engine`] — the parallel batched query executor: shards query batches
//!   across a thread pool with results identical to the sequential routines;
//! * [`snapshot`] — engine persistence: `QueryEngine::save_with`/`load`
//!   through the versioned `pg_store` on-disk format, with a loaded engine
//!   answering bit-identically to the one that was saved; a compact store
//!   is derived on load (`QueryEngine::quantize`), never read from the file;
//! * [`sharded`] — one logical index over millions of points as `S`
//!   independent per-shard sub-indexes, searched in parallel and merged in
//!   surrogate space with a deterministic tie-break, so results are
//!   bit-identical across shard counts and thread counts.
//!
//! The crate map, the flat-storage design, and the snapshot format spec
//! live in `ARCHITECTURE.md` at the repository root.
//!
//! # Quick example
//!
//! ```
//! use pg_core::gnet::GNet;
//! use pg_core::search::greedy;
//! use pg_metric::{Dataset, Euclidean};
//!
//! let points: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64, (i % 7) as f64]).collect();
//! let data = Dataset::new(points, Euclidean);
//! let pg = GNet::build(&data, 1.0); // a 2-approximate proximity graph
//!
//! let query = vec![17.2, 3.4];
//! let out = greedy(&pg.graph, &data, 0, &query);
//! let (exact, _) = data.nearest_brute(&query);
//! assert!(out.result_dist <= 2.0 * data.dist_to(exact, &query));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod engine;
pub mod gnet;
pub mod graph;
pub mod merged;
pub mod navigability;
pub mod params;
pub mod search;
pub mod sharded;
pub mod snapshot;
pub mod theta;

pub use engine::{BatchBeamDetail, BatchOutcome, QueryEngine};
pub use gnet::{gnet_edges_with_phi, BuildPhase, GNet};
pub use graph::{BandLadder, Graph, GraphBuilder};
pub use merged::{MergedGraph, MergedParams};
pub use navigability::{check_navigable, check_pg_exhaustive, Starts, Violation};
pub use params::GNetParams;
pub use search::{
    beam_search_detailed, beam_search_quantized, beam_search_quantized_surrogate, beam_walk,
    greedy, point_score, query, BeamOutcome, BeamSurrogate, GreedyOutcome, Score,
};
pub use sharded::{ShardAssignment, ShardedEngine};
pub use snapshot::{AnyEngine, SnapshotMetric};
pub use theta::{ConeSet, ThetaGraph};
