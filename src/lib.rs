//! # proximity-graphs
//!
//! A from-scratch Rust reproduction of **Lu & Tao, “Proximity Graphs for
//! Similarity Search: Fast Construction, Lower Bounds, and Euclidean
//! Separation” (PODS 2025)** — the theory behind the proximity-graph ANN
//! paradigm (HNSW, DiskANN, NSG, …), made executable.
//!
//! This facade crate re-exports the whole workspace:
//!
//! | Crate | Contents |
//! |-------|----------|
//! | [`metric`] | `Metric` trait, `L_p` metrics with unrolled kernels, contiguous `FlatPoints`/`FlatRow` storage, distance-count instrumentation, aspect-ratio and doubling-dimension tools |
//! | [`covertree`] | dynamic cover tree (insert / lazy delete / `c`-ANN / range) — the Cole–Gottlieb stand-in of Section 2.4 |
//! | [`nets`] | `r`-nets and the near-linear hierarchical net ladder (Har-Peled–Mendel stand-in) |
//! | [`core`] | `G_net` (Thm 1.1), `greedy`/`query` (Sec 1.1), navigability checking (Fact 2.1), θ-graphs (Sec 5.1), the merged Euclidean graph (Thm 1.3), the parallel batched `QueryEngine` |
//! | [`baselines`] | slow-preprocessing DiskANN, Vamana, HNSW, NSW, and the one sweep interface over them and brute force |
//! | [`hardness`] | the executable lower-bound instances of Theorem 1.2 (Sections 3–4) with adversarial verifiers |
//! | [`workloads`] | seeded dataset and query generators |
//! | [`store`] | versioned on-disk index snapshots (`QueryEngine::save_with`/`load` live in [`core::snapshot`]) |
//! | [`eval`] | the self-scoring layer: exact brute-force ground truth, recall/quality metrics, recall-vs-distance frontier sweeps |
//! | [`serve`] | the online serving layer: TCP server with a length-prefixed checksummed protocol, bounded per-core query dispatch, multi-index registry with zero-drop snapshot hot-swap |
//!
//! The architecture — crate dependency diagram, flat-storage design,
//! surrogate-comparison semantics, compat-shim policy, and the snapshot
//! format spec — is documented in `ARCHITECTURE.md` at the repository root.
//!
//! ## Quickstart
//!
//! ```
//! use proximity_graphs::core::{greedy, GNet};
//! use proximity_graphs::metric::{Counting, Dataset, Euclidean};
//! use proximity_graphs::workloads;
//!
//! // 1. Data: 500 random 2-d vectors, with distance-call counting.
//! let points = workloads::uniform_cube(500, 2, 100.0, 42);
//! let data = Dataset::new(points, Counting::new(Euclidean));
//!
//! // 2. Build the paper's (1+ε)-proximity graph for ε = 1 (a 2-ANN graph).
//! let pg = GNet::build(&data, 1.0);
//!
//! // 3. Route a query greedily from an arbitrary start vertex.
//! data.metric().reset();
//! let q = vec![31.4, 15.9];
//! let out = greedy(&pg.graph, &data, 0, &q);
//!
//! // The answer is a 2-approximate nearest neighbor...
//! let (_, exact) = data.nearest_brute(&q);
//! assert!(out.result_dist <= 2.0 * exact);
//! // ...found with far fewer distance computations than a linear scan.
//! assert!(out.dist_comps < 500);
//! ```
//!
//! ## Parallel batched queries
//!
//! A serving system routes many queries at once. The
//! [`QueryEngine`](core::QueryEngine) owns a built graph plus its dataset
//! and shards query batches across a thread pool (sized by the `PG_THREADS`
//! environment variable, else the machine's parallelism) —
//! with per-query results **identical to the sequential routines** at every
//! thread count, and distance accounting that stays exact because the
//! [`Counting`](metric::Counting) wrapper's counter is shared atomically:
//!
//! ```
//! use proximity_graphs::core::{greedy, GNet, QueryEngine};
//! use proximity_graphs::metric::{Dataset, Euclidean};
//! use proximity_graphs::workloads;
//!
//! let points = workloads::uniform_cube(400, 2, 80.0, 7);
//! let data = Dataset::new(points, Euclidean);
//! let pg = GNet::build(&data, 1.0);
//!
//! let engine = QueryEngine::new(pg.graph, data).with_threads(2);
//! let queries = workloads::uniform_queries(32, 2, 0.0, 80.0, 8);
//! let starts: Vec<u32> = (0..32).map(|i| (i * 13) % 400).collect();
//!
//! let batch = engine.batch_greedy(&starts, &queries);
//! assert_eq!(batch.outcomes.len(), 32);
//! for (i, out) in batch.outcomes.iter().enumerate() {
//!     let solo = greedy(engine.graph(), engine.data(), starts[i], &queries[i]);
//!     assert_eq!(out.result, solo.result);
//! }
//! // Budgeted batches (`batch_query`) and beam batches
//! // (`batch_beam_detailed`) work the same way; `batch.dist_comps` aggregates the whole batch's cost.
//! ```
//!
//! For serving workloads, store points in the contiguous
//! [`FlatPoints`](metric::FlatPoints) layout
//! (`workloads::uniform_cube_flat(..).into_dataset(Euclidean)`): identical
//! results and distance counts (pinned by `tests/flat_parity.rs`), better
//! cache behavior on every scan — see README § Performance.
//!
//! ## Index snapshots: build once, serve forever
//!
//! Construction is the expensive phase; queries are cheap greedy walks.
//! [`QueryEngine::save_with`](core::QueryEngine::save_with) persists the
//! index (graph, flat points, metadata) to the versioned [`store`] format,
//! and [`QueryEngine::load`](core::QueryEngine::load) reconstructs an engine
//! that answers **bit-identically** to the one that was saved, together
//! with its stored metadata (pinned by `tests/snapshot_parity.rs` across
//! thread counts). A compact store is not persisted: the loaded engine's
//! `quantize` derives it bit for bit. Corrupt, truncated, or incompatible
//! files fail with typed [`store::SnapshotError`]s, never panics:
//!
//! ```
//! use proximity_graphs::core::{GNet, QueryEngine};
//! use proximity_graphs::metric::{Euclidean, FlatRow};
//! use proximity_graphs::workloads;
//!
//! let data = workloads::uniform_cube_flat(300, 2, 70.0, 9).into_dataset(Euclidean);
//! let pg = GNet::build(&data, 1.0);
//! let engine = QueryEngine::new(pg.graph, data);
//!
//! // Offline: save the built index.
//! let path = std::env::temp_dir().join(format!("pg_facade_doc_{}.pgix", std::process::id()));
//! engine.save_with(&path, 0, Some(pg.params.into())).unwrap();
//!
//! // Online: load and serve — identical answers, no rebuild.
//! let (loaded, meta): (QueryEngine<FlatRow, Euclidean>, _) = QueryEngine::load(&path).unwrap();
//! std::fs::remove_file(&path).unwrap();
//! let queries = workloads::uniform_queries_flat(8, 2, 0.0, 70.0, 10).into_rows();
//! let starts = vec![meta.entry_point; 8];
//! let a = engine.batch_greedy(&starts, &queries);
//! let b = loaded.batch_greedy(&starts, &queries);
//! assert_eq!(a.dist_comps, b.dist_comps);
//! for (x, y) in a.outcomes.iter().zip(b.outcomes.iter()) {
//!     assert_eq!(x.result, y.result);
//! }
//! ```

//!
//! ## Scoring quality: recall–distance frontiers
//!
//! Speed without recall is meaningless — a regression that returns the
//! wrong neighbors faster would read as a win on a pure throughput
//! benchmark. The [`eval`] subsystem makes the workspace self-scoring:
//! exact ground truth by parallel brute force, tie-safe quality metrics,
//! and a [`FrontierSweep`](eval::FrontierSweep) that walks a search-effort
//! axis through any index behind the
//! [`SweepSearch`](baselines::SweepSearch) adapter trait:
//!
//! ```
//! use proximity_graphs::baselines::{BruteIndex, GraphIndex};
//! use proximity_graphs::core::GNet;
//! use proximity_graphs::eval::{FrontierSweep, GroundTruth};
//! use proximity_graphs::metric::Euclidean;
//! use proximity_graphs::workloads;
//!
//! let data = workloads::uniform_cube_flat(400, 2, 80.0, 7).into_dataset(Euclidean);
//! let queries = workloads::uniform_queries_flat(16, 2, 0.0, 80.0, 8).into_rows();
//!
//! // Exact top-5 ground truth, then sweep a G_net beam across two widths.
//! let truth = GroundTruth::compute(&data, &queries, 5);
//! let pg = GNet::build(&data, 1.0);
//! let sweep = FrontierSweep::new(5, vec![8, 64]);
//! let frontier = sweep.run(&GraphIndex::new(pg.graph), &data, &queries, &truth);
//!
//! // Wider beams never lose recall here, and brute force is exact by
//! // construction — the self-check the evaluation harness runs for real.
//! assert!(frontier[1].score.recall >= frontier[0].score.recall);
//! let reference = sweep.run(&BruteIndex, &data, &queries, &truth);
//! assert!(reference.iter().all(|p| p.score.recall == 1.0));
//! ```
//!
//! Every point is a count or a ratio of counts (no clock), so a frontier
//! is the same at every pool size. The standard-workload driver is
//! `pg_paper`'s "Fact 2.1 at every beam width" row (`pg_bench`); the
//! experiments handbook `EXPERIMENTS.md` at the repository root explains
//! how to read the frontier tables and the `BENCH_<label>.json` artifact.
//!
//! ## Serving: queries over the wire
//!
//! The [`serve`] crate turns a built index into an online service on plain
//! `std::net::TcpListener` — no external dependencies. Frames are
//! length-prefixed and FNV-checksummed (the byte-level spec lives in
//! `ARCHITECTURE.md` § "Serving protocol"); malformed input yields typed
//! error responses, never panics. Each query is answered on the connection
//! thread that received it, at most one search per core at a time (the rest
//! wait in a bounded queue), and a named-index registry supports atomic
//! snapshot hot-swap with zero dropped requests — every reply carries the
//! epoch of the exact snapshot that answered it:
//!
//! ```
//! use std::sync::Arc;
//!
//! use proximity_graphs::core::{GNet, QueryEngine};
//! use proximity_graphs::metric::Euclidean;
//! use proximity_graphs::serve::{Client, IndexRegistry, Server};
//! use proximity_graphs::workloads;
//!
//! let data = workloads::uniform_cube_flat(200, 2, 50.0, 21).into_dataset(Euclidean);
//! let pg = GNet::build(&data, 1.0);
//!
//! let registry = Arc::new(IndexRegistry::new());
//! registry.register("main", QueryEngine::new(pg.graph, data), 0).unwrap();
//! let server = Server::bind("127.0.0.1:0", registry, Default::default()).unwrap();
//!
//! let mut client = Client::connect(server.local_addr()).unwrap();
//! let reply = client.query("main", &[25.0, 25.0], 16, 3).unwrap();
//! assert_eq!(reply.results.len(), 3);
//! assert_eq!(reply.epoch, 1); // answered by the first registered snapshot
//! ```
//!
//! Responses are **bit-identical** to calling
//! [`QueryEngine::batch_beam_detailed`](core::QueryEngine::batch_beam_detailed)
//! directly — answered alone or in a group, at any thread count — pinned by
//! `crates/serve/tests/equivalence.rs`. The closed-loop load sweep is
//! `exp_serve` (`pg_bench`).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use pg_baselines as baselines;
pub use pg_core as core;
pub use pg_covertree as covertree;
pub use pg_eval as eval;
pub use pg_hardness as hardness;
pub use pg_metric as metric;
pub use pg_nets as nets;
pub use pg_serve as serve;
pub use pg_store as store;
pub use pg_workloads as workloads;
