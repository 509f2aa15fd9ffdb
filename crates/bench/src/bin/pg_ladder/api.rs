//! The one file of `pg_ladder` that calls into the `pg_*` crates.
//!
//! Everything the benchmark measures is reached through the functions
//! here, so the API collapse ROADMAP item 2 plans (one `Index` surface
//! instead of `batch_beam` × `_detailed` × `_quantized` × three engine
//! types) costs a later benchmark issue this file and nothing else. The
//! README lists the bound functions. Nothing here reads the clock.

use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;

use pg_baselines::{Hnsw, HnswParams};
use pg_core::{beam_search_detailed, GNet, Graph, QueryEngine, ShardAssignment, ShardedEngine};
use pg_eval::recall_at_k;
use pg_metric::{Counting, Dataset, Euclidean, Quantized};
use pg_nets::NetHierarchy;
use pg_serve::{IndexRegistry, ServeConfig};

pub use pg_core::BeamOutcome;
pub use pg_eval::GroundTruth;
pub use pg_metric::{CompactPoints, FlatPoints, FlatRow, QuantKind};
pub use pg_serve::protocol::{decode_request, decode_response, encode_request, encode_response};
pub use pg_serve::{BatcherStats, Client, QueryReply, Request, Response, Server};

type Data = Dataset<FlatRow, Euclidean>;
type Engine = QueryEngine<FlatRow, Euclidean>;

/// The name the served index is registered under.
const SERVED: &str = "main";

/// Sizes the shared pool every build and batch call runs on.
pub fn set_pool_threads(threads: usize) {
    rayon::set_default_threads(threads);
}

/// Runs `f` with this thread's pool pinned to one worker.
pub fn single_threaded<R>(f: impl FnOnce() -> R) -> R {
    rayon::with_threads(1, f)
}

// ---- pg_workloads ---------------------------------------------------------

pub fn uniform_points(n: usize, d: usize, side: f64, seed: u64) -> FlatPoints {
    pg_workloads::uniform_cube_flat(n, d, side, seed)
}

pub fn uniform_queries(m: usize, d: usize, side: f64, seed: u64) -> Vec<FlatRow> {
    pg_workloads::uniform_queries_flat(m, d, 0.0, side, seed).into_rows()
}

pub fn cluster_points(n: usize, d: usize, k: usize, std: f64, side: f64, seed: u64) -> FlatPoints {
    pg_workloads::gaussian_clusters_flat(n, d, k, std, side, seed)
}

pub fn perturbed_queries(data: &FlatPoints, m: usize, sigma: f64, seed: u64) -> Vec<FlatRow> {
    pg_workloads::perturbed_queries_flat(data, m, sigma, seed).into_rows()
}

// ---- pg_eval --------------------------------------------------------------

/// Exact top-`k` of every query by brute force over `points`.
pub fn ground_truth(points: &FlatPoints, queries: &[FlatRow], k: usize) -> GroundTruth {
    GroundTruth::compute(&points.clone().into_dataset(Euclidean), queries, k)
}

/// Mean `recall_at_k` of `outcomes[i]` against `truth` query `i`.
pub fn mean_recall(truth: &GroundTruth, outcomes: &[BeamOutcome]) -> f64 {
    let scored = truth.queries().min(outcomes.len());
    let sum: f64 = (0..scored)
        .map(|q| recall_at_k(truth, q, &outcomes[q].results))
        .sum();
    sum / scored as f64
}

pub fn nearest_dist(truth: &GroundTruth, q: usize) -> f64 {
    truth.nearest_dist(q)
}

// ---- pg_core / pg_baselines / pg_nets: construction ------------------------

/// Which proximity graph a workload routes on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Family {
    /// `GNet::build_fast(ε)`, entered at vertex 0.
    GNet { epsilon: f64 },
    /// `Hnsw::build(default)` → `ground_layer()`, entered at `entry_point()`.
    Hnsw,
    /// `ShardedEngine::build(ε, shards, SeededRandom { seed })`.
    ShardedGNet { epsilon: f64, shards: usize },
}

/// A built index behind the one search surface the workloads use.
pub enum Index {
    Single { engine: Engine, entry: u32 },
    Sharded(ShardedEngine<Euclidean>),
}

/// The index-construction call alone — what `build_s` times.
pub fn build(family: Family, points: FlatPoints, seed: u64, threads: usize) -> Index {
    match family {
        Family::GNet { epsilon } => {
            let data = points.into_dataset(Euclidean);
            let graph = GNet::build_fast(&data, epsilon).graph;
            Index::Single {
                engine: QueryEngine::new(graph, data).with_threads(threads),
                entry: 0,
            }
        }
        Family::Hnsw => {
            let data = points.into_dataset(Euclidean);
            let hnsw = Hnsw::build(&data, HnswParams::default());
            Index::Single {
                entry: hnsw.entry_point(),
                engine: QueryEngine::new(hnsw.ground_layer(), data).with_threads(threads),
            }
        }
        Family::ShardedGNet { epsilon, shards } => Index::Sharded(
            ShardedEngine::build(
                &points,
                Euclidean,
                epsilon,
                shards,
                &ShardAssignment::SeededRandom { seed },
            )
            .with_threads(threads),
        ),
    }
}

/// Distance computations a second build of the same `G_net` index spends,
/// counted by building under `Counting`.
pub fn gnet_build_dist_comps(family: Family, points: FlatPoints, seed: u64) -> u64 {
    let counter = Counting::new(Euclidean);
    match family {
        Family::GNet { epsilon } => {
            GNet::build_fast(&points.into_dataset(counter.clone()), epsilon);
        }
        Family::ShardedGNet { epsilon, shards } => {
            ShardedEngine::build(
                &points,
                counter.clone(),
                epsilon,
                shards,
                &ShardAssignment::SeededRandom { seed },
            );
        }
        Family::Hnsw => {}
    }
    counter.count()
}

/// One greedy walk's answer: distance reached and distances computed.
#[derive(Debug, Clone, Copy)]
pub struct GreedyAnswer {
    pub dist: f64,
    pub dist_comps: u64,
}

impl Index {
    /// Part `i` (the whole index, or shard `i`) and the vertex it is
    /// entered at.
    fn part(&self, i: usize) -> (&Engine, u32) {
        match self {
            Index::Single { engine, entry } => (engine, *entry),
            Index::Sharded(s) => (&s.shards()[i], 0),
        }
    }

    fn parts(&self) -> impl Iterator<Item = (&Engine, u32)> {
        (0..self.part_count()).map(|i| self.part(i))
    }

    pub fn part_count(&self) -> usize {
        match self {
            Index::Single { .. } => 1,
            Index::Sharded(s) => s.shards().len(),
        }
    }

    pub fn n(&self) -> usize {
        self.parts().map(|(e, _)| e.data().len()).sum()
    }

    pub fn edges(&self) -> usize {
        self.parts().map(|(e, _)| e.graph().edge_count()).sum()
    }

    /// The paper's size bound in bytes, **computed** from the edge count:
    /// `4·E + 8·(n+1)` of CSR plus `8·n·d` of coordinates, per part.
    pub fn computed_bytes(&self) -> usize {
        self.parts()
            .map(|(e, _)| {
                let n = e.data().len();
                4 * e.graph().edge_count() + 8 * (n + 1) + 8 * n * e.data().point(0).dim()
            })
            .sum()
    }

    /// Re-sizes the worker pool batch calls use; answers never change.
    pub fn with_threads(self, threads: usize) -> Index {
        match self {
            Index::Single { engine, entry } => Index::Single {
                engine: engine.with_threads(threads),
                entry,
            },
            Index::Sharded(s) => Index::Sharded(s.with_threads(threads)),
        }
    }

    /// `batch_beam_detailed` over `queries` — the call both `qps` (all
    /// queries, pool threads) and `p50_us` (a batch of one) time.
    pub fn search(&self, queries: &[FlatRow], ef: usize, k: usize) -> Vec<BeamOutcome> {
        match self {
            Index::Single { engine, entry } => {
                let starts = vec![*entry; queries.len()];
                engine.batch_beam_detailed(&starts, queries, ef, k).outcomes
            }
            Index::Sharded(s) => s.batch_beam_detailed(queries, ef, k).outcomes,
        }
    }

    /// `beam_search_detailed` called directly on part `part` (the whole
    /// index, or one shard): the walk without engine, pool or merge.
    pub fn beam_part(&self, part: usize, q: &FlatRow, ef: usize, k: usize) -> BeamOutcome {
        let (engine, entry) = self.part(part);
        beam_search_detailed(engine.graph(), engine.data(), entry, q, ef, k)
    }

    /// The paper's `greedy` through `batch_greedy`, from the entry vertex
    /// of every part; the best part answers, all parts' distances count.
    pub fn greedy(&self, queries: &[FlatRow]) -> Vec<GreedyAnswer> {
        let mut best = vec![
            GreedyAnswer {
                dist: f64::INFINITY,
                dist_comps: 0
            };
            queries.len()
        ];
        for (engine, entry) in self.parts() {
            let batch = engine.batch_greedy(&vec![entry; queries.len()], queries);
            for (b, o) in best.iter_mut().zip(&batch.outcomes) {
                b.dist = b.dist.min(o.result_dist);
                b.dist_comps += o.dist_comps;
            }
        }
        best
    }

    /// `NetHierarchy::build` alone on every part; returns the deepest
    /// level count.
    pub fn build_hierarchies(&self) -> usize {
        self.parts()
            .map(|(e, _)| NetHierarchy::build(e.data()).num_levels())
            .max()
            .unwrap_or(0)
    }

    /// Points the kernel probes address: the first part's.
    pub fn kernel_points(&self) -> usize {
        self.part(0).0.data().len()
    }

    /// Sum of `Dataset::surrogate_to` from `q` to the first part's points
    /// `ids` — the f64 distance kernel as the beam walk calls it.
    pub fn surrogate_sum(&self, ids: &[u32], q: &FlatRow) -> f64 {
        let data: &Data = self.part(0).0.data();
        ids.iter().map(|&i| data.surrogate_to(i as usize, q)).sum()
    }

    /// The first part's points in the compact representation `kind`.
    pub fn quantize(&self, kind: QuantKind) -> Result<CompactPoints, String> {
        self.part(0).0.quantize(kind)
    }

    /// `batch_beam_quantized_detailed` (navigate in `compact`, re-rank in
    /// f64). Unsharded indexes only.
    pub fn search_quantized(
        &self,
        compact: &CompactPoints,
        queries: &[FlatRow],
        ef: usize,
        k: usize,
    ) -> Option<Vec<BeamOutcome>> {
        match self {
            Index::Single { engine, entry } => {
                let starts = vec![*entry; queries.len()];
                let detail = engine.batch_beam_quantized_detailed(compact, &starts, queries, ef, k);
                Some(detail.outcomes)
            }
            Index::Sharded(_) => None,
        }
    }

    /// `QueryEngine::save_with`, recording the entry vertex. Unsharded
    /// indexes only.
    pub fn save(&self, path: &Path) -> Result<(), String> {
        match self {
            Index::Single { engine, entry } => engine
                .save_with(path, *entry, None)
                .map_err(|e| format!("saving {}: {e}", path.display())),
            Index::Sharded(_) => Err("a sharded index has no single-file snapshot".into()),
        }
    }
}

/// `Quantized::prepare` once, then the sum of `Quantized::surrogate` over
/// `ids` — the quantized kernel as the quantized beam walk calls it.
pub fn compact_surrogate_sum(compact: &CompactPoints, ids: &[u32], q: &FlatRow) -> f64 {
    let prepared = compact.prepare(q.coords());
    ids.iter()
        .map(|&i| compact.surrogate(i as usize, &prepared))
        .sum()
}

/// A 64-vertex ring on a circle of radius 100, embedded as vertices
/// `0..64` of an otherwise edgeless `n`-vertex graph whose other points
/// sit far away: every query near the ring costs the same few distance
/// computations at any `n`, so what grows with `n` is the per-query
/// `O(n)` term alone.
pub fn floor_index(n: usize) -> Index {
    const RING: usize = 64;
    assert!(n >= RING);
    let points = FlatPoints::from_fn(n, 2, |i, out| {
        if i < RING {
            let a = i as f64 / RING as f64 * std::f64::consts::TAU;
            out.extend([100.0 * a.cos(), 100.0 * a.sin()]);
        } else {
            out.extend([1e6 + i as f64, 1e6]);
        }
    });
    let mut offsets = Vec::with_capacity(n + 1);
    let mut targets = Vec::with_capacity(2 * RING);
    for v in 0..n {
        offsets.push(targets.len());
        if v < RING {
            let (prev, next) = ((v + RING - 1) % RING, (v + 1) % RING);
            targets.extend([prev.min(next) as u32, prev.max(next) as u32]);
        }
    }
    offsets.push(targets.len());
    let graph = Graph::try_from_csr(offsets, targets).expect("the ring graph is valid CSR");
    Index::Single {
        engine: QueryEngine::new(graph, points.into_dataset(Euclidean)).with_threads(1),
        entry: 0,
    }
}

/// Queries on the floor ring's circle, at seeded angles.
pub fn floor_queries(m: usize, seed: u64) -> Vec<FlatRow> {
    let angles = pg_workloads::uniform_queries_flat(m, 1, 0.0, std::f64::consts::TAU, seed);
    angles
        .rows()
        .map(|a| FlatRow::from(vec![100.0 * a[0].cos(), 100.0 * a[0].sin()]))
        .collect()
}

// ---- pg_serve -------------------------------------------------------------

/// `IndexRegistry::register_from_path` then `Server::bind` on an
/// ephemeral loopback port, batched (`ServeConfig::default()`) or not.
pub fn serve(snapshot: &Path, batching: bool) -> Result<Server, String> {
    let registry = Arc::new(IndexRegistry::new());
    registry
        .register_from_path(SERVED, snapshot)
        .map_err(|e| format!("registering {}: {e}", snapshot.display()))?;
    let config = ServeConfig {
        batching,
        ..ServeConfig::default()
    };
    Server::bind("127.0.0.1:0", registry, config).map_err(|e| format!("binding the server: {e}"))
}

pub fn server_addr(server: &Server) -> SocketAddr {
    server.local_addr()
}

pub fn connect(addr: SocketAddr) -> Result<Client, String> {
    Client::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))
}

pub fn ping(client: &mut Client) -> bool {
    client.ping().is_ok()
}

pub fn query(client: &mut Client, q: &FlatRow, ef: usize, k: usize) -> Option<QueryReply> {
    client.query(SERVED, q.coords(), ef as u32, k as u32).ok()
}

/// Whether a served reply is bit-identical to the direct engine answer:
/// ids, distance bits, `dist_comps` and `expansions`.
pub fn reply_matches(reply: &QueryReply, want: &BeamOutcome) -> bool {
    reply.dist_comps == want.dist_comps
        && reply.expansions == want.expansions
        && reply.results.len() == want.results.len()
        && reply
            .results
            .iter()
            .zip(&want.results)
            .all(|(a, b)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits())
}

/// `Server::stats()`: the batcher's counters since the server started.
pub fn batcher_stats(server: &Server) -> BatcherStats {
    server.stats()
}

/// The query frame a client sends for `q`.
pub fn query_request(q: &FlatRow, ef: usize, k: usize) -> Request {
    Request::Query {
        index: SERVED.into(),
        ef: ef as u32,
        k: k as u32,
        coords: q.coords().to_vec(),
    }
}

/// The response frame the server sends for `outcome`.
pub fn query_response(outcome: &BeamOutcome) -> Response {
    Response::Query(QueryReply {
        epoch: 1,
        dist_comps: outcome.dist_comps,
        expansions: outcome.expansions,
        results: outcome.results.clone(),
    })
}
