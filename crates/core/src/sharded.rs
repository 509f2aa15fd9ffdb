//! Sharded search: one logical index over millions of points, served by
//! `S` independent per-shard sub-indexes with a parity-pinned merge.
//!
//! The paper's fast-construction claim (Theorem 1.1) matters most at
//! scales a single in-memory build starts to strain; the NSW lineage
//! (Malkov et al.) points out the structure "can be made distributed" by
//! splitting the dataset. [`ShardedEngine`] does exactly that, under this
//! workspace's determinism discipline:
//!
//! * **Partition** — a [`ShardAssignment`] splits the global id space
//!   `0..n` into `S` non-empty, strictly-ascending id lists (seeded random
//!   assignment today, pluggable for clustered assignment later). The
//!   partition is recorded as a [`pg_store::ShardManifest`], so it is
//!   validated on every load.
//! * **Per-shard indexes** — each shard holds its own
//!   [`GNet`] + [`QueryEngine`] over a compact copy of
//!   its points; shard-local ids are positions in the ascending global-id
//!   list, so local id order agrees with global id order.
//! * **Parallel search** — a batch fans out over contiguous **blocks of
//!   queries** (about four per pool thread) through the order-preserving
//!   pool (`rayon::par_map_indexed_with`), so the schedule can never
//!   reorder results. One task walks every query of its block through
//!   shard 0, then through shard 1, and so on — shard-major, so a shard's
//!   hot rows are re-read from cache across the block — and then merges
//!   per query. Each walk depends only on its query and its shard, so the
//!   block cut and the shard order are answer-neutral. A batch of one is
//!   one block and runs on the calling thread (the pool starts no more
//!   workers than it has items) instead of paying a thread spawn and join
//!   for eight short walks.
//! * **Surrogate-space merge** — per-shard top-`k` lists come back still
//!   in surrogate space ([`BeamSurrogate`]) and are merged on the
//!   key `(surrogate, global id)`, then mapped to true distances once.
//!   Merging *after* the distance map would round away ties the surrogate
//!   keys still distinguish; merging in surrogate space makes the result
//!   list bit-identical across shard counts and thread counts.
//!
//! # The exactness/parity contract
//!
//! With `ef >= n`, beam search on a connected graph visits every vertex of
//! its component, and scores each exactly once — a shard's search reuses
//! the scores of the greedy descent it starts with — so each shard returns
//! its *exact* top-`k` (by `(surrogate, id)`) at a cost of exactly `shard
//! size` distance computations. Because a global top-`k` element is also a
//! top-`k` element of its own shard, merging exact per-shard lists on
//! `(surrogate, global id)` reproduces the single-engine result list —
//! results, order, and aggregate `dist_comps` — bit-for-bit, for **every**
//! shard count and thread count. `tests/proptest_sharded.rs` pins this on
//! tie-heavy integer datasets. At realistic `ef < n` the engines trade
//! recall for cost instead, which is what `pg_paper`'s "Fact 2.1 through
//! shards" row measures.
//!
//! # Persistence
//!
//! [`ShardedEngine::save`] writes one ordinary `pg_store` snapshot per
//! shard plus a [`ShardManifest`] — written **last**, so a directory with
//! a manifest always has all its shard files. [`ShardedEngine::load`] is
//! all-or-nothing: any missing, corrupt, or inconsistent shard fails the
//! whole load with a typed [`SnapshotError`] and no partially-loaded
//! engine is observable.
//!
//! ```
//! use pg_core::sharded::{ShardAssignment, ShardedEngine};
//! use pg_metric::{Euclidean, FlatPoints, FlatRow};
//!
//! let points = FlatPoints::from_fn(120, 2, |i, out| {
//!     out.push((i % 12) as f64);
//!     out.push((i / 12) as f64);
//! });
//! let sharded = ShardedEngine::build(
//!     &points,
//!     Euclidean,
//!     1.0,
//!     3,
//!     &ShardAssignment::SeededRandom { seed: 7 },
//! );
//! let queries: Vec<FlatRow> = vec![vec![3.2, 4.1].into()];
//! // ef >= n: exact — identical to an unsharded engine over the same points.
//! let batch = sharded.batch_beam_detailed(&queries, 120, 5);
//! assert_eq!(batch.outcomes[0].results.len(), 5);
//! assert_eq!(batch.dist_comps, 120); // every point visited exactly once
//! ```

use std::path::Path;

use pg_metric::{CompactPoints, FlatPoints, FlatRow, Metric, QuantKind, Quantized};
use pg_store::{shard_file_name, BuildParams, ShardManifest, SnapshotError, SHARD_MANIFEST_FILE};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::engine::{BatchBeamDetail, QueryEngine};
use crate::gnet::GNet;
use crate::graph::Graph;
use crate::params::GNetParams;
use crate::search::{
    beam_search_quantized_surrogate, beam_search_surrogate, sort_by_key_then_id, BeamSurrogate,
};
use crate::snapshot::SnapshotMetric;

/// How points are assigned to shards. Every strategy is a pure function of
/// `(n, shard count)` plus its own parameters, so a partition is
/// reproducible from the recorded configuration alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardAssignment {
    /// Seeded uniform assignment: Fisher–Yates-shuffle `0..n` with the
    /// workspace `StdRng` (SplitMix64), deal the shuffled ids round-robin
    /// into the shards (balanced to within one point), then sort each
    /// shard's list ascending. The same `(seed, n, shards)` always yields
    /// the same partition. Pluggable later: a clustered strategy (e.g.
    /// net-center-based) slots in as a new variant without touching the
    /// engine.
    SeededRandom {
        /// The shuffle seed.
        seed: u64,
    },
}

impl ShardAssignment {
    /// Partitions `0..n` into `shards` strictly-ascending, non-empty id
    /// lists. Requires `1 <= shards <= n` and `n <= u32::MAX`.
    pub fn assign(&self, n: usize, shards: usize) -> Vec<Vec<u32>> {
        assert!(shards >= 1, "need at least one shard");
        assert!(
            shards <= n,
            "cannot split {n} points into {shards} non-empty shards"
        );
        assert!(n <= u32::MAX as usize, "n exceeds u32 id space");
        match self {
            ShardAssignment::SeededRandom { seed } => {
                let mut ids: Vec<u32> = (0..n as u32).collect();
                let mut rng = StdRng::seed_from_u64(*seed);
                ids.shuffle(&mut rng);
                let mut out: Vec<Vec<u32>> = (0..shards)
                    .map(|_| Vec::with_capacity(n / shards + 1))
                    .collect();
                for (j, id) in ids.into_iter().enumerate() {
                    out[j % shards].push(id);
                }
                for shard in &mut out {
                    shard.sort_unstable();
                }
                out
            }
        }
    }
}

/// One logical index over `n` points, physically split into `S`
/// independent [`QueryEngine`] shards searched in parallel and merged in
/// surrogate space (see the module docs for the full contract).
#[derive(Debug, Clone)]
pub struct ShardedEngine<M> {
    shards: Vec<QueryEngine<FlatRow, M>>,
    global_ids: Vec<Vec<u32>>,
    build: Option<BuildParams>,
    threads: usize,
    n: usize,
}

/// How [`ShardedEngine::build`] and [`ShardedEngine::load`] spend `threads`
/// on per-shard work: `(outer, inner)` = shards in flight, pool threads
/// inside each. With `shards >= threads` every shard runs sequentially on
/// its own core and makes no pool call; the spare threads of fewer go inside.
fn thread_split(threads: usize, shards: usize) -> (usize, usize) {
    let outer = threads.min(shards).max(1);
    (outer, (threads / outer).max(1))
}

impl<M: Metric<FlatRow> + Metric<[f64]> + Clone + Send + Sync> ShardedEngine<M> {
    /// Builds a sharded engine: partitions `points` with `assignment`,
    /// then builds one `G_net` + [`QueryEngine`] per shard, `outer` shards
    /// side by side on `inner` pool threads each (`outer = min(threads,
    /// shards)`, `inner = max(1, threads / outer)`; the builders are
    /// thread-count invariant, so the split moves only the wall
    /// clock and the memory high-water). The metric is cloned per shard — a
    /// `Counting` wrapper's shared counter therefore aggregates build *and*
    /// search distance computations across all shards, exactly like the
    /// unsharded engines.
    pub fn build(
        points: &FlatPoints,
        metric: M,
        epsilon: f64,
        shard_count: usize,
        assignment: &ShardAssignment,
    ) -> Self {
        let n = points.len();
        let global_ids = assignment.assign(n, shard_count);
        let dim = points.dim();
        let threads = rayon::current_num_threads();
        let (outer, inner) = thread_split(threads, shard_count);
        let shards = rayon::par_map_indexed_with(outer, &global_ids, |_, ids| {
            // Pinned here, not around the map: a pool worker does not
            // inherit the spawning thread's `with_threads` scope.
            rayon::with_threads(inner, || {
                let mut shard_points = FlatPoints::with_capacity(ids.len(), dim);
                for &id in ids {
                    shard_points.push(points.row(id as usize));
                }
                let data = shard_points.into_dataset(metric.clone());
                // A one-point shard is trivially navigable; `G_net`'s net
                // hierarchy (sensibly) refuses datasets this small.
                let graph = if ids.len() == 1 {
                    Graph::empty(1)
                } else {
                    GNet::build(&data, epsilon).graph
                };
                QueryEngine::new(graph, data).with_threads(threads)
            })
        });
        ShardedEngine {
            shards,
            global_ids,
            build: Some(GNetParams::new(epsilon).into()),
            threads,
            n,
        }
    }
}

impl<M> ShardedEngine<M> {
    /// Number of indexed points `n` across all shards.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Always false: every shard is non-empty by the partition invariant.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of shards `S`.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The per-shard engines, in shard order.
    pub fn shards(&self) -> &[QueryEngine<FlatRow, M>] {
        &self.shards
    }

    /// The per-shard global-id lists (strictly ascending; entry `s` maps
    /// shard `s`'s local ids to global ids).
    pub fn global_ids(&self) -> &[Vec<u32>] {
        &self.global_ids
    }

    /// The recorded build parameters, if any (saved into every shard's
    /// snapshot metadata).
    pub fn build_params(&self) -> Option<BuildParams> {
        self.build
    }

    /// The worker count batch calls use.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Overrides the worker count (at least 1). Like
    /// [`QueryEngine::with_threads`], this changes only the wall clock:
    /// every batch result is independent of the thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        assert!(threads >= 1, "thread count must be at least 1");
        self.threads = threads;
        self
    }
}

impl<M: Metric<FlatRow> + Sync> ShardedEngine<M> {
    /// The one fan-out + merge, shard-major over blocks of queries: the
    /// batch is cut into contiguous blocks of `len.div_ceil(4 · threads)`
    /// queries, one pool task each. A task runs `search(shard index,
    /// query)` — a surrogate-space top-`k` in shard-local ids — for every
    /// query of its block on shard 0, then on shard 1, and so on (one
    /// shard's hot rows stay in cache across the block), remapping ids to
    /// global as it goes; then per query it merges on `(surrogate, global
    /// id)`, keeps `k` and maps to true distances once. Each walk depends
    /// only on its query and its shard, so neither the block cut nor the
    /// shard order can change an answer or a count.
    fn fan_out(
        &self,
        queries: &[FlatRow],
        k: usize,
        search: impl Fn(usize, &FlatRow) -> BeamSurrogate + Sync,
    ) -> BatchBeamDetail {
        let block = queries.len().div_ceil(4 * self.threads).max(1);
        let blocks: Vec<&[FlatRow]> = queries.chunks(block).collect();
        let per_block = rayon::par_map_indexed_with(self.threads, &blocks, |_, block| {
            let mut merged: Vec<BeamSurrogate> = block
                .iter()
                .map(|_| BeamSurrogate {
                    results: Vec::with_capacity(self.shards.len() * k),
                    dist_comps: 0,
                    expansions: 0,
                })
                .collect();
            for (i, ids) in self.global_ids.iter().enumerate() {
                for (m, q) in merged.iter_mut().zip(block.iter()) {
                    let out = search(i, q);
                    m.dist_comps += out.dist_comps;
                    m.expansions += out.expansions;
                    let global = out
                        .results
                        .iter()
                        .map(|&(local, sur)| (ids[local as usize], sur));
                    m.results.extend(global);
                }
            }
            let data = self.shards[0].data();
            merged
                .into_iter()
                .map(|mut m| {
                    sort_by_key_then_id(&mut m.results);
                    m.results.truncate(k);
                    m.into_outcome(data)
                })
                .collect::<Vec<_>>()
        });
        let outcomes: Vec<_> = per_block.into_iter().flatten().collect();
        let dist_comps = outcomes.iter().map(|o| o.dist_comps).sum();
        BatchBeamDetail {
            outcomes,
            dist_comps,
        }
    }

    /// Searches every query against every shard, queries in parallel (width `ef`,
    /// top `k` per shard, each shard's search descending from its local
    /// vertex 0 before its beam widens) and
    /// merges per-shard results on `(surrogate, global id)` — the
    /// deterministic tie-break that makes the output identical across
    /// shard counts and thread counts (module docs). Each outcome carries
    /// the aggregate `dist_comps`/`expansions` of its `S` shard searches;
    /// results are global ids with true distances, ascending by
    /// `(distance, id)` like every search routine in the workspace.
    pub fn batch_beam_detailed(&self, queries: &[FlatRow], ef: usize, k: usize) -> BatchBeamDetail {
        self.fan_out(queries, k, |i, q| {
            let shard = &self.shards[i];
            beam_search_surrogate(shard.graph(), shard.data(), 0, q, ef, k)
        })
    }

    /// Encodes every shard's points into the compact representation `kind`,
    /// one store per shard. SQ8 codebooks are therefore **per-shard**
    /// (each shard trains its own per-dimension ranges on its own points)
    /// — tighter ranges than one global codebook, and no cross-shard
    /// coordination on the write path.
    pub fn quantize(&self, kind: QuantKind) -> Result<Vec<CompactPoints>, String> {
        self.shards.iter().map(|s| s.quantize(kind)).collect()
    }

    /// The quantized counterpart of [`ShardedEngine::batch_beam_detailed`]:
    /// each query navigates, shard by shard, in that shard's compact store
    /// and re-ranks its candidate set with exact `f64` distances
    /// ([`beam_search_quantized_surrogate`]). Because the per-shard result
    /// keys are already **exact** surrogates after the re-rank, the merge
    /// is the very same `(surrogate, global id)` sort as the
    /// full-precision path — quantization changes what the walks gather,
    /// never the merge semantics — and at `ef >= n` the output is
    /// bit-identical to the full-precision engine.
    ///
    /// # Panics
    /// If `compacts` was not produced for these shards (count or per-shard
    /// length mismatch).
    pub fn batch_beam_quantized_detailed<C: Quantized + Sync>(
        &self,
        compacts: &[C],
        queries: &[FlatRow],
        ef: usize,
        k: usize,
    ) -> BatchBeamDetail {
        assert_eq!(
            compacts.len(),
            self.shards.len(),
            "one compact store per shard required"
        );
        self.fan_out(queries, k, |i, q| {
            let shard = &self.shards[i];
            beam_search_quantized_surrogate(shard.graph(), shard.data(), &compacts[i], 0, q, ef, k)
        })
    }
}

impl<M: Metric<FlatRow> + SnapshotMetric + Sync> ShardedEngine<M> {
    /// Saves the engine into directory `dir`: one `pg_store` snapshot per
    /// shard ([`shard_file_name`]), then the [`ShardManifest`]
    /// ([`SHARD_MANIFEST_FILE`]) **last** — each write atomic and durable,
    /// so a crash mid-save never leaves a manifest pointing at missing
    /// shard files.
    pub fn save(&self, dir: impl AsRef<Path>) -> Result<(), SnapshotError> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        for (i, shard) in self.shards.iter().enumerate() {
            shard.save_with(dir.join(shard_file_name(i)), 0, self.build)?;
        }
        let manifest = ShardManifest::new(self.n as u64, self.global_ids.clone())?;
        manifest.save(dir.join(SHARD_MANIFEST_FILE))
    }
}

impl<M: Metric<FlatRow> + SnapshotMetric + Send + Sync> ShardedEngine<M> {
    /// Loads a sharded engine saved by [`ShardedEngine::save`].
    /// All-or-nothing: the manifest is validated first (partition
    /// invariant included), then every shard file must load, match the
    /// manifest's shard size, agree on dimensionality, and carry `M`'s
    /// metric tag — any failure returns the typed [`SnapshotError`] and no
    /// engine, the lowest-numbered failing shard's when several fail (shard
    /// files are read `min(threads, shards)` at a time, as
    /// [`ShardedEngine::build`] builds them). A loaded engine
    /// answers bit-identically to the saved one.
    pub fn load(dir: impl AsRef<Path>) -> Result<Self, SnapshotError> {
        let dir = dir.as_ref();
        let manifest = ShardManifest::load(dir.join(SHARD_MANIFEST_FILE))?;
        let n = manifest.n() as usize;
        let global_ids = manifest.into_shards();
        let threads = rayon::current_num_threads();
        let (outer, inner) = thread_split(threads, global_ids.len());
        let loaded = rayon::par_map_indexed_with(outer, &global_ids, |i, ids| {
            rayon::with_threads(inner, || {
                let (engine, meta) = QueryEngine::<FlatRow, M>::load(dir.join(shard_file_name(i)))?;
                if engine.data().len() != ids.len() {
                    return Err(SnapshotError::Invalid {
                        reason: format!(
                            "shard {i} holds {} points, the manifest assigns it {}",
                            engine.data().len(),
                            ids.len()
                        ),
                    });
                }
                Ok((engine.with_threads(threads), meta))
            })
        });
        let mut shards: Vec<QueryEngine<FlatRow, M>> = Vec::with_capacity(global_ids.len());
        let mut build: Option<BuildParams> = None;
        let mut dims: Option<usize> = None;
        for (i, shard) in loaded.into_iter().enumerate() {
            let (engine, meta) = shard?;
            let shard_dims = engine.data().point(0).dim();
            let d = *dims.get_or_insert(shard_dims);
            if d != shard_dims {
                return Err(SnapshotError::Invalid {
                    reason: format!(
                        "shard {i} stores {shard_dims}-dimensional points, shard 0 stores {d}"
                    ),
                });
            }
            build = build.or(meta.build);
            shards.push(engine);
        }
        Ok(ShardedEngine {
            shards,
            global_ids,
            build,
            threads,
            n,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pg_metric::{Counting, Euclidean};

    /// A tie-heavy integer grid: many distinct points at equal distances
    /// from round-number queries.
    fn grid(n: usize) -> FlatPoints {
        FlatPoints::from_fn(n, 2, |i, out| {
            out.push((i % 16) as f64);
            out.push((i / 16) as f64);
        })
    }

    fn queries(m: usize) -> Vec<FlatRow> {
        (0..m)
            .map(|i| FlatRow::from(vec![(i % 7) as f64, (i % 5) as f64]))
            .collect()
    }

    #[test]
    fn assignment_is_a_balanced_deterministic_partition() {
        let a = ShardAssignment::SeededRandom { seed: 42 };
        let parts = a.assign(103, 4);
        assert_eq!(parts, a.assign(103, 4), "same seed, same partition");
        assert_ne!(
            parts,
            ShardAssignment::SeededRandom { seed: 43 }.assign(103, 4),
            "different seed, different partition"
        );
        let manifest = ShardManifest::new(103, parts.clone()).unwrap();
        assert_eq!(manifest.shard_count(), 4);
        let sizes: Vec<usize> = parts.iter().map(|p| p.len()).collect();
        assert!(sizes.iter().all(|&s| s == 25 || s == 26), "{sizes:?}");
        for p in &parts {
            assert!(p.windows(2).all(|w| w[0] < w[1]), "ascending per shard");
        }
    }

    #[test]
    fn exact_search_matches_the_unsharded_engine_bit_for_bit() {
        let points = grid(96);
        let single = {
            let data = points.clone().into_dataset(Euclidean);
            let g = GNet::build(&data, 1.0);
            QueryEngine::new(g.graph, data)
        };
        let qs = queries(9);
        let starts = vec![0u32; qs.len()];
        let want = single.batch_beam_detailed(&starts, &qs, 96, 4);
        for shards in [1, 2, 3, 8] {
            let engine = ShardedEngine::build(
                &points,
                Euclidean,
                1.0,
                shards,
                &ShardAssignment::SeededRandom { seed: 5 },
            );
            let got = engine.batch_beam_detailed(&qs, 96, 4);
            assert_eq!(got.outcomes, want.outcomes, "diverged at {shards} shards");
            assert_eq!(got.dist_comps, want.dist_comps);
        }
    }

    #[test]
    fn quantized_exact_search_matches_the_unsharded_engine_results() {
        let points = grid(96);
        let single = {
            let data = points.clone().into_dataset(Euclidean);
            let g = GNet::build(&data, 1.0);
            QueryEngine::new(g.graph, data)
        };
        let qs = queries(9);
        let starts = vec![0u32; qs.len()];
        let want = single.batch_beam_detailed(&starts, &qs, 96, 4);
        for kind in [QuantKind::F32, QuantKind::Sq8] {
            for shards in [1, 2, 3, 8] {
                let engine = ShardedEngine::build(
                    &points,
                    Euclidean,
                    1.0,
                    shards,
                    &ShardAssignment::SeededRandom { seed: 5 },
                );
                let compacts = engine.quantize(kind).unwrap();
                assert_eq!(compacts.len(), shards);
                // At ef = n each shard's candidate set is its whole point
                // set; the exact re-rank then makes every per-shard top-k
                // exact, so the merged result ids and distances equal the
                // full-precision single engine bit-for-bit. (dist_comps
                // differ: the quantized path also counts the re-rank.)
                let got = engine.batch_beam_quantized_detailed(&compacts, &qs, 96, 4);
                for (g, w) in got.outcomes.iter().zip(want.outcomes.iter()) {
                    assert_eq!(
                        g.results,
                        w.results,
                        "{} diverged at {shards} shards",
                        kind.name()
                    );
                }
            }
        }
    }

    #[test]
    fn quantized_results_are_thread_count_invariant() {
        let points = grid(80);
        let engine = ShardedEngine::build(
            &points,
            Euclidean,
            1.0,
            3,
            &ShardAssignment::SeededRandom { seed: 11 },
        );
        let compacts = engine.quantize(QuantKind::Sq8).unwrap();
        let qs = queries(7);
        let base = engine
            .clone()
            .with_threads(1)
            .batch_beam_quantized_detailed(&compacts, &qs, 20, 3);
        let machine = std::thread::available_parallelism().map_or(1, |t| t.get());
        for t in [2, machine] {
            let got = engine
                .clone()
                .with_threads(t)
                .batch_beam_quantized_detailed(&compacts, &qs, 20, 3);
            assert_eq!(got.outcomes, base.outcomes, "diverged at {t} threads");
        }
    }

    #[test]
    fn results_are_thread_count_invariant() {
        let points = grid(80);
        let engine = ShardedEngine::build(
            &points,
            Euclidean,
            1.0,
            3,
            &ShardAssignment::SeededRandom { seed: 11 },
        );
        let qs = queries(7);
        let base = engine
            .clone()
            .with_threads(1)
            .batch_beam_detailed(&qs, 20, 3);
        let machine = std::thread::available_parallelism().map_or(1, |t| t.get());
        for t in [2, machine] {
            let got = engine
                .clone()
                .with_threads(t)
                .batch_beam_detailed(&qs, 20, 3);
            assert_eq!(got.outcomes, base.outcomes, "diverged at {t} threads");
        }
    }

    #[test]
    fn counting_metric_aggregates_across_shards() {
        let points = grid(60);
        let counting = Counting::new(Euclidean);
        let engine = ShardedEngine::build(
            &points,
            counting.clone(),
            1.0,
            4,
            &ShardAssignment::SeededRandom { seed: 2 },
        );
        assert!(counting.count() > 0, "build cost was counted");
        counting.reset();
        let qs = queries(5);
        let batch = engine.batch_beam_detailed(&qs, 60, 3);
        assert_eq!(counting.count(), batch.dist_comps);
        // ef >= n visits every point in every shard exactly once.
        assert_eq!(batch.dist_comps, (qs.len() * 60) as u64);
    }

    fn rows<M: Metric<FlatRow>>(data: &pg_metric::Dataset<FlatRow, M>) -> Vec<&[f64]> {
        (0..data.len()).map(|i| data.point(i).coords()).collect()
    }

    #[test]
    fn concurrent_build_equals_building_each_shard_alone() {
        let points = grid(97);
        let assignment = ShardAssignment::SeededRandom { seed: 3 };
        // 97 points in 97 shards would be all one-point shards; 49 gives
        // two-point shards and a single one-point shard (97 = 48 * 2 + 1).
        for shards in [1, 2, 3, 8, 49] {
            let alone: Vec<QueryEngine<FlatRow, Euclidean>> = assignment
                .assign(97, shards)
                .iter()
                .map(|ids| {
                    let mut own = FlatPoints::with_capacity(ids.len(), 2);
                    ids.iter().for_each(|&id| own.push(points.row(id as usize)));
                    let data = own.into_dataset(Euclidean);
                    let graph = match ids.len() {
                        1 => Graph::empty(1),
                        _ => rayon::with_threads(1, || GNet::build(&data, 1.0)).graph,
                    };
                    QueryEngine::new(graph, data)
                })
                .collect();
            assert!(shards != 49 || alone.iter().any(|e| e.data().len() == 1));

            let mut costs = Vec::new();
            for threads in [1, 2, 3, 7] {
                let counting = Counting::new(Euclidean);
                let engine = rayon::with_threads(threads, || {
                    ShardedEngine::build(&points, counting.clone(), 1.0, shards, &assignment)
                });
                costs.push(counting.count());
                assert_eq!(engine.threads(), threads);
                assert_eq!(engine.shard_count(), shards);
                for (got, want) in engine.shards().iter().zip(&alone) {
                    assert_eq!(got.threads(), threads, "{shards} shards");
                    assert_eq!(
                        got.graph(),
                        want.graph(),
                        "{shards} shards, {threads} threads"
                    );
                    assert_eq!(rows(got.data()), rows(want.data()));
                }
            }
            assert!(
                costs.iter().all(|&c| c == costs[0]),
                "{shards} shards: {costs:?}"
            );
        }
    }

    /// Euclidean, recording which threads computed a distance.
    #[derive(Clone, Default)]
    struct ThreadProbe(
        std::sync::Arc<std::sync::Mutex<std::collections::HashSet<std::thread::ThreadId>>>,
    );

    impl<P: AsRef<[f64]> + ?Sized> Metric<P> for ThreadProbe {
        fn dist(&self, a: &P, b: &P) -> f64 {
            self.0.lock().unwrap().insert(std::thread::current().id());
            Euclidean.dist(a, b)
        }
    }

    #[test]
    fn a_batch_of_one_runs_on_the_calling_thread_and_a_large_one_on_the_pool() {
        let probe = ThreadProbe::default();
        let engine = ShardedEngine::build(
            &grid(128),
            probe.clone(),
            1.0,
            8,
            &ShardAssignment::SeededRandom { seed: 4 },
        )
        .with_threads(4);
        let threads_used = |queries: &[FlatRow]| {
            probe.0.lock().unwrap().clear();
            let batch = engine.batch_beam_detailed(queries, 8, 3);
            assert!(batch.dist_comps > 0);
            std::mem::take(&mut *probe.0.lock().unwrap())
        };
        // Pool workers are spawned threads and the caller only joins them:
        // all eight walks of a single query on the calling thread means no
        // worker was started for them.
        let me = std::collections::HashSet::from([std::thread::current().id()]);
        assert_eq!(threads_used(&queries(1)), me);
        let used = threads_used(&queries(64));
        assert!(!used.is_empty() && used.is_disjoint(&me));
    }

    #[test]
    fn a_batch_answers_as_its_queries_sent_one_by_one_at_every_block_cut() {
        let engine = ShardedEngine::build(
            &grid(160),
            Euclidean,
            1.0,
            5,
            &ShardAssignment::SeededRandom { seed: 9 },
        );
        let (ef, k) = (6, 4);
        assert!(engine.shards().iter().all(|s| s.data().len() > ef));
        let compacts = engine.quantize(QuantKind::F32).unwrap();
        let qs: Vec<FlatRow> = (0..64)
            .map(|i| FlatRow::from(vec![(i * 5 % 17) as f64 + 0.25, (i * 3 % 11) as f64 - 0.5]))
            .collect();
        // Each walk depends only on its query and its shard, so any block
        // cut (the batch sizes and thread counts straddle every one) answers
        // as the same queries sent as batches of one, counts included.
        for quantized in [false, true] {
            let run = |e: &ShardedEngine<Euclidean>, q: &[FlatRow]| match quantized {
                false => e.batch_beam_detailed(q, ef, k),
                true => e.batch_beam_quantized_detailed(&compacts, q, ef, k),
            };
            let singles: Vec<BatchBeamDetail> = qs
                .iter()
                .map(|q| run(&engine, std::slice::from_ref(q)))
                .collect();
            for threads in [1, 2, 3, 7] {
                let engine = engine.clone().with_threads(threads);
                for len in [1, 7, 9, 33, 64] {
                    let got = run(&engine, &qs[..len]);
                    let want = &singles[..len];
                    let at = format!("quantized {quantized}, {len} queries, {threads} threads");
                    let outcomes: Vec<_> = want.iter().map(|s| s.outcomes[0].clone()).collect();
                    assert_eq!(got.outcomes, outcomes, "{at}");
                    let dist_comps: u64 = want.iter().map(|s| s.dist_comps).sum();
                    assert_eq!(got.dist_comps, dist_comps, "{at}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "non-empty shards")]
    fn more_shards_than_points_is_rejected() {
        let _ = ShardAssignment::SeededRandom { seed: 0 }.assign(3, 4);
    }
}
