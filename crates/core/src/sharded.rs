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
//! * **Parallel search** — a batch is cut into `(query block, shard
//!   group)` tasks that run on the pool's **persistent workers**
//!   (`rayon::spawn_task`) and on the calling thread, which takes tasks
//!   too; no search starts a thread. A batch with fewer queries than
//!   threads splits the shard list into `min(threads, shards)` contiguous
//!   groups, so one query's walks run side by side (at two threads, eight
//!   shards: shards 0–3 on the caller, 4–7 on a worker). A larger batch is
//!   cut into contiguous **blocks of queries** (about four per thread),
//!   each walked through shard 0, then shard 1, and so on — shard-major,
//!   so a shard's hot rows are re-read from cache across the block. At one
//!   thread nothing leaves the caller. Each walk depends only on its query
//!   and its shard, and results are reassembled in task order, so the cut
//!   and the schedule are answer-neutral.
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

use std::ops::Range;
use std::path::Path;
use std::sync::Arc;

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
    parts: Arc<Parts<M>>,
    build: Option<BuildParams>,
    threads: usize,
    n: usize,
}

/// What every search task reads, shared by the engine and its clones and
/// owned by each task in flight through the `Arc` (pool tasks own their
/// data; see `rayon::spawn_task`).
#[derive(Debug)]
struct Parts<M> {
    shards: Vec<QueryEngine<FlatRow, M>>,
    global_ids: Vec<Vec<u32>>,
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
            parts: Arc::new(Parts { shards, global_ids }),
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
        self.parts.shards.len()
    }

    /// The per-shard engines, in shard order.
    pub fn shards(&self) -> &[QueryEngine<FlatRow, M>] {
        &self.parts.shards
    }

    /// The per-shard global-id lists (strictly ascending; entry `s` maps
    /// shard `s`'s local ids to global ids).
    pub fn global_ids(&self) -> &[Vec<u32>] {
        &self.parts.global_ids
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

/// Walks every query of `queries` through the shards `shards` of `parts`,
/// shard-major (one shard's hot rows stay in cache across the queries),
/// remapping ids to global as it goes; then per query keeps the `k` best
/// by `(surrogate, global id)`, with the walks' summed counts. One
/// fan-out task.
fn walk_shards<M, S>(
    parts: &Parts<M>,
    queries: &[FlatRow],
    shards: Range<usize>,
    k: usize,
    search: &S,
) -> Vec<BeamSurrogate>
where
    S: Fn(&QueryEngine<FlatRow, M>, usize, &FlatRow) -> BeamSurrogate,
{
    let mut merged: Vec<BeamSurrogate> = queries
        .iter()
        .map(|_| BeamSurrogate {
            results: Vec::with_capacity(shards.len() * k),
            dist_comps: 0,
            expansions: 0,
        })
        .collect();
    for i in shards {
        let (shard, ids) = (&parts.shards[i], &parts.global_ids[i]);
        for (m, q) in merged.iter_mut().zip(queries) {
            let out = search(shard, i, q);
            m.dist_comps += out.dist_comps;
            m.expansions += out.expansions;
            let global = out
                .results
                .iter()
                .map(|&(local, sur)| (ids[local as usize], sur));
            m.results.extend(global);
        }
    }
    for m in &mut merged {
        sort_by_key_then_id(&mut m.results);
        m.results.truncate(k);
    }
    merged
}

/// One fan-out task: a block of the batch's queries and a group of shards.
type Cut = (Range<usize>, Range<usize>);

/// The cut of one batch into fan-out tasks, block-major, and the number of
/// shard groups per block. A batch with fewer queries than `threads` is one
/// block over `min(threads, shards)` contiguous shard groups; a larger one
/// is cut into blocks of `len.div_ceil(4 · threads)` queries that each
/// walk every shard.
fn plan(len: usize, shards: usize, threads: usize) -> (usize, Vec<Cut>) {
    let (block, groups) = match len < threads {
        true => (len, threads.min(shards)),
        false => (len.div_ceil(4 * threads).max(1), 1),
    };
    let tasks = (0..len)
        .step_by(block.max(1))
        .flat_map(|start| {
            (0..groups).map(move |g| {
                let queries = start..(start + block).min(len);
                (queries, g * shards / groups..(g + 1) * shards / groups)
            })
        })
        .collect();
    (groups, tasks)
}

impl<M: Metric<FlatRow> + Send + Sync + 'static> ShardedEngine<M> {
    /// The one fan-out + merge. The batch is cut into `(query block, shard
    /// group)` tasks ([`plan`]): a batch of fewer queries than `threads`
    /// splits the shard list into `min(threads, shards)` contiguous groups
    /// (so one query's walks run side by side), a larger one keeps whole
    /// shard lists per block of `len.div_ceil(4 · threads)` queries. Each
    /// task ([`walk_shards`]) runs `search(shard, shard index, query)` — a
    /// surrogate-space top-`k` in shard-local ids — shard-major over its
    /// block and keeps each query's `k` best by `(surrogate, global id)`.
    /// Every task but the first goes to the pool's persistent workers
    /// (`rayon::spawn_task`); the caller runs the first, then joins the
    /// rest last to first, running any that no worker has claimed, so
    /// workers take tasks from the front and the caller from the back. At
    /// `threads = 1` nothing leaves the calling thread. Per query the
    /// groups' lists are merged on `(surrogate, global id)`, cut to `k` and
    /// mapped to true distances once. Each walk depends only on its query
    /// and its shard, and the key is a total order, so neither the cut nor
    /// the schedule can change an answer or a count.
    fn fan_out<S>(&self, queries: &[FlatRow], k: usize, search: S) -> BatchBeamDetail
    where
        S: Fn(&QueryEngine<FlatRow, M>, usize, &FlatRow) -> BeamSurrogate + Send + Sync + 'static,
    {
        let (groups, plan) = plan(queries.len(), self.shard_count(), self.threads);
        let owned: Arc<[FlatRow]> = queries.into();
        let search = Arc::new(search);
        let mut tasks = plan.into_iter().map(|(qs, ss)| {
            let (parts, queries, search) = (self.parts.clone(), owned.clone(), search.clone());
            move || walk_shards(&parts, &queries[qs], ss, k, &*search)
        });
        let partials: Vec<Vec<BeamSurrogate>> = if self.threads == 1 {
            tasks.map(|task| task()).collect()
        } else {
            let first = tasks.next();
            let handles: Vec<_> = tasks.map(rayon::spawn_task).collect();
            let first = first.map(|task| task());
            let rest: Vec<_> = handles
                .into_iter()
                .rev()
                .map(rayon::TaskHandle::join)
                .collect();
            first.into_iter().chain(rest.into_iter().rev()).collect()
        };
        let data = self.shards()[0].data();
        let mut outcomes = Vec::with_capacity(queries.len());
        let mut partials = partials.into_iter();
        while let Some(mut merged) = partials.next() {
            for group in partials.by_ref().take(groups - 1) {
                for (m, g) in merged.iter_mut().zip(group) {
                    m.dist_comps += g.dist_comps;
                    m.expansions += g.expansions;
                    m.results.extend(g.results);
                }
            }
            for mut m in merged {
                if groups > 1 {
                    sort_by_key_then_id(&mut m.results);
                    m.results.truncate(k);
                }
                outcomes.push(m.into_outcome(data));
            }
        }
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
        self.fan_out(queries, k, move |shard, _, q| {
            beam_search_surrogate(shard.graph(), shard.data(), 0, q, ef, k)
        })
    }

    /// Encodes every shard's points into the compact representation `kind`,
    /// one store per shard. SQ8 codebooks are therefore **per-shard**
    /// (each shard trains its own per-dimension ranges on its own points)
    /// — tighter ranges than one global codebook, and no cross-shard
    /// coordination on the write path. The stores come back shareable, so
    /// every quantized batch hands them to its search tasks without a copy.
    pub fn quantize(&self, kind: QuantKind) -> Result<Arc<[CompactPoints]>, String> {
        self.shards().iter().map(|s| s.quantize(kind)).collect()
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
    pub fn batch_beam_quantized_detailed<C: Quantized + Send + Sync + 'static>(
        &self,
        compacts: &Arc<[C]>,
        queries: &[FlatRow],
        ef: usize,
        k: usize,
    ) -> BatchBeamDetail {
        assert_eq!(
            compacts.len(),
            self.shard_count(),
            "one compact store per shard required"
        );
        let compacts = Arc::clone(compacts);
        self.fan_out(queries, k, move |shard, i, q| {
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
        for (i, shard) in self.shards().iter().enumerate() {
            shard.save_with(dir.join(shard_file_name(i)), 0, self.build)?;
        }
        let manifest = ShardManifest::new(self.n as u64, self.global_ids().to_vec())?;
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
            parts: Arc::new(Parts { shards, global_ids }),
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

    /// Euclidean, recording which threads computed a distance, and whether
    /// each was a persistent pool worker.
    #[derive(Clone, Default)]
    struct ThreadProbe(
        std::sync::Arc<std::sync::Mutex<std::collections::HashMap<std::thread::ThreadId, bool>>>,
    );

    impl<P: AsRef<[f64]> + ?Sized> Metric<P> for ThreadProbe {
        fn dist(&self, a: &P, b: &P) -> f64 {
            let me = std::thread::current();
            let worker = me.name().is_some_and(|n| n.starts_with("pool-worker-"));
            self.0.lock().unwrap().insert(me.id(), worker);
            Euclidean.dist(a, b)
        }
    }

    fn machine_threads() -> usize {
        std::thread::available_parallelism().map_or(1, |t| t.get())
    }

    #[test]
    fn sharded_searches_run_on_the_caller_and_the_persistent_workers_only() {
        let probe = ThreadProbe::default();
        let engine = ShardedEngine::build(
            &grid(128),
            probe.clone(),
            1.0,
            8,
            &ShardAssignment::SeededRandom { seed: 4 },
        )
        .with_threads(4);
        probe.0.lock().unwrap().clear();
        let me = std::thread::current().id();
        let search =
            |queries: &[FlatRow]| assert!(engine.batch_beam_detailed(queries, 8, 3).dist_comps > 0);
        search(&queries(1));
        for _ in 0..100 {
            search(&queries(1));
        }
        search(&queries(64));
        // A thread spawned per call would be a new id each time (ids are
        // never reused) and no pool worker: 102 calls see the caller and at
        // most the pool's `available_parallelism() − 1` workers.
        let seen = std::mem::take(&mut *probe.0.lock().unwrap());
        assert!(seen.contains_key(&me));
        assert!(
            seen.iter().all(|(&id, &worker)| id == me || worker),
            "{seen:?}"
        );
        assert!(seen.len() <= machine_threads(), "{} threads", seen.len());
        // At one thread nothing leaves the caller.
        let engine = engine.with_threads(1);
        for len in [1, 64] {
            assert!(engine.batch_beam_detailed(&queries(len), 8, 3).dist_comps > 0);
        }
        let seen = std::mem::take(&mut *probe.0.lock().unwrap());
        assert_eq!(seen.into_keys().collect::<Vec<_>>(), vec![me]);
    }

    #[test]
    fn a_single_query_answers_alike_at_every_thread_count_in_both_precisions() {
        let engine = ShardedEngine::build(
            &grid(160),
            Euclidean,
            1.0,
            5,
            &ShardAssignment::SeededRandom { seed: 9 },
        );
        let compacts = engine.quantize(QuantKind::Sq8).unwrap();
        let bits = |b: &BatchBeamDetail| {
            let outcome = |o: &crate::search::BeamOutcome| {
                let results: Vec<(u32, u64)> =
                    o.results.iter().map(|&(id, d)| (id, d.to_bits())).collect();
                (results, o.dist_comps, o.expansions)
            };
            (
                b.outcomes.iter().map(outcome).collect::<Vec<_>>(),
                b.dist_comps,
            )
        };
        // 2 and 3 threads split the 5 shards unevenly, 7 is more than 5.
        for quantized in [false, true] {
            let run = |e: &ShardedEngine<Euclidean>, q: &[FlatRow]| match quantized {
                false => e.batch_beam_detailed(q, 6, 4),
                true => e.batch_beam_quantized_detailed(&compacts, q, 6, 4),
            };
            for q in queries(12).chunks(1) {
                let want = bits(&run(&engine.clone().with_threads(1), q));
                for threads in [2, 3, 7] {
                    let got = bits(&run(&engine.clone().with_threads(threads), q));
                    assert_eq!(got, want, "quantized {quantized}, {threads} threads");
                }
            }
        }
    }

    #[test]
    fn a_single_query_finishes_on_the_caller_while_every_worker_is_busy() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::{Arc, Condvar, Mutex};
        use std::time::{Duration, Instant};
        // Park every persistent worker inside a task of its own.
        let workers = machine_threads() - 1;
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let started = Arc::new(AtomicUsize::new(0));
        let blockers: Vec<_> = (0..workers)
            .map(|_| {
                let (gate, started) = (Arc::clone(&gate), Arc::clone(&started));
                rayon::spawn_task(move || {
                    started.fetch_add(1, Ordering::SeqCst);
                    let (open, opened) = &*gate;
                    drop(opened.wait_while(open.lock().unwrap(), |open| !*open));
                })
            })
            .collect();
        let deadline = Instant::now() + Duration::from_secs(60);
        while started.load(Ordering::SeqCst) < workers {
            assert!(
                Instant::now() < deadline,
                "the workers never all took a blocker"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        let probe = ThreadProbe::default();
        let engine = ShardedEngine::build(
            &grid(160),
            probe.clone(),
            1.0,
            5,
            &ShardAssignment::SeededRandom { seed: 9 },
        );
        let one = engine
            .clone()
            .with_threads(1)
            .batch_beam_detailed(&queries(1), 6, 4);
        probe.0.lock().unwrap().clear();
        let busy = engine
            .with_threads(4)
            .batch_beam_detailed(&queries(1), 6, 4);
        let seen = std::mem::take(&mut *probe.0.lock().unwrap());
        *gate.0.lock().unwrap() = true;
        gate.1.notify_all();
        blockers.into_iter().for_each(rayon::TaskHandle::join);
        assert_eq!(busy.outcomes, one.outcomes);
        assert_eq!(busy.dist_comps, one.dist_comps);
        assert_eq!(
            seen.into_keys().collect::<Vec<_>>(),
            vec![std::thread::current().id()]
        );
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
