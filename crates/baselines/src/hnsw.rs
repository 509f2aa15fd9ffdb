//! Hierarchical Navigable Small World graphs (Malkov & Yashunin \[22\]) —
//! the dominant practical proximity-graph index, reimplemented from scratch
//! as the empirical baseline of the comparison experiments.
//!
//! Standard construction: every point draws a top level from a geometric
//! distribution (`l = floor(-ln U * mL)`, `mL = 1/ln M`); insertion descends
//! greedily to its top level, then runs an `ef_construction`-wide beam on
//! each level downwards, connecting to the `M` selected neighbors (simple
//! nearest selection or the distance-diversifying heuristic) with
//! bidirectional edges and degree capping (`M_max`, `2M` on the ground
//! layer).

use std::cell::RefCell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, PoisonError, RwLock};
use std::thread::Thread;

use pg_core::{beam_walk, point_score, BeamOutcome, BeamSurrogate, Graph};
use pg_metric::{Dataset, Metric};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// HNSW construction parameters.
#[derive(Debug, Clone, Copy)]
pub struct HnswParams {
    /// Connectivity `M` (selected neighbors per insertion per layer).
    pub m: usize,
    /// Construction beam width `ef_construction`.
    pub ef_construction: usize,
    /// RNG seed (level draws).
    pub seed: u64,
    /// Use the neighbor-diversification heuristic (Algorithm 4 of \[22\])
    /// instead of plain nearest selection.
    pub heuristic: bool,
}

impl Default for HnswParams {
    fn default() -> Self {
        HnswParams {
            m: 12,
            ef_construction: 64,
            seed: 0x45B0,
            heuristic: true,
        }
    }
}

/// A built HNSW index: per-layer graphs plus the entry point.
#[derive(Debug, Clone)]
pub struct Hnsw {
    /// Layer adjacency (layer 0 = ground layer containing all points).
    layers: Vec<Vec<Vec<u32>>>,
    /// Entry point (a point on the top layer).
    entry: u32,
    params: HnswParams,
}

impl Hnsw {
    /// Builds the index by sequential insertion.
    ///
    /// Each insertion is planned, then committed. The plan is read-only:
    /// the greedy descent, the per-layer beams and the neighbour selection,
    /// plus the list of every `(layer, vertex)` row the descent scanned or
    /// the beams were handed. The commit does the pushes, back-links and
    /// re-prunes, and stamps every row it writes with the inserted point.
    ///
    /// On a pool of two or more threads one helper thread, spawned once per
    /// build, plans point `p + 1` while this thread plans `p`, both against
    /// the same graph. After committing `p`, the helper's plan is kept only
    /// if the entry point and its level are unchanged and no row the plan
    /// read carries `p`'s stamp; otherwise `p + 1` is planned again on the
    /// updated graph. This is exact: a walk's outcome depends only on its
    /// entry, the points and the rows it reads, so a walk none of whose
    /// rows changed repeats itself on the updated graph, and the vertex
    /// `p` inserts is reachable only through a row `p` wrote. So the index
    /// is the one a single thread builds, layer for layer and entry for
    /// entry, at any thread count; only the distances a discarded plan
    /// computed are extra work.
    ///
    /// Every adjacency entry under construction carries, beside its id, its
    /// length (the distance the insertion beam scored for it) and whether
    /// the latest diversity pass over its list selected it. A list that
    /// overflows `M_max` is re-pruned from the stored lengths, and a
    /// diversity test between two entries that both passed the previous
    /// pass is not repeated (`shrink`, `select_heuristic`). Both are exact:
    /// every layer is the one a build that recomputes them would make,
    /// entry for entry and in order. The per-entry data lives only for the
    /// length of the build.
    pub fn build<P: Sync, M: Metric<P> + Sync>(data: &Dataset<P, M>, params: HnswParams) -> Self {
        build_counting_replans(data, params).0
    }

    /// Searches for the `k` nearest neighbors of `q`.
    ///
    /// Standard two-phase HNSW search: a greedy descent through every layer
    /// above the ground layer, then one `SEARCH-LAYER` beam on layer 0. Each
    /// layer is one [`beam_walk`] entered at the best vertex of the layer
    /// above. Above the ground the width is 1: `SEARCH-LAYER` with
    /// `ef = 1` is the greedy step of \[22\], moving to the nearest
    /// neighbour of the row it scans (the first in row order among equals)
    /// while that one is strictly closer. It passes over a vertex it scored
    /// before, which can never be strictly closer.
    ///
    /// **`ef` semantics.** `ef` is the ground-layer beam width — the size of
    /// the best-candidates set the beam maintains, *not* the result count.
    /// The effective width is `ef.max(k)` (a beam narrower than `k` could
    /// not hold `k` results), so `ef` values below `k` are equivalent to
    /// `ef = k`. Raising `ef` trades distance computations for recall; `ef`
    /// does not affect the descent phase.
    ///
    /// **Ordering and tie-breaking.** Results are ascending by true
    /// distance with ties broken by smaller id — the same `(dist, id)`
    /// order as [`pg_metric::Dataset::k_nearest_brute`] and
    /// [`pg_core::beam_search_detailed`], so result lists are directly
    /// comparable across index families and against brute-force ground
    /// truth. The shared walk keeps its one candidate array in the same
    /// `(dist, id)` order and admits a candidate to a full beam only when it
    /// is strictly closer than the worst kept, so the whole search is
    /// deterministic: which of several equal-distance candidates at the
    /// beam boundary stays depends on the order they were scored in, never
    /// on a heap's layout.
    ///
    /// Returns the results, the distance-computation count (when `data`'s
    /// metric is wrapped in `Counting`, both agree) and the expanded
    /// vertices — every vertex the descent stood on and every ground-layer
    /// vertex whose neighbor list the beam scanned. This is the
    /// [`BeamOutcome`] the evaluation layer (`pg_eval`) scores, making HNSW
    /// sweepable through the same [`SweepSearch`](crate::SweepSearch)
    /// interface as the graph indexes.
    pub fn search_detailed<P, M: Metric<P>>(
        &self,
        data: &Dataset<P, M>,
        q: &P,
        ef: usize,
        k: usize,
    ) -> BeamOutcome {
        let (mut dist_comps, mut expansions) = (0, 0);
        let (mut entry, mut results) = (self.entry, Vec::new());
        for (l, layer) in self.layers.iter().enumerate().rev() {
            let width = if l == 0 { ef.max(k) } else { 1 };
            let walk = search_layer(data, layer, &[entry], q, width);
            dist_comps += walk.dist_comps;
            expansions += walk.expansions;
            (entry, results) = (walk.results[0].0, walk.results);
        }
        results.truncate(k);
        BeamOutcome {
            results,
            dist_comps,
            expansions,
        }
    }

    /// The ground layer as an immutable [`Graph`] (for degree statistics
    /// and for routing with the paper's plain `greedy`).
    pub fn ground_layer(&self) -> Graph {
        Graph::from_adjacency(self.layers[0].clone())
    }

    /// Total directed edges across all layers.
    pub fn total_edges(&self) -> usize {
        self.layers
            .iter()
            .map(|l| l.iter().map(|nb| nb.len()).sum::<usize>())
            .sum()
    }

    /// The entry point id.
    pub fn entry_point(&self) -> u32 {
        self.entry
    }

    /// The parameters the index was built with.
    pub fn params(&self) -> HnswParams {
        self.params
    }
}

/// The entry point of the graph under construction and its level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Top {
    entry: u32,
    level: usize,
}

impl Top {
    /// The top after inserting `p` at `p_level`.
    fn after(self, p: usize, p_level: usize) -> Top {
        if p_level > self.level {
            Top {
                entry: p as u32,
                level: p_level,
            }
        } else {
            self
        }
    }
}

/// How many plans made ahead were discarded, by the first check that
/// failed: the entry point moved, or the plan read a row the point before
/// it wrote.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Replans {
    entry: usize,
    written: usize,
}

/// [`Hnsw::build`], also reporting how many plans made ahead were
/// discarded (none on a one-thread pool, where no plan is made ahead).
fn build_counting_replans<P: Sync, M: Metric<P> + Sync>(
    data: &Dataset<P, M>,
    params: HnswParams,
) -> (Hnsw, Replans) {
    let n = data.len();
    assert!(n >= 1);
    let ml = 1.0 / (params.m as f64).ln();
    let mut rng = StdRng::seed_from_u64(params.seed);
    let levels: Vec<usize> = (0..n)
        .map(|_| {
            let u: f64 = rng.random_range(1e-12..1.0);
            ((-u.ln()) * ml).floor() as usize
        })
        .collect();
    let max_level = levels.iter().copied().max().unwrap_or(0);
    let layers = RwLock::new(
        (0..=max_level)
            .map(|_| BuildLayer::new(n))
            .collect::<Vec<_>>(),
    );
    let read = || layers.read().unwrap_or_else(PoisonError::into_inner);

    // Point 0 bootstraps as entry; the rest go in pairs `(p, p + 1)`.
    let mut top = Top {
        entry: 0,
        level: levels[0],
    };
    let mut replans = Replans::default();
    let jobs: Slot<Option<(usize, Top)>> = Slot::default();
    let plans: Slot<std::thread::Result<Plan>> = Slot::default();
    let builder = std::thread::current();
    std::thread::scope(|s| {
        let helper = (rayon::current_num_threads() >= 2 && n > 2).then(|| {
            let thread = s.spawn(|| {
                while let Some((q, top)) = jobs.take() {
                    let plan = catch_unwind(AssertUnwindSafe(|| {
                        plan(data, &read(), &levels, top, q, &params)
                    }));
                    plans.put(plan, &builder);
                }
            });
            Helper {
                jobs: &jobs,
                thread: thread.thread().clone(),
            }
        });
        for p in (1..n).step_by(2) {
            let q = p + 1;
            let speculating = match &helper {
                Some(helper) if q < n => {
                    helper.jobs.put(Some((q, top)), &helper.thread);
                    true
                }
                _ => false,
            };
            let own = plan(data, &read(), &levels, top, p, &params);
            let ahead =
                speculating.then(|| plans.take().unwrap_or_else(|panic| resume_unwind(panic)));
            let mut layers = layers.write().unwrap_or_else(PoisonError::into_inner);
            commit(data, &mut layers, p, own, &params);
            top = top.after(p, levels[p]);
            if q < n {
                let plan = match ahead {
                    Some(plan) if plan.top != top => {
                        replans.entry += 1;
                        None
                    }
                    Some(plan) if plan.reads_rows_written_by(&layers, p) => {
                        replans.written += 1;
                        None
                    }
                    kept => kept,
                }
                .unwrap_or_else(|| plan(data, &layers, &levels, top, q, &params));
                commit(data, &mut layers, q, plan, &params);
                top = top.after(q, levels[q]);
            }
        }
    });

    let layers = layers.into_inner().unwrap_or_else(PoisonError::into_inner);
    let hnsw = Hnsw {
        layers: layers.into_iter().map(|l| l.ids).collect(),
        entry: top.entry,
        params,
    };
    (hnsw, replans)
}

/// One insertion, planned against a graph it does not change: the top it
/// descended from, the neighbours selected on each layer the point joins
/// (`picks[l]` for layer `l`), and every `(layer, vertex)` row the descent
/// scanned or the beams were handed.
struct Plan {
    top: Top,
    picks: Vec<Vec<Entry>>,
    read: Vec<(usize, u32)>,
}

impl Plan {
    /// Whether any row this plan read was written by inserting `p`.
    fn reads_rows_written_by(&self, layers: &[BuildLayer], p: usize) -> bool {
        self.read
            .iter()
            .any(|&(l, v)| layers[l].written_by[v as usize] == p as u32)
    }
}

/// Plans the insertion of `p` from `top`: on every layer from the top
/// down, one [`beam_walk`] entered at what the layer above found — width 1
/// on the layers above `p`'s level (the greedy descent, as in
/// [`Hnsw::search_detailed`]), `ef_construction` plus the neighbour
/// selection on each layer `p` joins.
fn plan<P, M: Metric<P>>(
    data: &Dataset<P, M>,
    layers: &[BuildLayer],
    levels: &[usize],
    top: Top,
    p: usize,
    params: &HnswParams,
) -> Plan {
    let q = data.point(p);
    let read = RefCell::new(Vec::new());
    let mut picks = vec![Vec::new(); levels[p].min(top.level) + 1];
    let mut eps = vec![top.entry];
    for l in (0..=top.level).rev() {
        let joins = l < picks.len();
        let ids = &layers[l].ids;
        let rows = |v: u32| {
            read.borrow_mut().push((l, v));
            &ids[v as usize][..]
        };
        let found: Vec<Entry> = beam_walk(
            data.len(),
            &eps,
            if joins { params.ef_construction } else { 1 },
            rows,
            point_score(data, |v| data.dist_to(v as usize, q)),
        )
        .results
        .into_iter()
        .map(|(id, len)| Entry {
            id,
            len,
            diverse: false,
        })
        .collect();
        if joins {
            picks[l] = if params.heuristic {
                select_heuristic(data, p, &found, params.m)
            } else {
                found.iter().take(params.m).copied().collect()
            };
        }
        eps = found.iter().map(|e| e.id).collect();
    }
    Plan {
        top,
        picks,
        read: read.into_inner(),
    }
}

/// Inserts `p` as `plan` selected: on each layer, links `p` to every pick
/// and back, re-prunes a back-linked list that overflows `M_max` (`2M` on
/// the ground layer), and stamps every row it writes with `p`.
fn commit<P, M: Metric<P>>(
    data: &Dataset<P, M>,
    layers: &mut [BuildLayer],
    p: usize,
    plan: Plan,
    params: &HnswParams,
) {
    for (l, selected) in plan.picks.into_iter().enumerate().rev() {
        let layer = &mut layers[l];
        let m_max = if l == 0 { 2 * params.m } else { params.m };
        // `p`'s list holds at most `M <= M_max` entries, so only the
        // back-linked lists can overflow.
        layer.written_by[p] = p as u32;
        for e in selected {
            let u = e.id as usize;
            layer.push(p, e);
            layer.push(
                u,
                Entry {
                    id: p as u32,
                    len: e.len,
                    diverse: false,
                },
            );
            layer.written_by[u] = p as u32;
            if layer.ids[u].len() > m_max {
                shrink(data, layer, u, m_max, params.heuristic);
            }
        }
    }
}

/// How many times a thread waiting on a [`Slot`] checks it before it parks.
/// A count, not a clock: enough that the wait for one commit and re-plan —
/// the longest a build's two threads wait on each other — ends spinning, so
/// the hand-off costs no sleep and wake-up; short enough that an idle
/// helper soon yields its core.
const SPINS_BEFORE_PARK: u32 = 1 << 18;

/// A one-value hand-off between two threads that take turns: the receiver
/// spins on the flag for [`SPINS_BEFORE_PARK`] checks, then parks until the
/// sender unparks it.
struct Slot<T> {
    full: AtomicBool,
    value: Mutex<Option<T>>,
}

impl<T> Default for Slot<T> {
    fn default() -> Self {
        Slot {
            full: AtomicBool::new(false),
            value: Mutex::new(None),
        }
    }
}

impl<T> Slot<T> {
    /// Leaves `value` (replacing one not yet taken) and wakes `receiver`.
    fn put(&self, value: T, receiver: &Thread) {
        *self.value.lock().unwrap_or_else(PoisonError::into_inner) = Some(value);
        self.full.store(true, Ordering::Release);
        receiver.unpark();
    }

    /// Waits for a value and takes it.
    fn take(&self) -> T {
        let mut spins = 0;
        while !self.full.swap(false, Ordering::Acquire) {
            if spins < SPINS_BEFORE_PARK {
                spins += 1;
                std::hint::spin_loop();
            } else {
                std::thread::park();
            }
        }
        let value = self
            .value
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        value.expect("a full slot holds a value")
    }
}

/// The builder's handle on its helper thread. Dropping it — when the build
/// ends or unwinds — tells the helper to stop, so the scope can join it.
struct Helper<'a> {
    jobs: &'a Slot<Option<(usize, Top)>>,
    thread: Thread,
}

impl Drop for Helper<'_> {
    fn drop(&mut self) {
        self.jobs.put(None, &self.thread);
    }
}

/// `SEARCH-LAYER` of \[22\]: the shared [`beam_walk`] of width `ef` from the
/// given entry points over one layer's adjacency, scored by true distance.
/// Returns `(id, dist)` ascending by `(dist, id)`.
fn search_layer<P, M: Metric<P>>(
    data: &Dataset<P, M>,
    layer: &[Vec<u32>],
    entries: &[u32],
    q: &P,
    ef: usize,
) -> BeamSurrogate {
    beam_walk(
        data.len(),
        entries,
        ef,
        |v| &layer[v as usize],
        point_score(data, |v| data.dist_to(v as usize, q)),
    )
}

/// One adjacency entry under construction: the neighbour, its length (the
/// distance to the list's owner), and whether the latest diversity pass
/// over the list selected it — `false` for backfilled entries, appended
/// back-links and every entry of a plain-selection build.
#[derive(Debug, Clone, Copy)]
struct Entry {
    id: u32,
    len: f64,
    diverse: bool,
}

/// One layer under construction: the ids the insertion walks read, laid
/// out exactly as the finished index stores them, beside each id the
/// `(len, diverse)` of its [`Entry`], and for each row the point whose
/// insertion last wrote it (`u32::MAX` for none).
struct BuildLayer {
    ids: Vec<Vec<u32>>,
    known: Vec<Vec<(f64, bool)>>,
    written_by: Vec<u32>,
}

impl BuildLayer {
    fn new(n: usize) -> Self {
        BuildLayer {
            ids: vec![Vec::new(); n],
            known: vec![Vec::new(); n],
            written_by: vec![u32::MAX; n],
        }
    }

    fn push(&mut self, owner: usize, e: Entry) {
        self.ids[owner].push(e.id);
        self.known[owner].push((e.len, e.diverse));
    }
}

/// `SELECT-NEIGHBORS-HEURISTIC` of \[22\]: keep a candidate only if it is
/// closer to the base point than to every already selected neighbor
/// (diversifies directions, echoing the α-pruning idea). `candidates` are
/// ascending by `(len, id)`; the result is the diverse picks in that order,
/// then the backfill, with `diverse` set on exactly the picks.
///
/// The test of a candidate `v` against a selected `s` is skipped when both
/// carry the bit from the previous pass over the same list: that pass saw
/// them in this same `(len, id)` order with these same lengths, and
/// selected both, so `s` was already selected when `v` passed against it
/// with the same two numbers.
fn select_heuristic<P, M: Metric<P>>(
    data: &Dataset<P, M>,
    p: usize,
    candidates: &[Entry],
    m: usize,
) -> Vec<Entry> {
    let mut selected: Vec<Entry> = Vec::with_capacity(m);
    for &v in candidates {
        if selected.len() >= m {
            break;
        }
        if v.id as usize == p {
            continue;
        }
        let diverse = selected
            .iter()
            .all(|s| (s.diverse && v.diverse) || data.dist(s.id as usize, v.id as usize) > v.len);
        if diverse {
            selected.push(v);
        }
    }
    let picked = selected.len();
    // Backfill with nearest skipped candidates if under-full.
    for &v in candidates {
        if selected.len() >= m {
            break;
        }
        if v.id as usize != p && !selected.iter().any(|s| s.id == v.id) {
            selected.push(v);
        }
    }
    for (i, s) in selected.iter_mut().enumerate() {
        s.diverse = i < picked;
    }
    selected
}

/// Re-prunes `u`'s adjacency down to `m_max`, labelled by the lengths its
/// entries carry instead of by fresh distances.
///
/// Exactness: a stored length is the insertion beam's `dist_to` of the
/// pair — `dist_to(u, p)` on `p`'s own entries — where recomputing would
/// label `dist(p, u)`. Every metric in the workspace gives equal bits in
/// either argument order: the `L_p` kernels square or take `|a − b|` lane
/// by lane, and angular's dot product commutes. So the labels, their
/// `(len, id)` order and the selection are the recomputed ones.
fn shrink<P, M: Metric<P>>(
    data: &Dataset<P, M>,
    layer: &mut BuildLayer,
    u: usize,
    m_max: usize,
    heuristic: bool,
) {
    let mut cands: Vec<Entry> = layer.ids[u]
        .iter()
        .zip(&layer.known[u])
        .map(|(&id, &(len, diverse))| Entry { id, len, diverse })
        .collect();
    cands.sort_by(|a, b| a.len.total_cmp(&b.len).then(a.id.cmp(&b.id)));
    cands.dedup_by_key(|c| c.id);
    if heuristic {
        cands = select_heuristic(data, u, &cands, m_max);
    } else {
        cands.truncate(m_max);
    }
    layer.ids[u].clear();
    layer.known[u].clear();
    for e in cands {
        layer.push(u, e);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pg_metric::{Counting, Euclidean, FlatPoints, FlatRow, Manhattan};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    // Flat-backed on purpose: the baseline builds and searches are generic
    // over the point type, and these tests double as coverage that they run
    // on the contiguous layout the experiments use.
    fn random_points(n: usize, d: usize, seed: u64) -> FlatPoints {
        let mut rng = StdRng::seed_from_u64(seed);
        FlatPoints::from_fn(n, d, |_, out| {
            out.extend((0..d).map(|_| rng.random_range(0.0..30.0)))
        })
    }

    fn random_dataset(n: usize, d: usize, seed: u64) -> Dataset<FlatRow, Euclidean> {
        random_points(n, d, seed).into_dataset(Euclidean)
    }

    /// Eight tight clusters in a wide cube.
    fn clustered_points(n: usize, d: usize, seed: u64) -> FlatPoints {
        let mut rng = StdRng::seed_from_u64(seed);
        let centres: Vec<Vec<f64>> = (0..8)
            .map(|_| (0..d).map(|_| rng.random_range(0.0..1000.0)).collect())
            .collect();
        FlatPoints::from_fn(n, d, |i, out| {
            let c = &centres[i % centres.len()];
            out.extend(c.iter().map(|&x| x + rng.random_range(-40.0..40.0)))
        })
    }

    /// The `side × side` integer lattice in a shuffled order: equal
    /// lengths everywhere, so lists sort by id among ties and the diversity
    /// test meets `dist(s, v) == len` at its strict `>`.
    fn lattice_points(side: usize, seed: u64) -> FlatPoints {
        let mut cells: Vec<usize> = (0..side * side).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        for i in (1..cells.len()).rev() {
            cells.swap(i, rng.random_range(0..=i));
        }
        FlatPoints::from_fn(cells.len(), 2, |i, out| {
            out.extend([(cells[i] % side) as f64, (cells[i] / side) as f64])
        })
    }

    /// The build as it stood before entries carried their lengths and
    /// verdicts: every overflow labels the whole list afresh through
    /// `label_dists` and re-tests every diversity pair. What
    /// [`Hnsw::build`] must reproduce layer for layer, entry for entry.
    fn reference_build<P: Sync, M: Metric<P> + Sync>(
        data: &Dataset<P, M>,
        params: HnswParams,
    ) -> Hnsw {
        let n = data.len();
        let ml = 1.0 / (params.m as f64).ln();
        let mut rng = StdRng::seed_from_u64(params.seed);
        let levels: Vec<usize> = (0..n)
            .map(|_| {
                let u: f64 = rng.random_range(1e-12..1.0);
                ((-u.ln()) * ml).floor() as usize
            })
            .collect();
        let max_level = levels.iter().copied().max().unwrap_or(0);
        let mut layers: Vec<Vec<Vec<u32>>> = (0..=max_level).map(|_| vec![Vec::new(); n]).collect();
        let mut entry = 0u32;
        let mut entry_level = levels[0];
        for (p, &p_level) in levels.iter().enumerate().skip(1) {
            let q = data.point(p);
            let mut cur = entry;
            let mut lvl = entry_level;
            while lvl > p_level {
                cur = search_layer(data, &layers[lvl], &[cur], q, 1).results[0].0;
                lvl -= 1;
            }
            let mut eps = vec![cur];
            for l in (0..=p_level.min(entry_level)).rev() {
                let found: Vec<(f64, u32)> =
                    search_layer(data, &layers[l], &eps, q, params.ef_construction)
                        .results
                        .into_iter()
                        .map(|(v, d)| (d, v))
                        .collect();
                let m_max = if l == 0 { 2 * params.m } else { params.m };
                let selected = if params.heuristic {
                    reference_select_heuristic(data, p, &found, params.m)
                } else {
                    found.iter().take(params.m).map(|&(_, v)| v).collect()
                };
                for &u in &selected {
                    layers[l][p].push(u);
                    layers[l][u as usize].push(p as u32);
                    if layers[l][u as usize].len() > m_max {
                        reference_shrink(data, &mut layers[l], u as usize, m_max, params.heuristic);
                    }
                }
                if layers[l][p].len() > m_max {
                    reference_shrink(data, &mut layers[l], p, m_max, params.heuristic);
                }
                eps = found.iter().map(|&(_, v)| v).collect();
            }
            if p_level > entry_level {
                entry = p as u32;
                entry_level = p_level;
            }
        }
        Hnsw {
            layers,
            entry,
            params,
        }
    }

    fn reference_select_heuristic<P, M: Metric<P>>(
        data: &Dataset<P, M>,
        p: usize,
        candidates: &[(f64, u32)],
        m: usize,
    ) -> Vec<u32> {
        let mut selected: Vec<u32> = Vec::with_capacity(m);
        for &(d, v) in candidates {
            if selected.len() >= m {
                break;
            }
            if v as usize == p {
                continue;
            }
            if selected
                .iter()
                .all(|&u| data.dist(u as usize, v as usize) > d)
            {
                selected.push(v);
            }
        }
        if selected.len() < m {
            for &(_, v) in candidates {
                if selected.len() >= m {
                    break;
                }
                if v as usize != p && !selected.contains(&v) {
                    selected.push(v);
                }
            }
        }
        selected
    }

    fn reference_shrink<P: Sync, M: Metric<P> + Sync>(
        data: &Dataset<P, M>,
        layer: &mut [Vec<u32>],
        u: usize,
        m_max: usize,
        heuristic: bool,
    ) {
        let mut cands: Vec<(f64, u32)> = crate::label_dists(data, u, &layer[u]);
        cands.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        cands.dedup_by_key(|c| c.1);
        layer[u] = if heuristic {
            reference_select_heuristic(data, u, &cands, m_max)
        } else {
            cands.into_iter().take(m_max).map(|(_, v)| v).collect()
        };
    }

    /// Every layer's lists, in order, plus the entry point: the
    /// cached build against the recomputing one, at one and two threads.
    fn assert_matches_reference<P: Sync, M: Metric<P> + Sync>(
        data: &Dataset<P, M>,
        params: HnswParams,
        case: &str,
    ) {
        for threads in [1, 2] {
            let (got, want) = rayon::with_threads(threads, || {
                (Hnsw::build(data, params), reference_build(data, params))
            });
            assert_same_index(&got, &want, &format!("{case}, {threads} thread(s)"));
        }
    }

    /// Every layer's lists in order and the entry point, which together
    /// imply every point's level.
    fn assert_same_index(got: &Hnsw, want: &Hnsw, case: &str) {
        assert_eq!(got.entry, want.entry, "{case}: entry");
        assert_eq!(got.layers.len(), want.layers.len(), "{case}: layer count");
        for (l, (g, w)) in got.layers.iter().zip(&want.layers).enumerate() {
            for (v, (gl, wl)) in g.iter().zip(w).enumerate() {
                assert_eq!(gl, wl, "{case}: layer {l}, vertex {v}");
            }
        }
    }

    #[test]
    fn re_pruning_from_stored_lengths_and_verdicts_matches_the_recomputing_build() {
        for m in [4, 12] {
            let p = HnswParams {
                m,
                ..HnswParams::default()
            };
            let plain = HnswParams {
                heuristic: false,
                ..p
            };
            let uniform = random_points(500, 2, 21);
            assert_matches_reference(
                &uniform.clone().into_dataset(Euclidean),
                p,
                &format!("uniform 2-D, m = {m}"),
            );
            assert_matches_reference(
                &uniform.clone().into_dataset(Euclidean),
                plain,
                &format!("uniform 2-D, plain, m = {m}"),
            );
            assert_matches_reference(
                &uniform.into_dataset(Manhattan),
                p,
                &format!("uniform 2-D, L1, m = {m}"),
            );
            let clusters = clustered_points(400, 32, 22);
            assert_matches_reference(
                &clusters.into_dataset(Euclidean),
                p,
                &format!("clustered 32-D, m = {m}"),
            );
            let lattice = lattice_points(22, 23);
            assert_matches_reference(
                &lattice.clone().into_dataset(Euclidean),
                p,
                &format!("lattice, m = {m}"),
            );
            assert_matches_reference(
                &lattice.clone().into_dataset(Manhattan),
                p,
                &format!("lattice, L1, m = {m}"),
            );
            assert_matches_reference(
                &lattice.into_dataset(Euclidean),
                plain,
                &format!("lattice, plain, m = {m}"),
            );
        }
    }

    #[test]
    fn re_pruning_recomputes_no_distance_the_build_already_has() {
        // Pinned, so that a change which brings recomputation back fails
        // here by name: 1 121 distances per point → 748, same index. The
        // one-thread build is the one pinned: on two threads the plans a
        // helper made ahead and the build discarded add their distances,
        // a total as deterministic as the index but not thread-invariant.
        let data = random_points(1000, 16, 24).into_dataset(Counting::new(Euclidean));
        let want = reference_build(&data, HnswParams::default());
        let recomputing = data.metric().take();
        let got = rayon::with_threads(1, || Hnsw::build(&data, HnswParams::default()));
        let cached = data.metric().take();
        let two = rayon::with_threads(2, || Hnsw::build(&data, HnswParams::default()));
        let two_threads = data.metric().take();
        assert_eq!(got.layers, want.layers);
        assert_eq!(two.layers, want.layers);
        assert_eq!(
            (recomputing, cached, two_threads),
            (1_120_887, 747_599, 923_277)
        );
        assert!(cached < recomputing);
        assert!(two_threads >= cached);
    }

    #[test]
    fn recall_at_1_is_high() {
        let ds = random_dataset(400, 2, 1);
        let h = Hnsw::build(&ds, HnswParams::default());
        let mut rng = StdRng::seed_from_u64(11);
        let mut hits = 0;
        let trials = 60;
        for _ in 0..trials {
            let q: FlatRow = vec![rng.random_range(0.0..30.0), rng.random_range(0.0..30.0)].into();
            let (exact, _) = ds.nearest_brute(&q);
            let res = h.search_detailed(&ds, &q, 48, 1).results;
            if res[0].0 as usize == exact {
                hits += 1;
            }
        }
        assert!(hits * 100 >= trials * 92, "recall too low: {hits}/{trials}");
    }

    #[test]
    fn knn_results_are_sorted_and_exactish() {
        let ds = random_dataset(300, 3, 2);
        let h = Hnsw::build(&ds, HnswParams::default());
        let q: FlatRow = vec![10.0, 10.0, 10.0].into();
        let res = h.search_detailed(&ds, &q, 64, 5).results;
        assert_eq!(res.len(), 5);
        assert!(res.windows(2).all(|w| w[0].1 <= w[1].1));
        let brute = ds.k_nearest_brute(&q, 5);
        // At ef = 64 on 300 points, expect at least 4/5 overlap.
        let overlap = res
            .iter()
            .filter(|(v, _)| brute.iter().any(|&(b, _)| b == *v as usize))
            .count();
        assert!(overlap >= 4, "only {overlap}/5 of true 5-NN found");
    }

    #[test]
    fn search_cost_is_sublinear() {
        let ds = random_dataset(2000, 2, 3);
        let counted = Dataset::new(ds.points().to_vec(), Counting::new(Euclidean));
        let h = Hnsw::build(&counted, HnswParams::default());
        counted.metric().reset();
        let q: FlatRow = vec![15.0, 15.0].into();
        let reported = h.search_detailed(&counted, &q, 32, 1).dist_comps;
        let actual = counted.metric().count();
        assert_eq!(reported, actual, "distance accounting must be exact");
        assert!(
            actual < 2000 / 2,
            "HNSW search used {actual} distances on n = 2000"
        );
    }

    #[test]
    fn layer_sizes_decay_geometrically() {
        let ds = random_dataset(1000, 2, 4);
        let h = Hnsw::build(&ds, HnswParams::default());
        let layers = h.layers.len();
        assert!(layers >= 2, "expected multiple layers");
        // Count points per layer: a point is on a layer when it has a list
        // there, or is the entry point (alone on the top layer, with an
        // empty list); a member of a layer is a member of every one below.
        let member = |l: usize, p: usize| !h.layers[l][p].is_empty() || p == h.entry as usize;
        let counts: Vec<usize> = (0..layers)
            .map(|l| (0..1000).filter(|&p| member(l, p)).count())
            .collect();
        for l in 1..layers {
            assert!((0..1000).all(|p| !member(l, p) || member(l - 1, p)));
        }
        assert_eq!(counts[0], 1000);
        assert!(
            counts[1] < 1000 / 4,
            "layer 1 holds {} points, expected ~1/M",
            counts[1]
        );
    }

    #[test]
    fn ground_layer_degrees_are_capped() {
        let params = HnswParams::default();
        let ds = random_dataset(500, 2, 5);
        let h = Hnsw::build(&ds, params);
        let g = h.ground_layer();
        assert!(g.max_out_degree() <= 2 * params.m);
        assert_eq!(g.sink_count(), 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let ds = random_dataset(200, 2, 6);
        let a = Hnsw::build(&ds, HnswParams::default());
        let b = Hnsw::build(&ds, HnswParams::default());
        assert_eq!(a.ground_layer(), b.ground_layer());
        assert_eq!(a.entry_point(), b.entry_point());
    }

    #[test]
    fn parallel_build_is_thread_count_invariant() {
        // On two or more threads a helper plans each pair's second point
        // against the graph before the first is inserted, and the plan is
        // kept only where it is provably the one a single thread makes; the
        // index must come out the same at every pool size.
        let ds = random_dataset(250, 2, 8);
        let one = rayon::with_threads(1, || Hnsw::build(&ds, HnswParams::default()));
        for threads in [2, 4] {
            let many = rayon::with_threads(threads, || Hnsw::build(&ds, HnswParams::default()));
            assert_eq!(one.ground_layer(), many.ground_layer());
            assert_eq!(one.entry_point(), many.entry_point());
            assert_eq!(one.total_edges(), many.total_edges());
        }
    }

    /// The build at 2 and 4 threads against the one-thread build, which
    /// plans nothing ahead; adds the plans discarded to `replans`.
    fn assert_matches_one_thread<P: Sync, M: Metric<P> + Sync>(
        data: &Dataset<P, M>,
        params: HnswParams,
        case: &str,
        replans: &mut Replans,
    ) {
        let (want, none) = rayon::with_threads(1, || build_counting_replans(data, params));
        assert_eq!(none, Replans::default(), "{case}: one thread plans ahead");
        for threads in [2, 4] {
            let (got, r) = rayon::with_threads(threads, || build_counting_replans(data, params));
            assert_same_index(&got, &want, &format!("{case}, {threads} threads"));
            replans.entry += r.entry;
            replans.written += r.written;
        }
    }

    #[test]
    fn speculative_insertion_builds_the_one_thread_index() {
        let mut replans = Replans::default();
        for m in [4, 12] {
            let p = HnswParams {
                m,
                ..HnswParams::default()
            };
            let plain = HnswParams {
                heuristic: false,
                ..p
            };
            let uniform = random_points(500, 2, 31);
            assert_matches_one_thread(
                &uniform.clone().into_dataset(Euclidean),
                p,
                &format!("uniform 2-D, m = {m}"),
                &mut replans,
            );
            assert_matches_one_thread(
                &uniform.clone().into_dataset(Euclidean),
                plain,
                &format!("uniform 2-D, plain, m = {m}"),
                &mut replans,
            );
            assert_matches_one_thread(
                &uniform.into_dataset(Manhattan),
                p,
                &format!("uniform 2-D, L1, m = {m}"),
                &mut replans,
            );
            let clusters = clustered_points(400, 32, 32);
            assert_matches_one_thread(
                &clusters.into_dataset(Euclidean),
                p,
                &format!("clustered 32-D, m = {m}"),
                &mut replans,
            );
            let lattice = lattice_points(22, 33);
            assert_matches_one_thread(
                &lattice.clone().into_dataset(Euclidean),
                p,
                &format!("lattice, m = {m}"),
                &mut replans,
            );
            assert_matches_one_thread(
                &lattice.clone().into_dataset(Manhattan),
                p,
                &format!("lattice, L1, m = {m}"),
                &mut replans,
            );
            assert_matches_one_thread(
                &lattice.into_dataset(Euclidean),
                plain,
                &format!("lattice, plain, m = {m}"),
                &mut replans,
            );
        }
        // Both reasons to discard a plan made ahead occur: a row the first
        // point of the pair wrote, and an entry point it moved by levelling
        // up above the top layer.
        assert!(replans.written > 0, "{replans:?}");
        assert!(replans.entry > 0, "{replans:?}");
    }

    #[test]
    fn simple_selection_variant_also_works() {
        let ds = random_dataset(300, 2, 7);
        let h = Hnsw::build(
            &ds,
            HnswParams {
                heuristic: false,
                ..HnswParams::default()
            },
        );
        let mut rng = StdRng::seed_from_u64(12);
        let mut hits = 0;
        for _ in 0..30 {
            let q: FlatRow = vec![rng.random_range(0.0..30.0), rng.random_range(0.0..30.0)].into();
            let (exact, _) = ds.nearest_brute(&q);
            let res = h.search_detailed(&ds, &q, 48, 1).results;
            if res[0].0 as usize == exact {
                hits += 1;
            }
        }
        assert!(hits >= 26, "simple-selection recall too low: {hits}/30");
    }
}
