//! `G_net`: the net-based `(1+ε)`-proximity graph of Theorem 1.1.
//!
//! Definition (Section 2.1): for each point `p` and each net level `i`,
//! create an edge `(p, y)` to every net point `y ∈ Y_i` with
//! `D(p, y) <= φ * r_i`. The resulting graph is `(1+ε)`-navigable
//! (Lemma 2.2), has `O((1/ε)^λ * n log Δ)` edges (Fact 2.3 packing), and
//! `greedy` reaches a `(1+ε)`-ANN within `h` hops (the log-drop property).
//!
//! Three constructions are provided, all producing **identical** graphs —
//! the same edges in the same banded layout ([`graph`](crate::graph)) — on
//! the same net hierarchy:
//!
//! * [`GNet::build_naive`] — full per-level scans, `O(n * Σ_i |Y_i|)`
//!   distances; ground truth;
//! * [`GNet::build`] / [`GNet::build_fast`] — the near-linear path: a
//!   [`RelativesCascade`] with factor `φ + 1` restricts each point's
//!   candidate targets at level `i` to the relatives of its covering center,
//!   a `O(φ^λ)`-size set (Fact 2.3), mirroring the cost analysis of
//!   Eq. (13);
//! * [`GNet::build_covertree`] — the Section 2.4 procedure verbatim: a
//!   dynamic 2-ANN structure (`pg-covertree`) per level, with the retrieval
//!   of `S` by repeated 2-ANN + delete + restore.
//!
//! # Construction pipeline
//!
//! The fast builder tests each (point, center) pair **once**, by the
//! top-level rule: `(p, y)` is an edge iff `D(p, y) <= φ * r_i` at the
//! *highest* level `i` with `y ∈ Y_i`. Proof: the ladder is nested, so `y`
//! is a center of exactly the levels `0..=i`, and `φ * r_j` only grows with
//! `j`, so the test passes at some level `j <= i` iff it passes at `i`. By
//! [`NetLevel`](pg_nets::NetLevel)'s position invariant the centers whose
//! highest level is `i` are the positions `>= |Y_{i+1}|` of level `i`, so
//! each level tests only those of its relatives and every edge is found
//! exactly once — the rows need sorting but no deduplication. The distance
//! that test computes is the edge's length, so the edge leaves the pass
//! with its band key (the length's binary exponent and top two mantissa
//! bits — four sub-bands per octave, [`graph`](crate::graph)) beside its
//! target: banding costs the fast builder no distance computation. The naive and cover-tree
//! builders recompute the lengths instead ([`Graph::with_bands`], `E`
//! distances) and must arrive at the same graph.
//!
//! Phases, top level down: [`NetHierarchy::build`] promotes centers
//! sequentially in id order and computes friends lists on the thread pool;
//! per level, [`RelativesCascade::descend`] (parallel over blocks of 1024
//! centers, each block one flat `(offsets, items)` pair; like the
//! hierarchy's scans it lets a listed center's distance decide its fresh
//! children — all in, all out, or tested — which takes a third off the
//! build's distance count without changing a list) and the
//! candidate tests (parallel over blocks of 1024 points; a level that
//! promoted nothing runs none); then one assembly: a sequential prefix sum
//! over the per-level degrees, a parallel fill of the one CSR `targets`
//! allocation — each row bucketed by band, ids sorted inside each bucket,
//! checked as it is laid — and a sequential join of the per-block band
//! ladders.
//! Every parallel step is an order-preserving map or a one-worker-per-block
//! update, so the graph does not depend on the thread count. Memory
//! high-water: the per-level `(degrees, targets, bands)` buffers (6 bytes
//! per edge, plus 4 per point for every level that found its block an edge)
//! and the CSR itself — no `Vec` per point or per center per level. A
//! build of at most 1024 points makes no pool call at all.

use pg_covertree::CoverTree;
use pg_metric::{Dataset, Metric};
use pg_nets::{NetHierarchy, RelativesCascade};

use crate::graph::{band_of, Graph, GraphBuilder, RowBlock};
use crate::params::GNetParams;

/// Points per [`RowBlock`] of the fast builder: the unit of work of its
/// candidate and assembly phases. A constant (not a function of the thread
/// count) so the buffers a build allocates are the same on any machine.
const BLOCK: usize = 1024;

/// The phases [`GNet::build_fast_on`] alternates between after the
/// hierarchy is built; see [`GNet::build_fast_on_observed`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BuildPhase {
    /// One [`RelativesCascade::descend`].
    Cascade,
    /// One level's candidate tests. Levels that promoted no center run none
    /// (and make no pool call).
    Candidates,
    /// Prefix sum, fill of the CSR by `(band, id)`, join of the ladders.
    Assembly,
}

/// Shards the "which centers lie within `reach` of each point" scan across
/// the thread pool: entry `p` of the returned vector lists, in center order,
/// every `y ∈ centers` with `y != p` and `D(p, y) <= reach`. The
/// order-preserving parallel map keeps the output bit-identical to the
/// sequential double loop for any thread count — the shared candidate
/// generation of every full-scan `G_net` builder below.
fn centers_within_reach<P: Sync, M: Metric<P> + Sync>(
    data: &Dataset<P, M>,
    centers: &[u32],
    reach: f64,
) -> Vec<Vec<u32>> {
    rayon::par_map_range(data.len(), |p| {
        centers
            .iter()
            .copied()
            .filter(|&y| y != p as u32 && data.dist(p, y as usize) <= reach)
            .collect()
    })
}

/// The net-based proximity graph of Theorem 1.1, together with the net
/// hierarchy it was built from (retained for the merged graph of Theorem 1.3
/// and for diagnostics).
#[derive(Debug, Clone)]
pub struct GNet {
    /// The proximity graph.
    pub graph: Graph,
    /// Parameters `(ε, η, φ)`.
    pub params: GNetParams,
    /// The net ladder `Y_0 ⊇ ... ⊇ Y_h`.
    pub hierarchy: NetHierarchy,
}

impl GNet {
    /// Builds `G_net` with the fast (near-linear) construction. Alias of
    /// [`GNet::build_fast`].
    pub fn build<P: Sync, M: Metric<P> + Sync>(data: &Dataset<P, M>, epsilon: f64) -> Self {
        Self::build_fast(data, epsilon)
    }

    /// Fast construction via the relatives cascade (see module docs).
    pub fn build_fast<P: Sync, M: Metric<P> + Sync>(data: &Dataset<P, M>, epsilon: f64) -> Self {
        let hierarchy = NetHierarchy::build(data);
        Self::build_fast_on(data, epsilon, hierarchy)
    }

    /// Fast construction on a pre-built hierarchy — the pipeline of the
    /// module docs. The graph is **bit-identical for any thread count**
    /// (asserted in tests), and so is the distance-computation total.
    pub fn build_fast_on<P: Sync, M: Metric<P> + Sync>(
        data: &Dataset<P, M>,
        epsilon: f64,
        hierarchy: NetHierarchy,
    ) -> Self {
        Self::build_fast_on_observed(data, epsilon, hierarchy, |_| {})
    }

    /// [`GNet::build_fast_on`], calling `phase_ended` each time a stretch
    /// of one [`BuildPhase`] ends. This crate reads no clock, so a caller
    /// that splits a build by phase stamps the calls: `pg_paper`'s
    /// construction row reads a counting metric at each one to report the
    /// distances each phase computes.
    pub fn build_fast_on_observed<P: Sync, M: Metric<P> + Sync>(
        data: &Dataset<P, M>,
        epsilon: f64,
        hierarchy: NetHierarchy,
        mut phase_ended: impl FnMut(BuildPhase),
    ) -> Self {
        let params = GNetParams::new(epsilon);
        let n = data.len();
        let mut blocks: Vec<Vec<RowBlock>> = vec![Vec::new(); n.div_ceil(BLOCK)];

        // K = φ + 1: a center y with D(p, y) <= φ r is within (φ+1) r of
        // p's covering center, hence among that center's relatives.
        let mut cascade = RelativesCascade::new(data, &hierarchy, params.phi + 1.0);
        loop {
            let level_idx = cascade.level_idx();
            let lvl = hierarchy.level(level_idx);
            // Position invariant: the centers this level promoted sit after
            // the |Y_{i+1}| it carried over (the top level carries none).
            let first_fresh = hierarchy
                .levels()
                .get(level_idx + 1)
                .map_or(0, |above| above.len());
            if first_fresh < lvl.len() {
                let reach = params.phi * lvl.radius;
                let found = rayon::par_map_range(blocks.len(), |b| {
                    let points = b * BLOCK..n.min((b + 1) * BLOCK);
                    let mut degrees = Vec::with_capacity(points.len());
                    let mut targets = Vec::new();
                    let mut bands = Vec::new();
                    for p in points {
                        let before = targets.len();
                        for &ypos in cascade.relatives(lvl.cover[p] as usize) {
                            if (ypos as usize) < first_fresh {
                                continue; // tested at the level that promoted it
                            }
                            let y = lvl.centers[ypos as usize];
                            if y == p as u32 {
                                continue;
                            }
                            // The one distance of the candidate test also
                            // files the edge under its band.
                            let d = data.dist(p, y as usize);
                            if d <= reach {
                                targets.push(y);
                                bands.push(band_of(d));
                            }
                        }
                        degrees.push((targets.len() - before) as u32);
                    }
                    RowBlock {
                        degrees,
                        targets,
                        bands,
                    }
                });
                for (passes, pass) in blocks.iter_mut().zip(found) {
                    if !pass.targets.is_empty() {
                        passes.push(pass);
                    }
                }
                phase_ended(BuildPhase::Candidates);
            }
            if !cascade.descend() {
                break;
            }
            phase_ended(BuildPhase::Cascade);
        }

        let graph = Graph::from_row_blocks(n, BLOCK, blocks);
        phase_ended(BuildPhase::Assembly);
        GNet {
            graph,
            params,
            hierarchy,
        }
    }

    /// Ground-truth construction: full scan of every net level for every
    /// point (`O(n * Σ_i |Y_i|)` distances).
    pub fn build_naive<P: Sync, M: Metric<P> + Sync>(data: &Dataset<P, M>, epsilon: f64) -> Self {
        let hierarchy = NetHierarchy::build(data);
        Self::build_naive_on(data, epsilon, hierarchy)
    }

    /// Naive construction on a pre-built hierarchy. The per-point level
    /// scans are sharded across the thread pool; see
    /// [`GNet::build_fast_on`] for why the output is thread-count-invariant.
    pub fn build_naive_on<P: Sync, M: Metric<P> + Sync>(
        data: &Dataset<P, M>,
        epsilon: f64,
        hierarchy: NetHierarchy,
    ) -> Self {
        let params = GNetParams::new(epsilon);
        let n = data.len();
        let mut builder = GraphBuilder::new(n);
        for lvl in hierarchy.levels() {
            let reach = params.phi * lvl.radius;
            let per_point = centers_within_reach(data, &lvl.centers, reach);
            for (p, targets) in per_point.into_iter().enumerate() {
                for y in targets {
                    builder.add_edge(p as u32, y);
                }
            }
        }
        GNet {
            graph: builder.build().with_bands(data),
            params,
            hierarchy,
        }
    }

    /// The Section 2.4 `build` procedure verbatim: per level, a dynamic
    /// 2-ANN structure `T` over `Y_i`; for each point `p`, the set
    /// `S = {y ∈ Y_i : D(p, y) <= φ 2^i}` is retrieved by repeatedly taking
    /// a 2-ANN `y` of `p` from `T`, adding it to `S` if `D(p, y) <= φ 2^i`,
    /// and deleting it from `T`, until `D(p, y) > 2 φ 2^i`; afterwards the
    /// deleted points are re-inserted.
    pub fn build_covertree<P: Sync, M: Metric<P> + Sync>(
        data: &Dataset<P, M>,
        epsilon: f64,
    ) -> Self {
        let hierarchy = NetHierarchy::build(data);
        Self::build_covertree_on(data, epsilon, hierarchy)
    }

    /// Section 2.4 construction on a pre-built hierarchy.
    pub fn build_covertree_on<P, M: Metric<P>>(
        data: &Dataset<P, M>,
        epsilon: f64,
        hierarchy: NetHierarchy,
    ) -> Self {
        let params = GNetParams::new(epsilon);
        let n = data.len();
        let mut builder = GraphBuilder::new(n);

        for lvl in hierarchy.levels() {
            let reach = params.phi * lvl.radius;
            let stop = 2.0 * params.phi * lvl.radius;
            let mut tree = CoverTree::build(data, lvl.centers.iter().copied());
            for p in 0..n as u32 {
                let mut deleted: Vec<u32> = Vec::new();
                // Retrieval of S (Section 2.4): |S_del| = O(φ^λ) by the
                // packing argument, so the restore cost matches the paper's.
                while let Some((y, d)) = tree.ann(data.point(p as usize), 2.0) {
                    if d > stop {
                        break;
                    }
                    if d <= reach && y != p {
                        builder.add_edge(p, y);
                    }
                    tree.remove(y);
                    deleted.push(y);
                }
                for y in deleted {
                    tree.restore(y);
                }
            }
        }

        GNet {
            graph: builder.build().with_bands(data),
            params,
            hierarchy,
        }
    }

    /// The theoretical degree budget per level, `O((2φ)^λ)` (Fact 2.3 with
    /// aspect ratio `2φ`): returns `(8 * 2φ)^λ_est` for a given doubling
    /// dimension estimate — useful in experiments as a sanity ceiling.
    pub fn degree_budget_per_level(&self, lambda: f64) -> f64 {
        (8.0 * 2.0 * self.params.phi).powf(lambda)
    }

    /// A **certified** budget for the Section 1.1 `query(p_start, q, Q)`
    /// wrapper: with `Q` set to this value, the budgeted query is guaranteed
    /// to return a `(1+ε)`-ANN from any start.
    ///
    /// Derivation: greedy reaches a `(1+ε)`-ANN within `h` iterations (the
    /// log-drop property, Section 2.3) and hop distances only descend
    /// afterwards; each iteration computes at most `max_out_degree`
    /// distances, plus one for the start vertex. This is the concrete
    /// instantiation of Theorem 1.1's `O((1/ε)^λ log² Δ)` bound on this
    /// dataset.
    ///
    /// The graph is banded, so `query` scans each row under the annulus
    /// rule ([`search`](crate::search)) and scores a subset of it: hops and
    /// result are those of the whole-row scan, and each iteration costs *at
    /// most* `max_out_degree` — the budget stays valid, with room to spare.
    pub fn certified_query_budget(&self) -> u64 {
        let h = self.hierarchy.h() as u64;
        let deg = self.graph.max_out_degree() as u64;
        1 + (h + 2) * deg.max(1)
    }
}

/// Ablation helper: `G_net`'s edge rule with an **arbitrary** reach factor
/// `phi` instead of the paper's `φ = 1 + 2^{η+1}` (Eq. 4), over a given
/// hierarchy. Used by `pg_paper`'s Eq. 4 row to probe how much of
/// the paper's constant is slack on concrete inputs: Lemma 2.2's proof needs
/// `φ ≥ 1 + 2^{η+1}`, but navigability on a given dataset may survive with a
/// smaller reach (fewer edges) — or break, which the navigability checker
/// then witnesses.
pub fn gnet_edges_with_phi<P: Sync, M: Metric<P> + Sync>(
    data: &Dataset<P, M>,
    hierarchy: &NetHierarchy,
    phi: f64,
) -> Graph {
    assert!(phi > 0.0);
    let n = data.len();
    let mut builder = GraphBuilder::new(n);
    for lvl in hierarchy.levels() {
        let reach = phi * lvl.radius;
        let per_point = centers_within_reach(data, &lvl.centers, reach);
        for (p, targets) in per_point.into_iter().enumerate() {
            for y in targets {
                builder.add_edge(p as u32, y);
            }
        }
    }
    builder.build()
}

/// `G_net` built over **independent** per-level greedy nets — the paper's
/// Eq. (2) verbatim, where each `Y_i` is just *some* `2^i`-net of `P` with
/// no relation between levels.
///
/// The default [`GNet`] uses a *nested* ladder (`Y_{i+1} ⊆ Y_i`), which is
/// also a valid instantiation of Eq. (2) but deduplicates edges whose target
/// center recurs across levels — often far below the `n log Δ` worst case on
/// benign data. With independent nets each level draws fresh centers, so the
/// `n log Δ` size behaviour of Theorem 1.1 (and the necessity shown by
/// Theorem 1.2(1)) is visible. `pg_paper`'s separation row builds the
/// nested graph (`GNet::build` on the tree instance, `GNet::build_fast` on
/// the Euclidean one), not this one; `tests/pg_property.rs` checks that
/// this variant is a `(1+ε)`-PG too.
///
/// Construction is quadratic (per-level greedy nets + full scans) — this
/// variant exists for fidelity and experiments, not speed.
#[derive(Debug, Clone)]
pub struct GNetIndependent {
    /// The proximity graph.
    pub graph: Graph,
    /// Parameters `(ε, η, φ)`.
    pub params: GNetParams,
    /// The per-level nets used: `(radius, centers)`, bottom-up.
    pub levels: Vec<(f64, Vec<u32>)>,
}

impl GNetIndependent {
    /// Builds over independent greedy nets at the standard radius ladder
    /// (top ≈ diameter, bottom < `d_min`).
    pub fn build<P: Sync, M: Metric<P> + Sync>(data: &Dataset<P, M>, epsilon: f64) -> Self {
        // Reuse the fast hierarchy only to learn the radius ladder; the nets
        // themselves are drawn independently per level.
        let ladder = NetHierarchy::build(data);
        let levels =
            pg_nets::independent_hierarchy(data, ladder.top_radius(), ladder.bottom_radius());
        Self::build_on(data, epsilon, levels)
    }

    /// Builds over the given `(radius, centers)` levels (each must be a
    /// valid `radius`-net of the whole dataset).
    pub fn build_on<P: Sync, M: Metric<P> + Sync>(
        data: &Dataset<P, M>,
        epsilon: f64,
        levels: Vec<(f64, Vec<u32>)>,
    ) -> Self {
        let params = GNetParams::new(epsilon);
        let n = data.len();
        let mut builder = GraphBuilder::new(n);
        for (radius, centers) in &levels {
            let reach = params.phi * radius;
            let per_point = centers_within_reach(data, centers, reach);
            for (p, targets) in per_point.into_iter().enumerate() {
                for y in targets {
                    builder.add_edge(p as u32, y);
                }
            }
        }
        GNetIndependent {
            graph: builder.build(),
            params,
            levels,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::navigability::{check_navigable, check_pg_exhaustive, Starts};
    use pg_metric::Euclidean;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn random_dataset(n: usize, d: usize, seed: u64) -> Dataset<Vec<f64>, Euclidean> {
        let mut rng = StdRng::seed_from_u64(seed);
        Dataset::new(
            (0..n)
                .map(|_| (0..d).map(|_| rng.random_range(0.0..50.0)).collect())
                .collect(),
            Euclidean,
        )
    }

    fn random_queries(m: usize, d: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..m)
            .map(|_| (0..d).map(|_| rng.random_range(-10.0..60.0)).collect())
            .collect()
    }

    #[test]
    fn fast_and_naive_agree() {
        let ds = random_dataset(120, 2, 1);
        let h = NetHierarchy::build(&ds);
        let fast = GNet::build_fast_on(&ds, 1.0, h.clone());
        let naive = GNet::build_naive_on(&ds, 1.0, h);
        assert_eq!(fast.graph, naive.graph, "edge sets must be identical");
    }

    #[test]
    fn parallel_build_is_thread_count_invariant() {
        // Hierarchy, cascade, candidate tests and assembly all run on the
        // pool; the result must be the single-threaded one, bit for bit —
        // for both builders.
        let ds = random_dataset(140, 2, 12);
        let fast1 = rayon::with_threads(1, || GNet::build_fast(&ds, 1.0));
        let naive1 = rayon::with_threads(1, || GNet::build_naive(&ds, 1.0));
        for threads in [2, 4, 7] {
            let fast_t = rayon::with_threads(threads, || GNet::build_fast(&ds, 1.0));
            let naive_t = rayon::with_threads(threads, || GNet::build_naive(&ds, 1.0));
            assert_eq!(
                fast1.hierarchy, fast_t.hierarchy,
                "hierarchy diverged at {threads} threads"
            );
            assert_eq!(
                fast1.graph, fast_t.graph,
                "fast diverged at {threads} threads"
            );
            assert_eq!(
                naive1.graph, naive_t.graph,
                "naive diverged at {threads} threads"
            );
        }
    }

    /// Asserts fast == naive on `h` at 1, 2 and 7 threads; returns how many
    /// candidate passes the fast build ran.
    fn fast_matches_naive(
        ds: &Dataset<Vec<f64>, Euclidean>,
        epsilon: f64,
        h: &NetHierarchy,
    ) -> usize {
        let naive = GNet::build_naive_on(ds, epsilon, h.clone());
        let mut passes = 0;
        for threads in [1, 2, 7] {
            passes = 0;
            let fast = rayon::with_threads(threads, || {
                GNet::build_fast_on_observed(ds, epsilon, h.clone(), |phase| {
                    passes += usize::from(phase == BuildPhase::Candidates);
                })
            });
            assert_eq!(fast.graph, naive.graph, "{threads} threads");
        }
        passes
    }

    #[test]
    fn two_points() {
        let ds = Dataset::new(vec![vec![0.0, 0.0], vec![3.0, 4.0]], Euclidean);
        fast_matches_naive(&ds, 1.0, &NetHierarchy::build(&ds));
        assert_eq!(
            GNet::build_fast(&ds, 1.0).graph,
            Graph::complete(2).with_bands(&ds)
        );
    }

    #[test]
    fn a_build_of_one_block_makes_no_pool_call() {
        /// Euclidean, recording which threads computed a distance.
        struct ThreadProbe(std::sync::Mutex<Vec<std::thread::ThreadId>>);
        impl Metric<Vec<f64>> for ThreadProbe {
            fn dist(&self, a: &Vec<f64>, b: &Vec<f64>) -> f64 {
                self.0.lock().unwrap().push(std::thread::current().id());
                Euclidean.dist(a, b)
            }
        }
        // Pool workers are spawned threads and the caller only joins them,
        // so a distance computed anywhere else is a pool call.
        for n in [2, BLOCK, BLOCK + 1] {
            let points = (0..n).map(|i| vec![(i % 37) as f64, (i / 37) as f64]);
            let ds = Dataset::new(points.collect(), ThreadProbe(Default::default()));
            rayon::with_threads(4, || GNet::build_fast(&ds, 1.0));
            let me = std::thread::current().id();
            let inline = ds.metric().0.lock().unwrap().iter().all(|&id| id == me);
            assert_eq!(inline, n <= BLOCK, "n = {n}");
        }
    }

    #[test]
    fn small_epsilon_matches_naive() {
        let ds = random_dataset(90, 2, 13);
        fast_matches_naive(&ds, 0.25, &NetHierarchy::build(&ds));
    }

    #[test]
    fn idle_levels_of_a_huge_aspect_ratio_line_run_no_candidate_pass() {
        // Collinear, aspect ratio 2^45: three tight clusters very far apart,
        // so most of the ~50 levels promote no center at all.
        let xs = [0.0, 1.0, 3.0, 1e7, 1e7 + 2.0, 3.5e13, 3.5e13 + 1.0];
        let ds = Dataset::new(xs.iter().map(|&x| vec![x, 0.0]).collect(), Euclidean);
        let h = NetHierarchy::build(&ds);
        assert!(h.num_levels() >= 45, "{} levels", h.num_levels());
        let passes = fast_matches_naive(&ds, 1.0, &h);

        // Centers each level promoted (the top level's single center counts).
        let fresh: Vec<usize> = (0..h.num_levels())
            .map(|i| h.level(i).len() - h.levels().get(i + 1).map_or(0, |up| up.len()))
            .collect();
        let promoting = fresh.iter().filter(|&&f| f > 0).count();
        assert_eq!(passes, promoting, "one candidate pass per promoting level");
        assert!(promoting <= xs.len() && promoting < h.num_levels() / 2);
        // Some level's only fresh center is a single point: its own row
        // gets nothing there (the self-loop is filtered), the others may.
        assert!(fresh.contains(&1));
    }

    /// `(edge_count, FNV-1a over the CSR offsets then targets)`, the rows
    /// re-sorted by id: a fingerprint of the edge set, not of the layout.
    fn fingerprint(g: &Graph) -> (usize, u64) {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let offsets = g.csr_offsets().iter().map(|&o| o as u64);
        let mut by_id = g.csr_targets().to_vec();
        for row in g.csr_offsets().windows(2) {
            by_id[row[0]..row[1]].sort_unstable();
        }
        let targets = by_id.iter().map(|&t| u64::from(t));
        for b in offsets.chain(targets).flat_map(u64::to_le_bytes) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        (g.edge_count(), h)
    }

    /// These fingerprints were recorded with the pipeline that tested every
    /// relative at every level and deduplicated in `from_adjacency`, so
    /// they pin the top-level rule to that graph edge for edge, not merely
    /// to "still deterministic".
    #[test]
    fn fast_build_is_graph_identical_to_the_recorded_builds() {
        const PINS: [[(usize, u64); 2]; 2] = [
            [(45811, 12524310369935858606), (80829, 13294512684692027464)],
            [(56695, 9962593776645143348), (80053, 1953374670923677137)],
        ];
        for ((n, d, seed), want) in [(400, 2, 21), (300, 3, 22)].into_iter().zip(PINS) {
            let ds = random_dataset(n, d, seed);
            let got = [1.0, 0.5].map(|eps| fingerprint(&GNet::build_fast(&ds, eps).graph));
            assert_eq!(got, want, "d = {d}: (ε = 1, ε = 0.5) fingerprints");
        }
    }

    #[test]
    fn covertree_path_agrees_with_naive() {
        let ds = random_dataset(80, 2, 2);
        let h = NetHierarchy::build(&ds);
        let ct = GNet::build_covertree_on(&ds, 1.0, h.clone());
        let naive = GNet::build_naive_on(&ds, 1.0, h);
        assert_eq!(ct.graph, naive.graph, "Section 2.4 path must match");
    }

    #[test]
    fn gnet_is_navigable_and_a_pg_eps_one() {
        let ds = random_dataset(100, 2, 3);
        let g = GNet::build(&ds, 1.0);
        let queries = random_queries(20, 2, 30);
        check_navigable(&g.graph, &ds, &queries, 1.0).unwrap();
        check_pg_exhaustive(&g.graph, &ds, &queries, 1.0, Starts::Stride(7)).unwrap();
    }

    #[test]
    fn gnet_is_navigable_small_epsilon() {
        let ds = random_dataset(60, 2, 4);
        let g = GNet::build(&ds, 0.25);
        let queries = random_queries(15, 2, 31);
        check_navigable(&g.graph, &ds, &queries, 0.25).unwrap();
        check_pg_exhaustive(&g.graph, &ds, &queries, 0.25, Starts::All).unwrap();
    }

    #[test]
    fn every_vertex_has_an_out_edge() {
        // Proposition 2.1.
        let ds = random_dataset(150, 3, 5);
        let g = GNet::build(&ds, 1.0);
        assert_eq!(g.graph.sink_count(), 0);
    }

    #[test]
    fn greedy_hop_count_is_bounded_by_h_plus_one() {
        // Section 2.3: after at most h iterations the hop vertex is a
        // (1+ε)-ANN; the walk can continue but hops strictly descend, and on
        // G_net the total trace stays O(h) in practice. We assert the proven
        // part: the number of hops until the first (1+ε)-ANN is <= h + 1.
        let ds = random_dataset(200, 2, 6);
        let g = GNet::build(&ds, 1.0);
        let h = g.hierarchy.h();
        let queries = random_queries(10, 2, 32);
        for q in &queries {
            let (_, nn) = ds.nearest_brute(q);
            let out = crate::search::greedy(&g.graph, &ds, 0, q);
            let first_ann = out
                .hops
                .iter()
                .position(|&v| ds.dist_to(v as usize, q) <= 2.0 * nn + 1e-12)
                .expect("greedy must reach a 2-ANN");
            assert!(
                first_ann <= h + 1,
                "first (1+ε)-ANN after {first_ann} hops, h = {h}"
            );
        }
    }

    #[test]
    fn certified_budget_always_suffices() {
        let ds = random_dataset(150, 2, 9);
        let g = GNet::build(&ds, 1.0);
        let budget = g.certified_query_budget();
        let queries = random_queries(15, 2, 34);
        for (i, q) in queries.iter().enumerate() {
            let start = ((i * 31) % 150) as u32;
            let out = crate::search::query(&g.graph, &ds, start, q, budget);
            let (_, exact) = ds.nearest_brute(q);
            assert!(
                out.result_dist <= 2.0 * exact + 1e-9,
                "budgeted query broke the guarantee at budget {budget}"
            );
        }
    }

    #[test]
    fn independent_nets_variant_is_also_a_pg() {
        let ds = random_dataset(70, 2, 8);
        let g = GNetIndependent::build(&ds, 1.0);
        let queries = random_queries(12, 2, 33);
        check_navigable(&g.graph, &ds, &queries, 1.0).unwrap();
        check_pg_exhaustive(&g.graph, &ds, &queries, 1.0, Starts::All).unwrap();
        assert_eq!(g.graph.sink_count(), 0);
    }

    #[test]
    fn independent_nets_never_smaller_than_nested_on_spread_data() {
        // The nested ladder's cross-level dedup only removes edges.
        let mut pts = Vec::new();
        for j in 0..10 {
            for k in 0..8 {
                pts.push(vec![
                    (4.0f64).powi(j) + k as f64 * 0.05,
                    (k % 3) as f64 * 0.05,
                ]);
            }
        }
        let ds = Dataset::new(pts, Euclidean);
        let nested = GNet::build_fast(&ds, 1.0);
        let indep = GNetIndependent::build(&ds, 1.0);
        assert!(
            indep.graph.edge_count() >= nested.graph.edge_count(),
            "independent {} vs nested {}",
            indep.graph.edge_count(),
            nested.graph.edge_count()
        );
    }

    #[test]
    fn data_points_as_queries_find_themselves() {
        let ds = random_dataset(80, 2, 7);
        let g = GNet::build(&ds, 1.0);
        for p in (0..80u32).step_by(9) {
            let out = crate::search::greedy(&g.graph, &ds, (p + 40) % 80, ds.point(p as usize));
            assert_eq!(out.result, p, "greedy must land exactly on the data point");
            assert_eq!(out.result_dist, 0.0);
        }
    }
}
