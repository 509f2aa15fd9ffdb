//! DiskANN-style α-pruned graphs.
//!
//! Two constructions:
//!
//! * [`slow_preprocessing`] — the variant analyzed by Indyk–Xu \[18\] and
//!   cited by the paper in Section 1.2: for every point, scan all others in
//!   ascending distance order and keep a candidate `v` unless an already
//!   kept `u` satisfies `α · D(u, v) <= D(p, v)`. The result satisfies the
//!   α-shortcut property — for every `(p, v)` either the edge `(p, v)`
//!   exists or some kept `u` has `D(u, v) <= D(p, v)/α` — which makes the
//!   graph `(α+1)/(α-1)`-navigable (a calculation the unit tests replay).
//!   Construction is `Θ(n^2 log n + n^2 · deg)` distance work: this is the
//!   quadratic-barrier baseline that Theorem 1.1's near-linear construction
//!   beats.
//! * [`vamana`] — the practical heuristic actually shipped by DiskANN \[19\]:
//!   a random regular graph improved by two passes of beam search +
//!   α-robust-prune, with reverse-edge insertion.

use pg_core::{beam_walk, point_score, Graph, GraphBuilder};
use pg_metric::{Dataset, Metric};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};

/// The slow-preprocessing α-pruned DiskANN graph (see module docs).
/// Requires `alpha > 1`.
///
/// Each point's scan-and-prune is independent of every other point's, so the
/// per-point neighbor selection is sharded across the thread pool over the
/// immutable dataset; the kept lists are re-assembled in id order, making
/// the graph bit-identical to the sequential construction for any thread
/// count (asserted in tests). This is the quadratic-barrier baseline — the
/// pool divides the wall clock, not the `Θ(n^2 log n)` distance count.
pub fn slow_preprocessing<P: Sync, M: Metric<P> + Sync>(data: &Dataset<P, M>, alpha: f64) -> Graph {
    assert!(alpha > 1.0, "alpha must exceed 1, got {alpha}");
    let n = data.len();
    let mut builder = GraphBuilder::new(n);
    let per_point = rayon::par_map_range(n, |p| {
        let mut order: Vec<(f64, u32)> = (0..n)
            .filter(|&v| v != p)
            .map(|v| (data.dist(p, v), v as u32))
            .collect();
        order.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut kept: Vec<(u32, f64)> = Vec::new();
        'cand: for (dpv, v) in order {
            for &(u, _) in &kept {
                if alpha * data.dist(u as usize, v as usize) <= dpv {
                    continue 'cand; // v is covered by u.
                }
            }
            kept.push((v, dpv));
        }
        kept
    });
    for (p, kept) in per_point.into_iter().enumerate() {
        for (v, _) in kept {
            builder.add_edge(p as u32, v);
        }
    }
    builder.build()
}

/// Parameters of the practical Vamana construction.
#[derive(Debug, Clone, Copy)]
pub struct VamanaParams {
    /// Maximum out-degree `R`.
    pub r: usize,
    /// Beam width `L` used during construction searches.
    pub l: usize,
    /// Pruning slack `α > 1`.
    pub alpha: f64,
    /// RNG seed (initial random graph and insertion order).
    pub seed: u64,
    /// Number of improvement passes (DiskANN uses 2).
    pub passes: usize,
}

impl Default for VamanaParams {
    fn default() -> Self {
        VamanaParams {
            r: 24,
            l: 64,
            alpha: 1.2,
            seed: 0xD15CA,
            passes: 2,
        }
    }
}

/// The practical DiskANN/Vamana graph (see module docs).
///
/// Vamana's improvement passes mutate the graph point by point, so they stay
/// sequential for determinism; the per-point robust-prune distance labelling
/// routes through the pool-aware `label_dists` helper (parallel past its
/// 512-candidate threshold, sequential below it), reading only immutable
/// snapshots — the result is bit-identical for any thread count.
pub fn vamana<P: Sync, M: Metric<P> + Sync>(data: &Dataset<P, M>, params: VamanaParams) -> Graph {
    let n = data.len();
    assert!(n >= 2);
    let r = params.r.min(n - 1).max(1);
    let mut rng = StdRng::seed_from_u64(params.seed);

    // Random r-regular-ish initial adjacency.
    let mut adj: Vec<Vec<u32>> = (0..n)
        .map(|p| {
            let mut nb = Vec::with_capacity(r);
            while nb.len() < r {
                let v = rng.random_range(0..n) as u32;
                if v as usize != p && !nb.contains(&v) {
                    nb.push(v);
                }
            }
            nb
        })
        .collect();

    let medoid = approx_medoid(data, &mut rng);

    for _pass in 0..params.passes {
        let mut order: Vec<usize> = (0..n).collect();
        order.shuffle(&mut rng);
        for &p in &order {
            // Beam search for p from the medoid over the current graph; the
            // candidate pool for robust pruning is every vertex it visited,
            // which is exactly what the walk scored.
            let q = data.point(p);
            let mut candidates: Vec<u32> = Vec::new();
            beam_walk(
                n,
                &[medoid as u32],
                params.l,
                |v| &adj[v as usize],
                point_score(data, |v| {
                    candidates.push(v);
                    data.dist_to(v as usize, q)
                }),
            );
            candidates.extend_from_slice(&adj[p]);
            candidates.sort_unstable();
            candidates.dedup();
            candidates.retain(|&v| v as usize != p);
            adj[p] = robust_prune(data, p, candidates, params.alpha, r);
            // Reverse edges with pruning on overflow.
            let out = adj[p].clone();
            for &u in &out {
                if !adj[u as usize].contains(&(p as u32)) {
                    adj[u as usize].push(p as u32);
                    if adj[u as usize].len() > r {
                        let cands = std::mem::take(&mut adj[u as usize]);
                        adj[u as usize] = robust_prune(data, u as usize, cands, params.alpha, r);
                    }
                }
            }
        }
    }
    Graph::from_adjacency(adj)
}

/// The α-robust-prune of DiskANN: keep the closest candidate, drop all
/// candidates it α-covers, repeat until `r` neighbors are kept.
fn robust_prune<P: Sync, M: Metric<P> + Sync>(
    data: &Dataset<P, M>,
    p: usize,
    mut candidates: Vec<u32>,
    alpha: f64,
    r: usize,
) -> Vec<u32> {
    candidates.retain(|&v| v as usize != p);
    candidates.sort_unstable();
    candidates.dedup();
    let mut with_d: Vec<(f64, u32)> = crate::label_dists(data, p, &candidates);
    with_d.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let mut kept: Vec<u32> = Vec::with_capacity(r);
    let mut alive: Vec<(f64, u32)> = with_d;
    while kept.len() < r && !alive.is_empty() {
        let (d_best, best) = alive.remove(0);
        kept.push(best);
        alive.retain(|&(dpv, v)| {
            let duv = data.dist(best as usize, v as usize);
            // Keep v alive unless best α-covers it.
            alpha * duv > dpv.max(d_best)
        });
    }
    kept
}

/// Approximate medoid: the sampled point minimizing distance to a random
/// probe set. The candidate pool is capped at ~128 entries of ~16 distance
/// evaluations each — far below the parallel threshold — so this stays a
/// plain sequential scan (spawning workers would cost more than the work).
fn approx_medoid<P, M: Metric<P>>(data: &Dataset<P, M>, rng: &mut StdRng) -> usize {
    let n = data.len();
    let probes: Vec<usize> = (0..16.min(n)).map(|_| rng.random_range(0..n)).collect();
    (0..n)
        .step_by((n / 64).max(1))
        .min_by(|&a, &b| {
            let sa: f64 = probes.iter().map(|&p| data.dist(a, p)).sum();
            let sb: f64 = probes.iter().map(|&p| data.dist(b, p)).sum();
            sa.total_cmp(&sb)
        })
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pg_core::navigability::{check_navigable, check_pg_exhaustive, Starts};
    use pg_core::search::greedy;
    use pg_metric::{Dataset, Euclidean, FlatPoints, FlatRow};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    // Flat-backed on purpose: the baseline builds and searches are generic
    // over the point type, and these tests double as coverage that they run
    // on the contiguous layout the experiments use.
    fn random_dataset(n: usize, d: usize, seed: u64) -> Dataset<FlatRow, Euclidean> {
        let mut rng = StdRng::seed_from_u64(seed);
        FlatPoints::from_fn(n, d, |_, out| {
            out.extend((0..d).map(|_| rng.random_range(0.0..30.0)))
        })
        .into_dataset(Euclidean)
    }

    #[test]
    fn slow_preprocessing_satisfies_alpha_shortcut_property() {
        let ds = random_dataset(70, 2, 1);
        let alpha = 2.0;
        let g = slow_preprocessing(&ds, alpha);
        for p in 0..70usize {
            for v in 0..70usize {
                if p == v || g.has_edge(p as u32, v as u32) {
                    continue;
                }
                let dpv = ds.dist(p, v);
                let covered = g
                    .neighbors(p as u32)
                    .iter()
                    .any(|&u| alpha * ds.dist(u as usize, v) <= dpv);
                assert!(covered, "pair ({p}, {v}) neither edge nor covered");
            }
        }
    }

    #[test]
    fn slow_preprocessing_is_navigable_with_indyk_xu_ratio() {
        // α-shortcut => (α+1)/(α-1)-navigable: for α = 2 the ratio is 3,
        // i.e. ε = 2.
        let ds = random_dataset(60, 2, 2);
        let g = slow_preprocessing(&ds, 2.0);
        let mut rng = StdRng::seed_from_u64(20);
        let queries: Vec<FlatRow> = (0..15)
            .map(|_| vec![rng.random_range(-5.0..35.0), rng.random_range(-5.0..35.0)].into())
            .collect();
        check_navigable(&g, &ds, &queries, 2.0).unwrap();
        check_pg_exhaustive(&g, &ds, &queries, 2.0, Starts::Stride(7)).unwrap();
    }

    #[test]
    fn larger_alpha_gives_more_edges_and_better_ratio() {
        let ds = random_dataset(80, 2, 3);
        let g_small = slow_preprocessing(&ds, 1.1);
        let g_big = slow_preprocessing(&ds, 3.0);
        assert!(
            g_big.edge_count() > g_small.edge_count(),
            "α = 3 ({}) should out-edge α = 1.1 ({})",
            g_big.edge_count(),
            g_small.edge_count()
        );
        // α = 3: ratio (α+1)/(α-1) = 2, i.e. ε = 1.
        let mut rng = StdRng::seed_from_u64(21);
        let queries: Vec<FlatRow> = (0..10)
            .map(|_| vec![rng.random_range(-5.0..35.0), rng.random_range(-5.0..35.0)].into())
            .collect();
        check_navigable(&g_big, &ds, &queries, 1.0).unwrap();
    }

    #[test]
    fn vamana_recall_is_high_on_random_data() {
        let ds = random_dataset(300, 2, 4);
        let g = vamana(&ds, VamanaParams::default());
        assert!(g.max_out_degree() <= VamanaParams::default().r);
        let mut rng = StdRng::seed_from_u64(22);
        let mut hits = 0;
        let trials = 50;
        for _ in 0..trials {
            let q: FlatRow = vec![rng.random_range(0.0..30.0), rng.random_range(0.0..30.0)].into();
            let (exact, _) = ds.nearest_brute(&q);
            let res = pg_core::beam_search_detailed(&g, &ds, 0, &q, 32, 1).results;
            if res[0].0 as usize == exact {
                hits += 1;
            }
        }
        assert!(hits * 100 >= trials * 90, "recall too low: {hits}/{trials}");
    }

    #[test]
    fn vamana_greedy_converges_near_nn() {
        let ds = random_dataset(200, 2, 5);
        let g = vamana(&ds, VamanaParams::default());
        let mut rng = StdRng::seed_from_u64(23);
        for _ in 0..20 {
            let q: FlatRow = vec![rng.random_range(0.0..30.0), rng.random_range(0.0..30.0)].into();
            let (_, dstar) = ds.nearest_brute(&q);
            let out = greedy(&g, &ds, rng.random_range(0..200) as u32, &q);
            assert!(
                out.result_dist <= 5.0 * dstar + 1.0,
                "greedy landed at {} vs exact {dstar}",
                out.result_dist
            );
        }
    }

    #[test]
    fn robust_prune_respects_degree_bound() {
        let ds = random_dataset(100, 2, 6);
        let cands: Vec<u32> = (1..100).collect();
        let kept = robust_prune(&ds, 0, cands, 1.2, 10);
        assert!(kept.len() <= 10);
        assert!(!kept.is_empty());
        // The nearest candidate is always kept.
        let (nearest, _) = ds.nearest_excluding(0);
        assert!(kept.contains(&(nearest as u32)));
    }

    #[test]
    fn parallel_construction_is_thread_count_invariant() {
        let ds = random_dataset(90, 2, 8);
        let slow1 = rayon::with_threads(1, || slow_preprocessing(&ds, 2.0));
        let vam1 = rayon::with_threads(1, || vamana(&ds, VamanaParams::default()));
        for threads in [2, 5] {
            let slow_t = rayon::with_threads(threads, || slow_preprocessing(&ds, 2.0));
            let vam_t = rayon::with_threads(threads, || vamana(&ds, VamanaParams::default()));
            assert_eq!(
                slow1, slow_t,
                "slow-preprocessing diverged at {threads} threads"
            );
            assert_eq!(vam1, vam_t, "vamana diverged at {threads} threads");
        }
    }

    #[test]
    fn vamana_is_deterministic_for_a_seed() {
        let ds = random_dataset(80, 2, 7);
        let g1 = vamana(&ds, VamanaParams::default());
        let g2 = vamana(&ds, VamanaParams::default());
        assert_eq!(g1, g2);
    }
}
