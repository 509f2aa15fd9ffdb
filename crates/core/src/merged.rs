//! The merged Euclidean proximity graph of Theorem 1.3 (Sections 5.2–5.3).
//!
//! Recipe:
//!
//! 1. build `G_net` (Theorem 1.1) — `O((1/ε)^λ n log Δ)` edges;
//! 2. sample each vertex independently with probability `τ = z / log Δ`
//!    (Eq. 17); sampled vertices are **jackpot** vertices and keep their
//!    `G_net` out-edges, all other `G_net` edges are discarded — the
//!    surviving expected edge count is `O((1/ε)^λ n)`;
//! 3. merge with the *small-but-slow* `(ε/32)`-graph `G_geo` (Lemma 5.1),
//!    which contributes `O((1/ε)^{d-1} n)` edges and restores
//!    `(1+ε)`-navigability.
//!
//! Under the jackpot condition (Section 5.2), w.h.p. every greedy walk hits
//! a jackpot vertex within `⌈ln n · log Δ⌉` hops, and each jackpot hop
//! shrinks `⌈log D(p°, p*)⌉` (the log-drop property, Lemma 5.3), giving
//! query time `O((1/ε)^λ log²Δ + (1/ε)^{d-1} log n log²Δ)`.
//!
//! Section 5.3 amplifies the success probability by repeating the sampling
//! `O(log n)` times and keeping the smallest graph —
//! [`MergedGraph::build_best_of`].

use pg_metric::{Dataset, Metric};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::gnet::GNet;
use crate::graph::Graph;
use crate::theta::ThetaGraph;

/// Parameters of the merged construction.
#[derive(Debug, Clone, Copy)]
pub struct MergedParams {
    /// Approximation slack `ε ∈ (0, 1]`.
    pub epsilon: f64,
    /// The sampling constant `z` of Eq. (17): `τ = min(1, z / log Δ)`.
    pub z: f64,
    /// RNG seed for the jackpot sampling (experiments are reproducible).
    pub seed: u64,
    /// Angular diameter for the geometric graph; defaults to the Lemma 5.1
    /// constant `ε/32` when `None`. Practical deployments may widen it
    /// (fewer cones) at the cost of the worst-case guarantee.
    pub theta: Option<f64>,
}

impl MergedParams {
    /// Defaults: `z = 4`, fixed seed, faithful `θ = ε/32`.
    pub fn new(epsilon: f64) -> Self {
        MergedParams {
            epsilon,
            z: 4.0,
            seed: 0xC0FFEE,
            theta: None,
        }
    }

    /// Overrides θ (e.g. for higher dimensions where `ε/32` generates too
    /// many cones to be practical).
    pub fn with_theta(mut self, theta: f64) -> Self {
        self.theta = Some(theta);
        self
    }
}

/// The merged graph `G = G'_net ∪ G_geo` of Theorem 1.3.
#[derive(Debug, Clone)]
pub struct MergedGraph {
    /// The merged proximity graph.
    pub graph: Graph,
    /// Which vertices are jackpot vertices (kept their `G_net` edges).
    pub jackpots: Vec<bool>,
    /// The sampling probability `τ` actually used.
    pub tau: f64,
    /// Parameters.
    pub params: MergedParams,
    /// Edge count of the underlying full `G_net` (before sampling), for the
    /// separation experiments.
    pub gnet_edges: usize,
    /// Edge count of the geometric `(ε/32)`-graph.
    pub theta_edges: usize,
}

impl MergedGraph {
    /// Builds `G_net` and the θ-graph, then merges (one sampling run).
    pub fn build<P: AsRef<[f64]> + Sync, M: Metric<P> + Sync>(
        data: &Dataset<P, M>,
        params: MergedParams,
    ) -> Self {
        let gnet = GNet::build_fast(data, params.epsilon);
        let theta = match params.theta {
            Some(t) => ThetaGraph::build(data, t),
            None => ThetaGraph::build_for_pg(data, params.epsilon),
        };
        Self::merge(&gnet, &theta, params)
    }

    /// Section 5.3 amplification: performs `runs` independent jackpot
    /// samplings (reusing the same `G_net` and θ-graph), run `r` at seed
    /// `params.seed + r`, and returns the merged graph with the fewest edges
    /// — its `params` carry the seed it was sampled at, so
    /// [`MergedGraph::build`] on them rebuilds it. The paper uses `z' log n`
    /// runs.
    pub fn build_best_of<P: AsRef<[f64]> + Sync, M: Metric<P> + Sync>(
        data: &Dataset<P, M>,
        params: MergedParams,
        runs: usize,
    ) -> Self {
        assert!(runs >= 1);
        let gnet = GNet::build_fast(data, params.epsilon);
        let theta = match params.theta {
            Some(t) => ThetaGraph::build(data, t),
            None => ThetaGraph::build_for_pg(data, params.epsilon),
        };
        (0..runs)
            .map(|r| {
                let seed = params.seed.wrapping_add(r as u64);
                Self::merge(&gnet, &theta, MergedParams { seed, ..params })
            })
            .min_by_key(|m| m.graph.edge_count())
            .expect("runs >= 1")
    }

    /// Merges a pre-built `G_net` and θ-graph with a fresh jackpot sampling
    /// seeded by `params.seed`.
    pub fn merge(gnet: &GNet, theta: &ThetaGraph, params: MergedParams) -> Self {
        let n = gnet.graph.n();
        assert_eq!(n, theta.graph.n(), "graphs must share the vertex set");
        let log_delta = (gnet.hierarchy.log_aspect() as f64).max(1.0);
        let tau = (params.z / log_delta).min(1.0);

        let mut rng = StdRng::seed_from_u64(params.seed);
        let jackpots: Vec<bool> = (0..n).map(|_| rng.random_bool(tau)).collect();

        // G'_net: the jackpot vertices keep their G_net rows, the rest none.
        let rows = jackpots.iter().zip(0..n as u32).map(|(&kept, v)| {
            if kept {
                gnet.graph.neighbors(v).to_vec()
            } else {
                Vec::new()
            }
        });
        let sampled = Graph::from_adjacency(rows.collect());

        MergedGraph {
            graph: sampled.union(&theta.graph),
            jackpots,
            tau,
            params,
            gnet_edges: gnet.graph.edge_count(),
            theta_edges: theta.graph.edge_count(),
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

    fn random_dataset(n: usize, seed: u64) -> Dataset<Vec<f64>, Euclidean> {
        let mut rng = StdRng::seed_from_u64(seed);
        Dataset::new(
            (0..n)
                .map(|_| vec![rng.random_range(0.0..40.0), rng.random_range(0.0..40.0)])
                .collect(),
            Euclidean,
        )
    }

    #[test]
    fn merged_graph_is_navigable_regardless_of_sampling() {
        // Navigability comes from the θ-graph half of the merge, so it must
        // hold for every seed.
        let ds = random_dataset(80, 1);
        let mut rng = StdRng::seed_from_u64(10);
        let queries: Vec<Vec<f64>> = (0..10)
            .map(|_| vec![rng.random_range(-5.0..45.0), rng.random_range(-5.0..45.0)])
            .collect();
        for seed in [0u64, 1, 2] {
            let m = MergedGraph::build(
                &ds,
                MergedParams {
                    seed,
                    ..MergedParams::new(1.0)
                },
            );
            check_navigable(&m.graph, &ds, &queries, 1.0).unwrap();
            check_pg_exhaustive(&m.graph, &ds, &queries, 1.0, Starts::Stride(11)).unwrap();
        }
    }

    #[test]
    fn merged_never_exceeds_sum_of_parts() {
        // Sampling drops non-jackpot G_net edges, so the merge is strictly
        // below G_net + θ whenever tau < 1.
        let ds = random_dataset(150, 2);
        let m = MergedGraph::build(&ds, MergedParams::new(1.0));
        assert!(m.tau < 1.0);
        assert!(
            m.graph.edge_count() < m.gnet_edges + m.theta_edges,
            "merged {} vs parts {} + {}",
            m.graph.edge_count(),
            m.gnet_edges,
            m.theta_edges
        );
    }

    #[test]
    fn merged_beats_full_gnet_at_large_aspect_ratio() {
        // The Euclidean separation (Theorem 1.3) kicks in when log Δ is
        // large: G_net pays an edge per level, the merged graph does not.
        // Geometric chain: 30 clusters of 5 points, cluster j at x = 3^j.
        let mut pts = Vec::new();
        for j in 0..30 {
            for k in 0..5 {
                pts.push(vec![(3.0f64).powi(j), k as f64 * 0.1]);
            }
        }
        let ds = Dataset::new(pts, Euclidean);
        let m = MergedGraph::build(&ds, MergedParams::new(1.0));
        assert!(
            m.tau < 0.2,
            "tau should be small at log Δ ~ 47, got {}",
            m.tau
        );
        assert!(
            m.graph.edge_count() < m.gnet_edges,
            "merged {} vs full G_net {}",
            m.graph.edge_count(),
            m.gnet_edges
        );
    }

    #[test]
    fn tau_follows_equation_17() {
        let ds = random_dataset(100, 3);
        let m = MergedGraph::build(
            &ds,
            MergedParams {
                z: 2.0,
                ..MergedParams::new(1.0)
            },
        );
        assert!(m.tau > 0.0 && m.tau <= 1.0);
        // tau = min(1, z / log Δ); with z = 2 and log Δ >= 2 on this data,
        // tau must be at most 1 and exactly z / logΔ when that is < 1.
        let gnet = crate::gnet::GNet::build_fast(&ds, 1.0);
        let expect = (2.0 / (gnet.hierarchy.log_aspect() as f64).max(1.0)).min(1.0);
        assert!((m.tau - expect).abs() < 1e-12);
    }

    #[test]
    fn best_of_runs_never_bigger_than_single_run() {
        let ds = random_dataset(120, 4);
        let params = MergedParams::new(1.0);
        let single = MergedGraph::build(&ds, params);
        let best = MergedGraph::build_best_of(&ds, params, 6);
        assert!(best.graph.edge_count() <= single.graph.edge_count());
    }

    #[test]
    fn jackpot_fraction_tracks_tau() {
        let ds = random_dataset(400, 5);
        let m = MergedGraph::build(&ds, MergedParams::new(1.0));
        let frac = m.jackpots.iter().filter(|&&b| b).count() as f64 / 400.0;
        assert!(
            (frac - m.tau).abs() < 0.12,
            "jackpot fraction {frac} far from tau {}",
            m.tau
        );
    }

    #[test]
    fn merged_contains_all_theta_edges() {
        let ds = random_dataset(60, 6);
        let params = MergedParams {
            seed: 7,
            ..MergedParams::new(1.0)
        };
        let gnet = crate::gnet::GNet::build_fast(&ds, 1.0);
        let theta = crate::theta::ThetaGraph::build_for_pg(&ds, 1.0);
        let m = MergedGraph::merge(&gnet, &theta, params);
        for (u, v) in theta.graph.edges() {
            assert!(m.graph.has_edge(u, v), "theta edge ({u}, {v}) missing");
        }
        // Non-jackpot vertices have exactly their theta edges.
        for v in 0..60u32 {
            if !m.jackpots[v as usize] {
                assert_eq!(m.graph.neighbors(v), theta.graph.neighbors(v));
            }
        }
    }
}
