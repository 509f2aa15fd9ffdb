//! Navigable Small World graphs (Malkov et al. \[21\]) — the flat,
//! single-layer predecessor of HNSW: points are inserted in random order and
//! bidirectionally connected to the `M` nearest results of a beam search
//! over the graph built so far.
//!
//! # Searching an NSW graph
//!
//! [`nsw`] returns a plain [`Graph`], so queries route through the shared
//! [`pg_core::beam_search_detailed`] (or, behind the uniform sweep
//! interface, [`GraphIndex`](crate::GraphIndex)). The `ef` and tie-breaking
//! semantics are therefore exactly those documented there: effective beam
//! width `ef.max(k)` is *not* applied here — the search keeps `ef` as
//! given and truncates to `k` at the end — and all orderings break distance
//! ties by smaller id, identically to brute force. The construction-time
//! beam is the same [`pg_core::beam_walk`] (scored by true distance over the
//! adjacency built so far), so it follows that rule too and the built graph
//! is deterministic for a seed at every thread count.

use pg_core::{beam_walk, point_score, Graph};
use pg_metric::{Dataset, Metric};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// NSW construction parameters.
#[derive(Debug, Clone, Copy)]
pub struct NswParams {
    /// Bidirectional connections per insertion.
    pub m: usize,
    /// Construction beam width.
    pub ef_construction: usize,
    /// RNG seed (insertion order).
    pub seed: u64,
}

impl Default for NswParams {
    fn default() -> Self {
        NswParams {
            m: 10,
            ef_construction: 48,
            seed: 0x0115,
        }
    }
}

/// Builds an NSW graph.
pub fn nsw<P, M: Metric<P>>(data: &Dataset<P, M>, params: NswParams) -> Graph {
    let n = data.len();
    assert!(n >= 1);
    let mut rng = StdRng::seed_from_u64(params.seed);
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(&mut rng);

    let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
    let mut inserted: Vec<u32> = Vec::with_capacity(n);
    for &p in &order {
        if inserted.is_empty() {
            inserted.push(p as u32);
            continue;
        }
        let q = data.point(p);
        let found = beam_walk(
            n,
            &inserted[..1],
            params.ef_construction,
            |v| &adj[v as usize],
            point_score(data, |v| data.dist_to(v as usize, q)),
        );
        for &(v, _) in found.results.iter().take(params.m) {
            adj[p].push(v);
            adj[v as usize].push(p as u32);
        }
        inserted.push(p as u32);
    }
    Graph::from_adjacency(adj)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pg_metric::{Euclidean, FlatPoints, FlatRow};
    use rand::RngExt;

    // Flat-backed on purpose -- see the sibling baselines' test helpers.
    fn random_dataset(n: usize, seed: u64) -> Dataset<FlatRow, Euclidean> {
        let mut rng = StdRng::seed_from_u64(seed);
        FlatPoints::from_fn(n, 2, |_, out| {
            out.push(rng.random_range(0.0..30.0));
            out.push(rng.random_range(0.0..30.0));
        })
        .into_dataset(Euclidean)
    }

    #[test]
    fn nsw_recall_is_reasonable() {
        let ds = random_dataset(300, 1);
        let g = nsw(&ds, NswParams::default());
        let mut rng = StdRng::seed_from_u64(10);
        let mut hits = 0;
        let trials = 40;
        for _ in 0..trials {
            let q: FlatRow = vec![rng.random_range(0.0..30.0), rng.random_range(0.0..30.0)].into();
            let (exact, _) = ds.nearest_brute(&q);
            let res = pg_core::beam_search_detailed(&g, &ds, 0, &q, 32, 1).results;
            if res[0].0 as usize == exact {
                hits += 1;
            }
        }
        assert!(hits * 100 >= trials * 85, "recall too low: {hits}/{trials}");
    }

    #[test]
    fn nsw_graph_is_connected_enough() {
        let ds = random_dataset(200, 2);
        let g = nsw(&ds, NswParams::default());
        assert_eq!(g.sink_count(), 0);
        // Undirected-style construction: every vertex has >= m/2 edges.
        assert!(g.avg_out_degree() >= NswParams::default().m as f64);
    }

    #[test]
    fn deterministic_given_seed() {
        let ds = random_dataset(150, 3);
        assert_eq!(
            nsw(&ds, NswParams::default()),
            nsw(&ds, NswParams::default())
        );
    }
}
