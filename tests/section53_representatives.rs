//! Integration: the Section 5.3 representative-query argument, executed.
//!
//! The paper derandomizes "one query" into "all queries" by observing that
//! `greedy`'s execution depends only on the outcomes of comparisons
//! `L2(p1, q) < L2(p2, q)`: two queries inducing the same comparison order
//! drive `greedy` identically, *regardless of which proximity graph is
//! adopted*. The `O(n^2)` perpendicular bisectors dissect `R^d` into
//! `O(n^{2d})` polytopes of equivalent queries.
//!
//! These tests verify the observation operationally: queries in the same
//! bisector cell produce hop-for-hop identical greedy walks on every graph
//! we build, and crossing a bisector is the only way walks can diverge.

use proximity_graphs::baselines::vamana;
use proximity_graphs::baselines::VamanaParams;
use proximity_graphs::core::{greedy, GNet, MergedGraph, MergedParams, ThetaGraph};
use proximity_graphs::metric::{Dataset, Euclidean, Metric};
use proximity_graphs::workloads;

/// The comparison signature of a query: the id order of all points by
/// distance (ties broken by id — queries on a bisector are excluded by the
/// strictness check below).
fn signature(data: &Dataset<Vec<f64>, Euclidean>, q: &[f64]) -> Option<Vec<usize>> {
    let mut order: Vec<(f64, usize)> = (0..data.len())
        .map(|i| (data.dist_to(i, &q.to_vec()), i))
        .collect();
    order.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    // Reject queries sitting (numerically) on a bisector.
    for w in order.windows(2) {
        if (w[0].0 - w[1].0).abs() < 1e-9 {
            return None;
        }
    }
    Some(order.into_iter().map(|(_, i)| i).collect())
}

#[test]
fn same_cell_queries_walk_identically_on_every_graph() {
    let points = workloads::uniform_cube(120, 2, 80.0, 5);
    let data = Dataset::new(points, Euclidean);
    let gnet = GNet::build(&data, 1.0);
    let theta = ThetaGraph::build(&data, 0.3);
    let merged = MergedGraph::build(&data, MergedParams::new(1.0).with_theta(0.3));
    let vam = vamana(&data, VamanaParams::default());
    let graphs = [&gnet.graph, &theta.graph, &merged.graph, &vam];

    let queries = workloads::uniform_queries(40, 2, 0.0, 80.0, 6);
    let mut tested = 0;
    for q in &queries {
        let Some(sig1) = signature(&data, q) else {
            continue;
        };
        // Perturb by much less than the smallest distance gap: if the
        // signature is unchanged, the cell is unchanged.
        let q2: Vec<f64> = vec![q[0] + 1e-7, q[1] - 1e-7];
        let Some(sig2) = signature(&data, &q2) else {
            continue;
        };
        if sig1 != sig2 {
            continue; // crossed a bisector; not a same-cell pair
        }
        tested += 1;
        for (gi, g) in graphs.iter().enumerate() {
            for start in [0u32, 17, 63, 119] {
                let w1 = greedy(g, &data, start, q);
                let w2 = greedy(g, &data, start, &q2);
                assert_eq!(
                    w1.hops, w2.hops,
                    "graph #{gi}, start {start}: same-cell queries diverged"
                );
                assert_eq!(w1.result, w2.result);
            }
        }
    }
    assert!(tested >= 20, "too few same-cell pairs tested: {tested}");
}

#[test]
fn different_cells_can_diverge() {
    // Sanity for the test above: queries in different cells generally do
    // produce different walks (so the same-cell test is not vacuous).
    let points = workloads::uniform_cube(80, 2, 50.0, 7);
    let data = Dataset::new(points, Euclidean);
    let g = GNet::build(&data, 1.0);
    let q1 = vec![5.0, 5.0];
    let q2 = vec![45.0, 45.0];
    let w1 = greedy(&g.graph, &data, 0, &q1);
    let w2 = greedy(&g.graph, &data, 0, &q2);
    assert_ne!(
        w1.result, w2.result,
        "far-apart queries should find different NNs"
    );
}

#[test]
fn greedy_depends_only_on_comparisons_not_magnitudes() {
    // Scale-invariance corollary: multiplying all coordinates by a constant
    // preserves every comparison, so walks are identical.
    let points = workloads::uniform_cube(100, 2, 60.0, 8);
    let scaled: Vec<Vec<f64>> = points
        .iter()
        .map(|p| p.iter().map(|x| x * 7.5).collect())
        .collect();
    let d1 = Dataset::new(points, Euclidean);
    let d2 = Dataset::new(scaled, Euclidean);
    let g1 = GNet::build(&d1, 1.0);
    let g2 = GNet::build(&d2, 1.0);
    // Edge for edge, that is: the band an edge is filed under is the binary
    // exponent of its length, which a factor of 7.5 moves.
    assert_eq!(
        g1.graph.without_bands(),
        g2.graph.without_bands(),
        "G_net itself is scale-invariant"
    );
    for q in workloads::uniform_queries(10, 2, 0.0, 60.0, 9) {
        let qs: Vec<f64> = q.iter().map(|x| x * 7.5).collect();
        let w1 = greedy(&g1.graph, &d1, 3, &q);
        let w2 = greedy(&g2.graph, &d2, 3, &qs);
        assert_eq!(w1.hops, w2.hops);
        let _ = Euclidean.dist(&q, &qs);
    }
}
