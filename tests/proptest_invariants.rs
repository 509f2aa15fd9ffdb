//! Property-based tests (proptest) over randomly generated inputs:
//! metric axioms, net invariants, greedy monotonicity, PG correctness,
//! cone covering, and the Appendix E facts used by Lemma 5.1.

mod common;

use std::sync::Mutex;

use common::at_octave_bands;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use proximity_graphs::core::{
    beam_search_detailed, check_navigable, greedy, ConeSet, GNet, ThetaGraph,
};
use proximity_graphs::hardness::{AdversarialMetric, BPoint, BlockInstance, Leaf, TreeInstance};
use proximity_graphs::metric::metric::axioms;
use proximity_graphs::metric::{Angular, Chebyshev, Dataset, Euclidean, Manhattan, Metric, Scaled};
use proximity_graphs::nets::NetHierarchy;
use proximity_graphs::workloads;

/// Strategy: a set of 5..40 distinct-ish random 2-d points.
fn small_pointset() -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(
        (0i32..4000, 0i32..4000).prop_map(|(x, y)| vec![x as f64 * 0.05, y as f64 * 0.05]),
        5..40,
    )
    .prop_map(|mut pts| {
        pts.sort_by(|a, b| a.partial_cmp(b).unwrap());
        pts.dedup();
        pts
    })
    .prop_filter("need >= 5 distinct points", |pts| pts.len() >= 5)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn scaled_euclidean_satisfies_metric_axioms(
        pts in small_pointset(),
        factor in 0.01f64..100.0,
    ) {
        let m = Scaled::new(Euclidean, factor);
        prop_assert!(axioms::check_all(&m, &pts).is_ok());
    }

    #[test]
    fn net_hierarchy_is_valid_on_random_points(pts in small_pointset()) {
        let data = Dataset::new(pts, Euclidean);
        let h = NetHierarchy::build(&data);
        prop_assert!(h.validate(&data).is_ok());
    }

    #[test]
    fn greedy_distances_strictly_descend(
        pts in small_pointset(),
        qx in 0.0f64..200.0,
        qy in 0.0f64..200.0,
        start_sel in 0usize..1000,
    ) {
        let data = Dataset::new(pts, Euclidean);
        let g = GNet::build(&data, 1.0);
        let q = vec![qx, qy];
        let start = (start_sel % data.len()) as u32;
        let out = greedy(&g.graph, &data, start, &q);
        let dists: Vec<f64> = out.hops.iter()
            .map(|&h| data.dist_to(h as usize, &q)).collect();
        prop_assert!(dists.windows(2).all(|w| w[1] < w[0]),
            "hop distances not strictly descending: {dists:?}");
    }

    #[test]
    fn gnet_returns_a_2ann_for_any_query_and_start(
        pts in small_pointset(),
        qx in -50.0f64..250.0,
        qy in -50.0f64..250.0,
        start_sel in 0usize..1000,
    ) {
        let data = Dataset::new(pts, Euclidean);
        let g = GNet::build(&data, 1.0);
        let q = vec![qx, qy];
        let start = (start_sel % data.len()) as u32;
        let out = greedy(&g.graph, &data, start, &q);
        let (_, exact) = data.nearest_brute(&q);
        prop_assert!(out.result_dist <= 2.0 * exact + 1e-9,
            "ratio {} exceeds 2", out.result_dist / exact.max(1e-12));
    }

    #[test]
    fn theta_graph_out_degree_never_exceeds_cone_count(
        pts in small_pointset(),
        theta_inv in 3u32..20,
    ) {
        let data = Dataset::new(pts, Euclidean);
        let t = ThetaGraph::build(&data, 1.0 / theta_inv as f64);
        prop_assert!(t.graph.max_out_degree() <= t.cone_count);
        prop_assert_eq!(t.graph.sink_count(), 0, "every point has a non-empty cone");
    }

    #[test]
    fn theta_graph_matches_its_naive_reference(pts in small_pointset()) {
        let data = Dataset::new(pts, Euclidean);
        let fast = ThetaGraph::build(&data, 0.3);
        let naive = ThetaGraph::build_naive(&data, 0.3);
        prop_assert_eq!(fast.graph, naive.graph);
    }

    #[test]
    fn cone_cover_assigns_every_nonzero_direction(
        vx in -10.0f64..10.0,
        vy in -10.0f64..10.0,
        vz in -10.0f64..10.0,
    ) {
        prop_assume!(vx != 0.0 || vy != 0.0 || vz != 0.0);
        let cs = ConeSet::covering(3, 0.5);
        let v = [vx, vy, vz];
        let c = cs.cone_of(&v);
        prop_assert!(c.is_some());
        let angle = cs.snap_angle(&v).unwrap();
        prop_assert!(angle <= 0.25 + 1e-9, "snap angle {angle} exceeds theta/2");
    }

    #[test]
    fn adversarial_metric_satisfies_axioms_for_random_parameters(
        s in 2u32..5,
        d in 1u32..3,
        t in 1u32..3,
        star_sel in 0usize..1000,
    ) {
        let inst = BlockInstance::new(s, d, t);
        let p_star = star_sel % inst.n();
        let metric = AdversarialMetric::new(s as i64, inst.points[p_star].clone());
        let mut pts: Vec<BPoint> = inst.points.iter().cloned().map(BPoint::Data).collect();
        pts.push(BPoint::Query);
        // Sample a subset to keep the cubic check fast.
        let sample: Vec<BPoint> = pts.iter().step_by(1 + pts.len() / 12).cloned().collect();
        prop_assert!(axioms::check_all(&metric, &sample).is_ok());
    }
}

// ---------------------------------------------------------------------------
// The annulus rule: `G_net` as built (rows by edge-length band, four
// sub-bands per octave) against the same edges re-banded at one band per
// octave (the ladder of format version 3) and with the bands stripped (rows
// scanned whole).
// ---------------------------------------------------------------------------

/// Beam and greedy walks over `G_net(points)` as built, at one band per
/// octave and with its bands stripped, under `metric`. A banded beam search
/// descends first, hopping at the first closer neighbour its own ladder's
/// scan meets, so its reference is the stripped walk entered at *that
/// layout's* descent answer — the width-1 search's top-1, since a width-1
/// beam entered at a local minimum admits nothing — whose `dist_comps` is
/// the descent's. Results, distance bits and `expansions` equal;
/// `dist_comps` never above the stripped walk's plus the descent's, nor
/// above `n`. `greedy` result, hops and termination equal three ways, its
/// `dist_comps` never larger on the finer layout. (The finer ladder's
/// fewer scores per walk are `pg_core`'s
/// `a_finer_ladder_scores_no_more_on_walks_from_one_entry`: two layouts'
/// searches may enter at different vertices.) The inputs are continuous,
/// so no scored distance ties another. Returns the distance computations
/// the bands saved greedy.
fn banded_walks_equal_stripped_walks<M: Metric<Vec<f64>> + Sync>(
    points: Vec<Vec<f64>>,
    queries: &[Vec<f64>],
    metric: M,
    tag: &str,
) -> Result<u64, TestCaseError> {
    let n = points.len();
    let data = Dataset::new(points, metric);
    let banded = GNet::build_fast(&data, 1.0).graph;
    let octaves = at_octave_bands(&banded);
    let plain = banded.without_bands();
    prop_assert!(banded.is_banded() && octaves.is_banded() && !plain.is_banded());
    prop_assert_eq!(banded.band_ladder().map(|l| l.resolution), Some(2));
    prop_assert_eq!(octaves.band_ladder().map(|l| l.resolution), Some(0));
    prop_assert_eq!(&octaves.without_bands(), &plain);
    let mut saved = 0u64;
    for (i, q) in queries.iter().enumerate() {
        let entry = ((i * 7919 + n / 3) % n) as u32;
        let [a, b, c] = [&banded, &octaves, &plain].map(|graph| greedy(graph, &data, entry, q));
        for other in [&b, &c] {
            prop_assert_eq!(a.result, other.result, "{}: greedy", tag);
            prop_assert_eq!(a.result_dist.to_bits(), other.result_dist.to_bits());
            prop_assert_eq!(&a.hops, &other.hops, "{}: greedy", tag);
            prop_assert_eq!(a.self_terminated, other.self_terminated);
        }
        prop_assert!(
            a.dist_comps <= b.dist_comps && b.dist_comps <= c.dist_comps,
            "{tag}: greedy"
        );
        saved += c.dist_comps - a.dist_comps;
        for graph in [&banded, &octaves] {
            let descent = beam_search_detailed(graph, &data, entry, q, 1, 1);
            let answer = descent.results[0].0;
            for ef in [1, 4, 16, 33, 40, n] {
                let got = beam_search_detailed(graph, &data, entry, q, ef, ef);
                let want = beam_search_detailed(&plain, &data, answer, q, ef, ef);
                prop_assert_eq!(
                    got.results.len(),
                    want.results.len(),
                    "{}: ef = {}",
                    tag,
                    ef
                );
                for (g, w) in got.results.iter().zip(&want.results) {
                    prop_assert_eq!(g.0, w.0, "{}: ef = {}", tag, ef);
                    prop_assert_eq!(g.1.to_bits(), w.1.to_bits(), "{}: ef = {}", tag, ef);
                }
                prop_assert_eq!(got.expansions, want.expansions, "{}: ef = {}", tag, ef);
                prop_assert!(
                    got.dist_comps <= want.dist_comps + descent.dist_comps,
                    "{tag}: ef = {ef}: {} > {} + {}",
                    got.dist_comps,
                    want.dist_comps,
                    descent.dist_comps
                );
                prop_assert!(got.dist_comps <= n as u64, "{tag}: ef = {ef}");
            }
        }
    }
    Ok(saved)
}

/// A point that knows its id, so [`Logged`] can tell which points a walk
/// scored. The query carries `u32::MAX`.
#[derive(Debug, Clone, PartialEq)]
struct Tagged {
    id: u32,
    coords: Vec<f64>,
}

/// `inner` on the coordinates, logging the id of every data point a
/// distance to the query is taken from.
struct Logged<M> {
    inner: M,
    scored: Mutex<Vec<u32>>,
}

impl<M> Logged<M> {
    fn log(&self, a: &Tagged, b: &Tagged) {
        if b.id == u32::MAX {
            self.scored.lock().unwrap().push(a.id);
        }
    }
}

impl<M: Metric<Vec<f64>>> Metric<Tagged> for Logged<M> {
    fn dist(&self, a: &Tagged, b: &Tagged) -> f64 {
        self.log(a, b);
        self.inner.dist(&a.coords, &b.coords)
    }
    fn surrogate(&self, a: &Tagged, b: &Tagged) -> f64 {
        self.log(a, b);
        self.inner.surrogate(&a.coords, &b.coords)
    }
    fn dist_from_surrogate(&self, s: f64) -> f64 {
        self.inner.dist_from_surrogate(s)
    }
}

/// What still holds when scored distances tie (the scan order then decides
/// which of the equals a full beam keeps, so the two layouts may return
/// different, equally good lists): at `ef >= n` both equal brute force, and
/// at every `ef` each vertex the banded walk **skipped** — a neighbour of a
/// vertex it expanded that it never scored — is no closer than its final
/// worst. Every returned vertex was expanded (it was popped while no worse
/// than the worst kept), so the neighbours of the result list are checked.
fn banded_walk_is_safe_under_ties<M: Metric<Vec<f64>> + Sync>(
    points: Vec<Vec<f64>>,
    queries: &[Vec<f64>],
    metric: M,
    tag: &str,
) -> Result<(), TestCaseError> {
    let n = points.len();
    let tagged = |(id, coords): (usize, &Vec<f64>)| Tagged {
        id: id as u32,
        coords: coords.clone(),
    };
    let logged = Logged {
        inner: metric,
        scored: Mutex::new(Vec::new()),
    };
    let data = Dataset::new(points.iter().enumerate().map(tagged).collect(), logged);
    let banded = GNet::build_fast(&data, 1.0).graph;
    let plain = banded.without_bands();
    let scored_by = |graph, entry, q: &Tagged, ef| {
        data.metric().scored.lock().unwrap().clear();
        let out = beam_search_detailed(graph, &data, entry, q, ef, ef);
        let mut scored = vec![false; n];
        for &v in data.metric().scored.lock().unwrap().iter() {
            scored[v as usize] = true;
        }
        (out, scored)
    };
    for (i, coords) in queries.iter().enumerate() {
        let q = tagged((u32::MAX as usize, coords));
        let entry = ((i * 31 + 1) % n) as u32;
        for ef in [1, 2, 4, 16, 33, n, n + 5] {
            let (out, scored) = scored_by(&banded, entry, &q, ef);
            let (reference, scored_plain) = scored_by(&plain, entry, &q, ef);
            prop_assert!(out.dist_comps <= n as u64, "{tag}: a vertex is scored once");
            if ef >= n {
                let brute: Vec<(u32, f64)> = data
                    .k_nearest_brute(&q, n)
                    .into_iter()
                    .map(|(v, d)| (v as u32, d))
                    .collect();
                prop_assert_eq!(&out.results, &brute, "{}: banded, ef = {}", tag, ef);
                prop_assert_eq!(&reference.results, &brute, "{}: plain, ef = {}", tag, ef);
                continue;
            }
            let worst = match out.results.len() == ef {
                true => out.results[ef - 1].1,
                false => f64::INFINITY, // the beam never filled: nothing may be skipped
            };
            for &(p, _) in &out.results {
                for &u in banded.neighbors(p) {
                    let d = data
                        .metric()
                        .inner
                        .dist(&data.point(u as usize).coords, coords);
                    prop_assert!(
                        scored[u as usize] || d >= worst,
                        "{tag}: ef = {ef}: skipped {u} at {d} is closer than the worst {worst} \
                         (plain walk scored it: {})",
                        scored_plain[u as usize]
                    );
                }
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn banded_gnet_walks_are_bit_identical_to_stripped_ones(
        n in 12usize..140,
        d_sel in 0usize..4,
        seed in 0u64..1_000_000,
    ) {
        let d = [1, 2, 3, 8][d_sel];
        let points = workloads::uniform_cube(n, d, 50.0, seed);
        let queries = workloads::uniform_queries(4, d, -10.0, 60.0, seed ^ 0xBA2D);
        let saved = banded_walks_equal_stripped_walks(points.clone(), &queries, Euclidean, "L2")?
            + banded_walks_equal_stripped_walks(points.clone(), &queries, Manhattan, "L1")?
            + banded_walks_equal_stripped_walks(points, &queries, Chebyshev, "Linf")?;
        // Not vacuous: in the plane the rule skips work on all but a
        // handful of points (in d = 8 a small cube has one length scale).
        prop_assert!(d > 2 || n < 40 || saved > 0, "the annulus rule never skipped");
    }

    #[test]
    fn banded_gnet_walks_stay_safe_on_tie_heavy_inputs(
        side in 3usize..9,
        d_sel in 0usize..3,
        keep in 40u32..100,
        seed in 0u64..1_000_000,
    ) {
        let (points, queries) = knocked_out_lattice(side, d_sel, keep, seed);
        prop_assume!(points.len() >= 4);
        banded_walk_is_safe_under_ties(points.clone(), &queries, Euclidean, "L2")?;
        banded_walk_is_safe_under_ties(points.clone(), &queries, Manhattan, "L1")?;
        banded_walk_is_safe_under_ties(points, &queries, Chebyshev, "Linf")?;
    }
}

/// A lattice in `d = [1, 2, 3][d_sel]` dimensions with the cells a hash of
/// `seed` puts above `keep` % knocked out, and four queries at lattice and
/// half-lattice positions: whole shells of points tie exactly, under every
/// metric. (The net ladder rejects duplicated points, so equidistant ones
/// are as tie-heavy as a `G_net` input gets.)
fn knocked_out_lattice(
    side: usize,
    d_sel: usize,
    keep: u32,
    seed: u64,
) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
    let d = [1, 2, 3][d_sel];
    let extent = [4 * side, side, side.min(5)][d_sel];
    let kept = |cell: usize| {
        let hash = (seed ^ cell as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
        hash % 100 < u64::from(keep)
    };
    let points = (0..extent.pow(d as u32))
        .filter(|&cell| kept(cell))
        .map(|cell| {
            (0..d)
                .map(|j| (cell / extent.pow(j as u32) % extent) as f64)
                .collect()
        })
        .collect();
    let queries = (0..4)
        .map(|i| {
            let half_cell = |j| (seed as usize >> (3 * (i + j))) % (2 * extent);
            (0..d).map(|j| half_cell(j) as f64 / 2.0).collect()
        })
        .collect();
    (points, queries)
}

/// Fact 2.1 for beam search on a banded `G_net` over `data`: a banded
/// search descends before it widens and enters the beam at the descent's
/// answer — the width-1 search's top-1 — which is a local minimum, so at
/// every width its top-1 is no farther than that answer, and within
/// `(1+ε)` of the nearest point, ties and all. At `ef >= n` the search is
/// brute force.
fn banded_beam_top_is_a_fact_2_1_answer<P: Sync, M: Metric<P> + Sync>(
    data: Dataset<P, M>,
    queries: &[P],
    eps: f64,
    tag: &str,
) -> Result<(), TestCaseError> {
    let n = data.len();
    let graph = GNet::build_fast(&data, eps).graph;
    prop_assert!(graph.is_banded());
    for (i, q) in queries.iter().enumerate() {
        let (_, nearest) = data.nearest_brute(q);
        let bound = (1.0 + eps) * nearest + 1e-12 * (1.0 + nearest);
        let brute: Vec<(u32, f64)> = data
            .k_nearest_brute(q, n)
            .into_iter()
            .map(|(v, d)| (v as u32, d))
            .collect();
        for entry in [0, ((i * 7919 + n / 2) % n) as u32] {
            let answer = beam_search_detailed(&graph, &data, entry, q, 1, 1).results[0].1;
            for ef in [1, 2, 4, 16] {
                let top = beam_search_detailed(&graph, &data, entry, q, ef, 1).results[0].1;
                prop_assert!(
                    top <= answer,
                    "{tag}: ef = {ef}, entry {entry}: top-1 at {top}, the descent's answer at {answer}"
                );
                prop_assert!(
                    top <= bound,
                    "{tag}: ef = {ef}, entry {entry}: top-1 at {top}, (1+ε) NN at {bound}"
                );
            }
            let all = beam_search_detailed(&graph, &data, entry, q, n, n);
            prop_assert_eq!(&all.results, &brute, "{}: ef = n, entry {}", tag, entry);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn banded_gnet_beam_tops_are_fact_2_1_answers_at_every_width(
        n in 12usize..120,
        d_sel in 0usize..3,
        side in 3usize..9,
        keep in 40u32..100,
        eps_sel in 0usize..2,
        tree_sel in 0usize..4,
        seed in 0u64..1_000_000,
    ) {
        let d = [1, 2, 3][d_sel];
        let eps = [0.5, 1.0][eps_sel];
        let queries = workloads::uniform_queries(4, d, -10.0, 60.0, seed ^ 0xFAC7);
        let (lattice, lattice_queries) = knocked_out_lattice(side, d_sel, keep, seed);
        let inputs = [
            ("uniform", workloads::uniform_cube(n, d, 50.0, seed), &queries),
            ("clustered", workloads::gaussian_clusters(n, d, 4, 2.0, 50.0, seed), &queries),
            ("lattice", lattice, &lattice_queries),
        ];
        for (shape, points, queries) in inputs {
            if points.len() < 4 {
                continue;
            }
            let tag = |m: &str| format!("{shape}, {m}, eps = {eps}");
            let (l2, l1) = (points.clone(), points.clone());
            banded_beam_top_is_a_fact_2_1_answer(Dataset::new(l2, Euclidean), queries, eps, &tag("L2"))?;
            banded_beam_top_is_a_fact_2_1_answer(Dataset::new(l1, Manhattan), queries, eps, &tag("L1"))?;
            banded_beam_top_is_a_fact_2_1_answer(Dataset::new(points, Chebyshev), queries, eps, &tag("Linf"))?;
        }
        // Angular distance on the sphere: no `L_p` kernel, no coordinates
        // the bands could lean on.
        let sphere_d = d.max(2);
        let sphere = Dataset::new(workloads::unit_sphere(n, sphere_d, seed), Angular);
        let sphere_queries = workloads::unit_sphere(4, sphere_d, seed ^ 0xFAC7);
        let tag = format!("sphere, angular, eps = {eps}");
        banded_beam_top_is_a_fact_2_1_answer(sphere, &sphere_queries, eps, &tag)?;
        // Theorem 1.2's tree metric: every distance a power of two, so
        // every scan meets ties. Queried at the `P2` leaves and at seeded
        // leaves anywhere in the tree.
        let (tree_n, delta) = [(4, 8), (8, 32), (8, 128), (16, 256)][tree_sel];
        let tree = TreeInstance::new(tree_n, delta);
        let mut leaves = tree.p2.clone();
        leaves.extend((0..4u64).map(|j| {
            let hash = (seed ^ j).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            Leaf(hash >> (64 - tree.h))
        }));
        let tag = format!("tree n = {tree_n}, Δ = {delta}, eps = {eps}");
        banded_beam_top_is_a_fact_2_1_answer(tree.dataset(), &leaves, eps, &tag)?;
    }
}

// ---------------------------------------------------------------------------
// Appendix E facts (the geometry behind Lemma 5.1), verified numerically.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Fact E.1: tan x <= 2x for 0 <= x <= 1/2.
    #[test]
    fn fact_e1_tan_bound(x in 0.0f64..0.5) {
        prop_assert!(x.tan() <= 2.0 * x + 1e-12);
    }

    /// Fact E.2: for an isosceles triangle with apex angle 0 < γ < π/2 and
    /// equal sides l, the base is < l · tan γ.
    #[test]
    fn fact_e2_isosceles_base_bound(gamma in 1e-6f64..1.5, l in 0.1f64..100.0) {
        prop_assume!(gamma < std::f64::consts::FRAC_PI_2);
        let base = 2.0 * l * (gamma / 2.0).sin();
        prop_assert!(base < l * gamma.tan() + 1e-9,
            "base {base} vs l tan γ = {}", l * gamma.tan());
    }

    /// Fact E.3: for 0 <= γ <= ε/32 and 0 < ε <= 1,
    /// (2 + ε)(2 tan γ + 1 − cos γ) < ε.
    #[test]
    fn fact_e3_lemma51_constant(eps in 0.001f64..1.0, frac in 0.0f64..1.0) {
        let gamma = frac * eps / 32.0;
        let lhs = (2.0 + eps) * (2.0 * gamma.tan() + 1.0 - gamma.cos());
        prop_assert!(lhs < eps, "lhs {lhs} >= eps {eps} at γ = {gamma}");
    }

    /// The derived inequality inside Fact 2.2's proof:
    /// with η = ceil(log2(1 + 2/ε)), 2^η − 1 >= 2/ε.
    #[test]
    fn fact22_eta_inequality(eps in 0.001f64..1.0) {
        let eta = (1.0f64 + 2.0 / eps).log2().ceil() as i32;
        prop_assert!((2.0f64).powi(eta) - 1.0 >= 2.0 / eps - 1e-9);
    }

    /// Lemma E.1 (shape): points on the two sphere surfaces B(q, r) and
    /// B(q, (1+ε)r) that are equidistant from p subtend an angle > ε/8 at p.
    /// Verified in the plane with random configurations.
    #[test]
    fn lemma_e1_angle_separation(
        eps in 0.05f64..1.0,
        r in 0.5f64..10.0,
        // p outside B(q, (1+ε)r): its distance is (1+ε)r (greedy setting).
        ax in 0.0f64..std::f64::consts::PI,
    ) {
        // q at origin; p at distance (1+eps)*r along +x; x on the inner
        // sphere at angle ax. Find a y on the outer sphere with
        // |p - y| = |p - x| (if one exists) and check the angle at p.
        let q = [0.0, 0.0];
        let p = [(1.0 + eps) * r, 0.0];
        let x = [r * ax.cos(), r * ax.sin()];
        let dpx = ((p[0] - x[0]).powi(2) + (p[1] - x[1]).powi(2)).sqrt();
        // y on outer sphere: |y| = (1+eps) r, |p - y| = dpx. Law of cosines
        // gives the angle of y as seen from q.
        let ro = (1.0 + eps) * r;
        let dp = (p[0].powi(2) + p[1].powi(2)).sqrt();
        let cos_at_q = (dp * dp + ro * ro - dpx * dpx) / (2.0 * dp * ro);
        prop_assume!(cos_at_q.abs() <= 1.0);
        let ay = cos_at_q.acos();
        let y = [ro * ay.cos(), ro * ay.sin()];
        let _ = q;
        // Angle between rays p->x and p->y.
        let ux = [x[0] - p[0], x[1] - p[1]];
        let uy = [y[0] - p[0], y[1] - p[1]];
        let nx = (ux[0] * ux[0] + ux[1] * ux[1]).sqrt();
        let ny = (uy[0] * uy[0] + uy[1] * uy[1]).sqrt();
        prop_assume!(nx > 1e-9 && ny > 1e-9);
        let cosang = ((ux[0] * uy[0] + ux[1] * uy[1]) / (nx * ny)).clamp(-1.0, 1.0);
        let angle = cosang.acos();
        // x and y genuinely on different spheres with equal distance to p.
        prop_assume!((x[0] - y[0]).abs() + (x[1] - y[1]).abs() > 1e-9);
        prop_assert!(angle > eps / 8.0 - 1e-9,
            "angle {angle} <= eps/8 = {}", eps / 8.0);
    }
}

#[test]
fn navigability_checker_is_consistent_with_greedy_on_random_instances() {
    // Deterministic sweep (not proptest: heavier); if check_navigable says
    // OK then exhaustive greedy must agree, and vice versa, across a grid of
    // configurations including broken graphs.
    use proximity_graphs::core::{check_pg_exhaustive, Starts};
    for seed in 0..5u64 {
        let pts = workloads::uniform_cube(40, 2, 30.0, seed);
        let queries = workloads::uniform_queries(8, 2, -5.0, 35.0, seed + 50);
        let data = Dataset::new(pts, Euclidean);
        let g = GNet::build(&data, 1.0);
        // Progressively break the graph.
        let mut graph = g.graph.clone();
        for round in 0..6 {
            let nav = check_navigable(&graph, &data, &queries, 1.0).is_ok();
            let exh = check_pg_exhaustive(&graph, &data, &queries, 1.0, Starts::All).is_ok();
            assert_eq!(nav, exh, "seed {seed}, round {round}: checkers disagree");
            // Remove the out-edges of one more vertex.
            let v = (round * 7) as u32 % 40;
            for &t in graph.neighbors(v).to_vec().iter() {
                graph = graph.without_edge(v, t);
            }
        }
    }
}
