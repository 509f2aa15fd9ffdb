//! Property battery for compact point storage (PR 10): the SQ8 round-trip
//! bound, surrogate-vs-exact ordering agreement beyond twice the
//! quantization error, the re-rank contract (re-ranked top-`k` equals the
//! exact `f64` top-`k` whenever the candidate set contains it), thread-count
//! invariance of the quantized batch path, and the degenerate inputs every
//! affine coder must survive: constant dimensions, a single point, `d = 1`,
//! and signed-zero / subnormal coordinates — including their snapshot paths.

use proptest::prelude::*;
use proximity_graphs::core::{
    beam_search_detailed, beam_search_quantized, beam_search_quantized_surrogate, GNet, Graph,
    QueryEngine,
};
use proximity_graphs::metric::{
    CompactPoints, Dataset, Euclidean, FlatRow, QuantKind, Quantized, Sq8Points,
};
use proximity_graphs::workloads;

fn thread_counts() -> [usize; 3] {
    let machine = std::thread::available_parallelism().map_or(1, |c| c.get());
    [1, 2, machine]
}

fn temp_path(tag: &str, seed: u64) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("pg_quant_{tag}_{}_{seed}.pgix", std::process::id()))
}

/// Exact Euclidean distance from stored point `i` to query `q`.
fn exact_dist(data: &Dataset<FlatRow, Euclidean>, i: usize, q: &FlatRow) -> f64 {
    data.surrogate_to(i, q).sqrt()
}

/// L2 distance between point `i`'s original coordinates and its decode —
/// the per-point quantization error, valid for either representation.
fn decode_error<C: Quantized>(data: &Dataset<FlatRow, Euclidean>, compact: &C, i: usize) -> f64 {
    let mut decoded = Vec::new();
    compact.decode_row(i, &mut decoded);
    data.point(i)
        .coords()
        .iter()
        .zip(&decoded)
        .map(|(a, b)| (a - b) * (a - b))
        .sum::<f64>()
        .sqrt()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// SQ8 decoding is within half a step per dimension — so within
    /// `||step||/2` in L2 — and a constant dimension (step 0) is exact.
    #[test]
    fn sq8_roundtrip_error_is_bounded_by_half_a_step(
        n in 2usize..80,
        d in 1usize..6,
        side in 0.01f64..5000.0,
        seed in 0u64..1_000_000,
    ) {
        let flat = workloads::uniform_cube_flat(n, d, side, seed);
        let rows: Vec<Vec<f64>> =
            (0..n).map(|i| flat.row(i).to_vec()).collect();
        let sq8 = Sq8Points::from_rows(&rows).unwrap();
        let mut decoded = Vec::new();
        for (i, row) in rows.iter().enumerate() {
            sq8.decode_row(i, &mut decoded);
            for j in 0..d {
                let bound = sq8.steps()[j] / 2.0;
                let err = (row[j] - decoded[j]).abs();
                prop_assert!(
                    err <= bound * (1.0 + 1e-12) + 1e-12,
                    "point {i} dim {j}: decode error {err} exceeds step/2 = {bound}"
                );
            }
        }
    }

    /// When two points' exact distances to a query differ by more than
    /// twice the quantization error (plus the query-cast and accumulation
    /// slack of the `f32` kernel), the quantized surrogate must order them
    /// the same way the exact metric does.
    #[test]
    fn surrogate_ordering_agrees_with_exact_beyond_twice_the_quant_error(
        n in 5usize..60,
        d in 1usize..6,
        side in 0.5f64..2000.0,
        seed in 0u64..1_000_000,
    ) {
        let data = workloads::uniform_cube_flat(n, d, side, seed).into_dataset(Euclidean);
        let q = workloads::uniform_queries_flat(1, d, -side, 2.0 * side, seed ^ 0xC0FE)
            .into_rows()
            .remove(0);
        for kind in [QuantKind::F32, QuantKind::Sq8] {
            let rows: Vec<&[f64]> = (0..n).map(|i| data.point(i).coords()).collect();
            let compact = CompactPoints::from_rows(kind, &rows).unwrap();
            let pq = compact.prepare(q.coords());
            // Query-cast error (f32 only) and relative accumulation slack.
            let e_q = match kind {
                QuantKind::F32 => q
                    .coords()
                    .iter()
                    .map(|&x| {
                        let r = x - x as f32 as f64;
                        r * r
                    })
                    .sum::<f64>()
                    .sqrt(),
                QuantKind::Sq8 => 0.0,
            };
            let rel = match kind {
                QuantKind::F32 => 16.0 * d as f64 * f64::from(f32::EPSILON),
                QuantKind::Sq8 => 0.0,
            };
            let err: Vec<f64> = (0..n).map(|i| decode_error(&data, &compact, i)).collect();
            let dist: Vec<f64> = (0..n).map(|i| exact_dist(&data, i, &q)).collect();
            let surr: Vec<f64> = (0..n).map(|i| compact.surrogate(i, &pq)).collect();
            for a in 0..n {
                for b in (a + 1)..n {
                    let gap = (dist[a] - dist[b]).abs();
                    let threshold = 2.0 * (err[a] + err[b] + e_q)
                        + rel * (dist[a] + dist[b])
                        + 1e-9;
                    if gap > threshold {
                        prop_assert_eq!(
                            surr[a] < surr[b],
                            dist[a] < dist[b],
                            "{} surrogate inverted a pair with gap {} > threshold {}: \
                             exact ({}, {}), surrogate ({}, {})",
                            kind.name(), gap, threshold, dist[a], dist[b], surr[a], surr[b]
                        );
                    }
                }
            }
        }
    }

    /// The re-rank contract: whenever the gathered candidate set contains
    /// the exact `f64` top-`k`, the re-ranked top-`k` **equals** it — ids
    /// and (exact) surrogate values alike. Reported surrogates are always
    /// exact, contained or not.
    #[test]
    fn reranked_topk_equals_exact_topk_when_candidates_contain_it(
        n in 8usize..90,
        d in 1usize..5,
        side in 1.0f64..500.0,
        seed in 0u64..1_000_000,
        ef_sel in 1usize..1000,
        k in 1usize..8,
    ) {
        let data = workloads::uniform_cube_flat(n, d, side, seed).into_dataset(Euclidean);
        let g = GNet::build_fast(&data, 1.0);
        let q = workloads::uniform_queries_flat(1, d, -5.0, side + 5.0, seed ^ 0xBEEF)
            .into_rows()
            .remove(0);
        let ef = 1 + ef_sel % n;
        let mut exact: Vec<(u32, f64)> =
            (0..n).map(|i| (i as u32, data.surrogate_to(i, &q))).collect();
        exact.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        let topk = &exact[..k.min(n)];
        for kind in [QuantKind::F32, QuantKind::Sq8] {
            let rows: Vec<&[f64]> = (0..n).map(|i| data.point(i).coords()).collect();
            let compact = CompactPoints::from_rows(kind, &rows).unwrap();
            // k = ef exposes the full re-ranked candidate list.
            let out = beam_search_quantized_surrogate(&g.graph, &data, &compact, 0, &q, ef, ef);
            for &(id, s) in &out.results {
                prop_assert_eq!(
                    s,
                    data.surrogate_to(id as usize, &q),
                    "{} reported a non-exact surrogate for id {}", kind.name(), id
                );
            }
            let have: std::collections::HashSet<u32> =
                out.results.iter().map(|&(id, _)| id).collect();
            if topk.iter().all(|&(id, _)| have.contains(&id)) {
                prop_assert_eq!(
                    &out.results[..topk.len()],
                    topk,
                    "{} re-ranked top-k diverged though all of it was gathered",
                    kind.name()
                );
            }
        }
    }

    /// `batch_beam_quantized_detailed` is bit-identical across thread
    /// counts 1 / 2 / machine, for both compact representations.
    #[test]
    fn quantized_batches_are_thread_invariant(
        n in 8usize..80,
        d in 1usize..4,
        m in 1usize..8,
        seed in 0u64..1_000_000,
        ef in 1usize..12,
        k in 1usize..6,
    ) {
        let side = 60.0;
        let data = workloads::uniform_cube_flat(n, d, side, seed).into_dataset(Euclidean);
        let g = GNet::build_fast(&data, 1.0);
        let engine = QueryEngine::new(g.graph, data);
        let queries = workloads::uniform_queries_flat(m, d, -5.0, side + 5.0, seed ^ 0xF00D)
            .into_rows();
        let starts: Vec<u32> = (0..m).map(|i| ((i * 41 + 7) % n) as u32).collect();
        for kind in [QuantKind::F32, QuantKind::Sq8] {
            let compact = engine.quantize(kind).unwrap();
            let base = engine
                .clone()
                .with_threads(1)
                .batch_beam_quantized_detailed(&compact, &starts, &queries, ef, k);
            for threads in thread_counts() {
                let got = engine
                    .clone()
                    .with_threads(threads)
                    .batch_beam_quantized_detailed(&compact, &starts, &queries, ef, k);
                prop_assert_eq!(
                    got.dist_comps, base.dist_comps,
                    "{} batch total diverged at {} threads", kind.name(), threads
                );
                prop_assert_eq!(
                    &got.outcomes, &base.outcomes,
                    "{} outcomes diverged at {} threads", kind.name(), threads
                );
            }
        }
    }

    /// At full beam width on a navigable graph the candidate set is the
    /// whole vertex set, so the quantized search must be bit-identical to
    /// the exact `f64` beam — results, ids, and reported distances.
    #[test]
    fn full_width_quantized_search_equals_the_exact_beam(
        n in 8usize..70,
        d in 1usize..5,
        seed in 0u64..1_000_000,
        k in 1usize..6,
    ) {
        let side = 80.0;
        let data = workloads::uniform_cube_flat(n, d, side, seed).into_dataset(Euclidean);
        let g = GNet::build_fast(&data, 1.0);
        let q = workloads::uniform_queries_flat(1, d, -5.0, side + 5.0, seed ^ 0xACE)
            .into_rows()
            .remove(0);
        let exact = beam_search_detailed(&g.graph, &data, 0, &q, n, k);
        for kind in [QuantKind::F32, QuantKind::Sq8] {
            let rows: Vec<&[f64]> = (0..n).map(|i| data.point(i).coords()).collect();
            let compact = CompactPoints::from_rows(kind, &rows).unwrap();
            let quant = beam_search_quantized(&g.graph, &data, &compact, 0, &q, n, k);
            prop_assert_eq!(
                &quant.results, &exact.results,
                "{} full-width results diverged from the exact beam", kind.name()
            );
        }
    }

    /// The quantized path is the exact path plus a scorer. Small integer
    /// coordinates (and half-integer queries) are exact in `f32`, and so
    /// are their squared distances, so the `F32Points` surrogate equals the
    /// `f64` one bit for bit: at **every** `ef` the quantized search must
    /// take the very same walk — results, order, `expansions` — and cost
    /// exactly one more distance computation per re-ranked candidate. On
    /// `G_net`'s edges with the bands stripped, that is: the quantized walk
    /// scans whole rows on any graph, the exact one only on an un-banded one
    /// (the banded-vs-stripped property lives in `proptest_invariants`).
    #[test]
    fn lossless_f32_search_is_the_exact_search_plus_the_rerank_cost(
        cells in prop::collection::vec((0i32..24, 0i32..24), 8..70),
        query in (0i32..48, 0i32..48),
    ) {
        let mut cells = cells;
        cells.sort_unstable();
        cells.dedup();
        prop_assume!(cells.len() >= 8);
        let n = cells.len();
        let rows: Vec<Vec<f64>> =
            cells.iter().map(|&(x, y)| vec![f64::from(x), f64::from(y)]).collect();
        let data = Dataset::new(rows.clone(), Euclidean);
        let graph = GNet::build_fast(&data, 1.0).graph.without_bands();
        let compact = CompactPoints::from_rows(QuantKind::F32, &rows).unwrap();
        let q = vec![f64::from(query.0) / 2.0, f64::from(query.1) / 2.0];
        for ef in 1..=n {
            // k = n exposes the whole gathered candidate list.
            let exact = beam_search_detailed(&graph, &data, 0, &q, ef, n);
            let quant = beam_search_quantized(&graph, &data, &compact, 0, &q, ef, n);
            prop_assert_eq!(&quant.results, &exact.results, "results diverged at ef = {}", ef);
            prop_assert_eq!(quant.expansions, exact.expansions, "walk diverged at ef = {}", ef);
            prop_assert_eq!(
                quant.dist_comps,
                exact.dist_comps + exact.results.len() as u64,
                "re-rank cost is one exact evaluation per candidate (ef = {})", ef
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Degenerate inputs: the cases an affine coder is most likely to get wrong.
// ---------------------------------------------------------------------------

/// Builds an engine over explicit rows with a complete graph (so every
/// vertex is reachable at full width regardless of geometry).
fn tiny_engine(rows: Vec<Vec<f64>>) -> QueryEngine<Vec<f64>, Euclidean> {
    let n = rows.len();
    QueryEngine::new(Graph::complete(n), Dataset::new(rows, Euclidean))
}

/// Full-width quantized search must equal the exact beam on `engine`, for
/// both kinds, and a saved-then-loaded engine must hold the exact
/// coordinates and derive the same compact store bit for bit.
fn assert_degenerate_contract(engine: &QueryEngine<Vec<f64>, Euclidean>, q: Vec<f64>, tag: &str) {
    let n = engine.data().len();
    let starts = vec![0u32];
    let queries = vec![q];
    let exact = engine.batch_beam_detailed(&starts, &queries, n, n.min(3));
    for kind in [QuantKind::F32, QuantKind::Sq8] {
        let compact = engine.quantize(kind).unwrap();
        let quant = engine.batch_beam_quantized_detailed(&compact, &starts, &queries, n, n.min(3));
        assert_eq!(
            quant.outcomes[0].results,
            exact.outcomes[0].results,
            "{tag}/{}: full-width quantized results diverged",
            kind.name()
        );

        let path = temp_path(tag, kind as u64);
        engine.save_with(&path, 0, None).unwrap();
        let (loaded, meta) = QueryEngine::<FlatRow, Euclidean>::load(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(
            loaded.quantize(kind).unwrap(),
            compact,
            "{tag}/{}: compact store derived after the round-trip",
            kind.name()
        );
        assert_eq!(meta.n, n as u64);
        assert_eq!(loaded.graph(), engine.graph());
        for i in 0..n {
            assert_eq!(
                loaded.data().point(i).coords(),
                engine.data().point(i).as_slice(),
                "{tag}/{}: exact coords round-trip for point {i}",
                kind.name()
            );
        }
    }
}

#[test]
fn constant_dimensions_have_zero_step_and_decode_exactly() {
    // Dimension 1 is constant; dimension 2 is constant at a signed zero.
    let rows = vec![
        vec![1.0, 7.25, -0.0],
        vec![2.5, 7.25, 0.0],
        vec![-3.0, 7.25, -0.0],
        vec![10.0, 7.25, 0.0],
    ];
    let sq8 = Sq8Points::from_rows(&rows).unwrap();
    assert_eq!(sq8.steps()[1], 0.0, "constant dimension must have step 0");
    assert_eq!(sq8.steps()[2], 0.0, "±0.0 dimension must have step 0");
    let mut decoded = Vec::new();
    for (i, row) in rows.iter().enumerate() {
        sq8.decode_row(i, &mut decoded);
        assert_eq!(decoded[1], row[1], "constant dim decodes exactly for {i}");
        assert_eq!(decoded[2], 0.0, "signed-zero dim decodes to zero for {i}");
    }
    let engine = tiny_engine(rows);
    assert_degenerate_contract(&engine, vec![0.9, 7.0, 0.1], "constdim");
}

#[test]
fn a_single_point_encodes_searches_and_snapshots() {
    let engine = tiny_engine(vec![vec![3.5, -1.25]]);
    for kind in [QuantKind::F32, QuantKind::Sq8] {
        let compact = engine.quantize(kind).unwrap();
        assert_eq!(compact.len(), 1);
        // One point means every dimension is constant: SQ8 decodes exactly.
        let mut decoded = Vec::new();
        compact.decode_row(0, &mut decoded);
        if kind == QuantKind::Sq8 {
            assert_eq!(decoded, vec![3.5, -1.25]);
        }
    }
    assert_degenerate_contract(&engine, vec![0.0, 0.0], "single");
}

#[test]
fn one_dimensional_points_keep_the_full_contract() {
    let rows: Vec<Vec<f64>> = (0..12).map(|i| vec![f64::from(i) * 1.75 - 9.0]).collect();
    let engine = tiny_engine(rows);
    assert_degenerate_contract(&engine, vec![2.3], "d1");
}

#[test]
fn signed_zeros_and_subnormals_are_encoded_without_panic() {
    let tiny = f64::MIN_POSITIVE / 4.0; // subnormal
    let rows = vec![
        vec![-0.0, 1.0],
        vec![0.0, -1.0],
        vec![tiny, 0.5],
        vec![-tiny, -0.5],
        vec![5.0e-310, 0.0],
    ];
    let sq8 = Sq8Points::from_rows(&rows).unwrap();
    let mut decoded = Vec::new();
    for (i, row) in rows.iter().enumerate() {
        sq8.decode_row(i, &mut decoded);
        for j in 0..2 {
            let bound = sq8.steps()[j] / 2.0;
            assert!(
                (row[j] - decoded[j]).abs() <= bound * (1.0 + 1e-12) + 1e-12,
                "subnormal row {i} dim {j} violates the step bound"
            );
        }
    }
    let engine = tiny_engine(rows);
    assert_degenerate_contract(&engine, vec![tiny, 0.25], "subnormal");
}
