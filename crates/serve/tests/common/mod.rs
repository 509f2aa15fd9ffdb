//! Shared fixtures for the serving integration tests.
// Each integration-test binary compiles this module separately and uses a
// different subset of the helpers.
#![allow(dead_code)]

use pg_core::engine::QueryEngine;
use pg_core::GNet;
use pg_metric::{Euclidean, FlatPoints, FlatRow, Metric};

/// Builds a small deterministic 2-D index. Different seeds give different
/// point sets (hence different graphs and different answers) — which is
/// what the hot-swap test uses to tell two snapshots apart.
pub fn build_engine(n: usize, seed: u64) -> QueryEngine<FlatRow, Euclidean> {
    build_engine_in(n, seed, Euclidean)
}

/// [`build_engine`]'s points indexed under `metric`.
pub fn build_engine_in<M>(n: usize, seed: u64, metric: M) -> QueryEngine<FlatRow, M>
where
    M: Metric<FlatRow> + Metric<[f64]> + Sync,
{
    let points = FlatPoints::from_fn(n, 2, |i, out| {
        let x = ((i as u64).wrapping_mul(seed.wrapping_add(13)) % 101) as f64;
        let y = ((i as u64).wrapping_mul(7).wrapping_add(seed) % 23) as f64;
        out.extend([x, y]);
    });
    let data = points.into_dataset(metric);
    let pg = GNet::build(&data, 1.0);
    QueryEngine::new(pg.graph, data)
}

/// Deterministic query points spread over the same range as the data.
pub fn queries(m: usize, seed: u64) -> Vec<Vec<f64>> {
    (0..m)
        .map(|i| {
            let i = i as u64;
            vec![
                (i.wrapping_mul(31).wrapping_add(seed) % 101) as f64 + 0.5,
                (i.wrapping_mul(11).wrapping_add(seed * 3) % 23) as f64 + 0.25,
            ]
        })
        .collect()
}

/// The queries as `FlatRow`s, for direct engine calls.
pub fn flat_queries(qs: &[Vec<f64>]) -> Vec<FlatRow> {
    qs.iter().map(|q| FlatRow::from(q.clone())).collect()
}

/// A unique temp path per test, cleaned up by the caller.
pub fn temp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("pg_serve_test_{}_{name}.pgix", std::process::id()))
}

/// Bit-exact equality for result lists: ids and the exact f64 bits, so a
/// "close enough" float can never mask a divergence between the wire path
/// and the direct engine path.
pub fn results_bits(results: &[(u32, f64)]) -> Vec<(u32, u64)> {
    results.iter().map(|&(id, d)| (id, d.to_bits())).collect()
}
