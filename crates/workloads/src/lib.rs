//! Seeded workload generators for the experiments.
//!
//! The paper's bounds are parameterized by `n` (size), `Δ` (aspect ratio),
//! `ε` (approximation slack) and `λ` (doubling dimension), so the generators
//! here are chosen to let each experiment sweep one parameter while pinning
//! the rest:
//!
//! * [`uniform_cube`] — i.i.d. uniform points, the baseline workload;
//! * [`gaussian_clusters`] — mixture of Gaussians (recommendation-system
//!   style embeddings);
//! * [`swiss_roll_flat`] — a 2-manifold embedded in `d >= 3` ambient
//!   dimensions: low doubling dimension despite high ambient dimension;
//! * [`lattice`] — the integer grid: exactly controlled minimum distance;
//! * [`geometric_chain`] — clusters at exponentially growing offsets:
//!   `log Δ` grows linearly in the cluster count at fixed `n`, the workload
//!   that exposes the `n log Δ` term of Theorem 1.1 versus the `Δ`-free
//!   size of Theorem 1.3;
//! * query generators ([`uniform_queries`], [`perturbed_queries`]).
//!
//! All generators take an explicit seed and are deterministic.
//!
//! Where this crate sits in the workspace is mapped in `ARCHITECTURE.md`
//! at the repository root.
//!
//! # Layouts
//!
//! Every generator fills contiguous [`FlatPoints`] storage directly — the
//! `*_flat` functions are the primary API and what the experiments should
//! use ([`pg_metric::FlatPoints::into_dataset`] yields the fast
//! `Dataset<FlatRow, M>`). The legacy `Vec<Vec<f64>>` variants delegate to
//! the flat generators and copy out nested rows, so for any seed the two
//! layouts hold **bit-identical coordinates** (tested below).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

pub use pg_metric::{FlatPoints, FlatRow};

/// Nested points type of the legacy generators (one `Vec` per point). Hot
/// paths should prefer [`FlatPoints`].
pub type Points = Vec<Vec<f64>>;

/// Standard normal via Box–Muller (avoids a rand_distr dependency).
fn gaussian(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.random_range(1e-12..1.0);
    let u2: f64 = rng.random_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// `n` i.i.d. uniform points in `[0, side]^d`, flat layout.
pub fn uniform_cube_flat(n: usize, d: usize, side: f64, seed: u64) -> FlatPoints {
    let mut rng = StdRng::seed_from_u64(seed);
    FlatPoints::from_fn(n, d, |_, out| {
        out.extend((0..d).map(|_| rng.random_range(0.0..side)))
    })
}

/// [`uniform_cube_flat`] in the legacy nested layout.
pub fn uniform_cube(n: usize, d: usize, side: f64, seed: u64) -> Points {
    uniform_cube_flat(n, d, side, seed).to_nested()
}

/// `n` points from `k` Gaussian clusters with the given per-coordinate
/// standard deviation; cluster centers are uniform in `[0, side]^d`. Flat
/// layout.
pub fn gaussian_clusters_flat(
    n: usize,
    d: usize,
    k: usize,
    std: f64,
    side: f64,
    seed: u64,
) -> FlatPoints {
    assert!(k >= 1);
    let mut rng = StdRng::seed_from_u64(seed);
    let centers = FlatPoints::from_fn(k, d, |_, out| {
        out.extend((0..d).map(|_| rng.random_range(0.0..side)))
    });
    FlatPoints::from_fn(n, d, |i, out| {
        out.extend(
            centers
                .row(i % k)
                .iter()
                .map(|&x| x + std * gaussian(&mut rng)),
        )
    })
}

/// [`gaussian_clusters_flat`] in the legacy nested layout.
pub fn gaussian_clusters(n: usize, d: usize, k: usize, std: f64, side: f64, seed: u64) -> Points {
    gaussian_clusters_flat(n, d, k, std, side, seed).to_nested()
}

/// `n` points on a noisy swiss-roll 2-manifold embedded in `d >= 3`
/// dimensions (extra coordinates carry small noise): ambient dimension is
/// `d` but the doubling dimension stays ~2. Flat layout.
pub fn swiss_roll_flat(n: usize, d: usize, seed: u64) -> FlatPoints {
    assert!(d >= 3, "swiss roll needs ambient dimension >= 3");
    let mut rng = StdRng::seed_from_u64(seed);
    FlatPoints::from_fn(n, d, |_, out| {
        let t = rng.random_range(1.5..4.5 * std::f64::consts::PI);
        let h = rng.random_range(0.0..10.0);
        out.push(t * t.cos());
        out.push(t * t.sin());
        out.push(h);
        for _ in 3..d {
            out.push(0.01 * gaussian(&mut rng));
        }
    })
}

/// The integer lattice `{0, spacing, ..., (side-1) * spacing}^d`
/// (`side^d` points, exact minimum distance `spacing`). Flat layout.
pub fn lattice_flat(side: usize, d: usize, spacing: f64) -> FlatPoints {
    assert!(side >= 1 && d >= 1);
    let total = side.pow(d as u32);
    assert!(total <= 4_000_000, "lattice too large: {total} points");
    let mut out = FlatPoints::with_capacity(total, d);
    let mut idx = vec![0usize; d];
    let mut row = vec![0.0; d];
    loop {
        for (r, &i) in row.iter_mut().zip(idx.iter()) {
            *r = i as f64 * spacing;
        }
        out.push(&row);
        let mut carry = true;
        for c in idx.iter_mut() {
            if carry {
                *c += 1;
                if *c == side {
                    *c = 0;
                } else {
                    carry = false;
                }
            }
        }
        if carry {
            break;
        }
    }
    out
}

/// [`lattice_flat`] in the legacy nested layout.
pub fn lattice(side: usize, d: usize, spacing: f64) -> Points {
    lattice_flat(side, d, spacing).to_nested()
}

/// `clusters` unit-size clusters of `per_cluster` points each, cluster `j`
/// centered at `x_1 = ratio^j`. The aspect ratio is ~`ratio^clusters`, so
/// `log Δ ≈ clusters * log2(ratio)` grows while `n` stays fixed — the
/// workload for the Euclidean-separation experiments. Flat layout.
pub fn geometric_chain_flat(
    clusters: usize,
    per_cluster: usize,
    ratio: f64,
    d: usize,
    seed: u64,
) -> FlatPoints {
    assert!(ratio > 1.0 && clusters >= 1 && per_cluster >= 1 && d >= 1);
    let mut rng = StdRng::seed_from_u64(seed);
    FlatPoints::from_fn(clusters * per_cluster, d, |i, out| {
        let cx = ratio.powi((i / per_cluster) as i32);
        let first = out.len();
        out.extend((0..d).map(|_| rng.random_range(0.0..1.0)));
        out[first] += cx;
    })
}

/// [`geometric_chain_flat`] in the legacy nested layout.
pub fn geometric_chain(
    clusters: usize,
    per_cluster: usize,
    ratio: f64,
    d: usize,
    seed: u64,
) -> Points {
    geometric_chain_flat(clusters, per_cluster, ratio, d, seed).to_nested()
}

/// `n` points uniform on the unit sphere `S^{d-1}` (Gaussian direction
/// method) — the natural workload for the `pg_metric::Angular` metric. Flat
/// layout.
pub fn unit_sphere_flat(n: usize, d: usize, seed: u64) -> FlatPoints {
    assert!(d >= 2);
    let mut rng = StdRng::seed_from_u64(seed);
    FlatPoints::from_fn(n, d, |_, out| loop {
        let v: Vec<f64> = (0..d).map(|_| gaussian(&mut rng)).collect();
        let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
        if norm > 1e-9 {
            out.extend(v.iter().map(|x| x / norm));
            return;
        }
    })
}

/// [`unit_sphere_flat`] in the legacy nested layout.
pub fn unit_sphere(n: usize, d: usize, seed: u64) -> Points {
    unit_sphere_flat(n, d, seed).to_nested()
}

/// `m` uniform query points in `[lo, hi]^d`, flat layout (turn into engine
/// query batches with [`FlatPoints::into_rows`]).
pub fn uniform_queries_flat(m: usize, d: usize, lo: f64, hi: f64, seed: u64) -> FlatPoints {
    let mut rng = StdRng::seed_from_u64(seed);
    FlatPoints::from_fn(m, d, |_, out| {
        out.extend((0..d).map(|_| rng.random_range(lo..hi)))
    })
}

/// [`uniform_queries_flat`] in the legacy nested layout.
pub fn uniform_queries(m: usize, d: usize, lo: f64, hi: f64, seed: u64) -> Points {
    uniform_queries_flat(m, d, lo, hi, seed).to_nested()
}

/// `m` queries obtained by Gaussian-perturbing random data points — the
/// "near-data" query distribution typical of embedding retrieval. Flat
/// layout.
pub fn perturbed_queries_flat(data: &FlatPoints, m: usize, sigma: f64, seed: u64) -> FlatPoints {
    assert!(!data.is_empty());
    let mut rng = StdRng::seed_from_u64(seed);
    FlatPoints::from_fn(m, data.dim(), |_, out| {
        let base = data.row(rng.random_range(0..data.len()));
        out.extend(base.iter().map(|&x| x + sigma * gaussian(&mut rng)));
    })
}

/// [`perturbed_queries_flat`] over the legacy nested layout.
pub fn perturbed_queries(data: &[Vec<f64>], m: usize, sigma: f64, seed: u64) -> Points {
    assert!(!data.is_empty());
    perturbed_queries_flat(&FlatPoints::from(data), m, sigma, seed).to_nested()
}

/// Named standard datasets for the comparison experiments, flat layout:
/// `(name, points)`.
pub fn standard_suite_flat(n: usize, seed: u64) -> Vec<(&'static str, FlatPoints)> {
    vec![
        ("uniform-2d", uniform_cube_flat(n, 2, 100.0, seed)),
        (
            "clusters-2d",
            gaussian_clusters_flat(n, 2, 16, 1.0, 100.0, seed + 1),
        ),
        ("swiss-roll-3d", swiss_roll_flat(n, 3, seed + 2)),
        (
            "chain-2d",
            geometric_chain_flat(16, n / 16, 3.0, 2, seed + 3),
        ),
    ]
}

/// The evaluation workload suite: every [`standard_suite_flat`] dataset
/// paired with its matched query set — `m` near-data perturbed queries
/// (`σ = 0.5`, the embedding-retrieval query model) drawn with a seed
/// derived from `seed`, so `(name, points, queries)` triples are fully
/// reproducible from `(n, m, seed)` alone. This is what quality sweeps
/// (`pg_eval`, `pg_paper`'s frontier row) iterate.
pub fn eval_suite_flat(
    n: usize,
    m: usize,
    seed: u64,
) -> Vec<(&'static str, FlatPoints, FlatPoints)> {
    standard_suite_flat(n, seed)
        .into_iter()
        .map(|(name, points)| {
            let queries = perturbed_queries_flat(&points, m, 0.5, seed ^ 0x517C_C1B7);
            (name, points, queries)
        })
        .collect()
}

/// [`standard_suite_flat`] in the legacy nested layout.
pub fn standard_suite(n: usize, seed: u64) -> Vec<(&'static str, Points)> {
    standard_suite_flat(n, seed)
        .into_iter()
        .map(|(name, fp)| (name, fp.to_nested()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pg_metric::{Dataset, Euclidean};

    #[test]
    fn uniform_is_deterministic_and_in_bounds() {
        let a = uniform_cube(100, 3, 10.0, 7);
        let b = uniform_cube(100, 3, 10.0, 7);
        assert_eq!(a, b);
        assert!(a
            .iter()
            .all(|p| p.iter().all(|&x| (0.0..10.0).contains(&x))));
        let c = uniform_cube(100, 3, 10.0, 8);
        assert_ne!(a, c, "different seeds must differ");
    }

    #[test]
    fn flat_and_nested_layouts_hold_identical_coordinates() {
        // The nested variants delegate to the flat generators, so for any
        // seed the coordinates agree bit for bit — this pins the contract.
        assert_eq!(
            uniform_cube_flat(50, 4, 9.0, 3).to_nested(),
            uniform_cube(50, 4, 9.0, 3)
        );
        assert_eq!(
            gaussian_clusters_flat(60, 3, 5, 0.5, 20.0, 4).to_nested(),
            gaussian_clusters(60, 3, 5, 0.5, 20.0, 4)
        );
        assert_eq!(lattice_flat(3, 3, 1.5).to_nested(), lattice(3, 3, 1.5));
        assert_eq!(
            geometric_chain_flat(4, 6, 2.5, 2, 6).to_nested(),
            geometric_chain(4, 6, 2.5, 2, 6)
        );
        assert_eq!(
            unit_sphere_flat(25, 3, 8).to_nested(),
            unit_sphere(25, 3, 8)
        );
        assert_eq!(
            uniform_queries_flat(20, 2, -1.0, 1.0, 9).to_nested(),
            uniform_queries(20, 2, -1.0, 1.0, 9)
        );
        let data = uniform_cube(30, 2, 10.0, 10);
        assert_eq!(
            perturbed_queries_flat(&FlatPoints::from(&data[..]), 15, 0.2, 11).to_nested(),
            perturbed_queries(&data, 15, 0.2, 11)
        );
    }

    #[test]
    fn lattice_has_exact_min_distance() {
        let pts = lattice(5, 2, 2.0);
        assert_eq!(pts.len(), 25);
        let ds = Dataset::new(pts, Euclidean);
        let (dmin, _) = ds.min_max_interpoint();
        assert_eq!(dmin, 2.0);
    }

    #[test]
    fn geometric_chain_controls_log_aspect() {
        let small = geometric_chain(4, 10, 3.0, 2, 1);
        let big = geometric_chain(12, 10, 3.0, 2, 1);
        let ds_small = Dataset::new(small, Euclidean);
        let ds_big = Dataset::new(big, Euclidean);
        let a_small = ds_small.aspect_ratio_exact().log2();
        let a_big = ds_big.aspect_ratio_exact().log2();
        assert!(
            a_big > a_small + 10.0,
            "log aspect should grow ~linearly in clusters: {a_small} vs {a_big}"
        );
    }

    #[test]
    fn swiss_roll_has_low_doubling_dimension() {
        let pts = swiss_roll_flat(400, 6, 4).to_nested();
        assert!(pts.iter().all(|p| p.len() == 6));
        let ds = Dataset::new(pts, Euclidean);
        // Greedy covering overestimates λ by up to ~2x; a swiss roll is a
        // 2-manifold, so the estimate should stay well below that of a true
        // 6-dimensional cloud (~6+) while possibly exceeding 4 slightly.
        let est = pg_metric::doubling::greedy_cover_log2(&ds, 25, 5);
        assert!(est <= 5.0, "swiss roll doubling estimate too high: {est}");
        let cloud = uniform_cube(400, 6, 10.0, 44);
        let ds6 = Dataset::new(cloud, Euclidean);
        let est6 = pg_metric::doubling::greedy_cover_log2(&ds6, 25, 5);
        assert!(
            est < est6,
            "manifold estimate {est} should undercut full 6-d cloud {est6}"
        );
    }

    #[test]
    fn clusters_have_k_modes() {
        let pts = gaussian_clusters(200, 2, 4, 0.1, 100.0, 6);
        assert_eq!(pts.len(), 200);
        // With tiny std, points collapse near 4 centers: the 1.0-net has ~4 points.
        let ds = Dataset::new(pts, Euclidean);
        let ids: Vec<u32> = (0..200).collect();
        let net = pg_nets_greedy_net(&ds, &ids, 5.0);
        assert!(
            net.len() <= 8,
            "expected ~4 clusters, got {} net points",
            net.len()
        );
    }

    // Local copy to avoid a dev-dependency cycle with pg-nets.
    fn pg_nets_greedy_net(ds: &Dataset<Vec<f64>, Euclidean>, ids: &[u32], r: f64) -> Vec<u32> {
        let mut centers: Vec<u32> = Vec::new();
        'outer: for &p in ids {
            for &c in &centers {
                if ds.dist(p as usize, c as usize) <= r {
                    continue 'outer;
                }
            }
            centers.push(p);
        }
        centers
    }

    #[test]
    fn perturbed_queries_stay_near_data() {
        let data = uniform_cube(50, 2, 10.0, 9);
        let qs = perturbed_queries(&data, 30, 0.1, 10);
        let ds = Dataset::new(data, Euclidean);
        for q in &qs {
            let (_, d) = ds.nearest_brute(q);
            assert!(d < 2.0, "query strayed {d} from the data");
        }
    }

    #[test]
    fn eval_suite_pairs_each_dataset_with_near_data_queries() {
        let suite = eval_suite_flat(160, 24, 42);
        assert_eq!(suite.len(), 4);
        for ((name, pts, qs), (sname, spts)) in suite.iter().zip(standard_suite_flat(160, 42)) {
            assert_eq!(*name, sname);
            assert_eq!(pts, &spts, "{name}: datasets must match the standard suite");
            assert_eq!(qs.len(), 24);
            assert_eq!(qs.dim(), pts.dim());
            // Perturbed queries stay near their source points.
            let ds = Dataset::new(pts.to_nested(), Euclidean);
            for q in qs.to_nested() {
                let (_, d) = ds.nearest_brute(&q);
                assert!(d < 10.0, "{name}: query strayed {d} from the data");
            }
        }
        // Reproducible from the parameters alone.
        let again = eval_suite_flat(160, 24, 42);
        for (a, b) in suite.iter().zip(again.iter()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn standard_suite_datasets_are_distinct_and_sized() {
        let suite = standard_suite(160, 42);
        assert_eq!(suite.len(), 4);
        for (name, pts) in &suite {
            assert!(pts.len() >= 150, "{name} too small: {}", pts.len());
        }
        // The flat suite agrees entry by entry.
        for ((name, pts), (fname, fp)) in suite.iter().zip(standard_suite_flat(160, 42)) {
            assert_eq!(*name, fname);
            assert_eq!(*pts, fp.to_nested());
        }
    }
}
