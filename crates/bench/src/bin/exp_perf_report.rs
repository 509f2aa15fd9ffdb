//! **Perf report** — the PR-over-PR performance trajectory, machine-readable.
//!
//! Runs a fixed-seed micro-suite and writes `BENCH_<label>.json`:
//!
//! 1. **Kernels** — ns per distance evaluation for `d ∈ {8, 32, 128}`:
//!    the flat-layout unrolled kernels ([`pg_metric::lp`]) against the
//!    seed's nested-`Vec` scalar loops (`*_scalar` on `Vec<Vec<f64>>` rows),
//!    plus a flat-scalar column so layout and unrolling gains are
//!    attributable separately.
//! 2. **Queries** — greedy and beam queries/sec on an `n = 8000` uniform
//!    workload, flat vs nested storage routing the *same* graph; the bin
//!    asserts both layouts return identical results and distance counts
//!    before timing them.
//!
//! JSON schema (`schema_version` 1, see README § Performance):
//!
//! ```json
//! {
//!   "schema_version": 1, "label": "pr3", "smoke": false, "threads": 1,
//!   "kernels": [
//!     {"kernel": "l2_squared", "d": 32, "flat_unrolled_ns": 0.0,
//!      "flat_scalar_ns": 0.0, "nested_scalar_ns": 0.0, "speedup": 0.0}
//!   ],
//!   "queries": {
//!     "n": 8000, "d": 2, "m": 1024, "ef": 16, "k": 1,
//!     "greedy": {"flat_qps": 0.0, "nested_qps": 0.0, "speedup": 0.0,
//!                "dist_comps": 0},
//!     "beam": {"flat_qps": 0.0, "nested_qps": 0.0, "speedup": 0.0,
//!              "dist_comps": 0}
//!   }
//! }
//! ```
//!
//! `speedup` is always `nested / flat` (higher is better for flat). Later
//! PRs append new `kernels` entries or sibling objects under `queries`
//! rather than renaming fields, so trajectory tooling can diff labels.
//!
//! Run: `cargo run --release -p pg_bench --bin exp_perf_report
//! [--smoke] [--label NAME] [--threads N]`

#![forbid(unsafe_code)]

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

use pg_bench::{fmt, init_threads, spread_start, value_flag, Table};
use pg_core::{GNet, QueryEngine};
use pg_metric::lp::{l1, l1_scalar, l2_scalar, l2_squared, l2_squared_scalar, linf, linf_scalar};
use pg_metric::{Dataset, Euclidean};
use pg_workloads as workloads;

/// Times `evals` kernel evaluations, best of three passes, in ns/eval.
fn time_ns_per_eval(evals: u64, mut pass: impl FnMut() -> f64) -> f64 {
    let mut sink = 0.0;
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t0 = Instant::now();
        sink += pass();
        best = best.min(t0.elapsed().as_nanos() as f64 / evals as f64);
    }
    black_box(sink);
    best
}

/// One timing pass over flat storage: `reps` strided sweeps of all `n`
/// points against pseudo-random partners. Generic over the kernel so each
/// instantiation monomorphizes and the kernel inlines — a `dyn` call here
/// would swamp the kernels this bin exists to measure. `n` must be a power
/// of two.
fn sweep_flat<K: Fn(&[f64], &[f64]) -> f64>(fp: &pg_metric::FlatPoints, reps: usize, k: K) -> f64 {
    let n = fp.len();
    let mask = n - 1;
    let mut acc = 0.0;
    for r in 0..reps {
        for i in 0..n {
            let j = i.wrapping_mul(2654435761).wrapping_add(r * 97) & mask;
            acc += k(fp.row(i), fp.row(j));
        }
    }
    acc
}

/// [`sweep_flat`] over the seed's nested layout (same pair schedule).
fn sweep_nested<K: Fn(&[f64], &[f64]) -> f64>(rows: &[Vec<f64>], reps: usize, k: K) -> f64 {
    let n = rows.len();
    let mask = n - 1;
    let mut acc = 0.0;
    for r in 0..reps {
        for i in 0..n {
            let j = i.wrapping_mul(2654435761).wrapping_add(r * 97) & mask;
            acc += k(&rows[i], &rows[j]);
        }
    }
    acc
}

struct KernelRow {
    kernel: &'static str,
    d: usize,
    flat_unrolled_ns: f64,
    flat_scalar_ns: f64,
    nested_scalar_ns: f64,
}

fn main() {
    let threads = init_threads();
    let smoke = std::env::args().any(|a| a == "--smoke");
    let label_flag = value_flag("--label");
    let label_is_default = label_flag.is_none();
    let label = label_flag.unwrap_or_else(|| if smoke { "smoke".into() } else { "pr3".into() });
    println!("# perf report: flat+unrolled kernels and query throughput (label: {label})\n");

    // ---- 1. Kernel micro-suite ---------------------------------------------
    let n_pts = 512usize;
    let mut kernel_rows: Vec<KernelRow> = Vec::new();
    let mut t = Table::new(&[
        "kernel",
        "d",
        "flat+unrolled ns",
        "flat scalar ns",
        "nested scalar ns",
        "speedup",
    ]);
    for d in [8usize, 32, 128] {
        let flat = workloads::uniform_cube_flat(n_pts, d, 10.0, 1234 + d as u64);
        let nested = flat.to_nested();
        // Keep total coordinate work roughly constant across dimensions.
        let reps = (if smoke { 2_000_000 } else { 60_000_000 } / (n_pts * d)).max(4);
        let evals = (reps * n_pts) as u64;

        // One macro arm per kernel pair: each expansion monomorphizes the
        // sweep with the concrete kernel inlined.
        macro_rules! bench_pair {
            ($name:literal, $unrolled:path, $scalar:path) => {{
                let flat_unrolled_ns =
                    time_ns_per_eval(evals, || sweep_flat(&flat, reps, $unrolled));
                let flat_scalar_ns = time_ns_per_eval(evals, || sweep_flat(&flat, reps, $scalar));
                let nested_scalar_ns =
                    time_ns_per_eval(evals, || sweep_nested(&nested, reps, $scalar));
                t.row(vec![
                    $name.into(),
                    d.to_string(),
                    fmt(flat_unrolled_ns, 2),
                    fmt(flat_scalar_ns, 2),
                    fmt(nested_scalar_ns, 2),
                    format!("{:.2}x", nested_scalar_ns / flat_unrolled_ns),
                ]);
                kernel_rows.push(KernelRow {
                    kernel: $name,
                    d,
                    flat_unrolled_ns,
                    flat_scalar_ns,
                    nested_scalar_ns,
                });
            }};
        }
        bench_pair!("l2_squared", l2_squared, l2_squared_scalar);
        bench_pair!("l1", l1, l1_scalar);
        bench_pair!("linf", linf, linf_scalar);

        // The seed's full Euclidean kernel also paid an eager sqrt; report
        // the headline end-to-end comparison (surrogate vs seed l2).
        let flat_sq_ns = time_ns_per_eval(evals, || sweep_flat(&flat, reps, l2_squared));
        let nested_l2_ns = time_ns_per_eval(evals, || sweep_nested(&nested, reps, l2_scalar));
        t.row(vec![
            "l2 (seed: +sqrt)".into(),
            d.to_string(),
            fmt(flat_sq_ns, 2),
            "-".into(),
            fmt(nested_l2_ns, 2),
            format!("{:.2}x", nested_l2_ns / flat_sq_ns),
        ]);
        kernel_rows.push(KernelRow {
            kernel: "l2_vs_seed_sqrt",
            d,
            flat_unrolled_ns: flat_sq_ns,
            flat_scalar_ns: f64::NAN,
            nested_scalar_ns: nested_l2_ns,
        });
    }
    t.print();
    println!("\n(speedup = nested scalar / flat+unrolled; the l2 surrogate row includes");
    println!("the sqrt the comparison path no longer pays per candidate)\n");

    // ---- 2. Query throughput, flat vs nested -------------------------------
    let n = if smoke { 400 } else { 8000 };
    let m = if smoke { 64 } else { 1024 };
    let (ef, k) = (16usize, 1usize);
    let side = (n as f64).sqrt() * 4.0;
    let flat = workloads::uniform_cube_flat(n, 2, side, 77);
    let nested_pts = flat.to_nested();
    let q_flat = workloads::uniform_queries_flat(m, 2, 0.0, side, 78).into_rows();
    let q_nested = workloads::uniform_queries(m, 2, 0.0, side, 78);
    let starts: Vec<u32> = (0..m).map(|i| spread_start(i, n)).collect();

    let flat_data = flat.into_dataset(Euclidean);
    let nested_data = Dataset::new(nested_pts, Euclidean);
    let g = GNet::build_fast(&flat_data, 1.0);
    let g_nested = GNet::build_fast(&nested_data, 1.0);
    assert_eq!(
        g.graph, g_nested.graph,
        "layout must not change the built graph"
    );
    let flat_engine = QueryEngine::new(g.graph.clone(), flat_data).with_threads(threads);
    let nested_engine = QueryEngine::new(g.graph, nested_data).with_threads(threads);

    // Correctness gate before timing: identical answers and identical
    // distance accounting across layouts.
    let bf = flat_engine.batch_greedy(&starts, &q_flat);
    let bn = nested_engine.batch_greedy(&starts, &q_nested);
    assert_eq!(
        bf.dist_comps, bn.dist_comps,
        "layouts diverged in dist accounting"
    );
    for (a, b) in bf.outcomes.iter().zip(bn.outcomes.iter()) {
        assert_eq!(a.result, b.result, "layouts diverged in greedy results");
        assert_eq!(a.result_dist, b.result_dist);
    }
    let greedy_comps = bf.dist_comps;
    let ef_flat = flat_engine.batch_beam_detailed(&starts, &q_flat, ef, k);
    let ef_nested = nested_engine.batch_beam_detailed(&starts, &q_nested, ef, k);
    assert_eq!(
        ef_flat.outcomes, ef_nested.outcomes,
        "layouts diverged in beam results"
    );
    let beam_comps = ef_flat.dist_comps;

    let time_qps = |f: &mut dyn FnMut() -> u64| {
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let t0 = Instant::now();
            black_box(f());
            best = best.min(t0.elapsed().as_secs_f64());
        }
        m as f64 / best
    };
    let greedy_flat_qps = time_qps(&mut || flat_engine.batch_greedy(&starts, &q_flat).dist_comps);
    let greedy_nested_qps =
        time_qps(&mut || nested_engine.batch_greedy(&starts, &q_nested).dist_comps);
    let beam_flat_qps = time_qps(&mut || {
        flat_engine
            .batch_beam_detailed(&starts, &q_flat, ef, k)
            .dist_comps
    });
    let beam_nested_qps = time_qps(&mut || {
        nested_engine
            .batch_beam_detailed(&starts, &q_nested, ef, k)
            .dist_comps
    });

    let mut t = Table::new(&["routine", "flat q/s", "nested q/s", "speedup", "dists"]);
    t.row(vec![
        "greedy".into(),
        fmt(greedy_flat_qps, 0),
        fmt(greedy_nested_qps, 0),
        format!("{:.2}x", greedy_flat_qps / greedy_nested_qps),
        greedy_comps.to_string(),
    ]);
    t.row(vec![
        format!("beam ef={ef}"),
        fmt(beam_flat_qps, 0),
        fmt(beam_nested_qps, 0),
        format!("{:.2}x", beam_flat_qps / beam_nested_qps),
        beam_comps.to_string(),
    ]);
    t.print();
    println!("\n{m} queries on n = {n}, {threads} thread(s); identical results and distance");
    println!("totals across layouts asserted before timing.");

    // ---- 3. JSON trajectory artifact ---------------------------------------
    let mut j = String::new();
    let _ = writeln!(j, "{{");
    let _ = writeln!(j, "  \"schema_version\": 1,");
    let _ = writeln!(j, "  \"label\": \"{label}\",");
    let _ = writeln!(j, "  \"smoke\": {smoke},");
    let _ = writeln!(j, "  \"threads\": {threads},");
    let _ = writeln!(j, "  \"kernels\": [");
    for (i, r) in kernel_rows.iter().enumerate() {
        let comma = if i + 1 < kernel_rows.len() { "," } else { "" };
        let flat_scalar = if r.flat_scalar_ns.is_nan() {
            "null".to_string()
        } else {
            format!("{:.3}", r.flat_scalar_ns)
        };
        let _ = writeln!(
            j,
            "    {{\"kernel\": \"{}\", \"d\": {}, \"flat_unrolled_ns\": {:.3}, \"flat_scalar_ns\": {}, \"nested_scalar_ns\": {:.3}, \"speedup\": {:.3}}}{}",
            r.kernel,
            r.d,
            r.flat_unrolled_ns,
            flat_scalar,
            r.nested_scalar_ns,
            r.nested_scalar_ns / r.flat_unrolled_ns,
            comma
        );
    }
    let _ = writeln!(j, "  ],");
    let _ = writeln!(j, "  \"queries\": {{");
    let _ = writeln!(
        j,
        "    \"n\": {n}, \"d\": 2, \"m\": {m}, \"ef\": {ef}, \"k\": {k},"
    );
    let _ = writeln!(
        j,
        "    \"greedy\": {{\"flat_qps\": {:.1}, \"nested_qps\": {:.1}, \"speedup\": {:.3}, \"dist_comps\": {}}},",
        greedy_flat_qps,
        greedy_nested_qps,
        greedy_flat_qps / greedy_nested_qps,
        greedy_comps
    );
    let _ = writeln!(
        j,
        "    \"beam\": {{\"flat_qps\": {:.1}, \"nested_qps\": {:.1}, \"speedup\": {:.3}, \"dist_comps\": {}}}",
        beam_flat_qps,
        beam_nested_qps,
        beam_flat_qps / beam_nested_qps,
        beam_comps
    );
    let _ = writeln!(j, "  }}");
    let _ = writeln!(j, "}}");

    match pg_bench::write_bench_artifact(&label, label_is_default, &j) {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    }
}
