//! **Experiment T1.1-build** — Theorem 1.1 construction time:
//! the cascade builder is near-linear in `n`; the naive scan and
//! slow-preprocessing DiskANN are quadratic+. Both distance-computation
//! counts (the paper's cost model) and wall-clock seconds are reported,
//! with fitted log–log slopes. The practical baseline sits beside them: an
//! HNSW build (default parameters) on the same counted dataset at every
//! `n`, a degree-capped index with no navigability guarantee — counted at
//! one thread and at two, where the insertions its helper thread planned
//! ahead and had to plan again add their distances.
//!
//! Run: `cargo run --release -p pg_bench --bin exp_t11_build
//! [--full] [--threads N] [--save-index PATH]`
//!
//! The cascade/naive candidate generation and the DiskANN-slow per-point
//! pruning shard across the thread pool: `--threads` moves the wall-clock
//! columns while the distance counts (the paper's cost model) stay exactly
//! the same.
//!
//! At every `n`, before anything is timed, the fast, naive and cover-tree
//! graphs are asserted equal on one hierarchy. A second table splits the
//! fast build's seconds by phase (hierarchy, cascade, candidate tests, CSR
//! assembly), stamped from [`GNet::build_fast_on_observed`]'s callbacks, at
//! one and at two threads side by side — the per-phase decomposition of
//! `pg_ladder`'s `gnet.build_speedup` — with the distances per point each
//! phase computes beside its seconds (the decomposition of
//! `gnet.build_dists_per_point`; assembly computes none).
//!
//! `--save-index PATH` makes this the **offline half** of the experiment
//! pair: after the sweep, the index at the largest `n` is rebuilt on plain
//! `Euclidean` and persisted through the `pg_store` snapshot format, ready
//! for `exp_t11_query --load-index PATH` to serve without rebuilding.

#![forbid(unsafe_code)]

use std::time::Instant;

use pg_baselines::{slow_preprocessing, Hnsw, HnswParams};
use pg_bench::{fmt, loglog_slope, Args, Table};
use pg_core::{BuildPhase, GNet, QueryEngine};
use pg_metric::{Counting, Dataset, Euclidean, FlatRow, Metric};
use pg_nets::NetHierarchy;
use pg_workloads as workloads;

/// One timed fast build on a pool of `threads`: seconds spent and
/// distances computed in (hierarchy, cascade, candidates, assembly), the
/// distances as the growth of `dists_so_far()` (`|| 0` on a metric that
/// does not count).
fn phase_split<M: Metric<FlatRow> + Sync>(
    data: &Dataset<FlatRow, M>,
    threads: usize,
    dists_so_far: impl Fn() -> u64,
) -> [(f64, u64); 4] {
    rayon::with_threads(threads, || {
        let mut last = (Instant::now(), dists_so_far());
        let mut split = [(0.0, 0); 4];
        let mut lap = |phase: usize| {
            let now = (Instant::now(), dists_so_far());
            split[phase].0 += now.0.duration_since(last.0).as_secs_f64();
            split[phase].1 += now.1 - last.1;
            last = now;
        };
        let hierarchy = NetHierarchy::build(data);
        lap(0);
        let _g = GNet::build_fast_on_observed(data, 1.0, hierarchy, |phase| {
            lap(match phase {
                BuildPhase::Cascade => 1,
                BuildPhase::Candidates => 2,
                BuildPhase::Assembly => 3,
            })
        });
        split
    })
}

fn main() {
    let args = Args::parse(&["--full"], &["--threads", "--save-index"]);
    let full = args.has("--full");
    let threads = args.init_threads();
    println!("# T1.1-build: construction cost vs n (distance computations and seconds)");
    println!("(parallel candidate generation on {threads} thread(s); dist counts are thread-invariant)\n");

    let ns: Vec<usize> = if full {
        vec![1000, 2000, 4000, 8000, 16000]
    } else {
        vec![500, 1000, 2000, 4000]
    };
    let slow_cap = if full { 8000 } else { 2000 };

    let mut t = Table::new(&[
        "n",
        "fast dists",
        "naive dists",
        "covertree dists",
        "DiskANN-slow dists",
        "HNSW dists",
        "HNSW dists 2 thr",
        "fast s",
        "naive s",
        "slow s",
    ]);
    let mut phases = Table::new(&[
        "n",
        "hierarchy s",
        "d/pt",
        "cascade s",
        "d/pt",
        "candidates s",
        "d/pt",
        "assembly s",
        "total s",
        "d/pt",
    ]);
    let mut xs = Vec::new();
    let mut fast_d = Vec::new();
    let mut naive_d = Vec::new();
    let mut ct_d = Vec::new();
    let mut slow_d: Vec<f64> = Vec::new();
    let mut slow_x: Vec<f64> = Vec::new();
    let mut hnsw_d = Vec::new();

    for &n in &ns {
        let points = workloads::uniform_cube_flat(n, 2, (n as f64).sqrt() * 4.0, 7);
        let data = points.clone().into_dataset(Counting::new(Euclidean));

        // Gate, before any timing: the three builders agree edge for edge.
        // The cover-tree build is the slow one, so its distance count is
        // taken here instead of building it a second time.
        let hierarchy = NetHierarchy::build(&data);
        let hierarchy_dists = data.metric().take();
        let fast = GNet::build_fast_on(&data, 1.0, hierarchy.clone());
        let naive = GNet::build_naive_on(&data, 1.0, hierarchy.clone());
        data.metric().reset();
        let covertree = GNet::build_covertree_on(&data, 1.0, hierarchy);
        let cd = (hierarchy_dists + data.metric().take()) as f64;
        assert!(fast.graph == naive.graph, "n = {n}: fast != naive");
        assert!(
            covertree.graph == naive.graph,
            "n = {n}: cover-tree != naive"
        );
        drop((fast, naive, covertree));

        let counted = phase_split(&data, threads, || data.metric().count());
        let fast_secs: f64 = counted.iter().map(|&(secs, _)| secs).sum();
        let fd = data.metric().take() as f64;
        // Timed on the plain metric: two threads bumping `Counting`'s one
        // shared counter would be timed as a slower cascade.
        let plain = points.into_dataset(Euclidean);
        let [one, two] = [1, 2].map(|t| phase_split(&plain, t, || 0).map(|(secs, _)| secs));
        let speedup = |a: f64, b: f64| format!("{a:.3} -> {b:.3} ({:.2}x)", a / b);
        let per_point = |dists: u64| fmt(dists as f64 / n as f64, 1);
        let mut row = vec![n.to_string()];
        for phase in 0..4 {
            row.push(speedup(one[phase], two[phase]));
            if phase < 3 {
                row.push(per_point(counted[phase].1));
            }
        }
        row.push(speedup(one.iter().sum(), two.iter().sum()));
        row.push(per_point(counted.iter().map(|&(_, dists)| dists).sum()));
        phases.row(row);

        let t0 = Instant::now();
        let _g = GNet::build_naive(&data, 1.0);
        let naive_secs = t0.elapsed().as_secs_f64();
        let nd = data.metric().take() as f64;

        let (sd, slow_secs) = if n <= slow_cap {
            let t0 = Instant::now();
            let _s = slow_preprocessing(&data, 3.0);
            let secs = t0.elapsed().as_secs_f64();
            (data.metric().take() as f64, secs)
        } else {
            data.metric().reset();
            (f64::NAN, f64::NAN)
        };

        // At one thread, the construction count; at two, a helper also
        // plans ahead, and the plans the build discards add their
        // distances (same index, see `Hnsw::build`).
        let [hd, hd2] = [1, 2].map(|t| {
            let _h = rayon::with_threads(t, || Hnsw::build(&data, HnswParams::default()));
            data.metric().take() as f64
        });

        t.row(vec![
            n.to_string(),
            fmt(fd, 0),
            fmt(nd, 0),
            fmt(cd, 0),
            if sd.is_nan() { "-".into() } else { fmt(sd, 0) },
            fmt(hd, 0),
            fmt(hd2, 0),
            fmt(fast_secs, 3),
            fmt(naive_secs, 3),
            if slow_secs.is_nan() {
                "-".into()
            } else {
                fmt(slow_secs, 3)
            },
        ]);

        xs.push(n as f64);
        fast_d.push(fd);
        naive_d.push(nd);
        ct_d.push(cd);
        hnsw_d.push(hd);
        if !sd.is_nan() {
            slow_x.push(n as f64);
            slow_d.push(sd);
        }
    }
    t.print();

    println!("\nFitted log-log slopes (distance computations vs n):");
    println!(
        "  fast (cascade, Thm 1.1):      {:.2}   — theory ~1 (near-linear)",
        loglog_slope(&xs, &fast_d)
    );
    println!(
        "  covertree (Sec 2.4 verbatim): {:.2}   — theory ~1 (polylog per point)",
        loglog_slope(&xs, &ct_d)
    );
    println!(
        "  naive full-scan:              {:.2}   — theory ~2 (n · Σ|Y_i|)",
        loglog_slope(&xs, &naive_d)
    );
    if slow_d.len() >= 2 {
        println!(
            "  DiskANN slow-preprocessing:   {:.2}   — theory ~2+ (the barrier Thm 1.1 breaks)",
            loglog_slope(&slow_x, &slow_d)
        );
    }
    println!(
        "  HNSW (M = 12, ef_c = 64):     {:.2}   — practical baseline, no guarantee",
        loglog_slope(&xs, &hnsw_d)
    );
    println!("\nAll three G_net builders produced identical graphs at every n (asserted above).");

    println!("\nFast build, seconds by phase at 1 thread -> at 2 threads (speed-up), and the");
    println!("distances per point the phase computes (thread-invariant; assembly computes");
    println!("none). Hierarchy promotion and the prefix sum / ladder join of assembly are");
    println!("sequential; the rest runs on the pool, one task per block of 1024 centers or");
    println!("points:");
    phases.print();

    // ---- Offline half: persist the largest index --------------------------
    if let Some(path) = args.value("--save-index") {
        let n = *ns.last().unwrap();
        // Same generator and seed as the sweep row, on the plain metric (the
        // snapshot stores the metric tag, not the Counting instrumentation).
        let data =
            workloads::uniform_cube_flat(n, 2, (n as f64).sqrt() * 4.0, 7).into_dataset(Euclidean);
        let g = GNet::build_fast(&data, 1.0);
        let params = g.params;
        let engine = QueryEngine::new(g.graph, data);
        engine
            .save_with(&path, 0, Some(params.into()))
            .expect("saving the index snapshot failed");
        let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
        println!(
            "\nindex saved: {path} (n = {n}, {} edges, {bytes} bytes) — serve it with \
             `exp_t11_query --load-index {path}`",
            engine.graph().edge_count()
        );
    }
}
