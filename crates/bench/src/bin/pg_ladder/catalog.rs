//! What `pg_ladder` measures: the four workloads, the end-to-end metrics
//! with their regression bounds, and the per-layer ladder. `BENCHMARK.json`
//! at the repository root declares the same names, units, directions and
//! bounds; a test in `main.rs` holds the two together.

use crate::api::Family;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// The end-to-end metrics and workloads a layer metric should move;
/// everything else is predicted not to move. Empty for a diagnostic that
/// moves nothing end to end yet.
#[derive(Debug, Clone, Copy)]
pub struct Moves {
    pub metrics: &'static [&'static str],
    pub workloads: &'static [&'static str],
}

/// One declared metric. What each one measures is tabulated in the README.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End to end: the share of the baseline median by which the metric may
    /// worsen before `compare` (and the benchmark driver) call it a
    /// regression. It has to hold across seeds. Per-layer metrics are
    /// diagnostics and carry none.
    pub bound: f64,
    /// For a metric that repeats to the last digit on a fixed seed: the
    /// bound `compare` applies in place of `bound` when both files ran the
    /// workload on one and the same seed, where any difference is a change
    /// in the program and not in the data.
    pub same_seed: Option<f64>,
    /// Per layer: what it should move.
    pub moves: Moves,
}

const NOTHING: Moves = Moves {
    metrics: &[],
    workloads: &[],
};

const fn timing(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
        same_seed: None,
        moves: NOTHING,
    }
}

const fn count(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    same_seed: f64,
) -> MetricDef {
    MetricDef {
        same_seed: Some(same_seed),
        ..timing(name, unit, better, bound)
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better, moves: Moves) -> MetricDef {
    MetricDef {
        moves,
        ..timing(name, unit, better, 0.0)
    }
}

use Better::{Higher, Lower};

/// The end-to-end metrics: the same names on every workload. Each bound is
/// three times the widest spread (inter-quartile range over median) the
/// metric showed across ten seeds on any workload in any of three sets of
/// runs, rounded up and capped at the 0.25 the benchmark driver allows —
/// the driver holds the spread across *different* seeds against the bound.
/// The README has the spreads. On one seed the three counts repeat to the
/// last digit, so there they get the issue's bounds: none on recall, 1 % on
/// the other two. Peak resident memory is reported with every run but not
/// declared here: on `gnet2d-batch` it ranged 677 to 1059 MiB over ten
/// runs, wider than any bound the driver accepts.
pub const END_TO_END: &[MetricDef] = &[
    timing("setup_s", "s", Lower, 0.25),
    timing("build_s", "s", Lower, 0.25),
    timing("qps", "queries/s", Higher, 0.25),
    timing("p50_us", "us", Lower, 0.25),
    timing("p99_us", "us", Lower, 0.25),
    count("recall_at_10", "ratio", Higher, 0.05, 0.0),
    count("dist_comps_per_query", "count", Lower, 0.12, 0.01),
    count("index_bytes_per_point", "bytes", Lower, 0.02, 0.01),
];

const GNET2D_BATCH: &str = "gnet2d-batch";
const HNSW128_BATCH: &str = "hnsw128-batch";
const GNET2D_SHARD8: &str = "gnet2d-shard8";
const HNSW32_SERVE: &str = "hnsw32-serve";

const fn moves(metrics: &'static [&'static str], workloads: &'static [&'static str]) -> Moves {
    Moves { metrics, workloads }
}

const SETUP: Moves = moves(
    &["setup_s"],
    &[GNET2D_BATCH, HNSW128_BATCH, GNET2D_SHARD8, HNSW32_SERVE],
);
const KERNEL: Moves = moves(&["qps", "p50_us"], &[HNSW128_BATCH]);
const GNET_BUILD: Moves = moves(&["build_s"], &[GNET2D_BATCH, GNET2D_SHARD8]);
const GNET_EDGES: Moves = moves(
    &["build_s", "index_bytes_per_point"],
    &[GNET2D_BATCH, GNET2D_SHARD8],
);
const HNSW_BUILD: Moves = moves(&["build_s"], &[HNSW128_BATCH, HNSW32_SERVE]);
const HNSW_EDGES: Moves = moves(
    &["build_s", "index_bytes_per_point"],
    &[HNSW128_BATCH, HNSW32_SERVE],
);
const BEAM: Moves = moves(
    &["qps", "p50_us"],
    &[GNET2D_BATCH, HNSW128_BATCH, GNET2D_SHARD8],
);
const ENGINE: Moves = moves(&["qps"], &[GNET2D_BATCH, HNSW128_BATCH, GNET2D_SHARD8]);
const SHARDED: Moves = moves(&["qps", "p50_us"], &[GNET2D_SHARD8]);
const STORE: Moves = moves(&["setup_s"], &[HNSW32_SERVE]);
const CODEC: Moves = moves(&["p50_us"], &[HNSW32_SERVE]);
const WIRE: Moves = moves(&["p50_us", "p99_us"], &[HNSW32_SERVE]);
const BATCHER: Moves = moves(&["qps", "p50_us", "p99_us"], &[HNSW32_SERVE]);

/// The per-layer ladder, kernel to socket, each with the prediction of what
/// it should move (`NOTHING`: a diagnostic no end-to-end metric depends on
/// yet). A metric whose layer is not on a workload's path is not measured
/// there and reads 0 in the result line.
pub const PER_LAYER: &[MetricDef] = &[
    layer("workloads.gen_s", "s", Lower, SETUP),
    layer("eval.truth_s", "s", Lower, SETUP),
    layer("metric.l2sq_seq_ns", "ns", Lower, KERNEL),
    layer("metric.l2sq_rand_ns", "ns", Lower, KERNEL),
    layer("metric.f32_rand_ns", "ns", Lower, NOTHING),
    layer("metric.sq8_rand_ns", "ns", Lower, NOTHING),
    layer("gnet.build_dists_per_point", "count", Lower, GNET_BUILD),
    layer("gnet.hierarchy_s", "s", Lower, GNET_BUILD),
    layer("gnet.edges_per_point", "count", Lower, GNET_EDGES),
    layer("gnet.levels", "count", Lower, GNET_BUILD),
    layer("gnet.build_speedup", "ratio", Higher, GNET_BUILD),
    layer("baselines.hnsw_build_s", "s", Lower, HNSW_BUILD),
    layer("baselines.hnsw_edges_per_point", "count", Lower, HNSW_EDGES),
    layer("search.beam_us", "us", Lower, BEAM),
    layer("search.expansions_per_query", "count", Lower, BEAM),
    layer("search.ns_per_dist", "ns", Lower, BEAM),
    layer("search.nondist_frac", "ratio", Lower, BEAM),
    layer("search.greedy_us", "us", Lower, NOTHING),
    layer("search.greedy_dists_per_query", "count", Lower, NOTHING),
    layer("search.greedy_worst_ratio", "ratio", Lower, NOTHING),
    layer("search.floor_us_n1e5", "us", Lower, NOTHING),
    layer("search.floor_us_n2e6", "us", Lower, NOTHING),
    layer("search.quant_f32_us", "us", Lower, NOTHING),
    layer("search.quant_sq8_us", "us", Lower, NOTHING),
    layer("search.quant_f32_recall", "ratio", Higher, NOTHING),
    layer("search.quant_sq8_recall", "ratio", Higher, NOTHING),
    layer("engine.qps_t1", "queries/s", Higher, ENGINE),
    layer("engine.scaling_eff", "ratio", Higher, ENGINE),
    layer("engine.single_overhead_us", "us", Lower, ENGINE),
    layer("sharded.dists_per_query", "count", Lower, SHARDED),
    layer("sharded.merge_overhead_us", "us", Lower, SHARDED),
    layer("sharded.shard_skew", "ratio", Lower, SHARDED),
    layer("store.save_s", "s", Lower, STORE),
    layer("store.load_s", "s", Lower, STORE),
    layer("store.bytes_per_point", "bytes", Lower, STORE),
    layer("protocol.encode_request_ns", "ns", Lower, CODEC),
    layer("protocol.decode_request_ns", "ns", Lower, CODEC),
    layer("protocol.encode_response_ns", "ns", Lower, CODEC),
    layer("protocol.decode_response_ns", "ns", Lower, CODEC),
    layer("serve.ping_rtt_p50_us", "us", Lower, WIRE),
    layer("serve.ping_rtt_p99_us", "us", Lower, WIRE),
    layer("serve.query_rtt_c1_us", "us", Lower, WIRE),
    layer("serve.direct_rtt_c1_us", "us", Lower, NOTHING),
    layer("serve.direct_qps", "queries/s", Higher, NOTHING),
    layer("serve.direct_p50_us", "us", Lower, NOTHING),
    layer("serve.unaccounted_us", "us", Lower, NOTHING),
    layer("batcher.overhead_us", "us", Lower, BATCHER),
    layer("batcher.mean_batch", "count", Higher, BATCHER),
    layer("batcher.coalesced_frac", "ratio", Higher, BATCHER),
    layer("batcher.shed", "count", Lower, BATCHER),
    layer("trace.overhead_frac", "ratio", Lower, NOTHING),
];

/// How a workload's points and queries are drawn.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Shape {
    /// `uniform_cube_flat(side 1000)`, uniform queries in the same cube.
    Uniform,
    /// `gaussian_clusters_flat(64 clusters, std 600, side 1000)` with
    /// `perturbed_queries_flat(sigma 45)`. At std 600 the clusters overlap:
    /// at the issue's std 150 they are separate, a beam entering the wrong
    /// one loses the query outright, and how often that happens is a
    /// lottery of the data seed (recall 0.55 to 0.86, distance computations
    /// +-7 % across seeds) that no bound below 25 % could hold.
    Clustered,
}

/// One workload. Names are final: later issues cite them.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub shape: Shape,
    pub n: usize,
    pub d: usize,
    /// Queries per throughput round; latency calls cycle through them.
    pub m: usize,
    /// Leading queries scored against exact ground truth.
    pub truth_queries: usize,
    pub family: Family,
    pub ef: usize,
    pub k: usize,
    /// Queried over TCP through `pg_serve` instead of in process.
    pub served: bool,
    pub recall_floor: f64,
}

pub const EPSILON: f64 = 1.0;
pub const K: usize = 10;

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: GNET2D_BATCH,
        why: "the paper's regime: G_net at d=2 has ~550 edges/point and a two-multiply kernel, so neighbour scans, visited set and heaps do the work",
        shape: Shape::Uniform,
        n: 100_000,
        d: 2,
        m: 2_000,
        truth_queries: 200,
        family: Family::GNet { epsilon: EPSILON },
        ef: 16,
        k: K,
        served: false,
        recall_floor: 0.90,
    },
    Workload {
        name: HNSW128_BATCH,
        why: "same beam code, opposite cost profile: 31 MB of d=128 points on a degree-capped graph, so memory traffic and the distance kernels dominate",
        shape: Shape::Clustered,
        n: 30_000,
        d: 128,
        m: 2_000,
        truth_queries: 400,
        family: Family::Hnsw,
        ef: 64,
        k: K,
        served: false,
        recall_floor: 0.80,
    },
    Workload {
        name: GNET2D_SHARD8,
        why: "gnet2d-batch's data through 8 shards: cheaper builds paid for with ~5x the distance computations per query, plus fan-out and merge",
        shape: Shape::Uniform,
        n: 100_000,
        d: 2,
        m: 2_000,
        truth_queries: 200,
        family: Family::ShardedGNet { epsilon: EPSILON, shards: 8 },
        ef: 16,
        k: K,
        served: false,
        recall_floor: 0.90,
    },
    Workload {
        name: HNSW32_SERVE,
        why: "closed-loop TCP clients against pg_serve: search is the small part, so frame, socket, thread hand-off and batcher do most of the work",
        shape: Shape::Clustered,
        n: 20_000,
        d: 32,
        m: 2_000,
        truth_queries: 400,
        family: Family::Hnsw,
        ef: 32,
        k: K,
        served: true,
        recall_floor: 0.85,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The `--smoke` cut: every size ~100x smaller, for rot protection.
    pub fn smoke(&self) -> Workload {
        Workload {
            n: self.n / 100,
            m: self.m / 20,
            truth_queries: (self.truth_queries / 20).max(25),
            // A 200-point HNSW layer is nearly complete: any beam finds
            // everything, and a tiny G_net shard is a handful of points.
            recall_floor: 0.5,
            ..*self
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_prediction_names_a_declared_metric_and_workload() {
        for def in PER_LAYER {
            let Moves { metrics, workloads } = def.moves;
            assert_eq!(metrics.is_empty(), workloads.is_empty(), "{}", def.name);
            for metric in metrics {
                assert!(
                    END_TO_END.iter().any(|e| e.name == *metric),
                    "{} should move {metric}, which is not an end-to-end metric",
                    def.name
                );
            }
            for workload in workloads {
                assert!(
                    Workload::by_name(workload).is_some(),
                    "{} should move {workload}, which is not a workload",
                    def.name
                );
            }
        }
        for def in END_TO_END {
            assert!(def.moves.metrics.is_empty(), "{}", def.name);
            assert!(
                def.same_seed.is_none_or(|tight| tight <= def.bound),
                "{}",
                def.name
            );
        }
    }
}
