//! Baseline ANN indexes the paper positions itself against (Section 1.2),
//! implemented from scratch:
//!
//! * [`mod@diskann`] — the **slow-preprocessing DiskANN** (α-pruned graph) that
//!   Indyk–Xu \[18\] showed to be the only popular proximity graph with
//!   non-trivial worst-case guarantees (`O(n^3)`-ish construction,
//!   `(α+1)/(α-1)`-navigability), plus the practical **Vamana** heuristic
//!   (random graph + two α-robust-prune passes) used by DiskANN in practice;
//! * [`mod@hnsw`] — Hierarchical Navigable Small World graphs \[22\], the dominant
//!   practical proximity-graph index;
//! * [`mod@nsw`] — the flat small-world predecessor \[21\].
//!
//! Exact brute force, the recall ground truth, is
//! [`Dataset::nearest_brute`] and [`Dataset::k_nearest_brute`] on the
//! dataset itself, and [`BruteIndex`] behind the sweep interface.
//!
//! All constructions emit [`pg_core::Graph`]s (HNSW additionally keeps its
//! layer stack), so the comparison experiments can route queries through the
//! exact same `greedy`/beam code paths and count distance computations with
//! the same instrumentation. The [`adapter`] module goes one step further
//! and puts every family — plain graphs, HNSW's layered search, and brute
//! force — behind the single [`SweepSearch`] trait, which is what the
//! evaluation crate (`pg_eval`) sweeps recall/QPS frontiers through.
//!
//! Where this crate sits in the workspace is mapped in `ARCHITECTURE.md`
//! at the repository root.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod adapter;
pub mod diskann;
pub mod hnsw;
pub mod nsw;

use pg_metric::{Dataset, Metric};

/// Below this many candidates a parallel distance-labelling pass costs more
/// in thread startup than it saves; the sequential path is used instead.
/// Vamana's prune is the only caller that reaches it.
pub(crate) const PAR_DIST_THRESHOLD: usize = 512;

/// Distance-labels `cands` against point `p`, **in input order** — the
/// neighbor-selection primitive of the Vamana constructions (HNSW re-prunes
/// from the lengths its entries already carry and calls this only in its
/// recomputing test reference). Over the immutable dataset snapshot each
/// evaluation is independent, so large lists are sharded across the thread
/// pool; the order-preserving map keeps the output (and therefore the built
/// graph) bit-identical to the sequential path for any thread count.
pub(crate) fn label_dists<P: Sync, M: Metric<P> + Sync>(
    data: &Dataset<P, M>,
    p: usize,
    cands: &[u32],
) -> Vec<(f64, u32)> {
    if cands.len() >= PAR_DIST_THRESHOLD {
        rayon::par_map(cands, |&v| (data.dist(p, v as usize), v))
    } else {
        cands
            .iter()
            .map(|&v| (data.dist(p, v as usize), v))
            .collect()
    }
}

pub use adapter::{BruteIndex, GraphIndex, SweepSearch};
pub use diskann::{slow_preprocessing, vamana, VamanaParams};
pub use hnsw::{Hnsw, HnswParams};
pub use nsw::{nsw, NswParams};

#[cfg(test)]
mod tests {
    use super::*;
    use pg_core::Graph;
    use pg_metric::{Euclidean, FlatPoints, FlatRow};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn random_dataset(n: usize, d: usize, seed: u64) -> Dataset<FlatRow, Euclidean> {
        let mut rng = StdRng::seed_from_u64(seed);
        FlatPoints::from_fn(n, d, |_, out| {
            out.extend((0..d).map(|_| rng.random_range(0.0..30.0)))
        })
        .into_dataset(Euclidean)
    }

    /// `(edge_count, FNV-1a over the CSR offsets then targets)`.
    fn fingerprint(g: &Graph) -> (usize, u64) {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let offsets = g.csr_offsets().iter().map(|&o| o as u64);
        let targets = g.csr_targets().iter().map(|&t| u64::from(t));
        for b in offsets.chain(targets).flat_map(u64::to_le_bytes) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        (g.edge_count(), h)
    }

    /// The three constructions run their insertion-time beams through the
    /// shared `pg_core::beam_walk`. These fingerprints were recorded with
    /// the private per-baseline loops that walk replaced, so they pin the
    /// built graphs edge for edge, not merely "still deterministic".
    #[test]
    fn constructions_are_graph_identical_to_the_recorded_builds() {
        type Pins = [(usize, u64); 3];
        const D2: Pins = [
            (5814, 18157890350318510441),
            (5890, 14243995548373718534),
            (3072, 13073816266793016316),
        ];
        const D16: Pins = [
            (3846, 14976913564604238733),
            (3890, 16795163857144911411),
            (4472, 13671497826922419090),
        ];
        for (n, d, seed, want) in [(300, 2, 41, D2), (200, 16, 42, D16)] {
            let ds = random_dataset(n, d, seed);
            let h = Hnsw::build(&ds, HnswParams::default());
            assert_eq!(h.entry_point(), 82, "d = {d}: hnsw entry point");
            let got = [
                fingerprint(&h.ground_layer()),
                fingerprint(&nsw(&ds, NswParams::default())),
                fingerprint(&vamana(&ds, VamanaParams::default())),
            ];
            assert_eq!(got, want, "d = {d}: (hnsw, nsw, vamana) fingerprints");
        }
    }
}
