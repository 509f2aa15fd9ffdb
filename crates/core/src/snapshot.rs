//! Engine persistence: typed save/load of a [`QueryEngine`] through the
//! `pg_store` snapshot format.
//!
//! This is the wiring layer between the raw, dependency-free byte format
//! ([`pg_store::Snapshot`]) and the typed world of this crate: a
//! [`Graph`] plus a flat-backed [`Dataset`](pg_metric::Dataset) goes out as raw CSR and
//! coordinate arrays, and comes back **bit-identical** — a loaded engine
//! answers `batch_greedy` / `batch_query` / `batch_beam_detailed` exactly
//! like the engine that was saved, across every thread count (pinned by
//! `tests/snapshot_parity.rs` at the workspace root, mirroring
//! `tests/flat_parity.rs`).
//!
//! The metric is not serialized as code, only named: the [`SnapshotMetric`]
//! trait maps the unit metric types (`Euclidean`, `Manhattan`, `Chebyshev`)
//! to their stable on-disk [`MetricTag`] codes, and a typed
//! `QueryEngine::<_, M>::load` refuses a file whose tag differs from
//! `M::TAG` with [`SnapshotError::MetricMismatch`]. Loading always yields a
//! `FlatRow`-backed engine — flat contiguous storage is the serving layout
//! (see `ARCHITECTURE.md` at the repository root for the byte-level format
//! spec and the layout rationale).
//!
//! A banded graph (`G_net`; see [`graph`](crate::graph)) is saved with its
//! band ladder and reloads banded at the resolution it was saved with, so
//! the loaded engine matches the saved one in `dist_comps` too: format
//! version 4 carries the resolution, a version 3 file (written before
//! ladders had one) loads at resolution 0 and re-saves as version 3. An
//! un-banded graph writes the version 1 bytes it always did.
//!
//! A compact-points store (`F32`/`SQ8`) is derived, not stored: the loaded
//! engine's [`QueryEngine::quantize`] recomputes it bit for bit from the
//! exact points the file holds, so no typed writer emits the `PN32`/`PNQ8`
//! section of format version 2. A file that carries one (version 2, or a
//! five-section version 3/4) still loads, once [`QueryEngine::from_snapshot`]
//! has checked the section equals the store the points derive — a section
//! that differs is [`SnapshotError::Invalid`]. A typed re-save writes the
//! file without it.
//!
//! What is *not* stored: the net hierarchy, the thread count, and any
//! `Counting` instrumentation. A loaded engine serves queries (which need
//! only the graph and the points); rebuilding or extending the index needs
//! the construction pipeline. Instrument a loaded engine by re-wrapping its
//! dataset in `Counting` if distance accounting is required.
//!
//! # Example
//!
//! ```
//! use pg_core::engine::QueryEngine;
//! use pg_core::GNet;
//! use pg_metric::{Euclidean, FlatPoints, FlatRow};
//!
//! let mut points = FlatPoints::new(2);
//! for i in 0..50 {
//!     points.push(&[i as f64, (i % 5) as f64]);
//! }
//! let data = points.into_dataset(Euclidean);
//! let pg = GNet::build(&data, 1.0);
//! let engine = QueryEngine::new(pg.graph, data);
//!
//! // Offline: build once, save.
//! let path = std::env::temp_dir().join(format!("pg_snapshot_mod_{}.pgix", std::process::id()));
//! engine.save_with(&path, 0, Some(pg.params.into())).unwrap();
//!
//! // Online: load and serve — answers are identical to the saved engine.
//! let (loaded, meta): (QueryEngine<FlatRow, Euclidean>, _) = QueryEngine::load(&path).unwrap();
//! assert_eq!(meta.build, Some(pg.params.into()));
//! std::fs::remove_file(&path).unwrap();
//! let q: FlatRow = vec![17.3, 2.2].into();
//! let a = pg_core::greedy(engine.graph(), engine.data(), 0, &q);
//! let b = pg_core::greedy(loaded.graph(), loaded.data(), 0, &q);
//! assert_eq!(a.result, b.result);
//! assert_eq!(a.dist_comps, b.dist_comps);
//! ```

use std::path::Path;

use pg_metric::{
    Chebyshev, CompactPoints, Euclidean, FlatPoints, FlatRow, Manhattan, Metric, QuantKind,
};
use pg_store::{
    BandSection, BuildParams, IndexMeta, MetricTag, QuantSection, Snapshot, SnapshotError,
};

use crate::engine::QueryEngine;
use crate::graph::{BandLadder, Graph};
use crate::params::GNetParams;

/// A metric with a stable on-disk identity ([`MetricTag`]) and a canonical
/// instance, so snapshots can be loaded without serializing metric state.
///
/// Version 1 of the format covers the three stateless `L_p` metrics.
/// Stateful wrappers (`Counting`, `Scaled`) deliberately do not implement
/// this: persist the underlying metric and re-wrap after loading.
///
/// Snapshot points are flat `f64` rows, so the metric must score slices: a
/// loaded dataset is built by `FlatPoints::into_dataset` and reads its
/// buffer directly.
pub trait SnapshotMetric: Metric<[f64]> {
    /// The tag written to and checked against the file's `META` section.
    const TAG: MetricTag;

    /// The canonical instance used to reconstruct a loaded dataset.
    fn from_tag() -> Self;
}

impl SnapshotMetric for Euclidean {
    const TAG: MetricTag = MetricTag::Euclidean;

    fn from_tag() -> Self {
        Euclidean
    }
}

impl SnapshotMetric for Manhattan {
    const TAG: MetricTag = MetricTag::Manhattan;

    fn from_tag() -> Self {
        Manhattan
    }
}

impl SnapshotMetric for Chebyshev {
    const TAG: MetricTag = MetricTag::Chebyshev;

    fn from_tag() -> Self {
        Chebyshev
    }
}

impl From<GNetParams> for BuildParams {
    /// Records `(ε, η, φ)` in snapshot metadata.
    fn from(p: GNetParams) -> Self {
        BuildParams {
            epsilon: p.epsilon,
            eta: p.eta,
            phi: p.phi,
        }
    }
}

/// A loaded engine whose metric is known only at run time — the engine
/// surface a serving process shares and hot-swaps.
///
/// A snapshot file records its metric as a [`MetricTag`]; a server that
/// loads whatever file it is pointed at cannot pick the
/// `QueryEngine<FlatRow, M>` type parameter at compile time. `AnyEngine`
/// closes that gap: [`AnyEngine::load`] dispatches on the stored tag and
/// wraps the correctly-typed engine, and the batch entry points forward to
/// the inner [`QueryEngine`] — so every determinism and parity guarantee
/// (bit-identical results at any thread count, sequential-equivalent
/// outcomes) carries over verbatim.
///
/// This is the engine `pg_serve` keeps behind its `Arc`-swapped serving
/// cells, inside an `Arc<ServingIndex>` with its entry point and epoch: one
/// `Arc` is cheap to clone per in-flight request, and replacing it
/// atomically switches traffic to a new snapshot while old requests finish
/// on the old engine.
///
/// ```
/// use pg_core::engine::QueryEngine;
/// use pg_core::snapshot::AnyEngine;
/// use pg_core::GNet;
/// use pg_metric::{Euclidean, FlatPoints};
/// use pg_store::MetricTag;
///
/// let mut points = FlatPoints::new(2);
/// for i in 0..40 {
///     points.push(&[i as f64, (i % 5) as f64]);
/// }
/// let data = points.into_dataset(Euclidean);
/// let pg = GNet::build(&data, 1.0);
/// let engine = QueryEngine::new(pg.graph, data);
///
/// let path = std::env::temp_dir().join(format!("pg_any_doc_{}.pgix", std::process::id()));
/// engine.save_with(&path, 0, None).unwrap();
/// let (any, meta) = AnyEngine::load(&path).unwrap();
/// std::fs::remove_file(&path).unwrap();
/// assert_eq!(any.metric(), MetricTag::Euclidean);
/// assert_eq!(any.len(), 40);
/// assert_eq!(any.dims(), 2);
///
/// let queries = vec![vec![7.2, 1.0].into()];
/// let batch = any.batch_beam_detailed(&[meta.entry_point], &queries, 8, 3);
/// assert_eq!(batch.outcomes.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub enum AnyEngine {
    /// An engine over `L_2` ([`MetricTag::Euclidean`]).
    Euclidean(QueryEngine<FlatRow, Euclidean>),
    /// An engine over `L_1` ([`MetricTag::Manhattan`]).
    Manhattan(QueryEngine<FlatRow, Manhattan>),
    /// An engine over `L_inf` ([`MetricTag::Chebyshev`]).
    Chebyshev(QueryEngine<FlatRow, Chebyshev>),
}

/// Forwards a method call to whichever typed engine the enum holds.
macro_rules! dispatch {
    ($self:expr, $e:pat => $body:expr) => {
        match $self {
            AnyEngine::Euclidean($e) => $body,
            AnyEngine::Manhattan($e) => $body,
            AnyEngine::Chebyshev($e) => $body,
        }
    };
}

impl AnyEngine {
    /// Loads an engine from a snapshot file, dispatching on the metric tag
    /// recorded in the file — the run-time-typed counterpart of
    /// [`QueryEngine::load`], with the same validation per metric. Fails
    /// with a typed [`SnapshotError`], never a panic.
    pub fn load(path: impl AsRef<Path>) -> Result<(Self, IndexMeta), SnapshotError> {
        let snap = Snapshot::load(path)?;
        match snap.meta.metric {
            MetricTag::Euclidean => QueryEngine::<FlatRow, Euclidean>::from_snapshot(snap)
                .map(|(e, m)| (AnyEngine::Euclidean(e), m)),
            MetricTag::Manhattan => QueryEngine::<FlatRow, Manhattan>::from_snapshot(snap)
                .map(|(e, m)| (AnyEngine::Manhattan(e), m)),
            MetricTag::Chebyshev => QueryEngine::<FlatRow, Chebyshev>::from_snapshot(snap)
                .map(|(e, m)| (AnyEngine::Chebyshev(e), m)),
        }
    }

    /// The metric the wrapped engine computes distances under.
    pub fn metric(&self) -> MetricTag {
        match self {
            AnyEngine::Euclidean(_) => MetricTag::Euclidean,
            AnyEngine::Manhattan(_) => MetricTag::Manhattan,
            AnyEngine::Chebyshev(_) => MetricTag::Chebyshev,
        }
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        dispatch!(self, e => e.data().len())
    }

    /// Always false: snapshots of empty indexes do not exist
    /// (`Snapshot::validate` rejects `n = 0`).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Point dimensionality — the coordinate count every query must match.
    pub fn dims(&self) -> usize {
        dispatch!(self, e => e.data().point(0).dim())
    }

    /// Forwards to [`QueryEngine::batch_beam_detailed`] on the wrapped
    /// engine — the serving path, so every response can carry its own
    /// `dist_comps`/`expansions`.
    pub fn batch_beam_detailed(
        &self,
        starts: &[u32],
        queries: &[FlatRow],
        ef: usize,
        k: usize,
    ) -> crate::engine::BatchBeamDetail {
        dispatch!(self, e => e.batch_beam_detailed(starts, queries, ef, k))
    }
}

impl From<QueryEngine<FlatRow, Euclidean>> for AnyEngine {
    fn from(e: QueryEngine<FlatRow, Euclidean>) -> Self {
        AnyEngine::Euclidean(e)
    }
}

impl From<QueryEngine<FlatRow, Manhattan>> for AnyEngine {
    fn from(e: QueryEngine<FlatRow, Manhattan>) -> Self {
        AnyEngine::Manhattan(e)
    }
}

impl From<QueryEngine<FlatRow, Chebyshev>> for AnyEngine {
    fn from(e: QueryEngine<FlatRow, Chebyshev>) -> Self {
        AnyEngine::Chebyshev(e)
    }
}

impl<P: AsRef<[f64]>, M: Metric<P> + SnapshotMetric> QueryEngine<P, M> {
    /// Extracts the raw [`Snapshot`] of this engine: the graph's CSR arrays
    /// plus all point coordinates flattened row-major. Works for any point
    /// layout (`FlatRow`, `Vec<f64>`, …); loading always reconstructs the
    /// flat layout.
    ///
    /// `entry_point` (a suggested routing start, must be `< n`) and `build`
    /// go into the metadata section verbatim.
    pub fn to_snapshot(
        &self,
        entry_point: u32,
        build: Option<BuildParams>,
    ) -> Result<Snapshot, SnapshotError> {
        let points = self.data().points();
        // pg-lint: allow(no-panic-path, Dataset::new rejects empty point sets, so points[0] exists)
        let dims = points[0].as_ref().len();
        let mut coords = Vec::with_capacity(points.len() * dims);
        for (i, p) in points.iter().enumerate() {
            let row = p.as_ref();
            if row.len() != dims {
                return Err(SnapshotError::Invalid {
                    reason: format!(
                        "point {i} has {} coordinates, point 0 has {dims}",
                        row.len()
                    ),
                });
            }
            coords.extend_from_slice(row);
        }
        let snap = Snapshot {
            meta: IndexMeta {
                metric: M::TAG,
                dims: dims as u32,
                n: points.len() as u64,
                entry_point,
                build,
            },
            offsets: self
                .graph()
                .csr_offsets()
                .iter()
                .map(|&o| o as u64)
                .collect(),
            targets: self.graph().csr_targets().to_vec(),
            coords,
            quant: None,
            // A banded graph stays banded across the disk (format version
            // 3 or 4, by the ladder's resolution), with or without `build`
            // params: the ladder is part of the graph, and `dist_comps`
            // depends on it.
            bands: self.graph().band_ladder().map(|ladder| BandSection {
                resolution: ladder.resolution,
                offsets: ladder.offsets.iter().map(|&o| o as u64).collect(),
                exps: ladder.exps.clone(),
                ends: ladder.ends.clone(),
            }),
        };
        snap.validate()?;
        Ok(snap)
    }

    /// Saves the engine's index to `path`, recording `entry_point` and the
    /// build parameters (if given) in the metadata section. The write is
    /// all-or-nothing at the validation level: a structurally inconsistent
    /// engine state is refused before any bytes hit the disk.
    ///
    /// ```
    /// use pg_core::engine::QueryEngine;
    /// use pg_core::GNet;
    /// use pg_metric::{Euclidean, FlatPoints, FlatRow};
    ///
    /// let mut points = FlatPoints::new(2);
    /// for i in 0..40 {
    ///     points.push(&[i as f64, (i % 7) as f64]);
    /// }
    /// let data = points.into_dataset(Euclidean);
    /// let pg = GNet::build(&data, 1.0);
    /// let engine = QueryEngine::new(pg.graph, data);
    ///
    /// let path = std::env::temp_dir().join(format!("pg_save_doc_{}.pgix", std::process::id()));
    /// engine.save_with(&path, 0, None).unwrap();
    /// let (loaded, meta): (QueryEngine<FlatRow, Euclidean>, _) = QueryEngine::load(&path).unwrap();
    /// std::fs::remove_file(&path).unwrap();
    /// assert_eq!(loaded.graph(), engine.graph());
    /// assert_eq!((meta.entry_point, meta.build), (0, None));
    /// ```
    pub fn save_with(
        &self,
        path: impl AsRef<Path>,
        entry_point: u32,
        build: Option<BuildParams>,
    ) -> Result<(), SnapshotError> {
        self.to_snapshot(entry_point, build)?.save(path)
    }
}

impl<M: Metric<FlatRow> + SnapshotMetric> QueryEngine<FlatRow, M> {
    /// Loads an engine from a snapshot file saved by
    /// [`QueryEngine::save_with`], with the stored [`IndexMeta`] (entry
    /// point, build parameters, …). The loaded engine is bit-identical to
    /// the saved one: same graph, same coordinates, hence identical results,
    /// hops and `dist_comps` for every query (see the module docs).
    ///
    /// Fails with a typed [`SnapshotError`] — never a panic — on I/O
    /// problems, truncation, corruption, future format versions, or a
    /// metric tag that differs from `M::TAG`.
    pub fn load(path: impl AsRef<Path>) -> Result<(Self, IndexMeta), SnapshotError> {
        Self::from_snapshot(Snapshot::load(path)?)
    }

    /// Reconstructs an engine from an in-memory [`Snapshot`]. The graph- and
    /// buffer-level invariants are (re-)established here through
    /// [`Graph::try_from_csr`] (or [`Graph::try_from_banded_csr`] when the
    /// snapshot carries a band ladder — the loaded graph is then banded like
    /// the saved one) and `FlatPoints::try_from_raw` — untrusted
    /// hand-built snapshots are as safe as files, without repeating the full
    /// [`Snapshot::validate`] scan a file read already performed.
    ///
    /// A compact-points section is accepted only if it equals, bit for bit,
    /// what [`QueryEngine::quantize`] derives from the loaded points (see
    /// the module docs); otherwise the load fails with
    /// [`SnapshotError::Invalid`].
    pub fn from_snapshot(snap: Snapshot) -> Result<(Self, IndexMeta), SnapshotError> {
        if snap.meta.metric != M::TAG {
            return Err(SnapshotError::MetricMismatch {
                expected: M::TAG,
                found: snap.meta.metric,
            });
        }
        let Snapshot {
            meta,
            offsets,
            targets,
            coords,
            quant,
            bands,
        } = snap;
        let addressable = |offsets: Vec<u64>| -> Result<Vec<usize>, SnapshotError> {
            offsets
                .into_iter()
                .map(|o| {
                    o.try_into().map_err(|_| SnapshotError::Invalid {
                        reason: format!("offset {o} exceeds addressable memory"),
                    })
                })
                .collect()
        };
        let offsets = addressable(offsets)?;
        let graph = match bands {
            None => Graph::try_from_csr(offsets, targets),
            Some(b) => Graph::try_from_banded_csr(
                offsets,
                targets,
                BandLadder {
                    resolution: b.resolution,
                    offsets: addressable(b.offsets)?,
                    exps: b.exps,
                    ends: b.ends,
                },
            ),
        }
        .map_err(|reason| SnapshotError::Invalid { reason })?;
        let points = FlatPoints::try_from_raw(coords, meta.dims as usize)
            .map_err(|reason| SnapshotError::Invalid { reason })?;
        // try_from_csr / try_from_raw cover everything but the O(1)
        // cross-array checks, which keep the engine constructor's size
        // assertion (and downstream uses of the metadata) panic-free.
        if graph.n() != points.len() || meta.n != points.len() as u64 {
            return Err(SnapshotError::Invalid {
                reason: format!(
                    "graph has {} vertices, meta stores n = {}, buffer holds {} points",
                    graph.n(),
                    meta.n,
                    points.len()
                ),
            });
        }
        if meta.entry_point as u64 >= meta.n {
            return Err(SnapshotError::Invalid {
                reason: format!(
                    "entry point {} out of range (n = {})",
                    meta.entry_point, meta.n
                ),
            });
        }
        if let Some(stored) = &quant {
            check_derived(stored, &points)?;
        }
        let data = points.into_dataset(M::from_tag());
        Ok((QueryEngine::new(graph, data), meta))
    }
}

/// Accepts a stored compact-points section (format version 2, or a
/// five-section version 3/4 file) only if it is, bit for bit, the store
/// [`QueryEngine::quantize`] derives from the loaded points — which is how
/// the loaded engine gets it back, so the section is checked, never kept.
fn check_derived(stored: &QuantSection, points: &FlatPoints) -> Result<(), SnapshotError> {
    let kind = match stored {
        QuantSection::F32 { .. } => QuantKind::F32,
        QuantSection::Sq8 { .. } => QuantKind::Sq8,
    };
    let rows: Vec<&[f64]> = points.rows().collect();
    let derived = CompactPoints::from_rows(kind, &rows)
        .map_err(|reason| SnapshotError::Invalid { reason })?;
    let same = match (stored, &derived) {
        (QuantSection::F32 { data }, CompactPoints::F32(p)) => data
            .iter()
            .map(|x| x.to_bits())
            .eq(p.data().iter().map(|x| x.to_bits())),
        (QuantSection::Sq8 { mins, steps, codes }, CompactPoints::Sq8(p)) => {
            let bits = |a: &[f64], b: &[f64]| {
                a.iter()
                    .map(|x| x.to_bits())
                    .eq(b.iter().map(|x| x.to_bits()))
            };
            codes.as_slice() == p.codes() && bits(mins, p.mins()) && bits(steps, p.steps())
        }
        _ => false,
    };
    if same {
        Ok(())
    } else {
        Err(SnapshotError::Invalid {
            reason: format!(
                "the stored {} section differs from the store the points derive",
                kind.name()
            ),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gnet::GNet;
    use pg_metric::{Dataset, QuantKind};

    fn flat_engine(n: usize, seed: u64) -> (QueryEngine<FlatRow, Euclidean>, GNetParams) {
        let points = FlatPoints::from_fn(n, 2, |i, out| {
            let x = ((i as u64).wrapping_mul(seed.wrapping_add(31)) % 97) as f64;
            out.push(x);
            out.push((i % 11) as f64);
        });
        let data = points.into_dataset(Euclidean);
        let g = GNet::build(&data, 1.0);
        (QueryEngine::new(g.graph, data), g.params)
    }

    fn temp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("pg_core_snap_{}_{name}.pgix", std::process::id()))
    }

    #[test]
    fn roundtrip_preserves_graph_points_and_meta() {
        let (engine, params) = flat_engine(80, 7);
        let path = temp("roundtrip");
        engine.save_with(&path, 5, Some(params.into())).unwrap();
        let (loaded, meta) = QueryEngine::<FlatRow, Euclidean>::load(&path).unwrap();
        std::fs::remove_file(&path).unwrap();

        assert_eq!(loaded.graph(), engine.graph());
        assert_eq!(loaded.data().len(), engine.data().len());
        for i in 0..engine.data().len() {
            assert_eq!(
                loaded.data().point(i).coords(),
                engine.data().point(i).coords()
            );
        }
        assert_eq!(meta.n, 80);
        assert_eq!(meta.dims, 2);
        assert_eq!(meta.entry_point, 5);
        assert_eq!(meta.metric, MetricTag::Euclidean);
        let b = meta.build.unwrap();
        assert_eq!(b.epsilon, params.epsilon);
        assert_eq!(b.eta, params.eta);
        assert_eq!(b.phi, params.phi);
    }

    #[test]
    fn nested_vec_engine_saves_and_loads_as_flat() {
        // Saving is layout-generic: a legacy Vec<Vec<f64>> engine persists
        // to the same format and loads back flat-backed.
        let pts: Vec<Vec<f64>> = (0..60).map(|i| vec![i as f64, (i % 9) as f64]).collect();
        let data = Dataset::new(pts, Euclidean);
        let g = GNet::build(&data, 1.0);
        let engine = QueryEngine::new(g.graph, data);
        let path = temp("nested");
        engine.save_with(&path, 0, None).unwrap();
        let (loaded, _) = QueryEngine::<FlatRow, Euclidean>::load(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(loaded.graph(), engine.graph());
        for i in 0..engine.data().len() {
            assert_eq!(loaded.data().point(i).coords(), &engine.data().point(i)[..]);
        }
    }

    #[test]
    fn metric_mismatch_is_a_typed_error() {
        let (engine, _) = flat_engine(40, 3);
        let path = temp("mismatch");
        engine.save_with(&path, 0, None).unwrap(); // tagged L2
        let err = QueryEngine::<FlatRow, Manhattan>::load(&path).unwrap_err();
        match err {
            SnapshotError::MetricMismatch { expected, found } => {
                assert_eq!(expected, MetricTag::Manhattan);
                assert_eq!(found, MetricTag::Euclidean);
            }
            other => panic!("got {other:?}"),
        }
        // The right metric still loads.
        assert!(QueryEngine::<FlatRow, Euclidean>::load(&path).is_ok());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn manhattan_and_chebyshev_roundtrip_under_their_own_tags() {
        let points = FlatPoints::from_fn(30, 3, |i, out| {
            out.extend([(i % 7) as f64, (i % 5) as f64, i as f64]);
        });
        let data = points.into_dataset(Manhattan);
        let g = GNet::build(&data, 1.0);
        let engine = QueryEngine::new(g.graph, data);
        let path = temp("l1");
        engine.save_with(&path, 0, None).unwrap();
        let (loaded, meta) = QueryEngine::<FlatRow, Manhattan>::load(&path).unwrap();
        assert_eq!(meta.metric, MetricTag::Manhattan);
        assert_eq!(loaded.graph(), engine.graph());
        // An L∞ loader refuses the L1 file.
        assert!(matches!(
            QueryEngine::<FlatRow, Chebyshev>::load(&path),
            Err(SnapshotError::MetricMismatch { .. })
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn out_of_range_entry_point_is_refused_at_save_time() {
        let (engine, _) = flat_engine(20, 1);
        let err = engine.to_snapshot(20, None).unwrap_err();
        assert!(matches!(err, SnapshotError::Invalid { .. }), "got {err:?}");
    }

    #[test]
    fn any_engine_loads_each_metric_and_answers_like_the_typed_engine() {
        let points = FlatPoints::from_fn(60, 2, |i, out| {
            out.extend([((i * 13) % 41) as f64, (i % 9) as f64]);
        });
        let queries: Vec<FlatRow> = (0..8)
            .map(|i| FlatRow::from(vec![(i * 5) as f64, (i % 3) as f64]))
            .collect();
        let starts = vec![0u32; queries.len()];

        // One roundtrip per metric: the tag in the file picks the variant.
        macro_rules! check_metric {
            ($metric:expr, $tag:expr, $variant:path) => {{
                let data = points.clone().into_dataset($metric);
                let g = GNet::build(&data, 1.0);
                let engine = QueryEngine::new(g.graph, data);
                let path = temp(&format!("any_{}", $tag.code()));
                engine.save_with(&path, 0, None).unwrap();
                let (any, meta) = AnyEngine::load(&path).unwrap();
                std::fs::remove_file(&path).unwrap();
                assert_eq!(any.metric(), $tag);
                assert_eq!(meta.metric, $tag);
                assert_eq!(any.len(), 60);
                assert_eq!(any.dims(), 2);
                assert!(matches!(any, $variant(_)));
                // Answers forward bit-identically to the typed engine.
                let direct = engine.batch_beam_detailed(&starts, &queries, 8, 3);
                let through = any.batch_beam_detailed(&starts, &queries, 8, 3);
                assert_eq!(through.outcomes, direct.outcomes);
                assert_eq!(through.dist_comps, direct.dist_comps);
            }};
        }
        check_metric!(Euclidean, MetricTag::Euclidean, AnyEngine::Euclidean);
        check_metric!(Manhattan, MetricTag::Manhattan, AnyEngine::Manhattan);
        check_metric!(Chebyshev, MetricTag::Chebyshev, AnyEngine::Chebyshev);
    }

    #[test]
    fn any_engine_load_propagates_typed_errors() {
        let err = AnyEngine::load("/definitely/not/a/real/path.pgix").unwrap_err();
        assert!(matches!(err, SnapshotError::Io(_)), "got {err:?}");
    }

    #[test]
    fn quantized_roundtrip_restores_engine_and_compact_store() {
        // A snapshot carrying a compact-points section (format version 2)
        // loads, and the store `quantize` derives from the loaded points is
        // the stored one; a section that differs in one bit is refused.
        for kind in [QuantKind::F32, QuantKind::Sq8] {
            let (engine, params) = flat_engine(60, 11);
            let compact = engine.quantize(kind).unwrap();
            let mut snap = engine.to_snapshot(3, Some(params.into())).unwrap();
            snap.quant = Some(match &compact {
                CompactPoints::F32(p) => QuantSection::F32 {
                    data: p.data().to_vec(),
                },
                CompactPoints::Sq8(p) => QuantSection::Sq8 {
                    mins: p.mins().to_vec(),
                    steps: p.steps().to_vec(),
                    codes: p.codes().to_vec(),
                },
            });
            let path = temp(&format!("quant_{}", kind.name()));
            snap.save(&path).unwrap();
            let (loaded, meta) = QueryEngine::<FlatRow, Euclidean>::load(&path).unwrap();
            std::fs::remove_file(&path).unwrap();

            assert_eq!(loaded.graph(), engine.graph());
            assert_eq!(meta.entry_point, 3);
            let back = loaded.quantize(kind).unwrap();
            assert_eq!(back, compact, "compact store changed across the disk");
            // Quantized search after the round-trip answers exactly like
            // before it.
            let queries: Vec<FlatRow> = (0..6)
                .map(|i| FlatRow::from(vec![(i * 9 % 50) as f64, (i % 5) as f64]))
                .collect();
            let starts = vec![0u32; queries.len()];
            let a = engine.batch_beam_quantized_detailed(&compact, &starts, &queries, 8, 3);
            let b = loaded.batch_beam_quantized_detailed(&back, &starts, &queries, 8, 3);
            assert_eq!(a.outcomes, b.outcomes);
            assert_eq!(a.dist_comps, b.dist_comps);

            match snap.quant.as_mut().unwrap() {
                QuantSection::F32 { data } => data[7] = f32::from_bits(data[7].to_bits() ^ 1),
                QuantSection::Sq8 { codes, .. } => codes[7] ^= 1,
            }
            let err = QueryEngine::<FlatRow, Euclidean>::from_snapshot(snap).unwrap_err();
            assert!(matches!(err, SnapshotError::Invalid { .. }), "got {err:?}");
        }
    }

    #[test]
    fn tampered_file_fails_loading_with_a_typed_error() {
        // End-to-end: corrupt the saved file on disk, then load through the
        // typed engine path — the error must be typed, not a panic.
        let (engine, _) = flat_engine(25, 9);
        let path = temp("tamper");
        engine.save_with(&path, 0, None).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let err = QueryEngine::<FlatRow, Euclidean>::load(&path).unwrap_err();
        std::fs::remove_file(&path).unwrap();
        assert!(
            matches!(err, SnapshotError::ChecksumMismatch { .. }),
            "got {err:?}"
        );
    }
}
