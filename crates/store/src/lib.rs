//! Versioned on-disk index snapshots — the durable boundary between
//! offline construction and online serving.
//!
//! The paper's pipeline is build-once, query-many: constructing `G_net`
//! (Theorem 1.1) is the expensive phase, while queries are cheap greedy
//! walks. A serving system therefore builds the index offline, persists it,
//! and loads it for online traffic — this crate defines that persistence
//! layer as a small, hand-rolled binary format over `std::io` with **no
//! external dependencies** (the build environment has no crates.io access;
//! see `crates/compat/README.md`).
//!
//! A [`Snapshot`] is the raw, serialization-ready view of an index:
//!
//! * [`IndexMeta`] — metric tag, dimensionality, point count, entry point,
//!   and optional build parameters (`ε`, `η`, `φ`);
//! * the CSR graph arrays (`offsets`, `targets`) exactly as `pg_core`'s
//!   `Graph` stores them;
//! * the flat row-major coordinate buffer exactly as `pg_metric`'s
//!   `FlatPoints` stores it.
//!
//! This crate depends on nothing and knows nothing about graphs or metrics
//! beyond these raw arrays; `pg_core::snapshot` does the typed wiring
//! (`QueryEngine::save_with` / `QueryEngine::load`) and re-validates the
//! graph-level invariants on load.
//!
//! # File format (versions 1 to 4)
//!
//! Everything is **little-endian**. The byte-level layout table lives in
//! `ARCHITECTURE.md` at the repository root (§ "Index snapshots"); in
//! brief: a 16-byte header (magic `PGIXSNAP`, `format_version`,
//! `section_count`), followed by three framed sections (`META`, `GRPH`,
//! `PNTS`) in that fixed order, each carrying its payload length and an
//! FNV-1a 64 checksum ([`checksum`]) of the payload.
//!
//! One private table, `layouts`, is the one place that lists the sections
//! each version carries: the writer picks the first version whose list
//! holds its sections, and the reader accepts exactly those lists, reads
//! every frame through one frame reader that checks the checksum before
//! anything is interpreted, and only then decodes. Every byte goes through
//! [`codec`], the workspace's one little-endian codec, which `pg_serve`'s
//! wire frames share.
//!
//! Version 2 **appends** exactly one more framed section carrying a
//! compact-points store ([`QuantSection`]): tag `PN32` (row-major `f32`
//! coordinates) or `PNQ8` (8-bit scalar-quantized codes with per-dimension
//! affine parameters). Append-only evolution: the first three sections are
//! byte-identical to version 1, a plain snapshot still writes version 1,
//! and readers accept both versions — so every version-1 file on disk
//! stays loadable forever. This crate parses and re-writes the section
//! byte for byte; the typed loader treats it as derived data — it checks
//! the section against the store the points quantize to, and a typed
//! re-save drops it.
//!
//! Version 3 appends one more framed section, `BAND`, after the version 1
//! **or** version 2 body: the band ladder of a graph whose rows are stored
//! by edge-length band ([`BandSection`]; `GRPH`'s rows are then in band
//! order). A snapshot without a ladder still writes version 1 or 2,
//! byte-for-byte.
//!
//! Version 4 is version 3 plus one byte at the end of `BAND`: the ladder's
//! resolution, the mantissa bits a band key carries next to the exponent
//! (1 to [`MAX_BAND_RESOLUTION`]). A ladder at resolution 0 — every ladder
//! a version 3 file holds — still writes version 3, byte-for-byte.
//!
//! Corrupt, truncated, or incompatible files **never panic and never yield
//! a partially-read index**: every failure is a typed [`SnapshotError`],
//! and a [`Snapshot`] is only returned after all checksums and structural
//! cross-checks pass.
//!
//! Writes are **atomic and durable**: [`Snapshot::save`] stages the bytes
//! in a temporary sibling file, `sync_all`s it, and renames it over the
//! destination, so a reader never observes a torn snapshot and a crash
//! mid-save leaves the previous file intact (see [`Snapshot::save`] for
//! the full crash-safety contract). The I/O steps carry `pg_fault`
//! failpoints ([`sites`]) behind the `failpoints` cargo feature, and
//! `tests/chaos.rs` drives every one of them.
//!
//! ```
//! use pg_store::{BuildParams, IndexMeta, MetricTag, Snapshot};
//!
//! let snap = Snapshot {
//!     meta: IndexMeta {
//!         metric: MetricTag::Euclidean,
//!         dims: 2,
//!         n: 3,
//!         entry_point: 0,
//!         build: Some(BuildParams { epsilon: 1.0, eta: 2, phi: 9.0 }),
//!     },
//!     offsets: vec![0, 2, 3, 4],
//!     targets: vec![1, 2, 0, 0],
//!     coords: vec![0.0, 0.0, 3.0, 4.0, 0.0, 1.0],
//!     quant: None,
//!     bands: None,
//! };
//! let bytes = snap.to_bytes().unwrap();
//! let back = Snapshot::from_bytes(&bytes).unwrap();
//! assert_eq!(back, snap);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod codec;

use std::fmt;
use std::path::{Path, PathBuf};

use codec::{push, push_all, Reader, Truncated};

/// The 8-byte magic prefix of every snapshot file.
pub const MAGIC: [u8; 8] = *b"PGIXSNAP";

/// The snapshot format version written for snapshots **without** a
/// quantized section — the original three-section layout, byte-for-byte.
///
/// Versioning rule: readers accept exactly the versions they know
/// (currently `1`, [`FORMAT_VERSION_QUANT`], [`FORMAT_VERSION_BANDS`] and
/// [`FORMAT_VERSION_BAND_RESOLUTION`]) and reject any other with
/// [`SnapshotError::UnsupportedVersion`] — a new layout means a version
/// bump, never a silent reinterpretation of old bytes.
pub const FORMAT_VERSION: u32 = 1;

/// The snapshot format version written when a quantized-points section
/// ([`QuantSection`]; tag `PN32` or `PNQ8`) is appended after `PNTS`.
pub const FORMAT_VERSION_QUANT: u32 = 2;

/// The snapshot format version written when the graph is banded: the
/// version 1 or version 2 body with one [`BandSection`] (tag `BAND`)
/// appended — four or five sections — and the ladder is at resolution 0.
pub const FORMAT_VERSION_BANDS: u32 = 3;

/// The snapshot format version written when the band ladder's resolution is
/// not 0: version 3 with [`BandSection::resolution`] as one more byte at
/// the end of `BAND`. The newest version this crate reads.
pub const FORMAT_VERSION_BAND_RESOLUTION: u32 = 4;

/// The finest [`BandSection::resolution`]: eight sub-bands per octave.
pub const MAX_BAND_RESOLUTION: u8 = 3;

/// Bytes of the fixed file header: magic + `format_version` +
/// `section_count`.
pub const HEADER_LEN: usize = 8 + 4 + 4;

/// Bytes of a section frame preceding each payload: 4-byte ASCII tag +
/// `payload_len: u64` + `checksum: u64`.
pub const SECTION_HEADER_LEN: usize = 4 + 8 + 8;

/// FNV-1a 64-bit hash — the per-section checksum function of the format
/// and the single home of the hash constants (offset basis
/// `0xcbf29ce484222325`, prime `0x100000001b3`).
///
/// Chosen because it is tiny, dependency-free, byte-order independent and
/// fully specified, so independent implementations of the format can
/// reproduce it exactly.
///
/// ```
/// use pg_store::checksum;
///
/// assert_eq!(checksum(b""), 0xcbf29ce484222325); // the offset basis
/// assert_eq!(checksum(b"a"), 0xaf63dc4c8601ec8c);
/// ```
pub fn checksum(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf29ce484222325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x100000001b3)
    })
}

/// Identifies which metric an index was built under.
///
/// Version 1 covers the three `L_p` metrics the experiments run on; new
/// metrics append new codes (existing codes are frozen forever).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricTag {
    /// `L_2` (code 0) — `pg_metric::Euclidean`.
    Euclidean,
    /// `L_1` (code 1) — `pg_metric::Manhattan`.
    Manhattan,
    /// `L_inf` (code 2) — `pg_metric::Chebyshev`.
    Chebyshev,
}

impl MetricTag {
    /// The on-disk `u32` code.
    pub fn code(self) -> u32 {
        match self {
            MetricTag::Euclidean => 0,
            MetricTag::Manhattan => 1,
            MetricTag::Chebyshev => 2,
        }
    }

    /// Decodes an on-disk code, `None` for unknown codes.
    pub fn from_code(code: u32) -> Option<Self> {
        match code {
            0 => Some(MetricTag::Euclidean),
            1 => Some(MetricTag::Manhattan),
            2 => Some(MetricTag::Chebyshev),
            _ => None,
        }
    }
}

impl fmt::Display for MetricTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MetricTag::Euclidean => write!(f, "L2 (Euclidean)"),
            MetricTag::Manhattan => write!(f, "L1 (Manhattan)"),
            MetricTag::Chebyshev => write!(f, "Linf (Chebyshev)"),
        }
    }
}

/// The sections of a snapshot, in file order. Every version shares the
/// first three; version 2 appends exactly one of the two quantized tags;
/// versions 3 and 4 append `BAND` to either body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SectionTag {
    /// `META`: index metadata ([`IndexMeta`]).
    Meta,
    /// `GRPH`: the CSR graph arrays.
    Graph,
    /// `PNTS`: the flat coordinate buffer.
    Points,
    /// `PN32` (the "PNTS32" section): row-major `f32` coordinates —
    /// versions 2 to 4, after `PNTS`.
    Points32,
    /// `PNQ8` (the "PNTSQ8" section): 8-bit scalar-quantized codes with
    /// per-dimension affine parameters — versions 2 to 4, after `PNTS`.
    PointsSq8,
    /// `BAND`: the band ladder of a banded graph ([`BandSection`]) —
    /// versions 3 and 4 only, always last.
    Bands,
    /// `MANI`: the single checksummed payload of a [`ShardManifest`] file
    /// (not a section of `PGIXSNAP` snapshots — named here so manifest
    /// corruption reports through the same [`SnapshotError::ChecksumMismatch`]).
    Manifest,
}

impl SectionTag {
    /// The 4-byte ASCII tag written to disk.
    pub fn bytes(self) -> [u8; 4] {
        match self {
            SectionTag::Meta => *b"META",
            SectionTag::Graph => *b"GRPH",
            SectionTag::Points => *b"PNTS",
            SectionTag::Points32 => *b"PN32",
            SectionTag::PointsSq8 => *b"PNQ8",
            SectionTag::Bands => *b"BAND",
            SectionTag::Manifest => *b"MANI",
        }
    }

    /// The tag whose on-disk bytes are `raw`, `None` for unknown bytes.
    fn parse(raw: &[u8]) -> Option<Self> {
        use SectionTag::*;
        [Meta, Graph, Points, Points32, PointsSq8, Bands, Manifest]
            .into_iter()
            .find(|tag| tag.bytes() == raw)
    }
}

impl fmt::Display for SectionTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.bytes();
        write!(f, "{}", String::from_utf8_lossy(&b))
    }
}

/// The `G_net` build parameters recorded in a snapshot (Eqs. 3–4 of the
/// paper), so a loaded index knows the guarantee it was built for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BuildParams {
    /// The approximation slack `ε ∈ (0, 1]` — greedy on the stored graph
    /// returns a `(1+ε)`-ANN.
    pub epsilon: f64,
    /// `η = ceil(log2(1 + 2/ε))` (Eq. 3).
    pub eta: u32,
    /// `φ = 1 + 2^{η+1}` (Eq. 4).
    pub phi: f64,
}

/// Index metadata: everything about a stored index that is not the graph or
/// the coordinates themselves.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IndexMeta {
    /// The metric the index was built under. Typed loaders refuse a
    /// mismatching file (`SnapshotError::MetricMismatch`).
    pub metric: MetricTag,
    /// Point dimensionality `d` (row stride of the coordinate buffer).
    pub dims: u32,
    /// Number of points `n` (and graph vertices).
    pub n: u64,
    /// Suggested start vertex for greedy routing (e.g. a top-level net
    /// center). Always a valid id `< n`; writers that track no entry point
    /// store `0`.
    pub entry_point: u32,
    /// Build parameters, if the writer recorded them.
    pub build: Option<BuildParams>,
}

/// Which quantized-points section a version-2 snapshot carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuantTag {
    /// `PN32`: row-major `f32` coordinates.
    F32,
    /// `PNQ8`: 8-bit scalar-quantized codes with per-dimension affine
    /// parameters.
    Sq8,
}

impl QuantTag {
    /// The section tag this quantization kind is framed with on disk.
    pub fn section(self) -> SectionTag {
        match self {
            QuantTag::F32 => SectionTag::Points32,
            QuantTag::Sq8 => SectionTag::PointsSq8,
        }
    }
}

/// The payload of a version-2 quantized-points section: a compact copy of
/// the coordinate matrix in one of two precisions. The exact `f64` buffer
/// in [`Snapshot::coords`] is always present alongside — the compact store
/// serves surrogate navigation, the exact one serves re-ranking.
#[derive(Debug, Clone, PartialEq)]
pub enum QuantSection {
    /// Row-major `n × dims` coordinates narrowed to `f32` (`PN32`).
    F32 {
        /// The `f32` coordinate buffer, length `n * dims`.
        data: Vec<f32>,
    },
    /// Per-dimension affine 8-bit codes (`PNQ8`):
    /// `decode(i, j) = mins[j] + codes[i*dims + j] * steps[j]`.
    Sq8 {
        /// Per-dimension minimum, length `dims`, all finite.
        mins: Vec<f64>,
        /// Per-dimension step `(max - min) / 255`, length `dims`, all
        /// finite and `>= 0` (`0` for a constant dimension).
        steps: Vec<f64>,
        /// Row-major `n × dims` code buffer.
        codes: Vec<u8>,
    },
}

impl QuantSection {
    /// Which quantization kind this section stores.
    pub fn tag(&self) -> QuantTag {
        match self {
            QuantSection::F32 { .. } => QuantTag::F32,
            QuantSection::Sq8 { .. } => QuantTag::Sq8,
        }
    }
}

/// The payload of a `BAND` section (versions 3 and 4): the band ladder of a
/// graph whose rows are stored by edge-length band, exactly as `pg_core`'s
/// `Graph` holds it. Row `v` owns entries `offsets[v]..offsets[v + 1]` of
/// `exps` and `ends`: its band keys (the biased binary exponent and top
/// `resolution` mantissa bits of the edge lengths, strictly ascending,
/// `<= 0x7ff << resolution`) and where each ends inside the row (counted
/// from the row's start, strictly increasing, the last one the row's
/// degree). With a ladder present, [`Snapshot::targets`] lists each row in
/// band order, ids ascending inside a band.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BandSection {
    /// Mantissa bits in a band key, at most [`MAX_BAND_RESOLUTION`]. 0 (one
    /// band per octave, all a version 3 file can say) writes version 3,
    /// anything else version 4.
    pub resolution: u8,
    /// Ladder offsets, length `n + 1`, `offsets[0] == 0`, non-decreasing,
    /// ending at the band count.
    pub offsets: Vec<u64>,
    /// The band of every run.
    pub exps: Vec<u16>,
    /// The end of every run within its row.
    pub ends: Vec<u32>,
}

/// Everything a snapshot stores, in memory: metadata plus the raw CSR and
/// coordinate arrays. See the module docs for the invariants
/// ([`Snapshot::validate`] checks them on both the write and the read path).
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Index metadata.
    pub meta: IndexMeta,
    /// CSR row offsets, length `n + 1`, `offsets[0] == 0`, non-decreasing,
    /// `offsets[n] == targets.len()`.
    pub offsets: Vec<u64>,
    /// CSR edge targets (out-neighbor ids, each `< n`). Graph-level
    /// invariants (per-row sortedness, no self-loops) are re-validated by
    /// the typed loader in `pg_core`.
    pub targets: Vec<u32>,
    /// Row-major `n × dims` coordinate buffer, all values finite.
    pub coords: Vec<f64>,
    /// Optional compact-points section. `None` writes a version-1 file,
    /// byte-identical to snapshots from before quantization existed;
    /// `Some` writes version 2 with the extra section appended.
    pub quant: Option<QuantSection>,
    /// The band ladder of a banded graph. `None` leaves the version (1 or
    /// 2) and every byte as they were; `Some` writes version 3 or 4 (by the
    /// ladder's resolution) with the ladder appended last.
    pub bands: Option<BandSection>,
}

/// Every way reading or writing a snapshot can fail. No variant is ever
/// produced by panicking, and no partially-read index escapes: a failed
/// [`Snapshot::from_bytes`] returns nothing but the error.
#[derive(Debug)]
pub enum SnapshotError {
    /// Underlying file I/O failed.
    Io(std::io::Error),
    /// The file does not start with the [`MAGIC`] bytes — not a snapshot.
    BadMagic,
    /// The file's `format_version` is not one this reader knows: for a
    /// snapshot, anything outside [`FORMAT_VERSION`] to
    /// [`FORMAT_VERSION_BAND_RESOLUTION`] (version 0 included); for a shard
    /// manifest, anything but [`SHARD_MANIFEST_VERSION`].
    UnsupportedVersion {
        /// The version found in the file.
        found: u32,
    },
    /// The data ended before a complete structure could be read.
    Truncated {
        /// What was being read when the bytes ran out.
        context: &'static str,
    },
    /// A section's stored checksum does not match its payload.
    ChecksumMismatch {
        /// The section whose payload is corrupt.
        section: SectionTag,
    },
    /// A typed loader asked for one metric but the file stores another.
    MetricMismatch {
        /// The metric the loader expected.
        expected: MetricTag,
        /// The metric recorded in the file.
        found: MetricTag,
    },
    /// The bytes parse but violate a structural invariant (unknown codes,
    /// inconsistent counts, non-monotone offsets, out-of-range ids, …).
    Invalid {
        /// Human-readable description of the violated invariant.
        reason: String,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot I/O error: {e}"),
            SnapshotError::BadMagic => {
                write!(f, "not a proximity-graphs index snapshot (bad magic)")
            }
            SnapshotError::UnsupportedVersion { found } => write!(
                f,
                "unsupported format version {found} (snapshots are versions \
                 {FORMAT_VERSION} to {FORMAT_VERSION_BAND_RESOLUTION}, shard manifests \
                 version {SHARD_MANIFEST_VERSION})"
            ),
            SnapshotError::Truncated { context } => {
                write!(f, "snapshot truncated while reading {context}")
            }
            SnapshotError::ChecksumMismatch { section } => {
                write!(f, "checksum mismatch in section {section}")
            }
            SnapshotError::MetricMismatch { expected, found } => write!(
                f,
                "metric mismatch: loader expected {expected}, snapshot stores {found}"
            ),
            SnapshotError::Invalid { reason } => write!(f, "invalid snapshot: {reason}"),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

/// Failpoint site names instrumented in this crate (see `pg_fault`).
///
/// The hooks behind them are compiled in only with the `failpoints` cargo
/// feature; the names themselves are always available so chaos suites can
/// enumerate every site (`sites::ALL`) and assert the failure contract at
/// each one.
pub mod sites {
    /// Writing the snapshot payload into the temporary file.
    /// `ShortWrite(n)` here persists an `n`-byte prefix then fails —
    /// a simulated crash mid-write.
    pub const SAVE_WRITE: &str = "store.save.write";
    /// Flushing the temporary file to stable storage (`sync_all`).
    pub const SAVE_SYNC: &str = "store.save.sync";
    /// Renaming the temporary file over the destination.
    pub const SAVE_RENAME: &str = "store.save.rename";
    /// Reading the snapshot file in [`crate::Snapshot::load`].
    pub const LOAD_READ: &str = "store.load.read";
    /// Every failpoint site this crate instruments.
    pub const ALL: &[&str] = &[SAVE_WRITE, SAVE_SYNC, SAVE_RENAME, LOAD_READ];
}

/// Asks `pg_fault` whether an injected fault should fire at `site`; any
/// fired fault becomes a plain `io::Error` here. Compiled to a no-op
/// without the `failpoints` feature.
#[cfg(feature = "failpoints")]
fn failpoint(site: &str) -> Result<(), std::io::Error> {
    match pg_fault::hit(site) {
        None => Ok(()),
        Some(fault) => Err(fault.into_io_error(site)),
    }
}

#[cfg(not(feature = "failpoints"))]
#[inline(always)]
fn failpoint(_site: &str) -> Result<(), std::io::Error> {
    Ok(())
}

/// Like [`failpoint`], but a `ShortWrite(n)` fault is returned as
/// `Ok(Some(n))` so the write path can persist a torn prefix first.
#[cfg(feature = "failpoints")]
fn failpoint_write(site: &str) -> Result<Option<usize>, std::io::Error> {
    match pg_fault::hit(site) {
        None => Ok(None),
        Some(pg_fault::Fault::ShortWrite(n)) => Ok(Some(n)),
        Some(fault) => Err(fault.into_io_error(site)),
    }
}

#[cfg(not(feature = "failpoints"))]
#[inline(always)]
fn failpoint_write(_site: &str) -> Result<Option<usize>, std::io::Error> {
    Ok(None)
}

/// A unique temporary sibling of `path`: same directory (so the final
/// `rename` never crosses a filesystem boundary), name extended with
/// `.tmp.<pid>.<seq>` (so concurrent savers in one or many processes
/// never collide).
fn tmp_sibling(path: &Path) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_else(|| std::ffi::OsString::from("snapshot"));
    name.push(format!(".tmp.{}.{seq}", std::process::id()));
    path.with_file_name(name)
}

/// The temp-file + `sync_all` + atomic-rename sequence behind
/// [`Snapshot::save`], with a failpoint ahead of each fallible step.
fn write_atomically(tmp: &Path, path: &Path, bytes: &[u8]) -> Result<(), std::io::Error> {
    use std::io::Write as _;
    let mut file = std::fs::File::create(tmp)?;
    if let Some(n) = failpoint_write(sites::SAVE_WRITE)? {
        // Simulated crash mid-write: persist a prefix of the payload in
        // the temp file, then fail. The destination is untouched.
        let prefix = bytes.get(..n.min(bytes.len())).unwrap_or(bytes);
        file.write_all(prefix)?;
        let _ = file.sync_all();
        return Err(std::io::Error::new(
            std::io::ErrorKind::WriteZero,
            format!(
                "injected short write ({n} bytes) at `{}`",
                sites::SAVE_WRITE
            ),
        ));
    }
    file.write_all(bytes)?;
    failpoint(sites::SAVE_SYNC)?;
    file.sync_all()?;
    drop(file);
    failpoint(sites::SAVE_RENAME)?;
    std::fs::rename(tmp, path)?;
    // Durability of the rename itself: sync the parent directory so the
    // new entry survives a crash. Best-effort — opening a directory is
    // not portable, and the data content is already safe either way.
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

fn invalid(reason: impl Into<String>) -> SnapshotError {
    SnapshotError::Invalid {
        reason: reason.into(),
    }
}

impl From<Truncated> for SnapshotError {
    fn from(t: Truncated) -> Self {
        SnapshotError::Truncated { context: t.context }
    }
}

/// Writes `bytes` to `path` through [`write_atomically`], removing the
/// temporary file best-effort if any step fails. (A hard crash can still
/// leave one; it is never read.)
fn save_bytes(path: &Path, bytes: &[u8]) -> Result<(), SnapshotError> {
    let tmp = tmp_sibling(path);
    let result = write_atomically(&tmp, path, bytes);
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    Ok(result?)
}

// ---------------------------------------------------------------------------
// Section layouts
// ---------------------------------------------------------------------------

/// What one section slot of a snapshot holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    /// Exactly this section (`META`, `GRPH` or `PNTS`).
    Tag(SectionTag),
    /// A compact-points store, `PN32` or `PNQ8`.
    Quant,
    /// `BAND`, ending in the ladder's resolution byte when `true`.
    Bands(bool),
}

impl Slot {
    /// Whether a section tagged `tag` may fill this slot.
    fn admits(self, tag: SectionTag) -> bool {
        match self {
            Slot::Tag(want) => tag == want,
            Slot::Quant => matches!(tag, SectionTag::Points32 | SectionTag::PointsSq8),
            Slot::Bands(_) => tag == SectionTag::Bands,
        }
    }
}

impl fmt::Display for Slot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Slot::Tag(tag) => write!(f, "section {tag}"),
            Slot::Quant => write!(f, "a quantized section (PN32 or PNQ8)"),
            Slot::Bands(_) => write!(f, "section {}", SectionTag::Bands),
        }
    }
}

/// The section sequences a snapshot of format `version` may carry, in file
/// order; empty for a version this crate does not read. This is the one
/// place that lists each version's sections: [`Snapshot::to_bytes`] writes
/// the first version that carries its sections, and
/// [`Snapshot::from_bytes`] accepts exactly these sequences.
fn layouts(version: u32) -> &'static [&'static [Slot]] {
    use Slot::{Bands, Quant};
    const META: Slot = Slot::Tag(SectionTag::Meta);
    const GRPH: Slot = Slot::Tag(SectionTag::Graph);
    const PNTS: Slot = Slot::Tag(SectionTag::Points);
    match version {
        FORMAT_VERSION => &[&[META, GRPH, PNTS]],
        FORMAT_VERSION_QUANT => &[&[META, GRPH, PNTS, Quant]],
        FORMAT_VERSION_BANDS => &[
            &[META, GRPH, PNTS, Bands(false)],
            &[META, GRPH, PNTS, Quant, Bands(false)],
        ],
        FORMAT_VERSION_BAND_RESOLUTION => &[
            &[META, GRPH, PNTS, Bands(true)],
            &[META, GRPH, PNTS, Quant, Bands(true)],
        ],
        _ => &[],
    }
}

/// Reads one section frame — the 4-byte tag, `payload_len: u64`,
/// `checksum: u64`, the payload — and returns the tag and the payload once
/// the payload's checksum matches.
fn read_section<'a>(cur: &mut Reader<'a>) -> Result<(SectionTag, &'a [u8]), SnapshotError> {
    let raw = cur.take(4, "section tag")?;
    let tag = SectionTag::parse(raw).ok_or_else(|| {
        invalid(format!(
            "unknown section tag {:?}",
            String::from_utf8_lossy(raw)
        ))
    })?;
    let len = usize::try_from(cur.read::<u64>("section length")?)
        .map_err(|_| invalid("section length exceeds addressable memory"))?;
    let stored: u64 = cur.read("section checksum")?;
    let payload = cur.take(len, "section payload")?;
    if checksum(payload) != stored {
        return Err(SnapshotError::ChecksumMismatch { section: tag });
    }
    Ok((tag, payload))
}

// ---------------------------------------------------------------------------
// Writing and reading
// ---------------------------------------------------------------------------

impl Snapshot {
    /// Serializes into the on-disk byte layout: `META`, `GRPH` and `PNTS`,
    /// then the compact-points section if [`Snapshot::quant`] is `Some`,
    /// then `BAND` if [`Snapshot::bands`] is `Some`, under the first format
    /// version that carries those sections — 1 for the plain body (byte for
    /// byte what pre-quantization writers wrote), 2 with the compact
    /// section, 3 with a ladder at resolution 0 and 4 with any other.
    /// Runs [`Snapshot::validate`] first, so a structurally broken
    /// `Snapshot` is refused at write time rather than producing an
    /// unreadable file.
    pub fn to_bytes(&self) -> Result<Vec<u8>, SnapshotError> {
        self.validate()?;
        let (n, dims) = (self.meta.n, self.meta.dims);
        let body = |tag, payload| (Slot::Tag(tag), tag, payload);
        let mut sections = vec![
            body(SectionTag::Meta, self.encode_meta()),
            body(SectionTag::Graph, self.encode_graph()),
            body(SectionTag::Points, self.encode_points()),
        ];
        if let Some(quant) = &self.quant {
            let tag = quant.tag().section();
            sections.push((Slot::Quant, tag, encode_quant(quant, n, dims)));
        }
        if let Some(bands) = &self.bands {
            let slot = Slot::Bands(bands.resolution != 0);
            sections.push((slot, SectionTag::Bands, encode_bands(bands, n)));
        }
        let slots: Vec<Slot> = sections.iter().map(|&(slot, ..)| slot).collect();
        let version = (FORMAT_VERSION..=FORMAT_VERSION_BAND_RESOLUTION)
            .find(|&v| layouts(v).contains(&slots.as_slice()))
            .ok_or_else(|| invalid("no format version carries these sections"))?;

        let total = HEADER_LEN
            + sections.len() * SECTION_HEADER_LEN
            + sections.iter().map(|(.., p)| p.len()).sum::<usize>();
        let mut out = Vec::with_capacity(total);
        out.extend_from_slice(&MAGIC);
        push(&mut out, version);
        push(&mut out, sections.len() as u32);
        for (_, tag, payload) in &sections {
            out.extend_from_slice(&tag.bytes());
            push(&mut out, payload.len() as u64);
            push(&mut out, checksum(payload));
            out.extend_from_slice(payload);
        }
        Ok(out)
    }

    /// Writes the snapshot to `path`, creating or overwriting the file
    /// **atomically and durably**.
    ///
    /// # Crash safety
    ///
    /// The bytes go to a fresh temporary file (`<name>.tmp.<pid>.<seq>`)
    /// in `path`'s own directory, are flushed to stable storage with
    /// `sync_all`, and only then renamed over `path` — and `rename(2)`
    /// within one filesystem is atomic. A concurrent or subsequent reader
    /// (in particular `pg_serve`'s `swap_from_path`) therefore observes
    /// either the complete previous file or the complete new one, never a
    /// torn prefix: the mid-write race that used to surface as a spurious
    /// `ChecksumMismatch` is structurally impossible. A crash mid-save
    /// leaves at worst a `.tmp.*` sibling (which no reader ever opens)
    /// plus the previous snapshot intact; on any save error the temporary
    /// file is removed best-effort. After the rename, the parent
    /// directory is `sync_all`-ed (best-effort — not every platform lets
    /// a directory be opened) so the new directory entry is durable too.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), SnapshotError> {
        save_bytes(path.as_ref(), &self.to_bytes()?)
    }

    /// Parses a snapshot from bytes. Never panics: truncation, corruption,
    /// unknown versions and structural violations all surface as the
    /// matching [`SnapshotError`] variant, and nothing is returned unless
    /// the whole file — header, every section checksum, all cross-checks —
    /// verifies. Every section is framed and checksummed before any is
    /// decoded, so a corrupt byte fails as corruption.
    pub fn from_bytes(bytes: &[u8]) -> Result<Snapshot, SnapshotError> {
        let mut cur = Reader::new(bytes);
        if cur.take(8, "magic")? != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version: u32 = cur.read("format version")?;
        let layouts = layouts(version);
        if layouts.is_empty() {
            return Err(SnapshotError::UnsupportedVersion { found: version });
        }
        let sections: u32 = cur.read("section count")?;
        let layout = layouts
            .iter()
            .find(|layout| layout.len() as u64 == u64::from(sections))
            .ok_or_else(|| {
                let counts: Vec<String> = layouts.iter().map(|l| l.len().to_string()).collect();
                invalid(format!(
                    "version {version} snapshots have {} sections, found {sections}",
                    counts.join(" or ")
                ))
            })?;
        let mut framed = Vec::with_capacity(layout.len());
        for &slot in layout.iter() {
            let (tag, payload) = read_section(&mut cur)?;
            if !slot.admits(tag) {
                return Err(invalid(format!("expected {slot}, found tag {tag}")));
            }
            framed.push((slot, tag, payload));
        }
        if !cur.rest().is_empty() {
            return Err(invalid(format!(
                "{} trailing bytes after the last section",
                cur.rest().len()
            )));
        }

        // Every layout leads with META, which the other sections are
        // checked against.
        let [(_, _, meta), rest @ ..] = framed.as_slice() else {
            return Err(invalid("a snapshot needs a META section"));
        };
        let meta = decode_meta(meta)?;
        let mut snap = Snapshot {
            meta,
            offsets: Vec::new(),
            targets: Vec::new(),
            coords: Vec::new(),
            quant: None,
            bands: None,
        };
        for &(slot, tag, payload) in rest {
            match slot {
                Slot::Tag(SectionTag::Graph) => {
                    (snap.offsets, snap.targets) = decode_graph(payload, &meta)?
                }
                // PNTS: only the first slot of a layout is META.
                Slot::Tag(_) => snap.coords = decode_points(payload, &meta)?,
                Slot::Quant => snap.quant = Some(decode_quant(tag, payload, &meta)?),
                Slot::Bands(resolution) => {
                    snap.bands = Some(decode_bands(payload, &meta, resolution)?)
                }
            }
        }
        snap.validate()?;
        Ok(snap)
    }

    /// Loads a snapshot from a file.
    pub fn load(path: impl AsRef<Path>) -> Result<Snapshot, SnapshotError> {
        failpoint(sites::LOAD_READ)?;
        let bytes = std::fs::read(path)?;
        Snapshot::from_bytes(&bytes)
    }

    fn encode_meta(&self) -> Vec<u8> {
        let mut p = Vec::with_capacity(44);
        push(&mut p, self.meta.metric.code());
        push(&mut p, self.meta.dims);
        push(&mut p, self.meta.n);
        push(&mut p, self.meta.entry_point);
        push(&mut p, self.meta.build.is_some() as u32);
        let b = self.meta.build.unwrap_or(BuildParams {
            epsilon: 0.0,
            eta: 0,
            phi: 0.0,
        });
        push(&mut p, b.epsilon);
        push(&mut p, b.eta);
        push(&mut p, b.phi);
        p
    }

    fn encode_graph(&self) -> Vec<u8> {
        let mut p = Vec::with_capacity(16 + 8 * self.offsets.len() + 4 * self.targets.len());
        push(&mut p, self.meta.n);
        push(&mut p, self.targets.len() as u64);
        push_all(&mut p, &self.offsets);
        push_all(&mut p, &self.targets);
        p
    }

    fn encode_points(&self) -> Vec<u8> {
        let mut p = Vec::with_capacity(12 + 8 * self.coords.len());
        push(&mut p, self.meta.n);
        push(&mut p, self.meta.dims);
        push_all(&mut p, &self.coords);
        p
    }

    /// Checks every structural invariant of the snapshot (see the field docs
    /// on [`Snapshot`] and [`IndexMeta`]). Called on both the write and the
    /// read path, so files on disk and snapshots handed to `pg_core` are
    /// equally vetted.
    pub fn validate(&self) -> Result<(), SnapshotError> {
        let n = self.meta.n;
        if n == 0 {
            return Err(invalid("index holds zero points"));
        }
        if self.meta.dims == 0 {
            return Err(invalid("dimensionality must be at least 1"));
        }
        if Some(self.offsets.len() as u64) != n.checked_add(1) {
            return Err(invalid(format!(
                "offsets length {} does not match n + 1 (n = {n})",
                self.offsets.len()
            )));
        }
        if self.offsets.first() != Some(&0) {
            return Err(invalid("offsets must start at 0"));
        }
        if self
            .offsets
            .windows(2)
            .any(|w| matches!(w, [a, b] if a > b))
        {
            return Err(invalid("offsets must be non-decreasing"));
        }
        let final_offset = self.offsets.last().copied().unwrap_or_default();
        if final_offset != self.targets.len() as u64 {
            return Err(invalid(format!(
                "final offset {} does not match edge count {}",
                final_offset,
                self.targets.len()
            )));
        }
        if let Some(&t) = self.targets.iter().find(|&&t| t as u64 >= n) {
            return Err(invalid(format!("edge target {t} out of range (n = {n})")));
        }
        if self.meta.entry_point as u64 >= n {
            return Err(invalid(format!(
                "entry point {} out of range (n = {n})",
                self.meta.entry_point
            )));
        }
        let expect_coords = n
            .checked_mul(self.meta.dims as u64)
            .ok_or_else(|| invalid("n * dims overflows"))?;
        if self.coords.len() as u64 != expect_coords {
            return Err(invalid(format!(
                "coordinate buffer holds {} values, expected n * dims = {expect_coords}",
                self.coords.len()
            )));
        }
        if self.coords.iter().any(|c| !c.is_finite()) {
            return Err(invalid("non-finite coordinate"));
        }
        match &self.quant {
            None => {}
            Some(QuantSection::F32 { data }) => {
                if data.len() as u64 != expect_coords {
                    return Err(invalid(format!(
                        "PN32 section holds {} values, expected n * dims = {expect_coords}",
                        data.len()
                    )));
                }
                if data.iter().any(|c| !c.is_finite()) {
                    return Err(invalid("non-finite f32 quantized coordinate"));
                }
            }
            Some(QuantSection::Sq8 { mins, steps, codes }) => {
                if mins.len() != self.meta.dims as usize {
                    return Err(invalid(format!(
                        "PNQ8 mins length {} does not match dims {}",
                        mins.len(),
                        self.meta.dims
                    )));
                }
                if steps.len() != self.meta.dims as usize {
                    return Err(invalid(format!(
                        "PNQ8 steps length {} does not match dims {}",
                        steps.len(),
                        self.meta.dims
                    )));
                }
                if codes.len() as u64 != expect_coords {
                    return Err(invalid(format!(
                        "PNQ8 section holds {} codes, expected n * dims = {expect_coords}",
                        codes.len()
                    )));
                }
                if mins.iter().any(|m| !m.is_finite()) {
                    return Err(invalid("non-finite PNQ8 minimum"));
                }
                if steps.iter().any(|s| !s.is_finite() || *s < 0.0) {
                    return Err(invalid("PNQ8 step must be finite and non-negative"));
                }
            }
        }
        match &self.bands {
            None => Ok(()),
            Some(bands) => self.validate_bands(bands),
        }
    }

    /// The ladder half of [`Snapshot::validate`] (the CSR offsets are already
    /// vetted): the resolution, shape of the three arrays, then per row
    /// strictly ascending bands no larger than the resolution's largest key
    /// and strictly increasing ends that stop at the row's degree.
    /// What needs the targets row by row — ids ascending inside a band, no
    /// id in two bands — is re-validated by the typed loader in `pg_core`,
    /// with the other graph-level invariants.
    fn validate_bands(&self, bands: &BandSection) -> Result<(), SnapshotError> {
        if bands.resolution > MAX_BAND_RESOLUTION {
            return Err(invalid(format!(
                "band resolution {} above the largest supported, {MAX_BAND_RESOLUTION}",
                bands.resolution
            )));
        }
        // The key of an infinite length: one past the largest finite one.
        let largest_key = 0x7ffu16 << bands.resolution;
        if bands.offsets.len() != self.offsets.len() {
            return Err(invalid(format!(
                "band offsets length {} does not match n + 1 = {}",
                bands.offsets.len(),
                self.offsets.len()
            )));
        }
        if bands.ends.len() != bands.exps.len() {
            return Err(invalid(format!(
                "{} band ends for {} bands",
                bands.ends.len(),
                bands.exps.len()
            )));
        }
        if bands.offsets.first() != Some(&0) {
            return Err(invalid("band offsets must start at 0"));
        }
        if bands.offsets.last() != Some(&(bands.exps.len() as u64)) {
            return Err(invalid(format!(
                "final band offset does not match band count {}",
                bands.exps.len()
            )));
        }
        let rows = bands.offsets.windows(2).zip(self.offsets.windows(2));
        for (v, (ladder, row)) in rows.enumerate() {
            let (&[from, to], &[start, end]) = (ladder, row) else {
                continue; // windows(2) yields exactly 2-element slices
            };
            // `to <= band count` for every row once the offsets are
            // non-decreasing and end there, so the slices below exist.
            if from > to || to > bands.exps.len() as u64 {
                return Err(invalid("band offsets must be non-decreasing"));
            }
            let ladder = from as usize..to as usize;
            let exps = bands.exps.get(ladder.clone()).unwrap_or_default();
            let ends = bands.ends.get(ladder).unwrap_or_default();
            if exps.windows(2).any(|w| matches!(w, [a, b] if a >= b))
                || exps.last().is_some_and(|&e| e > largest_key)
            {
                return Err(invalid(format!(
                    "bands of row {v} are not strictly ascending band keys"
                )));
            }
            if ends.first() == Some(&0) || ends.windows(2).any(|w| matches!(w, [a, b] if a >= b)) {
                return Err(invalid(format!(
                    "band ends of row {v} are not strictly increasing"
                )));
            }
            if ends.last().map_or(0, |&e| u64::from(e)) != end - start {
                return Err(invalid(format!(
                    "band ladder of row {v} does not end at its degree {}",
                    end - start
                )));
            }
        }
        Ok(())
    }
}

/// Reads the `n: u64` a section payload leads with, checked against META's.
fn read_n(cur: &mut Reader<'_>, tag: SectionTag, meta: &IndexMeta) -> Result<u64, SnapshotError> {
    let n: u64 = cur.read("section n")?;
    if n != meta.n {
        return Err(invalid(format!(
            "{tag} section stores n = {n}, META stores n = {}",
            meta.n
        )));
    }
    Ok(n)
}

/// Reads the `n: u64` a `GRPH` or `BAND` payload leads with and returns
/// the number of row offsets that follow, `n + 1`.
fn read_rows(
    cur: &mut Reader<'_>,
    tag: SectionTag,
    meta: &IndexMeta,
) -> Result<usize, SnapshotError> {
    addressable(read_n(cur, tag, meta)?.saturating_add(1), "n + 1")
}

/// Reads the `n: u64` and `dims: u32` every points section leads with, both
/// checked against META, and returns the coordinate count `n * dims`.
fn read_point_count(
    cur: &mut Reader<'_>,
    tag: SectionTag,
    meta: &IndexMeta,
) -> Result<usize, SnapshotError> {
    let n = read_n(cur, tag, meta)?;
    let dims: u32 = cur.read("section dims")?;
    if dims != meta.dims {
        return Err(invalid(format!(
            "{tag} section stores dims = {dims}, META stores dims = {}",
            meta.dims
        )));
    }
    addressable(n.saturating_mul(u64::from(dims)), "n * dims")
}

fn addressable(count: u64, what: &str) -> Result<usize, SnapshotError> {
    usize::try_from(count).map_err(|_| invalid(format!("{what} exceeds addressable memory")))
}

/// Refuses a section payload that is not exactly what its counts imply —
/// checked before any array is allocated, so a corrupt count cannot force
/// an oversized buffer.
fn exactly(
    cur: &Reader<'_>,
    tag: SectionTag,
    arrays: &[(usize, usize)],
) -> Result<(), SnapshotError> {
    cur.exactly(arrays).map_err(|implied| match implied {
        Some(implied) => invalid(format!(
            "{tag} section holds {} bytes, counts imply {implied}",
            cur.pos() + cur.rest().len()
        )),
        None => invalid(format!("{tag} section size overflows")),
    })
}

fn decode_meta(payload: &[u8]) -> Result<IndexMeta, SnapshotError> {
    let mut cur = Reader::new(payload);
    let code: u32 = cur.read("metric tag")?;
    let metric = MetricTag::from_code(code)
        .ok_or_else(|| invalid(format!("unknown metric tag code {code}")))?;
    let (dims, n, entry_point) = (cur.read("dims")?, cur.read("n")?, cur.read("entry point")?);
    let has_build: u32 = cur.read("build-params flag")?;
    if has_build > 1 {
        return Err(invalid(format!(
            "build-params flag must be 0 or 1, found {has_build}"
        )));
    }
    let build = BuildParams {
        epsilon: cur.read("epsilon")?,
        eta: cur.read("eta")?,
        phi: cur.read("phi")?,
    };
    if !cur.rest().is_empty() {
        return Err(invalid("META section has trailing bytes"));
    }
    Ok(IndexMeta {
        metric,
        dims,
        n,
        entry_point,
        build: (has_build == 1).then_some(build),
    })
}

fn decode_graph(payload: &[u8], meta: &IndexMeta) -> Result<(Vec<u64>, Vec<u32>), SnapshotError> {
    let mut cur = Reader::new(payload);
    let rows = read_rows(&mut cur, SectionTag::Graph, meta)?;
    let edges = addressable(cur.read("edge count")?, "edge count")?;
    exactly(&cur, SectionTag::Graph, &[(rows, 8), (edges, 4)])?;
    Ok((cur.array(rows, "offset")?, cur.array(edges, "edge target")?))
}

fn decode_points(payload: &[u8], meta: &IndexMeta) -> Result<Vec<f64>, SnapshotError> {
    let mut cur = Reader::new(payload);
    let count = read_point_count(&mut cur, SectionTag::Points, meta)?;
    exactly(&cur, SectionTag::Points, &[(count, 8)])?;
    Ok(cur.array(count, "coordinate")?)
}

/// Encodes a quantized-points section payload. Both layouts lead with the
/// same `n: u64` + `dims: u32` counts as `PNTS`, cross-checked against
/// `META` on read; `PN32` then stores `n * dims` `f32` coordinates, `PNQ8`
/// `dims` `f64` minima, `dims` `f64` steps, and `n * dims` code bytes.
fn encode_quant(quant: &QuantSection, n: u64, dims: u32) -> Vec<u8> {
    let mut p = Vec::new();
    push(&mut p, n);
    push(&mut p, dims);
    match quant {
        QuantSection::F32 { data } => push_all(&mut p, data),
        QuantSection::Sq8 { mins, steps, codes } => {
            push_all(&mut p, mins);
            push_all(&mut p, steps);
            p.extend_from_slice(codes);
        }
    }
    p
}

/// Decodes a `PN32` or `PNQ8` payload (see [`encode_quant`]).
fn decode_quant(
    tag: SectionTag,
    payload: &[u8],
    meta: &IndexMeta,
) -> Result<QuantSection, SnapshotError> {
    let mut cur = Reader::new(payload);
    let count = read_point_count(&mut cur, tag, meta)?;
    if tag == SectionTag::Points32 {
        exactly(&cur, tag, &[(count, 4)])?;
        let data = cur.array(count, "f32 coordinate")?;
        return Ok(QuantSection::F32 { data });
    }
    let dims = meta.dims as usize;
    exactly(&cur, tag, &[(dims, 16), (count, 1)])?;
    Ok(QuantSection::Sq8 {
        mins: cur.array(dims, "sq8 minimum")?,
        steps: cur.array(dims, "sq8 step")?,
        codes: cur.take(count, "sq8 codes")?.to_vec(),
    })
}

/// Encodes a `BAND` section payload: `n: u64`, the band count `B: u64`,
/// `n + 1` ladder offsets (`u64`), `B` bands (`u16`), `B` ends (`u32`) and —
/// version 4, i.e. unless it is 0 — the resolution (`u8`).
fn encode_bands(bands: &BandSection, n: u64) -> Vec<u8> {
    let mut p = Vec::with_capacity(17 + 8 * bands.offsets.len() + 6 * bands.exps.len());
    push(&mut p, n);
    push(&mut p, bands.exps.len() as u64);
    push_all(&mut p, &bands.offsets);
    push_all(&mut p, &bands.exps);
    push_all(&mut p, &bands.ends);
    if bands.resolution != 0 {
        push(&mut p, bands.resolution);
    }
    p
}

/// Decodes a `BAND` payload; `with_resolution` says whether the file's
/// version (4) ends it with the resolution byte.
fn decode_bands(
    payload: &[u8],
    meta: &IndexMeta,
    with_resolution: bool,
) -> Result<BandSection, SnapshotError> {
    let mut cur = Reader::new(payload);
    let rows = read_rows(&mut cur, SectionTag::Bands, meta)?;
    let count = addressable(cur.read("band count")?, "band count")?;
    let tail = (usize::from(with_resolution), 1);
    exactly(&cur, SectionTag::Bands, &[(rows, 8), (count, 2 + 4), tail])?;
    let offsets = cur.array(rows, "band offset")?;
    let exps = cur.array(count, "band exponent")?;
    let ends = cur.array(count, "band end")?;
    // A resolution of 0 is version 3's to write: refusing it here keeps
    // every readable file re-saving byte for byte.
    let resolution = match with_resolution {
        false => 0,
        true => match cur.read("band resolution")? {
            0 => return Err(invalid("a version 4 band ladder declares resolution 0")),
            resolution => resolution,
        },
    };
    Ok(BandSection {
        resolution,
        offsets,
        exps,
        ends,
    })
}

// ---------------------------------------------------------------------------
// Sharded-index manifests
// ---------------------------------------------------------------------------

/// The 8-byte magic prefix of every shard-manifest file.
pub const SHARD_MANIFEST_MAGIC: [u8; 8] = *b"PGSHMANI";

/// The shard-manifest format version this crate reads and writes
/// (versioning rules identical to [`FORMAT_VERSION`]).
pub const SHARD_MANIFEST_VERSION: u32 = 1;

/// Conventional file name of the manifest inside a sharded-snapshot
/// directory (the per-shard snapshot files sit next to it, named by
/// [`shard_file_name`]).
pub const SHARD_MANIFEST_FILE: &str = "manifest.pgsm";

/// Conventional file name of shard `i`'s snapshot inside a sharded-snapshot
/// directory: `shard_0000.pgix`, `shard_0001.pgix`, …
pub fn shard_file_name(i: usize) -> String {
    format!("shard_{i:04}.pgix")
}

/// How a sharded index splits one global id space `0..n` across `S`
/// per-shard sub-indexes — the raw, dependency-free half of a sharded
/// snapshot (the typed engine wiring lives in `pg_core::sharded`).
///
/// The invariant this type exists to pin: the per-shard global-id lists are
/// **strictly ascending** and together form an **exact partition** of
/// `0..n` — every id appears in exactly one shard, no shard is empty.
/// Ascending order is load-bearing, not cosmetic: a shard's local id `j`
/// maps to `ids[j]`, so ascending lists make local id order agree with
/// global id order, which is what lets a surrogate-space merge of per-shard
/// results reproduce the unsharded `(surrogate, global id)` tie-break
/// bit-for-bit. [`ShardManifest::new`] and [`ShardManifest::from_bytes`]
/// both enforce the full invariant, so no constructed or loaded manifest
/// can violate it.
///
/// # File format (version 1)
///
/// Little-endian, through [`codec`]: the magic [`SHARD_MANIFEST_MAGIC`]
/// (8 bytes), `format_version: u32`, then the payload — `n: u64`, the shard
/// count `u64`, and per shard its length `u64` followed by that many ids
/// (`u32` each) — and last the FNV-1a 64 [`checksum`] (`u64`) of the
/// payload, i.e. of bytes 12 up to the checksum itself. Reads never panic
/// and never return a partially-validated manifest.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardManifest {
    n: u64,
    shards: Vec<Vec<u32>>,
}

impl ShardManifest {
    /// Builds a manifest after checking the full partition invariant:
    /// at least one shard, every shard non-empty and strictly ascending,
    /// every id `< n`, and every id in `0..n` present exactly once.
    pub fn new(n: u64, shards: Vec<Vec<u32>>) -> Result<Self, SnapshotError> {
        let m = ShardManifest { n, shards };
        m.validate()?;
        Ok(m)
    }

    /// Number of points `n` in the global id space.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Number of shards `S`.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The per-shard global-id lists, each strictly ascending; entry `s`
    /// maps shard `s`'s local ids to global ids (`ids[local] = global`).
    pub fn shards(&self) -> &[Vec<u32>] {
        &self.shards
    }

    /// Consumes the manifest, handing back the per-shard id lists.
    pub fn into_shards(self) -> Vec<Vec<u32>> {
        self.shards
    }

    fn validate(&self) -> Result<(), SnapshotError> {
        if self.shards.is_empty() {
            return Err(invalid("manifest holds zero shards"));
        }
        if self.n == 0 {
            return Err(invalid("manifest covers zero points"));
        }
        let n: usize = self
            .n
            .try_into()
            .map_err(|_| invalid("n exceeds addressable memory"))?;
        let mut seen = vec![false; n];
        let mut total: u64 = 0;
        for (s, ids) in self.shards.iter().enumerate() {
            if ids.is_empty() {
                return Err(invalid(format!("shard {s} is empty")));
            }
            if ids.windows(2).any(|w| match w {
                [a, b] => a >= b,
                _ => false,
            }) {
                return Err(invalid(format!("shard {s} ids are not strictly ascending")));
            }
            for &id in ids {
                match seen.get_mut(id as usize) {
                    Some(slot) if !*slot => *slot = true,
                    Some(_) => {
                        return Err(invalid(format!("id {id} appears in more than one shard")))
                    }
                    None => {
                        return Err(invalid(format!(
                            "shard {s} id {id} out of range (n = {})",
                            self.n
                        )))
                    }
                }
            }
            total += ids.len() as u64;
        }
        if total != self.n {
            return Err(invalid(format!(
                "shards hold {total} ids, the manifest covers n = {}",
                self.n
            )));
        }
        Ok(())
    }

    /// Serializes into the version-1 byte layout (see the type docs).
    pub fn to_bytes(&self) -> Vec<u8> {
        let cells: usize = self.shards.iter().map(|s| s.len()).sum();
        let mut payload = Vec::with_capacity(16 + self.shards.len() * 8 + cells * 4);
        push(&mut payload, self.n);
        push(&mut payload, self.shards.len() as u64);
        for ids in &self.shards {
            push(&mut payload, ids.len() as u64);
            push_all(&mut payload, ids);
        }
        let mut out = Vec::with_capacity(8 + 4 + payload.len() + 8);
        out.extend_from_slice(&SHARD_MANIFEST_MAGIC);
        push(&mut out, SHARD_MANIFEST_VERSION);
        let sum = checksum(&payload);
        out.append(&mut payload);
        push(&mut out, sum);
        out
    }

    /// Parses the version-1 byte layout. Never panics; a manifest is only
    /// returned after the magic, version, checksum, and the full partition
    /// invariant ([`ShardManifest::new`]) all check out.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let magic_len = bytes.len().min(8);
        let magic_prefix = bytes.get(..magic_len).unwrap_or(bytes);
        if magic_prefix != SHARD_MANIFEST_MAGIC.get(..magic_len).unwrap_or_default() {
            return Err(SnapshotError::BadMagic);
        }
        let mut cur = Reader::new(bytes);
        cur.take(8, "manifest magic")?;
        let version: u32 = cur.read("manifest version")?;
        if version != SHARD_MANIFEST_VERSION {
            return Err(SnapshotError::UnsupportedVersion { found: version });
        }
        let (payload, stored) = cur.rest().split_last_chunk().ok_or(Truncated {
            context: "manifest checksum",
        })?;
        if checksum(payload) != u64::from_le_bytes(*stored) {
            return Err(SnapshotError::ChecksumMismatch {
                section: SectionTag::Manifest,
            });
        }
        let mut cur = Reader::new(payload);
        let n: u64 = cur.read("manifest n")?;
        let shard_count = addressable(cur.read("manifest shard count")?, "shard count")?;
        // A shard frame is at least 12 bytes (len + one id); reject an
        // impossible count before allocating for it.
        if shard_count > payload.len() / 12 {
            return Err(invalid(format!(
                "shard count {shard_count} cannot fit in a {}-byte payload",
                payload.len()
            )));
        }
        let mut shards = Vec::with_capacity(shard_count);
        for _ in 0..shard_count {
            let len = addressable(cur.read("shard length")?, "shard length")?;
            shards.push(cur.array(len, "shard ids")?);
        }
        if !cur.rest().is_empty() {
            return Err(invalid(format!(
                "{} trailing bytes after the last shard",
                cur.rest().len()
            )));
        }
        ShardManifest::new(n, shards)
    }

    /// Writes the manifest to `path` atomically and durably — the same
    /// temp-file + `sync_all` + rename sequence as [`Snapshot::save`], so a
    /// reader never observes a torn manifest.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), SnapshotError> {
        save_bytes(path.as_ref(), &self.to_bytes())
    }

    /// Loads and validates a manifest from a file.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, SnapshotError> {
        let bytes = std::fs::read(path)?;
        ShardManifest::from_bytes(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        Snapshot {
            meta: IndexMeta {
                metric: MetricTag::Euclidean,
                dims: 2,
                n: 3,
                entry_point: 1,
                build: Some(BuildParams {
                    epsilon: 1.0,
                    eta: 2,
                    phi: 9.0,
                }),
            },
            offsets: vec![0, 2, 3, 4],
            targets: vec![1, 2, 0, 0],
            coords: vec![0.0, 0.0, 3.0, 4.0, -1.5, 0.25],
            quant: None,
            bands: None,
        }
    }

    /// The [`sample`] graph with row 0 in two bands and rows 1, 2 in one, at
    /// one band per octave (format version 3).
    fn sample_banded() -> Snapshot {
        let mut snap = sample();
        snap.targets = vec![2, 1, 0, 0];
        snap.bands = Some(BandSection {
            resolution: 0,
            offsets: vec![0, 2, 3, 4],
            exps: vec![1023, 1025, 1025, 1023],
            ends: vec![1, 2, 1, 1],
        });
        snap
    }

    fn sample_f32() -> Snapshot {
        let mut snap = sample();
        snap.quant = Some(QuantSection::F32 {
            data: snap.coords.iter().map(|&c| c as f32).collect(),
        });
        snap
    }

    fn sample_sq8() -> Snapshot {
        let mut snap = sample();
        snap.quant = Some(QuantSection::Sq8 {
            mins: vec![-1.5, 0.0],
            steps: vec![4.5 / 255.0, 4.0 / 255.0],
            codes: vec![85, 0, 255, 255, 0, 16],
        });
        snap
    }

    #[test]
    fn roundtrip_bytes_is_lossless() {
        let snap = sample();
        let bytes = snap.to_bytes().unwrap();
        assert_eq!(Snapshot::from_bytes(&bytes).unwrap(), snap);
    }

    #[test]
    fn roundtrip_without_build_params() {
        let mut snap = sample();
        snap.meta.build = None;
        let bytes = snap.to_bytes().unwrap();
        assert_eq!(Snapshot::from_bytes(&bytes).unwrap(), snap);
    }

    #[test]
    fn plain_snapshots_still_write_version_1_with_three_sections() {
        let bytes = sample().to_bytes().unwrap();
        assert_eq!(u32::from_le_bytes(bytes[8..12].try_into().unwrap()), 1);
        assert_eq!(u32::from_le_bytes(bytes[12..16].try_into().unwrap()), 3);
    }

    #[test]
    fn quantized_roundtrips_are_lossless_and_write_version_2() {
        for snap in [sample_f32(), sample_sq8()] {
            let bytes = snap.to_bytes().unwrap();
            assert_eq!(
                u32::from_le_bytes(bytes[8..12].try_into().unwrap()),
                FORMAT_VERSION_QUANT
            );
            assert_eq!(u32::from_le_bytes(bytes[12..16].try_into().unwrap()), 4);
            assert_eq!(Snapshot::from_bytes(&bytes).unwrap(), snap);
        }
    }

    /// [`sample_banded`] at four sub-bands per octave (format version 4).
    fn sample_quarter_banded() -> Snapshot {
        let mut snap = sample_banded();
        let bands = snap.bands.as_mut().unwrap();
        bands.resolution = 2;
        bands.exps = vec![4092, 4101, 4103, 4095];
        snap
    }

    #[test]
    fn banded_snapshots_write_version_3_or_4_after_either_body() {
        // Plain body + BAND: 4 sections; quantized body + BAND: 5. Either
        // way everything before the ladder is the un-banded encoding of the
        // same arrays, but for the two header fields. A ladder at
        // resolution 0 is version 3; any other ends `BAND` with the
        // resolution byte and is version 4.
        for (sample, version, extra) in [
            (sample_banded(), FORMAT_VERSION_BANDS, 0),
            (sample_quarter_banded(), FORMAT_VERSION_BAND_RESOLUTION, 1),
        ] {
            for (quant, sections) in [(None, 4u32), (sample_f32().quant, 5)] {
                let mut banded = sample.clone();
                banded.quant = quant;
                let bytes = banded.to_bytes().unwrap();
                assert_eq!(bytes[8..12], version.to_le_bytes());
                assert_eq!(bytes[12..16], sections.to_le_bytes());
                assert_eq!(Snapshot::from_bytes(&bytes).unwrap(), banded);

                let mut plain = banded.clone();
                plain.bands = None;
                let body = plain.to_bytes().unwrap();
                assert_eq!(bytes[16..body.len()], body[16..]);
                let ladder = &bytes[body.len()..];
                assert_eq!(ladder[..4], *b"BAND");
                assert_eq!(
                    ladder.len(),
                    SECTION_HEADER_LEN + 16 + 8 * 4 + 6 * 4 + extra
                );
                if extra == 1 {
                    assert_eq!(ladder.last(), Some(&2), "the resolution, last");
                }
            }
        }
    }

    #[test]
    fn the_version_decides_whether_band_ends_with_a_resolution() {
        // The same BAND payload under the other version's header: version 3
        // has no room for the byte, version 4 demands it — and demands that
        // it say something version 3 could not.
        let reframe = |snap: &Snapshot, version: u32| {
            let mut bytes = snap.to_bytes().unwrap();
            bytes[8..12].copy_from_slice(&version.to_le_bytes());
            Snapshot::from_bytes(&bytes)
        };
        for (snap, version) in [
            (sample_quarter_banded(), FORMAT_VERSION_BANDS),
            (sample_banded(), FORMAT_VERSION_BAND_RESOLUTION),
        ] {
            match reframe(&snap, version) {
                Err(SnapshotError::Invalid { reason }) => {
                    assert!(reason.contains("counts imply"), "{reason:?}")
                }
                other => panic!("version {version}: got {other:?}"),
            }
        }
        // A version 4 ladder that declares resolution 0, or one past the
        // largest: the byte patched in place, its section re-checksummed.
        for (declared, why) in [(0u8, "declares resolution 0"), (4, "band resolution 4")] {
            let mut bytes = sample_quarter_banded().to_bytes().unwrap();
            let payload = 16 + 8 * 4 + 6 * 4 + 1;
            let start = bytes.len() - payload;
            *bytes.last_mut().unwrap() = declared;
            let sum = checksum(&bytes[start..]);
            bytes[start - 8..start].copy_from_slice(&sum.to_le_bytes());
            match Snapshot::from_bytes(&bytes) {
                Err(SnapshotError::Invalid { reason }) => {
                    assert!(reason.contains(why), "{reason:?} should mention {why:?}")
                }
                other => panic!("{why}: got {other:?}"),
            }
        }
    }

    #[test]
    fn validate_rejects_band_violations() {
        let bad = |edit: fn(&mut BandSection), why: &str| {
            let mut snap = sample_banded();
            edit(snap.bands.as_mut().unwrap());
            match snap.validate() {
                Err(SnapshotError::Invalid { reason }) => {
                    assert!(reason.contains(why), "{reason:?} should mention {why:?}")
                }
                other => panic!("{why}: got {other:?}"),
            }
            assert!(snap.to_bytes().is_err(), "{why}: refused at write time");
        };
        bad(|b| b.offsets.push(4), "n + 1");
        bad(|b| b.ends.push(1), "band ends for");
        bad(|b| b.offsets[0] = 1, "start at 0");
        bad(|b| b.offsets[3] = 3, "band count");
        bad(|b| b.offsets[1] = 9, "non-decreasing");
        bad(|b| b.offsets[2] = 1, "non-decreasing");
        bad(|b| b.exps[1] = 1023, "ascending band keys");
        bad(|b| b.exps[3] = 0x800, "ascending band keys");
        // The largest key grows with the resolution, which stops at 3.
        bad(
            |b| b.resolution = MAX_BAND_RESOLUTION + 1,
            "band resolution 4",
        );
        for resolution in 0..=MAX_BAND_RESOLUTION {
            let mut snap = sample_banded();
            let bands = snap.bands.as_mut().unwrap();
            bands.resolution = resolution;
            bands.exps[1] = 0x7ff << resolution;
            snap.validate().unwrap();
            snap.bands.as_mut().unwrap().exps[1] += 1;
            assert!(snap.validate().is_err(), "resolution {resolution}");
        }
        bad(|b| b.ends[0] = 0, "strictly increasing");
        bad(|b| b.ends[0] = 2, "strictly increasing");
        bad(|b| b.ends[1] = 3, "its degree");
        bad(|b| b.ends[3] = 2, "its degree");
        // A row of degree 0 has no bands, and a banded row needs some.
        bad(|b| b.offsets[1] = 0, "its degree");
    }

    #[test]
    fn quantized_prefix_is_byte_identical_to_the_plain_encoding() {
        // Append-only evolution: the first three sections of a version-2
        // file are the version-1 body verbatim (only the header's version
        // and section count differ).
        let plain = sample().to_bytes().unwrap();
        let quant = sample_f32().to_bytes().unwrap();
        assert_eq!(&quant[16..plain.len()], &plain[16..]);
    }

    #[test]
    fn validate_rejects_quant_violations() {
        let cases: Vec<(&str, Snapshot)> = vec![
            ("f32 length", {
                let mut s = sample_f32();
                match s.quant.as_mut().unwrap() {
                    QuantSection::F32 { data } => data.pop().map(|_| ()).unwrap(),
                    _ => unreachable!(),
                }
                s
            }),
            ("f32 non-finite", {
                let mut s = sample_f32();
                match s.quant.as_mut().unwrap() {
                    QuantSection::F32 { data } => data[0] = f32::NAN,
                    _ => unreachable!(),
                }
                s
            }),
            ("sq8 mins length", {
                let mut s = sample_sq8();
                match s.quant.as_mut().unwrap() {
                    QuantSection::Sq8 { mins, .. } => mins.push(0.0),
                    _ => unreachable!(),
                }
                s
            }),
            ("sq8 steps length", {
                let mut s = sample_sq8();
                match s.quant.as_mut().unwrap() {
                    QuantSection::Sq8 { steps, .. } => steps.pop().map(|_| ()).unwrap(),
                    _ => unreachable!(),
                }
                s
            }),
            ("sq8 codes length", {
                let mut s = sample_sq8();
                match s.quant.as_mut().unwrap() {
                    QuantSection::Sq8 { codes, .. } => codes.push(0),
                    _ => unreachable!(),
                }
                s
            }),
            ("sq8 non-finite min", {
                let mut s = sample_sq8();
                match s.quant.as_mut().unwrap() {
                    QuantSection::Sq8 { mins, .. } => mins[0] = f64::INFINITY,
                    _ => unreachable!(),
                }
                s
            }),
            ("sq8 negative step", {
                let mut s = sample_sq8();
                match s.quant.as_mut().unwrap() {
                    QuantSection::Sq8 { steps, .. } => steps[1] = -1.0,
                    _ => unreachable!(),
                }
                s
            }),
        ];
        for (name, bad) in cases {
            let err = bad.validate().unwrap_err();
            assert!(
                matches!(err, SnapshotError::Invalid { .. }),
                "case {name}: got {err:?}"
            );
            assert!(bad.to_bytes().is_err(), "case {name}: to_bytes accepted");
        }
    }

    #[test]
    fn roundtrip_through_a_file() {
        let snap = sample();
        let path = std::env::temp_dir().join(format!("pg_store_unit_{}.pgix", std::process::id()));
        snap.save(&path).unwrap();
        let back = Snapshot::load(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn load_missing_file_is_io_error() {
        let err = Snapshot::load("/definitely/not/a/real/path.pgix").unwrap_err();
        assert!(matches!(err, SnapshotError::Io(_)), "got {err:?}");
    }

    #[test]
    fn metric_tag_codes_are_stable() {
        for tag in [
            MetricTag::Euclidean,
            MetricTag::Manhattan,
            MetricTag::Chebyshev,
        ] {
            assert_eq!(MetricTag::from_code(tag.code()), Some(tag));
        }
        assert_eq!(MetricTag::Euclidean.code(), 0);
        assert_eq!(MetricTag::Manhattan.code(), 1);
        assert_eq!(MetricTag::Chebyshev.code(), 2);
        assert_eq!(MetricTag::from_code(3), None);
    }

    #[test]
    fn checksum_matches_fnv1a_test_vectors() {
        // Published FNV-1a 64 vectors.
        assert_eq!(checksum(b""), 0xcbf29ce484222325);
        assert_eq!(checksum(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(checksum(b"foobar"), 0x85944171f73967e8);
    }

    type Mutation = Box<dyn Fn(&mut Snapshot)>;

    #[test]
    fn validate_rejects_structural_violations() {
        let ok = sample();
        let cases: Vec<(&str, Mutation)> = vec![
            ("zero points", Box::new(|s| s.meta.n = 0)),
            ("zero dims", Box::new(|s| s.meta.dims = 0)),
            ("n + 1 overflows", Box::new(|s| s.meta.n = u64::MAX)),
            (
                "offsets length",
                Box::new(|s| s.offsets.pop().map(|_| ()).unwrap()),
            ),
            ("offsets start", Box::new(|s| s.offsets[0] = 1)),
            ("offsets monotone", Box::new(|s| s.offsets[1] = 5)),
            (
                "final offset",
                Box::new(|s| *s.offsets.last_mut().unwrap() = 7),
            ),
            ("target range", Box::new(|s| s.targets[0] = 3)),
            ("entry point", Box::new(|s| s.meta.entry_point = 3)),
            ("coords length", Box::new(|s| s.coords.push(0.0))),
            ("non-finite", Box::new(|s| s.coords[0] = f64::NAN)),
        ];
        for (name, mutate) in cases {
            let mut bad = ok.clone();
            mutate(&mut bad);
            let err = bad.validate().unwrap_err();
            assert!(
                matches!(err, SnapshotError::Invalid { .. }),
                "case {name}: got {err:?}"
            );
            // The write path refuses the same snapshot.
            assert!(bad.to_bytes().is_err(), "case {name}: to_bytes accepted");
        }
        ok.validate().unwrap();
    }

    #[test]
    fn error_display_is_informative() {
        // Too new, too old (version 0), and a shard manifest's version: the
        // message names the version found and what is supported, and claims
        // nothing about which side of it the file is.
        let at_version = |mut bytes: Vec<u8>, version: u32| {
            bytes[8..12].copy_from_slice(&version.to_le_bytes());
            bytes
        };
        let snapshot = |v| Snapshot::from_bytes(&at_version(sample().to_bytes().unwrap(), v));
        let manifest = |v| ShardManifest::from_bytes(&at_version(sample_manifest().to_bytes(), v));
        for (found, e) in [
            (9, snapshot(9).unwrap_err()),
            (0, snapshot(0).unwrap_err()),
            (2, manifest(2).unwrap_err()),
        ] {
            assert!(matches!(e, SnapshotError::UnsupportedVersion { .. }));
            let text = e.to_string();
            assert!(text.contains(&format!("version {found} ")), "{text}");
            assert!(text.contains("versions 1 to 4"), "{text}");
            assert!(text.contains("shard manifests version 1"), "{text}");
            assert!(!text.contains("newer"), "{text}");
        }
        let e = SnapshotError::MetricMismatch {
            expected: MetricTag::Euclidean,
            found: MetricTag::Manhattan,
        };
        assert!(e.to_string().contains("L2"));
        assert!(e.to_string().contains("L1"));
        let e = SnapshotError::ChecksumMismatch {
            section: SectionTag::Points,
        };
        assert!(e.to_string().contains("PNTS"));
    }

    fn sample_manifest() -> ShardManifest {
        ShardManifest::new(7, vec![vec![0, 3, 6], vec![1, 4], vec![2, 5]]).unwrap()
    }

    #[test]
    fn shard_manifest_round_trips_and_reports_shape() {
        let m = sample_manifest();
        assert_eq!(m.n(), 7);
        assert_eq!(m.shard_count(), 3);
        assert_eq!(m.shards()[1], vec![1, 4]);
        let bytes = m.to_bytes();
        assert_eq!(ShardManifest::from_bytes(&bytes).unwrap(), m);
        assert_eq!(m.clone().into_shards(), m.shards().to_vec());
    }

    #[test]
    fn shard_manifest_round_trips_through_a_file() {
        let m = sample_manifest();
        let path =
            std::env::temp_dir().join(format!("pg_store_manifest_{}.pgsm", std::process::id()));
        m.save(&path).unwrap();
        assert_eq!(ShardManifest::load(&path).unwrap(), m);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn shard_manifest_rejects_every_partition_violation() {
        // Duplicated id.
        assert!(ShardManifest::new(4, vec![vec![0, 1], vec![1, 2, 3]]).is_err());
        // Missing id (3 absent).
        assert!(ShardManifest::new(4, vec![vec![0, 1], vec![2]]).is_err());
        // Out-of-range id.
        assert!(ShardManifest::new(3, vec![vec![0, 1], vec![3]]).is_err());
        // Empty shard.
        assert!(ShardManifest::new(2, vec![vec![0, 1], vec![]]).is_err());
        // Not strictly ascending.
        assert!(ShardManifest::new(3, vec![vec![1, 0], vec![2]]).is_err());
        // Zero shards / zero points.
        assert!(ShardManifest::new(1, vec![]).is_err());
        assert!(ShardManifest::new(0, vec![vec![]]).is_err());
        // One shard holding everything is fine.
        assert!(ShardManifest::new(3, vec![vec![0, 1, 2]]).is_ok());
    }

    #[test]
    fn shard_manifest_every_corruption_is_typed() {
        let m = sample_manifest();
        let bytes = m.to_bytes();
        // Wrong magic.
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(
            ShardManifest::from_bytes(&bad),
            Err(SnapshotError::BadMagic)
        ));
        // Future version.
        let mut bad = bytes.clone();
        bad[8..12].copy_from_slice(&9u32.to_le_bytes());
        assert!(matches!(
            ShardManifest::from_bytes(&bad),
            Err(SnapshotError::UnsupportedVersion { found: 9 })
        ));
        // Every truncation point fails, never panics.
        for cut in 0..bytes.len() {
            assert!(
                ShardManifest::from_bytes(&bytes[..cut]).is_err(),
                "truncation at {cut} was accepted"
            );
        }
        // Every payload byte flip is caught by the checksum.
        for i in 12..bytes.len() - 8 {
            let mut bad = bytes.clone();
            bad[i] ^= 0x01;
            assert!(matches!(
                ShardManifest::from_bytes(&bad),
                Err(SnapshotError::ChecksumMismatch {
                    section: SectionTag::Manifest
                })
            ));
        }
        // Trailing garbage after a valid payload fails the checksum frame.
        let mut bad = bytes.clone();
        bad.extend_from_slice(&[0u8; 4]);
        assert!(ShardManifest::from_bytes(&bad).is_err());
    }

    #[test]
    fn shard_file_names_are_stable_and_sorted() {
        assert_eq!(shard_file_name(0), "shard_0000.pgix");
        assert_eq!(shard_file_name(12), "shard_0012.pgix");
        let names: Vec<String> = (0..20).map(shard_file_name).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
    }
}
