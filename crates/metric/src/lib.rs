//! Metric-space kernel for the proximity-graphs workspace.
//!
//! This crate provides the abstractions of Section 1.1 of the paper
//! *Proximity Graphs for Similarity Search: Fast Construction, Lower Bounds,
//! and Euclidean Separation* (Lu & Tao, PODS 2025):
//!
//! * the [`Metric`] trait — a distance function `D` satisfying identity of
//!   indiscernibles, symmetry and the triangle inequality;
//! * concrete metrics on `R^d`: [`Euclidean`] (`L_2`), [`Chebyshev`]
//!   (`L_inf`), [`Manhattan`] (`L_1`), and [`Angular`] (great-circle
//!   distance on the unit sphere, for cosine-similarity embeddings);
//! * [`Counting`], a wrapper that counts distance evaluations — the paper
//!   measures query time in *number of distance computations*, so every
//!   experiment in this workspace is instrumented through this type;
//! * [`Dataset`], an id-addressed collection of points paired with a metric;
//! * [`FlatPoints`] / [`FlatRow`] ([`flat`]), the contiguous row-major point
//!   layout every hot path should run on, and the surrogate-comparison hooks
//!   on [`Metric`] that let search compare in squared space under `L_2`;
//! * [`CompactPoints`] / [`Quantized`] ([`quant`]), the reduced-precision
//!   (`f32` and 8-bit scalar-quantized) point stores that hot paths can
//!   navigate by surrogate before re-ranking candidates with exact `f64`
//!   distances;
//! * aspect-ratio utilities ([`aspect`]), including the approximation
//!   `d̂_max ∈ [d_max, 2 d_max]` from the remark of Section 2.4;
//! * empirical doubling-dimension estimators ([`doubling`]).
//!
//! The flat-storage design and the surrogate-comparison semantics are
//! documented in depth in `ARCHITECTURE.md` at the repository root.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod angular;
pub mod aspect;
pub mod counter;
pub mod dataset;
pub mod doubling;
pub mod flat;
pub mod lp;
pub mod metric;
pub mod quant;
pub mod scaled;

pub use angular::{normalize, Angular};
pub use counter::Counting;
pub use dataset::Dataset;
pub use flat::{FlatPoints, FlatRow};
pub use lp::{Chebyshev, Euclidean, Lp, Manhattan};
pub use metric::{Metric, ANNULUS_SLACK};
pub use quant::{CompactPoints, F32Points, PreparedQuery, QuantKind, Quantized, Sq8Points};
pub use scaled::Scaled;

/// A flat-backed Euclidean-style dataset: contiguous coordinates, generic
/// over the metric. The layout every experiment runs on by default.
pub type FlatDataset<M> = Dataset<FlatRow, M>;
