//! A dynamic cover tree over a [`pg_metric::Dataset`].
//!
//! Section 2.4 of the paper plugs a dynamic data structure `T` into the
//! `build` procedure: `T` must support **2-ANN queries**, **insertions** and
//! **deletions**, each in polylogarithmic time; the paper cites the
//! Cole–Gottlieb structure \[20\]. This crate provides the closest practical
//! equivalent implemented from scratch: a *cover tree* in the simplified
//! style of Izbicki–Shelton, with
//!
//! * incremental [`CoverTree::insert`],
//! * *lazy deletion* ([`CoverTree::remove`] tombstones a point;
//!   [`CoverTree::restore`] undoes it — exactly the pattern needed by the
//!   paper's `build`, which deletes points from `T` only to re-insert them
//!   moments later),
//! * exact nearest neighbor ([`CoverTree::nearest`]), `c`-approximate
//!   nearest neighbor ([`CoverTree::ann`]) for any `c >= 1` (the paper uses
//!   `c = 2`) and metric range queries ([`CoverTree::range`]),
//! * [`approx_min_dist`], the footnote-1 estimator
//!   `d̂_min ∈ [d_min / 2, d_min]` of Section 2.4's remark.
//!
//! Where this crate sits in the workspace is mapped in `ARCHITECTURE.md`
//! at the repository root.
//!
//! All operations are measured in distance computations when the dataset's
//! metric is wrapped in [`pg_metric::Counting`]; on doubling metrics the
//! per-operation cost is `2^{O(λ)} log Δ`-ish, matching the role the paper's
//! `t_qry`/`t_upd` play in Eq. (13).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod approx_min;
mod query;
mod tree;

pub use approx_min::approx_min_dist;
pub use tree::CoverTree;
