//! `r`-nets and hierarchical net construction for doubling metrics.
//!
//! Section 2 of the paper builds its proximity graph `G_net` from a ladder of
//! nets `Y_0, ..., Y_h` where `Y_i` is a `2^i`-net of the data set `P`
//! (Eq. 2): a subset that is **separated** (`D(y_1, y_2) >= r` for distinct
//! net points) and **covering** (every `x ∈ P` has a net point within `r`).
//!
//! Two constructions are provided:
//!
//! * [`greedy_net`] — the textbook `O(n * |Y|)` greedy net, used as ground
//!   truth and for cross-validation;
//! * [`NetHierarchy::build`] — a top-down hierarchical construction in the
//!   spirit of Har-Peled–Mendel \[15, Thm 3.2\] (which the paper invokes for
//!   line 1 of its `build` procedure). Each level's centers carry *friends
//!   lists* (nearby centers at the same scale), and each point's covering
//!   center is found by scanning only the friends of its previous cover.
//!   On a metric with doubling dimension `λ` this costs `2^{O(λ)}` distance
//!   evaluations per point per level, i.e. `2^{O(λ)} * n log Δ` in total —
//!   the near-linear bound Theorem 1.1 needs. Every level is an **exact**
//!   `r`-net (no slack factors), and the ladder is nested
//!   (`Y_{i+1} ⊆ Y_i`), which only strengthens the paper's requirements.
//!   Promotion is sequential in id order; the per-center friends lists
//!   (and [`RelativesCascade`]'s relatives lists) are order-preserving
//!   parallel maps over blocks of 1024 centers, each block stored flat, so
//!   the ladder is the same at any thread count.
//!
//! The hierarchy also recovers, for free, the `d̂_min`/`d̂_max` estimates of
//! the Section 2.4 remark: the top radius is the 2-approximate diameter and
//! the bottom radius lies in `[d_min/2, d_min)` (see
//! [`NetHierarchy::bottom_radius`]).
//!
//! [`RelativesCascade`] generalizes the friends lists to any radius factor
//! `K >= 4`; `pg-core` uses it with `K = φ + 1` to enumerate the out-edges of
//! `G_net` without scanning whole levels.
//!
//! Where this crate sits in the workspace is mapped in `ARCHITECTURE.md`
//! at the repository root.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod cascade;
mod greedy;
mod hierarchy;
mod lists;

pub use cascade::RelativesCascade;
pub use greedy::{greedy_net, validate_net};
pub use hierarchy::{NetHierarchy, NetLevel};
