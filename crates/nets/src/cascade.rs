//! Top-down cascade of *relatives lists*: for every net center at the
//! current level, all centers within `K * radius`.
//!
//! This generalizes the construction-time friends lists to an arbitrary
//! factor `K >= 4`. `pg-core` drives the cascade with `K = φ + 1` to
//! enumerate the out-edges of `G_net`: the centers within `φ * r_i` of a
//! point `p` are all relatives of `p`'s covering center (by the triangle
//! inequality, they lie within `(φ + 1) * r_i` of it). On a doubling metric
//! each relatives list has `K^{O(λ)}` entries (the packing bound, Fact 2.3),
//! which is exactly the `O(φ^λ)` term in the paper's Eq. (13).

use pg_metric::{Dataset, Metric};

use crate::hierarchy::NetHierarchy;

/// Iterator-style descent through a [`NetHierarchy`], maintaining relatives
/// lists for one level at a time (memory stays proportional to a single
/// level's output rather than the whole ladder's).
#[derive(Debug)]
pub struct RelativesCascade<'h, 'd, P, M> {
    hierarchy: &'h NetHierarchy,
    data: &'d Dataset<P, M>,
    k: f64,
    /// Index of the current level (bottom-up indexing; starts at the top).
    level_idx: usize,
    /// `rel[pos]` = positions (within the current level) of all centers
    /// within `k * radius` of the center at `pos`. Includes `pos` itself.
    rel: Vec<Vec<u32>>,
}

impl<'h, 'd, P: Sync, M: Metric<P> + Sync> RelativesCascade<'h, 'd, P, M> {
    /// Starts a cascade at the top level. `k` must be at least 4 for the
    /// level-to-level recurrence to be complete.
    pub fn new(data: &'d Dataset<P, M>, hierarchy: &'h NetHierarchy, k: f64) -> Self {
        assert!(k >= 4.0, "relatives factor must be >= 4, got {k}");
        RelativesCascade {
            hierarchy,
            data,
            k,
            level_idx: hierarchy.num_levels() - 1,
            rel: vec![vec![0]],
        }
    }

    /// The level the relatives currently describe (bottom-up index).
    pub fn level_idx(&self) -> usize {
        self.level_idx
    }

    /// The relatives factor `K`.
    pub fn k(&self) -> f64 {
        self.k
    }

    /// Relatives lists for the current level: `relatives()[pos]` holds the
    /// positions of every center within `k * radius` of center `pos`.
    pub fn relatives(&self) -> &[Vec<u32>] {
        &self.rel
    }

    /// Moves one level down, recomputing relatives. Returns `false` (and
    /// does nothing) when already at the bottom level.
    ///
    /// Completeness argument: let `y, z` be centers of the lower level with
    /// `D(y, z) <= k * r`. Their parents (covers at the upper level, radius
    /// `2r`) satisfy `D(parent(y), parent(z)) <= k*r + 2r + 2r =
    /// (k/2 + 2) * (2r) <= k * (2r)` since `k >= 4`, so `parent(z)` is a
    /// relative of `parent(y)` and `z` is found either as a carried-over
    /// center or as a freshly promoted child of that relative.
    pub fn descend(&mut self) -> bool {
        if self.level_idx == 0 {
            return false;
        }
        let above = self.hierarchy.level(self.level_idx);
        let below = self.hierarchy.level(self.level_idx - 1);
        let r_below = below.radius;

        // Freshly promoted centers of `below`, grouped by parent position.
        let mut new_by_parent: Vec<Vec<u32>> = vec![Vec::new(); above.len()];
        for pos in above.len()..below.len() {
            new_by_parent[below.parent_pos[pos] as usize].push(pos as u32);
        }

        // Each list reads only the level above, so the order-preserving
        // parallel map returns exactly what the sequential loop would, at
        // any thread count.
        let (data, k, rel) = (self.data, self.k, &self.rel);
        let next_rel = rayon::par_map_range(below.len(), |pos| {
            let y = below.centers[pos] as usize;
            let mut list = Vec::new();
            for &f in &rel[below.parent_pos[pos] as usize] {
                // Carried-over center: same position at both levels.
                let old_pid = above.centers[f as usize];
                if data.dist(y, old_pid as usize) <= k * r_below {
                    list.push(f);
                }
                for &np in &new_by_parent[f as usize] {
                    let new_pid = below.centers[np as usize];
                    if data.dist(y, new_pid as usize) <= k * r_below {
                        list.push(np);
                    }
                }
            }
            list
        });

        self.rel = next_rel;
        self.level_idx -= 1;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pg_metric::Euclidean;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn random_dataset(n: usize, seed: u64) -> Dataset<Vec<f64>, Euclidean> {
        let mut rng = StdRng::seed_from_u64(seed);
        Dataset::new(
            (0..n)
                .map(|_| vec![rng.random_range(0.0..64.0), rng.random_range(0.0..64.0)])
                .collect(),
            Euclidean,
        )
    }

    /// Brute-force relatives at a level, for comparison.
    fn brute_rel(
        data: &Dataset<Vec<f64>, Euclidean>,
        centers: &[u32],
        k: f64,
        r: f64,
    ) -> Vec<Vec<u32>> {
        centers
            .iter()
            .map(|&y| {
                centers
                    .iter()
                    .enumerate()
                    .filter(|&(_, &z)| data.dist(y as usize, z as usize) <= k * r)
                    .map(|(pos, _)| pos as u32)
                    .collect()
            })
            .collect()
    }

    /// The relatives lists of every level, top-down, as the cascade
    /// produced them (unsorted).
    fn all_levels(
        ds: &Dataset<Vec<f64>, Euclidean>,
        h: &NetHierarchy,
        k: f64,
    ) -> Vec<Vec<Vec<u32>>> {
        let mut cascade = RelativesCascade::new(ds, h, k);
        let mut levels = vec![cascade.relatives().to_vec()];
        while cascade.descend() {
            levels.push(cascade.relatives().to_vec());
        }
        levels
    }

    #[test]
    fn cascade_matches_brute_force_at_every_level() {
        let ds = random_dataset(150, 5);
        let h = NetHierarchy::build(&ds);
        for k in [4.0, 6.0, 10.0] {
            let sequential = rayon::with_threads(1, || all_levels(&ds, &h, k));
            for (lvl, got) in h.levels().iter().rev().zip(&sequential) {
                let expect = brute_rel(&ds, &lvl.centers, k, lvl.radius);
                let mut got = got.clone();
                got.iter_mut().for_each(|v| v.sort_unstable());
                assert_eq!(got, expect, "k = {k}, radius = {}", lvl.radius);
            }
            // The parallel descent must reproduce the lists entry for entry,
            // order included.
            for threads in [2, 4, 7] {
                let parallel = rayon::with_threads(threads, || all_levels(&ds, &h, k));
                assert_eq!(parallel, sequential, "k = {k}, {threads} threads");
            }
        }
    }

    #[test]
    fn relatives_always_include_self() {
        let ds = random_dataset(80, 6);
        let h = NetHierarchy::build(&ds);
        let mut cascade = RelativesCascade::new(&ds, &h, 4.0);
        loop {
            for (pos, list) in cascade.relatives().iter().enumerate() {
                assert!(
                    list.contains(&(pos as u32)),
                    "center {pos} missing from its own relatives"
                );
            }
            if !cascade.descend() {
                break;
            }
        }
    }

    #[test]
    #[should_panic(expected = "must be >= 4")]
    fn factor_below_four_rejected() {
        let ds = random_dataset(10, 7);
        let h = NetHierarchy::build(&ds);
        let _ = RelativesCascade::new(&ds, &h, 3.0);
    }
}
