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
use crate::lists::BlockLists;

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
    /// `rel.get(pos)` = positions (within the current level) of all centers
    /// within `k * radius` of the center at `pos`. Includes `pos` itself.
    rel: BlockLists,
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
            rel: BlockLists::top(),
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

    /// The relatives of the current level's center at `pos`: the positions
    /// of every center within `k * radius` of it.
    pub fn relatives(&self, pos: usize) -> &[u32] {
        self.rel.get(pos)
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
        let above_len = self.hierarchy.level(self.level_idx).len();
        let below = self.hierarchy.level(self.level_idx - 1);
        self.rel = self.rel.refine(self.data, below, above_len, self.k);
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
    use std::collections::HashSet;
    use std::sync::Mutex;
    use std::thread::ThreadId;

    fn random_points(n: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| vec![rng.random_range(0.0..64.0), rng.random_range(0.0..64.0)])
            .collect()
    }

    fn random_dataset(n: usize, seed: u64) -> Dataset<Vec<f64>, Euclidean> {
        Dataset::new(random_points(n, seed), Euclidean)
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
    /// produced them (unsorted), one `Vec` per center.
    fn all_levels<M: Metric<Vec<f64>> + Sync>(
        ds: &Dataset<Vec<f64>, M>,
        h: &NetHierarchy,
        k: f64,
    ) -> Vec<Vec<Vec<u32>>> {
        let mut cascade = RelativesCascade::new(ds, h, k);
        let mut levels = Vec::new();
        loop {
            let len = h.level(cascade.level_idx()).len();
            levels.push(
                (0..len)
                    .map(|pos| cascade.relatives(pos).to_vec())
                    .collect(),
            );
            if !cascade.descend() {
                return levels;
            }
        }
    }

    /// [`all_levels`] computed the way `descend` did before the lists went
    /// flat and before a parent's distance decided its children: one `Vec`
    /// per center, fresh centers in one `Vec` per parent, every one tested.
    fn nested_levels<M: Metric<Vec<f64>>>(
        ds: &Dataset<Vec<f64>, M>,
        h: &NetHierarchy,
        k: f64,
    ) -> Vec<Vec<Vec<u32>>> {
        let mut levels = vec![vec![vec![0u32]]];
        for idx in (0..h.h()).rev() {
            let (above, below) = (h.level(idx + 1), h.level(idx));
            let rel = levels.last().unwrap();
            let mut new_by_parent: Vec<Vec<u32>> = vec![Vec::new(); above.len()];
            for pos in above.len()..below.len() {
                new_by_parent[below.parent_pos[pos] as usize].push(pos as u32);
            }
            let within = |y: u32, pos: u32| {
                ds.dist(y as usize, below.centers[pos as usize] as usize) <= k * below.radius
            };
            let next = (0..below.len())
                .map(|pos| {
                    let y = below.centers[pos];
                    let mut list = Vec::new();
                    for &f in &rel[below.parent_pos[pos] as usize] {
                        list.extend(within(y, f).then_some(f));
                        let fresh = new_by_parent[f as usize].iter();
                        list.extend(fresh.filter(|&&np| within(y, np)));
                    }
                    list
                })
                .collect();
            levels.push(next);
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
    fn flat_blocks_hold_the_nested_lists_at_sizes_around_the_block_boundary() {
        // The bottom level has all n centers: one block short of full, one
        // full block, two blocks with a single position in the second, and
        // three. k = 4 is the hierarchy's own friends factor, so the
        // hierarchy comparison covers the friends lists too.
        for n in [1023, 1024, 1025, 2049] {
            let ds = random_dataset(n, n as u64);
            let h = rayon::with_threads(1, || NetHierarchy::build(&ds));
            let nested = nested_levels(&ds, &h, 4.0);
            assert_eq!(nested.last().unwrap().len(), n);
            for threads in [1, 2, 4, 7] {
                let (h_t, flat) = rayon::with_threads(threads, || {
                    (NetHierarchy::build(&ds), all_levels(&ds, &h, 4.0))
                });
                assert_eq!(h_t, h, "n = {n}, {threads} threads");
                assert_eq!(flat, nested, "n = {n}, {threads} threads");
            }
        }
    }

    #[test]
    fn pruned_descent_computes_no_more_distances_than_testing_every_child() {
        use pg_metric::Counting;
        let ds = Dataset::new(random_points(2049, 2049), Counting::new(Euclidean));
        let h = NetHierarchy::build(&ds);
        for k in [4.0, 6.0, 10.0] {
            ds.metric().reset();
            let pruned = (all_levels(&ds, &h, k), ds.metric().take());
            let unpruned = (nested_levels(&ds, &h, k), ds.metric().take());
            assert_eq!(pruned.0, unpruned.0, "k = {k}");
            assert!(
                pruned.1 <= unpruned.1,
                "k = {k}: {} > {}",
                pruned.1,
                unpruned.1
            );
            // At G_net's factor (φ + 1 = 10 at ε = 1) most parents are far
            // inside the reach or far outside it.
            assert!(
                k < 10.0 || pruned.1 * 100 <= unpruned.1 * 70,
                "k = {k}: {} of {}",
                pruned.1,
                unpruned.1
            );
        }
    }

    /// Euclidean, recording which threads computed a distance.
    #[derive(Default)]
    struct ThreadProbe(Mutex<HashSet<ThreadId>>);

    impl Metric<Vec<f64>> for ThreadProbe {
        fn dist(&self, a: &Vec<f64>, b: &Vec<f64>) -> f64 {
            self.0.lock().unwrap().insert(std::thread::current().id());
            Euclidean.dist(a, b)
        }
    }

    /// The threads that computed a distance while building the ladder over
    /// `points` and walking a cascade down it, on a pool of four.
    fn threads_used(points: Vec<Vec<f64>>) -> HashSet<ThreadId> {
        let ds = Dataset::new(points, ThreadProbe::default());
        rayon::with_threads(4, || {
            let h = NetHierarchy::build(&ds);
            all_levels(&ds, &h, 4.0);
        });
        let used = ds.metric().0.lock().unwrap().clone();
        used
    }

    #[test]
    fn single_block_levels_make_no_pool_call() {
        // The shim's workers are spawned threads and the caller only joins
        // them, so "every distance was computed on the calling thread" says
        // no pool call did any of the work.
        let me = HashSet::from([std::thread::current().id()]);
        assert_eq!(threads_used(vec![vec![0.0, 0.0], vec![3.0, 4.0]]), me);
        assert_eq!(threads_used(random_points(1024, 8)), me);
        // The probe does see workers once a level has a second block.
        assert!(threads_used(random_points(1025, 9)).len() > 1);
    }

    #[test]
    fn relatives_always_include_self() {
        let ds = random_dataset(80, 6);
        let h = NetHierarchy::build(&ds);
        for (depth, level) in all_levels(&ds, &h, 4.0).iter().enumerate() {
            for (pos, list) in level.iter().enumerate() {
                assert!(
                    list.contains(&(pos as u32)),
                    "center {pos} missing from its own relatives, {depth} levels down"
                );
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
