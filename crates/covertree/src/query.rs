//! Cover-tree queries: exact NN, `c`-ANN, `k`-NN and range search.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use pg_metric::Metric;

use crate::tree::CoverTree;

/// `f64` wrapper with a total order, for use as a heap key. Distances are
/// always finite and non-negative here.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Key(f64);

impl Eq for Key {}
impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Key {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl<'d, P, M: Metric<P>> CoverTree<'d, P, M> {
    /// Exact nearest live neighbor of `q`: `(dataset id, distance)`, or
    /// `None` when the tree has no live points.
    pub fn nearest(&self, q: &P) -> Option<(u32, f64)> {
        self.ann(q, 1.0)
    }

    /// `c`-approximate nearest neighbor (`c >= 1`): returns a live point `p`
    /// with `D(p, q) <= c * D(p*, q)` where `p*` is the exact nearest live
    /// point. `c = 1` gives the exact answer; the paper's Section 2.4 build
    /// uses `c = 2`.
    ///
    /// Implemented as best-first search over the tree, pruning a subtree as
    /// soon as its distance lower bound reaches `best / c`.
    pub fn ann(&self, q: &P, c: f64) -> Option<(u32, f64)> {
        assert!(c >= 1.0, "approximation factor must be >= 1");
        let root = self.root?;
        if self.is_empty() {
            return None;
        }

        let mut best: f64 = f64::INFINITY;
        let mut best_id: Option<u32> = None;
        let consider = |pid: u32, d: f64, best: &mut f64, best_id: &mut Option<u32>| {
            if !self.dead[pid as usize] && d < *best {
                *best = d;
                *best_id = Some(pid);
            }
        };

        // Min-heap over subtree lower bounds; each entry carries the node's
        // own point distance so it is computed exactly once.
        let mut heap: BinaryHeap<Reverse<(Key, u32)>> = BinaryHeap::new();
        let d_root = self.dist_q(self.nodes[root as usize].point, q);
        consider(
            self.nodes[root as usize].point,
            d_root,
            &mut best,
            &mut best_id,
        );
        let lb_root = (d_root - self.subtree_bound(root)).max(0.0);
        heap.push(Reverse((Key(lb_root), root)));

        while let Some(Reverse((Key(lb), idx))) = heap.pop() {
            if lb * c >= best {
                // Every unexplored subtree has lower bound >= lb, so no
                // unexplored point can beat best/c: the c-ANN guarantee holds.
                break;
            }
            let children: &[u32] = &self.nodes[idx as usize].children;
            for &ch in children {
                let cp = self.nodes[ch as usize].point;
                let dc = self.dist_q(cp, q);
                consider(cp, dc, &mut best, &mut best_id);
                let lb_ch = (dc - self.subtree_bound(ch)).max(0.0);
                if lb_ch * c < best {
                    heap.push(Reverse((Key(lb_ch), ch)));
                }
            }
        }
        best_id.map(|id| (id, best))
    }

    /// The `k` nearest live neighbors of `q`, ascending by distance.
    /// Returns fewer than `k` entries when fewer live points exist.
    pub fn k_nearest(&self, q: &P, k: usize) -> Vec<(u32, f64)> {
        let Some(root) = self.root else {
            return Vec::new();
        };
        if k == 0 || self.is_empty() {
            return Vec::new();
        }

        // Max-heap of the best k live candidates seen so far, deduplicated
        // by point id (the root point may appear at several nodes).
        let mut topk: BinaryHeap<(Key, u32)> = BinaryHeap::new();
        let mut in_topk: Vec<bool> = vec![false; self.data.len()];
        let offer =
            |pid: u32, d: f64, topk: &mut BinaryHeap<(Key, u32)>, in_topk: &mut Vec<bool>| {
                if self.dead[pid as usize] || in_topk[pid as usize] {
                    return;
                }
                if topk.len() < k {
                    topk.push((Key(d), pid));
                    in_topk[pid as usize] = true;
                } else if let Some(&(Key(worst), worst_id)) = topk.peek() {
                    if d < worst {
                        topk.pop();
                        in_topk[worst_id as usize] = false;
                        topk.push((Key(d), pid));
                        in_topk[pid as usize] = true;
                    }
                }
            };
        let kth_bound = |topk: &BinaryHeap<(Key, u32)>| -> f64 {
            if topk.len() < k {
                f64::INFINITY
            } else {
                topk.peek().map(|&(Key(d), _)| d).unwrap_or(f64::INFINITY)
            }
        };

        let mut heap: BinaryHeap<Reverse<(Key, u32)>> = BinaryHeap::new();
        let d_root = self.dist_q(self.nodes[root as usize].point, q);
        offer(
            self.nodes[root as usize].point,
            d_root,
            &mut topk,
            &mut in_topk,
        );
        heap.push(Reverse((
            Key((d_root - self.subtree_bound(root)).max(0.0)),
            root,
        )));

        while let Some(Reverse((Key(lb), idx))) = heap.pop() {
            if lb >= kth_bound(&topk) {
                break;
            }
            let children: &[u32] = &self.nodes[idx as usize].children;
            for &ch in children {
                let cp = self.nodes[ch as usize].point;
                let dc = self.dist_q(cp, q);
                offer(cp, dc, &mut topk, &mut in_topk);
                let lb_ch = (dc - self.subtree_bound(ch)).max(0.0);
                if lb_ch < kth_bound(&topk) {
                    heap.push(Reverse((Key(lb_ch), ch)));
                }
            }
        }

        let mut out: Vec<(u32, f64)> = topk.into_iter().map(|(Key(d), id)| (id, d)).collect();
        out.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        out
    }

    /// All live points within distance `r` of `q` (closed ball), ascending
    /// by dataset id.
    pub fn range(&self, q: &P, r: f64) -> Vec<u32> {
        let Some(root) = self.root else {
            return Vec::new();
        };
        let mut out: Vec<u32> = Vec::new();
        let mut stack: Vec<(u32, f64)> = Vec::new();
        let d_root = self.dist_q(self.nodes[root as usize].point, q);
        stack.push((root, d_root));
        let mut reported: Vec<bool> = vec![false; self.data.len()];
        while let Some((idx, d)) = stack.pop() {
            let pid = self.nodes[idx as usize].point;
            if d <= r && !self.dead[pid as usize] && !reported[pid as usize] {
                reported[pid as usize] = true;
                out.push(pid);
            }
            for &ch in &self.nodes[idx as usize].children {
                let cp = self.nodes[ch as usize].point;
                let dc = self.dist_q(cp, q);
                if dc <= r + self.subtree_bound(ch) {
                    stack.push((ch, dc));
                }
            }
        }
        out.sort_unstable();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pg_metric::{Dataset, Euclidean};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn random_dataset(n: usize, d: usize, seed: u64) -> Dataset<Vec<f64>, Euclidean> {
        let mut rng = StdRng::seed_from_u64(seed);
        let pts = (0..n)
            .map(|_| (0..d).map(|_| rng.random_range(-10.0..10.0)).collect())
            .collect();
        Dataset::new(pts, Euclidean)
    }

    #[test]
    fn nearest_matches_brute_force() {
        let ds = random_dataset(300, 3, 42);
        let t = CoverTree::build_all(&ds);
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..50 {
            let q: Vec<f64> = (0..3).map(|_| rng.random_range(-12.0..12.0)).collect();
            let (bid, bd) = ds.nearest_brute(&q);
            let (tid, td) = t.nearest(&q).unwrap();
            // Ties possible; distances must agree exactly.
            assert_eq!(bd, td, "distance mismatch (brute id {bid}, tree id {tid})");
        }
    }

    #[test]
    fn ann_factor_respected() {
        let ds = random_dataset(400, 2, 1);
        let t = CoverTree::build_all(&ds);
        let mut rng = StdRng::seed_from_u64(2);
        for c in [1.5, 2.0, 4.0] {
            for _ in 0..40 {
                let q: Vec<f64> = (0..2).map(|_| rng.random_range(-12.0..12.0)).collect();
                let (_, exact) = ds.nearest_brute(&q);
                let (_, approx) = t.ann(&q, c).unwrap();
                assert!(
                    approx <= c * exact + 1e-9,
                    "c = {c}: got {approx}, exact {exact}"
                );
            }
        }
    }

    #[test]
    fn k_nearest_matches_brute_force() {
        let ds = random_dataset(200, 2, 3);
        let t = CoverTree::build_all(&ds);
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..25 {
            let q: Vec<f64> = (0..2).map(|_| rng.random_range(-12.0..12.0)).collect();
            for k in [1usize, 3, 10] {
                let brute = ds.k_nearest_brute(&q, k);
                let tree = t.k_nearest(&q, k);
                assert_eq!(tree.len(), k);
                for (b, t) in brute.iter().zip(tree.iter()) {
                    assert!((b.1 - t.1).abs() < 1e-12, "kth distance mismatch");
                }
            }
        }
    }

    #[test]
    fn range_matches_brute_force() {
        let ds = random_dataset(200, 3, 5);
        let t = CoverTree::build_all(&ds);
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..25 {
            let q: Vec<f64> = (0..3).map(|_| rng.random_range(-12.0..12.0)).collect();
            let r = rng.random_range(0.5..8.0);
            let brute: Vec<u32> = ds
                .range_brute(&q, r)
                .into_iter()
                .map(|i| i as u32)
                .collect();
            let tree = t.range(&q, r);
            assert_eq!(brute, tree);
        }
    }

    #[test]
    fn queries_skip_tombstones() {
        let ds = random_dataset(100, 2, 8);
        let mut t = CoverTree::build_all(&ds);
        let q: Vec<f64> = vec![0.0, 0.0];
        let (first, d1) = t.nearest(&q).unwrap();
        t.remove(first);
        let (second, d2) = t.nearest(&q).unwrap();
        assert_ne!(first, second);
        assert!(d2 >= d1);
        // Restoring brings the original winner back.
        t.restore(first);
        let (again, d3) = t.nearest(&q).unwrap();
        assert_eq!(d3, d1);
        assert_eq!(again, first);
    }

    #[test]
    fn repeated_delete_query_restore_matches_sorted_order() {
        // The access pattern of the paper's Section 2.4 build: repeatedly take
        // the nearest, tombstone it, and finally restore everything.
        let ds = random_dataset(60, 2, 9);
        let mut t = CoverTree::build_all(&ds);
        let q: Vec<f64> = vec![1.0, -1.0];
        let brute = ds.k_nearest_brute(&q, 60);
        let mut removed = Vec::new();
        for expect in brute.iter().take(20) {
            let (id, d) = t.nearest(&q).unwrap();
            assert!((d - expect.1).abs() < 1e-12);
            t.remove(id);
            removed.push(id);
        }
        for id in removed {
            t.restore(id);
        }
        assert_eq!(t.len(), 60);
        let (_, d) = t.nearest(&q).unwrap();
        assert!((d - brute[0].1).abs() < 1e-12);
    }

    #[test]
    fn repeated_ann_delete_retrieval_equals_range_query() {
        // The Section 2.4 retrieval of S (repeated 2-ANN + delete until the
        // reported distance exceeds 2R) returns exactly the R-ball, the same
        // set a direct range query reports. The cover tree with tombstone
        // deletion stands in for the paper's Cole–Gottlieb 2-ANN structure.
        let ds = random_dataset(150, 2, 21);
        let mut t = CoverTree::build_all(&ds);
        for (qi, r) in [(3usize, 2.0f64), (77, 5.0), (140, 9.0)] {
            let q = ds.point(qi).clone();
            let mut s_del: Vec<u32> = Vec::new();
            let mut s_set: Vec<u32> = Vec::new();
            while let Some((y, d)) = t.ann(&q, 2.0) {
                if d > 2.0 * r {
                    break;
                }
                if d <= r {
                    s_set.push(y);
                }
                t.remove(y);
                s_del.push(y);
            }
            for y in s_del {
                t.restore(y);
            }
            s_set.sort_unstable();
            let range = t.range(&q, r);
            assert_eq!(s_set, range, "query {qi}, radius {r}");
        }
    }

    #[test]
    fn empty_and_all_dead_trees_return_none() {
        let ds = random_dataset(5, 2, 10);
        let mut t = CoverTree::new(&ds);
        assert!(t.nearest(&vec![0.0, 0.0]).is_none());
        for pid in 0..5 {
            t.insert(pid);
        }
        for pid in 0..5 {
            t.remove(pid);
        }
        assert!(t.nearest(&vec![0.0, 0.0]).is_none());
        assert!(t.k_nearest(&vec![0.0, 0.0], 3).is_empty());
        assert!(t.range(&vec![0.0, 0.0], 100.0).is_empty());
    }

    #[test]
    fn k_nearest_larger_than_live_count() {
        let ds = random_dataset(10, 2, 11);
        let mut t = CoverTree::build_all(&ds);
        t.remove(0);
        t.remove(1);
        let res = t.k_nearest(&vec![0.0, 0.0], 20);
        assert_eq!(res.len(), 8);
    }
}
