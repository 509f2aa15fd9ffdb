//! Incremental maintenance of a `(1+ε)`-proximity graph (extension).
//!
//! The paper's construction is static; its motivating applications
//! (recommendation systems, entity matching — §1) are not. This module adds
//! the standard *logarithmic-rebuilding* dynamization on top of
//! [`crate::GNet`], preserving the worst-case `(1+ε)` guarantee at all
//! times:
//!
//! * inserts go to a **buffer** scanned exhaustively at query time; when the
//!   buffer outgrows a fraction of the snapshot, the whole structure is
//!   rebuilt with the near-linear Theorem 1.1 construction — amortized
//!   `(1/ε)^λ · polylog(nΔ)` distance work per insert;
//! * deletes tombstone the point; greedy still routes *through* tombstoned
//!   vertices (they remain good waypoints), and if greedy *returns* one, the
//!   query falls back to an exact scan (rare — and tombstones are cleared at
//!   the next rebuild, triggered when they exceed a fraction of the
//!   snapshot);
//! * a query answers `min(greedy over the snapshot graph, scan of the
//!   buffer)`: if the true NN is buffered the scan finds it exactly,
//!   otherwise greedy's `(1+ε)` bound against the snapshot's NN applies —
//!   either way the result is a `(1+ε)`-ANN of the full live set.

use pg_metric::{Dataset, Metric};

use crate::gnet::GNet;
use crate::search::greedy;

/// Statistics of a [`DynamicGNet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DynamicStats {
    /// Live points (inserted minus removed).
    pub live: usize,
    /// Points in the unindexed buffer.
    pub buffered: usize,
    /// Tombstoned points still present in the snapshot graph.
    pub tombstones: usize,
    /// Number of full rebuilds so far.
    pub rebuilds: usize,
}

/// The result of a dynamic query.
#[derive(Debug, Clone, Copy)]
pub struct DynamicAnswer {
    /// Global id of the answer (stable across rebuilds).
    pub id: u64,
    /// Its distance to the query.
    pub dist: f64,
    /// Distance computations spent (greedy + buffer scan + fallback).
    pub dist_comps: u64,
}

/// `buffer_pos` entry of a point that is not in the buffer.
const NOT_BUFFERED: usize = usize::MAX;

/// An insert/delete/query `(1+ε)`-ANN index with the Theorem 1.1 graph as
/// its core (see module docs).
///
/// Bookkeeping is `O(1)` per update outside rebuilds: the live count is a
/// counter and a buffered id is found through `buffer_pos`, so loading `n`
/// points costs `n` counter bumps, not `Θ(n²)` flag reads.
#[derive(Debug)]
pub struct DynamicGNet<P, M> {
    metric: M,
    epsilon: f64,
    /// All points ever inserted, addressed by global id.
    points: Vec<P>,
    /// `alive[id]`: not removed.
    alive: Vec<bool>,
    /// Number of `true` entries in `alive`.
    live: usize,
    /// Snapshot: a dataset clone + graph over the points present at the
    /// last rebuild. `snap_ids[v]` maps graph vertex -> global id.
    snapshot: Option<(Dataset<P, M>, GNet, Vec<u64>)>,
    /// Global ids inserted since the last rebuild.
    buffer: Vec<u64>,
    /// `buffer_pos[id]`: index of `id` in `buffer`, or [`NOT_BUFFERED`].
    buffer_pos: Vec<usize>,
    /// Tombstones inside the snapshot (removed after the last rebuild).
    snap_tombstones: usize,
    rebuilds: usize,
    /// Rebuild when `buffer + tombstones > rebuild_fraction * snapshot`.
    rebuild_fraction: f64,
    /// Minimum size before the first graph is built.
    min_index_size: usize,
}

impl<P: Clone + Sync, M: Metric<P> + Clone + Sync> DynamicGNet<P, M> {
    /// Creates an empty index for `ε ∈ (0, 1]`.
    pub fn new(metric: M, epsilon: f64) -> Self {
        assert!(epsilon > 0.0 && epsilon <= 1.0);
        DynamicGNet {
            metric,
            epsilon,
            points: Vec::new(),
            alive: Vec::new(),
            live: 0,
            snapshot: None,
            buffer: Vec::new(),
            buffer_pos: Vec::new(),
            snap_tombstones: 0,
            rebuilds: 0,
            rebuild_fraction: 0.5,
            min_index_size: 32,
        }
    }

    /// Inserts a point, returning its stable global id.
    pub fn insert(&mut self, p: P) -> u64 {
        let id = self.points.len() as u64;
        self.points.push(p);
        self.alive.push(true);
        self.live += 1;
        self.buffer_pos.push(self.buffer.len());
        self.buffer.push(id);
        self.maybe_rebuild();
        id
    }

    /// Removes a point by global id; returns whether it was live.
    pub fn remove(&mut self, id: u64) -> bool {
        let Some(alive) = self.alive.get_mut(id as usize) else {
            return false;
        };
        if !*alive {
            return false;
        }
        *alive = false;
        self.live -= 1;
        // Either it was buffered (drop it) or it is in the snapshot
        // (tombstone it).
        let pos = std::mem::replace(&mut self.buffer_pos[id as usize], NOT_BUFFERED);
        if pos == NOT_BUFFERED {
            self.snap_tombstones += 1;
        } else {
            self.buffer.swap_remove(pos);
            if let Some(&moved) = self.buffer.get(pos) {
                self.buffer_pos[moved as usize] = pos;
            }
        }
        self.maybe_rebuild();
        true
    }

    /// Number of live points.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no live points remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The metric (useful when it is an instrumented wrapper).
    pub fn metric(&self) -> &M {
        &self.metric
    }

    /// Current structure statistics.
    pub fn stats(&self) -> DynamicStats {
        DynamicStats {
            live: self.len(),
            buffered: self.buffer.len(),
            tombstones: self.snap_tombstones,
            rebuilds: self.rebuilds,
        }
    }

    fn snapshot_len(&self) -> usize {
        self.snapshot.as_ref().map_or(0, |(_, _, ids)| ids.len())
    }

    fn maybe_rebuild(&mut self) {
        let pending = self.buffer.len() + self.snap_tombstones;
        let snap = self.snapshot_len();
        let live = self.len();
        let due = if snap == 0 {
            live >= self.min_index_size
        } else {
            pending as f64 > self.rebuild_fraction * snap as f64 && live >= 2
        };
        if due && live >= 2 {
            self.rebuild();
        }
    }

    /// Forces a rebuild of the snapshot graph over all live points.
    pub fn rebuild(&mut self) {
        let ids: Vec<u64> = (0..self.points.len() as u64)
            .filter(|&id| self.alive[id as usize])
            .collect();
        for &id in &self.buffer {
            self.buffer_pos[id as usize] = NOT_BUFFERED;
        }
        self.snap_tombstones = 0;
        if ids.len() < 2 {
            // Too small for a snapshot: whatever is alive stays buffered.
            self.snapshot = None;
            for (pos, &id) in ids.iter().enumerate() {
                self.buffer_pos[id as usize] = pos;
            }
            self.buffer = ids;
        } else {
            let pts: Vec<P> = ids
                .iter()
                .map(|&id| self.points[id as usize].clone())
                .collect();
            let data = Dataset::new(pts, self.metric.clone());
            let gnet = GNet::build_fast(&data, self.epsilon);
            self.snapshot = Some((data, gnet, ids));
            self.rebuilds += 1;
            self.buffer.clear();
        }
    }

    /// `(1+ε)`-ANN query over the live set. Returns `None` when empty.
    pub fn query(&self, q: &P) -> Option<DynamicAnswer> {
        let mut comps: u64 = 0;
        let mut best: Option<(u64, f64)> = None;
        let offer = |id: u64, d: f64, best: &mut Option<(u64, f64)>| {
            if best.is_none_or(|(_, bd)| d < bd) {
                *best = Some((id, d));
            }
        };

        // 1. Greedy over the snapshot graph (if any).
        if let Some((data, gnet, ids)) = &self.snapshot {
            let out = greedy(&gnet.graph, data, 0, q);
            comps += out.dist_comps;
            let gid = ids[out.result as usize];
            if self.alive[gid as usize] {
                offer(gid, out.result_dist, &mut best);
            } else {
                // Tombstoned answer: fall back to an exact scan over the
                // snapshot's live points (rare; cleared at next rebuild).
                for (v, &g) in ids.iter().enumerate() {
                    if self.alive[g as usize] {
                        comps += 1;
                        offer(g, data.dist_to(v, q), &mut best);
                    }
                }
            }
        }

        // 2. Exact scan of the buffer.
        for &id in &self.buffer {
            comps += 1;
            offer(
                id,
                self.metric.dist(&self.points[id as usize], q),
                &mut best,
            );
        }

        best.map(|(id, dist)| DynamicAnswer {
            id,
            dist,
            dist_comps: comps,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pg_metric::Euclidean;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn brute_live(idx: &DynamicGNet<Vec<f64>, Euclidean>, q: &Vec<f64>) -> Option<(u64, f64)> {
        let mut best: Option<(u64, f64)> = None;
        for id in 0..idx.points.len() as u64 {
            if !idx.alive[id as usize] {
                continue;
            }
            let d = Euclidean.dist(&idx.points[id as usize], q);
            if best.is_none_or(|(_, bd)| d < bd) {
                best = Some((id, d));
            }
        }
        best
    }

    #[test]
    fn pure_buffer_phase_is_exact() {
        let mut idx = DynamicGNet::new(Euclidean, 1.0);
        for i in 0..10 {
            idx.insert(vec![i as f64, 0.0]);
        }
        let ans = idx.query(&vec![3.4, 0.0]).unwrap();
        assert_eq!(ans.id, 3);
        assert_eq!(
            idx.stats().rebuilds,
            0,
            "below min_index_size: no graph yet"
        );
    }

    #[test]
    fn guarantee_holds_through_growth() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut idx = DynamicGNet::new(Euclidean, 1.0);
        for step in 0..400 {
            let p = vec![rng.random_range(0.0..100.0), rng.random_range(0.0..100.0)];
            idx.insert(p);
            if step % 13 == 0 {
                let q = vec![rng.random_range(0.0..100.0), rng.random_range(0.0..100.0)];
                let ans = idx.query(&q).unwrap();
                let (_, exact) = brute_live(&idx, &q).unwrap();
                assert!(
                    ans.dist <= 2.0 * exact + 1e-9,
                    "step {step}: got {}, exact {exact}",
                    ans.dist
                );
            }
        }
        assert!(idx.stats().rebuilds >= 2, "rebuilds should have triggered");
    }

    #[test]
    fn guarantee_holds_under_interleaved_deletes() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut idx = DynamicGNet::new(Euclidean, 1.0);
        let mut ids = Vec::new();
        for _ in 0..200 {
            ids.push(idx.insert(vec![
                rng.random_range(0.0..50.0),
                rng.random_range(0.0..50.0),
            ]));
        }
        for step in 0..150 {
            // Delete a random live point, insert a fresh one, query.
            let victim = ids[rng.random_range(0..ids.len())];
            idx.remove(victim);
            ids.push(idx.insert(vec![
                rng.random_range(0.0..50.0),
                rng.random_range(0.0..50.0),
            ]));
            let q = vec![rng.random_range(0.0..50.0), rng.random_range(0.0..50.0)];
            let ans = idx.query(&q).unwrap();
            assert!(idx.alive[ans.id as usize], "returned a deleted point");
            let (_, exact) = brute_live(&idx, &q).unwrap();
            assert!(
                ans.dist <= 2.0 * exact + 1e-9,
                "step {step}: got {}, exact {exact}",
                ans.dist
            );
        }
    }

    #[test]
    fn removing_everything_empties_the_index() {
        let mut idx = DynamicGNet::new(Euclidean, 1.0);
        let ids: Vec<u64> = (0..50).map(|i| idx.insert(vec![i as f64, 1.0])).collect();
        for id in ids {
            assert!(idx.remove(id));
            assert!(!idx.remove(id), "double remove must fail");
        }
        assert!(idx.is_empty());
        assert!(idx.query(&vec![0.0, 0.0]).is_none());
    }

    #[test]
    fn len_and_buffer_index_match_a_brute_count_at_every_step() {
        let check = |idx: &DynamicGNet<Vec<f64>, Euclidean>| {
            assert_eq!(idx.len(), idx.alive.iter().filter(|&&a| a).count());
            assert_eq!(idx.stats().live, idx.len());
            let buffered = idx.buffer_pos.iter().filter(|&&p| p != NOT_BUFFERED);
            assert_eq!(buffered.count(), idx.buffer.len());
            for (pos, &id) in idx.buffer.iter().enumerate() {
                assert!(idx.alive[id as usize], "dead id {id} left in the buffer");
                assert_eq!(idx.buffer_pos[id as usize], pos);
            }
        };
        let mut rng = StdRng::seed_from_u64(4);
        let mut idx = DynamicGNet::new(Euclidean, 1.0);
        let mut ids: Vec<u64> = Vec::new();
        for step in 0..300 {
            // Two inserts per remove; victims are drawn from every id ever
            // issued, so buffered, snapshot and already-dead ids all occur.
            if step % 3 == 2 {
                let victim = ids[rng.random_range(0..ids.len())];
                let was_alive = idx.alive[victim as usize];
                assert_eq!(idx.remove(victim), was_alive);
            } else {
                ids.push(idx.insert(vec![
                    rng.random_range(0.0..50.0),
                    rng.random_range(0.0..50.0),
                ]));
            }
            check(&idx);
        }
        assert!(idx.stats().rebuilds >= 2, "the run must cross rebuilds");
        idx.rebuild();
        check(&idx);
        // Shrinking below two live points drops the snapshot and re-buffers.
        for id in ids {
            idx.remove(id);
            check(&idx);
        }
        assert!(idx.is_empty());
    }

    #[test]
    fn amortized_insert_cost_is_subquadratic() {
        use pg_metric::Counting;
        let mut rng = StdRng::seed_from_u64(3);
        let mut idx = DynamicGNet::new(Counting::new(Euclidean), 1.0);
        let n = 800usize;
        for _ in 0..n {
            idx.insert(vec![
                rng.random_range(0.0..80.0),
                rng.random_range(0.0..80.0),
            ]);
        }
        let total = idx.metric().count();
        // The geometric rebuild schedule costs a constant times ONE static
        // build of the final dataset (sizes form a geometric series) — that
        // is the amortization claim. Measure a single static build and
        // compare.
        let pts: Vec<Vec<f64>> = idx.points.clone();
        let reference = Dataset::new(pts, Counting::new(Euclidean));
        let _ = GNet::build_fast(&reference, 1.0);
        let one_build = reference.metric().count();
        assert!(
            total < 8 * one_build,
            "amortized cost too high: {total} total vs {one_build} for one static build"
        );
    }

    #[test]
    fn stats_are_consistent() {
        let mut idx = DynamicGNet::new(Euclidean, 1.0);
        for i in 0..100 {
            idx.insert(vec![i as f64, (i % 7) as f64]);
        }
        idx.remove(0);
        idx.remove(1);
        let s = idx.stats();
        assert_eq!(s.live, 98);
        assert!(s.rebuilds >= 1);
        assert!(s.buffered <= 98);
    }
}
