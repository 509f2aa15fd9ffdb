//! Core cover-tree structure: nodes, insertion, tombstone deletion.

use pg_metric::{Dataset, Metric};

/// Covering radius of a node at `level`: `2^level`.
#[inline]
pub(crate) fn covdist(level: i32) -> f64 {
    (2.0f64).powi(level)
}

#[derive(Debug, Clone)]
pub(crate) struct Node {
    /// Dataset id of the point this node carries.
    pub point: u32,
    /// Scale level; children live at `level - 1` and lie within
    /// `covdist(level)` of this node's point.
    pub level: i32,
    /// Arena indices of children.
    pub children: Vec<u32>,
    /// Upper bound on the distance from `point` to any point in this node's
    /// subtree (cached for pruning; see [`CoverTree::subtree_bound`]).
    pub max_r: f64,
}

/// A dynamic cover tree over (a subset of) the points of a [`Dataset`].
///
/// Invariants maintained (the "simplified cover tree" of Izbicki–Shelton):
///
/// * **leveling** — every child is exactly one level below its parent;
/// * **covering** — `D(parent, child) <= covdist(parent) = 2^{level(parent)}`;
/// * **separation** (emergent) — when a point is inserted as a new child of
///   `p`, it is farther than `covdist(child)` from every existing child, so
///   siblings are `> covdist(parent)/2` apart.
///
/// The root point may be duplicated at several levels (root raising creates
/// a self-chain); queries deduplicate by point id.
///
/// Deletion is *lazy*: [`CoverTree::remove`] tombstones the point so queries
/// skip it, and [`CoverTree::restore`] revives it. This is exactly the
/// pattern the paper's Section 2.4 `build` needs (points of the net `Y_i`
/// are deleted during the retrieval of `S` and then re-inserted), and is the
/// standard engineering substitute for the Cole–Gottlieb structure's true
/// deletions.
#[derive(Debug)]
pub struct CoverTree<'d, P, M> {
    pub(crate) data: &'d Dataset<P, M>,
    pub(crate) nodes: Vec<Node>,
    pub(crate) root: Option<u32>,
    /// `dead[pid]` is true when point `pid` is tombstoned.
    pub(crate) dead: Vec<bool>,
    /// Ids ever inserted; a point appears once.
    pub(crate) members: Vec<u32>,
    pub(crate) live_count: usize,
}

impl<'d, P, M: Metric<P>> CoverTree<'d, P, M> {
    /// Creates an empty tree over `data`. Points are referenced by dataset
    /// id; the tree never copies point coordinates.
    pub fn new(data: &'d Dataset<P, M>) -> Self {
        CoverTree {
            data,
            nodes: Vec::new(),
            root: None,
            dead: vec![false; data.len()],
            members: Vec::new(),
            live_count: 0,
        }
    }

    /// Builds a tree containing the given dataset ids, inserting in order.
    pub fn build(data: &'d Dataset<P, M>, ids: impl IntoIterator<Item = u32>) -> Self {
        let mut t = CoverTree::new(data);
        for id in ids {
            t.insert(id);
        }
        t
    }

    /// Builds a tree over the entire dataset.
    pub fn build_all(data: &'d Dataset<P, M>) -> Self {
        CoverTree::build(data, 0..data.len() as u32)
    }

    /// Number of live (non-tombstoned) points.
    pub fn len(&self) -> usize {
        self.live_count
    }

    /// True when no live points remain.
    pub fn is_empty(&self) -> bool {
        self.live_count == 0
    }

    /// Whether `pid` is currently live in the tree.
    pub fn contains_live(&self, pid: u32) -> bool {
        self.members.contains(&pid) && !self.dead[pid as usize]
    }

    #[inline]
    pub(crate) fn dist_pts(&self, a: u32, b: u32) -> f64 {
        self.data.dist(a as usize, b as usize)
    }

    #[inline]
    pub(crate) fn dist_q(&self, a: u32, q: &P) -> f64 {
        self.data.dist_to(a as usize, q)
    }

    /// Upper bound on `D(node.point, descendant)` for all descendants:
    /// the cached `max_r` tightened by the geometric bound `2 * covdist`.
    #[inline]
    pub(crate) fn subtree_bound(&self, idx: u32) -> f64 {
        let n = &self.nodes[idx as usize];
        n.max_r.min(2.0 * covdist(n.level))
    }

    fn push_node(&mut self, point: u32, level: i32) -> u32 {
        let idx = self.nodes.len() as u32;
        self.nodes.push(Node {
            point,
            level,
            children: Vec::new(),
            max_r: 0.0,
        });
        idx
    }

    /// Inserts dataset point `pid`. Re-inserting a tombstoned member revives
    /// it (equivalent to [`CoverTree::restore`]); re-inserting a live member
    /// is a no-op.
    pub fn insert(&mut self, pid: u32) {
        assert!((pid as usize) < self.data.len(), "pid out of range");
        if self.members.contains(&pid) {
            if self.dead[pid as usize] {
                self.dead[pid as usize] = false;
                self.live_count += 1;
            }
            return;
        }
        self.members.push(pid);
        self.live_count += 1;

        let Some(mut root) = self.root else {
            self.root = Some(self.push_node(pid, 0));
            return;
        };

        let d_root = self.dist_pts(self.nodes[root as usize].point, pid);
        if d_root > covdist(self.nodes[root as usize].level) {
            // Raise the root (self-chaining) until the new point fits under a
            // root one level higher, then make the new point that root.
            while d_root > 2.0 * covdist(self.nodes[root as usize].level) {
                let (rp, rl, rmax) = {
                    let r = &self.nodes[root as usize];
                    (r.point, r.level, r.max_r)
                };
                let new_root = self.push_node(rp, rl + 1);
                self.nodes[new_root as usize].children.push(root);
                self.nodes[new_root as usize].max_r = rmax;
                root = new_root;
                // Same point, so d_root is unchanged.
            }
            let old_level = self.nodes[root as usize].level;
            let old_bound = self.subtree_bound(root);
            let new_root = self.push_node(pid, old_level + 1);
            self.nodes[new_root as usize].children.push(root);
            self.nodes[new_root as usize].max_r = d_root + old_bound;
            self.root = Some(new_root);
            return;
        }

        // Standard descent: follow any child that covers the new point;
        // otherwise attach as a new child of the current node.
        let mut cur = root;
        let mut d_cur = d_root;
        loop {
            let node = &mut self.nodes[cur as usize];
            if d_cur > node.max_r {
                node.max_r = d_cur;
            }
            let level = node.level;
            let child_indices: Vec<u32> = node.children.clone();
            let mut descend: Option<(u32, f64)> = None;
            for ch in child_indices {
                let cp = self.nodes[ch as usize].point;
                let dc = self.dist_pts(cp, pid);
                if dc <= covdist(level - 1) {
                    descend = Some((ch, dc));
                    break;
                }
            }
            match descend {
                Some((ch, dc)) => {
                    cur = ch;
                    d_cur = dc;
                }
                None => {
                    let leaf = self.push_node(pid, level - 1);
                    self.nodes[cur as usize].children.push(leaf);
                    return;
                }
            }
        }
    }

    /// Tombstones point `pid`. Returns `true` if it was live. Queries will
    /// no longer report the point, but its tree nodes keep routing traffic.
    pub fn remove(&mut self, pid: u32) -> bool {
        if (pid as usize) < self.dead.len()
            && !self.dead[pid as usize]
            && self.members.contains(&pid)
        {
            self.dead[pid as usize] = true;
            self.live_count -= 1;
            true
        } else {
            false
        }
    }

    /// Revives a tombstoned point. Returns `true` if it was tombstoned.
    pub fn restore(&mut self, pid: u32) -> bool {
        if (pid as usize) < self.dead.len()
            && self.dead[pid as usize]
            && self.members.contains(&pid)
        {
            self.dead[pid as usize] = false;
            self.live_count += 1;
            true
        } else {
            false
        }
    }

    /// Checks the structural invariants (leveling, covering, `max_r`
    /// soundness) over the whole tree. Intended for tests; `O(total nodes *
    /// depth)` distance evaluations.
    pub fn check_invariants(&self) -> Result<(), String> {
        let Some(root) = self.root else {
            return if self.nodes.is_empty() {
                Ok(())
            } else {
                Err("nodes exist but no root".into())
            };
        };
        let mut stack = vec![root];
        let mut visited = 0usize;
        while let Some(idx) = stack.pop() {
            visited += 1;
            let node = &self.nodes[idx as usize];
            for &ch in &node.children {
                let child = &self.nodes[ch as usize];
                if child.level != node.level - 1 {
                    return Err(format!(
                        "leveling violated: parent level {} child level {}",
                        node.level, child.level
                    ));
                }
                let d = self.dist_pts(node.point, child.point);
                if d > covdist(node.level) * (1.0 + 1e-12) {
                    return Err(format!(
                        "covering violated: d = {d} > covdist = {}",
                        covdist(node.level)
                    ));
                }
                stack.push(ch);
            }
            // max_r must bound every descendant.
            let mut desc = vec![idx];
            while let Some(di) = desc.pop() {
                let dn = &self.nodes[di as usize];
                let d = self.dist_pts(node.point, dn.point);
                if d > self.subtree_bound(idx) * (1.0 + 1e-12) {
                    return Err(format!(
                        "subtree bound violated: d = {d} > bound = {}",
                        self.subtree_bound(idx)
                    ));
                }
                desc.extend(dn.children.iter().copied());
            }
        }
        if visited != self.nodes.len() {
            return Err(format!(
                "dangling nodes: visited {visited} of {}",
                self.nodes.len()
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pg_metric::Euclidean;

    fn dataset(pts: Vec<Vec<f64>>) -> Dataset<Vec<f64>, Euclidean> {
        Dataset::new(pts, Euclidean)
    }

    #[test]
    fn single_point_tree() {
        let ds = dataset(vec![vec![0.0]]);
        let t = CoverTree::build_all(&ds);
        assert_eq!(t.len(), 1);
        t.check_invariants().unwrap();
    }

    #[test]
    fn invariants_hold_on_line() {
        let ds = dataset((0..64).map(|i| vec![i as f64]).collect());
        let t = CoverTree::build_all(&ds);
        assert_eq!(t.len(), 64);
        t.check_invariants().unwrap();
    }

    #[test]
    fn invariants_hold_on_powers_of_two_spread() {
        // Huge aspect ratio forces many root raises.
        let ds = dataset((0..20).map(|i| vec![(2.0f64).powi(i)]).collect());
        let t = CoverTree::build_all(&ds);
        t.check_invariants().unwrap();
    }

    #[test]
    fn duplicate_points_are_tolerated() {
        let ds = dataset(vec![vec![1.0], vec![1.0], vec![2.0], vec![1.0]]);
        let t = CoverTree::build_all(&ds);
        assert_eq!(t.len(), 4);
        t.check_invariants().unwrap();
    }

    #[test]
    fn remove_restore_roundtrip() {
        let ds = dataset((0..10).map(|i| vec![i as f64]).collect());
        let mut t = CoverTree::build_all(&ds);
        assert!(t.remove(3));
        assert!(!t.remove(3), "double-remove must report false");
        assert_eq!(t.len(), 9);
        assert!(!t.contains_live(3));
        assert!(t.restore(3));
        assert!(!t.restore(3), "double-restore must report false");
        assert_eq!(t.len(), 10);
        assert!(t.contains_live(3));
    }

    #[test]
    fn reinsert_of_tombstoned_member_revives() {
        let ds = dataset((0..5).map(|i| vec![i as f64]).collect());
        let mut t = CoverTree::build_all(&ds);
        t.remove(2);
        t.insert(2);
        assert!(t.contains_live(2));
        assert_eq!(t.len(), 5);
    }
}
