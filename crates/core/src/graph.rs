//! Simple directed graphs over dataset point ids, stored in compressed
//! sparse row (CSR) form.
//!
//! Every proximity-graph variant in this workspace (`G_net`, θ-graphs, the
//! merged graph, the baselines) produces a [`Graph`]; the `greedy` routine of
//! Section 1.1 and the navigability checker of Fact 2.1 consume one.

/// An immutable simple directed graph on vertices `0..n` (dataset ids).
///
/// Adjacency lists are sorted and deduplicated; self-loops are removed at
/// construction (the paper's graphs are simple).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Graph {
    offsets: Vec<usize>,
    targets: Vec<u32>,
}

impl Graph {
    /// Builds from per-vertex adjacency lists. Lists are sorted, duplicate
    /// edges and self-loops dropped.
    pub fn from_adjacency(adj: Vec<Vec<u32>>) -> Self {
        let n = adj.len();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::with_capacity(adj.iter().map(Vec::len).sum());
        offsets.push(0);
        for (v, mut list) in adj.into_iter().enumerate() {
            list.sort_unstable();
            list.dedup();
            list.retain(|&t| t as usize != v);
            for &t in &list {
                assert!((t as usize) < n, "edge target {t} out of range (n = {n})");
            }
            targets.extend_from_slice(&list);
            offsets.push(targets.len());
        }
        Graph { offsets, targets }
    }

    /// Builds from adjacency lists that are **already sorted ascending,
    /// duplicate-free and self-loop-free** — the CSR arrays are assembled
    /// directly, skipping the per-list sort + dedup of
    /// [`Graph::from_adjacency`]. The precondition is validated with a
    /// single linear scan (panicking on violation), so this is `O(E)`
    /// instead of `O(E log E)`.
    ///
    /// This is the checked public entry point for callers that already hold
    /// canonical lists (e.g. a deserialized index). The in-crate hot paths
    /// that produce canonical lists ([`Graph::complete`],
    /// [`Graph::without_edge`], [`Graph::union`]) go one step further and
    /// emit the CSR arrays without materializing per-vertex `Vec`s at all.
    pub fn from_sorted_adjacency(adj: Vec<Vec<u32>>) -> Self {
        let n = adj.len();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::with_capacity(adj.iter().map(Vec::len).sum());
        offsets.push(0);
        for (v, list) in adj.into_iter().enumerate() {
            let mut prev: Option<u32> = None;
            for &t in &list {
                assert!((t as usize) < n, "edge target {t} out of range (n = {n})");
                assert!(t as usize != v, "self-loop ({v}, {t}) in sorted adjacency");
                assert!(
                    prev.is_none_or(|p| p < t),
                    "adjacency of {v} not strictly ascending at target {t}"
                );
                prev = Some(t);
            }
            targets.extend_from_slice(&list);
            offsets.push(targets.len());
        }
        Graph { offsets, targets }
    }

    /// Assembles a graph from the [`RowBlock`]s several passes of a builder
    /// left for each block of `block` consecutive vertices: `blocks[b]`
    /// holds, in any order, what the passes found for vertices
    /// `b * block ..`. Every edge must have been found by exactly one pass,
    /// without self-loops — the rows are sorted but not deduplicated.
    ///
    /// One prefix sum sizes the single `targets` allocation of exactly `E`
    /// entries; the blocks then copy and sort their rows in place on the
    /// thread pool, each through its own `split_at_mut` slice, and drop
    /// their pass buffers as they finish. [`Graph::try_from_csr`] checks
    /// the result (panicking on a builder bug), so the output is the same
    /// canonical CSR [`Graph::from_adjacency`] would produce.
    pub(crate) fn from_row_blocks(n: usize, block: usize, blocks: Vec<Vec<RowBlock>>) -> Graph {
        assert_eq!(blocks.len(), n.div_ceil(block), "one entry per block");
        let rows_of = |b: usize| block.min(n - b * block);
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0);
        for (b, passes) in blocks.iter().enumerate() {
            for j in 0..rows_of(b) {
                let degree: usize = passes.iter().map(|p| p.degrees[j] as usize).sum();
                offsets.push(offsets[offsets.len() - 1] + degree);
            }
        }

        let mut targets = vec![0u32; offsets[n]];
        let mut rest = targets.as_mut_slice();
        let mut jobs = Vec::with_capacity(blocks.len());
        for (b, passes) in blocks.into_iter().enumerate() {
            let first = b * block;
            let (slice, tail) = rest.split_at_mut(offsets[first + rows_of(b)] - offsets[first]);
            jobs.push((slice, passes));
            rest = tail;
        }
        rayon::par_for_each_mut(&mut jobs, |b, (slice, passes)| {
            let passes = std::mem::take(passes);
            let mut cursors = vec![0usize; passes.len()];
            let mut filled = 0;
            for j in 0..rows_of(b) {
                let row_start = filled;
                for (pass, cursor) in passes.iter().zip(&mut cursors) {
                    let degree = pass.degrees[j] as usize;
                    slice[filled..filled + degree]
                        .copy_from_slice(&pass.targets[*cursor..*cursor + degree]);
                    *cursor += degree;
                    filled += degree;
                }
                slice[row_start..filled].sort_unstable();
            }
        });

        Graph::try_from_csr(offsets, targets).expect("builder passes emit each edge exactly once")
    }

    /// Rebuilds a graph from raw CSR arrays, validating every invariant the
    /// panicking constructors assert — the deserialization entry point
    /// (`pg_store` snapshots carry exactly these arrays). Untrusted input
    /// gets a typed rejection instead of a panic: offsets must start at 0,
    /// be non-decreasing and end at `targets.len()`, and every adjacency
    /// row must be strictly ascending, self-loop-free and in range.
    pub fn try_from_csr(offsets: Vec<usize>, targets: Vec<u32>) -> Result<Graph, String> {
        let n = match offsets.len().checked_sub(1) {
            Some(n) => n,
            None => return Err("offsets array is empty".into()),
        };
        if offsets[0] != 0 {
            return Err(format!("offsets must start at 0, found {}", offsets[0]));
        }
        if offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err("offsets must be non-decreasing".into());
        }
        if offsets[n] != targets.len() {
            return Err(format!(
                "final offset {} does not match edge count {}",
                offsets[n],
                targets.len()
            ));
        }
        for v in 0..n {
            let row = &targets[offsets[v]..offsets[v + 1]];
            let mut prev: Option<u32> = None;
            for &t in row {
                if t as usize >= n {
                    return Err(format!("edge target {t} out of range (n = {n})"));
                }
                if t as usize == v {
                    return Err(format!("self-loop ({v}, {t})"));
                }
                if prev.is_some_and(|p| p >= t) {
                    return Err(format!("adjacency of {v} not strictly ascending at {t}"));
                }
                prev = Some(t);
            }
        }
        Ok(Graph { offsets, targets })
    }

    /// The raw CSR row-offset array (length `n + 1`) — the serialization
    /// counterpart of [`Graph::try_from_csr`].
    pub fn csr_offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// The raw CSR target array (all adjacency rows concatenated, each
    /// sorted ascending) — the serialization counterpart of
    /// [`Graph::try_from_csr`].
    pub fn csr_targets(&self) -> &[u32] {
        &self.targets
    }

    /// The empty graph on `n` vertices.
    pub fn empty(n: usize) -> Self {
        Graph {
            offsets: vec![0; n + 1],
            targets: Vec::new(),
        }
    }

    /// The complete directed graph on `n` vertices — the trivial
    /// `(1+ε)`-proximity graph of Section 1.1 with `Θ(n^2)` edges. The CSR
    /// arrays are emitted directly (each list is ascending by construction),
    /// avoiding the `O(n^2 log n)` sort a round-trip through
    /// [`Graph::from_adjacency`] would pay.
    pub fn complete(n: usize) -> Self {
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::with_capacity(n.saturating_mul(n.saturating_sub(1)));
        offsets.push(0);
        for v in 0..n as u32 {
            targets.extend((0..n as u32).filter(|&t| t != v));
            offsets.push(targets.len());
        }
        Graph { offsets, targets }
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total number of directed edges.
    pub fn edge_count(&self) -> usize {
        self.targets.len()
    }

    /// Out-neighbors of `v`, ascending by id.
    #[inline]
    pub fn neighbors(&self, v: u32) -> &[u32] {
        &self.targets[self.offsets[v as usize]..self.offsets[v as usize + 1]]
    }

    /// Out-degree of `v`.
    pub fn out_degree(&self, v: u32) -> usize {
        self.neighbors(v).len()
    }

    /// Maximum out-degree over all vertices.
    pub fn max_out_degree(&self) -> usize {
        (0..self.n())
            .map(|v| self.out_degree(v as u32))
            .max()
            .unwrap_or(0)
    }

    /// Average out-degree (edges per vertex).
    pub fn avg_out_degree(&self) -> f64 {
        if self.n() == 0 {
            0.0
        } else {
            self.edge_count() as f64 / self.n() as f64
        }
    }

    /// Whether the directed edge `(u, v)` exists (binary search).
    pub fn has_edge(&self, u: u32, v: u32) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// A copy of the graph with the single directed edge `(u, v)` removed —
    /// used for failure injection in the lower-bound experiments. A direct
    /// CSR copy (the stored lists are already canonical): `O(E)`, no re-sort.
    pub fn without_edge(&self, u: u32, v: u32) -> Graph {
        let pos = match self.neighbors(u).binary_search(&v) {
            Ok(pos) => self.offsets[u as usize] + pos,
            Err(_) => return self.clone(), // edge absent: plain copy
        };
        let mut targets = Vec::with_capacity(self.targets.len() - 1);
        targets.extend_from_slice(&self.targets[..pos]);
        targets.extend_from_slice(&self.targets[pos + 1..]);
        let offsets = self
            .offsets
            .iter()
            .enumerate()
            .map(|(w, &o)| if w > u as usize { o - 1 } else { o })
            .collect();
        Graph { offsets, targets }
    }

    /// Vertex-wise union of two graphs on the same vertex set — the merge
    /// operation of Section 5 ("the out-edge set of each point `p` in `G` is
    /// the union of those in `G'_net` and `G_geo`"). Per vertex, the two
    /// stored lists are already sorted, so they are merged directly into the
    /// new CSR arrays: `O(E)` total instead of sort-based `O(E log E)`.
    pub fn union(&self, other: &Graph) -> Graph {
        assert_eq!(self.n(), other.n(), "vertex sets must match");
        let mut offsets = Vec::with_capacity(self.n() + 1);
        let mut targets = Vec::with_capacity(self.edge_count() + other.edge_count());
        offsets.push(0);
        for v in 0..self.n() as u32 {
            let (a, b) = (self.neighbors(v), other.neighbors(v));
            let (mut i, mut j) = (0, 0);
            while i < a.len() && j < b.len() {
                match a[i].cmp(&b[j]) {
                    std::cmp::Ordering::Less => {
                        targets.push(a[i]);
                        i += 1;
                    }
                    std::cmp::Ordering::Greater => {
                        targets.push(b[j]);
                        j += 1;
                    }
                    std::cmp::Ordering::Equal => {
                        targets.push(a[i]);
                        i += 1;
                        j += 1;
                    }
                }
            }
            targets.extend_from_slice(&a[i..]);
            targets.extend_from_slice(&b[j..]);
            offsets.push(targets.len());
        }
        Graph { offsets, targets }
    }

    /// Iterates all directed edges `(u, v)`.
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        (0..self.n() as u32).flat_map(move |u| self.neighbors(u).iter().map(move |&v| (u, v)))
    }

    /// Number of vertices with out-degree zero (a healthy proximity graph
    /// has none; see Proposition 2.1).
    pub fn sink_count(&self) -> usize {
        (0..self.n() as u32)
            .filter(|&v| self.out_degree(v) == 0)
            .count()
    }

    /// Out-degree histogram: `hist[d]` = number of vertices with out-degree
    /// `d`. Useful for size diagnostics (the Fact 2.3 packing bound shapes
    /// the tail).
    pub fn degree_histogram(&self) -> Vec<usize> {
        let mut hist = vec![0usize; self.max_out_degree() + 1];
        for v in 0..self.n() as u32 {
            hist[self.out_degree(v)] += 1;
        }
        hist
    }

    /// Number of vertices reachable from `start` by directed edges
    /// (including `start`). A `(1+ε)`-PG need not be strongly connected, but
    /// greedy must be able to *descend* from anywhere, so reachability
    /// diagnostics help debug broken graphs.
    pub fn reachable_count(&self, start: u32) -> usize {
        let mut seen = vec![false; self.n()];
        let mut stack = vec![start];
        seen[start as usize] = true;
        let mut count = 0usize;
        while let Some(v) = stack.pop() {
            count += 1;
            for &t in self.neighbors(v) {
                if !seen[t as usize] {
                    seen[t as usize] = true;
                    stack.push(t);
                }
            }
        }
        count
    }

    /// Approximate in-memory footprint of the CSR representation in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<usize>()
            + self.targets.len() * std::mem::size_of::<u32>()
    }
}

/// The out-edges one pass of a builder found for one block of consecutive
/// vertices: the block's `j`-th vertex has `degrees[j]` targets, stored back
/// to back in `targets` — two flat buffers per block instead of a `Vec` per
/// vertex. Consumed by [`Graph::from_row_blocks`].
#[derive(Debug, Clone)]
pub(crate) struct RowBlock {
    /// Out-degree contributed to each vertex of the block.
    pub degrees: Vec<u32>,
    /// The targets, concatenated in vertex order.
    pub targets: Vec<u32>,
}

/// Incremental adjacency builder.
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    adj: Vec<Vec<u32>>,
}

impl GraphBuilder {
    /// A builder for a graph on `n` vertices.
    pub fn new(n: usize) -> Self {
        GraphBuilder {
            adj: vec![Vec::new(); n],
        }
    }

    /// Adds the directed edge `(u, v)`. Duplicates and self-loops are
    /// filtered at [`GraphBuilder::build`] time.
    #[inline]
    pub fn add_edge(&mut self, u: u32, v: u32) {
        self.adj[u as usize].push(v);
    }

    /// Finalizes into a [`Graph`].
    pub fn build(self) -> Graph {
        Graph::from_adjacency(self.adj)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_adjacency_sorts_dedups_drops_self_loops() {
        let g = Graph::from_adjacency(vec![vec![2, 1, 2, 0], vec![], vec![0]]);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(1), &[] as &[u32]);
        assert_eq!(g.neighbors(2), &[0]);
        assert_eq!(g.edge_count(), 3);
    }

    #[test]
    fn from_sorted_adjacency_matches_from_adjacency() {
        let lists = vec![vec![1, 2, 4], vec![0, 3], vec![], vec![0, 1, 2, 4], vec![3]];
        let a = Graph::from_sorted_adjacency(lists.clone());
        let b = Graph::from_adjacency(lists);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "not strictly ascending")]
    fn from_sorted_adjacency_rejects_unsorted_lists() {
        let _ = Graph::from_sorted_adjacency(vec![vec![2, 1], vec![], vec![]]);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn from_sorted_adjacency_rejects_self_loops() {
        let _ = Graph::from_sorted_adjacency(vec![vec![0, 1], vec![]]);
    }

    #[test]
    #[should_panic(expected = "not strictly ascending")]
    fn from_sorted_adjacency_rejects_duplicates() {
        let _ = Graph::from_sorted_adjacency(vec![vec![1, 1], vec![0]]);
    }

    fn row_block(rows: &[&[u32]]) -> RowBlock {
        RowBlock {
            degrees: rows.iter().map(|r| r.len() as u32).collect(),
            targets: rows.concat(),
        }
    }

    #[test]
    fn from_row_blocks_matches_from_adjacency() {
        // Five vertices in blocks of two: a block with two passes, a block
        // no pass found an edge for, and a short last block.
        let blocks = vec![
            vec![row_block(&[&[4, 1], &[]]), row_block(&[&[3], &[2, 0]])],
            vec![],
            vec![row_block(&[&[2, 0, 1]])],
        ];
        let expect = Graph::from_adjacency(vec![
            vec![4, 1, 3],
            vec![2, 0],
            vec![],
            vec![],
            vec![2, 0, 1],
        ]);
        for threads in [1, 2, 5] {
            let got = rayon::with_threads(threads, || Graph::from_row_blocks(5, 2, blocks.clone()));
            assert_eq!(got, expect, "{threads} threads");
        }
    }

    #[test]
    #[should_panic(expected = "exactly once")]
    fn from_row_blocks_rejects_an_edge_found_by_two_passes() {
        let blocks = vec![vec![row_block(&[&[1], &[]]), row_block(&[&[1], &[0]])]];
        let _ = Graph::from_row_blocks(2, 2, blocks);
    }

    #[test]
    fn try_from_csr_round_trips_and_rejects_corruption() {
        let g = Graph::from_adjacency(vec![vec![1, 2], vec![2], vec![0]]);
        let ok = Graph::try_from_csr(g.csr_offsets().to_vec(), g.csr_targets().to_vec()).unwrap();
        assert_eq!(ok, g);

        let (o, t) = (g.csr_offsets().to_vec(), g.csr_targets().to_vec());
        assert!(Graph::try_from_csr(Vec::new(), Vec::new()).is_err());
        // Offsets not starting at zero.
        let mut bad = o.clone();
        bad[0] = 1;
        assert!(Graph::try_from_csr(bad, t.clone()).is_err());
        // Decreasing offsets.
        let mut bad = o.clone();
        bad[1] = 4;
        assert!(Graph::try_from_csr(bad, t.clone()).is_err());
        // Final offset disagrees with the edge count.
        let mut bad = o.clone();
        *bad.last_mut().unwrap() = 2;
        assert!(Graph::try_from_csr(bad, t.clone()).is_err());
        // Out-of-range target, self-loop, unsorted row.
        let mut bad = t.clone();
        bad[0] = 9;
        assert!(Graph::try_from_csr(o.clone(), bad).is_err());
        let mut bad = t.clone();
        bad[0] = 0; // row 0 becomes [0, 2]: self-loop
        assert!(Graph::try_from_csr(o.clone(), bad).is_err());
        let mut bad = t.clone();
        bad.swap(0, 1); // row 0 becomes [2, 1]: not ascending
        assert!(Graph::try_from_csr(o, bad).is_err());
    }

    #[test]
    fn complete_direct_csr_matches_the_adjacency_path() {
        for n in [0, 1, 2, 7, 20] {
            let direct = Graph::complete(n);
            let via_lists = Graph::from_adjacency(
                (0..n)
                    .map(|v| (0..n as u32).filter(|&t| t as usize != v).collect())
                    .collect(),
            );
            assert_eq!(direct, via_lists, "mismatch at n = {n}");
        }
    }

    #[test]
    fn complete_graph_has_n_times_n_minus_one_edges() {
        let g = Graph::complete(7);
        assert_eq!(g.edge_count(), 42);
        assert_eq!(g.max_out_degree(), 6);
        assert_eq!(g.sink_count(), 0);
    }

    #[test]
    fn has_edge_and_without_edge() {
        let g = Graph::from_adjacency(vec![vec![1, 2], vec![2], vec![]]);
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(1, 0));
        let g2 = g.without_edge(0, 1);
        assert!(!g2.has_edge(0, 1));
        assert!(g2.has_edge(0, 2));
        assert_eq!(g2.edge_count(), g.edge_count() - 1);
    }

    #[test]
    fn union_merges_out_edges() {
        let a = Graph::from_adjacency(vec![vec![1], vec![], vec![0]]);
        let b = Graph::from_adjacency(vec![vec![2], vec![0], vec![0]]);
        let u = a.union(&b);
        assert_eq!(u.neighbors(0), &[1, 2]);
        assert_eq!(u.neighbors(1), &[0]);
        assert_eq!(u.neighbors(2), &[0]);
    }

    #[test]
    fn without_edge_on_absent_edge_is_identity() {
        let g = Graph::from_adjacency(vec![vec![1, 2], vec![2], vec![]]);
        assert_eq!(g.without_edge(1, 0), g);
        assert_eq!(g.without_edge(2, 1), g);
    }

    #[test]
    fn union_merge_matches_sort_based_construction() {
        // The direct sorted-merge union must agree with the generic
        // from_adjacency path (concatenate, sort, dedup) on overlapping,
        // disjoint and empty lists alike.
        let a = Graph::from_adjacency(vec![vec![1, 3, 4], vec![0], vec![], vec![2, 4], vec![0]]);
        let b = Graph::from_adjacency(vec![vec![2, 3], vec![0, 2], vec![1], vec![], vec![0, 3]]);
        let direct = a.union(&b);
        let generic = Graph::from_adjacency(
            (0..a.n() as u32)
                .map(|v| {
                    let mut list = a.neighbors(v).to_vec();
                    list.extend_from_slice(b.neighbors(v));
                    list
                })
                .collect(),
        );
        assert_eq!(direct, generic);
    }

    #[test]
    fn builder_roundtrip() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 3);
        b.add_edge(0, 3);
        b.add_edge(3, 0);
        b.add_edge(2, 2); // self-loop, dropped
        let g = b.build();
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.sink_count(), 2); // vertices 1 and 2
    }

    #[test]
    fn edges_iterator_matches_counts() {
        let g = Graph::from_adjacency(vec![vec![1, 2], vec![2], vec![0]]);
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), g.edge_count());
        assert!(edges.contains(&(0, 1)));
        assert!(edges.contains(&(2, 0)));
    }

    #[test]
    fn degree_histogram_sums_to_n() {
        let g = Graph::from_adjacency(vec![vec![1, 2], vec![2], vec![]]);
        let hist = g.degree_histogram();
        assert_eq!(hist.iter().sum::<usize>(), 3);
        assert_eq!(hist[0], 1); // vertex 2
        assert_eq!(hist[1], 1); // vertex 1
        assert_eq!(hist[2], 1); // vertex 0
    }

    #[test]
    fn reachability_on_a_path() {
        let g = Graph::from_adjacency(vec![vec![1], vec![2], vec![3], vec![]]);
        assert_eq!(g.reachable_count(0), 4);
        assert_eq!(g.reachable_count(2), 2);
        assert_eq!(g.reachable_count(3), 1);
    }

    #[test]
    fn memory_accounting_scales_with_edges() {
        let small = Graph::complete(4);
        let big = Graph::complete(16);
        assert!(big.memory_bytes() > small.memory_bytes());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_target_rejected() {
        let _ = Graph::from_adjacency(vec![vec![5]]);
    }
}
