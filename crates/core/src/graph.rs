//! Simple directed graphs over dataset point ids, stored in compressed
//! sparse row (CSR) form.
//!
//! Every proximity-graph variant in this workspace (`G_net`, θ-graphs, the
//! merged graph, the baselines) produces a [`Graph`]; the `greedy` routine of
//! Section 1.1 and the navigability checker of Fact 2.1 consume one.
//!
//! # Bands
//!
//! A builder that knows the length `D(p, u)` of every edge it creates (the
//! [`GNet`](crate::gnet::GNet) builders) stores each row by **band**: the
//! band key of an edge is the leading bits of its length — the biased
//! binary exponent and the top `resolution` mantissa bits,
//! `d.to_bits() >> (52 - resolution)` — so at resolution 2 an octave
//! `[2^e, 2^(e+1))` is cut into the four sub-bands
//! `[1, 1.25, 1.5, 1.75, 2) · 2^e`, and at resolution 0 it is one band.
//! Keys are ordered as the lengths are, so `band_lower(key + 1)` is the
//! exclusive top of band `key`, across the exponent carry too — no anchor,
//! no table, and the key is a shift of bits the builder already holds
//! (equal-ratio steps `2^(j/4)` would need a logarithm per edge and a table
//! per walk for bands 5 % tighter at best). A row lists its bands in
//! ascending order, ids ascending inside each, and carries a small ladder
//! of band ends; the ladder records the resolution it was cut at
//! ([`BandLadder`]). This crate's builders cut at resolution 2 (chosen by
//! the sweep in EXPERIMENTS.md § Distances (PR 24)); a stored ladder keeps
//! the resolution it was written with and is never re-cut. The walks of
//! [`search`](crate::search) use the ladder to skip whole bands the
//! triangle inequality rules out. Every other graph is *un-banded*: its
//! rows are one run ascending by id, and the walks scan them whole.

use pg_metric::{Dataset, Metric};

/// An immutable simple directed graph on vertices `0..n` (dataset ids).
///
/// Adjacency lists are sorted (by id; by `(band, id)` on a banded graph,
/// see the module docs) and deduplicated; self-loops are removed at
/// construction (the paper's graphs are simple). Two graphs are equal when
/// they hold the same edges **in the same layout**: a banded graph never
/// equals an un-banded one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Graph {
    offsets: Vec<usize>,
    targets: Vec<u32>,
    bands: Option<BandLadder>,
}

/// The band ladders of a banded graph, all rows back to back: row `v` owns
/// entries `offsets[v]..offsets[v + 1]` of `exps` and `ends`. What
/// [`Graph::band_ladder`] shows and [`Graph::try_from_banded_csr`] checks.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BandLadder {
    /// Mantissa bits in a band key (see the module docs), at most
    /// [`BandLadder::MAX_RESOLUTION`].
    pub resolution: u8,
    /// Ladder offsets, length `n + 1`.
    pub offsets: Vec<usize>,
    /// The band key of each run, strictly ascending within a row.
    pub exps: Vec<u16>,
    /// Where each run ends, counted from the start of its row: strictly
    /// increasing within a row, the last one the row's degree.
    pub ends: Vec<u32>,
}

impl BandLadder {
    /// The finest resolution a ladder may declare: eight sub-bands per
    /// octave (what a snapshot can store).
    pub const MAX_RESOLUTION: u8 = pg_store::MAX_BAND_RESOLUTION;
}

/// The resolution this crate's builders cut ladders at.
const BUILD_RESOLUTION: u8 = 2;

/// The band key of a length `d >= 0` at `resolution`: its exponent field
/// and top mantissa bits, so
/// `band_lower(b, resolution) <= d < band_lower(b + 1, resolution)`.
#[inline]
pub(crate) fn band_key(d: f64, resolution: u8) -> u16 {
    ((d.to_bits() >> (52 - resolution)) & ((0x800 << resolution) - 1)) as u16
}

/// The largest key a ladder at `resolution` may hold: the key of
/// `INFINITY`, one past that of the largest finite length.
#[inline]
fn largest_key(resolution: u8) -> u16 {
    0x7ff << resolution
}

/// [`band_key`] at the resolution of this crate's builders: the band a
/// builder files an edge of length `d` under.
#[inline]
pub(crate) fn band_of(d: f64) -> u16 {
    band_key(d, BUILD_RESOLUTION)
}

/// The smallest length of band `b` at `resolution` (`0.0` for band 0,
/// `INFINITY` for the key of `INFINITY`, the largest a ladder may hold).
#[inline]
pub(crate) fn band_lower(b: u16, resolution: u8) -> f64 {
    f64::from_bits(u64::from(b) << (52 - resolution))
}

/// One adjacency row as the walks read it: the targets, and — on a banded
/// graph — the ladder that cuts them into bands, with its resolution. A
/// plain slice converts into the one-run row of an un-banded graph.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Row<'g> {
    pub(crate) targets: &'g [u32],
    pub(crate) exps: &'g [u16],
    pub(crate) ends: &'g [u32],
    pub(crate) resolution: u8,
}

impl<'g> From<&'g [u32]> for Row<'g> {
    fn from(targets: &'g [u32]) -> Self {
        Row {
            targets,
            exps: &[],
            ends: &[],
            resolution: 0,
        }
    }
}

/// Lays one row out by `(band, id)`: `targets[i]` is filed under `bands[i]`
/// into `out` (same length) — a counting sort over the row's few distinct
/// bands, then an id sort inside each — and one `(band, end)` entry per
/// non-empty band is appended to the ladder. `counts` is scratch.
fn lay_row(
    targets: &[u32],
    bands: &[u16],
    counts: &mut Vec<u32>,
    out: &mut [u32],
    exps: &mut Vec<u16>,
    ends: &mut Vec<u32>,
) {
    let Some(&lowest) = bands.iter().min() else {
        return;
    };
    let highest = bands.iter().fold(lowest, |hi, &b| hi.max(b));
    counts.clear();
    counts.resize(usize::from(highest - lowest) + 1, 0);
    for &b in bands {
        counts[usize::from(b - lowest)] += 1;
    }
    // counts[b] becomes where band b's next target goes, and in the end
    // where the band ends.
    let mut filled = 0;
    for count in counts.iter_mut() {
        filled += std::mem::replace(count, filled);
    }
    for (&t, &b) in targets.iter().zip(bands) {
        let slot = &mut counts[usize::from(b - lowest)];
        out[*slot as usize] = t;
        *slot += 1;
    }
    let mut start = 0;
    for (b, &end) in (lowest..).zip(counts.iter()) {
        if end > start {
            out[start as usize..end as usize].sort_unstable();
            exps.push(b);
            ends.push(end);
            start = end;
        }
    }
}

/// Checks a CSR-style offsets array (`what`) against the length of the array
/// it indexes (`counted`); returns the number of rows.
fn check_offsets(
    offsets: &[usize],
    len: usize,
    what: &str,
    counted: &str,
) -> Result<usize, String> {
    let n = match offsets.len().checked_sub(1) {
        Some(n) => n,
        None => return Err(format!("{what}s array is empty")),
    };
    if offsets[0] != 0 {
        return Err(format!("{what}s must start at 0, found {}", offsets[0]));
    }
    if offsets.windows(2).any(|w| w[0] > w[1]) {
        return Err(format!("{what}s must be non-decreasing"));
    }
    if offsets[n] != len {
        return Err(format!(
            "final {what} {} does not match {counted} count {len}",
            offsets[n]
        ));
    }
    Ok(n)
}

/// Checks one ascending run of row `v`: in range, self-loop-free, strictly
/// ascending.
fn check_run(v: usize, n: usize, run: &[u32]) -> Result<(), String> {
    let mut prev: Option<u32> = None;
    for &t in run {
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
    Ok(())
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
        Graph {
            offsets,
            targets,
            bands: None,
        }
    }

    /// Assembles a **banded** graph from the [`RowBlock`]s several passes of
    /// a builder left for each block of `block` consecutive vertices:
    /// `blocks[b]` holds, in any order, what the passes found for vertices
    /// `b * block ..`. Every edge must have been found by exactly one pass,
    /// without self-loops — the rows are sorted by `(band, id)` but not
    /// deduplicated.
    ///
    /// One prefix sum sizes the single `targets` allocation of exactly `E`
    /// entries; the blocks then lay their rows out in place on the thread
    /// pool, each through its own `split_at_mut` slice, and drop their pass
    /// buffers as they finish; each checks its rows as it lays them
    /// (panicking, after the join, on a builder bug). The per-block ladders
    /// are joined sequentially. The output is the graph
    /// [`Graph::from_adjacency`] + [`Graph::with_bands`] would produce.
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
            // What the block's job leaves: its rows' ladder (offsets
            // block-local, no leading 0) and what it found wrong.
            jobs.push((slice, passes, BandLadder::default(), Ok(())));
            rest = tail;
        }
        rayon::par_for_each_mut(&mut jobs, |b, (slice, passes, ladder, checked)| {
            let passes = std::mem::take(passes);
            let mut cursors = vec![0usize; passes.len()];
            let (mut row_targets, mut row_bands) = (Vec::<u32>::new(), Vec::<u16>::new());
            let mut counts = Vec::new();
            let mut filled = 0;
            for j in 0..rows_of(b) {
                row_targets.clear();
                row_bands.clear();
                for (pass, cursor) in passes.iter().zip(&mut cursors) {
                    let found = *cursor..*cursor + pass.degrees[j] as usize;
                    row_targets.extend_from_slice(&pass.targets[found.clone()]);
                    row_bands.extend_from_slice(&pass.bands[found.clone()]);
                    *cursor = found.end;
                }
                let before = ladder.exps.len();
                let row = &mut slice[filled..filled + row_targets.len()];
                lay_row(
                    &row_targets,
                    &row_bands,
                    &mut counts,
                    row,
                    &mut ladder.exps,
                    &mut ladder.ends,
                );
                ladder.offsets.push(ladder.exps.len());
                filled += row.len();
                // An edge has one length, so a second copy of it lands in
                // the same band, next to the first: checking each band's
                // run checks the whole row.
                let mut start = 0;
                for &end in &ladder.ends[before..] {
                    if checked.is_ok() {
                        *checked = check_run(b * block + j, n, &row[start..end as usize]);
                    }
                    start = end as usize;
                }
            }
        });

        let mut bands = BandLadder {
            resolution: BUILD_RESOLUTION,
            offsets: Vec::with_capacity(n + 1),
            ..BandLadder::default()
        };
        bands.offsets.push(0);
        for (_, _, ladder, checked) in jobs {
            checked.expect("builder passes emit each edge exactly once");
            let base = bands.exps.len();
            bands
                .offsets
                .extend(ladder.offsets.iter().map(|o| base + o));
            bands.exps.extend(ladder.exps);
            bands.ends.extend(ladder.ends);
        }
        Graph {
            offsets,
            targets,
            bands: Some(bands),
        }
    }

    /// This graph with its rows stored by band, the length of every edge
    /// **recomputed** from `data` (`E` distance computations): the layout
    /// [`GNet::build_fast`](crate::gnet::GNet::build_fast) produces from the
    /// distances it computes anyway, for the builders that do not keep them.
    /// Equal edge sets give equal graphs, ladders included.
    ///
    /// # Panics
    /// If the graph's vertex count differs from the dataset size.
    pub fn with_bands<P, M: Metric<P>>(&self, data: &Dataset<P, M>) -> Graph {
        self.with_bands_at(data, BUILD_RESOLUTION)
    }

    /// [`Graph::with_bands`] at any resolution.
    pub(crate) fn with_bands_at<P, M: Metric<P>>(
        &self,
        data: &Dataset<P, M>,
        resolution: u8,
    ) -> Graph {
        assert_eq!(self.n(), data.len(), "graph and dataset sizes must match");
        let mut targets = vec![0u32; self.targets.len()];
        let mut bands = BandLadder {
            resolution,
            offsets: Vec::with_capacity(self.n() + 1),
            ..BandLadder::default()
        };
        bands.offsets.push(0);
        let (mut row_bands, mut counts) = (Vec::<u16>::new(), Vec::new());
        for v in 0..self.n() {
            let row = self.neighbors(v as u32);
            row_bands.clear();
            let keys = row
                .iter()
                .map(|&t| band_key(data.dist(v, t as usize), resolution));
            row_bands.extend(keys);
            let out = &mut targets[self.offsets[v]..self.offsets[v + 1]];
            lay_row(
                row,
                &row_bands,
                &mut counts,
                out,
                &mut bands.exps,
                &mut bands.ends,
            );
            bands.offsets.push(bands.exps.len());
        }
        Graph {
            offsets: self.offsets.clone(),
            targets,
            bands: Some(bands),
        }
    }

    /// Rebuilds a graph from raw CSR arrays, validating every invariant the
    /// panicking constructors assert — the deserialization entry point
    /// (`pg_store` snapshots carry exactly these arrays). Untrusted input
    /// gets a typed rejection instead of a panic: offsets must start at 0,
    /// be non-decreasing and end at `targets.len()`, and every adjacency
    /// row must be strictly ascending, self-loop-free and in range.
    pub fn try_from_csr(offsets: Vec<usize>, targets: Vec<u32>) -> Result<Graph, String> {
        let n = check_offsets(&offsets, targets.len(), "offset", "edge")?;
        for v in 0..n {
            check_run(v, n, &targets[offsets[v]..offsets[v + 1]])?;
        }
        Ok(Graph {
            offsets,
            targets,
            bands: None,
        })
    }

    /// [`Graph::try_from_csr`] for a banded graph: the CSR arrays with rows
    /// in `(band, id)` order plus the ladder ([`Graph::band_ladder`]). On
    /// top of the CSR checks, the ladder's resolution must be at most
    /// [`BandLadder::MAX_RESOLUTION`], every row's ladder must have strictly
    /// ascending band keys no larger than the key of `INFINITY` at that
    /// resolution and strictly increasing ends whose last is the row's
    /// degree (none for an empty row), every band must be strictly
    /// ascending by id, and no target may appear in two bands of one row.
    /// What cannot be checked without the points is that the bands are the
    /// *true* keys of the edge lengths; a wrong one costs a walk candidates,
    /// never memory safety.
    pub fn try_from_banded_csr(
        offsets: Vec<usize>,
        targets: Vec<u32>,
        ladder: BandLadder,
    ) -> Result<Graph, String> {
        let n = check_offsets(&offsets, targets.len(), "offset", "edge")?;
        if ladder.resolution > BandLadder::MAX_RESOLUTION {
            return Err(format!(
                "band resolution {} above the largest supported, {}",
                ladder.resolution,
                BandLadder::MAX_RESOLUTION
            ));
        }
        if ladder.ends.len() != ladder.exps.len() {
            return Err(format!(
                "{} band ends for {} bands",
                ladder.ends.len(),
                ladder.exps.len()
            ));
        }
        if check_offsets(&ladder.offsets, ladder.exps.len(), "band offset", "band")? != n {
            return Err(format!(
                "band offsets describe {} rows, the graph has {n}",
                ladder.offsets.len() - 1
            ));
        }
        let largest = largest_key(ladder.resolution);
        let mut in_row = vec![false; n];
        for v in 0..n {
            let row = &targets[offsets[v]..offsets[v + 1]];
            let run = ladder.offsets[v]..ladder.offsets[v + 1];
            let (exps, ends) = (&ladder.exps[run.clone()], &ladder.ends[run]);
            if exps.windows(2).any(|w| w[0] >= w[1]) || exps.last().is_some_and(|&e| e > largest) {
                return Err(format!("bands of {v} not strictly ascending band keys"));
            }
            if ends.last().map_or(0, |&e| e as usize) != row.len() {
                return Err(format!(
                    "band ladder of {v} does not end at its degree {}",
                    row.len()
                ));
            }
            let mut start = 0usize;
            for &end in ends {
                let end = end as usize;
                if end <= start || end > row.len() {
                    return Err(format!("band ends of {v} not strictly increasing"));
                }
                check_run(v, n, &row[start..end])?;
                start = end;
            }
            for &t in row {
                if std::mem::replace(&mut in_row[t as usize], true) {
                    return Err(format!("target {t} appears in two bands of {v}"));
                }
            }
            for &t in row {
                in_row[t as usize] = false;
            }
        }
        Ok(Graph {
            offsets,
            targets,
            bands: Some(ladder),
        })
    }

    /// The raw CSR row-offset array (length `n + 1`) — the serialization
    /// counterpart of [`Graph::try_from_csr`].
    pub fn csr_offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// The raw CSR target array (all adjacency rows concatenated, each
    /// ascending by id within each band — one band on an un-banded graph)
    /// — the serialization counterpart of [`Graph::try_from_csr`].
    pub fn csr_targets(&self) -> &[u32] {
        &self.targets
    }

    /// Whether the rows are stored by band (see the module docs). Decided
    /// by the builder that made the graph.
    pub fn is_banded(&self) -> bool {
        self.bands.is_some()
    }

    /// The ladder of a banded graph, `None` on an un-banded one — the
    /// serialization counterpart of [`Graph::try_from_banded_csr`].
    pub fn band_ladder(&self) -> Option<&BandLadder> {
        self.bands.as_ref()
    }

    /// The empty graph on `n` vertices.
    pub fn empty(n: usize) -> Self {
        Graph {
            offsets: vec![0; n + 1],
            targets: Vec::new(),
            bands: None,
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
        Graph {
            offsets,
            targets,
            bands: None,
        }
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total number of directed edges.
    pub fn edge_count(&self) -> usize {
        self.targets.len()
    }

    /// Out-neighbors of `v`, ascending by id within each band (one band —
    /// the whole row ascending — on an un-banded graph).
    #[inline]
    pub fn neighbors(&self, v: u32) -> &[u32] {
        &self.targets[self.offsets[v as usize]..self.offsets[v as usize + 1]]
    }

    /// The row of `v` with its band ladder, as the walks read it.
    #[inline]
    pub(crate) fn row(&self, v: u32) -> Row<'_> {
        let mut row = Row::from(self.neighbors(v));
        if let Some(b) = &self.bands {
            let ladder = b.offsets[v as usize]..b.offsets[v as usize + 1];
            row.exps = &b.exps[ladder.clone()];
            row.ends = &b.ends[ladder];
            row.resolution = b.resolution;
        }
        row
    }

    /// The bands of `v`'s row as `(band, targets)` runs, ascending by band;
    /// an un-banded row is one run (band 0), an empty row none.
    fn runs(&self, v: u32) -> impl Iterator<Item = (u16, &[u32])> + '_ {
        let row = self.row(v);
        let plain = (row.exps.is_empty() && !row.targets.is_empty()).then_some((0, row.targets));
        let mut start = 0;
        let banded = row.exps.iter().zip(row.ends).map(move |(&band, &end)| {
            let run = &row.targets[start..end as usize];
            start = end as usize;
            (band, run)
        });
        plain.into_iter().chain(banded)
    }

    /// The same edges in the canonical un-banded layout, every row ascending
    /// by id: what [`Graph::from_adjacency`] builds from this graph's rows,
    /// and what a walk must be given to scan them whole.
    pub fn without_bands(&self) -> Graph {
        let mut plain = Graph {
            offsets: self.offsets.clone(),
            targets: self.targets.clone(),
            bands: None,
        };
        if self.bands.is_some() {
            for row in self.offsets.windows(2) {
                plain.targets[row[0]..row[1]].sort_unstable();
            }
        }
        plain
    }

    /// Maximum out-degree over all vertices.
    pub fn max_out_degree(&self) -> usize {
        (0..self.n())
            .map(|v| self.neighbors(v as u32).len())
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

    /// Whether the directed edge `(u, v)` exists (one binary search per
    /// band of `u`'s row).
    pub fn has_edge(&self, u: u32, v: u32) -> bool {
        self.runs(u).any(|(_, run)| run.binary_search(&v).is_ok())
    }

    /// A copy of the graph with the single directed edge `(u, v)` removed —
    /// used for failure injection in the lower-bound experiments. A direct
    /// CSR copy (the stored lists are already canonical): `O(E)`, no re-sort.
    /// The copy of a banded graph is **un-banded** (rows re-sorted by id):
    /// row-rewriting operations return canonical graphs.
    pub fn without_edge(&self, u: u32, v: u32) -> Graph {
        if self.bands.is_some() {
            return self.without_bands().without_edge(u, v);
        }
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
        Graph {
            offsets,
            targets,
            bands: None,
        }
    }

    /// Vertex-wise union of two graphs on the same vertex set — the merge
    /// operation of Section 5 ("the out-edge set of each point `p` in `G` is
    /// the union of those in `G'_net` and `G_geo`"). Per vertex, the two
    /// stored lists are already sorted, so they are merged directly into the
    /// new CSR arrays: `O(E)` total instead of sort-based `O(E log E)` (the
    /// rows of a banded operand are sorted by id first). The union is
    /// always **un-banded**.
    pub fn union(&self, other: &Graph) -> Graph {
        assert_eq!(self.n(), other.n(), "vertex sets must match");
        if self.bands.is_some() || other.bands.is_some() {
            return self.without_bands().union(&other.without_bands());
        }
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
        Graph {
            offsets,
            targets,
            bands: None,
        }
    }

    /// Iterates all directed edges `(u, v)`.
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        (0..self.n() as u32).flat_map(move |u| self.neighbors(u).iter().map(move |&v| (u, v)))
    }

    /// Number of vertices with out-degree zero (a healthy proximity graph
    /// has none; see Proposition 2.1).
    pub fn sink_count(&self) -> usize {
        (0..self.n() as u32)
            .filter(|&v| self.neighbors(v).is_empty())
            .count()
    }

    /// Approximate in-memory footprint of the CSR representation in bytes,
    /// the band ladder of a banded graph included.
    pub fn memory_bytes(&self) -> usize {
        let ladder = self.bands.as_ref().map_or(0, |b| {
            b.offsets.len() * std::mem::size_of::<usize>()
                + b.exps.len() * std::mem::size_of::<u16>()
                + b.ends.len() * std::mem::size_of::<u32>()
        });
        self.offsets.len() * std::mem::size_of::<usize>()
            + self.targets.len() * std::mem::size_of::<u32>()
            + ladder
    }
}

/// The out-edges one pass of a builder found for one block of consecutive
/// vertices: the block's `j`-th vertex has `degrees[j]` targets, stored back
/// to back in `targets` — two flat buffers per block instead of a `Vec` per
/// vertex, plus the band of every edge. Consumed by
/// [`Graph::from_row_blocks`].
#[derive(Debug, Clone)]
pub(crate) struct RowBlock {
    /// Out-degree contributed to each vertex of the block.
    pub degrees: Vec<u32>,
    /// The targets, concatenated in vertex order.
    pub targets: Vec<u32>,
    /// The band ([`band_of`] the edge's length) of each target.
    pub bands: Vec<u16>,
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

    /// A pass over one block: per vertex, `(target, band)` pairs.
    fn row_block(rows: &[&[(u32, u16)]]) -> RowBlock {
        RowBlock {
            degrees: rows.iter().map(|r| r.len() as u32).collect(),
            targets: rows.concat().iter().map(|&(t, _)| t).collect(),
            bands: rows.concat().iter().map(|&(_, band)| band).collect(),
        }
    }

    #[test]
    fn from_row_blocks_matches_from_adjacency() {
        // Five vertices in blocks of two: a block with two passes, a block
        // no pass found an edge for, and a short last block.
        let blocks = vec![
            vec![
                row_block(&[&[(4, 9), (1, 7)], &[]]),
                row_block(&[&[(3, 7)], &[(2, 5), (0, 5)]]),
            ],
            vec![],
            vec![row_block(&[&[(2, 8), (0, 3), (1, 8)]])],
        ];
        for threads in [1, 2, 5] {
            let g = rayon::with_threads(threads, || Graph::from_row_blocks(5, 2, blocks.clone()));
            assert!(g.is_banded());
            // The edges `from_adjacency` would hold, each row by (band, id).
            let edges = vec![vec![4, 1, 3], vec![2, 0], vec![], vec![], vec![2, 0, 1]];
            assert_eq!(g.without_bands(), Graph::from_adjacency(edges));
            let rows: Vec<&[u32]> = (0..5).map(|v| g.neighbors(v)).collect();
            let want: [&[u32]; 5] = [&[1, 3, 4], &[0, 2], &[], &[], &[0, 1, 2]];
            assert_eq!(rows, want, "{threads} threads");
            let ladder = g.band_ladder().unwrap();
            assert_eq!(ladder.resolution, BUILD_RESOLUTION);
            assert_eq!(ladder.offsets, [0, 2, 3, 3, 3, 5]);
            assert_eq!(ladder.exps, [7, 9, 5, 3, 8]);
            assert_eq!(ladder.ends, [2, 3, 2, 1, 3]);
            let runs: Vec<(u16, &[u32])> = g.runs(4).collect();
            assert_eq!(runs, [(3, &[0][..]), (8, &[1, 2][..])]);
        }
    }

    #[test]
    #[should_panic(expected = "exactly once")]
    fn from_row_blocks_rejects_an_edge_found_by_two_passes() {
        let blocks = vec![vec![
            row_block(&[&[(1, 4)], &[]]),
            row_block(&[&[(1, 4)], &[(0, 4)]]),
        ]];
        let _ = Graph::from_row_blocks(2, 2, blocks);
    }

    fn line(xs: &[f64]) -> Dataset<Vec<f64>, pg_metric::Euclidean> {
        Dataset::new(xs.iter().map(|&x| vec![x]).collect(), pg_metric::Euclidean)
    }

    #[test]
    fn band_key_is_the_leading_bits_and_band_lower_its_inverse_at_every_resolution() {
        // Resolution 0: the binary exponent.
        for (d, e) in [(1.0, 0), (1.5, 0), (2.0, 1), (7.9, 2), (0.5, -1), (0.3, -2)] {
            assert_eq!(i32::from(band_key(d, 0)), 1023 + e, "{d}");
        }
        // Resolution 2: quarter steps of the mantissa inside the octave.
        for (d, quarter) in [
            (1.0, 0),
            (1.24, 0),
            (1.25, 1),
            (1.5, 2),
            (1.75, 3),
            (1.99, 3),
        ] {
            assert_eq!(band_key(d, 2), (1023 << 2) + quarter, "{d}");
            assert_eq!(band_key(8.0 * d, 2), (1026 << 2) + quarter, "{d} * 8");
        }
        assert_eq!(band_of(1.5), band_key(1.5, BUILD_RESOLUTION));
        let largest_finite = f64::MAX;
        for res in 0..=BandLadder::MAX_RESOLUTION {
            let sub_bands = 1u16 << res;
            assert_eq!(band_key(0.0, res), 0, "resolution {res}");
            assert_eq!(band_lower(0, res), 0.0);
            // Subnormals share the zero exponent, cut like any other.
            assert_eq!(band_key(f64::MIN_POSITIVE / 2.0, res), sub_bands / 2);
            assert!(band_key(f64::MIN_POSITIVE / 1024.0, res) == 0);
            assert_eq!(band_key(f64::MIN_POSITIVE, res), sub_bands);
            // Infinity has the largest key a ladder may hold, the largest
            // finite length the one before it.
            assert_eq!(band_key(f64::INFINITY, res), largest_key(res));
            assert_eq!(band_lower(largest_key(res), res), f64::INFINITY);
            assert_eq!(band_key(largest_finite, res), largest_key(res) - 1);
            // Round trip, and the half-open interval — across the exponent
            // carry from the last sub-band of an octave (1.75·2^e at
            // resolution 2) into the next octave too.
            let below = |x: f64| f64::from_bits(x.to_bits() - 1);
            let lengths = [
                1e-310,
                1e-300,
                0.7,
                1.0,
                1.75,
                below(2.0),
                2.0,
                3.0,
                3.5,
                3.75,
                below(4.0),
                1e300,
                largest_finite,
            ];
            for d in lengths {
                let b = band_key(d, res);
                assert_eq!(band_key(band_lower(b, res), res), b, "{d} at {res}");
                assert!(
                    band_lower(b, res) <= d && d < band_lower(b + 1, res),
                    "{d} at resolution {res}"
                );
                assert_eq!(b >> res, band_key(d, 0), "the octave of {d}");
            }
            let last_of_octave = band_key(below(4.0), res);
            assert_eq!(band_lower(last_of_octave + 1, res), 4.0);
            assert_eq!(band_key(4.0, res), last_of_octave + 1);
        }
    }

    #[test]
    fn with_bands_files_every_edge_under_its_length() {
        // Lengths from vertex 0: 1, 3, 2.5, 100, 0 (a duplicate point).
        let data = line(&[0.0, 1.0, 3.0, -2.5, 100.0, 0.0]);
        let plain = Graph::from_adjacency(vec![
            vec![1, 2, 3, 4, 5],
            vec![0],
            vec![],
            vec![],
            vec![],
            vec![0],
        ]);
        let g = plain.with_bands(&data);
        assert!(g.is_banded() && !plain.is_banded());
        assert_ne!(g, plain, "layout is part of equality");
        assert_eq!(g.csr_offsets(), plain.csr_offsets());
        // At one band per octave: band 0 (length 0), then 2^0, 2^1 (ids
        // ascending inside), 2^6.
        let octaves = plain.with_bands_at(&data, 0);
        assert_eq!(octaves.neighbors(0), &[5, 1, 2, 3, 4]);
        let runs: Vec<(u16, &[u32])> = octaves.runs(0).collect();
        assert_eq!(
            runs,
            [
                (0, &[5][..]),
                (1023, &[1][..]),
                (1024, &[2, 3][..]),
                (1029, &[4][..])
            ]
        );
        assert_ne!(octaves, g, "the resolution is part of the layout");
        assert_eq!(octaves.without_bands(), plain);
        // At the build resolution 2.5 and 3 part ways: [2.5, 3) and [3, 3.5).
        assert_eq!(g.band_ladder().unwrap().resolution, BUILD_RESOLUTION);
        assert_eq!(g.neighbors(0), &[5, 1, 3, 2, 4]);
        let runs: Vec<(u16, &[u32])> = g.runs(0).collect();
        assert_eq!(
            runs,
            [
                (0, &[5][..]),
                (1023 << 2, &[1][..]),
                ((1024 << 2) + 1, &[3][..]),
                ((1024 << 2) + 2, &[2][..]),
                ((1029 << 2) + 2, &[4][..])
            ]
        );
        assert_eq!(g.runs(2).count(), 0);
        assert_eq!(plain.runs(0).count(), 1);
        // Same edges, whatever the layout.
        for (u, v) in plain.edges() {
            assert!(g.has_edge(u, v));
        }
        assert!(!g.has_edge(0, 0) && !g.has_edge(2, 0) && !g.has_edge(1, 5));
        assert_eq!(g.edge_count(), plain.edge_count());
        assert!(g.memory_bytes() > plain.memory_bytes());
        // Banding is idempotent and survives its own serialization arrays.
        assert_eq!(g.with_bands(&data), g);
        for banded in [&g, &octaves] {
            let back = Graph::try_from_banded_csr(
                banded.csr_offsets().to_vec(),
                banded.csr_targets().to_vec(),
                banded.band_ladder().unwrap().clone(),
            );
            assert_eq!(&back.unwrap(), banded);
        }
    }

    #[test]
    fn with_bands_reproduces_the_fast_builders_layout() {
        // The fast builder files each edge under the key of the one
        // distance its candidate test computes; recomputing them from the
        // stripped graph must give the same graph, ladder and all — at the
        // build resolution, which the ladder records.
        use crate::gnet::GNet;
        use pg_metric::{Chebyshev, Euclidean, Manhattan};
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(44);
        let spread = |_| {
            vec![
                rng.random_range(0.0f64..1.0).powi(4) * 1e3,
                rng.random_range(0.0..9.0),
            ]
        };
        let points: Vec<Vec<f64>> = (0..300).map(spread).collect();
        fn check<M: Metric<Vec<f64>> + Sync>(points: Vec<Vec<f64>>, metric: M) {
            let data = Dataset::new(points, metric);
            let built = GNet::build_fast(&data, 1.0).graph;
            let ladder = built.band_ladder().unwrap();
            assert_eq!(ladder.resolution, BUILD_RESOLUTION);
            assert!(ladder.exps.len() > 3 * built.n(), "several bands per row");
            assert_eq!(ladder.offsets.len(), built.n() + 1);
            assert_eq!(built.without_bands().with_bands(&data), built);
            // One band per octave is a coarser cut of the same rows.
            let octaves = built.with_bands_at(&data, 0);
            assert!(octaves.band_ladder().unwrap().exps.len() < ladder.exps.len());
            assert_eq!(octaves.without_bands(), built.without_bands());
            // Every edge sits in the band of its length.
            for v in 0..built.n() as u32 {
                for (band, run) in built.runs(v) {
                    for &t in run {
                        assert_eq!(band_of(data.dist(v as usize, t as usize)), band);
                    }
                }
            }
        }
        check(points.clone(), Euclidean);
        check(points.clone(), Manhattan);
        check(points, Chebyshev);
    }

    #[test]
    fn row_rewriting_operations_return_unbanded_canonical_graphs() {
        let data = line(&[0.0, 1.0, 3.0, -2.5]);
        let plain = Graph::from_adjacency(vec![vec![1, 2, 3], vec![0, 2], vec![], vec![0]]);
        let g = plain.with_bands(&data);
        assert_eq!(g.neighbors(0), &[1, 3, 2], "lengths 1, 2.5, 3");
        assert_eq!(g.neighbors(1), &[0, 2]);
        let other = Graph::from_adjacency(vec![vec![], vec![3], vec![0], vec![]]);
        assert_eq!(g.union(&other), plain.union(&other));
        assert_eq!(other.union(&g), plain.union(&other));
        assert_eq!(g.without_edge(0, 2), plain.without_edge(0, 2));
        assert_eq!(
            g.without_edge(2, 0),
            plain,
            "absent edge: the stripped copy"
        );
        assert_eq!(g.without_bands(), plain);
        assert_eq!(plain.without_bands(), plain);
    }

    #[test]
    fn try_from_banded_csr_rejects_every_bad_ladder() {
        // Row 0: band 5 = {1, 3}, band 9 = {2}; row 1: band 5 = {0}; rows
        // 2 and 3 empty.
        let offsets = vec![0, 3, 4, 4, 4];
        let targets = vec![1, 3, 2, 0];
        let (bo, be, bn) = (vec![0, 2, 3, 3, 3], vec![5, 9, 5], vec![2, 3, 1]);
        let build_at = |resolution: u8, t: &[u32], bo: &[usize], be: &[u16], bn: &[u32]| {
            let ladder = BandLadder {
                resolution,
                offsets: bo.to_vec(),
                exps: be.to_vec(),
                ends: bn.to_vec(),
            };
            Graph::try_from_banded_csr(offsets.clone(), t.to_vec(), ladder)
        };
        let build = |t: &[u32], bo: &[usize], be: &[u16], bn: &[u32]| build_at(0, t, bo, be, bn);
        let ok = build(&targets, &bo, &be, &bn).unwrap();
        assert_eq!(ok.neighbors(0), &[1, 3, 2]);
        // The same arrays are a ladder at any resolution up to the largest,
        // whose largest key grows with it.
        for res in 0..=BandLadder::MAX_RESOLUTION {
            let top = 0x7ff << res;
            let at = build_at(res, &targets, &bo, &[5, top, 5], &bn).unwrap();
            assert_eq!(at.band_ladder().unwrap().resolution, res);
            let err = build_at(res, &targets, &bo, &[5, top + 1, 5], &bn).unwrap_err();
            assert!(err.contains("ascending band keys"), "{err:?}");
        }
        let err = build_at(BandLadder::MAX_RESOLUTION + 1, &targets, &bo, &be, &bn).unwrap_err();
        assert!(err.contains("band resolution 4"), "{err:?}");

        let bad = |t: &[u32], bo: &[usize], be: &[u16], bn: &[u32], why: &str| {
            let err = build(t, bo, be, bn).expect_err(why);
            assert!(err.contains(why), "{err:?} should mention {why:?}");
        };
        // Ladder arrays of different lengths; offsets not covering them.
        bad(&targets, &bo, &be, &[2, 3], "band ends for");
        bad(&targets, &[0, 2, 2, 2, 2], &be, &bn, "band count");
        bad(&targets, &[0, 2, 3, 3], &be, &bn, "rows");
        bad(&targets, &[1, 2, 3, 3, 3], &be, &bn, "start at 0");
        bad(&targets, &[0, 3, 2, 3, 3], &be, &bn, "non-decreasing");
        // Bands not ascending, or past the key of infinity.
        bad(&targets, &bo, &[9, 5, 5], &bn, "ascending band keys");
        bad(&targets, &bo, &[5, 5, 5], &bn, "ascending band keys");
        bad(&targets, &bo, &[5, 0x800, 5], &bn, "ascending band keys");
        // Ends not monotone, past the row, or short of the degree.
        bad(&[1, 2, 3, 0], &bo, &be, &[3, 3, 1], "strictly increasing");
        bad(&targets, &bo, &be, &[0, 3, 1], "strictly increasing");
        bad(&targets, &bo, &be, &[7, 3, 1], "strictly increasing");
        bad(&targets, &bo, &be, &[2, 2, 1], "end at its degree");
        bad(&targets, &bo, &be, &[2, 3, 0], "end at its degree");
        bad(&targets, &[0, 2, 2, 3, 3], &be, &bn, "end at its degree");
        // Ids not ascending inside a band, a duplicate across bands, a
        // self-loop, an out-of-range target.
        bad(&[3, 1, 2, 0], &bo, &be, &bn, "not strictly ascending");
        bad(&[1, 3, 3, 0], &bo, &be, &bn, "two bands");
        bad(&[1, 3, 0, 0], &bo, &be, &bn, "self-loop");
        bad(&[1, 4, 2, 0], &bo, &be, &bn, "out of range");
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
