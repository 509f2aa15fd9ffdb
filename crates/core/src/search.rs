//! Routing over proximity graphs: the `greedy` procedure of Section 1.1,
//! its budgeted `query` wrapper, and beam search as a practical extension.
//!
//! There is one hill-climb, `SearchScratch::descend`, and one best-first
//! walk, [`beam_walk`]. [`query`] (so [`greedy`]) is the descent on a
//! pooled scratch, and it scores each vertex at most once per call: a
//! neighbour an earlier scan scored is no closer than the vertex the walk
//! stands on, so it cannot be the next hop. The descent's line 3 is a
//! constant: the paper's closest neighbour for [`query`], the first
//! closer one for the descent before a banded beam (below).
//!
//! Past its first few expansions a walk scores a handful of points per row,
//! so [`beam_walk`] waits for nothing it can know in advance: one sorted
//! candidate array instead of heaps, the rows of the next candidates loaded
//! while the current one is scanned, the points of a band's first-visit
//! targets all asked for before any of them is scored (a [`Score`] that
//! knows where its points live, [`point_score`]), and — through
//! [`Dataset::surrogates_to`](pg_metric::Dataset::surrogates_to) — a flat
//! dataset's `L_p` kernel inlined into the scan. No score, result or count
//! changes, and neither does the order of the `score` calls.
//!
//! # The annulus rule
//!
//! Every walk here expands a vertex `p` at distance `r = D(p, q)` from the
//! query while holding a bound `w`: a neighbour can only matter if it is
//! closer to `q` than `w` (the beam's worst kept distance; for `greedy`,
//! the best neighbour seen so far, at most `r`). By the triangle
//! inequality `D(u, q) >= |D(p, u) - r|`, so a neighbour whose edge length
//! lies outside `(r - w, r + w)` cannot matter and need not be scored. On a
//! banded [`Graph`] (rows stored by edge-length band, see
//! [`graph`](crate::graph)) the walks therefore scan a row's bands
//! **outward** from the one holding `r` — nearest candidates first, which
//! shrinks `w` soonest — re-read `w` before each run of bands (a band, or
//! a few slivers of one octave and side taken together), and close a side
//! at the first band wholly outside the annulus. The cut keeps a relative
//! slack (`1e-9`, [`ANNULUS_SLACK`]) so rounding in the three computed
//! distances can never skip a candidate the plain scan would keep. An
//! un-banded row is the one-band case: it is scanned whole and no distance
//! is ever mapped back from a score.
//!
//! # Descending before widening
//!
//! While a beam still has room the annulus rule prunes nothing, so a beam
//! opened far from the query scores whole rows there. On a banded graph
//! [`beam_search_detailed`] and the engines therefore first descend from
//! the given start, by scans the annulus rule keeps to a few dozen scores,
//! and open the width-`ef` beam where the descent stops. The descent is
//! [`greedy`]'s loop with line 3 relaxed: it hops at the **first**
//! neighbour its outward band scan finds strictly closer than the vertex
//! it stands on, and scans no further. The beam needs no more than a cheap
//! entry. A finished beam has expanded its top-1 `t`, and a neighbour of
//! `t` strictly closer to the query lies inside that expansion's annulus
//! (`w >= D(t, q)`), so it would have been scored and kept above `t`: the
//! top-1 is a local minimum, which Fact 2.1 makes a `(1+ε)`-ANN on `G_net`
//! from any entry. And Theorem 1.1's hop bound holds for any strictly
//! improving walk on `G_net`, so the first improvement takes no more hops
//! than the paper's bound, each for fewer scores. Where the descent stops
//! depends on the order in which the graph's own band ladder scans a row;
//! greedy's hops never do, and [`greedy`] and [`query`] keep the closest
//! neighbour. The beam looks up, instead of recomputing, the score of
//! every vertex the descent scored, so no vertex is scored twice in one
//! search. Un-banded graphs (HNSW's ground layer, NSW, Vamana, stripped
//! copies) are searched from the start as given: there a descent would
//! score every neighbour of every hop, which is the beam's own work.

use std::sync::{Mutex, MutexGuard, PoisonError};

use pg_metric::{Dataset, Metric, Quantized, ANNULUS_SLACK};

use crate::graph::{band_key, band_lower, Graph, Row};

/// Where a walk reads adjacency rows: the neighbour source of the loop
/// behind [`beam_walk`].
///
/// Any `Fn(u32) -> &[u32]` is a source of un-banded rows — what every
/// caller of [`beam_walk`] passes. A source of banded rows also says how a
/// walk score maps to the distance the band bounds are lengths of.
trait Rows<'g> {
    /// The out-neighbours of `v`.
    fn row(&self, v: u32) -> Row<'g>;

    /// The distance a walk score stands for — monotone, and on the scale
    /// of the edge lengths the bands were cut from. Called for banded rows
    /// only.
    fn dist_of(&self, score: f64) -> f64 {
        score
    }

    /// Loads the start of `v`'s row — its bounds, band ladder and first
    /// targets — ahead of its expansion. The value means nothing; folded
    /// into one the walk consumes, it keeps the loads from being dropped.
    #[inline]
    fn touch(&self, v: u32) -> u32 {
        let row = self.row(v);
        let first = |s: &[u32]| s.first().copied().unwrap_or(0);
        first(row.targets) ^ first(row.ends) ^ row.exps.first().map_or(0, |&e| u32::from(e))
    }
}

impl<'g, F: Fn(u32) -> &'g [u32]> Rows<'g> for F {
    #[inline]
    fn row(&self, v: u32) -> Row<'g> {
        self(v).into()
    }
}

/// How a walk scores a vertex — lower is better — and what it can load
/// before it does. Any `FnMut(u32) -> f64` is a score that loads nothing;
/// [`point_score`] loads a dataset's points.
pub trait Score {
    /// The score of `v`. A walk calls it once per visited vertex, in
    /// visiting order.
    fn score(&mut self, v: u32) -> f64;

    /// Loads what scoring `v` will read. A walk calls it once for each
    /// vertex it is about to score, before scoring any target of the same
    /// band, and for no other vertex. The value means nothing; folded
    /// into one the walk consumes, it keeps the loads from being dropped.
    /// The default loads nothing.
    #[inline]
    fn touch(&self, v: u32) -> u64 {
        let _ = v;
        0
    }
}

impl<F: FnMut(u32) -> f64> Score for F {
    #[inline]
    fn score(&mut self, v: u32) -> f64 {
        self(v)
    }
}

/// `score`, with `data`'s point of each vertex loaded ahead of it
/// ([`Dataset::touches`](pg_metric::Dataset::touches): every cache line of
/// a flat dataset's point, nothing on any other dataset) — how the searches
/// of this crate and the HNSW, NSW and Vamana construction walks score.
/// `score` must read vertex `v`'s point of `data`, or the loads are wasted.
pub fn point_score<'a, P, M: Metric<P>>(
    data: &'a Dataset<P, M>,
    score: impl FnMut(u32) -> f64 + 'a,
) -> impl Score + 'a {
    PointScore {
        touch: data.touches(),
        score,
    }
}

/// The [`Score`] behind [`point_score`].
struct PointScore<T, S> {
    touch: T,
    score: S,
}

impl<T: Fn(usize) -> u64, S: FnMut(u32) -> f64> Score for PointScore<T, S> {
    #[inline]
    fn score(&mut self, v: u32) -> f64 {
        (self.score)(v)
    }

    #[inline]
    fn touch(&self, v: u32) -> u64 {
        (self.touch)(v as usize)
    }
}

/// The rows of `graph` for walks scored by `data`'s metric surrogate.
struct MetricRows<'g, P, M> {
    graph: &'g Graph,
    data: &'g Dataset<P, M>,
}

impl<'g, P, M: Metric<P>> Rows<'g> for MetricRows<'g, P, M> {
    #[inline]
    fn row(&self, v: u32) -> Row<'g> {
        self.graph.row(v)
    }

    #[inline]
    fn dist_of(&self, score: f64) -> f64 {
        self.data.dist_from_surrogate(score)
    }
}

/// A score and the distance it stands for, mapped again only when the score
/// has moved — a walk re-reads its bound before every band.
struct Bound {
    score: f64,
    dist: f64,
}

impl Bound {
    fn unset() -> Self {
        Bound {
            score: f64::NAN,
            dist: f64::NAN,
        }
    }

    fn of(&mut self, score: f64, dist_of: impl FnOnce(f64) -> f64) -> f64 {
        if self.score.to_bits() != score.to_bits() {
            *self = Bound {
                score,
                dist: dist_of(score),
            };
        }
        self.dist
    }
}

/// A run grows over the next sub-band of its octave while it holds fewer
/// targets than this — one cache line of ids: handing out a shorter run
/// costs more in the step than re-reading the bound can save in scores.
const RUN_TARGETS: usize = 16;

/// The bands of one row in scanning order (the annulus rule of the module
/// docs): outward from the band holding `r`, the side whose next band can
/// hold the nearer candidate first, each side closed for good at the first
/// band wholly outside `(r - w, r + w)`. Bands are handed out in **runs**:
/// one band, grown over the following sub-bands of the same side and
/// octave that pass under the same `w`, while the run is shorter than
/// [`RUN_TARGETS`]. A ladder at resolution 0 has no sub-bands, so its runs
/// are its bands.
struct Outward<'g> {
    row: Row<'g>,
    r: f64,
    /// Bands `..lo` and `hi..` are still to scan.
    lo: usize,
    hi: usize,
    /// An un-banded row not yet handed out.
    whole: bool,
}

impl<'g> Outward<'g> {
    /// The scan of `row` from a vertex at distance `r()` of the query; `r`
    /// is evaluated for a banded row only.
    fn new(row: Row<'g>, r: impl FnOnce() -> f64) -> Self {
        let mut scan = Outward {
            row,
            r: 0.0,
            lo: 0,
            hi: 0,
            whole: row.exps.is_empty() && !row.targets.is_empty(),
        };
        if !row.exps.is_empty() {
            scan.r = r();
            let home = band_key(scan.r, row.resolution);
            scan.lo = row.exps.partition_point(|&e| e < home);
            scan.hi = scan.lo;
        }
        scan
    }

    /// Lower bound on `D(u, q)` over band `lo - 1`, the nearest unscanned
    /// one below: every `u` there has `D(p, u) < top`.
    #[inline]
    fn gap_below(&self) -> f64 {
        let top = band_lower(self.row.exps[self.lo - 1] + 1, self.row.resolution);
        self.r - top
    }

    /// The smallest length of band `hi`, the nearest unscanned one above:
    /// every `u` there has `D(u, q) >= bottom - r`.
    #[inline]
    fn bottom_above(&self) -> f64 {
        band_lower(self.row.exps[self.hi], self.row.resolution)
    }

    /// Whether band `lo - 1` lies wholly outside the annulus under `w`.
    #[inline]
    fn below_is_out(&self, w: f64) -> bool {
        self.gap_below() > w + ANNULUS_SLACK * self.r
    }

    /// Whether band `hi` lies wholly outside the annulus under `w`.
    #[inline]
    fn above_is_out(&self, w: f64) -> bool {
        let bottom = self.bottom_above();
        bottom - self.r > w + ANNULUS_SLACK * bottom
    }

    /// Whether bands `a` and `b` are sub-bands of one octave.
    #[inline]
    fn same_octave(&self, a: usize, b: usize) -> bool {
        let octave = |band: usize| self.row.exps[band] >> self.row.resolution;
        octave(a) == octave(b)
    }

    /// Where band `band` starts in the row.
    #[inline]
    fn start_of(&self, band: usize) -> usize {
        band.checked_sub(1).map_or(0, |b| self.row.ends[b] as usize)
    }

    /// The next run to scan under the bound `w()` (read only when a band
    /// is left), `None` when both sides are done. Only the side about to be
    /// taken is held against `w`: the other one's cut can wait until its
    /// turn, because `w` never grows and a side stays closed.
    fn next(&mut self, w: impl FnOnce() -> f64) -> Option<&'g [u32]> {
        if std::mem::take(&mut self.whole) {
            return Some(self.row.targets);
        }
        let bands = self.row.exps.len();
        if self.lo == 0 && self.hi == bands {
            return None;
        }
        let w = w();
        loop {
            // The side whose nearest unscanned band has the smaller gap to
            // `r`; the lower one on a tie.
            let below = self.hi == bands
                || (self.lo > 0 && self.gap_below() <= self.bottom_above() - self.r);
            if below {
                if self.lo == 0 {
                    return None;
                }
                if self.below_is_out(w) {
                    self.lo = 0;
                    continue;
                }
                let end = self.row.ends[self.lo - 1] as usize;
                self.lo -= 1;
                while self.lo > 0
                    && end - self.start_of(self.lo) < RUN_TARGETS
                    && self.same_octave(self.lo - 1, self.lo)
                    && !self.below_is_out(w)
                {
                    self.lo -= 1;
                }
                return Some(&self.row.targets[self.start_of(self.lo)..end]);
            }
            if self.above_is_out(w) {
                self.hi = bands;
                continue;
            }
            let start = self.start_of(self.hi);
            self.hi += 1;
            while self.hi < bands
                && (self.row.ends[self.hi - 1] as usize) - start < RUN_TARGETS
                && self.same_octave(self.hi - 1, self.hi)
                && !self.above_is_out(w)
            {
                self.hi += 1;
            }
            return Some(&self.row.targets[start..self.row.ends[self.hi - 1] as usize]);
        }
    }
}

/// The result of running [`greedy`] or [`query`].
#[derive(Debug, Clone)]
pub struct GreedyOutcome {
    /// The returned point (the last hop vertex).
    pub result: u32,
    /// Distance from `result` to the query.
    pub result_dist: f64,
    /// The full sequence of hop vertices visited, starting at `p_start`.
    /// Their distances to the query are strictly descending (the walk
    /// compares in the metric's monotone surrogate space — squared distance
    /// under `L_2` — where the descent is strict by construction).
    pub hops: Vec<u32>,
    /// Number of distance computations performed.
    pub dist_comps: u64,
    /// Whether the procedure self-terminated (line 4 of the pseudocode), as
    /// opposed to being stopped by the budget.
    pub self_terminated: bool,
}

/// The `greedy(p_start, q)` procedure of Section 1.1, verbatim:
///
/// ```text
/// 1. p° ← p_start
/// 2. repeat
/// 3.   p⁺_out ← the out-neighbor of p° closest to q
/// 4.   if p⁺_out = nil or D(p°, q) <= D(p⁺_out, q) then return p°
/// 5.   p° ← p⁺_out
/// ```
///
/// On a `(1+ε)`-proximity graph this always returns a `(1+ε)`-ANN of `q`
/// (Fact 2.1), from **any** start vertex.
///
/// Line 3 scores each vertex at most once per call. A neighbor an earlier
/// scan scored was no closer than the hop that followed that scan, so no
/// closer than `p°`: it can neither be the strict improvement line 4 asks
/// for nor change which neighbor is closest, so leaving it out changes no
/// hop, and `dist_comps` counts distinct vertices.
///
/// Line 3 takes the closest out-neighbor on every graph. The descent that
/// opens a banded [`beam_search_detailed`] runs the same loop but hops at
/// the first strictly closer neighbor its band scan meets (module docs),
/// so its answer can differ from this one; both are local minima.
pub fn greedy<P, M: Metric<P>>(
    graph: &Graph,
    data: &Dataset<P, M>,
    p_start: u32,
    q: &P,
) -> GreedyOutcome {
    query(graph, data, p_start, q, u64::MAX)
}

/// The budgeted `query(p_start, q, Q)` wrapper of Section 1.1: runs `greedy`
/// until it self-terminates or the distance budget runs out, then returns
/// the last hop vertex.
///
/// Budget semantics (pinned by the regression tests below):
///
/// * A distance is only computed while `comps < budget`; when the budget
///   runs out **mid-scan**, the closest out-neighbor of `cur` is unknown, so
///   no further hop is taken and the last fully-processed hop vertex is
///   returned with `self_terminated = false`.
/// * A scan that **completes** always executes line 4 — including when the
///   budget ran out exactly at the scan's last neighbor: hopping costs no
///   distance computation, so the walk takes that free improving hop (the
///   next scan then terminates immediately). Consequently a budget equal to
///   greedy's exact cost reproduces greedy's result *and* its
///   `self_terminated = true` flag.
/// * The initial `D(p_start, q)` evaluation always happens (the result
///   distance must be known), so the effective budget is at least 1.
///
/// A neighbor scored by an earlier scan is passed over without a distance
/// and without asking the budget ([`greedy`]), so the walk is the unbudgeted
/// one cut where its own count reaches `budget`.
///
/// On a banded graph each scan follows the annulus rule of the module docs
/// with `w` = the best neighbor so far, initially `D(cur, q)`: a neighbor
/// farther from `cur` than `2 D(cur, q)` is never scored. The skipped
/// neighbors are strictly farther from `q` than the scan's minimum, and the
/// minimum is taken by `(surrogate, id)`, so result, hops and termination
/// flag do not depend on the row layout; `dist_comps` only falls, so a
/// budget that suffices on the plain graph suffices here. (The descent
/// before a banded beam stops a scan at its first improvement instead, and
/// does depend on the layout; `query` never does.)
///
/// All comparisons run in the metric's monotone surrogate space
/// ([`Metric::surrogate`] — squared distance under `L_2`, so the per-hop
/// `sqrt`s disappear; a banded scan maps `D(cur, q)` and each improved
/// bound back, a float transform and not a distance computation); the
/// single reported `result_dist` is mapped back to
/// the true distance at the end. Each surrogate evaluation counts as one
/// distance computation, so the accounting is identical to evaluating `D`
/// directly. Surrogate order refines distance order (equal surrogates map
/// to equal distances; distinct surrogates can round to equal distances),
/// so the walk — hops, result, termination flag — matches the
/// direct-distance walk except where rounded distances tie while the
/// pre-rounding comparison does not, in which case the surrogate decision
/// is the more accurate one.
///
/// # Panics
/// If `p_start` is out of range.
pub fn query<P, M: Metric<P>>(
    graph: &Graph,
    data: &Dataset<P, M>,
    p_start: u32,
    q: &P,
    budget: u64,
) -> GreedyOutcome {
    let n = data.len();
    let score = data.surrogates_to(q);
    let mut hops = Vec::new();
    let ((result, s_result, self_terminated), dist_comps) = with_scratch(n, &[p_start], 1, |s| {
        let rows = MetricRows { graph, data };
        let stop = s.descend::<_, false>(
            n,
            &rows,
            p_start,
            |v| score(v as usize),
            |comps| comps < budget,
            |v| hops.push(v),
        );
        let comps = s.descended.len() as u64;
        s.descended.clear();
        (stop, comps)
    });
    GreedyOutcome {
        result,
        result_dist: data.dist_from_surrogate(s_result),
        hops,
        dist_comps,
        self_terminated,
    }
}

/// The result of one [`beam_search_detailed`] call: everything a scoring
/// layer (`pg_eval`) needs about a single query, so quality/cost frontiers
/// can be computed without re-running or re-instrumenting the search.
#[derive(Debug, Clone, PartialEq)]
pub struct BeamOutcome {
    /// Up to `k` results ascending by true distance, ties broken by id —
    /// the same order [`Dataset::k_nearest_brute`] uses, so result lists are
    /// directly comparable against brute-force ground truth.
    pub results: Vec<(u32, f64)>,
    /// Number of distance computations performed by this query.
    pub dist_comps: u64,
    /// Number of vertices *expanded* — popped from the frontier with their
    /// out-neighbor list scanned. The beam analogue of greedy's hop count:
    /// it measures graph-walk length, where `dist_comps` measures metric
    /// work.
    pub expansions: u64,
}

/// The result of one [`beam_walk`]: the gathered candidates, still keyed by
/// what the walk's `score` closure returned. For the search routines of this
/// module that is **surrogate space** (squared distance under `L_2`), the
/// merge-ready form a sharded search needs: per-shard lists can be merged on
/// the exact surrogate keys (with ids remapped to a global id space) and
/// mapped to true distances once, reproducing the single-index
/// `(distance, id)` order bit-for-bit — mapping to distances *before*
/// merging would round away ties the surrogate keys still distinguish.
#[derive(Debug, Clone, PartialEq)]
pub struct BeamSurrogate {
    /// The candidates as `(id, score)`, ascending by score with ties broken
    /// by id. Under a metric surrogate, [`Metric::dist_from_surrogate`]
    /// (`pg_metric::Metric::dist_from_surrogate`) maps each key to the true
    /// distance; equal surrogates always map to equal distances, so this
    /// order refines the [`BeamOutcome::results`] order.
    pub results: Vec<(u32, f64)>,
    /// Number of distance computations (one per `score` evaluation —
    /// identical accounting to [`BeamOutcome`]).
    pub dist_comps: u64,
    /// Number of vertices expanded (see [`BeamOutcome::expansions`]).
    pub expansions: u64,
}

impl BeamSurrogate {
    /// Maps the surrogate keys to true distances under `data`'s metric.
    pub(crate) fn into_outcome<P, M: Metric<P>>(mut self, data: &Dataset<P, M>) -> BeamOutcome {
        for e in &mut self.results {
            e.1 = data.dist_from_surrogate(e.1);
        }
        BeamOutcome {
            results: self.results,
            dist_comps: self.dist_comps,
            expansions: self.expansions,
        }
    }
}

/// Sorts `(id, key)` pairs ascending by key, ties broken by smaller id — the
/// result order of every search in the workspace.
pub(crate) fn sort_by_key_then_id(list: &mut [(u32, f64)]) {
    list.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
}

/// A scored vertex of a walk, and whether its row has been scanned.
#[derive(Clone, Copy)]
struct Cand {
    score: f64,
    id: u32,
    expanded: bool,
}

/// How many unexpanded candidates past the one being expanded have their
/// rows loaded ahead (one, two and three read the same).
const LOOKAHEAD: usize = 2;

/// The candidates of one walk (DiskANN's `NeighborPriorityQueue`): the best
/// `<= ef` seen, ascending by `(score, id)` under `total_cmp`, each with an
/// *expanded* bit, and a cursor at the first unexpanded one — the next to
/// expand. Evicted unexpanded candidates scored exactly the worst kept
/// score are the `ties`, expanded smallest id first once the array is
/// exhausted and dropped when an eviction lowers the worst: exactly the
/// pops and the stop of the two-heap walk this replaced, ties included
/// (the proof is in ARCHITECTURE.md § Search, "One candidate array").
#[derive(Default)]
struct Candidates {
    kept: Vec<Cand>,
    cursor: usize,
    ties: Vec<Cand>,
}

impl Candidates {
    /// Score of the largest kept candidate (`INFINITY` when none is kept).
    fn worst(&self) -> f64 {
        self.kept.last().map_or(f64::INFINITY, |c| c.score)
    }

    /// Keeps `id` at `score` — a walk admits a candidate only while fewer
    /// than `ef` are kept or below the worst — then evicts the largest
    /// candidate if more than `ef` are kept.
    fn insert(&mut self, score: f64, id: u32, ef: usize) {
        let at = self
            .kept
            .partition_point(|k| k.score.total_cmp(&score).then(k.id.cmp(&id)).is_lt());
        let c = Cand {
            score,
            id,
            expanded: false,
        };
        self.kept.insert(at, c);
        self.cursor = self.cursor.min(at);
        if self.kept.len() > ef {
            let out = self.kept.pop().expect("more than ef >= 1 kept");
            if out.score != self.worst() {
                self.ties.clear();
            } else if !out.expanded {
                self.ties.push(out);
            }
        }
    }

    /// The next candidate to expand, marked expanded: the first unexpanded
    /// kept one, else the last tie; `None` ends the walk.
    fn next_unexpanded(&mut self) -> Option<Cand> {
        if let Some(c) = self.kept.get_mut(self.cursor) {
            c.expanded = true;
            let next = *c;
            let rest = &self.kept[self.cursor..];
            self.cursor += rest.iter().position(|c| !c.expanded).unwrap_or(rest.len());
            return Some(next);
        }
        // At one worst score evictions take the largest `(score, id)` first
        // and nothing enters at that score while the beam is full, so the
        // ties descend: the last is the one the two-heap walk pops next.
        self.ties.pop()
    }

    /// Up to [`LOOKAHEAD`] unexpanded candidates next in line.
    fn upcoming(&self) -> impl Iterator<Item = u32> + '_ {
        let rest = self.kept[self.cursor..].iter();
        rest.filter(|c| !c.expanded).map(|c| c.id).take(LOOKAHEAD)
    }
}

/// The working memory of one [`beam_walk`], reused from walk to walk so a
/// query allocates and clears nothing proportional to `n`.
///
/// `stamps[v] == epoch` marks `v` visited in the current walk. The epoch is
/// one **byte** per vertex — an eighth of the cache footprint of a `u32`
/// stamp, and unlike a bitset a store touches no neighbouring vertex's state
/// — and advances once per walk, so the array is cleared only when the byte
/// wraps, once every 255 walks. `gathered` holds the first-visit targets of
/// the band being scanned, between their loads and their scores, and
/// `reused` the positions among them of vertices the descent already
/// scored.
///
/// A descent ([`SearchScratch::descend`]) takes the epoch before its walk's:
/// its stamps tell the walk which vertices have a score in `descended`
/// already, at no cost to the vertices that do not.
#[derive(Default)]
struct SearchScratch {
    stamps: Vec<u8>,
    epoch: u8,
    candidates: Candidates,
    gathered: Vec<u32>,
    reused: Vec<u32>,
    /// What the descent before the next walk scored, as `(id, score)`
    /// ascending by id once the walk begins; empty when it follows none.
    descended: Vec<(u32, f64)>,
}

/// Scratch of finished walks, waiting for the next one. Process-wide rather
/// than per thread, so live scratch memory is bounded by the walks running
/// at once, not by the threads that ever searched (`pg_serve` runs a thread
/// per connection; the pool shim's scoped maps start workers per batch
/// call, and its persistent workers run sharded searches for any caller).
static SCRATCH_POOL: Mutex<Vec<SearchScratch>> = Mutex::new(Vec::new());

/// Scratches kept at rest; a walk that finds the pool full drops its own.
const SCRATCH_POOL_MAX: usize = 64;

fn scratch_pool() -> MutexGuard<'static, Vec<SearchScratch>> {
    // Only `Vec::pop`/`push` run under the lock, and neither leaves the
    // vector half-updated, so a poisoned lock still guards a valid pool.
    SCRATCH_POOL.lock().unwrap_or_else(PoisonError::into_inner)
}

impl SearchScratch {
    /// Readies the scratch for a walk over vertices `0..n`: a fresh epoch,
    /// no candidates. Stamps beyond `n` (left by a walk over a larger graph)
    /// stay as they are; the wrap clears them with the rest.
    fn begin(&mut self, n: usize) {
        if self.stamps.len() < n {
            self.stamps.resize(n, 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamps.fill(0);
            self.epoch = 1;
        }
        self.candidates.kept.clear();
        self.candidates.ties.clear();
        self.candidates.cursor = 0;
    }

    /// The paper's [`greedy`] from `start` over `rows`, scored by `score`:
    /// the one hill-climb of the workspace. `FIRST` picks line 3: unset,
    /// the closest neighbor not scored before (the paper's rule, what
    /// [`query`] runs); set, the first one the scan finds strictly below
    /// `cur`'s score, where the scan stops (the descent before a banded
    /// beam, module docs). Every vertex it scores is
    /// stamped with an epoch of its own, the one before the next
    /// [`walk`](Self::walk)'s, and kept in `descended` in scoring order, so
    /// `descended.len()` is its distance count and a walk can reuse its
    /// scores. `afford(c)` says whether a descent that has scored `c`
    /// vertices may score one more (the start is always scored), and `hop`
    /// is told `start` and each vertex stepped to. Returns where it stopped,
    /// that vertex's score, and whether it stopped by line 4 (`false`: by
    /// `afford`).
    ///
    /// It scores each vertex at most once, and with `FIRST` unset takes
    /// greedy's hops (see [`greedy`]): a vertex scored in an earlier scan
    /// is passed over, and so can neither lower the bound of a scan nor
    /// change what else the scan scores. With `FIRST` set, a vertex scored
    /// in an earlier scan was no closer than the vertex that scan stood on
    /// — the scan would have hopped to it — so no closer than `cur`, and
    /// passing it over changes no hop either. Stopped by line 4, either
    /// walk stands at a local minimum: a neighbor scored before is no
    /// closer, and one the annulus rule skipped is farther. The search
    /// paths pass closures that do nothing, and they compile away.
    fn descend<'g, N: Rows<'g>, const FIRST: bool>(
        &mut self,
        n: usize,
        rows: &N,
        start: u32,
        mut score: impl FnMut(u32) -> f64,
        mut afford: impl FnMut(u64) -> bool,
        mut hop: impl FnMut(u32),
    ) -> (u32, f64, bool) {
        self.begin(n);
        if self.epoch == u8::MAX {
            // The walk's epoch would wrap, and the wrap clears the stamps.
            self.begin(n);
        }
        let mut visited = Visited::new(&mut self.stamps[..n], self.epoch);
        let descended = &mut self.descended;
        visited.first_visit(start);
        let (mut cur, mut s_cur) = (start, score(start));
        descended.push((start, s_cur));
        hop(start);
        let self_terminated = 'descent: loop {
            // Line 3: the first by `(score, id)` of the neighbors not scored
            // before. Only one below the best so far — to begin with, below
            // `cur` itself — can change it: the bound of the band scan.
            let mut best: Option<(u32, f64)> = None;
            let mut limit = s_cur;
            let mut bound = Bound::unset();
            let mut bands = Outward::new(rows.row(cur), || rows.dist_of(s_cur));
            'scan: while let Some(band) = bands.next(|| bound.of(limit, |s| rows.dist_of(s))) {
                for &nb in band {
                    if !visited.first_visit(nb) {
                        continue;
                    }
                    if !afford(descended.len() as u64) {
                        break 'descent false;
                    }
                    let s = score(nb);
                    descended.push((nb, s));
                    if best.is_none_or(|(b, bs)| s < bs || (s == bs && nb < b)) {
                        best = Some((nb, s));
                        limit = limit.min(s);
                        if FIRST && s < s_cur {
                            break 'scan;
                        }
                    }
                }
            }
            // Lines 4 and 5.
            let Some((nb, s)) = best else {
                break true;
            };
            if s_cur <= s {
                break true;
            }
            (cur, s_cur) = (nb, s);
            hop(nb);
        };
        (cur, s_cur, self_terminated)
    }

    /// The search of a banded `graph`: [`descend`](Self::descend) from
    /// `start` by first improvement, then [`walk`](Self::walk) at width
    /// `ef` entered where the descent stopped, reusing the descent's
    /// scores. `dist_comps` counts both, each vertex once; `expansions`
    /// counts the walk's. At `ef = 1` the walk admits nothing past its
    /// entry, a local minimum, and scores nothing the descent did not: the
    /// search returns the descent's answer at the descent's count.
    fn descend_then_walk<P, M: Metric<P>>(
        &mut self,
        graph: &Graph,
        data: &Dataset<P, M>,
        start: u32,
        ef: usize,
        mut score: impl Score,
    ) -> BeamSurrogate {
        let n = data.len();
        let rows = MetricRows { graph, data };
        let (answer, _, _) =
            self.descend::<_, true>(n, &rows, start, |v| score.score(v), |_| true, |_| {});
        self.descended.sort_unstable_by_key(|&(v, _)| v);
        let mut walk = self.walk::<_, _, true>(n, &[answer], ef, rows, score);
        walk.dist_comps += self.descended.len() as u64;
        self.descended.clear();
        walk
    }

    /// The loop of [`beam_walk`]. `DESCENDED` says that a
    /// [`descend`](Self::descend) ran just before: the walk then looks up
    /// the score of every vertex the descent scored instead of calling
    /// `score`, and counts only the scores it computes. A constant, so a
    /// plain walk compiles to the loop without the lookups.
    fn walk<'g, N, S, const DESCENDED: bool>(
        &mut self,
        n: usize,
        entries: &'g [u32],
        ef: usize,
        neighbors: N,
        mut score: S,
    ) -> BeamSurrogate
    where
        N: Rows<'g>,
        S: Score,
    {
        self.begin(n);
        let mut visited = Visited::new(&mut self.stamps[..n], self.epoch);
        let descended = &self.descended[..];
        if DESCENDED {
            visited.descended = self.epoch - 1;
        }
        let cands = &mut self.candidates;
        let gathered = &mut self.gathered;
        let reused = &mut self.reused;
        let mut dist_comps: u64 = 0;
        let mut expansions: u64 = 0;
        // `worst` mirrors `cands.worst()` and is refreshed only when the
        // set changes, instead of per neighbor; `bound` is the distance it
        // stands for, mapped only when a banded row asks. `ahead` holds
        // what the loads ahead of expansion and of scoring read, so they
        // stay.
        let mut worst = f64::INFINITY;
        let mut bound = Bound::unset();
        let mut ahead = 0u64;
        let mut bands = Outward::new(entries.into(), || 0.0);
        loop {
            // The annulus bound: nothing is ruled out while the beam has room.
            while let Some(band) = bands.next(|| {
                if cands.kept.len() < ef {
                    return f64::INFINITY;
                }
                bound.of(worst, |s| neighbors.dist_of(s))
            }) {
                // Gather: the band's first-visit targets, every point asked
                // for before the first is scored, so the fetches overlap.
                gathered.clear();
                reused.clear();
                for &v in band {
                    match visited.visit::<DESCENDED>(v) {
                        Visit::Again => {}
                        Visit::First => {
                            gathered.push(v);
                            ahead ^= score.touch(v);
                        }
                        Visit::Descended => {
                            reused.push(gathered.len() as u32);
                            gathered.push(v);
                        }
                    }
                }
                // Score: in gathering order, which is visiting order; what
                // the descent scored is looked up.
                dist_comps += (gathered.len() - reused.len()) as u64;
                let mut next_reused = 0;
                for (i, &v) in gathered.iter().enumerate() {
                    let d = if DESCENDED && reused.get(next_reused) == Some(&(i as u32)) {
                        next_reused += 1;
                        descended[descended.partition_point(|&(u, _)| u < v)].1
                    } else {
                        score.score(v)
                    };
                    if cands.kept.len() < ef || d < worst {
                        cands.insert(d, v, ef);
                        worst = cands.worst();
                    }
                }
            }
            let Some(c) = cands.next_unexpanded() else {
                break;
            };
            expansions += 1;
            bands = Outward::new(neighbors.row(c.id), || neighbors.dist_of(c.score));
            for u in cands.upcoming() {
                ahead ^= u64::from(neighbors.touch(u));
            }
        }
        std::hint::black_box(ahead);
        BeamSurrogate {
            results: cands.kept.drain(..).map(|c| (c.id, c.score)).collect(),
            dist_comps,
            expansions,
        }
    }
}

/// The visited set of one walk: the stamps of its vertices, its epoch, and
/// the epoch of the descent before it, if any.
struct Visited<'s> {
    stamps: &'s mut [u8],
    epoch: u8,
    descended: u8,
}

/// What [`Visited::visit`] found.
enum Visit {
    /// Visited before in this walk.
    Again,
    /// A first visit.
    First,
    /// A first visit to a vertex the descent scored.
    Descended,
}

impl<'s> Visited<'s> {
    fn new(stamps: &'s mut [u8], epoch: u8) -> Self {
        Visited {
            stamps,
            epoch,
            descended: epoch,
        }
    }

    /// Marks `v` visited and says what it was before; `Descended` only
    /// when `DESCENDED`.
    #[inline]
    fn visit<const DESCENDED: bool>(&mut self, v: u32) -> Visit {
        let stamp = &mut self.stamps[v as usize];
        if *stamp == self.epoch {
            return Visit::Again;
        }
        let was = std::mem::replace(stamp, self.epoch);
        match DESCENDED && was == self.descended {
            true => Visit::Descended,
            false => Visit::First,
        }
    }

    /// Marks `v` visited; `true` the first time.
    #[inline]
    fn first_visit(&mut self, v: u32) -> bool {
        !matches!(self.visit::<false>(v), Visit::Again)
    }
}

/// The one best-first walk of the workspace (HNSW's `SEARCH-LAYER`): a
/// width-`ef` beam over vertices `0..n`, started from `entries`, following
/// `neighbors(v)` and ranking by `score(v)` — lower is better. A scored vertex
/// enters the beam while the beam has room or when its score is
/// **strictly** below the beam's worst, so among equal scores at the beam
/// boundary the first one scored stays; the returned list is always
/// ordered by `(score, id)`. Every other search is a composition of it:
/// [`beam_search_detailed`] scores with the metric surrogate over a
/// [`Graph`]; [`beam_search_quantized`] scores with a compact store's
/// surrogate and re-ranks exactly afterwards; the sharded engine merges one
/// walk per shard; the HNSW/NSW/Vamana constructions score with true
/// distances over their adjacency lists under construction.
///
/// The entries are scanned like an out-neighbor list, so duplicates are
/// scored once. `score` is called exactly once per visited vertex, in
/// visiting order — a closure may record what the walk touched. A row (or,
/// on banded rows, a run of its bands) is scanned in two passes: the first
/// stamps its targets visited and, for each first visit, asks `score` to
/// load the vertex's point ([`Score::touch`]); the second scores those
/// vertices in the same order. Stamps, the order of the `score` calls,
/// admissions and the bound are exactly a one-pass scan's; only the loads
/// move ahead, and a plain closure loads nothing. Returns the
/// best `<= ef` vertices gathered, ascending by `(score, id)`; fewer than
/// `ef` only when fewer are reachable. `neighbors` must be a pure lookup:
/// it is also called for the next candidates in line, whose rows are
/// loaded before they are expanded (or dropped). The candidates are one
/// sorted array, expanded in the order — and stopped at the point — of the
/// two-heap walk it replaced, ties included (ARCHITECTURE.md § Search).
///
/// **Banded rows** — what [`beam_search_detailed`] and its wrappers read
/// from a banded [`Graph`]; a `neighbors` closure always yields plain ones
/// — are scanned by the annulus rule of the module docs with
/// `w` = the beam's worst kept distance (`∞` while fewer than `ef` are
/// kept). `w` never increases and every skipped vertex is strictly farther
/// than `w` when it is skipped, so the plain scan would score and reject
/// it with no effect on the kept candidates, on the evicted ones that can
/// still be expanded, or on the stop: after each row both walks hold the
/// same candidates and the same ties. The contract: **banded
/// and plain walks return bit-identical results and `expansions` whenever
/// no scored value equals the beam's worst at the moment it is scored**
/// (there the scan order decides which of the equals stays), and the
/// banded `dist_comps` is never larger. With such ties the banded result
/// is still safe: every vertex it skipped is no closer than its final
/// worst. The banded walk of [`beam_search_detailed`] is entered where a
/// first-improvement descent stopped and takes that descent's scores
/// instead of calling `score` again for the vertices it meets (module
/// docs); what it keeps and expands is this walk's, entered there.
///
/// The walk's working memory (visited stamps, candidate array) is
/// checked out of a process-wide pool for the length of the call and handed
/// back after it; the pool's lock is held only for the two hand-overs. A
/// `score` that panics unwinds through here with the scratch still checked
/// out, so it is dropped, never pooled; a `score` that itself walks checks
/// out a scratch of its own.
///
/// # Panics
/// If `ef == 0` or an entry is `>= n`.
pub fn beam_walk<'g, N, S>(
    n: usize,
    entries: &'g [u32],
    ef: usize,
    neighbors: N,
    score: S,
) -> BeamSurrogate
where
    N: Fn(u32) -> &'g [u32],
    S: Score,
{
    walk_rows(n, entries, ef, neighbors, score)
}

/// [`beam_walk`] over any [`Rows`]: the way in for the banded source, which
/// only this module builds — whether a walk reads bands is decided by the
/// graph it is given, never by a caller.
fn walk_rows<'g, N, S>(
    n: usize,
    entries: &'g [u32],
    ef: usize,
    neighbors: N,
    score: S,
) -> BeamSurrogate
where
    N: Rows<'g>,
    S: Score,
{
    with_scratch(n, entries, ef, |s| {
        s.walk::<_, _, false>(n, entries, ef, neighbors, score)
    })
}

/// Runs `search` on a scratch checked out of the pool, once `ef` and the
/// `entries` of a walk over `0..n` are known to be valid.
fn with_scratch<T>(
    n: usize,
    entries: &[u32],
    ef: usize,
    search: impl FnOnce(&mut SearchScratch) -> T,
) -> T {
    assert!(ef >= 1, "beam width must be at least 1");
    assert!(
        entries.iter().all(|&e| (e as usize) < n),
        "start vertex out of range"
    );
    let mut scratch = scratch_pool().pop().unwrap_or_default();
    let out = search(&mut scratch);
    let mut pool = scratch_pool();
    if pool.len() < SCRATCH_POOL_MAX {
        pool.push(scratch);
    }
    out
}

/// Beam search (best-first with a width-`ef` frontier), the de-facto search
/// routine of practical systems. Not part of the paper's model — provided as
/// an extension so the comparison experiments can report recall under the
/// search procedure practitioners actually use.
///
/// On a banded `graph` the search descends first (module docs): from
/// `p_start`, hopping at the first strictly closer neighbor each band scan
/// meets, then the beam entered where the descent stopped — the search's
/// own top-1 at `ef = 1` — which it equals to the bit, results and
/// expansions, whenever no scored value ties the beam's worst (see
/// [`beam_walk`]). That entry depends on the order in which the graph's
/// band ladder scans a row, so two layouts of one edge set may enter at
/// different vertices; [`greedy`]'s answer does not depend on it. The
/// top-1 is never farther than the entry, and it is a local minimum (a
/// finished beam has expanded it, and a strictly closer neighbor would lie
/// inside that expansion's annulus and have been kept), so it is a
/// `(1+ε)`-ANN on a `(1+ε)`-PG at every `ef`, by Fact 2.1 from any entry.
/// `dist_comps` counts the descent's distances and the beam's, each vertex
/// at most once; `expansions` counts the beam's. At `ef >= n` on a
/// connected graph the search is exact and scores every vertex exactly
/// once, banded or not. An un-banded graph is walked from `p_start`.
///
/// Returns up to `k` results ascending by distance, the number of distance
/// computations and the number of expanded vertices — the detail the
/// evaluation layer scores from.
///
/// The walk ([`beam_walk`]) runs in surrogate space (squared distance under
/// `L_2`; the list is ordered by `(surrogate, id)`, which refines
/// `(distance, id)`); only the `k` reported distances are mapped back — and,
/// on a banded graph, the few the annulus rule reads its bounds from.
///
/// # Panics
/// If `ef == 0` or `p_start` is out of range.
pub fn beam_search_detailed<P, M: Metric<P>>(
    graph: &Graph,
    data: &Dataset<P, M>,
    p_start: u32,
    q: &P,
    ef: usize,
    k: usize,
) -> BeamOutcome {
    beam_search_surrogate(graph, data, p_start, q, ef, k).into_outcome(data)
}

/// [`beam_search_detailed`] before the final map to true distances: the
/// `k` best candidates of the search, still in surrogate space (see
/// [`BeamSurrogate`] for why a sharded merge needs exactly this form). The
/// one way a search reaches banded rows: on a banded `graph` it descends
/// before it widens (module docs).
pub(crate) fn beam_search_surrogate<P, M: Metric<P>>(
    graph: &Graph,
    data: &Dataset<P, M>,
    p_start: u32,
    q: &P,
    ef: usize,
    k: usize,
) -> BeamSurrogate {
    let n = data.len();
    let score = data.surrogates_to(q);
    let point = point_score(data, |v| score(v as usize));
    let mut walk = match graph.is_banded() {
        false => walk_rows(n, &[p_start], ef, MetricRows { graph, data }, point),
        true => with_scratch(n, &[p_start], ef, |s| {
            s.descend_then_walk(graph, data, p_start, ef, point)
        }),
    };
    walk.results.truncate(k);
    walk
}

/// Beam search navigating in a compact representation with an exact `f64`
/// re-rank before truncation: the quantized counterpart of
/// [`beam_search_detailed`], with the result list still in (exact)
/// surrogate space.
///
/// The walk is the same [`beam_walk`], scored with `compact.surrogate(...)`
/// — the approximate squared distance on the quantized codes — so the hot
/// loop streams 4 bytes (`pg_metric::F32Points`) or 1 byte
/// (`pg_metric::Sq8Points`) per coordinate instead of 8. It scans **whole
/// rows**, banded graph or not: its scores are not distances to the stored
/// points, so the triangle inequality the annulus rule rests on does not
/// hold between them and the stored edge lengths. As a separate step
/// after the walk, the **entire** gathered candidate set (not just the top
/// `k` by quantized order) is re-scored with exact surrogates from `data`,
/// sorted by `(exact surrogate, id)`, and only then truncated to `k`.
/// Quantization can thus only affect which candidates are gathered, never
/// their reported order or values: whenever the exact top-`k` is among the
/// candidates, `results` **equals** it, and the list is in the same
/// merge-ready order as the full-precision path.
///
/// `dist_comps` counts the quantized surrogate evaluations of the walk
/// **plus** one exact evaluation per re-ranked candidate (`<= ef` of them),
/// which keeps quantized frontier rows honest — the re-rank is not free.
///
/// # Panics
/// If `compact` does not describe exactly the points of `data` (length
/// mismatch), `ef == 0`, or `p_start` is out of range.
pub fn beam_search_quantized_surrogate<P, M, C>(
    graph: &Graph,
    data: &Dataset<P, M>,
    compact: &C,
    p_start: u32,
    q: &P,
    ef: usize,
    k: usize,
) -> BeamSurrogate
where
    P: AsRef<[f64]>,
    M: Metric<P>,
    C: Quantized + ?Sized,
{
    assert_eq!(
        compact.len(),
        data.len(),
        "compact store and dataset must describe the same points"
    );
    let pq = compact.prepare(q.as_ref());
    let mut walk = beam_walk(
        data.len(),
        &[p_start],
        ef,
        |v| graph.neighbors(v),
        |v| compact.surrogate(v as usize, &pq),
    );
    // Exact re-rank of the full candidate set: one full-precision surrogate
    // per candidate, counted like any other distance computation.
    walk.dist_comps += walk.results.len() as u64;
    for e in &mut walk.results {
        e.1 = data.surrogate_to(e.0 as usize, q);
    }
    sort_by_key_then_id(&mut walk.results);
    walk.results.truncate(k);
    walk
}

/// [`beam_search_quantized_surrogate`] with the exact surrogates mapped to
/// true distances: the quantized counterpart of [`beam_search_detailed`],
/// returning the same [`BeamOutcome`] shape so scoring layers and adapters
/// consume either path uniformly.
pub fn beam_search_quantized<P, M, C>(
    graph: &Graph,
    data: &Dataset<P, M>,
    compact: &C,
    p_start: u32,
    q: &P,
    ef: usize,
    k: usize,
) -> BeamOutcome
where
    P: AsRef<[f64]>,
    M: Metric<P>,
    C: Quantized + ?Sized,
{
    beam_search_quantized_surrogate(graph, data, compact, p_start, q, ef, k).into_outcome(data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pg_metric::{Dataset, Euclidean, FlatRow};

    fn line_dataset(n: usize) -> Dataset<Vec<f64>, Euclidean> {
        Dataset::new((0..n).map(|i| vec![i as f64]).collect(), Euclidean)
    }

    /// Path graph: each vertex points to its neighbors on the line.
    fn path_graph(n: usize) -> Graph {
        Graph::from_adjacency(
            (0..n)
                .map(|v| {
                    let mut a = Vec::new();
                    if v > 0 {
                        a.push(v as u32 - 1);
                    }
                    if v + 1 < n {
                        a.push(v as u32 + 1);
                    }
                    a
                })
                .collect(),
        )
    }

    #[test]
    fn greedy_walks_the_line_to_the_nearest_point() {
        let ds = line_dataset(20);
        let g = path_graph(20);
        let out = greedy(&g, &ds, 0, &vec![17.3]);
        assert_eq!(out.result, 17);
        assert!(out.self_terminated);
        assert_eq!(out.hops, (0..=17).collect::<Vec<u32>>());
    }

    #[test]
    fn greedy_hop_distances_strictly_descend() {
        let ds = line_dataset(30);
        let g = path_graph(30);
        let q = vec![22.4];
        let out = greedy(&g, &ds, 3, &q);
        let dists: Vec<f64> = out
            .hops
            .iter()
            .map(|&h| ds.dist_to(h as usize, &q))
            .collect();
        assert!(dists.windows(2).all(|w| w[1] < w[0]));
    }

    #[test]
    fn greedy_on_complete_graph_returns_exact_nn_in_one_hop() {
        let ds = line_dataset(15);
        let g = Graph::complete(15);
        let out = greedy(&g, &ds, 14, &vec![3.2]);
        assert_eq!(out.result, 3);
        assert_eq!(out.hops.len(), 2); // start + one hop
    }

    #[test]
    fn greedy_terminates_at_sink() {
        let ds = line_dataset(5);
        let g = Graph::empty(5);
        let out = greedy(&g, &ds, 2, &vec![0.0]);
        assert_eq!(out.result, 2);
        assert!(out.self_terminated);
        assert_eq!(out.dist_comps, 1);
    }

    #[test]
    fn budget_stops_the_walk() {
        let ds = line_dataset(50);
        let g = path_graph(50);
        // Budget of 6 distance computations: enough for only a couple hops.
        let out = query(&g, &ds, 0, &vec![49.0], 6);
        assert!(!out.self_terminated);
        assert_eq!(out.dist_comps, 6);
        assert!(out.result < 49);
        // Unbudgeted run reaches the target.
        let full = greedy(&g, &ds, 0, &vec![49.0]);
        assert_eq!(full.result, 49);
        assert!(full.dist_comps > 6);
    }

    #[test]
    fn dist_comps_accounting_on_path() {
        let ds = line_dataset(10);
        let g = path_graph(10);
        // Start at 0, query at 0: one distance for the start, two for the
        // neighbor scan... vertex 0 has one neighbor.
        let out = greedy(&g, &ds, 0, &vec![0.0]);
        assert_eq!(out.result, 0);
        assert_eq!(out.dist_comps, 2); // D(0, q) + D(1, q)
    }

    #[test]
    fn budget_one_returns_start_without_scanning() {
        let ds = line_dataset(50);
        let g = path_graph(50);
        let out = query(&g, &ds, 0, &vec![49.0], 1);
        assert_eq!(out.result, 0);
        assert_eq!(out.dist_comps, 1);
        assert_eq!(out.hops, vec![0]);
        assert!(!out.self_terminated);
    }

    #[test]
    fn budget_at_exact_scan_boundary_takes_the_free_hop() {
        // Budget 2: the start evaluation plus vertex 0's single-neighbor
        // scan, which completes exactly as the budget runs out. The hop to
        // the found improvement costs no distance computation, so the walk
        // takes it; the next scan is then truncated immediately.
        let ds = line_dataset(10);
        let g = path_graph(10);
        let out = query(&g, &ds, 0, &vec![9.0], 2);
        assert_eq!(out.result, 1);
        assert_eq!(out.dist_comps, 2);
        assert_eq!(out.hops, vec![0, 1]);
        assert!(!out.self_terminated);
    }

    #[test]
    fn budget_equal_to_greedy_cost_reports_self_termination() {
        // Greedy from 0 on a query at 0 costs exactly 2 distances and
        // self-terminates; a budget of exactly 2 must reproduce that,
        // including the flag (the completed scan still executes line 4).
        let ds = line_dataset(10);
        let g = path_graph(10);
        let out = query(&g, &ds, 0, &vec![0.0], 2);
        assert_eq!(out.result, 0);
        assert_eq!(out.dist_comps, 2);
        assert!(out.self_terminated);
    }

    #[test]
    fn budget_max_is_exactly_greedy() {
        let ds = line_dataset(40);
        let g = path_graph(40);
        let q = vec![33.6];
        let a = query(&g, &ds, 2, &q, u64::MAX);
        let b = greedy(&g, &ds, 2, &q);
        assert_eq!(a.result, b.result);
        assert_eq!(a.result_dist, b.result_dist);
        assert_eq!(a.hops, b.hops);
        assert_eq!(a.dist_comps, b.dist_comps);
        assert_eq!(a.self_terminated, b.self_terminated);
    }

    #[test]
    fn budget_is_never_exceeded_and_sink_self_terminates() {
        let ds = line_dataset(30);
        let g = path_graph(30);
        for budget in 1..=12u64 {
            let out = query(&g, &ds, 0, &vec![29.0], budget);
            assert!(out.dist_comps <= budget.max(1));
        }
        // A sink needs only the start evaluation: budget 1 covers the whole
        // procedure, so this is a genuine self-termination (line 4, nil).
        let out = query(&Graph::empty(30), &ds, 4, &vec![0.0], 1);
        assert_eq!(out.dist_comps, 1);
        assert!(out.self_terminated);
    }

    #[test]
    fn beam_search_finds_knn_on_path() {
        let ds = line_dataset(40);
        let g = path_graph(40);
        let res = beam_search_detailed(&g, &ds, 0, &vec![25.2], 8, 3).results;
        assert_eq!(res.len(), 3);
        assert_eq!(res[0].0, 25);
        assert_eq!(res[1].0, 26);
        assert_eq!(res[2].0, 24);
    }

    #[test]
    fn beam_results_deterministic_under_distance_ties() {
        // Vertices 1..=6 all lie at distance 2 from the query; with ef = 3
        // the heap boundary falls inside the tie group. The Cand ordering
        // breaks distance ties by id, so the smallest ids must be kept —
        // and the output must agree with brute force's (dist, id) order.
        let pts: Vec<Vec<f64>> = vec![
            vec![0.0],
            vec![2.0],
            vec![-2.0],
            vec![2.0],
            vec![-2.0],
            vec![2.0],
            vec![-2.0],
        ];
        let ds = Dataset::new(pts, Euclidean);
        let g = Graph::complete(7);
        let q = vec![0.0];
        let out = beam_search_detailed(&g, &ds, 0, &q, 3, 3);
        assert_eq!(out.results, vec![(0, 0.0), (1, 2.0), (2, 2.0)]);
        // Re-running is bit-identical.
        assert_eq!(beam_search_detailed(&g, &ds, 0, &q, 3, 3), out);
    }

    #[test]
    fn beam_on_complete_graph_with_full_width_is_exact() {
        let ds = line_dataset(25);
        let g = Graph::complete(25);
        let q = vec![11.3];
        let res = beam_search_detailed(&g, &ds, 24, &q, 25, 6).results;
        let brute = ds.k_nearest_brute(&q, 6);
        let brute_ids: Vec<(u32, f64)> = brute.into_iter().map(|(i, d)| (i as u32, d)).collect();
        assert_eq!(res, brute_ids);
    }

    /// `(score, id)` under `total_cmp`, for the reference walk's heaps.
    #[derive(PartialEq)]
    struct Key(f64, u32);
    impl Eq for Key {}
    impl PartialOrd for Key {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Key {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            self.0.total_cmp(&other.0).then(self.1.cmp(&other.1))
        }
    }

    /// The two-heap walk `beam_walk` replaced, kept as the reference: a
    /// fresh visited vector, a min-heap frontier of everything admitted and
    /// a max-heap of the best `ef`, per call.
    fn two_heap_walk(
        n: usize,
        entries: &[u32],
        ef: usize,
        g: &Graph,
        score: &[f64],
    ) -> BeamSurrogate {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let (mut dist_comps, mut expansions) = (0u64, 0u64);
        let mut visited = vec![false; n];
        let mut frontier: BinaryHeap<Reverse<Key>> = BinaryHeap::new();
        let mut results: BinaryHeap<Key> = BinaryHeap::new();
        let mut worst = f64::INFINITY;
        let mut scan: &[u32] = entries;
        loop {
            for &v in scan {
                if std::mem::replace(&mut visited[v as usize], true) {
                    continue;
                }
                dist_comps += 1;
                let d = score[v as usize];
                if results.len() < ef || d < worst {
                    frontier.push(Reverse(Key(d, v)));
                    results.push(Key(d, v));
                    if results.len() > ef {
                        results.pop();
                    }
                    worst = results.peek().map_or(f64::INFINITY, |c| c.0);
                }
            }
            let Some(Reverse(Key(d, v))) = frontier.pop() else {
                break;
            };
            if results.len() >= ef && d > worst {
                break;
            }
            expansions += 1;
            scan = g.neighbors(v);
        }
        BeamSurrogate {
            results: results
                .into_sorted_vec()
                .into_iter()
                .map(|Key(d, v)| (v, d))
                .collect(),
            dist_comps,
            expansions,
        }
    }

    /// A connected graph on `n` vertices (a ring plus `extra` seeded random
    /// out-edges per vertex) and a score per vertex drawn from `levels`
    /// distinct values, so most comparisons are ties broken by id.
    fn tie_heavy_instance(n: usize, extra: usize, levels: u32, seed: u64) -> (Graph, Vec<f64>) {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let adjacency = (0..n)
            .map(|v| {
                let mut row = vec![((v + 1) % n) as u32, ((v + n - 1) % n) as u32];
                row.extend((0..extra).map(|_| rng.random_range(0..n) as u32));
                row
            })
            .collect();
        let score = (0..n)
            .map(|_| f64::from(rng.random_range(0..levels)))
            .collect();
        (Graph::from_adjacency(adjacency), score)
    }

    fn walk_scores(
        s: &mut SearchScratch,
        g: &Graph,
        score: &[f64],
        entry: u32,
        ef: usize,
    ) -> BeamSurrogate {
        s.walk::<_, _, false>(
            score.len(),
            &[entry],
            ef,
            |v| g.neighbors(v),
            |v| score[v as usize],
        )
    }

    #[test]
    fn the_candidate_array_walks_equal_the_two_heap_reference_under_ties() {
        // Duplicate points and few distinct scores: the beam boundary falls
        // inside a tie group at every width.
        let n = 400;
        let (g, score) = tie_heavy_instance(n, 3, 9, 41);
        for ef in [1, 2, 15, 16, 17, 32, 33, 64, 256, n] {
            for entry in [0u32, 57, 399] {
                let want = two_heap_walk(n, &[entry], ef, &g, &score);
                let got = beam_walk(n, &[entry], ef, |v| g.neighbors(v), |v| score[v as usize]);
                assert_eq!(got, want, "ef = {ef}, entry = {entry}");
                assert!(got.results.len() == ef.min(n));
            }
        }
    }

    #[test]
    fn seeded_walks_equal_the_two_heap_reference_at_random_widths_and_entries() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(2025);
        for case in 0..300u64 {
            let n = rng.random_range(2..=300usize);
            // Every other case ties heavily (nine score levels); the rest
            // are tie-free (a permutation of 0..n as scores: 7919 is a
            // prime above every n).
            let (g, mut score) = tie_heavy_instance(n, rng.random_range(0..5), 9, case);
            if case % 2 == 1 {
                score = (0..n).map(|v| ((v * 7919) % n) as f64).collect();
            }
            let ef = rng.random_range(1..=n);
            let entries: Vec<u32> = (0..rng.random_range(1..=3))
                .map(|_| rng.random_range(0..n) as u32)
                .collect();
            let want = two_heap_walk(n, &entries, ef, &g, &score);
            let got = beam_walk(n, &entries, ef, |v| g.neighbors(v), |v| score[v as usize]);
            assert_eq!(
                got, want,
                "case {case}: n = {n}, ef = {ef}, entries {entries:?}"
            );
        }
    }

    /// Walks `rows` with `score` at width `ef` from vertex 0, checked against
    /// the two-heap reference; returns the walk and the vertices in the
    /// order they were scored.
    fn logged_walk(rows: Vec<Vec<u32>>, score: &[f64], ef: usize) -> (BeamSurrogate, Vec<u32>) {
        let g = Graph::from_adjacency(rows);
        let mut log = Vec::new();
        let n = score.len();
        let got = beam_walk(
            n,
            &[0],
            ef,
            |v| g.neighbors(v),
            |v| {
                log.push(v);
                score[v as usize]
            },
        );
        assert_eq!(got, two_heap_walk(n, &[0], ef, &g, score));
        (got, log)
    }

    /// Vertex 0's row `[1, 2, 3, 4, 5]` at `ef` = 4: 1, 2 and 3 (score 1)
    /// fill the beam, then 4 and 5 (score 0.5) evict 3 and 2 unexpanded
    /// while the worst stays 1 — two ties. Every vertex `v` of 1..=6 has
    /// one private neighbour `10 + v` scored 9, so the scoring order shows
    /// the expansion order; `extra` joins 2's row.
    fn tie_rows(extra: &[u32]) -> Vec<Vec<u32>> {
        let mut rows = vec![vec![]; 17];
        rows[0] = vec![1, 2, 3, 4, 5];
        for v in 1..=6u32 {
            rows[v as usize].push(10 + v);
        }
        rows[2].extend_from_slice(extra);
        rows
    }

    fn tie_scores() -> Vec<f64> {
        let mut score = vec![9.0; 17];
        score[0] = 0.0;
        for (v, s) in [(1, 1.0), (2, 1.0), (3, 1.0), (4, 0.5), (5, 0.5), (6, 0.25)] {
            score[v] = s;
        }
        score
    }

    #[test]
    fn evicted_candidates_at_the_worst_score_are_expanded_last_in_id_order() {
        let (got, log) = logged_walk(tie_rows(&[]), &tie_scores(), 4);
        // The kept 4, 5, 1 first (by score, then id), then the ties 2 and
        // 3 — 2 first although 3 was evicted first.
        assert_eq!(log, [0, 1, 2, 3, 4, 5, 14, 15, 11, 12, 13]);
        assert_eq!(got.expansions, 6);
        assert_eq!(got.results, [(0, 0.0), (4, 0.5), (5, 0.5), (1, 1.0)]);
    }

    #[test]
    fn an_evicted_candidate_above_the_worst_is_never_expanded() {
        // ef = 2: 1 (score 2) fills the beam, 2 (score 1) evicts it and the
        // worst drops to 1, so 1's row is never scanned.
        let mut score = vec![9.0; 13];
        (score[0], score[1], score[2]) = (0.0, 2.0, 1.0);
        let mut rows = vec![vec![]; 13];
        (rows[0], rows[1], rows[2]) = (vec![1, 2], vec![11], vec![12]);
        let (got, log) = logged_walk(rows, &score, 2);
        assert_eq!(log, [0, 1, 2, 12]);
        assert_eq!(got.expansions, 2);
    }

    #[test]
    fn the_ties_are_dropped_when_a_tie_expansion_lowers_the_worst() {
        // As above, but the first tie expanded (2) finds 6 at 0.25: 6 evicts
        // 1, the worst drops to 0.5, and the other tie (3) is never
        // expanded — its leaf 13 is never scored; 6 itself is expanded.
        let (got, log) = logged_walk(tie_rows(&[6]), &tie_scores(), 4);
        assert_eq!(log, [0, 1, 2, 3, 4, 5, 14, 15, 11, 6, 12, 16]);
        assert_eq!(got.expansions, 6);
        assert_eq!(got.results, [(0, 0.0), (6, 0.25), (4, 0.5), (5, 0.5)]);
    }

    #[test]
    fn a_counted_flat_dataset_counts_exactly_the_walks_scores() {
        use pg_metric::{Counting, FlatPoints};
        let rows: Vec<Vec<f64>> = (0..300)
            .map(|i| vec![f64::from(i % 17) * 3.1, f64::from(i / 17) * 2.3])
            .collect();
        let counter = Counting::new(Euclidean);
        let data = FlatPoints::from(rows).into_dataset(counter.clone());
        assert!(data.reads_row_major_buffer());
        // A complete graph, and a banded one, whose searches descend first.
        let banded = crate::gnet::GNet::build_fast(&data, 1.0).graph;
        for g in [Graph::complete(300), banded] {
            for (ef, q) in [(1, [3.0, 4.0]), (16, [20.0, 9.5]), (300, [50.0, 41.0])] {
                let q = FlatPoints::from(vec![q.to_vec()]).into_rows().remove(0);
                let before = counter.count();
                let out = beam_search_detailed(&g, &data, 7, &q, ef, 10);
                assert_eq!(counter.count() - before, out.dist_comps, "ef = {ef}");
                if ef == 300 {
                    assert_eq!(out.dist_comps, 300);
                }
                let before = counter.count();
                let out = greedy(&g, &data, 7, &q);
                assert_eq!(counter.count() - before, out.dist_comps);
            }
        }
    }

    #[test]
    fn one_scratch_across_the_epoch_wrap_answers_like_a_fresh_one() {
        let n = 300;
        let (g, score) = tie_heavy_instance(n, 2, 1000, 7);
        let mut reused = SearchScratch::default();
        // 600 walks: the byte epoch wraps (and the stamps are cleared) twice.
        for i in 0..600u32 {
            let (entry, ef) = (i * 7 % n as u32, 1 + i as usize % 40);
            let got = walk_scores(&mut reused, &g, &score, entry, ef);
            let fresh = walk_scores(&mut SearchScratch::default(), &g, &score, entry, ef);
            assert_eq!(got, fresh, "walk {i}");
        }
        assert_eq!(reused.epoch, (600 % 255) as u8);
    }

    #[test]
    fn stale_stamps_beyond_a_smaller_graph_never_read_as_visited() {
        let (big_g, big_score) = tie_heavy_instance(5_000, 2, 1000, 3);
        let (small_g, small_score) = tie_heavy_instance(50, 2, 1000, 4);
        let mut s = SearchScratch::default();
        let want_big = walk_scores(&mut SearchScratch::default(), &big_g, &big_score, 9, 5_000);
        let want_small = walk_scores(&mut SearchScratch::default(), &small_g, &small_score, 9, 50);
        // The big walk stamps all 5 000 vertices with epoch 2. Of the 254
        // small walks after it the last one wraps the byte, and the big
        // walk after that runs at epoch 2 again: every stamp the first one
        // left beyond vertex 50 would read as visited had the wrap cleared
        // only the vertices then in use.
        assert_eq!(
            walk_scores(&mut s, &small_g, &small_score, 9, 50),
            want_small
        );
        assert_eq!(walk_scores(&mut s, &big_g, &big_score, 9, 5_000), want_big);
        for _ in 0..254 {
            assert_eq!(
                walk_scores(&mut s, &small_g, &small_score, 9, 50),
                want_small
            );
        }
        assert_eq!(s.epoch, 1);
        assert_eq!(walk_scores(&mut s, &big_g, &big_score, 9, 5_000), want_big);
        assert_eq!(s.epoch, 2);
        assert_eq!(s.stamps.len(), 5_000);
    }

    #[test]
    fn a_panicking_score_leaves_later_walks_correct() {
        let n = 200;
        let (g, score) = tie_heavy_instance(n, 2, 1000, 11);
        let want = two_heap_walk(n, &[0], 8, &g, &score);
        for _ in 0..3 {
            let mut calls = 0;
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                beam_walk(
                    n,
                    &[0],
                    8,
                    |v| g.neighbors(v),
                    |v| {
                        calls += 1;
                        assert!(calls < 20, "score gave up mid-walk");
                        score[v as usize]
                    },
                )
            }));
            assert!(caught.is_err());
            // The half-stamped scratch unwound with the walk; the pool's
            // lock was not held, so it is not poisoned either.
            assert!(!SCRATCH_POOL.is_poisoned());
            let got = beam_walk(n, &[0], 8, |v| g.neighbors(v), |v| score[v as usize]);
            assert_eq!(got, want);
        }
    }

    #[test]
    fn a_score_that_walks_gets_a_scratch_of_its_own() {
        let n = 120;
        let (g, score) = tie_heavy_instance(n, 2, 1000, 13);
        let inner_want = two_heap_walk(n, &[5], 4, &g, &score);
        let outer_want = two_heap_walk(n, &[0], 6, &g, &score);
        let outer = beam_walk(
            n,
            &[0],
            6,
            |v| g.neighbors(v),
            |v| {
                let inner = beam_walk(n, &[5], 4, |u| g.neighbors(u), |u| score[u as usize]);
                assert_eq!(inner, inner_want);
                score[v as usize]
            },
        );
        assert_eq!(outer, outer_want);
    }

    #[test]
    fn pooled_walks_from_eight_threads_equal_the_sequential_answers() {
        let n = 2_000;
        let (g, score) = tie_heavy_instance(n, 4, 50, 17);
        let job = |t: u32, i: u32| ((t * 500 + i) * 13 % n as u32, 1 + (t + i) as usize % 48);
        let want: Vec<Vec<BeamSurrogate>> = (0..8)
            .map(|t| {
                (0..500)
                    .map(|i| {
                        let (entry, ef) = job(t, i);
                        two_heap_walk(n, &[entry], ef, &g, &score)
                    })
                    .collect()
            })
            .collect();
        // All eight start together, so scratches change hands between
        // threads through the pool while other walks are in flight.
        let start = std::sync::Barrier::new(8);
        std::thread::scope(|scope| {
            for (t, want) in want.iter().enumerate() {
                let (g, score, start) = (&g, &score, &start);
                scope.spawn(move || {
                    start.wait();
                    for (i, want) in want.iter().enumerate() {
                        let (entry, ef) = job(t as u32, i as u32);
                        let got =
                            beam_walk(n, &[entry], ef, |v| g.neighbors(v), |v| score[v as usize]);
                        assert_eq!(&got, want, "thread {t}, walk {i}");
                    }
                });
            }
        });
    }

    /// A row of five bands at one band per octave — lengths in [0.5, 1),
    /// [1, 2), [2, 4), [4, 8) and [8, 16) — holding targets 10, 11, 12, 13
    /// and 14, 15.
    const LADDER: ([u32; 6], [u16; 5], [u32; 5]) = (
        [10, 11, 12, 13, 14, 15],
        [1022, 1023, 1024, 1025, 1026],
        [1, 2, 3, 4, 6],
    );

    fn ladder_row() -> Row<'static> {
        Row {
            targets: &LADDER.0,
            exps: &LADDER.1,
            ends: &LADDER.2,
            resolution: 0,
        }
    }

    /// The bands `scan` hands out when the bound is `w[i]` before band `i`
    /// (the last value repeating).
    fn scanned(mut scan: Outward<'static>, w: &[f64]) -> Vec<&'static [u32]> {
        let mut out = Vec::new();
        while let Some(band) = scan.next(|| w[out.len().min(w.len() - 1)]) {
            out.push(band);
        }
        out
    }

    #[test]
    fn outward_scan_takes_the_nearer_side_first_and_closes_sides_at_the_annulus() {
        let from = |r: f64| Outward::new(ladder_row(), || r);
        let all: [&[u32]; 5] = [&[12], &[11], &[10], &[13], &[14, 15]];
        // r = 2.5 sits in [2, 4). Gaps: [1, 2) 0.5, [0.5, 1) 1.5, [4, 8) 1.5
        // (the tie goes down), [8, 16) 5.5.
        assert_eq!(scanned(from(2.5), &[f64::INFINITY]), all);
        assert_eq!(scanned(from(2.5), &[6.0]), all);
        assert_eq!(scanned(from(2.5), &[5.5]), all, "a gap equal to w is kept");
        assert_eq!(scanned(from(2.5), &[5.4]), all[..4]);
        assert_eq!(scanned(from(2.5), &[1.5]), all[..4]);
        assert_eq!(scanned(from(2.5), &[1.4]), all[..2]);
        assert_eq!(scanned(from(2.5), &[0.5]), all[..2]);
        assert_eq!(scanned(from(2.5), &[0.4]), all[..1]);
        assert_eq!(
            scanned(from(2.5), &[0.0]),
            all[..1],
            "the home band is never cut"
        );
        // The bound is re-read before each band, and a closed side stays
        // closed: with w = 1.4 after the first band the far bands go, and
        // raising w again (a walk never does) does not bring them back.
        assert_eq!(scanned(from(2.5), &[9.0, 9.0, 1.4, 9.0]), all[..2]);
        // Within the slack of the bound, a band is kept: 1.5 (1 - 1e-10).
        assert_eq!(scanned(from(2.5), &[1.5 - 1.5e-10]), all[..4]);
        // r below every band, above every band, in a gap between two.
        let up: [&[u32]; 5] = [&[10], &[11], &[12], &[13], &[14, 15]];
        assert_eq!(scanned(from(0.1), &[f64::INFINITY]), up);
        assert_eq!(scanned(from(0.1), &[0.95]), up[..2]);
        let down: [&[u32]; 5] = [&[14, 15], &[13], &[12], &[11], &[10]];
        assert_eq!(scanned(from(100.0), &[f64::INFINITY]), down);
        assert_eq!(scanned(from(100.0), &[91.9]), down[..1]);
        assert_eq!(scanned(from(100.0), &[83.9]), Vec::<&[u32]>::new());
        let gap_row = Row {
            targets: &LADDER.0[..2],
            exps: &[1020, 1030],
            ends: &[1, 2],
            resolution: 0,
        };
        let got = scanned(Outward::new(gap_row, || 3.0), &[f64::INFINITY]);
        assert_eq!(got, [&[10u32][..], &[11][..]]);
        // A NaN distance or bound rules nothing out.
        assert_eq!(scanned(from(f64::NAN), &[1.0]).len(), 5);
        assert_eq!(scanned(from(2.5), &[f64::NAN]).len(), 5);
    }

    /// A row at four sub-bands per octave: [1, 1.25), [1.25, 1.5),
    /// [1.5, 1.75), [1.75, 2) hold targets 10, 11, 12, 13; [2, 2.5) and
    /// [2.5, 3) hold 14 and 15, 16; [4, 5) holds 17.
    const QUARTERS: ([u32; 8], [u16; 7], [u32; 7]) = (
        [10, 11, 12, 13, 14, 15, 16, 17],
        [4092, 4093, 4094, 4095, 4096, 4097, 4100],
        [1, 2, 3, 4, 5, 7, 8],
    );

    fn quarters_from(r: f64) -> Outward<'static> {
        let row = Row {
            targets: &QUARTERS.0,
            exps: &QUARTERS.1,
            ends: &QUARTERS.2,
            resolution: 2,
        };
        Outward::new(row, || r)
    }

    /// The largest `w` for which `cuts(w)` holds and the next `f64` up,
    /// where it no longer does; `cuts` must hold at 0.1 and not at 0.5.
    fn last_cut_and_first_kept(cuts: impl Fn(f64) -> bool) -> (f64, f64) {
        let (mut cut, mut kept) = (0.1f64.to_bits(), 0.5f64.to_bits());
        assert!(cuts(0.1) && !cuts(0.5));
        while kept - cut > 1 {
            let mid = cut + (kept - cut) / 2;
            match cuts(f64::from_bits(mid)) {
                true => cut = mid,
                false => kept = mid,
            }
        }
        (f64::from_bits(cut), f64::from_bits(kept))
    }

    #[test]
    fn outward_scan_of_quarter_octaves_grows_runs_inside_an_octave_and_cuts_to_the_ulp() {
        // r = 1.625 sits in [1.5, 1.75). Gaps, all exact: [1.25, 1.5) and
        // [1.75, 2) 0.125, [1, 1.25) and [2, 2.5) 0.375, [2.5, 3) 0.875,
        // [4, 5) 2.375.
        let r = 1.625;
        // With room to spare the run that starts in the home band grows
        // upward over the rest of its octave and never downward; the lower
        // side is a run of its own; no run crosses into the next octave.
        let all: [&[u32]; 4] = [&[12, 13], &[10, 11], &[14, 15, 16], &[17]];
        assert_eq!(scanned(quarters_from(r), &[f64::INFINITY]), all);
        assert_eq!(scanned(quarters_from(r), &[2.375]), all);
        assert_eq!(scanned(quarters_from(r), &[2.0]), all[..3]);
        // A gap equal to w is kept, whether the band is reached by growing
        // a run ([1.75, 2) from the home band, [1, 1.25) from the band above
        // it) or by a step ([1.25, 1.5), [2, 2.5)).
        let mid: [&[u32]; 3] = [&[12, 13], &[10, 11], &[14]];
        assert_eq!(scanned(quarters_from(r), &[0.875]), all[..3]);
        assert_eq!(scanned(quarters_from(r), &[0.375]), mid);
        let near: [&[u32]; 2] = [&[12, 13], &[11]];
        assert_eq!(scanned(quarters_from(r), &[0.125]), near);
        assert_eq!(scanned(quarters_from(r), &[0.0]), [&[12u32][..]]);
        // The cut is `gap > w + slack * (the larger length)`, to the ulp.
        // Below, the larger length is r: the step to [1.25, 1.5) and the
        // growth over [1, 1.25) share it.
        let (cut, kept) = last_cut_and_first_kept(|w| 0.125 > w + ANNULUS_SLACK * r);
        assert!(cut < kept && kept < 0.125);
        assert_eq!(scanned(quarters_from(r), &[kept]), near);
        // ... and above, the band's own bottom — 1.75 here, so the upper
        // band is still kept where the lower one has just been cut.
        assert_eq!(scanned(quarters_from(r), &[cut]), near[..1]);
        let (cut, kept) = last_cut_and_first_kept(|w| 0.125 > w + ANNULUS_SLACK * 1.75);
        assert_eq!(scanned(quarters_from(r), &[kept]), near[..1]);
        assert_eq!(scanned(quarters_from(r), &[cut]), [&[12u32][..]]);
        let (cut, kept) = last_cut_and_first_kept(|w| 0.375 > w + ANNULUS_SLACK * r);
        assert_eq!(scanned(quarters_from(r), &[kept])[..2], all[..2]);
        assert_eq!(scanned(quarters_from(r), &[cut])[..2], near);
        let (cut, kept) = last_cut_and_first_kept(|w| 0.375 > w + ANNULUS_SLACK * 2.0);
        let upper: [&[u32]; 3] = [&[12, 13], &[11], &[14]];
        assert_eq!(scanned(quarters_from(r), &[kept]), upper);
        assert_eq!(scanned(quarters_from(r), &[cut]), near);
        // A run is grown under the bound it was started with: the next
        // read of w (0.1 here) comes too late for [1.75, 2) but not for
        // what follows.
        assert_eq!(scanned(quarters_from(r), &[9.0, 0.1]), all[..1]);
        // r below every band and above every band.
        let up: [&[u32]; 3] = [&[10, 11, 12, 13], &[14, 15, 16], &[17]];
        assert_eq!(scanned(quarters_from(0.5), &[f64::INFINITY]), up);
        let down: [&[u32]; 3] = [&[17], &[14, 15, 16], &[10, 11, 12, 13]];
        assert_eq!(scanned(quarters_from(64.0), &[f64::INFINITY]), down);
    }

    #[test]
    fn a_run_stops_growing_at_a_cache_line_of_targets() {
        // One octave, four sub-bands of 7, 8, 9 and 2 targets: from below
        // the run takes 7 + 8 (15 < 16 lets the second in), then stops at
        // 24; from above it takes 2 + 9 + 8 and leaves the last 7.
        let targets: Vec<u32> = (0..26).collect();
        let row = Row {
            targets: &targets,
            exps: &[4092, 4093, 4094, 4095],
            ends: &[7, 15, 24, 26],
            resolution: 2,
        };
        let mut scan = Outward::new(row, || 0.5);
        let runs: Vec<usize> = std::iter::from_fn(|| scan.next(|| f64::INFINITY))
            .map(<[u32]>::len)
            .collect();
        assert_eq!(runs, [24, 2]);
        let mut scan = Outward::new(row, || 64.0);
        let runs: Vec<&[u32]> = std::iter::from_fn(|| scan.next(|| f64::INFINITY)).collect();
        assert_eq!(runs, [&targets[7..], &targets[..7]]);
    }

    #[test]
    fn an_unbanded_row_is_one_band_and_asks_for_no_distance() {
        let none = || -> f64 { panic!("no distance is mapped for a plain row") };
        let plain: &[u32] = &[3, 1, 2];
        assert_eq!(scanned(Outward::new(plain.into(), none), &[0.0]), [plain]);
        let empty: &[u32] = &[];
        let mut scan = Outward::new(empty.into(), none);
        assert!(scan.next(none).is_none());
    }

    fn plane_dataset(n: usize, seed: u64) -> Dataset<Vec<f64>, Euclidean> {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let point = |_| vec![rng.random_range(0.0..100.0), rng.random_range(0.0..100.0)];
        Dataset::new((0..n).map(point).collect(), Euclidean)
    }

    #[test]
    fn banded_walk_skips_only_what_the_plain_walk_scores_and_rejects() {
        let n = 600;
        let data = plane_dataset(n, 5);
        let banded = crate::gnet::GNet::build_fast(&data, 1.0).graph;
        let plain = banded.without_bands();
        let mut saved = 0;
        for (i, ef) in [1usize, 3, 16, 32, 33, 64, n].into_iter().enumerate() {
            let q = vec![13.0 * i as f64 + 0.37, 91.0 - 11.0 * i as f64];
            let entry = [(i * 97 % n) as u32];
            let scorer = |log: &mut Vec<u32>, v: u32| {
                log.push(v);
                data.surrogate_to(v as usize, &q)
            };
            let (mut seen_b, mut seen_p) = (Vec::new(), Vec::new());
            let rows = MetricRows {
                graph: &banded,
                data: &data,
            };
            let b = walk_rows(n, &entry, ef, rows, |v| scorer(&mut seen_b, v));
            let p = beam_walk(
                n,
                &entry,
                ef,
                |v| plain.neighbors(v),
                |v| scorer(&mut seen_p, v),
            );
            assert_eq!(b.results, p.results, "ef = {ef}");
            assert_eq!(b.expansions, p.expansions, "ef = {ef}");
            assert_eq!(b.dist_comps, seen_b.len() as u64);
            // Every vertex the banded walk scored, the plain walk scored;
            // what it skipped is strictly beyond the final worst.
            let worst = b.results.last().unwrap().1;
            for v in &seen_b {
                assert!(
                    seen_p.contains(v),
                    "ef = {ef}: {v} scored by the banded walk only"
                );
            }
            for &v in seen_p.iter().filter(|v| !seen_b.contains(v)) {
                assert!(data.surrogate_to(v as usize, &q) > worst, "ef = {ef}: {v}");
            }
            saved += seen_p.len() - seen_b.len();

            let (gb, gp) = (
                greedy(&banded, &data, entry[0], &q),
                greedy(&plain, &data, entry[0], &q),
            );
            assert_eq!((gb.result, &gb.hops), (gp.result, &gp.hops));
            assert_eq!(gb.result_dist, gp.result_dist);
            assert!(gb.dist_comps < gp.dist_comps);
            // A budget that suffices on the plain rows suffices on the bands.
            let budgeted = query(&banded, &data, entry[0], &q, gp.dist_comps);
            assert!(budgeted.self_terminated);
            assert_eq!(budgeted.hops, gp.hops);

            // The public wrappers descend on the bands first: they equal the
            // plain walk entered at the descent's answer, and score no
            // vertex twice.
            let det = beam_search_detailed(&banded, &data, entry[0], &q, ef, ef);
            let answer = [first_improvement(&banded, &data, entry[0], &q).0];
            let from_answer = beam_walk(
                n,
                &answer,
                ef,
                |v| plain.neighbors(v),
                |v| data.surrogate_to(v as usize, &q),
            );
            assert_eq!(det.expansions, from_answer.expansions, "ef = {ef}");
            let plain_comps = from_answer.dist_comps;
            assert_eq!(det.results, from_answer.into_outcome(&data).results);
            assert!(det.dist_comps <= plain_comps + gb.dist_comps, "ef = {ef}");
            assert!(det.dist_comps <= n as u64, "ef = {ef}");
            if ef == n {
                assert_eq!(det.dist_comps, n as u64);
            }
        }
        assert!(saved > 100, "the bands saved only {saved} scores");
    }

    /// Where the first-improvement descent before a banded beam stops from
    /// `start`, and how many vertices it scored.
    fn first_improvement<P, M: Metric<P>>(
        graph: &Graph,
        data: &Dataset<P, M>,
        start: u32,
        q: &P,
    ) -> (u32, u64) {
        let mut s = SearchScratch::default();
        let rows = MetricRows { graph, data };
        let score = |v: u32| data.surrogate_to(v as usize, q);
        let (answer, _, _) =
            s.descend::<_, true>(data.len(), &rows, start, score, |_| true, |_| {});
        (answer, s.descended.len() as u64)
    }

    #[test]
    fn greedy_hops_to_the_closest_neighbor_and_the_beam_enters_at_the_first_closer_one() {
        // From vertex 0 at the origin, with the query at (10, 0): vertex 2
        // (3 from the query) sits in the band of length 10.4, the one
        // holding D(0, q) = 10, so the outward scan meets it first; vertex 1
        // (2.5 from the query) sits in the band above. Both point back to 0
        // only.
        let pts = [[0.0, 0.0], [12.5, 0.0], [10.0, 3.0]];
        let data = Dataset::new(pts.iter().map(|p| p.to_vec()).collect(), Euclidean);
        let plain = Graph::from_adjacency(vec![vec![1, 2], vec![0], vec![0]]);
        let banded = plain.with_bands(&data);
        assert_eq!(banded.neighbors(0), &[2, 1]);
        let q = vec![10.0, 0.0];
        // `greedy` and `query` take line 3's closest neighbor on any layout.
        for g in [&plain, &banded] {
            let out = greedy(g, &data, 0, &q);
            assert_eq!((out.hops, out.result_dist), (vec![0, 1], 2.5));
            assert_eq!(out.dist_comps, 3);
            assert_eq!(query(g, &data, 0, &q, 3).hops, vec![0, 1]);
        }
        // The descent before a banded beam hops at the first neighbor that
        // improves, in the scan order of the graph's own ladder; a width-1
        // beam entered there stays there.
        assert_eq!(first_improvement(&banded, &data, 0, &q), (2, 2));
        assert_eq!(first_improvement(&plain, &data, 0, &q), (1, 2));
        let beam = beam_search_detailed(&banded, &data, 0, &q, 1, 1);
        assert_eq!(beam.results, vec![(2, 3.0)]);
        assert_eq!((beam.dist_comps, beam.expansions), (2, 1));
        // An un-banded graph is walked from the start, as before.
        let beam = beam_search_detailed(&plain, &data, 0, &q, 1, 1);
        assert_eq!(beam.results, vec![(1, 2.5)]);
        // A wider beam gets past the entry.
        let beam = beam_search_detailed(&banded, &data, 0, &q, 2, 2);
        assert_eq!(beam.results, vec![(1, 2.5), (2, 3.0)]);
        assert_eq!(beam.dist_comps, 3);
    }

    #[test]
    fn a_finer_ladder_scores_no_more_on_walks_from_one_entry() {
        use pg_metric::{Chebyshev, Manhattan};
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};

        // The rows as built (four sub-bands per octave), re-cut at one
        // band per octave, and stripped: walks from one entry return the
        // same results and expansions, and the finer ladder scores no more.
        fn walks<M: Metric<Vec<f64>> + Sync>(points: Vec<Vec<f64>>, qs: &[Vec<f64>], m: M) -> u64 {
            let n = points.len();
            let data = Dataset::new(points, m);
            let fine = crate::gnet::GNet::build_fast(&data, 1.0).graph;
            let plain = fine.without_bands();
            let coarse = plain.with_bands_at(&data, 0);
            let mut saved = 0;
            for (i, q) in qs.iter().enumerate() {
                let entry = [((i * 7919 + n / 3) % n) as u32];
                for ef in [1, 4, 16, 33, 40, n] {
                    let [f, c, p] = [&fine, &coarse, &plain].map(|graph| {
                        let rows = MetricRows { graph, data: &data };
                        walk_rows(n, &entry, ef, rows, |v| data.surrogate_to(v as usize, q))
                    });
                    for w in [&f, &c] {
                        assert_eq!((&w.results, w.expansions), (&p.results, p.expansions));
                    }
                    assert!(f.dist_comps <= c.dist_comps && c.dist_comps <= p.dist_comps);
                    saved += p.dist_comps - f.dist_comps;
                }
            }
            saved
        }

        let mut saved = 0;
        for (seed, d) in (0..12u64).zip([1, 2, 3, 8].into_iter().cycle()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = rng.random_range(12..140);
            let mut cube = |m: usize, lo: f64, hi: f64| -> Vec<Vec<f64>> {
                let mut point = || (0..d).map(|_| rng.random_range(lo..hi)).collect();
                (0..m).map(|_| point()).collect()
            };
            let (points, qs) = (cube(n, 0.0, 50.0), cube(4, -10.0, 60.0));
            saved += walks(points.clone(), &qs, Euclidean)
                + walks(points.clone(), &qs, Manhattan)
                + walks(points, &qs, Chebyshev);
        }
        assert!(saved > 1000, "the bands saved only {saved} scores");
    }

    /// Euclidean, recording the stored point of every distance it computes
    /// (the first argument, under `Dataset::surrogates_to`).
    #[derive(Default)]
    struct Logged(std::cell::RefCell<Vec<[u64; 2]>>);

    impl Metric<Vec<f64>> for Logged {
        fn dist(&self, a: &Vec<f64>, b: &Vec<f64>) -> f64 {
            self.dist_from_surrogate(self.surrogate(a, b))
        }

        fn surrogate(&self, a: &Vec<f64>, b: &Vec<f64>) -> f64 {
            self.0.borrow_mut().push([a[0].to_bits(), a[1].to_bits()]);
            Euclidean.surrogate(a, b)
        }

        fn dist_from_surrogate(&self, s: f64) -> f64 {
            Metric::<Vec<f64>>::dist_from_surrogate(&Euclidean, s)
        }
    }

    #[test]
    fn a_descended_search_scores_each_vertex_once_across_the_epoch_wrap() {
        let n = 300;
        let data = plane_dataset(n, 8);
        let logged = Dataset::new(data.points().to_vec(), Logged::default());
        let banded = crate::gnet::GNet::build_fast(&data, 1.0).graph;
        let plain = banded.without_bands();
        let mut reused = SearchScratch::default();
        let mut reuses = 0;
        // 600 searches, two epochs each: the byte epoch wraps between a
        // descent and its walk as well as between searches.
        for i in 0..600usize {
            let (start, ef) = ((i * 7 % n) as u32, [1, 2, 5, 16, 40, n][i % 6]);
            let q = vec![(i * 37 % 101) as f64, (i * 53 % 97) as f64];
            let search = |s: &mut SearchScratch| {
                let mut log = Vec::new();
                let scorer = |v: u32| {
                    log.push(v);
                    data.surrogate_to(v as usize, &q)
                };
                let out = s.descend_then_walk(&banded, &data, start, ef, scorer);
                (out, log)
            };
            let (got, mut log) = search(&mut reused);
            let (fresh, _) = search(&mut SearchScratch::default());
            assert_eq!(got, fresh, "search {i}");
            assert_eq!(got.dist_comps, log.len() as u64, "search {i}");
            log.sort_unstable();
            log.dedup();
            assert_eq!(
                got.dist_comps,
                log.len() as u64,
                "search {i}: a vertex scored twice"
            );
            if ef == n {
                assert_eq!(got.dist_comps, n as u64);
            }
            // Greedy alone, on either layout, scores no vertex twice.
            for g in [&banded, &plain] {
                let alone = greedy(g, &logged, start, &q);
                let mut points = logged.metric().0.take();
                points.sort_unstable();
                points.dedup();
                assert_eq!(alone.dist_comps, points.len() as u64, "search {i}");
            }
            // The walk is the plain one entered at the descent's answer.
            let (answer, descent) = first_improvement(&banded, &data, start, &q);
            let answer = [answer];
            let want = beam_walk(
                n,
                &answer,
                ef,
                |v| plain.neighbors(v),
                |v| data.surrogate_to(v as usize, &q),
            );
            assert_eq!(
                (&got.results, got.expansions),
                (&want.results, want.expansions)
            );
            // A width-1 beam entered at a local minimum admits nothing and
            // scores nothing new: its top-1 and count are the descent's.
            if ef == 1 {
                assert_eq!((got.results[0].0, got.dist_comps), (answer[0], descent));
            }
            // Without the descent's scores, the same walk on the bands and
            // the descent would have scored this many more.
            let rows = MetricRows {
                graph: &banded,
                data: &data,
            };
            let banded_walk =
                walk_rows(n, &answer, ef, rows, |v| data.surrogate_to(v as usize, &q));
            reuses += banded_walk.dist_comps + descent;
            reuses -= got.dist_comps;
        }
        assert!(reuses > 1000, "the walks reused only {reuses} scores");
    }

    /// The one-pass band scan `beam_walk` ran before it gathered, kept as
    /// the reference: each first-visit target is scored the moment the
    /// scan reaches it, and nothing is loaded ahead.
    fn single_pass_walk<'g, N: Rows<'g>>(
        n: usize,
        entries: &'g [u32],
        ef: usize,
        neighbors: N,
        mut score: impl FnMut(u32) -> f64,
    ) -> BeamSurrogate {
        let mut scratch = SearchScratch::default();
        scratch.begin(n);
        let mut visited = Visited::new(&mut scratch.stamps[..n], scratch.epoch);
        let cands = &mut scratch.candidates;
        let (mut dist_comps, mut expansions) = (0u64, 0u64);
        let mut worst = f64::INFINITY;
        let mut bound = Bound::unset();
        let mut bands = Outward::new(entries.into(), || 0.0);
        loop {
            while let Some(band) = bands.next(|| {
                if cands.kept.len() < ef {
                    return f64::INFINITY;
                }
                bound.of(worst, |s| neighbors.dist_of(s))
            }) {
                for &v in band {
                    if !visited.first_visit(v) {
                        continue;
                    }
                    dist_comps += 1;
                    let d = score(v);
                    if cands.kept.len() < ef || d < worst {
                        cands.insert(d, v, ef);
                        worst = cands.worst();
                    }
                }
            }
            let Some(c) = cands.next_unexpanded() else {
                break;
            };
            expansions += 1;
            bands = Outward::new(neighbors.row(c.id), || neighbors.dist_of(c.score));
        }
        BeamSurrogate {
            results: cands.kept.drain(..).map(|c| (c.id, c.score)).collect(),
            dist_comps,
            expansions,
        }
    }

    /// What a [`Recorder`] saw, in order.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Event {
        Load(u32),
        Score(u32),
    }

    /// A score that logs every load and every score of `inner` into one
    /// sequence.
    struct Recorder<'a, S> {
        inner: S,
        log: &'a std::cell::RefCell<Vec<Event>>,
    }

    impl<S: Score> Score for Recorder<'_, S> {
        fn score(&mut self, v: u32) -> f64 {
            self.log.borrow_mut().push(Event::Score(v));
            self.inner.score(v)
        }

        fn touch(&self, v: u32) -> u64 {
            self.log.borrow_mut().push(Event::Load(v));
            self.inner.touch(v)
        }
    }

    /// Walks `rows` (banded when `graph` is given, else the closure's plain
    /// rows) from `entries` twice — gathered, under a [`Recorder`] on
    /// `data`, and by [`single_pass_walk`] — and asserts the two equal to
    /// the bit, `score` called in the same sequence, and every scored
    /// vertex loaded exactly once, before it is scored, and nothing else
    /// loaded. Returns the walk.
    fn gathered_equals_single_pass<P, M: Metric<P>>(
        data: &Dataset<P, M>,
        graph: Option<&Graph>,
        plain: &[Vec<u32>],
        entries: &[u32],
        q: &P,
        ef: usize,
    ) -> BeamSurrogate {
        let n = data.len();
        let log = std::cell::RefCell::new(Vec::new());
        let mut want_order = Vec::new();
        let recorder = Recorder {
            inner: point_score(data, |v| data.surrogate_to(v as usize, q)),
            log: &log,
        };
        let reference = |v: u32| {
            want_order.push(v);
            data.surrogate_to(v as usize, q)
        };
        let (got, want) = match graph {
            Some(graph) => (
                walk_rows(n, entries, ef, MetricRows { graph, data }, recorder),
                single_pass_walk(n, entries, ef, MetricRows { graph, data }, reference),
            ),
            None => {
                let rows = |v: u32| &plain[v as usize][..];
                (
                    walk_rows(n, entries, ef, rows, recorder),
                    single_pass_walk(n, entries, ef, rows, reference),
                )
            }
        };
        let bits = |w: &BeamSurrogate| -> Vec<(u32, u64)> {
            w.results.iter().map(|&(v, s)| (v, s.to_bits())).collect()
        };
        let at = format!("n = {n}, ef = {ef}, entries {entries:?}");
        assert_eq!(bits(&got), bits(&want), "{at}");
        assert_eq!(
            (got.dist_comps, got.expansions),
            (want.dist_comps, want.expansions),
            "{at}"
        );
        let log = log.into_inner();
        let scored: Vec<u32> = log
            .iter()
            .filter_map(|e| match *e {
                Event::Score(v) => Some(v),
                Event::Load(_) => None,
            })
            .collect();
        let loaded: Vec<u32> = log
            .iter()
            .filter_map(|e| match *e {
                Event::Load(v) => Some(v),
                Event::Score(_) => None,
            })
            .collect();
        assert_eq!(scored, want_order, "{at}: the order of the score calls");
        assert_eq!(loaded, scored, "{at}: a load for each score, and no other");
        // The i-th score comes after the i-th load: each vertex is loaded
        // before it is scored.
        let mut loads_ahead = 0usize;
        for e in &log {
            match e {
                Event::Load(_) => loads_ahead += 1,
                Event::Score(v) => {
                    assert!(loads_ahead > 0, "{at}: {v} scored before it was loaded");
                    loads_ahead -= 1;
                }
            }
        }
        got
    }

    #[test]
    fn gathered_scans_equal_the_single_pass_scan_and_load_each_scored_point_once() {
        use pg_metric::{Counting, FlatPoints};
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(29);
        let mut saved = 0;
        for seed in 0..3u64 {
            // Banded `G_net`s: uniform points in the plane (tie-free), and a
            // shuffled integer lattice, where distances tie everywhere.
            let uniform =
                FlatPoints::from(plane_dataset(400, seed).points()).into_dataset(Euclidean);
            let mut cells: Vec<Vec<f64>> = (0..400)
                .map(|i| vec![f64::from(i % 20), f64::from(i / 20)])
                .collect();
            for i in (1..cells.len()).rev() {
                cells.swap(i, rng.random_range(0..=i));
            }
            let lattice = FlatPoints::from(&cells[..]).into_dataset(Euclidean);
            for data in [&uniform, &lattice] {
                let n = data.len();
                let g = crate::gnet::GNet::build_fast(data, 1.0).graph;
                assert!(g.is_banded());
                let plain: Vec<Vec<u32>> = (0..n as u32).map(|v| g.neighbors(v).to_vec()).collect();
                for ef in [1, 16, 64, n] {
                    let q = FlatRow::from(vec![
                        f64::from(rng.random_range(-20..420)) / 20.0,
                        f64::from(rng.random_range(-20..420)) / 20.0,
                    ]);
                    let entry = [rng.random_range(0..n) as u32];
                    let b = gathered_equals_single_pass(data, Some(&g), &[], &entry, &q, ef);
                    let p = gathered_equals_single_pass(data, None, &plain, &entry, &q, ef);
                    saved += p.dist_comps - b.dist_comps;
                }
            }
            // Plain HNSW-shaped rows (up to 32 targets), some targets and
            // entries repeated, on a nested dataset (which loads nothing)
            // and on a flat one under `Counting`, which counts every score
            // and no load.
            let n = 300;
            let nested = plane_dataset(n, seed + 10);
            let counter = Counting::new(Euclidean);
            let counted = FlatPoints::from(nested.points()).into_dataset(counter.clone());
            let rows: Vec<Vec<u32>> = (0..n)
                .map(|_| {
                    let mut row: Vec<u32> = (0..rng.random_range(0..=32))
                        .map(|_| rng.random_range(0..n) as u32)
                        .collect();
                    if let Some(&t) = row.first() {
                        row.push(t);
                    }
                    row
                })
                .collect();
            for ef in [1, 16, 64, n] {
                let q = vec![rng.random_range(0.0..100.0), rng.random_range(0.0..100.0)];
                let entries = [rng.random_range(0..n) as u32, 0, 0];
                gathered_equals_single_pass(&nested, None, &rows, &entries, &q, ef);
                let fq = FlatRow::from(q);
                let before = counter.count();
                let w = gathered_equals_single_pass(&counted, None, &rows, &entries, &fq, ef);
                assert_eq!(counter.count() - before, 2 * w.dist_comps, "ef = {ef}");
            }
        }
        assert!(saved > 100, "the annulus skipped only {saved} scores");
    }

    #[test]
    fn greedy_takes_the_smallest_id_among_equally_near_neighbors_in_any_row_order() {
        // Vertex 0 at the origin sees 1..=4 at the corners of a square the
        // query is the centre of, filed under two bands in the order 3, 4,
        // 1, 2 (lengths 1, 1, then 2.2, 2.2 from vertex 0's point of view).
        let pts = [[0.0, 0.0], [3.0, 1.0], [3.0, -1.0], [1.0, 1.0], [1.0, -1.0]];
        let data = Dataset::new(pts.iter().map(|p| p.to_vec()).collect(), Euclidean);
        let plain = Graph::from_adjacency(vec![vec![1, 2, 3, 4], vec![], vec![], vec![], vec![]]);
        let banded = plain.with_bands(&data);
        assert_eq!(banded.neighbors(0), &[3, 4, 1, 2]);
        let q = vec![2.0, 0.0];
        for g in [&plain, &banded] {
            let out = greedy(g, &data, 0, &q);
            assert_eq!(out.hops, vec![0, 1]);
            assert_eq!(out.dist_comps, 5);
        }
    }

    #[test]
    fn beam_detailed_counts_expansions() {
        let ds = line_dataset(40);
        let g = path_graph(40);
        let q = vec![25.2];
        let det = beam_search_detailed(&g, &ds, 0, &q, 8, 3);
        // The walk expands at least every vertex on the path to the answer,
        // and never more vertices than it evaluated distances for.
        assert!(det.expansions >= 25);
        assert!(det.expansions <= det.dist_comps);
        // A start with no out-edges is popped once and expands nothing
        // beyond itself: exactly one expansion.
        let det = beam_search_detailed(&Graph::empty(40), &ds, 7, &q, 4, 1);
        assert_eq!(det.expansions, 1);
        assert_eq!(det.results, vec![(7, ds.dist_to(7, &q))]);
    }

    #[test]
    fn beam_surrogate_is_the_detailed_walk_before_the_distance_map() {
        let ds = line_dataset(40);
        let g = path_graph(40);
        let q = vec![25.2];
        let sur = beam_search_surrogate(&g, &ds, 0, &q, 8, 3);
        let det = beam_search_detailed(&g, &ds, 0, &q, 8, 3);
        assert_eq!(sur.dist_comps, det.dist_comps);
        assert_eq!(sur.expansions, det.expansions);
        assert_eq!(sur.results.len(), det.results.len());
        for (s, d) in sur.results.iter().zip(det.results.iter()) {
            assert_eq!(s.0, d.0);
            assert_eq!(ds.dist_from_surrogate(s.1), d.1);
        }
        // Surrogate keys are sorted (surrogate, id) — the merge invariant.
        assert!(sur
            .results
            .windows(2)
            .all(|w| w[0].1 < w[1].1 || (w[0].1 == w[1].1 && w[0].0 < w[1].0)));
    }

    #[test]
    #[should_panic(expected = "start vertex out of range")]
    fn beam_rejects_an_out_of_range_start_like_query_does() {
        let ds = line_dataset(10);
        let _ = beam_search_detailed(&path_graph(10), &ds, 10, &vec![3.0], 4, 1);
    }

    #[test]
    fn beam_with_ef_one_behaves_like_greedy_result_quality() {
        let ds = line_dataset(40);
        let g = path_graph(40);
        let q = vec![31.7];
        let res = beam_search_detailed(&g, &ds, 2, &q, 1, 1).results;
        let out = greedy(&g, &ds, 2, &q);
        // ef=1 beam and greedy both converge to the same local optimum on a
        // path graph.
        assert_eq!(res[0].0, out.result);
    }

    #[test]
    fn quantized_beam_at_full_width_equals_the_exact_beam() {
        use pg_metric::{CompactPoints, QuantKind};
        let n = 30;
        let ds = line_dataset(n);
        let g = path_graph(n);
        let rows: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64]).collect();
        let q = vec![13.4];
        for kind in [QuantKind::F32, QuantKind::Sq8] {
            let compact = CompactPoints::from_rows(kind, &rows).unwrap();
            // ef = n on a connected graph gathers every vertex, so the
            // re-ranked top-k must equal the exact top-k bit-for-bit.
            let exact = beam_search_detailed(&g, &ds, 0, &q, n, 5);
            let quant = beam_search_quantized(&g, &ds, &compact, 0, &q, n, 5);
            assert_eq!(exact.results, quant.results);

            // Accounting: the quantized walk visited all n vertices and then
            // re-ranked all n candidates.
            assert_eq!(quant.dist_comps, 2 * n as u64);
        }
    }

    #[test]
    fn quantized_rerank_reports_exact_surrogate_keys() {
        use pg_metric::{CompactPoints, QuantKind};
        let n = 25;
        let ds = line_dataset(n);
        let g = path_graph(n);
        let rows: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64]).collect();
        let compact = CompactPoints::from_rows(QuantKind::Sq8, &rows).unwrap();
        let q = vec![7.3];
        let sur = beam_search_quantized_surrogate(&g, &ds, &compact, 0, &q, 6, 6);
        for &(id, s) in &sur.results {
            // Every reported key is the exact full-precision surrogate, not
            // the quantized one the walk navigated by.
            assert_eq!(s, ds.surrogate_to(id as usize, &q));
        }
    }
}
