//! The hierarchical net ladder `Y_0 ⊇ Y_1 ⊇ ... ⊇ Y_h` with near-linear
//! construction (Har-Peled–Mendel substitute; see crate docs).

use pg_metric::aspect::approx_diameter;
use pg_metric::{Dataset, Metric, ANNULUS_SLACK};

use crate::lists::BlockLists;

/// Sentinel for "not a center at this level".
pub(crate) const NOT_A_CENTER: u32 = u32::MAX;

/// One level of a [`NetHierarchy`]: an exact `radius`-net of `P`.
///
/// **Position invariant**: the centers of level `i` that already existed at
/// level `i+1` occupy the same positions (indices into `centers`) as they do
/// at level `i+1`; newly promoted centers are appended after them. Several
/// algorithms (friends lists, [`crate::RelativesCascade`]) rely on this.
#[derive(Debug, Clone, PartialEq)]
pub struct NetLevel {
    /// Net radius `r_i` of this level.
    pub radius: f64,
    /// Dataset ids of the net points, position-indexed.
    pub centers: Vec<u32>,
    /// For every dataset id: position (in `centers`) of a covering center
    /// with `D(p, center) <= radius`. Centers cover themselves.
    pub cover: Vec<u32>,
    /// For every dataset id: its position in `centers`, or
    /// [`u32::MAX`] if it is not a center at this level.
    pub pos_of: Vec<u32>,
    /// For every center position: the position of its parent (its covering
    /// center one level up). At the top level this is `0`.
    ///
    /// By the position invariant, `parent_pos[i] == i` for carried-over
    /// centers (`i < |Y_{i+1}|`).
    pub parent_pos: Vec<u32>,
}

impl NetLevel {
    /// Number of net points at this level.
    pub fn len(&self) -> usize {
        self.centers.len()
    }

    /// Whether the level is empty (never true in a built hierarchy).
    pub fn is_empty(&self) -> bool {
        self.centers.is_empty()
    }
}

/// A nested ladder of exact `r`-nets of a dataset with radii
/// `r_bot, 2 r_bot, 4 r_bot, ..., r_top`, stored bottom-up
/// (`level(0)` is the finest; `level(h)` has a single center).
///
/// Guarantees (checked by [`NetHierarchy::validate`] and property tests):
///
/// * every level is an exact `radius`-net of `P` — separation `> radius`
///   and covering `<= radius`, as required by the paper's Section 2;
/// * levels are nested: `Y_{i+1} ⊆ Y_i`;
/// * the bottom level is all of `P` (its radius is below `d_min`), playing
///   the role of `Y_0 = P` in the paper;
/// * `bottom_radius() ∈ [d_min/2, d_min)` and `top_radius() ∈
///   [diam, 2 diam]` — the `d̂`-estimates of the Section 2.4 remark come for
///   free.
#[derive(Debug, Clone, PartialEq)]
pub struct NetHierarchy {
    levels: Vec<NetLevel>,
}

/// Friends-list radius factor used during construction. Any value `>= 4`
/// closes the level-to-level recurrence (see `RelativesCascade`); 4 is the
/// cheapest.
const BUILD_FRIEND_FACTOR: f64 = 4.0;

impl NetHierarchy {
    /// Builds the hierarchy top-down.
    ///
    /// Each level is derived from the one above by promoting every point not
    /// covered within the halved radius; candidate covers are found through
    /// the friends lists of the previous level, so the whole construction
    /// costs `2^{O(λ)}` distances per point per level instead of a full
    /// scan. Within that scan a friend's distance rules its freshly promoted
    /// children out whenever it exceeds the friend's radius by more than the
    /// best cover found so far (a child is no nearer than that; the cut
    /// keeps [`ANNULUS_SLACK`]), so covers and promotions are what the
    /// exhaustive scan finds. Construction is deterministic (no
    /// randomness): points are promoted sequentially in id order (a
    /// promotion changes what later points see), and only the per-center
    /// friends lists that follow are computed on the thread pool, one task
    /// per block of 1024 centers.
    /// A point that is already a center keeps covering itself without a
    /// scan; the scan would agree, because it replaces its best only on a
    /// strictly smaller distance, the center is at distance 0 from itself,
    /// and every other center is a distinct point: no tie can pick another.
    ///
    /// Panics if the dataset contains duplicate points (more than 192
    /// levels) — the paper assumes a finite aspect ratio, which requires
    /// distinct points.
    pub fn build<P: Sync, M: Metric<P> + Sync>(data: &Dataset<P, M>) -> Self {
        let max_levels = 192;
        let n = data.len();
        assert!(n >= 2, "hierarchy needs at least two points");

        let r_top = approx_diameter(data);
        assert!(
            r_top > 0.0,
            "all points are identical: aspect ratio is undefined"
        );

        // Top level: a single center (point 0) whose ball of radius
        // r_top >= diam(P) covers everything.
        let top = NetLevel {
            radius: r_top,
            centers: vec![0],
            cover: vec![0; n],
            pos_of: {
                let mut v = vec![NOT_A_CENTER; n];
                v[0] = 0;
                v
            },
            parent_pos: vec![0],
        };
        let mut levels_topdown: Vec<NetLevel> = vec![top];
        // friends.get(pos) = positions of centers within
        // BUILD_FRIEND_FACTOR * r.
        let mut friends = BlockLists::top();

        while levels_topdown.last().unwrap().len() < n {
            assert!(
                levels_topdown.len() < max_levels,
                "exceeded {max_levels} net levels: dataset likely contains \
                 duplicate points (infinite aspect ratio)"
            );
            let cur = levels_topdown.last().unwrap();
            let r_next = cur.radius / 2.0;

            // Carried-over centers keep their positions (position invariant).
            let mut centers = cur.centers.clone();
            let mut parent_pos: Vec<u32> = (0..cur.len() as u32).collect();
            let mut pos_of = cur.pos_of.clone();
            let mut cover = vec![NOT_A_CENTER; n];
            // Positions (in the *next* level) of newly promoted centers,
            // grouped by the position (in the *current* level) of their
            // parent.
            let mut new_by_parent: Vec<Vec<u32>> = vec![Vec::new(); cur.len()];

            for p in 0..n as u32 {
                // Already a center: covers itself (see the doc comment).
                if cur.pos_of[p as usize] != NOT_A_CENTER {
                    cover[p as usize] = cur.pos_of[p as usize];
                    continue;
                }
                let cpos = cur.cover[p as usize] as usize;
                // Find the nearest candidate center within r_next among the
                // friends of p's current cover and their freshly promoted
                // children. Completeness: any center z with D(p, z) <= r_next
                // has a parent within r_next + 2*r_next of p, hence within
                // (3 + 2) * r_next = 2.5 * r_cur <= 4 * r_cur of cpos.
                let mut best: Option<(f64, u32)> = None;
                for &f in friends.get(cpos) {
                    let old_pid = cur.centers[f as usize];
                    let d = data.dist(p as usize, old_pid as usize);
                    if d <= r_next && best.is_none_or(|(bd, _)| d < bd) {
                        best = Some((d, f)); // old center keeps position f
                    }
                    // A new child of f lies within cur.radius of it, so no
                    // nearer to p than d - cur.radius: past the best so far
                    // (at most r_next) none of them can replace it.
                    let bound = best.map_or(r_next, |(bd, _)| bd);
                    if d - cur.radius > bound + ANNULUS_SLACK * d {
                        continue;
                    }
                    for &np in &new_by_parent[f as usize] {
                        let new_pid = centers[np as usize];
                        let d = data.dist(p as usize, new_pid as usize);
                        if d <= r_next && best.is_none_or(|(bd, _)| d < bd) {
                            best = Some((d, np));
                        }
                    }
                }
                match best {
                    Some((_, pos)) => cover[p as usize] = pos,
                    None => {
                        let pos = centers.len() as u32;
                        centers.push(p);
                        parent_pos.push(cpos as u32);
                        new_by_parent[cpos].push(pos);
                        pos_of[p as usize] = pos;
                        cover[p as usize] = pos;
                    }
                }
            }

            // Friends lists for the next level, from the parents' friends
            // (complete for any factor >= 4: `RelativesCascade::descend`).
            let above_len = cur.len();
            levels_topdown.push(NetLevel {
                radius: r_next,
                centers,
                cover,
                pos_of,
                parent_pos,
            });
            let below = levels_topdown.last().expect("just pushed");
            friends = friends.refine(data, below, above_len, BUILD_FRIEND_FACTOR);
        }

        levels_topdown.reverse();
        NetHierarchy {
            levels: levels_topdown,
        }
    }

    /// Number of levels `h + 1` (bottom level 0 through top level `h`).
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// `h = num_levels - 1`, the paper's `ceil(log diam)` analog; also an
    /// estimate of `log Δ` within ±2.
    pub fn h(&self) -> usize {
        self.levels.len() - 1
    }

    /// Level `i` (0 = bottom/finest).
    pub fn level(&self, i: usize) -> &NetLevel {
        &self.levels[i]
    }

    /// All levels, bottom-up.
    pub fn levels(&self) -> &[NetLevel] {
        &self.levels
    }

    /// Radius of the bottom level; lies in `[d_min / 2, d_min)`, so it is a
    /// valid `d̂_min` in the sense of the Section 2.4 remark.
    pub fn bottom_radius(&self) -> f64 {
        self.levels[0].radius
    }

    /// Radius of the top level; lies in `[diam, 2 diam]`, a valid `d̂_max`.
    pub fn top_radius(&self) -> f64 {
        self.levels[self.levels.len() - 1].radius
    }

    /// Estimated `log2` of the aspect ratio (within a constant of the true
    /// `log Δ`): the number of radius halvings between top and bottom.
    pub fn log_aspect(&self) -> usize {
        self.h()
    }

    /// Validates every level as an exact net (quadratic per level — tests
    /// only), plus nesting, the bottom-is-everything property and the
    /// position invariant.
    pub fn validate<P, M: Metric<P>>(&self, data: &Dataset<P, M>) -> Result<(), String> {
        let n = data.len();
        let all_ids: Vec<u32> = (0..n as u32).collect();
        if self.levels[0].len() != n {
            return Err("bottom level must contain every point".into());
        }
        if self.levels[self.levels.len() - 1].len() != 1 {
            return Err("top level must contain exactly one center".into());
        }
        for (i, lvl) in self.levels.iter().enumerate() {
            crate::greedy::validate_net(data, &all_ids, &lvl.centers, lvl.radius)
                .map_err(|e| format!("level {i}: {e}"))?;
            // The recorded cover positions must themselves be valid.
            for p in 0..n {
                let pos = lvl.cover[p];
                if pos as usize >= lvl.len() {
                    return Err(format!("level {i}: cover position out of range"));
                }
                let c = lvl.centers[pos as usize];
                let d = data.dist(p, c as usize);
                if d > lvl.radius * (1.0 + 1e-12) {
                    return Err(format!(
                        "level {i}: recorded cover of point {p} at distance {d} > {r}",
                        r = lvl.radius
                    ));
                }
            }
            // pos_of consistency.
            for (pos, &c) in lvl.centers.iter().enumerate() {
                if lvl.pos_of[c as usize] != pos as u32 {
                    return Err(format!("level {i}: pos_of inconsistent for center {c}"));
                }
            }
            if i + 1 < self.levels.len() {
                let up = &self.levels[i + 1];
                // Nesting + position invariant.
                if lvl.len() < up.len() {
                    return Err(format!("level {i}: fewer centers than level {}", i + 1));
                }
                for pos in 0..up.len() {
                    if lvl.centers[pos] != up.centers[pos] {
                        return Err(format!(
                            "position invariant violated between levels {i} and {}",
                            i + 1
                        ));
                    }
                }
                // Parent must cover the child at the level above.
                for (pos, &c) in lvl.centers.iter().enumerate() {
                    let pp = lvl.parent_pos[pos] as usize;
                    if pp >= up.len() {
                        return Err(format!("level {i}: parent position out of range"));
                    }
                    let parent = up.centers[pp];
                    let d = data.dist(c as usize, parent as usize);
                    if d > up.radius * (1.0 + 1e-12) {
                        return Err(format!(
                            "level {i}: parent of center {c} at distance {d} > {r}",
                            r = up.radius
                        ));
                    }
                }
                if (up.radius / lvl.radius - 2.0).abs() > 1e-9 {
                    return Err(format!("radius ladder broken at level {i}"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pg_metric::Euclidean;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn random_dataset(n: usize, d: usize, seed: u64) -> Dataset<Vec<f64>, Euclidean> {
        let mut rng = StdRng::seed_from_u64(seed);
        Dataset::new(
            (0..n)
                .map(|_| (0..d).map(|_| rng.random_range(0.0..100.0)).collect())
                .collect(),
            Euclidean,
        )
    }

    #[test]
    fn hierarchy_is_valid_on_random_2d() {
        let ds = random_dataset(250, 2, 42);
        let h = NetHierarchy::build(&ds);
        h.validate(&ds).unwrap();
    }

    #[test]
    fn hierarchy_is_valid_on_random_3d() {
        let ds = random_dataset(150, 3, 43);
        let h = NetHierarchy::build(&ds);
        h.validate(&ds).unwrap();
    }

    #[test]
    fn bottom_radius_brackets_dmin() {
        let ds = random_dataset(120, 2, 44);
        let h = NetHierarchy::build(&ds);
        let (dmin, dmax) = ds.min_max_interpoint();
        let rb = h.bottom_radius();
        assert!(
            rb >= dmin / 2.0 - 1e-12 && rb < dmin,
            "bottom radius {rb} outside [{}, {})",
            dmin / 2.0,
            dmin
        );
        let rt = h.top_radius();
        assert!(rt >= dmax - 1e-9 && rt <= 2.0 * dmax + 1e-9);
    }

    #[test]
    fn level_count_tracks_log_aspect() {
        let ds = random_dataset(100, 2, 45);
        let h = NetHierarchy::build(&ds);
        let delta = ds.aspect_ratio_exact();
        let expect = delta.log2();
        let got = h.h() as f64;
        assert!(
            (got - expect).abs() <= 3.0,
            "levels {got} vs log2(aspect) {expect}"
        );
    }

    #[test]
    fn two_point_dataset() {
        let ds = Dataset::new(vec![vec![0.0], vec![5.0]], Euclidean);
        let h = NetHierarchy::build(&ds);
        h.validate(&ds).unwrap();
        assert_eq!(h.level(0).len(), 2);
    }

    #[test]
    fn huge_aspect_ratio_line() {
        // Exponentially spread points: log aspect ~ 30.
        let pts: Vec<Vec<f64>> = (0..30).map(|i| vec![(2.0f64).powi(i)]).collect();
        let ds = Dataset::new(pts, Euclidean);
        let h = NetHierarchy::build(&ds);
        h.validate(&ds).unwrap();
        assert!(h.num_levels() >= 25);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicates_are_rejected() {
        let ds = Dataset::new(vec![vec![0.0], vec![0.0], vec![1.0]], Euclidean);
        let _ = NetHierarchy::build(&ds);
    }

    #[test]
    fn cover_center_helper() {
        let ds = random_dataset(60, 2, 46);
        let h = NetHierarchy::build(&ds);
        for lvl_idx in 0..h.num_levels() {
            let lvl = h.level(lvl_idx);
            for p in 0..60u32 {
                let c = lvl.centers[lvl.cover[p as usize] as usize];
                assert!(ds.dist(p as usize, c as usize) <= lvl.radius * (1.0 + 1e-12));
            }
        }
    }

    /// `(levels, FNV-1a over every level's centers, cover and parent_pos)`.
    fn fingerprint(h: &NetHierarchy) -> (usize, u64) {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for lvl in h.levels() {
            let words = lvl.centers.iter().chain(&lvl.cover).chain(&lvl.parent_pos);
            for b in words.flat_map(|w| w.to_le_bytes()) {
                hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        (h.num_levels(), hash)
    }

    /// Recorded with the fully sequential builder, so the parallel friends
    /// map is pinned to that ladder position for position — at every thread
    /// count, since each list depends only on the level above.
    #[test]
    fn hierarchy_is_identical_to_the_recorded_builds_at_any_thread_count() {
        const PINS: [(usize, u64); 2] = [(11, 17165890937852418709), (8, 16089218590529004846)];
        for ((n, d, seed), want) in [(400, 2, 21), (300, 3, 22)].into_iter().zip(PINS) {
            let ds = random_dataset(n, d, seed);
            for threads in [1, 2, 4, 7] {
                let h = rayon::with_threads(threads, || NetHierarchy::build(&ds));
                assert_eq!(fingerprint(&h), want, "d = {d}, {threads} threads");
            }
        }
    }

    #[test]
    fn deterministic_construction() {
        let ds = random_dataset(100, 2, 47);
        let h1 = NetHierarchy::build(&ds);
        let h2 = NetHierarchy::build(&ds);
        assert_eq!(h1.num_levels(), h2.num_levels());
        for i in 0..h1.num_levels() {
            assert_eq!(h1.level(i).centers, h2.level(i).centers);
        }
    }
}
