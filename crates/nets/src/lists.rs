//! The per-center lists of the net ladder (friends, relatives), stored flat:
//! one `(offsets, items)` pair per block of consecutive positions, not one
//! heap `Vec` per center per level — and refined level to level with a
//! distance spent only where the triangle inequality cannot decide: a
//! listed center's distance puts all of its freshly promoted children
//! inside the reach, all outside it, or in the shell between, and only the
//! shell is tested ([`BlockLists::refine`]).

use pg_metric::{Dataset, Metric, ANNULUS_SLACK};

use crate::hierarchy::NetLevel;

/// Positions per block, the unit of work of [`BlockLists::refine`]. A
/// constant, so the buffers a build allocates are the same on any machine.
const BLOCK: usize = 1024;

/// Lists `0..offsets.len() - 1` as one CSR: `(offsets, items)`.
type Flat = (Vec<u32>, Vec<u32>);

fn list((offsets, items): &Flat, i: usize) -> &[u32] {
    &items[offsets[i] as usize..offsets[i + 1] as usize]
}

/// One list of center positions per center position of a level, in blocks
/// of [`BLOCK`] consecutive positions.
#[derive(Debug)]
pub(crate) struct BlockLists(Vec<Flat>);

impl BlockLists {
    /// The lists of the top level: its single center lists itself.
    pub(crate) fn top() -> Self {
        BlockLists(vec![(vec![0, 1], vec![0])])
    }

    /// The list of the center at `pos`.
    pub(crate) fn get(&self, pos: usize) -> &[u32] {
        list(&self.0[pos / BLOCK], pos % BLOCK)
    }

    /// The lists one level down: for each center `y` of `below` (whose first
    /// `above_len` positions are the level above, by the position
    /// invariant), every center within `factor * below.radius` of `y` among
    /// those `self` lists for `y`'s parent and their freshly promoted
    /// children. Completeness: `RelativesCascade::descend`.
    ///
    /// A fresh child lies within `2r` (`r = below.radius`; the radius of the
    /// level above) of its parent `f`, so `|D(y, child) - D(y, f)| <= 2r` and
    /// the parent's distance `d` — computed anyway — decides most children:
    /// `d > (factor + 2) r` puts every child of `f` beyond the reach and they
    /// are skipped unread, `d <= (factor - 2) r` puts every one within it and
    /// they are appended without a distance; only the shell between is
    /// tested. Both cuts keep [`ANNULUS_SLACK`], so the lists are the
    /// unpruned ones entry for entry, in order.
    ///
    /// One pool task per block, reading only the level above: a level of at
    /// most [`BLOCK`] centers runs inline, and the order-preserving map
    /// returns what the sequential loop would at any thread count.
    pub(crate) fn refine<P: Sync, M: Metric<P> + Sync>(
        &self,
        data: &Dataset<P, M>,
        below: &NetLevel,
        above_len: usize,
        factor: f64,
    ) -> Self {
        let (centers, parent_pos) = (&below.centers, &below.parent_pos);
        let reach = factor * below.radius;
        let spread = 2.0 * below.radius;
        let all_out = (reach + spread) * (1.0 + ANNULUS_SLACK);
        let all_in = (reach - spread) * (1.0 - ANNULUS_SLACK);
        // Counting sort of the fresh centers by parent, in position order.
        let mut offsets = vec![0u32; above_len + 1];
        for &parent in &parent_pos[above_len..] {
            offsets[parent as usize + 1] += 1;
        }
        for i in 0..above_len {
            offsets[i + 1] += offsets[i];
        }
        let mut next = offsets.clone();
        let mut items = vec![0u32; centers.len() - above_len];
        for pos in above_len..centers.len() {
            let slot = &mut next[parent_pos[pos] as usize];
            items[*slot as usize] = pos as u32;
            *slot += 1;
        }
        let fresh = (offsets, items);

        BlockLists(rayon::par_map_range(centers.len().div_ceil(BLOCK), |b| {
            let mut offsets = vec![0u32];
            let mut items = Vec::new();
            for pos in b * BLOCK..centers.len().min((b + 1) * BLOCK) {
                let y = centers[pos] as usize;
                for &f in self.get(parent_pos[pos] as usize) {
                    // Carried-over center: same position at both levels.
                    let d = data.dist(y, centers[f as usize] as usize);
                    if d <= reach {
                        items.push(f);
                    }
                    if d > all_out {
                        continue;
                    }
                    let children = list(&fresh, f as usize);
                    if d <= all_in {
                        items.extend_from_slice(children);
                        continue;
                    }
                    for &np in children {
                        if data.dist(y, centers[np as usize] as usize) <= reach {
                            items.push(np);
                        }
                    }
                }
                offsets.push(items.len() as u32);
            }
            (offsets, items)
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pg_metric::{Counting, Euclidean};

    #[test]
    fn a_parent_exactly_at_either_pruning_bound_leaves_the_lists_brute_force() {
        // A collinear level of radius r = 1 under factor 4: reach 4, and a
        // parent's distance decides its children outside [2, 6]. The level
        // above holds y = 0 and parents at 2 and 6 exactly, one ulp either
        // side of both, and well inside each regime; every parent has fresh
        // children up to 2r = 2 away on both sides, so a child of the
        // parent at 2 sits exactly at the reach and a child of the parent
        // at 6 exactly on it from beyond.
        let ulp = |x: f64, up: bool| f64::from_bits(x.to_bits() + 1 - 2 * u64::from(!up));
        let parents = [
            0.0,
            ulp(2.0, false),
            2.0,
            ulp(2.0, true),
            ulp(6.0, false),
            6.0,
            ulp(6.0, true),
            1.0,
            3.5,
            9.0,
        ];
        let mut xs = parents.to_vec();
        let mut parent_pos: Vec<u32> = (0..parents.len() as u32).collect();
        for (f, &x) in parents.iter().enumerate() {
            for offset in [-2.0, -0.75, 1.5, 2.0] {
                let child: f64 = x + offset;
                if (child - x).abs() <= 2.0 {
                    xs.push(child);
                    parent_pos.push(f as u32);
                }
            }
        }
        assert!(xs.len() >= parents.len() + 3 * parents.len());
        let n = xs.len();
        let data = Dataset::new(
            xs.iter().map(|&x| vec![x]).collect(),
            Counting::new(Euclidean),
        );
        let below = NetLevel {
            radius: 1.0,
            centers: (0..n as u32).collect(),
            cover: Vec::new(),
            pos_of: Vec::new(),
            parent_pos,
        };
        // Every centre of the level above lists all of them.
        let all: Vec<u32> = (0..parents.len() as u32).collect();
        let offsets = (0..=parents.len()).map(|i| (i * parents.len()) as u32);
        let above = BlockLists(vec![(offsets.collect(), all.repeat(parents.len()))]);

        let got = above.refine(&data, &below, parents.len(), 4.0);
        let pruned_cost = data.metric().take();
        for (pos, &y) in xs.iter().enumerate() {
            let mut list = got.get(pos).to_vec();
            list.sort_unstable();
            let brute: Vec<u32> = (0..n as u32)
                .filter(|&z| (xs[z as usize] - y).abs() <= 4.0)
                .collect();
            assert_eq!(list, brute, "centre {pos} at {y}");
        }
        // Seen from y = 0: the children at exactly the reach are listed, the
        // ones an ulp beyond it are not.
        let listed = |z: usize| got.get(0).contains(&(z as u32));
        let at = |x: f64| (0..n).filter(|&z| xs[z] == x).collect::<Vec<_>>();
        assert!(at(4.0).len() >= 2, "a child of 2 and a child of 6");
        assert!(at(4.0).into_iter().all(listed));
        assert!(!at(ulp(4.0, true)).into_iter().any(listed));
        // All three regimes occurred: y lists the children of the parent at
        // 1 and none of the parent at 9, and took a distance to neither.
        let children_of = |x: f64| {
            let f = parents.iter().position(|&p| p == x).expect("a parent");
            (parents.len()..n)
                .filter(|&c| below.parent_pos[c] == f as u32)
                .collect::<Vec<_>>()
        };
        assert!(children_of(1.0).into_iter().all(listed));
        assert!(!children_of(9.0).into_iter().any(listed));
        // The count says exactly which children were tested: those of a
        // parent in the shell, slack included — an ulp inside 2 or outside
        // 6 is still the shell.
        let tested = |d: f64| d > 2.0 * (1.0 - ANNULUS_SLACK) && d <= 6.0 * (1.0 + ANNULUS_SLACK);
        let expect: usize = xs
            .iter()
            .map(|&y| {
                let shell = parents.iter().filter(|&&p| tested((p - y).abs()));
                parents.len() + shell.map(|&p| children_of(p).len()).sum::<usize>()
            })
            .sum();
        assert_eq!(pruned_cost, expect as u64);
        assert!(tested(ulp(2.0, false)) && tested(ulp(6.0, true)) && expect < n * n);
    }
}
