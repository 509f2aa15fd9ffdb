//! The per-center lists of the net ladder (friends, relatives), stored flat:
//! one `(offsets, items)` pair per block of consecutive positions, not one
//! heap `Vec` per center per level.

use pg_metric::{Dataset, Metric};

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
                    if data.dist(y, centers[f as usize] as usize) <= reach {
                        items.push(f);
                    }
                    for &np in list(&fresh, f as usize) {
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
