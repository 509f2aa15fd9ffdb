//! Shared by the integration suites that need a `G_net` as a build from
//! before band ladders carried a resolution left it.

use proximity_graphs::core::{BandLadder, Graph};

/// The banded `graph` with its ladder re-cut at one band per octave — what
/// format version 3 holds for the same index: the same edges, the sub-bands
/// of each octave merged into one band, ids ascending inside it.
pub fn at_octave_bands(graph: &Graph) -> Graph {
    let fine = graph.band_ladder().expect("a banded graph");
    let mut targets = graph.csr_targets().to_vec();
    let mut coarse = BandLadder {
        resolution: 0,
        offsets: vec![0],
        ..BandLadder::default()
    };
    for (ladder, row) in fine.offsets.windows(2).zip(graph.csr_offsets().windows(2)) {
        let row = &mut targets[row[0]..row[1]];
        let mut start = 0;
        for i in ladder[0]..ladder[1] {
            let octave = fine.exps[i] >> fine.resolution;
            if i + 1 == ladder[1] || fine.exps[i + 1] >> fine.resolution != octave {
                let end = fine.ends[i] as usize;
                row[start..end].sort_unstable();
                coarse.exps.push(octave);
                coarse.ends.push(end as u32);
                start = end;
            }
        }
        coarse.offsets.push(coarse.exps.len());
    }
    Graph::try_from_banded_csr(graph.csr_offsets().to_vec(), targets, coarse)
        .expect("merging sub-bands keeps the ladder valid")
}
