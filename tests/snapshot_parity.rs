//! Snapshot parity: a saved-then-loaded `QueryEngine` must be
//! **observationally identical** to the engine it was saved from — same
//! graph, same coordinates bit for bit, and identical `batch_greedy` /
//! `batch_query` / `batch_beam_detailed` answers (results, hops,
//! `dist_comps`) at every thread count. Persistence, like parallelism and the flat layout
//! (`tests/flat_parity.rs`), is allowed to change the wall clock only.

mod common;

use common::at_octave_bands;
use proptest::prelude::*;
use proximity_graphs::baselines::{Hnsw, HnswParams};
use proximity_graphs::core::{GNet, QueryEngine};
use proximity_graphs::metric::{Euclidean, FlatRow};
use proximity_graphs::store::{BandSection, IndexMeta, MetricTag, Snapshot, SnapshotError};
use proximity_graphs::workloads;

fn thread_counts() -> [usize; 3] {
    let machine = std::thread::available_parallelism().map_or(1, |c| c.get());
    [1, 2, machine]
}

fn temp_path(n: usize, d: usize, seed: u64) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "pg_snap_parity_{}_{n}_{d}_{seed}.pgix",
        std::process::id()
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn saved_then_loaded_engine_answers_bit_identically(
        n in 8usize..90,
        d in 1usize..5,
        m in 1usize..10,
        seed in 0u64..1_000_000,
        budget in 1u64..200,
        ef in 1usize..8,
        k in 1usize..6,
    ) {
        let side = 40.0;
        let data = workloads::uniform_cube_flat(n, d, side, seed).into_dataset(Euclidean);
        let g = GNet::build_fast(&data, 1.0);
        let params = g.params;
        let built = QueryEngine::new(g.graph, data);
        // The same index as format version 3 holds it: one band per octave.
        let octaves = QueryEngine::new(at_octave_bands(built.graph()), built.data().clone());
        prop_assert_eq!(octaves.graph().without_bands(), built.graph().without_bands());

        let queries = workloads::uniform_queries_flat(m, d, -5.0, side + 5.0, seed ^ 0x5A5A)
            .into_rows();
        let starts: Vec<u32> = (0..m).map(|i| ((i * 37 + seed as usize) % n) as u32).collect();
        // The finer ladder only ever saves distances.
        let (fine, coarse) = (
            built.batch_beam_detailed(&starts, &queries, ef, k),
            octaves.batch_beam_detailed(&starts, &queries, ef, k),
        );
        prop_assert!(fine.dist_comps <= coarse.dist_comps);

        for (engine, version) in [(built, 4u32), (octaves, 3)] {
        // A `G_net` engine is banded, and stays so across the disk — format
        // version 4 as built, version 3 at one band per octave — whether or
        // not build params ride along. A loaded ladder is never re-cut: it
        // re-saves byte for byte.
        let path = temp_path(n, d, seed);
        engine.save_with(&path, 0, None).unwrap();
        let bare = QueryEngine::<FlatRow, Euclidean>::load(&path).unwrap();
        engine.save_with(&path, 0, Some(params.into())).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        prop_assert_eq!(&bytes[8..12], &version.to_le_bytes()[..]);
        let (loaded, meta) = QueryEngine::<FlatRow, Euclidean>::load_with_meta(&path).unwrap();
        loaded.save_with(&path, 0, meta.build).unwrap();
        prop_assert!(std::fs::read(&path).unwrap() == bytes, "version {} re-save", version);
        std::fs::remove_file(&path).unwrap();
        prop_assert!(engine.graph().is_banded() && loaded.graph().is_banded());
        prop_assert_eq!(bare.graph(), engine.graph());

        // The stored artifacts round-trip exactly.
        prop_assert_eq!(loaded.graph(), engine.graph());
        prop_assert_eq!(loaded.data().len(), engine.data().len());
        for i in 0..engine.data().len() {
            prop_assert_eq!(
                loaded.data().point(i).coords(),
                engine.data().point(i).coords()
            );
        }
        prop_assert_eq!(meta.metric, MetricTag::Euclidean);
        prop_assert_eq!(meta.n, n as u64);
        prop_assert_eq!(meta.dims, d as u32);
        prop_assert_eq!(meta.build.unwrap().epsilon, params.epsilon);

        // ...and so does every observable of the serving API, for thread
        // counts 1 / 2 / machine.
        for threads in thread_counts() {
            let a = engine.clone().with_threads(threads);
            let b = loaded.clone().with_threads(threads);

            let ba = a.batch_greedy(&starts, &queries);
            let bb = b.batch_greedy(&starts, &queries);
            prop_assert_eq!(ba.dist_comps, bb.dist_comps, "greedy at {} threads", threads);
            for (x, y) in ba.outcomes.iter().zip(bb.outcomes.iter()) {
                prop_assert_eq!(x.result, y.result);
                prop_assert_eq!(x.result_dist, y.result_dist);
                prop_assert_eq!(&x.hops, &y.hops);
                prop_assert_eq!(x.dist_comps, y.dist_comps);
                prop_assert_eq!(x.self_terminated, y.self_terminated);
            }

            let ba = a.batch_query(&starts, &queries, budget);
            let bb = b.batch_query(&starts, &queries, budget);
            prop_assert_eq!(ba.dist_comps, bb.dist_comps, "budgeted at {} threads", threads);
            for (x, y) in ba.outcomes.iter().zip(bb.outcomes.iter()) {
                prop_assert_eq!(x.result, y.result);
                prop_assert_eq!(x.result_dist, y.result_dist);
                prop_assert_eq!(&x.hops, &y.hops);
                prop_assert_eq!(x.dist_comps, y.dist_comps);
                prop_assert_eq!(x.self_terminated, y.self_terminated);
            }

            let ba = a.batch_beam_detailed(&starts, &queries, ef, k);
            let bb = b.batch_beam_detailed(&starts, &queries, ef, k);
            prop_assert_eq!(&ba.outcomes, &bb.outcomes, "beam at {} threads", threads);
            prop_assert_eq!(ba.dist_comps, bb.dist_comps);
        }
        }
    }
}

/// The `gnet2d`-shaped banded sample of the damage tests below, with its
/// snapshot.
fn banded_sample() -> (QueryEngine<FlatRow, Euclidean>, Snapshot) {
    let data = workloads::uniform_cube_flat(70, 2, 40.0, 77).into_dataset(Euclidean);
    let graph = GNet::build_fast(&data, 1.0).graph;
    let engine = QueryEngine::new(graph, data);
    let snap = engine.to_snapshot(0, None).unwrap();
    (engine, snap)
}

#[test]
fn an_unbanded_index_still_writes_version_1_and_2_and_reloads_unbanded() {
    // The same edges with the bands stripped, and an HNSW ground layer: no
    // ladder, so the file is the version 1 / 2 layout of before bands
    // existed and the loaded graph walks whole rows.
    let (engine, banded_snap) = banded_sample();
    let (graph, data) = (engine.graph(), engine.data());
    let hnsw = Hnsw::build(data, HnswParams::default()).ground_layer();
    for plain in [graph.without_bands(), hnsw] {
        let plain = QueryEngine::new(plain, data.clone());
        let snap = plain.to_snapshot(0, None).unwrap();
        assert!(snap.bands.is_none());
        let bytes = snap.to_bytes().unwrap();
        assert_eq!(
            bytes[8..16],
            [1, 0, 0, 0, 3, 0, 0, 0],
            "version 1, 3 sections"
        );
        let (loaded, _) = QueryEngine::<FlatRow, Euclidean>::from_snapshot(snap).unwrap();
        assert!(!loaded.graph().is_banded());
        assert_eq!(loaded.graph(), plain.graph());

        let compact = plain
            .quantize(proximity_graphs::metric::QuantKind::Sq8)
            .unwrap();
        let quant = plain.to_snapshot_quantized(0, None, &compact).unwrap();
        assert_eq!(quant.to_bytes().unwrap()[8..16], [2, 0, 0, 0, 4, 0, 0, 0]);
    }
    // The banded one differs from its stripped twin by row order and the
    // appended section only: version 4 as built, version 3 at one band per
    // octave.
    assert!(banded_snap.bands.is_some());
    assert_eq!(
        banded_snap.to_bytes().unwrap()[8..16],
        [4, 0, 0, 0, 4, 0, 0, 0]
    );
    let octaves = QueryEngine::new(at_octave_bands(graph), data.clone());
    assert_eq!(
        octaves.to_snapshot(0, None).unwrap().to_bytes().unwrap()[8..16],
        [3, 0, 0, 0, 4, 0, 0, 0]
    );
}

#[test]
fn a_banded_quantized_snapshot_round_trips_as_version_3_or_4_with_five_sections() {
    let (built, _) = banded_sample();
    let octaves = QueryEngine::new(at_octave_bands(built.graph()), built.data().clone());
    for (engine, version) in [(built, 4), (octaves, 3)] {
        for kind in [
            proximity_graphs::metric::QuantKind::F32,
            proximity_graphs::metric::QuantKind::Sq8,
        ] {
            let compact = engine.quantize(kind).unwrap();
            let snap = engine.to_snapshot_quantized(3, None, &compact).unwrap();
            let bytes = snap.to_bytes().unwrap();
            assert_eq!(bytes[8..16], [version, 0, 0, 0, 5, 0, 0, 0]);
            let back = Snapshot::from_bytes(&bytes).unwrap();
            let (loaded, loaded_compact, meta) =
                QueryEngine::<FlatRow, Euclidean>::from_snapshot_quantized(back).unwrap();
            assert_eq!(loaded.graph(), engine.graph());
            assert_eq!(loaded_compact, compact);
            assert_eq!(meta.entry_point, 3);
        }
    }
}

#[test]
fn a_bad_band_ladder_is_a_typed_invalid_never_a_panic() {
    let (engine, snap) = banded_sample();
    let load = |snap: Snapshot| QueryEngine::<FlatRow, Euclidean>::from_snapshot(snap);
    assert_eq!(load(snap.clone()).unwrap().0.graph(), engine.graph());
    let invalid = |snap: Snapshot, why: &str| match load(snap) {
        Err(SnapshotError::Invalid { reason }) => {
            assert!(reason.contains(why), "{reason:?} should mention {why:?}")
        }
        other => panic!("{why}: got {:?}", other.map(|(e, _)| e.graph().n())),
    };
    // Row 0 has several bands on this sample, one of them of several
    // targets.
    let ladder0 = snap.bands.as_ref().unwrap().offsets[1] as usize;
    let ends0 = &snap.bands.as_ref().unwrap().ends[..ladder0];
    let wide = (1..ladder0).find(|&b| ends0[b] - ends0[b - 1] >= 2);
    let wide_start = ends0[wide.expect("a band of two targets") - 1] as usize;
    assert!(ladder0 >= 3);

    // Not monotone: the second band ends where the first did.
    let mut bad = snap.clone();
    bad.bands.as_mut().unwrap().ends[1] = ends0[0];
    invalid(bad, "strictly increasing");
    // Not ending at the row's degree.
    let mut bad = snap.clone();
    bad.bands.as_mut().unwrap().ends[ladder0 - 1] -= 1;
    invalid(bad, "degree");
    // Bands out of order.
    let mut bad = snap.clone();
    bad.bands.as_mut().unwrap().exps.swap(0, 1);
    invalid(bad, "ascending band keys");
    // A key past the resolution's largest, and a resolution past the
    // largest: typed, from the store's validator and from the graph's.
    let mut bad = snap.clone();
    let last = bad.bands.as_ref().unwrap().exps.len() - 1;
    bad.bands.as_mut().unwrap().exps[last] = (0x7ff << 2) + 1;
    invalid(bad, "ascending band keys");
    let mut bad = snap.clone();
    bad.bands.as_mut().unwrap().resolution = 4;
    invalid(bad.clone(), "band resolution 4");
    assert!(matches!(
        bad.to_bytes(),
        Err(SnapshotError::Invalid { reason }) if reason.contains("band resolution 4")
    ));
    // Ids not ascending inside a band: its first two targets swapped.
    let mut bad = snap.clone();
    bad.targets.swap(wide_start, wide_start + 1);
    invalid(bad, "not strictly ascending");
    // A duplicate across bands, each band ascending on its own: three
    // points on a line, vertex 0 listing vertex 1 under two lengths.
    let twice = Snapshot {
        meta: IndexMeta {
            metric: MetricTag::Euclidean,
            dims: 1,
            n: 3,
            entry_point: 0,
            build: None,
        },
        offsets: vec![0, 2, 2, 2],
        targets: vec![1, 1],
        coords: vec![0.0, 1.0, 5.0],
        quant: None,
        bands: Some(BandSection {
            resolution: 0,
            offsets: vec![0, 2, 2, 2],
            exps: vec![1023, 1025],
            ends: vec![1, 2],
        }),
    };
    invalid(twice.clone(), "two bands");
    let mut fixed = twice;
    fixed.targets[1] = 2;
    assert!(load(fixed).unwrap().0.graph().has_edge(0, 2));
}
