//! Snapshot parity: a saved-then-loaded `QueryEngine` must be
//! **observationally identical** to the engine it was saved from — same
//! graph, same coordinates bit for bit, and identical `batch_greedy` /
//! `batch_query` / `batch_beam_detailed` answers (results, hops,
//! `dist_comps`) at every thread count. Persistence, like parallelism and the flat layout
//! (`tests/flat_parity.rs`), is allowed to change the wall clock only.

mod common;

use std::sync::Arc;

use common::at_octave_bands;
use proptest::prelude::*;
use proximity_graphs::baselines::{Hnsw, HnswParams};
use proximity_graphs::core::{AnyEngine, GNet, QueryEngine};
use proximity_graphs::metric::{CompactPoints, Euclidean, FlatRow, QuantKind};
use proximity_graphs::serve::{Client, IndexRegistry, ServeError, Server};
use proximity_graphs::store::{
    BandSection, BuildParams, IndexMeta, MetricTag, QuantSection, Snapshot, SnapshotError,
};
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
        let (bare, _) = QueryEngine::<FlatRow, Euclidean>::load(&path).unwrap();
        engine.save_with(&path, 0, Some(params.into())).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        prop_assert_eq!(&bytes[8..12], &version.to_le_bytes()[..]);
        let (loaded, meta) = QueryEngine::<FlatRow, Euclidean>::load(&path).unwrap();
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
        let compact = plain.quantize(QuantKind::Sq8).unwrap();
        let quant = with_compact_section(snap.clone(), &compact);
        assert_eq!(quant.to_bytes().unwrap()[8..16], [2, 0, 0, 0, 4, 0, 0, 0]);
        for snap in [snap, quant] {
            let (loaded, _) = QueryEngine::<FlatRow, Euclidean>::from_snapshot(snap).unwrap();
            assert!(!loaded.graph().is_banded());
            assert_eq!(loaded.graph(), plain.graph());
        }
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

/// `snap` with a compact-points section: the snapshot a typed writer
/// produced while it still stored the compact store beside the points (a
/// format version 2 file, or a five-section version 3/4 one).
fn with_compact_section(mut snap: Snapshot, compact: &CompactPoints) -> Snapshot {
    snap.quant = Some(match compact {
        CompactPoints::F32(p) => QuantSection::F32 {
            data: p.data().to_vec(),
        },
        CompactPoints::Sq8(p) => QuantSection::Sq8 {
            mins: p.mins().to_vec(),
            steps: p.steps().to_vec(),
            codes: p.codes().to_vec(),
        },
    });
    snap
}

#[test]
fn a_banded_quantized_snapshot_round_trips_as_version_3_or_4_with_five_sections() {
    let (built, _) = banded_sample();
    let octaves = QueryEngine::new(at_octave_bands(built.graph()), built.data().clone());
    for (engine, version) in [(built, 4), (octaves, 3)] {
        for kind in [QuantKind::F32, QuantKind::Sq8] {
            let compact = engine.quantize(kind).unwrap();
            let snap = with_compact_section(engine.to_snapshot(3, None).unwrap(), &compact);
            let bytes = snap.to_bytes().unwrap();
            assert_eq!(bytes[8..16], [version, 0, 0, 0, 5, 0, 0, 0]);
            let back = Snapshot::from_bytes(&bytes).unwrap();
            let (loaded, meta) = QueryEngine::<FlatRow, Euclidean>::from_snapshot(back).unwrap();
            assert_eq!(loaded.graph(), engine.graph());
            assert_eq!(loaded.quantize(kind).unwrap(), compact);
            assert_eq!(meta.entry_point, 3);
        }
    }
}

/// A file that stores a compact-points section — what typed saves of
/// quantized engines wrote before the store became derived — still loads
/// through every reader: the typed loader, the run-time-typed one and the
/// server's registry. The section is checked against the store the points
/// derive, and a checksum-valid file whose section differs in one bit is a
/// typed `Invalid`, never a panic.
#[test]
fn a_stored_compact_section_loads_everywhere_and_is_checked_against_the_derived_store() {
    const ENTRY: u32 = 3;
    const EF: usize = 8;
    const K: usize = 3;
    let (built, _) = banded_sample();
    let build = Some(BuildParams {
        epsilon: 1.0,
        eta: 2,
        phi: 9.0,
    });
    let unbanded = QueryEngine::new(built.graph().without_bands(), built.data().clone());
    let octaves = QueryEngine::new(at_octave_bands(built.graph()), built.data().clone());
    let queries = workloads::uniform_queries_flat(6, 2, -5.0, 45.0, 78).into_rows();
    let starts = vec![ENTRY; queries.len()];

    let registry = Arc::new(IndexRegistry::new());
    let server = Server::bind("127.0.0.1:0", Arc::clone(&registry), Default::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    for (engine, version, sections) in [(unbanded, 2, 4), (octaves, 3, 5), (built, 4, 5)] {
        for kind in [QuantKind::F32, QuantKind::Sq8] {
            let name = format!("v{version}_{}", kind.name());
            let path = dir.join(format!("pg_snap_stored_{pid}_{name}.pgix"));
            let copy = dir.join(format!("pg_snap_stored_{pid}_{name}_copy.pgix"));
            let compact = engine.quantize(kind).unwrap();
            let plain = engine.to_snapshot(ENTRY, build).unwrap();
            let snap = with_compact_section(plain.clone(), &compact);
            snap.save(&path).unwrap();
            let bytes = std::fs::read(&path).unwrap();
            assert_eq!(
                bytes[8..16],
                [version, 0, 0, 0, sections, 0, 0, 0],
                "{name}"
            );

            // The byte layer re-saves it untouched.
            Snapshot::load(&path).unwrap().save(&copy).unwrap();
            assert!(
                std::fs::read(&copy).unwrap() == bytes,
                "{name}: raw re-save"
            );

            // The typed loader: same engine, the stored store is the derived
            // one, and quantized search answers like the engine that saved.
            let (loaded, meta) = QueryEngine::<FlatRow, Euclidean>::load(&path).unwrap();
            assert_eq!(loaded.graph(), engine.graph(), "{name}");
            assert_eq!(meta.entry_point, ENTRY);
            let derived = loaded.quantize(kind).unwrap();
            assert_eq!(derived, compact, "{name}: derived store");
            let before = engine.batch_beam_quantized_detailed(&compact, &starts, &queries, EF, K);
            let after = loaded.batch_beam_quantized_detailed(&derived, &starts, &queries, EF, K);
            assert_eq!(after.outcomes, before.outcomes, "{name}");
            assert_eq!(after.dist_comps, before.dist_comps, "{name}");

            // A typed re-save drops the section: the body is the leading
            // sections of the file.
            loaded
                .save_with(&copy, meta.entry_point, meta.build)
                .unwrap();
            let resaved = std::fs::read(&copy).unwrap();
            assert!(
                resaved == plain.to_bytes().unwrap(),
                "{name}: typed re-save"
            );
            if version == 2 {
                assert!(
                    bytes[16..].starts_with(&resaved[16..]),
                    "{name}: leading sections"
                );
            }

            // The run-time-typed loader and the server answer like the
            // engine that saved.
            let direct = engine.batch_beam_detailed(&starts, &queries, EF, K);
            let (any, _) = AnyEngine::load(&path).unwrap();
            let through = any.batch_beam_detailed(&starts, &queries, EF, K);
            assert_eq!(through.outcomes, direct.outcomes, "{name}: AnyEngine");
            registry.register_from_path(name.as_str(), &path).unwrap();
            let reply = client
                .query(&name, queries[0].coords(), EF as u32, K as u32)
                .unwrap();
            let expected = &direct.outcomes[0];
            let bits = |r: &[(u32, f64)]| -> Vec<(u32, u64)> {
                r.iter().map(|&(id, d)| (id, d.to_bits())).collect()
            };
            assert_eq!(
                bits(&reply.results),
                bits(&expected.results),
                "{name}: served"
            );
            assert_eq!(reply.dist_comps, expected.dist_comps, "{name}: served");
            assert_eq!(reply.expansions, expected.expansions, "{name}: served");

            // One code or one f32 bit off, checksums recomputed: refused.
            let mut bad = snap.clone();
            match bad.quant.as_mut().unwrap() {
                QuantSection::F32 { data } => data[5] = f32::from_bits(data[5].to_bits() ^ 1),
                QuantSection::Sq8 { codes, .. } => codes[5] ^= 1,
            }
            bad.save(&copy).unwrap();
            let invalid = |err: &SnapshotError| matches!(err, SnapshotError::Invalid { .. });
            let err = QueryEngine::<FlatRow, Euclidean>::load(&copy).unwrap_err();
            assert!(invalid(&err), "{name}: got {err:?}");
            let err = AnyEngine::load(&copy).unwrap_err();
            assert!(invalid(&err), "{name}: got {err:?}");
            match registry.register_from_path(format!("{name}_bad"), &copy) {
                Err(ServeError::Snapshot(err)) => assert!(invalid(&err), "{name}: got {err:?}"),
                other => panic!("{name}: got {other:?}"),
            }
            std::fs::remove_file(&path).unwrap();
            std::fs::remove_file(&copy).unwrap();
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
