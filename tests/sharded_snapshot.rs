//! Sharded snapshot round-trip (PR 9 satellite): a saved-then-loaded
//! [`ShardedEngine`] answers bit-identically to the engine it was saved
//! from, and a damaged directory — a corrupt or missing shard file, a
//! corrupt or missing manifest, a shard/manifest size disagreement — fails
//! the **whole** load with a typed [`SnapshotError`]. `ShardedEngine::load`
//! returns `Result<Self, _>`, so there is no partially-loaded engine to
//! observe: every corruption case below gets an `Err` and nothing else.

mod common;

use proximity_graphs::core::{QueryEngine, ShardAssignment, ShardedEngine};
use proximity_graphs::metric::{Euclidean, FlatPoints, FlatRow};
use proximity_graphs::store::{shard_file_name, SnapshotError, SHARD_MANIFEST_FILE};

fn grid(n: usize) -> FlatPoints {
    FlatPoints::from_fn(n, 2, |i, out| {
        out.push((i % 11) as f64);
        out.push((i / 11) as f64);
    })
}

fn queries(m: usize) -> Vec<FlatRow> {
    (0..m)
        .map(|i| FlatRow::from(vec![(i % 9) as f64 + 0.25, (i % 4) as f64 + 0.5]))
        .collect()
}

fn build(n: usize, shards: usize) -> ShardedEngine<Euclidean> {
    ShardedEngine::build(
        &grid(n),
        Euclidean,
        1.0,
        shards,
        &ShardAssignment::SeededRandom { seed: 17 },
    )
}

fn temp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("pg_sharded_snap_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn saved_then_loaded_sharded_engine_answers_bit_identically() {
    let engine = build(90, 4);
    let dir = temp_dir("round_trip");
    engine.save(&dir).unwrap();
    let loaded = ShardedEngine::<Euclidean>::load(&dir).unwrap();
    // Every shard is a `G_net`: banded when built, format version 4 on
    // disk, banded again when loaded — the `dist_comps` below depend on it.
    for i in 0..engine.shard_count() {
        let bytes = std::fs::read(dir.join(shard_file_name(i))).unwrap();
        assert_eq!(bytes[8..12], 4u32.to_le_bytes(), "shard {i} format version");
        assert!(engine.shards()[i].graph().is_banded() && loaded.shards()[i].graph().is_banded());
    }

    // The same directory as a build from before ladders carried a
    // resolution left it — every shard file version 3, one band per octave
    // — loads, answers with the same results for no fewer distances, and
    // saves back byte for byte.
    let shard_files = |dir: &std::path::Path| -> Vec<Vec<u8>> {
        (0..engine.shard_count())
            .map(|i| std::fs::read(dir.join(shard_file_name(i))).unwrap())
            .collect()
    };
    for (i, shard) in engine.shards().iter().enumerate() {
        let octaves = common::at_octave_bands(shard.graph());
        QueryEngine::new(octaves, shard.data().clone())
            .save_with(dir.join(shard_file_name(i)), 0, engine.build_params())
            .unwrap();
    }
    let old_files = shard_files(&dir);
    let old = ShardedEngine::<Euclidean>::load(&dir).unwrap();
    let resaved = temp_dir("round_trip_v3");
    old.save(&resaved).unwrap();
    assert!(shard_files(&resaved) == old_files);
    assert!(old_files.iter().all(|f| f[8..12] == 3u32.to_le_bytes()));
    let qs = queries(8);
    for (ef, k) in [(90, 5), (12, 3), (1, 1)] {
        let (new, old) = (
            engine.batch_beam_detailed(&qs, ef, k),
            old.batch_beam_detailed(&qs, ef, k),
        );
        for (a, b) in new.outcomes.iter().zip(&old.outcomes) {
            assert_eq!((&a.results, a.expansions), (&b.results, b.expansions));
        }
        assert!(new.dist_comps <= old.dist_comps, "ef {ef}");
    }
    std::fs::remove_dir_all(&resaved).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();

    // The stored structure round-trips exactly…
    assert_eq!(loaded.len(), engine.len());
    assert_eq!(loaded.shard_count(), engine.shard_count());
    assert_eq!(loaded.global_ids(), engine.global_ids());
    assert_eq!(loaded.build_params(), engine.build_params());
    for (a, b) in loaded.shards().iter().zip(engine.shards()) {
        assert_eq!(a.graph(), b.graph());
        for i in 0..b.data().len() {
            assert_eq!(a.data().point(i).coords(), b.data().point(i).coords());
        }
    }

    // …and so does every observable answer, exact and inexact, at several
    // thread counts.
    let machine = std::thread::available_parallelism().map_or(1, |c| c.get());
    for threads in [1, 2, machine] {
        for (ef, k) in [(90, 5), (12, 3), (1, 1)] {
            let a = engine
                .clone()
                .with_threads(threads)
                .batch_beam_detailed(&qs, ef, k);
            let b = loaded
                .clone()
                .with_threads(threads)
                .batch_beam_detailed(&qs, ef, k);
            assert_eq!(a.outcomes, b.outcomes, "ef {ef} k {k} threads {threads}");
            assert_eq!(a.dist_comps, b.dist_comps);
        }
    }
}

#[test]
fn corrupting_any_single_shard_file_fails_the_whole_load() {
    let engine = build(60, 3);
    let dir = temp_dir("corrupt_shard");
    engine.save(&dir).unwrap();

    for i in 0..engine.shard_count() {
        let path = dir.join(shard_file_name(i));
        let pristine = std::fs::read(&path).unwrap();

        // Flip one payload byte: the shard's own checksum catches it.
        let mut bad = pristine.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0x01;
        std::fs::write(&path, &bad).unwrap();
        let err = ShardedEngine::<Euclidean>::load(&dir).unwrap_err();
        assert!(
            matches!(err, SnapshotError::ChecksumMismatch { .. }),
            "shard {i} byte flip: {err}"
        );

        // Truncate it: typed, never a panic.
        std::fs::write(&path, &pristine[..pristine.len() / 3]).unwrap();
        assert!(ShardedEngine::<Euclidean>::load(&dir).is_err());

        // Remove it entirely: the manifest promises it, so the load fails.
        std::fs::remove_file(&path).unwrap();
        let err = ShardedEngine::<Euclidean>::load(&dir).unwrap_err();
        assert!(
            matches!(err, SnapshotError::Io(_)),
            "shard {i} missing: {err}"
        );

        // Restore and confirm the directory loads again — proof the other
        // shards were untouched and the failure was this file alone.
        std::fs::write(&path, &pristine).unwrap();
        assert!(ShardedEngine::<Euclidean>::load(&dir).is_ok());
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn with_several_damaged_shards_the_lowest_numbered_one_is_reported() {
    // Shards load side by side, so "first to fail" must not depend on which
    // worker gets there first.
    let dir = temp_dir("two_damaged");
    build(60, 4).save(&dir).unwrap();
    std::fs::remove_file(dir.join(shard_file_name(1))).unwrap();
    let path = dir.join(shard_file_name(3));
    let mut bad = std::fs::read(&path).unwrap();
    let mid = bad.len() / 2;
    bad[mid] ^= 0x01;
    std::fs::write(&path, &bad).unwrap();
    for threads in [1, 2, 7] {
        let err =
            rayon::with_threads(threads, || ShardedEngine::<Euclidean>::load(&dir)).unwrap_err();
        assert!(matches!(err, SnapshotError::Io(_)), "{threads}: {err}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn manifest_damage_fails_the_whole_load() {
    let engine = build(40, 2);
    let dir = temp_dir("corrupt_manifest");
    engine.save(&dir).unwrap();
    let path = dir.join(SHARD_MANIFEST_FILE);
    let pristine = std::fs::read(&path).unwrap();

    // Corrupt manifest payload: its checksum frame rejects it.
    let mut bad = pristine.clone();
    bad[20] ^= 0xFF;
    std::fs::write(&path, &bad).unwrap();
    let err = ShardedEngine::<Euclidean>::load(&dir).unwrap_err();
    assert!(
        matches!(err, SnapshotError::ChecksumMismatch { .. }),
        "{err}"
    );

    // Missing manifest: nothing to load from, typed I/O error.
    std::fs::remove_file(&path).unwrap();
    let err = ShardedEngine::<Euclidean>::load(&dir).unwrap_err();
    assert!(matches!(err, SnapshotError::Io(_)), "{err}");

    std::fs::write(&path, &pristine).unwrap();
    assert!(ShardedEngine::<Euclidean>::load(&dir).is_ok());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn shard_and_manifest_size_disagreement_is_rejected() {
    // Save a 3-shard engine, then overwrite shard 1's file with a shard
    // saved from a *different* engine whose shard 1 has a different size.
    // Both files are individually valid; only the cross-check against the
    // manifest can catch the swap.
    let engine = build(60, 3);
    let other = build(90, 3);
    let dir = temp_dir("size_mismatch");
    let other_dir = temp_dir("size_mismatch_other");
    engine.save(&dir).unwrap();
    other.save(&other_dir).unwrap();

    std::fs::copy(
        other_dir.join(shard_file_name(1)),
        dir.join(shard_file_name(1)),
    )
    .unwrap();
    let err = ShardedEngine::<Euclidean>::load(&dir).unwrap_err();
    match err {
        SnapshotError::Invalid { reason } => {
            assert!(reason.contains("manifest assigns"), "{reason}")
        }
        other => panic!("expected Invalid, got {other}"),
    }

    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&other_dir).unwrap();
}
