//! Fault-injection suite for the snapshot I/O paths (requires the
//! `failpoints` cargo feature; CI's chaos job runs it with
//! `--test-threads=1`).
//!
//! The contract under test: **every** fault injected at **every**
//! registered failpoint site yields a typed [`SnapshotError`] — never a
//! panic, never a torn file at the destination — and once the fault
//! clears, the same operation succeeds. `faults_cover_every_registered_site`
//! enumerates `pg_store::sites::ALL` with an exhaustive match, so adding a
//! failpoint without a chaos scenario fails the suite.

use std::io::ErrorKind;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};

use pg_fault::{configure, reset, FaultAction, FaultConfig};
use pg_store::{sites, BandSection, BuildParams, IndexMeta, MetricTag, Snapshot, SnapshotError};

/// The pg_fault registry is process-global; every test serializes on this
/// lock and resets the registry at entry and exit.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    let guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    reset();
    guard
}

/// A small valid snapshot; `salt` varies the coordinates so two snapshots
/// are distinguishable on disk.
fn snapshot(salt: f64) -> Snapshot {
    Snapshot {
        meta: IndexMeta {
            metric: MetricTag::Euclidean,
            dims: 2,
            n: 3,
            entry_point: 0,
            build: Some(BuildParams {
                epsilon: 1.0,
                eta: 2,
                phi: 9.0,
            }),
        },
        offsets: vec![0, 2, 3, 4],
        targets: vec![1, 2, 0, 0],
        coords: vec![0.0, salt, 3.0, 4.0 + salt, 0.0, 1.0],
        quant: None,
        bands: None,
    }
}

/// [`snapshot`] with every row one band, at `resolution`: format version 3
/// at 0, version 4 above.
fn banded(salt: f64, resolution: u8) -> Snapshot {
    let mut snap = snapshot(salt);
    snap.bands = Some(BandSection {
        resolution,
        offsets: vec![0, 1, 2, 3],
        exps: [1024u16, 1025, 1023].map(|e| e << resolution).to_vec(),
        ends: vec![2, 1, 1],
    });
    snap
}

fn temp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("pg_store_chaos_{}_{name}.pgix", std::process::id()))
}

/// Files in `path`'s directory whose names mark them as save temporaries
/// of `path` — visible only if a failed save leaked one.
fn leaked_temps(path: &Path) -> Vec<PathBuf> {
    let dir = path.parent().expect("temp path has a parent");
    let stem = path
        .file_name()
        .expect("temp path has a file name")
        .to_string_lossy()
        .into_owned();
    std::fs::read_dir(dir)
        .expect("listing the temp dir")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .map(|n| n.to_string_lossy().starts_with(&format!("{stem}.tmp.")))
                .unwrap_or(false)
        })
        .collect()
}

/// Every registered failpoint site has a scenario: inject a fault at the
/// site, assert a typed error (not a panic, not a torn file), then assert
/// the operation succeeds once the fault is spent.
#[test]
fn faults_cover_every_registered_site() {
    let _g = serial();
    assert!(!sites::ALL.is_empty());
    for &site in sites::ALL {
        reset();
        let path = temp(&format!("site_{}", site.replace('.', "_")));
        let _ = std::fs::remove_file(&path);
        // Seed the destination with snapshot A so fault scenarios can
        // check it survives.
        let a = snapshot(0.25);
        a.save(&path).expect("seeding save must succeed");

        configure(
            site,
            FaultConfig::times(FaultAction::Fail(ErrorKind::Other), 1),
        );
        let b = snapshot(7.75);
        // Exhaustive over the registered sites: a new failpoint without a
        // scenario here fails the suite.
        match site {
            sites::SAVE_WRITE | sites::SAVE_SYNC | sites::SAVE_RENAME => {
                let err = b.save(&path).expect_err("injected save fault must surface");
                assert!(
                    matches!(err, SnapshotError::Io(_)),
                    "typed Io error expected at {site}, got {err:?}"
                );
                // The destination still holds complete, valid snapshot A.
                assert_eq!(Snapshot::load(&path).expect("old file intact"), a);
                // No temp debris from the failed save.
                assert_eq!(leaked_temps(&path), Vec::<PathBuf>::new());
            }
            sites::LOAD_READ => {
                let err = Snapshot::load(&path).expect_err("injected read fault must surface");
                assert!(
                    matches!(err, SnapshotError::Io(_)),
                    "typed Io error expected at {site}, got {err:?}"
                );
            }
            other => panic!("failpoint site {other} has no chaos scenario — add one"),
        }
        // The Times(1) budget is spent: the clean retry succeeds.
        assert_eq!(pg_fault::fired(site), 1, "{site} must have fired");
        b.save(&path).expect("retry after the fault clears");
        assert_eq!(Snapshot::load(&path).expect("reload"), b);
        let _ = std::fs::remove_file(&path);
    }
    reset();
}

/// A crash mid-write (short write into the temp file) can never be
/// observed at the destination: the old snapshot stays complete and the
/// torn bytes live only in the temporary, which the failed save removes.
#[test]
fn short_write_never_tears_the_destination() {
    let _g = serial();
    let path = temp("short_write");
    let _ = std::fs::remove_file(&path);
    let a = snapshot(1.5);
    a.save(&path).expect("seeding save");
    let full_len = std::fs::metadata(&path).expect("seed metadata").len() as usize;

    // The incoming file plain, banded as version 3, banded as version 4:
    // torn at every interesting boundary — nothing written, one byte, half
    // the old payload, all but one byte of it, and all but the last byte
    // of its own (version 4's resolution).
    for b in [snapshot(9.5), banded(9.5, 0), banded(9.5, 2)] {
        let own_len = b.to_bytes().expect("valid sample").len();
        for torn in [0usize, 1, full_len / 2, full_len - 1, own_len - 1] {
            configure(
                sites::SAVE_WRITE,
                FaultConfig::times(FaultAction::ShortWrite(torn), 1),
            );
            let err = b.save(&path).expect_err("torn write must fail the save");
            assert!(matches!(err, SnapshotError::Io(_)), "got {err:?}");
            assert_eq!(
                Snapshot::load(&path).expect("destination must stay complete"),
                a,
                "torn at {torn} bytes"
            );
            assert_eq!(leaked_temps(&path), Vec::<PathBuf>::new());
        }
        reset();
        b.save(&path).expect("clean save after the chaos");
        assert_eq!(Snapshot::load(&path).expect("reload"), b);
        a.save(&path).expect("back to the seed");
    }
    let _ = std::fs::remove_file(&path);
}

/// Probabilistic chaos: with every save site flapping, a loop of saves
/// sees only typed errors, the destination is *always* loadable as one of
/// the two complete snapshots, and the seeds make every run identical.
#[test]
fn probabilistic_save_chaos_keeps_the_file_loadable() {
    let _g = serial();
    let path = temp("prob");
    let _ = std::fs::remove_file(&path);
    let a = snapshot(0.0);
    let b = snapshot(42.0);
    a.save(&path).expect("seeding save");

    for (seed_base, p) in [(100u64, 0.3), (200, 0.5)] {
        configure(
            sites::SAVE_WRITE,
            FaultConfig::prob(FaultAction::Fail(ErrorKind::Interrupted), seed_base, p),
        );
        configure(
            sites::SAVE_SYNC,
            FaultConfig::prob(FaultAction::Fail(ErrorKind::Other), seed_base + 1, p),
        );
        configure(
            sites::SAVE_RENAME,
            FaultConfig::prob(
                FaultAction::Fail(ErrorKind::PermissionDenied),
                seed_base + 2,
                p,
            ),
        );
        let mut failures = 0u32;
        for i in 0..40 {
            let next = if i % 2 == 0 { &b } else { &a };
            match next.save(&path) {
                Ok(()) => {}
                Err(SnapshotError::Io(_)) => failures += 1,
                Err(other) => panic!("non-Io error from an injected I/O fault: {other:?}"),
            }
            let on_disk = Snapshot::load(&path).expect("always a complete snapshot");
            assert!(on_disk == a || on_disk == b, "torn or mixed file observed");
            assert_eq!(leaked_temps(&path), Vec::<PathBuf>::new());
        }
        assert!(
            failures > 0,
            "p = {p} must inject something in 120 site hits"
        );
    }
    reset();
    let _ = std::fs::remove_file(&path);
}

/// The load failpoint models a transient read error: typed error while
/// armed, same call succeeds after.
#[test]
fn transient_read_error_then_clean_retry() {
    let _g = serial();
    let path = temp("read_retry");
    let a = snapshot(3.5);
    a.save(&path).expect("seeding save");
    configure(
        sites::LOAD_READ,
        FaultConfig::times(FaultAction::Fail(ErrorKind::Interrupted), 2),
    );
    for _ in 0..2 {
        let err = Snapshot::load(&path).expect_err("armed read must fail");
        assert!(matches!(err, SnapshotError::Io(_)));
    }
    assert_eq!(Snapshot::load(&path).expect("third try is clean"), a);
    reset();
    let _ = std::fs::remove_file(&path);
}
