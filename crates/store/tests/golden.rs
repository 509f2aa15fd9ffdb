//! Golden bytes: the length and FNV-1a 64 [`checksum`] of what the writer
//! emits for every layout it knows — format versions 1 to 4 (each body the
//! writer can put before a `BAND` section) and the shard manifest.
//!
//! The round-trip suites cannot see a change that moves the reader and the
//! writer together; these constants can. They were recorded from the
//! writer as it stood before the section table and the shared codec
//! replaced the hand-written frame readers, so a fixture that re-saves to
//! different bytes fails here by name. Each fixture also parses back to
//! itself and re-saves to the same bytes.

use pg_store::{
    checksum, BandSection, BuildParams, IndexMeta, MetricTag, QuantSection, ShardManifest, Snapshot,
};

/// Four points in three dimensions, every row non-empty, build parameters
/// recorded.
fn plain() -> Snapshot {
    Snapshot {
        meta: IndexMeta {
            metric: MetricTag::Manhattan,
            dims: 3,
            n: 4,
            entry_point: 2,
            build: Some(BuildParams {
                epsilon: 0.5,
                eta: 3,
                phi: 17.0,
            }),
        },
        offsets: vec![0, 2, 4, 5, 6],
        targets: vec![1, 3, 0, 2, 1, 0],
        coords: (0..12).map(|i| i as f64 * 0.75 - 2.5).collect(),
        quant: None,
        bands: None,
    }
}

fn with_f32(mut snap: Snapshot) -> Snapshot {
    snap.quant = Some(QuantSection::F32 {
        data: snap.coords.iter().map(|&c| c as f32).collect(),
    });
    snap
}

fn with_sq8(mut snap: Snapshot) -> Snapshot {
    snap.quant = Some(QuantSection::Sq8 {
        mins: vec![-2.5, -1.75, -1.0],
        steps: vec![6.75 / 255.0, 6.75 / 255.0, 6.75 / 255.0],
        codes: (0..12).map(|i| (i * 23 % 256) as u8).collect(),
    });
    snap
}

/// Rows 0 and 1 in two bands, rows 2 and 3 in one, at `resolution`.
fn with_bands(mut snap: Snapshot, resolution: u8) -> Snapshot {
    snap.bands = Some(BandSection {
        resolution,
        offsets: vec![0, 2, 4, 5, 6],
        exps: [1020u16, 1023, 1019, 1024, 1023, 1022]
            .iter()
            .map(|e| e << resolution)
            .collect(),
        ends: vec![1, 2, 1, 2, 1, 1],
    });
    snap
}

/// `(name, snapshot, version, length, checksum)` for every layout.
fn fixtures() -> Vec<(&'static str, Snapshot, u32, usize, u64)> {
    let mut unbuilt = plain();
    unbuilt.meta.build = None;
    unbuilt.meta.metric = MetricTag::Euclidean;
    vec![
        ("v1", plain(), 1, 308, 0x72b71000e0859be8),
        (
            "v1 without build params",
            unbuilt,
            1,
            308,
            0x67d2cce69f7dbfee,
        ),
        ("v2 PN32", with_f32(plain()), 2, 388, 0x5f88b79adcbff497),
        ("v2 PNQ8", with_sq8(plain()), 2, 400, 0x93c82b15a4865624),
        ("v3", with_bands(plain(), 0), 3, 420, 0xb576b1177b955a66),
        ("v4", with_bands(plain(), 2), 4, 421, 0x6e28e57d68486ed0),
        (
            "v3 five sections",
            with_bands(with_sq8(plain()), 0),
            3,
            512,
            0xf3bb7e1d1264838b,
        ),
        (
            "v4 five sections",
            with_bands(with_f32(plain()), 3),
            4,
            501,
            0xec57d747797e081e,
        ),
    ]
}

#[test]
fn every_snapshot_layout_writes_its_golden_bytes() {
    for (name, snap, version, len, sum) in fixtures() {
        let bytes = snap.to_bytes().unwrap();
        assert_eq!(bytes[8..12], version.to_le_bytes(), "{name}: version");
        assert_eq!(
            (bytes.len(), checksum(&bytes)),
            (len, sum),
            "{name}: length and checksum (got {}, {:#018x})",
            bytes.len(),
            checksum(&bytes)
        );
        let back = Snapshot::from_bytes(&bytes).unwrap();
        assert_eq!(back, snap, "{name}: parses back");
        assert_eq!(back.to_bytes().unwrap(), bytes, "{name}: re-saves");
    }
}

#[test]
fn a_shard_manifest_writes_its_golden_bytes() {
    let manifest = ShardManifest::new(7, vec![vec![0, 3, 6], vec![1, 4], vec![2, 5]]).unwrap();
    let bytes = manifest.to_bytes();
    assert_eq!(
        (bytes.len(), checksum(&bytes)),
        (88, 0x6be311dad343f83a),
        "length and checksum (got {}, {:#018x})",
        bytes.len(),
        checksum(&bytes)
    );
    let back = ShardManifest::from_bytes(&bytes).unwrap();
    assert_eq!(back, manifest);
    assert_eq!(back.to_bytes(), bytes);
}
