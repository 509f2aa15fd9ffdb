//! Snapshot failure modes, exhaustively: every way a file can be damaged
//! must surface as the matching typed [`SnapshotError`] variant — never a
//! panic, never a partially-read index.
//!
//! The four modes the acceptance criteria name — truncation, a flipped
//! checksum-covered byte, a future `format_version`, and a metric-tag
//! mismatch — are covered here at the byte level (the metric mismatch via
//! the raw tag; the typed `QueryEngine::load` variant lives in
//! `pg_core::snapshot`'s tests, closer to the trait that raises it).

use pg_store::{
    checksum, BandSection, BuildParams, IndexMeta, MetricTag, QuantSection, QuantTag, SectionTag,
    Snapshot, SnapshotError, HEADER_LEN, SECTION_HEADER_LEN,
};

fn sample() -> Snapshot {
    Snapshot {
        meta: IndexMeta {
            metric: MetricTag::Euclidean,
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
        coords: (0..12).map(|i| i as f64 * 0.5 - 2.0).collect(),
        quant: None,
        bands: None,
    }
}

fn sample_bytes() -> Vec<u8> {
    sample().to_bytes().unwrap()
}

/// Byte offset where the META section's payload starts.
const META_PAYLOAD: usize = HEADER_LEN + SECTION_HEADER_LEN;

/// Patches the META payload at `offset` and re-stamps the section checksum,
/// so the mutation reaches the structural decoder instead of tripping the
/// checksum gate.
fn patch_meta(bytes: &mut [u8], offset: usize, value: &[u8]) {
    bytes[META_PAYLOAD + offset..META_PAYLOAD + offset + value.len()].copy_from_slice(value);
    let len = u64::from_le_bytes(bytes[HEADER_LEN + 4..HEADER_LEN + 12].try_into().unwrap());
    let sum = checksum(&bytes[META_PAYLOAD..META_PAYLOAD + len as usize]);
    bytes[HEADER_LEN + 12..HEADER_LEN + 20].copy_from_slice(&sum.to_le_bytes());
}

#[test]
fn every_truncation_point_is_a_typed_error() {
    let bytes = sample_bytes();
    // Chop the file at every possible length: each prefix must fail with
    // Truncated (the bytes simply run out — no prefix of a valid snapshot
    // parses, because trailing sections are always required).
    for len in 0..bytes.len() {
        let err = Snapshot::from_bytes(&bytes[..len])
            .expect_err(&format!("prefix of {len} bytes parsed"));
        assert!(
            matches!(err, SnapshotError::Truncated { .. }),
            "prefix of {len} bytes: got {err:?}"
        );
    }
    // The full file still parses.
    assert!(Snapshot::from_bytes(&bytes).is_ok());
}

#[test]
fn every_flipped_payload_byte_is_caught() {
    let bytes = sample_bytes();
    // Flip one bit in every checksum-covered payload byte; parsing must
    // fail — with ChecksumMismatch naming the right section.
    let mut pos = HEADER_LEN;
    for expect in [SectionTag::Meta, SectionTag::Graph, SectionTag::Points] {
        let len = u64::from_le_bytes(bytes[pos + 4..pos + 12].try_into().unwrap()) as usize;
        let payload = pos + SECTION_HEADER_LEN;
        for i in 0..len {
            let mut bad = bytes.clone();
            bad[payload + i] ^= 0x40;
            match Snapshot::from_bytes(&bad) {
                Err(SnapshotError::ChecksumMismatch { section }) => {
                    assert_eq!(section, expect, "byte {i} of {expect}")
                }
                other => panic!("flipped byte {i} of {expect}: got {other:?}"),
            }
        }
        pos = payload + len;
    }
}

#[test]
fn flipped_stored_checksum_is_caught_too() {
    let mut bytes = sample_bytes();
    bytes[HEADER_LEN + 12] ^= 0x01; // first byte of META's stored checksum
    assert!(matches!(
        Snapshot::from_bytes(&bytes),
        Err(SnapshotError::ChecksumMismatch {
            section: SectionTag::Meta
        })
    ));
}

#[test]
fn future_format_version_is_rejected() {
    let mut bytes = sample_bytes();
    bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
    match Snapshot::from_bytes(&bytes) {
        Err(SnapshotError::UnsupportedVersion { found }) => assert_eq!(found, 99),
        other => panic!("got {other:?}"),
    }
}

#[test]
fn version_zero_is_rejected_as_unsupported() {
    let mut bytes = sample_bytes();
    bytes[8..12].copy_from_slice(&0u32.to_le_bytes());
    assert!(matches!(
        Snapshot::from_bytes(&bytes),
        Err(SnapshotError::UnsupportedVersion { found: 0 })
    ));
}

#[test]
fn bad_magic_is_rejected() {
    let mut bytes = sample_bytes();
    bytes[0] = b'X';
    assert!(matches!(
        Snapshot::from_bytes(&bytes),
        Err(SnapshotError::BadMagic)
    ));
    // A file of something else entirely.
    assert!(matches!(
        Snapshot::from_bytes(b"not a snapshot at all, sorry"),
        Err(SnapshotError::BadMagic)
    ));
}

#[test]
fn unknown_metric_tag_is_invalid() {
    let mut bytes = sample_bytes();
    patch_meta(&mut bytes, 0, &7u32.to_le_bytes());
    match Snapshot::from_bytes(&bytes) {
        Err(SnapshotError::Invalid { reason }) => {
            assert!(reason.contains("metric tag"), "reason: {reason}")
        }
        other => panic!("got {other:?}"),
    }
}

#[test]
fn raw_metric_tag_swap_survives_parsing_for_typed_loaders_to_catch() {
    // Re-tagging the metric (with a valid code) parses fine at this layer —
    // the byte format cannot know what the caller wants. The *typed* loader
    // (`QueryEngine::<_, M>::load`) turns it into MetricMismatch; here we
    // pin that the tag really is carried through.
    let mut bytes = sample_bytes();
    patch_meta(&mut bytes, 0, &MetricTag::Chebyshev.code().to_le_bytes());
    let snap = Snapshot::from_bytes(&bytes).unwrap();
    assert_eq!(snap.meta.metric, MetricTag::Chebyshev);
}

#[test]
fn cross_section_count_mismatch_is_invalid() {
    // META's n disagrees with GRPH/PNTS (checksums re-stamped): the
    // cross-checks must catch it.
    let mut bytes = sample_bytes();
    patch_meta(&mut bytes, 8, &5u64.to_le_bytes());
    match Snapshot::from_bytes(&bytes) {
        Err(SnapshotError::Invalid { reason }) => {
            assert!(reason.contains("n = "), "reason: {reason}")
        }
        other => panic!("got {other:?}"),
    }
}

#[test]
fn out_of_range_entry_point_is_invalid() {
    let mut bytes = sample_bytes();
    patch_meta(&mut bytes, 16, &9u32.to_le_bytes());
    match Snapshot::from_bytes(&bytes) {
        Err(SnapshotError::Invalid { reason }) => {
            assert!(reason.contains("entry point"), "reason: {reason}")
        }
        other => panic!("got {other:?}"),
    }
}

#[test]
fn trailing_garbage_is_invalid() {
    let mut bytes = sample_bytes();
    bytes.extend_from_slice(b"junk");
    match Snapshot::from_bytes(&bytes) {
        Err(SnapshotError::Invalid { reason }) => {
            assert!(reason.contains("trailing"), "reason: {reason}")
        }
        other => panic!("got {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// Version-2 (quantized) snapshots get the full corruption treatment too:
// every truncation offset, every flipped payload byte, every structural
// cross-check, and the loader-direction mismatches — all typed, no panics.
// ---------------------------------------------------------------------------

/// The [`sample`] snapshot carrying an `f32` compact section (format v2).
fn sample_f32() -> Snapshot {
    let mut snap = sample();
    snap.quant = Some(QuantSection::F32 {
        data: snap.coords.iter().map(|&c| c as f32).collect(),
    });
    snap
}

/// The [`sample`] snapshot carrying an SQ8 compact section (format v2).
fn sample_sq8() -> Snapshot {
    let mut snap = sample();
    snap.quant = Some(QuantSection::Sq8 {
        mins: vec![-2.0, -1.5, -1.0],
        steps: vec![4.0 / 255.0, 4.5 / 255.0, 5.0 / 255.0],
        codes: (0..12).map(|i| (i * 21) as u8).collect(),
    });
    snap
}

/// Both quantized fixtures as `(tag, bytes)` pairs.
fn quant_fixtures() -> [(QuantTag, Vec<u8>); 2] {
    [
        (QuantTag::F32, sample_f32().to_bytes().unwrap()),
        (QuantTag::Sq8, sample_sq8().to_bytes().unwrap()),
    ]
}

/// Byte offset where section `idx` (0-based) starts, by walking the frames.
fn section_start(bytes: &[u8], idx: usize) -> usize {
    let mut pos = HEADER_LEN;
    for _ in 0..idx {
        let len = u64::from_le_bytes(bytes[pos + 4..pos + 12].try_into().unwrap()) as usize;
        pos += SECTION_HEADER_LEN + len;
    }
    pos
}

/// Patches section `idx`'s payload at `offset` and re-stamps that section's
/// checksum, so the mutation reaches the structural decoder.
fn patch_section(bytes: &mut [u8], idx: usize, offset: usize, value: &[u8]) {
    let start = section_start(bytes, idx);
    let payload = start + SECTION_HEADER_LEN;
    bytes[payload + offset..payload + offset + value.len()].copy_from_slice(value);
    let len = u64::from_le_bytes(bytes[start + 4..start + 12].try_into().unwrap()) as usize;
    let sum = checksum(&bytes[payload..payload + len]);
    bytes[start + 12..start + 20].copy_from_slice(&sum.to_le_bytes());
}

#[test]
fn every_truncation_point_of_a_quantized_snapshot_is_typed() {
    for (tag, bytes) in quant_fixtures() {
        for len in 0..bytes.len() {
            let err = Snapshot::from_bytes(&bytes[..len])
                .expect_err(&format!("{tag:?}: prefix of {len} bytes parsed"));
            assert!(
                matches!(err, SnapshotError::Truncated { .. }),
                "{tag:?}: prefix of {len} bytes: got {err:?}"
            );
        }
        let full = Snapshot::from_bytes(&bytes).unwrap();
        assert_eq!(full.quant.as_ref().unwrap().tag(), tag);
    }
}

#[test]
fn every_flipped_payload_byte_of_a_quantized_snapshot_is_caught() {
    for (tag, bytes) in quant_fixtures() {
        let quant_section = tag.section();
        let expect = [
            SectionTag::Meta,
            SectionTag::Graph,
            SectionTag::Points,
            quant_section,
        ];
        let mut pos = HEADER_LEN;
        for section in expect {
            let len = u64::from_le_bytes(bytes[pos + 4..pos + 12].try_into().unwrap()) as usize;
            let payload = pos + SECTION_HEADER_LEN;
            for i in 0..len {
                let mut bad = bytes.clone();
                bad[payload + i] ^= 0x40;
                match Snapshot::from_bytes(&bad) {
                    Err(SnapshotError::ChecksumMismatch { section: got }) => {
                        assert_eq!(got, section, "{tag:?}: byte {i} of {section:?}")
                    }
                    other => panic!("{tag:?}: flipped byte {i} of {section:?}: got {other:?}"),
                }
            }
            pos = payload + len;
        }
    }
}

#[test]
fn quant_section_count_cross_checks_are_invalid_not_panics() {
    for (tag, bytes) in quant_fixtures() {
        // The quant payload's own n disagrees with META's.
        let mut bad_n = bytes.clone();
        patch_section(&mut bad_n, 3, 0, &9u64.to_le_bytes());
        match Snapshot::from_bytes(&bad_n) {
            Err(SnapshotError::Invalid { reason }) => {
                assert!(reason.contains("n = "), "{tag:?}: reason: {reason}")
            }
            other => panic!("{tag:?}: bad quant n: got {other:?}"),
        }
        // ...and so does its dims.
        let mut bad_d = bytes.clone();
        patch_section(&mut bad_d, 3, 8, &7u32.to_le_bytes());
        match Snapshot::from_bytes(&bad_d) {
            Err(SnapshotError::Invalid { reason }) => {
                assert!(reason.contains("dims"), "{tag:?}: reason: {reason}")
            }
            other => panic!("{tag:?}: bad quant dims: got {other:?}"),
        }
    }
}

#[test]
fn retagging_the_quant_section_is_invalid_not_a_panic() {
    // Swapping the 4th section's tag (frame checksum intact — the tag is
    // not checksum-covered) makes the payload size wrong for the claimed
    // representation: a structural error, never an out-of-bounds read.
    for (tag, bytes) in quant_fixtures() {
        let other_tag = match tag {
            QuantTag::F32 => SectionTag::PointsSq8,
            QuantTag::Sq8 => SectionTag::Points32,
        };
        let start = section_start(&bytes, 3);
        let mut bad = bytes.clone();
        bad[start..start + 4].copy_from_slice(&other_tag.bytes());
        match Snapshot::from_bytes(&bad) {
            Err(SnapshotError::Invalid { reason }) => {
                assert!(
                    reason.contains("bytes") || reason.contains("payload"),
                    "{tag:?}: reason: {reason}"
                )
            }
            other => panic!("{tag:?}: retagged section: got {other:?}"),
        }
        // A non-quant tag in the 4th slot is rejected by name.
        let mut nonq = bytes.clone();
        nonq[start..start + 4].copy_from_slice(&SectionTag::Meta.bytes());
        match Snapshot::from_bytes(&nonq) {
            Err(SnapshotError::Invalid { reason }) => {
                assert!(
                    reason.contains("quantized section"),
                    "{tag:?}: reason: {reason}"
                )
            }
            other => panic!("{tag:?}: META in quant slot: got {other:?}"),
        }
    }
}

#[test]
fn version_and_section_count_must_agree() {
    // A v2 body with the version byte rewritten to 1 (and vice versa) is a
    // structural error: the version dictates the exact section count.
    let (_, quant_bytes) = &quant_fixtures()[0];
    let mut v1_with_quant = quant_bytes.clone();
    v1_with_quant[8..12].copy_from_slice(&1u32.to_le_bytes());
    match Snapshot::from_bytes(&v1_with_quant) {
        Err(SnapshotError::Invalid { reason }) => {
            assert!(reason.contains("sections"), "reason: {reason}")
        }
        other => panic!("v1 header on v2 body: got {other:?}"),
    }

    let mut v2_without_quant = sample_bytes();
    v2_without_quant[8..12].copy_from_slice(&2u32.to_le_bytes());
    match Snapshot::from_bytes(&v2_without_quant) {
        Err(SnapshotError::Invalid { reason }) => {
            assert!(reason.contains("sections"), "reason: {reason}")
        }
        other => panic!("v2 header on v1 body: got {other:?}"),
    }
}

#[test]
fn quantized_bytes_carry_the_tag_for_typed_loaders_to_catch() {
    // The byte layer parses a quantized snapshot happily. One level up,
    // the typed loader (QueryEngine::from_snapshot) reads the section's
    // tag to pick the store it derives from the points, and refuses the
    // file with SnapshotError::Invalid unless the section equals that store
    // (see tests/snapshot_parity.rs at the workspace root). Here we pin
    // that the parsed value carries the tag the loader matches on.
    for (tag, bytes) in quant_fixtures() {
        let snap = Snapshot::from_bytes(&bytes).unwrap();
        assert_eq!(snap.quant.as_ref().unwrap().tag(), tag);
    }
    let plain = Snapshot::from_bytes(&sample_bytes()).unwrap();
    assert!(plain.quant.is_none());
}

#[test]
fn wrong_section_order_is_invalid() {
    // Swap the GRPH and PNTS sections wholesale (frames intact, checksums
    // valid): the fixed v1 order is part of the format.
    let bytes = sample_bytes();
    let grph_start = {
        let meta_len =
            u64::from_le_bytes(bytes[HEADER_LEN + 4..HEADER_LEN + 12].try_into().unwrap());
        HEADER_LEN + SECTION_HEADER_LEN + meta_len as usize
    };
    let pnts_start = {
        let grph_len =
            u64::from_le_bytes(bytes[grph_start + 4..grph_start + 12].try_into().unwrap());
        grph_start + SECTION_HEADER_LEN + grph_len as usize
    };
    let mut swapped = bytes[..grph_start].to_vec();
    swapped.extend_from_slice(&bytes[pnts_start..]);
    swapped.extend_from_slice(&bytes[grph_start..pnts_start]);
    assert_eq!(swapped.len(), bytes.len());
    match Snapshot::from_bytes(&swapped) {
        Err(SnapshotError::Invalid { reason }) => {
            assert!(reason.contains("expected section"), "reason: {reason}")
        }
        other => panic!("got {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// Version-3 and version-4 (banded) snapshots, after a plain and after a
// quantized body: the same sweep — every truncation offset, every flipped
// payload byte — plus the ladder's own structural checks.
// ---------------------------------------------------------------------------

/// `base` with its rows split into bands at `resolution` (0 writes version
/// 3, anything else version 4): rows 0 and 1 of the sample graph get two
/// bands of one target each, rows 2 and 3 one band.
fn banded(mut base: Snapshot, resolution: u8) -> Snapshot {
    let octaves = [1020u16, 1023, 1019, 1024, 1023, 1022];
    base.bands = Some(BandSection {
        resolution,
        offsets: vec![0, 2, 4, 5, 6],
        exps: octaves.iter().map(|e| e << resolution).collect(),
        ends: vec![1, 2, 1, 2, 1, 1],
    });
    base
}

/// The banded fixtures: `(sections, bytes, resolution)` for a plain and an
/// SQ8 body, each at one band per octave and at four.
fn banded_fixtures() -> [(Vec<SectionTag>, Vec<u8>, u8); 4] {
    let body = vec![SectionTag::Meta, SectionTag::Graph, SectionTag::Points];
    let plain = [body.clone(), vec![SectionTag::Bands]].concat();
    let quant = [body, vec![SectionTag::PointsSq8, SectionTag::Bands]].concat();
    let bytes = |base: Snapshot, resolution| banded(base, resolution).to_bytes().unwrap();
    [
        (plain.clone(), bytes(sample(), 0), 0),
        (quant.clone(), bytes(sample_sq8(), 0), 0),
        (plain, bytes(sample(), 2), 2),
        (quant, bytes(sample_sq8(), 2), 2),
    ]
}

#[test]
fn every_truncation_point_of_a_banded_snapshot_is_typed() {
    for (sections, bytes, resolution) in banded_fixtures() {
        for len in 0..bytes.len() {
            let err = Snapshot::from_bytes(&bytes[..len])
                .expect_err(&format!("{sections:?}: prefix of {len} bytes parsed"));
            assert!(
                matches!(err, SnapshotError::Truncated { .. }),
                "{sections:?}: prefix of {len} bytes: got {err:?}"
            );
        }
        let full = Snapshot::from_bytes(&bytes).unwrap();
        let version = if resolution == 0 { 3u32 } else { 4 };
        assert_eq!(bytes[8..12], version.to_le_bytes());
        assert_eq!(full.bands, banded(sample(), resolution).bands);
        assert_eq!(full.quant.is_some(), sections.len() == 5);
    }
}

#[test]
fn every_flipped_payload_byte_of_a_banded_snapshot_is_caught() {
    for (sections, bytes, _) in banded_fixtures() {
        let mut pos = HEADER_LEN;
        for section in sections {
            let len = u64::from_le_bytes(bytes[pos + 4..pos + 12].try_into().unwrap()) as usize;
            let payload = pos + SECTION_HEADER_LEN;
            for i in 0..len {
                let mut bad = bytes.clone();
                bad[payload + i] ^= 0x40;
                match Snapshot::from_bytes(&bad) {
                    Err(SnapshotError::ChecksumMismatch { section: got }) => {
                        assert_eq!(got, section, "byte {i} of {section:?}")
                    }
                    other => panic!("flipped byte {i} of {section:?}: got {other:?}"),
                }
            }
            pos = payload + len;
        }
        assert_eq!(pos, bytes.len());
    }
}

#[test]
fn a_bad_band_ladder_is_invalid_not_a_panic() {
    for (sections, bytes, resolution) in banded_fixtures() {
        let band = sections.len() - 1;
        // BAND payload: n u64, B u64, 5 offsets u64, 6 exps u16, 6 ends u32
        // and, in version 4, the resolution u8.
        let (offsets, exps, ends) = (16, 16 + 5 * 8, 16 + 5 * 8 + 6 * 2);
        let key = |octave: u16| (octave << resolution).to_le_bytes();
        let invalid = |offset: usize, value: &[u8], why: &str| {
            let mut bad = bytes.clone();
            patch_section(&mut bad, band, offset, value);
            match Snapshot::from_bytes(&bad) {
                Err(SnapshotError::Invalid { reason }) => {
                    assert!(reason.contains(why), "{reason:?} should mention {why:?}")
                }
                other => panic!("{why}: got {other:?}"),
            }
        };
        invalid(0, &9u64.to_le_bytes(), "n = ");
        invalid(8, &7u64.to_le_bytes(), "bytes");
        invalid(offsets, &1u64.to_le_bytes(), "start at 0");
        invalid(offsets + 16, &1u64.to_le_bytes(), "non-decreasing");
        invalid(offsets + 8, &u64::MAX.to_le_bytes(), "non-decreasing");
        invalid(offsets + 32, &5u64.to_le_bytes(), "band count");
        // Bands of row 0 equal, out of order, or past the largest key of
        // the ladder's resolution (which is still a key at a finer one).
        invalid(exps, &key(1023), "ascending band keys");
        invalid(exps, &key(1024), "ascending band keys");
        let past = (0x7ffu16 << resolution) + 1;
        invalid(exps + 2, &past.to_le_bytes(), "ascending band keys");
        if resolution != 0 {
            let declared = ends + 6 * 4;
            invalid(declared, &[0], "declares resolution 0");
            invalid(declared, &[4], "band resolution 4");
            invalid(declared, &[1], "ascending band keys");
        }
        // Ends of row 0 not monotone, or not stopping at its degree (2).
        invalid(ends, &2u32.to_le_bytes(), "strictly increasing");
        invalid(ends, &0u32.to_le_bytes(), "strictly increasing");
        invalid(ends + 4, &3u32.to_le_bytes(), "degree");
        invalid(ends + 4, &u32::MAX.to_le_bytes(), "degree");
        // Row 2 (degree 1) left with no band: row 1 takes its run.
        invalid(offsets + 24, &4u64.to_le_bytes(), "degree");
    }
}

#[test]
fn a_band_section_needs_version_3_or_4_and_the_last_slot() {
    let [(_, plain, _), (_, quant, _), (_, plain4, _), (_, quant4, _)] = banded_fixtures();
    // Version 3 or 4 with the section count of a version it is not.
    for (bytes, count, why) in [
        (&plain, 3u32, "sections"),
        (&quant, 6, "sections"),
        (&plain4, 3, "sections"),
        (&quant4, 6, "sections"),
        // Five sections promised: slot four must then be a quantized store.
        (&plain, 5, "quantized section"),
        (&plain4, 5, "quantized section"),
    ] {
        let mut bad = bytes.clone();
        bad[12..16].copy_from_slice(&count.to_le_bytes());
        match Snapshot::from_bytes(&bad) {
            Err(SnapshotError::Invalid { reason }) => {
                assert!(reason.contains(why), "reason: {reason}")
            }
            other => panic!("count {count}: got {other:?}"),
        }
    }
    // A version-2 header on the four-section banded body: slot four must
    // be a quantized store.
    let mut v2 = plain.clone();
    v2[8..12].copy_from_slice(&2u32.to_le_bytes());
    match Snapshot::from_bytes(&v2) {
        Err(SnapshotError::Invalid { reason }) => {
            assert!(reason.contains("quantized section"), "reason: {reason}")
        }
        other => panic!("v2 header on a banded body: got {other:?}"),
    }
    // A version-3 or version-4 header on a quantized body without a
    // ladder: slot four must then be BAND.
    for version in [3u32, 4] {
        let mut banded = quant_fixtures()[0].1.clone();
        banded[8..12].copy_from_slice(&version.to_le_bytes());
        match Snapshot::from_bytes(&banded) {
            Err(SnapshotError::Invalid { reason }) => {
                assert!(reason.contains("expected section BAND"), "reason: {reason}")
            }
            other => panic!("v{version} header on a v2 body: got {other:?}"),
        }
    }
    // The two banded versions differ by one byte of `BAND`, and each
    // header refuses the other's payload.
    assert_eq!(plain4.len(), plain.len() + 1);
    for (bytes, version) in [(&plain, 4u32), (&plain4, 3)] {
        let mut other = bytes.clone();
        other[8..12].copy_from_slice(&version.to_le_bytes());
        match Snapshot::from_bytes(&other) {
            Err(SnapshotError::Invalid { reason }) => {
                assert!(reason.contains("counts imply"), "reason: {reason}")
            }
            got => panic!("v{version} header on the other BAND: got {got:?}"),
        }
    }
    // Files written before bands existed parse exactly as they did.
    assert!(Snapshot::from_bytes(&sample_bytes())
        .unwrap()
        .bands
        .is_none());
}
