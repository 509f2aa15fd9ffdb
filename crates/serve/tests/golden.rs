//! Golden bytes: the length and FNV-1a 64 [`checksum`] of the frame
//! `encode_request` / `encode_response` writes for every frame kind.
//!
//! The round-trip tests cannot see a change that moves the encoder and the
//! decoder together; these constants can. They were recorded from the
//! encoder as it stood before the wire and the snapshots shared one
//! little-endian codec. Each frame also decodes back to its message.

use pg_serve::protocol::{
    decode_request, decode_response, encode_request, encode_response, IndexInfo, QueryReply,
    Request, Response,
};
use pg_serve::ErrorCode;
use pg_store::checksum;

fn pin(name: &str, frame: &[u8], len: usize, sum: u64) {
    assert_eq!(
        (frame.len(), checksum(frame)),
        (len, sum),
        "{name}: length and checksum (got {}, {:#018x})",
        frame.len(),
        checksum(frame)
    );
}

#[test]
fn every_request_kind_encodes_to_its_golden_bytes() {
    let cases = [
        (Request::Ping, 14, 0xfffe62326c427bf8),
        (
            Request::Query {
                index: "main".into(),
                ef: 64,
                k: 10,
                coords: vec![0.5, -3.25, 1e300],
            },
            56,
            0x8c4a1099d50b12e6,
        ),
        (
            Request::Info {
                index: "tenant-a".into(),
            },
            24,
            0x3203780e70264a65,
        ),
        (Request::ListIndexes, 14, 0x41523ab39ce0900e),
    ];
    for (req, len, sum) in cases {
        let frame = encode_request(&req);
        pin(&format!("{req:?}"), &frame, len, sum);
        assert_eq!(decode_request(&frame).unwrap(), req);
    }
}

#[test]
fn every_response_kind_encodes_to_its_golden_bytes() {
    let cases = [
        (Response::Pong, 14, 0x738c1071d4fee6c3),
        (
            Response::Query(QueryReply {
                epoch: 7,
                dist_comps: 123,
                expansions: 17,
                results: vec![(3, 0.25), (9, 1.5)],
            }),
            66,
            0x01b59abc3aece56d,
        ),
        (
            Response::Info(IndexInfo {
                epoch: 2,
                n: 4000,
                dims: 8,
                metric_code: 1,
                entry_point: 17,
            }),
            42,
            0x4c3365bedf25f10e,
        ),
        (
            Response::IndexList(vec!["a".into(), "bb".into(), String::new()]),
            27,
            0x7f9710c7a19890d8,
        ),
        (
            Response::Error {
                code: ErrorCode::UnknownIndex,
                message: "unknown index \"x\"".into(),
            },
            35,
            0x98d4fb4e3e1b00b5,
        ),
    ];
    for (resp, len, sum) in cases {
        let frame = encode_response(&resp);
        pin(&format!("{resp:?}"), &frame, len, sum);
        assert_eq!(decode_response(&frame).unwrap(), resp);
    }
}
