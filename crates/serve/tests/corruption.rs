//! Protocol corruption suite, in the style of `pg_store`'s
//! `tests/corruption.rs`: every frame type is round-tripped, truncated at
//! **every** offset, and bit-flipped at **every** position, asserting a
//! typed [`ServeError`] each time — decoding untrusted bytes never panics
//! and never mis-parses. A live-server section then verifies the error
//! *discipline*: a malformed request costs its sender an error frame, not
//! the connection.

mod common;

use std::sync::Arc;

use pg_serve::client::Client;
use pg_serve::protocol::{
    decode_request, decode_response, encode_request, encode_response, IndexInfo, QueryReply,
    Request, Response, MAX_FRAME_LEN, MAX_STRING_LEN, PROTOCOL_VERSION,
};
use pg_serve::registry::IndexRegistry;
use pg_serve::server::{ServeConfig, Server};
use pg_serve::{ErrorCode, ServeError};
use pg_store::checksum;

/// One frame of every request kind.
fn all_request_frames() -> Vec<(&'static str, Vec<u8>)> {
    vec![
        ("ping", encode_request(&Request::Ping)),
        (
            "query",
            encode_request(&Request::Query {
                index: "main".into(),
                ef: 32,
                k: 5,
                coords: vec![1.5, -2.25, 1e12],
            }),
        ),
        (
            "info",
            encode_request(&Request::Info {
                index: "tenant".into(),
            }),
        ),
        ("list", encode_request(&Request::ListIndexes)),
    ]
}

/// One frame of every response kind.
fn all_response_frames() -> Vec<(&'static str, Vec<u8>)> {
    vec![
        ("pong", encode_response(&Response::Pong)),
        (
            "query_ok",
            encode_response(&Response::Query(QueryReply {
                epoch: 3,
                dist_comps: 99,
                expansions: 12,
                results: vec![(7, 0.5), (1, 2.75)],
            })),
        ),
        (
            "info_ok",
            encode_response(&Response::Info(IndexInfo {
                epoch: 1,
                n: 500,
                dims: 3,
                metric_code: 1,
                entry_point: 42,
            })),
        ),
        (
            "index_list",
            encode_response(&Response::IndexList(vec!["a".into(), "bb".into()])),
        ),
        (
            "error",
            encode_response(&Response::Error {
                code: ErrorCode::BadRequest,
                message: "nope".into(),
            }),
        ),
    ]
}

/// Hand-builds a frame with the documented layout (independent of the
/// crate's own encoder) so structural attacks can carry arbitrary bodies.
fn make_frame(version: u8, kind: u8, body: &[u8]) -> Vec<u8> {
    let mut payload = vec![version, kind];
    payload.extend_from_slice(body);
    let mut frame = Vec::new();
    frame.extend_from_slice(&((payload.len() + 8) as u32).to_le_bytes());
    frame.extend_from_slice(&payload);
    frame.extend_from_slice(&checksum(&payload).to_le_bytes());
    frame
}

/// Re-stamps the checksum after a deliberate payload patch, so the decoder
/// sees the patched bytes as "authentic" and must reject them on their own
/// terms (version / kind / structure), not as corruption.
fn restamp(frame: &mut [u8]) {
    let payload_end = frame.len() - 8;
    let sum = checksum(&frame[4..payload_end]);
    frame[payload_end..].copy_from_slice(&sum.to_le_bytes());
}

#[test]
fn every_truncation_of_every_request_frame_is_a_typed_error() {
    for (name, frame) in all_request_frames() {
        for cut in 0..frame.len() {
            let err = decode_request(&frame[..cut])
                .expect_err(&format!("{name} truncated to {cut} bytes decoded"));
            assert!(
                matches!(err, ServeError::Truncated { .. }),
                "{name}[..{cut}]: expected Truncated, got {err:?}"
            );
        }
    }
}

#[test]
fn every_truncation_of_every_response_frame_is_a_typed_error() {
    for (name, frame) in all_response_frames() {
        for cut in 0..frame.len() {
            let err = decode_response(&frame[..cut])
                .expect_err(&format!("{name} truncated to {cut} bytes decoded"));
            assert!(
                matches!(err, ServeError::Truncated { .. }),
                "{name}[..{cut}]: expected Truncated, got {err:?}"
            );
        }
    }
}

/// Flips every bit of every byte of every frame. Positions inside the
/// payload or the checksum must fail as `ChecksumMismatch` — the checksum
/// gate runs before any interpretation. Positions inside the length prefix
/// re-segment the frame and must fail as a framing error.
#[test]
fn every_bit_flip_of_every_frame_is_a_typed_error() {
    let mut all = all_request_frames();
    all.extend(all_response_frames());
    for (name, frame) in all {
        let decode: fn(&[u8]) -> Result<(), ServeError> = if frame[5] < 128 {
            |b| decode_request(b).map(|_| ())
        } else {
            |b| decode_response(b).map(|_| ())
        };
        for pos in 0..frame.len() {
            for bit in 0..8 {
                let mut bad = frame.clone();
                bad[pos] ^= 1 << bit;
                let err = decode(&bad).expect_err(&format!(
                    "{name} with bit {bit} of byte {pos} flipped decoded"
                ));
                if pos >= 4 {
                    assert!(
                        matches!(err, ServeError::ChecksumMismatch),
                        "{name} byte {pos} bit {bit}: expected ChecksumMismatch, got {err:?}"
                    );
                } else {
                    assert!(
                        matches!(
                            err,
                            ServeError::Truncated { .. }
                                | ServeError::Malformed { .. }
                                | ServeError::FrameTooLarge { .. }
                        ),
                        "{name} byte {pos} bit {bit}: expected a framing error, got {err:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn trailing_bytes_after_a_valid_frame_are_malformed() {
    for (name, mut frame) in all_request_frames() {
        frame.push(0);
        let err = decode_request(&frame).expect_err(name);
        assert!(
            matches!(err, ServeError::Malformed { .. }),
            "{name}: got {err:?}"
        );
    }
}

/// Every possible kind byte, authentically checksummed over an empty body:
/// known kinds with the wrong body shape fail as `Truncated`, kinds from
/// the other direction (request vs response) and unassigned kinds fail as
/// `UnknownKind`. No byte value panics.
#[test]
fn every_kind_byte_is_classified() {
    for kind in 0u8..=255 {
        let frame = make_frame(PROTOCOL_VERSION, kind, &[]);
        match decode_request(&frame) {
            Ok(req) => assert!(
                (kind == 0 && req == Request::Ping) || (kind == 3 && req == Request::ListIndexes),
                "request kind {kind} decoded unexpectedly to {req:?}"
            ),
            Err(ServeError::Truncated { .. }) => {
                assert!([1, 2].contains(&kind), "kind {kind} gave Truncated")
            }
            Err(ServeError::UnknownKind { kind: k }) => assert_eq!(k, kind),
            Err(other) => panic!("request kind {kind}: unexpected {other:?}"),
        }
        match decode_response(&frame) {
            Ok(resp) => assert!(
                kind == 128 && resp == Response::Pong,
                "response kind {kind} decoded unexpectedly to {resp:?}"
            ),
            Err(ServeError::Truncated { .. }) => {
                assert!((129..=132).contains(&kind), "kind {kind} gave Truncated")
            }
            Err(ServeError::UnknownKind { kind: k }) => assert_eq!(k, kind),
            Err(other) => panic!("response kind {kind}: unexpected {other:?}"),
        }
    }
}

#[test]
fn every_foreign_version_byte_is_rejected_after_restamping() {
    for version in (0u8..=255).filter(|&v| v != PROTOCOL_VERSION) {
        let mut frame = encode_request(&Request::Ping);
        frame[4] = version;
        restamp(&mut frame);
        let err = decode_request(&frame).unwrap_err();
        assert!(
            matches!(err, ServeError::UnsupportedVersion { found } if found == version),
            "version {version}: got {err:?}"
        );
    }
}

#[test]
fn structurally_invalid_bodies_are_malformed_not_panics() {
    // A query whose declared coordinate count disagrees with its bytes.
    let mut body = Vec::new();
    body.extend_from_slice(&2u16.to_le_bytes());
    body.extend_from_slice(b"ix");
    body.extend_from_slice(&8u32.to_le_bytes()); // ef
    body.extend_from_slice(&3u32.to_le_bytes()); // k
    body.extend_from_slice(&5u32.to_le_bytes()); // declares 5 coords...
    body.extend_from_slice(&1.0f64.to_le_bytes()); // ...carries 1
    let err = decode_request(&make_frame(PROTOCOL_VERSION, 1, &body)).unwrap_err();
    assert!(matches!(err, ServeError::Malformed { .. }), "got {err:?}");

    // A non-UTF-8 index name.
    let mut body = Vec::new();
    body.extend_from_slice(&2u16.to_le_bytes());
    body.extend_from_slice(&[0xFF, 0xFE]);
    let err = decode_request(&make_frame(PROTOCOL_VERSION, 2, &body)).unwrap_err();
    assert!(matches!(err, ServeError::Malformed { .. }), "got {err:?}");

    // An index list whose count cannot fit in its bytes.
    let mut body = Vec::new();
    body.extend_from_slice(&u32::MAX.to_le_bytes());
    let err = decode_response(&make_frame(PROTOCOL_VERSION, 131, &body)).unwrap_err();
    assert!(matches!(err, ServeError::Malformed { .. }), "got {err:?}");

    // An error frame carrying an unassigned error code.
    let mut body = Vec::new();
    body.extend_from_slice(&999u16.to_le_bytes());
    body.extend_from_slice(&0u16.to_le_bytes());
    let err = decode_response(&make_frame(PROTOCOL_VERSION, 132, &body)).unwrap_err();
    assert!(matches!(err, ServeError::Malformed { .. }), "got {err:?}");
}

// ---------------------------------------------------------------------------
// Live-server discipline: errors cost an error frame, not the connection.
// ---------------------------------------------------------------------------

fn serving_fixture() -> (Server, Arc<IndexRegistry>) {
    let registry = Arc::new(IndexRegistry::new());
    registry
        .register("main", common::build_engine(120, 1), 0)
        .unwrap();
    let server = Server::bind("127.0.0.1:0", Arc::clone(&registry), ServeConfig::default())
        .expect("binding an ephemeral port");
    (server, registry)
}

#[test]
fn corrupt_frames_get_error_frames_and_the_connection_survives() {
    let (server, _registry) = serving_fixture();
    let mut client = Client::connect(server.local_addr()).unwrap();

    // A checksum-corrupt frame.
    let mut bad = encode_request(&Request::Ping);
    let last = bad.len() - 1;
    bad[last] ^= 0xFF;
    match client.call_raw(&bad).unwrap() {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::ChecksumMismatch),
        other => panic!("expected an error frame, got {other:?}"),
    }

    // An unassigned kind, authentically checksummed.
    match client
        .call_raw(&make_frame(PROTOCOL_VERSION, 77, &[]))
        .unwrap()
    {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::UnknownKind),
        other => panic!("expected an error frame, got {other:?}"),
    }

    // A foreign protocol version.
    let mut future = encode_request(&Request::Ping);
    future[4] = 2;
    restamp(&mut future);
    match client.call_raw(&future).unwrap() {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::UnsupportedVersion),
        other => panic!("expected an error frame, got {other:?}"),
    }

    // After three poison frames, the same connection still serves.
    client.ping().unwrap();
    let reply = client.query("main", &[3.0, 4.0], 16, 3).unwrap();
    assert_eq!(reply.results.len(), 3);
}

/// A request naming an unknown index near the string-field limit is
/// answered with a decodable `UnknownIndex` frame (the echoed name cut to
/// fit), and the connection keeps serving; a name past the limit is
/// refused by the client before anything is sent.
#[test]
fn a_name_too_long_to_echo_whole_gets_a_cut_unknown_index_frame() {
    let (server, _registry) = serving_fixture();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let name = "n".repeat(65_530);
    for _ in 0..2 {
        match client.info(&name).unwrap_err() {
            ServeError::Remote {
                code: ErrorCode::UnknownIndex,
                message,
            } => {
                assert_eq!(message.len(), MAX_STRING_LEN);
                assert!(
                    message.starts_with("unknown index \"nnn"),
                    "{}",
                    &message[..20]
                );
            }
            other => panic!("expected an UnknownIndex frame, got {other:?}"),
        }
        client.ping().unwrap();
    }
    let too_long = "n".repeat(MAX_STRING_LEN + 1);
    assert!(matches!(
        client.query(&too_long, &[1.0, 2.0], 8, 2),
        Err(ServeError::NameTooLong { len }) if len == MAX_STRING_LEN + 1
    ));
    assert_eq!(
        client
            .query("main", &[3.0, 4.0], 16, 3)
            .unwrap()
            .results
            .len(),
        3
    );
}

#[test]
fn names_a_frame_cannot_carry_are_refused_where_they_enter() {
    let registry = IndexRegistry::new();
    let too_long = "n".repeat(MAX_STRING_LEN + 1);
    let refused = |r: Result<u64, ServeError>| matches!(r, Err(ServeError::NameTooLong { len }) if len == MAX_STRING_LEN + 1);
    assert!(refused(registry.register(
        too_long.clone(),
        common::build_engine(40, 1),
        0
    )));
    assert!(refused(
        registry.register_from_path(too_long.clone(), "no such file")
    ));
    assert!(refused(registry.swap(
        &too_long,
        common::build_engine(40, 1),
        0
    )));
    assert!(refused(registry.swap_from_path(&too_long, "no such file")));
    assert!(registry.is_empty());
    // The longest name a frame carries registers, and lists.
    let longest = "n".repeat(MAX_STRING_LEN);
    assert_eq!(
        registry
            .register(longest.clone(), common::build_engine(40, 1), 0)
            .unwrap(),
        1
    );
    let listed = decode_response(&encode_response(&Response::IndexList(registry.names()))).unwrap();
    assert_eq!(listed, Response::IndexList(vec![longest]));
}

#[test]
fn semantic_errors_are_typed_remote_errors_and_the_connection_survives() {
    let (server, _registry) = serving_fixture();
    let mut client = Client::connect(server.local_addr()).unwrap();

    let err = client.query("nope", &[1.0, 2.0], 8, 2).unwrap_err();
    assert!(
        matches!(&err, ServeError::Remote { code: ErrorCode::UnknownIndex, message } if message.contains("nope")),
        "got {err:?}"
    );

    let err = client.query("main", &[1.0, 2.0, 3.0], 8, 2).unwrap_err();
    assert!(
        matches!(
            err,
            ServeError::Remote {
                code: ErrorCode::DimMismatch,
                ..
            }
        ),
        "got {err:?}"
    );

    let err = client.query("main", &[1.0, 2.0], 0, 2).unwrap_err();
    assert!(
        matches!(
            err,
            ServeError::Remote {
                code: ErrorCode::BadRequest,
                ..
            }
        ),
        "got {err:?}"
    );

    let err = client.query("main", &[f64::NAN, 2.0], 8, 2).unwrap_err();
    assert!(
        matches!(
            err,
            ServeError::Remote {
                code: ErrorCode::BadRequest,
                ..
            }
        ),
        "got {err:?}"
    );

    let err = client.info("ghost").unwrap_err();
    assert!(
        matches!(
            err,
            ServeError::Remote {
                code: ErrorCode::UnknownIndex,
                ..
            }
        ),
        "got {err:?}"
    );

    // The connection served five rejections and still works.
    client.ping().unwrap();
}

#[test]
fn oversized_length_prefix_gets_a_final_error_frame_then_close() {
    let (server, _registry) = serving_fixture();
    let mut client = Client::connect(server.local_addr()).unwrap();

    // Just a length prefix declaring more than MAX_FRAME_LEN. The server
    // cannot resync past a length it refuses, so it answers and hangs up.
    let prefix = (MAX_FRAME_LEN + 1).to_le_bytes().to_vec();
    match client.call_raw(&prefix).unwrap() {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::FrameTooLarge),
        other => panic!("expected an error frame, got {other:?}"),
    }
    let err = client.ping().unwrap_err();
    assert!(
        matches!(err, ServeError::ConnectionClosed | ServeError::Io(_)),
        "expected the connection closed, got {err:?}"
    );
}

#[test]
fn below_minimum_length_prefix_gets_a_final_error_frame_then_close() {
    let (server, _registry) = serving_fixture();
    let mut client = Client::connect(server.local_addr()).unwrap();
    match client.call_raw(&5u32.to_le_bytes()).unwrap() {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::Malformed),
        other => panic!("expected an error frame, got {other:?}"),
    }
    let err = client.ping().unwrap_err();
    assert!(
        matches!(err, ServeError::ConnectionClosed | ServeError::Io(_)),
        "expected the connection closed, got {err:?}"
    );
}
