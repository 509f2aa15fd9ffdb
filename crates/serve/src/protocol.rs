//! The wire protocol: versioned, length-prefixed, checksummed frames.
//!
//! One frame is one request or one response. Everything is
//! **little-endian**, and the layout is fixed:
//!
//! ```text
//! offset  size          field
//! 0       4             frame_len: u32   — bytes that follow this field
//! 4       frame_len-8   payload          — version: u8, kind: u8, body
//! 4+len-8 8             checksum: u64    — FNV-1a 64 of the payload
//! ```
//!
//! The checksum is [`pg_store::checksum`] — the same FNV-1a 64 every
//! on-disk format in this workspace uses, so one implementation of the
//! hash validates snapshots, ground-truth caches, and network frames
//! alike. The checksum is verified **before** the version or kind byte is
//! interpreted, mirroring `pg_store`'s section gates: corrupt bytes fail
//! as corruption, not as whatever structure they happen to resemble.
//!
//! Frame kinds `0..=127` are requests, `128..=255` are responses (see
//! [`Request`] and [`Response`] for the per-kind body layouts, documented
//! field by field in `ARCHITECTURE.md` § "Serving protocol"). Decoding is
//! **total**: any byte sequence either parses completely or returns a
//! typed [`ServeError`] — no panic, no partial value — pinned by the
//! exhaustive truncation/byte-flip suite in `tests/corruption.rs`.
//!
//! ```
//! use pg_serve::protocol::{decode_request, encode_request, Request};
//!
//! let req = Request::Query {
//!     index: "main".into(),
//!     ef: 32,
//!     k: 10,
//!     coords: vec![1.0, 2.5],
//! };
//! let frame = encode_request(&req);
//! assert_eq!(decode_request(&frame).unwrap(), req);
//! ```

use std::io::{Read, Write};

use pg_store::checksum;
use pg_store::codec::{push, push_all, Reader};

use crate::error::{malformed, ErrorCode, ServeError};

/// The protocol version this crate speaks. Readers accept exactly the
/// versions they know and reject anything else with
/// [`ServeError::UnsupportedVersion`] — a new layout means a version bump,
/// never a silent reinterpretation (the `pg_store` versioning rule).
pub const PROTOCOL_VERSION: u8 = 1;

/// Upper bound on the declared `frame_len` (16 MiB). A peer announcing
/// more is answered with [`ServeError::FrameTooLarge`] and the connection
/// closes: past a refused length there is no way to resync the stream.
pub const MAX_FRAME_LEN: u32 = 1 << 24;

/// The smallest legal `frame_len`: a version byte, a kind byte, and the
/// 8-byte checksum.
pub const MIN_FRAME_LEN: u32 = 2 + 8;

/// Bytes of the `frame_len` prefix itself.
pub const LEN_PREFIX: usize = 4;

/// The longest string field, in UTF-8 bytes: a string is written behind a
/// `u16` length. Index names longer than this are refused where they
/// enter (registry, client, [`check_name`]); error messages are cut to it.
pub const MAX_STRING_LEN: usize = u16::MAX as usize;

/// Refuses an index name that a frame cannot carry, with
/// [`ServeError::NameTooLong`].
pub fn check_name(name: &str) -> Result<(), ServeError> {
    match name.len() {
        len if len > MAX_STRING_LEN => Err(ServeError::NameTooLong { len }),
        _ => Ok(()),
    }
}

// Frame kinds. Requests are 0..=127, responses 128..=255; codes are frozen
// forever (new message types append new codes).
const KIND_PING: u8 = 0;
const KIND_QUERY: u8 = 1;
const KIND_INFO: u8 = 2;
const KIND_LIST: u8 = 3;
const KIND_PONG: u8 = 128;
const KIND_QUERY_OK: u8 = 129;
const KIND_INFO_OK: u8 = 130;
const KIND_LIST_OK: u8 = 131;
const KIND_ERROR: u8 = 132;

/// A client-to-server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe; the server answers [`Response::Pong`].
    /// Body: empty.
    Ping,
    /// A single `k`-NN query against the named index.
    /// Body: `index` string, `ef: u32`, `k: u32`, `dims: u32`,
    /// `dims × f64` coordinates.
    Query {
        /// The tenant index to route to.
        index: String,
        /// Beam width (see `pg_core::beam_search_detailed`).
        ef: u32,
        /// Number of neighbors to return.
        k: u32,
        /// The query point.
        coords: Vec<f64>,
    },
    /// Metadata about the named index (answered with [`Response::Info`]).
    /// Body: `index` string.
    Info {
        /// The tenant index to describe.
        index: String,
    },
    /// The sorted list of registered index names.
    /// Body: empty.
    ListIndexes,
}

/// The payload of a successful query response.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryReply {
    /// The snapshot generation that answered (see
    /// `pg_serve::registry::IndexRegistry`): strictly increasing per
    /// hot-swap, so a client — or the hot-swap test — can attribute every
    /// answer to exactly one snapshot.
    pub epoch: u64,
    /// Distance computations this query cost.
    pub dist_comps: u64,
    /// Vertices whose neighbor list was scanned.
    pub expansions: u64,
    /// `(id, dist)` pairs, ascending by distance with ties by id — exactly
    /// the order `QueryEngine::batch_beam_detailed` returns.
    pub results: Vec<(u32, f64)>,
}

/// The payload of an index-info response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexInfo {
    /// Current snapshot generation.
    pub epoch: u64,
    /// Number of indexed points.
    pub n: u64,
    /// Point dimensionality.
    pub dims: u32,
    /// The `pg_store::MetricTag` code of the index's metric.
    pub metric_code: u32,
    /// The routing entry point queries start from.
    pub entry_point: u32,
}

/// A server-to-client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Answer to [`Request::Ping`]. Body: empty.
    Pong,
    /// Answer to [`Request::Query`]. Body: `epoch: u64`,
    /// `dist_comps: u64`, `expansions: u64`, `count: u32`,
    /// `count × (id: u32, dist: f64)`.
    Query(QueryReply),
    /// Answer to [`Request::Info`]. Body: `epoch: u64`, `n: u64`,
    /// `dims: u32`, `metric_code: u32`, `entry_point: u32`.
    Info(IndexInfo),
    /// Answer to [`Request::ListIndexes`]. Body: `count: u32`, then
    /// `count` strings.
    IndexList(Vec<String>),
    /// The request failed. Body: `code: u16` ([`ErrorCode`]), message
    /// string. The connection stays open unless the error is a framing
    /// failure the stream cannot recover from.
    Error {
        /// The typed failure class.
        code: ErrorCode,
        /// The server's rendering of its local error.
        message: String,
    },
}

// ---------------------------------------------------------------------------
// Frame layer (fixed-width fields go through `pg_store::codec`)
// ---------------------------------------------------------------------------

/// Appends a string field: `len: u16`, then that many UTF-8 bytes.
///
/// # Panics
/// If `s` is longer than [`MAX_STRING_LEN`] bytes: its length would wrap
/// and the peer would read a malformed frame.
fn push_str(buf: &mut Vec<u8>, s: &str) {
    assert!(
        s.len() <= MAX_STRING_LEN,
        "a {}-byte string does not fit a string field",
        s.len()
    );
    push(buf, s.len() as u16);
    buf.extend_from_slice(s.as_bytes());
}

/// The longest prefix of `s` a string field carries, cut at a char
/// boundary.
fn fit_str(s: &str) -> &str {
    let mut end = s.len().min(MAX_STRING_LEN);
    while !s.is_char_boundary(end) {
        end -= 1;
    }
    s.get(..end).unwrap_or_default()
}

/// Reads a string field written by [`push_str`].
fn read_str(cur: &mut Reader<'_>, context: &'static str) -> Result<String, ServeError> {
    let len: u16 = cur.read(context)?;
    let bytes = cur.take(len.into(), context)?;
    String::from_utf8(bytes.to_vec()).map_err(|_| malformed(format!("{context} is not UTF-8")))
}

/// Refuses bytes left over after `what`.
fn finish(cur: &Reader<'_>, what: &str) -> Result<(), ServeError> {
    match cur.rest().len() {
        0 => Ok(()),
        left => Err(malformed(format!("{left} trailing bytes after {what}"))),
    }
}

/// Refuses a declared `frame_len` outside `MIN_FRAME_LEN..=MAX_FRAME_LEN`.
fn check_frame_len(frame_len: u32) -> Result<(), ServeError> {
    if frame_len < MIN_FRAME_LEN {
        return Err(malformed(format!(
            "declared frame length {frame_len} is below the {MIN_FRAME_LEN}-byte minimum"
        )));
    }
    if frame_len > MAX_FRAME_LEN {
        return Err(ServeError::FrameTooLarge {
            len: frame_len as u64,
        });
    }
    Ok(())
}

/// Wraps `kind` + `body` in a complete frame: length prefix, version and
/// kind bytes, payload checksum.
fn encode_frame(kind: u8, body: &[u8]) -> Vec<u8> {
    let frame_len = (2 + body.len() + 8) as u32;
    debug_assert!(frame_len <= MAX_FRAME_LEN, "frame exceeds MAX_FRAME_LEN");
    let mut out = Vec::with_capacity(LEN_PREFIX + frame_len as usize);
    push(&mut out, frame_len);
    out.push(PROTOCOL_VERSION);
    out.push(kind);
    out.extend_from_slice(body);
    let sum = checksum(out.get(LEN_PREFIX..).unwrap_or_default());
    push(&mut out, sum);
    out
}

/// Splits one complete frame into its kind byte and body slice, verifying
/// the length bounds, the checksum (before anything else is interpreted),
/// and the version byte. `frame` must be exactly one frame — trailing
/// bytes are an error, so a corrupted length prefix cannot silently
/// re-segment the stream.
fn decode_frame(frame: &[u8]) -> Result<(u8, &[u8]), ServeError> {
    let mut cur = Reader::new(frame);
    let frame_len: u32 = cur.read("frame length")?;
    check_frame_len(frame_len)?;
    let rest = cur.take(frame_len as usize, "frame payload")?;
    finish(&cur, "the frame")?;
    // `frame_len >= MIN_FRAME_LEN` leaves room for the checksum and the
    // version and kind bytes; the `else` arms only name what is missing.
    let Some((payload, stored)) = rest.split_last_chunk() else {
        return Err(ServeError::Truncated {
            context: "frame checksum",
        });
    };
    if checksum(payload) != u64::from_le_bytes(*stored) {
        return Err(ServeError::ChecksumMismatch);
    }
    let [version, kind, body @ ..] = payload else {
        return Err(ServeError::Truncated {
            context: "frame header",
        });
    };
    if *version != PROTOCOL_VERSION {
        return Err(ServeError::UnsupportedVersion { found: *version });
    }
    Ok((*kind, body))
}

/// Writes a pre-encoded frame to a sink in one call.
pub fn write_frame(w: &mut impl Write, frame: &[u8]) -> std::io::Result<()> {
    w.write_all(frame)?;
    w.flush()
}

/// Reads exactly one frame from a blocking stream: the 4-byte length
/// prefix, then the declared remainder. A clean EOF **at** a frame
/// boundary is [`ServeError::ConnectionClosed`]; EOF mid-frame is
/// [`ServeError::Truncated`]. Length bounds are enforced before the body
/// is read, so a hostile prefix cannot force a 4 GiB allocation.
pub fn read_frame(r: &mut impl Read) -> Result<Vec<u8>, ServeError> {
    let mut prefix = [0u8; LEN_PREFIX];
    let mut filled = 0;
    while let Some(unfilled @ [_, ..]) = prefix.get_mut(filled..) {
        match r.read(unfilled)? {
            0 if filled == 0 => return Err(ServeError::ConnectionClosed),
            0 => {
                return Err(ServeError::Truncated {
                    context: "frame length",
                })
            }
            got => filled += got,
        }
    }
    let frame_len = u32::from_le_bytes(prefix);
    check_frame_len(frame_len)?;
    let mut frame = vec![0u8; LEN_PREFIX + frame_len as usize];
    let Some((head, body)) = frame.split_first_chunk_mut() else {
        return Err(ServeError::Truncated {
            context: "frame length",
        });
    };
    *head = prefix;
    r.read_exact(body).map_err(|e| match e.kind() {
        std::io::ErrorKind::UnexpectedEof => ServeError::Truncated {
            context: "frame payload",
        },
        _ => ServeError::Io(e),
    })?;
    Ok(frame)
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// Encodes a request as one complete frame.
///
/// # Panics
/// If the request names an index longer than [`MAX_STRING_LEN`] bytes
/// ([`check_name`] is the fallible check; the client makes it).
pub fn encode_request(req: &Request) -> Vec<u8> {
    match req {
        Request::Ping => encode_frame(KIND_PING, &[]),
        Request::Query {
            index,
            ef,
            k,
            coords,
        } => {
            let mut body = Vec::with_capacity(2 + index.len() + 12 + 8 * coords.len());
            push_str(&mut body, index);
            push(&mut body, *ef);
            push(&mut body, *k);
            push(&mut body, coords.len() as u32);
            push_all(&mut body, coords);
            encode_frame(KIND_QUERY, &body)
        }
        Request::Info { index } => {
            let mut body = Vec::with_capacity(2 + index.len());
            push_str(&mut body, index);
            encode_frame(KIND_INFO, &body)
        }
        Request::ListIndexes => encode_frame(KIND_LIST, &[]),
    }
}

/// Decodes one complete request frame. Total: every input either parses or
/// returns a typed [`ServeError`]; response kinds are
/// [`ServeError::UnknownKind`] here (and vice versa), so a confused peer
/// fails loudly instead of cross-interpreting.
pub fn decode_request(frame: &[u8]) -> Result<Request, ServeError> {
    let (kind, body) = decode_frame(frame)?;
    let mut cur = Reader::new(body);
    let req = match kind {
        KIND_PING => Request::Ping,
        KIND_QUERY => {
            let index = read_str(&mut cur, "index name")?;
            let (ef, k) = (cur.read("ef")?, cur.read("k")?);
            let dims = cur.read::<u32>("query dims")? as usize;
            // Exact-size check before allocating: the remaining bytes must
            // be exactly the declared coordinates.
            if cur.exactly(&[(dims, 8)]).is_err() {
                return Err(malformed(format!(
                    "query declares {dims} coordinates but carries {} payload bytes",
                    cur.rest().len()
                )));
            }
            Request::Query {
                index,
                ef,
                k,
                coords: cur.array(dims, "query coordinate")?,
            }
        }
        KIND_INFO => Request::Info {
            index: read_str(&mut cur, "index name")?,
        },
        KIND_LIST => Request::ListIndexes,
        other => return Err(ServeError::UnknownKind { kind: other }),
    };
    finish(&cur, "the request body")?;
    Ok(req)
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

/// Encodes a response as one complete frame. An error message longer
/// than [`MAX_STRING_LEN`] bytes is cut, at a char boundary, to fit.
///
/// # Panics
/// If an index list holds a name longer than [`MAX_STRING_LEN`] bytes
/// (an [`IndexRegistry`](crate::registry::IndexRegistry) refuses those).
pub fn encode_response(resp: &Response) -> Vec<u8> {
    match resp {
        Response::Pong => encode_frame(KIND_PONG, &[]),
        Response::Query(reply) => {
            let mut body = Vec::with_capacity(28 + 12 * reply.results.len());
            push(&mut body, reply.epoch);
            push(&mut body, reply.dist_comps);
            push(&mut body, reply.expansions);
            push(&mut body, reply.results.len() as u32);
            for &(id, dist) in &reply.results {
                push(&mut body, id);
                push(&mut body, dist);
            }
            encode_frame(KIND_QUERY_OK, &body)
        }
        Response::Info(info) => {
            let mut body = Vec::with_capacity(28);
            push(&mut body, info.epoch);
            push(&mut body, info.n);
            push(&mut body, info.dims);
            push(&mut body, info.metric_code);
            push(&mut body, info.entry_point);
            encode_frame(KIND_INFO_OK, &body)
        }
        Response::IndexList(names) => {
            let mut body = Vec::with_capacity(4 + names.iter().map(|n| 2 + n.len()).sum::<usize>());
            push(&mut body, names.len() as u32);
            for n in names {
                push_str(&mut body, n);
            }
            encode_frame(KIND_LIST_OK, &body)
        }
        Response::Error { code, message } => {
            let message = fit_str(message);
            let mut body = Vec::with_capacity(4 + message.len());
            push(&mut body, code.code());
            push_str(&mut body, message);
            encode_frame(KIND_ERROR, &body)
        }
    }
}

/// Decodes one complete response frame (total, like [`decode_request`]).
pub fn decode_response(frame: &[u8]) -> Result<Response, ServeError> {
    let (kind, body) = decode_frame(frame)?;
    let mut cur = Reader::new(body);
    let resp = match kind {
        KIND_PONG => Response::Pong,
        KIND_QUERY_OK => {
            let (epoch, dist_comps) = (cur.read("epoch")?, cur.read("dist comps")?);
            let expansions = cur.read("expansions")?;
            let count = cur.read::<u32>("result count")? as usize;
            if cur.exactly(&[(count, 4 + 8)]).is_err() {
                return Err(malformed(format!(
                    "query reply declares {count} results but carries {} payload bytes",
                    cur.rest().len()
                )));
            }
            let mut results = Vec::with_capacity(count);
            for _ in 0..count {
                results.push((cur.read("result id")?, cur.read("result distance")?));
            }
            Response::Query(QueryReply {
                epoch,
                dist_comps,
                expansions,
                results,
            })
        }
        KIND_INFO_OK => Response::Info(IndexInfo {
            epoch: cur.read("epoch")?,
            n: cur.read("n")?,
            dims: cur.read("dims")?,
            metric_code: cur.read("metric code")?,
            entry_point: cur.read("entry point")?,
        }),
        KIND_LIST_OK => {
            let count = cur.read::<u32>("index count")? as usize;
            // Each name needs at least its 2-byte length; bound before
            // allocating.
            if count > cur.rest().len() / 2 {
                return Err(malformed(format!(
                    "index list declares {count} names but carries {} payload bytes",
                    cur.rest().len()
                )));
            }
            let mut names = Vec::with_capacity(count);
            for _ in 0..count {
                names.push(read_str(&mut cur, "index name")?);
            }
            Response::IndexList(names)
        }
        KIND_ERROR => {
            let raw = cur.read("error code")?;
            let code = ErrorCode::from_code(raw)
                .ok_or_else(|| malformed(format!("unknown error code {raw}")))?;
            let message = read_str(&mut cur, "error message")?;
            Response::Error { code, message }
        }
        other => return Err(ServeError::UnknownKind { kind: other }),
    };
    finish(&cur, "the response body")?;
    Ok(resp)
}

/// The error frame a server sends for a local failure.
pub fn error_response(err: &ServeError) -> Response {
    Response::Error {
        code: ErrorCode::for_error(err),
        message: err.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_layout_is_as_documented() {
        let frame = encode_frame(KIND_PING, &[]);
        // len prefix + version + kind + checksum.
        assert_eq!(frame.len(), 4 + 2 + 8);
        assert_eq!(u32::from_le_bytes(frame[..4].try_into().unwrap()), 10);
        assert_eq!(frame[4], PROTOCOL_VERSION);
        assert_eq!(frame[5], KIND_PING);
        let sum = u64::from_le_bytes(frame[6..14].try_into().unwrap());
        assert_eq!(sum, checksum(&frame[4..6]));
    }

    #[test]
    fn requests_roundtrip() {
        let reqs = [
            Request::Ping,
            Request::Query {
                index: "main".into(),
                ef: 64,
                k: 10,
                coords: vec![0.5, -3.25, 1e300],
            },
            Request::Info {
                index: "tenant-a".into(),
            },
            Request::ListIndexes,
        ];
        for req in reqs {
            let frame = encode_request(&req);
            assert_eq!(decode_request(&frame).unwrap(), req, "{req:?}");
        }
    }

    #[test]
    fn responses_roundtrip() {
        let resps = [
            Response::Pong,
            Response::Query(QueryReply {
                epoch: 7,
                dist_comps: 123,
                expansions: 17,
                results: vec![(3, 0.25), (9, 1.5)],
            }),
            Response::Info(IndexInfo {
                epoch: 2,
                n: 4000,
                dims: 8,
                metric_code: 0,
                entry_point: 17,
            }),
            Response::IndexList(vec!["a".into(), "b".into()]),
            Response::Error {
                code: ErrorCode::UnknownIndex,
                message: "unknown index \"x\"".into(),
            },
        ];
        for resp in resps {
            let frame = encode_response(&resp);
            assert_eq!(decode_response(&frame).unwrap(), resp, "{resp:?}");
        }
    }

    #[test]
    fn an_error_message_too_long_for_its_field_is_cut_at_a_char_boundary() {
        // 35 000 two-byte chars: 70 000 bytes, and the 65 535-byte limit
        // falls inside a char.
        let long = "é".repeat(35_000);
        let frame = encode_response(&Response::Error {
            code: ErrorCode::Internal,
            message: long.clone(),
        });
        match decode_response(&frame).unwrap() {
            Response::Error { code, message } => {
                assert_eq!(code, ErrorCode::Internal);
                assert_eq!(message.len(), MAX_STRING_LEN - 1);
                assert!(long.starts_with(&message));
            }
            other => panic!("expected an error frame, got {other:?}"),
        }
        // A message that fits goes out whole.
        let fits = "x".repeat(MAX_STRING_LEN);
        assert_eq!(fit_str(&fits), fits);
    }

    #[test]
    #[should_panic(expected = "does not fit a string field")]
    fn a_request_naming_an_index_too_long_for_its_field_is_not_encoded() {
        let _ = encode_request(&Request::Info {
            index: "n".repeat(MAX_STRING_LEN + 1),
        });
    }

    #[test]
    fn stream_roundtrip_of_consecutive_frames() {
        let mut buf = Vec::new();
        let a = encode_request(&Request::Ping);
        let b = encode_request(&Request::Info { index: "m".into() });
        write_frame(&mut buf, &a).unwrap();
        write_frame(&mut buf, &b).unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap(), a);
        assert_eq!(read_frame(&mut r).unwrap(), b);
        assert!(matches!(
            read_frame(&mut r),
            Err(ServeError::ConnectionClosed)
        ));
    }

    #[test]
    fn oversized_declared_length_is_refused_before_reading_the_body() {
        let bytes = (MAX_FRAME_LEN + 1).to_le_bytes();
        // No body at all: the bound check must fire first.
        let mut r = &bytes[..];
        assert!(matches!(
            read_frame(&mut r),
            Err(ServeError::FrameTooLarge { .. })
        ));
        assert!(matches!(
            decode_frame(&bytes),
            Err(ServeError::FrameTooLarge { .. })
        ));
    }

    #[test]
    fn cross_decoding_request_and_response_kinds_fails_loudly() {
        let req = encode_request(&Request::Ping);
        assert!(matches!(
            decode_response(&req),
            Err(ServeError::UnknownKind { kind: KIND_PING })
        ));
        let resp = encode_response(&Response::Pong);
        assert!(matches!(
            decode_request(&resp),
            Err(ServeError::UnknownKind { kind: KIND_PONG })
        ));
    }

    #[test]
    fn version_is_checked_after_the_checksum() {
        // Patch the version byte and re-stamp the checksum: the decoder
        // must now reject on version, proving corrupt bytes fail as
        // corruption and only authentic version bumps as version errors.
        let mut frame = encode_request(&Request::Ping);
        frame[4] = 9;
        let payload_end = frame.len() - 8;
        let sum = checksum(&frame[4..payload_end]);
        frame[payload_end..].copy_from_slice(&sum.to_le_bytes());
        assert!(matches!(
            decode_request(&frame),
            Err(ServeError::UnsupportedVersion { found: 9 })
        ));
    }
}
