//! The typed failure surface of the serving layer.
//!
//! Everything that can go wrong between two `pg_serve` endpoints — a
//! malformed frame, a corrupt payload, an unknown index name, a query with
//! the wrong dimensionality — is a [`ServeError`] variant. The protocol
//! layer **never panics on untrusted bytes** (the same discipline as
//! `pg_store::SnapshotError`), and the server maps every error onto a wire
//! [`ErrorCode`] so clients get the variant back, not a dropped connection.

use std::fmt;

use pg_store::codec::Truncated;
use pg_store::SnapshotError;

/// Every way serving can fail. Decoding untrusted bytes produces only the
/// frame-level variants (`Truncated`, `ChecksumMismatch`,
/// `UnsupportedVersion`, `UnknownKind`, `FrameTooLarge`, `Malformed`);
/// request handling adds the semantic ones (`UnknownIndex`, `DimMismatch`,
/// `BadRequest`); `NameTooLong` is refused where a name enters (registry,
/// client); `Remote` is how a client surfaces an error frame the server
/// sent back.
#[derive(Debug)]
pub enum ServeError {
    /// Underlying socket or file I/O failed.
    Io(std::io::Error),
    /// The peer closed the connection cleanly (EOF at a frame boundary).
    ConnectionClosed,
    /// The bytes ended before a complete structure could be read.
    Truncated {
        /// What was being read when the bytes ran out.
        context: &'static str,
    },
    /// A frame's stored checksum does not match its payload.
    ChecksumMismatch,
    /// The frame's protocol version is not one this endpoint speaks.
    UnsupportedVersion {
        /// The version found in the frame.
        found: u8,
    },
    /// The frame kind byte names no known request or response.
    UnknownKind {
        /// The unknown kind byte.
        kind: u8,
    },
    /// The declared frame length exceeds [`MAX_FRAME_LEN`]. The connection
    /// cannot resync past a length it refuses to read, so the server
    /// answers with an error frame and closes.
    ///
    /// [`MAX_FRAME_LEN`]: crate::protocol::MAX_FRAME_LEN
    FrameTooLarge {
        /// The declared length.
        len: u64,
    },
    /// The bytes parse at the frame level but violate the payload's
    /// structure (bad lengths, non-UTF-8 names, trailing bytes, …).
    Malformed {
        /// Human-readable description of the violation.
        reason: String,
    },
    /// A request named an index the registry does not hold.
    UnknownIndex {
        /// The name the request carried.
        name: String,
    },
    /// An index name longer than a frame's string field carries
    /// ([`MAX_STRING_LEN`](crate::protocol::MAX_STRING_LEN) bytes), refused
    /// before it is registered or sent.
    NameTooLong {
        /// The name's length in bytes.
        len: usize,
    },
    /// A query's coordinate count does not match the index.
    DimMismatch {
        /// The index's dimensionality.
        expected: u32,
        /// The query's coordinate count.
        found: u32,
    },
    /// A structurally valid request with unusable contents (`k` or `ef` of
    /// zero, non-finite coordinates, …).
    BadRequest {
        /// Human-readable description of the problem.
        reason: String,
    },
    /// Loading or validating a snapshot during registration or hot-swap
    /// failed.
    Snapshot(SnapshotError),
    /// The server answered with an error frame; `code` is the wire
    /// [`ErrorCode`] and `message` the server's rendering of its local
    /// [`ServeError`].
    Remote {
        /// The error code from the wire.
        code: ErrorCode,
        /// The server-side error message.
        message: String,
    },
    /// The server is shutting down and no longer accepts work.
    ShuttingDown,
    /// The batcher queue is full and the request was shed instead of
    /// queued. Overload is transient by definition: the request was
    /// refused *before* any work happened, so retrying after a backoff is
    /// always safe.
    Overloaded,
    /// The worker executing the request panicked. The panic was contained
    /// (waiting neighbors still get answers, the search slot is handed on
    /// or released), but this request produced no result.
    WorkerPanicked,
}

impl ServeError {
    /// Whether a client may safely retry the operation that produced this
    /// error.
    ///
    /// Retryable errors are the *transient* ones — transport trouble
    /// (`Io`, `ConnectionClosed`, `Truncated`), refusal before work
    /// happened (`Overloaded`, `ShuttingDown`), a contained worker panic,
    /// and `Remote` frames whose [`ErrorCode`] says the same
    /// ([`ErrorCode::is_retryable`]). Everything else is deterministic —
    /// a malformed frame or an unknown index fails identically on every
    /// attempt, so retrying only wastes work.
    ///
    /// Queries are read-only, which is what makes "retry on transport
    /// failure" safe: an ambiguous outcome (the request may or may not
    /// have executed) cannot double-apply anything.
    pub fn is_retryable(&self) -> bool {
        match self {
            ServeError::Io(_)
            | ServeError::ConnectionClosed
            | ServeError::Truncated { .. }
            | ServeError::ShuttingDown
            | ServeError::Overloaded
            | ServeError::WorkerPanicked => true,
            ServeError::Remote { code, .. } => code.is_retryable(),
            _ => false,
        }
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "serve I/O error: {e}"),
            ServeError::ConnectionClosed => write!(f, "connection closed by peer"),
            ServeError::Truncated { context } => {
                write!(f, "frame truncated while reading {context}")
            }
            ServeError::ChecksumMismatch => write!(f, "frame checksum mismatch"),
            ServeError::UnsupportedVersion { found } => {
                write!(f, "unsupported protocol version {found}")
            }
            ServeError::UnknownKind { kind } => write!(f, "unknown frame kind {kind}"),
            ServeError::FrameTooLarge { len } => {
                write!(f, "declared frame length {len} exceeds the frame limit")
            }
            ServeError::Malformed { reason } => write!(f, "malformed frame: {reason}"),
            ServeError::UnknownIndex { name } => write!(f, "unknown index {name:?}"),
            ServeError::NameTooLong { len } => write!(
                f,
                "a {len}-byte index name exceeds the {}-byte wire limit",
                crate::protocol::MAX_STRING_LEN
            ),
            ServeError::DimMismatch { expected, found } => write!(
                f,
                "query has {found} coordinates, index stores {expected}-dimensional points"
            ),
            ServeError::BadRequest { reason } => write!(f, "bad request: {reason}"),
            ServeError::Snapshot(e) => write!(f, "snapshot error: {e}"),
            ServeError::Remote { code, message } => {
                write!(f, "server error ({code:?}): {message}")
            }
            ServeError::ShuttingDown => write!(f, "server is shutting down"),
            ServeError::Overloaded => {
                write!(f, "server overloaded: request shed before queueing")
            }
            ServeError::WorkerPanicked => {
                write!(f, "worker panicked while executing the request")
            }
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Io(e) => Some(e),
            ServeError::Snapshot(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<SnapshotError> for ServeError {
    fn from(e: SnapshotError) -> Self {
        ServeError::Snapshot(e)
    }
}

impl From<Truncated> for ServeError {
    fn from(t: Truncated) -> Self {
        ServeError::Truncated { context: t.context }
    }
}

/// Helper for the protocol decoders.
pub(crate) fn malformed(reason: impl Into<String>) -> ServeError {
    ServeError::Malformed {
        reason: reason.into(),
    }
}

/// The stable error codes an error frame carries (`u16` on the wire; codes
/// are frozen forever, new failure modes append new codes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// Frame-level structural violation ([`ServeError::Malformed`] or
    /// [`ServeError::Truncated`]).
    Malformed,
    /// [`ServeError::ChecksumMismatch`].
    ChecksumMismatch,
    /// [`ServeError::UnsupportedVersion`].
    UnsupportedVersion,
    /// [`ServeError::UnknownKind`].
    UnknownKind,
    /// [`ServeError::FrameTooLarge`].
    FrameTooLarge,
    /// [`ServeError::UnknownIndex`].
    UnknownIndex,
    /// [`ServeError::DimMismatch`].
    DimMismatch,
    /// [`ServeError::BadRequest`].
    BadRequest,
    /// [`ServeError::ShuttingDown`].
    ShuttingDown,
    /// Anything else the server hit while handling the request (I/O,
    /// snapshot trouble during an admin operation, …).
    Internal,
    /// [`ServeError::Overloaded`] — the request was shed before queueing.
    /// Appended in wire revision 2 of the error table; older clients see
    /// an unknown code and treat it as fatal, which is safe (they just
    /// don't retry).
    Overloaded,
}

impl ErrorCode {
    /// The on-wire `u16` code.
    pub fn code(self) -> u16 {
        match self {
            ErrorCode::Malformed => 1,
            ErrorCode::ChecksumMismatch => 2,
            ErrorCode::UnsupportedVersion => 3,
            ErrorCode::UnknownKind => 4,
            ErrorCode::FrameTooLarge => 5,
            ErrorCode::UnknownIndex => 6,
            ErrorCode::DimMismatch => 7,
            ErrorCode::BadRequest => 8,
            ErrorCode::ShuttingDown => 9,
            ErrorCode::Internal => 10,
            ErrorCode::Overloaded => 11,
        }
    }

    /// Decodes an on-wire code, `None` for unknown codes.
    pub fn from_code(code: u16) -> Option<Self> {
        Some(match code {
            1 => ErrorCode::Malformed,
            2 => ErrorCode::ChecksumMismatch,
            3 => ErrorCode::UnsupportedVersion,
            4 => ErrorCode::UnknownKind,
            5 => ErrorCode::FrameTooLarge,
            6 => ErrorCode::UnknownIndex,
            7 => ErrorCode::DimMismatch,
            8 => ErrorCode::BadRequest,
            9 => ErrorCode::ShuttingDown,
            10 => ErrorCode::Internal,
            11 => ErrorCode::Overloaded,
            _ => return None,
        })
    }

    /// Whether a client may safely retry after receiving this code in an
    /// error frame — the wire-level half of [`ServeError::is_retryable`].
    /// `Overloaded` and `ShuttingDown` are refusals before any work;
    /// `Internal` covers transient server-side trouble (a contained
    /// worker panic, an I/O hiccup) on a read-only request.
    pub fn is_retryable(self) -> bool {
        matches!(
            self,
            ErrorCode::Overloaded | ErrorCode::ShuttingDown | ErrorCode::Internal
        )
    }

    /// The code a server reports for a given local error.
    pub fn for_error(err: &ServeError) -> Self {
        match err {
            ServeError::Truncated { .. } | ServeError::Malformed { .. } => ErrorCode::Malformed,
            ServeError::ChecksumMismatch => ErrorCode::ChecksumMismatch,
            ServeError::UnsupportedVersion { .. } => ErrorCode::UnsupportedVersion,
            ServeError::UnknownKind { .. } => ErrorCode::UnknownKind,
            ServeError::FrameTooLarge { .. } => ErrorCode::FrameTooLarge,
            ServeError::UnknownIndex { .. } => ErrorCode::UnknownIndex,
            ServeError::DimMismatch { .. } => ErrorCode::DimMismatch,
            ServeError::BadRequest { .. } | ServeError::NameTooLong { .. } => ErrorCode::BadRequest,
            ServeError::ShuttingDown => ErrorCode::ShuttingDown,
            ServeError::Overloaded => ErrorCode::Overloaded,
            // WorkerPanicked, Io, Snapshot, …: server-side trouble the
            // wire summarizes as Internal.
            _ => ErrorCode::Internal,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_codes_roundtrip_and_are_stable() {
        let all = [
            (ErrorCode::Malformed, 1),
            (ErrorCode::ChecksumMismatch, 2),
            (ErrorCode::UnsupportedVersion, 3),
            (ErrorCode::UnknownKind, 4),
            (ErrorCode::FrameTooLarge, 5),
            (ErrorCode::UnknownIndex, 6),
            (ErrorCode::DimMismatch, 7),
            (ErrorCode::BadRequest, 8),
            (ErrorCode::ShuttingDown, 9),
            (ErrorCode::Internal, 10),
            (ErrorCode::Overloaded, 11),
        ];
        for (code, wire) in all {
            assert_eq!(code.code(), wire);
            assert_eq!(ErrorCode::from_code(wire), Some(code));
        }
        assert_eq!(ErrorCode::from_code(0), None);
        assert_eq!(ErrorCode::from_code(12), None);
    }

    #[test]
    fn retryability_separates_transient_from_deterministic() {
        // Transient: refusal before work, transport trouble, contained
        // panics.
        for e in [
            ServeError::Overloaded,
            ServeError::ShuttingDown,
            ServeError::WorkerPanicked,
            ServeError::ConnectionClosed,
            ServeError::Io(std::io::Error::other("x")),
            ServeError::Truncated { context: "frame" },
            ServeError::Remote {
                code: ErrorCode::Overloaded,
                message: String::new(),
            },
            ServeError::Remote {
                code: ErrorCode::Internal,
                message: String::new(),
            },
        ] {
            assert!(e.is_retryable(), "{e} should be retryable");
        }
        // Deterministic: the same request fails the same way forever.
        for e in [
            ServeError::ChecksumMismatch,
            ServeError::UnknownIndex { name: "x".into() },
            ServeError::DimMismatch {
                expected: 2,
                found: 3,
            },
            ServeError::BadRequest {
                reason: "k=0".into(),
            },
            ServeError::Remote {
                code: ErrorCode::BadRequest,
                message: String::new(),
            },
        ] {
            assert!(!e.is_retryable(), "{e} should be fatal");
        }
    }

    #[test]
    fn overloaded_maps_to_its_appended_wire_code() {
        assert_eq!(
            ErrorCode::for_error(&ServeError::Overloaded),
            ErrorCode::Overloaded
        );
        assert_eq!(
            ErrorCode::for_error(&ServeError::WorkerPanicked),
            ErrorCode::Internal
        );
        assert_eq!(ErrorCode::Overloaded.code(), 11);
    }

    #[test]
    fn every_error_maps_to_a_code() {
        assert_eq!(
            ErrorCode::for_error(&ServeError::ChecksumMismatch),
            ErrorCode::ChecksumMismatch
        );
        assert_eq!(
            ErrorCode::for_error(&ServeError::UnknownIndex { name: "x".into() }),
            ErrorCode::UnknownIndex
        );
        assert_eq!(
            ErrorCode::for_error(&ServeError::DimMismatch {
                expected: 2,
                found: 3
            }),
            ErrorCode::DimMismatch
        );
        assert_eq!(
            ErrorCode::for_error(&ServeError::Io(std::io::Error::other("x"))),
            ErrorCode::Internal
        );
    }

    #[test]
    fn display_is_informative() {
        let e = ServeError::DimMismatch {
            expected: 8,
            found: 3,
        };
        assert!(e.to_string().contains('8'));
        assert!(e.to_string().contains('3'));
        let e = ServeError::UnknownIndex {
            name: "tenant-a".into(),
        };
        assert!(e.to_string().contains("tenant-a"));
    }
}
