//! A blocking client for the serving protocol.
//!
//! One [`Client`] wraps one TCP connection and speaks strict
//! request/response: encode a frame, write it, read exactly one frame
//! back. Error frames from the server come back as
//! [`ServeError::Remote`] with the wire [`ErrorCode`](crate::error::ErrorCode)
//! and the server's message — the connection stays usable afterwards
//! (unless the error was a framing failure the server had to close on).
//!
//! [`RetryingClient`] wraps the same operations in a typed retry loop:
//! errors classified transient by [`ServeError::is_retryable`] (transport
//! failures, `Overloaded` shedding, a contained worker panic) are retried
//! up to [`RetryPolicy::max_retries`] times with a deterministic capped
//! exponential backoff, reconnecting when the transport itself failed;
//! deterministic errors (bad request, unknown index) surface immediately.

use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::error::{malformed, ServeError};
use crate::protocol::{
    check_name, decode_response, encode_request, read_frame, write_frame, IndexInfo, QueryReply,
    Request, Response,
};

/// A connected client. Not thread-safe by design — one connection carries
/// one request at a time; open more clients for concurrency (past one
/// connection per core, that is what makes the server form groups).
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connects to a serving endpoint.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client { stream })
    }

    /// Sends a pre-encoded frame and decodes the response frame — the raw
    /// escape hatch the corruption tests use to put arbitrary bytes on the
    /// wire and observe the server's typed reaction.
    pub fn call_raw(&mut self, frame: &[u8]) -> Result<Response, ServeError> {
        write_frame(&mut self.stream, frame)?;
        let reply = read_frame(&mut self.stream)?;
        decode_response(&reply)
    }

    /// Sends one request and returns the server's response, mapping error
    /// frames to [`ServeError::Remote`]. A request naming an index longer
    /// than a frame can carry fails with [`ServeError::NameTooLong`] before
    /// anything is sent.
    pub fn call(&mut self, request: &Request) -> Result<Response, ServeError> {
        if let Request::Query { index, .. } | Request::Info { index } = request {
            check_name(index)?;
        }
        match self.call_raw(&encode_request(request))? {
            Response::Error { code, message } => Err(ServeError::Remote { code, message }),
            response => Ok(response),
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ServeError> {
        match self.call(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(unexpected("Pong", &other)),
        }
    }

    /// Runs one `k`-NN query against the named index.
    pub fn query(
        &mut self,
        index: &str,
        coords: &[f64],
        ef: u32,
        k: u32,
    ) -> Result<QueryReply, ServeError> {
        let request = Request::Query {
            index: index.into(),
            ef,
            k,
            coords: coords.to_vec(),
        };
        match self.call(&request)? {
            Response::Query(reply) => Ok(reply),
            other => Err(unexpected("QueryOk", &other)),
        }
    }

    /// Fetches metadata for the named index.
    pub fn info(&mut self, index: &str) -> Result<IndexInfo, ServeError> {
        let request = Request::Info {
            index: index.into(),
        };
        match self.call(&request)? {
            Response::Info(info) => Ok(info),
            other => Err(unexpected("InfoOk", &other)),
        }
    }

    /// Lists the registered index names (sorted).
    pub fn list(&mut self) -> Result<Vec<String>, ServeError> {
        match self.call(&Request::ListIndexes)? {
            Response::IndexList(names) => Ok(names),
            other => Err(unexpected("IndexList", &other)),
        }
    }
}

fn unexpected(wanted: &str, got: &Response) -> ServeError {
    malformed(format!("expected a {wanted} response, got {got:?}"))
}

/// A deterministic retry schedule: how many retries, and a capped
/// exponential backoff between attempts. No jitter by design — the
/// workspace's reproducibility discipline extends to failure handling,
/// and the cap plays the role jitter usually does (bounding synchronized
/// retry bursts) at the scale served here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the first attempt (so `max_retries + 1` attempts
    /// total).
    pub max_retries: u32,
    /// Backoff before the first retry; doubles per subsequent retry.
    pub backoff_start: Duration,
    /// Upper bound the doubling never exceeds.
    pub backoff_cap: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            backoff_start: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(200),
        }
    }
}

impl RetryPolicy {
    /// The backoff before retry number `attempt` (0-based):
    /// `min(backoff_start · 2^attempt, backoff_cap)`.
    pub fn backoff(&self, attempt: u32) -> Duration {
        let doubled = self.backoff_start.saturating_mul(1u32 << attempt.min(16));
        doubled.min(self.backoff_cap)
    }
}

/// A [`Client`] wrapped in the [`RetryPolicy`] loop, reconnecting as
/// needed.
///
/// Retrying is safe because every serving operation is a read-only query:
/// an ambiguous outcome (the connection died after the request may have
/// executed) cannot double-apply anything, so transport failures simply
/// retry. Errors that are deterministic — malformed requests, unknown
/// indexes, dimension mismatches — fail fast on the first attempt.
///
/// The connection is lazy: nothing is dialed until the first operation,
/// and a transport-level failure drops the connection so the next attempt
/// redials (the server may have restarted, or this connection may be the
/// one a slow-writer disconnect severed).
#[derive(Debug)]
pub struct RetryingClient {
    addr: SocketAddr,
    policy: RetryPolicy,
    conn: Option<Client>,
    retries: u64,
}

impl RetryingClient {
    /// Creates a retrying client for `addr` (resolved once, here). No
    /// connection is made until the first operation.
    pub fn connect(addr: impl ToSocketAddrs, policy: RetryPolicy) -> std::io::Result<Self> {
        let addr = addr.to_socket_addrs()?.next().ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "address resolved to nothing",
            )
        })?;
        Ok(RetryingClient {
            addr,
            policy,
            conn: None,
            retries: 0,
        })
    }

    /// Total retries performed over this client's lifetime (attempts
    /// beyond the first, across all operations) — how tests observe
    /// that recovery actually exercised the loop.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// The retry loop shared by every operation.
    fn with_retry<T>(
        &mut self,
        op: impl Fn(&mut Client) -> Result<T, ServeError>,
    ) -> Result<T, ServeError> {
        let mut attempt = 0u32;
        loop {
            let result = match self.conn.as_mut() {
                Some(client) => op(client),
                None => match Client::connect(self.addr) {
                    Ok(mut client) => {
                        let result = op(&mut client);
                        self.conn = Some(client);
                        result
                    }
                    Err(e) => Err(ServeError::Io(e)),
                },
            };
            match result {
                Ok(value) => return Ok(value),
                Err(err) if err.is_retryable() && attempt < self.policy.max_retries => {
                    if transport_failed(&err) {
                        // The stream may hold half a frame; redial rather
                        // than resync.
                        self.conn = None;
                    }
                    std::thread::sleep(self.policy.backoff(attempt));
                    attempt += 1;
                    self.retries += 1;
                }
                Err(err) => return Err(err),
            }
        }
    }

    /// [`Client::ping`] with retries.
    pub fn ping(&mut self) -> Result<(), ServeError> {
        self.with_retry(|c| c.ping())
    }

    /// [`Client::query`] with retries.
    pub fn query(
        &mut self,
        index: &str,
        coords: &[f64],
        ef: u32,
        k: u32,
    ) -> Result<QueryReply, ServeError> {
        self.with_retry(|c| c.query(index, coords, ef, k))
    }

    /// [`Client::info`] with retries.
    pub fn info(&mut self, index: &str) -> Result<IndexInfo, ServeError> {
        self.with_retry(|c| c.info(index))
    }

    /// [`Client::list`] with retries.
    pub fn list(&mut self) -> Result<Vec<String>, ServeError> {
        self.with_retry(|c| c.list())
    }
}

/// Whether the error means the *connection* (not the request) is suspect,
/// so the retry should redial instead of reusing the stream.
fn transport_failed(err: &ServeError) -> bool {
    matches!(
        err,
        ServeError::Io(_) | ServeError::ConnectionClosed | ServeError::Truncated { .. }
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_then_caps() {
        let policy = RetryPolicy {
            max_retries: 10,
            backoff_start: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(70),
        };
        assert_eq!(policy.backoff(0), Duration::from_millis(10));
        assert_eq!(policy.backoff(1), Duration::from_millis(20));
        assert_eq!(policy.backoff(2), Duration::from_millis(40));
        assert_eq!(policy.backoff(3), Duration::from_millis(70));
        assert_eq!(policy.backoff(30), Duration::from_millis(70), "cap holds");
    }

    #[test]
    fn fatal_errors_do_not_retry_and_connect_is_lazy() {
        // Nothing listens on this port-0-adjacent address; connect() must
        // still succeed because dialing is deferred to the first call.
        let mut client =
            RetryingClient::connect("127.0.0.1:1", RetryPolicy::default()).expect("lazy connect");
        assert_eq!(client.retries(), 0);
        // Exhausting retries against a dead endpoint counts each attempt.
        let err = client.ping().expect_err("nothing is listening");
        assert!(err.is_retryable(), "refused connections are transient");
        assert_eq!(client.retries(), RetryPolicy::default().max_retries as u64);
    }
}
