//! The TCP server: accept loop, connection threads, request handling.
//!
//! One thread accepts connections; each connection gets its own handler
//! thread that reads frames, dispatches requests, and writes responses.
//! Queries are answered on the handler threads themselves. With batching
//! on (the default) a handler goes through the [`Batcher`]: it waits, in a
//! bounded queue, for one of the per-core search slots and then answers
//! its query on its own thread. With batching off each handler calls the
//! engine directly, with no bound on concurrent searches and no shedding.
//! Both paths produce structurally identical responses.
//!
//! # Error discipline
//!
//! A malformed request must cost its sender an error frame, not the
//! connection, and never the server. Recoverable failures — a checksum
//! mismatch, an unknown kind, a bad payload, an unknown index — are
//! answered with [`Response::Error`] and the connection keeps serving
//! (pinned by `tests/corruption.rs`). Only two conditions close a
//! connection: the peer going away, and a declared frame length over
//! [`MAX_FRAME_LEN`] — past a refused
//! length the stream cannot be resynchronized, so the server sends a final
//! error frame and hangs up. Handler threads never panic on input; a
//! handler that did panic would take down one connection, not the process.

use std::io::Read;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use pg_metric::FlatRow;

use crate::batcher::{run_protected, Batcher, BatcherStats};
use crate::error::ServeError;
use crate::protocol::{
    decode_request, encode_response, error_response, write_frame, IndexInfo, Request, Response,
    LEN_PREFIX, MAX_FRAME_LEN, MIN_FRAME_LEN,
};
use crate::registry::IndexRegistry;
use crate::sites;

/// How long a blocked read waits before re-checking the shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(20);

/// Server tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Route queries through the [`Batcher`] (default) — at most one
    /// search per core at a time, the rest waiting in a bounded queue — or
    /// run each one directly on its connection thread, unbounded.
    /// `exp_serve` measures the two against each other at 1 to 16·cores
    /// connections; correctness is identical either way.
    pub batching: bool,
    /// Largest number of queries that may wait for a search slot at once
    /// (default 1024). A request that would exceed it is refused with an
    /// `Overloaded` error frame instead of queueing without bound — load
    /// shedding keeps latency and memory bounded under overload. `0`
    /// sheds every batched query, free slots or not (lame-duck mode).
    /// Ignored when `batching` is off: the unbatched path has no queue,
    /// its natural bound is one in-flight query per connection.
    pub max_queue: usize,
    /// How long a response write may block before the peer is declared
    /// slow and disconnected (default 5 s). A peer that stops reading
    /// otherwise pins a connection thread (and its kernel send buffer)
    /// forever. `Duration::ZERO` disables the timeout.
    pub write_timeout: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            batching: true,
            max_queue: 1024,
            write_timeout: Duration::from_secs(5),
        }
    }
}

#[derive(Debug)]
struct ServerShared {
    registry: Arc<IndexRegistry>,
    batcher: Option<Batcher>,
    shutdown: AtomicBool,
    write_timeout: Duration,
}

/// A running server: an accept thread plus one handler thread per live
/// connection. Dropping the server (or calling [`Server::shutdown`]) stops
/// accepting, unblocks every handler, and joins all threads.
#[derive(Debug)]
pub struct Server {
    addr: SocketAddr,
    shared: Arc<ServerShared>,
    accept: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port — see
    /// [`Server::local_addr`]) and starts serving the registry's indexes.
    pub fn bind(
        addr: impl ToSocketAddrs,
        registry: Arc<IndexRegistry>,
        config: ServeConfig,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        // Non-blocking accept so the loop can observe shutdown without a
        // wake-up connection.
        listener.set_nonblocking(true)?;
        let shared = Arc::new(ServerShared {
            registry,
            batcher: config.batching.then(|| Batcher::start(config.max_queue)),
            shutdown: AtomicBool::new(false),
            write_timeout: config.write_timeout,
        });
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::Builder::new()
            .name("pg-serve-accept".into())
            .spawn(move || accept_loop(&listener, &accept_shared))?;
        Ok(Server {
            addr: local,
            shared,
            accept: Some(accept),
        })
    }

    /// The address the server is actually listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The registry this server routes against — hot-swaps through it take
    /// effect on live traffic immediately.
    pub fn registry(&self) -> &Arc<IndexRegistry> {
        &self.shared.registry
    }

    /// The batcher's counters (all zero when batching is off).
    pub fn stats(&self) -> BatcherStats {
        self.shared
            .batcher
            .as_ref()
            .map(Batcher::stats)
            .unwrap_or_default()
    }

    /// Stops accepting, drains in-flight work, and joins every thread.
    /// Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<ServerShared>) {
    let mut handlers: Vec<JoinHandle<()>> = Vec::new();
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            break;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                let conn_shared = Arc::clone(shared);
                if let Ok(handle) = std::thread::Builder::new()
                    .name("pg-serve-conn".into())
                    .spawn(move || handle_connection(stream, &conn_shared))
                {
                    handlers.push(handle);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            // Transient accept errors (e.g. a connection reset before
            // accept) don't stop the server.
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
        handlers.retain(|h| !h.is_finished());
    }
    // Handler threads observe the flag at their next read poll.
    for handle in handlers {
        let _ = handle.join();
    }
}

/// Reads one frame, polling the shutdown flag between timeouts.
/// Returns `ShuttingDown` when the server is stopping, `ConnectionClosed`
/// on clean EOF at a frame boundary, and `Truncated` on EOF mid-frame.
fn read_frame_polling(
    stream: &mut TcpStream,
    shutdown: &AtomicBool,
) -> Result<Vec<u8>, ServeError> {
    crate::failpoint(sites::CONN_READ)?;
    let mut frame = vec![0u8; LEN_PREFIX];
    let mut filled = 0usize;
    loop {
        // Once the length prefix is in, resize for the declared remainder.
        if filled == LEN_PREFIX {
            let frame_len = u32::from_le_bytes(frame[..LEN_PREFIX].try_into().unwrap());
            if frame_len < MIN_FRAME_LEN {
                return Err(ServeError::Malformed {
                    reason: format!(
                        "declared frame length {frame_len} is below the {MIN_FRAME_LEN}-byte minimum"
                    ),
                });
            }
            if frame_len > MAX_FRAME_LEN {
                return Err(ServeError::FrameTooLarge {
                    len: frame_len as u64,
                });
            }
            frame.resize(LEN_PREFIX + frame_len as usize, 0);
        }
        if filled == frame.len() {
            return Ok(frame);
        }
        match stream.read(&mut frame[filled..]) {
            Ok(0) if filled == 0 => return Err(ServeError::ConnectionClosed),
            Ok(0) => {
                return Err(ServeError::Truncated {
                    context: "frame payload",
                })
            }
            Ok(got) => filled += got,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if shutdown.load(Ordering::Acquire) {
                    return Err(ServeError::ShuttingDown);
                }
            }
            Err(e) => return Err(ServeError::Io(e)),
        }
    }
}

fn handle_connection(mut stream: TcpStream, shared: &Arc<ServerShared>) {
    let _ = stream.set_nodelay(true);
    if stream.set_read_timeout(Some(POLL_INTERVAL)).is_err() {
        return;
    }
    // A peer that stops reading must not pin this thread forever: once the
    // kernel send buffer fills, a write blocks until the timeout, then the
    // slow peer is disconnected (`write_response` fails, the loop returns).
    if shared.write_timeout != Duration::ZERO
        && stream
            .set_write_timeout(Some(shared.write_timeout))
            .is_err()
    {
        return;
    }
    loop {
        let response = match read_frame_polling(&mut stream, &shared.shutdown) {
            Ok(frame) => match decode_request(&frame) {
                Ok(request) => handle_request(request, shared),
                // A complete frame that fails decoding is answerable: the
                // length prefix kept the stream in sync.
                Err(err) => error_response(&err),
            },
            // Clean close, mid-frame death, or a socket error: nothing
            // useful can be written back.
            Err(ServeError::ConnectionClosed)
            | Err(ServeError::Truncated { .. })
            | Err(ServeError::Io(_)) => return,
            // Shutdown, an over-limit length, or a length below the
            // minimum: the stream cannot be resynced (or the server is
            // stopping), so send a best-effort final error frame and close.
            Err(err) => {
                let _ = write_response(&mut stream, &error_response(&err));
                return;
            }
        };
        if write_response(&mut stream, &response).is_err() {
            return;
        }
    }
}

/// Writes one response frame, with the `serve.conn.write` failpoint ahead
/// of the socket write. Any failure — injected, a real socket error, or a
/// write timeout on a slow peer — disconnects.
fn write_response(stream: &mut TcpStream, response: &Response) -> Result<(), ServeError> {
    crate::failpoint(sites::CONN_WRITE)?;
    write_frame(stream, &encode_response(response))?;
    Ok(())
}

fn handle_request(request: Request, shared: &Arc<ServerShared>) -> Response {
    match try_handle(request, shared) {
        Ok(response) => response,
        Err(err) => error_response(&err),
    }
}

fn try_handle(request: Request, shared: &Arc<ServerShared>) -> Result<Response, ServeError> {
    match request {
        Request::Ping => Ok(Response::Pong),
        Request::ListIndexes => Ok(Response::IndexList(shared.registry.names())),
        Request::Info { index } => {
            let serving = shared
                .registry
                .get(&index)
                .ok_or(ServeError::UnknownIndex { name: index })?;
            Ok(Response::Info(IndexInfo {
                epoch: serving.epoch(),
                n: serving.len() as u64,
                dims: serving.dims() as u32,
                metric_code: serving.metric().code(),
                entry_point: serving.entry(),
            }))
        }
        Request::Query {
            index,
            ef,
            k,
            coords,
        } => {
            if k == 0 || ef == 0 {
                return Err(ServeError::BadRequest {
                    reason: format!("ef and k must be at least 1 (got ef = {ef}, k = {k})"),
                });
            }
            if let Some(bad) = coords.iter().find(|c| !c.is_finite()) {
                return Err(ServeError::BadRequest {
                    reason: format!("query coordinates must be finite (got {bad})"),
                });
            }
            let serving = shared
                .registry
                .get(&index)
                .ok_or(ServeError::UnknownIndex { name: index })?;
            if coords.len() != serving.dims() {
                return Err(ServeError::DimMismatch {
                    expected: serving.dims() as u32,
                    found: coords.len() as u32,
                });
            }
            let query = FlatRow::from(coords);
            let reply = match &shared.batcher {
                Some(batcher) => batcher.run(serving, query, ef, k)?,
                None => run_protected(&serving, query, ef, k)?,
            };
            Ok(Response::Query(reply))
        }
    }
}
