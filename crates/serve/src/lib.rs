//! Online serving for proximity-graph indexes: a dependency-free TCP
//! server with bounded, per-core query dispatch, snapshot hot-swap, and
//! multi-index tenancy.
//!
//! The offline half of this workspace builds indexes (`pg_core`) and
//! persists them (`pg_store`); this crate is the online half that answers
//! queries over the network. Everything is `std`-only —
//! [`std::net::TcpListener`], threads, a mutex and a condition variable —
//! in keeping with the workspace's no-external-dependencies rule.
//!
//! # The pieces
//!
//! * [`protocol`] — versioned, length-prefixed, FNV-checksummed binary
//!   frames (the byte-level spec lives in `ARCHITECTURE.md` § "Serving
//!   protocol"). Decoding is total: malformed bytes produce a typed
//!   [`ServeError`], never a panic.
//! * [`registry`] — named serving cells with atomic `Arc` hot-swap: a new
//!   snapshot replaces an old one under live traffic with zero dropped
//!   requests, and every response carries the epoch of the generation that
//!   answered it.
//! * [`batcher`] — search slots as a counting semaphore: a query is
//!   answered on the connection thread that received it, at most one
//!   search per core at a time; arrivals beyond that wait for a slot in a
//!   bounded queue. No thread of its own, and no answer ever changes.
//! * [`server`] / [`client`] — the blocking TCP endpoints. A request that
//!   fails — malformed frame, unknown index, wrong dimensionality — costs
//!   its sender an error frame, not the connection.
//!
//! Serving answers are **bit-identical** to a direct
//! [`QueryEngine::batch_beam_detailed`](pg_core::QueryEngine::batch_beam_detailed)
//! run over the same snapshot (pinned by `tests/equivalence.rs`), so every
//! determinism guarantee from the engine layer — identical results at any
//! thread count, sequential-equivalent outcomes — extends to the wire.
//!
//! # Quick start
//!
//! ```
//! use std::sync::Arc;
//!
//! use pg_core::engine::QueryEngine;
//! use pg_core::GNet;
//! use pg_metric::{Euclidean, FlatPoints};
//! use pg_serve::client::Client;
//! use pg_serve::registry::IndexRegistry;
//! use pg_serve::server::{ServeConfig, Server};
//!
//! // Offline: build an index.
//! let mut points = FlatPoints::new(2);
//! for i in 0..60 {
//!     points.push(&[i as f64, (i % 5) as f64]);
//! }
//! let data = points.into_dataset(Euclidean);
//! let pg = GNet::build(&data, 1.0);
//! let engine = QueryEngine::new(pg.graph, data);
//!
//! // Online: register it and serve.
//! let registry = Arc::new(IndexRegistry::new());
//! registry.register("main", engine, 0).unwrap();
//! let server = Server::bind("127.0.0.1:0", Arc::clone(&registry), ServeConfig::default()).unwrap();
//!
//! let mut client = Client::connect(server.local_addr()).unwrap();
//! client.ping().unwrap();
//! let reply = client.query("main", &[17.3, 2.2], 16, 3).unwrap();
//! assert_eq!(reply.results.len(), 3);
//! assert_eq!(reply.epoch, 1);
//! assert_eq!(client.list().unwrap(), vec!["main".to_string()]);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod batcher;
pub mod client;
pub mod error;
pub mod protocol;
pub mod registry;
pub mod server;

/// Failpoint site names instrumented in this crate (see `pg_fault`).
///
/// The hooks behind them are compiled in only with the `failpoints` cargo
/// feature; the names themselves are always available so chaos suites can
/// enumerate every site (`sites::ALL`) and assert the failure contract at
/// each one. `pg_store::sites` lists the snapshot-I/O sites the same
/// feature turns on underneath this crate.
pub mod sites {
    /// Reading a request frame from an accepted connection.
    pub const CONN_READ: &str = "serve.conn.read";
    /// Writing a response frame to an accepted connection.
    pub const CONN_WRITE: &str = "serve.conn.write";
    /// Admitting a request into the batcher; a fired fault here is
    /// treated as "queue full", shed with
    /// [`ServeError::Overloaded`](crate::error::ServeError::Overloaded)
    /// and counted in `BatcherStats::shed`.
    pub const BATCH_QUEUE: &str = "serve.batcher.queue";
    /// Handing one query to the engine. Runs inside the panic-containment
    /// guard, so a `Panic` fault here exercises `WorkerPanicked` for that
    /// one request; a `Stall` holds a search slot while later arrivals
    /// wait for it.
    pub const ENGINE_DISPATCH: &str = "serve.engine.dispatch";
    /// Every failpoint site this crate instruments.
    pub const ALL: &[&str] = &[CONN_READ, CONN_WRITE, BATCH_QUEUE, ENGINE_DISPATCH];
}

/// Asks `pg_fault` whether an injected fault should fire at `site`; any
/// fired fault becomes a [`ServeError::Io`](error::ServeError::Io) here.
/// Compiled to a no-op without the `failpoints` feature.
#[cfg(feature = "failpoints")]
pub(crate) fn failpoint(site: &str) -> Result<(), error::ServeError> {
    match pg_fault::hit(site) {
        None => Ok(()),
        Some(fault) => Err(error::ServeError::Io(fault.into_io_error(site))),
    }
}

#[cfg(not(feature = "failpoints"))]
#[inline(always)]
pub(crate) fn failpoint(_site: &str) -> Result<(), error::ServeError> {
    Ok(())
}

pub use batcher::{Batcher, BatcherStats};
pub use client::{Client, RetryPolicy, RetryingClient};
pub use error::{ErrorCode, ServeError};
pub use protocol::{IndexInfo, QueryReply, Request, Response, PROTOCOL_VERSION};
pub use registry::{IndexRegistry, ServingIndex};
pub use server::{ServeConfig, Server};
