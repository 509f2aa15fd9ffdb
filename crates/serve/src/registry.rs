//! Multi-index tenancy and snapshot hot-swap.
//!
//! A server routes each query to a named index. The registry maps names to
//! *serving cells*; a cell holds the current [`ServingIndex`] — an
//! [`AnyEngine`] plus its routing entry point, stamped with an **epoch** —
//! behind an atomically swappable [`Arc`].
//!
//! # The hot-swap contract
//!
//! Replacing a snapshot under live traffic must drop zero requests and mix
//! zero answers. Both follow from `Arc` semantics:
//!
//! * A request resolves its cell **once** (at enqueue time) and holds an
//!   `Arc<ServingIndex>` until its response is written. A concurrent
//!   [`IndexRegistry::swap`] replaces the cell's `Arc` for *future*
//!   resolutions; in-flight requests keep the old engine alive and finish
//!   on it. No request ever observes a half-replaced index.
//! * Every generation carries a registry-unique, strictly increasing
//!   epoch, and every query response reports the epoch that answered it —
//!   so a client (or the hot-swap test in `tests/hot_swap.rs`) can
//!   attribute each answer to exactly one snapshot generation.
//!
//! The old engine is freed when the last in-flight `Arc` drops — the same
//! read-copy-update shape the kernel uses, built from two `std` types.

use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

use pg_core::AnyEngine;
use pg_store::MetricTag;

use crate::error::ServeError;
use crate::protocol::check_name;

/// One immutable snapshot generation of one index: the engine, the entry
/// point queries start from, and the epoch stamp. Shared as
/// `Arc<ServingIndex>` between the registry and every request in flight.
#[derive(Debug)]
pub struct ServingIndex {
    engine: AnyEngine,
    entry: u32,
    epoch: u64,
}

impl ServingIndex {
    /// The engine that answers queries for this generation.
    pub fn engine(&self) -> &AnyEngine {
        &self.engine
    }

    /// The routing start vertex every query uses.
    pub fn entry(&self) -> u32 {
        self.entry
    }

    /// This generation's registry-unique epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.engine.len()
    }

    /// Always false (snapshots of empty indexes do not exist).
    pub fn is_empty(&self) -> bool {
        self.engine.is_empty()
    }

    /// Point dimensionality queries must match.
    pub fn dims(&self) -> usize {
        self.engine.dims()
    }

    /// The metric tag of the engine.
    pub fn metric(&self) -> MetricTag {
        self.engine.metric()
    }
}

/// RwLock poisoning carries no meaning here — every critical section is a
/// pointer clone or replace that cannot leave partial state — so a
/// poisoned lock is simply recovered. This keeps one panicking connection
/// thread from wedging the whole registry.
fn read_lock<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(|e| e.into_inner())
}

fn write_lock<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(|e| e.into_inner())
}

/// The swappable slot one index name resolves to.
#[derive(Debug)]
struct ServingCell {
    current: RwLock<Arc<ServingIndex>>,
}

impl ServingCell {
    fn get(&self) -> Arc<ServingIndex> {
        Arc::clone(&read_lock(&self.current))
    }

    fn swap(&self, next: Arc<ServingIndex>) {
        *write_lock(&self.current) = next;
    }
}

/// The name → serving-cell map a [`Server`](crate::server::Server) routes
/// against, plus the epoch counter all generations draw from.
///
/// ```
/// use pg_core::engine::QueryEngine;
/// use pg_core::GNet;
/// use pg_metric::{Euclidean, FlatPoints};
/// use pg_serve::registry::IndexRegistry;
///
/// let mut points = FlatPoints::new(2);
/// for i in 0..40 {
///     points.push(&[i as f64, (i % 5) as f64]);
/// }
/// let data = points.into_dataset(Euclidean);
/// let pg = GNet::build(&data, 1.0);
///
/// let registry = IndexRegistry::new();
/// registry.register("main", QueryEngine::new(pg.graph, data), 0).unwrap();
/// let index = registry.get("main").unwrap();
/// assert_eq!(index.len(), 40);
/// assert_eq!(index.epoch(), 1);
/// assert_eq!(registry.names(), vec!["main".to_string()]);
/// ```
#[derive(Debug, Default)]
pub struct IndexRegistry {
    cells: RwLock<HashMap<String, Arc<ServingCell>>>,
    epochs: AtomicU64,
}

impl IndexRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn next_epoch(&self) -> u64 {
        self.epochs.fetch_add(1, Ordering::Relaxed) + 1
    }

    fn make_index(&self, engine: AnyEngine, entry: u32) -> Result<Arc<ServingIndex>, ServeError> {
        if entry as usize >= engine.len() {
            return Err(ServeError::BadRequest {
                reason: format!(
                    "entry point {entry} out of range (index holds {} points)",
                    engine.len()
                ),
            });
        }
        Ok(Arc::new(ServingIndex {
            engine,
            entry,
            epoch: self.next_epoch(),
        }))
    }

    /// Registers (or replaces) the index under `name`, serving from
    /// `entry`. Returns the new generation's epoch. A name longer than a
    /// frame can carry fails with [`ServeError::NameTooLong`].
    pub fn register(
        &self,
        name: impl Into<String>,
        engine: impl Into<AnyEngine>,
        entry: u32,
    ) -> Result<u64, ServeError> {
        let name = name.into();
        check_name(&name)?;
        let index = self.make_index(engine.into(), entry)?;
        let epoch = index.epoch;
        let mut cells = write_lock(&self.cells);
        match cells.entry(name) {
            std::collections::hash_map::Entry::Occupied(slot) => slot.get().swap(index),
            std::collections::hash_map::Entry::Vacant(slot) => {
                slot.insert(Arc::new(ServingCell {
                    current: RwLock::new(index),
                }));
            }
        }
        Ok(epoch)
    }

    /// Loads a snapshot file and registers it under `name`, serving from
    /// the entry point recorded in the file's metadata. The name is
    /// checked before the file is read.
    pub fn register_from_path(
        &self,
        name: impl Into<String>,
        path: impl AsRef<Path>,
    ) -> Result<u64, ServeError> {
        let name = name.into();
        check_name(&name)?;
        let (engine, meta) = AnyEngine::load(path)?;
        self.register(name, engine, meta.entry_point)
    }

    /// Hot-swaps the index under `name` to a new engine. Fails with
    /// [`ServeError::UnknownIndex`] if the name was never registered —
    /// swapping is an update, not an insert, so a typo cannot silently
    /// create a tenant — or with [`ServeError::NameTooLong`] for a name no
    /// registration can hold. Returns the new generation's epoch.
    pub fn swap(
        &self,
        name: &str,
        engine: impl Into<AnyEngine>,
        entry: u32,
    ) -> Result<u64, ServeError> {
        check_name(name)?;
        let cell = {
            let cells = read_lock(&self.cells);
            cells
                .get(name)
                .cloned()
                .ok_or_else(|| ServeError::UnknownIndex { name: name.into() })?
        };
        let index = self.make_index(engine.into(), entry)?;
        let epoch = index.epoch;
        cell.swap(index);
        Ok(epoch)
    }

    /// Loads a snapshot file and hot-swaps it in under `name`, serving
    /// from the entry point recorded in the file. The load happens
    /// entirely **before** the swap: a corrupt or missing file returns a
    /// typed error and leaves the serving generation untouched.
    pub fn swap_from_path(&self, name: &str, path: impl AsRef<Path>) -> Result<u64, ServeError> {
        check_name(name)?;
        let (engine, meta) = AnyEngine::load(path)?;
        self.swap(name, engine, meta.entry_point)
    }

    /// Resolves a name to its current generation. The returned `Arc` stays
    /// valid (and keeps its engine alive) across any number of concurrent
    /// swaps.
    pub fn get(&self, name: &str) -> Option<Arc<ServingIndex>> {
        read_lock(&self.cells).get(name).map(|cell| cell.get())
    }

    /// The registered index names, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = read_lock(&self.cells).keys().cloned().collect();
        names.sort();
        names
    }

    /// Number of registered indexes.
    pub fn len(&self) -> usize {
        read_lock(&self.cells).len()
    }

    /// Whether the registry holds no indexes.
    pub fn is_empty(&self) -> bool {
        read_lock(&self.cells).is_empty()
    }
}
