//! The in-memory dataset registry with buffered streaming ingestion.
//!
//! Datasets are keyed by a client-chosen *name* which doubles as the
//! stable dataset id: it survives server restarts (the budget
//! [`crate::ledger`] is keyed the same way, which is what makes
//! restart-replay impossible) and is validated to a conservative token
//! alphabet so it can appear verbatim in URLs, file names, and logs.
//!
//! Concurrency layout: one `RwLock<BTreeMap>` from name to dataset,
//! held only to look a name up, insert or remove it, or list the
//! datasets in name order; dataset *contents* are an immutable
//! [`PreparedDataset`] snapshot behind a per-dataset
//! `RwLock<Arc<…>>`. Queries clone the `Arc` and estimate **without
//! holding any lock** — readers never block each other or appends.
//!
//! Writes are buffered (DESIGN.md §8): [`Registry::append`] pushes the
//! rows onto the dataset's *pending delta log* (a plain `Mutex`
//! queries never touch) and publishes a successor snapshot only when
//! the [`FlushPolicy`]'s row or age threshold is hit — or when
//! [`Registry::flush`] is called explicitly. Publication is
//! copy-on-write: it derives a new snapshot (a warm sorted copy
//! merge-maintained in `O(n + k)`, grids rebuilt lazily, version + 1)
//! and swaps the `Arc`,
//! so the sorted/discretized artifacts cached by `PreparedDataset` can
//! never describe stale rows, while in-flight queries keep their
//! consistent old snapshot. A burst of N small appends therefore costs
//! **one** snapshot, not N. [`FlushPolicy::immediate`] (every append
//! publishes, pending always empty) preserves the historical
//! semantics and is the library default.
//!
//! Lock poisoning is an error, not a cascade: every `lock()`/`read()`/
//! `write()` maps a poisoned lock to [`RegistryError::Poisoned`]
//! (the server surfaces it as a 500 `internal` wire error), so one
//! panicked writer cannot take every worker thread down with it.
//!
//! Data is stored column-major (`dim` columns of equal length): scalar
//! datasets are one column, and the multivariate mean estimator
//! consumes per-coordinate columns directly without re-slicing rows.

// Lock poisoning maps to structured errors or a reasoned recovery,
// never a panic (DESIGN.md §6, §9).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};
use updp_statistical::PreparedDataset;

/// Maximum dataset-name length (the name is the wire-visible id).
pub(crate) const MAX_NAME_LEN: usize = 64;

/// When a buffered append publishes the pending delta log
/// (DESIGN.md §8). Thresholds are checked at write time: a snapshot is
/// published as soon as the pending log reaches `max_rows` rows, or
/// when a write arrives and the oldest buffered row is older than
/// `max_age`. Between writes, staleness is bounded by an explicit
/// [`Registry::flush`] (the server exposes it as `POST /v1/flush`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlushPolicy {
    /// Publish once this many rows are pending. `1` publishes every
    /// append immediately (the historical behaviour); `usize::MAX`
    /// defers entirely to `max_age` and explicit flushes.
    pub max_rows: usize,
    /// Publish when a write arrives and the pending log is older than
    /// this.
    pub max_age: Duration,
}

impl FlushPolicy {
    /// Every append publishes its own snapshot — the historical,
    /// strongest-consistency behaviour (and the library default).
    pub fn immediate() -> Self {
        FlushPolicy {
            max_rows: 1,
            max_age: Duration::ZERO,
        }
    }

    /// A buffered policy: coalesce up to `max_rows` rows (age bound
    /// `max_age`) into one published snapshot.
    pub fn buffered(max_rows: usize, max_age: Duration) -> Self {
        FlushPolicy {
            max_rows: max_rows.max(1),
            max_age,
        }
    }
}

/// The pending (unpublished) delta log of one dataset.
#[derive(Debug, Default)]
struct Pending {
    /// Buffered rows, column-major, in arrival order.
    columns: Vec<Vec<f64>>,
    /// When the oldest buffered row arrived.
    since: Option<Instant>,
}

impl Pending {
    fn rows(&self) -> usize {
        self.columns.first().map_or(0, Vec::len)
    }
}

/// What a buffered append observed (mapped onto the wire response).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppendOutcome {
    /// Records visible to queries (the published snapshot).
    pub records: usize,
    /// Rows still buffered in the pending delta log.
    pub pending: usize,
    /// Version of the published snapshot.
    pub version: u64,
    /// Whether this append triggered a publication.
    pub flushed: bool,
}

/// What an explicit flush observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlushOutcome {
    /// Records visible to queries after the flush.
    pub records: usize,
    /// Version of the published snapshot after the flush.
    pub version: u64,
    /// Rows the flush published (0 = nothing was pending).
    pub flushed_rows: usize,
}

/// One registered dataset: its immutable identity, the swappable
/// [`PreparedDataset`] snapshot, and the pending delta log.
#[derive(Debug)]
pub struct Dataset {
    /// The stable dataset id (client-chosen, validated).
    pub name: String,
    /// Record dimension (number of columns); fixed at registration.
    pub dim: usize,
    snapshot: RwLock<Arc<PreparedDataset>>,
    pending: Mutex<Pending>,
}

impl Dataset {
    /// The current immutable snapshot. Callers estimate against the
    /// returned `Arc` without holding any registry lock; a concurrent
    /// publication simply swaps in a successor snapshot. Pending
    /// (unflushed) rows are **not** visible — see `FlushPolicy`.
    pub fn snapshot(&self) -> Result<Arc<PreparedDataset>, RegistryError> {
        Ok(self
            .snapshot
            .read()
            .map_err(|_| RegistryError::Poisoned)?
            .clone())
    }

    /// Number of published records.
    pub fn len(&self) -> Result<usize, RegistryError> {
        Ok(self.snapshot()?.len())
    }

    /// Whether the published snapshot holds no records.
    pub fn is_empty(&self) -> Result<bool, RegistryError> {
        Ok(self.len()? == 0)
    }

    /// Rows buffered in the pending delta log.
    pub(crate) fn pending_rows(&self) -> Result<usize, RegistryError> {
        Ok(self
            .pending
            .lock()
            .map_err(|_| RegistryError::Poisoned)?
            .rows())
    }

    /// Buffers `columns` and publishes if `policy` says so. The
    /// pending mutex is held across a triggered publication so
    /// concurrent appends publish their deltas in arrival order;
    /// queries never take this mutex. A zero-row payload is a no-op:
    /// it neither publishes nor starts the pending log's age clock.
    fn buffer_append(
        &self,
        columns: Vec<Vec<f64>>,
        policy: &FlushPolicy,
    ) -> Result<AppendOutcome, RegistryError> {
        let mut pending = self.pending.lock().map_err(|_| RegistryError::Poisoned)?;
        if columns.first().is_none_or(Vec::is_empty) {
            return self.unflushed(pending.rows());
        }
        if pending.columns.is_empty() {
            pending.since = Some(Instant::now());
            pending.columns = columns;
        } else {
            for (dst, src) in pending.columns.iter_mut().zip(columns) {
                dst.extend_from_slice(&src);
            }
        }
        let rows = pending.rows();
        let aged = pending
            .since
            .is_some_and(|since| since.elapsed() >= policy.max_age);
        if rows >= policy.max_rows || aged {
            let delta = std::mem::take(&mut *pending);
            let (records, version) = self.publish(&delta.columns)?;
            return Ok(AppendOutcome {
                records,
                pending: 0,
                version,
                flushed: true,
            });
        }
        self.unflushed(rows)
    }

    /// The outcome of an append that left `pending` rows buffered and
    /// published nothing.
    fn unflushed(&self, pending: usize) -> Result<AppendOutcome, RegistryError> {
        let snapshot = self.snapshot()?;
        Ok(AppendOutcome {
            records: snapshot.len(),
            pending,
            version: snapshot.version(),
            flushed: false,
        })
    }

    /// Publishes whatever is pending (no-op when the log is empty).
    fn flush(&self) -> Result<FlushOutcome, RegistryError> {
        let mut pending = self.pending.lock().map_err(|_| RegistryError::Poisoned)?;
        let flushed_rows = pending.rows();
        if flushed_rows == 0 {
            let snapshot = self.snapshot()?;
            return Ok(FlushOutcome {
                records: snapshot.len(),
                version: snapshot.version(),
                flushed_rows: 0,
            });
        }
        let delta = std::mem::take(&mut *pending);
        let (records, version) = self.publish(&delta.columns)?;
        Ok(FlushOutcome {
            records,
            version,
            flushed_rows,
        })
    }

    /// Swaps in the successor snapshot for `delta` (a warm sorted copy
    /// merge-maintained by [`PreparedDataset::append`]).
    ///
    /// The `O(n + k)` successor build runs on a read-clone of the
    /// current snapshot so concurrent queries are never blocked behind
    /// it; the write lock is held only for the `Arc` swap. This is
    /// lost-update-safe because both callers hold the pending mutex,
    /// which serializes publications.
    ///
    /// Lock order: registry map → `pending` → `snapshot`.
    /// `buffer_append` and `flush` hold `pending` and call this, which
    /// takes `snapshot` (read, then write); `Registry::list` holds the
    /// map's read lock while it reads each dataset's `snapshot` and
    /// `pending` in turn. Nothing takes a lock earlier in the order
    /// while holding a later one. The lock fields are private to this
    /// module, so no caller can nest them differently (DESIGN.md §9).
    fn publish(&self, delta: &[Vec<f64>]) -> Result<(usize, u64), RegistryError> {
        let parent = self.snapshot()?;
        let next = Arc::new(parent.append(delta));
        let records = next.len();
        let version = next.version();
        *self.snapshot.write().map_err(|_| RegistryError::Poisoned)? = next;
        Ok((records, version))
    }
}

/// Errors surfaced by registry operations (mapped to structured wire
/// errors by the server layer).
#[derive(Debug, Clone, PartialEq)]
pub enum RegistryError {
    /// The dataset name failed validation.
    BadName(String),
    /// A dataset with this name already exists.
    AlreadyExists(String),
    /// No dataset with this name is registered.
    NotFound(String),
    /// Appended data does not match the dataset's dimension/shape.
    DimensionMismatch {
        /// The dataset's fixed dimension.
        expected: usize,
        /// The dimension of the offending payload.
        got: usize,
    },
    /// Columns of unequal length, or a non-finite value.
    BadData(String),
    /// A lock was poisoned by a panicked thread. Mapped to a 500
    /// `internal` wire error so one panic cannot cascade into every
    /// worker thread.
    Poisoned,
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::BadName(name) => write!(
                f,
                "bad dataset name `{name}`: need 1..={MAX_NAME_LEN} chars of [A-Za-z0-9_-]"
            ),
            RegistryError::AlreadyExists(name) => write!(f, "dataset `{name}` already exists"),
            RegistryError::NotFound(name) => write!(f, "dataset `{name}` not found"),
            RegistryError::DimensionMismatch { expected, got } => {
                write!(f, "dataset has dimension {expected}, payload has {got}")
            }
            RegistryError::BadData(reason) => write!(f, "bad data: {reason}"),
            RegistryError::Poisoned => {
                write!(f, "internal synchronization error: a lock was poisoned")
            }
        }
    }
}

/// Validates a dataset name: `[A-Za-z0-9_-]{1,64}`.
pub(crate) fn validate_name(name: &str) -> Result<(), RegistryError> {
    let ok = !name.is_empty()
        && name.len() <= MAX_NAME_LEN
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-');
    if ok {
        Ok(())
    } else {
        Err(RegistryError::BadName(name.into()))
    }
}

/// Validates a column-major payload: at least one column, equal
/// lengths, all values finite. Public so the server can vet a
/// register request *before* touching the budget ledger.
pub(crate) fn validate_columns(columns: &[Vec<f64>]) -> Result<(), RegistryError> {
    if columns.is_empty() {
        return Err(RegistryError::BadData("no columns".into()));
    }
    let len = columns[0].len();
    if columns.iter().any(|c| c.len() != len) {
        return Err(RegistryError::BadData("columns of unequal length".into()));
    }
    if columns.iter().flatten().any(|x| !x.is_finite()) {
        return Err(RegistryError::BadData("non-finite value".into()));
    }
    Ok(())
}

/// One listing row: name, dimension, published records, pending rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ListingRow {
    /// Dataset name (= stable id).
    pub name: String,
    /// Record dimension.
    pub dim: usize,
    /// Published (query-visible) record count.
    pub records: usize,
    /// Rows buffered in the pending delta log.
    pub pending: usize,
}

/// The registry: every dataset by name, in one ordered map behind
/// one lock.
#[derive(Debug)]
pub struct Registry {
    /// Name → dataset. Byte order of the names is the listing order.
    datasets: RwLock<BTreeMap<String, Arc<Dataset>>>,
    policy: FlushPolicy,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

impl Registry {
    /// Creates an empty registry with the immediate (unbuffered) flush
    /// policy.
    pub fn new() -> Self {
        Registry::with_policy(FlushPolicy::immediate())
    }

    /// Creates an empty registry with an explicit [`FlushPolicy`].
    pub fn with_policy(policy: FlushPolicy) -> Self {
        Registry {
            datasets: RwLock::new(BTreeMap::new()),
            policy,
        }
    }

    /// Registers a new dataset from column-major data.
    pub fn register(
        &self,
        name: &str,
        columns: Vec<Vec<f64>>,
    ) -> Result<Arc<Dataset>, RegistryError> {
        validate_name(name)?;
        validate_columns(&columns)?;
        let mut datasets = self.datasets.write().map_err(|_| RegistryError::Poisoned)?;
        if datasets.contains_key(name) {
            return Err(RegistryError::AlreadyExists(name.into()));
        }
        let dataset = Arc::new(Dataset {
            name: name.into(),
            dim: columns.len(),
            // Serving opts in to the snapshot-paired gap summary
            // (DESIGN.md §12.3): warm quantile/IQR queries answer gap
            // counts from a per-snapshot cached summary instead of
            // pairing the column per call. The experiment suite never
            // opts in and pairs with the mechanism's coins; serve-side
            // draws are equally valid and stay fully deterministic per
            // (snapshot, seed).
            snapshot: RwLock::new(Arc::new(PreparedDataset::new(columns).with_gap_summaries())),
            pending: Mutex::new(Pending::default()),
        });
        datasets.insert(name.into(), Arc::clone(&dataset));
        Ok(dataset)
    }

    /// Looks a dataset up by name.
    pub fn get(&self, name: &str) -> Result<Arc<Dataset>, RegistryError> {
        self.datasets
            .read()
            .map_err(|_| RegistryError::Poisoned)?
            .get(name)
            .cloned()
            .ok_or_else(|| RegistryError::NotFound(name.into()))
    }

    /// Appends records (column-major, same dimension) to a dataset's
    /// pending delta log, publishing a successor snapshot when the
    /// registry's [`FlushPolicy`] row/age threshold is hit. Under
    /// [`FlushPolicy::immediate`] every append publishes, matching the
    /// historical behaviour. Publication never mutates a snapshot:
    /// queries already holding the old `Arc` finish on consistent
    /// data, and the successor's warm sorted copy is merge-maintained
    /// in `O(n + k)`.
    pub fn append(
        &self,
        name: &str,
        columns: Vec<Vec<f64>>,
    ) -> Result<AppendOutcome, RegistryError> {
        validate_columns(&columns)?;
        let dataset = self.get(name)?;
        if columns.len() != dataset.dim {
            return Err(RegistryError::DimensionMismatch {
                expected: dataset.dim,
                got: columns.len(),
            });
        }
        dataset.buffer_append(columns, &self.policy)
    }

    /// Publishes a dataset's pending delta log immediately (no-op when
    /// nothing is pending).
    pub fn flush(&self, name: &str) -> Result<FlushOutcome, RegistryError> {
        self.get(name)?.flush()
    }

    /// Drops a dataset's data (published and pending). The budget
    /// ledger entry deliberately survives (see `crate::ledger`):
    /// dropping and re-registering a name must not mint fresh budget.
    pub(crate) fn drop_dataset(&self, name: &str) -> Result<(), RegistryError> {
        self.datasets
            .write()
            .map_err(|_| RegistryError::Poisoned)?
            .remove(name)
            .map(|_| ())
            .ok_or_else(|| RegistryError::NotFound(name.into()))
    }

    /// All registered datasets as listing rows, in byte order of their
    /// names.
    pub fn list(&self) -> Result<Vec<ListingRow>, RegistryError> {
        self.datasets
            .read()
            .map_err(|_| RegistryError::Poisoned)?
            .values()
            .map(|d| {
                Ok(ListingRow {
                    name: d.name.clone(),
                    dim: d.dim,
                    records: d.len()?,
                    pending: d.pending_rows()?,
                })
            })
            .collect()
    }
}

#[cfg(test)]
// Exact `==` on f64 is deliberate in tests: they pin bit-identical
// outputs (DESIGN.md §5), so an epsilon tolerance would weaken them.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    fn col(xs: &[f64]) -> Vec<Vec<f64>> {
        vec![xs.to_vec()]
    }

    #[test]
    fn register_get_append_drop_round_trip() {
        let reg = Registry::new();
        reg.register("a", col(&[1.0, 2.0])).unwrap();
        assert_eq!(reg.get("a").unwrap().len().unwrap(), 2);
        let outcome = reg.append("a", col(&[3.0])).unwrap();
        assert_eq!(outcome.records, 3);
        assert!(outcome.flushed, "immediate policy publishes every append");
        assert_eq!(outcome.pending, 0);
        assert_eq!(
            reg.list().unwrap(),
            vec![ListingRow {
                name: "a".into(),
                dim: 1,
                records: 3,
                pending: 0
            }]
        );
        reg.drop_dataset("a").unwrap();
        assert_eq!(
            reg.get("a").unwrap_err(),
            RegistryError::NotFound("a".into())
        );
    }

    #[test]
    fn buffered_appends_coalesce_into_one_snapshot() {
        let reg = Registry::with_policy(FlushPolicy::buffered(3, Duration::from_secs(3600)));
        reg.register("s", col(&[1.0, 2.0])).unwrap();
        let dataset = reg.get("s").unwrap();
        let v0 = dataset.snapshot().unwrap();

        // Two 1-row appends stay pending: queries still see v0.
        let a = reg.append("s", col(&[3.0])).unwrap();
        assert!(!a.flushed);
        assert_eq!((a.records, a.pending, a.version), (2, 1, 0));
        let b = reg.append("s", col(&[4.0])).unwrap();
        assert_eq!((b.records, b.pending, b.version), (2, 2, 0));
        assert_eq!(dataset.len().unwrap(), 2);

        // The third row hits the threshold: ONE publication for the
        // whole burst, version 1 (not 3).
        let c = reg.append("s", col(&[5.0])).unwrap();
        assert!(c.flushed);
        assert_eq!((c.records, c.pending, c.version), (5, 0, 1));
        let v1 = dataset.snapshot().unwrap();
        assert!(!Arc::ptr_eq(&v0, &v1));
        assert_eq!(v1.columns()[0], vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        // The retained old snapshot is untouched.
        assert_eq!(v0.len(), 2);
    }

    #[test]
    fn explicit_flush_publishes_pending_rows() {
        let reg = Registry::with_policy(FlushPolicy::buffered(100, Duration::from_secs(3600)));
        reg.register("s", col(&[1.0])).unwrap();
        reg.append("s", col(&[2.0])).unwrap();
        reg.append("s", col(&[3.0])).unwrap();
        assert_eq!(reg.get("s").unwrap().pending_rows().unwrap(), 2);
        let flushed = reg.flush("s").unwrap();
        assert_eq!(
            flushed,
            FlushOutcome {
                records: 3,
                version: 1,
                flushed_rows: 2
            }
        );
        // Flushing again is a no-op.
        let again = reg.flush("s").unwrap();
        assert_eq!(
            again,
            FlushOutcome {
                records: 3,
                version: 1,
                flushed_rows: 0
            }
        );
    }

    #[test]
    fn age_threshold_publishes_on_the_next_write() {
        let reg = Registry::with_policy(FlushPolicy::buffered(100, Duration::ZERO));
        reg.register("s", col(&[1.0])).unwrap();
        // max_age = 0: the very first buffered write is already "old",
        // so every append publishes despite the generous row budget.
        let a = reg.append("s", col(&[2.0])).unwrap();
        assert!(a.flushed);
        assert_eq!(a.records, 2);
    }

    #[test]
    fn empty_append_is_a_no_op() {
        for policy in [
            FlushPolicy::immediate(),
            FlushPolicy::buffered(1000, Duration::from_millis(50)),
        ] {
            let reg = Registry::with_policy(policy);
            reg.register("e", col(&[1.0, 2.0])).unwrap();
            let dataset = reg.get("e").unwrap();
            let before = dataset.snapshot().unwrap();
            let outcome = reg.append("e", col(&[])).unwrap();
            assert_eq!(
                outcome,
                AppendOutcome {
                    records: 2,
                    pending: 0,
                    version: 0,
                    flushed: false
                },
                "{policy:?}"
            );
            assert_eq!(dataset.pending_rows().unwrap(), 0);
            assert!(Arc::ptr_eq(&before, &dataset.snapshot().unwrap()));
        }
        // An empty append must not start the pending log's age clock:
        // a later 1-row append still finds the log young.
        let reg = Registry::with_policy(FlushPolicy::buffered(1000, Duration::from_millis(50)));
        reg.register("e", col(&[1.0])).unwrap();
        reg.append("e", col(&[])).unwrap();
        std::thread::sleep(Duration::from_millis(80));
        let outcome = reg.append("e", col(&[2.0])).unwrap();
        assert!(!outcome.flushed);
        assert_eq!(
            (outcome.records, outcome.pending, outcome.version),
            (1, 1, 0)
        );
    }

    #[test]
    fn rejects_duplicates_bad_names_and_bad_data() {
        let reg = Registry::new();
        reg.register("a", col(&[1.0])).unwrap();
        assert!(matches!(
            reg.register("a", col(&[1.0])),
            Err(RegistryError::AlreadyExists(_))
        ));
        assert!(matches!(
            reg.register("bad name!", col(&[1.0])),
            Err(RegistryError::BadName(_))
        ));
        assert!(matches!(
            reg.register("nan", col(&[f64::NAN])),
            Err(RegistryError::BadData(_))
        ));
        assert!(matches!(
            reg.register("ragged", vec![vec![1.0], vec![]]),
            Err(RegistryError::BadData(_))
        ));
    }

    #[test]
    fn append_enforces_dimension() {
        let reg = Registry::new();
        reg.register("m", vec![vec![1.0], vec![2.0]]).unwrap();
        assert!(matches!(
            reg.append("m", col(&[1.0])),
            Err(RegistryError::DimensionMismatch {
                expected: 2,
                got: 1
            })
        ));
    }

    #[test]
    fn distinct_names_do_not_alias_datasets() {
        let reg = Registry::new();
        for i in 0..100 {
            reg.register(&format!("ds-{i}"), col(&[i as f64])).unwrap();
        }
        assert_eq!(reg.list().unwrap().len(), 100);
        for i in 0..100 {
            let d = reg.get(&format!("ds-{i}")).unwrap();
            assert_eq!(d.snapshot().unwrap().columns()[0][0], i as f64);
        }
    }

    #[test]
    fn list_is_in_byte_order_of_the_names_not_insertion_order() {
        let reg = Registry::new();
        for name in ["b", "a9", "a10", "A"] {
            reg.register(name, col(&[1.0])).unwrap();
        }
        let names: Vec<String> = reg.list().unwrap().into_iter().map(|r| r.name).collect();
        assert_eq!(names, ["A", "a10", "a9", "b"]);
    }

    #[test]
    fn append_replaces_the_snapshot_and_carries_the_sorted_copy() {
        let reg = Registry::new();
        reg.register("v", col(&[5.0, 1.0, 3.0])).unwrap();
        let dataset = reg.get("v").unwrap();
        let before = dataset.snapshot().unwrap();
        assert_eq!(before.version(), 0);
        // Warm the caches on the pre-append snapshot.
        let sorted = before.view().col(0).sorted();
        assert_eq!(sorted.as_slice(), &[1.0, 3.0, 5.0]);
        let _ = before.view().col(0).grid(1.0).unwrap();

        reg.append("v", col(&[9.0, 7.0])).unwrap();
        let after = dataset.snapshot().unwrap();
        assert!(!Arc::ptr_eq(&before, &after), "append must swap snapshots");
        assert_eq!(after.version(), 1);
        assert_eq!(after.len(), 5);
        // The successor's sorted copy arrives warm (merge-maintained),
        // its grids do not, and it already sees the appended rows…
        assert!(after.view().col(0).has_sorted());
        assert_eq!(after.view().col(0).cached_grids(), 0);
        assert_eq!(
            after.view().col(0).sorted().as_slice(),
            &[1.0, 3.0, 5.0, 7.0, 9.0]
        );
        // …while the retained old snapshot stays consistent.
        assert_eq!(before.len(), 3);
        assert_eq!(before.view().col(0).sorted().as_slice(), &[1.0, 3.0, 5.0]);
    }

    #[test]
    fn poisoned_snapshot_lock_is_an_error_not_a_cascade() {
        let reg = Registry::new();
        reg.register("p", col(&[1.0, 2.0])).unwrap();
        let dataset = reg.get("p").unwrap();
        // Poison the snapshot lock: panic while holding the writer.
        let poison = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = dataset.snapshot.write().unwrap();
            panic!("poison");
        }));
        assert!(poison.is_err());
        assert_eq!(dataset.snapshot().unwrap_err(), RegistryError::Poisoned);
        assert_eq!(
            reg.append("p", col(&[3.0])).unwrap_err(),
            RegistryError::Poisoned
        );
        assert_eq!(reg.list().unwrap_err(), RegistryError::Poisoned);
        // Other datasets (other locks) keep working.
        reg.register("ok", col(&[1.0])).unwrap();
        assert_eq!(reg.get("ok").unwrap().len().unwrap(), 1);
    }
}
