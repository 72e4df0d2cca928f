//! The privacy-budget accountant: a per-dataset ε ledger with a
//! persisted-to-disk snapshot.
//!
//! Every query **atomically reserves** its ε under basic composition
//! (Lemma 2.2: spends add) before any estimator runs, and is refused
//! with a structured [`Refusal`] once the dataset's budget is
//! exhausted. Reservation happens under one mutex per ledger, so the
//! granted total can never exceed `budget + tol` no matter how many
//! threads hammer one dataset — the concurrency test below pins this
//! together with the *determinism of the refusal count*: for a fixed
//! set of equal-ε requests, how many are granted depends only on the
//! budget arithmetic, never on thread interleaving.
//!
//! Persistence: when constructed with a snapshot path, every mutation
//! rewrites the snapshot (JSON via [`updp_core::json`], temp file +
//! rename so a crash never leaves a torn file) *before the caller
//! observes the grant* — but the file I/O happens outside the
//! accounts mutex (see `Ledger::persist`) so queries on other
//! datasets only contend on the arithmetic. On startup the snapshot
//! is reloaded, so **restarting the server cannot replay spent
//! budget**: re-registering a known dataset name resumes from its
//! recorded `spent` (and keeps its originally pinned budget), and
//! ledger entries survive even `drop` — budget is a property of the
//! *data subjects*, not of the in-memory copy of the data.

// Lock poisoning maps to structured errors or a reasoned recovery,
// never a panic (DESIGN.md §6, §9).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use updp_core::json::JsonValue;
use updp_core::privacy::budget_tolerance;

/// Snapshot schema tag; bump on breaking changes.
pub const SCHEMA: &str = "updp-serve-ledger/v1";

/// Budget state of one dataset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Account {
    /// Total ε granted to queries against this dataset, ever.
    pub budget: f64,
    /// ε spent so far (monotone non-decreasing, survives restarts).
    pub spent: f64,
}

impl Account {
    /// ε still available.
    pub fn remaining(&self) -> f64 {
        (self.budget - self.spent).max(0.0)
    }
}

/// A structured budget refusal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Refusal {
    /// ε the query asked for.
    pub requested: f64,
    /// ε still available at refusal time.
    pub available: f64,
}

/// Errors from ledger operations other than refusals.
#[derive(Debug, Clone, PartialEq)]
pub enum LedgerError {
    /// The dataset has no ledger account.
    UnknownDataset(String),
    /// A budget or ε parameter was non-finite or non-positive.
    BadParameter(String),
    /// The snapshot file could not be read, parsed, or written.
    Snapshot(String),
    /// A ledger lock was poisoned by a panicked thread. Mapped to a
    /// 500 `internal` wire error so one panic cannot cascade into
    /// every worker thread.
    Poisoned,
}

impl std::fmt::Display for LedgerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LedgerError::UnknownDataset(name) => write!(f, "no ledger account for `{name}`"),
            LedgerError::BadParameter(reason) => write!(f, "bad ledger parameter: {reason}"),
            LedgerError::Snapshot(reason) => write!(f, "ledger snapshot: {reason}"),
            LedgerError::Poisoned => {
                write!(
                    f,
                    "internal synchronization error: a ledger lock was poisoned"
                )
            }
        }
    }
}

/// Proof that the ledger has decided a batch of reservations: one
/// outcome per requested amount, in request order (`Ok` = granted,
/// `Err` = refused). Only [`Ledger::reserve_many`] mints a `Grant`,
/// and it returns one only after the granted spend is persisted, so
/// code holding a `Grant` runs after the debit (DESIGN.md §6.2). The
/// serve engine's one call of `Estimator::estimate` takes a `Grant`.
///
/// A `Grant` cannot be built anywhere else:
///
/// ```compile_fail
/// use updp_serve::ledger::Grant;
/// let forged = Grant { outcomes: Vec::new() };
/// ```
#[derive(Debug)]
pub struct Grant {
    outcomes: Vec<Result<Account, Refusal>>,
}

impl std::ops::Deref for Grant {
    type Target = [Result<Account, Refusal>];

    fn deref(&self) -> &Self::Target {
        &self.outcomes
    }
}

impl IntoIterator for Grant {
    type Item = Result<Account, Refusal>;
    type IntoIter = std::vec::IntoIter<Result<Account, Refusal>>;

    fn into_iter(self) -> Self::IntoIter {
        self.outcomes.into_iter()
    }
}

/// The ledger: every account behind one mutex (held only for the
/// budget arithmetic — never across file I/O), optionally mirrored to
/// a snapshot file on each mutation. Snapshot writes serialize on a
/// separate `persist_lock` and re-render the latest state under a
/// brief `accounts` lock, so concurrent writers can never regress the
/// on-disk file to an older state, and queries against *other*
/// datasets only ever contend on the cheap arithmetic section.
#[derive(Debug)]
pub struct Ledger {
    path: Option<PathBuf>,
    accounts: Mutex<HashMap<String, Account>>,
    persist_lock: Mutex<()>,
    /// Budget refusals served per dataset this process lifetime.
    /// Observability only (DESIGN.md §11): never persisted, never
    /// consulted by reservation decisions.
    refusals: Mutex<BTreeMap<String, u64>>,
}

impl Ledger {
    /// An in-memory ledger (tests, `--check` runs).
    pub fn in_memory() -> Self {
        Ledger {
            path: None,
            accounts: Mutex::new(HashMap::new()),
            persist_lock: Mutex::new(()),
            refusals: Mutex::new(BTreeMap::new()),
        }
    }

    /// Opens a ledger backed by `path`, reloading the snapshot if one
    /// exists (a missing file is an empty ledger, not an error).
    pub fn open(path: &Path) -> Result<Self, LedgerError> {
        let accounts = match std::fs::read_to_string(path) {
            Ok(text) => parse_snapshot(&text)?,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => HashMap::new(),
            Err(e) => return Err(LedgerError::Snapshot(format!("read {path:?}: {e}"))),
        };
        Ok(Ledger {
            path: Some(path.into()),
            accounts: Mutex::new(accounts),
            persist_lock: Mutex::new(()),
            refusals: Mutex::new(BTreeMap::new()),
        })
    }

    /// Creates the account for `name`, or re-attaches to an existing
    /// one.
    ///
    /// **The first registration pins the budget.** A name already
    /// present in the ledger — from an earlier registration this run
    /// *or from the reloaded snapshot* — keeps both its recorded
    /// `spent` and its recorded `budget`; the `budget` argument is
    /// ignored. This is what makes drop + re-register (and restart +
    /// re-register) unable to mint fresh ε: raising a budget is an
    /// operator action on the snapshot file, never a wire operation.
    /// The authoritative account is returned so callers can surface
    /// the pinned values.
    pub fn register(&self, name: &str, budget: f64) -> Result<Account, LedgerError> {
        if !(budget.is_finite() && budget > 0.0) {
            return Err(LedgerError::BadParameter(format!(
                "budget must be finite and positive, got {budget}"
            )));
        }
        {
            let mut accounts = self.accounts.lock().map_err(|_| LedgerError::Poisoned)?;
            if let Some(existing) = accounts.get(name) {
                return Ok(*existing);
            }
            accounts.insert(name.into(), Account { budget, spent: 0.0 });
        }
        self.persist()?;
        Ok(Account { budget, spent: 0.0 })
    }

    /// Atomically reserves `eps` of `name`'s budget.
    ///
    /// On success the spend is committed (and persisted) before the
    /// caller runs any mechanism; the new account state is returned.
    /// An exhausted budget yields `Ok(Err(Refusal))` — a *normal*
    /// outcome, distinct from ledger failures.
    #[expect(
        clippy::expect_used,
        reason = "reserve_many returns exactly one outcome per amount"
    )]
    pub fn reserve(&self, name: &str, eps: f64) -> Result<Result<Account, Refusal>, LedgerError> {
        Ok(self
            .reserve_many(name, &[eps])?
            .into_iter()
            .next()
            .expect("one outcome per amount"))
    }

    /// Reserves a sequence of ε amounts against `name` in one atomic
    /// step: per-item grant/refuse decisions are made in order under
    /// the lock (identical semantics to calling [`Ledger::reserve`]
    /// item by item), but the snapshot is persisted **once**, so a
    /// batch request costs one file write instead of one per query.
    pub fn reserve_many(&self, name: &str, amounts: &[f64]) -> Result<Grant, LedgerError> {
        for &eps in amounts {
            if !(eps.is_finite() && eps > 0.0) {
                return Err(LedgerError::BadParameter(format!(
                    "epsilon must be finite and positive, got {eps}"
                )));
            }
        }
        let (outcomes, any_granted) = {
            let mut accounts = self.accounts.lock().map_err(|_| LedgerError::Poisoned)?;
            let account = accounts
                .get_mut(name)
                .ok_or_else(|| LedgerError::UnknownDataset(name.into()))?;
            let mut outcomes = Vec::with_capacity(amounts.len());
            let mut any_granted = false;
            for &eps in amounts {
                if account.spent + eps > account.budget + budget_tolerance(account.budget) {
                    outcomes.push(Err(Refusal {
                        requested: eps,
                        available: account.remaining(),
                    }));
                } else {
                    account.spent += eps;
                    any_granted = true;
                    outcomes.push(Ok(*account));
                }
            }
            (outcomes, any_granted)
        };
        let refused = outcomes.iter().filter(|o| o.is_err()).count() as u64;
        if refused > 0 {
            // Observe-only refusal tally for `/v1/metrics`. A poisoned
            // counter map drops the observation rather than surfacing
            // an error into the query path.
            if let Ok(mut refusals) = self.refusals.lock() {
                *refusals.entry(name.into()).or_insert(0) += refused;
            }
        }
        if any_granted {
            // The spend is committed in memory; callers only observe
            // the grant after this persists, so a crash in between
            // loses an unreleased answer, never replays budget.
            self.persist()?;
        }
        Ok(Grant { outcomes })
    }

    /// The current account state for `name`.
    pub fn account(&self, name: &str) -> Result<Account, LedgerError> {
        self.accounts
            .lock()
            .map_err(|_| LedgerError::Poisoned)?
            .get(name)
            .copied()
            .ok_or_else(|| LedgerError::UnknownDataset(name.into()))
    }

    /// Budget refusals served per dataset this process lifetime,
    /// sorted by name. Not persisted; resets on restart. Degrades to
    /// an empty list on lock poisoning (observability must not fail
    /// the scrape).
    pub fn refusal_counts(&self) -> Vec<(String, u64)> {
        match self.refusals.lock() {
            Ok(refusals) => refusals.iter().map(|(k, &v)| (k.clone(), v)).collect(),
            Err(_) => Vec::new(),
        }
    }

    /// All accounts as `(name, account)` rows, sorted by name.
    pub fn list(&self) -> Result<Vec<(String, Account)>, LedgerError> {
        let mut rows: Vec<(String, Account)> = self
            .accounts
            .lock()
            .map_err(|_| LedgerError::Poisoned)?
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect();
        rows.sort_by(|a, b| a.0.cmp(&b.0));
        Ok(rows)
    }

    /// Serializes the current state as a snapshot document.
    pub fn snapshot_json(&self) -> Result<String, LedgerError> {
        let accounts = self.accounts.lock().map_err(|_| LedgerError::Poisoned)?;
        Ok(render_snapshot(&accounts))
    }

    /// Writes the snapshot file. Writers serialize on `persist_lock`
    /// and each re-renders the *current* state under a brief accounts
    /// lock, so whichever writer runs last writes the newest state —
    /// the file is monotone even under concurrent mutations.
    ///
    /// Lock order: `persist_lock` → `accounts`, taken only here. Every
    /// other method takes `accounts` alone and releases it before
    /// calling this; `refusals` is never held with another lock. The
    /// lock fields are private to this module, so no caller can nest
    /// them in another order (DESIGN.md §9).
    fn persist(&self) -> Result<(), LedgerError> {
        let Some(path) = &self.path else {
            return Ok(());
        };
        let _writer = self
            .persist_lock
            .lock()
            .map_err(|_| LedgerError::Poisoned)?;
        let accounts = self.accounts.lock().map_err(|_| LedgerError::Poisoned)?;
        let text = render_snapshot(&accounts);
        drop(accounts);
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, text)
            .and_then(|()| std::fs::rename(&tmp, path))
            .map_err(|e| LedgerError::Snapshot(format!("write {path:?}: {e}")))
    }
}

fn render_snapshot(accounts: &HashMap<String, Account>) -> String {
    let mut rows: Vec<(&String, &Account)> = accounts.iter().collect();
    rows.sort_by(|a, b| a.0.cmp(b.0));
    let datasets = rows
        .into_iter()
        .map(|(name, a)| {
            JsonValue::object(vec![
                ("name", name.as_str().into()),
                ("budget", a.budget.into()),
                ("spent", a.spent.into()),
            ])
        })
        .collect();
    let mut out = JsonValue::object(vec![
        ("schema", SCHEMA.into()),
        ("datasets", JsonValue::Array(datasets)),
    ])
    .to_pretty();
    out.push('\n');
    out
}

fn parse_snapshot(text: &str) -> Result<HashMap<String, Account>, LedgerError> {
    let parse = || -> Result<HashMap<String, Account>, String> {
        let doc = JsonValue::parse(text)?;
        let obj = doc.as_object("snapshot")?;
        let schema = obj.get_str("schema")?;
        if schema != SCHEMA {
            return Err(format!("unknown schema `{schema}`, expected `{SCHEMA}`"));
        }
        let mut accounts = HashMap::new();
        for row in obj.get_array("datasets")? {
            let row = row.as_object("dataset row")?;
            accounts.insert(
                row.get_str("name")?,
                Account {
                    budget: row.get_f64("budget")?,
                    spent: row.get_f64("spent")?,
                },
            );
        }
        Ok(accounts)
    };
    parse().map_err(LedgerError::Snapshot)
}

#[cfg(test)]
// Exact `==` on f64 is deliberate in tests: they pin bit-identical
// outputs (DESIGN.md §5), so an epsilon tolerance would weaken them.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> PathBuf {
        let path = std::env::temp_dir().join(format!(
            "updp-ledger-test-{}-{tag}.json",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn reserve_grants_then_refuses() {
        let ledger = Ledger::in_memory();
        ledger.register("d", 1.0).unwrap();
        assert!(ledger.reserve("d", 0.7).unwrap().is_ok());
        let refusal = ledger.reserve("d", 0.7).unwrap().unwrap_err();
        assert_eq!(refusal.requested, 0.7);
        assert!((refusal.available - 0.3).abs() < 1e-12);
        // The remaining 0.3 is still spendable.
        assert!(ledger.reserve("d", 0.3).unwrap().is_ok());
    }

    #[test]
    fn rejects_bad_parameters_and_unknown_datasets() {
        let ledger = Ledger::in_memory();
        assert!(matches!(
            ledger.register("d", 0.0),
            Err(LedgerError::BadParameter(_))
        ));
        ledger.register("d", 1.0).unwrap();
        assert!(matches!(
            ledger.reserve("d", f64::NAN),
            Err(LedgerError::BadParameter(_))
        ));
        assert!(matches!(
            ledger.reserve("ghost", 0.1),
            Err(LedgerError::UnknownDataset(_))
        ));
    }

    #[test]
    fn snapshot_survives_restart_and_blocks_replay() {
        let path = temp_path("replay");
        {
            let ledger = Ledger::open(&path).unwrap();
            ledger.register("salaries", 0.5).unwrap();
            assert!(ledger.reserve("salaries", 0.5).unwrap().is_ok());
        }
        // "Restart": a fresh ledger over the same snapshot.
        let ledger = Ledger::open(&path).unwrap();
        // Re-registering the same name must NOT reset `spent` — and a
        // bigger requested budget must NOT mint fresh ε either.
        let account = ledger.register("salaries", 1e6).unwrap();
        assert_eq!(account.spent, 0.5);
        assert_eq!(account.budget, 0.5, "re-register raised the budget");
        assert!(ledger.reserve("salaries", 0.1).unwrap().is_err());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn register_pins_the_budget_at_first_registration() {
        let ledger = Ledger::in_memory();
        ledger.register("d", 1.0).unwrap();
        ledger.reserve("d", 1.0).unwrap().unwrap();
        // Drop-and-re-register (the registry drops data, never the
        // ledger entry) cannot buy a second life.
        let account = ledger.register("d", 50.0).unwrap();
        assert_eq!(account.budget, 1.0);
        assert!(ledger.reserve("d", 0.1).unwrap().is_err());
    }

    #[test]
    fn reserve_many_matches_item_by_item_semantics() {
        let one = Ledger::in_memory();
        one.register("d", 1.0).unwrap();
        let many = Ledger::in_memory();
        many.register("d", 1.0).unwrap();
        let amounts = [0.4, 0.4, 0.4, 0.2];
        let batched = many.reserve_many("d", &amounts).unwrap();
        for (&eps, from_batch) in amounts.iter().zip(batched) {
            let single = one.reserve("d", eps).unwrap();
            assert_eq!(single.is_ok(), from_batch.is_ok(), "eps {eps}");
        }
        assert_eq!(
            one.account("d").unwrap().spent,
            many.account("d").unwrap().spent
        );
    }

    #[test]
    fn snapshot_round_trips_through_the_shared_codec() {
        let ledger = Ledger::in_memory();
        ledger.register("b", 2.0).unwrap();
        ledger.register("a", 1.0).unwrap();
        ledger.reserve("a", 0.25).unwrap().unwrap();
        let accounts = parse_snapshot(&ledger.snapshot_json().unwrap()).unwrap();
        assert_eq!(accounts.len(), 2);
        assert_eq!(
            accounts["a"],
            Account {
                budget: 1.0,
                spent: 0.25
            }
        );
    }

    #[test]
    fn poisoned_accounts_lock_is_an_error_not_a_cascade() {
        let ledger = Ledger::in_memory();
        ledger.register("d", 1.0).unwrap();
        let poison = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = ledger.accounts.lock().unwrap();
            panic!("poison");
        }));
        assert!(poison.is_err());
        assert_eq!(ledger.account("d").unwrap_err(), LedgerError::Poisoned);
        assert_eq!(ledger.reserve("d", 0.1).unwrap_err(), LedgerError::Poisoned);
        assert_eq!(
            ledger.register("e", 1.0).unwrap_err(),
            LedgerError::Poisoned
        );
        assert_eq!(ledger.list().unwrap_err(), LedgerError::Poisoned);
    }

    #[test]
    fn corrupt_snapshot_is_an_error_not_a_reset() {
        let path = temp_path("corrupt");
        std::fs::write(&path, "{ not json").unwrap();
        assert!(matches!(Ledger::open(&path), Err(LedgerError::Snapshot(_))));
        let _ = std::fs::remove_file(&path);
    }

    /// The ISSUE's accountant hammer: 8 threads × 25 requests of
    /// ε = 0.01 against a budget of 1.0 (total demand 2.0). The mutex
    /// makes reservation atomic, so (a) the granted sum never exceeds
    /// the budget (+ float tolerance), and (b) the number of grants is
    /// *deterministic* — exactly 100 — because equal-ε arithmetic
    /// admits exactly one cut-off regardless of thread interleaving.
    #[test]
    fn concurrent_hammer_never_overspends_and_refusal_count_is_deterministic() {
        const THREADS: usize = 8;
        const PER_THREAD: usize = 25;
        const EPS: f64 = 0.01;
        let ledger = Ledger::in_memory();
        ledger.register("hot", 1.0).unwrap();
        let grants: usize = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    scope.spawn(|| {
                        (0..PER_THREAD)
                            .filter(|_| ledger.reserve("hot", EPS).unwrap().is_ok())
                            .count()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        let account = ledger.account("hot").unwrap();
        assert!(
            account.spent <= account.budget + budget_tolerance(account.budget),
            "overspent: {} of {}",
            account.spent,
            account.budget
        );
        // Every one of the 200 attempts was either granted or refused;
        // grants are pinned exactly, hence so are refusals.
        assert_eq!(grants, 100, "refusals = {}", THREADS * PER_THREAD - grants);
        assert!((account.spent - 1.0).abs() < 1e-9);
    }
}
