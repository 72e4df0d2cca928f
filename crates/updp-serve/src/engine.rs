//! The query engine: budgeted, deterministic, hardened — dispatching
//! any served estimator **by name**.
//!
//! A batch request is a list of independent queries against one
//! dataset plus a client seed. Each query names an estimator from the
//! [`EstimatorCatalog`]: the five universal estimators and the six
//! pure ε-DP Table 1 baselines (`"kv18"`, `"coinpress"`, …, with their
//! required assumptions echoed back in the response). Execution is
//! three deterministic phases:
//!
//! 1. **Validate + Reserve** — estimator names are resolved and their
//!    parameters and the clamp bound validated *before any budget
//!    moves*; then, in query order, each query's nominal ε is
//!    atomically reserved in the [`crate::ledger::Ledger`]; refusals
//!    are recorded and those queries never execute. Sequential
//!    reservation makes the refusal pattern a pure function of the
//!    ledger state and the request, independent of thread scheduling.
//! 2. **Execute** — granted queries run concurrently through
//!    [`updp_core::parallel::par_map_indexed`] against one
//!    [`PreparedDataset`](updp_statistical::PreparedDataset) snapshot
//!    (no registry lock is held during estimation; repeated queries
//!    reuse its cached sorted/discretized artifacts); query `i`
//!    derives its generator with `child_rng(request_seed, i)`
//!    (DESIGN.md §1.1), so the response is bit-reproducible for a
//!    given seed at any thread count.
//! 3. **Settle** — in query order, each release charges its snapping
//!    ε inflation as a top-up (it depends on the privately derived
//!    noise scale, so it is only known post-execution). A failed
//!    top-up converts the result into a refusal.
//!
//! **Every release is hardened**: each scalar goes through
//! [`updp_core::snapping::snapped_laplace_mechanism`] (Mironov, CCS
//! 2012). The estimator runs at `0.9·ε`, the remaining `0.1·ε` pays
//! for the snapped re-release whose sensitivity proxy is the
//! estimator's own [`Release::sensitivities`] entry (a privately
//! derived or public-parameter scale), and the ledger is debited
//! `0.9·ε + 0.1·ε·(1 + inflation)` per DESIGN.md §1.3/§6.

use crate::ledger::{Grant, Ledger, LedgerError, Refusal};
use crate::registry::Dataset;
use updp_core::parallel::par_map_indexed;
use updp_core::privacy::Epsilon;
use updp_core::rng::child_rng;
use updp_core::snapping::{snapped_laplace_mechanism, snapping_epsilon_inflation, snapping_lambda};
use updp_core::UpdpError;
use updp_statistical::{EstimateParams, Estimator, Privacy, Release, DEFAULT_BETA};

/// Budget share driving the underlying estimator.
pub const ESTIMATOR_SHARE: f64 = 0.9;
/// Budget share paying for the snapped release.
pub(crate) const RELEASE_SHARE: f64 = 1.0 - ESTIMATOR_SHARE;

/// Default clamp bound `B` for releases (DESIGN.md §6); requests may
/// override it per batch.
pub const DEFAULT_BOUND: f64 = 1e9;

/// The estimators served by the engine, sorted by name: every
/// [`Privacy::PureDp`] estimator — the five universal ones plus the
/// pure ε-DP `updp-baselines` comparators. The ledger sums ε under
/// basic composition, which accounts for nothing weaker.
#[derive(Debug)]
pub struct EstimatorCatalog {
    estimators: Vec<&'static Estimator>,
}

impl EstimatorCatalog {
    /// The standard catalog: every pure ε-DP universal and baseline
    /// estimator (11 names).
    pub fn standard() -> Self {
        let mut estimators: Vec<&'static Estimator> = updp_statistical::UNIVERSAL
            .into_iter()
            .chain(updp_baselines::BASELINES)
            .filter(|est| est.privacy() == Privacy::PureDp)
            .collect();
        estimators.sort_by_key(|est| est.name());
        EstimatorCatalog { estimators }
    }

    /// Resolves a wire name (accepting `multi_mean` as an alias for
    /// the historical `multi-mean`).
    pub fn get(&self, name: &str) -> Option<&'static Estimator> {
        self.position(name).map(|i| self.estimators[i])
    }

    /// The index of [`EstimatorCatalog::get`]'s estimator in the sorted
    /// catalog (the metrics' estimator label index).
    pub(crate) fn position(&self, name: &str) -> Option<usize> {
        let canonical = if name == "multi_mean" {
            "multi-mean"
        } else {
            name
        };
        self.iter().position(|est| est.name() == canonical)
    }

    /// All estimator names, sorted (for listings and error messages).
    pub fn names(&self) -> Vec<&'static str> {
        self.iter().map(Estimator::name).collect()
    }

    /// All estimators, sorted by name (for the `/v1/estimators`
    /// listing).
    pub fn iter(&self) -> impl Iterator<Item = &'static Estimator> + '_ {
        self.estimators.iter().copied()
    }
}

/// One query of a batch request.
#[derive(Debug, Clone, PartialEq)]
pub struct QuerySpec {
    /// The estimator's registry name (`"mean"`, `"kv18"`, …).
    pub estimator: String,
    /// Nominal ε this query spends (the snapping inflation is charged
    /// on top).
    pub epsilon: f64,
    /// Estimator-specific parameters (quantile level `q`, assumed
    /// range `r`, …) as declared by the estimator's `ParamSpec`s.
    pub options: Vec<(String, f64)>,
}

impl QuerySpec {
    /// A parameter-less query spec.
    pub fn new(estimator: &str, epsilon: f64) -> Self {
        QuerySpec {
            estimator: estimator.into(),
            epsilon,
            options: Vec::new(),
        }
    }

    /// Adds a named parameter (builder style).
    pub fn with(mut self, name: &str, value: f64) -> Self {
        self.options.push((name.into(), value));
        self
    }
}

/// How released values leave the server: snapped-Laplace hardened
/// releases (Mironov, CCS 2012), the only mode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ReleaseMode {
    /// Snapped release clamped to `[-bound, bound]`.
    Hardened {
        /// Clamp bound `B`: finite and positive, else the batch fails
        /// with [`EngineError::BadQuery`] before any budget moves.
        bound: f64,
    },
}

/// The snapping metadata attached to a successful result: one grid
/// width `Λ` per released scalar.
#[derive(Debug, Clone, PartialEq)]
pub struct ReleaseInfo {
    /// Grid widths — every released value is a multiple of its Λ.
    pub lambdas: Vec<f64>,
    /// The clamp bound in effect.
    pub bound: f64,
    /// Total ε inflation charged on top of the nominal ε.
    pub inflation: f64,
}

/// Outcome of one query in a batch.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryOutcome {
    /// The query ran and released values (pure ε-DP, like every
    /// served estimator).
    Released {
        /// The estimator's registry name.
        kind: &'static str,
        /// Table 1 assumptions the estimator's utility requires
        /// (echoed to the client; empty for universal estimators).
        assumptions: &'static [&'static str],
        /// Released value(s) — one entry, except `multi-mean`.
        values: Vec<f64>,
        /// Total ε debited from the ledger for this query.
        epsilon_charged: f64,
        /// Release-path metadata.
        release: ReleaseInfo,
    },
    /// The ledger refused the query's budget.
    Refused {
        /// The estimator's registry name.
        kind: &'static str,
        /// The structured refusal.
        refusal: Refusal,
    },
    /// The estimator itself failed (bad parameters, too little data…).
    Failed {
        /// The estimator's registry name.
        kind: &'static str,
        /// The estimator error, rendered.
        message: String,
    },
}

/// A batch execution error that aborts the whole request (as opposed
/// to per-query outcomes).
#[derive(Debug)]
pub enum EngineError {
    /// Ledger I/O or parameter failure.
    Ledger(LedgerError),
    /// A query names an estimator the catalog does not know.
    UnknownEstimator {
        /// The name the client sent.
        name: String,
        /// Every name the catalog does know.
        known: Vec<&'static str>,
    },
    /// A query spec is invalid before any budget is touched.
    BadQuery(String),
    /// An internal invariant failed (e.g. a poisoned registry lock);
    /// surfaced as a 500 `internal` wire error, not a worker panic.
    Internal(String),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Ledger(e) => write!(f, "{e}"),
            EngineError::UnknownEstimator { name, known } => write!(
                f,
                "unknown estimator `{name}`; known estimators: {}",
                known.join(", ")
            ),
            EngineError::BadQuery(reason) => write!(f, "bad query: {reason}"),
            EngineError::Internal(reason) => write!(f, "internal error: {reason}"),
        }
    }
}

impl From<LedgerError> for EngineError {
    fn from(e: LedgerError) -> Self {
        EngineError::Ledger(e)
    }
}

fn validate_spec(
    catalog: &EstimatorCatalog,
    spec: &QuerySpec,
    dim: usize,
) -> Result<(), EngineError> {
    let estimator = catalog
        .get(&spec.estimator)
        .ok_or_else(|| EngineError::UnknownEstimator {
            name: spec.estimator.clone(),
            known: catalog.names(),
        })?;
    if !(spec.epsilon.is_finite() && spec.epsilon > 0.0) {
        return Err(EngineError::BadQuery(format!(
            "epsilon must be finite and positive, got {}",
            spec.epsilon
        )));
    }
    if !estimator.is_multi_column() && dim != 1 {
        return Err(EngineError::BadQuery(format!(
            "query `{}` needs a dimension-1 dataset, got dimension {dim}",
            estimator.name()
        )));
    }
    // Parameter validation is budget-free: Epsilon is already vetted
    // above, so construction cannot fail here.
    let params =
        query_params(spec, spec.epsilon).map_err(|e| EngineError::BadQuery(e.to_string()))?;
    estimator
        .validate_params(&params)
        .map_err(|e| EngineError::BadQuery(e.to_string()))?;
    Ok(())
}

/// Builds the `EstimateParams` for a spec at an effective ε (the
/// nominal ε in validation, `ESTIMATOR_SHARE·ε` in execution).
fn query_params(spec: &QuerySpec, effective_epsilon: f64) -> Result<EstimateParams, UpdpError> {
    let mut params = EstimateParams::new(Epsilon::new(effective_epsilon)?).with_beta(DEFAULT_BETA);
    for (name, value) in &spec.options {
        params.set(name, *value);
    }
    Ok(params)
}

/// Executes a batch of queries against `dataset`, metering `ledger`.
///
/// Returns one [`QueryOutcome`] per spec, in spec order. See the
/// module docs for the three-phase structure and determinism argument.
pub fn execute_batch(
    dataset: &Dataset,
    catalog: &EstimatorCatalog,
    ledger: &Ledger,
    specs: &[QuerySpec],
    seed: u64,
    mode: ReleaseMode,
) -> Result<Vec<QueryOutcome>, EngineError> {
    execute_batch_observed(dataset, catalog, ledger, specs, seed, mode, None)
}

/// [`execute_batch`] with optional instrumentation: per-estimator
/// query counts, execution latency, and snapping-inflation totals
/// recorded into `obs` (DESIGN.md §11). Observe-only by construction:
/// the metrics sink is consulted for nothing — outcomes, seeds, and
/// ledger arithmetic are identical with `obs` present or absent
/// (pinned by `served_releases_match_the_uninstrumented_engine` in
/// `tests/observability.rs`).
pub(crate) fn execute_batch_observed(
    dataset: &Dataset,
    catalog: &EstimatorCatalog,
    ledger: &Ledger,
    specs: &[QuerySpec],
    seed: u64,
    mode: ReleaseMode,
    obs: Option<&crate::metrics::ServeMetrics>,
) -> Result<Vec<QueryOutcome>, EngineError> {
    let ReleaseMode::Hardened { bound } = mode;
    if !(bound.is_finite() && bound > 0.0) {
        return Err(EngineError::BadQuery(format!(
            "bound must be finite and positive, got {bound}"
        )));
    }
    for spec in specs {
        validate_spec(catalog, spec, dataset.dim)?;
    }
    let positions: Vec<usize> = specs
        .iter()
        .map(|spec| catalog.position(&spec.estimator).expect("validated above"))
        .collect();
    let estimators: Vec<&Estimator> = positions.iter().map(|&i| catalog.estimators[i]).collect();

    // Acquire the snapshot BEFORE any budget moves: if the registry
    // lock is poisoned, the request fails with `Internal` while the
    // ledger is untouched — otherwise retries against a wedged
    // dataset would drain its privacy budget with zero releases.
    let prepared = dataset
        .snapshot()
        .map_err(|e| EngineError::Internal(e.to_string()))?;

    // Phase 1: in-order nominal reservations ⇒ deterministic refusals.
    // One `reserve_many` call: item-by-item semantics, one snapshot
    // write for the whole batch.
    let nominal: Vec<f64> = specs.iter().map(|s| s.epsilon).collect();
    let grant = ledger.reserve_many(&dataset.name, &nominal)?;

    // Phase 2: concurrent execution with per-query child seeds, all
    // against ONE immutable snapshot — no lock is held while
    // estimating, and every query of the batch sees the same data
    // version (and shares its artifact caches).
    let view = prepared.view();
    let executed: Vec<Option<Result<Execution, UpdpError>>> = par_map_indexed(specs.len(), |i| {
        // Timing lives here (not in updp-obs) so the clock read
        // stays in transport-scoped code; the result feeds metrics
        // only, never the estimate.
        let started = obs.map(|_| std::time::Instant::now());
        let result =
            run_query(&grant, i, &view, estimators[i], &specs[i], bound, seed).transpose()?;
        if let (Some(obs), Some(started)) = (obs, started) {
            obs.record_engine_query(positions[i], started.elapsed().as_micros() as u64);
        }
        Some(result)
    });
    drop(view);
    drop(prepared);

    // Phase 3: in-order inflation top-ups (again one `reserve_many`),
    // then assemble outcomes.
    let inflations: Vec<f64> = executed
        .iter()
        .filter_map(|e| match e {
            Some(Ok(execution)) if execution.release.inflation > 0.0 => {
                Some(execution.release.inflation)
            }
            _ => None,
        })
        .collect();
    let topups = if inflations.is_empty() {
        None
    } else {
        Some(ledger.reserve_many(&dataset.name, &inflations)?)
    };
    let mut topups = topups.iter().flat_map(|grant| grant.iter().copied());
    let mut outcomes = Vec::with_capacity(specs.len());
    for (i, spec) in specs.iter().enumerate() {
        let kind = estimators[i].name();
        let outcome = match (&grant[i], &executed[i]) {
            (Err(refusal), _) => QueryOutcome::Refused {
                kind,
                refusal: *refusal,
            },
            (Ok(_), Some(Ok(execution))) => {
                let inflation = execution.release.inflation;
                let topup = if inflation > 0.0 {
                    topups.next().expect("one top-up per inflated query").err()
                } else {
                    None
                };
                match topup {
                    Some(refusal) => QueryOutcome::Refused { kind, refusal },
                    None => {
                        if let Some(obs) = obs {
                            if inflation > 0.0 {
                                obs.record_engine_inflation(positions[i], inflation);
                            }
                        }
                        QueryOutcome::Released {
                            kind,
                            assumptions: estimators[i].assumptions(),
                            values: execution.values.clone(),
                            epsilon_charged: spec.epsilon + inflation,
                            release: execution.release.clone(),
                        }
                    }
                }
            }
            (Ok(_), Some(Err(e))) => QueryOutcome::Failed {
                kind,
                message: e.to_string(),
            },
            (Ok(_), None) => unreachable!("granted query skipped execution"),
        };
        outcomes.push(outcome);
    }
    Ok(outcomes)
}

/// A successful estimator run, pre-settlement.
struct Execution {
    values: Vec<f64>,
    release: ReleaseInfo,
}

/// Runs query `i` of a batch through its [`Estimator`], or returns
/// `Ok(None)` when `grant` refused it. This is the crate's one call of
/// `Estimator::estimate` (R9 in DESIGN.md §9): the `Grant` is proof
/// that the ledger debited the query's ε before any noise is drawn.
/// The query's generator is `child_rng(seed, i)`, so the response is
/// bit-reproducible for a given seed at any thread count.
///
/// The estimator runs at `ESTIMATOR_SHARE·ε` and each released scalar
/// is re-released through the snapping mechanism at its share of
/// `RELEASE_SHARE·ε`, noised at the estimator's own
/// [`Release::sensitivities`] proxy (a privately-released or
/// public-parameter scale, so reusing it is post-processing).
#[expect(
    clippy::disallowed_methods,
    reason = "the ledger Grant proves the query's ε was debited first"
)]
fn run_query(
    grant: &Grant,
    i: usize,
    view: &updp_statistical::DataView<'_>,
    estimator: &Estimator,
    spec: &QuerySpec,
    bound: f64,
    seed: u64,
) -> Result<Option<Execution>, UpdpError> {
    let Some(Ok(_)) = grant.get(i) else {
        return Ok(None);
    };
    let mut rng = child_rng(seed, i as u64);
    let params = query_params(spec, spec.epsilon * ESTIMATOR_SHARE)?;
    let released: Release = estimator.estimate(&mut rng, view, &params)?;

    let per_scalar = Epsilon::new(spec.epsilon * RELEASE_SHARE / released.values.len() as f64)?;
    let mut values = Vec::with_capacity(released.values.len());
    let mut lambdas = Vec::with_capacity(released.values.len());
    let mut inflation = 0.0;
    for (&value, &sensitivity) in released.values.iter().zip(&released.sensitivities) {
        let sensitivity = sensitivity.max(f64::MIN_POSITIVE);
        let scale = sensitivity / per_scalar.get();
        values.push(snapped_laplace_mechanism(
            &mut rng,
            value,
            sensitivity,
            per_scalar,
            bound,
        )?);
        lambdas.push(snapping_lambda(scale));
        inflation += per_scalar.get() * snapping_epsilon_inflation(scale, bound);
    }
    Ok(Some(Execution {
        values,
        release: ReleaseInfo {
            lambdas,
            bound,
            inflation,
        },
    }))
}

#[cfg(test)]
// Exact `==` on f64 is deliberate in tests: they pin bit-identical
// outputs (DESIGN.md §5), so an epsilon tolerance would weaken them.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use crate::registry::Registry;
    use rand::Rng;
    use updp_core::rng::{child_seed, seeded};
    use updp_dist::{ContinuousDistribution, Gaussian};

    const HARDENED: ReleaseMode = ReleaseMode::Hardened {
        bound: DEFAULT_BOUND,
    };

    fn catalog() -> EstimatorCatalog {
        EstimatorCatalog::standard()
    }

    fn gaussian_registry(n: usize) -> (Registry, Ledger) {
        let mut rng = seeded(0xDA7A);
        let data = Gaussian::new(100.0, 5.0).unwrap().sample_vec(&mut rng, n);
        let registry = Registry::new();
        registry.register("g", vec![data]).unwrap();
        let ledger = Ledger::in_memory();
        ledger.register("g", 100.0).unwrap();
        (registry, ledger)
    }

    fn batch() -> Vec<QuerySpec> {
        vec![
            QuerySpec::new("mean", 0.5),
            QuerySpec::new("quantile", 0.5).with("q", 0.9),
            QuerySpec::new("iqr", 0.5),
        ]
    }

    #[test]
    fn batch_is_bit_reproducible_for_a_seed() {
        let (registry, ledger) = gaussian_registry(4_000);
        let dataset = registry.get("g").unwrap();
        let catalog = catalog();
        let a = execute_batch(&dataset, &catalog, &ledger, &batch(), 7, HARDENED).unwrap();
        let b = execute_batch(&dataset, &catalog, &ledger, &batch(), 7, HARDENED).unwrap();
        assert_eq!(a, b);
        // And a different seed produces different draws.
        let c = execute_batch(&dataset, &catalog, &ledger, &batch(), 8, HARDENED).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn thread_count_does_not_change_the_response() {
        let (registry, ledger) = gaussian_registry(4_000);
        let dataset = registry.get("g").unwrap();
        let catalog = catalog();
        let run = |threads: &str| {
            std::env::set_var(updp_core::parallel::THREADS_ENV, threads);
            let out = execute_batch(&dataset, &catalog, &ledger, &batch(), 7, HARDENED).unwrap();
            std::env::remove_var(updp_core::parallel::THREADS_ENV);
            out
        };
        assert_eq!(run("1"), run("8"));
    }

    #[test]
    fn hardened_releases_land_on_the_grid_and_charge_inflation() {
        let (registry, ledger) = gaussian_registry(4_000);
        let dataset = registry.get("g").unwrap();
        let catalog = catalog();
        let spent_before = ledger.account("g").unwrap().spent;
        let outcomes = execute_batch(&dataset, &catalog, &ledger, &batch(), 3, HARDENED).unwrap();
        let mut nominal = 0.0;
        for (outcome, spec) in outcomes.iter().zip(batch()) {
            nominal += spec.epsilon;
            match outcome {
                QueryOutcome::Released {
                    values,
                    epsilon_charged,
                    release:
                        ReleaseInfo {
                            lambdas, inflation, ..
                        },
                    ..
                } => {
                    // DESIGN.md §1.3: released values are multiples of Λ.
                    for (value, lambda) in values.iter().zip(lambdas) {
                        let k = value / lambda;
                        assert!(
                            (k - k.round()).abs() < 1e-9,
                            "{value} not on grid Λ = {lambda}"
                        );
                    }
                    assert!(*inflation > 0.0);
                    assert!(*epsilon_charged > spec.epsilon);
                }
                other => panic!("expected snapped release, got {other:?}"),
            }
        }
        // The ledger was debited the *inflated* total, not the nominal.
        let spent = ledger.account("g").unwrap().spent - spent_before;
        assert!(spent > nominal, "spent {spent} <= nominal {nominal}");
    }

    #[test]
    fn catalog_serves_exactly_the_pure_dp_estimators() {
        let catalog = catalog();
        assert_eq!(
            catalog.names(),
            [
                "coinpress",
                "coinpress_variance",
                "iqr",
                "ksu20",
                "kv18",
                "kv18_variance",
                "mean",
                "multi-mean",
                "naive_clip",
                "quantile",
                "variance",
            ]
        );
        for est in catalog.iter() {
            assert_eq!(est.privacy(), Privacy::PureDp, "{}", est.name());
        }
    }

    #[test]
    fn invalid_bound_is_a_pre_budget_bad_query() {
        let (registry, ledger) = gaussian_registry(1_000);
        let dataset = registry.get("g").unwrap();
        let catalog = catalog();
        for bound in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let err = execute_batch(
                &dataset,
                &catalog,
                &ledger,
                &batch(),
                1,
                ReleaseMode::Hardened { bound },
            )
            .unwrap_err();
            assert!(matches!(err, EngineError::BadQuery(_)), "{bound}: {err:?}");
        }
        assert_eq!(ledger.account("g").unwrap().spent, 0.0);
    }

    #[test]
    fn baselines_are_servable_by_name_with_assumption_metadata() {
        let (registry, ledger) = gaussian_registry(4_000);
        let dataset = registry.get("g").unwrap();
        let catalog = catalog();
        let specs = vec![
            QuerySpec::new("kv18", 0.5)
                .with("r", 1000.0)
                .with("sigma_min", 0.1)
                .with("sigma_max", 100.0),
            QuerySpec::new("naive_clip", 0.5).with("r", 1000.0),
        ];
        let out = execute_batch(&dataset, &catalog, &ledger, &specs, 21, HARDENED).unwrap();

        // kv18's served value is the direct free function at
        // ESTIMATOR_SHARE·ε on query 0's child stream, snapped with the
        // same stream at RELEASE_SHARE·ε and the estimator's
        // sensitivity proxy; it carries its Table 1 assumptions.
        let snapshot = dataset.snapshot().unwrap();
        let params = query_params(&specs[0], 0.5 * ESTIMATOR_SHARE).unwrap();
        let mut rng = child_rng(21, 0);
        let released = catalog
            .get("kv18")
            .unwrap()
            .estimate(&mut rng, &snapshot.view(), &params)
            .unwrap();
        let direct = updp_baselines::kv18_gaussian_mean(
            &mut seeded(child_seed(21, 0)),
            &snapshot.columns()[0],
            1000.0,
            0.1,
            100.0,
            Epsilon::new(0.5 * ESTIMATOR_SHARE).unwrap(),
        )
        .unwrap();
        assert_eq!(released.primary().to_bits(), direct.to_bits());
        let expected = snapped_laplace_mechanism(
            &mut rng,
            direct,
            released.sensitivities[0],
            Epsilon::new(0.5 * RELEASE_SHARE).unwrap(),
            DEFAULT_BOUND,
        )
        .unwrap();
        match &out[0] {
            QueryOutcome::Released {
                kind,
                values,
                assumptions,
                ..
            } => {
                assert_eq!(*kind, "kv18");
                assert_eq!(values[0].to_bits(), expected.to_bits());
                assert_eq!(*assumptions, &["A1", "A2", "A3"]);
            }
            other => panic!("{other:?}"),
        }
        match &out[1] {
            QueryOutcome::Released {
                kind, assumptions, ..
            } => {
                assert_eq!(*kind, "naive_clip");
                assert_eq!(*assumptions, &["A1"]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unknown_estimator_is_a_structured_pre_budget_error() {
        let (registry, ledger) = gaussian_registry(1_000);
        let dataset = registry.get("g").unwrap();
        let catalog = catalog();
        // Exact statistics and (ε, δ)-DP baselines are not served.
        for unknown in [
            "mode",
            "nonprivate",
            "nonprivate_variance",
            "nonprivate_iqr",
            "dl09",
            "bs19",
        ] {
            let specs = vec![QuerySpec::new(unknown, 0.5).with("r", 1000.0)];
            let err = execute_batch(&dataset, &catalog, &ledger, &specs, 1, HARDENED).unwrap_err();
            match &err {
                EngineError::UnknownEstimator { name, known } => {
                    assert_eq!(name, unknown);
                    assert!(known.contains(&"kv18"));
                    assert!(known.contains(&"mean"));
                }
                other => panic!("{other:?}"),
            }
        }
        // No budget moved.
        assert_eq!(ledger.account("g").unwrap().spent, 0.0);
    }

    #[test]
    fn missing_required_baseline_params_fail_before_budget() {
        let (registry, ledger) = gaussian_registry(1_000);
        let dataset = registry.get("g").unwrap();
        let catalog = catalog();
        let specs = vec![QuerySpec::new("kv18", 0.5)];
        let err = execute_batch(&dataset, &catalog, &ledger, &specs, 1, HARDENED).unwrap_err();
        assert!(matches!(err, EngineError::BadQuery(_)), "{err:?}");
        assert_eq!(ledger.account("g").unwrap().spent, 0.0);
    }

    #[test]
    fn exhaustion_refuses_deterministically_mid_batch() {
        let (registry, _) = gaussian_registry(4_000);
        let dataset = registry.get("g").unwrap();
        let catalog = catalog();
        let ledger = Ledger::in_memory();
        ledger.register("g", 1.2).unwrap();
        let outcomes = execute_batch(&dataset, &catalog, &ledger, &batch(), 5, HARDENED).unwrap();
        assert!(matches!(outcomes[0], QueryOutcome::Released { .. }));
        assert!(matches!(outcomes[1], QueryOutcome::Released { .. }));
        match &outcomes[2] {
            QueryOutcome::Refused { refusal, .. } => {
                assert_eq!(refusal.requested, 0.5);
                assert!((refusal.available - 0.2).abs() < 1e-9);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn multi_mean_over_columns() {
        let mut rng = seeded(9);
        let columns: Vec<Vec<f64>> = [10.0, -3.0]
            .iter()
            .map(|&mu| Gaussian::new(mu, 1.0).unwrap().sample_vec(&mut rng, 4_000))
            .collect();
        let registry = Registry::new();
        registry.register("mv", columns).unwrap();
        let ledger = Ledger::in_memory();
        ledger.register("mv", 10.0).unwrap();
        let dataset = registry.get("mv").unwrap();
        let catalog = catalog();
        // Both the historical wire name and the underscore alias work.
        for name in ["multi-mean", "multi_mean"] {
            let specs = vec![QuerySpec::new(name, 2.0)];
            let out = execute_batch(&dataset, &catalog, &ledger, &specs, 1, HARDENED).unwrap();
            match &out[0] {
                QueryOutcome::Released { values, kind, .. } => {
                    assert_eq!(*kind, "multi-mean");
                    assert_eq!(values.len(), 2);
                    assert!((values[0] - 10.0).abs() < 0.5, "{values:?}");
                    assert!((values[1] + 3.0).abs() < 0.5, "{values:?}");
                }
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn scalar_queries_reject_multivariate_datasets() {
        let registry = Registry::new();
        registry
            .register("mv", vec![vec![1.0; 64], vec![2.0; 64]])
            .unwrap();
        let ledger = Ledger::in_memory();
        ledger.register("mv", 1.0).unwrap();
        let dataset = registry.get("mv").unwrap();
        let catalog = catalog();
        let specs = vec![QuerySpec::new("mean", 0.1)];
        let err = execute_batch(&dataset, &catalog, &ledger, &specs, 1, HARDENED).unwrap_err();
        assert!(matches!(err, EngineError::BadQuery(_)));
        // Validation happens before any budget moves.
        assert_eq!(ledger.account("mv").unwrap().spent, 0.0);
    }

    #[test]
    fn estimator_failures_surface_per_query_but_still_spend() {
        // 8 records is below MIN_N = 16: the budget is reserved (the
        // mechanism was authorized), then the estimator refuses.
        let registry = Registry::new();
        registry.register("tiny", vec![vec![1.0; 8]]).unwrap();
        let ledger = Ledger::in_memory();
        ledger.register("tiny", 1.0).unwrap();
        let dataset = registry.get("tiny").unwrap();
        let catalog = catalog();
        let specs = vec![QuerySpec::new("mean", 0.25)];
        let out = execute_batch(&dataset, &catalog, &ledger, &specs, 1, HARDENED).unwrap();
        assert!(matches!(&out[0], QueryOutcome::Failed { .. }), "{out:?}");
        assert_eq!(ledger.account("tiny").unwrap().spent, 0.25);
    }

    #[test]
    fn tiny_private_buckets_release_instead_of_failing() {
        // At ε = 0.02 these request seeds draw an IQR lower bound far
        // below the data's scale; a bucket index past ±2⁶² once failed
        // the query after its ε was spent. It now saturates.
        let data = Gaussian::new(1000.0, 10.0)
            .unwrap()
            .sample_vec(&mut seeded(1), 10_000);
        let registry = Registry::new();
        registry.register("g", vec![data]).unwrap();
        // Snapping at such a bucket inflates ε hugely (seed 2398's iqr
        // tops up ~2.4e8), so the budget must not refuse the release.
        let ledger = Ledger::in_memory();
        ledger.register("g", 1e12).unwrap();
        let dataset = registry.get("g").unwrap();
        let catalog = catalog();
        let specs = vec![
            QuerySpec::new("mean", 0.02),
            QuerySpec::new("variance", 0.02),
            QuerySpec::new("quantile", 0.02).with("q", 0.9),
            QuerySpec::new("iqr", 0.02),
        ];
        for seed in [342, 636, 2398] {
            let out = execute_batch(&dataset, &catalog, &ledger, &specs, seed, HARDENED).unwrap();
            for outcome in &out {
                assert!(
                    matches!(outcome, QueryOutcome::Released { values, .. }
                        if values.iter().all(|v| v.is_finite())),
                    "seed {seed}: {outcome:?}"
                );
            }
        }
    }

    #[test]
    fn repeated_quantile_queries_reuse_the_snapshot_grid() {
        // The cache effect: after one quantile query, the snapshot has
        // a grid cached for the privately-chosen bucket; a repeat
        // query with the same seed must hit it (same bucket) and stay
        // bit-identical to the first.
        let (registry, ledger) = gaussian_registry(4_000);
        let dataset = registry.get("g").unwrap();
        let catalog = catalog();
        let specs = vec![QuerySpec::new("quantile", 0.25).with("q", 0.5)];
        let a = execute_batch(&dataset, &catalog, &ledger, &specs, 5, HARDENED).unwrap();
        let cached_after_first = dataset.snapshot().unwrap().view().col(0).cached_grids();
        assert!(cached_after_first >= 1, "first query must warm the cache");
        let b = execute_batch(&dataset, &catalog, &ledger, &specs, 5, HARDENED).unwrap();
        assert_eq!(a, b);
        assert_eq!(
            dataset.snapshot().unwrap().view().col(0).cached_grids(),
            cached_after_first,
            "same-seed repeat must not grow the grid cache"
        );
    }

    #[test]
    fn seeds_follow_the_child_seed_scheme() {
        // Query i's stream is seeded(child_seed(seed, i)) — pin it so
        // the wire contract ("responses reproducible from the request
        // seed") can never silently drift from DESIGN.md §1.1.
        let mut a = seeded(child_seed(42, 1));
        let mut b = seeded(child_seed(42, 1));
        assert_eq!(a.gen::<u64>(), b.gen::<u64>());
    }
}
