//! The assessment engine: a session-style, memoizing, parallel
//! evaluation core behind the configuration searches.
//!
//! A search's candidates are neighbours (`Y` vs `Y + e_k`) that share
//! almost their entire state space. [`AssessmentEngine`] owns the search
//! inputs ([`ServerTypeRegistry`], [`SystemLoad`], [`Goals`],
//! [`SearchOptions`]) and threads two shared memo layers through all
//! assessments:
//!
//! 1. **Degraded-state cache** — keyed by the system state vector `X`,
//!    holding the per-state waiting-time vector `w^X` and saturation
//!    flag ([`wfms_performability::StateEvaluation`]). For a fixed
//!    `(registry, load)` pair, `w^X` does not depend on the candidate
//!    `Y` containing `X`, so each state is evaluated once across the
//!    whole search.
//! 2. **Birth–death-block cache** — keyed by `(type, Y_x)`, holding the
//!    per-type rate ladder ([`wfms_avail::BirthDeathBlock`]) whose
//!    closed-form marginal is that type's factor of the product-form
//!    stationary distribution ([`ProductFormModel`]). A candidate's
//!    availability is the product of its `k` marginals, so `Y + e_k`
//!    tabulates only the one new block.
//!
//! Availability is always solved in product form. At `ε = 0` the
//! performability fold visits every state in encoding order; at `ε > 0`
//! it walks the states in descending `π` order and stops once the
//! covered mass reaches `1 − ε`.
//!
//! Candidate evaluation over the exhaustive/B&B frontier — and the
//! per-state kernel over the independent degraded states of one
//! candidate — runs on a rayon pool sized by [`SearchOptions::jobs`].
//!
//! # Determinism contract
//!
//! Results are **bit-identical** for every `jobs` value and between
//! cold and warm engines. Three properties guarantee it: the cached
//! values are outputs of pure functions; parallel maps reduce in input
//! order; and the frontier is scanned in enumeration order with
//! fixed-size batches whose surplus results (past the first
//! goal-satisfying candidate) are discarded, so `trace` and
//! `evaluations` match the serial early-exit semantics exactly.
//!
//! # Observability
//!
//! Stable names (see `wfms-obs`): counters `engine.cache-hit` /
//! `engine.cache-miss` aggregate over both cache layers; the counter
//! `engine.screen-reject` fires once per candidate the adaptive-ε
//! screen proves infeasible; gauge `engine.parallel-candidates`
//! reports the size of the last candidate batch dispatched in
//! parallel.

// audit:allow-file(A006, reason = "both caches are keyed lookups (get/insert only, never iterated), so hash order never reaches results; bit-identity is asserted by tests/engine.rs")
use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use rayon::prelude::*;

use wfms_avail::{BirthDeathBlock, ProductFormModel, RepairPolicy, StateSpace, MINUTES_PER_YEAR};
use wfms_perf::{SystemLoad, WaitingOutcome};
use wfms_performability::{
    evaluate_state, fold_states, fold_states_truncated, waiting_time_caps, DegradedPolicy,
    PerformabilityError, StateEvaluation, TruncationOptions,
};
use wfms_statechart::{Configuration, ServerTypeId, ServerTypeRegistry};

use crate::annealing::AnnealingOptions;
use crate::assess::{
    run_preflight, Assessment, DegradationReport, DegradedStateRecord, DEGRADATION_DETAIL_CAP,
};
use crate::error::ConfigError;
use crate::goals::{GoalCheck, Goals};
use crate::journal;
use crate::journal::CacheProvenance;
use crate::search::{
    availability_critical_type, enumerate_bounded, enumerate_compositions, goal_lower_bounds,
    highest_utilization_type, minimum_stable_replicas, performability_critical_type,
    record_candidate, QuarantinedCandidate, SearchOptions, SearchResult,
};

/// Candidates per parallel dispatch over an exhaustive/B&B frontier.
/// Fixed (independent of `jobs`) so the set of assessed candidates —
/// and therefore every cache state — does not depend on the thread
/// count; surplus results past a winner are discarded to keep the trace
/// identical to the serial early-exit path.
const CANDIDATE_BATCH: usize = 32;

/// Per-rung shrink factor of the adaptive-ε screening ladder: when a
/// loose rung cannot prove a verdict, the next tries three decades
/// tighter, stopping an order of magnitude above the engine's own ε
/// (the bound inflation in [`AssessmentEngine::screen_waiting_at`]
/// requires every rung to stay strictly looser than the exact fold).
const SCREEN_LADDER_SHRINK: f64 = 1e-3;

/// A greedy step proven skippable by the adaptive-ε screen: the
/// candidate cannot meet the goals, and the search grows `growth` next.
/// `availability` is exact (closed-form product); `w_max` is the loose
/// fold's estimate, carried into the journal for explainability only.
struct ScreenedStep {
    growth: ServerTypeId,
    availability: f64,
    w_max: Option<f64>,
    cache: CacheProvenance,
}

/// Verdict of the waiting-goal side of the screen at one or more
/// ladder rungs. Only `ProvenViolation` / `ProvenMet` are sound
/// statements about the exact (engine-ε) fold; everything else falls
/// through to the exact assessment.
enum WaitingScreen {
    /// Some threshold type provably violates its waiting goal; `growth`
    /// carries the exact path's growth argmax when it, too, is proven.
    ProvenViolation {
        growth: Option<ServerTypeId>,
        w_max: f64,
    },
    /// Every threshold type provably meets its waiting goal.
    ProvenMet { w_max: f64 },
    /// The bounds straddle a threshold: no sound verdict at this rung.
    Unproven,
    /// The loose fold failed (fault, saturation, serving-free prefix):
    /// terminally inconclusive — tightening cannot help.
    Abstain,
}

/// Locks a cache mutex, recovering from poisoning: the caches hold
/// memoized values of pure functions, so a panicked worker can at most
/// have skipped an insert — the map itself is never left mid-update.
fn lock_cache<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A tick-stamped LRU map for the degraded-state cache: `get`
/// refreshes recency, and `insert` at capacity evicts the
/// least-recently-used entry (capacity `0` disables caching entirely,
/// preserving the historical contract). A `BTreeMap` recency index
/// keyed by a monotonic tick makes eviction `O(log n)`, so long
/// searches never pin a cold working set the way the old
/// fill-until-full policy did.
///
/// Eviction only changes *which* pure-function results stay resident —
/// never their values — so assessments remain bit-identical at any
/// capacity; under capacity pressure the hit/miss cache provenance in
/// the decision journal can legitimately differ from an unbounded run.
#[derive(Debug)]
struct LruCache<K, V> {
    map: HashMap<K, (Arc<V>, u64)>,
    recency: BTreeMap<u64, K>,
    capacity: usize,
    tick: u64,
}

impl<K: Eq + Hash + Clone, V> LruCache<K, V> {
    fn with_capacity(capacity: usize) -> Self {
        LruCache {
            map: HashMap::new(),
            recency: BTreeMap::new(),
            capacity,
            tick: 0,
        }
    }

    fn len(&self) -> usize {
        self.map.len()
    }

    fn get<Q>(&mut self, key: &Q) -> Option<Arc<V>>
    where
        K: std::borrow::Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.tick += 1;
        let tick = self.tick;
        let entry = self.map.get_mut(key)?;
        let previous = std::mem::replace(&mut entry.1, tick);
        let value = entry.0.clone();
        // Every resident entry has exactly one recency stamp; move it.
        if let Some(k) = self.recency.remove(&previous) {
            self.recency.insert(tick, k);
        }
        Some(value)
    }

    fn insert(&mut self, key: K, value: Arc<V>) {
        if self.capacity == 0 {
            return;
        }
        self.tick += 1;
        let tick = self.tick;
        if let Some(previous) = self.map.get(&key).map(|(_, t)| *t) {
            self.recency.remove(&previous);
        } else if self.map.len() >= self.capacity {
            if let Some((_, victim)) = self.recency.pop_first() {
                self.map.remove(&victim);
            }
        }
        self.recency.insert(tick, key.clone());
        self.map.insert(key, (value, tick));
    }
}

/// Per-assessment cache-provenance tally, threaded down the cache
/// layers by [`AssessmentEngine::assess_with_provenance`]. All counting
/// happens on the thread running that one assessment (parallel batch
/// workers each carry their own tally), so plain `Cell`s suffice.
#[derive(Default)]
struct CacheCounters {
    state_hits: std::cell::Cell<u64>,
    state_misses: std::cell::Cell<u64>,
    block_hits: std::cell::Cell<u64>,
    block_misses: std::cell::Cell<u64>,
}

impl CacheCounters {
    fn provenance(&self) -> CacheProvenance {
        CacheProvenance {
            state_hits: self.state_hits.get(),
            state_misses: self.state_misses.get(),
            block_hits: self.block_hits.get(),
            block_misses: self.block_misses.get(),
        }
    }
}

/// Poisons the first stable outcome of an evaluation with NaN — the
/// engine-level effect of a `nan` fault injection on a cache-fill site.
fn poison_first_stable(evaluation: &mut StateEvaluation) {
    for o in evaluation.outcomes.iter_mut() {
        if let WaitingOutcome::Stable { waiting_time, .. } = o {
            *waiting_time = f64::NAN;
            break;
        }
    }
}

/// Every state's evaluation in encoding order (`None` = not evaluated),
/// plus the error of a failed batch fill; see
/// [`AssessmentEngine::state_evaluations`].
type StateEvaluations = (
    Vec<Option<Arc<StateEvaluation>>>,
    Option<PerformabilityError>,
);

/// One candidate's availability solve: the product-form model over its
/// per-type marginals, plus the availability the assessment reports.
/// The two differ only under a `nan` fault injection, which poisons the
/// reported availability so the non-finite guard fires.
struct AvailabilitySolve {
    model: ProductFormModel,
    availability: f64,
}

/// Entry counts and hit/miss totals of the engine's cache layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Degraded-state entries (`X → w^X`).
    pub state_entries: usize,
    /// Birth–death-block entries (`(type, Y_x)` ladders).
    pub block_entries: usize,
    /// Total lookups answered from a cache, over all layers.
    pub hits: u64,
    /// Total lookups that had to compute, over all layers.
    pub misses: u64,
}

/// The memoizing, parallel evaluation core. See the module docs for the
/// cache layers and the determinism contract.
///
/// An engine is cheap to construct (the caches start empty) and is
/// `Sync`: one engine can serve concurrent assessments. All search
/// methods share the caches, so e.g. a greedy probe followed by an
/// exhaustive validation pays the model solves only once.
#[derive(Debug)]
pub struct AssessmentEngine {
    registry: ServerTypeRegistry,
    load: SystemLoad,
    goals: Goals,
    options: SearchOptions,
    pool: rayon::ThreadPool,
    states: Mutex<LruCache<Vec<usize>, StateEvaluation>>,
    blocks: Mutex<HashMap<(usize, usize), Arc<BirthDeathBlock>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

// The serving layer (`wfms-serve`) keeps one warm engine per tenant and
// shares it across worker threads, so `Send + Sync` is a load-bearing
// contract, not an accident of today's field types. Assert it at
// compile time: swapping a cache for an `Rc` or a `RefCell` must fail
// here, not in a downstream crate.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<AssessmentEngine>();
};

impl AssessmentEngine {
    /// Creates an engine owning copies of the inputs: validates the
    /// goals, runs the static preflight over `(registry, load)`, and
    /// sizes the worker pool from [`SearchOptions::jobs`] (`0` =
    /// automatic: `RAYON_NUM_THREADS`, else available cores).
    ///
    /// # Errors
    /// * [`ConfigError::NoGoals`] / [`ConfigError::InvalidGoal`] on bad
    ///   goals.
    /// * [`ConfigError::InvalidOption`] on a truncation or screening `ε`
    ///   outside `[0, 1)`.
    /// * [`ConfigError::Preflight`] when static analysis finds errors.
    pub fn new(
        registry: &ServerTypeRegistry,
        load: &SystemLoad,
        goals: &Goals,
        options: SearchOptions,
    ) -> Result<Self, ConfigError> {
        goals.validate()?;
        if !(options.epsilon.is_finite() && (0.0..1.0).contains(&options.epsilon)) {
            return Err(ConfigError::InvalidOption {
                what: "truncation epsilon",
                value: options.epsilon,
            });
        }
        if !(options.screen_epsilon.is_finite() && (0.0..1.0).contains(&options.screen_epsilon)) {
            return Err(ConfigError::InvalidOption {
                what: "screening epsilon",
                value: options.screen_epsilon,
            });
        }
        run_preflight(registry, load, None)?;
        // Infallible with the vendored rayon stand-in: `build()` only
        // fails on resource exhaustion spawning OS threads, at which
        // point the process is unrecoverable anyway.
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(options.jobs)
            .build()
            // audit:allow(A008, reason = "see above: pool construction only fails on OS-thread exhaustion, which is unrecoverable")
            .expect("thread pool");
        Ok(AssessmentEngine {
            registry: registry.clone(),
            load: load.clone(),
            goals: goals.clone(),
            options,
            pool,
            states: Mutex::new(LruCache::with_capacity(options.state_cache_capacity)),
            blocks: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        })
    }

    /// The options the engine was built with.
    pub fn options(&self) -> &SearchOptions {
        &self.options
    }

    /// The goals assessments are checked against.
    pub fn goals(&self) -> &Goals {
        &self.goals
    }

    /// The registry the engine assesses against.
    pub(crate) fn registry(&self) -> &ServerTypeRegistry {
        &self.registry
    }

    /// Effective worker count of the engine's pool.
    pub fn jobs(&self) -> usize {
        self.pool.current_num_threads()
    }

    /// Current cache entry counts and lifetime hit/miss totals.
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats {
            state_entries: lock_cache(&self.states).len(),
            block_entries: lock_cache(&self.blocks).len(),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    fn record_hits(&self, n: u64) {
        if n > 0 {
            self.hits.fetch_add(n, Ordering::Relaxed);
            wfms_obs::counter("engine.cache-hit", n);
        }
    }

    fn record_misses(&self, n: u64) {
        if n > 0 {
            self.misses.fetch_add(n, Ordering::Relaxed);
            wfms_obs::counter("engine.cache-miss", n);
        }
    }

    // -- cache layers -----------------------------------------------------

    /// The birth–death rate ladders for `replicas` servers of type `j`,
    /// from the block cache. The engine's chains use independent repair
    /// throughout, the policy under which the availability chain is a
    /// product of per-type birth–death chains.
    fn block(
        &self,
        j: usize,
        replicas: usize,
        counters: &CacheCounters,
    ) -> Result<Arc<BirthDeathBlock>, ConfigError> {
        if let Some(hit) = lock_cache(&self.blocks).get(&(j, replicas)) {
            self.record_hits(1);
            counters.block_hits.set(counters.block_hits.get() + 1);
            return Ok(hit.clone());
        }
        self.record_misses(1);
        counters.block_misses.set(counters.block_misses.get() + 1);
        let st = self.registry.get(ServerTypeId(j))?;
        let block = Arc::new(BirthDeathBlock::for_type(
            st,
            replicas,
            RepairPolicy::Independent,
        ));
        lock_cache(&self.blocks).insert((j, replicas), block.clone());
        Ok(block)
    }

    /// The availability solve for `config`: the product-form model over
    /// the per-type marginals of its cached birth–death blocks. Only new
    /// `(type, Y_x)` pairs cost a tabulation; everything else is `O(k)`.
    fn availability(
        &self,
        config: &Configuration,
        counters: &CacheCounters,
    ) -> Result<AvailabilitySolve, ConfigError> {
        let fills_cache = {
            let cache = lock_cache(&self.blocks);
            config
                .as_slice()
                .iter()
                .enumerate()
                .any(|(j, &y)| !cache.contains_key(&(j, y)))
        };
        // Failpoint `engine.solution-cache-fill`, reached by every
        // availability solve that has to fill the block cache: error
        // injection fails the solve for this candidate before anything
        // is cached (non-strict searches quarantine it); NaN injection
        // poisons the solved availability, which the non-finite guard
        // in `assess` then rejects.
        let mut poison_availability = false;
        if fills_cache {
            match wfms_fault::point!("engine.solution-cache-fill") {
                Some(wfms_fault::Injection::Error) => {
                    return Err(ConfigError::Avail(wfms_avail::AvailError::Chain(
                        wfms_markov::error::ChainError::Iterative(
                            wfms_markov::linalg::IterativeError::NotConverged {
                                iterations: 0,
                                last_residual: f64::INFINITY,
                            },
                        ),
                    )));
                }
                Some(wfms_fault::Injection::Nan) => poison_availability = true,
                None => {}
            }
        }
        let mut blocks = Vec::with_capacity(config.k());
        for (j, &y) in config.as_slice().iter().enumerate() {
            blocks.push(self.block(j, y, counters)?);
        }
        let model = ProductFormModel::from_blocks(config, &blocks)?;
        let availability = if poison_availability {
            f64::NAN
        } else {
            model.availability()
        };
        Ok(AvailabilitySolve {
            model,
            availability,
        })
    }

    /// Every state's evaluation for the `ε = 0` fold, in encoding order:
    /// hits are read under one lock, and the missing states are computed
    /// on the worker pool (they are independent), cached, and reported —
    /// on error — in encoding order, so error precedence matches the
    /// serial path.
    ///
    /// A `None` entry is a state without an evaluation: its kernel
    /// failed (non-strict), or the batch fill itself failed, in which
    /// case the returned fill error says why. Under
    /// [`SearchOptions::strict`] the first failed evaluation (in encoding
    /// order) aborts instead.
    fn state_evaluations(
        &self,
        space: &StateSpace,
        counters: &CacheCounters,
    ) -> Result<StateEvaluations, PerformabilityError> {
        let mut evaluations = Vec::with_capacity(space.len());
        let mut missing = Vec::new();
        {
            let mut cache = lock_cache(&self.states);
            for (idx, x) in space.iter() {
                let hit = cache.get(&x);
                if hit.is_none() {
                    missing.push((idx, x));
                }
                evaluations.push(hit);
            }
        }
        let hits = (space.len() - missing.len()) as u64;
        self.record_hits(hits);
        self.record_misses(missing.len() as u64);
        counters.state_hits.set(counters.state_hits.get() + hits);
        counters
            .state_misses
            .set(counters.state_misses.get() + missing.len() as u64);
        if missing.is_empty() {
            return Ok((evaluations, None));
        }
        // Failpoint `engine.state-cache-fill`: error injection abandons
        // the batched fill (the caller fails a strict assessment and
        // charges the unfilled states otherwise); NaN injection poisons
        // the first filled evaluation.
        let mut poison_first = false;
        match wfms_fault::point!("engine.state-cache-fill") {
            Some(wfms_fault::Injection::Error) => {
                let error = PerformabilityError::FaultInjected {
                    site: "engine.state-cache-fill",
                };
                return Ok((evaluations, Some(error)));
            }
            Some(wfms_fault::Injection::Nan) => poison_first = true,
            None => {}
        }
        let evaluate = |(_, x): &(usize, Vec<usize>)| evaluate_state(&self.load, &self.registry, x);
        let computed: Vec<Result<StateEvaluation, PerformabilityError>> =
            if self.jobs() > 1 && missing.len() > 1 {
                self.pool
                    .install(|| missing.par_iter().map(evaluate).collect())
            } else {
                missing.iter().map(evaluate).collect()
            };
        let mut cache = lock_cache(&self.states);
        for ((idx, x), evaluation) in missing.into_iter().zip(computed) {
            let mut evaluation = match evaluation {
                Ok(evaluation) => evaluation,
                Err(e) if self.options.strict => return Err(e),
                // Non-strict: no entry; the fold's degradation wrapper
                // retries the kernel and charges the state if it fails.
                Err(_) => continue,
            };
            if poison_first {
                poison_first_stable(&mut evaluation);
                poison_first = false;
            }
            let evaluation = Arc::new(evaluation);
            cache.insert(x, evaluation.clone());
            evaluations[idx] = Some(evaluation);
        }
        Ok((evaluations, None))
    }

    /// One state's evaluation through the shared memo, inserting misses
    /// into the cache (capacity permitting) and counting hits/misses —
    /// the kernel of the ε-truncated path, which deliberately does *not*
    /// evaluate the whole state space ([`state_evaluations`] would
    /// defeat the pruning) yet still shares every evaluated state with
    /// all other candidates.
    ///
    /// [`state_evaluations`]: AssessmentEngine::state_evaluations
    fn state_evaluation_memo(
        &self,
        state: &[usize],
        counters: &CacheCounters,
    ) -> Result<Arc<StateEvaluation>, PerformabilityError> {
        if let Some(hit) = lock_cache(&self.states).get(state) {
            self.record_hits(1);
            counters.state_hits.set(counters.state_hits.get() + 1);
            return Ok(hit.clone());
        }
        self.record_misses(1);
        counters.state_misses.set(counters.state_misses.get() + 1);
        // Failpoint `engine.state-cache-fill`: shared with the batched
        // fill of `populate_state_cache`.
        let evaluation = match wfms_fault::point!("engine.state-cache-fill") {
            Some(wfms_fault::Injection::Error) => {
                return Err(PerformabilityError::FaultInjected {
                    site: "engine.state-cache-fill",
                });
            }
            Some(wfms_fault::Injection::Nan) => {
                let mut evaluation = evaluate_state(&self.load, &self.registry, state)?;
                poison_first_stable(&mut evaluation);
                evaluation
            }
            None => evaluate_state(&self.load, &self.registry, state)?,
        };
        let evaluation = Arc::new(evaluation);
        lock_cache(&self.states).insert(state.to_vec(), evaluation.clone());
        Ok(evaluation)
    }

    // -- assessment -------------------------------------------------------

    /// Assesses one candidate configuration against the engine's goals,
    /// through the caches.
    ///
    /// A configuration whose full-strength state cannot serve the load
    /// is not an error — it simply fails the waiting-time goal
    /// (`expected_waiting = None`; see [`Assessment::expected_waiting`]).
    ///
    /// # Errors
    /// Model failures as [`ConfigError`]; goal violations are reported
    /// in-band.
    ///
    /// When the decision journal is enabled, every direct call is
    /// journaled as a single-shot `assess` decision; the searches use
    /// [`assess_with_provenance`](Self::assess_with_provenance) and
    /// journal at their own consumption points instead.
    pub fn assess(&self, config: &Configuration) -> Result<Assessment, ConfigError> {
        let (assessment, provenance) = self.assess_with_provenance(config)?;
        journal::record_assessed("assess", &assessment, &self.goals, provenance, None);
        Ok(assessment)
    }

    /// As [`assess`](Self::assess), additionally reporting where each
    /// cache layer's answers came from — and emitting no journal event,
    /// so searches can journal the decision (not the computation).
    pub(crate) fn assess_with_provenance(
        &self,
        config: &Configuration,
    ) -> Result<(Assessment, CacheProvenance), ConfigError> {
        let counters = CacheCounters::default();
        run_preflight(&self.registry, &self.load, Some(config.as_slice()))?;
        let mut obs_span = wfms_obs::span!("assess");
        obs_span.record("candidate", format!("{config}"));
        let AvailabilitySolve {
            model,
            availability,
        } = self.availability(config, &counters)?;
        let downtime_minutes_per_year = (1.0 - availability) * MINUTES_PER_YEAR;

        // Graceful-degradation plumbing. The folds call the evaluation
        // closure immediately after pulling each `(state, π)` pair, so
        // `current_probability` always holds the mass of the state under
        // evaluation; a failed state is charged at its pessimistic
        // waiting-time cap and recorded instead of failing the whole
        // assessment (unless `strict`). Clean runs never touch the caps
        // cell, keeping them bit-identical to the pre-supervision path.
        let strict = self.options.strict;
        let current_probability = std::cell::Cell::new(0.0_f64);
        let degraded: std::cell::RefCell<Vec<DegradedStateRecord>> =
            std::cell::RefCell::new(Vec::new());
        let caps_cell: std::cell::RefCell<Option<Vec<f64>>> = std::cell::RefCell::new(None);
        let pessimistic = |state: &[usize],
                           error: PerformabilityError|
         -> Result<Arc<StateEvaluation>, PerformabilityError> {
            let mut caps_ref = caps_cell.borrow_mut();
            if caps_ref.is_none() {
                // A caps failure is irrecoverable: there is no sound
                // bound left to charge, so the error propagates and the
                // candidate is quarantined by the search.
                *caps_ref = Some(waiting_time_caps(
                    &self.load,
                    &self.registry,
                    config.as_slice(),
                )?);
            }
            // audit:allow(A008, reason = "caps_ref is unconditionally filled by the branch directly above")
            let caps = caps_ref.as_ref().expect("caps filled above");
            let down = state.contains(&0);
            let outcomes = if down {
                vec![WaitingOutcome::Down; self.registry.len()]
            } else {
                caps.iter()
                    .map(|&cap| WaitingOutcome::Stable {
                        waiting_time: cap,
                        utilization: 1.0,
                    })
                    .collect()
            };
            degraded.borrow_mut().push(DegradedStateRecord {
                state: state.to_vec(),
                probability: current_probability.get(),
                error: error.to_string(),
            });
            Ok(Arc::new(StateEvaluation {
                outcomes,
                down,
                saturated: false,
            }))
        };

        let perf = if self.options.epsilon > 0.0 {
            // ε-truncated fold over the descending-π enumeration; only
            // the visited states are ever evaluated (lazily, through the
            // shared memo).
            waiting_time_caps(&self.load, &self.registry, config.as_slice()).and_then(|caps| {
                fold_states_truncated(
                    model.enumerate_descending().map(|(x, p)| {
                        current_probability.set(p);
                        (x, p)
                    }),
                    self.registry.len(),
                    config.as_slice(),
                    DegradedPolicy::Conditional,
                    &TruncationOptions {
                        epsilon: self.options.epsilon,
                        total_states: model.state_space().len(),
                        waiting_caps: &caps,
                    },
                    |state| match self.state_evaluation_memo(state, &counters) {
                        Ok(evaluation) => Ok(evaluation),
                        Err(e) if !strict => pessimistic(state, e),
                        Err(e) => Err(e),
                    },
                )
            })
        } else {
            // Every state is visited, so fold the materialized π in
            // encoding order: no heap, and the missing states fill the
            // cache in one batch on the worker pool.
            let pi = model.steady_state()?;
            let space = model.state_space();
            let (evaluations, fill_error) = self.state_evaluations(space, &counters)?;
            if let (Some(e), true) = (&fill_error, strict) {
                return Err(e.clone().into());
            }
            let current_index = std::cell::Cell::new(0);
            fold_states(
                space.iter().map(|(idx, x)| {
                    current_index.set(idx);
                    current_probability.set(pi[idx]);
                    (x, pi[idx])
                }),
                self.registry.len(),
                config.as_slice(),
                DegradedPolicy::Conditional,
                |state| {
                    let evaluation = match (&evaluations[current_index.get()], &fill_error) {
                        (Some(evaluation), _) => return Ok(evaluation.clone()),
                        (None, Some(e)) => Err(e.clone()),
                        (None, None) => {
                            evaluate_state(&self.load, &self.registry, state).map(Arc::new)
                        }
                    };
                    match evaluation {
                        Ok(evaluation) => Ok(evaluation),
                        Err(e) if !strict => pessimistic(state, e),
                        Err(e) => Err(e),
                    }
                },
            )
        };
        let perf = match perf {
            Ok(report) => Some(report),
            Err(PerformabilityError::NoServingStates) => None,
            Err(e) => return Err(e.into()),
        };
        let (expected_waiting, max_expected_waiting, probability_saturated) = match &perf {
            Some(r) => (
                Some(r.expected_waiting.clone()),
                Some(r.max_expected_waiting()),
                r.probability_saturated,
            ),
            None => (None, None, 1.0),
        };
        let truncation = perf.as_ref().and_then(|r| r.truncation.clone());

        let goals = &self.goals;
        let any_waiting_goal =
            goals.max_waiting_time.is_some() || !goals.per_type_waiting.is_empty();
        let waiting_time_met = if !any_waiting_goal {
            true
        } else {
            match &expected_waiting {
                None => false, // saturated/unreachable: no finite waiting exists
                Some(waits) => waits.iter().enumerate().all(|(x, &w)| {
                    goals
                        .waiting_threshold_for(x)
                        .is_none_or(|threshold| w <= threshold)
                }),
            }
        };
        let availability_met = match goals.min_availability {
            None => true,
            Some(min) => availability >= min,
        };

        obs_span.record("availability", availability);
        if let Some(w) = max_expected_waiting {
            obs_span.record("w_max", w);
        }
        wfms_obs::counter("config.assessments", 1);

        // Non-finite guard: a NaN/∞ metric means the candidate's numbers
        // cannot be trusted. Searches quarantine it (the error is
        // candidate-local).
        if !availability.is_finite() {
            return Err(ConfigError::NonFiniteAssessment {
                replicas: config.as_slice().to_vec(),
                what: "availability",
            });
        }
        if let Some(waits) = &expected_waiting {
            if waits.iter().any(|w| !w.is_finite()) {
                return Err(ConfigError::NonFiniteAssessment {
                    replicas: config.as_slice().to_vec(),
                    what: "expected waiting time",
                });
            }
        }

        let failed = degraded.take();
        let degradation = if failed.is_empty() {
            None
        } else {
            let failed_states = failed.len();
            let charged_mass = failed.iter().map(|r| r.probability).sum();
            let mut details = failed;
            details.truncate(DEGRADATION_DETAIL_CAP);
            obs_span.record("degraded-states", failed_states as u64);
            wfms_obs::counter("config.degraded-assessments", 1);
            Some(DegradationReport {
                failed_states,
                charged_mass,
                details,
            })
        };

        Ok((
            Assessment {
                replicas: config.as_slice().to_vec(),
                cost: config.total_servers(),
                availability,
                downtime_minutes_per_year,
                expected_waiting,
                max_expected_waiting,
                probability_saturated,
                truncation,
                degradation,
                goals: GoalCheck {
                    waiting_time_met,
                    availability_met,
                },
            },
            counters.provenance(),
        ))
    }

    /// Assesses a raw replica vector.
    fn assess_replicas(
        &self,
        replicas: &[usize],
    ) -> Result<(Assessment, CacheProvenance), ConfigError> {
        let config = Configuration::new(&self.registry, replicas.to_vec())?;
        self.assess_with_provenance(&config)
    }

    /// Quarantines one failed candidate: records it (with its error) so
    /// the search can keep going, mirroring the decision in the obs
    /// stream and the decision journal.
    fn quarantine(
        &self,
        search: &'static str,
        quarantined: &mut Vec<QuarantinedCandidate>,
        replicas: &[usize],
        error: &ConfigError,
    ) {
        wfms_obs::counter("config.quarantined", 1);
        let error = error.to_string();
        journal::record_quarantined(search, replicas, &error);
        quarantined.push(QuarantinedCandidate {
            replicas: replicas.to_vec(),
            error,
        });
    }

    // -- adaptive-ε screening ---------------------------------------------

    /// One provably-skippable greedy step: the candidate cannot meet
    /// the goals, and `growth` is the type the search grows next.
    /// `availability` is exact (closed-form product); `w_max` is the
    /// loose fold's *estimate*, reported for explainability only.
    fn screen_waiting(
        &self,
        config: &Configuration,
        model: &ProductFormModel,
        caps: &[f64],
        scratch: &CacheCounters,
    ) -> WaitingScreen {
        // Every rung must stay strictly looser than the engine's own ε:
        // the exact fold then visits a superset of the screen's prefix,
        // which the error-bound inflation below relies on.
        let floor = self.options.epsilon.max(1e-12) * 10.0;
        let mut rung = self.options.screen_epsilon;
        let mut best = WaitingScreen::Unproven;
        while rung > floor {
            match self.screen_waiting_at(config, model, caps, rung, scratch) {
                WaitingScreen::Unproven => {}
                // Violation proven but the growth argmax is not: a
                // tighter rung may still separate the ratios, so keep
                // the verdict and descend.
                v @ WaitingScreen::ProvenViolation { growth: None, .. } => best = v,
                v => return v,
            }
            rung *= SCREEN_LADDER_SHRINK;
        }
        best
    }

    /// One rung of the screening ladder: a loose ε-truncated fold plus
    /// sound per-type error bounds, compared against the waiting goals.
    ///
    /// The loose fold's `waiting_error_bounds` bound its distance from
    /// the *untruncated* fold; the exact path folds at the engine's own
    /// `ε`, so its value can sit another `ε · cap_x / serving` away
    /// (its skipped mass is at most `ε` and its serving mass is at
    /// least this prefix's, because both walk the same descending-π
    /// enumeration and the rung is strictly looser). The sum is a sound
    /// bound `B_x` on `|W̃_x − W_x^{exact}|`, so:
    ///
    /// * every threshold type with `W̃_x + B_x ≤ θ_x` provably passes;
    /// * any type with `(W̃_x − B_x)/θ_x > 1` provably violates;
    /// * the exact growth argmax is proven only when one violator's
    ///   lower ratio strictly dominates every other threshold type's
    ///   upper ratio — it is then the unique exact maximum, so the
    ///   first-max tie-break cannot pick anything else.
    fn screen_waiting_at(
        &self,
        config: &Configuration,
        model: &ProductFormModel,
        caps: &[f64],
        rung: f64,
        scratch: &CacheCounters,
    ) -> WaitingScreen {
        let report = match fold_states_truncated(
            model.enumerate_descending(),
            self.registry.len(),
            config.as_slice(),
            DegradedPolicy::Conditional,
            &TruncationOptions {
                epsilon: rung,
                total_states: model.state_space().len(),
                waiting_caps: caps,
            },
            |state| self.state_evaluation_memo(state, scratch),
        ) {
            Ok(report) => report,
            // A failed or serving-free prefix proves nothing about the
            // exact fold, and tightening cannot un-fail a fault or an
            // unstable load: abstain terminally.
            Err(_) => return WaitingScreen::Abstain,
        };
        let Some(t) = report.truncation else {
            return WaitingScreen::Abstain;
        };
        let serving = report.probability_serving;
        if serving <= 0.0 {
            return WaitingScreen::Abstain;
        }
        let waits = &report.expected_waiting;
        if waits.iter().any(|w| !w.is_finite()) {
            return WaitingScreen::Abstain; // fault-poisoned: exact path decides
        }
        let w_max = waits.iter().cloned().fold(0.0, f64::max);
        let bound = |x: usize| t.waiting_error_bounds[x] + self.options.epsilon * caps[x] / serving;

        let mut proven_met = true;
        let mut violator: Option<(usize, f64)> = None;
        for (x, &w) in waits.iter().enumerate() {
            let Some(threshold) = self.goals.waiting_threshold_for(x) else {
                continue;
            };
            let b = bound(x);
            if w + b > threshold {
                proven_met = false;
            }
            let lower = (w - b) / threshold;
            if lower > 1.0 && violator.is_none_or(|(_, l)| lower > l) {
                violator = Some((x, lower));
            }
        }
        if proven_met {
            return WaitingScreen::ProvenMet { w_max };
        }
        let Some((candidate, candidate_lower)) = violator else {
            return WaitingScreen::Unproven;
        };
        let mut provable = true;
        for (x, &w) in waits.iter().enumerate() {
            if x == candidate {
                continue;
            }
            let Some(threshold) = self.goals.waiting_threshold_for(x) else {
                continue;
            };
            if (w + bound(x)) / threshold >= candidate_lower {
                provable = false;
                break;
            }
        }
        WaitingScreen::ProvenViolation {
            growth: provable.then_some(ServerTypeId(candidate)),
            w_max,
        }
    }

    /// Screens one greedy candidate: `Some` only when the loose-fold
    /// bounds *prove* the candidate cannot meet the goals **and** the
    /// growth step the exact path would take is known (proven, or —
    /// under [`SearchOptions::rank_moves`] — taken from the closed-form
    /// move ranking, which may legally alter the trajectory). `None`
    /// always falls through to the exact assessment, so screening can
    /// suppress exact work but never a winner.
    fn screen_step(&self, config: &Configuration) -> Option<ScreenedStep> {
        let opts = &self.options;
        if opts.screen_epsilon <= 0.0 {
            return None;
        }
        let scratch = CacheCounters::default();
        let AvailabilitySolve {
            model,
            availability,
        } = self.availability(config, &scratch).ok()?;
        if !availability.is_finite() {
            return None; // fault-poisoned: the exact path's guard decides
        }
        let availability_met = self
            .goals
            .min_availability
            .is_none_or(|min| availability >= min);
        let any_waiting_goal =
            self.goals.max_waiting_time.is_some() || !self.goals.per_type_waiting.is_empty();
        if !any_waiting_goal {
            if availability_met {
                return None; // potential winner: must be assessed exactly
            }
            // Waiting is trivially met and the closed-form availability
            // — the very number the exact path would compare — misses
            // the goal: skip with the availability growth rule, no fold.
            return Some(ScreenedStep {
                growth: availability_critical_type(&self.registry, config.as_slice()),
                availability,
                w_max: None,
                cache: scratch.provenance(),
            });
        }
        let caps = waiting_time_caps(&self.load, &self.registry, config.as_slice()).ok()?;
        match self.screen_waiting(config, &model, &caps, &scratch) {
            WaitingScreen::ProvenViolation {
                growth: Some(growth),
                w_max,
            } => Some(ScreenedStep {
                growth,
                availability,
                w_max: Some(w_max),
                cache: scratch.provenance(),
            }),
            WaitingScreen::ProvenViolation {
                growth: None,
                w_max,
            } if opts.rank_moves => self.ranked_growth(config).map(|growth| ScreenedStep {
                growth,
                availability,
                w_max: Some(w_max),
                cache: scratch.provenance(),
            }),
            WaitingScreen::ProvenMet { w_max } if !availability_met => Some(ScreenedStep {
                growth: availability_critical_type(&self.registry, config.as_slice()),
                availability,
                w_max: Some(w_max),
                cache: scratch.provenance(),
            }),
            // The waiting side ran but proved nothing either way, and
            // the exact availability already fails: the skip is sound,
            // yet only a ranked trajectory knows what to grow. An
            // `Abstain` (fault, saturation, serving-free prefix) never
            // qualifies: with zero waiting signal the closed-form
            // ranking can fixate on the single one-step-stabilizable
            // type and climb it until the budget dies, so the exact
            // path — whose saturated-candidate heuristic grows the most
            // utilized type — decides instead.
            WaitingScreen::Unproven if !availability_met && opts.rank_moves => {
                self.ranked_growth(config).map(|growth| ScreenedStep {
                    growth,
                    availability,
                    w_max: None,
                    cache: scratch.provenance(),
                })
            }
            _ => None,
        }
    }

    /// The closed-form move ranking's growth pick
    /// ([`crate::moves::move_sensitivities`]): the best waiting move
    /// under a waiting goal, the best availability move otherwise.
    ///
    /// Under a waiting goal a `None` from
    /// [`crate::moves::best_waiting_move`] means *no* move has any
    /// waiting signal (every move leaves every type saturated). Growing
    /// a blind availability pick there can loop on one type until the
    /// budget dies — so no pick is returned and the step falls back to
    /// the exact path, whose saturated-candidate heuristic grows the
    /// most utilized type and makes progress.
    fn ranked_growth(&self, config: &Configuration) -> Option<ServerTypeId> {
        let moves = crate::moves::move_sensitivities(&self.registry, &self.load, config).ok()?;
        let any_waiting_goal =
            self.goals.max_waiting_time.is_some() || !self.goals.per_type_waiting.is_empty();
        let pick = if any_waiting_goal {
            crate::moves::best_waiting_move(&moves)
        } else {
            crate::moves::best_availability_move(&moves)
        };
        pick.map(ServerTypeId)
    }

    /// Screens one frontier candidate, returning `true` only when the
    /// candidate *provably* cannot meet the goals (exact closed-form
    /// availability below the goal, or a proven waiting violation) —
    /// i.e. only when the exact assessment provably cannot crown it.
    fn screen_frontier(&self, replicas: &[usize]) -> bool {
        if self.options.screen_epsilon <= 0.0 {
            return false;
        }
        let Ok(config) = Configuration::new(&self.registry, replicas.to_vec()) else {
            return false; // the exact path owns the error report
        };
        let scratch = CacheCounters::default();
        let Ok(AvailabilitySolve {
            model,
            availability,
        }) = self.availability(&config, &scratch)
        else {
            return false;
        };
        if !availability.is_finite() {
            return false;
        }
        if let Some(min) = self.goals.min_availability {
            if availability < min {
                return true; // exact, not an estimate: a sound proof
            }
        }
        if self.goals.max_waiting_time.is_none() && self.goals.per_type_waiting.is_empty() {
            return false; // availability met, waiting trivially met: a winner
        }
        let Ok(caps) = waiting_time_caps(&self.load, &self.registry, config.as_slice()) else {
            return false;
        };
        matches!(
            self.screen_waiting(&config, &model, &caps, &scratch),
            WaitingScreen::ProvenViolation { .. }
        )
    }

    /// Scans frontier `candidates` in enumeration order, assessing them
    /// in fixed-size batches (in parallel when the pool has more than
    /// one worker) and returning the first goal-satisfying assessment.
    /// Surplus batch results past the winner are discarded, so `trace`
    /// and `evaluations` match the serial early-exit path exactly.
    ///
    /// A candidate whose assessment fails with a candidate-local error
    /// (see [`ConfigError::is_candidate_local`]) is quarantined instead
    /// of aborting the search, unless [`SearchOptions::strict`] is set.
    fn evaluate_frontier(
        &self,
        search: &'static str,
        candidates: Vec<Vec<usize>>,
        trace: &mut Vec<Assessment>,
        evaluations: &mut usize,
        quarantined: &mut Vec<QuarantinedCandidate>,
    ) -> Result<Option<Assessment>, ConfigError> {
        let parallel = self.jobs() > 1;
        let strict = self.options.strict;
        for batch in candidates.chunks(CANDIDATE_BATCH) {
            if parallel && batch.len() > 1 {
                wfms_obs::gauge("engine.parallel-candidates", batch.len() as f64);
                // Screen before dispatching: a provably infeasible
                // member cannot be the winner, so it is withheld from
                // the speculative parallel map. Members the consumption
                // loop still reaches (no earlier winner) are then
                // assessed exactly — backfilled — so the trace, the
                // journal, and the quarantine list stay identical to
                // the unscreened path; only the post-winner results the
                // baseline would have discarded are truly saved.
                let screened: Vec<bool> = if self.options.screen_epsilon > 0.0 {
                    batch
                        .iter()
                        .map(|y| {
                            let pruned = self.screen_frontier(y);
                            if pruned {
                                wfms_obs::counter("engine.screen-reject", 1);
                            }
                            pruned
                        })
                        .collect()
                } else {
                    vec![false; batch.len()]
                };
                let work: Vec<(&Vec<usize>, bool)> =
                    batch.iter().zip(&screened).map(|(y, &p)| (y, p)).collect();
                let results: Vec<Option<Result<(Assessment, CacheProvenance), ConfigError>>> =
                    self.pool.install(|| {
                        work.par_iter()
                            .map(|&(y, pruned)| (!pruned).then(|| self.assess_replicas(y)))
                            .collect()
                    });
                for (y, result) in batch.iter().zip(results) {
                    let result = match result {
                        Some(result) => result,
                        None => self.assess_replicas(y),
                    };
                    let (assessment, provenance) = match result {
                        Ok(assessed) => assessed,
                        Err(e) if !strict && e.is_candidate_local() => {
                            self.quarantine(search, quarantined, y, &e);
                            continue;
                        }
                        Err(e) => return Err(e),
                    };
                    *evaluations += 1;
                    record_candidate(&assessment, assessment.meets_goals());
                    journal::record_assessed(search, &assessment, &self.goals, provenance, None);
                    trace.push(assessment.clone());
                    if assessment.meets_goals() {
                        return Ok(Some(assessment));
                    }
                }
            } else {
                for y in batch {
                    let (assessment, provenance) = match self.assess_replicas(y) {
                        Ok(assessed) => assessed,
                        Err(e) if !strict && e.is_candidate_local() => {
                            self.quarantine(search, quarantined, y, &e);
                            continue;
                        }
                        Err(e) => return Err(e),
                    };
                    *evaluations += 1;
                    record_candidate(&assessment, assessment.meets_goals());
                    journal::record_assessed(search, &assessment, &self.goals, provenance, None);
                    trace.push(assessment.clone());
                    if assessment.meets_goals() {
                        return Ok(Some(assessment));
                    }
                }
            }
        }
        Ok(None)
    }

    // -- searches ---------------------------------------------------------

    /// The greedy minimum-cost search of Sec. 7.2, starting from the
    /// unreplicated configuration `Y = (1, …, 1)` and assessed through
    /// the caches. The candidate chain is inherently sequential; the
    /// per-state kernel of each assessment still runs on the pool.
    ///
    /// # Errors
    /// * [`ConfigError::LoadUnsustainable`] when some server type needs
    ///   more replicas for stability than the budget can ever grant.
    /// * [`ConfigError::GoalsUnreachable`] when the budget runs out.
    /// * Model failures as [`ConfigError`].
    pub fn greedy(&self) -> Result<SearchResult, ConfigError> {
        let opts = &self.options;
        // Fast infeasibility check: stability alone may exceed the budget.
        let min_stable = minimum_stable_replicas(&self.registry, &self.load)?;
        let stable_cost: usize = min_stable.iter().sum();
        if self.goals.max_waiting_time.is_some() && stable_cost > opts.max_total_servers {
            let worst = min_stable
                .iter()
                .enumerate()
                .max_by_key(|&(_, &v)| v)
                .map(|(i, _)| i)
                .unwrap_or(0);
            return Err(ConfigError::LoadUnsustainable { server_type: worst });
        }

        let mut obs_span = wfms_obs::span!("greedy-search", budget = opts.max_total_servers);
        let mut config = Configuration::minimal(&self.registry);
        let mut trace = Vec::new();
        let mut evaluations = 0;
        let mut quarantined = Vec::new();
        loop {
            // Adaptive-ε screen: when the loose bounds *prove* the
            // candidate infeasible and the growth step the exact path
            // would take, skip the exact assessment entirely. Screened
            // candidates are journaled (`reject-screened`) but neither
            // traced nor counted as evaluations — the trace remains the
            // subsequence of exactly assessed candidates.
            if let Some(step) = self.screen_step(&config) {
                wfms_obs::counter("engine.screen-reject", 1);
                journal::record_screened(
                    "greedy",
                    config.as_slice(),
                    step.availability,
                    step.w_max,
                    step.cache,
                );
                if config.total_servers() >= opts.max_total_servers {
                    return Err(ConfigError::GoalsUnreachable {
                        budget: opts.max_total_servers,
                        last_candidate: config.as_slice().to_vec(),
                    });
                }
                config = config.with_added_replica(step.growth)?;
                continue;
            }
            let (assessment, provenance) = match self.assess_with_provenance(&config) {
                Ok(assessed) => assessed,
                Err(e) if !opts.strict && e.is_candidate_local() => {
                    // Quarantine the irrecoverable candidate and keep
                    // climbing: without an assessment to steer by, grow
                    // the most utilized type (the same tie-breaker the
                    // saturated-candidate heuristic uses).
                    self.quarantine("greedy", &mut quarantined, config.as_slice(), &e);
                    if config.total_servers() >= opts.max_total_servers {
                        return Err(ConfigError::GoalsUnreachable {
                            budget: opts.max_total_servers,
                            last_candidate: config.as_slice().to_vec(),
                        });
                    }
                    let target =
                        highest_utilization_type(&self.registry, &self.load, config.as_slice());
                    config = config.with_added_replica(target)?;
                    continue;
                }
                Err(e) => return Err(e),
            };
            evaluations += 1;
            record_candidate(&assessment, assessment.meets_goals());
            journal::record_assessed("greedy", &assessment, &self.goals, provenance, None);
            trace.push(assessment.clone());
            if assessment.meets_goals() {
                obs_span.record("evaluations", evaluations as u64);
                obs_span.record("cost", assessment.cost as u64);
                journal::record_winner("greedy", &assessment, &self.goals);
                return Ok(SearchResult {
                    assessment,
                    trace,
                    evaluations,
                    quarantined,
                });
            }
            if config.total_servers() >= opts.max_total_servers {
                return Err(ConfigError::GoalsUnreachable {
                    budget: opts.max_total_servers,
                    last_candidate: config.as_slice().to_vec(),
                });
            }
            let target = if !assessment.goals.waiting_time_met {
                performability_critical_type(&self.registry, &self.load, &self.goals, &assessment)
            } else {
                availability_critical_type(&self.registry, &assessment.replicas)
            };
            config = config.with_added_replica(target)?;
        }
    }

    /// The exhaustive minimum-cost baseline: enumerates replication
    /// vectors in order of increasing total cost and returns the first
    /// (hence cost-optimal) configuration meeting the goals, evaluating
    /// each cost level's frontier in parallel batches. Exponential in
    /// the number of server types — use it to validate the greedy
    /// heuristic on small systems (the EXP-C1 experiment).
    ///
    /// # Errors
    /// As [`greedy`](Self::greedy).
    pub fn exhaustive(&self) -> Result<SearchResult, ConfigError> {
        let opts = &self.options;
        let k = self.registry.len();
        let mut obs_span = wfms_obs::span!("exhaustive-search", budget = opts.max_total_servers);
        let mut trace = Vec::new();
        let mut evaluations = 0;
        let mut quarantined = Vec::new();
        for cost in k..=opts.max_total_servers {
            let mut candidates = Vec::new();
            let mut current = vec![1usize; k];
            enumerate_compositions(cost, k, &mut current, 0, &mut |replicas| {
                candidates.push(replicas.to_vec());
                Ok(())
            })?;
            if let Some(assessment) = self.evaluate_frontier(
                "exhaustive",
                candidates,
                &mut trace,
                &mut evaluations,
                &mut quarantined,
            )? {
                obs_span.record("evaluations", evaluations as u64);
                obs_span.record("cost", assessment.cost as u64);
                journal::record_winner("exhaustive", &assessment, &self.goals);
                return Ok(SearchResult {
                    assessment,
                    trace,
                    evaluations,
                    quarantined,
                });
            }
        }
        Err(ConfigError::GoalsUnreachable {
            budget: opts.max_total_servers,
            last_candidate: vec![1; k],
        })
    }

    /// The branch-and-bound minimum-cost search — the other
    /// "full-fledged algorithm for mathematical optimization" Sec. 7.2
    /// names. Provably cost-optimal like [`exhaustive`](Self::exhaustive),
    /// but the per-type [`goal_lower_bounds`] prune the frontier:
    /// candidates below any bound are never assessed. The rest is
    /// evaluated in parallel batches.
    ///
    /// # Errors
    /// As [`exhaustive`](Self::exhaustive).
    pub fn branch_and_bound(&self) -> Result<SearchResult, ConfigError> {
        let opts = &self.options;
        let k = self.registry.len();
        let lower = goal_lower_bounds(
            &self.registry,
            &self.load,
            &self.goals,
            opts.max_total_servers,
        )?;
        let lower_cost: usize = lower.iter().sum();
        if lower_cost > opts.max_total_servers {
            return Err(ConfigError::GoalsUnreachable {
                budget: opts.max_total_servers,
                last_candidate: lower,
            });
        }
        let mut obs_span = wfms_obs::span!("bnb-search", budget = opts.max_total_servers);
        let mut trace = Vec::new();
        let mut evaluations = 0;
        let mut quarantined = Vec::new();
        for cost in lower_cost..=opts.max_total_servers {
            let mut candidates = Vec::new();
            let mut current = lower.clone();
            enumerate_bounded(cost, k, &lower, &mut current, 0, &mut |replicas| {
                candidates.push(replicas.to_vec());
                Ok(())
            })?;
            if let Some(assessment) = self.evaluate_frontier(
                "bnb",
                candidates,
                &mut trace,
                &mut evaluations,
                &mut quarantined,
            )? {
                obs_span.record("evaluations", evaluations as u64);
                obs_span.record("cost", assessment.cost as u64);
                journal::record_winner("bnb", &assessment, &self.goals);
                return Ok(SearchResult {
                    assessment,
                    trace,
                    evaluations,
                    quarantined,
                });
            }
        }
        Err(ConfigError::GoalsUnreachable {
            budget: opts.max_total_servers,
            last_candidate: lower,
        })
    }

    /// The simulated-annealing search: a Metropolis walk over
    /// replication vectors with a penalized-cost objective (see
    /// [`crate::annealing`]). The walk is sequential by construction,
    /// but every assessment shares the block and state caches.
    ///
    /// # Errors
    /// * [`ConfigError::GoalsUnreachable`] when no feasible
    ///   configuration was visited within the step budget.
    /// * Model failures as [`ConfigError`].
    pub fn annealing(&self, opts: &AnnealingOptions) -> Result<SearchResult, ConfigError> {
        crate::annealing::annealing_walk(self, opts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use wfms_statechart::paper_section52_registry;

    fn load_at(rho_single: f64, reg: &ServerTypeRegistry) -> SystemLoad {
        let rates: Vec<f64> = reg
            .iter()
            .map(|(_, t)| rho_single / t.service_time_mean)
            .collect();
        SystemLoad {
            request_rates: rates,
            total_arrival_rate: 1.0,
            active_instances: vec![],
        }
    }

    #[test]
    fn caches_fill_and_hit_across_candidates() {
        let reg = paper_section52_registry();
        let load = load_at(0.5, &reg);
        let goals = Goals::availability_only(0.9999).unwrap();
        let engine = AssessmentEngine::new(&reg, &load, &goals, SearchOptions::default()).unwrap();
        let a = Configuration::new(&reg, vec![2, 2, 2]).unwrap();
        engine.assess(&a).unwrap();
        let after_first = engine.cache_stats();
        assert_eq!(after_first.state_entries, 27);
        assert_eq!(after_first.block_entries, 3);
        assert_eq!(after_first.hits, 0);

        // A neighbouring candidate shares 27 of its 36 states and two of
        // its three blocks.
        let b = Configuration::new(&reg, vec![2, 2, 3]).unwrap();
        engine.assess(&b).unwrap();
        let after_second = engine.cache_stats();
        assert_eq!(after_second.state_entries, 36);
        assert_eq!(after_second.block_entries, 4);
        assert_eq!(after_second.hits, after_first.hits + 27 + 2);

        // Re-assessing is a pure cache replay: all three blocks plus all
        // 36 states.
        engine.assess(&b).unwrap();
        let warm = engine.cache_stats();
        assert_eq!(warm.hits, after_second.hits + 3 + 36);
        assert_eq!(warm.state_entries, 36);
    }

    #[test]
    fn warm_searches_replay_cold_searches_bitwise() {
        let reg = paper_section52_registry();
        let load = load_at(0.5, &reg);
        let goals = Goals::new(0.005, 0.999).unwrap();
        let opts = SearchOptions::default();
        let engine = AssessmentEngine::new(&reg, &load, &goals, opts).unwrap();
        let cold_greedy = engine.greedy().unwrap();
        let cold_exhaustive = engine.exhaustive().unwrap();
        assert_eq!(engine.greedy().unwrap(), cold_greedy);
        assert_eq!(engine.exhaustive().unwrap(), cold_exhaustive);
    }

    #[test]
    fn parallel_jobs_produce_identical_search_results() {
        let reg = paper_section52_registry();
        let load = load_at(1.5, &reg);
        let goals = Goals::new(0.01, 0.9999).unwrap();
        let serial_opts = SearchOptions::builder().jobs(1).build();
        let parallel_opts = SearchOptions::builder().jobs(8).build();
        let serial = AssessmentEngine::new(&reg, &load, &goals, serial_opts).unwrap();
        let parallel = AssessmentEngine::new(&reg, &load, &goals, parallel_opts).unwrap();
        assert_eq!(parallel.jobs(), 8);
        let s = serial.exhaustive().unwrap();
        let p = parallel.exhaustive().unwrap();
        assert_eq!(s, p);
        let s = serial.branch_and_bound().unwrap();
        let p = parallel.branch_and_bound().unwrap();
        assert_eq!(s, p);
    }

    #[test]
    fn capacity_zero_disables_caching_without_changing_results() {
        let reg = paper_section52_registry();
        let load = load_at(0.8, &reg);
        let goals = Goals::new(0.01, 0.9999).unwrap();
        let uncached_opts = SearchOptions::builder().state_cache_capacity(0).build();
        let uncached = AssessmentEngine::new(&reg, &load, &goals, uncached_opts).unwrap();
        let cached = AssessmentEngine::new(&reg, &load, &goals, SearchOptions::default()).unwrap();
        let config = Configuration::new(&reg, vec![2, 2, 2]).unwrap();
        assert_eq!(
            uncached.assess(&config).unwrap(),
            cached.assess(&config).unwrap()
        );
        assert_eq!(uncached.cache_stats().state_entries, 0);
    }

    #[test]
    fn tiny_epsilon_tracks_the_exhaustive_fold() {
        let reg = paper_section52_registry();
        let load = load_at(0.8, &reg);
        let goals = Goals::new(0.01, 0.9999).unwrap();
        let exact = AssessmentEngine::new(&reg, &load, &goals, SearchOptions::default()).unwrap();
        let opts = SearchOptions::builder().epsilon(1e-9).build();
        let truncated = AssessmentEngine::new(&reg, &load, &goals, opts).unwrap();
        for y in [vec![2, 2, 2], vec![3, 2, 4]] {
            let config = Configuration::new(&reg, y).unwrap();
            let e = exact.assess(&config).unwrap();
            let t = truncated.assess(&config).unwrap();
            // Availability is the same closed-form product on both paths;
            // waiting times agree within the reported truncation bound.
            assert_eq!(e.availability, t.availability);
            let report = t.truncation.expect("ε > 0 reports truncation");
            assert!(report.covered_mass >= 1.0 - 1e-9);
            let (ew, tw) = (e.expected_waiting.unwrap(), t.expected_waiting.unwrap());
            for (x, (a, b)) in ew.iter().zip(&tw).enumerate() {
                assert!(
                    (a - b).abs() <= report.waiting_error_bounds[x] + 1e-12 * a.abs(),
                    "type {x}: exhaustive {a} vs truncated {b}, bound {}",
                    report.waiting_error_bounds[x]
                );
            }
            assert!(e.truncation.is_none());
        }
    }

    #[test]
    fn lru_evicts_the_least_recently_used_entry() {
        let mut cache = LruCache::with_capacity(2);
        cache.insert(1, Arc::new('a'));
        cache.insert(2, Arc::new('b'));
        assert!(cache.get(&1).is_some(), "a hit refreshes recency");
        cache.insert(3, Arc::new('c'));
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&2).is_none(), "the stale entry is evicted");
        assert!(cache.get(&1).is_some() && cache.get(&3).is_some());
    }

    #[test]
    fn clean_searches_report_no_quarantined_candidates() {
        let reg = paper_section52_registry();
        let load = load_at(0.5, &reg);
        let goals = Goals::new(0.005, 0.999).unwrap();
        let engine = AssessmentEngine::new(&reg, &load, &goals, SearchOptions::default()).unwrap();
        assert!(engine.greedy().unwrap().quarantined.is_empty());
        assert!(engine.exhaustive().unwrap().quarantined.is_empty());
    }

    #[test]
    fn invalid_epsilon_is_rejected_at_construction() {
        let reg = paper_section52_registry();
        let load = load_at(0.8, &reg);
        let goals = Goals::new(0.01, 0.9999).unwrap();
        for bad in [1.0, 1.5, -1e-9, f64::NAN, f64::INFINITY] {
            let opts = SearchOptions::builder().epsilon(bad).build();
            let err = AssessmentEngine::new(&reg, &load, &goals, opts).unwrap_err();
            match err {
                ConfigError::InvalidOption { what, .. } => {
                    assert_eq!(what, "truncation epsilon");
                }
                other => panic!("expected InvalidOption, got {other:?}"),
            }
        }
    }

    #[test]
    fn loose_epsilon_prunes_states() {
        let reg = paper_section52_registry();
        let load = load_at(0.5, &reg);
        let goals = Goals::new(0.01, 0.9999).unwrap();
        let opts = SearchOptions::builder().epsilon(1e-4).build();
        let engine = AssessmentEngine::new(&reg, &load, &goals, opts).unwrap();
        let config = Configuration::new(&reg, vec![3, 3, 3]).unwrap();
        let a = engine.assess(&config).unwrap();
        let t = a.truncation.expect("ε > 0 reports truncation");
        assert!(t.states_skipped > 0, "loose ε must actually prune");
        assert!(t.covered_mass >= 1.0 - 1e-4);
        assert!(t.skipped_mass <= 1e-4 * 1.01);
        // Fewer states evaluated than the full space holds.
        assert!(engine.cache_stats().state_entries < 64);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The caching invariant: a cold, a warm, and an uncached engine
        /// assess every candidate field-for-field identically, for
        /// arbitrary loads and candidates.
        #[test]
        fn engine_cached_equals_uncached_assessment(
            rho in 0.05f64..2.5,
            y in proptest::collection::vec(1usize..4, 3),
        ) {
            let reg = paper_section52_registry();
            let load = load_at(rho, &reg);
            let goals = Goals::new(0.01, 0.9999).unwrap();
            let config = Configuration::new(&reg, y).unwrap();
            let uncached_opts = SearchOptions::builder().state_cache_capacity(0).build();
            let direct = AssessmentEngine::new(&reg, &load, &goals, uncached_opts)
                .unwrap()
                .assess(&config)
                .unwrap();
            let engine =
                AssessmentEngine::new(&reg, &load, &goals, SearchOptions::default()).unwrap();
            let cold = engine.assess(&config).unwrap();
            prop_assert_eq!(&direct, &cold);
            let warm = engine.assess(&config).unwrap();
            prop_assert_eq!(&direct, &warm);
        }
    }
}
