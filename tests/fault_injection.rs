//! Fault-injection acceptance tests for the graceful-degradation layer:
//! failed state evaluations must be charged pessimistically (and still
//! recommend the clean winner), irrecoverable candidates must be
//! quarantined rather than aborting a search, poisoned availability must
//! be caught at every ε, and a disabled registry must leave every result
//! bit-identical.
//!
//! The failpoint registry is process-global, so every test serializes on
//! [`FAULTS`] and clears the registry on entry and exit.

use std::sync::Mutex;
use std::time::Duration;

use wfms::fault;
use wfms::statechart::paper_section52_registry;
use wfms::workloads::{enterprise_mix, enterprise_registry, ep_workflow, EP_DEFAULT_ARRIVAL_RATE};
use wfms::{ConfigError, Configuration, ConfigurationTool, Goals, SearchOptions};

static FAULTS: Mutex<()> = Mutex::new(());

/// Serializes a test against the global failpoint registry and leaves the
/// registry clean for whoever runs next, even on panic.
struct FaultGuard<'a> {
    _lock: std::sync::MutexGuard<'a, ()>,
}

impl Drop for FaultGuard<'_> {
    fn drop(&mut self) {
        fault::clear();
    }
}

fn faults() -> FaultGuard<'static> {
    let lock = FAULTS.lock().unwrap_or_else(|e| e.into_inner());
    fault::clear();
    fault::set_seed(42);
    FaultGuard { _lock: lock }
}

fn ep_tool() -> ConfigurationTool {
    let mut tool = ConfigurationTool::new(paper_section52_registry());
    tool.add_workflow(ep_workflow(), EP_DEFAULT_ARRIVAL_RATE)
        .unwrap();
    tool
}

fn enterprise_tool() -> ConfigurationTool {
    let mut tool = ConfigurationTool::new(enterprise_registry());
    for (spec, rate) in enterprise_mix() {
        tool.add_workflow(spec, rate).unwrap();
    }
    tool
}

/// The headline acceptance criterion: with the engine's state-cache fill
/// failing at a 100 % rate, a greedy search over the enterprise workload
/// still completes — every state is charged at its sound pessimistic
/// cap — and returns the same winner as the clean run, with the
/// degradation reported.
#[test]
fn forced_state_fill_failure_still_recommends_the_same_enterprise_winner() {
    let _g = faults();
    let tool = enterprise_tool();
    let goals = Goals::new(0.05, 0.9999).unwrap();
    let opts = SearchOptions::builder().max_total_servers(64).build();

    let clean = tool.engine(&goals, opts).unwrap().greedy().unwrap();
    assert!(clean.assessment.degradation.is_none(), "clean run degraded");

    fault::configure("engine.state-cache-fill", fault::FaultMode::Error, 1.0);
    let degraded = tool.engine(&goals, opts).unwrap().greedy().unwrap();

    assert!(
        fault::fired("engine.state-cache-fill") > 0,
        "failpoint never fired"
    );
    assert_eq!(
        degraded.assessment.replicas, clean.assessment.replicas,
        "pessimistic charging must find the same winner"
    );
    assert!(degraded.quarantined.is_empty());
    let report = degraded
        .assessment
        .degradation
        .expect("failed fills must be reported");
    assert!(report.failed_states >= 1);
    assert!((report.charged_mass - 1.0).abs() < 1e-9);
}

/// Per-state kernel failures are charged at their pessimistic caps: the
/// assessment completes, reports every failed state, and the charged mass
/// covers the whole distribution when every state fails.
#[test]
fn failed_state_evaluations_are_charged_with_pessimistic_caps() {
    let _g = faults();
    let tool = ep_tool();
    let goals = Goals::new(0.05, 0.9999).unwrap();
    let config = Configuration::new(tool.registry(), vec![2, 2, 2]).unwrap();

    let clean = tool
        .engine(&goals, SearchOptions::default())
        .unwrap()
        .assess(&config)
        .unwrap();

    fault::configure(
        "performability.evaluate-state",
        fault::FaultMode::Error,
        1.0,
    );
    let degraded = tool
        .engine(&goals, SearchOptions::default())
        .unwrap()
        .assess(&config)
        .unwrap();

    let report = degraded
        .degradation
        .clone()
        .expect("failed states must be reported");
    assert_eq!(report.failed_states, 27, "every state of [2,2,2] fails");
    assert!((report.charged_mass - 1.0).abs() < 1e-9);
    assert!(!report.details.is_empty());
    assert!(report.details.iter().all(|r| !r.error.is_empty()));
    // Availability comes from the (unaffected) chain solve.
    assert_eq!(degraded.availability, clean.availability);
    // The substituted caps are pessimistic: waits can only grow.
    let (d, c) = (
        degraded.expected_waiting.as_ref().unwrap(),
        clean.expected_waiting.as_ref().unwrap(),
    );
    for (x, (dw, cw)) in d.iter().zip(c).enumerate() {
        assert!(dw >= cw, "type {x}: degraded wait {dw} below clean {cw}");
    }
}

/// Candidates whose assessment fails irrecoverably are quarantined and the
/// search keeps going: with every availability solve that must fill the
/// block cache failing at 100 %, only the pre-warmed winner survives —
/// every earlier candidate needs some uncached `(type, Y_x)` block and
/// lands in the quarantine list instead of aborting the exhaustive search.
#[test]
fn irrecoverable_candidates_are_quarantined_not_fatal() {
    let _g = faults();
    let tool = ep_tool();
    let goals = Goals::new(0.05, 0.9999).unwrap();

    let clean = tool
        .engine(&goals, SearchOptions::default())
        .unwrap()
        .exhaustive()
        .unwrap();

    // Pre-warm one engine with the winner, then fail every further
    // block-cache fill: the winner replays from the cache, everything
    // else is quarantined.
    let engine = tool.engine(&goals, SearchOptions::default()).unwrap();
    let winner = Configuration::new(tool.registry(), clean.assessment.replicas.clone()).unwrap();
    engine.assess(&winner).unwrap();
    fault::configure("engine.solution-cache-fill", fault::FaultMode::Error, 1.0);

    let survived = engine.exhaustive().unwrap();
    assert_eq!(survived.assessment, clean.assessment);
    assert_eq!(survived.evaluations, 1, "only the cached winner evaluates");
    assert_eq!(survived.quarantined.len(), clean.evaluations - 1);
    assert!(survived
        .quarantined
        .iter()
        .all(|q| !q.error.is_empty() && !q.replicas.is_empty()));
}

/// `strict` restores fail-fast: the first injected failure aborts the
/// search with the underlying error instead of degrading or quarantining.
#[test]
fn strict_mode_aborts_on_the_first_injected_failure() {
    let _g = faults();
    let tool = ep_tool();
    let goals = Goals::new(0.05, 0.9999).unwrap();
    fault::configure(
        "performability.evaluate-state",
        fault::FaultMode::Error,
        1.0,
    );
    let opts = SearchOptions::builder().strict(true).build();
    let err = tool.engine(&goals, opts).unwrap().greedy().unwrap_err();
    assert!(
        matches!(err, ConfigError::Performability(_)),
        "expected the injected performability error, got {err:?}"
    );
}

/// NaN injection is repaired by the non-finite guard: the poisoned
/// candidate is rejected as `NonFiniteAssessment`, which searches treat
/// as candidate-local.
#[test]
fn nan_injection_is_caught_by_the_non_finite_guard() {
    let _g = faults();
    let tool = ep_tool();
    let goals = Goals::new(0.05, 0.9999).unwrap();
    let config = Configuration::new(tool.registry(), vec![2, 2, 2]).unwrap();
    fault::configure("engine.solution-cache-fill", fault::FaultMode::Nan, 1.0);
    let err = tool
        .engine(&goals, SearchOptions::default())
        .unwrap()
        .assess(&config)
        .unwrap_err();
    match &err {
        ConfigError::NonFiniteAssessment { replicas, .. } => {
            assert_eq!(replicas, &vec![2, 2, 2]);
        }
        other => panic!("expected NonFiniteAssessment, got {other:?}"),
    }
    assert!(err.is_candidate_local());
}

/// The ε-truncated path shares the availability solve: NaN injection
/// there must trip the same guard instead of slipping through.
#[test]
fn nan_injection_is_caught_under_truncation_too() {
    let _g = faults();
    let tool = ep_tool();
    let goals = Goals::new(0.05, 0.9999).unwrap();
    let config = Configuration::new(tool.registry(), vec![2, 2, 2]).unwrap();
    fault::configure("engine.solution-cache-fill", fault::FaultMode::Nan, 1.0);
    let opts = SearchOptions::builder().epsilon(1e-6).build();
    let err = tool
        .engine(&goals, opts)
        .unwrap()
        .assess(&config)
        .unwrap_err();
    assert!(
        matches!(
            err,
            ConfigError::NonFiniteAssessment {
                what: "availability",
                ..
            }
        ),
        "expected a non-finite availability, got {err:?}"
    );
    assert!(err.is_candidate_local());
}

/// Delay injection only adds latency: results are bit-identical to a
/// clean run, and a disabled registry (sites configured, master switch
/// off) costs one atomic load and changes nothing.
#[test]
fn delay_and_disabled_faults_leave_results_bit_identical() {
    let _g = faults();
    let tool = ep_tool();
    let goals = Goals::new(0.05, 0.9999).unwrap();
    let config = Configuration::new(tool.registry(), vec![2, 2, 2]).unwrap();
    let baseline = tool
        .engine(&goals, SearchOptions::default())
        .unwrap()
        .assess(&config)
        .unwrap();

    fault::configure(
        "engine.solution-cache-fill",
        fault::FaultMode::Delay(Duration::from_millis(1)),
        1.0,
    );
    let delayed = tool
        .engine(&goals, SearchOptions::default())
        .unwrap()
        .assess(&config)
        .unwrap();
    assert!(fault::fired("engine.solution-cache-fill") > 0);
    assert_eq!(delayed, baseline);

    // Error faults everywhere, but the registry is disabled: nothing may
    // fire and every number must be untouched.
    for site in [
        "linalg.dense-lu",
        "avail.steady-state",
        "performability.evaluate-state",
        "performability.fold",
        "engine.state-cache-fill",
        "engine.solution-cache-fill",
    ] {
        fault::configure(site, fault::FaultMode::Error, 1.0);
    }
    fault::disable();
    let disabled = tool
        .engine(&goals, SearchOptions::default())
        .unwrap()
        .assess(&config)
        .unwrap();
    assert_eq!(disabled, baseline);
    assert_eq!(fault::fired("linalg.dense-lu"), 0);
}
