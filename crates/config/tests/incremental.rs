//! Integration tests for incremental assessment: a warm engine's
//! assessment of a one-replica neighbour must be field-for-field
//! identical to a from-scratch assessment, and the adaptive-ε screen
//! must never change what a search returns.
//!
//! The observability recorder is process-global, so every test that
//! touches it serializes on one lock and restores the disabled state
//! before returning.

use std::sync::Mutex;

use proptest::prelude::*;
use wfms_config::{AssessmentEngine, Goals, SearchOptions, SearchResult};
use wfms_perf::SystemLoad;
use wfms_statechart::{paper_section52_registry, Configuration, ServerTypeId, ServerTypeRegistry};

static GLOBAL_STATE: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    GLOBAL_STATE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

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

fn engine(opts: SearchOptions) -> AssessmentEngine {
    let reg = paper_section52_registry();
    let load = load_at(1.5, &reg);
    let goals = Goals::new(0.01, 0.9999).unwrap();
    AssessmentEngine::new(&reg, &load, &goals, opts).unwrap()
}

/// A load that keeps one type far hotter than the rest, so the loose
/// fold can *prove* both the waiting violation and its argmax (equal
/// per-type loads leave the ratios too close for a sound proof and the
/// screen correctly abstains).
fn skewed_engine(opts: SearchOptions) -> AssessmentEngine {
    let reg = paper_section52_registry();
    let rho = [1.6f64, 0.3, 0.3];
    let rates: Vec<f64> = reg
        .iter()
        .zip(rho.iter())
        .map(|((_, t), r)| r / t.service_time_mean)
        .collect();
    let load = SystemLoad {
        request_rates: rates,
        total_arrival_rate: 1.0,
        active_instances: vec![],
    };
    let goals = Goals::new(2e-4, 0.9).unwrap();
    AssessmentEngine::new(&reg, &load, &goals, opts).unwrap()
}

fn result_bytes(result: &SearchResult) -> String {
    serde_json::to_string(result).expect("serialize search result")
}

/// The frontier searches withhold screened candidates from the
/// parallel precompute but backfill them exactly at consumption, so a
/// loose screen must leave the *entire* result — winner, trace,
/// evaluation count, quarantine — bitwise unchanged, while still
/// proving some candidates infeasible without an exact assessment.
#[test]
fn frontier_screen_is_bitwise_invisible_in_the_result() {
    let _guard = lock();
    let base_opts = SearchOptions::builder()
        .jobs(2)
        .max_total_servers(12)
        .build();
    let baseline = engine(base_opts).exhaustive().unwrap();

    let screened_opts = SearchOptions::builder()
        .jobs(2)
        .max_total_servers(12)
        .screen_epsilon(1e-2)
        .build();
    wfms_obs::global().take();
    wfms_obs::enable();
    let screened = engine(screened_opts).exhaustive().unwrap();
    wfms_obs::disable();
    let snapshot = wfms_obs::global().take();

    assert_eq!(result_bytes(&baseline), result_bytes(&screened));
    let rejects = snapshot
        .counters
        .get("engine.screen-reject")
        .copied()
        .unwrap_or(0);
    assert!(
        rejects > 0,
        "loose screen never fired: {:?}",
        snapshot.counters
    );
}

/// Greedy skips the exact assessment of a screened step (the step is
/// journaled, not traced), so its trace is a subsequence of the
/// baseline's — but the winner and its assessment stay bit-identical.
#[test]
fn greedy_screen_preserves_the_winner_assessment() {
    let _guard = lock();
    let baseline = skewed_engine(SearchOptions::default()).greedy().unwrap();

    let screened_opts = SearchOptions::builder().screen_epsilon(1e-2).build();
    wfms_obs::global().take();
    wfms_obs::enable();
    let screened = skewed_engine(screened_opts).greedy().unwrap();
    wfms_obs::disable();
    let snapshot = wfms_obs::global().take();

    assert_eq!(baseline.assessment, screened.assessment);
    // Subsequence check: every screened-trace entry appears in the
    // baseline trace, in order.
    let mut base_iter = baseline.trace.iter();
    for entry in &screened.trace {
        assert!(
            base_iter.any(|b| b == entry),
            "screened trace entry {:?} not in baseline order",
            entry.replicas
        );
    }
    assert!(screened.trace.len() <= baseline.trace.len());
    let rejects = snapshot
        .counters
        .get("engine.screen-reject")
        .copied()
        .unwrap_or(0);
    assert!(
        rejects > 0,
        "greedy screen never fired: {:?}",
        snapshot.counters
    );
    assert!(screened.evaluations < baseline.evaluations);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Incremental assessment through the caches: once the incumbent is
    /// assessed, its one-replica neighbour reuses `k − 1` birth–death
    /// blocks and every shared state evaluation, and the result is
    /// field-for-field identical to a from-scratch assessment.
    #[test]
    fn warm_neighbour_equals_from_scratch(
        rho in 0.05f64..2.5,
        y in proptest::collection::vec(1usize..4, 3),
        moved in 0usize..3,
        truncated in 0usize..2,
    ) {
        let epsilon = [0.0, 1e-6][truncated];
        let reg = paper_section52_registry();
        let load = load_at(rho, &reg);
        let goals = Goals::new(0.01, 0.9999).unwrap();
        let incumbent = Configuration::new(&reg, y).unwrap();
        let grown = incumbent.with_added_replica(ServerTypeId(moved)).unwrap();
        let opts = SearchOptions::builder().epsilon(epsilon).build();

        let warm = AssessmentEngine::new(&reg, &load, &goals, opts).unwrap();
        warm.assess(&incumbent).unwrap();
        let neighbour = warm.assess(&grown).unwrap();

        let cold = AssessmentEngine::new(&reg, &load, &goals, opts).unwrap();
        let scratch = cold.assess(&grown).unwrap();
        prop_assert_eq!(&neighbour, &scratch);
    }
}
