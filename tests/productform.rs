//! Acceptance tests for the product-form availability solve and the
//! ε-truncated performability fold, mirroring the assertions of the
//! `exp_e2_productform` benchmark at test scale:
//!
//! * ε = 1e-9 must be ≥ 10× faster than the exhaustive fold on a state
//!   space with `∏(Y_x + 1) ≥ 10_000`;
//! * every per-type waiting-time delta must lie within the truncation
//!   report's own error bound;
//! * every assessment holds the oracle tolerance contract (DESIGN.md
//!   §9) against the flat availability chain solved by sparse
//!   Gauss–Seidel at 1e-12: unavailability within 1e-9 relative of the
//!   chain and 1e-12 relative of the closed form, expected waits within
//!   1e-12 relative of the oracle fold.

use std::sync::Arc;
use std::time::Instant;

use proptest::prelude::*;
use wfms::avail::{
    closed_form_unavailability, select_backend, AvailBackend, RepairPolicy,
    SparseAvailabilityModel, StateSpace,
};
use wfms::markov::linalg::GaussSeidelOptions;
use wfms::perf::SystemLoad;
use wfms::performability::{evaluate_state, fold_states, DegradedPolicy};
use wfms::statechart::{Configuration, ServerType, ServerTypeKind, ServerTypeRegistry};
use wfms::workloads::{enterprise_mix, enterprise_registry};
use wfms::{Assessment, AssessmentEngine, ConfigurationTool, Goals, SearchOptions};

fn enterprise_tool() -> (ConfigurationTool, Goals) {
    let mut tool = ConfigurationTool::new(enterprise_registry());
    for (spec, rate) in enterprise_mix() {
        tool.add_workflow(spec, rate).unwrap();
    }
    (tool, Goals::new(0.01, 0.9999).unwrap())
}

/// The retained test oracle: the flat availability chain over every
/// `X ≤ Y`, solved by sparse Gauss–Seidel at 1e-12, and the
/// conditional performability fold over its stationary vector. Returns
/// the unavailability (summed over the down states, so no cancellation
/// against 1) and the per-type expected waits.
fn flat_chain_oracle(
    registry: &ServerTypeRegistry,
    load: &SystemLoad,
    config: &Configuration,
) -> (f64, Vec<f64>) {
    let model = SparseAvailabilityModel::new(registry, config, RepairPolicy::Independent).unwrap();
    let pi = model
        .steady_state(GaussSeidelOptions {
            tolerance: 1e-12,
            max_iterations: 100_000,
            relaxation: 1.0,
        })
        .unwrap();
    let space = StateSpace::new(config);
    let unavailability = space
        .iter()
        .filter(|(_, x)| !StateSpace::is_operational(x))
        .map(|(idx, _)| pi[idx])
        .sum();
    let report = fold_states(
        space.iter().map(|(idx, x)| (x, pi[idx])),
        registry.len(),
        config.as_slice(),
        DegradedPolicy::Conditional,
        |x| evaluate_state(load, registry, x).map(Arc::new),
    )
    .unwrap();
    (unavailability, report.expected_waiting)
}

/// An availability in `f64` resolves `1 − A` only to about one ulp of
/// 1.0, so every unavailability comparison carries this absolute floor
/// on top of its relative tolerance.
const AVAILABILITY_RESOLUTION: f64 = 2.0 * f64::EPSILON;

/// Asserts the oracle tolerance contract for one assessment.
fn assert_within_oracle_tolerance(
    registry: &ServerTypeRegistry,
    load: &SystemLoad,
    config: &Configuration,
    assessed: &Assessment,
) {
    let (oracle_u, oracle_w) = flat_chain_oracle(registry, load, config);
    let closed_u = closed_form_unavailability(registry, config).unwrap();
    let u = 1.0 - assessed.availability;
    assert!(
        (u - oracle_u).abs() <= 1e-9 * oracle_u + AVAILABILITY_RESOLUTION,
        "{config}: unavailability {u:e} vs flat chain {oracle_u:e}"
    );
    assert!(
        (u - closed_u).abs() <= 1e-12 * closed_u + AVAILABILITY_RESOLUTION,
        "{config}: unavailability {u:e} vs closed form {closed_u:e}"
    );
    let waits = assessed.expected_waiting.as_ref().expect("serving states");
    for (x, (w, o)) in waits.iter().zip(&oracle_w).enumerate() {
        assert!(
            (w - o).abs() <= 1e-12 * o.abs(),
            "{config} type {x}: wait {w:e} vs oracle fold {o:e}"
        );
    }
}

#[test]
fn truncated_product_form_is_fast_and_within_its_error_bound() {
    let (tool, goals) = enterprise_tool();
    let replicas = vec![6usize; tool.registry().len()];
    let full_states: usize = replicas.iter().map(|y| y + 1).product();
    assert!(full_states >= 10_000, "scenario too small: {full_states}");
    let config = Configuration::new(tool.registry(), replicas).unwrap();

    let full_engine = tool.engine(&goals, SearchOptions::default()).unwrap();
    let t0 = Instant::now();
    let full = full_engine.assess(&config).unwrap();
    let full_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert!(
        full.truncation.is_none(),
        "exhaustive path must not truncate"
    );

    let product_engine = tool
        .engine(&goals, SearchOptions::builder().epsilon(1e-9).build())
        .unwrap();
    let t0 = Instant::now();
    let truncated = product_engine.assess(&config).unwrap();
    let product_ms = t0.elapsed().as_secs_f64() * 1e3;

    let report = truncated.truncation.clone().expect("truncation report");
    assert!(report.covered_mass >= 1.0 - 1e-9, "{}", report.covered_mass);
    assert!(
        report.states_skipped > full_states / 2,
        "only {} of {full_states} states skipped",
        report.states_skipped
    );
    assert!(
        (full.availability - truncated.availability).abs() < 1e-9,
        "availability: full {} vs product {}",
        full.availability,
        truncated.availability
    );
    let full_w = full.expected_waiting.as_ref().unwrap();
    let trunc_w = truncated.expected_waiting.as_ref().unwrap();
    for (x, (a, b)) in full_w.iter().zip(trunc_w).enumerate() {
        assert!(
            (a - b).abs() <= report.waiting_error_bounds[x] + 1e-9,
            "type {x}: full {a} vs truncated {b}, bound {}",
            report.waiting_error_bounds[x]
        );
    }
    let speedup = full_ms / product_ms;
    assert!(
        speedup >= 10.0,
        "product path must be >= 10x faster: full {full_ms:.2} ms vs product {product_ms:.2} ms \
         ({}/{full_states} states evaluated)",
        full_states - report.states_skipped
    );
}

#[test]
fn zero_epsilon_matches_the_flat_chain_oracle() {
    let (tool, goals) = enterprise_tool();
    let load = tool.system_load().unwrap();
    let engine = tool.engine(&goals, SearchOptions::default()).unwrap();
    for y in [
        vec![2, 2, 2, 2, 2],
        vec![3, 2, 4, 1, 3],
        vec![3, 3, 3, 3, 3],
    ] {
        let config = Configuration::new(tool.registry(), y).unwrap();
        let assessed = engine.assess(&config).unwrap();
        assert!(assessed.truncation.is_none(), "ε = 0 folds every state");
        assert_within_oracle_tolerance(tool.registry(), &load, &config, &assessed);
    }
}

#[test]
fn explicit_product_backend_with_zero_epsilon_covers_every_state() {
    let (tool, goals) = enterprise_tool();
    let config = Configuration::uniform(tool.registry(), 2).unwrap();
    let engine = tool.engine(&goals, SearchOptions::default()).unwrap();
    let a = engine.assess(&config).unwrap();
    assert!(a.truncation.is_none(), "nothing skipped, nothing to report");
    let states = StateSpace::new(&config).len();
    let stats = engine.cache_stats();
    assert_eq!(stats.state_entries, states, "every state evaluated once");
    assert_eq!(stats.misses as usize, states + config.k());

    // A warm replay folds every state again, all from the cache.
    assert_eq!(engine.assess(&config).unwrap(), a);
    assert_eq!(
        engine.cache_stats().hits as usize,
        states + config.k(),
        "the replay is pure cache hits"
    );
}

#[test]
fn greedy_search_accepts_truncated_evaluation() {
    // An adaptive ε in the greedy search is future work (see ROADMAP);
    // today a fixed tight ε must at least recommend the same winner.
    let (tool, goals) = enterprise_tool();
    let exact = tool.recommend(&goals, &SearchOptions::default()).unwrap();
    let truncated = tool
        .recommend(&goals, &SearchOptions::builder().epsilon(1e-9).build())
        .unwrap();
    assert_eq!(exact.replicas(), truncated.replicas());
    assert_eq!(exact.cost(), truncated.cost());
}

#[test]
fn engine_module_has_a_test_for_the_engine_level_contract() {
    // The engine-level contracts (cache layers, InvalidOption rejection,
    // cold/warm bit-identity) live in `wfms-config`'s unit tests; this
    // test pins the public surface needed to write them, including the
    // flat-chain backend selection the oracle keeps.
    let opts = SearchOptions::builder().epsilon(1e-6).build();
    assert_eq!(opts.epsilon, 1e-6);
    assert_eq!(
        select_backend(AvailBackend::Auto, RepairPolicy::Independent, 1_024, 0.0),
        AvailBackend::Dense
    );
    let (tool, goals) = enterprise_tool();
    let bad = SearchOptions::builder().epsilon(1.0).build();
    assert!(matches!(
        AssessmentEngine::new(tool.registry(), &tool.system_load().unwrap(), &goals, bad),
        Err(wfms::ConfigError::InvalidOption { .. })
    ));
}

/// A random registry of 1–5 types (failure, repair, and service rates
/// spanning the committed scenarios), a replica vector with at most
/// 8,000 states, and a load keeping the full configuration stable.
fn arbitrary_system() -> impl Strategy<Value = (ServerTypeRegistry, SystemLoad, Configuration)> {
    let types = proptest::collection::vec(
        (1e-5f64..1e-2, 0.01f64..1.0, 1e-3f64..5e-2, 0.05f64..0.9),
        1..6,
    );
    let reps = proptest::collection::vec(1usize..7, 5);
    (types, reps).prop_map(|(params, mut reps)| {
        let mut registry = ServerTypeRegistry::new();
        let mut rates = Vec::new();
        for (i, &(lambda, mu, service, rho)) in params.iter().enumerate() {
            registry
                .register(ServerType::with_exponential_service(
                    format!("t{i}"),
                    ServerTypeKind::WorkflowEngine,
                    lambda,
                    mu,
                    service,
                ))
                .unwrap();
            rates.push(rho / service);
        }
        reps.truncate(registry.len());
        // Shrink the largest coordinates until the chain fits 8,000 states.
        while reps.iter().map(|y| y + 1).product::<usize>() > 8_000 {
            let largest = (0..reps.len()).max_by_key(|&i| reps[i]).unwrap();
            reps[largest] -= 1;
        }
        let load = SystemLoad {
            request_rates: rates,
            total_arrival_rate: 1.0,
            active_instances: vec![],
        };
        let config = Configuration::new(&registry, reps).unwrap();
        (registry, load, config)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The oracle tolerance contract that replaced bit-identity to the
    /// retired dense path, at ε = 0 over random systems.
    #[test]
    fn assessments_hold_the_oracle_tolerance_contract(
        (registry, load, config) in arbitrary_system()
    ) {
        let goals = Goals::availability_only(0.5).unwrap();
        let assessed = AssessmentEngine::new(&registry, &load, &goals, SearchOptions::default())
            .unwrap()
            .assess(&config)
            .unwrap();
        assert_within_oracle_tolerance(&registry, &load, &config, &assessed);
    }
}
