//! EXP-E2 (extension) — ε-truncated performability against the
//! exhaustive full-state-space fold.
//!
//! Assesses the five-type `examples/specs/enterprise` scenario at an
//! inflated replication `Y = (6,6,6,6,6)` — `∏(Y_x + 1) = 7^5 = 16807`
//! availability states. Both paths compute the exact closed-form
//! product-form marginals in `O(Σ Y_x)`; the full path (`ε = 0`) folds
//! the performability reward over **every** state, the truncated path
//! consumes states in descending probability until `1 − ε` of the mass
//! is covered.
//!
//! Asserts, per the acceptance bar:
//!
//! 1. ε = 1e-9 is ≥ 10× faster than the full path;
//! 2. every per-type waiting-time delta is within the truncation
//!    report's own error bound (plus float-summation slack);
//!
//! then records the timings into `BENCH_productform.json`.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use serde::{Deserialize, Serialize};
use wfms_config::{AssessmentEngine, Goals, SearchOptions};
use wfms_perf::{aggregate_load, analyze_workflow, AnalysisOptions, SystemLoad, WorkloadItem};
use wfms_statechart::{Configuration, ServerTypeRegistry, WorkflowSpec};

/// One workflow entry of an on-disk `workload.json` (the CLI's format).
#[derive(Debug, Deserialize)]
struct WorkloadEntry {
    arrival_rate: f64,
    spec: WorkflowSpec,
}

#[derive(Debug, Deserialize)]
struct WorkloadFile {
    workflows: Vec<WorkloadEntry>,
}

/// The measurements stored per experiment in `BENCH_productform.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ProductFormRecord {
    /// The inflated replication vector.
    replicas: Vec<usize>,
    /// `∏(Y_x + 1)`: full availability-state count.
    full_states: usize,
    /// States the ε-truncated fold actually evaluated.
    evaluated_states: usize,
    /// The truncation ε.
    epsilon: f64,
    /// Probability mass covered before stopping.
    covered_mass: f64,
    /// Full exhaustive path (every state folded), ms.
    full_ms: f64,
    /// ε-truncated path, ms.
    product_ms: f64,
    /// `full_ms / product_ms`.
    speedup: f64,
    /// Largest per-type waiting-time delta against the full path, min.
    max_waiting_delta: f64,
    /// Largest truncation error bound reported, min.
    max_error_bound: f64,
}

/// Path of the merged product-form benchmark file:
/// `$WFMS_BENCH_PRODUCTFORM` when set, else `BENCH_productform.json` at
/// the repository root.
fn bench_productform_path() -> PathBuf {
    match std::env::var_os("WFMS_BENCH_PRODUCTFORM") {
        Some(p) => PathBuf::from(p),
        None => PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_productform.json"),
    }
}

fn enterprise_inputs() -> (ServerTypeRegistry, SystemLoad) {
    let specs = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/specs/enterprise");
    let registry: ServerTypeRegistry = serde_json::from_str(
        &std::fs::read_to_string(specs.join("registry.json")).expect("registry.json"),
    )
    .expect("valid registry");
    let workload: WorkloadFile = serde_json::from_str(
        &std::fs::read_to_string(specs.join("workload.json")).expect("workload.json"),
    )
    .expect("valid workload");
    let mut items = Vec::new();
    for entry in workload.workflows {
        let analysis = analyze_workflow(&entry.spec, &registry, &AnalysisOptions::default())
            .expect("analyzes");
        items.push(WorkloadItem {
            analysis,
            arrival_rate: entry.arrival_rate,
        });
    }
    let load = aggregate_load(&items, &registry).expect("aggregates");
    (registry, load)
}

fn main() {
    const EPSILON: f64 = 1e-9;
    let (registry, load) = enterprise_inputs();
    let goals = Goals::new(0.01, 0.9999).expect("valid");
    let replicas = vec![6usize; registry.len()];
    let config = Configuration::new(&registry, replicas.clone()).expect("in range");
    let full_states: usize = replicas.iter().map(|y| y + 1).product();
    assert!(
        full_states >= 10_000,
        "the scenario must be big enough to be worth pruning"
    );

    println!("EXP-E2: product-form availability on examples/specs/enterprise");
    println!("  Y = {replicas:?}: {full_states} availability states\n");

    // Full path: ε = 0 folds over all states in encoding order.
    let full_engine =
        AssessmentEngine::new(&registry, &load, &goals, SearchOptions::default()).expect("engine");
    let t0 = Instant::now();
    let full = full_engine.assess(&config).expect("assessable");
    let full_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert!(
        full.truncation.is_none(),
        "the exhaustive path must not report truncation"
    );

    // Truncated path: ε > 0 walks the states in descending π order.
    let product_opts = SearchOptions::builder().epsilon(EPSILON).build();
    let product_engine =
        AssessmentEngine::new(&registry, &load, &goals, product_opts).expect("engine");
    let t0 = Instant::now();
    let truncated = product_engine.assess(&config).expect("assessable");
    let product_ms = t0.elapsed().as_secs_f64() * 1e3;
    let report = truncated
        .truncation
        .clone()
        .expect("the product path must report truncation");
    let evaluated_states = full_states - report.states_skipped;
    let speedup = full_ms / product_ms;

    println!("  full (exhaustive fold)   : {full_ms:>9.2} ms");
    println!(
        "  truncated, ε = {EPSILON:.0e}     : {product_ms:>9.2} ms  ({speedup:.1}x, \
         {evaluated_states}/{full_states} states, mass {:.12})",
        report.covered_mass
    );

    // Availability is the same closed product form on both paths.
    let avail_delta = (full.availability - truncated.availability).abs();
    println!("  |Δ availability| = {avail_delta:.3e}");
    assert!(avail_delta < 1e-9, "availability diverged: {avail_delta:e}");

    // Waiting times stay within the report's own error bound; the two
    // folds sum in different orders, hence the small slack.
    let full_w = full.expected_waiting.as_ref().expect("serving states");
    let trunc_w = truncated.expected_waiting.as_ref().expect("serving states");
    let mut max_waiting_delta = 0.0f64;
    for (x, (a, b)) in full_w.iter().zip(trunc_w).enumerate() {
        let delta = (a - b).abs();
        max_waiting_delta = max_waiting_delta.max(delta);
        assert!(
            delta <= report.waiting_error_bounds[x] + 1e-9,
            "type {x}: waiting delta {delta:e} exceeds bound {:e}",
            report.waiting_error_bounds[x]
        );
    }
    println!(
        "  max |ΔW| = {max_waiting_delta:.3e} min (bound {:.3e} min)",
        report.max_error_bound()
    );
    assert!(
        speedup >= 10.0,
        "the truncated path must be >= 10x faster, got {speedup:.2}x"
    );

    let record = ProductFormRecord {
        replicas,
        full_states,
        evaluated_states,
        epsilon: EPSILON,
        covered_mass: report.covered_mass,
        full_ms,
        product_ms,
        speedup,
        max_waiting_delta,
        max_error_bound: report.max_error_bound(),
    };
    let path = bench_productform_path();
    let mut all: BTreeMap<String, ProductFormRecord> = match std::fs::read_to_string(&path) {
        Ok(text) => serde_json::from_str(&text)
            .unwrap_or_else(|e| panic!("{}: invalid BENCH_productform.json: {e}", path.display())),
        Err(_) => BTreeMap::new(),
    };
    all.insert("exp_e2_productform".to_string(), record);
    let text = serde_json::to_string_pretty(&all).expect("serializable");
    std::fs::write(&path, text + "\n").unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    println!("\n[productform] merged timings into {}", path.display());
}
