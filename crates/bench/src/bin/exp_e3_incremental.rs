//! EXP-E3 (extension) — adaptive-ε screening against the unscreened
//! greedy search.
//!
//! Runs the five-type `examples/specs/enterprise` greedy search two
//! ways at identical goals:
//!
//! * **C — baseline**: no screen; every candidate pays an exact
//!   ε-truncated assessment (through the engine's block and state
//!   caches).
//! * **A — screened**: `--rank-moves` + `--screen-epsilon`. Steps whose
//!   infeasibility the loose bounds *prove* skip the exact assessment
//!   entirely. Asserted to land on the same winner with a bitwise-equal
//!   winning assessment, and to be ≥ 3× faster than C wall-clock.
//!
//! Records the timings into `BENCH_incremental.json`
//! (`$WFMS_BENCH_INCREMENTAL` overrides the path).

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use serde::{Deserialize, Serialize};
use wfms_config::{journal, AssessmentEngine, Goals, SearchOptions, SearchResult};
use wfms_perf::{aggregate_load, analyze_workflow, AnalysisOptions, SystemLoad, WorkloadItem};
use wfms_statechart::{ServerTypeRegistry, WorkflowSpec};

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

/// The measurements stored per experiment in `BENCH_incremental.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct IncrementalRecord {
    /// The recommended winner (identical across both legs).
    winner: Vec<usize>,
    /// Exact assessments the baseline paid.
    baseline_evaluations: usize,
    /// Exact assessments the screened leg paid.
    screened_evaluations: usize,
    /// Candidates the screen proved infeasible without an assessment.
    screened_out: usize,
    /// The screening tolerance of leg A.
    screen_epsilon: f64,
    /// Unscreened greedy, ms.
    baseline_ms: f64,
    /// Screened + ranked greedy, ms.
    screened_ms: f64,
    /// `baseline_ms / screened_ms`.
    speedup: f64,
}

/// Path of the merged benchmark file: `$WFMS_BENCH_INCREMENTAL` when
/// set, else `BENCH_incremental.json` at the repository root.
fn bench_incremental_path() -> PathBuf {
    match std::env::var_os("WFMS_BENCH_INCREMENTAL") {
        Some(p) => PathBuf::from(p),
        None => PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_incremental.json"),
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

fn options(jobs: usize) -> wfms_config::SearchOptionsBuilder {
    SearchOptions::builder()
        .epsilon(EPSILON)
        .jobs(jobs)
        .max_total_servers(BUDGET)
}

/// Runs one greedy search, returning the result, its journal rendered
/// as JSONL, and the wall-clock milliseconds.
fn run_greedy(
    registry: &ServerTypeRegistry,
    load: &SystemLoad,
    goals: &Goals,
    opts: SearchOptions,
) -> (SearchResult, String, f64) {
    let engine = AssessmentEngine::new(registry, load, goals, opts).expect("engine");
    let _ = journal::take();
    journal::enable();
    let t0 = Instant::now();
    let result = engine.greedy().expect("greedy finds a winner");
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    journal::disable();
    let jsonl = journal::to_jsonl(&journal::take());
    (result, jsonl, ms)
}

const EPSILON: f64 = 1e-9;
const SCREEN_EPSILON: f64 = 3e-2;
const BUDGET: usize = 100;
// 0.0003 min = 18 ms: tight enough that the greedy climb is long and
// waiting-driven, so most of the work is exact folds the screen can
// prove away.
const MAX_WAIT_MIN: f64 = 3e-4;
const MIN_AVAILABILITY: f64 = 0.9999;
/// Timed legs run this many times; the minimum wall-clock is recorded
/// (first-run cache warmup and scheduler noise would otherwise dominate
/// a millisecond-scale comparison).
const TIMING_RUNS: usize = 3;

fn main() {
    let (registry, load) = enterprise_inputs();
    let goals = Goals::new(MAX_WAIT_MIN, MIN_AVAILABILITY).expect("valid goals");

    println!("EXP-E3: screened greedy on examples/specs/enterprise");
    println!(
        "  goals: W_max = {MAX_WAIT_MIN} min, A_min = {MIN_AVAILABILITY}, budget {BUDGET}, \
         ε = {EPSILON:.0e}\n"
    );

    // Timed legs, sequential greedy (jobs = 1), best of TIMING_RUNS.
    let time_leg = |opts: SearchOptions| {
        let mut best: Option<(SearchResult, String, f64)> = None;
        for _ in 0..TIMING_RUNS {
            let run = run_greedy(&registry, &load, &goals, opts);
            if best.as_ref().is_none_or(|(_, _, ms)| run.2 < *ms) {
                best = Some(run);
            }
        }
        best.expect("at least one timed run")
    };
    let (baseline, _, baseline_ms) = time_leg(options(1).build());
    let (screened, screened_journal, screened_ms) = time_leg(
        options(1)
            .screen_epsilon(SCREEN_EPSILON)
            .rank_moves(true)
            .build(),
    );
    let screened_out = screened_journal
        .lines()
        .filter(|l| l.contains("\"reject-screened\""))
        .count();
    let speedup = baseline_ms / screened_ms;

    println!(
        "  C baseline (unscreened): {baseline_ms:>9.2} ms  ({} exact assessments)",
        baseline.evaluations
    );
    println!(
        "  A screened + ranked    : {screened_ms:>9.2} ms  ({speedup:.1}x, {} exact, \
         {screened_out} screened out)",
        screened.evaluations
    );

    // The screen may only prune provably infeasible candidates: the
    // winner and its assessment are exactly the baseline's.
    assert_eq!(
        baseline.assessment.replicas, screened.assessment.replicas,
        "screened leg landed on a different winner"
    );
    assert_eq!(
        serde_json::to_string(&baseline.assessment).expect("serialize"),
        serde_json::to_string(&screened.assessment).expect("serialize"),
        "screened winner assessment diverged"
    );
    assert!(
        screened_out > 0,
        "the screen never fired — the experiment is not exercising the tentpole"
    );
    assert!(
        speedup >= 3.0,
        "screened greedy must be >= 3x faster than the unscreened baseline, got {speedup:.2}x"
    );

    let record = IncrementalRecord {
        winner: baseline.assessment.replicas.clone(),
        baseline_evaluations: baseline.evaluations,
        screened_evaluations: screened.evaluations,
        screened_out,
        screen_epsilon: SCREEN_EPSILON,
        baseline_ms,
        screened_ms,
        speedup,
    };
    let path = bench_incremental_path();
    let mut all: BTreeMap<String, IncrementalRecord> = match std::fs::read_to_string(&path) {
        Ok(text) => serde_json::from_str(&text)
            .unwrap_or_else(|e| panic!("{}: invalid BENCH_incremental.json: {e}", path.display())),
        Err(_) => BTreeMap::new(),
    };
    all.insert("exp_e3_incremental".to_string(), record);
    let text = serde_json::to_string_pretty(&all).expect("serializable");
    std::fs::write(&path, text + "\n").unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    println!("\n[incremental] merged timings into {}", path.display());
}
