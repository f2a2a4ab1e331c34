//! Self-tests of the benchmark: generator determinism, the tail
//! percentile rule, failure counting, span self-time arithmetic, and the
//! names the runner prints against `BENCHMARK.json`.

use std::path::PathBuf;
use std::process::Command;

use serde_json::Value;

use wfms_core::{ConfigurationTool, SearchOptions};
use wfms_perfbench::check::{self, Tally};
use wfms_perfbench::scenario::{self, GenClass, MTTR_RANGE};
use wfms_perfbench::stats::{beyond, summarize, tail_percentile, TAIL_MIN_BEYOND};
use wfms_perfbench::trace::{self_time_by_name, self_times_ns, SpanRec};
use wfms_perfbench::{END_TO_END, PER_LAYER, WORKLOADS};

const CLASS: GenClass = GenClass {
    k: 4,
    workflows: 2,
    states: (5, 9),
    stiff: true,
    mttr: MTTR_RANGE,
};

#[test]
fn generator_is_deterministic_per_seed() {
    let a = scenario::generate(7, 1, CLASS).unwrap_or_else(|e| panic!("{e}"));
    let b = scenario::generate(7, 1, CLASS).expect("generates");
    assert_eq!(a.registry_json, b.registry_json);
    assert_eq!(a.workload_json, b.workload_json);
    assert_eq!(a.max_wait.to_bits(), b.max_wait.to_bits());
    assert_eq!(a.min_availability.to_bits(), b.min_availability.to_bits());
    let c = scenario::generate(8, 1, CLASS).expect("generates");
    assert_ne!(
        a.workload_json, c.workload_json,
        "another seed, other inputs"
    );
    let d = scenario::generate(7, 2, CLASS).expect("generates");
    assert_ne!(
        a.workload_json, d.workload_json,
        "another index, other inputs"
    );
}

#[test]
fn generated_scenarios_lint_clean_and_keep_their_shape() {
    for seed in 0..4 {
        for class in [
            CLASS,
            GenClass {
                k: 6,
                workflows: 1,
                states: (4, 15),
                stiff: false,
                mttr: MTTR_RANGE,
            },
            GenClass {
                k: 3,
                workflows: 4,
                states: (4, 6),
                stiff: true,
                mttr: MTTR_RANGE,
            },
        ] {
            let s = scenario::generate(seed, 0, class).expect("generates");
            assert_eq!(scenario::lint_errors(&s).expect("lints"), 0, "{}", s.name);
            assert_eq!(s.shape.k, class.k);
            assert_eq!(s.shape.states_per_workflow.len(), class.workflows);
            assert!(s
                .shape
                .states_per_workflow
                .iter()
                .all(|n| (class.states.0..=class.states.1).contains(n)));
        }
    }
}

#[test]
fn tail_percentile_keeps_ten_samples_beyond() {
    assert_eq!(TAIL_MIN_BEYOND, 10);
    assert_eq!(tail_percentile(19), None);
    assert_eq!(tail_percentile(20), Some(50.0));
    assert_eq!(tail_percentile(99), Some(75.0));
    assert_eq!(tail_percentile(100), Some(90.0));
    assert_eq!(tail_percentile(1000), Some(99.0));
    assert_eq!(tail_percentile(10_000), Some(99.9));
    for n in 20..3000 {
        let p = tail_percentile(n).expect("enough samples");
        assert!(beyond(n, p) >= TAIL_MIN_BEYOND, "n {n} p {p}");
    }
    let samples: Vec<f64> = (1..=100).map(f64::from).collect();
    let lat = summarize(&samples, 99.0).expect("100 samples");
    assert_eq!(lat.tail_percentile, 90.0, "too few samples for p99");
    assert_eq!(lat.tail, 90.0, "exactly ten samples lie above");
    assert_eq!(lat.p50, 50.5);
    let lat = summarize(&samples, 75.0).expect("100 samples");
    assert_eq!(lat.tail_percentile, 75.0, "the workload's percentile");
}

#[test]
fn a_wrong_answer_is_counted_as_failed() {
    let ep = scenario::ep();
    let (registry, mix) = ep.decode().expect("decodes");
    let mut tool = ConfigurationTool::new(registry.clone());
    for (spec, rate) in mix {
        tool.add_workflow(spec, rate).expect("valid spec");
    }
    let engine = tool
        .engine(&ep.goals(), SearchOptions::default())
        .expect("engine");
    let winner = engine.greedy().expect("greedy").assessment;

    let mut problems = Vec::new();
    check::assessment(&registry, &winner, true, &mut problems);
    assert!(problems.is_empty(), "{problems:?}");

    let mut wrong = winner.clone();
    wrong.availability -= 1e-7;
    let mut problems = Vec::new();
    check::assessment(&registry, &wrong, true, &mut problems);
    assert!(!problems.is_empty(), "a shifted availability must fail");

    let mut tally = Tally::default();
    tally.op(Vec::new());
    tally.op(problems);
    assert_eq!((tally.attempted, tally.failed), (2, 1));
    assert_eq!(tally.failed_share(), 0.5);

    let mut problems = Vec::new();
    check::percentiles("W", 3.0, 2.0, 4.0, &mut problems);
    assert_eq!(problems.len(), 1, "p50 above p90 is wrong");
}

fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> SpanRec {
    SpanRec {
        name,
        start_ns: start,
        end_ns: end,
        parent,
        op: 0,
    }
}

#[test]
fn self_time_subtracts_the_union_of_children() {
    let spans = vec![
        span("op", 0, 100, None),
        span("a", 10, 30, Some(0)),
        // Overlaps `a`: the union 10..50 counts once.
        span("b", 20, 50, Some(0)),
        // Overhangs the parent: only 90..100 is covered.
        span("c", 90, 120, Some(0)),
        span("d", 12, 18, Some(1)),
    ];
    assert_eq!(self_times_ns(&spans), vec![50, 14, 30, 30, 6]);
    let by_name = self_time_by_name(&spans);
    assert_eq!(by_name["op"], 50);
    assert_eq!(by_name.values().sum::<u64>(), 130);
}

fn benchmark_json() -> Value {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn names_units(list: &Value) -> Vec<(String, String)> {
    list.as_array()
        .expect("a list")
        .iter()
        .map(|m| {
            (
                m["name"].as_str().expect("name").to_string(),
                m["unit"].as_str().expect("unit").to_string(),
            )
        })
        .collect()
}

#[test]
fn names_match_benchmark_json() {
    let doc = benchmark_json();
    let workloads: Vec<&str> = doc["workloads"]
        .as_array()
        .expect("workloads")
        .iter()
        .map(|w| w["name"].as_str().expect("name"))
        .collect();
    assert_eq!(workloads, WORKLOADS);
    let e2e: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(names_units(&doc["end_to_end"]), e2e);
    let layers: Vec<(String, String)> = PER_LAYER
        .iter()
        .map(|(n, u, _)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(names_units(&doc["per_layer"]), layers);
}

/// Runs the benchmark binary and returns its last stdout line, parsed.
fn run_last_line(workload: &str, trace: &str) -> Value {
    let out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("selftest-{trace}"));
    let out = Command::new(env!("CARGO_BIN_EXE_wfms-perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            trace,
        ])
        .arg("--trace-out")
        .arg(out_dir.join("spans.json"))
        .output()
        .expect("runs");
    let _ = std::fs::remove_dir_all(&out_dir);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    serde_json::from_str(stdout.lines().last().expect("a last line")).expect("JSON")
}

#[test]
fn printed_metrics_match_benchmark_json() {
    let doc = benchmark_json();
    for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
        let result = run_last_line("plan", trace);
        let keys: Vec<&str> = result
            .as_object()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(result["correct"].as_bool(), Some(true));
        let mut printed: Vec<(String, String)> = result["metrics"]
            .as_object()
            .expect("metrics")
            .iter()
            .map(|(k, v)| (k.clone(), v["unit"].as_str().expect("unit").to_string()))
            .collect();
        let mut expected = names_units(&doc[list]);
        printed.sort();
        expected.sort();
        assert_eq!(printed, expected, "trace {trace}");
    }
}
