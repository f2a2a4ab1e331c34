//! The repository benchmark: three workloads (`plan`, `whatif`, `serve`)
//! over the public API of the wfms crates, printing end-to-end metrics
//! (untraced runs) or per-layer metrics (traced runs) as one JSON line.
//! See `README.md` in this directory for the workloads, the metric
//! tables and how to run it.

pub mod check;
pub mod plan;
pub mod rng;
pub mod scenario;
pub mod serve;
pub mod stats;
pub mod trace;
pub mod whatif;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use serde_json::Value;

use crate::check::Tally;
use crate::scenario::Shape;

/// Workload names, as `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["plan", "whatif", "serve"];

/// End-to-end metrics `(name, unit)`, printed by every untraced run.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("ok_share", "ratio"),
    ("peak_rss_mb", "MiB"),
    ("hit_p50_ms", "ms"),
    ("rebuild_p50_ms", "ms"),
];

/// Per-layer metrics `(name, unit, should move)`, printed by every
/// traced run. The third field names the end-to-end metric and workload
/// each one should move.
pub const PER_LAYER: [(&str, &str, &str); 29] = [
    (
        "statechart.map_ms",
        "ms/op",
        "setup_s (all); op_p50_ms on plan; rebuild_p50_ms on serve",
    ),
    (
        "core.tool_build_ms",
        "ms/op",
        "setup_s (all); op_p50_ms on plan; rebuild_p50_ms on serve",
    ),
    (
        "config.engine_new_ms",
        "ms/op",
        "setup_s (all); op_p50_ms on plan; rebuild_p50_ms on serve",
    ),
    (
        "analysis.lint_ms",
        "ms/op",
        "setup_s (all); op_p50_ms on plan; rebuild_p50_ms on serve",
    ),
    (
        "perf.analyze_ms",
        "ms/op",
        "op_p50_ms on plan; rebuild_p50_ms on serve",
    ),
    (
        "perf.percentile_ms",
        "ms/op",
        "ops_per_s and op_p50_ms on plan; hit_p50_ms on serve; nothing on whatif",
    ),
    (
        "markov.transient_solves",
        "count/op",
        "ops_per_s and op_p50_ms on plan; hit_p50_ms on serve; nothing on whatif",
    ),
    (
        "markov.poisson_terms",
        "terms/solve",
        "ops_per_s and op_p50_ms on plan; hit_p50_ms on serve; nothing on whatif",
    ),
    (
        "avail.solve_ms",
        "ms/op",
        "ops_per_s, op_tail_ms and peak_rss_mb on whatif; rebuild_p50_ms on serve",
    ),
    (
        "avail.states",
        "states/solve",
        "ops_per_s, op_tail_ms and peak_rss_mb on whatif; rebuild_p50_ms on serve",
    ),
    (
        "avail.dense_share",
        "ratio",
        "ops_per_s, op_tail_ms and peak_rss_mb on whatif; rebuild_p50_ms on serve",
    ),
    (
        "performability.fold_ms",
        "ms/op",
        "op_p50_ms on whatif (sparse-side candidates)",
    ),
    (
        "performability.states_evaluated",
        "count/op",
        "op_p50_ms on whatif (sparse-side candidates)",
    ),
    (
        "queueing.mg1_evals",
        "count/op",
        "op_p50_ms on whatif (sparse-side candidates)",
    ),
    (
        "config.assess_ms",
        "ms/op",
        "op_p50_ms on plan; ops_per_s on whatif; hit_p50_ms on serve",
    ),
    (
        "config.search_ms",
        "ms/op",
        "op_p50_ms on plan; ops_per_s on whatif; hit_p50_ms on serve",
    ),
    (
        "config.evaluations",
        "count/op",
        "op_p50_ms on plan; ops_per_s on whatif; hit_p50_ms on serve",
    ),
    (
        "config.cache_hit_ratio",
        "ratio",
        "op_p50_ms on plan; ops_per_s on whatif; hit_p50_ms on serve",
    ),
    (
        "proto.decode_ms",
        "ms/op",
        "op_p50_ms, ops_per_s and op_tail_ms on serve",
    ),
    (
        "proto.encode_ms",
        "ms/op",
        "op_p50_ms, ops_per_s and op_tail_ms on serve",
    ),
    (
        "serve.handle_ms",
        "ms/op",
        "op_p50_ms, ops_per_s and op_tail_ms on serve",
    ),
    (
        "serve.transport_ms",
        "ms/op",
        "op_p50_ms, ops_per_s and op_tail_ms on serve",
    ),
    (
        "serve.queue_depth_max",
        "count",
        "op_p50_ms, ops_per_s and op_tail_ms on serve",
    ),
    (
        "serve.rebuilds",
        "count",
        "op_p50_ms, ops_per_s and op_tail_ms on serve",
    ),
    (
        "trace.percentile_share",
        "ratio",
        "share of op time in percentile work: dominant on plan, zero on whatif",
    ),
    (
        "trace.avail_fold_share",
        "ratio",
        "share of assess time in the availability solve plus fold: dominant on whatif",
    ),
    (
        "trace.rebuild_build_share",
        "ratio",
        "share of rebuild time in tool/engine build: most of it on serve replans",
    ),
    (
        "trace.hit_build_share",
        "ratio",
        "share of hit time in tool/engine build: zero on serve hits",
    ),
    (
        "trace.overhead",
        "ratio",
        "traced op time over untraced op time of the same ops",
    ),
];

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Ops attempted and failed (errors, refusals and wrong answers).
    pub tally: Tally,
    /// Latency of every timed op, in ms.
    pub op_ms: Vec<f64>,
    /// Latency of ops answered from warm state, in ms.
    pub hit_ms: Vec<f64>,
    /// Latency of cold builds, in ms.
    pub rebuild_ms: Vec<f64>,
    /// Wall time of the timed phase.
    pub timed_s: f64,
    /// Process CPU time (user + sys) spent in the timed phase.
    pub cpu_s: f64,
    /// Median set-up time over the repeated set-ups.
    pub setup_s: f64,
    /// Per-layer metrics (traced runs only).
    pub layers: BTreeMap<&'static str, f64>,
    /// Scenarios used, with their shapes.
    pub scenarios: Vec<(String, Shape)>,
    /// Workload-specific facts for the metadata record.
    pub extra: BTreeMap<String, Value>,
    /// The traced run's spans, written out at the end.
    pub spans: Vec<trace::SpanRec>,
}

/// Converts a serializable value to JSON.
pub fn jv<T: serde::Serialize>(x: T) -> Value {
    serde_json::to_value(x).expect("benchmark values serialize")
}

/// A JSON object from `(key, value)` pairs, in order.
pub fn obj<const N: usize>(pairs: [(&str, Value); N]) -> Value {
    let mut m = serde::Map::new();
    for (k, v) in pairs {
        m.insert(k.to_string(), v);
    }
    Value::Object(m)
}

/// Milliseconds of a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Process CPU time (user + sys) in seconds, from `/proc/self/stat`
/// (clock ticks of 1/100 s, the Linux `USER_HZ`).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest.split_whitespace().collect())
        .unwrap_or_default();
    // After the command name: state is field 3, utime 14, stime 15.
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (tick(11) + tick(12)) as f64 / 100.0
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Runs `setup` `times` times and returns the last result with the
/// median wall time in seconds.
pub fn repeated_setup<T>(
    times: usize,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut secs = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times {
        let t0 = Instant::now();
        last = Some(setup()?);
        secs.push(t0.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one set-up"), stats::median(&secs)))
}

/// Runs whole rounds while the next one is expected to end within
/// `seconds` (always at least one), returning the rounds run. Finishing
/// rounds keeps the op mix identical from run to run.
pub fn run_rounds(
    seconds: f64,
    mut round: impl FnMut(u64) -> Result<(), String>,
) -> Result<u64, String> {
    let t0 = Instant::now();
    let mut done = 0u64;
    loop {
        round(done)?;
        done += 1;
        let elapsed = t0.elapsed().as_secs_f64();
        if elapsed + elapsed / done as f64 > seconds {
            return Ok(done);
        }
    }
}

/// Per-layer figures aggregated from `wfms-obs` snapshots, for layers
/// that run only inside another library call (the availability solve
/// and fold inside a search or a daemon request, percentile work inside
/// a daemon `assess`) and for the counters the library already records.
#[derive(Debug, Default, Clone)]
pub struct ObsAgg {
    /// Total span time by stage name, in ns.
    pub span_ns: BTreeMap<String, u64>,
    /// Availability models built (dense and sparse) or product forms.
    pub avail_solves: u64,
    /// Of those, dense LU models.
    pub avail_dense: u64,
    /// Sum of their state counts.
    pub avail_states: u64,
    /// Counters, summed.
    pub counters: BTreeMap<String, u64>,
    /// `markov.poisson.terms`: transient solves and total terms.
    pub poisson_solves: u64,
    /// See [`ObsAgg::poisson_solves`].
    pub poisson_terms: u64,
}

impl ObsAgg {
    /// Folds in everything `wfms_obs::global()` recorded since the last
    /// call, emptying the recorder (so its span cap is never reached).
    pub fn drain_global(&mut self) {
        self.absorb(&wfms_obs::global().take());
    }

    /// Folds in one snapshot.
    pub fn absorb(&mut self, snap: &wfms_obs::TraceSnapshot) {
        for span in &snap.spans {
            *self.span_ns.entry(span.name.clone()).or_insert(0) += span.duration_ns;
            if span.name == "avail-build" || span.name == "avail-product-form" {
                self.avail_solves += 1;
                if let Some(wfms_obs::FieldValue::U64(n)) = span.field("states") {
                    self.avail_states += n;
                }
                if matches!(span.field("backend"), Some(wfms_obs::FieldValue::Str(b)) if b == "dense")
                {
                    self.avail_dense += 1;
                }
            }
        }
        for (name, v) in &snap.counters {
            *self.counters.entry(name.clone()).or_insert(0) += v;
        }
        if let Some(h) = snap.histograms.get("markov.poisson.terms") {
            self.poisson_solves += h.count;
            self.poisson_terms += h.sum;
        }
    }

    /// Total time of the named stages, in ms.
    pub fn stage_ms(&self, names: &[&str]) -> f64 {
        names
            .iter()
            .map(|n| self.span_ns.get(*n).copied().unwrap_or(0))
            .sum::<u64>() as f64
            / 1e6
    }

    /// A counter's total.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Mean Poisson terms per transient solve (0 when none ran).
    pub fn terms_per_solve(&self) -> f64 {
        ratio(self.poisson_terms as f64, self.poisson_solves as f64)
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Availability stages recorded by `wfms-avail`.
pub const OBS_AVAIL_STAGES: [&str; 3] = ["avail-build", "avail-steady-state", "avail-product-form"];
/// Percentile stages recorded by `wfms-perf` / `wfms-markov`.
pub const OBS_PERCENTILE_STAGES: [&str; 2] = ["turnaround-distribution", "transient-distribution"];
