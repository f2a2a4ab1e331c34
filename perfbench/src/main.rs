//! `wfms-perfbench --workload <plan|whatif|serve> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints one metadata record line, then — as the last line — the
//! result object `{"correct", "attempted", "failed", "metrics"}`.
//! Exits non-zero without a result when the workload cannot run.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use serde_json::Value;

use wfms_perfbench::{
    jv, obj, peak_rss_mib, plan, serve, stats, whatif, Outcome, END_TO_END, PER_LAYER, WORKLOADS,
};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<PathBuf>,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        trace_out: None,
    };
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--trace-out" => args.trace_out = Some(PathBuf::from(value)),
            other => return Err(format!("unknown option {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

fn metric(value: f64, unit: &str) -> Value {
    obj([("value", jv(value)), ("unit", jv(unit))])
}

/// End-to-end metrics of an untraced run.
fn end_to_end(
    o: &Outcome,
    workload: &str,
) -> Result<(BTreeMap<String, Value>, f64, usize), String> {
    let ops = o.op_ms.len();
    let lat = stats::summarize(&o.op_ms, stats::workload_tail(workload)).ok_or(format!(
        "only {ops} ops: too few for a tail percentile with {} samples beyond it",
        stats::TAIL_MIN_BEYOND
    ))?;
    let values: BTreeMap<&str, f64> = [
        ("setup_s", o.setup_s),
        ("ops_per_s", ops as f64 / o.timed_s),
        ("op_p50_ms", lat.p50),
        ("op_tail_ms", lat.tail),
        ("cpu_ms_per_op", 1e3 * o.cpu_s / ops as f64),
        ("ok_share", 1.0 - o.tally.failed_share()),
        ("peak_rss_mb", peak_rss_mib()),
        ("hit_p50_ms", stats::median(&o.hit_ms)),
        ("rebuild_p50_ms", stats::median(&o.rebuild_ms)),
    ]
    .into_iter()
    .collect();
    let mut m = BTreeMap::new();
    for (name, unit) in END_TO_END {
        m.insert(name.to_string(), metric(values[name], unit));
    }
    Ok((m, lat.tail_percentile, ops))
}

fn run(args: &Args) -> Result<(), String> {
    let outcome = match args.workload.as_str() {
        "plan" => plan::run(args.seed, args.seconds, args.trace),
        "whatif" => whatif::run(args.seed, args.seconds, args.trace),
        _ => serve::run(args.seed, args.seconds, args.trace),
    }?;
    let (metrics, tail_percentile, ops) = if args.trace {
        let mut m = BTreeMap::new();
        for (name, unit, _) in PER_LAYER {
            let value = outcome.layers.get(name).copied().unwrap_or(0.0);
            m.insert(name.to_string(), metric(value, unit));
        }
        (m, f64::NAN, outcome.op_ms.len())
    } else {
        end_to_end(&outcome, &args.workload)?
    };
    if args.trace {
        let path = args.trace_out.clone().unwrap_or_else(|| {
            PathBuf::from(format!(
                ".perfbench-out/spans-{}-seed{}.json",
                args.workload, args.seed
            ))
        });
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        let body = serde_json::to_string(&outcome.spans).map_err(|e| e.to_string())?;
        std::fs::write(&path, body).map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("spans written to {}", path.display());
    }
    for message in &outcome.tally.messages {
        eprintln!("failed: {message}");
    }

    let should_move: BTreeMap<String, String> = PER_LAYER
        .iter()
        .map(|(n, _, m)| (n.to_string(), m.to_string()))
        .collect();
    let scenarios: Vec<Value> = outcome
        .scenarios
        .iter()
        .map(|(n, s)| obj([("name", jv(n)), ("shape", jv(s))]))
        .collect();
    let record = obj([(
        "record",
        obj([
            ("workload", jv(&args.workload)),
            ("seed", jv(args.seed)),
            ("seconds", jv(args.seconds)),
            ("trace", jv(args.trace)),
            (
                "nproc",
                jv(std::thread::available_parallelism().map_or(0, |n| n.get())),
            ),
            ("rustc", jv(env!("PERFBENCH_RUSTC_VERSION"))),
            ("commit", jv(env!("PERFBENCH_GIT_COMMIT"))),
            (
                "profile",
                jv(if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }),
            ),
            ("ops", jv(ops)),
            (
                "tail_percentile",
                if tail_percentile.is_nan() {
                    Value::Null
                } else {
                    jv(tail_percentile)
                },
            ),
            ("failed_share", jv(outcome.tally.failed_share())),
            ("timed_s", jv(outcome.timed_s)),
            ("scenarios", jv(scenarios)),
            ("extra", jv(&outcome.extra)),
            (
                "should_move",
                if args.trace {
                    jv(should_move)
                } else {
                    Value::Null
                },
            ),
        ]),
    )]);
    println!(
        "{}",
        serde_json::to_string(&record).map_err(|e| e.to_string())?
    );
    let result = obj([
        ("correct", jv(outcome.tally.failed == 0)),
        ("attempted", jv(outcome.tally.attempted)),
        ("failed", jv(outcome.tally.failed)),
        ("metrics", jv(metrics)),
    ]);
    println!(
        "{}",
        serde_json::to_string(&result).map_err(|e| e.to_string())?
    );
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("wfms-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("wfms-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
