//! `plan`: cold planning sessions back to back from one thread.
//!
//! One op is one session starting from registry/workload JSON text, as
//! `wfms recommend` does: decode and build the tool, lint, turnaround
//! mean and p50/p90/p99 per workflow type (`wfms analyze`), greedy on a
//! fresh engine, then branch-and-bound on the same engine as the
//! optimality check.

use std::time::Instant;

use wfms_core::analysis::{analyze, SystemUnderAnalysis};
use wfms_core::perf::TurnaroundDistribution;
use wfms_core::statechart::map_chart;
use wfms_core::{AssessmentEngine, ConfigurationTool, SearchOptions};

use crate::scenario::{self, GenClass, Scenario, MTTR_RANGE};
use crate::trace::{self_time_by_name, self_times_ns, Tracer};
use crate::{check, jv, ms, ratio, repeated_setup, run_rounds, ObsAgg, Outcome};

/// Generated scenario classes of `plan`: small server-type counts, so
/// winners — and their availability chains — stay small, and a mix of
/// stiff (many Poisson terms) and flat workflows. With ep and
/// enterprise a round has seven sessions: three well below enterprise's
/// cost and three well above it, so the median session is the
/// enterprise one (fixed inputs) on every seed.
pub const CLASSES: [GenClass; 5] = [
    GenClass {
        k: 3,
        workflows: 1,
        states: (10, 10),
        stiff: true,
        mttr: MTTR_RANGE,
    },
    GenClass {
        k: 4,
        workflows: 2,
        states: (5, 9),
        stiff: false,
        mttr: MTTR_RANGE,
    },
    GenClass {
        k: 4,
        workflows: 4,
        states: (10, 10),
        stiff: true,
        mttr: MTTR_RANGE,
    },
    GenClass {
        k: 3,
        workflows: 3,
        states: (4, 8),
        stiff: false,
        mttr: MTTR_RANGE,
    },
    GenClass {
        k: 4,
        workflows: 3,
        states: (11, 11),
        stiff: true,
        mttr: MTTR_RANGE,
    },
];

/// The scenarios of one `plan` run, each linted clean.
pub fn scenarios(seed: u64) -> Result<Vec<Scenario>, String> {
    let mut out = vec![scenario::ep(), scenario::enterprise()];
    for (i, class) in CLASSES.iter().enumerate() {
        out.push(scenario::generate(seed, i as u64, *class)?);
    }
    scenario::lint_all(&out)?;
    Ok(out)
}

/// What one session measured besides its checks.
#[derive(Debug, Default)]
struct Session {
    problems: Vec<String>,
    /// Decode, tool build and engine construction (the cold build).
    build_ms: f64,
    /// Greedy again on the engine the session warmed: every answer comes
    /// from its caches.
    warm_search_ms: f64,
    evaluations: u64,
    cache_hits: u64,
    cache_misses: u64,
    largest_chain: usize,
}

fn session(sc: &Scenario, tr: &mut Tracer) -> Session {
    let mut s = Session::default();
    let t0 = Instant::now();
    let span = tr.open("statechart.map");
    let decoded = sc.decode().and_then(|(registry, mix)| {
        for (spec, _) in &mix {
            map_chart(&spec.chart, spec).map_err(|e| format!("{}: {e}", spec.name))?;
        }
        Ok((registry, mix))
    });
    tr.close(span);
    let (registry, mix) = match decoded {
        Ok(d) => d,
        Err(e) => {
            s.problems.push(e);
            return s;
        }
    };
    let span = tr.open("core.tool_build");
    let mut tool = ConfigurationTool::new(registry.clone());
    let built = mix
        .iter()
        .try_for_each(|(spec, rate)| tool.add_workflow(spec.clone(), *rate));
    tr.close(span);
    let mut build_ms = ms(t0.elapsed());
    if let Err(e) = built {
        s.problems.push(e.to_string());
        return s;
    }

    let goals = sc.goal_targets();
    let findings = tr.time("analysis.lint", || {
        analyze(&SystemUnderAnalysis {
            registry: &registry,
            workload: &mix,
            replicas: None,
            goals: Some(&goals),
            max_total_servers: Some(SearchOptions::default().max_total_servers),
        })
    });
    if findings.has_errors() {
        s.problems
            .push(format!("lint: {} error(s)", findings.error_count()));
    }

    for (spec, _) in &mix {
        let analysis = match tr.time("perf.analyze", || tool.workflow_analysis(&spec.name)) {
            Ok(a) => a,
            Err(e) => {
                s.problems.push(e.to_string());
                continue;
            }
        };
        let span = tr.open("perf.percentile");
        let dist = TurnaroundDistribution::new(&analysis, 1e-9)
            .and_then(|d| Ok((d.percentile(0.5)?, d.percentile(0.9)?, d.percentile(0.99)?)));
        tr.close(span);
        match dist {
            Ok((p50, p90, p99)) => {
                check::percentiles(&spec.name, p50, p90, p99, &mut s.problems);
                if !(analysis.mean_turnaround > 0.0 && analysis.mean_turnaround.is_finite()) {
                    s.problems
                        .push(format!("{}: bad mean turnaround", spec.name));
                }
            }
            Err(e) => s.problems.push(format!("{}: {e}", spec.name)),
        }
    }

    let t_build = Instant::now();
    let load = tr.time("perf.analyze", || tool.system_load());
    let engine = load.map_err(|e| e.to_string()).and_then(|load| {
        tr.time("config.engine_new", || {
            AssessmentEngine::new(&registry, &load, &sc.goals(), SearchOptions::default())
        })
        .map_err(|e| e.to_string())
    });
    build_ms += ms(t_build.elapsed());
    s.build_ms = build_ms;
    let engine = match engine {
        Ok(e) => e,
        Err(e) => {
            s.problems.push(e);
            return s;
        }
    };

    let greedy = tr.time("config.search", || engine.greedy());
    let bnb = tr.time("config.search", || engine.branch_and_bound());
    let t_warm = Instant::now();
    let again = tr.time("config.search", || engine.greedy());
    s.warm_search_ms = ms(t_warm.elapsed());
    match (greedy, bnb, again) {
        (Ok(greedy), Ok(bnb), Ok(again)) => {
            if again != greedy {
                s.problems
                    .push("a warm greedy re-run differs from the first".to_string());
            }
            check::assessment(&registry, &greedy.assessment, true, &mut s.problems);
            check::assessment(&registry, &bnb.assessment, true, &mut s.problems);
            if bnb.cost() > greedy.cost() {
                s.problems.push(format!(
                    "branch-and-bound cost {} > greedy cost {}",
                    bnb.cost(),
                    greedy.cost()
                ));
            }
            if let Some(expected) = &sc.expected_winner {
                if greedy.replicas() != expected.as_slice() {
                    s.problems.push(format!(
                        "{}: greedy winner {:?}, expected {expected:?}",
                        sc.name,
                        greedy.replicas()
                    ));
                }
            }
            s.evaluations = (greedy.evaluations + bnb.evaluations + again.evaluations) as u64;
            s.largest_chain = greedy
                .trace
                .iter()
                .chain(&bnb.trace)
                .map(|a| a.replicas.iter().map(|y| y + 1).product::<usize>())
                .max()
                .unwrap_or(0);
        }
        (Err(e), _, _) | (_, Err(e), _) | (_, _, Err(e)) => s.problems.push(e.to_string()),
    }
    let stats = engine.cache_stats();
    s.cache_hits = stats.hits;
    s.cache_misses = stats.misses;
    s
}

/// Runs `plan` for `seconds`; traced when `traced`.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    // Set-up: generate and lint the scenarios, then one warm-up session
    // each (first-touch allocation, instruction caches), seven times.
    let (scenarios, setup_s) = repeated_setup(7, || {
        let scenarios = scenarios(seed)?;
        let mut tr = Tracer::new(false, Instant::now());
        for sc in &scenarios {
            let s = session(sc, &mut tr);
            if !s.problems.is_empty() {
                return Err(format!(
                    "warm-up session on {}: {}",
                    sc.name,
                    s.problems.join("; ")
                ));
            }
        }
        Ok(scenarios)
    })?;
    let mut out = Outcome {
        setup_s,
        ..Outcome::default()
    };
    let order = |round: u64| {
        let mut idx: Vec<usize> = (0..scenarios.len()).collect();
        crate::rng::Rng::new(seed, 0x91A4 + round).shuffle(&mut idx);
        idx
    };
    let mut largest = vec![0usize; scenarios.len()];
    let mut by_scenario_ms: Vec<Vec<f64>> = vec![Vec::new(); scenarios.len()];

    // The timed phase (untraced). In a traced run it takes half the time
    // and the same rounds are then replayed under tracing.
    let budget = if traced { seconds / 2.0 } else { seconds };
    let cpu0 = crate::cpu_seconds();
    let t0 = Instant::now();
    let mut untraced = Tracer::new(false, t0);
    // Sessions are all cold, so `hit` and `rebuild` are per round: the
    // warm greedy re-runs and the cold builds of all its sessions.
    let rounds = run_rounds(budget, |round| {
        let (mut hit_ms, mut rebuild_ms) = (0.0, 0.0);
        for i in order(round) {
            let t = Instant::now();
            let s = session(&scenarios[i], &mut untraced);
            out.op_ms.push(ms(t.elapsed()));
            by_scenario_ms[i].push(ms(t.elapsed()));
            rebuild_ms += s.build_ms;
            hit_ms += s.warm_search_ms;
            largest[i] = largest[i].max(s.largest_chain);
            out.tally.op(s.problems);
        }
        out.hit_ms.push(hit_ms);
        out.rebuild_ms.push(rebuild_ms);
        Ok(())
    })?;
    out.timed_s = t0.elapsed().as_secs_f64();
    out.cpu_s = crate::cpu_seconds() - cpu0;

    for (sc, chain) in scenarios.iter().zip(largest) {
        let mut shape = sc.shape.clone();
        shape.largest_chain = chain;
        out.scenarios.push((sc.name.clone(), shape));
    }
    out.extra.insert("rounds".into(), jv(rounds));
    let p50_by_scenario: std::collections::BTreeMap<String, f64> = scenarios
        .iter()
        .zip(&by_scenario_ms)
        .map(|(sc, v)| (sc.name.clone(), crate::stats::median(v)))
        .collect();
    out.extra
        .insert("session_p50_ms_by_scenario".into(), jv(p50_by_scenario));
    if traced {
        traced_replay(&scenarios, rounds, &order, &mut out);
    }
    Ok(out)
}

fn traced_replay(
    scenarios: &[Scenario],
    rounds: u64,
    order: &dyn Fn(u64) -> Vec<usize>,
    out: &mut Outcome,
) {
    let mut tr = Tracer::new(true, Instant::now());
    let mut agg = ObsAgg::default();
    let (mut evaluations, mut hits, mut misses) = (0u64, 0u64, 0u64);
    let mut op = 0u64;
    wfms_obs::global().reset();
    wfms_obs::enable();
    for round in 0..rounds {
        for i in order(round) {
            tr.set_op(op);
            let span = tr.open("plan.session");
            let s = session(&scenarios[i], &mut tr);
            tr.close(span);
            agg.drain_global();
            evaluations += s.evaluations;
            hits += s.cache_hits;
            misses += s.cache_misses;
            op += 1;
        }
    }
    wfms_obs::disable();
    let spans = tr.take();
    let self_ns = self_time_by_name(&spans);
    let total_ns = crate::trace::total_time_by_name(&spans);
    let ops = op.max(1) as f64;
    let per_op = |name: &str| self_ns.get(name).copied().unwrap_or(0) as f64 / 1e6 / ops;
    let session_ms = total_ns.get("plan.session").copied().unwrap_or(0) as f64 / 1e6;
    let l = &mut out.layers;
    for name in [
        "statechart.map",
        "core.tool_build",
        "config.engine_new",
        "analysis.lint",
        "perf.analyze",
        "perf.percentile",
        "config.search",
    ] {
        l.insert(layer_name(name), per_op(name));
    }
    l.insert("markov.transient_solves", agg.poisson_solves as f64 / ops);
    l.insert("markov.poisson_terms", agg.terms_per_solve());
    // Availability and the fold run only inside the searches here.
    l.insert(
        "avail.solve_ms",
        agg.stage_ms(&crate::OBS_AVAIL_STAGES) / ops,
    );
    l.insert(
        "avail.states",
        ratio(agg.avail_states as f64, agg.avail_solves as f64),
    );
    l.insert(
        "avail.dense_share",
        ratio(agg.avail_dense as f64, agg.avail_solves as f64),
    );
    l.insert(
        "performability.fold_ms",
        agg.stage_ms(&["performability"]) / ops,
    );
    l.insert(
        "performability.states_evaluated",
        agg.counter("performability.state-evaluations") as f64 / ops,
    );
    l.insert(
        "queueing.mg1_evals",
        agg.counter("perf.mg1.evaluations") as f64 / ops,
    );
    l.insert("config.assess_ms", agg.stage_ms(&["assess"]) / ops);
    l.insert("config.evaluations", evaluations as f64 / ops);
    l.insert(
        "config.cache_hit_ratio",
        ratio(hits as f64, (hits + misses) as f64),
    );
    l.insert(
        "trace.percentile_share",
        ratio(per_op("perf.percentile") * ops, session_ms),
    );
    l.insert(
        "trace.avail_fold_share",
        ratio(
            agg.stage_ms(&crate::OBS_AVAIL_STAGES) + agg.stage_ms(&["performability"]),
            agg.stage_ms(&["assess"]),
        ),
    );
    l.insert("trace.overhead", ratio(session_ms, out.op_ms.iter().sum()));
    // Per-scenario percentile share, so "dominates on ep" is checkable.
    let per_round = scenarios.len() as u64;
    let self_of = self_times_ns(&spans);
    let mut percentile_ns = vec![0u64; scenarios.len()];
    let mut session_ns = vec![0u64; scenarios.len()];
    for (span, own) in spans.iter().zip(self_of) {
        let i = order(span.op / per_round)[(span.op % per_round) as usize];
        match span.name {
            "perf.percentile" => percentile_ns[i] += own,
            "plan.session" => session_ns[i] += span.duration_ns(),
            _ => {}
        }
    }
    let by_scenario: std::collections::BTreeMap<String, f64> = scenarios
        .iter()
        .enumerate()
        .map(|(i, sc)| {
            (
                sc.name.clone(),
                ratio(percentile_ns[i] as f64, session_ns[i] as f64),
            )
        })
        .collect();
    out.extra
        .insert("percentile_share_by_scenario".into(), jv(by_scenario));
    out.spans = spans;
}

/// `perf.percentile` → `perf.percentile_ms`.
pub fn layer_name(span: &str) -> &'static str {
    crate::PER_LAYER
        .iter()
        .map(|(name, _, _)| *name)
        .find(|name| name.strip_suffix("_ms") == Some(span))
        .expect("span maps to a per-layer metric")
}
