//! `whatif`: a cold `AssessmentEngine` per scenario, then `assess` over
//! a seeded list of candidate vectors, each assessed once. One op is one
//! `assess` call; there are no percentiles and no search.
//!
//! Chains run from a few hundred to about 8k states on both sides of the
//! 4,096-state dense/sparse switch of `wfms_avail::select_backend`, with
//! the dense side kept at or below 1,024 states. The `wide` scenario's
//! union of degraded states exceeds the engine's 65,536-entry state
//! cache; the other two stay far below it.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use wfms_core::avail::{
    select_backend, AvailBackend, AvailabilityModel, RepairPolicy, SparseAvailabilityModel,
    StateSpace,
};
use wfms_core::markov::linalg::GaussSeidelOptions;
use wfms_core::markov::SteadyStateMethod;
use wfms_core::perf::SystemLoad;
use wfms_core::performability::{
    evaluate_state, evaluate_with_model, fold_states, DegradedPolicy, PerformabilityError,
};
use wfms_core::statechart::map_chart;
use wfms_core::{
    Assessment, AssessmentEngine, Configuration, ConfigurationTool, SearchOptions,
    ServerTypeRegistry,
};

use crate::rng::Rng;
use crate::scenario::{self, GenClass, Scenario};
use crate::trace::{self_time_by_name, total_time_by_name, Tracer};
use crate::{check, jv, ms, ratio, repeated_setup, run_rounds, ObsAgg, Outcome};

/// The engine's default degraded-state cache capacity.
pub const STATE_CACHE_CAPACITY: usize = 65_536;

/// ep candidate shapes (27–210 states, all dense).
const EP_SHAPES: [[usize; 3]; 8] = [
    [2, 2, 2],
    [3, 2, 2],
    [3, 3, 2],
    [3, 3, 3],
    [4, 3, 3],
    [4, 4, 3],
    [5, 4, 3],
    [6, 5, 4],
];
/// Enterprise candidate shapes on the dense side (243–1,024 states).
/// Only the two largest cost more than any sparse candidate, so the
/// tail percentile (p95 at this run length) falls among the sparse
/// candidates, not on the step to the dense ones. The largest LU takes
/// about a quarter of a second. Y(4,4,3,3,3) (1,600 states, a 20 MB
/// matrix) took about a second, swung by a third from run to run on a
/// shared host, and at a third of a pass's time moved `ops_per_s` with
/// it.
const ENTERPRISE_DENSE: [[usize; 5]; 4] = [
    [2, 2, 2, 2, 2],
    [3, 2, 2, 2, 2],
    [4, 3, 3, 3, 2],
    [3, 3, 3, 3, 3],
];
/// Enterprise candidate shapes on the sparse side (4,200–7,776 states).
const ENTERPRISE_SPARSE: [[usize; 5]; 4] = [
    [6, 5, 4, 4, 3],
    [5, 5, 5, 4, 4],
    [5, 5, 5, 5, 4],
    [5, 5, 5, 5, 5],
];
/// Wide-scenario shapes: two dense (216 and 324 states), the rest
/// sparse (4,608–6,000 states); permuted until the union of degraded
/// states exceeds the state cache.
const WIDE_DENSE: [[usize; 6]; 2] = [[2, 2, 2, 2, 1, 1], [2, 2, 2, 1, 1, 1]];
const WIDE_SPARSE: [[usize; 6]; 7] = [
    [7, 7, 3, 2, 2, 1],
    [7, 6, 4, 2, 2, 1],
    [7, 5, 4, 3, 2, 1],
    [7, 7, 2, 2, 2, 2],
    [7, 4, 4, 4, 2, 1],
    [6, 6, 4, 3, 2, 1],
    [7, 6, 3, 3, 2, 1],
];
/// Candidates per wide sparse shape. Every shape is drawn equally
/// often, so that the seed changes the permutations and the order but
/// not the mix of chain sizes; the union crosses the cache size after
/// about 70 candidates.
const WIDE_PER_SHAPE: usize = 16;

/// The wide scenario's generator class. Its repair time is pinned at an
/// hour: the sparse Gauss–Seidel work depends mostly on the repair
/// rates, and pinning them keeps that work steady from seed to seed.
pub const WIDE_CLASS: GenClass = GenClass {
    k: 6,
    workflows: 2,
    states: (5, 10),
    stiff: false,
    mttr: (60.0, 60.0),
};

/// One scenario with its candidate list.
#[derive(Debug, Clone)]
pub struct Case {
    /// The scenario.
    pub scenario: Scenario,
    /// Candidate replica vectors, in assessment order.
    pub candidates: Vec<Vec<usize>>,
    /// Distinct degraded states `X ≤ Y` over all candidates.
    pub union_states: usize,
}

fn chain(y: &[usize]) -> usize {
    y.iter().map(|v| v + 1).product()
}

fn permuted(rng: &mut Rng, shape: &[usize]) -> Vec<usize> {
    let mut y = shape.to_vec();
    rng.shuffle(&mut y);
    y
}

/// Distinct states `X ≤ Y` over all candidates (mixed radix over the
/// per-type maxima).
pub fn union_states(candidates: &[Vec<usize>]) -> usize {
    let k = candidates.first().map_or(0, Vec::len);
    let radix: Vec<usize> = (0..k)
        .map(|x| candidates.iter().map(|y| y[x]).max().unwrap_or(0) + 1)
        .collect();
    let mut seen = vec![false; radix.iter().product()];
    for y in candidates {
        // Decode each index of Y's own mixed radix into the union's.
        for mut idx in 0..chain(y) {
            let mut at = 0;
            for (x, r) in y.iter().zip(&radix) {
                at = at * r + idx % (x + 1);
                idx /= x + 1;
            }
            seen[at] = true;
        }
    }
    seen.iter().filter(|s| **s).count()
}

/// The cases of one `whatif` run.
pub fn cases(seed: u64) -> Result<Vec<Case>, String> {
    let mut rng = Rng::new(seed, 0x0003_A71F);
    let mut out = Vec::new();

    let ep = scenario::ep();
    let mut ep_candidates: Vec<Vec<usize>> =
        EP_SHAPES.iter().map(|s| permuted(&mut rng, s)).collect();
    rng.shuffle(&mut ep_candidates);
    out.push((ep, ep_candidates));

    let mut enterprise: Vec<Vec<usize>> = ENTERPRISE_DENSE
        .iter()
        .chain(&ENTERPRISE_SPARSE)
        .map(|s| permuted(&mut rng, s))
        .collect();
    rng.shuffle(&mut enterprise);
    out.push((scenario::enterprise(), enterprise));

    let mut wide = scenario::generate(seed, 100, WIDE_CLASS)?;
    wide.name = format!("wide-{}", wide.name);
    let mut candidates: Vec<Vec<usize>> = WIDE_DENSE
        .iter()
        .chain(WIDE_SPARSE.iter().flat_map(|s| [s; WIDE_PER_SHAPE]))
        .map(|s| permuted(&mut rng, s))
        .collect();
    rng.shuffle(&mut candidates);
    if union_states(&candidates) <= STATE_CACHE_CAPACITY {
        return Err(format!(
            "seed {seed}: the wide candidates' union fits the state cache"
        ));
    }
    out.push((wide, candidates));

    let scenarios: Vec<Scenario> = out.iter().map(|(s, _)| s.clone()).collect();
    scenario::lint_all(&scenarios)?;
    Ok(out
        .into_iter()
        .map(|(mut scenario, candidates)| {
            scenario.shape.largest_chain = candidates.iter().map(|y| chain(y)).max().unwrap_or(0);
            let union_states = union_states(&candidates);
            Case {
                scenario,
                candidates,
                union_states,
            }
        })
        .collect())
}

/// A cold engine over a scenario, built from its JSON text.
struct Cold {
    registry: ServerTypeRegistry,
    load: SystemLoad,
    engine: AssessmentEngine,
}

fn build(sc: &Scenario, tr: &mut Tracer) -> Result<Cold, String> {
    let span = tr.open("statechart.map");
    let decoded = sc.decode().and_then(|(registry, mix)| {
        for (spec, _) in &mix {
            map_chart(&spec.chart, spec).map_err(|e| format!("{}: {e}", spec.name))?;
        }
        Ok((registry, mix))
    });
    tr.close(span);
    let (registry, mix) = decoded?;
    let span = tr.open("core.tool_build");
    let mut tool = ConfigurationTool::new(registry.clone());
    let built = mix
        .into_iter()
        .try_for_each(|(spec, rate)| tool.add_workflow(spec, rate));
    tr.close(span);
    built.map_err(|e| e.to_string())?;
    let load = tr
        .time("perf.analyze", || tool.system_load())
        .map_err(|e| e.to_string())?;
    let engine = tr
        .time("config.engine_new", || {
            AssessmentEngine::new(&registry, &load, &sc.goals(), SearchOptions::default())
        })
        .map_err(|e| e.to_string())?;
    Ok(Cold {
        registry,
        load,
        engine,
    })
}

fn assess_op(cold: &Cold, y: &[usize], tr: &mut Tracer) -> (Result<Assessment, String>, f64) {
    let t = Instant::now();
    let span = tr.open("whatif.op");
    let result = Configuration::new(&cold.registry, y.to_vec())
        .map_err(|e| e.to_string())
        .and_then(|config| {
            tr.time("config.assess", || cold.engine.assess(&config))
                .map_err(|e| e.to_string())
        });
    tr.close(span);
    (result, ms(t.elapsed()))
}

fn check_op(cold: &Cold, y: &[usize], result: &Result<Assessment, String>) -> Vec<String> {
    let mut problems = Vec::new();
    match result {
        Ok(a) => {
            if a.replicas != y {
                problems.push(format!("assessed {:?} for {y:?}", a.replicas));
            }
            check::assessment(&cold.registry, a, false, &mut problems);
        }
        Err(e) => problems.push(format!("{y:?}: {e}")),
    }
    problems
}

/// Cold builds per case per pass, in case order (ep, enterprise, wide);
/// the last one's engine is used. Enterprise gets more than the other
/// two together, so the median rebuild is an enterprise build (fixed
/// inputs) on every seed.
const BUILDS_PER_PASS: [usize; 3] = [2, 5, 2];
/// Warm re-assessments of each case's largest candidate per pass, in
/// case order; weighted like [`BUILDS_PER_PASS`], so the median hit is
/// an enterprise hit on every seed.
const HITS_PER_PASS: [usize; 3] = [2, 5, 2];

/// One pass: every case gets a cold engine (built [`BUILDS_PER_PASS`]
/// times, each a `rebuild_ms` sample) and every candidate one `assess`;
/// then each case's largest candidate is assessed [`HITS_PER_PASS`] more
/// times on the warm engine (each a hit, and an op), and must come back
/// bit-identical. Returns the engines' cache hits and misses.
fn pass(
    cases: &[Case],
    tr: &mut Tracer,
    out: &mut Outcome,
    by_chain: &mut BTreeMap<usize, Vec<f64>>,
    mut after_op: impl FnMut(&mut Tracer, &Cold, &[usize], u64),
) -> (u64, u64) {
    let (mut hits, mut misses) = (0, 0);
    for (c, case) in cases.iter().enumerate() {
        let mut cold = None;
        for _ in 0..BUILDS_PER_PASS[c] {
            let t = Instant::now();
            cold = Some(build(&case.scenario, tr));
            out.rebuild_ms.push(ms(t.elapsed()));
        }
        let cold = match cold.expect("at least one build") {
            Ok(c) => c,
            Err(e) => {
                out.tally.op(vec![format!("{}: {e}", case.scenario.name)]);
                continue;
            }
        };
        let largest = (0..case.candidates.len())
            .max_by_key(|&i| (chain(&case.candidates[i]), std::cmp::Reverse(i)))
            .unwrap_or(0);
        let mut first = None;
        for (i, y) in case.candidates.iter().enumerate() {
            let op = out.tally.attempted;
            tr.set_op(op);
            let (result, latency) = assess_op(&cold, y, tr);
            out.op_ms.push(latency);
            by_chain.entry(chain(y)).or_default().push(latency);
            out.tally.op(check_op(&cold, y, &result));
            after_op(tr, &cold, y, op);
            if i == largest {
                first = Some(result);
            }
        }
        let y = &case.candidates[largest];
        for _ in 0..HITS_PER_PASS[c] {
            tr.set_op(out.tally.attempted);
            let (again, latency) = assess_op(&cold, y, tr);
            out.op_ms.push(latency);
            out.hit_ms.push(latency);
            let mut problems = check_op(&cold, y, &again);
            if first.as_ref() != Some(&again) {
                problems.push(format!("{y:?}: warm re-assessment differs from the first"));
            }
            out.tally.op(problems);
        }
        let stats = cold.engine.cache_stats();
        hits += stats.hits;
        misses += stats.misses;
    }
    (hits, misses)
}

/// The availability solve and the fold for `y` as standalone calls with
/// the engine's inputs: `select_backend`, then the chosen model's build
/// and steady state, then the performability fold over its
/// distribution. Returns the states and whether the dense side ran.
fn standalone(cold: &Cold, y: &[usize], tr: &mut Tracer) -> Result<(usize, bool), String> {
    let config = Configuration::new(&cold.registry, y.to_vec()).map_err(|e| e.to_string())?;
    let space = StateSpace::new(&config);
    let n = space.len();
    let backend = select_backend(AvailBackend::Auto, RepairPolicy::Independent, n, 0.0);
    let accept = |r: Result<_, PerformabilityError>| match r {
        Ok(_) | Err(PerformabilityError::NoServingStates) => Ok(()),
        Err(e) => Err(e.to_string()),
    };
    let (registry, load) = (&cold.registry, &cold.load);
    if backend == AvailBackend::Dense {
        let span = tr.open("avail.solve");
        let solved = AvailabilityModel::new(registry, &config).and_then(|model| {
            let pi = model.steady_state(SteadyStateMethod::Lu)?;
            model.availability(&pi)?;
            Ok((model, pi))
        });
        tr.close(span);
        let (model, pi) = solved.map_err(|e| e.to_string())?;
        tr.time("performability.fold", || {
            accept(evaluate_with_model(
                &model,
                &pi,
                registry,
                load,
                DegradedPolicy::Conditional,
            ))
        })?;
        Ok((n, true))
    } else {
        let span = tr.open("avail.solve");
        let solved = SparseAvailabilityModel::new(registry, &config, RepairPolicy::Independent)
            .and_then(|model| {
                let pi = model.steady_state(GaussSeidelOptions {
                    tolerance: SearchOptions::default().solver_tolerance,
                    max_iterations: SearchOptions::default().solver_max_iterations,
                    relaxation: 1.0,
                })?;
                model.availability(&pi)?;
                Ok(pi)
            });
        tr.close(span);
        let pi = solved.map_err(|e| e.to_string())?;
        tr.time("performability.fold", || {
            accept(fold_states(
                space.iter().map(|(idx, x)| (x, pi[idx])),
                registry.len(),
                y,
                DegradedPolicy::Conditional,
                |state| evaluate_state(load, registry, state).map(Arc::new),
            ))
        })?;
        Ok((n, false))
    }
}

/// Runs `whatif` for `seconds`; traced when `traced`.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    let (cases, setup_s) = repeated_setup(9, || cases(seed))?;
    let mut out = Outcome {
        setup_s,
        ..Outcome::default()
    };
    // A traced run measures untraced for a third of the time, then
    // replays the same passes with tracing and the standalone calls
    // (about twice the work).
    let budget = if traced { seconds / 3.0 } else { seconds };
    let cpu0 = crate::cpu_seconds();
    let t0 = Instant::now();
    let mut untraced = Tracer::new(false, t0);
    let mut hit_ratio = (0, 0);
    let mut by_chain = BTreeMap::new();
    let rounds = run_rounds(budget, |_| {
        let (h, m) = pass(
            &cases,
            &mut untraced,
            &mut out,
            &mut by_chain,
            |_, _, _, _| {},
        );
        hit_ratio = (hit_ratio.0 + h, hit_ratio.1 + m);
        Ok(())
    })?;
    out.timed_s = t0.elapsed().as_secs_f64();
    out.cpu_s = crate::cpu_seconds() - cpu0;
    for case in &cases {
        out.scenarios
            .push((case.scenario.name.clone(), case.scenario.shape.clone()));
    }
    out.extra.insert("rounds".into(), jv(rounds));
    let chain_p50: BTreeMap<String, f64> = by_chain
        .iter()
        .map(|(n, v)| (n.to_string(), crate::stats::median(v)))
        .collect();
    out.extra
        .insert("assess_p50_ms_by_chain".into(), jv(chain_p50));
    out.extra.insert(
        "union_states".into(),
        jv(cases
            .iter()
            .map(|c| (c.scenario.name.clone(), c.union_states))
            .collect::<BTreeMap<_, _>>()),
    );
    out.extra.insert(
        "chains".into(),
        jv(cases
            .iter()
            .map(|c| {
                (
                    c.scenario.name.clone(),
                    c.candidates.iter().map(|y| chain(y)).collect::<Vec<_>>(),
                )
            })
            .collect::<BTreeMap<_, _>>()),
    );
    if traced {
        traced_replay(&cases, rounds, &mut out);
    }
    Ok(out)
}

fn traced_replay(cases: &[Case], rounds: u64, out: &mut Outcome) {
    let untraced_ms: f64 = out.op_ms.iter().sum();
    let mut replay = Outcome::default();
    let mut tr = Tracer::new(true, Instant::now());
    let mut agg = ObsAgg::default();
    let (mut solves, mut dense, mut states) = (0u64, 0u64, 0u64);
    let mut standalone_problems = Vec::new();
    let mut hit_ratio = (0, 0);
    wfms_obs::global().reset();
    wfms_obs::enable();
    for _ in 0..rounds {
        let (h, m) = pass(
            cases,
            &mut tr,
            &mut replay,
            &mut BTreeMap::new(),
            |tr, cold, y, op| {
                agg.drain_global();
                // Standalone calls must not feed the library's counters.
                wfms_obs::disable();
                tr.set_op(op);
                match standalone(cold, y, tr) {
                    Ok((n, is_dense)) => {
                        solves += 1;
                        states += n as u64;
                        dense += u64::from(is_dense);
                    }
                    Err(e) => standalone_problems.push(format!("{y:?}: {e}")),
                }
                wfms_obs::enable();
            },
        );
        hit_ratio = (hit_ratio.0 + h, hit_ratio.1 + m);
    }
    agg.drain_global();
    wfms_obs::disable();
    out.tally.merge(replay.tally);
    for p in standalone_problems {
        out.tally.op(vec![format!("standalone: {p}")]);
    }
    let spans = tr.take();
    let self_ns = self_time_by_name(&spans);
    let total_ns = total_time_by_name(&spans);
    let ops = replay.op_ms.len().max(1) as f64;
    let ms_of =
        |m: &BTreeMap<&str, u64>, name: &str| m.get(name).copied().unwrap_or(0) as f64 / 1e6;
    let l = &mut out.layers;
    for name in [
        "statechart.map",
        "core.tool_build",
        "config.engine_new",
        "perf.analyze",
        "config.assess",
    ] {
        l.insert(crate::plan::layer_name(name), ms_of(&self_ns, name) / ops);
    }
    l.insert("avail.solve_ms", ms_of(&total_ns, "avail.solve") / ops);
    l.insert(
        "performability.fold_ms",
        ms_of(&total_ns, "performability.fold") / ops,
    );
    l.insert("avail.states", ratio(states as f64, solves as f64));
    l.insert("avail.dense_share", ratio(dense as f64, solves as f64));
    l.insert(
        "performability.states_evaluated",
        agg.counter("performability.state-evaluations") as f64 / ops,
    );
    l.insert(
        "queueing.mg1_evals",
        agg.counter("perf.mg1.evaluations") as f64 / ops,
    );
    l.insert("markov.transient_solves", agg.poisson_solves as f64 / ops);
    l.insert("markov.poisson_terms", agg.terms_per_solve());
    l.insert(
        "perf.percentile_ms",
        agg.stage_ms(&crate::OBS_PERCENTILE_STAGES) / ops,
    );
    l.insert(
        "config.cache_hit_ratio",
        ratio(hit_ratio.0 as f64, (hit_ratio.0 + hit_ratio.1) as f64),
    );
    let op_ms = ms_of(&total_ns, "whatif.op");
    l.insert(
        "trace.percentile_share",
        ratio(agg.stage_ms(&crate::OBS_PERCENTILE_STAGES), op_ms),
    );
    l.insert(
        "trace.avail_fold_share",
        ratio(
            ms_of(&total_ns, "avail.solve") + ms_of(&total_ns, "performability.fold"),
            ms_of(&total_ns, "config.assess"),
        ),
    );
    l.insert("trace.overhead", ratio(op_ms, untraced_ms));
    out.spans = spans;
}
