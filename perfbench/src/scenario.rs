//! Benchmark scenarios: the committed `examples/specs/{ep,enterprise}`
//! plus scenarios from the seeded generator below.
//!
//! A scenario is carried as registry/workload JSON text, because every
//! user path (`wfms recommend`, `wfms serve`) starts from that text.

use std::sync::{Mutex, PoisonError};

use serde::Serialize;

use wfms_core::analysis::{analyze, GoalTargets, SystemUnderAnalysis};
use wfms_core::perf::{analyze_workflow, AnalysisOptions, TurnaroundDistribution};
use wfms_core::statechart::{
    ActivityKind, ActivitySpec, ChartBuilder, EcaRule, ServerType, ServerTypeKind,
};
use wfms_core::{
    Configuration, ConfigurationTool, Goals, SearchOptions, ServerTypeRegistry, WorkflowSpec,
};
use wfms_serve::{WorkloadEntry, WorkloadFile};

use crate::rng::Rng;

const EP_REGISTRY: &str = include_str!("../../examples/specs/ep/registry.json");
const EP_WORKLOAD: &str = include_str!("../../examples/specs/ep/workload.json");
const ENTERPRISE_REGISTRY: &str = include_str!("../../examples/specs/enterprise/registry.json");
const ENTERPRISE_WORKLOAD: &str = include_str!("../../examples/specs/enterprise/workload.json");

/// The goals the committed scenarios are planned against (the values of
/// the repository's README, CI and tests).
pub const COMMITTED_MAX_WAIT: f64 = 0.05;
/// See [`COMMITTED_MAX_WAIT`].
pub const COMMITTED_MIN_AVAILABILITY: f64 = 0.9999;

/// The scenario's shape, carried on every output record.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Shape {
    /// Server types.
    pub k: usize,
    /// Chart states per workflow type (top level).
    pub states_per_workflow: Vec<usize>,
    /// Largest availability chain (`∏(Y_x+1)` states) the workload
    /// assesses by construction; filled in by the workload.
    pub largest_chain: usize,
    /// Wide spread of activity durations (many Poisson terms).
    pub stiff: bool,
}

/// One scenario: inputs as JSON text plus the goals it is planned
/// against.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Short name, e.g. `ep` or `gen-plan-2`.
    pub name: String,
    /// Registry document.
    pub registry_json: String,
    /// Workload document (`{"workflows": [...]}`).
    pub workload_json: String,
    /// Waiting-time goal (minutes).
    pub max_wait: f64,
    /// Availability goal.
    pub min_availability: f64,
    /// The greedy winner the committed goals must produce, if pinned.
    pub expected_winner: Option<Vec<usize>>,
    /// Shape record.
    pub shape: Shape,
}

impl Scenario {
    /// The goals as the engine takes them.
    pub fn goals(&self) -> Goals {
        Goals::new(self.max_wait, self.min_availability).expect("scenario goals are valid")
    }

    /// The goals as the linter takes them.
    pub fn goal_targets(&self) -> GoalTargets {
        GoalTargets {
            max_waiting_time: Some(self.max_wait),
            min_availability: Some(self.min_availability),
        }
    }

    /// Decodes the registry and workload documents.
    pub fn decode(&self) -> Result<(ServerTypeRegistry, Vec<(WorkflowSpec, f64)>), String> {
        decode(&self.registry_json, &self.workload_json)
    }
}

/// Decodes registry/workload JSON text into the tool's input types.
pub fn decode(
    registry_json: &str,
    workload_json: &str,
) -> Result<(ServerTypeRegistry, Vec<(WorkflowSpec, f64)>), String> {
    let registry: ServerTypeRegistry =
        serde_json::from_str(registry_json).map_err(|e| format!("registry JSON: {e}"))?;
    let workload: WorkloadFile =
        serde_json::from_str(workload_json).map_err(|e| format!("workload JSON: {e}"))?;
    Ok((
        registry,
        workload
            .workflows
            .into_iter()
            .map(|e| (e.spec, e.arrival_rate))
            .collect(),
    ))
}

fn shape_of(registry: &ServerTypeRegistry, mix: &[(WorkflowSpec, f64)], stiff: bool) -> Shape {
    Shape {
        k: registry.len(),
        states_per_workflow: mix.iter().map(|(s, _)| s.chart.states.len()).collect(),
        largest_chain: 0,
        stiff,
    }
}

fn committed(name: &str, registry: &str, workload: &str, winner: Vec<usize>) -> Scenario {
    let (reg, mix) = decode(registry, workload).expect("committed specs decode");
    Scenario {
        name: name.to_string(),
        registry_json: registry.to_string(),
        workload_json: workload.to_string(),
        max_wait: COMMITTED_MAX_WAIT,
        min_availability: COMMITTED_MIN_AVAILABILITY,
        expected_winner: Some(winner),
        shape: shape_of(&reg, &mix, true),
    }
}

/// The committed electronic-purchase scenario (3 server types).
pub fn ep() -> Scenario {
    committed("ep", EP_REGISTRY, EP_WORKLOAD, vec![2, 2, 2])
}

/// The committed enterprise scenario (5 server types, 3 workflows).
pub fn enterprise() -> Scenario {
    committed(
        "enterprise",
        ENTERPRISE_REGISTRY,
        ENTERPRISE_WORKLOAD,
        vec![2, 2, 2, 2, 2],
    )
}

/// Poisson terms computing a stiff workflow's p50, p90 and p99 takes
/// (ep takes about 17 solves of 8.5k terms).
pub const STIFF_TERMS: f64 = 100_000.0;

/// What the generator should build; the seed picks everything else.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GenClass {
    /// Server types (3–6).
    pub k: usize,
    /// Workflow types (1–4).
    pub workflows: usize,
    /// Chart states per workflow, inclusive range within 4–15.
    pub states: (usize, usize),
    /// Wide duration spread (ep-like) instead of a flat one.
    pub stiff: bool,
    /// Mean time to repair range in minutes, within [`MTTR_RANGE`].
    pub mttr: (f64, f64),
}

/// Mean time to failure range in minutes: a day to a month.
pub const MTTF_RANGE: (f64, f64) = (1440.0, 43_200.0);
/// Mean time to repair range in minutes: minutes to hours.
pub const MTTR_RANGE: (f64, f64) = (5.0, 240.0);

/// Builds one seeded scenario of `class`. `index` separates scenarios
/// generated from the same seed. The same `(seed, index, class)` gives
/// byte-identical JSON.
///
/// * server types: one communication server, one or two workflow
///   engines, the rest application servers; MTTF from a day to a month,
///   MTTR from minutes to hours;
/// * workflows: an initial state, activity states in sequence with
///   forward branches and loop-backs, a final state; stiff classes pin
///   one activity at 1000 minutes and one fast enough that the
///   percentiles take about [`STIFF_TERMS`] Poisson terms;
/// * arrival rates: the busiest server type runs at a utilisation of
///   0.3–0.85 on the minimal stable configuration (all ones);
/// * goals: 1.25 × the worst expected wait and 1.5 × the unavailability
///   of the all-twos configuration, so winners stay small.
///
/// # Errors
/// A message when the generated scenario does not lint clean or cannot
/// be assessed — the benchmark then fails; it never skips a scenario.
pub fn generate(seed: u64, index: u64, class: GenClass) -> Result<Scenario, String> {
    assert!((3..=6).contains(&class.k), "3 to 6 server types");
    assert!((1..=4).contains(&class.workflows), "1 to 4 workflow types");
    assert!(4 <= class.states.0 && class.states.0 <= class.states.1 && class.states.1 <= 15);
    assert!(
        MTTR_RANGE.0 <= class.mttr.0
            && class.mttr.0 <= class.mttr.1
            && class.mttr.1 <= MTTR_RANGE.1
    );
    let mut rng = Rng::new(seed, 0x5CE4_0000 + index);
    let k = class.k;
    let engines = if k >= 5 { 2 } else { 1 };

    let mut registry = ServerTypeRegistry::new();
    for x in 0..k {
        let (name, kind) = match x {
            0 => ("orb".to_string(), ServerTypeKind::Communication),
            x if x <= engines => (format!("engine-{x}"), ServerTypeKind::WorkflowEngine),
            x => (
                format!("app-{}", x - engines),
                ServerTypeKind::ApplicationServer,
            ),
        };
        let mttf = rng.log_uniform(MTTF_RANGE.0, MTTF_RANGE.1);
        let mttr = if class.mttr.0 < class.mttr.1 {
            rng.log_uniform(class.mttr.0, class.mttr.1)
        } else {
            class.mttr.0
        };
        let service = rng.uniform(0.0008, 0.004);
        registry
            .register(ServerType {
                name,
                kind,
                failure_rate: 1.0 / mttf,
                repair_rate: 1.0 / mttr,
                service_time_mean: service,
                service_time_second_moment: 2.0 * service * service,
            })
            .map_err(|e| format!("generated registry: {e}"))?;
    }

    let mut specs = Vec::with_capacity(class.workflows);
    let mut fast = Vec::with_capacity(class.workflows);
    for t in 0..class.workflows {
        let (spec, fast_activity) = workflow(&mut rng, t, k, engines, class)?;
        specs.push(spec);
        fast.push(fast_activity);
    }

    // Arrival rates: per-instance requests from the workflow analysis,
    // scaled so the busiest type sits at the target utilisation.
    let mut shares: Vec<f64> = (0..specs.len()).map(|_| rng.uniform(0.5, 1.5)).collect();
    let total: f64 = shares.iter().sum();
    shares.iter_mut().for_each(|s| *s /= total);
    let mut demand = vec![0.0; k];
    for ((spec, share), fast) in specs.iter_mut().zip(&shares).zip(&fast) {
        let analysis = analyze_workflow(spec, &registry, &AnalysisOptions::default())
            .map_err(|e| format!("generated workflow {}: {e}", spec.name))?;
        for (x, (_, st)) in registry.iter().enumerate() {
            demand[x] += share * analysis.expected_requests[x] * st.service_time_mean;
        }
        if let Some(name) = fast {
            pin_poisson_terms(spec, name, &registry)?;
        }
    }
    let utilisation = rng.uniform(0.3, 0.85);
    let peak = demand.iter().copied().fold(0.0, f64::max);
    let scale = utilisation / peak;
    let mix: Vec<(WorkflowSpec, f64)> = specs
        .into_iter()
        .zip(&shares)
        .map(|(spec, share)| (spec, scale * share))
        .collect();

    // Goals calibrated on the all-twos configuration.
    let mut tool = ConfigurationTool::new(registry.clone());
    for (spec, rate) in &mix {
        tool.add_workflow(spec.clone(), *rate)
            .map_err(|e| format!("generated scenario: {e}"))?;
    }
    let probe = Goals::availability_only(0.5).expect("probe goal is valid");
    let twos = Configuration::uniform(&registry, 2).expect("uniform configuration");
    let assessed = tool
        .engine(&probe, SearchOptions::default())
        .and_then(|engine| engine.assess(&twos))
        .map_err(|e| format!("generated scenario calibration: {e}"))?;
    let w2 = assessed
        .max_expected_waiting
        .ok_or("generated scenario saturates at all twos")?;
    let name = format!(
        "gen{index}-k{k}-{}",
        if class.stiff { "stiff" } else { "flat" }
    );
    let registry_json = serde_json::to_string_pretty(&registry).map_err(|e| e.to_string())?;
    let workload = WorkloadFile {
        workflows: mix
            .iter()
            .map(|(spec, rate)| WorkloadEntry {
                arrival_rate: *rate,
                spec: spec.clone(),
            })
            .collect(),
    };
    let workload_json = serde_json::to_string_pretty(&workload).map_err(|e| e.to_string())?;
    let scenario = Scenario {
        name,
        registry_json,
        workload_json,
        max_wait: 1.25 * w2,
        min_availability: 1.0 - 1.5 * (1.0 - assessed.availability),
        expected_winner: None,
        shape: shape_of(&registry, &mix, class.stiff),
    };
    lint_all(std::slice::from_ref(&scenario))?;
    Ok(scenario)
}

/// Fails unless every scenario lints with 0 errors.
pub fn lint_all(scenarios: &[Scenario]) -> Result<(), String> {
    for s in scenarios {
        let errors = lint_errors(s)?;
        if errors > 0 {
            return Err(format!("scenario {} has {errors} lint error(s)", s.name));
        }
    }
    Ok(())
}

/// Lint error count of a scenario, exactly as `wfms lint` computes it
/// (with the goals and the default search budget).
pub fn lint_errors(scenario: &Scenario) -> Result<usize, String> {
    let (registry, mix) = scenario.decode()?;
    let goals = scenario.goal_targets();
    let findings = analyze(&SystemUnderAnalysis {
        registry: &registry,
        workload: &mix,
        replicas: None,
        goals: Some(&goals),
        max_total_servers: Some(SearchOptions::default().max_total_servers),
    });
    Ok(findings.error_count())
}

/// Sets the duration of the fast activity of a stiff workflow so that
/// computing its p50, p90 and p99 turnaround takes [`STIFF_TERMS`]
/// Poisson terms in all. Uniformization work grows linearly with the
/// fastest rate, so one rescaling lands within a few percent; the
/// structure then no longer sets the percentile work, which keeps it
/// steady from seed to seed. The fast activity stays the fastest.
fn pin_poisson_terms(
    spec: &mut WorkflowSpec,
    fast: &str,
    registry: &ServerTypeRegistry,
) -> Result<(), String> {
    let terms = percentile_terms(spec, registry)?;
    let fastest_other = spec
        .activities
        .values()
        .filter(|a| a.name != fast)
        .map(|a| a.mean_duration)
        .fold(f64::INFINITY, f64::min);
    if let Some(a) = spec.activities.get_mut(fast) {
        a.mean_duration = (a.mean_duration * terms / STIFF_TERMS).min(0.5 * fastest_other);
    }
    Ok(())
}

/// Poisson terms the p50, p90 and p99 of `spec` take, as the
/// `markov.poisson.terms` histogram of `wfms-obs` counts them. Runs only
/// during scenario generation, before anything is measured.
fn percentile_terms(spec: &WorkflowSpec, registry: &ServerTypeRegistry) -> Result<f64, String> {
    // The recorder is process-global: one generator at a time uses it.
    static RECORDER: Mutex<()> = Mutex::new(());
    let analysis =
        analyze_workflow(spec, registry, &AnalysisOptions::default()).map_err(|e| e.to_string())?;
    let _guard = RECORDER.lock().unwrap_or_else(PoisonError::into_inner);
    let recorder = wfms_obs::global();
    recorder.reset();
    wfms_obs::enable();
    let computed = TurnaroundDistribution::new(&analysis, 1e-9).and_then(|dist| {
        for q in [0.5, 0.9, 0.99] {
            dist.percentile(q)?;
        }
        Ok(())
    });
    wfms_obs::disable();
    let snapshot = recorder.take();
    computed.map_err(|e| e.to_string())?;
    match snapshot.histograms.get("markov.poisson.terms") {
        Some(h) if h.sum > 0 => Ok(h.sum as f64),
        _ => Err(format!("{}: no Poisson terms recorded", spec.name)),
    }
}

/// One generated workflow type with `class.states` chart states, and
/// the name of its pinned fast activity (stiff classes).
fn workflow(
    rng: &mut Rng,
    t: usize,
    k: usize,
    engines: usize,
    class: GenClass,
) -> Result<(WorkflowSpec, Option<String>), String> {
    let name = format!("W{t}");
    let n = rng.range(class.states.0, class.states.1);
    let activities = n - 2;
    let state = |i: usize| match i {
        0 => format!("{name}_INIT"),
        i if i == n - 1 => format!("{name}_EXIT"),
        i => format!("{name}_S{i}"),
    };
    let activity = |i: usize| format!("{name}_A{i}");
    let engine = 1 + t % engines;
    let (fast, slow) = if class.stiff && activities >= 2 {
        let fast = rng.range(1, activities);
        let mut slow = rng.range(1, activities - 1);
        if slow >= fast {
            slow += 1;
        }
        (Some(fast), Some(slow))
    } else {
        (None, None)
    };

    let mut builder = ChartBuilder::new(name.clone()).initial(state(0));
    for i in 1..n - 1 {
        builder = builder.activity_state(state(i), activity(i));
    }
    builder =
        builder
            .final_state(state(n - 1))
            .transition(state(0), state(1), 1.0, EcaRule::default());
    let mut specs = Vec::with_capacity(activities);
    for i in 1..n - 1 {
        // Probabilities in hundredths, so they sum to one exactly.
        let loop_back = if i > 1 && rng.chance(0.35) {
            rng.range(5, 25)
        } else {
            0
        };
        let branch = if i + 2 < n && rng.chance(0.4) {
            rng.range(10, 30)
        } else {
            0
        };
        let main = 100 - loop_back - branch;
        let done = EcaRule::on_done(&activity(i));
        builder = builder.transition(state(i), state(i + 1), main as f64 / 100.0, done);
        if branch > 0 {
            let to = rng.range(i + 2, n - 1);
            builder = builder.transition(
                state(i),
                state(to),
                branch as f64 / 100.0,
                EcaRule::default(),
            );
        }
        if loop_back > 0 {
            let to = rng.range(1, i - 1);
            builder = builder.transition(
                state(i),
                state(to),
                loop_back as f64 / 100.0,
                EcaRule::default(),
            );
        }

        let automated = rng.chance(0.6);
        let duration = if Some(i) == fast {
            1.0
        } else if Some(i) == slow {
            1000.0
        } else if class.stiff {
            rng.log_uniform(10.0, 1000.0)
        } else {
            rng.uniform(5.0, 20.0)
        };
        let mut load = vec![0.0; k];
        load[0] = rng.uniform(1.0, 2.0);
        load[engine] = rng.uniform(2.0, 3.0);
        if automated {
            let app = rng.range(engines + 1, k - 1);
            load[app] = rng.uniform(1.0, 3.0);
        }
        let kind = if automated {
            ActivityKind::Automated
        } else {
            ActivityKind::Interactive
        };
        specs.push(ActivitySpec::new(activity(i), kind, duration, load));
    }
    let chart = builder
        .build()
        .map_err(|e| format!("generated chart {name}: {e}"))?;
    let fast = fast.map(activity);
    Ok((WorkflowSpec::new(name, chart, specs), fast))
}
