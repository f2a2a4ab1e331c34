//! Answer checks. Every op is checked; a wrong answer is counted as
//! failed exactly like an error or a refused request.

use wfms_core::avail::closed_form_unavailability;
use wfms_core::{Assessment, Configuration, ServerTypeRegistry};

/// Relative tolerance on unavailability against the closed form
/// `1 − ∏(1 − q_x^{Y_x})`. Dense LU sits about 4e-9 relative off on
/// enterprise Y(3,3,3,3,3); sparse Gauss–Seidel at its 1e-12 tolerance
/// is closer still.
pub const UNAVAILABILITY_REL_TOL: f64 = 1e-6;

/// Absolute floor of the availability check. The solvers report
/// availability as `Σ π` over operational states, so `1 − A` loses
/// everything below a few hundred ulps of 1.0 (about 1e-13); chains
/// whose unavailability is that small are checked to this floor.
pub const UNAVAILABILITY_ABS_TOL: f64 = 1e-12;

/// Ops attempted and failed, with the first few failure messages.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that errored, were refused, or answered wrongly.
    pub failed: u64,
    /// The first failure messages (capped), for the run's stderr.
    pub messages: Vec<String>,
}

impl Tally {
    /// Records one op: `problems` empty means it passed every check.
    pub fn op(&mut self, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            if self.messages.len() < 20 {
                self.messages.push(problems.join("; "));
            }
        }
    }

    /// Folds another tally into this one.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for m in other.messages {
            if self.messages.len() < 20 {
                self.messages.push(m);
            }
        }
    }

    /// Failed share of attempted ops.
    pub fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Checks a reported availability against the closed form.
pub fn availability(
    registry: &ServerTypeRegistry,
    replicas: &[usize],
    reported: f64,
) -> Result<(), String> {
    let config = Configuration::new(registry, replicas.to_vec()).map_err(|e| e.to_string())?;
    let exact = closed_form_unavailability(registry, &config).map_err(|e| e.to_string())?;
    let got = 1.0 - reported;
    let allowed = UNAVAILABILITY_REL_TOL * exact + UNAVAILABILITY_ABS_TOL;
    if reported.is_finite() && (got - exact).abs() <= allowed {
        Ok(())
    } else {
        Err(format!(
            "{replicas:?}: unavailability {got:e} vs closed form {exact:e} (allowed ±{allowed:e})"
        ))
    }
}

/// Checks an assessment: finite, availability against the closed form,
/// and — when it is a search winner — that it meets its goals.
pub fn assessment(
    registry: &ServerTypeRegistry,
    a: &Assessment,
    winner: bool,
    problems: &mut Vec<String>,
) {
    if let Err(e) = availability(registry, &a.replicas, a.availability) {
        problems.push(e);
    }
    if a.cost != a.replicas.iter().sum::<usize>() {
        problems.push(format!("{:?}: cost {} is not the sum", a.replicas, a.cost));
    }
    if let Some(w) = &a.expected_waiting {
        if w.iter().any(|x| !x.is_finite() || *x < 0.0) {
            problems.push(format!("{:?}: bad expected waits {w:?}", a.replicas));
        }
    }
    if a.degradation.is_some() {
        problems.push(format!("{:?}: degraded evaluation", a.replicas));
    }
    if winner && !a.meets_goals() {
        problems.push(format!("winner {:?} misses its goals", a.replicas));
    }
}

/// Checks that percentiles are positive and ordered.
pub fn percentiles(workflow: &str, p50: f64, p90: f64, p99: f64, problems: &mut Vec<String>) {
    if !(p50 > 0.0 && p50 <= p90 && p90 <= p99 && p99.is_finite()) {
        problems.push(format!(
            "{workflow}: percentiles out of order: p50 {p50} p90 {p90} p99 {p99}"
        ));
    }
}
