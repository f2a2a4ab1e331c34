//! Product-form availability solver for independent repair (Sec. 5).
//!
//! Under [`RepairPolicy::Independent`] the availability CTMC is a
//! *product* of per-type reversible birth–death chains: the stationary
//! probability of a system state `X` factorizes into
//!
//! ```text
//! π(X) = Π_x  m_x[X_x]
//! ```
//!
//! where `m_x` is the truncated birth–death marginal of type `x` (see
//! [`BirthDeathBlock::marginal_distribution`]). [`ProductFormModel`]
//! exploits that: it computes the `k` marginals in closed form —
//! `O(Σ_x Y_x)` work — instead of assembling and solving the
//! `Π_x (Y_x + 1)`-state generator, and answers
//!
//! * the exact WFMS availability `Π_x (1 − m_x[0])` (the closed form of
//!   [`crate::model::closed_form_unavailability`], reached through the
//!   same marginals the state probabilities use),
//! * the probability of any individual system state, and
//! * a lazy best-first enumeration of system states in **descending
//!   `π` order** ([`ProductFormModel::enumerate_descending`]) — the
//!   primitive behind ε-truncated performability evaluation, which
//!   visits only the handful of near-fully-up states carrying almost
//!   all the mass.
//!
//! # Enumeration order (proof sketch)
//!
//! Sort each marginal descending into `v_x[0] ≥ v_x[1] ≥ … ≥ 0` and
//! identify a state with its *rank vector* `r` (`π = Π_x v_x[r_x]`).
//! Raising any single rank multiplies the score by a factor ≤ 1, so
//! scores are monotone non-increasing along the child relation
//! `r → r + e_x`. Give every state `r ≠ 0` one *canonical parent*
//! `r − e_j`, where `j` is the last coordinate with `r_j > 0`; the
//! canonical children of `r` are then exactly the `r + e_x` with `x`
//! at or after `r`'s last nonzero coordinate, and every state is reached
//! from the root `r = 0` along exactly one chain of canonical parents.
//! The enumerator keeps a max-heap seeded with the root and, on popping
//! `r`, pushes its canonical children — so no state is pushed twice and
//! no visited set is needed. By induction every not-yet-emitted state
//! has a canonical ancestor in the heap, and that ancestor's score is
//! an upper bound on the state's — hence the heap maximum is the global
//! maximum of all remaining states, and states are emitted in
//! descending `π` order.
//!
//! The single-repairman policy does **not** factorize per replica;
//! [`ProductFormModel::from_blocks`] rejects such blocks, and
//! [`select_backend`] routes them to the sparse Gauss–Seidel model of
//! the flat chain instead.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::Arc;

use wfms_statechart::{Configuration, ServerTypeId, ServerTypeRegistry};

use crate::blocks::BirthDeathBlock;
use crate::error::AvailError;
use crate::model::{RepairPolicy, DEFAULT_STATE_CAP};
use crate::sparse_model::SPARSE_STATE_CAP;
use crate::state_space::StateSpace;

/// Which steady-state solver evaluates the availability chain. The
/// assessment engine always uses the product form; the flat-chain
/// backends ([`crate::AvailabilityModel`], [`crate::SparseAvailabilityModel`])
/// remain as the reference oracle for tests and benchmarks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AvailBackend {
    /// Pick automatically: the product form when the policy factorizes
    /// and the caller tolerates truncation (`ε > 0`), else dense LU up
    /// to [`DEFAULT_STATE_CAP`] states, else sparse Gauss–Seidel.
    #[default]
    Auto,
    /// Dense generator + LU solve.
    Dense,
    /// Transposed-CSR generator + sparse Gauss–Seidel sweeps.
    Sparse,
    /// Closed-form per-type marginals; exact availability and lazy
    /// descending-`π` state enumeration. Independent repair only.
    Product,
}

/// Resolves a requested backend to a concrete one for a chain with
/// `states` system states under `policy`, given the caller's truncation
/// tolerance `epsilon`.
///
/// `Auto` prefers the product form whenever the policy factorizes and
/// the caller opted into truncation (`ε > 0`); with `ε = 0` it keeps
/// the dense path (bit-identical results) while it fits under
/// [`DEFAULT_STATE_CAP`], falling back to the sparse model beyond.
/// An explicit `Product` request under a non-factorizing policy
/// degrades to `Sparse` — the documented single-repairman fallback.
pub fn select_backend(
    requested: AvailBackend,
    policy: RepairPolicy,
    states: usize,
    epsilon: f64,
) -> AvailBackend {
    let resolved = match requested {
        AvailBackend::Auto => {
            if policy == RepairPolicy::Independent && epsilon > 0.0 {
                AvailBackend::Product
            } else if states > DEFAULT_STATE_CAP {
                AvailBackend::Sparse
            } else {
                AvailBackend::Dense
            }
        }
        explicit => explicit,
    };
    if resolved == AvailBackend::Product && policy != RepairPolicy::Independent {
        AvailBackend::Sparse
    } else {
        resolved
    }
}

/// Product-form availability model: the `k` closed-form per-type
/// marginals of an independent-repair chain. See the module docs.
#[derive(Debug, Clone)]
pub struct ProductFormModel {
    config: Configuration,
    space: StateSpace,
    /// `marginals[x][u]` = P(exactly `u` of the `Y_x` replicas up).
    marginals: Vec<Vec<f64>>,
}

impl ProductFormModel {
    /// Builds the model for `config`, tabulating fresh independent-repair
    /// blocks per type.
    ///
    /// # Errors
    /// [`AvailError::Arch`] on a registry/configuration mismatch.
    pub fn new(registry: &ServerTypeRegistry, config: &Configuration) -> Result<Self, AvailError> {
        if config.k() != registry.len() {
            return Err(AvailError::Arch(
                wfms_statechart::ArchError::LengthMismatch {
                    what: "configuration",
                    expected: registry.len(),
                    actual: config.k(),
                },
            ));
        }
        let mut blocks = Vec::with_capacity(config.k());
        for (j, &y) in config.as_slice().iter().enumerate() {
            let st = registry.get(ServerTypeId(j))?;
            blocks.push(Arc::new(BirthDeathBlock::for_type(
                st,
                y,
                RepairPolicy::Independent,
            )));
        }
        Self::from_blocks(config, &blocks)
    }

    /// Builds the model from pre-tabulated blocks (the assessment
    /// engine's path: its block cache means only new `(type, Y_x)` pairs
    /// cost a tabulation).
    ///
    /// # Errors
    /// * [`AvailError::UnsupportedPolicy`] when any block encodes a
    ///   non-independent repair ladder — the chain then has no product
    ///   form (use the sparse model).
    /// * [`AvailError::BlockMismatch`] / [`AvailError::Arch`] when the
    ///   blocks do not match `config`.
    pub fn from_blocks(
        config: &Configuration,
        blocks: &[Arc<BirthDeathBlock>],
    ) -> Result<Self, AvailError> {
        let space = StateSpace::new(config);
        let k = space.k();
        if blocks.len() != k {
            return Err(AvailError::Arch(
                wfms_statechart::ArchError::LengthMismatch {
                    what: "birth-death blocks",
                    expected: k,
                    actual: blocks.len(),
                },
            ));
        }
        for (j, block) in blocks.iter().enumerate() {
            if block.policy() != RepairPolicy::Independent {
                return Err(AvailError::UnsupportedPolicy { backend: "product" });
            }
            if block.replicas() != config.as_slice()[j] {
                return Err(AvailError::BlockMismatch {
                    type_index: j,
                    block_replicas: block.replicas(),
                    config_replicas: config.as_slice()[j],
                });
            }
        }
        let _obs_span = wfms_obs::span!("avail-product-form", states = space.len(), types = k);
        let marginals = blocks.iter().map(|b| b.marginal_distribution()).collect();
        Ok(ProductFormModel {
            config: config.clone(),
            space,
            marginals,
        })
    }

    /// The underlying state space.
    pub fn state_space(&self) -> &StateSpace {
        &self.space
    }

    /// The configuration this model was built for.
    pub fn configuration(&self) -> &Configuration {
        &self.config
    }

    /// The per-type up-count marginals: `marginals()[x][u]` is the
    /// stationary probability that exactly `u` of the `Y_x` replicas of
    /// type `x` are up.
    pub fn marginals(&self) -> &[Vec<f64>] {
        &self.marginals
    }

    /// Exact WFMS availability, `Π_x (1 − m_x[0])` — no enumeration.
    pub fn availability(&self) -> f64 {
        let mut a = 1.0;
        for m in &self.marginals {
            a *= 1.0 - m[0];
        }
        a
    }

    /// `1 - availability` (exact).
    pub fn unavailability(&self) -> f64 {
        1.0 - self.availability()
    }

    /// Stationary probability of one system state, `Π_x m_x[X_x]`.
    ///
    /// # Errors
    /// [`AvailError::StateOutOfRange`] on a foreign state vector.
    pub fn state_probability(&self, state: &[usize]) -> Result<f64, AvailError> {
        self.space.encode(state)?;
        Ok(self.unchecked_probability(state))
    }

    fn unchecked_probability(&self, state: &[usize]) -> f64 {
        let mut p = 1.0;
        for (x, m) in state.iter().zip(&self.marginals) {
            p *= m[*x];
        }
        p
    }

    /// Materializes the full stationary vector in encoding order, for
    /// folds that visit every state anyway (the engine's `ε = 0` path);
    /// `O(k)` multiplications per state, no solve.
    ///
    /// # Errors
    /// [`AvailError::StateSpaceTooLarge`] beyond [`SPARSE_STATE_CAP`].
    pub fn steady_state(&self) -> Result<Vec<f64>, AvailError> {
        let n = self.space.len();
        if n > SPARSE_STATE_CAP {
            return Err(AvailError::StateSpaceTooLarge {
                states: n,
                cap: SPARSE_STATE_CAP,
            });
        }
        let mut pi = vec![0.0; n];
        for (idx, x) in self.space.iter() {
            pi[idx] = self.unchecked_probability(&x);
        }
        Ok(pi)
    }

    /// Lazily yields `(state, π)` pairs in descending `π` order (ties
    /// broken deterministically). Pull only as many states as needed:
    /// each step costs `O(k log heap)` and the heap grows by at most
    /// `k - 1` entries per emitted state.
    pub fn enumerate_descending(&self) -> BestFirstStates {
        BestFirstStates::new(&self.marginals)
    }
}

/// The multiplicative factor a one-coordinate move `Y_x → Y'_x` applies
/// to the product-form availability: `A' = A · (1 − m'_x[0]) / (1 − m_x[0])`
/// where `m_x[0]` / `m'_x[0]` are the all-down marginal entries before
/// and after the move (`q_x^{Y_x}` under independent repair). This is
/// the closed-form kernel behind `∂A/∂Y_x` move ranking: the factor
/// exceeds `1` exactly when the move raises availability, and
/// `A · (gain − 1)` is the availability gained.
///
/// The assessment engine deliberately does **not** patch a cached
/// availability with this factor — a float divide is not
/// bitwise-invertible — it re-folds the product over the candidate's
/// marginals instead; the gain factor is for *ranking*, where
/// closed-form speed matters and bit-identity does not.
pub fn availability_gain(all_down_before: f64, all_down_after: f64) -> f64 {
    (1.0 - all_down_after) / (1.0 - all_down_before)
}

/// Heap entry of the best-first enumeration: a rank vector into the
/// descending-sorted marginals and its score `Π_x v_x[r_x]`.
#[derive(Debug)]
struct Frontier {
    score: f64,
    ranks: Vec<u32>,
}

impl PartialEq for Frontier {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Frontier {}

impl PartialOrd for Frontier {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Frontier {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap on score; equal scores pop in lexicographic rank
        // order so the emission sequence is fully deterministic.
        self.score
            .total_cmp(&other.score)
            .then_with(|| other.ranks.cmp(&self.ranks))
    }
}

/// Best-first iterator over system states in descending stationary
/// probability — see [`ProductFormModel::enumerate_descending`] and the
/// module-level proof sketch.
#[derive(Debug)]
pub struct BestFirstStates {
    /// Per type: up-counts sorted by descending marginal probability.
    orders: Vec<Vec<usize>>,
    /// `values[x][r]` = marginal probability at rank `r` of type `x`.
    values: Vec<Vec<f64>>,
    heap: BinaryHeap<Frontier>,
}

impl BestFirstStates {
    fn new(marginals: &[Vec<f64>]) -> Self {
        let mut orders = Vec::with_capacity(marginals.len());
        let mut values = Vec::with_capacity(marginals.len());
        for m in marginals {
            let mut order: Vec<usize> = (0..m.len()).collect();
            // Descending by probability, up-count as the deterministic
            // tie-break.
            order.sort_by(|&a, &b| m[b].total_cmp(&m[a]).then(a.cmp(&b)));
            values.push(order.iter().map(|&u| m[u]).collect());
            orders.push(order);
        }
        let root = vec![0u32; marginals.len()];
        let mut heap = BinaryHeap::new();
        heap.push(Frontier {
            score: Self::score_of(&values, &root),
            ranks: root,
        });
        BestFirstStates {
            orders,
            values,
            heap,
        }
    }

    /// `Π_x values[x][ranks[x]]`, multiplied in type order — the same
    /// float product as [`ProductFormModel::state_probability`].
    fn score_of(values: &[Vec<f64>], ranks: &[u32]) -> f64 {
        let mut p = 1.0;
        for (v, &r) in values.iter().zip(ranks) {
            p *= v[r as usize];
        }
        p
    }
}

impl Iterator for BestFirstStates {
    type Item = (Vec<usize>, f64);

    fn next(&mut self) -> Option<Self::Item> {
        let top = self.heap.pop()?;
        // Canonical children only: `r + e_x` for `x` at or after the
        // last nonzero rank, so each state has exactly one parent.
        let first = top.ranks.iter().rposition(|&r| r > 0).unwrap_or(0);
        for x in first..top.ranks.len() {
            if (top.ranks[x] as usize) + 1 < self.orders[x].len() {
                let mut child = top.ranks.clone();
                child[x] += 1;
                self.heap.push(Frontier {
                    score: Self::score_of(&self.values, &child),
                    ranks: child,
                });
            }
        }
        let state = top
            .ranks
            .iter()
            .zip(&self.orders)
            .map(|(&r, order)| order[r as usize])
            .collect();
        Some((state, top.score))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{closed_form_unavailability, AvailabilityModel};
    use crate::sparse_model::SparseAvailabilityModel;
    use wfms_markov::ctmc::SteadyStateMethod;
    use wfms_markov::linalg::GaussSeidelOptions;
    use wfms_statechart::paper_section52_registry;

    fn gs() -> GaussSeidelOptions {
        GaussSeidelOptions {
            tolerance: 1e-12,
            max_iterations: 100_000,
            relaxation: 1.0,
        }
    }

    #[test]
    fn backend_selection_rules() {
        use AvailBackend::*;
        use RepairPolicy::*;
        // Auto, exact: dense under the cap, sparse above.
        assert_eq!(select_backend(Auto, Independent, 27, 0.0), Dense);
        assert_eq!(
            select_backend(Auto, Independent, DEFAULT_STATE_CAP + 1, 0.0),
            Sparse
        );
        // Auto, truncated, factorizing policy: product regardless of size.
        assert_eq!(select_backend(Auto, Independent, 27, 1e-9), Product);
        assert_eq!(select_backend(Auto, Independent, 1_000_000, 1e-9), Product);
        // Single repairman never reaches the product form.
        assert_eq!(
            select_backend(Auto, SingleRepairmanPerType, 27, 1e-9),
            Dense
        );
        assert_eq!(
            select_backend(Product, SingleRepairmanPerType, 27, 1e-9),
            Sparse
        );
        // Explicit requests stick.
        assert_eq!(select_backend(Sparse, Independent, 27, 0.0), Sparse);
        assert_eq!(select_backend(Product, Independent, 27, 0.0), Product);
    }

    #[test]
    fn product_availability_matches_closed_form_exactly_in_structure() {
        let reg = paper_section52_registry();
        for y in [vec![1, 1, 1], vec![2, 2, 3], vec![3, 3, 3]] {
            let config = Configuration::new(&reg, y).unwrap();
            let model = ProductFormModel::new(&reg, &config).unwrap();
            let closed = closed_form_unavailability(&reg, &config).unwrap();
            assert!(
                (model.unavailability() - closed).abs() < 1e-15 + 1e-12 * closed,
                "{config}: product {:e} vs closed {closed:e}",
                model.unavailability()
            );
        }
    }

    #[test]
    fn availability_gain_matches_the_recomputed_product() {
        let reg = paper_section52_registry();
        let before = Configuration::new(&reg, vec![2, 2, 2]).unwrap();
        let after = Configuration::new(&reg, vec![2, 3, 2]).unwrap();
        let a0 = ProductFormModel::new(&reg, &before).unwrap();
        let a1 = ProductFormModel::new(&reg, &after).unwrap();
        let gain = availability_gain(a0.marginals()[1][0], a1.marginals()[1][0]);
        assert!(gain > 1.0, "adding a replica raises availability");
        let predicted = a0.availability() * gain;
        assert!(
            (predicted - a1.availability()).abs() < 1e-15,
            "patched {predicted:e} vs recomputed {:e}",
            a1.availability()
        );
    }

    #[test]
    fn product_steady_state_matches_dense_lu() {
        let reg = paper_section52_registry();
        let config = Configuration::new(&reg, vec![2, 1, 3]).unwrap();
        let dense = AvailabilityModel::new(&reg, &config).unwrap();
        let pi_lu = dense.steady_state(SteadyStateMethod::Lu).unwrap();
        let product = ProductFormModel::new(&reg, &config).unwrap();
        let pi_pf = product.steady_state().unwrap();
        for (idx, x) in product.state_space().iter() {
            assert!(
                (pi_lu[idx] - pi_pf[idx]).abs() < 1e-10,
                "state {x:?}: LU {} vs product {}",
                pi_lu[idx],
                pi_pf[idx]
            );
        }
    }

    #[test]
    fn enumeration_is_descending_complete_and_consistent() {
        let reg = paper_section52_registry();
        let config = Configuration::new(&reg, vec![2, 2, 3]).unwrap();
        let model = ProductFormModel::new(&reg, &config).unwrap();
        let emitted: Vec<(Vec<usize>, f64)> = model.enumerate_descending().collect();
        let n = model.state_space().len();
        assert_eq!(emitted.len(), n, "every state exactly once");
        let mut seen = std::collections::HashSet::new();
        let mut last = f64::INFINITY;
        let mut total = 0.0;
        for (state, p) in &emitted {
            assert!(seen.insert(state.clone()), "duplicate {state:?}");
            assert!(*p <= last, "ascending step at {state:?}: {p} > {last}");
            // The emitted score is the same float product the point
            // query computes.
            assert_eq!(model.state_probability(state).unwrap(), *p);
            last = *p;
            total += *p;
        }
        assert!((total - 1.0).abs() < 1e-9, "mass {total}");
        // The first state is the modal (fully-up, for realistic rates).
        assert_eq!(emitted[0].0, vec![2, 2, 3]);
    }

    #[test]
    fn enumeration_prefix_covers_almost_all_mass_quickly() {
        let reg = paper_section52_registry();
        let config = Configuration::uniform(&reg, 3).unwrap(); // 64 states
        let model = ProductFormModel::new(&reg, &config).unwrap();
        let mut covered = 0.0;
        let mut pulled = 0;
        for (_, p) in model.enumerate_descending() {
            covered += p;
            pulled += 1;
            if covered >= 1.0 - 1e-9 {
                break;
            }
        }
        assert!(
            pulled < 64,
            "descending enumeration should reach 1 - 1e-9 before exhausting \
             the space, needed {pulled}/64"
        );
    }

    #[test]
    fn single_repairman_blocks_are_rejected() {
        let reg = paper_section52_registry();
        let config = Configuration::uniform(&reg, 2).unwrap();
        let blocks: Vec<Arc<BirthDeathBlock>> = reg
            .iter()
            .map(|(id, st)| {
                Arc::new(BirthDeathBlock::for_type(
                    st,
                    config.as_slice()[id.0],
                    RepairPolicy::SingleRepairmanPerType,
                ))
            })
            .collect();
        assert!(matches!(
            ProductFormModel::from_blocks(&config, &blocks),
            Err(AvailError::UnsupportedPolicy { backend: "product" })
        ));
    }

    #[test]
    fn mismatched_blocks_are_rejected() {
        let reg = paper_section52_registry();
        let config = Configuration::uniform(&reg, 2).unwrap();
        let blocks: Vec<Arc<BirthDeathBlock>> = reg
            .iter()
            .map(|(_, st)| Arc::new(BirthDeathBlock::for_type(st, 3, RepairPolicy::Independent)))
            .collect();
        assert!(matches!(
            ProductFormModel::from_blocks(&config, &blocks),
            Err(AvailError::BlockMismatch { type_index: 0, .. })
        ));
        assert!(matches!(
            ProductFormModel::from_blocks(&config, &blocks[..2]),
            Err(AvailError::Arch(_))
        ));
    }

    #[test]
    fn product_matches_sparse_gauss_seidel() {
        let reg = paper_section52_registry();
        let config = Configuration::new(&reg, vec![3, 2, 3]).unwrap();
        let sparse =
            SparseAvailabilityModel::new(&reg, &config, RepairPolicy::Independent).unwrap();
        let pi_gs = sparse.steady_state(gs()).unwrap();
        let product = ProductFormModel::new(&reg, &config).unwrap();
        let pi_pf = product.steady_state().unwrap();
        for idx in 0..pi_gs.len() {
            assert!((pi_gs[idx] - pi_pf[idx]).abs() < 1e-9);
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::model::{closed_form_unavailability, AvailabilityModel};
    use crate::sparse_model::SparseAvailabilityModel;
    use proptest::prelude::*;
    use wfms_markov::ctmc::SteadyStateMethod;
    use wfms_markov::linalg::GaussSeidelOptions;
    use wfms_statechart::{ServerType, ServerTypeKind, ServerTypeRegistry};

    fn arbitrary_registry_and_config() -> impl Strategy<Value = (ServerTypeRegistry, Configuration)>
    {
        let types = proptest::collection::vec((1e-5f64..1e-2, 0.01f64..1.0), 1..4);
        let reps = proptest::collection::vec(1usize..4, 1..4);
        (types, reps).prop_map(|(params, mut reps)| {
            let mut reg = ServerTypeRegistry::new();
            for (i, (lambda, mu)) in params.iter().enumerate() {
                reg.register(ServerType::with_exponential_service(
                    format!("t{i}"),
                    ServerTypeKind::WorkflowEngine,
                    *lambda,
                    *mu,
                    0.01,
                ))
                .unwrap();
            }
            reps.resize(reg.len(), 1);
            let config = Configuration::new(&reg, reps).unwrap();
            (reg, config)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Satellite invariant: the product-form π matches both the
        /// dense LU solve and the sparse Gauss–Seidel solve element-wise
        /// under independent repair.
        #[test]
        fn product_pi_matches_dense_and_sparse(
            (reg, config) in arbitrary_registry_and_config()
        ) {
            let product = ProductFormModel::new(&reg, &config).unwrap();
            let pi_pf = product.steady_state().unwrap();

            let dense = AvailabilityModel::new(&reg, &config).unwrap();
            let pi_lu = dense.steady_state(SteadyStateMethod::Lu).unwrap();

            let sparse = SparseAvailabilityModel::new(
                &reg, &config, RepairPolicy::Independent,
            ).unwrap();
            let pi_gs = sparse.steady_state(GaussSeidelOptions {
                tolerance: 1e-12,
                max_iterations: 100_000,
                relaxation: 1.0,
            }).unwrap();

            for idx in 0..pi_pf.len() {
                prop_assert!((pi_pf[idx] - pi_lu[idx]).abs() < 1e-9,
                    "idx {idx}: product {:e} vs LU {:e}", pi_pf[idx], pi_lu[idx]);
                prop_assert!((pi_pf[idx] - pi_gs[idx]).abs() < 1e-9,
                    "idx {idx}: product {:e} vs GS {:e}", pi_pf[idx], pi_gs[idx]);
            }
        }

        /// `closed_form_unavailability` and the product backend agree.
        #[test]
        fn closed_form_agrees_with_product_backend(
            (reg, config) in arbitrary_registry_and_config()
        ) {
            let product = ProductFormModel::new(&reg, &config).unwrap();
            let closed = closed_form_unavailability(&reg, &config).unwrap();
            prop_assert!(
                (product.unavailability() - closed).abs() < 1e-14 + 1e-10 * closed,
                "product {:e} vs closed {closed:e}", product.unavailability()
            );
        }

        /// The best-first enumeration is a descending permutation of the
        /// state space whose scores match the point query.
        #[test]
        fn enumeration_is_a_descending_permutation(
            (reg, config) in arbitrary_registry_and_config()
        ) {
            let model = ProductFormModel::new(&reg, &config).unwrap();
            let emitted: Vec<(Vec<usize>, f64)> =
                model.enumerate_descending().collect();
            prop_assert_eq!(emitted.len(), model.state_space().len());
            let mut last = f64::INFINITY;
            let mut seen = std::collections::HashSet::new();
            for (state, p) in &emitted {
                prop_assert!(seen.insert(state.clone()));
                prop_assert!(*p <= last);
                prop_assert_eq!(model.state_probability(state).unwrap(), *p);
                last = *p;
            }
        }
    }
}
