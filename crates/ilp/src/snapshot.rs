//! In-memory solve-state snapshots for resumable branch-and-bound.
//!
//! A [`SolveSnapshot`] is everything the [`crate::solver::BranchAndBound`]
//! search needs to *continue the same tree* later in the same process: the
//! open-node frontier (as per-node bound deltas against the model box), the
//! incumbent, the global-bound bookkeeping, the pseudo-cost tables, the
//! accepted cut pool, and the compact [`Basis`] each open node re-solves
//! from. Snapshots are produced by an interrupted or limit-stopped solve
//! when [`crate::Budget::snapshot`] is `Some(true)`, shared as
//! `Arc<SolveSnapshot>`, and consumed by [`crate::SolverConfig::resume`]
//! (set with [`crate::SolverConfig::with_resume`]). A snapshot is a plain
//! value: it is never written out or parsed back, so it carries no format
//! version.
//!
//! # Exactness
//!
//! Resuming must be **results-neutral**: a solve that runs `c` nodes, is
//! snapshotted, and resumes for the remaining budget must visit the same
//! nodes, find the same incumbents and prove the same objective as an
//! uninterrupted run. The depth-first stack is restored verbatim, every
//! bound and objective is the captured `f64` itself, and each node's parent
//! basis is the captured basic set, which refactorizes to the same factor.
//!
//! # Validity
//!
//! A snapshot is only meaningful for the exact instance it was captured
//! from: it records the content fingerprint of the (possibly reduced)
//! matrix + objective it was solving, and the resume path rejects a
//! mismatch loudly ([`crate::IlpError::Snapshot`]) instead of silently
//! continuing a different tree. The solver *configuration* is not part of
//! the snapshot — resuming under a different bound mode or budget is
//! well-defined (the tree stays valid) but forfeits the
//! identical-to-uninterrupted guarantee; callers that need it (the job
//! service cache) key snapshots by configuration as well.

use crate::cuts::CutRow;
use crate::model::{Model, Sense};
use crate::simplex::{instance_fingerprint, Basis};
use crate::solver::{CachedRootLp, PseudoCosts};
use crate::sparse::SparseModel;

/// Content fingerprint of a model: a hash over the sparse constraint
/// matrix, the variables' integral [0, 1] boxes, and the internal
/// (minimisation-sense) objective with its constant. Two models that are
/// structurally and numerically identical collide; a single changed
/// coefficient or objective weight separates them. This is
/// the identity the `advbist` job-service cache keys on. (It is *not* the
/// same hash a [`SolveSnapshot`] records — snapshots fingerprint the
/// reduced instance the tree was actually built on.)
pub fn model_fingerprint(model: &Model) -> u64 {
    let sense_factor = match model.sense() {
        Sense::Minimize => 1.0,
        Sense::Maximize => -1.0,
    };
    let objective: Vec<f64> = model
        .vars()
        .iter()
        .map(|v| sense_factor * v.objective)
        .collect();
    let matrix = SparseModel::from_model(model);
    let mut h = instance_fingerprint(
        &matrix,
        &objective,
        sense_factor * model.objective().offset(),
    );
    // Each variable's integral [0, 1] box stays folded in, so the
    // fingerprints `tests/corpus.rs` pins keep their values.
    for _ in model.vars() {
        crate::sparse::fnv_fold(&mut h, 0.0f64.to_bits());
        crate::sparse::fnv_fold(&mut h, 1.0f64.to_bits());
        crate::sparse::fnv_fold(&mut h, 1);
    }
    h
}

/// One open node of the captured frontier. Domains are stored as deltas
/// against the model's root box: only the `(variable, lower, upper)` triples
/// that differ (branching decisions, propagation tightenings, reduced-cost
/// fixings), which keeps deep-tree snapshots small.
#[derive(Debug, Clone)]
pub(crate) struct SnapshotNode {
    /// `(variable index, lower, upper)` for every bound that differs from
    /// the model box.
    pub(crate) deltas: Vec<(usize, f64, f64)>,
    pub(crate) depth: usize,
    pub(crate) bound: f64,
    pub(crate) branched: Option<usize>,
    /// Index of the node's parent basis in [`SolveSnapshot::bases`].
    pub(crate) parent_basis: Option<usize>,
    pub(crate) parent_bound_is_lp: bool,
    pub(crate) branch_up: bool,
    pub(crate) branch_step: f64,
}

/// An in-memory checkpoint of an interrupted branch-and-bound search. See
/// the [module documentation](self) for the exactness and validity
/// contracts.
#[derive(Debug, Clone)]
pub struct SolveSnapshot {
    /// Content fingerprint of the instance (pre-cut matrix + objective) the
    /// tree belongs to; checked on resume.
    pub(crate) fingerprint: u64,
    pub(crate) num_vars: usize,
    /// Nodes explored when the snapshot was taken; the resumed run's node
    /// counter continues from here, so node budgets keep whole-tree
    /// semantics across interrupts.
    pub(crate) nodes: u64,
    /// Open nodes in pop order: the *last* entry is popped first under
    /// depth-first search (stack order is preserved verbatim).
    pub(crate) frontier: Vec<SnapshotNode>,
    /// Best incumbent at capture, as (internal minimisation objective,
    /// values).
    pub(crate) incumbent: Option<(f64, Vec<f64>)>,
    pub(crate) root_bound: f64,
    pub(crate) pruned_bound_min: f64,
    pub(crate) last_bound_emitted: f64,
    pub(crate) tree_separations_left: usize,
    /// Whether the captured search was separating shallow Gomory rounds
    /// eagerly (chained warm-started solves).
    pub(crate) eager_separation: bool,
    /// Accepted cut pool; reinstalled into the row set before the frontier
    /// is restored.
    pub(crate) cuts: Vec<CutRow>,
    /// The branching rule's pseudo-cost tables.
    pub(crate) pseudo: PseudoCosts,
    /// The open nodes' parent bases, each stored once however many
    /// siblings share it.
    pub(crate) bases: Vec<Basis>,
    /// The cut loop's cached root relaxation, if the root node had not
    /// consumed it yet (an interrupt before the first pop); the root node
    /// in the frontier holds its basis.
    pub(crate) root_lp: Option<CachedRootLp>,
}

impl SolveSnapshot {
    /// Nodes the captured search had explored.
    pub fn nodes(&self) -> u64 {
        self.nodes
    }

    /// Open nodes in the captured frontier.
    pub fn open_nodes(&self) -> usize {
        self.frontier.len()
    }

    /// Distinct LP bases stored for the open nodes. Siblings share their
    /// parent's, so this is at most [`SolveSnapshot::open_nodes`].
    pub fn stored_bases(&self) -> usize {
        self.bases.len()
    }

    /// Approximate in-memory footprint in bytes (used by the job-service
    /// cache's LRU accounting).
    pub fn approx_bytes(&self) -> usize {
        let node_bytes: usize = self.frontier.iter().map(|n| 64 + 24 * n.deltas.len()).sum();
        let incumbent_bytes = self
            .incumbent
            .as_ref()
            .map_or(0, |(_, values)| 16 + 8 * values.len());
        let cut_bytes: usize = self.cuts.iter().map(|c| 24 + 16 * c.terms.len()).sum();
        let pseudo_bytes = 12 * self.pseudo.up_sum.len() + 12 * self.pseudo.down_sum.len();
        let basis_bytes: usize = self
            .bases
            .iter()
            .map(|b| std::mem::size_of::<Basis>() + b.bytes())
            .sum();
        let root_lp_bytes = self.root_lp.as_ref().map_or(0, |lp| {
            8 * lp.values.len()
                + lp.reduced_costs
                    .as_ref()
                    .map_or(0, |rc| 8 * (rc.up.len() + rc.down.len()))
        });
        128 + node_bytes + incumbent_bytes + cut_bytes + pseudo_bytes + basis_bytes + root_lp_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simplex::ReducedCosts;

    fn sample() -> SolveSnapshot {
        SolveSnapshot {
            fingerprint: 0xdead_beef_cafe_f00d,
            num_vars: 3,
            nodes: 17,
            frontier: vec![
                SnapshotNode {
                    deltas: vec![(0, 1.0, 1.0), (2, 0.0, 0.0)],
                    depth: 2,
                    bound: -12.25,
                    branched: Some(0),
                    parent_basis: None,
                    parent_bound_is_lp: true,
                    branch_up: true,
                    branch_step: 0.375,
                },
                SnapshotNode {
                    deltas: vec![],
                    depth: 0,
                    bound: f64::NEG_INFINITY,
                    branched: None,
                    parent_basis: None,
                    parent_bound_is_lp: false,
                    branch_up: false,
                    branch_step: 0.0,
                },
            ],
            incumbent: Some((-10.0, vec![1.0, 0.0, 1.0])),
            root_bound: -15.5,
            pruned_bound_min: f64::INFINITY,
            last_bound_emitted: -15.5,
            tree_separations_left: 6,
            eager_separation: true,
            cuts: vec![
                CutRow {
                    terms: vec![(0, 0.25), (2, -1.5)],
                    rhs: 0.75,
                },
                CutRow {
                    terms: vec![(0, 1.0), (1, 2.0), (2, 1.0)],
                    rhs: 1.0,
                },
            ],
            pseudo: PseudoCosts::new(3),
            bases: Vec::new(),
            root_lp: Some(CachedRootLp {
                objective: -15.5,
                values: vec![0.5, 0.5, 1.0],
                reduced_costs: Some(ReducedCosts {
                    up: vec![0.0, 0.1, 0.0],
                    down: vec![0.2, 0.0, 0.0],
                }),
            }),
        }
    }

    #[test]
    fn approx_bytes_scales_with_content() {
        let small = SolveSnapshot {
            frontier: Vec::new(),
            incumbent: None,
            root_lp: None,
            cuts: Vec::new(),
            ..sample()
        };
        assert!(small.approx_bytes() < sample().approx_bytes());
    }

    #[test]
    fn approx_bytes_charges_a_basis_its_statuses_and_basic_set() {
        // A 3-variable, 2-row LP: its basis has 5 column statuses and 2
        // basic columns, and a snapshot is charged exactly for those plus
        // the fixed-size struct — not for any factorization.
        let mut m = Model::new("bytes");
        let x: Vec<_> = (0..3).map(|i| m.add_binary(format!("x{i}"))).collect();
        m.add_leq([(x[0], 2.0), (x[1], 3.0), (x[2], 1.0)], 4.0, "cap");
        m.add_geq([(x[0], 1.0), (x[2], 1.0)], 1.0, "cover");
        m.set_objective([(x[0], 1.0), (x[1], -2.0), (x[2], 1.5)], Sense::Minimize);
        let matrix = SparseModel::from_model(&m);
        let objective: Vec<f64> = m.vars().iter().map(|v| v.objective).collect();
        let domains = crate::propagate::Domains::from_model(&m);
        let (_, basis) = crate::simplex::solve_lp_basis(&matrix, &objective, 0.0, &domains, 100);
        let basis = basis.expect("optimal basis");
        assert_eq!(basis.rows(), 2);
        assert_eq!(basis.bytes(), 5 + 2 * 4);

        let without = sample();
        let mut with = sample();
        with.bases.push(basis.clone());
        with.frontier[0].parent_basis = Some(0);
        assert_eq!(
            with.approx_bytes() - without.approx_bytes(),
            std::mem::size_of::<Basis>() + basis.bytes()
        );
        // Siblings share one stored basis, so a second reference is free.
        with.frontier[1].parent_basis = Some(0);
        assert_eq!(
            with.approx_bytes() - without.approx_bytes(),
            std::mem::size_of::<Basis>() + basis.bytes()
        );
    }
}
