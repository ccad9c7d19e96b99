//! In-memory solve-state snapshots for resumable branch-and-bound.
//!
//! A [`SolveSnapshot`] is everything the [`crate::solver::BranchAndBound`]
//! search needs to *continue the same tree* later in the same process: the
//! open nodes themselves (each with its full bound box, the compact
//! [`Basis`] it re-solves from, and, for a root not yet popped, the cut
//! loop's solved LP), the incumbent, the global-bound bookkeeping, the
//! pseudo-cost tables and the accepted cut pool. Snapshots are produced by
//! an interrupted or limit-stopped solve when [`crate::Budget::snapshot`]
//! is `Some(true)`, shared as `Arc<SolveSnapshot>`, and consumed by
//! [`crate::SolverConfig::resume`] (set with
//! [`crate::SolverConfig::with_resume`]). A snapshot is a plain value: it is
//! never written out or parsed back, so it carries no format version.
//!
//! # Exactness
//!
//! Resuming must be **results-neutral**: a solve that runs `c` nodes, is
//! snapshotted, and resumes for the remaining budget must visit the same
//! nodes, find the same incumbents and prove the same objective as an
//! uninterrupted run. Capture moves the depth-first stack into the
//! snapshot, and a resume clones it back out, so every box, bound and
//! objective is the captured `f64` itself. Bases are immutable and shared
//! through an `Arc`: a resumed node re-solves from the very basic set it
//! held, which refactorizes to the same factor. A resume never consumes
//! the snapshot, so one `Arc<SolveSnapshot>` can be resumed any number of
//! times, from any thread, and every resume replays the same tree.
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

use std::sync::Arc;

use crate::cuts::CutRow;
use crate::model::{Model, Sense};
use crate::simplex::{instance_fingerprint, Basis};
use crate::solver::{Node, NodeLp, PseudoCosts};
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
    pub(crate) frontier: Vec<Node>,
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

    /// Distinct LP bases the open nodes hold. Siblings share their
    /// parent's, so this is at most [`SolveSnapshot::open_nodes`].
    pub fn stored_bases(&self) -> usize {
        self.bases().len()
    }

    /// The open nodes' bases, each once however many nodes share it.
    fn bases(&self) -> Vec<&Arc<Basis>> {
        let mut bases: Vec<&Arc<Basis>> = Vec::new();
        for basis in self.frontier.iter().flat_map(Node::bases) {
            if !bases.iter().any(|stored| Arc::ptr_eq(stored, basis)) {
                bases.push(basis);
            }
        }
        bases
    }

    /// Approximate in-memory footprint in bytes (used by the job-service
    /// cache's LRU accounting).
    pub fn approx_bytes(&self) -> usize {
        let lp_bytes = |lp: &NodeLp| {
            8 * lp.values.len()
                + lp.reduced_costs
                    .as_ref()
                    .map_or(0, |rc| 8 * (rc.up.len() + rc.down.len()))
        };
        // A node's box is a lower and an upper `f64` and an integrality
        // flag per variable; the root may also hold the cut loop's LP.
        let node_bytes: usize = self
            .frontier
            .iter()
            .map(|n| {
                std::mem::size_of::<Node>()
                    + 17 * n.domains.len()
                    + n.lp.as_ref().map_or(0, lp_bytes)
            })
            .sum();
        let incumbent_bytes = self
            .incumbent
            .as_ref()
            .map_or(0, |(_, values)| 16 + 8 * values.len());
        let cut_bytes: usize = self.cuts.iter().map(|c| 24 + 16 * c.terms.len()).sum();
        let pseudo_bytes = 12 * self.pseudo.up_sum.len() + 12 * self.pseudo.down_sum.len();
        let basis_bytes: usize = self
            .bases()
            .iter()
            .map(|b| std::mem::size_of::<Basis>() + b.bytes())
            .sum();
        128 + node_bytes + incumbent_bytes + cut_bytes + pseudo_bytes + basis_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::propagate::Domains;
    use crate::simplex::ReducedCosts;
    use crate::{Budget, SolverConfig};

    /// A three-variable frontier: a root that still holds the cut loop's
    /// LP, and two nodes with `x0` fixed each way. Byte accounting reads
    /// only a node's box, bases and LP.
    fn sample() -> SolveSnapshot {
        let model_box = Domains::from_bounds(&[(0.0, 1.0, true); 3]);
        let child = |value: f64| {
            let mut domains = model_box.clone();
            domains.fix(0, value);
            Node::root(domains)
        };
        let mut root = Node::root(model_box.clone());
        root.lp = Some(NodeLp {
            objective: -15.5,
            values: vec![0.5, 0.5, 1.0],
            reduced_costs: Some(ReducedCosts {
                up: vec![0.0, 0.1, 0.0],
                down: vec![0.2, 0.0, 0.0],
            }),
            basis: None,
        });
        SolveSnapshot {
            fingerprint: 0xdead_beef_cafe_f00d,
            num_vars: 3,
            nodes: 17,
            frontier: vec![root, child(0.0), child(1.0)],
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
        }
    }

    #[test]
    fn approx_bytes_scales_with_content() {
        let full = sample();
        let small = SolveSnapshot {
            frontier: Vec::new(),
            incumbent: None,
            cuts: Vec::new(),
            ..sample()
        };
        assert!(small.approx_bytes() < full.approx_bytes());
        // Each open node is charged its full box, and the root its LP too.
        let mut without_lp = sample();
        without_lp.frontier[0].lp = None;
        assert_eq!(
            full.approx_bytes() - without_lp.approx_bytes(),
            8 * 3 + 8 * (3 + 3)
        );
        let mut fewer = sample();
        fewer.frontier.pop();
        assert_eq!(
            full.approx_bytes() - fewer.approx_bytes(),
            std::mem::size_of::<Node>() + 17 * 3
        );
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
        let domains = Domains::from_model(&m);
        let (_, basis) = crate::simplex::solve_lp_basis(&matrix, &objective, 0.0, &domains, 100);
        let basis = Arc::new(basis.expect("optimal basis"));
        assert_eq!(basis.rows(), 2);
        assert_eq!(basis.bytes(), 5 + 2 * 4);
        let charge = std::mem::size_of::<Basis>() + basis.bytes();

        let without = sample();
        assert_eq!(without.stored_bases(), 0);
        let mut with = sample();
        with.frontier[1].parent_basis = Some(Arc::clone(&basis));
        assert_eq!(with.approx_bytes() - without.approx_bytes(), charge);
        // Siblings share one stored basis, so a second reference is free.
        with.frontier[2].parent_basis = Some(Arc::clone(&basis));
        assert_eq!(with.approx_bytes() - without.approx_bytes(), charge);
        assert_eq!(with.stored_bases(), 1);
        // An equal basis in another `Arc` is another stored basis.
        with.frontier[0].lp.as_mut().expect("root LP").basis = Some(Arc::new((*basis).clone()));
        assert_eq!(with.approx_bytes() - without.approx_bytes(), 2 * charge);
        assert_eq!(with.stored_bases(), 2);
    }

    #[test]
    fn one_snapshot_resumes_identically_from_two_threads() {
        // A knapsack with pairwise conflicts, which branches for a few
        // dozen nodes under LP bounds.
        let mut m = Model::new("resume-twice");
        let weights = [5.0, 7.0, 4.0, 3.0, 8.0, 6.0, 5.0, 9.0, 2.0, 4.0];
        let values = [7.0, 9.0, 5.0, 4.0, 11.0, 8.0, 6.0, 12.0, 3.0, 5.0];
        let x: Vec<_> = (0..10).map(|i| m.add_binary(format!("x{i}"))).collect();
        m.add_leq(
            x.iter().copied().zip(weights).collect::<Vec<_>>(),
            22.0,
            "cap",
        );
        for i in 0..7 {
            m.add_leq([(x[i], 1.0), (x[i + 3], 1.0)], 1.0, "conflict");
        }
        m.set_objective(
            x.iter().copied().zip(values).collect::<Vec<_>>(),
            Sense::Maximize,
        );
        let config = SolverConfig::exact();
        let cold = m.solve(&config).expect("cold solve");
        let interrupt = cold.stats().nodes / 2;
        let partial = m
            .solve(
                &config
                    .clone()
                    .with_budget(Budget::nodes(interrupt).with_snapshot(true)),
            )
            .expect("interrupted solve");
        let snapshot = partial.shared_snapshot().expect("snapshot captured");
        let captured = (snapshot.open_nodes(), snapshot.stored_bases());
        assert!(captured.1 > 0, "no open node holds a basis");

        // Both resumes clone the same shared frontier, released together.
        let start = std::sync::Barrier::new(2);
        let resume = || {
            start.wait();
            m.solve(&config.clone().with_resume(Arc::clone(&snapshot)))
                .expect("resumed solve")
        };
        let (a, b) = std::thread::scope(|scope| {
            let a = scope.spawn(resume);
            let b = scope.spawn(resume);
            (a.join().expect("thread a"), b.join().expect("thread b"))
        });
        for resumed in [&a, &b] {
            assert!(resumed.is_optimal());
            assert_eq!(resumed.stats().nodes, cold.stats().nodes);
            assert_eq!(resumed.objective().to_bits(), cold.objective().to_bits());
        }
        assert_eq!(a.values(), b.values());
        assert_eq!(a.stats().lp_pivots, b.stats().lp_pivots);
        // A resume never consumes the snapshot it continues.
        assert_eq!((snapshot.open_nodes(), snapshot.stored_bases()), captured);
    }
}
