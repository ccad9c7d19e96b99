//! Budgets, cancellation and a live event stream for one solve.
//!
//! Every solve is configured by one [`crate::SolverConfig`] and started by
//! [`crate::Model::solve`], or by [`crate::Model::solve_observed`] when the
//! caller wants to watch it. The configuration carries:
//!
//! * a first-class [`Budget`] — node limit, wall-clock limit and absolute
//!   deadline in one value ([`crate::SolverConfig::with_budget`]),
//! * a shareable [`CancelToken`], checked inside the branch-and-bound loop,
//!   so another thread (or an event observer) can stop the search while the
//!   best incumbent found so far is preserved
//!   ([`crate::SolverConfig::with_cancel`]),
//! * optionally a snapshot to resume ([`crate::SolverConfig::with_resume`]).
//!
//! This crate reads no environment variables: a caller builds its
//! [`Budget`] in code and passes it in. The experiment harness
//! (`bist-bench`) is the one place that reads a budget variable,
//! `BIST_NODE_LIMIT`.
//!
//! An observed solve streams [`SolveEvent`]s *live* from the solver —
//! incumbent improvements, dual-bound progress, cut rounds, node milestones
//! and completion — instead of only post-hoc [`crate::SolveStats`].
//!
//! ```
//! use bist_ilp::{Budget, Model, Sense, SolveEvent, SolverConfig};
//!
//! # fn main() -> Result<(), bist_ilp::IlpError> {
//! let mut model = Model::new("tiny");
//! let x = model.add_binary("x");
//! let y = model.add_binary("y");
//! model.add_leq([(x, 1.0), (y, 1.0)], 1.0, "cap");
//! model.set_objective([(x, 1.0), (y, 2.0)], Sense::Maximize);
//!
//! let config = SolverConfig::default().with_budget(Budget::nodes(10_000));
//! let mut incumbents = 0;
//! let solution = model.solve_observed(&config, &mut |event| {
//!     if let SolveEvent::Incumbent { .. } = event {
//!         incumbents += 1;
//!     }
//! })?;
//! assert!(solution.is_optimal());
//! assert!(incumbents >= 1);
//! # Ok(())
//! # }
//! ```

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::solution::{Solution, Status};

/// A unified solve budget: node limit, wall-clock limit and absolute
/// deadline. All three are optional and combine conjunctively — the solve
/// stops at whichever expires first.
///
/// The wall-clock limit is relative to the start of each solve; the
/// deadline is an absolute [`Instant`], so one deadline naturally caps a
/// whole batch of solves (every solve sharing it stops at the same moment).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Budget {
    /// Maximum number of branch-and-bound nodes per solve.
    pub node_limit: Option<u64>,
    /// Maximum wall-clock time per solve.
    pub time_limit: Option<Duration>,
    /// Absolute point in time after which the search stops.
    pub deadline: Option<Instant>,
    /// Whether early-stopped solves capture a resumable
    /// [`crate::SolveSnapshot`]: the one capture switch. Only `Some(true)`
    /// captures; `None` and `Some(false)` do not, in a plain session and
    /// in the job service alike (a job that resumes a cached snapshot
    /// captures again regardless).
    pub snapshot: Option<bool>,
}

impl Budget {
    /// No limits at all.
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// A node-limited budget (deterministic across machines).
    pub fn nodes(limit: u64) -> Self {
        Self::unlimited().with_nodes(limit)
    }

    /// A wall-clock-limited budget.
    pub fn time(limit: Duration) -> Self {
        Self::unlimited().with_time(limit)
    }

    /// Sets the node limit.
    pub fn with_nodes(mut self, limit: u64) -> Self {
        self.node_limit = Some(limit);
        self
    }

    /// Sets the wall-clock limit.
    pub fn with_time(mut self, limit: Duration) -> Self {
        self.time_limit = Some(limit);
        self
    }

    /// Sets the absolute deadline.
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets whether early-stopped solves capture a resumable snapshot.
    pub fn with_snapshot(mut self, enabled: bool) -> Self {
        self.snapshot = Some(enabled);
        self
    }

    /// Whether no limit of any kind is configured. The snapshot switch is
    /// policy, not a limit, and does not count.
    pub fn is_unlimited(&self) -> bool {
        self.node_limit.is_none() && self.time_limit.is_none() && self.deadline.is_none()
    }

    /// Whether the budget is deterministic: free of wall-clock limits and
    /// deadlines, so two runs under it explore identical trees. The job
    /// service only reuses finished solutions across jobs whose budgets
    /// are deterministic — a time-limited solve's result depends on the
    /// machine's speed at that moment and must not be replayed.
    pub fn is_deterministic(&self) -> bool {
        self.time_limit.is_none() && self.deadline.is_none()
    }

    /// Whether `nodes` exhausts the node limit.
    pub fn nodes_exhausted(&self, nodes: u64) -> bool {
        self.node_limit.is_some_and(|limit| nodes >= limit)
    }

    /// Whether the wall-clock limit (relative to `started`) or the absolute
    /// deadline has expired.
    pub fn time_expired(&self, started: Instant) -> bool {
        if self
            .time_limit
            .is_some_and(|limit| started.elapsed() >= limit)
        {
            return true;
        }
        self.deadline_passed()
    }

    /// Whether the absolute deadline has passed (ignores the relative
    /// limits; the job service uses this between solves).
    pub fn deadline_passed(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

/// A shareable cancellation flag. Cloning is cheap (an [`Arc`] bump) and
/// every clone observes the same flag, so a token handed to another thread,
/// an event observer or the job service cancels the solve it was installed
/// in. Cancellation is cooperative: the branch-and-bound loop checks the
/// flag at every node pop and returns [`Status::Interrupted`] with the best
/// incumbent found so far.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Raises the flag. Idempotent; never blocks.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Whether the flag has been raised.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// A progress event emitted live during a solve. Objectives and bounds are
/// reported in the model's *external* objective sense (the same convention
/// as [`crate::Solution::objective`] and [`crate::Improvement`]).
#[derive(Debug, Clone, PartialEq)]
pub enum SolveEvent {
    /// The incumbent improved (a better feasible solution was found).
    Incumbent {
        /// Nodes explored when the improvement happened (0 = before the
        /// tree search: a warm start or the dive heuristic).
        nodes: u64,
        /// The new incumbent objective.
        objective: f64,
    },
    /// The proven dual bound tightened (root relaxation, cut rounds).
    BoundImproved {
        /// Nodes explored when the bound improved.
        nodes: u64,
        /// The new bound, external sense.
        bound: f64,
    },
    /// A separation round added cutting planes to the row set.
    CutRound {
        /// Nodes explored when the cuts were separated (0 = root loop).
        nodes: u64,
        /// Cuts accepted in this round.
        added: u64,
        /// Total cuts in the pool after this round; after a resume this
        /// includes the restored cuts.
        total: u64,
    },
    /// A branch-and-bound node was popped. Emitted for every node, so an
    /// observer can implement deterministic node-count-triggered
    /// cancellation or throttled progress reporting.
    NodeMilestone {
        /// Nodes explored so far (this node included).
        nodes: u64,
        /// Current incumbent objective, if any.
        incumbent: Option<f64>,
    },
    /// The solve finished: the last event of an observed solve, emitted
    /// exactly once.
    Done {
        /// Final status.
        status: Status,
        /// Total nodes explored.
        nodes: u64,
        /// Total simplex iterations, split by kernel:
        /// `(primal, dual)` — cold two-phase factorisations vs warm
        /// dual-simplex re-solves (see [`crate::SolveStats`]).
        pivots: (u64, u64),
        /// Cutting planes emitted into the pool over the whole solve,
        /// by kind.
        cuts_emitted: crate::CutCounts,
        /// Cutting planes still active in the row set at the end, by kind.
        cuts_active: crate::CutCounts,
    },
}

impl SolveEvent {
    /// The [`SolveEvent::Done`] event closing a solve that returned
    /// `solution`.
    pub(crate) fn done(solution: &Solution) -> Self {
        let stats = solution.stats();
        SolveEvent::Done {
            status: solution.status(),
            nodes: stats.nodes,
            pivots: (stats.lp_primal_pivots, stats.lp_dual_pivots),
            cuts_emitted: stats.cuts_emitted,
            cuts_active: stats.cuts_active,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Model, Sense};
    use crate::solver::SolverConfig;

    #[test]
    fn budget_from_lookup_defaults_to_unlimited() {
        // A budget with no limit set never stops a solve.
        let budget = Budget::default();
        assert_eq!(budget, Budget::unlimited());
        assert!(budget.is_unlimited());
        assert!(!budget.nodes_exhausted(u64::MAX - 1));
        assert!(!budget.time_expired(Instant::now()));
        assert!(!budget.deadline_passed());
    }

    #[test]
    fn budget_or_combinators_only_fill_gaps() {
        // Each builder sets its own field and leaves the others as they were.
        let budget = Budget::nodes(5).with_time(Duration::from_secs(9));
        assert_eq!(budget.node_limit, Some(5));
        assert_eq!(budget.time_limit, Some(Duration::from_secs(9)));
        assert_eq!((budget.deadline, budget.snapshot), (None, None));
        assert!(budget.nodes_exhausted(5));
        assert!(!budget.nodes_exhausted(4));
    }

    #[test]
    fn budget_time_values_are_clamped_and_deadline_is_absolute() {
        // The smallest wall-clock limit, zero, has expired as soon as the
        // solve starts.
        assert!(Budget::time(Duration::ZERO).time_expired(Instant::now()));
        // The deadline is absolute: once past, it has expired for every
        // solve, whenever that solve started.
        let past = Budget::unlimited().with_deadline(Instant::now());
        assert!(past.deadline_passed());
        assert!(past.time_expired(Instant::now()));
    }

    #[test]
    fn budget_determinism_ignores_policy_knobs() {
        assert!(Budget::nodes(10).is_deterministic());
        assert!(Budget::nodes(10).with_snapshot(true).is_deterministic());
        assert!(!Budget::time(Duration::from_secs(1)).is_deterministic());
        assert!(!Budget::nodes(10)
            .with_deadline(Instant::now() + Duration::from_secs(1))
            .is_deterministic());
        // The snapshot switch does not make an unlimited budget "limited".
        assert!(Budget::unlimited().with_snapshot(true).is_unlimited());
    }

    #[test]
    fn cancel_token_clones_share_the_flag() {
        let token = CancelToken::new();
        let clone = token.clone();
        assert!(!clone.is_cancelled());
        token.cancel();
        assert!(clone.is_cancelled());
    }

    #[test]
    fn session_streams_events_and_finishes_with_done() {
        // A model that needs real branching so node milestones exist.
        let mut m = Model::new("events");
        let vars: Vec<_> = (0..8).map(|i| m.add_binary(format!("x{i}"))).collect();
        for w in vars.windows(3).step_by(2) {
            m.add_geq(w.iter().map(|&v| (v, 1.0)).collect::<Vec<_>>(), 2.0, "need");
        }
        m.set_objective(
            vars.iter()
                .enumerate()
                .map(|(i, &v)| (v, 1.0 + (i % 3) as f64))
                .collect::<Vec<_>>(),
            Sense::Minimize,
        );
        let mut events: Vec<SolveEvent> = Vec::new();
        let solution = m
            .solve_observed(&SolverConfig::exact(), &mut |event| {
                events.push(event.clone())
            })
            .unwrap();
        assert!(solution.is_optimal());
        // Exactly one Done, and it is the last event.
        let done = events
            .iter()
            .filter(|e| matches!(e, SolveEvent::Done { .. }))
            .count();
        assert_eq!(done, 1);
        assert!(matches!(events.last(), Some(SolveEvent::Done { .. })));
        let incumbents: Vec<f64> = events
            .iter()
            .filter_map(|e| match e {
                SolveEvent::Incumbent { objective, .. } => Some(*objective),
                _ => None,
            })
            .collect();
        assert!(!incumbents.is_empty());
        // Strictly improving in the minimisation sense, ending at the optimum.
        assert!(incumbents.windows(2).all(|w| w[1] < w[0]));
        assert!((incumbents.last().unwrap() - solution.objective()).abs() < 1e-9);
        // Dual-bound events must be strictly improving (minimisation sense:
        // strictly increasing), even across non-improving cut-round LPs.
        let bounds: Vec<f64> = events
            .iter()
            .filter_map(|e| match e {
                SolveEvent::BoundImproved { bound, .. } => Some(*bound),
                _ => None,
            })
            .collect();
        assert!(!bounds.is_empty());
        assert!(bounds.windows(2).all(|w| w[1] > w[0]));
        let milestones: Vec<u64> = events
            .iter()
            .filter_map(|e| match e {
                SolveEvent::NodeMilestone { nodes, .. } => Some(*nodes),
                _ => None,
            })
            .collect();
        assert!(!milestones.is_empty());
        assert!(milestones.windows(2).all(|w| w[1] > w[0]));
        assert_eq!(*milestones.last().unwrap(), solution.stats().nodes);
        match events.last().unwrap() {
            SolveEvent::Done {
                status,
                nodes,
                pivots,
                cuts_emitted,
                cuts_active,
            } => {
                assert_eq!(*status, Status::Optimal);
                assert_eq!(*nodes, solution.stats().nodes);
                assert_eq!(pivots.0 + pivots.1, solution.stats().lp_pivots);
                assert_eq!(*cuts_emitted, solution.stats().cuts_emitted);
                assert_eq!(*cuts_active, solution.stats().cuts_active);
                assert!(cuts_active.total() <= cuts_emitted.total());
            }
            other => panic!("unexpected final event {other:?}"),
        }
    }

    #[test]
    fn observed_solve_matches_the_blind_solve() {
        let mut m = Model::new("plain");
        let x = m.add_binary("x");
        let y = m.add_binary("y");
        m.add_leq([(x, 1.0), (y, 1.0)], 1.0, "cap");
        m.set_objective([(x, 3.0), (y, 2.0)], Sense::Maximize);
        let config = SolverConfig::exact();
        let observed = m.solve_observed(&config, &mut |_| {}).unwrap();
        let blind = m.solve(&config).unwrap();
        assert_eq!(observed.objective(), blind.objective());
        assert_eq!(observed.status(), blind.status());
    }
}
