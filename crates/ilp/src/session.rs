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

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::solution::{Solution, Status};

/// Smallest accepted wall-clock budget: sub-millisecond values are clamped
/// up so a `BIST_TIME_LIMIT_SECS=0` run still performs the root work.
const MIN_TIME_LIMIT: Duration = Duration::from_millis(1);

/// Largest accepted seconds value in the budget environment variables
/// (~31 years). Beyond this, `Duration::from_secs_f64` /
/// `Instant + Duration` would panic instead of producing the designed
/// loud [`BudgetError`], so the parser rejects it first.
const MAX_BUDGET_SECS: f64 = 1e9;

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
    /// captures again regardless). Set from `BIST_SNAPSHOT`.
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

    /// Sets the deadline to `from_now` in the future.
    pub fn with_deadline_in(self, from_now: Duration) -> Self {
        self.with_deadline(Instant::now() + from_now)
    }

    /// Fills in the node limit only when none is set (used by harness
    /// binaries to layer their defaults under the environment).
    pub fn or_nodes(mut self, limit: u64) -> Self {
        self.node_limit.get_or_insert(limit);
        self
    }

    /// Fills in the wall-clock limit only when none is set.
    pub fn or_time(mut self, limit: Duration) -> Self {
        self.time_limit.get_or_insert(limit);
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

    /// Reads the budget from the process environment.
    ///
    /// Recognised variables:
    ///
    /// | Variable | Meaning |
    /// |----------|---------|
    /// | `BIST_NODE_LIMIT` | node limit per solve (integer ≥ 1) |
    /// | `BIST_TIME_LIMIT_SECS` | wall-clock limit per solve in seconds (fractions allowed, clamped to ≥ 1 ms) |
    /// | `BIST_DEADLINE_SECS` | absolute deadline, given as seconds from now |
    /// | `BIST_SNAPSHOT` | snapshot capture on early stop: `1`/`true`/`on` or `0`/`false`/`off` |
    ///
    /// Unset variables leave the corresponding limit unset. Malformed values
    /// are an error — they are *not* silently replaced by defaults, so a
    /// typo in a CI configuration fails loudly instead of running with the
    /// wrong budget. So is any other variable whose name starts with
    /// `BIST_`: a misspelt or retired name (such as the old
    /// `BIST_SWEEP_NODES`) would otherwise run with the default budget.
    ///
    /// # Errors
    ///
    /// Returns a [`BudgetError`] naming the offending variable and value.
    pub fn from_env() -> Result<Self, BudgetError> {
        Self::from_vars(std::env::vars_os().filter_map(|(name, value)| {
            Some((name.into_string().ok()?, value.into_string().ok()?))
        }))
    }

    /// The testable core of [`Budget::from_env`]: the same rules over an
    /// arbitrary set of `(name, value)` variables. Variables outside the
    /// `BIST_` prefix are ignored; an unknown `BIST_*` name is an error
    /// (the alphabetically first, when there are several).
    ///
    /// # Errors
    ///
    /// Same contract as [`Budget::from_env`].
    pub fn from_vars(
        vars: impl IntoIterator<Item = (String, String)>,
    ) -> Result<Self, BudgetError> {
        let vars: BTreeMap<String, String> = vars
            .into_iter()
            .filter(|(name, _)| name.starts_with("BIST_"))
            .collect();
        if let Some((name, value)) = vars.iter().find(|(name, _)| !Self::reads(name)) {
            return Err(BudgetError::new(
                name,
                value,
                "unknown budget variable; expected BIST_NODE_LIMIT, BIST_TIME_LIMIT_SECS, \
                 BIST_DEADLINE_SECS or BIST_SNAPSHOT",
            ));
        }
        Self::from_lookup(|key| vars.get(key).cloned())
    }

    /// Whether `name` is one of the variables [`Budget::from_lookup`]
    /// reads.
    fn reads(name: &str) -> bool {
        matches!(
            name,
            "BIST_NODE_LIMIT" | "BIST_TIME_LIMIT_SECS" | "BIST_DEADLINE_SECS" | "BIST_SNAPSHOT"
        )
    }

    /// The parsing rules of [`Budget::from_env`] over an arbitrary variable
    /// lookup. It asks only for the names it reads, so unlike
    /// [`Budget::from_vars`] it cannot reject an unknown one.
    ///
    /// # Errors
    ///
    /// Same contract as [`Budget::from_env`], unknown names aside.
    pub fn from_lookup(get: impl Fn(&str) -> Option<String>) -> Result<Self, BudgetError> {
        let mut budget = Budget::unlimited();
        if let Some(raw) = get("BIST_NODE_LIMIT") {
            let nodes: u64 = raw
                .trim()
                .parse()
                .map_err(|_| BudgetError::new("BIST_NODE_LIMIT", &raw, "expected an integer"))?;
            if nodes == 0 {
                return Err(BudgetError::new(
                    "BIST_NODE_LIMIT",
                    &raw,
                    "node limit must be at least 1",
                ));
            }
            budget.node_limit = Some(nodes);
        }
        if let Some(raw) = get("BIST_TIME_LIMIT_SECS") {
            let secs = parse_seconds("BIST_TIME_LIMIT_SECS", &raw)?;
            budget.time_limit = Some(Duration::from_secs_f64(secs).max(MIN_TIME_LIMIT));
        }
        if let Some(raw) = get("BIST_DEADLINE_SECS") {
            let secs = parse_seconds("BIST_DEADLINE_SECS", &raw)?;
            budget.deadline = Some(Instant::now() + Duration::from_secs_f64(secs));
        }
        if let Some(raw) = get("BIST_SNAPSHOT") {
            budget.snapshot = Some(match raw.trim() {
                "1" | "true" | "on" => true,
                "0" | "false" | "off" => false,
                _ => {
                    return Err(BudgetError::new(
                        "BIST_SNAPSHOT",
                        &raw,
                        "expected 0/1, true/false or on/off",
                    ))
                }
            });
        }
        Ok(budget)
    }
}

fn parse_seconds(var: &str, raw: &str) -> Result<f64, BudgetError> {
    let secs: f64 = raw
        .trim()
        .parse()
        .map_err(|_| BudgetError::new(var, raw, "expected a number of seconds"))?;
    if !secs.is_finite() || secs < 0.0 {
        return Err(BudgetError::new(
            var,
            raw,
            "seconds must be finite and non-negative",
        ));
    }
    if secs > MAX_BUDGET_SECS {
        return Err(BudgetError::new(
            var,
            raw,
            "seconds exceed the supported maximum (1e9)",
        ));
    }
    Ok(secs)
}

/// A malformed budget variable in the environment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BudgetError {
    /// The environment variable that failed to parse.
    pub var: String,
    /// Its raw value.
    pub value: String,
    /// What was expected.
    pub reason: String,
}

impl BudgetError {
    fn new(var: &str, value: &str, reason: &str) -> Self {
        Self {
            var: var.to_string(),
            value: value.to_string(),
            reason: reason.to_string(),
        }
    }
}

impl fmt::Display for BudgetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid {}={:?}: {}", self.var, self.value, self.reason)
    }
}

impl std::error::Error for BudgetError {}

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

    fn lookup<'a>(pairs: &'a [(&'a str, &'a str)]) -> impl Fn(&str) -> Option<String> + 'a {
        move |key| {
            pairs
                .iter()
                .find(|(k, _)| *k == key)
                .map(|(_, v)| v.to_string())
        }
    }

    #[test]
    fn budget_from_lookup_defaults_to_unlimited() {
        let budget = Budget::from_lookup(lookup(&[])).unwrap();
        assert!(budget.is_unlimited());
        assert!(!budget.nodes_exhausted(u64::MAX - 1));
        assert!(!budget.time_expired(Instant::now()));
    }

    #[test]
    fn budget_parse_failures_name_the_variable() {
        let err = Budget::from_lookup(lookup(&[("BIST_NODE_LIMIT", "lots")])).unwrap_err();
        assert_eq!(err.var, "BIST_NODE_LIMIT");
        assert!(err.to_string().contains("lots"));
        let err = Budget::from_lookup(lookup(&[("BIST_NODE_LIMIT", "0")])).unwrap_err();
        assert!(err.reason.contains("at least 1"));
        let err = Budget::from_lookup(lookup(&[("BIST_TIME_LIMIT_SECS", "fast")])).unwrap_err();
        assert_eq!(err.var, "BIST_TIME_LIMIT_SECS");
        let err = Budget::from_lookup(lookup(&[("BIST_TIME_LIMIT_SECS", "-3")])).unwrap_err();
        assert!(err.reason.contains("non-negative"));
        let err = Budget::from_lookup(lookup(&[("BIST_DEADLINE_SECS", "inf")])).unwrap_err();
        assert_eq!(err.var, "BIST_DEADLINE_SECS");
        // Values `Duration::from_secs_f64` would panic on must come back as
        // errors, not panics.
        let err = Budget::from_lookup(lookup(&[("BIST_TIME_LIMIT_SECS", "1e20")])).unwrap_err();
        assert!(err.reason.contains("maximum"));
        let err = Budget::from_lookup(lookup(&[("BIST_DEADLINE_SECS", "1e20")])).unwrap_err();
        assert!(err.reason.contains("maximum"));
    }

    #[test]
    fn budget_snapshot_knob_parses_strictly() {
        let unset = Budget::from_lookup(lookup(&[])).unwrap();
        assert_eq!(unset.snapshot, None);

        let set = Budget::from_lookup(lookup(&[("BIST_SNAPSHOT", "1")])).unwrap();
        assert_eq!(set.snapshot, Some(true));
        let off = Budget::from_lookup(lookup(&[("BIST_SNAPSHOT", "off")])).unwrap();
        assert_eq!(off.snapshot, Some(false));
        for raw in ["true", "on"] {
            let b = Budget::from_lookup(lookup(&[("BIST_SNAPSHOT", raw)])).unwrap();
            assert_eq!(b.snapshot, Some(true), "{raw}");
        }
        for raw in ["false", "0"] {
            let b = Budget::from_lookup(lookup(&[("BIST_SNAPSHOT", raw)])).unwrap();
            assert_eq!(b.snapshot, Some(false), "{raw}");
        }

        // A malformed value fails loudly, naming the variable.
        let err = Budget::from_lookup(lookup(&[("BIST_SNAPSHOT", "yes")])).unwrap_err();
        assert_eq!(err.var, "BIST_SNAPSHOT");
        assert!(err.to_string().contains("yes"));
        assert!(err.reason.contains("true/false"));
    }

    #[test]
    fn unknown_bist_variables_fail_loudly() {
        let vars = |pairs: &[(&str, &str)]| {
            Budget::from_vars(pairs.iter().map(|&(k, v)| (k.to_string(), v.to_string())))
        };
        // The retired node-budget alias alone is rejected with its name and
        // value, instead of running with the default budget.
        let err = vars(&[("BIST_SWEEP_NODES", "50")]).unwrap_err();
        assert_eq!(
            (err.var.as_str(), err.value.as_str()),
            ("BIST_SWEEP_NODES", "50")
        );
        assert!(err.reason.contains("unknown"), "{err}");
        // An unknown name fails even next to a valid known one.
        let err = vars(&[("BIST_NODE_LIMIT", "50"), ("BIST_NODE_LIMT", "50")]).unwrap_err();
        assert_eq!(err.var, "BIST_NODE_LIMT");
        // So does the retired solve-cache size: a batch's cache is sized
        // through the job service, not the budget.
        let err = vars(&[("BIST_CACHE_MB", "8")]).unwrap_err();
        assert_eq!(
            (err.var.as_str(), err.value.as_str()),
            ("BIST_CACHE_MB", "8")
        );
        assert!(err.reason.contains("unknown"), "{err}");
        // The four known names still parse, and other variables are no
        // business of the budget.
        let budget = vars(&[
            ("BIST_NODE_LIMIT", "50"),
            ("BIST_TIME_LIMIT_SECS", "2.5"),
            ("BIST_DEADLINE_SECS", "60"),
            ("BIST_SNAPSHOT", "on"),
            ("PATH", "/bin"),
            ("XBIST_NODE_LIMIT", "x"),
        ])
        .unwrap();
        assert_eq!(budget.node_limit, Some(50));
        assert_eq!(budget.time_limit, Some(Duration::from_secs_f64(2.5)));
        assert!(budget.deadline.is_some());
        assert_eq!(budget.snapshot, Some(true));
        assert!(vars(&[]).unwrap().is_unlimited());
        // Malformed values of known names keep their own diagnostics.
        let err = vars(&[("BIST_NODE_LIMIT", "garbage")]).unwrap_err();
        assert_eq!(err.var, "BIST_NODE_LIMIT");
    }

    #[test]
    fn budget_determinism_ignores_policy_knobs() {
        assert!(Budget::nodes(10).is_deterministic());
        assert!(Budget::nodes(10).with_snapshot(true).is_deterministic());
        assert!(!Budget::time(Duration::from_secs(1)).is_deterministic());
        assert!(!Budget::nodes(10)
            .with_deadline_in(Duration::from_secs(1))
            .is_deterministic());
        // The snapshot switch does not make an unlimited budget "limited".
        assert!(Budget::unlimited().with_snapshot(true).is_unlimited());
    }

    #[test]
    fn budget_time_values_are_clamped_and_deadline_is_absolute() {
        let budget = Budget::from_lookup(lookup(&[
            ("BIST_TIME_LIMIT_SECS", "0"),
            ("BIST_DEADLINE_SECS", "0"),
        ]))
        .unwrap();
        assert_eq!(budget.time_limit, Some(MIN_TIME_LIMIT));
        assert!(budget.deadline_passed());
    }

    #[test]
    fn budget_or_combinators_only_fill_gaps() {
        let budget = Budget::nodes(5)
            .or_nodes(100)
            .or_time(Duration::from_secs(9));
        assert_eq!(budget.node_limit, Some(5));
        assert_eq!(budget.time_limit, Some(Duration::from_secs(9)));
        assert!(budget.nodes_exhausted(5));
        assert!(!budget.nodes_exhausted(4));
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
