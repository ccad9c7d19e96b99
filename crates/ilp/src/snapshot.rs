//! Serializable solve-state snapshots for resumable branch-and-bound.
//!
//! A [`SolveSnapshot`] is everything the [`crate::solver::BranchAndBound`]
//! search needs to *continue the same tree* in another process: the open-node
//! frontier (as per-node bound deltas against the model box), the incumbent,
//! the global-bound bookkeeping, the pseudo-cost tables, the accepted cut
//! pool, and the warm [`Basis`] eta files of the node-basis cache. Snapshots
//! are produced by an interrupted or limit-stopped solve when
//! [`crate::SolverConfig::snapshot`] is on, and consumed by
//! [`crate::SolverConfig::resume`] / [`crate::SolveSession::resume`].
//!
//! # Exactness
//!
//! Resuming must be **results-neutral**: a solve that runs `c` nodes, is
//! snapshotted, and resumes for the remaining budget must visit the same
//! nodes, find the same incumbents and prove the same objective as an
//! uninterrupted run: the depth-first stack is restored verbatim. Every
//! `f64` is therefore serialized as its [`f64::to_bits`] integer through the
//! exact-integer [`crate::json`] layer — a decimal round-trip that moved a
//! bound by one ulp would change pruning decisions.
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

use std::fmt;

use crate::cuts::{CutKind, CutRow};
use crate::json::Value;
use crate::model::{Model, Sense};
use crate::simplex::{instance_fingerprint, Basis};
use crate::sparse::SparseModel;

/// Content fingerprint of a model: a hash over the sparse constraint
/// matrix, the variable boxes and kinds, and the internal
/// (minimisation-sense) objective with its constant. Two models that are
/// structurally and numerically identical collide; a single changed
/// coefficient, bound, kind or objective weight separates them. This is
/// the identity the `advbist` job-service cache keys on. (It is *not* the
/// same hash a [`SolveSnapshot`] records — snapshots fingerprint the
/// possibly presolve-reduced instance the tree was actually built on.)
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
    for var in model.vars() {
        crate::sparse::fnv_fold(&mut h, var.kind.lower().to_bits());
        crate::sparse::fnv_fold(&mut h, var.kind.upper().to_bits());
        crate::sparse::fnv_fold(&mut h, u64::from(var.kind.is_integral()));
    }
    h
}

/// Snapshot format version; bumped on any layout change so a stale file
/// fails loudly instead of deserializing garbage. Version 2 added the
/// Gomory / lifted-cover / no-good cut kinds, the `pending_cuts` batch, the
/// per-node `ng` (no-good learning allowed) flag and the `eager_separation`
/// schedule flag; version-1 documents (which cannot contain any of those)
/// still load, with an empty pending batch and the conservative defaults.
pub const FORMAT_VERSION: u64 = 2;

/// Oldest snapshot version the parser still accepts.
pub const MIN_FORMAT_VERSION: u64 = 1;

/// The `search` value of every snapshot: the solver explores its tree
/// depth-first. Older solvers could also write `"best_first"`; such
/// documents are rejected on load.
const DEPTH_FIRST: &str = "depth_first";

/// A malformed, inconsistent or incompatible snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotError {
    /// What went wrong.
    pub message: String,
}

impl SnapshotError {
    pub(crate) fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }

    pub(crate) fn field(key: &str) -> Self {
        Self::new(format!("missing or mistyped field `{key}`"))
    }
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid solve snapshot: {}", self.message)
    }
}

impl std::error::Error for SnapshotError {}

// ---------------------------------------------------------------------------
// Encoding helpers shared with `simplex::Basis`'s snapshot methods.
// ---------------------------------------------------------------------------

/// Encodes an `f64` as its exact bit pattern.
pub(crate) fn bits(f: f64) -> Value {
    Value::Int(f.to_bits())
}

/// Encodes a slice of `f64`s as an array of bit patterns.
pub(crate) fn bits_array(fs: &[f64]) -> Value {
    Value::Array(fs.iter().map(|&f| bits(f)).collect())
}

/// Reads an exact `u64` field.
pub(crate) fn get_u64(v: &Value, key: &str) -> Result<u64, SnapshotError> {
    v.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| SnapshotError::field(key))
}

/// Reads a `usize` field.
pub(crate) fn get_usize(v: &Value, key: &str) -> Result<usize, SnapshotError> {
    usize::try_from(get_u64(v, key)?).map_err(|_| SnapshotError::field(key))
}

/// Reads an `f64` field stored as its bit pattern.
pub(crate) fn get_f64_bits(v: &Value, key: &str) -> Result<f64, SnapshotError> {
    Ok(f64::from_bits(get_u64(v, key)?))
}

/// Reads an array field.
pub(crate) fn get_array<'v>(v: &'v Value, key: &str) -> Result<&'v [Value], SnapshotError> {
    v.get(key)
        .and_then(Value::as_array)
        .ok_or_else(|| SnapshotError::field(key))
}

/// Decodes an array of bit-pattern `f64`s.
pub(crate) fn f64s_from(items: &[Value], key: &str) -> Result<Vec<f64>, SnapshotError> {
    items
        .iter()
        .map(|item| {
            item.as_u64()
                .map(f64::from_bits)
                .ok_or_else(|| SnapshotError::field(key))
        })
        .collect()
}

fn u64s_from(items: &[Value], key: &str) -> Result<Vec<u64>, SnapshotError> {
    items
        .iter()
        .map(|item| item.as_u64().ok_or_else(|| SnapshotError::field(key)))
        .collect()
}

fn opt_u64(v: Option<&Value>, key: &str) -> Result<Option<u64>, SnapshotError> {
    match v {
        None => Err(SnapshotError::field(key)),
        Some(Value::Null) => Ok(None),
        Some(value) => value
            .as_u64()
            .map(Some)
            .ok_or_else(|| SnapshotError::field(key)),
    }
}

fn get_bool(v: &Value, key: &str) -> Result<bool, SnapshotError> {
    v.get(key)
        .and_then(Value::as_bool)
        .ok_or_else(|| SnapshotError::field(key))
}

/// Encodes a cut pool (terms with bit-exact coefficients, rhs, kind tag).
fn cuts_value(cuts: &[CutRow]) -> Value {
    Value::Array(
        cuts.iter()
            .map(|cut| {
                Value::Object(vec![
                    (
                        "terms".into(),
                        Value::Array(
                            cut.terms
                                .iter()
                                .map(|&(j, a)| Value::Array(vec![Value::Int(j as u64), bits(a)]))
                                .collect(),
                        ),
                    ),
                    ("rhs".into(), bits(cut.rhs)),
                    (
                        "kind".into(),
                        Value::Str(
                            match cut.kind {
                                CutKind::Cover => "cover",
                                CutKind::Clique => "clique",
                                CutKind::Gomory => "gomory",
                                CutKind::LiftedCover => "lifted_cover",
                                CutKind::NoGood => "nogood",
                            }
                            .into(),
                        ),
                    ),
                ])
            })
            .collect(),
    )
}

/// Decodes a cut pool serialized by [`cuts_value`].
fn cuts_from(items: &[Value]) -> Result<Vec<CutRow>, SnapshotError> {
    let mut cuts = Vec::new();
    for cut in items {
        let mut terms = Vec::new();
        for term in get_array(cut, "terms")? {
            match term.as_array() {
                Some([j, a]) => terms.push((
                    usize::try_from(j.as_u64().ok_or_else(|| SnapshotError::field("terms"))?)
                        .map_err(|_| SnapshotError::field("terms"))?,
                    f64::from_bits(a.as_u64().ok_or_else(|| SnapshotError::field("terms"))?),
                )),
                _ => return Err(SnapshotError::field("terms")),
            }
        }
        let kind = match cut.get("kind").and_then(Value::as_str) {
            Some("cover") => CutKind::Cover,
            Some("clique") => CutKind::Clique,
            Some("gomory") => CutKind::Gomory,
            Some("lifted_cover") => CutKind::LiftedCover,
            Some("nogood") => CutKind::NoGood,
            _ => return Err(SnapshotError::field("kind")),
        };
        cuts.push(CutRow {
            terms,
            rhs: get_f64_bits(cut, "rhs")?,
            kind,
        });
    }
    Ok(cuts)
}

// ---------------------------------------------------------------------------
// Snapshot data
// ---------------------------------------------------------------------------

/// One open node of the serialized frontier. Domains are stored as deltas
/// against the model's root box: only the `(variable, lower, upper)` triples
/// that differ (branching decisions, propagation tightenings, reduced-cost
/// fixings), which keeps deep-tree snapshots small.
#[derive(Debug, Clone)]
pub(crate) struct SnapshotNode {
    /// `(variable index, lower bits, upper bits)` for every bound that
    /// differs from the model box.
    pub(crate) deltas: Vec<(usize, f64, f64)>,
    pub(crate) depth: usize,
    pub(crate) bound: f64,
    pub(crate) branched: Option<usize>,
    pub(crate) parent_basis: Option<u64>,
    pub(crate) parent_bound_is_lp: bool,
    pub(crate) branch_up: bool,
    pub(crate) branch_step: f64,
    /// Whether the node's whole decision path consists of binary fixings
    /// untainted by incumbent-dependent (reduced-cost) tightenings — the
    /// eligibility condition for learning a globally valid no-good from an
    /// infeasibility refutation. Wire key `"ng"`; absent in v1 snapshots,
    /// which parse as `false` so restored v1 nodes never learn.
    pub(crate) nogood_ok: bool,
}

impl SnapshotNode {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            (
                "deltas".into(),
                Value::Array(
                    self.deltas
                        .iter()
                        .map(|&(j, lo, hi)| {
                            Value::Array(vec![Value::Int(j as u64), bits(lo), bits(hi)])
                        })
                        .collect(),
                ),
            ),
            ("depth".into(), Value::Int(self.depth as u64)),
            ("bound".into(), bits(self.bound)),
            (
                "branched".into(),
                match self.branched {
                    Some(j) => Value::Int(j as u64),
                    None => Value::Null,
                },
            ),
            (
                "parent_basis".into(),
                match self.parent_basis {
                    Some(k) => Value::Int(k),
                    None => Value::Null,
                },
            ),
            ("lp".into(), Value::Bool(self.parent_bound_is_lp)),
            ("up".into(), Value::Bool(self.branch_up)),
            ("step".into(), bits(self.branch_step)),
            ("ng".into(), Value::Bool(self.nogood_ok)),
        ])
    }

    fn from_value(v: &Value) -> Result<Self, SnapshotError> {
        let mut deltas = Vec::new();
        for item in get_array(v, "deltas")? {
            let triple = item
                .as_array()
                .ok_or_else(|| SnapshotError::field("deltas"))?;
            match triple {
                [j, lo, hi] => deltas.push((
                    usize::try_from(j.as_u64().ok_or_else(|| SnapshotError::field("deltas"))?)
                        .map_err(|_| SnapshotError::field("deltas"))?,
                    f64::from_bits(lo.as_u64().ok_or_else(|| SnapshotError::field("deltas"))?),
                    f64::from_bits(hi.as_u64().ok_or_else(|| SnapshotError::field("deltas"))?),
                )),
                _ => return Err(SnapshotError::field("deltas")),
            }
        }
        Ok(Self {
            deltas,
            depth: get_usize(v, "depth")?,
            bound: get_f64_bits(v, "bound")?,
            branched: opt_u64(v.get("branched"), "branched")?
                .map(|j| usize::try_from(j).map_err(|_| SnapshotError::field("branched")))
                .transpose()?,
            parent_basis: opt_u64(v.get("parent_basis"), "parent_basis")?,
            parent_bound_is_lp: get_bool(v, "lp")?,
            branch_up: get_bool(v, "up")?,
            branch_step: get_f64_bits(v, "step")?,
            nogood_ok: v.get("ng").and_then(Value::as_bool).unwrap_or(false),
        })
    }
}

/// The pseudo-cost tables of the branching rule at capture time.
#[derive(Debug, Clone, Default)]
pub(crate) struct PseudoSnapshot {
    pub(crate) up_sum: Vec<f64>,
    pub(crate) up_cnt: Vec<u32>,
    pub(crate) down_sum: Vec<f64>,
    pub(crate) down_cnt: Vec<u32>,
    pub(crate) global_sum: [f64; 2],
    pub(crate) global_cnt: [u32; 2],
}

impl PseudoSnapshot {
    fn to_value(&self) -> Value {
        let cnts = |c: &[u32]| Value::Array(c.iter().map(|&n| Value::Int(u64::from(n))).collect());
        Value::Object(vec![
            ("up_sum".into(), bits_array(&self.up_sum)),
            ("up_cnt".into(), cnts(&self.up_cnt)),
            ("down_sum".into(), bits_array(&self.down_sum)),
            ("down_cnt".into(), cnts(&self.down_cnt)),
            ("global_sum".into(), bits_array(&self.global_sum)),
            ("global_cnt".into(), cnts(&self.global_cnt)),
        ])
    }

    fn from_value(v: &Value) -> Result<Self, SnapshotError> {
        let cnts = |key: &str| -> Result<Vec<u32>, SnapshotError> {
            u64s_from(get_array(v, key)?, key)?
                .into_iter()
                .map(|n| u32::try_from(n).map_err(|_| SnapshotError::field("pseudo counts")))
                .collect()
        };
        let global_sum = f64s_from(get_array(v, "global_sum")?, "global_sum")?;
        let global_cnt = cnts("global_cnt")?;
        if global_sum.len() != 2 || global_cnt.len() != 2 {
            return Err(SnapshotError::field("pseudo globals"));
        }
        Ok(Self {
            up_sum: f64s_from(get_array(v, "up_sum")?, "up_sum")?,
            up_cnt: cnts("up_cnt")?,
            down_sum: f64s_from(get_array(v, "down_sum")?, "down_sum")?,
            down_cnt: cnts("down_cnt")?,
            global_sum: [global_sum[0], global_sum[1]],
            global_cnt: [global_cnt[0], global_cnt[1]],
        })
    }
}

/// The cut loop's cached root relaxation, if one was still pending for the
/// root node when the solve stopped (an interrupt before the first pop).
#[derive(Debug, Clone)]
pub(crate) struct RootLpSnapshot {
    pub(crate) objective: f64,
    pub(crate) values: Vec<f64>,
    /// `(up, down)` reduced-cost vectors, when the warm path produced them.
    pub(crate) reduced_costs: Option<(Vec<f64>, Vec<f64>)>,
    pub(crate) pivots: u64,
}

impl RootLpSnapshot {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("objective".into(), bits(self.objective)),
            ("values".into(), bits_array(&self.values)),
            (
                "rc_up".into(),
                match &self.reduced_costs {
                    Some((up, _)) => bits_array(up),
                    None => Value::Null,
                },
            ),
            (
                "rc_down".into(),
                match &self.reduced_costs {
                    Some((_, down)) => bits_array(down),
                    None => Value::Null,
                },
            ),
            ("pivots".into(), Value::Int(self.pivots)),
        ])
    }

    fn from_value(v: &Value) -> Result<Self, SnapshotError> {
        let reduced_costs = match (v.get("rc_up"), v.get("rc_down")) {
            (Some(Value::Null), Some(Value::Null)) => None,
            (Some(up), Some(down)) => Some((
                f64s_from(
                    up.as_array().ok_or_else(|| SnapshotError::field("rc_up"))?,
                    "rc_up",
                )?,
                f64s_from(
                    down.as_array()
                        .ok_or_else(|| SnapshotError::field("rc_down"))?,
                    "rc_down",
                )?,
            )),
            _ => return Err(SnapshotError::field("rc_up")),
        };
        Ok(Self {
            objective: get_f64_bits(v, "objective")?,
            values: f64s_from(get_array(v, "values")?, "values")?,
            reduced_costs,
            pivots: get_u64(v, "pivots")?,
        })
    }
}

/// A serializable checkpoint of an interrupted branch-and-bound search. See
/// the [module documentation](self) for the exactness and validity
/// contracts, and the repository README for the JSON shape.
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
    /// eagerly (chained warm-started solves). Absent in v1 snapshots, where
    /// it defaults to `false` — the conservative late-separation schedule.
    pub(crate) eager_separation: bool,
    /// Accepted cut pool; reinstalled into the row set before the frontier
    /// is restored.
    pub(crate) cuts: Vec<CutRow>,
    /// Learned cuts (conflict no-goods) batched but not yet flushed into
    /// the row set when the solve stopped; the resumed search flushes them
    /// at the same deterministic trigger the uninterrupted run would have.
    pub(crate) pending_cuts: Vec<CutRow>,
    pub(crate) pseudo: PseudoSnapshot,
    /// Warm basis cache entries as `(cache key, basis)`, oldest first.
    pub(crate) bases: Vec<(u64, Basis)>,
    pub(crate) next_basis_key: u64,
    pub(crate) root_lp: Option<RootLpSnapshot>,
    pub(crate) root_basis_key: Option<u64>,
}

impl SolveSnapshot {
    /// Content fingerprint of the instance this snapshot belongs to (the
    /// same hash [`crate::model_fingerprint`] exposes at the model level,
    /// computed over the reduced model when presolve was on).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Nodes the captured search had explored.
    pub fn nodes(&self) -> u64 {
        self.nodes
    }

    /// Open nodes in the serialized frontier.
    pub fn open_nodes(&self) -> usize {
        self.frontier.len()
    }

    /// Whether an incumbent assignment was in hand at capture.
    pub fn has_incumbent(&self) -> bool {
        self.incumbent.is_some()
    }

    /// Approximate in-memory footprint in bytes (used by the job-service
    /// cache's LRU accounting).
    pub fn approx_bytes(&self) -> usize {
        let node_bytes: usize = self.frontier.iter().map(|n| 64 + 24 * n.deltas.len()).sum();
        let incumbent_bytes = self
            .incumbent
            .as_ref()
            .map_or(0, |(_, values)| 16 + 8 * values.len());
        let cut_bytes: usize = self
            .cuts
            .iter()
            .chain(&self.pending_cuts)
            .map(|c| 24 + 16 * c.terms.len())
            .sum();
        let pseudo_bytes = 12 * self.pseudo.up_sum.len() + 12 * self.pseudo.down_sum.len();
        let basis_bytes: usize = self.bases.iter().map(|(_, b)| 16 + 12 * b.cells()).sum();
        let root_lp_bytes = self.root_lp.as_ref().map_or(0, |lp| {
            8 * lp.values.len()
                + lp.reduced_costs
                    .as_ref()
                    .map_or(0, |(up, down)| 8 * (up.len() + down.len()))
        });
        128 + node_bytes + incumbent_bytes + cut_bytes + pseudo_bytes + basis_bytes + root_lp_bytes
    }

    /// Internal consistency check, run before serialization and after
    /// parsing, so a corrupt snapshot is rejected loudly at the boundary
    /// instead of crashing (or silently mis-resuming) inside the solver.
    fn validate(&self) -> Result<(), SnapshotError> {
        let n = self.num_vars;
        if n == 0 {
            return Err(SnapshotError::new("num_vars must be positive"));
        }
        for node in &self.frontier {
            if node.deltas.iter().any(|&(j, _, _)| j >= n) {
                return Err(SnapshotError::new("frontier delta variable out of range"));
            }
            if node.branched.is_some_and(|j| j >= n) {
                return Err(SnapshotError::new("branched variable out of range"));
            }
        }
        if let Some((_, values)) = &self.incumbent {
            if values.len() != n {
                return Err(SnapshotError::new("incumbent length mismatch"));
            }
        }
        if self.pseudo.up_sum.len() != n
            || self.pseudo.up_cnt.len() != n
            || self.pseudo.down_sum.len() != n
            || self.pseudo.down_cnt.len() != n
        {
            return Err(SnapshotError::new("pseudo-cost table length mismatch"));
        }
        for cut in self.cuts.iter().chain(&self.pending_cuts) {
            if cut.terms.iter().any(|&(j, _)| j >= n) {
                return Err(SnapshotError::new("cut term variable out of range"));
            }
        }
        if let Some(lp) = &self.root_lp {
            if lp.values.len() != n {
                return Err(SnapshotError::new("root LP length mismatch"));
            }
        }
        Ok(())
    }

    /// Serialises the snapshot as a single-line JSON document.
    ///
    /// # Errors
    ///
    /// Returns a [`SnapshotError`] when the snapshot is internally
    /// inconsistent (a bug or memory corruption) — callers are expected to
    /// surface this loudly rather than drop the solve state.
    pub fn to_json(&self) -> Result<String, SnapshotError> {
        self.validate()?;
        let doc = Value::Object(vec![
            ("version".into(), Value::Int(FORMAT_VERSION)),
            ("fingerprint".into(), Value::Int(self.fingerprint)),
            ("num_vars".into(), Value::Int(self.num_vars as u64)),
            ("search".into(), Value::Str(DEPTH_FIRST.into())),
            ("nodes".into(), Value::Int(self.nodes)),
            ("root_bound".into(), bits(self.root_bound)),
            ("pruned_bound_min".into(), bits(self.pruned_bound_min)),
            ("last_bound_emitted".into(), bits(self.last_bound_emitted)),
            (
                "tree_separations_left".into(),
                Value::Int(self.tree_separations_left as u64),
            ),
            (
                "eager_separation".into(),
                Value::Bool(self.eager_separation),
            ),
            (
                "incumbent".into(),
                match &self.incumbent {
                    Some((objective, values)) => Value::Object(vec![
                        ("objective".into(), bits(*objective)),
                        ("values".into(), bits_array(values)),
                    ]),
                    None => Value::Null,
                },
            ),
            (
                "frontier".into(),
                Value::Array(self.frontier.iter().map(SnapshotNode::to_value).collect()),
            ),
            ("cuts".into(), cuts_value(&self.cuts)),
            ("pending_cuts".into(), cuts_value(&self.pending_cuts)),
            ("pseudo".into(), self.pseudo.to_value()),
            (
                "bases".into(),
                Value::Array(
                    self.bases
                        .iter()
                        .map(|(key, basis)| {
                            Value::Object(vec![
                                ("key".into(), Value::Int(*key)),
                                ("basis".into(), basis.snapshot_value()),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("next_basis_key".into(), Value::Int(self.next_basis_key)),
            (
                "root_lp".into(),
                match &self.root_lp {
                    Some(lp) => lp.to_value(),
                    None => Value::Null,
                },
            ),
            (
                "root_basis_key".into(),
                match self.root_basis_key {
                    Some(k) => Value::Int(k),
                    None => Value::Null,
                },
            ),
        ]);
        Ok(doc.write())
    }

    /// Parses a snapshot serialized by [`SolveSnapshot::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a [`SnapshotError`] on malformed JSON, an unknown format
    /// version, or an internally inconsistent document.
    pub fn from_json(text: &str) -> Result<Self, SnapshotError> {
        let doc = Value::parse(text).map_err(|e| SnapshotError::new(e.to_string()))?;
        let version = get_u64(&doc, "version")?;
        if !(MIN_FORMAT_VERSION..=FORMAT_VERSION).contains(&version) {
            return Err(SnapshotError::new(format!(
                "unsupported snapshot version {version} (expected {MIN_FORMAT_VERSION}..={FORMAT_VERSION})"
            )));
        }
        match doc.get("search").and_then(Value::as_str) {
            Some(DEPTH_FIRST) => {}
            Some(other) => {
                return Err(SnapshotError::new(format!(
                    "snapshot was captured under {other:?} search; only {DEPTH_FIRST:?} trees \
                     can be resumed"
                )))
            }
            None => return Err(SnapshotError::field("search")),
        }
        let incumbent = match doc.get("incumbent") {
            Some(Value::Null) => None,
            Some(obj) => Some((
                get_f64_bits(obj, "objective")?,
                f64s_from(get_array(obj, "values")?, "values")?,
            )),
            None => return Err(SnapshotError::field("incumbent")),
        };
        let frontier = get_array(&doc, "frontier")?
            .iter()
            .map(SnapshotNode::from_value)
            .collect::<Result<Vec<_>, _>>()?;
        let cuts = cuts_from(get_array(&doc, "cuts")?)?;
        // Version 1 predates the pending batch: absent means empty.
        let pending_cuts = match doc.get("pending_cuts") {
            Some(value) => cuts_from(
                value
                    .as_array()
                    .ok_or_else(|| SnapshotError::field("pending_cuts"))?,
            )?,
            None => Vec::new(),
        };
        let mut bases = Vec::new();
        for entry in get_array(&doc, "bases")? {
            let key = get_u64(entry, "key")?;
            let basis = Basis::from_snapshot_value(
                entry
                    .get("basis")
                    .ok_or_else(|| SnapshotError::field("basis"))?,
            )?;
            bases.push((key, basis));
        }
        let root_lp = match doc.get("root_lp") {
            Some(Value::Null) => None,
            Some(obj) => Some(RootLpSnapshot::from_value(obj)?),
            None => return Err(SnapshotError::field("root_lp")),
        };
        let snapshot = Self {
            fingerprint: get_u64(&doc, "fingerprint")?,
            num_vars: get_usize(&doc, "num_vars")?,
            nodes: get_u64(&doc, "nodes")?,
            frontier,
            incumbent,
            root_bound: get_f64_bits(&doc, "root_bound")?,
            pruned_bound_min: get_f64_bits(&doc, "pruned_bound_min")?,
            last_bound_emitted: get_f64_bits(&doc, "last_bound_emitted")?,
            tree_separations_left: get_usize(&doc, "tree_separations_left")?,
            // Version 1 predates the eager flag: absent means the
            // conservative late-separation schedule.
            eager_separation: matches!(doc.get("eager_separation"), Some(Value::Bool(true))),
            cuts,
            pending_cuts,
            pseudo: PseudoSnapshot::from_value(
                doc.get("pseudo")
                    .ok_or_else(|| SnapshotError::field("pseudo"))?,
            )?,
            bases,
            next_basis_key: get_u64(&doc, "next_basis_key")?,
            root_lp,
            root_basis_key: opt_u64(doc.get("root_basis_key"), "root_basis_key")?,
        };
        snapshot.validate()?;
        Ok(snapshot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
                    parent_basis: Some(4),
                    parent_bound_is_lp: true,
                    branch_up: true,
                    branch_step: 0.375,
                    nogood_ok: true,
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
                    nogood_ok: false,
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
                    terms: vec![(0, 1.0), (1, 1.0)],
                    rhs: 1.0,
                    kind: CutKind::Clique,
                },
                CutRow {
                    terms: vec![(0, 0.25), (2, -1.5)],
                    rhs: 0.75,
                    kind: CutKind::Gomory,
                },
                CutRow {
                    terms: vec![(0, 1.0), (1, 2.0), (2, 1.0)],
                    rhs: 1.0,
                    kind: CutKind::LiftedCover,
                },
            ],
            pending_cuts: vec![CutRow {
                terms: vec![(0, 1.0), (1, -1.0)],
                rhs: 0.0,
                kind: CutKind::NoGood,
            }],
            pseudo: PseudoSnapshot {
                up_sum: vec![0.1, 0.0, 2.5],
                up_cnt: vec![1, 0, 2],
                down_sum: vec![0.0, 0.3, 0.0],
                down_cnt: vec![0, 1, 0],
                global_sum: [0.3, 2.6],
                global_cnt: [1, 3],
            },
            bases: Vec::new(),
            next_basis_key: 5,
            root_lp: Some(RootLpSnapshot {
                objective: -15.5,
                values: vec![0.5, 0.5, 1.0],
                reduced_costs: Some((vec![0.0, 0.1, 0.0], vec![0.2, 0.0, 0.0])),
                pivots: 42,
            }),
            root_basis_key: None,
        }
    }

    #[test]
    fn json_round_trip_is_bit_exact() {
        let snap = sample();
        let text = snap.to_json().unwrap();
        let back = SolveSnapshot::from_json(&text).unwrap();
        // Field-level equality through a second serialization: the JSON is
        // fully deterministic, so text equality is bit-for-bit state
        // equality (including infinities and signed zeros).
        assert_eq!(back.to_json().unwrap(), text);
        assert_eq!(back.nodes(), 17);
        assert_eq!(back.open_nodes(), 2);
        assert!(back.has_incumbent());
        assert_eq!(back.fingerprint(), snap.fingerprint());
        assert_eq!(back.frontier[1].bound, f64::NEG_INFINITY);
    }

    #[test]
    fn version_and_shape_mismatches_are_loud() {
        let snap = sample();
        let text = snap.to_json().unwrap();
        let wrong_version = text.replacen("\"version\":2", "\"version\":99", 1);
        let err = SolveSnapshot::from_json(&wrong_version).unwrap_err();
        assert!(err.to_string().contains("version 99"), "{err}");
        assert!(SolveSnapshot::from_json("{}").is_err());
        assert!(SolveSnapshot::from_json("not json").is_err());
    }

    #[test]
    fn inconsistent_state_fails_validation_on_both_sides() {
        let mut snap = sample();
        snap.pseudo.up_sum.pop(); // length mismatch vs num_vars
        assert!(snap.to_json().is_err());
        let mut snap = sample();
        snap.frontier[0].deltas.push((99, 0.0, 1.0)); // out of range
        let err = snap.to_json().unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");
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
}
