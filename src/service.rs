//! A concurrent job-service front door for BIST synthesis.
//!
//! This is the first layer of the workspace that can actually *serve
//! traffic*: a batch of [`SynthesisJob`]s (circuit × k-range × budget) is
//! accepted by a [`JobService`], run over a bounded scoped-thread worker
//! pool, and answered with structured [`JobReport`]s in **submission
//! order**, independent of scheduling. Every job carries its own
//! [`Budget`] and gets its own [`CancelToken`] (returned as a
//! [`JobHandle`] at submission), so callers can bound, cancel or
//! deadline-cap individual jobs without touching the rest of the batch.
//!
//! A job runs its k-range on one shared [`SynthesisEngine`] — the circuit
//! base model is built and reduced once per job, on the first `k` the cache
//! cannot answer — and solves each `k` unchained
//! ([`SynthesisEngine::synthesize_seeded`] with no k−1 design), so under a
//! deterministic (node-limited) budget every row equals an independent
//! [`SynthesisEngine::synthesize`] of its `k`.
//!
//! # The cross-job solve cache
//!
//! The service keeps a [`SolveCache`] shared by every worker of a batch
//! (and, via [`JobService::with_cache`], across batches). Each per-k
//! instance is keyed by a hash of the job's own instance — its
//! [`SynthesisInput`] and the configuration fields the model is built
//! from (cost model, register count, input timing, search-space
//! reduction) — with `k` folded in, plus a digest of the solver
//! configuration, so two jobs that submit the same circuit × k × config
//! pay for one solve. The key comes from the job, not from a built model:
//! a job whose every `k` hits never builds an engine, so a hit costs a hash
//! and a lookup. The cache stores two kinds of entries:
//!
//! * **finished rows** — the deterministic result of a completed (or
//!   node-budget-exhausted) solve, keyed additionally by the node limit;
//!   a hit replays the row verbatim without touching the solver,
//! * **solve snapshots** — the resumable frontier of an interrupted solve
//!   (see [`bist_ilp::SolveSnapshot`]), held in memory as the very
//!   `Arc<SolveSnapshot>` the solve captured; a hit *continues* the
//!   snapshotted branch-and-bound tree instead of starting over, so no
//!   node is ever explored twice. The solver checks a resumed snapshot
//!   against the fingerprint of the instance it solves. A resumed solve
//!   counts nodes from the capture point, so a snapshot that has explored
//!   more nodes than the job's node limit is a miss.
//!
//! The cache changes performance, never results: entries are only consulted
//! for **deterministic** budgets ([`Budget::is_deterministic`] — no
//! wall-clock limit, no deadline), a hit is bit-identical to the solve it
//! replaced, and memory is bounded by an LRU budget
//! ([`SolveCache::DEFAULT_CAPACITY_MB`] for a batch's own cache, or the
//! capacity of the one passed to [`JobService::with_cache`]).
//! Snapshot capture is opt-in per job via [`Budget::snapshot`]
//! (`Some(true)` captures). Snapshots live only in
//! the cache of the running process; nothing writes them out.
//! Hit/miss/eviction counters are reported per job on the [`JobReport`]
//! and globally via [`SolveCache::stats`].
//!
//! ```
//! use advbist::dfg::benchmarks;
//! use advbist::service::{JobService, SynthesisJob};
//! use advbist::{core::SynthesisConfig, Budget};
//!
//! let mut service = JobService::new().with_workers(2);
//! let handle = service.submit(
//!     SynthesisJob::new("figure1", benchmarks::figure1())
//!         .with_config(SynthesisConfig::exact())
//!         .with_budget(Budget::nodes(500)),
//! );
//! assert_eq!(handle.index(), 0);
//! let reports = service.run();
//! assert_eq!(reports.len(), 1);
//! assert!(reports[0].outcome.is_completed());
//! // One row per k-test session, in ascending k order.
//! assert_eq!(reports[0].rows.len(), 2);
//! ```

use std::ops::RangeInclusive;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use bist_core::engine::SynthesisEngine;
use bist_core::{CoreError, SynthesisConfig};
use bist_dfg::SynthesisInput;
use bist_ilp::{par_map_ordered, Budget, CancelToken, SolveSnapshot};

/// One unit of work for the service: a circuit, the k-test sessions to
/// synthesise and the synthesis configuration, whose solver budget is the
/// job's.
#[derive(Debug, Clone)]
pub struct SynthesisJob {
    /// Caller-chosen job name, echoed in the [`JobReport`].
    pub name: String,
    /// The scheduled, bound data-flow graph to synthesise for.
    pub input: SynthesisInput,
    /// The k-range to sweep; `None` means the full `1..=N` sweep (`N` =
    /// number of modules).
    pub sessions: Option<RangeInclusive<usize>>,
    /// Synthesis configuration (cost model, warm starts, solver options).
    /// `config.solver.budget` is the job's budget: its node and wall-clock
    /// limits apply to each ILP solve of the job, and its absolute deadline
    /// spans the whole job (every solve shares it, and remaining k values
    /// are skipped once it passes). The solver's cancellation slot is
    /// overwritten by the job's own token when the job runs.
    pub config: SynthesisConfig,
}

impl SynthesisJob {
    /// A job synthesising every k-test session of `input` under the
    /// default configuration and its budget.
    pub fn new(name: impl Into<String>, input: SynthesisInput) -> Self {
        Self {
            name: name.into(),
            input,
            sessions: None,
            config: SynthesisConfig::default(),
        }
    }

    /// Restricts the job to the given k-range.
    pub fn with_sessions(mut self, sessions: RangeInclusive<usize>) -> Self {
        self.sessions = Some(sessions);
        self
    }

    /// Sets the job's budget, `config.solver.budget`.
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.config.solver.budget = budget;
        self
    }

    /// Replaces the synthesis configuration, budget included: a job
    /// configured with, say,
    /// [`SynthesisConfig::exact`](bist_core::SynthesisConfig::exact) runs
    /// unlimited. Call [`SynthesisJob::with_budget`] *after* this to
    /// override the budget independently.
    pub fn with_config(mut self, config: SynthesisConfig) -> Self {
        self.config = config;
        self
    }
}

/// How a job ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobOutcome {
    /// Every requested k was synthesised.
    Completed,
    /// The job's [`CancelToken`] was raised; rows synthesised before the
    /// cancellation are kept.
    Cancelled,
    /// The job's absolute deadline passed; rows synthesised before the
    /// deadline are kept.
    DeadlineExpired,
    /// A synthesis failed (infeasible instance, invalid k, limits expired
    /// with no design, ...) or the job panicked. The message is the
    /// underlying error or the panic message; a panicked job reports no
    /// rows.
    Failed(String),
}

impl JobOutcome {
    /// Whether the job ran to completion.
    pub fn is_completed(&self) -> bool {
        *self == JobOutcome::Completed
    }
}

/// One synthesised k-test session inside a [`JobReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct JobRow {
    /// Number of sub-test sessions `k`.
    pub k: usize,
    /// Objective value reported by the solver.
    pub objective: f64,
    /// Total design area in transistors.
    pub area: u64,
    /// Whether the ILP proved the design optimal within the job's budget.
    pub optimal: bool,
    /// Branch-and-bound nodes of this solve's tree. After a resume
    /// ([`SolveStats::resumed`](bist_ilp::SolveStats::resumed)) this counts
    /// the whole tree, the snapshot's capture point included, so it equals
    /// the uninterrupted solve's count.
    pub nodes: u64,
    /// Simplex pivots across this solve's LP relaxations. After a resume
    /// this counts only the pivots spent since the snapshot, like every
    /// other solver counter, so it is not comparable with an uninterrupted
    /// solve's count the way [`JobRow::nodes`] is.
    pub lp_pivots: u64,
    /// Wall-clock seconds of this solve.
    pub seconds: f64,
}

/// The structured answer for one [`SynthesisJob`].
#[derive(Debug, Clone, PartialEq)]
pub struct JobReport {
    /// The job's name, echoed back.
    pub name: String,
    /// How the job ended.
    pub outcome: JobOutcome,
    /// One row per synthesised k, ascending. Partial when the job was
    /// cancelled, deadline-capped or failed midway.
    pub rows: Vec<JobRow>,
    /// Wall-clock seconds of the whole job.
    pub seconds: f64,
    /// Whether any solve of this job captured a resumable
    /// [`SolveSnapshot`] when it stopped early. An interrupted job with
    /// snapshots enabled ([`Budget::snapshot`]) but `snapshot_captured ==
    /// false` lost no state — there was simply nothing to capture (for
    /// example the solve completed, or no incumbent existed yet).
    pub snapshot_captured: bool,
    /// Solve-cache probes this job answered from the shared [`SolveCache`]
    /// (replayed rows and resumed snapshots).
    pub cache_hits: u64,
    /// Solve-cache probes by this job that fell through to a cold solve.
    pub cache_misses: u64,
    /// Cache entries evicted while this job stored its results.
    pub cache_evictions: u64,
}

/// A submitted job's control handle: its batch index and a clone of its
/// [`CancelToken`]. Cancelling is safe from any thread, before or during
/// the run.
#[derive(Debug, Clone)]
pub struct JobHandle {
    index: usize,
    token: CancelToken,
}

impl JobHandle {
    /// Position of the job in the batch (also its index in the report
    /// vector returned by [`JobService::run`]).
    pub fn index(&self) -> usize {
        self.index
    }

    /// Cancels the job: the current solve stops at its next node (keeping
    /// its best incumbent) and the remaining k values are skipped.
    pub fn cancel(&self) {
        self.token.cancel();
    }

    /// A clone of the job's cancellation token.
    pub fn token(&self) -> CancelToken {
        self.token.clone()
    }
}

/// Aggregate counters of a [`SolveCache`]. All counters are monotone over
/// the cache's lifetime except `bytes` and `entries`, which describe the
/// current contents.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Probes answered from the cache (finished rows and snapshots).
    pub hits: u64,
    /// Probes that found nothing and fell through to a solve.
    pub misses: u64,
    /// Entries dropped to keep the cache under its byte budget.
    pub evictions: u64,
    /// Entries stored (including re-stores of an existing key).
    pub insertions: u64,
    /// Approximate bytes currently held.
    pub bytes: u64,
    /// Number of entries currently held.
    pub entries: u64,
}

/// What a cache entry holds: a finished, replayable result row, or the
/// resumable frontier of an interrupted solve.
#[derive(Debug, Clone)]
enum CachePayload {
    Row(JobRow),
    Snapshot(Arc<SolveSnapshot>),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EntryKind {
    Row,
    Snapshot,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CacheKey {
    /// Hash of the job's instance ([`instance_key`]: its input and the
    /// settings its model is built from) with `k` folded in.
    fingerprint: u64,
    /// Digest of the solver configuration (branching, bounding, cuts, …)
    /// minus its budget/cancellation/warm-start slots — two jobs only share
    /// results when they would run the identical search.
    digest: u64,
    /// The per-solve node budget, for row entries: a node-limited result is
    /// only valid for the same limit. Snapshots carry `None` — a frontier
    /// is resumable under any budget that covers the nodes it has already
    /// explored, which [`SolveCache::probe`] checks.
    node_limit: Option<u64>,
    kind: EntryKind,
}

#[derive(Debug)]
struct CacheEntry {
    key: CacheKey,
    payload: CachePayload,
    bytes: u64,
}

#[derive(Debug, Default)]
struct CacheInner {
    /// LRU order: front = least recently used, back = most recent.
    entries: Vec<CacheEntry>,
    bytes: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    insertions: u64,
}

/// Approximate heap footprint charged per finished-row entry.
const ROW_ENTRY_BYTES: u64 = 96;

/// A bounded cache of solve results and resumable solve snapshots, keyed
/// by the job's instance, `k` and solver configuration, shared by every
/// worker of a [`JobService`] batch. Clone the [`Arc`] and pass it to
/// several services ([`JobService::with_cache`]) to share solves across
/// batches — for example between repeated submissions
/// of overlapping k-ranges. See the [module documentation](self) for the
/// soundness rules (deterministic budgets only; hits are bit-identical).
#[derive(Debug)]
pub struct SolveCache {
    capacity: u64,
    inner: Mutex<CacheInner>,
}

impl SolveCache {
    /// Byte budget in MiB of the cache a batch creates for itself (see
    /// [`JobService::run`]).
    pub const DEFAULT_CAPACITY_MB: u64 = 64;

    /// A cache bounded at `capacity_mb` MiB of approximate entry footprint.
    /// A capacity of `0` disables storage entirely (every probe misses).
    pub fn new(capacity_mb: u64) -> Self {
        Self {
            capacity: capacity_mb.saturating_mul(1024 * 1024),
            inner: Mutex::new(CacheInner::default()),
        }
    }

    /// The byte budget this cache was built with.
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity
    }

    /// A snapshot of the cache's counters and current footprint.
    pub fn stats(&self) -> CacheStats {
        let inner = self.lock();
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
            insertions: inner.insertions,
            bytes: inner.bytes,
            entries: inner.entries.len() as u64,
        }
    }

    fn lock(&self) -> MutexGuard<'_, CacheInner> {
        self.inner.lock().unwrap_or_else(|poisoned| {
            // A job panicked while it held the lock, so the entries may be
            // half-updated: drop them. The counters only ever grow, so
            // they stay.
            let mut inner = poisoned.into_inner();
            inner.entries.clear();
            inner.bytes = 0;
            self.inner.clear_poison();
            inner
        })
    }

    /// Looks up the given instance: a finished row under this exact node
    /// limit first, then a resumable snapshot that has not explored more
    /// nodes than the limit allows (a resumed solve's node counter starts
    /// at the capture point). A hit refreshes the entry's LRU position;
    /// hit/miss counters update either way.
    fn probe(
        &self,
        fingerprint: u64,
        digest: u64,
        node_limit: Option<u64>,
    ) -> Option<CachePayload> {
        let within_limit = |entry: &CacheEntry| match &entry.payload {
            CachePayload::Snapshot(snapshot) => {
                node_limit.is_none_or(|limit| snapshot.nodes() <= limit)
            }
            CachePayload::Row(_) => true,
        };
        let mut inner = self.lock();
        for kind in [EntryKind::Row, EntryKind::Snapshot] {
            let key = CacheKey {
                fingerprint,
                digest,
                node_limit: match kind {
                    EntryKind::Row => node_limit,
                    EntryKind::Snapshot => None,
                },
                kind,
            };
            if let Some(idx) = inner
                .entries
                .iter()
                .position(|e| e.key == key && within_limit(e))
            {
                let entry = inner.entries.remove(idx);
                let payload = entry.payload.clone();
                inner.entries.push(entry);
                inner.hits += 1;
                return Some(payload);
            }
        }
        inner.misses += 1;
        None
    }

    /// Stores (or replaces) an entry and evicts from the cold end until the
    /// cache fits its byte budget again. Returns how many entries were
    /// evicted.
    fn insert(&self, key: CacheKey, payload: CachePayload, bytes: u64) -> u64 {
        if self.capacity == 0 {
            return 0;
        }
        let mut inner = self.lock();
        if let Some(idx) = inner.entries.iter().position(|e| e.key == key) {
            let old = inner.entries.remove(idx);
            inner.bytes -= old.bytes;
        }
        inner.entries.push(CacheEntry {
            key,
            payload,
            bytes,
        });
        inner.bytes += bytes;
        inner.insertions += 1;
        let mut evicted = 0;
        while inner.bytes > self.capacity && !inner.entries.is_empty() {
            let victim = inner.entries.remove(0);
            inner.bytes -= victim.bytes;
            inner.evictions += 1;
            evicted += 1;
        }
        evicted
    }

    fn insert_row(
        &self,
        fingerprint: u64,
        digest: u64,
        node_limit: Option<u64>,
        row: &JobRow,
    ) -> u64 {
        let key = CacheKey {
            fingerprint,
            digest,
            node_limit,
            kind: EntryKind::Row,
        };
        self.insert(key, CachePayload::Row(row.clone()), ROW_ENTRY_BYTES)
    }

    fn insert_snapshot(&self, fingerprint: u64, digest: u64, snapshot: Arc<SolveSnapshot>) -> u64 {
        let key = CacheKey {
            fingerprint,
            digest,
            node_limit: None,
            kind: EntryKind::Snapshot,
        };
        let bytes = snapshot.approx_bytes() as u64 + 64;
        self.insert(key, CachePayload::Snapshot(snapshot), bytes)
    }

    /// Drops the snapshot for an instance once its solve has run to
    /// completion (the finished row supersedes the frontier).
    fn remove_snapshot(&self, fingerprint: u64, digest: u64) {
        let key = CacheKey {
            fingerprint,
            digest,
            node_limit: None,
            kind: EntryKind::Snapshot,
        };
        let mut inner = self.lock();
        if let Some(idx) = inner.entries.iter().position(|e| e.key == key) {
            let old = inner.entries.remove(idx);
            inner.bytes -= old.bytes;
        }
    }
}

/// The FNV-1a offset basis: the 64-bit hash of no bytes.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// 64-bit FNV-1a over a byte string, continuing from `hash`.
fn fnv64(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Hash of everything a job's per-k models are built from: its input and
/// the model-building settings (cost model, register count, input timing,
/// search-space reduction). `run_job` folds `k` in to key one per-k
/// instance. None of these types holds a hash map, so their `Debug` form,
/// and with it the key, is deterministic.
fn instance_key(job: &SynthesisJob) -> u64 {
    let config = &job.config;
    let text = format!(
        "{:?}|{:?}|{:?}|{:?}|{}",
        job.input,
        config.cost,
        config.num_registers,
        config.input_timing,
        config.search_space_reduction
    );
    fnv64(FNV_OFFSET, text.as_bytes())
}

/// Digest of everything in the job's configuration that shapes the search
/// but is *not* covered by the instance key: bounding rules, cut settings,
/// warm-start policy. Budget,
/// cancellation and per-call warm-start values are normalised out — the
/// budget's node limit is keyed separately, and the service never chains
/// per-call seeds.
fn config_digest(config: &SynthesisConfig) -> u64 {
    let mut solver = config.solver.clone();
    solver.budget = Budget::unlimited();
    solver.cancel = None;
    solver.initial_solutions = Vec::new();
    solver.resume = None;
    let text = format!("{:?}|warm_start={}", solver, config.warm_start);
    fnv64(FNV_OFFSET, text.as_bytes())
}

/// The job-queue front door: submit a batch, run it over a bounded worker
/// pool, get deterministic per-job reports. See the [module
/// documentation](self) for an example.
#[derive(Debug, Default)]
pub struct JobService {
    jobs: Vec<(SynthesisJob, CancelToken)>,
    max_workers: Option<usize>,
    cache: Option<Arc<SolveCache>>,
}

impl JobService {
    /// An empty service with the worker pool capped at the machine's
    /// available parallelism.
    pub fn new() -> Self {
        Self::default()
    }

    /// Caps the worker pool at `workers` threads (at least 1; the
    /// machine's available parallelism still applies as a second cap). On
    /// one worker, each solve's strong-branching probes use the other
    /// cores; on several, each job probes on its own worker thread.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.max_workers = Some(workers.max(1));
        self
    }

    /// Shares an existing [`SolveCache`] with this batch instead of the
    /// per-run default, so repeated submissions across several
    /// [`JobService::run`] calls reuse each other's solves and snapshots.
    pub fn with_cache(mut self, cache: Arc<SolveCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Enqueues a job and returns its control handle.
    pub fn submit(&mut self, job: SynthesisJob) -> JobHandle {
        let token = CancelToken::new();
        let handle = JobHandle {
            index: self.jobs.len(),
            token: token.clone(),
        };
        self.jobs.push((job, token));
        handle
    }

    /// Number of jobs currently enqueued.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Runs the whole batch and returns one report per job, in submission
    /// order regardless of thread scheduling. Jobs are independent: a
    /// failed, cancelled or deadline-capped job never affects the others,
    /// and neither does a panicking one, which reports
    /// [`JobOutcome::Failed`] with the panic message. A panic while the
    /// job held the cache's lock empties the cache.
    ///
    /// Without an explicit [`JobService::with_cache`], a fresh
    /// [`SolveCache`] of [`SolveCache::DEFAULT_CAPACITY_MB`] is created for
    /// the batch.
    pub fn run(self) -> Vec<JobReport> {
        let workers = self.max_workers.unwrap_or(usize::MAX);
        let cache = self
            .cache
            .clone()
            .unwrap_or_else(|| Arc::new(SolveCache::new(SolveCache::DEFAULT_CAPACITY_MB)));
        par_map_ordered(&self.jobs, workers, |(job, token)| {
            let start = Instant::now();
            panic::catch_unwind(AssertUnwindSafe(|| run_job(job, token, &cache))).unwrap_or_else(
                |payload| {
                    let message = payload
                        .downcast_ref::<&str>()
                        .copied()
                        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
                        .unwrap_or("no message");
                    JobReport {
                        name: job.name.clone(),
                        outcome: JobOutcome::Failed(format!("job panicked: {message}")),
                        rows: Vec::new(),
                        seconds: start.elapsed().as_secs_f64(),
                        snapshot_captured: false,
                        cache_hits: 0,
                        cache_misses: 0,
                        cache_evictions: 0,
                    }
                },
            )
        })
    }
}

/// Per-job bookkeeping threaded into the [`JobReport`].
#[derive(Debug, Clone, Copy, Default)]
struct JobCounters {
    hits: u64,
    misses: u64,
    evictions: u64,
    snapshot_captured: bool,
}

/// Runs one job on the calling worker thread.
fn run_job(job: &SynthesisJob, token: &CancelToken, cache: &SolveCache) -> JobReport {
    #[cfg(test)]
    tests::panic_trigger(job, cache);
    let start = Instant::now();
    let budget = job.config.solver.budget;
    let mut config = job.config.clone();
    config.solver.cancel = Some(token.clone());

    let mut counters = JobCounters::default();
    // The cache is consulted only when a replayed result is provably
    // identical to a fresh solve: the budget must be deterministic (node
    // limits are part of the key; wall-clock limits and deadlines are not
    // reproducible).
    let cache_enabled = cache.capacity_bytes() > 0 && budget.is_deterministic();
    let digest = config_digest(&job.config);
    let instance = instance_key(job);

    let finish = |outcome: JobOutcome, rows: Vec<JobRow>, counters: JobCounters| JobReport {
        name: job.name.clone(),
        outcome,
        rows,
        seconds: start.elapsed().as_secs_f64(),
        snapshot_captured: counters.snapshot_captured,
        cache_hits: counters.hits,
        cache_misses: counters.misses,
        cache_evictions: counters.evictions,
    };

    // Built on the first k the cache cannot answer, so a job whose every k
    // hits never formulates, reduces or hashes a model.
    let mut engine = None;
    let max_sessions = job.input.binding().num_modules();
    let mut rows = Vec::new();
    let mut outcome = JobOutcome::Completed;
    for k in job.sessions.clone().unwrap_or(1..=max_sessions) {
        // Deterministic front-door checks between solves: a pre-cancelled
        // job or pre-expired deadline produces zero rows without touching
        // the solver (no timing races).
        if token.is_cancelled() {
            outcome = JobOutcome::Cancelled;
            break;
        }
        if budget.deadline_passed() {
            outcome = JobOutcome::DeadlineExpired;
            break;
        }

        let probe_start = Instant::now();
        let mut resume = None;
        // A k outside `1..=N` is never probed: the engine rejects it below.
        let key = (cache_enabled && (1..=max_sessions).contains(&k))
            .then(|| fnv64(instance, &k.to_le_bytes()));
        if let Some(fingerprint) = key {
            match cache.probe(fingerprint, digest, budget.node_limit) {
                Some(CachePayload::Row(row)) => {
                    counters.hits += 1;
                    rows.push(JobRow {
                        seconds: probe_start.elapsed().as_secs_f64(),
                        ..row
                    });
                    continue;
                }
                Some(CachePayload::Snapshot(snapshot)) => {
                    counters.hits += 1;
                    resume = Some(snapshot);
                }
                None => counters.misses += 1,
            }
        }
        let engine = match &engine {
            Some(engine) => engine,
            None => match SynthesisEngine::new(&job.input, &config) {
                Ok(built) => engine.insert(built),
                Err(e) => return finish(JobOutcome::Failed(e.to_string()), rows, counters),
            },
        };

        // A job whose budget has `Budget::snapshot == Some(true)` captures
        // on either path; a resumed solve always captures again.
        let resumed = resume.is_some();
        let result = if resumed {
            engine.synthesize_resumable(k, None, resume)
        } else {
            engine.synthesize_seeded(k, None)
        };
        match result {
            Ok(outcome) => {
                let row = JobRow {
                    k,
                    objective: outcome.design.objective,
                    area: outcome.design.area.total(),
                    optimal: outcome.design.optimal,
                    nodes: outcome.design.stats.nodes,
                    lp_pivots: outcome.design.stats.lp_pivots,
                    seconds: outcome.seconds,
                };
                match outcome.design.snapshot {
                    // The solve stopped early with a resumable frontier:
                    // the next submission of this instance continues it.
                    Some(snapshot) => {
                        counters.snapshot_captured = true;
                        if let Some(fingerprint) = key {
                            counters.evictions +=
                                cache.insert_snapshot(fingerprint, digest, snapshot);
                        }
                        rows.push(row);
                    }
                    // Ran to the end of its (deterministic) budget: the row
                    // is replayable, and any now-stale snapshot of this
                    // instance can go.
                    None => {
                        if let Some(fingerprint) = key {
                            counters.evictions +=
                                cache.insert_row(fingerprint, digest, budget.node_limit, &row);
                            if resumed {
                                cache.remove_snapshot(fingerprint, digest);
                            }
                        }
                        rows.push(row);
                    }
                }
            }
            // Cancelled before any incumbent existed for this k: report
            // the job as cancelled with the rows gathered so far.
            Err(CoreError::Interrupted) => return finish(JobOutcome::Cancelled, rows, counters),
            // Limits expired with nothing in hand *because the job's
            // deadline passed mid-solve*: that is the deadline outcome,
            // not a hard failure.
            Err(CoreError::NoSolutionWithinLimits) if budget.deadline_passed() => {
                return finish(JobOutcome::DeadlineExpired, rows, counters)
            }
            Err(e) => return finish(JobOutcome::Failed(e.to_string()), rows, counters),
        }
    }
    // A job that answered no k (an empty k-range, or cancelled or past its
    // deadline before the first) still builds the engine, so a config the
    // engine rejects fails it whatever its k-range or token.
    if rows.is_empty() && engine.is_none() {
        if let Err(e) = SynthesisEngine::new(&job.input, &config) {
            return finish(JobOutcome::Failed(e.to_string()), rows, counters);
        }
    }
    finish(outcome, rows, counters)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bist_dfg::benchmarks;
    use bist_ilp::Budget;
    use std::time::Instant;

    fn exact_job(name: &str, input: SynthesisInput) -> SynthesisJob {
        SynthesisJob::new(name, input).with_config(bist_core::SynthesisConfig::exact())
    }

    /// The name of a job that panics while it holds the cache's lock.
    const PANICKING_JOB: &str = "panics holding the cache lock";

    /// Called by `run_job` before anything else: a job named
    /// [`PANICKING_JOB`] takes the cache's lock and panics, poisoning it.
    pub(super) fn panic_trigger(job: &SynthesisJob, cache: &SolveCache) {
        if job.name == PANICKING_JOB {
            let _held = cache.lock();
            panic!("injected panic in {:?}", job.name);
        }
    }

    #[test]
    fn batch_reproduces_the_engine_sweep_in_submission_order() {
        let input = benchmarks::figure1();
        let config = bist_core::SynthesisConfig::exact();
        let engine = SynthesisEngine::new(&input, &config).unwrap();
        let sweep: Vec<_> = (1..=engine.max_sessions())
            .map(|k| engine.synthesize(k).unwrap())
            .collect();

        let mut service = JobService::new().with_workers(2);
        service.submit(exact_job("full", benchmarks::figure1()));
        service.submit(exact_job("k1-only", benchmarks::figure1()).with_sessions(1..=1));
        let reports = service.run();

        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].name, "full");
        assert_eq!(reports[1].name, "k1-only");
        assert!(reports.iter().all(|r| r.outcome.is_completed()));

        // The full job mirrors the unchained per-k solves row for row.
        assert_eq!(reports[0].rows.len(), sweep.len());
        for (row, design) in reports[0].rows.iter().zip(&sweep) {
            assert_eq!(row.k, design.sessions);
            assert_eq!(row.objective.to_bits(), design.objective.to_bits());
            assert_eq!(row.area, design.area.total());
            assert_eq!(row.nodes, design.stats.nodes);
            assert_eq!(row.lp_pivots, design.stats.lp_pivots);
            assert!(row.optimal);
        }
        // The k-restricted job produced exactly its requested row.
        assert_eq!(reports[1].rows.len(), 1);
        assert_eq!(reports[1].rows[0].k, 1);
        assert!((reports[1].rows[0].objective - sweep[0].objective).abs() < 1e-9);
    }

    #[test]
    fn pre_cancelled_job_yields_no_rows_and_spares_the_rest_of_the_batch() {
        let mut service = JobService::new().with_workers(1);
        let cancelled = service.submit(exact_job("cancelled", benchmarks::figure1()));
        let kept = service
            .submit(exact_job("kept", benchmarks::figure1()).with_budget(Budget::nodes(500)));
        cancelled.cancel();
        assert!(cancelled.token().is_cancelled());
        let reports = service.run();
        assert_eq!(reports[cancelled.index()].outcome, JobOutcome::Cancelled);
        assert!(reports[cancelled.index()].rows.is_empty());
        assert_eq!(reports[kept.index()].outcome, JobOutcome::Completed);
        assert_eq!(reports[kept.index()].rows.len(), 2);
    }

    #[test]
    fn expired_deadline_stops_a_job_before_any_solve() {
        let mut service = JobService::new();
        service.submit(
            exact_job("late", benchmarks::figure1())
                .with_budget(Budget::unlimited().with_deadline(Instant::now())),
        );
        let reports = service.run();
        assert_eq!(reports[0].outcome, JobOutcome::DeadlineExpired);
        assert!(reports[0].rows.is_empty());
    }

    #[test]
    fn warm_resubmission_replays_rows_bit_identically() {
        let cache = Arc::new(SolveCache::new(64));
        let submit = |cache: &Arc<SolveCache>| {
            let mut service = JobService::new().with_cache(cache.clone());
            service.submit(exact_job("sweep", benchmarks::figure1()));
            service.run()
        };
        let cold = submit(&cache);
        let warm = submit(&cache);

        assert_eq!(cold[0].cache_hits, 0);
        assert_eq!(cold[0].cache_misses, cold[0].rows.len() as u64);
        assert_eq!(warm[0].cache_hits, warm[0].rows.len() as u64);
        assert_eq!(warm[0].cache_misses, 0);
        assert_eq!(cold[0].rows.len(), warm[0].rows.len());
        for (a, b) in cold[0].rows.iter().zip(&warm[0].rows) {
            assert_eq!(a.k, b.k);
            assert_eq!(a.objective.to_bits(), b.objective.to_bits());
            assert_eq!(a.area, b.area);
            assert_eq!(a.optimal, b.optimal);
            assert_eq!(a.nodes, b.nodes);
            assert_eq!(a.lp_pivots, b.lp_pivots);
        }
        let stats = cache.stats();
        assert_eq!(stats.hits, warm[0].cache_hits);
        assert_eq!(stats.misses, cold[0].cache_misses);
    }

    #[test]
    fn one_coefficient_change_misses_the_cache() {
        // The key hashes the job's input and every setting its model or
        // search depends on; one left out would serve another model's row.
        // So each single change below must miss a warm cache, while a
        // change the model never reads must still hit.
        use bist_core::SynthesisConfig;
        use bist_datapath::CostModel;
        use bist_dfg::{InputTiming, Schedule};
        use bist_ilp::BoundMode;
        let base = || {
            exact_job("figure1", benchmarks::figure1())
                .with_sessions(1..=1)
                .with_budget(Budget::nodes(100))
        };
        let with = |change: fn(&mut SynthesisConfig)| {
            let mut job = base();
            change(&mut job.config);
            job
        };
        // The final addition one step later: a valid schedule, longer
        // lifetimes for its two operands.
        let figure1 = benchmarks::figure1();
        let rescheduled = SynthesisInput::new(
            figure1.dfg().clone(),
            Schedule::from_steps(vec![0, 1, 2, 4]),
            figure1.binding().clone(),
        )
        .unwrap();
        let cache = SolveCache::new(64);
        let token = CancelToken::new();
        let first = run_job(&base(), &token, &cache);
        assert_eq!((first.cache_hits, first.cache_misses), (0, 1));

        let misses = [
            ("16-bit costs", with(|c| c.cost = CostModel::for_width(16))),
            ("4 registers", with(|c| c.num_registers = Some(4))),
            (
                "inputs from start",
                with(|c| c.input_timing = InputTiming::FromStart),
            ),
            (
                "no search-space reduction",
                with(|c| c.search_space_reduction = false),
            ),
            ("no warm start", with(|c| c.warm_start = false)),
            (
                "another bound mode",
                with(|c| c.solver.bound_mode = BoundMode::Hybrid { lp_depth: 0 }),
            ),
            (
                "one operation rescheduled",
                SynthesisJob {
                    input: rescheduled,
                    ..base()
                },
            ),
        ];
        for (change, job) in misses {
            let report = run_job(&job, &token, &cache);
            assert!(
                report.outcome.is_completed(),
                "{change}: {:?}",
                report.outcome
            );
            assert_eq!((report.cache_hits, report.cache_misses), (0, 1), "{change}");
        }
        let hits = [
            (
                "job name",
                SynthesisJob {
                    name: "renamed".into(),
                    ..base()
                },
            ),
            ("RTL validation", with(|c| c.rtl_validation = true)),
        ];
        for (change, job) in hits {
            let report = run_job(&job, &token, &cache);
            assert_eq!((report.cache_hits, report.cache_misses), (1, 0), "{change}");
            assert_eq!(
                report.rows[0].objective.to_bits(),
                first.rows[0].objective.to_bits()
            );
        }
    }

    #[test]
    fn a_job_whose_every_k_hits_builds_no_engine() {
        // Every `SynthesisEngine::new` reduces one base model, and the
        // counter of base reductions is per thread, so the jobs run on
        // this thread instead of a service worker.
        use bist_ilp::reduce::prefix_reductions_on_thread;
        let cache = SolveCache::new(64);
        let token = CancelToken::new();
        let run = |ks: RangeInclusive<usize>| {
            let job = SynthesisJob::new("tseng", benchmarks::tseng())
                .with_config(bist_core::SynthesisConfig::budgeted(Budget::nodes(50)))
                .with_sessions(ks);
            let before = prefix_reductions_on_thread();
            let report = run_job(&job, &token, &cache);
            assert!(report.outcome.is_completed(), "{:?}", report.outcome);
            let counts = (report.cache_hits, report.cache_misses);
            (report, counts, prefix_reductions_on_thread() - before)
        };
        let same = |a: &JobRow, b: &JobRow| {
            assert_eq!(a.k, b.k);
            assert_eq!(a.objective.to_bits(), b.objective.to_bits());
            assert_eq!(
                (a.area, a.nodes, a.lp_pivots),
                (b.area, b.nodes, b.lp_pivots)
            );
        };
        let (first, counts, built) = run(1..=2);
        assert_eq!((counts, built), ((0, 2), 1));
        let (replay, counts, built) = run(1..=2);
        assert_eq!((counts, built), ((2, 0), 0));
        for (a, b) in first.rows.iter().zip(&replay.rows) {
            same(a, b);
        }
        // One cached k and one new one: one engine, built for k = 3.
        let (mixed, counts, built) = run(2..=3);
        assert_eq!((counts, built), ((1, 1), 1));
        same(&mixed.rows[0], &first.rows[1]);
        assert_eq!(mixed.rows[1].k, 3);
    }

    #[test]
    fn a_k_outside_the_circuit_fails_after_the_rows_before_it() {
        // figure1 has N = 2 modules. With a warm cache k = 2 is a hit and
        // the engine is first built for k = 3; with the cache off k = 2 is
        // solved. Either way k = 2's row stays, the job fails on k = 3 with
        // the engine's error, and k = 3 counts no probe.
        let job = |ks| {
            exact_job("past N", benchmarks::figure1())
                .with_budget(Budget::nodes(100))
                .with_sessions(ks)
        };
        let token = CancelToken::new();
        let warm = SolveCache::new(64);
        run_job(&job(1..=2), &token, &warm);
        let expected = CoreError::InvalidSessionCount {
            requested: 3,
            modules: 2,
        };
        for (cache, probes) in [(&warm, (1, 0)), (&SolveCache::new(0), (0, 0))] {
            let report = run_job(&job(2..=3), &token, cache);
            assert_eq!(report.outcome, JobOutcome::Failed(expected.to_string()));
            assert_eq!(report.rows.len(), 1);
            assert_eq!(report.rows[0].k, 2);
            assert_eq!((report.cache_hits, report.cache_misses), probes);
        }
    }

    #[test]
    fn a_config_the_engine_rejects_fails_the_job_even_with_no_k_to_solve() {
        // figure1 needs 3 registers. A job that reaches no solve (an empty
        // k-range, or cancelled first) still builds the engine, so it
        // fails with the engine's error too.
        let expected = CoreError::TooFewRegisters {
            requested: 1,
            minimum: 3,
        };
        let cancelled = CancelToken::new();
        cancelled.cancel();
        for capacity in [64, 0] {
            // `RangeInclusive::new(2, 1)` is empty.
            for ks in [None, Some(1..=1), Some(RangeInclusive::new(2, 1))] {
                for token in [CancelToken::new(), cancelled.clone()] {
                    let mut job = exact_job("one register", benchmarks::figure1())
                        .with_budget(Budget::nodes(100));
                    job.config.num_registers = Some(1);
                    job.sessions = ks.clone();
                    let report = run_job(&job, &token, &SolveCache::new(capacity));
                    assert_eq!(
                        report.outcome,
                        JobOutcome::Failed(expected.to_string()),
                        "capacity {capacity}, k-range {ks:?}, cancelled {}",
                        token.is_cancelled()
                    );
                    assert!(report.rows.is_empty());
                }
            }
        }
    }

    #[test]
    fn a_pre_cancelled_job_answers_nothing_even_from_a_warm_cache() {
        let job = exact_job("cancelled", benchmarks::figure1()).with_budget(Budget::nodes(100));
        let warm = SolveCache::new(64);
        assert!(run_job(&job, &CancelToken::new(), &warm)
            .outcome
            .is_completed());
        let cancelled = CancelToken::new();
        cancelled.cancel();
        for cache in [&warm, &SolveCache::new(0)] {
            let report = run_job(&job, &cancelled, cache);
            assert_eq!(report.outcome, JobOutcome::Cancelled);
            assert!(report.rows.is_empty());
            assert_eq!((report.cache_hits, report.cache_misses), (0, 0));
        }
    }

    #[test]
    fn interrupted_job_snapshots_and_resubmission_resumes_exactly() {
        let input = benchmarks::figure1();
        let config = bist_core::SynthesisConfig::exact();
        let cold = bist_core::synthesis::synthesize_bist(&input, 1, &config).unwrap();
        assert!(cold.stats.nodes > 10, "instance must branch");

        let cache = Arc::new(SolveCache::new(64));
        let mut first = JobService::new().with_cache(cache.clone());
        first.submit(
            exact_job("cut", benchmarks::figure1())
                .with_sessions(1..=1)
                .with_budget(Budget::nodes(10).with_snapshot(true)),
        );
        let interrupted = first.run();
        assert!(interrupted[0].outcome.is_completed());
        assert!(interrupted[0].snapshot_captured);
        assert!(!interrupted[0].rows[0].optimal);
        assert_eq!(interrupted[0].rows[0].nodes, 10);

        // Resubmission under an open budget finds the snapshot and
        // *continues* the tree: the finished solve lands on exactly the
        // uninterrupted node count and objective.
        let mut second = JobService::new().with_cache(cache.clone());
        second.submit(exact_job("resume", benchmarks::figure1()).with_sessions(1..=1));
        let resumed = second.run();
        assert!(resumed[0].outcome.is_completed());
        assert_eq!(resumed[0].cache_hits, 1);
        assert!(!resumed[0].snapshot_captured);
        let row = &resumed[0].rows[0];
        assert!(row.optimal);
        assert_eq!(row.nodes, cold.stats.nodes);
        assert_eq!(row.objective.to_bits(), cold.objective.to_bits());
        assert_eq!(row.area, cold.area.total());
    }

    #[test]
    fn a_snapshot_past_a_smaller_node_budget_is_a_miss() {
        // A snapshot taken at 200 nodes has already spent a 20-node budget:
        // resuming it would hand the job a 200-node design. The job must
        // solve cold instead and get exactly what a cold 20-node solve gets.
        let tseng = || exact_job("tseng", benchmarks::tseng()).with_sessions(1..=1);
        let run = |cache: &Arc<SolveCache>, job: SynthesisJob| {
            let mut service = JobService::new().with_cache(cache.clone());
            service.submit(job);
            service.run().remove(0)
        };
        let cache = Arc::new(SolveCache::new(64));
        let captured = run(
            &cache,
            tseng().with_budget(Budget::nodes(200).with_snapshot(true)),
        );
        assert!(captured.snapshot_captured);
        let small = run(&cache, tseng().with_budget(Budget::nodes(20)));
        let cold = run(
            &Arc::new(SolveCache::new(64)),
            tseng().with_budget(Budget::nodes(20)),
        );
        assert_eq!((small.cache_hits, small.cache_misses), (0, 1));
        let (row, cold_row) = (&small.rows[0], &cold.rows[0]);
        assert_eq!(row.nodes, 20);
        assert_eq!(row.objective.to_bits(), cold_row.objective.to_bits());
        assert_eq!(
            (row.area, row.nodes, row.lp_pivots),
            (cold_row.area, cold_row.nodes, cold_row.lp_pivots)
        );
        // A budget at or past the capture point still resumes the tree.
        let larger = run(&cache, tseng().with_budget(Budget::nodes(400)));
        assert_eq!((larger.cache_hits, larger.cache_misses), (1, 0));
    }

    #[test]
    fn non_deterministic_budgets_bypass_the_cache() {
        let cache = Arc::new(SolveCache::new(64));
        for _ in 0..2 {
            let mut service = JobService::new().with_cache(cache.clone());
            service.submit(
                exact_job("timed", benchmarks::figure1())
                    .with_budget(Budget::time(std::time::Duration::from_secs(30))),
            );
            let reports = service.run();
            assert!(reports[0].outcome.is_completed());
            assert_eq!(reports[0].cache_hits, 0);
            assert_eq!(reports[0].cache_misses, 0);
        }
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn lru_eviction_keeps_the_cache_under_its_byte_budget() {
        let cache = SolveCache {
            capacity: 3 * ROW_ENTRY_BYTES,
            inner: Mutex::new(CacheInner::default()),
        };
        let row = |k: usize| JobRow {
            k,
            objective: k as f64,
            area: k as u64,
            optimal: true,
            nodes: 1,
            lp_pivots: 0,
            seconds: 0.0,
        };
        for fingerprint in 0..3u64 {
            assert_eq!(cache.insert_row(fingerprint, 7, None, &row(1)), 0);
        }
        // Touch fingerprint 0 so 1 becomes the coldest entry…
        assert!(cache.probe(0, 7, None).is_some());
        // …then overflow: exactly one eviction, and it takes fingerprint 1.
        assert_eq!(cache.insert_row(3, 7, None, &row(1)), 1);
        assert!(cache.probe(1, 7, None).is_none());
        assert!(cache.probe(0, 7, None).is_some());
        assert!(cache.probe(3, 7, None).is_some());
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.entries, 3);
        assert!(stats.bytes <= cache.capacity_bytes());
        // Re-storing an existing key replaces it instead of growing.
        cache.insert_row(3, 7, None, &row(2));
        assert_eq!(cache.stats().entries, 3);
    }

    #[test]
    fn a_panicking_job_fails_alone_and_the_poisoned_cache_recovers() {
        let job =
            |name: &str| exact_job(name, benchmarks::figure1()).with_budget(Budget::nodes(500));
        for workers in [1, 2] {
            let cache = Arc::new(SolveCache::new(64));
            let mut service = JobService::new()
                .with_workers(workers)
                .with_cache(cache.clone());
            service.submit(job("before"));
            service.submit(job(PANICKING_JOB));
            service.submit(job("after"));
            let reports = service.run();
            assert_eq!(reports.len(), 3);
            assert!(reports[0].outcome.is_completed());
            assert!(reports[2].outcome.is_completed());
            assert_eq!(reports[0].rows.len(), 2);
            assert_eq!(reports[2].rows.len(), 2);
            match &reports[1].outcome {
                JobOutcome::Failed(message) => {
                    assert!(message.contains("injected panic"), "{message}")
                }
                other => panic!("expected a failure, got {other:?}"),
            }
            assert!(reports[1].rows.is_empty());
            // With two workers the jobs interleave freely; every check but
            // this one holds in any order.
            if workers == 1 {
                // The job after the panic found the lock poisoned, so the
                // rows the first job stored were dropped and it solved again.
                assert_eq!((reports[2].cache_hits, reports[2].cache_misses), (0, 2));
            }

            // A second batch on the same cache replays what it holds.
            let mut again = JobService::new().with_cache(cache.clone());
            again.submit(job("again"));
            let replay = again.run();
            assert!(replay[0].outcome.is_completed());
            assert_eq!((replay[0].cache_hits, replay[0].cache_misses), (2, 0));
            for (a, b) in reports[0].rows.iter().zip(&replay[0].rows) {
                assert_eq!(a.objective.to_bits(), b.objective.to_bits());
                assert_eq!(a.nodes, b.nodes);
            }
            let stats = cache.stats();
            assert_eq!(stats.entries, 2);
            assert_eq!(stats.bytes, 2 * ROW_ENTRY_BYTES);
        }
    }

    #[test]
    fn invalid_session_range_fails_only_that_job() {
        let mut service = JobService::new();
        service.submit(exact_job("bad-k", benchmarks::figure1()).with_sessions(7..=7));
        service.submit(exact_job("good", benchmarks::figure1()).with_sessions(2..=2));
        let reports = service.run();
        match &reports[0].outcome {
            JobOutcome::Failed(message) => assert!(message.contains("7")),
            other => panic!("expected failure, got {other:?}"),
        }
        assert!(reports[1].outcome.is_completed());
    }
}
