//! Seeded regression corpus for the search layer: pinned random circuits
//! from [`advbist::dfg::benchmarks::random`] with **golden optimal costs**.
//!
//! The six paper circuits are either trivially small (figure1) or not
//! exactly solvable in test budgets (tseng, paulin), so search-layer changes
//! used to be validated only against brute-forceable toy models. This corpus
//! pins a band of mid-size instances — large enough to branch, small enough
//! to solve exactly in seconds — together with the optimal ADVBIST area each
//! one must reach. Any change to bounding, branching or fixing that loses
//! exactness diffs against these golden answers immediately.
//!
//! The golden areas were computed with the exact solver configuration and
//! cross-checked against the PR-2 search (cold LPs, most-constrained
//! branching, no reduced-cost fixing). The per-instance **golden pivot
//! counts** additionally pin the revised simplex kernel's work (deterministic
//! on any IEEE-754 platform), so a kernel change that keeps the optima but
//! silently inflates the search shows up as a diff. Regenerate both with
//! `cargo test --test corpus regenerate_corpus_goldens -- --ignored --nocapture`.

use advbist::dfg::benchmarks::{random_dfg, RandomDfgConfig};
use advbist::dfg::SynthesisInput;

/// One pinned corpus instance.
pub struct CorpusCase {
    /// Short name used in assertion messages.
    pub name: &'static str,
    /// PRNG seed of the random DFG.
    pub seed: u64,
    /// Number of operations of the random DFG.
    pub num_ops: usize,
    /// Number of primary inputs of the random DFG.
    pub num_inputs: usize,
    /// Multipliers available for scheduling.
    pub multipliers: usize,
    /// Sub-test session count `k` to synthesise for.
    pub sessions: usize,
    /// Golden optimal ADVBIST area (transistors) for this `k`.
    pub golden_area: u64,
    /// Golden simplex pivot count (basis changes, primal + dual) of the
    /// default exact search under the revised kernel. Unlike the area —
    /// which may only move with a *cost-model* change — this pins the
    /// *work* the kernel spends, so a kernel change that silently regresses
    /// pricing, the ratio tests or the warm path diffs here immediately.
    /// Regenerate together with the areas (see the module docs).
    pub golden_pivots: u64,
}

impl CorpusCase {
    /// Rebuilds the pinned circuit.
    pub fn input(&self) -> SynthesisInput {
        random_dfg(&self.config())
    }

    /// The generator configuration of the pinned circuit.
    pub fn config(&self) -> RandomDfgConfig {
        RandomDfgConfig {
            seed: self.seed,
            num_ops: self.num_ops,
            num_inputs: self.num_inputs,
            multipliers: self.multipliers,
            alus: 1,
        }
    }
}

/// The pinned corpus. Golden areas regenerated as described in the module
/// docs; they must only ever change when the *cost model* changes, never
/// with a search-layer change.
pub const CORPUS: &[CorpusCase] = &[
    CorpusCase {
        name: "r11k1",
        seed: 11,
        num_ops: 5,
        num_inputs: 3,
        multipliers: 1,
        sessions: 1,
        golden_area: 1616,
        golden_pivots: 1484,
    },
    CorpusCase {
        name: "r11k2",
        seed: 11,
        num_ops: 5,
        num_inputs: 3,
        multipliers: 1,
        sessions: 2,
        golden_area: 1520,
        golden_pivots: 3863,
    },
    CorpusCase {
        name: "r23k1",
        seed: 23,
        num_ops: 6,
        num_inputs: 4,
        multipliers: 1,
        sessions: 1,
        golden_area: 1376,
        golden_pivots: 102,
    },
    CorpusCase {
        name: "r23k2",
        seed: 23,
        num_ops: 6,
        num_inputs: 4,
        multipliers: 1,
        sessions: 2,
        golden_area: 1312,
        golden_pivots: 705,
    },
    CorpusCase {
        name: "r37k1",
        seed: 37,
        num_ops: 6,
        num_inputs: 3,
        multipliers: 1,
        sessions: 1,
        golden_area: 1876,
        golden_pivots: 798,
    },
    CorpusCase {
        name: "r37k2",
        seed: 37,
        num_ops: 6,
        num_inputs: 3,
        multipliers: 1,
        sessions: 2,
        golden_area: 1616,
        golden_pivots: 2556,
    },
    CorpusCase {
        name: "r58k1",
        seed: 58,
        num_ops: 5,
        num_inputs: 4,
        multipliers: 1,
        sessions: 1,
        golden_area: 1440,
        golden_pivots: 1395,
    },
    CorpusCase {
        name: "r58k2",
        seed: 58,
        num_ops: 5,
        num_inputs: 4,
        multipliers: 1,
        sessions: 2,
        golden_area: 1424,
        golden_pivots: 4914,
    },
    CorpusCase {
        name: "r71k1",
        seed: 71,
        num_ops: 6,
        num_inputs: 4,
        multipliers: 2,
        sessions: 1,
        golden_area: 1892,
        golden_pivots: 1262,
    },
    CorpusCase {
        name: "r71k2",
        seed: 71,
        num_ops: 6,
        num_inputs: 4,
        multipliers: 2,
        sessions: 2,
        golden_area: 1552,
        golden_pivots: 1631,
    },
    CorpusCase {
        name: "r92k1",
        seed: 92,
        num_ops: 7,
        num_inputs: 3,
        multipliers: 1,
        sessions: 1,
        golden_area: 1920,
        golden_pivots: 56,
    },
    CorpusCase {
        name: "r92k2",
        seed: 92,
        num_ops: 7,
        num_inputs: 3,
        multipliers: 1,
        sessions: 2,
        golden_area: 1920,
        golden_pivots: 1202,
    },
];
