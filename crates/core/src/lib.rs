//! # bist-core — ADVBIST: built-in self-testable data path synthesis by ILP
//!
//! This crate implements the contribution of the DAC'99 paper *"On ILP
//! Formulations for Built-In Self-Testable Data Path Synthesis"* (Kim, Ha,
//! Takahashi): system register assignment, BIST register assignment (test
//! pattern generators, signature registers, BILBOs and concurrent BILBOs) and
//! interconnection/multiplexer assignment are formulated as **one** 0-1
//! integer linear program per k-test session and solved to (time-limited)
//! optimality, so the resulting self-testable data path is minimal in
//! register + multiplexer area.
//!
//! Two entry points cover the paper's experimental flow:
//!
//! * [`reference::synthesize_reference`] — the non-BIST, area-optimal data
//!   path used as the overhead baseline ("the reference circuits were
//!   obtained through an ILP for data path synthesis", Section 4.1),
//! * [`synthesis::synthesize_bist`] — the ADVBIST design for a chosen number
//!   of sub-test sessions `k` (1 ≤ k ≤ number of modules), Section 3.
//!
//! ```no_run
//! use bist_core::{SynthesisConfig, reference, synthesis};
//! use bist_dfg::benchmarks;
//!
//! # fn main() -> Result<(), bist_core::CoreError> {
//! let input = benchmarks::figure1();
//! let config = SynthesisConfig::default();
//! let reference = reference::synthesize_reference(&input, &config)?;
//! let bist = synthesis::synthesize_bist(&input, 2, &config)?;
//! println!(
//!     "area overhead for a 2-test session: {:.1}%",
//!     bist.overhead_percent(reference.area.total())
//! );
//! # Ok(())
//! # }
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod engine;
pub mod error;
pub mod extract;
pub mod formulation;
pub mod reference;
pub mod synthesis;

pub use config::SynthesisConfig;
pub use engine::{SweepOutcome, SynthesisEngine};
pub use error::CoreError;
pub use reference::ReferenceDesign;
pub use synthesis::BistDesign;
