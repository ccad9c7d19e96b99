//! Error type for the ADVBIST synthesis flow.

use std::fmt;

use bist_datapath::DatapathError;
use bist_dfg::DfgError;
use bist_ilp::IlpError;

/// Errors produced by the ILP-based synthesis flow.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// The scheduled DFG input is inconsistent.
    Dfg(DfgError),
    /// The underlying ILP model could not be built or solved.
    Ilp(IlpError),
    /// The extracted design failed structural or BIST validation — this
    /// indicates a bug in the formulation and should never happen for a
    /// solution the solver reports as feasible.
    Validation(DatapathError),
    /// The extracted design failed the simulated RTL validation
    /// ([`bist_rtl::validate_simulated`], enabled via
    /// [`crate::SynthesisConfig::rtl_validation`]): the emitted netlist did
    /// not demonstrably test every module of the plan.
    RtlValidation(bist_rtl::RtlError),
    /// The ILP is infeasible: no BIST design exists for the requested number
    /// of registers and sub-test sessions.
    Infeasible {
        /// Requested number of sub-test sessions.
        sessions: usize,
    },
    /// The solver hit its limits before finding any feasible design.
    NoSolutionWithinLimits,
    /// The solve was cancelled (via a [`bist_ilp::CancelToken`]) before any
    /// feasible design was found. A cancellation *after* an incumbent was
    /// found is not an error — the best design found so far is returned,
    /// marked non-optimal.
    Interrupted,
    /// The requested number of sub-test sessions is outside `1..=N`.
    InvalidSessionCount {
        /// Requested k.
        requested: usize,
        /// Number of modules N.
        modules: usize,
    },
    /// The requested register count is below the minimum required.
    TooFewRegisters {
        /// Requested count.
        requested: usize,
        /// Minimum required (maximal horizontal crossing).
        minimum: usize,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Dfg(e) => write!(f, "invalid synthesis input: {e}"),
            CoreError::Ilp(e) => write!(f, "ilp failure: {e}"),
            CoreError::Validation(e) => write!(f, "extracted design failed validation: {e}"),
            CoreError::RtlValidation(e) => {
                write!(f, "extracted design failed simulated RTL validation: {e}")
            }
            CoreError::Infeasible { sessions } => {
                write!(f, "no feasible BIST design for a {sessions}-test session")
            }
            CoreError::NoSolutionWithinLimits => {
                write!(
                    f,
                    "solver limits expired before a feasible design was found"
                )
            }
            CoreError::Interrupted => {
                write!(f, "solve cancelled before a feasible design was found")
            }
            CoreError::InvalidSessionCount { requested, modules } => write!(
                f,
                "requested {requested} sub-test sessions but the design has {modules} modules"
            ),
            CoreError::TooFewRegisters { requested, minimum } => write!(
                f,
                "requested {requested} registers but the schedule needs at least {minimum}"
            ),
        }
    }
}

impl std::error::Error for CoreError {}

impl From<DfgError> for CoreError {
    fn from(e: DfgError) -> Self {
        CoreError::Dfg(e)
    }
}

impl From<IlpError> for CoreError {
    fn from(e: IlpError) -> Self {
        CoreError::Ilp(e)
    }
}

impl From<DatapathError> for CoreError {
    fn from(e: DatapathError) -> Self {
        CoreError::Validation(e)
    }
}

impl From<bist_rtl::RtlError> for CoreError {
    fn from(e: bist_rtl::RtlError) -> Self {
        CoreError::RtlValidation(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: CoreError = DfgError::Cyclic.into();
        assert!(e.to_string().contains("cycle"));
        let e: CoreError = IlpError::Snapshot {
            message: "fingerprint mismatch".into(),
        }
        .into();
        assert!(e.to_string().contains("fingerprint mismatch"));
        let e = CoreError::InvalidSessionCount {
            requested: 9,
            modules: 3,
        };
        assert!(e.to_string().contains('9'));
        let e = CoreError::TooFewRegisters {
            requested: 2,
            minimum: 5,
        };
        assert!(e.to_string().contains("at least 5"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CoreError>();
    }
}
