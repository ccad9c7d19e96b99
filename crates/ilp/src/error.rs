//! Error type shared by every fallible operation of the crate.

use std::fmt;

/// Errors produced while building or solving an ILP model.
#[derive(Debug, Clone, PartialEq)]
pub enum IlpError {
    /// A variable id referenced a variable that does not belong to the model.
    UnknownVariable {
        /// The offending variable index.
        index: usize,
        /// Number of variables currently in the model.
        len: usize,
    },
    /// A constraint or objective coefficient was NaN or infinite.
    InvalidCoefficient {
        /// Human readable location (constraint name or "objective").
        location: String,
    },
    /// A solve-state snapshot could not be applied: its variable count or
    /// content fingerprint shows it belongs to a different instance than
    /// the one being resumed (see [`crate::snapshot::SolveSnapshot`]).
    Snapshot {
        /// Description of the mismatch.
        message: String,
    },
}

impl fmt::Display for IlpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IlpError::UnknownVariable { index, len } => {
                write!(
                    f,
                    "unknown variable index {index} (model has {len} variables)"
                )
            }
            IlpError::InvalidCoefficient { location } => {
                write!(f, "non-finite coefficient in {location}")
            }
            IlpError::Snapshot { message } => {
                write!(f, "cannot resume from snapshot: {message}")
            }
        }
    }
}

impl std::error::Error for IlpError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let err = IlpError::UnknownVariable { index: 3, len: 2 };
        assert!(err.to_string().contains("unknown variable"));
        let err = IlpError::InvalidCoefficient {
            location: "cap".into(),
        };
        assert!(err.to_string().contains("cap"));
        let err = IlpError::Snapshot {
            message: "fingerprint mismatch".into(),
        };
        assert!(err.to_string().contains("cannot resume from snapshot"));
        assert!(err.to_string().contains("fingerprint mismatch"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<IlpError>();
    }
}
