//! Error type shared by all mlq-core operations.

use std::fmt;

/// Errors returned by model construction, insertion, and prediction.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum MlqError {
    /// The number of coordinates in a point does not match the model space.
    DimensionMismatch {
        /// Dimensionality of the model space.
        expected: usize,
        /// Dimensionality of the offending point.
        got: usize,
    },
    /// A coordinate or cost value was NaN or infinite.
    NonFiniteValue {
        /// Human-readable description of where the value appeared.
        context: &'static str,
    },
    /// The model space was constructed with an empty or inverted range.
    InvalidSpace {
        /// Explanation of the violated requirement.
        reason: String,
    },
    /// A configuration parameter is outside its legal range.
    InvalidConfig {
        /// Explanation of the violated requirement.
        reason: String,
    },
    /// The memory budget cannot hold even the minimal tree.
    BudgetTooSmall {
        /// Bytes requested by the configuration.
        budget: usize,
        /// Minimum bytes required (root node plus one expansion).
        required: usize,
    },
    /// A feedback point was rejected by a [`GuardedModel`]'s outlier
    /// quarantine rather than applied to the inner model.
    ///
    /// [`GuardedModel`]: crate::GuardedModel
    FeedbackQuarantined {
        /// The observed cost that tripped the quarantine.
        cost: f64,
        /// The robust-window bound it violated.
        threshold: f64,
    },
    /// A persisted snapshot failed validation (bad magic, checksum
    /// mismatch, truncation, or structural invariant violations).
    SnapshotCorrupt {
        /// Explanation of what check failed.
        reason: String,
    },
    /// A persisted frame is intact (magic, length and checksum verify)
    /// but records a format version this build does not read.
    VersionMismatch {
        /// The version recorded in the frame.
        found: u32,
        /// The version this build reads.
        supported: u32,
    },
    /// An underlying I/O operation failed (storage fault or filesystem
    /// error).
    IoFault {
        /// Explanation of the failed operation.
        reason: String,
    },
}

impl fmt::Display for MlqError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MlqError::DimensionMismatch { expected, got } => {
                write!(f, "point has {got} dimensions, model space has {expected}")
            }
            MlqError::NonFiniteValue { context } => {
                write!(f, "non-finite value in {context}")
            }
            MlqError::InvalidSpace { reason } => write!(f, "invalid model space: {reason}"),
            MlqError::InvalidConfig { reason } => write!(f, "invalid configuration: {reason}"),
            MlqError::BudgetTooSmall { budget, required } => {
                write!(f, "memory budget of {budget} bytes is below the {required}-byte minimum")
            }
            MlqError::FeedbackQuarantined { cost, threshold } => {
                write!(f, "feedback cost {cost} quarantined (robust bound {threshold})")
            }
            MlqError::SnapshotCorrupt { reason } => write!(f, "snapshot corrupt: {reason}"),
            MlqError::VersionMismatch { found, supported } => {
                write!(f, "format version {found} is not read by this build (it reads {supported})")
            }
            MlqError::IoFault { reason } => write!(f, "i/o fault: {reason}"),
        }
    }
}

impl std::error::Error for MlqError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats_are_informative() {
        let e = MlqError::DimensionMismatch { expected: 4, got: 2 };
        assert_eq!(e.to_string(), "point has 2 dimensions, model space has 4");

        let e = MlqError::NonFiniteValue { context: "cost value" };
        assert!(e.to_string().contains("cost value"));

        let e = MlqError::BudgetTooSmall { budget: 10, required: 160 };
        assert!(e.to_string().contains("10"));
        assert!(e.to_string().contains("160"));
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&MlqError::InvalidConfig { reason: "x".into() });
    }
}
