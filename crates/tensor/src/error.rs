use std::error::Error;
use std::fmt;

/// Errors produced by fallible tensor operations.
///
/// All variants carry enough context to diagnose the failing call without a
/// debugger; the [`fmt::Display`] output is lowercase and concise, following
/// the Rust API guidelines for error messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// The number of supplied elements does not match the product of the
    /// requested shape.
    LengthMismatch {
        /// Number of elements supplied.
        len: usize,
        /// Requested shape.
        shape: Vec<usize>,
    },
    /// Two operand shapes are incompatible for the attempted operation.
    ShapeMismatch {
        /// Name of the operation that failed.
        op: &'static str,
        /// Left-hand operand shape.
        lhs: Vec<usize>,
        /// Right-hand operand shape.
        rhs: Vec<usize>,
    },
    /// The operand has the wrong rank (number of dimensions).
    RankMismatch {
        /// Name of the operation that failed.
        op: &'static str,
        /// Expected rank.
        expected: usize,
        /// Actual shape.
        actual: Vec<usize>,
    },
    /// A convolution/pooling geometry is invalid (e.g. kernel larger than
    /// the padded input, or zero stride).
    InvalidGeometry {
        /// Name of the operation that failed.
        op: &'static str,
        /// Human-readable description of the violated constraint.
        reason: String,
    },
    /// An input that must be finite holds a NaN or an infinity.
    NonFinite {
        /// Name of the operation that refused the input.
        op: &'static str,
        /// Which input.
        input: &'static str,
    },
    /// An axis index is out of range for the operand's rank.
    AxisOutOfRange {
        /// The offending axis.
        axis: usize,
        /// Rank of the operand.
        rank: usize,
    },
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorError::LengthMismatch { len, shape } => write!(
                f,
                "data length {len} does not match shape {shape:?} (expected {})",
                shape.iter().product::<usize>()
            ),
            TensorError::ShapeMismatch { op, lhs, rhs } => {
                write!(f, "{op}: incompatible shapes {lhs:?} and {rhs:?}")
            }
            TensorError::RankMismatch {
                op,
                expected,
                actual,
            } => write!(
                f,
                "{op}: expected rank {expected}, got shape {actual:?} of rank {}",
                actual.len()
            ),
            TensorError::InvalidGeometry { op, reason } => {
                write!(f, "{op}: invalid geometry: {reason}")
            }
            TensorError::NonFinite { op, input } => {
                write!(f, "{op}: {input} holds a NaN or an infinity")
            }
            TensorError::AxisOutOfRange { axis, rank } => {
                write!(f, "axis {axis} out of range for rank {rank}")
            }
        }
    }
}

impl Error for TensorError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_informative() {
        let e = TensorError::ShapeMismatch {
            op: "add",
            lhs: vec![2, 3],
            rhs: vec![3, 2],
        };
        let msg = e.to_string();
        assert!(msg.contains("add"));
        assert!(msg.contains("[2, 3]"));
        assert!(msg.contains("[3, 2]"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TensorError>();
    }

    #[test]
    fn length_mismatch_reports_expected_product() {
        let e = TensorError::LengthMismatch {
            len: 5,
            shape: vec![2, 3],
        };
        assert!(e.to_string().contains("expected 6"));
    }
}
