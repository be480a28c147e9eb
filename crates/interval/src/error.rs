use std::error::Error;
use std::fmt;

/// Errors produced by interval arithmetic constructors and operations.
#[derive(Clone, Debug, PartialEq)]
pub enum IntervalError {
    /// The bounds were not ordered (`lo > hi`).
    UnorderedBounds {
        /// Requested lower bound.
        lo: f64,
        /// Requested upper bound.
        hi: f64,
    },
    /// A bound was NaN or infinite.
    NonFiniteBound {
        /// The offending value.
        value: f64,
    },
    /// Division by an interval that contains zero.
    DivisionByZero {
        /// The denominator interval as `(lo, hi)`.
        denominator: (f64, f64),
    },
}

impl fmt::Display for IntervalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IntervalError::UnorderedBounds { lo, hi } => {
                write!(f, "interval bounds are unordered: lo = {lo} > hi = {hi}")
            }
            IntervalError::NonFiniteBound { value } => {
                write!(f, "interval bound is not finite: {value}")
            }
            IntervalError::DivisionByZero { denominator } => write!(
                f,
                "division by interval [{}, {}] which contains zero",
                denominator.0, denominator.1
            ),
        }
    }
}

impl Error for IntervalError {}
