use std::error::Error;
use std::fmt;

use sna_hist::HistError;

/// Errors produced by symbolic expression evaluation.
#[derive(Clone, Debug, PartialEq)]
pub enum ExprError {
    /// A Cartesian histogram evaluation would enumerate more bin
    /// combinations than the configured budget.
    TooManyCombinations {
        /// Number of combinations the evaluation would visit.
        required: u128,
        /// The configured budget.
        budget: u128,
    },
    /// A referenced symbol does not exist in the table.
    UnknownSymbol {
        /// The raw index of the missing symbol.
        index: u32,
    },
    /// An underlying histogram operation failed.
    Hist(HistError),
}

impl fmt::Display for ExprError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExprError::TooManyCombinations { required, budget } => write!(
                f,
                "cartesian evaluation requires {required} bin combinations, budget is {budget}"
            ),
            ExprError::UnknownSymbol { index } => {
                write!(f, "unknown symbol index {index}")
            }
            ExprError::Hist(e) => write!(f, "histogram operation failed: {e}"),
        }
    }
}

impl Error for ExprError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ExprError::Hist(e) => Some(e),
            _ => None,
        }
    }
}

impl From<HistError> for ExprError {
    fn from(e: HistError) -> Self {
        ExprError::Hist(e)
    }
}
