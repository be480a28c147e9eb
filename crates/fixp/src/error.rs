use std::error::Error;
use std::fmt;

use sna_dfg::DfgError;
use sna_hist::HistError;

/// Errors produced by fixed-point construction and simulation.
#[derive(Clone, Debug, PartialEq)]
pub enum FixpError {
    /// The requested format is not representable (word length out of the
    /// supported 2..=48 range, or more fractional bits than total bits
    /// allow).
    InvalidFormat {
        /// Requested total word length.
        total_bits: u8,
        /// Requested fractional bits.
        frac_bits: u8,
    },
    /// A value range cannot fit in the requested word length even with zero
    /// fractional bits.
    RangeTooWide {
        /// The range that had to be covered.
        lo: f64,
        /// Upper end of the range.
        hi: f64,
        /// The word length that was available.
        total_bits: u8,
    },
    /// A fixed-point division by zero.
    DivisionByZero,
    /// An underlying graph operation failed.
    Dfg(DfgError),
    /// An underlying histogram operation failed.
    Hist(HistError),
}

impl fmt::Display for FixpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FixpError::InvalidFormat {
                total_bits,
                frac_bits,
            } => write!(
                f,
                "invalid fixed-point format: {total_bits} total bits, {frac_bits} fractional"
            ),
            FixpError::RangeTooWide { lo, hi, total_bits } => {
                write!(f, "range [{lo}, {hi}] does not fit in {total_bits} bits")
            }
            FixpError::DivisionByZero => write!(f, "fixed-point division by zero"),
            FixpError::Dfg(e) => write!(f, "graph error: {e}"),
            FixpError::Hist(e) => write!(f, "histogram error: {e}"),
        }
    }
}

impl Error for FixpError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            FixpError::Dfg(e) => Some(e),
            FixpError::Hist(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DfgError> for FixpError {
    fn from(e: DfgError) -> Self {
        FixpError::Dfg(e)
    }
}

impl From<HistError> for FixpError {
    fn from(e: HistError) -> Self {
        FixpError::Hist(e)
    }
}
