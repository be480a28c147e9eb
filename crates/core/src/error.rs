use std::error::Error;
use std::fmt;

use sna_dfg::{DfgError, NodeId};
use sna_expr::ExprError;
use sna_fixp::FixpError;
use sna_hist::HistError;

/// Errors produced by the SNA engines.
#[derive(Clone, Debug, PartialEq)]
pub enum SnaError {
    /// Underlying graph failure.
    Dfg(DfgError),
    /// Underlying fixed-point failure.
    Fixp(FixpError),
    /// Underlying histogram failure.
    Hist(HistError),
    /// Underlying symbolic-expression failure.
    Expr(ExprError),
    /// The selected engine cannot handle an operation of the graph.
    UnsupportedOp {
        /// The offending node.
        node: NodeId,
        /// Human-readable reason / remedy.
        reason: &'static str,
    },
    /// The engine requires a combinational graph (use
    /// [`sna_dfg::Dfg::combinational_view`] or the LTI engine).
    SequentialGraph,
    /// An expression analysis was asked for with mismatched input counts.
    WrongInputCount {
        /// Expected number of uncertain inputs.
        expected: usize,
        /// Provided number.
        got: usize,
    },
    /// The selected engine handles combinational datapaths only.
    CombinationalOnly {
        /// The engine's wire/CLI name.
        engine: &'static str,
    },
    /// An input declaration cannot be turned into the engine's input
    /// model (e.g. a degenerate uncertainty range).
    InvalidInput {
        /// The input's name.
        name: String,
        /// The underlying failure, rendered.
        message: String,
    },
    /// The request's execution budget ran out of wall-clock time (see
    /// [`crate::Budget`]). Renders as exactly `deadline exceeded` — the
    /// service layer classifies on that string.
    DeadlineExceeded,
    /// The request was cancelled via its budget's cancel flag.
    Cancelled,
    /// A simulation or trace replay had no error sample to collect (a
    /// trace replay of a design without inputs). Renders with the text
    /// clients have always seen for it.
    NoSamples,
}

impl fmt::Display for SnaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnaError::Dfg(e) => write!(f, "graph error: {e}"),
            SnaError::Fixp(e) => write!(f, "fixed-point error: {e}"),
            SnaError::Hist(e) => write!(f, "histogram error: {e}"),
            SnaError::Expr(e) => write!(f, "expression error: {e}"),
            SnaError::UnsupportedOp { node, reason } => {
                write!(f, "unsupported operation at node {node}: {reason}")
            }
            SnaError::SequentialGraph => {
                write!(f, "engine requires a combinational graph")
            }
            SnaError::WrongInputCount { expected, got } => {
                write!(f, "expected {expected} uncertain inputs, got {got}")
            }
            SnaError::CombinationalOnly { engine } => {
                write!(
                    f,
                    "the {engine} engine handles combinational datapaths only \
                     (this one contains delays)"
                )
            }
            SnaError::InvalidInput { name, message } => {
                write!(f, "input `{name}`: {message}")
            }
            SnaError::DeadlineExceeded => write!(f, "deadline exceeded"),
            SnaError::Cancelled => write!(f, "request cancelled"),
            SnaError::NoSamples => {
                write!(
                    f,
                    "fixed-point error: monte-carlo requires at least one sample"
                )
            }
        }
    }
}

impl Error for SnaError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SnaError::Dfg(e) => Some(e),
            SnaError::Fixp(e) => Some(e),
            SnaError::Hist(e) => Some(e),
            SnaError::Expr(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DfgError> for SnaError {
    fn from(e: DfgError) -> Self {
        SnaError::Dfg(e)
    }
}

impl From<FixpError> for SnaError {
    fn from(e: FixpError) -> Self {
        SnaError::Fixp(e)
    }
}

impl From<HistError> for SnaError {
    fn from(e: HistError) -> Self {
        SnaError::Hist(e)
    }
}

impl From<ExprError> for SnaError {
    fn from(e: ExprError) -> Self {
        SnaError::Expr(e)
    }
}
