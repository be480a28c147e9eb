use std::error::Error;
use std::fmt;

use crate::NodeId;

/// Errors produced while building, validating or analyzing a dataflow graph.
#[derive(Clone, Debug, PartialEq)]
pub enum DfgError {
    /// A delay placeholder was never bound to a source node.
    UnboundDelay {
        /// The offending delay node.
        node: NodeId,
    },
    /// A delay placeholder was bound more than once.
    DelayAlreadyBound {
        /// The offending delay node.
        node: NodeId,
    },
    /// The graph contains a cycle that does not pass through a delay.
    CombinationalCycle {
        /// A node on the cycle.
        node: NodeId,
    },
    /// A node id does not belong to this graph/builder.
    UnknownNode {
        /// The offending id.
        node: NodeId,
    },
    /// The graph declares no outputs.
    NoOutputs,
    /// Two outputs share the same name.
    DuplicateOutput {
        /// The repeated name.
        name: String,
    },
    /// An evaluation was called with the wrong number of inputs.
    WrongInputCount {
        /// Number of graph inputs.
        expected: usize,
        /// Number of values supplied.
        got: usize,
    },
    /// Division by zero during `f64` evaluation.
    DivisionByZero {
        /// The division node.
        node: NodeId,
    },
    /// Range analysis did not converge (feedback loop with gain >= 1 or
    /// too few iterations).
    RangeDivergence {
        /// Iterations performed before giving up.
        iterations: usize,
    },
    /// Range analysis encountered a division by a zero-straddling range.
    RangeDivisionByZero {
        /// The division node.
        node: NodeId,
    },
    /// An analysis requiring linearity found a nonlinear node.
    NonlinearNode {
        /// The offending node.
        node: NodeId,
    },
    /// An impulse response failed to decay (unstable feedback).
    UnstableImpulse {
        /// The injection node, or for an overflowed bound the node it
        /// belongs to.
        node: NodeId,
        /// Steps simulated before giving up: the whole step budget, or
        /// with `overflowed` the step the gain stopped being finite at.
        /// `None` where no step count is known.
        steps: Option<usize>,
        /// The gain overflowed `f64`: the response grows without bound.
        overflowed: bool,
    },
}

impl fmt::Display for DfgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DfgError::UnboundDelay { node } => write!(f, "delay node {node} was never bound"),
            DfgError::DelayAlreadyBound { node } => {
                write!(f, "delay node {node} is already bound")
            }
            DfgError::CombinationalCycle { node } => {
                write!(f, "combinational cycle through node {node}")
            }
            DfgError::UnknownNode { node } => write!(f, "node {node} is not in this graph"),
            DfgError::NoOutputs => write!(f, "graph declares no outputs"),
            DfgError::DuplicateOutput { name } => {
                write!(f, "output name {name:?} is declared twice")
            }
            DfgError::WrongInputCount { expected, got } => {
                write!(f, "expected {expected} inputs, got {got}")
            }
            DfgError::DivisionByZero { node } => {
                write!(f, "division by zero at node {node}")
            }
            DfgError::RangeDivergence { iterations } => {
                write!(f, "range analysis diverged after {iterations} iterations")
            }
            DfgError::RangeDivisionByZero { node } => {
                write!(f, "range of divisor at node {node} contains zero")
            }
            DfgError::NonlinearNode { node } => {
                write!(f, "node {node} is nonlinear in the signal path")
            }
            DfgError::UnstableImpulse {
                node,
                steps,
                overflowed,
            } => {
                write!(f, "impulse response from node {node} did not decay")?;
                match (overflowed, steps) {
                    (false, Some(steps)) => write!(f, " within {steps} steps"),
                    (false, None) => Ok(()),
                    (true, Some(steps)) => {
                        write!(f, ": its gain overflowed f64 after {steps} steps")
                    }
                    (true, None) => write!(f, ": its gain overflowed f64"),
                }
            }
        }
    }
}

impl Error for DfgError {}
