//! `sna-vm` — a lowered bytecode engine and vectorized Monte-Carlo
//! evaluation backend for SNA datapath graphs.
//!
//! The interpreted engines walk the [`sna_dfg::Dfg`] node-by-node
//! through match dispatch for every sample.  This crate compiles the
//! graph **once** into a flat, register-allocated program
//! ([`Program`]), binds it to concrete constants and per-node
//! quantizers ([`Executable`]), and then sweeps N Monte-Carlo sample
//! paths per instruction over contiguous f64 lanes — paired exact and
//! quantized banks, so every step yields per-output error samples
//! (`quantized − exact`) for free.
//!
//! Three layers:
//!
//! * [`Program::compile`] — lowering + linear-scan register allocation
//!   (delay feedback and constants handled via pinned registers);
//! * [`Executable`] — the vectorized interpreter, bit-compatible with
//!   the scalar `Simulator`/`FixedSimulator` pair (see the README for
//!   the exactness argument and its documented caveats). Its step
//!   sweep is compiled once per [`Isa`] tier (baseline, AVX2,
//!   AVX-512) and runs the widest one the host CPU reports; every tier
//!   produces the same bits;
//! * [`simulate`] — a deterministic chunked Monte-Carlo driver whose
//!   output is independent of the worker count.
//!
//! [`run_ordered`] is the workspace's one parallel loop: it runs `n`
//! indexed jobs on at most [`MAX_WORKERS`] threads and returns their
//! results in index order. The VM drivers, the word-length optimizers
//! and the CLI batch runner all fan out through it.
//!
//! See `crates/vm/README.md` for the bytecode format, SoA layout, and
//! determinism scheme.

// `deny` rather than `forbid`: `Executable::step`'s call into the
// detected lane-kernel tier (a `#[target_feature]` function) is the one
// place allowed, via a scoped `#[allow]`, to use unsafe. Everything
// else in the crate remains unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod exec;
mod fanout;
mod program;
mod replay;
mod simulate;

pub use exec::{Executable, Isa, VmState};
pub use fanout::{default_workers, run_ordered, worker_count, MAX_WORKERS};
pub use program::{Inst, OpCode, Program, Reg};
pub use replay::{replay, ReplayOptions};
pub use simulate::{simulate, OutputStats, SimOptions};

use sna_dfg::NodeId;
use sna_hist::HistError;

/// Errors from compilation, execution, or simulation.
#[derive(Clone, Debug, PartialEq)]
pub enum VmError {
    /// A division instruction saw a zero divisor (exact or quantized)
    /// in at least one lane.
    DivisionByZero {
        /// The graph node performing the division.
        node: NodeId,
    },
    /// The number of input lane vectors does not match the program.
    InputArity {
        /// Inputs the program expects.
        expected: usize,
        /// Inputs supplied.
        got: usize,
    },
    /// An input row does not hold one value per lane of the state.
    LaneCount {
        /// Lanes of the state being stepped.
        expected: usize,
        /// Values in the offending input row.
        got: usize,
    },
    /// No sample paths requested, or every step fell inside the warmup.
    NoSamples,
    /// Building the empirical error histogram failed.
    Histogram(HistError),
    /// The simulation was stopped by its caller's cancellation check
    /// before every chunk completed (see [`simulate`]).
    Cancelled,
}

impl std::fmt::Display for VmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VmError::DivisionByZero { node } => {
                write!(f, "division by zero at node {node}")
            }
            VmError::InputArity { expected, got } => {
                write!(f, "expected {expected} inputs, got {got}")
            }
            VmError::LaneCount { expected, got } => {
                write!(f, "expected {expected} lanes per input row, got {got}")
            }
            VmError::NoSamples => {
                write!(f, "no samples to simulate (paths = 0 or steps <= warmup)")
            }
            VmError::Histogram(e) => write!(f, "error histogram: {e}"),
            VmError::Cancelled => write!(f, "simulation cancelled"),
        }
    }
}

impl std::error::Error for VmError {}

impl From<HistError> for VmError {
    fn from(e: HistError) -> Self {
        VmError::Histogram(e)
    }
}
