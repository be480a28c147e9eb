//! Dataflow-graph (DFG) substrate for symbolic noise analysis and
//! high-level synthesis.
//!
//! Every analysis in this reproduction of the DAC'08 SNA paper — interval
//! range analysis, histogram noise propagation, bit-true fixed-point
//! simulation, scheduling and binding — operates on the same graph
//! representation built here:
//!
//! * [`Dfg`] — an immutable, validated dataflow graph of arithmetic nodes
//!   ([`Op`]), supporting sequential semantics through unit-[`Op::Delay`]
//!   nodes (feedback is legal only through delays);
//! * [`DfgBuilder`] — the only way to construct a [`Dfg`]; delays may be
//!   forward-declared and bound later to express feedback;
//! * [`Simulator`] — cycle-accurate `f64` reference simulation;
//! * interval range analysis (with fixpoint iteration across delays) in
//!   the [`Dfg::ranges_interval`] family;
//! * LTI analysis ([`Dfg::impulse_gains`]) computing per-source L1/L2/DC
//!   gains to every output — the error-transfer machinery for linear
//!   datapaths with feedback (the paper's Designs I–IV are all linear);
//!   [`Dfg::adjoint_gains`] answers every source at once with one
//!   backwards pass per output, and [`Dfg::impulse_response`], the dense
//!   reference, answers the graphs and sources the adjoint cannot.
//!
//! # Example
//!
//! A one-pole IIR filter `y[n] = 0.5·y[n-1] + x[n]`:
//!
//! ```
//! use sna_dfg::DfgBuilder;
//!
//! # fn main() -> Result<(), sna_dfg::DfgError> {
//! let mut b = DfgBuilder::new();
//! let x = b.input("x");
//! let y_prev = b.delay_placeholder();
//! let half = b.constant(0.5);
//! let fb = b.mul(half, y_prev);
//! let y = b.add(x, fb);
//! b.bind_delay(y_prev, y)?;
//! b.output("y", y);
//! let dfg = b.build()?;
//!
//! let mut sim = sna_dfg::Simulator::new(&dfg);
//! assert_eq!(sim.step(&[1.0])?, vec![1.0]);  // y[0] = 1
//! assert_eq!(sim.step(&[0.0])?, vec![0.5]);  // y[1] = 0.5
//! assert_eq!(sim.step(&[0.0])?, vec![0.25]); // y[2] = 0.25
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod dot;
mod error;
mod eval;
mod graph;
mod lti;
mod range;
mod unroll;

pub use builder::DfgBuilder;
pub use error::DfgError;
pub use eval::Simulator;
pub use graph::{Dfg, Node, NodeId, Op, OpCounts};
pub use lti::{ImpulseGains, LtiOptions, OutputGain};
pub use range::RangeOptions;
