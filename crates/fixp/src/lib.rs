//! Fixed-point arithmetic substrate: formats and bit-true simulation.
//!
//! The SNA paper optimizes the *word length* of every functional unit in a
//! datapath.  This crate supplies the ground truth that any such analysis
//! must be validated against:
//!
//! * [`Format`] — signed two's-complement fixed-point formats
//!   (total word length + fractional bits), with [`Rounding`] (round to
//!   nearest / truncate) and [`Overflow`] (saturate / wrap) modes, exactly
//!   the arithmetic-feature space enumerated in the paper's introduction;
//! * [`Fx`] — exact fixed-point values (integer mantissas, `i128`
//!   intermediates — no double-rounding through `f64`);
//! * [`WlConfig`] — a per-node format assignment for a
//!   [`sna_dfg::Dfg`], the object the word-length optimizer mutates;
//! * [`FixedSimulator`] — bit-true, cycle-accurate simulation of a DFG
//!   under a [`WlConfig`], the scalar reference the `sna-vm` lane
//!   kernels are checked against step for step.
//!
//! Empirical output-error statistics (the "Actual Values" row of the
//! paper's Table 2) come from the vectorized Monte-Carlo driver in
//! `sna-vm`, which runs the same arithmetic on many sample paths at once.
//!
//! # Example
//!
//! ```
//! use sna_fixp::{Format, Rounding, Quantizer, Overflow};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Quantizing 0.3 to Q1.6 (8 bits total: 1 sign, 1 integer, 6 fraction):
//! let fmt = Format::new(8, 6)?;
//! let q = Quantizer::new(fmt, Rounding::Nearest, Overflow::Saturate);
//! let v = q.quantize(0.3);
//! assert!((v - 0.296875).abs() < 1e-12); // 19/64
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod format;
mod fx;
mod sim;

pub use error::FixpError;
pub use format::{Format, Overflow, Quantizer, Rounding, MAX_WORD_LENGTH};
pub use fx::Fx;
pub use sim::{FixedSimulator, WlConfig};
