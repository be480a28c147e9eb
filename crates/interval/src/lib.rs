//! Interval arithmetic kernels.
//!
//! [`Interval`] — closed intervals `[lo, hi]` with the usual arithmetic
//! (IA) — is the classical *range analysis* baseline that the Symbolic
//! Noise Analysis (SNA) method is compared against in the DAC'08 paper,
//! and at the same time the low-level kernel SNA itself is built on.
//! Interval arithmetic is *dependency-blind*: `x - x` evaluates to
//! `[lo-hi, hi-lo]` rather than `0`.  Dedicated dependent operations
//! ([`Interval::sqr`], [`Interval::powi`]) avoid the blow-up for the common
//! self-multiplication case.
//!
//! Affine arithmetic (AA), the paper's other baseline, is the degree-1
//! case of the noise-symbol polynomials in `sna-expr`: one symbol
//! `εi ∈ [-1, 1]` per uncertainty, correlations tracked through shared
//! symbols.
//!
//! # Example
//!
//! Reproducing the quadratic example of the paper (Table 1), `y = a·x² + b·x
//! + c` with `x ∈ \[-1,1\]`, `a ∈ \[9,10\]`, `b ∈ \[-6,-4\]`, `c ∈ \[6,7\]`:
//!
//! ```
//! use sna_interval::Interval;
//!
//! # fn main() -> Result<(), sna_interval::IntervalError> {
//! let x = Interval::new(-1.0, 1.0)?;
//! let a = Interval::new(9.0, 10.0)?;
//! let b = Interval::new(-6.0, -4.0)?;
//! let c = Interval::new(6.0, 7.0)?;
//! let y = a * x.sqr() + b * x + c;
//! assert_eq!(y, Interval::new(0.0, 23.0)?); // the paper's IA row
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod interval;

pub use error::IntervalError;
pub use interval::Interval;
