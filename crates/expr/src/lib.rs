//! Noise symbols and sparse multivariate polynomial algebra.
//!
//! The Symbolic Noise Analysis method represents an uncertain value as (see
//! Eq. 1 of the DAC'08 paper)
//!
//! ```text
//! x̂ = F(α₁, …, α_N ; ε₁, …, ε_N)
//! ```
//!
//! a *fractional function of polynomials* in bounded noise symbols
//! `εᵢ ∈ [-1, 1]`, each carrying a probability density (a
//! [`sna_hist::Histogram`]).  This crate provides:
//!
//! * [`SymbolTable`] — the registry mapping [`SymbolId`]s to names and PDFs,
//!   with cached raw moments `E[εᵏ]`;
//! * [`Poly`] — sparse multivariate polynomials over the symbols, with exact
//!   moment computation (mean/variance under symbol independence), interval
//!   range evaluation, and Cartesian histogram evaluation.
//!
//! Quotients by a signal-dependent polynomial are not represented: the
//! symbolic engine answers `UnsupportedOp` for such a divisor.
//!
//! # Example
//!
//! ```
//! use sna_expr::{Poly, SymbolTable};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut table = SymbolTable::new();
//! let x = table.add_uniform("x", 64)?;           // ε_x ~ U[-1, 1]
//! let p = Poly::symbol(x).mul(&Poly::symbol(x)); // p = ε_x²
//! assert!((p.mean(&table) - 1.0 / 3.0).abs() < 1e-6);
//! let range = p.eval_interval(|_| sna_interval::Interval::UNIT);
//! assert_eq!(range, sna_interval::Interval::new(0.0, 1.0)?);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod eval;
mod monomial;
mod poly;
mod symbol;

pub use error::ExprError;
pub use eval::HistEvalOptions;
pub use monomial::Monomial;
pub use poly::Poly;
pub use symbol::{SymbolId, SymbolInfo, SymbolTable};
