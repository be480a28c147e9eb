//! Histogram probability-density representation and arithmetic.
//!
//! This crate implements the probabilistic core of Symbolic Noise Analysis
//! (SNA, Ahmadi & Zwolinski, DAC 2008): uncertain values are *histograms* — a
//! partition of a support interval into uniform-width bins, each carrying a
//! probability mass, with a *uniform-within-bin* interpretation.  Arithmetic
//! on histograms follows Berleant's method: a binary operation is evaluated
//! with interval arithmetic over the Cartesian product of operand bins, and
//! each partial result deposits its probability mass into the output grid.
//!
//! Compared to plain intervals (IA) a histogram carries full distribution
//! information; compared to affine forms (AA) the bounds do not suffer the
//! linear worst-case blow-up.
//!
//! # Example
//!
//! ```
//! use sna_hist::Histogram;
//!
//! # fn main() -> Result<(), sna_hist::HistError> {
//! // Two independent uniform uncertainties...
//! let a = Histogram::uniform(0.0, 1.0, 32)?;
//! let b = Histogram::uniform(0.0, 1.0, 32)?;
//! // ...their sum is triangular on [0, 2]:
//! let s = a.add(&b)?;
//! assert!((s.mean() - 1.0).abs() < 1e-9);
//! assert!((s.variance() - 2.0 / 12.0).abs() < 1e-3);
//! let (lo, hi) = s.support();
//! assert!((lo - 0.0).abs() < 1e-12 && (hi - 2.0).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```
//!
//! # Kernels
//!
//! Every operation deposits its partial results through one
//! [`MassAccumulator`]: the output grid's bin edges are laid out once per
//! operation as flat arrays, and so are the operand bin edges and the
//! trapezoid constants of the exact sum deposit; the per-pair loops then
//! run over plain slices.  The contract is **bit identity** with the
//! per-pair formulation those arrays replaced: each output bin sees the
//! same IEEE operations in the same order.  Every mass, grid and
//! downstream report is therefore unchanged to the last bit.
//! `tests/kernel_oracle.rs` keeps the
//! per-pair formulation verbatim as the reference and compares `to_bits`
//! of the grid and of every mass over operand bin counts 1–128, zero-mass
//! bins, both signs of the linear deposit, point-width operands, forced
//! grids, every [`DepositPolicy`] and operand width ratios from 1e-6 to
//! 1e6.
//!
//! One case leaves the per-pair formulation on purpose: an exact sum or
//! difference whose addend is uniform (all probabilities equal — every
//! noise symbol) deposits one trapezoid per bin of the other operand,
//! the bin convolved with the addend's whole support, instead of one per
//! bin pair.  That is the same exact model, `n_a` deposits instead of
//! `n_a · n_b`; only rounding differs.  The oracle keeps this loop
//! verbatim as well, compares it bit for bit on uniform addends, and
//! checks it against the per-pair sum to within `1e-12` of the peak mass.
//! Every other addend takes the per-pair loop, bit for bit.
//!
//! A deposit can also be recorded and replayed:
//! [`MassAccumulator::deposit_recorded`] deposits and lists every
//! `(bin, amount)` add it made, in order, and
//! [`MassAccumulator::replay`] re-applies such a list.  A replay leaves
//! the masses bit-identical to depositing the same interval and mass
//! again, without the overlap arithmetic; the Cartesian sweep replays
//! whenever an output repeats its last deposit.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod grid;
mod histogram;
mod kernel;
mod metrics;
mod ops;
mod render;

pub use error::HistError;
pub use grid::Grid;
pub use histogram::Histogram;
pub use kernel::MassAccumulator;
pub use ops::{DepositPolicy, OpOptions};
pub use render::RenderOptions;

/// The paper's granularity parameter `l`: noise symbols on `[-1, 1]` are
/// partitioned into `2^(l+1)` bins.
///
/// The evaluation tables of the paper index histograms by the *bin count*
/// `g`; use [`Granularity::from_bins`] for that convention.
///
/// # Example
///
/// ```
/// use sna_hist::Granularity;
///
/// assert_eq!(Granularity::new(3).bins(), 16);
/// assert_eq!(Granularity::from_bins(16).bins(), 16);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Granularity {
    l: u32,
}

impl Granularity {
    /// Creates a granularity from the exponent `l` (bin count `2^(l+1)`).
    pub fn new(l: u32) -> Self {
        Granularity { l }
    }

    /// Creates the smallest granularity whose bin count is at least `bins`.
    ///
    /// # Panics
    ///
    /// Panics if `bins < 2`.
    pub fn from_bins(bins: usize) -> Self {
        assert!(bins >= 2, "granularity requires at least two bins");
        let mut l = 0;
        while (1usize << (l + 1)) < bins {
            l += 1;
        }
        Granularity { l }
    }

    /// The exponent `l`.
    pub fn level(&self) -> u32 {
        self.l
    }

    /// The number of bins, `2^(l+1)`.
    pub fn bins(&self) -> usize {
        1usize << (self.l + 1)
    }

    /// Bin width for a symbol on `[-1, 1]`: `2^-l`.
    pub fn symbol_bin_width(&self) -> f64 {
        2.0 / self.bins() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn granularity_round_trips() {
        for l in 0..8 {
            let g = Granularity::new(l);
            assert_eq!(g.level(), l);
            assert_eq!(g.bins(), 1 << (l + 1));
            assert_eq!(Granularity::from_bins(g.bins()), g);
        }
    }

    #[test]
    fn granularity_from_bins_rounds_up() {
        assert_eq!(Granularity::from_bins(2).bins(), 2);
        assert_eq!(Granularity::from_bins(3).bins(), 4);
        assert_eq!(Granularity::from_bins(5).bins(), 8);
        assert_eq!(Granularity::from_bins(64).bins(), 64);
    }

    #[test]
    fn symbol_bin_width_matches_paper() {
        // The paper divides [-1, 1] into 2^(l+1) bins of width 2^-l.
        let g = Granularity::new(4);
        assert_eq!(g.symbol_bin_width(), 2.0_f64.powi(-4));
    }
}
