//! Cartesian histogram evaluation of polynomials — the heart of the SNA
//! algorithm of Section 4 of the paper.
//!
//! Each symbol's PDF is a histogram of bins; the polynomial is evaluated with
//! interval arithmetic over every element of the Cartesian product of the
//! symbols' bins, and each partial result interval deposits the product of
//! the bin probabilities into the output histogram.

use sna_hist::{DepositPolicy, Grid, Histogram, MassAccumulator};
use sna_interval::Interval;

use crate::{ExprError, Poly, SymbolTable};

/// Options for [`Poly::eval_histogram`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HistEvalOptions {
    /// Number of bins of the output histogram.
    pub out_bins: usize,
    /// How partial results deposit their mass (see [`DepositPolicy`]).
    pub deposit: DepositPolicy,
    /// Abort when the Cartesian product would exceed this many combinations.
    pub max_combinations: u128,
}

impl Default for HistEvalOptions {
    fn default() -> Self {
        HistEvalOptions {
            out_bins: 64,
            deposit: DepositPolicy::Uniform,
            max_combinations: 100_000_000,
        }
    }
}

impl HistEvalOptions {
    /// Sets the output bin count.
    pub fn with_out_bins(mut self, bins: usize) -> Self {
        self.out_bins = bins;
        self
    }

    /// Sets the deposit policy.
    pub fn with_deposit(mut self, deposit: DepositPolicy) -> Self {
        self.deposit = deposit;
        self
    }

    /// Sets the combination budget.
    pub fn with_max_combinations(mut self, max: u128) -> Self {
        self.max_combinations = max;
        self
    }
}

impl Poly {
    /// Evaluates the polynomial's distribution by exact Cartesian
    /// enumeration of all symbol-bin combinations (Section 4 algorithm).
    ///
    /// Runtime is `O(out_bins + T · ∏ binsᵢ)` where `T` is the term count
    /// and the product ranges over the symbols *appearing in this
    /// polynomial* — symbols registered in the table but absent from the
    /// polynomial cost nothing.
    ///
    /// # Errors
    ///
    /// * [`ExprError::TooManyCombinations`] when the bin product exceeds the
    ///   budget in `opts`;
    /// * [`ExprError::Hist`] when constructing the output histogram fails
    ///   (e.g. the polynomial is constant, so its support is degenerate).
    pub fn eval_histogram(
        &self,
        table: &SymbolTable,
        opts: &HistEvalOptions,
    ) -> Result<Histogram, ExprError> {
        let symbols = self.symbols();
        let pdfs: Vec<&Histogram> = symbols.iter().map(|&s| table.info(s).pdf()).collect();

        // Budget check.
        let mut combos: u128 = 1;
        for pdf in &pdfs {
            combos = combos.saturating_mul(pdf.n_bins() as u128);
            if combos > opts.max_combinations {
                return Err(ExprError::TooManyCombinations {
                    required: combos,
                    budget: opts.max_combinations,
                });
            }
        }

        // Output grid from the guaranteed range over full symbol supports.
        let full = self.eval_interval(|id| {
            let (lo, hi) = table.info(id).pdf().support();
            Interval::new(lo, hi).expect("pdf support is a valid interval")
        });
        let grid = Grid::over(full, opts.out_bins).map_err(ExprError::Hist)?;
        let mut acc = MassAccumulator::new(grid);

        // Odometer enumeration of the Cartesian product.
        let mut idx = vec![0usize; symbols.len()];
        let mut ranges: Vec<Interval> = Vec::with_capacity(symbols.len());
        loop {
            ranges.clear();
            let mut mass = 1.0;
            for (k, pdf) in pdfs.iter().enumerate() {
                ranges.push(pdf.grid().bin_interval(idx[k]));
                mass *= pdf.prob(idx[k]);
            }
            if mass > 0.0 {
                let out = self.eval_interval(|id| {
                    let k = symbols
                        .binary_search(&id)
                        .expect("symbol present in polynomial");
                    ranges[k]
                });
                acc.deposit(out, mass, opts.deposit);
            }
            // Advance the odometer.
            let mut k = 0;
            loop {
                if k == idx.len() {
                    return acc.finish().map_err(ExprError::Hist);
                }
                idx[k] += 1;
                if idx[k] < pdfs[k].n_bins() {
                    break;
                }
                idx[k] = 0;
                k += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_symbol_round_trips_distribution() {
        let mut t = SymbolTable::new();
        let x = t.add_uniform("x", 32).unwrap();
        let p = Poly::symbol(x);
        let h = p
            .eval_histogram(&t, &HistEvalOptions::default().with_out_bins(32))
            .unwrap();
        assert_eq!(h.support(), (-1.0, 1.0));
        assert!(h.mean().abs() < 1e-9);
        assert!((h.variance() - 1.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn sum_of_symbols_is_triangular() {
        let mut t = SymbolTable::new();
        let x = t.add_uniform("x", 16).unwrap();
        let y = t.add_uniform("y", 16).unwrap();
        let p = Poly::symbol(x).add(&Poly::symbol(y));
        let h = p
            .eval_histogram(&t, &HistEvalOptions::default().with_out_bins(64))
            .unwrap();
        assert_eq!(h.support(), (-2.0, 2.0));
        assert!(h.mean().abs() < 1e-9);
        assert!((h.variance() - 2.0 / 3.0).abs() < 2e-2);
        assert!(h.density(0.0) > h.density(1.5));
    }

    #[test]
    fn histogram_moments_match_symbolic_moments() {
        let mut t = SymbolTable::new();
        let x = t.add_uniform("x", 48).unwrap();
        let y = t.add_uniform("y", 48).unwrap();
        // p = x + 0.5·xy + 0.25·y²
        let p = Poly::symbol(x)
            .add(&Poly::symbol(x).mul(&Poly::symbol(y)).scale(0.5))
            .add(&Poly::symbol(y).sqr().scale(0.25));
        let h = p
            .eval_histogram(&t, &HistEvalOptions::default().with_out_bins(128))
            .unwrap();
        assert!((h.mean() - p.mean(&t)).abs() < 5e-3);
        assert!((h.variance() - p.variance(&t)).abs() < 2e-2);
    }

    #[test]
    fn budget_is_enforced() {
        let mut t = SymbolTable::new();
        let ids: Vec<_> = (0..8)
            .map(|i| t.add_uniform(format!("s{i}"), 64).unwrap())
            .collect();
        let mut p = Poly::zero();
        for id in ids {
            p = p.add(&Poly::symbol(id));
        }
        let err = p
            .eval_histogram(
                &t,
                &HistEvalOptions::default().with_max_combinations(1_000_000),
            )
            .unwrap_err();
        assert!(matches!(err, ExprError::TooManyCombinations { .. }));
    }

    #[test]
    fn constant_polynomial_fails_gracefully() {
        let t = SymbolTable::new();
        let p = Poly::constant(1.0);
        assert!(matches!(
            p.eval_histogram(&t, &HistEvalOptions::default()),
            Err(ExprError::Hist(_))
        ));
    }

    #[test]
    fn unused_table_symbols_are_free() {
        let mut t = SymbolTable::new();
        let x = t.add_uniform("x", 8).unwrap();
        for i in 0..50 {
            t.add_uniform(format!("unused{i}"), 64).unwrap();
        }
        // Would explode if unused symbols were enumerated.
        let h = Poly::symbol(x)
            .eval_histogram(&t, &HistEvalOptions::default().with_max_combinations(16))
            .unwrap();
        assert_eq!(h.support(), (-1.0, 1.0));
    }

    #[test]
    fn midpoint_policy_gives_inner_support() {
        let mut t = SymbolTable::new();
        let x = t.add_uniform("x", 4).unwrap();
        let p = Poly::symbol(x).scale(2.0);
        let inner = p
            .eval_histogram(
                &t,
                &HistEvalOptions::default()
                    .with_out_bins(16)
                    .with_deposit(DepositPolicy::Midpoint),
            )
            .unwrap();
        let (lo, hi) = inner.effective_support(0.0);
        // Midpoints of the extreme bins are ±1.5 (scaled: ±1.5·... here ±1.5
        // of 2x with x-bin mids ±0.75).
        assert!(lo >= -2.0 + 0.2);
        assert!(hi <= 2.0 - 0.2);
    }
}
