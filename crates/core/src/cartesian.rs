//! The exact SNA algorithm of Section 4, for closed-form expressions over
//! a handful of uncertain inputs.
//!
//! Every uncertain input is a histogram; the expression is evaluated with
//! interval arithmetic over the full Cartesian product of input bins
//! (`∏ binsᵢ` combinations), and each partial result deposits the product
//! probability into the output histogram.  Exponential in the number of
//! inputs — exactly what the paper prescribes, and practical for the
//! quadratic/table examples it evaluates.

use sna_hist::{DepositPolicy, Grid, Histogram, MassAccumulator};
use sna_interval::Interval;

use crate::{NoiseReport, SnaError};

/// One uncertain input of a [`CartesianEngine`] analysis.
#[derive(Clone, Debug)]
pub struct UncertainInput {
    /// Display name.
    pub name: String,
    /// The input's distribution over its own support (e.g. uniform on
    /// `[9, 10]` for the paper's coefficient `a`).
    pub pdf: Histogram,
}

impl UncertainInput {
    /// Uniformly distributed input over `[lo, hi]` with `bins` bins — the
    /// paper's standard noise-symbol assumption applied to an input range.
    ///
    /// # Errors
    ///
    /// Propagates histogram construction failures.
    pub fn uniform(
        name: impl Into<String>,
        lo: f64,
        hi: f64,
        bins: usize,
    ) -> Result<Self, SnaError> {
        Ok(UncertainInput {
            name: name.into(),
            pdf: Histogram::uniform(lo, hi, bins)?,
        })
    }

    /// Input with an arbitrary PDF (the paper's "practically extracted or
    /// stimulus based model" option).
    pub fn with_pdf(name: impl Into<String>, pdf: Histogram) -> Self {
        UncertainInput {
            name: name.into(),
            pdf,
        }
    }
}

/// Exact Cartesian SNA evaluation of a user-supplied interval function.
///
/// # Example
///
/// The paper's quadratic `y = a·x² + b·x + c`:
///
/// ```
/// use sna_core::{CartesianEngine, UncertainInput};
///
/// # fn main() -> Result<(), sna_core::SnaError> {
/// let g = 16; // bins per symbol
/// let inputs = vec![
///     UncertainInput::uniform("x", -1.0, 1.0, g)?,
///     UncertainInput::uniform("a", 9.0, 10.0, g)?,
///     UncertainInput::uniform("b", -6.0, -4.0, g)?,
///     UncertainInput::uniform("c", 6.0, 7.0, g)?,
/// ];
/// let engine = CartesianEngine::new(128);
/// let report = engine.analyze(&inputs, |v| v[1] * v[0].sqr() + v[2] * v[0] + v[3])?;
/// // Converges toward the true range [5, 23] as g grows.
/// assert!(report.support.0 >= -0.1 && report.support.1 <= 23.1);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct CartesianEngine {
    out_bins: usize,
    deposit: DepositPolicy,
    max_combinations: u128,
}

impl CartesianEngine {
    /// Creates an engine producing `out_bins`-bin output histograms.
    pub fn new(out_bins: usize) -> Self {
        CartesianEngine {
            out_bins,
            deposit: DepositPolicy::Uniform,
            max_combinations: 1_000_000_000,
        }
    }

    /// Sets the deposit policy ([`DepositPolicy::Uniform`] is the paper's
    /// basic histogram method; [`DepositPolicy::Midpoint`] produces inner
    /// bounds).
    pub fn with_deposit(mut self, deposit: DepositPolicy) -> Self {
        self.deposit = deposit;
        self
    }

    /// Sets the combination budget.
    pub fn with_max_combinations(mut self, max: u128) -> Self {
        self.max_combinations = max;
        self
    }

    /// Runs the Section-4 algorithm on `f` over the Cartesian product of
    /// the input bins.
    ///
    /// `f` receives one interval per input (same order as `inputs`) and
    /// must be inclusion-isotonic — every composition of
    /// [`Interval`] primitives is.
    ///
    /// # Errors
    ///
    /// * [`SnaError::Expr`] ([`sna_expr::ExprError::TooManyCombinations`])
    ///   when the bin product exceeds the budget;
    /// * [`SnaError::Hist`] when the output histogram cannot be built
    ///   (degenerate support).
    pub fn analyze(
        &self,
        inputs: &[UncertainInput],
        f: impl Fn(&[Interval]) -> Interval,
    ) -> Result<NoiseReport, SnaError> {
        let mut combos: u128 = 1;
        for i in inputs {
            combos = combos.saturating_mul(i.pdf.n_bins() as u128);
        }
        if combos > self.max_combinations {
            return Err(SnaError::Expr(sna_expr::ExprError::TooManyCombinations {
                required: combos,
                budget: self.max_combinations,
            }));
        }

        // Output grid from the full-range interval evaluation.
        let full_ranges: Vec<Interval> = inputs
            .iter()
            .map(|i| {
                let (lo, hi) = i.pdf.support();
                Interval::new(lo, hi).expect("pdf support is valid")
            })
            .collect();
        let full = f(&full_ranges);
        let grid = Grid::over(full, self.out_bins).map_err(SnaError::Hist)?;
        let mut acc = MassAccumulator::new(grid);

        let mut idx = vec![0usize; inputs.len()];
        let mut ranges = full_ranges.clone();
        loop {
            let mut mass = 1.0;
            for (k, input) in inputs.iter().enumerate() {
                ranges[k] = input.pdf.grid().bin_interval(idx[k]);
                mass *= input.pdf.prob(idx[k]);
            }
            if mass > 0.0 {
                acc.deposit(f(&ranges), mass, self.deposit);
            }
            // Odometer.
            let mut k = 0;
            loop {
                if k == idx.len() {
                    let hist = acc.finish().map_err(SnaError::Hist)?;
                    return Ok(NoiseReport::from_histogram(hist));
                }
                idx[k] += 1;
                if idx[k] < inputs[k].pdf.n_bins() {
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

    fn quadratic_inputs(g: usize) -> Vec<UncertainInput> {
        vec![
            UncertainInput::uniform("x", -1.0, 1.0, g).unwrap(),
            UncertainInput::uniform("a", 9.0, 10.0, g).unwrap(),
            UncertainInput::uniform("b", -6.0, -4.0, g).unwrap(),
            UncertainInput::uniform("c", 6.0, 7.0, g).unwrap(),
        ]
    }

    fn quadratic(v: &[Interval]) -> Interval {
        v[1] * v[0].sqr() + v[2] * v[0] + v[3]
    }

    #[test]
    fn quadratic_bounds_tighten_with_granularity() {
        // The paper's Table 2: bounds converge monotonically toward the
        // true range [5, 23] (error range [-1.5, 16.5] around center 6.5).
        let mut widths = Vec::new();
        for g in [2usize, 4, 8, 16] {
            let report = CartesianEngine::new(64)
                .analyze(&quadratic_inputs(g), quadratic)
                .unwrap();
            // Bounds always enclose the true range.
            assert!(
                report.support.0 <= 5.0 + 1e-9,
                "g={g}: {:?}",
                report.support
            );
            assert!(
                report.support.1 >= 23.0 - 1e-9,
                "g={g}: {:?}",
                report.support
            );
            widths.push(report.support.1 - report.support.0);
        }
        for w in widths.windows(2) {
            assert!(w[1] <= w[0] + 1e-9, "widths must shrink: {widths:?}");
        }
        // At g=16 the overestimate is below one coarse bin.
        assert!(*widths.last().unwrap() < 18.0 + 1.5);
    }

    #[test]
    fn quadratic_moments_approach_analytic_values() {
        // E[y] = E[a]E[x²] + E[b]E[x] + E[c] = 9.5/3 + 6.5.
        // Var(y) = 16.5667 (see the paper's "Actual Values" row).
        let report = CartesianEngine::new(128)
            .analyze(&quadratic_inputs(32), quadratic)
            .unwrap();
        let expected_mean = 9.5 / 3.0 + 6.5;
        assert!(
            (report.mean - expected_mean).abs() < 0.05,
            "mean {} vs {expected_mean}",
            report.mean
        );
        assert!(
            (report.variance - 16.5667).abs() < 0.9,
            "variance {}",
            report.variance
        );
    }

    #[test]
    fn sna_is_tighter_than_affine_on_the_quadratic() {
        // AA yields [-10, 23]; SNA support at g>=8 must beat its width 33.
        let report = CartesianEngine::new(64)
            .analyze(&quadratic_inputs(8), quadratic)
            .unwrap();
        let width = report.support.1 - report.support.0;
        assert!(width < 33.0 - 5.0, "width {width}");
    }

    #[test]
    fn budget_is_enforced() {
        let inputs = quadratic_inputs(64);
        let err = CartesianEngine::new(64)
            .with_max_combinations(1000)
            .analyze(&inputs, quadratic)
            .unwrap_err();
        assert!(matches!(err, SnaError::Expr(_)));
    }

    #[test]
    fn midpoint_deposit_gives_inner_bounds() {
        let outer = CartesianEngine::new(64)
            .analyze(&quadratic_inputs(8), quadratic)
            .unwrap();
        let inner = CartesianEngine::new(64)
            .with_deposit(DepositPolicy::Midpoint)
            .analyze(&quadratic_inputs(8), quadratic)
            .unwrap();
        assert!(inner.support.0 >= outer.support.0 - 1e-9);
        assert!(inner.support.1 <= outer.support.1 + 1e-9);
    }

    #[test]
    fn custom_pdfs_shift_the_output() {
        // A triangular x concentrates mass near 0 ⇒ y concentrates near c.
        let g = 16;
        let tri =
            UncertainInput::with_pdf("x", sna_hist::Histogram::triangular(-1.0, 1.0, g).unwrap());
        let mut inputs = quadratic_inputs(g);
        inputs[0] = tri;
        let report = CartesianEngine::new(64)
            .analyze(&inputs, quadratic)
            .unwrap();
        let uniform_report = CartesianEngine::new(64)
            .analyze(&quadratic_inputs(g), quadratic)
            .unwrap();
        // x² smaller in expectation ⇒ smaller mean.
        assert!(report.mean < uniform_report.mean);
    }

    #[test]
    fn single_input_identity() {
        let inputs = vec![UncertainInput::uniform("x", 2.0, 4.0, 32).unwrap()];
        let report = CartesianEngine::new(32).analyze(&inputs, |v| v[0]).unwrap();
        assert!((report.mean - 3.0).abs() < 1e-9);
        assert!((report.variance - 4.0 / 12.0).abs() < 1e-9);
        assert_eq!(report.support, (2.0, 4.0));
    }
}
