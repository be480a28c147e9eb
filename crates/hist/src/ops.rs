//! Histogram arithmetic (Berleant's method).
//!
//! A binary operation on two independent histograms is computed by applying
//! interval arithmetic to every pair of operand bins and depositing the
//! product mass `p_a · p_b` into the output grid.  How each partial result
//! spreads over the output bins is controlled by a [`DepositPolicy`].

use sna_interval::Interval;

use crate::kernel::{deposit_sqr, MassAccumulator, Trapezoid};
use crate::{Grid, HistError, Histogram};

/// How a partial result interval deposits its probability mass into the
/// output grid.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DepositPolicy {
    /// Spread the mass uniformly over the result interval (the basic
    /// histogram method of the paper).  Conservative and fast; the default.
    #[default]
    Uniform,
    /// Use the exact within-bin distribution of the operation where one is
    /// known (`x + y` / `x - y` of uniform bins is trapezoidal; `x²` has a
    /// closed-form push-forward).  Falls back to [`DepositPolicy::Uniform`]
    /// for operations without a closed form (multiplication, division,
    /// generic `apply_binary`).
    Exact,
    /// Put all mass into the bin containing the interval midpoint.  Produces
    /// *inner* (non-conservative) bounds; useful for comparison studies.
    Midpoint,
}

/// Options controlling a histogram operation.
///
/// # Example
///
/// ```
/// use sna_hist::{Histogram, OpOptions, DepositPolicy};
///
/// # fn main() -> Result<(), sna_hist::HistError> {
/// let a = Histogram::uniform(0.0, 1.0, 8)?;
/// let b = Histogram::uniform(0.0, 1.0, 8)?;
/// let opts = OpOptions::default().with_out_bins(32).with_deposit(DepositPolicy::Exact);
/// let s = a.add_with(&b, &opts)?;
/// assert_eq!(s.n_bins(), 32);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct OpOptions {
    /// Number of output bins; defaults to the larger operand bin count.
    pub out_bins: Option<usize>,
    /// Force a specific output grid (out-of-range mass clamps to boundary
    /// bins).  Overrides `out_bins`.
    pub grid: Option<Grid>,
    /// Mass deposit policy.
    pub deposit: DepositPolicy,
}

impl OpOptions {
    /// Sets the number of output bins.
    pub fn with_out_bins(mut self, bins: usize) -> Self {
        self.out_bins = Some(bins);
        self
    }

    /// Forces the output grid.
    pub fn with_grid(mut self, grid: Grid) -> Self {
        self.grid = Some(grid);
        self
    }

    /// Sets the deposit policy.
    pub fn with_deposit(mut self, deposit: DepositPolicy) -> Self {
        self.deposit = deposit;
        self
    }
}

impl Histogram {
    // ------------------------------------------------------------------
    // Binary operations
    // ------------------------------------------------------------------

    /// Sum of two independent uncertain values (exact trapezoidal deposit).
    ///
    /// # Errors
    ///
    /// Propagates grid construction failures (degenerate output support).
    pub fn add(&self, rhs: &Histogram) -> Result<Histogram, HistError> {
        self.add_with(
            rhs,
            &OpOptions::default().with_deposit(DepositPolicy::Exact),
        )
    }

    /// Sum with explicit options.
    ///
    /// # Errors
    ///
    /// Propagates grid construction failures.
    pub fn add_with(&self, rhs: &Histogram, opts: &OpOptions) -> Result<Histogram, HistError> {
        if opts.deposit == DepositPolicy::Exact {
            self.linear_exact(rhs, 1.0, opts)
        } else {
            self.apply_binary(rhs, |a, b| a + b, opts)
        }
    }

    /// Difference of two independent uncertain values.
    ///
    /// # Errors
    ///
    /// Propagates grid construction failures.
    pub fn sub(&self, rhs: &Histogram) -> Result<Histogram, HistError> {
        self.sub_with(
            rhs,
            &OpOptions::default().with_deposit(DepositPolicy::Exact),
        )
    }

    /// Difference with explicit options.
    ///
    /// # Errors
    ///
    /// Propagates grid construction failures.
    pub fn sub_with(&self, rhs: &Histogram, opts: &OpOptions) -> Result<Histogram, HistError> {
        if opts.deposit == DepositPolicy::Exact {
            self.linear_exact(rhs, -1.0, opts)
        } else {
            self.apply_binary(rhs, |a, b| a - b, opts)
        }
    }

    /// Product of two independent uncertain values.
    ///
    /// The deposit is uniform-within-result-interval (no closed form is used
    /// for the product of two uniforms); with narrow bins the approximation
    /// error is second-order.
    ///
    /// # Errors
    ///
    /// Propagates grid construction failures.
    pub fn mul(&self, rhs: &Histogram) -> Result<Histogram, HistError> {
        self.mul_with(rhs, &OpOptions::default())
    }

    /// Product with explicit options.
    ///
    /// # Errors
    ///
    /// Propagates grid construction failures.
    pub fn mul_with(&self, rhs: &Histogram, opts: &OpOptions) -> Result<Histogram, HistError> {
        self.apply_binary(rhs, |a, b| a * b, opts)
    }

    /// Quotient of two independent uncertain values.
    ///
    /// # Errors
    ///
    /// Returns [`HistError::DivisionByZero`] when the denominator support
    /// contains zero; otherwise propagates grid construction failures.
    pub fn div(&self, rhs: &Histogram) -> Result<Histogram, HistError> {
        self.div_with(rhs, &OpOptions::default())
    }

    /// Quotient with explicit options.
    ///
    /// # Errors
    ///
    /// Same as [`Histogram::div`].
    pub fn div_with(&self, rhs: &Histogram, opts: &OpOptions) -> Result<Histogram, HistError> {
        let (lo, hi) = rhs.support();
        if lo <= 0.0 && 0.0 <= hi {
            return Err(HistError::DivisionByZero {
                denominator: (lo, hi),
            });
        }
        self.apply_binary(
            rhs,
            |a, b| a.checked_div(&b).expect("denominator excludes zero"),
            opts,
        )
    }

    /// Applies an arbitrary inclusion-isotonic interval operation over the
    /// Cartesian product of operand bins.
    ///
    /// The output support is `f(support_a, support_b)` unless
    /// `opts.grid` is given; `f` must therefore be inclusion-isotonic (the
    /// image of sub-boxes must lie inside the image of the full box), which
    /// holds for every interval-arithmetic primitive.
    ///
    /// # Errors
    ///
    /// Propagates grid construction failures (e.g. a constant `f` collapses
    /// the support).
    pub fn apply_binary(
        &self,
        rhs: &Histogram,
        f: impl Fn(Interval, Interval) -> Interval,
        opts: &OpOptions,
    ) -> Result<Histogram, HistError> {
        let grid = match opts.grid {
            Some(g) => g,
            None => {
                let sup = f(self.grid().support(), rhs.grid().support());
                let bins = opts
                    .out_bins
                    .unwrap_or_else(|| self.n_bins().max(rhs.n_bins()));
                Grid::over(sup, bins)?
            }
        };
        let rhs_bins: Vec<Interval> = rhs.bins().map(|(ib, _)| ib).collect();
        let mut acc = MassAccumulator::new(grid);
        for (ia, pa) in self.bins() {
            if pa == 0.0 {
                continue;
            }
            for (&ib, &pb) in rhs_bins.iter().zip(rhs.probs()) {
                let mass = pa * pb;
                if mass == 0.0 {
                    continue;
                }
                acc.deposit(f(ia, ib), mass, opts.deposit);
            }
        }
        acc.finish()
    }

    /// `self + sign·rhs` with the exact trapezoidal deposit for each bin
    /// pair (the true distribution of the sum of two uniform densities).
    ///
    /// An `rhs` whose probabilities are all equal is one uniform density
    /// on its support, so each `self` bin deposits a single trapezoid of
    /// the bin convolved with that whole support: `n_a` deposits instead
    /// of `n_a · n_b`.  The `n_b` equal-mass trapezoids of the per-pair
    /// loop sum to exactly that trapezoid, so only rounding differs.  Every
    /// other `rhs` takes the per-pair loop.
    fn linear_exact(
        &self,
        rhs: &Histogram,
        sign: f64,
        opts: &OpOptions,
    ) -> Result<Histogram, HistError> {
        let rhs_support = rhs.grid().support().scale(sign);
        let grid = match opts.grid {
            Some(g) => g,
            None => {
                let sup = self.grid().support() + rhs_support;
                let bins = opts
                    .out_bins
                    .unwrap_or_else(|| self.n_bins().max(rhs.n_bins()));
                Grid::over(sup, bins)?
            }
        };
        let mut acc = MassAccumulator::new(grid);
        let first = rhs.probs()[0];
        if rhs.probs().iter().all(|&pb| pb == first) {
            let trapezoid = Trapezoid::new(self.grid().bin_width(), rhs_support.width());
            for (ia, pa) in self.bins() {
                if pa != 0.0 {
                    trapezoid.deposit(&mut acc, ia.lo() + rhs_support.lo(), pa);
                }
            }
            return acc.finish();
        }
        let trapezoid = Trapezoid::new(self.grid().bin_width(), rhs.grid().bin_width());
        let rhs_lo: Vec<f64> = rhs.bins().map(|(ib, _)| ib.scale(sign).lo()).collect();
        for (ia, pa) in self.bins() {
            if pa == 0.0 {
                continue;
            }
            for (&ib_lo, &pb) in rhs_lo.iter().zip(rhs.probs()) {
                let mass = pa * pb;
                if mass == 0.0 {
                    continue;
                }
                trapezoid.deposit(&mut acc, ia.lo() + ib_lo, mass);
            }
        }
        acc.finish()
    }

    // ------------------------------------------------------------------
    // Unary operations
    // ------------------------------------------------------------------

    /// Negation (exact: mirrors the grid).
    pub fn neg(&self) -> Histogram {
        let grid = Grid::new(-self.grid().hi(), -self.grid().lo(), self.n_bins())
            .expect("mirrored grid is valid");
        let probs: Vec<f64> = self.probs().iter().rev().copied().collect();
        Histogram::from_masses(grid, probs).expect("mirrored histogram is valid")
    }

    /// Multiplication by a scalar (exact: scales the grid).
    ///
    /// # Errors
    ///
    /// Returns [`HistError::ZeroScale`] when `k == 0`.
    pub fn scale(&self, k: f64) -> Result<Histogram, HistError> {
        if k == 0.0 {
            return Err(HistError::ZeroScale);
        }
        if !k.is_finite() {
            return Err(HistError::NonFinite { value: k });
        }
        if k < 0.0 {
            return self.neg().scale(-k);
        }
        let grid = Grid::new(self.grid().lo() * k, self.grid().hi() * k, self.n_bins())?;
        Histogram::from_masses(grid, self.probs().to_vec())
    }

    /// Translation by a scalar (exact: shifts the grid).
    ///
    /// # Errors
    ///
    /// Returns [`HistError::NonFinite`] for a non-finite shift.
    pub fn shift(&self, c: f64) -> Result<Histogram, HistError> {
        if !c.is_finite() {
            return Err(HistError::NonFinite { value: c });
        }
        let grid = Grid::new(self.grid().lo() + c, self.grid().hi() + c, self.n_bins())?;
        Histogram::from_masses(grid, self.probs().to_vec())
    }

    /// Affine image `a·x + b` (exact).
    ///
    /// # Errors
    ///
    /// Returns [`HistError::ZeroScale`] when `a == 0`.
    pub fn affine(&self, a: f64, b: f64) -> Result<Histogram, HistError> {
        self.scale(a)?.shift(b)
    }

    /// Dependent square `x²` with the exact push-forward deposit.
    ///
    /// # Errors
    ///
    /// Propagates grid construction failures.
    pub fn sqr(&self) -> Result<Histogram, HistError> {
        self.sqr_with(&OpOptions::default().with_deposit(DepositPolicy::Exact))
    }

    /// Dependent square with explicit options.
    ///
    /// # Errors
    ///
    /// Propagates grid construction failures.
    pub fn sqr_with(&self, opts: &OpOptions) -> Result<Histogram, HistError> {
        let grid = match opts.grid {
            Some(g) => g,
            None => {
                let sup = self.grid().support().sqr();
                let bins = opts.out_bins.unwrap_or_else(|| self.n_bins());
                Grid::over(sup, bins)?
            }
        };
        let mut acc = MassAccumulator::new(grid);
        for (iv, p) in self.bins() {
            if p == 0.0 {
                continue;
            }
            match opts.deposit {
                DepositPolicy::Exact => deposit_sqr(&mut acc, iv, p),
                policy => acc.deposit(iv.sqr(), p, policy),
            }
        }
        acc.finish()
    }

    /// Dependent integer power `xⁿ`.
    ///
    /// # Errors
    ///
    /// Propagates grid construction failures; `n == 0` yields a degenerate
    /// support and therefore fails.
    pub fn powi(&self, n: u32) -> Result<Histogram, HistError> {
        match n {
            0 => Err(HistError::EmptySupport { lo: 1.0, hi: 1.0 }),
            1 => Ok(self.clone()),
            2 => self.sqr(),
            _ => self.apply_unary(|iv| iv.powi(n), &OpOptions::default()),
        }
    }

    /// Absolute value `|x|`.
    ///
    /// # Errors
    ///
    /// Propagates grid construction failures.
    pub fn abs(&self) -> Result<Histogram, HistError> {
        let (lo, _hi) = self.support();
        if lo >= 0.0 {
            return Ok(self.clone());
        }
        self.apply_unary(|iv| iv.abs(), &OpOptions::default())
    }

    /// Reciprocal `1/x`.
    ///
    /// # Errors
    ///
    /// Returns [`HistError::DivisionByZero`] when the support contains zero.
    pub fn recip(&self) -> Result<Histogram, HistError> {
        let (lo, hi) = self.support();
        if lo <= 0.0 && 0.0 <= hi {
            return Err(HistError::DivisionByZero {
                denominator: (lo, hi),
            });
        }
        self.apply_unary(
            |iv| iv.recip().expect("support excludes zero"),
            &OpOptions::default(),
        )
    }

    /// Applies an arbitrary inclusion-isotonic unary interval operation
    /// bin-by-bin.
    ///
    /// # Errors
    ///
    /// Propagates grid construction failures.
    pub fn apply_unary(
        &self,
        f: impl Fn(Interval) -> Interval,
        opts: &OpOptions,
    ) -> Result<Histogram, HistError> {
        let grid = match opts.grid {
            Some(g) => g,
            None => {
                let sup = f(self.grid().support());
                let bins = opts.out_bins.unwrap_or_else(|| self.n_bins());
                Grid::over(sup, bins)?
            }
        };
        let mut acc = MassAccumulator::new(grid);
        for (iv, p) in self.bins() {
            if p == 0.0 {
                continue;
            }
            acc.deposit(f(iv), p, opts.deposit);
        }
        acc.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol
    }

    #[test]
    fn add_of_uniforms_is_triangular() {
        let a = Histogram::uniform(0.0, 1.0, 32).unwrap();
        let b = Histogram::uniform(0.0, 1.0, 32).unwrap();
        let s = a.add(&b).unwrap();
        assert_eq!(s.support(), (0.0, 2.0));
        assert!(close(s.mean(), 1.0, 1e-9));
        // Var(U+U) = 1/12 + 1/12 = 1/6; trapezoid deposit is exact up to the
        // O(w²) uniform-within-bin requantization of the output grid.
        assert!(close(s.variance(), 1.0 / 6.0, 2e-3));
        // Peak in the middle, symmetric tails.
        assert!(s.density(1.0) > s.density(0.1));
        assert!(close(s.cdf(1.0), 0.5, 1e-9));
    }

    #[test]
    fn add_uniform_policy_overestimates_spread() {
        let a = Histogram::uniform(0.0, 1.0, 8).unwrap();
        let b = Histogram::uniform(0.0, 1.0, 8).unwrap();
        let exact = a.add(&b).unwrap();
        let blurred = a
            .add_with(
                &b,
                &OpOptions::default().with_deposit(DepositPolicy::Uniform),
            )
            .unwrap();
        assert!(blurred.variance() >= exact.variance());
    }

    #[test]
    fn sub_is_add_of_negation() {
        let a = Histogram::uniform(0.0, 2.0, 16).unwrap();
        let b = Histogram::uniform(0.5, 1.0, 16).unwrap();
        let d = a.sub(&b).unwrap();
        let d2 = a.add(&b.neg()).unwrap();
        assert!(close(d.mean(), d2.mean(), 1e-9));
        assert!(close(d.variance(), d2.variance(), 1e-9));
        assert_eq!(d.support(), (-1.0, 1.5));
    }

    #[test]
    fn mul_of_independent_uniforms_has_product_moments() {
        let a = Histogram::uniform(1.0, 3.0, 64).unwrap();
        let b = Histogram::uniform(2.0, 4.0, 64).unwrap();
        let p = a.mul(&b).unwrap();
        // E[ab] = E[a]E[b] = 6; independence is built into the method.
        assert!(close(p.mean(), 6.0, 2e-2));
        assert_eq!(p.support(), (2.0, 12.0));
        // Var(ab) = E[a²]E[b²] − (E[a]E[b])² for independent a, b.
        let va = 4.0 / 12.0;
        let vb = 4.0 / 12.0;
        let expected = (va + 4.0) * (vb + 9.0) - 36.0;
        assert!(close(p.variance(), expected, 0.05));
    }

    #[test]
    fn div_requires_nonzero_denominator() {
        let a = Histogram::uniform(1.0, 2.0, 8).unwrap();
        let z = Histogram::uniform(-1.0, 1.0, 8).unwrap();
        assert!(matches!(a.div(&z), Err(HistError::DivisionByZero { .. })));
        let b = Histogram::uniform(2.0, 4.0, 64).unwrap();
        let q = a.div(&b).unwrap();
        assert_eq!(q.support(), (0.25, 1.0));
        // E[1/b] = ln(2)/2 for U[2,4]; E[a] = 1.5.
        assert!(close(q.mean(), 1.5 * (2.0f64.ln() / 2.0), 1e-2));
    }

    #[test]
    fn neg_scale_shift_are_exact() {
        let h = Histogram::triangular(0.0, 2.0, 16).unwrap();
        let n = h.neg();
        assert_eq!(n.support(), (-2.0, 0.0));
        assert!(close(n.mean(), -h.mean(), 1e-12));
        let s = h.scale(-3.0).unwrap();
        assert_eq!(s.support(), (-6.0, 0.0));
        assert!(close(s.variance(), 9.0 * h.variance(), 1e-9));
        let t = h.shift(5.0).unwrap();
        assert!(close(t.mean(), h.mean() + 5.0, 1e-9));
        assert!(close(t.variance(), h.variance(), 1e-9));
        assert!(matches!(h.scale(0.0), Err(HistError::ZeroScale)));
    }

    #[test]
    fn sqr_of_unit_uniform() {
        // For x ~ U[-1,1]: E[x²] = 1/3, support [0,1], density ~ 1/(2√v).
        let x = Histogram::unit_symbol(128).unwrap();
        let s = x.sqr().unwrap();
        assert_eq!(s.support(), (0.0, 1.0));
        assert!(close(s.mean(), 1.0 / 3.0, 1e-3));
        // E[x⁴] = 1/5 ⇒ Var(x²) = 1/5 − 1/9 = 4/45.
        assert!(close(s.variance(), 4.0 / 45.0, 1e-2));
        // Density decreasing in v.
        assert!(s.density(0.05) > s.density(0.5));
    }

    #[test]
    fn sqr_beats_self_multiplication() {
        let x = Histogram::unit_symbol(32).unwrap();
        let dependent = x.sqr().unwrap();
        let independent = x.mul(&x).unwrap(); // treats the two factors as independent
        assert_eq!(dependent.support(), (0.0, 1.0));
        assert_eq!(independent.support(), (-1.0, 1.0));
    }

    #[test]
    fn powi_cases() {
        let x = Histogram::uniform(0.5, 2.0, 32).unwrap();
        assert!(x.powi(0).is_err());
        let p1 = x.powi(1).unwrap();
        assert_eq!(p1.support(), x.support());
        let p3 = x.powi(3).unwrap();
        assert_eq!(p3.support(), (0.125, 8.0));
        // E[x³] for U[0.5, 2]: (2⁴ − 0.5⁴)/(4·1.5) = 2.65625.
        assert!(close(p3.mean(), 2.65625, 0.05));
    }

    #[test]
    fn abs_folds_negative_mass() {
        let x = Histogram::uniform(-2.0, 1.0, 48).unwrap();
        let a = x.abs().unwrap();
        let (lo, hi) = a.support();
        assert!(lo >= -1e-12 && close(hi, 2.0, 1e-12));
        // E|x| for U[-2,1] = (4+1)/(2·3) = 5/6.
        assert!(close(a.mean(), 5.0 / 6.0, 2e-2));
        // Already-positive support is returned as-is.
        let p = Histogram::uniform(1.0, 2.0, 8).unwrap();
        assert_eq!(p.abs().unwrap(), p);
    }

    #[test]
    fn recip_requires_sign_definite_support() {
        let x = Histogram::uniform(-1.0, 1.0, 8).unwrap();
        assert!(x.recip().is_err());
        let y = Histogram::uniform(1.0, 2.0, 64).unwrap();
        let r = y.recip().unwrap();
        assert_eq!(r.support(), (0.5, 1.0));
        assert!(close(r.mean(), 2.0f64.ln(), 1e-2));
    }

    #[test]
    fn forced_grid_clamps_out_of_range() {
        let a = Histogram::uniform(0.0, 1.0, 8).unwrap();
        let b = Histogram::uniform(0.0, 1.0, 8).unwrap();
        let grid = Grid::new(0.5, 1.5, 4).unwrap();
        let s = a
            .add_with(&b, &OpOptions::default().with_grid(grid))
            .unwrap();
        assert!(close(s.total_mass(), 1.0, 1e-12));
        assert_eq!(s.support(), (0.5, 1.5));
        // Mass below 0.5 (= 12.5%) clamps into the first bin.
        assert!(s.prob(0) > 0.12);
    }

    #[test]
    fn midpoint_policy_gives_inner_bounds() {
        let a = Histogram::uniform(0.0, 1.0, 4).unwrap();
        let b = Histogram::uniform(0.0, 1.0, 4).unwrap();
        let opts = OpOptions::default()
            .with_deposit(DepositPolicy::Midpoint)
            .with_out_bins(16);
        let s = a.add_with(&b, &opts).unwrap();
        let (lo, hi) = s.effective_support(0.0);
        // Midpoints of extreme bin pairs are 0.25 and 1.75; the effective
        // support snaps outward to the edges of the bins containing them.
        let w = s.grid().bin_width();
        assert!(lo >= 0.25 - 1e-9);
        assert!(hi <= 1.75 + w + 1e-9);
    }

    #[test]
    fn binary_op_masses_are_conserved() {
        let a = Histogram::triangular(-1.0, 1.0, 16).unwrap();
        let b = Histogram::gaussian(0.0, 0.5, 16).unwrap();
        for op in ["add", "sub", "mul"] {
            let r = match op {
                "add" => a.add(&b).unwrap(),
                "sub" => a.sub(&b).unwrap(),
                _ => a.mul(&b).unwrap(),
            };
            assert!(close(r.total_mass(), 1.0, 1e-9), "mass lost in {op}");
        }
    }

    #[test]
    fn mean_linearity_of_add_sub() {
        let a = Histogram::triangular(0.0, 4.0, 32).unwrap();
        let b = Histogram::uniform(-1.0, 3.0, 32).unwrap();
        let s = a.add(&b).unwrap();
        assert!(close(s.mean(), a.mean() + b.mean(), 1e-9));
        let d = a.sub(&b).unwrap();
        assert!(close(d.mean(), a.mean() - b.mean(), 1e-9));
        // Independent ⇒ variances add, up to the O(w²) output-grid
        // requantization inflation (bounded by w²/6 empirically).
        let tol = d.grid().bin_width().powi(2) / 6.0 + 1e-9;
        assert!(close(s.variance(), a.variance() + b.variance(), tol));
        assert!(close(d.variance(), a.variance() + b.variance(), tol));
        // The inflation vanishes quadratically with finer output grids.
        let fine = a
            .add_with(
                &b,
                &OpOptions::default()
                    .with_deposit(DepositPolicy::Exact)
                    .with_out_bins(256),
            )
            .unwrap();
        assert!(close(fine.variance(), a.variance() + b.variance(), 2e-4));
    }
}
