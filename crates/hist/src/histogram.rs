use std::fmt;

use sna_interval::Interval;

use crate::{Grid, HistError, MassAccumulator};

/// A discretized probability density: a [`Grid`] plus one probability mass
/// per bin, with mass distributed *uniformly within each bin*.
///
/// Histograms are always kept normalized (total mass 1) by their
/// constructors.  All moments and quantiles honour the uniform-within-bin
/// interpretation, so e.g. the variance of `Histogram::uniform(0, 1, n)` is
/// exactly `1/12` for any `n`.
///
/// # Example
///
/// ```
/// use sna_hist::Histogram;
///
/// # fn main() -> Result<(), sna_hist::HistError> {
/// let h = Histogram::uniform(-1.0, 1.0, 32)?;
/// assert!((h.mean()).abs() < 1e-12);
/// assert!((h.variance() - 1.0 / 3.0).abs() < 1e-12);
/// assert_eq!(h.support(), (-1.0, 1.0));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Histogram {
    grid: Grid,
    probs: Vec<f64>,
}

impl Histogram {
    // ------------------------------------------------------------------
    // Constructors
    // ------------------------------------------------------------------

    /// Creates a histogram from a grid and per-bin masses, normalizing the
    /// total mass to 1.
    ///
    /// # Errors
    ///
    /// * [`HistError::NegativeMass`] / [`HistError::NonFinite`] for invalid
    ///   masses;
    /// * [`HistError::ZeroTotalMass`] when all masses are zero;
    /// * [`HistError::ZeroBins`] when `masses.len() != grid.n_bins()`.
    pub fn from_masses(grid: Grid, masses: Vec<f64>) -> Result<Self, HistError> {
        if masses.len() != grid.n_bins() {
            return Err(HistError::ZeroBins);
        }
        let mut total = 0.0;
        for &m in &masses {
            if !m.is_finite() {
                return Err(HistError::NonFinite { value: m });
            }
            if m < 0.0 {
                return Err(HistError::NegativeMass { value: m });
            }
            total += m;
        }
        if total <= 0.0 {
            return Err(HistError::ZeroTotalMass);
        }
        let probs = masses.into_iter().map(|m| m / total).collect();
        Ok(Histogram { grid, probs })
    }

    /// The uniform distribution on `[lo, hi]` with `bins` bins.
    ///
    /// # Errors
    ///
    /// Propagates grid construction errors (see [`Grid::new`]).
    pub fn uniform(lo: f64, hi: f64, bins: usize) -> Result<Self, HistError> {
        let grid = Grid::new(lo, hi, bins)?;
        let p = 1.0 / bins as f64;
        Ok(Histogram {
            grid,
            probs: vec![p; bins],
        })
    }

    /// The standard SNA noise symbol: uniform on `[-1, 1]`.
    ///
    /// # Errors
    ///
    /// Returns [`HistError::ZeroBins`] if `bins == 0`.
    pub fn unit_symbol(bins: usize) -> Result<Self, HistError> {
        Histogram::uniform(-1.0, 1.0, bins)
    }

    /// A symmetric triangular distribution on `[lo, hi]` (mode at the
    /// midpoint).
    ///
    /// # Errors
    ///
    /// Propagates grid construction errors.
    pub fn triangular(lo: f64, hi: f64, bins: usize) -> Result<Self, HistError> {
        let mid = 0.5 * (lo + hi);
        Histogram::from_density_fn(lo, hi, bins, |x| {
            let half = 0.5 * (hi - lo);
            (1.0 - (x - mid).abs() / half).max(0.0)
        })
    }

    /// A Gaussian with the given mean and standard deviation, truncated to
    /// `[mean - 4σ, mean + 4σ]`.
    ///
    /// # Errors
    ///
    /// Returns [`HistError::NonFinite`] for non-finite parameters or
    /// [`HistError::EmptySupport`] when `sd <= 0`.
    pub fn gaussian(mean: f64, sd: f64, bins: usize) -> Result<Self, HistError> {
        if !mean.is_finite() {
            return Err(HistError::NonFinite { value: mean });
        }
        if !sd.is_finite() {
            return Err(HistError::NonFinite { value: sd });
        }
        Histogram::from_density_fn(mean - 4.0 * sd, mean + 4.0 * sd, bins, |x| {
            let z = (x - mean) / sd;
            (-0.5 * z * z).exp()
        })
    }

    /// Builds a histogram by sampling a (not necessarily normalized) density
    /// function at bin midpoints.
    ///
    /// # Errors
    ///
    /// Propagates grid errors; returns [`HistError::ZeroTotalMass`] if the
    /// density is zero everywhere on the support.
    pub fn from_density_fn(
        lo: f64,
        hi: f64,
        bins: usize,
        density: impl Fn(f64) -> f64,
    ) -> Result<Self, HistError> {
        let grid = Grid::new(lo, hi, bins)?;
        let masses: Vec<f64> = (0..bins).map(|i| density(grid.bin_mid(i))).collect();
        Histogram::from_masses(grid, masses)
    }

    /// Builds an empirical histogram from samples; the support is the sample
    /// range (widened slightly for a degenerate range).
    ///
    /// # Errors
    ///
    /// Returns [`HistError::NoSamples`] for an empty iterator and
    /// [`HistError::NonFinite`] when a sample is NaN/infinite.
    pub fn from_samples(
        samples: impl IntoIterator<Item = f64>,
        bins: usize,
    ) -> Result<Self, HistError> {
        let samples: Vec<f64> = samples.into_iter().collect();
        if samples.is_empty() {
            return Err(HistError::NoSamples);
        }
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for &s in &samples {
            if !s.is_finite() {
                return Err(HistError::NonFinite { value: s });
            }
            lo = lo.min(s);
            hi = hi.max(s);
        }
        let grid = Grid::spanning_samples(lo, hi, bins)?;
        let mut masses = vec![0.0; bins];
        for &s in &samples {
            masses[grid.bin_of(s)] += 1.0;
        }
        Histogram::from_masses(grid, masses)
    }

    /// Deposits a collection of `(interval, mass)` pairs onto a grid,
    /// spreading each mass uniformly over its interval.
    ///
    /// This is the core *rebinning* primitive of Berleant-style histogram
    /// arithmetic: partial results of an operation land here.  Mass falling
    /// outside the grid is clamped to the boundary bins.
    ///
    /// # Errors
    ///
    /// Returns [`HistError::ZeroTotalMass`] when the total deposited mass is
    /// zero, and propagates invalid masses.
    pub fn from_interval_masses(
        grid: Grid,
        pairs: impl IntoIterator<Item = (Interval, f64)>,
    ) -> Result<Self, HistError> {
        let mut acc = MassAccumulator::new(grid);
        for (iv, m) in pairs {
            if !m.is_finite() {
                return Err(HistError::NonFinite { value: m });
            }
            if m < 0.0 {
                return Err(HistError::NegativeMass { value: m });
            }
            acc.uniform(iv, m);
        }
        acc.finish()
    }

    // ------------------------------------------------------------------
    // Geometry / access
    // ------------------------------------------------------------------

    /// The underlying grid.
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// Number of bins.
    pub fn n_bins(&self) -> usize {
        self.probs.len()
    }

    /// Probability mass of bin `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= n_bins()`.
    pub fn prob(&self, i: usize) -> f64 {
        self.probs[i]
    }

    /// The probability masses, one per bin.
    pub fn probs(&self) -> &[f64] {
        &self.probs
    }

    /// Iterates over `(bin interval, probability)` pairs.
    pub fn bins(&self) -> impl Iterator<Item = (Interval, f64)> + '_ {
        self.probs
            .iter()
            .enumerate()
            .map(move |(i, &p)| (self.grid.bin_interval(i), p))
    }

    /// The support `(lo, hi)` of the grid.
    pub fn support(&self) -> (f64, f64) {
        (self.grid.lo(), self.grid.hi())
    }

    /// The support restricted to bins carrying at least `eps` mass.
    ///
    /// With `eps = 0.0` this trims only exactly-empty boundary bins; it is
    /// the "effective bounds" view used when reporting SNA ranges.
    pub fn effective_support(&self, eps: f64) -> (f64, f64) {
        let first = self.probs.iter().position(|&p| p > eps);
        let last = self.probs.iter().rposition(|&p| p > eps);
        match (first, last) {
            (Some(a), Some(b)) => (
                self.grid.bin_lo(a),
                self.grid.bin_lo(b) + self.grid.bin_width(),
            ),
            _ => self.support(),
        }
    }

    /// Probability density at `x` (mass / bin width), 0 outside the support.
    pub fn density(&self, x: f64) -> f64 {
        let (lo, hi) = self.support();
        if x < lo || x > hi {
            return 0.0;
        }
        self.probs[self.grid.bin_of(x)] / self.grid.bin_width()
    }

    // ------------------------------------------------------------------
    // Moments & quantiles
    // ------------------------------------------------------------------

    /// Mean under the uniform-within-bin interpretation.
    pub fn mean(&self) -> f64 {
        self.probs
            .iter()
            .enumerate()
            .map(|(i, &p)| p * self.grid.bin_mid(i))
            .sum()
    }

    /// Variance under the uniform-within-bin interpretation (includes the
    /// `w²/12` within-bin spread).
    pub fn variance(&self) -> f64 {
        let mean = self.mean();
        let w2 = self.grid.bin_width() * self.grid.bin_width() / 12.0;
        self.probs
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                let d = self.grid.bin_mid(i) - mean;
                p * (d * d + w2)
            })
            .sum()
    }

    /// Standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Raw moment `E[xᵏ]`, exact for the uniform-within-bin density.
    pub fn moment(&self, k: u32) -> f64 {
        if k == 0 {
            return 1.0;
        }
        self.probs
            .iter()
            .enumerate()
            .map(|(i, &p)| p * uniform_moment(self.grid.bin_interval(i), k))
            .sum()
    }

    /// Central moment `E[(x - mean)ᵏ]`.
    pub fn central_moment(&self, k: u32) -> f64 {
        let mean = self.mean();
        // Expand around the mean using per-bin uniform moments of (x - mean).
        self.probs
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                let iv = self.grid.bin_interval(i).shift(-mean);
                p * uniform_moment(iv, k)
            })
            .sum()
    }

    /// Noise power `E[x²] = variance + mean²` — the quantity the paper's
    /// synthesis tables constrain.
    pub fn noise_power(&self) -> f64 {
        self.moment(2)
    }

    /// Cumulative distribution function `P(X <= x)`.
    pub fn cdf(&self, x: f64) -> f64 {
        let (lo, hi) = self.support();
        if x <= lo {
            return 0.0;
        }
        if x >= hi {
            return 1.0;
        }
        let i = self.grid.bin_of(x);
        let below: f64 = self.probs[..i].iter().sum();
        let frac = (x - self.grid.bin_lo(i)) / self.grid.bin_width();
        below + self.probs[i] * frac
    }

    /// Quantile (inverse CDF) for `q ∈ [0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile requires q in [0, 1]");
        if q == 0.0 {
            return self.grid.lo();
        }
        let mut acc = 0.0;
        for (i, &p) in self.probs.iter().enumerate() {
            if acc + p >= q {
                if p == 0.0 {
                    return self.grid.bin_lo(i);
                }
                let frac = (q - acc) / p;
                return self.grid.bin_lo(i) + frac * self.grid.bin_width();
            }
            acc += p;
        }
        self.grid.hi()
    }

    /// Central interval containing probability `coverage` (e.g. `0.99`),
    /// i.e. `[quantile((1-c)/2), quantile(1-(1-c)/2)]`.
    ///
    /// # Panics
    ///
    /// Panics if `coverage` is outside `[0, 1]`.
    pub fn credible_interval(&self, coverage: f64) -> (f64, f64) {
        assert!(
            (0.0..=1.0).contains(&coverage),
            "coverage must lie in [0, 1]"
        );
        let tail = 0.5 * (1.0 - coverage);
        (self.quantile(tail), self.quantile(1.0 - tail))
    }

    /// Index of the bin with the highest mass (first one on ties).
    pub fn mode_bin(&self) -> usize {
        let mut best = 0;
        for (i, &p) in self.probs.iter().enumerate() {
            if p > self.probs[best] {
                best = i;
            }
        }
        best
    }

    // ------------------------------------------------------------------
    // Reshaping
    // ------------------------------------------------------------------

    /// Redistributes the mass onto a different grid (uniform-within-bin).
    ///
    /// Mass falling outside the target grid is clamped into its boundary
    /// bins, so the result is still a distribution.
    ///
    /// # Errors
    ///
    /// Propagates [`HistError::ZeroTotalMass`] (cannot occur for a valid
    /// source histogram, but kept for API uniformity).
    pub fn rebin(&self, grid: Grid) -> Result<Histogram, HistError> {
        Histogram::from_interval_masses(grid, self.bins())
    }

    /// Merges every `factor` adjacent bins.
    ///
    /// # Errors
    ///
    /// Returns [`HistError::ZeroBins`] when `factor` does not divide the bin
    /// count.
    pub fn coarsen(&self, factor: usize) -> Result<Histogram, HistError> {
        let grid = self.grid.coarsen(factor)?;
        let probs = self.probs.chunks(factor).map(|c| c.iter().sum()).collect();
        Ok(Histogram { grid, probs })
    }

    /// Drops leading/trailing bins whose cumulative mass is below `tail_eps`
    /// on each side, renormalizing the rest.
    ///
    /// # Errors
    ///
    /// Returns [`HistError::ZeroTotalMass`] if `tail_eps` would remove all
    /// mass.
    pub fn trim_tails(&self, tail_eps: f64) -> Result<Histogram, HistError> {
        let n = self.n_bins();
        let mut first = 0;
        let mut acc = 0.0;
        while first < n && acc + self.probs[first] <= tail_eps {
            acc += self.probs[first];
            first += 1;
        }
        let mut last = n;
        acc = 0.0;
        while last > first && acc + self.probs[last - 1] <= tail_eps {
            acc += self.probs[last - 1];
            last -= 1;
        }
        if first >= last {
            return Err(HistError::ZeroTotalMass);
        }
        let grid = Grid::new(
            self.grid.bin_lo(first),
            self.grid.bin_lo(last - 1) + self.grid.bin_width(),
            last - first,
        )?;
        Histogram::from_masses(grid, self.probs[first..last].to_vec())
    }

    /// Clamps the distribution to `[lo, hi]`: mass outside moves onto the
    /// boundary bins.  Models saturation-mode overflow of a fixed-point
    /// register.
    ///
    /// # Errors
    ///
    /// Propagates grid construction errors when `lo >= hi`.
    pub fn clamp(&self, lo: f64, hi: f64) -> Result<Histogram, HistError> {
        let (slo, shi) = self.support();
        if lo <= slo && shi <= hi {
            return Ok(self.clone());
        }
        let grid = Grid::new(lo.max(slo.min(hi)), hi.min(shi.max(lo)), self.n_bins())
            .or_else(|_| Grid::new(lo, hi, self.n_bins()))?;
        let mut acc = MassAccumulator::new(grid);
        for (iv, p) in self.bins() {
            if p == 0.0 {
                continue;
            }
            // Mass below `lo` piles onto the first bin, above `hi` onto the
            // last; the rest deposits proportionally.
            let below = iv.overlap_len(&Interval::new(f64::MIN, lo).unwrap_or(iv));
            let w = iv.width();
            let below_frac = if iv.hi() <= lo {
                1.0
            } else if iv.lo() >= lo {
                0.0
            } else {
                (lo - iv.lo()) / w
            };
            let above_frac = if iv.lo() >= hi {
                1.0
            } else if iv.hi() <= hi {
                0.0
            } else {
                (iv.hi() - hi) / w
            };
            let _ = below;
            acc.add(0, p * below_frac);
            acc.add(grid.n_bins() - 1, p * above_frac);
            let mid_frac = 1.0 - below_frac - above_frac;
            if mid_frac > 0.0 {
                let clipped = Interval::new(iv.lo().max(lo), iv.hi().min(hi))
                    .expect("clipped interval is valid");
                acc.uniform(clipped, p * mid_frac);
            }
        }
        acc.finish()
    }

    /// Total probability mass (1 up to rounding).
    pub fn total_mass(&self) -> f64 {
        self.probs.iter().sum()
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Histogram({}, mean={:.6}, var={:.6})",
            self.grid,
            self.mean(),
            self.variance()
        )
    }
}

/// `E[xᵏ]` of the uniform distribution on `iv`:
/// `(hiᵏ⁺¹ - loᵏ⁺¹) / ((k+1)(hi - lo))`.
fn uniform_moment(iv: Interval, k: u32) -> f64 {
    let (a, b) = (iv.lo(), iv.hi());
    if a == b {
        return a.powi(k as i32);
    }
    let k1 = (k + 1) as i32;
    (b.powi(k1) - a.powi(k1)) / (k1 as f64 * (b - a))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol
    }

    #[test]
    fn uniform_has_exact_moments() {
        let h = Histogram::uniform(2.0, 6.0, 7).unwrap();
        assert!(close(h.mean(), 4.0, 1e-12));
        assert!(close(h.variance(), 16.0 / 12.0, 1e-12));
        assert!(close(h.moment(1), 4.0, 1e-12));
        assert!(close(h.moment(2), 16.0 / 12.0 + 16.0, 1e-12));
        assert!(close(h.total_mass(), 1.0, 1e-12));
    }

    #[test]
    fn from_masses_normalizes() {
        let g = Grid::new(0.0, 1.0, 2).unwrap();
        let h = Histogram::from_masses(g, vec![1.0, 3.0]).unwrap();
        assert_eq!(h.prob(0), 0.25);
        assert_eq!(h.prob(1), 0.75);
    }

    #[test]
    fn from_masses_rejects_bad_input() {
        let g = Grid::new(0.0, 1.0, 2).unwrap();
        assert!(matches!(
            Histogram::from_masses(g, vec![1.0]),
            Err(HistError::ZeroBins)
        ));
        assert!(matches!(
            Histogram::from_masses(g, vec![-1.0, 2.0]),
            Err(HistError::NegativeMass { .. })
        ));
        assert!(matches!(
            Histogram::from_masses(g, vec![0.0, 0.0]),
            Err(HistError::ZeroTotalMass)
        ));
        assert!(matches!(
            Histogram::from_masses(g, vec![f64::NAN, 1.0]),
            Err(HistError::NonFinite { .. })
        ));
    }

    #[test]
    fn triangular_is_symmetric_and_peaked() {
        let h = Histogram::triangular(-2.0, 2.0, 16).unwrap();
        assert!(close(h.mean(), 0.0, 1e-9));
        // Var of symmetric triangular on [-2,2] is (b-a)²/24 = 16/24.
        assert!(close(h.variance(), 16.0 / 24.0, 2e-2));
        let mode = h.mode_bin();
        assert!(mode == 7 || mode == 8);
    }

    #[test]
    fn gaussian_moments() {
        let h = Histogram::gaussian(1.0, 0.5, 256).unwrap();
        assert!(close(h.mean(), 1.0, 1e-6));
        assert!(close(h.std_dev(), 0.5, 1e-2));
    }

    #[test]
    fn from_samples_builds_empirical_distribution() {
        let samples = [0.0, 0.1, 0.2, 0.9, 1.0];
        let h = Histogram::from_samples(samples, 5).unwrap();
        assert_eq!(h.support(), (0.0, 1.0));
        assert!(h.prob(0) > h.prob(2));
        assert!(Histogram::from_samples(std::iter::empty(), 4).is_err());
        // A constant sample set still works (degenerate support widened).
        let h = Histogram::from_samples([3.0, 3.0, 3.0], 4).unwrap();
        assert!(close(h.mean(), 3.0, 1e-9));
    }

    #[test]
    fn cdf_and_quantile_are_inverse() {
        let h = Histogram::uniform(0.0, 2.0, 8).unwrap();
        assert_eq!(h.cdf(-1.0), 0.0);
        assert_eq!(h.cdf(3.0), 1.0);
        assert!(close(h.cdf(1.0), 0.5, 1e-12));
        assert!(close(h.quantile(0.5), 1.0, 1e-12));
        for q in [0.1, 0.25, 0.6, 0.99] {
            assert!(close(h.cdf(h.quantile(q)), q, 1e-9));
        }
    }

    #[test]
    fn credible_interval_covers() {
        let h = Histogram::gaussian(0.0, 1.0, 128).unwrap();
        let (lo, hi) = h.credible_interval(0.95);
        assert!(lo < -1.5 && hi > 1.5);
        assert!(close(h.cdf(hi) - h.cdf(lo), 0.95, 1e-6));
    }

    #[test]
    fn rebin_preserves_mass_and_mean() {
        let h = Histogram::triangular(0.0, 1.0, 32).unwrap();
        let g = Grid::new(-0.5, 1.5, 10).unwrap();
        let r = h.rebin(g).unwrap();
        assert!(close(r.total_mass(), 1.0, 1e-12));
        assert!(close(r.mean(), h.mean(), 1e-2));
    }

    #[test]
    fn coarsen_merges_bins() {
        let h = Histogram::uniform(0.0, 1.0, 8).unwrap();
        let c = h.coarsen(4).unwrap();
        assert_eq!(c.n_bins(), 2);
        assert!(close(c.prob(0), 0.5, 1e-12));
        assert!(h.coarsen(3).is_err());
    }

    #[test]
    fn trim_tails_drops_empty_bins() {
        let g = Grid::new(0.0, 1.0, 10).unwrap();
        let mut masses = vec![0.0; 10];
        masses[3] = 1.0;
        masses[4] = 2.0;
        let h = Histogram::from_masses(g, masses).unwrap();
        let t = h.trim_tails(0.0).unwrap();
        assert_eq!(t.n_bins(), 2);
        assert!(close(t.support().0, 0.3, 1e-12));
        assert!(close(t.support().1, 0.5, 1e-12));
    }

    #[test]
    fn effective_support_ignores_empty_edges() {
        let g = Grid::new(0.0, 1.0, 4).unwrap();
        let h = Histogram::from_masses(g, vec![0.0, 1.0, 1.0, 0.0]).unwrap();
        let (lo, hi) = h.effective_support(0.0);
        assert!(close(lo, 0.25, 1e-12));
        assert!(close(hi, 0.75, 1e-12));
    }

    #[test]
    fn clamp_models_saturation() {
        let h = Histogram::uniform(-2.0, 2.0, 16).unwrap();
        let c = h.clamp(-1.0, 1.0).unwrap();
        assert!(close(c.total_mass(), 1.0, 1e-12));
        let (lo, hi) = c.support();
        assert!(lo >= -1.0 - 1e-12 && hi <= 1.0 + 1e-12);
        // A quarter of the mass saturates at each rail.
        assert!(c.prob(0) > 0.25 - 1e-9);
        assert!(c.prob(c.n_bins() - 1) > 0.25 - 1e-9);
    }

    #[test]
    fn density_integrates_to_one() {
        let h = Histogram::triangular(0.0, 4.0, 64).unwrap();
        let n = 10_000;
        let dx = 4.0 / n as f64;
        let integral: f64 = (0..n)
            .map(|i| h.density(i as f64 * dx + dx / 2.0) * dx)
            .sum();
        assert!(close(integral, 1.0, 1e-6));
    }

    #[test]
    fn central_moments_match_variance() {
        let h = Histogram::gaussian(2.0, 0.7, 128).unwrap();
        assert!(close(h.central_moment(2), h.variance(), 1e-9));
        assert!(close(h.central_moment(1), 0.0, 1e-9));
        // Symmetric ⇒ third central moment ≈ 0.
        assert!(close(h.central_moment(3), 0.0, 1e-6));
    }

    #[test]
    fn deposit_point_interval_lands_in_single_bin() {
        let g = Grid::new(0.0, 1.0, 4).unwrap();
        let h = Histogram::from_interval_masses(g, [(Interval::point(0.6), 1.0)]).unwrap();
        assert_eq!(h.prob(2), 1.0);
    }

    #[test]
    fn deposit_clamps_out_of_range_mass() {
        let g = Grid::new(0.0, 1.0, 4).unwrap();
        let h =
            Histogram::from_interval_masses(g, [(Interval::new(-1.0, 2.0).unwrap(), 1.0)]).unwrap();
        assert!(close(h.total_mass(), 1.0, 1e-12));
        // 1/3 below, 1/3 inside, 1/3 above.
        assert!(h.prob(0) > 0.33);
        assert!(h.prob(3) > 0.33);
    }
}
