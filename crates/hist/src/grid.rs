use std::fmt;

use sna_interval::Interval;

use crate::HistError;

/// A uniform partition of `[lo, hi]` into `n` equal-width bins.
///
/// A [`Grid`](crate::Grid) is the skeleton of a [`Histogram`](crate::Histogram):
/// it fixes *where* the probability mass can sit.  Operations that must place
/// several histograms on a common footing (rebinning, distance metrics,
/// depositing partial results of histogram arithmetic) are phrased in terms
/// of grids.
///
/// # Example
///
/// ```
/// use sna_hist::Grid;
///
/// # fn main() -> Result<(), sna_hist::HistError> {
/// let grid = Grid::new(-1.0, 1.0, 4)?;
/// assert_eq!(grid.bin_width(), 0.5);
/// assert_eq!(grid.bin_of(-0.3), 1);
/// assert_eq!(grid.bin_of(2.0), 3); // clamped to the last bin
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Grid {
    lo: f64,
    width: f64,
    n: usize,
}

impl Grid {
    /// Creates a grid over `[lo, hi]` with `n` bins.
    ///
    /// # Errors
    ///
    /// * [`HistError::ZeroBins`] if `n == 0`;
    /// * [`HistError::NonFinite`] if a bound is NaN/infinite;
    /// * [`HistError::EmptySupport`] if `lo >= hi`.
    pub fn new(lo: f64, hi: f64, n: usize) -> Result<Self, HistError> {
        if n == 0 {
            return Err(HistError::ZeroBins);
        }
        if !lo.is_finite() {
            return Err(HistError::NonFinite { value: lo });
        }
        if !hi.is_finite() {
            return Err(HistError::NonFinite { value: hi });
        }
        if lo >= hi {
            return Err(HistError::EmptySupport { lo, hi });
        }
        Ok(Grid {
            lo,
            width: (hi - lo) / n as f64,
            n,
        })
    }

    /// Grid over an [`Interval`].
    ///
    /// # Errors
    ///
    /// Same as [`Grid::new`]; in particular a point interval yields
    /// [`HistError::EmptySupport`].
    pub fn over(interval: Interval, n: usize) -> Result<Self, HistError> {
        Grid::new(interval.lo(), interval.hi(), n)
    }

    /// The grid [`Histogram::from_samples`](crate::Histogram::from_samples)
    /// bins samples observed on `[lo, hi]` into: that range, widened to a
    /// tiny symmetric support when `lo == hi`.
    ///
    /// # Errors
    ///
    /// Same as [`Grid::new`].
    pub fn spanning_samples(mut lo: f64, mut hi: f64, n: usize) -> Result<Self, HistError> {
        if lo == hi {
            // Degenerate sample set: widen to a tiny symmetric support.
            let pad = lo.abs().max(1.0) * 1e-12;
            lo -= pad;
            hi += pad;
        }
        Grid::new(lo, hi, n)
    }

    /// The paper's standard symbol grid: `[-1, 1]` with the given bin count.
    ///
    /// # Errors
    ///
    /// Returns [`HistError::ZeroBins`] if `bins == 0`.
    pub fn symbol(bins: usize) -> Result<Self, HistError> {
        Grid::new(-1.0, 1.0, bins)
    }

    /// Lower edge of the support.
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Upper edge of the support.
    pub fn hi(&self) -> f64 {
        self.lo + self.width * self.n as f64
    }

    /// Number of bins.
    pub fn n_bins(&self) -> usize {
        self.n
    }

    /// Width of each bin.
    pub fn bin_width(&self) -> f64 {
        self.width
    }

    /// The support as an [`Interval`].
    pub fn support(&self) -> Interval {
        Interval::new(self.lo, self.hi()).expect("grid support is a valid interval")
    }

    /// Lower edge of bin `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= n_bins()`.
    pub fn bin_lo(&self, i: usize) -> f64 {
        assert!(i < self.n, "bin index {i} out of range");
        self.lo + self.width * i as f64
    }

    /// Midpoint of bin `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= n_bins()`.
    pub fn bin_mid(&self, i: usize) -> f64 {
        self.bin_lo(i) + 0.5 * self.width
    }

    /// The closed interval of bin `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= n_bins()`.
    pub fn bin_interval(&self, i: usize) -> Interval {
        let lo = self.bin_lo(i);
        Interval::new(lo, lo + self.width).expect("bin is a valid interval")
    }

    /// Index of the bin containing `x`, clamped to `[0, n_bins() - 1]`.
    pub fn bin_of(&self, x: f64) -> usize {
        if x <= self.lo {
            return 0;
        }
        let idx = ((x - self.lo) / self.width) as usize;
        idx.min(self.n - 1)
    }

    /// Iterates over the `n + 1` bin edges.
    pub fn edges(&self) -> impl Iterator<Item = f64> + '_ {
        (0..=self.n).map(move |i| self.lo + self.width * i as f64)
    }

    /// Returns a grid with the same support but `factor` times fewer bins.
    ///
    /// # Errors
    ///
    /// Returns [`HistError::ZeroBins`] if `factor == 0` or `factor` does not
    /// divide the bin count.
    pub fn coarsen(&self, factor: usize) -> Result<Grid, HistError> {
        if factor == 0 || !self.n.is_multiple_of(factor) {
            return Err(HistError::ZeroBins);
        }
        Grid::new(self.lo, self.hi(), self.n / factor)
    }
}

impl fmt::Display for Grid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {}] / {} bins", self.lo, self.hi(), self.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates() {
        assert_eq!(Grid::new(0.0, 1.0, 0), Err(HistError::ZeroBins));
        assert!(matches!(
            Grid::new(1.0, 1.0, 4),
            Err(HistError::EmptySupport { .. })
        ));
        assert!(matches!(
            Grid::new(f64::NAN, 1.0, 4),
            Err(HistError::NonFinite { .. })
        ));
        assert!(Grid::new(-1.0, 1.0, 4).is_ok());
    }

    #[test]
    fn geometry_queries() {
        let g = Grid::new(-1.0, 1.0, 4).unwrap();
        assert_eq!(g.bin_width(), 0.5);
        assert_eq!(g.hi(), 1.0);
        assert_eq!(g.bin_lo(2), 0.0);
        assert_eq!(g.bin_mid(0), -0.75);
        assert_eq!(g.bin_interval(3), Interval::new(0.5, 1.0).unwrap());
        let edges: Vec<f64> = g.edges().collect();
        assert_eq!(edges, vec![-1.0, -0.5, 0.0, 0.5, 1.0]);
    }

    #[test]
    fn bin_of_clamps() {
        let g = Grid::new(0.0, 1.0, 10).unwrap();
        assert_eq!(g.bin_of(-5.0), 0);
        assert_eq!(g.bin_of(0.0), 0);
        assert_eq!(g.bin_of(0.55), 5);
        assert_eq!(g.bin_of(1.0), 9);
        assert_eq!(g.bin_of(7.0), 9);
    }

    #[test]
    fn coarsen_checks_divisibility() {
        let g = Grid::new(0.0, 1.0, 8).unwrap();
        let c = g.coarsen(4).unwrap();
        assert_eq!(c.n_bins(), 2);
        assert_eq!(c.bin_width(), 0.5);
        assert!(g.coarsen(3).is_err());
        assert!(g.coarsen(0).is_err());
    }

    #[test]
    fn symbol_grid_is_unit_range() {
        let g = Grid::symbol(16).unwrap();
        assert_eq!(g.lo(), -1.0);
        assert_eq!(g.hi(), 1.0);
        assert_eq!(g.n_bins(), 16);
    }
}
