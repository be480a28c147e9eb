//! Flat-array deposit kernels shared by every histogram operation.
//!
//! Berleant's method spends nearly all of its time depositing partial
//! results into an output grid.  [`MassAccumulator`] lays the output bin
//! edges out once per operation, so the per-pair work is a handful of
//! float operations over plain slices.  Each deposit performs exactly the
//! IEEE operations, in the same order, that the per-pair formulation
//! (`grid.bin_interval(i)`, `grid.bin_of(x)`, …) performs, so the masses
//! are bit-identical to it; `tests/kernel_oracle.rs` checks that against
//! a verbatim copy of the per-pair formulation.  The one exception is
//! the exact sum or difference with a uniform addend (all probabilities
//! equal), which deposits one trapezoid per bin of the other operand
//! instead of one per bin pair: the oracle keeps that loop verbatim too,
//! and checks it against the per-pair sum to within `1e-12` of the peak
//! mass.

use sna_interval::Interval;

use crate::{DepositPolicy, Grid, HistError, Histogram};

/// An output [`Grid`] with its bin edges precomputed, plus the masses
/// being deposited onto it.
///
/// This is the rebinning primitive behind every histogram operation and
/// behind the Cartesian evaluators of the higher-level crates: partial
/// results land here, and [`MassAccumulator::finish`] normalizes them
/// into a [`Histogram`].  Mass falling outside the grid is clamped into
/// the boundary bins.
///
/// # Example
///
/// ```
/// use sna_hist::{DepositPolicy, Grid, MassAccumulator};
/// use sna_interval::Interval;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut acc = MassAccumulator::new(Grid::new(0.0, 1.0, 4)?);
/// acc.deposit(Interval::new(0.0, 0.5)?, 1.0, DepositPolicy::Uniform);
/// acc.deposit(Interval::new(0.6, 0.9)?, 2.0, DepositPolicy::Midpoint);
/// let h = acc.finish()?;
/// assert_eq!(h.probs(), &[1.0 / 6.0, 1.0 / 6.0, 0.0, 2.0 / 3.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct MassAccumulator {
    grid: Grid,
    /// `grid.lo()` and `grid.hi()`.
    lo: f64,
    hi: f64,
    /// `edge_lo[i] = grid.bin_lo(i)` and `edge_hi[i] = edge_lo[i] + width`:
    /// the bounds of `grid.bin_interval(i)`.
    edge_lo: Vec<f64>,
    edge_hi: Vec<f64>,
    masses: Vec<f64>,
}

impl MassAccumulator {
    /// An empty accumulator over `grid`.
    pub fn new(grid: Grid) -> Self {
        let width = grid.bin_width();
        let edge_lo: Vec<f64> = (0..grid.n_bins()).map(|i| grid.bin_lo(i)).collect();
        let edge_hi = edge_lo.iter().map(|&lo| lo + width).collect();
        MassAccumulator {
            grid,
            lo: grid.lo(),
            hi: grid.hi(),
            edge_lo,
            edge_hi,
            masses: vec![0.0; grid.n_bins()],
        }
    }

    /// Deposits `mass` for the partial result `iv` under `policy`:
    /// [`DepositPolicy::Midpoint`] puts all of it into the bin containing
    /// the midpoint; the other policies spread it uniformly over `iv` (an
    /// arbitrary interval has no closed-form exact deposit).
    pub fn deposit(&mut self, iv: Interval, mass: f64, policy: DepositPolicy) {
        match policy {
            DepositPolicy::Midpoint => self.point(iv.mid(), mass),
            DepositPolicy::Uniform | DepositPolicy::Exact => self.uniform(iv, mass),
        }
    }

    /// [`MassAccumulator::deposit`], recording into `adds` (cleared
    /// first) every `(bin, amount)` it adds, in the order it adds them.
    ///
    /// [`MassAccumulator::replay`] of the record repeats the deposit
    /// bit for bit without recomputing it: the Cartesian sweep's
    /// shortcut when consecutive sub-boxes deposit the same interval
    /// with the same mass.
    pub fn deposit_recorded(
        &mut self,
        iv: Interval,
        mass: f64,
        policy: DepositPolicy,
        adds: &mut Vec<(usize, f64)>,
    ) {
        adds.clear();
        let record = |bin, amount| adds.push((bin, amount));
        match policy {
            DepositPolicy::Midpoint => self.point_with(iv.mid(), mass, record),
            DepositPolicy::Uniform | DepositPolicy::Exact => self.uniform_with(iv, mass, record),
        }
    }

    /// Adds every recorded `(bin, amount)` of a
    /// [`MassAccumulator::deposit_recorded`] record, in order: the masses
    /// end bit-identical to depositing the recorded interval and mass
    /// again.
    pub fn replay(&mut self, adds: &[(usize, f64)]) {
        for &(bin, amount) in adds {
            self.masses[bin] += amount;
        }
    }

    /// Normalizes the deposited masses into a histogram on the grid.
    ///
    /// # Errors
    ///
    /// Same as [`Histogram::from_masses`]; in particular
    /// [`HistError::ZeroTotalMass`] when nothing was deposited.
    pub fn finish(self) -> Result<Histogram, HistError> {
        Histogram::from_masses(self.grid, self.masses)
    }

    /// Adds `mass` to bin `bin`.
    pub(crate) fn add(&mut self, bin: usize, mass: f64) {
        self.masses[bin] += mass;
    }

    /// Adds `mass` to the bin containing `x`.
    pub(crate) fn point(&mut self, x: f64, mass: f64) {
        self.point_with(x, mass, |_, _| {});
    }

    /// [`MassAccumulator::point`], reporting the add to `record`.
    fn point_with(&mut self, x: f64, mass: f64, mut record: impl FnMut(usize, f64)) {
        let bin = self.grid.bin_of(x);
        self.masses[bin] += mass;
        record(bin, mass);
    }

    /// Spreads `mass` uniformly over `iv`.
    pub(crate) fn uniform(&mut self, iv: Interval, mass: f64) {
        self.uniform_with(iv, mass, |_, _| {});
    }

    /// [`MassAccumulator::uniform`], reporting each `(bin, amount)` add to
    /// `record` as it is made.
    fn uniform_with(&mut self, iv: Interval, mass: f64, mut record: impl FnMut(usize, f64)) {
        if mass == 0.0 {
            return;
        }
        let (lo, hi) = (iv.lo(), iv.hi());
        let w = iv.width();
        if w == 0.0 {
            self.point_with(iv.mid(), mass, record);
            return;
        }
        let lo_bin = self.grid.bin_of(lo);
        let hi_bin = self.grid.bin_of(hi);
        // Clamp: portions outside the grid go to the boundary bins.
        let below = (self.lo - lo).max(0.0).min(w);
        let above = (hi - self.hi).max(0.0).min(w);
        let last = self.masses.len() - 1;
        if below > 0.0 {
            let amount = mass * below / w;
            self.masses[0] += amount;
            record(0, amount);
        }
        if above > 0.0 {
            let amount = mass * above / w;
            self.masses[last] += amount;
            record(last, amount);
        }
        if lo_bin > hi_bin {
            return;
        }
        let bins = self.masses[lo_bin..=hi_bin]
            .iter_mut()
            .zip(&self.edge_lo[lo_bin..=hi_bin])
            .zip(&self.edge_hi[lo_bin..=hi_bin]);
        for (bin, ((m, &elo), &ehi)) in (lo_bin..).zip(bins) {
            let overlap = (ehi.min(hi) - elo.max(lo)).max(0.0);
            if overlap > 0.0 {
                let amount = mass * overlap / w;
                *m += amount;
                record(bin, amount);
            }
        }
    }

    /// Deposits `mass` through a CDF on `[lo, hi]` (relative CDF values:
    /// `cdf(lo) = 0`, `cdf(hi) = 1`).
    pub(crate) fn cdf(&mut self, lo: f64, hi: f64, mass: f64, cdf: impl Fn(f64) -> f64) {
        if hi <= lo {
            self.point(lo, mass);
            return;
        }
        let last = self.masses.len() - 1;
        if lo < self.lo {
            self.masses[0] += mass * cdf(self.lo.min(hi));
        }
        if hi > self.hi {
            self.masses[last] += mass * (1.0 - cdf(self.hi.max(lo)));
        }
        let start = self.grid.bin_of(lo.max(self.lo));
        let end = self.grid.bin_of(hi.min(self.hi));
        if start > end {
            return;
        }
        let bins = self.masses[start..=end]
            .iter_mut()
            .zip(&self.edge_lo[start..=end])
            .zip(&self.edge_hi[start..=end]);
        for ((m, &elo), &ehi) in bins {
            let edge_lo = elo.max(lo);
            let edge_hi = ehi.min(hi);
            if edge_hi > edge_lo {
                *m += mass * (cdf(edge_hi) - cdf(edge_lo));
            }
        }
    }
}

/// The distribution of the sum of two independent uniforms of widths
/// `w1` and `w2` — a trapezoid on `[lo, lo + w1 + w2]` — with its shape
/// constants computed once per operation.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Trapezoid {
    /// `min(w1, w2)`, `max(w1, w2)` and `w1 + w2`.
    m: f64,
    big: f64,
    total: f64,
    /// The CDF denominators `2·w1·w2` and `2·max(w1, w2)`.
    two_w1_w2: f64,
    two_big: f64,
}

impl Trapezoid {
    pub(crate) fn new(w1: f64, w2: f64) -> Self {
        let big = w1.max(w2);
        Trapezoid {
            m: w1.min(w2),
            big,
            total: w1 + w2,
            two_w1_w2: 2.0 * w1 * w2,
            two_big: 2.0 * big,
        }
    }

    /// Deposits the trapezoid whose support starts at `lo`.
    pub(crate) fn deposit(self, acc: &mut MassAccumulator, lo: f64, mass: f64) {
        let Trapezoid {
            m,
            big,
            total,
            two_w1_w2,
            two_big,
        } = self;
        if total <= 0.0 {
            acc.point(lo, mass);
            return;
        }
        let cdf = move |x: f64| -> f64 {
            let t = (x - lo).clamp(0.0, total);
            if m == 0.0 {
                // One operand is (numerically) a point: plain uniform CDF.
                return t / total;
            }
            if t <= m {
                t * t / two_w1_w2
            } else if t <= big {
                (2.0 * t - m) / two_big
            } else {
                1.0 - (total - t) * (total - t) / two_w1_w2
            }
        };
        acc.cdf(lo, lo + total, mass, cdf);
    }
}

/// Deposits the exact push-forward of `x²` for `x` uniform on `iv`.
pub(crate) fn deposit_sqr(acc: &mut MassAccumulator, iv: Interval, mass: f64) {
    let (a, b) = (iv.lo(), iv.hi());
    let w = b - a;
    if w <= 0.0 {
        acc.point(a * a, mass);
        return;
    }
    // Split a sign-straddling interval at zero; each side is monotone.
    if a < 0.0 && b > 0.0 {
        let left_mass = mass * (-a) / w;
        let right_mass = mass * b / w;
        deposit_sqr_monotone(acc, 0.0, -a, left_mass);
        deposit_sqr_monotone(acc, 0.0, b, right_mass);
    } else if b <= 0.0 {
        deposit_sqr_monotone(acc, -b, -a, mass);
    } else {
        deposit_sqr_monotone(acc, a, b, mass);
    }
}

/// Push-forward of `x²` for `x` uniform on `[a, b]` with `0 <= a < b`:
/// `P(x² <= v) = (√v - a) / (b - a)`.
fn deposit_sqr_monotone(acc: &mut MassAccumulator, a: f64, b: f64, mass: f64) {
    debug_assert!(0.0 <= a && a <= b);
    if mass == 0.0 {
        return;
    }
    if b == a {
        acc.point(a * a, mass);
        return;
    }
    let cdf = move |v: f64| -> f64 { ((v.max(0.0).sqrt() - a) / (b - a)).clamp(0.0, 1.0) };
    acc.cdf(a * a, b * b, mass, cdf);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bit patterns of the accumulated masses.
    fn bits(acc: &MassAccumulator) -> Vec<u64> {
        acc.masses.iter().map(|m| m.to_bits()).collect()
    }

    #[test]
    fn replay_repeats_a_deposit_bit_for_bit() {
        let grid = Grid::new(-1.0, 2.0, 7).unwrap();
        let iv = |lo, hi| Interval::new(lo, hi).unwrap();
        let cases = [
            (iv(-0.3, 0.9), 0.37),
            // Clamped below, above, and on both sides of the grid.
            (iv(-1.7, -0.2), 0.11),
            (iv(1.4, 3.1), 0.23),
            (iv(-5.0, 5.0), 0.05),
            // Zero width: a point deposit.
            (Interval::point(0.4), 0.19),
            (Interval::point(-3.0), 0.07),
        ];
        for policy in [DepositPolicy::Uniform, DepositPolicy::Midpoint] {
            for &(case, mass) in &cases {
                let mut fresh = MassAccumulator::new(grid);
                let mut replayed = MassAccumulator::new(grid);
                let mut adds = vec![(99, 9.0)];
                // Earlier mass in the bins, so the adds round against it.
                for acc in [&mut fresh, &mut replayed] {
                    acc.deposit(iv(-0.9, 1.3), 0.3, DepositPolicy::Uniform);
                }
                fresh.deposit(case, mass, policy);
                replayed.deposit_recorded(case, mass, policy, &mut adds);
                assert_eq!(bits(&fresh), bits(&replayed), "{policy:?} {case:?}");
                assert!(!adds.is_empty() && !adds.contains(&(99, 9.0)), "{case:?}");
                fresh.deposit(case, mass, policy);
                replayed.replay(&adds);
                assert_eq!(bits(&fresh), bits(&replayed), "{policy:?} {case:?}");
            }
        }
    }
}
