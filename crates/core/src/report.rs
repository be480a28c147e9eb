use std::fmt;

use sna_hist::Histogram;

/// The result of a noise analysis at one output: moments, guaranteed
/// bounds, and (when the engine produces one) the full error PDF.
///
/// This is the SNA deliverable the paper emphasizes: *"a PDF can be found
/// for the output uncertainty to show the probability of the output taking
/// each value inside the bounded interval"* — plus the `mean`, `variance`,
/// `xl`, `xh` columns of Table 2.
#[derive(Clone, Debug)]
pub struct NoiseReport {
    /// Mean error.
    pub mean: f64,
    /// Error variance.
    pub variance: f64,
    /// Mean squared error (`variance + mean²`) — the "Noise" rows of
    /// Tables 3–6 constrain this quantity.
    pub power: f64,
    /// Guaranteed error bounds `(xl, xh)`.
    pub support: (f64, f64),
    /// The error PDF, when the engine computes one.
    pub histogram: Option<Histogram>,
}

impl NoiseReport {
    /// Builds a report from an error histogram (moments and bounds are
    /// derived from it).
    pub fn from_histogram(h: Histogram) -> Self {
        NoiseReport {
            mean: h.mean(),
            variance: h.variance(),
            power: h.noise_power(),
            support: h.effective_support(0.0),
            histogram: Some(h),
        }
    }

    /// Builds a moments-only report (no PDF available).
    pub fn from_moments(mean: f64, variance: f64, support: (f64, f64)) -> Self {
        NoiseReport {
            mean,
            variance,
            power: variance + mean * mean,
            support,
            histogram: None,
        }
    }

    /// A report for an exactly-zero error (e.g. a datapath wide enough to
    /// be exact).
    pub fn zero() -> Self {
        NoiseReport {
            mean: 0.0,
            variance: 0.0,
            power: 0.0,
            support: (0.0, 0.0),
            histogram: None,
        }
    }

    /// Standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance.sqrt()
    }

    /// Central interval holding `coverage` probability, from the PDF when
    /// available, else ±k·σ around the mean clipped to the support
    /// (Chebyshev-style fallback).
    ///
    /// # Panics
    ///
    /// Panics if `coverage` is outside `[0, 1]`.
    pub fn credible_interval(&self, coverage: f64) -> (f64, f64) {
        assert!((0.0..=1.0).contains(&coverage), "coverage in [0, 1]");
        match &self.histogram {
            Some(h) => h.credible_interval(coverage),
            None => self.chebyshev_interval(coverage),
        }
    }

    /// Central interval holding at least `coverage` probability from the
    /// moments and support alone, whether or not a PDF is attached:
    /// ±k·σ around the mean with `k = 1/√(1 − coverage)` (Chebyshev),
    /// clipped to the support.
    ///
    /// # Panics
    ///
    /// Panics if `coverage` is outside `[0, 1]`.
    pub fn chebyshev_interval(&self, coverage: f64) -> (f64, f64) {
        assert!((0.0..=1.0).contains(&coverage), "coverage in [0, 1]");
        // Chebyshev: P(|X−μ| ≥ kσ) ≤ 1/k².
        let k = (1.0 / (1.0 - coverage).max(1e-12)).sqrt();
        let lo = (self.mean - k * self.std_dev()).max(self.support.0);
        let hi = (self.mean + k * self.std_dev()).min(self.support.1);
        (lo, hi)
    }

    /// Signal-to-quantization-noise ratio in dB for a signal of the given
    /// power.
    pub fn sqnr_db(&self, signal_power: f64) -> f64 {
        10.0 * (signal_power / self.power.max(1e-300)).log10()
    }
}

impl fmt::Display for NoiseReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "mean={:.6e} var={:.6e} power={:.6e} bounds=[{:.6e}, {:.6e}]{}",
            self.mean,
            self.variance,
            self.power,
            self.support.0,
            self.support.1,
            if self.histogram.is_some() {
                " (pdf available)"
            } else {
                ""
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_histogram_derives_moments() {
        let h = Histogram::uniform(-0.5, 0.5, 64).unwrap();
        let r = NoiseReport::from_histogram(h);
        assert!(r.mean.abs() < 1e-12);
        assert!((r.variance - 1.0 / 12.0).abs() < 1e-9);
        assert!((r.power - r.variance - r.mean * r.mean).abs() < 1e-12);
        assert_eq!(r.support, (-0.5, 0.5));
        assert!(r.histogram.is_some());
    }

    #[test]
    fn from_moments_has_no_pdf() {
        let r = NoiseReport::from_moments(0.1, 0.04, (-1.0, 1.0));
        assert!(r.histogram.is_none());
        assert!((r.power - 0.05).abs() < 1e-12);
        assert!((r.std_dev() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn credible_interval_with_and_without_pdf() {
        let h = Histogram::gaussian(0.0, 1.0, 256).unwrap();
        let with_pdf = NoiseReport::from_histogram(h);
        let (lo, hi) = with_pdf.credible_interval(0.95);
        assert!(lo < -1.5 && hi > 1.5);
        let no_pdf = NoiseReport::from_moments(0.0, 1.0, (-4.0, 4.0));
        let (clo, chi) = no_pdf.credible_interval(0.95);
        // Chebyshev is conservative: wider than the Gaussian interval.
        assert!(clo <= lo + 0.5 && chi >= hi - 0.5);
    }

    #[test]
    fn chebyshev_interval_ignores_an_attached_pdf() {
        let with_pdf = NoiseReport::from_histogram(Histogram::gaussian(0.1, 0.5, 128).unwrap());
        let mut moments_only = with_pdf.clone();
        moments_only.histogram = None;
        assert_eq!(
            with_pdf.chebyshev_interval(0.95),
            moments_only.credible_interval(0.95)
        );
        assert_ne!(
            with_pdf.chebyshev_interval(0.95),
            with_pdf.credible_interval(0.95)
        );
    }

    #[test]
    fn sqnr_scales_with_noise_power() {
        let quiet = NoiseReport::from_moments(0.0, 1e-8, (-1e-3, 1e-3));
        let loud = NoiseReport::from_moments(0.0, 1e-4, (-0.1, 0.1));
        assert!(quiet.sqnr_db(1.0) > loud.sqnr_db(1.0));
        assert!((quiet.sqnr_db(1.0) - 80.0).abs() < 1e-9);
    }

    #[test]
    fn zero_report() {
        let r = NoiseReport::zero();
        assert_eq!(r.power, 0.0);
        assert_eq!(r.support, (0.0, 0.0));
    }
}
