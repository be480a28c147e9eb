//! SNA for linear datapaths with feedback: exact moments through LTI
//! gains, full PDFs by per-source shaping + convolution.
//!
//! For a linear graph, the output error is `Σᵢ Σₖ hᵢ[k]·eᵢ[n−k]`: each
//! source `eᵢ` (bounded, known PDF) enters through its impulse response
//! `hᵢ`.  The engine shapes each source's *total* contribution:
//!
//! * single-tap responses (combinational paths) keep the exact scaled
//!   source PDF — a scaled uniform;
//! * multi-tap responses (feedback) invoke the central limit theorem
//!   (as in Fang/Rutenbar and Pu/Ha, which the paper cites): a Gaussian
//!   with the *exact* mean and variance, truncated to the *guaranteed*
//!   per-tap bounds;
//!
//! and then convolves the per-source contributions (exact histogram
//! addition).  Moments and bounds in the returned report are the exact
//! analytic values from [`NaModel`]; the histogram carries the shape.

use sna_dfg::{Dfg, LtiOptions};
use sna_fixp::WlConfig;
use sna_hist::Histogram;
use sna_interval::Interval;

use crate::sources::NoiseSource;
use crate::{Budget, NaModel, NoiseReport, SnaError};

/// SNA engine for linear (possibly sequential) datapaths.
#[derive(Clone, Debug)]
pub struct LtiEngine {
    model: std::sync::Arc<NaModel>,
    bins: usize,
}

impl LtiEngine {
    /// Builds the engine (runs the one-off impulse-response and range
    /// analyses).
    ///
    /// # Errors
    ///
    /// Same as [`NaModel::build`].
    pub fn build(
        dfg: &Dfg,
        input_ranges: &[Interval],
        opts: &LtiOptions,
        bins: usize,
    ) -> Result<Self, SnaError> {
        Ok(Self::from_model(
            std::sync::Arc::new(NaModel::build(dfg, input_ranges, opts)?),
            bins,
        ))
    }

    /// Wraps an already built (and possibly shared) gain model — the path
    /// a [`crate::Session`] takes so the expensive impulse analysis is
    /// paid once per compiled program, not once per engine.
    #[must_use]
    pub fn from_model(model: std::sync::Arc<NaModel>, bins: usize) -> Self {
        LtiEngine { model, bins }
    }

    /// Access to the underlying gain model.
    pub fn model(&self) -> &NaModel {
        self.model.as_ref()
    }

    /// Analyzes output noise under `config`: exact moments + shaped PDF.
    ///
    /// Shaping and convolving one (source, output) contribution costs
    /// `O(bins²)`; `budget` is checked before each such step.
    ///
    /// # Errors
    ///
    /// Histogram construction failures are propagated, and budget
    /// overruns surface as [`SnaError::DeadlineExceeded`] /
    /// [`SnaError::Cancelled`].
    pub fn analyze(
        &self,
        dfg: &Dfg,
        config: &WlConfig,
        budget: &Budget,
    ) -> Result<Vec<(String, NoiseReport)>, SnaError> {
        let moments = self.model.evaluate(dfg, config);
        let n_out = moments.len();
        let mut pdfs: Vec<Option<Histogram>> = vec![None; n_out];
        let limited = !budget.is_unlimited();

        for src in self.model.shaped_sources(dfg, config) {
            let g = self
                .model
                .gains_from(src.node)
                .expect("shaped sources refer to analyzed nodes");
            for (pdf, &og) in pdfs.iter_mut().zip(g.per_output.iter()) {
                if og.l1 == 0.0 {
                    continue; // source does not reach this output
                }
                if limited {
                    budget.check()?;
                }
                let contribution = shape_contribution(&src, og, self.bins)?;
                *pdf = Some(match pdf.take() {
                    None => contribution,
                    Some(acc) => acc.add_with(
                        &contribution,
                        &sna_hist::OpOptions::default()
                            .with_deposit(sna_hist::DepositPolicy::Exact)
                            .with_out_bins(self.bins),
                    )?,
                });
            }
        }

        Ok(moments
            .into_iter()
            .enumerate()
            .map(|(k, (name, m))| {
                let mut report = m;
                if let Some(pdf) = pdfs[k].take() {
                    // Shift by the deterministic offsets that are in the
                    // exact mean but not in the source convolution
                    // (constant rounding through linear paths).
                    let shift = report.mean - pdf.mean();
                    let shifted = if shift.abs() > 1e-15 {
                        pdf.shift(shift).unwrap_or(pdf)
                    } else {
                        pdf
                    };
                    report.histogram = Some(shifted);
                }
                (name, report)
            })
            .collect())
    }
}

/// Shapes the total contribution of one source through one transfer path.
fn shape_contribution(
    src: &NoiseSource,
    og: sna_dfg::OutputGain,
    bins: usize,
) -> Result<Histogram, SnaError> {
    let mean = src.offset * og.dc;
    let variance = src.variance() * og.l2_squared;
    // Per-tap extremal bounds (see NaModel::evaluate).
    let p = 0.5 * (og.l1 + og.dc);
    let n = 0.5 * (og.dc - og.l1);
    let a = src.offset - src.half_width;
    let b = src.offset + src.half_width;
    let lo = a * p + b * n;
    let hi = b * p + a * n;
    // Single-tap test: |h| concentrated on one tap ⇔ l1² == l2².
    let single_tap = (og.l1 * og.l1 - og.l2_squared).abs() <= 1e-9 * og.l1 * og.l1;
    if single_tap || hi - lo <= 0.0 {
        // Exact: scaled uniform over [lo, hi] (or a degenerate spike).
        if hi - lo <= 0.0 {
            let eps = 1e-18 + mean.abs() * 1e-15;
            return Ok(Histogram::uniform(mean - eps, mean + eps, bins.max(2))?);
        }
        Ok(Histogram::uniform(lo, hi, bins)?)
    } else {
        // CLT: truncated Gaussian with exact mean/variance on [lo, hi].
        let sd = variance.sqrt().max(1e-300);
        Ok(Histogram::from_density_fn(lo, hi, bins, |x| {
            let z = (x - mean) / sd;
            (-0.5 * z * z).exp()
        })?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sna_dfg::DfgBuilder;
    use sna_fixp::{monte_carlo_error, MonteCarloOptions, WlConfig};

    fn iv(lo: f64, hi: f64) -> Interval {
        Interval::new(lo, hi).unwrap()
    }

    fn one_pole(pole: f64) -> Dfg {
        let mut b = DfgBuilder::new();
        let x = b.input("x");
        let fb = b.delay_placeholder();
        let t = b.mul_const(pole, fb);
        let y = b.add(x, t);
        b.bind_delay(fb, y).unwrap();
        b.output("y", y);
        b.build().unwrap()
    }

    #[test]
    fn iir_prediction_matches_monte_carlo() {
        let g = one_pole(0.5);
        let ranges = [iv(-0.4, 0.4)];
        let cfg = WlConfig::from_ranges(&g, &ranges, 12).unwrap();
        let engine = LtiEngine::build(&g, &ranges, &LtiOptions::default(), 128).unwrap();
        let predicted = &engine.analyze(&g, &cfg, &Budget::unlimited()).unwrap()[0].1;
        let measured = &monte_carlo_error(
            &g,
            &cfg,
            &ranges,
            &MonteCarloOptions {
                samples: 60_000,
                steps: 96,
                warmup: 32,
                ..Default::default()
            },
        )
        .unwrap()[0];
        let ratio = predicted.variance / measured.variance;
        assert!(
            ratio > 0.5 && ratio < 2.0,
            "variance ratio {ratio} (pred {}, meas {})",
            predicted.variance,
            measured.variance
        );
        // Guaranteed bounds cover all observed errors.
        assert!(predicted.support.0 <= measured.min);
        assert!(predicted.support.1 >= measured.max);
        // A PDF is attached and is consistent with the exact mean.
        let pdf = predicted.histogram.as_ref().unwrap();
        assert!((pdf.mean() - predicted.mean).abs() < 1e-6);
    }

    #[test]
    fn feedback_pdf_is_bell_shaped() {
        let g = one_pole(0.9);
        let ranges = [iv(-0.05, 0.05)];
        let cfg = WlConfig::from_ranges(&g, &ranges, 12).unwrap();
        let engine = LtiEngine::build(&g, &ranges, &LtiOptions::default(), 128).unwrap();
        let r = &engine.analyze(&g, &cfg, &Budget::unlimited()).unwrap()[0].1;
        let pdf = r.histogram.as_ref().unwrap();
        // Center denser than two-sigma points.
        let mid = pdf.density(r.mean);
        let off = pdf.density(r.mean + 2.0 * r.std_dev());
        assert!(mid > 2.0 * off, "bell shape expected: {mid} vs {off}");
    }

    #[test]
    fn combinational_paths_stay_bounded() {
        let mut b = DfgBuilder::new();
        let x = b.input("x");
        let y = b.mul_const(0.5, x);
        b.output("y", y);
        let g = b.build().unwrap();
        let ranges = [iv(-1.0, 1.0)];
        let cfg = WlConfig::from_ranges(&g, &ranges, 10).unwrap();
        let engine = LtiEngine::build(&g, &ranges, &LtiOptions::default(), 64).unwrap();
        let r = &engine.analyze(&g, &cfg, &Budget::unlimited()).unwrap()[0].1;
        let pdf = r.histogram.as_ref().unwrap();
        assert!(r.support.0 < 0.0 && r.support.1 > 0.0);
        assert!((pdf.total_mass() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn moments_equal_na_model() {
        let g = one_pole(0.7);
        let ranges = [iv(-0.2, 0.2)];
        let cfg = WlConfig::from_ranges(&g, &ranges, 14).unwrap();
        let engine = LtiEngine::build(&g, &ranges, &LtiOptions::default(), 64).unwrap();
        let na = engine.model().evaluate(&g, &cfg);
        let sna = engine.analyze(&g, &cfg, &Budget::unlimited()).unwrap();
        assert_eq!(na[0].1.mean, sna[0].1.mean);
        assert_eq!(na[0].1.variance, sna[0].1.variance);
        assert_eq!(na[0].1.support, sna[0].1.support);
    }

    #[test]
    fn pdf_bounds_respect_analytic_support() {
        let g = one_pole(0.6);
        let ranges = [iv(-0.3, 0.3)];
        let cfg = WlConfig::from_ranges(&g, &ranges, 10).unwrap();
        let engine = LtiEngine::build(&g, &ranges, &LtiOptions::default(), 128).unwrap();
        let r = &engine.analyze(&g, &cfg, &Budget::unlimited()).unwrap()[0].1;
        let pdf = r.histogram.as_ref().unwrap();
        let (plo, phi) = pdf.support();
        // The convolved PDF may not exceed the analytic worst case by more
        // than a shift-epsilon.
        assert!(plo >= r.support.0 - 1e-9);
        assert!(phi <= r.support.1 + 1e-9);
    }
}
