//! Monte-Carlo simulation through the session's compiled bytecode
//! program, with the analytic model's prediction alongside — the
//! empirical cross-check the paper's Table 2 calls "Actual Values".
//!
//! [`Session::simulate`] runs K×N sampled paths on the `sna_vm`
//! backend (deterministic for a given seed, whatever the worker count)
//! and pairs each output's empirical (mean, variance, min/max,
//! histogram) with the best available model prediction:
//!
//! * linear graphs → the NA gain model ([`EngineKind::Na`]);
//! * nonlinear combinational graphs → histogram propagation
//!   ([`EngineKind::Dfg`]);
//! * nonlinear sequential graphs → no model applies; the simulation
//!   itself is the only number anyone has.

use std::time::{Duration, Instant};

use sna_dfg::DfgError;
use sna_vm::{Executable, OutputStats, SimOptions, VmError};

use crate::engine::{AnalysisRequest, WlChoice};
use crate::{Budget, EngineKind, NoiseReport, Session, SnaError};

/// One simulation request.
#[derive(Clone, Debug)]
pub struct SimRequest {
    /// Word lengths of the simulated configuration.
    pub words: WlChoice,
    /// Independent sample paths.
    pub paths: usize,
    /// RNG seed; the report is a pure function of it (and the request).
    pub seed: u64,
    /// Steps per path; `None` picks 1 for combinational graphs and 64
    /// for sequential ones.
    pub steps: Option<usize>,
    /// Warmup steps discarded per path; `None` picks 0 / 16 to match
    /// `steps`.
    pub warmup: Option<usize>,
    /// Worker threads (0 = available parallelism). Changes wall-clock
    /// only, never the report.
    pub workers: usize,
    /// Bins of the empirical error histogram.
    pub bins: usize,
    /// Whether the reports keep their PDFs (see
    /// [`AnalysisRequest::include_pdf`]): without it no empirical
    /// histogram is built and the analytic prediction skips its PDF.
    /// No moment depends on it.
    pub include_pdf: bool,
    /// Cooperative execution budget, checked before every simulation
    /// chunk. Defaults to unlimited; a budget that never fires leaves
    /// the report bit-identical.
    pub budget: Budget,
}

impl Default for SimRequest {
    fn default() -> Self {
        SimRequest {
            words: WlChoice::Uniform(12),
            paths: 100_000,
            seed: 0x5eed_cafe,
            steps: None,
            warmup: None,
            workers: 0,
            bins: 64,
            include_pdf: true,
            budget: Budget::unlimited(),
        }
    }
}

/// An absolute/relative disagreement between empirical and predicted.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Gap {
    /// `|empirical − predicted|`.
    pub abs: f64,
    /// `abs / |predicted|`; `None` when the prediction is exactly zero.
    pub rel: Option<f64>,
}

impl Gap {
    pub(crate) fn between(empirical: f64, predicted: f64) -> Gap {
        let abs = (empirical - predicted).abs();
        Gap {
            abs,
            rel: (predicted != 0.0).then(|| abs / predicted.abs()),
        }
    }
}

/// One output's simulation result.
#[derive(Clone, Debug)]
pub struct SimOutput {
    /// Output name as declared.
    pub name: String,
    /// Empirical error statistics (support = observed min/max; the
    /// histogram attached when the request includes PDFs).
    pub empirical: NoiseReport,
    /// Collected error samples behind [`SimOutput::empirical`].
    pub samples: usize,
    /// The analytic model's report, when a model applies.
    pub predicted: Option<NoiseReport>,
    /// Empirical-vs-predicted mean disagreement.
    pub mean_gap: Option<Gap>,
    /// Empirical-vs-predicted variance disagreement.
    pub variance_gap: Option<Gap>,
}

/// The full simulation report.
#[derive(Clone, Debug)]
pub struct SimReport {
    /// Per-output results, in declaration order.
    pub outputs: Vec<SimOutput>,
    /// Paths actually simulated.
    pub paths: usize,
    /// Steps per path after `None` resolution.
    pub steps: usize,
    /// Warmup steps after `None` resolution.
    pub warmup: usize,
    /// The seed the lanes were fanned out from.
    pub seed: u64,
    /// The engine that produced the predictions, when one applied.
    pub predicted_by: Option<EngineKind>,
    /// Wall-clock simulation time (prediction excluded).
    pub elapsed: Duration,
}

/// Maps a VM failure onto [`SnaError`]; `Cancelled` is diagnosed
/// against the request's budget (deadline vs explicit cancel).
pub(crate) fn vm_err(e: VmError, budget: &Budget) -> SnaError {
    match e {
        VmError::DivisionByZero { node } => SnaError::Dfg(DfgError::DivisionByZero { node }),
        VmError::InputArity { expected, got } | VmError::LaneCount { expected, got } => {
            SnaError::Dfg(DfgError::WrongInputCount { expected, got })
        }
        VmError::NoSamples => SnaError::NoSamples,
        VmError::Histogram(e) => SnaError::Hist(e),
        VmError::Cancelled => budget.overrun_error(),
    }
}

/// The cancellation check the VM drivers poll before every chunk claim:
/// free for an unlimited budget, a [`Budget::check`] otherwise.
pub(crate) fn cancel_check(budget: &Budget) -> impl Fn() -> bool + Sync + '_ {
    move || !budget.is_unlimited() && budget.check().is_err()
}

/// Pairs measured per-output error statistics with the best-effort
/// `Auto` prediction of `model` (skipped when `None`), one [`SimOutput`]
/// per output with exact sample moments and empirical-vs-predicted
/// [`Gap`]s. `Auto` resolution rejects nonlinear sequential graphs, and
/// any other model failure also just leaves the prediction empty.
pub(crate) fn measured_vs_predicted(
    stats: Vec<OutputStats>,
    model: Option<&Session>,
    words: &WlChoice,
    bins: usize,
    include_pdf: bool,
    budget: &Budget,
) -> (Vec<SimOutput>, Option<EngineKind>) {
    let prediction = model.and_then(|session| {
        session
            .analyze(&AnalysisRequest {
                engine: EngineKind::Auto,
                words: words.clone(),
                bins,
                include_pdf,
                budget: budget.clone(),
            })
            .ok()
    });
    let outputs = stats
        .into_iter()
        .enumerate()
        .map(|(k, s)| {
            // The exact sample statistics, not the histogram's
            // bin-resolution moments.
            let empirical = NoiseReport {
                mean: s.mean,
                variance: s.variance,
                power: s.power,
                support: (s.min, s.max),
                histogram: s.histogram,
            };
            let predicted = prediction.as_ref().map(|p| p.reports[k].1.clone());
            let mean_gap = predicted.as_ref().map(|p| Gap::between(s.mean, p.mean));
            let variance_gap = predicted
                .as_ref()
                .map(|p| Gap::between(s.variance, p.variance));
            SimOutput {
                name: s.name,
                empirical,
                samples: s.samples,
                predicted,
                mean_gap,
                variance_gap,
            }
        })
        .collect();
    (outputs, prediction.map(|p| p.engine))
}

impl Session {
    /// Runs a Monte-Carlo simulation over the compiled bytecode program
    /// and pairs the empirical per-output statistics with the analytic
    /// model's prediction (NA for linear graphs, histogram propagation
    /// for nonlinear combinational ones; none for nonlinear sequential
    /// graphs, where simulation is the only source of truth).
    ///
    /// The program compiles lazily on first use and is cached on the
    /// session — including across [`Session::with_coefficients`]
    /// descendants, since the bytecode is shape-only.
    ///
    /// # Errors
    ///
    /// Word-length / range failures from configuration, and simulation
    /// failures (division by zero, zero paths). A *prediction* failure
    /// is not an error: `predicted` is simply absent.
    pub fn simulate(&self, req: &SimRequest) -> Result<SimReport, SnaError> {
        // Pre-flight: an already-expired budget fails before the
        // configuration is even built.
        req.budget.check()?;
        let combinational = self.dfg().is_combinational();
        let steps = req.steps.unwrap_or(if combinational { 1 } else { 64 });
        let warmup = req.warmup.unwrap_or(if combinational { 0 } else { 16 });

        let program = self.vm_program();
        let config = self.wl_config(&req.words)?;
        let exe = Executable::new(program, self.dfg(), &config);
        let opts = SimOptions {
            paths: req.paths,
            seed: req.seed,
            steps,
            warmup,
            workers: req.workers,
            bins: req.include_pdf.then_some(req.bins),
        };
        let started = Instant::now();
        let stats = sna_vm::simulate(&exe, self.input_ranges(), &opts, &cancel_check(&req.budget))
            .map_err(|e| vm_err(e, &req.budget))?;
        let elapsed = started.elapsed();
        let (outputs, predicted_by) = measured_vs_predicted(
            stats,
            Some(self),
            &req.words,
            req.bins,
            req.include_pdf,
            &req.budget,
        );

        Ok(SimReport {
            outputs,
            paths: req.paths,
            steps,
            warmup,
            seed: req.seed,
            predicted_by,
            elapsed,
        })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use sna_dfg::{Dfg, DfgBuilder};
    use sna_fixp::WlConfig;
    use sna_interval::Interval;
    use std::sync::Arc;

    /// Bit-true error statistics of `dfg` under `config`: `samples` error
    /// samples per output from the VM, inputs drawn uniformly from
    /// `ranges`. Sequential designs run `paths = samples ⌈/⌉ (steps −
    /// warmup)` paths of `steps` steps and collect after `warmup`.
    pub(crate) fn measure(
        dfg: &Dfg,
        config: &WlConfig,
        ranges: &[Interval],
        samples: usize,
        steps: usize,
        warmup: usize,
    ) -> Vec<OutputStats> {
        let exe = Executable::new(Arc::new(sna_vm::Program::compile(dfg)), dfg, config);
        let opts = SimOptions {
            paths: samples.div_ceil(steps - warmup),
            steps,
            warmup,
            bins: None,
            ..SimOptions::default()
        };
        sna_vm::simulate(&exe, ranges, &opts, &|| false).unwrap()
    }

    fn iv(lo: f64, hi: f64) -> Interval {
        Interval::new(lo, hi).unwrap()
    }

    fn linear_session() -> Session {
        let mut b = DfgBuilder::new();
        let x1 = b.input("x1");
        let x2 = b.input("x2");
        let t1 = b.mul_const(0.3, x1);
        let t2 = b.mul_const(0.6, x2);
        let y = b.add(t1, t2);
        b.output("y", y);
        Session::new(b.build().unwrap(), vec![iv(-1.0, 1.0), iv(-1.0, 1.0)]).unwrap()
    }

    #[test]
    fn linear_graphs_get_na_predictions_with_gaps() {
        let session = linear_session();
        let req = SimRequest {
            paths: 20_000,
            ..SimRequest::default()
        };
        let report = session.simulate(&req).unwrap();
        assert_eq!(report.predicted_by, Some(EngineKind::Lti));
        assert_eq!(report.steps, 1);
        assert_eq!(report.warmup, 0);
        let out = &report.outputs[0];
        assert_eq!(out.name, "y");
        assert_eq!(out.samples, 20_000);
        assert!(out.predicted.is_some());
        let gap = out.variance_gap.unwrap();
        let rel = gap.rel.unwrap();
        assert!(rel < 0.5, "variance off by {rel}");
        assert!(out.empirical.histogram.is_some());
    }

    #[test]
    fn nonlinear_sequential_graphs_simulate_without_a_prediction() {
        let mut b = DfgBuilder::new();
        let x = b.input("x");
        let fb = b.delay_placeholder();
        let sq = b.mul(fb, fb);
        let scaled = b.mul_const(0.1, sq);
        let y = b.add(x, scaled);
        b.bind_delay(fb, y).unwrap();
        b.output("y", y);
        let session = Session::new(b.build().unwrap(), vec![iv(-0.5, 0.5)]).unwrap();
        let req = SimRequest {
            paths: 5_000,
            ..SimRequest::default()
        };
        let report = session.simulate(&req).unwrap();
        assert_eq!(report.predicted_by, None);
        assert_eq!(report.steps, 64);
        assert_eq!(report.warmup, 16);
        let out = &report.outputs[0];
        assert!(out.predicted.is_none() && out.mean_gap.is_none());
        assert!(out.empirical.variance > 0.0);
    }

    #[test]
    fn simulation_is_deterministic_and_cached_across_coefficient_swaps() {
        let session = linear_session();
        let req = SimRequest {
            paths: 4_000,
            ..SimRequest::default()
        };
        let a = session.simulate(&req).unwrap();
        let b = session.simulate(&req).unwrap();
        assert_eq!(
            a.outputs[0].empirical.mean.to_bits(),
            b.outputs[0].empirical.mean.to_bits()
        );
        assert_eq!(session.stats().vm_compiles, 1);

        // A coefficient swap keeps the compiled program (shape-only).
        let swapped = session.with_coefficients(&[0.25, 0.5]).unwrap();
        assert!(swapped.vm_program_built());
        let c = swapped.simulate(&req).unwrap();
        assert_eq!(session.stats().vm_compiles, 1, "program was recompiled");
        assert_ne!(
            a.outputs[0].empirical.variance.to_bits(),
            c.outputs[0].empirical.variance.to_bits(),
            "different coefficients must simulate differently"
        );
    }

    #[test]
    fn overrun_budgets_fail_structured_not_slow() {
        let session = linear_session();
        let req = SimRequest {
            paths: 100_000,
            budget: Budget::with_timeout(Duration::ZERO),
            ..SimRequest::default()
        };
        assert!(matches!(
            session.simulate(&req),
            Err(SnaError::DeadlineExceeded)
        ));
        let req = SimRequest {
            budget: Budget::pre_cancelled(),
            ..SimRequest::default()
        };
        assert!(matches!(session.simulate(&req), Err(SnaError::Cancelled)));
        // The analyze path honours the budget too.
        let err = session
            .analyze(&AnalysisRequest {
                budget: Budget::with_timeout(Duration::ZERO),
                ..AnalysisRequest::default()
            })
            .unwrap_err();
        assert!(matches!(err, SnaError::DeadlineExceeded));
        assert_eq!(err.to_string(), "deadline exceeded");
    }

    #[test]
    fn simulate_engine_runs_through_the_uniform_analyze_path() {
        let session = linear_session();
        let report = session
            .analyze(&AnalysisRequest {
                engine: EngineKind::Simulate,
                ..AnalysisRequest::default()
            })
            .unwrap();
        assert_eq!(report.engine, EngineKind::Simulate);
        assert_eq!(report.reports[0].0, "y");
        assert!(report.reports[0].1.variance > 0.0);
        assert!(report.reports[0].1.histogram.is_some());
    }
}
