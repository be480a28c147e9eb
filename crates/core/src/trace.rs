//! Trace-driven noise analysis: measured signals in, empirical noise
//! reports out.
//!
//! [`Session::trace`] is the telemetry counterpart of
//! [`Session::simulate`]: instead of drawing Monte-Carlo samples from
//! the *declared* input ranges, it fits per-input ranges and
//! moments from a recorded [`Trace`], feeds the fitted
//! ranges into the normal engine stack in place of the declarations
//! (so word-length scaling and the analytic prediction both reflect
//! the measured signal), replays the recorded rows through the VM's
//! paired exact/quantized lane banks, and reports *measured* output
//! noise next to the analytic prediction with abs/rel gaps per
//! output.
//!
//! Like the simulator, the replay is a pure function of
//! `(design, trace, request)` — the worker count never changes a bit
//! of the report.

use std::time::{Duration, Instant};

use sna_hist::Grid;
use sna_interval::Interval;
use sna_trace::Trace;
use sna_vm::{Executable, ReplayOptions};

use crate::engine::WlChoice;
use crate::simulate::{cancel_check, measured_vs_predicted, vm_err, SimOutput};
use crate::{Budget, EngineKind, Session, SnaError};

/// Rows collected per lane segment when replaying a sequential design
/// (combinational designs map rows straight onto lanes).
const SEQ_SEG_ROWS: usize = 512;

/// One trace-analysis request.
#[derive(Clone, Debug)]
pub struct TraceRequest {
    /// Word lengths of the replayed configuration.
    pub words: WlChoice,
    /// Bins of the fitted input grids and the empirical error
    /// histograms.
    pub bins: usize,
    /// Overlap rows replayed before each segment of a sequential
    /// design to warm delay state; `None` picks 0 for combinational
    /// graphs and 64 for sequential ones. Exact for designs whose
    /// memory is at most this deep (FIR chains); an overlap
    /// approximation for longer feedback.
    pub warmup: Option<usize>,
    /// Worker threads (0 = available parallelism). Changes wall-clock
    /// only, never the report.
    pub workers: usize,
    /// Attempt the analytic prediction alongside the replay. `false`
    /// (the `replay` verb) reports measured numbers only and skips the
    /// engine pass entirely.
    pub predict: bool,
    /// Whether the output reports keep their PDFs (see
    /// [`crate::AnalysisRequest::include_pdf`]): without it no measured
    /// error histogram is built and the analytic prediction skips its
    /// PDF. No moment depends on it; the input fits keep their grids.
    pub include_pdf: bool,
    /// Cooperative execution budget, checked before every replay
    /// chunk. A budget that never fires leaves the report
    /// bit-identical.
    pub budget: Budget,
}

impl Default for TraceRequest {
    fn default() -> Self {
        TraceRequest {
            words: WlChoice::Uniform(12),
            bins: 64,
            warmup: None,
            workers: 0,
            predict: true,
            include_pdf: true,
            budget: Budget::unlimited(),
        }
    }
}

/// One input's empirical fit from the trace.
#[derive(Clone, Debug)]
pub struct TraceInputFit {
    /// Input name as declared (vector banks per element, `v[0]`…).
    pub name: String,
    /// Accepted samples behind the fit.
    pub samples: usize,
    /// Measured mean.
    pub mean: f64,
    /// Measured population variance.
    pub variance: f64,
    /// Fitted range: the measured `[min, max]`, replacing the declared
    /// range everywhere downstream.
    pub range: Interval,
    /// The fixed-bin grid a histogram of the measured samples would
    /// use: the fitted range in `bins` bins (widened slightly when the
    /// range is a point).
    pub grid: Grid,
}

/// The full trace-analysis report.
#[derive(Clone, Debug)]
pub struct TraceReport {
    /// Per-input empirical fits, in declaration order.
    pub fit: Vec<TraceInputFit>,
    /// Per-output measured-vs-predicted results, in declaration order.
    /// `empirical` holds the *measured* error statistics over exactly
    /// the trace's rows; `predicted` the analytic model's report under
    /// the fitted ranges, when a model applies.
    pub outputs: Vec<SimOutput>,
    /// Trace rows replayed (= error samples per output).
    pub rows: usize,
    /// Trace rows skipped at ingestion (ragged + non-finite).
    pub skipped: usize,
    /// Warmup rows after `None` resolution.
    pub warmup: usize,
    /// The engine that produced the predictions, when one applied.
    pub predicted_by: Option<EngineKind>,
    /// Wall-clock replay time (fit and prediction excluded).
    pub elapsed: Duration,
}

impl Session {
    /// Fits per-input ranges, moments and histogram grids from a
    /// recorded trace, without replaying anything — the `sna trace fit`
    /// verb.
    ///
    /// # Errors
    ///
    /// [`SnaError::WrongInputCount`] / [`SnaError::InvalidInput`] when
    /// the trace's columns do not line up with the design's inputs,
    /// and grid failures (`bins == 0`).
    pub fn fit_trace(&self, trace: &Trace, bins: usize) -> Result<Vec<TraceInputFit>, SnaError> {
        let names = self.dfg().input_names();
        if trace.names().len() != names.len() {
            return Err(SnaError::WrongInputCount {
                expected: names.len(),
                got: trace.names().len(),
            });
        }
        if let Some((bound, declared)) = trace.names().iter().zip(names).find(|(b, d)| b != d) {
            return Err(SnaError::InvalidInput {
                name: declared.clone(),
                message: format!("trace column bound to `{bound}` instead"),
            });
        }
        trace
            .stats()
            .iter()
            .zip(names)
            .map(|(stats, name)| {
                let range = Interval::new(stats.min(), stats.max()).map_err(|e| {
                    SnaError::InvalidInput {
                        name: name.clone(),
                        message: format!("fitted range is degenerate: {e}"),
                    }
                })?;
                Ok(TraceInputFit {
                    name: name.clone(),
                    samples: stats.count() as usize,
                    mean: stats.mean(),
                    variance: stats.variance(),
                    range,
                    grid: Grid::spanning_samples(range.lo(), range.hi(), bins)?,
                })
            })
            .collect()
    }

    /// Replays a recorded trace through the compiled bytecode program
    /// and pairs the *measured* per-output error statistics with the
    /// analytic model's prediction under the fitted (not declared)
    /// input ranges.
    ///
    /// Combinational designs map rows straight onto VM lanes;
    /// sequential designs replay in overlapping segments (see
    /// [`TraceRequest::warmup`]). Either way every accepted trace row
    /// contributes exactly one error sample per output, in row order.
    ///
    /// # Errors
    ///
    /// Fit failures as [`Session::fit_trace`], word-length / range
    /// failures from configuration, and replay failures (division by
    /// zero, empty trace). A *prediction* failure is not an error:
    /// `predicted` is simply absent.
    pub fn trace(&self, trace: &Trace, req: &TraceRequest) -> Result<TraceReport, SnaError> {
        req.budget.check()?;
        let fit = self.fit_trace(trace, req.bins)?;
        let empirical = Session::new(self.dfg().clone(), fit.iter().map(|f| f.range).collect())?;

        let combinational = self.dfg().is_combinational();
        let warmup = req.warmup.unwrap_or(if combinational { 0 } else { 64 });
        let seg = if combinational { 1 } else { SEQ_SEG_ROWS };

        let program = empirical.vm_program();
        let config = empirical.wl_config(&req.words)?;
        let exe = Executable::new(program, empirical.dfg(), &config);
        let opts = ReplayOptions {
            seg,
            warmup,
            workers: req.workers,
            bins: req.include_pdf.then_some(req.bins),
        };
        let started = Instant::now();
        let stats = sna_vm::replay(&exe, trace.columns(), &opts, &cancel_check(&req.budget))
            .map_err(|e| vm_err(e, &req.budget))?;
        let elapsed = started.elapsed();
        // The prediction runs under the *fitted* ranges.
        let (outputs, predicted_by) = measured_vs_predicted(
            stats,
            req.predict.then_some(&empirical),
            &req.words,
            req.bins,
            req.include_pdf,
            &req.budget,
        );

        Ok(TraceReport {
            fit,
            outputs,
            rows: trace.rows(),
            skipped: trace.skipped(),
            warmup,
            predicted_by,
            elapsed,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sna_dfg::DfgBuilder;
    use sna_trace::{write_csv, TraceLimits};

    fn iv(lo: f64, hi: f64) -> Interval {
        Interval::new(lo, hi).unwrap()
    }

    /// y = 0.3·x1 + 0.6·x2, declared ranges deliberately much wider
    /// than the recorded signal.
    fn linear_session() -> Session {
        let mut b = DfgBuilder::new();
        let x1 = b.input("x1");
        let x2 = b.input("x2");
        let t1 = b.mul_const(0.3, x1);
        let t2 = b.mul_const(0.6, x2);
        let y = b.add(t1, t2);
        b.output("y", y);
        Session::new(b.build().unwrap(), vec![iv(-8.0, 8.0), iv(-8.0, 8.0)]).unwrap()
    }

    /// A deterministic pseudo-uniform signal in (−amp, amp).
    fn wave(n: usize, amp: f64, salt: u64) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let s = (i as u64 + salt).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                ((s >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0) * amp
            })
            .collect()
    }

    fn trace_of(names: &[&str], cols: &[Vec<f64>]) -> Trace {
        let names: Vec<String> = names.iter().map(|s| s.to_string()).collect();
        let rows: Vec<Vec<f64>> = (0..cols[0].len())
            .map(|i| cols.iter().map(|c| c[i]).collect())
            .collect();
        Trace::parse(&write_csv(&names, &rows), &names, &TraceLimits::default()).unwrap()
    }

    #[test]
    fn fitted_ranges_track_the_measured_signal_not_the_declaration() {
        let session = linear_session();
        let trace = trace_of(&["x1", "x2"], &[wave(4000, 0.9, 1), wave(4000, 0.9, 2)]);
        let fit = session.fit_trace(&trace, 64).unwrap();
        assert_eq!(fit.len(), 2);
        assert!(fit[0].range.lo() > -1.0 && fit[0].range.hi() < 1.0);
        assert_eq!(fit[0].samples, 4000);
    }

    #[test]
    fn measured_noise_lands_near_the_prediction_with_gaps() {
        let session = linear_session();
        let trace = trace_of(
            &["x1", "x2"],
            &[wave(30_000, 0.95, 1), wave(30_000, 0.95, 2)],
        );
        let report = session.trace(&trace, &TraceRequest::default()).unwrap();
        assert!(report.predicted_by.is_some());
        assert_eq!(report.rows, 30_000);
        let out = &report.outputs[0];
        assert_eq!(out.name, "y");
        assert_eq!(out.samples, 30_000);
        let gap = out.variance_gap.unwrap();
        let rel = gap.rel.unwrap();
        assert!(rel < 0.5, "measured variance off the prediction by {rel}");
    }

    #[test]
    fn worker_count_never_changes_a_bit() {
        let session = linear_session();
        let trace = trace_of(&["x1", "x2"], &[wave(20_000, 0.9, 3), wave(20_000, 0.9, 4)]);
        let base = session
            .trace(
                &trace,
                &TraceRequest {
                    workers: 1,
                    ..TraceRequest::default()
                },
            )
            .unwrap();
        for workers in [4, 8] {
            let alt = session
                .trace(
                    &trace,
                    &TraceRequest {
                        workers,
                        ..TraceRequest::default()
                    },
                )
                .unwrap();
            for (a, b) in base.outputs.iter().zip(&alt.outputs) {
                assert_eq!(a.empirical.mean.to_bits(), b.empirical.mean.to_bits());
                assert_eq!(
                    a.empirical.variance.to_bits(),
                    b.empirical.variance.to_bits()
                );
                assert_eq!(a.samples, b.samples);
            }
        }
    }

    #[test]
    fn sequential_designs_replay_with_segment_warmup() {
        let mut b = DfgBuilder::new();
        let x = b.input("x");
        let d1 = b.delay(x);
        let s = b.add(x, d1);
        let y = b.mul_const(0.5, s);
        b.output("y", y);
        let session = Session::new(b.build().unwrap(), vec![iv(-1.0, 1.0)]).unwrap();
        let trace = trace_of(&["x"], &[wave(5000, 0.8, 7)]);
        let report = session.trace(&trace, &TraceRequest::default()).unwrap();
        assert_eq!(report.warmup, 64);
        assert_eq!(report.outputs[0].samples, 5000);
    }

    #[test]
    fn mismatched_traces_and_dead_budgets_fail_structured() {
        let session = linear_session();
        let trace = trace_of(&["x1"], &[wave(100, 0.5, 9)]);
        assert!(matches!(
            session.fit_trace(&trace, 64),
            Err(SnaError::WrongInputCount {
                expected: 2,
                got: 1
            })
        ));
        let trace = trace_of(&["x2", "x1"], &[wave(10, 0.5, 1), wave(10, 0.5, 2)]);
        assert!(matches!(
            session.fit_trace(&trace, 64),
            Err(SnaError::InvalidInput { .. })
        ));
        let trace = trace_of(&["x1", "x2"], &[wave(10, 0.5, 1), wave(10, 0.5, 2)]);
        let req = TraceRequest {
            budget: Budget::pre_cancelled(),
            ..TraceRequest::default()
        };
        assert!(matches!(
            session.trace(&trace, &req),
            Err(SnaError::Cancelled)
        ));
    }
}
