//! The [`Session`]: one compiled program and its whole artifact chain.
//!
//! A session owns the compiled artifacts the engines and the optimizer
//! share — graph, per-node ranges, the NA gain model, the per-sample
//! combinational view, and the concurrent histogram memo — behind lazily
//! built, `Arc`-shared stages:
//!
//! ```text
//!            Dfg + input ranges                 (Session::new)
//!                    │
//!                    ▼
//!            node ranges  ───────────────┐      (lazy; counted)
//!                    │                   │
//!         ┌──────────┼──────────┐        │
//!         ▼          ▼          ▼        ▼
//!      NaModel   per-sample   WlConfig  coeff sites
//!         │        view       (per request)
//!         ▼
//!     LtiEngine (per request)      histogram memo (shared, concurrent)
//! ```
//!
//! A program with new constant values is a new session: every stage
//! builds cold, which costs about what a cone-limited patch of them
//! would and is exact by construction. Stage-build counters
//! ([`Session::stats`]) make every build observable and testable.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use sna_dfg::{Dfg, DfgError, LtiOptions, RangeOptions};
use sna_fixp::WlConfig;
use sna_interval::Interval;

use crate::engine::{AnalysisReport, AnalysisRequest, ReportKind, WlChoice};
use crate::{
    DfgEngine, EngineKind, EngineOptions, HistMemo, LtiEngine, NaModel, SimRequest, SnaError,
    SymbolicEngine, SymbolicOptions,
};

/// The per-sample stage of a sequential graph: the combinational view
/// with delay-state inputs appended, plus their value ranges.
#[derive(Debug)]
pub struct PerSample {
    /// The combinational view ([`Dfg::combinational_view`]).
    pub view: Dfg,
    /// Input ranges of the view: the original inputs followed by the
    /// delay-state ranges from range analysis of the original graph.
    pub ranges: Vec<Interval>,
}

/// Stage-build counters of one session.
#[derive(Debug, Default)]
struct Counters {
    range_builds: AtomicU64,
    na_builds: AtomicU64,
    view_builds: AtomicU64,
    lti_builds: AtomicU64,
    vm_compiles: AtomicU64,
}

/// A snapshot of a session's stage-build counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Full range analyses run.
    pub range_builds: u64,
    /// Full NA gain-model builds (one impulse analysis per source).
    pub na_builds: u64,
    /// Always 0: gain models are never patched, only built cold, so no
    /// gain is rebuilt, derived or reused piecemeal. The three `gains_*`
    /// fields stay because the end-to-end benchmark (`e2e/`) reads them;
    /// they go when it next changes.
    pub gains_rebuilt: u64,
    /// Always 0; see [`SessionStats::gains_rebuilt`].
    pub gains_derived: u64,
    /// Always 0; see [`SessionStats::gains_rebuilt`].
    pub gains_reused: u64,
    /// Per-sample combinational views built.
    pub view_builds: u64,
    /// LTI engines constructed (one per [`Session::lti_engine`] call; a
    /// construction wraps the shared gain model and costs no analysis).
    pub lti_builds: u64,
    /// VM bytecode programs compiled.
    pub vm_compiles: u64,
}

/// One compiled program and its lazily built, shareable artifact chain
/// (stage graph in the source module's header docs and in
/// `crates/core/README.md`). All stages are `Arc`-shared and
/// thread-safe: a server can hand one session to many worker threads,
/// and an optimizer takes its model and memo from here instead of
/// rebuilding them.
#[derive(Debug)]
pub struct Session {
    dfg: Dfg,
    input_ranges: Vec<Interval>,
    counters: Counters,
    ranges: OnceLock<Result<Arc<Vec<Interval>>, SnaError>>,
    na: OnceLock<Result<Arc<NaModel>, SnaError>>,
    per_sample: OnceLock<Result<Arc<PerSample>, SnaError>>,
    hist_memo: Arc<HistMemo>,
    /// The lowered bytecode program (see `sna_vm`). Shape-only: constant
    /// values and quantizers bind per request.
    vm: OnceLock<Arc<sna_vm::Program>>,
}

impl Session {
    /// Opens a session over a compiled graph and its input ranges.
    ///
    /// Nothing is analyzed yet; stages build on first use.
    ///
    /// # Errors
    ///
    /// [`SnaError::Dfg`] wrapping `WrongInputCount` when the range count
    /// does not match the graph's inputs.
    pub fn new(dfg: Dfg, input_ranges: Vec<Interval>) -> Result<Self, SnaError> {
        if input_ranges.len() != dfg.n_inputs() {
            return Err(SnaError::Dfg(DfgError::WrongInputCount {
                expected: dfg.n_inputs(),
                got: input_ranges.len(),
            }));
        }
        Ok(Session {
            dfg,
            input_ranges,
            counters: Counters::default(),
            ranges: OnceLock::new(),
            na: OnceLock::new(),
            per_sample: OnceLock::new(),
            hist_memo: Arc::new(HistMemo::new()),
            vm: OnceLock::new(),
        })
    }

    /// The compiled graph.
    #[must_use]
    pub fn dfg(&self) -> &Dfg {
        &self.dfg
    }

    /// The declared input ranges, in input order.
    #[must_use]
    pub fn input_ranges(&self) -> &[Interval] {
        &self.input_ranges
    }

    /// The session-owned concurrent histogram memo, shared with every
    /// evaluator derived from this session (see
    /// [`HistMemo`]).
    #[must_use]
    pub fn hist_memo(&self) -> &Arc<HistMemo> {
        &self.hist_memo
    }

    /// A snapshot of this session's stage-build counters.
    #[must_use]
    pub fn stats(&self) -> SessionStats {
        let c = &self.counters;
        SessionStats {
            range_builds: c.range_builds.load(Ordering::Relaxed),
            na_builds: c.na_builds.load(Ordering::Relaxed),
            gains_rebuilt: 0,
            gains_derived: 0,
            gains_reused: 0,
            view_builds: c.view_builds.load(Ordering::Relaxed),
            lti_builds: c.lti_builds.load(Ordering::Relaxed),
            vm_compiles: c.vm_compiles.load(Ordering::Relaxed),
        }
    }

    // ------------------------------------------------------------------
    // Lazily built stages
    // ------------------------------------------------------------------

    /// Per-node value ranges (the mirror of
    /// [`Dfg::ranges_auto`] with the default options), built once and
    /// shared.
    ///
    /// # Errors
    ///
    /// Range-analysis failures, cached: repeated calls fail fast.
    pub fn node_ranges(&self) -> Result<Arc<Vec<Interval>>, SnaError> {
        self.ranges
            .get_or_init(|| {
                self.counters.range_builds.fetch_add(1, Ordering::Relaxed);
                self.dfg
                    .ranges_auto(
                        &self.input_ranges,
                        &RangeOptions::default(),
                        &LtiOptions::default(),
                    )
                    .map(Arc::new)
                    .map_err(SnaError::Dfg)
            })
            .clone()
    }

    /// The NA gain model, built once and shared.
    ///
    /// # Errors
    ///
    /// [`NaModel::build`]'s failures (nonlinear graphs, unstable
    /// feedback), cached.
    pub fn na_model(&self) -> Result<Arc<NaModel>, SnaError> {
        self.na
            .get_or_init(|| {
                // Linearity first, so nonlinear graphs keep the
                // `NonlinearNode` diagnostic even when their range
                // analysis would also fail.
                self.dfg.require_linear()?;
                let ranges = self.node_ranges()?;
                self.counters.na_builds.fetch_add(1, Ordering::Relaxed);
                NaModel::build_with_ranges(&self.dfg, &ranges, &LtiOptions::default()).map(Arc::new)
            })
            .clone()
    }

    /// Whether the NA gain model stage has been built (or failed) —
    /// hit/miss accounting for callers that report model-level caching.
    #[must_use]
    pub fn na_model_built(&self) -> bool {
        self.na.get().is_some()
    }

    /// The per-sample combinational view of a sequential graph (delays
    /// become state inputs ranged by range analysis), built once and
    /// shared. Combinational graphs get a cheap passthrough copy.
    ///
    /// # Errors
    ///
    /// Range-analysis failures.
    pub fn per_sample(&self) -> Result<Arc<PerSample>, SnaError> {
        self.per_sample
            .get_or_init(|| {
                let mut ranges = self.input_ranges.clone();
                if !self.dfg.is_combinational() {
                    let node_ranges = self.node_ranges()?;
                    ranges.extend(
                        self.dfg
                            .delay_nodes()
                            .iter()
                            .map(|d| node_ranges[d.index()]),
                    );
                }
                self.counters.view_builds.fetch_add(1, Ordering::Relaxed);
                Ok(Arc::new(PerSample {
                    view: self.dfg.combinational_view(),
                    ranges,
                }))
            })
            .clone()
    }

    /// The per-sample view plus a word-length configuration for it — the
    /// preamble shared by every combinational engine analyzing a
    /// sequential graph. Only [`WlChoice::Uniform`] can be remapped onto
    /// the derived graph (it has extra state-input nodes).
    ///
    /// # Errors
    ///
    /// [`SnaError::SequentialGraph`] for non-uniform word lengths;
    /// range-analysis / format failures otherwise.
    pub fn per_sample_config(
        &self,
        words: &WlChoice,
    ) -> Result<(Arc<PerSample>, WlConfig), SnaError> {
        let Some(bits) = words.uniform_bits() else {
            return Err(SnaError::SequentialGraph);
        };
        let ps = self.per_sample()?;
        let config = WlConfig::from_ranges(&ps.view, &ps.ranges, bits)?;
        Ok((ps, config))
    }

    /// The LTI engine at a given histogram resolution over the shared
    /// gain model. Construction only wraps the model, so every call
    /// builds a fresh engine (counted in [`SessionStats::lti_builds`]).
    ///
    /// # Errors
    ///
    /// Same as [`Session::na_model`].
    pub fn lti_engine(&self, bins: usize) -> Result<Arc<LtiEngine>, SnaError> {
        let model = self.na_model()?;
        self.counters.lti_builds.fetch_add(1, Ordering::Relaxed);
        Ok(Arc::new(LtiEngine::from_model(model, bins)))
    }

    /// The lowered bytecode program of this graph's shape, compiled
    /// once and shared. It stores node ids, not values: constants and
    /// quantizers bind per request.
    #[must_use]
    pub fn vm_program(&self) -> Arc<sna_vm::Program> {
        Arc::clone(self.vm.get_or_init(|| {
            self.counters.vm_compiles.fetch_add(1, Ordering::Relaxed);
            Arc::new(sna_vm::Program::compile(&self.dfg))
        }))
    }

    /// Whether the VM program stage has been compiled.
    #[must_use]
    pub fn vm_program_built(&self) -> bool {
        self.vm.get().is_some()
    }

    /// A word-length configuration for this graph under `choice`,
    /// built from the cached node ranges (bit-identical to
    /// `WlConfig::from_ranges` on the same graph).
    ///
    /// # Errors
    ///
    /// Range-analysis and format-construction failures.
    pub fn wl_config(&self, choice: &WlChoice) -> Result<WlConfig, SnaError> {
        match choice {
            WlChoice::Config(cfg) => Ok(cfg.clone()),
            WlChoice::Uniform(w) => {
                let ranges = self.node_ranges()?;
                WlConfig::from_precomputed_ranges(&ranges, &vec![*w; self.dfg.len()])
                    .map_err(SnaError::Fixp)
            }
            WlChoice::PerNode(w) => {
                let ranges = self.node_ranges()?;
                WlConfig::from_precomputed_ranges(&ranges, w).map_err(SnaError::Fixp)
            }
        }
    }

    // ------------------------------------------------------------------
    // Analysis dispatch
    // ------------------------------------------------------------------

    /// Resolves [`EngineKind::Auto`] against this graph's structure:
    /// LTI for linear graphs (with or without feedback), histogram
    /// propagation for nonlinear combinational graphs.
    ///
    /// # Errors
    ///
    /// [`SnaError::SequentialGraph`] for nonlinear sequential graphs,
    /// which no engine handles.
    pub fn resolve_engine(&self, kind: EngineKind) -> Result<EngineKind, SnaError> {
        match kind {
            EngineKind::Auto => {
                if self.dfg.is_linear() {
                    Ok(EngineKind::Lti)
                } else if self.dfg.is_combinational() {
                    Ok(EngineKind::Dfg)
                } else {
                    Err(SnaError::SequentialGraph)
                }
            }
            concrete => Ok(concrete),
        }
    }

    /// Runs one analysis request: resolves `Auto`, dispatches on the
    /// resolved [`EngineKind`] to that engine's one entry point (handing
    /// it the request's budget), and wraps the result with provenance
    /// and timing. Sequential graphs reach the per-node DFG and symbolic
    /// engines through the cached per-sample view.
    ///
    /// # Example
    ///
    /// An explicit word-length configuration goes in as
    /// [`WlChoice::Config`]:
    ///
    /// ```
    /// use sna_core::{AnalysisRequest, EngineKind, Session, WlChoice};
    /// use sna_dfg::DfgBuilder;
    /// use sna_fixp::WlConfig;
    /// use sna_interval::Interval;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let mut b = DfgBuilder::new();
    /// let x = b.input("x");
    /// let y = b.mul_const(0.5, x);
    /// b.output("y", y);
    /// let dfg = b.build()?;
    /// let ranges = vec![Interval::new(-1.0, 1.0)?];
    /// let cfg = WlConfig::from_ranges(&dfg, &ranges, 12)?;
    ///
    /// let session = Session::new(dfg, ranges)?;
    /// let report = session.analyze(&AnalysisRequest {
    ///     engine: EngineKind::Auto,
    ///     words: WlChoice::Config(cfg),
    ///     ..AnalysisRequest::default()
    /// })?;
    /// assert_eq!(report.engine, EngineKind::Lti);
    /// assert_eq!(report.reports[0].0, "y");
    /// assert!(report.reports[0].1.variance > 0.0);
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// The selected engine's failures.
    pub fn analyze(&self, req: &AnalysisRequest) -> Result<AnalysisReport, SnaError> {
        let started = Instant::now();
        // Pre-flight budget check: an already-expired deadline fails
        // before any engine work (engines with long inner loops also
        // check at their own checkpoints).
        req.budget.check()?;
        let kind = self.resolve_engine(req.engine)?;
        let budget = &req.budget;
        let mut reports = match kind {
            EngineKind::Auto => unreachable!("resolve_engine returns a concrete kind"),
            EngineKind::Lti if req.include_pdf => {
                let engine = self.lti_engine(req.bins)?;
                engine.analyze(self.dfg(), &self.wl_config(&req.words)?, budget)?
            }
            // Without a PDF, LTI's answer is the gain model's moments:
            // `LtiEngine::analyze` takes them from the same `evaluate`
            // and only adds the shaped histograms.
            EngineKind::Na | EngineKind::Lti => {
                let model = self.na_model()?;
                model.evaluate(self.dfg(), &self.wl_config(&req.words)?)
            }
            EngineKind::Dfg => {
                let engine = DfgEngine::new(EngineOptions::default().with_bins(req.bins));
                self.on_combinational_target(&req.words, |dfg, config, ranges| {
                    engine.analyze(dfg, config, ranges, budget)
                })?
            }
            EngineKind::Symbolic => {
                let engine = SymbolicEngine::new(SymbolicOptions {
                    symbol_bins: req.bins,
                    out_bins: req.bins * 2,
                    pdf: req.include_pdf,
                    ..Default::default()
                });
                self.on_combinational_target(&req.words, |dfg, config, ranges| {
                    Ok(engine.analyze(dfg, config, ranges, budget)?.reports)
                })?
            }
            EngineKind::Cartesian => {
                crate::cartesian::value_pdfs(self.dfg(), self.input_ranges(), req.bins, budget)?
            }
            EngineKind::Simulate => {
                let sim = self.simulate(&SimRequest {
                    words: req.words.clone(),
                    bins: req.bins,
                    include_pdf: req.include_pdf,
                    budget: budget.clone(),
                    ..SimRequest::default()
                })?;
                sim.outputs
                    .into_iter()
                    .map(|out| (out.name, out.empirical))
                    .collect()
            }
        };
        if !req.include_pdf {
            for (_, report) in &mut reports {
                report.histogram = None;
            }
        }
        Ok(AnalysisReport {
            engine: kind,
            kind: if kind == EngineKind::Cartesian {
                ReportKind::ValuePdf
            } else {
                ReportKind::QuantizationNoise
            },
            reports,
            elapsed: started.elapsed(),
        })
    }

    /// Runs a per-node combinational engine on this graph: directly on a
    /// combinational graph under `words`, or on the per-sample view of a
    /// sequential one (delays become state inputs ranged by range
    /// analysis; see [`Session::per_sample_config`]). `run` receives the
    /// graph, its word-length configuration and its input ranges.
    fn on_combinational_target<T>(
        &self,
        words: &WlChoice,
        run: impl FnOnce(&Dfg, &WlConfig, &[Interval]) -> Result<T, SnaError>,
    ) -> Result<T, SnaError> {
        if self.dfg.is_combinational() {
            return run(&self.dfg, &self.wl_config(words)?, &self.input_ranges);
        }
        let (ps, config) = self.per_sample_config(words)?;
        run(&ps.view, &config, &ps.ranges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ReportKind;
    use sna_dfg::DfgBuilder;

    fn iv(lo: f64, hi: f64) -> Interval {
        Interval::new(lo, hi).unwrap()
    }

    /// A 3-tap symmetric FIR (deduped end coefficients).
    fn fir3() -> (Dfg, Vec<Interval>) {
        let mut b = DfgBuilder::new();
        let x = b.input("x");
        let x1 = b.delay(x);
        let x2 = b.delay(x1);
        let c_end = b.constant(0.25);
        let c_mid = b.constant(0.5);
        let t0 = b.mul(c_end, x);
        let t1 = b.mul(c_mid, x1);
        let t2 = b.mul(c_end, x2);
        let s = b.add(t0, t1);
        let y = b.add(s, t2);
        b.output("y", y);
        (b.build().unwrap(), vec![iv(-1.0, 1.0)])
    }

    #[test]
    fn session_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Session>();
        assert_send_sync::<HistMemo>();
    }

    #[test]
    fn stages_build_once_and_share() {
        let (g, r) = fir3();
        let s = Session::new(g, r).unwrap();
        assert_eq!(s.stats(), SessionStats::default());
        let r1 = s.node_ranges().unwrap();
        let r2 = s.node_ranges().unwrap();
        assert!(Arc::ptr_eq(&r1, &r2));
        let m1 = s.na_model().unwrap();
        let m2 = s.na_model().unwrap();
        assert!(Arc::ptr_eq(&m1, &m2));
        // LTI engines are per call, but all wrap the one gain model.
        let e1 = s.lti_engine(64).unwrap();
        let e2 = s.lti_engine(64).unwrap();
        assert!(std::ptr::eq(e1.model(), e2.model()));
        assert!(std::ptr::eq(e1.model(), m1.as_ref()));
        let stats = s.stats();
        assert_eq!(stats.range_builds, 1);
        assert_eq!(stats.na_builds, 1);
        assert_eq!(stats.lti_builds, 2);
    }

    #[test]
    fn session_analysis_matches_direct_engine_calls() {
        let (g, r) = fir3();
        let s = Session::new(g.clone(), r.clone()).unwrap();
        let req = AnalysisRequest {
            engine: EngineKind::Na,
            words: WlChoice::Uniform(10),
            bins: 64,
            ..AnalysisRequest::default()
        };
        let via_session = s.analyze(&req).unwrap();
        assert_eq!(via_session.engine, EngineKind::Na);
        assert_eq!(via_session.kind, ReportKind::QuantizationNoise);
        let model = NaModel::build(&g, &r, &LtiOptions::default()).unwrap();
        let cfg = WlConfig::from_ranges(&g, &r, 10).unwrap();
        let direct = model.evaluate(&g, &cfg);
        assert_eq!(via_session.reports.len(), direct.len());
        for ((n1, a), (n2, b)) in via_session.reports.iter().zip(&direct) {
            assert_eq!(n1, n2);
            assert_eq!(a.mean.to_bits(), b.mean.to_bits());
            assert_eq!(a.variance.to_bits(), b.variance.to_bits());
        }
    }

    #[test]
    fn prebuilt_na_model_reproduces_the_built_in_na_path_exactly() {
        // The session builds its gain model once and reuses it on every
        // later NA request; each reuse must equal a freshly built model.
        let (g, r) = fir3();
        let cfg = WlConfig::from_ranges(&g, &r, 10).unwrap();
        let fresh = NaModel::build(&g, &r, &LtiOptions::default())
            .unwrap()
            .evaluate(&g, &cfg);
        let s = Session::new(g, r).unwrap();
        let req = AnalysisRequest {
            engine: EngineKind::Na,
            words: WlChoice::Uniform(10),
            ..AnalysisRequest::default()
        };
        for _ in 0..3 {
            let reused = s.analyze(&req).unwrap().reports;
            assert_eq!(fresh.len(), reused.len());
            for ((n1, r1), (n2, r2)) in fresh.iter().zip(&reused) {
                assert_eq!(n1, n2);
                assert_eq!(r1.mean.to_bits(), r2.mean.to_bits());
                assert_eq!(r1.variance.to_bits(), r2.variance.to_bits());
            }
        }
        assert_eq!(s.stats().na_builds, 1);
    }

    #[test]
    fn include_pdf_false_strips_histograms() {
        let (g, r) = fir3();
        let s = Session::new(g, r).unwrap();
        let mut req = AnalysisRequest {
            engine: EngineKind::Lti,
            words: WlChoice::Uniform(10),
            bins: 32,
            ..AnalysisRequest::default()
        };
        let with = s.analyze(&req).unwrap();
        assert!(with.reports[0].1.histogram.is_some());
        req.include_pdf = false;
        let without = s.analyze(&req).unwrap();
        assert!(without.reports[0].1.histogram.is_none());
        // Moments are unaffected.
        assert_eq!(
            with.reports[0].1.variance.to_bits(),
            without.reports[0].1.variance.to_bits()
        );
    }

    #[test]
    fn auto_resolves_by_structure() {
        let (g, r) = fir3();
        let s = Session::new(g, r).unwrap();
        assert_eq!(s.resolve_engine(EngineKind::Auto).unwrap(), EngineKind::Lti);
        assert_eq!(s.resolve_engine(EngineKind::Dfg).unwrap(), EngineKind::Dfg);

        let mut b = DfgBuilder::new();
        let x = b.input("x");
        let y = b.mul(x, x);
        b.output("y", y);
        let s = Session::new(b.build().unwrap(), vec![iv(-1.0, 1.0)]).unwrap();
        assert_eq!(s.resolve_engine(EngineKind::Auto).unwrap(), EngineKind::Dfg);
    }

    /// `fir3` built from scratch with the given end and middle taps.
    fn fir3_with(end: f64, mid: f64) -> Dfg {
        let mut b = DfgBuilder::new();
        let x = b.input("x");
        let x1 = b.delay(x);
        let x2 = b.delay(x1);
        let c_end = b.constant(end);
        let c_mid = b.constant(mid);
        let t0 = b.mul(c_end, x);
        let t1 = b.mul(c_mid, x1);
        let t2 = b.mul(c_end, x2);
        let s = b.add(t0, t1);
        let y = b.add(s, t2);
        b.output("y", y);
        b.build().unwrap()
    }

    #[test]
    fn coefficient_swap_matches_a_cold_session() {
        // A graph respun through `Dfg::with_const_values` analyzes like
        // the same design built from scratch with the new taps.
        let (g, r) = fir3();
        assert_eq!(g.const_values(), vec![0.25, 0.5]);
        let swapped = Session::new(g.with_const_values(&[0.3, 0.45]).unwrap(), r.clone()).unwrap();
        let cold = Session::new(fir3_with(0.3, 0.45), r).unwrap();
        assert!(swapped
            .na_model()
            .unwrap()
            .bit_identical(&cold.na_model().unwrap()));
        let req = AnalysisRequest {
            engine: EngineKind::Na,
            words: WlChoice::Uniform(12),
            bins: 64,
            ..AnalysisRequest::default()
        };
        let a = swapped.analyze(&req).unwrap();
        let b = cold.analyze(&req).unwrap();
        for ((n1, ra), (n2, rb)) in a.reports.iter().zip(&b.reports) {
            assert_eq!(n1, n2);
            assert_eq!(ra.variance.to_bits(), rb.variance.to_bits());
            assert_eq!(ra.mean.to_bits(), rb.mean.to_bits());
        }
    }

    #[test]
    fn additive_constant_swaps_invalidate_no_gains() {
        // y = 0.5·x + c: changing c shifts values but no transfer path
        // coefficient, so every gain stays the same.
        let offset = |c: f64| {
            let mut b = DfgBuilder::new();
            let x = b.input("x");
            let t = b.mul_const(0.5, x);
            let c = b.constant(c);
            let y = b.add(t, c);
            b.output("y", y);
            b.build().unwrap()
        };
        let g = offset(0.25);
        // coefficients in id order: [0.5 (mul), 0.25 (additive)].
        assert_eq!(g.const_values(), vec![0.5, 0.25]);
        let s = Session::new(g.clone(), vec![iv(-1.0, 1.0)]).unwrap();
        let swapped = Session::new(
            g.with_const_values(&[0.5, 0.3]).unwrap(),
            vec![iv(-1.0, 1.0)],
        )
        .unwrap();
        let (donor, model) = (s.na_model().unwrap(), swapped.na_model().unwrap());
        for (id, _) in swapped.dfg().nodes() {
            assert!(donor.gains_from(id) == model.gains_from(id), "node {id:?}");
        }
        // And the reports track the new constant exactly.
        let req = AnalysisRequest {
            engine: EngineKind::Na,
            words: WlChoice::Uniform(6),
            bins: 32,
            ..AnalysisRequest::default()
        };
        let a = swapped.analyze(&req).unwrap();
        let cold = Session::new(offset(0.3), vec![iv(-1.0, 1.0)]).unwrap();
        let b = cold.analyze(&req).unwrap();
        assert_eq!(a.reports[0].1.mean.to_bits(), b.reports[0].1.mean.to_bits());
    }
}
