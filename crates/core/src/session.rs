//! The [`Session`]: one compiled program, its whole artifact chain, and
//! "same shape, new constants" re-spins.
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
//! [`Session::adopt_graph`] serves a "same shape, new constants" update
//! — the inner loop of design-space exploration: it takes a graph that
//! differs only in constant values (a fresh lowering whose shape key
//! matched, or [`Session::with_coefficients`]' swapped clone) and shares
//! the shape-only VM program; ranges and the NA gain model build cold,
//! exactly as for a new session: a cold build costs about what a
//! cone-limited patch of them would, and is exact by construction.
//! Stage-build counters ([`Session::stats`]) make every build
//! observable and testable.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use sna_dfg::{Dfg, DfgError, LtiOptions, Op, RangeOptions};
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

/// Stage-build counters, shared across a session and every
/// coefficient-swapped descendant (so tests can count the builds a
/// family of sessions ran).
#[derive(Debug, Default)]
struct Counters {
    range_builds: AtomicU64,
    na_builds: AtomicU64,
    view_builds: AtomicU64,
    lti_builds: AtomicU64,
    vm_compiles: AtomicU64,
}

/// A snapshot of a session family's stage-build counters.
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
    /// VM bytecode programs compiled (shape-level: shared across
    /// coefficient swaps).
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
    dfg: Arc<Dfg>,
    input_ranges: Arc<Vec<Interval>>,
    counters: Arc<Counters>,
    ranges: OnceLock<Result<Arc<Vec<Interval>>, SnaError>>,
    na: OnceLock<Result<Arc<NaModel>, SnaError>>,
    per_sample: OnceLock<Result<Arc<PerSample>, SnaError>>,
    hist_memo: Arc<HistMemo>,
    /// The lowered bytecode program (see `sna_vm`). Shape-only — no
    /// constant values or quantizers baked in — so coefficient swaps
    /// share it.
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
            dfg: Arc::new(dfg),
            input_ranges: Arc::new(input_ranges),
            counters: Arc::new(Counters::default()),
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

    /// The graph's coefficient vector: every `Const` value in
    /// [`Dfg::const_nodes`] order — the argument shape
    /// [`Session::with_coefficients`] expects back.
    #[must_use]
    pub fn coefficients(&self) -> Vec<f64> {
        self.dfg.const_values()
    }

    /// The session-owned concurrent histogram memo, shared with every
    /// evaluator derived from this session (see
    /// [`HistMemo`]).
    #[must_use]
    pub fn hist_memo(&self) -> &Arc<HistMemo> {
        &self.hist_memo
    }

    /// A snapshot of the stage-build counters of this session *family*
    /// (counters are shared with coefficient-swapped descendants).
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

    /// The NA gain model, built once (per coefficient set) and shared.
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
                let mut ranges = (*self.input_ranges).clone();
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
    /// once and shared (including across [`Session::with_coefficients`]
    /// descendants — the program stores node ids, not values, so a
    /// coefficient swap cannot invalidate it).
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

    // ------------------------------------------------------------------
    // Coefficient swaps
    // ------------------------------------------------------------------

    /// A new session for "the same shape with these constants".
    ///
    /// `coeffs` replaces the graph's `Const` values in
    /// [`Dfg::const_nodes`] order (compare [`Session::coefficients`]);
    /// the swapped graph is then adopted as in
    /// [`Session::adopt_graph`].
    ///
    /// # Errors
    ///
    /// [`SnaError::WrongCoefficientCount`] for a mis-sized vector.
    pub fn with_coefficients(&self, coeffs: &[f64]) -> Result<Session, SnaError> {
        let dfg = self.dfg.with_const_values(coeffs).map_err(|e| match e {
            DfgError::WrongInputCount { expected, got } => {
                SnaError::WrongCoefficientCount { expected, got }
            }
            other => SnaError::Dfg(other),
        })?;
        Ok(self.adopt_graph(dfg))
    }

    /// A new session over `dfg`, a graph of this session's shape: it
    /// differs from [`Session::dfg`] at most in `Const` values, as two
    /// lowerings with equal shape keys do. Lowering never reruns, and
    /// the shape-only VM program and the input ranges are shared. Every
    /// value-dependent stage (ranges, the NA gain model, the per-sample
    /// view, the histogram memo) starts unbuilt and builds cold on first
    /// use, exactly as in [`Session::new`]. A graph with bit-identical
    /// constants shares every built stage instead.
    ///
    /// The returned session shares this session's stage counters, so
    /// [`Session::stats`] counts the builds of the whole family.
    #[must_use]
    pub fn adopt_graph(&self, dfg: Dfg) -> Session {
        debug_assert_eq!(
            dfg.shape_signature(),
            self.dfg.shape_signature(),
            "adopt_graph needs a graph of the same shape"
        );
        let same_constants = self
            .dfg
            .nodes()
            .zip(dfg.nodes())
            .all(|((_, old), (_, new))| match (old.op(), new.op()) {
                (Op::Const(o), Op::Const(n)) => o.to_bits() == n.to_bits(),
                _ => true,
            });
        if same_constants {
            return self.shallow_clone();
        }
        Session {
            dfg: Arc::new(dfg),
            input_ranges: Arc::clone(&self.input_ranges),
            counters: Arc::clone(&self.counters),
            ranges: OnceLock::new(),
            na: OnceLock::new(),
            per_sample: OnceLock::new(),
            hist_memo: Arc::new(HistMemo::new()),
            vm: self.vm.clone(),
        }
    }

    /// A new handle onto the same compiled state (all stages shared).
    fn shallow_clone(&self) -> Session {
        Session {
            dfg: Arc::clone(&self.dfg),
            input_ranges: Arc::clone(&self.input_ranges),
            counters: Arc::clone(&self.counters),
            ranges: self.ranges.clone(),
            na: self.na.clone(),
            per_sample: self.per_sample.clone(),
            hist_memo: Arc::clone(&self.hist_memo),
            vm: self.vm.clone(),
        }
    }

    // ------------------------------------------------------------------
    // Artifact-store serialization
    // ------------------------------------------------------------------

    /// Encodes the session's compiled skeleton for the persistent
    /// artifact store: the graph, its input ranges, and every *built*
    /// artifact stage — node ranges, the NA gain model, and the VM
    /// bytecode. Stages that are unbuilt (or failed) are simply
    /// omitted; an imported session rebuilds them lazily like a cold
    /// one.
    ///
    /// All floats travel as exact bit patterns: an imported session
    /// answers every request **bit-identically** to the exported one.
    #[must_use]
    pub fn export_wire(&self) -> Vec<u8> {
        let mut w = sna_store::WireWriter::new();
        w.bytes(&self.dfg.to_wire());
        w.len(self.input_ranges.len());
        for r in self.input_ranges.iter() {
            w.f64(r.lo());
            w.f64(r.hi());
        }
        match self.ranges.get() {
            Some(Ok(ranges)) => {
                w.u8(1);
                w.len(ranges.len());
                for r in ranges.iter() {
                    w.f64(r.lo());
                    w.f64(r.hi());
                }
            }
            _ => w.u8(0),
        }
        match self.na.get() {
            Some(Ok(model)) => {
                w.u8(NA_STAGE_TAG);
                w.bytes(&model.to_wire());
            }
            _ => w.u8(0),
        }
        match self.vm.get() {
            Some(program) => {
                w.u8(1);
                w.bytes(&program.to_wire());
            }
            None => w.u8(0),
        }
        w.finish()
    }

    /// Decodes a skeleton written by [`Session::export_wire`],
    /// **pre-seeding** the stored stages so that later requests rebuild
    /// nothing: the stage-build counters ([`Session::stats`]) of an
    /// imported session stay at zero for every stage the export
    /// carried.
    ///
    /// # Errors
    ///
    /// `sna_store::WireError` on any malformed, truncated or
    /// inconsistent input (stage shapes are validated against the
    /// decoded graph) — never panics, so a corrupt store object always
    /// degrades to a clean recompile in the caller.
    pub fn import_wire(bytes: &[u8]) -> Result<Session, sna_store::WireError> {
        use sna_store::{WireError, WireReader};
        let mut r = WireReader::new(bytes);
        let dfg = Dfg::from_wire(&r.bytes()?)?;
        let n_inputs = r.read_count(16)?;
        if n_inputs != dfg.n_inputs() {
            return Err(WireError::new("input range count mismatch"));
        }
        let mut input_ranges = Vec::with_capacity(n_inputs);
        for _ in 0..n_inputs {
            let (lo, hi) = (r.f64()?, r.f64()?);
            input_ranges.push(
                Interval::new(lo, hi).map_err(|e| WireError::new(format!("input range: {e}")))?,
            );
        }

        let node_ranges = match r.u8()? {
            0 => None,
            // Older stores wrote tag 2 for ranges from the LTI fallback;
            // only the values matter.
            1 | 2 => {
                let n = r.read_count(16)?;
                if n != dfg.len() {
                    return Err(WireError::new("node range count mismatch"));
                }
                let mut ranges = Vec::with_capacity(n);
                for _ in 0..n {
                    let (lo, hi) = (r.f64()?, r.f64()?);
                    ranges.push(
                        Interval::new(lo, hi)
                            .map_err(|e| WireError::new(format!("node range: {e}")))?,
                    );
                }
                Some(ranges)
            }
            t => return Err(WireError::new(format!("bad range stage tag {t}"))),
        };
        let na_model = match r.u8()? {
            0 => None,
            NA_STAGE_TAG => Some(NaModel::from_wire(
                &r.bytes()?,
                dfg.len(),
                dfg.outputs().len(),
            )?),
            // Tag 1 is the retired layout that also stored response
            // sequences: schema damage, so the caller recompiles.
            t => return Err(WireError::new(format!("bad model tag {t}"))),
        };
        let vm_program = match r.u8()? {
            0 => None,
            1 => {
                let program = sna_vm::Program::from_wire(&r.bytes()?)?;
                if program.n_inputs() != dfg.n_inputs() {
                    return Err(WireError::new("program input count mismatch"));
                }
                Some(program)
            }
            t => return Err(WireError::new(format!("bad program tag {t}"))),
        };
        r.expect_end()?;

        let session = Session::new(dfg, input_ranges)
            .map_err(|e| WireError::new(format!("invalid session: {e}")))?;
        if let Some(ranges) = node_ranges {
            let _ = session.ranges.set(Ok(Arc::new(ranges)));
        }
        if let Some(model) = na_model {
            let _ = session.na.set(Ok(Arc::new(model)));
        }
        if let Some(program) = vm_program {
            let _ = session.vm.set(Arc::new(program));
        }
        Ok(session)
    }
}

/// The export tag of a built NA stage in the current [`NaModel::to_wire`]
/// layout.
const NA_STAGE_TAG: u8 = 2;

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

    #[test]
    fn with_coefficients_skips_lowering_and_builds_value_stages_cold() {
        let (g, r) = fir3();
        let s = Session::new(g.clone(), r.clone()).unwrap();
        // Build the chain cold.
        s.na_model().unwrap();
        let _ = s.vm_program();
        let before = s.stats();
        assert_eq!(
            (before.range_builds, before.na_builds, before.vm_compiles),
            (1, 1, 1)
        );

        // Swap one coefficient (the middle tap).
        let mut coeffs = s.coefficients();
        assert_eq!(coeffs, vec![0.25, 0.5]);
        coeffs[1] = 0.4;
        let swapped = s.with_coefficients(&coeffs).unwrap();
        assert_eq!(swapped.coefficients(), vec![0.25, 0.4]);

        // The shape-only VM program rides along; the value-dependent
        // stages start unbuilt and build once, cold, on first use.
        assert!(swapped.vm_program_built());
        assert!(!swapped.na_model_built());
        let model = swapped.na_model().unwrap();
        let after = swapped.stats();
        assert_eq!(
            (after.range_builds, after.na_builds, after.vm_compiles),
            (2, 2, 1),
            "{after:?}"
        );
        assert_eq!(
            (after.gains_rebuilt, after.gains_derived, after.gains_reused),
            (0, 0, 0),
            "{after:?}"
        );

        // Both stages equal a cold session's bit for bit.
        let cold = Session::new(g.with_const_values(&coeffs).unwrap(), r).unwrap();
        let (a, b) = (swapped.node_ranges().unwrap(), cold.node_ranges().unwrap());
        for (ra, rb) in a.iter().zip(b.iter()) {
            assert_eq!(ra.lo().to_bits(), rb.lo().to_bits());
            assert_eq!(ra.hi().to_bits(), rb.hi().to_bits());
        }
        assert!(model.to_wire() == cold.na_model().unwrap().to_wire());
    }

    #[test]
    fn coefficient_swap_matches_a_cold_session() {
        let (g, r) = fir3();
        let s = Session::new(g.clone(), r.clone()).unwrap();
        s.na_model().unwrap();
        let mut coeffs = s.coefficients();
        coeffs[0] = 0.3;
        coeffs[1] = 0.45;
        let swapped = s.with_coefficients(&coeffs).unwrap();

        let cold = Session::new(g.with_const_values(&coeffs).unwrap(), r).unwrap();
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
    fn identical_coefficients_share_everything() {
        let (g, r) = fir3();
        let s = Session::new(g, r).unwrap();
        s.na_model().unwrap();
        let same = s.with_coefficients(&s.coefficients()).unwrap();
        assert!(Arc::ptr_eq(&s.dfg, &same.dfg));
        assert!(Arc::ptr_eq(s.hist_memo(), same.hist_memo()));
        let (m1, m2) = (s.na_model().unwrap(), same.na_model().unwrap());
        assert!(Arc::ptr_eq(&m1, &m2));
        assert_eq!(s.stats().na_builds, 1);
    }

    #[test]
    fn adopting_a_same_shape_graph_keeps_it_and_shares_the_vm_program() {
        let (g, r) = fir3();
        let s = Session::new(g.clone(), r.clone()).unwrap();
        s.na_model().unwrap();
        let program = s.vm_program();

        // A separately built graph of the same shape (as a fresh
        // lowering of a re-spun program would be) is adopted as is.
        let respun = g.with_const_values(&[0.3, 0.45]).unwrap();
        let adopted = s.adopt_graph(respun);
        assert_eq!(adopted.coefficients(), vec![0.3, 0.45]);
        assert!(Arc::ptr_eq(&program, &adopted.vm_program()));
        assert!(Arc::ptr_eq(&s.input_ranges, &adopted.input_ranges));
        assert!(!adopted.na_model_built());
        let cold = Session::new(g.with_const_values(&[0.3, 0.45]).unwrap(), r).unwrap();
        let model = adopted.na_model().unwrap();
        assert!(model.to_wire() == cold.na_model().unwrap().to_wire());
        // Counters are the family's: two NA builds, one VM compile.
        let stats = s.stats();
        assert_eq!((stats.na_builds, stats.vm_compiles), (2, 1), "{stats:?}");

        // Bit-identical constants share every built stage.
        let same = s.adopt_graph(g);
        assert!(Arc::ptr_eq(&s.dfg, &same.dfg));
        assert!(Arc::ptr_eq(
            &s.na_model().unwrap(),
            &same.na_model().unwrap()
        ));
    }

    #[test]
    fn wrong_coefficient_count_is_reported() {
        let (g, r) = fir3();
        let s = Session::new(g, r).unwrap();
        assert!(matches!(
            s.with_coefficients(&[0.1]),
            Err(SnaError::WrongCoefficientCount {
                expected: 2,
                got: 1
            })
        ));
    }

    #[test]
    fn additive_constant_swaps_invalidate_no_gains() {
        // y = 0.5·x + c: changing c shifts values but no transfer path
        // coefficient, so every gain is reusable.
        let mut b = DfgBuilder::new();
        let x = b.input("x");
        let t = b.mul_const(0.5, x);
        let c = b.constant(0.25);
        let y = b.add(t, c);
        b.output("y", y);
        let g = b.build().unwrap();
        let s = Session::new(g, vec![iv(-1.0, 1.0)]).unwrap();
        s.na_model().unwrap();
        let mut coeffs = s.coefficients();
        // coefficients in id order: [0.5 (mul), 0.25 (additive)].
        coeffs[1] = 0.3;
        let swapped = s.with_coefficients(&coeffs).unwrap();
        // The swapped model is built cold, and every gain equals the
        // donor's bit for bit.
        let (donor, model) = (s.na_model().unwrap(), swapped.na_model().unwrap());
        for (id, _) in swapped.dfg().nodes() {
            assert!(donor.gains_from(id) == model.gains_from(id), "node {id:?}");
        }
        assert_eq!(swapped.stats().na_builds, 2);
        // And the reports still track the new constant exactly.
        let req = AnalysisRequest {
            engine: EngineKind::Na,
            words: WlChoice::Uniform(6),
            bins: 32,
            ..AnalysisRequest::default()
        };
        let a = swapped.analyze(&req).unwrap();
        let cold = Session::new(swapped.dfg().clone(), swapped.input_ranges().to_vec()).unwrap();
        let b = cold.analyze(&req).unwrap();
        assert_eq!(a.reports[0].1.mean.to_bits(), b.reports[0].1.mean.to_bits());
    }

    #[test]
    fn export_import_round_trip_rebuilds_nothing() {
        let (g, r) = fir3();
        let s = Session::new(g, r).unwrap();
        let req = AnalysisRequest {
            engine: EngineKind::Na,
            words: WlChoice::Uniform(10),
            bins: 64,
            ..AnalysisRequest::default()
        };
        let cold = s.analyze(&req).unwrap();
        let _ = s.vm_program(); // force the bytecode stage too
        let bytes = s.export_wire();

        let warm = Session::import_wire(&bytes).unwrap();
        let again = warm.analyze(&req).unwrap();
        let stats = warm.stats();
        assert_eq!(stats.range_builds, 0, "{stats:?}");
        assert_eq!(stats.na_builds, 0, "{stats:?}");
        assert_eq!(stats.vm_compiles, 0, "{stats:?}");
        assert!(warm.vm_program_built());
        for ((n1, r1), (n2, r2)) in cold.reports.iter().zip(again.reports.iter()) {
            assert_eq!(n1, n2);
            assert_eq!(r1.mean.to_bits(), r2.mean.to_bits());
            assert_eq!(r1.variance.to_bits(), r2.variance.to_bits());
        }
        // The export is a fixpoint: re-export is byte-identical.
        assert_eq!(warm.export_wire(), bytes);
    }

    #[test]
    fn export_of_unbuilt_session_imports_as_cold() {
        let (g, r) = fir3();
        let s = Session::new(g, r).unwrap();
        let warm = Session::import_wire(&s.export_wire()).unwrap();
        assert!(!warm.vm_program_built());
        // Stages still build lazily, exactly like a cold session.
        warm.na_model().unwrap();
        assert_eq!(warm.stats().na_builds, 1);
    }

    #[test]
    fn tag2_range_stages_from_older_stores_import_as_plain_ranges() {
        // A resonator whose interval fixpoint diverges, so its ranges
        // come from the LTI fallback: the case older stores tagged 2.
        let mut b = DfgBuilder::new();
        let x = b.input("x");
        let y1 = b.delay_placeholder();
        let y2 = b.delay(y1);
        let t1 = b.mul_const(1.5, y1);
        let t2 = b.mul_const(-0.7, y2);
        let s = b.add(x, t1);
        let y = b.add(s, t2);
        b.bind_delay(y1, y).unwrap();
        b.output("y", y);
        let g = b.build().unwrap();
        let r = vec![iv(-1.0, 1.0)];
        assert!(matches!(
            g.ranges_interval(&r, &RangeOptions::default()),
            Err(DfgError::RangeDivergence { .. })
        ));
        let cold = Session::new(g.clone(), r.clone()).unwrap();
        let ranges = cold.node_ranges().unwrap();

        let mut w = sna_store::WireWriter::new();
        w.bytes(&g.to_wire());
        w.len(r.len());
        for v in &r {
            w.f64(v.lo());
            w.f64(v.hi());
        }
        w.u8(2);
        w.len(ranges.len());
        for v in ranges.iter() {
            w.f64(v.lo());
            w.f64(v.hi());
        }
        w.u8(0);
        w.u8(0);
        let warm = Session::import_wire(&w.finish()).unwrap();

        let req = AnalysisRequest {
            engine: EngineKind::Na,
            words: WlChoice::Uniform(12),
            ..AnalysisRequest::default()
        };
        let (a, b) = (warm.analyze(&req).unwrap(), cold.analyze(&req).unwrap());
        for ((n1, ra), (n2, rb)) in a.reports.iter().zip(&b.reports) {
            assert_eq!(n1, n2);
            assert_eq!(ra.mean.to_bits(), rb.mean.to_bits());
            assert_eq!(ra.variance.to_bits(), rb.variance.to_bits());
        }
        assert_eq!(warm.stats().range_builds, 0);
        // A re-export writes the one current tag, as the cold session does.
        assert_eq!(warm.export_wire(), cold.export_wire());
    }

    #[test]
    fn import_rejects_damage_without_panicking() {
        let (g, r) = fir3();
        let s = Session::new(g, r).unwrap();
        s.na_model().unwrap();
        let _ = s.vm_program();
        let good = s.export_wire();
        for cut in 0..good.len() {
            assert!(Session::import_wire(&good[..cut]).is_err(), "cut at {cut}");
        }
        for i in 0..good.len() {
            let mut bad = good.clone();
            bad[i] ^= 0x5A;
            let _ = Session::import_wire(&bad); // may err, must not panic
        }
    }

    #[test]
    fn import_rejects_cross_graph_stage_shapes() {
        // Splice the range stage of a smaller graph into a bigger one's
        // export: the node-count check must catch it.
        let (g, r) = fir3();
        let s = Session::new(g, r).unwrap();
        s.node_ranges().unwrap();
        let mut w = sna_store::WireWriter::new();
        w.bytes(&s.dfg().to_wire());
        w.len(1);
        w.f64(-1.0);
        w.f64(1.0);
        w.u8(1); // claims an interval range stage...
        w.len(2); // ...with the wrong node count
        for _ in 0..2 {
            w.f64(0.0);
            w.f64(1.0);
        }
        w.u8(0);
        w.u8(0);
        assert!(Session::import_wire(&w.finish()).is_err());
    }
}
