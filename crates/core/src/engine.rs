//! The unified engine surface: one trait implemented by all six
//! engines, one structured request, one structured report.
//!
//! Historically each engine had a bespoke entry point (`DfgEngine::analyze`
//! takes `(dfg, config, ranges)`, `LtiEngine` wants a two-phase
//! build/analyze, `NaModel` another shape again) and every consumer —
//! the CLI, the server, the optimizer — re-implemented engine selection
//! and artifact plumbing.  This module is the single seam instead:
//!
//! * [`Engine`] — the trait: `run(&Session, &AnalysisRequest)`;
//! * [`AnalysisRequest`] — engine choice (or [`EngineKind::Auto`]), word
//!   lengths ([`WlChoice`]), histogram resolution, per-output options;
//! * [`AnalysisReport`] — per-output [`NoiseReport`]s plus engine
//!   provenance (which engine actually ran after `Auto` resolution) and
//!   wall-clock timing.
//!
//! Engines read every compiled artifact (node ranges, the NA gain model,
//! the per-sample combinational view) from the shared [`Session`], so
//! repeated requests against one compiled program never re-derive them.

use std::cell::RefCell;
use std::collections::HashMap;
use std::time::Duration;

use sna_dfg::RangeOptions;
use sna_fixp::WlConfig;
use sna_interval::Interval;

use crate::{
    Budget, CartesianEngine, DfgEngine, EngineOptions, NoiseReport, Session, SnaError,
    SymbolicEngine, SymbolicOptions, UncertainInput,
};

/// Which analysis engine to run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// Choose automatically: LTI for sequential linear graphs, the DFG
    /// histogram engine otherwise.
    #[default]
    Auto,
    /// Op-by-op histogram propagation ([`crate::DfgEngine`]).
    Dfg,
    /// LTI gains + CLT shaping ([`crate::LtiEngine`]); linear graphs only.
    Lti,
    /// Polynomial propagation ([`crate::SymbolicEngine`]); combinational
    /// only.
    Symbolic,
    /// Classical NA baseline (moments only, no PDF).
    Na,
    /// The paper's Section-4 exact algorithm over the inputs' *value*
    /// uncertainty ([`crate::CartesianEngine`]); characterizes the output
    /// PDF rather than quantization noise.
    Cartesian,
    /// Vectorized Monte-Carlo simulation over the compiled bytecode
    /// program ([`crate::SimulateEngine`]): *empirical* per-output error
    /// statistics rather than a model prediction. Never chosen by
    /// `Auto`.
    Simulate,
}

impl EngineKind {
    /// Parses the `--engine` / `"engine"` selector.
    ///
    /// # Errors
    ///
    /// A usage-style message listing the accepted names.
    pub fn parse(raw: &str) -> Result<Self, String> {
        Ok(match raw {
            "auto" => EngineKind::Auto,
            "na" => EngineKind::Na,
            "dfg" => EngineKind::Dfg,
            "lti" => EngineKind::Lti,
            "symbolic" => EngineKind::Symbolic,
            "cartesian" => EngineKind::Cartesian,
            "simulate" => EngineKind::Simulate,
            other => {
                return Err(format!(
                    "unknown engine `{other}` (expected auto, na, dfg, lti, symbolic, cartesian \
                     or simulate)"
                ))
            }
        })
    }

    /// The selector's wire/CLI name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Auto => "auto",
            EngineKind::Na => "na",
            EngineKind::Dfg => "dfg",
            EngineKind::Lti => "lti",
            EngineKind::Symbolic => "symbolic",
            EngineKind::Cartesian => "cartesian",
            EngineKind::Simulate => "simulate",
        }
    }

    /// The engine implementing this selector — `None` for
    /// [`EngineKind::Auto`], which must be resolved against a session
    /// first (see [`Session::resolve_engine`]).
    #[must_use]
    pub fn engine(self) -> Option<&'static dyn Engine> {
        match self {
            EngineKind::Auto => None,
            EngineKind::Na => Some(&NA),
            EngineKind::Lti => Some(&LTI),
            EngineKind::Dfg => Some(&DFG),
            EngineKind::Symbolic => Some(&SYMBOLIC),
            EngineKind::Cartesian => Some(&CARTESIAN),
            EngineKind::Simulate => Some(&SIMULATE),
        }
    }
}

/// How the word lengths of an analysis are specified.
#[derive(Clone, Debug)]
pub enum WlChoice {
    /// One word length for every node (integer parts still come from
    /// range analysis, exactly like `WlConfig::from_ranges`).
    Uniform(u8),
    /// A per-node word-length vector in node-id order (the optimizer's
    /// parameterization).
    PerNode(Vec<u8>),
    /// A fully explicit configuration. Engines that analyze a *derived*
    /// graph (the per-sample view of a sequential datapath) cannot remap
    /// it and reject sequential graphs under this choice.
    Config(WlConfig),
}

impl WlChoice {
    /// The uniform word length, when that is what was requested.
    #[must_use]
    pub fn uniform_bits(&self) -> Option<u8> {
        match self {
            WlChoice::Uniform(w) => Some(*w),
            _ => None,
        }
    }
}

/// One structured analysis request — the single shape every consumer
/// (CLI, server, library callers) speaks.
#[derive(Clone, Debug)]
pub struct AnalysisRequest {
    /// Which engine to run; [`EngineKind::Auto`] resolves from the
    /// graph's structure (LTI for linear graphs, histograms otherwise).
    pub engine: EngineKind,
    /// Word lengths of the analyzed configuration.
    pub words: WlChoice,
    /// Histogram resolution (the paper's granularity knob).
    pub bins: usize,
    /// Whether reports keep their full PDF (engines that produce one);
    /// with `false` the histograms are dropped from the returned
    /// reports. Moments and bounds are always present.
    pub include_pdf: bool,
    /// Cooperative execution budget: engines check it at cheap loop
    /// checkpoints and fail with [`SnaError::DeadlineExceeded`] /
    /// [`SnaError::Cancelled`] instead of running to completion.
    /// Defaults to unlimited.
    pub budget: Budget,
}

impl Default for AnalysisRequest {
    fn default() -> Self {
        AnalysisRequest {
            engine: EngineKind::Auto,
            words: WlChoice::Uniform(12),
            bins: 64,
            include_pdf: true,
            budget: Budget::unlimited(),
        }
    }
}

/// What a report's numbers mean.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReportKind {
    /// Quantization-noise statistics of the outputs.
    QuantizationNoise,
    /// The value-uncertainty PDF of the outputs (the Cartesian engine).
    ValuePdf,
}

impl ReportKind {
    /// The wire/CLI word for this kind.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            ReportKind::QuantizationNoise => "quantization-noise",
            ReportKind::ValuePdf => "value-pdf",
        }
    }
}

/// One structured analysis result.
#[derive(Clone, Debug)]
pub struct AnalysisReport {
    /// The engine that actually ran (never [`EngineKind::Auto`] — the
    /// provenance of the numbers).
    pub engine: EngineKind,
    /// Whether the numbers are quantization noise or a value PDF.
    pub kind: ReportKind,
    /// Per-output noise reports, in output-declaration order.
    pub reports: Vec<(String, NoiseReport)>,
    /// Wall-clock time the engine spent.
    pub elapsed: Duration,
}

/// The one trait all six engines implement.
///
/// Engines are stateless unit values; everything long-lived (ranges,
/// gain models, views, memos) lives in the [`Session`], so one session
/// can serve any engine — and any sequence of requests — without
/// recompiling.
pub trait Engine: Send + Sync {
    /// The engine's selector.
    fn kind(&self) -> EngineKind;

    /// The engine's wire/CLI name.
    fn name(&self) -> &'static str {
        self.kind().name()
    }

    /// What this engine's reports mean.
    fn report_kind(&self) -> ReportKind {
        ReportKind::QuantizationNoise
    }

    /// Runs the engine against a compiled session.
    ///
    /// # Errors
    ///
    /// Engine-specific failures; see each implementation.
    fn run(
        &self,
        session: &Session,
        req: &AnalysisRequest,
    ) -> Result<Vec<(String, NoiseReport)>, SnaError>;
}

/// Classical NA baseline: moments only, evaluated off the session's
/// cached gain model.
#[derive(Clone, Copy, Debug, Default)]
pub struct NaEngine;

impl Engine for NaEngine {
    fn kind(&self) -> EngineKind {
        EngineKind::Na
    }

    fn run(
        &self,
        session: &Session,
        req: &AnalysisRequest,
    ) -> Result<Vec<(String, NoiseReport)>, SnaError> {
        let model = session.na_model()?;
        let config = session.wl_config(&req.words)?;
        Ok(model.evaluate(session.dfg(), &config))
    }
}

/// LTI gains + CLT shaping, off the session's cached gain model.
#[derive(Clone, Copy, Debug, Default)]
pub struct LtiNoiseEngine;

impl Engine for LtiNoiseEngine {
    fn kind(&self) -> EngineKind {
        EngineKind::Lti
    }

    fn run(
        &self,
        session: &Session,
        req: &AnalysisRequest,
    ) -> Result<Vec<(String, NoiseReport)>, SnaError> {
        let engine = session.lti_engine(req.bins)?;
        let config = session.wl_config(&req.words)?;
        engine.analyze(session.dfg(), &config)
    }
}

/// Op-by-op histogram propagation; sequential graphs are analyzed
/// through the session's cached per-sample combinational view.
#[derive(Clone, Copy, Debug, Default)]
pub struct DfgNoiseEngine;

impl Engine for DfgNoiseEngine {
    fn kind(&self) -> EngineKind {
        EngineKind::Dfg
    }

    fn run(
        &self,
        session: &Session,
        req: &AnalysisRequest,
    ) -> Result<Vec<(String, NoiseReport)>, SnaError> {
        let engine = DfgEngine::new(EngineOptions::default().with_bins(req.bins));
        if session.dfg().is_combinational() {
            let config = session.wl_config(&req.words)?;
            return engine.analyze_budgeted(
                session.dfg(),
                &config,
                session.input_ranges(),
                &req.budget,
            );
        }
        // Per-sample view: delays become state inputs whose ranges come
        // from range analysis of the original graph.
        let (ps, config) = session.per_sample_config(&req.words)?;
        engine.analyze_budgeted(&ps.view, &config, &ps.ranges, &req.budget)
    }
}

/// Polynomial propagation; sequential graphs go through the per-sample
/// view like [`DfgNoiseEngine`].
#[derive(Clone, Copy, Debug, Default)]
pub struct SymbolicNoiseEngine;

impl Engine for SymbolicNoiseEngine {
    fn kind(&self) -> EngineKind {
        EngineKind::Symbolic
    }

    fn run(
        &self,
        session: &Session,
        req: &AnalysisRequest,
    ) -> Result<Vec<(String, NoiseReport)>, SnaError> {
        let engine = SymbolicEngine::new(SymbolicOptions {
            symbol_bins: req.bins,
            out_bins: req.bins * 2,
            ..Default::default()
        });
        if session.dfg().is_combinational() {
            let config = session.wl_config(&req.words)?;
            let res = engine.analyze(session.dfg(), &config, session.input_ranges())?;
            return Ok(res.reports);
        }
        let (ps, config) = session.per_sample_config(&req.words)?;
        Ok(engine.analyze(&ps.view, &config, &ps.ranges)?.reports)
    }
}

/// The paper's Section-4 exact algorithm over the inputs' *value*
/// uncertainty — it characterizes the output PDF rather than
/// quantization noise, and ignores word lengths entirely.
#[derive(Clone, Copy, Debug, Default)]
pub struct CartesianValueEngine;

impl Engine for CartesianValueEngine {
    fn kind(&self) -> EngineKind {
        EngineKind::Cartesian
    }

    fn report_kind(&self) -> ReportKind {
        ReportKind::ValuePdf
    }

    fn run(
        &self,
        session: &Session,
        req: &AnalysisRequest,
    ) -> Result<Vec<(String, NoiseReport)>, SnaError> {
        let dfg = session.dfg();
        let input_ranges = session.input_ranges();
        let bins = req.bins;
        if !dfg.is_combinational() {
            return Err(SnaError::CombinationalOnly {
                engine: "cartesian",
            });
        }
        let inputs: Vec<UncertainInput> = dfg
            .input_names()
            .iter()
            .zip(input_ranges)
            .map(|(name, range)| {
                UncertainInput::uniform(name.clone(), range.lo(), range.hi(), bins).map_err(|e| {
                    SnaError::InvalidInput {
                        name: name.clone(),
                        message: e.to_string(),
                    }
                })
            })
            .collect::<Result<_, _>>()?;
        // Fail early (and only once) if interval evaluation cannot cover
        // the full input box — sub-boxes are subsets, so they inherit
        // success.
        dfg.output_ranges(input_ranges, &RangeOptions::default())?;

        let engine = CartesianEngine::new(bins.max(2) * 2);
        // The engine sweeps every input sub-box once *per analyzed
        // output*, and each interval evaluation computes all outputs at
        // once. Memoize the per-sub-box output vector (bounded) so
        // multi-output datapaths pay for one sweep's worth of interval
        // evaluations, not k.
        const MEMO_CAP: usize = 1 << 20;
        let multi_output = dfg.outputs().len() > 1;
        let memo: RefCell<HashMap<Vec<u64>, Vec<Interval>>> = RefCell::new(HashMap::new());
        let eval_outputs = |ranges: &[Interval]| -> Vec<Interval> {
            let compute = || {
                dfg.output_ranges(ranges, &RangeOptions::default())
                    .expect("sub-box of a checked input box evaluates")
                    .into_iter()
                    .map(|(_, iv)| iv)
                    .collect::<Vec<_>>()
            };
            if !multi_output {
                return compute();
            }
            let key: Vec<u64> = ranges
                .iter()
                .flat_map(|r| [r.lo().to_bits(), r.hi().to_bits()])
                .collect();
            if let Some(cached) = memo.borrow().get(&key) {
                return cached.clone();
            }
            let value = compute();
            let mut memo = memo.borrow_mut();
            if memo.len() < MEMO_CAP {
                memo.insert(key, value.clone());
            }
            value
        };
        dfg.outputs()
            .iter()
            .enumerate()
            .map(|(k, (name, _))| {
                let report = engine.analyze(&inputs, |ranges| eval_outputs(ranges)[k])?;
                Ok((name.clone(), report))
            })
            .collect()
    }
}

/// Vectorized Monte-Carlo simulation over the session's compiled
/// bytecode program: *empirical* per-output error statistics
/// (`quantized − exact` samples), not a model prediction.  The full
/// empirical-vs-predicted comparison lives in
/// [`Session::simulate`](crate::Session::simulate); this engine adapts
/// it to the uniform request/report shape so the CLI, server, and batch
/// paths get simulation through the same seam as every other engine.
#[derive(Clone, Copy, Debug, Default)]
pub struct SimulateEngine;

impl Engine for SimulateEngine {
    fn kind(&self) -> EngineKind {
        EngineKind::Simulate
    }

    fn run(
        &self,
        session: &Session,
        req: &AnalysisRequest,
    ) -> Result<Vec<(String, NoiseReport)>, SnaError> {
        let sim_req = crate::SimRequest {
            words: req.words.clone(),
            bins: req.bins,
            budget: req.budget.clone(),
            ..crate::SimRequest::default()
        };
        let report = session.simulate(&sim_req)?;
        Ok(report
            .outputs
            .into_iter()
            .map(|out| {
                let mut empirical = out.empirical;
                if !req.include_pdf {
                    empirical.histogram = None;
                }
                (out.name, empirical)
            })
            .collect())
    }
}

static NA: NaEngine = NaEngine;
static LTI: LtiNoiseEngine = LtiNoiseEngine;
static DFG: DfgNoiseEngine = DfgNoiseEngine;
static SYMBOLIC: SymbolicNoiseEngine = SymbolicNoiseEngine;
static CARTESIAN: CartesianValueEngine = CartesianValueEngine;
static SIMULATE: SimulateEngine = SimulateEngine;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NaModel;
    use sna_dfg::{Dfg, DfgBuilder};

    fn iv(lo: f64, hi: f64) -> Interval {
        Interval::new(lo, hi).unwrap()
    }

    /// One analysis of `dfg` under an explicit configuration through a
    /// fresh session.
    fn analyze(
        dfg: &Dfg,
        config: &WlConfig,
        ranges: &[Interval],
        engine: EngineKind,
    ) -> Result<Vec<(String, NoiseReport)>, SnaError> {
        let session = Session::new(dfg.clone(), ranges.to_vec())?;
        let req = AnalysisRequest {
            engine,
            words: WlChoice::Config(config.clone()),
            ..AnalysisRequest::default()
        };
        Ok(session.analyze(&req)?.reports)
    }

    fn linear_tree() -> Dfg {
        // A fanout-free tree: every engine's independence assumptions are
        // exact here, so all four must agree.
        let mut b = DfgBuilder::new();
        let x1 = b.input("x1");
        let x2 = b.input("x2");
        let t1 = b.mul_const(0.3, x1);
        let t2 = b.mul_const(0.6, x2);
        let y = b.add(t1, t2);
        b.output("y", y);
        b.build().unwrap()
    }

    #[test]
    fn all_engines_agree_on_moments_for_linear_graphs() {
        let g = linear_tree();
        let ranges = [iv(-1.0, 1.0), iv(-1.0, 1.0)];
        let cfg = WlConfig::from_ranges(&g, &ranges, 10).unwrap();
        let mut variances = Vec::new();
        for kind in [
            EngineKind::Dfg,
            EngineKind::Lti,
            EngineKind::Symbolic,
            EngineKind::Na,
        ] {
            let r = analyze(&g, &cfg, &ranges, kind).unwrap();
            variances.push(r[0].1.variance);
        }
        let reference = variances[3]; // NA is the analytic baseline here
        for (i, v) in variances.iter().enumerate() {
            assert!(
                (v / reference - 1.0).abs() < 0.25,
                "engine {i} variance {v} vs reference {reference}"
            );
        }
    }

    #[test]
    fn auto_prefers_lti_for_sequential_linear() {
        let mut b = DfgBuilder::new();
        let x = b.input("x");
        let fb = b.delay_placeholder();
        let t = b.mul_const(0.5, fb);
        let y = b.add(x, t);
        b.bind_delay(fb, y).unwrap();
        b.output("y", y);
        let g = b.build().unwrap();
        let ranges = [iv(-0.4, 0.4)];
        let cfg = WlConfig::from_ranges(&g, &ranges, 12).unwrap();
        let r = analyze(&g, &cfg, &ranges, EngineKind::Auto).unwrap();
        // PDF attached ⇒ the LTI engine ran (NA would not attach one).
        assert!(r[0].1.histogram.is_some());
    }

    #[test]
    fn auto_falls_back_to_dfg_for_nonlinear_combinational() {
        let mut b = DfgBuilder::new();
        let x = b.input("x");
        let y = b.mul(x, x);
        b.output("y", y);
        let g = b.build().unwrap();
        let ranges = [iv(-1.0, 1.0)];
        let cfg = WlConfig::from_ranges(&g, &ranges, 10).unwrap();
        let r = analyze(&g, &cfg, &ranges, EngineKind::Auto).unwrap();
        assert!(r[0].1.variance > 0.0);
    }

    #[test]
    fn auto_rejects_nonlinear_sequential() {
        let mut b = DfgBuilder::new();
        let x = b.input("x");
        let fb = b.delay_placeholder();
        let sq = b.mul(fb, fb);
        let scaled = b.mul_const(0.1, sq);
        let y = b.add(x, scaled);
        b.bind_delay(fb, y).unwrap();
        b.output("y", y);
        let g = b.build().unwrap();
        let ranges = [iv(-0.5, 0.5)];
        let cfg = WlConfig::from_ranges(&g, &ranges, 12).unwrap();
        assert!(matches!(
            analyze(&g, &cfg, &ranges, EngineKind::Auto),
            Err(SnaError::SequentialGraph)
        ));
    }

    #[test]
    fn engine_types_are_send_and_sync() {
        // The service layer shares compiled graphs and models across a
        // thread pool behind `Arc`s; that is only sound if these stay
        // `Send + Sync`. A compile-time check, phrased as a test.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Dfg>();
        assert_send_sync::<WlConfig>();
        assert_send_sync::<NaModel>();
        assert_send_sync::<NoiseReport>();
        assert_send_sync::<crate::LtiEngine>();
        assert_send_sync::<DfgEngine>();
        assert_send_sync::<SymbolicEngine>();
        assert_send_sync::<CartesianEngine>();
    }

    #[test]
    fn every_concrete_kind_has_an_engine_with_matching_identity() {
        for kind in [
            EngineKind::Na,
            EngineKind::Lti,
            EngineKind::Dfg,
            EngineKind::Symbolic,
            EngineKind::Cartesian,
            EngineKind::Simulate,
        ] {
            let engine = kind.engine().expect("concrete kind");
            assert_eq!(engine.kind(), kind);
            assert_eq!(engine.name(), kind.name());
        }
        assert!(EngineKind::Auto.engine().is_none());
    }

    #[test]
    fn report_kinds_separate_value_pdf_from_noise() {
        assert_eq!(CartesianValueEngine.report_kind(), ReportKind::ValuePdf);
        assert_eq!(NaEngine.report_kind(), ReportKind::QuantizationNoise);
        assert_eq!(ReportKind::ValuePdf.as_str(), "value-pdf");
        assert_eq!(ReportKind::QuantizationNoise.as_str(), "quantization-noise");
    }
}
