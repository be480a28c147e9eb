//! The unified analysis surface: one structured request, one structured
//! report, and the engine selector that [`Session::analyze`](crate::Session::analyze) dispatches
//! on.
//!
//! Each engine keeps its own entry point (`DfgEngine::analyze` takes
//! `(dfg, config, ranges, budget)`, `LtiEngine` wraps a gain model, the
//! NA baseline is a `NaModel`), but no consumer — the CLI, the server,
//! the optimizer — calls them to answer a request. They all go through
//! [`Session::analyze`](crate::Session::analyze), which speaks:
//!
//! * [`AnalysisRequest`] — engine choice (or [`EngineKind::Auto`]), word
//!   lengths ([`WlChoice`]), histogram resolution, per-output options
//!   and the cooperative [`Budget`];
//! * [`AnalysisReport`] — per-output [`NoiseReport`]s plus engine
//!   provenance (which engine actually ran after `Auto` resolution) and
//!   wall-clock timing.
//!
//! The dispatch is one `match` on the resolved [`EngineKind`]. Every
//! arm reads the compiled artifacts (node ranges, the NA gain model, the
//! per-sample combinational view) from the shared [`Session`](crate::Session), so
//! repeated requests against one compiled program never re-derive them,
//! and every arm hands the request's budget to its engine.

use std::time::Duration;

use sna_fixp::WlConfig;

use crate::{Budget, NoiseReport};

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
    /// program ([`crate::Session::simulate`]): *empirical* per-output error
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
    /// checkpoints and fail with [`crate::SnaError::DeadlineExceeded`] /
    /// [`crate::SnaError::Cancelled`] instead of running to completion.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CartesianEngine, DfgEngine, NaModel, Session, SnaError, SymbolicEngine};
    use sna_dfg::{Dfg, DfgBuilder};
    use sna_interval::Interval;

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

    /// The six concrete kinds; `linear_tree` is linear and combinational,
    /// so every one of them applies to it.
    const CONCRETE: [EngineKind; 6] = [
        EngineKind::Na,
        EngineKind::Lti,
        EngineKind::Dfg,
        EngineKind::Symbolic,
        EngineKind::Cartesian,
        EngineKind::Simulate,
    ];

    fn analyze_uniform(session: &Session, kind: EngineKind) -> AnalysisReport {
        session
            .analyze(&AnalysisRequest {
                engine: kind,
                words: WlChoice::Uniform(10),
                ..AnalysisRequest::default()
            })
            .unwrap()
    }

    #[test]
    fn every_concrete_kind_has_an_engine_with_matching_identity() {
        let session = Session::new(linear_tree(), vec![iv(-1.0, 1.0), iv(-1.0, 1.0)]).unwrap();
        for kind in CONCRETE {
            let report = analyze_uniform(&session, kind);
            assert_eq!(report.engine, kind);
            assert_eq!(report.engine.name(), kind.name());
            assert_eq!(report.reports[0].0, "y");
        }
        // `Auto` is not an engine of its own: it resolves to a concrete one.
        let auto = analyze_uniform(&session, EngineKind::Auto);
        assert!(CONCRETE.contains(&auto.engine), "{:?}", auto.engine);
        for kind in CONCRETE.into_iter().chain([EngineKind::Auto]) {
            assert_eq!(EngineKind::parse(kind.name()), Ok(kind));
        }
    }

    #[test]
    fn report_kinds_separate_value_pdf_from_noise() {
        let session = Session::new(linear_tree(), vec![iv(-1.0, 1.0), iv(-1.0, 1.0)]).unwrap();
        for kind in CONCRETE {
            let expected = if kind == EngineKind::Cartesian {
                ReportKind::ValuePdf
            } else {
                ReportKind::QuantizationNoise
            };
            assert_eq!(
                analyze_uniform(&session, kind).kind,
                expected,
                "{}",
                kind.name()
            );
        }
        assert_eq!(ReportKind::ValuePdf.as_str(), "value-pdf");
        assert_eq!(ReportKind::QuantizationNoise.as_str(), "quantization-noise");
    }
}
