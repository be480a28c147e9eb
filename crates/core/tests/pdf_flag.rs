//! What `include_pdf: false` may skip, over every shipped
//! `examples/*.sna` datapath: the engines that can answer without a PDF
//! do so, and every moment they report keeps its bits.
//!
//! * `engine:lti` answers with the NA gain model's `evaluate` and builds
//!   no LTI engine;
//! * the symbolic engine skips its term convolution, keeping the exact
//!   polynomial moments and the interval-hull support;
//! * `Session::simulate` asks for its prediction without a PDF and
//!   reports the same engine and the same predicted moments.

use std::path::PathBuf;

use sna_core::{AnalysisRequest, EngineKind, NoiseReport, Session, SimRequest, WlChoice};

/// Every shipped example, compiled into a fresh session, with the word
/// length it analyzes at (rgb's constant 128 needs more than 8 bits).
fn sessions() -> Vec<(String, u8, Session)> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples");
    let mut out: Vec<(String, u8, Session)> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("read {}: {e}", dir.display()))
        .filter_map(|entry| {
            let path = entry.unwrap().path();
            (path.extension().is_some_and(|e| e == "sna")).then(|| {
                let name = path.file_name().unwrap().to_string_lossy().into_owned();
                let lowered = sna_lang::compile(&std::fs::read_to_string(&path).unwrap())
                    .unwrap_or_else(|d| panic!("{name}: {d:?}"));
                let bits = if name == "rgb.sna" { 12 } else { 8 };
                let session = Session::new(lowered.dfg, lowered.input_ranges).unwrap();
                (name, bits, session)
            })
        })
        .collect();
    out.sort_by(|a, b| a.0.cmp(&b.0));
    assert!(out.len() >= 7, "expected the full example set");
    out
}

fn request(engine: EngineKind, bits: u8, include_pdf: bool) -> AnalysisRequest {
    AnalysisRequest {
        engine,
        words: WlChoice::Uniform(bits),
        bins: 32,
        include_pdf,
        ..AnalysisRequest::default()
    }
}

/// Mean, variance, power and support as bit patterns.
fn moment_bits(r: &NoiseReport) -> [u64; 5] {
    [
        r.mean.to_bits(),
        r.variance.to_bits(),
        r.power.to_bits(),
        r.support.0.to_bits(),
        r.support.1.to_bits(),
    ]
}

#[test]
fn lti_without_pdf_is_the_gain_model_evaluate_and_builds_no_lti_engine() {
    let mut linear = 0;
    for (name, bits, session) in sessions() {
        if !session.dfg().is_linear() {
            continue;
        }
        linear += 1;
        for engine in [EngineKind::Lti, EngineKind::Auto] {
            let report = session.analyze(&request(engine, bits, false)).unwrap();
            assert_eq!(report.engine, EngineKind::Lti, "{name}");
            let config = session.wl_config(&WlChoice::Uniform(bits)).unwrap();
            let direct = session.na_model().unwrap().evaluate(session.dfg(), &config);
            assert_eq!(report.reports.len(), direct.len(), "{name}");
            for ((n1, a), (n2, b)) in report.reports.iter().zip(&direct) {
                assert_eq!(n1, n2);
                assert_eq!(moment_bits(a), moment_bits(b), "{name} {n1}");
                assert!(a.histogram.is_none() && b.histogram.is_none(), "{name}");
            }
        }
        assert_eq!(
            session.stats().lti_builds,
            0,
            "{name}: {:?}",
            session.stats()
        );
        // With a PDF the engine is built, and its moments are the same.
        let with = session
            .analyze(&request(EngineKind::Lti, bits, true))
            .unwrap();
        let without = session
            .analyze(&request(EngineKind::Lti, bits, false))
            .unwrap();
        assert_eq!(session.stats().lti_builds, 1, "{name}");
        for ((_, a), (_, b)) in with.reports.iter().zip(&without.reports) {
            assert_eq!(moment_bits(a), moment_bits(b), "{name}");
        }
    }
    assert!(linear >= 5, "expected the linear examples, got {linear}");
}

#[test]
fn symbolic_without_pdf_keeps_every_moment_and_the_support() {
    for (name, bits, session) in sessions() {
        let with = session
            .analyze(&request(EngineKind::Symbolic, bits, true))
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let without = session
            .analyze(&request(EngineKind::Symbolic, bits, false))
            .unwrap();
        assert_eq!(with.reports.len(), without.reports.len(), "{name}");
        for ((n1, a), (n2, b)) in with.reports.iter().zip(&without.reports) {
            assert_eq!(n1, n2);
            assert_eq!(moment_bits(a), moment_bits(b), "{name} {n1}");
            assert!(b.histogram.is_none(), "{name} {n1}");
        }
    }
}

#[test]
fn simulate_without_pdf_keeps_the_prediction_and_its_moments() {
    for (name, bits, session) in sessions() {
        let run = |include_pdf| {
            session
                .simulate(&SimRequest {
                    words: WlChoice::Uniform(bits),
                    paths: 1024,
                    seed: 11,
                    workers: 1,
                    include_pdf,
                    ..SimRequest::default()
                })
                .unwrap_or_else(|e| panic!("{name}: {e}"))
        };
        let (with, without) = (run(true), run(false));
        assert_eq!(with.predicted_by, without.predicted_by, "{name}");
        for (a, b) in with.outputs.iter().zip(&without.outputs) {
            assert_eq!(
                moment_bits(&a.empirical),
                moment_bits(&b.empirical),
                "{name}"
            );
            match (&a.predicted, &b.predicted) {
                (Some(pa), Some(pb)) => {
                    assert_eq!(moment_bits(pa), moment_bits(pb), "{name}");
                    assert!(pb.histogram.is_none(), "{name}");
                }
                (None, None) => {}
                _ => panic!("{name}: a prediction appeared or vanished"),
            }
        }
    }
}
