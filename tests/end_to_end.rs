//! Cross-crate integration tests: the full SNA pipeline from datapath
//! construction through noise analysis, bit-true validation, synthesis
//! and word-length optimization.

use sna::core::{AnalysisRequest, EngineKind, NoiseReport, Session, WlChoice};
use sna::designs::{fir, rgb_to_ycrcb, Design};
use sna::fixp::{monte_carlo_error, MonteCarloOptions, WlConfig};
use sna::hls::{synthesize, SynthesisConstraints};
use sna::interval::Interval;
use sna::opt::Optimizer;

/// One analysis of `design` under `cfg` through a fresh session.
fn analyze(
    design: &Design,
    cfg: &WlConfig,
    engine: EngineKind,
    bins: usize,
) -> Vec<(String, NoiseReport)> {
    let session = Session::new(design.dfg.clone(), design.input_ranges.clone()).unwrap();
    let req = AnalysisRequest {
        engine,
        words: WlChoice::Config(cfg.clone()),
        bins,
        ..AnalysisRequest::default()
    };
    session.analyze(&req).unwrap().reports
}

/// Every analysis engine's prediction must be consistent with bit-true
/// Monte-Carlo simulation on a real design (the RGB converter).
#[test]
fn sna_prediction_covers_bit_true_simulation_on_rgb() {
    let design = rgb_to_ycrcb();
    let cfg = WlConfig::from_ranges(&design.dfg, &design.input_ranges, 10).unwrap();
    let predicted = analyze(&design, &cfg, EngineKind::Auto, 96);
    let measured = monte_carlo_error(
        &design.dfg,
        &cfg,
        &design.input_ranges,
        &MonteCarloOptions {
            samples: 30_000,
            ..Default::default()
        },
    )
    .unwrap();
    for ((name, p), m) in predicted.iter().zip(measured.iter()) {
        assert_eq!(name, &m.name);
        // Guaranteed bounds enclose every observed error.
        assert!(
            p.support.0 <= m.min && p.support.1 >= m.max,
            "{name}: predicted [{}, {}] vs observed [{}, {}]",
            p.support.0,
            p.support.1,
            m.min,
            m.max
        );
        // Variance agrees within a factor of two.
        let ratio = p.variance / m.variance;
        assert!(ratio > 0.5 && ratio < 2.0, "{name}: variance ratio {ratio}");
    }
}

/// The symbolic engine and the classical NA baseline agree on linear
/// combinational designs (both are exact there).
#[test]
fn symbolic_and_na_agree_on_rgb() {
    let design = rgb_to_ycrcb();
    let cfg = WlConfig::from_ranges(&design.dfg, &design.input_ranges, 12).unwrap();
    let symbolic = analyze(&design, &cfg, EngineKind::Symbolic, 32);
    let na = analyze(&design, &cfg, EngineKind::Na, 64);
    for ((n1, s), (n2, a)) in symbolic.iter().zip(na.iter()) {
        assert_eq!(n1, n2);
        let ratio = s.variance / a.variance;
        assert!(
            (0.8..1.25).contains(&ratio),
            "{n1}: symbolic {} vs NA {}",
            s.variance,
            a.variance
        );
    }
}

/// All four paper designs run the full pipeline: range analysis, noise
/// model, synthesis, and a (cheap) optimization round.
#[test]
fn paper_suite_full_pipeline() {
    for design in Design::paper_suite() {
        let cfg = WlConfig::from_ranges(&design.dfg, &design.input_ranges, 12)
            .unwrap_or_else(|e| panic!("{}: {e}", design.name));
        let imp = synthesize(&design.dfg, &cfg, &SynthesisConstraints::default())
            .unwrap_or_else(|e| panic!("{}: {e}", design.name));
        assert!(imp.cost.area_um2 > 0.0);
        let opt = Optimizer::new(
            &design.dfg,
            &design.input_ranges,
            SynthesisConstraints::default(),
        )
        .unwrap_or_else(|e| panic!("{}: {e}", design.name));
        let fixed = opt.uniform(10).unwrap();
        assert!(fixed.noise_power > 0.0, "{}", design.name);
    }
}

/// Noise power scales as ~2^-2W on every paper design (the paper's
/// tables show ×≈1/256 per 8 bits).
#[test]
fn noise_scales_with_wordlength_on_the_suite() {
    for design in Design::paper_suite() {
        let opt = Optimizer::new(
            &design.dfg,
            &design.input_ranges,
            SynthesisConstraints::default(),
        )
        .unwrap();
        let n8 = opt.uniform(8).unwrap().noise_power;
        let n16 = opt.uniform(16).unwrap().noise_power;
        let factor = n8 / n16;
        assert!(
            factor > 1.0e3 && factor < 1.0e7,
            "{}: noise factor over 8 bits = {factor:.3e}",
            design.name
        );
    }
}

/// Optimization under the uniform design's noise budget never increases
/// the weighted cost, for each design and reference word length.
#[test]
fn optimization_never_regresses_weighted_cost() {
    let design = fir(9);
    let opt = Optimizer::new(
        &design.dfg,
        &design.input_ranges,
        SynthesisConstraints::default(),
    )
    .unwrap();
    for w in [8u8, 12] {
        let fixed = opt.uniform(w).unwrap();
        let tuned = opt.greedy(fixed.noise_power, w + 6).unwrap();
        assert!(tuned.noise_power <= fixed.noise_power * (1.0 + 1e-12));
        assert!(
            tuned.weighted_cost <= fixed.weighted_cost * (1.0 + 1e-12),
            "W={w}: {} vs {}",
            tuned.weighted_cost,
            fixed.weighted_cost
        );
    }
}

/// The classic IA-vs-AA-vs-SNA story end-to-end through the facade crate.
#[test]
fn quadratic_story_through_facade() {
    use sna::core::{CartesianEngine, UncertainInput};

    let x = Interval::new(-1.0, 1.0).unwrap();
    let a = Interval::new(9.0, 10.0).unwrap();
    let b = Interval::new(-6.0, -4.0).unwrap();
    let c = Interval::new(6.0, 7.0).unwrap();
    let ia = a * x.sqr() + b * x + c;
    assert_eq!(ia, Interval::new(0.0, 23.0).unwrap());

    let inputs = vec![
        UncertainInput::uniform("x", -1.0, 1.0, 16).unwrap(),
        UncertainInput::uniform("a", 9.0, 10.0, 16).unwrap(),
        UncertainInput::uniform("b", -6.0, -4.0, 16).unwrap(),
        UncertainInput::uniform("c", 6.0, 7.0, 16).unwrap(),
    ];
    let report = CartesianEngine::new(128)
        .analyze(
            &inputs,
            |v| v[1] * v[0].sqr() + v[2] * v[0] + v[3],
            &sna::core::Budget::unlimited(),
        )
        .unwrap();
    // SNA is strictly tighter than AA ([-10, 23]) and encloses [5, 23].
    assert!(report.support.0 > -10.0 && report.support.0 <= 5.0);
    assert!(report.support.1 >= 23.0 - 1e-9 && report.support.1 < 23.5);
    // And it produces a PDF, which IA/AA cannot.
    assert!(report.histogram.is_some());
}

/// Sequential designs: the LTI engine's bounds hold against long bit-true
/// simulations of Design I.
#[test]
fn design1_bounds_hold_in_simulation() {
    let design = sna::designs::diff_eq18();
    let cfg = WlConfig::from_ranges(&design.dfg, &design.input_ranges, 14).unwrap();
    let predicted = analyze(&design, &cfg, EngineKind::Lti, 64);
    let measured = monte_carlo_error(
        &design.dfg,
        &cfg,
        &design.input_ranges,
        &MonteCarloOptions {
            samples: 8_000,
            steps: 200,
            warmup: 60,
            ..Default::default()
        },
    )
    .unwrap();
    let p = &predicted[0].1;
    let m = &measured[0];
    assert!(
        p.support.0 <= m.min && p.support.1 >= m.max,
        "bounds [{}, {}] vs observed [{}, {}]",
        p.support.0,
        p.support.1,
        m.min,
        m.max
    );
    let ratio = p.variance / m.variance;
    assert!(ratio > 0.5 && ratio < 3.0, "variance ratio {ratio}");
}
