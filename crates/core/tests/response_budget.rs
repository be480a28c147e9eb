//! Regression coverage for large models and for the execution budget.
//!
//! * A coefficient swap of a model with many (source × output) pairs
//!   through `Dfg::with_const_values` ends up bit-identical to a
//!   from-scratch compile.
//! * The cooperative execution [`Budget`]: every histogram engine's one
//!   entry point stops at its own checkpoints. The engines are called
//!   directly, so `Session::analyze`'s pre-flight check cannot be what
//!   stops them.

use std::time::Duration;

use sna_core::{
    AnalysisRequest, Budget, CartesianEngine, DfgEngine, EngineKind, EngineOptions, LtiEngine,
    Session, SnaError, SymbolicEngine, UncertainInput, WlChoice,
};
use sna_dfg::{DfgBuilder, LtiOptions};
use sna_fixp::WlConfig;
use sna_interval::Interval;

/// A tapped delay line with many (source × output) pairs: a 160-deep
/// chain feeding 32 outputs, output `k` scaled by `coeffs[k]`.
fn oversized(coeffs: &[f64]) -> (sna_dfg::Dfg, Vec<Interval>) {
    let mut b = DfgBuilder::new();
    let x = b.input("x");
    let taps = b.delay_chain(x, 160);
    for (k, &coeff) in coeffs.iter().enumerate() {
        let c = b.constant(coeff);
        let m = b.mul(c, taps[5 * k + 4]);
        b.output(format!("o{k}"), m);
    }
    (b.build().unwrap(), vec![Interval::new(-1.0, 1.0).unwrap()])
}

#[test]
fn large_model_patch_matches_a_from_scratch_compile() {
    let mut coeffs: Vec<f64> = (0..32).map(|k| 0.015625 + k as f64 * 0.001953125).collect();
    let (g, r) = oversized(&coeffs);
    assert_eq!(g.const_values(), coeffs);

    // Retune coefficients at both ends of the chain.
    coeffs[0] *= 1.5;
    coeffs[31] *= 0.5;
    let swapped = Session::new(g.with_const_values(&coeffs).unwrap(), r).unwrap();

    let (g, r) = oversized(&coeffs);
    let cold = Session::new(g, r).unwrap();
    assert!(
        swapped
            .na_model()
            .unwrap()
            .bit_identical(&cold.na_model().unwrap()),
        "the swapped model's gains and coefficient sites differ from a cold build"
    );
    let req = AnalysisRequest {
        engine: EngineKind::Na,
        words: WlChoice::Uniform(12),
        bins: 32,
        include_pdf: false,
        ..AnalysisRequest::default()
    };
    let a = swapped.analyze(&req).unwrap();
    let b = cold.analyze(&req).unwrap();
    assert_eq!(a.reports.len(), b.reports.len());
    for ((n1, ra), (n2, rb)) in a.reports.iter().zip(&b.reports) {
        assert_eq!(n1, n2);
        for (u, v) in [
            (ra.mean, rb.mean),
            (ra.variance, rb.variance),
            (ra.support.0, rb.support.0),
            (ra.support.1, rb.support.1),
        ] {
            assert_eq!(u.to_bits(), v.to_bits(), "{n1}: {u} vs {v}");
        }
    }
}

/// Runs the four histogram engines' `analyze` under `budget` on
/// `y = 0.3·x₁ + 0.6·x₂` (linear and combinational, so every engine
/// applies) and returns each engine's outcome, in the order LTI, DFG,
/// symbolic, Cartesian.
fn each_engine_under(budget: &Budget) -> Vec<(&'static str, Result<(), SnaError>)> {
    let mut b = DfgBuilder::new();
    let x1 = b.input("x1");
    let x2 = b.input("x2");
    let t1 = b.mul_const(0.3, x1);
    let t2 = b.mul_const(0.6, x2);
    let y = b.add(t1, t2);
    b.output("y", y);
    let g = b.build().unwrap();
    let ranges = vec![Interval::new(-1.0, 1.0).unwrap(); 2];
    let cfg = WlConfig::from_ranges(&g, &ranges, 10).unwrap();
    let inputs = vec![
        UncertainInput::uniform("x1", -1.0, 1.0, 16).unwrap(),
        UncertainInput::uniform("x2", -1.0, 1.0, 16).unwrap(),
    ];
    let lti = LtiEngine::build(&g, &ranges, &LtiOptions::default(), 64).unwrap();
    vec![
        ("lti", lti.analyze(&g, &cfg, budget).map(drop)),
        (
            "dfg",
            DfgEngine::new(EngineOptions::default())
                .analyze(&g, &cfg, &ranges, budget)
                .map(drop),
        ),
        (
            "symbolic",
            SymbolicEngine::default()
                .analyze(&g, &cfg, &ranges, budget)
                .map(drop),
        ),
        (
            "cartesian",
            CartesianEngine::new(64)
                .analyze(
                    &inputs,
                    |v| v[0] * Interval::point(0.3) + v[1] * Interval::point(0.6),
                    budget,
                )
                .map(drop),
        ),
    ]
}

#[test]
fn every_engine_stops_at_its_own_checkpoints() {
    for (engine, outcome) in each_engine_under(&Budget::unlimited()) {
        assert!(outcome.is_ok(), "{engine}: {outcome:?}");
    }
    for (engine, outcome) in each_engine_under(&Budget::pre_cancelled()) {
        assert!(
            matches!(outcome, Err(SnaError::Cancelled)),
            "{engine}: {outcome:?}"
        );
    }
    for (engine, outcome) in each_engine_under(&Budget::with_timeout(Duration::ZERO)) {
        assert!(
            matches!(outcome, Err(SnaError::DeadlineExceeded)),
            "{engine}: {outcome:?}"
        );
    }
}
