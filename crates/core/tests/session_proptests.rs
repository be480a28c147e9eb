//! Property-based check of coefficient swaps: a
//! `Session::with_coefficients` swap must agree with a from-scratch
//! compile of the swapped graph (its gain model bit for bit, its reports
//! to within 1e-12), while the stage-build counters show one cold build
//! per distinct coefficient set.

use proptest::prelude::*;
use sna_core::{AnalysisRequest, EngineKind, Session, WlChoice};
use sna_designs::fir;

/// Deterministic coefficient perturbation: replace a seed-chosen subset
/// of the coefficient vector with fresh dyadic values in (-0.75, 0.75).
fn perturb(coeffs: &[f64], seed: u64) -> Vec<f64> {
    fn next(state: &mut u64) -> u64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *state >> 16
    }
    // Dyadic rationals: short to print, exactly representable. Redraw
    // until the slot really changes, so a chained perturbation can never
    // be a bitwise no-op (which would share the donor's stages and throw
    // off the build counts asserted below).
    fn fresh(state: &mut u64, current: f64) -> f64 {
        loop {
            let v = ((next(state) % 383) as f64 - 191.0) / 256.0;
            if v.to_bits() != current.to_bits() {
                return v;
            }
        }
    }
    let mut state = seed ^ 0x9e37_79b9_7f4a_7c15;
    let mut out = coeffs.to_vec();
    let mut touched = false;
    for c in &mut out {
        if next(&mut state).is_multiple_of(3) {
            *c = fresh(&mut state, *c);
            touched = true;
        }
    }
    if !touched {
        // Always change at least one slot so the swap is a real swap.
        let k = (next(&mut state) as usize) % out.len();
        out[k] = fresh(&mut state, out[k]);
    }
    out
}

fn na_request(bits: u8) -> AnalysisRequest {
    AnalysisRequest {
        engine: EngineKind::Na,
        words: WlChoice::Uniform(bits),
        bins: 32,
        ..AnalysisRequest::default()
    }
}

fn assert_close(tag: &str, a: f64, b: f64) {
    let tol = 1e-12 * b.abs().max(1e-300);
    assert!(
        (a - b).abs() <= tol,
        "{tag}: swapped {a:e} vs cold {b:e} (diff {:e})",
        (a - b).abs()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn coefficient_swapped_sessions_match_from_scratch_compiles(seed in 0u64..1_000_000_000) {
        let design = fir(9);
        let base = Session::new(design.dfg.clone(), design.input_ranges.clone()).unwrap();
        // Build the full chain cold, so the swap has built stages it must
        // not carry over.
        base.na_model().unwrap();

        let coeffs = perturb(&base.coefficients(), seed);
        let swapped = base.with_coefficients(&coeffs).unwrap();
        prop_assert_eq!(swapped.coefficients(), coeffs.clone());

        let cold = Session::new(
            design.dfg.with_const_values(&coeffs).unwrap(),
            design.input_ranges.clone(),
        )
        .unwrap();

        prop_assert!(
            swapped.na_model().unwrap().bit_identical(&cold.na_model().unwrap())
        );
        for bits in [8u8, 12, 20] {
            let a = swapped.analyze(&na_request(bits)).unwrap();
            let b = cold.analyze(&na_request(bits)).unwrap();
            prop_assert_eq!(a.reports.len(), b.reports.len());
            for ((n1, ra), (n2, rb)) in a.reports.iter().zip(&b.reports) {
                prop_assert_eq!(n1, n2);
                assert_close("mean", ra.mean, rb.mean);
                assert_close("variance", ra.variance, rb.variance);
                assert_close("power", ra.power, rb.power);
                assert_close("lo", ra.support.0, rb.support.0);
                assert_close("hi", ra.support.1, rb.support.1);
            }
        }

        // A second swap chains off the first (donor-of-donor) and still
        // matches scratch.
        let coeffs2 = perturb(&coeffs, seed.wrapping_add(1));
        let chained = swapped.with_coefficients(&coeffs2).unwrap();
        let cold2 = Session::new(
            design.dfg.with_const_values(&coeffs2).unwrap(),
            design.input_ranges.clone(),
        )
        .unwrap();
        let a = chained.analyze(&na_request(12)).unwrap();
        let b = cold2.analyze(&na_request(12)).unwrap();
        for ((_, ra), (_, rb)) in a.reports.iter().zip(&b.reports) {
            assert_close("chained variance", ra.variance, rb.variance);
        }

        // One cold range analysis and one cold model build per distinct
        // coefficient set of the family (base, swap, chained swap).
        let stats = swapped.stats();
        prop_assert_eq!(stats.range_builds, 3);
        prop_assert_eq!(stats.na_builds, 3);
    }
}
