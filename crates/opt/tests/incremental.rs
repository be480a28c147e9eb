//! Equivalence and determinism guarantees of the incremental evaluation
//! engine.
//!
//! * Property: over random sequences of single-coordinate moves and
//!   undos, [`sna_opt::NoiseEval`] matches the from-scratch
//!   [`sna_opt::Optimizer::noise_of`] within 1e-12 (relative) — on the NA
//!   path (FIR and difference-equation designs, including feedback) and
//!   on the histogram path (the paper's nonlinear quadratic example).
//! * Determinism: the parallel exhaustive search returns exactly the
//!   serial winner for any thread count, and annealing restarts are
//!   scheduling-independent.

use proptest::prelude::*;
use sna_core::Session;
use sna_designs::{diff_eq, fir, quadratic, Design};
use sna_dfg::DfgBuilder;
use sna_hls::SynthesisConstraints;
use sna_interval::Interval;
use sna_opt::Optimizer;

/// One randomized walk step: which node, which width (as an offset above
/// the node's minimum), and whether to revert the move immediately
/// (encoded as the parity of the third element — the shimmed proptest has
/// no bool strategy).
type Move = (usize, u8, u8);

fn moves_strategy(len: usize) -> impl Strategy<Value = Vec<Move>> {
    proptest::collection::vec((0..4096usize, 0..36u8, 0..2u8), 1..len)
}

/// Applies `moves` through an incremental evaluator, checking after every
/// set/undo that the running power matches a from-scratch evaluation of
/// the same width vector within 1e-12 relative.
fn check_equivalence(d: Design, moves: &[Move]) {
    let session = session_of(d);
    let opt = Optimizer::new(&session, SynthesisConstraints::default()).unwrap();
    let min_w = opt.min_word_lengths().to_vec();
    let n = session.dfg().len();
    let max_w = 40u8;
    let mut w: Vec<u8> = min_w.iter().map(|&m| m.max(12)).collect();
    let mut ev = opt.evaluator(&w).unwrap();
    let compare = |ev_power: f64, w: &[u8]| {
        let scratch = opt.noise_of(w).unwrap();
        let tol = 1e-12 * scratch.abs().max(ev_power.abs()).max(1e-300);
        prop_assert!(
            (ev_power - scratch).abs() <= tol,
            "incremental {ev_power:e} vs scratch {scratch:e} at {w:?}"
        );
    };
    compare(ev.power(), &w);
    for &(sel, delta, undo) in moves {
        let i = sel % n;
        let nw = min_w[i].saturating_add(delta).min(max_w);
        let p = ev.set(i, nw).unwrap();
        let old = w[i];
        w[i] = nw;
        compare(p, &w);
        if undo == 1 {
            ev.undo();
            w[i] = old;
            compare(ev.power(), &w);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn na_incremental_matches_scratch_on_fir(moves in moves_strategy(40)) {
        let d = fir(8);
        check_equivalence(d, &moves);
    }

    #[test]
    fn na_incremental_matches_scratch_on_diffeq(moves in moves_strategy(40)) {
        // Feedback: impulse-gain model with delays.
        let d = diff_eq(4);
        check_equivalence(d, &moves);
    }

    #[test]
    fn hist_incremental_matches_scratch_on_quadratic(moves in moves_strategy(24)) {
        // Nonlinear combinational: the histogram fallback with
        // cone-limited re-propagation.
        let d = quadratic();
        check_equivalence(d, &moves);
    }
}

#[test]
fn hist_evaluator_is_used_for_the_quadratic() {
    // Guard that the histogram property above actually exercises the
    // fallback path, not the NA model.
    let session = session_of(quadratic());
    let opt = Optimizer::new(&session, SynthesisConstraints::default()).unwrap();
    assert!(opt.na_model().is_none());
}

fn session_of(d: Design) -> Session {
    Session::new(d.dfg, d.input_ranges).unwrap()
}

fn skewed_design() -> Session {
    let mut b = DfgBuilder::new();
    let x1 = b.input("x1");
    let x2 = b.input("x2");
    let t1 = b.mul_const(0.8, x1);
    let t2 = b.mul_const(0.01, x2);
    let y = b.add(t1, t2);
    b.output("y", y);
    Session::new(
        b.build().unwrap(),
        vec![
            Interval::new(-1.0, 1.0).unwrap(),
            Interval::new(-1.0, 1.0).unwrap(),
        ],
    )
    .unwrap()
}

#[test]
fn parallel_exhaustive_matches_serial_winner() {
    let s = skewed_design();
    let opt = Optimizer::new(&s, SynthesisConstraints::default()).unwrap();
    let fixed = opt.uniform(10).unwrap();
    let serial = opt
        .exhaustive(fixed.noise_power, 10, 2, 10_000_000, 1)
        .unwrap();
    for threads in [2, 3, 4, 8] {
        let parallel = opt
            .exhaustive(fixed.noise_power, 10, 2, 10_000_000, threads)
            .unwrap();
        assert_eq!(
            serial.word_lengths, parallel.word_lengths,
            "thread count {threads} changed the winner"
        );
    }
}

#[test]
fn exhaustive_default_entry_point_agrees_with_serial() {
    let s = skewed_design();
    let opt = Optimizer::new(&s, SynthesisConstraints::default()).unwrap();
    let fixed = opt.uniform(10).unwrap();
    let serial = opt
        .exhaustive(fixed.noise_power, 10, 1, 10_000_000, 1)
        .unwrap();
    let auto = opt
        .exhaustive(fixed.noise_power, 10, 1, 10_000_000, 0)
        .unwrap();
    assert_eq!(serial.word_lengths, auto.word_lengths);
}

#[test]
fn out_of_range_moves_error_instead_of_panicking() {
    let s = skewed_design();
    let opt = Optimizer::new(&s, SynthesisConstraints::default()).unwrap();
    let start: Vec<u8> = opt.min_word_lengths().to_vec();
    let mut ev = opt.evaluator(&start).unwrap();
    let before = ev.power();
    // Above the search bound, below the node minimum, and a bad index:
    // all must report an error and leave the evaluator untouched.
    assert!(ev.set(0, 45).is_err());
    assert!(ev.set(0, start[0].wrapping_sub(1)).is_err());
    assert!(ev.set(s.dfg().len(), 12).is_err());
    assert_eq!(ev.power(), before);
    assert_eq!(ev.widths(), &start[..]);
    // A bad initial vector errors at construction.
    let mut wide = start.clone();
    wide[0] = 60;
    assert!(opt.evaluator(&wide).is_err());
    assert!(opt.evaluator(&start[1..]).is_err());
}
