//! Property-based tests for the dataflow-graph substrate.
//!
//! Random linear datapaths are generated structurally; the invariants tie
//! the analyses to the simulator: interval ranges enclose simulated
//! values, LTI gains predict simulated responses, and the combinational
//! view agrees with the sequential graph step by step, the shared impulse
//! analysis reproduces the dense per-source reference bit for bit, and the
//! adjoint pass reproduces it up to rounding.

use proptest::prelude::*;
use sna_dfg::{Dfg, DfgBuilder, ImpulseAnalysis, LtiOptions, NodeId, RangeOptions, Simulator};
use sna_interval::Interval;

/// Recipe for one node of a random linear datapath.
#[derive(Clone, Debug)]
enum Step {
    AddPrev,
    SubPrev,
    MulConst(f64),
    Neg,
    Delay,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        Just(Step::AddPrev),
        Just(Step::SubPrev),
        (-1.5..1.5f64).prop_map(Step::MulConst),
        Just(Step::Neg),
        Just(Step::Delay),
    ]
}

/// Appends the node `s` describes, on top of the last two nodes.
fn push(b: &mut DfgBuilder, s: &Step, nodes: &mut Vec<NodeId>) {
    let last = *nodes.last().expect("nonempty");
    let prev = nodes[nodes.len().saturating_sub(2)];
    let n = match s {
        Step::AddPrev => b.add(last, prev),
        Step::SubPrev => b.sub(last, prev),
        Step::MulConst(k) => b.mul_const(*k, last),
        Step::Neg => b.neg(last),
        Step::Delay => b.delay(last),
    };
    nodes.push(n);
}

/// Builds a random linear single-input datapath; feedback-free so every
/// analysis applies.
fn build(steps: &[Step]) -> Dfg {
    let mut b = DfgBuilder::new();
    let mut nodes = vec![b.input("x")];
    for s in steps {
        push(&mut b, s, &mut nodes);
    }
    let y = *nodes.last().expect("nonempty");
    b.output("y", y);
    b.build().expect("structurally valid")
}

/// Recipe for one node of a random linear datapath with loops and
/// additive constants.
#[derive(Clone, Debug)]
enum LoopStep {
    Plain(Step),
    /// `n = last + k·n[n-1]`: a stable one-pole loop.
    Feedback(f64),
    /// `n = last + c`: the zero-input run is no longer zero.
    AddConst(f64),
}

fn loop_step_strategy() -> impl Strategy<Value = LoopStep> {
    prop_oneof![
        step_strategy().prop_map(LoopStep::Plain),
        (-0.95..0.95f64).prop_map(LoopStep::Feedback),
        (-2.0..2.0f64).prop_map(LoopStep::AddConst),
    ]
}

/// Like [`build`], with loops and constants, and a second output midway.
fn build_with_loops(steps: &[LoopStep]) -> Dfg {
    let mut b = DfgBuilder::new();
    let mut nodes = vec![b.input("x")];
    for s in steps {
        let last = *nodes.last().expect("nonempty");
        match s {
            LoopStep::Plain(s) => push(&mut b, s, &mut nodes),
            LoopStep::Feedback(k) => {
                let fb = b.delay_placeholder();
                let t = b.mul_const(*k, fb);
                let n = b.add(last, t);
                b.bind_delay(fb, n).expect("placeholder");
                nodes.push(n);
            }
            LoopStep::AddConst(c) => {
                let c = b.constant(*c);
                nodes.push(b.add(last, c));
            }
        }
    }
    b.output("y", *nodes.last().expect("nonempty"));
    b.output("mid", nodes[nodes.len() / 2]);
    b.build().expect("structurally valid")
}

/// Asserts that the shared analysis answers every node of `g` exactly as
/// the dense reference does: gains, sequence lengths, sequence bits and
/// errors.
fn assert_matches_reference(g: &Dfg, opts: &LtiOptions) {
    let mut analysis = ImpulseAnalysis::new(g, opts);
    for (id, _) in g.nodes() {
        let dense = g.impulse_response(id, opts);
        let shared = match &mut analysis {
            Ok(a) => a.response(id),
            Err(e) => Err(e.clone()),
        };
        match (dense, shared) {
            (Ok((dg, ds)), Ok((sg, ss))) => {
                assert_eq!(dg.source, sg.source);
                let bits = |g: &sna_dfg::ImpulseGains| -> Vec<[u64; 3]> {
                    g.per_output
                        .iter()
                        .map(|o| [o.l1.to_bits(), o.l2_squared.to_bits(), o.dc.to_bits()])
                        .collect()
                };
                assert_eq!(bits(&dg), bits(&sg), "gains from node {id}");
                assert_eq!(ds.len(), ss.len());
                for (d, s) in ds.iter().zip(&ss) {
                    assert_eq!(d.len(), s.len(), "sequence length from node {id}");
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(d), bits(s), "sequence from node {id}");
                }
            }
            (Err(d), Err(s)) => assert_eq!(d, s, "error from node {id}"),
            (d, s) => panic!("node {id}: reference {d:?}, shared {s:?}"),
        }
    }
}

/// `g` with every path product made positive: constants by magnitude,
/// `Sub` as `Add`, `Neg` as a product with 1.  Its gains bound the sums
/// both impulse methods round, with no cancellation left in them.
fn without_cancellation(g: &Dfg) -> (Dfg, Vec<NodeId>) {
    use sna_dfg::Op;
    let mut b = DfgBuilder::new();
    let mut map = vec![NodeId::from_index(0); g.len()];
    for &d in g.delay_nodes() {
        map[d.index()] = b.delay_placeholder();
    }
    for &id in g.topo_order() {
        let node = g.node(id);
        let arg = |k: usize| map[node.args()[k].index()];
        map[id.index()] = match node.op() {
            Op::Input(i) => b.input(g.input_names()[i].clone()),
            Op::Const(c) => b.constant(c.abs()),
            Op::Add | Op::Sub => b.add(arg(0), arg(1)),
            Op::Mul => b.mul(arg(0), arg(1)),
            Op::Neg => b.mul_const(1.0, arg(0)),
            op => unreachable!("the generators make no {op:?}"),
        };
    }
    for &d in g.delay_nodes() {
        b.bind_delay(map[d.index()], map[g.node(d).args()[0].index()])
            .expect("placeholder");
    }
    for (name, o) in g.outputs() {
        b.output(name.clone(), map[o.index()]);
    }
    (b.build().expect("structurally valid"), map)
}

/// Asserts that the adjoint pass answers every node of `g` as accurately
/// as the dense reference does.  Both are compared with a strict oracle,
/// the dense reference at a tolerance of 1e-18.  Every adjoint gain must
/// be within 1e-12 of the gains without cancellation, scaled by 1 + the
/// largest baseline value (the dense run rounds each difference against
/// the baseline), plus the worst relative error the dense reference itself
/// makes on `g` (both cut slowly decaying tails).  Where the adjoint
/// declines, the zero-input run must not be stationary and finite, or
/// some source must fail.
fn assert_adjoint_matches_reference(g: &Dfg, opts: &LtiOptions) {
    let mut sim = Simulator::new(g);
    let stationary = sim.step(&vec![0.0; g.n_inputs()]).is_ok()
        && g.delay_nodes()
            .iter()
            .all(|d| sim.values()[d.index()].to_bits() == 0)
        && sim.values().iter().all(|v| v.is_finite());
    let Some(gains) = g.adjoint_gains(opts).expect("linear") else {
        assert!(
            !stationary
                || g.nodes()
                    .any(|(id, _)| g.impulse_response(id, opts).is_err()),
            "the adjoint declined a stationary, finite baseline"
        );
        return;
    };
    assert!(stationary, "the adjoint ran on a moving baseline");
    let strict_opts = LtiOptions {
        tolerance: 1e-18,
        ..*opts
    };
    let base = sim.values().iter().fold(0.0f64, |m, v| m.max(v.abs()));
    let (abs, map) = without_cancellation(g);
    let mut rows = Vec::new();
    let mut dense_error = 0.0f64;
    for (id, _) in g.nodes() {
        let (dense, _) = g.impulse_response(id, opts).expect("the adjoint settled");
        let (strict, _) = g.impulse_response(id, &strict_opts).expect("stable");
        let (bound, _) = abs.impulse_response(map[id.index()], opts).expect("stable");
        assert_eq!(gains[id.index()].source, id);
        for ((d, s), m) in dense
            .per_output
            .iter()
            .zip(&strict.per_output)
            .zip(&bound.per_output)
        {
            for (x, y, scale) in [
                (d.l1, s.l1, m.l1),
                (d.l2_squared, s.l2_squared, m.l2_squared),
            ] {
                if scale > 0.0 {
                    dense_error = dense_error.max((x - y).abs() / scale);
                }
            }
        }
        rows.push((id, strict, bound));
    }
    let tol = 1e-12 * (1.0 + base) + dense_error;
    for (id, strict, bound) in rows {
        let outputs = gains[id.index()].per_output.iter().zip(&strict.per_output);
        for ((a, s), m) in outputs.zip(&bound.per_output) {
            assert!(
                (a.l1 - s.l1).abs() <= tol * m.l1
                    && (a.l2_squared - s.l2_squared).abs() <= tol * m.l2_squared
                    && (a.dc - s.dc).abs() <= tol * m.l1,
                "gains from node {id}: adjoint {a:?}, strict {s:?}, bound {m:?}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn adjoint_gains_match_the_reference(steps in proptest::collection::vec(step_strategy(), 1..12)) {
        assert_adjoint_matches_reference(&build(&steps), &LtiOptions::default());
    }

    #[test]
    fn adjoint_gains_match_the_reference_with_loops_and_constants(
        steps in proptest::collection::vec(loop_step_strategy(), 1..12))
    {
        assert_adjoint_matches_reference(&build_with_loops(&steps), &LtiOptions::default());
    }

    #[test]
    fn interval_ranges_enclose_simulation(steps in proptest::collection::vec(step_strategy(), 1..12),
                                          inputs in proptest::collection::vec(-1.0..1.0f64, 16)) {
        let g = build(&steps);
        let ranges = g
            .ranges_interval(&[Interval::UNIT], &RangeOptions::default())
            .unwrap();
        let (_, yid) = g.outputs()[0].clone();
        let mut sim = Simulator::new(&g);
        for &x in &inputs {
            let out = sim.step(&[x]).unwrap()[0];
            prop_assert!(ranges[yid.index()].lo() - 1e-9 <= out
                         && out <= ranges[yid.index()].hi() + 1e-9,
                         "output {out} outside {}", ranges[yid.index()]);
        }
    }

    #[test]
    fn lti_ranges_also_enclose_simulation(steps in proptest::collection::vec(step_strategy(), 1..12),
                                          inputs in proptest::collection::vec(-1.0..1.0f64, 16)) {
        let g = build(&steps);
        let ranges = g.ranges_lti(&[Interval::UNIT], &LtiOptions::default()).unwrap();
        let (_, yid) = g.outputs()[0].clone();
        let mut sim = Simulator::new(&g);
        for &x in &inputs {
            let out = sim.step(&[x]).unwrap()[0];
            prop_assert!(ranges[yid.index()].lo() - 1e-6 <= out
                         && out <= ranges[yid.index()].hi() + 1e-6);
        }
    }

    #[test]
    fn dc_gain_matches_settled_step_response(steps in proptest::collection::vec(step_strategy(), 1..10)) {
        let g = build(&steps);
        let x = g.nodes().find(|(_, n)| matches!(n.op(), sna_dfg::Op::Input(_))).unwrap().0;
        let gains = g.impulse_gains(x, &LtiOptions::default()).unwrap();
        let dc = gains.per_output[0].dc;
        // Feed a constant 1.0 long enough to settle (feedback-free: depth
        // bounded by the delay count).
        let mut sim = Simulator::new(&g);
        let mut last = 0.0;
        for _ in 0..(steps.len() + 4) {
            last = sim.step(&[1.0]).unwrap()[0];
        }
        prop_assert!((last - dc).abs() < 1e-9 * (1.0 + dc.abs()),
                     "step response {last} vs dc gain {dc}");
    }

    #[test]
    fn combinational_view_matches_with_explicit_state(
        steps in proptest::collection::vec(step_strategy(), 1..10),
        inputs in proptest::collection::vec(-1.0..1.0f64, 8))
    {
        let g = build(&steps);
        let view = g.combinational_view();
        let mut sim = Simulator::new(&g);
        // Track delay state manually and feed it to the view.
        let mut state = vec![0.0; g.delay_nodes().len()];
        for &x in &inputs {
            let mut view_inputs = vec![x];
            view_inputs.extend_from_slice(&state);
            let expect = view.evaluate(&view_inputs).unwrap()[0];
            let got = sim.step(&[x]).unwrap()[0];
            prop_assert!((got - expect).abs() < 1e-12,
                         "sequential {got} vs view {expect}");
            // Update the manual state from the simulator's values.
            for (k, &d) in g.delay_nodes().iter().enumerate() {
                state[k] = sim.values()[d.index()];
            }
        }
    }

    #[test]
    fn topo_order_is_a_valid_schedule(steps in proptest::collection::vec(step_strategy(), 1..16)) {
        let g = build(&steps);
        let mut seen = vec![false; g.len()];
        for &id in g.topo_order() {
            for a in g.node(id).args() {
                if g.node(*a).op() != sna_dfg::Op::Delay {
                    prop_assert!(seen[a.index()], "{id} before its arg {a}");
                }
            }
            seen[id.index()] = true;
        }
    }

    #[test]
    fn shared_impulse_analysis_matches_the_reference(steps in proptest::collection::vec(step_strategy(), 1..12)) {
        assert_matches_reference(&build(&steps), &LtiOptions::default());
    }

    #[test]
    fn shared_impulse_analysis_matches_the_reference_with_loops_and_constants(
        steps in proptest::collection::vec(loop_step_strategy(), 1..12))
    {
        assert_matches_reference(&build_with_loops(&steps), &LtiOptions::default());
    }

    #[test]
    fn evaluation_is_linear_in_the_input(steps in proptest::collection::vec(step_strategy(), 1..10),
                                         a in -2.0..2.0f64, b in -2.0..2.0f64) {
        // For linear graphs: f(a) + f(b) == f(a + b) (delays at zero; one
        // combinational evaluation).
        let g = build(&steps);
        let fa = g.evaluate(&[a]).unwrap()[0];
        let fb = g.evaluate(&[b]).unwrap()[0];
        let fab = g.evaluate(&[a + b]).unwrap()[0];
        prop_assert!((fa + fb - fab).abs() < 1e-9 * (1.0 + fab.abs()));
    }
}

/// `NodeId` round-trips through raw indices (used by serialization-ish
/// tooling).
#[test]
fn node_id_round_trip() {
    for i in [0usize, 1, 17, 10_000] {
        assert_eq!(NodeId::from_index(i).index(), i);
    }
}

/// `x / (a + b)` with constants `a + b` the test chooses.
fn divided(a: f64, b: f64) -> Dfg {
    let mut g = DfgBuilder::new();
    let x = g.input("x");
    let (a, b) = (g.constant(a), g.constant(b));
    let d = g.add(a, b);
    let q = g.div(x, d);
    g.output("q", q);
    g.build().expect("structurally valid")
}

#[test]
fn shared_impulse_analysis_reports_division_by_zero_like_the_reference() {
    // A zero divisor on the baseline run, and one the impulse at `b`
    // creates on a nonzero baseline.
    for g in [divided(0.0, 0.0), divided(-1.0, 0.0)] {
        assert!(g.nodes().any(|(id, _)| matches!(
            g.impulse_response(id, &LtiOptions::default()),
            Err(sna_dfg::DfgError::DivisionByZero { .. })
        )));
        assert_matches_reference(&g, &LtiOptions::default());
    }
}

#[test]
fn shared_impulse_analysis_matches_the_reference_on_held_states_and_tap_gaps() {
    // Moving sum of a running sum: the integrator holds 1 forever.
    let mut b = DfgBuilder::new();
    let x = b.input("x");
    let fb = b.delay_placeholder();
    let s = b.add(x, fb);
    b.bind_delay(fb, s).expect("placeholder");
    let comb = b.delay_chain(s, 4);
    let y = b.sub(s, comb[3]);
    b.output("y", y);
    assert_matches_reference(&b.build().expect("valid"), &LtiOptions::default());

    // A FIR whose only taps sit at delays 6 and 16.
    let mut b = DfgBuilder::new();
    let x = b.input("x");
    let line = b.delay_chain(x, 16);
    let t6 = b.mul_const(0.204, line[5]);
    let t16 = b.mul_const(0.915, line[15]);
    let y = b.add(t6, t16);
    b.output("y", y);
    assert_matches_reference(&b.build().expect("valid"), &LtiOptions::default());
}

#[test]
fn shared_impulse_analysis_matches_the_reference_behind_an_infinite_state() {
    // `y = x + x[n-1]` beside an unobserved delay of `1e308·10 = inf`: the
    // reference's drift over that state is NaN, so no source settles.
    let mut b = DfgBuilder::new();
    let x = b.input("x");
    let xd = b.delay(x);
    let y = b.add(x, xd);
    b.output("y", y);
    let big = b.constant(1e308);
    let inf = b.mul_const(10.0, big);
    b.delay(inf);
    let g = b.build().expect("valid");
    let opts = LtiOptions {
        max_steps: 2_000,
        ..LtiOptions::default()
    };
    assert!(matches!(
        g.impulse_response(x, &opts),
        Err(sna_dfg::DfgError::UnstableImpulse { .. })
    ));
    assert_matches_reference(&g, &opts);
}

#[test]
fn shared_impulse_analysis_matches_the_reference_while_its_baseline_settles() {
    // `s = 0.5 + 0.5·s[n-1]` takes ~54 steps to reach 1.0, and the
    // rounding of `0.1·x[n-3] + s` depends on where it is.  The integrator
    // output makes the first source run past that, so later sources on
    // the delay line meet single-register states before the baseline
    // repeats: a continuation recorded at one step must not be replayed
    // at another.
    let mut b = DfgBuilder::new();
    let x = b.input("x");
    let fb = b.delay_placeholder();
    let u = b.add(fb, x);
    b.bind_delay(fb, u).expect("placeholder");
    let half = b.constant(0.5);
    let sfb = b.delay_placeholder();
    let decay = b.mul_const(0.5, sfb);
    let s = b.add(half, decay);
    b.bind_delay(sfb, s).expect("placeholder");
    let line = b.delay_chain(x, 3);
    let tap = b.mul_const(0.1, line[2]);
    let y = b.add(tap, s);
    b.output("y", y);
    b.output("z", u);
    let opts = LtiOptions {
        max_steps: 2_000,
        ..LtiOptions::default()
    };
    assert_matches_reference(&b.build().expect("valid"), &opts);
}

#[test]
fn shared_impulse_analysis_matches_the_reference_past_its_baseline_budget() {
    // `s = s[n-1] + 1` never repeats, so sources that outrun the kept
    // baseline rows go to the reference; 200 idle nodes make that early.
    let mut b = DfgBuilder::new();
    let x = b.input("x");
    let one = b.constant(1.0);
    let fb = b.delay_placeholder();
    let s = b.add(fb, one);
    b.bind_delay(fb, s).expect("placeholder");
    let y = b.add(x, s);
    b.output("y", y);
    let mut idle = b.constant(0.5);
    for _ in 0..200 {
        idle = b.neg(idle);
    }
    let opts = LtiOptions {
        max_steps: 8_000,
        ..LtiOptions::default()
    };
    assert_matches_reference(&b.build().expect("valid"), &opts);
}
