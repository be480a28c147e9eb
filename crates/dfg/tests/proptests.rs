//! Property-based tests for the dataflow-graph substrate.
//!
//! Random linear datapaths are generated structurally; the invariants tie
//! the analyses to the simulator: interval ranges enclose simulated
//! values, LTI gains predict simulated responses, and the combinational
//! view agrees with the sequential graph step by step, and the shared
//! impulse analysis ([`Dfg::adjoint_gains`], every source of a graph at
//! once) reproduces the dense per-source reference up to rounding, or
//! declines only where the reference must answer instead. Range
//! analysis with its divergence proof ([`Dfg::ranges_auto`]) answers
//! exactly what running the interval fixpoint to the end would, on
//! high-order recurrences, stable or not, with pinned states.

use proptest::prelude::*;
use sna_dfg::{Dfg, DfgBuilder, DfgError, LtiOptions, NodeId, Op, RangeOptions, Simulator};
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
    /// `n = last + k` with `k = a + d·k[n-1]`: a constant-only recurrence
    /// whose zero-input value moves, added to the signal.
    AddRecurrence(f64, f64),
    /// `n = k·last[n-1]` with `k = a + d·k[n-1]`: a delayed signal scaled
    /// by a moving constant, a time-varying system.
    ScaleByRecurrence(f64, f64),
}

fn loop_step_strategy() -> impl Strategy<Value = LoopStep> {
    prop_oneof![
        step_strategy().prop_map(LoopStep::Plain),
        (-0.95..0.95f64).prop_map(LoopStep::Feedback),
        (-2.0..2.0f64).prop_map(LoopStep::AddConst),
        (0.25..2.0f64, -0.95..0.95f64).prop_map(|(a, d)| LoopStep::AddRecurrence(a, d)),
        (0.25..2.0f64, -0.95..0.95f64).prop_map(|(a, d)| LoopStep::ScaleByRecurrence(a, d)),
    ]
}

/// `k = a + d·k[n-1]`, which starts at `a` and settles at `a/(1 − d)`.
fn recurrence(b: &mut DfgBuilder, a: f64, d: f64) -> NodeId {
    let fb = b.delay_placeholder();
    let a = b.constant(a);
    let decay = b.mul_const(d, fb);
    let k = b.add(a, decay);
    b.bind_delay(fb, k).expect("placeholder");
    k
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
            LoopStep::AddRecurrence(a, d) => {
                let k = recurrence(&mut b, *a, *d);
                nodes.push(b.add(last, k));
            }
            LoopStep::ScaleByRecurrence(a, d) => {
                let k = recurrence(&mut b, *a, *d);
                let held = b.delay(last);
                nodes.push(b.mul(k, held));
            }
        }
    }
    b.output("y", *nodes.last().expect("nonempty"));
    b.output("mid", nodes[nodes.len() / 2]);
    b.build().expect("structurally valid")
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

/// Whether `g` obeys rule R, given the node values `row` after one
/// zero-input step (delays hold what they latched): every partial
/// derivative that reads a moving node (one downstream of a delay that
/// latched a nonzero value) sits on an edge into a node no delay reaches.
fn obeys_rule_r(g: &Dfg, row: &[f64]) -> bool {
    let movers: Vec<NodeId> = g
        .delay_nodes()
        .iter()
        .copied()
        .filter(|d| row[d.index()].to_bits() != 0)
        .collect();
    let moving = g.downstream_mask(&movers);
    let delayed = g.downstream_mask(g.delay_nodes());
    // The partial into `into` reads `read`.
    let fine = |into: NodeId, read: NodeId| !delayed[into.index()] || !moving[read.index()];
    g.nodes().all(|(_, node)| match (node.op(), node.args()) {
        (Op::Mul, &[a, b]) => fine(a, b) && fine(b, a),
        (Op::Div, &[a, b]) => fine(a, b),
        _ => true,
    })
}

/// `g` with every constant that feeds only sums set to 0.  In the
/// generators those are the offsets added to signals and the inputs of
/// the recurrences: no partial derivative on a signal's path reads what
/// they shift, so every such partial stays the same, while the twin's
/// zero-input run is stationary.  (A recurrence that scales a signal
/// breaks this, but rule R declines those graphs first.)
fn without_offsets(g: &Dfg) -> Dfg {
    let mut only_sums = vec![true; g.len()];
    for (_, node) in g.nodes() {
        for a in node.args() {
            only_sums[a.index()] &= node.op() == Op::Add;
        }
    }
    let values: Vec<f64> = g
        .const_nodes()
        .iter()
        .zip(g.const_values())
        .map(|(c, v)| if only_sums[c.index()] { 0.0 } else { v })
        .collect();
    g.with_const_values(&values)
        .expect("one value per constant")
}

/// The largest magnitude on `g`'s zero-input run at step 0.
fn largest_baseline_value(g: &Dfg) -> f64 {
    let mut sim = Simulator::new(g);
    sim.step(&vec![0.0; g.n_inputs()]).expect("a finite step");
    sim.values().iter().fold(0.0f64, |m, v| m.max(v.abs()))
}

/// Asserts that the adjoint pass answers every node of `g` as accurately
/// as the dense reference does, and declines only where the zero-input
/// run is not finite, rule R fails (see [`obeys_rule_r`]) or some source
/// fails.
///
/// Signal-dependent sources, and the constants that only offset them, are
/// compared with a strict oracle: the dense reference at a tolerance of
/// 1e-18 on [`without_offsets`]`(g)`, whose zero-input run is stationary
/// (on a moving run, the residue of rounding each difference against the
/// baseline keeps a strict reference from ever settling).  The other
/// constant-only sources, whose partials read the run itself, are
/// compared with the dense reference on `g` at `opts`.  Every adjoint
/// gain must be within 1e-12 of the gains without cancellation, scaled by
/// 1 + the largest baseline value of the graph its reference runs on (the
/// dense run rounds each difference against the baseline), plus the worst
/// relative error the dense reference itself makes on the twin (both cut
/// slowly decaying tails).
fn assert_adjoint_matches_reference(g: &Dfg, opts: &LtiOptions) {
    let mut sim = Simulator::new(g);
    let finite =
        sim.step(&vec![0.0; g.n_inputs()]).is_ok() && sim.values().iter().all(|v| v.is_finite());
    let rule_r = finite && obeys_rule_r(g, sim.values());
    let Some(gains) = g.adjoint_gains(opts).expect("linear") else {
        assert!(
            !rule_r
                || g.nodes()
                    .any(|(id, _)| g.impulse_response(id, opts).is_err()),
            "the adjoint declined a finite graph that obeys rule R"
        );
        return;
    };
    assert!(rule_r, "the adjoint ran where rule R fails");
    let strict_opts = LtiOptions {
        tolerance: 1e-18,
        ..*opts
    };
    let n_out = g.outputs().len();
    assert_eq!(gains.len(), g.len() * n_out, "one gain per node and output");
    let inputs: Vec<NodeId> = g
        .nodes()
        .filter(|(_, node)| matches!(node.op(), Op::Input(_)))
        .map(|(id, _)| id)
        .collect();
    let signal = g.downstream_mask(&inputs);
    let mut offset: Vec<bool> = g
        .nodes()
        .map(|(_, node)| matches!(node.op(), Op::Const(_)))
        .collect();
    for (u, node) in g.nodes() {
        for a in node.args() {
            offset[a.index()] &= node.op() == Op::Add && signal[u.index()];
        }
    }
    let twin = without_offsets(g);
    let (abs, map) = without_cancellation(g);
    let (abs_twin, twin_map) = without_cancellation(&twin);
    let mut rows = Vec::new();
    let mut dense_error = 0.0f64;
    for (id, _) in g.nodes() {
        let on_twin = signal[id.index()] || offset[id.index()];
        let (reference, bound) = if on_twin {
            let (dense, _) = twin.impulse_response(id, opts).expect("the twin settles");
            let (strict, _) = twin.impulse_response(id, &strict_opts).expect("stable");
            let (bound, _) = abs_twin
                .impulse_response(twin_map[id.index()], opts)
                .expect("stable");
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
            (strict, bound)
        } else {
            let (dense, _) = g.impulse_response(id, opts).expect("the adjoint settled");
            let (bound, _) = abs.impulse_response(map[id.index()], opts).expect("stable");
            (dense, bound)
        };
        rows.push((id, on_twin, reference, bound));
    }
    let twin_base = largest_baseline_value(&twin);
    let base = largest_baseline_value(g);
    for (id, on_twin, reference, bound) in rows {
        let tol = 1e-12 * (1.0 + if on_twin { twin_base } else { base }) + dense_error;
        let row = &gains[id.index() * n_out..][..n_out];
        let outputs = row.iter().zip(&reference.per_output);
        for ((a, s), m) in outputs.zip(&bound.per_output) {
            assert!(
                (a.l1 - s.l1).abs() <= tol * m.l1
                    && (a.l2_squared - s.l2_squared).abs() <= tol * m.l2_squared
                    && (a.dc - s.dc).abs() <= tol * m.l1,
                "gains from node {id}: adjoint {a:?}, reference {s:?}, bound {m:?}"
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
        let g = build_with_loops(&steps);
        let opts = LtiOptions::default();
        if steps.iter().any(|s| matches!(s, LoopStep::ScaleByRecurrence(..))) {
            prop_assert!(g.adjoint_gains(&opts).unwrap().is_none(), "a time-varying system took the adjoint");
        }
        assert_adjoint_matches_reference(&g, &opts);
    }

    #[test]
    fn shared_impulse_analysis_matches_the_reference(
        c in -2.0..2.0f64,
        steps in proptest::collection::vec(step_strategy(), 1..12))
    {
        // The feed-forward graphs over a DC offset `x + c`: every delay
        // latches a nonzero value, so the zero-input run moves.
        let steps: Vec<LoopStep> = std::iter::once(LoopStep::AddConst(c))
            .chain(steps.into_iter().map(LoopStep::Plain))
            .collect();
        assert_adjoint_matches_reference(&build_with_loops(&steps), &LtiOptions::default());
    }

    #[test]
    fn shared_impulse_analysis_matches_the_reference_with_loops_and_constants(
        c in -2.0..2.0f64,
        steps in proptest::collection::vec(loop_step_strategy(), 1..12))
    {
        // The same over a DC offset `x + c`.
        let steps: Vec<LoopStep> = std::iter::once(LoopStep::AddConst(c)).chain(steps).collect();
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
        assert!(g.adjoint_gains(&LtiOptions::default()).unwrap().is_none());
        assert_adjoint_matches_reference(&g, &LtiOptions::default());
    }
}

#[test]
fn shared_impulse_analysis_matches_the_reference_on_held_states_and_tap_gaps() {
    // A FIR whose only taps sit at delays 6 and 16.
    let mut b = DfgBuilder::new();
    let x = b.input("x");
    let line = b.delay_chain(x, 16);
    let t6 = b.mul_const(0.204, line[5]);
    let t16 = b.mul_const(0.915, line[15]);
    let y = b.add(t6, t16);
    b.output("y", y);
    assert_adjoint_matches_reference(&b.build().expect("valid"), &LtiOptions::default());

    // Moving sum of a running sum: the integrator holds 1 forever, so the
    // graph without cancellation has no bound; compare with the dense
    // reference source by source instead.
    let mut b = DfgBuilder::new();
    let x = b.input("x");
    let fb = b.delay_placeholder();
    let s = b.add(x, fb);
    b.bind_delay(fb, s).expect("placeholder");
    let comb = b.delay_chain(s, 4);
    let y = b.sub(s, comb[3]);
    b.output("y", y);
    let g = b.build().expect("valid");
    let opts = LtiOptions::default();
    let gains = g
        .adjoint_gains(&opts)
        .unwrap()
        .expect("a stationary baseline");
    for (id, _) in g.nodes() {
        let (dense, _) = g.impulse_response(id, &opts).expect("settles");
        assert_eq!(gains[id.index()], dense.per_output[0], "gains from {id}");
    }
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
    assert!(g.adjoint_gains(&opts).unwrap().is_none());
    assert_adjoint_matches_reference(&g, &opts);
}

/// `y = 0.1·x[n-3] + s` with `s = 0.5 + 0.5·s[n-1]`, which takes ~54
/// steps to reach 1.0, and with `integrate`, a second output `z = u` of
/// the running sum `u = u[n-1] + x`.
fn settling_baseline(integrate: bool) -> Dfg {
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
    if integrate {
        b.output("z", u);
    }
    b.build().expect("valid")
}

#[test]
fn shared_impulse_analysis_matches_the_reference_while_its_baseline_settles() {
    // The moving `s` is read only by the partial into its constant
    // coefficient, which no delay reaches: rule R holds.
    let opts = LtiOptions {
        max_steps: 2_000,
        ..LtiOptions::default()
    };
    let g = settling_baseline(false);
    assert!(g.adjoint_gains(&opts).unwrap().is_some());
    assert_adjoint_matches_reference(&g, &opts);
    // The integrator's response from `x` never decays: the pass runs out
    // of lags, and the reference reports which source fails.
    let g = settling_baseline(true);
    assert!(g.adjoint_gains(&opts).unwrap().is_none());
    assert_adjoint_matches_reference(&g, &opts);
}

#[test]
fn shared_impulse_analysis_matches_the_reference_past_its_baseline_budget() {
    // `s = s[n-1] + 1` never repeats, and a unit impulse at `1` raises
    // `y = x + s` for good: the pass runs out of its `max_steps` lags and
    // the reference reports the source.  200 idle nodes sit beside it.
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
    let g = b.build().expect("valid");
    assert!(g.adjoint_gains(&opts).unwrap().is_none());
    assert_adjoint_matches_reference(&g, &opts);
}

#[test]
fn a_recurrence_added_to_the_signal_takes_the_adjoint() {
    use LoopStep::{AddRecurrence, Feedback, Plain};
    let g = build_with_loops(&[
        Plain(Step::Delay),
        AddRecurrence(0.5, 0.5),
        Feedback(0.25),
        Plain(Step::MulConst(0.75)),
        Plain(Step::Delay),
    ]);
    assert!(g.adjoint_gains(&LtiOptions::default()).unwrap().is_some());
    assert_adjoint_matches_reference(&g, &LtiOptions::default());
}

/// Asserts that the adjoint answers `g`, and answers zero gains from
/// every source whose dense reference never settles.
fn assert_cancellation_is_zero(g: &Dfg) {
    let opts = LtiOptions::default();
    let gains = g
        .adjoint_gains(&opts)
        .unwrap()
        .expect("the adjoint answers");
    let n_out = g.outputs().len();
    let mut unsettled = 0;
    for (id, _) in g.nodes() {
        if let Err(e) = g.impulse_response(id, &opts) {
            assert!(
                matches!(e, sna_dfg::DfgError::UnstableImpulse { .. }),
                "{e:?}"
            );
            let row = &gains[id.index() * n_out..][..n_out];
            assert!(row.iter().all(|o| o.l1 == 0.0), "gains from {id}: {row:?}");
            unsettled += 1;
        }
    }
    assert!(unsettled > 0, "the dense reference settles everywhere");
}

#[test]
fn an_exact_cancellation_on_a_moving_baseline_has_zero_gain() {
    use LoopStep::{AddConst, Feedback, Plain};
    // `SubPrev` after `AddConst` subtracts a node from itself plus a
    // constant.  On the moving run the dense reference's rounding residue
    // `(base + δ) − base` never settles; the true gain is zero.
    assert_cancellation_is_zero(&build_with_loops(&[
        AddConst(-0.7660752186507724),
        Feedback(-0.6006914212671934),
        AddConst(-0.07745270490999401),
        Plain(Step::SubPrev),
        AddConst(-1.8993657462556306),
        Plain(Step::SubPrev),
        Feedback(-0.7851811922419435),
        Plain(Step::AddPrev),
    ]));
    assert_cancellation_is_zero(&build_with_loops(&[
        Plain(Step::MulConst(-1.2688623250818696)),
        Feedback(0.06571942148868226),
        AddConst(1.4763296874570977),
        AddConst(-1.0414410923502593),
        Feedback(0.4717808336202285),
        AddConst(1.540912245202966),
        Plain(Step::SubPrev),
        AddConst(0.3957044365173261),
    ]));
}

/// A direct-form recurrence `y[n] = Σ bₖ·x[n−k] + Σ aₖ·y[n−k] + c`, its
/// feedback polynomial given by its poles.
#[derive(Clone, Debug)]
struct Recurrence {
    /// `(radius, angle)`: a real pole at angle 0, else a conjugate pair.
    poles: Vec<(f64, f64)>,
    /// Feed-forward taps `bₖ`.
    taps: Vec<f64>,
    /// The additive constant `c`.
    offset: f64,
    /// A `range` override `[-bound, bound]` on `y` (lag 0) or on its
    /// state `y[n−lag]`, which pins that delay.
    pin: Option<(usize, f64)>,
    /// The input range's half width.
    input: f64,
}

fn recurrence_strategy() -> impl Strategy<Value = Recurrence> {
    let pole = (0.2..1.25f64, prop_oneof![Just(0.0), 0.1..3.0f64]);
    (
        proptest::collection::vec(pole, 1..7),
        proptest::collection::vec(-1.0..1.0f64, 1..4),
        prop_oneof![Just(0.0), -1.0..1.0f64],
        prop_oneof![Just(None), (0usize..4, 0.5..50.0f64).prop_map(Some)],
        0.1..2.0f64,
    )
        .prop_map(|(poles, taps, offset, pin, input)| Recurrence {
            poles,
            taps,
            offset,
            pin,
            input,
        })
}

impl Recurrence {
    /// The feedback coefficients `a₁…a_p`: `1 − Σ aₖ z⁻ᵏ` is the product
    /// of the poles' factors.
    fn feedback(&self) -> Vec<f64> {
        let mut poly = vec![1.0];
        for &(r, angle) in &self.poles {
            let factor = if angle == 0.0 {
                vec![1.0, -r]
            } else {
                vec![1.0, -2.0 * r * angle.cos(), r * r]
            };
            let mut next = vec![0.0; poly.len() + factor.len() - 1];
            for (i, p) in poly.iter().enumerate() {
                for (j, f) in factor.iter().enumerate() {
                    next[i + j] += p * f;
                }
            }
            poly = next;
        }
        poly[1..].iter().map(|c| -c).collect()
    }

    fn build(&self) -> Dfg {
        let mut b = DfgBuilder::new();
        let x = b.input("x");
        let feedback = self.feedback();
        let y1 = b.delay_placeholder();
        let mut states = vec![y1];
        for _ in 1..feedback.len() {
            let last = *states.last().expect("nonempty");
            states.push(b.delay(last));
        }
        let mut xs = vec![x];
        for _ in 1..self.taps.len() {
            let last = *xs.last().expect("nonempty");
            xs.push(b.delay(last));
        }
        let mut terms: Vec<NodeId> = self
            .taps
            .iter()
            .zip(&xs)
            .map(|(&t, &xk)| b.mul_const(t, xk))
            .collect();
        terms.extend(
            feedback
                .iter()
                .zip(&states)
                .map(|(&a, &yk)| b.mul_const(a, yk)),
        );
        if self.offset != 0.0 {
            terms.push(b.constant(self.offset));
        }
        let y = terms[1..].iter().fold(terms[0], |acc, &t| b.add(acc, t));
        b.bind_delay(y1, y).expect("placeholder");
        if let Some((lag, bound)) = self.pin {
            let node = if lag == 0 {
                y
            } else {
                states[(lag - 1) % states.len()]
            };
            let range = Interval::new(-bound, bound).expect("ordered");
            b.override_range(node, range).expect("overridable");
        }
        b.output("y", y);
        b.build().expect("structurally valid")
    }

    fn input_ranges(&self) -> Vec<Interval> {
        vec![Interval::new(-self.input, self.input).expect("ordered")]
    }
}

/// Range analysis as it ran before the divergence proof: the interval
/// fixpoint to the end, then the LTI bound on linear graphs it diverged
/// on.
fn reference_ranges(g: &Dfg, input: &[Interval]) -> Result<Vec<Interval>, DfgError> {
    match g.ranges_interval(input, &RangeOptions::default()) {
        Err(DfgError::RangeDivergence { .. }) if g.is_linear() => {
            g.ranges_lti(input, &LtiOptions::default())
        }
        other => other,
    }
}

/// Ranges as bit patterns, so that equality is bit for bit.
fn bits(ranges: &Result<Vec<Interval>, DfgError>) -> Result<Vec<(u64, u64)>, DfgError> {
    ranges.clone().map(|r| {
        r.iter()
            .map(|i| (i.lo().to_bits(), i.hi().to_bits()))
            .collect()
    })
}

/// Asserts that [`Dfg::ranges_auto`] answers what [`reference_ranges`]
/// does, bit for bit, errors included. Neither may panic: an unstable
/// recurrence whose L1 gain overflows (e.g. `y = 0.5·x + 1.2·y[n−1]`)
/// is an `UnstableImpulse` error on both sides.
fn assert_auto_matches_reference(g: &Dfg, input: &[Interval]) {
    let auto = g.ranges_auto(input, &RangeOptions::default(), &LtiOptions::default());
    assert_eq!(bits(&auto), bits(&reference_ranges(g, input)));
}

/// Whether the divergence proof cut the interval fixpoint short. Checks
/// on the way that it changed nothing else.
fn certificate_fires(g: &Dfg, input: &[Interval]) -> bool {
    let opts = RangeOptions::default();
    let full = g.ranges_interval(input, &opts);
    let certified = g.ranges_interval_certified(input, &opts);
    match (&full, &certified) {
        (
            Err(DfgError::RangeDivergence { iterations: ran }),
            Err(DfgError::RangeDivergence { iterations: cut }),
        ) => {
            assert!(cut <= ran, "the proof ran longer than the fixpoint");
            cut < ran
        }
        _ => {
            assert_eq!(bits(&full), bits(&certified), "the proof changed an answer");
            false
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn ranges_auto_matches_the_full_fixpoint_on_recurrences(rec in recurrence_strategy()) {
        let g = rec.build();
        let input = rec.input_ranges();
        certificate_fires(&g, &input);
        assert_auto_matches_reference(&g, &input);
    }

    #[test]
    fn ranges_auto_matches_the_full_fixpoint_with_loops_and_constants(
        steps in proptest::collection::vec(loop_step_strategy(), 1..12))
    {
        let g = build_with_loops(&steps);
        let input = [Interval::UNIT];
        certificate_fires(&g, &input);
        assert_auto_matches_reference(&g, &input);
    }
}

/// `y = x + k·y[n−1]`, optionally with its state pinned to `[-2, 2]`.
fn one_pole(k: f64, pinned: bool) -> Dfg {
    let mut b = DfgBuilder::new();
    let x = b.input("x");
    let fb = b.delay_placeholder();
    let t = b.mul_const(k, fb);
    let y = b.add(x, t);
    b.bind_delay(fb, y).expect("placeholder");
    if pinned {
        let range = Interval::new(-2.0, 2.0).expect("ordered");
        b.override_range(fb, range).expect("overridable");
    }
    b.output("y", y);
    b.build().expect("structurally valid")
}

#[test]
fn the_divergence_proof_fires_on_unstable_feedback() {
    // The graph of `unstable_feedback_diverges`: the fixpoint overflows
    // after hundreds of passes, the proof holds after three.
    let g = one_pole(1.5, false);
    assert!(certificate_fires(&g, &[Interval::UNIT]));
    assert_eq!(
        g.ranges_interval_certified(&[Interval::UNIT], &RangeOptions::default()),
        Err(DfgError::RangeDivergence { iterations: 3 })
    );
}

#[test]
fn the_divergence_proof_stays_quiet_where_the_fixpoint_converges() {
    let input = [Interval::UNIT];
    // `overridden_delay_pins_divergent_feedback`: the pinned state
    // converges however large the loop gain.
    assert!(!certificate_fires(&one_pole(1.5, true), &input));

    // A 25-tap FIR: converges before the proof is tried.
    let mut b = DfgBuilder::new();
    let x = b.input("x");
    let line = b.delay_chain(x, 24);
    let y = line
        .iter()
        .enumerate()
        .fold(b.mul_const(0.04, x), |acc, (k, &xk)| {
            let t = b.mul_const(0.04 * (k as f64 + 2.0).recip(), xk);
            b.add(acc, t)
        });
    b.output("y", y);
    assert!(!certificate_fires(&b.build().expect("valid"), &input));

    // A biquad with Σ|aₖ| < 1 and a cascade of slow one-pole loops: the
    // fixpoint runs far past `n_delays + 2` passes, so the proof is tried
    // and must fail.
    let mut b = DfgBuilder::new();
    let x = b.input("x");
    let y1 = b.delay_placeholder();
    let y2 = b.delay(y1);
    let t1 = b.mul_const(0.6, y1);
    let t2 = b.mul_const(-0.35, y2);
    let s = b.add(t1, t2);
    let y = b.add(x, s);
    b.bind_delay(y1, y).expect("placeholder");
    b.output("y", y);
    assert!(!certificate_fires(&b.build().expect("valid"), &input));

    let mut b = DfgBuilder::new();
    let mut last = b.input("x");
    for k in [0.9, -0.95, 0.99] {
        let fb = b.delay_placeholder();
        let t = b.mul_const(k, fb);
        let n = b.add(last, t);
        b.bind_delay(fb, n).expect("placeholder");
        last = n;
    }
    b.output("y", last);
    let cascade = b.build().expect("valid");
    assert!(cascade
        .ranges_interval(&input, &RangeOptions::default())
        .is_ok());
    assert!(!certificate_fires(&cascade, &input));
}
