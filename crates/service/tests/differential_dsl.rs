//! Differential suite for the DSL growth features (vector inputs,
//! tap-index sugar, `range` override clauses): every sugared example
//! under `examples/` must produce **byte-identical** `analyze
//! --format json` output to a hand-desugared twin written with explicit
//! scalar inputs and `delay` chains, on every engine the datapath
//! structurally supports.
//!
//! This extends the golden harness (`golden_session.rs`): where that
//! suite froze the engine dispatch across the Session redesign, this
//! one freezes the *lowering* of the new surface syntax — the sugar
//! must be invisible to every analysis, down to the last bit.
//!
//! The twins are kept inline, statement-for-statement aligned with
//! their sugared files, because byte-identity relies on both programs
//! creating graph nodes in the same order (tap chains are hoisted ahead
//! of each statement exactly so that this alignment is expressible).

use std::path::PathBuf;

use sna_core::EngineKind;
use sna_dfg::Simulator;
use sna_service::exec::{self, AnalyzeParams};
use sna_service::{CompileCache, Json};

fn example(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../examples")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// The desugared twin of `examples/vec_dot.sna`: the vector bank becomes
/// four scalar inputs.
const VEC_DOT_DESUGARED: &str = "\
input v0 in [-1, 1];
input v1 in [-1, 1];
input v2 in [-1, 1];
input v3 in [-1, 1];
let w0 = 0.3125;
let w1 = -0.21875;
let w2 = 0.125;
let w3 = 0.0625;
acc01 = w0*v0 + w1*v1 range [-0.5, 0.5];
acc23 = w2*v2 + w3*v3;
output y = acc01 + acc23;
";

/// The desugared twin of `examples/fir_taps.sna`: explicit delay chain,
/// scalar trim inputs.
const FIR_TAPS_DESUGARED: &str = "\
input x in [-1, 1];
input trim0 in [-0.125, 0.125];
input trim1 in [-0.125, 0.125];
let c0 = 0.0625;
let c1 = 0.25;
let c2 = 0.375;
x1 = delay x;
x2 = delay x1;
x3 = delay x2;
x4 = delay x3;
core = c0*x + c1*x1 + c2*x2 + c1*x3 + c0*x4 range [-0.75, 0.75];
output y = core + trim0 - trim1;
";

/// The desugared twin of `examples/biquad.sna`: the feedback taps become
/// the classic forward-`delay` idiom.
const BIQUAD_DESUGARED: &str = "\
input x in [-0.5, 0.5];
input bias0 in [-0.0625, 0.0625];
input bias1 in [-0.0625, 0.0625];
let b0 = 0.25;
let b1 = 0.5;
let b2 = 0.25;
let a1 = 0.25;
let a2 = -0.125;
x1 = delay x;
x2 = delay x1;
yd1 = delay y;
yd2 = delay yd1;
acc = b0*x + b1*x1 + b2*x2 + a1*yd1 + a2*yd2 range [-1, 1];
y = acc + bias0 + bias1;
output y;
";

/// Each pair with the engines its structure supports (cartesian needs a
/// combinational graph).
fn pairs() -> Vec<(&'static str, &'static str, Vec<EngineKind>)> {
    use EngineKind::*;
    vec![
        (
            "vec_dot.sna",
            VEC_DOT_DESUGARED,
            vec![Auto, Na, Lti, Dfg, Symbolic, Cartesian],
        ),
        (
            "fir_taps.sna",
            FIR_TAPS_DESUGARED,
            vec![Auto, Na, Lti, Dfg, Symbolic],
        ),
        (
            "biquad.sna",
            BIQUAD_DESUGARED,
            vec![Auto, Na, Lti, Dfg, Symbolic],
        ),
    ]
}

/// Renders a report list exactly like the CLI/server do — the byte-level
/// contract of this suite (shared with the golden harness).
fn render(reports: &[(String, sna_core::NoiseReport)]) -> String {
    Json::Arr(
        reports
            .iter()
            .map(|(name, r)| exec::report_json(name, r, true))
            .collect(),
    )
    .to_string()
}

#[test]
fn sugared_and_desugared_twins_lower_to_bit_identical_graphs() {
    for (file, desugared, _) in pairs() {
        let sugar = sna_lang::compile(&example(file)).unwrap();
        let plain = sna_lang::compile(desugared).unwrap();
        assert_eq!(
            sugar.dfg.op_counts(),
            plain.dfg.op_counts(),
            "{file}: node inventories diverge"
        );
        assert_eq!(sugar.dfg.len(), plain.dfg.len(), "{file}");
        assert_eq!(&sugar.input_ranges, &plain.input_ranges, "{file}");
        // Same node ids must carry the same ops (names may differ: the
        // twin names its delay-chain statements, sugar does not).
        for ((ia, na), (_, nb)) in sugar.dfg.nodes().zip(plain.dfg.nodes()) {
            assert_eq!(na.op(), nb.op(), "{file}: node {ia} op diverges");
            assert_eq!(na.args(), nb.args(), "{file}: node {ia} args diverge");
        }
        // Range overrides landed on the same nodes.
        for (id, _) in sugar.dfg.nodes() {
            assert_eq!(
                sugar.dfg.range_override(id),
                plain.dfg.range_override(id),
                "{file}: override at {id} diverges"
            );
        }
        // Bit-identical traces on a deterministic stimulus.
        let mut a = Simulator::new(&sugar.dfg);
        let mut b = Simulator::new(&plain.dfg);
        let mut state = 0x5eed_cafe_f00d_0001u64;
        for _ in 0..64 {
            let frame: Vec<f64> = (0..sugar.dfg.n_inputs())
                .map(|_| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
                })
                .collect();
            let ya: Vec<u64> = a
                .step(&frame)
                .unwrap()
                .iter()
                .map(|v| v.to_bits())
                .collect();
            let yb: Vec<u64> = b
                .step(&frame)
                .unwrap()
                .iter()
                .map(|v| v.to_bits())
                .collect();
            assert_eq!(ya, yb, "{file}: traces diverge");
        }
    }
}

#[test]
fn sugared_analyze_json_is_byte_identical_to_the_desugared_twin_on_every_engine() {
    let bits = 9u8;
    let bins = 24usize;
    let cache = CompileCache::new();
    for (file, desugared, engines) in pairs() {
        let source = example(file);
        let (sugar, _) = cache.get_or_compile(&source).unwrap();
        let (plain, _) = cache.get_or_compile(desugared).unwrap();
        // Genuinely different programs (different canonical forms) …
        assert_ne!(sugar.fingerprint, plain.fingerprint, "{file}");
        for engine in engines {
            let a = exec::analyze_report(&sugar, &AnalyzeParams { engine, bits, bins })
                .unwrap_or_else(|e| panic!("{file} {}: {e}", engine.name()))
                .reports;
            let b = exec::analyze_report(&plain, &AnalyzeParams { engine, bits, bins })
                .unwrap_or_else(|e| panic!("{file} twin {}: {e}", engine.name()))
                .reports;
            // … whose analysis output agrees to the byte.
            assert_eq!(
                render(&a),
                render(&b),
                "{file} {}: sugared vs desugared JSON diverged",
                engine.name()
            );
        }
    }
}

#[test]
fn auto_provenance_matches_between_twins() {
    let cache = CompileCache::new();
    for (file, desugared, _) in pairs() {
        let (sugar, _) = cache.get_or_compile(&example(file)).unwrap();
        let (plain, _) = cache.get_or_compile(desugared).unwrap();
        let a = exec::analyze_report(&sugar, &AnalyzeParams::default()).unwrap();
        let b = exec::analyze_report(&plain, &AnalyzeParams::default()).unwrap();
        assert_eq!(a.engine, b.engine, "{file}");
    }
}
