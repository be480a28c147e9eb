//! Frozen front-end outputs that other processes depend on byte for
//! byte.
//!
//! * **Shape keys.** The compile cache's persistent tier stores `shape`
//!   pointer objects under `fnv1a_64(shape_key())`; a rendering change
//!   would orphan every stored pointer. The hashes below pin the key of
//!   every shipped example plus programs that exercise taps, range
//!   overrides, vector banks and three-digit node ids.
//! * **Parser diagnostics.** `tests/fixtures/parser_diagnostics.txt`
//!   holds the rendered diagnostics ([`render_all`]) of one malformed
//!   source per error path of the lexer and parser; a rewrite of either
//!   must reproduce them exactly.

use sna_lang::{compile, fnv1a_64, parse, render_all};

/// Taps (shared chain, feedback through `delay`), a `range` override, a
/// named constant and a vector bank in one program.
const MIXED: &str = "input x in [-2, 2];\n\
                     input v[3] in [-0.5, 0.5];\n\
                     let k = 0.25;\n\
                     acc = k*x + 0.5*x[n-2] + v[1] range [-3, 3];\n\
                     fb = delay y;\n\
                     y = acc - 0.125*fb + v[0]*v[2];\n\
                     output y;\n\
                     output z = x[n-1] * v[2];\n";

/// A 150-tap FIR through tap sugar: node ids past 100.
fn wide_fir() -> String {
    let mut s = String::from("input x in [-1, 1];\noutput y = 0.01*x");
    for k in 1..150 {
        s.push_str(&format!(" + {}*x[n-{k}]", 0.001 * k as f64));
    }
    s.push_str(";\n");
    s
}

fn shape_hash(source: &str) -> u64 {
    let lowered = compile(source).unwrap_or_else(|e| panic!("{e:?}"));
    fnv1a_64(lowered.shape_key().as_bytes())
}

#[test]
fn shape_keys_of_the_examples_are_frozen() {
    let golden: &[(&str, u64)] = &[
        ("biquad.sna", 0xb117_3ff9_dd2e_2cdd),
        ("diffeq.sna", 0xb2e4_cf68_16a1_b353),
        ("fir.sna", 0xe2e0_ae33_880d_ed06),
        ("fir_taps.sna", 0x374e_7621_793e_9c1a),
        ("quadratic.sna", 0x05bb_ebf2_4321_8677),
        ("rgb.sna", 0xd194_20f3_4f9d_cd5e),
        ("vec_dot.sna", 0x7a5a_08ef_689f_ab42),
    ];
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples");
    let mut shipped: Vec<String> = std::fs::read_dir(dir)
        .expect("examples directory")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .filter(|name| name.ends_with(".sna"))
        .collect();
    shipped.sort();
    let frozen: Vec<&str> = golden.iter().map(|(name, _)| *name).collect();
    assert_eq!(shipped, frozen, "every shipped example needs a frozen key");
    for (name, hash) in golden {
        let source = std::fs::read_to_string(format!("{dir}/{name}")).expect("example");
        assert_eq!(shape_hash(&source), *hash, "{name}");
    }
}

#[test]
fn shape_keys_with_taps_overrides_and_banks_are_frozen() {
    assert_eq!(shape_hash(MIXED), 0x8aaf_75cc_dcec_e0e3);
    assert_eq!(shape_hash(&wide_fir()), 0xefcd_84dc_616e_451d);
}

#[test]
fn the_mixed_shape_key_reads_as_documented() {
    let key = compile(MIXED).unwrap().shape_key();
    let expected = "\
n0 in0 \"x\"
n1 in1 \"v[0]\"
n2 in2 \"v[1]\"
n3 in3 \"v[2]\"
n4 const# \"k\"
n5 z⁻¹ n0
n6 z⁻¹ n5
n7 mul n4 n0
n8 const#
n9 mul n8 n6
n10 add n7 n9
n11 add n10 n2 \"acc\"
n12 z⁻¹ n17 \"fb\"
n13 const#
n14 mul n13 n12
n15 sub n11 n14
n16 mul n1 n3
n17 add n15 n16 \"y\"
n18 mul n5 n3 \"z\"
out \"y\" n17
out \"z\" n18
override n11 c008000000000000 4008000000000000
range c000000000000000 4000000000000000
range bfe0000000000000 3fe0000000000000
range bfe0000000000000 3fe0000000000000
range bfe0000000000000 3fe0000000000000
";
    assert_eq!(key, expected);
}

/// One malformed source per diagnostic path, named for the path.
const CASES: &[(&str, &str)] = &[
    ("missing_semi", "input x;\ny = 0.5*x\noutput y;\n"),
    ("missing_semi_at_eof", "input x;\noutput y = x"),
    ("bad_statement_head", "input x;\n+ = 1;\noutput x;\n"),
    ("non_identifier_input_name", "input 3 in [-1, 1];\n"),
    ("non_identifier_output_name", "input x;\noutput ;\n"),
    ("keyword_as_name", "input delay;\n"),
    ("missing_eq_after_name", "input x;\ny 0.5*x;\n"),
    ("bad_let_not_a_number", "let k = x;\n"),
    ("bad_let_expression", "let k = 0.5 * 2;\n"),
    ("bad_let_missing_eq", "let k 0.5;\n"),
    ("bad_range_bound", "input x in [a, 1];\n"),
    ("missing_range_comma", "input x in [1 2];\n"),
    ("missing_range_close", "input x in [-1, 1;\n"),
    ("missing_range_open", "input x in -1, 1;\n"),
    ("vector_width_zero", "input v[0];\n"),
    ("vector_width_fraction", "input v[2.5];\n"),
    ("vector_width_not_number", "input v[w];\n"),
    ("vector_width_unclosed", "input v[4 in [-1, 1];\n"),
    ("bad_index_name", "input x;\ny = x[m];\n"),
    ("bad_index_tap_fraction", "input x;\ny = x[n-1.5];\n"),
    ("bad_index_tap_too_deep", "input x;\ny = x[n-99999];\n"),
    ("bad_index_plus", "input x;\ny = x[n+1];\n"),
    ("bad_index_element_too_wide", "input v[4];\ny = v[5000];\n"),
    ("missing_expression", "input x;\ny = ;\n"),
    ("unclosed_paren", "input x;\ny = (x + 1;\n"),
    ("unclosed_paren_at_eof", "input x;\ny = (x + 1"),
    ("bare_output_range", "input x;\noutput x range [0, 1];\n"),
    ("nesting_cap_parens", "<300 parens>"),
    ("nesting_cap_minus", "<260 minus signs>"),
    (
        "multi_error_recovery",
        "t = ;\nu = 1 +;\nv = 2;\nw = x[q];\nlet k = y;\n",
    ),
    ("lex_bad_char", "input x;\ny = x $ 2;\n"),
    ("lex_number_overflow", "input x;\ny = 1e999 * x;\n"),
];

fn case_source(source: &str) -> String {
    match source {
        "<300 parens>" => format!(
            "input x;\ny = {}x{};\noutput y;\n",
            "(".repeat(300),
            ")".repeat(300)
        ),
        "<260 minus signs>" => format!("input x;\ny = {}x;\noutput y;\n", "-".repeat(260)),
        plain => plain.to_string(),
    }
}

/// Every case's rendered diagnostics, in the fixture's layout.
fn rendered_cases() -> String {
    let mut out = String::new();
    for (name, source) in CASES {
        let source = case_source(source);
        let errors = parse(&source).expect_err(name);
        out.push_str(&format!("== {name} ({} diagnostics)\n", errors.len()));
        out.push_str(&render_all(&errors, &source, "case.sna"));
        out.push_str("\n\n");
    }
    out
}

#[test]
fn parser_diagnostics_match_the_golden_fixture() {
    let golden = include_str!("fixtures/parser_diagnostics.txt");
    let rendered = rendered_cases();
    for (want, got) in golden.split("\n== ").zip(rendered.split("\n== ")) {
        assert_eq!(got, want);
    }
    assert_eq!(rendered, golden);
}
