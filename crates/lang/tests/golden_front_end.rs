//! Frozen front-end output: the rendered parser diagnostics.
//!
//! `tests/fixtures/parser_diagnostics.txt` holds the rendered
//! diagnostics ([`render_all`]) of one malformed source per error path
//! of the lexer and parser; a rewrite of either must reproduce them
//! exactly.

use sna_lang::{parse, render_all};

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
