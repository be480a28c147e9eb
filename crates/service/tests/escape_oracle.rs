//! The JSON string escaper against the char-by-char writer it replaced.
//!
//! `Reference` below is that writer, kept verbatim. For every string
//! tried — every char U+0000–U+007F alone and inside text, multi-byte
//! chars next to escapes, and generated strings — both serializations
//! of [`Json`] (the compact wire form and the pretty CLI form) must give
//! the bytes the reference gives.

use std::fmt;

use proptest::prelude::*;
use sna_service::Json;

/// A string in its escaped, quoted JSON form (the reference writer).
struct Reference<'a>(&'a str);

impl fmt::Display for Reference<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("\"")?;
        for c in self.0.chars() {
            match c {
                '"' => f.write_str("\\\"")?,
                '\\' => f.write_str("\\\\")?,
                '\n' => f.write_str("\\n")?,
                '\r' => f.write_str("\\r")?,
                '\t' => f.write_str("\\t")?,
                c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
                c => write!(f, "{c}")?,
            }
        }
        f.write_str("\"")
    }
}

/// Checks `s` as a string value, as an object key, and inside the
/// pretty form's nesting, in both serializations.
fn assert_matches_reference(s: &str) {
    let quoted = Reference(s).to_string();
    let value = Json::str(s);
    assert_eq!(value.to_compact(), quoted, "compact {s:?}");
    assert_eq!(value.to_string(), quoted, "pretty {s:?}");

    let doc = Json::Obj(vec![
        (s.to_string(), Json::Arr(vec![Json::str(s), Json::Null])),
        (
            "k".to_string(),
            Json::Obj(vec![(s.to_string(), Json::str(s))]),
        ),
    ]);
    assert_eq!(
        doc.to_compact(),
        format!("{{{quoted}:[{quoted},null],\"k\":{{{quoted}:{quoted}}}}}"),
        "compact document {s:?}"
    );
    assert_eq!(
        doc.to_string(),
        format!("{{\n  {quoted}: [{quoted}, null],\n  \"k\": {{\n    {quoted}: {quoted}\n  }}\n}}"),
        "pretty document {s:?}"
    );
}

#[test]
fn every_ascii_char_escapes_like_the_reference() {
    for code in 0u8..=0x7f {
        let c = char::from(code);
        for s in [
            c.to_string(),
            format!("a{c}b"),
            format!("{c}{c}"),
            format!("é{c}日本{c}😀"),
            format!("{c}ß"),
            format!("€{c}"),
        ] {
            assert_matches_reference(&s);
        }
    }
}

#[test]
fn fixed_strings_escape_like_the_reference() {
    for s in [
        "",
        "plain",
        "\"\\\n\r\t\u{0}\u{1f}\u{7f}",
        "héllo\n日本語😀€\\ß\"😀oké\t",
        "\u{80}\u{7ff}\u{800}\u{ffff}\u{10000}\u{10ffff}",
        "error: unexpected character `\"`\n --> request:2:5\n  |\n2 | y = \"\t\u{1};\n",
    ] {
        assert_matches_reference(s);
    }
}

/// Characters from every UTF-8 length class, weighted towards the ones
/// that need escaping.
fn any_char() -> impl Strategy<Value = char> {
    prop_oneof![
        (0u32..0x20).prop_map(|c| char::from_u32(c).unwrap()),
        (0x20u32..0x80).prop_map(|c| char::from_u32(c).unwrap()),
        Just('"'),
        Just('\\'),
        (0x80u32..0x800).prop_map(|c| char::from_u32(c).unwrap()),
        (0x800u32..0x10000).prop_filter_map("not a surrogate", char::from_u32),
        (0x10000u32..0x11_0000).prop_map(|c| char::from_u32(c).unwrap()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn generated_strings_escape_like_the_reference(
        chars in collection::vec(any_char(), 0..64)
    ) {
        let s: String = chars.into_iter().collect();
        assert_matches_reference(&s);
    }
}
