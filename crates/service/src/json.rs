//! A minimal JSON document model, serializer, and parser.
//!
//! The workspace has no serde (offline build — see `shims/README.md`).
//! The CLI *emits* JSON and the server *round-trips* it, so a tiny value
//! tree, a writer, and a recursive-descent reader are the whole
//! requirement. Output is deterministic: object keys keep insertion
//! order. [`Json::to_compact`] writes the single-line form the wire
//! protocol requires; `Display` keeps the pretty form the CLI has always
//! printed.
//!
//! This module used to live in `crates/cli`; it moved here so the service
//! layer can answer protocol requests with the exact same writer, and the
//! CLI re-exports it unchanged.

use std::fmt;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number; non-finite values serialize as `null` (JSON has no NaN).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience constructor for strings.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Convenience constructor for integer counts.
    #[must_use]
    pub fn int(n: usize) -> Json {
        Json::Num(n as f64)
    }

    /// A `[lo, hi]` pair.
    #[must_use]
    pub fn pair(lo: f64, hi: f64) -> Json {
        Json::Arr(vec![Json::Num(lo), Json::Num(hi)])
    }

    /// Field lookup on an object (first match; `None` on non-objects).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The single-line serialization used by the wire protocol (one
    /// response per line ⇒ no interior newlines, no indentation).
    #[must_use]
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    /// Appends the [`to_compact`](Self::to_compact) form to `out`, so a
    /// caller can frame the line (its `\n`) in the same buffer.
    pub fn write_compact(&self, out: &mut String) {
        use fmt::Write as _;
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) if !v.is_finite() => out.push_str("null"),
            Json::Num(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Str(s) => {
                let _ = write_escaped(out, s);
            }
            Json::Arr(items) => {
                out.push('[');
                for (k, item) in items.iter().enumerate() {
                    if k > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (k, (key, value)) in fields.iter().enumerate() {
                    if k > 0 {
                        out.push(',');
                    }
                    let _ = write_escaped(out, key);
                    out.push(':');
                    value.write_compact(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses one JSON document, requiring it to span the whole input
    /// (trailing whitespace allowed).
    ///
    /// # Errors
    ///
    /// A human-readable description with a byte offset.
    pub fn parse(input: &str) -> Result<Json, String> {
        let mut p = Parser {
            text: input,
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing input at byte {}", p.pos));
        }
        Ok(value)
    }

    fn write(&self, f: &mut fmt::Formatter<'_>, indent: usize) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(v) if !v.is_finite() => f.write_str("null"),
            Json::Num(v) => write!(f, "{v}"),
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) if items.is_empty() => f.write_str("[]"),
            Json::Arr(items) => {
                // Scalar-only arrays print on one line.
                if items
                    .iter()
                    .all(|i| !matches!(i, Json::Arr(_) | Json::Obj(_)))
                {
                    f.write_str("[")?;
                    for (k, item) in items.iter().enumerate() {
                        if k > 0 {
                            f.write_str(", ")?;
                        }
                        item.write(f, indent)?;
                    }
                    return f.write_str("]");
                }
                f.write_str("[\n")?;
                for (k, item) in items.iter().enumerate() {
                    write!(f, "{}", "  ".repeat(indent + 1))?;
                    item.write(f, indent + 1)?;
                    if k + 1 < items.len() {
                        f.write_str(",")?;
                    }
                    f.write_str("\n")?;
                }
                write!(f, "{}]", "  ".repeat(indent))
            }
            Json::Obj(fields) if fields.is_empty() => f.write_str("{}"),
            Json::Obj(fields) => {
                f.write_str("{\n")?;
                for (k, (key, value)) in fields.iter().enumerate() {
                    write!(f, "{}", "  ".repeat(indent + 1))?;
                    write_escaped(f, key)?;
                    f.write_str(": ")?;
                    value.write(f, indent + 1)?;
                    if k + 1 < fields.len() {
                        f.write_str(",")?;
                    }
                    f.write_str("\n")?;
                }
                write!(f, "{}}}", "  ".repeat(indent))
            }
        }
    }
}

/// Writes `s` in its escaped, quoted JSON form. Each run of bytes that
/// needs no escape goes out in one `write_str`; only `"`, `\` and the
/// bytes below 0x20 are escaped (`\n`, `\r`, `\t` by name, the rest as
/// `\u00XX`). Every escaped byte is ASCII, so a run never ends inside a
/// multi-byte UTF-8 sequence.
fn write_escaped<W: fmt::Write>(out: &mut W, s: &str) -> fmt::Result {
    out.write_str("\"")?;
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        if b != b'"' && b != b'\\' && b >= 0x20 {
            continue;
        }
        out.write_str(&s[run..i])?;
        match b {
            b'"' => out.write_str("\\\"")?,
            b'\\' => out.write_str("\\\\")?,
            b'\n' => out.write_str("\\n")?,
            b'\r' => out.write_str("\\r")?,
            b'\t' => out.write_str("\\t")?,
            _ => write!(out, "\\u{b:04x}")?,
        }
        run = i + 1;
    }
    out.write_str(&s[run..])?;
    out.write_str("\"")
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(f, 0)
    }
}

/// The deepest container nesting the parser accepts. The reader recurses
/// per level, and the wire protocol feeds it untrusted TCP input: without
/// a bound, a 1 MiB line of `[[[[…` overflows the handler thread's stack,
/// which aborts the whole process. Real requests nest a handful of
/// levels.
const MAX_DEPTH: usize = 128;

/// Recursive-descent reader over the raw bytes (JSON's structural
/// characters are all ASCII; string contents pass through as UTF-8).
struct Parser<'a> {
    /// The whole input; `bytes` is its UTF-8.
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", byte as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(format!("unexpected `{}` at byte {}", c as char, self.pos)),
            None => Err("unexpected end of input".to_string()),
        }
    }

    /// Depth accounting for both container forms; a failed parse aborts
    /// outright, so only success paths unwind the counter.
    fn descend(&mut self) -> Result<(), String> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            ))
        } else {
            Ok(())
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        self.descend()?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        self.descend()?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            // Combine a surrogate pair when a low
                            // surrogate follows; lone surrogates become
                            // U+FFFD and a non-surrogate second escape is
                            // rewound so it decodes on its own.
                            let c = if (0xd800..0xdc00).contains(&hi) {
                                let mark = self.pos;
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    if (0xdc00..0xe000).contains(&lo) {
                                        let code = 0x10000
                                            + ((u32::from(hi) - 0xd800) << 10)
                                            + (u32::from(lo) - 0xdc00);
                                        char::from_u32(code).unwrap_or('\u{fffd}')
                                    } else {
                                        self.pos = mark;
                                        '\u{fffd}'
                                    }
                                } else {
                                    '\u{fffd}'
                                }
                            } else {
                                char::from_u32(u32::from(hi)).unwrap_or('\u{fffd}')
                            };
                            out.push(c);
                            continue; // hex4 already advanced
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run up to the next quote or backslash in one
                    // slice: both are ASCII, so the run ends on a char
                    // boundary of the input.
                    let run = self.bytes[self.pos..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .map_or(self.bytes.len(), |n| self.pos + n);
                    out.push_str(&self.text[self.pos..run]);
                    self.pos = run;
                }
                None => return Err("unterminated string".to_string()),
            }
        }
    }

    fn hex4(&mut self) -> Result<u16, String> {
        let end = self.pos + 4;
        let slice = self
            .bytes
            .get(self.pos..end)
            .ok_or_else(|| format!("truncated \\u escape at byte {}", self.pos))?;
        let text = std::str::from_utf8(slice).map_err(|_| "bad \\u escape".to_string())?;
        let v = u16::from_str_radix(text, 16)
            .map_err(|_| format!("bad \\u escape at byte {}", self.pos))?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("invalid number `{text}` at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_and_nesting() {
        let doc = Json::Obj(vec![
            ("name".into(), Json::str("fir")),
            ("ok".into(), Json::Bool(true)),
            ("bits".into(), Json::int(8)),
            ("support".into(), Json::pair(-0.5, 0.5)),
            ("nested".into(), Json::Obj(vec![("x".into(), Json::Null)])),
        ]);
        let text = doc.to_string();
        assert!(text.contains("\"name\": \"fir\""));
        assert!(text.contains("\"support\": [-0.5, 0.5]"));
        assert!(text.contains("\"x\": null"));
    }

    #[test]
    fn strings_are_escaped() {
        let s = Json::str("a\"b\\c\nd");
        assert_eq!(s.to_string(), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_string(), "null");
    }

    #[test]
    fn output_is_valid_enough_to_hand_check() {
        let doc = Json::Arr(vec![
            Json::Obj(vec![("k".into(), Json::int(1))]),
            Json::Obj(vec![("k".into(), Json::int(2))]),
        ]);
        let text = doc.to_string();
        assert_eq!(text.matches("\"k\"").count(), 2);
        assert!(text.starts_with("[\n"));
        assert!(text.ends_with(']'));
    }

    #[test]
    fn compact_form_is_single_line() {
        let doc = Json::Obj(vec![
            ("ok".into(), Json::Bool(true)),
            ("xs".into(), Json::Arr(vec![Json::int(1), Json::int(2)])),
            ("s".into(), Json::str("a\nb")),
        ]);
        assert_eq!(
            doc.to_compact(),
            "{\"ok\":true,\"xs\":[1,2],\"s\":\"a\\nb\"}"
        );
        assert!(!doc.to_compact().contains('\n'));
    }

    #[test]
    fn parse_round_trips_compact_output() {
        let doc = Json::Obj(vec![
            ("id".into(), Json::int(7)),
            ("cmd".into(), Json::str("analyze")),
            ("neg".into(), Json::Num(-1.25e-3)),
            (
                "flags".into(),
                Json::Arr(vec![Json::Bool(false), Json::Null]),
            ),
            (
                "nested".into(),
                Json::Obj(vec![("k".into(), Json::str("v"))]),
            ),
        ]);
        let parsed = Json::parse(&doc.to_compact()).unwrap();
        assert_eq!(parsed, doc);
        // The pretty form parses too.
        assert_eq!(Json::parse(&doc.to_string()).unwrap(), doc);
    }

    #[test]
    fn parse_handles_escapes_and_unicode() {
        let parsed = Json::parse(r#"{"s":"a\n\"Aé😀"}"#).unwrap();
        assert_eq!(parsed.get("s").unwrap().as_str().unwrap(), "a\n\"Aé😀");
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "{\"a\":}",
            "[1,]",
            "{\"a\" 1}",
            "nul",
            "1 2",
            "\"unterminated",
            "{\"n\": 1e}",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn parse_bounds_nesting_depth_instead_of_overflowing_the_stack() {
        // An adversarial line of `[[[[…` must produce an error, not
        // recurse once per byte until the thread's stack overflows
        // (which would abort the whole server).
        let deep = "[".repeat(1 << 20);
        let err = Json::parse(&deep).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
        let objs = "{\"k\":".repeat(1 << 18);
        assert!(Json::parse(&objs).unwrap_err().contains("nesting"));

        // Reasonable nesting still parses.
        let ok = format!("{}1{}", "[".repeat(100), "]".repeat(100));
        assert!(Json::parse(&ok).is_ok());
        let too_deep = format!("{}1{}", "[".repeat(129), "]".repeat(129));
        assert!(Json::parse(&too_deep).is_err());
    }

    #[test]
    fn surrogate_escapes_decode_pairs_and_replace_lone_halves() {
        // A proper pair decodes to the astral code point.
        let parsed = Json::parse(r#""\ud83d\ude00""#).unwrap();
        assert_eq!(parsed.as_str(), Some("😀"));
        // A high surrogate followed by a non-surrogate escape: U+FFFD,
        // then the second escape decodes on its own (the unchecked
        // `lo - 0xdc00` used to underflow here).
        let parsed = Json::parse(r#""\ud800\u0041""#).unwrap();
        assert_eq!(parsed.as_str(), Some("\u{fffd}A"));
        // Lone halves — trailing, unescaped follower, or low-first —
        // become U+FFFD.
        assert_eq!(
            Json::parse(r#""\ud800""#).unwrap().as_str(),
            Some("\u{fffd}")
        );
        assert_eq!(
            Json::parse(r#""\ud800A""#).unwrap().as_str(),
            Some("\u{fffd}A")
        );
        assert_eq!(
            Json::parse(r#""\udc00""#).unwrap().as_str(),
            Some("\u{fffd}")
        );
        // High surrogate, then a complete pair: the stray one is
        // replaced, the pair still combines.
        let parsed = Json::parse(r#""\ud800\ud83d\ude00""#).unwrap();
        assert_eq!(parsed.as_str(), Some("\u{fffd}😀"));
    }

    #[test]
    fn multi_byte_runs_interleave_with_escapes_and_surrogate_pairs() {
        let parsed =
            Json::parse(r#"{"s":"héllo\n日本語\ud83d\ude00€\\ß\"😀oké\u00e9\t","t":"Ωx"}"#)
                .unwrap();
        assert_eq!(
            parsed.get("s").unwrap().as_str(),
            Some("héllo\n日本語😀€\\ß\"😀okéé\t")
        );
        assert_eq!(parsed.get("t").unwrap().as_str(), Some("Ωx"));
        // A run that reaches the end of the input is unterminated.
        assert!(Json::parse("\"日本").unwrap_err().contains("unterminated"));
        // Long runs of plain characters decode in one piece.
        let long = "é".repeat(100_000);
        let parsed = Json::parse(&format!("\"{long}\\n{long}\"")).unwrap();
        assert_eq!(parsed.as_str().map(str::len), Some(4 * 100_000 + 1));
    }

    #[test]
    fn accessors_navigate_objects() {
        let doc = Json::parse(r#"{"a": {"b": [1, true, "x"]}, "n": 2.5}"#).unwrap();
        assert_eq!(doc.get("n").unwrap().as_f64(), Some(2.5));
        let arr = match doc.get("a").unwrap().get("b").unwrap() {
            Json::Arr(items) => items,
            other => panic!("{other:?}"),
        };
        assert_eq!(arr[1].as_bool(), Some(true));
        assert_eq!(arr[2].as_str(), Some("x"));
        assert!(doc.get("missing").is_none());
    }
}
