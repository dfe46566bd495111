//! A minimal JSON document builder and parser.
//!
//! The workspace builds fully offline, so `serde`/`serde_json` are not
//! available; this module is the serialization layer for trace exports
//! and the engine's `EngineReport`. The writer emits RFC 8259-conformant
//! text (escaped strings, `null` for non-finite numbers); the parser
//! reads it back for report diffing (`vegen-engine diff`) and round-trip
//! tests. Numbers are `f64` throughout (exact for |v| < 2^53, which
//! covers every counter the pipeline emits).

use std::fmt::Write as _;

/// A JSON value tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any finite number (rendered via `f64`; non-finite becomes `null`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience: a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Convenience: an integer value (exact for |v| < 2^53).
    pub fn int(v: u64) -> Json {
        Json::Num(v as f64)
    }

    /// An object from `(key, value)` pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Member lookup on an object (first match; `None` otherwise).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Render compactly (no whitespace).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Render with two-space indentation.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    /// Parse a JSON document (the inverse of [`Json::render`]).
    ///
    /// # Errors
    ///
    /// Returns a byte-offset-annotated message on malformed input.
    pub fn parse(text: &str) -> Result<Json, String> {
        Json::parse_nested(text, 0)
    }

    /// Parse one value span listed by [`scan_members`]: [`Json::parse`]
    /// with the nesting bound counted from the enclosing object, so a
    /// span is accepted exactly when it would be as part of its line.
    ///
    /// # Errors
    ///
    /// As [`Json::parse`], with byte offsets relative to the span.
    pub fn parse_member(span: &str) -> Result<Json, String> {
        Json::parse_nested(span, 1)
    }

    fn parse_nested(text: &str, depth: usize) -> Result<Json, String> {
        let mut p = Parser { b: text.as_bytes(), i: 0, depth };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.i != p.b.len() {
            return Err(format!("trailing characters at byte {}", p.i));
        }
        Ok(v)
    }

    fn write(&self, out: &mut String, indent: Option<usize>, level: usize) {
        let (nl, pad, pad_in) = match indent {
            Some(w) => ("\n", " ".repeat(w * level), " ".repeat(w * (level + 1))),
            None => ("", String::new(), String::new()),
        };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) => {
                if !v.is_finite() {
                    out.push_str("null");
                } else if *v == v.trunc() && v.abs() < 9.0e15 {
                    let _ = write!(out, "{}", *v as i64);
                } else {
                    let _ = write!(out, "{v}");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(nl);
                    out.push_str(&pad_in);
                    item.write(out, indent, level + 1);
                }
                out.push_str(nl);
                out.push_str(&pad);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(nl);
                    out.push_str(&pad_in);
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, level + 1);
                }
                out.push_str(nl);
                out.push_str(&pad);
                out.push('}');
            }
        }
    }
}

/// Most members [`scan_members`] will list; past this the line is not a
/// request anyone sends, and the duplicate-key check below is quadratic.
const MAX_SCANNED_MEMBERS: usize = 16;

/// The top-level members of one JSON object as `(key, raw value text)`,
/// both borrowed from `text`: one pass that knows strings, escapes and
/// bracket balance, and builds no tree. A caller parses the values it
/// needs with [`Json::parse_member`] and may leave a large one unparsed.
///
/// The scan vouches only for the top level — `{ "key" : value , … }`
/// closed, with nothing but whitespace after it — and for each value
/// span ending where [`Json::parse`] would stop reading that value *if*
/// the value is well-formed. Whether it is well-formed is for
/// `Json::parse_member(span)` to say. Returns `None` for everything
/// else: not an object, a key with an escape in it, a duplicate key, more
/// than 16 members (`MAX_SCANNED_MEMBERS`), unbalanced input, trailing
/// bytes. On `None` — or on a span that does not parse —
/// `Json::parse(text)` is the authority, so a malformed line keeps the
/// error it always had.
pub fn scan_members(text: &str) -> Option<Vec<(&str, &str)>> {
    let b = text.as_bytes();
    let ws = |mut i: usize| {
        while matches!(b.get(i), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            i += 1;
        }
        i
    };
    // `i` is at an opening quote; the index just past the closing one.
    let string_end = |mut i: usize| loop {
        i += 1;
        match b.get(i)? {
            b'"' => return Some(i + 1),
            b'\\' => i += 1,
            _ => {}
        }
    };
    let mut members: Vec<(&str, &str)> = Vec::new();
    let mut i = ws(0);
    if b.get(i) != Some(&b'{') {
        return None;
    }
    i = ws(i + 1);
    if b.get(i) == Some(&b'}') {
        return (ws(i + 1) == b.len()).then_some(members);
    }
    loop {
        if b.get(i) != Some(&b'"') {
            return None;
        }
        let key_end = string_end(i)?;
        let key = &text[i + 1..key_end - 1];
        if key.contains('\\')
            || members.len() == MAX_SCANNED_MEMBERS
            || members.iter().any(|(k, _)| *k == key)
        {
            return None;
        }
        i = ws(key_end);
        if b.get(i) != Some(&b':') {
            return None;
        }
        i = ws(i + 1);
        let start = i;
        match *b.get(i)? {
            b'"' => i = string_end(i)?,
            b'{' | b'[' => {
                let mut depth = 0usize;
                loop {
                    match *b.get(i)? {
                        b'"' => {
                            i = string_end(i)?;
                            continue;
                        }
                        b'{' | b'[' => depth += 1,
                        b'}' | b']' => depth -= 1,
                        _ => {}
                    }
                    i += 1;
                    if depth == 0 {
                        break;
                    }
                }
            }
            _ => {
                while !matches!(b.get(i), None | Some(b',' | b'}' | b' ' | b'\t' | b'\n' | b'\r')) {
                    i += 1;
                }
                if i == start {
                    return None;
                }
            }
        }
        members.push((key, &text[start..i]));
        i = ws(i);
        match b.get(i)? {
            b',' => i = ws(i + 1),
            b'}' => return (ws(i + 1) == b.len()).then_some(members),
            _ => return None,
        }
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Deepest array/object nesting [`Json::parse`] follows. The parser is
/// recursive and reads untrusted lines (serve requests, cache files); the
/// bound turns a line of a million `[` into an error instead of a stack
/// overflow. Reports and cache entries nest under ten levels.
const MAX_DEPTH: usize = 256;

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.i < self.b.len() && matches!(self.b[self.i], b' ' | b'\t' | b'\n' | b'\r') {
            self.i += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", c as char, self.i))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.i))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek().ok_or_else(|| format!("unexpected end of input at byte {}", self.i))? {
            b'n' => self.literal("null", Json::Null),
            b't' => self.literal("true", Json::Bool(true)),
            b'f' => self.literal("false", Json::Bool(false)),
            b'"' => self.string().map(Json::Str),
            b'[' | b'{' if self.depth == MAX_DEPTH => {
                Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", self.i))
            }
            open @ (b'[' | b'{') => {
                self.depth += 1;
                let v = if open == b'[' { self.array() } else { self.object() };
                self.depth -= 1;
                v
            }
            b'-' | b'0'..=b'9' => self.number(),
            c => Err(format!("unexpected character {:?} at byte {}", c as char, self.i)),
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.i)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.i)),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let chunk = self
            .b
            .get(self.i..self.i + 4)
            .ok_or_else(|| format!("truncated \\u escape at byte {}", self.i))?;
        let s = std::str::from_utf8(chunk).map_err(|_| "non-ASCII in \\u escape".to_string())?;
        let v = u32::from_str_radix(s, 16)
            .map_err(|_| format!("bad \\u escape {:?} at byte {}", s, self.i))?;
        self.i += 4;
        Ok(v)
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.i;
            // Fast path: copy the longest run without quotes or escapes.
            while self.i < self.b.len() && self.b[self.i] != b'"' && self.b[self.i] != b'\\' {
                self.i += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.b[start..self.i])
                    .map_err(|_| "invalid UTF-8 in string".to_string())?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| format!("truncated escape at byte {}", self.i))?;
                    self.i += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require the low half.
                                if self.b.get(self.i..self.i + 2) != Some(b"\\u") {
                                    return Err(format!("unpaired surrogate at byte {}", self.i));
                                }
                                self.i += 2;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(format!(
                                        "invalid low surrogate at byte {}",
                                        self.i
                                    ));
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(c)
                                    .ok_or_else(|| format!("invalid codepoint U+{c:04X}"))?,
                            );
                        }
                        c => return Err(format!("bad escape \\{} at byte {}", c as char, self.i)),
                    }
                }
                _ => return Err(format!("unterminated string at byte {}", self.i)),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        while self
            .peek()
            .is_some_and(|c| matches!(c, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.i += 1;
        }
        let s = std::str::from_utf8(&self.b[start..self.i]).unwrap();
        s.parse::<f64>().map(Json::Num).map_err(|_| format!("bad number {s:?} at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_documents() {
        let doc = Json::obj([
            ("name", Json::str("dot4")),
            ("hit", Json::Bool(true)),
            ("cycles", Json::Num(12.5)),
            ("ops", Json::Arr(vec![Json::str("pmaddwd_128")])),
            ("none", Json::Null),
        ]);
        assert_eq!(
            doc.render(),
            r#"{"name":"dot4","hit":true,"cycles":12.5,"ops":["pmaddwd_128"],"none":null}"#
        );
    }

    #[test]
    fn escapes_strings_and_handles_nonfinite() {
        assert_eq!(Json::str("a\"b\\c\nd").render(), r#""a\"b\\c\nd""#);
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        assert_eq!(Json::int(42).render(), "42");
    }

    #[test]
    fn control_characters_escape_in_strings_and_keys() {
        // Every control character below 0x20 must render as an escape —
        // the named shorthands for \n \r \t, \uXXXX for the rest.
        let all_ctl: String = (0u32..0x20).map(|c| char::from_u32(c).unwrap()).collect();
        let rendered = Json::str(&all_ctl).render();
        assert!(!rendered.chars().any(|c| (c as u32) < 0x20), "raw control char in {rendered:?}");
        assert!(rendered.contains("\\u0000") && rendered.contains("\\u001f"));
        assert!(rendered.contains("\\n") && rendered.contains("\\r") && rendered.contains("\\t"));
        // Keys go through the same escaper.
        let doc = Json::Obj(vec![("a\u{1}b\nc".to_string(), Json::Null)]);
        assert_eq!(doc.render(), "{\"a\\u0001b\\nc\":null}");
        // And both round-trip through the parser.
        assert_eq!(Json::parse(&rendered).unwrap(), Json::str(&all_ctl));
        assert_eq!(Json::parse(&doc.render()).unwrap(), doc);
    }

    #[test]
    fn pretty_rendering_is_valid_and_indented() {
        let doc = Json::obj([("a", Json::Arr(vec![Json::int(1), Json::int(2)]))]);
        assert_eq!(doc.render_pretty(), "{\n  \"a\": [\n    1,\n    2\n  ]\n}\n");
    }

    #[test]
    fn nested_pretty_print_indents_each_level() {
        let doc = Json::obj([(
            "runs",
            Json::Arr(vec![Json::obj([
                ("label", Json::str("cold")),
                ("kernels", Json::Arr(vec![Json::obj([("name", Json::str("dot4"))])])),
            ])]),
        )]);
        let pretty = doc.render_pretty();
        // Indentation is two spaces per nesting level, so the deepest key
        // sits at 8 spaces; empty-line-free, newline-terminated.
        assert!(pretty.contains("\n  \"runs\": [\n    {\n      \"label\": \"cold\""));
        assert!(pretty.contains("\n        {\n          \"name\": \"dot4\"\n        }"));
        assert!(pretty.ends_with("}\n"));
        assert_eq!(Json::parse(&pretty).unwrap(), doc);
    }

    #[test]
    fn parses_documents_and_rejects_garbage() {
        let doc =
            Json::parse(r#" {"a": [1, 2.5, -3e2], "b": {"c": null}, "d": "x\u0041"} "#).unwrap();
        assert_eq!(doc.get("a").unwrap().as_arr().unwrap()[2].as_f64(), Some(-300.0));
        assert_eq!(doc.get("b").unwrap().get("c"), Some(&Json::Null));
        assert_eq!(doc.get("d").unwrap().as_str(), Some("xA"));
        for bad in ["", "{", "[1,]", "{\"a\":}", "tru", "\"\\q\"", "1 2", "{\"a\":1,}"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn nesting_is_bounded_not_a_stack_overflow() {
        let deep = |n: usize| "[".repeat(n) + &"]".repeat(n);
        assert!(Json::parse(&deep(MAX_DEPTH)).is_ok());
        let e = Json::parse(&deep(MAX_DEPTH + 1)).unwrap_err();
        assert!(e.contains("nesting deeper than"), "{e}");
        // Unclosed, and far past any stack: still an error, not a crash.
        assert!(Json::parse(&"[{\"a\":".repeat(200_000)).is_err());
        // A member span is one level down from its line.
        let line = format!("{{\"id\":{}}}", deep(MAX_DEPTH));
        let (_, span) = scan_members(&line).unwrap()[0];
        assert!(Json::parse(span).is_ok() && Json::parse(&line).is_err());
        assert!(Json::parse_member(span).is_err());
    }

    #[test]
    fn scan_members_borrows_the_top_level() {
        let line = r#" { "op" : "compile", "id":[1,{"a":"}"}], "function":{"s":"a\"]b","n":[[]]} ,"beam":4 } "#;
        let members = scan_members(line).expect("a well-formed object scans");
        assert_eq!(
            members,
            vec![
                ("op", r#""compile""#),
                ("id", r#"[1,{"a":"}"}]"#),
                ("function", r#"{"s":"a\"]b","n":[[]]}"#),
                ("beam", "4"),
            ]
        );
        // Re-parsing each span and reassembling is the whole-line parse.
        let rebuilt = Json::Obj(
            members.iter().map(|(k, v)| (k.to_string(), Json::parse_member(v).unwrap())).collect(),
        );
        assert_eq!(rebuilt, Json::parse(line).unwrap());
        assert_eq!(scan_members("{}"), Some(vec![]));
        assert_eq!(scan_members(" { } "), Some(vec![]));
    }

    #[test]
    fn scan_members_declines_what_it_will_not_vouch_for() {
        for line in [
            "",
            "[1,2]",
            "\"op\"",
            "{",
            r#"{"a":1"#,
            r#"{"a":1,}"#,
            r#"{"a":1} x"#,
            r#"{"a":1}{"b":2}"#,
            r#"{"a":1 2}"#,
            r#"{"a":}"#,
            r#"{"a" 1}"#,
            r#"{a:1}"#,
            r#"{"a":1,"a":2}"#,
            r#"{"\u0061":1}"#,
            r#"{"a":[1,2}"#,
            r#"{"a":"unterminated}"#,
            r#"{"a":"escape at end\"#,
        ] {
            assert_eq!(scan_members(line), None, "{line:?}");
        }
        // A balanced span whose brackets do not pair is the span parser's
        // to reject, not the scan's.
        let mispaired = scan_members(r#"{"a":[1}}"#).expect("balanced");
        assert_eq!(mispaired, vec![("a", "[1}")]);
        assert!(Json::parse_member(mispaired[0].1).is_err());
        let many: String =
            (0..=MAX_SCANNED_MEMBERS).map(|i| format!("\"k{i}\":0")).collect::<Vec<_>>().join(",");
        assert_eq!(scan_members(&format!("{{{many}}}")), None);
    }

    #[test]
    fn surrogate_pairs_round_trip() {
        let s = "emoji \u{1F600} end";
        let escaped = "\"emoji \\ud83d\\ude00 end\"";
        assert_eq!(Json::parse(escaped).unwrap(), Json::str(s));
        // Our writer emits the char raw; parse of the rendered form agrees.
        assert_eq!(Json::parse(&Json::str(s).render()).unwrap(), Json::str(s));
    }

    #[test]
    fn render_parse_render_is_stable() {
        let doc = Json::obj([
            ("pi", Json::Num(std::f64::consts::PI)),
            ("n", Json::int(1 << 52)),
            ("s", Json::str("a\"b\u{1f}\\")),
            ("l", Json::Arr(vec![Json::Bool(false), Json::Null])),
        ]);
        let once = doc.render();
        let twice = Json::parse(&once).unwrap().render();
        assert_eq!(once, twice);
    }
}
