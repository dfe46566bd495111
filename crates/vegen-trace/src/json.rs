//! A minimal JSON document builder and reader.
//!
//! The workspace builds fully offline, so `serde`/`serde_json` are not
//! available; this module is the serialization layer for trace exports,
//! the engine's reports and its disk-cache entries. The writer
//! emits RFC 8259-conformant text (escaped strings, `null` for non-finite
//! numbers). Numbers are `f64` throughout (exact for |v| < 2^53, which
//! covers every counter the pipeline emits).
//!
//! There is one reader, [`Doc::parse`]: a single pass over the text that
//! validates it completely (every escape, every number, the nesting bound)
//! and records it as one flat array of nodes over the borrowed bytes, each
//! holding the index of its next sibling — the tape layout of simdjson
//! (Langdale & Lemire, VLDB J. 2019). A [`Node`] reads that array without
//! building anything; [`Json::parse`] is the same pass followed by a tree
//! build, for callers that want an owned, editable value.

use std::borrow::Cow;
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

    /// Parse a JSON document (the inverse of [`Json::render`]): [`Doc::parse`]
    /// and a tree build.
    ///
    /// # Errors
    ///
    /// Returns a byte-offset-annotated message on malformed input.
    pub fn parse(text: &str) -> Result<Json, String> {
        Doc::parse(text).map(|doc| doc.root().to_json())
    }

    /// Parse one value span listed by [`scan_members`]: [`Json::parse`]
    /// with the nesting bound counted from the enclosing object, so a
    /// span is accepted exactly when it would be as part of its line.
    ///
    /// # Errors
    ///
    /// As [`Json::parse`], with byte offsets relative to the span.
    pub fn parse_member(span: &str) -> Result<Json, String> {
        Doc::parse_member(span).map(|doc| doc.root().to_json())
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

/// What one node of a [`Doc`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Null,
    True,
    False,
    Num,
    Str,
    Arr,
    Obj,
}

/// One node of a [`Doc`]. An object's children are its keys and values,
/// alternating; every node's `next` is the index just past its subtree,
/// which is where its next sibling starts.
#[derive(Debug, Clone, Copy)]
struct Slot {
    kind: Kind,
    /// A string with at least one escape, decoded on read.
    escaped: bool,
    /// Byte span: a string's contents without the quotes, a container's
    /// text from its opening bracket to just past its closing one.
    start: usize,
    end: usize,
    /// A number's value.
    num: f64,
    next: usize,
}

/// A validated JSON document, recorded as one flat array of nodes over
/// the borrowed text. Read it through [`Doc::root`].
#[derive(Debug)]
pub struct Doc<'t> {
    text: &'t str,
    slots: Vec<Slot>,
}

impl<'t> Doc<'t> {
    /// Read and validate a whole document in one pass.
    ///
    /// # Errors
    ///
    /// Returns a byte-offset-annotated message on malformed input; the
    /// first error in the text, as a recursive-descent reader finds it.
    pub fn parse(text: &'t str) -> Result<Doc<'t>, String> {
        Doc::tokenize(text, 0)
    }

    /// [`Doc::parse`] of one value span listed by [`scan_members`], with
    /// the nesting bound counted from the enclosing object (see
    /// [`Json::parse_member`]).
    ///
    /// # Errors
    ///
    /// As [`Doc::parse`], with byte offsets relative to the span.
    pub fn parse_member(span: &'t str) -> Result<Doc<'t>, String> {
        Doc::tokenize(span, 1)
    }

    /// The top-level value.
    pub fn root(&self) -> Node<'_> {
        Node { text: self.text, slots: &self.slots, at: 0 }
    }

    /// The tokenizer: the grammar of a recursive-descent reader, run with
    /// an explicit stack of open containers. Every check and every error
    /// text and offset is that reader's; `depth` containers are already
    /// open around the text.
    fn tokenize(text: &'t str, depth: usize) -> Result<Doc<'t>, String> {
        let b = text.as_bytes();
        // Cache entries run at five to seven bytes a node: one allocation.
        let mut slots: Vec<Slot> = Vec::with_capacity(b.len() / 4 + 1);
        let mut open: Vec<usize> = Vec::new();
        let leaf = |kind, start, end, num, at| Slot {
            kind,
            escaped: false,
            start,
            end,
            num,
            next: at + 1,
        };
        let mut i = skip_ws(b, 0);
        loop {
            // A value starts at `i`.
            let at = slots.len();
            match *b.get(i).ok_or_else(|| format!("unexpected end of input at byte {i}"))? {
                c @ (b'n' | b't' | b'f') => {
                    let (word, kind) = match c {
                        b'n' => ("null", Kind::Null),
                        b't' => ("true", Kind::True),
                        _ => ("false", Kind::False),
                    };
                    if !b[i..].starts_with(word.as_bytes()) {
                        return Err(format!("invalid literal at byte {i}"));
                    }
                    slots.push(leaf(kind, i, i + word.len(), 0.0, at));
                    i += word.len();
                }
                b'"' => {
                    let (close, escaped) = string_close(b, i + 1)?;
                    slots.push(Slot { escaped, ..leaf(Kind::Str, i + 1, close, 0.0, at) });
                    i = close + 1;
                }
                b'[' | b'{' if depth + open.len() == MAX_DEPTH => {
                    return Err(format!("nesting deeper than {MAX_DEPTH} at byte {i}"));
                }
                c @ (b'[' | b'{') => {
                    let (kind, close) =
                        if c == b'[' { (Kind::Arr, b']') } else { (Kind::Obj, b'}') };
                    slots.push(leaf(kind, i, i, 0.0, at));
                    i = skip_ws(b, i + 1);
                    if b.get(i) == Some(&close) {
                        i += 1;
                        slots[at].end = i;
                    } else {
                        if open.is_empty() {
                            // Reports, entries and requests nest under ten
                            // levels: one allocation, and none for a scalar.
                            open.reserve(16);
                        }
                        open.push(at);
                        if kind == Kind::Obj {
                            i = key(b, i, &mut slots)?;
                        }
                        continue;
                    }
                }
                b'-' | b'0'..=b'9' => {
                    let (end, num) = number(b, i)?;
                    slots.push(leaf(Kind::Num, i, end, num, at));
                    i = end;
                }
                c => return Err(format!("unexpected character {:?} at byte {i}", c as char)),
            }
            // A value is complete: close what it completes, then move on
            // to the next element or member.
            loop {
                let Some(&top) = open.last() else {
                    i = skip_ws(b, i);
                    if i != b.len() {
                        return Err(format!("trailing characters at byte {i}"));
                    }
                    return Ok(Doc { text, slots });
                };
                i = skip_ws(b, i);
                let obj = slots[top].kind == Kind::Obj;
                match b.get(i) {
                    Some(b',') => {
                        i = skip_ws(b, i + 1);
                        if obj {
                            i = key(b, i, &mut slots)?;
                        }
                        break;
                    }
                    Some(b']') if !obj => {}
                    Some(b'}') if obj => {}
                    _ if obj => return Err(format!("expected ',' or '}}' at byte {i}")),
                    _ => return Err(format!("expected ',' or ']' at byte {i}")),
                }
                i += 1;
                slots[top].end = i;
                slots[top].next = slots.len();
                open.pop();
            }
        }
    }
}

/// A read-only view of one value of a [`Doc`]. `Copy`; reading it
/// allocates only to decode a string with escapes in it.
#[derive(Debug, Clone, Copy)]
pub struct Node<'a> {
    text: &'a str,
    slots: &'a [Slot],
    at: usize,
}

impl<'a> Node<'a> {
    #[inline]
    fn slot(self) -> &'a Slot {
        &self.slots[self.at]
    }

    #[inline]
    fn child(self, at: usize) -> Node<'a> {
        Node { at, ..self }
    }

    /// Member lookup on an object (first match, like [`Json::get`];
    /// `None` otherwise).
    #[inline]
    pub fn get(self, key: &str) -> Option<Node<'a>> {
        let s = self.slot();
        if s.kind != Kind::Obj {
            return None;
        }
        let mut at = self.at + 1;
        while at < s.next {
            let k = &self.slots[at];
            let hit = if k.escaped {
                self.child(at).as_str().is_some_and(|k| k == key)
            } else {
                &self.text.as_bytes()[k.start..k.end] == key.as_bytes()
            };
            if hit {
                return Some(self.child(at + 1));
            }
            at = self.slots[at + 1].next;
        }
        None
    }

    /// The string payload, if this is a string: borrowed from the text
    /// unless it has escapes to decode.
    #[inline]
    pub fn as_str(self) -> Option<Cow<'a, str>> {
        let s = self.slot();
        if s.kind != Kind::Str {
            return None;
        }
        if !s.escaped {
            return Some(Cow::Borrowed(&self.text[s.start..s.end]));
        }
        let mut out = String::with_capacity(s.end - s.start);
        string_body(self.text.as_bytes(), s.start, Some(&mut out))
            .expect("the tokenizer validated this string");
        Some(Cow::Owned(out))
    }

    /// The numeric payload, if this is a number.
    #[inline]
    pub fn as_f64(self) -> Option<f64> {
        let s = self.slot();
        (s.kind == Kind::Num).then_some(s.num)
    }

    /// The boolean payload, if this is a boolean.
    #[inline]
    pub fn as_bool(self) -> Option<bool> {
        match self.slot().kind {
            Kind::True => Some(true),
            Kind::False => Some(false),
            _ => None,
        }
    }

    /// Whether this is `null`.
    #[inline]
    pub fn is_null(self) -> bool {
        self.slot().kind == Kind::Null
    }

    /// The elements, if this is an array.
    #[inline]
    pub fn items(self) -> Option<Items<'a>> {
        (self.slot().kind == Kind::Arr).then(|| self.children())
    }

    /// The nodes one level down: an array's elements, an object's keys
    /// and values alternating; none for a scalar.
    #[inline]
    fn children(self) -> Items<'a> {
        Items { node: self.child(self.at + 1), end: self.slot().next }
    }

    /// The value as an owned tree.
    pub fn to_json(self) -> Json {
        let mut children = self.children();
        let len = children.clone().count();
        match self.slot().kind {
            Kind::Null => Json::Null,
            Kind::True => Json::Bool(true),
            Kind::False => Json::Bool(false),
            Kind::Num => Json::Num(self.slot().num),
            Kind::Str => Json::Str(self.as_str().unwrap_or_default().into_owned()),
            Kind::Arr => {
                let mut out = Vec::with_capacity(len);
                out.extend(children.map(Node::to_json));
                Json::Arr(out)
            }
            Kind::Obj => {
                let mut out = Vec::with_capacity(len / 2);
                while let (Some(key), Some(value)) = (children.next(), children.next()) {
                    out.push((key.as_str().unwrap_or_default().into_owned(), value.to_json()));
                }
                Json::Obj(out)
            }
        }
    }
}

/// The elements of an array [`Node`].
#[derive(Debug, Clone)]
pub struct Items<'a> {
    node: Node<'a>,
    end: usize,
}

impl<'a> Iterator for Items<'a> {
    type Item = Node<'a>;

    #[inline]
    fn next(&mut self) -> Option<Node<'a>> {
        let item = self.node;
        if item.at == self.end {
            return None;
        }
        self.node.at = item.slot().next;
        Some(item)
    }
}

/// Deepest array/object nesting [`Doc::parse`] follows. The bound turns
/// an untrusted line of a million `[` (serve requests, cache files) into
/// an error instead of an unbounded stack of open containers — and keeps
/// [`Node::to_json`], which recurses, off the call stack's edge. Reports
/// and cache entries nest under ten levels.
const MAX_DEPTH: usize = 256;

fn skip_ws(b: &[u8], mut i: usize) -> usize {
    while matches!(b.get(i), Some(b' ' | b'\t' | b'\n' | b'\r')) {
        i += 1;
    }
    i
}

/// An object member's key and colon, from `i` (at the key's opening
/// quote): pushes the key's node and returns where the value starts.
fn key(b: &[u8], i: usize, slots: &mut Vec<Slot>) -> Result<usize, String> {
    if b.get(i) != Some(&b'"') {
        return Err(format!("expected '\"' at byte {i}"));
    }
    let (close, escaped) = string_close(b, i + 1)?;
    let at = slots.len();
    slots.push(Slot { kind: Kind::Str, escaped, start: i + 1, end: close, num: 0.0, next: at + 1 });
    let i = skip_ws(b, close + 1);
    if b.get(i) != Some(&b':') {
        return Err(format!("expected ':' at byte {i}"));
    }
    Ok(skip_ws(b, i + 1))
}

/// [`string_body`] without decoding, with the common case — no escape —
/// as one scan for the closing quote.
#[inline]
fn string_close(b: &[u8], i: usize) -> Result<(usize, bool), String> {
    match b[i..].iter().position(|&c| c == b'"' || c == b'\\') {
        Some(n) if b[i + n] == b'"' => Ok((i + n, false)),
        _ => string_body(b, i, None),
    }
}

/// A string's contents from `i` (just past the opening quote): every
/// escape checked, and decoded into `out` when one is given. Returns the
/// index of the closing quote and whether there was any escape.
fn string_body(
    b: &[u8],
    mut i: usize,
    mut out: Option<&mut String>,
) -> Result<(usize, bool), String> {
    let mut escaped = false;
    loop {
        let start = i;
        // The longest run without quotes or escapes. It starts and ends
        // at an ASCII byte or the end of a `str`, so it is UTF-8.
        while i < b.len() && b[i] != b'"' && b[i] != b'\\' {
            i += 1;
        }
        if let Some(out) = out.as_deref_mut() {
            out.push_str(
                std::str::from_utf8(&b[start..i])
                    .map_err(|_| "invalid UTF-8 in string".to_string())?,
            );
        }
        match b.get(i) {
            Some(b'"') => return Ok((i, escaped)),
            Some(b'\\') => {
                escaped = true;
                i += 1;
                let esc = *b.get(i).ok_or_else(|| format!("truncated escape at byte {i}"))?;
                i += 1;
                let c = match esc {
                    b'"' => '"',
                    b'\\' => '\\',
                    b'/' => '/',
                    b'n' => '\n',
                    b'r' => '\r',
                    b't' => '\t',
                    b'b' => '\u{8}',
                    b'f' => '\u{c}',
                    b'u' => {
                        let hi = hex4(b, i)?;
                        i += 4;
                        let c = if (0xD800..0xDC00).contains(&hi) {
                            // Surrogate pair: require the low half.
                            if b.get(i..i + 2) != Some(b"\\u") {
                                return Err(format!("unpaired surrogate at byte {i}"));
                            }
                            i += 2;
                            let lo = hex4(b, i)?;
                            i += 4;
                            if !(0xDC00..0xE000).contains(&lo) {
                                return Err(format!("invalid low surrogate at byte {i}"));
                            }
                            0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                        } else {
                            hi
                        };
                        char::from_u32(c).ok_or_else(|| format!("invalid codepoint U+{c:04X}"))?
                    }
                    c => return Err(format!("bad escape \\{} at byte {i}", c as char)),
                };
                if let Some(out) = out.as_deref_mut() {
                    out.push(c);
                }
            }
            _ => return Err(format!("unterminated string at byte {i}")),
        }
    }
}

/// The four hex digits of a `\u` escape at `i`.
fn hex4(b: &[u8], i: usize) -> Result<u32, String> {
    let chunk = b.get(i..i + 4).ok_or_else(|| format!("truncated \\u escape at byte {i}"))?;
    let s = std::str::from_utf8(chunk).map_err(|_| "non-ASCII in \\u escape".to_string())?;
    u32::from_str_radix(s, 16).map_err(|_| format!("bad \\u escape {s:?} at byte {i}"))
}

/// The number starting at `start`: the longest run of number characters,
/// read as `f64`. Returns where it ends and its value.
fn number(b: &[u8], start: usize) -> Result<(usize, f64), String> {
    // An integer of up to 15 digits is exact in an `f64`: read it while
    // scanning, with no float parse.
    let neg = b[start] == b'-';
    let (mut i, mut v) = (start + usize::from(neg), 0u64);
    while let Some(&d @ b'0'..=b'9') = b.get(i) {
        v = v.wrapping_mul(10).wrapping_add(u64::from(d - b'0'));
        i += 1;
    }
    let digits = i - start - usize::from(neg);
    let more = matches!(b.get(i), Some(b'-' | b'+' | b'.' | b'e' | b'E'));
    if (1..=15).contains(&digits) && !more {
        return Ok((i, if neg { -(v as f64) } else { v as f64 }));
    }
    while matches!(b.get(i), Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')) {
        i += 1;
    }
    let s = std::str::from_utf8(&b[start..i]).expect("number characters are ASCII");
    s.parse::<f64>().map(|v| (i, v)).map_err(|_| format!("bad number {s:?} at byte {start}"))
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

/// The recursive-descent tree parser the tokenizer replaced, kept
/// verbatim as the reference the differential tests compare it with.
#[cfg(test)]
mod reference {
    use super::{Json, MAX_DEPTH};

    pub(super) fn parse_nested(text: &str, depth: usize) -> Result<Json, String> {
        let mut p = Parser { b: text.as_bytes(), i: 0, depth };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.i != p.b.len() {
            return Err(format!("trailing characters at byte {}", p.i));
        }
        Ok(v)
    }

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
            match self
                .peek()
                .ok_or_else(|| format!("unexpected end of input at byte {}", self.i))?
            {
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
            let s =
                std::str::from_utf8(chunk).map_err(|_| "non-ASCII in \\u escape".to_string())?;
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
                                        return Err(format!(
                                            "unpaired surrogate at byte {}",
                                            self.i
                                        ));
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
                            c => {
                                return Err(format!(
                                    "bad escape \\{} at byte {}",
                                    c as char, self.i
                                ))
                            }
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
    fn nodes_read_the_document_in_place() {
        let text = r#" {"a": [1, 2.5, -3e2, []], "b": {"c": null, "t": true}, "d": "x\u0041",
                        "e": "plain", "a": "second a", "\u0066": false} "#;
        let doc = Doc::parse(text).unwrap();
        let root = doc.root();
        let a: Vec<Node<'_>> = root.get("a").unwrap().items().unwrap().collect();
        assert_eq!(a.len(), 4);
        assert_eq!(a[2].as_f64(), Some(-300.0));
        assert_eq!(a[3].items().unwrap().count(), 0);
        assert!(root.get("b").unwrap().get("c").unwrap().is_null());
        assert_eq!(root.get("b").unwrap().get("t").unwrap().as_bool(), Some(true));
        // Strings borrow unless there is an escape to decode.
        assert!(matches!(root.get("e").unwrap().as_str(), Some(Cow::Borrowed("plain"))));
        assert!(matches!(root.get("d").unwrap().as_str(), Some(Cow::Owned(s)) if s == "xA"));
        // First match wins, and keys are compared decoded, as `Json::get` does.
        assert_eq!(root.get("a").unwrap().items().map(Iterator::count), Some(4));
        assert_eq!(root.get("f").unwrap().as_bool(), Some(false));
        // Accessors of the wrong kind say no.
        assert!(root.get("zz").is_none() && root.items().is_none());
        assert!(a[0].as_str().is_none() && a[0].get("x").is_none() && a[0].as_bool().is_none());
        let Json::Obj(members) = root.to_json() else { panic!("an object") };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["a", "b", "d", "e", "a", "f"]);
        assert_eq!(root.to_json(), Json::parse(text).unwrap());
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

    /// The same xorshift64* stream as `vegen_ir::rng::XorShift` (this
    /// crate depends on no other workspace crate).
    struct XorShift(u64);

    impl XorShift {
        fn new(seed: u64) -> XorShift {
            XorShift(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1))
        }

        fn below(&mut self, n: usize) -> usize {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            (self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) % n.max(1) as u64) as usize
        }
    }

    /// Real documents of the three kinds the reader is given: a disk-cache
    /// entry, a serve compile request, and an engine report.
    const CORPUS: [&str; 3] = [
        include_str!("../tests/fixtures/cache_entry.json"),
        include_str!("../tests/fixtures/compile_request.json"),
        include_str!("../tests/fixtures/engine_report.json"),
    ];

    /// One seeded edit of `text` at the byte level, biased to bytes that
    /// matter to a JSON reader. Works on bytes and keeps the result only
    /// if it is still UTF-8, as every reader's input is a `str`.
    fn mutate(rng: &mut XorShift, text: &str) -> String {
        const BYTES: &[u8] = b"\"\\{}[],: \t\n0123456789-+.eEtfnulxau";
        const INSERTS: [&str; 14] = [
            "\\\"", "\"", "\\", "]", "}", "{", "[", "\\u00e9", "\\ud800", "\\udc00", "1e999", "-",
            "é", "\\u+0041",
        ];
        let mut b = text.as_bytes().to_vec();
        let at = |rng: &mut XorShift, b: &[u8]| rng.below(b.len() + 1).min(b.len());
        match rng.below(6) {
            0 if !b.is_empty() => {
                let i = at(rng, &b).min(b.len() - 1);
                b[i] = BYTES[rng.below(BYTES.len())];
            }
            1 => {
                let i = at(rng, &b);
                let s = INSERTS[rng.below(INSERTS.len())];
                b.splice(i..i, s.bytes());
            }
            2 if !b.is_empty() => {
                b.remove(at(rng, &b).min(b.len() - 1));
            }
            3 => b.truncate(at(rng, &b)),
            4 => {
                let (i, j) = (at(rng, &b), at(rng, &b));
                b.drain(i.min(j)..i.max(j));
            }
            _ => {
                // Duplicate a slice somewhere else: unbalanced brackets,
                // doubled members, nesting.
                let (i, j) = (at(rng, &b), at(rng, &b));
                let piece = b[i.min(j)..i.max(j).min(i.min(j) + 64)].to_vec();
                let k = at(rng, &b);
                b.splice(k..k, piece);
            }
        }
        String::from_utf8(b).unwrap_or_else(|_| text.to_string())
    }

    /// Differential fuzz of the tokenizer against the recursive-descent
    /// parser it replaced: over seeded mutations of real documents, both
    /// return the same tree or the same error text, for a whole document
    /// and for a member span.
    #[test]
    fn the_tokenizer_reads_exactly_what_the_tree_parser_read() {
        const CASES: usize = 20_000;
        let seed = 0x7a9e_0026_u64;
        let mut rng = XorShift::new(seed);
        let (mut accepted, mut rejected) = (0usize, 0usize);
        for n in 0..CASES {
            let base = CORPUS[rng.below(CORPUS.len())];
            let mut text = base.to_string();
            for _ in 0..[0, 1, 1, 1, 2, 3][rng.below(6)] {
                text = mutate(&mut rng, &text);
            }
            let depth = usize::from(rng.below(4) == 0);
            let got = Doc::tokenize(&text, depth).map(|doc| doc.root().to_json());
            let want = reference::parse_nested(&text, depth);
            if got != want {
                let shown: String = text.chars().take(400).collect();
                panic!(
                    "seed {seed:#x}, case {n} (depth {depth}): tokenizer {:?} vs parser {:?} on \
                     {shown:?}",
                    got.map(|j| j.render()),
                    want.map(|j| j.render())
                );
            }
            if want.is_ok() {
                accepted += 1;
            } else {
                rejected += 1;
            }
        }
        assert!(accepted > CASES / 10 && rejected > CASES / 2, "{accepted} / {rejected}");
    }

    /// The error paths one byte away from valid, each against the
    /// reference: every message and offset the grammar can produce.
    #[test]
    fn every_error_text_matches_the_tree_parser() {
        let deep = "[".repeat(MAX_DEPTH + 1);
        for text in [
            "",
            " ",
            "n",
            "nul",
            "tru",
            "fals",
            "x",
            "-",
            "1.2.3",
            "1e",
            "+1",
            "[",
            "[1",
            "[1,",
            "[1,]",
            "[1 2]",
            "{",
            "{\"a\"",
            "{\"a\" 1}",
            "{\"a\":",
            "{\"a\":1,}",
            "{1:2}",
            "{\"a\":1 \"b\"}",
            "\"",
            "\"\\",
            "\"\\q\"",
            "\"\\u12\"",
            "\"\\u12g4\"",
            "\"\\u+123\"",
            "\"\\ud800\"",
            "\"\\ud800\\u0041\"",
            "\"\\udc00\"",
            "\"\\u00é\"",
            "1 2",
            "[]]",
            "{}}",
            "\u{feff}1",
            "é",
            deep.as_str(),
            "[1e999]",
            "-0",
            "0012",
            "123456789012345678",
        ] {
            for depth in [0, 1] {
                let got = Doc::tokenize(text, depth).map(|doc| doc.root().to_json());
                assert_eq!(got, reference::parse_nested(text, depth), "{text:?} at depth {depth}");
            }
        }
    }
}
