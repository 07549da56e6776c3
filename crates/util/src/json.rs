//! A small JSON document model: build, print, parse.
//!
//! This is intentionally tiny — the workspace only needs to emit reports
//! and experiment dumps and to read them back in tests. Numbers are kept
//! as either `i64` or `f64`; objects preserve insertion order. All
//! printing goes through [`Writer`], which large outputs can also drive
//! directly instead of building a [`Value`] first.

use std::fmt;
use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (covers every counter the simulator reports).
    Int(i64),
    /// A floating-point number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, in insertion order.
    Object(Vec<(String, Value)>),
}

static NULL: Value = Value::Null;

impl Value {
    /// Build an object from key/value pairs.
    #[must_use]
    pub fn object(pairs: Vec<(&str, Value)>) -> Value {
        Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Look up a key of an object; `None` for other kinds or missing keys.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The integer payload, if this is an integer.
    #[must_use]
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// The integer payload as unsigned, if non-negative.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Int(v) if *v >= 0 => Some(*v as u64),
            _ => None,
        }
    }

    /// The numeric payload widened to `f64`.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(v) => Some(*v as f64),
            Value::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(v) => Some(v),
            _ => None,
        }
    }

    /// Compact single-line rendering.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut w = Writer::compact();
        w.value(self);
        w.finish()
    }

    /// Pretty rendering with two-space indentation.
    #[must_use]
    pub fn to_json_pretty(&self) -> String {
        let mut w = Writer::pretty();
        w.value(self);
        w.finish()
    }
}

/// One piece of a string written by [`Writer::string_of`].
#[derive(Debug, Clone, Copy)]
pub enum Piece<'a> {
    /// Text, escaped where JSON requires it.
    Text(&'a str),
    /// An unsigned integer in decimal.
    Uint(u64),
}

/// Spaces copied per chunk when indenting.
const SPACES: &str = "                                                                ";

/// A streaming JSON writer — the workspace's one serializer.
///
/// Callers open and close containers, name object members with
/// [`Writer::key`] and emit scalars; the writer places commas, newlines
/// and indentation. The compact form has no whitespace at all; the pretty
/// form puts every member on its own line, indented two spaces per level,
/// with `": "` after keys and empty containers kept as `[]` / `{}`.
/// [`Value::to_json`] and [`Value::to_json_pretty`] are walks over this
/// writer, so text streamed here is byte-identical to rendering the
/// equivalent [`Value`].
///
/// Nothing is allocated per value: numbers are formatted straight into
/// the output buffer, indentation is copied from a static run of spaces,
/// and a string without characters to escape is copied whole.
#[derive(Debug)]
pub struct Writer {
    out: String,
    pretty: bool,
    /// Number of containers currently open.
    depth: usize,
    /// The innermost open container has no member yet.
    empty: bool,
    /// A key was just written; the next value completes its member.
    keyed: bool,
}

impl Writer {
    /// A writer producing [`Value::to_json`]'s single-line form.
    #[must_use]
    pub fn compact() -> Self {
        Self::new(false)
    }

    /// A writer producing [`Value::to_json_pretty`]'s indented form.
    #[must_use]
    pub fn pretty() -> Self {
        Self::new(true)
    }

    fn new(pretty: bool) -> Self {
        Self {
            out: String::new(),
            pretty,
            depth: 0,
            empty: false,
            keyed: false,
        }
    }

    /// The rendered document.
    #[must_use]
    pub fn finish(self) -> String {
        debug_assert_eq!(self.depth, 0, "unclosed container");
        self.out
    }

    /// Separator and line break before a member (an array element or an
    /// object key); nothing before a keyed value or the top-level value.
    #[inline]
    fn member(&mut self) {
        if self.keyed {
            self.keyed = false;
            return;
        }
        if self.depth == 0 {
            return;
        }
        if !self.empty {
            self.out.push(',');
        }
        self.empty = false;
        if self.pretty {
            self.newline();
        }
    }

    fn newline(&mut self) {
        self.out.push('\n');
        let mut n = 2 * self.depth;
        while n > 0 {
            let k = n.min(SPACES.len());
            self.out.push_str(&SPACES[..k]);
            n -= k;
        }
    }

    #[inline]
    fn open(&mut self, c: char) {
        self.member();
        self.out.push(c);
        self.depth += 1;
        self.empty = true;
    }

    #[inline]
    fn close(&mut self, c: char) {
        debug_assert!(self.depth > 0 && !self.keyed, "unbalanced close");
        self.depth -= 1;
        if self.pretty && !self.empty {
            self.newline();
        }
        // The enclosing container holds at least the one just closed.
        self.empty = false;
        self.out.push(c);
    }

    /// Open an array.
    #[inline]
    pub fn begin_array(&mut self) {
        self.open('[');
    }

    /// Close the innermost array.
    #[inline]
    pub fn end_array(&mut self) {
        self.close(']');
    }

    /// Open an object.
    #[inline]
    pub fn begin_object(&mut self) {
        self.open('{');
    }

    /// Close the innermost object.
    #[inline]
    pub fn end_object(&mut self) {
        self.close('}');
    }

    /// Name the next member of the innermost object; the next value
    /// written is its value.
    #[inline]
    pub fn key(&mut self, k: &str) -> &mut Self {
        self.member();
        push_escaped(&mut self.out, k);
        self.out.push_str(if self.pretty { ": " } else { ":" });
        self.keyed = true;
        self
    }

    /// `null`.
    #[inline]
    pub fn null(&mut self) {
        self.member();
        self.out.push_str("null");
    }

    /// `true` / `false`.
    #[inline]
    pub fn bool(&mut self, b: bool) {
        self.member();
        self.out.push_str(if b { "true" } else { "false" });
    }

    /// A signed integer.
    #[inline]
    pub fn int(&mut self, v: i64) {
        self.member();
        if v < 0 {
            self.out.push('-');
        }
        push_u64(&mut self.out, v.unsigned_abs());
    }

    /// An unsigned integer.
    #[inline]
    pub fn uint(&mut self, v: u64) {
        self.member();
        push_u64(&mut self.out, v);
    }

    /// A float, always with a `.` so it parses back as a float; NaN and
    /// the infinities, which JSON cannot express, render `null`.
    pub fn float(&mut self, v: f64) {
        self.member();
        if !v.is_finite() {
            self.out.push_str("null");
            return;
        }
        let start = self.out.len();
        let _ = write!(self.out, "{v}");
        if !self.out.as_bytes()[start..]
            .iter()
            .any(|&b| matches!(b, b'.' | b'e' | b'E'))
        {
            self.out.push_str(".0");
        }
    }

    /// A string.
    #[inline]
    pub fn string(&mut self, s: &str) {
        self.member();
        push_escaped(&mut self.out, s);
    }

    /// A string assembled from `pieces` in place, e.g. `slot 3/4` from
    /// `[Text("slot "), Uint(3), Text("/"), Uint(4)]`, without building it
    /// first.
    #[inline]
    pub fn string_of(&mut self, pieces: &[Piece<'_>]) {
        self.member();
        self.out.push('"');
        for piece in pieces {
            match *piece {
                Piece::Text(s) => push_body(&mut self.out, s),
                Piece::Uint(v) => push_u64(&mut self.out, v),
            }
        }
        self.out.push('"');
    }

    /// A whole [`Value`].
    pub fn value(&mut self, v: &Value) {
        match v {
            Value::Null => self.null(),
            Value::Bool(b) => self.bool(*b),
            Value::Int(v) => self.int(*v),
            Value::Float(v) => self.float(*v),
            Value::Str(s) => self.string(s),
            Value::Array(items) => {
                self.begin_array();
                for item in items {
                    self.value(item);
                }
                self.end_array();
            }
            Value::Object(pairs) => {
                self.begin_object();
                for (k, v) in pairs {
                    self.key(k).value(v);
                }
                self.end_object();
            }
        }
    }
}

/// Decimal digits of `v`, formatted on the stack.
#[inline]
fn push_u64(out: &mut String, mut v: u64) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend(buf[i..].iter().map(|&b| char::from(b)));
}

/// Whether byte `b` must be escaped inside a JSON string. Every such
/// byte is ASCII, so escaping never splits a UTF-8 sequence.
#[inline]
fn needs_escape(b: u8) -> bool {
    b < 0x20 || b == b'"' || b == b'\\'
}

/// `s` as a quoted JSON string.
#[inline]
fn push_escaped(out: &mut String, s: &str) {
    out.push('"');
    push_body(out, s);
    out.push('"');
}

/// `s` without quotes. A string with nothing to escape — every key and
/// name the workspace writes — is copied whole.
#[inline]
fn push_body(out: &mut String, s: &str) {
    if s.bytes().any(needs_escape) {
        push_escapes(out, s);
    } else {
        out.push_str(s);
    }
}

/// The body of a string that needs escaping: runs of plain bytes are
/// copied whole between the escape sequences.
fn push_escapes(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut plain = 0;
    for (i, b) in s.bytes().enumerate() {
        if !needs_escape(b) {
            continue;
        }
        out.push_str(&s[plain..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                out.push_str("\\u00");
                out.push(char::from(HEX[usize::from(b >> 4)]));
                out.push(char::from(HEX[usize::from(b & 0xf)]));
            }
        }
        plain = i + 1;
    }
    out.push_str(&s[plain..]);
}

impl std::ops::Index<&str> for Value {
    type Output = Value;
    fn index(&self, key: &str) -> &Value {
        self.get(key).unwrap_or(&NULL)
    }
}

impl std::ops::Index<usize> for Value {
    type Output = Value;
    fn index(&self, i: usize) -> &Value {
        match self {
            Value::Array(items) => items.get(i).unwrap_or(&NULL),
            _ => &NULL,
        }
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::Int(i64::try_from(v).expect("counter fits i64"))
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::Int(i64::try_from(v).expect("size fits i64"))
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}
impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(v: Vec<T>) -> Self {
        Value::Array(v.into_iter().map(Into::into).collect())
    }
}

/// A parse failure with its byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Parse a JSON document.
///
/// # Errors
/// Returns a [`JsonError`] with the byte offset of the first problem,
/// including trailing garbage after the top-level value.
pub fn parse(text: &str) -> Result<Value, JsonError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            at: self.pos,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), JsonError> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", c as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected {word}")))
        }
    }

    fn value(&mut self) -> Result<Value, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn array(&mut self) -> Result<Value, JsonError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected , or ]")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, JsonError> {
        self.eat(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let val = self.value()?;
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(pairs));
                }
                _ => return Err(self.err("expected , or }")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
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
                            let cp = self.hex4()?;
                            // Surrogate pairs are rejoined; lone
                            // surrogates become the replacement char.
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                self.low_surrogate(cp)
                            } else {
                                char::from_u32(cp).unwrap_or('\u{FFFD}')
                            };
                            out.push(c);
                            continue;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    let start = self.pos;
                    while let Some(c) = self.peek() {
                        if c == b'"' || c == b'\\' {
                            break;
                        }
                        self.pos += 1;
                    }
                    let chunk = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid utf-8"))?;
                    out.push_str(chunk);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut cp = 0u32;
        for _ in 0..4 {
            let d = self
                .peek()
                .and_then(|c| (c as char).to_digit(16))
                .ok_or_else(|| self.err("expected 4 hex digits"))?;
            cp = cp * 16 + d;
            self.pos += 1;
        }
        Ok(cp)
    }

    fn low_surrogate(&mut self, high: u32) -> char {
        if self.bytes[self.pos..].starts_with(b"\\u") {
            self.pos += 2;
            if let Ok(low) = self.hex4() {
                if (0xDC00..0xE000).contains(&low) {
                    let cp = 0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00);
                    return char::from_u32(cp).unwrap_or('\u{FFFD}');
                }
            }
        }
        '\u{FFFD}'
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid utf-8"))?;
        if is_float {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|_| self.err("bad number"))
        } else {
            text.parse::<i64>()
                .map(Value::Int)
                .map_err(|_| self.err("bad number"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_a_nested_document() {
        let v = Value::object(vec![
            ("name", Value::from("sum")),
            ("time", Value::from(42u64)),
            ("ratio", Value::from(2.5)),
            ("flags", Value::from(vec![1i64, 2, 3])),
            ("inner", Value::object(vec![("ok", Value::Bool(true))])),
            ("nothing", Value::Null),
        ]);
        for text in [v.to_json(), v.to_json_pretty()] {
            assert_eq!(parse(&text).unwrap(), v);
        }
    }

    #[test]
    fn indexing_missing_keys_yields_null() {
        let v = parse(r#"{"a": {"b": [10, 20]}}"#).unwrap();
        assert_eq!(v["a"]["b"][1].as_u64(), Some(20));
        assert_eq!(v["a"]["missing"], Value::Null);
        assert_eq!(v["a"]["b"][9], Value::Null);
        assert_eq!(v["x"]["y"]["z"], Value::Null);
    }

    #[test]
    fn escapes_and_unicode() {
        let v = Value::Str("a\"b\\c\nd\te\u{1}".to_string());
        assert_eq!(parse(&v.to_json()).unwrap(), v);
        assert_eq!(parse(r#""Aé😀""#).unwrap(), Value::Str("Aé😀".to_string()));
    }

    #[test]
    fn integers_and_floats_stay_distinct() {
        assert_eq!(parse("7").unwrap(), Value::Int(7));
        assert_eq!(parse("-7").unwrap(), Value::Int(-7));
        assert_eq!(parse("7.5").unwrap(), Value::Float(7.5));
        assert_eq!(parse("1e3").unwrap(), Value::Float(1000.0));
        assert_eq!(Value::Float(2.0).to_json(), "2.0");
        assert_eq!(
            parse(&Value::Float(2.0).to_json()).unwrap(),
            Value::Float(2.0)
        );
    }

    #[test]
    fn renders_pinned_float_and_integer_text() {
        let cases: [(f64, &str); 9] = [
            (0.1, "0.1"),
            (1.0, "1.0"),
            (1e21, "1000000000000000000000.0"),
            (1e-7, "0.0000001"),
            (-0.0, "-0.0"),
            (-2.5, "-2.5"),
            (f64::NAN, "null"),
            (f64::INFINITY, "null"),
            (f64::NEG_INFINITY, "null"),
        ];
        for (v, want) in cases {
            assert_eq!(Value::Float(v).to_json(), want, "{v:?}");
            assert_eq!(Value::Float(v).to_json_pretty(), want, "{v:?}");
        }
        let max = format!("17976931348623157{}.0", "0".repeat(292));
        assert_eq!(Value::Float(f64::MAX).to_json(), max);
        assert_eq!(Value::Int(i64::MIN).to_json(), "-9223372036854775808");
        assert_eq!(Value::Int(i64::MAX).to_json(), "9223372036854775807");
        assert_eq!(Value::Int(0).to_json(), "0");
    }

    #[test]
    fn renders_pinned_string_escapes() {
        let v = Value::Str("q\"b\\n\nc\u{1}é\t\r\u{1f}/".to_string());
        assert_eq!(v.to_json(), r#""q\"b\\n\nc\u0001é\t\r\u001f/""#);
        assert_eq!(Value::Str(String::new()).to_json(), r#""""#);
        let keyed = Value::object(vec![("k\"é", Value::Null)]);
        assert_eq!(keyed.to_json(), r#"{"k\"é":null}"#);
    }

    #[test]
    fn streamed_documents_match_their_value_rendering() {
        use Piece::{Text, Uint};
        let stream = |w: &mut Writer| {
            w.begin_array();
            w.begin_object();
            w.key("ph").string("X");
            w.key("ts").uint(u64::from(u32::MAX) + 7);
            w.key("neg").int(-12);
            w.key("name")
                .string_of(&[Text("slot "), Uint(3), Text("/"), Uint(4)]);
            w.key("odd").string_of(&[Text("a\""), Uint(0), Text("é\n")]);
            w.key("args").begin_object();
            w.key("f").float(0.5);
            w.end_object();
            w.key("none").begin_array();
            w.end_array();
            w.end_object();
            w.null();
            w.bool(true);
            w.end_array();
        };
        let v = Value::Array(vec![
            Value::object(vec![
                ("ph", "X".into()),
                ("ts", (u64::from(u32::MAX) + 7).into()),
                ("neg", Value::Int(-12)),
                ("name", "slot 3/4".into()),
                ("odd", "a\"0é\n".into()),
                ("args", Value::object(vec![("f", 0.5.into())])),
                ("none", Value::Array(vec![])),
            ]),
            Value::Null,
            Value::Bool(true),
        ]);
        let mut compact = Writer::compact();
        stream(&mut compact);
        assert_eq!(compact.finish(), v.to_json());
        let mut pretty = Writer::pretty();
        stream(&mut pretty);
        assert_eq!(pretty.finish(), v.to_json_pretty());
    }

    #[test]
    fn deep_nesting_indents_past_one_chunk_of_spaces() {
        let mut v = Value::Int(1);
        for _ in 0..40 {
            v = Value::Array(vec![v]);
        }
        let text = v.to_json_pretty();
        assert!(text.contains(&format!("\n{}1\n", " ".repeat(80))));
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn renders_pinned_empty_containers() {
        let v = Value::object(vec![
            ("a", Value::Array(vec![])),
            ("b", Value::Object(vec![])),
            (
                "c",
                Value::Array(vec![
                    Value::Array(vec![]),
                    Value::Object(vec![]),
                    Value::object(vec![("d", Value::Array(vec![Value::Bool(false)]))]),
                ]),
            ),
        ]);
        assert_eq!(v.to_json(), r#"{"a":[],"b":{},"c":[[],{},{"d":[false]}]}"#);
        assert_eq!(
            v.to_json_pretty(),
            "{\n  \"a\": [],\n  \"b\": {},\n  \"c\": [\n    [],\n    {},\n    {\n      \"d\": [\n        false\n      ]\n    }\n  ]\n}"
        );
        assert_eq!(Value::Array(vec![]).to_json_pretty(), "[]");
        assert_eq!(Value::Object(vec![]).to_json_pretty(), "{}");
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,", "tru", "\"abc", "{\"a\":}", "1 2", "01x"] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn accessors_reject_wrong_kinds() {
        let v = parse(r#"{"s": "x", "n": 3, "f": 1.5, "b": true}"#).unwrap();
        assert_eq!(v["s"].as_str(), Some("x"));
        assert_eq!(v["s"].as_u64(), None);
        assert_eq!(v["n"].as_f64(), Some(3.0));
        assert_eq!(v["f"].as_f64(), Some(1.5));
        assert_eq!(v["f"].as_i64(), None);
        assert_eq!(v["b"].as_bool(), Some(true));
        assert_eq!(parse("-3").unwrap().as_u64(), None);
        assert!(v.as_array().is_none());
        assert!(parse("[1]").unwrap().as_array().is_some());
    }
}
