//! Minimal JSON support for the workspace's wire formats.
//!
//! The instance and schedule crates expose a JSON import/export surface
//! (`bss inst.json`, `--schedule-out`, hand-edited fixture files). The build
//! environment has no access to crates.io, so instead of serde this crate
//! provides a small self-contained [`Value`] tree with a strict parser and
//! two printers, plus the [`ToJson`]/[`FromJson`] traits the model types
//! implement by hand. Files and CLI output use the pretty printer
//! ([`encode_pretty`]), which people read and diff; `bss-serve` frames use
//! the compact one ([`encode`]), which prints no whitespace at all.
//!
//! Numbers are kept exact: every JSON number without fraction or exponent is
//! an `i128` (covering `u64` times and `i128` rational components); anything
//! else parses as `f64`.
//!
//! For *network* input (the `bss-serve` wire protocol) the parser can be
//! bounded: [`parse_with_limits`] enforces a maximum payload size and a
//! maximum nesting depth with typed errors ([`JsonError::kind`]) instead of
//! unbounded allocation, and the [`frame`] module provides the
//! length-prefixed transport framing with the same size discipline.
//!
//! ```
//! use bss_json::{parse, to_string_pretty, Value};
//!
//! let v = parse(r#"{"machines": 3, "setups": [10, 4]}"#).unwrap();
//! assert_eq!(v.field("machines").and_then(Value::as_i128), Some(3));
//! let text = to_string_pretty(&v);
//! assert_eq!(parse(&text).unwrap(), v);
//! ```

use core::fmt;
use core::fmt::Write as _;

/// A JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number with no fractional part, kept exact.
    Int(i128),
    /// A number with a fraction or exponent.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object; insertion order is preserved.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Looks up a field of an object (`None` for other value kinds).
    #[must_use]
    pub fn field(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The exact integer, if this is an [`Value::Int`].
    #[must_use]
    pub fn as_i128(&self) -> Option<i128> {
        match *self {
            Value::Int(v) => Some(v),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// A short name for the value's kind, used in decode errors.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int(_) => "integer",
            Value::Float(_) => "float",
            Value::Str(_) => "string",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
        }
    }
}

/// What class of failure a [`JsonError`] reports — lets network code map
/// hostile input onto typed protocol replies instead of string-matching.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JsonErrorKind {
    /// Malformed JSON text (unexpected character, bad escape, ...).
    Syntax,
    /// The input exceeds the configured [`ParseLimits::max_bytes`].
    TooLarge,
    /// Nesting exceeds the configured [`ParseLimits::max_depth`].
    TooDeep,
    /// Well-formed JSON whose shape or values a [`FromJson`] impl rejected.
    Decode,
}

/// Error from [`parse`] or from [`FromJson`] decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    message: String,
    kind: JsonErrorKind,
}

impl JsonError {
    /// Creates a decode-kind error with the given message (the constructor
    /// every hand-written [`FromJson`] impl uses).
    #[must_use]
    pub fn new(message: impl Into<String>) -> Self {
        JsonError {
            message: message.into(),
            kind: JsonErrorKind::Decode,
        }
    }

    /// Creates an error with an explicit kind.
    #[must_use]
    pub fn with_kind(message: impl Into<String>, kind: JsonErrorKind) -> Self {
        JsonError {
            message: message.into(),
            kind,
        }
    }

    /// The failure class.
    #[must_use]
    pub fn kind(&self) -> JsonErrorKind {
        self.kind
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for JsonError {}

/// Types that render themselves as a JSON [`Value`].
pub trait ToJson {
    /// Builds the JSON representation.
    fn to_json_value(&self) -> Value;
}

/// Types that decode themselves from a JSON [`Value`].
pub trait FromJson: Sized {
    /// Decodes from a parsed value.
    fn from_json_value(value: &Value) -> Result<Self, JsonError>;
}

/// Serializes any [`ToJson`] type to pretty-printed JSON text.
pub fn encode_pretty<T: ToJson>(value: &T) -> String {
    to_string_pretty(&value.to_json_value())
}

/// Serializes any [`ToJson`] type to compact JSON text (no whitespace), the
/// form network frames use.
pub fn encode<T: ToJson>(value: &T) -> String {
    let mut out = String::new();
    write_value(&mut out, &value.to_json_value(), None);
    out
}

/// Parses JSON text and decodes it into any [`FromJson`] type.
pub fn decode<T: FromJson>(text: &str) -> Result<T, JsonError> {
    T::from_json_value(&parse(text)?)
}

// ---------------------------------------------------------------------------
// Decoding helpers shared by the hand-written FromJson impls.
// ---------------------------------------------------------------------------

/// Fetches a required object field.
pub fn required<'v>(value: &'v Value, key: &str) -> Result<&'v Value, JsonError> {
    match value {
        Value::Object(_) => value
            .field(key)
            .ok_or_else(|| JsonError::new(format!("missing field `{key}`"))),
        other => Err(JsonError::new(format!(
            "expected object with field `{key}`, found {}",
            other.kind()
        ))),
    }
}

/// Decodes an exact integer field into any integer type.
pub fn int_from<T: TryFrom<i128>>(value: &Value, what: &str) -> Result<T, JsonError> {
    let raw = value.as_i128().ok_or_else(|| {
        JsonError::new(format!(
            "expected integer for {what}, found {}",
            value.kind()
        ))
    })?;
    T::try_from(raw).map_err(|_| JsonError::new(format!("{what} out of range: {raw}")))
}

/// Decodes an array field elementwise.
pub fn vec_from<T, F>(value: &Value, what: &str, decode_item: F) -> Result<Vec<T>, JsonError>
where
    F: Fn(&Value) -> Result<T, JsonError>,
{
    value
        .as_array()
        .ok_or_else(|| {
            JsonError::new(format!("expected array for {what}, found {}", value.kind()))
        })?
        .iter()
        .map(decode_item)
        .collect()
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json_value(&self) -> Value {
        Value::Array(self.iter().map(ToJson::to_json_value).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json_value(value: &Value) -> Result<Self, JsonError> {
        vec_from(value, "array", T::from_json_value)
    }
}

// ---------------------------------------------------------------------------
// Printer
// ---------------------------------------------------------------------------

/// Pretty-prints with two-space indentation (the format `serde_json` uses,
/// so existing fixture files and diffs stay familiar).
#[must_use]
pub fn to_string_pretty(value: &Value) -> String {
    let mut out = String::new();
    write_value(&mut out, value, Some(0));
    out
}

/// Prints `value` at nesting level `indent`; `None` prints compact JSON
/// with no whitespace at all.
fn write_value(out: &mut String, value: &Value, indent: Option<usize>) {
    let inner = indent.map(|i| i + 1);
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(v) => write!(out, "{v}").expect("writing to a String cannot fail"),
        Value::Float(v) => {
            if v.is_finite() {
                // Guarantee a re-parsable float literal.
                let s = format!("{v}");
                out.push_str(&s);
                if !s.contains(['.', 'e', 'E']) {
                    out.push_str(".0");
                }
            } else {
                out.push_str("null");
            }
        }
        Value::Str(s) => write_string(out, s),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                push_indent(out, inner);
                write_value(out, item, inner);
            }
            push_indent(out, indent);
            out.push(']');
        }
        Value::Object(fields) => {
            if fields.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (key, item)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                push_indent(out, inner);
                write_string(out, key);
                out.push_str(if indent.is_some() { ": " } else { ":" });
                write_value(out, item, inner);
            }
            push_indent(out, indent);
            out.push('}');
        }
    }
}

/// Starts a new pretty-printed line at `indent`; nothing when compact.
fn push_indent(out: &mut String, indent: Option<usize>) {
    if let Some(indent) = indent {
        out.push('\n');
        for _ in 0..indent {
            out.push_str("  ");
        }
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

/// Bounds on what [`parse_with_limits`] will accept — the guard rails for
/// parsing untrusted network input.
///
/// The default (used by the plain [`parse`]) keeps the historical behavior:
/// no byte limit (trusted local files) and a 128-level depth bound that
/// protects the recursive parser's stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParseLimits {
    /// Largest accepted input, in bytes ([`usize::MAX`] = unlimited).
    pub max_bytes: usize,
    /// Deepest accepted array/object nesting.
    pub max_depth: usize,
}

impl Default for ParseLimits {
    fn default() -> Self {
        ParseLimits {
            max_bytes: usize::MAX,
            max_depth: MAX_DEPTH,
        }
    }
}

/// Parses a complete JSON document (trailing garbage is an error).
pub fn parse(text: &str) -> Result<Value, JsonError> {
    parse_with_limits(text, &ParseLimits::default())
}

/// [`parse`] with explicit [`ParseLimits`]; the entry point for untrusted
/// input. Oversized input is rejected *before* any parsing work
/// ([`JsonErrorKind::TooLarge`]); nesting beyond the depth bound aborts with
/// [`JsonErrorKind::TooDeep`] instead of deep recursion.
pub fn parse_with_limits(text: &str, limits: &ParseLimits) -> Result<Value, JsonError> {
    if text.len() > limits.max_bytes {
        return Err(JsonError::with_kind(
            format!(
                "JSON payload of {} bytes exceeds the {}-byte limit",
                text.len(),
                limits.max_bytes
            ),
            JsonErrorKind::TooLarge,
        ));
    }
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        max_depth: limits.max_depth,
    };
    p.skip_ws();
    let value = p.parse_value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.error("trailing characters after JSON value"));
    }
    Ok(value)
}

const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    max_depth: usize,
}

impl Parser<'_> {
    fn error(&self, message: &str) -> JsonError {
        JsonError::with_kind(
            format!("{message} at byte {}", self.pos),
            JsonErrorKind::Syntax,
        )
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, expected: u8) -> Result<(), JsonError> {
        if self.peek() == Some(expected) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected `{}`", expected as char)))
        }
    }

    /// `depth` counts the containers enclosing the value about to start, so
    /// a document whose deepest nesting is `max_depth` containers is
    /// accepted and one level more is rejected.
    fn check_depth(&self, depth: usize) -> Result<(), JsonError> {
        if depth >= self.max_depth {
            return Err(JsonError::with_kind(
                format!(
                    "nesting deeper than {} levels at byte {}",
                    self.max_depth, self.pos
                ),
                JsonErrorKind::TooDeep,
            ));
        }
        Ok(())
    }

    fn parse_value(&mut self, depth: usize) -> Result<Value, JsonError> {
        match self.peek() {
            Some(b'{') => {
                self.check_depth(depth)?;
                self.parse_object(depth)
            }
            Some(b'[') => {
                self.check_depth(depth)?;
                self.parse_array(depth)
            }
            Some(b'"') => Ok(Value::Str(self.parse_string()?)),
            Some(b't') => self.parse_keyword("true", Value::Bool(true)),
            Some(b'f') => self.parse_keyword("false", Value::Bool(false)),
            Some(b'n') => self.parse_keyword("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            Some(_) => Err(self.error("unexpected character")),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn parse_keyword(&mut self, word: &str, value: Value) -> Result<Value, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected `{word}`")))
        }
    }

    fn parse_object(&mut self, depth: usize) -> Result<Value, JsonError> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.parse_value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(self.error("expected `,` or `}` in object")),
            }
        }
    }

    fn parse_array(&mut self, depth: usize) -> Result<Value, JsonError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.parse_value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.error("expected `,` or `]` in array")),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
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
                            let code = self.parse_hex4()?;
                            // Surrogate pairs: only BMP scalars are produced
                            // by our printer; reject lone surrogates.
                            match char::from_u32(code) {
                                Some(c) => out.push(c),
                                None => return Err(self.error("invalid \\u escape")),
                            }
                            continue;
                        }
                        _ => return Err(self.error("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => return Err(self.error("control character in string")),
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so this is safe).
                    let start = self.pos;
                    let mut end = start + 1;
                    while end < self.bytes.len() && self.bytes[end] & 0xC0 == 0x80 {
                        end += 1;
                    }
                    out.push_str(
                        core::str::from_utf8(&self.bytes[start..end]).expect("valid UTF-8"),
                    );
                    self.pos = end;
                }
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, JsonError> {
        let mut code: u32 = 0;
        for _ in 0..4 {
            let digit = match self.peek() {
                Some(c @ b'0'..=b'9') => u32::from(c - b'0'),
                Some(c @ b'a'..=b'f') => u32::from(c - b'a') + 10,
                Some(c @ b'A'..=b'F') => u32::from(c - b'A') + 10,
                _ => return Err(self.error("invalid hex digit in \\u escape")),
            };
            code = code * 16 + digit;
            self.pos += 1;
        }
        Ok(code)
    }

    fn parse_number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits_start = self.pos;
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.pos == digits_start {
            return Err(self.error("expected digits"));
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            let frac_start = self.pos;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
            if self.pos == frac_start {
                return Err(self.error("expected digits after `.`"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let exp_start = self.pos;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
            if self.pos == exp_start {
                return Err(self.error("expected digits in exponent"));
            }
        }
        let text = core::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        if is_float {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|_| self.error("invalid number"))
        } else {
            text.parse::<i128>()
                .map(Value::Int)
                .map_err(|_| self.error("integer out of range"))
        }
    }
}

// ---------------------------------------------------------------------------
// Length-prefixed framing
// ---------------------------------------------------------------------------

/// Length-prefixed framing for JSON documents over a byte stream.
///
/// The `bss-serve` wire protocol sends each JSON document as one *frame*: a
/// 4-byte big-endian payload length followed by that many bytes of UTF-8
/// JSON. The reader enforces a caller-chosen maximum payload size *before*
/// allocating, so a hostile peer cannot trigger an unbounded allocation by
/// declaring a huge length.
pub mod frame {
    use std::io::{self, Read, Write};

    /// Size of the length prefix in bytes.
    pub const HEADER_LEN: usize = 4;

    /// Errors from [`read_frame`] / [`write_frame`].
    #[derive(Debug)]
    pub enum FrameError {
        /// The underlying stream failed.
        Io(io::Error),
        /// The peer declared (or asked us to send) a payload larger than the
        /// configured maximum. The stream is desynchronized after this —
        /// close the connection rather than reading on.
        TooLarge {
            /// The declared payload length.
            len: usize,
            /// The configured maximum.
            max: usize,
        },
        /// The payload was not valid UTF-8.
        Utf8,
        /// The stream ended mid-frame (a clean close *between* frames is
        /// reported as `Ok(None)` by [`read_frame`] instead).
        Truncated,
    }

    impl core::fmt::Display for FrameError {
        fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
            match self {
                FrameError::Io(e) => write!(f, "frame I/O error: {e}"),
                FrameError::TooLarge { len, max } => {
                    write!(f, "frame of {len} bytes exceeds the {max}-byte limit")
                }
                FrameError::Utf8 => write!(f, "frame payload is not valid UTF-8"),
                FrameError::Truncated => write!(f, "stream closed mid-frame"),
            }
        }
    }

    impl std::error::Error for FrameError {}

    impl From<io::Error> for FrameError {
        fn from(e: io::Error) -> Self {
            FrameError::Io(e)
        }
    }

    /// Writes one frame: 4-byte big-endian length, then the payload bytes.
    ///
    /// # Errors
    /// [`FrameError::TooLarge`] when the payload exceeds `max_len` (also the
    /// hard `u32` prefix range), otherwise any underlying I/O error.
    pub fn write_frame(
        w: &mut impl Write,
        payload: &str,
        max_len: usize,
    ) -> Result<(), FrameError> {
        let len = payload.len();
        if len > max_len || len > u32::MAX as usize {
            return Err(FrameError::TooLarge {
                len,
                max: max_len.min(u32::MAX as usize),
            });
        }
        w.write_all(&(len as u32).to_be_bytes())?;
        w.write_all(payload.as_bytes())?;
        w.flush()?;
        Ok(())
    }

    /// Reads one frame, returning `Ok(None)` on a clean end-of-stream at a
    /// frame boundary.
    ///
    /// The declared length is checked against `max_len` *before* the payload
    /// buffer is allocated.
    ///
    /// # Errors
    /// See [`FrameError`].
    pub fn read_frame(r: &mut impl Read, max_len: usize) -> Result<Option<String>, FrameError> {
        let mut header = [0u8; HEADER_LEN];
        let mut filled = 0;
        while filled < HEADER_LEN {
            match r.read(&mut header[filled..]) {
                Ok(0) if filled == 0 => return Ok(None),
                Ok(0) => return Err(FrameError::Truncated),
                Ok(n) => filled += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(FrameError::Io(e)),
            }
        }
        let len = u32::from_be_bytes(header) as usize;
        if len > max_len {
            return Err(FrameError::TooLarge { len, max: max_len });
        }
        let mut payload = vec![0u8; len];
        match r.read_exact(&mut payload) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => {
                return Err(FrameError::Truncated)
            }
            Err(e) => return Err(FrameError::Io(e)),
        }
        String::from_utf8(payload)
            .map(Some)
            .map_err(|_| FrameError::Utf8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What [`encode`] prints for a type whose JSON form is `value`.
    fn compact(value: &Value) -> String {
        let mut out = String::new();
        write_value(&mut out, value, None);
        out
    }

    #[test]
    fn roundtrips() {
        let doc = Value::Object(vec![
            ("machines".into(), Value::Int(3)),
            (
                "setups".into(),
                Value::Array(vec![Value::Int(10), Value::Int(4)]),
            ),
            ("name".into(), Value::Str("a \"quoted\"\nline".into())),
            ("flag".into(), Value::Bool(true)),
            ("nothing".into(), Value::Null),
            ("ratio".into(), Value::Float(1.5)),
            ("empty_arr".into(), Value::Array(vec![])),
            ("empty_obj".into(), Value::Object(vec![])),
            ("big".into(), Value::Int(i128::MAX)),
            ("neg".into(), Value::Int(i128::MIN)),
        ]);
        let text = to_string_pretty(&doc);
        assert_eq!(parse(&text).unwrap(), doc);
        let compact = compact(&doc);
        assert_eq!(parse(&compact).unwrap(), doc);
        assert!(compact.len() < text.len());
        assert!(!compact.contains(['\n', '\t']) && !compact.contains(": "));
    }

    #[test]
    fn compact_printer_prints_no_whitespace() {
        let v = parse(r#"{"a": [1, -2, {"b": null}], "c": {}, "d": []}"#).unwrap();
        assert_eq!(compact(&v), r#"{"a":[1,-2,{"b":null}],"c":{},"d":[]}"#);
        assert_eq!(
            to_string_pretty(&v),
            "{\n  \"a\": [\n    1,\n    -2,\n    {\n      \"b\": null\n    }\n  ],\n  \"c\": {},\n  \"d\": []\n}"
        );
    }

    #[test]
    fn parses_standard_forms() {
        assert_eq!(parse("42").unwrap(), Value::Int(42));
        assert_eq!(parse("-7").unwrap(), Value::Int(-7));
        assert_eq!(parse("2.5").unwrap(), Value::Float(2.5));
        assert_eq!(parse("1e3").unwrap(), Value::Float(1000.0));
        assert_eq!(
            parse(" [1, 2] ").unwrap(),
            Value::Array(vec![Value::Int(1), Value::Int(2)])
        );
        assert_eq!(parse(r#""A""#).unwrap(), Value::Str("A".into()));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "01x",
            "\"unterminated",
            "1 2",
            "nul",
            "--1",
            "1.",
            "{\"a\" 1}",
            "[1 2]",
        ] {
            assert!(parse(bad).is_err(), "accepted `{bad}`");
        }
    }

    #[test]
    fn deep_nesting_is_bounded() {
        let deep = "[".repeat(500) + &"]".repeat(500);
        assert!(parse(&deep).is_err());
    }

    #[test]
    fn field_lookup() {
        let v = parse(r#"{"a": 1, "b": [true]}"#).unwrap();
        assert_eq!(v.field("a").and_then(Value::as_i128), Some(1));
        assert!(v.field("c").is_none());
        assert_eq!(
            v.field("b").and_then(Value::as_array).map(<[Value]>::len),
            Some(1)
        );
    }
}
