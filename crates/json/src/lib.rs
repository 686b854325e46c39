//! Minimal JSON support for the workspace's wire formats.
//!
//! The instance and schedule crates expose a JSON import/export surface
//! (`bss inst.json`, `--schedule-out`, hand-edited fixture files). The build
//! environment has no access to crates.io, so instead of serde this crate
//! provides a small self-contained JSON codec, plus the [`ToJson`]/[`FromJson`]
//! traits the model types implement by hand.
//!
//! Encoding streams: a [`ToJson`] impl writes its value piece by piece into a
//! [`JsonWriter`], which appends the text straight to the output `String`,
//! with no tree in between. One writer prints both forms. Files and CLI
//! output use the pretty one ([`encode_pretty`]: two-space indents, `": "`,
//! `[]`/`{}` for empty containers), which people read and diff; `bss-serve`
//! frames use the compact one ([`encode`]), which prints no whitespace at all.
//!
//! Decoding builds the tree: [`parse`] turns text into a [`Value`] with a
//! strict parser, and a [`FromJson`] impl decodes the typed object from it.
//! [`Value`] implements [`ToJson`] too, so a tree encodes like any other type.
//!
//! Numbers are kept exact: every JSON number without fraction or exponent is
//! an `i128` (covering `u64` times and `i128` rational components); anything
//! else parses as `f64`. Integers that fit in a `u64` print and parse with
//! plain digit loops; only wider ones go through `core::fmt` and `str::parse`.
//!
//! For *network* input (the `bss-serve` wire protocol) the parser can be
//! bounded: [`parse_with_limits`] enforces a maximum payload size and a
//! maximum nesting depth with typed errors ([`JsonError::kind`]) instead of
//! unbounded allocation, and the [`frame`] module provides the
//! length-prefixed transport framing with the same size discipline.
//!
//! ```
//! use bss_json::{encode, encode_pretty, parse, Value};
//!
//! let v = parse(r#"{"machines": 3, "setups": [10, 4]}"#).unwrap();
//! assert_eq!(v.field("machines").and_then(Value::as_i128), Some(3));
//! assert_eq!(encode(&v), r#"{"machines":3,"setups":[10,4]}"#);
//! assert_eq!(parse(&encode_pretty(&v)).unwrap(), v);
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

/// Types that write themselves as JSON into a [`JsonWriter`].
pub trait ToJson {
    /// Writes the JSON representation: exactly one value.
    fn write_json(&self, w: &mut JsonWriter);
}

/// Types that decode themselves from a JSON [`Value`].
pub trait FromJson: Sized {
    /// Decodes from a parsed value.
    fn from_json_value(value: &Value) -> Result<Self, JsonError>;
}

/// Serializes any [`ToJson`] type to pretty-printed JSON text: two-space
/// indentation (the format `serde_json` uses, so existing fixture files and
/// diffs stay familiar).
pub fn encode_pretty<T: ToJson + ?Sized>(value: &T) -> String {
    let mut w = JsonWriter::new(Some(0));
    value.write_json(&mut w);
    w.out
}

/// Serializes any [`ToJson`] type to compact JSON text (no whitespace), the
/// form network frames use.
pub fn encode<T: ToJson + ?Sized>(value: &T) -> String {
    let mut w = JsonWriter::new(None);
    value.write_json(&mut w);
    w.out
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
    fn write_json(&self, w: &mut JsonWriter) {
        w.array(|a| {
            for item in self {
                a.item().value(item);
            }
        });
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json_value(value: &Value) -> Result<Self, JsonError> {
        vec_from(value, "array", T::from_json_value)
    }
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// The streaming JSON writer every [`ToJson`] impl writes into. It appends
/// text to its output as the impl calls it: one scalar method, or one
/// [`JsonWriter::object`]/[`JsonWriter::array`] whose closure writes the
/// members, per value.
///
/// ```
/// use bss_json::{encode, encode_pretty, JsonWriter, ToJson};
///
/// struct Point(i64, i64);
///
/// impl ToJson for Point {
///     fn write_json(&self, w: &mut JsonWriter) {
///         w.object(|o| {
///             o.key("x").int(self.0.into());
///             o.key("y").int(self.1.into());
///             o.key("tags").array(|_| {});
///         });
///     }
/// }
///
/// assert_eq!(encode(&Point(3, -4)), r#"{"x":3,"y":-4,"tags":[]}"#);
/// assert_eq!(
///     encode_pretty(&Point(3, -4)),
///     "{\n  \"x\": 3,\n  \"y\": -4,\n  \"tags\": []\n}"
/// );
/// ```
#[derive(Debug)]
pub struct JsonWriter {
    out: String,
    /// `None` writes compact JSON; `Some(d)` pretty-prints the next value as
    /// one that sits `d` containers deep.
    depth: Option<usize>,
}

impl JsonWriter {
    fn new(depth: Option<usize>) -> Self {
        JsonWriter {
            out: String::new(),
            depth,
        }
    }

    /// Writes `null`.
    pub fn null(&mut self) {
        self.out.push_str("null");
    }

    /// Writes `true` or `false`.
    pub fn bool(&mut self, b: bool) {
        self.out.push_str(if b { "true" } else { "false" });
    }

    /// Writes an exact integer. Magnitudes that fit in a `u64` print with a
    /// digit loop; only wider ones go through `core::fmt`.
    pub fn int(&mut self, v: i128) {
        if v < 0 {
            self.out.push('-');
        }
        let magnitude = v.unsigned_abs();
        match u64::try_from(magnitude) {
            Ok(small) => push_u64(&mut self.out, small),
            Err(_) => write!(self.out, "{magnitude}").expect("writing to a String cannot fail"),
        }
    }

    /// Writes a float; a literal that would print without `.` or exponent
    /// gets `.0` so it reads back as a float, and a non-finite value is
    /// written as `null`.
    pub fn float(&mut self, v: f64) {
        if v.is_finite() {
            let start = self.out.len();
            write!(self.out, "{v}").expect("writing to a String cannot fail");
            if !self.out[start..].contains(['.', 'e', 'E']) {
                self.out.push_str(".0");
            }
        } else {
            self.null();
        }
    }

    /// Writes a string literal, escaping `"`, `\` and control characters.
    pub fn str(&mut self, s: &str) {
        push_string(&mut self.out, s);
    }

    /// Writes any [`ToJson`] value.
    pub fn value<T: ToJson + ?Sized>(&mut self, value: &T) {
        value.write_json(self);
    }

    /// Writes an object whose fields `fields` writes through
    /// [`ObjectWriter::key`], in order.
    pub fn object(&mut self, fields: impl FnOnce(&mut ObjectWriter<'_>)) {
        self.out.push('{');
        let empty = self.members(|w| {
            let mut o = ObjectWriter { w, empty: true };
            fields(&mut o);
            o.empty
        });
        if !empty {
            self.newline();
        }
        self.out.push('}');
    }

    /// Writes an array whose elements `items` writes through
    /// [`ArrayWriter::item`], in order.
    pub fn array(&mut self, items: impl FnOnce(&mut ArrayWriter<'_>)) {
        self.out.push('[');
        let empty = self.members(|w| {
            let mut a = ArrayWriter { w, empty: true };
            items(&mut a);
            a.empty
        });
        if !empty {
            self.newline();
        }
        self.out.push(']');
    }

    /// Runs `write` one nesting level deeper.
    fn members(&mut self, write: impl FnOnce(&mut JsonWriter) -> bool) -> bool {
        let outer = self.depth;
        self.depth = outer.map(|d| d + 1);
        let empty = write(self);
        self.depth = outer;
        empty
    }

    /// Starts the next member of the container being written: a comma
    /// unless it is the first, then (pretty only) a new indented line.
    fn member(&mut self, empty: &mut bool) {
        if !core::mem::replace(empty, false) {
            self.out.push(',');
        }
        self.newline();
    }

    /// Starts a new pretty-printed line at the current depth; nothing when
    /// compact.
    fn newline(&mut self) {
        if let Some(depth) = self.depth {
            self.out.push('\n');
            for _ in 0..depth {
                self.out.push_str("  ");
            }
        }
    }
}

/// Writes the fields of one object (see [`JsonWriter::object`]).
#[derive(Debug)]
pub struct ObjectWriter<'w> {
    w: &'w mut JsonWriter,
    empty: bool,
}

impl ObjectWriter<'_> {
    /// Writes the field name `key` and returns the writer for its value,
    /// which the caller must write next: exactly one value.
    pub fn key(&mut self, key: &str) -> &mut JsonWriter {
        self.w.member(&mut self.empty);
        push_string(&mut self.w.out, key);
        self.w
            .out
            .push_str(if self.w.depth.is_some() { ": " } else { ":" });
        self.w
    }
}

/// Writes the elements of one array (see [`JsonWriter::array`]).
#[derive(Debug)]
pub struct ArrayWriter<'w> {
    w: &'w mut JsonWriter,
    empty: bool,
}

impl ArrayWriter<'_> {
    /// Starts the next element and returns the writer for it, which the
    /// caller must write next: exactly one value.
    pub fn item(&mut self) -> &mut JsonWriter {
        self.w.member(&mut self.empty);
        self.w
    }
}

impl ToJson for Value {
    fn write_json(&self, w: &mut JsonWriter) {
        match self {
            Value::Null => w.null(),
            Value::Bool(b) => w.bool(*b),
            Value::Int(v) => w.int(*v),
            Value::Float(v) => w.float(*v),
            Value::Str(s) => w.str(s),
            Value::Array(items) => w.array(|a| {
                for item in items {
                    a.item().value(item);
                }
            }),
            Value::Object(fields) => w.object(|o| {
                for (key, item) in fields {
                    o.key(key).value(item);
                }
            }),
        }
    }
}

/// `"00" "01" … "99"`: two decimal digits per table entry.
const DIGIT_PAIRS: &[u8; 200] = b"\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// Appends the decimal digits of `n`, two per step.
fn push_u64(out: &mut String, mut n: u64) {
    let mut buf = [0u8; 20];
    let mut start = buf.len();
    while n >= 100 {
        let pair = (n % 100) as usize * 2;
        n /= 100;
        start -= 2;
        buf[start..start + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if n >= 10 {
        let pair = n as usize * 2;
        start -= 2;
        buf[start..start + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        start -= 1;
        buf[start] = b'0' + n as u8;
    }
    out.push_str(core::str::from_utf8(&buf[start..]).expect("ASCII digits"));
}

/// Appends `s` as a JSON string literal. Runs of characters that need no
/// escape are copied whole.
fn push_string(out: &mut String, s: &str) {
    out.push('"');
    let mut run = 0;
    for (i, byte) in s.bytes().enumerate() {
        if byte >= 0x20 && byte != b'"' && byte != b'\\' {
            continue;
        }
        out.push_str(&s[run..i]);
        run = i + 1;
        match byte {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => write!(out, "\\u{byte:04x}").expect("writing to a String cannot fail"),
        }
    }
    out.push_str(&s[run..]);
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
        text,
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
    text: &'a str,
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

    /// Advances past every byte from the current position on for which
    /// `keep` holds.
    fn skip_while(&mut self, keep: impl Fn(u8) -> bool) {
        let rest = &self.bytes[self.pos..];
        self.pos += rest.iter().position(|&b| !keep(b)).unwrap_or(rest.len());
    }

    fn skip_ws(&mut self) {
        self.skip_while(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'));
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
            // Copy the run of characters up to the next quote, backslash or
            // control character whole. The run ends at an ASCII byte, so it
            // ends on a character boundary of the input.
            let run = self.pos;
            self.skip_while(|c| c >= 0x20 && c != b'"' && c != b'\\');
            out.push_str(&self.text[run..self.pos]);
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
                Some(_) => return Err(self.error("control character in string")),
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
        self.skip_while(|c| c.is_ascii_digit());
        if self.pos == digits_start {
            return Err(self.error("expected digits"));
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            let frac_start = self.pos;
            self.skip_while(|c| c.is_ascii_digit());
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
            self.skip_while(|c| c.is_ascii_digit());
            if self.pos == exp_start {
                return Err(self.error("expected digits in exponent"));
            }
        }
        let text = &self.text[start..self.pos];
        if is_float {
            return text
                .parse::<f64>()
                .map(Value::Float)
                .map_err(|_| self.error("invalid number"));
        }
        let digits = &self.bytes[digits_start..self.pos];
        if digits.len() > FAST_DIGITS {
            return text
                .parse::<i128>()
                .map(Value::Int)
                .map_err(|_| self.error("integer out of range"));
        }
        // At most 18 digits: below 10^18 < 2^63, so neither the sum nor the
        // negation can overflow.
        let magnitude = digits
            .iter()
            .fold(0u64, |acc, &d| acc * 10 + u64::from(d - b'0'));
        let value = i128::from(magnitude);
        Ok(Value::Int(if start == digits_start {
            value
        } else {
            -value
        }))
    }
}

/// The longest integer literal (in digits, leading zeros included) that
/// [`Parser::parse_number`] accumulates in a `u64`; longer ones take the
/// exact `i128` parse with its range check.
const FAST_DIGITS: usize = 18;

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
        let text = encode_pretty(&doc);
        assert_eq!(parse(&text).unwrap(), doc);
        let compact = encode(&doc);
        assert_eq!(parse(&compact).unwrap(), doc);
        assert!(compact.len() < text.len());
        assert!(!compact.contains(['\n', '\t']) && !compact.contains(": "));
    }

    #[test]
    fn compact_printer_prints_no_whitespace() {
        let v = parse(r#"{"a": [1, -2, {"b": null}], "c": {}, "d": []}"#).unwrap();
        assert_eq!(encode(&v), r#"{"a":[1,-2,{"b":null}],"c":{},"d":[]}"#);
        assert_eq!(
            encode_pretty(&v),
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
