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
//! Decoding pulls: a [`FromJson`] impl reads its value token by token from a
//! [`JsonReader`], a cursor that runs the strict parser over the text, so a
//! table of numbers becomes a typed list with no tree in between. Object
//! fields may come in any order; each decoder keeps them in [`Field`]s and
//! reports its errors in its own order once the object has closed. A decode
//! error waits until the whole text is known to be well-formed JSON, so a
//! syntax or limit error anywhere in it wins. [`Value`] is just one
//! [`FromJson`] type ([`parse`] decodes one), and implements [`ToJson`] too,
//! so a tree encodes like any other type.
//!
//! Numbers are kept exact: every JSON number without fraction or exponent is
//! an `i128` (covering `u64` times and `i128` rational components); anything
//! else parses as a finite `f64`, and one out of its range (`1e999`) is a
//! syntax error, so every [`Value`] encodes back to text that parses to it.
//! Integers of up to 18 digits accumulate in a `u64` as they are scanned, and
//! those that fit in a `u64` print with a digit loop; only wider ones go
//! through `core::fmt` and `str::parse`.
//!
//! For *network* input (the `bss-serve` wire protocol) reading can be
//! bounded: [`decode_with`] and [`parse_with_limits`] enforce a maximum
//! payload size and a maximum nesting depth with typed errors
//! ([`JsonError::kind`]) instead of unbounded allocation, and the [`frame`]
//! module provides the length-prefixed transport framing with the same size
//! discipline.
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
use std::borrow::Cow;

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
    pub(crate) fn with_kind(message: impl Into<String>, kind: JsonErrorKind) -> Self {
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

/// Types that decode themselves from JSON text, pulled token by token from a
/// [`JsonReader`].
pub trait FromJson: Sized {
    /// Reads exactly one value at the reader's cursor and decodes it.
    ///
    /// # Errors
    /// A syntax or limit error stops the read where it is found. A decode
    /// error ([`JsonErrorKind::Decode`]) should come once the whole value
    /// has been read (the reader's helpers and [`Field`] see to that); the
    /// reader skips the rest of the value when an impl stops early.
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, JsonError>;
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

/// Decodes JSON text straight into any [`FromJson`] type, under the default
/// [`ParseLimits`].
///
/// # Errors
/// As [`decode_with`].
pub fn decode<T: FromJson>(text: &str) -> Result<T, JsonError> {
    decode_with(text, &ParseLimits::default(), T::read_json)
}

/// Decodes the JSON document `text` with `read` under `limits`: the entry
/// point for untrusted input. Oversized input is rejected *before* any
/// parsing work ([`JsonErrorKind::TooLarge`]), and nesting beyond the depth
/// bound aborts with [`JsonErrorKind::TooDeep`] instead of deep recursion.
///
/// # Errors
/// A decode error is returned only once the whole text is known to be one
/// well-formed JSON value within `limits`: a syntax or limit error anywhere
/// in it, trailing characters included, comes first.
pub fn decode_with<'a, T>(
    text: &'a str,
    limits: &ParseLimits,
    read: impl FnOnce(&mut JsonReader<'a>) -> Result<T, JsonError>,
) -> Result<T, JsonError> {
    let mut r = JsonReader::new(text, limits)?;
    let result = r.guarded(read);
    if matches!(&result, Err(e) if e.kind != JsonErrorKind::Decode) {
        return result;
    }
    if r.pos != r.bytes.len() {
        return Err(r.error("trailing characters after JSON value"));
    }
    result
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
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, JsonError> {
        let mut items = Vec::new();
        r.array("array", |r| {
            items.push(T::read_json(r)?);
            Ok(())
        })?;
        Ok(items)
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
// Reader
// ---------------------------------------------------------------------------

/// Bounds on what [`parse_with_limits`] and [`decode_with`] will accept —
/// the guard rails for reading untrusted network input.
///
/// The default (used by the plain [`parse`] and [`decode`]) keeps the
/// historical behavior: no byte limit (trusted local files) and a 128-level
/// depth bound that protects the recursive reader's stack.
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

/// [`parse`] with explicit [`ParseLimits`]: [`decode_with`] of a [`Value`].
pub fn parse_with_limits(text: &str, limits: &ParseLimits) -> Result<Value, JsonError> {
    decode_with(text, limits, Value::read_json)
}

const MAX_DEPTH: usize = 128;

/// The longest integer literal (in digits, leading zeros included) that
/// [`JsonReader`] accumulates in a `u64`: below 10^18 < 2^63, neither the sum
/// nor the negation can overflow. Longer ones take the exact `i128` parse
/// with its range check.
const FAST_DIGITS: usize = 18;

/// The pull decoder every [`FromJson`] impl reads from: a cursor over JSON
/// text that runs the strict parser one token at a time, so a type decodes
/// straight from the text with no tree in between.
///
/// A value is read by exactly one call: [`JsonReader::scalar`],
/// [`JsonReader::int`], [`JsonReader::object`], [`JsonReader::array`] (or
/// [`JsonReader::ints`] and [`JsonReader::scalars`] for arrays of scalars),
/// [`JsonReader::skip`] or a nested [`FromJson::read_json`]. Every byte is
/// checked the same way wherever it stands, skipped values included, and the
/// depth bound holds at every container.
///
/// ```
/// use bss_json::{Field, FromJson, JsonError, JsonReader};
///
/// struct Point(i64, i64);
///
/// impl FromJson for Point {
///     fn read_json(r: &mut JsonReader<'_>) -> Result<Self, JsonError> {
///         let (mut x, mut y) = (Field::default(), Field::default());
///         r.object("x", |key, r| match key {
///             "x" => x.read_with(r, |r| r.int("x")),
///             "y" => y.read_with(r, |r| r.int("y")),
///             _ => r.skip(),
///         })?;
///         Ok(Point(x.required("x")?, y.required("y")?))
///     }
/// }
///
/// let p: Point = bss_json::decode(r#"{"y": -4, "tags": [], "x": 3}"#).unwrap();
/// assert_eq!((p.0, p.1), (3, -4));
/// let err = bss_json::decode::<Point>(r#"{"y": 1}"#).err().unwrap();
/// assert_eq!(err.to_string(), "missing field `x`");
/// ```
#[derive(Debug)]
pub struct JsonReader<'a> {
    text: &'a str,
    bytes: &'a [u8],
    /// The cursor. Between values it sits on the next non-whitespace byte.
    pos: usize,
    /// Containers open around the cursor.
    depth: usize,
    max_depth: usize,
}

/// One value as [`JsonReader::scalar`] reads it: a scalar with its contents,
/// or the kind of a container, which it skipped.
#[derive(Debug, Clone, PartialEq)]
pub enum Scalar<'a> {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number with no fractional part, kept exact.
    Int(i128),
    /// A number with a fraction or exponent.
    Float(f64),
    /// A string, borrowed from the text when it holds no escape.
    Str(Cow<'a, str>),
    /// An array (skipped).
    Array,
    /// An object (skipped).
    Object,
}

impl Scalar<'_> {
    /// A short name for the value's kind, used in decode errors.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Scalar::Null => "null",
            Scalar::Bool(_) => "bool",
            Scalar::Int(_) => "integer",
            Scalar::Float(_) => "float",
            Scalar::Str(_) => "string",
            Scalar::Array => "array",
            Scalar::Object => "object",
        }
    }

    /// The exact integer as a `T`; `what` names it in the decode error for
    /// any other value or an integer out of `T`'s range.
    ///
    /// # Errors
    /// `expected integer for {what}, found {kind}` or
    /// `{what} out of range: {value}`.
    pub fn int<T: TryFrom<i128>>(&self, what: &str) -> Result<T, JsonError> {
        match *self {
            Scalar::Int(raw) => {
                T::try_from(raw).map_err(|_| JsonError::new(format!("{what} out of range: {raw}")))
            }
            _ => Err(JsonError::new(format!(
                "expected integer for {what}, found {}",
                self.kind()
            ))),
        }
    }
}

impl<'a> JsonReader<'a> {
    /// A reader at the start of `text`, which must fit in `limits.max_bytes`.
    fn new(text: &'a str, limits: &ParseLimits) -> Result<Self, JsonError> {
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
        let mut r = JsonReader {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
            max_depth: limits.max_depth,
        };
        r.skip_ws();
        Ok(r)
    }

    /// Reads one value of any kind: a scalar with its contents, or a
    /// container, which is skipped (its syntax and depth still checked).
    ///
    /// # Errors
    /// Syntax and limit errors only.
    #[inline]
    pub fn scalar(&mut self) -> Result<Scalar<'a>, JsonError> {
        let scalar = match self.peek() {
            Some(b'{') => {
                self.skip()?;
                return Ok(Scalar::Object);
            }
            Some(b'[') => {
                self.skip()?;
                return Ok(Scalar::Array);
            }
            Some(b'"') => Scalar::Str(self.string()?),
            Some(b't') => {
                self.keyword("true")?;
                Scalar::Bool(true)
            }
            Some(b'f') => {
                self.keyword("false")?;
                Scalar::Bool(false)
            }
            Some(b'n') => {
                self.keyword("null")?;
                Scalar::Null
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number()?,
            Some(_) => return Err(self.error("unexpected character")),
            None => return Err(self.error("unexpected end of input")),
        };
        self.skip_ws();
        Ok(scalar)
    }

    /// Reads an exact integer as a `T` (see [`Scalar::int`]).
    ///
    /// # Errors
    /// A syntax or limit error, or the decode error of [`Scalar::int`].
    pub fn int<T: TryFrom<i128>>(&mut self, what: &str) -> Result<T, JsonError> {
        self.scalar()?.int(what)
    }

    /// Reads an array of integers; `what` names the array and `item` each
    /// element in decode errors.
    ///
    /// # Errors
    /// As [`JsonReader::array`] and [`JsonReader::int`].
    pub fn ints<T: TryFrom<i128>>(&mut self, what: &str, item: &str) -> Result<Vec<T>, JsonError> {
        let mut out = Vec::new();
        self.array(what, |r| {
            out.push(r.int(item)?);
            Ok(())
        })?;
        Ok(out)
    }

    /// Skips one value, checking its syntax and depth.
    ///
    /// # Errors
    /// Syntax and limit errors.
    pub fn skip(&mut self) -> Result<(), JsonError> {
        match self.peek() {
            Some(b'{') => self.object("", |_, r| r.skip()),
            Some(b'[') => self.scalars("", drop),
            _ => self.scalar().map(drop),
        }
    }

    /// `true` when the value at the cursor is an object.
    #[must_use]
    pub fn at_object(&self) -> bool {
        self.peek() == Some(b'{')
    }

    /// Reads the value at the cursor if it is `null`; reads nothing and
    /// returns `false` for any other value.
    ///
    /// # Errors
    /// A syntax error for a malformed `null`.
    pub fn read_null(&mut self) -> Result<bool, JsonError> {
        if self.peek() == Some(b'n') {
            self.scalar()?;
            return Ok(true);
        }
        Ok(false)
    }

    /// Reads an object, calling `field(key, reader)` once per member in text
    /// order; the call must read the member's value. Keys the caller does not
    /// know are read with [`JsonReader::skip`], so they are still checked.
    /// Store each field in a [`Field`] and decode the struct after the
    /// object closes: the fields may come in any order, a repeated key keeps
    /// its first value, and the decoder reports its errors in its own order.
    ///
    /// # Errors
    /// For any other value, once it is skipped, `expected object with field
    /// `{first_key}`, found {kind}` (the error the first required field
    /// would give). A decode error `field` returns is reported after the
    /// object closes; syntax and limit errors stop the read at once.
    pub fn object(
        &mut self,
        first_key: &str,
        mut field: impl FnMut(&str, &mut Self) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        if !self.at_object() {
            let found = self.scalar()?;
            return Err(JsonError::new(format!(
                "expected object with field `{first_key}`, found {}",
                found.kind()
            )));
        }
        self.open()?;
        let mut first_error = None;
        let mut more = self.peek() != Some(b'}');
        while more {
            let key = self.key()?;
            self.keep_first(&mut first_error, |r| field(&key, r))?;
            more = self.next_field()?;
        }
        self.close();
        first_error.map_or(Ok(()), Err)
    }

    /// Reads an array, calling `item(reader)` once per element; the call
    /// must read the element.
    ///
    /// # Errors
    /// For any other value, once it is skipped, `expected array for {what},
    /// found {kind}`. After the first decode error `item` returns, the
    /// remaining elements are only skipped, and the error is reported after
    /// the array closes; syntax and limit errors stop the read at once.
    pub fn array(
        &mut self,
        what: &str,
        mut item: impl FnMut(&mut Self) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        if self.peek() != Some(b'[') {
            let found = self.scalar()?;
            return Err(JsonError::new(format!(
                "expected array for {what}, found {}",
                found.kind()
            )));
        }
        self.open()?;
        let mut first_error = None;
        let mut more = self.peek() != Some(b']');
        while more {
            if first_error.is_none() {
                self.keep_first(&mut first_error, &mut item)?;
            } else {
                self.skip()?;
            }
            more = self.next_item()?;
        }
        self.close();
        first_error.map_or(Ok(()), Err)
    }

    /// Reads an array of scalars, handing each element to `cell` in order
    /// (a container element is skipped and handed over as its kind): the
    /// loop for flat tables of numbers, which decode no element on its own.
    ///
    /// # Errors
    /// For any other value, once it is skipped, `expected array for {what},
    /// found {kind}`; otherwise syntax and limit errors only.
    pub fn scalars(
        &mut self,
        what: &str,
        mut cell: impl FnMut(Scalar<'a>),
    ) -> Result<(), JsonError> {
        if self.peek() != Some(b'[') {
            let found = self.scalar()?;
            return Err(JsonError::new(format!(
                "expected array for {what}, found {}",
                found.kind()
            )));
        }
        self.open()?;
        let mut more = self.peek() != Some(b']');
        while more {
            cell(self.scalar()?);
            more = self.next_item()?;
        }
        self.close();
        Ok(())
    }

    /// Runs `read` on the value at the cursor, keeping a decode error in
    /// `first` (unless it already holds one) and returning any other error.
    fn keep_first(
        &mut self,
        first: &mut Option<JsonError>,
        read: impl FnOnce(&mut Self) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        match self.guarded(read) {
            Err(e) if e.kind == JsonErrorKind::Decode => {
                first.get_or_insert(e);
                Ok(())
            }
            other => other,
        }
    }

    /// Runs `read` on the value at the cursor. When it fails with a decode
    /// error before it has read the whole value, the reader goes back to the
    /// value's start and skips it, so the cursor always ends after the value
    /// and a later syntax error is still found.
    fn guarded<T>(
        &mut self,
        read: impl FnOnce(&mut Self) -> Result<T, JsonError>,
    ) -> Result<T, JsonError> {
        let (start, depth) = (self.pos, self.depth);
        let result = read(self);
        if matches!(&result, Err(e) if e.kind == JsonErrorKind::Decode)
            && (self.pos == start || self.depth != depth)
        {
            self.pos = start;
            self.depth = depth;
            self.skip()?;
        }
        result
    }

    fn error(&self, message: &str) -> JsonError {
        JsonError::with_kind(
            format!("{message} at byte {}", self.pos),
            JsonErrorKind::Syntax,
        )
    }

    #[inline]
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    /// Advances past every byte from the current position on for which
    /// `keep` holds.
    fn skip_while(&mut self, keep: impl Fn(u8) -> bool) {
        let rest = &self.bytes[self.pos..];
        self.pos += rest.iter().position(|&b| !keep(b)).unwrap_or(rest.len());
    }

    #[inline]
    fn skip_ws(&mut self) {
        // Compact frames hold no whitespace: one look settles that case.
        if self.peek().is_some_and(|b| b > b' ') {
            return;
        }
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

    /// Enters the container at the cursor. The depth counts the containers
    /// around the one about to open, so a document whose deepest nesting is
    /// `max_depth` containers is accepted and one level more is rejected.
    #[inline]
    fn open(&mut self) -> Result<(), JsonError> {
        if self.depth >= self.max_depth {
            return Err(JsonError::with_kind(
                format!(
                    "nesting deeper than {} levels at byte {}",
                    self.max_depth, self.pos
                ),
                JsonErrorKind::TooDeep,
            ));
        }
        self.depth += 1;
        self.pos += 1;
        self.skip_ws();
        Ok(())
    }

    /// Leaves the container whose closing bracket is at the cursor.
    #[inline]
    fn close(&mut self) {
        self.depth -= 1;
        self.pos += 1;
        self.skip_ws();
    }

    /// Reads a member's key and its `:`.
    fn key(&mut self) -> Result<Cow<'a, str>, JsonError> {
        let key = self.string()?;
        self.skip_ws();
        self.eat(b':')?;
        self.skip_ws();
        Ok(key)
    }

    /// After an object member: `true` past a `,`, `false` at the `}`.
    #[inline]
    fn next_field(&mut self) -> Result<bool, JsonError> {
        match self.peek() {
            Some(b',') => {
                self.pos += 1;
                self.skip_ws();
                Ok(true)
            }
            Some(b'}') => Ok(false),
            _ => Err(self.error("expected `,` or `}` in object")),
        }
    }

    /// After an array element: `true` past a `,`, `false` at the `]`.
    #[inline]
    fn next_item(&mut self) -> Result<bool, JsonError> {
        match self.peek() {
            Some(b',') => {
                self.pos += 1;
                self.skip_ws();
                Ok(true)
            }
            Some(b']') => Ok(false),
            _ => Err(self.error("expected `,` or `]` in array")),
        }
    }

    fn keyword(&mut self, word: &str) -> Result<(), JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(self.error(&format!("expected `{word}`")))
        }
    }

    /// Reads a string literal: borrowed when it holds no escape.
    fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.eat(b'"')?;
        // Runs of characters up to the next quote, backslash or control
        // character are taken whole. A run ends at an ASCII byte, so it ends
        // on a character boundary of the input.
        let start = self.pos;
        self.skip_while(|c| c >= 0x20 && c != b'"' && c != b'\\');
        if self.peek() == Some(b'"') {
            self.pos += 1;
            return Ok(Cow::Borrowed(&self.text[start..self.pos - 1]));
        }
        let mut out = String::from(&self.text[start..self.pos]);
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(Cow::Owned(out));
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let simple = match self.peek() {
                        Some(b'"') => Some('"'),
                        Some(b'\\') => Some('\\'),
                        Some(b'/') => Some('/'),
                        Some(b'b') => Some('\u{8}'),
                        Some(b'f') => Some('\u{c}'),
                        Some(b'n') => Some('\n'),
                        Some(b'r') => Some('\r'),
                        Some(b't') => Some('\t'),
                        Some(b'u') => None,
                        _ => return Err(self.error("invalid escape")),
                    };
                    self.pos += 1;
                    out.push(match simple {
                        Some(c) => c,
                        // Surrogate pairs: only BMP scalars are produced by
                        // our printer; reject lone surrogates.
                        None => char::from_u32(self.hex4()?)
                            .ok_or_else(|| self.error("invalid \\u escape"))?,
                    });
                }
                Some(_) => return Err(self.error("control character in string")),
            }
            let run = self.pos;
            self.skip_while(|c| c >= 0x20 && c != b'"' && c != b'\\');
            out.push_str(&self.text[run..self.pos]);
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
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

    /// Reads a number: an exact integer, or a float when it has a fraction
    /// or an exponent. The first [`FAST_DIGITS`] digits accumulate in a
    /// `u64` as they are scanned.
    #[inline]
    fn number(&mut self) -> Result<Scalar<'a>, JsonError> {
        let start = self.pos;
        let negative = self.bytes[start] == b'-';
        let digits_start = start + usize::from(negative);
        let mut end = digits_start;
        let mut magnitude = 0u64;
        while let Some(&d) = self.bytes.get(end) {
            if !d.is_ascii_digit() {
                break;
            }
            if end - digits_start < FAST_DIGITS {
                magnitude = magnitude * 10 + u64::from(d - b'0');
            }
            end += 1;
        }
        self.pos = end;
        if end == digits_start {
            return Err(self.error("expected digits"));
        }
        if matches!(self.peek(), Some(b'.' | b'e' | b'E')) {
            return self.float(start);
        }
        if end - digits_start > FAST_DIGITS {
            return self.text[start..end]
                .parse::<i128>()
                .map(Scalar::Int)
                .map_err(|_| self.error("integer out of range"));
        }
        // At most 18 digits: below 10^18 < 2^63, so neither the sum nor the
        // negation can overflow.
        let value = i128::from(magnitude);
        Ok(Scalar::Int(if negative { -value } else { value }))
    }

    /// Reads the fraction and exponent of the number that started at
    /// `start`; the cursor is past its integer digits. A literal whose value
    /// is not a finite `f64` (`1e999`) is out of range.
    #[cold]
    fn float(&mut self, start: usize) -> Result<Scalar<'a>, JsonError> {
        if self.peek() == Some(b'.') {
            self.pos += 1;
            let frac_start = self.pos;
            self.skip_while(|c| c.is_ascii_digit());
            if self.pos == frac_start {
                return Err(self.error("expected digits after `.`"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
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
        match self.text[start..self.pos].parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(Scalar::Float(v)),
            // An infinity would encode as `null`.
            Ok(_) => Err(self.error("number out of range")),
            Err(_) => Err(self.error("invalid number")),
        }
    }
}

/// One field of an object being read: absent until its key comes, then its
/// decoded value or its decode error. A key that comes again keeps its first
/// value; the repeat is only skipped.
///
/// [`JsonReader::object`] callers keep one per field they know, fill it with
/// [`Field::read`] or [`Field::read_with`] as the key comes, and take the
/// values out once the object has closed, in the order their errors should
/// be reported.
#[derive(Debug)]
pub struct Field<T>(Option<Result<T, JsonError>>);

impl<T> Default for Field<T> {
    fn default() -> Self {
        Field(None)
    }
}

impl<T> Field<T> {
    /// Reads the field's value with `read`, keeping a decode error for later.
    ///
    /// # Errors
    /// Syntax and limit errors only.
    pub fn read_with<'a>(
        &mut self,
        r: &mut JsonReader<'a>,
        read: impl FnOnce(&mut JsonReader<'a>) -> Result<T, JsonError>,
    ) -> Result<(), JsonError> {
        if self.0.is_some() {
            return r.skip();
        }
        match r.guarded(read) {
            Err(e) if e.kind != JsonErrorKind::Decode => Err(e),
            result => {
                self.0 = Some(result);
                Ok(())
            }
        }
    }

    /// Reads the field's value as its [`FromJson`] type.
    ///
    /// # Errors
    /// Syntax and limit errors only.
    pub fn read(&mut self, r: &mut JsonReader<'_>) -> Result<(), JsonError>
    where
        T: FromJson,
    {
        self.read_with(r, T::read_json)
    }

    /// The field's value, or its decode error.
    ///
    /// # Errors
    /// The field's decode error, or `missing field `{key}`` when it never
    /// came.
    pub fn required(self, key: &str) -> Result<T, JsonError> {
        self.0
            .unwrap_or_else(|| Err(JsonError::new(format!("missing field `{key}`"))))
    }

    /// The field's value, `None` when it never came.
    ///
    /// # Errors
    /// The field's decode error.
    pub fn optional(self) -> Result<Option<T>, JsonError> {
        self.0.transpose()
    }

    /// The field's value, if it came and decoded.
    #[must_use]
    pub fn ok(&self) -> Option<&T> {
        self.0.as_ref().and_then(|r| r.as_ref().ok())
    }
}

impl FromJson for Value {
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, JsonError> {
        Ok(match r.peek() {
            Some(b'{') => {
                let mut fields = Vec::new();
                r.object("", |key, r| {
                    fields.push((key.to_owned(), Value::read_json(r)?));
                    Ok(())
                })?;
                Value::Object(fields)
            }
            Some(b'[') => {
                let mut items = Vec::new();
                r.array("", |r| {
                    items.push(Value::read_json(r)?);
                    Ok(())
                })?;
                Value::Array(items)
            }
            _ => match r.scalar()? {
                Scalar::Null => Value::Null,
                Scalar::Bool(b) => Value::Bool(b),
                Scalar::Int(v) => Value::Int(v),
                Scalar::Float(v) => Value::Float(v),
                Scalar::Str(s) => Value::Str(s.into_owned()),
                Scalar::Array | Scalar::Object => unreachable!("containers are read above"),
            },
        })
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
    use std::io::{self, IoSlice, Read, Write};

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
    /// The header and the payload go out together, in one vectored write
    /// where the stream takes all of it (a socket does): with Nagle's
    /// algorithm off, a separate 4-byte header write would leave as a
    /// segment of its own and wake the peer twice per frame.
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
        let header = (len as u32).to_be_bytes();
        let mut bufs = [IoSlice::new(&header), IoSlice::new(payload.as_bytes())];
        let mut rest = &mut bufs[..];
        while !rest.is_empty() {
            match w.write_vectored(rest) {
                Ok(0) => return Err(FrameError::Io(io::ErrorKind::WriteZero.into())),
                Ok(n) => IoSlice::advance_slices(&mut rest, n),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(FrameError::Io(e)),
            }
        }
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
