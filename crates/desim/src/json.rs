//! A self-contained JSON value, emitter, and parser.
//!
//! The workspace is hermetic by design — the simulator's determinism story
//! (see [`crate::rng`]) extends to its serialization layer, so the handful
//! of types that cross a serialization boundary (`Dur`, configs,
//! `RunReport`, topology snapshots) implement [`ToJson`]/[`FromJson`]
//! against this module instead of pulling `serde`/`serde_json` from a
//! registry the build environment cannot reach.
//!
//! Scope and guarantees:
//!
//! * **Stable output.** [`Value::emit`] and [`Value::emit_pretty`] are pure
//!   functions of the value: object keys keep insertion order, floats use
//!   Rust's shortest round-trip formatting, and non-finite floats are
//!   rejected at emit time (JSON has no spelling for them). Byte-identical
//!   values emit byte-identical text, which is what the golden-table
//!   regression layer keys on.
//! * **Strict, linear-time parsing.** [`Value::parse`] accepts exactly one
//!   JSON value in time linear in the input: trailing garbage, truncated
//!   input, bad escapes (including signed `\u` digits), numbers that
//!   overflow `f64`, and pathological nesting (> [`MAX_DEPTH`]) are errors
//!   carrying the byte offset. Every parsed number is finite, so every
//!   parsed value re-emits.
//! * **Integer range.** Numbers are carried as `f64`; integers are exact up
//!   to 2^53, far beyond any quantity the simulator serializes (the
//!   longest run is ~10^15 ns). [`Value::from_u64`] debug-asserts this.
//!
//! Records map to JSON objects one way. [`json_record!`](crate::json_record)
//! declares a struct's JSON form once, as a table of `field: "key"` rows,
//! and generates both [`ToJson`] (keys in table order) and [`FromJson`].
//! Decoders the macro cannot express — tagged unions, fields that accept
//! two spellings, range-checked addresses — read their object through
//! [`Fields`]. Either way every object level is strict: a key that was
//! not read, or that appears twice, is an error, and a failing field's
//! error is prefixed with its key, so messages carry a path such as
//! `faults: events: [0]: unknown key "chasis" (valid: …)`.

use std::fmt;

/// Maximum container nesting accepted by the parser.
pub const MAX_DEPTH: u32 = 128;

/// A JSON value. Objects preserve insertion order (`Vec` of pairs, not a
/// map) so emit order is deterministic and diffs stay readable.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

/// A parse or decode error: what went wrong and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    pub msg: String,
    /// Byte offset into the input (0 for decode errors on an already
    /// parsed value).
    pub at: usize,
}

impl JsonError {
    pub fn new(msg: impl Into<String>, at: usize) -> JsonError {
        JsonError {
            msg: msg.into(),
            at,
        }
    }

    /// An error about the *shape* of an already parsed value.
    pub fn decode(msg: impl Into<String>) -> JsonError {
        JsonError::new(msg, 0)
    }

    /// The same error one level down a path: `within("faults")` turns
    /// `events: [0]: …` into `faults: events: [0]: …`.
    pub fn within(self, step: impl fmt::Display) -> JsonError {
        JsonError { msg: format!("{step}: {}", self.msg), at: self.at }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.at == 0 {
            write!(f, "{}", self.msg)
        } else {
            write!(f, "{} (at byte {})", self.msg, self.at)
        }
    }
}

impl std::error::Error for JsonError {}

impl Value {
    pub fn from_u64(n: u64) -> Value {
        debug_assert!(n <= (1u64 << 53), "u64 {n} exceeds exact f64 range");
        Value::Num(n as f64)
    }

    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    /// Build an object from `(key, value)` pairs.
    pub fn obj(pairs: Vec<(&str, Value)>) -> Value {
        Value::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    pub fn as_bool(&self) -> Result<bool, JsonError> {
        match self {
            Value::Bool(b) => Ok(*b),
            other => Err(JsonError::decode(format!("expected bool, got {}", other.kind()))),
        }
    }

    pub fn as_f64(&self) -> Result<f64, JsonError> {
        match self {
            Value::Num(n) => Ok(*n),
            other => Err(JsonError::decode(format!("expected number, got {}", other.kind()))),
        }
    }

    pub fn as_u64(&self) -> Result<u64, JsonError> {
        let n = self.as_f64()?;
        if n < 0.0 || n.fract() != 0.0 || n > (1u64 << 53) as f64 {
            return Err(JsonError::decode(format!("expected unsigned integer, got {n}")));
        }
        Ok(n as u64)
    }

    pub fn as_u8(&self) -> Result<u8, JsonError> {
        u8::from_json(self)
    }

    pub fn as_str(&self) -> Result<&str, JsonError> {
        match self {
            Value::Str(s) => Ok(s),
            other => Err(JsonError::decode(format!("expected string, got {}", other.kind()))),
        }
    }

    pub fn as_arr(&self) -> Result<&[Value], JsonError> {
        match self {
            Value::Arr(v) => Ok(v),
            other => Err(JsonError::decode(format!("expected array, got {}", other.kind()))),
        }
    }

    pub fn as_obj(&self) -> Result<&[(String, Value)], JsonError> {
        match self {
            Value::Obj(v) => Ok(v),
            other => Err(JsonError::decode(format!("expected object, got {}", other.kind()))),
        }
    }

    /// Look up a key in an object value.
    pub fn get(&self, key: &str) -> Result<&Value, JsonError> {
        self.as_obj()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .ok_or_else(|| JsonError::decode(format!("missing key \"{key}\"")))
    }

    fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Num(_) => "number",
            Value::Str(_) => "string",
            Value::Arr(_) => "array",
            Value::Obj(_) => "object",
        }
    }

    // ---- emit ----------------------------------------------------------

    /// Compact single-line form.
    pub fn emit(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Pretty form, two-space indent, key order preserved — the canonical
    /// form golden files are stored in.
    pub fn emit_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, level: usize) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(true) => out.push_str("true"),
            Value::Bool(false) => out.push_str("false"),
            Value::Num(n) => {
                assert!(n.is_finite(), "JSON cannot represent {n}");
                // Shortest round-trip formatting; integral values print
                // without a fractional part, which parses back identically.
                out.push_str(&format!("{n}"));
            }
            Value::Str(s) => write_escaped(out, s),
            Value::Arr(items) => {
                write_seq(out, indent, level, '[', ']', items.len(), |out, i, lvl| {
                    items[i].write(out, indent, lvl);
                });
            }
            Value::Obj(pairs) => {
                write_seq(out, indent, level, '{', '}', pairs.len(), |out, i, lvl| {
                    write_escaped(out, &pairs[i].0);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    pairs[i].1.write(out, indent, lvl);
                });
            }
        }
    }

    // ---- parse ---------------------------------------------------------

    /// Parse exactly one JSON value; trailing non-whitespace is an error.
    pub fn parse(input: &str) -> Result<Value, JsonError> {
        let mut p = Parser {
            text: input,
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(JsonError::new("trailing garbage after value", p.pos));
        }
        Ok(v)
    }

    /// Parse from raw bytes (must be UTF-8).
    pub fn parse_bytes(input: &[u8]) -> Result<Value, JsonError> {
        let s = std::str::from_utf8(input)
            .map_err(|e| JsonError::new(format!("invalid UTF-8: {e}"), e.valid_up_to()))?;
        Value::parse(s)
    }
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    level: usize,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(w) = indent {
            out.push('\n');
            out.extend(std::iter::repeat(' ').take(w * (level + 1)));
        }
        item(out, i, level + 1);
    }
    if let Some(w) = indent {
        out.push('\n');
        out.extend(std::iter::repeat(' ').take(w * level));
    }
    out.push(close);
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
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(JsonError::new(format!("expected '{}'", b as char), self.pos))
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(JsonError::new(format!("expected '{lit}'"), self.pos))
        }
    }

    fn value(&mut self, depth: u32) -> Result<Value, JsonError> {
        if depth > MAX_DEPTH {
            return Err(JsonError::new("nesting too deep", self.pos));
        }
        match self.peek() {
            None => Err(JsonError::new("unexpected end of input", self.pos)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                loop {
                    self.skip_ws();
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Value::Arr(items));
                        }
                        _ => return Err(JsonError::new("expected ',' or ']'", self.pos)),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut pairs = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Value::Obj(pairs));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    self.skip_ws();
                    let val = self.value(depth + 1)?;
                    pairs.push((key, val));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Value::Obj(pairs));
                        }
                        _ => return Err(JsonError::new("expected ',' or '}'", self.pos)),
                    }
                }
            }
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            Some(b) => Err(JsonError::new(
                format!("unexpected character '{}'", b as char),
                self.pos,
            )),
        }
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits_start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == digits_start {
            return Err(JsonError::new("expected digits", self.pos));
        }
        // JSON forbids leading zeros like "01".
        if self.pos - digits_start > 1 && self.bytes[digits_start] == b'0' {
            return Err(JsonError::new("leading zero in number", digits_start));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            let frac_start = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == frac_start {
                return Err(JsonError::new("expected fraction digits", self.pos));
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            let exp_start = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == exp_start {
                return Err(JsonError::new("expected exponent digits", self.pos));
            }
        }
        let text = &self.text[start..self.pos];
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Value::Num(n)),
            Ok(_) => Err(JsonError::new(format!("number {text} overflows f64"), start)),
            Err(e) => Err(JsonError::new(format!("bad number {text}: {e}"), start)),
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(JsonError::new("unterminated string", self.pos)),
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
                        Some(b'b') => out.push('\u{08}'),
                        Some(b'f') => out.push('\u{0c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require \uXXXX low half.
                                if self.peek() != Some(b'\\') {
                                    return Err(JsonError::new("lone high surrogate", self.pos));
                                }
                                self.pos += 1;
                                self.expect(b'u')?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(JsonError::new("invalid low surrogate", self.pos));
                                }
                                let code =
                                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(code)
                                    .ok_or_else(|| JsonError::new("bad surrogate pair", self.pos))?
                            } else {
                                char::from_u32(hi)
                                    .ok_or_else(|| JsonError::new("bad \\u escape", self.pos))?
                            };
                            out.push(c);
                            continue; // hex4 already advanced pos
                        }
                        _ => return Err(JsonError::new("bad escape", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => {
                    return Err(JsonError::new("raw control character in string", self.pos))
                }
                Some(_) => {
                    // Copy the run up to the next ASCII stop byte at once:
                    // both ends sit on char boundaries of the valid input.
                    let start = self.pos;
                    while let Some(&b) = self.bytes.get(self.pos) {
                        if b == b'"' || b == b'\\' || b < 0x20 {
                            break;
                        }
                        self.pos += 1;
                    }
                    out.push_str(&self.text[start..self.pos]);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let Some(digits) = self.bytes.get(self.pos..self.pos + 4) else {
            return Err(JsonError::new("truncated \\u escape", self.pos));
        };
        // Digit by digit: `u32::from_str_radix` would also take a `+`.
        let v = digits
            .iter()
            .try_fold(0, |v, &b| Some(v * 16 + char::from(b).to_digit(16)?))
            .ok_or_else(|| JsonError::new("bad \\u escape", self.pos))?;
        self.pos += 4;
        Ok(v)
    }
}

/// Types that emit themselves as a [`Value`].
pub trait ToJson {
    fn to_json(&self) -> Value;
}

/// Types that rebuild themselves from a parsed [`Value`].
pub trait FromJson: Sized {
    fn from_json(v: &Value) -> Result<Self, JsonError>;
}

/// A strict reader over one JSON object: each field is taken by key with
/// [`req`](Fields::req) or [`opt`](Fields::opt), and [`end`](Fields::end)
/// then rejects every key that was not asked for or that appears twice.
/// A field's decode error comes back prefixed with its key.
pub struct Fields<'a> {
    pairs: &'a [(String, Value)],
    /// Every key asked for so far: the valid keys `end` lists.
    asked: Vec<&'static str>,
}

impl<'a> Fields<'a> {
    pub fn new(v: &'a Value) -> Result<Fields<'a>, JsonError> {
        Ok(Fields { pairs: v.as_obj()?, asked: Vec::new() })
    }

    pub fn req<T: FromJson>(&mut self, key: &'static str) -> Result<T, JsonError> {
        self.opt(key)?.ok_or_else(|| JsonError::decode(format!("missing key \"{key}\"")))
    }

    pub fn opt<T: FromJson>(&mut self, key: &'static str) -> Result<Option<T>, JsonError> {
        self.asked.push(key);
        match self.pairs.iter().find(|(k, _)| k == key) {
            Some((_, v)) => T::from_json(v).map(Some).map_err(|e| e.within(key)),
            None => Ok(None),
        }
    }

    /// Finish the object: every key must have been asked for, once.
    pub fn end(self) -> Result<(), JsonError> {
        for (i, (k, _)) in self.pairs.iter().enumerate() {
            if !self.asked.contains(&k.as_str()) {
                return Err(JsonError::decode(format!(
                    "unknown key \"{k}\" (valid: {})",
                    self.asked.join(", ")
                )));
            }
            if self.pairs[..i].iter().any(|(seen, _)| seen == k) {
                return Err(JsonError::decode(format!("key \"{k}\" appears twice")));
            }
        }
        Ok(())
    }
}

/// Declare a struct's JSON form once, as a table of `field: "key"` rows,
/// and derive both [`ToJson`] and [`FromJson`] from it. Output keeps table
/// order; input goes through [`Fields`], so unknown and repeated keys are
/// rejected and field errors name their key. A row's mode follows its
/// key:
///
/// * none — required;
/// * `(opt)` — an `Option` field, omitted on output when `None`;
/// * `(default)` — may be omitted on input, always emitted;
/// * `(elide)` — may be omitted on input, and omitted on output while it
///   equals the default.
///
/// Defaults are each field type's `Default`, or the fields of a whole
/// default value when the header names one:
///
/// ```
/// use desim::json::{FromJson, ToJson, Value};
///
/// #[derive(Debug, PartialEq)]
/// struct Knobs {
///     depth: u32,
///     fast: bool,
///     tag: Option<String>,
///     inner: Vec<Knobs>,
/// }
///
/// desim::json_record! {
///     Knobs, defaults: Knobs { depth: 4, fast: false, tag: None, inner: Vec::new() };
///     depth: "depth" (default),
///     fast: "fast" (elide),
///     tag: "tag" (opt),
///     inner: "inner",
/// }
///
/// let parse = |text: &str| Knobs::from_json(&Value::parse(text).unwrap());
/// let k = parse(r#"{"inner": [{"fast": true, "inner": []}]}"#).unwrap();
/// assert_eq!((k.depth, k.inner[0].fast, &k.tag), (4, true, &None));
/// let text = r#"{"depth":4,"inner":[{"depth":4,"fast":true,"inner":[]}]}"#;
/// assert_eq!(k.to_json().emit(), text);
/// assert_eq!(parse(text).unwrap(), k);
///
/// let err = parse(r#"{"inner": [{"fats": true, "inner": []}]}"#).unwrap_err();
/// assert_eq!(err.msg, r#"inner: [0]: unknown key "fats" (valid: depth, fast, tag, inner)"#);
/// let err = parse(r#"{"inner": [], "inner": []}"#).unwrap_err();
/// assert_eq!(err.msg, r#"key "inner" appears twice"#);
/// assert_eq!(parse("{}").unwrap_err().msg, r#"missing key "inner""#);
/// assert!(parse(r#"{"depth": -1, "inner": []}"#).unwrap_err().msg.starts_with("depth: "));
/// ```
#[macro_export]
macro_rules! json_record {
    ($ty:ident $(, defaults: $defaults:expr)?; $($rows:tt)*) => {
        $crate::json_record!(@record $ty, [$($defaults)?]; $($rows)*);
    };

    (@record $ty:ident, $d:tt; $($field:ident : $key:literal $(($mode:ident))?),* $(,)?) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Value {
                let mut out: ::std::vec::Vec<(::std::string::String, $crate::json::Value)> =
                    ::std::vec::Vec::with_capacity([$($key),*].len());
                $( $crate::json_record!(@put out, self, $d, $field, $key, [$($mode)?]); )*
                $crate::json::Value::Obj(out)
            }
        }

        impl $crate::json::FromJson for $ty {
            fn from_json(
                v: &$crate::json::Value,
            ) -> ::std::result::Result<Self, $crate::json::JsonError> {
                let mut f = $crate::json::Fields::new(v)?;
                let out = $ty {
                    $( $field: $crate::json_record!(@get f, $d, $field, $key, [$($mode)?]), )*
                };
                f.end()?;
                Ok(out)
            }
        }
    };

    (@put $out:ident, $s:ident, $d:tt, $field:ident, $key:literal, [opt]) => {
        if let Some(x) = &$s.$field {
            $out.push(($key.into(), $crate::json::ToJson::to_json(x)));
        }
    };
    (@put $out:ident, $s:ident, $d:tt, $field:ident, $key:literal, [elide]) => {
        if $s.$field != $crate::json_record!(@default $d, $field) {
            $out.push(($key.into(), $crate::json::ToJson::to_json(&$s.$field)));
        }
    };
    (@put $out:ident, $s:ident, $d:tt, $field:ident, $key:literal, [$(default)?]) => {
        $out.push(($key.into(), $crate::json::ToJson::to_json(&$s.$field)))
    };

    (@get $f:ident, $d:tt, $field:ident, $key:literal, []) => {
        $f.req($key)?
    };
    (@get $f:ident, $d:tt, $field:ident, $key:literal, [opt]) => {
        $f.opt($key)?
    };
    // `default` and `elide` (`@put` has already rejected any other mode).
    (@get $f:ident, $d:tt, $field:ident, $key:literal, [$defaulted:ident]) => {
        $f.opt($key)?.unwrap_or_else(|| $crate::json_record!(@default $d, $field))
    };

    (@default [], $field:ident) => {
        ::std::default::Default::default()
    };
    (@default [$defaults:expr], $field:ident) => {
        ($defaults).$field
    };
}

impl ToJson for bool {
    fn to_json(&self) -> Value {
        Value::Bool(*self)
    }
}
impl FromJson for bool {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        v.as_bool()
    }
}
impl ToJson for f64 {
    fn to_json(&self) -> Value {
        Value::Num(*self)
    }
}
impl FromJson for f64 {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        v.as_f64()
    }
}
// Unsigned integers: exact up to 2^53 out (`Value::from_u64`), range-checked in.
macro_rules! unsigned_json {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Value {
                Value::from_u64(*self as u64)
            }
        }
        impl FromJson for $t {
            fn from_json(v: &Value) -> Result<Self, JsonError> {
                let n = v.as_u64()?;
                <$t>::try_from(n).map_err(|_| {
                    JsonError::decode(format!("{n} does not fit in {}", stringify!($t)))
                })
            }
        }
    )*};
}
unsigned_json!(u8, u32, u64, usize);
impl ToJson for String {
    fn to_json(&self) -> Value {
        Value::Str(self.clone())
    }
}
impl FromJson for String {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        Ok(v.as_str()?.to_string())
    }
}
impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Value {
        Value::Arr(self.iter().map(ToJson::to_json).collect())
    }
}
impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        v.as_arr()?
            .iter()
            .enumerate()
            .map(|(i, x)| T::from_json(x).map_err(|e| e.within(format_args!("[{i}]"))))
            .collect()
    }
}
// Pairs serialize as two-element arrays (the same shape serde derives
// produced for tuples, so existing JSON consumers keep working).
impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Value {
        Value::Arr(vec![self.0.to_json(), self.1.to_json()])
    }
}
impl<A: FromJson, B: FromJson> FromJson for (A, B) {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        let a = v.as_arr()?;
        if a.len() != 2 {
            return Err(JsonError::decode(format!("expected pair, got {} items", a.len())));
        }
        Ok((A::from_json(&a[0])?, B::from_json(&a[1])?))
    }
}

impl ToJson for crate::time::Dur {
    fn to_json(&self) -> Value {
        Value::from_u64(self.as_nanos())
    }
}
impl FromJson for crate::time::Dur {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        Ok(crate::time::Dur::from_nanos(v.as_u64()?))
    }
}
impl ToJson for crate::time::SimTime {
    fn to_json(&self) -> Value {
        Value::from_u64(self.as_nanos())
    }
}
impl FromJson for crate::time::SimTime {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        Ok(crate::time::SimTime::from_nanos(v.as_u64()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Dur;

    #[test]
    fn scalars_round_trip() {
        for text in ["null", "true", "false", "0", "-1", "3.5", "1e3", "\"hi\""] {
            let v = Value::parse(text).unwrap();
            let back = Value::parse(&v.emit()).unwrap();
            assert_eq!(v, back, "{text}");
        }
    }

    #[test]
    fn containers_round_trip_preserving_order() {
        let v = Value::obj(vec![
            ("zeta", Value::from_u64(1)),
            ("alpha", Value::Arr(vec![Value::Null, Value::Bool(true)])),
            ("nested", Value::obj(vec![("k", Value::str("v\n\"x\""))])),
        ]);
        let compact = v.emit();
        assert!(compact.starts_with("{\"zeta\":1,\"alpha\""), "{compact}");
        assert_eq!(Value::parse(&compact).unwrap(), v);
        assert_eq!(Value::parse(&v.emit_pretty()).unwrap(), v);
    }

    #[test]
    fn float_formatting_is_stable_and_round_trips() {
        for f in [0.1, 1.0 / 3.0, 1e-12, 123456.789, 2.0f64.powi(52), 0.30000000000000004] {
            let emitted = Value::Num(f).emit();
            assert_eq!(emitted, Value::Num(f).emit(), "pure function of value");
            let back = Value::parse(&emitted).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), f.to_bits(), "{f} via {emitted}");
        }
    }

    #[test]
    fn malformed_inputs_rejected() {
        for bad in [
            "",
            "{",
            "[1,",
            "[1 2]",
            "{\"a\" 1}",
            "{\"a\":}",
            "tru",
            "nul",
            "01",
            "1.",
            "1e",
            "-",
            "\"unterminated",
            "\"bad \\q escape\"",
            "\"\\u12\"",
            "[1] trailing",
            "{} {}",
            "[1]]",
            "nan",
            "1e999",
            "[0, -1e400]",
            "\"\\u+041\"",
            "\"\\u-041\"",
        ] {
            assert!(Value::parse(bad).is_err(), "accepted {bad:?}");
        }
        let err = Value::parse("[1, 1e999]").unwrap_err();
        assert_eq!(err.at, 4, "overflow reported at the number's offset: {err}");
    }

    #[test]
    fn string_parsing_is_linear() {
        // ~1 MB of short strings: the old per-char UTF-8 re-validation of
        // the whole remaining input took ~15 s here; linear parsing takes
        // milliseconds even unoptimized.
        let doc = format!("[{}\"end\"]", "\"k\\u00e9y-\u{e9}\", ".repeat(70_000));
        assert!(doc.len() > 1_000_000);
        let start = std::time::Instant::now();
        let v = Value::parse(&doc).unwrap();
        assert!(start.elapsed().as_secs_f64() < 5.0, "took {:?}", start.elapsed());
        assert_eq!(v.as_arr().unwrap()[0].as_str().unwrap(), "k\u{e9}y-\u{e9}");
    }

    #[test]
    fn deep_nesting_rejected() {
        let deep = "[".repeat(300) + &"]".repeat(300);
        assert!(Value::parse(&deep).is_err());
    }

    #[test]
    fn unicode_escapes_decode() {
        let v = Value::parse("\"a\\u00e9\\ud83d\\ude00b\"").unwrap();
        assert_eq!(v.as_str().unwrap(), "a\u{e9}\u{1f600}b");
        // And re-emit parses back to the same string (emitted raw, not escaped).
        assert_eq!(Value::parse(&v.emit()).unwrap(), v);
    }

    #[test]
    fn lone_surrogate_rejected() {
        assert!(Value::parse("\"\\ud800\"").is_err());
        assert!(Value::parse("\"\\ud800\\u0041\"").is_err());
    }

    #[test]
    fn dur_round_trips() {
        let d = Dur::from_micros(1234);
        let v = d.to_json();
        assert_eq!(Dur::from_json(&v).unwrap(), d);
        assert!(Dur::from_json(&Value::Num(-1.0)).is_err());
        assert!(Dur::from_json(&Value::Num(1.5)).is_err());
    }

    #[test]
    fn accessors_report_type_errors() {
        let v = Value::parse("{\"a\":1}").unwrap();
        assert!(v.get("a").unwrap().as_u64().is_ok());
        assert!(v.get("missing").is_err());
        assert!(v.get("a").unwrap().as_str().is_err());
        assert!(v.as_arr().is_err());
    }
}
