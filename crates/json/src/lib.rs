//! # elephants-json
//!
//! A small, dependency-free JSON layer for the elephants workspace.
//!
//! The workspace policy is **zero external crates** — every build must
//! succeed fully offline — so experiment configs, run results and traces
//! serialize through this module instead of `serde`/`serde_json`:
//!
//! * [`ToJson`] / [`FromJson`] — one way through any type: `write_json`
//!   appends the compact text straight to a `String` and `read_json` pulls
//!   the value straight off a [`Reader`], with no document in between
//!   (which is what keeps an 11 MB flight record from living in memory as
//!   a tree of per-field allocations). They are implemented for primitives
//!   and containers here and for domain types in their own crates via
//!   [`impl_json_struct!`], [`impl_json_unit_enum!`], [`impl_json_newtype!`]
//!   and — for an enum declared as a table of its kinds — [`kind_table!`];
//!   an enum with data variants uses [`Reader::variant`] and
//!   [`write_variant`].
//! * [`Reader`] — a strict pull reader over the text: the one lexer behind
//!   every `read_json` and [`parse`].
//! * [`Value`] / [`parse`] — an owned document model for documents whose
//!   shape is not a type (reports, tests), with deterministic writers
//!   [`Value::to_string_compact`] / [`Value::to_string_pretty`] (object
//!   keys keep insertion order, so the same data always produces
//!   byte-identical text).
//!
//! The compact text is canonical: [`ToJson::to_json_pretty`] is that text
//! parsed and re-rendered indented. Integers are read and written exactly
//! (a [`Value::Int`] is an `i128`), so `u64` seeds and byte counters
//! round-trip. Non-finite floats serialize as `null` (matching serde_json)
//! and parse back as `NaN`.

use std::borrow::Cow;
use std::fmt::Write as _;

/// Error produced by parsing or by [`FromJson`] conversions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError(pub String);

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json error: {}", self.0)
    }
}

impl std::error::Error for JsonError {}

impl JsonError {
    /// Construct from anything displayable.
    pub fn new(msg: impl std::fmt::Display) -> Self {
        JsonError(msg.to_string())
    }
}

/// An owned JSON document.
///
/// Objects are stored as insertion-ordered `(key, value)` pairs, not a
/// map: serialization order is exactly the order fields were pushed,
/// which is what makes equal inputs produce byte-identical output.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer literal (no `.`, `e` or `E` in the source).
    Int(i128),
    /// A floating-point literal.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, in insertion order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Look up a field of an object; errors on missing field or non-object.
    pub fn get_field(&self, name: &str) -> Result<&Value, JsonError> {
        match self {
            Value::Object(fields) => fields
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v)
                .ok_or_else(|| JsonError::new(format!("missing field '{name}'"))),
            _ => Err(JsonError::new(format!("expected an object with field '{name}'"))),
        }
    }

    /// Compact single-line rendering.
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Pretty rendering with two-space indentation (serde_json style).
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => b.write_json(out),
            Value::Int(i) => i.write_json(out),
            Value::Float(x) => x.write_json(out),
            Value::Str(s) => s.write_json(out),
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
                    newline_indent(out, indent, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push(']');
            }
            Value::Object(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    k.write_json(out);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push('}');
            }
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(w) = indent {
        out.push('\n');
        for _ in 0..w * depth {
            out.push(' ');
        }
    }
}

fn write_json_string(out: &mut String, s: &str) {
    out.push('"');
    // Everything that needs escaping is ASCII, so a byte scan finds the
    // runs in between and they are copied whole.
    let mut run_start = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0x08 => "\\b",
            0x0c => "\\f",
            0x00..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[run_start..i]);
        if escape.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(escape);
        }
        run_start = i + 1;
    }
    out.push_str(&s[run_start..]);
    out.push('"');
}

/// Append a data variant in the externally tagged layout
/// [`Reader::variant`] reads: `{"tag":body}`. A unit variant is its name,
/// written as a string.
pub fn write_variant(out: &mut String, tag: &str, body: &impl ToJson) {
    out.push('{');
    write_json_string(out, tag);
    out.push(':');
    body.write_json(out);
    out.push('}');
}

/// Deepest array/object nesting the reader accepts. Input is read by
/// recursive descent, so without a bound a corrupt file of repeated `[`
/// overflows the stack and aborts the process instead of returning an
/// error. The documents this workspace writes nest a handful of levels.
pub const MAX_DEPTH: usize = 128;

/// Parse a complete JSON document (trailing whitespace allowed, nothing else).
pub fn parse(input: &str) -> Result<Value, JsonError> {
    let mut r = Reader::new(input);
    let v = r.value()?;
    r.finish()?;
    Ok(v)
}

/// A JSON number as lexed: integer literals (no `.`, `e` or `E`) keep
/// their exact value, everything else is a float.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Number {
    /// An integer literal that fits `i128`.
    Int(i128),
    /// A literal with a fraction or exponent, or an integer beyond `i128`.
    Float(f64),
}

/// A strict pull reader over JSON text: the one lexer behind both
/// [`parse`] (which builds a [`Value`]) and the typed
/// [`FromJson::read_json`] impls (which do not).
///
/// Each method expects the cursor on the first byte of a value and leaves
/// it just past that value; [`Reader::object`] and [`Reader::array`] hand
/// the cursor to a callback once per member, which reads it with some
/// type's [`FromJson::read_json`] (scalars included: `u64::read_json(r)`).
/// Values the caller does not want go through [`Reader::skip`], which
/// checks them against the same grammar, so a document is accepted or
/// rejected identically whichever way it is read.
#[derive(Debug)]
pub struct Reader<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
}

impl<'a> Reader<'a> {
    /// A reader positioned on the first value of `text`.
    pub fn new(text: &'a str) -> Self {
        let mut r = Reader { text, pos: 0, depth: 0 };
        r.skip_ws();
        r
    }

    /// Check that only whitespace follows the value that was read.
    pub fn finish(mut self) -> Result<(), JsonError> {
        self.skip_ws();
        if self.pos != self.text.len() {
            return Err(JsonError::new(format!("trailing input at byte {}", self.pos)));
        }
        Ok(())
    }

    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.peek() {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(JsonError::new(format!("expected '{}' at byte {}", b as char, self.pos)))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        if self.text.as_bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    /// The error for the cursor not being on a `wanted`: names the kind of
    /// value that is there, or the byte if none can start there.
    fn mismatch(&self, wanted: &str) -> JsonError {
        let rest = &self.text.as_bytes()[self.pos..];
        let got = match rest.first() {
            Some(b'{') => "object",
            Some(b'[') => "array",
            Some(b'"') => "string",
            Some(b'-' | b'0'..=b'9') => "number",
            _ if rest.starts_with(b"true") || rest.starts_with(b"false") => "bool",
            _ if rest.starts_with(b"null") => "null",
            Some(&b) => {
                return JsonError::new(format!("unexpected byte '{}' at {}", b as char, self.pos))
            }
            None => return JsonError::new("unexpected end of input"),
        };
        JsonError::new(format!("expected {wanted}, got {got} at byte {}", self.pos))
    }

    /// Read any value into the document model.
    pub fn value(&mut self) -> Result<Value, JsonError> {
        match self.peek() {
            Some(b'{') => {
                let mut fields = Vec::new();
                self.object(|r, key| {
                    fields.push((key.to_string(), r.value()?));
                    Ok(())
                })?;
                Ok(Value::Object(fields))
            }
            Some(b'[') => {
                let mut items = Vec::new();
                self.array(|r| {
                    items.push(r.value()?);
                    Ok(())
                })?;
                Ok(Value::Array(items))
            }
            Some(b'"') => Ok(Value::Str(self.string()?.into_owned())),
            Some(b't' | b'f') => self.bool().map(Value::Bool),
            Some(b'n') if self.null() => Ok(Value::Null),
            _ => match self.number()? {
                Number::Int(i) => Ok(Value::Int(i)),
                Number::Float(x) => Ok(Value::Float(x)),
            },
        }
    }

    /// Read past any value, checking its grammar but keeping nothing.
    pub fn skip(&mut self) -> Result<(), JsonError> {
        match self.peek() {
            Some(b'{') => self.object(|r, _| r.skip()),
            Some(b'[') => self.array(|r| r.skip()),
            Some(b'"') => self.string().map(drop),
            Some(b't' | b'f') => self.bool().map(drop),
            Some(b'n') if self.null() => Ok(()),
            _ => self.number().map(drop),
        }
    }

    /// Consume `null` if that is the next value; `false` leaves the cursor
    /// where it was.
    fn null(&mut self) -> bool {
        self.eat_literal("null")
    }

    /// Read `true` or `false`.
    fn bool(&mut self) -> Result<bool, JsonError> {
        if self.eat_literal("true") {
            Ok(true)
        } else if self.eat_literal("false") {
            Ok(false)
        } else {
            Err(self.mismatch("bool"))
        }
    }

    /// Step over a run of ASCII digits; how many there were.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while let Some(b'0'..=b'9') = self.peek() {
            self.pos += 1;
        }
        self.pos - start
    }

    /// Read a number, in one pass over RFC 8259's grammar:
    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`.
    fn number(&mut self) -> Result<Number, JsonError> {
        let start = self.pos;
        match self.peek() {
            Some(b'-') => self.pos += 1,
            Some(b) if b.is_ascii_digit() => {}
            _ => return Err(self.mismatch("number")),
        }
        // A lone 0 (what follows it is the next token, so "01" is rejected
        // by whoever reads on), or digits; then a fraction and an exponent,
        // each needing a digit.
        let mut ok = if self.peek() == Some(b'0') {
            self.pos += 1;
            true
        } else {
            self.digits() > 0
        };
        let mut float = false;
        if ok && self.peek() == Some(b'.') {
            self.pos += 1;
            float = true;
            ok = self.digits() > 0;
        }
        if ok && matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            float = true;
            if let Some(b'+' | b'-') = self.peek() {
                self.pos += 1;
            }
            ok = self.digits() > 0;
        }
        let txt = &self.text[start..self.pos];
        if !ok {
            return Err(JsonError::new(format!("bad number '{txt}' at byte {start}")));
        }
        if !float {
            // i64 first: it covers every counter this workspace writes and
            // parses several times faster than i128.
            if let Ok(i) = txt.parse::<i64>() {
                return Ok(Number::Int(i as i128));
            }
            if let Ok(i) = txt.parse::<i128>() {
                return Ok(Number::Int(i));
            }
            // Magnitudes beyond i128 (e.g. a serialized f64::MAX) fall back
            // to the float representation rather than erroring.
        }
        txt.parse::<f64>()
            .map(Number::Float)
            .map_err(|e| JsonError::new(format!("bad number '{txt}': {e}")))
    }

    /// Read a string. Borrowed from the input when it holds no escapes.
    pub fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        if self.peek() != Some(b'"') {
            return Err(self.mismatch("string"));
        }
        self.pos += 1;
        let mut owned: Option<String> = None;
        loop {
            // A run of plain bytes. It starts and ends next to ASCII, so
            // slicing the text there is on a character boundary.
            let start = self.pos;
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            let run = &self.text[start..self.pos];
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(match owned {
                        None => Cow::Borrowed(run),
                        Some(mut s) => {
                            s.push_str(run);
                            Cow::Owned(s)
                        }
                    });
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let s = owned.get_or_insert_with(String::new);
                    s.push_str(run);
                    s.push(self.escape()?);
                }
                Some(b) => {
                    return Err(JsonError::new(format!("raw control byte 0x{b:02x} in string")))
                }
                None => return Err(JsonError::new("unterminated string")),
            }
        }
    }

    /// The character an escape sequence stands for; the cursor is just
    /// past the backslash.
    fn escape(&mut self) -> Result<char, JsonError> {
        let esc = self.peek().ok_or_else(|| JsonError::new("unterminated escape"))?;
        self.pos += 1;
        Ok(match esc {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{08}',
            b'f' => '\u{0c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let hi = self.hex4()?;
                let cp = if (0xD800..0xDC00).contains(&hi) {
                    // Surrogate pair: a following \uXXXX low half.
                    if !self.eat_literal("\\u") {
                        return Err(JsonError::new("lone high surrogate"));
                    }
                    let lo = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&lo) {
                        return Err(JsonError::new("invalid low surrogate"));
                    }
                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                } else {
                    hi
                };
                char::from_u32(cp).ok_or_else(|| JsonError::new("invalid \\u escape"))?
            }
            other => {
                return Err(JsonError::new(format!("unknown escape '\\{}'", other as char)))
            }
        })
    }

    /// Exactly four hex digits (`from_str_radix` would also take a sign).
    fn hex4(&mut self) -> Result<u32, JsonError> {
        let digits = self
            .text
            .as_bytes()
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| JsonError::new("truncated \\u escape"))?;
        let mut v = 0;
        for &b in digits {
            let d = (b as char).to_digit(16).ok_or_else(|| JsonError::new("invalid \\u escape"))?;
            v = v * 16 + d;
        }
        self.pos += 4;
        Ok(v)
    }

    /// Step into a container. `Ok(false)`: it was empty and is closed again.
    fn enter(&mut self, open: u8, close: u8, wanted: &str) -> Result<bool, JsonError> {
        if self.peek() != Some(open) {
            return Err(self.mismatch(wanted));
        }
        self.pos += 1;
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(JsonError::new(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            )));
        }
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            self.depth -= 1;
            return Ok(false);
        }
        Ok(true)
    }

    /// After a member: step over `,` (`Ok(true)`, another follows) or `close`.
    fn more(&mut self, close: u8) -> Result<bool, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b',') => {
                self.pos += 1;
                self.skip_ws();
                Ok(true)
            }
            Some(b) if b == close => {
                self.pos += 1;
                self.depth -= 1;
                Ok(false)
            }
            _ => Err(JsonError::new(format!(
                "expected ',' or '{}' at byte {}",
                close as char, self.pos
            ))),
        }
    }

    /// Read an object: `member` is called once per key, in document order,
    /// with the cursor on that key's value, and must read or
    /// [`skip`](Reader::skip) it. Duplicate keys are passed through.
    pub fn object(
        &mut self,
        mut member: impl FnMut(&mut Self, &str) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        if !self.enter(b'{', b'}', "object")? {
            return Ok(());
        }
        loop {
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            member(self, &key)?;
            if !self.more(b'}')? {
                return Ok(());
            }
        }
    }

    /// Read an array: `item` is called once per element with the cursor on
    /// it, and must read or [`skip`](Reader::skip) it.
    pub fn array(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        if !self.enter(b'[', b']', "array")? {
            return Ok(());
        }
        loop {
            item(self)?;
            if !self.more(b']')? {
                return Ok(());
            }
        }
    }

    /// Read a value of an enum `what` in the externally tagged layout
    /// [`write_variant`] writes: a string names a unit variant, an object a
    /// data variant by its first key. `read` gets the name and whether a
    /// body follows; with one, the cursor is on it and `read` must read it.
    /// Keys after the first are checked and skipped.
    pub fn variant<T>(
        &mut self,
        what: &str,
        read: impl FnOnce(&mut Self, &str, bool) -> Result<T, JsonError>,
    ) -> Result<T, JsonError> {
        match self.peek() {
            Some(b'"') => {
                let name = self.string()?;
                read(self, &name, false)
            }
            Some(b'{') => {
                let (mut read, mut value) = (Some(read), None);
                self.object(|r, key| match read.take() {
                    Some(read) => read(r, key, true).map(|v| value = Some(v)),
                    None => r.skip(),
                })?;
                value.ok_or_else(|| JsonError::new(format!("expected {what}, got an empty object")))
            }
            _ => Err(self.mismatch(what)),
        }
    }
}

/// Convert a domain value into JSON.
pub trait ToJson {
    /// Append the compact rendering to `out`.
    fn write_json(&self, out: &mut String);

    /// Compact rendering.
    fn to_json_string(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }

    /// Pretty (two-space indented) rendering: the compact text, read back
    /// as a document and rendered indented. The one value whose compact
    /// text is not canonical is `-0.0`: its `-0` reads back as the integer
    /// 0 and pretty-prints as `0`.
    fn to_json_pretty(&self) -> String {
        parse(&self.to_json_string()).expect("the compact writer emits JSON").to_string_pretty()
    }
}

/// Reconstruct a domain value from JSON.
pub trait FromJson: Sized {
    /// Read one value of this type off the reader.
    fn read_json(r: &mut Reader<'_>) -> Result<Self, JsonError>;

    /// Parse text and convert.
    fn from_json_str(s: &str) -> Result<Self, JsonError> {
        let mut r = Reader::new(s);
        let v = Self::read_json(&mut r)?;
        r.finish()?;
        Ok(v)
    }
}

// ---- primitive impls ----------------------------------------------------

macro_rules! impl_json_int {
    ($($ty:ty),+) => {
        $(
            impl ToJson for $ty {
                fn write_json(&self, out: &mut String) {
                    let _ = write!(out, "{self}");
                }
            }
            impl FromJson for $ty {
                fn read_json(r: &mut Reader<'_>) -> Result<Self, JsonError> {
                    let i = i128::read_json(r)?;
                    Self::try_from(i).map_err(|_| {
                        JsonError::new(format!("integer {i} out of range for {}", stringify!($ty)))
                    })
                }
            }
        )+
    };
}

impl_json_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl ToJson for i128 {
    fn write_json(&self, out: &mut String) {
        let _ = write!(out, "{self}");
    }
}

impl FromJson for i128 {
    fn read_json(r: &mut Reader<'_>) -> Result<Self, JsonError> {
        match r.number()? {
            Number::Int(i) => Ok(i),
            Number::Float(_) => Err(JsonError::new("expected integer, got float")),
        }
    }
}

impl ToJson for bool {
    fn write_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl FromJson for bool {
    fn read_json(r: &mut Reader<'_>) -> Result<Self, JsonError> {
        r.bool()
    }
}

/// Rust's shortest-round-trip `Display` for finite floats is valid JSON
/// (it never emits exponents, always a leading digit). Non-finite values
/// have no JSON representation and become `null`.
impl ToJson for f64 {
    fn write_json(&self, out: &mut String) {
        if self.is_finite() {
            let _ = write!(out, "{self}");
        } else {
            out.push_str("null");
        }
    }
}

impl FromJson for f64 {
    /// "2" and "2.0" are the same JSON number, and `null` is a non-finite
    /// float: both are accepted.
    fn read_json(r: &mut Reader<'_>) -> Result<Self, JsonError> {
        if r.null() {
            return Ok(f64::NAN);
        }
        Ok(match r.number()? {
            Number::Float(x) => x,
            Number::Int(i) => i as f64,
        })
    }
}

impl ToJson for f32 {
    fn write_json(&self, out: &mut String) {
        f64::from(*self).write_json(out);
    }
}

impl FromJson for f32 {
    fn read_json(r: &mut Reader<'_>) -> Result<Self, JsonError> {
        f64::read_json(r).map(|x| x as f32)
    }
}

impl ToJson for String {
    fn write_json(&self, out: &mut String) {
        write_json_string(out, self);
    }
}

impl FromJson for String {
    fn read_json(r: &mut Reader<'_>) -> Result<Self, JsonError> {
        r.string().map(Cow::into_owned)
    }
}

impl ToJson for str {
    fn write_json(&self, out: &mut String) {
        write_json_string(out, self);
    }
}

fn write_json_array<'a, T: ToJson + 'a>(out: &mut String, items: impl IntoIterator<Item = &'a T>) {
    out.push('[');
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        item.write_json(out);
    }
    out.push(']');
}

impl<T: ToJson> ToJson for Vec<T> {
    fn write_json(&self, out: &mut String) {
        write_json_array(out, self);
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn read_json(r: &mut Reader<'_>) -> Result<Self, JsonError> {
        let mut items = Vec::new();
        r.array(|r| {
            items.push(T::read_json(r)?);
            Ok(())
        })?;
        Ok(items)
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(x) => x.write_json(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn read_json(r: &mut Reader<'_>) -> Result<Self, JsonError> {
        if r.null() {
            Ok(None)
        } else {
            T::read_json(r).map(Some)
        }
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn write_json(&self, out: &mut String) {
        out.push('[');
        self.0.write_json(out);
        out.push(',');
        self.1.write_json(out);
        out.push(']');
    }
}

impl<A: FromJson, B: FromJson> FromJson for (A, B) {
    fn read_json(r: &mut Reader<'_>) -> Result<Self, JsonError> {
        let (mut a, mut b) = (None, None);
        r.array(|r| {
            if a.is_none() {
                a = Some(A::read_json(r)?);
            } else if b.is_none() {
                b = Some(B::read_json(r)?);
            } else {
                return Err(JsonError::new("expected 2-element array, got a longer one"));
            }
            Ok(())
        })?;
        match (a, b) {
            (Some(a), Some(b)) => Ok((a, b)),
            _ => Err(JsonError::new("expected 2-element array, got a shorter one")),
        }
    }
}

impl<T: ToJson, const N: usize> ToJson for [T; N] {
    fn write_json(&self, out: &mut String) {
        write_json_array(out, self);
    }
}

impl<T: FromJson + Copy + Default, const N: usize> FromJson for [T; N] {
    fn read_json(r: &mut Reader<'_>) -> Result<Self, JsonError> {
        let mut out = [T::default(); N];
        let mut n = 0;
        r.array(|r| {
            let slot = out
                .get_mut(n)
                .ok_or_else(|| JsonError::new(format!("expected {N}-element array, got a longer one")))?;
            *slot = T::read_json(r)?;
            n += 1;
            Ok(())
        })?;
        if n != N {
            return Err(JsonError::new(format!("expected {N}-element array, got {n} elements")));
        }
        Ok(out)
    }
}

// ---- derive-free impl macros --------------------------------------------

/// Implement [`ToJson`]/[`FromJson`] for a struct with named public (or
/// crate-visible) fields. Fields serialize in the listed order; on read
/// they may come in any order, unknown keys are ignored and the first of
/// a repeated key wins.
///
/// ```
/// use elephants_json::{impl_json_struct, FromJson, ToJson};
/// struct P { x: u32, y: f64 }
/// impl_json_struct!(P { x, y });
/// let p = P { x: 1, y: 2.5 };
/// assert_eq!(p.to_json_string(), r#"{"x":1,"y":2.5}"#);
/// assert_eq!(P::from_json_str(&p.to_json_string()).unwrap().x, 1);
/// ```
#[macro_export]
macro_rules! impl_json_struct {
    ($ty:ident { $($field:ident),+ $(,)? }) => {
        impl $crate::ToJson for $ty {
            fn write_json(&self, out: &mut String) {
                out.push('{');
                $(
                    // An identifier needs no escaping.
                    out.push_str(concat!("\"", stringify!($field), "\":"));
                    $crate::ToJson::write_json(&self.$field, out);
                    out.push(',');
                )+
                out.pop();
                out.push('}');
            }
        }
        impl $crate::FromJson for $ty {
            fn read_json(r: &mut $crate::Reader<'_>) -> Result<Self, $crate::JsonError> {
                $(let mut $field = None;)+
                r.object(|r, key| {
                    match key {
                        $(stringify!($field) if $field.is_none() => {
                            $field = Some($crate::FromJson::read_json(r)?);
                        })+
                        _ => r.skip()?,
                    }
                    Ok(())
                })?;
                Ok(Self {
                    $($field: $field.ok_or_else(|| {
                        $crate::JsonError::new(concat!("missing field '", stringify!($field), "'"))
                    })?,)+
                })
            }
        }
    };
}

/// Implement [`ToJson`]/[`FromJson`] for a fieldless enum, serialized as
/// the variant name string (matching what serde's derive produced).
#[macro_export]
macro_rules! impl_json_unit_enum {
    ($ty:ident { $($variant:ident),+ $(,)? }) => {
        impl $crate::ToJson for $ty {
            fn write_json(&self, out: &mut String) {
                out.push_str(match self {
                    $($ty::$variant => concat!("\"", stringify!($variant), "\""),)+
                });
            }
        }
        impl $crate::FromJson for $ty {
            fn read_json(r: &mut $crate::Reader<'_>) -> Result<Self, $crate::JsonError> {
                match &*r.string()? {
                    $(stringify!($variant) => Ok($ty::$variant),)+
                    other => Err($crate::JsonError::new(format!(
                        "unknown {} variant '{}'", stringify!($ty), other
                    ))),
                }
            }
        }
    };
}

/// Declare a fieldless "kind" enum as a table, one row per variant, and
/// derive from the rows everything that enumerates the kinds: `ALL`,
/// `PAPER_SET` (the rows marked `paper: true`), `name()` / `Display`,
/// `spellings()`, a case-insensitive `FromStr` over them whose error lists
/// the known names, the JSON encoding (the variant name, as
/// [`impl_json_unit_enum!`] writes it) and a private `row()` returning the
/// row's last column — a value of the type named in the header, for
/// whatever else a kind carries (a display name, a constructor).
///
/// ```
/// elephants_json::kind_table! {
///     /// A fruit.
///     pub enum Fruit("fruit") -> u32 {
///         /// Malus domestica.
///         Apple: "apple", ["pomme"], paper: true, 52;
///         Fig: "fig", [], paper: false, 74;
///     }
/// }
/// assert_eq!(Fruit::ALL, [Fruit::Apple, Fruit::Fig]);
/// assert_eq!(Fruit::PAPER_SET, [Fruit::Apple]);
/// assert_eq!("POMME".parse(), Ok(Fruit::Apple));
/// assert_eq!("kiwi".parse::<Fruit>().unwrap_err(), "unknown fruit 'kiwi' (known: apple, fig)");
/// assert_eq!((Fruit::Fig.to_string(), Fruit::Fig.row()), ("fig".to_string(), 74));
/// ```
#[macro_export]
macro_rules! kind_table {
    (
        $(#[$meta:meta])*
        pub enum $ty:ident($what:literal) -> $row_ty:ty {
            $($(#[$vmeta:meta])*
            $variant:ident: $name:literal, [$($alias:literal),*], paper: $paper:literal, $row:expr;)+
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum $ty {
            $($(#[$vmeta])* $variant,)+
        }

        impl $ty {
            /// Every kind, in table order.
            pub const ALL: [$ty; [$($name),+].len()] = [$($ty::$variant),+];

            /// The kinds in the paper's grid (Table 1), in table order.
            pub const PAPER_SET: [$ty; 0 $(+ $paper as usize)+] = {
                let mut out = [Self::ALL[0]; 0 $(+ $paper as usize)+];
                let (mut i, mut n) = (0, 0);
                while i < Self::ALL.len() {
                    if [$($paper),+][i] {
                        out[n] = Self::ALL[i];
                        n += 1;
                    }
                    i += 1;
                }
                out
            };

            /// Every spelling `FromStr` accepts for this kind; the first is
            /// [`Self::name`].
            pub fn spellings(self) -> &'static [&'static str] {
                match self {
                    $($ty::$variant => &[$name $(, $alias)*],)+
                }
            }

            /// Lower-case name used in reports, file names and flags.
            pub fn name(self) -> &'static str {
                self.spellings()[0]
            }

            fn row(self) -> $row_ty {
                match self {
                    $($ty::$variant => $row,)+
                }
            }
        }

        impl std::fmt::Display for $ty {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.write_str(self.name())
            }
        }

        impl std::str::FromStr for $ty {
            type Err = String;
            fn from_str(s: &str) -> Result<Self, String> {
                let s = s.to_ascii_lowercase();
                Self::ALL.into_iter().find(|k| k.spellings().contains(&s.as_str())).ok_or_else(|| {
                    format!("unknown {} '{s}' (known: {})", $what, [$($name),+].join(", "))
                })
            }
        }

        $crate::impl_json_unit_enum!($ty { $($variant),+ });
    };
}

/// Implement [`ToJson`]/[`FromJson`] for a single-field tuple struct,
/// serialized transparently as its inner value.
#[macro_export]
macro_rules! impl_json_newtype {
    ($ty:ident) => {
        impl $crate::ToJson for $ty {
            fn write_json(&self, out: &mut String) {
                $crate::ToJson::write_json(&self.0, out)
            }
        }
        impl $crate::FromJson for $ty {
            fn read_json(r: &mut $crate::Reader<'_>) -> Result<Self, $crate::JsonError> {
                Ok($ty($crate::FromJson::read_json(r)?))
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq)]
    struct Demo {
        n: u64,
        rate: f64,
        label: String,
        tags: Vec<u32>,
        opt: Option<bool>,
    }
    impl_json_struct!(Demo { n, rate, label, tags, opt });

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Color {
        Red,
        Green,
    }
    impl_json_unit_enum!(Color { Red, Green });

    #[derive(Debug, Clone, Copy, PartialEq)]
    struct Wrapper(u64);
    impl_json_newtype!(Wrapper);

    fn demo() -> Demo {
        Demo {
            n: u64::MAX,
            rate: 0.1,
            label: "a \"b\"\nc".to_string(),
            tags: vec![1, 2, 3],
            opt: None,
        }
    }

    #[test]
    fn struct_round_trip() {
        let d = demo();
        let back = Demo::from_json_str(&d.to_json_string()).unwrap();
        assert_eq!(back, d);
        let back = Demo::from_json_str(&d.to_json_pretty()).unwrap();
        assert_eq!(back, d);
    }

    #[test]
    fn u64_max_survives_round_trip() {
        // The reason Value has a dedicated Int variant: f64 would lose this.
        assert_eq!(u64::from_json_str(&u64::MAX.to_json_string()).unwrap(), u64::MAX);
    }

    #[test]
    fn output_is_deterministic() {
        assert_eq!(demo().to_json_pretty(), demo().to_json_pretty());
        assert_eq!(
            demo().to_json_string(),
            r#"{"n":18446744073709551615,"rate":0.1,"label":"a \"b\"\nc","tags":[1,2,3],"opt":null}"#
        );
    }

    #[test]
    fn pretty_format_is_indented() {
        let v = Value::Object(vec![
            ("a".into(), Value::Int(1)),
            ("b".into(), Value::Array(vec![Value::Int(2)])),
        ]);
        assert_eq!(v.to_string_pretty(), "{\n  \"a\": 1,\n  \"b\": [\n    2\n  ]\n}");
    }

    #[test]
    fn unit_enum_round_trip() {
        assert_eq!(Color::Red.to_json_string(), r#""Red""#);
        assert_eq!(Color::from_json_str(r#""Green""#).unwrap(), Color::Green);
        assert!(Color::from_json_str(r#""Blue""#).is_err());
    }

    #[test]
    fn newtype_is_transparent() {
        assert_eq!(Wrapper(7).to_json_string(), "7");
        assert_eq!(Wrapper::from_json_str("7").unwrap(), Wrapper(7));
    }

    #[test]
    fn floats_round_trip_shortest() {
        for x in [0.0, -0.5, 1.0, 0.1, 1e-9, 775000.0, f64::MAX] {
            let s = x.to_json_string();
            assert_eq!(f64::from_json_str(&s).unwrap(), x, "via {s}");
        }
        // Whole floats print without a fraction and come back equal.
        assert_eq!(f64::from_json_str("1").unwrap(), 1.0);
        // Non-finite becomes null, which reads back as NaN.
        assert_eq!(f64::NAN.to_json_string(), "null");
        assert!(f64::from_json_str("null").unwrap().is_nan());
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("1 2").is_err());
        assert!(parse(r#"{"a" 1}"#).is_err());
        assert!(parse("tru").is_err());
        assert!(parse("\"\\q\"").is_err());
        // `from_str_radix` took a sign, so this used to read as "A".
        assert!(parse(r#""\u+041""#).is_err());
        assert!(String::from_json_str(r#""\u+041""#).is_err());
        assert!(parse(r#""\u00g1""#).is_err());
        assert!(parse(r#""\u00""#).is_err());
        // RFC 8259 numbers: no leading zeros, a digit on each side of `.`,
        // and a digit after an exponent mark.
        for bad in ["01", "-01", "00", "1.", "-.5", "1.e5", "2.E3", "-", "1e", "1e+", "[01]"] {
            assert!(parse(bad).is_err(), "{bad}");
        }
        assert!(u64::from_json_str("01").is_err());
        assert!(f64::from_json_str("-.5").is_err());
        for good in ["0", "-0", "0.5", "-0.5e-3", "1E+2"] {
            assert!(parse(good).is_ok() && f64::from_json_str(good).is_ok(), "{good}");
        }
    }

    #[test]
    fn nesting_is_bounded_not_a_stack_overflow() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.to_string().contains("nesting"), "{err}");
        let objects = |depth: usize| format!("{}1{}", r#"{"a":"#.repeat(depth), "}".repeat(depth));
        assert!(parse(&objects(MAX_DEPTH)).is_ok());
        assert!(parse(&objects(MAX_DEPTH + 1)).is_err());
        // The typed reader skips unknown keys through the same bound; the
        // unclosed case is the corrupt file that used to abort the process.
        let hidden = |depth: usize| format!(r#"{{"junk":{},"n":1}}"#, nested(depth));
        impl_json_struct!(OnlyN { n });
        struct OnlyN {
            n: u64,
        }
        assert_eq!(OnlyN::from_json_str(&hidden(MAX_DEPTH - 1)).unwrap().n, 1);
        assert!(OnlyN::from_json_str(&hidden(MAX_DEPTH)).is_err());
        assert!(parse(&"[".repeat(200_000)).is_err());
        assert!(OnlyN::from_json_str(&format!(r#"{{"junk":{}"#, "[".repeat(200_000))).is_err());
    }

    #[test]
    fn typed_and_tree_paths_agree() {
        // The typed codec against the document model: the writer's text is
        // canonical, and the reader takes what `parse` takes.
        let d = demo();
        assert_eq!(d.to_json_string(), parse(&d.to_json_string()).unwrap().to_string_compact());
        let text = r#" { "extra" : [1, {"x": null}], "opt" : true, "tags" : [ ], "n" : 7,
            "label" : "\u00e9\ud83d\ude00", "rate" : 2, "n" : "first one wins" } "#;
        let typed = Demo::from_json_str(text).unwrap();
        assert!(parse(text).is_ok());
        assert_eq!(typed.label, "é\u{1F600}");
        assert_eq!((typed.n, typed.rate, typed.opt), (7, 2.0, Some(true)));
        for bad in [
            r#"{"n":1,"rate":1,"label":"","tags":[]}"#,
            r#"{"n":1.5,"rate":1,"label":"","tags":[],"opt":null}"#,
            r#"{"n":1,"rate":"x","label":"","tags":[],"opt":null}"#,
            r#"{"n":1,"rate":1,"label":"","tags":[1,],"opt":null}"#,
            r#"{"n":1,"rate":1,"label":"","tags":[],"opt":null} x"#,
            r#"[1]"#,
        ] {
            assert!(Demo::from_json_str(bad).is_err(), "{bad}");
        }
        assert_eq!(Color::Green.to_json_string(), r#""Green""#);
        assert_eq!(Wrapper(9).to_json_string(), "9");
        let odd = "a\u{1}\u{8}\u{c}\u{1f}\"\\/é\n".to_string();
        assert_eq!(parse(&odd.to_json_string()).unwrap(), Value::Str(odd.clone()));
        assert_eq!(String::from_json_str(&odd.to_json_string()).unwrap(), odd);
    }

    #[test]
    fn parser_handles_escapes_and_unicode() {
        let v = parse(r#""a\u00e9b\ud83d\ude00c\/""#).unwrap();
        assert_eq!(v, Value::Str("aéb\u{1F600}c/".to_string()));
    }

    #[test]
    fn nested_containers_round_trip() {
        let pairs: [(u64, u64); 3] = [(1, 2), (3, 4), (0, 0)];
        let s = pairs.to_json_string();
        assert_eq!(<[(u64, u64); 3]>::from_json_str(&s).unwrap(), pairs);
    }

    #[test]
    fn out_of_range_integers_error() {
        assert!(u8::from_json_str("256").is_err());
        assert!(u64::from_json_str("-1").is_err());
        assert!(u64::from_json_str("1.5").is_err());
    }
}
