//! Offline stand-in for `serde`.
//!
//! The real serde separates the data model from formats; every consumer in
//! this workspace only ever serializes to and from JSON (via the
//! `serde_json` shim), so these traits are JSON-oriented directly:
//! [`ser::Serialize`] writes JSON text, [`de::Deserialize`] reads from a
//! parsed [`value::Value`] tree. The `#[derive(Serialize, Deserialize)]`
//! macros (re-exported from the `serde_derive` shim) generate impls of
//! these traits for structs with named fields and for enums with unit,
//! tuple and struct variants (externally tagged, like upstream serde).
//!
//! Integer round-trips are exact for the full `u64`/`i64` range: numbers
//! are kept as raw decimal text inside [`value::Value`] and parsed
//! directly into the target type, never through `f64`.

#![forbid(unsafe_code)]

// The derive macros and the traits share names, in separate namespaces —
// exactly how upstream serde's root re-exports behave.
pub use de::{Deserialize, DeserializeOwned};
pub use ser::Serialize;
pub use serde_derive::{Deserialize, Serialize};

/// Deserialization error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeError(pub String);

impl DeError {
    /// Construct from a message.
    pub fn new(msg: impl Into<String>) -> Self {
        DeError(msg.into())
    }
}

impl std::fmt::Display for DeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "deserialization error: {}", self.0)
    }
}

impl std::error::Error for DeError {}

/// The parsed JSON tree deserialization reads from.
pub mod value {
    use super::DeError;

    /// A JSON value. Numbers keep their raw decimal text so `u64`/`i64`
    /// round-trips are lossless.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Value {
        /// `null`
        Null,
        /// `true` / `false`
        Bool(bool),
        /// A number, as its raw token text.
        Num(String),
        /// A string (unescaped).
        Str(String),
        /// An array.
        Arr(Vec<Value>),
        /// An object, in document order.
        Obj(Vec<(String, Value)>),
    }

    impl Value {
        /// The string payload, if this is a string.
        pub fn as_str(&self) -> Option<&str> {
            match self {
                Value::Str(s) => Some(s),
                _ => None,
            }
        }

        /// The members, if this is an object.
        pub fn as_object(&self) -> Option<&[(String, Value)]> {
            match self {
                Value::Obj(m) => Some(m),
                _ => None,
            }
        }

        /// The elements, if this is an array.
        pub fn as_array(&self) -> Option<&[Value]> {
            match self {
                Value::Arr(a) => Some(a),
                _ => None,
            }
        }
    }

    /// Look up `key` in an object's members.
    pub fn find<'a>(obj: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
        obj.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// How deeply arrays and objects may nest (serde_json's default): a
    /// deeper document is an error, not a stack overflow.
    const MAX_DEPTH: usize = 128;

    struct Parser<'a> {
        bytes: &'a [u8],
        pos: usize,
        /// Arrays and objects open around `pos`.
        depth: usize,
    }

    impl<'a> Parser<'a> {
        fn err(&self, msg: &str) -> DeError {
            DeError::new(format!("{msg} at byte {}", self.pos))
        }

        fn skip_ws(&mut self) {
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                    self.pos += 1;
                } else {
                    break;
                }
            }
        }

        fn peek(&self) -> Option<u8> {
            self.bytes.get(self.pos).copied()
        }

        fn expect(&mut self, b: u8) -> Result<(), DeError> {
            if self.peek() == Some(b) {
                self.pos += 1;
                Ok(())
            } else {
                Err(self.err(&format!("expected {:?}", b as char)))
            }
        }

        fn parse_value(&mut self) -> Result<Value, DeError> {
            self.skip_ws();
            match self.peek() {
                Some(b'n') => self.keyword("null", Value::Null),
                Some(b't') => self.keyword("true", Value::Bool(true)),
                Some(b'f') => self.keyword("false", Value::Bool(false)),
                Some(b'"') => Ok(Value::Str(self.parse_string()?)),
                Some(b'[') => self.nested(Self::parse_array),
                Some(b'{') => self.nested(Self::parse_object),
                Some(b) if b == b'-' || b.is_ascii_digit() => self.parse_number(),
                _ => Err(self.err("unexpected token")),
            }
        }

        fn nested(
            &mut self,
            parse: fn(&mut Self) -> Result<Value, DeError>,
        ) -> Result<Value, DeError> {
            if self.depth == MAX_DEPTH {
                return Err(self.err(&format!("nesting deeper than {MAX_DEPTH}")));
            }
            self.depth += 1;
            let v = parse(self);
            self.depth -= 1;
            v
        }

        fn keyword(&mut self, kw: &str, v: Value) -> Result<Value, DeError> {
            if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
                self.pos += kw.len();
                Ok(v)
            } else {
                Err(self.err("invalid literal"))
            }
        }

        /// Consume a run of ASCII digits; returns how many there were.
        fn digits(&mut self) -> usize {
            let start = self.pos;
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
            self.pos - start
        }

        /// RFC 8259: `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`.
        fn parse_number(&mut self) -> Result<Value, DeError> {
            let start = self.pos;
            if self.peek() == Some(b'-') {
                self.pos += 1;
            }
            match self.peek() {
                Some(b'0') => self.pos += 1,
                Some(b'1'..=b'9') => {
                    self.digits();
                }
                _ => return Err(self.err("expected a digit")),
            }
            if self.peek() == Some(b'.') {
                self.pos += 1;
                if self.digits() == 0 {
                    return Err(self.err("expected a fraction digit"));
                }
            }
            if matches!(self.peek(), Some(b'e' | b'E')) {
                self.pos += 1;
                if matches!(self.peek(), Some(b'+' | b'-')) {
                    self.pos += 1;
                }
                if self.digits() == 0 {
                    return Err(self.err("expected an exponent digit"));
                }
            }
            let text = self.bytes[start..self.pos].iter().map(|&b| char::from(b));
            Ok(Value::Num(text.collect()))
        }

        /// The value of exactly four hex digits at `at`.
        fn hex4(&self, at: usize) -> Option<u32> {
            let hex = self.bytes.get(at..at + 4)?;
            hex.iter()
                .try_fold(0, |acc, &b| Some(acc * 16 + char::from(b).to_digit(16)?))
        }

        fn parse_string(&mut self) -> Result<String, DeError> {
            self.expect(b'"')?;
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
                                let cp = self
                                    .hex4(self.pos + 1)
                                    .ok_or_else(|| self.err("bad \\u escape"))?;
                                self.pos += 4;
                                // A high surrogate must pair with an escaped
                                // low one.
                                let ch = if (0xD800..0xDC00).contains(&cp) {
                                    let lo = match self.bytes.get(self.pos + 1..self.pos + 3) {
                                        Some(b"\\u") => self
                                            .hex4(self.pos + 3)
                                            .filter(|lo| (0xDC00..=0xDFFF).contains(lo)),
                                        _ => None,
                                    }
                                    .ok_or_else(|| self.err("bad surrogate pair"))?;
                                    self.pos += 6;
                                    char::from_u32(0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00))
                                } else {
                                    char::from_u32(cp)
                                };
                                out.push(ch.ok_or_else(|| self.err("bad codepoint"))?);
                            }
                            _ => return Err(self.err("bad escape")),
                        }
                        self.pos += 1;
                    }
                    Some(0..=0x1F) => return Err(self.err("control character in string")),
                    Some(_) => {
                        // Consume the run up to the next quote, escape or
                        // control byte, validated once: none of them occurs
                        // inside a multi-byte UTF-8 sequence.
                        let rest = &self.bytes[self.pos..];
                        let run = rest
                            .iter()
                            .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                            .unwrap_or(rest.len());
                        match std::str::from_utf8(&rest[..run]) {
                            Ok(s) => out.push_str(s),
                            Err(e) => {
                                self.pos += e.valid_up_to();
                                return Err(self.err("non-utf8 string"));
                            }
                        }
                        self.pos += run;
                    }
                }
            }
        }

        fn parse_array(&mut self) -> Result<Value, DeError> {
            self.expect(b'[')?;
            let mut items = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b']') {
                self.pos += 1;
                return Ok(Value::Arr(items));
            }
            loop {
                items.push(self.parse_value()?);
                self.skip_ws();
                match self.peek() {
                    Some(b',') => {
                        self.pos += 1;
                    }
                    Some(b']') => {
                        self.pos += 1;
                        return Ok(Value::Arr(items));
                    }
                    _ => return Err(self.err("expected ',' or ']'")),
                }
            }
        }

        fn parse_object(&mut self) -> Result<Value, DeError> {
            self.expect(b'{')?;
            let mut members = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b'}') {
                self.pos += 1;
                return Ok(Value::Obj(members));
            }
            loop {
                self.skip_ws();
                let key = self.parse_string()?;
                self.skip_ws();
                self.expect(b':')?;
                let val = self.parse_value()?;
                members.push((key, val));
                self.skip_ws();
                match self.peek() {
                    Some(b',') => {
                        self.pos += 1;
                    }
                    Some(b'}') => {
                        self.pos += 1;
                        return Ok(Value::Obj(members));
                    }
                    _ => return Err(self.err("expected ',' or '}'")),
                }
            }
        }
    }

    /// Parse one JSON document (trailing whitespace allowed).
    pub fn parse(input: &[u8]) -> Result<Value, DeError> {
        let mut p = Parser {
            bytes: input,
            pos: 0,
            depth: 0,
        };
        let v = p.parse_value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing garbage"));
        }
        Ok(v)
    }
}

/// Serialization: types that can write themselves as JSON.
pub mod ser {
    /// Write `self` as JSON text onto `out`.
    pub trait Serialize {
        /// Append this value's JSON encoding to `out`.
        fn write_json(&self, out: &mut String);
    }

    /// Escape and append a JSON string literal.
    pub fn write_escaped(s: &str, out: &mut String) {
        out.push('"');
        for c in s.chars() {
            match c {
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

    macro_rules! int_impl {
        ($($t:ty),*) => {$(
            impl Serialize for $t {
                fn write_json(&self, out: &mut String) {
                    out.push_str(&self.to_string());
                }
            }
        )*};
    }
    int_impl!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    macro_rules! float_impl {
        ($($t:ty),*) => {$(
            impl Serialize for $t {
                fn write_json(&self, out: &mut String) {
                    if self.is_finite() {
                        // Rust's shortest-roundtrip formatting; always
                        // parseable back to the identical value.
                        out.push_str(&format!("{self:?}"));
                    } else {
                        out.push_str("null");
                    }
                }
            }
        )*};
    }
    float_impl!(f32, f64);

    impl Serialize for bool {
        fn write_json(&self, out: &mut String) {
            out.push_str(if *self { "true" } else { "false" });
        }
    }

    impl Serialize for String {
        fn write_json(&self, out: &mut String) {
            write_escaped(self, out);
        }
    }

    impl Serialize for str {
        fn write_json(&self, out: &mut String) {
            write_escaped(self, out);
        }
    }

    impl<T: Serialize + ?Sized> Serialize for &T {
        fn write_json(&self, out: &mut String) {
            (**self).write_json(out);
        }
    }

    impl<T: Serialize> Serialize for Vec<T> {
        fn write_json(&self, out: &mut String) {
            self.as_slice().write_json(out);
        }
    }

    impl<T: Serialize> Serialize for [T] {
        fn write_json(&self, out: &mut String) {
            out.push('[');
            for (i, item) in self.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                item.write_json(out);
            }
            out.push(']');
        }
    }

    impl<T: Serialize> Serialize for Option<T> {
        fn write_json(&self, out: &mut String) {
            match self {
                None => out.push_str("null"),
                Some(v) => v.write_json(out),
            }
        }
    }

    macro_rules! tuple_impl {
        ($(($($n:tt $t:ident),+))*) => {$(
            impl<$($t: Serialize),+> Serialize for ($($t,)+) {
                fn write_json(&self, out: &mut String) {
                    out.push('[');
                    let mut first = true;
                    $(
                        if !first { out.push(','); }
                        first = false;
                        self.$n.write_json(out);
                    )+
                    let _ = first;
                    out.push(']');
                }
            }
        )*};
    }
    tuple_impl! {
        (0 A)
        (0 A, 1 B)
        (0 A, 1 B, 2 C)
        (0 A, 1 B, 2 C, 3 D)
        (0 A, 1 B, 2 C, 3 D, 4 E)
        (0 A, 1 B, 2 C, 3 D, 4 E, 5 F)
    }
}

/// Deserialization: types constructible from a parsed [`value::Value`].
pub mod de {
    use super::value::Value;
    use super::DeError;

    /// Construct `Self` from a JSON value tree.
    pub trait Deserialize: Sized {
        /// Read one value.
        fn from_value(v: &Value) -> Result<Self, DeError>;
    }

    /// Marker matching upstream serde's owned-deserialization bound; every
    /// shim [`Deserialize`] qualifies.
    pub trait DeserializeOwned: Deserialize {}
    impl<T: Deserialize> DeserializeOwned for T {}

    macro_rules! int_impl {
        ($($t:ty),*) => {$(
            impl Deserialize for $t {
                fn from_value(v: &Value) -> Result<Self, DeError> {
                    match v {
                        Value::Num(raw) => raw
                            .parse::<$t>()
                            .or_else(|_| {
                                // Accept exponent/decimal forms that are
                                // still exact integers (e.g. "1e3").
                                raw.parse::<f64>()
                                    .map_err(|_| ())
                                    .and_then(|f| {
                                        if f.fract() == 0.0 {
                                            Ok(f as $t)
                                        } else {
                                            Err(())
                                        }
                                    })
                                    .map_err(|_| {
                                        DeError::new(format!(
                                            "bad {} literal {raw:?}",
                                            stringify!($t)
                                        ))
                                    })
                            }),
                        other => Err(DeError::new(format!(
                            "expected number, got {other:?}"
                        ))),
                    }
                }
            }
        )*};
    }
    int_impl!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    macro_rules! float_impl {
        ($($t:ty),*) => {$(
            impl Deserialize for $t {
                fn from_value(v: &Value) -> Result<Self, DeError> {
                    match v {
                        Value::Num(raw) => raw.parse::<$t>().map_err(|_| {
                            DeError::new(format!("bad float literal {raw:?}"))
                        }),
                        Value::Null => Ok(<$t>::NAN),
                        other => Err(DeError::new(format!(
                            "expected number, got {other:?}"
                        ))),
                    }
                }
            }
        )*};
    }
    float_impl!(f32, f64);

    impl Deserialize for bool {
        fn from_value(v: &Value) -> Result<Self, DeError> {
            match v {
                Value::Bool(b) => Ok(*b),
                other => Err(DeError::new(format!("expected bool, got {other:?}"))),
            }
        }
    }

    impl Deserialize for String {
        fn from_value(v: &Value) -> Result<Self, DeError> {
            match v {
                Value::Str(s) => Ok(s.clone()),
                other => Err(DeError::new(format!("expected string, got {other:?}"))),
            }
        }
    }

    impl<T: Deserialize> Deserialize for Vec<T> {
        fn from_value(v: &Value) -> Result<Self, DeError> {
            match v {
                Value::Arr(items) => items.iter().map(T::from_value).collect(),
                other => Err(DeError::new(format!("expected array, got {other:?}"))),
            }
        }
    }

    impl<T: Deserialize> Deserialize for Option<T> {
        fn from_value(v: &Value) -> Result<Self, DeError> {
            match v {
                Value::Null => Ok(None),
                other => T::from_value(other).map(Some),
            }
        }
    }

    macro_rules! tuple_impl {
        ($(($len:expr; $($n:tt $t:ident),+))*) => {$(
            impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
                fn from_value(v: &Value) -> Result<Self, DeError> {
                    let items = v.as_array().ok_or_else(|| {
                        DeError::new("expected array for tuple")
                    })?;
                    if items.len() != $len {
                        return Err(DeError::new(format!(
                            "expected {}-tuple, got {} elements",
                            $len,
                            items.len()
                        )));
                    }
                    Ok(($($t::from_value(&items[$n])?,)+))
                }
            }
        )*};
    }
    tuple_impl! {
        (1; 0 A)
        (2; 0 A, 1 B)
        (3; 0 A, 1 B, 2 C)
        (4; 0 A, 1 B, 2 C, 3 D)
        (5; 0 A, 1 B, 2 C, 3 D, 4 E)
        (6; 0 A, 1 B, 2 C, 3 D, 4 E, 5 F)
    }
}

#[cfg(test)]
mod tests {
    use super::de::Deserialize;
    use super::ser::Serialize;
    use super::value;

    fn roundtrip<T: Serialize + Deserialize + PartialEq + std::fmt::Debug>(v: T) {
        let mut s = String::new();
        v.write_json(&mut s);
        let parsed = value::parse(s.as_bytes()).unwrap();
        assert_eq!(T::from_value(&parsed).unwrap(), v, "json was {s}");
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(u64::MAX);
        roundtrip(i64::MIN);
        roundtrip(0u32);
        roundtrip(std::f64::consts::PI);
        roundtrip(-0.0f64);
        roundtrip(true);
        roundtrip(String::from("hé \"quoted\"\n\tend"));
        roundtrip(Some(5u8));
        roundtrip(Option::<u8>::None);
    }

    #[test]
    fn collections_roundtrip() {
        roundtrip(vec![1u64, 2, 3]);
        roundtrip(vec![(1.5f64, -2.5f64), (0.0, 1e300)]);
        roundtrip((1usize, (2.0f64, 3.0f64), 4u64));
        roundtrip(Vec::<String>::new());
    }

    #[test]
    fn u64_precision_is_exact() {
        // Would corrupt through an f64-based number model.
        roundtrip(9_007_199_254_740_993u64); // 2^53 + 1
        roundtrip(18_446_744_073_709_551_615u64);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(value::parse(b"{\"a\":}").is_err());
        assert!(value::parse(b"[1,2").is_err());
        assert!(value::parse(b"12 34").is_err());
        // A high surrogate must pair with a low one, not any escape.
        assert!(value::parse(br#""\uD800\u0041""#).is_err());
        assert!(value::parse(br#""\uD800\uE000""#).is_err());
        // Numbers follow RFC 8259's grammar, not any run of `[0-9.eE+-]`.
        for bad in "[--] [1-2] [1e] [01] [-] [1.] [.5] [1e+] [+1] [-01]".split(' ') {
            assert!(value::parse(bad.as_bytes()).is_err(), "{bad} parsed");
        }
        // `\u` takes exactly four hex digits; raw control bytes need escapes.
        for bad in [
            &br#""\u+041""#[..],
            br#""\u04""#,
            b"\"a\x01b\"",
            b"\"a\nb\"",
        ] {
            assert!(value::parse(bad).is_err());
        }
    }

    #[test]
    fn rfc_numbers_keep_their_text() {
        for ok in "0 -0 12 -3.25 1e5 1E+5 2.5e-3 0.0 18446744073709551615".split(' ') {
            let num = value::Value::Num(ok.into());
            assert_eq!(value::parse(ok.as_bytes()), Ok(num));
        }
    }

    #[test]
    fn surrogate_pairs_decode() {
        let v = value::parse(br#""\uD83D\uDE00""#).unwrap();
        assert_eq!(v.as_str(), Some("\u{1F600}"));
    }

    #[test]
    fn nesting_is_limited_to_128_levels() {
        let doc = |n| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(value::parse(doc(128).as_bytes()).is_ok());
        let e = value::parse(doc(129).as_bytes()).unwrap_err();
        assert_eq!(e.0, "nesting deeper than 128 at byte 128");
        assert!(value::parse("[".repeat(100_000).as_bytes()).is_err());
        assert!(value::parse("{\"a\":".repeat(100_000).as_bytes()).is_err());
    }

    #[test]
    fn non_utf8_error_names_the_offending_byte() {
        let e = value::parse(b"[\"\xC3\xA9\",\"\xFF\"]").unwrap_err();
        assert_eq!(e.0, "non-utf8 string at byte 7");
    }
}
