//! Dependency-free JSON for model persistence.
//!
//! The serving layer needs to save and load compiled models without
//! pulling a serialization framework into an offline build. This crate
//! provides the minimum: a [`Value`] tree, a strict parser, a compact
//! writer, and the [`JsonCodec`] trait model types implement. The parser
//! is a pull [`Cursor`], which a codec that knows its document's shape
//! can also drive directly, building no tree (the serve layer's shard
//! snapshots do).
//!
//! Numbers round-trip exactly: the writer emits the shortest decimal
//! representation that parses back to the identical `f64` (Rust's
//! `Display` guarantee), so a saved model predicts bit-identically after
//! a load.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod container;
mod cursor;
pub mod disk;

pub use cursor::{
    f64_field, list, numbers_field, str_field, usize_field, Cursor, Decoded, Field, Listed,
};
use std::fmt;

/// A JSON document node.
///
/// Objects preserve insertion order (they are association lists, not
/// hash maps); model payloads are small enough that linear field lookup
/// is irrelevant next to file I/O.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object (ordered key → value pairs).
    Obj(Vec<(String, Value)>),
}

/// Why parsing or decoding failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    msg: String,
}

impl JsonError {
    /// An error with the given message.
    #[must_use]
    pub fn new(msg: impl Into<String>) -> Self {
        JsonError { msg: msg.into() }
    }

    /// A "missing field" decode error.
    #[must_use]
    pub fn missing(field: &str) -> Self {
        JsonError::new(format!("missing field `{field}`"))
    }

    /// An "unexpected type/value" decode error.
    #[must_use]
    pub fn expected(what: &str, field: &str) -> Self {
        JsonError::new(format!("expected {what} at `{field}`"))
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json: {}", self.msg)
    }
}

impl std::error::Error for JsonError {}

/// Types that convert to and from a JSON [`Value`].
pub trait JsonCodec: Sized {
    /// Encode `self`.
    fn to_json(&self) -> Value;

    /// Decode from a parsed document.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] when `value` does not have the expected
    /// shape.
    fn from_json(value: &Value) -> Result<Self, JsonError>;
}

impl Value {
    /// Object field by name (`None` for non-objects or absent keys).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// A required object field.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] when absent.
    pub fn field(&self, key: &str) -> Result<&Value, JsonError> {
        self.get(key).ok_or_else(|| JsonError::missing(key))
    }

    /// The number, if this is one.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as a non-negative integer, if exactly representable.
    #[must_use]
    pub fn as_usize(&self) -> Option<usize> {
        self.as_f64().and_then(usize_of)
    }

    /// The string, if this is one.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, if this is one.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Decode a required numeric field.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] when absent or not a number.
    pub fn f64_field(&self, key: &str) -> Result<f64, JsonError> {
        self.field(key)?
            .as_f64()
            .ok_or_else(|| JsonError::expected("number", key))
    }

    /// Decode a required integer field.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] when absent or not a non-negative integer.
    pub fn usize_field(&self, key: &str) -> Result<usize, JsonError> {
        self.field(key)?
            .as_usize()
            .ok_or_else(|| JsonError::expected("non-negative integer", key))
    }

    /// Decode a required string field.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] when absent or not a string.
    pub fn str_field(&self, key: &str) -> Result<&str, JsonError> {
        self.field(key)?
            .as_str()
            .ok_or_else(|| JsonError::expected("string", key))
    }

    /// Decode a required array field of numbers.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] when absent or any element is not a number.
    pub fn f64_vec_field(&self, key: &str) -> Result<Vec<f64>, JsonError> {
        self.field(key)?
            .as_arr()
            .ok_or_else(|| JsonError::expected("array", key))?
            .iter()
            .map(|v| v.as_f64().ok_or_else(|| JsonError::expected("number", key)))
            .collect()
    }

    /// Decode a required array field of non-negative integers.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] when absent or any element is not an integer.
    pub fn usize_vec_field(&self, key: &str) -> Result<Vec<usize>, JsonError> {
        self.field(key)?
            .as_arr()
            .ok_or_else(|| JsonError::expected("array", key))?
            .iter()
            .map(|v| {
                v.as_usize()
                    .ok_or_else(|| JsonError::expected("integer", key))
            })
            .collect()
    }

    /// Build an array value from numbers.
    #[must_use]
    pub fn from_f64s<I: IntoIterator<Item = f64>>(items: I) -> Value {
        Value::Arr(items.into_iter().map(Value::Num).collect())
    }

    /// Build an array value from integers.
    #[must_use]
    pub fn from_usizes<I: IntoIterator<Item = usize>>(items: I) -> Value {
        Value::Arr(items.into_iter().map(|n| Value::Num(n as f64)).collect())
    }
}

/// `n` as a non-negative integer, if it is one no larger than 2^53.
#[must_use]
pub fn usize_of(n: f64) -> Option<usize> {
    (n >= 0.0 && n.fract() == 0.0 && n <= 2f64.powi(53)).then_some(n as usize)
}

// ---------------------------------------------------------------- writer

/// Serialize a value to compact JSON.
///
/// # Panics
///
/// Panics on non-finite numbers: model parameters are validated finite at
/// training time, so a NaN here is a logic error, not an input error.
#[must_use]
pub fn to_string(value: &Value) -> String {
    let mut out = String::new();
    write_value(value, &mut out);
    out
}

/// Append the compact JSON of `value` to `out`: the bytes
/// [`to_string`] returns, without building a separate string, so a
/// caller can frame a value inside its own document.
///
/// # Panics
///
/// As [`to_string`].
pub fn write_value(value: &Value, out: &mut String) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Num(n) => write_number(*n, out),
        Value::Str(s) => write_string(s, out),
        Value::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(item, out);
            }
            out.push(']');
        }
        Value::Obj(pairs) => {
            out.push('{');
            for (i, (k, v)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(k, out);
                out.push(':');
                write_value(v, out);
            }
            out.push('}');
        }
    }
}

/// Append `items` as a JSON array, each element written by `write`.
pub fn write_list<I: IntoIterator>(
    out: &mut String,
    items: I,
    mut write: impl FnMut(I::Item, &mut String),
) {
    out.push('[');
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write(item, out);
    }
    out.push(']');
}

/// Integers below this magnitude are exact in an `f64`, and `Display`
/// prints them as their plain decimal digits.
const EXACT_INT_BOUND: f64 = 9_007_199_254_740_992.0; // 2^53

/// Append `n` exactly as `f64`'s `Display` writes it (the shortest form
/// that parses back to the same bits). Counters, offsets and checksums
/// are integral, so they take a digit loop on the stack; `-0.0` (which
/// `Display` writes as `-0`) and magnitudes from 2^53 up go through
/// `Display` itself.
///
/// # Panics
///
/// Panics if `n` is not finite: JSON has no spelling for it.
pub fn write_number(n: f64, out: &mut String) {
    use std::fmt::Write as _;
    assert!(n.is_finite(), "JSON cannot represent non-finite numbers");
    if n.fract() != 0.0 || n.abs() >= EXACT_INT_BOUND || (n == 0.0 && n.is_sign_negative()) {
        // Rust's Display for f64 is the shortest exact round-trip form;
        // writing into a String cannot fail.
        let _ = write!(out, "{n}");
        return;
    }
    if n < 0.0 {
        out.push('-');
    }
    // Exact: |n| < 2^53 is an integer here.
    let mut v = n.abs() as u64;
    let mut digits = [0u8; 16];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    for &d in &digits[at..] {
        out.push(char::from(d));
    }
}

fn write_string(s: &str, out: &mut String) {
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

// -------------------------------------------------------------- checksum

/// Slice-by-8 tables under the reflected IEEE polynomial: `CRC_TABLES[0]`
/// is the CRC of every byte value, and `CRC_TABLES[k][b]` is the CRC of
/// byte `b` followed by `k` zero bytes.
const CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            bit += 1;
        }
        tables[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = tables[k - 1][b];
            tables[k][b] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    tables
}

/// CRC-32 (IEEE 802.3, the zlib/PNG polynomial) of `bytes`.
///
/// Used by the persistence layer to detect on-disk corruption: every
/// checkpoint save and load checksums its whole payload. It folds eight
/// bytes per step through `const` slice-by-8 tables, then the tail a
/// byte at a time; the values are the standard CRC-32's.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let [t0, t1, t2, t3, t4, t5, t6, t7] = &CRC_TABLES;
    let byte = |word: u32, shift: u32| ((word >> shift) & 0xFF) as usize;
    let mut crc = !0u32;
    let (words, tail) = bytes.as_chunks::<8>();
    for &[a, b, c, d, e, f, g, h] in words {
        let lo = crc ^ u32::from_le_bytes([a, b, c, d]);
        let hi = u32::from_le_bytes([e, f, g, h]);
        crc = t7[byte(lo, 0)]
            ^ t6[byte(lo, 8)]
            ^ t5[byte(lo, 16)]
            ^ t4[byte(lo, 24)]
            ^ t3[byte(hi, 0)]
            ^ t2[byte(hi, 8)]
            ^ t1[byte(hi, 16)]
            ^ t0[byte(hi, 24)];
    }
    for &b in tail {
        crc = (crc >> 8) ^ t0[byte(crc ^ u32::from(b), 0)];
    }
    !crc
}

// ---------------------------------------------------------------- parser

/// Parse a JSON document.
///
/// # Errors
///
/// Returns [`JsonError`] on malformed input or trailing garbage.
pub fn parse(text: &str) -> Result<Value, JsonError> {
    let mut cursor = Cursor::new(text);
    let value = cursor.value()?;
    cursor.finish()?;
    Ok(value)
}

#[cfg(test)]
mod crc_tests {
    use super::crc32;

    /// The bitwise CRC-32 the table is built from: the reference the
    /// table-driven version must match byte for byte.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            }
        }
        !crc
    }

    /// xorshift64*: a few lines of deterministic test noise.
    fn noise(state: &mut u64) -> u64 {
        *state ^= *state >> 12;
        *state ^= *state << 25;
        *state ^= *state >> 27;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// The bytewise CRC-32 through the first table: the reference the
    /// slice-by-8 loop must match.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc = (crc >> 8) ^ super::CRC_TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
        }
        !crc
    }

    #[test]
    fn the_table_matches_the_bitwise_reference_at_every_length() {
        let mut state = 0x9E37_79B9_7F4A_7C15;
        let data: Vec<u8> = (0..1024 + 8).map(|_| noise(&mut state) as u8).collect();
        for b in 0..=255u8 {
            assert_eq!(crc32_bytewise(&[b]), crc32_bitwise(&[b]), "byte {b}");
        }
        // Every length 0..=1024 at 8 alignments.
        for start in 0..8 {
            for len in 0..=1024 {
                let slice = &data[start..start + len];
                assert_eq!(
                    crc32(slice),
                    crc32_bytewise(slice),
                    "offset {start}, length {len}"
                );
            }
        }
        for round in 0..32 {
            let len = (noise(&mut state) % 70_000) as usize;
            let buf: Vec<u8> = (0..len).map(|_| noise(&mut state) as u8).collect();
            assert_eq!(
                crc32(&buf),
                crc32_bitwise(&buf),
                "round {round}, {len} bytes"
            );
        }
    }

    #[test]
    fn matches_the_ieee_check_value() {
        // The standard CRC-32 check vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn detects_single_bit_flips() {
        let data = b"hddpred model payload".to_vec();
        let clean = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), clean, "byte {byte} bit {bit}");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        for text in ["null", "true", "false", "0", "-1.5", "\"hi\""] {
            let v = parse(text).unwrap();
            assert_eq!(to_string(&v), text);
        }
    }

    #[test]
    fn f64_round_trip_is_exact() {
        for &x in &[
            0.1,
            1.0 / 3.0,
            f64::MIN_POSITIVE,
            1e300,
            -2.2250738585072014e-308,
            std::f64::consts::PI,
        ] {
            let v = Value::Num(x);
            let back = parse(&to_string(&v)).unwrap();
            assert_eq!(back.as_f64().unwrap().to_bits(), x.to_bits(), "{x}");
        }
    }

    /// `Display`'s text for `n`: what the writer has always emitted.
    fn display(n: f64) -> String {
        format!("{n}")
    }

    #[test]
    fn numbers_are_written_exactly_as_display_writes_them() {
        let two53 = 2f64.powi(53);
        let fixed = [
            0.0,
            -0.0,
            1.0,
            -1.0,
            f64::from(u32::MAX),
            two53 - 1.0,
            two53,
            two53 + 1.0,
            two53 + 2.0,
            1e15,
            1e16,
            1e21,
            0.1,
            1.5e-7,
            f64::MAX,
            f64::MIN_POSITIVE,
            123_456.5,
        ];
        for &x in &fixed {
            for n in [x, -x] {
                assert_eq!(to_string(&Value::Num(n)), display(n), "{n:e}");
            }
        }
        assert_eq!(to_string(&Value::Num(-0.0)), "-0");

        let mut state = 0x2545_F491_4F6C_DD1D_u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..20_000 {
            let r = next();
            // Integers of every magnitude up to 2^64, their halves, and
            // arbitrary finite bit patterns.
            let int = (r >> (r % 64)) as f64;
            let bits = f64::from_bits(next());
            for n in [int, -int, int + 0.5, int / 1024.0, bits] {
                if n.is_finite() {
                    assert_eq!(to_string(&Value::Num(n)), display(n), "{n:e}");
                }
            }
        }
    }

    #[test]
    fn write_value_appends_what_to_string_returns() {
        let v = parse(r#"{"a":[1,-2.5,{"b":"x\"y"}],"c":null}"#).unwrap();
        let mut out = String::from("prefix:");
        write_value(&v, &mut out);
        assert_eq!(out, format!("prefix:{}", to_string(&v)));
    }

    #[test]
    fn nested_structures_round_trip() {
        let text = r#"{"a":[1,2,{"b":"x"}],"c":null,"d":{"e":true}}"#;
        let v = parse(text).unwrap();
        assert_eq!(to_string(&v), text);
        assert_eq!(v.field("d").unwrap().get("e"), Some(&Value::Bool(true)));
    }

    #[test]
    fn string_escapes() {
        let v = Value::Str("a\"b\\c\nd\te\u{1}".to_string());
        let text = to_string(&v);
        assert_eq!(parse(&text).unwrap(), v);
        let unicode = parse(r#""éA""#).unwrap();
        assert_eq!(unicode.as_str(), Some("éA"));
    }

    #[test]
    fn multibyte_text_round_trips_between_escapes() {
        let key = "clé\t日本\"🚀\\";
        let v = Value::Obj(vec![
            (key.to_string(), Value::Str("é\n日本🚀\u{1}x".to_string())),
            (
                "🚀".to_string(),
                Value::Arr(vec![Value::Str("日\"本".into())]),
            ),
        ]);
        let text = to_string(&v);
        assert!(text.contains("日本") && text.contains("🚀"), "{text}");
        assert_eq!(parse(&text).unwrap(), v);
        // Escapes that decode to multi-byte text sit next to raw runs.
        let escaped = parse(r#"{"é日日é":"🚀é\\🚀"}"#).unwrap();
        assert_eq!(escaped.field("é日日é").unwrap().as_str(), Some("🚀é\\🚀"));
    }

    #[test]
    fn whitespace_tolerated() {
        let v = parse(" { \"a\" : [ 1 , 2 ] , \"b\" : 3 } ").unwrap();
        assert_eq!(v.usize_vec_field("a").unwrap(), vec![1, 2]);
        assert_eq!(v.usize_field("b").unwrap(), 3);
    }

    #[test]
    fn rejects_malformed() {
        for text in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "tru",
            "1.2.3",
            "\"unterminated",
            "[1]]",
            "nul",
            "1e999",
        ] {
            assert!(parse(text).is_err(), "accepted {text:?}");
        }
    }

    #[test]
    fn rejects_deep_nesting() {
        let deep = "[".repeat(500) + &"]".repeat(500);
        assert!(parse(&deep).is_err());
    }

    #[test]
    fn field_accessors_and_errors() {
        let v = parse(r#"{"n":3.5,"i":7,"s":"x","xs":[1.5,2.5]}"#).unwrap();
        assert_eq!(v.f64_field("n").unwrap(), 3.5);
        assert_eq!(v.usize_field("i").unwrap(), 7);
        assert_eq!(v.str_field("s").unwrap(), "x");
        assert_eq!(v.f64_vec_field("xs").unwrap(), vec![1.5, 2.5]);
        assert!(v.usize_field("n").is_err(), "3.5 is not an integer");
        assert!(v.field("absent").is_err());
        let err = v.field("absent").unwrap_err();
        assert!(err.to_string().contains("absent"), "{err}");
    }

    #[test]
    fn negative_numbers_are_not_usize() {
        let v = parse("-4").unwrap();
        assert_eq!(v.as_usize(), None);
        assert_eq!(v.as_f64(), Some(-4.0));
    }
}
