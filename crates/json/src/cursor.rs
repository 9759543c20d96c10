//! The one JSON reader: a pull cursor over a document's text.
//!
//! [`crate::parse`] builds a [`Value`] tree with it, and a decoder that
//! knows its document's shape reads the same text value by value,
//! building nothing it does not keep. Both run one grammar, one number
//! reader and one set of error texts, so a direct decoder rejects what
//! `parse` rejects, with the same message at the same byte.
//!
//! A typed read ([`Cursor::number`], [`Cursor::boolean`],
//! [`Cursor::string`], [`Cursor::array`], [`Cursor::object`]) that finds
//! a value of another type skips it, checking its syntax, and says so,
//! so a decoder can note the type error and read on. An `Err` from the
//! cursor is always a syntax error: the text is not JSON, and decoding
//! stops there. A decoder returns the two apart as [`Decoded`], because
//! a syntax error anywhere in a document outranks every shape error, as
//! it does when the document is parsed before it is decoded.

use crate::{JsonError, Value};
use std::borrow::Cow;

/// Nesting depth cap: protects the recursive reader from stack overflow
/// on adversarial input.
const MAX_DEPTH: usize = 128;

/// Integers of at most this many digits are below 2^53, so exact in an
/// `f64`: reading them as integers gives the bits `str::parse` gives.
const MAX_FAST_DIGITS: usize = 15;

/// What a direct decoder returns: `Err` when the text is not JSON, else
/// the decoded value, or why the document does not have the expected
/// shape (the error [`crate::JsonCodec::from_json`] would return for the
/// parsed document).
pub type Decoded<T> = Result<Result<T, JsonError>, JsonError>;

/// A field a direct decoder reads: `None` while absent, `Some(None)`
/// when its value has the wrong JSON type, else `Some(Some(value))`.
pub type Field<T> = Option<Option<T>>;

/// A pull reader over one JSON text; see the module docs.
#[derive(Debug, Clone)]
pub struct Cursor<'a> {
    text: &'a str,
    pos: usize,
    /// Nesting depth of the value the next read starts (the root is 0).
    depth: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor before the root value of `text`.
    #[must_use]
    pub fn new(text: &'a str) -> Self {
        Cursor {
            text,
            pos: 0,
            depth: 0,
        }
    }

    /// Check that nothing but whitespace follows the values read.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] naming the first byte of trailing garbage.
    pub fn finish(&mut self) -> Result<(), JsonError> {
        self.skip_ws();
        if self.pos == self.text.len() {
            Ok(())
        } else {
            Err(JsonError::new(format!(
                "trailing characters at byte {}",
                self.pos
            )))
        }
    }

    /// Read the next value as a tree.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] on malformed input.
    pub fn value(&mut self) -> Result<Value, JsonError> {
        Ok(match self.start()? {
            b'n' => self.keyword("null", Value::Null)?,
            b't' => self.keyword("true", Value::Bool(true))?,
            b'f' => self.keyword("false", Value::Bool(false))?,
            b'"' => Value::Str(self.raw_string()?.into_owned()),
            b'[' => {
                let mut items = Vec::new();
                self.elements(|c| {
                    items.push(c.value()?);
                    Ok(())
                })?;
                Value::Arr(items)
            }
            b'{' => {
                let mut pairs = Vec::new();
                self.members(|key, c| {
                    pairs.push((key.to_string(), c.value()?));
                    Ok(())
                })?;
                Value::Obj(pairs)
            }
            _ => Value::Num(self.raw_number()?),
        })
    }

    /// Read past the next value, checking its syntax and building
    /// nothing.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] on malformed input.
    pub fn skip(&mut self) -> Result<(), JsonError> {
        match self.start()? {
            b'n' => self.keyword("null", ()),
            b't' => self.keyword("true", ()),
            b'f' => self.keyword("false", ()),
            b'"' => self.raw_string().map(drop),
            b'[' => self.elements(Self::skip),
            b'{' => self.members(|_, c| c.skip()),
            _ => self.raw_number().map(drop),
        }
    }

    /// Read the next value if it is a number (`None`: it was skipped).
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] on malformed input.
    pub fn number(&mut self) -> Result<Option<f64>, JsonError> {
        if matches!(self.start()?, b'-' | b'0'..=b'9') {
            self.raw_number().map(Some)
        } else {
            self.skip().map(|()| None)
        }
    }

    /// Read the next value if it is `true` or `false` (`None`: it was
    /// skipped).
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] on malformed input.
    pub fn boolean(&mut self) -> Result<Option<bool>, JsonError> {
        match self.start()? {
            b't' => self.keyword("true", Some(true)),
            b'f' => self.keyword("false", Some(false)),
            _ => self.skip().map(|()| None),
        }
    }

    /// Read the next value if it is a string (`None`: it was skipped),
    /// borrowed from the text unless it holds escapes.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] on malformed input.
    pub fn string(&mut self) -> Result<Option<Cow<'a, str>>, JsonError> {
        if self.start()? == b'"' {
            self.raw_string().map(Some)
        } else {
            self.skip().map(|()| None)
        }
    }

    /// Read the next value if it is an array, handing the cursor to
    /// `element` at each element, which must read exactly one value.
    /// Returns whether it was an array (`false`: it was skipped).
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] on malformed input, and any error of
    /// `element`.
    pub fn array(
        &mut self,
        element: impl FnMut(&mut Self) -> Result<(), JsonError>,
    ) -> Result<bool, JsonError> {
        if self.start()? == b'[' {
            self.elements(element).map(|()| true)
        } else {
            self.skip().map(|()| false)
        }
    }

    /// Read the next value if it is an object, handing `member` each key
    /// and the cursor at its value, which `member` must read exactly
    /// once. Returns whether it was an object (`false`: it was skipped).
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] on malformed input, and any error of
    /// `member`.
    pub fn object(
        &mut self,
        member: impl FnMut(&str, &mut Self) -> Result<(), JsonError>,
    ) -> Result<bool, JsonError> {
        if self.start()? == b'{' {
            self.members(member).map(|()| true)
        } else {
            self.skip().map(|()| false)
        }
    }

    /// Read the next value if it is an array, handing each element that
    /// is a number to `each`: `None` when it is not an array, else
    /// whether every element was a number.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] on malformed input.
    pub fn numbers(&mut self, mut each: impl FnMut(f64)) -> Result<Option<bool>, JsonError> {
        let mut all = true;
        let is_array = self.array(|c| {
            match c.number()? {
                Some(n) => each(n),
                None => all = false,
            }
            Ok(())
        })?;
        Ok(is_array.then_some(all))
    }

    /// Skip whitespace, check the depth cap and return the first byte of
    /// the value there.
    fn start(&mut self) -> Result<u8, JsonError> {
        self.skip_ws();
        if self.depth > MAX_DEPTH {
            return Err(JsonError::new("document nests too deeply"));
        }
        match self.peek() {
            Some(b @ (b'n' | b't' | b'f' | b'"' | b'[' | b'{' | b'-' | b'0'..=b'9')) => Ok(b),
            _ => Err(JsonError::new(format!(
                "unexpected input at byte {}",
                self.pos
            ))),
        }
    }

    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.peek() {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(JsonError::new(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn keyword<T>(&mut self, word: &str, value: T) -> Result<T, JsonError> {
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(JsonError::new(format!(
                "invalid keyword at byte {}",
                self.pos
            )))
        }
    }

    /// Read a number: the run of number bytes, as `str::parse` reads it.
    /// A run of 1 to [`MAX_FAST_DIGITS`] digits, perhaps after a `-`, is
    /// an exact integer, so it skips `str::parse` with the same bits
    /// (`-0` included: the negation of `0.0` is `-0.0`).
    fn raw_number(&mut self) -> Result<f64, JsonError> {
        let bytes = self.text.as_bytes();
        let start = self.pos;
        let negative = bytes.get(start) == Some(&b'-');
        let mut at = start + usize::from(negative);
        let mut n = 0u64;
        while let Some(&d) = bytes.get(at).filter(|d| d.is_ascii_digit()) {
            n = n.wrapping_mul(10).wrapping_add(u64::from(d - b'0'));
            at += 1;
        }
        let digits = at - start - usize::from(negative);
        let mut end = at;
        while let Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9') = bytes.get(end) {
            end += 1;
        }
        self.pos = end;
        if end == at && (1..=MAX_FAST_DIGITS).contains(&digits) {
            let n = n as f64;
            return Ok(if negative { -n } else { n });
        }
        // The run is ASCII, so it ends on a character boundary.
        let text = &self.text[start..end];
        let n: f64 = text
            .parse()
            .map_err(|_| JsonError::new(format!("invalid number `{text}`")))?;
        if !n.is_finite() {
            return Err(JsonError::new(format!("number out of range `{text}`")));
        }
        Ok(n)
    }

    /// Read a string, borrowing it unless it holds escapes.
    fn raw_string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.eat(b'"')?;
        let run = self.plain_run();
        if self.peek() == Some(b'"') {
            self.pos += 1;
            return Ok(Cow::Borrowed(run));
        }
        let mut out = run.to_string();
        loop {
            match self.peek() {
                None => return Err(JsonError::new("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(Cow::Owned(out));
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .text
                                .as_bytes()
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| JsonError::new("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| JsonError::new("invalid \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| JsonError::new("invalid \\u escape"))?;
                            // Surrogates are not expected in model files;
                            // map unpaired ones to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(JsonError::new("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => out.push_str(self.plain_run()),
            }
        }
    }

    /// The run of bytes up to the next quote or backslash, or the end.
    /// Both are ASCII, so the run ends on a character boundary.
    fn plain_run(&mut self) -> &'a str {
        let text: &'a str = self.text;
        let rest = &text.as_bytes()[self.pos..];
        let len = rest
            .iter()
            .position(|&b| b == b'"' || b == b'\\')
            .unwrap_or(rest.len());
        let run = &text[self.pos..self.pos + len];
        self.pos += len;
        run
    }

    /// Read the array that starts here, one level deeper.
    fn elements(
        &mut self,
        mut element: impl FnMut(&mut Self) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.eat(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        self.depth += 1;
        loop {
            element(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(());
                }
                _ => {
                    return Err(JsonError::new(format!(
                        "expected , or ] at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    /// Read the object that starts here, one level deeper.
    fn members(
        &mut self,
        mut member: impl FnMut(&str, &mut Self) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.eat(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        self.depth += 1;
        loop {
            self.skip_ws();
            let key = self.raw_string()?;
            self.skip_ws();
            self.eat(b':')?;
            member(&key, self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(());
                }
                _ => {
                    return Err(JsonError::new(format!(
                        "expected , or }} at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }
}

/// A required non-negative integer field, as [`Value::usize_field`]
/// decodes it.
///
/// # Errors
///
/// Returns [`JsonError`] when absent or not a non-negative integer.
pub fn usize_field(field: Field<f64>, key: &str) -> Result<usize, JsonError> {
    field
        .ok_or_else(|| JsonError::missing(key))?
        .and_then(crate::usize_of)
        .ok_or_else(|| JsonError::expected("non-negative integer", key))
}

/// A required number field, as [`Value::f64_field`] decodes it.
///
/// # Errors
///
/// Returns [`JsonError`] when absent or not a number.
pub fn f64_field(field: Field<f64>, key: &str) -> Result<f64, JsonError> {
    field
        .ok_or_else(|| JsonError::missing(key))?
        .ok_or_else(|| JsonError::expected("number", key))
}

/// A required string field, as [`Value::str_field`] decodes it.
///
/// # Errors
///
/// Returns [`JsonError`] when absent or not a string.
pub fn str_field<'s>(field: &'s Field<Cow<'_, str>>, key: &str) -> Result<&'s str, JsonError> {
    field
        .as_ref()
        .ok_or_else(|| JsonError::missing(key))?
        .as_deref()
        .ok_or_else(|| JsonError::expected("string", key))
}

/// Check an array of numbers [`Cursor::numbers`] read, as
/// [`Value::f64_vec_field`] checks it.
///
/// # Errors
///
/// Returns [`JsonError`] when absent, not an array, or an element is not
/// a number.
pub fn numbers_field(read: Field<bool>, key: &str) -> Result<(), JsonError> {
    match read {
        None => Err(JsonError::missing(key)),
        Some(None) => Err(JsonError::expected("array", key)),
        Some(Some(false)) => Err(JsonError::expected("number", key)),
        Some(Some(true)) => Ok(()),
    }
}

/// An array [`list`] read: `None` when the value was not an array, else
/// its length and every element, or the first element's shape error.
pub type Listed<T> = Option<(usize, Result<Vec<T>, JsonError>)>;

/// Read an array whose elements `element` decodes (elements after the
/// first shape error are only skipped).
///
/// # Errors
///
/// Returns [`JsonError`] on malformed input.
pub fn list<'a, T>(
    cursor: &mut Cursor<'a>,
    mut element: impl FnMut(&mut Cursor<'a>) -> Decoded<T>,
) -> Result<Listed<T>, JsonError> {
    let (mut len, mut items) = (0, Ok(Vec::new()));
    let is_array = cursor.array(|c| {
        len += 1;
        match &mut items {
            Ok(list) => match element(c)? {
                Ok(item) => list.push(item),
                Err(e) => items = Err(e),
            },
            Err(_) => c.skip()?,
        }
        Ok(())
    })?;
    Ok(is_array.then_some((len, items)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typed_reads_skip_other_values() {
        let mut c = Cursor::new(r#"[true, "x", {"a":[1,null]}, 7, "y\n"]"#);
        let mut seen = Vec::new();
        assert!(c
            .array(|c| {
                seen.push(format!(
                    "{:?} {:?}",
                    c.clone().number().unwrap(),
                    c.clone().string().unwrap()
                ));
                c.skip()
            })
            .unwrap());
        c.finish().unwrap();
        assert_eq!(
            seen,
            [
                "None None",
                "None Some(\"x\")",
                "None None",
                "Some(7.0) None",
                "None Some(\"y\\n\")",
            ]
        );
        let mut c = Cursor::new("[1,2");
        assert_eq!(
            c.numbers(|_| {}).unwrap_err().to_string(),
            "json: expected , or ] at byte 4"
        );
    }

    #[test]
    fn skip_rejects_what_parse_rejects_with_the_same_text() {
        let deep = "[".repeat(200) + &"]".repeat(200);
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
            "{\"a\":1,}",
            "[\"\\u12\"]",
            "[\"\\uzzzz\"]",
            "[\"\\q\"]",
            "{1:2}",
            &deep,
        ] {
            let mut c = Cursor::new(text);
            let skipped = c.skip().and_then(|()| c.finish());
            assert_eq!(
                skipped.map_err(|e| e.to_string()),
                crate::parse(text).map(drop).map_err(|e| e.to_string()),
                "{text}"
            );
        }
    }
}
