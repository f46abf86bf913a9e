//! Minimal, std-only JSON tree, parser and emitter.
//!
//! The workspace deliberately carries no serde; the serve protocol and the
//! on-disk cache need only a small, strict JSON subset, implemented here:
//!
//! * Objects preserve insertion order (a `Vec` of pairs, not a hash map),
//!   so emitted documents are deterministic.
//! * Numbers are `f64`. Integral values round-trip exactly up to 2⁵³;
//!   fingerprints therefore travel as hex **strings**, never as numbers.
//! * The emitter uses Rust's shortest round-trip float formatting, so
//!   `parse(emit(x)) == x` bit-for-bit for finite numbers. Non-finite
//!   numbers never enter a tree from `parse` and are emitted as `null`
//!   defensively.
//! * The parser is recursive descent with an explicit depth limit; a
//!   malformed document yields a [`JsonError`] with a byte offset, never a
//!   panic.

/// Maximum container nesting accepted by [`Json::parse`].
const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion-ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

/// A parse failure: what went wrong and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input at which the error was detected.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl core::fmt::Display for JsonError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl Json {
    /// Builds an object from key/value pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Looks up `key` in an object; `None` for other variants or missing
    /// keys. First occurrence wins when a document repeats a key.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The boolean value, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric value as a non-negative integer, if it is one exactly.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Json::Num(n) if n.fract() == 0.0 && *n >= 0.0 && *n <= 2f64.powi(53) => {
                Some(*n as usize)
            }
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes the tree to compact JSON text.
    pub fn emit(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(n) => {
                if n.is_finite() {
                    // Rust's Display is the shortest representation that
                    // round-trips, which keeps fingerprinting stable under
                    // emit→parse cycles.
                    out.push_str(&format!("{n}"));
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses one JSON document. Trailing non-whitespace is an error.
    ///
    /// # Errors
    ///
    /// Any syntax violation, nesting beyond an internal depth limit, or a
    /// non-finite number literal.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(err(pos, "trailing characters after document"));
        }
        Ok(value)
    }
}

fn write_escaped(s: &str, out: &mut String) {
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

fn err(offset: usize, message: &str) -> JsonError {
    JsonError {
        offset,
        message: message.to_string(),
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), JsonError> {
    if *pos < bytes.len() && bytes[*pos] == b {
        *pos += 1;
        Ok(())
    } else {
        Err(err(*pos, &format!("expected '{}'", b as char)))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    if depth > MAX_DEPTH {
        return Err(err(*pos, "nesting too deep"));
    }
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(err(*pos, "unexpected end of input")),
        Some(b'{') => parse_object(bytes, pos, depth),
        Some(b'[') => parse_array(bytes, pos, depth),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(b'-' | b'0'..=b'9') => parse_number(bytes, pos),
        Some(_) => Err(err(*pos, "unexpected character")),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    word: &str,
    value: Json,
) -> Result<Json, JsonError> {
    let rest = &bytes[*pos..];
    if rest.starts_with(word.as_bytes()) {
        *pos += word.len();
        return Ok(value);
    }
    // A truncated literal (`tru}`) names the word it was spelling; a
    // token that departs from it (`this`) is an unexpected character.
    let matched = rest
        .iter()
        .zip(word.bytes())
        .take_while(|(a, b)| **a == *b)
        .count();
    if rest.get(matched).is_some_and(u8::is_ascii_alphanumeric) {
        Err(err(*pos + matched, "unexpected character"))
    } else {
        Err(err(*pos, &format!("expected '{word}'")))
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    expect(bytes, pos, b'{')?;
    let mut pairs = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(pairs));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos, depth + 1)?;
        pairs.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            _ => return Err(err(*pos, "expected ',' or '}' in object")),
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth + 1)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(err(*pos, "expected ',' or ']' in array")),
        }
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    expect(bytes, pos, b'"')?;
    let mut s = String::new();
    loop {
        let start = *pos;
        // Fast path: copy a run of plain UTF-8 bytes in one go.
        while *pos < bytes.len() && bytes[*pos] != b'"' && bytes[*pos] != b'\\' {
            if bytes[*pos] < 0x20 {
                return Err(err(*pos, "raw control character in string"));
            }
            *pos += 1;
        }
        // The input is a &str, so any byte run between structural
        // characters is valid UTF-8.
        s.push_str(core::str::from_utf8(&bytes[start..*pos]).expect("input was a str"));
        match bytes.get(*pos) {
            None => return Err(err(*pos, "unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(s);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => s.push('"'),
                    Some(b'\\') => s.push('\\'),
                    Some(b'/') => s.push('/'),
                    Some(b'b') => s.push('\u{08}'),
                    Some(b'f') => s.push('\u{0c}'),
                    Some(b'n') => s.push('\n'),
                    Some(b'r') => s.push('\r'),
                    Some(b't') => s.push('\t'),
                    Some(b'u') => {
                        *pos += 1;
                        let hi = parse_hex4(bytes, pos)?;
                        let c = if (0xd800..0xdc00).contains(&hi) {
                            // High surrogate: a \uXXXX low surrogate must follow.
                            if bytes.get(*pos) == Some(&b'\\') && bytes.get(*pos + 1) == Some(&b'u')
                            {
                                *pos += 2;
                                let lo = parse_hex4(bytes, pos)?;
                                if !(0xdc00..0xe000).contains(&lo) {
                                    return Err(err(*pos, "invalid low surrogate"));
                                }
                                let code = 0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00);
                                char::from_u32(code)
                            } else {
                                return Err(err(*pos, "unpaired high surrogate"));
                            }
                        } else {
                            char::from_u32(hi)
                        };
                        match c {
                            Some(c) => s.push(c),
                            None => return Err(err(*pos, "invalid unicode escape")),
                        }
                        continue; // pos already past the escape
                    }
                    _ => return Err(err(*pos, "invalid escape sequence")),
                }
                *pos += 1;
            }
            Some(_) => unreachable!("loop stops only at '\"' or '\\\\'"),
        }
    }
}

fn parse_hex4(bytes: &[u8], pos: &mut usize) -> Result<u32, JsonError> {
    if *pos + 4 > bytes.len() {
        return Err(err(*pos, "truncated \\u escape"));
    }
    let hex = core::str::from_utf8(&bytes[*pos..*pos + 4])
        .ok()
        .and_then(|h| u32::from_str_radix(h, 16).ok())
        .ok_or_else(|| err(*pos, "invalid \\u escape"))?;
    *pos += 4;
    Ok(hex)
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let int_digits = eat_digits(bytes, pos);
    if int_digits == 0 {
        return Err(err(*pos, "expected digit"));
    }
    if bytes.get(*pos) == Some(&b'.') {
        *pos += 1;
        if eat_digits(bytes, pos) == 0 {
            return Err(err(*pos, "expected digit after '.'"));
        }
    }
    if matches!(bytes.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(bytes.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if eat_digits(bytes, pos) == 0 {
            return Err(err(*pos, "expected digit in exponent"));
        }
    }
    let text = core::str::from_utf8(&bytes[start..*pos]).expect("digits are ascii");
    let value: f64 = text.parse().map_err(|_| err(start, "malformed number"))?;
    if !value.is_finite() {
        return Err(err(start, "number overflows f64"));
    }
    Ok(Json::Num(value))
}

fn eat_digits(bytes: &[u8], pos: &mut usize) -> usize {
    let start = *pos;
    while matches!(bytes.get(*pos), Some(b'0'..=b'9')) {
        *pos += 1;
    }
    *pos - start
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("-2.5e-1").unwrap(), Json::Num(-0.25));
        assert_eq!(
            Json::parse("\"a\\nb\"").unwrap(),
            Json::Str("a\nb".to_string())
        );
    }

    #[test]
    fn float_formatting_is_irrelevant_after_parse() {
        assert_eq!(Json::parse("0.25").unwrap(), Json::parse("2.5e-1").unwrap());
        assert_eq!(Json::parse("8").unwrap(), Json::parse("8.0").unwrap());
    }

    #[test]
    fn object_round_trip_preserves_order() {
        let doc = "{\"b\":1,\"a\":[true,null,\"x\"]}";
        let v = Json::parse(doc).unwrap();
        assert_eq!(v.emit(), doc);
        assert_eq!(v.get("b").and_then(Json::as_usize), Some(1));
    }

    #[test]
    fn unicode_escapes() {
        assert_eq!(
            Json::parse("\"\\u00e9\\ud83d\\ude00\"").unwrap(),
            Json::Str("é😀".to_string())
        );
        assert!(Json::parse("\"\\ud800\"").is_err());
    }

    #[test]
    fn malformed_documents_error_without_panic() {
        for bad in [
            "", "{", "[1,", "{\"a\"}", "tru", "1.2.3", "\"", "01x", "{}{}", "1e999",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn a_word_that_is_not_a_literal_is_an_unexpected_character() {
        let e = Json::parse("this is not json").unwrap_err().to_string();
        assert_eq!(e, "unexpected character at byte 1");
        let e = Json::parse("{\"a\":nope}").unwrap_err().to_string();
        assert_eq!(e, "unexpected character at byte 6");
    }

    #[test]
    fn a_truncated_literal_names_the_literal() {
        let e = Json::parse("{\"a\":tru}").unwrap_err().to_string();
        assert_eq!(e, "expected 'true' at byte 5");
        let e = Json::parse("fals").unwrap_err().to_string();
        assert_eq!(e, "expected 'false' at byte 0");
    }

    #[test]
    fn deep_nesting_is_rejected() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(Json::parse(&deep).is_err());
    }
}
