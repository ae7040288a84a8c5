//! The project's one JSON module: the encoder behind every `chordal serve`
//! reply and every `experiments` record, and the reader that clients and
//! tests parse replies with.
//!
//! The build environment has no serde. A value writes itself through the
//! [`ToJson`] trait: a struct usually through the [`crate::impl_to_json!`]
//! macro, which emits one JSON object of its named fields in declaration
//! order, and a frame that is not one struct through [`JsonObject`], which
//! keeps its members in the order they are added. Output is plain,
//! standards-conformant JSON (NaN and infinities map to `null`, as
//! `serde_json` does for its permissive formatters). [`JsonValue`] is the
//! matching reader.

use std::fmt::Write;

/// A value that can write itself as JSON.
pub trait ToJson {
    /// Appends this value's JSON encoding to `out`.
    fn write_json(&self, out: &mut String);

    /// Returns this value's JSON encoding as a fresh string.
    fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }
}

macro_rules! impl_to_json_integer {
    ($($t:ty),+) => {$(
        impl ToJson for $t {
            fn write_json(&self, out: &mut String) {
                // Writing to a `String` cannot fail.
                let _ = write!(out, "{self}");
            }
        }
    )+};
}

impl_to_json_integer!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl ToJson for bool {
    fn write_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl ToJson for f64 {
    fn write_json(&self, out: &mut String) {
        if self.is_finite() {
            let _ = write!(out, "{self}");
        } else {
            out.push_str("null");
        }
    }
}

impl ToJson for str {
    fn write_json(&self, out: &mut String) {
        out.push('"');
        for c in self.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }
}

impl ToJson for String {
    fn write_json(&self, out: &mut String) {
        self.as_str().write_json(out);
    }
}

impl<T: ToJson> ToJson for Vec<T> {
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

impl<T: ToJson> ToJson for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(value) => value.write_json(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn write_json(&self, out: &mut String) {
        (*self).write_json(out);
    }
}

/// Implements [`ToJson`] for a struct as a JSON object of its named fields,
/// in the order listed.
#[macro_export]
macro_rules! impl_to_json {
    ($ty:ty { $($field:ident),+ $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn write_json(&self, out: &mut String) {
                let object = $crate::json::JsonObject::new()
                    $(.field(stringify!($field), &self.$field))+;
                $crate::json::ToJson::write_json(&object, out);
            }
        }
    };
}

/// A JSON object built member by member, in the order the members are
/// added: the encoding of a frame that is not one struct.
///
/// ```
/// use chordal_serve::json::{JsonObject, ToJson};
///
/// let frame = JsonObject::new()
///     .field("ok", true)
///     .field("pool", JsonObject::new().field("size", 2));
/// assert_eq!(frame.to_json(), r#"{"ok":true,"pool":{"size":2}}"#);
/// ```
#[derive(Debug, Clone, Default)]
pub struct JsonObject {
    /// The members so far, comma-separated, without the braces.
    members: String,
}

impl JsonObject {
    /// An object with no members.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends the member `"key":value`.
    pub fn field(mut self, key: &str, value: impl ToJson) -> Self {
        if !self.members.is_empty() {
            self.members.push(',');
        }
        key.write_json(&mut self.members);
        self.members.push(':');
        value.write_json(&mut self.members);
        self
    }
}

impl ToJson for JsonObject {
    fn write_json(&self, out: &mut String) {
        out.push('{');
        out.push_str(&self.members);
        out.push('}');
    }
}

/// A parsed JSON value — the minimal reader for response frames.
///
/// Supports objects, arrays, strings, numbers (as `f64`), booleans and
/// null; numbers with more than 53 bits of integer precision are not used
/// by this protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, in document order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Parses a complete JSON document (trailing whitespace allowed).
    pub fn parse(text: &str) -> Result<JsonValue, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing bytes at offset {pos}"));
        }
        Ok(value)
    }

    /// Member lookup on an object (first match).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Nested lookup: `value.path(&["pool", "idle_workers"])`.
    pub fn path(&self, keys: &[&str]) -> Option<&JsonValue> {
        let mut current = self;
        for key in keys {
            current = current.get(key)?;
        }
        Some(current)
    }

    /// This value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// This value as an unsigned integer, if it is a whole number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// This value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// This value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, byte: u8) -> Result<(), String> {
    if *pos < bytes.len() && bytes[*pos] == byte {
        *pos += 1;
        Ok(())
    } else {
        Err(format!(
            "expected `{}` at offset {pos}",
            char::from(byte),
            pos = *pos
        ))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => {
            *pos += 1;
            let mut members = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(JsonValue::Obj(members));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                let value = parse_value(bytes, pos)?;
                members.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(JsonValue::Obj(members));
                    }
                    _ => return Err(format!("expected `,` or `}}` at offset {pos}", pos = *pos)),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(JsonValue::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(JsonValue::Arr(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at offset {pos}", pos = *pos)),
                }
            }
        }
        Some(b'"') => Ok(JsonValue::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", JsonValue::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", JsonValue::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    literal: &str,
    value: JsonValue,
) -> Result<JsonValue, String> {
    if bytes[*pos..].starts_with(literal.as_bytes()) {
        *pos += literal.len();
        Ok(value)
    } else {
        Err(format!("bad literal at offset {pos}", pos = *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>()
        .map(JsonValue::Num)
        .map_err(|_| format!("bad number `{text}` at offset {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")?;
                        let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                        let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                        out.push(char::from_u32(code).ok_or("bad \\u escape")?);
                        *pos += 4;
                    }
                    _ => return Err("bad escape".to_string()),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the run up to the next quote or backslash as one
                // slice. The input is a &str and both delimiters are ASCII,
                // so the run starts and ends on char boundaries.
                let rest = &bytes[*pos..];
                let run = rest
                    .iter()
                    .position(|&b| b == b'"' || b == b'\\')
                    .unwrap_or(rest.len());
                out.push_str(std::str::from_utf8(&rest[..run]).map_err(|e| e.to_string())?);
                *pos += run;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Sample {
        name: String,
        count: usize,
        ratio: f64,
        flags: Vec<bool>,
    }

    impl_to_json!(Sample {
        name,
        count,
        ratio,
        flags
    });

    #[test]
    fn struct_macro_emits_a_json_object() {
        let s = Sample {
            name: "RMAT-B(14)".into(),
            count: 3,
            ratio: 0.5,
            flags: vec![true, false],
        };
        assert_eq!(
            s.to_json(),
            r#"{"name":"RMAT-B(14)","count":3,"ratio":0.5,"flags":[true,false]}"#
        );
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!("a\"b\\c\nd".to_json(), r#""a\"b\\c\nd""#);
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(f64::NAN.to_json(), "null");
        assert_eq!(f64::INFINITY.to_json(), "null");
        assert_eq!(1.25f64.to_json(), "1.25");
    }

    #[test]
    fn options_and_vectors_nest() {
        let v: Vec<Option<usize>> = vec![Some(1), None, Some(3)];
        assert_eq!(v.to_json(), "[1,null,3]");
    }

    #[test]
    fn json_reader_handles_nesting_numbers_and_escapes() {
        let doc = r#"{"ok":true,"pool":{"size":8,"list":[1,2.5,-3],"name":"pA"},"none":null}"#;
        let v = JsonValue::parse(doc).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(v.path(&["pool", "size"]).unwrap().as_u64(), Some(8));
        assert_eq!(v.path(&["pool", "name"]).unwrap().as_str(), Some("pA"));
        assert_eq!(v.get("none"), Some(&JsonValue::Null));
        match v.path(&["pool", "list"]).unwrap() {
            JsonValue::Arr(items) => {
                assert_eq!(items[1].as_f64(), Some(2.5));
                assert_eq!(items[2].as_f64(), Some(-3.0));
            }
            other => panic!("not an array: {other:?}"),
        }
    }

    #[test]
    fn json_strings_parse_in_linear_time() {
        // 128 KiB of two ASCII bytes and a two-byte char: a reader that
        // re-validates the rest of the input per char takes seconds here.
        let text = "ab\u{e9}".repeat(128 * 1024 / 4);
        let doc = format!("{{\"error\":\"{text}\\n\"}}");
        let start = std::time::Instant::now();
        let parsed = JsonValue::parse(&doc).unwrap();
        let elapsed = start.elapsed();
        assert_eq!(
            parsed.get("error").unwrap().as_str(),
            Some(format!("{text}\n").as_str())
        );
        assert!(elapsed.as_secs_f64() < 1.0, "took {elapsed:?}");
    }

    #[test]
    fn json_reader_rejects_garbage() {
        assert!(JsonValue::parse("{").is_err());
        assert!(JsonValue::parse("{\"a\":}").is_err());
        assert!(JsonValue::parse("[1,]").is_err());
        assert!(JsonValue::parse("123 456").is_err());
        assert!(JsonValue::parse("\"unterminated").is_err());
    }
}
