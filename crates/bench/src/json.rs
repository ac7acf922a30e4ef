//! Dependency-free JSON emission for the chrome-trace export.
//!
//! The workspace intentionally builds offline with zero external crates, so
//! serde is not available. This module is the offline-buildable substitute
//! [`crate::trace::chrome_trace_json`] needs: a tiny JSON document model
//! with a deterministic, compact serializer. Object keys keep their
//! insertion order and floats render through Rust's shortest-roundtrip
//! formatting, so the emitted bytes are identical across runs.
//!
//! # Example
//!
//! ```
//! use mvp_bench::json::Json;
//!
//! let doc = Json::object([
//!     ("name", Json::from("demo")),
//!     ("args", Json::array([Json::from(1u64), Json::from(-2i64)])),
//!     ("ts", Json::from(0.25)),
//! ]);
//! assert_eq!(doc.to_string(), r#"{"name":"demo","args":[1,-2],"ts":0.25}"#);
//! ```

use std::fmt;

/// A JSON document: the scalar/array/object tree a chrome trace uses.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// An unsigned integer (process and thread ids).
    U64(u64),
    /// A signed integer (span arguments).
    I64(i64),
    /// A float, rendered with Rust's shortest-roundtrip formatting;
    /// non-finite values serialise as `null`.
    F64(f64),
    /// A string (escaped on serialisation).
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object; keys keep insertion order, so serialisation is
    /// deterministic.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from `(key, value)` pairs, preserving their order.
    pub fn object<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Self {
        Json::Object(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Builds an array from values.
    pub fn array(values: impl IntoIterator<Item = Json>) -> Self {
        Json::Array(values.into_iter().collect())
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::U64(n) => {
                let _ = fmt::Write::write_fmt(out, format_args!("{n}"));
            }
            Json::I64(n) => {
                let _ = fmt::Write::write_fmt(out, format_args!("{n}"));
            }
            Json::F64(x) if x.is_finite() => {
                let rendered = format!("{x}");
                out.push_str(&rendered);
                // `{}` renders integral floats without a fractional part;
                // keep them unambiguously floats in the document.
                if !rendered.contains(['.', 'e', 'E']) {
                    out.push_str(".0");
                }
            }
            Json::F64(_) => out.push_str("null"),
            Json::Str(s) => write_escaped(out, s),
            Json::Array(values) => {
                out.push('[');
                for (i, v) in values.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Json::Object(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
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
            c if (c as u32) < 0x20 => {
                let _ = fmt::Write::write_fmt(out, format_args!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Self {
        Json::U64(v)
    }
}
impl From<i64> for Json {
    fn from(v: i64) -> Self {
        Json::I64(v)
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json::F64(v)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Self {
        Json::Str(v.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_render_like_json() {
        assert_eq!(Json::from(42u64).to_string(), "42");
        assert_eq!(Json::from(-3i64).to_string(), "-3");
        assert_eq!(Json::from("hi").to_string(), "\"hi\"");
    }

    #[test]
    fn floats_stay_floats_and_non_finite_becomes_null() {
        assert_eq!(Json::from(0.25).to_string(), "0.25");
        assert_eq!(Json::from(2.0).to_string(), "2.0");
        assert_eq!(Json::from(1.0 / 3.0).to_string(), "0.3333333333333333");
        assert_eq!(Json::from(f64::NAN).to_string(), "null");
        assert_eq!(Json::from(f64::INFINITY).to_string(), "null");
        // Inside containers the `.0` suffix logic still sees only the last
        // number.
        assert_eq!(
            Json::array([Json::from(1.5), Json::from(3.0)]).to_string(),
            "[1.5,3.0]"
        );
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(
            Json::from("a\"b\\c\nd\te\u{1}").to_string(),
            r#""a\"b\\c\nd\te\u0001""#
        );
    }

    #[test]
    fn objects_preserve_insertion_order() {
        let doc = Json::object([
            ("z", Json::from(1u64)),
            ("a", Json::from(2u64)),
            ("nested", Json::object([("k", Json::from(-1i64))])),
        ]);
        assert_eq!(doc.to_string(), r#"{"z":1,"a":2,"nested":{"k":-1}}"#);
    }
}
