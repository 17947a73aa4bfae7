//! A JSON value that prints itself. The workspace's `serde` is a marker
//! shim, and the benchmark only ever *writes* JSON.

use std::fmt;

#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Bool(bool),
    /// Printed with every digit `f64` round-trips (integers without a
    /// fraction); non-finite values, which JSON cannot hold, as `null`.
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Keys keep insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }
}

fn write_str(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\t' => f.write_str("\\t")?,
            '\r' => f.write_str("\\r")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) if n.is_finite() => write!(f, "{n}"),
            Json::Num(_) => f.write_str("null"),
            Json::Str(s) => write_str(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Obj(fields) => {
                f.write_str("{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write_str(f, k)?;
                    write!(f, ": {v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prints_nested_values_on_one_line() {
        let v = Json::obj([
            ("correct", Json::Bool(true)),
            ("attempted", Json::Num(90.0)),
            (
                "metrics",
                Json::obj([(
                    "roi_decode_ms",
                    Json::obj([("value", Json::Num(118.25)), ("unit", Json::str("ms"))]),
                )]),
            ),
            ("list", Json::Arr(vec![Json::Num(1.0), Json::Num(-0.5)])),
        ]);
        assert_eq!(
            v.to_string(),
            r#"{"correct": true, "attempted": 90, "metrics": {"roi_decode_ms": {"value": 118.25, "unit": "ms"}}, "list": [1, -0.5]}"#
        );
    }

    #[test]
    fn numbers_keep_every_digit_and_never_print_nan() {
        assert_eq!(Json::Num(0.1 + 0.2).to_string(), "0.30000000000000004");
        assert_eq!(Json::Num(1e21).to_string(), "1000000000000000000000");
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_string(), "null");
    }

    #[test]
    fn strings_are_escaped() {
        let escaped = Json::str("a\"b\\c\nd\u{1}").to_string();
        assert_eq!(escaped, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }
}
