//! JSON output. Values are `obs::json::Json` (whose parser `compare`
//! reads results back with); this module adds the serializer, because
//! the exporters in `obs` round to three decimals and a measurement has
//! to keep all its digits.

use std::fmt::Write as _;

pub use obs::json::{parse, Json};

/// An object from `(key, value)` pairs, in the given order.
pub fn obj<K: Into<String>>(members: impl IntoIterator<Item = (K, Json)>) -> Json {
    Json::Obj(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// A number; a non-finite one has no JSON form and is written `null`.
pub fn num(v: f64) -> Json {
    Json::Num(v)
}

pub fn string(s: impl Into<String>) -> Json {
    Json::Str(s.into())
}

/// Serialize on one line. Integers print without a fraction, other
/// numbers with the shortest digits that read back to the same `f64`.
pub fn to_string(v: &Json) -> String {
    let mut out = String::new();
    write_value(&mut out, v);
    out
}

fn write_value(out: &mut String, v: &Json) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Num(n) => {
            if !n.is_finite() {
                out.push_str("null");
            } else if *n == n.trunc() && n.abs() < 9.0e15 {
                let _ = write!(out, "{}", *n as i64);
            } else {
                let _ = write!(out, "{n}");
            }
        }
        Json::Str(s) => obs::json::write_string(out, s),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_value(out, item);
            }
            out.push(']');
        }
        Json::Obj(members) => {
            out.push('{');
            for (i, (k, item)) in members.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                obs::json::write_string(out, k);
                out.push_str(": ");
                write_value(out, item);
            }
            out.push('}');
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbers_keep_all_their_digits() {
        assert_eq!(to_string(&num(1.203_456_789_012_3)), "1.2034567890123");
        assert_eq!(to_string(&num(4096.0)), "4096");
        assert_eq!(to_string(&num(-3.0)), "-3");
        assert_eq!(to_string(&num(2.5e-7)), "0.00000025");
        assert_eq!(to_string(&num(f64::NAN)), "null");
    }

    #[test]
    fn output_reads_back_unchanged() {
        let v = obj([
            ("correct", Json::Bool(true)),
            ("attempted", num(128_000.0)),
            ("name", string("a \"quoted\"\nline")),
            (
                "metrics",
                obj([(
                    "setup_s",
                    obj([("value", num(0.012_345_678_9)), ("unit", string("s"))]),
                )]),
            ),
            ("list", Json::Arr(vec![num(1.0), Json::Null])),
        ]);
        let text = to_string(&v);
        assert!(!text.contains('\n'), "one line: {text}");
        assert_eq!(parse(&text).expect("valid JSON"), v);
    }
}
