//! A JSON value and its writer, for the `BENCH_<name>.json` artifacts.
//! Writer only: nothing in the harness reads JSON back. (No serde: the
//! build has no route to crates.io.)

use std::fmt::{self, Write as _};

use immortaldb_obs::MetricsSnapshot;

#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// Counters, exact at every `u64`.
    Int(u64),
    /// Measurements, written in their shortest exact form; a non-finite
    /// value is written as `null` (JSON has no NaN).
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Insertion-ordered: an artifact keeps the key order it was built in.
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn arr<T: Into<Json>>(items: impl IntoIterator<Item = T>) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }
}

impl fmt::Display for Json {
    /// One line, no spaces.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Int(n) => write!(f, "{n}"),
            Json::Num(n) if !n.is_finite() => f.write_str("null"),
            Json::Num(n) => write!(f, "{n}"),
            Json::Str(s) => write_str(f, s),
            Json::Arr(items) => {
                f.write_char('[')?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_char(']')
            }
            Json::Obj(pairs) => {
                f.write_char('{')?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    write_str(f, k)?;
                    write!(f, ":{v}")?;
                }
                f.write_char('}')
            }
        }
    }
}

fn write_str(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => f.write_char(c)?,
        }
    }
    f.write_char('"')
}

macro_rules! from {
    ($($t:ty => $v:expr),*) => {$(
        impl From<$t> for Json {
            fn from(v: $t) -> Json {
                $v(v)
            }
        }
    )*};
}
from!(bool => Json::Bool, u64 => Json::Int, f64 => Json::Num, String => Json::Str);
from!(u32 => |n| Json::Int(u64::from(n)), usize => |n| Json::Int(n as u64));
from!(&str => |s: &str| Json::Str(s.to_string()));

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

/// An engine metrics snapshot as one object: scalars as integers,
/// `buffer.hit_rate` as a float, each histogram as an object with its
/// non-empty buckets as `[upper_bound, count]` pairs.
pub(crate) fn snapshot(s: &MetricsSnapshot) -> Json {
    let scalars = s
        .scalars
        .iter()
        .map(|(name, v)| (name.clone(), (*v).into()));
    let hit_rate = ("buffer.hit_rate".to_string(), s.buffer_hit_rate().into());
    let histograms = s.histograms.iter().map(|(name, h)| {
        let buckets = h.buckets.iter().map(|&(bound, n)| Json::arr([bound, n]));
        let body = Json::obj([
            ("count", h.count.into()),
            ("sum", h.sum.into()),
            ("max", h.max.into()),
            ("mean", h.mean().into()),
            ("buckets", Json::Arr(buckets.collect())),
        ]);
        (name.clone(), body)
    });
    Json::Obj(
        scalars
            .chain(std::iter::once(hit_rate))
            .chain(histograms)
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_escape_quotes_backslashes_and_control_characters() {
        let s = Json::from("a\"b\\c\nd\re\tf\u{1}g\u{1f}h é");
        assert_eq!(s.to_string(), r#""a\"b\\c\nd\re\tf\u0001g\u001fh é""#);
    }

    #[test]
    fn non_finite_numbers_are_null() {
        let v = Json::arr([f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.25, 3.0]);
        assert_eq!(v.to_string(), "[null,null,null,0.25,3]");
        assert_eq!(Json::from(u64::MAX).to_string(), "18446744073709551615");
        assert_eq!(Json::from(None::<u64>).to_string(), "null");
    }

    #[test]
    fn nesting_and_key_order_are_kept() {
        let v = Json::obj([
            (
                "z",
                Json::arr([Json::arr([1u64, 2]), Json::obj([("k", true.into())])]),
            ),
            ("a", Json::obj::<&str>([])),
            ("m", Json::Arr(vec![])),
        ]);
        assert_eq!(v.to_string(), r#"{"z":[[1,2],{"k":true}],"a":{},"m":[]}"#);
    }

    #[test]
    fn a_snapshot_serializes_its_scalars_and_histograms() {
        let r = immortaldb_obs::MetricsRegistry::new();
        r.locks.acquired_x.add(3);
        r.locks.wait_ns.observe(5);
        let json = snapshot(&r.snapshot()).to_string();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"locks.acquired.x\":3"));
        assert!(json.contains("\"repl.reconnects\":0"));
        assert!(json.contains("\"locks.wait_ns\":{\"count\":1"));
        assert!(json.contains("\"buckets\":[[8,1]]"));
    }
}
