//! The one record every `results/*.json` file is written from.
//!
//! An [`Artifact`] is a `name`, an ordered list of top-level fields
//! (parameters and headline scalars) and an ordered list of `name`d
//! [`Point`]s, each an ordered field list of its own. Every value
//! carries the precision it prints at ([`Value`]), so a deterministic
//! run re-serialises byte-identically and a gate can compare two
//! artifacts leaf by leaf at exactly the precision on disk.
//!
//! ```text
//! {
//!   "name": "skew",
//!   "pes": 2,
//!   "points": [
//!     {"name": "static", "makespan_ns": 1804544, "pe_skew": 0.0101},
//!     {"name": "stealing", "makespan_ns": 1685652, "pe_skew": 0.0013}
//!   ]
//! }
//! ```

use crate::json::{escape, real};

/// One field value and the precision it prints at.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A count or an integral nanosecond reading.
    Int(u64),
    /// A real printed with this many decimals.
    Fixed(f64, usize),
    /// A real printed at full round-trip precision, always with a
    /// decimal point or exponent.
    Real(f64),
    /// A label or description (not a numeric leaf).
    Text(String),
    /// An absent value, `null`.
    Null,
}

impl Value {
    /// The JSON token; non-finite reals degrade to `null`.
    fn render(&self) -> String {
        match self {
            Value::Int(v) => v.to_string(),
            Value::Fixed(v, decimals) if v.is_finite() => format!("{v:.decimals$}"),
            Value::Real(v) => real(*v),
            Value::Text(s) => format!("\"{}\"", escape(s)),
            Value::Fixed(..) | Value::Null => "null".to_string(),
        }
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Value {
        Value::Int(v)
    }
}

impl From<u32> for Value {
    fn from(v: u32) -> Value {
        Value::Int(v.into())
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Value {
        Value::Int(v as u64)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Text(s.to_string())
    }
}

impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Value {
        v.map_or(Value::Null, Into::into)
    }
}

/// A `(key, value)` pair; field lists print in the order given.
pub type Field = (String, Value);

/// Builds one [`Field`].
pub fn field(key: impl Into<String>, value: impl Into<Value>) -> Field {
    (key.into(), value.into())
}

/// One named row of an artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct Point {
    pub name: String,
    pub fields: Vec<Field>,
}

impl Point {
    /// A point named `name` holding `fields`.
    pub fn new(name: impl Into<String>, fields: Vec<Field>) -> Point {
        Point {
            name: name.into(),
            fields,
        }
    }
}

/// A whole `results/` file: `name`, top-level fields, `points[]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Artifact {
    pub name: String,
    pub fields: Vec<Field>,
    pub points: Vec<Point>,
}

impl Artifact {
    /// Serialises the artifact: one top-level field per line, one point
    /// per line, fields in declaration order.
    pub fn to_json(&self) -> String {
        let cells = |name: &str, fields: &[Field], sep: &str| {
            let mut cells = vec![format!("\"name\": \"{}\"", escape(name))];
            cells.extend(
                fields
                    .iter()
                    .map(|(k, v)| format!("\"{}\": {}", escape(k), v.render())),
            );
            cells.join(sep)
        };
        let points: Vec<String> = self
            .points
            .iter()
            .map(|p| format!("\n    {{{}}}", cells(&p.name, &p.fields, ", ")))
            .collect();
        format!(
            "{{\n  {},\n  \"points\": [{}{}]\n}}\n",
            cells(&self.name, &self.fields, ",\n  "),
            points.join(","),
            if points.is_empty() { "" } else { "\n  " }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_is_one_field_and_one_point_per_line() {
        let a = Artifact {
            name: "demo".into(),
            fields: vec![field("pes", 2usize), field("ratio", Value::Fixed(0.5, 4))],
            points: vec![
                Point::new("a", vec![field("ns", 7u64)]),
                Point::new("b", vec![field("cap", None::<u32>)]),
            ],
        };
        assert_eq!(
            a.to_json(),
            "{\n  \"name\": \"demo\",\n  \"pes\": 2,\n  \"ratio\": 0.5000,\n  \"points\": [\n    \
             {\"name\": \"a\", \"ns\": 7},\n    {\"name\": \"b\", \"cap\": null}\n  ]\n}\n"
        );
    }

    #[test]
    fn values_print_at_their_declared_precision() {
        assert_eq!(Value::Int(3).render(), "3");
        assert_eq!(Value::Fixed(2.0, 3).render(), "2.000");
        assert_eq!(Value::Fixed(0.12345, 2).render(), "0.12");
        assert_eq!(Value::Real(3.0).render(), "3.0", "ints keep a decimal");
        assert_eq!(Value::Real(0.1 + 0.2).render(), "0.30000000000000004");
        assert_eq!(Value::Real(-1.0).render(), "-1.0");
        assert_eq!(Value::Text("a\"b".into()).render(), "\"a\\\"b\"");
    }

    #[test]
    fn non_finite_reals_and_absent_values_are_null() {
        assert_eq!(Value::Real(f64::INFINITY).render(), "null");
        assert_eq!(Value::Fixed(f64::NAN, 2).render(), "null");
        assert_eq!(Value::from(None::<u64>).render(), "null");
        assert_eq!(Value::from(Some(4u32)).render(), "4");
    }

    #[test]
    fn empty_artifact_is_valid_json() {
        let a = Artifact {
            name: "tables".into(),
            fields: vec![],
            points: vec![],
        };
        let v: serde_json::Value = serde_json::from_str(&a.to_json()).expect("valid JSON");
        assert_eq!(v["name"], "tables");
        assert!(v["points"].as_array().unwrap().is_empty());
    }
}
