//! Shorthands over the vendored `serde::Value` tree.

use serde::Value;

pub fn text(s: &str) -> Value {
    Value::Str(s.to_string())
}

pub fn object(entries: Vec<(&str, Value)>) -> Value {
    Value::Map(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

pub fn field<'a>(value: &'a Value, name: &str) -> Option<&'a Value> {
    value
        .as_map()?
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v)
}

/// A numeric field, whichever way the parser typed it.
pub fn number(value: &Value) -> Option<f64> {
    match value {
        Value::F64(f) => Some(*f),
        Value::U64(u) => Some(*u as f64),
        Value::I64(i) => Some(*i as f64),
        _ => None,
    }
}
