//! Helpers shared by the integration tests that read committed JSON
//! documents back through the workspace decoder
//! ([`reprocmp::obs::json`]) and check schema evolution.

#![allow(dead_code)] // each test binary uses its own subset

use serde::Value;

/// Parses a document the suite itself wrote or committed; malformed
/// input is a test failure.
pub fn read_json(text: &str) -> Value {
    reprocmp::obs::json::parse(text).unwrap_or_else(|e| panic!("{e}"))
}

/// The fields of an object value.
pub fn fields(v: &Value) -> &[(String, Value)] {
    match v {
        Value::Object(fields) => fields,
        other => panic!("expected a JSON object, got {other:?}"),
    }
}

/// An object's keys, in document order.
pub fn keys(v: &Value) -> Vec<&str> {
    fields(v).iter().map(|(k, _)| k.as_str()).collect()
}

/// The keys `current` has that `legacy` lacks, in document order.
pub fn added_keys<'a>(legacy: &Value, current: &'a Value) -> Vec<&'a str> {
    let old = keys(legacy);
    keys(current)
        .into_iter()
        .filter(|k| !old.contains(k))
        .collect()
}

/// Exact equality with floats compared bit for bit, so the check is as
/// strict as comparing number lexemes.
fn identical(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        (Value::Array(x), Value::Array(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(x, y)| identical(x, y))
        }
        (Value::Object(x), Value::Object(y)) => {
            x.len() == y.len()
                && x.iter()
                    .zip(y)
                    .all(|((kx, vx), (ky, vy))| kx == ky && identical(vx, vy))
        }
        _ => a == b,
    }
}

/// Recursive *additive* schema comparison: every field the legacy
/// value has must exist in the current value with an additively-equal
/// value. Objects may gain fields at any depth (e.g. `stages` gained
/// `store_read` with the flight recorder) but may never lose or change
/// one; everything else must be identical. `path` names the compared
/// value in failure messages (`""` for a document root).
pub fn assert_additive(legacy: &Value, current: &Value, path: &str) {
    match (legacy, current) {
        (Value::Object(old), Value::Object(new)) => {
            for (key, old_value) in old {
                let path = if path.is_empty() {
                    key.clone()
                } else {
                    format!("{path}.{key}")
                };
                let (_, new_value) = new
                    .iter()
                    .find(|(k, _)| k == key)
                    .unwrap_or_else(|| panic!("new schema dropped `{path}`"));
                assert_additive(old_value, new_value, &path);
            }
        }
        _ => assert!(
            identical(legacy, current),
            "value of `{path}` changed: {legacy:?} -> {current:?}"
        ),
    }
}
