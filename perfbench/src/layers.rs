//! The per-layer metric map in `layers.json`: each metric's unit, and the
//! end-to-end metrics and workloads it should move.

use hmm_util::Value;

const LAYERS_JSON: &str = include_str!("../layers.json");

/// The parsed `layers.json` document.
pub fn document() -> Value {
    hmm_util::json::parse(LAYERS_JSON).expect("layers.json is valid JSON")
}

/// `(name, unit)` of every per-layer metric, in file order.
pub fn metrics() -> Vec<(String, String)> {
    match document().get("layers") {
        Some(Value::Object(pairs)) => pairs
            .iter()
            .map(|(name, v)| {
                let unit = v
                    .get("unit")
                    .and_then(Value::as_str)
                    .expect("every layer has a unit");
                (name.clone(), unit.to_string())
            })
            .collect(),
        _ => panic!("layers.json has a layers object"),
    }
}
