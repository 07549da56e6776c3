//! Self-test of the benchmark at tiny shapes: metric names are well
//! formed, the per-layer map agrees with `BENCHMARK.json`, and the
//! correctness gate counts a wrong reference as a failed op.

use hmm_util::Value;

use crate::layers;
use crate::spans::Tracer;
use crate::workloads::{setup, Scale, Tally, NAMES};

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    hmm_util::json::parse(&text).expect("BENCHMARK.json is valid JSON")
}

fn names(doc: &Value, key: &str) -> Vec<String> {
    doc.get(key)
        .and_then(Value::as_array)
        .expect("list present")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Value::as_str)
                .expect("named")
                .to_string()
        })
        .collect()
}

fn strs(v: Option<&Value>) -> Vec<String> {
    v.and_then(Value::as_array)
        .unwrap_or(&[])
        .iter()
        .map(|s| s.as_str().expect("string").to_string())
        .collect()
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn names_are_well_formed() {
    let bench = benchmark_json();
    let mut all = names(&bench, "workloads");
    all.extend(names(&bench, "end_to_end"));
    all.extend(names(&bench, "per_layer"));
    all.extend(layers::metrics().into_iter().map(|(n, _)| n));
    for n in &all {
        assert!(well_formed(n), "bad metric or workload name '{n}'");
    }
    assert_eq!(
        names(&bench, "workloads"),
        NAMES,
        "BENCHMARK.json workloads"
    );
}

#[test]
fn every_layer_metric_maps_to_an_end_to_end_metric_and_workload() {
    let bench = benchmark_json();
    let e2e = names(&bench, "end_to_end");
    let doc = layers::document();
    let Some(Value::Object(map)) = doc.get("layers") else {
        panic!("layers object")
    };
    let listed: Vec<(String, String, String)> = bench
        .get("per_layer")
        .and_then(Value::as_array)
        .expect("per_layer")
        .iter()
        .map(|m| {
            let s = |k| m.get(k).and_then(Value::as_str).expect("field").to_string();
            (s("name"), s("unit"), s("better"))
        })
        .collect();
    assert_eq!(
        listed.len(),
        map.len(),
        "BENCHMARK.json and layers.json list the same metrics"
    );
    for ((name, unit, better), (lname, entry)) in listed.iter().zip(map) {
        assert_eq!(name, lname, "same order");
        assert_eq!(
            Some(unit.as_str()),
            entry.get("unit").and_then(Value::as_str),
            "{name} unit"
        );
        assert_eq!(
            Some(better.as_str()),
            entry.get("better").and_then(Value::as_str),
            "{name} better"
        );
        let moves = strs(entry.get("moves"));
        let on = strs(entry.get("on"));
        assert!(
            !moves.is_empty() && !on.is_empty(),
            "{name} maps to something"
        );
        for m in &moves {
            assert!(
                e2e.contains(m),
                "{name} moves unknown end-to-end metric {m}"
            );
        }
        for w in on.iter().chain(&strs(entry.get("flat_on"))) {
            assert!(
                NAMES.contains(&w.as_str()),
                "{name} names unknown workload {w}"
            );
        }
    }
}

#[test]
fn the_gate_counts_a_wrong_reference() {
    for name in NAMES {
        let mut tally = Tally::default();
        let mut w = setup(name, 7, Scale::Tiny, &mut tally).expect("known workload");
        assert_eq!(
            (tally.attempted, tally.failed),
            (2, 0),
            "{name} set-up: {:?}",
            tally.first_error
        );
        tally.record(w.op());
        let mut tr = Tracer::new();
        tally.record(w.op_traced(&mut tr));
        assert_eq!(tally.failed, 0, "{name}: {:?}", tally.first_error);
        w.corrupt_reference();
        tally.record(w.op());
        tally.record(w.op_traced(&mut tr));
        assert_eq!(
            (tally.attempted, tally.failed),
            (6, 2),
            "{name} counts both wrong ops"
        );
    }
}

#[test]
fn traced_runs_emit_only_mapped_metrics() {
    let known: Vec<String> = layers::metrics().into_iter().map(|(n, _)| n).collect();
    for name in NAMES {
        let mut tally = Tally::default();
        let mut w = setup(name, 3, Scale::Tiny, &mut tally).expect("known workload");
        let mut tr = Tracer::new();
        let traced = vec![0.0; 1];
        tally.record(w.op_traced(&mut tr));
        assert_eq!(tally.failed, 0, "{name}: {:?}", tally.first_error);
        for metric in crate::layer_metrics(w.as_mut(), &tr, &[1.0], &traced).keys() {
            assert!(
                known.iter().any(|k| k == metric),
                "{name} emits unmapped metric {metric}"
            );
        }
    }
}

#[test]
fn arguments_are_checked() {
    let parse = |s: &str| crate::parse_args(s.split_whitespace().map(String::from));
    assert!(parse("--workload sum_latency --seed 1 --seconds 2 --trace 0").is_ok());
    assert!(parse("--workload nope --seed 1 --seconds 2 --trace 0").is_err());
    assert!(parse("--workload sum_latency --seed 1 --seconds 2 --trace 2").is_err());
    assert!(parse("--workload sum_latency --seed 1 --trace 0").is_err());
}
