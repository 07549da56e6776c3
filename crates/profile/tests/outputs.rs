//! Rendered-artifact tests: byte-determinism across runs, Perfetto
//! schema shape, and disassembled hotspot text.

use hmm_machine::isa::Reg;
use hmm_machine::{abi, Asm, EngineConfig, Kernel, LaunchProfile, LaunchShape, Machine, Trace};
use hmm_prof::{profile_to_json, render_report, trace_to_perfetto};

/// A small mixed kernel: global loads/stores, a bank-conflicting shared
/// store, and a DMM barrier — every profiler category gets exercised.
fn demo() -> (LaunchProfile, Trace) {
    let (d, w, l) = (2usize, 4usize, 8usize);
    let mut asm = Asm::new();
    asm.ld_global(Reg(16), abi::GID, 0);
    asm.mul(Reg(17), abi::LTID, w as i64);
    asm.st_shared(Reg(17), 0, Reg(16));
    asm.bar_dmm();
    asm.ld_shared(Reg(18), abi::LTID, 0);
    asm.st_global(abi::GID, 0, Reg(18));
    asm.halt();
    let p = 2 * d * w;
    let kernel = Kernel::new("", asm.finish());
    let mut cfg = EngineConfig::hmm(d, w, l, 64, (p / d) * w);
    cfg.profile = true;
    cfg.trace = true;
    let mut engine = Machine::new(cfg);
    engine.launch(&kernel, LaunchShape::Even(p)).unwrap();
    let profile = engine.take_profiles().pop().expect("one profile");
    let trace = engine.take_trace().expect("trace enabled");
    (profile, trace)
}

#[test]
fn json_and_perfetto_are_byte_identical_across_runs() {
    let (p1, t1) = demo();
    let (p2, t2) = demo();
    assert_eq!(p2, p1, "profile diverged");
    assert_eq!(
        profile_to_json(&p2).to_json_pretty(),
        profile_to_json(&p1).to_json_pretty(),
        "JSON diverged"
    );
    assert_eq!(
        trace_to_perfetto(&t2, Some(&p2)).to_json(),
        trace_to_perfetto(&t1, Some(&p1)).to_json(),
        "Perfetto output diverged"
    );
    assert_eq!(
        render_report(&p2, 10),
        render_report(&p1, 10),
        "text report diverged"
    );
}

#[test]
fn profile_json_round_trips_and_conserves() {
    let (p, _) = demo();
    let text = profile_to_json(&p).to_json_pretty();
    let v = hmm_util::json::parse(&text).unwrap();
    assert_eq!(v["conserved"].as_bool(), Some(true));
    assert_eq!(v["thread_cycles"].as_u64(), Some(p.thread_cycles()));
    // Categories sum back to threads x time.
    let cats = &v["categories"];
    let sum: u64 = [
        "issued",
        "mem_global",
        "mem_shared",
        "conflict_global",
        "conflict_shared",
        "barrier",
        "retired",
    ]
    .iter()
    .map(|k| cats[*k].as_u64().unwrap())
    .sum();
    assert_eq!(sum, p.thread_cycles());
    // Hotspot entries carry the disassembled instruction text.
    let hotspots = v["hotspots"].as_array().unwrap();
    assert_eq!(hotspots.len(), p.program.len());
    assert!(hotspots
        .iter()
        .any(|h| h["inst"].as_str().unwrap().starts_with("ld    r16, global")));
    assert!(hotspots.iter().all(|h| h["pc"].as_u64().is_some()));
}

#[test]
fn perfetto_events_are_schema_shaped() {
    let (p, t) = demo();
    let text = trace_to_perfetto(&t, Some(&p)).to_json_pretty();
    let v = hmm_util::json::parse(&text).unwrap();
    let evs = v.as_array().expect("trace_events is a bare array");
    assert!(!evs.is_empty());
    let mut phases = std::collections::BTreeSet::new();
    for e in evs {
        let ph = e["ph"].as_str().expect("every event has ph");
        assert!(e["ts"].as_u64().is_some(), "every event has ts");
        assert!(e["pid"].as_u64().is_some(), "every event has pid");
        phases.insert(ph.to_string());
    }
    // Metadata, complete slices, instants and counters all present.
    for want in ["M", "X", "i", "C"] {
        assert!(phases.contains(want), "missing phase {want:?}");
    }
    // The kernel forces a 4-way bank conflict: some shared transaction
    // renders as slot 4/4 on a shared-memory process.
    assert!(evs.iter().any(|e| e["name"].as_str() == Some("slot 4/4")));
}

#[test]
fn text_report_names_disassembled_instructions() {
    let (p, _) = demo();
    let report = render_report(&p, 5);
    assert!(report.contains("cycle breakdown"));
    assert!(report.contains("issued"));
    assert!(report.contains("conflict_shared"));
    assert!(report.contains("top 5 hotspots"));
    // The hotspot table shows real disassembly, not just pc numbers.
    assert!(
        report.contains("global[r0 + 0]") || report.contains("shared["),
        "no disassembled instruction in report:\n{report}"
    );
}
