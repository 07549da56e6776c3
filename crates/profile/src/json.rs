//! JSON serialisation of launch profiles.
//!
//! The document layout is stable: category objects always list the
//! categories in [`StallCategory::ALL`] order, arrays are indexed by
//! warp/DMM/pc, and floats go through `hmm-util`'s deterministic float
//! writer — so two bit-identical profiles serialise to byte-identical
//! JSON. The crate's tests pin the bytes of fixed launches, so a render
//! is identical from run to run and between debug and release builds.

use hmm_machine::disasm::render_inst;
use hmm_machine::profile::{CategoryCounts, LaunchProfile, PipelineProfile, StallCategory};
use hmm_util::json::Value;

fn u64_array(v: &[u64]) -> Value {
    Value::Array(v.iter().map(|&x| Value::from(x)).collect())
}

/// One [`CategoryCounts`] as an object keyed by category name.
#[must_use]
pub fn counts_to_json(c: &CategoryCounts) -> Value {
    Value::object(
        StallCategory::ALL
            .iter()
            .map(|&cat| (cat.name(), Value::from(c.get(cat))))
            .collect(),
    )
}

fn pipe_to_json(p: &PipelineProfile) -> Value {
    Value::object(vec![
        ("slots", p.slots.into()),
        ("buckets", u64_array(&p.buckets)),
        ("slots_per_txn", u64_array(&p.slots_per_txn)),
        ("queue_depth", u64_array(&p.queue_depth)),
    ])
}

fn hotspots_to_json(p: &LaunchProfile) -> Value {
    Value::Array(
        p.per_pc
            .iter()
            .enumerate()
            .map(|(pc, c)| {
                let inst = p.program.get(pc).map(render_inst).unwrap_or_default();
                Value::object(vec![
                    ("pc", pc.into()),
                    ("inst", inst.into()),
                    ("total", c.total().into()),
                    ("counts", counts_to_json(c)),
                ])
            })
            .collect(),
    )
}

/// The full profile as one JSON document.
///
/// Top-level keys: launch identity (`label`, `time`, `threads`, `width`,
/// `thread_cycles`, `conserved`), the launch-total `categories` and
/// their `fractions`, the `per_dmm` / `per_warp` attribution tables, the
/// per-pc `hotspots` table (each entry carries the disassembled
/// instruction text), and the `timeline` object with the shared
/// `bucket_width` plus per-pipe occupancy buckets and histograms.
#[must_use]
pub fn profile_to_json(p: &LaunchProfile) -> Value {
    let fractions = StallCategory::ALL
        .iter()
        .map(|&cat| (cat.name(), Value::from(p.fraction(cat))))
        .collect();
    Value::object(vec![
        ("label", p.label.as_str().into()),
        ("time", p.time.into()),
        ("threads", p.threads.into()),
        ("width", p.width.into()),
        ("thread_cycles", p.thread_cycles().into()),
        ("conserved", p.is_conserved().into()),
        ("categories", counts_to_json(&p.total)),
        ("fractions", Value::object(fractions)),
        (
            "per_dmm",
            Value::Array(p.per_dmm.iter().map(counts_to_json).collect()),
        ),
        (
            "per_warp",
            Value::Array(p.per_warp.iter().map(counts_to_json).collect()),
        ),
        ("hotspots", hotspots_to_json(p)),
        (
            "timeline",
            Value::object(vec![
                ("bucket_width", p.bucket_width.into()),
                ("global", pipe_to_json(&p.global_pipe)),
                (
                    "shared",
                    Value::Array(p.shared_pipes.iter().map(pipe_to_json).collect()),
                ),
            ]),
        ),
    ])
}
