//! Host-time benchmark of the HMM simulator.
//!
//! ```text
//! hmm-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process runs one workload as a closed loop on one thread: a single
//! caller, each op starting when the previous one returns. Set-up
//! (inputs, references, a warm-up op and a second-seed op) runs several
//! times and reports its median. Every op is checked; a failed op counts
//! in `failed` and stays in the timings. The last line of stdout is the
//! result: with `--trace 0` the end-to-end metrics, with `--trace 1` the
//! per-layer metrics of `layers.json`, taken from spans around the calls
//! into each crate. The line before it records provenance, sample counts
//! and the op-time median and 90th percentile.
//!
//! Op times are reported by their minimum. Every op repeats the same
//! deterministic work, so the fastest op of a run is the work's cost with
//! the least interference from other tenants of the host. On a 2-vCPU
//! shared host it moved much less from run to run than the median, which
//! followed the neighbours' load; a run they load throughout is still
//! slow by every measure.

mod layers;
#[cfg(test)]
mod selftest;
mod spans;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use hmm_machine::StallCategory;
use hmm_util::Value;

use crate::spans::Tracer;
use crate::stats::{median, peak_rss_mb, quantile};
use crate::workloads::{Metrics, OpResult, Scale, Tally, Workload, NAMES};

/// Set-up repeats at least this many times and for at least
/// [`SETUP_MIN_SECONDS`] per run; `setup_s` is the median. A set-up of a
/// few ms is thus repeated hundreds of times, and slow repeats while
/// other tenants load the host do not move the median.
const SETUP_MIN_RUNS: usize = 5;
const SETUP_MIN_SECONDS: f64 = 1.0;
/// Fewest ops a measuring loop takes, however short `--seconds` is.
const MIN_OPS: usize = 5;

const USAGE: &str =
    "usage: hmm-perfbench --workload <sum_latency|tune_sum|sort_profiled> --seed <n> --seconds <s> --trace <0|1>";

/// Layer calls timed by spans, and the metrics of their median self time.
const SPAN_METRICS: [(&str, &str); 12] = [
    ("machine.launch", "machine.launch_ms"),
    ("core.machine_new", "core.machine_new_ms"),
    ("core.stage", "core.stage_ms"),
    ("core.readback", "core.readback_ms"),
    ("algorithms.kernel_build", "algorithms.kernel_build_ms"),
    ("lang.build", "lang.build_ms"),
    ("analysis.analyze", "analysis.analyze_ms"),
    ("analysis.predict", "analysis.predict_ms"),
    ("tune.tune", "tune.tune_ms"),
    ("prof.json", "prof.json_ms"),
    ("prof.perfetto", "prof.perfetto_ms"),
    ("prof.text", "prof.text_ms"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut flags = BTreeMap::new();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .filter(|k| ["workload", "seed", "seconds", "trace"].contains(k))
            .ok_or_else(|| format!("unknown argument '{flag}'"))?
            .to_string();
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(key, value);
    }
    let get = |k: &str| flags.get(k).ok_or_else(|| format!("missing --{k}"));
    let workload = get("workload")?.clone();
    if !NAMES.contains(&workload.as_str()) {
        return Err(format!("unknown workload '{workload}'"));
    }
    let num = |k: &str| {
        get(k)?
            .parse::<u64>()
            .map_err(|_| format!("--{k} must be a whole number"))
    };
    let seconds = num("seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let trace = match num("trace")? {
        0 => false,
        1 => true,
        _ => return Err("--trace must be 0 or 1".into()),
    };
    Ok(Args {
        workload,
        seed: num("seed")?,
        seconds,
        trace,
    })
}

/// Run `op` back to back until `seconds` have passed (and at least
/// [`MIN_OPS`] times); returns each op's wall time in ms.
fn closed_loop(seconds: f64, tally: &mut Tally, mut op: impl FnMut() -> OpResult) -> Vec<f64> {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut ms = Vec::new();
    while ms.len() < MIN_OPS || Instant::now() < deadline {
        let t = Instant::now();
        let r = op();
        ms.push(t.elapsed().as_secs_f64() * 1e3);
        tally.record(r);
    }
    ms
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The commit the checkout was made from, when it carries its `.git`.
fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}")).unwrap_or_default(),
        None => head.to_string(),
    };
    let rev = rev.trim();
    if rev.is_empty() {
        "unknown".into()
    } else {
        rev.to_string()
    }
}

fn provenance(args: &Args, w: &dyn Workload) -> Value {
    let (in_launch, batch) = w.workers();
    let doc = layers::document();
    Value::object(vec![
        (
            "host_cores",
            std::thread::available_parallelism()
                .map_or(1, std::num::NonZeroUsize::get)
                .into(),
        ),
        ("rustc", env!("PERFBENCH_RUSTC").into()),
        ("git_rev", git_rev().into()),
        ("seed", args.seed.into()),
        (
            "hmm_threads",
            std::env::var("HMM_THREADS").map_or(Value::Null, Value::from),
        ),
        ("workers_in_launch", in_launch.into()),
        ("workers_batch", batch.into()),
        (
            "model_validation",
            doc.get("model_validation").cloned().unwrap_or(Value::Null),
        ),
    ])
}

/// Per-layer metrics from the traced ops' spans and the workload's
/// golden counts; a layer the workload does not call reads 0.
fn layer_metrics(
    w: &mut dyn Workload,
    tr: &Tracer,
    untraced_ms: &[f64],
    traced_ms: &[f64],
) -> Metrics {
    let mut out = Metrics::new();
    for (span, name) in SPAN_METRICS {
        out.insert(name, median(&tr.self_ms(span)));
    }
    if let Some(r) = w.report().cloned() {
        let launch_ns = out["machine.launch_ms"] * 1e6;
        out.insert(
            "machine.ns_per_thread_instr",
            ratio(launch_ns, r.instructions as f64),
        );
        out.insert(
            "machine.ns_per_stepped_unit",
            ratio(launch_ns, (r.time - r.skipped_units) as f64),
        );
        out.insert(
            "machine.skipped_frac",
            ratio(r.skipped_units as f64, r.time as f64),
        );
        out.insert("machine.time_units", r.time as f64);
        out.insert("machine.thread_instructions", r.instructions as f64);
        out.insert("machine.barriers", r.barriers as f64);
        out.insert(
            "machine.shared_conflicted_frac",
            ratio(
                r.shared.conflicted_transactions as f64,
                r.shared.transactions as f64,
            ),
        );
        out.insert(
            "machine.global_slots_per_txn",
            ratio(r.global.slots as f64, r.global.transactions as f64),
        );
    }
    if let Some(p) = w.profile() {
        out.insert(
            "machine.profile.issued_frac",
            p.fraction(StallCategory::Issued),
        );
        out.insert(
            "machine.profile.mem_global_frac",
            p.fraction(StallCategory::MemGlobal),
        );
        out.insert(
            "machine.profile.conflict_shared_frac",
            p.fraction(StallCategory::ConflictShared),
        );
        out.insert(
            "machine.profile.barrier_frac",
            p.fraction(StallCategory::Barrier),
        );
    }
    w.layer_metrics(&mut out);
    out.insert(
        "bench.trace_overhead",
        ratio(median(traced_ms), median(untraced_ms)),
    );
    out
}

/// Write the span log next to the benchmark's sources.
fn write_spans(args: &Args, tr: &Tracer) {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    let path = format!("{dir}/spans-{}-{}.json", args.workload, args.seed);
    let written =
        std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, tr.to_json().to_json()));
    if let Err(e) = written {
        eprintln!("hmm-perfbench: could not write {path}: {e}");
    }
}

fn metric(value: f64, unit: &str) -> Value {
    Value::object(vec![("value", value.into()), ("unit", unit.into())])
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hmm-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut tally = Tally::default();
    let mut setup_s = Vec::new();
    let mut built = None;
    let started = Instant::now();
    while setup_s.len() < SETUP_MIN_RUNS || started.elapsed().as_secs_f64() < SETUP_MIN_SECONDS {
        drop(built.take());
        let t = Instant::now();
        built = workloads::setup(&args.workload, args.seed, Scale::Full, &mut tally);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut w = built.expect("workload name was checked");

    let seconds = args.seconds as f64;
    let mut metrics: Vec<(String, Value)> = Vec::new();
    let mut info = vec![
        ("workload", args.workload.as_str().into()),
        ("trace", args.trace.into()),
    ];
    if args.trace {
        let untraced = closed_loop(seconds / 2.0, &mut tally, || w.op());
        let mut tr = Tracer::new();
        let traced = closed_loop(seconds / 2.0, &mut tally, || w.op_traced(&mut tr));
        let values = layer_metrics(w.as_mut(), &tr, &untraced, &traced);
        for (name, unit) in layers::metrics() {
            let v = values.get(name.as_str()).copied().unwrap_or(0.0);
            metrics.push((name, metric(v, &unit)));
        }
        write_spans(&args, &tr);
        info.push(("op_samples", untraced.len().into()));
        info.push(("traced_op_samples", traced.len().into()));
    } else {
        let ms = closed_loop(seconds, &mut tally, || w.op());
        let fastest = ms.iter().copied().fold(f64::INFINITY, f64::min);
        let (instr, units) = w.sim_work();
        let e2e = [
            ("op_ms_min", fastest, "ms"),
            ("sim_instr_per_s", instr as f64 / (fastest / 1e3), "1/s"),
            ("sim_units_per_s", units as f64 / (fastest / 1e3), "1/s"),
            ("peak_rss_mb", peak_rss_mb(), "MiB"),
            ("setup_s", median(&setup_s), "s"),
        ];
        for (name, v, unit) in e2e {
            metrics.push((name.to_string(), metric(v, unit)));
        }
        info.push(("op_samples", ms.len().into()));
        info.push(("op_ms_p50", median(&ms).into()));
        info.push(("op_ms_p90", quantile(&ms, 0.9).into()));
    }
    info.push(("setup_runs", setup_s.len().into()));
    info.push((
        "first_error",
        tally.first_error.clone().map_or(Value::Null, Value::from),
    ));
    info.push(("provenance", provenance(&args, w.as_ref())));
    println!("{}", Value::object(info).to_json());
    let result = Value::object(vec![
        ("correct", (tally.failed == 0).into()),
        ("attempted", tally.attempted.into()),
        ("failed", tally.failed.into()),
        ("metrics", Value::Object(metrics)),
    ]);
    println!("{}", result.to_json());
    ExitCode::SUCCESS
}
