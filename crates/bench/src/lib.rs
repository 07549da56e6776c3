//! # hmm-bench — experiment harness
//!
//! Shared helpers for the table-generator binaries (`table1`, `table2`,
//! `fig4`, `sweep_sum`, `sweep_conv`) and the bench targets. The
//! binaries print the paper's tables with *measured* simulated time units
//! next to the closed-form predictions, and dump machine-readable JSON to
//! `target/experiments/` for `EXPERIMENTS.md`; the bench targets write
//! their `BENCH_*.json` at the workspace root.

#![warn(missing_docs)]

use std::fs;
use std::path::PathBuf;

use hmm_util::Value;

/// One measured sweep point, serialised into the experiment dumps.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Experiment id, e.g. "table1/sum/hmm".
    pub experiment: String,
    /// Input size `n`.
    pub n: usize,
    /// Kernel length `k` (1 for sum).
    pub k: usize,
    /// Threads `p`.
    pub p: usize,
    /// Width `w`.
    pub w: usize,
    /// Latency `l`.
    pub l: usize,
    /// DMMs `d`.
    pub d: usize,
    /// Measured simulated time units.
    pub measured: u64,
    /// Closed-form prediction (unit constants).
    pub predicted: f64,
    /// measured / predicted.
    pub ratio: f64,
}

impl Measurement {
    /// Build a measurement from a sweep point and its outcome.
    #[must_use]
    pub fn new(experiment: &str, pr: hmm_theory::Params, measured: u64, predicted: f64) -> Self {
        Self {
            experiment: experiment.to_string(),
            n: pr.n,
            k: pr.k,
            p: pr.p,
            w: pr.w,
            l: pr.l,
            d: pr.d,
            measured,
            predicted,
            ratio: measured as f64 / predicted,
        }
    }

    /// JSON rendering for the experiment dumps.
    #[must_use]
    pub fn to_json(&self) -> Value {
        Value::object(vec![
            ("experiment", self.experiment.as_str().into()),
            ("n", self.n.into()),
            ("k", self.k.into()),
            ("p", self.p.into()),
            ("w", self.w.into()),
            ("l", self.l.into()),
            ("d", self.d.into()),
            ("measured", self.measured.into()),
            ("predicted", self.predicted.into()),
            ("ratio", self.ratio.into()),
        ])
    }
}

/// The workspace root.
fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Where experiment dumps land.
#[must_use]
pub fn experiments_dir() -> PathBuf {
    let dir = workspace_root().join("target/experiments");
    fs::create_dir_all(&dir).expect("create experiments dir");
    dir
}

/// Write a JSON dump of measurements to `target/experiments/<name>.json`
/// under the workspace root, and print that path relative to the root,
/// so the output of one commit reads the same from any checkout.
pub fn dump(name: &str, measurements: &[Measurement]) {
    let file = format!("{name}.json");
    let doc = Value::Array(measurements.iter().map(Measurement::to_json).collect());
    fs::write(experiments_dir().join(&file), doc.to_json_pretty()).expect("write experiment dump");
    println!("\n  [dump] target/experiments/{file}");
}

/// Write a bench target's results to `BENCH_<name>.json` at the
/// workspace root, and print that path relative to the root, as [`dump`]
/// does.
pub fn dump_bench(name: &str, doc: &Value) {
    let file = format!("BENCH_{name}.json");
    fs::write(workspace_root().join(&file), doc.to_json_pretty()).expect("write bench dump");
    println!("\n  [dump] {file}");
}

/// Print a header row for a fixed-width table.
pub fn header(cols: &[&str]) {
    let line: Vec<String> = cols.iter().map(|c| format!("{c:>12}")).collect();
    println!("{}", line.join(" "));
    println!("{}", "-".repeat(13 * cols.len()));
}

/// Print one fixed-width row.
pub fn row(cells: &[String]) {
    let line: Vec<String> = cells.iter().map(|c| format!("{c:>12}")).collect();
    println!("{}", line.join(" "));
}

/// Summarise a measurement set with the envelope fit.
pub fn summarise(name: &str, ms: &[Measurement]) {
    let pairs: Vec<(f64, f64)> = ms
        .iter()
        .map(|m| (m.measured as f64, m.predicted))
        .collect();
    let fit = hmm_theory::envelope::fit(&pairs);
    println!(
        "  {name}: {} points, constant {:.2}, ratio band [{:.2}, {:.2}], spread {:.2}",
        fit.points, fit.constant, fit.min_ratio, fit.max_ratio, fit.spread
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmm_theory::Params;

    #[test]
    fn measurement_computes_ratio() {
        let pr = Params {
            n: 8,
            k: 1,
            p: 2,
            w: 2,
            l: 1,
            d: 1,
        };
        let m = Measurement::new("x", pr, 10, 5.0);
        assert!((m.ratio - 2.0).abs() < 1e-12);
        assert_eq!(m.experiment, "x");
    }
}
