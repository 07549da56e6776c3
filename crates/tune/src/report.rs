//! The tuning report: everything a run decided and why, as JSON and as
//! a text leaderboard.
//!
//! Reports deliberately contain **no wall-clock times and no worker
//! thread counts** — only simulated quantities and the run's declared
//! inputs — so the same `(algo, n, seed, space, budget)` produces
//! byte-identical output at any batch worker count, which the golden
//! tests pin.

use crate::tuner::PRUNE_FACTOR;
use hmm_util::json::Value;
use std::fmt::Write as _;

/// Lifecycle of one candidate through the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryStatus {
    /// Could not be built for this kernel (reason in `detail`).
    Infeasible,
    /// Statically dominated: predicted more than `PRUNE_FACTOR` (8) × the
    /// best prediction, never simulated.
    Pruned,
    /// Survived pruning but lies past the measurement budget: the
    /// tuner measures live candidates in enumeration order and stops
    /// after `budget` of them.
    Skipped,
    /// Simulated successfully.
    Measured,
    /// Simulation raised an error (reason in `detail`).
    Failed,
}

impl EntryStatus {
    /// Stable name used in JSON and text.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            EntryStatus::Infeasible => "infeasible",
            EntryStatus::Pruned => "pruned",
            EntryStatus::Skipped => "skipped",
            EntryStatus::Measured => "measured",
            EntryStatus::Failed => "failed",
        }
    }
}

/// One candidate's full audit trail.
#[derive(Debug, Clone)]
pub struct TuneEntry {
    /// Stable candidate id ([`crate::Candidate::id`]).
    pub id: String,
    /// Where the candidate ended up.
    pub status: EntryStatus,
    /// Infeasibility reason or simulation error, empty otherwise.
    pub detail: String,
    /// Raw (uncalibrated) static score, when the candidate built.
    pub predicted_raw: Option<f64>,
    /// Calibrated prediction in simulated time units.
    pub predicted: Option<f64>,
    /// Predicted mean slots-per-transaction on global memory.
    pub global_inflation: Option<f64>,
    /// Predicted mean slots-per-transaction on shared memory.
    pub shared_inflation: Option<f64>,
    /// Measured simulated time units.
    pub measured: Option<u64>,
    /// Signed prediction error `(predicted − measured)/measured`, in
    /// percent — the cost-model audit column.
    pub error_pct: Option<f64>,
    /// Whether the simulated output matched the sequential reference.
    pub valid: Option<bool>,
}

/// One row of the winner-vs-baseline cycle-accounting diff.
#[derive(Debug, Clone)]
pub struct ExplainRow {
    /// Stall category name ([`hmm_machine::profile::StallCategory`]).
    pub category: &'static str,
    /// Baseline thread-cycles in this category.
    pub baseline: u64,
    /// Winner thread-cycles in this category.
    pub tuned: u64,
    /// Baseline fraction of all thread-cycles.
    pub baseline_frac: f64,
    /// Winner fraction of all thread-cycles.
    pub tuned_frac: f64,
}

/// The complete result of one tuning run.
#[derive(Debug, Clone)]
pub struct TuneReport {
    /// Algorithm family tuned.
    pub algo: String,
    /// Problem size.
    pub n: usize,
    /// Seed for the input data.
    pub seed: u64,
    /// Measurement budget (baseline measurement is not counted).
    pub budget: usize,
    /// Canonical space spec ([`crate::TuneSpace::render`]).
    pub space: String,
    /// Candidates enumerated (incl. an appended baseline if the space
    /// itself does not contain it).
    pub candidates: usize,
    /// Baseline candidate id.
    pub baseline_id: String,
    /// Baseline simulated time units.
    pub baseline_time: u64,
    /// Winning candidate id.
    pub winner_id: String,
    /// Winning simulated time units.
    pub winner_time: u64,
    /// `baseline_time / winner_time`.
    pub speedup: f64,
    /// Mean `|error_pct|` over measured candidates — the one-number
    /// cost-model audit.
    pub mean_abs_error_pct: f64,
    /// Every candidate, in enumeration order.
    pub entries: Vec<TuneEntry>,
    /// Winner-vs-baseline cycle accounting, one row per category.
    pub explain: Vec<ExplainRow>,
}

/// Round for reports: noise below 1e-4 is formatting, not signal.
fn r4(x: f64) -> f64 {
    (x * 1e4).round() / 1e4
}

fn opt_f64(v: Option<f64>) -> Value {
    v.map_or(Value::Null, |x| r4(x).into())
}

fn opt_u64(v: Option<u64>) -> Value {
    v.map_or(Value::Null, Into::into)
}

impl TuneReport {
    /// Status census: how many entries ended in `status`.
    #[must_use]
    pub fn count(&self, status: EntryStatus) -> usize {
        self.entries.iter().filter(|e| e.status == status).count()
    }

    /// Indices of measured entries, best simulated time first (ties by
    /// enumeration order).
    #[must_use]
    pub fn leaderboard(&self) -> Vec<usize> {
        let mut idx: Vec<usize> = self
            .entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.measured.is_some())
            .map(|(i, _)| i)
            .collect();
        idx.sort_by_key(|&i| (self.entries[i].measured.unwrap_or(u64::MAX), i));
        idx
    }

    /// The JSON rendering (see module docs for what is excluded).
    #[must_use]
    pub fn to_json(&self) -> Value {
        let entries: Vec<Value> = self
            .entries
            .iter()
            .map(|e| {
                Value::object(vec![
                    ("id", e.id.clone().into()),
                    ("status", e.status.name().into()),
                    ("detail", e.detail.clone().into()),
                    ("predicted_raw", opt_f64(e.predicted_raw)),
                    ("predicted", opt_f64(e.predicted)),
                    ("global_inflation", opt_f64(e.global_inflation)),
                    ("shared_inflation", opt_f64(e.shared_inflation)),
                    ("measured", opt_u64(e.measured)),
                    ("error_pct", opt_f64(e.error_pct)),
                    ("valid", e.valid.map_or(Value::Null, Into::into)),
                ])
            })
            .collect();
        let leaderboard: Vec<Value> = self
            .leaderboard()
            .into_iter()
            .map(|i| self.entries[i].id.clone().into())
            .collect();
        let explain: Vec<Value> = self
            .explain
            .iter()
            .map(|r| {
                Value::object(vec![
                    ("category", r.category.into()),
                    ("baseline", r.baseline.into()),
                    ("tuned", r.tuned.into()),
                    ("baseline_frac", r4(r.baseline_frac).into()),
                    ("tuned_frac", r4(r.tuned_frac).into()),
                ])
            })
            .collect();
        Value::object(vec![
            ("algo", self.algo.clone().into()),
            ("n", self.n.into()),
            ("seed", self.seed.into()),
            ("budget", self.budget.into()),
            ("space", self.space.clone().into()),
            ("prune_factor", r4(PRUNE_FACTOR).into()),
            ("candidates", self.candidates.into()),
            ("infeasible", self.count(EntryStatus::Infeasible).into()),
            ("pruned", self.count(EntryStatus::Pruned).into()),
            ("evaluated", self.count(EntryStatus::Measured).into()),
            (
                "baseline",
                Value::object(vec![
                    ("id", self.baseline_id.clone().into()),
                    ("time", self.baseline_time.into()),
                ]),
            ),
            (
                "winner",
                Value::object(vec![
                    ("id", self.winner_id.clone().into()),
                    ("time", self.winner_time.into()),
                    ("speedup", r4(self.speedup).into()),
                ]),
            ),
            ("mean_abs_error_pct", r4(self.mean_abs_error_pct).into()),
            ("entries", Value::Array(entries)),
            ("leaderboard", Value::Array(leaderboard)),
            ("explain", Value::Array(explain)),
        ])
    }

    /// Human-readable rendering: run summary, top-`top` leaderboard
    /// with the predicted-vs-measured audit column, and the
    /// winner-vs-baseline stall-category diff.
    #[must_use]
    pub fn render_text(&self, top: usize) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "tune {}: n={} seed={} budget={}",
            self.algo, self.n, self.seed, self.budget
        );
        let _ = writeln!(out, "space: {}", self.space);
        let _ = writeln!(
            out,
            "{} candidates: {} infeasible, {} pruned by the static cost model, {} measured, {} skipped",
            self.candidates,
            self.count(EntryStatus::Infeasible),
            self.count(EntryStatus::Pruned),
            self.count(EntryStatus::Measured),
            self.count(EntryStatus::Skipped),
        );
        out.push('\n');
        let board = self.leaderboard();
        let shown = board.len().min(top);
        let _ = writeln!(
            out,
            "{:>4}  {:<28} {:>12} {:>10} {:>8}  ok",
            "#", "candidate", "predicted", "measured", "err%"
        );
        for (rank, &i) in board.iter().take(shown).enumerate() {
            let e = &self.entries[i];
            let _ = writeln!(
                out,
                "{:>4}  {:<28} {:>12} {:>10} {:>8}  {}",
                rank + 1,
                e.id,
                e.predicted
                    .map_or_else(|| "-".into(), |x| format!("{x:.1}")),
                e.measured.map_or_else(|| "-".into(), |t| t.to_string()),
                e.error_pct
                    .map_or_else(|| "-".into(), |x| format!("{x:+.1}")),
                match e.valid {
                    Some(true) => "ok",
                    Some(false) => "WRONG",
                    None => "-",
                }
            );
        }
        if board.len() > shown {
            let _ = writeln!(out, "      ... {} more measured", board.len() - shown);
        }
        out.push('\n');
        let _ = writeln!(
            out,
            "winner: {} at {} time units — {:.2}x vs baseline {} ({} time units)",
            self.winner_id, self.winner_time, self.speedup, self.baseline_id, self.baseline_time
        );
        let _ = writeln!(
            out,
            "cost model: mean |err| {:.1}% over {} measured candidates",
            self.mean_abs_error_pct,
            self.count(EntryStatus::Measured)
        );
        if !self.explain.is_empty() {
            out.push('\n');
            let _ = writeln!(out, "why (thread-cycle categories, baseline -> winner):");
            for r in &self.explain {
                let _ = writeln!(
                    out,
                    "  {:<16} {:>5.1}% -> {:>5.1}%   ({} -> {})",
                    r.category,
                    r.baseline_frac * 100.0,
                    r.tuned_frac * 100.0,
                    r.baseline,
                    r.tuned
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(id: &str, status: EntryStatus, measured: Option<u64>) -> TuneEntry {
        TuneEntry {
            id: id.into(),
            status,
            detail: String::new(),
            predicted_raw: Some(10.0),
            predicted: Some(100.0),
            global_inflation: Some(1.0),
            shared_inflation: Some(2.5),
            measured,
            error_pct: measured.map(|_| -3.25),
            valid: measured.map(|_| true),
        }
    }

    fn report() -> TuneReport {
        TuneReport {
            algo: "sum".into(),
            n: 64,
            seed: 42,
            budget: 8,
            space: "d=4".into(),
            candidates: 3,
            baseline_id: "base".into(),
            baseline_time: 200,
            winner_id: "win".into(),
            winner_time: 100,
            speedup: 2.0,
            mean_abs_error_pct: 3.25,
            entries: vec![
                entry("base", EntryStatus::Measured, Some(200)),
                entry("win", EntryStatus::Measured, Some(100)),
                entry("prn", EntryStatus::Pruned, None),
            ],
            explain: vec![ExplainRow {
                category: "conflict_shared",
                baseline: 500,
                tuned: 20,
                baseline_frac: 0.25,
                tuned_frac: 0.01,
            }],
        }
    }

    #[test]
    fn leaderboard_sorts_by_measured_time() {
        let r = report();
        assert_eq!(r.leaderboard(), vec![1, 0]);
        assert_eq!(r.count(EntryStatus::Pruned), 1);
        assert_eq!(r.count(EntryStatus::Infeasible), 0);
    }

    #[test]
    fn json_round_trips_and_hides_nothing_essential() {
        let r = report();
        let j = r.to_json();
        assert_eq!(j["winner"]["id"].as_str(), Some("win"));
        assert_eq!(j["winner"]["speedup"].as_f64(), Some(2.0));
        assert_eq!(j["baseline"]["time"].as_u64(), Some(200));
        assert_eq!(j["entries"].as_array().unwrap().len(), 3);
        assert_eq!(j["leaderboard"].as_array().unwrap().len(), 2);
        assert_eq!(
            j["explain"].as_array().unwrap()[0]["category"].as_str(),
            Some("conflict_shared")
        );
        // Parseable and stable.
        let text = j.to_json_pretty();
        let back = hmm_util::json::parse(&text).unwrap();
        assert_eq!(back["mean_abs_error_pct"].as_f64(), Some(3.25));
    }

    #[test]
    fn text_rendering_mentions_the_decisions() {
        let r = report();
        let text = r.render_text(10);
        assert!(text.contains("winner: win"));
        assert!(text.contains("2.00x"));
        assert!(text.contains("conflict_shared"));
        assert!(text.contains("pruned by the static cost model"));
        // Top-1 truncation note.
        let short = r.render_text(1);
        assert!(short.contains("... 1 more measured"));
    }

    #[test]
    fn status_names_are_stable() {
        assert_eq!(EntryStatus::Infeasible.name(), "infeasible");
        assert_eq!(EntryStatus::Pruned.name(), "pruned");
        assert_eq!(EntryStatus::Skipped.name(), "skipped");
        assert_eq!(EntryStatus::Measured.name(), "measured");
        assert_eq!(EntryStatus::Failed.name(), "failed");
    }
}
