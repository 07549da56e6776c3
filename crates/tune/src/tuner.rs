//! The tuning pipeline: **predict → prune → measure → explain**.
//!
//! 1. *Predict*: every enumerated candidate is built once — its layout
//!    transforms are applied as its kernel is compiled, with no copy of
//!    the kernel's AST — and scored by the static cost model
//!    ([`hmm_analysis::predict`]) over its access reports
//!    ([`hmm_analysis::classify_accesses`]: the CFG, the abstract
//!    interpretation and the conflict pass, without the lint passes).
//!    No simulation, so a candidate costs well under a millisecond.
//!    The built kernel stays with its prediction.
//! 2. *Prune*: candidates predicted worse than `PRUNE_FACTOR` (8) × the
//!    best prediction are statically dominated and never simulated (the
//!    baseline is always kept as the calibration anchor); their kernels
//!    are dropped.
//! 3. *Measure*: the baseline is measured first, outside the budget and
//!    with the cycle-accounting profiler on, so the winner can never be
//!    slower than the untuned default. Then one
//!    wave — the first `budget` survivors other than the baseline, in
//!    enumeration order — is simulated exactly, in parallel via the
//!    keyed batch runner, one launch per worker, each launching the
//!    kernel stage 1 built, and validated against the host reference.
//!    Survivors past the budget are reported `skipped`. One-point
//!    calibration against the baseline turns raw scores into predicted
//!    time units, and every measured candidate gets a
//!    predicted-vs-measured error — the model audits itself.
//! 4. *Explain*: the winner is re-run with the profiler on (unless it is
//!    the baseline, whose profile stage 3 kept), and the report shows
//!    where the saved thread-cycles came from (bank conflicts, latency,
//!    barriers).
//!
//! Determinism: which candidates are measured depends only on the space
//! and the budget, and wave results are order-stable
//! ([`BatchRunner::run_keyed`]) — so reports are bit-identical across
//! runs and worker thread counts.

use std::collections::{BTreeMap, BTreeSet};

use hmm_analysis::{classify_accesses, predict, AnalysisConfig};
use hmm_core::BatchRunner;
use hmm_machine::profile::{LaunchProfile, StallCategory};
use hmm_machine::{LaunchShape, Machine, Word};

use crate::kernels::{tunable, tunable_names, Tunable, TunedKernel};
use crate::report::{EntryStatus, ExplainRow, TuneEntry, TuneReport};
use crate::space::{Candidate, SpaceError, TuneSpace};

/// Everything a tuning run needs.
#[derive(Debug, Clone)]
pub struct TuneConfig {
    /// Algorithm family (`sum`, `conv`).
    pub algo: String,
    /// Problem size; at least 1.
    pub n: usize,
    /// Seed for the input data.
    pub seed: u64,
    /// Maximum candidates to simulate (baseline not counted).
    pub budget: usize,
    /// Batch worker threads; `0` = automatic (`HMM_THREADS` / cores).
    pub threads: usize,
    /// The declared space.
    pub space: TuneSpace,
}

/// Static-prune threshold: candidates predicted worse than this multiple
/// of the best prediction are never simulated.
pub(crate) const PRUNE_FACTOR: f64 = 8.0;

impl TuneConfig {
    /// Defaults for `algo`: the family's default `n` (0 for an unknown
    /// family, which [`tune`] rejects by name), seed 42, budget 64,
    /// automatic threads, the stock space.
    #[must_use]
    pub fn new(algo: &str) -> Self {
        Self {
            algo: algo.into(),
            n: tunable(algo).map_or(0, |alg| alg.default_n()),
            seed: 42,
            budget: 64,
            threads: 0,
            space: TuneSpace::default(),
        }
    }
}

/// Why a tuning run could not produce a report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TuneError {
    /// No tunable family with that name.
    UnknownAlgo(String),
    /// The problem size `n` is 0.
    EmptyProblem,
    /// The space failed to enumerate.
    Space(SpaceError),
    /// The baseline candidate could not be built, simulated or
    /// validated — there is no anchor to tune against.
    Baseline(String),
    /// Nothing was measured successfully and validated.
    NoValidCandidate,
}

impl std::fmt::Display for TuneError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TuneError::UnknownAlgo(a) => {
                write!(
                    f,
                    "unknown algorithm '{a}' (tunable: {})",
                    tunable_names().join(", ")
                )
            }
            TuneError::EmptyProblem => write!(f, "the problem size n must be at least 1"),
            TuneError::Space(e) => write!(f, "bad space: {e}"),
            TuneError::Baseline(m) => write!(f, "baseline failed: {m}"),
            TuneError::NoValidCandidate => {
                write!(f, "no candidate was measured successfully")
            }
        }
    }
}

impl std::error::Error for TuneError {}

impl From<SpaceError> for TuneError {
    fn from(e: SpaceError) -> Self {
        TuneError::Space(e)
    }
}

/// Stage-1 output for one candidate.
#[derive(Debug, Clone)]
struct Prediction {
    raw: f64,
    global_inflation: f64,
    shared_inflation: f64,
    /// The built kernel, which stages 3–4 launch; `None` once stage 2
    /// prunes the candidate.
    kernel: Option<TunedKernel>,
}

/// Stage-3 output for one candidate.
#[derive(Debug, Clone)]
struct Measurement {
    time: u64,
    valid: bool,
    error: Option<String>,
    /// The launch profile of a profiled measurement: the baseline's in
    /// stage 3, the winner's in stage 4.
    profile: Option<LaunchProfile>,
}

fn predict_one(alg: &dyn Tunable, c: &Candidate, n: usize) -> Result<Prediction, String> {
    let tk = alg.build(c, n).map_err(|e| e.to_string())?;
    let cfg = AnalysisConfig::hmm(c.w, c.d).with_launch(tk.threads as i64, c.d);
    let est = predict(&classify_accesses(&tk.kernel.program, &cfg), &tk.theta);
    Ok(Prediction {
        raw: est.time_units,
        global_inflation: est.global_inflation,
        shared_inflation: est.shared_inflation,
        kernel: Some(tk),
    })
}

fn evaluate(
    tk: &TunedKernel,
    c: &Candidate,
    input: &[Word],
    expect: &[Word],
    profiled: bool,
) -> Measurement {
    let mut m = Machine::hmm(c.d, c.w, c.l, tk.global_size, tk.shared_size);
    if profiled {
        m.set_profiling(true);
    }
    m.load_global(tk.input_base, input);
    match m.launch(&tk.kernel, LaunchShape::Even(tk.threads)) {
        Ok(report) => {
            let out = &m.global()[tk.out_base..tk.out_base + tk.out_len];
            Measurement {
                time: report.time,
                valid: out == expect,
                error: None,
                profile: if profiled {
                    m.take_profiles().pop()
                } else {
                    None
                },
            }
        }
        Err(e) => Measurement {
            time: 0,
            valid: false,
            error: Some(e.to_string()),
            profile: None,
        },
    }
}

fn explain_rows(baseline: &LaunchProfile, winner: &LaunchProfile) -> Vec<ExplainRow> {
    StallCategory::ALL
        .iter()
        .map(|&cat| ExplainRow {
            category: cat.name(),
            baseline: baseline.total.get(cat),
            tuned: winner.total.get(cat),
            baseline_frac: baseline.fraction(cat),
            tuned_frac: winner.fraction(cat),
        })
        .collect()
}

/// Run the full pipeline for `cfg`.
///
/// # Errors
/// See [`TuneError`].
pub fn tune(cfg: &TuneConfig) -> Result<TuneReport, TuneError> {
    let alg = tunable(&cfg.algo).ok_or_else(|| TuneError::UnknownAlgo(cfg.algo.clone()))?;
    let alg = alg.as_ref();
    let n = cfg.n;
    if n == 0 {
        return Err(TuneError::EmptyProblem);
    }

    // The candidate set: the enumerated space, plus the baseline
    // appended when the declared space does not contain it (it is the
    // comparison anchor regardless).
    let mut candidates = cfg.space.enumerate()?;
    let baseline = cfg.space.baseline();
    let baseline_idx = candidates
        .iter()
        .position(|c| *c == baseline)
        .unwrap_or_else(|| {
            candidates.push(baseline);
            candidates.len() - 1
        });

    let runner = if cfg.threads == 0 {
        BatchRunner::new()
    } else {
        BatchRunner::with_threads(cfg.threads)
    };

    // Stage 1: build and predict every candidate statically.
    let mut predictions: Vec<Result<Prediction, String>> = runner
        .run_keyed((0..candidates.len()).collect(), |&i| {
            predict_one(alg, &candidates[i], n)
        })
        .into_iter()
        .map(|k| k.result)
        .collect();
    if let Err(e) = &predictions[baseline_idx] {
        return Err(TuneError::Baseline(format!("does not build: {e}")));
    }

    // Stage 2: prune statically dominated candidates and drop their
    // kernels.
    let raw = |p: &Result<Prediction, String>| p.as_ref().ok().map(|p| p.raw);
    let best_raw = predictions
        .iter()
        .filter_map(raw)
        .min_by(f64::total_cmp)
        .expect("baseline predicted");
    let baseline_raw = raw(&predictions[baseline_idx]).expect("baseline predicted");
    let mut live = BTreeSet::new();
    for (i, p) in predictions.iter_mut().enumerate() {
        if let Ok(p) = p {
            if p.raw <= PRUNE_FACTOR * best_raw || i == baseline_idx {
                live.insert(i);
            } else {
                p.kernel = None;
            }
        }
    }

    // Stage 3: measure. Baseline first, outside the budget.
    let input = alg.input(n, cfg.seed);
    let expect = alg.reference(&input);
    // Only live candidates are measured, and they all built in stage 1.
    let kernel = |i: usize| {
        predictions[i]
            .as_ref()
            .ok()
            .and_then(|p| p.kernel.as_ref())
            .expect("a live candidate keeps its kernel")
    };
    let measure = |wave: Vec<usize>, profiled: bool| {
        runner
            .run_keyed(wave, |&i| {
                evaluate(kernel(i), &candidates[i], &input, &expect, profiled)
            })
            .into_iter()
            .map(|k| (k.config, k.result))
    };

    let mut results: BTreeMap<usize, Measurement> = measure(vec![baseline_idx], true).collect();
    let b = &results[&baseline_idx];
    if let Some(e) = &b.error {
        return Err(TuneError::Baseline(format!("simulation error: {e}")));
    }
    if !b.valid {
        return Err(TuneError::Baseline(
            "output does not match the sequential reference".into(),
        ));
    }
    let baseline_time = b.time;

    // The one search wave: the live candidates in enumeration order,
    // capped by the budget.
    let wave: Vec<usize> = live
        .iter()
        .copied()
        .filter(|&i| i != baseline_idx)
        .take(cfg.budget)
        .collect();
    results.extend(measure(wave, false));

    // Calibrate: one point, the baseline.
    let scale = baseline_time as f64 / baseline_raw;

    // The winner: fastest valid measurement (ties to the earlier
    // candidate). The baseline is always in the pool, so the winner is
    // never slower than the untuned default.
    let (&winner_idx, _) = results
        .iter()
        .filter(|(_, m)| m.error.is_none() && m.valid)
        .min_by_key(|(i, m)| (m.time, **i))
        .ok_or(TuneError::NoValidCandidate)?;
    let winner_time = results[&winner_idx].time;

    // Stage 4: explain the winner against the baseline's stage-3
    // profile.
    let baseline_profile = results[&baseline_idx].profile.as_ref();
    let rerun;
    let winner_profile = if winner_idx == baseline_idx {
        baseline_profile
    } else {
        rerun = measure(vec![winner_idx], true)
            .next()
            .and_then(|(_, m)| m.profile);
        rerun.as_ref()
    };
    let explain = match (baseline_profile, winner_profile) {
        (Some(b), Some(w)) => explain_rows(b, w),
        _ => Vec::new(),
    };

    // Assemble the per-candidate audit trail.
    let entries: Vec<TuneEntry> = candidates
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let pred = predictions[i].as_ref();
            let predicted = pred.ok().map(|p| p.raw * scale);
            let measurement = results.get(&i);
            let measured = measurement.and_then(|m| m.error.is_none().then_some(m.time));
            let (status, detail) = match (&predictions[i], measurement) {
                (Err(e), _) => (EntryStatus::Infeasible, e.clone()),
                (Ok(_), Some(m)) => match &m.error {
                    Some(e) => (EntryStatus::Failed, e.clone()),
                    None => (EntryStatus::Measured, String::new()),
                },
                (Ok(_), None) if !live.contains(&i) => (EntryStatus::Pruned, String::new()),
                (Ok(_), None) => (EntryStatus::Skipped, String::new()),
            };
            TuneEntry {
                id: c.id(),
                status,
                detail,
                predicted_raw: pred.ok().map(|p| p.raw),
                predicted,
                global_inflation: pred.ok().map(|p| p.global_inflation),
                shared_inflation: pred.ok().map(|p| p.shared_inflation),
                measured,
                error_pct: predicted.zip(measured).map(|(p, t)| {
                    if t == 0 {
                        0.0
                    } else {
                        (p - t as f64) / t as f64 * 100.0
                    }
                }),
                valid: measurement.and_then(|m| m.error.is_none().then_some(m.valid)),
            }
        })
        .collect();

    let errors: Vec<f64> = entries.iter().filter_map(|e| e.error_pct).collect();
    let mean_abs_error_pct = if errors.is_empty() {
        0.0
    } else {
        errors.iter().map(|e| e.abs()).sum::<f64>() / errors.len() as f64
    };

    Ok(TuneReport {
        algo: alg.name().into(),
        n,
        seed: cfg.seed,
        budget: cfg.budget,
        space: cfg.space.render(),
        candidates: candidates.len(),
        baseline_id: baseline.id(),
        baseline_time,
        winner_id: candidates[winner_idx].id(),
        winner_time,
        speedup: baseline_time as f64 / winner_time as f64,
        mean_abs_error_pct,
        entries,
        explain,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg(algo: &str) -> TuneConfig {
        let mut cfg = TuneConfig::new(algo);
        cfg.n = 256;
        cfg.budget = 16;
        cfg.space = TuneSpace::parse("warps=1,2;pad=0,1;unroll=1,2").unwrap();
        cfg
    }

    #[test]
    fn sum_run_is_deterministic_across_thread_counts() {
        let mut cfg = small_cfg("sum");
        cfg.threads = 1;
        let a = tune(&cfg).unwrap();
        cfg.threads = 4;
        let b = tune(&cfg).unwrap();
        assert_eq!(
            a.to_json().to_json_pretty(),
            b.to_json().to_json_pretty(),
            "reports must be bit-identical at any worker count"
        );
    }

    #[test]
    fn winner_is_never_slower_than_baseline_and_audited() {
        let r = tune(&small_cfg("sum")).unwrap();
        assert!(r.winner_time <= r.baseline_time);
        assert!(r.speedup >= 1.0);
        // Every measured entry carries the audit column.
        for e in &r.entries {
            if e.measured.is_some() {
                assert!(e.error_pct.is_some(), "{} missing error", e.id);
                assert!(e.predicted.is_some(), "{} missing prediction", e.id);
                assert_eq!(e.valid, Some(true), "{} invalid", e.id);
            }
        }
        // The explain stage produced the 7-category diff.
        assert_eq!(r.explain.len(), 7);
        let tc: u64 = r.explain.iter().map(|row| row.tuned).sum();
        assert!(tc > 0);
    }

    #[test]
    fn conv_run_respects_the_budget() {
        let mut cfg = small_cfg("conv");
        cfg.n = 96;
        cfg.budget = 6;
        let r = tune(&cfg).unwrap();
        assert!(r.winner_time <= r.baseline_time);
        let measured = r.count(EntryStatus::Measured);
        assert!(measured <= 6 + 1, "budget respected plus baseline");
    }

    #[test]
    fn budget_measures_the_first_live_candidates_in_enumeration_order() {
        let mut cfg = small_cfg("sum");
        cfg.budget = 3;
        cfg.threads = 1;
        let r = tune(&cfg).unwrap();
        let live: Vec<&TuneEntry> = r
            .entries
            .iter()
            .filter(|e| e.id != r.baseline_id)
            .filter(|e| !matches!(e.status, EntryStatus::Infeasible | EntryStatus::Pruned))
            .collect();
        assert!(live.len() > cfg.budget, "the space must outgrow the budget");
        for (k, e) in live.iter().enumerate() {
            let want = if k < cfg.budget {
                EntryStatus::Measured
            } else {
                EntryStatus::Skipped
            };
            assert_eq!(e.status, want, "live candidate {k} ({})", e.id);
        }
        assert_eq!(
            r.count(EntryStatus::Measured),
            cfg.budget + 1,
            "the budget plus the baseline"
        );
        cfg.threads = 4;
        assert_eq!(
            r.to_json().to_json_pretty(),
            tune(&cfg).unwrap().to_json().to_json_pretty(),
            "a truncated search must be bit-identical at any worker count"
        );
    }

    #[test]
    fn zero_n_is_rejected_and_new_fills_the_family_default() {
        for name in tunable_names() {
            let default_n = tunable(name).unwrap().default_n();
            assert_eq!(TuneConfig::new(name).n, default_n, "{name}");
        }
        let mut cfg = small_cfg("conv");
        cfg.n = 0;
        assert_eq!(tune(&cfg).unwrap_err(), TuneError::EmptyProblem);
    }

    #[test]
    fn unknown_algo_and_bad_space_error_cleanly() {
        assert!(matches!(
            tune(&TuneConfig::new("sort")),
            Err(TuneError::UnknownAlgo(_))
        ));
        let mut cfg = TuneConfig::new("sum");
        cfg.space.w = vec![6]; // pd = 6 not a power of two: baseline infeasible
        assert!(matches!(tune(&cfg), Err(TuneError::Baseline(_))));
        assert!(TuneError::NoValidCandidate
            .to_string()
            .contains("no candidate"));
    }

    #[test]
    fn baseline_outside_declared_space_is_appended() {
        let mut cfg = small_cfg("sum");
        // Space without the all-off point: pad always on.
        cfg.space = TuneSpace::parse("pad=1,2;warps=2").unwrap();
        let r = tune(&cfg).unwrap();
        // Enumerated 2 candidates + appended baseline.
        assert_eq!(r.candidates, 3);
        assert!(r.entries.iter().any(|e| e.id == r.baseline_id));
    }
}
