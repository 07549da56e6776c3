//! Autotuner payoff benchmark: untuned default vs tuned winner for the
//! stock algorithm families, plus the host cost of a tuning run.
//!
//! For each family the tuner runs its golden configuration (fixed seed,
//! fixed space, one worker thread) and the baseline/winner simulated
//! time units are recorded — plus the cost
//! model's mean absolute predicted-vs-measured error, so drift in the
//! predictor shows up in the dump and not just in the golden tests.
//! Those simulated fields are deterministic and diffable.
//!
//! Next to them go two wall-clock minima: `tune_ms`, the whole `tune`
//! call, and `predict_ms`, a replay of its predict stage that makes the
//! calls `tune` makes for every candidate: `Tunable::build`,
//! `classify_accesses` and `predict`. Outside the timing, the full
//! `analyze` must reproduce every prediction in the report bit for bit.
//! The file is written to `BENCH_tune.json` at the repository root.
//!
//! Run with `cargo bench -p hmm-bench --bench tune`.

use hmm_analysis::{analyze, classify_accesses, predict, AnalysisConfig};
use hmm_tune::{tunable, tune, EntryStatus, TuneConfig, TuneSpace};
use hmm_util::bench::BenchGroup;
use hmm_util::Value;

fn main() {
    let mut g = BenchGroup::new("tune");
    let mut rows = Vec::new();
    for (algo, n, space) in [
        (
            "sum",
            512usize,
            "warps=1,2,4;pad=0,1;swizzle=0,1;unroll=1,2",
        ),
        ("conv", 256, "warps=1,2;pad=0,1;transpose=0,1;unroll=1,2"),
    ] {
        let mut cfg = TuneConfig::new(algo);
        cfg.n = n;
        cfg.seed = 42;
        cfg.budget = 64;
        cfg.threads = 1;
        cfg.space = TuneSpace::parse(space).expect("bench space parses");
        let (tune_ms, report) = g.bench(&format!("{algo}/tune"), || tune(&cfg));
        let report = report.expect("bench tune run");
        assert!(
            report.winner_time <= report.baseline_time,
            "{algo}: tuned winner slower than the untuned default"
        );

        let alg = tunable(algo).expect("tunable family");
        // The candidates in report order: the baseline is appended when
        // the space does not contain it.
        let mut candidates = cfg.space.enumerate().expect("bench space enumerates");
        let baseline = cfg.space.baseline();
        if !candidates.contains(&baseline) {
            candidates.push(baseline);
        }
        let acfg = |c: &hmm_tune::Candidate, threads: usize| {
            AnalysisConfig::hmm(c.w, c.d).with_launch(threads as i64, c.d)
        };
        let (predict_ms, predicted) = g.bench(&format!("{algo}/predict"), || {
            candidates
                .iter()
                .filter_map(|c| {
                    let tk = alg.build(c, n).ok()?;
                    let accesses = classify_accesses(&tk.kernel.program, &acfg(c, tk.threads));
                    Some(predict(&accesses, &tk.theta).time_units)
                })
                .count()
        });
        let feasible = report.entries.iter().filter(|e| e.predicted_raw.is_some());
        assert_eq!(
            predicted,
            feasible.count(),
            "{algo}: replay predicts what tune did"
        );
        for (c, e) in candidates.iter().zip(&report.entries) {
            let full = alg.build(c, n).ok().map(|tk| {
                let analysis = analyze(&tk.kernel.program, &acfg(c, tk.threads));
                predict(&analysis, &tk.theta).time_units
            });
            assert_eq!(
                full.map(f64::to_bits),
                e.predicted_raw.map(f64::to_bits),
                "{algo}: full analysis reproduces the prediction of {}",
                e.id
            );
        }

        println!(
            "  {algo}: baseline {} ({}) -> tuned {} ({}), {:.2}x, mean |err| {:.1}%",
            report.baseline_time,
            report.baseline_id,
            report.winner_time,
            report.winner_id,
            report.speedup,
            report.mean_abs_error_pct
        );
        rows.push(Value::object(vec![
            ("algo", algo.into()),
            ("n", n.into()),
            ("space", space.into()),
            ("budget", cfg.budget.into()),
            ("seed", cfg.seed.into()),
            ("baseline_id", report.baseline_id.as_str().into()),
            ("baseline_time", report.baseline_time.into()),
            ("winner_id", report.winner_id.as_str().into()),
            ("winner_time", report.winner_time.into()),
            ("speedup", report.speedup.into()),
            ("evaluated", report.count(EntryStatus::Measured).into()),
            ("mean_abs_error_pct", report.mean_abs_error_pct.into()),
            ("tune_ms", tune_ms.into()),
            ("predict_ms", predict_ms.into()),
        ]));
    }

    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let doc = Value::object(vec![
        ("bench", "tune".into()),
        ("host_cores", cores.into()),
        (
            "note",
            "simulated time units (deterministic): the autotuner's winner vs the \
             untuned default per algorithm family, with the static cost model's \
             mean absolute prediction error over all measured candidates. \
             tune_ms (the tune call, one worker thread) and predict_ms (its \
             predict stage replayed: build + classify_accesses + predict per \
             candidate) \
             are host wall-clock minima in milliseconds; only they and \
             host_cores vary between hosts."
                .into(),
        ),
        ("workloads", Value::Array(rows)),
    ]);
    hmm_bench::dump_bench("tune", &doc);
}
