//! `tune_sum`: the autotuner over the stock sum space with the grid
//! strategy, seeded with the benchmark seed, on one batch thread.

use hmm_analysis::{analyze, predict, AnalysisConfig};
use hmm_core::{LaunchShape, Machine, Parallelism, Word};
use hmm_tune::{tunable, tune, Candidate, EntryStatus, Tunable, TuneConfig, TuneReport};

use super::{second_seed, Metrics, OpResult, Scale, Tally, Workload, TUNE_THREADS};
use crate::spans::Tracer;

pub struct Tune {
    cfg: TuneConfig,
    alg: Box<dyn Tunable>,
    n: usize,
    /// The candidates in `TuneReport::entries` order.
    candidates: Vec<Candidate>,
    input: Vec<Word>,
    /// The golden report, with the seed cleared, as JSON.
    golden: String,
    last: Option<TuneReport>,
    sim: (u64, u64),
}

/// The report with its seed cleared: every other field must repeat
/// across seeds, because the tuned kernels are data-oblivious.
fn fingerprint(r: &TuneReport) -> String {
    let mut r = r.clone();
    r.seed = 0;
    r.to_json().to_json()
}

/// The tuner's correctness gate: the baseline and the winner were both
/// validated against the reference, and the winner is no slower.
fn check(r: &TuneReport) -> OpResult {
    for id in [&r.baseline_id, &r.winner_id] {
        let valid = r.entries.iter().find(|e| &e.id == id).and_then(|e| e.valid);
        if valid != Some(true) {
            return Err(format!("tune candidate {id} was not validated"));
        }
    }
    if r.winner_time > r.baseline_time {
        return Err(format!(
            "winner time {} exceeds baseline {}",
            r.winner_time, r.baseline_time
        ));
    }
    Ok(())
}

impl Tune {
    pub fn new(scale: Scale, seed: u64, tally: &mut Tally) -> Self {
        let mut cfg = TuneConfig::new("sum");
        cfg.seed = seed;
        cfg.threads = TUNE_THREADS;
        // A quarter of the stock sum length, to keep the op short.
        cfg.n = 1024;
        if scale == Scale::Tiny {
            cfg.n = 256;
            cfg.space.warps = vec![1, 2];
            cfg.space.pad = vec![0];
            cfg.space.transpose = vec![false];
        }
        let alg = tunable("sum").expect("sum is a tunable family");
        let n = if cfg.n == 0 { alg.default_n() } else { cfg.n };
        let mut candidates = cfg.space.enumerate().expect("stock space enumerates");
        let baseline = cfg.space.baseline();
        if !candidates.contains(&baseline) {
            candidates.push(baseline);
        }
        let input = alg.input(n, seed);
        let mut me = Self {
            cfg,
            alg,
            n,
            candidates,
            input,
            golden: String::new(),
            last: None,
            sim: (0, 0),
        };
        let warm = tune(&me.cfg).map_err(|e| e.to_string());
        let warm = warm.and_then(|r| {
            check(&r)?;
            me.sim = me.simulated_work(&r)?;
            Ok(r)
        });
        match warm {
            Ok(r) => {
                me.golden = fingerprint(&r);
                tally.record(Ok(()));
            }
            Err(e) => tally.record(Err(e)),
        }
        let mut other = me.cfg.clone();
        other.seed = second_seed(seed);
        tally.record(
            tune(&other)
                .map_err(|e| e.to_string())
                .and_then(|r| me.same_report(&r)),
        );
        me
    }

    /// Thread-instructions and time units of every launch the tuner
    /// simulates: each measured candidate, then the baseline and the
    /// winner again for the explain stage. Re-launching each measured
    /// candidate here also checks the report's times.
    fn simulated_work(&self, r: &TuneReport) -> Result<(u64, u64), String> {
        let (mut instr, mut units) = (0, 0);
        let mut winner_baseline = (0, 0);
        for (c, e) in self.candidates.iter().zip(&r.entries) {
            let Some(time) = e.measured else { continue };
            let tk = self.alg.build(c, self.n).map_err(|e| e.to_string())?;
            let mut m = Machine::hmm(c.d, c.w, c.l, tk.global_size, tk.shared_size)
                .with_parallelism(Parallelism::Sequential);
            m.load_global(tk.input_base, &self.input);
            let rep = m
                .launch(&tk.kernel, LaunchShape::Even(tk.threads))
                .map_err(|e| e.to_string())?;
            if c.id() != e.id || rep.time != time {
                return Err(format!(
                    "candidate {} re-ran in {} units, report says {time}",
                    e.id, rep.time
                ));
            }
            instr += rep.instructions;
            units += rep.time;
            if e.id == r.baseline_id || e.id == r.winner_id {
                winner_baseline.0 += rep.instructions;
                winner_baseline.1 += rep.time;
            }
        }
        if r.baseline_id == r.winner_id {
            winner_baseline = (2 * winner_baseline.0, 2 * winner_baseline.1);
        }
        Ok((instr + winner_baseline.0, units + winner_baseline.1))
    }

    fn same_report(&self, r: &TuneReport) -> OpResult {
        check(r)?;
        if fingerprint(r) == self.golden {
            Ok(())
        } else {
            Err("tune report differs from the golden run".into())
        }
    }
}

impl Workload for Tune {
    fn op(&mut self) -> OpResult {
        let r = tune(&self.cfg).map_err(|e| e.to_string())?;
        let out = self.same_report(&r);
        self.last = Some(r);
        out
    }

    /// The tune call, then its predict stage replayed per candidate
    /// through the public calls it makes: `Tunable::build`, `analyze`,
    /// `predict`, machine construction and staging.
    fn op_traced(&mut self, tr: &mut Tracer) -> OpResult {
        let n = self.n;
        let op = tr.enter("op");
        let tuned = tr.span("tune.tune", || tune(&self.cfg));
        let mut predicted = Vec::with_capacity(self.candidates.len());
        for c in &self.candidates {
            let Ok(tk) = tr.span("lang.build", || self.alg.build(c, n)) else {
                predicted.push(None);
                continue;
            };
            let analysis = tr.span("analysis.analyze", || {
                let cfg = AnalysisConfig::hmm(c.w, c.d).with_launch(tk.threads as i64, c.d);
                analyze(&tk.kernel.program, &cfg)
            });
            let est = tr.span("analysis.predict", || predict(&analysis, &tk.theta));
            predicted.push(Some(est.time_units));
            let mut m = tr.span("core.machine_new", || {
                Machine::hmm(c.d, c.w, c.l, tk.global_size, tk.shared_size)
                    .with_parallelism(Parallelism::Sequential)
            });
            tr.span("core.stage", || m.load_global(tk.input_base, &self.input));
        }
        tr.exit(op);
        let r = tuned.map_err(|e| e.to_string())?;
        let replayed: Vec<Option<f64>> = r.entries.iter().map(|e| e.predicted_raw).collect();
        let out = if replayed == predicted {
            self.same_report(&r)
        } else {
            Err("replayed predictions differ from the tune report".into())
        };
        self.last = Some(r);
        out
    }

    fn sim_work(&self) -> (u64, u64) {
        self.sim
    }

    fn workers(&self) -> (usize, usize) {
        (1, TUNE_THREADS)
    }

    fn layer_metrics(&mut self, out: &mut Metrics) {
        let Some(r) = &self.last else { return };
        let candidates = r.candidates as f64;
        out.insert("tune.candidates", candidates);
        out.insert("tune.pruned", r.count(EntryStatus::Pruned) as f64);
        out.insert(
            "tune.measured_frac",
            r.count(EntryStatus::Measured) as f64 / candidates,
        );
        out.insert("tune.winner_time_units", r.winner_time as f64);
        out.insert("analysis.predict_mae_pct", r.mean_abs_error_pct);
    }

    #[cfg(test)]
    fn corrupt_reference(&mut self) {
        self.golden.push('!');
    }
}
