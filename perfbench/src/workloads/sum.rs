//! `sum_latency`: the Theorem 7 sum on a latency-bound shape, where the
//! event-driven clock skips almost every time unit.

use hmm_algorithms::reduce::ReduceOp;
use hmm_algorithms::reference;
use hmm_algorithms::sum::hmm_all::reduce_kernel;
use hmm_algorithms::sum::run_sum_hmm;
use hmm_core::{Kernel, LaunchShape, Machine};
use hmm_machine::{LaunchProfile, SimReport, Word};
use hmm_theory::{table1, table2, Params};
use hmm_workloads::random_words;

use super::{
    above_bound, same_counts, second_seed, Metrics, OpResult, Scale, Tally, Workload, PARALLELISM,
};
use crate::spans::Tracer;

fn params(scale: Scale) -> Params {
    match scale {
        Scale::Full => Params {
            n: 16384,
            k: 1,
            p: 64,
            w: 32,
            l: 8192,
            d: 4,
        },
        Scale::Tiny => Params {
            n: 256,
            k: 1,
            p: 16,
            w: 4,
            l: 16,
            d: 2,
        },
    }
}

pub struct Sum {
    pr: Params,
    input: Vec<Word>,
    expect: Word,
    golden: SimReport,
}

impl Sum {
    pub fn new(scale: Scale, seed: u64, tally: &mut Tally) -> Self {
        let pr = params(scale);
        let mut me = Self::with_inputs(pr, seed);
        let warm = me.run();
        tally.record(warm.as_ref().map(|_| ()).map_err(Clone::clone));
        if let Ok(r) = warm {
            me.golden = r;
        }
        let mut other = Self::with_inputs(pr, second_seed(seed));
        other.golden = me.golden.clone();
        tally.record(other.op());
        me
    }

    fn with_inputs(pr: Params, seed: u64) -> Self {
        let input = random_words(pr.n, seed, 1000);
        let expect = reference::sum(&input).value;
        Self {
            pr,
            input,
            expect,
            golden: SimReport::default(),
        }
    }

    fn machine(&self) -> Machine {
        let Params { n, p, w, l, d, .. } = self.pr;
        let shared = (p / d).next_power_of_two().max(8);
        Machine::hmm(d, w, l, n + 2 * d.next_power_of_two() + 8, shared)
            .with_parallelism(PARALLELISM)
    }

    /// One op without the golden comparison: launch, output, Table II.
    fn run(&self) -> Result<SimReport, String> {
        let mut m = self.machine();
        let run = run_sum_hmm(&mut m, &self.input, self.pr.p).map_err(|e| e.to_string())?;
        self.check(run.value, &run.report)?;
        Ok(run.report)
    }

    fn check(&self, value: Word, r: &SimReport) -> OpResult {
        if value != self.expect {
            return Err(format!(
                "sum {value} differs from the reference {}",
                self.expect
            ));
        }
        above_bound(r, table2::sum_hmm(self.pr).max_term())
    }
}

impl Workload for Sum {
    fn op(&mut self) -> OpResult {
        same_counts(&self.run()?, &self.golden)
    }

    fn op_traced(&mut self, tr: &mut Tracer) -> OpResult {
        let Params { n, p, d, .. } = self.pr;
        let aux = n;
        let op = tr.enter("op");
        let mut m = tr.span("core.machine_new", || self.machine());
        tr.span("core.stage", || {
            m.clear_global();
            m.load_global(0, &self.input);
            m.global_mut()[aux..aux + d.next_power_of_two()].fill(ReduceOp::Sum.identity());
        });
        let kernel = tr.span("algorithms.kernel_build", || {
            Kernel::new(
                "reduce-theorem7",
                reduce_kernel(n, p, d, aux, ReduceOp::Sum),
            )
        });
        let launched = tr.span("machine.launch", || m.launch(&kernel, LaunchShape::Even(p)));
        let value = tr.span("core.readback", || m.global()[aux]);
        tr.exit(op);
        let report = launched.map_err(|e| e.to_string())?;
        self.check(value, &report)?;
        same_counts(&report, &self.golden)
    }

    fn sim_work(&self) -> (u64, u64) {
        (self.golden.instructions, self.golden.time)
    }

    fn workers(&self) -> (usize, usize) {
        (PARALLELISM.workers(self.pr.d), 0)
    }

    fn report(&self) -> Option<&SimReport> {
        Some(&self.golden)
    }

    fn profile(&mut self) -> Option<LaunchProfile> {
        let mut m = self.machine();
        m.set_profiling(true);
        run_sum_hmm(&mut m, &self.input, self.pr.p).ok()?;
        m.take_profiles().pop()
    }

    fn layer_metrics(&mut self, out: &mut Metrics) {
        let t = self.golden.time as f64;
        out.insert("theory.table1_ratio", t / table1::sum_hmm(self.pr));
        out.insert(
            "theory.table2_margin",
            t / table2::sum_hmm(self.pr).max_term(),
        );
    }

    #[cfg(test)]
    fn corrupt_reference(&mut self) {
        self.expect += 1;
    }
}
