//! `sort_profiled`: bitonic sort with profiling and a bounded trace on,
//! rendered the way `hmm-cli profile` renders it.

use std::time::Instant;

use hmm_algorithms::sort::{run_sort_hmm, sort_kernel_hmm};
use hmm_core::{Kernel, LaunchShape, Machine};
use hmm_machine::{LaunchProfile, SimReport, Trace, Word};
use hmm_prof::{profile_to_json, render_report, trace_to_perfetto};
use hmm_util::Value;
use hmm_workloads::random_words;

use super::{same_counts, second_seed, Metrics, OpResult, Scale, Tally, Workload, PARALLELISM};
use crate::spans::Tracer;
use crate::stats::median;

/// Trace events kept per launch; the rest are counted as dropped.
const TRACE_CAPACITY: usize = 1 << 13;
/// Rows in the text report, as `hmm-cli profile` prints by default.
const REPORT_TOP: usize = 10;
/// Observed and plain launch pairs timed for `machine.observe_overhead`.
const OVERHEAD_PAIRS: usize = 5;

#[derive(Debug, Clone, Copy)]
struct Shape {
    d: usize,
    w: usize,
    l: usize,
    n: usize,
    p: usize,
}

impl Shape {
    fn n2(self) -> usize {
        self.n.next_power_of_two().max(2 * self.d)
    }
}

/// Byte lengths of the three renderings; they are deterministic, so they
/// are checked against the golden run like the simulated counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Rendered {
    json: usize,
    perfetto: usize,
    text: usize,
}

pub struct Sort {
    s: Shape,
    input: Vec<Word>,
    expect: Vec<Word>,
    golden: SimReport,
    golden_rendered: Rendered,
    last_profile: Option<LaunchProfile>,
    last_trace: (usize, u64),
}

impl Sort {
    pub fn new(scale: Scale, seed: u64, tally: &mut Tally) -> Self {
        let s = match scale {
            Scale::Full => Shape {
                d: 8,
                w: 32,
                l: 64,
                n: 2048,
                p: 512,
            },
            Scale::Tiny => Shape {
                d: 2,
                w: 4,
                l: 8,
                n: 64,
                p: 16,
            },
        };
        let mut me = Self::with_inputs(s, seed);
        match me.run() {
            Ok((report, rendered)) => {
                me.golden = report;
                me.golden_rendered = rendered;
                tally.record(Ok(()));
            }
            Err(e) => tally.record(Err(e)),
        }
        let mut other = Self::with_inputs(s, second_seed(seed));
        other.golden = me.golden.clone();
        other.golden_rendered = me.golden_rendered;
        tally.record(other.op());
        me
    }

    fn with_inputs(s: Shape, seed: u64) -> Self {
        let input = random_words(s.n, seed, 1 << 20);
        let mut expect = input.clone();
        expect.sort_unstable();
        Self {
            s,
            input,
            expect,
            golden: SimReport::default(),
            golden_rendered: Rendered::default(),
            last_profile: None,
            last_trace: (0, 0),
        }
    }

    fn machine(&self, observed: bool) -> Machine {
        let Shape { d, w, l, .. } = self.s;
        let n2 = self.s.n2();
        let mut m = Machine::hmm(d, w, l, n2, n2 / d).with_parallelism(PARALLELISM);
        if observed {
            m.set_profiling(true);
            m.engine_mut().set_trace_capacity(Some(TRACE_CAPACITY));
            m.set_trace(true);
        }
        m
    }

    /// One op without the golden comparison.
    fn run(&mut self) -> Result<(SimReport, Rendered), String> {
        let mut m = self.machine(true);
        let run = run_sort_hmm(&mut m, &self.input, self.s.p).map_err(|e| e.to_string())?;
        let profiles = m.take_profiles();
        let trace = m.take_trace().unwrap_or_default();
        let rendered = Rendered {
            json: profile_doc(&run.report, &profiles).len(),
            perfetto: trace_to_perfetto(&trace, profiles.last()).to_json().len(),
            text: text_report(&profiles).len(),
        };
        self.check(&run.value, profiles, &trace)?;
        Ok((run.report, rendered))
    }

    fn check(
        &mut self,
        value: &[Word],
        mut profiles: Vec<LaunchProfile>,
        trace: &Trace,
    ) -> OpResult {
        self.last_trace = (trace.events().len(), trace.dropped_events());
        self.last_profile = profiles.pop();
        if value != self.expect {
            return Err("sorted output differs from sort_unstable".into());
        }
        match &self.last_profile {
            Some(p) if p.is_conserved() => Ok(()),
            Some(_) => Err("profile does not conserve thread-cycles".into()),
            None => Err("profiled launch returned no profile".into()),
        }
    }

    fn same_output(&self, report: &SimReport, rendered: Rendered) -> OpResult {
        same_counts(report, &self.golden)?;
        if rendered == self.golden_rendered {
            Ok(())
        } else {
            Err(format!(
                "rendered sizes {rendered:?} differ from {:?}",
                self.golden_rendered
            ))
        }
    }
}

/// The profile document `hmm-cli profile --profile-out` writes.
fn profile_doc(report: &SimReport, profiles: &[LaunchProfile]) -> String {
    Value::object(vec![
        ("kernel", "sort-hmm".into()),
        ("report", report.to_json()),
        (
            "launches",
            Value::Array(profiles.iter().map(profile_to_json).collect()),
        ),
    ])
    .to_json_pretty()
}

fn text_report(profiles: &[LaunchProfile]) -> String {
    profiles
        .iter()
        .map(|p| render_report(p, REPORT_TOP))
        .collect()
}

impl Workload for Sort {
    fn op(&mut self) -> OpResult {
        let (report, rendered) = self.run()?;
        self.same_output(&report, rendered)
    }

    fn op_traced(&mut self, tr: &mut Tracer) -> OpResult {
        let Shape { d, n, p, .. } = self.s;
        let n2 = self.s.n2();
        let op = tr.enter("op");
        let mut m = tr.span("core.machine_new", || self.machine(true));
        tr.span("core.stage", || {
            m.clear_global();
            m.load_global(0, &self.input);
            m.global_mut()[n..n2].fill(Word::MAX);
        });
        let kernel = tr.span("algorithms.kernel_build", || {
            Kernel::new("sort-bitonic-hmm", sort_kernel_hmm(n2, d))
        });
        let launched = tr.span("machine.launch", || m.launch(&kernel, LaunchShape::Even(p)));
        let (value, profiles, trace) = tr.span("core.readback", || {
            let value = m.global()[..n].to_vec();
            (value, m.take_profiles(), m.take_trace().unwrap_or_default())
        });
        let json = tr.span("prof.json", || {
            launched
                .as_ref()
                .map_or(0, |r| profile_doc(r, &profiles).len())
        });
        let perfetto = tr.span("prof.perfetto", || {
            trace_to_perfetto(&trace, profiles.last()).to_json().len()
        });
        let text = tr.span("prof.text", || text_report(&profiles).len());
        tr.exit(op);
        let report = launched.map_err(|e| e.to_string())?;
        self.check(&value, profiles, &trace)?;
        self.same_output(
            &report,
            Rendered {
                json,
                perfetto,
                text,
            },
        )
    }

    fn sim_work(&self) -> (u64, u64) {
        (self.golden.instructions, self.golden.time)
    }

    fn workers(&self) -> (usize, usize) {
        (PARALLELISM.workers(self.s.d), 0)
    }

    fn report(&self) -> Option<&SimReport> {
        Some(&self.golden)
    }

    fn profile(&mut self) -> Option<LaunchProfile> {
        self.last_profile.clone()
    }

    fn layer_metrics(&mut self, out: &mut Metrics) {
        out.insert("machine.trace_events", self.last_trace.0 as f64);
        out.insert("machine.trace_dropped", self.last_trace.1 as f64);
        out.insert("prof.perfetto_bytes", self.golden_rendered.perfetto as f64);
        let n2 = self.s.n2();
        let kernel = Kernel::new("sort-bitonic-hmm", sort_kernel_hmm(n2, self.s.d));
        let launch_ms = |observed: bool| {
            let mut m = self.machine(observed);
            m.load_global(0, &self.input);
            m.global_mut()[self.s.n..n2].fill(Word::MAX);
            let t = Instant::now();
            let _ = m.launch(&kernel, LaunchShape::Even(self.s.p));
            t.elapsed().as_secs_f64() * 1e3
        };
        // Alternate the two kinds so that drift in host speed hits both.
        let (mut observed, mut plain) = (Vec::new(), Vec::new());
        for _ in 0..OVERHEAD_PAIRS {
            observed.push(launch_ms(true));
            plain.push(launch_ms(false));
        }
        out.insert(
            "machine.observe_overhead",
            median(&observed) / median(&plain),
        );
    }

    #[cfg(test)]
    fn corrupt_reference(&mut self) {
        self.expect[0] = self.expect[0].wrapping_add(1);
    }
}
