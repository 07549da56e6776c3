//! Differential test: the event-driven clock must be **semantically
//! invisible**.
//!
//! Every paper kernel (sum, convolution, prefix sums, the Figure 1
//! patterns, transpose, matmul, bitonic sort) runs with fast-forwarding
//! on and off. The full [`SimReport`], the dynamic race log, the final
//! global memory, the (capacity-bounded) event trace and the
//! cycle-accounting [`LaunchProfile`]s must match exactly — the only
//! permitted difference is the `skipped_units` diagnostic, which must
//! be zero whenever fast-forwarding is off.

use hmm_algorithms::convolution::{self, run_conv_hmm};
use hmm_algorithms::matmul::{self, run_matmul_hmm};
use hmm_algorithms::patterns::{self, run_figure1, run_transpose, Figure1};
use hmm_algorithms::prefix::{self, run_prefix_hmm};
use hmm_algorithms::sort::{self, run_sort_hmm};
use hmm_algorithms::sum::{hmm_all, run_sum_hmm};
use hmm_core::Machine;
use hmm_machine::profile::LaunchProfile;
use hmm_machine::{DynamicRace, SimReport, TraceEvent, Word};
use hmm_workloads::random_words;

const W: usize = 4;
/// High latency so latency-bound stretches actually occur.
const L: usize = 32;
const DMM_COUNTS: [usize; 3] = [1, 2, 4];
/// Bound the trace so the drop-at-capacity path is exercised too.
const TRACE_CAP: usize = 512;

/// Everything observable about one simulation run, with the
/// clock-dependent diagnostic normalised out.
#[derive(Debug, PartialEq)]
struct Observed {
    report: SimReport,
    races: Vec<DynamicRace>,
    global: Vec<Word>,
    trace: Vec<TraceEvent>,
    profiles: Vec<LaunchProfile>,
}

/// Run `run` on `m` with tracing (bounded) and profiling enabled.
/// Returns the skipped-unit count alongside the normalised observation.
fn observe(mut m: Machine, run: impl FnOnce(&mut Machine) -> SimReport) -> (u64, Observed) {
    m.set_trace(true);
    m.set_trace_capacity(Some(TRACE_CAP));
    m.set_profiling(true);
    let mut report = run(&mut m);
    let skipped = report.skipped_units;
    report.skipped_units = 0;
    let obs = Observed {
        races: m.take_races(),
        global: m.global().to_vec(),
        trace: m.take_trace().expect("trace was enabled").events().to_vec(),
        profiles: m.take_profiles(),
        report,
    };
    (skipped, obs)
}

/// Run `launch` at every DMM count with the clock in both modes, and
/// require identical observations.
fn assert_clock_invisible(name: &str, launch: impl Fn(usize, bool) -> (u64, Observed)) {
    for &d in &DMM_COUNTS {
        let (_, oracle) = launch(d, true);
        let (stepped, walked) = launch(d, false);
        assert_eq!(
            stepped, 0,
            "{name}: skipped_units must be 0 with fast-forward off (d={d})"
        );
        assert_eq!(
            walked, oracle,
            "{name}: unit-stepped run diverged from fast-forwarded run (d={d})"
        );
    }
}

#[test]
fn sum_is_clock_invariant() {
    let input = random_words(512, 11, 1000);
    assert_clock_invisible("sum", |d, ff| {
        let p = 16 * d;
        let m = hmm_all::footprint(512, p, d)
            .hmm(d, W, L)
            .with_fast_forward(ff);
        observe(m, |m| run_sum_hmm(m, &input, p).unwrap().report)
    });
}

#[test]
fn convolution_is_clock_invariant() {
    let (n, k) = (256usize, 8usize);
    let a = random_words(k, 3, 50);
    let b = random_words(n + k - 1, 4, 50);
    assert_clock_invisible("conv", |d, ff| {
        let p = 8 * d;
        let m = convolution::footprint(n, k, Some(d), 0)
            .hmm(d, W, L)
            .with_fast_forward(ff);
        observe(m, |m| run_conv_hmm(m, &a, &b, p).unwrap().report)
    });
}

#[test]
fn prefix_is_clock_invariant() {
    let n = 256usize;
    let input = random_words(n, 17, 1000);
    assert_clock_invisible("prefix", |d, ff| {
        let p = 8 * d;
        let m = prefix::footprint(n, p, Some(d))
            .hmm(d, W, L)
            .with_fast_forward(ff);
        observe(m, |m| run_prefix_hmm(m, &input, p).unwrap().report)
    });
}

#[test]
fn figure1_patterns_are_clock_invariant() {
    let side = 16usize;
    for pattern in Figure1::ALL {
        assert_clock_invisible(pattern.name(), |d, ff| {
            let m = patterns::footprint(side, 1)
                .hmm(d, W, L)
                .with_fast_forward(ff);
            observe(m, |m| run_figure1(m, pattern, side, side).unwrap())
        });
    }
}

#[test]
fn transpose_is_clock_invariant() {
    let side = 8usize;
    let a = random_words(side * side, 7, 100);
    assert_clock_invisible("transpose", |d, ff| {
        let mut m = patterns::footprint(side, 2)
            .hmm(d, W, L)
            .with_fast_forward(ff);
        m.load_global(0, &a);
        observe(m, |m| run_transpose(m, side).unwrap())
    });
}

#[test]
fn matmul_is_clock_invariant() {
    let (side, tw, p) = (8usize, 4usize, 16usize);
    let a = random_words(side * side, 21, 10);
    let b = random_words(side * side, 22, 10);
    assert_clock_invisible("matmul", |d, ff| {
        let m = matmul::footprint(side, Some(d), tw)
            .hmm(d, W, L)
            .with_fast_forward(ff);
        observe(m, |m| {
            run_matmul_hmm(m, &a, &b, side, tw, p).unwrap().report
        })
    });
}

#[test]
fn sort_is_clock_invariant() {
    let n = 64usize;
    let input = random_words(n, 33, 1_000_000);
    assert_clock_invisible("sort", |d, ff| {
        let m = sort::footprint(n, Some(d))
            .hmm(d, W, L)
            .with_fast_forward(ff);
        observe(m, |m| run_sort_hmm(m, &input, 32).unwrap().report)
    });
}

/// A latency-bound kernel (one warp, global round trips at l = 64) must
/// actually skip: the clock jumps the idle stretch between a dispatch
/// and its completion, and the report says so.
#[test]
fn latency_bound_kernel_skips_and_reports_it() {
    use hmm_machine::{abi, isa::Reg, Asm, EngineConfig, Kernel, LaunchShape};

    let mut a = Asm::new();
    a.ld_global(Reg(16), abi::GID, 0);
    a.st_global(abi::GID, 64, Reg(16));
    a.bar_global();
    a.ld_global(Reg(17), abi::GID, 64);
    a.halt();
    let program = a.finish();

    let run = |ff: bool| {
        let mut cfg = EngineConfig::hmm(1, 4, 64, 256, 16);
        cfg.fast_forward = ff;
        let mut engine = Machine::new(cfg);
        let kernel = Kernel::new("latency-bound", program.clone());
        engine.launch(&kernel, LaunchShape::Even(4)).unwrap()
    };
    let fast = run(true);
    let slow = run(false);
    assert!(
        fast.skipped_units > 0,
        "a one-warp l=64 kernel must have skippable idle stretches"
    );
    assert_eq!(slow.skipped_units, 0);
    let mut fast_n = fast.clone();
    fast_n.skipped_units = 0;
    assert_eq!(fast_n, slow, "reports differ beyond skipped_units");
}
