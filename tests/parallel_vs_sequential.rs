//! Differential test: a launch fanned out over a [`BatchRunner`] pool
//! must be **bit-identical** to the same launch on the calling thread.
//!
//! A launch always runs on one thread; the only parallelism left is the
//! batch level, which runs many independent launches at once. Every
//! paper kernel (sum, convolution, the Figure 1 patterns, transpose,
//! matmul, bitonic sort) runs on the calling thread and, twice per
//! machine, on batch pools of several sizes, across machines with
//! d ∈ {1, 2, 4, 16} DMMs. The full [`SimReport`] (cycle counts,
//! per-memory conflict statistics, per-DMM breakdowns, race counters),
//! the dynamic race log, and the final global memory must match exactly:
//! concurrent launches share no state.

use hmm_algorithms::convolution::{self, run_conv_hmm};
use hmm_algorithms::matmul::{self, run_matmul_hmm};
use hmm_algorithms::patterns::{self, run_figure1, run_transpose, Figure1};
use hmm_algorithms::sort::{self, run_sort_hmm};
use hmm_algorithms::sum::{hmm_all, run_sum_hmm};
use hmm_core::{BatchRunner, Machine};
use hmm_machine::{DynamicRace, SimReport, Word};
use hmm_workloads::random_words;

const W: usize = 4;
const L: usize = 16;
const DMM_COUNTS: [usize; 4] = [1, 2, 4, 16];
const POOL_SIZES: [usize; 2] = [2, 4];

/// Everything observable about one simulation run.
#[derive(Debug, PartialEq)]
struct Observed {
    report: SimReport,
    races: Vec<DynamicRace>,
    global: Vec<Word>,
}

fn observe(mut m: Machine, run: impl FnOnce(&mut Machine) -> SimReport) -> Observed {
    let report = run(&mut m);
    Observed {
        races: m.take_races(),
        global: m.global().to_vec(),
        report,
    }
}

/// Run `launch` at every DMM count on the calling thread, then twice per
/// DMM count on batch pools of each size, and require identical
/// observations throughout.
fn assert_engines_agree<T, F>(name: &str, launch: F)
where
    T: PartialEq + std::fmt::Debug + Send,
    F: Fn(usize) -> T + Sync,
{
    let oracles: Vec<T> = DMM_COUNTS.iter().map(|&d| launch(d)).collect();
    let jobs: Vec<usize> = DMM_COUNTS.iter().flat_map(|&d| [d, d]).collect();
    for &t in &POOL_SIZES {
        let got = BatchRunner::with_threads(t).run(jobs.clone(), &launch);
        for (i, (d, obs)) in jobs.iter().zip(&got).enumerate() {
            assert_eq!(
                obs,
                &oracles[i / 2],
                "{name}: launch on a batch worker diverged (d={d}, pool={t})"
            );
        }
    }
}

#[test]
fn sum_is_engine_invariant() {
    let input = random_words(512, 11, 1000);
    assert_engines_agree("sum", |d| {
        let p = 16 * d;
        let m = hmm_all::footprint(512, p, d).hmm(d, W, L);
        observe(m, |m| run_sum_hmm(m, &input, p).unwrap().report)
    });
}

#[test]
fn convolution_is_engine_invariant() {
    let (n, k) = (256usize, 8usize);
    let a = random_words(k, 3, 50);
    let b = random_words(n + k - 1, 4, 50);
    assert_engines_agree("conv", |d| {
        let p = 8 * d;
        let m = convolution::footprint(n, k, Some(d), 0).hmm(d, W, L);
        observe(m, |m| run_conv_hmm(m, &a, &b, p).unwrap().report)
    });
}

#[test]
fn figure1_patterns_are_engine_invariant() {
    let side = 16usize;
    for pattern in Figure1::ALL {
        assert_engines_agree(pattern.name(), |d| {
            let m = patterns::footprint(side, 1).hmm(d, W, L);
            // p = m keeps every pattern in bounds (column reads A[i*m]).
            observe(m, |m| run_figure1(m, pattern, side, side).unwrap())
        });
    }
}

#[test]
fn transpose_is_engine_invariant() {
    let side = 8usize;
    let a = random_words(side * side, 7, 100);
    assert_engines_agree("transpose", |d| {
        let mut m = patterns::footprint(side, 2).hmm(d, W, L);
        m.load_global(0, &a);
        observe(m, |m| run_transpose(m, side).unwrap())
    });
}

#[test]
fn matmul_is_engine_invariant() {
    let (side, tw, p) = (8usize, 4usize, 16usize);
    let a = random_words(side * side, 21, 10);
    let b = random_words(side * side, 22, 10);
    assert_engines_agree("matmul", |d| {
        let m = matmul::footprint(side, Some(d), tw).hmm(d, W, L);
        observe(m, |m| {
            run_matmul_hmm(m, &a, &b, side, tw, p).unwrap().report
        })
    });
}

#[test]
fn sort_is_engine_invariant() {
    let n = 64usize;
    let input = random_words(n, 33, 1_000_000);
    assert_engines_agree("sort", |d| {
        let m = sort::footprint(n, Some(d)).hmm(d, W, L);
        observe(m, |m| run_sort_hmm(m, &input, 32).unwrap().report)
    });
}

/// Traces must come out in the same event order too: dispatches,
/// completions and barrier releases in identical sequence.
#[test]
fn traces_are_identical_across_engines() {
    use hmm_machine::{abi, Asm, EngineConfig, Kernel, LaunchShape};

    // Shared staging, a DMM barrier, a global round-trip, a global
    // barrier — every trace-event kind fires.
    let mut a = Asm::new();
    a.st_shared(abi::LTID, 0, abi::GID);
    a.bar_dmm();
    a.ld_shared(hmm_machine::isa::Reg(16), abi::LTID, 0);
    a.st_global(abi::GID, 0, hmm_machine::isa::Reg(16));
    a.bar_global();
    a.ld_global(hmm_machine::isa::Reg(17), abi::GID, 0);
    a.halt();
    let program = a.finish();

    assert_engines_agree("trace", |d| {
        let mut cfg = EngineConfig::hmm(d, 4, 8, 256, 64);
        cfg.trace = true;
        let mut engine = Machine::new(cfg);
        let kernel = Kernel::new("every-event", program.clone());
        let report = engine.launch(&kernel, LaunchShape::Even(8 * d)).unwrap();
        let trace = engine.take_trace().expect("trace was enabled");
        (report, trace.events().to_vec())
    });
}
