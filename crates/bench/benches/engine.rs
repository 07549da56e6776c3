//! Wall-clock comparison of the event-driven clock against pure unit
//! stepping.
//!
//! Each workload runs with `fast_forward` on and off; the simulated
//! reports are asserted identical up to the `skipped_units` diagnostic,
//! so only wall-clock changes. Latency-bound shapes (few warps, large
//! `l`) leave long idle stretches for the clock to jump; busy shapes
//! (many warps, small `l`) keep a pipeline occupied almost every unit
//! and serve as the no-regression guard. Two shapes load lane-group
//! stepping: the tuner's stock sum kernel, whose bank-conflicted shared
//! fold wakes a warp's lanes on consecutive cycles, and a loop of ALU
//! instructions between two memory accesses. Three shapes load the
//! memory path: the bitonic sort of perfbench's `sort_profiled` (without
//! its profile and trace), and a shared-memory loop at stride 1
//! (one-slot transactions) and at stride `w` (every lane in one bank,
//! `w` slots per transaction). Two shapes run at the paper's GTX580
//! scale (`d = 16`, `w = 32`, `l = 400`, `p = 24576`, 768 warps): the
//! sum of `n = 2^20` and the convolution of `n = 65536`, `k = 64`, the
//! launches of `hmm-cli sum` and `conv` with those flags.
//!
//! Each time is the minimum of [`SAMPLES`] runs after a warm-up run
//! ([`PAPER_SAMPLES`] at the paper's scale, where one launch takes
//! about 0.1–0.25 s); on a shared host a minimum of a handful of runs
//! moves by a third between batches, which hides a change of a few
//! percent.
//!
//! Run with `cargo bench -p hmm-bench --bench engine`. Results — with
//! the host core count and per-workload simulated and skipped units —
//! go to `BENCH_engine.json` at the repository root.

use hmm_algorithms::convolution::{self, run_conv_hmm};
use hmm_algorithms::sort::{self, run_sort_hmm};
use hmm_algorithms::sum::{hmm_all, run_sum_hmm};
use hmm_machine::isa::Reg;
use hmm_machine::{abi, Asm, EngineConfig, Kernel, LaunchShape, Machine, SimReport};
use hmm_tune::{tunable, TuneSpace};
use hmm_util::bench::BenchGroup;
use hmm_util::Value;
use hmm_workloads::random_words;

const D: usize = 4;
const W: usize = 32;
/// Timed runs per shape and clock mode.
const SAMPLES: usize = 30;
/// Timed runs per paper-scale shape and clock mode.
const PAPER_SAMPLES: usize = 10;
/// The GTX580 shape: DMMs, latency and threads (768 warps of `W`).
const GTX: (usize, usize, usize) = (16, 400, 24576);

fn sum_report(
    d: usize,
    l: usize,
    n: usize,
    p: usize,
    input: &[hmm_machine::Word],
    ff: bool,
) -> SimReport {
    let mut m = hmm_all::footprint(n, p, d)
        .hmm(d, W, l)
        .with_fast_forward(ff);
    run_sum_hmm(&mut m, input, p).unwrap().report
}

/// The convolution on an HMM of `d` DMMs with latency `l`.
fn conv_report(
    (d, l): (usize, usize),
    n: usize,
    k: usize,
    p: usize,
    a: &[hmm_machine::Word],
    b: &[hmm_machine::Word],
    ff: bool,
) -> SimReport {
    let mut m = convolution::footprint(n, k, Some(d), 0)
        .hmm(d, W, l)
        .with_fast_forward(ff);
    run_conv_hmm(&mut m, a, b, p).unwrap().report
}

/// The stock tune space's baseline candidate (`d = 4`, `w = 8`, `l = 32`)
/// at 4 warps per DMM: every thread folds 8 consecutive shared cells, a
/// stride-8 read that serialises into 8 slots per warp, so the lanes
/// wake one per cycle and step out of step.
fn conflicted_fold_report(n: usize, warps: usize, ff: bool) -> SimReport {
    let sum = tunable("sum").expect("sum is tunable");
    let mut c = TuneSpace::default().baseline();
    c.warps = warps;
    let tk = sum.build(&c, n).expect("baseline builds");
    let mut m = Machine::hmm(c.d, c.w, c.l, tk.global_size, tk.shared_size).with_fast_forward(ff);
    m.load_global(tk.input_base, &sum.input(n, 1));
    m.launch(&tk.kernel, LaunchShape::Even(tk.threads)).unwrap()
}

/// `iters` rounds of a five-instruction ALU loop body between a global
/// load and a global store on every thread.
fn alu_loop_report(iters: i64, p: usize, ff: bool) -> SimReport {
    let (acc, count, t) = (Reg(16), Reg(17), Reg(18));
    let mut a = Asm::new();
    a.ld_global(acc, abi::GID, 0);
    a.mov(count, iters);
    let top = a.here();
    let done = a.label();
    a.brz(count, done);
    a.mul(t, acc, 3);
    a.xor(acc, t, count);
    a.add(acc, acc, abi::GID);
    a.sub(count, count, 1);
    a.jmp(top);
    a.bind(done);
    a.st_global(abi::GID, 0, acc);
    a.halt();
    let mut cfg = EngineConfig::hmm(D, W, 64, p, 0);
    cfg.fast_forward = ff;
    let mut engine = Machine::new(cfg);
    engine
        .launch(
            &Kernel::new("engine-bench", a.finish()),
            LaunchShape::Even(p),
        )
        .unwrap()
}

/// Bitonic sort of `input` on an HMM of `d` DMMs with `w = 32`,
/// `l = 64` and `p` threads: perfbench's `sort_profiled` launch.
fn sort_report(d: usize, p: usize, input: &[hmm_machine::Word], ff: bool) -> SimReport {
    let mut m = sort::footprint(input.len(), Some(d))
        .hmm(d, W, 64)
        .with_fast_forward(ff);
    run_sort_hmm(&mut m, input, p).unwrap().report
}

/// `iters` rounds of a shared-memory increment on every thread: load
/// `S[stride·LTID]`, add one, store it back.
fn shared_loop_report(stride: usize, iters: i64, p: usize, ff: bool) -> SimReport {
    let (addr, v, i, more) = (Reg(16), Reg(17), Reg(18), Reg(19));
    let mut a = Asm::new();
    a.mul(addr, abi::LTID, stride);
    a.mov(i, 0);
    let top = a.here();
    a.ld_shared(v, addr, 0);
    a.add(v, v, 1);
    a.st_shared(addr, 0, v);
    a.add(i, i, 1);
    a.slt(more, i, iters);
    a.brnz(more, top);
    a.halt();
    let mut cfg = EngineConfig::hmm(D, W, 64, p, stride * p / D);
    cfg.fast_forward = ff;
    let mut engine = Machine::new(cfg);
    engine
        .launch(
            &Kernel::new("engine-bench", a.finish()),
            LaunchShape::Even(p),
        )
        .unwrap()
}

/// Benchmark one workload in both clock modes and emit the JSON row.
fn measure(g: &mut BenchGroup, name: &str, run: impl Fn(bool) -> SimReport) -> Value {
    let (ff_ms, ff_report) = g.bench(&format!("{name}/fast_forward"), || run(true));
    let (step_ms, step_report) = g.bench(&format!("{name}/stepped"), || run(false));
    assert_eq!(step_report.skipped_units, 0, "{name}: ff-off skipped");
    let mut normalised = ff_report.clone();
    normalised.skipped_units = 0;
    assert_eq!(
        normalised, step_report,
        "{name}: clock changed the simulation"
    );
    let speedup = step_ms / ff_ms;
    let frac = ff_report.skipped_units as f64 / ff_report.time.max(1) as f64;
    println!(
        "  {name:<20} stepped {step_ms:>9.2} ms   fast-forward {ff_ms:>9.2} ms   \
         speedup {speedup:>5.2}x   skipped {:>10} of {:>10} units ({:.0}%)",
        ff_report.skipped_units,
        ff_report.time,
        frac * 100.0
    );
    Value::object(vec![
        ("name", name.into()),
        ("stepped_ms", step_ms.into()),
        ("fast_forward_ms", ff_ms.into()),
        ("speedup", speedup.into()),
        ("time_units", ff_report.time.into()),
        ("skipped_units", ff_report.skipped_units.into()),
    ])
}

fn main() {
    let samples = SAMPLES;
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!(
        "event-driven clock bench: d = {D} (16 at GTX580 scale), w = {W}, host cores = {cores}"
    );
    let mut g = BenchGroup::new("engine");
    g.sample_size(samples);
    let mut rows = Vec::new();

    // Latency-bound sum: few warps, growing l — long idle stretches.
    let lat_n = 1 << 12;
    let lat_input = random_words(lat_n, 42, 100);
    for l in [64, 1024, 8192] {
        rows.push(measure(&mut g, &format!("sum/l{l}_p64"), |ff| {
            sum_report(D, l, lat_n, 64, &lat_input, ff)
        }));
    }

    // Latency-bound convolution at the largest l.
    let (cn, ck) = (1024, 16);
    let ca = random_words(ck, 7, 50);
    let cb = random_words(cn + ck - 1, 8, 50);
    rows.push(measure(&mut g, "conv/l8192_p64", |ff| {
        conv_report((D, 8192), cn, ck, 64, &ca, &cb, ff)
    }));

    // Busy shapes: enough warps to keep the pipes occupied nearly every
    // unit — the fast-forward path must not regress here.
    let busy_n = 1 << 13;
    let busy_input = random_words(busy_n, 43, 100);
    rows.push(measure(&mut g, "sum/l64_p1024", |ff| {
        sum_report(D, 64, busy_n, 1024, &busy_input, ff)
    }));
    let (bn, bk, bp) = (4096, 32, 2048);
    let ba = random_words(bk, 9, 50);
    let bb = random_words(bn + bk - 1, 10, 50);
    rows.push(measure(&mut g, "conv/l64_p2048", |ff| {
        conv_report((D, 64), bn, bk, bp, &ba, &bb, ff)
    }));

    // Lane-group stepping: staggered wakes after conflicted shared
    // reads, and long runs of ALU instructions.
    let fold_n = 1 << 13;
    rows.push(measure(&mut g, "fold/d4_w8_x4", |ff| {
        conflicted_fold_report(fold_n, 4, ff)
    }));
    rows.push(measure(&mut g, "alu/i256_p1024", |ff| {
        alu_loop_report(256, 1024, ff)
    }));

    // The memory path: the bitonic sort, and shared loops whose
    // transactions take one slot (stride 1) or `w` slots (stride `w`).
    let sort_input = random_words(2048, 1, 1 << 20);
    rows.push(measure(&mut g, "sort/d8_p512", |ff| {
        sort_report(8, 512, &sort_input, ff)
    }));
    rows.push(measure(&mut g, "shared/s1_i64_p1024", |ff| {
        shared_loop_report(1, 64, 1024, ff)
    }));
    rows.push(measure(&mut g, "shared/sw_i64_p1024", |ff| {
        shared_loop_report(W, 64, 1024, ff)
    }));

    // The paper's GTX580 scale: 768 warps over 16 DMMs.
    g.sample_size(PAPER_SAMPLES);
    let (gd, gl, gp) = GTX;
    let gtx_sum = random_words(1 << 20, 1, 1000);
    rows.push(measure(&mut g, "gtx580/sum_n1048576", |ff| {
        sum_report(gd, gl, 1 << 20, gp, &gtx_sum, ff)
    }));
    let (gn, gk) = (65536, 64);
    let ga = random_words(gk, 1, 50);
    let gb = random_words(gn + gk - 1, 2, 50);
    rows.push(measure(&mut g, "gtx580/conv_n65536_k64", |ff| {
        conv_report((gd, gl), gn, gk, gp, &ga, &gb, ff)
    }));

    let doc = Value::object(vec![
        ("bench", "engine".into()),
        ("host_cores", cores.into()),
        ("samples_per_point", samples.into()),
        (
            "note",
            "min-of-samples wall-clock; fast-forward vs \
             unit-stepped clock with reports asserted identical up to \
             skipped_units. Latency-bound shapes (p=64) are where the \
             event-driven clock pays; busy shapes guard against regression. \
             The gtx580 shapes take 10 samples per point."
                .into(),
        ),
        ("workloads", Value::Array(rows)),
    ]);
    hmm_bench::dump_bench("engine", &doc);
}
