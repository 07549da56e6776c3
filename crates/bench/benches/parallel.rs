//! Wall-clock comparison of a batch of simulations run one after another
//! and fanned over worker threads: the Table I d = 16 sum sweep (9 grid
//! points) over a [`BatchRunner`] with 1 vs 4 threads. Each launch runs
//! on one thread; the batch is the only level the simulator parallelises.
//!
//! Simulated results are bit-identical in both configurations (asserted
//! here); only wall-clock changes. The measured numbers — including the
//! host's core count, which bounds any possible speedup — are written to
//! `BENCH_parallel.json` at the repository root.
//!
//! Run with `cargo bench -p hmm-bench --bench parallel` (use a
//! multi-core host for meaningful speedups; on a single hardware thread
//! the pool can only add overhead).

use hmm_algorithms::sum::{hmm_all, run_sum_hmm};
use hmm_core::BatchRunner;
use hmm_util::bench::BenchGroup;
use hmm_util::Value;
use hmm_workloads::random_words;

const SAMPLES: usize = 5;

fn row(name: &str, seq_ms: f64, par_ms: f64) -> Value {
    let speedup = seq_ms / par_ms;
    println!("  {name:<24} sequential {seq_ms:>9.2} ms   4 threads {par_ms:>9.2} ms   speedup {speedup:>5.2}x");
    Value::object(vec![
        ("name", name.into()),
        ("sequential_ms", seq_ms.into()),
        ("parallel_ms", par_ms.into()),
        ("speedup", speedup.into()),
    ])
}

fn main() {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let (w, l, d) = (32usize, 256usize, 16usize);
    println!("parallel batch bench: d = {d}, 4 worker threads, host cores = {cores}");
    let mut rows = Vec::new();

    // Batch-level: the Table I sum grid (9 points) over a BatchRunner.
    let mut grid = Vec::new();
    for &gn in &[1usize << 12, 1 << 13, 1 << 14] {
        for &gp in &[512usize, 1024, 2048] {
            grid.push((gn, gp));
        }
    }
    let sweep = |threads: usize| {
        let runner = if threads == 1 {
            BatchRunner::sequential()
        } else {
            BatchRunner::with_threads(threads)
        };
        runner.run(grid.clone(), |(gn, gp)| {
            let input = random_words(gn, gn as u64, 100);
            let mut m = hmm_all::footprint(gn, gp, d).hmm(d, w, l);
            run_sum_hmm(&mut m, &input, gp).unwrap().report.time
        })
    };
    let mut g = BenchGroup::new("parallel");
    g.sample_size(SAMPLES);
    let (seq_ms, seq_times) = g.bench("batch/table1_sum_sweep/1_thread", || sweep(1));
    let (par_ms, par_times) = g.bench("batch/table1_sum_sweep/4_threads", || sweep(4));
    assert_eq!(seq_times, par_times, "batch sweep diverged");
    rows.push(row("batch/table1_sum_sweep", seq_ms, par_ms));

    let doc = Value::object(vec![
        ("bench", "parallel".into()),
        ("host_cores", cores.into()),
        ("worker_threads", 4usize.into()),
        ("samples_per_point", SAMPLES.into()),
        (
            "note",
            "min-of-samples wall-clock; simulated results asserted bit-identical. \
             Speedups are bounded by host_cores — on a single-core host the \
             pool can only break even or lose."
                .into(),
        ),
        ("workloads", Value::Array(rows)),
    ]);
    hmm_bench::dump_bench("parallel", &doc);
}
