//! Ablation sweep for the convolution algorithms (Theorem 8 vs
//! Theorem 9):
//!
//! 1. **Kernel-length sweep** — fixed machine; growing `k` shows the
//!    HMM's `d`-fold advantage on the compute term `nk/(dw)` and where
//!    the staging overhead `(n + dk)/w` stops mattering (Corollary 10's
//!    `k ≥ dl/w` regime).
//! 2. **Latency sweep** — the single-memory algorithm pays `l` inside the
//!    multiply-accumulate stream once warps run out; the HMM pays it only
//!    during staging.
//!
//! Both sweeps fan their independent points out over a [`BatchRunner`];
//! each result comes back [`Keyed`] by the sweep point that produced it
//! and in sweep order, so output is identical at any thread count and
//! rows can never be mis-attributed.
//!
//! Run with `cargo run --release -p hmm-bench --bin sweep_conv`.

use hmm_algorithms::convolution::{footprint, run_conv_dmm_umm, run_conv_hmm};
use hmm_bench::{dump, header, row, Measurement};
use hmm_core::{BatchRunner, Keyed};
use hmm_theory::{table1, Params};
use hmm_workloads::random_words;

/// Run the UMM (Theorem 8) and HMM (Theorem 9) convolutions at one point.
#[allow(clippy::too_many_arguments)]
fn conv_pair(
    n: usize,
    k: usize,
    p: usize,
    w: usize,
    l: usize,
    d: usize,
    seeds: (u64, u64),
) -> (u64, u64) {
    let a = random_words(k, seeds.0, 50);
    let b = random_words(n + k - 1, seeds.1, 50);

    let mut umm = footprint(n, k, None, 0).umm(w, l);
    let t8 = run_conv_dmm_umm(&mut umm, &a, &b, p).unwrap().report.time;

    let mut hmm = footprint(n, k, Some(d), 0).hmm(d, w, l);
    let t9 = run_conv_hmm(&mut hmm, &a, &b, p).unwrap().report.time;
    (t8, t9)
}

fn main() {
    let n = 1 << 12;
    let (w, d, p) = (32usize, 16usize, 2048usize);
    let mut ms = Vec::new();
    let runner = BatchRunner::new();

    println!("== Sweep 1: kernel length k (n = {n}, w = {w}, d = {d}, p = {p}, l = 256) ==\n");
    header(&["k", "umm-T8", "hmm-T9", "T9-pred", "speedup"]);
    let l = 256;
    let k_points = vec![4usize, 8, 16, 32, 64, 128];
    let k_results = runner.run_keyed(k_points, |&k| conv_pair(n, k, p, w, l, d, (k as u64, 77)));
    for Keyed {
        config: k,
        result: (t8, t9),
    } in k_results
    {
        let pr = Params { n, k, p, w, l, d };
        let pred = table1::conv_hmm(pr);
        row(&[
            k.to_string(),
            t8.to_string(),
            t9.to_string(),
            format!("{pred:.0}"),
            format!("{:.2}x", t8 as f64 / t9 as f64),
        ]);
        ms.push(Measurement::new(
            "sweep_conv/k/umm",
            pr,
            t8,
            table1::conv_dmm_umm(Params { p: p.min(n), ..pr }),
        ));
        ms.push(Measurement::new("sweep_conv/k/hmm", pr, t9, pred));
    }

    println!("\n== Sweep 2: latency l (n = {n}, k = 32, w = {w}, d = {d}, p = {p}) ==\n");
    header(&["l", "umm-T8", "hmm-T9", "speedup"]);
    let k = 32;
    let l_points = vec![1usize, 16, 64, 256, 512];
    let l_results = runner.run_keyed(l_points, |&l| conv_pair(n, k, p, w, l, d, (9, 10)));
    for Keyed {
        config: l,
        result: (t8, t9),
    } in l_results
    {
        let pr = Params { n, k, p, w, l, d };
        row(&[
            l.to_string(),
            t8.to_string(),
            t9.to_string(),
            format!("{:.2}x", t8 as f64 / t9 as f64),
        ]);
        ms.push(Measurement::new(
            "sweep_conv/l/umm",
            pr,
            t8,
            table1::conv_dmm_umm(Params { p: p.min(n), ..pr }),
        ));
        ms.push(Measurement::new(
            "sweep_conv/l/hmm",
            pr,
            t9,
            table1::conv_hmm(pr),
        ));
    }

    dump("sweep_conv", &ms);
}
