//! Ablation sweep for the summing algorithms (Lemma 5 vs Lemma 6 vs
//! Theorem 7):
//!
//! 1. **Latency sweep** — fixed `n`, `p`, `d`; growing `l` shows the
//!    `l·log n` term of the single-memory algorithm vs the `l + log n`
//!    term of the HMM algorithm (the paper's headline separation).
//! 2. **DMM sweep** — fixed everything else, growing `d` shows how the
//!    all-DMM algorithm spreads the latency-hiding over more shared
//!    memories while the single-DMM algorithm stays flat.
//! 3. **Pipelining ablation** — the same Theorem 7 run with the memory
//!    pipeline disabled, demonstrating that latency hiding (not raw
//!    bandwidth) is what the model's bounds rest on.
//!
//! Sweeps 1 and 2 fan their independent points out over a
//! [`BatchRunner`]; each result comes back [`Keyed`] by the sweep point
//! that produced it and in sweep order, so the printed tables and the
//! JSON dump are identical at any thread count and can never
//! mis-attribute a row.
//!
//! Run with `cargo run --release -p hmm-bench --bin sweep_sum`.

use hmm_algorithms::sum::{
    dmm_umm, hmm_all, hmm_single, run_sum_dmm_umm, run_sum_hmm, run_sum_hmm_single_dmm,
};
use hmm_bench::{dump, header, row, Measurement};
use hmm_core::{BatchRunner, Keyed};
use hmm_machine::{EngineConfig, Machine};
use hmm_theory::{table1, Params};
use hmm_workloads::random_words;

fn main() {
    let n = 1 << 14;
    let w = 32;
    let input = random_words(n, 5, 100);
    let mut ms = Vec::new();
    let runner = BatchRunner::new();

    println!("== Sweep 1: latency (n = {n}, w = {w}, p = 2048, d = 16) ==\n");
    header(&["l", "umm-L5", "hmm1-L6", "hmm-T7", "T7-pred"]);
    let (p, d) = (2048usize, 16usize);
    let latency_points = vec![1usize, 8, 32, 128, 512];
    let latency_results = runner.run_keyed(latency_points, |&l| {
        let mut umm = dmm_umm::footprint(n).umm(w, l);
        let t5 = run_sum_dmm_umm(&mut umm, &input, p).unwrap().report.time;

        let q = (w * l).min(p);
        let mut h1 = hmm_single::footprint(n, q).hmm(d, w, l);
        let t6 = run_sum_hmm_single_dmm(&mut h1, &input, q)
            .unwrap()
            .report
            .time;

        let mut hmm = hmm_all::footprint(n, p, d).hmm(d, w, l);
        let t7 = run_sum_hmm(&mut hmm, &input, p).unwrap().report.time;
        (t5, t6, t7)
    });
    for Keyed {
        config: l,
        result: (t5, t6, t7),
    } in latency_results
    {
        let pr = Params {
            n,
            k: 1,
            p,
            w,
            l,
            d,
        };
        let pred = table1::sum_hmm(pr);
        row(&[
            l.to_string(),
            t5.to_string(),
            t6.to_string(),
            t7.to_string(),
            format!("{pred:.0}"),
        ]);
        ms.push(Measurement::new(
            "sweep_sum/latency/umm",
            pr,
            t5,
            table1::sum_dmm_umm(pr),
        ));
        ms.push(Measurement::new("sweep_sum/latency/hmm", pr, t7, pred));
    }

    println!("\n== Sweep 2: DMM count (n = {n}, w = {w}, l = 256, p = 128·d) ==\n");
    header(&["d", "p", "hmm-T7", "T7-pred"]);
    let l = 256;
    let dmm_points = vec![1usize, 2, 4, 8, 16, 32];
    let dmm_results = runner.run_keyed(dmm_points, |&d| {
        let p = 128 * d;
        let mut hmm = hmm_all::footprint(n, p, d).hmm(d, w, l);
        let t7 = run_sum_hmm(&mut hmm, &input, p).unwrap().report.time;
        (p, t7)
    });
    for Keyed {
        config: d,
        result: (p, t7),
    } in dmm_results
    {
        let pr = Params {
            n,
            k: 1,
            p,
            w,
            l,
            d,
        };
        let pred = table1::sum_hmm(pr);
        row(&[
            d.to_string(),
            p.to_string(),
            t7.to_string(),
            format!("{pred:.0}"),
        ]);
        ms.push(Measurement::new("sweep_sum/dmms", pr, t7, pred));
    }

    println!("\n== Sweep 3: pipelining ablation (Theorem 7, d = 16, p = 2048, l = 256) ==\n");
    header(&["pipelined", "time"]);
    for &pipelined in &[true, false] {
        let need = hmm_all::footprint(n, 2048, 16);
        let mut cfg = EngineConfig::hmm(16, w, 256, need.global, need.shared);
        cfg.pipelined = pipelined;
        let mut m = Machine::new(cfg);
        let t = run_sum_hmm(&mut m, &input, 2048).unwrap().report.time;
        row(&[pipelined.to_string(), t.to_string()]);
        let pr = Params {
            n,
            k: 1,
            p: 2048,
            w,
            l: 256,
            d: 16,
        };
        ms.push(Measurement::new(
            if pipelined {
                "sweep_sum/pipelined"
            } else {
                "sweep_sum/no_pipeline"
            },
            pr,
            t,
            table1::sum_hmm(pr),
        ));
    }
    println!("\n(the non-pipelined machine pays ~l per slot: latency hiding is the model's core)");

    dump("sweep_sum", &ms);
}
