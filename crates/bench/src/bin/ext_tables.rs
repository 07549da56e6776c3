//! Measured tables for the extension algorithms (prefix-sums and
//! conflict-free offline permutation) — the companion results the paper
//! cites as references \[17\], \[13\] and \[19\].
//!
//! Run with `cargo run --release -p hmm-bench --bin ext_tables`.

use hmm_algorithms::matmul::{self, run_matmul_hmm, run_matmul_umm};
use hmm_algorithms::permutation::{
    self, run_permutation_naive, run_permutation_scheduled, schedule_permutation, transpose_perm,
};
use hmm_algorithms::prefix::{self, run_prefix_dmm_umm, run_prefix_hmm};
use hmm_algorithms::sort::{self, run_sort_hmm, run_sort_umm};
use hmm_bench::{dump, header, row, Measurement};
use hmm_theory::{lg, Params};
use hmm_workloads::random_words;

fn main() {
    let w = 32;
    let mut ms = Vec::new();

    println!("== Prefix-sums (reference [17]) : UMM Blelloch vs HMM staged ==\n");
    header(&["n", "p", "l", "d", "umm", "hmm", "hmm-speedup"]);
    for &(n, p, l, d) in &[
        (1usize << 12, 512usize, 64usize, 8usize),
        (1 << 14, 2048, 256, 16),
        (1 << 16, 8192, 256, 16),
    ] {
        let input = random_words(n, n as u64, 100);
        let mut umm = prefix::footprint(n, p, None).umm(w, l);
        let tu = run_prefix_dmm_umm(&mut umm, &input, p).unwrap();
        let mut hmm = prefix::footprint(n, p, Some(d)).hmm(d, w, l);
        let th = run_prefix_hmm(&mut hmm, &input, p).unwrap();
        assert_eq!(tu.value, th.value);
        row(&[
            n.to_string(),
            p.to_string(),
            l.to_string(),
            d.to_string(),
            tu.report.time.to_string(),
            th.report.time.to_string(),
            format!("{:.2}x", tu.report.time as f64 / th.report.time as f64),
        ]);
        let pr = Params {
            n,
            k: 1,
            p,
            w,
            l,
            d,
        };
        let (nf, pf, wf, lf) = (n as f64, p as f64, w as f64, l as f64);
        ms.push(Measurement::new(
            "ext/prefix/umm",
            pr,
            tu.report.time,
            nf / wf + nf * lf / pf + lf * lg(n),
        ));
        ms.push(Measurement::new(
            "ext/prefix/hmm",
            pr,
            th.report.time,
            nf / wf + nf * lf / pf + nf / pf + lf + lg(p) + d as f64,
        ));
    }

    println!("\n== Offline permutation (references [13], [19]) : matrix transpose on the DMM ==\n");
    header(&["n", "p", "l", "naive", "scheduled", "speedup", "max-confl"]);
    for &(m_side, p, l) in &[
        (32usize, 256usize, 16usize),
        (64, 1024, 64),
        (128, 4096, 256),
    ] {
        let n = m_side * m_side;
        let perm = transpose_perm(m_side);
        let input = random_words(n, m_side as u64, 100);
        let schedule = schedule_permutation(&perm, w);
        let mut dmm = permutation::footprint(n, Some(&schedule)).dmm(w, l);
        let sched = run_permutation_scheduled(&mut dmm, &input, &perm, p).unwrap();
        let mut dmm2 = permutation::footprint(n, None).dmm(w, l);
        let naive = run_permutation_naive(&mut dmm2, &input, &perm, p).unwrap();
        assert_eq!(sched.value, naive.value);
        row(&[
            n.to_string(),
            p.to_string(),
            l.to_string(),
            naive.report.time.to_string(),
            sched.report.time.to_string(),
            format!(
                "{:.2}x",
                naive.report.time as f64 / sched.report.time as f64
            ),
            naive.report.global.max_slots_per_transaction.to_string(),
        ]);
        let pr = Params {
            n,
            k: 1,
            p,
            w,
            l,
            d: 1,
        };
        let (nf, pf, wf, lf) = (n as f64, p as f64, w as f64, l as f64);
        ms.push(Measurement::new(
            "ext/perm/scheduled",
            pr,
            sched.report.time,
            nf / wf + nf * lf / pf + lf,
        ));
        ms.push(Measurement::new(
            "ext/perm/naive",
            pr,
            naive.report.time,
            nf + lf,
        ));
    }
    println!("\n(max-confl = the worst per-warp bank serialisation the naive kernel hit)");

    println!("\n== Bitonic sort : single memory vs HMM staged ==\n");
    header(&["n", "p", "l", "d", "umm", "hmm", "speedup"]);
    for &(n, p, l, d) in &[
        (1usize << 10, 256usize, 64usize, 8usize),
        (1 << 12, 1024, 256, 16),
        (1 << 14, 4096, 256, 16),
    ] {
        let input = random_words(n, n as u64, 1_000_000);
        let mut umm = sort::footprint(n, None).umm(w, l);
        let tu = run_sort_umm(&mut umm, &input, p).unwrap();
        let mut hmm = sort::footprint(n, Some(d)).hmm(d, w, l);
        let th = run_sort_hmm(&mut hmm, &input, p).unwrap();
        assert_eq!(tu.value, th.value);
        row(&[
            n.to_string(),
            p.to_string(),
            l.to_string(),
            d.to_string(),
            tu.report.time.to_string(),
            th.report.time.to_string(),
            format!("{:.2}x", tu.report.time as f64 / th.report.time as f64),
        ]);
        let pr = Params {
            n,
            k: 1,
            p,
            w,
            l,
            d,
        };
        let (nf, pf, wf, lf) = (n as f64, p as f64, w as f64, l as f64);
        let lgn = lg(n);
        ms.push(Measurement::new(
            "ext/sort/umm",
            pr,
            tu.report.time,
            (nf / wf + nf * lf / pf + lf) * lgn * lgn / 2.0,
        ));
        ms.push(Measurement::new(
            "ext/sort/hmm",
            pr,
            th.report.time,
            (nf / wf + nf * lf / pf) * lgn + lf * lg(d) * lg(d) + lgn * lgn,
        ));
    }

    println!("\n== Tiled matrix multiplication (application study) ==\n");
    header(&["m", "p", "l", "d", "umm", "hmm", "speedup"]);
    for &(m_side, p, l, d, tw) in &[
        (32usize, 256usize, 64usize, 8usize, 8usize),
        (64, 1024, 256, 16, 16),
    ] {
        let a = random_words(m_side * m_side, 1, 20);
        let b = random_words(m_side * m_side, 2, 20);
        let mut umm = matmul::footprint(m_side, None, 0).umm(w, l);
        let tu = run_matmul_umm(&mut umm, &a, &b, m_side, p).unwrap();
        let mut hmm = matmul::footprint(m_side, Some(d), tw).hmm(d, w, l);
        let th = run_matmul_hmm(&mut hmm, &a, &b, m_side, tw, p).unwrap();
        assert_eq!(tu.value, th.value);
        row(&[
            m_side.to_string(),
            p.to_string(),
            l.to_string(),
            d.to_string(),
            tu.report.time.to_string(),
            th.report.time.to_string(),
            format!("{:.2}x", tu.report.time as f64 / th.report.time as f64),
        ]);
        let pr = Params {
            n: m_side * m_side,
            k: m_side,
            p,
            w,
            l,
            d,
        };
        let m3 = (m_side * m_side * m_side) as f64;
        let (pf, wf, lf) = (p as f64, w as f64, l as f64);
        ms.push(Measurement::new(
            "ext/matmul/umm",
            pr,
            tu.report.time,
            m3 / wf + m3 * lf / pf,
        ));
        ms.push(Measurement::new(
            "ext/matmul/hmm",
            pr,
            th.report.time,
            m3 / (d as f64 * wf) + (pr.n as f64) * lf / pf + lf,
        ));
    }

    dump("ext_tables", &ms);
}
