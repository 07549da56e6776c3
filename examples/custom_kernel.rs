//! Writing your own kernels with `hmm-lang` — the paper's Lemma 5 summing
//! algorithm expressed in the structured language, validated against the
//! hand-written ISA version from `hmm-algorithms`.
//!
//! ```text
//! cargo run --release --example custom_kernel
//! ```

use hmm_algorithms::sum::{dmm_umm, run_sum_dmm_umm};
use hmm_core::{Kernel, LaunchShape, Machine};
use hmm_lang::prelude::*;
use hmm_machine::disassemble;
use hmm_workloads::random_words;

/// Lemma 5 in hmm-lang: pairwise tree with contiguous access.
fn sum_kernel_lang(n2: usize) -> hmm_machine::Program {
    assert!(n2.is_power_of_two());
    let mut k = KernelBuilder::new();
    let j = k.var();
    let mut h = n2 / 2;
    while h >= 1 {
        // for j = gid; j < h; j += p: A[j] += A[j + h]
        k.for_strided(j, gid(), immu(h), p(), |k| {
            k.store(
                Space::Global,
                v(j),
                add(ld_global(v(j)), ld_global(add(v(j), immu(h)))),
            );
        });
        k.bar_global();
        h /= 2;
    }
    k.compile().expect("kernel fits the register file")
}

fn main() {
    let n = 1 << 10;
    let (w, l, p_threads) = (16, 64, 256);
    let input = random_words(n, 99, 1000);
    let expect: i64 = input.iter().sum();

    // The hmm-lang version.
    let program = sum_kernel_lang(n);
    println!(
        "hmm-lang Lemma 5 kernel: {} instructions; first tree level:\n{}",
        program.len(),
        disassemble(&program)
            .lines()
            .take(10)
            .collect::<Vec<_>>()
            .join("\n")
    );
    let mut m = Machine::umm(w, l, n);
    m.load_global(0, &input);
    let report = m
        .launch(
            &Kernel::new("sum-lang", program),
            LaunchShape::Even(p_threads),
        )
        .unwrap();
    let lang_sum = m.global()[0];
    assert_eq!(lang_sum, expect);

    // The hand-written ISA version from hmm-algorithms.
    let mut m2 = dmm_umm::footprint(n).umm(w, l);
    let hand = run_sum_dmm_umm(&mut m2, &input, p_threads).unwrap();
    assert_eq!(hand.value, expect);

    println!("\nsum = {lang_sum} (both versions correct)");
    println!("hmm-lang version : {:>6} time units", report.time);
    println!("hand-written ISA : {:>6} time units", hand.report.time);
    println!(
        "(same Θ-shape; the compiled version pays a small constant for\n its generic addressing — {:.2}x)",
        report.time as f64 / hand.report.time as f64
    );
}
