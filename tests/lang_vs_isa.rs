//! Integration: algorithms written in the structured `hmm-lang` language
//! produce the same values and the same Θ-shaped times as the
//! hand-written ISA kernels in `hmm-algorithms`.

use hmm_algorithms::contiguous::{self, run_copy};
use hmm_algorithms::sum::{hmm_all, run_sum_hmm};
use hmm_core::{Kernel, LaunchShape, Machine};
use hmm_lang::prelude::*;
use hmm_workloads::random_words;

/// Theorem 7's phases 1–4 in hmm-lang (final reduce over DMM sums done
/// on DMM 0 through shared memory, like the ISA version's simple case
/// pd >= d and both powers of two).
fn theorem7_sum_lang(n: usize, threads: usize, dmms: usize) -> hmm_machine::Program {
    assert!(threads.is_multiple_of(dmms));
    let pd = threads / dmms;
    assert!(pd.is_power_of_two() && dmms.is_power_of_two() && pd >= dmms);
    let aux = n;
    let mut k = KernelBuilder::new();
    let i = k.var();
    let acc = k.var();
    let h = k.var();

    // Phase 1: strided column sums from global memory.
    k.set(acc, imm(0));
    k.for_strided(i, gid(), immu(n), p(), |k| {
        k.set(acc, add(v(acc), ld_global(v(i))));
    });
    // Phase 2: publish to shared memory.
    k.store(Space::Shared, ltid(), v(acc));
    k.bar_dmm();
    // Phase 3: pairwise tree in shared memory.
    let mut half = pd / 2;
    while half >= 1 {
        k.if_(lt(ltid(), immu(half)), |k| {
            k.store(
                Space::Shared,
                ltid(),
                add(ld_shared(ltid()), ld_shared(add(ltid(), immu(half)))),
            );
        });
        k.bar_dmm();
        half /= 2;
    }
    // Phase 4: DMM sums to global; one global barrier.
    k.if_(eq(ltid(), imm(0)), |k| {
        k.store(Space::Global, add(dmm(), immu(aux)), ld_shared(imm(0)));
    });
    k.bar_global();
    // Phase 5 (DMM 0): stage the d sums into shared, tree-reduce them.
    k.if_(eq(dmm(), imm(0)), |k| {
        k.if_(lt(ltid(), immu(dmms)), |k| {
            k.store(Space::Shared, ltid(), ld_global(add(ltid(), immu(aux))));
        });
        k.bar_dmm();
        let mut half = dmms / 2;
        while half >= 1 {
            k.if_(lt(ltid(), immu(half)), |k| {
                k.store(
                    Space::Shared,
                    ltid(),
                    add(ld_shared(ltid()), ld_shared(add(ltid(), immu(half)))),
                );
            });
            k.bar_dmm();
            half /= 2;
        }
        k.if_(eq(ltid(), imm(0)), |k| {
            k.store(Space::Global, immu(aux), ld_shared(imm(0)));
        });
        k.set(h, imm(0)); // keep `h` used in all paths
    });
    k.compile().expect("fits register file")
}

#[test]
fn lang_theorem7_matches_isa_theorem7() {
    let n = 1 << 12;
    let (d, w, l, p) = (8usize, 8usize, 64usize, 512usize);
    let input = random_words(n, 42, 500);
    let expect: i64 = input.iter().sum();

    // hmm-lang version.
    let program = theorem7_sum_lang(n, p, d);
    let mut m = Machine::hmm(d, w, l, n + 16, (p / d).max(d));
    m.load_global(0, &input);
    let report = m
        .launch(&Kernel::new("sum-lang-t7", program), LaunchShape::Even(p))
        .unwrap();
    assert_eq!(m.global()[n], expect);

    // Hand-written ISA version.
    let mut m2 = hmm_all::footprint(n, p, d).hmm(d, w, l);
    let isa = run_sum_hmm(&mut m2, &input, p).unwrap();
    assert_eq!(isa.value, expect);

    // Same asymptotic behaviour: within 2x of each other.
    let (a, b) = (report.time as f64, isa.report.time as f64);
    assert!(
        (a / b) < 2.0 && (b / a) < 2.0,
        "lang {a} vs isa {b} time units"
    );
}

#[test]
fn lang_copy_matches_isa_copy() {
    let n = 1 << 10;
    let (w, lat, threads) = (8usize, 32usize, 128usize);
    let input = random_words(n, 7, 500);

    // hmm-lang contiguous copy.
    let mut k = KernelBuilder::new();
    let i = k.var();
    k.for_strided(i, gid(), immu(n), p(), |k| {
        k.store(Space::Global, add(v(i), immu(n)), ld_global(v(i)));
    });
    let program = k.compile().unwrap();
    let mut m = Machine::umm(w, lat, 2 * n);
    m.load_global(0, &input);
    let lang_rep = m
        .launch(
            &Kernel::new("copy-lang", program),
            LaunchShape::Even(threads),
        )
        .unwrap();
    assert_eq!(&m.global()[n..2 * n], &input[..]);

    // ISA version.
    let mut m2 = contiguous::footprint(n, 2).umm(w, lat);
    let isa_rep = run_copy(&mut m2, &input, threads).unwrap();
    assert_eq!(&m2.global()[n..2 * n], &input[..]);

    let (a, b) = (lang_rep.time as f64, isa_rep.time as f64);
    assert!(
        (a / b) < 1.5 && (b / a) < 1.5,
        "lang {a} vs isa {b} time units"
    );
    // Identical memory traffic: same number of requests.
    assert_eq!(lang_rep.global.requests, isa_rep.global.requests);
}
