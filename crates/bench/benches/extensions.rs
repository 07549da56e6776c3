//! Wall-clock benches for the extension algorithms: prefix-sums,
//! offline permutation, bitonic sort, and tiled matrix multiply.

use hmm_algorithms::matmul::{self, run_matmul_hmm, run_matmul_umm};
use hmm_algorithms::permutation::{
    self, run_permutation_naive, run_permutation_scheduled, schedule_permutation, transpose_perm,
};
use hmm_algorithms::prefix::{self, run_prefix_dmm_umm, run_prefix_hmm};
use hmm_algorithms::sort::{self, run_sort_hmm, run_sort_umm};
use hmm_util::bench::BenchGroup;
use hmm_workloads::random_words;

fn bench_prefix() {
    let n = 1 << 12;
    let (w, l, d, p) = (32, 256, 8, 512);
    let input = random_words(n, 7, 100);

    let mut group = BenchGroup::new("prefix");
    group.sample_size(10);

    group.bench(&format!("umm_blelloch/{n}"), || {
        let mut m = prefix::footprint(n, p, None).umm(w, l);
        run_prefix_dmm_umm(&mut m, &input, p).unwrap().value
    });

    group.bench(&format!("hmm_staged/{n}"), || {
        let mut m = prefix::footprint(n, p, Some(d)).hmm(d, w, l);
        run_prefix_hmm(&mut m, &input, p).unwrap().value
    });
}

fn bench_permutation() {
    let w = 32;
    let m_side = 64;
    let n = m_side * m_side;
    let (l, p) = (64, 256);
    let perm = transpose_perm(m_side);
    let input = random_words(n, 8, 100);

    let scheduled = permutation::footprint(n, Some(&schedule_permutation(&perm, w)));
    let mut group = BenchGroup::new("permutation");
    group.sample_size(10);

    group.bench(&format!("edge_coloring_host/{n}"), || {
        schedule_permutation(&perm, w).rounds.len()
    });

    group.bench(&format!("scheduled_transpose/{n}"), || {
        let mut m = scheduled.dmm(w, l);
        run_permutation_scheduled(&mut m, &input, &perm, p)
            .unwrap()
            .report
            .time
    });

    group.bench(&format!("naive_transpose/{n}"), || {
        let mut m = permutation::footprint(n, None).dmm(w, l);
        run_permutation_naive(&mut m, &input, &perm, p)
            .unwrap()
            .report
            .time
    });
}

fn bench_sort() {
    let n = 1 << 10;
    let (w, l, d, p) = (32, 64, 8, 256);
    let input = random_words(n, 9, 1_000_000);

    let mut group = BenchGroup::new("sort");
    group.sample_size(10);

    group.bench(&format!("umm_bitonic/{n}"), || {
        let mut m = sort::footprint(n, None).umm(w, l);
        run_sort_umm(&mut m, &input, p).unwrap().report.time
    });

    group.bench(&format!("hmm_staged_bitonic/{n}"), || {
        let mut m = sort::footprint(n, Some(d)).hmm(d, w, l);
        run_sort_hmm(&mut m, &input, p).unwrap().report.time
    });
}

fn bench_matmul() {
    let m_side = 32;
    let (w, l, d, tw, p) = (32, 64, 8, 8, 256);
    let a = random_words(m_side * m_side, 1, 20);
    let b = random_words(m_side * m_side, 2, 20);

    let mut group = BenchGroup::new("matmul");
    group.sample_size(10);

    group.bench(&format!("umm/{m_side}"), || {
        let mut m = matmul::footprint(m_side, None, 0).umm(w, l);
        run_matmul_umm(&mut m, &a, &b, m_side, p)
            .unwrap()
            .report
            .time
    });

    group.bench(&format!("hmm_tiled/{m_side}"), || {
        let mut m = matmul::footprint(m_side, Some(d), tw).hmm(d, w, l);
        run_matmul_hmm(&mut m, &a, &b, m_side, tw, p)
            .unwrap()
            .report
            .time
    });
}

fn main() {
    bench_prefix();
    bench_permutation();
    bench_sort();
    bench_matmul();
}
