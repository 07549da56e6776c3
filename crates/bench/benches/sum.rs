//! Wall-clock benches for the summing algorithms (Table I, sum row).
//!
//! Each bench simulates one full kernel launch; the interesting output is
//! in the `table1` binary (simulated time units) — these benches track the
//! *simulator's* wall-clock cost so regressions in the engine show up.

use hmm_algorithms::pram;
use hmm_algorithms::sum::{
    dmm_umm, hmm_all, hmm_single, run_sum_dmm_umm, run_sum_hmm, run_sum_hmm_single_dmm,
};
use hmm_util::bench::BenchGroup;
use hmm_workloads::random_words;

fn main() {
    let n = 1 << 14;
    let (w, l, d, p) = (32, 256, 16, 2048);
    let input = random_words(n, 42, 100);

    let mut group = BenchGroup::new("sum");
    group.sample_size(10);

    group.bench(&format!("pram_lemma3/{n}"), || {
        let mut m = pram::sum_footprint(n, p).pram(p);
        pram::run_sum(&mut m, &input, p).unwrap().value
    });

    group.bench(&format!("umm_lemma5/{n}"), || {
        let mut m = dmm_umm::footprint(n).umm(w, l);
        run_sum_dmm_umm(&mut m, &input, p).unwrap().value
    });

    group.bench(&format!("dmm_lemma5/{n}"), || {
        let mut m = dmm_umm::footprint(n).dmm(w, l);
        run_sum_dmm_umm(&mut m, &input, p).unwrap().value
    });

    group.bench(&format!("hmm_lemma6_single_dmm/{n}"), || {
        let mut m = hmm_single::footprint(n, w * l).hmm(d, w, l);
        run_sum_hmm_single_dmm(&mut m, &input, w * l).unwrap().value
    });

    group.bench(&format!("hmm_theorem7/{n}"), || {
        let mut m = hmm_all::footprint(n, p, d).hmm(d, w, l);
        run_sum_hmm(&mut m, &input, p).unwrap().value
    });
}
