//! Wall-clock benches for the direct-convolution algorithms
//! (Table I, convolution row).

use hmm_algorithms::convolution::{footprint, run_conv_dmm_umm, run_conv_hmm};
use hmm_algorithms::pram;
use hmm_util::bench::BenchGroup;
use hmm_workloads::random_words;

fn main() {
    let (n, k) = (1 << 12, 32);
    let (w, l, d, p) = (32, 256, 16, 2048);
    let a = random_words(k, 1, 50);
    let b = random_words(n + k - 1, 2, 50);

    let mut group = BenchGroup::new("convolution");
    group.sample_size(10);

    group.bench(&format!("pram_lemma4/n{n}k{k}"), || {
        let mut m = pram::conv_footprint(n, k).pram(p);
        pram::run_convolution(&mut m, &a, &b, p).unwrap().value
    });

    group.bench(&format!("umm_theorem8/n{n}k{k}"), || {
        let mut m = footprint(n, k, None, 0).umm(w, l);
        run_conv_dmm_umm(&mut m, &a, &b, p).unwrap().value
    });

    group.bench(&format!("hmm_theorem9/n{n}k{k}"), || {
        let mut m = footprint(n, k, Some(d), 0).hmm(d, w, l);
        run_conv_hmm(&mut m, &a, &b, p).unwrap().value
    });
}
