//! Randomised correctness: every parallel implementation of the sum
//! and convolution computes exactly the sequential reference, on all
//! machine shapes — random inputs, random problem/machine parameters,
//! seeded so every run checks the same cases.

use hmm_algorithms::convolution::{self, run_conv_blocked, run_conv_dmm_umm, run_conv_hmm};
use hmm_algorithms::sum::{
    dmm_umm, hmm_all, hmm_single, run_sum_dmm_umm, run_sum_hmm, run_sum_hmm_single_dmm,
};
use hmm_algorithms::{pram, reference};
use hmm_machine::Word;
use hmm_util::Rng;

fn random_vec(rng: &mut Rng, len: usize) -> Vec<Word> {
    (0..len).map(|_| rng.int_in(-1000, 999)).collect()
}

#[test]
fn sum_agrees_everywhere() {
    let mut rng = Rng::new(0x5D17);
    for _ in 0..24 {
        let n = 1 + rng.usize_below(399);
        let input = random_vec(&mut rng, n);
        let w = 1 << (1 + rng.usize_below(3));
        let d = 1 << rng.usize_below(3);
        let p = ((1 << rng.usize_below(8)) * d).min(512);
        let l = 1 + rng.usize_below(23);
        let expect = reference::sum(&input).value;

        let mut dmm = dmm_umm::footprint(n).dmm(w, l);
        assert_eq!(run_sum_dmm_umm(&mut dmm, &input, p).unwrap().value, expect);

        let mut umm = dmm_umm::footprint(n).umm(w, l);
        assert_eq!(run_sum_dmm_umm(&mut umm, &input, p).unwrap().value, expect);

        let mut hmm = hmm_all::footprint(n, p, d).hmm(d, w, l);
        assert_eq!(run_sum_hmm(&mut hmm, &input, p).unwrap().value, expect);

        let q = (w * l).min(128);
        let mut hmm1 = hmm_single::footprint(n, q).hmm(d, w, l);
        assert_eq!(
            run_sum_hmm_single_dmm(&mut hmm1, &input, q).unwrap().value,
            expect
        );

        let mut pm = pram::sum_footprint(n, p).pram(p);
        assert_eq!(pram::run_sum(&mut pm, &input, p).unwrap().value, expect);
    }
}

#[test]
fn convolution_agrees_everywhere() {
    let mut rng = Rng::new(0xC04F);
    for _ in 0..24 {
        let k = 1 + rng.usize_below(11);
        let n = 1 + rng.usize_below(159);
        let seed = rng.below(1000);
        let a = hmm_workloads::random_words(k, seed, 100);
        let b = hmm_workloads::random_words(n + k - 1, seed + 1, 100);
        let w = 1 << (1 + rng.usize_below(3));
        let d = 1 << rng.usize_below(3);
        let p = ((1 << rng.usize_below(7)) * d).min(256);
        let l = 1 + rng.usize_below(15);
        let expect = reference::convolution(&a, &b).value;
        let single = convolution::footprint(n, k, None, 0);

        let mut umm = single.umm(w, l);
        assert_eq!(run_conv_dmm_umm(&mut umm, &a, &b, p).unwrap().value, expect);

        let mut dmm = single.dmm(w, l);
        assert_eq!(run_conv_dmm_umm(&mut dmm, &a, &b, p).unwrap().value, expect);

        let mut hmm = convolution::footprint(n, k, Some(d), 0).hmm(d, w, l);
        assert_eq!(run_conv_hmm(&mut hmm, &a, &b, p).unwrap().value, expect);

        let q = k.min(3);
        let mut blocked = convolution::footprint(n, k, None, q).umm(w, l);
        assert_eq!(
            run_conv_blocked(&mut blocked, &a, &b, q).unwrap().value,
            expect
        );

        let mut pm = pram::conv_footprint(n, k).pram(p);
        assert_eq!(
            pram::run_convolution(&mut pm, &a, &b, p).unwrap().value,
            expect
        );
    }
}
