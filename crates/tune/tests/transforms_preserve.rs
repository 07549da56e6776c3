//! Property test: every layout transform the tuner applies is
//! semantics-preserving.
//!
//! For seeded-random candidates and problem sizes, the transformed
//! kernel, the untransformed kernel, and the host sequential reference
//! must all agree. This is the safety net under the whole search: the
//! tuner may only ever trade *time*, never *answers*.

use hmm_machine::{LaunchShape, Machine, Word};
use hmm_tune::{tunable, Candidate, Tunable};
use hmm_util::Rng;

/// Run one candidate and return the output.
fn run(t: &dyn Tunable, c: &Candidate, n: usize, seed: u64) -> Vec<Word> {
    let tk = t.build(c, n).expect("feasible candidate must build");
    let input = t.input(n, seed);
    let mut m = Machine::hmm(c.d, c.w, c.l, tk.global_size, tk.shared_size);
    m.load_global(tk.input_base, &input);
    m.launch(&tk.kernel, LaunchShape::Even(tk.threads))
        .expect("launch");
    m.global()[tk.out_base..tk.out_base + tk.out_len].to_vec()
}

/// Draw a random candidate: machine axes are powers of two so the sum
/// kernel's tree is feasible; layout knobs cover the full tuner menu.
fn random_candidate(rng: &mut Rng) -> Candidate {
    Candidate {
        d: 1 << rng.usize_below(3),
        w: [4usize, 8, 16][rng.usize_below(3)],
        l: [4usize, 32][rng.usize_below(2)],
        warps: 1 << rng.usize_below(3),
        pad: rng.usize_below(3),
        swizzle: rng.coin(),
        transpose: rng.coin(),
        unroll: 1 + rng.usize_below(3),
    }
}

#[test]
fn random_transformed_kernels_match_untransformed_and_reference() {
    let mut rng = Rng::new(0xDECAF);
    for family in ["sum", "conv"] {
        let t = tunable(family).unwrap();
        let mut checked = 0;
        for trial in 0..40u64 {
            let c = random_candidate(&mut rng);
            let n = 1 + rng.usize_below(600);
            if t.build(&c, n).is_err() {
                // Infeasible draw (e.g. shared cap): rejection is the
                // correct behaviour, not a test subject.
                continue;
            }
            let plain = Candidate {
                pad: 0,
                swizzle: false,
                transpose: false,
                unroll: 1,
                ..c
            };
            let seed = 1000 + trial;
            let expect = t.reference(&t.input(n, seed));
            let got_plain = run(t.as_ref(), &plain, n, seed);
            let got_tuned = run(t.as_ref(), &c, n, seed);
            assert_eq!(
                got_plain,
                expect,
                "{family} untransformed diverged: {} n={n}",
                plain.id()
            );
            assert_eq!(
                got_tuned,
                expect,
                "{family} transformed diverged: {} n={n}",
                c.id()
            );
            checked += 1;
        }
        assert!(
            checked >= 20,
            "{family}: only {checked}/40 draws were feasible — space too tight for the property to bite"
        );
    }
}

#[test]
fn transforms_preserve_answers_at_extreme_sizes() {
    // Edge sizes: n = 1, n smaller than one tile, n one past a tile
    // boundary, and a ragged prime.
    let knobs = Candidate {
        d: 2,
        w: 8,
        l: 8,
        warps: 2,
        pad: 1,
        swizzle: true,
        transpose: true,
        unroll: 2,
    };
    for family in ["sum", "conv"] {
        let t = tunable(family).unwrap();
        for n in [1usize, 7, 129, 257, 509] {
            let expect = t.reference(&t.input(n, 5));
            assert_eq!(
                run(t.as_ref(), &knobs, n, 5),
                expect,
                "{family} n={n} with all knobs on"
            );
        }
    }
}
