//! Every runner family's footprint is exact. A machine of exactly the
//! footprint runs and matches the sequential reference; one global word
//! less is rejected with `BadLaunch` before anything is staged; one
//! shared word less stops the launch with `OutOfBounds`. None of them
//! panics.

use hmm_algorithms::contiguous::{self, run_access, run_copy, AccessMode};
use hmm_algorithms::convolution::{self, run_conv_blocked, run_conv_dmm_umm, run_conv_hmm};
use hmm_algorithms::matmul::{self, matmul_reference, run_matmul_hmm, run_matmul_umm};
use hmm_algorithms::patterns::{self, run_figure1, run_transpose, Figure1};
use hmm_algorithms::permutation::{
    self, run_permutation_naive, run_permutation_scheduled, schedule_permutation, transpose_perm,
};
use hmm_algorithms::prefix::{self, run_prefix_dmm_umm, run_prefix_hmm};
use hmm_algorithms::reduce::{run_reduce_dmm_umm, run_reduce_hmm, ReduceOp};
use hmm_algorithms::sort::{self, run_sort_hmm, run_sort_umm};
use hmm_algorithms::string_match::{self, match_reference, run_match_dmm_umm};
use hmm_algorithms::sum::{dmm_umm, hmm_all, hmm_single, run_sum_hmm_single_dmm};
use hmm_algorithms::{reference, Footprint};
use hmm_machine::{Machine, SimError, SimResult, Word};
use hmm_workloads::random_words;

const W: usize = 4;
const L: usize = 8;

/// A launch that reports whether its output matches the reference.
type Launch = Box<dyn Fn(&mut Machine) -> SimResult<bool>>;

/// One runner on one input: its footprint, the machine it runs on (the
/// DMM count of an HMM, or `None` for a UMM) and the launch.
struct Case {
    name: &'static str,
    need: Footprint,
    dmms: Option<usize>,
    run: Launch,
}

fn case(
    name: &'static str,
    need: Footprint,
    dmms: Option<usize>,
    run: impl Fn(&mut Machine) -> SimResult<bool> + 'static,
) -> Case {
    Case {
        name,
        need,
        dmms,
        run: Box::new(run),
    }
}

fn machine(dmms: Option<usize>, global: usize, shared: usize) -> Machine {
    match dmms {
        Some(d) => Machine::hmm(d, W, L, global, shared),
        None => Machine::umm(W, L, global),
    }
}

fn sorted(input: &[Word]) -> Vec<Word> {
    let mut v = input.to_vec();
    v.sort_unstable();
    v
}

#[allow(clippy::too_many_lines)]
fn cases() -> Vec<Case> {
    let input = random_words(100, 1, 1000);
    let (a, b) = (random_words(5, 2, 20), random_words(54, 3, 20));
    let conv = reference::convolution(&a, &b).value;
    let n = b.len() + 1 - a.len();
    let side = 8;
    let (ma, mb) = (
        random_words(side * side, 4, 20),
        random_words(side * side, 5, 20),
    );
    let product = matmul_reference(&ma, &mb, side);
    let perm = transpose_perm(side);
    let moved = reference::permute(&input[..side * side], &perm).value;
    let (pattern, text) = (random_words(4, 6, 3), random_words(30, 7, 3));
    let scores = match_reference(&pattern, &text);

    let sum = reference::sum(&input).value;
    let min = ReduceOp::Min.fold(&input);
    let prefix_sums = reference::prefix_sums(&input).value;
    let ascending = sorted(&input);
    let inp = move || input.clone();
    vec![
        case("sum/lemma5", dmm_umm::footprint(100), None, {
            let input = inp();
            move |m| Ok(run_reduce_dmm_umm(m, &input, 16, ReduceOp::Min)?.value == min)
        }),
        case("sum/lemma6", hmm_single::footprint(100, 12), Some(2), {
            let input = inp();
            move |m| Ok(run_sum_hmm_single_dmm(m, &input, 12)?.value == sum)
        }),
        case("sum/theorem7", hmm_all::footprint(100, 24, 4), Some(4), {
            let input = inp();
            move |m| Ok(run_reduce_hmm(m, &input, 24, ReduceOp::Sum)?.value == sum)
        }),
        case(
            "conv/strided",
            convolution::footprint(n, 5, None, 0),
            None,
            {
                let (a, b, c) = (a.clone(), b.clone(), conv.clone());
                move |m| Ok(run_conv_dmm_umm(m, &a, &b, 16)?.value == c)
            },
        ),
        case(
            "conv/blocked",
            convolution::footprint(n, 5, None, 3),
            None,
            {
                let (a, b, c) = (a.clone(), b.clone(), conv.clone());
                move |m| Ok(run_conv_blocked(m, &a, &b, 3)?.value == c)
            },
        ),
        case(
            "conv/theorem9",
            convolution::footprint(n, 5, Some(4), 0),
            Some(4),
            move |m| Ok(run_conv_hmm(m, &a, &b, 16)?.value == conv),
        ),
        case("prefix/single", prefix::footprint(100, 16, None), None, {
            let (input, out) = (inp(), prefix_sums.clone());
            move |m| Ok(run_prefix_dmm_umm(m, &input, 16)?.value == out)
        }),
        case(
            "prefix/hmm",
            prefix::footprint(100, 16, Some(4)),
            Some(4),
            {
                let input = inp();
                move |m| Ok(run_prefix_hmm(m, &input, 16)?.value == prefix_sums)
            },
        ),
        case("sort/single", sort::footprint(100, None), None, {
            let (input, out) = (inp(), ascending.clone());
            move |m| Ok(run_sort_umm(m, &input, 16)?.value == out)
        }),
        case("sort/hmm", sort::footprint(100, Some(4)), Some(4), {
            let input = inp();
            move |m| Ok(run_sort_hmm(m, &input, 16)?.value == ascending)
        }),
        case("matmul/single", matmul::footprint(side, None, 0), None, {
            let (a, b, c) = (ma.clone(), mb.clone(), product.clone());
            move |m| Ok(run_matmul_umm(m, &a, &b, side, 16)?.value == c)
        }),
        case(
            "matmul/hmm",
            matmul::footprint(side, Some(2), 4),
            Some(2),
            move |m| Ok(run_matmul_hmm(m, &ma, &mb, side, 4, 8)?.value == product),
        ),
        case(
            "permutation/scheduled",
            permutation::footprint(side * side, Some(&schedule_permutation(&perm, W))),
            None,
            {
                let (input, perm, out) = (inp(), perm.clone(), moved.clone());
                move |m| {
                    Ok(run_permutation_scheduled(m, &input[..side * side], &perm, 8)?.value == out)
                }
            },
        ),
        case(
            "permutation/naive",
            permutation::footprint(side * side, None),
            None,
            {
                let input = inp();
                move |m| {
                    Ok(run_permutation_naive(m, &input[..side * side], &perm, 8)?.value == moved)
                }
            },
        ),
        case(
            "string_match",
            string_match::footprint(4, 30),
            None,
            move |m| Ok(run_match_dmm_umm(m, &pattern, &text, 8)?.value == scores),
        ),
        case(
            "contiguous/access",
            contiguous::footprint(64, 1),
            None,
            |m| {
                run_access(m, 64, 16, AccessMode::Write)?;
                Ok(m.global()[..64].iter().all(|&v| v == 1))
            },
        ),
        case("contiguous/copy", contiguous::footprint(64, 2), None, {
            let input = inp();
            move |m| {
                run_copy(m, &input[..64], 16)?;
                Ok(m.global()[64..128] == input[..64])
            }
        }),
        case(
            "patterns/figure1",
            patterns::footprint(side, 1),
            None,
            move |m| {
                run_figure1(m, Figure1::Diagonal, side, side)?;
                Ok(true)
            },
        ),
        case("patterns/transpose", patterns::footprint(side, 2), None, {
            let input = inp();
            move |m| {
                let a = &input[..side * side];
                m.global_mut()[..side * side].copy_from_slice(a);
                run_transpose(m, side)?;
                let out = &m.global()[side * side..];
                Ok((0..side * side).all(|i| out[(i % side) * side + i / side] == a[i]))
            }
        }),
    ]
}

#[test]
fn footprints_are_exact_and_undersized_machines_are_typed_errors() {
    for Case {
        name,
        need,
        dmms,
        run,
    } in cases()
    {
        let Footprint { global, shared } = need;
        assert_eq!(
            run(&mut machine(dmms, global, shared)),
            Ok(true),
            "{name}: a machine of exactly {need:?} must run and match the reference"
        );
        let short = run(&mut machine(dmms, global - 1, shared));
        assert!(
            matches!(short, Err(SimError::BadLaunch(_))),
            "{name}: one global word short must be rejected, got {short:?}"
        );
        if shared > 0 {
            let short = run(&mut machine(dmms, global, shared - 1));
            assert!(
                matches!(short, Err(SimError::OutOfBounds { .. })),
                "{name}: one shared word short must stop the launch, got {short:?}"
            );
        }
    }
}
