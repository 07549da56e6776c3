//! The PRAM preset reproduces the standalone PRAM simulator that preceded
//! it, step for step.
//!
//! `tests/golden/pram_model.txt` was recorded by that simulator, one line
//! per run:
//!
//! * `sum n p time instructions digest` — the Lemma 3 sum;
//! * `conv n k p time instructions digest` — the Lemma 4 convolution.
//!
//! `p` is the requested processor count (the runners clamp it to
//! `[1, n]`) and `digest` is the FNV-1a hash of the whole memory after
//! the run, each word little-endian. The inputs are seeded as in the
//! Table I generator. Every line must be reproduced exactly; the file is
//! the reference, so it is never re-recorded from the engine.
//!
//! For the smaller runs the cycle-limit boundary is pinned too: a limit
//! of `time − 1` ends in `CycleLimit`, a limit of `time` completes.

use hmm_algorithms::pram::{conv_footprint, run_convolution, run_sum, sum_footprint};
use hmm_core::Machine;
use hmm_machine::{SimError, SimReport, SimResult, Word};
use hmm_workloads::random_words;

const GOLDEN: &str = include_str!("golden/pram_model.txt");

fn fnv1a(memory: &[Word]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in memory {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// One golden line, parsed.
struct Pin {
    line: &'static str,
    shape: Vec<usize>,
    time: u64,
    instructions: u64,
    digest: u64,
}

fn pins(kind: &str) -> Vec<Pin> {
    let pins: Vec<Pin> = GOLDEN
        .lines()
        .filter(|l| l.split(' ').next() == Some(kind))
        .map(|line| {
            let f: Vec<&str> = line.split(' ').collect();
            let [.., time, instructions, digest] = f[..] else {
                panic!("malformed golden line {line:?}");
            };
            Pin {
                line,
                shape: f[1..f.len() - 3]
                    .iter()
                    .map(|x| x.parse().unwrap())
                    .collect(),
                time: time.parse().unwrap(),
                instructions: instructions.parse().unwrap(),
                digest: u64::from_str_radix(digest, 16).unwrap(),
            }
        })
        .collect();
    assert!(!pins.is_empty(), "no {kind} lines in the golden file");
    pins
}

/// Check one run against its pin; with `boundary`, also rerun `launch` on
/// machines limited to `time − 1` and `time` units.
fn check(
    pin: &Pin,
    build: impl Fn() -> Machine,
    launch: impl Fn(&mut Machine) -> SimResult<SimReport>,
    boundary: bool,
) {
    let mut m = build();
    let rep = launch(&mut m).unwrap();
    assert_eq!(
        (rep.time, rep.instructions, fnv1a(m.global())),
        (pin.time, pin.instructions, pin.digest),
        "{}",
        pin.line
    );
    if boundary {
        let mut short = build().with_cycle_limit(pin.time - 1);
        assert_eq!(
            launch(&mut short).unwrap_err(),
            SimError::CycleLimit {
                limit: pin.time - 1
            },
            "{}",
            pin.line
        );
        let mut exact = build().with_cycle_limit(pin.time);
        assert_eq!(launch(&mut exact).unwrap().time, pin.time, "{}", pin.line);
    }
}

#[test]
fn pram_sums_match_the_golden_runs() {
    for pin in pins("sum") {
        let [n, p] = pin.shape[..] else {
            panic!("{}", pin.line)
        };
        let input = random_words(n, n as u64 ^ p as u64, 100);
        check(
            &pin,
            || sum_footprint(n, p).pram(p),
            |m| run_sum(m, &input, p).map(|r| r.report),
            n <= 4096,
        );
    }
}

#[test]
fn pram_convolutions_match_the_golden_runs() {
    for pin in pins("conv") {
        let [n, k, p] = pin.shape[..] else {
            panic!("{}", pin.line)
        };
        let a = random_words(k, k as u64, 50);
        let b = random_words(n + k - 1, n as u64, 50);
        check(
            &pin,
            || conv_footprint(n, k).pram(p),
            |m| run_convolution(m, &a, &b, p).map(|r| r.report),
            n * k <= 8192,
        );
    }
}
