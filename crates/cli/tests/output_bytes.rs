//! Golden bytes of the CLI's `--json` output: the length and a 64-bit
//! FNV-1a digest of what `hmm-cli <command> --json` prints for every
//! algorithm command on every machine, one profile and one batch sweep.
//! Any change to a simulated number or to the rendering fails here.

use hmm_cli::run::render;
use hmm_cli::{execute, Args};

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// `(length, digest)` of the `--json` rendering of one command line.
fn pin(line: &str) -> (usize, u64) {
    let args = Args::parse(line.split_whitespace().map(String::from)).unwrap();
    assert!(args.has("json"), "{line}: pins cover --json output");
    let outcome = execute(&args).unwrap_or_else(|e| panic!("{line}: {e}"));
    let text = render(&outcome, true);
    (text.len(), fnv1a(text.as_bytes()))
}

const SHAPE: &str = "--n 200 --k 8 --p 32 --w 8 --l 16 --d 4 --seed 7 --json";

#[rustfmt::skip]
const PINS: &[(&str, &str, usize, u64)] = &[
    ("sum --machine dmm", SHAPE, 743, 0xc273235157011218),
    ("reduce --op sum --machine dmm", SHAPE, 743, 0xc273235157011218),
    ("reduce --op min --machine dmm", SHAPE, 742, 0x2a1b39aab9adaa4e),
    ("reduce --op max --machine dmm", SHAPE, 741, 0x33c0db5572bf0b43),
    ("conv --machine dmm", SHAPE, 756, 0x902435144f0e4574),
    ("prefix --machine dmm", SHAPE, 769, 0x7cc9811d686bb151),
    ("sort --machine dmm", SHAPE, 777, 0x2bf936d0b6a04414),
    ("sum --machine umm", SHAPE, 743, 0xb8d84d3f5a575bf7),
    ("reduce --op sum --machine umm", SHAPE, 743, 0xb8d84d3f5a575bf7),
    ("reduce --op min --machine umm", SHAPE, 742, 0xb317133586e49227),
    ("reduce --op max --machine umm", SHAPE, 741, 0x5d772ab221e29eac),
    ("conv --machine umm", SHAPE, 760, 0x2cbb914e5dc1fd7e),
    ("prefix --machine umm", SHAPE, 769, 0x8d441bf276ea4b5c),
    ("sort --machine umm", SHAPE, 777, 0xe610b882ec6fc957),
    ("sum --machine hmm", SHAPE, 1450, 0x8613aca153ddc719),
    ("reduce --op sum --machine hmm", SHAPE, 1450, 0x8613aca153ddc719),
    ("reduce --op min --machine hmm", SHAPE, 1449, 0x2a91c2a1ab1beb27),
    ("reduce --op max --machine hmm", SHAPE, 1448, 0x1843c46ed01817a8),
    ("conv --machine hmm", SHAPE, 1474, 0xe108f92e0ef8e161),
    ("prefix --machine hmm", SHAPE, 1447, 0x5621c936c2daf773),
    ("sort --machine hmm", SHAPE, 1471, 0xa083ce76b0082555),
    ("profile sort-hmm", SHAPE, 289492, 0xd1a2fd197bccf22f),
    ("batch --cmd conv --sweep d --values 1,2,4 --threads 1", SHAPE, 4303, 0x4021045133f78f74),
];

#[test]
fn json_output_bytes_are_pinned() {
    let mut wrong = Vec::new();
    for &(command, flags, len, digest) in PINS {
        let line = format!("{command} {flags}");
        let got = pin(&line);
        if got != (len, digest) {
            wrong.push(format!(
                "    ({command:?}, {flags:?}, {}, {:#018x}),",
                got.0, got.1
            ));
        }
    }
    assert!(wrong.is_empty(), "changed outputs:\n{}", wrong.join("\n"));
}
