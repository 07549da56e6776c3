//! Golden test: the tuner's winner and full leaderboard are pinned for
//! `sum` and `convolution` at a fixed seed and space, and must be
//! bit-identical at 1 and 4 measurement threads. The predict stage's
//! analyses and cost estimates are pinned by digest for every candidate
//! of the stock spaces.
//!
//! These numbers are simulated time units, so they are exact: any
//! change to the engine's cost model, the kernels, the transforms, or
//! the search order shows up here first — deliberately. Update the
//! constants only alongside the change that moves them, and say why in
//! the commit.

use hmm_tune::{tune, TuneConfig, TuneReport, TuneSpace};

fn tune_at(algo: &str, n: usize, space: &str, threads: usize) -> TuneReport {
    let mut cfg = TuneConfig::new(algo);
    cfg.n = n;
    cfg.seed = 42;
    cfg.budget = 64;
    cfg.threads = threads;
    cfg.space = TuneSpace::parse(space).unwrap();
    tune(&cfg).unwrap()
}

fn board(report: &TuneReport) -> Vec<(String, u64)> {
    report
        .leaderboard()
        .into_iter()
        .map(|idx| {
            let e = &report.entries[idx];
            (
                e.id.clone(),
                e.measured.expect("leaderboard entries are measured"),
            )
        })
        .collect()
}

fn pinned(rows: &[(&str, u64)]) -> Vec<(String, u64)> {
    rows.iter().map(|&(id, t)| (id.to_string(), t)).collect()
}

const SUM_SPACE: &str = "warps=1,2,4;pad=0,1;swizzle=0,1;unroll=1,2";

/// The sum board tells the model's story: unrolled 2-warp launches win
/// outright, and at 4 warps — where the shared pipe saturates — the
/// pad/swizzle conflict repairs beat their unrepaired twins (821 < 851),
/// while stacking both remaps pays twice for one fix.
const SUM_BOARD: &[(&str, u64)] = &[
    ("d4w8l32x2+un2", 717),
    ("d4w8l32x2", 725),
    ("d4w8l32x2+swz+un2", 782),
    ("d4w8l32x2+pad1+un2", 782),
    ("d4w8l32x2+swz", 790),
    ("d4w8l32x2+pad1", 790),
    ("d4w8l32x4+swz+un2", 813),
    ("d4w8l32x4+pad1+un2", 813),
    ("d4w8l32x4+swz", 821),
    ("d4w8l32x4+pad1", 821),
    ("d4w8l32x4+un2", 845),
    ("d4w8l32x4", 851),
    ("d4w8l32x2+pad1+swz+un2", 1106),
    ("d4w8l32x2+pad1+swz", 1114),
    ("d4w8l32x1+un2", 1172),
    ("d4w8l32x1", 1188),
    ("d4w8l32x4+pad1+swz+un2", 1189),
    ("d4w8l32x4+pad1+swz", 1197),
    ("d4w8l32x1+swz+un2", 1248),
    ("d4w8l32x1+pad1+un2", 1248),
    ("d4w8l32x1+swz", 1264),
    ("d4w8l32x1+pad1", 1264),
    ("d4w8l32x1+pad1+swz+un2", 1684),
    ("d4w8l32x1+pad1+swz", 1700),
];

const CONV_SPACE: &str = "warps=1,2;pad=0,1;transpose=0,1;unroll=1,2";

/// The conv kernel is conflict-free by construction, so every layout
/// knob is pure overhead: the board ranks exactly by how much remap
/// arithmetic each candidate pays per shared access.
const CONV_BOARD: &[(&str, u64)] = &[
    ("d4w8l32x2+un2", 833),
    ("d4w8l32x2", 847),
    ("d4w8l32x2+pad1+un2", 1140),
    ("d4w8l32x2+pad1", 1154),
    ("d4w8l32x2+tr+un2", 1494),
    ("d4w8l32x2+tr", 1508),
    ("d4w8l32x1+un2", 1537),
    ("d4w8l32x1", 1571),
    ("d4w8l32x1+pad1+un2", 2144),
    ("d4w8l32x1+pad1", 2178),
    ("d4w8l32x2+pad1+tr+un2", 2403),
    ("d4w8l32x2+pad1+tr", 2417),
    ("d4w8l32x1+tr+un2", 2842),
    ("d4w8l32x1+tr", 2876),
    ("d4w8l32x1+pad1+tr+un2", 4635),
    ("d4w8l32x1+pad1+tr", 4669),
];

#[test]
fn sum_winner_and_leaderboard_are_pinned_across_thread_counts() {
    let r1 = tune_at("sum", 512, SUM_SPACE, 1);
    assert_eq!(r1.baseline_id, "d4w8l32x1");
    assert_eq!(r1.baseline_time, 1188);
    assert_eq!(r1.winner_id, "d4w8l32x2+un2");
    assert_eq!(r1.winner_time, 717);
    assert_eq!(board(&r1), pinned(SUM_BOARD));

    let r4 = tune_at("sum", 512, SUM_SPACE, 4);
    assert_eq!(
        r1.to_json().to_json_pretty(),
        r4.to_json().to_json_pretty(),
        "sum report must be bit-identical at 1 and 4 threads"
    );
}

#[test]
fn conv_winner_and_leaderboard_are_pinned_across_thread_counts() {
    let r1 = tune_at("conv", 256, CONV_SPACE, 1);
    assert_eq!(r1.baseline_id, "d4w8l32x1");
    assert_eq!(r1.baseline_time, 1571);
    assert_eq!(r1.winner_id, "d4w8l32x2+un2");
    assert_eq!(r1.winner_time, 833);
    assert_eq!(board(&r1), pinned(CONV_BOARD));

    let r4 = tune_at("conv", 256, CONV_SPACE, 4);
    assert_eq!(
        r1.to_json().to_json_pretty(),
        r4.to_json().to_json_pretty(),
        "conv report must be bit-identical at 1 and 4 threads"
    );
}

#[test]
fn golden_runs_satisfy_the_tuner_contract() {
    // The documented acceptance bar, checked on the pinned runs: the
    // winner is never slower than the untuned default, and every
    // measured candidate carries a predicted-vs-measured error.
    for (algo, n, space) in [("sum", 512, SUM_SPACE), ("conv", 256, CONV_SPACE)] {
        let r = tune_at(algo, n, space, 1);
        assert!(r.winner_time <= r.baseline_time, "{algo}");
        assert!(r.speedup >= 1.0, "{algo}");
        for idx in r.leaderboard() {
            let e = &r.entries[idx];
            assert!(
                e.error_pct.is_some(),
                "{algo}: measured candidate {} lacks a prediction error",
                e.id
            );
        }
    }
}

/// 64-bit FNV-1a, continued from `h`.
fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The predict stage's outputs for every candidate of a family's stock
/// space at its default `n`: `(candidates, analysis JSON bytes, FNV-1a
/// of the analysis JSON, FNV-1a of the prediction bits)`. The digests
/// run over the candidates in enumeration order; a candidate that does
/// not build contributes its error text to both.
fn predict_stage_digest(algo: &str) -> (usize, usize, u64, u64) {
    use hmm_analysis::{analyze, predict, AnalysisConfig};
    let alg = hmm_tune::tunable(algo).unwrap();
    let n = alg.default_n();
    let candidates = TuneSpace::default().enumerate().unwrap();
    let (mut bytes, mut json_h, mut bits_h) = (0, FNV_OFFSET, FNV_OFFSET);
    for c in &candidates {
        let tk = match alg.build(c, n) {
            Ok(tk) => tk,
            Err(e) => {
                json_h = fnv1a(json_h, e.to_string().as_bytes());
                bits_h = fnv1a(bits_h, e.to_string().as_bytes());
                continue;
            }
        };
        let cfg = AnalysisConfig::hmm(c.w, c.d).with_launch(tk.threads as i64, c.d);
        let analysis = analyze(&tk.kernel.program, &cfg);
        let json = analysis.to_json().to_json();
        bytes += json.len();
        json_h = fnv1a(json_h, json.as_bytes());
        let est = predict(&analysis, &tk.theta);
        for x in [est.time_units, est.global_inflation, est.shared_inflation] {
            bits_h = fnv1a(bits_h, &x.to_bits().to_le_bytes());
        }
    }
    (candidates.len(), bytes, json_h, bits_h)
}

/// The analyzer and cost model are pure functions of the program, so
/// these pins hold across any refactor of the predict stage that is
/// meant to leave its results alone.
#[test]
fn predict_stage_outputs_are_pinned() {
    assert_eq!(
        predict_stage_digest("sum"),
        (48, 142_583, 0xeb8a_8fd7_7fc7_a8fe, 0xb108_34ec_a712_363c),
        "sum"
    );
    assert_eq!(
        predict_stage_digest("conv"),
        (48, 79_704, 0xec98_388a_14ac_e310, 0x3d73_9c55_adc4_c305),
        "conv"
    );
}

/// The built programs of every candidate of `space` for `algo` at each
/// `n`: `(builds, rejected, disassembly bytes, FNV-1a)`. The digest runs
/// over the candidates in enumeration order, `n` slowest; a candidate
/// that does not build contributes its error text.
fn program_digest(algo: &str, ns: &[usize], space: &str) -> (usize, usize, usize, u64) {
    let alg = hmm_tune::tunable(algo).unwrap();
    let candidates = TuneSpace::parse(space).unwrap().enumerate().unwrap();
    let (mut builds, mut rejected, mut bytes, mut h) = (0, 0, 0, FNV_OFFSET);
    for &n in ns {
        for c in &candidates {
            builds += 1;
            let text = match alg.build(c, n) {
                Ok(tk) => {
                    let asm = hmm_machine::disassemble(&tk.kernel.program);
                    bytes += asm.len();
                    asm
                }
                Err(e) => {
                    rejected += 1;
                    e.to_string()
                }
            };
            h = fnv1a(h, text.as_bytes());
        }
    }
    (builds, rejected, bytes, h)
}

/// Every knob at several widths and DMM counts: pad 0–3, swizzle,
/// transpose and unroll 1–4.
const WIDE_SPACE: &str =
    "d=1,4;w=4,8,16;warps=1,2;pad=0,1,2,3;swizzle=0,1;transpose=0,1;unroll=1,2,3,4";

/// A non-power-of-two width: every swizzle is rejected, and the sum
/// tree rejects the width before any transform runs.
const W6_SPACE: &str = "d=2;w=6;warps=1,2;pad=0,2;swizzle=0,1;transpose=0,1;unroll=1,3";

/// The instruction streams the tuner prices and launches, pinned for
/// the stock space and wider ones: a change to how the layout
/// transforms are compiled must leave every program, and the text of
/// every rejection, exactly as it was.
#[test]
fn built_programs_are_pinned() {
    let ns = [1, 7, 96, 1024];
    let stock = TuneSpace::default().render();
    let cases = [
        (
            "sum",
            stock.as_str(),
            (192, 0, 2_034_920, 0xaf2e_a695_d4ad_1555),
        ),
        (
            "conv",
            stock.as_str(),
            (192, 0, 942_768, 0xa814_b1d0_45c7_c325),
        ),
        (
            "sum",
            WIDE_SPACE,
            (1_536, 0, 21_034_756, 0xc1ed_c55f_f713_6239),
        ),
        (
            "conv",
            WIDE_SPACE,
            (1_536, 0, 20_006_536, 0x0cfc_36ef_51f8_c4f5),
        ),
        ("sum", W6_SPACE, (128, 128, 0, 0x340b_ff77_7a65_eba5)),
        ("conv", W6_SPACE, (128, 64, 386_288, 0xa6b5_d5da_e201_39b5)),
    ];
    for (algo, space, want) in cases {
        let ns: &[usize] = if space == WIDE_SPACE { &[7, 96] } else { &ns };
        assert_eq!(program_digest(algo, ns, space), want, "{algo} over {space}");
    }
}

/// The report document of a golden run: `(bytes, FNV-1a)` of its
/// pretty-printed JSON.
fn report_digest(algo: &str, n: usize, space: &str) -> (usize, u64) {
    let json = tune_at(algo, n, space, 1).to_json().to_json_pretty();
    (json.len(), fnv1a(FNV_OFFSET, json.as_bytes()))
}

/// The report bytes — every key, including the constant ones such as
/// `prune_factor`, and every number's formatting — are pinned, so a
/// refactor of the tuner or its report cannot change what `hmm-cli
/// tune --out` writes without showing up here.
#[test]
fn report_bytes_are_pinned() {
    assert_eq!(
        report_digest("sum", 512, SUM_SPACE),
        (9016, 0x5763_fd3a_c75a_6da6),
        "sum"
    );
    assert_eq!(
        report_digest("conv", 256, CONV_SPACE),
        (6469, 0xcc93_ac42_6ae7_8c3c),
        "conv"
    );
}
