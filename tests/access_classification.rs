//! Property test of the access classification the tuner's predict stage
//! prices candidates by: for random single-access affine programs, the
//! slots per transaction the simulator measures must lie inside the
//! `Degree` that `hmm_analysis::classify_accesses` predicts.
//!
//! Each program reads or writes `base + s·x + off`, with `x` the
//! thread's `ltid` or `gid`, a stride `|s| ≤ w + 1`, an optional
//! argument word added to the base (unknown to the analysis) and an
//! optional `if ltid < k` guard around the access. It runs on a DMM, a UMM and
//! both memories of an HMM, at widths 2 to 32, with full and partial
//! warps.

use hmm_analysis::{classify_accesses, AnalysisConfig, Degree};
use hmm_machine::isa::{Reg, Space};
use hmm_machine::{abi, Asm, Kernel, LaunchShape, Machine, Program, Word};
use hmm_util::Rng;

/// One drawn access: `base + s·x [+ arg0] + off`, guarded by `ltid < k`.
#[derive(Debug, Clone, Copy)]
struct Access {
    space: Space,
    write: bool,
    gid: bool,
    s: i64,
    base: i64,
    off: i64,
    arg: Option<Word>,
    guard: Option<i64>,
}

fn program(a: Access) -> Program {
    let mut asm = Asm::new();
    let (addr, cond) = (Reg(16), Reg(17));
    let end = asm.label();
    asm.mul(addr, if a.gid { abi::GID } else { abi::LTID }, a.s);
    asm.add(addr, addr, a.base);
    if a.arg.is_some() {
        asm.add(addr, addr, abi::arg(0));
    }
    if let Some(k) = a.guard {
        asm.slt(cond, abi::LTID, k);
        asm.brz(cond, end);
    }
    if a.write {
        asm.st(a.space, addr, a.off, abi::GID);
    } else {
        asm.ld(Reg(18), a.space, addr, a.off);
    }
    asm.bind(end);
    asm.halt();
    asm.finish()
}

#[test]
fn measured_slots_lie_inside_the_predicted_degree() {
    let mut rng = Rng::new(0xACCE55);
    let (mut checked, mut conflicted, mut ranged) = (0, 0, 0);
    for machine in ["dmm", "umm", "hmm-shared", "hmm-global"] {
        for w in [2usize, 4, 8, 32] {
            for case in 0..24 {
                let d = if machine.starts_with("hmm") {
                    1 << rng.usize_below(3)
                } else {
                    1
                };
                // Full warps only, or full warps and a partial one.
                let partial = if case % 2 == 0 {
                    0
                } else {
                    1 + rng.usize_below(w - 1)
                };
                let pd = rng.usize_below(3) * w + partial;
                let pd = pd.max(1);
                let p = d * pd;
                let wi = w as i64;
                let span = (wi + 1) * p as i64;
                let a = Access {
                    space: if machine == "hmm-shared" {
                        Space::Shared
                    } else {
                        Space::Global
                    },
                    write: rng.coin(),
                    gid: rng.coin(),
                    s: rng.int_in(-(wi + 1), wi + 1),
                    base: span + rng.int_in(0, 2 * wi),
                    off: rng.int_in(0, wi),
                    arg: rng.coin().then(|| rng.int_in(0, 2 * wi)),
                    guard: rng.coin().then(|| rng.int_in(1, wi + 1)),
                };
                let size = (2 * span + 5 * wi + 1) as usize;
                let l = 1 + rng.usize_below(8);
                let (mut m, cfg) = match machine {
                    "dmm" => (Machine::dmm(w, l, size), AnalysisConfig::dmm(w)),
                    "umm" => (Machine::umm(w, l, size), AnalysisConfig::umm(w)),
                    "hmm-shared" => (Machine::hmm(d, w, l, 1, size), AnalysisConfig::hmm(w, d)),
                    _ => (Machine::hmm(d, w, l, size, 1), AnalysisConfig::hmm(w, d)),
                };
                let cfg = cfg.with_launch(p as i64, d);
                let program = program(a);
                let reports = classify_accesses(&program, &cfg);
                let ctx = format!("{machine} w={w} d={d} pd={pd} {a:?}");
                assert_eq!(reports.len(), 1, "{ctx}");
                let Degree { min, max } = reports[0].slots.expect("an affine address");

                let mut kernel = Kernel::new("", program);
                kernel.args = a.arg.into_iter().collect();
                let report = m.launch(&kernel, LaunchShape::Even(p)).unwrap();
                let measured = match a.space {
                    Space::Shared => report.shared.max_slots_per_transaction,
                    Space::Global => report.global.max_slots_per_transaction,
                };
                assert!(
                    min as u64 <= measured && measured <= max as u64,
                    "{ctx}: measured {measured} slots, predicted {min}..={max}"
                );
                checked += 1;
                conflicted += usize::from(measured > 1);
                ranged += usize::from(min < max);
            }
        }
    }
    assert_eq!(checked, 4 * 4 * 24);
    // The draws must reach conflicted accesses and the ranges of
    // unknown bases.
    assert!(
        conflicted > checked / 4,
        "{conflicted} of {checked} conflicted"
    );
    assert!(ranged > 0, "no predicted range");
}
