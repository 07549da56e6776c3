//! Panic freedom on the ISA path: random instruction vectors, with
//! registers drawn from the whole `u8` range and branch targets up to two
//! past the end, are either refused by `Program::new` (exactly when some
//! register is at or past `REG_COUNT`, naming the lowest such pc) or
//! launch to `Ok` or a typed `SimError` on small random machines, and the
//! analyzer returns on them.

use hmm_analysis::{analyze, classify_accesses, AnalysisConfig};
use hmm_machine::isa::{BinOp, Inst, Operand, ProgramError, Reg, Scope, Space};
use hmm_machine::{Kernel, LaunchShape, Machine, Program, Word, REG_COUNT};
use hmm_util::Rng;

const OPS: [BinOp; 16] = [
    BinOp::Add,
    BinOp::Sub,
    BinOp::Mul,
    BinOp::Div,
    BinOp::Rem,
    BinOp::Min,
    BinOp::Max,
    BinOp::And,
    BinOp::Or,
    BinOp::Xor,
    BinOp::Shl,
    BinOp::Shr,
    BinOp::Slt,
    BinOp::Sle,
    BinOp::Seq,
    BinOp::Sne,
];

/// A register: one in sixteen from all of `0..=255`, the rest below 24
/// (the ABI registers and the first scratch ones, so that programs read
/// what others wrote).
fn reg(rng: &mut Rng) -> Reg {
    let r = if rng.below(16) == 0 {
        rng.below(256)
    } else {
        rng.below(24)
    };
    Reg(r as u8)
}

fn operand(rng: &mut Rng) -> Operand {
    match rng.below(8) {
        0..=3 => Operand::Reg(reg(rng)),
        4 => Operand::Imm([0, -1, Word::MIN, Word::MAX][rng.usize_below(4)]),
        _ => Operand::Imm(rng.int_in(-4, 40)),
    }
}

fn space(rng: &mut Rng) -> Space {
    if rng.coin() {
        Space::Shared
    } else {
        Space::Global
    }
}

fn inst(rng: &mut Rng, len: usize) -> Inst {
    let target = rng.usize_below(len + 3);
    match rng.below(12) {
        0 | 1 => Inst::Mov(reg(rng), operand(rng)),
        2..=4 => Inst::Bin(
            OPS[rng.usize_below(OPS.len())],
            reg(rng),
            operand(rng),
            operand(rng),
        ),
        5 => Inst::Sel(reg(rng), operand(rng), operand(rng), operand(rng)),
        6 => Inst::Ld(reg(rng), space(rng), operand(rng), operand(rng)),
        7 => Inst::St(space(rng), operand(rng), operand(rng), operand(rng)),
        8 => Inst::Jmp(target),
        9 => match rng.below(2) {
            0 => Inst::Brz(operand(rng), target),
            _ => Inst::Brnz(operand(rng), target),
        },
        10 => Inst::Bar(if rng.coin() {
            Scope::Dmm
        } else {
            Scope::Global
        }),
        _ => match rng.below(3) {
            0 => Inst::Nop,
            _ => Inst::Halt,
        },
    }
}

/// Every register `inst` names, destination first, written out here
/// apart from `Inst::dst`/`Inst::srcs` so that it checks them.
fn names(inst: &Inst) -> Vec<Reg> {
    let (dst, ops): (Option<Reg>, Vec<Operand>) = match *inst {
        Inst::Mov(d, a) => (Some(d), vec![a]),
        Inst::Bin(_, d, a, b) | Inst::Ld(d, _, a, b) => (Some(d), vec![a, b]),
        Inst::Sel(d, a, b, c) => (Some(d), vec![a, b, c]),
        Inst::St(_, a, b, c) => (None, vec![a, b, c]),
        Inst::Brz(a, _) | Inst::Brnz(a, _) => (None, vec![a]),
        Inst::Jmp(_) | Inst::Bar(_) | Inst::Nop | Inst::Halt => (None, vec![]),
    };
    let srcs = ops.into_iter().filter_map(|o| match o {
        Operand::Reg(r) => Some(r),
        Operand::Imm(_) => None,
    });
    dst.into_iter().chain(srcs).collect()
}

#[test]
fn random_programs_are_refused_or_run_without_panic() {
    let mut rng = Rng::new(0x15a_f022);
    let (mut accepted, mut refused, mut ok, mut typed) = (0, 0, 0, 0);
    for case in 0..2000 {
        let len = 1 + rng.usize_below(10);
        let insts: Vec<Inst> = (0..len).map(|_| inst(&mut rng, len)).collect();
        let wild = insts.iter().enumerate().find_map(|(pc, inst)| {
            let reg = names(inst)
                .into_iter()
                .find(|r| usize::from(r.0) >= REG_COUNT)?;
            Some(ProgramError { pc, reg })
        });
        let program = match (Program::new(insts.clone()), wild) {
            (Err(got), Some(want)) => {
                assert_eq!(got, want, "case {case}: {insts:?}");
                refused += 1;
                continue;
            }
            (Ok(program), None) => program,
            (got, want) => panic!("case {case}: got {got:?}, want {want:?} for {insts:?}"),
        };
        accepted += 1;

        let d = [1, 2, 4][rng.usize_below(3)];
        let w = 1 + rng.usize_below(8);
        let l = 1 + rng.usize_below(16);
        let shared = if rng.coin() {
            0
        } else {
            1 + rng.usize_below(32)
        };
        let p = 1 + rng.usize_below(2 * d * w);
        let mut machine = Machine::hmm(d, w, l, 48, shared).with_cycle_limit(4000);
        let kernel = Kernel::new("fuzz", program.clone());
        match machine.launch(&kernel, LaunchShape::Even(p)) {
            Ok(_) => ok += 1,
            Err(_) => typed += 1,
        }

        let mut config = AnalysisConfig::hmm(w, d).with_launch(p as i64, d);
        config.has_shared = shared > 0;
        let analysis = analyze(&program, &config);
        assert_eq!(analysis.accesses, classify_accesses(&program, &config));
    }
    // The draw exercises every outcome.
    assert!(
        refused > 200 && accepted > 800,
        "{refused} refused, {accepted} accepted"
    );
    assert!(ok > 100 && typed > 100, "{ok} ok, {typed} typed errors");
}
