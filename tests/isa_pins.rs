//! Pins of the instruction set's outputs.
//!
//! - Every `hmm-algorithms` kernel builder (at two or three shapes) and
//!   every `hmm_analysis::examples` kernel: one line of name, shape,
//!   length and the FNV-1a digest of its disassembly, so no program byte
//!   can move unseen.
//! - The ALU on its edge cases: every `BinOp` on every pair of
//!   {0, 1, −1, 7, −7, 63, 64, −64, `Word::MIN`, `Word::MAX`}, negative
//!   shifts and `MIN / −1` included. Each expected value is a literal in
//!   `tests/golden/alu_edges.txt` (`div0` for a zero divisor). The table
//!   is checked through a launch on the engine, where a zero divisor is
//!   the typed `DivisionByZero`, and through the analyzer's constant
//!   folding (`hmm_analysis::affine::binop` on known operands), where
//!   it folds to no known value.

use hmm_algorithms::convolution::{dmm_umm, hmm};
use hmm_algorithms::patterns::{self, Figure1};
use hmm_algorithms::reduce::ReduceOp;
use hmm_algorithms::sum::{dmm_umm as sum_dmm_umm, hmm_all, hmm_single};
use hmm_algorithms::{contiguous, matmul, permutation, pram, prefix, sort, string_match};
use hmm_analysis::affine::{binop, AbsVal};
use hmm_analysis::examples;
use hmm_machine::isa::{BinOp, Inst, Operand};
use hmm_machine::{abi, disassemble, Asm, Kernel, LaunchShape, Machine, Program, SimError, Word};

/// 64-bit FNV-1a of `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn pin(name: &str, shape: &str, program: &Program) -> String {
    let text = disassemble(program);
    format!(
        "{name} {shape} len={} fnv={:016x}",
        program.len(),
        fnv1a(text.as_bytes())
    )
}

fn kernel_pins() -> Vec<String> {
    use contiguous::AccessMode;
    let conv = dmm_umm::Layout::new;
    let blocked = |n, k, q| {
        let layout = conv(n, k);
        dmm_umm::conv_kernel_blocked(layout, q, layout.c_base + n)
    };
    let mut out = vec![
        pin(
            "contiguous::access_kernel",
            "base=0 n=64 read",
            &contiguous::access_kernel(0, 64, AccessMode::Read),
        ),
        pin(
            "contiguous::access_kernel",
            "base=16 n=100 write",
            &contiguous::access_kernel(16, 100, AccessMode::Write),
        ),
        pin(
            "contiguous::copy_kernel",
            "src=0 dst=64 n=64",
            &contiguous::copy_kernel(0, 64, 64),
        ),
        pin(
            "contiguous::copy_kernel",
            "src=0 dst=128 n=100",
            &contiguous::copy_kernel(0, 128, 100),
        ),
        pin(
            "convolution::dmm_umm::conv_kernel_strided",
            "n=64 k=8",
            &dmm_umm::conv_kernel_strided(conv(64, 8)),
        ),
        pin(
            "convolution::dmm_umm::conv_kernel_strided",
            "n=100 k=5",
            &dmm_umm::conv_kernel_strided(conv(100, 5)),
        ),
        pin(
            "convolution::dmm_umm::conv_kernel_blocked",
            "n=64 k=16 q=4",
            &blocked(64, 16, 4),
        ),
        pin(
            "convolution::dmm_umm::conv_kernel_blocked",
            "n=100 k=7 q=3",
            &blocked(100, 7, 3),
        ),
        pin(
            "convolution::hmm::conv_kernel_hmm",
            "n=64 k=8 d=4",
            &hmm::conv_kernel_hmm(64, 8, 4),
        ),
        pin(
            "convolution::hmm::conv_kernel_hmm",
            "n=1024 k=16 d=8",
            &hmm::conv_kernel_hmm(1024, 16, 8),
        ),
        pin(
            "convolution::hmm::conv_kernel_hmm",
            "n=100 k=5 d=3",
            &hmm::conv_kernel_hmm(100, 5, 3),
        ),
        pin("pram::sum_kernel", "n=64 p=16", &pram::sum_kernel(64, 16)),
        pin("pram::sum_kernel", "n=100 p=7", &pram::sum_kernel(100, 7)),
        pin(
            "pram::convolution_kernel",
            "n=64 k=8",
            &pram::convolution_kernel(64, 8),
        ),
        pin(
            "pram::convolution_kernel",
            "n=100 k=5",
            &pram::convolution_kernel(100, 5),
        ),
        pin(
            "string_match::match_kernel",
            "m=4 n=64",
            &string_match::match_kernel(4, 64),
        ),
        pin(
            "string_match::match_kernel",
            "m=8 n=100",
            &string_match::match_kernel(8, 100),
        ),
        pin(
            "prefix::prefix_kernel_dmm_umm",
            "n2=64",
            &prefix::prefix_kernel_dmm_umm(64),
        ),
        pin(
            "prefix::prefix_kernel_dmm_umm",
            "n2=1024",
            &prefix::prefix_kernel_dmm_umm(1024),
        ),
        pin(
            "prefix::prefix_kernel_hmm",
            "n=256 p=64 d=4",
            &prefix::prefix_kernel_hmm(256, 64, 4),
        ),
        pin(
            "prefix::prefix_kernel_hmm",
            "n=1024 p=128 d=8",
            &prefix::prefix_kernel_hmm(1024, 128, 8),
        ),
        pin("sort::sort_kernel_umm", "n2=64", &sort::sort_kernel_umm(64)),
        pin(
            "sort::sort_kernel_umm",
            "n2=1024",
            &sort::sort_kernel_umm(1024),
        ),
        pin(
            "sort::sort_kernel_hmm",
            "n2=256 d=4",
            &sort::sort_kernel_hmm(256, 4),
        ),
        pin(
            "sort::sort_kernel_hmm",
            "n2=2048 d=8",
            &sort::sort_kernel_hmm(2048, 8),
        ),
        pin(
            "matmul::matmul_kernel_hmm",
            "m=16 d=4 tw=4",
            &matmul::matmul_kernel_hmm(16, 4, 4),
        ),
        pin(
            "matmul::matmul_kernel_hmm",
            "m=32 d=2 tw=8",
            &matmul::matmul_kernel_hmm(32, 2, 8),
        ),
        pin(
            "matmul::matmul_kernel_umm",
            "m=16",
            &matmul::matmul_kernel_umm(16),
        ),
        pin(
            "matmul::matmul_kernel_umm",
            "m=32",
            &matmul::matmul_kernel_umm(32),
        ),
        pin(
            "patterns::transpose_kernel",
            "a=0 b=64 m=8",
            &patterns::transpose_kernel(0, 64, 8),
        ),
        pin(
            "patterns::transpose_kernel",
            "a=0 b=1024 m=32",
            &patterns::transpose_kernel(0, 1024, 32),
        ),
        pin(
            "sum::dmm_umm::sum_kernel",
            "base=0 n2=64",
            &sum_dmm_umm::sum_kernel(0, 64),
        ),
        pin(
            "sum::dmm_umm::sum_kernel",
            "base=16 n2=1024",
            &sum_dmm_umm::sum_kernel(16, 1024),
        ),
        pin(
            "sum::dmm_umm::reduce_kernel",
            "base=0 n2=64 min",
            &sum_dmm_umm::reduce_kernel(0, 64, ReduceOp::Min),
        ),
        pin(
            "sum::dmm_umm::reduce_kernel",
            "base=0 n2=256 max",
            &sum_dmm_umm::reduce_kernel(0, 256, ReduceOp::Max),
        ),
        pin(
            "sum::hmm_all::sum_kernel",
            "n=256 p=64 d=4 aux=256",
            &hmm_all::sum_kernel(256, 64, 4, 256),
        ),
        pin(
            "sum::hmm_all::sum_kernel",
            "n=1024 p=128 d=8 aux=1024",
            &hmm_all::sum_kernel(1024, 128, 8, 1024),
        ),
        pin(
            "sum::hmm_all::reduce_kernel",
            "n=256 p=64 d=4 aux=256 min",
            &hmm_all::reduce_kernel(256, 64, 4, 256, ReduceOp::Min),
        ),
        pin(
            "sum::hmm_all::reduce_kernel",
            "n=100 p=12 d=3 aux=100 max",
            &hmm_all::reduce_kernel(100, 12, 3, 100, ReduceOp::Max),
        ),
        pin(
            "sum::hmm_single::sum_kernel",
            "n=256 q=32 aux=256",
            &hmm_single::sum_kernel(256, 32, 256),
        ),
        pin(
            "sum::hmm_single::sum_kernel",
            "n=100 q=7 aux=100",
            &hmm_single::sum_kernel(100, 7, 100),
        ),
        pin(
            "permutation::perm_kernel_scheduled",
            "n=64 rounds=4 w=8 p=16",
            &permutation::perm_kernel_scheduled(64, 4, 8, 16),
        ),
        pin(
            "permutation::perm_kernel_scheduled",
            "n=256 rounds=9 w=32 p=64",
            &permutation::perm_kernel_scheduled(256, 9, 32, 64),
        ),
        pin(
            "permutation::perm_kernel_naive",
            "n=64 table=128",
            &permutation::perm_kernel_naive(64, 128),
        ),
        pin(
            "permutation::perm_kernel_naive",
            "n=256 table=512",
            &permutation::perm_kernel_naive(256, 512),
        ),
    ];
    for pattern in Figure1::ALL {
        for m in [8, 32] {
            let shape = format!("{pattern:?} m={m}");
            out.push(pin(
                "patterns::figure1_kernel",
                &shape,
                &patterns::figure1_kernel(pattern, m),
            ));
        }
    }
    for (name, program) in [
        ("examples::racy_kernel", examples::racy_kernel()),
        ("examples::racy_kernel_fixed", examples::racy_kernel_fixed()),
        (
            "examples::divergent_barrier_kernel",
            examples::divergent_barrier_kernel(),
        ),
        (
            "examples::divergent_barrier_kernel_fixed",
            examples::divergent_barrier_kernel_fixed(),
        ),
        ("examples::uninit_kernel", examples::uninit_kernel()),
        ("examples::clean_kernel", examples::clean_kernel()),
    ] {
        out.push(pin(name, "-", &program));
    }
    out
}

#[test]
fn kernel_programs_are_pinned() {
    let got = kernel_pins().join("\n") + "\n";
    assert_eq!(got, include_str!("golden/kernel_pins.txt"));
}

const OPS: [(BinOp, &str); 16] = [
    (BinOp::Add, "add"),
    (BinOp::Sub, "sub"),
    (BinOp::Mul, "mul"),
    (BinOp::Div, "div"),
    (BinOp::Rem, "rem"),
    (BinOp::Min, "min"),
    (BinOp::Max, "max"),
    (BinOp::And, "and"),
    (BinOp::Or, "or"),
    (BinOp::Xor, "xor"),
    (BinOp::Shl, "shl"),
    (BinOp::Shr, "shr"),
    (BinOp::Slt, "slt"),
    (BinOp::Sle, "sle"),
    (BinOp::Seq, "seq"),
    (BinOp::Sne, "sne"),
];

const EDGES: [Word; 10] = [0, 1, -1, 7, -7, 63, 64, -64, Word::MIN, Word::MAX];

/// `op` on `a` and `b` as one thread of a launch computes it, with the
/// operands in argument registers or as immediates: `None` for the typed
/// zero-divisor error.
fn launched(machine: &mut Machine, op: BinOp, a: Word, b: Word, in_regs: bool) -> Option<Word> {
    let mut asm = Asm::new();
    let (x, y) = if in_regs {
        (Operand::Reg(abi::arg(0)), Operand::Reg(abi::arg(1)))
    } else {
        (Operand::Imm(a), Operand::Imm(b))
    };
    asm.push(Inst::Bin(op, abi::SCRATCH0, x, y));
    asm.st_global(0, 0, abi::SCRATCH0);
    asm.halt();
    let mut kernel = Kernel::new("alu", asm.finish());
    kernel.args = vec![a, b];
    match machine.launch(&kernel, LaunchShape::Even(1)) {
        Ok(_) => Some(machine.global()[0]),
        Err(SimError::DivisionByZero { thread: 0, pc: 0 }) => None,
        Err(e) => panic!("{op:?} {a} {b}: {e}"),
    }
}

#[test]
fn alu_edge_cases_are_pinned() {
    let golden = include_str!("golden/alu_edges.txt");
    let mut machine = Machine::umm(1, 1, 1);
    let mut lines = golden.lines();
    for (op, name) in OPS {
        assert_eq!(lines.next(), Some(name));
        for a in EDGES {
            let line = lines.next().expect("a row per left operand");
            let (head, row) = line.split_once(':').expect("`a: results` row");
            assert_eq!(head.parse::<Word>(), Ok(a), "{line}");
            let row: Vec<&str> = row.split_whitespace().collect();
            assert_eq!(row.len(), EDGES.len(), "{line}");
            for (b, want) in EDGES.into_iter().zip(row) {
                let want = (want != "div0").then(|| want.parse::<Word>().expect("a word"));
                for in_regs in [true, false] {
                    let got = launched(&mut machine, op, a, b, in_regs);
                    assert_eq!(got, want, "vm {name} {a} {b} (registers: {in_regs})");
                }
                let folded = binop(op, AbsVal::known(a), AbsVal::known(b), 32).as_known();
                assert_eq!(folded, want, "affine::binop {name} {a} {b}");
            }
        }
    }
    assert_eq!(lines.next(), None);
}
