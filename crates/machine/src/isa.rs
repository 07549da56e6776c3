//! The per-thread instruction set.
//!
//! The paper models each thread as "a Random Access Machine, which can
//! execute fundamental operations in a time unit". We make that concrete:
//! a thread owns a file of 64 word registers and executes one instruction
//! per time unit. Every memory access goes through the warp / pipeline
//! machinery in [`crate::machine`]; everything else (ALU, moves, branches)
//! is local to the thread.
//!
//! The instruction set is deliberately small but complete enough to write
//! every algorithm in the paper as a real program: three-address ALU ops,
//! comparisons producing 0/1, loads and stores with a base+offset address
//! mode (so the common `a[j + h]` pattern is a single instruction), and
//! barrier synchronisation at DMM or machine scope.

use crate::word::Word;

/// A register index (valid range `0..`[`REG_COUNT`](crate::REG_COUNT)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Reg(pub u8);

/// An instruction operand: either a register or an immediate word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Operand {
    /// The current value of a register.
    Reg(Reg),
    /// A constant.
    Imm(Word),
}

impl From<Reg> for Operand {
    fn from(r: Reg) -> Self {
        Operand::Reg(r)
    }
}

impl From<Word> for Operand {
    fn from(v: Word) -> Self {
        Operand::Imm(v)
    }
}

impl From<usize> for Operand {
    fn from(v: usize) -> Self {
        Operand::Imm(v as Word)
    }
}

impl From<i32> for Operand {
    fn from(v: i32) -> Self {
        Operand::Imm(Word::from(v))
    }
}

/// Which memory an access targets.
///
/// On the HMM, `Shared` is the banked latency-1 memory of the thread's own
/// DMM and `Global` is the machine-wide UMM memory of latency `l`. The
/// standalone DMM and UMM machines have a single memory, exposed as
/// `Global` (with Banked resp. Coalesced conflict policy).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Space {
    /// The shared memory of the issuing thread's DMM.
    Shared,
    /// The global memory.
    Global,
}

/// Barrier scope.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scope {
    /// Synchronise the threads of the issuing thread's DMM.
    Dmm,
    /// Synchronise every thread of the machine.
    Global,
}

/// Binary ALU operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Truncating division (errors on divisor 0).
    Div,
    /// Remainder (errors on divisor 0).
    Rem,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Left shift (shift amount masked to 0..64).
    Shl,
    /// Arithmetic right shift (shift amount masked to 0..64).
    Shr,
    /// Set-if-less-than: `dst = (a < b) as Word`.
    Slt,
    /// Set-if-less-or-equal.
    Sle,
    /// Set-if-equal.
    Seq,
    /// Set-if-not-equal.
    Sne,
}

/// One machine instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Inst {
    /// `dst <- op` (register copy or load-immediate).
    Mov(Reg, Operand),
    /// `dst <- a <binop> b`.
    Bin(BinOp, Reg, Operand, Operand),
    /// `dst <- cond != 0 ? a : b` (branch-free select).
    Sel(Reg, Operand, Operand, Operand),
    /// `dst <- mem[base + off]` — a memory *read* request.
    Ld(Reg, Space, Operand, Operand),
    /// `mem[base + off] <- src` — a memory *write* request.
    St(Space, Operand, Operand, Operand),
    /// Unconditional jump to an absolute program counter.
    Jmp(usize),
    /// Jump if the operand is zero.
    Brz(Operand, usize),
    /// Jump if the operand is non-zero.
    Brnz(Operand, usize),
    /// Barrier synchronisation.
    Bar(Scope),
    /// Do nothing for one time unit.
    Nop,
    /// Terminate the thread.
    Halt,
}

impl Inst {
    /// Every register the instruction names: its destination, then its
    /// register operands in order.
    pub(crate) fn regs(&self) -> impl Iterator<Item = Reg> {
        let (dst, ops) = match *self {
            Inst::Mov(d, a) => (Some(d), [Some(a), None, None]),
            Inst::Bin(_, d, a, b) | Inst::Ld(d, _, a, b) => (Some(d), [Some(a), Some(b), None]),
            Inst::Sel(d, c, a, b) => (Some(d), [Some(c), Some(a), Some(b)]),
            Inst::St(_, a, b, c) => (None, [Some(a), Some(b), Some(c)]),
            Inst::Brz(c, _) | Inst::Brnz(c, _) => (None, [Some(c), None, None]),
            Inst::Jmp(_) | Inst::Bar(_) | Inst::Nop | Inst::Halt => (None, [None; 3]),
        };
        dst.into_iter()
            .chain(ops.into_iter().flatten().filter_map(|o| match o {
                Operand::Reg(r) => Some(r),
                Operand::Imm(_) => None,
            }))
    }
}

/// A finished, branch-resolved program (shared by every thread of a launch,
/// exactly like a CUDA kernel: same code, different thread ids).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    insts: Vec<Inst>,
}

impl Program {
    /// Wrap a raw instruction vector. Prefer [`crate::asm::Asm`], which
    /// resolves labels and validates branch targets.
    #[must_use]
    pub fn from_insts(insts: Vec<Inst>) -> Self {
        Self { insts }
    }

    /// The instruction at `pc`, if any.
    #[must_use]
    pub fn get(&self, pc: usize) -> Option<&Inst> {
        self.insts.get(pc)
    }

    /// Number of instructions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Whether the program is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// All instructions, for inspection and disassembly.
    #[must_use]
    pub fn insts(&self) -> &[Inst] {
        &self.insts
    }

    /// The explicit branch target of the instruction at `pc`, if it has
    /// one (`Jmp`, `Brz`, `Brnz`).
    #[must_use]
    pub fn branch_target(&self, pc: usize) -> Option<usize> {
        match self.insts.get(pc)? {
            Inst::Jmp(t) | Inst::Brz(_, t) | Inst::Brnz(_, t) => Some(*t),
            _ => None,
        }
    }

    /// Whether the instruction at `pc` ends a basic block: it jumps,
    /// branches, or halts (so `pc + 1` can only be reached as a leader).
    #[must_use]
    pub fn ends_block(&self, pc: usize) -> bool {
        matches!(
            self.insts.get(pc),
            Some(Inst::Jmp(_) | Inst::Brz(..) | Inst::Brnz(..) | Inst::Halt) | None
        )
    }

    /// The program counters control can move to after executing `pc`:
    /// empty for `Halt` (and out-of-range pcs), one pc for straight-line
    /// code and `Jmp`, two for conditional branches (target first, then
    /// fall-through; a branch whose target equals the fall-through yields
    /// one). Successors past the end of the program are included as-is —
    /// executing them is a runtime error the analyzer reports separately.
    #[must_use]
    pub fn successors(&self, pc: usize) -> Vec<usize> {
        match self.insts.get(pc) {
            None | Some(Inst::Halt) => Vec::new(),
            Some(Inst::Jmp(t)) => vec![*t],
            Some(Inst::Brz(_, t) | Inst::Brnz(_, t)) => {
                if *t == pc + 1 {
                    vec![pc + 1]
                } else {
                    vec![*t, pc + 1]
                }
            }
            Some(_) => vec![pc + 1],
        }
    }

    /// Basic-block leader pcs in ascending order: pc 0, every branch
    /// target, and every instruction following a block terminator.
    #[must_use]
    pub fn leaders(&self) -> Vec<usize> {
        let mut set = vec![false; self.insts.len()];
        if !self.insts.is_empty() {
            set[0] = true;
        }
        for pc in 0..self.insts.len() {
            if let Some(t) = self.branch_target(pc) {
                if t < set.len() {
                    set[t] = true;
                }
            }
            if self.ends_block(pc) && pc + 1 < set.len() {
                set[pc + 1] = true;
            }
        }
        (0..set.len()).filter(|&pc| set[pc]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operand_conversions() {
        assert_eq!(Operand::from(Reg(3)), Operand::Reg(Reg(3)));
        assert_eq!(Operand::from(5usize), Operand::Imm(5));
        assert_eq!(Operand::from(-2i32), Operand::Imm(-2));
        assert_eq!(Operand::from(7i64), Operand::Imm(7));
    }

    #[test]
    fn program_accessors() {
        let p = Program::from_insts(vec![Inst::Nop, Inst::Halt]);
        assert_eq!(p.len(), 2);
        assert!(!p.is_empty());
        assert_eq!(p.get(1), Some(&Inst::Halt));
        assert_eq!(p.get(2), None);
    }

    #[test]
    fn cfg_accessors() {
        // 0: brz r0 -> 3 ; 1: nop ; 2: jmp 0 ; 3: halt
        let p = Program::from_insts(vec![
            Inst::Brz(Operand::Reg(Reg(0)), 3),
            Inst::Nop,
            Inst::Jmp(0),
            Inst::Halt,
        ]);
        assert_eq!(p.successors(0), vec![3, 1]);
        assert_eq!(p.successors(1), vec![2]);
        assert_eq!(p.successors(2), vec![0]);
        assert_eq!(p.successors(3), Vec::<usize>::new());
        assert_eq!(p.successors(4), Vec::<usize>::new());
        assert_eq!(p.branch_target(0), Some(3));
        assert_eq!(p.branch_target(1), None);
        assert!(p.ends_block(0));
        assert!(!p.ends_block(1));
        assert!(p.ends_block(3));
        assert_eq!(p.leaders(), vec![0, 1, 3]);
    }

    #[test]
    fn branch_to_fallthrough_has_one_successor() {
        let p = Program::from_insts(vec![Inst::Brz(Operand::Imm(0), 1), Inst::Halt]);
        assert_eq!(p.successors(0), vec![1]);
    }
}
