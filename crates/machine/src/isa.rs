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
//!
//! What every reader of a program relies on is written here once. A
//! [`Program`] is checked where it is built: [`Program::new`] refuses a
//! register at or past [`REG_COUNT`], so the engine and the analyzer
//! need no register check of their own. [`BinOp::eval`] is the ALU's
//! semantics, for the engine's lanes and the analyzer's constant folding
//! alike, and [`Inst::dst`] and [`Inst::srcs`] are the operand layout.
//! A branch target past the end is not refused: running it is the same
//! runtime error as falling off the end.

use std::fmt;

use crate::word::Word;

/// Number of registers per thread.
pub const REG_COUNT: usize = 64;

/// A register index (valid range `0..`[`REG_COUNT`]).
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

impl BinOp {
    /// `a <op> b`, as every thread's ALU computes it: `None` only for
    /// `Div` or `Rem` by 0.
    #[inline]
    #[must_use]
    pub fn eval(self, a: Word, b: Word) -> Option<Word> {
        Some(match self {
            BinOp::Add => a.wrapping_add(b),
            BinOp::Sub => a.wrapping_sub(b),
            BinOp::Mul => a.wrapping_mul(b),
            BinOp::Div | BinOp::Rem if b == 0 => return None,
            BinOp::Div => a.wrapping_div(b),
            BinOp::Rem => a.wrapping_rem(b),
            BinOp::Min => a.min(b),
            BinOp::Max => a.max(b),
            BinOp::And => a & b,
            BinOp::Or => a | b,
            BinOp::Xor => a ^ b,
            BinOp::Shl => a.wrapping_shl(b as u32),
            BinOp::Shr => a.wrapping_shr(b as u32),
            BinOp::Slt => Word::from(a < b),
            BinOp::Sle => Word::from(a <= b),
            BinOp::Seq => Word::from(a == b),
            BinOp::Sne => Word::from(a != b),
        })
    }
}

impl Inst {
    /// The register the instruction writes, if any.
    #[must_use]
    pub fn dst(&self) -> Option<Reg> {
        match *self {
            Inst::Mov(d, _) | Inst::Bin(_, d, ..) | Inst::Sel(d, ..) | Inst::Ld(d, ..) => Some(d),
            Inst::St(..)
            | Inst::Jmp(_)
            | Inst::Brz(..)
            | Inst::Brnz(..)
            | Inst::Bar(_)
            | Inst::Nop
            | Inst::Halt => None,
        }
    }

    /// The registers the instruction reads, in operand order.
    pub fn srcs(&self) -> impl Iterator<Item = Reg> {
        let ops = match *self {
            Inst::Mov(_, a) | Inst::Brz(a, _) | Inst::Brnz(a, _) => [Some(a), None, None],
            Inst::Bin(_, _, a, b) | Inst::Ld(_, _, a, b) => [Some(a), Some(b), None],
            Inst::Sel(_, a, b, c) | Inst::St(_, a, b, c) => [Some(a), Some(b), Some(c)],
            Inst::Jmp(_) | Inst::Bar(_) | Inst::Nop | Inst::Halt => [None; 3],
        };
        ops.into_iter().flatten().filter_map(|o| match o {
            Operand::Reg(r) => Some(r),
            Operand::Imm(_) => None,
        })
    }
}

/// Why [`Program::new`] refused an instruction vector: the instruction at
/// `pc` names `reg`, a register at or past [`REG_COUNT`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProgramError {
    /// The lowest pc that names a register past the file.
    pub pc: usize,
    /// The first such register it names (destination first).
    pub reg: Reg,
}

impl fmt::Display for ProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "instruction {} names register r{}, past the {REG_COUNT} registers",
            self.pc, self.reg.0
        )
    }
}

impl std::error::Error for ProgramError {}

/// A finished, branch-resolved program (shared by every thread of a launch,
/// exactly like a CUDA kernel: same code, different thread ids). Every
/// register it names is below [`REG_COUNT`]. A branch target may lie past
/// the end; running it is [`crate::SimError::PcOutOfRange`], as falling
/// off the end is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    insts: Vec<Inst>,
}

impl Program {
    /// Check a raw instruction vector and wrap it. [`crate::asm::Asm`]
    /// builds programs with labels.
    ///
    /// # Errors
    /// [`ProgramError`] for the lowest pc that names a register at or
    /// past [`REG_COUNT`].
    pub fn new(insts: Vec<Inst>) -> Result<Self, ProgramError> {
        for (pc, inst) in insts.iter().enumerate() {
            let mut regs = inst.dst().into_iter().chain(inst.srcs());
            if let Some(reg) = regs.find(|r| usize::from(r.0) >= REG_COUNT) {
                return Err(ProgramError { pc, reg });
            }
        }
        Ok(Self { insts })
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
        let p = Program::new(vec![Inst::Nop, Inst::Halt]).unwrap();
        assert_eq!(p.len(), 2);
        assert!(!p.is_empty());
        assert_eq!(p.get(1), Some(&Inst::Halt));
        assert_eq!(p.get(2), None);
    }

    #[test]
    fn registers_past_the_file_are_refused_at_the_lowest_pc() {
        let err = Program::new(vec![Inst::Mov(Reg(64), Operand::Imm(1)), Inst::Halt]);
        assert_eq!(
            err,
            Err(ProgramError {
                pc: 0,
                reg: Reg(64)
            })
        );
        let insts = vec![
            Inst::Mov(Reg(63), Operand::Reg(Reg(0))),
            Inst::St(
                Space::Global,
                Operand::Imm(0),
                Reg(1).into(),
                Reg(200).into(),
            ),
            Inst::Bin(BinOp::Add, Reg(70), Reg(65).into(), Operand::Imm(1)),
        ];
        let err = Program::new(insts).unwrap_err();
        assert_eq!(
            err,
            ProgramError {
                pc: 1,
                reg: Reg(200)
            }
        );
        assert_eq!(
            err.to_string(),
            "instruction 1 names register r200, past the 64 registers"
        );
    }

    #[test]
    fn dst_and_srcs_follow_operand_order() {
        let sel = Inst::Sel(Reg(1), Reg(2).into(), Operand::Imm(3), Reg(4).into());
        assert_eq!(sel.dst(), Some(Reg(1)));
        assert_eq!(sel.srcs().collect::<Vec<_>>(), [Reg(2), Reg(4)]);
        let st = Inst::St(Space::Shared, Reg(5).into(), Reg(6).into(), Reg(7).into());
        assert_eq!(st.dst(), None);
        assert_eq!(st.srcs().collect::<Vec<_>>(), [Reg(5), Reg(6), Reg(7)]);
        assert_eq!(
            Inst::Brnz(Reg(8).into(), 0).srcs().collect::<Vec<_>>(),
            [Reg(8)]
        );
        assert_eq!(Inst::Halt.srcs().count(), 0);
    }

    #[test]
    fn cfg_accessors() {
        // 0: brz r0 -> 3 ; 1: nop ; 2: jmp 0 ; 3: halt
        let p = Program::new(vec![
            Inst::Brz(Operand::Reg(Reg(0)), 3),
            Inst::Nop,
            Inst::Jmp(0),
            Inst::Halt,
        ])
        .unwrap();
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
        let p = Program::new(vec![Inst::Brz(Operand::Imm(0), 1), Inst::Halt]).unwrap();
        assert_eq!(p.successors(0), vec![1]);
    }
}
