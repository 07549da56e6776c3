//! A small label-based assembler for [`crate::isa`] programs.
//!
//! Kernel builders construct programs with forward references:
//!
//! ```
//! use hmm_machine::{Asm, isa::{Reg, Operand}};
//!
//! let mut a = Asm::new();
//! let t = Reg(16);
//! let done = a.label();
//! a.slt(t, Reg(0), 10);          // t = (gid < 10)
//! a.brz(t, done);                // skip the store unless gid < 10
//! a.st_global(Reg(0), 0, 7);     // G[gid] = 7
//! a.bind(done);
//! a.halt();
//! let program = a.finish();
//! assert_eq!(program.len(), 4);
//! ```

use crate::isa::{BinOp, Inst, Operand, Program, Reg, Scope, Space};

/// A forward-referencable program position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Label(usize);

/// Instruction being assembled; branch targets are still labels.
#[derive(Debug, Clone, Copy)]
enum Draft {
    Ready(Inst),
    Jmp(Label),
    Brz(Operand, Label),
    Brnz(Operand, Label),
}

/// The assembler. See the module documentation for an example.
#[derive(Debug, Default)]
pub struct Asm {
    drafts: Vec<Draft>,
    /// `labels[i]` = program counter bound to label `i`, once bound.
    labels: Vec<Option<usize>>,
}

impl Asm {
    /// An empty program under construction.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocate a fresh, unbound label.
    pub fn label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() - 1)
    }

    /// Bind `label` to the current position.
    ///
    /// # Panics
    /// Panics if the label was already bound.
    pub fn bind(&mut self, label: Label) {
        let slot = &mut self.labels[label.0];
        assert!(slot.is_none(), "label bound twice");
        *slot = Some(self.drafts.len());
    }

    /// Allocate a label and bind it here in one step.
    pub fn here(&mut self) -> Label {
        let l = self.label();
        self.bind(l);
        l
    }

    /// Current instruction count (the pc of the next emitted instruction).
    #[must_use]
    pub fn pc(&self) -> usize {
        self.drafts.len()
    }

    /// Append a raw instruction.
    pub fn push(&mut self, inst: Inst) {
        self.drafts.push(Draft::Ready(inst));
    }

    // ---- ALU / moves -----------------------------------------------------

    /// `dst <- src`.
    pub fn mov(&mut self, dst: Reg, src: impl Into<Operand>) {
        self.push(Inst::Mov(dst, src.into()));
    }

    /// `dst <- a + b` (wrapping).
    pub fn add(&mut self, dst: Reg, a: impl Into<Operand>, b: impl Into<Operand>) {
        self.push(Inst::Bin(BinOp::Add, dst, a.into(), b.into()));
    }

    /// `dst <- a - b` (wrapping).
    pub fn sub(&mut self, dst: Reg, a: impl Into<Operand>, b: impl Into<Operand>) {
        self.push(Inst::Bin(BinOp::Sub, dst, a.into(), b.into()));
    }

    /// `dst <- a * b` (wrapping).
    pub fn mul(&mut self, dst: Reg, a: impl Into<Operand>, b: impl Into<Operand>) {
        self.push(Inst::Bin(BinOp::Mul, dst, a.into(), b.into()));
    }

    /// `dst <- a / b` (truncating; errors at runtime if `b == 0`).
    pub fn div(&mut self, dst: Reg, a: impl Into<Operand>, b: impl Into<Operand>) {
        self.push(Inst::Bin(BinOp::Div, dst, a.into(), b.into()));
    }

    /// `dst <- a % b` (errors at runtime if `b == 0`).
    pub fn rem(&mut self, dst: Reg, a: impl Into<Operand>, b: impl Into<Operand>) {
        self.push(Inst::Bin(BinOp::Rem, dst, a.into(), b.into()));
    }

    /// `dst <- min(a, b)`.
    pub fn min(&mut self, dst: Reg, a: impl Into<Operand>, b: impl Into<Operand>) {
        self.push(Inst::Bin(BinOp::Min, dst, a.into(), b.into()));
    }

    /// `dst <- max(a, b)`.
    pub fn max(&mut self, dst: Reg, a: impl Into<Operand>, b: impl Into<Operand>) {
        self.push(Inst::Bin(BinOp::Max, dst, a.into(), b.into()));
    }

    /// `dst <- a & b`.
    pub fn and(&mut self, dst: Reg, a: impl Into<Operand>, b: impl Into<Operand>) {
        self.push(Inst::Bin(BinOp::And, dst, a.into(), b.into()));
    }

    /// `dst <- a | b`.
    pub fn or(&mut self, dst: Reg, a: impl Into<Operand>, b: impl Into<Operand>) {
        self.push(Inst::Bin(BinOp::Or, dst, a.into(), b.into()));
    }

    /// `dst <- a ^ b`.
    pub fn xor(&mut self, dst: Reg, a: impl Into<Operand>, b: impl Into<Operand>) {
        self.push(Inst::Bin(BinOp::Xor, dst, a.into(), b.into()));
    }

    /// `dst <- a << b`.
    pub fn shl(&mut self, dst: Reg, a: impl Into<Operand>, b: impl Into<Operand>) {
        self.push(Inst::Bin(BinOp::Shl, dst, a.into(), b.into()));
    }

    /// `dst <- a >> b` (arithmetic).
    pub fn shr(&mut self, dst: Reg, a: impl Into<Operand>, b: impl Into<Operand>) {
        self.push(Inst::Bin(BinOp::Shr, dst, a.into(), b.into()));
    }

    /// `dst <- (a < b) as Word`.
    pub fn slt(&mut self, dst: Reg, a: impl Into<Operand>, b: impl Into<Operand>) {
        self.push(Inst::Bin(BinOp::Slt, dst, a.into(), b.into()));
    }

    /// `dst <- (a <= b) as Word`.
    pub fn sle(&mut self, dst: Reg, a: impl Into<Operand>, b: impl Into<Operand>) {
        self.push(Inst::Bin(BinOp::Sle, dst, a.into(), b.into()));
    }

    /// `dst <- (a == b) as Word`.
    pub fn seq(&mut self, dst: Reg, a: impl Into<Operand>, b: impl Into<Operand>) {
        self.push(Inst::Bin(BinOp::Seq, dst, a.into(), b.into()));
    }

    /// `dst <- (a != b) as Word`.
    pub fn sne(&mut self, dst: Reg, a: impl Into<Operand>, b: impl Into<Operand>) {
        self.push(Inst::Bin(BinOp::Sne, dst, a.into(), b.into()));
    }

    /// `dst <- cond != 0 ? a : b`.
    pub fn sel(
        &mut self,
        dst: Reg,
        cond: impl Into<Operand>,
        a: impl Into<Operand>,
        b: impl Into<Operand>,
    ) {
        self.push(Inst::Sel(dst, cond.into(), a.into(), b.into()));
    }

    // ---- memory ----------------------------------------------------------

    /// `dst <- mem[base + off]` in the given space.
    pub fn ld(
        &mut self,
        dst: Reg,
        space: Space,
        base: impl Into<Operand>,
        off: impl Into<Operand>,
    ) {
        self.push(Inst::Ld(dst, space, base.into(), off.into()));
    }

    /// `mem[base + off] <- src` in the given space.
    pub fn st(
        &mut self,
        space: Space,
        base: impl Into<Operand>,
        off: impl Into<Operand>,
        src: impl Into<Operand>,
    ) {
        self.push(Inst::St(space, base.into(), off.into(), src.into()));
    }

    /// Global-memory load shorthand.
    pub fn ld_global(&mut self, dst: Reg, base: impl Into<Operand>, off: impl Into<Operand>) {
        self.ld(dst, Space::Global, base, off);
    }

    /// Global-memory store shorthand.
    pub fn st_global(
        &mut self,
        base: impl Into<Operand>,
        off: impl Into<Operand>,
        src: impl Into<Operand>,
    ) {
        self.st(Space::Global, base, off, src);
    }

    /// Shared-memory load shorthand.
    pub fn ld_shared(&mut self, dst: Reg, base: impl Into<Operand>, off: impl Into<Operand>) {
        self.ld(dst, Space::Shared, base, off);
    }

    /// Shared-memory store shorthand.
    pub fn st_shared(
        &mut self,
        base: impl Into<Operand>,
        off: impl Into<Operand>,
        src: impl Into<Operand>,
    ) {
        self.st(Space::Shared, base, off, src);
    }

    // ---- control flow ----------------------------------------------------

    /// Unconditional jump.
    pub fn jmp(&mut self, target: Label) {
        self.drafts.push(Draft::Jmp(target));
    }

    /// Branch to `target` if `cond == 0`.
    pub fn brz(&mut self, cond: impl Into<Operand>, target: Label) {
        self.drafts.push(Draft::Brz(cond.into(), target));
    }

    /// Branch to `target` if `cond != 0`.
    pub fn brnz(&mut self, cond: impl Into<Operand>, target: Label) {
        self.drafts.push(Draft::Brnz(cond.into(), target));
    }

    /// DMM-scope barrier.
    pub fn bar_dmm(&mut self) {
        self.push(Inst::Bar(Scope::Dmm));
    }

    /// Machine-scope barrier.
    pub fn bar_global(&mut self) {
        self.push(Inst::Bar(Scope::Global));
    }

    /// One idle time unit.
    pub fn nop(&mut self) {
        self.push(Inst::Nop);
    }

    /// Terminate the thread.
    pub fn halt(&mut self) {
        self.push(Inst::Halt);
    }

    /// Resolve labels and produce the final [`Program`].
    ///
    /// # Panics
    /// Panics if any referenced label was never bound, or if an
    /// instruction names a register at or past
    /// [`crate::REG_COUNT`] (the [`crate::isa::ProgramError`]).
    #[must_use]
    pub fn finish(self) -> Program {
        let resolve = |l: Label| -> usize {
            self.labels[l.0].unwrap_or_else(|| panic!("label {} referenced but never bound", l.0))
        };
        let insts = self
            .drafts
            .iter()
            .map(|d| match *d {
                Draft::Ready(i) => i,
                Draft::Jmp(l) => Inst::Jmp(resolve(l)),
                Draft::Brz(c, l) => Inst::Brz(c, resolve(l)),
                Draft::Brnz(c, l) => Inst::Brnz(c, resolve(l)),
            })
            .collect();
        Program::new(insts).unwrap_or_else(|e| panic!("{e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_and_backward_labels_resolve() {
        let mut a = Asm::new();
        let top = a.here();
        let end = a.label();
        a.brz(Reg(0), end); // pc 0 -> 3
        a.add(Reg(0), Reg(0), -1); // pc 1
        a.jmp(top); // pc 2 -> 0
        a.bind(end);
        a.halt(); // pc 3
        let p = a.finish();
        assert_eq!(p.get(0), Some(&Inst::Brz(Operand::Reg(Reg(0)), 3)));
        assert_eq!(p.get(2), Some(&Inst::Jmp(0)));
    }

    #[test]
    #[should_panic(expected = "never bound")]
    fn unbound_label_panics() {
        let mut a = Asm::new();
        let l = a.label();
        a.jmp(l);
        let _ = a.finish();
    }

    #[test]
    #[should_panic(expected = "instruction 1 names register r64, past the 64 registers")]
    fn register_past_the_file_panics() {
        let mut a = Asm::new();
        a.nop();
        a.mov(Reg(64), 1);
        let _ = a.finish();
    }

    #[test]
    #[should_panic(expected = "bound twice")]
    fn double_bind_panics() {
        let mut a = Asm::new();
        let l = a.label();
        a.bind(l);
        a.bind(l);
    }

    #[test]
    fn shorthand_emitters_encode_expected_instructions() {
        let mut a = Asm::new();
        a.ld_global(Reg(1), Reg(0), 4);
        a.st_shared(Reg(2), 0, Reg(1));
        a.bar_dmm();
        a.halt();
        let p = a.finish();
        assert_eq!(
            p.get(0),
            Some(&Inst::Ld(
                Reg(1),
                Space::Global,
                Operand::Reg(Reg(0)),
                Operand::Imm(4)
            ))
        );
        assert_eq!(p.get(2), Some(&Inst::Bar(Scope::Dmm)));
    }
}
