//! Structured kernel-building helpers on top of [`crate::asm::Asm`].
//!
//! The algorithm crates generate many kernels with the same control
//! shapes — guarded strided loops, predicated blocks — and hand-rolling
//! the label plumbing every time is noisy. These combinators emit those
//! shapes; the bodies are ordinary closures over the assembler.

use crate::asm::Asm;
use crate::isa::{Operand, Reg};

/// Emit `for idx in start, start+step, ... while idx < bound { body }`.
///
/// `idx` is clobbered; `body` may use it freely but must not modify it.
pub fn strided_loop(
    a: &mut Asm,
    idx: Reg,
    cond_scratch: Reg,
    start: impl Into<Operand>,
    bound: impl Into<Operand>,
    step: impl Into<Operand>,
    body: impl FnOnce(&mut Asm),
) {
    let bound = bound.into();
    let step = step.into();
    a.mov(idx, start);
    let top = a.here();
    let done = a.label();
    a.slt(cond_scratch, idx, bound);
    a.brz(cond_scratch, done);
    body(a);
    a.add(idx, idx, step);
    a.jmp(top);
    a.bind(done);
}

/// Emit `if cond != 0 { body }`.
pub fn if_nonzero(a: &mut Asm, cond: impl Into<Operand>, body: impl FnOnce(&mut Asm)) {
    let skip = a.label();
    a.brz(cond.into(), skip);
    body(a);
    a.bind(skip);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abi;
    use crate::machine::{Kernel, LaunchShape, Machine};

    const IDX: Reg = Reg(16);
    const C: Reg = Reg(17);
    const T: Reg = Reg(18);

    #[test]
    fn strided_loop_covers_the_range() {
        let mut a = Asm::new();
        // G[i] = i for i in gid, gid+p, ... < 20
        strided_loop(&mut a, IDX, C, abi::GID, 20, abi::P, |a| {
            a.st_global(IDX, 0, IDX);
        });
        a.halt();
        let mut eng = Machine::umm(4, 1, 32);
        eng.launch(&Kernel::new("test", a.finish()), LaunchShape::Even(8))
            .unwrap();
        let expect: Vec<i64> = (0..20).collect();
        assert_eq!(&eng.global()[..20], &expect[..]);
        assert!(eng.global()[20..].iter().all(|&v| v == 0));
    }

    #[test]
    fn predicated_blocks_guard_correctly() {
        let mut a = Asm::new();
        a.rem(T, abi::GID, 2);
        if_nonzero(&mut a, T, |a| {
            a.st_global(abi::GID, 0, 1); // odd threads
        });
        a.halt();
        let mut eng = Machine::umm(4, 1, 16);
        eng.launch(&Kernel::new("test", a.finish()), LaunchShape::Even(8))
            .unwrap();
        assert_eq!(&eng.global()[..8], &[0, 1, 0, 1, 0, 1, 0, 1]);
    }
}
