//! The paper's Figure 1 access patterns and the matrix-transpose kernel,
//! as minimal measurable programs.
//!
//! Figure 1 contrasts how one warp-wide access serialises on the DMM and
//! the UMM. With an `m × m` row-major matrix (`m` a multiple of `w`) and
//! thread `i` touching:
//!
//! | pattern | address | DMM slots | UMM slots |
//! |---|---|---|---|
//! | row | `i` | 1 | 1 |
//! | column | `i·m` | `w` | `w` |
//! | diagonal | `i·(m+1)` | 1 | `w` |
//! | broadcast | `0` | 1 | 1 |
//!
//! [`transpose_kernel`] combines a row-ordered read with a
//! column-ordered write — the classic kernel whose read coalesces while
//! its write does neither. These are the ground truth for
//! `tests/static_vs_dynamic.rs`: the analyzer must predict each cell of
//! the table, and the simulator must measure it.

use hmm_machine::isa::Reg;
use hmm_machine::{abi, Asm, Kernel, LaunchShape, Machine, Program, SimReport, SimResult};

use crate::{check_fit, Footprint};

const ADDR: Reg = Reg(16);
const T0: Reg = Reg(17);

/// One of the four Figure 1 access shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Figure1 {
    /// Thread `i` reads `A[i]` — a row of the matrix.
    Row,
    /// Thread `i` reads `A[i·m]` — a column (stride `m`).
    Column,
    /// Thread `i` reads `A[i·(m+1)]` — the skewed diagonal.
    Diagonal,
    /// Every thread reads `A[0]`.
    Broadcast,
}

impl Figure1 {
    /// All four patterns, in table order.
    pub const ALL: [Figure1; 4] = [
        Figure1::Row,
        Figure1::Column,
        Figure1::Diagonal,
        Figure1::Broadcast,
    ];

    /// Table name of the pattern.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Figure1::Row => "row",
            Figure1::Column => "column",
            Figure1::Diagonal => "diagonal",
            Figure1::Broadcast => "broadcast",
        }
    }
}

/// Build the one-access Figure 1 kernel for a row-major `m × m` matrix
/// at global address 0: each thread issues a single read of its pattern
/// address.
#[must_use]
pub fn figure1_kernel(pattern: Figure1, m: usize) -> Program {
    let mut a = Asm::new();
    match pattern {
        Figure1::Row => a.mov(ADDR, abi::GID),
        Figure1::Column => a.mul(ADDR, abi::GID, m),
        Figure1::Diagonal => a.mul(ADDR, abi::GID, m + 1),
        Figure1::Broadcast => a.mov(ADDR, 0),
    }
    a.ld_global(T0, ADDR, 0);
    a.halt();
    a.finish()
}

/// Build the transpose kernel `B[c·m + r] <- A[r·m + c]` where thread
/// `gid` handles element `(r, c) = (gid / m, gid mod m)`; `a_base` and
/// `b_base` are the global addresses of the two `m × m` matrices. The
/// read walks rows (coalesced / conflict-free), the write walks columns
/// (uncoalesced on the UMM, fully conflicted on the DMM when `w | m`).
#[must_use]
pub fn transpose_kernel(a_base: usize, b_base: usize, m: usize) -> Program {
    let mut a = Asm::new();
    let r = Reg(16);
    let c = Reg(17);
    let src = Reg(18);
    let v = Reg(19);
    let dst = Reg(20);
    a.div(r, abi::GID, m);
    a.rem(c, abi::GID, m);
    a.mul(src, r, m);
    a.add(src, src, c);
    a.ld_global(v, src, a_base);
    a.mul(dst, c, m);
    a.add(dst, dst, r);
    a.st_global(dst, b_base, v);
    a.halt();
    a.finish()
}

/// The footprint of `matrices` row-major `m × m` matrices laid end to
/// end in global memory: 1 for [`run_figure1`], 2 for [`run_transpose`].
#[must_use]
pub fn footprint(m: usize, matrices: usize) -> Footprint {
    Footprint::new(matrices * m * m, 0)
}

/// Run one Figure 1 pattern with `p ≤ m` threads on `machine` (the
/// matrix is `m × m` at address 0; the machine is sized by
/// [`footprint`]`(m, 1)`).
///
/// # Errors
/// Propagates simulation errors.
pub fn run_figure1(
    machine: &mut Machine,
    pattern: Figure1,
    m: usize,
    p: usize,
) -> SimResult<SimReport> {
    let kernel = Kernel::new(pattern.name(), figure1_kernel(pattern, m));
    check_fit(machine, footprint(m, 1), &kernel)?;
    machine.launch(&kernel, LaunchShape::Even(p))
}

/// Transpose the `m × m` matrix the machine holds at address 0 into
/// `[m², 2m²)` using `m²` threads and return the report. The machine is
/// sized by [`footprint`]`(m, 2)`.
///
/// # Errors
/// Propagates simulation errors.
pub fn run_transpose(machine: &mut Machine, m: usize) -> SimResult<SimReport> {
    let kernel = Kernel::new("transpose", transpose_kernel(0, m * m, m));
    check_fit(machine, footprint(m, 2), &kernel)?;
    machine.launch(&kernel, LaunchShape::Even(m * m))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure1_measured_slots_match_the_table() {
        let (w, l, m, p) = (4, 4, 8, 8);
        for (pattern, dmm_slots, umm_slots) in [
            (Figure1::Row, 1, 1),
            (Figure1::Column, w as u64, w as u64),
            (Figure1::Diagonal, 1, w as u64),
            (Figure1::Broadcast, 1, 1),
        ] {
            let mut dmm = Machine::dmm(w, l, m * m + m);
            let r = run_figure1(&mut dmm, pattern, m, p).unwrap();
            assert_eq!(
                r.global.max_slots_per_transaction,
                dmm_slots,
                "{} on DMM",
                pattern.name()
            );
            let mut umm = Machine::umm(w, l, m * m + m);
            let r = run_figure1(&mut umm, pattern, m, p).unwrap();
            assert_eq!(
                r.global.max_slots_per_transaction,
                umm_slots,
                "{} on UMM",
                pattern.name()
            );
        }
    }

    #[test]
    fn transpose_transposes() {
        let (w, l, m) = (4, 4, 4);
        let mut umm = footprint(m, 2).umm(w, l);
        for i in 0..m * m {
            umm.global_mut()[i] = i as i64;
        }
        let r = run_transpose(&mut umm, m).unwrap();
        for row in 0..m {
            for col in 0..m {
                assert_eq!(umm.global()[m * m + col * m + row], (row * m + col) as i64);
            }
        }
        // Column-ordered writes: w groups per warp.
        assert_eq!(r.global.max_slots_per_transaction, w as u64);
    }
}
