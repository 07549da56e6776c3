//! Semantics-preserving layout and schedule transforms, applied when a
//! kernel is compiled.
//!
//! The autotuner (`hmm-tune`) explores kernel variants by compiling one
//! [`crate::compile::KernelBuilder`] under different transform lists
//! ([`KernelBuilder::compile_with`]). Every transform here preserves
//! the *values* a kernel computes — only the memory layout of the
//! scratch (shared) space or the instruction schedule changes, which is
//! exactly what the machine model prices:
//!
//! * [`Transform::PadShared`] — bank-offset padding: shared address `a`
//!   becomes `a + (a / period) · pad`, staggering rows across banks (the
//!   classic fix for power-of-two-strided bank conflicts);
//! * [`Transform::SwizzleShared`] — xor swizzle: `a` becomes
//!   `a ^ ((a / w) mod w)`, permuting each row's columns by its row index
//!   so column walks hit distinct banks (requires `w` a power of two);
//! * [`Transform::TransposeShared`] — array transpose of the first
//!   `rows · cols` shared cells: `r·cols + c` becomes `c·rows + r`,
//!   exchanging row-major for column-major conflict behaviour;
//! * [`Transform::UnrollStrided`] — unrolls canonical
//!   [`KernelBuilder::for_strided`]-shaped loops by a factor, trading code
//!   size for loop-overhead (`jmp`) instructions.
//!
//! The kernel's statements are never copied or rewritten. The code
//! generator compiles every shared address through the active remaps in
//! list order, each a fixed template around the address it wraps, and
//! compiles the wrapped address again at each of its uses in the
//! template — the instruction stream the model prices is that of the
//! remap written out as an expression tree. An unrolled loop's guarded
//! copies are the same body compiled again.
//!
//! The address transforms are **injective remappings of the shared
//! address space**: two distinct addresses never collide, so a kernel
//! that never reads uninitialised shared cells computes exactly the same
//! global-memory result. `crates/tune/tests/transforms_preserve.rs`
//! property-tests this against the sequential references. Because the
//! remapped address is evaluated more than once, an active remap rejects
//! kernels whose shared addresses themselves contain memory loads
//! (repeating a load would change the priced request stream).
//!
//! [`KernelBuilder::compile_with`]: crate::compile::KernelBuilder::compile_with
//! [`KernelBuilder::for_strided`]: crate::compile::KernelBuilder::for_strided

use hmm_machine::isa::{BinOp, Space};

use crate::ast::{Expr, Stmt};

/// One layout or schedule pass. See the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transform {
    /// Bank-offset padding of shared addresses:
    /// `a ↦ a + (a / period) · pad`.
    PadShared {
        /// Row length in words (usually the machine width `w`).
        period: usize,
        /// Words of padding inserted after each row.
        pad: usize,
    },
    /// Xor swizzle of shared addresses: `a ↦ a ^ ((a / width) mod width)`
    /// — a per-row permutation of columns. `width` must be a power of two.
    SwizzleShared {
        /// Row length and permutation modulus (the bank count `w`).
        width: usize,
    },
    /// Transpose of the first `rows · cols` shared cells:
    /// `r·cols + c ↦ c·rows + r`; addresses beyond the region are
    /// untouched.
    TransposeShared {
        /// Rows of the transposed region.
        rows: usize,
        /// Columns of the transposed region.
        cols: usize,
    },
    /// Unroll canonical strided loops (`for i = a; i < b; i += s`) by
    /// `factor`, guarding every replicated iteration, so any trip count
    /// stays correct. Loops containing barriers are left untouched, and
    /// only the first unroll by 2 or more in a list has an effect.
    UnrollStrided {
        /// Iterations per loop trip after unrolling (≥ 2 to change
        /// anything).
        factor: usize,
    },
}

/// Why a transform refused a kernel (the tuner records these candidates
/// as infeasible rather than mis-tuning them).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransformError {
    /// Degenerate parameters (zero period/factor, non-power-of-two
    /// swizzle width, empty transpose region).
    BadParams(String),
    /// A shared-memory address expression contains a memory load; the
    /// remap would duplicate the load and change the request stream.
    AddressContainsLoad,
}

impl std::fmt::Display for TransformError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransformError::BadParams(msg) => write!(f, "bad transform parameters: {msg}"),
            TransformError::AddressContainsLoad => {
                write!(f, "shared address expression contains a load")
            }
        }
    }
}

impl std::error::Error for TransformError {}

impl Transform {
    /// Short human-readable name, e.g. `pad(4,1)` or `unroll(2)`.
    #[must_use]
    pub fn name(&self) -> String {
        match self {
            Transform::PadShared { period, pad } => format!("pad({period},{pad})"),
            Transform::SwizzleShared { width } => format!("swizzle({width})"),
            Transform::TransposeShared { rows, cols } => format!("transpose({rows}x{cols})"),
            Transform::UnrollStrided { factor } => format!("unroll({factor})"),
        }
    }

    /// Shared-memory words required after the transform, given that the
    /// untransformed kernel addresses `[0, base)`.
    #[must_use]
    pub fn required_shared(&self, base: usize) -> usize {
        match *self {
            Transform::PadShared { period, pad } => {
                if base == 0 || period == 0 {
                    base
                } else {
                    // Highest used address base-1 maps to
                    // base-1 + ((base-1)/period)·pad.
                    base + ((base - 1) / period) * pad
                }
            }
            // Swizzling stays inside each w-aligned row.
            Transform::SwizzleShared { width } => {
                if width == 0 {
                    base
                } else {
                    base.div_ceil(width) * width
                }
            }
            // The transposed region is a bijection of [0, rows·cols).
            Transform::TransposeShared { rows, cols } => base.max(rows * cols),
            Transform::UnrollStrided { .. } => base,
        }
    }

    /// Reject degenerate parameters.
    fn check_params(&self) -> Result<(), TransformError> {
        let bad = |msg: &str| Err(TransformError::BadParams(msg.into()));
        match *self {
            Transform::PadShared { period: 0, .. } => bad("pad period must be ≥ 1"),
            Transform::SwizzleShared { width } if width < 2 || !width.is_power_of_two() => {
                Err(TransformError::BadParams(format!(
                    "swizzle width {width} must be a power of two ≥ 2"
                )))
            }
            Transform::TransposeShared { rows, cols } if rows == 0 || cols == 0 => {
                bad("transpose region must be non-empty")
            }
            Transform::UnrollStrided { factor: 0 } => bad("unroll factor must be ≥ 1"),
            _ => Ok(()),
        }
    }

    /// The address template of an active remap and its parameters;
    /// `None` for an unroll and for padding by 0 words, which leave
    /// every address alone.
    pub(crate) fn remap(&self) -> Option<(&'static Template, [usize; 3])> {
        match *self {
            Transform::PadShared { pad: 0, .. } | Transform::UnrollStrided { .. } => None,
            Transform::PadShared { period, pad } => Some((&PAD, [period, pad, 0])),
            Transform::SwizzleShared { width } => Some((&SWIZZLE, [width, 0, 0])),
            Transform::TransposeShared { rows, cols } => {
                Some((&TRANSPOSE, [rows * cols, cols, rows]))
            }
        }
    }
}

/// A remapped shared address, as a tree around the original address
/// `a`. Each [`Template::Addr`] leaf compiles the address again, so the
/// instructions are those of the tree with `a` written out at each leaf.
#[derive(Debug)]
pub(crate) enum Template {
    /// The address being remapped.
    Addr,
    /// The remap's `i`-th parameter, as an immediate.
    Param(usize),
    /// A binary ALU operation.
    Bin(BinOp, &'static Template, &'static Template),
    /// `cond != 0 ? a : b`.
    Select(&'static Template, &'static Template, &'static Template),
}

use Template::{Addr, Bin, Param};

/// `a + (a / period) · pad`, parameters `[period, pad]`.
static PAD: Template = Bin(
    BinOp::Add,
    &Addr,
    &Bin(BinOp::Mul, &Bin(BinOp::Div, &Addr, &Param(0)), &Param(1)),
);

/// `a ^ ((a / width) mod width)`, parameters `[width]`.
static SWIZZLE: Template = Bin(
    BinOp::Xor,
    &Addr,
    &Bin(BinOp::Rem, &Bin(BinOp::Div, &Addr, &Param(0)), &Param(0)),
);

/// `a < rows·cols ? (a mod cols)·rows + a / cols : a`, parameters
/// `[rows·cols, cols, rows]`.
static TRANSPOSE: Template = Template::Select(
    &Bin(BinOp::Slt, &Addr, &Param(0)),
    &Bin(
        BinOp::Add,
        &Bin(BinOp::Mul, &Bin(BinOp::Rem, &Addr, &Param(1)), &Param(2)),
        &Bin(BinOp::Div, &Addr, &Param(1)),
    ),
    &Addr,
);

/// Check `transforms` against `body` in list order: each one's
/// parameters, then, for an active remap, that no shared address
/// contains a load. Returns the unroll factor in effect — that of the
/// first unroll by 2 or more; after it no loop is canonical any more,
/// so a later unroll has nothing to do.
///
/// # Errors
/// The first failing check.
pub(crate) fn check(body: &[Stmt], transforms: &[Transform]) -> Result<usize, TransformError> {
    let mut load_in_address = None;
    let mut unroll = 1;
    for t in transforms {
        t.check_params()?;
        if t.remap().is_some() && *load_in_address.get_or_insert_with(|| any_load_in_address(body))
        {
            return Err(TransformError::AddressContainsLoad);
        }
        if let Transform::UnrollStrided { factor } = *t {
            if unroll == 1 {
                unroll = factor;
            }
        }
    }
    Ok(unroll)
}

/// Shared-memory words required after `transforms`, starting from a
/// kernel that addresses `[0, base)` — address remaps compose, so the
/// requirement is folded through every pass in order.
#[must_use]
pub fn required_shared_all(base: usize, transforms: &[Transform]) -> usize {
    transforms
        .iter()
        .fold(base, |acc, t| t.required_shared(acc))
}

/// Whether a load appears inside some shared address of `e` — or
/// anywhere in `e` when `e` is itself part of a shared address.
fn load_in_address(e: &Expr, in_address: bool) -> bool {
    match e {
        Expr::Imm(_) | Expr::Var(_) | Expr::Special(_) => false,
        Expr::Bin(_, a, b) => load_in_address(a, in_address) || load_in_address(b, in_address),
        Expr::Select(c, a, b) => [c, a, b].iter().any(|x| load_in_address(x, in_address)),
        Expr::Load(space, addr) => in_address || load_in_address(addr, *space == Space::Shared),
    }
}

/// Whether a load appears inside some shared address of `body`, the
/// one kernel shape a remap rejects: the remapped address is evaluated
/// more than once, which would repeat the load's memory request.
fn any_load_in_address(body: &[Stmt]) -> bool {
    body.iter().any(|s| match s {
        Stmt::Set(_, e) => load_in_address(e, false),
        Stmt::Store(space, addr, value) => {
            load_in_address(value, false) || load_in_address(addr, *space == Space::Shared)
        }
        Stmt::If(c, t, e) => {
            load_in_address(c, false) || any_load_in_address(t) || any_load_in_address(e)
        }
        Stmt::While(c, b) => load_in_address(c, false) || any_load_in_address(b),
        Stmt::Barrier(_) | Stmt::Nop => false,
    })
}

fn contains_barrier(body: &[Stmt]) -> bool {
    body.iter().any(|s| match s {
        Stmt::Barrier(_) => true,
        Stmt::If(_, t, e) => contains_barrier(t) || contains_barrier(e),
        Stmt::While(_, b) => contains_barrier(b),
        _ => false,
    })
}

/// Whether an unroll replicates the `while cond { body }` loop: it has
/// the canonical strided shape — condition `var < to`, body ending in
/// `var = var + step` — and no barrier. Replicating a barrier under a
/// guard could not change a correct kernel either, but there is nothing
/// to win: the loop overhead is not barrier-bound.
pub(crate) fn unrolls(cond: &Expr, body: &[Stmt]) -> bool {
    let Expr::Bin(BinOp::Slt, lhs, _) = cond else {
        return false;
    };
    let Expr::Var(var) = **lhs else { return false };
    let Some(Stmt::Set(inc_var, Expr::Bin(BinOp::Add, inc_lhs, _))) = body.last() else {
        return false;
    };
    *inc_var == var && **inc_lhs == Expr::Var(var) && !contains_barrier(body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::helpers::{gid, imm, immu, ld_global, ld_shared, ltid, mul, p, v};
    use crate::compile::{CompileError, KernelBuilder};
    use hmm_machine::{Kernel, LaunchShape, Machine};

    /// Compile `k` under `transforms`, run it on a small HMM with
    /// `shared` words per DMM and return the first `take` global words.
    fn run(k: &KernelBuilder, transforms: &[Transform], shared: usize, take: usize) -> Vec<i64> {
        let program = k.compile_with(transforms).unwrap();
        let mut m = Machine::hmm(2, 4, 4, 64, shared);
        m.launch(&Kernel::new("t", program), LaunchShape::Even(8))
            .unwrap();
        m.global()[..take].to_vec()
    }

    /// A kernel that round-trips ltid through shared memory:
    /// `S[f(ltid)] = gid; G[gid] = S[f(ltid)]` under any injective `f`.
    fn shared_roundtrip() -> KernelBuilder {
        let mut k = KernelBuilder::new();
        k.store(Space::Shared, ltid(), gid());
        k.bar_dmm();
        k.store(Space::Global, gid(), ld_shared(ltid()));
        k
    }

    #[test]
    fn remaps_preserve_values_and_change_the_program() {
        for t in [
            Transform::PadShared { period: 2, pad: 1 },
            Transform::SwizzleShared { width: 4 },
            Transform::TransposeShared { rows: 2, cols: 2 },
        ] {
            let k = shared_roundtrip();
            assert_ne!(k.compile_with(&[t]), k.compile(), "{}", t.name());
            let base = run(&k, &[], 16, 8);
            assert_eq!(
                run(&k, &[t], t.required_shared(16), 8),
                base,
                "{}",
                t.name()
            );
        }
    }

    #[test]
    fn unroll_preserves_any_trip_count() {
        let mut k = KernelBuilder::new();
        let i = k.var();
        // Trip counts differ per thread and are not multiples of the
        // factor: for i = gid; i < 13; i += p { G[i] = i * 3 }.
        k.for_strided(i, gid(), imm(13), p(), |k| {
            k.store(Space::Global, v(i), mul(v(i), imm(3)));
        });
        for factor in [2, 3, 4] {
            let t = Transform::UnrollStrided { factor };
            assert_ne!(k.compile_with(&[t]), k.compile());
            assert_eq!(run(&k, &[t], 8, 13), run(&k, &[], 8, 13));
        }
    }

    #[test]
    fn unroll_leaves_barrier_loops_alone() {
        let mut k = KernelBuilder::new();
        let i = k.var();
        k.for_strided(i, imm(0), imm(4), imm(1), |k| {
            k.bar_dmm();
        });
        assert_eq!(
            k.compile_with(&[Transform::UnrollStrided { factor: 2 }]),
            k.compile()
        );
    }

    #[test]
    fn loads_in_shared_addresses_are_rejected() {
        let pad = [Transform::PadShared { period: 4, pad: 1 }];
        let mut k = KernelBuilder::new();
        k.store(Space::Shared, ld_global(imm(0)), imm(1));
        assert_eq!(
            k.compile_with(&pad),
            Err(CompileError::Transform(TransformError::AddressContainsLoad))
        );
        // Loads in *global* addresses and in stored values are fine.
        let mut k = KernelBuilder::new();
        k.store(Space::Global, ld_global(imm(0)), ld_shared(immu(1)));
        assert!(k.compile_with(&pad).is_ok());
    }

    #[test]
    fn bad_params_are_rejected() {
        let k = KernelBuilder::new();
        for t in [
            Transform::PadShared { period: 0, pad: 1 },
            Transform::SwizzleShared { width: 6 },
            Transform::TransposeShared { rows: 0, cols: 4 },
            Transform::UnrollStrided { factor: 0 },
        ] {
            assert!(
                matches!(
                    k.compile_with(&[t]),
                    Err(CompileError::Transform(TransformError::BadParams(_)))
                ),
                "{}",
                t.name()
            );
        }
        assert!(TransformError::AddressContainsLoad
            .to_string()
            .contains("load"));
    }

    #[test]
    fn capacity_accounting_is_exact() {
        let pad = Transform::PadShared { period: 4, pad: 1 };
        // Addresses [0, 16): highest (15) maps to 15 + 3 = 18 → 19 words.
        assert_eq!(pad.required_shared(16), 19);
        assert_eq!(pad.required_shared(0), 0);
        assert_eq!(
            Transform::SwizzleShared { width: 4 }.required_shared(10),
            12
        );
        assert_eq!(
            Transform::TransposeShared { rows: 4, cols: 4 }.required_shared(8),
            16
        );
        assert_eq!(Transform::UnrollStrided { factor: 4 }.required_shared(7), 7);
        assert_eq!(
            required_shared_all(16, &[pad, Transform::SwizzleShared { width: 4 }]),
            20
        );
    }

    #[test]
    fn names() {
        assert_eq!(
            Transform::PadShared { period: 4, pad: 1 }.name(),
            "pad(4,1)"
        );
        assert_eq!(Transform::SwizzleShared { width: 8 }.name(), "swizzle(8)");
        assert_eq!(
            Transform::TransposeShared { rows: 2, cols: 8 }.name(),
            "transpose(2x8)"
        );
        assert_eq!(Transform::UnrollStrided { factor: 2 }.name(), "unroll(2)");
    }
}
