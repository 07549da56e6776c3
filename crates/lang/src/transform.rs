//! Semantics-preserving layout and schedule transforms over kernel ASTs.
//!
//! The autotuner (`hmm-tune`) explores kernel variants by rewriting the
//! statement list of a [`crate::compile::KernelBuilder`] before
//! compilation. Every transform here preserves the *values* a kernel
//! computes — only the memory layout of the scratch (shared) space or the
//! instruction schedule changes, which is exactly what the machine model
//! prices:
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
//! The address transforms are **injective remappings of the shared
//! address space**: two distinct addresses never collide, so a kernel
//! that never reads uninitialised shared cells computes exactly the same
//! global-memory result. `crates/tune/tests/transforms_preserve.rs`
//! property-tests this against the sequential references. Address
//! expressions are *duplicated* by the remap, so transforms reject
//! kernels whose shared address expressions themselves contain memory
//! loads (duplicating a load would change the priced request stream).
//!
//! [`KernelBuilder::for_strided`]: crate::compile::KernelBuilder::for_strided

use hmm_machine::isa::{BinOp, Space};

use crate::ast::helpers::{add, div, immu, lt, mul, rem, select, xor};
use crate::ast::{Expr, Stmt};

/// One rewrite pass over a kernel body. See the module docs.
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
    /// stays correct. Loops containing barriers are left untouched.
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

    /// Apply the pass to a kernel body, returning the rewritten body.
    ///
    /// # Errors
    /// [`TransformError::BadParams`] for degenerate parameters,
    /// [`TransformError::AddressContainsLoad`] when a shared address
    /// expression contains a memory load (the remap would duplicate it).
    pub fn apply(&self, body: &[Stmt]) -> Result<Vec<Stmt>, TransformError> {
        match *self {
            Transform::PadShared { period, pad } => {
                if period == 0 {
                    return Err(TransformError::BadParams("pad period must be ≥ 1".into()));
                }
                if pad == 0 {
                    return Ok(body.to_vec());
                }
                map_shared_addrs(body, &|a| {
                    add(a.clone(), mul(div(a, immu(period)), immu(pad)))
                })
            }
            Transform::SwizzleShared { width } => {
                if width < 2 || !width.is_power_of_two() {
                    return Err(TransformError::BadParams(format!(
                        "swizzle width {width} must be a power of two ≥ 2"
                    )));
                }
                map_shared_addrs(body, &|a| {
                    xor(a.clone(), rem(div(a, immu(width)), immu(width)))
                })
            }
            Transform::TransposeShared { rows, cols } => {
                if rows == 0 || cols == 0 {
                    return Err(TransformError::BadParams(
                        "transpose region must be non-empty".into(),
                    ));
                }
                let region = rows * cols;
                map_shared_addrs(body, &|a| {
                    select(
                        lt(a.clone(), immu(region)),
                        add(
                            mul(rem(a.clone(), immu(cols)), immu(rows)),
                            div(a.clone(), immu(cols)),
                        ),
                        a,
                    )
                })
            }
            Transform::UnrollStrided { factor } => {
                if factor == 0 {
                    return Err(TransformError::BadParams(
                        "unroll factor must be ≥ 1".into(),
                    ));
                }
                if factor == 1 {
                    return Ok(body.to_vec());
                }
                Ok(unroll_stmts(body, factor))
            }
        }
    }
}

/// Apply `transforms` left to right (the tuner's canonical composition
/// order: schedule first, then address remaps).
///
/// # Errors
/// Propagates the first failing pass.
pub fn apply_all(body: &[Stmt], transforms: &[Transform]) -> Result<Vec<Stmt>, TransformError> {
    let mut cur = body.to_vec();
    for t in transforms {
        cur = t.apply(&cur)?;
    }
    Ok(cur)
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

fn contains_load(e: &Expr) -> bool {
    match e {
        Expr::Imm(_) | Expr::Var(_) | Expr::Special(_) => false,
        Expr::Bin(_, a, b) => contains_load(a) || contains_load(b),
        Expr::Select(c, a, b) => contains_load(c) || contains_load(a) || contains_load(b),
        Expr::Load(..) => true,
    }
}

/// Rewrite every shared-memory address in `body` with `remap`, recursing
/// through nested expressions and statements.
fn map_shared_addrs(
    body: &[Stmt],
    remap: &dyn Fn(Expr) -> Expr,
) -> Result<Vec<Stmt>, TransformError> {
    body.iter().map(|s| map_stmt(s, remap)).collect()
}

fn map_stmt(s: &Stmt, remap: &dyn Fn(Expr) -> Expr) -> Result<Stmt, TransformError> {
    Ok(match s {
        Stmt::Set(var, e) => Stmt::Set(*var, map_expr(e, remap)?),
        Stmt::Store(space, addr, value) => {
            let value = map_expr(value, remap)?;
            let addr = map_expr(addr, remap)?;
            let addr = match space {
                Space::Shared => {
                    if contains_load(&addr) {
                        return Err(TransformError::AddressContainsLoad);
                    }
                    remap(addr)
                }
                Space::Global => addr,
            };
            Stmt::Store(*space, addr, value)
        }
        Stmt::If(c, t, e) => Stmt::If(
            map_expr(c, remap)?,
            map_shared_addrs(t, remap)?,
            map_shared_addrs(e, remap)?,
        ),
        Stmt::While(c, b) => Stmt::While(map_expr(c, remap)?, map_shared_addrs(b, remap)?),
        Stmt::Barrier(scope) => Stmt::Barrier(*scope),
        Stmt::Nop => Stmt::Nop,
    })
}

fn map_expr(e: &Expr, remap: &dyn Fn(Expr) -> Expr) -> Result<Expr, TransformError> {
    Ok(match e {
        Expr::Imm(_) | Expr::Var(_) | Expr::Special(_) => e.clone(),
        Expr::Bin(op, a, b) => Expr::Bin(
            *op,
            Box::new(map_expr(a, remap)?),
            Box::new(map_expr(b, remap)?),
        ),
        Expr::Select(c, a, b) => Expr::Select(
            Box::new(map_expr(c, remap)?),
            Box::new(map_expr(a, remap)?),
            Box::new(map_expr(b, remap)?),
        ),
        Expr::Load(space, addr) => {
            let addr = map_expr(addr, remap)?;
            let addr = match space {
                Space::Shared => {
                    if contains_load(&addr) {
                        return Err(TransformError::AddressContainsLoad);
                    }
                    remap(addr)
                }
                Space::Global => addr,
            };
            Expr::Load(*space, Box::new(addr))
        }
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

/// Whether a `While` matches the canonical strided shape: condition
/// `var < to`, body ending in `var = var + step`.
fn strided_shape(cond: &Expr, body: &[Stmt]) -> Option<crate::ast::Var> {
    let Expr::Bin(BinOp::Slt, lhs, _) = cond else {
        return None;
    };
    let Expr::Var(var) = **lhs else { return None };
    let Some(Stmt::Set(inc_var, Expr::Bin(BinOp::Add, inc_lhs, _))) = body.last() else {
        return None;
    };
    if *inc_var != var {
        return None;
    }
    let Expr::Var(inc_src) = **inc_lhs else {
        return None;
    };
    (inc_src == var).then_some(var)
}

/// Recursively unroll canonical strided loops. Every replicated
/// iteration re-checks the loop condition, so the rewritten loop executes
/// exactly the same iteration sequence for any trip count; loops whose
/// bodies contain barriers are left untouched (replicating a barrier
/// under a guard could not change a correct kernel either, but there is
/// nothing to win — the loop overhead is not barrier-bound).
fn unroll_stmts(body: &[Stmt], factor: usize) -> Vec<Stmt> {
    body.iter()
        .map(|s| match s {
            Stmt::If(c, t, e) => {
                Stmt::If(c.clone(), unroll_stmts(t, factor), unroll_stmts(e, factor))
            }
            Stmt::While(cond, b) => {
                let inner = unroll_stmts(b, factor);
                if strided_shape(cond, &inner).is_none() || contains_barrier(&inner) {
                    return Stmt::While(cond.clone(), inner);
                }
                let mut unrolled = inner.clone();
                for _ in 1..factor {
                    unrolled.push(Stmt::If(cond.clone(), inner.clone(), Vec::new()));
                }
                Stmt::While(cond.clone(), unrolled)
            }
            other => other.clone(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::helpers::{gid, imm, immu, ld_global, ld_shared, ltid, p};
    use crate::compile::KernelBuilder;
    use hmm_machine::{Kernel, LaunchShape, Machine};

    /// Run `body` (appended to a fresh builder with `vars` variables
    /// declared) on a small HMM and return the first `take` global words.
    fn run_body(body: Vec<Stmt>, vars: usize, shared: usize, take: usize) -> Vec<i64> {
        let mut k = KernelBuilder::new();
        for _ in 0..vars {
            let _ = k.var();
        }
        for s in body {
            k.stmt(s);
        }
        let program = k.compile().unwrap();
        let mut m = Machine::hmm(2, 4, 4, 64, shared);
        m.launch(&Kernel::new("t", program), LaunchShape::Even(8))
            .unwrap();
        m.global()[..take].to_vec()
    }

    /// A kernel that round-trips ltid through shared memory:
    /// `S[f(ltid)] = gid; G[gid] = S[f(ltid)]` under any injective `f`.
    fn shared_roundtrip() -> (Vec<Stmt>, usize) {
        let mut k = KernelBuilder::new();
        k.store(Space::Shared, ltid(), gid());
        k.bar_dmm();
        k.store(Space::Global, gid(), ld_shared(ltid()));
        (k.body().to_vec(), 0)
    }

    #[test]
    fn pad_preserves_values_and_remaps_addresses() {
        let (body, vars) = shared_roundtrip();
        let t = Transform::PadShared { period: 2, pad: 1 };
        let padded = t.apply(&body).unwrap();
        assert_ne!(padded, body);
        let base = run_body(body, vars, 16, 8);
        let got = run_body(padded, vars, t.required_shared(16), 8);
        assert_eq!(base, got);
    }

    #[test]
    fn swizzle_and_transpose_preserve_values() {
        for t in [
            Transform::SwizzleShared { width: 4 },
            Transform::TransposeShared { rows: 2, cols: 2 },
        ] {
            let (body, vars) = shared_roundtrip();
            let mapped = t.apply(&body).unwrap();
            assert_ne!(mapped, body, "{}", t.name());
            let base = run_body(body, vars, 16, 8);
            let got = run_body(mapped, vars, t.required_shared(16), 8);
            assert_eq!(base, got, "{}", t.name());
        }
    }

    #[test]
    fn unroll_preserves_any_trip_count() {
        for factor in [2, 3, 4] {
            let mut k = KernelBuilder::new();
            let i = k.var();
            // Trip counts differ per thread and are not multiples of the
            // factor: for i = gid; i < 13; i += p { G[i] = i * 3 }.
            k.for_strided(i, gid(), imm(13), p(), |k| {
                k.store(
                    Space::Global,
                    crate::ast::helpers::v(i),
                    crate::ast::helpers::mul(crate::ast::helpers::v(i), imm(3)),
                );
            });
            let body = k.body().to_vec();
            let t = Transform::UnrollStrided { factor };
            let unrolled = t.apply(&body).unwrap();
            assert_ne!(unrolled, body);
            assert_eq!(run_body(body, 1, 8, 13), run_body(unrolled, 1, 8, 13));
        }
    }

    #[test]
    fn unroll_leaves_barrier_loops_alone() {
        let mut k = KernelBuilder::new();
        let i = k.var();
        k.for_strided(i, imm(0), imm(4), imm(1), |k| {
            k.bar_dmm();
        });
        let body = k.body().to_vec();
        let unrolled = Transform::UnrollStrided { factor: 2 }.apply(&body).unwrap();
        assert_eq!(unrolled, body);
    }

    #[test]
    fn loads_in_shared_addresses_are_rejected() {
        let mut k = KernelBuilder::new();
        k.store(Space::Shared, ld_global(imm(0)), imm(1));
        let err = Transform::PadShared { period: 4, pad: 1 }
            .apply(k.body())
            .unwrap_err();
        assert_eq!(err, TransformError::AddressContainsLoad);
        // Loads in *global* addresses and in stored values are fine.
        let mut k = KernelBuilder::new();
        k.store(Space::Global, ld_global(imm(0)), ld_shared(immu(1)));
        assert!(Transform::PadShared { period: 4, pad: 1 }
            .apply(k.body())
            .is_ok());
    }

    #[test]
    fn bad_params_are_rejected() {
        let body = Vec::new();
        assert!(matches!(
            Transform::PadShared { period: 0, pad: 1 }.apply(&body),
            Err(TransformError::BadParams(_))
        ));
        assert!(matches!(
            Transform::SwizzleShared { width: 6 }.apply(&body),
            Err(TransformError::BadParams(_))
        ));
        assert!(matches!(
            Transform::TransposeShared { rows: 0, cols: 4 }.apply(&body),
            Err(TransformError::BadParams(_))
        ));
        assert!(matches!(
            Transform::UnrollStrided { factor: 0 }.apply(&body),
            Err(TransformError::BadParams(_))
        ));
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
