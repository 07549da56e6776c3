//! The lane-affine abstract domain.
//!
//! Every register value is abstracted as `base + c · ltid`, where `ltid`
//! is the thread's index inside its DMM and `base` is constant across
//! the DMM's threads. This captures the address expressions of all the
//! paper's kernels — `a[gid]`, `a[j + h]`, `b[i·w]`, `a[i·(w+1)]` — and
//! supports *exact* reasoning about both memory models:
//!
//! * a warp covers `w` consecutive `ltid`s, so the per-lane addresses of
//!   a warp are `B + c·lane` with `B ≡ base (mod w)` — enough to count
//!   DMM bank conflicts (invariant under any uniform shift) and UMM
//!   address groups (invariant under shifts by multiples of `w`);
//! * two accesses with known bases are linear Diophantine constraints in
//!   thread ids, so shared-memory overlap between *distinct* threads is
//!   decidable.
//!
//! When a value escapes the domain (division, data-dependent selects,
//! loaded values), it collapses to [`AbsVal::Top`] and the analyses
//! degrade gracefully to "unknown".

use hmm_machine::isa::BinOp;

/// How widely the `base` part of a value is uniform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Identical for every thread of the launch (`w`, `p`, immediates).
    Launch,
    /// Identical within one DMM, may differ across DMMs (`dmm`, and
    /// `gid`'s base `pd · dmm`).
    Dmm,
}

/// The uniform (non-`ltid`) part of a value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Base {
    /// Exactly this constant.
    Known(i64),
    /// Unknown, but congruent to `r` modulo the warp width `w` and
    /// non-negative (tracks warp-aligned quantities like `k · p` when
    /// `w | p`).
    ModW(i64),
    /// Unknown.
    Any,
}

/// An abstract value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbsVal {
    /// `base + ltid_coef · ltid`, with `base` uniform at `level`.
    Affine {
        /// The uniform part.
        base: Base,
        /// Coefficient of the thread-local id.
        ltid_coef: i64,
        /// Uniformity scope of `base`.
        level: Level,
    },
    /// Anything — possibly different for every thread in a warp.
    Top,
}

impl AbsVal {
    /// A launch-uniform constant.
    #[must_use]
    pub fn known(v: i64) -> Self {
        AbsVal::Affine {
            base: Base::Known(v),
            ltid_coef: 0,
            level: Level::Launch,
        }
    }

    /// An unknown value uniform at `level`.
    #[must_use]
    pub fn unknown(level: Level) -> Self {
        AbsVal::Affine {
            base: Base::Any,
            ltid_coef: 0,
            level,
        }
    }

    /// The exact constant, if the value is one.
    #[must_use]
    pub fn as_known(self) -> Option<i64> {
        match self {
            AbsVal::Affine {
                base: Base::Known(v),
                ltid_coef: 0,
                ..
            } => Some(v),
            _ => None,
        }
    }

    /// Whether the value can differ between threads of one warp.
    #[must_use]
    pub fn varies_in_warp(self) -> bool {
        match self {
            AbsVal::Affine { ltid_coef, .. } => ltid_coef != 0,
            AbsVal::Top => true,
        }
    }

    /// Whether the value can differ between threads of one DMM.
    #[must_use]
    pub fn varies_in_dmm(self) -> bool {
        self.varies_in_warp()
    }

    /// Whether the value can differ between any two threads of the
    /// launch (lane-dependent, or DMM-dependent base).
    #[must_use]
    pub fn varies_in_launch(self) -> bool {
        match self {
            AbsVal::Affine {
                ltid_coef, level, ..
            } => ltid_coef != 0 || level > Level::Launch,
            AbsVal::Top => true,
        }
    }
}

fn join_base(a: Base, b: Base, w: i64) -> Base {
    match (a, b) {
        (Base::Known(x), Base::Known(y)) if x == y => Base::Known(x),
        (Base::Known(x), Base::Known(y)) => {
            if x >= 0 && y >= 0 && x % w == y % w {
                Base::ModW(x % w)
            } else {
                Base::Any
            }
        }
        (Base::Known(x), Base::ModW(r)) | (Base::ModW(r), Base::Known(x)) => {
            if x >= 0 && x % w == r {
                Base::ModW(r)
            } else {
                Base::Any
            }
        }
        (Base::ModW(r), Base::ModW(s)) if r == s => Base::ModW(r),
        _ => Base::Any,
    }
}

/// Least upper bound of two values (`w` is the warp width for the
/// residue tracking).
#[must_use]
pub fn join(a: AbsVal, b: AbsVal, w: i64) -> AbsVal {
    match (a, b) {
        (
            AbsVal::Affine {
                base: ba,
                ltid_coef: ca,
                level: la,
            },
            AbsVal::Affine {
                base: bb,
                ltid_coef: cb,
                level: lb,
            },
        ) => {
            if ca != cb {
                return AbsVal::Top;
            }
            AbsVal::Affine {
                base: join_base(ba, bb, w),
                ltid_coef: ca,
                level: la.max(lb),
            }
        }
        _ => AbsVal::Top,
    }
}

fn add_base(a: Base, b: Base, w: i64) -> Base {
    match (a, b) {
        (Base::Known(x), Base::Known(y)) => Base::Known(x.wrapping_add(y)),
        (Base::Known(x), Base::ModW(r)) | (Base::ModW(r), Base::Known(x)) => {
            Base::ModW((r + x.rem_euclid(w)).rem_euclid(w))
        }
        (Base::ModW(r), Base::ModW(s)) => Base::ModW((r + s).rem_euclid(w)),
        _ => Base::Any,
    }
}

fn mul_base(a: Base, b: Base, w: i64) -> Base {
    match (a, b) {
        (Base::Known(x), Base::Known(y)) => Base::Known(x.wrapping_mul(y)),
        (Base::Known(0), _) | (_, Base::Known(0)) => Base::Known(0),
        (Base::Known(x), Base::ModW(r)) | (Base::ModW(r), Base::Known(x)) => {
            if x >= 0 {
                Base::ModW((r * (x.rem_euclid(w))).rem_euclid(w))
            } else {
                Base::Any
            }
        }
        (Base::ModW(r), Base::ModW(s)) => Base::ModW((r * s).rem_euclid(w)),
        _ => Base::Any,
    }
}

fn scale(v: AbsVal, k: i64, w: i64) -> AbsVal {
    match v {
        AbsVal::Affine {
            base,
            ltid_coef,
            level,
        } => AbsVal::Affine {
            base: mul_base(base, Base::Known(k), w),
            ltid_coef: ltid_coef.wrapping_mul(k),
            level,
        },
        AbsVal::Top => AbsVal::Top,
    }
}

/// Abstract transfer function for [`BinOp`]. `w` is the warp width.
#[must_use]
#[allow(clippy::similar_names)]
pub fn binop(op: BinOp, a: AbsVal, b: AbsVal, w: i64) -> AbsVal {
    // Fully known operands evaluate as the ALU does (Div/Rem by zero is
    // a runtime error, so Any is fine).
    if let (Some(x), Some(y)) = (a.as_known(), b.as_known()) {
        if let Some(v) = op.eval(x, y) {
            return AbsVal::known(v);
        }
    }
    let (AbsVal::Affine { level: la, .. }, AbsVal::Affine { level: lb, .. }) = (a, b) else {
        return AbsVal::Top;
    };
    let level = la.max(lb);

    match op {
        BinOp::Add | BinOp::Sub => {
            let (
                AbsVal::Affine {
                    base: ba,
                    ltid_coef: ca,
                    ..
                },
                AbsVal::Affine {
                    base: bb,
                    ltid_coef: cb,
                    ..
                },
            ) = (a, b)
            else {
                return AbsVal::Top;
            };
            let (bb, cb) = if op == BinOp::Sub {
                (neg_base(bb, w), -cb)
            } else {
                (bb, cb)
            };
            AbsVal::Affine {
                base: add_base(ba, bb, w),
                ltid_coef: ca.wrapping_add(cb),
                level,
            }
        }
        BinOp::Mul => match (a.as_known(), b.as_known()) {
            (Some(k), _) => scale(b, k, w),
            (_, Some(k)) => scale(a, k, w),
            _ => {
                if !a.varies_in_warp() && !b.varies_in_warp() {
                    // uniform * uniform: base product when residues known.
                    let (AbsVal::Affine { base: ba, .. }, AbsVal::Affine { base: bb, .. }) = (a, b)
                    else {
                        return AbsVal::Top;
                    };
                    AbsVal::Affine {
                        base: mul_base(ba, bb, w),
                        ltid_coef: 0,
                        level,
                    }
                } else {
                    AbsVal::Top
                }
            }
        },
        BinOp::Shl => {
            if let Some(k) = b.as_known() {
                if (0..63).contains(&k) {
                    return scale(a, 1i64 << k, w);
                }
            }
            uniform_or_top(a, b, level)
        }
        _ => uniform_or_top(a, b, level),
    }
}

/// Ops outside the affine fragment: stay uniform if both inputs are,
/// otherwise collapse.
fn uniform_or_top(a: AbsVal, b: AbsVal, level: Level) -> AbsVal {
    if a.varies_in_warp() || b.varies_in_warp() {
        AbsVal::Top
    } else {
        AbsVal::Affine {
            base: Base::Any,
            ltid_coef: 0,
            level,
        }
    }
}

fn neg_base(b: Base, w: i64) -> Base {
    match b {
        Base::Known(x) => Base::Known(x.wrapping_neg()),
        Base::ModW(r) => Base::ModW((-r).rem_euclid(w)),
        Base::Any => Base::Any,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const W: i64 = 32;

    fn affine(base: Base, c: i64, level: Level) -> AbsVal {
        AbsVal::Affine {
            base,
            ltid_coef: c,
            level,
        }
    }

    #[test]
    fn known_arithmetic_folds() {
        let v = binop(BinOp::Mul, AbsVal::known(6), AbsVal::known(7), W);
        assert_eq!(v.as_known(), Some(42));
        let v = binop(BinOp::Slt, AbsVal::known(3), AbsVal::known(9), W);
        assert_eq!(v.as_known(), Some(1));
    }

    #[test]
    fn ltid_plus_constant_keeps_coefficient() {
        let ltid = affine(Base::Known(0), 1, Level::Launch);
        let v = binop(BinOp::Add, ltid, AbsVal::known(5), W);
        assert_eq!(v, affine(Base::Known(5), 1, Level::Launch));
    }

    #[test]
    fn scaling_by_known_scales_coefficient_and_residue() {
        let ltid = affine(Base::Known(0), 1, Level::Launch);
        let v = binop(BinOp::Mul, ltid, AbsVal::known(33), W);
        assert_eq!(v, affine(Base::Known(0), 33, Level::Launch));
        let shifted = binop(BinOp::Shl, ltid, AbsVal::known(3), W);
        assert_eq!(shifted, affine(Base::Known(0), 8, Level::Launch));
    }

    #[test]
    fn join_of_warp_aligned_constants_is_modw() {
        let a = AbsVal::known(0);
        let b = AbsVal::known(64);
        assert_eq!(join(a, b, W), affine(Base::ModW(0), 0, Level::Launch));
        // Further joins with more multiples stay put (loop fixpoint).
        let j = join(join(a, b, W), AbsVal::known(96), W);
        assert_eq!(j, affine(Base::ModW(0), 0, Level::Launch));
    }

    #[test]
    fn join_of_misaligned_constants_is_any() {
        let j = join(AbsVal::known(0), AbsVal::known(1), W);
        assert_eq!(j, affine(Base::Any, 0, Level::Launch));
    }

    #[test]
    fn differing_coefficients_collapse_to_top() {
        let a = affine(Base::Known(0), 1, Level::Launch);
        let b = affine(Base::Known(0), 2, Level::Launch);
        assert_eq!(join(a, b, W), AbsVal::Top);
    }

    #[test]
    fn division_of_varying_value_is_top() {
        let gid = affine(Base::ModW(0), 1, Level::Dmm);
        assert_eq!(binop(BinOp::Div, gid, AbsVal::known(4), W), AbsVal::Top);
        assert_eq!(binop(BinOp::Xor, gid, AbsVal::known(16), W), AbsVal::Top);
    }

    #[test]
    fn uniform_unknowns_stay_uniform() {
        let p = AbsVal::unknown(Level::Launch);
        let v = binop(BinOp::Div, p, AbsVal::known(2), W);
        assert_eq!(v, affine(Base::Any, 0, Level::Launch));
        assert!(!v.varies_in_launch());
    }

    #[test]
    fn dmm_level_propagates() {
        let dmm = AbsVal::unknown(Level::Dmm);
        let v = binop(BinOp::Add, dmm, AbsVal::known(3), W);
        assert!(v.varies_in_launch());
        assert!(!v.varies_in_dmm());
    }

    #[test]
    fn modw_addition_tracks_residues() {
        let a = affine(Base::ModW(4), 0, Level::Launch);
        let v = binop(BinOp::Add, a, AbsVal::known(30), W);
        assert_eq!(v, affine(Base::ModW(2), 0, Level::Launch));
    }
}
