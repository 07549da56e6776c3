//! Generalised reductions: the Lemma 5 / Theorem 7 summing structures
//! work for any associative, commutative operator with an identity — the
//! access pattern, barrier structure and therefore the *time bounds* are
//! operator-independent. This module exposes sum, minimum and maximum.

use hmm_machine::isa::{BinOp, Inst, Reg};
use hmm_machine::Word;

pub use crate::sum::dmm_umm::run_reduce_dmm_umm;
pub use crate::sum::hmm_all::run_reduce_hmm;

/// An associative reduction operator with an identity element.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    /// Wrapping addition (identity 0) — the paper's sum.
    Sum,
    /// Minimum (identity `Word::MAX`).
    Min,
    /// Maximum (identity `Word::MIN`).
    Max,
}

impl ReduceOp {
    /// The identity element used to pad inputs to a power of two.
    #[must_use]
    pub fn identity(self) -> Word {
        match self {
            ReduceOp::Sum => 0,
            ReduceOp::Min => Word::MAX,
            ReduceOp::Max => Word::MIN,
        }
    }

    /// The ISA instruction computing `dst <- a (op) b`.
    #[must_use]
    pub fn combine(self, dst: Reg, a: Reg, b: Reg) -> Inst {
        let bin = match self {
            ReduceOp::Sum => BinOp::Add,
            ReduceOp::Min => BinOp::Min,
            ReduceOp::Max => BinOp::Max,
        };
        Inst::Bin(bin, dst, a.into(), b.into())
    }

    /// Host-side application, for references and tests.
    #[must_use]
    pub fn apply(self, a: Word, b: Word) -> Word {
        match self {
            ReduceOp::Sum => a.wrapping_add(b),
            ReduceOp::Min => a.min(b),
            ReduceOp::Max => a.max(b),
        }
    }

    /// Host-side fold over a slice.
    #[must_use]
    pub fn fold(self, xs: &[Word]) -> Word {
        xs.iter()
            .copied()
            .fold(self.identity(), |a, b| self.apply(a, b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmm_machine::Machine;
    use hmm_workloads::random_words;

    #[test]
    fn identities_are_neutral() {
        for op in [ReduceOp::Sum, ReduceOp::Min, ReduceOp::Max] {
            for x in [-5, 0, 7, Word::MAX, Word::MIN] {
                assert_eq!(op.apply(op.identity(), x), x, "{op:?} / {x}");
                assert_eq!(op.apply(x, op.identity()), x, "{op:?} / {x}");
            }
        }
    }

    #[test]
    fn fold_matches_std() {
        let xs = random_words(100, 9, 1000);
        assert_eq!(ReduceOp::Min.fold(&xs), *xs.iter().min().unwrap());
        assert_eq!(ReduceOp::Max.fold(&xs), *xs.iter().max().unwrap());
        assert_eq!(
            ReduceOp::Sum.fold(&xs),
            xs.iter().copied().fold(0, Word::wrapping_add)
        );
    }

    #[test]
    fn min_max_reduce_on_all_machines() {
        let input = random_words(777, 31, 100_000);
        for op in [ReduceOp::Min, ReduceOp::Max] {
            let expect = op.fold(&input);
            let mut umm = Machine::umm(8, 8, 1024);
            assert_eq!(
                run_reduce_dmm_umm(&mut umm, &input, 64, op).unwrap().value,
                expect,
                "{op:?} on UMM"
            );
            let mut dmm = Machine::dmm(8, 8, 1024);
            assert_eq!(
                run_reduce_dmm_umm(&mut dmm, &input, 64, op).unwrap().value,
                expect,
                "{op:?} on DMM"
            );
            let mut hmm = Machine::hmm(4, 8, 8, 1024, 64);
            assert_eq!(
                run_reduce_hmm(&mut hmm, &input, 64, op).unwrap().value,
                expect,
                "{op:?} on HMM"
            );
        }
    }

    /// Min/Max keep the Theorem 7 time profile: the operator swap does
    /// not change the access pattern, so the times are identical.
    #[test]
    fn operator_swap_does_not_change_timing() {
        let input = random_words(1 << 10, 5, 100);
        let t = |op: ReduceOp| {
            let mut m = Machine::hmm(4, 8, 32, (1 << 10) + 16, 128);
            run_reduce_hmm(&mut m, &input, 256, op).unwrap().report.time
        };
        let ts = t(ReduceOp::Sum);
        assert_eq!(ts, t(ReduceOp::Min));
        assert_eq!(ts, t(ReduceOp::Max));
    }
}
