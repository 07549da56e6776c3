//! Randomised oracle test: compiled expressions compute exactly what a
//! host-side evaluator computes, for random expression trees and thread
//! counts, with a seeded generator so every run checks the same trees.

use hmm_lang::ast::helpers as h;
use hmm_lang::{Expr, KernelBuilder, Special};
use hmm_machine::isa::{BinOp, Space};
use hmm_machine::{Kernel, LaunchShape, Machine, Word};
use hmm_util::Rng;

/// Host-side evaluation of the pure (load-free) expression subset.
fn eval_host(e: &Expr, gid: Word, p: Word) -> Word {
    match e {
        Expr::Imm(v) => *v,
        Expr::Special(Special::Gid) => gid,
        Expr::Special(Special::P) => p,
        Expr::Special(_) | Expr::Var(_) | Expr::Load(..) => unreachable!("not generated"),
        Expr::Bin(op, a, b) => {
            let av = eval_host(a, gid, p);
            let bv = eval_host(b, gid, p);
            match op {
                BinOp::Add => av.wrapping_add(bv),
                BinOp::Sub => av.wrapping_sub(bv),
                BinOp::Mul => av.wrapping_mul(bv),
                BinOp::Min => av.min(bv),
                BinOp::Max => av.max(bv),
                BinOp::And => av & bv,
                BinOp::Or => av | bv,
                BinOp::Xor => av ^ bv,
                BinOp::Slt => Word::from(av < bv),
                BinOp::Sle => Word::from(av <= bv),
                BinOp::Seq => Word::from(av == bv),
                BinOp::Sne => Word::from(av != bv),
                _ => unreachable!("not generated"),
            }
        }
        Expr::Select(c, a, b) => {
            if eval_host(c, gid, p) != 0 {
                eval_host(a, gid, p)
            } else {
                eval_host(b, gid, p)
            }
        }
    }
}

const OPS: [BinOp; 12] = [
    BinOp::Add,
    BinOp::Sub,
    BinOp::Mul,
    BinOp::Min,
    BinOp::Max,
    BinOp::And,
    BinOp::Or,
    BinOp::Xor,
    BinOp::Slt,
    BinOp::Sle,
    BinOp::Seq,
    BinOp::Sne,
];

/// A random load-free expression over `gid`, `p`, and small constants.
fn random_expr(rng: &mut Rng, depth: usize) -> Expr {
    // Bias towards leaves as depth runs out.
    if depth == 0 || rng.usize_below(4) == 0 {
        return match rng.usize_below(3) {
            0 => Expr::Imm(rng.int_in(-50, 49)),
            1 => h::gid(),
            _ => h::p(),
        };
    }
    if rng.usize_below(4) == 0 {
        Expr::Select(
            Box::new(random_expr(rng, depth - 1)),
            Box::new(random_expr(rng, depth - 1)),
            Box::new(random_expr(rng, depth - 1)),
        )
    } else {
        let op = OPS[rng.usize_below(OPS.len())];
        Expr::Bin(
            op,
            Box::new(random_expr(rng, depth - 1)),
            Box::new(random_expr(rng, depth - 1)),
        )
    }
}

#[test]
fn compiled_expressions_match_the_host() {
    let mut rng = Rng::new(0x0AC1E);
    for case in 0..64 {
        let e = random_expr(&mut rng, 5);
        let p = 1 + rng.usize_below(15);
        let mut k = KernelBuilder::new();
        k.store(Space::Global, h::gid(), e.clone());
        // Deep random trees may legitimately exceed the temp stack.
        let Ok(program) = k.compile() else { continue };
        let mut m = Machine::umm(4, 1, p.max(4));
        m.launch(&Kernel::new("oracle", program), LaunchShape::Even(p))
            .unwrap();
        for g in 0..p {
            assert_eq!(
                m.global()[g],
                eval_host(&e, g as Word, p as Word),
                "case {case}, gid {g}"
            );
        }
    }
}
