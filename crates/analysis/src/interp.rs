//! Fixpoint abstract interpretation of a program over the affine domain.
//!
//! Produces, for every reachable pc that a later pass queries, the
//! abstract register file *before* that instruction executes, plus
//! per-pc *thread bounds* extracted from dominating guards of the form
//! `if x < k` with `x = ltid`-affine — the paper's canonical
//! `if (j < h)` tail guards. The bounds let the conflict predictor model
//! partially-populated warps and the race solver exclude threads a guard
//! filters out.
//!
//! The queried pcs are the memory accesses (conflict prediction, race
//! detection), the conditional branches (barrier divergence, sibling
//! regions, guards) and the comparisons a guard may be defined by. Only
//! their register files are kept: a file is 2 KiB, and keeping one per
//! pc would dominate the analyzer's allocations on long kernels.

use hmm_machine::abi;
use hmm_machine::isa::{BinOp, Inst, Operand, Program};
use hmm_machine::REG_COUNT;

use crate::affine::{binop, join, AbsVal, Base, Level};
use crate::cfg::Cfg;
use crate::AnalysisConfig;

/// Abstract register file.
pub type State = [AbsVal; REG_COUNT];

/// The register files kept at queried pcs, in one flat table.
pub struct States {
    /// `slot[pc]` — index of `pc`'s entry in `files`; `None` for a pc no
    /// pass queries.
    slot: Vec<Option<u32>>,
    /// One entry per queried pc; `None` while the pc is unreached.
    files: Vec<Option<State>>,
}

impl States {
    fn new(program: &Program) -> Self {
        let mut kept = 0;
        let slot = program
            .insts()
            .iter()
            .map(|inst| {
                queried(inst).then(|| {
                    kept += 1;
                    kept - 1
                })
            })
            .collect();
        Self {
            slot,
            files: vec![None; kept as usize],
        }
    }

    fn entry(&mut self, pc: usize) -> Option<&mut Option<State>> {
        let i = (*self.slot.get(pc)?)?;
        self.files.get_mut(i as usize)
    }

    /// Abstract registers before executing `pc`; `None` when `pc` is
    /// unreachable or not a queried pc.
    #[must_use]
    pub fn get(&self, pc: usize) -> Option<&State> {
        let i = (*self.slot.get(pc)?)?;
        self.files.get(i as usize)?.as_ref()
    }
}

/// Whether a later pass reads the register file before `inst`: loads and
/// stores, conditional branches, and the comparisons that define guards.
fn queried(inst: &Inst) -> bool {
    matches!(
        inst,
        Inst::Ld(..)
            | Inst::St(..)
            | Inst::Brz(..)
            | Inst::Brnz(..)
            | Inst::Bin(BinOp::Slt | BinOp::Sle | BinOp::Seq | BinOp::Sne, ..)
    )
}

/// Interpretation result.
pub struct Interp {
    /// Abstract registers before each reachable queried pc.
    pub state: States,
    /// `thread_limit[pc]` — if `Some(k)`, only threads with `ltid < k`
    /// can execute `pc` (derived from dominating guards).
    pub thread_limit: Vec<Option<i64>>,
}

/// Initial register file from the launch ABI and the analysis config.
#[must_use]
pub fn entry_state(cfg: &AnalysisConfig) -> State {
    let w = cfg.width as i64;
    let mut st: State = [AbsVal::known(0); REG_COUNT];
    let launch_or = |v: Option<i64>| v.map_or(AbsVal::unknown(Level::Launch), AbsVal::known);

    st[abi::W.0 as usize] = AbsVal::known(w);
    st[abi::P.0 as usize] = launch_or(cfg.p);
    st[abi::L.0 as usize] = AbsVal::unknown(Level::Launch);
    st[abi::D.0 as usize] = AbsVal::known(cfg.dmms as i64);
    st[abi::LTID.0 as usize] = AbsVal::Affine {
        base: Base::Known(0),
        ltid_coef: 1,
        level: Level::Launch,
    };
    let pd = cfg.pd();
    st[abi::PD.0 as usize] = launch_or(pd);
    if cfg.dmms == 1 {
        st[abi::DMM.0 as usize] = AbsVal::known(0);
        // gid == ltid on a single-DMM machine.
        st[abi::GID.0 as usize] = st[abi::LTID.0 as usize];
    } else {
        st[abi::DMM.0 as usize] = AbsVal::unknown(Level::Dmm);
        // gid = pd·dmm + ltid; the base is warp-aligned when w | pd.
        let base = match pd {
            Some(pd) if pd % w == 0 => Base::ModW(0),
            _ => Base::Any,
        };
        st[abi::GID.0 as usize] = AbsVal::Affine {
            base,
            ltid_coef: 1,
            level: Level::Dmm,
        };
    }
    for i in 0..abi::NUM_ARGS {
        st[abi::arg(i).0 as usize] = AbsVal::unknown(Level::Launch);
    }
    st
}

fn operand(st: &State, op: Operand) -> AbsVal {
    match op {
        Operand::Reg(r) => st[r.0 as usize],
        Operand::Imm(v) => AbsVal::known(v),
    }
}

/// One instruction's effect on the abstract register file.
fn transfer(st: &mut State, inst: &Inst, w: i64) {
    let Some(dst) = inst.dst() else {
        return;
    };
    st[dst.0 as usize] = match *inst {
        Inst::Mov(_, src) => operand(st, src),
        Inst::Bin(op, _, a, b) => binop(op, operand(st, a), operand(st, b), w),
        Inst::Sel(_, cond, a, b) => {
            let c = operand(st, cond);
            let av = operand(st, a);
            let bv = operand(st, b);
            match c.as_known() {
                Some(0) => bv,
                Some(_) => av,
                None if c.varies_in_warp() && av != bv => AbsVal::Top,
                None => join(av, bv, w),
            }
        }
        // Only a load is left with a destination; its value is not tracked.
        _ => AbsVal::Top,
    };
}

/// Join `src` into `entry` in place (an unreached entry takes `src`);
/// whether the entry changed.
fn merge(entry: &mut Option<State>, src: &State, w: i64) -> bool {
    let Some(old) = entry else {
        *entry = Some(*src);
        return true;
    };
    let mut changed = false;
    for (o, s) in old.iter_mut().zip(src) {
        let j = join(*o, *s, w);
        if j != *o {
            *o = j;
            changed = true;
        }
    }
    changed
}

/// Run the interpretation to fixpoint.
#[must_use]
pub fn run(program: &Program, cfg_graph: &Cfg, config: &AnalysisConfig) -> Interp {
    let w = config.width as i64;
    let nb = cfg_graph.blocks.len();
    let mut in_states: Vec<Option<State>> = vec![None; nb];
    let mut state = States::new(program);

    if nb > 0 {
        in_states[0] = Some(entry_state(config));
        let mut work: Vec<usize> = vec![0];
        let mut on_work = vec![false; nb];
        on_work[0] = true;
        while let Some(b) = work.pop() {
            on_work[b] = false;
            // The register file flowing through the block: a stack copy,
            // joined in place into the kept files and successor inputs.
            let Some(mut st) = in_states[b] else {
                continue;
            };
            let block = &cfg_graph.blocks[b];
            for pc in block.start..block.end {
                if let Some(entry) = state.entry(pc) {
                    merge(entry, &st, w);
                }
                transfer(&mut st, program.get(pc).expect("pc in block"), w);
            }
            for &s in &block.succs {
                if s < nb && merge(&mut in_states[s], &st, w) && !on_work[s] {
                    on_work[s] = true;
                    work.push(s);
                }
            }
        }
    }

    let thread_limit = guard_limits(program, cfg_graph, &state);
    Interp {
        state,
        thread_limit,
    }
}

/// Extract per-pc upper bounds on `ltid` from dominating guards.
///
/// A conditional branch whose condition was computed (in the same block)
/// as `Slt(x, k)` or `Sle(x, k)` with `x` abstractly `base + 1·ltid`,
/// `base ∈ {Known(0), ModW(0)}` non-negative, and `k` a known constant,
/// restricts its true-side region to threads with `ltid < k` (resp.
/// `≤ k`): since `base ≥ 0`, `x < k` implies `ltid < k`. Limits from
/// nested guards combine by minimum.
fn guard_limits(program: &Program, cfg_graph: &Cfg, state: &States) -> Vec<Option<i64>> {
    let mut limit: Vec<Option<i64>> = vec![None; program.len()];
    let ltid_like = |v: AbsVal| {
        matches!(
            v,
            AbsVal::Affine {
                base: Base::Known(0) | Base::ModW(0),
                ltid_coef: 1,
                ..
            }
        )
    };
    for (b, blk) in cfg_graph.blocks.iter().enumerate() {
        if !cfg_graph.reachable[b] {
            continue;
        }
        let term = blk.end - 1;
        let (cond, target, nonzero_is_fallthrough) = match program.get(term) {
            Some(Inst::Brz(c, t)) => (*c, *t, true),
            Some(Inst::Brnz(c, t)) => (*c, *t, false),
            _ => continue,
        };
        let Some(term_st) = state.get(term) else {
            continue;
        };
        // (bound applies to the side where cond != 0, bound)
        let mut bounds: Vec<(bool, i64)> = Vec::new();
        // `brz/brnz ltid`: the zero side runs only for ltid == 0.
        if ltid_like(operand(term_st, cond)) {
            bounds.push((false, 1));
        }
        // Otherwise look at the in-block comparison defining the condition.
        if let Operand::Reg(cr) = cond {
            let def_pc = (blk.start..term)
                .rev()
                .find(|&pc| program.get(pc).and_then(Inst::dst) == Some(cr));
            if let Some(def_pc) = def_pc {
                if let (
                    Some(Inst::Bin(
                        op @ (BinOp::Slt | BinOp::Sle | BinOp::Seq | BinOp::Sne),
                        _,
                        x,
                        k,
                    )),
                    Some(st),
                ) = (program.get(def_pc), state.get(def_pc))
                {
                    if ltid_like(operand(st, *x)) {
                        if let Some(kv) = operand(st, *k).as_known() {
                            match op {
                                // x < k / x <= k: true side has ltid < k(+1).
                                BinOp::Slt => bounds.push((true, kv)),
                                // x == k: true side has ltid <= k.
                                BinOp::Sle | BinOp::Seq => {
                                    bounds.push((true, kv.saturating_add(1)));
                                }
                                // x != k: the *zero* side has x == k.
                                BinOp::Sne => bounds.push((false, kv.saturating_add(1))),
                                _ => unreachable!(),
                            }
                        }
                    }
                }
            }
        }
        let stop = cfg_graph.ipdom[b].unwrap_or(cfg_graph.exit());
        for (on_nonzero_side, bound) in bounds {
            if bound <= 0 {
                continue;
            }
            let side_start = if on_nonzero_side == nonzero_is_fallthrough {
                term + 1
            } else {
                target
            };
            if side_start >= program.len() {
                continue;
            }
            let side_block = cfg_graph.block_of[side_start];
            for rb in cfg_graph.region_from(side_block, stop) {
                let block = &cfg_graph.blocks[rb];
                for slot in &mut limit[block.start..block.end] {
                    *slot = Some(slot.map_or(bound, |l: i64| l.min(bound)));
                }
            }
        }
    }
    limit
}

/// Look up the abstract value of an operand at a pc (helper shared by
/// the downstream analyses).
#[must_use]
pub fn operand_at(interp: &Interp, pc: usize, op: Operand) -> Option<AbsVal> {
    let st = interp.state.get(pc)?;
    Some(operand(st, op))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmm_machine::isa::{Reg, Space};
    use hmm_machine::Asm;

    fn analyze(p: &Program, cfg: &AnalysisConfig) -> (Cfg, Interp) {
        let g = Cfg::build(p);
        let i = run(p, &g, cfg);
        (g, i)
    }

    #[test]
    fn gid_addressing_is_exact_on_single_dmm() {
        let mut a = Asm::new();
        a.ld(Reg(16), Space::Global, abi::GID, 0); // pc 0
        a.halt();
        let p = a.finish();
        let cfg = AnalysisConfig::umm(32);
        let (_, interp) = analyze(&p, &cfg);
        let v = operand_at(&interp, 0, Operand::Reg(abi::GID)).unwrap();
        assert_eq!(
            v,
            AbsVal::Affine {
                base: Base::Known(0),
                ltid_coef: 1,
                level: Level::Launch
            }
        );
    }

    #[test]
    fn strided_loop_variable_converges_to_modw() {
        // j = gid; loop 4 times: j += p  (p = 64, w = 32)
        let mut a = Asm::new();
        let j = Reg(16);
        let c = Reg(17);
        let t = Reg(18);
        a.mov(j, abi::GID);
        a.mov(c, 0);
        let top = a.here();
        let end = a.label();
        a.slt(t, c, 4);
        a.brz(t, end);
        a.add(j, j, abi::P);
        a.add(c, c, 1);
        a.jmp(top);
        a.bind(end);
        a.st(Space::Global, j, 0, 1); // pc 8
        a.halt();
        let p = a.finish();
        let cfg = AnalysisConfig::umm(32).with_launch(64, 1);
        let (_, interp) = analyze(&p, &cfg);
        let st_pc = p.len() - 2;
        let v = operand_at(&interp, st_pc, Operand::Reg(j)).unwrap();
        assert_eq!(
            v,
            AbsVal::Affine {
                base: Base::ModW(0),
                ltid_coef: 1,
                level: Level::Launch
            }
        );
    }

    #[test]
    fn guard_limits_apply_inside_the_true_region() {
        // if ltid < 4 { St G[ltid] } ; Halt
        let mut a = Asm::new();
        let t = Reg(16);
        let end = a.label();
        a.slt(t, abi::LTID, 4);
        a.brz(t, end);
        a.st(Space::Global, abi::LTID, 0, 1); // pc 2, guarded
        a.bind(end);
        a.halt();
        let p = a.finish();
        let cfg = AnalysisConfig::umm(32);
        let (_, interp) = analyze(&p, &cfg);
        assert_eq!(interp.thread_limit[2], Some(4));
        assert_eq!(interp.thread_limit[0], None);
        assert_eq!(interp.thread_limit[3], None);
    }

    /// The kernels `hmm-cli lint` ships, under its default parameters
    /// (`n = 1024, k = 16, p = 256, w = 32, d = 4`), plus the examples.
    fn lint_kernels() -> Vec<(Program, AnalysisConfig)> {
        use crate::examples;
        use hmm_algorithms as alg;
        let (n, k, p, w, d) = (1024, 16, 256, 32, 4);
        let umm = AnalysisConfig::umm(w).with_launch(p as i64, 1);
        let dmm = AnalysisConfig::dmm(w).with_launch(p as i64, 1);
        let hmm = AnalysisConfig::hmm(w, d).with_launch(p as i64, d);
        let m = w * 4;
        let mut out: Vec<(Program, AnalysisConfig)> = alg::patterns::Figure1::ALL
            .into_iter()
            .map(|pat| {
                let diagonal = matches!(pat, alg::patterns::Figure1::Diagonal);
                let config = if diagonal { dmm.clone() } else { umm.clone() };
                (alg::patterns::figure1_kernel(pat, m), config)
            })
            .collect();
        let layout = alg::convolution::dmm_umm::Layout::new(n, k);
        for program in [
            alg::patterns::transpose_kernel(0, m * m, m),
            alg::contiguous::access_kernel(0, n, alg::contiguous::AccessMode::Read),
            alg::contiguous::copy_kernel(0, n, n),
            alg::sum::dmm_umm::sum_kernel(0, n),
            alg::convolution::dmm_umm::conv_kernel_strided(layout),
            alg::prefix::prefix_kernel_dmm_umm(n),
            alg::sort::sort_kernel_umm(n),
            examples::uninit_kernel(),
            examples::clean_kernel(),
        ] {
            out.push((program, umm.clone()));
        }
        for program in [
            alg::sum::hmm_all::sum_kernel(n, p, d, n),
            alg::convolution::hmm::conv_kernel_hmm(n, k, d),
            alg::prefix::prefix_kernel_hmm(n, p, d),
            alg::sort::sort_kernel_hmm(n, d),
            examples::racy_kernel(),
            examples::racy_kernel_fixed(),
            examples::divergent_barrier_kernel(),
            examples::divergent_barrier_kernel_fixed(),
        ] {
            out.push((program, hmm.clone()));
        }
        out
    }

    /// The query contract: a register file is available at exactly the
    /// reachable pcs the later passes read.
    #[test]
    fn states_are_kept_at_exactly_the_queried_pcs() {
        for (p, cfg) in lint_kernels() {
            let (g, interp) = analyze(&p, &cfg);
            for (pc, inst) in p.insts().iter().enumerate() {
                let reachable = g.reachable[g.block_of[pc]];
                let queried = matches!(
                    inst,
                    Inst::Ld(..)
                        | Inst::St(..)
                        | Inst::Brz(..)
                        | Inst::Brnz(..)
                        | Inst::Bin(BinOp::Slt | BinOp::Sle | BinOp::Seq | BinOp::Sne, ..)
                );
                assert_eq!(
                    operand_at(&interp, pc, Operand::Reg(abi::GID)).is_some(),
                    reachable && queried,
                    "pc {pc}: {inst:?}"
                );
            }
        }
    }

    #[test]
    fn loaded_values_are_top() {
        let mut a = Asm::new();
        a.ld(Reg(16), Space::Global, abi::GID, 0);
        a.st(Space::Global, Reg(16), 0, 1); // pc 1: address is data-dependent
        a.halt();
        let p = a.finish();
        let cfg = AnalysisConfig::umm(32);
        let (_, interp) = analyze(&p, &cfg);
        let v = operand_at(&interp, 1, Operand::Reg(Reg(16))).unwrap();
        assert_eq!(v, AbsVal::Top);
    }
}
