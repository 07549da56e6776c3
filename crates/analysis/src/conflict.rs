//! Static memory-access classification: per-warp bank-conflict degree on
//! banked memories, address-group count on coalesced memories.
//!
//! For every reachable `Ld`/`St` the abstract address `base + ltid·c` is
//! materialised for one representative warp (lanes `0..w`, clipped by
//! guard-derived thread limits and the per-DMM thread count) and fed
//! through the *simulator's own*
//! [`SlotSchedule`](hmm_machine::request::SlotSchedule) — the prediction and
//! the dynamic measurement share one conflict model by construction,
//! which is exactly what `tests/static_vs_dynamic.rs` validates.
//!
//! Soundness of the representative warp: warp `q` accesses
//! `base + c·q·w + c·t` for lanes `t`; the per-warp shift `c·q·w` is a
//! multiple of `w`, and both the bank pattern (`addr mod w`) and the
//! group pattern (`addr div w`) are invariant under shifts by multiples
//! of `w`. Bank patterns are invariant under *any* uniform shift, so a
//! banked degree is exact even when only the lane stride is known; group
//! counts for an unknown base are reported as a min/max range over the
//! `w` possible base residues.

use hmm_machine::isa::{Inst, Operand, Program, Space};
use hmm_machine::request::{slot_count, AccessKind, ConflictPolicy, Request};

use crate::affine::{binop, AbsVal, Base};
use crate::cfg::Cfg;
use crate::diag::{Code, Diagnostic};
use crate::interp::{operand_at, Interp};
use crate::AnalysisConfig;
use hmm_machine::isa::BinOp;

/// Predicted slots-per-warp-transaction, possibly a range when the base
/// address is unknown modulo `w`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Degree {
    /// Fewest slots any warp can take.
    pub min: usize,
    /// Most slots any warp can take.
    pub max: usize,
}

impl Degree {
    /// Whether the prediction pins a single value.
    #[must_use]
    pub fn is_exact(self) -> bool {
        self.min == self.max
    }
}

/// Classification of one memory instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessReport {
    /// The instruction.
    pub pc: usize,
    /// Which memory it targets.
    pub space: Space,
    /// Read or write.
    pub kind: AccessKind,
    /// The conflict policy of that memory on the analysed machine.
    pub policy: ConflictPolicy,
    /// Predicted slots per warp transaction (`None` when the address is
    /// outside the affine domain).
    pub slots: Option<Degree>,
}

/// The reachable `Ld`/`St` instructions in pc order:
/// `(pc, space, kind, base, offset)`.
fn memory_accesses<'a>(
    program: &'a Program,
    cfg: &'a Cfg,
) -> impl Iterator<Item = (usize, Space, AccessKind, Operand, Operand)> + 'a {
    cfg.blocks
        .iter()
        .zip(&cfg.reachable)
        .filter(|(_, &reachable)| reachable)
        .flat_map(|(blk, _)| blk.start..blk.end)
        .filter_map(|pc| match program.get(pc)? {
            Inst::Ld(_, space, base, off) => Some((pc, *space, AccessKind::Read, *base, *off)),
            Inst::St(space, base, off, _) => Some((pc, *space, AccessKind::Write, *base, *off)),
            _ => None,
        })
}

/// Classify every reachable memory instruction. Shared accesses on a
/// machine without shared memory get no report; [`lint`] flags them.
#[must_use]
pub fn classify(
    program: &Program,
    cfg: &Cfg,
    interp: &Interp,
    config: &AnalysisConfig,
) -> Vec<AccessReport> {
    memory_accesses(program, cfg)
        .filter(|&(_, space, ..)| space == Space::Global || config.has_shared)
        .map(|(pc, space, kind, base, off)| {
            let policy = match space {
                Space::Shared => ConflictPolicy::Banked,
                Space::Global => config.global_policy,
            };
            let addr = address_at(interp, pc, base, off, config.width as i64);
            AccessReport {
                pc,
                space,
                kind,
                policy,
                slots: addr.and_then(|a| predict(a, policy, pc, interp, config)),
            }
        })
        .collect()
}

/// Conflict findings: I201/I202 for every classified access that takes
/// more than one slot, and E004 at the first shared access on a machine
/// without shared memory.
pub fn lint(
    program: &Program,
    cfg: &Cfg,
    reports: &[AccessReport],
    config: &AnalysisConfig,
    out: &mut Vec<Diagnostic>,
) {
    if !config.has_shared {
        if let Some((pc, ..)) =
            memory_accesses(program, cfg).find(|&(_, space, ..)| space == Space::Shared)
        {
            out.push(Diagnostic::new(
                Code::NoSharedMemory,
                pc,
                "kernel accesses shared memory but the analysed machine has none",
            ));
        }
    }
    for r in reports {
        if let Some(d) = r.slots {
            emit_info(r.policy, d, r.pc, config.width, out);
        }
    }
}

/// Abstract `base + off` at `pc`; `None` when unreachable or `Top`.
fn address_at(interp: &Interp, pc: usize, base: Operand, off: Operand, w: i64) -> Option<AbsVal> {
    let at = |op| operand_at(interp, pc, op);
    let a = binop(BinOp::Add, at(base)?, at(off)?, w);
    (a != AbsVal::Top).then_some(a)
}

/// Lanes of the fullest warp that reach `pc`.
fn lanes_at(pc: usize, interp: &Interp, config: &AnalysisConfig) -> usize {
    let mut lanes = config.width as i64;
    if let Some(pd) = config.pd() {
        lanes = lanes.min(pd);
    }
    if let Some(limit) = interp.thread_limit.get(pc).copied().flatten() {
        lanes = lanes.min(limit);
    }
    lanes.max(0) as usize
}

/// Predicted slot count for the fullest warp executing `pc`.
fn predict(
    addr: AbsVal,
    policy: ConflictPolicy,
    pc: usize,
    interp: &Interp,
    config: &AnalysisConfig,
) -> Option<Degree> {
    let AbsVal::Affine {
        base, ltid_coef, ..
    } = addr
    else {
        return None;
    };
    let w = config.width;
    let lanes = lanes_at(pc, interp, config);
    if lanes == 0 {
        return Some(Degree { min: 0, max: 0 });
    }
    let count_for = |rep: i64| -> Option<usize> {
        let mut addrs = Vec::with_capacity(lanes);
        let mut lo = i64::MAX;
        for t in 0..lanes as i64 {
            let a = rep.checked_add(ltid_coef.checked_mul(t)?)?;
            lo = lo.min(a);
            addrs.push(a);
        }
        // Shift negative representatives up by a multiple of w; bank and
        // group patterns are invariant under such shifts.
        let shift = if lo < 0 {
            lo.checked_neg()?.checked_add(w as i64 - 1)? / w as i64 * w as i64
        } else {
            0
        };
        let reqs: Vec<Request> = addrs
            .iter()
            .enumerate()
            .map(|(t, &a)| {
                Some(Request {
                    thread: t,
                    addr: usize::try_from(a.checked_add(shift)?).ok()?,
                    kind: AccessKind::Read,
                    value: 0,
                })
            })
            .collect::<Option<_>>()?;
        Some(slot_count(&reqs, w, policy))
    };
    match (base, policy) {
        // Bank patterns are shift-invariant: any representative works.
        (Base::Known(b), _) => count_for(b).map(|k| Degree { min: k, max: k }),
        (Base::Any, ConflictPolicy::Banked) => count_for(0).map(|k| Degree { min: k, max: k }),
        (Base::ModW(r), _) => count_for(r).map(|k| Degree { min: k, max: k }),
        // Unknown base on a coalesced memory: try every residue class.
        (Base::Any, ConflictPolicy::Coalesced) => {
            let mut min = usize::MAX;
            let mut max = 0;
            for rep in 0..w as i64 {
                let k = count_for(rep)?;
                min = min.min(k);
                max = max.max(k);
            }
            Some(Degree { min, max })
        }
    }
}

fn emit_info(policy: ConflictPolicy, d: Degree, pc: usize, w: usize, out: &mut Vec<Diagnostic>) {
    if d.max <= 1 {
        return;
    }
    let shape = if d.is_exact() {
        format!("{}", d.max)
    } else {
        format!("{}..={}", d.min, d.max)
    };
    match policy {
        ConflictPolicy::Banked => out.push(Diagnostic::new(
            Code::BankConflict,
            pc,
            format!("{shape}-way bank conflict: a {w}-thread warp serialises into {shape} slots"),
        )),
        ConflictPolicy::Coalesced => out.push(Diagnostic::new(
            Code::Uncoalesced,
            pc,
            format!("uncoalesced access: a {w}-thread warp touches {shape} address groups"),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmm_machine::abi;
    use hmm_machine::isa::Reg;
    use hmm_machine::Asm;

    fn reports(p: &Program, config: &AnalysisConfig) -> (Vec<AccessReport>, Vec<Diagnostic>) {
        let cfg = Cfg::build(p);
        let interp = crate::interp::run(p, &cfg, config);
        let r = classify(p, &cfg, &interp, config);
        let mut out = Vec::new();
        lint(p, &cfg, &r, config, &mut out);
        (r, out)
    }

    fn one_access(p: &Program, config: &AnalysisConfig) -> (Option<Degree>, Vec<Diagnostic>) {
        let (r, d) = reports(p, config);
        assert_eq!(r.len(), 1);
        (r[0].slots, d)
    }

    fn figure1(coef: i64) -> Program {
        // Ld G[gid * coef]
        let mut a = Asm::new();
        let j = Reg(16);
        a.mul(j, abi::GID, coef);
        a.ld(Reg(17), Space::Global, j, 0);
        a.halt();
        a.finish()
    }

    #[test]
    fn figure1_row_is_one_slot_on_both() {
        for cfg in [AnalysisConfig::dmm(32), AnalysisConfig::umm(32)] {
            let (d, diags) = one_access(&figure1(1), &cfg);
            assert_eq!(d, Some(Degree { min: 1, max: 1 }));
            assert!(diags.is_empty());
        }
    }

    #[test]
    fn figure1_column_is_w_slots_on_both() {
        let (d, diags) = one_access(&figure1(32), &AnalysisConfig::dmm(32));
        assert_eq!(d, Some(Degree { min: 32, max: 32 }));
        assert_eq!(diags[0].code, Code::BankConflict);
        let (d, diags) = one_access(&figure1(32), &AnalysisConfig::umm(32));
        assert_eq!(d, Some(Degree { min: 32, max: 32 }));
        assert_eq!(diags[0].code, Code::Uncoalesced);
    }

    #[test]
    fn figure1_diagonal_separates_the_models() {
        let (d, _) = one_access(&figure1(33), &AnalysisConfig::dmm(32));
        assert_eq!(d, Some(Degree { min: 1, max: 1 }));
        let (d, _) = one_access(&figure1(33), &AnalysisConfig::umm(32));
        assert_eq!(d, Some(Degree { min: 32, max: 32 }));
    }

    #[test]
    fn broadcast_is_one_slot() {
        let mut a = Asm::new();
        a.ld(Reg(16), Space::Global, 0, 0);
        a.halt();
        let p = a.finish();
        for cfg in [AnalysisConfig::dmm(32), AnalysisConfig::umm(32)] {
            let (d, _) = one_access(&p, &cfg);
            assert_eq!(d, Some(Degree { min: 1, max: 1 }));
        }
    }

    #[test]
    fn unknown_base_banked_is_exact_but_coalesced_is_a_range() {
        // Ld G[arg0 + gid]: base unknown at analysis time.
        let mut a = Asm::new();
        let j = Reg(16);
        a.add(j, abi::arg(0), abi::GID);
        a.ld(Reg(17), Space::Global, j, 0);
        a.halt();
        let p = a.finish();
        let (d, _) = one_access(&p, &AnalysisConfig::dmm(32));
        assert_eq!(d, Some(Degree { min: 1, max: 1 }));
        let (d, _) = one_access(&p, &AnalysisConfig::umm(32));
        // Contiguous but possibly misaligned: 1 or 2 groups.
        assert_eq!(d, Some(Degree { min: 1, max: 2 }));
    }

    #[test]
    fn guarded_access_uses_the_thread_limit() {
        // if ltid < 4 { Ld G[gid * w] } — only 4 lanes conflict.
        let mut a = Asm::new();
        let t = Reg(16);
        let j = Reg(17);
        let end = a.label();
        a.slt(t, abi::LTID, 4);
        a.brz(t, end);
        a.mul(j, abi::GID, 32);
        a.ld(Reg(18), Space::Global, j, 0);
        a.bind(end);
        a.halt();
        let p = a.finish();
        let (r, _) = reports(&p, &AnalysisConfig::dmm(32));
        assert_eq!(r[0].slots, Some(Degree { min: 4, max: 4 }));
    }

    #[test]
    fn data_dependent_address_is_unknown() {
        let mut a = Asm::new();
        a.ld(Reg(16), Space::Global, abi::GID, 0);
        a.ld(Reg(17), Space::Global, Reg(16), 0);
        a.halt();
        let p = a.finish();
        let (r, _) = reports(&p, &AnalysisConfig::umm(32));
        assert_eq!(r.len(), 2);
        assert_eq!(r[0].slots, Some(Degree { min: 1, max: 1 }));
        assert_eq!(r[1].slots, None);
    }

    #[test]
    fn shared_access_without_shared_memory_is_e004() {
        let mut a = Asm::new();
        a.st(Space::Shared, abi::LTID, 0, 1);
        a.halt();
        let (_, diags) = reports(&a.finish(), &AnalysisConfig::umm(32));
        assert!(diags.iter().any(|d| d.code == Code::NoSharedMemory));
    }
}
