//! Classic register dataflow: may-uninitialized reads (E001), dead pure
//! stores (W101), unreachable blocks (W102), missing `Halt` (W103).
//!
//! Registers fit in one `u64` bitset (`REG_COUNT == 64`), so both the
//! forward must-initialized analysis and the backward liveness analysis
//! are plain word-at-a-time fixpoints over the block graph.

use hmm_machine::abi;
use hmm_machine::isa::{Inst, Program, Reg};
use hmm_machine::REG_COUNT;

use crate::cfg::Cfg;
use crate::diag::{Code, Diagnostic};

const _: () = assert!(REG_COUNT == 64, "register bitsets assume 64 registers");

/// A register's bit; a [`Program`] names only registers below 64.
fn bit(r: Reg) -> u64 {
    1u64 << r.0
}

/// (used registers, defined register) of one instruction.
fn uses_defs(inst: &Inst) -> (u64, u64) {
    let uses = inst.srcs().fold(0, |m, r| m | bit(r));
    (uses, inst.dst().map_or(0, bit))
}

/// Registers the launch ABI initialises before the kernel runs: the
/// fixed id/shape registers plus the argument registers.
fn abi_initialised() -> u64 {
    let mut m = 0u64;
    for r in [
        abi::GID,
        abi::DMM,
        abi::LTID,
        abi::P,
        abi::PD,
        abi::W,
        abi::D,
        abi::L,
    ] {
        m |= bit(r);
    }
    for i in 0..abi::NUM_ARGS {
        m |= bit(abi::arg(i));
    }
    m
}

/// Run all four lints, appending findings to `out`.
pub fn lint(program: &Program, cfg: &Cfg, out: &mut Vec<Diagnostic>) {
    unreachable_blocks(cfg, out);
    if cfg.can_fall_off_end {
        if let Some(pc) = fall_off_pc(program, cfg) {
            out.push(Diagnostic::new(
                Code::MissingHalt,
                pc,
                "control can run past the end of the program (missing Halt)",
            ));
        }
    }
    uninit_reads(program, cfg, out);
    dead_stores(program, cfg, out);
}

fn unreachable_blocks(cfg: &Cfg, out: &mut Vec<Diagnostic>) {
    for (b, blk) in cfg.blocks.iter().enumerate() {
        if !cfg.reachable[b] {
            out.push(Diagnostic::new(
                Code::Unreachable,
                blk.start,
                format!("instructions {}..{} are unreachable", blk.start, blk.end),
            ));
        }
    }
}

/// The last pc of a reachable block that escapes past the end of the
/// program without halting.
fn fall_off_pc(program: &Program, cfg: &Cfg) -> Option<usize> {
    cfg.blocks.iter().enumerate().find_map(|(b, blk)| {
        (cfg.reachable[b]
            && blk.succs.contains(&cfg.exit())
            && !matches!(program.get(blk.end - 1), Some(Inst::Halt)))
        .then_some(blk.end - 1)
    })
}

/// Forward must-initialized analysis. A read of a register outside the
/// must-init set may observe a value no instruction (and no ABI slot)
/// wrote — the engine zero-fills, but depending on that is almost always
/// a forgotten initialisation. One diagnostic per register, at the first
/// offending pc.
fn uninit_reads(program: &Program, cfg: &Cfg, out: &mut Vec<Diagnostic>) {
    let nb = cfg.blocks.len();
    if nb == 0 {
        return;
    }
    // in_init[b]: registers definitely written on every path to b.
    let mut in_init = vec![u64::MAX; nb];
    in_init[0] = abi_initialised();
    let mut changed = true;
    while changed {
        changed = false;
        for b in 0..nb {
            if !cfg.reachable[b] {
                continue;
            }
            let mut inset = if b == 0 { abi_initialised() } else { u64::MAX };
            if b != 0 {
                for &p in &cfg.blocks[b].preds {
                    if cfg.reachable[p] {
                        inset &= block_out_init(program, &cfg.blocks[p], in_init[p]);
                    }
                }
                // A reachable block always has a reachable predecessor;
                // keep ⊤ only until one is processed.
            }
            if inset != in_init[b] {
                in_init[b] = inset;
                changed = true;
            }
        }
    }

    let mut flagged = 0u64; // one report per register
    for (b, blk) in cfg.blocks.iter().enumerate() {
        if !cfg.reachable[b] {
            continue;
        }
        let mut init = in_init[b];
        for pc in blk.start..blk.end {
            let inst = program.get(pc).expect("pc in block");
            let (uses, defs) = uses_defs(inst);
            let bad = uses & !init & !flagged;
            if bad != 0 {
                for r in 0..64u8 {
                    if bad & (1 << r) != 0 {
                        out.push(Diagnostic::new(
                            Code::UninitRead,
                            pc,
                            format!("register r{r} may be read before it is written"),
                        ));
                    }
                }
                flagged |= bad;
            }
            init |= defs;
        }
    }
}

fn block_out_init(program: &Program, blk: &crate::cfg::Block, mut init: u64) -> u64 {
    for pc in blk.start..blk.end {
        if let Some(inst) = program.get(pc) {
            init |= uses_defs(inst).1;
        }
    }
    init
}

/// Backward liveness; a *pure* definition (`Mov`/`Bin`/`Sel` — loads have
/// a memory side effect and are never flagged) whose register is dead
/// immediately after it is a dead store.
fn dead_stores(program: &Program, cfg: &Cfg, out: &mut Vec<Diagnostic>) {
    let nb = cfg.blocks.len();
    if nb == 0 {
        return;
    }
    let mut live_in = vec![0u64; nb];
    let mut changed = true;
    while changed {
        changed = false;
        for b in (0..nb).rev() {
            let mut live = 0u64;
            for &s in &cfg.blocks[b].succs {
                if s < nb {
                    live |= live_in[s];
                }
            }
            for pc in (cfg.blocks[b].start..cfg.blocks[b].end).rev() {
                let (uses, defs) = uses_defs(program.get(pc).expect("pc in block"));
                live = (live & !defs) | uses;
            }
            if live != live_in[b] {
                live_in[b] = live;
                changed = true;
            }
        }
    }

    for (b, blk) in cfg.blocks.iter().enumerate() {
        if !cfg.reachable[b] {
            continue; // unreachable code is already W102
        }
        let mut live = 0u64;
        for &s in &blk.succs {
            if s < nb {
                live |= live_in[s];
            }
        }
        for pc in (blk.start..blk.end).rev() {
            let inst = program.get(pc).expect("pc in block");
            let (uses, defs) = uses_defs(inst);
            let pure = matches!(inst, Inst::Mov(..) | Inst::Bin(..) | Inst::Sel(..));
            if pure && defs != 0 && live & defs == 0 {
                let r = defs.trailing_zeros();
                out.push(Diagnostic::new(
                    Code::DeadStore,
                    pc,
                    format!("value written to r{r} is never read"),
                ));
            }
            live = (live & !defs) | uses;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmm_machine::isa::Space;
    use hmm_machine::Asm;

    fn lint_of(p: &Program) -> Vec<Diagnostic> {
        let cfg = Cfg::build(p);
        let mut out = Vec::new();
        lint(p, &cfg, &mut out);
        out
    }

    #[test]
    fn clean_kernel_has_no_findings() {
        let mut a = Asm::new();
        a.mov(Reg(16), 7);
        a.st(Space::Global, abi::GID, 0, Reg(16));
        a.halt();
        let d = lint_of(&a.finish());
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn uninit_read_is_e001_at_first_use() {
        let mut a = Asm::new();
        a.add(Reg(17), Reg(16), 1); // pc 0: r16 never written
        a.st(Space::Global, abi::GID, 0, Reg(17));
        a.halt();
        let d = lint_of(&a.finish());
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].code, Code::UninitRead);
        assert_eq!(d[0].pc, 0);
    }

    #[test]
    fn one_sided_init_is_still_uninit() {
        // if gid != 0 { r16 = 1 } ; use r16
        let mut a = Asm::new();
        let end = a.label();
        a.brz(abi::GID, end);
        a.mov(Reg(16), 1);
        a.bind(end);
        a.st(Space::Global, abi::GID, 0, Reg(16)); // pc 2
        a.halt();
        let d = lint_of(&a.finish());
        assert!(d.iter().any(|d| d.code == Code::UninitRead && d.pc == 2));
    }

    #[test]
    fn dead_store_is_w101() {
        let mut a = Asm::new();
        a.mov(Reg(16), 1); // pc 0: overwritten before any read
        a.mov(Reg(16), 2);
        a.st(Space::Global, abi::GID, 0, Reg(16));
        a.halt();
        let d = lint_of(&a.finish());
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].code, Code::DeadStore);
        assert_eq!(d[0].pc, 0);
    }

    #[test]
    fn loop_carried_value_is_not_dead() {
        // c = 0; while c < 3 { c = c + 1 } ; store c
        let mut a = Asm::new();
        let c = Reg(16);
        let t = Reg(17);
        a.mov(c, 0);
        let top = a.here();
        let end = a.label();
        a.slt(t, c, 3);
        a.brz(t, end);
        a.add(c, c, 1);
        a.jmp(top);
        a.bind(end);
        a.st(Space::Global, abi::GID, 0, c);
        a.halt();
        let d = lint_of(&a.finish());
        assert!(
            !d.iter().any(|d| d.code == Code::DeadStore),
            "loop increment wrongly flagged: {d:?}"
        );
    }

    #[test]
    fn unreachable_and_missing_halt() {
        let p = Program::new(vec![
            Inst::Jmp(2),
            Inst::Nop, // unreachable
            Inst::Nop, // falls off the end
        ])
        .unwrap();
        let d = {
            let cfg = Cfg::build(&p);
            let mut out = Vec::new();
            lint(&p, &cfg, &mut out);
            out
        };
        assert!(d.iter().any(|d| d.code == Code::Unreachable && d.pc == 1));
        assert!(d.iter().any(|d| d.code == Code::MissingHalt && d.pc == 2));
    }

    /// A branch target past the end is legal in a program; running it is
    /// the runtime `PcOutOfRange`, so the lint reports it as falling off.
    #[test]
    fn branch_past_the_end_is_a_missing_halt() {
        let p = Program::new(vec![Inst::Nop, Inst::Jmp(5), Inst::Halt]).unwrap();
        let cfg = Cfg::build(&p);
        let mut out = Vec::new();
        lint(&p, &cfg, &mut out);
        assert!(out.iter().any(|d| d.code == Code::MissingHalt && d.pc == 1));
    }
}
