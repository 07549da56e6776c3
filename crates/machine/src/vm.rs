//! Lane-group execution semantics.
//!
//! A thread is a RAM with [`REG_COUNT`] word registers and a program
//! counter. The threads of one launch live in one [`LaneState`], laid out
//! structure-of-arrays: register `r` of every thread sits in one
//! contiguous row, so a warp's lanes are adjacent in each row.
//!
//! [`LaneState::step_group`] executes the instruction at one program
//! counter for a *group* of lanes that all sit at that counter: the
//! instruction is fetched and decoded once, then applied lane by lane.
//! The returned [`GroupEffect`] tells the engine what the group wants from
//! the outside world: nothing (pure local work), a memory access (each
//! lane's request is left in its lane-indexed [`LaneReq`] slot), a
//! barrier, or termination. The engine drives every thread of every
//! model through this function, the PRAM preset's processors included;
//! the models differ only in the *cost* of memory effects.
//!
//! Run-ahead executes local work through `LaneState::step_local`, for a
//! group whose lanes share one pc that the engine carries: a local
//! instruction or a `jmp` returns the group's next pc and writes no
//! lane's, and only a conditional branch writes each lane's, so that the
//! engine can split a group it diverges. The engine writes each lane's pc
//! where its group stops.
//!
//! An ALU instruction computes through [`BinOp::eval`], in one lane loop
//! per operation with the operation constant; for `div` and `rem` its
//! `None` (a zero divisor) is the lane's [`SimError::DivisionByZero`].
//! A [`Program`] names only registers below [`REG_COUNT`], so every
//! register row it names lies inside the register file.
//!
//! Lanes never interact within a step, so applying an instruction to a
//! group gives each lane exactly the result it would get alone. Errors
//! are reported for the lowest erring lane of the group. The engine
//! groups lanes by program counter with [`partition`], and of several
//! groups' errors keeps the lowest lane's ([`lowest_fault`]).

use crate::error::{SimError, SimResult};
use crate::isa::{BinOp, Inst, Operand, Program, Reg, Scope, Space, REG_COUNT};
use crate::request::AccessKind;
use crate::word::Word;

/// What one instruction asks of the engine, for every lane of the group
/// that executed it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroupEffect {
    /// Pure local work; the lanes are ready for their next instruction.
    Local,
    /// Every lane issued a memory request to `space`, left in its
    /// [`LaneReq`] slot. A lane blocks until its own access completes
    /// (Section II: "a thread cannot send a new memory access request
    /// until the previous ... is completed").
    Mem(Space),
    /// The lanes arrived at a barrier of the given scope.
    Barrier(Scope),
    /// The lanes halted.
    Halt,
}

/// A lane's memory request, as the last memory instruction it executed
/// left it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneReq {
    /// Target memory.
    pub space: Space,
    /// Load or store.
    pub kind: AccessKind,
    /// Destination register of a load.
    pub dst: Reg,
    /// Absolute address, unchecked: negative when the operands summed
    /// below zero (see [`LaneReq::resolve`]).
    pub addr: Word,
    /// Value of a store (0 for loads).
    pub value: Word,
}

impl LaneReq {
    fn new(space: Space, kind: AccessKind, dst: Reg) -> Self {
        Self {
            space,
            kind,
            dst,
            addr: 0,
            value: 0,
        }
    }

    /// The address as an index, or the out-of-bounds error a negative
    /// address raises (reported at `usize::MAX`, size 0) for `thread`.
    pub fn resolve(&self, thread: usize) -> SimResult<usize> {
        usize::try_from(self.addr).map_err(|_| SimError::OutOfBounds {
            thread,
            space: self.space,
            addr: usize::MAX,
            size: 0,
        })
    }
}

/// Reorder `lanes` so that those satisfying `keep` come first, each part
/// in its original order, and return where the others begin. `keep` sees
/// each lane once; `moved` is scratch. Lanes that all satisfy `keep` are
/// only read.
///
/// Grouping lanes by program counter is a loop of partitions: split off
/// the lanes at the pc of the first remaining lane, then repeat on the
/// rest. Ascending lanes give each group in lane order, and the groups in
/// order of their lowest lane.
pub fn partition(
    lanes: &mut [usize],
    moved: &mut Vec<usize>,
    mut keep: impl FnMut(usize) -> bool,
) -> usize {
    let Some(first) = lanes.iter().position(|&t| !keep(t)) else {
        return lanes.len();
    };
    moved.clear();
    moved.push(lanes[first]);
    let mut mid = first;
    for i in first + 1..lanes.len() {
        let t = lanes[i];
        if keep(t) {
            lanes[mid] = t;
            mid += 1;
        } else {
            moved.push(t);
        }
    }
    lanes[mid..].copy_from_slice(moved);
    mid
}

/// The error of the lower lane of `a` and `b`: lanes never interact
/// within a step, so of the errors of several lane groups, lane-by-lane
/// execution meets the lowest lane's first.
#[must_use]
pub fn lowest_fault(
    a: Option<(usize, SimError)>,
    b: Option<(usize, SimError)>,
) -> Option<(usize, SimError)> {
    match (a, b) {
        (Some(a), Some(b)) => Some(if b.0 < a.0 { b } else { a }),
        (a, b) => a.or(b),
    }
}

/// Whether [`LaneState::step_local`] may refuse `inst`: a load, store,
/// barrier or halt, or a division or remainder, whose divisor may be 0.
fn may_stop(inst: &Inst) -> bool {
    matches!(
        inst,
        Inst::Ld(..)
            | Inst::St(..)
            | Inst::Bar(_)
            | Inst::Halt
            | Inst::Bin(BinOp::Div | BinOp::Rem, ..)
    )
}

/// [`BinOp::eval`] of an op that cannot fail (all but `Div` and `Rem`),
/// for an infallible lane loop.
#[inline]
fn total(op: BinOp, a: Word, b: Word) -> Word {
    op.eval(a, b).unwrap_or_default()
}

/// Cap of [`local_runs`]: a run that never reaches an instruction that
/// may stop it (an endless loop of local work) still runs ahead within
/// this many cycles of its lane.
const RUN_CAP: u64 = 1 << 20;

/// For each pc of `program`, the fewest instructions a thread executes
/// from it, on any path, before one that [`LaneState::step_local`] may
/// refuse: one that [`may_stop`], or a pc outside the program (capped
/// at [`RUN_CAP`]). A lane at `pc` whose next instruction is at cycle
/// `t` cannot fault, touch memory or synchronise before cycle
/// `t + runs[pc]`.
pub(crate) fn local_runs(program: &Program) -> Vec<u64> {
    let insts = program.insts();
    let mut runs: Vec<u64> = insts
        .iter()
        .map(|inst| if may_stop(inst) { 0 } else { RUN_CAP })
        .collect();
    let at = |runs: &[u64], pc: usize| runs.get(pc).copied().unwrap_or(0);
    // Shortest distance to a stop, relaxed backwards until it settles.
    let mut changed = true;
    while changed {
        changed = false;
        for pc in (0..insts.len()).rev() {
            let next = match insts[pc] {
                _ if runs[pc] == 0 => continue,
                Inst::Jmp(t) => at(&runs, t),
                Inst::Brz(_, t) | Inst::Brnz(_, t) => at(&runs, t).min(at(&runs, pc + 1)),
                _ => at(&runs, pc + 1),
            };
            if next + 1 < runs[pc] {
                runs[pc] = next + 1;
                changed = true;
            }
        }
    }
    runs
}

/// Architectural state of a block of threads, structure-of-arrays:
/// register `r` of thread `t` is `regs[r * n + t]`, next to the same
/// register of threads `t - 1` and `t + 1`. Errors name a thread by its
/// lane index.
#[derive(Debug, Clone)]
pub struct LaneState {
    n: usize,
    regs: Vec<Word>,
    pcs: Vec<usize>,
    reqs: Vec<LaneReq>,
}

/// Operand of a decoded instruction, resolved to a register row.
#[derive(Clone, Copy)]
enum Src {
    Row(usize),
    Imm(Word),
}

impl LaneState {
    /// `n` threads with ids `0..n`, zeroed registers, all about to
    /// execute `pc = 0`.
    #[must_use]
    pub fn new(n: usize) -> Self {
        Self {
            n,
            regs: vec![0; REG_COUNT * n],
            pcs: vec![0; n],
            reqs: vec![LaneReq::new(Space::Global, AccessKind::Read, Reg(0)); n],
        }
    }

    /// Register `r` of thread `t`.
    #[cfg(test)]
    #[must_use]
    pub fn reg(&self, t: usize, r: Reg) -> Word {
        self.regs[r.0 as usize * self.n + t]
    }

    /// Write register `r` of thread `t`.
    #[inline]
    pub fn set_reg(&mut self, t: usize, r: Reg, v: Word) {
        self.regs[r.0 as usize * self.n + t] = v;
    }

    /// Program counter of thread `t`.
    #[inline]
    #[must_use]
    pub fn pc(&self, t: usize) -> usize {
        self.pcs[t]
    }

    /// Set the program counter of thread `t`.
    #[inline]
    pub fn set_pc(&mut self, t: usize, pc: usize) {
        self.pcs[t] = pc;
    }

    /// The request slot of thread `t`: meaningful after it executed a
    /// load or store.
    #[inline]
    #[must_use]
    pub fn req(&self, t: usize) -> &LaneReq {
        &self.reqs[t]
    }

    fn src(&self, op: Operand) -> Src {
        match op {
            Operand::Reg(r) => Src::Row(r.0 as usize * self.n),
            Operand::Imm(v) => Src::Imm(v),
        }
    }

    #[inline]
    fn val(&self, s: Src, t: usize) -> Word {
        match s {
            Src::Row(base) => self.regs[base + t],
            Src::Imm(v) => v,
        }
    }

    /// `dst <- f(a, b)` on every lane, for an `f` that cannot fail.
    #[inline]
    fn bin(&mut self, lanes: &[usize], dst: Reg, a: Src, b: Src, f: impl Fn(Word, Word) -> Word) {
        let row = dst.0 as usize * self.n;
        for &t in lanes {
            let v = f(self.val(a, t), self.val(b, t));
            self.regs[row + t] = v;
        }
    }

    /// `dst <- f(a, b)` on every lane, where `None` from `f` (a zero
    /// divisor) is the lane's [`SimError::DivisionByZero`].
    fn div(
        &mut self,
        lanes: &[usize],
        pc: usize,
        dst: Reg,
        a: Src,
        b: Src,
        f: impl Fn(Word, Word) -> Option<Word>,
    ) -> Result<(), (usize, SimError)> {
        let row = dst.0 as usize * self.n;
        for &t in lanes {
            let bv = self.val(b, t);
            let Some(v) = f(self.val(a, t), bv) else {
                return Err((t, SimError::DivisionByZero { thread: t, pc }));
            };
            self.regs[row + t] = v;
        }
        Ok(())
    }

    /// Set every lane's next program counter: lanes whose `cond` is
    /// zero (`on_zero`) or non-zero (otherwise) jump to `target`, the rest
    /// fall through.
    fn branch(&mut self, lanes: &[usize], pc: usize, target: usize, cond: Src, on_zero: bool) {
        for &t in lanes {
            let taken = (self.val(cond, t) == 0) == on_zero;
            self.pcs[t] = if taken { target } else { pc + 1 };
        }
    }

    /// Fill every lane's request slot for a memory instruction; `value`
    /// is the stored operand (immediate 0 for loads).
    fn mem(&mut self, lanes: &[usize], proto: LaneReq, base: Src, off: Src, value: Src) {
        for &t in lanes {
            self.reqs[t] = LaneReq {
                addr: self.val(base, t).wrapping_add(self.val(off, t)),
                value: self.val(value, t),
                ..proto
            };
        }
    }

    /// Execute the instruction at `pc` for `lanes`, which all sit at `pc`,
    /// if it is local work that cannot fault on any of them: inside the
    /// program, not a load, store, barrier or halt, and not a division or
    /// remainder by zero in any lane. Such an instruction touches only the
    /// lanes' own registers and program counters, so the engine may
    /// execute it before or after its cycle comes (run-ahead).
    ///
    /// The lanes' pcs may be stale: a run carries its group's pc, and
    /// only a conditional branch, which may split the group, writes them.
    /// Returns `None`, having executed nothing, for any other
    /// instruction. Otherwise returns `Some(Some(next))`, the group's next
    /// pc, written to no lane, or `Some(None)` after a `brz`/`brnz`, which
    /// wrote each lane's own: the inner option is the pc run-ahead
    /// carries.
    #[allow(clippy::option_option)]
    pub(crate) fn step_local(
        &mut self,
        program: &Program,
        pc: usize,
        lanes: &[usize],
    ) -> Option<Option<usize>> {
        let inst = *program.get(pc)?;
        match inst {
            Inst::Ld(..) | Inst::St(..) | Inst::Bar(_) | Inst::Halt => return None,
            Inst::Bin(BinOp::Div | BinOp::Rem, _, _, divisor) => {
                let b = self.src(divisor);
                if lanes.iter().any(|&t| self.val(b, t) == 0) {
                    return None;
                }
            }
            _ => {}
        }
        let (effect, next) = self.exec(inst, pc, lanes).ok()?;
        debug_assert_eq!(effect, GroupEffect::Local);
        Some(next)
    }

    /// Execute the instruction at `pc` for every lane in `lanes`, which
    /// must all sit at `pc` (ascending lane order; errors name the
    /// lowest erring lane, as lane-by-lane execution would).
    ///
    /// On success every lane's program counter has advanced (or jumped)
    /// and the returned [`GroupEffect`] tells the engine what else must
    /// happen. For `Mem` / `Barrier` the *thread-local* part of the
    /// instruction is done; the engine decides when the lanes may run
    /// again. A `Halt` leaves the counters on the `halt`.
    ///
    /// # Errors
    /// `(lane, error)` for the lowest lane that divided by zero, or for
    /// `lanes[0]` when `pc` lies outside the program. A negative address
    /// is not an error here: [`LaneReq::resolve`] reports it.
    pub fn step_group(
        &mut self,
        program: &Program,
        pc: usize,
        lanes: &[usize],
    ) -> Result<GroupEffect, (usize, SimError)> {
        let Some(&inst) = program.get(pc) else {
            let t = lanes[0];
            let len = program.len();
            return Err((t, SimError::PcOutOfRange { thread: t, pc, len }));
        };
        let (effect, next) = self.exec(inst, pc, lanes)?;
        if let Some(next) = next {
            for &t in lanes {
                self.pcs[t] = next;
            }
        }
        Ok(effect)
    }

    /// [`LaneState::step_group`] for the decoded instruction `inst` at
    /// `pc`, except for the program counters: a `brz`/`brnz` sets each
    /// lane's, and any other instruction writes none and returns the
    /// group's next pc (a `halt`'s own) beside its effect.
    #[inline]
    fn exec(
        &mut self,
        inst: Inst,
        pc: usize,
        lanes: &[usize],
    ) -> Result<(GroupEffect, Option<usize>), (usize, SimError)> {
        let effect = match inst {
            Inst::Mov(dst, src) => {
                let s = self.src(src);
                self.bin(lanes, dst, s, s, |v, _| v);
                GroupEffect::Local
            }
            Inst::Bin(op, dst, a, b) => {
                let (a, b) = (self.src(a), self.src(b));
                // One lane loop per op, each with its op constant; only
                // `div` and `rem` carry an error path.
                match op {
                    BinOp::Add => self.bin(lanes, dst, a, b, |x, y| total(BinOp::Add, x, y)),
                    BinOp::Sub => self.bin(lanes, dst, a, b, |x, y| total(BinOp::Sub, x, y)),
                    BinOp::Mul => self.bin(lanes, dst, a, b, |x, y| total(BinOp::Mul, x, y)),
                    BinOp::Div => self.div(lanes, pc, dst, a, b, |x, y| BinOp::Div.eval(x, y))?,
                    BinOp::Rem => self.div(lanes, pc, dst, a, b, |x, y| BinOp::Rem.eval(x, y))?,
                    BinOp::Min => self.bin(lanes, dst, a, b, |x, y| total(BinOp::Min, x, y)),
                    BinOp::Max => self.bin(lanes, dst, a, b, |x, y| total(BinOp::Max, x, y)),
                    BinOp::And => self.bin(lanes, dst, a, b, |x, y| total(BinOp::And, x, y)),
                    BinOp::Or => self.bin(lanes, dst, a, b, |x, y| total(BinOp::Or, x, y)),
                    BinOp::Xor => self.bin(lanes, dst, a, b, |x, y| total(BinOp::Xor, x, y)),
                    BinOp::Shl => self.bin(lanes, dst, a, b, |x, y| total(BinOp::Shl, x, y)),
                    BinOp::Shr => self.bin(lanes, dst, a, b, |x, y| total(BinOp::Shr, x, y)),
                    BinOp::Slt => self.bin(lanes, dst, a, b, |x, y| total(BinOp::Slt, x, y)),
                    BinOp::Sle => self.bin(lanes, dst, a, b, |x, y| total(BinOp::Sle, x, y)),
                    BinOp::Seq => self.bin(lanes, dst, a, b, |x, y| total(BinOp::Seq, x, y)),
                    BinOp::Sne => self.bin(lanes, dst, a, b, |x, y| total(BinOp::Sne, x, y)),
                }
                GroupEffect::Local
            }
            Inst::Sel(dst, cond, a, b) => {
                let (c, a, b) = (self.src(cond), self.src(a), self.src(b));
                let row = dst.0 as usize * self.n;
                for &t in lanes {
                    let v = if self.val(c, t) != 0 {
                        self.val(a, t)
                    } else {
                        self.val(b, t)
                    };
                    self.regs[row + t] = v;
                }
                GroupEffect::Local
            }
            Inst::Ld(dst, space, base, off) => {
                let proto = LaneReq::new(space, AccessKind::Read, dst);
                self.mem(lanes, proto, self.src(base), self.src(off), Src::Imm(0));
                GroupEffect::Mem(space)
            }
            Inst::St(space, base, off, src) => {
                let proto = LaneReq::new(space, AccessKind::Write, Reg(0));
                let (base, off, src) = (self.src(base), self.src(off), self.src(src));
                self.mem(lanes, proto, base, off, src);
                GroupEffect::Mem(space)
            }
            Inst::Jmp(target) => return Ok((GroupEffect::Local, Some(target))),
            Inst::Brz(cond, target) => {
                let c = self.src(cond);
                self.branch(lanes, pc, target, c, true);
                return Ok((GroupEffect::Local, None));
            }
            Inst::Brnz(cond, target) => {
                let c = self.src(cond);
                self.branch(lanes, pc, target, c, false);
                return Ok((GroupEffect::Local, None));
            }
            Inst::Bar(scope) => GroupEffect::Barrier(scope),
            Inst::Nop => GroupEffect::Local,
            // Stay on the halt; the engine never steps the lanes again.
            Inst::Halt => return Ok((GroupEffect::Halt, Some(pc))),
        };
        Ok((effect, Some(pc + 1)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Asm;

    /// A lane group: its pc and its lanes.
    type PcGroup = (usize, Vec<usize>);

    /// Step the lanes of `lanes` (ascending) one group per pc, in order
    /// of lowest lane, as the engines do: `step(pc, group)` for each, and
    /// return the groups stepped and the lowest erring lane's error.
    fn step_by_pc(
        s: &mut LaneState,
        lanes: &mut [usize],
        mut step: impl FnMut(&mut LaneState, usize, &[usize]) -> Result<(), (usize, SimError)>,
    ) -> (Vec<PcGroup>, Option<(usize, SimError)>) {
        let (mut moved, mut groups, mut fault) = (Vec::new(), Vec::new(), None);
        let mut start = 0;
        while start < lanes.len() {
            let pc = s.pc(lanes[start]);
            let end = start + partition(&mut lanes[start..], &mut moved, |t| s.pc(t) == pc);
            let group = &lanes[start..end];
            groups.push((pc, group.to_vec()));
            fault = lowest_fault(fault, step(s, pc, group).err());
            start = end;
        }
        (groups, fault)
    }

    /// Run every lane of `s` to its halt, stepping lane groups by pc the
    /// way the engine does; memory effects are not expected.
    fn run_local(program: &Program, s: &mut LaneState) {
        let mut live = vec![true; s.n];
        loop {
            let mut lanes: Vec<usize> = (0..s.n).filter(|&t| live[t]).collect();
            if lanes.is_empty() {
                return;
            }
            let (_, fault) = step_by_pc(s, &mut lanes, |s, pc, group| {
                match s.step_group(program, pc, group)? {
                    GroupEffect::Local => {}
                    GroupEffect::Halt => group.iter().for_each(|&t| live[t] = false),
                    other => panic!("unexpected effect {other:?}"),
                }
                Ok(())
            });
            assert_eq!(fault, None);
        }
    }

    #[test]
    fn partition_keeps_lane_order_in_both_parts() {
        let mut moved = Vec::new();
        let mut lanes = [0, 1, 2, 3, 4, 5];
        let mid = partition(&mut lanes, &mut moved, |t| t % 3 != 1);
        assert_eq!((mid, lanes), (4, [0, 2, 3, 5, 1, 4]));
        assert_eq!(partition(&mut lanes[..4], &mut moved, |_| true), 4);
        assert_eq!(partition(&mut lanes[4..], &mut moved, |_| false), 0);
        assert_eq!(lanes, [0, 2, 3, 5, 1, 4]);
    }

    /// Grouping by pc is a loop of partitions: each group in lane order,
    /// the groups in order of their lowest lane.
    #[test]
    fn groups_follow_lowest_lane_order() {
        let mut s = LaneState::new(6);
        s.pcs = vec![4, 2, 4, 7, 2, 4];
        let (groups, _) = step_by_pc(&mut s, &mut [0, 1, 2, 4, 5], |_, _, _| Ok(()));
        assert_eq!(groups, [(4, vec![0, 2, 5]), (2, vec![1, 4])]);
        let (groups, _) = step_by_pc(&mut s, &mut [3, 4], |_, _, _| Ok(()));
        assert_eq!(groups, [(7, vec![3]), (2, vec![4])]);
    }

    /// Every group steps, and the lowest erring lane wins, even when a
    /// later group holds it.
    #[test]
    fn the_lowest_erring_lane_wins_over_groups() {
        let mut a = Asm::new();
        a.div(Reg(1), 1, Reg(0));
        a.div(Reg(1), 1, Reg(0));
        a.halt();
        let p = a.finish();
        let mut s = LaneState::new(6);
        s.pcs = vec![0, 1, 0, 1, 2, 2];
        for t in 0..6 {
            s.set_reg(t, Reg(0), [1, 0, 0, 1, 1, 1][t]);
        }
        let (groups, fault) = step_by_pc(&mut s, &mut [0, 1, 2, 3, 4, 5], |s, pc, group| {
            s.step_group(&p, pc, group).map(|_| ())
        });
        assert_eq!(groups.len(), 3);
        let err = |thread, pc| SimError::DivisionByZero { thread, pc };
        assert_eq!(fault, Some((1, err(1, 1))));
        let (a, b) = (Some((2, err(2, 0))), Some((1, err(1, 1))));
        assert_eq!(lowest_fault(a.clone(), b.clone()), b);
        assert_eq!(lowest_fault(b.clone(), a), b);
        assert_eq!(lowest_fault(None, b.clone()), b);
    }

    fn one_lane(program: &Program, init: &[(Reg, Word)]) -> LaneState {
        let mut s = LaneState::new(1);
        for &(r, v) in init {
            s.set_reg(0, r, v);
        }
        run_local(program, &mut s);
        s
    }

    #[test]
    fn alu_ops_compute() {
        let mut a = Asm::new();
        a.mov(Reg(1), 10);
        a.add(Reg(2), Reg(1), 5);
        a.sub(Reg(3), Reg(2), Reg(1));
        a.mul(Reg(4), Reg(3), Reg(3));
        a.div(Reg(5), Reg(4), 2);
        a.rem(Reg(6), Reg(4), 7);
        a.min(Reg(7), Reg(5), Reg(6));
        a.max(Reg(8), Reg(5), Reg(6));
        a.slt(Reg(9), Reg(7), Reg(8));
        a.seq(Reg(10), Reg(7), Reg(8));
        a.sel(Reg(11), Reg(9), 111, 222);
        a.shl(Reg(12), 1, 4);
        a.shr(Reg(13), Reg(12), 2);
        a.halt();
        let s = one_lane(&a.finish(), &[]);
        let got: Vec<Word> = (2..14).map(|r| s.reg(0, Reg(r))).collect();
        assert_eq!(got, [15, 5, 25, 12, 4, 4, 12, 1, 0, 111, 16, 4]);
    }

    #[test]
    fn loop_counts_down() {
        let mut a = Asm::new();
        let top = a.here();
        let done = a.label();
        a.brz(Reg(0), done);
        a.sub(Reg(0), Reg(0), 1);
        a.add(Reg(1), Reg(1), 1);
        a.jmp(top);
        a.bind(done);
        a.halt();
        let s = one_lane(&a.finish(), &[(Reg(0), 9)]);
        assert_eq!(s.reg(0, Reg(1)), 9);
    }

    /// Lanes with different trip counts diverge at the loop branch and
    /// each still computes exactly its own result.
    #[test]
    fn divergent_lanes_keep_their_own_state() {
        let mut a = Asm::new();
        let top = a.here();
        let done = a.label();
        a.brz(Reg(0), done);
        a.sub(Reg(0), Reg(0), 1);
        a.add(Reg(1), Reg(1), 2);
        a.jmp(top);
        a.bind(done);
        a.halt();
        let p = a.finish();
        let mut s = LaneState::new(5);
        for t in 0..5 {
            s.set_reg(t, Reg(0), [3, 0, 7, 1, 3][t]);
        }
        run_local(&p, &mut s);
        let got: Vec<Word> = (0..5).map(|t| s.reg(t, Reg(1))).collect();
        assert_eq!(got, [6, 0, 14, 2, 6]);
    }

    #[test]
    fn division_by_zero_names_the_lowest_lane() {
        let mut a = Asm::new();
        a.div(Reg(1), 1, Reg(0));
        a.halt();
        let p = a.finish();
        let mut s = LaneState::new(4);
        for t in 0..4 {
            s.set_reg(t, Reg(0), [1, 2, 0, 0][t]);
        }
        let err = s.step_group(&p, 0, &[0, 1, 2, 3]).unwrap_err();
        assert_eq!(err, (2, SimError::DivisionByZero { thread: 2, pc: 0 }));
    }

    #[test]
    fn negative_address_resolves_to_an_error() {
        let mut a = Asm::new();
        a.ld_global(Reg(1), -5, 0);
        a.halt();
        let p = a.finish();
        let mut s = LaneState::new(1);
        assert_eq!(
            s.step_group(&p, 0, &[0]).unwrap(),
            GroupEffect::Mem(Space::Global)
        );
        assert_eq!(
            s.req(0).resolve(3),
            Err(SimError::OutOfBounds {
                thread: 3,
                space: Space::Global,
                addr: usize::MAX,
                size: 0
            })
        );
    }

    #[test]
    fn load_store_requests_land_in_lane_slots() {
        let mut a = Asm::new();
        a.ld_shared(Reg(1), Reg(0), 3);
        a.st_global(Reg(0), 1, 42);
        a.halt();
        let p = a.finish();
        let mut s = LaneState::new(2);
        s.set_reg(0, Reg(0), 10);
        s.set_reg(1, Reg(0), 20);
        assert_eq!(
            s.step_group(&p, 0, &[0, 1]).unwrap(),
            GroupEffect::Mem(Space::Shared)
        );
        assert_eq!(
            *s.req(1),
            LaneReq {
                space: Space::Shared,
                kind: AccessKind::Read,
                dst: Reg(1),
                addr: 23,
                value: 0
            }
        );
        // Only lane 0 steps on: lane 1's slot keeps its load.
        assert_eq!(
            s.step_group(&p, 1, &[0]).unwrap(),
            GroupEffect::Mem(Space::Global)
        );
        assert_eq!(
            (s.req(0).kind, s.req(0).addr, s.req(0).value),
            (AccessKind::Write, 11, 42)
        );
        assert_eq!(s.req(1).addr, 23);
        assert_eq!((s.pc(0), s.pc(1)), (2, 1));
    }

    /// `local_runs` counts the shortest path to an instruction that may
    /// stop a run, through loops and off the end of the program.
    #[test]
    fn local_runs_measure_the_shortest_path_to_a_stop() {
        let mut a = Asm::new();
        let top = a.label();
        let done = a.label();
        a.mov(Reg(1), 3); // 0
        a.bind(top);
        a.brz(Reg(1), done); // 1
        a.sub(Reg(1), Reg(1), 1); // 2
        a.jmp(top); // 3
        a.bind(done);
        a.div(Reg(2), 1, Reg(1)); // 4
        a.ld_global(Reg(2), 0, 0); // 5
        a.halt(); // 6
        assert_eq!(local_runs(&a.finish()), [2, 1, 3, 2, 0, 0, 0]);

        let mut a = Asm::new();
        let top = a.here();
        let end = a.label();
        a.brnz(Reg(1), end); // 0
        a.jmp(top); // 1
        a.bind(end);
        assert_eq!(local_runs(&a.finish()), [1, 2]);

        let mut a = Asm::new();
        let top = a.here();
        a.add(Reg(1), Reg(1), 1);
        a.jmp(top);
        assert_eq!(local_runs(&a.finish()), [RUN_CAP, RUN_CAP]);
    }

    /// A run carries its group's pc: a non-branch local instruction and a
    /// `jmp` report the next pc and write no lane's, while a diverging
    /// `brz` writes each lane's own.
    #[test]
    fn step_local_writes_lane_pcs_only_at_conditional_branches() {
        let mut a = Asm::new();
        let (target, skip) = (a.label(), a.label());
        a.add(Reg(1), Reg(0), 1); // 0
        a.jmp(target); // 1
        a.nop(); // 2
        a.bind(target);
        a.brz(Reg(0), skip); // 3
        a.nop(); // 4
        a.bind(skip);
        a.ld_global(Reg(2), 0, 0); // 5
        let p = a.finish();
        let mut s = LaneState::new(3);
        for t in 0..3 {
            s.set_reg(t, Reg(0), [0, 7, 0][t]);
        }
        let lanes = [0, 1, 2];
        let pcs = |s: &LaneState| [s.pc(0), s.pc(1), s.pc(2)];
        assert_eq!(s.step_local(&p, 0, &lanes), Some(Some(1)));
        assert_eq!(pcs(&s), [0, 0, 0]);
        assert_eq!((s.reg(0, Reg(1)), s.reg(1, Reg(1))), (1, 8));
        assert_eq!(s.step_local(&p, 1, &lanes), Some(Some(3)));
        assert_eq!(pcs(&s), [0, 0, 0]);
        assert_eq!(s.step_local(&p, 3, &lanes), Some(None));
        assert_eq!(pcs(&s), [5, 4, 5]);
        // A load is refused before anything is written.
        assert_eq!(s.step_local(&p, 5, &lanes), None);
        assert_eq!((s.req(0).dst, pcs(&s)), (Reg(0), [5, 4, 5]));
        assert_eq!(
            s.step_group(&p, 5, &[0, 2]),
            Ok(GroupEffect::Mem(Space::Global))
        );
        assert_eq!(pcs(&s), [6, 4, 6]);
    }

    #[test]
    fn halt_is_sticky() {
        let mut a = Asm::new();
        a.halt();
        let p = a.finish();
        let mut s = LaneState::new(1);
        assert_eq!(s.step_group(&p, 0, &[0]).unwrap(), GroupEffect::Halt);
        assert_eq!(s.pc(0), 0);
        assert_eq!(s.step_group(&p, 0, &[0]).unwrap(), GroupEffect::Halt);
    }

    #[test]
    fn pc_escape_is_an_error() {
        let p = Program::new(vec![Inst::Nop]).unwrap();
        let mut s = LaneState::new(2);
        assert_eq!(s.step_group(&p, 0, &[0, 1]).unwrap(), GroupEffect::Local);
        assert!(matches!(
            s.step_group(&p, 1, &[0, 1]),
            Err((0, SimError::PcOutOfRange { pc: 1, len: 1, .. }))
        ));
    }
}
