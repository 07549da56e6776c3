//! Execution core: one launch state and one driver loop, on the calling
//! thread.
//!
//! A launch is one table of its `p` threads and their warps, numbered
//! DMM-major by global id, so a DMM is a range of threads and warps plus
//! what the model gives each DMM alone: its shared memory and pipeline,
//! its barrier counters, its race checker and its parked barrier release
//! ([`DmmRt`]). The global (UMM) pipeline, its backing store, the trace
//! and the race log belong to the launch ([`Launch`]). Each simulated
//! cycle runs these steps in order (see [`Launch::drive`]):
//!
//! 1. **Global completions** due this cycle are delivered to their
//!    threads.
//! 2. **Phase A** (each DMM in order): deliver its parked barrier release
//!    and shared-memory completions due this cycle, then step every warp
//!    of its range with a lane due this cycle: its runnable lanes run
//!    ahead in groups by PC, and the lanes of each group whose next
//!    instruction is at this cycle issue it (see below).
//! 3. **Barrier releases**: each DMM's barrier in DMM order, then the
//!    machine-wide one, which releases when its arrivals add up to the
//!    live threads of every DMM.
//! 4. **Assembly** (each DMM in order): each warp transaction is opened
//!    in the pipeline that will serve it — the DMM's own for shared
//!    memory, the global one otherwise — so the global queue receives its
//!    transactions in warp-id order.
//! 5. **Dispatch**: one global pipeline slot, then one shared-memory slot
//!    on each DMM in order.
//!
//! In debug builds, [`Launch::audit`] then checks the counts, due cycles,
//! masks and flags derived from the thread table against it.
//!
//! That is the trace's canonical order within a cycle — completions
//! (global, then shared by DMM), barrier releases (DMMs ascending, then
//! machine-wide), dispatches (global, then shared by DMM) — so every
//! trace event and race-log entry is appended as it is produced, and the
//! capacity bounds keep the first ones: the trace applies its own
//! ([`Trace::record`] builds an event only when it is kept). Statistics
//! and profiles are counted into the one table as they happen; only the
//! shared pipelines' statistics and timelines stay per DMM.
//!
//! The profiler keeps no record per thread. A thread has at most one wait
//! at a time, and while it waits its `ready` is the cycle of the issue
//! that started the wait and its pc sits just past the load, store or
//! barrier that caused it ([`Status`]). So a wake charges the wait from
//! the table before it overwrites `ready`, and the waker names the wait's
//! kind: the delivering pipeline's memory, or the barrier. A barrier
//! release wakes its DMM warp by warp, as a completion wakes its slot's
//! warp, so each warp's runnable count and due cycle change once
//! ([`Threads::wake_barrier`]).
//!
//! ## Per-cycle work on the DMMs that act
//!
//! The steps above visit a DMM only where it can act, through counts and
//! flags kept where their state changes, so a visited cycle in which few
//! DMMs act costs little more than those DMMs' work. Each skip is exact:
//!
//! - **Live threads.** [`Threads::live`] falls with each DMM's own
//!   `alive` at a `halt`; the machine-wide barrier and the end of the
//!   launch read it instead of summing the DMMs.
//! - **Barrier releases** run only in a cycle in which a `bar` arrived or
//!   a `halt` issued ([`Threads::synced`]): a barrier's arrivals rise
//!   only by arrival, its live threads fall only by halt, and a release
//!   zeroes its arrivals in the same cycle, so its condition can first
//!   hold only then.
//! - **Assembly** skips a DMM whose posted flag ([`DmmRt::posted`]) is
//!   clear: a warp posts only in its own step, which sets the flag, and
//!   assembly clears it unless a still-runnable warp holds posted lanes.
//! - **Errors.** Assembly sets [`Launch::failed`] where it stores a DMM's
//!   error; the global slot and the error return read the flag, and the
//!   launch ends in that cycle.
//! - **Busy DMMs.** A DMM is busy while its shared pipeline holds a
//!   queued, current or in-flight slot or a barrier release is parked
//!   ([`DmmRt::busy`]); assembly and a parked release set the flag, and
//!   phase A clears it once delivery leaves the DMM idle. Phase A's
//!   parked-release and shared-delivery checks, shared dispatch and the
//!   DMMs' next events visit only busy DMMs, in DMM order, and none when
//!   [`Launch::busy`] is 0: an idle DMM delivers and dispatches nothing
//!   and has no next event, so the trace, the race log and the profile
//!   are unchanged.
//!
//! ## The event-driven clock
//!
//! Between cycles the driver computes the **next interesting time** —
//! the earliest cycle at which a warp is due, future pipeline
//! completion, dispatch opportunity or parked barrier release (see
//! [`Launch::next_time`]). With `EngineConfig::fast_forward` on, the
//! clock jumps straight to that target; with it off, the clock walks
//! there one unit at a time. Nothing can happen in between (DESIGN.md
//! proves the target exact), so every other output is bit-identical
//! either way. A jump counts in `SimReport::skipped_units` only when no
//! thread was runnable: units in which only run-ahead threads are busy
//! are not counted.
//!
//! ## Memory transactions
//!
//! Each pipeline owns its warp transactions in a table and reuses their
//! buffers: a transaction's id returns to the pipeline's free list when
//! its last slot is delivered. Assembly compacts a warp's posted lanes,
//! in lane order, straight into one transaction per memory
//! ([`Launch::post`]). Submitting it schedules it in one classifying
//! pass ([`SlotScratch::build_into`]), which leaves its requests in
//! slot-major order: every slot is a contiguous range of requests, still
//! in lane order, and the schedule is only the slot ends. Dispatch
//! serves a slot as a loop over its range — the race checker observes
//! and the reads load each request in turn, then the writes apply in
//! lane order, so the highest thread wins a same-address write — and
//! leaves one `(due, txn, slot)` completion record. All of the slot's
//! requests complete together, as in the paper's pipelined MMU, and
//! belong to one warp, so delivery wakes them in one pass and updates
//! the warp's runnable count and due cycle once ([`Threads::complete`]).
//! A read keeps its loaded value in its request until delivery writes it
//! to the lane's destination register, so delivery is the only step of
//! the memory path that touches lanes. The per-cycle hot path is
//! allocation-free in steady state; only kept trace events allocate.
//! `tests/alloc_free.rs` checks with a counting allocator that a
//! launch's allocations do not grow with its length, nor its set-up's
//! with its thread count.
//!
//! ## The warp-granular interpreter
//!
//! The launch keeps its threads' registers, PCs and memory-request slots
//! structure-of-arrays in one [`LaneState`], so a warp is a contiguous
//! block of lanes. Local instructions do not wait for their cycle: each
//! lane keeps the cycle of its next instruction in `ready`, and a warp is
//! stepped only when one of its lanes may reach an instruction that must
//! issue at its own cycle ([`local_runs`]). Every warp step takes one
//! path ([`Threads::step_warp`]). The warp's runnable lanes run ahead
//! through local instructions in groups by PC, even when their cycles
//! differ; a branch that diverges a group splits it in place with
//! [`partition`] ([`Threads::run_ahead`]). A run carries its group's PC
//! and writes each lane's PC once, where the lane stops, so PCs are
//! current whenever a warp step ends. Each group stops before an
//! instruction that must issue at its own cycle, and the lanes of the
//! group whose cycle has come issue it as one lane group, which fetches
//! and decodes it once ([`LaneState::step_group`]). A load or store
//! leaves each lane's request in its slot and sets the lane's bit in its
//! warp's row of the posted-mask table; assembly compacts the posted
//! slots in lane order into the warp's transactions. Lanes never interact
//! within a step, so this reproduces thread-by-thread execution exactly:
//! the same request order, the same write winners, the same first error
//! (the lowest erring thread over all groups) and the same per-PC profile
//! (DESIGN.md, "Warp-granular interpreter").

use std::collections::VecDeque;
use std::ops::Range;

use crate::abi;
use crate::error::{SimError, SimResult};
use crate::isa::{Inst, Program, Scope, Space};
use crate::machine::{DynamicRace, EngineConfig, MAX_LOGGED_RACES};
use crate::profile::{CategoryCounts, LaunchProfile, PipeAcc, StallCategory};
use crate::request::{AccessKind, ConflictPolicy, Request, SlotSchedule, SlotScratch};
use crate::stats::{MemoryStats, SimReport};
use crate::trace::{MemoryId, Trace, TraceEvent};
use crate::vm::{local_runs, lowest_fault, partition, GroupEffect, LaneState};
use crate::word::Word;

/// Everything a run produces besides the engine's persistent memories.
pub(crate) struct RunOutput {
    pub report: SimReport,
    pub trace: Option<Trace>,
    pub races: Vec<DynamicRace>,
    pub profile: Option<LaunchProfile>,
}

// ---- race log ----------------------------------------------------------------

/// The run's race log: the first [`MAX_LOGGED_RACES`] entries in
/// dispatch order, plus the uncapped count.
#[derive(Default)]
struct RaceLog {
    entries: Vec<DynamicRace>,
    count: u64,
}

// ---- runtime bookkeeping ------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Runnable,
    /// Issued a memory request: posted in its warp's mask until the warp
    /// is assembled, then in flight until the completion arrives. A
    /// waiting thread's `ready` stays the cycle of that issue and its pc
    /// sits just past the load or store, so the wait's start and cause
    /// are read from the table when it wakes.
    InFlight,
    /// Arrived at a barrier, with `ready` and pc as for `InFlight`; stays
    /// so through a parked release.
    BarrierWait,
    /// Issued its `halt`: `ready` is that issue's cycle and the pc stays
    /// on the `halt`.
    Halted,
}

/// One warp: a contiguous block of one DMM's threads.
struct WarpRt {
    /// Thread id of lane 0.
    first: usize,
    /// Number of lanes (the last warp of a DMM may be partial).
    lanes: usize,
    runnable: usize,
}

/// [`Threads::step_warp`]'s scratch: a warp's runnable lanes, split into
/// runs, each a contiguous range.
#[derive(Default)]
struct RunAhead {
    lanes: Vec<usize>,
    /// Partition scratch.
    moved: Vec<usize>,
    /// Runs still to step.
    pending: Vec<Run>,
}

/// A subgroup of [`RunAhead::lanes`] that runs ahead together.
#[derive(Clone, Copy)]
struct Run {
    /// Its lanes are `lanes[start..end]`.
    start: usize,
    end: usize,
    /// Instructions its lanes have run ahead so far.
    ran: u64,
    /// At least the latest `ready` cycle among its lanes when they
    /// started.
    latest: u64,
}

/// A warp transaction of warp `warp`. A read's request holds its loaded
/// value from dispatch to delivery.
#[derive(Default)]
struct Txn {
    warp: usize,
    /// Posted in lane order; once submitted, slot-major: slot `i` is
    /// `requests[schedule.range(i)]`, still in lane order.
    requests: Vec<Request>,
    schedule: SlotSchedule,
    next_slot: usize,
    /// Cycle the first slot dispatched (set when slot 0 goes out).
    first_dispatch: u64,
}

/// One memory's pipeline: its transactions, the queue of those waiting,
/// the one occupying the pipeline, and one completion record per
/// dispatched slot. Transactions live in `txns` and are named by index;
/// a finished one's index returns to `free` for the next warp.
struct PipeRt {
    memory: MemoryId,
    latency: u64,
    policy: ConflictPolicy,
    pipelined: bool,
    txns: Vec<Txn>,
    free: Vec<usize>,
    queue: VecDeque<usize>,
    current: Option<usize>,
    /// (`due`, txn, slot) per dispatched slot; due times are
    /// non-decreasing.
    completions: VecDeque<(u64, usize, usize)>,
    /// For the non-pipelined ablation: no dispatch before this time.
    busy_until: u64,
    stats: MemoryStats,
    /// Occupancy accumulator (profiling only).
    acc: Option<PipeAcc>,
}

impl PipeRt {
    fn new(memory: MemoryId, latency: usize, policy: ConflictPolicy, cfg: &EngineConfig) -> Self {
        Self {
            memory,
            latency: latency as u64,
            policy,
            pipelined: cfg.pipelined,
            txns: Vec::new(),
            free: Vec::new(),
            queue: VecDeque::new(),
            current: None,
            completions: VecDeque::new(),
            busy_until: 0,
            stats: MemoryStats::default(),
            acc: cfg.profile.then(|| PipeAcc::new(cfg.profile_buckets)),
        }
    }

    /// Earliest future event: a completion, or a dispatch opportunity
    /// while a transaction is queued or in progress. A pipelined memory
    /// can dispatch every cycle; the non-pipelined ablation waits out
    /// `busy_until` first.
    fn next_event(&self, now: u64) -> Option<u64> {
        let dispatch = (self.current.is_some() || !self.queue.is_empty())
            .then(|| self.busy_until.max(now + 1));
        dispatch.into_iter().chain(self.next_due()).min()
    }

    fn next_due(&self) -> Option<u64> {
        self.completions.front().map(|c| c.0)
    }

    /// No transaction queued or in progress and no slot in flight: the
    /// pipeline has nothing to dispatch or deliver and no next event.
    fn is_idle(&self) -> bool {
        self.current.is_none() && self.queue.is_empty() && self.completions.is_empty()
    }

    /// Open an empty transaction for warp `warp`, reusing a finished
    /// one's buffers when there is one.
    fn open(&mut self, warp: usize) -> usize {
        let id = self.free.pop().unwrap_or_else(|| {
            self.txns.push(Txn::default());
            self.txns.len() - 1
        });
        let txn = &mut self.txns[id];
        txn.warp = warp;
        txn.requests.clear();
        txn.next_slot = 0;
        id
    }

    /// Schedule transaction `id` — its requests reordered so that each
    /// slot is a range, its schedule rebuilt in place — and queue it for
    /// dispatch.
    fn submit(&mut self, id: usize, scratch: &mut SlotScratch, width: usize) {
        let txn = &mut self.txns[id];
        scratch.build_into(&mut txn.requests, width, self.policy, &mut txn.schedule);
        self.queue.push_back(id);
    }

    /// Dispatch one pipeline slot, if one can go out at `now`: its
    /// requests are a range in lane order, whose reads observe memory
    /// before its writes; write-write collisions resolve to the last
    /// (highest thread id) writer — "arbitrary" per the paper, made
    /// deterministic here. `pre` observes each request, with its warp,
    /// in slot order before any write is served (the race checker). The
    /// slot is profiled and traced; its transaction's statistics are
    /// recorded with its last slot.
    fn dispatch(
        &mut self,
        now: u64,
        cells: &mut [Word],
        trace: &mut Trace,
        mut pre: impl FnMut(usize, &Request),
    ) {
        if now < self.busy_until {
            return;
        }
        let depth = self.queue.len() + usize::from(self.current.is_some());
        if self.current.is_none() {
            self.current = self.queue.pop_front();
        }
        let Some(id) = self.current else {
            return;
        };
        let txn = &mut self.txns[id];
        if txn.next_slot == 0 {
            txn.first_dispatch = now;
        }
        let slot_index = txn.next_slot;
        txn.next_slot += 1;
        let (total_slots, requests) = (txn.schedule.num_slots(), txn.requests.len());
        let served = &mut txn.requests[txn.schedule.range(slot_index)];
        // Addresses were bounds-checked at assembly.
        for req in served.iter_mut() {
            pre(txn.warp, req);
            if req.kind == AccessKind::Read {
                req.value = cells[req.addr];
            }
        }
        for req in served.iter() {
            if req.kind == AccessKind::Write {
                cells[req.addr] = req.value;
            }
        }
        // A due time past `u64::MAX` saturates: the clock then reaches
        // the cycle limit first.
        let due = now.saturating_add(self.latency);
        self.completions.push_back((due, id, slot_index));
        if !self.pipelined {
            self.busy_until = due;
        }
        let done = slot_index + 1 == total_slots;
        if done {
            self.current = None;
            self.stats.record(total_slots as u64, requests as u64);
        }
        if let Some(acc) = self.acc.as_mut() {
            acc.on_dispatch(now, depth);
            if done {
                acc.on_txn_done(total_slots as u64);
            }
        }
        trace.record(|| TraceEvent::SlotDispatched {
            cycle: now,
            memory: self.memory,
            warp: txn.warp,
            slot_index,
            total_slots,
            addrs: served.iter().map(|r| r.addr).collect(),
        });
    }

    /// Deliver every slot due by `now`: trace its completion (loads,
    /// then stores, each in request order) and hand the memory's space,
    /// the slot's warp, its requests and its conflict share — the cycles
    /// it dispatched after its transaction's first slot — to `wake`. A
    /// transaction's id returns to `free` with its last slot.
    fn deliver(
        &mut self,
        now: u64,
        trace: &mut Trace,
        mut wake: impl FnMut(Space, usize, &[Request], u64),
    ) {
        while let Some(&(due, id, slot)) = self.completions.front() {
            if due > now {
                break;
            }
            self.completions.pop_front();
            let txn = &self.txns[id];
            let served = &txn.requests[txn.schedule.range(slot)];
            trace.record(|| {
                let mut threads = Vec::with_capacity(served.len());
                for kind in [AccessKind::Read, AccessKind::Write] {
                    threads.extend(served.iter().filter(|r| r.kind == kind).map(|r| r.thread));
                }
                TraceEvent::SlotCompleted {
                    cycle: now,
                    memory: self.memory,
                    warp: txn.warp,
                    threads,
                }
            });
            let conflict = due - self.latency - txn.first_dispatch;
            wake(self.memory.space(), txn.warp, served, conflict);
            if slot + 1 == txn.schedule.num_slots() {
                self.free.push(id);
            }
        }
    }

    /// Every request queued or in flight, with its transaction's warp:
    /// the undispatched slots of the queued and current transactions,
    /// then each dispatched slot not yet delivered.
    fn pending(&self) -> impl Iterator<Item = (usize, &Request)> {
        let undispatched = self.queue.iter().chain(&self.current).map(|&id| {
            let txn = &self.txns[id];
            (
                txn,
                txn.schedule.range(txn.next_slot).start..txn.requests.len(),
            )
        });
        let in_flight = self.completions.iter().map(|&(_, id, slot)| {
            let txn = &self.txns[id];
            (txn, txn.schedule.range(slot))
        });
        undispatched
            .chain(in_flight)
            .flat_map(|(txn, range)| txn.requests[range].iter().map(|req| (txn.warp, req)))
    }
}

// ---- dynamic race checker -----------------------------------------------

/// Dynamic race checker for one DMM's shared memory: tracks, per
/// address, the last access within the current barrier interval.
/// Intervals advance on every barrier release, which is sound because a
/// thread blocks on its in-flight access before it can reach a barrier.
struct RaceCk {
    dmm: usize,
    /// Current barrier interval. Starts at 1 so the zero-initialised
    /// dense table reads "never touched".
    interval: u64,
    /// Dense per-address table, sized to the shared memory:
    /// addr -> (interval, warp, `saw_a_write`).
    last: Vec<(u64, usize, bool)>,
}

impl RaceCk {
    fn new(dmm: usize, shared_size: usize) -> Self {
        Self {
            dmm,
            interval: 1,
            last: vec![(0, 0, false); shared_size],
        }
    }

    /// Observe a dispatched request of warp `warp`.
    fn observe(&mut self, warp: usize, req: &Request, log: &mut RaceLog) {
        let is_write = req.kind == AccessKind::Write;
        let e = self.last[req.addr];
        if e.0 == self.interval {
            if e.1 != warp && (e.2 || is_write) {
                log.count += 1;
                if log.entries.len() < MAX_LOGGED_RACES {
                    log.entries.push(DynamicRace {
                        dmm: self.dmm,
                        addr: req.addr,
                        warp_a: e.1,
                        warp_b: warp,
                    });
                }
            }
            self.last[req.addr].2 |= is_write;
        } else {
            self.last[req.addr] = (self.interval, warp, is_write);
        }
    }
}

// ---- cycle accounting -----------------------------------------------------

/// What a thread waits on (profiler view).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Wait {
    Mem(Space),
    Barrier,
}

/// The launch profile's counts, kept as they happen: per-warp and per-pc
/// counts. Accounting is interval-based and a thread has at most one wait
/// at a time, whose start and cause the thread table already holds (see
/// [`Status`]), so nothing is recorded when a wait starts, while it
/// lasts, or while a thread issues back to back.
struct Profiler {
    warps: Vec<CategoryCounts>,
    per_pc: Vec<CategoryCounts>,
}

impl Profiler {
    fn new(warps: usize, program_len: usize) -> Self {
        Self {
            warps: vec![CategoryCounts::default(); warps],
            per_pc: vec![CategoryCounts::default(); program_len],
        }
    }

    fn charge(&mut self, warp: usize, pc: usize, cat: StallCategory, n: u64) {
        if n == 0 {
            return;
        }
        self.warps[warp].add(cat, n);
        if let Some(c) = self.per_pc.get_mut(pc) {
            c.add(cat, n);
        }
    }

    /// Threads of warp `warp` waiting on `wait` woke and issue next at
    /// `issue_at`; `waits` holds each one's `(since, pc)` — the cycle of
    /// the issue that started its wait and the pc of the instruction
    /// that caused it, read from the table before the wake. Charge each
    /// the cycles strictly between `since` and `issue_at`. A memory wait
    /// splits into conflict serialisation (the `conflict` cycles its slot
    /// dispatched behind its transaction's first) and the rest; a barrier
    /// wait is all barrier. Issue cycles are charged at issue, so exactly
    /// one category receives every cycle of a thread's life — which is
    /// what makes the accounting conserve `threads × time`. Charges add,
    /// so consecutive threads whose waits match are charged once for all
    /// of them.
    fn on_wake(
        &mut self,
        warp: usize,
        wait: Wait,
        waits: impl IntoIterator<Item = (u64, usize)>,
        issue_at: u64,
        conflict: u64,
    ) {
        let mut waits = waits.into_iter();
        let Some(mut head) = waits.next() else {
            return;
        };
        let mut n = 1;
        for w in waits {
            if w == head {
                n += 1;
            } else {
                self.charge_wait(warp, wait, head, issue_at, conflict, n);
                (head, n) = (w, 1);
            }
        }
        self.charge_wait(warp, wait, head, issue_at, conflict, n);
    }

    /// Charge `n` threads of warp `warp` whose wait on `wait` started at
    /// `since` at `pc` (see [`Profiler::on_wake`]).
    fn charge_wait(
        &mut self,
        warp: usize,
        wait: Wait,
        (since, pc): (u64, usize),
        issue_at: u64,
        conflict: u64,
        n: u64,
    ) {
        let waited = issue_at - since - 1;
        match wait {
            Wait::Mem(space) => {
                let conflict = conflict.min(waited);
                let (mem, conf) = match space {
                    Space::Global => (StallCategory::MemGlobal, StallCategory::ConflictGlobal),
                    Space::Shared => (StallCategory::MemShared, StallCategory::ConflictShared),
                };
                self.charge(warp, pc, mem, (waited - conflict) * n);
                self.charge(warp, pc, conf, conflict * n);
            }
            Wait::Barrier => self.charge(warp, pc, StallCategory::Barrier, waited * n),
        }
    }

    /// Once the launch finished at `time`, with every thread halted,
    /// charge each its retired tail: the cycles strictly between its
    /// `halt`'s issue (its `ready`, at its pc) and `time`.
    fn close(&mut self, threads: &Threads, time: u64) {
        for (wid, warp) in threads.warps.iter().enumerate() {
            for t in warp.first..warp.first + warp.lanes {
                let pc = threads.lanes.pc(t);
                self.charge(wid, pc, StallCategory::Retired, time - threads.ready[t] - 1);
            }
        }
    }
}

// ---- the thread and warp table ---------------------------------------------

/// Every thread and warp of the launch, by global id; warps are numbered
/// DMM-major, so a DMM's threads and warps are ranges of the table.
struct Threads {
    /// Registers, PCs and request slots, structure-of-arrays; warp `i`
    /// is threads `warps[i].first..warps[i].first + warps[i].lanes`.
    lanes: LaneState,
    status: Vec<Status>,
    /// The cycle at which a runnable lane executes its next instruction.
    /// A lane at a local instruction may fall behind the clock until
    /// [`Threads::run_ahead`] catches it up.
    ready: Vec<u64>,
    /// Per pc, from [`local_runs`].
    runs: Vec<u64>,
    warps: Vec<WarpRt>,
    /// Per warp, `mask_words` words: the lanes whose request sits in
    /// their slot awaiting assembly, as a lane bitmask (64 lanes per
    /// word).
    posted: Vec<u64>,
    mask_words: usize,
    /// Per warp: the earliest cycle by which one of its runnable lanes
    /// must be stepped — the least `ready + runs[pc]` — or `u64::MAX`
    /// when it has none.
    warp_due: Vec<u64>,
    /// Arrivals at the machine-wide barrier.
    bar_global: usize,
    /// Live threads machine-wide (the machine-wide barrier's release
    /// threshold; the launch ends when it reaches 0).
    live: usize,
    /// A `bar` arrival or a `halt` issued this cycle: only such an event
    /// can first make a barrier's arrivals equal its live threads.
    synced: bool,
    /// The cycle limit: a lane that reaches it stops there.
    max_cycles: u64,
    instructions: u64,
    finish_time: u64,
    /// Cycle accounting (present when the config enables profiling).
    prof: Option<Profiler>,
}

impl Threads {
    /// `runs[pc]`; 0 outside the program.
    fn run_at(&self, pc: usize) -> u64 {
        self.runs.get(pc).copied().unwrap_or(0)
    }

    /// Warp `wid`'s posted mask.
    fn posted(&self, wid: usize) -> &[u64] {
        &self.posted[wid * self.mask_words..][..self.mask_words]
    }

    /// Deliver a served slot of `space` — requests of warp `wid` — to
    /// their threads, which issue at `now`: a load's value goes to its
    /// destination register. The warp's runnable count and due cycle are
    /// updated once for the slot, and the profiler charges the slot's
    /// waits before their `ready` is overwritten.
    fn complete(&mut self, now: u64, space: Space, wid: usize, slot: &[Request], conflict: u64) {
        if let Some(prof) = self.prof.as_mut() {
            let (ready, lanes) = (&self.ready, &self.lanes);
            let waits = slot
                .iter()
                .map(|r| (ready[r.thread], lanes.pc(r.thread) - 1));
            prof.on_wake(wid, Wait::Mem(space), waits, now, conflict);
        }
        let mut run = u64::MAX;
        for req in slot {
            let t = req.thread;
            if req.kind == AccessKind::Read {
                let dst = self.lanes.req(t).dst;
                self.lanes.set_reg(t, dst, req.value);
            }
            debug_assert_eq!(self.status[t], Status::InFlight);
            self.status[t] = Status::Runnable;
            self.ready[t] = now;
            run = run.min(self.run_at(self.lanes.pc(t)));
        }
        self.warps[wid].runnable += slot.len();
        self.warp_due[wid] = self.warp_due[wid].min(now.saturating_add(run));
    }

    /// Step warp `wid` of `dmm` at `now`: its runnable lanes run ahead
    /// through local instructions, and in each group that stops, the
    /// lanes whose next instruction is at `now` issue it
    /// ([`Threads::run_ahead`]). Returns the lowest erring lane over all
    /// groups and its error.
    ///
    /// Kept out of line: inlined into the driver loop, it made the
    /// latency-bound perfbench workload (`sum_latency`) about 4% slower
    /// on a 2-core x86-64 host.
    #[inline(never)]
    fn step_warp(
        &mut self,
        now: u64,
        program: &Program,
        wid: usize,
        ra: &mut RunAhead,
        dmm: &mut DmmRt<'_>,
    ) -> Option<(usize, SimError)> {
        let (first, n) = (self.warps[wid].first, self.warps[wid].lanes);
        let lanes = first..first + n;
        // The runnable lanes, their latest `ready` cycle, and their one pc
        // when every lane shares one pc and one cycle, which one pass
        // checks.
        let (pc, at) = (self.lanes.pc(first), self.ready[first]);
        ra.lanes.clear();
        let (latest, pc) = if self.warps[wid].runnable == n
            && lanes
                .clone()
                .all(|t| self.lanes.pc(t) == pc && self.ready[t] == at)
        {
            ra.lanes.extend(lanes.clone());
            (at, Some(pc))
        } else {
            let (status, ready) = (&self.status, &self.ready);
            ra.lanes
                .extend(lanes.clone().filter(|&t| status[t] == Status::Runnable));
            let latest = ra.lanes.iter().map(|&t| ready[t]).max().unwrap_or(0);
            (latest, None)
        };
        let fault = self.run_ahead(now, program, wid, ra, dmm, latest, pc);
        self.warp_due[wid] = if self.warps[wid].runnable == 0 {
            u64::MAX
        } else {
            lanes
                .filter(|&t| self.status[t] == Status::Runnable)
                .map(|t| self.ready[t].saturating_add(self.run_at(self.lanes.pc(t))))
                .min()
                .unwrap_or(u64::MAX)
        };
        fault
    }

    /// Issue the instruction at `pc` for `lanes` of warp `wid` of `dmm`
    /// at `now`, then apply its effect: after local work (a division that
    /// did not fault) the lanes execute their next instruction at
    /// `now + 1`, memory requests are posted in the warp's lane mask
    /// (their slots already hold them), barrier arrivals and halts are
    /// counted.
    fn issue(
        &mut self,
        now: u64,
        program: &Program,
        wid: usize,
        dmm: &mut DmmRt<'_>,
        pc: usize,
        lanes: &[usize],
    ) -> Result<(), (usize, SimError)> {
        let n = lanes.len();
        if let Some(prof) = self.prof.as_mut() {
            prof.charge(wid, pc, StallCategory::Issued, n as u64);
        }
        let effect = self.lanes.step_group(program, pc, lanes)?;
        self.instructions += n as u64;
        match effect {
            GroupEffect::Local => {
                for &t in lanes {
                    self.ready[t] = now + 1;
                }
                return Ok(());
            }
            GroupEffect::Mem(_) => {
                dmm.posted = true;
                let first = self.warps[wid].first;
                let mask = &mut self.posted[wid * self.mask_words..][..self.mask_words];
                for &t in lanes {
                    self.lanes.req(t).resolve(t).map_err(|e| (t, e))?;
                    self.status[t] = Status::InFlight;
                    let lane = t - first;
                    mask[lane / 64] |= 1 << (lane % 64);
                }
            }
            GroupEffect::Barrier(scope) => {
                for &t in lanes {
                    self.status[t] = Status::BarrierWait;
                }
                match scope {
                    Scope::Global => self.bar_global += n,
                    Scope::Dmm => dmm.bar_dmm += n,
                }
                self.synced = true;
            }
            GroupEffect::Halt => {
                for &t in lanes {
                    self.status[t] = Status::Halted;
                }
                dmm.alive -= n;
                self.live -= n;
                self.synced = true;
                self.finish_time = now + 1;
            }
        }
        self.warps[wid].runnable -= n;
        Ok(())
    }

    /// Run-ahead, then issue: `ra.lanes` (runnable lanes of warp `wid`,
    /// whose latest `ready` cycle is `latest`, all at `pc` if it is
    /// given) execute local instructions, each lane one per cycle of its
    /// own time from its `ready` cycle, in groups by pc however far apart
    /// those cycles are; a branch that diverges a group splits it by pc.
    /// A group stops before an instruction [`LaneState::step_local`]
    /// refuses — a memory access, barrier or halt, a division by zero, a
    /// pc outside the program — and `ready` holds the cycle of that
    /// instruction. The group's lanes whose cycle is `now` then issue it
    /// as one lane group ([`Threads::issue`]); the others wait at it. A
    /// lane that reaches `max_cycles` stops there. Returns the lowest
    /// erring lane over all groups and its error.
    ///
    /// A run carries its group's pc and the instructions it ran, and
    /// writes each lane's pc and `ready` once, where the lane stops; only
    /// a conditional branch writes lane pcs on the way, to split the
    /// group. So every lane's pc is current again when the warp's step
    /// returns.
    ///
    /// Local instructions touch only their own lane's registers and pc,
    /// and the lanes stay runnable throughout, so executing them early or
    /// late changes no output. A lane is never caught up after its due
    /// cycle `ready + runs[pc]`, before which it cannot reach an
    /// instruction that stops it, so every stop lies at or after `now`
    /// (DESIGN.md, "Warp-granular interpreter").
    #[allow(clippy::too_many_arguments)]
    fn run_ahead(
        &mut self,
        now: u64,
        program: &Program,
        wid: usize,
        ra: &mut RunAhead,
        dmm: &mut DmmRt<'_>,
        latest: u64,
        mut pc: Option<usize>,
    ) -> Option<(usize, SimError)> {
        let mut next = Some(Run {
            start: 0,
            end: ra.lanes.len(),
            ran: 0,
            latest,
        });
        let mut fault = None;
        while let Some(Run {
            start,
            mut end,
            mut ran,
            mut latest,
        }) = next
        {
            loop {
                // The group's pc; without one, the lanes' own pcs are
                // current and may differ.
                let at = if let Some(pc) = pc {
                    pc
                } else {
                    let pcs = &self.lanes;
                    let at = pcs.pc(ra.lanes[start]);
                    let mid = start
                        + partition(&mut ra.lanes[start..end], &mut ra.moved, |t| {
                            pcs.pc(t) == at
                        });
                    if mid < end {
                        ra.pending.push(Run {
                            start: mid,
                            end,
                            ran,
                            latest,
                        });
                        end = mid;
                    }
                    at
                };
                let limit = self.max_cycles;
                if latest.saturating_add(ran) >= limit {
                    // Lanes that reached the cycle limit stop there.
                    let ready = &mut self.ready;
                    let mid = start
                        + partition(&mut ra.lanes[start..end], &mut ra.moved, |t| {
                            ready[t] + ran < limit
                        });
                    for &t in &ra.lanes[mid..end] {
                        ready[t] += ran;
                        self.lanes.set_pc(t, at);
                    }
                    end = mid;
                    if start == end {
                        break;
                    }
                    latest = ra.lanes[start..end]
                        .iter()
                        .map(|&t| ready[t])
                        .max()
                        .unwrap_or(0);
                }
                let group = &ra.lanes[start..end];
                if let Some(next_pc) = self.lanes.step_local(program, at, group) {
                    self.ran_ahead(wid, at, group.len());
                    pc = next_pc;
                    ran += 1;
                    continue;
                }
                let ready = &mut self.ready;
                if ran > 0 {
                    for &t in group {
                        ready[t] += ran;
                        self.lanes.set_pc(t, at);
                    }
                }
                debug_assert!(
                    group.iter().all(|&t| ready[t] >= now),
                    "a lane at a stop fell behind the clock"
                );
                // Every lane's `ready` lies in `now..=latest + ran`.
                let due = if latest + ran == now {
                    end
                } else {
                    start
                        + partition(&mut ra.lanes[start..end], &mut ra.moved, |t| {
                            ready[t] == now
                        })
                };
                if start < due {
                    let group = &ra.lanes[start..due];
                    if let Err(e) = self.issue(now, program, wid, dmm, at, group) {
                        fault = lowest_fault(fault, Some(e));
                    }
                }
                break;
            }
            next = ra.pending.pop();
            pc = None;
        }
        fault
    }

    /// Count `n` lanes of warp `wid` that ran the instruction at `pc`
    /// ahead of its cycle.
    fn ran_ahead(&mut self, wid: usize, pc: usize, n: usize) {
        if let Some(prof) = self.prof.as_mut() {
            prof.charge(wid, pc, StallCategory::Issued, n as u64);
        }
        self.instructions += n as u64;
    }

    /// Wake every thread of `warps` waiting at a barrier; it issues at
    /// `issue_at` (this cycle's phase A for a parked release, the next
    /// cycle's otherwise). Warp by warp, the profiler charges the waits
    /// before their `ready` is overwritten, and the warp's runnable count
    /// and due cycle are updated once.
    fn wake_barrier(&mut self, warps: Range<usize>, issue_at: u64) {
        for wid in warps {
            let (first, n) = (self.warps[wid].first, self.warps[wid].lanes);
            if let Some(prof) = self.prof.as_mut() {
                let (status, ready, lanes) = (&self.status, &self.ready, &self.lanes);
                let waits = (first..first + n)
                    .filter(|&t| status[t] == Status::BarrierWait)
                    .map(|t| (ready[t], lanes.pc(t) - 1));
                prof.on_wake(wid, Wait::Barrier, waits, issue_at, 0);
            }
            let (mut woken, mut run) = (0, u64::MAX);
            for t in first..first + n {
                if self.status[t] == Status::BarrierWait {
                    self.status[t] = Status::Runnable;
                    self.ready[t] = issue_at;
                    woken += 1;
                    run = run.min(self.run_at(self.lanes.pc(t)));
                }
            }
            self.warps[wid].runnable += woken;
            self.warp_due[wid] = self.warp_due[wid].min(issue_at.saturating_add(run));
        }
    }

    /// The error of warp `wid`'s lowest posted lane whose address fails
    /// its memory's check (`shared` is the size of the warp's DMM's
    /// shared memory, if it has one): the error lane-by-lane posting
    /// meets first.
    fn first_fault(&self, wid: usize, global: usize, shared: Option<usize>) -> SimError {
        let (warp, mask) = (&self.warps[wid], self.posted(wid));
        (warp.first..warp.first + warp.lanes)
            .filter(|&t| {
                let lane = t - warp.first;
                mask[lane / 64] >> (lane % 64) & 1 == 1
            })
            .find_map(|t| {
                let req = self.lanes.req(t);
                let size = match (req.space, shared) {
                    (Space::Global, _) => global,
                    (Space::Shared, Some(size)) => size,
                    (Space::Shared, None) => return Some(SimError::NoSharedMemory),
                };
                let addr = req.addr as usize;
                (addr >= size).then_some(SimError::OutOfBounds {
                    thread: t,
                    space: req.space,
                    addr,
                    size,
                })
            })
            .expect("a posted request failed its address check")
    }
}

// ---- the per-DMM record ----------------------------------------------------

/// What the model gives one DMM alone: its range of the warp table, its
/// shared memory and pipeline, its barrier counters and its race checker.
struct DmmRt<'m> {
    warps: Range<usize>,
    /// Live threads (the DMM-barrier release threshold).
    alive: usize,
    bar_dmm: usize,
    /// The cycle a barrier release parked by the synchronisation-cost
    /// ablation resumes its threads. A release takes every live thread
    /// of the DMM, so at most one is parked at a time.
    parked_until: Option<u64>,
    /// The shared-memory pipeline; `None` on machines without shared
    /// memory (standalone DMM/UMM).
    pipe: Option<PipeRt>,
    store: &'m mut [Word],
    race_ck: RaceCk,
    /// The error this DMM hit assembling its warps' transactions; the
    /// driver stops at the end of the cycle with the lowest DMM's.
    err: Option<SimError>,
    /// Set when a warp of this DMM posts a memory request; after
    /// assembly, still set only if a runnable warp holds posted lanes.
    /// Assembly skips the DMM while it is clear.
    posted: bool,
    /// Not idle ([`DmmRt::is_idle`]): the driver delivers, dispatches and
    /// asks for next events only on busy DMMs.
    busy: bool,
}

impl DmmRt<'_> {
    /// Release the threads waiting at a barrier — every live thread of
    /// this DMM — or park them when the synchronisation-cost ablation is
    /// active, and open a new race-checking interval. A free release lets
    /// the threads run at `now + 1`, so resuming at `now + cost + 1`
    /// charges exactly `cost` extra units.
    /// A parked release makes the DMM busy, counted in `busy`.
    fn release(&mut self, now: u64, cost: u64, threads: &mut Threads, busy: &mut usize) {
        if cost > 0 {
            self.parked_until = Some(now.saturating_add(cost).saturating_add(1));
            self.set_busy(busy);
        } else {
            threads.wake_barrier(self.warps.clone(), now + 1);
        }
        self.race_ck.interval += 1;
    }

    /// Dispatch one shared-memory pipeline slot.
    fn dispatch_shared(&mut self, now: u64, trace: &mut Trace, races: &mut RaceLog) {
        if let Some(pipe) = self.pipe.as_mut() {
            let rck = &mut self.race_ck;
            pipe.dispatch(now, self.store, trace, |warp, req| {
                rck.observe(warp, req, races);
            });
        }
    }

    /// Earliest future event of this DMM: a shared-pipeline dispatch
    /// opportunity or completion, or the parked barrier release.
    fn next_event(&self, now: u64) -> Option<u64> {
        let pipe = self.pipe.as_ref().and_then(|p| p.next_event(now));
        pipe.into_iter().chain(self.parked_until).min()
    }

    /// No barrier release parked and the shared pipeline, if any, idle:
    /// such a DMM delivers and dispatches nothing and has no next event.
    fn is_idle(&self) -> bool {
        self.parked_until.is_none() && self.pipe.as_ref().is_none_or(PipeRt::is_idle)
    }

    /// Mark the DMM busy, counting it in `busy` if it was idle.
    fn set_busy(&mut self, busy: &mut usize) {
        if !self.busy {
            self.busy = true;
            *busy += 1;
        }
    }
}

// ---- the launch ------------------------------------------------------------

/// One launch in flight: the thread and warp table, the DMMs, the global
/// pipeline shared by every DMM's warps with its backing store, and the
/// run's trace and race log, which every step appends to as it happens.
struct Launch<'m> {
    cfg: &'m EngineConfig,
    program: &'m Program,
    threads: Threads,
    dmms: Vec<DmmRt<'m>>,
    global: PipeRt,
    store: &'m mut [Word],
    /// Reusable schedule-building scratch.
    slot_scratch: SlotScratch,
    ahead: RunAhead,
    trace: Trace,
    races: RaceLog,
    barriers: u64,
    /// Busy DMMs ([`DmmRt::busy`]).
    busy: usize,
    /// Some DMM's assembly stored an error this cycle; the launch ends
    /// with it at the cycle's end.
    failed: bool,
}

impl Launch<'_> {
    /// The driver. Every cycle runs, in order: global completions,
    /// delivered straight to their threads; phase A on each DMM in order;
    /// each DMM's barrier release, then the machine-wide one; transaction
    /// assembly on each DMM; one global pipeline slot; one shared slot on
    /// each DMM. That is the trace's canonical order, so events and
    /// race-log entries are appended as they are produced.
    ///
    /// Only the DMMs that can act are visited (see the module doc, "Per-cycle
    /// work on the DMMs that act").
    ///
    /// Phase A writes no memory, so its first error (the lowest DMM's)
    /// returns at once. An assembly error skips the cycle's global slot,
    /// every other DMM still dispatches its shared slot, and then the
    /// lowest DMM's error is returned: warps are numbered DMM-major, so
    /// that is the one thread-by-thread execution would meet first.
    /// Returns the number of time units the event-driven clock skipped
    /// with no lane runnable.
    fn drive(&mut self) -> SimResult<u64> {
        let max_cycles = self.cfg.max_cycles;
        let mut now: u64 = 0;
        let mut skipped: u64 = 0;
        loop {
            if now >= max_cycles {
                return Err(SimError::CycleLimit { limit: max_cycles });
            }
            let threads = &mut self.threads;
            self.global
                .deliver(now, &mut self.trace, |space, wid, slot, conflict| {
                    threads.complete(now, space, wid, slot, conflict);
                });
            for d in 0..self.dmms.len() {
                self.phase_a(d, now)?;
            }
            if std::mem::take(&mut self.threads.synced) {
                for d in 0..self.dmms.len() {
                    self.release_dmm(d, now);
                }
                self.release_global(now);
            }
            for d in 0..self.dmms.len() {
                if self.dmms[d].posted {
                    self.assemble(d);
                }
            }
            if !self.failed {
                self.global
                    .dispatch(now, self.store, &mut self.trace, |_, _| {});
            }
            if self.busy > 0 {
                for m in self.dmms.iter_mut().filter(|m| m.busy && m.err.is_none()) {
                    m.dispatch_shared(now, &mut self.trace, &mut self.races);
                }
            }
            if cfg!(debug_assertions) {
                self.audit();
            }
            if self.failed {
                let err = self.dmms.iter_mut().find_map(|m| m.err.take());
                return Err(err.expect("a failed assembly stored its error"));
            }
            if self.threads.live == 0 {
                return Ok(skipped);
            }
            let (target, runnable) = self.next_time(now)?;
            if self.cfg.fast_forward {
                if !runnable {
                    skipped += target - (now + 1);
                }
                now = target;
            } else {
                now += 1;
            }
        }
    }

    /// Phase A of DMM `d`: if it is busy, deliver its parked barrier
    /// release and the shared-memory completions due this cycle, and
    /// count it idle once nothing is left; then step every warp of
    /// its range with a lane due at `now` ([`Threads::step_warp`]), in
    /// warp order. Fails with the error of the lowest-numbered erring
    /// thread: lanes never interact within a step, so that is the error
    /// lane-by-lane execution would meet first. Global completions were
    /// delivered before it.
    fn phase_a(&mut self, d: usize, now: u64) -> SimResult<()> {
        let dmm = &mut self.dmms[d];
        let threads = &mut self.threads;
        if dmm.busy {
            if dmm.parked_until.is_some_and(|t| t <= now) {
                dmm.parked_until = None;
                threads.wake_barrier(dmm.warps.clone(), now);
            }
            if let Some(pipe) = dmm.pipe.as_mut() {
                pipe.deliver(now, &mut self.trace, |space, wid, slot, conflict| {
                    threads.complete(now, space, wid, slot, conflict);
                });
            }
            if dmm.is_idle() {
                dmm.busy = false;
                self.busy -= 1;
            }
        }
        for wid in dmm.warps.clone() {
            if threads.warp_due[wid] <= now {
                if let Some((_, e)) =
                    threads.step_warp(now, self.program, wid, &mut self.ahead, dmm)
                {
                    return Err(e);
                }
            }
        }
        Ok(())
    }

    /// Release DMM `d`'s barrier once every live thread of it arrived.
    fn release_dmm(&mut self, d: usize, now: u64) {
        let dmm = &mut self.dmms[d];
        if dmm.bar_dmm > 0 && dmm.bar_dmm == dmm.alive {
            let n = dmm.bar_dmm;
            dmm.release(
                now,
                self.cfg.barrier_cost,
                &mut self.threads,
                &mut self.busy,
            );
            dmm.bar_dmm = 0;
            self.barriers += 1;
            self.trace.record(|| TraceEvent::BarrierReleased {
                cycle: now,
                dmm: Some(d),
                threads: n,
            });
        }
    }

    /// Release the machine-wide barrier once its arrivals add up to the
    /// live threads of every DMM; each DMM releases its own threads.
    fn release_global(&mut self, now: u64) {
        let waiting = self.threads.bar_global;
        if waiting == 0 || waiting != self.threads.live {
            return;
        }
        self.barriers += 1;
        self.trace.record(|| TraceEvent::BarrierReleased {
            cycle: now,
            dmm: None,
            threads: waiting,
        });
        for dmm in &mut self.dmms {
            dmm.release(
                now,
                self.cfg.barrier_cost,
                &mut self.threads,
                &mut self.busy,
            );
        }
        self.threads.bar_global = 0;
    }

    /// Assemble DMM `d`'s warp transactions (SIMD lockstep: a warp's
    /// requests go to memory once none of its threads can advance without
    /// one): the posted requests of each memory, first that of the warp's
    /// lowest posted lane, become one transaction ([`Launch::post`]). An
    /// address error stops the DMM's assembly and is kept in its `err`.
    fn assemble(&mut self, d: usize) {
        let mut held = false;
        for wid in self.dmms[d].warps.clone() {
            let warp = &self.threads.warps[wid];
            let mask = self.threads.posted(wid);
            if warp.runnable > 0 {
                held = held || mask.iter().any(|&m| m != 0);
                continue;
            }
            let Some(k) = mask.iter().position(|&m| m != 0) else {
                continue;
            };
            let lowest = warp.first + 64 * k + mask[k].trailing_zeros() as usize;
            let space = self.threads.lanes.req(lowest).space;
            let other = match space {
                Space::Global => Space::Shared,
                Space::Shared => Space::Global,
            };
            let posted = match self.post(d, wid, space) {
                Some(true) => self.post(d, wid, other),
                done => done,
            };
            if posted.is_none() {
                let dmm = &self.dmms[d];
                let shared = dmm.pipe.as_ref().map(|_| dmm.store.len());
                let err = self.threads.first_fault(wid, self.cfg.global_size, shared);
                self.dmms[d].err = Some(err);
                self.failed = true;
                return;
            }
            let words = self.threads.mask_words;
            self.threads.posted[wid * words..][..words].fill(0);
        }
        self.dmms[d].posted = held;
    }

    /// Compact warp `wid`'s posted requests to `space`, in lane order,
    /// straight into a transaction opened in the pipeline that serves
    /// it — DMM `d`'s own for shared memory, the global one otherwise —
    /// and submit it. Returns whether a posted request targets the other
    /// memory, or `None` when a request fails its address check.
    fn post(&mut self, d: usize, wid: usize, space: Space) -> Option<bool> {
        let dmm = &mut self.dmms[d];
        let (pipe, size) = match space {
            Space::Global => (&mut self.global, self.cfg.global_size),
            Space::Shared => (dmm.pipe.as_mut()?, dmm.store.len()),
        };
        let (lanes, first) = (&self.threads.lanes, self.threads.warps[wid].first);
        let id = pipe.open(wid);
        let mut requests = std::mem::take(&mut pipe.txns[id].requests);
        let (mut fits, mut other) = (true, false);
        for (k, &word) in self.threads.posted(wid).iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let t = first + 64 * k + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let req = lanes.req(t);
                if req.space != space {
                    other = true;
                    continue;
                }
                // Non-negative: a negative address already failed at issue.
                let addr = req.addr as usize;
                fits &= addr < size;
                requests.push(Request {
                    thread: t,
                    addr,
                    kind: req.kind,
                    value: req.value,
                });
            }
        }
        pipe.txns[id].requests = requests;
        if !fits {
            return None;
        }
        pipe.submit(id, &mut self.slot_scratch, self.cfg.width);
        if space == Space::Shared {
            dmm.set_busy(&mut self.busy);
        }
        Some(other)
    }

    /// The next interesting time, computed at the end of every cycle: the
    /// earliest cycle at which a warp is due, pipeline completion,
    /// dispatch opportunity or parked barrier release. When no such event
    /// exists the machine can never make progress again and the deadlock
    /// is reported. Also returns whether any lane is runnable: the units
    /// the clock jumps over then are busy with run-ahead work, so they
    /// are not skipped.
    ///
    /// The `fast_forward` knob only decides whether the driver jumps to
    /// the returned target or walks to it one unit at a time; the target
    /// itself — and therefore every simulated output — is the same either
    /// way (exactness argument in DESIGN.md).
    fn next_time(&self, now: u64) -> SimResult<(u64, bool)> {
        let due = self
            .threads
            .warp_due
            .iter()
            .copied()
            .min()
            .unwrap_or(u64::MAX);
        let runnable = due != u64::MAX;
        if due <= now + 1 {
            return Ok((now + 1, true));
        }
        let busy = if self.busy > 0 { &self.dmms[..] } else { &[] };
        let next = self
            .global
            .next_event(now)
            .into_iter()
            .chain(
                busy.iter()
                    .filter(|m| m.busy)
                    .filter_map(|m| m.next_event(now)),
            )
            .chain(runnable.then_some(due))
            .min();
        match next {
            Some(t) => Ok((t.max(now + 1), runnable)),
            None => Err(SimError::Deadlock {
                cycle: now,
                waiting: self.threads.bar_global
                    + self.dmms.iter().map(|m| m.bar_dmm).sum::<usize>(),
            }),
        }
    }

    /// Check, at the end of a visited cycle in debug builds, that the
    /// state derived from the thread table agrees with it: each warp's
    /// runnable count and due cycle, and no posted lane left in a warp
    /// that assembly had to take (unless its DMM's assembly failed), nor
    /// in any warp of a DMM whose posted flag is clear; each DMM's live
    /// threads and, unless its release is parked, its barrier arrivals
    /// (a waiting lane's pc sits just past its `bar`), with the
    /// machine-wide arrivals and live threads summed over those DMMs;
    /// each DMM's busy flag, and their count; the error flag; and every
    /// queued or in-flight request naming an in-flight lane of its
    /// transaction's warp.
    fn audit(&self) {
        let t = &self.threads;
        let (mut bar_global, mut live, mut busy) = (0, 0, 0);
        for (d, dmm) in self.dmms.iter().enumerate() {
            let (mut alive, mut bar_dmm) = (0, 0);
            for wid in dmm.warps.clone() {
                let warp = &t.warps[wid];
                let (mut runnable, mut due) = (0, u64::MAX);
                for l in warp.first..warp.first + warp.lanes {
                    match t.status[l] {
                        Status::Runnable => {
                            runnable += 1;
                            due = due.min(t.ready[l].saturating_add(t.run_at(t.lanes.pc(l))));
                        }
                        Status::BarrierWait if dmm.parked_until.is_none() => {
                            match self.program.get(t.lanes.pc(l) - 1) {
                                Some(Inst::Bar(Scope::Dmm)) => bar_dmm += 1,
                                Some(Inst::Bar(Scope::Global)) => bar_global += 1,
                                _ => panic!("audit: thread {l} waits past a non-barrier"),
                            }
                        }
                        _ => {}
                    }
                    alive += usize::from(t.status[l] != Status::Halted);
                }
                assert_eq!(warp.runnable, runnable, "audit: warp {wid} runnable");
                assert_eq!(t.warp_due[wid], due, "audit: warp {wid} due cycle");
                let clear = t.posted(wid).iter().all(|&m| m == 0);
                assert!(
                    runnable > 0 || clear || dmm.err.is_some(),
                    "audit: warp {wid} kept a posted lane after assembly"
                );
                assert!(
                    dmm.posted || clear,
                    "audit: warp {wid} holds a posted lane, but DMM {d}'s posted flag is clear"
                );
            }
            assert_eq!(dmm.alive, alive, "audit: DMM {d} live threads");
            if dmm.parked_until.is_none() {
                assert_eq!(dmm.bar_dmm, bar_dmm, "audit: DMM {d} barrier arrivals");
            }
            assert_eq!(dmm.busy, !dmm.is_idle(), "audit: DMM {d} busy flag");
            live += dmm.alive;
            busy += usize::from(dmm.busy);
        }
        assert_eq!(t.bar_global, bar_global, "audit: machine-wide arrivals");
        assert_eq!(t.live, live, "audit: machine-wide live threads");
        assert_eq!(self.busy, busy, "audit: busy DMMs");
        assert_eq!(
            self.failed,
            self.dmms.iter().any(|m| m.err.is_some()),
            "audit: error flag"
        );
        let pipes = self.dmms.iter().filter_map(|m| m.pipe.as_ref());
        for (wid, req) in pipes.chain([&self.global]).flat_map(PipeRt::pending) {
            let warp = &t.warps[wid];
            assert!(
                (warp.first..warp.first + warp.lanes).contains(&req.thread)
                    && t.status[req.thread] == Status::InFlight,
                "audit: a request of warp {wid} names thread {}, not an in-flight lane of it",
                req.thread
            );
        }
    }

    /// The launch profile, once the run finished at `time`: per-warp and
    /// per-pc counts straight from the table, per-DMM counts summed over
    /// each DMM's warps, and the pipeline timelines rescaled to the
    /// widest bucket.
    fn profile(&mut self, time: u64) -> LaunchProfile {
        let mut prof = self.threads.prof.take().expect("profiling enabled");
        prof.close(&self.threads, time);
        let per_dmm: Vec<CategoryCounts> = self
            .dmms
            .iter()
            .map(|m| {
                let mut counts = CategoryCounts::default();
                for c in &prof.warps[m.warps.clone()] {
                    counts.merge(c);
                }
                counts
            })
            .collect();
        let mut total = CategoryCounts::default();
        for c in &per_dmm {
            total.merge(c);
        }
        let shared_accs: Vec<PipeAcc> = self
            .dmms
            .iter_mut()
            .filter_map(|m| m.pipe.as_mut().and_then(|p| p.acc.take()))
            .collect();
        let mut gacc = self.global.acc.take().expect("profiling enabled");
        let bw = shared_accs
            .iter()
            .map(PipeAcc::width)
            .fold(gacc.width(), u64::max);
        gacc.rescale_to(bw);
        let shared_pipes = shared_accs
            .into_iter()
            .map(|mut a| {
                a.rescale_to(bw);
                a.finish(time)
            })
            .collect();
        LaunchProfile {
            label: String::new(),
            time,
            threads: self.threads.status.len(),
            width: self.cfg.width,
            total,
            per_warp: prof.warps,
            per_dmm,
            per_pc: prof.per_pc,
            bucket_width: bw,
            global_pipe: gacc.finish(time),
            shared_pipes,
            program: self.program.clone(),
        }
    }
}

// ---- entry point ---------------------------------------------------------

/// Simulate one validated launch to completion: `threads_per_dmm` names
/// every DMM of `cfg` and at least one thread, and `args` fits the
/// argument registers (the machine checks before calling).
pub(crate) fn run(
    cfg: &EngineConfig,
    program: &Program,
    threads_per_dmm: &[usize],
    args: &[Word],
    global: &mut [Word],
    shared: &mut [Vec<Word>],
) -> SimResult<RunOutput> {
    let p: usize = threads_per_dmm.iter().sum();
    let w = cfg.width;
    let runs = local_runs(program);

    let mut lanes = LaneState::new(p);
    let num_warps = threads_per_dmm.iter().map(|pd| pd.div_ceil(w)).sum();
    let mut warps: Vec<WarpRt> = Vec::with_capacity(num_warps);
    let mut dmms: Vec<DmmRt<'_>> = Vec::with_capacity(cfg.dmms);
    let mut first = 0;
    for ((d, &pd), store) in threads_per_dmm.iter().enumerate().zip(shared.iter_mut()) {
        let threads = first..first + pd;
        for (lt, t) in threads.clone().enumerate() {
            lanes.set_reg(t, abi::GID, t as Word);
            lanes.set_reg(t, abi::DMM, d as Word);
            lanes.set_reg(t, abi::LTID, lt as Word);
            lanes.set_reg(t, abi::P, p as Word);
            lanes.set_reg(t, abi::PD, pd as Word);
            lanes.set_reg(t, abi::W, w as Word);
            lanes.set_reg(t, abi::D, cfg.dmms as Word);
            lanes.set_reg(t, abi::L, cfg.global_latency as Word);
            for (i, &a) in args.iter().enumerate() {
                lanes.set_reg(t, abi::arg(i), a);
            }
        }
        let dmm_warps = warps.len();
        warps.extend(threads.clone().step_by(w).map(|first| {
            let n = w.min(threads.end - first);
            WarpRt {
                first,
                lanes: n,
                runnable: n,
            }
        }));
        dmms.push(DmmRt {
            warps: dmm_warps..warps.len(),
            alive: pd,
            bar_dmm: 0,
            parked_until: None,
            // Every shared memory of the paper is latency-1 and banked.
            pipe: (cfg.shared_size > 0)
                .then(|| PipeRt::new(MemoryId::Shared(d), 1, ConflictPolicy::Banked, cfg)),
            store,
            race_ck: RaceCk::new(d, cfg.shared_size),
            err: None,
            posted: false,
            busy: false,
        });
        first = threads.end;
    }
    let mut launch = Launch {
        cfg,
        program,
        threads: Threads {
            lanes,
            status: vec![Status::Runnable; p],
            ready: vec![0; p],
            warp_due: vec![runs.first().copied().unwrap_or(0); num_warps],
            runs,
            prof: cfg.profile.then(|| Profiler::new(num_warps, program.len())),
            warps,
            posted: vec![0; num_warps * w.div_ceil(64)],
            mask_words: w.div_ceil(64),
            bar_global: 0,
            live: p,
            synced: false,
            max_cycles: cfg.max_cycles,
            instructions: 0,
            finish_time: 0,
        },
        dmms,
        global: PipeRt::new(MemoryId::Global, cfg.global_latency, cfg.global_policy, cfg),
        store: global,
        slot_scratch: SlotScratch::default(),
        ahead: RunAhead::default(),
        // An untraced launch keeps no event.
        trace: Trace::bounded(if cfg.trace {
            cfg.trace_capacity.unwrap_or(usize::MAX)
        } else {
            0
        }),
        races: RaceLog::default(),
        barriers: 0,
        busy: 0,
        failed: false,
    };
    let skipped = launch.drive()?;

    let mut report = SimReport {
        threads: p,
        time: launch.threads.finish_time,
        instructions: launch.threads.instructions,
        barriers: launch.barriers,
        global: launch.global.stats.clone(),
        shared_races: launch.races.count,
        skipped_units: skipped,
        ..SimReport::default()
    };
    for pipe in launch.dmms.iter().filter_map(|m| m.pipe.as_ref()) {
        report.shared.merge(&pipe.stats);
        report.shared_per_dmm.push(pipe.stats.clone());
    }
    let profile = cfg.profile.then(|| launch.profile(report.time));
    let trace = cfg.trace.then(|| {
        report.trace_dropped_events = launch.trace.dropped_events();
        launch.trace
    });

    Ok(RunOutput {
        report,
        trace,
        races: launch.races.entries,
        profile,
    })
}
