//! Pins on runs of thread-local instructions that lanes reach out of
//! step. A bank-conflicted shared load wakes the lanes of a warp on
//! consecutive cycles; each lane then runs a loop whose trip count
//! depends on its loaded value and its DMM, so the lanes reach the end
//! of the loop in an order that is neither lane order nor DMM order.
//! The first error, the cycle limit and the report must follow
//! simulated time exactly.

use hmm_machine::isa::Reg;
use hmm_machine::{
    abi, Asm, EngineConfig, Kernel, LaunchShape, Machine, SimError, SimReport, StallCategory,
};

/// Warp width, also the stride of the conflicted access.
const W: usize = 8;
const ADDR: Reg = Reg(16);
const V: Reg = Reg(17);
const COUNT: Reg = Reg(18);
const ACC: Reg = Reg(19);
const T0: Reg = Reg(20);
const T1: Reg = Reg(21);

/// Two DMMs of one warp each: lane `t` of DMM `d` is thread `8d + t`.
fn engine(max_cycles: u64, fast_forward: bool) -> Machine {
    let mut cfg = EngineConfig::hmm(2, W, 4, 64, 64);
    cfg.max_cycles = max_cycles;
    cfg.fast_forward = fast_forward;
    Machine::new(cfg)
}

fn kernel(program: hmm_machine::Program) -> Kernel {
    Kernel::new("local-runs", program)
}

/// Both DMMs' warps.
fn shape() -> LaunchShape {
    LaunchShape::Even(2 * W)
}

/// Every lane stores its `LTID` to `S[8·LTID]` and loads it back into
/// `V`. All eight addresses sit in bank 0, so each access takes eight
/// slots and lane `t` wakes from the load `t` cycles after lane 0. Then
/// lane `t` of DMM `d` counts `COUNT = 2(8 − t − d)` down to zero in a
/// four-instruction loop that adds `V` into `ACC` (`ACC = V·COUNT`), so
/// it leaves the loop `8(8 − t − d) + 1` instructions after it woke:
/// the highest lane of the last DMM leaves first.
fn conflicted_countdown(a: &mut Asm) {
    a.mul(ADDR, abi::LTID, W as i64);
    a.st_shared(ADDR, 0, abi::LTID);
    a.ld_shared(V, ADDR, 0);
    a.sub(COUNT, W as i64, V);
    a.sub(COUNT, COUNT, abi::DMM);
    a.add(COUNT, COUNT, COUNT);
    let top = a.here();
    let done = a.label();
    a.brz(COUNT, done);
    a.sub(COUNT, COUNT, 1);
    a.add(ACC, ACC, V);
    a.jmp(top);
    a.bind(done);
}

/// After the countdown, divide by `(V − 3)(V − 6)`: zero on lanes 3 and
/// 6 of both DMMs. Lane 6 of DMM 1 (thread 14) leaves the loop first,
/// so it is the one that divides by zero, although threads 3, 6 and 11
/// are lower.
#[test]
fn division_by_a_lane_dependent_zero_follows_time_order() {
    let mut a = Asm::new();
    conflicted_countdown(&mut a);
    a.sub(T0, V, 3);
    a.sub(T1, V, 6);
    a.mul(T0, T0, T1);
    let div_pc = a.pc();
    a.div(T1, ACC, T0);
    a.halt();
    let kernel = kernel(a.finish());
    for fast_forward in [true, false] {
        let err = engine(u64::MAX, fast_forward)
            .launch(&kernel, shape())
            .unwrap_err();
        assert_eq!(
            err,
            SimError::DivisionByZero {
                thread: 14,
                pc: div_pc
            },
            "fast_forward {fast_forward}"
        );
    }
    assert_eq!(div_pc, 13);
}

/// After the countdown, odd lanes branch to one past the last
/// instruction. Lane 7 of DMM 1 (thread 15) leaves the loop first, so
/// it is the one whose program counter escapes.
#[test]
fn a_branch_past_the_end_follows_time_order() {
    let mut a = Asm::new();
    let end = a.label();
    conflicted_countdown(&mut a);
    a.and(T0, V, 1);
    a.brnz(T0, end);
    a.halt();
    a.bind(end);
    let program = a.finish();
    let len = program.len();
    let kernel = kernel(program);
    for fast_forward in [true, false] {
        let err = engine(u64::MAX, fast_forward)
            .launch(&kernel, shape())
            .unwrap_err();
        assert_eq!(
            err,
            SimError::PcOutOfRange {
                thread: 15,
                pc: len,
                len
            },
            "fast_forward {fast_forward}"
        );
    }
    assert_eq!(len, 13);
}

/// The countdown followed by a 300-iteration, five-instruction ALU loop
/// on every lane, then `tail` and a halt.
fn long_alu_loop(tail: impl FnOnce(&mut Asm)) -> Kernel {
    let mut a = Asm::new();
    conflicted_countdown(&mut a);
    a.mov(COUNT, 300);
    let top = a.here();
    let done = a.label();
    a.brz(COUNT, done);
    a.mul(T0, ACC, 3);
    a.xor(ACC, T0, COUNT);
    a.sub(COUNT, COUNT, 1);
    a.jmp(top);
    a.bind(done);
    tail(&mut a);
    a.halt();
    kernel(a.finish())
}

/// The launch's exact report, with both clock modes, when each lane
/// loads one global word before it halts. Lane `t` of DMM `d` wakes from
/// the shared load at cycle `10 + t` and leaves the countdown at
/// `78 − 7t − 8d`; thread 0 leaves last and issues its global load 1502
/// cycles later, at cycle 1580. Its warp's one slot dispatches then and
/// completes 4 units later, so the clock skips units 1581–1583 and the
/// halt issues at 1584. Each lane executes `1511 + 8(8 − t − d)`
/// instructions.
#[test]
fn staggered_wakes_report_is_pinned() {
    let kernel = long_alu_loop(|a| a.ld_global(T0, abi::GID, 0));
    let run = |fast_forward| {
        engine(u64::MAX, fast_forward)
            .launch(&kernel, shape())
            .unwrap()
    };
    let on = run(true);
    let off = run(false);
    assert_eq!(
        (on.time, on.instructions, on.skipped_units),
        (1585, 24_688, 3)
    );
    assert_eq!(off.skipped_units, 0);
    assert_eq!(
        SimReport {
            skipped_units: 3,
            ..off
        },
        on
    );
}

/// A cycle limit inside a long ALU loop: the launch that ends at cycle
/// `time` (its halt issues at `time − 1`) succeeds with a limit of
/// `time` and fails with `time − 1`, with the clock jumping or walking.
#[test]
fn cycle_limit_inside_a_long_alu_loop() {
    let kernel = long_alu_loop(|_| {});
    for fast_forward in [true, false] {
        let time = engine(u64::MAX, fast_forward)
            .launch(&kernel, shape())
            .unwrap()
            .time;
        assert_eq!(time, 1581);
        assert!(engine(time, fast_forward).launch(&kernel, shape()).is_ok());
        for limit in [time - 1, time / 2, 40] {
            assert_eq!(
                engine(limit, fast_forward)
                    .launch(&kernel, shape())
                    .unwrap_err(),
                SimError::CycleLimit { limit },
                "limit {limit} fast_forward {fast_forward}"
            );
        }
    }
}

/// A division by zero after the long loop. Thread 15 leaves the
/// countdown first, at cycle 21, so it divides at cycle 21 + 1 + 1501 =
/// 1523: a limit of exactly that cycle stops the run first, one more
/// lets the division fail.
#[test]
fn cycle_limit_comes_before_a_later_division_by_zero() {
    let kernel = long_alu_loop(|a| a.div(T0, 1, 0));
    let div_pc = kernel.program.len() - 2;
    for fast_forward in [true, false] {
        assert_eq!(
            engine(1523, fast_forward)
                .launch(&kernel, shape())
                .unwrap_err(),
            SimError::CycleLimit { limit: 1523 }
        );
        assert_eq!(
            engine(1524, fast_forward)
                .launch(&kernel, shape())
                .unwrap_err(),
            SimError::DivisionByZero {
                thread: 15,
                pc: div_pc
            }
        );
    }
}

/// Every lane computes a flag that is 1 on lanes 1 and 5, then leaves
/// it in `T0` and passes a data-dependent branch that splits the warp
/// into lanes {0, 5, 6, 7} and {1, 2, 3, 4}; a second branch splits
/// the first part into {0} and {5, 6, 7}. All three paths are four
/// instructions long, so every lane reaches `tail` at the same cycle,
/// in three runs: run-ahead stops {5, 6, 7} there before {1, 2, 3, 4},
/// although the latter hold the lower lanes. Returns `tail`'s pc.
fn split_runs_meet(a: &mut Asm, tail: impl FnOnce(&mut Asm)) -> usize {
    let (high, zero, meet) = (a.label(), a.label(), a.label());
    a.shr(T0, 0x22, abi::LTID);
    a.and(T0, T0, 1);
    a.shr(T1, 0xE1, abi::LTID);
    a.and(T1, T1, 1);
    a.seq(ACC, abi::LTID, 0);
    a.brnz(T1, high);
    a.nop();
    a.nop();
    a.jmp(meet);
    a.bind(high);
    a.brnz(ACC, zero);
    a.nop();
    a.jmp(meet);
    a.bind(zero);
    a.nop();
    a.jmp(meet);
    a.bind(meet);
    let pc = a.pc();
    tail(a);
    a.halt();
    pc
}

/// Lanes 1 and 5 divide by zero in different runs, and the run of lane
/// 5 stops first: the error still names thread 1, the lowest erring
/// lane of the lowest DMM.
#[test]
fn division_by_zero_in_split_runs_names_the_lowest_lane() {
    let mut a = Asm::new();
    let div_pc = split_runs_meet(&mut a, |a| {
        a.sub(T1, 1, T0);
        a.div(T1, 1, T1);
    }) + 1;
    let kernel = kernel(a.finish());
    for fast_forward in [true, false] {
        assert_eq!(
            engine(u64::MAX, fast_forward)
                .launch(&kernel, shape())
                .unwrap_err(),
            SimError::DivisionByZero {
                thread: 1,
                pc: div_pc
            },
            "fast_forward {fast_forward}"
        );
    }
}

/// The same split runs meeting at a load whose address is negative on
/// lanes 1 and 5: the error names thread 1.
#[test]
fn negative_address_in_split_runs_names_the_lowest_lane() {
    let mut a = Asm::new();
    split_runs_meet(&mut a, |a| {
        a.sub(T1, 0, T0);
        a.ld_global(T1, T1, 0);
    });
    let kernel = kernel(a.finish());
    for fast_forward in [true, false] {
        assert_eq!(
            engine(u64::MAX, fast_forward)
                .launch(&kernel, shape())
                .unwrap_err(),
            SimError::OutOfBounds {
                thread: 1,
                space: hmm_machine::isa::Space::Global,
                addr: usize::MAX,
                size: 0
            },
            "fast_forward {fast_forward}"
        );
    }
}

/// Odd lanes skip one instruction at a lane-dependent branch and every
/// lane stores its accumulator to global memory. Once the store
/// completes, lane `t` runs a four-instruction `jmp` loop `t + 3` times
/// and then a straight line of 24 adds into its `halt`, so the lanes
/// halt on different cycles. Everything but the store and the `halt` is
/// local work that lanes run ahead through. Returns the kernel and the
/// `halt`'s pc.
fn loop_then_straight_line() -> (Kernel, usize) {
    let mut a = Asm::new();
    let (odd, top, done) = (a.label(), a.label(), a.label());
    a.and(T0, abi::LTID, 1);
    a.brnz(T0, odd);
    a.add(ACC, ACC, 5);
    a.bind(odd);
    a.st_global(abi::GID, 0, ACC);
    a.add(COUNT, abi::LTID, 3);
    a.bind(top);
    a.brz(COUNT, done);
    a.sub(COUNT, COUNT, 1);
    a.add(ACC, ACC, COUNT);
    a.jmp(top);
    a.bind(done);
    for i in 0..24 {
        a.add(ACC, ACC, i);
    }
    let halt = a.pc();
    a.halt();
    (kernel(a.finish()), halt)
}

/// The profile reads lane pcs after run-ahead: `Issued` per pc, the
/// store's wait (charged at the pc before each waiting lane's) and the
/// retired tail at each lane's `halt`. Lane `t` issues its `halt` at
/// cycle `45 + 4t`, one later on DMM 1 (its warp's store slot
/// dispatches one cycle later), and the launch ends at 75, so the tail
/// is `Σ(29 − 4t) + Σ(28 − 4t) = 232` lane-cycles. A cycle limit inside the
/// straight line stops the launch there, with the clock jumping or
/// walking.
#[test]
fn profiled_run_ahead_reads_every_lane_pc() {
    let (kernel, halt) = loop_then_straight_line();
    for fast_forward in [true, false] {
        let mut m = engine(u64::MAX, fast_forward);
        m.set_profiling(true);
        let report = m.launch(&kernel, shape()).unwrap();
        let profile = m.take_profiles().pop().unwrap();
        assert!(profile.is_conserved());
        assert_eq!(
            (report.time, report.instructions, report.global.requests),
            (75, 904, 16)
        );
        assert_eq!(report.skipped_units, if fast_forward { 2 } else { 0 });
        let per_pc = |cat| -> Vec<u64> { profile.per_pc.iter().map(|c| c.get(cat)).collect() };
        let mut issued = vec![16, 16, 8, 16, 16, 120, 104, 104, 104];
        issued.resize(kernel.program.len(), 16);
        assert_eq!(per_pc(StallCategory::Issued), issued);
        let mut waits = vec![0; kernel.program.len()];
        waits[3] = 64;
        assert_eq!(per_pc(StallCategory::MemGlobal), waits);
        assert_eq!(halt, 33);
        assert_eq!(profile.per_pc[halt].get(StallCategory::Retired), 232);
        assert_eq!(profile.total.get(StallCategory::Retired), 232);

        let limit = report.time - 10;
        assert_eq!(
            engine(limit, fast_forward)
                .launch(&kernel, shape())
                .unwrap_err(),
            SimError::CycleLimit { limit },
            "fast_forward {fast_forward}"
        );
    }
}
