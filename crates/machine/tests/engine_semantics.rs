//! Cycle-level semantics of the engine, pinned against the cost rules in
//! Section II–III of the paper.

use hmm_machine::isa::{Reg, Space};
use hmm_machine::trace::MemoryId;
use hmm_machine::{abi, Asm, EngineConfig, Kernel, LaunchShape, Machine, SimError, TraceEvent};

const T0: Reg = Reg(16);
const T1: Reg = Reg(17);

/// Every thread stores its gid to G[gid]; conflict-free on both models.
fn store_gid_program() -> hmm_machine::Program {
    let mut a = Asm::new();
    a.st_global(abi::GID, 0, abi::GID);
    a.halt();
    a.finish()
}

#[test]
fn store_results_land_in_memory() {
    let mut eng = Machine::dmm(4, 2, 16);
    let kernel = Kernel::new("test", store_gid_program());
    let rep = eng.launch(&kernel, LaunchShape::Even(8)).unwrap();
    assert_eq!(&eng.global()[..8], &[0, 1, 2, 3, 4, 5, 6, 7]);
    assert_eq!(rep.threads, 8);
    assert_eq!(rep.global.transactions, 2); // two warps of 4
    assert_eq!(rep.global.slots, 2);
    assert_eq!(rep.global.requests, 8);
}

/// A single isolated access costs exactly `l` time units (plus the two
/// instruction units for issuing the store and halting).
#[test]
fn single_access_costs_latency() {
    for l in [1usize, 4, 32, 100] {
        let mut eng = Machine::dmm(4, l, 16);
        let mut a = Asm::new();
        a.st_global(0, 0, 7);
        a.halt();
        let kernel = Kernel::new("test", a.finish());
        let rep = eng.launch(&kernel, LaunchShape::Even(1)).unwrap();
        // Cycle 0: issue + dispatch; data completes at end of cycle l-1;
        // the thread resumes at cycle l and halts there.
        assert_eq!(rep.time, l as u64 + 1, "latency {l}");
    }
}

/// Section II: `k` accesses to distinct addresses in one bank cost
/// `k + l - 1` time units (pipelined), measured from dispatch.
#[test]
fn bank_conflicts_serialise_on_dmm() {
    let w = 4;
    let l = 5;
    let mut eng = Machine::dmm(w, l, 64);
    // Thread t stores to address t*w: all four hit bank 0.
    let mut a = Asm::new();
    a.mul(T0, abi::GID, w);
    a.st_global(T0, 0, 1);
    a.halt();
    let kernel = Kernel::new("test", a.finish());
    let rep = eng.launch(&kernel, LaunchShape::Even(w)).unwrap();
    assert_eq!(rep.global.slots, w as u64);
    assert_eq!(rep.global.max_slots_per_transaction, w as u64);
    // mul at cycle 0; store issued & first slot dispatched at cycle 1;
    // slots at cycles 1..=4; the last slot's data arrives k+l-1 = 8 units
    // after the first dispatch (end of cycle 8); halt executes at cycle 9.
    // Total: 1 (mul) + (k+l-1) (conflicted access) + 1 (halt) = 10.
    assert_eq!(rep.time, 1 + (w + l - 1) as u64 + 1);
}

/// The same stride-w pattern is also w slots on the UMM (w address
/// groups), but the *diagonal* pattern separates the models: 1 slot on the
/// DMM, w slots on the UMM.
#[test]
fn diagonal_pattern_separates_models() {
    let w = 4;
    let l = 3;
    let build = |_policy: &str| {
        let mut a = Asm::new();
        a.mul(T0, abi::GID, w + 1); // addr = t*(w+1): distinct banks, distinct groups
        a.st_global(T0, 0, 1);
        a.halt();
        a.finish()
    };
    let mut dmm = Machine::dmm(w, l, 64);
    let rep_d = dmm
        .launch(&Kernel::new("test", build("dmm")), LaunchShape::Even(w))
        .unwrap();
    let mut umm = Machine::umm(w, l, 64);
    let rep_u = umm
        .launch(&Kernel::new("test", build("umm")), LaunchShape::Even(w))
        .unwrap();
    assert_eq!(rep_d.global.slots, 1);
    assert_eq!(rep_u.global.slots, w as u64);
    assert!(rep_u.time > rep_d.time);
}

/// Same-address stores pick a deterministic "arbitrary" winner (the
/// highest thread id, since writes apply in thread order).
#[test]
fn concurrent_writes_pick_one_winner() {
    let mut eng = Machine::dmm(4, 1, 8);
    let mut a = Asm::new();
    a.st_global(3, 0, abi::GID);
    a.halt();
    let rep = eng
        .launch(&Kernel::new("test", a.finish()), LaunchShape::Even(4))
        .unwrap();
    assert_eq!(rep.global.slots, 1, "same-address writes merge");
    assert_eq!(eng.global()[3], 3);
}

/// Broadcast read: all threads read the same address in one slot and all
/// receive the value.
#[test]
fn broadcast_read_merges() {
    let mut eng = Machine::dmm(4, 2, 8);
    eng.global_mut()[5] = 99;
    let mut a = Asm::new();
    a.ld_global(T0, 5, 0);
    a.st_global(abi::GID, 8 / 2, T0); // G[gid+4] = loaded
    a.halt();
    let rep = eng
        .launch(&Kernel::new("test", a.finish()), LaunchShape::Even(4))
        .unwrap();
    assert_eq!(rep.global.transactions, 2);
    assert_eq!(rep.global.slots, 2);
    assert_eq!(&eng.global()[4..8], &[99, 99, 99, 99]);
}

/// Latency hiding (the heart of every HMM bound): with many warps, reading
/// n contiguous words takes ~n/w + l, NOT ~(n/w)·l.
#[test]
fn pipelining_hides_latency_across_warps() {
    let w = 4;
    let l = 16;
    let p = 64; // 16 warps
    let n = 64; // one row: each thread loads exactly once
    let mut eng = Machine::umm(w, l, 128);
    let mut a = Asm::new();
    a.ld_global(T0, abi::GID, 0);
    a.halt();
    let rep = eng
        .launch(&Kernel::new("test", a.finish()), LaunchShape::Even(p))
        .unwrap();
    assert_eq!(rep.global.slots, (n / w) as u64);
    // All 16 slots dispatch back-to-back; last completes ~ cycle 16+l.
    let t = rep.time;
    assert!(t <= (n / w + l + 4) as u64, "time {t} not pipelined");
    // The non-pipelined ablation must be ~slots*l instead.
    let mut cfg = EngineConfig::umm(w, l, 128);
    cfg.pipelined = false;
    let mut eng2 = Machine::new(cfg);
    let mut a = Asm::new();
    a.ld_global(T0, abi::GID, 0);
    a.halt();
    let rep2 = eng2
        .launch(&Kernel::new("test", a.finish()), LaunchShape::Even(p))
        .unwrap();
    assert!(
        rep2.time >= (n / w * l) as u64,
        "ablation time {} should serialise",
        rep2.time
    );
}

/// DMM-scope barriers order phases within a DMM; global barriers order
/// phases across DMMs.
#[test]
fn barriers_order_phases() {
    let d = 2;
    let w = 4;
    let mut eng = Machine::hmm(d, w, 4, 64, 32);
    // Each thread: S[ltid] = ltid+1; barrier(dmm); ltid 0 sums its DMM's
    // shared values and stores to G[dmm]; barrier(global); thread 0 of
    // dmm 0 adds G[0]+G[1] into G[2].
    let mut a = Asm::new();
    a.add(T0, abi::LTID, 1);
    a.st_shared(abi::LTID, 0, T0);
    a.bar_dmm();
    let skip = a.label();
    a.brnz(abi::LTID, skip);
    // ltid == 0: acc = sum of S[0..w]
    a.mov(T0, 0);
    for i in 0..w {
        a.ld_shared(T1, i, 0);
        a.add(T0, T0, T1);
    }
    a.st_global(abi::DMM, 0, T0);
    a.bind(skip);
    a.bar_global();
    let done = a.label();
    a.brnz(abi::GID, done);
    a.ld_global(T0, 0, 0);
    a.ld_global(T1, 1, 0);
    a.add(T0, T0, T1);
    a.st_global(2, 0, T0);
    a.bind(done);
    a.halt();
    let rep = eng
        .launch(&Kernel::new("test", a.finish()), LaunchShape::Even(d * w))
        .unwrap();
    // Each DMM's partial sum is 1+2+3+4 = 10; the total is 20.
    assert_eq!(eng.global()[0], 10);
    assert_eq!(eng.global()[1], 10);
    assert_eq!(eng.global()[2], 20);
    assert!(rep.barriers >= 3);
}

/// Shared memory accesses have latency 1 on the HMM, so a shared-memory
/// phase is dramatically cheaper than the same phase on global memory.
#[test]
fn shared_memory_is_low_latency() {
    let w = 4;
    let l = 64;
    let rounds = 16;
    let kernel = |space: Space| {
        let mut a = Asm::new();
        a.mov(T0, 0);
        let top = a.here();
        let end = a.label();
        a.slt(T1, T0, rounds);
        a.brz(T1, end);
        a.st(space, abi::LTID, 0, T0);
        a.add(T0, T0, 1);
        a.jmp(top);
        a.bind(end);
        a.halt();
        a.finish()
    };
    let mut eng = Machine::hmm(1, w, l, 64, 64);
    let shared_t = eng
        .launch(
            &Kernel::new("test", kernel(Space::Shared)),
            LaunchShape::Even(w),
        )
        .unwrap()
        .time;
    let global_t = eng
        .launch(
            &Kernel::new("test", kernel(Space::Global)),
            LaunchShape::Even(w),
        )
        .unwrap()
        .time;
    assert!(
        global_t > shared_t * 4,
        "global {global_t} vs shared {shared_t}"
    );
}

/// Two warps per Figure 4: W(0)'s four requests span 3 address groups and
/// occupy 3 pipeline stages; W(1)'s span 1 group and occupy 1 stage; the
/// four slots dispatch in consecutive cycles.
#[test]
fn figure4_pipeline_replay() {
    let w = 4;
    let l = 5;
    let mut cfg = EngineConfig::umm(w, l, 16);
    cfg.trace = true;
    let mut eng = Machine::new(cfg);
    // W(0) (threads 0-3) -> addrs 0,2,6,15 ; W(1) (threads 4-7) -> 8..11.
    // Table lookup via arithmetic: precompute addresses in global memory
    // would itself cost accesses, so derive them from gid with Sel chains.
    let mut a = Asm::new();
    // addr = gid < 4 ? [0,2,6,15][gid] : 4 + gid
    a.seq(T0, abi::GID, 1);
    a.sel(T1, T0, 2, 0);
    a.seq(T0, abi::GID, 2);
    a.sel(T1, T0, 6, T1);
    a.seq(T0, abi::GID, 3);
    a.sel(T1, T0, 15, T1);
    a.slt(T0, abi::GID, 4);
    a.add(Reg(18), abi::GID, 4);
    a.sel(T1, T0, T1, Reg(18));
    a.ld_global(Reg(19), T1, 0);
    a.halt();
    let rep = eng
        .launch(&Kernel::new("test", a.finish()), LaunchShape::Even(8))
        .unwrap();
    assert_eq!(rep.global.slots, 4); // 3 + 1
    let trace = eng.take_trace().unwrap();
    let dispatches: Vec<_> = trace
        .dispatches(MemoryId::Global)
        .filter_map(|e| match e {
            TraceEvent::SlotDispatched { cycle, warp, .. } => Some((*cycle, *warp)),
            _ => None,
        })
        .collect();
    assert_eq!(dispatches.len(), 4);
    // Slots dispatch in consecutive cycles: 3 for warp 0 then 1 for warp 1.
    let c0 = dispatches[0].0;
    assert_eq!(
        dispatches.iter().map(|&(c, _)| c - c0).collect::<Vec<_>>(),
        vec![0, 1, 2, 3]
    );
    assert_eq!(
        dispatches.iter().map(|&(_, w)| w).collect::<Vec<_>>(),
        vec![0, 0, 0, 1]
    );
    // Completion of the whole batch: the 4 slots dispatch at c0..c0+3 and
    // the last slot's data arrives at the end of cycle c0+3+(l-1) — the
    // batch takes (3+1) + 5 - 1 = 8 units from first dispatch, matching
    // the k + l - 1 pipeline rule illustrated by Figure 4. The threads
    // then spend one final unit on Halt.
    assert_eq!(rep.time, c0 + (4 + l as u64 - 1) + 1);
}

#[test]
fn out_of_bounds_is_reported_with_context() {
    let mut eng = Machine::dmm(4, 1, 8);
    let mut a = Asm::new();
    a.st_global(100, 0, 1);
    a.halt();
    let err = eng
        .launch(&Kernel::new("test", a.finish()), LaunchShape::Even(1))
        .unwrap_err();
    assert_eq!(
        err,
        SimError::OutOfBounds {
            thread: 0,
            space: Space::Global,
            addr: 100,
            size: 8
        }
    );
}

#[test]
fn shared_space_invalid_on_standalone_machines() {
    let mut eng = Machine::umm(4, 1, 8);
    let mut a = Asm::new();
    a.st_shared(0, 0, 1);
    a.halt();
    let err = eng
        .launch(&Kernel::new("test", a.finish()), LaunchShape::Even(1))
        .unwrap_err();
    assert_eq!(err, SimError::NoSharedMemory);
}

#[test]
fn barrier_deadlock_detected() {
    let mut eng = Machine::hmm(2, 4, 1, 16, 16);
    // DMM 0's threads wait at a global barrier; DMM 1's threads halt
    // immediately... then the barrier CAN release (halted threads are
    // excluded). To force a deadlock, make dmm 0 wait at a *global*
    // barrier while dmm 1 waits at a *dmm* barrier forever? Both would
    // release. A genuine deadlock: half of one DMM's threads halt without
    // reaching its dmm barrier is impossible since halted threads leave
    // the scope. Instead: a thread waits at a global barrier while another
    // thread of the same machine spins forever -> cycle limit, or waits on
    // a barrier *after* the other already halted mid-loop... The engine's
    // lenient rule releases barriers when all *alive* threads arrive, so a
    // true deadlock needs two groups waiting at *different* scopes.
    let mut a = Asm::new();
    let g = a.label();
    a.brnz(abi::DMM, g);
    a.bar_global();
    a.halt();
    a.bind(g);
    a.bar_dmm();
    // dmm1 threads then wait at a *second* dmm barrier; dmm0 still at the
    // global one -> dmm barriers release (scope = dmm 1 alone), then they
    // halt, then the global barrier releases. Still no deadlock! Make dmm1
    // loop on dmm barriers forever instead:
    let top = a.here();
    a.bar_dmm();
    a.jmp(top);
    let mut cfg_limited = EngineConfig::hmm(2, 4, 1, 16, 16);
    cfg_limited.max_cycles = 10_000;
    let mut eng2 = Machine::new(cfg_limited);
    let err2 = eng2
        .launch(&Kernel::new("test", a.finish()), LaunchShape::Even(8))
        .unwrap_err();
    assert_eq!(err2, SimError::CycleLimit { limit: 10_000 });
    // And an actual deadlock: a single warp where one thread halts before
    // a barrier it alone guards is impossible; instead split scopes:
    // thread of dmm0 waits globally; dmm1 has zero threads... then global
    // releases immediately. Deadlock truly requires mixed waiting states:
    let mut a = Asm::new();
    let odd = a.label();
    a.rem(T0, abi::GID, 2);
    a.brnz(T0, odd);
    a.bar_global(); // even threads: global barrier
    a.halt();
    a.bind(odd);
    a.bar_dmm(); // odd threads: dmm barrier
    a.halt();
    let err3 = eng
        .launch(&Kernel::new("test", a.finish()), LaunchShape::Even(8))
        .unwrap_err();
    assert!(matches!(err3, SimError::Deadlock { .. }), "got {err3:?}");
}

/// Multiple sequential launches compose over persistent memory.
#[test]
fn memory_persists_across_launches() {
    let mut eng = Machine::dmm(4, 1, 16);
    let kernel = Kernel::new("test", store_gid_program());
    eng.launch(&kernel, LaunchShape::Even(8)).unwrap();
    // Second kernel doubles every cell it owns.
    let mut a = Asm::new();
    a.ld_global(T0, abi::GID, 0);
    a.add(T0, T0, T0);
    a.st_global(abi::GID, 0, T0);
    a.halt();
    eng.launch(&Kernel::new("test", a.finish()), LaunchShape::Even(8))
        .unwrap();
    assert_eq!(&eng.global()[..8], &[0, 2, 4, 6, 8, 10, 12, 14]);
}

/// A degenerate machine (no DMM, width 0 or latency 0) builds, and its
/// launch is a typed `BadLaunch` under every launch shape, never a
/// panic; the cycle-limit setter keeps the memory staged before it.
#[test]
fn degenerate_machines_are_typed_errors() {
    let machines = [
        ("dmm w=0", Machine::dmm(0, 2, 16)),
        ("dmm l=0", Machine::dmm(4, 0, 16)),
        ("umm w=0", Machine::umm(0, 2, 16)),
        ("umm l=0", Machine::umm(4, 0, 16)),
        ("hmm d=0", Machine::hmm(0, 4, 2, 16, 16)),
        ("hmm w=0", Machine::hmm(2, 0, 2, 16, 16)),
        ("hmm l=0", Machine::hmm(2, 4, 0, 16, 16)),
        (
            "new d=0",
            Machine::new(EngineConfig {
                dmms: 0,
                ..EngineConfig::hmm(2, 4, 2, 16, 16)
            }),
        ),
        (
            "new w=0",
            Machine::new(EngineConfig {
                width: 0,
                ..EngineConfig::umm(4, 2, 16)
            }),
        ),
        (
            "new l=0",
            Machine::new(EngineConfig {
                global_latency: 0,
                ..EngineConfig::dmm(4, 2, 16)
            }),
        ),
    ];
    let kernel = Kernel::new("store-gid", store_gid_program());
    for (name, mut m) in machines {
        for shape in [
            LaunchShape::Even(4),
            LaunchShape::OnDmm0(4),
            LaunchShape::PerDmm(vec![4; m.dmms()]),
        ] {
            let err = m.launch(&kernel, shape.clone()).unwrap_err();
            assert!(
                matches!(err, SimError::BadLaunch(_)),
                "{name} {shape:?}: {err:?}"
            );
        }
    }

    let mut m = Machine::dmm(4, 2, 16);
    m.load_global(3, &[7, 8, 9]);
    let mut m = m.with_cycle_limit(100);
    assert_eq!(&m.global()[3..6], &[7, 8, 9]);
    m.launch(&kernel, LaunchShape::Even(2)).unwrap();
    assert_eq!(&m.global()[..6], &[0, 1, 0, 7, 8, 9]);
}

/// Launch argument words reach every thread's argument registers.
#[test]
fn launch_args_are_visible() {
    let mut eng = Machine::dmm(4, 1, 8);
    let mut a = Asm::new();
    a.st_global(abi::GID, 0, abi::arg(0));
    a.halt();
    eng.launch(
        &Kernel {
            args: vec![42],
            ..Kernel::new("test", a.finish())
        },
        LaunchShape::Even(4),
    )
    .unwrap();
    assert_eq!(&eng.global()[..4], &[42; 4]);
}

/// Partial warps (p not a multiple of w) work and are billed correctly.
#[test]
fn partial_warps_are_legal() {
    let mut eng = Machine::dmm(4, 2, 16);
    let rep = eng
        .launch(
            &Kernel::new("test", store_gid_program()),
            LaunchShape::Even(6),
        )
        .unwrap();
    assert_eq!(rep.global.transactions, 2);
    assert_eq!(&eng.global()[..6], &[0, 1, 2, 3, 4, 5]);
}

/// The barrier-cost ablation (paper ref \[20\]): charging s units per
/// barrier adds ~s per phase to a barrier-heavy kernel.
#[test]
fn barrier_cost_charges_per_release() {
    let phases = 10u64;
    let time_with_cost = |cost: u64| {
        let mut cfg = EngineConfig::hmm(2, 4, 2, 64, 32);
        cfg.barrier_cost = cost;
        let mut eng = Machine::new(cfg);
        let mut a = Asm::new();
        for _ in 0..phases {
            a.bar_global();
        }
        a.halt();
        let kernel = Kernel::new("test", a.finish());
        eng.launch(&kernel, LaunchShape::Even(8)).unwrap().time
    };
    let t0 = time_with_cost(0);
    let t5 = time_with_cost(5);
    assert_eq!(t5 - t0, phases * 5, "each of the {phases} barriers pays 5");
}

/// A time that does not fit in a `u64` ends in the cycle limit instead
/// of wrapping, in debug and release builds alike: a completion due
/// past `u64::MAX`, a non-pipelined memory busy past it, and a barrier
/// release parked past it. A single access at latency `2^63` still fits.
#[test]
fn times_past_the_clock_end_in_the_cycle_limit() {
    let program = |store: bool| {
        let mut a = Asm::new();
        a.ld_global(T0, abi::GID, 0);
        if store {
            a.st_global(abi::GID, 0, T0);
        }
        a.halt();
        a.finish()
    };
    let run = |cfg: EngineConfig, program, p| {
        Machine::new(cfg).launch(&Kernel::new("test", program), LaunchShape::Even(p))
    };
    let limit = Err(SimError::CycleLimit { limit: u64::MAX });
    for latency in [1usize << 63, usize::MAX] {
        for cfg in [
            EngineConfig::dmm(4, latency, 16),
            EngineConfig::hmm(2, 4, latency, 16, 16),
        ] {
            assert_eq!(run(cfg.clone(), program(true), 8), limit, "l {latency}");
            let one_load = run(cfg.clone(), program(false), 4);
            if latency == usize::MAX {
                assert_eq!(one_load, limit);
            } else {
                // One warp per DMM; the last slot dispatches at cycle
                // `d - 1`, and its lanes halt when it completes.
                assert_eq!(one_load.unwrap().time, (1 << 63) + cfg.dmms as u64);
            }
            let serial = EngineConfig {
                pipelined: false,
                ..cfg
            };
            assert_eq!(run(serial, program(false), 8), limit, "l {latency}");
        }
    }
    let mut a = Asm::new();
    a.bar_dmm();
    a.halt();
    let cfg = EngineConfig {
        barrier_cost: u64::MAX,
        ..EngineConfig::hmm(2, 4, 1, 16, 16)
    };
    assert_eq!(run(cfg, a.finish(), 8), limit);
}

/// Per-DMM statistics decompose the merged shared counters.
#[test]
fn per_dmm_stats_sum_to_the_merge() {
    let mut eng = Machine::hmm(4, 4, 2, 64, 32);
    let mut a = Asm::new();
    // Each thread writes twice to its own shared memory.
    a.st_shared(abi::LTID, 0, 1);
    a.st_shared(abi::LTID, 8, 2);
    a.halt();
    let rep = eng
        .launch(&Kernel::new("test", a.finish()), LaunchShape::Even(16))
        .unwrap();
    assert_eq!(rep.shared_per_dmm.len(), 4);
    let merged_txn: u64 = rep.shared_per_dmm.iter().map(|s| s.transactions).sum();
    let merged_slots: u64 = rep.shared_per_dmm.iter().map(|s| s.slots).sum();
    assert_eq!(merged_txn, rep.shared.transactions);
    assert_eq!(merged_slots, rep.shared.slots);
    for d in 0..4 {
        assert_eq!(rep.shared_per_dmm[d].transactions, 2, "dmm {d}");
        assert_eq!(rep.shared_per_dmm[d].requests, 8, "dmm {d}");
    }
}

/// The reported error is the one single-threaded, thread-by-thread
/// execution meets first: every phase-A (instruction) error of a cycle
/// before any phase-B (transaction assembly) error, then DMM order, then
/// thread-id order — whatever program counters the erring lanes sit at.
#[test]
fn first_error_follows_phase_dmm_and_thread_order() {
    // Lanes at different PCs erring in the same cycle: lanes {0, 3} take
    // one path, lanes {1, 2} the other, and both paths divide at cycle 6.
    // Lane 3 errs on the first path, lane 2 on the second; thread 2 wins.
    let (t2, t3, t4) = (Reg(18), Reg(19), Reg(20));
    let mut a = Asm::new();
    let x = a.label();
    a.sub(T0, abi::LTID, 2); // zero on lane 2
    a.sub(T1, abi::LTID, 3); // zero on lane 3
    a.seq(t2, abi::LTID, 0);
    a.seq(t3, abi::LTID, 3);
    a.or(t2, t2, t3);
    a.brnz(t2, x);
    a.div(t4, 1, T0); // pc 6: lanes {1, 2}
    a.halt();
    a.bind(x);
    a.div(t4, 1, T1); // pc 8: lanes {0, 3}
    a.halt();
    let mut eng = Machine::dmm(4, 1, 8);
    let err = eng
        .launch(&Kernel::new("test", a.finish()), LaunchShape::Even(4))
        .unwrap_err();
    assert_eq!(err, SimError::DivisionByZero { thread: 2, pc: 6 });

    // DMM 0 stores out of bounds (found when its transaction is
    // assembled, phase B) in the same cycle as DMM 1 divides by zero
    // (phase A): the phase-A error wins despite the higher DMM.
    let mut a = Asm::new();
    let one = a.label();
    a.brnz(abi::DMM, one);
    a.st_global(1000, 0, 1);
    a.halt();
    a.bind(one);
    a.div(T0, 1, 0); // pc 3
    a.halt();
    let mut eng = Machine::hmm(2, 4, 2, 16, 16);
    let err = eng
        .launch(&Kernel::new("test", a.finish()), LaunchShape::Even(8))
        .unwrap_err();
    assert_eq!(err, SimError::DivisionByZero { thread: 4, pc: 3 });

    // A negative address is an instruction error (phase A), reported at
    // `usize::MAX` with size 0: it beats DMM 0's same-cycle phase-B
    // out-of-bounds store.
    let mut a = Asm::new();
    let one = a.label();
    a.brnz(abi::DMM, one);
    a.st_global(1000, 0, 1);
    a.halt();
    a.bind(one);
    a.ld_global(T0, -5, abi::LTID);
    a.halt();
    let err = eng
        .launch(&Kernel::new("test", a.finish()), LaunchShape::Even(8))
        .unwrap_err();
    assert_eq!(
        err,
        SimError::OutOfBounds {
            thread: 4,
            space: Space::Global,
            addr: usize::MAX,
            size: 0
        }
    );

    // An assembly error skips the cycle's global slot, but every other
    // DMM still dispatches its shared slot first: DMM 0's out-of-bounds
    // global store is reported while DMM 1's same-cycle shared store has
    // landed and global memory is untouched.
    let mut a = Asm::new();
    let one = a.label();
    a.brnz(abi::DMM, one);
    a.st_global(1000, 0, 1);
    a.halt();
    a.bind(one);
    a.st_shared(abi::LTID, 0, abi::GID);
    a.halt();
    let mut eng = Machine::hmm(2, 4, 2, 16, 16);
    let err = eng
        .launch(&Kernel::new("test", a.finish()), LaunchShape::Even(8))
        .unwrap_err();
    assert!(
        matches!(err, SimError::OutOfBounds { thread: 0, .. }),
        "{err:?}"
    );
    assert_eq!(&eng.shared(1)[..4], &[4, 5, 6, 7]);
    assert!(eng.global().iter().all(|&v| v == 0));

    // The erring DMM dispatches nothing that cycle: DMM 0's warp 0 queues
    // a shared store in the cycle its warp 1 stores out of bounds, and
    // that store never lands, while DMM 1's earlier shared stores have.
    let mut a = Asm::new();
    let (one, high) = (a.label(), a.label());
    a.brnz(abi::DMM, one);
    a.slt(T0, abi::LTID, 4);
    a.brz(T0, high);
    a.st_shared(abi::LTID, 0, 1); // DMM 0, warp 0
    a.halt();
    a.bind(high);
    a.st_global(1000, 0, 1); // DMM 0, warp 1
    a.halt();
    a.bind(one);
    a.st_shared(abi::LTID, 0, abi::GID); // DMM 1
    a.halt();
    let mut eng = Machine::hmm(2, 4, 2, 16, 16);
    let err = eng
        .launch(&Kernel::new("test", a.finish()), LaunchShape::Even(16))
        .unwrap_err();
    assert!(
        matches!(
            err,
            SimError::OutOfBounds {
                thread: 4,
                space: Space::Global,
                ..
            }
        ),
        "{err:?}"
    );
    assert!(eng.shared(0).iter().all(|&v| v == 0));
    assert_eq!(&eng.shared(1)[..8], &[8, 9, 10, 11, 12, 13, 14, 15]);
}

/// The race log keeps the first [`hmm_machine::machine::MAX_LOGGED_RACES`]
/// entries in dispatch order across every DMM, while `shared_races`
/// counts them all. Each DMM's warps 1–4 in turn collide with its warp 0
/// on shared address 0, one slot per DMM per cycle, so the DMMs
/// interleave in the log long before any one DMM reaches the cap.
#[test]
fn race_log_keeps_the_first_entries_across_dmms() {
    let mut a = Asm::new();
    a.ld_shared(T0, abi::LTID, 0);
    a.st_shared(0, 0, abi::GID);
    a.st_shared(abi::LTID, 0, abi::GID);
    a.bar_dmm();
    a.st_shared(1, 0, abi::GID);
    a.halt();
    let mut eng = Machine::hmm(4, 4, 3, 64, 256);
    let rep = eng
        .launch(&Kernel::new("test", a.finish()), LaunchShape::Even(384))
        .unwrap();
    let races: Vec<_> = eng
        .take_races()
        .iter()
        .map(|r| (r.dmm, r.addr, r.warp_a, r.warp_b))
        .collect();
    assert_eq!(rep.shared_races, 736);
    // 24 warps per DMM: DMM d's warp 0 is global warp 24 d.
    let mut expected = Vec::new();
    for k in 1..=4 {
        for d in 0..4 {
            for _ in 0..4 {
                expected.push((d, 0, 24 * d, 24 * d + k));
            }
        }
    }
    assert_eq!(expected.len(), hmm_machine::machine::MAX_LOGGED_RACES);
    assert_eq!(races, expected);
}

/// A register at or past `REG_COUNT` is refused where the program is
/// built, so no launch can receive one; the last register launches.
#[test]
fn register_past_the_file_is_a_program_error() {
    use hmm_machine::isa::{Inst, Operand, ProgramError};
    let err = hmm_machine::Program::new(vec![Inst::Mov(Reg(64), Operand::Imm(1)), Inst::Halt]);
    assert_eq!(
        err,
        Err(ProgramError {
            pc: 0,
            reg: Reg(64)
        })
    );
    let mut eng = Machine::umm(32, 4, 64);
    // The last register is still in range.
    let mut a = Asm::new();
    a.mov(Reg(63), 1);
    a.st_global(abi::GID, 0, Reg(63));
    a.halt();
    let rep = eng.launch(&Kernel::new("test", a.finish()), LaunchShape::Even(32));
    assert!(rep.is_ok());
    assert!(eng.global()[..32].iter().all(|&v| v == 1));
}
