//! The memory path allocates nothing per transaction: a launch's heap
//! allocation count is the same whether its kernel loops 50, 100 or 200
//! times. One kernel loops over global loads; another also crosses
//! shared memory and both barriers, with a barrier cost, profiling and a
//! bounded trace on, so the parked releases, the profiler's timelines
//! and the trace's dropped events are covered too. A third loops over
//! shared accesses of every schedule shape: a one-slot lane subset, a
//! strided conflicted warp and an irregular conflicted one. Nor does a
//! launch's set-up grow with its thread count: an ALU-only kernel makes
//! as many allocations on 64 threads as on 16384, profiled or not.
//!
//! A counting global allocator tallies allocations made on the test's
//! own thread while a flag is set, so the harness's other threads and
//! the engine set-up outside the launch do not count.

// A `GlobalAlloc` implementation is necessarily `unsafe`; it only
// forwards to the system allocator.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use hmm_machine::isa::Reg;
use hmm_machine::{abi, Asm, EngineConfig, Kernel, LaunchShape, Machine, Program};

struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn note_allocation() {
    if COUNTING.with(Cell::get) {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees are this allocator's. The counting touches only
// const-initialised thread-locals without destructors, which never
// allocate and are usable for the thread's whole life.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: the caller meets `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: the caller meets `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        // SAFETY: the caller meets `GlobalAlloc::realloc`'s contract, and
        // `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller meets `GlobalAlloc::dealloc`'s contract, and
        // `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Heap allocations made on this thread while `f` runs.
fn allocations_during<T>(f: impl FnOnce() -> T) -> (u64, T) {
    ALLOCATIONS.with(|n| n.set(0));
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (ALLOCATIONS.with(Cell::get), out)
}

/// Every thread loads its own global word `arg0` times and stores the
/// sum back.
fn global_load_loop() -> Program {
    let (acc, v, i, more) = (Reg(16), Reg(17), Reg(18), Reg(19));
    let mut a = Asm::new();
    a.mov(acc, 0);
    a.mov(i, 0);
    let top = a.here();
    a.ld_global(v, abi::GID, 0);
    a.add(acc, acc, v);
    a.add(i, i, 1);
    a.slt(more, i, abi::arg(0));
    a.brnz(more, top);
    a.st_global(abi::GID, 0, acc);
    a.halt();
    a.finish()
}

/// Every thread, `arg0` times: store to its shared word, DMM barrier,
/// load the word back, load its global word, machine-wide barrier.
fn observed_loop() -> Program {
    let (v, i, more) = (Reg(16), Reg(17), Reg(18));
    let mut a = Asm::new();
    a.mov(i, 0);
    let top = a.here();
    a.st_shared(abi::LTID, 0, i);
    a.bar_dmm();
    a.ld_shared(v, abi::LTID, 0);
    a.ld_global(v, abi::GID, 0);
    a.bar_global();
    a.add(i, i, 1);
    a.slt(more, i, abi::arg(0));
    a.brnz(more, top);
    a.halt();
    a.finish()
}

/// Every thread, `arg0` times: the lanes whose id has bit 1 clear store
/// to `S[LTID]` (one slot), every lane loads `S[LTID·w]` (stride `w`:
/// `w` slots) and then `S[LTID² mod 64]` (irregular, with repeated
/// addresses and banks: the general schedule).
fn shared_shapes_loop() -> Program {
    let (addr, v, i, more, sel) = (Reg(16), Reg(17), Reg(18), Reg(19), Reg(20));
    let mut a = Asm::new();
    a.mov(i, 0);
    let top = a.here();
    let skip = a.label();
    a.and(sel, abi::LTID, 2);
    a.brnz(sel, skip);
    a.st_shared(abi::LTID, 0, i);
    a.bind(skip);
    a.mul(addr, abi::LTID, abi::W);
    a.ld_shared(v, addr, 0);
    a.mul(addr, abi::LTID, abi::LTID);
    a.and(addr, addr, 63);
    a.ld_shared(v, addr, 0);
    a.add(i, i, 1);
    a.slt(more, i, abi::arg(0));
    a.brnz(more, top);
    a.halt();
    a.finish()
}

/// Every thread adds its id to a constant and halts: no memory access,
/// no barrier, so a launch allocates only its set-up.
fn alu_only() -> Program {
    let v = Reg(16);
    let mut a = Asm::new();
    a.mov(v, 1);
    a.add(v, v, abi::GID);
    a.halt();
    a.finish()
}

/// Allocations of one launch of `kernel` at each iteration count. A
/// launch of `n` iterations must make `global_requests(n)` global
/// requests per thread.
fn launch_allocations(
    cfg: &EngineConfig,
    p: usize,
    kernel: fn() -> Program,
    global_requests: fn(u64) -> u64,
    iterations: &[i64],
) -> Vec<u64> {
    iterations
        .iter()
        .map(|&n| {
            let mut engine = Machine::new(cfg.clone());
            let spec = Kernel {
                args: vec![n],
                ..Kernel::new("", kernel())
            };
            let (count, report) = allocations_during(|| engine.launch(&spec, LaunchShape::Even(p)));
            let report = report.unwrap();
            assert_eq!(report.global.requests, p as u64 * global_requests(n as u64));
            count
        })
        .collect()
}

/// The launch's fixed set-up allocations are counted (so the counter is
/// live), and their number does not depend on the iteration count.
fn assert_flat(counts: &[u64]) {
    assert!(counts[0] > 0, "the counting allocator saw nothing");
    assert!(
        counts.windows(2).all(|c| c[0] == c[1]),
        "allocations grew with iterations: {counts:?}"
    );
}

#[test]
fn hmm_global_loads_allocate_nothing_per_iteration() {
    let (d, w, p) = (4, 32, 4 * 64);
    let cfg = EngineConfig::hmm(d, w, 16, p, 64);
    let counts = launch_allocations(&cfg, p, global_load_loop, |n| n + 1, &[50, 100, 200]);
    assert_flat(&counts);
}

#[test]
fn umm_global_loads_allocate_nothing_per_iteration() {
    let p = 64;
    let cfg = EngineConfig::umm(32, 16, p);
    let counts = launch_allocations(&cfg, p, global_load_loop, |n| n + 1, &[50, 100, 200]);
    assert_flat(&counts);
}

#[test]
fn observed_barrier_loop_allocates_nothing_per_iteration() {
    let (d, w, p) = (4, 32, 4 * 64);
    let mut cfg = EngineConfig::hmm(d, w, 16, p, 64);
    cfg.barrier_cost = 3;
    cfg.profile = true;
    cfg.trace = true;
    cfg.trace_capacity = Some(64);
    let counts = launch_allocations(&cfg, p, observed_loop, |n| n, &[50, 100, 200]);
    assert_flat(&counts);
}

#[test]
fn shared_schedule_shapes_allocate_nothing_per_iteration() {
    let (d, w, p) = (4, 32, 4 * 64);
    let cfg = EngineConfig::hmm(d, w, 16, p, 64 * w);
    let counts = launch_allocations(&cfg, p, shared_shapes_loop, |_| 0, &[50, 100, 200]);
    assert_flat(&counts);
}

#[test]
fn launch_setup_allocations_do_not_grow_with_threads() {
    for profile in [false, true] {
        let counts: Vec<u64> = [64, 1024, 16384]
            .into_iter()
            .map(|p| {
                let mut cfg = EngineConfig::hmm(4, 32, 16, 16, 64);
                cfg.profile = profile;
                let mut engine = Machine::new(cfg);
                let spec = Kernel::new("", alu_only());
                let (count, report) =
                    allocations_during(|| engine.launch(&spec, LaunchShape::Even(p)));
                assert_eq!(report.unwrap().threads, p);
                count
            })
            .collect();
        assert!(counts[0] > 0, "the counting allocator saw nothing");
        assert!(
            counts.windows(2).all(|c| c[0] == c[1]),
            "set-up allocations grew with the thread count (profile {profile}): {counts:?}"
        );
    }
}
