//! Profiler conservation invariants on random programs.
//!
//! The cycle-accounting profiler must put **every** thread-cycle of a
//! launch into exactly one category: the launch total, the per-warp,
//! per-DMM and per-pc tables each sum to `threads × time`, per warp to
//! `warp_threads × time`.

use hmm_machine::isa::Reg;
use hmm_machine::{
    abi, Asm, CategoryCounts, EngineConfig, Kernel, LaunchShape, Machine, StallCategory,
};
use hmm_util::Rng;

/// A random straight-line SPMD program touching registers, global and
/// shared memory (addresses masked in-bounds) and both barrier scopes —
/// the same shape as the engine's determinism proptests.
fn random_program(rng: &mut Rng, global_size: usize, shared_size: usize) -> hmm_machine::Program {
    let mut asm = Asm::new();
    let reg = |i: usize| Reg(16 + (i as u8) % 8);
    asm.mov(reg(0), abi::GID);
    asm.mul(reg(1), abi::LTID, 3);
    asm.add(reg(2), abi::DMM, 1);
    let len = 4 + rng.usize_below(24);
    for _ in 0..len {
        let dst = reg(rng.usize_below(8));
        let a = reg(rng.usize_below(8));
        let b = reg(rng.usize_below(8));
        match rng.usize_below(10) {
            0 => asm.add(dst, a, b),
            1 => asm.sub(dst, a, b),
            2 => asm.mul(dst, a, rng.int_in(-4, 4)),
            3 => asm.xor(dst, a, b),
            4 => {
                asm.and(dst, a, (global_size - 1) as i64);
                asm.st_global(dst, 0, b);
            }
            5 => {
                asm.and(dst, a, (global_size - 1) as i64);
                asm.ld_global(dst, dst, 0);
            }
            6 => {
                asm.and(dst, a, (shared_size - 1) as i64);
                asm.st_shared(dst, 0, b);
            }
            7 => {
                asm.and(dst, a, (shared_size - 1) as i64);
                asm.ld_shared(dst, dst, 0);
            }
            8 => asm.bar_dmm(),
            _ => asm.bar_global(),
        }
    }
    asm.st_global(abi::GID, 0, reg(rng.usize_below(8)));
    asm.halt();
    asm.finish()
}

/// The cycle limit of the random-program launches. The longest takes 363
/// time units, so a sound engine never gets near the limit, and an
/// engine defect that re-runs instructions stops with `CycleLimit`
/// instead of spinning for minutes.
const CYCLE_LIMIT: u64 = 1 << 13;

/// Every run must finish within `1 / MARGIN` of [`CYCLE_LIMIT`], so a
/// generator change that lengthens the runs shows up here before the
/// limit could cut a sound run short.
const MARGIN: u64 = 16;

fn profiled_run(
    cfg: &EngineConfig,
    kernel: &Kernel,
    p: usize,
) -> (hmm_machine::SimReport, hmm_machine::LaunchProfile) {
    let mut cfg = cfg.clone();
    cfg.profile = true;
    cfg.max_cycles = CYCLE_LIMIT;
    let mut engine = Machine::new(cfg);
    let report = engine.launch(kernel, LaunchShape::Even(p)).unwrap();
    assert!(
        report.time * MARGIN <= CYCLE_LIMIT,
        "a random run took {} time units, within 1/{MARGIN} of the cycle limit {CYCLE_LIMIT}",
        report.time
    );
    let mut profiles = engine.take_profiles();
    assert_eq!(profiles.len(), 1, "one profile per launch");
    (report, profiles.pop().unwrap())
}

/// Category counts conserve `threads × time` at every attribution
/// granularity.
#[test]
fn random_programs_conserve_thread_cycles() {
    let mut rng = Rng::new(0x9F0F11E);
    let (global_size, shared_size) = (256usize, 64usize);
    for case in 0..24 {
        let d = [1usize, 2, 4, 8][rng.usize_below(4)];
        let w = [2usize, 4, 8][rng.usize_below(3)];
        let l = 1 + rng.usize_below(31);
        let p = (1 + rng.usize_below(4 * w)) * d;
        let program = random_program(&mut rng, global_size, shared_size);
        let kernel = Kernel::new("", program);
        let cfg = EngineConfig::hmm(d, w, l, global_size, shared_size);
        let ctx = format!("case {case}: d={d} w={w} l={l} p={p}");

        let (report, profile) = profiled_run(&cfg, &kernel, p);
        let want = p as u64 * report.time;
        assert_eq!(profile.time, report.time, "{ctx}");
        assert_eq!(profile.threads, p, "{ctx}");
        assert_eq!(profile.thread_cycles(), want, "{ctx}");
        assert!(profile.is_conserved(), "{ctx}: profile not conserved");
        assert_eq!(profile.total.total(), want, "{ctx}: total");
        let sum = |v: &[CategoryCounts]| v.iter().map(CategoryCounts::total).sum::<u64>();
        assert_eq!(sum(&profile.per_dmm), want, "{ctx}: per-DMM");
        assert_eq!(sum(&profile.per_pc), want, "{ctx}: per-pc");
        // Per warp: exactly warp_threads × time each. Threads spread
        // evenly, so warp sizes follow from the per-DMM counts.
        let mut warp = 0;
        for pd in (0..d).map(|j| p / d + usize::from(j < p % d)) {
            let mut left = pd;
            while left > 0 {
                let wt = left.min(w);
                assert_eq!(
                    profile.per_warp[warp].total(),
                    wt as u64 * report.time,
                    "{ctx}: warp {warp}"
                );
                warp += 1;
                left -= wt;
            }
        }
        assert_eq!(warp, profile.per_warp.len(), "{ctx}: warp count");

        // Issued cycles equal executed instructions; the issue column of
        // the hotspot table agrees.
        assert_eq!(
            profile.total.get(StallCategory::Issued),
            report.instructions,
            "{ctx}: issued =/= instructions"
        );
        // Timeline slot totals equal the report's pipeline slot counts.
        assert_eq!(profile.global_pipe.slots, report.global.slots, "{ctx}");
        assert_eq!(
            profile.shared_pipes.iter().map(|sp| sp.slots).sum::<u64>(),
            report.shared.slots,
            "{ctx}"
        );
        assert_eq!(
            profile.global_pipe.buckets.iter().sum::<u64>(),
            report.global.slots,
            "{ctx}: bucketed timeline loses slots"
        );
    }
}

/// A hand-checkable case: one warp of `w` threads each storing to the
/// same shared bank serialises into `w` slots; every category lands
/// where the timing semantics say it must.
#[test]
fn bank_conflict_attribution_is_exact() {
    let (w, l, d) = (4usize, 8usize, 1usize);
    let mut asm = Asm::new();
    // Each thread stores to address ltid * w: all in bank 0 → w slots.
    asm.mul(Reg(16), abi::LTID, w as i64);
    asm.st_shared(Reg(16), 0, abi::GID);
    asm.halt();
    let kernel = Kernel::new("", asm.finish());
    let mut cfg = EngineConfig::hmm(d, w, l, 64, w * w);
    cfg.profile = true;
    let mut engine = Machine::new(cfg);
    let report = engine.launch(&kernel, LaunchShape::Even(w)).unwrap();
    let profile = engine.take_profiles().pop().unwrap();

    assert!(profile.is_conserved());
    // 3 instructions per thread.
    assert_eq!(profile.total.get(StallCategory::Issued), 3 * w as u64);
    // Slot j dispatches j cycles after slot 0: thread j's extra wait is
    // pure conflict serialisation, so conflicts total 0+1+2+3 = 6.
    assert_eq!(profile.total.get(StallCategory::ConflictShared), 6);
    assert_eq!(profile.total.get(StallCategory::MemGlobal), 0);
    assert_eq!(profile.total.get(StallCategory::Barrier), 0);
    // Shared latency is 1: the non-conflict share of each wait is the
    // dispatch wait (store issued at t, slot 0 dispatches at t) plus
    // latency-1 completion alignment — every thread resumes the cycle
    // after its own slot completes, so mem_shared is w threads × 0.
    assert_eq!(report.shared.slots, w as u64);
    assert_eq!(
        profile.total.total(),
        w as u64 * report.time,
        "conservation"
    );
}
