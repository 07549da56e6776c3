//! Launches whose DMMs act unevenly from cycle to cycle, pinned by
//! digest: some DMMs halt, wait at a barrier, sit with an idle shared
//! pipeline or fail assembly while the others keep working. Each case
//! runs under every pairing of the paper's two ablations (a barrier cost
//! of 0 or 3 units, pipelined or not) and both clock modes, with trace
//! and profile on, and renders one golden-file line: the report, the
//! memories, the trace, the race log and the profile, or the error and
//! the memories it left behind.
//!
//! `HMM_BLESS=1` rewrites the golden file; use it only for a deliberate
//! change to the simulated machine.

use hmm_machine::isa::{Reg, Space};
use hmm_machine::{abi, Asm, EngineConfig, Kernel, LaunchShape, Machine, Program};

const T0: Reg = Reg(16);
const T1: Reg = Reg(17);
const T2: Reg = Reg(18);

const GLOBAL: usize = 256;
const SHARED: usize = 64;

/// A test-wide bound on every run, so an engine defect that stops
/// advancing fails with `CycleLimit` instead of spinning.
const CYCLE_LIMIT: u64 = 1 << 16;

/// DMM 0 loads, stores and halts early. On every other DMM the odd
/// lanes load from global memory and halt, while the even lanes wait at
/// `bar.dmm` — released by the last odd lane's halt — then store to
/// shared memory, meet at a second `bar.dmm` among themselves, and
/// store a neighbour's word to global memory.
fn halt_beside_dmm_barrier() -> Program {
    let mut a = Asm::new();
    let (other, even) = (a.label(), a.label());
    a.brnz(abi::DMM, other);
    a.ld_global(T1, abi::GID, 0);
    a.st_global(abi::GID, 64, T1);
    a.halt();
    a.bind(other);
    a.and(T0, abi::LTID, 1);
    a.brz(T0, even);
    a.mul(T1, abi::GID, 3);
    a.ld_global(T2, T1, 0);
    a.halt();
    a.bind(even);
    a.bar_dmm();
    a.st_shared(abi::LTID, 0, abi::GID);
    a.bar_dmm();
    a.xor(T0, abi::LTID, 2);
    a.min(T0, T0, SHARED as i64 - 1);
    a.ld_shared(T1, T0, 0);
    a.st_global(abi::GID, 128, T1);
    a.halt();
    a.finish()
}

/// Every DMM but the last arrives at `bar.global` at once; the last
/// DMM's lanes chain `DMM + LTID mod 3` dependent global loads first and
/// halt without arriving, so the machine-wide barrier releases in the
/// cycle its last lane halts.
fn halt_beside_global_barrier() -> Program {
    let mut a = Asm::new();
    let (last, chain, done) = (a.label(), a.label(), a.label());
    a.sub(T0, abi::D, 1);
    a.seq(T0, T0, abi::DMM);
    a.brnz(T0, last);
    a.bar_global();
    a.ld_global(T1, abi::GID, 0);
    a.st_global(abi::GID, 64, T1);
    a.halt();
    a.bind(last);
    a.add(T0, abi::DMM, abi::LTID);
    a.rem(T0, T0, 3);
    a.bind(chain);
    a.brz(T0, done);
    a.ld_global(T1, T0, 0);
    a.sub(T0, T0, 1);
    a.jmp(chain);
    a.bind(done);
    a.halt();
    a.finish()
}

/// Global loads and both barriers, and no shared access: a parked
/// release waits on a DMM whose shared pipeline stays idle.
fn barriers_without_shared_traffic() -> Program {
    let mut a = Asm::new();
    a.ld_global(T1, abi::GID, 0);
    a.bar_dmm();
    a.add(T1, T1, abi::LTID);
    a.st_global(abi::GID, 32, T1);
    a.bar_global();
    a.ld_global(T2, abi::GID, 32);
    a.bar_dmm();
    a.st_global(abi::GID, 96, T2);
    a.halt();
    a.finish()
}

/// Three rounds of a global load; on odd DMMs each round also makes a
/// conflicted shared store and load, so their shared pipelines go busy
/// and idle again while the even DMMs' never work.
fn shared_on_odd_dmms() -> Program {
    let mut a = Asm::new();
    let (top, skip) = (a.label(), a.label());
    a.mov(T2, 3);
    a.bind(top);
    a.ld_global(T1, abi::GID, T2);
    a.and(T0, abi::DMM, 1);
    a.brz(T0, skip);
    a.mul(T0, abi::LTID, T2);
    a.and(T0, T0, SHARED as i64 - 1);
    a.st_shared(T0, 0, T1);
    a.ld_shared(T1, T0, 0);
    a.bind(skip);
    a.st_global(abi::GID, 128, T1);
    a.sub(T2, T2, 1);
    a.brnz(T2, top);
    a.halt();
    a.finish()
}

/// Every thread makes a conflicted global store, then one store on the
/// next instruction: each DMM from `bad` on stores past the end of
/// `space`, and each other DMM stores to shared memory in bounds, in the
/// same cycle. Assembly fails on the erring DMMs while the others
/// dispatch.
fn assembly_error(bad: i64, space: Space) -> Program {
    let mut a = Asm::new();
    let (oob, join) = (a.label(), a.label());
    a.mul(T1, abi::GID, 5);
    a.and(T1, T1, GLOBAL as i64 - 1);
    a.st_global(T1, 0, abi::GID);
    a.sle(T0, bad, abi::DMM);
    a.brnz(T0, oob);
    a.st_shared(abi::LTID, 0, abi::GID);
    a.jmp(join);
    a.bind(oob);
    match space {
        Space::Shared => a.st_shared(abi::LTID, SHARED as i64, abi::GID),
        Space::Global => a.st_global(abi::GID, GLOBAL as i64, abi::GID),
    }
    a.bind(join);
    a.ld_shared(T2, abi::LTID, 0);
    a.halt();
    a.finish()
}

/// On every DMM the even lanes wait at `bar.dmm` and the odd lanes at
/// `bar.global`, after a global load: nothing can release them.
fn split_barrier_deadlock() -> Program {
    let mut a = Asm::new();
    let odd = a.label();
    a.ld_global(T1, abi::GID, 0);
    a.and(T0, abi::LTID, 1);
    a.brnz(T0, odd);
    a.bar_dmm();
    a.halt();
    a.bind(odd);
    a.bar_global();
    a.halt();
    a.finish()
}

/// FNV-1a over a value's `Debug` rendering: a digest that is stable
/// across toolchains.
fn digest(value: &impl std::fmt::Debug) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in format!("{value:?}").bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Launch `program` on a fresh machine of `cfg`, with trace and profile
/// on, global memory preset to `7·i + 1`, and render the outcome as one
/// line of fields.
fn observe(mut cfg: EngineConfig, program: &Program, launch: LaunchShape) -> String {
    cfg.trace = true;
    cfg.profile = true;
    cfg.max_cycles = CYCLE_LIMIT;
    let d = cfg.dmms;
    let mut engine = Machine::new(cfg);
    let init: Vec<_> = (0..GLOBAL as i64).map(|i| 7 * i + 1).collect();
    engine.load_global(0, &init);
    let outcome = engine.launch(&Kernel::new("", program.clone()), launch);
    let shared: Vec<_> = (0..d).map(|i| engine.shared(i).to_vec()).collect();
    let memories = format!(
        "global={} shared={}",
        digest(&engine.global()),
        digest(&shared)
    );
    match outcome {
        Ok(mut report) => {
            let races = engine.take_races();
            let shared_races = std::mem::take(&mut report.shared_races);
            let trace = engine.take_trace().expect("trace enabled");
            let profile = engine.take_profiles().pop().expect("profile enabled");
            format!(
                "time={} instructions={} barriers={} skipped={} report={} {memories} \
                 trace={} profile={} races={shared_races}:{}",
                report.time,
                report.instructions,
                report.barriers,
                report.skipped_units,
                digest(&report),
                digest(&trace.events()),
                digest(&profile),
                digest(&races),
            )
        }
        Err(e) => format!("error={e:?} {memories}"),
    }
}

/// Every case: a name, a machine, a program and its launch.
fn cases() -> Vec<(&'static str, EngineConfig, Program, LaunchShape)> {
    let hmm = |d| EngineConfig::hmm(d, 4, 9, GLOBAL, SHARED);
    vec![
        (
            "halt_beside_dmm_barrier",
            hmm(3),
            halt_beside_dmm_barrier(),
            LaunchShape::PerDmm(vec![5, 11, 7]),
        ),
        (
            "halt_beside_global_barrier",
            hmm(3),
            halt_beside_global_barrier(),
            LaunchShape::PerDmm(vec![6, 0, 9]),
        ),
        (
            "parked_release_idle_shared_pipe",
            hmm(2),
            barriers_without_shared_traffic(),
            LaunchShape::PerDmm(vec![7, 4]),
        ),
        (
            "parked_release_without_shared_memory",
            EngineConfig::umm(4, 6, GLOBAL),
            barriers_without_shared_traffic(),
            LaunchShape::Even(10),
        ),
        (
            "shared_on_odd_dmms",
            hmm(4),
            shared_on_odd_dmms(),
            LaunchShape::PerDmm(vec![3, 9, 0, 6]),
        ),
        (
            "shared_assembly_errors_from_dmm1",
            hmm(3),
            assembly_error(1, Space::Shared),
            LaunchShape::Even(18),
        ),
        (
            "shared_assembly_error_on_last_dmm",
            hmm(3),
            assembly_error(2, Space::Shared),
            LaunchShape::PerDmm(vec![4, 6, 5]),
        ),
        (
            "global_assembly_error_on_last_dmm",
            hmm(3),
            assembly_error(2, Space::Global),
            LaunchShape::PerDmm(vec![4, 6, 5]),
        ),
        (
            "split_barrier_deadlock",
            hmm(2),
            split_barrier_deadlock(),
            LaunchShape::Even(8),
        ),
    ]
}

#[test]
fn uneven_dmm_activity_matches_golden() {
    let mut lines = Vec::new();
    for (name, base, program, launch) in cases() {
        for (cost, pipelined, fast_forward) in [
            (0, true, true),
            (3, true, true),
            (0, false, true),
            (3, false, true),
            (3, true, false),
        ] {
            let mut cfg = base.clone();
            cfg.barrier_cost = cost;
            cfg.pipelined = pipelined;
            cfg.fast_forward = fast_forward;
            lines.push(format!(
                "{name} cost={cost} pipelined={pipelined} fast_forward={fast_forward} {}",
                observe(cfg, &program, launch.clone())
            ));
        }
    }
    let actual = lines.join("\n") + "\n";
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/driver_skips.txt");
    if std::env::var_os("HMM_BLESS").is_some() {
        std::fs::write(&path, &actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).expect("golden file (bless with HMM_BLESS=1)");
    for (want, got) in expected.lines().zip(actual.lines()) {
        assert_eq!(got, want);
    }
    assert_eq!(expected.lines().count(), actual.lines().count());
}
