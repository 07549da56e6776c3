//! Golden bytes of the rendered artifacts: the length and a 64-bit
//! FNV-1a digest of the compact and pretty Perfetto export and of the
//! pretty profile document, for two launches. Any change to a renderer's
//! output — one byte reordered, one space added — fails here.

use hmm_machine::isa::Reg;
use hmm_machine::{abi, Asm, EngineConfig, Kernel, LaunchProfile, LaunchShape, Machine, Trace};
use hmm_prof::{profile_to_json, trace_to_perfetto};

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// `(length, digest)` of one rendered artifact.
fn pin(text: &str) -> (usize, u64) {
    (text.len(), fnv1a(text.as_bytes()))
}

fn observe(cfg: EngineConfig, kernel: &Kernel, p: usize) -> (LaunchProfile, Trace) {
    let mut cfg = cfg;
    cfg.profile = true;
    cfg.trace = true;
    let mut engine = Machine::new(cfg);
    engine.launch(kernel, LaunchShape::Even(p)).unwrap();
    let profile = engine.take_profiles().pop().expect("one profile");
    let trace = engine.take_trace().expect("trace enabled");
    (profile, trace)
}

/// The demo kernel of `outputs.rs`: global loads/stores, a 4-way
/// conflicting shared store and one DMM barrier.
fn demo() -> (LaunchProfile, Trace) {
    let (d, w, l) = (2usize, 4usize, 8usize);
    let mut asm = Asm::new();
    asm.ld_global(Reg(16), abi::GID, 0);
    asm.mul(Reg(17), abi::LTID, w as i64);
    asm.st_shared(Reg(17), 0, Reg(16));
    asm.bar_dmm();
    asm.ld_shared(Reg(18), abi::LTID, 0);
    asm.st_global(abi::GID, 0, Reg(18));
    asm.halt();
    let p = 2 * d * w;
    let kernel = Kernel::new("", asm.finish());
    observe(EngineConfig::hmm(d, w, l, 64, (p / d) * w), &kernel, p)
}

/// Six rounds of a `w`-way conflicting shared store, a DMM barrier, a
/// shared read-back and a machine-wide barrier on 4 DMMs of 2 warps
/// each, with the trace bounded well below the events it emits.
fn conflicted_barriers() -> (LaunchProfile, Trace) {
    let (d, w, l) = (4usize, 8usize, 16usize);
    let p = 2 * d * w;
    let (acc, addr, val, i, more) = (Reg(16), Reg(17), Reg(18), Reg(19), Reg(20));
    let mut asm = Asm::new();
    asm.ld_global(acc, abi::GID, 0);
    asm.mov(i, 0);
    let top = asm.here();
    asm.mul(addr, abi::LTID, w as i64);
    asm.add(addr, addr, i);
    asm.st_shared(addr, 0, acc);
    asm.bar_dmm();
    asm.ld_shared(val, abi::LTID, 0);
    asm.add(acc, acc, val);
    asm.bar_global();
    asm.add(i, i, 1);
    asm.slt(more, i, 6);
    asm.brnz(more, top);
    asm.st_global(abi::GID, 0, acc);
    asm.halt();
    let kernel = Kernel::new("", asm.finish());
    let mut cfg = EngineConfig::hmm(d, w, l, p, (p / d) * w + 8);
    cfg.trace_capacity = Some(300);
    let (profile, trace) = observe(cfg, &kernel, p);
    assert!(trace.dropped_events() > 0, "the trace bound must bite");
    (profile, trace)
}

/// `[perfetto compact, perfetto pretty, profile pretty]`.
fn render(profile: &LaunchProfile, trace: &Trace) -> [(usize, u64); 3] {
    [
        pin(&trace_to_perfetto(trace, Some(profile)).to_json()),
        pin(&trace_to_perfetto(trace, Some(profile)).to_json_pretty()),
        pin(&profile_to_json(profile).to_json_pretty()),
    ]
}

#[test]
fn demo_kernel_renders_pinned_bytes() {
    let (profile, trace) = demo();
    assert_eq!(
        render(&profile, &trace),
        [
            (12695, 0x5327_1311_c141_d117),
            (21569, 0x3d62_f4c5_c909_fc31),
            (5579, 0xcc76_72c7_ee9a_f90a),
        ]
    );
}

#[test]
fn conflicted_barrier_launch_renders_pinned_bytes() {
    let (profile, trace) = conflicted_barriers();
    assert_eq!(
        render(&profile, &trace),
        [
            (45982, 0xd05d_4e36_58b3_4c31),
            (78638, 0x67c1_62f1_8435_6a4f),
            (11586, 0xa139_f5e4_06aa_1a77),
        ]
    );
}
