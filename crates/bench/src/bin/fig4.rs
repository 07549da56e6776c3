//! Replay **Figure 4** of the paper: two warps accessing the global
//! memory of width `w = 4` with latency `l = 5`. Warp `W(0)`'s four
//! requests are separated into 3 address groups and occupy 3 pipeline
//! stages; `W(1)`'s requests share a single group and occupy 1 stage; the
//! whole batch completes `(3 + 1) + l − 1` time units after the first
//! dispatch.
//!
//! Run with `cargo run --release -p hmm-bench --bin fig4`.

use hmm_machine::isa::Reg;
use hmm_machine::trace::MemoryId;
use hmm_machine::{abi, Asm, EngineConfig, Kernel, LaunchShape, Machine, TraceEvent};

fn main() {
    let (w, l) = (4usize, 5usize);
    let mut cfg = EngineConfig::umm(w, l, 16);
    cfg.trace = true;
    let mut m = Machine::new(cfg);

    // Addresses per the figure: W(0) -> {0, 2, 6, 15}, W(1) -> {8..11}.
    let (t0, t1, t2) = (Reg(16), Reg(17), Reg(18));
    let mut a = Asm::new();
    a.seq(t0, abi::GID, 1);
    a.sel(t1, t0, 2, 0);
    a.seq(t0, abi::GID, 2);
    a.sel(t1, t0, 6, t1);
    a.seq(t0, abi::GID, 3);
    a.sel(t1, t0, 15, t1);
    a.slt(t0, abi::GID, 4);
    a.add(t2, abi::GID, 4);
    a.sel(t1, t0, t1, t2);
    a.ld_global(Reg(19), t1, 0);
    a.halt();
    let kernel = Kernel::new("figure4", a.finish());

    let report = m.launch(&kernel, LaunchShape::Even(8)).expect("launch");
    let trace = m.take_trace().expect("trace enabled");

    println!("== Figure 4: pipelined global memory access (w = {w}, l = {l}) ==\n");
    println!("cycle  warp  slot  addresses           -> completes (cycle + l - 1)");
    let mut first = None;
    for e in trace.dispatches(MemoryId::Global) {
        if let TraceEvent::SlotDispatched {
            cycle,
            warp,
            slot_index,
            total_slots,
            addrs,
            ..
        } = e
        {
            first.get_or_insert(*cycle);
            println!(
                "{cycle:>5}  W({warp})  {}/{}   {:<18} -> {}",
                slot_index + 1,
                total_slots,
                format!("{addrs:?}"),
                cycle + l as u64 - 1
            );
        }
    }
    let first = first.expect("dispatches recorded");
    println!("\nglobal-memory slots used : {}", report.global.slots);
    println!(
        "batch span               : {} time units (= slots + l - 1 = {} + {} - 1)",
        report.global.slots + l as u64 - 1,
        report.global.slots,
        l
    );
    println!(
        "total kernel time        : {} (address computation {} + batch {} + halt 1)",
        report.time,
        first,
        report.global.slots + l as u64 - 1
    );
    assert_eq!(report.global.slots, 4, "3 stages for W(0), 1 for W(1)");
    assert_eq!(
        report.time,
        first + report.global.slots + l as u64 - 1 + 1,
        "pipeline timing matches the figure"
    );
    println!("\nreproduction check: PASS");
}
