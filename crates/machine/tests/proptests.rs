//! Randomised property tests for the machine substrate, driven by the
//! workspace's seeded generator so every run checks the same cases.

use std::collections::{BTreeMap, BTreeSet};

use hmm_machine::isa::Reg;
use hmm_machine::request::{
    slot_count, AccessKind, ConflictPolicy, Request, SlotSchedule, SlotScratch,
};
use hmm_machine::{
    abi, bank_of, group_of, Asm, EngineConfig, Kernel, LaunchShape, Machine, Program, SimReport,
    Space,
};
use hmm_util::Rng;

fn random_requests(rng: &mut Rng, max_addr: usize) -> Vec<Request> {
    let len = 1 + rng.usize_below(31);
    (0..len)
        .map(|t| Request {
            thread: t,
            addr: rng.usize_below(max_addr),
            kind: if rng.coin() {
                AccessKind::Write
            } else {
                AccessKind::Read
            },
            value: t as i64,
        })
        .collect()
}

/// `reqs` reordered slot-major by scheduling, with their schedule. Each
/// request's `thread` is its index in `reqs`.
fn scheduled(reqs: &[Request], w: usize, policy: ConflictPolicy) -> (Vec<Request>, SlotSchedule) {
    let mut sorted = reqs.to_vec();
    let s = SlotSchedule::build(&mut sorted, w, policy);
    (sorted, s)
}

/// Every request lands in exactly one slot, under every policy.
#[test]
fn schedule_partitions_requests() {
    let mut rng = Rng::new(0xA11CE);
    for _ in 0..200 {
        let reqs = random_requests(&mut rng, 256);
        let w = 1 << rng.usize_below(6);
        for policy in [ConflictPolicy::Banked, ConflictPolicy::Coalesced] {
            let (sorted, s) = scheduled(&reqs, w, policy);
            let mut seen = vec![false; reqs.len()];
            for slot in s.slots(&sorted) {
                for &Request { thread: i, .. } in slot {
                    assert!(!seen[i], "request {i} scheduled twice");
                    seen[i] = true;
                }
            }
            assert!(seen.iter().all(|&b| b), "request missing from schedule");
        }
    }
}

/// The Banked slot count equals the analytic definition: the maximum
/// over banks of the number of distinct addresses destined for it. The
/// full assignment is pinned too: the `i`-th distinct address of a bank,
/// in first-touch (request) order, is served in slot `i`, and every
/// request for that address joins it there.
#[test]
fn banked_slot_count_matches_definition() {
    let mut rng = Rng::new(0xB0B);
    for _ in 0..200 {
        let reqs = random_requests(&mut rng, 128);
        let w = 1 << rng.usize_below(5);
        let mut per_bank: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        let mut expect_slot = Vec::new();
        for r in &reqs {
            let distinct = per_bank.entry(bank_of(r.addr, w)).or_default();
            let s = distinct
                .iter()
                .position(|&a| a == r.addr)
                .unwrap_or_else(|| {
                    distinct.push(r.addr);
                    distinct.len() - 1
                });
            expect_slot.push(s);
        }
        let expect = per_bank.values().map(Vec::len).max().unwrap_or(0);
        assert_eq!(slot_count(&reqs, w, ConflictPolicy::Banked), expect);
        let (sorted, schedule) = scheduled(&reqs, w, ConflictPolicy::Banked);
        let mut got_slot = vec![usize::MAX; reqs.len()];
        for (s, slot) in schedule.slots(&sorted).enumerate() {
            for r in slot {
                got_slot[r.thread] = s;
            }
            assert!(
                slot.windows(2).all(|p| p[0].thread < p[1].thread),
                "slot not in request order"
            );
        }
        assert_eq!(got_slot, expect_slot);
    }
}

/// The Coalesced slot count equals the number of distinct groups.
#[test]
fn coalesced_slot_count_matches_definition() {
    let mut rng = Rng::new(0xC0A1);
    for _ in 0..200 {
        let reqs = random_requests(&mut rng, 128);
        let w = 1 << rng.usize_below(5);
        let groups: BTreeSet<usize> = reqs.iter().map(|r| group_of(r.addr, w)).collect();
        assert_eq!(
            slot_count(&reqs, w, ConflictPolicy::Coalesced),
            groups.len()
        );
    }
}

/// Within each Banked slot, addresses are bank-distinct; within each
/// Coalesced slot, they share one group never repeated in other slots.
#[test]
fn slots_respect_their_conflict_rule() {
    let mut rng = Rng::new(0x51075);
    for _ in 0..200 {
        let reqs = random_requests(&mut rng, 128);
        let w = 1 << (1 + rng.usize_below(4));
        let (sorted, s) = scheduled(&reqs, w, ConflictPolicy::Banked);
        for slot in s.slots(&sorted) {
            let mut banks = BTreeMap::new();
            for r in slot {
                let b = bank_of(r.addr, w);
                // Same bank twice in a slot only if the address merged.
                if let Some(prev) = banks.insert(b, r.addr) {
                    assert_eq!(prev, r.addr);
                }
            }
        }
        let (sorted, s) = scheduled(&reqs, w, ConflictPolicy::Coalesced);
        let mut seen_groups = BTreeSet::new();
        for slot in s.slots(&sorted) {
            let groups: BTreeSet<usize> = slot.iter().map(|r| group_of(r.addr, w)).collect();
            assert_eq!(groups.len(), 1, "one group per coalesced slot");
            let g = *groups.iter().next().unwrap();
            assert!(seen_groups.insert(g), "group appears in one slot only");
        }
    }
}

/// The slots of the general rule ([`SlotScratch::assign`]): slot `j`
/// lists the requests assigned to it, in request order.
fn assigned_slots(reqs: &[Request], w: usize, policy: ConflictPolicy) -> Vec<Vec<Request>> {
    let slot_of = SlotScratch::default().assign(reqs, w, policy).to_vec();
    let mut slots = vec![Vec::new(); slot_of.iter().max().map_or(0, |&s| s + 1)];
    for (r, &s) in reqs.iter().zip(&slot_of) {
        slots[s].push(*r);
    }
    slots
}

/// A random request set of `k` requests on width `w`, one of five
/// shapes: affine `base + s·i` with `s` negative, zero or beyond `w`;
/// such a warp thinned to the lanes whose id has one bit clear (bitonic
/// sort's guard); distinct banks in random rows (irregular but
/// conflict-free); a few addresses shared by many requests; and
/// arbitrary, mostly conflicted addresses.
fn shaped_requests(rng: &mut Rng, shape: usize, w: usize, k: usize) -> Vec<Request> {
    let wi = w as i64;
    let addrs: Vec<usize> = match shape {
        0 | 1 => {
            let s = match rng.usize_below(3) {
                0 => [0, 1, -1, 2, wi / 2, wi - 1, wi, wi + 1, -wi][rng.usize_below(9)],
                _ => rng.int_in(-3 * wi - 3, 3 * wi + 3),
            };
            let base = s.abs() * wi + rng.int_in(0, 4 * wi);
            let bit = rng.usize_below(8);
            (0..k as i64)
                .filter(|&t| shape == 0 || t >> bit & 1 == 0)
                .map(|t| (base + s * t) as usize)
                .collect()
        }
        2 => {
            let mut banks: Vec<usize> = (0..w).collect();
            for i in (1..w).rev() {
                banks.swap(i, rng.usize_below(i + 1));
            }
            banks[..k]
                .iter()
                .map(|&b| rng.usize_below(8) * w + b)
                .collect()
        }
        3 => {
            let pool: Vec<usize> = (0..=rng.usize_below(3))
                .map(|_| rng.usize_below(4 * w))
                .collect();
            (0..k).map(|_| pool[rng.usize_below(pool.len())]).collect()
        }
        _ => (0..k).map(|_| rng.usize_below(2 * w + 1)).collect(),
    };
    addrs
        .into_iter()
        .enumerate()
        .map(|(t, addr)| Request {
            thread: t,
            addr,
            kind: if rng.coin() {
                AccessKind::Write
            } else {
                AccessKind::Read
            },
            value: t as i64,
        })
        .collect()
}

/// However `SlotScratch::build_into` finds a schedule — the one-slot,
/// strided and monotone-group shapes or the general rule — it holds
/// exactly the general rule's slots, each with the same requests in the
/// same order, on both policies and widths 1 to 128.
#[test]
fn classified_schedule_matches_general_assignment() {
    let mut rng = Rng::new(0x5107_C1A5);
    let mut scratch = SlotScratch::default();
    let mut schedule = SlotSchedule::default();
    for case in 0..4000 {
        let w = 1 + rng.usize_below(128);
        let k = 1 + rng.usize_below(w);
        let reqs = shaped_requests(&mut rng, case % 5, w, k);
        for policy in [ConflictPolicy::Banked, ConflictPolicy::Coalesced] {
            let mut sorted = reqs.clone();
            scratch.build_into(&mut sorted, w, policy, &mut schedule);
            let got: Vec<Vec<Request>> = schedule.slots(&sorted).map(<[Request]>::to_vec).collect();
            assert_eq!(
                got,
                assigned_slots(&reqs, w, policy),
                "case {case}: w={w} {policy:?} {reqs:?}"
            );
        }
    }
}

/// Machine determinism and correctness: an affine kernel
/// `G[gid] = a·gid + b` computes exactly that for every thread, and
/// two identical launches give identical reports.
#[test]
fn engine_affine_kernel_is_deterministic() {
    let mut rng = Rng::new(0xDE7);
    for _ in 0..48 {
        let a_coef = rng.int_in(-100, 99);
        let b_coef = rng.int_in(-100, 99);
        let p = 1 + rng.usize_below(63);
        let w = 1 << rng.usize_below(4);
        let l = 1 + rng.usize_below(19);

        let t = Reg(16);
        let mut asm = Asm::new();
        asm.mul(t, abi::GID, a_coef);
        asm.add(t, t, b_coef);
        asm.st_global(abi::GID, 64, t);
        asm.halt();
        let program = asm.finish();
        let kernel = Kernel::new("", program);

        let mut e1 = Machine::umm(w, l, 64 + p);
        let r1 = e1.launch(&kernel, LaunchShape::Even(p)).unwrap();
        let mut e2 = Machine::umm(w, l, 64 + p);
        let r2 = e2.launch(&kernel, LaunchShape::Even(p)).unwrap();
        assert_eq!(r1, r2);
        assert_eq!(e1.global(), e2.global());
        for gid in 0..p {
            assert_eq!(
                e1.global()[64 + gid],
                a_coef.wrapping_mul(gid as i64).wrapping_add(b_coef)
            );
        }
    }
}

/// The control flow [`random_program`] draws from.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Shape {
    /// Straight-line code.
    Straight,
    /// Lane-dependent forward branches.
    Forward,
    /// Forward branches plus loops with backward, data-dependent trip
    /// counts entered after bank-conflicted loads.
    Looping,
}

/// The cycle limit of the random-program and affine-program launches
/// here. The longest run takes 9,010 time units (an affine program at
/// `w = 128`; the longest random program takes 4,356), so a sound
/// engine never gets near the limit, and an engine defect that re-runs
/// instructions stops with `CycleLimit` instead of spinning for minutes.
const CYCLE_LIMIT: u64 = 1 << 18;

/// Every random run must finish within `1 / MARGIN` of [`CYCLE_LIMIT`],
/// so a generator change that lengthens the runs shows up here before
/// the limit could cut a sound run short.
const MARGIN: u64 = 16;

/// Launch `kernel` on a fresh machine of `cfg` under [`CYCLE_LIMIT`]
/// and check the run's margin below it.
fn launch_limited(
    mut cfg: EngineConfig,
    kernel: &Kernel,
    launch: LaunchShape,
) -> (Machine, SimReport) {
    cfg.max_cycles = CYCLE_LIMIT;
    let mut engine = Machine::new(cfg);
    let report = engine.launch(kernel, launch).unwrap();
    assert!(
        report.time * MARGIN <= CYCLE_LIMIT,
        "a random run took {} time units, within 1/{MARGIN} of the cycle limit {CYCLE_LIMIT}",
        report.time
    );
    (engine, report)
}

/// A random SPMD program touching registers, global and shared memory
/// (addresses masked in-bounds) and both barrier scopes. Shared stores
/// from different threads may race, exercising the dynamic race log.
///
/// A `Straight` program is straight-line. In the other shapes some
/// steps become a lane-dependent forward branch (`brz` on `LTID & k`)
/// over a short block of ALU ops, loads and stores, so the lanes of a
/// warp split across program counters and reconverge after the block.
/// `Looping` also draws [`loop_block`]s. Blocks hold no barrier, every
/// forward branch jumps forward and every loop counts down to zero, so
/// termination is guaranteed and barriers cannot deadlock either way.
fn random_program(
    rng: &mut Rng,
    global_size: usize,
    shared_size: usize,
    shape: Shape,
) -> hmm_machine::Program {
    let mut asm = Asm::new();
    let reg = |i: usize| Reg(16 + (i as u8) % 8);
    let cond = Reg(24);
    // Seed the scratch registers with thread-dependent values.
    asm.mov(reg(0), abi::GID);
    asm.mul(reg(1), abi::LTID, 3);
    asm.add(reg(2), abi::DMM, 1);
    if shape != Shape::Straight {
        // Lane-dependent values everywhere, so divergent lanes disagree.
        for i in 3..8 {
            asm.mul(reg(i), abi::GID, 2 * i as i64 + 1);
        }
    }
    let len = 4 + rng.usize_below(24);
    for _ in 0..len {
        if shape != Shape::Straight && rng.usize_below(3) == 0 {
            let skip = asm.label();
            asm.and(cond, abi::LTID, 1i64 << rng.usize_below(3));
            asm.brz(cond, skip);
            for _ in 0..=rng.usize_below(3) {
                random_op(&mut asm, rng, global_size, shared_size, 8);
            }
            asm.bind(skip);
        } else if shape == Shape::Looping && rng.usize_below(3) == 0 {
            loop_block(&mut asm, rng, global_size, shared_size);
        } else {
            random_op(&mut asm, rng, global_size, shared_size, 10);
        }
    }
    asm.st_global(abi::GID, 0, reg(rng.usize_below(8)));
    asm.halt();
    asm.finish()
}

/// Append one random step of [`random_program`]: choices `0..kinds`,
/// where kinds 8 and 9 are the DMM and global barriers.
fn random_op(asm: &mut Asm, rng: &mut Rng, global_size: usize, shared_size: usize, kinds: usize) {
    let reg = |i: usize| Reg(16 + (i as u8) % 8);
    let dst = reg(rng.usize_below(8));
    let a = reg(rng.usize_below(8));
    let b = reg(rng.usize_below(8));
    match rng.usize_below(kinds) {
        0 => asm.add(dst, a, b),
        1 => asm.sub(dst, a, b),
        2 => asm.mul(dst, a, rng.int_in(-4, 4)),
        3 => asm.xor(dst, a, b),
        4 => {
            // Masked global store: addr = a & (global_size - 1).
            asm.and(dst, a, (global_size - 1) as i64);
            asm.st_global(dst, 0, b);
        }
        5 => {
            asm.and(dst, a, (global_size - 1) as i64);
            asm.ld_global(dst, dst, 0);
        }
        6 => {
            // Masked shared store — may race between threads.
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

/// Append a loop entered after a bank-conflicted shared load. Lane `t`
/// loads `S[(t·w) mod size]` — every lane in bank 0, so the lanes wake
/// on consecutive cycles — and then runs the loop body `(v & 7) +
/// (LTID & 3)` times, `v` being the loaded value: a backward branch
/// whose trip count depends on the data and the lane. The body mixes ALU
/// ops, divisions by a non-zero divisor, loads and stores, but no
/// barrier.
fn loop_block(asm: &mut Asm, rng: &mut Rng, global_size: usize, shared_size: usize) {
    let reg = |i: usize| Reg(16 + (i as u8) % 8);
    let (cond, count) = (Reg(24), Reg(25));
    let v = reg(rng.usize_below(8));
    asm.mul(count, abi::LTID, abi::W);
    asm.and(count, count, (shared_size - 1) as i64);
    asm.ld_shared(v, count, 0);
    asm.and(count, v, 7);
    asm.and(cond, abi::LTID, 3);
    asm.add(count, count, cond);
    let top = asm.here();
    let done = asm.label();
    asm.brz(count, done);
    for _ in 0..=rng.usize_below(4) {
        let (dst, a, b) = (
            reg(rng.usize_below(8)),
            reg(rng.usize_below(8)),
            reg(rng.usize_below(8)),
        );
        match rng.usize_below(4) {
            0 => {
                asm.or(cond, b, 1);
                asm.div(dst, a, cond);
            }
            1 => {
                asm.or(cond, b, 1);
                asm.rem(dst, a, cond);
            }
            _ => random_op(asm, rng, global_size, shared_size, 8),
        }
    }
    asm.sub(count, count, 1);
    asm.jmp(top);
    asm.bind(done);
}

/// The full observable machine state after one run.
#[derive(Debug, PartialEq)]
struct Observed {
    report: hmm_machine::SimReport,
    global: Vec<hmm_machine::Word>,
    shared: Vec<Vec<hmm_machine::Word>>,
    races: Vec<hmm_machine::DynamicRace>,
    trace: Vec<hmm_machine::trace::TraceEvent>,
}

/// Random ISA programs on random machine shapes are bit-identical across
/// repeated runs: no hidden state or iteration order leaks into reports,
/// memories, race logs or traces.
#[test]
fn random_programs_are_deterministic() {
    let mut rng = Rng::new(0x9A11E7);
    let (global_size, shared_size) = (256usize, 64usize);
    for case in 0..24 {
        let d = [1usize, 2, 4, 8][rng.usize_below(4)];
        let w = [2usize, 4, 8][rng.usize_below(3)];
        let l = 1 + rng.usize_below(31);
        let p = (1 + rng.usize_below(4 * w)) * d;
        let program = random_program(&mut rng, global_size, shared_size, Shape::Straight);
        let kernel = Kernel::new("", program);

        let run = || {
            let mut cfg = EngineConfig::hmm(d, w, l, global_size, shared_size);
            cfg.trace = true;
            let (mut engine, report) = launch_limited(cfg, &kernel, LaunchShape::Even(p));
            Observed {
                report,
                global: engine.global().to_vec(),
                shared: (0..d).map(|i| engine.shared(i).to_vec()).collect(),
                races: engine.take_races(),
                trace: engine
                    .take_trace()
                    .expect("trace enabled")
                    .events()
                    .to_vec(),
            }
        };

        let ctx = format!("case {case}: d={d} w={w} l={l} p={p}");
        assert_eq!(run(), run(), "{ctx}: not repeatable");
    }
}

/// Timing sanity on random parameters: contiguous stores of p cells
/// (one per thread) finish within the Lemma 1 envelope.
#[test]
fn single_round_contiguous_time_envelope() {
    let mut rng = Rng::new(0x71E);
    for _ in 0..100 {
        let p_warps = 1 + rng.usize_below(15);
        let w = 1 << (1 + rng.usize_below(4));
        let l = 1 + rng.usize_below(63);
        let p = p_warps * w;
        let mut asm = Asm::new();
        asm.st_global(abi::GID, 0, 1);
        asm.halt();
        let kernel = Kernel::new("", asm.finish());
        let mut e = Machine::umm(w, l, p);
        let r = e.launch(&kernel, LaunchShape::Even(p)).unwrap();
        // Exactly p/w slots; the batch spans p/w + l - 1 units, plus the
        // store-issue unit and the halt unit.
        assert_eq!(r.global.slots, (p / w) as u64);
        let expect = (p / w + l - 1) as u64 + 1;
        assert!(
            r.time >= expect && r.time <= expect + 1,
            "time {} vs expected {}",
            r.time,
            expect
        );
    }
}

/// FNV-1a over a value's `Debug` rendering: a stable digest for the
/// golden file (std's hasher is not guaranteed stable across releases).
fn digest(value: &impl std::fmt::Debug) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in format!("{value:?}").bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Run `cases` random programs of `shape` drawn from `seed`, each
/// launched on the threads `threads(case, &mut rng, d, w)` draws for its
/// machine and with its config adjusted by `tweak(case, &mut cfg)`, and
/// compare one line per case — report, memories, trace, race log and
/// profile digests — against the golden file at `golden` (relative to
/// the crate root). `HMM_BLESS=1` rewrites the file instead; use it only
/// for a deliberate change to the simulated machine.
fn programs_match_golden(
    seed: u64,
    shape: Shape,
    cases: usize,
    threads: impl Fn(usize, &mut Rng, usize, usize) -> LaunchShape,
    tweak: impl Fn(usize, &mut EngineConfig),
    golden: &str,
) {
    let mut rng = Rng::new(seed);
    let (global_size, shared_size) = (256usize, 64usize);
    let mut lines = Vec::new();
    for case in 0..cases {
        let d = [1usize, 2, 4][rng.usize_below(3)];
        let w = [2usize, 4, 8, 16][rng.usize_below(4)];
        let l = 1 + rng.usize_below(31);
        let launch = threads(case, &mut rng, d, w);
        let program = random_program(&mut rng, global_size, shared_size, shape);
        let kernel = Kernel::new("", program);
        let mut cfg = EngineConfig::hmm(d, w, l, global_size, shared_size);
        tweak(case, &mut cfg);
        let threads = match &launch {
            LaunchShape::Even(p) => format!("p={p}"),
            other => format!("{other:?}"),
        };
        lines.push(format!(
            "case {case} d={d} w={w} l={l} {threads} {}",
            observe_digests(cfg, &kernel, launch)
        ));
    }
    assert_golden(&lines, golden);
}

/// The launch of every digest golden but the uneven one: `p`, a multiple
/// of `d` up to `3w` threads per DMM, spread evenly.
fn even_threads(_case: usize, rng: &mut Rng, d: usize, w: usize) -> LaunchShape {
    LaunchShape::Even((1 + rng.usize_below(3 * w)) * d)
}

/// Run `kernel` launched as `launch` on a fresh machine of `cfg` with
/// trace and profile on and render its outputs as one golden-file field
/// list: time, instruction and skipped-unit counts, then digests of the
/// report, the memories, the trace, the profile and the race log.
fn observe_digests(mut cfg: EngineConfig, kernel: &Kernel, launch: LaunchShape) -> String {
    cfg.trace = true;
    cfg.profile = true;
    let d = cfg.dmms;
    let (mut engine, mut report) = launch_limited(cfg, kernel, launch);
    let races = engine.take_races();
    let shared_races = std::mem::take(&mut report.shared_races);
    let trace = engine.take_trace().expect("trace enabled");
    let profile = engine.take_profiles().pop().expect("profile enabled");
    let shared: Vec<_> = (0..d).map(|i| engine.shared(i).to_vec()).collect();
    format!(
        "time={} instructions={} skipped={} \
         report={} global={} shared={} trace={} profile={} races={shared_races}:{}",
        report.time,
        report.instructions,
        report.skipped_units,
        digest(&report),
        digest(&engine.global()),
        digest(&shared),
        digest(&trace.events()),
        digest(&profile),
        digest(&races),
    )
}

/// Compare `lines` with the golden file at `golden` (relative to the
/// crate root), or rewrite the file when `HMM_BLESS` is set.
fn assert_golden(lines: &[String], golden: &str) {
    let actual = lines.join("\n") + "\n";
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(golden);
    if std::env::var_os("HMM_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).expect("golden file (bless with HMM_BLESS=1)");
    for (want, got) in expected.lines().zip(actual.lines()) {
        assert_eq!(got, want);
    }
    assert_eq!(expected.lines().count(), actual.lines().count());
}

/// Random programs whose warps diverge (lane-dependent forward branches
/// around loads and stores) produce exactly the pinned report, memories,
/// trace, race log and profile. The golden file was generated by the
/// per-thread interpreter.
#[test]
fn divergent_programs_match_golden() {
    programs_match_golden(
        0xD1FE_46E7,
        Shape::Forward,
        16,
        even_threads,
        |_, _| {},
        "tests/golden/divergent_programs.txt",
    );
}

/// The paper's ablations pinned the same way: the non-pipelined memory
/// (every other case) and a barrier synchronisation cost of 0, 3 or 17
/// units, crossed so that every pairing occurs.
#[test]
fn ablation_programs_match_golden() {
    programs_match_golden(
        0xAB1A_7105,
        Shape::Forward,
        24,
        even_threads,
        |case, cfg| {
            cfg.pipelined = case % 2 == 0;
            cfg.barrier_cost = [0, 3, 17][case % 3];
        },
        "tests/golden/ablation_programs.txt",
    );
}

/// Random programs with loops whose trip counts depend on the lane and
/// on a value loaded through a bank-conflicted shared access, so lanes
/// enter and leave each loop out of step, produce exactly the pinned
/// outputs. Every third case pays a barrier cost of 3 units and every
/// fourth runs the non-pipelined memory.
#[test]
fn looping_programs_match_golden() {
    programs_match_golden(
        0x100B_5EED,
        Shape::Looping,
        16,
        even_threads,
        |case, cfg| {
            cfg.pipelined = case % 4 != 3;
            cfg.barrier_cost = if case % 3 == 2 { 3 } else { 0 };
        },
        "tests/golden/looping_programs.txt",
    );
}

/// Random programs on DMMs of different thread counts produce exactly
/// the pinned outputs. Each case gives every DMM its own count, from 0
/// up to `3w`, so global thread and warp numbers do not step evenly from
/// DMM to DMM; on a machine of several DMMs one DMM is empty and another
/// ends in a partial warp. Every fourth case puts all its threads on
/// DMM 0.
#[test]
fn uneven_programs_match_golden() {
    programs_match_golden(
        0x0E7E_D177,
        Shape::Looping,
        24,
        |case, rng, d, w| {
            if case % 4 == 3 {
                return LaunchShape::OnDmm0(1 + rng.usize_below(3 * w));
            }
            let mut counts: Vec<usize> = (0..d).map(|_| rng.usize_below(3 * w + 1)).collect();
            if d > 1 {
                // One DMM empty, one ending in a partial warp.
                let empty = rng.usize_below(d);
                counts[empty] = 0;
                let partial = (empty + 1 + rng.usize_below(d - 1)) % d;
                counts[partial] = rng.usize_below(3) * w + 1 + rng.usize_below(w - 1);
            } else if counts[0] == 0 {
                counts[0] = 1;
            }
            LaunchShape::PerDmm(counts)
        },
        |case, cfg| {
            cfg.pipelined = case % 5 != 4;
            cfg.barrier_cost = if case % 3 == 1 { 3 } else { 0 };
        },
        "tests/golden/uneven_programs.txt",
    );
}

/// A kernel of affine accesses `M[base + s·i]` in `space`, where `i` is
/// the thread's index in that memory (`LTID` for shared, `GID` for
/// global) and lane subsets are picked by bit `bit` of `i`, like
/// bitonic sort's `GI < PARTNER` guard. In order:
///
/// 1. every thread stores `7·gid + 1` (`s = 0`: the highest thread wins);
/// 2. every thread loads the word back;
/// 3. the threads whose bit is clear load it again (a lane subset);
/// 4. the threads whose bit is set load it while the others store to it,
///    one transaction mixing reads and writes;
/// 5. odd threads load `M[x]` while even ones store to it: a read and a
///    write of one address in one slot;
/// 6. every thread stores a mix of its loaded values to global
///    `out + gid`, so every load reaches the memory digest.
fn affine_program(space: Space, s: i64, base: i64, bit: u32, x: i64, out: i64) -> Program {
    let idx = if space == Space::Shared {
        abi::LTID
    } else {
        abi::GID
    };
    let (addr, sel, v1, v2, v3, v4, t) = (
        Reg(16),
        Reg(17),
        Reg(18),
        Reg(19),
        Reg(20),
        Reg(21),
        Reg(22),
    );
    let mut a = Asm::new();
    a.mul(addr, idx, s);
    a.add(addr, addr, base);
    a.and(sel, idx, 1i64 << bit);
    a.mul(t, abi::GID, 7);
    a.add(t, t, 1);
    a.st(space, addr, 0, t);
    a.ld(v1, space, addr, 0);
    let subset = a.label();
    a.brnz(sel, subset);
    a.ld(v2, space, addr, 0);
    a.bind(subset);
    let (store, mixed) = (a.label(), a.label());
    a.brz(sel, store);
    a.ld(v3, space, addr, 0);
    a.jmp(mixed);
    a.bind(store);
    a.add(t, v1, abi::GID);
    a.st(space, addr, 0, t);
    a.bind(mixed);
    let (writer, merged) = (a.label(), a.label());
    a.and(sel, abi::GID, 1);
    a.brz(sel, writer);
    a.ld(v4, space, x, 0);
    a.jmp(merged);
    a.bind(writer);
    a.st(space, x, 0, abi::GID);
    a.bind(merged);
    a.mul(v2, v2, 3);
    a.mul(v3, v3, 5);
    a.mul(v4, v4, 7);
    a.add(t, v1, v2);
    a.add(t, t, v3);
    a.add(t, t, v4);
    a.st_global(abi::GID, out, t);
    a.halt();
    a.finish()
}

/// Affine loads and stores at strides 0, 1, −1, 2, w/2, w−1, w and w+1,
/// over full, partial and lane-subset warps, on machines of width 4, 32,
/// 64 and 128: the HMM's banked shared and coalesced global memories and
/// the standalone DMM and UMM. Each launch produces exactly the pinned
/// report, memories, trace, race log and profile.
#[test]
fn affine_programs_match_golden() {
    let mut lines = Vec::new();
    for w in [4usize, 32, 64, 128] {
        // Two full warps and a partial one per DMM.
        let pd = 2 * w + w / 2 + 1;
        let bits = w.trailing_zeros() + 1;
        let w64 = w as i64;
        for (k, s) in [0, 1, -1, 2, w64 / 2, w64 - 1, w64, w64 + 1]
            .into_iter()
            .enumerate()
        {
            let bit = k as u32 % bits;
            for machine in ["hmm-shared", "hmm-global", "dmm", "umm"] {
                let d = if machine.starts_with("hmm") { 2 } else { 1 };
                let p = d * pd;
                // Room for `base + s·i` at any |s| <= w + 1, then `x`,
                // then the per-thread output words.
                let span = (w as i64 + 1) * p as i64;
                let base = span + 3 * (k as i64 % 2);
                let x = 2 * span + 3;
                let out = x + 1;
                let size = (out as usize) + p;
                let (cfg, space) = match machine {
                    "hmm-shared" => (EngineConfig::hmm(d, w, 5, size, size), Space::Shared),
                    "hmm-global" => (EngineConfig::hmm(d, w, 5, size, 0), Space::Global),
                    "dmm" => (EngineConfig::dmm(w, 3, size), Space::Global),
                    _ => (EngineConfig::umm(w, 3, size), Space::Global),
                };
                let program = affine_program(space, s, base, bit, x, out);
                let kernel = Kernel::new("", program);
                lines.push(format!(
                    "w={w} {machine} s={s} bit={bit} p={p} {}",
                    observe_digests(cfg, &kernel, LaunchShape::Even(p))
                ));
            }
        }
    }
    assert_golden(&lines, "tests/golden/affine_programs.txt");
}

/// A bounded trace is exactly the first `cap` events of the unbounded
/// trace, with every other event counted as dropped.
#[test]
fn bounded_trace_is_a_prefix_of_the_full_trace() {
    let mut rng = Rng::new(0x7ACE);
    let (global_size, shared_size) = (256usize, 64usize);
    for case in 0..8 {
        let d = [1usize, 2, 4][rng.usize_below(3)];
        let w = [2usize, 4, 8][rng.usize_below(3)];
        let l = 1 + rng.usize_below(15);
        let p = (1 + rng.usize_below(2 * w)) * d;
        let program = random_program(&mut rng, global_size, shared_size, Shape::Forward);
        let kernel = Kernel::new("", program);
        let run = |cap: Option<usize>| {
            let mut cfg = EngineConfig::hmm(d, w, l, global_size, shared_size);
            cfg.trace = true;
            cfg.trace_capacity = cap;
            let (mut engine, report) = launch_limited(cfg, &kernel, LaunchShape::Even(p));
            let trace = engine.take_trace().expect("trace enabled");
            (report, trace.events().to_vec(), trace.dropped_events())
        };
        let (full_report, full, _) = run(None);
        for cap in [0, 1, 7, full.len() / 2, full.len(), full.len() + 3] {
            let (report, events, dropped) = run(Some(cap));
            let kept = cap.min(full.len());
            let ctx = format!("case {case} cap {cap}");
            assert_eq!(events, full[..kept], "{ctx}");
            assert_eq!(dropped, (full.len() - kept) as u64, "{ctx}");
            assert_eq!(report.trace_dropped_events, dropped, "{ctx}");
            assert_eq!(report.time, full_report.time, "{ctx}");
        }
    }
}
