//! Extension: conflict-free offline permutation on the DMM.
//!
//! The paper's companion work (references \[13\] and \[19\]) shows that a
//! permutation known *offline* can be routed through a DMM with no bank
//! conflicts: since every bank holds exactly `⌈n/w⌉` sources and `⌈n/w⌉`
//! destinations, the bipartite multigraph "source bank → destination
//! bank" (one edge per element) has maximum degree `Δ = ⌈n/w⌉`, and by
//! Kőnig's edge-coloring theorem it decomposes into `Δ` perfect
//! matchings. Each matching is one *round* in which the `w` lanes read
//! from `w` distinct banks and write to `w` distinct banks — one pipeline
//! slot each, so the whole permutation costs `O(n/w + nl/p + l)` time,
//! matching the contiguous-access bound of Lemma 1 even though the access
//! pattern is arbitrary.
//!
//! [`schedule_permutation`] computes the edge coloring host-side (the
//! "offline" part) with the classical alternating-path algorithm;
//! [`run_permutation_scheduled`] executes the rounds on the DMM, and
//! [`run_permutation_naive`] is the baseline that just writes
//! `out[π(i)] = in[i]` and eats the bank conflicts.

use hmm_machine::isa::Reg;
use hmm_machine::kbuild::strided_loop;
use hmm_machine::{abi, Asm, Kernel, LaunchShape, Machine, Program, SimResult, Word};

use crate::{run_staged, Footprint, Run};

const LANE: Reg = Reg(16);
const RND: Reg = Reg(17);
const T0: Reg = Reg(18);
const T1: Reg = Reg(19);
const SRCV: Reg = Reg(20);
const DSTV: Reg = Reg(21);
const VAL: Reg = Reg(22);
const IDX: Reg = Reg(23);

/// A conflict-free round schedule: `rounds[r][lane]` is the
/// `(source, destination)` move executed by lane `lane` in round `r`, or
/// `None` for an idle lane. Within each round all source addresses are in
/// distinct banks and all destination addresses are in distinct banks.
#[derive(Debug, Clone)]
pub struct Schedule {
    /// The per-round move table.
    pub rounds: Vec<Vec<Option<(usize, usize)>>>,
    /// The width the schedule was built for.
    pub width: usize,
}

impl Schedule {
    /// Verify the conflict-freedom invariant (used by tests and debug
    /// assertions): per round, source banks pairwise distinct and
    /// destination banks pairwise distinct.
    #[must_use]
    pub fn is_conflict_free(&self) -> bool {
        for round in &self.rounds {
            let mut src_seen = vec![false; self.width];
            let mut dst_seen = vec![false; self.width];
            for mv in round.iter().flatten() {
                let (s, d) = (mv.0 % self.width, mv.1 % self.width);
                if src_seen[s] || dst_seen[d] {
                    return false;
                }
                src_seen[s] = true;
                dst_seen[d] = true;
            }
        }
        true
    }

    /// Total scheduled moves (must equal `n`).
    #[must_use]
    pub fn moves(&self) -> usize {
        self.rounds.iter().map(|r| r.iter().flatten().count()).sum()
    }
}

/// Colour the permutation's bank graph and build the round schedule.
///
/// Runs the classical bipartite edge-colouring algorithm: give each edge
/// a colour free at its source bank; if that colour is taken at the
/// destination bank, flip an alternating path (which, in a bipartite
/// graph, can never loop back to the source bank). Produces exactly
/// `Δ = ⌈n/w⌉` rounds for any permutation whose length is a multiple of
/// `w`, and at most `Δ + 1` otherwise.
///
/// # Panics
/// Panics if `perm` is not a permutation of `0..perm.len()`.
#[must_use]
pub fn schedule_permutation(perm: &[usize], w: usize) -> Schedule {
    let n = perm.len();
    {
        let mut seen = vec![false; n];
        for &d in perm {
            assert!(d < n && !seen[d], "not a permutation");
            seen[d] = true;
        }
    }
    // Edges: element i is an edge (i mod w) -> (perm[i] mod w).
    let max_colors = n.div_ceil(w.max(1)) + 1;
    // left_slot[u][c] / right_slot[v][c]: edge id occupying colour c.
    let mut left_slot = vec![vec![usize::MAX; max_colors]; w];
    let mut right_slot = vec![vec![usize::MAX; max_colors]; w];
    let mut color = vec![usize::MAX; n];

    for e in 0..n {
        let u = e % w;
        let v = perm[e] % w;
        // First colour free at u.
        let a = (0..max_colors)
            .find(|&c| left_slot[u][c] == usize::MAX)
            .expect("Delta+1 colours always suffice");
        if right_slot[v][a] == usize::MAX {
            left_slot[u][a] = e;
            right_slot[v][a] = e;
            color[e] = a;
            continue;
        }
        // First colour free at v.
        let b = (0..max_colors)
            .find(|&c| right_slot[v][c] == usize::MAX)
            .expect("Delta+1 colours always suffice");
        // Flip the maximal a/b-alternating path starting at v. Starting
        // edge: v's a-coloured edge. The path alternates right/left
        // vertices and a/b colours and cannot reach u (u has no a-edge
        // and edges arriving at left vertices carry colour a).
        let mut path = Vec::new();
        let mut cur = v;
        let mut on_right = true;
        let mut col = a;
        loop {
            let slot = if on_right {
                right_slot[cur][col]
            } else {
                left_slot[cur][col]
            };
            if slot == usize::MAX {
                break;
            }
            assert!(
                path.len() <= n,
                "alternating path longer than the edge count: colouring state corrupt"
            );
            path.push(slot);
            cur = if on_right {
                slot % w // move to the left endpoint (source bank)
            } else {
                perm[slot] % w // move to the right endpoint (dest bank)
            };
            on_right = !on_right;
            col = if col == a { b } else { a };
        }
        // Flip in two passes: clear every path slot first, then set the
        // new colours. A one-pass flip would let an edge overwrite the
        // slot of a not-yet-flipped neighbour sharing its endpoint.
        for &pe in &path {
            let (pu, pv) = (pe % w, perm[pe] % w);
            let old = color[pe];
            if left_slot[pu][old] == pe {
                left_slot[pu][old] = usize::MAX;
            }
            if right_slot[pv][old] == pe {
                right_slot[pv][old] = usize::MAX;
            }
        }
        for &pe in &path {
            let (pu, pv) = (pe % w, perm[pe] % w);
            let new = if color[pe] == a { b } else { a };
            color[pe] = new;
            left_slot[pu][new] = pe;
            right_slot[pv][new] = pe;
        }
        debug_assert_eq!(left_slot[u][a], usize::MAX);
        debug_assert_eq!(right_slot[v][a], usize::MAX);
        left_slot[u][a] = e;
        right_slot[v][a] = e;
        color[e] = a;
    }

    let used_colors = color.iter().copied().max().map_or(0, |c| c + 1);
    let mut rounds = vec![vec![None; w]; used_colors];
    for e in 0..n {
        let lane = e % w;
        debug_assert!(rounds[color[e]][lane].is_none());
        rounds[color[e]][lane] = Some((e, perm[e]));
    }
    let schedule = Schedule { rounds, width: w };
    debug_assert!(schedule.is_conflict_free());
    debug_assert_eq!(schedule.moves(), n);
    schedule
}

/// The permutation footprint for `n` elements, all in global memory:
/// data `[0, n)`, output `[n, 2n)`, then the move tables. The scheduled
/// kernel (`schedule = Some(s)`) keeps a source and a destination table
/// of `s.rounds.len() · s.width` words each; the naive kernel (`None`)
/// keeps the `n`-word permutation.
#[must_use]
pub fn footprint(n: usize, schedule: Option<&Schedule>) -> Footprint {
    let tables = schedule.map_or(n, |s| 2 * s.rounds.len() * s.width);
    Footprint::new(2 * n + tables, 0)
}

/// The scheduled kernel's table bases: sources at `2n`, destinations
/// after them.
fn table_bases(n: usize, rounds: usize, w: usize) -> (usize, usize) {
    (2 * n, 2 * n + rounds * w)
}

/// Build the scheduled-permutation kernel: lane `ltid mod w` of warp
/// `ltid div w` executes rounds `ltid div w, +p/w, ...` from the move
/// tables. Idle lanes are encoded as `-1` sources.
#[must_use]
pub fn perm_kernel_scheduled(n: usize, rounds: usize, w: usize, p: usize) -> Program {
    assert!(p.is_multiple_of(w), "scheduled permutation needs w | p");
    let (s_base, d_base) = table_bases(n, rounds, w);
    let warps = p / w;
    let mut a = Asm::new();
    a.rem(LANE, abi::LTID, w);
    a.div(RND, abi::LTID, w);
    let outer = a.here();
    let done = a.label();
    a.slt(T0, RND, rounds);
    a.brz(T0, done);
    a.mul(T1, RND, w);
    a.add(T1, T1, LANE);
    a.ld_global(SRCV, T1, s_base);
    a.ld_global(DSTV, T1, d_base);
    let skip = a.label();
    a.slt(T0, SRCV, 0);
    a.brnz(T0, skip);
    a.ld_global(VAL, SRCV, 0);
    a.st_global(DSTV, n, VAL);
    a.bind(skip);
    a.add(RND, RND, warps);
    a.jmp(outer);
    a.bind(done);
    a.halt();
    a.finish()
}

/// Build the naive kernel: `out[perm[i]] = data[i]` with the permutation
/// table stored at the src-table base (reads contiguous, writes wherever
/// the permutation says — bank conflicts included).
#[must_use]
pub fn perm_kernel_naive(n: usize, table: usize) -> Program {
    let mut a = Asm::new();
    strided_loop(&mut a, IDX, T0, abi::GID, n, abi::P, |a| {
        a.ld_global(T1, IDX, table);
        a.ld_global(VAL, IDX, 0);
        a.st_global(T1, n, VAL);
    });
    a.halt();
    a.finish()
}

/// Run the scheduled (conflict-free) permutation of `input` under `perm`
/// on `machine` (a DMM sized by [`footprint`]`(n, Some(&s))` for
/// `s = schedule_permutation(perm, w)`) with `p` threads (`w | p`).
///
/// # Errors
/// Propagates simulation errors; rejects `p` not divisible by `w`.
pub fn run_permutation_scheduled(
    machine: &mut Machine,
    input: &[Word],
    perm: &[usize],
    p: usize,
) -> SimResult<Run<Vec<Word>>> {
    let n = input.len();
    let w = machine.width();
    if !p.is_multiple_of(w) || p == 0 {
        return Err(hmm_machine::SimError::BadLaunch(format!(
            "scheduled permutation needs w | p (got p = {p}, w = {w})"
        )));
    }
    let schedule = schedule_permutation(perm, w);
    let rounds = schedule.rounds.len();
    let (s_base, d_base) = table_bases(n, rounds, w);
    let kernel = Kernel::new(
        "permutation-scheduled",
        perm_kernel_scheduled(n, rounds, w, p),
    );
    run_staged(
        machine,
        footprint(n, Some(&schedule)),
        &kernel,
        LaunchShape::Even(p),
        |g| {
            g[..n].copy_from_slice(input);
            for (r, round) in schedule.rounds.iter().enumerate() {
                for (lane, mv) in round.iter().enumerate() {
                    let (s, dst) = mv.map_or((-1, -1), |(s, dst)| (s as Word, dst as Word));
                    g[s_base + r * w + lane] = s;
                    g[d_base + r * w + lane] = dst;
                }
            }
        },
        |g| g[n..2 * n].to_vec(),
    )
}

/// Run the naive permutation baseline with `p` threads on a machine
/// sized by [`footprint`]`(n, None)`.
///
/// # Errors
/// Propagates simulation errors.
pub fn run_permutation_naive(
    machine: &mut Machine,
    input: &[Word],
    perm: &[usize],
    p: usize,
) -> SimResult<Run<Vec<Word>>> {
    let n = input.len();
    let table = 2 * n;
    let kernel = Kernel::new("permutation-naive", perm_kernel_naive(n, table));
    run_staged(
        machine,
        footprint(n, None),
        &kernel,
        LaunchShape::Even(p),
        |g| {
            g[..n].copy_from_slice(input);
            for (cell, &d) in g[table..].iter_mut().zip(perm) {
                *cell = d as Word;
            }
        },
        |g| g[n..2 * n].to_vec(),
    )
}

/// The row-major → column-major transpose permutation of an `m × m`
/// matrix: `π(r·m + c) = c·m + r`. With `m` a multiple of the width this
/// is the canonical bank-conflict worst case.
#[must_use]
pub fn transpose_perm(m: usize) -> Vec<usize> {
    let mut perm = vec![0; m * m];
    for r in 0..m {
        for c in 0..m {
            perm[r * m + c] = c * m + r;
        }
    }
    perm
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use hmm_workloads::random_words;

    fn random_perm(n: usize, seed: u64) -> Vec<usize> {
        // Deterministic Fisher-Yates on a simple LCG.
        let mut perm: Vec<usize> = (0..n).collect();
        let mut state = seed.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        for i in (1..n).rev() {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let j = (state >> 33) as usize % (i + 1);
            perm.swap(i, j);
        }
        perm
    }

    #[test]
    fn schedule_is_conflict_free_and_complete() {
        for &n in &[16usize, 64, 100, 257] {
            for &w in &[4usize, 8, 16] {
                let perm = random_perm(n, (n * w) as u64);
                let s = schedule_permutation(&perm, w);
                assert!(s.is_conflict_free(), "n={n} w={w}");
                assert_eq!(s.moves(), n, "n={n} w={w}");
                // Kőnig: at most Δ+1 rounds, Δ = ceil(n/w).
                assert!(
                    s.rounds.len() <= n.div_ceil(w) + 1,
                    "n={n} w={w}: {} rounds",
                    s.rounds.len()
                );
            }
        }
    }

    #[test]
    fn transpose_schedule_is_tight() {
        let w = 8;
        let m = 16; // n = 256, Delta = 32
        let perm = transpose_perm(m);
        let s = schedule_permutation(&perm, w);
        assert!(s.is_conflict_free());
        assert_eq!(s.moves(), m * m);
        assert!(s.rounds.len() <= m * m / w + 1);
    }

    #[test]
    fn scheduled_permutation_routes_correctly() {
        let n = 200;
        let input = random_words(n, 4, 100);
        let perm = random_perm(n, 9);
        let expect = reference::permute(&input, &perm).value;
        let w = 8;
        let mut m = footprint(n, Some(&schedule_permutation(&perm, w))).dmm(w, 8);
        let run = run_permutation_scheduled(&mut m, &input, &perm, 32).unwrap();
        assert_eq!(run.value, expect);
    }

    #[test]
    fn naive_permutation_routes_correctly() {
        let n = 100;
        let input = random_words(n, 5, 100);
        let perm = random_perm(n, 6);
        let expect = reference::permute(&input, &perm).value;
        let mut m = footprint(n, None).dmm(4, 4);
        let run = run_permutation_naive(&mut m, &input, &perm, 16).unwrap();
        assert_eq!(run.value, expect);
    }

    /// The point of the offline scheduling: on the transpose permutation
    /// the naive kernel suffers w-way bank conflicts while the scheduled
    /// kernel stays conflict-free and wins.
    #[test]
    fn scheduled_beats_naive_on_transpose() {
        let w = 8;
        let m = 32; // n = 1024; columns hit a single bank naively
        let n = m * m;
        let input = random_words(n, 11, 100);
        let perm = transpose_perm(m);
        let expect = reference::permute(&input, &perm).value;
        let p = 128;
        let l = 16;

        let mut dmm = footprint(n, Some(&schedule_permutation(&perm, w))).dmm(w, l);
        let sched = run_permutation_scheduled(&mut dmm, &input, &perm, p).unwrap();
        assert_eq!(sched.value, expect);

        let mut dmm2 = footprint(n, None).dmm(w, l);
        let naive = run_permutation_naive(&mut dmm2, &input, &perm, p).unwrap();
        assert_eq!(naive.value, expect);

        assert!(
            naive.report.global.max_slots_per_transaction >= w as u64,
            "naive transpose should hit {w}-way conflicts"
        );
        assert!(
            sched.report.time < naive.report.time,
            "scheduled {} vs naive {}",
            sched.report.time,
            naive.report.time
        );
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn rejects_non_permutations() {
        let _ = schedule_permutation(&[0, 0, 1], 2);
    }
}
