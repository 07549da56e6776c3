//! Warp memory transactions and conflict analysis (paper Section II).
//!
//! When a warp of `w` threads is dispatched for memory access, each thread
//! contributes at most one request. How those requests serialise is the
//! *only* difference between the DMM and the UMM:
//!
//! * **DMM (Banked policy)** — requests to *distinct addresses in the same
//!   bank* are processed in turn; the transaction occupies as many pipeline
//!   slots as the most-conflicted bank has distinct addresses. Requests to
//!   the *same* address merge for free (broadcast read / arbitrary-winner
//!   write).
//! * **UMM (Coalesced policy)** — the memory serves one *address group* of
//!   `w` consecutive addresses per slot; the transaction occupies one slot
//!   per distinct address group touched.
//!
//! [`SlotSchedule`] computes the exact slot-by-slot breakdown, which the
//! engine feeds through the pipelined MMU and the trace module replays to
//! reproduce the paper's Figure 4.
//!
//! Scheduling reorders a transaction's requests in place, stably, so
//! that every slot is a contiguous range of requests in their original
//! (lane) order; a schedule is then just the end of each range. A linear
//! pass over the requests recognises the common shapes and writes their
//! ranges directly: a conflict-free set is one slot, a strided set on a
//! banked memory is slots of `w / gcd(|s|, w)` requests, and a set whose
//! address groups are monotone on a coalesced memory is one slot per run
//! of equal groups. Only other sets take the general assignment and a
//! reorder. [`SlotScratch`] holds the working memory, so the engine's
//! per-warp assembly hot path performs no heap allocation in steady
//! state.

use std::ops::Range;

use crate::bank::{bank_of, group_of};
use crate::word::Word;

/// Read or write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// A load; completion delivers the value to the issuing thread.
    Read,
    /// A store; the value is applied when the slot is dispatched.
    Write,
}

/// How a memory serialises intra-warp conflicts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConflictPolicy {
    /// DMM-style: one address per bank per slot (distinct addresses in the
    /// same bank serialise; same-address requests merge).
    Banked,
    /// UMM-style: one address group per slot.
    Coalesced,
}

/// One thread's memory request within a warp transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Global id of the issuing thread.
    pub thread: usize,
    /// Target address within the memory.
    pub addr: usize,
    /// Read or write.
    pub kind: AccessKind,
    /// The value to store; for a read, the engine keeps the loaded value
    /// here from dispatch to delivery.
    pub value: Word,
}

/// A transaction broken into pipeline slots.
///
/// Built over a request vector that [`SlotScratch::build_into`] has put
/// in slot-major order: slot `i` is the contiguous range
/// [`range(i)`](SlotSchedule::range) of that vector, its requests in
/// their original order. Every request lies in exactly one slot.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SlotSchedule {
    /// Exclusive end of each slot's request range.
    ends: Vec<usize>,
}

impl SlotSchedule {
    /// Schedule `requests` under `policy` on a memory of `width` banks,
    /// reordering them slot-major (see [`SlotScratch::build_into`]).
    ///
    /// Returns an empty schedule for an empty request set. Convenience
    /// wrapper that allocates fresh scratch; hot paths should hold a
    /// [`SlotScratch`] instead.
    #[must_use]
    pub fn build(requests: &mut [Request], width: usize, policy: ConflictPolicy) -> Self {
        let mut out = SlotSchedule::default();
        SlotScratch::default().build_into(requests, width, policy, &mut out);
        out
    }

    /// Number of pipeline slots the transaction occupies.
    #[must_use]
    pub fn num_slots(&self) -> usize {
        self.ends.len()
    }

    /// The range of the scheduled request vector served in slot `i`.
    #[must_use]
    pub fn range(&self, i: usize) -> Range<usize> {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        start..self.ends[i]
    }

    /// The slots of `requests`, the vector this schedule was built over.
    pub fn slots<'a>(&'a self, requests: &'a [Request]) -> impl Iterator<Item = &'a [Request]> {
        (0..self.num_slots()).map(|i| &requests[self.range(i)])
    }
}

/// Reusable working memory for building [`SlotSchedule`]s.
///
/// The engine assembles one schedule per warp transaction; routing every
/// build through the launch's one scratch keeps the hot loop free of
/// heap allocation once the buffers have grown to the warp width.
#[derive(Debug, Default)]
pub struct SlotScratch {
    /// Banked: one bit per bank touched so far (the one-slot check).
    banks: Vec<u64>,
    /// Per-request slot assignment of the general rule.
    slot_of: Vec<usize>,
    /// Per-slot next write position of the reorder.
    cursor: Vec<usize>,
    /// The requests in their original order, during the reorder.
    moved: Vec<Request>,
    /// Coalesced: distinct address groups in first-touch order; the
    /// `i`-th is served in slot `i`. A warp contributes at most `w`
    /// requests, so a linear scan over this list beats map allocation.
    groups: Vec<usize>,
    /// Banked: per bank, the newest entry of its chain of distinct
    /// addresses in `distinct` ([`NO_ENTRY`] for an untouched bank).
    bank_head: Vec<usize>,
    /// Banked: `(addr, slot, next entry of the same bank)`.
    distinct: Vec<(usize, usize, usize)>,
    /// Banked: banks with a chain, reset after each build.
    touched: Vec<usize>,
}

/// End of a bank's chain in [`SlotScratch`].
const NO_ENTRY: usize = usize::MAX;

impl SlotScratch {
    /// Schedule `requests` into `out`, reusing both `out`'s buffer and
    /// this scratch, and reorder `requests` stably so that each slot is a
    /// contiguous range. The slots are exactly those of the general rule
    /// ([`SlotScratch::assign`]): slot `i` holds the requests assigned to
    /// it, in their original order.
    ///
    /// A linear pass classifies the requests. On a banked memory,
    /// requests in distinct banks are one slot, and requests at `a + s·i`
    /// (`s ≠ 0`) fill slots of `w / gcd(|s|, w)` consecutive requests; on
    /// a coalesced memory, requests whose address groups never return to
    /// an earlier group take one slot per run of equal groups. The order
    /// is then already slot-major. Any other set is assigned by the
    /// general rule and reordered (DESIGN.md, "Warp-vector memory path").
    pub fn build_into(
        &mut self,
        requests: &mut [Request],
        width: usize,
        policy: ConflictPolicy,
        out: &mut SlotSchedule,
    ) {
        out.ends.clear();
        let classified = match policy {
            ConflictPolicy::Banked => self.banked_ranges(requests, width, out),
            ConflictPolicy::Coalesced => coalesced_runs(requests, width, out),
        };
        if !classified {
            out.ends.clear();
            self.reorder(requests, width, policy, out);
        }
    }

    /// The banked shapes: a constant stride `s`, whose request `i` is
    /// served in slot `i / m`, `m = w / gcd(|s|, w)` (`s = 0` is one
    /// address, so one slot), or distinct banks (one slot). Writes the
    /// slot ends and returns whether the requests had either shape.
    fn banked_ranges(
        &mut self,
        requests: &[Request],
        width: usize,
        out: &mut SlotSchedule,
    ) -> bool {
        let k = requests.len();
        if k == 0 {
            return true;
        }
        let m = match stride(requests) {
            Some(0) => k,
            Some(s) => width / gcd(s.unsigned_abs(), width),
            None if self.distinct_banks(requests, width) => k,
            None => return false,
        };
        out.ends.extend((1..=k.div_ceil(m)).map(|j| (j * m).min(k)));
        true
    }

    /// Whether no two of `requests` share a bank.
    fn distinct_banks(&mut self, requests: &[Request], width: usize) -> bool {
        let map = Interleave::new(width);
        self.banks.clear();
        self.banks.resize(width.div_ceil(64), 0);
        requests.iter().all(|r| {
            let b = map.bank(r.addr);
            let (word, bit) = (b / 64, 1u64 << (b % 64));
            let fresh = self.banks[word] & bit == 0;
            self.banks[word] |= bit;
            fresh
        })
    }

    /// The general rule: the slot of each request, in request order.
    ///
    /// Banked (DMM): within each bank, distinct addresses serialise; the
    /// `i`-th distinct address of every bank, in first-touch order, is
    /// served in slot `i`, and requests for an address already scheduled
    /// join its slot (broadcast read / arbitrary-winner write).
    /// Coalesced (UMM): one distinct address group per slot, in
    /// first-touch order. [`SlotScratch::build_into`] gives exactly these
    /// slots, whichever way it finds them.
    pub fn assign(
        &mut self,
        requests: &[Request],
        width: usize,
        policy: ConflictPolicy,
    ) -> &[usize] {
        self.slot_of.clear();
        match policy {
            // Each request only walks its own bank's distinct addresses,
            // so a conflict-free warp assigns in O(w).
            ConflictPolicy::Banked => {
                if self.bank_head.len() < width {
                    self.bank_head.resize(width, NO_ENTRY);
                }
                for r in requests {
                    let bank = bank_of(r.addr, width);
                    let mut e = self.bank_head[bank];
                    let mut distinct_in_bank = 0;
                    let mut slot = None;
                    while e != NO_ENTRY {
                        let (a, s, next) = self.distinct[e];
                        if a == r.addr {
                            slot = Some(s);
                            break;
                        }
                        distinct_in_bank += 1;
                        e = next;
                    }
                    let s = slot.unwrap_or_else(|| {
                        let head = self.bank_head[bank];
                        if head == NO_ENTRY {
                            self.touched.push(bank);
                        }
                        self.bank_head[bank] = self.distinct.len();
                        self.distinct.push((r.addr, distinct_in_bank, head));
                        distinct_in_bank
                    });
                    self.slot_of.push(s);
                }
                for &b in &self.touched {
                    self.bank_head[b] = NO_ENTRY;
                }
                self.touched.clear();
                self.distinct.clear();
            }
            ConflictPolicy::Coalesced => {
                self.groups.clear();
                for r in requests {
                    let g = group_of(r.addr, width);
                    let s = self
                        .groups
                        .iter()
                        .position(|&key| key == g)
                        .unwrap_or_else(|| {
                            self.groups.push(g);
                            self.groups.len() - 1
                        });
                    self.slot_of.push(s);
                }
            }
        }
        &self.slot_of
    }

    /// Assign `requests` by the general rule, then move them stably into
    /// slot-major order and write the slot ends.
    fn reorder(
        &mut self,
        requests: &mut [Request],
        width: usize,
        policy: ConflictPolicy,
        out: &mut SlotSchedule,
    ) {
        self.assign(requests, width, policy);
        let num_slots = self.slot_of.iter().max().map_or(0, |&s| s + 1);
        self.cursor.clear();
        self.cursor.resize(num_slots, 0);
        for &s in &self.slot_of {
            self.cursor[s] += 1;
        }
        // Turn the counts into each slot's start, and its end into `out`.
        let mut running = 0;
        for c in &mut self.cursor {
            let start = running;
            running += *c;
            out.ends.push(running);
            *c = start;
        }
        self.moved.clear();
        self.moved.extend_from_slice(requests);
        for (r, &s) in self.moved.iter().zip(&self.slot_of) {
            requests[self.cursor[s]] = *r;
            self.cursor[s] += 1;
        }
    }
}

/// The coalesced shape: the requests' address groups change
/// monotonically (never returning to an earlier group), so each run of
/// equal groups is one distinct group, and the runs are the slots in
/// first-touch order. Writes the slot ends and returns whether the
/// requests had that shape.
fn coalesced_runs(requests: &[Request], width: usize, out: &mut SlotSchedule) -> bool {
    let Some(first) = requests.first() else {
        return true;
    };
    let map = Interleave::new(width);
    let mut prev = map.group(first.addr);
    let mut rising = None;
    for (i, r) in requests.iter().enumerate().skip(1) {
        let g = map.group(r.addr);
        if g != prev {
            if *rising.get_or_insert(g > prev) != (g > prev) {
                return false;
            }
            out.ends.push(i);
            prev = g;
        }
    }
    out.ends.push(requests.len());
    true
}

/// The `s` with `addr_i = addr_0 + s·i` for every request `i`, if there
/// is one (`Some(0)` for a single request).
fn stride(requests: &[Request]) -> Option<isize> {
    // Exact in `isize`: no address above `isize::MAX` matches a
    // non-negative `expect`, so `s` is an exact difference wherever the
    // second request matches, and a sum that overflows turns negative and
    // fails.
    let a0 = requests.first()?.addr as isize;
    let s = requests
        .get(1)
        .map_or(0, |r| (r.addr as isize).wrapping_sub(a0));
    let mut expect = a0;
    for r in requests {
        if expect < 0 || r.addr as isize != expect {
            return None;
        }
        expect = expect.wrapping_add(s);
    }
    Some(s)
}

/// [`bank_of`] and [`group_of`] at one width, by mask and shift when the
/// width is a power of two: a division per request would cost more than
/// the rest of the classifying pass.
#[derive(Clone, Copy)]
struct Interleave {
    width: usize,
    /// `log2(width)` for a power of two.
    shift: Option<u32>,
}

impl Interleave {
    fn new(width: usize) -> Self {
        Self {
            width,
            shift: width.is_power_of_two().then(|| width.trailing_zeros()),
        }
    }

    fn bank(self, addr: usize) -> usize {
        match self.shift {
            Some(_) => addr & (self.width - 1),
            None => bank_of(addr, self.width),
        }
    }

    fn group(self, addr: usize) -> usize {
        match self.shift {
            Some(k) => addr >> k,
            None => group_of(addr, self.width),
        }
    }
}

/// Greatest common divisor; `gcd(0, b) = b`.
fn gcd(mut a: usize, mut b: usize) -> usize {
    while a != 0 {
        (a, b) = (b % a, a);
    }
    b
}

/// Number of slots a request set occupies, without reordering it.
/// Convenience for tests and analytical cross-checks.
#[must_use]
pub fn slot_count(requests: &[Request], width: usize, policy: ConflictPolicy) -> usize {
    SlotSchedule::build(&mut requests.to_vec(), width, policy).num_slots()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read(thread: usize, addr: usize) -> Request {
        Request {
            thread,
            addr,
            kind: AccessKind::Read,
            value: 0,
        }
    }

    /// Contiguous access by a full warp: conflict-free on the DMM (one
    /// address per bank) and fully coalesced on the UMM (one group).
    #[test]
    fn contiguous_access_is_one_slot_on_both_models() {
        let w = 4;
        let reqs: Vec<_> = (0..w).map(|t| read(t, 8 + t)).collect();
        assert_eq!(slot_count(&reqs, w, ConflictPolicy::Banked), 1);
        assert_eq!(slot_count(&reqs, w, ConflictPolicy::Coalesced), 1);
    }

    /// Stride-w access (a column of a row-major matrix): every request hits
    /// the same bank on the DMM (w slots) but touches w distinct groups on
    /// the UMM (also w slots). This is the paper's canonical "bad on both,
    /// for different reasons" pattern.
    #[test]
    fn stride_w_access_serialises_on_both_models() {
        let w = 4;
        let reqs: Vec<_> = (0..w).map(|t| read(t, t * w)).collect();
        assert_eq!(slot_count(&reqs, w, ConflictPolicy::Banked), w);
        assert_eq!(slot_count(&reqs, w, ConflictPolicy::Coalesced), w);
    }

    /// Skewed (diagonal) access: addresses `t*w + t` hit distinct banks,
    /// so the DMM serves them in one slot, while the UMM still sees w
    /// distinct groups. This separates the two models (Figure 1).
    #[test]
    fn diagonal_access_separates_dmm_from_umm() {
        let w = 4;
        let reqs: Vec<_> = (0..w).map(|t| read(t, t * w + t)).collect();
        assert_eq!(slot_count(&reqs, w, ConflictPolicy::Banked), 1);
        assert_eq!(slot_count(&reqs, w, ConflictPolicy::Coalesced), w);
    }

    /// Same-address requests merge with no extra overhead (Section II:
    /// broadcast reads, arbitrary-winner writes).
    #[test]
    fn same_address_requests_merge() {
        let w = 4;
        let reqs: Vec<_> = (0..w).map(|t| read(t, 5)).collect();
        assert_eq!(slot_count(&reqs, w, ConflictPolicy::Banked), 1);
        assert_eq!(slot_count(&reqs, w, ConflictPolicy::Coalesced), 1);
    }

    /// Mixed: two distinct addresses in one bank plus two conflict-free
    /// ones -> 2 slots on the DMM.
    #[test]
    fn partial_conflicts_count_the_worst_bank() {
        let w = 4;
        let reqs = vec![read(0, 0), read(1, 4), read(2, 1), read(3, 2)];
        assert_eq!(slot_count(&reqs, w, ConflictPolicy::Banked), 2);
        // Groups: {0,1,2} -> group 0, {4} -> group 1 => 2 slots.
        assert_eq!(slot_count(&reqs, w, ConflictPolicy::Coalesced), 2);
    }

    /// The schedule partitions the request set: every request exactly
    /// once.
    #[test]
    fn schedule_is_a_partition() {
        let w = 8;
        let reqs: Vec<_> = (0..w).map(|t| read(t, (t * 3) % 16)).collect();
        for policy in [ConflictPolicy::Banked, ConflictPolicy::Coalesced] {
            let mut sorted = reqs.clone();
            let s = SlotSchedule::build(&mut sorted, w, policy);
            let mut seen = vec![false; reqs.len()];
            for slot in s.slots(&sorted) {
                for &Request { thread: i, .. } in slot {
                    assert!(!seen[i], "request {i} scheduled twice under {policy:?}");
                    seen[i] = true;
                }
            }
            assert!(seen.iter().all(|&b| b), "missing request under {policy:?}");
        }
    }

    /// Figure 4 of the paper: a warp whose requests are separated in three
    /// address groups occupies 3 pipeline stages; one whose requests share
    /// a group occupies 1.
    #[test]
    fn figure4_slot_occupancy() {
        let w = 4;
        // W(0): addresses {0, 2, 6, 15} -> groups {0, 0, 1, 3} = 3 groups.
        let w0 = vec![read(0, 0), read(1, 2), read(2, 6), read(3, 15)];
        assert_eq!(slot_count(&w0, w, ConflictPolicy::Coalesced), 3);
        // W(1): addresses {8, 9, 10, 11} -> one group.
        let w1: Vec<_> = (0..4).map(|t| read(4 + t, 8 + t)).collect();
        assert_eq!(slot_count(&w1, w, ConflictPolicy::Coalesced), 1);
    }

    #[test]
    fn empty_request_set_occupies_no_slots() {
        assert_eq!(slot_count(&[], 4, ConflictPolicy::Banked), 0);
        assert_eq!(slot_count(&[], 4, ConflictPolicy::Coalesced), 0);
    }
}
