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
//! Schedules are stored in a flat CSR-style layout and can be rebuilt in
//! place through a [`SlotScratch`], so the engine's per-warp assembly hot
//! path performs no heap allocation in steady state.

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
/// Slot `i` lists the indices (into the original request vector) served
/// in the `i`-th slot. Every request appears in exactly one slot. The
/// slots are stored slot-major in one flat vector (CSR layout) so a
/// schedule can be rebuilt in place without reallocating.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SlotSchedule {
    /// Request indices, slot-major: slot `i` is `flat[start(i)..ends[i]]`.
    flat: Vec<usize>,
    /// Exclusive end offset of each slot within `flat`.
    ends: Vec<usize>,
}

impl SlotSchedule {
    /// Schedule `requests` under `policy` on a memory of `width` banks.
    ///
    /// Returns an empty schedule for an empty request set. Convenience
    /// wrapper over [`SlotScratch::build_into`] that allocates fresh
    /// scratch; hot paths should hold a [`SlotScratch`] instead.
    #[must_use]
    pub fn build(requests: &[Request], width: usize, policy: ConflictPolicy) -> Self {
        let mut out = SlotSchedule::default();
        SlotScratch::default().build_into(requests, width, policy, &mut out);
        out
    }

    /// Number of pipeline slots the transaction occupies.
    #[must_use]
    pub fn num_slots(&self) -> usize {
        self.ends.len()
    }

    /// Request indices served in slot `i`.
    #[must_use]
    pub fn slot(&self, i: usize) -> &[usize] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.flat[start..self.ends[i]]
    }

    /// Iterate over the slots.
    pub fn iter(&self) -> impl Iterator<Item = &[usize]> {
        (0..self.num_slots()).map(|i| self.slot(i))
    }
}

/// Reusable working memory for building [`SlotSchedule`]s.
///
/// The engine assembles one schedule per warp transaction; routing every
/// build through one per-shard scratch keeps the hot loop free of heap
/// allocation once the buffers have grown to the warp width.
#[derive(Debug, Default)]
pub struct SlotScratch {
    /// Per-request slot assignment.
    slot_of: Vec<usize>,
    /// Per-slot request count, reused as the scatter cursor.
    counts: Vec<usize>,
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
    /// Build the schedule for `requests` into `out`, reusing both `out`'s
    /// buffers and this scratch. Produces exactly the same schedule as
    /// [`SlotSchedule::build`].
    pub fn build_into(
        &mut self,
        requests: &[Request],
        width: usize,
        policy: ConflictPolicy,
        out: &mut SlotSchedule,
    ) {
        self.slot_of.clear();
        let mut num_slots = 0usize;
        match policy {
            // DMM rule: within each bank, distinct addresses serialise;
            // the i-th distinct address of every bank is served in slot
            // i. Requests for an address already scheduled join its slot
            // (merge: broadcast read / arbitrary-winner write). Each
            // request only walks its own bank's distinct addresses, so a
            // conflict-free warp schedules in O(w).
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
                    num_slots = num_slots.max(s + 1);
                }
                for &b in &self.touched {
                    self.bank_head[b] = NO_ENTRY;
                }
                self.touched.clear();
                self.distinct.clear();
            }
            // UMM rule: one distinct address group per slot, first-touch
            // order.
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
                    num_slots = num_slots.max(s + 1);
                }
            }
        }

        // Scatter the per-request assignments into the CSR layout. A
        // conflict-free transaction is one slot holding every request.
        out.ends.clear();
        out.flat.clear();
        if num_slots == 1 {
            out.ends.push(requests.len());
            out.flat.extend(0..requests.len());
            return;
        }
        self.counts.clear();
        self.counts.resize(num_slots, 0);
        for &s in &self.slot_of {
            self.counts[s] += 1;
        }
        let mut running = 0;
        for &c in &self.counts {
            running += c;
            out.ends.push(running);
        }
        // Reuse `counts` as the next-write cursor per slot.
        for s in 0..num_slots {
            self.counts[s] = if s == 0 { 0 } else { out.ends[s - 1] };
        }
        out.flat.resize(requests.len(), 0);
        for (i, &s) in self.slot_of.iter().enumerate() {
            out.flat[self.counts[s]] = i;
            self.counts[s] += 1;
        }
    }
}

/// Number of slots a request set occupies, without building the schedule.
/// Convenience for tests and analytical cross-checks.
#[must_use]
pub fn slot_count(requests: &[Request], width: usize, policy: ConflictPolicy) -> usize {
    SlotSchedule::build(requests, width, policy).num_slots()
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

    /// The schedule partitions the request set: every index exactly once.
    #[test]
    fn schedule_is_a_partition() {
        let w = 8;
        let reqs: Vec<_> = (0..w).map(|t| read(t, (t * 3) % 16)).collect();
        for policy in [ConflictPolicy::Banked, ConflictPolicy::Coalesced] {
            let s = SlotSchedule::build(&reqs, w, policy);
            let mut seen = vec![false; reqs.len()];
            for slot in s.iter() {
                for &i in slot {
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
