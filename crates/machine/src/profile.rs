//! Cycle-accounting profiles of a kernel launch.
//!
//! When [`crate::EngineConfig::profile`] is set, the engine accounts
//! **every thread-cycle** of the launch — `threads × time` in total —
//! into exclusive categories ([`StallCategory`]): a cycle is either an
//! instruction issue, a wait attributed to exactly one cause, or the
//! retired tail after the thread halted. The invariant
//!
//! ```text
//! Σ over categories of counts  ==  threads × time
//! ```
//!
//! holds per warp, per DMM and for the launch total; property tests
//! enforce it on random programs. The counts are attributed three ways —
//! per warp, per DMM and per program counter (the instruction hotspot
//! table) — and the profile also carries time-bucketed pipeline
//! occupancy timelines and slots-per-transaction / queue-depth
//! histograms for the global pipe and each DMM's shared pipe.
//!
//! Accounting is interval-based: nothing is recorded while a thread
//! waits, so the fast-forward path of the clock stays cheap; each
//! category interval is closed at the step (or halt) that ends it. An
//! interval's start lives in the engine's thread table, not in the
//! profiler: a waiting or halted thread's next-issue cycle is still the
//! cycle of the issue that opened the interval, and its pc names the
//! instruction that did (one past a load, store or barrier; on a
//! `halt`).
//! Counts go straight into one per-warp and one per-pc table; per-DMM
//! counts are sums over each DMM's warps.

use crate::isa::Program;

/// Number of [`StallCategory`] variants.
pub const NUM_CATEGORIES: usize = 7;

/// Histogram bins: index `i < HIST_OVERFLOW` counts value `i` exactly;
/// the last bin accumulates everything `>= HIST_OVERFLOW`.
pub const HIST_OVERFLOW: usize = 64;

/// What one thread-cycle was spent on. Categories are exclusive: every
/// cycle of every thread lands in exactly one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallCategory {
    /// The thread issued an instruction this cycle.
    Issued,
    /// Waiting on a global-memory request: pipeline latency plus any
    /// time spent queued behind other warps' transactions.
    MemGlobal,
    /// Waiting on a shared-memory request (latency + queueing).
    MemShared,
    /// The portion of a global wait caused by the thread's own
    /// transaction serialising into extra slots: its slot dispatched
    /// `k` cycles after the transaction's first slot.
    ConflictGlobal,
    /// The conflict-serialisation portion of a shared wait (bank
    /// conflicts).
    ConflictShared,
    /// Waiting at a DMM or machine-wide barrier.
    Barrier,
    /// Cycles after the thread halted, before the launch ended (also
    /// covers any not-yet-dispatched lead-in, which is 0 under the
    /// paper's launch model where every thread starts at cycle 0).
    Retired,
}

impl StallCategory {
    /// All categories, in the canonical serialisation order.
    pub const ALL: [StallCategory; NUM_CATEGORIES] = [
        StallCategory::Issued,
        StallCategory::MemGlobal,
        StallCategory::MemShared,
        StallCategory::ConflictGlobal,
        StallCategory::ConflictShared,
        StallCategory::Barrier,
        StallCategory::Retired,
    ];

    /// Stable `snake_case` name (JSON keys, report labels).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            StallCategory::Issued => "issued",
            StallCategory::MemGlobal => "mem_global",
            StallCategory::MemShared => "mem_shared",
            StallCategory::ConflictGlobal => "conflict_global",
            StallCategory::ConflictShared => "conflict_shared",
            StallCategory::Barrier => "barrier",
            StallCategory::Retired => "retired",
        }
    }

    fn index(self) -> usize {
        match self {
            StallCategory::Issued => 0,
            StallCategory::MemGlobal => 1,
            StallCategory::MemShared => 2,
            StallCategory::ConflictGlobal => 3,
            StallCategory::ConflictShared => 4,
            StallCategory::Barrier => 5,
            StallCategory::Retired => 6,
        }
    }
}

/// Thread-cycle counts, one per [`StallCategory`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CategoryCounts {
    counts: [u64; NUM_CATEGORIES],
}

impl CategoryCounts {
    /// Add `n` cycles to `cat`.
    pub fn add(&mut self, cat: StallCategory, n: u64) {
        self.counts[cat.index()] += n;
    }

    /// The count for one category.
    #[must_use]
    pub fn get(&self, cat: StallCategory) -> u64 {
        self.counts[cat.index()]
    }

    /// Sum over all categories.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Element-wise accumulate.
    pub fn merge(&mut self, other: &CategoryCounts) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += *b;
        }
    }

    /// Cycles spent stalled (everything but `Issued` and `Retired`).
    #[must_use]
    pub fn stalled(&self) -> u64 {
        self.total() - self.get(StallCategory::Issued) - self.get(StallCategory::Retired)
    }
}

/// Occupancy timeline and transaction-shape histograms of one memory
/// pipeline.
///
/// `buckets[i]` counts the slots dispatched in cycles
/// `[i·bucket_width, (i+1)·bucket_width)`; the owning
/// [`LaunchProfile::bucket_width`] applies to every pipe of the launch.
/// Histogram index `k` counts occurrences of value `k`, with the last
/// bin ([`HIST_OVERFLOW`]) absorbing larger values; trailing zero bins
/// are trimmed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PipelineProfile {
    /// Slots dispatched per time bucket.
    pub buckets: Vec<u64>,
    /// Histogram of slots-per-transaction (serialisation degree).
    pub slots_per_txn: Vec<u64>,
    /// Histogram of queue depth (transactions resident, incl. the one in
    /// service) observed at each slot dispatch.
    pub queue_depth: Vec<u64>,
    /// Total slots dispatched (sum of `buckets`).
    pub slots: u64,
}

/// Per-pipe accumulator with a self-scaling bucket width.
///
/// The run length is unknown up front, so the width starts at 1 and
/// doubles (pairwise-merging the buckets) whenever the clock outgrows
/// `max_buckets` buckets. Every transition depends only on recorded
/// cycle numbers, so the final timeline is deterministic.
#[derive(Debug, Clone)]
pub(crate) struct PipeAcc {
    width: u64,
    max_buckets: usize,
    buckets: Vec<u64>,
    slots_per_txn: Vec<u64>,
    queue_depth: Vec<u64>,
    slots: u64,
}

impl PipeAcc {
    pub(crate) fn new(max_buckets: usize) -> Self {
        Self {
            width: 1,
            max_buckets: max_buckets.max(1),
            buckets: Vec::new(),
            slots_per_txn: vec![0; HIST_OVERFLOW + 1],
            queue_depth: vec![0; HIST_OVERFLOW + 1],
            slots: 0,
        }
    }

    pub(crate) fn width(&self) -> u64 {
        self.width
    }

    /// Double the bucket width, merging bucket pairs in place.
    fn halve(&mut self) {
        self.width = self.width.saturating_mul(2);
        let n = self.buckets.len().div_ceil(2);
        for i in 0..n {
            self.buckets[i] = self.buckets[2 * i] + self.buckets.get(2 * i + 1).unwrap_or(&0);
        }
        self.buckets.truncate(n);
    }

    /// One slot dispatched at `cycle` with `depth` transactions resident.
    pub(crate) fn on_dispatch(&mut self, cycle: u64, depth: usize) {
        while cycle / self.width >= self.max_buckets as u64 {
            self.halve();
        }
        let idx = (cycle / self.width) as usize;
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += 1;
        self.slots += 1;
        self.queue_depth[depth.min(HIST_OVERFLOW)] += 1;
    }

    /// A transaction finished having used `slots` slots.
    pub(crate) fn on_txn_done(&mut self, slots: u64) {
        let idx = usize::try_from(slots).unwrap_or(HIST_OVERFLOW);
        self.slots_per_txn[idx.min(HIST_OVERFLOW)] += 1;
    }

    /// Coarsen to `width` (a power-of-two multiple of the current one).
    pub(crate) fn rescale_to(&mut self, width: u64) {
        while self.width < width {
            self.halve();
        }
    }

    /// Finalise: pad the timeline to cover `[0, time)` and trim trailing
    /// zero histogram bins.
    pub(crate) fn finish(mut self, time: u64) -> PipelineProfile {
        let needed = usize::try_from(time.div_ceil(self.width)).unwrap_or(usize::MAX);
        if self.buckets.len() < needed {
            self.buckets.resize(needed, 0);
        }
        let trim = |mut v: Vec<u64>| {
            while v.last() == Some(&0) {
                v.pop();
            }
            v
        };
        PipelineProfile {
            buckets: self.buckets,
            slots_per_txn: trim(self.slots_per_txn),
            queue_depth: trim(self.queue_depth),
            slots: self.slots,
        }
    }
}

/// The complete cycle-accounting profile of one kernel launch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaunchProfile {
    /// Name of the launched kernel (`Kernel::name`); `Machine::launch`
    /// labels every profile with it.
    pub label: String,
    /// Simulated time units of the launch.
    pub time: u64,
    /// Threads launched.
    pub threads: usize,
    /// Warp width `w` of the machine.
    pub width: usize,
    /// Launch-total counts over all threads.
    pub total: CategoryCounts,
    /// Counts per global warp id (DMM-major numbering).
    pub per_warp: Vec<CategoryCounts>,
    /// Counts per DMM.
    pub per_dmm: Vec<CategoryCounts>,
    /// Counts per program counter (the instruction hotspot table).
    /// Indexed by pc; waits are attributed to the instruction that
    /// caused them, the retired tail to the `halt`.
    pub per_pc: Vec<CategoryCounts>,
    /// Bucket width shared by every pipeline timeline below.
    pub bucket_width: u64,
    /// Global (UMM) pipeline timeline and histograms.
    pub global_pipe: PipelineProfile,
    /// Per-DMM shared pipeline timelines (empty without shared memory).
    pub shared_pipes: Vec<PipelineProfile>,
    /// The launched program, kept for disassembled hotspot rendering.
    pub program: Program,
}

impl LaunchProfile {
    /// The conserved quantity: `threads × time`.
    #[must_use]
    pub fn thread_cycles(&self) -> u64 {
        self.threads as u64 * self.time
    }

    /// Whether every accounting invariant holds: the total, the per-warp,
    /// per-DMM and per-pc tables each sum to `threads × time`.
    #[must_use]
    pub fn is_conserved(&self) -> bool {
        let want = self.thread_cycles();
        let sum = |v: &[CategoryCounts]| v.iter().map(CategoryCounts::total).sum::<u64>();
        self.total.total() == want
            && sum(&self.per_warp) == want
            && sum(&self.per_dmm) == want
            && sum(&self.per_pc) == want
    }

    /// Fraction of all thread-cycles spent in `cat` (0 when the launch
    /// recorded no cycles).
    #[must_use]
    pub fn fraction(&self, cat: StallCategory) -> f64 {
        let tc = self.thread_cycles();
        if tc == 0 {
            return 0.0;
        }
        self.total.get(cat) as f64 / tc as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn category_counts_roundtrip() {
        let mut c = CategoryCounts::default();
        c.add(StallCategory::Issued, 3);
        c.add(StallCategory::Barrier, 2);
        c.add(StallCategory::MemGlobal, 5);
        assert_eq!(c.get(StallCategory::Issued), 3);
        assert_eq!(c.total(), 10);
        assert_eq!(c.stalled(), 7);
        let mut d = CategoryCounts::default();
        d.add(StallCategory::Issued, 1);
        d.merge(&c);
        assert_eq!(d.get(StallCategory::Issued), 4);
        assert_eq!(StallCategory::ALL.len(), NUM_CATEGORIES);
        for (i, cat) in StallCategory::ALL.iter().enumerate() {
            assert_eq!(cat.index(), i);
            assert!(!cat.name().is_empty());
        }
    }

    #[test]
    fn pipe_acc_doubles_width_deterministically() {
        let mut acc = PipeAcc::new(4);
        for cycle in 0..16 {
            acc.on_dispatch(cycle, 1);
        }
        // 16 cycles into at most 4 buckets: width must have reached 4.
        assert_eq!(acc.width(), 4);
        let p = acc.finish(16);
        assert_eq!(p.buckets, vec![4, 4, 4, 4]);
        assert_eq!(p.slots, 16);
        assert_eq!(p.queue_depth, vec![0, 16]);
    }

    #[test]
    fn pipe_acc_rescale_matches_direct() {
        // A pipe that kept a narrower width, rescaled to the width another
        // grew to while recording, has that one's buckets: a launch's
        // profile widens every pipe to its widest bucket this way.
        let mut a = PipeAcc::new(2);
        let mut b = PipeAcc::new(8);
        for cycle in [0u64, 1, 2, 5, 7] {
            a.on_dispatch(cycle, 0);
            b.on_dispatch(cycle, 0);
        }
        b.rescale_to(a.width());
        assert_eq!(a.finish(8).buckets, b.finish(8).buckets);
    }

    #[test]
    fn histograms_clamp_to_overflow_bin() {
        let mut acc = PipeAcc::new(4);
        acc.on_dispatch(0, 1000);
        acc.on_txn_done(1000);
        let p = acc.finish(1);
        assert_eq!(p.queue_depth.len(), HIST_OVERFLOW + 1);
        assert_eq!(p.queue_depth[HIST_OVERFLOW], 1);
        assert_eq!(p.slots_per_txn[HIST_OVERFLOW], 1);
    }
}
