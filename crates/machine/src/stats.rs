//! Simulation statistics and the final report of a kernel launch.

use hmm_util::json::Value;

/// Per-memory counters accumulated during a launch.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MemoryStats {
    /// Warp transactions processed.
    pub transactions: u64,
    /// Pipeline slots dispatched (each slot is one time unit of occupancy).
    pub slots: u64,
    /// Transactions that needed more than one slot (bank conflicts on a
    /// DMM, uncoalesced groups on a UMM).
    pub conflicted_transactions: u64,
    /// Largest number of slots any single transaction needed.
    pub max_slots_per_transaction: u64,
    /// Individual requests served.
    pub requests: u64,
}

impl MemoryStats {
    /// Record a transaction of `slots` slots carrying `requests` requests.
    pub fn record(&mut self, slots: u64, requests: u64) {
        self.transactions += 1;
        self.slots += slots;
        self.requests += requests;
        if slots > 1 {
            self.conflicted_transactions += 1;
        }
        self.max_slots_per_transaction = self.max_slots_per_transaction.max(slots);
    }

    /// Merge another accumulator into this one (used to combine the
    /// per-DMM shared-memory counters into one figure).
    pub fn merge(&mut self, other: &MemoryStats) {
        self.transactions += other.transactions;
        self.slots += other.slots;
        self.conflicted_transactions += other.conflicted_transactions;
        self.max_slots_per_transaction = self
            .max_slots_per_transaction
            .max(other.max_slots_per_transaction);
        self.requests += other.requests;
    }

    /// JSON rendering of the counters.
    #[must_use]
    pub fn to_json(&self) -> Value {
        Value::object(vec![
            ("transactions", self.transactions.into()),
            ("slots", self.slots.into()),
            (
                "conflicted_transactions",
                self.conflicted_transactions.into(),
            ),
            (
                "max_slots_per_transaction",
                self.max_slots_per_transaction.into(),
            ),
            ("requests", self.requests.into()),
        ])
    }
}

/// The result of simulating one kernel launch.
///
/// `time` is the quantity every theorem of the paper bounds: the number of
/// time units from launch until the last thread halts and the last memory
/// request completes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimReport {
    /// Total simulated time units.
    pub time: u64,
    /// Instructions executed across all threads.
    pub instructions: u64,
    /// Global-memory (UMM) counters.
    pub global: MemoryStats,
    /// Combined shared-memory (DMM) counters over all DMMs.
    pub shared: MemoryStats,
    /// Per-DMM shared-memory counters (empty on machines without shared
    /// memories). `shared` is the merge of these.
    pub shared_per_dmm: Vec<MemoryStats>,
    /// Barrier episodes completed (a scope releasing once).
    pub barriers: u64,
    /// Number of threads that ran.
    pub threads: usize,
    /// Shared-memory race pairs observed by the engine's dynamic race
    /// checker.
    pub shared_races: u64,
    /// Trace events produced but not retained under the engine's
    /// `trace_capacity` bound (0 when tracing is off or unbounded).
    pub trace_dropped_events: u64,
    /// Time units the event-driven clock jumped over with no thread
    /// runnable (all warps parked behind a memory pipeline, a barrier
    /// release or a busy non-pipelined memory). The clock may also jump
    /// over units in which only threads running ahead through local
    /// instructions are busy; those units are not counted. Always 0 when
    /// fast-forwarding is disabled; every other field is independent of
    /// the setting, so this is the only report field the `fast_forward`
    /// knob may change.
    pub skipped_units: u64,
}

impl SimReport {
    /// Total pipeline slots across all memories — a lower bound on time
    /// when a single memory is the bottleneck.
    #[must_use]
    pub fn total_slots(&self) -> u64 {
        self.global.slots + self.shared.slots
    }

    /// Fraction of the run during which the global pipeline dispatched a
    /// slot. 1.0 means the kernel is bandwidth-bound on global memory —
    /// the `n/w` regime of the paper's bounds; values near 0 mean the
    /// global memory was mostly idle.
    #[must_use]
    pub fn global_utilization(&self) -> f64 {
        if self.time == 0 {
            return 0.0;
        }
        self.global.slots as f64 / self.time as f64
    }

    /// Mean per-DMM shared-pipeline occupancy (the `d` shared pipelines
    /// run concurrently, so this is `shared.slots / (d · time)`).
    #[must_use]
    pub fn shared_utilization(&self) -> f64 {
        let d = self.shared_per_dmm.len();
        if self.time == 0 || d == 0 {
            return 0.0;
        }
        self.shared.slots as f64 / (d as f64 * self.time as f64)
    }

    /// Average requests served per global slot — `w` means perfectly
    /// coalesced/conflict-free traffic, 1 means fully serialised.
    #[must_use]
    pub fn global_requests_per_slot(&self) -> f64 {
        if self.global.slots == 0 {
            return 0.0;
        }
        self.global.requests as f64 / self.global.slots as f64
    }

    /// JSON rendering of the whole report (used by `hmm-cli --json`).
    #[must_use]
    pub fn to_json(&self) -> Value {
        Value::object(vec![
            ("time", self.time.into()),
            ("instructions", self.instructions.into()),
            ("global", self.global.to_json()),
            ("shared", self.shared.to_json()),
            (
                "shared_per_dmm",
                Value::Array(
                    self.shared_per_dmm
                        .iter()
                        .map(MemoryStats::to_json)
                        .collect(),
                ),
            ),
            ("barriers", self.barriers.into()),
            ("threads", self.threads.into()),
            ("shared_races", self.shared_races.into()),
            ("trace_dropped_events", self.trace_dropped_events.into()),
            ("skipped_units", self.skipped_units.into()),
            // Derived metrics, serialised so JSON consumers need not
            // recompute them.
            (
                "derived",
                Value::object(vec![
                    ("global_utilization", self.global_utilization().into()),
                    ("shared_utilization", self.shared_utilization().into()),
                    (
                        "global_requests_per_slot",
                        self.global_requests_per_slot().into(),
                    ),
                ]),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_tracks_conflicts_and_maxima() {
        let mut m = MemoryStats::default();
        m.record(1, 4);
        m.record(3, 4);
        m.record(1, 2);
        assert_eq!(m.transactions, 3);
        assert_eq!(m.slots, 5);
        assert_eq!(m.requests, 10);
        assert_eq!(m.conflicted_transactions, 1);
        assert_eq!(m.max_slots_per_transaction, 3);
    }

    #[test]
    fn merge_combines() {
        let mut a = MemoryStats::default();
        a.record(2, 4);
        let mut b = MemoryStats::default();
        b.record(5, 8);
        a.merge(&b);
        assert_eq!(a.transactions, 2);
        assert_eq!(a.slots, 7);
        assert_eq!(a.max_slots_per_transaction, 5);
    }

    #[test]
    fn utilization_metrics() {
        let mut r = SimReport {
            time: 100,
            shared_per_dmm: vec![MemoryStats::default(); 4],
            ..SimReport::default()
        };
        r.global.slots = 50;
        r.global.requests = 200;
        r.shared.slots = 100;
        assert!((r.global_utilization() - 0.5).abs() < 1e-12);
        assert!((r.shared_utilization() - 0.25).abs() < 1e-12);
        assert!((r.global_requests_per_slot() - 4.0).abs() < 1e-12);
        let empty = SimReport::default();
        assert_eq!(empty.global_utilization(), 0.0);
        assert_eq!(empty.shared_utilization(), 0.0);
        assert_eq!(empty.global_requests_per_slot(), 0.0);
    }

    #[test]
    fn report_serialises_to_json() {
        let r = SimReport {
            time: 10,
            threads: 4,
            shared_per_dmm: vec![MemoryStats::default(); 2],
            ..SimReport::default()
        };
        let s = r.to_json().to_json_pretty();
        let v = hmm_util::json::parse(&s).unwrap();
        // Derived metrics ride along for JSON consumers.
        assert!(v["derived"]["global_utilization"].as_f64().is_some());
        assert!(v["derived"]["shared_utilization"].as_f64().is_some());
        assert_eq!(v["time"].as_u64(), Some(10));
        assert_eq!(v["shared_per_dmm"].as_array().map(<[Value]>::len), Some(2));
    }
}
