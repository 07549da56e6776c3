//! Optional event tracing.
//!
//! When enabled on the engine, every pipeline dispatch and completion is
//! recorded with its cycle stamp. The `fig4` benchmark binary replays the
//! paper's Figure 4 from such a trace, and tests use it to assert exact
//! cycle-level behaviour.

use crate::isa::Space;

/// Identifies one memory of the machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemoryId {
    /// The global (UMM) memory.
    Global,
    /// The shared memory of DMM `i`.
    Shared(usize),
}

impl MemoryId {
    /// The ISA space this memory is addressed through.
    #[must_use]
    pub fn space(self) -> Space {
        match self {
            MemoryId::Global => Space::Global,
            MemoryId::Shared(_) => Space::Shared,
        }
    }
}

/// One traced event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A pipeline slot was dispatched: `warp`'s slot `slot_index` (of
    /// `total_slots`) entered `memory`'s pipeline at `cycle`, carrying the
    /// listed addresses.
    SlotDispatched {
        /// Time unit of the dispatch.
        cycle: u64,
        /// Which memory served the slot.
        memory: MemoryId,
        /// Warp that owns the transaction.
        warp: usize,
        /// Index of this slot within its transaction.
        slot_index: usize,
        /// Total slots of the transaction.
        total_slots: usize,
        /// Addresses served in this slot.
        addrs: Vec<usize>,
    },
    /// The requests of a slot completed (threads resume the next cycle).
    SlotCompleted {
        /// Time unit at whose end the data arrived.
        cycle: u64,
        /// Which memory served the slot.
        memory: MemoryId,
        /// Warp that owns the transaction.
        warp: usize,
        /// Threads released by this completion.
        threads: Vec<usize>,
    },
    /// A barrier released.
    BarrierReleased {
        /// Time unit of the release.
        cycle: u64,
        /// `None` for the machine-wide barrier, `Some(d)` for DMM `d`.
        dmm: Option<usize>,
        /// Number of threads released.
        threads: usize,
    },
}

/// A recorded sequence of events, under a capacity bound.
///
/// A trace keeps the first events recorded into it, up to its capacity,
/// and [`Trace::dropped_events`] counts the rest. The engine records in
/// canonical order with the capacity
/// [`crate::EngineConfig::trace_capacity`] (unbounded when `None`), so
/// long sweeps with tracing enabled cannot grow without limit. The
/// [`Default`] trace is empty.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    events: Vec<TraceEvent>,
    dropped: u64,
    /// Events kept at most.
    cap: usize,
}

impl Trace {
    /// An empty trace that keeps at most `cap` events.
    pub(crate) fn bounded(cap: usize) -> Self {
        Self {
            cap,
            ..Self::default()
        }
    }

    /// Keep the event `ev` builds if the trace has room, and build it
    /// only then; otherwise count it as dropped.
    pub(crate) fn record(&mut self, ev: impl FnOnce() -> TraceEvent) {
        if self.events.len() < self.cap {
            self.events.push(ev());
        } else {
            self.dropped += 1;
        }
    }

    /// Events produced by the run but not retained under the capacity
    /// bound.
    #[must_use]
    pub fn dropped_events(&self) -> u64 {
        self.dropped
    }

    /// All recorded events in order.
    #[must_use]
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Dispatches on a given memory, in order.
    pub fn dispatches(&self, memory: MemoryId) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter().filter(
            move |e| matches!(e, TraceEvent::SlotDispatched { memory: m, .. } if *m == memory),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dispatch(cycle: u64, memory: MemoryId, addr: usize) -> TraceEvent {
        TraceEvent::SlotDispatched {
            cycle,
            memory,
            warp: 0,
            slot_index: 0,
            total_slots: 1,
            addrs: vec![addr],
        }
    }

    #[test]
    fn filtering_by_memory() {
        let mut t = Trace::bounded(usize::MAX);
        t.record(|| dispatch(1, MemoryId::Global, 0));
        t.record(|| dispatch(2, MemoryId::Shared(1), 4));
        assert_eq!(t.dispatches(MemoryId::Global).count(), 1);
        assert_eq!(t.dispatches(MemoryId::Shared(1)).count(), 1);
        assert_eq!(t.dispatches(MemoryId::Shared(0)).count(), 0);
        assert_eq!(MemoryId::Shared(1).space(), Space::Shared);
    }

    #[test]
    fn dropped_events_mark_truncation() {
        assert!(Trace::default().events().is_empty());
        let mut t = Trace::bounded(2);
        let mut built = 0;
        for cycle in 0..5 {
            t.record(|| {
                built += 1;
                dispatch(cycle, MemoryId::Global, 0)
            });
        }
        assert_eq!(built, 2, "a dropped event is never built");
        assert_eq!(t.events(), [0, 1].map(|c| dispatch(c, MemoryId::Global, 0)));
        assert_eq!(t.dropped_events(), 3);
    }
}
