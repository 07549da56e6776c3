//! Chrome/Perfetto `trace_events` rendering of engine traces.
//!
//! The output is the classic "JSON array format" both `chrome://tracing`
//! and <https://ui.perfetto.dev> load: a bare array of event objects,
//! each with a phase `ph`, timestamp `ts` (we use the simulated cycle as
//! the microsecond timestamp) and process id `pid`. Processes model the
//! machine's memories: pid 0 is the machine itself (barrier instants),
//! pid 1 the global (UMM) pipeline, pid `2 + d` the shared pipeline of
//! DMM `d`; within a memory the thread id is the warp that owns the
//! transaction. When a [`LaunchProfile`] is supplied its bucketed
//! occupancy timelines additionally become counter (`"C"`) tracks.
//!
//! Events are streamed through `hmm-util`'s JSON [`Writer`] straight
//! from the trace, without an intermediate document tree.

use hmm_machine::profile::PipelineProfile;
use hmm_machine::trace::MemoryId;
use hmm_machine::{LaunchProfile, Trace, TraceEvent};
use hmm_util::json::Piece::{Text, Uint};
use hmm_util::json::{Piece, Writer};

/// Process id of the machine-wide track (barriers).
pub const MACHINE_PID: u64 = 0;
/// Process id of the global (UMM) pipeline track.
pub const GLOBAL_PID: u64 = 1;
/// Process id of DMM 0's shared pipeline; DMM `d` gets `SHARED_PID0 + d`.
pub const SHARED_PID0: u64 = 2;

fn pid_of(m: MemoryId) -> u64 {
    match m {
        MemoryId::Global => GLOBAL_PID,
        MemoryId::Shared(d) => SHARED_PID0 + d as u64,
    }
}

/// A trace (and, optionally, the matching profile) viewed as one
/// Perfetto-loadable `trace_events` JSON array; rendering happens on
/// [`Perfetto::to_json`] / [`Perfetto::to_json_pretty`].
#[derive(Debug, Clone, Copy)]
pub struct Perfetto<'a> {
    trace: &'a Trace,
    profile: Option<&'a LaunchProfile>,
}

/// View a trace (and, optionally, the matching profile's occupancy
/// counters) as one Perfetto-loadable `trace_events` JSON array.
#[must_use]
pub fn trace_to_perfetto<'a>(trace: &'a Trace, profile: Option<&'a LaunchProfile>) -> Perfetto<'a> {
    Perfetto { trace, profile }
}

impl Perfetto<'_> {
    /// Compact single-line rendering.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut w = Writer::compact();
        self.write(&mut w);
        w.finish()
    }

    /// Pretty rendering with two-space indentation.
    #[must_use]
    pub fn to_json_pretty(&self) -> String {
        let mut w = Writer::pretty();
        self.write(&mut w);
        w.finish()
    }

    fn write(&self, w: &mut Writer) {
        w.begin_array();
        process_name(w, MACHINE_PID, &[Text("machine")]);
        process_name(w, GLOBAL_PID, &[Text("global memory (UMM)")]);
        let traced_dmms = self
            .trace
            .events()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::SlotDispatched {
                    memory: MemoryId::Shared(d),
                    ..
                }
                | TraceEvent::SlotCompleted {
                    memory: MemoryId::Shared(d),
                    ..
                } => Some(*d + 1),
                _ => None,
            })
            .max()
            .unwrap_or(0);
        let dmms = traced_dmms.max(self.profile.map_or(0, |p| p.shared_pipes.len()));
        for d in 0..dmms {
            process_name(
                w,
                SHARED_PID0 + d as u64,
                &[Text("dmm "), Uint(d as u64), Text(" shared memory")],
            );
        }
        for e in self.trace.events() {
            event(w, e);
        }
        if let Some(p) = self.profile {
            counter_track(
                w,
                GLOBAL_PID,
                &[Text("global slots/bucket")],
                p.bucket_width,
                &p.global_pipe,
            );
            for (d, pipe) in p.shared_pipes.iter().enumerate() {
                counter_track(
                    w,
                    SHARED_PID0 + d as u64,
                    &[Text("dmm "), Uint(d as u64), Text(" slots/bucket")],
                    p.bucket_width,
                    pipe,
                );
            }
        }
        w.end_array();
    }
}

/// Open an event with the members every event starts with: `ph`, `ts`,
/// `dur` (complete slices only), `pid` and `tid`.
fn head(w: &mut Writer, ph: &str, ts: u64, pid: u64, tid: u64) {
    w.begin_object();
    w.key("ph").string(ph);
    w.key("ts").uint(ts);
    if ph == "X" {
        w.key("dur").uint(1);
    }
    w.key("pid").uint(pid);
    w.key("tid").uint(tid);
}

/// The closing `args` object holding a single count.
fn args(w: &mut Writer, key: &str, n: u64) {
    w.key("args").begin_object();
    w.key(key).uint(n);
    w.end_object();
    w.end_object();
}

fn process_name(w: &mut Writer, pid: u64, name: &[Piece<'_>]) {
    head(w, "M", 0, pid, 0);
    w.key("name").string("process_name");
    w.key("args").begin_object();
    w.key("name").string_of(name);
    w.end_object();
    w.end_object();
}

fn counter_track(w: &mut Writer, pid: u64, name: &[Piece<'_>], width: u64, pipe: &PipelineProfile) {
    for (i, &slots) in pipe.buckets.iter().enumerate() {
        head(w, "C", i as u64 * width, pid, 0);
        w.key("name").string_of(name);
        args(w, "slots", slots);
    }
}

fn event(w: &mut Writer, e: &TraceEvent) {
    match e {
        TraceEvent::SlotDispatched {
            cycle,
            memory,
            warp,
            slot_index,
            total_slots,
            addrs,
        } => {
            head(w, "X", *cycle, pid_of(*memory), *warp as u64);
            w.key("name").string_of(&[
                Text("slot "),
                Uint(*slot_index as u64 + 1),
                Text("/"),
                Uint(*total_slots as u64),
            ]);
            args(w, "addrs", addrs.len() as u64);
        }
        TraceEvent::SlotCompleted {
            cycle,
            memory,
            warp,
            threads,
        } => {
            head(w, "i", *cycle, pid_of(*memory), *warp as u64);
            w.key("name").string("complete");
            w.key("s").string("t");
            args(w, "threads", threads.len() as u64);
        }
        TraceEvent::BarrierReleased {
            cycle,
            dmm,
            threads,
        } => {
            head(w, "i", *cycle, MACHINE_PID, 0);
            match dmm {
                Some(d) => w
                    .key("name")
                    .string_of(&[Text("barrier dmm "), Uint(*d as u64)]),
                None => w.key("name").string("barrier global"),
            }
            w.key("s").string("p");
            args(w, "threads", *threads as u64);
        }
    }
}
