//! # hmm-prof — profiler front end for the machine's cycle accounting
//!
//! The engine (`hmm-machine`) can account every thread-cycle of a launch
//! into exclusive stall categories and attach pipeline-occupancy
//! timelines (see `hmm_machine::profile`). This crate turns those
//! [`hmm_machine::LaunchProfile`] values — and the engine's optional
//! [`hmm_machine::Trace`] event stream — into consumable artifacts:
//!
//! * [`json::profile_to_json`] — a structured JSON document, returned as
//!   a `hmm_util::json::Value` so callers can embed it in larger
//!   documents (rendered through `hmm-util`'s writer, so output is
//!   byte-deterministic),
//! * [`perfetto::trace_to_perfetto`] — a Chrome/Perfetto `trace_events`
//!   array loadable in <https://ui.perfetto.dev>. It returns a
//!   [`perfetto::Perfetto`] view borrowing the trace and profile; its
//!   `to_json` / `to_json_pretty` stream the events through the same
//!   writer without building a document tree,
//! * [`report::render_report`] — a plain-text report with the category
//!   breakdown, occupancy sparklines and a disassembled per-instruction
//!   hotspot table.
//!
//! Everything here is a pure function of the profile/trace, so the
//! engine's determinism — one launch gives bit-identical profiles and
//! traces from run to run, and in debug and release builds — carries
//! through to every rendered artifact.

#![warn(missing_docs)]

pub mod json;
pub mod perfetto;
pub mod report;

pub use json::profile_to_json;
pub use perfetto::{trace_to_perfetto, Perfetto};
pub use report::render_report;
