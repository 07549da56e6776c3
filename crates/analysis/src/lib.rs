//! Static analysis of HMM kernel programs.
//!
//! This crate analyses a [`hmm_machine::isa::Program`] *without running
//! it*, predicting exactly the quantities the simulator measures and
//! catching the defect classes the paper's machine model makes precise:
//!
//! * a control-flow graph with basic blocks, reachability, and immediate
//!   post-dominators ([`cfg`](mod@cfg));
//! * classic register dataflow — may-uninitialized reads, dead stores,
//!   unreachable code, missing `Halt` ([`dataflow`]);
//! * abstract interpretation over ltid-affine addresses (`base +
//!   c·ltid`), predicting per-warp bank-conflict degree on banked (DMM)
//!   memories and address-group counts on coalesced (UMM) memories by
//!   feeding a representative warp through the simulator's own slot
//!   scheduler ([`affine`], [`interp`], [`conflict`]);
//! * barrier-divergence checking and shared-memory race detection
//!   ([`barrier`], [`race`]).
//!
//! The entry point is [`analyze`], which `hmm-cli lint` calls. The
//! tuner's predict stage calls [`classify_accesses`], the passes the
//! cost model ([`predict`]) reads, without the lint passes.
//! `tests/static_vs_dynamic.rs` (repository root) validates the
//! predictions against measured [`hmm_machine::stats::SimReport`]s.

pub mod affine;
pub mod barrier;
pub mod cfg;
pub mod conflict;
pub mod cost;
pub mod dataflow;
pub mod diag;
pub mod examples;
pub mod interp;
pub mod race;

use hmm_machine::isa::{Program, Space};
use hmm_machine::request::ConflictPolicy;
use hmm_util::json::Value;
use std::fmt::Write as _;

pub use conflict::{AccessReport, Degree};
pub use cost::{inflation, predict, CostEstimate, ThetaTerms};
pub use diag::{Code, Diagnostic, Severity};

/// The machine shape the analysis assumes. Mirrors
/// `hmm_machine::EngineConfig`, but the thread count `p` is
/// optional, and the latency `l` and the argument registers are always
/// unknown: unknown parameters make predictions ranges instead of exact
/// values.
#[derive(Debug, Clone)]
pub struct AnalysisConfig {
    /// Warp width / bank count / address-group width `w`.
    pub width: usize,
    /// Number of DMMs `d` (1 for the standalone machines).
    pub dmms: usize,
    /// Conflict policy of the global memory.
    pub global_policy: ConflictPolicy,
    /// Whether `Space::Shared` exists on this machine.
    pub has_shared: bool,
    /// Total thread count `p`, when known.
    pub p: Option<i64>,
}

impl AnalysisConfig {
    /// A standalone DMM: one banked memory.
    #[must_use]
    pub fn dmm(width: usize) -> Self {
        Self {
            width,
            dmms: 1,
            global_policy: ConflictPolicy::Banked,
            has_shared: false,
            p: None,
        }
    }

    /// A standalone UMM: one coalesced memory.
    #[must_use]
    pub fn umm(width: usize) -> Self {
        Self {
            global_policy: ConflictPolicy::Coalesced,
            ..Self::dmm(width)
        }
    }

    /// An HMM: `d` banked shared memories over a coalesced global one.
    #[must_use]
    pub fn hmm(width: usize, dmms: usize) -> Self {
        Self {
            dmms,
            global_policy: ConflictPolicy::Coalesced,
            has_shared: true,
            ..Self::dmm(width)
        }
    }

    /// Pin the launch shape: `p` total threads over `dmms` DMMs.
    #[must_use]
    pub fn with_launch(mut self, p: i64, dmms: usize) -> Self {
        self.p = Some(p);
        self.dmms = dmms.max(1);
        self
    }

    /// Threads per DMM, when the launch shape is known.
    #[must_use]
    pub fn pd(&self) -> Option<i64> {
        self.p.map(|p| p / self.dmms.max(1) as i64)
    }
}

/// The result of analysing one program.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// All findings, ordered by pc then code.
    pub diagnostics: Vec<Diagnostic>,
    /// Per-memory-instruction conflict classification.
    pub accesses: Vec<AccessReport>,
}

impl AsRef<[AccessReport]> for Analysis {
    fn as_ref(&self) -> &[AccessReport] {
        &self.accesses
    }
}

impl Analysis {
    /// Whether any finding has `Error` severity.
    #[must_use]
    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity() == Severity::Error)
    }

    /// Findings with exactly this code.
    pub fn with_code(&self, code: Code) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(move |d| d.code == code)
    }

    /// Predicted worst slots-per-transaction over the analysable
    /// accesses to `space` (the static counterpart of the measured
    /// `max_slots_per_transaction`). `None` when no access to `space`
    /// was analysable.
    #[must_use]
    pub fn predicted_max_slots(&self, space: Space) -> Option<Degree> {
        self.accesses
            .iter()
            .filter(|a| a.space == space)
            .filter_map(|a| a.slots)
            .filter(|d| d.max > 0)
            .reduce(|x, y| Degree {
                min: x.min.max(y.min),
                max: x.max.max(y.max),
            })
    }

    /// Multi-line text rendering: one line per finding plus a summary.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.render());
            out.push('\n');
        }
        let count = |s: Severity| {
            self.diagnostics
                .iter()
                .filter(|d| d.severity() == s)
                .count()
        };
        let _ = writeln!(
            out,
            "{} error(s), {} warning(s), {} info(s)",
            count(Severity::Error),
            count(Severity::Warning),
            count(Severity::Info)
        );
        out
    }

    /// JSON rendering: diagnostics, access classifications, summary.
    #[must_use]
    pub fn to_json(&self) -> Value {
        let diags: Vec<Value> = self.diagnostics.iter().map(Diagnostic::to_json).collect();
        let accesses: Vec<Value> = self
            .accesses
            .iter()
            .map(|a| {
                let mut fields = vec![
                    ("pc", a.pc.into()),
                    (
                        "space",
                        match a.space {
                            Space::Shared => "shared",
                            Space::Global => "global",
                        }
                        .into(),
                    ),
                    (
                        "kind",
                        match a.kind {
                            hmm_machine::request::AccessKind::Read => "read",
                            hmm_machine::request::AccessKind::Write => "write",
                        }
                        .into(),
                    ),
                ];
                match a.slots {
                    Some(d) => {
                        fields.push(("slots_min", d.min.into()));
                        fields.push(("slots_max", d.max.into()));
                    }
                    None => fields.push(("slots", Value::Null)),
                }
                Value::object(fields)
            })
            .collect();
        let count = |s: Severity| {
            self.diagnostics
                .iter()
                .filter(|d| d.severity() == s)
                .count()
        };
        Value::object(vec![
            ("errors", count(Severity::Error).into()),
            ("warnings", count(Severity::Warning).into()),
            ("infos", count(Severity::Info).into()),
            ("diagnostics", Value::Array(diags)),
            ("accesses", Value::Array(accesses)),
        ])
    }
}

/// The passes the cost model reads: the access reports, with the graph
/// and the interpretation the lint passes reuse.
fn classify(
    program: &Program,
    config: &AnalysisConfig,
) -> (cfg::Cfg, interp::Interp, Vec<AccessReport>) {
    let graph = cfg::Cfg::build(program);
    let interp = interp::run(program, &graph, config);
    let accesses = conflict::classify(program, &graph, &interp, config);
    (graph, interp, accesses)
}

/// Classify every reachable memory access of `program` under `config`:
/// the control-flow graph, the abstract interpretation and the conflict
/// pass, without the lint passes. The reports equal
/// [`analyze`]'s `accesses`; [`predict`] reads nothing else.
#[must_use]
pub fn classify_accesses(program: &Program, config: &AnalysisConfig) -> Vec<AccessReport> {
    classify(program, config).2
}

/// Run every analysis pass over `program` under `config`: the access
/// classification of [`classify_accesses`], then the lint passes.
#[must_use]
pub fn analyze(program: &Program, config: &AnalysisConfig) -> Analysis {
    let (graph, interp, accesses) = classify(program, config);
    let mut diagnostics = Vec::new();
    dataflow::lint(program, &graph, &mut diagnostics);
    conflict::lint(program, &graph, &accesses, config, &mut diagnostics);
    barrier::analyze(program, &graph, &interp, &mut diagnostics);
    race::analyze(program, &graph, &interp, config, &mut diagnostics);
    diagnostics.sort_by(|a, b| {
        a.pc.cmp(&b.pc)
            .then_with(|| a.code.as_str().cmp(b.code.as_str()))
            .then_with(|| a.message.cmp(&b.message))
    });
    Analysis {
        diagnostics,
        accesses,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analyze_clean_kernel_end_to_end() {
        let a = analyze(&examples::clean_kernel(), &AnalysisConfig::umm(32));
        assert!(a.diagnostics.is_empty(), "{:?}", a.diagnostics);
        assert_eq!(
            a.predicted_max_slots(Space::Global),
            Some(Degree { min: 1, max: 1 })
        );
        let j = a.to_json();
        assert_eq!(j["errors"].as_u64(), Some(0));
    }

    #[test]
    fn classify_accesses_equals_the_full_analysis() {
        for program in [
            examples::racy_kernel(),
            examples::racy_kernel_fixed(),
            examples::divergent_barrier_kernel(),
            examples::uninit_kernel(),
            examples::clean_kernel(),
        ] {
            for cfg in [
                AnalysisConfig::umm(32),
                AnalysisConfig::dmm(8),
                AnalysisConfig::hmm(32, 1).with_launch(64, 1),
            ] {
                let full = analyze(&program, &cfg);
                let accesses = classify_accesses(&program, &cfg);
                assert_eq!(accesses, full.accesses);
                let terms = ThetaTerms {
                    global: 10.0,
                    shared: 3.0,
                    fixed: 1.0,
                };
                assert_eq!(predict(&accesses, &terms), predict(&full, &terms));
            }
        }
    }

    #[test]
    fn analyze_racy_kernel_reports_errors() {
        let cfg = AnalysisConfig::hmm(32, 1).with_launch(64, 1);
        let a = analyze(&examples::racy_kernel(), &cfg);
        assert!(a.has_errors());
        assert!(a.with_code(Code::SharedRace).next().is_some());
        assert!(a.render().contains("E003"));
    }
}
