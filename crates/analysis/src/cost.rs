//! A reusable static cost model: predicted time units for a kernel from
//! its conflict analysis plus the paper's Θ-terms.
//!
//! The Table I/II closed forms (`hmm-theory`) give every algorithm a
//! Θ-shape in `n, k, p, w, l, d` — but they assume conflict-free access.
//! The conflict analysis ([`crate::conflict`]) predicts, per memory
//! instruction, how many pipeline slots each warp transaction takes: a
//! *slot inflation factor* relative to the conflict-free ideal. This
//! module combines the two into a single predicted-time figure:
//!
//! ```text
//! predicted = global_term · inflation(Global)
//!           + shared_term · inflation(Shared)
//!           + fixed_term
//! ```
//!
//! where the caller splits its Θ-shape into the traffic terms the
//! inflations scale (bandwidth-bound work on each memory) and the fixed
//! latency/compute terms they do not. The autotuner (`hmm-tune`) uses
//! this as its stage-1 scorer — cheap enough to run over thousands of
//! candidates — and *audits* it by reporting predicted-vs-measured error
//! for every candidate it actually simulates, after one-point
//! calibration against the baseline (Θ-terms carry unit constants, so
//! only relative accuracy is meaningful).

use hmm_machine::isa::Space;

use crate::conflict::{AccessReport, Degree};

/// A Θ-shape split into the parts the conflict inflations scale.
/// All three terms are in (unit-constant) time units.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThetaTerms {
    /// Global-memory traffic term (e.g. `n/w + nl/p` for a streamed
    /// pass): scaled by the predicted global slot inflation.
    pub global: f64,
    /// Shared-memory traffic term (e.g. tree levels touching shared
    /// cells): scaled by the predicted shared slot inflation.
    pub shared: f64,
    /// Latency, barrier and pure-compute terms no conflict can inflate
    /// (e.g. the `+ l + log n` tail of Theorem 7).
    pub fixed: f64,
}

impl ThetaTerms {
    /// The conflict-free total (all inflations 1).
    #[must_use]
    pub fn ideal(&self) -> f64 {
        self.global + self.shared + self.fixed
    }
}

/// A predicted cost, with the inflation factors that produced it kept
/// for reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostEstimate {
    /// Predicted time units (unit-constant; calibrate against one
    /// measurement before comparing to simulator output).
    pub time_units: f64,
    /// Mean predicted slots-per-transaction over global accesses (1.0 =
    /// fully coalesced).
    pub global_inflation: f64,
    /// Mean predicted slots-per-transaction over shared accesses (1.0 =
    /// conflict-free).
    pub shared_inflation: f64,
}

fn midpoint(d: Degree) -> f64 {
    f64::midpoint(d.min as f64, d.max as f64)
}

/// Mean predicted slots-per-transaction over the analysable accesses to
/// `space`, floored at 1.0. Accesses outside the affine domain (no
/// prediction) are skipped; a kernel with no analysable access to
/// `space` scores the conflict-free 1.0. `accesses` is a kernel's
/// access reports ([`crate::classify_accesses`]) or its
/// [`crate::Analysis`].
#[must_use]
pub fn inflation(accesses: &(impl AsRef<[AccessReport]> + ?Sized), space: Space) -> f64 {
    let (sum, count) = accesses
        .as_ref()
        .iter()
        .filter(|a| a.space == space)
        .filter_map(|a| a.slots)
        .filter(|d| d.max > 0)
        .fold((0.0, 0usize), |(sum, count), d| {
            (sum + midpoint(d), count + 1)
        });
    if count == 0 {
        return 1.0;
    }
    (sum / count as f64).max(1.0)
}

/// Predict the time of a kernel from its access reports (or its
/// [`crate::Analysis`]) and its Θ-shape.
#[must_use]
pub fn predict(
    accesses: &(impl AsRef<[AccessReport]> + ?Sized),
    terms: &ThetaTerms,
) -> CostEstimate {
    let accesses = accesses.as_ref();
    let global_inflation = inflation(accesses, Space::Global);
    let shared_inflation = inflation(accesses, Space::Shared);
    CostEstimate {
        time_units: terms.global * global_inflation + terms.shared * shared_inflation + terms.fixed,
        global_inflation,
        shared_inflation,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{analyze, examples, AnalysisConfig};

    #[test]
    fn clean_kernel_scores_the_ideal() {
        let a = analyze(&examples::clean_kernel(), &AnalysisConfig::umm(32));
        let terms = ThetaTerms {
            global: 100.0,
            shared: 20.0,
            fixed: 30.0,
        };
        let est = predict(&a, &terms);
        assert_eq!(est.global_inflation, 1.0);
        assert_eq!(est.shared_inflation, 1.0);
        assert_eq!(est.time_units, terms.ideal());
        assert_eq!(terms.ideal(), 150.0);
    }

    /// `G[gid · w] = gid` — every warp's requests land in one bank.
    fn stride_w_kernel(w: usize) -> hmm_machine::Program {
        use hmm_machine::{abi, Asm};
        let mut a = Asm::new();
        a.mul(abi::SCRATCH0, abi::GID, w as i64);
        a.st_global(abi::SCRATCH0, 0, abi::GID);
        a.halt();
        a.finish()
    }

    #[test]
    fn conflicted_kernel_scores_above_the_ideal() {
        // The stride-w kernel serialises every warp on both models.
        let cfg = AnalysisConfig::dmm(8).with_launch(64, 1);
        let a = analyze(&stride_w_kernel(8), &cfg);
        assert!(inflation(&a, Space::Global) > 1.0);
        let terms = ThetaTerms {
            global: 100.0,
            shared: 0.0,
            fixed: 10.0,
        };
        let est = predict(&a, &terms);
        assert!(est.time_units > terms.ideal());
        assert_eq!(est.time_units, 100.0 * est.global_inflation + 10.0);
    }

    #[test]
    fn no_accesses_mean_unit_inflation() {
        let a = analyze(&examples::clean_kernel(), &AnalysisConfig::umm(32));
        assert_eq!(inflation(&a, Space::Shared), 1.0);
    }
}
