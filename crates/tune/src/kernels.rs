//! The tunable kernels: algorithm families that know how to instantiate
//! themselves for any [`Candidate`].
//!
//! A [`Tunable`] owns the *semantics* (input generation, sequential
//! reference, output location) and translates the candidate's abstract
//! layout knobs into concrete [`Transform`] lists — only the kernel
//! knows its shared-memory geometry, so only it can choose pad periods
//! and transpose shapes. Two families ship:
//!
//! * **`sum`** — Theorem 7's staged reduction, deliberately laid out
//!   with a *blocked* per-thread fold: every thread reads
//!   `SUM_TILE_COLS` consecutive shared cells, a hot
//!   stride-`SUM_TILE_COLS` access (the paper's Figure 1 pattern) that
//!   collides in power-of-two banks on every element. Padding, swizzling and transposition all
//!   repair it, so layout knobs genuinely move measured time; the
//!   interleaved stride-doubling tree adds smaller conflicts on top.
//! * **`conv`** — Theorem 9's staged convolution with unit-stride
//!   staging and broadcast tap loads: conflict-free by construction, so
//!   the tuner should discover that layout knobs are neutral-to-harmful
//!   there and the wins come from launch width and unrolling.

use hmm_analysis::ThetaTerms;
use hmm_lang::ast::helpers::{
    add, dmm, imm, immu, ld_global, ld_shared, lt, ltid, max_, min_, mul, pd, select, sub, v,
};
use hmm_lang::{required_shared_all, CompileError, KernelBuilder, Transform};
use hmm_machine::isa::Space;
use hmm_machine::{Kernel, Word};
use hmm_workloads::random_words;

use crate::space::Candidate;

/// Shared words per DMM the tuner is willing to configure — the bound a
/// real GPU's shared memory imposes on the search space.
pub const SHARED_CAP: usize = 16_384;

/// Global words the tuner is willing to configure.
pub const GLOBAL_CAP: usize = 1 << 22;

/// Taps of the tunable convolution kernel.
pub const CONV_TAPS: usize = 8;

/// Why a candidate cannot be instantiated for a kernel. Infeasible
/// candidates are reported, never simulated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// The candidate violates a structural requirement of the kernel.
    Infeasible(String),
    /// A layout transform rejected the kernel or its parameters.
    Transform(hmm_lang::TransformError),
    /// The transformed kernel does not compile.
    Compile(CompileError),
}

impl From<CompileError> for BuildError {
    fn from(e: CompileError) -> Self {
        match e {
            CompileError::Transform(t) => BuildError::Transform(t),
            e => BuildError::Compile(e),
        }
    }
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::Infeasible(m) => write!(f, "{m}"),
            BuildError::Transform(e) => write!(f, "transform: {e}"),
            BuildError::Compile(e) => write!(f, "compile: {e}"),
        }
    }
}

impl std::error::Error for BuildError {}

/// A kernel instantiated for one candidate: everything the measure
/// stage needs to build a machine, run it, and check the answer.
#[derive(Debug, Clone)]
pub struct TunedKernel {
    /// The compiled kernel, named after the candidate id.
    pub kernel: Kernel,
    /// Threads to launch (`candidate.p()`).
    pub threads: usize,
    /// Global words the machine needs.
    pub global_size: usize,
    /// Shared words per DMM the machine needs (after transforms).
    pub shared_size: usize,
    /// Where the input vector is loaded in global memory.
    pub input_base: usize,
    /// Where the output lives in global memory after the launch.
    pub out_base: usize,
    /// Output words.
    pub out_len: usize,
    /// The candidate's Θ-shape for the static cost model.
    pub theta: ThetaTerms,
}

/// An algorithm family the tuner can search over.
pub trait Tunable: Sync {
    /// Family name (`sum`, `conv`).
    fn name(&self) -> &'static str;
    /// Problem size used when the caller does not pick one.
    fn default_n(&self) -> usize;
    /// Deterministic input vector for `(n, seed)`.
    fn input(&self, n: usize, seed: u64) -> Vec<Word>;
    /// Sequential reference output for `input`.
    fn reference(&self, input: &[Word]) -> Vec<Word>;
    /// Instantiate the kernel for `candidate` at problem size `n`.
    ///
    /// # Errors
    /// [`BuildError`] when the candidate is structurally infeasible,
    /// a transform rejects it, or the transformed kernel does not compile.
    fn build(&self, candidate: &Candidate, n: usize) -> Result<TunedKernel, BuildError>;
}

/// Look up a tunable family by name.
#[must_use]
pub fn tunable(name: &str) -> Option<Box<dyn Tunable>> {
    match name {
        "sum" => Some(Box::new(SumTunable)),
        "conv" | "convolution" => Some(Box::new(ConvTunable)),
        _ => None,
    }
}

/// Names of all tunable families (for CLI help and errors).
#[must_use]
pub fn tunable_names() -> &'static [&'static str] {
    &["sum", "conv"]
}

/// The candidate's layout knobs as a transform list over a kernel whose
/// primary shared region is `region` words in `rows × cols` shape.
/// Order: schedule first (unroll), then address remaps coarse-to-fine
/// (transpose, pad, swizzle).
fn knob_transforms(c: &Candidate, rows: usize, cols: usize) -> Vec<Transform> {
    let mut ts = Vec::new();
    if c.unroll > 1 {
        ts.push(Transform::UnrollStrided { factor: c.unroll });
    }
    if c.transpose {
        ts.push(Transform::TransposeShared { rows, cols });
    }
    if c.pad > 0 {
        ts.push(Transform::PadShared {
            period: c.w,
            pad: c.pad,
        });
    }
    if c.swizzle {
        ts.push(Transform::SwizzleShared { width: c.w });
    }
    ts
}

fn check_caps(shared: usize, global: usize) -> Result<(), BuildError> {
    if shared > SHARED_CAP {
        return Err(BuildError::Infeasible(format!(
            "needs {shared} shared words per DMM (cap {SHARED_CAP})"
        )));
    }
    if global > GLOBAL_CAP {
        return Err(BuildError::Infeasible(format!(
            "needs {global} global words (cap {GLOBAL_CAP})"
        )));
    }
    Ok(())
}

fn lg2(x: usize) -> f64 {
    (x.max(1) as f64).log2()
}

/// Columns each thread folds from one staged tile — sets the stride of
/// the deliberately conflicted shared reads. Equal to the default bank
/// count, so at `w = 8` every warp's fold read fully serializes.
pub const SUM_TILE_COLS: usize = 8;

/// Theorem 7's staged sum, deliberately laid out with a blocked
/// (stride-`SUM_TILE_COLS`) shared fold.
///
/// Layout: input in `G[0, n)`, result at `G[n]`, per-DMM partials at
/// `G[n+1, n+1+d)`. Each DMM loops over tiles of `pd · SUM_TILE_COLS`
/// words: stage the tile coalesced into shared memory, then every
/// thread folds its `SUM_TILE_COLS` *consecutive* cells — the hot
/// stride-`SUM_TILE_COLS` read of the paper's Figure 1 that collides in
/// power-of-two banks on every element, which padding/swizzling repair. Partials
/// then go through the interleaved stride-doubling tree (the first
/// `pd/2h` threads do `S[2h·ltid] += S[2h·ltid+h]`), DMM leaders
/// publish to global, and DMM 0 folds the `d` partials.
struct SumTunable;

impl SumTunable {
    fn kernel(n: usize, c: &Candidate) -> KernelBuilder {
        let pdv = c.pd();
        let tile = pdv * SUM_TILE_COLS;
        let mut k = KernelBuilder::new();
        let q = k.var();
        let acc = k.var();
        let j = k.var();
        let j2 = k.var();
        let base = k.var();
        let len = k.var();
        // Phase 1: tiled staged accumulation. All threads of a DMM
        // share `base`, so the in-loop barriers are uniform.
        k.set(acc, imm(0));
        k.for_strided(
            base,
            mul(dmm(), immu(tile)),
            immu(n),
            immu(c.d * tile),
            |k| {
                k.set(len, min_(immu(tile), sub(immu(n), v(base))));
                k.for_strided(q, ltid(), v(len), pd(), |k| {
                    k.store(Space::Shared, v(q), ld_global(add(v(base), v(q))));
                });
                k.bar_dmm();
                k.for_strided(j, imm(0), immu(SUM_TILE_COLS), imm(1), |k| {
                    let idx = add(mul(ltid(), immu(SUM_TILE_COLS)), v(j));
                    k.if_(lt(idx.clone(), v(len)), |k| {
                        k.set(acc, add(v(acc), ld_shared(idx)));
                    });
                });
                k.bar_dmm();
            },
        );
        // Phase 2: park partials in shared memory.
        k.store(Space::Shared, ltid(), v(acc));
        k.bar_dmm();
        // Phase 3: interleaved stride-doubling tree. The first
        // pd/(2h) threads access S[2h·ltid], so one warp's addresses
        // walk the banks with stride 2h — the classic power-of-two
        // collisions that pad/swizzle repair. The addresses stay
        // ltid-affine, so the conflict predictor prices them exactly.
        let mut h = 1usize;
        while h < pdv {
            let active = pdv / (2 * h);
            k.if_(lt(ltid(), immu(active)), |k| {
                let a0 = mul(ltid(), immu(2 * h));
                k.store(
                    Space::Shared,
                    a0.clone(),
                    add(ld_shared(a0.clone()), ld_shared(add(a0, immu(h)))),
                );
            });
            k.bar_dmm();
            h *= 2;
        }
        // Phase 4: DMM leaders publish their partial sum.
        k.if_(hmm_lang::ast::helpers::eq(ltid(), imm(0)), |k| {
            k.store(Space::Global, add(immu(n + 1), dmm()), ld_shared(imm(0)));
        });
        k.bar_global();
        // Phase 5: DMM 0 stages the d partials into shared memory and
        // its leader folds them into the final result at G[n].
        k.if_(hmm_lang::ast::helpers::eq(dmm(), imm(0)), |k| {
            k.for_strided(j, ltid(), immu(c.d), pd(), |k| {
                k.store(Space::Shared, v(j), ld_global(add(immu(n + 1), v(j))));
            });
            k.bar_dmm();
            k.if_(hmm_lang::ast::helpers::eq(ltid(), imm(0)), |k| {
                k.set(acc, imm(0));
                k.for_strided(j2, imm(0), immu(c.d), imm(1), |k| {
                    k.set(acc, add(v(acc), ld_shared(v(j2))));
                });
                k.store(Space::Global, immu(n), v(acc));
            });
        });
        k
    }
}

impl Tunable for SumTunable {
    fn name(&self) -> &'static str {
        "sum"
    }

    fn default_n(&self) -> usize {
        4096
    }

    fn input(&self, n: usize, seed: u64) -> Vec<Word> {
        random_words(n, seed, 999)
    }

    fn reference(&self, input: &[Word]) -> Vec<Word> {
        vec![hmm_algorithms::reference::sum(input).value]
    }

    fn build(&self, c: &Candidate, n: usize) -> Result<TunedKernel, BuildError> {
        if n == 0 {
            return Err(BuildError::Infeasible("n must be ≥ 1".into()));
        }
        let pdv = c.pd();
        if !pdv.is_power_of_two() {
            return Err(BuildError::Infeasible(format!(
                "threads per DMM (warps·w = {pdv}) must be a power of two for the tree phase"
            )));
        }
        // The primary shared region is the staged tile, a pd-row ×
        // SUM_TILE_COLS-column block read row-major: transpose flips it
        // to the conflict-free strided walk.
        let tile = pdv * SUM_TILE_COLS;
        let transforms = knob_transforms(c, pdv, SUM_TILE_COLS);
        let shared_base = tile.max(c.d);
        let shared_size = required_shared_all(shared_base, &transforms).max(1);
        let global_size = n + 1 + c.d;
        check_caps(shared_size, global_size)?;

        let program = Self::kernel(n, c).compile_with(&transforms)?;

        let (nf, pf, wf, lf, df) = (n as f64, c.p() as f64, c.w as f64, c.l as f64, c.d as f64);
        let theta = ThetaTerms {
            // Streamed input pass: n/w coalesced transactions plus the
            // per-thread latency term of Lemma 1.
            global: nf / wf + nf * lf / pf,
            // Tile staging writes and fold reads on the d parallel
            // shared pipes, then tree levels and the partial staging.
            shared: 2.0 * nf / (df * wf) + 2.0 * lg2(pdv) + df,
            // Latency tail, per-element instruction overhead (unrolling
            // shrinks the loop-control share), tree and fold overhead.
            fixed: 2.0 * lf
                + (nf / pf) * (6.0 + 6.0 / c.unroll as f64)
                + 5.0 * lg2(pdv)
                + df
                + 20.0,
        };

        Ok(TunedKernel {
            kernel: Kernel::new(format!("tune-sum-{}", c.id()), program),
            threads: c.p(),
            global_size,
            shared_size,
            input_base: 0,
            out_base: n,
            out_len: 1,
            theta,
        })
    }
}

/// Theorem 9's staged convolution (`CONV_TAPS` taps).
///
/// Layout: taps in `G[0, K)`, signal `b` (length `n+K−1`) at `G[K)`,
/// output `c` (length `n`) at `G[K+n+K−1)`. Each DMM stages the taps
/// plus its `m = ⌈n/d⌉`-wide window of `b` into shared memory, then
/// computes its slice of `c` with broadcast tap loads and unit-stride
/// window loads — conflict-free by construction.
struct ConvTunable;

impl ConvTunable {
    #[allow(clippy::many_single_char_names)]
    fn kernel(n: usize, c: &Candidate) -> KernelBuilder {
        let k_taps = CONV_TAPS;
        let m = n.div_ceil(c.d);
        let c_base = k_taps + n + k_taps - 1;
        let mut k = KernelBuilder::new();
        let i = k.var();
        let j = k.var();
        let acc = k.var();
        let lenb = k.var();
        let gb = k.var();
        // This DMM's window: c[dmm·m, dmm·m + lenb), reading
        // b[dmm·m + i + j] = G[gb + i + j].
        k.set(gb, add(immu(k_taps), mul(dmm(), immu(m))));
        k.set(
            lenb,
            max_(imm(0), min_(immu(m), sub(immu(n), mul(dmm(), immu(m))))),
        );
        // Stage the taps: S[0, K).
        k.for_strided(i, ltid(), immu(k_taps), pd(), |k| {
            k.store(Space::Shared, v(i), ld_global(v(i)));
        });
        // Stage the b window: S[K, K + lenb + K − 1). A DMM with an
        // empty slice stages nothing (the select), so no thread ever
        // reads past the end of b.
        let stage_len = select(v(lenb), add(v(lenb), immu(k_taps - 1)), imm(0));
        k.for_strided(i, ltid(), stage_len, pd(), |k| {
            k.store(
                Space::Shared,
                add(immu(k_taps), v(i)),
                ld_global(add(v(gb), v(i))),
            );
        });
        k.bar_dmm();
        // Compute: c[dmm·m + i] = Σ_j taps[j] · window[i + j].
        k.for_strided(i, ltid(), v(lenb), pd(), |k| {
            k.set(acc, imm(0));
            k.for_strided(j, imm(0), immu(k_taps), imm(1), |k| {
                k.set(
                    acc,
                    add(
                        v(acc),
                        mul(
                            ld_shared(v(j)),
                            ld_shared(add(immu(k_taps), add(v(i), v(j)))),
                        ),
                    ),
                );
            });
            k.store(
                Space::Global,
                add(immu(c_base), add(mul(dmm(), immu(m)), v(i))),
                v(acc),
            );
        });
        k
    }
}

impl Tunable for ConvTunable {
    fn name(&self) -> &'static str {
        "conv"
    }

    fn default_n(&self) -> usize {
        1024
    }

    fn input(&self, n: usize, seed: u64) -> Vec<Word> {
        let mut input = random_words(CONV_TAPS, seed ^ 0xA5A5, 9);
        input.extend(random_words(n + CONV_TAPS - 1, seed ^ 0x5A5A, 99));
        input
    }

    fn reference(&self, input: &[Word]) -> Vec<Word> {
        hmm_algorithms::reference::convolution(&input[..CONV_TAPS], &input[CONV_TAPS..]).value
    }

    fn build(&self, c: &Candidate, n: usize) -> Result<TunedKernel, BuildError> {
        if n == 0 {
            return Err(BuildError::Infeasible("n must be ≥ 1".into()));
        }
        let k_taps = CONV_TAPS;
        let m = n.div_ceil(c.d);
        let shared_base = k_taps + m + k_taps - 1;
        let transforms = knob_transforms(c, shared_base.div_ceil(c.w), c.w);
        let shared_size = required_shared_all(shared_base, &transforms).max(1);
        let out_base = k_taps + n + k_taps - 1;
        let global_size = out_base + n;
        check_caps(shared_size, global_size)?;

        let program = Self::kernel(n, c).compile_with(&transforms)?;

        let (nf, pf, wf, lf, kf, mf) = (
            n as f64,
            c.p() as f64,
            c.w as f64,
            c.l as f64,
            k_taps as f64,
            m as f64,
        );
        let pdv = c.pd() as f64;
        let staged = 2.0 * nf + 2.0 * kf * c.d as f64;
        let theta = ThetaTerms {
            // Stage-in reads plus stage-out writes, coalesced.
            global: staged / wf + staged * lf / pf,
            // 2k shared loads per output element plus the staging
            // writes, on the per-DMM pipes.
            shared: (2.0 * kf * mf + mf + 2.0 * kf) / wf,
            // Latency tail plus inner-loop instruction overhead; the
            // loop-control share shrinks with the unroll factor.
            fixed: 2.0 * lf
                + (kf * mf / pdv) * (4.0 + 4.0 / c.unroll as f64)
                + (mf / pdv) * 6.0
                + 30.0,
        };

        Ok(TunedKernel {
            kernel: Kernel::new(format!("tune-conv-{}", c.id()), program),
            threads: c.p(),
            global_size,
            shared_size,
            input_base: 0,
            out_base,
            out_len: n,
            theta,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::TuneSpace;
    use hmm_machine::{LaunchShape, Machine};

    fn run(t: &dyn Tunable, c: &Candidate, n: usize, seed: u64) -> (Vec<Word>, u64) {
        let tk = t.build(c, n).unwrap();
        let input = t.input(n, seed);
        let mut m = Machine::hmm(c.d, c.w, c.l, tk.global_size, tk.shared_size);
        m.load_global(tk.input_base, &input);
        let report = m.launch(&tk.kernel, LaunchShape::Even(tk.threads)).unwrap();
        let out = m.global()[tk.out_base..tk.out_base + tk.out_len].to_vec();
        (out, report.time)
    }

    #[test]
    fn sum_baseline_matches_reference() {
        let t = tunable("sum").unwrap();
        let c = TuneSpace::default().baseline();
        let n = 500; // not a multiple of p, exercises ragged strides
        let (out, time) = run(t.as_ref(), &c, n, 42);
        assert_eq!(out, t.reference(&t.input(n, 42)));
        assert!(time > 0);
    }

    #[test]
    fn sum_layout_knobs_preserve_the_answer_and_change_time() {
        let t = tunable("sum").unwrap();
        // pd = 32 over w = 8 banks: the blocked stride-8 fold collides
        // on every staged element.
        let base = Candidate {
            warps: 4,
            ..TuneSpace::default().baseline()
        };
        let n = 512;
        let expect = t.reference(&t.input(n, 7));
        let (out_base, time_base) = run(t.as_ref(), &base, n, 7);
        assert_eq!(out_base, expect);
        for (label, fixed) in [
            ("pad", Candidate { pad: 1, ..base }),
            (
                "swizzle",
                Candidate {
                    swizzle: true,
                    ..base
                },
            ),
        ] {
            let (out, time) = run(t.as_ref(), &fixed, n, 7);
            assert_eq!(out, expect, "{label}");
            // The hot fold conflict dominates the remap's instruction
            // overhead: these layout repairs must be measured wins.
            assert!(time < time_base, "{label} {time} vs base {time_base}");
        }
        // Transpose fixes the fold reads but moves the conflict onto
        // the staging writes, so it preserves the answer while costing
        // time — exactly the kind of trade the tuner exists to measure.
        let tr = Candidate {
            transpose: true,
            ..base
        };
        let (out_tr, time_tr) = run(t.as_ref(), &tr, n, 7);
        assert_eq!(out_tr, expect);
        assert_ne!(time_tr, time_base);
    }

    #[test]
    fn conv_candidates_match_reference() {
        let t = tunable("conv").unwrap();
        let base = TuneSpace::default().baseline();
        // n chosen so d does not divide it: the last DMM has a short
        // slice and one DMM is idle at d=4, n=13 → m=4.
        for n in [13, 64] {
            let expect = t.reference(&t.input(n, 3));
            for c in [
                base,
                Candidate { unroll: 2, ..base },
                Candidate {
                    pad: 1,
                    swizzle: true,
                    ..base
                },
                Candidate {
                    transpose: true,
                    ..base
                },
            ] {
                let (out, _) = run(t.as_ref(), &c, n, 3);
                assert_eq!(out, expect, "{} n={n}", c.id());
            }
        }
    }

    #[test]
    fn infeasible_candidates_are_rejected_not_built() {
        let t = tunable("sum").unwrap();
        let odd = Candidate {
            w: 6,
            warps: 1,
            ..TuneSpace::default().baseline()
        };
        assert!(matches!(t.build(&odd, 64), Err(BuildError::Infeasible(_))));
        // Swizzle requires a power-of-two width: surfaces as a
        // transform rejection.
        let odd_swz = Candidate {
            w: 6,
            warps: 1,
            swizzle: true,
            ..TuneSpace::default().baseline()
        };
        assert!(t.build(&odd_swz, 64).is_err());
        let err = BuildError::Infeasible("x".into());
        assert_eq!(err.to_string(), "x");
    }

    #[test]
    fn lookup_by_name() {
        assert!(tunable("sum").is_some());
        assert!(tunable("conv").is_some());
        assert!(tunable("convolution").is_some());
        assert!(tunable("sort").is_none());
        assert_eq!(tunable_names(), &["sum", "conv"]);
    }
}
