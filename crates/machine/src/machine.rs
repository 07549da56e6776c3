//! The machine: its configuration, its memories and the kernel launch.
//!
//! One engine simulates all three of the paper's machines:
//!
//! * **DMM of width `w`, latency `l`** — one memory with the `Banked`
//!   conflict policy (`EngineConfig::dmm`).
//! * **UMM of width `w`, latency `l`** — one memory with the `Coalesced`
//!   policy (`EngineConfig::umm`).
//! * **HMM with `d` DMMs** — `d` latency-1 `Banked` shared memories plus
//!   one latency-`l` `Coalesced` global memory whose single pipeline is
//!   shared by the warps of every DMM (`EngineConfig::hmm`), exactly the
//!   architecture of the paper's Figure 2.
//!
//! ## Timing semantics (paper Section II–III)
//!
//! Time advances in discrete units. Per time unit:
//!
//! * every runnable thread executes one instruction (threads are RAMs that
//!   "execute fundamental operations in a time unit");
//! * each memory dispatches **one pipeline slot**; a warp transaction that
//!   serialises into `s` slots occupies `s` consecutive units of that
//!   memory's pipeline, and requests dispatched at unit `t` complete at the
//!   end of unit `t + l − 1` — so `k` accesses to one bank cost `k + l − 1`
//!   units, as stated in the paper;
//! * a thread that issued a request is blocked until its own request
//!   completes ("a thread cannot send a new memory access request until
//!   the previous memory access request is completed");
//! * warps are dispatched for memory access in turn (round-robin via FIFO
//!   arrival order), and warps that need no access are never dispatched.
//!
//! The headline consequence, which all of the paper's Θ-bounds rely on, is
//! that with enough warps in flight the pipeline hides latency: `p` threads
//! streaming `n` contiguous words achieve `O(n/w + nl/p + l)` time — see
//! `hmm-algorithms::contiguous` for the measured reproduction of Lemma 1
//! and Theorem 2.

use crate::abi;
use crate::error::{SimError, SimResult};
use crate::exec;
use crate::isa::Program;
use crate::profile::LaunchProfile;
use crate::request::ConflictPolicy;
use crate::stats::SimReport;
use crate::trace::Trace;
use crate::word::Word;

/// Static description of a machine.
#[derive(Debug, Clone)]
#[allow(clippy::struct_excessive_bools)] // independent feature knobs, not encoded state
pub struct EngineConfig {
    /// Number of DMMs `d` (1 for the standalone machines).
    pub dmms: usize,
    /// Width `w`: warp size, bank count and address-group size.
    pub width: usize,
    /// Latency `l` of the global memory.
    pub global_latency: usize,
    /// Conflict policy of the global memory.
    pub global_policy: ConflictPolicy,
    /// Capacity of the global memory in words.
    pub global_size: usize,
    /// Capacity of each shared memory in words (0 disables shared memory,
    /// as on the standalone DMM / UMM machines).
    pub shared_size: usize,
    /// When `false`, a memory waits out the full latency after each slot
    /// instead of pipelining — the ablation knob for the latency-hiding
    /// claim.
    pub pipelined: bool,
    /// Extra time units between a barrier's last arrival and its release.
    /// The paper charges 0; reference \[20\] studies machines where
    /// synchronisation is not free — this knob reproduces that ablation.
    pub barrier_cost: u64,
    /// Hard stop: abort with [`SimError::CycleLimit`] beyond this.
    pub max_cycles: u64,
    /// Record a [`Trace`] of dispatches/completions/barriers.
    pub trace: bool,
    /// Cap the number of retained trace events per run; events beyond
    /// the cap are counted in [`Trace::dropped_events`]. `None` (the
    /// default) keeps every event.
    pub trace_capacity: Option<usize>,
    /// Account every thread-cycle into a [`crate::profile::LaunchProfile`]
    /// (collected via [`Machine::take_profiles`]).
    pub profile: bool,
    /// Upper bound on the number of time buckets in profile timelines;
    /// the bucket width doubles as a run outgrows it.
    pub profile_buckets: usize,
    /// Event-driven clock: when no thread issues next unit, jump straight
    /// to the next issue, pipeline completion or dispatch opportunity
    /// instead of walking the clock one unit at a time. Semantically invisible — reports
    /// (except `SimReport::skipped_units`), traces, profiles and races
    /// are bit-identical either way; only wall-clock time changes. On by
    /// default; off exists only as the reference clock of the
    /// differential test (`tests/fast_forward_vs_step.rs`), the pins of
    /// out-of-step lanes (`crates/machine/tests/local_runs.rs`) and the
    /// engine bench.
    #[doc(hidden)]
    pub fast_forward: bool,
}

/// Default cap on profile-timeline buckets (see
/// [`EngineConfig::profile_buckets`]).
pub const DEFAULT_PROFILE_BUCKETS: usize = 64;

impl EngineConfig {
    /// A standalone Discrete Memory Machine of width `w` and latency `l`.
    /// Its single banked memory is addressed through
    /// [`Space::Global`](crate::isa::Space::Global).
    #[must_use]
    pub fn dmm(width: usize, latency: usize, size: usize) -> Self {
        Self {
            dmms: 1,
            width,
            global_latency: latency,
            global_policy: ConflictPolicy::Banked,
            global_size: size,
            shared_size: 0,
            pipelined: true,
            barrier_cost: 0,
            max_cycles: u64::MAX,
            trace: false,
            trace_capacity: None,
            profile: false,
            profile_buckets: DEFAULT_PROFILE_BUCKETS,
            fast_forward: true,
        }
    }

    /// A standalone Unified Memory Machine of width `w` and latency `l`.
    /// Its single coalescing memory is addressed through
    /// [`Space::Global`](crate::isa::Space::Global).
    #[must_use]
    pub fn umm(width: usize, latency: usize, size: usize) -> Self {
        Self {
            global_policy: ConflictPolicy::Coalesced,
            ..Self::dmm(width, latency, size)
        }
    }

    /// The Hierarchical Memory Machine: `d` DMMs with latency-1 shared
    /// memories of `shared_size` words each, plus a latency-`l` global
    /// memory of `global_size` words behind a single shared pipeline.
    #[must_use]
    pub fn hmm(
        dmms: usize,
        width: usize,
        latency: usize,
        global_size: usize,
        shared_size: usize,
    ) -> Self {
        Self {
            dmms,
            width,
            global_latency: latency,
            global_policy: ConflictPolicy::Coalesced,
            global_size,
            shared_size,
            pipelined: true,
            barrier_cost: 0,
            max_cycles: u64::MAX,
            trace: false,
            trace_capacity: None,
            profile: false,
            profile_buckets: DEFAULT_PROFILE_BUCKETS,
            fast_forward: true,
        }
    }

    /// Reject a machine no launch can run on: no DMM, width 0 or latency 0.
    fn validate(&self) -> SimResult<()> {
        if self.dmms == 0 {
            return Err(SimError::BadLaunch("machine needs at least one DMM".into()));
        }
        if self.width == 0 {
            return Err(SimError::BadLaunch("width must be positive".into()));
        }
        if self.global_latency == 0 {
            return Err(SimError::BadLaunch("latency must be at least 1".into()));
        }
        Ok(())
    }
}

/// A compiled kernel: one program executed by every launched thread
/// (CUDA-style SPMD), with the argument words preset into each thread's
/// argument registers.
#[derive(Debug, Clone)]
pub struct Kernel {
    /// Human-readable name, used in reports and benchmark labels.
    pub name: String,
    /// The program.
    pub program: Program,
    /// Up to [`abi::NUM_ARGS`] words preset into the argument registers
    /// of every thread.
    pub args: Vec<Word>,
}

impl Kernel {
    /// A named kernel with no argument words.
    #[must_use]
    pub fn new(name: impl Into<String>, program: Program) -> Self {
        Self {
            name: name.into(),
            program,
            args: Vec::new(),
        }
    }
}

/// How threads are distributed over the machine's DMMs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LaunchShape {
    /// `p` threads spread as evenly as possible over all DMMs (the first
    /// `p mod d` DMMs get one more).
    Even(usize),
    /// `p` threads all on DMM 0 (the paper's Lemma 6 configuration).
    OnDmm0(usize),
    /// Explicit per-DMM thread counts.
    PerDmm(Vec<usize>),
}

impl LaunchShape {
    /// The thread count of each of `dmms` DMMs (`dmms >= 1`).
    fn into_threads_per_dmm(self, dmms: usize) -> SimResult<Vec<usize>> {
        Ok(match self {
            LaunchShape::Even(p) => (0..dmms)
                .map(|j| p / dmms + usize::from(j < p % dmms))
                .collect(),
            LaunchShape::OnDmm0(p) => {
                let mut counts = vec![0; dmms];
                counts[0] = p;
                counts
            }
            LaunchShape::PerDmm(counts) => {
                if counts.len() != dmms {
                    return Err(SimError::BadLaunch(format!(
                        "PerDmm names {} DMMs, machine has {dmms}",
                        counts.len()
                    )));
                }
                counts
            }
        })
    }

    /// Total threads requested.
    #[must_use]
    pub fn total_threads(&self) -> usize {
        match self {
            LaunchShape::Even(p) | LaunchShape::OnDmm0(p) => *p,
            LaunchShape::PerDmm(v) => v.iter().sum(),
        }
    }
}

/// One shared-memory race observed by the engine's dynamic checker:
/// two warps of one DMM touched the same address within one barrier
/// interval, at least one of them writing. Such programs have
/// schedule-dependent results under the paper's model; the engine logs
/// them (it never aborts) so `hmm-analysis` predictions can be
/// corroborated at runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DynamicRace {
    /// The DMM whose shared memory raced.
    pub dmm: usize,
    /// The contested address.
    pub addr: usize,
    /// Warp id of the earlier access.
    pub warp_a: usize,
    /// Warp id of the later, conflicting access.
    pub warp_b: usize,
}

/// Cap on the number of [`DynamicRace`] entries retained per run (the
/// `shared_races` counter in [`SimReport`] is not capped).
pub const MAX_LOGGED_RACES: usize = 64;

/// Compatibility shim: every launch runs on the calling thread, so the
/// only setting is `Sequential`. Exists only for the `perfbench` harness,
/// which names it, and goes with the next change to that harness.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Parallelism {
    /// One thread: the only driver there is.
    Sequential,
}

impl Parallelism {
    /// Worker threads stepping a launch on `_dmms` DMMs: always 1.
    #[must_use]
    pub fn workers(self, _dmms: usize) -> usize {
        match self {
            Parallelism::Sequential => 1,
        }
    }
}

/// A simulated machine: configuration plus persistent memory contents.
///
/// Memory contents persist across [`Machine::launch`] calls so that hosts
/// can stage inputs, launch a kernel, inspect results, and launch
/// follow-up kernels — mirroring how the paper's multi-step algorithms
/// compose. Host accesses to the memories are free, exactly as the paper
/// assumes the input "is stored in the global memory" before the
/// algorithm starts.
pub struct Machine {
    cfg: EngineConfig,
    global: Vec<Word>,
    shared: Vec<Vec<Word>>,
    trace: Option<Trace>,
    races: Vec<DynamicRace>,
    profiles: Vec<LaunchProfile>,
}

impl Machine {
    /// Build a machine from its configuration, with zeroed memories. A
    /// degenerate configuration (no DMM, width 0 or latency 0) is
    /// rejected by [`Machine::launch`].
    #[must_use]
    pub fn new(cfg: EngineConfig) -> Self {
        let global = vec![0; cfg.global_size];
        let shared = (0..cfg.dmms).map(|_| vec![0; cfg.shared_size]).collect();
        Self {
            cfg,
            global,
            shared,
            trace: None,
            races: Vec::new(),
            profiles: Vec::new(),
        }
    }

    /// A Discrete Memory Machine of width `w`, latency `l` and `size`
    /// memory words. Its single banked memory is addressed through
    /// [`Space::Global`](crate::isa::Space::Global).
    #[must_use]
    pub fn dmm(w: usize, l: usize, size: usize) -> Self {
        Self::new(EngineConfig::dmm(w, l, size))
    }

    /// A Unified Memory Machine of width `w`, latency `l` and `size`
    /// memory words.
    #[must_use]
    pub fn umm(w: usize, l: usize, size: usize) -> Self {
        Self::new(EngineConfig::umm(w, l, size))
    }

    /// A Hierarchical Memory Machine with `d` DMMs, width `w`, global
    /// latency `l`, `global_size` words of global memory and `shared_size`
    /// words of shared memory per DMM.
    #[must_use]
    pub fn hmm(d: usize, w: usize, l: usize, global_size: usize, shared_size: usize) -> Self {
        Self::new(EngineConfig::hmm(d, w, l, global_size, shared_size))
    }

    /// Width `w`.
    #[must_use]
    pub fn width(&self) -> usize {
        self.cfg.width
    }

    /// Global latency `l`.
    #[must_use]
    pub fn latency(&self) -> usize {
        self.cfg.global_latency
    }

    /// Number of DMMs `d`.
    #[must_use]
    pub fn dmms(&self) -> usize {
        self.cfg.dmms
    }

    /// Read-only view of the global memory.
    #[must_use]
    pub fn global(&self) -> &[Word] {
        &self.global
    }

    /// Host-writable view of the global memory (input staging).
    pub fn global_mut(&mut self) -> &mut [Word] {
        &mut self.global
    }

    /// Copy `data` into global memory starting at `addr`.
    ///
    /// # Panics
    /// Panics if the slice does not fit.
    pub fn load_global(&mut self, addr: usize, data: &[Word]) {
        self.global[addr..addr + data.len()].copy_from_slice(data);
    }

    /// Zero the whole global memory (fresh-input hygiene between runs).
    pub fn clear_global(&mut self) {
        self.global.fill(0);
    }

    /// Read-only view of DMM `d`'s shared memory (HMM only).
    #[must_use]
    pub fn shared(&self, d: usize) -> &[Word] {
        &self.shared[d]
    }

    /// Capacity of each shared memory in words (0 on the standalone
    /// DMM / UMM machines).
    #[must_use]
    pub fn shared_capacity(&self) -> usize {
        self.cfg.shared_size
    }

    /// Compatibility shim: the machine itself. Exists only for the
    /// `perfbench` harness, which names it, and goes with the next change
    /// to that harness.
    #[doc(hidden)]
    pub fn engine_mut(&mut self) -> &mut Self {
        self
    }

    /// Abort any launch that exceeds `limit` simulated time units
    /// (builder style; memory contents are kept). Useful as a watchdog
    /// around untrusted kernels.
    #[must_use]
    pub fn with_cycle_limit(mut self, limit: u64) -> Self {
        self.cfg.max_cycles = limit;
        self
    }

    /// Compatibility no-op: every launch runs on the calling thread.
    /// Exists only for the `perfbench` harness and goes with the next
    /// change to it.
    #[doc(hidden)]
    #[must_use]
    pub fn with_parallelism(self, _: Parallelism) -> Self {
        self
    }

    /// Enable or disable the event-driven clock (builder style, default
    /// on; memory contents are kept). Off walks every time unit: the
    /// reference clock of the fast-forward differential test and the
    /// engine bench.
    #[doc(hidden)]
    #[must_use]
    pub fn with_fast_forward(mut self, on: bool) -> Self {
        self.cfg.fast_forward = on;
        self
    }

    /// Launch `kernel` with the given thread distribution and simulate it
    /// to completion on the calling thread. A profiled launch's profile
    /// is labelled with the kernel's name.
    ///
    /// # Errors
    /// [`SimError::BadLaunch`] for a degenerate machine (no DMM, width 0
    /// or latency 0) or launch (no thread, a `PerDmm` shape naming another
    /// DMM count, too many argument words); otherwise any [`SimError`]
    /// raised during simulation (bad address, division by zero, a pc
    /// past the end, deadlock, cycle limit, ...). A [`Program`] names only
    /// registers below [`crate::REG_COUNT`], so no launch checks them.
    pub fn launch(&mut self, kernel: &Kernel, shape: LaunchShape) -> SimResult<SimReport> {
        self.cfg.validate()?;
        let threads_per_dmm = shape.into_threads_per_dmm(self.cfg.dmms)?;
        if threads_per_dmm.iter().sum::<usize>() == 0 {
            return Err(SimError::BadLaunch("launch with zero threads".into()));
        }
        if kernel.args.len() > abi::NUM_ARGS {
            return Err(SimError::BadLaunch(format!(
                "{} argument words exceed the {} argument registers",
                kernel.args.len(),
                abi::NUM_ARGS
            )));
        }

        let out = exec::run(
            &self.cfg,
            &kernel.program,
            &threads_per_dmm,
            &kernel.args,
            &mut self.global,
            &mut self.shared,
        )?;
        self.trace = out.trace;
        self.races = out.races;
        if let Some(mut profile) = out.profile {
            profile.label.clone_from(&kernel.name);
            self.profiles.push(profile);
        }
        Ok(out.report)
    }

    /// Take the trace recorded by the most recent launch (if tracing is
    /// enabled).
    pub fn take_trace(&mut self) -> Option<Trace> {
        self.trace.take()
    }

    /// Take the shared-memory races logged by the most recent launch. The
    /// dynamic checker caps the log at [`MAX_LOGGED_RACES`] entries;
    /// `SimReport::shared_races` counts all of them regardless.
    pub fn take_races(&mut self) -> Vec<DynamicRace> {
        std::mem::take(&mut self.races)
    }

    /// Enable or disable event tracing for subsequent launches.
    pub fn set_trace(&mut self, trace: bool) {
        self.cfg.trace = trace;
    }

    /// Bound the retained trace-event count (see
    /// [`EngineConfig::trace_capacity`]).
    pub fn set_trace_capacity(&mut self, capacity: Option<usize>) {
        self.cfg.trace_capacity = capacity;
    }

    /// Enable or disable cycle-accounting profiling for subsequent
    /// launches. Profiles accumulate until [`Machine::take_profiles`]
    /// drains them.
    pub fn set_profiling(&mut self, profile: bool) {
        self.cfg.profile = profile;
    }

    /// Set the profile-timeline bucket cap (see
    /// [`EngineConfig::profile_buckets`]).
    pub fn set_profile_buckets(&mut self, buckets: usize) {
        self.cfg.profile_buckets = buckets.max(1);
    }

    /// Take the profiles accumulated by every profiled launch since the
    /// last drain, labelled with their kernel names, in launch order.
    pub fn take_profiles(&mut self) -> Vec<LaunchProfile> {
        std::mem::take(&mut self.profiles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Asm;

    fn store_gid() -> Kernel {
        let mut a = Asm::new();
        a.st_global(abi::GID, 0, abi::GID);
        a.halt();
        Kernel::new("store-gid", a.finish())
    }

    #[test]
    fn constructors_expose_parameters() {
        let m = Machine::hmm(4, 8, 100, 1024, 128);
        assert_eq!(m.dmms(), 4);
        assert_eq!(m.width(), 8);
        assert_eq!(m.latency(), 100);
    }

    #[test]
    fn launch_shapes_distribute_threads() {
        let mut m = Machine::hmm(2, 4, 2, 64, 32);
        m.launch(&store_gid(), LaunchShape::Even(8)).unwrap();
        assert_eq!(&m.global()[..8], &[0, 1, 2, 3, 4, 5, 6, 7]);

        m.clear_global();
        m.launch(&store_gid(), LaunchShape::PerDmm(vec![3, 5]))
            .unwrap();
        assert_eq!(&m.global()[..8], &[0, 1, 2, 3, 4, 5, 6, 7]);

        let err = m
            .launch(&store_gid(), LaunchShape::PerDmm(vec![1, 2, 3]))
            .unwrap_err();
        assert!(matches!(err, SimError::BadLaunch(_)));
    }

    #[test]
    fn on_dmm0_places_all_threads_on_one_dmm() {
        let mut m = Machine::hmm(4, 4, 2, 64, 32);
        // Kernel records its dmm id: G[gid] = dmm.
        let mut a = Asm::new();
        a.st_global(abi::GID, 0, abi::DMM);
        a.halt();
        let k = Kernel::new("store-dmm", a.finish());
        m.launch(&k, LaunchShape::OnDmm0(8)).unwrap();
        assert!(m.global()[..8].iter().all(|&v| v == 0));
        assert_eq!(LaunchShape::OnDmm0(8).total_threads(), 8);
        assert_eq!(LaunchShape::PerDmm(vec![2, 3]).total_threads(), 5);
    }

    #[test]
    fn cycle_limit_watchdog_fires() {
        let mut m = Machine::umm(4, 2, 16).with_cycle_limit(100);
        // An infinite loop.
        let mut a = Asm::new();
        let top = a.here();
        a.jmp(top);
        let err = m
            .launch(&Kernel::new("spin", a.finish()), LaunchShape::Even(4))
            .unwrap_err();
        assert_eq!(err, SimError::CycleLimit { limit: 100 });
    }

    #[test]
    fn profiled_launch_is_labelled_and_conserved() {
        let mut m = Machine::hmm(2, 4, 2, 64, 32);
        m.set_profiling(true);
        let report = m.launch(&store_gid(), LaunchShape::Even(8)).unwrap();
        let profiles = m.take_profiles();
        assert_eq!(profiles.len(), 1);
        assert_eq!(profiles[0].label, "store-gid");
        assert!(profiles[0].is_conserved());
        assert_eq!(profiles[0].thread_cycles(), 8 * report.time);
        // Taking drains; an unprofiled launch adds nothing.
        m.set_profiling(false);
        m.launch(&store_gid(), LaunchShape::Even(8)).unwrap();
        assert!(m.take_profiles().is_empty());
    }

    #[test]
    fn load_global_stages_inputs() {
        let mut m = Machine::dmm(4, 1, 16);
        m.load_global(4, &[9, 8, 7]);
        assert_eq!(&m.global()[4..7], &[9, 8, 7]);
        m.clear_global();
        assert!(m.global().iter().all(|&v| v == 0));
    }
}
