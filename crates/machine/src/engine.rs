//! The machine engine: warps, pipelined MMUs, barriers, and the clock.
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
use crate::bank::BankedMemory;
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
    /// (collected via [`Engine::take_profiles`]).
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

/// A kernel launch: the (single, CUDA-style) program every thread runs,
/// the thread count per DMM, and up to [`abi::NUM_ARGS`] argument words.
#[derive(Debug, Clone)]
pub struct LaunchSpec {
    /// The program shared by all threads.
    pub program: Program,
    /// `threads_per_dmm[j]` threads run on DMM `j`.
    pub threads_per_dmm: Vec<usize>,
    /// Words preset into the argument registers of every thread.
    pub args: Vec<Word>,
}

impl LaunchSpec {
    /// A launch distributing `p` threads as evenly as possible over the
    /// `d` DMMs of the target machine (first `p mod d` DMMs get one more).
    #[must_use]
    pub fn even(program: Program, p: usize, d: usize, args: Vec<Word>) -> Self {
        let base = p / d;
        let extra = p % d;
        let threads_per_dmm = (0..d).map(|j| base + usize::from(j < extra)).collect();
        Self {
            program,
            threads_per_dmm,
            args,
        }
    }

    /// A launch placing all `p` threads on DMM 0 of a `d`-DMM machine
    /// (used by the paper's Lemma 6 "straightforward" algorithm).
    #[must_use]
    pub fn on_dmm0(program: Program, p: usize, d: usize, args: Vec<Word>) -> Self {
        let mut threads_per_dmm = vec![0; d];
        threads_per_dmm[0] = p;
        Self {
            program,
            threads_per_dmm,
            args,
        }
    }

    /// Total thread count `p`.
    #[must_use]
    pub fn total_threads(&self) -> usize {
        self.threads_per_dmm.iter().sum()
    }
}

/// A simulated machine: configuration plus persistent memory contents.
///
/// Memory contents persist across [`Engine::run`] calls so that hosts can
/// stage inputs, launch a kernel, inspect results, and launch follow-up
/// kernels — mirroring how the paper's multi-step algorithms compose.
pub struct Engine {
    cfg: EngineConfig,
    global: BankedMemory,
    shared: Vec<BankedMemory>,
    trace: Option<Trace>,
    races: Vec<DynamicRace>,
    profiles: Vec<LaunchProfile>,
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

impl Engine {
    /// Build a machine from its configuration.
    ///
    /// # Errors
    /// Returns [`SimError::BadLaunch`] for degenerate configurations.
    pub fn new(cfg: EngineConfig) -> SimResult<Self> {
        cfg.validate()?;
        let global = BankedMemory::new(cfg.width, cfg.global_size);
        let shared = (0..cfg.dmms)
            .map(|_| BankedMemory::new(cfg.width, cfg.shared_size))
            .collect();
        Ok(Self {
            cfg,
            global,
            shared,
            trace: None,
            races: Vec::new(),
            profiles: Vec::new(),
        })
    }

    /// The machine configuration.
    #[must_use]
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// Host view of the global memory.
    #[must_use]
    pub fn global(&self) -> &BankedMemory {
        &self.global
    }

    /// Host-mutable view of the global memory (for staging inputs).
    pub fn global_mut(&mut self) -> &mut BankedMemory {
        &mut self.global
    }

    /// Host view of DMM `d`'s shared memory.
    #[must_use]
    pub fn shared(&self, d: usize) -> &BankedMemory {
        &self.shared[d]
    }

    /// Take the trace recorded by the most recent [`Engine::run`] (if the
    /// configuration enabled tracing).
    pub fn take_trace(&mut self) -> Option<Trace> {
        self.trace.take()
    }

    /// Take the shared-memory races logged by the most recent
    /// [`Engine::run`]. The dynamic checker caps the log at
    /// [`MAX_LOGGED_RACES`] entries; `SimReport::shared_races` counts
    /// all of them regardless.
    pub fn take_races(&mut self) -> Vec<DynamicRace> {
        std::mem::take(&mut self.races)
    }

    /// Enable or disable event tracing on an existing machine.
    pub fn set_trace(&mut self, trace: bool) {
        self.cfg.trace = trace;
    }

    /// Bound the retained trace-event count (see
    /// [`EngineConfig::trace_capacity`]).
    pub fn set_trace_capacity(&mut self, capacity: Option<usize>) {
        self.cfg.trace_capacity = capacity;
    }

    /// Enable or disable cycle-accounting profiling on an existing
    /// machine. Profiles of subsequent launches accumulate until
    /// [`Engine::take_profiles`] drains them.
    pub fn set_profiling(&mut self, profile: bool) {
        self.cfg.profile = profile;
    }

    /// Set the profile-timeline bucket cap (see
    /// [`EngineConfig::profile_buckets`]).
    pub fn set_profile_buckets(&mut self, buckets: usize) {
        self.cfg.profile_buckets = buckets.max(1);
    }

    /// Take the profiles accumulated by every [`Engine::run`] since the
    /// last drain (empty unless profiling is enabled). One entry per
    /// launch, in launch order.
    pub fn take_profiles(&mut self) -> Vec<LaunchProfile> {
        std::mem::take(&mut self.profiles)
    }

    /// Attach a human-readable label (e.g. the kernel name) to the most
    /// recently recorded profile.
    pub fn label_last_profile(&mut self, label: &str) {
        if let Some(p) = self.profiles.last_mut() {
            p.label = label.to_string();
        }
    }

    /// Simulate one kernel launch to completion on the calling thread.
    ///
    /// # Errors
    /// Propagates any [`SimError`] raised during simulation (bad address,
    /// deadlock, cycle limit, ...).
    pub fn run(&mut self, spec: &LaunchSpec) -> SimResult<SimReport> {
        if spec.threads_per_dmm.len() != self.cfg.dmms {
            return Err(SimError::BadLaunch(format!(
                "launch names {} DMMs but the machine has {}",
                spec.threads_per_dmm.len(),
                self.cfg.dmms
            )));
        }
        let p = spec.total_threads();
        if p == 0 {
            return Err(SimError::BadLaunch("launch with zero threads".into()));
        }
        if spec.args.len() > abi::NUM_ARGS {
            return Err(SimError::BadLaunch(format!(
                "{} argument words exceed the {} argument registers",
                spec.args.len(),
                abi::NUM_ARGS
            )));
        }

        let out = exec::run(&self.cfg, spec, &mut self.global, &mut self.shared)?;
        self.trace = out.trace;
        self.races = out.races;
        if let Some(profile) = out.profile {
            self.profiles.push(profile);
        }
        Ok(out.report)
    }
}
