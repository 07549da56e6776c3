//! The user-facing machine and kernel types.

use hmm_machine::trace::Trace;
use hmm_machine::{
    Engine, EngineConfig, LaunchProfile, LaunchSpec, Program, SimError, SimReport, SimResult, Word,
};

/// Which of the paper's three models a [`Machine`] instantiates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// Discrete Memory Machine: banked single memory.
    Dmm,
    /// Unified Memory Machine: coalescing single memory.
    Umm,
    /// Hierarchical Memory Machine: `d` DMMs plus a global UMM memory.
    Hmm,
}

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

/// A compiled kernel: one program executed by every launched thread
/// (CUDA-style SPMD).
#[derive(Debug, Clone)]
pub struct Kernel {
    /// Human-readable name, used in reports and benchmark labels.
    pub name: String,
    /// The program.
    pub program: Program,
}

impl Kernel {
    /// A named kernel.
    #[must_use]
    pub fn new(name: impl Into<String>, program: Program) -> Self {
        Self {
            name: name.into(),
            program,
        }
    }
}

/// How threads are distributed over the machine's DMMs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LaunchShape {
    /// `p` threads spread as evenly as possible over all DMMs.
    Even(usize),
    /// `p` threads all on DMM 0 (the paper's Lemma 6 configuration).
    OnDmm0(usize),
    /// Explicit per-DMM thread counts.
    PerDmm(Vec<usize>),
}

impl LaunchShape {
    fn to_spec(&self, kernel: &Kernel, dmms: usize) -> SimResult<LaunchSpec> {
        let spec = match self {
            LaunchShape::Even(p) => LaunchSpec::even(kernel.program.clone(), *p, dmms, Vec::new()),
            LaunchShape::OnDmm0(p) => {
                LaunchSpec::on_dmm0(kernel.program.clone(), *p, dmms, Vec::new())
            }
            LaunchShape::PerDmm(counts) => {
                if counts.len() != dmms {
                    return Err(SimError::BadLaunch(format!(
                        "PerDmm names {} DMMs, machine has {dmms}",
                        counts.len()
                    )));
                }
                LaunchSpec {
                    program: kernel.program.clone(),
                    threads_per_dmm: counts.clone(),
                    args: Vec::new(),
                }
            }
        };
        Ok(spec)
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

/// A simulated machine instance: one of the paper's models, with
/// persistent memory contents across kernel launches.
pub struct Machine {
    engine: Engine,
    kind: ModelKind,
}

impl Machine {
    /// A Discrete Memory Machine of width `w`, latency `l` and `size`
    /// memory words. Its single banked memory is addressed through
    /// [`hmm_machine::isa::Space::Global`].
    ///
    /// # Panics
    /// Panics if `w == 0` or `l == 0`.
    #[must_use]
    pub fn dmm(w: usize, l: usize, size: usize) -> Self {
        Self {
            engine: Engine::new(EngineConfig::dmm(w, l, size)).expect("valid DMM config"),
            kind: ModelKind::Dmm,
        }
    }

    /// A Unified Memory Machine of width `w`, latency `l` and `size`
    /// memory words.
    ///
    /// # Panics
    /// Panics if `w == 0` or `l == 0`.
    #[must_use]
    pub fn umm(w: usize, l: usize, size: usize) -> Self {
        Self {
            engine: Engine::new(EngineConfig::umm(w, l, size)).expect("valid UMM config"),
            kind: ModelKind::Umm,
        }
    }

    /// A Hierarchical Memory Machine with `d` DMMs, width `w`, global
    /// latency `l`, `global_size` words of global memory and `shared_size`
    /// words of shared memory per DMM.
    ///
    /// # Panics
    /// Panics if `d == 0`, `w == 0` or `l == 0`.
    #[must_use]
    pub fn hmm(d: usize, w: usize, l: usize, global_size: usize, shared_size: usize) -> Self {
        Self {
            engine: Engine::new(EngineConfig::hmm(d, w, l, global_size, shared_size))
                .expect("valid HMM config"),
            kind: ModelKind::Hmm,
        }
    }

    /// Build from a raw [`EngineConfig`] (ablations, exotic setups).
    ///
    /// # Errors
    /// Returns [`SimError::BadLaunch`] for degenerate configurations.
    pub fn from_config(kind: ModelKind, cfg: EngineConfig) -> SimResult<Self> {
        Ok(Self {
            engine: Engine::new(cfg)?,
            kind,
        })
    }

    /// Which model this machine instantiates.
    #[must_use]
    pub fn kind(&self) -> ModelKind {
        self.kind
    }

    /// Width `w`.
    #[must_use]
    pub fn width(&self) -> usize {
        self.engine.config().width
    }

    /// Global latency `l`.
    #[must_use]
    pub fn latency(&self) -> usize {
        self.engine.config().global_latency
    }

    /// Number of DMMs `d`.
    #[must_use]
    pub fn dmms(&self) -> usize {
        self.engine.config().dmms
    }

    /// Read-only view of the global memory's cells.
    #[must_use]
    pub fn global(&self) -> &[Word] {
        self.engine.global().cells()
    }

    /// Host-writable view of the global memory's cells (input staging).
    pub fn global_mut(&mut self) -> &mut [Word] {
        self.engine.global_mut().cells_mut()
    }

    /// Copy `data` into global memory starting at `addr`.
    ///
    /// # Panics
    /// Panics if the slice does not fit.
    pub fn load_global(&mut self, addr: usize, data: &[Word]) {
        self.global_mut()[addr..addr + data.len()].copy_from_slice(data);
    }

    /// Zero the whole global memory (fresh-input hygiene between runs).
    pub fn clear_global(&mut self) {
        self.global_mut().fill(0);
    }

    /// Read-only view of DMM `d`'s shared memory (HMM only).
    #[must_use]
    pub fn shared(&self, d: usize) -> &[Word] {
        self.engine.shared(d).cells()
    }

    /// Capacity of each shared memory in words (0 on the standalone
    /// DMM / UMM machines).
    #[must_use]
    pub fn shared_capacity(&self) -> usize {
        self.engine.config().shared_size
    }

    /// Escape hatch to the underlying engine.
    pub fn engine_mut(&mut self) -> &mut Engine {
        &mut self.engine
    }

    /// Abort any launch that exceeds `limit` simulated time units
    /// (builder style — call before staging inputs, as the engine is
    /// rebuilt with empty memories). Useful as a watchdog around
    /// untrusted kernels.
    #[must_use]
    pub fn with_cycle_limit(mut self, limit: u64) -> Self {
        // The limit lives in the config; rebuild the engine with it set.
        let mut cfg = self.engine.config().clone();
        cfg.max_cycles = limit;
        self.engine = Engine::new(cfg).expect("config was already valid");
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

    /// Enable or disable the engine's event-driven clock (builder style,
    /// default on; call before staging inputs, as the engine is rebuilt
    /// with empty memories). Off walks every time unit: the reference
    /// clock of the fast-forward differential test and the engine bench.
    #[doc(hidden)]
    #[must_use]
    pub fn with_fast_forward(mut self, on: bool) -> Self {
        let mut cfg = self.engine.config().clone();
        cfg.fast_forward = on;
        self.engine = Engine::new(cfg).expect("config was already valid");
        self
    }

    /// Launch `kernel` with the given thread distribution and simulate it
    /// to completion.
    ///
    /// # Errors
    /// Propagates simulation errors ([`SimError`]).
    // By-value `shape` keeps call sites literal-friendly (`LaunchShape::Even(p)`);
    // the variant with a Vec is rare and cheap relative to a simulation run.
    #[allow(clippy::needless_pass_by_value)]
    pub fn launch(&mut self, kernel: &Kernel, shape: LaunchShape) -> SimResult<SimReport> {
        let spec = shape.to_spec(kernel, self.engine.config().dmms)?;
        let report = self.engine.run(&spec)?;
        // A profiled run just pushed a profile; stamp it with the kernel
        // name so multi-launch profiles stay tellable apart.
        if self.engine.config().profile {
            self.engine.label_last_profile(&kernel.name);
        }
        Ok(report)
    }

    /// Take the trace of the last launch, if tracing was configured.
    pub fn take_trace(&mut self) -> Option<Trace> {
        self.engine.take_trace()
    }

    /// Enable or disable event tracing for subsequent launches.
    pub fn set_trace(&mut self, on: bool) {
        self.engine.set_trace(on);
    }

    /// Enable or disable cycle-accounting profiling for subsequent
    /// launches (see `hmm_machine::profile`).
    pub fn set_profiling(&mut self, on: bool) {
        self.engine.set_profiling(on);
    }

    /// Set the number of timeline buckets profiled launches aim for.
    pub fn set_profile_buckets(&mut self, buckets: usize) {
        self.engine.set_profile_buckets(buckets);
    }

    /// Take the profiles accumulated by profiled launches, labelled with
    /// their kernel names, in launch order.
    pub fn take_profiles(&mut self) -> Vec<LaunchProfile> {
        self.engine.take_profiles()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmm_machine::{abi, Asm};

    fn store_gid() -> Kernel {
        let mut a = Asm::new();
        a.st_global(abi::GID, 0, abi::GID);
        a.halt();
        Kernel::new("store-gid", a.finish())
    }

    #[test]
    fn constructors_expose_parameters() {
        let m = Machine::hmm(4, 8, 100, 1024, 128);
        assert_eq!(m.kind(), ModelKind::Hmm);
        assert_eq!(m.dmms(), 4);
        assert_eq!(m.width(), 8);
        assert_eq!(m.latency(), 100);
        assert_eq!(Machine::dmm(4, 2, 64).kind(), ModelKind::Dmm);
        assert_eq!(Machine::umm(4, 2, 64).kind(), ModelKind::Umm);
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
        let mut a = hmm_machine::Asm::new();
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
