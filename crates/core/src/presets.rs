//! Machine parameterisations, including the GTX580 configuration the
//! paper uses to justify its parameter ranges (Section III).

use hmm_machine::Machine;

/// The `(d, w, l)` triple that parameterises an HMM, plus memory sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MachineParams {
    /// Number of DMMs (streaming multiprocessors).
    pub d: usize,
    /// Width: warp size, bank count, address-group size.
    pub w: usize,
    /// Global-memory latency in time units.
    pub l: usize,
    /// Global memory capacity in words.
    pub global_size: usize,
    /// Shared memory capacity per DMM in words.
    pub shared_size: usize,
}

impl MachineParams {
    /// Instantiate the HMM with these parameters.
    #[must_use]
    pub fn hmm(&self) -> Machine {
        Machine::hmm(self.d, self.w, self.l, self.global_size, self.shared_size)
    }

    /// Instantiate a standalone DMM (one banked memory of `global_size`).
    #[must_use]
    pub fn dmm(&self) -> Machine {
        Machine::dmm(self.w, self.l, self.global_size)
    }

    /// Instantiate a standalone UMM.
    #[must_use]
    pub fn umm(&self) -> Machine {
        Machine::umm(self.w, self.l, self.global_size)
    }

    /// Override the global memory capacity (builder style).
    #[must_use]
    pub fn with_global_size(mut self, size: usize) -> Self {
        self.global_size = size;
        self
    }

    /// Override the shared memory capacity (builder style).
    #[must_use]
    pub fn with_shared_size(mut self, size: usize) -> Self {
        self.shared_size = size;
        self
    }
}

/// NVIDIA `GeForce` GTX580 as described in Section III of the paper:
/// `d = 16` streaming multiprocessors, warps of `w = 32` threads, shared
/// memory arranged in 32 banks, and a global latency of several hundred
/// clock cycles (we use 400). The shared size of 12K words corresponds to
/// the 48 KB per-SM shared memory; the global size here is a simulation
/// default, not 2 GB.
#[must_use]
pub fn gtx580() -> MachineParams {
    MachineParams {
        d: 16,
        w: 32,
        l: 400,
        global_size: 1 << 22,
        shared_size: 12 * 1024,
    }
}

/// A small configuration for fast unit tests: `d = 2`, `w = 4`, `l = 8`.
#[must_use]
pub fn tiny() -> MachineParams {
    MachineParams {
        d: 2,
        w: 4,
        l: 8,
        global_size: 1 << 12,
        shared_size: 1 << 10,
    }
}

/// A mid-size configuration for integration tests and quick sweeps:
/// `d = 4`, `w = 16`, `l = 64`.
#[must_use]
pub fn medium() -> MachineParams {
    MachineParams {
        d: 4,
        w: 16,
        l: 64,
        global_size: 1 << 18,
        shared_size: 1 << 14,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gtx580_matches_the_paper() {
        let p = gtx580();
        assert_eq!(p.d, 16);
        assert_eq!(p.w, 32);
        assert!(p.l >= 100, "latency is 'several hundred' cycles");
        let m = p.hmm();
        assert_eq!(m.dmms(), 16);
        assert_eq!(m.width(), 32);
    }

    #[test]
    fn builders_override_sizes() {
        let p = tiny().with_global_size(128).with_shared_size(64);
        assert_eq!(p.global_size, 128);
        assert_eq!(p.shared_size, 64);
        assert_eq!(p.dmm().global().len(), 128);
        assert_eq!(p.umm().global().len(), 128);
    }
}
