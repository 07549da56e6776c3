//! Interleaved banks and address groups (paper Section II, Figure 3).
//!
//! A single address space is mapped onto `w` memory banks in an interleaved
//! way: the word at address `a` lives in bank `a mod w`. The same address
//! space is also partitioned into *address groups* of `w` consecutive
//! addresses: address `a` belongs to group `a div w`.
//!
//! The DMM can serve one address per bank per time unit; the UMM can serve
//! one address *group* per time unit. Figure 3 of the paper draws both
//! partitions for `w = 4`; the unit tests below reproduce that figure.

use crate::word::Word;

/// The bank holding address `addr` on a machine of width `width`.
#[inline]
#[must_use]
pub fn bank_of(addr: usize, width: usize) -> usize {
    debug_assert!(width > 0);
    addr % width
}

/// The address group containing `addr` on a machine of width `width`.
#[inline]
#[must_use]
pub fn group_of(addr: usize, width: usize) -> usize {
    debug_assert!(width > 0);
    addr / width
}

/// A flat word-addressable memory annotated with its bank structure.
///
/// The backing store is a plain `Vec<Word>`; the bank decomposition only
/// affects *timing* (computed in [`crate::request`]), never values.
#[derive(Debug, Clone)]
pub struct BankedMemory {
    width: usize,
    cells: Vec<Word>,
}

impl BankedMemory {
    /// A zero-initialised memory of `size` words arranged in `width` banks.
    #[must_use]
    pub fn new(width: usize, size: usize) -> Self {
        assert!(width > 0, "memory width must be positive");
        Self {
            width,
            cells: vec![0; size],
        }
    }

    /// Number of banks `w`.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Capacity in words.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the memory has zero capacity.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Read the word at `addr` as a simulated access.
    ///
    /// Returns `None` when the address is out of bounds (the engine turns
    /// this into a [`crate::SimError::OutOfBounds`]).
    #[must_use]
    pub fn read(&self, addr: usize) -> Option<Word> {
        self.cells.get(addr).copied()
    }

    /// Write `value` at `addr` as a simulated access.
    pub fn write(&mut self, addr: usize, value: Word) -> Option<()> {
        *self.cells.get_mut(addr)? = value;
        Some(())
    }

    /// Host-side view of the raw cells.
    #[must_use]
    pub fn cells(&self) -> &[Word] {
        &self.cells
    }

    /// Host-side mutable view of the raw cells.
    ///
    /// Used to stage kernel inputs before a launch and to read results
    /// afterwards; host accesses are free, exactly as the paper assumes the
    /// input "is stored in the global memory" before the algorithm starts.
    pub fn cells_mut(&mut self) -> &mut [Word] {
        &mut self.cells
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Figure 3 of the paper: for `w = 4`, addresses 0..16 map to banks
    /// column-wise and to address groups row-wise.
    #[test]
    fn figure3_banks_and_groups_for_w4() {
        let w = 4;
        // B(0) = {0, 4, 8, 12}, B(1) = {1, 5, 9, 13}, ...
        for b in 0..w {
            for r in 0..4 {
                assert_eq!(bank_of(b + r * w, w), b);
            }
        }
        // A(0) = {0,1,2,3}, A(1) = {4,5,6,7}, ...
        for g in 0..4 {
            for c in 0..w {
                assert_eq!(group_of(g * w + c, w), g);
            }
        }
    }

    #[test]
    fn read_write_roundtrip_and_stats() {
        let mut m = BankedMemory::new(4, 16);
        m.write(5, 42).unwrap();
        assert_eq!(m.read(5), Some(42));
        assert_eq!(m.read(16), None);
        assert_eq!(m.write(16, 1), None);
    }

    #[test]
    fn host_staging_bypasses_stats() {
        let mut m = BankedMemory::new(4, 8);
        m.cells_mut()[3] = 7;
        assert_eq!(m.cells()[3], 7);
    }

    #[test]
    fn width_one_degenerates_to_single_bank() {
        assert_eq!(bank_of(17, 1), 0);
        assert_eq!(group_of(17, 1), 17);
    }
}
