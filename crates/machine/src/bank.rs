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
    fn width_one_degenerates_to_single_bank() {
        assert_eq!(bank_of(17, 1), 0);
        assert_eq!(group_of(17, 1), 17);
    }
}
