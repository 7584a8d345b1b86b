//! Warp-level memory coalescing.
//!
//! When the lanes of a warp issue a load/store together, the memory
//! subsystem merges their addresses into the minimal set of 32-byte sector
//! transactions. For the de Bruijn hash-table workload this is the
//! difference between the (coalesced) strided k-mer reads during table
//! construction and the (scattered) probe accesses after hashing.

use crate::config::SECTOR_BYTES;
use crate::Addr;

/// The unique sectors touched by one warp-wide access.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CoalesceResult {
    /// Sector-granular addresses (`addr / SECTOR_BYTES`), sorted, deduplicated.
    pub sectors: Vec<u64>,
    /// Number of lane accesses that were merged (popcount of the mask).
    pub lane_accesses: u32,
}

impl CoalesceResult {
    /// Number of memory transactions this access turns into.
    pub fn transactions(&self) -> u64 {
        self.sectors.len() as u64
    }

    /// Bytes moved if every transaction goes to the next level.
    pub fn bytes(&self) -> u64 {
        self.transactions() * SECTOR_BYTES
    }
}

/// Coalesce per-lane `(addr, len)` accesses into unique sectors.
///
/// `accesses` yields one `(addr, len_bytes)` pair per *active* lane. A lane
/// access spanning a sector boundary contributes every sector it overlaps,
/// exactly as real hardware splits unaligned accesses.
pub fn coalesce_sectors<I>(accesses: I) -> CoalesceResult
where
    I: IntoIterator<Item = (Addr, u32)>,
{
    let mut out = CoalesceResult::default();
    coalesce_sectors_into(&mut out, accesses);
    out
}

/// [`coalesce_sectors`] into a caller-owned result, reusing its buffer.
///
/// This is the simulator's hot path: a warp issues one coalesced access
/// per memory instruction, so an allocating coalescer pays one heap
/// allocation per simulated load/store. Reusing a scratch
/// [`CoalesceResult`] (e.g. one owned by the warp) reaches a steady state
/// after the first few accesses and allocates nothing thereafter.
pub fn coalesce_sectors_into<I>(out: &mut CoalesceResult, accesses: I)
where
    I: IntoIterator<Item = (Addr, u32)>,
{
    out.sectors.clear();
    let mut lanes = 0u32;
    // Most warp accesses arrive in ascending lane-address order (strided
    // k-mer reads, scalar walk loads). Skipping a sector equal to the
    // previous push keeps such input sorted and unique as it is built, so
    // only a push that went backwards needs the sort and dedup. The final
    // vector is identical either way. A lane's own sectors ascend, so only
    // its first one can repeat or precede the previous push.
    let mut sorted = true;
    for (addr, len) in accesses {
        lanes += 1;
        if len == 0 {
            continue;
        }
        let first = addr / SECTOR_BYTES;
        let last = (addr + len as u64 - 1) / SECTOR_BYTES;
        let mut s = first;
        match out.sectors.last().copied() {
            Some(prev) if prev == first => s += 1,
            Some(prev) if prev > first => sorted = false,
            _ => {}
        }
        while s <= last {
            out.sectors.push(s);
            s += 1;
        }
    }
    if !sorted {
        out.sectors.sort_unstable();
        out.sectors.dedup();
    }
    out.lane_accesses = lanes;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn into_variant_reuses_the_buffer_and_matches() {
        let mut scratch = CoalesceResult::default();
        coalesce_sectors_into(&mut scratch, (0..32u64).map(|l| (l * 4, 4u32)));
        assert_eq!(scratch, coalesce_sectors((0..32u64).map(|l| (l * 4, 4u32))));
        let cap = scratch.sectors.capacity();
        let ptr = scratch.sectors.as_ptr();
        // A smaller access must reuse the grown buffer in place.
        coalesce_sectors_into(&mut scratch, [(0u64, 4u32)]);
        assert_eq!(scratch, coalesce_sectors([(0u64, 4u32)]));
        assert_eq!(scratch.sectors.capacity(), cap);
        assert_eq!(scratch.sectors.as_ptr(), ptr);
    }

    #[test]
    fn perfectly_coalesced_warp_is_few_transactions() {
        // 32 lanes × 4-byte accesses, consecutive: 128 bytes = 4 sectors.
        let r = coalesce_sectors((0..32u64).map(|l| (l * 4, 4u32)));
        assert_eq!(r.transactions(), 4);
        assert_eq!(r.lane_accesses, 32);
        assert_eq!(r.bytes(), 128);
    }

    #[test]
    fn fully_scattered_warp_is_one_transaction_per_lane() {
        let r = coalesce_sectors((0..32u64).map(|l| (l * 4096, 4u32)));
        assert_eq!(r.transactions(), 32);
    }

    #[test]
    fn duplicate_addresses_merge() {
        let r = coalesce_sectors([(64, 4u32), (64, 4u32), (68, 4u32)]);
        assert_eq!(r.transactions(), 1);
        assert_eq!(r.lane_accesses, 3);
    }

    #[test]
    fn access_spanning_sector_boundary_touches_both() {
        let r = coalesce_sectors([(30, 4u32)]); // bytes 30..34 cross sector 0→1
        assert_eq!(r.sectors, vec![0, 1]);
    }

    #[test]
    fn zero_length_access_counts_lane_but_no_sector() {
        let r = coalesce_sectors([(100, 0u32)]);
        assert_eq!(r.transactions(), 0);
        assert_eq!(r.lane_accesses, 1);
    }

    #[test]
    fn empty_mask_is_empty() {
        let r = coalesce_sectors(std::iter::empty());
        assert_eq!(r, CoalesceResult::default());
    }

    #[test]
    fn large_single_lane_block_counts_all_sectors() {
        // One lane reading 100 bytes from offset 10: sectors 0..=3.
        let r = coalesce_sectors([(10, 100u32)]);
        assert_eq!(r.sectors, vec![0, 1, 2, 3]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The result is exactly the unique sectors the lanes touch
        /// individually, whether lanes arrive scattered or ascending (the
        /// path that skips the sort).
        #[test]
        fn transaction_bounds(mut accs in proptest::collection::vec((0u64..1 << 20, 1u32..64), 0..64)) {
            let r = coalesce_sectors(accs.iter().copied());
            let mut indiv: Vec<u64> = accs
                .iter()
                .flat_map(|&(a, l)| (a / SECTOR_BYTES)..=((a + l as u64 - 1) / SECTOR_BYTES))
                .collect();
            let total: usize = indiv.len();
            indiv.sort_unstable();
            indiv.dedup();
            prop_assert_eq!(&r.sectors, &indiv);
            prop_assert!(r.sectors.len() <= total);
            accs.sort_unstable();
            prop_assert_eq!(coalesce_sectors(accs.iter().copied()).sectors, indiv);
        }

        /// Result is sorted and deduplicated.
        #[test]
        fn sorted_unique(accs in proptest::collection::vec((0u64..1 << 16, 1u32..16), 0..64)) {
            let r = coalesce_sectors(accs.iter().copied());
            let mut sorted = r.sectors.clone();
            sorted.sort_unstable();
            sorted.dedup();
            prop_assert_eq!(r.sectors, sorted);
        }

        /// Coalescing is invariant under permutation of lanes.
        #[test]
        fn permutation_invariant(mut accs in proptest::collection::vec((0u64..1 << 16, 1u32..16), 1..32)) {
            let a = coalesce_sectors(accs.iter().copied());
            accs.reverse();
            let b = coalesce_sectors(accs.iter().copied());
            prop_assert_eq!(a.sectors, b.sectors);
        }
    }
}
