//! Cache and hierarchy configuration.

use serde::{Deserialize, Serialize};

/// Size of one HBM transaction / cache sector in bytes.
///
/// NVIDIA and AMD GPUs move data between L2 and DRAM in 32-byte sectors
/// (`rocprof` even reports `TCC_EA_RDREQ_32B` explicitly); we adopt 32 B
/// uniformly, matching the paper's Appendix B byte formulas.
pub const SECTOR_BYTES: u64 = 32;

/// Configuration of a single cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity_bytes: u64,
    /// Cache-line size in bytes (a multiple of [`SECTOR_BYTES`], at most 32
    /// sectors).
    pub line_bytes: u64,
    /// Associativity (ways per set). `0` is invalid.
    pub ways: u32,
    /// Sectored fills (NVIDIA/Intel style: a miss fetches only the
    /// requested 32 B sector). When `false` (AMD CDNA style), a line miss
    /// fetches the *whole* line from the level below — the fetch-granularity
    /// amplification behind the MI250X's elevated DRAM traffic on
    /// scattered accesses.
    pub sectored: bool,
}

impl CacheConfig {
    /// A new sectored configuration; panics on degenerate geometry.
    pub fn new(capacity_bytes: u64, line_bytes: u64, ways: u32) -> Self {
        assert!(capacity_bytes > 0, "cache capacity must be non-zero");
        assert!(
            line_bytes >= SECTOR_BYTES && line_bytes.is_multiple_of(SECTOR_BYTES),
            "line size must be a positive multiple of the {SECTOR_BYTES}-byte sector"
        );
        assert!(
            line_bytes <= 32 * SECTOR_BYTES,
            "line size {line_bytes} exceeds the 32 sectors a line's sector bitmaps hold"
        );
        assert!(ways > 0, "associativity must be at least 1");
        assert!(
            capacity_bytes.is_multiple_of(line_bytes * ways as u64),
            "capacity {capacity_bytes} must divide evenly into {ways}-way sets of {line_bytes}-byte lines"
        );
        Self { capacity_bytes, line_bytes, ways, sectored: true }
    }

    /// The same geometry with whole-line fills.
    pub fn non_sectored(mut self) -> Self {
        self.sectored = false;
        self
    }

    /// Number of sets.
    pub fn sets(&self) -> u64 {
        self.capacity_bytes / (self.line_bytes * self.ways as u64)
    }

    /// Number of sectors per line.
    pub fn sectors_per_line(&self) -> u32 {
        (self.line_bytes / SECTOR_BYTES) as u32
    }

    /// Total number of lines.
    pub fn lines(&self) -> u64 {
        self.capacity_bytes / self.line_bytes
    }
}

/// Configuration of a full per-warp hierarchy view: an L1 slice and an
/// (effective, occupancy-shared) L2 slice in front of HBM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HierarchyConfig {
    pub l1: CacheConfig,
    pub l2: CacheConfig,
}

impl HierarchyConfig {
    pub fn new(l1: CacheConfig, l2: CacheConfig) -> Self {
        Self { l1, l2 }
    }

    /// A tiny hierarchy used by unit tests.
    pub fn tiny() -> Self {
        Self {
            l1: CacheConfig::new(1 << 10, 128, 4),
            l2: CacheConfig::new(1 << 14, 128, 8),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_derivations() {
        let c = CacheConfig::new(192 * 1024, 128, 4);
        assert_eq!(c.sets(), 192 * 1024 / (128 * 4));
        assert_eq!(c.sectors_per_line(), 4);
        assert_eq!(c.lines(), 192 * 1024 / 128);
    }

    #[test]
    #[should_panic(expected = "associativity")]
    fn zero_ways_rejected() {
        CacheConfig::new(1024, 128, 0);
    }

    #[test]
    #[should_panic(expected = "sector")]
    fn bad_line_size_rejected() {
        CacheConfig::new(1024, 48, 2);
    }

    #[test]
    #[should_panic(expected = "32 sectors")]
    fn over_wide_line_rejected() {
        CacheConfig::new(64 * 1024, 2048, 4);
    }

    #[test]
    #[should_panic(expected = "divide evenly")]
    fn ragged_capacity_rejected() {
        CacheConfig::new(1000, 128, 2);
    }

    #[test]
    fn tiny_hierarchy_is_consistent() {
        let h = HierarchyConfig::tiny();
        assert!(h.l1.capacity_bytes < h.l2.capacity_bytes);
    }
}
