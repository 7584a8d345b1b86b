//! The L1 → L2 → HBM stack.
//!
//! One `MemHierarchy` instance models the view a single warp has of the
//! memory subsystem: a private L1 slice and an *effective* L2 slice (the
//! shared L2 divided by the number of resident warps — see
//! `gpu-specs::occupancy`). Warps in the local assembly kernel never share
//! data, so this decomposition is exact for hit/miss behaviour up to the
//! capacity-sharing approximation, which is documented in DESIGN.md.

use crate::cache::Cache;
use crate::coalesce::CoalesceResult;
use crate::config::HierarchyConfig;
use crate::stats::MemStats;

/// Whether an access reads or writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    Read,
    Write,
}

/// The deepest level of the hierarchy a memory access had to reach —
/// the latency class of the access, consumed by the scheduled-execution
/// mode (`simt::sched`) to pick a completion latency for the issuing
/// warp. Ordered shallow → deep so `max` folds a multi-sector access to
/// its slowest sector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum MemLevel {
    /// Served by the warp's private L1 slice.
    L1,
    /// Missed L1 (or bypassed it — writes and atomics) and hit in the L2
    /// slice.
    L2,
    /// Missed all the way to HBM.
    Hbm,
}

/// A per-warp memory hierarchy with traffic counters.
#[derive(Debug, Clone)]
pub struct MemHierarchy {
    l1: Cache,
    l2: Cache,
    stats: MemStats,
    /// L2 whole-line overfetch already charged to HBM (non-sectored mode).
    synced_extra_fills: u64,
    /// L2 write-backs already charged to HBM (baseline survives
    /// `take_stats`, which zeroes the stats but not the cache counters).
    synced_writebacks: u64,
}

impl MemHierarchy {
    pub fn new(cfg: HierarchyConfig) -> Self {
        MemHierarchy {
            l1: Cache::new(cfg.l1),
            l2: Cache::new(cfg.l2),
            stats: MemStats::default(),
            synced_extra_fills: 0,
            synced_writebacks: 0,
        }
    }

    /// Reset contents and counters for reuse by the next warp.
    pub fn reset(&mut self) {
        self.l1.reset();
        self.l2.reset();
        self.stats = MemStats::default();
        self.synced_extra_fills = 0;
        self.synced_writebacks = 0;
    }

    /// Reset for reuse under a (possibly different) configuration.
    ///
    /// Each level keeps its line buffers when they are large enough (see
    /// [`Cache::reconfigure`]), so the pooled-launch path allocates nothing
    /// at steady state and never holds two line arrays of one level at once.
    /// The resulting state is indistinguishable from `MemHierarchy::new(cfg)`.
    pub fn reconfigure(&mut self, cfg: HierarchyConfig) {
        self.l1.reconfigure(cfg.l1);
        self.l2.reconfigure(cfg.l2);
        self.stats = MemStats::default();
        self.synced_extra_fills = 0;
        self.synced_writebacks = 0;
    }

    /// Shrink both levels' line arrays to the current geometry (see
    /// [`Cache::trim`]); contents and counters are untouched.
    pub fn trim(&mut self) {
        self.l1.trim();
        self.l2.trim();
    }

    /// Route one warp-wide coalesced access through the hierarchy.
    ///
    /// Counts one memory instruction and walks every unique sector. Reads go
    /// L1 → L2 → HBM. Writes model the GPU's write-through, no-write-allocate
    /// L1: they are sent directly to the (write-back) L2, whose dirty
    /// evictions are charged as HBM write transactions.
    ///
    /// Returns the deepest [`MemLevel`] any sector reached — the access's
    /// latency class (the slowest sector gates the warp).
    pub fn access(&mut self, coalesced: &CoalesceResult, kind: AccessKind) -> MemLevel {
        self.stats.mem_instructions += 1;
        let mut level = MemLevel::L1;
        for &sector in &coalesced.sectors {
            let l = match kind {
                AccessKind::Read => self.read_sector(sector),
                AccessKind::Write => self.write_sector(sector),
            };
            level = level.max(l);
        }
        level
    }

    /// Batched variant of [`MemHierarchy::access`]: one pass over the
    /// coalesced sector set with the access kind hoisted out of the loop
    /// and a single write-back/overfetch sync at the end instead of one
    /// per sector.
    ///
    /// Produces **identical** stats to [`MemHierarchy::access`] for the
    /// same input: the sync only settles cumulative cache counters
    /// (write-backs, whole-line overfetch) into the stats, and those
    /// deltas are monotone — syncing once after the loop charges exactly
    /// the transactions the per-sector syncs would have charged.
    ///
    /// Returns the deepest [`MemLevel`] reached, like [`MemHierarchy::access`].
    pub fn access_batched(&mut self, coalesced: &CoalesceResult, kind: AccessKind) -> MemLevel {
        self.stats.mem_instructions += 1;
        let mut level = MemLevel::L1;
        match kind {
            AccessKind::Read => {
                for &sector in &coalesced.sectors {
                    level = level.max(self.read_sector_unsynced(sector));
                }
            }
            AccessKind::Write => {
                for &sector in &coalesced.sectors {
                    level = level.max(self.l2_request(sector, true));
                }
            }
        }
        self.sync_writebacks();
        level
    }

    /// Route one warp-wide atomic access: atomics bypass L1 on real GPUs
    /// and resolve in the L2/memory partition. One memory instruction,
    /// however many unique sectors the warp's lanes touch. Returns the
    /// deepest [`MemLevel`] reached (never [`MemLevel::L1`]).
    pub fn access_atomic(&mut self, coalesced: &CoalesceResult) -> MemLevel {
        self.stats.mem_instructions += 1;
        let mut level = MemLevel::L2;
        for &sector in &coalesced.sectors {
            level = level.max(self.l2_request(sector, true));
        }
        self.sync_writebacks();
        level
    }

    /// Route a single atomic sector (convenience over [`Self::access_atomic`]).
    /// Returns the level the sector resolved at (L2 or HBM).
    pub fn access_atomic_sector(&mut self, sector: u64) -> MemLevel {
        self.stats.mem_instructions += 1;
        let level = self.l2_request(sector, true);
        self.sync_writebacks();
        level
    }

    /// Charge `n` one-sector reads of the sector the last L1 access
    /// touched, with no other access in between: each is a memory
    /// instruction that hits in L1.
    ///
    /// Counts exactly what `n` [`MemHierarchy::access_batched`] reads of
    /// that sector would count. Reads allocate in L1, so the sector is
    /// resident and valid; its line already holds the newest LRU stamp of
    /// its set, and LRU only compares stamps within a set, so the hits
    /// change no cache state that a later outcome can see. No L2 request
    /// is made, so there is nothing to sync.
    pub fn repeat_l1_hits(&mut self, n: u64) {
        self.stats.mem_instructions += n;
        self.stats.l1.requests += n;
        self.stats.l1.hits += n;
    }

    fn read_sector(&mut self, sector: u64) -> MemLevel {
        let level = self.read_sector_unsynced(sector);
        self.sync_writebacks();
        level
    }

    fn read_sector_unsynced(&mut self, sector: u64) -> MemLevel {
        self.stats.l1.requests += 1;
        let l1_out = self.l1.access_sector(sector, false);
        if l1_out.is_miss() {
            self.stats.l1.misses += 1;
            self.l2_request(sector, false)
        } else {
            self.stats.l1.hits += 1;
            MemLevel::L1
        }
    }

    fn write_sector(&mut self, sector: u64) -> MemLevel {
        // Write-through / no-write-allocate L1: the write goes straight to
        // L2 and marks the sector dirty there. A write miss at L2 allocates
        // the line with a sector fill from HBM (our writes are narrower than
        // a sector, so the fill is required for correctness on hardware).
        let level = self.l2_request(sector, true);
        self.sync_writebacks();
        level
    }

    fn l2_request(&mut self, sector: u64, write: bool) -> MemLevel {
        self.stats.l2.requests += 1;
        let out = self.l2.access_sector(sector, write);
        if out.is_miss() {
            self.stats.l2.misses += 1;
            self.stats.hbm_read_transactions += 1;
            MemLevel::Hbm
        } else {
            self.stats.l2.hits += 1;
            MemLevel::L2
        }
    }

    /// Pull eviction write-back counts from the L2 into the stats (HBM
    /// write transactions) and whole-line fill overfetch (extra HBM read
    /// transactions for a non-sectored L2, e.g. the MI250X model). The L1
    /// is write-through and never holds dirty data.
    fn sync_writebacks(&mut self) {
        let l2_wb = self.l2.writebacks;
        if l2_wb > self.synced_writebacks {
            let delta = l2_wb - self.synced_writebacks;
            self.synced_writebacks = l2_wb;
            self.stats.l2.writebacks += delta;
            self.stats.hbm_write_transactions += delta;
        }
        let fills = self.l2.extra_fills;
        if fills > self.synced_extra_fills {
            self.stats.hbm_read_transactions += fills - self.synced_extra_fills;
            self.synced_extra_fills = fills;
        }
    }

    /// Flush both levels (end of kernel): dirty data must reach HBM.
    pub fn flush(&mut self) {
        self.l1.flush();
        self.l2.flush();
        self.sync_writebacks();
    }

    /// Current counters.
    pub fn stats(&self) -> &MemStats {
        &self.stats
    }

    /// Take the counters, leaving zeros (used when aggregating a finished warp).
    pub fn take_stats(&mut self) -> MemStats {
        std::mem::take(&mut self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coalesce::coalesce_sectors;
    use crate::config::{CacheConfig, HierarchyConfig, SECTOR_BYTES};

    fn hier() -> MemHierarchy {
        MemHierarchy::new(HierarchyConfig::tiny())
    }

    #[test]
    fn cold_read_reaches_hbm() {
        let mut h = hier();
        let acc = coalesce_sectors([(0u64, 4u32)]);
        assert_eq!(h.access(&acc, AccessKind::Read), MemLevel::Hbm);
        let s = h.stats();
        assert_eq!(s.l1.misses, 1);
        assert_eq!(s.l2.misses, 1);
        assert_eq!(s.hbm_read_transactions, 1);
        assert_eq!(s.hbm_bytes(), SECTOR_BYTES);
    }

    #[test]
    fn warm_read_stays_in_l1() {
        let mut h = hier();
        let acc = coalesce_sectors([(0u64, 4u32)]);
        assert_eq!(h.access(&acc, AccessKind::Read), MemLevel::Hbm);
        assert_eq!(h.access(&acc, AccessKind::Read), MemLevel::L1);
        let s = h.stats();
        assert_eq!(s.l1.hits, 1);
        assert_eq!(s.hbm_read_transactions, 1, "second access must not re-fetch");
        assert_eq!(s.mem_instructions, 2);
    }

    #[test]
    fn mem_level_orders_shallow_to_deep() {
        assert!(MemLevel::L1 < MemLevel::L2);
        assert!(MemLevel::L2 < MemLevel::Hbm);
        assert_eq!(MemLevel::L1.max(MemLevel::Hbm), MemLevel::Hbm);
    }

    /// The batched path reports the same latency class as the reference
    /// path — the slowest sector of the warp-wide access.
    #[test]
    fn access_levels_agree_across_paths() {
        let cfg = HierarchyConfig::tiny();
        let mut a = MemHierarchy::new(cfg);
        let mut b = MemHierarchy::new(cfg);
        for round in 0..3u64 {
            for line in 0..24u64 {
                let addr = line * 128 + round * 32;
                let acc = coalesce_sectors([(addr, 64u32), (addr + 2048, 4u32)]);
                let kind =
                    if (line + round) % 3 == 0 { AccessKind::Write } else { AccessKind::Read };
                assert_eq!(a.access(&acc, kind), b.access_batched(&acc, kind));
            }
        }
    }

    /// L2-resident data reads back at `MemLevel::L2` after the L1 evicts
    /// it; atomics never report L1 (they bypass it by construction).
    #[test]
    fn levels_reflect_the_serving_cache() {
        let mut h = hier();
        // Fill 16 lines (2 KiB): overflows the 1-KiB L1, fits the L2.
        for line in 0..16u64 {
            let acc = coalesce_sectors([(line * 128, 4u32)]);
            assert_eq!(h.access(&acc, AccessKind::Read), MemLevel::Hbm);
        }
        let first = coalesce_sectors([(0u64, 4u32)]);
        assert_eq!(h.access(&first, AccessKind::Read), MemLevel::L2, "L1-evicted, L2-resident");
        assert_eq!(h.access_atomic_sector(0), MemLevel::L2);
        assert_eq!(h.access_atomic_sector(1 << 20), MemLevel::Hbm);
    }

    #[test]
    fn reconfigure_matches_fresh_hierarchy() {
        let cfg = HierarchyConfig::tiny();
        let big = HierarchyConfig::new(
            CacheConfig::new(2 * 1024, 128, 4),
            CacheConfig::new(64 * 1024, 128, 8),
        );
        let mid = HierarchyConfig::new(
            CacheConfig::new(3 * 512, 128, 4),
            CacheConfig::new(48 * 1024, 128, 8),
        );
        // 160 lines overflow the tiny L2, so dirty evictions are exercised.
        let job = |h: &mut MemHierarchy| {
            for line in 0..160u64 {
                let acc = coalesce_sectors([(line * 128, 4u32)]);
                let kind = if line % 3 == 0 { AccessKind::Write } else { AccessKind::Read };
                h.access(&acc, kind);
            }
            h.flush();
        };
        // Same geometry, grow (buffers reallocated), shrink (reused), then a
        // trim and a further shrink: each step must leave a cold hierarchy.
        let mut reused = MemHierarchy::new(cfg);
        job(&mut reused);
        for next in [cfg, big, mid, cfg] {
            reused.reconfigure(next);
            let mut fresh = MemHierarchy::new(next);
            job(&mut reused);
            job(&mut fresh);
            assert_eq!(reused.stats(), fresh.stats(), "reconfigured state must be cold");
            if next == mid {
                reused.trim();
            }
        }
    }

    #[test]
    fn reconfigure_to_new_geometry_rebuilds() {
        let mut h = MemHierarchy::new(HierarchyConfig::tiny());
        let acc = coalesce_sectors([(0u64, 4u32)]);
        h.access(&acc, AccessKind::Read);
        let big = HierarchyConfig::new(
            CacheConfig::new(2 * 1024, 128, 4),
            CacheConfig::new(64 * 1024, 128, 8),
        );
        h.reconfigure(big);
        assert_eq!(h.stats(), &MemStats::default());
        h.access(&acc, AccessKind::Read);
        assert_eq!(h.stats().hbm_read_transactions, 1, "cache is cold after reconfigure");
    }

    #[test]
    fn l1_capacity_miss_hits_l2() {
        // L1 tiny(): 1 KiB, 128-B lines, 4-way ⇒ 8 lines, 2 sets.
        let mut h = hier();
        // Touch 16 distinct lines (2 KiB) twice: second pass must miss L1
        // for early lines but hit L2 (16 KiB).
        for round in 0..2 {
            for line in 0..16u64 {
                let acc = coalesce_sectors([(line * 128, 4u32)]);
                h.access(&acc, AccessKind::Read);
            }
            let _ = round;
        }
        let s = h.stats();
        assert_eq!(s.hbm_read_transactions, 16, "L2 holds the working set");
        assert!(s.l2.hits >= 16, "second pass served by L2, got {:?}", s.l2);
    }

    #[test]
    fn dirty_data_flushes_to_hbm() {
        let mut h = hier();
        let acc = coalesce_sectors([(0u64, 4u32)]);
        h.access(&acc, AccessKind::Write);
        assert_eq!(h.stats().hbm_write_transactions, 0);
        h.flush();
        assert_eq!(h.stats().hbm_write_transactions, 1);
        assert_eq!(h.stats().hbm_bytes(), 2 * SECTOR_BYTES); // 1 read fill + 1 write-back
    }

    #[test]
    fn atomic_goes_to_l2() {
        let mut h = hier();
        h.access_atomic_sector(0);
        let s = h.stats();
        assert_eq!(s.l1.requests, 0, "atomics bypass L1");
        assert_eq!(s.l2.requests, 1);
        assert_eq!(s.hbm_read_transactions, 1);
        h.access_atomic_sector(0);
        assert_eq!(h.stats().l2.hits, 1);
    }

    #[test]
    fn take_stats_resets_counters_only() {
        let mut h = hier();
        let acc = coalesce_sectors([(0u64, 4u32)]);
        h.access(&acc, AccessKind::Read);
        let taken = h.take_stats();
        assert_eq!(taken.l1.requests, 1);
        assert_eq!(h.stats().l1.requests, 0);
        // Cache contents survive take_stats: next access hits.
        h.access(&acc, AccessKind::Read);
        assert_eq!(h.stats().l1.hits, 1);
    }

    #[test]
    fn reset_clears_contents() {
        let mut h = hier();
        let acc = coalesce_sectors([(0u64, 4u32)]);
        h.access(&acc, AccessKind::Read);
        h.reset();
        h.access(&acc, AccessKind::Read);
        assert_eq!(h.stats().l1.misses, 1, "after reset the line is cold again");
    }

    #[test]
    fn batched_access_matches_per_sector_access() {
        // Same access stream through both entry points — including dirty
        // evictions and (non-sectored) whole-line overfetch, the two paths
        // sync_writebacks settles — must produce identical stats.
        let l2 = CacheConfig::new(1 << 12, 128, 8);
        for l2_cfg in [l2, l2.non_sectored()] {
            let cfg = HierarchyConfig { l1: CacheConfig::new(512, 128, 2), l2: l2_cfg };
            let mut a = MemHierarchy::new(cfg);
            let mut b = MemHierarchy::new(cfg);
            for round in 0..3u64 {
                for line in 0..64u64 {
                    let addr = line * 128 + round * 32;
                    let acc = coalesce_sectors([(addr, 64u32), (addr + 4096, 4u32)]);
                    let kind =
                        if (line + round) % 3 == 0 { AccessKind::Write } else { AccessKind::Read };
                    assert_eq!(a.access(&acc, kind), b.access_batched(&acc, kind));
                    // A one-lane, one-sector access, the shape
                    // `Warp::scalar_access` sends.
                    let acc = coalesce_sectors([(addr + 8192 + 4, 4u32)]);
                    assert_eq!(acc.sectors.len(), 1);
                    assert_eq!(a.access(&acc, kind), b.access_batched(&acc, kind));
                }
            }
            a.flush();
            b.flush();
            assert_eq!(a.stats(), b.stats());
        }
    }

    #[test]
    fn non_sectored_l2_amplifies_scattered_traffic() {
        // AMD-style whole-line fills: a scattered 4-byte read stream pulls
        // full 128-byte lines from HBM, ~4× the sectored traffic.
        let bytes = |sectored: bool| {
            let l2 = CacheConfig::new(1 << 12, 128, 8);
            let cfg = HierarchyConfig {
                l1: CacheConfig::new(512, 128, 2),
                l2: if sectored { l2 } else { l2.non_sectored() },
            };
            let mut h = MemHierarchy::new(cfg);
            // 512 distinct lines ≫ capacity: every access line-misses.
            for line in 0..512u64 {
                let acc = coalesce_sectors([(line * 128, 4u32)]);
                h.access(&acc, AccessKind::Read);
            }
            h.stats().hbm_bytes()
        };
        let sectored = bytes(true);
        let whole_line = bytes(false);
        assert_eq!(whole_line, 4 * sectored, "{whole_line} vs {sectored}");
    }

    #[test]
    fn non_sectored_fill_makes_sibling_sectors_hit() {
        let l2 = CacheConfig::new(1 << 12, 128, 8).non_sectored();
        let cfg = HierarchyConfig { l1: CacheConfig::new(512, 128, 2), l2 };
        let mut h = MemHierarchy::new(cfg);
        // Atomic to sector 0 fills the whole line at L2…
        h.access_atomic_sector(0);
        let before = h.stats().hbm_read_transactions;
        // …so the sibling sector is already resident.
        h.access_atomic_sector(1);
        assert_eq!(h.stats().hbm_read_transactions, before);
        assert_eq!(h.stats().l2.hits, 1);
    }

    #[test]
    fn smaller_l2_moves_more_hbm_bytes() {
        // The paper's central cache-size claim, in miniature: stream a
        // working set that fits the big L2 but not the small one.
        let big = HierarchyConfig {
            l1: CacheConfig::new(512, 128, 2),
            l2: CacheConfig::new(1 << 15, 128, 8), // 32 KiB
        };
        let small = HierarchyConfig {
            l1: CacheConfig::new(512, 128, 2),
            l2: CacheConfig::new(1 << 12, 128, 8), // 4 KiB
        };
        let bytes = |cfg: HierarchyConfig| {
            let mut h = MemHierarchy::new(cfg);
            for _ in 0..4 {
                for line in 0..128u64 {
                    // 16 KiB working set
                    let acc = coalesce_sectors([(line * 128, 4u32)]);
                    h.access(&acc, AccessKind::Read);
                }
            }
            h.stats().hbm_bytes()
        };
        assert!(bytes(small) > 2 * bytes(big));
    }
}
