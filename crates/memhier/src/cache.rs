//! A sectored, set-associative cache level with LRU replacement.
//!
//! GPU caches are *sectored*: a line is allocated as a whole (tag + set slot)
//! but only the 32-byte sectors that were actually requested are filled from
//! the level below. This matters for the paper's workload — random
//! hash-table probes touch one or two sectors of a line, and a non-sectored
//! model would overestimate DRAM traffic by up to 4×.

use crate::config::CacheConfig;

/// Outcome of accessing one sector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SectorOutcome {
    /// Tag and sector present.
    Hit,
    /// Tag present but the sector had not been filled yet.
    SectorMiss,
    /// Tag absent: a (possibly evicting) line allocation plus sector fill.
    LineMiss,
}

impl SectorOutcome {
    /// Whether the level below must be consulted.
    pub fn is_miss(self) -> bool {
        !matches!(self, SectorOutcome::Hit)
    }
}

/// Tag of an invalid way. Line tags are `addr / line_bytes`, so no access
/// reaches it (`access_sector` asserts as much).
const INVALID_TAG: u64 = u64::MAX;

/// Per-line state beside the tag: 16 bytes, so a line costs 24 host bytes.
#[derive(Debug, Clone, Copy, Default)]
struct LineMeta {
    /// LRU timestamp; 0 marks an invalid way (every access ticks first, so
    /// valid lines hold ≥ 1), which makes "first invalid way, else LRU" a
    /// plain first-minimum search.
    last_use: u64,
    /// Bit i set ⇒ sector i of the line is present.
    valid: u32,
    /// Bit i set ⇒ sector i has been written (dirty); used for write-back
    /// accounting.
    dirty: u32,
}

/// One cache level.
///
/// Lines are stored set-major in two parallel arrays (`tags` and `meta`).
/// Each set carries one `(gen, dirty_gen)` stamp: a set whose stamp lags
/// the cache's generations holds stale contents and is normalized (lines
/// invalidated, or only dirty bits cleared) on its first touch. That keeps
/// [`Cache::reset`] and [`Cache::flush`] O(1) without per-line stamps.
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    tags: Vec<u64>,
    meta: Vec<LineMeta>,
    /// `(gen, dirty_gen)` the set was last normalized under.
    stamps: Vec<(u64, u64)>,
    tick: u64,
    /// Geometry derived from `cfg` — `access_sector` is the simulator's
    /// innermost loop and recomputing these costs divisions per access.
    n_sets: u64,
    sectors_per_line: u64,
    /// `log2(sectors_per_line)` when it is a power of two (every real GPU
    /// geometry: 128-byte lines of 32-byte sectors), letting the per-access
    /// line-tag split compile to a shift and mask instead of two divisions.
    spl_shift: Option<u32>,
    /// Current line generation; a set stamped with an older one is invalid.
    gen: u64,
    /// Current dirty-bit generation; a set stamped with an older one has
    /// clean lines.
    dirty_gen: u64,
    /// Dirty sectors currently resident, maintained incrementally so
    /// [`Cache::flush`] is O(1) instead of a scan over every line.
    dirty_sectors: u64,
    /// Dirty sectors evicted (write-back traffic to the level below).
    pub writebacks: u64,
    /// Extra sectors fetched beyond the requested one (non-sectored whole-
    /// line fills); charged as additional traffic from the level below.
    pub extra_fills: u64,
}

impl Cache {
    pub fn new(cfg: CacheConfig) -> Self {
        let mut cache = Cache {
            cfg,
            tags: Vec::new(),
            meta: Vec::new(),
            stamps: Vec::new(),
            tick: 0,
            n_sets: 0,
            sectors_per_line: 0,
            spl_shift: None,
            gen: 0,
            dirty_gen: 0,
            dirty_sectors: 0,
            writebacks: 0,
            extra_fills: 0,
        };
        cache.reconfigure(cfg);
        cache
    }

    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Reset into geometry `cfg`: the resulting state is indistinguishable
    /// from `Cache::new(cfg)`. The line arrays are reused when they are large
    /// enough, so the pooled-launch path allocates nothing at steady state;
    /// otherwise they are freed before the larger ones are allocated, so two
    /// line arrays never coexist. [`Cache::trim`] gives spare capacity back.
    pub fn reconfigure(&mut self, cfg: CacheConfig) {
        let sets = cfg.sets() as usize;
        let lines = sets * cfg.ways as usize;
        // Stale contents left in reused buffers are never read: `reset`
        // below makes every set's stamp lag, so each set is normalized on
        // its first touch under the new geometry.
        refit(&mut self.tags, lines, INVALID_TAG);
        refit(&mut self.meta, lines, LineMeta::default());
        refit(&mut self.stamps, sets, (0, 0));
        let spl = cfg.sectors_per_line() as u64;
        self.cfg = cfg;
        self.n_sets = sets as u64;
        self.sectors_per_line = spl;
        self.spl_shift = spl.is_power_of_two().then(|| spl.trailing_zeros());
        self.reset();
    }

    /// Shrink the line arrays in place to the current geometry, giving back
    /// what a larger earlier geometry left behind.
    pub fn trim(&mut self) {
        self.tags.shrink_to_fit();
        self.meta.shrink_to_fit();
        self.stamps.shrink_to_fit();
    }

    /// Clear all contents and counters (reuse between warps).
    ///
    /// O(1): bumping the generation invalidates every set lazily, so a
    /// pooled warp's reset does not rescan a multi-megabyte line array the
    /// way constructing a fresh cache must. Observable behaviour (access
    /// outcomes, traffic counters) is identical to a fresh cache; only the
    /// private LRU tick keeps counting, which never reaches lines of an
    /// older generation. A u64 generation cannot wrap in any real run.
    pub fn reset(&mut self) {
        self.gen += 1;
        self.dirty_gen += 1;
        self.dirty_sectors = 0;
        self.writebacks = 0;
        self.extra_fills = 0;
    }

    /// Access one sector (identified by its sector-granular address
    /// `sector_addr = addr / SECTOR_BYTES`). Returns what happened; on a
    /// miss the caller is responsible for forwarding to the level below.
    pub fn access_sector(&mut self, sector_addr: u64, write: bool) -> SectorOutcome {
        self.tick += 1;
        let tick = self.tick;
        let sectors_per_line = self.sectors_per_line;
        let (line_tag, sector_in_line) = match self.spl_shift {
            Some(sh) => (sector_addr >> sh, (sector_addr & (sectors_per_line - 1)) as u32),
            None => (sector_addr / sectors_per_line, (sector_addr % sectors_per_line) as u32),
        };
        assert!(line_tag != INVALID_TAG, "sector address {sector_addr:#x} out of range");
        let sector_bit = 1u32 << sector_in_line;
        let set = (line_tag % self.n_sets) as usize;
        let lo = set * self.cfg.ways as usize;
        let hi = lo + self.cfg.ways as usize;
        let (tags, meta) = (&mut self.tags[lo..hi], &mut self.meta[lo..hi]);

        // Normalize a set stamped under an older generation.
        let stamp = &mut self.stamps[set];
        if *stamp != (self.gen, self.dirty_gen) {
            if stamp.0 != self.gen {
                tags.fill(INVALID_TAG);
                meta.fill(LineMeta::default());
            } else {
                meta.iter_mut().for_each(|m| m.dirty = 0);
            }
            *stamp = (self.gen, self.dirty_gen);
        }

        if let Some(way) = tags.iter().position(|&t| t == line_tag) {
            let line = &mut meta[way];
            line.last_use = tick;
            if write {
                if line.dirty & sector_bit == 0 {
                    self.dirty_sectors += 1;
                }
                line.dirty |= sector_bit;
            }
            let present = line.valid & sector_bit != 0;
            line.valid |= sector_bit;
            return if present { SectorOutcome::Hit } else { SectorOutcome::SectorMiss };
        }

        // Miss: the first way with the smallest timestamp is the first
        // invalid way, else the LRU line.
        let (victim, _) = meta
            .iter()
            .enumerate()
            .min_by_key(|(_, m)| m.last_use)
            .expect("set has at least one way");
        let line = &mut meta[victim];
        let evicted = line.dirty.count_ones() as u64;
        self.writebacks += evicted;
        self.dirty_sectors -= evicted;
        let valid = if self.cfg.sectored {
            sector_bit
        } else {
            // Whole-line fill: every sector arrives from the level below.
            self.extra_fills += sectors_per_line - 1;
            u32::MAX >> (32 - sectors_per_line)
        };
        if write {
            self.dirty_sectors += 1;
        }
        tags[victim] = line_tag;
        *line = LineMeta { last_use: tick, valid, dirty: if write { sector_bit } else { 0 } };
        SectorOutcome::LineMiss
    }

    /// Flush all dirty sectors, returning the number of dirty sectors that
    /// would be written back (and counting them into `writebacks`).
    ///
    /// O(1): the resident dirty count is maintained incrementally and the
    /// per-line dirty bits are invalidated by bumping the dirty generation
    /// rather than clearing each line.
    pub fn flush(&mut self) -> u64 {
        let flushed = self.dirty_sectors;
        self.dirty_sectors = 0;
        self.dirty_gen += 1;
        self.writebacks += flushed;
        flushed
    }
}

/// Resize `v` to `len`, keeping its buffer when it is large enough. A
/// larger buffer is allocated at the exact size only after the old one is
/// freed, so two copies of a line array never coexist.
fn refit<T: Clone>(v: &mut Vec<T>, len: usize, fill: T) {
    if len > v.capacity() {
        *v = Vec::new();
        v.reserve_exact(len);
    }
    v.resize(len, fill);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        // 2 sets × 2 ways × 128 B lines = 512 B.
        Cache::new(CacheConfig::new(512, 128, 2))
    }

    #[test]
    fn first_touch_is_line_miss_then_hit() {
        let mut c = small();
        assert_eq!(c.access_sector(0, false), SectorOutcome::LineMiss);
        assert_eq!(c.access_sector(0, false), SectorOutcome::Hit);
    }

    #[test]
    fn sibling_sector_is_sector_miss() {
        let mut c = small();
        assert_eq!(c.access_sector(0, false), SectorOutcome::LineMiss);
        // Sector 1 of the same 128-byte line (4 sectors per line).
        assert_eq!(c.access_sector(1, false), SectorOutcome::SectorMiss);
        assert_eq!(c.access_sector(1, false), SectorOutcome::Hit);
    }

    #[test]
    fn lru_eviction_within_set() {
        let mut c = small();
        // Lines map to sets by (line_tag % 2). Tags 0, 2, 4 share set 0.
        let s = |line: u64| line * 4; // first sector of each line
        assert_eq!(c.access_sector(s(0), false), SectorOutcome::LineMiss);
        assert_eq!(c.access_sector(s(2), false), SectorOutcome::LineMiss);
        // Touch line 0 so line 2 becomes LRU.
        assert_eq!(c.access_sector(s(0), false), SectorOutcome::Hit);
        // Line 4 evicts line 2.
        assert_eq!(c.access_sector(s(4), false), SectorOutcome::LineMiss);
        assert_eq!(c.access_sector(s(0), false), SectorOutcome::Hit);
        assert_eq!(c.access_sector(s(2), false), SectorOutcome::LineMiss);
    }

    #[test]
    fn dirty_eviction_counts_writeback() {
        let mut c = small();
        let s = |line: u64| line * 4;
        c.access_sector(s(0), true);
        c.access_sector(s(2), false);
        c.access_sector(s(4), false); // evicts line 2 (clean) or 0? LRU: line 0 older…
        c.access_sector(s(6), false);
        // By now the dirty line 0 must have been evicted.
        assert!(c.writebacks >= 1, "dirty sector eviction must be counted");
    }

    #[test]
    fn flush_writes_back_all_dirty() {
        let mut c = small();
        c.access_sector(0, true);
        c.access_sector(4, true);
        let flushed = c.flush();
        assert_eq!(flushed, 2);
        assert_eq!(c.writebacks, 2);
        // Second flush is a no-op.
        assert_eq!(c.flush(), 0);
    }

    #[test]
    fn reset_clears_state() {
        let mut c = small();
        c.access_sector(0, true);
        c.reset();
        assert_eq!(c.writebacks, 0);
        assert_eq!(c.access_sector(0, false), SectorOutcome::LineMiss);
    }

    #[test]
    fn reconfigure_keeps_buffers_until_trimmed() {
        let mut c = Cache::new(CacheConfig::new(64 * 1024, 128, 8)); // 64 sets, 512 lines
        let caps = |c: &Cache| (c.tags.capacity(), c.meta.capacity(), c.stamps.capacity());
        c.reconfigure(CacheConfig::new(2 * 1024, 128, 4)); // 4 sets, 16 lines
        assert_eq!(caps(&c), (512, 512, 64), "a smaller geometry reuses the buffers");
        c.access_sector(5, true);
        c.trim();
        assert_eq!(caps(&c), (16, 16, 4), "trim shrinks them to the geometry");
        // Trimming keeps the contents and counters.
        assert_eq!(c.access_sector(5, false), SectorOutcome::Hit);
        assert_eq!(c.flush(), 1);
    }

    #[test]
    fn working_set_larger_than_capacity_thrashes() {
        let mut c = small(); // 4 lines total
        let mut line_misses = 0;
        for round in 0..3 {
            for line in 0..8u64 {
                if c.access_sector(line * 4, false) == SectorOutcome::LineMiss {
                    line_misses += 1;
                }
            }
            let _ = round;
        }
        // 8 lines cycling through 4-line cache with LRU ⇒ every access misses.
        assert_eq!(line_misses, 24);
    }

    #[test]
    fn working_set_within_capacity_stops_missing() {
        let mut c = small();
        for _ in 0..3 {
            for line in 0..4u64 {
                c.access_sector(line * 4, false);
            }
        }
        // After warm-up all four lines fit (2 per set).
        let mut misses = 0;
        for line in 0..4u64 {
            if c.access_sector(line * 4, false).is_miss() {
                misses += 1;
            }
        }
        assert_eq!(misses, 0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// A plain per-line LRU cache with eager `reset` and `flush`: the
    /// semantics the packed [`Cache`] must reproduce outcome for outcome.
    struct RefCache {
        cfg: CacheConfig,
        /// `(tag, valid bits, dirty bits, last use)` per line, set-major.
        lines: Vec<(Option<u64>, u64, u64, u64)>,
        tick: u64,
        writebacks: u64,
        extra_fills: u64,
    }

    impl RefCache {
        fn new(cfg: CacheConfig) -> Self {
            let lines = vec![(None, 0, 0, 0); cfg.lines() as usize];
            RefCache { cfg, lines, tick: 0, writebacks: 0, extra_fills: 0 }
        }

        fn access(&mut self, sector: u64, write: bool) -> SectorOutcome {
            self.tick += 1;
            let spl = self.cfg.sectors_per_line() as u64;
            let (tag, bit) = (sector / spl, 1u64 << (sector % spl));
            let ways = self.cfg.ways as usize;
            let lo = (tag % self.cfg.sets()) as usize * ways;
            let set = &mut self.lines[lo..lo + ways];
            let written = if write { bit } else { 0 };
            if let Some(line) = set.iter_mut().find(|l| l.0 == Some(tag)) {
                let present = line.1 & bit != 0;
                *line = (Some(tag), line.1 | bit, line.2 | written, self.tick);
                return if present { SectorOutcome::Hit } else { SectorOutcome::SectorMiss };
            }
            // First invalid way, else the least recently used line.
            let victim = set.iter_mut().min_by_key(|l| (l.0.is_some(), l.3)).expect("ways > 0");
            self.writebacks += victim.2.count_ones() as u64;
            let valid = if self.cfg.sectored {
                bit
            } else {
                self.extra_fills += spl - 1;
                (1 << spl) - 1
            };
            *victim = (Some(tag), valid, written, self.tick);
            SectorOutcome::LineMiss
        }

        fn flush(&mut self) -> u64 {
            let dirty: u64 = self.lines.iter().map(|l| l.2.count_ones() as u64).sum();
            self.lines.iter_mut().for_each(|l| l.2 = 0);
            self.writebacks += dirty;
            dirty
        }
    }

    /// Sectored and whole-line fills, odd set counts, a 1-set cache, a
    /// direct-mapped cache, a non-power-of-two sector count and 32-sector
    /// lines (full bitmaps).
    fn configs() -> [CacheConfig; 8] {
        [
            CacheConfig::new(512, 128, 2),
            CacheConfig::new(512, 128, 2).non_sectored(),
            CacheConfig::new(3 * 2 * 128, 128, 2),
            CacheConfig::new(5 * 4 * 64, 64, 4).non_sectored(),
            CacheConfig::new(4 * 128, 128, 4),
            CacheConfig::new(7 * 32, 32, 1),
            CacheConfig::new(3 * 2 * 1024, 1024, 2).non_sectored(),
            CacheConfig::new(3 * 2 * 96, 96, 2),
        ]
    }

    proptest! {
        /// Random `(sector, write)` streams mixed with `reset`, `flush` and
        /// `reconfigure`, over three address regions: low line tags, tags
        /// straddling 2^32 and tags near 2^62, so wide tags share sets with
        /// narrow ones.
        #[test]
        fn packed_cache_matches_reference(
            first in 0usize..8,
            ops in proptest::collection::vec((0u32..100, 0u64..768, any::<bool>()), 0..400),
        ) {
            let mut cache = Cache::new(configs()[first]);
            let mut model = RefCache::new(configs()[first]);
            for (op, x, write) in ops {
                match op {
                    0..=89 => {
                        let spl = model.cfg.sectors_per_line() as u64;
                        let base = [0, ((1 << 32) - 4) * spl, 1 << 62][x as usize / 256];
                        let sector = base + x % 256;
                        prop_assert_eq!(cache.access_sector(sector, write), model.access(sector, write));
                    }
                    90..=93 => prop_assert_eq!(cache.flush(), model.flush()),
                    94..=96 => {
                        cache.reset();
                        model = RefCache::new(model.cfg);
                    }
                    _ => {
                        let cfg = configs()[x as usize % 8];
                        cache.reconfigure(cfg);
                        model = RefCache::new(cfg);
                    }
                }
                prop_assert_eq!(cache.writebacks, model.writebacks);
                prop_assert_eq!(cache.extra_fills, model.extra_fills);
            }
        }
    }
}
