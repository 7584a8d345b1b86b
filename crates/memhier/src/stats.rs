//! Counter containers for memory traffic, mergeable across warps.

use crate::config::SECTOR_BYTES;
use serde::{Deserialize, Serialize};
use std::ops::AddAssign;

/// Counters for one cache level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LevelStats {
    /// Sector requests arriving at this level.
    pub requests: u64,
    /// Requests served from this level (tag + sector present).
    pub hits: u64,
    /// Requests forwarded to the level below.
    pub misses: u64,
    /// Dirty-sector write-backs sent to the level below.
    pub writebacks: u64,
}

impl LevelStats {
    /// Hit rate in [0, 1]; zero requests ⇒ 0.
    pub fn hit_rate(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.hits as f64 / self.requests as f64
        }
    }
}

impl AddAssign for LevelStats {
    fn add_assign(&mut self, o: Self) {
        self.requests += o.requests;
        self.hits += o.hits;
        self.misses += o.misses;
        self.writebacks += o.writebacks;
    }
}

/// Full-hierarchy traffic counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemStats {
    pub l1: LevelStats,
    pub l2: LevelStats,
    /// 32-byte read transactions that reached HBM.
    pub hbm_read_transactions: u64,
    /// 32-byte write transactions that reached HBM (write-backs).
    pub hbm_write_transactions: u64,
    /// Warp-level load/store instructions issued.
    pub mem_instructions: u64,
}

impl MemStats {
    /// Total HBM bytes moved — the paper's `dram__bytes.sum` equivalent.
    pub fn hbm_bytes(&self) -> u64 {
        (self.hbm_read_transactions + self.hbm_write_transactions) * SECTOR_BYTES
    }

    /// Total HBM transactions.
    pub fn hbm_transactions(&self) -> u64 {
        self.hbm_read_transactions + self.hbm_write_transactions
    }

    pub fn merge(&mut self, o: &MemStats) {
        self.l1 += o.l1;
        self.l2 += o.l2;
        self.hbm_read_transactions += o.hbm_read_transactions;
        self.hbm_write_transactions += o.hbm_write_transactions;
        self.mem_instructions += o.mem_instructions;
    }

    /// Counters accumulated since an `earlier` snapshot of the same stream
    /// (per-phase attribution). Panics in debug builds if `earlier` is not
    /// actually earlier.
    pub fn since(&self, earlier: &MemStats) -> MemStats {
        let lvl = |a: &LevelStats, b: &LevelStats| LevelStats {
            requests: a.requests - b.requests,
            hits: a.hits - b.hits,
            misses: a.misses - b.misses,
            writebacks: a.writebacks - b.writebacks,
        };
        MemStats {
            l1: lvl(&self.l1, &earlier.l1),
            l2: lvl(&self.l2, &earlier.l2),
            hbm_read_transactions: self.hbm_read_transactions - earlier.hbm_read_transactions,
            hbm_write_transactions: self.hbm_write_transactions - earlier.hbm_write_transactions,
            mem_instructions: self.mem_instructions - earlier.mem_instructions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate_handles_zero() {
        assert_eq!(LevelStats::default().hit_rate(), 0.0);
        let s = LevelStats { requests: 10, hits: 7, misses: 3, writebacks: 0 };
        assert!((s.hit_rate() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn hbm_bytes_counts_both_directions() {
        let s = MemStats {
            hbm_read_transactions: 3,
            hbm_write_transactions: 2,
            ..Default::default()
        };
        assert_eq!(s.hbm_bytes(), 5 * SECTOR_BYTES);
    }

    #[test]
    fn merge_accumulates_every_field() {
        let mut a = MemStats {
            l1: LevelStats { requests: 1, hits: 1, misses: 0, writebacks: 0 },
            l2: LevelStats { requests: 2, hits: 0, misses: 2, writebacks: 1 },
            hbm_read_transactions: 2,
            hbm_write_transactions: 1,
            mem_instructions: 5,
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.l1.requests, 2);
        assert_eq!(a.l2.writebacks, 2);
        assert_eq!(a.hbm_transactions(), 6);
        assert_eq!(a.mem_instructions, 10);
    }
}
