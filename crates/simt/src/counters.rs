//! Instruction and traffic accounting.
//!
//! The paper measures (Appendix B):
//!
//! * NVIDIA: INTOPs from warp-instruction counters such as
//!   `smsp__inst_executed.sum`, and `HBM bytes = dram__bytes.sum`;
//! * AMD: `INTOPs = 64 × (SQ_INSTS_VALU_INT32 + SQ_INSTS_VALU_INT64)` and
//!   HBM bytes from `TCC_EA_*` request counters;
//! * Intel: Advisor's INT-op and GTI/HBM traffic counters.
//!
//! Here INTOPs = width × integer warp instructions on every device: one
//! vector instruction costs the full warp width regardless of predication.
//! On NVIDIA, counters like `smsp__inst_executed` supply the warp-level
//! instruction count, which carries no width factor of its own, so
//! [`WarpCounters::intops`] multiplies integer warp instructions by the
//! warp width. Thread predication (the load-imbalance effect the paper
//! analyses at large k) shows up as inflated INTOPs per useful lane-op,
//! which we additionally expose via [`WarpCounters::lane_utilization`].

use memhier::MemStats;

/// Counters for one warp's execution.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WarpCounters {
    /// Warp width this warp executed with.
    pub width: u32,
    /// All warp instructions issued (integer + memory + sync + collective).
    pub warp_instructions: u64,
    /// Integer-arithmetic warp instructions.
    pub int_instructions: u64,
    /// Collective (shuffle/ballot/match/vote) instructions.
    pub collective_instructions: u64,
    /// Warp/sub-group synchronization instructions.
    pub sync_instructions: u64,
    /// Atomic instructions (before conflict replays).
    pub atomic_instructions: u64,
    /// Extra serialized replays caused by atomic address conflicts.
    pub atomic_replays: u64,
    /// Sum over integer instructions of the number of *active* lanes —
    /// the "useful" lane-ops, for utilization analysis.
    pub lane_int_ops: u64,
    /// Integer instructions bucketed by active-lane fraction quartile
    /// ((0,25 %], (25,50 %], (50,75 %], (75,100 %]) — the divergence
    /// profile behind the paper's thread-predication discussion.
    pub occupancy_quartiles: [u64; 4],
    /// Memory traffic of this warp.
    pub mem: MemStats,
}

impl WarpCounters {
    /// Zeroed counters for a warp of the given width.
    pub fn new(width: u32) -> Self {
        WarpCounters { width, ..Default::default() }
    }

    /// Warp-level integer operations: integer instructions × warp width
    /// (the quantity plotted on the paper's instruction roofline).
    pub fn intops(&self) -> u64 {
        self.int_instructions * self.width as u64
    }

    /// Fraction of issued integer lane-slots that carried an active lane.
    pub fn lane_utilization(&self) -> f64 {
        let issued = self.int_instructions * self.width as u64;
        if issued == 0 {
            0.0
        } else {
            self.lane_int_ops as f64 / issued as f64
        }
    }

    /// INTOP intensity: integer operations per HBM byte (the paper's "II").
    pub fn intop_intensity(&self) -> f64 {
        let b = self.mem.hbm_bytes();
        if b == 0 {
            f64::INFINITY
        } else {
            self.intops() as f64 / b as f64
        }
    }

    /// Fraction of integer instructions issued in each active-lane
    /// quartile.
    pub fn divergence_profile(&self) -> [f64; 4] {
        let total: u64 = self.occupancy_quartiles.iter().sum();
        if total == 0 {
            return [0.0; 4];
        }
        self.occupancy_quartiles.map(|q| q as f64 / total as f64)
    }

    /// Counters accumulated since an `earlier` snapshot of this warp.
    pub fn since(&self, earlier: &WarpCounters) -> WarpCounters {
        debug_assert_eq!(self.width, earlier.width);
        WarpCounters {
            width: self.width,
            warp_instructions: self.warp_instructions - earlier.warp_instructions,
            int_instructions: self.int_instructions - earlier.int_instructions,
            collective_instructions: self.collective_instructions
                - earlier.collective_instructions,
            sync_instructions: self.sync_instructions - earlier.sync_instructions,
            atomic_instructions: self.atomic_instructions - earlier.atomic_instructions,
            atomic_replays: self.atomic_replays - earlier.atomic_replays,
            lane_int_ops: self.lane_int_ops - earlier.lane_int_ops,
            occupancy_quartiles: [
                self.occupancy_quartiles[0] - earlier.occupancy_quartiles[0],
                self.occupancy_quartiles[1] - earlier.occupancy_quartiles[1],
                self.occupancy_quartiles[2] - earlier.occupancy_quartiles[2],
                self.occupancy_quartiles[3] - earlier.occupancy_quartiles[3],
            ],
            mem: self.mem.since(&earlier.mem),
        }
    }
}

/// Aggregated counters across all warps of a launch.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AggCounters {
    /// Warp width of the launch (all warps of a launch share one width).
    pub width: u32,
    /// Number of warps absorbed into this aggregate.
    pub warps: u64,
    /// Total warp instructions across all warps.
    pub warp_instructions: u64,
    /// Total integer-arithmetic warp instructions.
    pub int_instructions: u64,
    /// Total collective (shuffle/ballot/match/vote) instructions.
    pub collective_instructions: u64,
    /// Total warp/sub-group synchronization instructions.
    pub sync_instructions: u64,
    /// Total atomic instructions (before conflict replays).
    pub atomic_instructions: u64,
    /// Total serialized replays caused by atomic address conflicts.
    pub atomic_replays: u64,
    /// Total active-lane integer ops (see [`WarpCounters::lane_int_ops`]).
    pub lane_int_ops: u64,
    /// Summed divergence profile (see
    /// [`WarpCounters::occupancy_quartiles`]).
    pub occupancy_quartiles: [u64; 4],
    /// Longest single-warp instruction stream — the critical path within a
    /// batch when all its warps run concurrently (used by the timing model
    /// and by the binning ablation).
    pub max_warp_instructions: u64,
    /// Memory traffic summed over all warps.
    pub mem: MemStats,
}

impl AggCounters {
    /// Fold one warp's final counters into the aggregate.
    pub fn absorb(&mut self, w: &WarpCounters) {
        debug_assert!(self.width == 0 || self.width == w.width);
        self.width = w.width;
        self.warps += 1;
        self.warp_instructions += w.warp_instructions;
        self.int_instructions += w.int_instructions;
        self.collective_instructions += w.collective_instructions;
        self.sync_instructions += w.sync_instructions;
        self.atomic_instructions += w.atomic_instructions;
        self.atomic_replays += w.atomic_replays;
        self.lane_int_ops += w.lane_int_ops;
        for (a, b) in self.occupancy_quartiles.iter_mut().zip(w.occupancy_quartiles) {
            *a += b;
        }
        self.max_warp_instructions = self.max_warp_instructions.max(w.warp_instructions);
        self.mem.merge(&w.mem);
    }

    /// Combine with another aggregate (e.g. per-batch partial sums).
    pub fn merge(&mut self, o: &AggCounters) {
        debug_assert!(self.width == 0 || o.width == 0 || self.width == o.width);
        self.width = self.width.max(o.width);
        self.warps += o.warps;
        self.warp_instructions += o.warp_instructions;
        self.int_instructions += o.int_instructions;
        self.collective_instructions += o.collective_instructions;
        self.sync_instructions += o.sync_instructions;
        self.atomic_instructions += o.atomic_instructions;
        self.atomic_replays += o.atomic_replays;
        self.lane_int_ops += o.lane_int_ops;
        for (a, b) in self.occupancy_quartiles.iter_mut().zip(o.occupancy_quartiles) {
            *a += b;
        }
        self.max_warp_instructions = self.max_warp_instructions.max(o.max_warp_instructions);
        self.mem.merge(&o.mem);
    }

    /// Warp-level integer operations.
    pub fn intops(&self) -> u64 {
        self.int_instructions * self.width as u64
    }

    /// INTOP intensity (integer ops per HBM byte).
    pub fn intop_intensity(&self) -> f64 {
        let b = self.mem.hbm_bytes();
        if b == 0 {
            f64::INFINITY
        } else {
            self.intops() as f64 / b as f64
        }
    }

    /// Lane utilization across all integer instructions.
    pub fn lane_utilization(&self) -> f64 {
        let issued = self.int_instructions * self.width as u64;
        if issued == 0 {
            0.0
        } else {
            self.lane_int_ops as f64 / issued as f64
        }
    }

    /// Fraction of integer instructions per active-lane quartile.
    pub fn divergence_profile(&self) -> [f64; 4] {
        let total: u64 = self.occupancy_quartiles.iter().sum();
        if total == 0 {
            return [0.0; 4];
        }
        self.occupancy_quartiles.map(|q| q as f64 / total as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intops_scale_with_width() {
        let mut w = WarpCounters::new(32);
        w.int_instructions = 10;
        assert_eq!(w.intops(), 320);
        let mut w64 = WarpCounters::new(64);
        w64.int_instructions = 10;
        assert_eq!(w64.intops(), 640, "same instruction stream costs 2× on a 64-wide wavefront");
    }

    #[test]
    fn utilization() {
        let mut w = WarpCounters::new(32);
        w.int_instructions = 10;
        w.lane_int_ops = 160; // half the lanes active on average
        assert!((w.lane_utilization() - 0.5).abs() < 1e-12);
        assert_eq!(WarpCounters::new(32).lane_utilization(), 0.0);
    }

    #[test]
    fn intensity_zero_bytes_is_infinite() {
        let mut w = WarpCounters::new(32);
        w.int_instructions = 1;
        assert!(w.intop_intensity().is_infinite());
    }

    #[test]
    fn absorb_tracks_max() {
        let mut agg = AggCounters::default();
        let mut a = WarpCounters::new(32);
        a.warp_instructions = 100;
        let mut b = WarpCounters::new(32);
        b.warp_instructions = 250;
        agg.absorb(&a);
        agg.absorb(&b);
        assert_eq!(agg.warps, 2);
        assert_eq!(agg.warp_instructions, 350);
        assert_eq!(agg.max_warp_instructions, 250);
    }

    #[test]
    fn merge_combines() {
        let mut a = AggCounters { width: 32, warps: 1, warp_instructions: 5, ..Default::default() };
        let b = AggCounters {
            width: 32,
            warps: 2,
            warp_instructions: 7,
            max_warp_instructions: 7,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.warps, 3);
        assert_eq!(a.warp_instructions, 12);
        assert_eq!(a.max_warp_instructions, 7);
    }
}

#[cfg(test)]
mod divergence_tests {
    use super::*;

    #[test]
    fn quartile_profile_normalizes() {
        let mut w = WarpCounters::new(32);
        w.occupancy_quartiles = [1, 1, 0, 2];
        let p = w.divergence_profile();
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((p[3] - 0.5).abs() < 1e-12);
        assert_eq!(WarpCounters::new(32).divergence_profile(), [0.0; 4]);
    }

    #[test]
    fn since_subtracts_quartiles() {
        let mut a = WarpCounters::new(32);
        a.occupancy_quartiles = [5, 4, 3, 2];
        let mut b = WarpCounters::new(32);
        b.occupancy_quartiles = [1, 1, 1, 1];
        assert_eq!(a.since(&b).occupancy_quartiles, [4, 3, 2, 1]);
    }
}
