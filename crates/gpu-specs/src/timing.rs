//! Analytic timing model: counters → estimated kernel seconds.
//!
//! Real profiles give wall-clock time; a functional simulator does not. We
//! estimate time from three ceilings, mirroring how the instruction roofline
//! interprets performance:
//!
//! * **compute**: warp instructions over the sustained issue rate,
//! * **bandwidth**: HBM bytes over sustained bandwidth,
//! * **latency**: HBM transactions over the latency-limited request rate
//!   (`resident_warps × mlp / latency`) — the binding term for
//!   pointer-chasing phases like the mer-walk.
//!
//! The terms are summed rather than maxed: for an irregular, divergent
//! kernel, overlap between issue and memory stalls is poor (this is exactly
//! why the paper's measured architectural efficiencies sit near 15% of the
//! roofline rather than near 100%). `sustained_*` fractions on
//! [`DeviceSpec`] are the calibration constants and are reported in
//! EXPERIMENTS.md.
//!
//! The analytic latency term can be *replaced* by a simulated one: the
//! scheduled-execution mode (`simt::sched`) replays per-warp instruction
//! timelines through per-SM issue ports and reports the latency the
//! resident warps could not hide. [`sched_config`] builds the replay
//! configuration from a [`DeviceSpec`] (tick = 1 picosecond), and
//! [`TimeEstimate::with_latency_override`] swaps the simulated exposure in
//! for the analytic `t_latency`. The full pipeline is documented in
//! `docs/TIMING.md`.

use crate::occupancy::resident_warps;
use crate::spec::DeviceSpec;
use serde::{Deserialize, Serialize};
use simt::{AggCounters, SchedConfig};

/// Scheduler-replay ticks per second: one tick is a picosecond, fine
/// enough that an A100 warp instruction (~60 ns of one SM's issue port)
/// and an L1 hit (~20 ns) are both exactly representable.
pub const TICKS_PER_SEC: f64 = 1e12;

/// Convert scheduler-replay ticks to seconds.
pub fn ticks_to_seconds(ticks: u64) -> f64 {
    ticks as f64 / TICKS_PER_SEC
}

/// Issue-port occupancy of one warp instruction on one SM, in ticks.
///
/// The device retires lane-slots at `peak_intops_per_sec ×
/// sustained_issue_frac` spread over `compute_units` SMs, and one warp
/// instruction is `warp_width` lane-slots — so the per-SM issue cost is
/// `width × CUs / (peak × sustained)` seconds. Using the *sustained* rate
/// keeps the replay's stall-free busy time equal to the analytic compute
/// term (pinned by a test below): the scheduler refines only the latency
/// term, never double-counting issue throughput.
pub fn issue_ticks(spec: &DeviceSpec) -> u64 {
    let per_sm_lane_rate =
        spec.peak_intops_per_sec * spec.sustained_issue_frac / spec.compute_units as f64;
    (spec.warp_width as f64 / per_sm_lane_rate * TICKS_PER_SEC).round() as u64
}

/// Build the scheduled-replay configuration for `spec` at the given
/// residency (warps per SM — see `occupancy::scheduled_residency`).
pub fn sched_config(spec: &DeviceSpec, residency: u32) -> SchedConfig {
    SchedConfig {
        sms: spec.compute_units,
        residency: residency.max(1),
        issue_ticks: issue_ticks(spec),
        l1_ticks: (spec.l1_latency_sec * TICKS_PER_SEC).round() as u64,
        l2_ticks: (spec.l2_latency_sec * TICKS_PER_SEC).round() as u64,
        hbm_ticks: (spec.hbm_latency_sec * TICKS_PER_SEC).round() as u64,
        record_tracks: false,
    }
}

/// Which ceiling dominated the estimate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Bound {
    /// The issue-rate (compute) term dominated.
    Compute,
    /// The HBM-bandwidth term dominated.
    Bandwidth,
    /// The memory-latency term dominated.
    Latency,
}

/// Inputs to the model, decoupled from `simt` so the analysis layer can use
/// it on synthetic counts too.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ModelParams {
    /// Warp width the kernel ran with (lane-slots = instructions × width).
    pub width: u32,
    /// Total warp instructions executed.
    pub warp_instructions: u64,
    /// Total HBM bytes moved.
    pub hbm_bytes: u64,
    /// Total HBM transactions (32 B sectors).
    pub hbm_transactions: u64,
    /// Number of warps in the launch.
    pub warps: u64,
}

impl ModelParams {
    /// Extract model inputs from a launch's aggregated counters.
    pub fn from_counters(c: &AggCounters) -> Self {
        ModelParams {
            width: c.width,
            warp_instructions: c.warp_instructions,
            hbm_bytes: c.mem.hbm_bytes(),
            hbm_transactions: c.mem.hbm_transactions(),
            warps: c.warps,
        }
    }
}

/// Time estimate with per-term breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimeEstimate {
    /// Total estimated kernel time (sum of the three terms).
    pub seconds: f64,
    /// Compute term: lane-slots over the sustained issue rate.
    pub compute_seconds: f64,
    /// Bandwidth term: HBM bytes over sustained bandwidth.
    pub bandwidth_seconds: f64,
    /// Latency term: analytic (transactions over the latency-limited
    /// request rate) or, after [`TimeEstimate::with_latency_override`],
    /// the scheduled replay's exposed-latency measurement.
    pub latency_seconds: f64,
    /// Which term dominated.
    pub bound: Bound,
}

impl TimeEstimate {
    /// Estimate kernel time for `params` on `spec`, using the device's
    /// default memory-level parallelism.
    pub fn estimate(spec: &DeviceSpec, params: &ModelParams) -> TimeEstimate {
        Self::estimate_with_mlp(spec, params, spec.mlp_per_warp)
    }

    /// Estimate with an explicit per-warp MLP — phases differ: the
    /// warp-parallel construction sustains the device MLP, while the
    /// single-lane pointer-chasing mer-walk has MLP ≈ 1 (each lookup
    /// depends on the previous extension).
    pub fn estimate_with_mlp(spec: &DeviceSpec, params: &ModelParams, mlp: f64) -> TimeEstimate {
        // Compute time from lane-slots: every warp instruction occupies
        // `width` lanes regardless of predication, and the device retires
        // lane-slots at its (sustained) peak INTOP rate.
        let lane_slots = params.warp_instructions as f64 * params.width.max(1) as f64;
        let compute = lane_slots / (spec.peak_intops_per_sec * spec.sustained_issue_frac);

        let bw = spec.hbm_bytes_per_sec * spec.sustained_bw_frac;
        let bandwidth = params.hbm_bytes as f64 / bw;

        let concurrency = resident_warps(spec, params.warps) as f64 * mlp;
        let latency =
            params.hbm_transactions as f64 * spec.hbm_latency_sec / concurrency.max(1.0);

        let bound = if compute >= bandwidth && compute >= latency {
            Bound::Compute
        } else if bandwidth >= latency {
            Bound::Bandwidth
        } else {
            Bound::Latency
        };
        TimeEstimate {
            seconds: compute + bandwidth + latency,
            compute_seconds: compute,
            bandwidth_seconds: bandwidth,
            latency_seconds: latency,
            bound,
        }
    }

    /// Replace the analytic latency term with a simulated one (the
    /// scheduled replay's per-SM exposed latency, already converted to
    /// seconds). Compute and bandwidth terms are kept; the total and the
    /// dominating bound are recomputed.
    pub fn with_latency_override(self, latency_seconds: f64) -> TimeEstimate {
        let bound = if self.compute_seconds >= self.bandwidth_seconds
            && self.compute_seconds >= latency_seconds
        {
            Bound::Compute
        } else if self.bandwidth_seconds >= latency_seconds {
            Bound::Bandwidth
        } else {
            Bound::Latency
        };
        TimeEstimate {
            seconds: self.compute_seconds + self.bandwidth_seconds + latency_seconds,
            latency_seconds,
            bound,
            ..self
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{A100, MAX1550, MI250X};

    fn params(instr: u64, bytes: u64, warps: u64) -> ModelParams {
        ModelParams {
            width: 32,
            warp_instructions: instr,
            hbm_bytes: bytes,
            hbm_transactions: bytes / 32,
            warps,
        }
    }

    #[test]
    fn instruction_heavy_is_compute_bound() {
        let t = TimeEstimate::estimate(&A100, &params(1_000_000_000, 1_000_000, 10_000));
        assert_eq!(t.bound, Bound::Compute);
        assert!(t.seconds >= t.compute_seconds);
    }

    #[test]
    fn byte_heavy_is_memory_side_bound() {
        let t = TimeEstimate::estimate(&A100, &params(1_000, 100_000_000_000, 10_000));
        assert!(matches!(t.bound, Bound::Bandwidth | Bound::Latency));
    }

    #[test]
    fn few_warps_become_latency_bound() {
        // Same traffic, 4 warps vs 10k warps: concurrency collapses.
        let many = TimeEstimate::estimate(&A100, &params(1_000, 1_000_000_000, 10_000));
        let few = TimeEstimate::estimate(&A100, &params(1_000, 1_000_000_000, 4));
        assert!(few.seconds > many.seconds);
        assert_eq!(few.bound, Bound::Latency);
    }

    #[test]
    fn time_is_monotone_in_inputs() {
        let base = params(1_000_000, 1_000_000, 1000);
        let t0 = TimeEstimate::estimate(&MI250X, &base).seconds;
        let more_instr = TimeEstimate::estimate(
            &MI250X,
            &ModelParams { warp_instructions: 2_000_000, ..base },
        )
        .seconds;
        let more_bytes =
            TimeEstimate::estimate(&MI250X, &ModelParams { hbm_bytes: 2_000_000, ..base }).seconds;
        assert!(more_instr > t0);
        assert!(more_bytes > t0);
    }

    #[test]
    fn achieved_performance_below_peak() {
        // Whatever the inputs, achieved INTOPs/s must be below device peak
        // (sustained fractions < 1 guarantee it for compute-bound runs).
        for spec in [&A100, &MI250X, &MAX1550] {
            let p = params(100_000_000, 50_000_000, 5_000);
            let t = TimeEstimate::estimate(spec, &p);
            let intops = p.warp_instructions * p.width as u64;
            assert!(intops as f64 / t.seconds < spec.peak_intops_per_sec);
        }
    }

    #[test]
    fn zero_work_is_zero_time() {
        let t = TimeEstimate::estimate(&A100, &params(0, 0, 1));
        assert_eq!(t.seconds, 0.0);
    }

    #[test]
    fn issue_ticks_match_the_sustained_rate() {
        // A100: 32 lanes × 108 SMs / (358 G × 0.16) ≈ 60.3 ns per warp
        // instruction per SM — ticks are picoseconds.
        let t = issue_ticks(&A100);
        assert_eq!(t, 60_335);
        // The round trip must reproduce the analytic compute term: N warp
        // instructions spread evenly over the SMs take N×issue/CUs seconds.
        let n = 1_000_000u64;
        let p = params(n, 0, 1000);
        let analytic = TimeEstimate::estimate(&A100, &p).compute_seconds;
        let replayed = ticks_to_seconds(n * t) / A100.compute_units as f64;
        assert!((replayed - analytic).abs() / analytic < 1e-4, "{replayed} vs {analytic}");
    }

    #[test]
    fn sched_config_orders_latencies_shallow_to_deep() {
        for spec in [&A100, &MI250X, &MAX1550] {
            let c = sched_config(spec, spec.resident_warps_per_cu);
            assert_eq!(c.sms, spec.compute_units);
            assert!(c.issue_ticks > 0);
            assert!(0 < c.l1_ticks && c.l1_ticks < c.l2_ticks && c.l2_ticks < c.hbm_ticks);
            assert_eq!(c.hbm_ticks, (spec.hbm_latency_sec * 1e12).round() as u64);
            assert!(!c.record_tracks);
        }
        assert_eq!(sched_config(&A100, 0).residency, 1, "residency floors at 1");
    }

    #[test]
    fn latency_override_replaces_only_the_latency_term() {
        let t = TimeEstimate::estimate(&A100, &params(1_000, 1_000_000_000, 4));
        assert_eq!(t.bound, Bound::Latency);
        let o = t.with_latency_override(0.0);
        assert_eq!(o.compute_seconds, t.compute_seconds);
        assert_eq!(o.bandwidth_seconds, t.bandwidth_seconds);
        assert_eq!(o.latency_seconds, 0.0);
        assert_eq!(o.seconds, t.compute_seconds + t.bandwidth_seconds);
        assert_ne!(o.bound, Bound::Latency, "bound recomputed after override");
        let worse = t.with_latency_override(t.seconds * 10.0);
        assert_eq!(worse.bound, Bound::Latency);
        assert!(worse.seconds > t.seconds);
    }
}
