//! Kernel profiles — the quantities the paper extracts with `ncu`,
//! `rocprof` and Intel Advisor (Appendix B).

use gpu_specs::{Bound, DeviceId, ModelParams, TimeEstimate};
use crate::kernel::Dialect;
use simt::{AggCounters, PhaseSched, SchedResult, WarpTrace};

/// Counters split at the construct/walk phase boundary.
///
/// `construct` merges each warp's counter snapshot taken when its last
/// hash-table build finished; `walk` is the launch total minus that
/// snapshot. Most fields of the difference are additive, but
/// `max_warp_instructions` is not: the critical path of the walk phase is
/// `max over warps of (total_i − construct_i)`, computed from the per-warp
/// instruction counts, **not** the difference of the two aggregates' maxima
/// (warp A can dominate construction while warp B dominates the walk).
/// `walk.max_warp_instructions` therefore holds the longest single-warp
/// walk segment, and may legitimately exceed
/// `total.max_warp_instructions − construct.max_warp_instructions`.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseCounters {
    /// Algorithm 1: hash-table construction.
    pub construct: AggCounters,
    /// Algorithm 2: mer-walks (including the state broadcast).
    pub walk: AggCounters,
    /// Largest per-warp walk instruction budget among successful jobs —
    /// the watchdog ceiling derived from the staged layout (see
    /// [`crate::layout::walk_budget`]). 0 when no job staged anything.
    pub walk_budget: u64,
    /// Walk watchdog trips observed across the run, escalation retries
    /// included (each one is a `WalkBudgetExceeded` fault).
    pub watchdog_trips: u64,
    /// Scheduled-replay summary, merged across every launch of the run
    /// (chunks, sides, batches and escalation retries). `None` unless the
    /// run executed under [`simt::ExecMode::Scheduled`].
    pub sched: Option<SchedProfile>,
}

/// `Copy` summary of the scheduled replay (`simt::sched`) for one run,
/// with the per-phase tick breakdown resolved to the kernel's three fixed
/// pipeline phases. Launches merge back-to-back: makespans add, tick sums
/// add, `sms_used`/`residency` take the maximum seen.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedProfile {
    /// SMs that received warps in the largest launch.
    pub sms_used: u32,
    /// Residency limit (warps per SM) of the deepest launch.
    pub residency: u32,
    /// Summed makespan of the replays, in ticks (launches run
    /// back-to-back on one device).
    pub makespan_ticks: u64,
    /// Issue-port busy ticks, summed over used SMs and launches.
    pub busy_ticks: u64,
    /// Warp-residency slot occupancy in ticks (admission → retirement,
    /// summed over warps).
    pub resident_ticks: u64,
    /// Staging phase (reads → fingerprints) tick breakdown.
    pub stage: PhaseSched,
    /// Hash-table construction tick breakdown.
    pub construct: PhaseSched,
    /// Mer-walk tick breakdown — `walk.exposed_ticks` is the simulated
    /// latency term that replaces the analytic `t_latency`.
    pub walk: PhaseSched,
    /// Instructions outside the three pipeline phases (kernel prologue/
    /// epilogue) plus any phase name the kernel does not use.
    pub other: PhaseSched,
}

impl SchedProfile {
    /// Collapse one launch's replay into the fixed-phase summary.
    pub fn from_result(r: &SchedResult) -> Self {
        let mut p = SchedProfile {
            sms_used: r.sms_used,
            residency: r.residency,
            makespan_ticks: r.makespan_ticks,
            busy_ticks: r.busy_ticks,
            resident_ticks: r.resident_ticks,
            ..SchedProfile::default()
        };
        for (name, ph) in &r.phases {
            match *name {
                "stage" => p.stage.merge(ph),
                "construct" => p.construct.merge(ph),
                "walk" => p.walk.merge(ph),
                _ => p.other.merge(ph),
            }
        }
        p
    }

    /// Merge another launch's summary into this one (back-to-back
    /// launches: makespans and tick sums add, limits take the max).
    pub fn merge(&mut self, o: &SchedProfile) {
        self.sms_used = self.sms_used.max(o.sms_used);
        self.residency = self.residency.max(o.residency);
        self.makespan_ticks += o.makespan_ticks;
        self.busy_ticks += o.busy_ticks;
        self.resident_ticks += o.resident_ticks;
        self.stage.merge(&o.stage);
        self.construct.merge(&o.construct);
        self.walk.merge(&o.walk);
        self.other.merge(&o.other);
    }

    fn phase_sum(&self, f: impl Fn(&PhaseSched) -> u64) -> u64 {
        [&self.stage, &self.construct, &self.walk, &self.other].iter().map(|p| f(p)).sum()
    }

    /// Total issue-port ticks across phases.
    pub fn issue_ticks(&self) -> u64 {
        self.phase_sum(|p| p.issue_ticks)
    }

    /// Total memory-stall (hideable) ticks across phases.
    pub fn stall_ticks(&self) -> u64 {
        self.phase_sum(|p| p.stall_ticks)
    }

    /// Total exposed (un-hidden) stall ticks across phases.
    pub fn exposed_ticks(&self) -> u64 {
        self.phase_sum(|p| p.exposed_ticks)
    }

    /// Achieved occupancy: mean fraction of residency slots holding a
    /// live warp over the summed makespan (0 when nothing ran).
    pub fn occupancy(&self) -> f64 {
        let slots = self.residency as u64 * self.sms_used as u64;
        if slots == 0 || self.makespan_ticks == 0 {
            return 0.0;
        }
        self.resident_ticks as f64 / (slots * self.makespan_ticks) as f64
    }

    /// Fraction of memory-stall ticks hidden by warp interleaving
    /// (1.0 with no stalls at all).
    pub fn latency_hidden_fraction(&self) -> f64 {
        let stall = self.stall_ticks();
        if stall == 0 {
            return 1.0;
        }
        1.0 - (self.exposed_ticks().min(stall) as f64 / stall as f64)
    }
}

/// Profile of one kernel launch: a batch (chunk) launch of the Fig. 3
/// pipeline, or an escalation retry, which carries its batch's band.
#[derive(Debug, Clone, Copy)]
pub struct BatchProfile {
    /// Binning band (lower read-count bound) this launch came from.
    pub band: usize,
    pub warps: u64,
    pub time: TimeEstimate,
}

/// Full profile of a local-assembly run on one device.
#[derive(Debug, Clone)]
pub struct KernelProfile {
    pub device: DeviceId,
    pub dialect: Dialect,
    pub k: usize,
    /// Aggregate over all kernel calls (right + left, all batches).
    pub total: AggCounters,
    pub phases: PhaseCounters,
    pub batches: Vec<BatchProfile>,
}

impl KernelProfile {
    /// Total kernel time: the sum over kernel launches, escalation
    /// retries included (they are issued back-to-back on one device, as in
    /// the paper's measurements).
    pub fn seconds(&self) -> f64 {
        self.batches.iter().map(|b| b.time.seconds).sum()
    }

    /// Total warp-level integer operations.
    pub fn intops(&self) -> u64 {
        self.total.intops()
    }

    /// Total HBM bytes moved.
    pub fn hbm_bytes(&self) -> u64 {
        self.total.mem.hbm_bytes()
    }

    /// Achieved GINTOPs per second.
    pub fn gintops_per_sec(&self) -> f64 {
        self.intops() as f64 / self.seconds() / 1e9
    }

    /// INTOP intensity (integer ops per HBM byte) — the roofline x-axis.
    pub fn intop_intensity(&self) -> f64 {
        self.total.intop_intensity()
    }

    /// The dominant bound across batches, weighted by time.
    pub fn bound(&self) -> Bound {
        let mut compute = 0.0;
        let mut bw = 0.0;
        let mut lat = 0.0;
        for b in &self.batches {
            compute += b.time.compute_seconds;
            bw += b.time.bandwidth_seconds;
            lat += b.time.latency_seconds;
        }
        if compute >= bw && compute >= lat {
            Bound::Compute
        } else if bw >= lat {
            Bound::Bandwidth
        } else {
            Bound::Latency
        }
    }

    /// The `ModelParams` equivalent of the whole run (for re-estimation,
    /// e.g. in what-if analyses).
    pub fn model_params(&self) -> ModelParams {
        ModelParams::from_counters(&self.total)
    }
}

/// Aggregated statistics for one named phase, derived from warp traces.
///
/// Span deltas are *inclusive* of nested phases, so a parent phase counts
/// its children's work too; the kernel's top-level phases (`stage`,
/// `construct`, `walk`) do not nest each other and therefore partition the
/// traced work.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseStats {
    /// Phase (span) name.
    pub name: String,
    /// Number of spans with this name across all traced warps.
    pub spans: u64,
    /// Warp instructions attributed to the phase.
    pub warp_instructions: u64,
    /// Warp-level integer instructions attributed to the phase.
    pub int_instructions: u64,
    /// Warp-level INTOPs (integer instructions × warp width) — the
    /// paper's `smsp__inst_executed`-derived metric.
    pub intops: u64,
    /// Lane-level integer operations actually performed (active lanes).
    pub lane_int_ops: u64,
    /// HBM bytes moved during the phase.
    pub hbm_bytes: u64,
    /// Integer instructions per active-lane occupancy quartile
    /// (0–25 %, 25–50 %, 50–75 %, 75–100 %].
    pub occupancy_quartiles: [u64; 4],
}

impl PhaseStats {
    fn zero(name: &str) -> Self {
        PhaseStats {
            name: name.to_string(),
            spans: 0,
            warp_instructions: 0,
            int_instructions: 0,
            intops: 0,
            lane_int_ops: 0,
            hbm_bytes: 0,
            occupancy_quartiles: [0; 4],
        }
    }

    /// INTOP intensity (integer ops per HBM byte) of this phase — the
    /// roofline x-axis, resolved per pipeline stage.
    pub fn intop_intensity(&self) -> f64 {
        if self.hbm_bytes == 0 {
            return f64::INFINITY;
        }
        self.intops as f64 / self.hbm_bytes as f64
    }

    /// Mean active-lane fraction over the phase's integer instructions
    /// (1.0 = no divergence; the serial mer-walk sits near 1/width).
    pub fn lane_utilization(&self) -> f64 {
        if self.intops == 0 {
            return 1.0;
        }
        self.lane_int_ops as f64 / self.intops as f64
    }

    /// Fraction of integer instructions per occupancy quartile — the
    /// phase-resolved divergence profile.
    pub fn divergence_profile(&self) -> [f64; 4] {
        let total: u64 = self.occupancy_quartiles.iter().sum();
        if total == 0 {
            return [0.0; 4];
        }
        self.occupancy_quartiles.map(|q| q as f64 / total as f64)
    }
}

/// Per-phase profile derived from the warp traces of a run — what the
/// vendor profilers' range-replay / kernel-phase views report, rebuilt
/// from the simulator's own spans.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceProfile {
    /// Per-phase aggregates, sorted by phase name.
    pub phases: Vec<PhaseStats>,
    /// Number of traced warps that contributed.
    pub warps: u64,
}

impl TraceProfile {
    /// Aggregate span deltas by phase name over all traces.
    pub fn from_traces(traces: &[WarpTrace]) -> Self {
        let mut phases: Vec<PhaseStats> = Vec::new();
        for t in traces {
            for s in &t.spans {
                let idx = match phases.iter().position(|p| p.name == s.name) {
                    Some(i) => i,
                    None => {
                        phases.push(PhaseStats::zero(s.name));
                        phases.len() - 1
                    }
                };
                let p = &mut phases[idx];
                p.spans += 1;
                p.warp_instructions += s.delta.warp_instructions;
                p.int_instructions += s.delta.int_instructions;
                p.intops += s.delta.intops();
                p.lane_int_ops += s.delta.lane_int_ops;
                p.hbm_bytes += s.delta.mem.hbm_bytes();
                for q in 0..4 {
                    p.occupancy_quartiles[q] += s.delta.occupancy_quartiles[q];
                }
            }
        }
        phases.sort_by(|a, b| a.name.cmp(&b.name));
        TraceProfile { phases, warps: traces.len() as u64 }
    }

    /// Look up a phase by name.
    pub fn phase(&self, name: &str) -> Option<&PhaseStats> {
        self.phases.iter().find(|p| p.name == name)
    }
}

#[cfg(test)]
mod trace_profile_tests {
    use super::*;
    use crate::kernel::{extension_kernel, Dialect, KernelJob};
    use locassm_core::walk::WalkConfig;
    use locassm_core::{Read, RetryPolicy};
    use memhier::HierarchyConfig;
    use simt::Warp;

    fn traced_kernel_run() -> Vec<WarpTrace> {
        let mut warp = Warp::new(32, HierarchyConfig::tiny());
        warp.enable_trace(0);
        let job = KernelJob::owned(
            b"GGGGACGTACG".to_vec(),
            vec![Read::with_uniform_qual(b"ACGTACGGTTACCA", b'I')],
            4,
            WalkConfig { min_votes: 1, ..WalkConfig::default() },
            RetryPolicy::none(),
            Dialect::Cuda,
        );
        extension_kernel(&mut warp, &job).unwrap();
        vec![warp.take_trace().unwrap()]
    }

    #[test]
    fn kernel_phases_show_up_with_distinct_cost_structure() {
        let traces = traced_kernel_run();
        assert_eq!(traces[0].phase_names(), vec!["construct", "stage", "walk"]);
        let p = TraceProfile::from_traces(&traces);
        assert_eq!(p.warps, 1);
        let construct = p.phase("construct").unwrap();
        let walk = p.phase("walk").unwrap();
        assert!(construct.intops > 0);
        assert!(walk.intops > 0);
        // The mer-walk is single-lane; construction is warp-parallel.
        assert!(walk.lane_utilization() < 0.1);
        assert!(construct.lane_utilization() > walk.lane_utilization());
        // Walk divergence lives in the bottom occupancy quartile.
        assert!(walk.divergence_profile()[0] > 0.9);
    }

    #[test]
    fn phase_totals_cover_the_whole_kernel() {
        let traces = traced_kernel_run();
        let p = TraceProfile::from_traces(&traces);
        let sum: u64 = p.phases.iter().map(|ph| ph.warp_instructions).sum();
        assert!(sum > 0);
        // Top-level phases partition the kernel body (no nesting).
        assert!(sum <= traces[0].end_clock());
    }

    #[test]
    fn empty_traces_yield_empty_profile() {
        let p = TraceProfile::from_traces(&[]);
        assert!(p.phases.is_empty());
        assert_eq!(p.warps, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn agg(instr: u64, width: u32) -> AggCounters {
        AggCounters {
            width,
            warps: 1,
            warp_instructions: instr,
            int_instructions: instr,
            ..Default::default()
        }
    }

    fn batch(seconds: f64) -> BatchProfile {
        BatchProfile {
            band: 1,
            warps: 1,
            time: TimeEstimate {
                seconds,
                compute_seconds: seconds,
                bandwidth_seconds: 0.0,
                latency_seconds: 0.0,
                bound: Bound::Compute,
            },
        }
    }

    #[test]
    fn totals_and_rates() {
        let p = KernelProfile {
            device: DeviceId::A100,
            dialect: Dialect::Cuda,
            k: 21,
            total: agg(1_000_000, 32),
            phases: PhaseCounters::default(),
            batches: vec![batch(0.001), batch(0.003)],
        };
        assert!((p.seconds() - 0.004).abs() < 1e-12);
        assert_eq!(p.intops(), 32_000_000);
        assert!((p.gintops_per_sec() - 8.0).abs() < 1e-9);
        assert_eq!(p.bound(), Bound::Compute);
    }
}
