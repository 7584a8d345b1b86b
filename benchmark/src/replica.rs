//! A traced replica of `run_local_assembly`'s fault-free, unchunked path,
//! built from the library's public calls so that spans and counters can
//! be placed at every layer boundary without changing the program:
//!
//! `bin_contigs` → `KernelJob::{borrowed, transformed}` + `arena_footprint`
//! → `simt::launch_warps(.., extension_kernel)` → `simt::schedule` →
//! `TimeEstimate`.
//!
//! The replica must reproduce the real run bit for bit (extensions,
//! `AggCounters`, phase split, scheduled replay and modeled seconds);
//! [`compare`] checks that. memhier's host time cannot be split from the
//! interpreter this way: it runs inside `launch_warps`.

use crate::spans::Tracer;
use gpu_specs::{
    effective_hierarchy, sched_config, scheduled_residency, ticks_to_seconds, ModelParams,
    TimeEstimate,
};
use locassm_bench::alloc_count;
use locassm_core::io::Dataset;
use locassm_core::{bin_contigs, revcomp, ExtensionResult, WalkState};
use locassm_kernels::kernel::{extension_kernel, KernelJob, KernelOut};
use locassm_kernels::layout::{arena_footprint, stage_footprint};
use locassm_kernels::profile::BatchProfile;
use locassm_kernels::{
    dialect_sanitizer, GpuRunResult, KernelFault, KernelProfile, PhaseCounters, SchedProfile,
};
use simt::{launch_warps, AggCounters, LaunchConfig, WarpCounters};

/// Host time and work counted at the replica's layer boundaries, summed
/// over every replayed run (one paper pass, or every batch of a service
/// run).
#[derive(Debug, Clone, Default)]
pub struct LayerAcc {
    /// `bin_contigs`.
    pub bin_s: f64,
    /// Job assembly plus `arena_footprint` / `stage_footprint`.
    pub plan_s: f64,
    /// `launch_warps`: the interpreter, collectives and memhier.
    pub launch_s: f64,
    /// `simt::schedule` (zero outside `Scheduled` mode).
    pub sched_s: f64,
    pub launches: u64,
    pub allocs: u64,
    pub alloc_bytes: u64,
    pub pool_created: u64,
    pub pool_reused: u64,
    pub timeline_events: u64,
    /// Modeled seconds of the construct and walk phases.
    pub construct_s: f64,
    pub walk_s: f64,
    /// Merged profile of every replayed run.
    pub total: AggCounters,
    pub phases: PhaseCounters,
    pub compute_s: f64,
    pub bandwidth_s: f64,
    pub latency_s: f64,
    pub seconds: f64,
}

impl LayerAcc {
    fn absorb_profile(&mut self, p: &KernelProfile) {
        self.total.merge(&p.total);
        self.phases.construct.merge(&p.phases.construct);
        self.phases.walk.merge(&p.phases.walk);
        if let Some(s) = &p.phases.sched {
            match self.phases.sched.as_mut() {
                Some(acc) => acc.merge(s),
                None => self.phases.sched = Some(*s),
            }
        }
        for b in &p.batches {
            self.compute_s += b.time.compute_seconds;
            self.bandwidth_s += b.time.bandwidth_seconds;
            self.latency_s += b.time.latency_seconds;
        }
        self.seconds += p.seconds();
    }
}

/// The replica's output, shaped like the real run's.
pub struct Replayed {
    pub extensions: Vec<ExtensionResult>,
    pub profile: KernelProfile,
}

/// Replay `run_local_assembly(ds, cfg)` with spans around every layer
/// call. Fails on any kernel fault: the replica covers only the
/// fault-free path (escalation retries are not replayed).
pub fn replay(
    ds: &Dataset,
    cfg: &locassm_kernels::GpuConfig,
    tr: &mut Tracer,
    acc: &mut LayerAcc,
) -> Result<Replayed, String> {
    if cfg.max_batch.is_some() || cfg.fault.is_some() {
        return Err("the replica covers only unchunked, fault-free runs".into());
    }
    let spec = cfg.spec();
    let k = ds.k;

    let span = tr.open("core.bin");
    let batches = bin_contigs(&ds.jobs, cfg.binning);
    acc.bin_s += tr.close(span);

    let mut total = AggCounters::default();
    let mut phases = PhaseCounters::default();
    let mut batch_profiles = Vec::new();
    let mut right: Vec<(Vec<u8>, WalkState)> = vec![(Vec::new(), WalkState::End); ds.jobs.len()];
    let mut left = right.clone();
    let schedule = cfg.retry.schedule(k);
    let min_k = schedule.iter().copied().min().unwrap_or(k);
    let sanitize = dialect_sanitizer(cfg.sanitize, cfg.dialect);

    for batch in &batches {
        for is_right in [true, false] {
            let span = tr.open("kernels.plan");
            let mut indices = Vec::with_capacity(batch.jobs.len());
            let mut kernel_jobs: Vec<KernelJob<'_>> = Vec::with_capacity(batch.jobs.len());
            for &idx in &batch.jobs {
                let j = &ds.jobs[idx];
                let reads = if is_right { &j.right_reads } else { &j.left_reads };
                if j.contig.len() < min_k || reads.is_empty() {
                    continue;
                }
                let mut job = if is_right {
                    KernelJob::borrowed(
                        &j.contig,
                        &j.right_reads,
                        k,
                        cfg.walk,
                        &cfg.retry,
                        cfg.dialect,
                    )
                } else {
                    let t = j.left_as_right();
                    KernelJob::transformed(
                        t.contig,
                        t.right_reads,
                        k,
                        cfg.walk,
                        &cfg.retry,
                        cfg.dialect,
                    )
                };
                job.slot_reserve = cfg.slot_reserve.max(1);
                job.probe = cfg.probe;
                job.layout = cfg.layout;
                job.resize = cfg.resize;
                indices.push(idx);
                kernel_jobs.push(job);
            }
            if kernel_jobs.is_empty() {
                tr.close(span);
                continue;
            }
            let arena_hint = kernel_jobs
                .iter()
                .map(|j| {
                    arena_footprint(
                        j.contig.len(),
                        &j.reads,
                        &schedule,
                        j.walk,
                        j.slot_reserve,
                        j.layout,
                        j.resize,
                    )
                })
                .max()
                .unwrap_or(0);
            let footprint = kernel_jobs
                .iter()
                .map(|j| {
                    stage_footprint(
                        j.contig.len(),
                        &j.reads,
                        j.k,
                        j.walk,
                        j.slot_reserve,
                        j.layout,
                        j.resize,
                    )
                })
                .max()
                .unwrap_or(0);
            acc.plan_s += tr.close(span);

            let launch_cfg = LaunchConfig {
                width: cfg.width,
                hierarchy: effective_hierarchy(spec, kernel_jobs.len() as u64),
                parallel: cfg.parallel,
                trace: false,
                pool: cfg.pool,
                arena_hint,
                fault: None,
                fault_base: 0,
                sanitize,
                exec: cfg.exec,
            };
            let allocs_before = alloc_count::snapshot();
            let pool_before = simt::pool_stats();
            let span = tr.open("simt.launch");
            let out = launch_warps(launch_cfg, &kernel_jobs, extension_kernel);
            acc.launch_s += tr.close(span);
            tr.set_args(
                span,
                format!(
                    "\"warps\": {}, \"warp_instructions\": {}",
                    out.counters.warps, out.counters.warp_instructions
                ),
            );
            let allocs = alloc_count::snapshot().since(&allocs_before);
            let pool_after = simt::pool_stats();
            acc.allocs += allocs.allocs;
            acc.alloc_bytes += allocs.bytes;
            acc.pool_created += pool_after.created - pool_before.created;
            acc.pool_reused += pool_after.reused - pool_before.reused;
            acc.launches += 1;

            let span = tr.open("kernels.settle");
            let (construct, walk_agg) = fold_phases(
                &mut phases,
                cfg.width,
                &out.results,
                &out.warp_instruction_counts,
                &out.counters,
            )?;
            tr.close(span);

            let mut walk_latency = None;
            if !out.timelines.is_empty() {
                acc.timeline_events +=
                    out.timelines.iter().map(|t| t.events.len() as u64).sum::<u64>();
                let span = tr.open("simt.sched");
                let r = simt::schedule(
                    &out.timelines,
                    &sched_config(spec, scheduled_residency(spec, footprint)),
                );
                acc.sched_s += tr.close(span);
                let p = SchedProfile::from_result(&r);
                match phases.sched.as_mut() {
                    Some(s) => s.merge(&p),
                    None => phases.sched = Some(p),
                }
                let exposed = r.phase("walk").map_or(0, |p| p.exposed_ticks);
                walk_latency = Some(ticks_to_seconds(exposed) / r.sms_used.max(1) as f64);
            }

            let span = tr.open("gpu-specs.estimate");
            let t_construct = TimeEstimate::estimate(spec, &ModelParams::from_counters(&construct));
            let mut t_walk =
                TimeEstimate::estimate_with_mlp(spec, &ModelParams::from_counters(&walk_agg), 1.0);
            if let Some(l) = walk_latency {
                t_walk = t_walk.with_latency_override(l);
            }
            acc.construct_s += t_construct.seconds;
            acc.walk_s += t_walk.seconds;
            let time = TimeEstimate {
                seconds: t_construct.seconds + t_walk.seconds,
                compute_seconds: t_construct.compute_seconds + t_walk.compute_seconds,
                bandwidth_seconds: t_construct.bandwidth_seconds + t_walk.bandwidth_seconds,
                latency_seconds: t_construct.latency_seconds + t_walk.latency_seconds,
                bound: if t_construct.seconds >= t_walk.seconds {
                    t_construct.bound
                } else {
                    t_walk.bound
                },
            };
            batch_profiles.push(BatchProfile { band: batch.band, warps: out.counters.warps, time });
            total.merge(&out.counters);
            tr.close(span);

            for (&idx, r) in indices.iter().zip(out.results) {
                let o = r.map_err(|f| format!("replica: contig {idx} faulted: {f:?}"))?;
                if is_right {
                    right[idx] = (o.extension, o.state);
                } else {
                    left[idx] = (revcomp(&o.extension), o.state);
                }
            }
        }
    }

    let extensions = ds
        .jobs
        .iter()
        .zip(right.into_iter().zip(left))
        .map(|(j, (r, l))| ExtensionResult {
            id: j.id,
            right: r.0,
            left: l.0,
            right_state: r.1,
            left_state: l.1,
        })
        .collect();
    let profile = KernelProfile {
        device: cfg.device,
        dialect: cfg.dialect,
        k,
        total,
        phases,
        batches: batch_profiles,
    };
    acc.absorb_profile(&profile);
    Ok(Replayed { extensions, profile })
}

/// `run_local_assembly`'s phase split for one launch: construct snapshots
/// summed, walk = launch total − construct, with the walk critical path
/// taken per warp.
fn fold_phases(
    phases: &mut PhaseCounters,
    width: u32,
    results: &[Result<KernelOut, KernelFault>],
    instr: &[u64],
    launch_total: &AggCounters,
) -> Result<(AggCounters, AggCounters), String> {
    let mut construct = AggCounters::default();
    let mut max_walk = 0u64;
    for (r, &total_instr) in results.iter().zip(instr) {
        let o = r.as_ref().map_err(|f| format!("replica: kernel fault {f:?}"))?;
        phases.walk_budget = phases.walk_budget.max(o.walk_budget);
        let snap: WarpCounters = o.construct;
        debug_assert_eq!(snap.width, width);
        construct.absorb(&snap);
        max_walk = max_walk.max(total_instr.saturating_sub(snap.warp_instructions));
    }
    phases.construct.merge(&construct);
    let t = launch_total;
    let c = &construct;
    let walk = AggCounters {
        width: t.width,
        warps: t.warps,
        warp_instructions: t.warp_instructions.saturating_sub(c.warp_instructions),
        int_instructions: t.int_instructions.saturating_sub(c.int_instructions),
        collective_instructions: t
            .collective_instructions
            .saturating_sub(c.collective_instructions),
        sync_instructions: t.sync_instructions.saturating_sub(c.sync_instructions),
        atomic_instructions: t.atomic_instructions.saturating_sub(c.atomic_instructions),
        atomic_replays: t.atomic_replays.saturating_sub(c.atomic_replays),
        lane_int_ops: t.lane_int_ops.saturating_sub(c.lane_int_ops),
        occupancy_quartiles: std::array::from_fn(|q| {
            t.occupancy_quartiles[q].saturating_sub(c.occupancy_quartiles[q])
        }),
        max_warp_instructions: max_walk,
        mem: t.mem.since(&c.mem),
    };
    phases.walk.merge(&walk);
    Ok((construct, walk))
}

/// Check that the replica reproduced the real run bit for bit; returns
/// one message per difference.
pub fn compare(real: &GpuRunResult, rep: &Replayed) -> Vec<String> {
    let mut diffs = Vec::new();
    let (a, b) = (&real.profile, &rep.profile);
    if real.extensions != rep.extensions {
        let n = real.extensions.iter().zip(&rep.extensions).filter(|(x, y)| x != y).count();
        diffs.push(format!("replica: {n} extensions differ from the real run"));
    }
    let checks = [
        ("AggCounters total", a.total == b.total),
        ("construct phase", a.phases.construct == b.phases.construct),
        ("walk phase", a.phases.walk == b.phases.walk),
        ("walk budget", a.phases.walk_budget == b.phases.walk_budget),
        ("watchdog trips", a.phases.watchdog_trips == b.phases.watchdog_trips),
        ("scheduled replay", a.phases.sched == b.phases.sched),
        ("launch count", a.batches.len() == b.batches.len()),
        (
            "per-launch time estimates",
            a.batches
                .iter()
                .zip(&b.batches)
                .all(|(x, y)| x.band == y.band && x.warps == y.warps && x.time == y.time),
        ),
        ("modeled seconds", a.seconds().to_bits() == b.seconds().to_bits()),
    ];
    for (what, same) in checks {
        if !same {
            diffs.push(format!("replica: {what} differs from the real run"));
        }
    }
    diffs
}
