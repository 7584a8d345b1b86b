//! The host-side pipeline (Fig. 3): contig binning → hash-table size
//! estimation → batch creation → GPU initialize → right extension kernel →
//! left extension kernel → append extensions.
//!
//! A run is three stages. [`plan_launches`] fixes every launch up front:
//! its contigs, side, band, arena hint, L2 share and scheduled residency.
//! [`run_local_assembly`] then launches the plan in order and settles each
//! launch's results into per-contig extensions and outcomes.
//!
//! The batch assembly is zero-copy: right-extension [`KernelJob`]s borrow
//! contig and read slices straight out of the `Dataset`, left-extension
//! jobs own only the reverse-complement transform, and every launch goes
//! through the pooled warp engine in `simt::grid` with an arena pre-size
//! hint derived from the host-side footprint estimate
//! ([`crate::layout::arena_footprint`]) — so the steady-state hot path
//! performs no sequence copies and no per-warp arena growth.

use crate::fault::{JobOutcome, KernelFault};
use crate::kernel::{extension_kernel, Dialect, KernelJob, KernelOut};
use crate::layout::{arena_footprint, stage_footprint};
use crate::probe::ProbeStrategy;
use crate::profile::{BatchProfile, KernelProfile, PhaseCounters, SchedProfile};
use crate::table::TableLayoutKind;
use gpu_specs::{
    effective_hierarchy, sched_config, scheduled_residency, ticks_to_seconds, DeviceId,
    DeviceSpec, ModelParams, TimeEstimate,
};
use locassm_core::io::Dataset;
use locassm_core::walk::{WalkConfig, WalkState};
use locassm_core::{
    bin_contigs, revcomp, BinningPolicy, ContigJob, ExtensionResult, Read, RetryPolicy,
};
use memhier::HierarchyConfig;
use simt::{
    launch_warps, AggCounters, ExecMode, FaultPlan, LaunchConfig, LaunchOutput, SanReport,
    SanitizerConfig, WarpCounters,
};

/// Configuration of a simulated GPU run.
#[derive(Debug, Clone)]
pub struct GpuConfig {
    pub device: DeviceId,
    /// Kernel dialect; the paper pairs each device with its native model,
    /// but any combination is allowed (used by `repro ablation`).
    pub dialect: Dialect,
    /// Warp/sub-group width; defaults to the device's hardware width.
    pub width: u32,
    pub binning: BinningPolicy,
    pub walk: WalkConfig,
    /// Retry ladder for unaccepted walks (Fig. 4's outer loop).
    pub retry: RetryPolicy,
    /// Simulate warps in parallel (rayon).
    pub parallel: bool,
    /// Draw warps (arena + cache model) from the process-wide pool instead
    /// of constructing one per job. On by default; results are
    /// bit-identical either way — pooling only removes allocator traffic
    /// (see the pooled-vs-fresh equivalence tests).
    pub pool: bool,
    /// Override the device's architectural parameters (what-if hardware
    /// projections, e.g. "MI250X with a 40 MB L2"). `None` uses the
    /// published spec for `device`.
    pub custom_spec: Option<DeviceSpec>,
    /// Attach a trace sink to every warp and collect per-warp
    /// [`simt::WarpTrace`]s in [`GpuRunResult::traces`] (run-global warp
    /// ids, in [`plan_launches`] order). A `Scheduled`-mode run also
    /// records its SM slices in [`GpuRunResult::sched_tracks`].
    pub trace: bool,
    /// Deterministic fault-injection plan threaded to every launch
    /// (`None`, the default, injects nothing). Plan job ids use the
    /// run-global *job* numbering, a job's position in [`job_order`],
    /// which is stable whether or not earlier jobs faulted (escalation
    /// retries are not counted).
    pub fault: Option<FaultPlan>,
    /// Warp sanitizer configuration, threaded to every launch (all checks
    /// off by default). The execution-ordering mode is dialect-dependent —
    /// see [`dialect_sanitizer`] — so the `lockstep` flag set here is
    /// overridden per dialect at launch time. With every check off, runs
    /// are bit-identical to an unsanitized build.
    pub sanitize: SanitizerConfig,
    /// Interpreter execution mode for every warp (see [`ExecMode`]).
    /// `Vectorized` (the default) takes the batched hot path; `Scalar`
    /// keeps the reference per-lane interpreter that `exec_equivalence`
    /// compares against. All modeled state is bit-identical either way.
    pub exec: ExecMode,
    /// Base multiplier on the host-side hash-table slot estimate applied
    /// to every first-attempt job (escalation grows it further on
    /// `HashTableFull`). 1 is the paper's sizing; a larger reserve
    /// shortens probe chains at the cost of table bytes.
    pub slot_reserve: u32,
    /// Probe-cursor strategy for every job (insert and walk lookup share
    /// it). Extensions are invariant across strategies — only the probe
    /// order, and thus counters and modeled time, change.
    pub probe: ProbeStrategy,
    /// Table layout for every job's hash table (see [`crate::table`]):
    /// linear probing (the paper's), bucketed power-of-two-choices, or
    /// iceberg two-level. Extensions are invariant across layouts — only
    /// capacity, probe order, counters and modeled time change.
    pub layout: TableLayoutKind,
    /// Cap on jobs per launch: each batch side is split into chunks of at
    /// most this many warps, each chunk launched with its own L2 share
    /// (`effective_hierarchy`). `None` launches whole sides, the paper's
    /// batching. Run-global job/fault ids are unaffected by chunking.
    pub max_batch: Option<usize>,
    /// Arm in-kernel incremental resizing for every job (see
    /// [`crate::resize`]): tables grow past their high-water mark inside
    /// the insert dialects instead of faulting `HashTableFull` into the
    /// grown-reserve escalation ladder. The arena hint prices the resize
    /// headroom in, so successful jobs still never regrow their pooled
    /// arena. Off by default; extensions are invariant either way.
    pub resize: bool,
}

/// Adapt a sanitizer configuration to a kernel dialect's execution-
/// ordering model.
///
/// The race detector needs to know which cross-lane orderings the kernel
/// may legally rely on. CUDA (Volta+) has independent thread scheduling:
/// nothing orders lanes between collectives, so the sanitizer runs in its
/// strict mode (`lockstep = false`) and any cross-lane conflict not
/// separated by a collective or `__syncwarp` is a race. HIP wavefronts
/// and SYCL sub-groups execute in implicit lockstep — the ported listings
/// *depend* on it (§III-B: publish/compare ordered by the wavefront's
/// instruction-level lockstep rather than an explicit sync) — so for
/// those dialects only *intra-instruction* conflicts (two lanes touching
/// the same byte in one SIMT op) are flagged.
pub fn dialect_sanitizer(cfg: SanitizerConfig, dialect: Dialect) -> SanitizerConfig {
    SanitizerConfig { lockstep: !matches!(dialect, Dialect::Cuda), ..cfg }
}

impl GpuConfig {
    /// The paper's configuration for a device: native dialect, hardware
    /// width, power-of-two binning.
    pub fn for_device(device: DeviceId) -> Self {
        GpuConfig {
            device,
            dialect: Dialect::native_for(device),
            width: device.spec().warp_width,
            binning: BinningPolicy::PowerOfTwo,
            walk: WalkConfig::default(),
            retry: RetryPolicy::none(),
            parallel: true,
            pool: true,
            custom_spec: None,
            trace: false,
            fault: None,
            sanitize: SanitizerConfig::default(),
            exec: ExecMode::default(),
            slot_reserve: 1,
            probe: ProbeStrategy::default(),
            layout: TableLayoutKind::default(),
            max_batch: None,
            resize: false,
        }
    }

    /// The architectural parameters this run simulates.
    pub fn spec(&self) -> &DeviceSpec {
        self.custom_spec.as_ref().unwrap_or_else(|| self.device.spec())
    }

    /// A what-if variant of this configuration with a modified spec.
    pub fn with_spec(mut self, spec: DeviceSpec) -> Self {
        self.custom_spec = Some(spec);
        self
    }
}

/// Outcome of a simulated run.
#[derive(Debug, Clone)]
pub struct GpuRunResult {
    /// Per-contig extensions, in dataset order.
    pub extensions: Vec<ExtensionResult>,
    pub profile: KernelProfile,
    /// Per-warp traces (empty unless [`GpuConfig::trace`] was set).
    /// `warp_id` is re-numbered to be unique across the whole run.
    /// Escalation-retry traces are appended right after the batch that
    /// contained the faulting job.
    pub traces: Vec<simt::WarpTrace>,
    /// Per-contig fault outcome, in dataset order: the right- and
    /// left-extension runs' outcomes combined with
    /// [`JobOutcome::combine`]. All `Ok` on a fault-free run.
    pub outcomes: Vec<JobOutcome>,
    /// Sanitizer findings merged across every launch of the run (in
    /// [`plan_launches`] order, escalation retries appended in place).
    /// Empty — and free — unless [`GpuConfig::sanitize`] enables a check.
    pub san: SanReport,
    /// Scheduled-replay execution slices, on a run-global tick clock
    /// (each launch's slices are offset by the makespan accumulated
    /// before it), for the Chrome-trace SM lanes that load beside the
    /// warp lanes of [`Self::traces`] (see `perfmodel::export`). Empty
    /// unless [`GpuConfig::trace`] was set on a `Scheduled`-mode run.
    pub sched_tracks: Vec<simt::SmSlice>,
}

/// The per-warp kernel body every launch runs: the extension kernel plus
/// the staging invariant check — a *successful* job must never regrow its
/// pooled arena past the host-side footprint hint (faulted jobs abort
/// mid-staging, so the invariant only binds on `Ok`).
fn run_extension(
    warp: &mut simt::Warp,
    job: &KernelJob<'_>,
) -> Result<KernelOut, KernelFault> {
    let r = extension_kernel(warp, job);
    if r.is_ok() {
        debug_assert_eq!(
            warp.mem.regrowths(),
            0,
            "host size estimation must upper-bound in-kernel staging"
        );
    }
    r
}

/// The engine configuration of one launch: `cfg`'s width, parallelism,
/// tracing, pooling, fault plan, dialect sanitizer and exec mode, with the
/// launch's own hierarchy, arena hint and first run-global job id.
fn launch_config(
    cfg: &GpuConfig,
    hierarchy: HierarchyConfig,
    arena_hint: u64,
    fault_base: u64,
) -> LaunchConfig {
    LaunchConfig {
        width: cfg.width,
        hierarchy,
        parallel: cfg.parallel,
        trace: cfg.trace,
        pool: cfg.pool,
        arena_hint,
        fault: cfg.fault,
        fault_base,
        sanitize: dialect_sanitizer(cfg.sanitize, cfg.dialect),
        exec: cfg.exec,
    }
}

/// Escalation ladder for a faulted job: `(k, slot_reserve)` pairs to
/// retry serially, in order. `HashTableFull` doubles the slot reserve at
/// the same k, then falls down the retry-policy k-ladder with the grown
/// reserve (the paper's Fig. 4 recovery, made table-size aware); every
/// other retryable fault gets a single clean retry (a transient injected
/// fault clears on it); `MalformedJob` is not retryable at all.
fn escalation_ladder(
    schedule: &[usize],
    fault: KernelFault,
    base_reserve: u32,
) -> Vec<(usize, u32)> {
    match fault {
        KernelFault::HashTableFull { .. } => {
            let grown = base_reserve.saturating_mul(2).max(2);
            schedule.iter().map(|&k| (k, grown)).collect()
        }
        KernelFault::MalformedJob { .. } => Vec::new(),
        _ => match schedule.first() {
            Some(&k) => vec![(k, base_reserve)],
            None => Vec::new(),
        },
    }
}

/// Serially retry one faulted job down its escalation ladder.
///
/// Each attempt is a fresh single-warp launch (`parallel: false`) whose
/// arena hint is recomputed for the grown slot reserve; the injection
/// plan stays armed for attempt indices `0..plan.attempts()` (the batch run
/// was attempt 0), so a transient plan clears on the first retry while a
/// persistent one keeps faulting until the ladder is exhausted. Every
/// attempt is folded into the ledger like a batch launch, under the
/// faulted job's batch `band`.
fn escalate_job(
    cfg: &GpuConfig,
    spec: &DeviceSpec,
    job: &KernelJob<'_>,
    victim_id: u64,
    first_fault: KernelFault,
    band: usize,
    ledger: &mut Ledger,
) -> (JobOutcome, Option<KernelOut>) {
    let mut fault = first_fault;
    let mut grown = matches!(fault, KernelFault::HashTableFull { .. });
    let schedule = cfg.retry.schedule(job.k);
    let mut ladder = escalation_ladder(&schedule, fault, job.slot_reserve);
    let mut next = 0usize;
    let mut attempts = 0u32;
    while next < ladder.len() {
        let (k, reserve) = ladder[next];
        next += 1;
        attempts += 1;
        let mut retry = job.clone();
        retry.k = k;
        retry.slot_reserve = reserve;
        let arena_hint = arena_footprint(
            retry.contig.len(),
            &retry.reads,
            &cfg.retry.schedule(k),
            retry.walk,
            reserve,
            retry.layout,
            retry.resize,
        );
        let mut launch_cfg =
            launch_config(cfg, effective_hierarchy(spec, 1), arena_hint, victim_id);
        launch_cfg.parallel = false;
        launch_cfg.fault = cfg.fault.filter(|p| attempts < p.attempts());
        let out = launch_warps(launch_cfg, std::slice::from_ref(&retry), run_extension);
        // A single resident warp hides nothing: the retry replays at
        // residency 1.
        let results = ledger.fold(spec, cfg, out, 1, band);
        match results.into_iter().next() {
            // A single-job launch always yields one result; an empty
            // result set would mean the engine dropped the job, which
            // escalation treats as exhausted rather than panicking.
            None => break,
            Some(Ok(o)) => return (JobOutcome::Recovered { attempts }, Some(o)),
            Some(Err(f)) => {
                fault = f;
                if !fault.retryable() {
                    break;
                }
                if matches!(fault, KernelFault::HashTableFull { .. }) && !grown {
                    // A clean retry re-faulted as a genuine overflow:
                    // restart escalation on the grow branch.
                    grown = true;
                    ladder = escalation_ladder(&schedule, fault, job.slot_reserve);
                    next = 0;
                }
            }
        }
    }
    (JobOutcome::Failed { fault, attempts }, None)
}

/// Everything a run accumulates across its launches. Batch launches and
/// escalation retries alike go through [`Ledger::fold`], so counters,
/// phase split, traces, sanitizer findings, scheduled replays and modeled
/// seconds all cover the same set of launches.
#[derive(Default)]
struct Ledger {
    total: AggCounters,
    phases: PhaseCounters,
    batches: Vec<BatchProfile>,
    traces: Vec<simt::WarpTrace>,
    san: SanReport,
    sched_tracks: Vec<simt::SmSlice>,
}

impl Ledger {
    /// Fold one launch into the run: renumber its traces onto run-global
    /// warp ids, merge its sanitizer reports and counters, replay its
    /// timelines at `residency`, split its phases, price it and push its
    /// [`BatchProfile`] under `band`. Returns the launch's per-job results.
    fn fold(
        &mut self,
        spec: &DeviceSpec,
        cfg: &GpuConfig,
        out: LaunchOutput<Result<KernelOut, KernelFault>>,
        residency: u32,
        band: usize,
    ) -> Vec<Result<KernelOut, KernelFault>> {
        for mut t in out.traces {
            t.warp_id = self.traces.len() as u64;
            self.traces.push(t);
        }
        for r in out.san {
            self.san.merge(r);
        }

        // Phase split: construct snapshots summed; walk = total − construct.
        // The walk phase's critical path (max_warp_instructions) is
        // attributed per warp: each warp's walk segment is its total
        // instruction stream minus its construct-boundary snapshot.
        let (construct, walk_agg) = fold_phases(
            &mut self.phases,
            cfg.width,
            &out.results,
            &out.warp_instruction_counts,
            &out.counters,
        );

        // Scheduled replay: interleave the recorded warp timelines through
        // per-SM issue ports. Non-Scheduled runs record no timelines and
        // skip this entirely.
        let sched = schedule_launch(
            spec,
            &out.timelines,
            residency,
            cfg.trace,
            &mut self.phases,
            &mut self.sched_tracks,
        );

        // Per-phase timing: construction overlaps memory at the device's
        // MLP; the mer-walk is a single-lane dependence chain (MLP ≈ 1).
        let t_construct = TimeEstimate::estimate(spec, &ModelParams::from_counters(&construct));
        let mut t_walk =
            TimeEstimate::estimate_with_mlp(spec, &ModelParams::from_counters(&walk_agg), 1.0);
        if let Some(r) = &sched {
            // Replace the analytic walk latency term with the replay's
            // measured un-hidden stall time.
            t_walk = t_walk.with_latency_override(walk_latency_override(r));
        }
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
        self.batches.push(BatchProfile { band, warps: out.counters.warps, time });
        self.total.merge(&out.counters);
        out.results
    }
}

/// Replay a `Scheduled`-mode launch's recorded timelines through the
/// event-driven per-SM scheduler and fold the outcome into the run's
/// [`SchedProfile`]. Track slices, when requested, are shifted onto the
/// run-global tick clock (launches replay back-to-back, so each one
/// starts at the makespan accumulated so far). Returns the per-launch
/// replay for the walk-latency override; `None` when the launch recorded
/// no timelines (any non-`Scheduled` mode).
fn schedule_launch(
    spec: &DeviceSpec,
    timelines: &[simt::WarpTimeline],
    residency: u32,
    record_tracks: bool,
    phases: &mut PhaseCounters,
    tracks: &mut Vec<simt::SmSlice>,
) -> Option<simt::SchedResult> {
    if timelines.is_empty() {
        return None;
    }
    let mut sc = sched_config(spec, residency);
    sc.record_tracks = record_tracks;
    let r = simt::schedule(timelines, &sc);
    let offset = phases.sched.map_or(0, |s| s.makespan_ticks);
    tracks.extend(
        r.tracks.iter().map(|s| simt::SmSlice { start: s.start + offset, end: s.end + offset, ..*s }),
    );
    let p = SchedProfile::from_result(&r);
    match phases.sched.as_mut() {
        Some(s) => s.merge(&p),
        None => phases.sched = Some(p),
    }
    Some(r)
}

/// The simulated walk latency term: the replay's un-hidden (exposed) walk
/// stall ticks, averaged over the SMs that ran warps — the per-SM port
/// idle time the analytic `t_latency` approximates.
fn walk_latency_override(r: &simt::SchedResult) -> f64 {
    let exposed = r.phase("walk").map_or(0, |p| p.exposed_ticks);
    ticks_to_seconds(exposed) / r.sms_used.max(1) as f64
}

/// Split a launch's counters at the construct/walk phase boundary and
/// fold them into `phases`, returning the two aggregates for the timing
/// model. Successful jobs contribute their construct snapshot; faulted
/// jobs aborted mid-kernel and have no meaningful boundary, so their
/// whole stream lands on the walk side (zeroed snapshot). Watchdog trips
/// and the largest successful walk budget are tallied here too.
fn fold_phases(
    phases: &mut PhaseCounters,
    width: u32,
    results: &[Result<KernelOut, KernelFault>],
    instr: &[u64],
    launch_total: &AggCounters,
) -> (AggCounters, AggCounters) {
    let zero = WarpCounters { width, ..WarpCounters::default() };
    let mut construct = AggCounters::default();
    let mut max_walk = 0u64;
    for (r, &total_instr) in results.iter().zip(instr) {
        let snap = match r {
            Ok(o) => {
                phases.walk_budget = phases.walk_budget.max(o.walk_budget);
                o.construct
            }
            Err(f) => {
                if matches!(f, KernelFault::WalkBudgetExceeded { .. }) {
                    phases.watchdog_trips += 1;
                }
                zero
            }
        };
        construct.absorb(&snap);
        debug_assert!(
            total_instr >= snap.warp_instructions,
            "phase snapshot exceeds the warp's final instruction count"
        );
        max_walk = max_walk.max(total_instr.saturating_sub(snap.warp_instructions));
    }
    phases.construct.merge(&construct);
    let walk_agg = diff_agg(launch_total, &construct, max_walk);
    phases.walk.merge(&walk_agg);
    (construct, walk_agg)
}

/// Which contig end a launch extends. Left walks run on the reverse
/// complement ([`ContigJob::left_as_right`]) and are flipped back when
/// settled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    Right,
    Left,
}

impl Side {
    /// The reads `job` contributes to this side, before any transform.
    pub fn reads(self, job: &ContigJob) -> &[Read] {
        match self {
            Side::Right => &job.right_reads,
            Side::Left => &job.left_reads,
        }
    }
}

/// One kernel launch of a run, fixed before anything launches.
#[derive(Debug, Clone)]
pub struct PlannedLaunch {
    /// Read-count band of the bin the launch belongs to.
    pub band: usize,
    pub side: Side,
    /// Dataset indices of the launched contigs, in job order.
    pub jobs: Vec<usize>,
    /// Host-side size estimation (Fig. 3): the largest job's arena bytes
    /// over the retry schedule, so staging never regrows a pooled arena.
    pub arena_hint: u64,
    /// Each warp's view of the memory hierarchy: the L2 share of the
    /// launch's resident warps.
    pub hierarchy: HierarchyConfig,
    /// Warps per compute unit the scheduled replay keeps resident: what
    /// the largest staged footprint fits in the L2 share.
    pub residency: u32,
}

impl PlannedLaunch {
    /// The launch's kernel jobs in job order, carrying `cfg`'s table
    /// policy. Right-side jobs borrow from `ds`; left-side jobs own their
    /// reverse-complement transform, so build them only to launch them.
    pub fn kernel_jobs<'a>(&self, ds: &'a Dataset, cfg: &'a GpuConfig) -> Vec<KernelJob<'a>> {
        let (k, walk, retry, dialect) = (ds.k, cfg.walk, &cfg.retry, cfg.dialect);
        self.jobs
            .iter()
            .map(|&idx| {
                let j = &ds.jobs[idx];
                let mut job = match self.side {
                    Side::Right => {
                        KernelJob::borrowed(&j.contig, &j.right_reads, k, walk, retry, dialect)
                    }
                    Side::Left => {
                        let t = j.left_as_right();
                        KernelJob::transformed(t.contig, t.right_reads, k, walk, retry, dialect)
                    }
                };
                job.slot_reserve = cfg.slot_reserve.max(1);
                job.probe = cfg.probe;
                job.layout = cfg.layout;
                job.resize = cfg.resize;
                job
            })
            .collect()
    }
}

/// Plan a run's launches, in launch order (Fig. 3): each bin's right side,
/// then its left side, each split into chunks of at most
/// [`GpuConfig::max_batch`] jobs. A contig side is skipped when the contig
/// is shorter than every k of the retry schedule or the side has no reads.
pub fn plan_launches(ds: &Dataset, cfg: &GpuConfig) -> Vec<PlannedLaunch> {
    let spec = cfg.spec();
    let schedule = cfg.retry.schedule(ds.k);
    let min_k = schedule.iter().copied().min().unwrap_or(ds.k);
    let (walk, reserve, layout, resize) =
        (cfg.walk, cfg.slot_reserve.max(1), cfg.layout, cfg.resize);
    let mut plan = Vec::new();
    for batch in bin_contigs(&ds.jobs, cfg.binning) {
        for side in [Side::Right, Side::Left] {
            let jobs: Vec<usize> = batch
                .jobs
                .iter()
                .copied()
                .filter(|&i| {
                    let j = &ds.jobs[i];
                    j.contig.len() >= min_k && !side.reads(j).is_empty()
                })
                .collect();
            if jobs.is_empty() {
                continue;
            }
            let chunk_len = cfg.max_batch.unwrap_or(usize::MAX).clamp(1, jobs.len());
            for chunk in jobs.chunks(chunk_len) {
                // The reverse complement keeps every length, so the
                // untransformed reads price either side exactly.
                let (mut arena_hint, mut footprint) = (0, 0);
                for &i in chunk {
                    let (len, reads) = (ds.jobs[i].contig.len(), side.reads(&ds.jobs[i]));
                    arena_hint = arena_hint
                        .max(arena_footprint(len, reads, &schedule, walk, reserve, layout, resize));
                    footprint = footprint
                        .max(stage_footprint(len, reads, ds.k, walk, reserve, layout, resize));
                }
                plan.push(PlannedLaunch {
                    band: batch.band,
                    side,
                    jobs: chunk.to_vec(),
                    arena_hint,
                    hierarchy: effective_hierarchy(spec, chunk.len() as u64),
                    residency: scheduled_residency(spec, footprint),
                });
            }
        }
    }
    plan
}

/// The run-global job order of a plan: `(dataset index, side)` of every
/// launched job. A job's position here is its run-global id, the id space
/// [`GpuConfig::fault`] plans target; chunking does not change it.
pub fn job_order(plan: &[PlannedLaunch]) -> impl Iterator<Item = (usize, Side)> + '_ {
    plan.iter().flat_map(|l| l.jobs.iter().map(move |&idx| (idx, l.side)))
}

/// Run the full local assembly pipeline for a dataset on a simulated GPU:
/// plan every launch, launch each in order, and settle its results.
pub fn run_local_assembly(ds: &Dataset, cfg: &GpuConfig) -> GpuRunResult {
    let spec = cfg.spec();
    let mut ledger = Ledger::default();
    let mut outcomes = vec![JobOutcome::Ok; ds.jobs.len()];
    let mut extensions: Vec<ExtensionResult> = ds
        .jobs
        .iter()
        .map(|j| ExtensionResult {
            id: j.id,
            right: Vec::new(),
            left: Vec::new(),
            right_state: WalkState::End,
            left_state: WalkState::End,
        })
        .collect();
    // Run-global id of the next launch's first job.
    let mut first_id = 0u64;
    for launch in plan_launches(ds, cfg) {
        let jobs = launch.kernel_jobs(ds, cfg);
        let launch_cfg = launch_config(cfg, launch.hierarchy, launch.arena_hint, first_id);
        let out = launch_warps(launch_cfg, &jobs, run_extension);
        let results = ledger.fold(spec, cfg, out, launch.residency, launch.band);
        for (((&idx, job), r), id) in launch.jobs.iter().zip(&jobs).zip(results).zip(first_id..) {
            let (outcome, o) = match r {
                Ok(o) => (JobOutcome::Ok, Some(o)),
                // Per-job isolation: one faulting job degrades to an
                // outcome; the rest of the launch already ran untouched.
                Err(fault) => escalate_job(cfg, spec, job, id, fault, launch.band, &mut ledger),
            };
            outcomes[idx] = outcomes[idx].combine(outcome);
            let Some(o) = o else { continue };
            let e = &mut extensions[idx];
            match launch.side {
                Side::Right => (e.right, e.right_state) = (o.extension, o.state),
                Side::Left => (e.left, e.left_state) = (revcomp(&o.extension), o.state),
            }
        }
        first_id += jobs.len() as u64;
    }

    GpuRunResult {
        extensions,
        profile: KernelProfile {
            device: cfg.device,
            dialect: cfg.dialect,
            k: ds.k,
            total: ledger.total,
            phases: ledger.phases,
            batches: ledger.batches,
        },
        traces: ledger.traces,
        outcomes,
        san: ledger.san,
        sched_tracks: ledger.sched_tracks,
    }
}

/// Aggregate difference (total − construct) for phase attribution.
///
/// Every phase snapshot must be a prefix of its warp's final counters, so
/// `total ≥ part` field-by-field; that invariant is `debug_assert!`ed and
/// the subtraction saturates rather than wrapping in release builds (a
/// wrapped counter would silently corrupt the roofline inputs downstream).
/// `max_walk_instructions` is the caller-computed longest single-warp walk
/// segment — the phase's critical path cannot be derived from two
/// aggregates alone (see [`PhaseCounters`] for the semantics).
fn diff_agg(total: &AggCounters, part: &AggCounters, max_walk_instructions: u64) -> AggCounters {
    debug_assert!(
        total.warp_instructions >= part.warp_instructions
            && total.int_instructions >= part.int_instructions
            && total.collective_instructions >= part.collective_instructions
            && total.sync_instructions >= part.sync_instructions
            && total.atomic_instructions >= part.atomic_instructions
            && total.atomic_replays >= part.atomic_replays
            && total.lane_int_ops >= part.lane_int_ops
            && (0..4).all(|q| total.occupancy_quartiles[q] >= part.occupancy_quartiles[q]),
        "phase snapshot exceeds launch totals: total={total:?} part={part:?}"
    );
    AggCounters {
        width: total.width,
        warps: total.warps,
        warp_instructions: total.warp_instructions.saturating_sub(part.warp_instructions),
        int_instructions: total.int_instructions.saturating_sub(part.int_instructions),
        collective_instructions: total
            .collective_instructions
            .saturating_sub(part.collective_instructions),
        sync_instructions: total.sync_instructions.saturating_sub(part.sync_instructions),
        atomic_instructions: total.atomic_instructions.saturating_sub(part.atomic_instructions),
        atomic_replays: total.atomic_replays.saturating_sub(part.atomic_replays),
        lane_int_ops: total.lane_int_ops.saturating_sub(part.lane_int_ops),
        occupancy_quartiles: [
            total.occupancy_quartiles[0].saturating_sub(part.occupancy_quartiles[0]),
            total.occupancy_quartiles[1].saturating_sub(part.occupancy_quartiles[1]),
            total.occupancy_quartiles[2].saturating_sub(part.occupancy_quartiles[2]),
            total.occupancy_quartiles[3].saturating_sub(part.occupancy_quartiles[3]),
        ],
        max_warp_instructions: max_walk_instructions,
        mem: total.mem.since(&part.mem),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use locassm_core::{assemble_all, AssemblyConfig};
    use workloads::paper_dataset;

    fn small_ds() -> Dataset {
        paper_dataset(21, 0.002, 42)
    }

    #[test]
    fn gpu_matches_cpu_reference() {
        let ds = small_ds();
        let cfg = GpuConfig::for_device(DeviceId::A100);
        let gpu = run_local_assembly(&ds, &cfg);
        let cpu = assemble_all(
            &ds.jobs,
            &AssemblyConfig { k: ds.k, walk: cfg.walk, retry: cfg.retry.clone() },
            true,
        );
        assert_eq!(gpu.extensions, cpu, "A100/CUDA run must match the CPU oracle");
    }

    #[test]
    fn all_devices_produce_identical_extensions() {
        let ds = small_ds();
        let a = run_local_assembly(&ds, &GpuConfig::for_device(DeviceId::A100));
        let b = run_local_assembly(&ds, &GpuConfig::for_device(DeviceId::Mi250x));
        let c = run_local_assembly(&ds, &GpuConfig::for_device(DeviceId::Max1550));
        assert_eq!(a.extensions, b.extensions);
        assert_eq!(a.extensions, c.extensions);
    }

    #[test]
    fn profile_has_work() {
        let ds = small_ds();
        let r = run_local_assembly(&ds, &GpuConfig::for_device(DeviceId::A100));
        let p = &r.profile;
        assert!(p.intops() > 0);
        assert!(p.hbm_bytes() > 0);
        assert!(p.seconds() > 0.0);
        assert!(p.phases.construct.int_instructions > 0);
        assert!(p.phases.walk.int_instructions > 0);
        assert!(!p.batches.is_empty());
    }

    #[test]
    fn deterministic_across_parallel_modes() {
        let ds = small_ds();
        let mut cfg = GpuConfig::for_device(DeviceId::Max1550);
        let par = run_local_assembly(&ds, &cfg);
        cfg.parallel = false;
        let ser = run_local_assembly(&ds, &cfg);
        assert_eq!(par.extensions, ser.extensions);
        assert_eq!(par.profile.total, ser.profile.total);
    }

    #[test]
    fn traced_run_collects_run_global_traces() {
        let ds = small_ds();
        let mut cfg = GpuConfig::for_device(DeviceId::A100);
        cfg.trace = true;
        let traced = run_local_assembly(&ds, &cfg);
        assert!(!traced.traces.is_empty());
        for (i, t) in traced.traces.iter().enumerate() {
            assert_eq!(t.warp_id, i as u64, "run-global warp ids");
            assert!(
                t.phase_names().len() >= 3,
                "warp {i} has phases {:?}",
                t.phase_names()
            );
        }
        // Observing the run must not change it.
        cfg.trace = false;
        let plain = run_local_assembly(&ds, &cfg);
        assert_eq!(traced.extensions, plain.extensions);
        assert_eq!(traced.profile.total, plain.profile.total);
        assert!(plain.traces.is_empty());
    }

    /// Satellite equivalence suite: a pooled run must be *bit-identical*
    /// to a fresh-warp run — extensions, every aggregate counter, and the
    /// full warp traces — in both parallel and serial modes, on all three
    /// devices. Pooling is a pure allocator optimisation; any observable
    /// difference is a reset bug.
    #[test]
    fn pooled_and_fresh_runs_are_bit_identical() {
        let ds = small_ds();
        for device in [DeviceId::A100, DeviceId::Mi250x, DeviceId::Max1550] {
            for parallel in [true, false] {
                let mut cfg = GpuConfig::for_device(device);
                cfg.parallel = parallel;
                cfg.trace = true;
                cfg.pool = true;
                let pooled = run_local_assembly(&ds, &cfg);
                cfg.pool = false;
                let fresh = run_local_assembly(&ds, &cfg);

                let tag = format!("{device} parallel={parallel}");
                assert_eq!(pooled.extensions, fresh.extensions, "{tag}: extensions");
                assert_eq!(pooled.profile.total, fresh.profile.total, "{tag}: totals");
                assert_eq!(
                    pooled.profile.phases.construct, fresh.profile.phases.construct,
                    "{tag}: construct phase"
                );
                assert_eq!(
                    pooled.profile.phases.walk, fresh.profile.phases.walk,
                    "{tag}: walk phase"
                );
                assert_eq!(pooled.traces, fresh.traces, "{tag}: warp traces");
            }
        }
    }

    /// The pooled run's phase timing inputs (and thus the modeled seconds)
    /// must match the fresh run's too — the batch profiles feed the
    /// roofline model directly.
    #[test]
    fn pooled_and_fresh_runs_agree_on_modeled_time() {
        let ds = small_ds();
        let mut cfg = GpuConfig::for_device(DeviceId::A100);
        cfg.pool = true;
        let pooled = run_local_assembly(&ds, &cfg);
        cfg.pool = false;
        let fresh = run_local_assembly(&ds, &cfg);
        assert_eq!(pooled.profile.batches.len(), fresh.profile.batches.len());
        assert_eq!(pooled.profile.seconds(), fresh.profile.seconds());
    }

    /// The walk phase's critical path is attributed per warp, not copied
    /// from the launch total: each warp's walk segment is its own total
    /// minus its own construct snapshot, and the construct + walk maxima
    /// must each stay below the overall critical path while covering it.
    #[test]
    fn walk_critical_path_is_attributed_not_copied() {
        let ds = small_ds();
        let r = run_local_assembly(&ds, &GpuConfig::for_device(DeviceId::A100));
        let p = &r.profile;
        let construct_max = p.phases.construct.max_warp_instructions;
        let walk_max = p.phases.walk.max_warp_instructions;
        let total_max = p.total.max_warp_instructions;
        assert!(walk_max > 0);
        assert!(
            walk_max < total_max,
            "walk critical path {walk_max} must exclude construction (total {total_max})"
        );
        assert!(
            construct_max + walk_max >= total_max,
            "phase maxima {construct_max}+{walk_max} must cover the total {total_max} \
             (both bound the same slowest warp from its two segments)"
        );
    }

    /// Fault-free equivalence: threading the fault machinery through the
    /// launch stack must not perturb a clean run. A run with `fault:
    /// None` and one with an armed plan targeting an out-of-range job are
    /// bit-identical — extensions, counters, traces, outcomes — on all
    /// three devices, parallel and serial.
    #[test]
    fn unarmed_fault_plan_is_bit_identical_to_none() {
        let ds = small_ds();
        for device in [DeviceId::A100, DeviceId::Mi250x, DeviceId::Max1550] {
            for parallel in [true, false] {
                let mut cfg = GpuConfig::for_device(device);
                cfg.parallel = parallel;
                cfg.trace = true;
                let plain = run_local_assembly(&ds, &cfg);
                cfg.fault = Some(FaultPlan::table_full(u64::MAX));
                let armed = run_local_assembly(&ds, &cfg);

                let tag = format!("{device} parallel={parallel}");
                assert_eq!(plain.extensions, armed.extensions, "{tag}: extensions");
                assert_eq!(plain.profile.total, armed.profile.total, "{tag}: totals");
                assert_eq!(plain.traces, armed.traces, "{tag}: traces");
                assert_eq!(plain.outcomes, armed.outcomes, "{tag}: outcomes");
                assert!(plain.outcomes.iter().all(|o| *o == JobOutcome::Ok), "{tag}");
            }
        }
    }

    /// The `(dataset index, side)` a run-global fault-plan job id names.
    fn victim_of(ds: &Dataset, cfg: &GpuConfig, victim: u64) -> (usize, Side) {
        job_order(&plan_launches(ds, cfg)).nth(victim as usize).expect("victim id is launched")
    }

    /// The tentpole acceptance scenario: inject a table-full fault into
    /// one job of a real batch. The batch completes; the victim is
    /// `Recovered` (the transient plan clears on the grown retry); every
    /// other job's extension is bit-identical to the fault-free run; and
    /// the warp pool remains fully reusable afterwards.
    #[test]
    fn injected_fault_isolates_to_one_job() {
        let ds = small_ds();
        const VICTIM: u64 = 3;
        for device in [DeviceId::A100, DeviceId::Mi250x, DeviceId::Max1550] {
            for parallel in [true, false] {
                let mut cfg = GpuConfig::for_device(device);
                cfg.parallel = parallel;
                let clean = run_local_assembly(&ds, &cfg);
                cfg.fault = Some(FaultPlan::table_full(VICTIM));
                let faulted = run_local_assembly(&ds, &cfg);

                let tag = format!("{device} parallel={parallel}");
                let (victim_idx, _) = victim_of(&ds, &cfg, VICTIM);
                for (i, (c, f)) in
                    clean.extensions.iter().zip(&faulted.extensions).enumerate()
                {
                    assert_eq!(c, f, "{tag}: job {i} must be bit-identical");
                }
                for (i, o) in faulted.outcomes.iter().enumerate() {
                    if i == victim_idx {
                        assert_eq!(
                            *o,
                            JobOutcome::Recovered { attempts: 1 },
                            "{tag}: the victim recovers on the grown retry"
                        );
                    } else {
                        assert_eq!(*o, JobOutcome::Ok, "{tag}: job {i}");
                    }
                }

                // The pool survived the fault: a fresh clean run reuses
                // pooled warps and reproduces the baseline bit-for-bit.
                let stats_before = simt::pool_stats();
                cfg.fault = None;
                let after = run_local_assembly(&ds, &cfg);
                let stats_after = simt::pool_stats();
                assert_eq!(after.extensions, clean.extensions, "{tag}: rerun");
                assert_eq!(after.profile.total, clean.profile.total, "{tag}: rerun totals");
                assert!(
                    stats_after.reused > stats_before.reused,
                    "{tag}: the rerun must draw from the pool"
                );
            }
        }
    }

    /// A persistent table-full plan (`attempts: 2`) also faults the grown
    /// same-k retry, pushing escalation down the k-ladder: the victim
    /// recovers at a fallback k and its extension matches the CPU
    /// reference assembled at that k.
    #[test]
    fn persistent_fault_recovers_at_fallback_k() {
        let ds = small_ds();
        const VICTIM: u64 = 1;
        let mut cfg = GpuConfig::for_device(DeviceId::A100);
        cfg.retry = RetryPolicy::ladder(ds.k);
        cfg.fault = Some(FaultPlan::table_full(VICTIM).persist(2));
        let r = run_local_assembly(&ds, &cfg);
        let (victim_idx, side) = victim_of(&ds, &cfg, VICTIM);
        assert_eq!(
            r.outcomes[victim_idx],
            JobOutcome::Recovered { attempts: 2 },
            "attempt 1 (grown, same k) still faults; attempt 2 (fallback k) clears"
        );

        // CPU oracle: assemble the victim contig with the fallback k as
        // its primary — exactly what the recovered attempt ran.
        let schedule = cfg.retry.schedule(ds.k);
        let fallback_k = schedule[1];
        let j = &ds.jobs[victim_idx];
        let cpu = assemble_all(
            std::slice::from_ref(j),
            &AssemblyConfig { k: fallback_k, walk: cfg.walk, retry: cfg.retry.clone() },
            true,
        );
        let (got, want) = if side == Side::Right {
            (&r.extensions[victim_idx].right, &cpu[0].right)
        } else {
            (&r.extensions[victim_idx].left, &cpu[0].left)
        };
        assert_eq!(got, want, "the recovered side matches the CPU oracle at k={fallback_k}");
    }

    /// An inexhaustibly persistent plan (`u32::MAX` attempts) faults
    /// every rung of the ladder: the victim ends `Failed` with the
    /// table-full fault, contributes an empty extension, and still does
    /// not disturb its neighbours.
    #[test]
    fn exhausted_escalation_reports_failed() {
        let ds = small_ds();
        const VICTIM: u64 = 0;
        let mut cfg = GpuConfig::for_device(DeviceId::A100);
        cfg.retry = RetryPolicy::ladder(ds.k);
        let clean = run_local_assembly(&ds, &cfg);
        cfg.fault = Some(FaultPlan::table_full(VICTIM).persist(u32::MAX));
        let r = run_local_assembly(&ds, &cfg);
        let (victim_idx, side) = victim_of(&ds, &cfg, VICTIM);
        match r.outcomes[victim_idx] {
            JobOutcome::Failed { fault: KernelFault::HashTableFull { .. }, attempts } => {
                assert!(
                    attempts >= 2,
                    "an exhausted ladder must report every attempt it spent, got {attempts}"
                );
            }
            other => panic!("expected Failed(HashTableFull), got {other:?}"),
        }
        assert!(!r.outcomes[victim_idx].succeeded());
        let failed_side = if side == Side::Right {
            &r.extensions[victim_idx].right
        } else {
            &r.extensions[victim_idx].left
        };
        assert!(failed_side.is_empty(), "a failed job contributes no bases");
        for (i, (c, f)) in clean.extensions.iter().zip(&r.extensions).enumerate() {
            if i != victim_idx {
                assert_eq!(c, f, "job {i} must be untouched");
            }
        }
    }

    /// Injected arena-exhaustion and watchdog faults are transient by
    /// default: one clean retry recovers the victim and the run matches
    /// the fault-free baseline everywhere.
    #[test]
    fn transient_alloc_and_watchdog_faults_recover_cleanly() {
        let ds = small_ds();
        const VICTIM: u64 = 2;
        let mut cfg = GpuConfig::for_device(DeviceId::A100);
        let clean = run_local_assembly(&ds, &cfg);
        for plan in
            [FaultPlan::alloc_failure(VICTIM, 3), FaultPlan::watchdog(VICTIM)]
        {
            cfg.fault = Some(plan);
            let r = run_local_assembly(&ds, &cfg);
            let (victim_idx, _) = victim_of(&ds, &cfg, VICTIM);
            assert_eq!(r.extensions, clean.extensions, "recovery is exact");
            assert_eq!(r.outcomes[victim_idx], JobOutcome::Recovered { attempts: 1 });
        }
        // The watchdog trip is visible in the phase counters.
        cfg.fault = Some(FaultPlan::watchdog(VICTIM));
        let r = run_local_assembly(&ds, &cfg);
        assert_eq!(r.profile.phases.watchdog_trips, 1);
        assert!(r.profile.phases.walk_budget > 0);
    }

    /// Escalation retries are launches like any other: each one is priced
    /// into its own batch profile, so the profiles cover exactly the warps
    /// the run's totals count, and a retry never makes a run cheaper.
    #[test]
    fn escalation_retries_are_priced_launches() {
        let ds = small_ds();
        let mut cfg = GpuConfig::for_device(DeviceId::A100);
        let clean = run_local_assembly(&ds, &cfg).profile;
        cfg.fault = Some(FaultPlan::watchdog(2));
        let p = run_local_assembly(&ds, &cfg).profile;
        let priced: u64 = p.batches.iter().map(|b| b.warps).sum();
        assert_eq!(priced, p.total.warps, "every launched warp is priced");
        assert_eq!(p.batches.len(), clean.batches.len() + 1, "the retry is its own launch");
        assert!(
            p.seconds() > clean.seconds(),
            "a retried run ({}s) must cost more than the clean run ({}s)",
            p.seconds(),
            clean.seconds()
        );
    }

    /// The execution-ordering mode follows the dialect: CUDA's independent
    /// thread scheduling gets the strict race detector; HIP wavefronts and
    /// SYCL sub-groups run in implicit lockstep, which their ported
    /// listings legally rely on.
    #[test]
    fn sanitizer_mode_follows_dialect() {
        let all = SanitizerConfig::all();
        assert!(!dialect_sanitizer(all, Dialect::Cuda).lockstep);
        assert!(dialect_sanitizer(all, Dialect::Hip).lockstep);
        assert!(dialect_sanitizer(all, Dialect::Sycl).lockstep);
        // Everything else passes through untouched.
        let adapted = dialect_sanitizer(all, Dialect::Hip);
        assert!(adapted.races && adapted.sync && adapted.lint && adapted.invariants);
    }

    /// Full-checks sanitized runs are bit-identical to plain runs on every
    /// device — the sanitizer models zero instructions — and the paper's
    /// kernels come back clean (no findings) on all three dialects. This
    /// is the launch-level half of the `sanitizer_clean` tier-1 gate.
    /// Traces are compared modulo `san_finding` instants: surfacing lints
    /// as trace events is the sanitizer's *output*, not a perturbation
    /// (spans and every modeled counter stay identical).
    #[test]
    fn sanitized_run_is_bit_identical_and_clean() {
        let strip_san = |traces: &[simt::WarpTrace]| -> Vec<simt::WarpTrace> {
            traces
                .iter()
                .map(|t| {
                    let mut t = t.clone();
                    t.events.retain(|e| {
                        !matches!(e.kind, simt::EventKind::SanFinding { .. })
                    });
                    t
                })
                .collect()
        };
        let ds = small_ds();
        for device in [DeviceId::A100, DeviceId::Mi250x, DeviceId::Max1550] {
            let mut cfg = GpuConfig::for_device(device);
            cfg.trace = true;
            let plain = run_local_assembly(&ds, &cfg);
            assert!(plain.san.is_clean() && plain.san.lints.is_empty(), "{device}: off = empty");
            cfg.sanitize = SanitizerConfig::all();
            let sane = run_local_assembly(&ds, &cfg);

            let tag = format!("{device}");
            assert_eq!(plain.extensions, sane.extensions, "{tag}: extensions");
            assert_eq!(plain.profile.total, sane.profile.total, "{tag}: totals");
            assert_eq!(plain.traces, strip_san(&sane.traces), "{tag}: traces");
            assert_eq!(plain.outcomes, sane.outcomes, "{tag}: outcomes");
            assert!(
                sane.san.is_clean(),
                "{tag}: the paper's kernels must sanitize clean, got {:?}",
                sane.san.findings
            );
        }
    }

    /// Escalation retries run under the same sanitizer as the batch: a
    /// transient injected table-full fault recovers and the sanitized
    /// retry still reports clean.
    #[test]
    fn sanitizer_covers_escalation_retries() {
        let ds = small_ds();
        let mut cfg = GpuConfig::for_device(DeviceId::A100);
        cfg.sanitize = SanitizerConfig::all();
        cfg.fault = Some(FaultPlan::table_full(3));
        let r = run_local_assembly(&ds, &cfg);
        assert!(r.outcomes.iter().any(|o| matches!(o, JobOutcome::Recovered { .. })));
        assert!(r.san.is_clean(), "recovered retries sanitize clean: {:?}", r.san.findings);
    }

    /// Every binning, chunked or not, gives the same extensions and work
    /// totals; only batch structure differs. Each run makes exactly the
    /// launches its plan lists, and chunking leaves the run-global job
    /// order alone.
    #[test]
    fn binning_policies_agree_on_results() {
        let ds = small_ds();
        let base = run_local_assembly(&ds, &GpuConfig::for_device(DeviceId::A100));
        let binnings =
            [BinningPolicy::PowerOfTwo, BinningPolicy::Single, BinningPolicy::FixedSize(5)];
        for binning in binnings {
            let mut orders = Vec::new();
            for max_batch in [None, Some(4)] {
                let cfg = GpuConfig { binning, max_batch, ..GpuConfig::for_device(DeviceId::A100) };
                let plan = plan_launches(&ds, &cfg);
                let r = run_local_assembly(&ds, &cfg);
                let tag = format!("{binning:?} max_batch={max_batch:?}");
                assert_eq!(r.extensions, base.extensions, "{tag}");
                let int = |r: &GpuRunResult| r.profile.total.int_instructions;
                assert_eq!(int(&r), int(&base), "{tag}");
                let ran: Vec<_> = r.profile.batches.iter().map(|b| (b.band, b.warps)).collect();
                let planned: Vec<_> = plan.iter().map(|l| (l.band, l.jobs.len() as u64)).collect();
                assert_eq!(ran, planned, "{tag}: launches");
                orders.push(job_order(&plan).collect::<Vec<_>>());
            }
            assert_eq!(orders[0], orders[1], "{binning:?}: chunking must not renumber jobs");
        }
    }

    /// Every launch knob that may not change results, swept jointly:
    /// reserve × batch cap × probe × layout × resize. `Some(4)` is the only
    /// cap that splits this dataset's bins (1, 9, 17 and 1 jobs), so it is
    /// the sweep's one chunked launch.
    #[test]
    fn every_launch_knob_combination_preserves_extensions() {
        let ds = small_ds();
        let base_cfg = GpuConfig::for_device(DeviceId::A100);
        let base = run_local_assembly(&ds, &base_cfg);
        for slot_reserve in [1, 2] {
            for max_batch in [None, Some(4), Some(32), Some(128)] {
                for probe in [ProbeStrategy::Linear, ProbeStrategy::Stride2] {
                    for layout in TableLayoutKind::ALL {
                        for resize in [false, true] {
                            let cfg = GpuConfig {
                                slot_reserve,
                                max_batch,
                                probe,
                                layout,
                                resize,
                                ..base_cfg.clone()
                            };
                            let r = run_local_assembly(&ds, &cfg);
                            assert_eq!(
                                r.extensions, base.extensions,
                                "reserve={slot_reserve} batch={max_batch:?} probe={probe:?} \
                                 layout={layout} resize={resize}"
                            );
                            assert!(r.outcomes.iter().all(|o| o.succeeded()));
                            if max_batch == Some(4) {
                                assert!(r.profile.batches.len() > base.profile.batches.len());
                            }
                        }
                    }
                }
            }
        }
    }

    /// A fault id names the same job whether or not its side is chunked.
    /// The victim is job 5 of the first side longer than five jobs, so
    /// under `Some(4)` it is the second job of that side's second chunk.
    #[test]
    fn fault_ids_survive_chunking() {
        let ds = small_ds();
        let base = GpuConfig::for_device(DeviceId::A100);
        let clean = run_local_assembly(&ds, &base);
        let plan = plan_launches(&ds, &base);
        let long = plan.iter().position(|l| l.jobs.len() > 5).expect("a side of six jobs");
        let victim = plan[..long].iter().map(|l| l.jobs.len() as u64).sum::<u64>() + 5;
        let victim_idx = plan[long].jobs[5];
        for max_batch in [None, Some(4)] {
            let cfg =
                GpuConfig { max_batch, fault: Some(FaultPlan::table_full(victim)), ..base.clone() };
            if max_batch.is_some() {
                assert_eq!(plan_launches(&ds, &cfg)[long + 1].jobs[1], victim_idx);
            }
            let r = run_local_assembly(&ds, &cfg);
            assert_eq!(r.extensions, clean.extensions, "max_batch={max_batch:?}");
            for (i, o) in r.outcomes.iter().enumerate() {
                let recovered = JobOutcome::Recovered { attempts: 1 };
                let want = if i == victim_idx { recovered } else { JobOutcome::Ok };
                assert_eq!(*o, want, "max_batch={max_batch:?}: job {i}");
            }
        }
    }
}

#[cfg(test)]
mod whatif_tests {
    use super::*;
    use workloads::paper_dataset;

    /// The paper's §V-E conclusion in executable form: giving the MI250X
    /// model a Max 1550-sized L2 collapses its HBM traffic toward the
    /// A100's.
    #[test]
    fn bigger_l2_fixes_the_mi250x() {
        // Full occupancy (one batch > 880 resident warps) so the L2 share
        // is under real pressure, as in the production-scale runs.
        let ds = paper_dataset(21, 0.07, 61);
        let mut cfg = GpuConfig::for_device(DeviceId::Mi250x);
        cfg.binning = locassm_core::BinningPolicy::Single;
        let stock = run_local_assembly(&ds, &cfg);

        let mut spec = DeviceId::Mi250x.spec().clone();
        spec.l2_bytes = 204 * 1024 * 1024; // Max 1550-sized
        let upgraded_cfg = cfg.clone().with_spec(spec);
        let upgraded = run_local_assembly(&ds, &upgraded_cfg);

        assert_eq!(
            stock.extensions, upgraded.extensions,
            "hardware what-ifs must not change results"
        );
        assert!(
            upgraded.profile.hbm_bytes() * 2 < stock.profile.hbm_bytes(),
            "204 MB L2 must collapse traffic: {} vs {}",
            upgraded.profile.hbm_bytes(),
            stock.profile.hbm_bytes()
        );
        assert!(upgraded.profile.seconds() < stock.profile.seconds());
    }

    /// Conversely, shrinking the A100's L2 to the MI250X's pushes its
    /// traffic up.
    #[test]
    fn smaller_l2_hurts_the_a100() {
        let ds = paper_dataset(21, 0.07, 62);
        let mut base = GpuConfig::for_device(DeviceId::A100);
        base.binning = locassm_core::BinningPolicy::Single;
        let stock = run_local_assembly(&ds, &base);

        let mut spec = DeviceId::A100.spec().clone();
        spec.l2_bytes = 8 * 1024 * 1024;
        spec.l1_bytes_per_cu = 16 * 1024;
        let cfg = base.clone().with_spec(spec);
        let shrunk = run_local_assembly(&ds, &cfg);

        assert!(shrunk.profile.hbm_bytes() > stock.profile.hbm_bytes());
    }
}
