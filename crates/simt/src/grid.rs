//! Grid launcher: run one kernel over many independent warps.
//!
//! The local assembly kernel assigns one contig (plus its reads) per warp,
//! and warps share no data — so the simulation parallelizes perfectly with
//! rayon while remaining deterministic (results are collected in job order
//! and counters are commutatively merged).
//!
//! # The pooled launch engine
//!
//! The paper's Fig. 3 pipeline reserves per-warp device slabs up front so
//! the kernel never allocates mid-flight. The launcher mirrors that
//! discipline on the host side: instead of building a fresh [`Warp`] (arena
//! + cache model) for every job, it draws warps from a process-wide pool,
//! [`Warp::reset`]s them to a cold state, and returns them after the job.
//! A reset re-zeroes only the used region of the arena and keeps every
//! backing buffer, so steady-state launches perform no heap allocation for
//! warp state at all. [`LaunchConfig::arena_hint`] seeds new and reused
//! arenas with the host-side size estimate so in-kernel bump allocation
//! never regrows the buffer either.
//!
//! Pooling is behaviour-preserving by construction: a reset warp is
//! observationally identical to a fresh one, so pooled and fresh launches
//! produce bit-identical results, counters and traces (enforced by the
//! tests below and by the kernel-level equivalence suite).

use crate::counters::AggCounters;
use crate::fault::FaultPlan;
use crate::san::{SanReport, SanitizerConfig};
use crate::sched::WarpTimeline;
use crate::trace::WarpTrace;
use crate::warp::{ExecMode, Warp};
use memhier::HierarchyConfig;
use rayon::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// Configuration for a kernel launch.
#[derive(Debug, Clone, Copy)]
pub struct LaunchConfig {
    /// Warp/wavefront/sub-group width.
    pub width: u32,
    /// Per-warp view of the memory hierarchy (L2 already scaled to the
    /// occupancy-derived effective share — see `gpu-specs::occupancy`).
    pub hierarchy: HierarchyConfig,
    /// Simulate warps in parallel with rayon. Disable for strictly
    /// single-threaded runs (e.g. the `host_throughput` bars, which time
    /// the simulator).
    pub parallel: bool,
    /// Attach a [`crate::TraceSink`] to every warp and collect
    /// [`WarpTrace`]s in [`LaunchOutput::traces`]. Off by default; the
    /// launch stays deterministic either way (traces are merged in job
    /// order regardless of rayon scheduling).
    pub trace: bool,
    /// Reuse warps (arena + cache model) from the process-wide pool
    /// instead of constructing one per job. On by default; results are
    /// bit-identical either way, pooling only removes allocator traffic.
    pub pool: bool,
    /// Pre-size hint, in bytes, for each warp's memory arena — typically
    /// the host-side estimate of the largest per-warp device slab (contig
    /// + reads + hash table + walk buffers). With an accurate hint the
    /// in-kernel bump allocator never regrows its backing buffer. `0`
    /// means no reservation.
    pub arena_hint: u64,
    /// Deterministic fault-injection plan (see [`crate::fault`]). `None`
    /// (the default) injects nothing; the launch is then bit-identical to
    /// one with an armed plan targeting an out-of-range job.
    pub fault: Option<FaultPlan>,
    /// Offset added to each job's local index before matching it against
    /// [`LaunchConfig::fault`], so multi-launch drivers can address jobs
    /// by a run-global number (the same numbering as renumbered traces).
    pub fault_base: u64,
    /// Warp-sanitizer configuration (see [`crate::san`]). All-off by
    /// default; an armed config attaches a sanitizer to every warp and
    /// collects per-warp [`SanReport`]s in [`LaunchOutput::san`]. The
    /// sanitizer models zero instructions, so results/counters/traces are
    /// bit-identical with it on or off (absent findings, which add trace
    /// events).
    pub sanitize: SanitizerConfig,
    /// Interpreter execution mode for every warp of the launch (see
    /// [`ExecMode`]). `Vectorized` by default; `Scalar` keeps the
    /// reference per-lane path that equivalence tests compare against;
    /// `Scheduled` additionally records per-warp timelines in
    /// [`LaunchOutput::timelines`] for the event-driven scheduler replay
    /// ([`crate::sched`]). Bit-identical in all modeled state either way.
    pub exec: ExecMode,
}

impl LaunchConfig {
    /// A parallel, untraced, pooled launch at the given width and hierarchy.
    pub fn new(width: u32, hierarchy: HierarchyConfig) -> Self {
        LaunchConfig {
            width,
            hierarchy,
            parallel: true,
            trace: false,
            pool: true,
            arena_hint: 0,
            fault: None,
            fault_base: 0,
            sanitize: SanitizerConfig::default(),
            exec: ExecMode::default(),
        }
    }
}

/// Result of a launch: per-job kernel outputs plus aggregated counters.
#[derive(Debug, Clone)]
pub struct LaunchOutput<R> {
    /// Kernel return values, in job order.
    pub results: Vec<R>,
    /// Counters aggregated over all warps.
    pub counters: AggCounters,
    /// Per-warp traces in job order (`warp_id` = job index); empty unless
    /// [`LaunchConfig::trace`] was set.
    pub traces: Vec<WarpTrace>,
    /// Total warp instructions per warp, in job order (always populated).
    /// Lets callers attribute the intra-batch critical path to kernel
    /// phases without holding every warp's full counter set.
    pub warp_instruction_counts: Vec<u64>,
    /// Per-warp sanitizer reports in job order; empty unless
    /// [`LaunchConfig::sanitize`] arms a check family.
    pub san: Vec<SanReport>,
    /// Per-warp instruction timelines in job order (`warp_id` = job
    /// index); empty unless [`LaunchConfig::exec`] is
    /// [`ExecMode::Scheduled`]. Feed to [`crate::sched::schedule`].
    pub timelines: Vec<WarpTimeline>,
}

/// The process-wide pool of idle warps behind the pooled launch engine.
#[derive(Debug, Default)]
struct WarpPool {
    idle: Mutex<Vec<Warp>>,
    created: AtomicU64,
    reused: AtomicU64,
}

static POOL: OnceLock<WarpPool> = OnceLock::new();

fn pool() -> &'static WarpPool {
    POOL.get_or_init(WarpPool::default)
}

/// Snapshot of the process-wide warp pool's activity (monotone counters;
/// useful for asserting that reuse actually happens, and read by the
/// benchmark's `simt.pool_reuse_frac`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Warps constructed because the pool was empty at acquire time.
    pub created: u64,
    /// Acquisitions served by resetting an idle pooled warp.
    pub reused: u64,
    /// Warps currently sitting idle in the pool.
    pub idle: usize,
}

/// Current [`PoolStats`] for the process-wide warp pool.
pub fn pool_stats() -> PoolStats {
    let p = pool();
    PoolStats {
        created: p.created.load(Ordering::Relaxed),
        reused: p.reused.load(Ordering::Relaxed),
        idle: p.idle.lock().unwrap().len(),
    }
}

/// Acquire a cold warp: reset a pooled one when allowed and available,
/// construct otherwise. Either way the arena is pre-sized to the hint.
fn acquire_warp(cfg: &LaunchConfig) -> Warp {
    let mut warp = if cfg.pool {
        let recycled = pool().idle.lock().unwrap().pop();
        match recycled {
            Some(mut w) => {
                pool().reused.fetch_add(1, Ordering::Relaxed);
                w.reset(cfg.width, cfg.hierarchy);
                w
            }
            None => {
                pool().created.fetch_add(1, Ordering::Relaxed);
                Warp::new(cfg.width, cfg.hierarchy)
            }
        }
    } else {
        Warp::new(cfg.width, cfg.hierarchy)
    };
    warp.set_exec(cfg.exec);
    if cfg.arena_hint > 0 {
        warp.mem.ensure_capacity(crate::mem::NULL_PAGE + cfg.arena_hint);
    }
    warp
}

/// Return a finished warp to the pool (dropped when pooling is off).
///
/// A warp leaving a parallel launch is trimmed to its cache slice: the
/// pool then holds about one warp per thread, and each would otherwise
/// keep the largest slice it ever served (a whole L2 after a 1-warp
/// launch). A serial launch's single pooled warp keeps its spare capacity,
/// so launches of alternating sizes do not reallocate it.
fn release_warp(cfg: &LaunchConfig, mut warp: Warp) {
    if cfg.pool {
        if cfg.parallel {
            warp.trim_caches();
        }
        pool().idle.lock().unwrap().push(warp);
    }
}

/// Launch `kernel` once per job, each on a cold warp.
///
/// The kernel receives a mutable [`Warp`] (with an empty memory arena — it
/// performs its own device-side allocation, mirroring the reserved slabs the
/// host pre-computes in the paper's Fig. 3 pipeline) and its job. With
/// [`LaunchConfig::pool`] set (the default) warps are drawn from the
/// process-wide pool and reset between jobs; see the module docs.
pub fn launch_warps<J, R, F>(cfg: LaunchConfig, jobs: &[J], kernel: F) -> LaunchOutput<R>
where
    J: Sync,
    R: Send,
    F: Fn(&mut Warp, &J) -> R + Sync,
{
    type PerWarp<R> =
        (R, crate::WarpCounters, Option<WarpTrace>, Option<SanReport>, Option<WarpTimeline>);
    let run_one = |(idx, job): (usize, &J)| -> PerWarp<R> {
        let mut warp = acquire_warp(&cfg);
        if cfg.trace {
            warp.enable_trace(idx as u64);
        }
        if cfg.exec == ExecMode::Scheduled {
            warp.enable_recorder(idx as u64);
        }
        warp.enable_sanitizer(cfg.sanitize);
        if let Some(plan) = &cfg.fault {
            plan.arm(cfg.fault_base + idx as u64, &mut warp);
        }
        let r = kernel(&mut warp, job);
        let counters = warp.finish();
        let trace = warp.take_trace();
        let san = warp.take_san_report();
        let timeline = warp.take_timeline();
        release_warp(&cfg, warp);
        (r, counters, trace, san, timeline)
    };

    let per_warp: Vec<PerWarp<R>> = if cfg.parallel {
        jobs.par_iter().enumerate().map(run_one).collect()
    } else {
        jobs.iter().enumerate().map(run_one).collect()
    };

    let mut agg = AggCounters::default();
    let mut results = Vec::with_capacity(per_warp.len());
    let mut traces = Vec::new();
    let mut warp_instruction_counts = Vec::with_capacity(per_warp.len());
    let mut san = Vec::new();
    let mut timelines = Vec::new();
    for (r, c, t, s, tl) in per_warp {
        agg.absorb(&c);
        results.push(r);
        traces.extend(t);
        warp_instruction_counts.push(c.warp_instructions);
        san.extend(s);
        timelines.extend(tl);
    }
    LaunchOutput { results, counters: agg, traces, warp_instruction_counts, san, timelines }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::Fault;
    use crate::lanevec::LaneVec;

    fn cfg(parallel: bool) -> LaunchConfig {
        LaunchConfig {
            width: 32,
            hierarchy: HierarchyConfig::tiny(),
            parallel,
            trace: false,
            pool: true,
            arena_hint: 0,
            fault: None,
            fault_base: 0,
            sanitize: SanitizerConfig::default(),
            exec: ExecMode::default(),
        }
    }

    #[test]
    fn results_in_job_order() {
        let jobs: Vec<u32> = (0..100).collect();
        let out = launch_warps(cfg(true), &jobs, |w, &j| {
            w.iop(w.full_mask(), j as u64 + 1);
            j * 2
        });
        assert_eq!(out.results, (0..100).map(|j| j * 2).collect::<Vec<_>>());
        assert_eq!(out.counters.warps, 100);
        assert_eq!(
            out.warp_instruction_counts,
            (0..100u64).map(|j| j + 1).collect::<Vec<_>>(),
            "per-warp instruction counts arrive in job order"
        );
    }

    #[test]
    fn counters_aggregate_deterministically() {
        let jobs: Vec<u32> = (0..64).collect();
        let body = |w: &mut Warp, j: &u32| {
            let base = w.mem.alloc(256);
            let addrs = LaneVec::from_fn(32, |l| base + 4 * l as u64);
            let vals = LaneVec::splat(*j);
            w.store_u32(w.full_mask(), &addrs, &vals);
            let _ = w.load_u32(w.full_mask(), &addrs);
            w.iop(w.full_mask(), 5);
        };
        let a = launch_warps(cfg(true), &jobs, body);
        let b = launch_warps(cfg(false), &jobs, body);
        assert_eq!(a.counters, b.counters, "parallel and serial launches agree");
        assert_eq!(a.counters.int_instructions, 64 * 5);
        assert_eq!(a.counters.intops(), 64 * 5 * 32);
    }

    #[test]
    fn max_warp_instructions_tracks_imbalance() {
        let jobs: Vec<u64> = vec![1, 1, 100, 1];
        let out = launch_warps(cfg(true), &jobs, |w, &j| w.iop(w.full_mask(), j));
        assert_eq!(out.counters.max_warp_instructions, 100);
    }

    #[test]
    fn empty_launch() {
        let out = launch_warps(cfg(true), &Vec::<u32>::new(), |_, _| 0u32);
        assert!(out.results.is_empty());
        assert_eq!(out.counters.warps, 0);
        assert!(out.traces.is_empty());
        assert!(out.warp_instruction_counts.is_empty());
    }

    #[test]
    fn untraced_launch_collects_no_traces() {
        let jobs: Vec<u32> = (0..8).collect();
        let out = launch_warps(cfg(true), &jobs, |w, _| w.iop(w.full_mask(), 1));
        assert!(out.traces.is_empty());
    }

    /// A kernel with uneven per-job work, phases and events — enough to
    /// expose any scheduling-dependent trace ordering.
    fn traced_body(w: &mut Warp, j: &u32) {
        w.phase_enter("outer");
        w.phase_enter("compute");
        w.iop(w.full_mask(), *j as u64 % 17 + 1);
        w.phase_exit("compute");
        let preds = LaneVec::splat(true);
        let _ = w.ballot(w.full_mask(), &preds);
        w.syncwarp(w.full_mask());
        w.phase_exit("outer");
    }

    #[test]
    fn traces_merge_deterministically_parallel_vs_serial() {
        let jobs: Vec<u32> = (0..200).collect();
        let mut par = cfg(true);
        par.trace = true;
        let mut ser = cfg(false);
        ser.trace = true;
        let a = launch_warps(par, &jobs, traced_body);
        let b = launch_warps(ser, &jobs, traced_body);
        assert_eq!(a.traces.len(), 200);
        assert_eq!(a.traces, b.traces, "rayon scheduling must not leak into traces");
        for (i, t) in a.traces.iter().enumerate() {
            assert_eq!(t.warp_id, i as u64, "traces arrive in job order");
        }
        assert_eq!(a.counters, b.counters);
    }

    #[test]
    fn traced_launch_records_phases_and_events() {
        let jobs: Vec<u32> = vec![3, 5];
        let mut c = cfg(true);
        c.trace = true;
        let out = launch_warps(c, &jobs, traced_body);
        let t = &out.traces[0];
        assert_eq!(t.phase_names(), vec!["compute", "outer"]);
        // Inner span closed first; outer delta is inclusive.
        assert_eq!(t.spans[0].name, "compute");
        assert_eq!(t.spans[1].name, "outer");
        assert!(t.spans[1].delta.warp_instructions >= t.spans[0].delta.warp_instructions);
        let names: Vec<&str> = t.events.iter().map(|e| e.kind.name()).collect();
        assert!(names.contains(&"ballot"));
        assert!(names.contains(&"sync"));
    }

    #[test]
    fn tracing_does_not_change_counters() {
        let jobs: Vec<u32> = (0..32).collect();
        let mut traced = cfg(true);
        traced.trace = true;
        let a = launch_warps(traced, &jobs, traced_body);
        let b = launch_warps(cfg(true), &jobs, traced_body);
        assert_eq!(a.counters, b.counters, "observing a warp must not perturb it");
    }

    /// A kernel that touches everything a real job does: arena allocation,
    /// stores/loads, data-dependent control, atomics and collectives — so
    /// any stale state leaking through the pool would change its output.
    fn stateful_body(w: &mut Warp, j: &u32) -> (u64, u32) {
        let base = w.mem.alloc_bytes(&j.to_le_bytes());
        let tbl = w.mem.alloc_aligned(256, 32);
        let addrs = LaneVec::from_fn(32, |l| tbl + 4 * ((l + j) % 64) as u64);
        let vals = LaneVec::from_fn(32, |l| l ^ j);
        w.store_u32(w.full_mask(), &addrs, &vals);
        let ones = LaneVec::splat(1u32);
        let _ = w.atomic_add_u32(w.full_mask(), &LaneVec::splat(tbl), &ones);
        let back = w.load_u32(w.full_mask(), &addrs);
        w.iop(w.full_mask(), (*j as u64 % 13) + 1);
        (base + back[*j % 32] as u64, w.mem.read_u8(base) as u32)
    }

    #[test]
    fn pooled_and_fresh_launches_are_bit_identical() {
        let jobs: Vec<u32> = (0..128).collect();
        for parallel in [true, false] {
            let mut pooled = cfg(parallel);
            pooled.trace = true;
            let mut fresh = pooled;
            fresh.pool = false;
            // Pre-dirty the pool so reuse definitely happens.
            let _ = launch_warps(pooled, &jobs, stateful_body);
            let a = launch_warps(pooled, &jobs, stateful_body);
            let b = launch_warps(fresh, &jobs, stateful_body);
            assert_eq!(a.results, b.results, "parallel={parallel}");
            assert_eq!(a.counters, b.counters, "parallel={parallel}");
            assert_eq!(a.traces, b.traces, "parallel={parallel}");
            assert_eq!(a.warp_instruction_counts, b.warp_instruction_counts);
        }
    }

    #[test]
    fn scalar_and_vectorized_launches_are_bit_identical() {
        let jobs: Vec<u32> = (0..96).collect();
        for parallel in [true, false] {
            let mut vec = cfg(parallel);
            vec.trace = true;
            vec.sanitize = SanitizerConfig::all();
            vec.exec = ExecMode::Vectorized;
            let mut scl = vec;
            scl.exec = ExecMode::Scalar;
            let a = launch_warps(vec, &jobs, stateful_body);
            let b = launch_warps(scl, &jobs, stateful_body);
            assert_eq!(a.results, b.results, "parallel={parallel}");
            assert_eq!(a.counters, b.counters, "parallel={parallel}");
            assert_eq!(a.traces, b.traces, "parallel={parallel}");
            assert_eq!(a.san, b.san, "parallel={parallel}");
        }
    }

    #[test]
    fn scheduled_launches_are_bit_identical_and_collect_timelines() {
        let jobs: Vec<u32> = (0..96).collect();
        for parallel in [true, false] {
            let mut vec = cfg(parallel);
            vec.trace = true;
            vec.sanitize = SanitizerConfig::all();
            vec.exec = ExecMode::Vectorized;
            let mut sched = vec;
            sched.exec = ExecMode::Scheduled;
            let a = launch_warps(vec, &jobs, stateful_body);
            let b = launch_warps(sched, &jobs, stateful_body);
            assert_eq!(a.results, b.results, "parallel={parallel}");
            assert_eq!(a.counters, b.counters, "parallel={parallel}");
            assert_eq!(a.traces, b.traces, "parallel={parallel}");
            assert_eq!(a.san, b.san, "parallel={parallel}");
            assert!(a.timelines.is_empty(), "no timelines outside Scheduled mode");
            assert_eq!(b.timelines.len(), 96, "one timeline per warp");
            for (i, t) in b.timelines.iter().enumerate() {
                assert_eq!(t.warp_id, i as u64, "timelines arrive in job order");
                assert_eq!(t.total_instructions, b.warp_instruction_counts[i]);
            }
        }
    }

    #[test]
    fn timelines_merge_deterministically_parallel_vs_serial() {
        let jobs: Vec<u32> = (0..200).collect();
        let mut par = cfg(true);
        par.exec = ExecMode::Scheduled;
        let mut ser = par;
        ser.parallel = false;
        let a = launch_warps(par, &jobs, stateful_body);
        let b = launch_warps(ser, &jobs, stateful_body);
        assert_eq!(a.timelines, b.timelines, "rayon scheduling must not leak into timelines");
    }

    #[test]
    fn recorder_state_does_not_leak_through_the_pool() {
        let jobs: Vec<u32> = (0..6).collect();
        let mut sched = cfg(false);
        sched.exec = ExecMode::Scheduled;
        let recorded = launch_warps(sched, &jobs, stateful_body);
        assert_eq!(recorded.timelines.len(), 6);
        // The same pooled warps, re-acquired in the default mode, record
        // nothing — and report nothing stale.
        let clean = launch_warps(cfg(false), &jobs, stateful_body);
        assert!(clean.timelines.is_empty());
    }

    #[test]
    fn pool_reuses_warps_across_launches() {
        let jobs: Vec<u32> = (0..32).collect();
        let before = pool_stats();
        let c = cfg(false); // serial: one warp serves all 32 jobs
        let _ = launch_warps(c, &jobs, stateful_body);
        let _ = launch_warps(c, &jobs, stateful_body);
        let after = pool_stats();
        // The pool is process-wide and other tests may run concurrently, so
        // only assert the lower bound attributable to this test: 64 serial
        // acquisitions with at most a handful lost to concurrent stealing.
        assert!(
            after.reused > before.reused,
            "serial pooled launches must reuse (before {before:?}, after {after:?})"
        );
    }

    #[test]
    fn arena_hint_prevents_in_kernel_regrowth() {
        let jobs: Vec<u32> = (0..16).collect();
        let mut c = cfg(false);
        c.arena_hint = 16 << 10;
        let out = launch_warps(c, &jobs, |w, &j| {
            let a = w.mem.alloc_aligned(4096, 32);
            let b = w.mem.alloc(2048);
            w.mem.fill(a, 4096, j as u8);
            w.mem.fill(b, 2048, j as u8);
            let regrowths = w.mem.regrowths();
            assert!(w.mem.capacity() >= (16 << 10));
            regrowths
        });
        assert!(
            out.results.iter().all(|&r| r == 0),
            "a hinted arena must never regrow mid-kernel: {:?}",
            out.results
        );
    }

    /// Kernel that reports the injected fault it observes and whether its
    /// first allocation fails.
    fn fault_probe(w: &mut Warp, _j: &u32) -> (Option<Fault>, bool) {
        (w.injected(), w.mem.try_alloc(64).is_err())
    }

    #[test]
    fn fault_plan_arms_exactly_the_victim_job() {
        let jobs: Vec<u32> = (0..8).collect();
        for parallel in [true, false] {
            let mut c = cfg(parallel);
            c.fault = Some(FaultPlan::table_full(5));
            let out = launch_warps(c, &jobs, fault_probe);
            for (i, &(fault, alloc)) in out.results.iter().enumerate() {
                let want = (i == 5).then_some(Fault::TableFull);
                assert_eq!(fault, want, "job {i}, parallel={parallel}");
                assert!(!alloc, "job {i} must see no allocation fault");
            }
        }
    }

    #[test]
    fn fault_base_offsets_the_victim_index() {
        let jobs: Vec<u32> = (0..4).collect();
        let mut c = cfg(false);
        c.fault = Some(FaultPlan::alloc_failure(10, 1));
        c.fault_base = 8; // local job 2 is run-global job 10
        let out = launch_warps(c, &jobs, fault_probe);
        let failed: Vec<usize> =
            out.results.iter().enumerate().filter(|(_, r)| r.1).map(|(i, _)| i).collect();
        assert_eq!(failed, vec![2]);
    }

    #[test]
    fn armed_faults_do_not_poison_the_pool() {
        let jobs: Vec<u32> = (0..6).collect();
        let mut faulted = cfg(false);
        faulted.fault = Some(FaultPlan::watchdog(3));
        let _ = launch_warps(faulted, &jobs, fault_probe);
        // The same pooled warps, re-acquired, must be fault-free.
        let clean = launch_warps(cfg(false), &jobs, fault_probe);
        assert!(clean.results.iter().all(|&r| r == (None, false)));
    }

    #[test]
    fn unarmed_plan_is_bit_identical_to_no_plan() {
        let jobs: Vec<u32> = (0..32).collect();
        let mut armed = cfg(true);
        armed.trace = true;
        armed.fault = Some(FaultPlan::table_full(u64::MAX));
        let mut none = armed;
        none.fault = None;
        let a = launch_warps(armed, &jobs, stateful_body);
        let b = launch_warps(none, &jobs, stateful_body);
        assert_eq!(a.results, b.results);
        assert_eq!(a.counters, b.counters);
        assert_eq!(a.traces, b.traces);
    }

    /// Two lanes store to the same word with no ordering collective — the
    /// canonical lane race.
    fn racy_body(w: &mut Warp, _j: &u32) {
        let a = w.mem.alloc(4);
        let addrs = LaneVec::splat(a);
        let vals = LaneVec::from_fn(32, |l| l);
        w.store_u32(crate::Mask(0b11), &addrs, &vals);
    }

    #[test]
    fn sanitized_launch_collects_reports_in_job_order() {
        let jobs: Vec<u32> = (0..8).collect();
        for parallel in [true, false] {
            let mut c = cfg(parallel);
            c.sanitize = SanitizerConfig::all();
            let out = launch_warps(c, &jobs, racy_body);
            assert_eq!(out.san.len(), 8, "one report per warp, parallel={parallel}");
            for r in &out.san {
                assert_eq!(r.count("lane_race"), 1);
                assert!(!r.is_clean());
            }
        }
        let off = launch_warps(cfg(true), &jobs, racy_body);
        assert!(off.san.is_empty(), "no reports without a sanitize config");
    }

    #[test]
    fn sanitizing_is_bit_identical_on_clean_kernels() {
        let jobs: Vec<u32> = (0..64).collect();
        for parallel in [true, false] {
            let mut san = cfg(parallel);
            san.trace = true;
            san.sanitize = SanitizerConfig::all();
            let mut off = san;
            off.sanitize = SanitizerConfig::default();
            let a = launch_warps(san, &jobs, stateful_body);
            let b = launch_warps(off, &jobs, stateful_body);
            assert_eq!(a.results, b.results, "parallel={parallel}");
            assert_eq!(a.counters, b.counters, "observing a warp must not perturb it");
            assert_eq!(a.traces, b.traces, "a clean kernel emits no san events");
            assert_eq!(a.san.len(), 64);
            assert!(a.san.iter().all(SanReport::is_clean));
        }
    }

    #[test]
    fn sanitizer_state_does_not_leak_through_the_pool() {
        let jobs: Vec<u32> = (0..6).collect();
        let mut san = cfg(false);
        san.sanitize = SanitizerConfig::all();
        let dirty = launch_warps(san, &jobs, racy_body);
        assert!(dirty.san.iter().all(|r| !r.is_clean()));
        // The same pooled warps, re-acquired without a config, sanitize
        // nothing — and report nothing stale.
        let clean = launch_warps(cfg(false), &jobs, racy_body);
        assert!(clean.san.is_empty());
    }
}
