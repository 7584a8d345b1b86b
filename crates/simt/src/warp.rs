//! The warp execution context.
//!
//! A [`Warp`] bundles the simulated device memory arena, the per-warp view
//! of the memory hierarchy, and instruction counters. Kernel code calls its
//! methods the way CUDA code executes instructions:
//!
//! * [`Warp::iop`] — integer arithmetic (hashing, comparisons, index math),
//! * [`Warp::load_u32`] / [`Warp::store_u32`] / byte variants — global
//!   memory accesses, coalesced across the active mask,
//! * [`Warp::atomic_cas_u32`] / [`Warp::atomic_add_u32`] — global atomics
//!   with address-conflict serialization,
//! * collectives in [`crate::collectives`].

use crate::counters::WarpCounters;
use crate::fault::InjectedFaults;
use crate::lanevec::LaneVec;
use crate::mask::Mask;
use crate::mem::GlobalMem;
use crate::san::{SanKind, SanReport, SanState, SanitizerConfig};
use crate::sched::{TimelineRecorder, WarpTimeline};
use crate::trace::{EventKind, TraceSink, WarpTrace};
use memhier::{
    coalesce_sectors_into, AccessKind, Addr, CoalesceResult, HierarchyConfig, MemHierarchy,
};

/// How a [`Warp`] executes its per-lane interpreter loops.
///
/// All modes are **bit-identical** in everything a kernel can observe:
/// results, counters, traces and sanitizer reports. They differ only in
/// host-side simulation cost and in what is *additionally* observed.
/// `Scalar` keeps the reference implementation (every scalar helper expands
/// to a whole-warp [`LaneVec`] operation with a one-lane mask) as a
/// measurable baseline; `Vectorized` — the default — routes single-lane
/// accesses through a direct fast path and resolves each warp-wide access
/// in one batched pass over the coalesced sector set. `Scheduled` executes
/// exactly like `Vectorized` but additionally records a per-warp
/// [`crate::sched::WarpTimeline`] (memory instructions annotated with the
/// hierarchy level they resolved at) for the post-launch event-driven
/// scheduler replay (see [`crate::sched`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Reference per-lane interpretation (the pre-vectorization baseline).
    Scalar,
    /// Batched whole-warp execution (the fast path).
    #[default]
    Vectorized,
    /// Batched execution plus timeline recording for the event-driven
    /// multi-warp scheduler ([`crate::sched`]).
    Scheduled,
}

/// Execution context for a single warp.
#[derive(Debug)]
pub struct Warp {
    width: u32,
    /// Scalar-vs-batched dispatch for the interpreter hot path.
    exec: ExecMode,
    /// The warp's slice of simulated device memory.
    pub mem: GlobalMem,
    hier: MemHierarchy,
    /// Instruction/divergence counters, updated by every issued instruction.
    pub counters: WarpCounters,
    /// Optional trace sink; `None` (the default) costs one branch per
    /// *traced call site*, never per `iop`.
    trace: Option<Box<TraceSink>>,
    /// Scratch buffer for warp-wide coalescing: one memory instruction =
    /// one coalesce pass, so reusing this buffer keeps the access hot path
    /// allocation-free at steady state (its capacity survives pool reuse).
    co_scratch: CoalesceResult,
    /// Armed fault-injection flags (see [`crate::fault`]); cleared by
    /// [`Warp::reset`].
    injected: InjectedFaults,
    /// Optional warp sanitizer; `None` (the default) costs one branch per
    /// instrumented call site and models zero instructions, like `trace`.
    san: Option<Box<SanState>>,
    /// Optional timeline recorder for [`ExecMode::Scheduled`]; like `trace`
    /// and `san`, purely observational — zero modeled instructions.
    recorder: Option<Box<TimelineRecorder>>,
}

impl Warp {
    /// A new warp of `width` lanes in front of the given hierarchy.
    pub fn new(width: u32, hier_cfg: HierarchyConfig) -> Self {
        assert!(
            (1..=crate::MAX_LANES as u32).contains(&width),
            "warp width {width} out of range"
        );
        Warp {
            width,
            exec: ExecMode::default(),
            mem: GlobalMem::new(),
            hier: MemHierarchy::new(hier_cfg),
            counters: WarpCounters::new(width),
            trace: None,
            co_scratch: CoalesceResult::default(),
            injected: InjectedFaults::default(),
            san: None,
            recorder: None,
        }
    }

    /// Rewind this warp for reuse by another job (the pooled launch path in
    /// [`crate::grid`]): counters re-zeroed, the memory arena reset (its
    /// backing buffer kept), caches made cold under `hier_cfg`, any trace
    /// sink detached. The resulting state is observationally identical to
    /// `Warp::new(width, hier_cfg)` — pooled launches must stay
    /// bit-identical to fresh ones.
    pub fn reset(&mut self, width: u32, hier_cfg: HierarchyConfig) {
        assert!(
            (1..=crate::MAX_LANES as u32).contains(&width),
            "warp width {width} out of range"
        );
        self.width = width;
        self.exec = ExecMode::default();
        self.mem.reset();
        self.hier.reconfigure(hier_cfg);
        self.counters = WarpCounters::new(width);
        self.trace = None;
        self.injected = InjectedFaults::default();
        self.san = None;
        self.recorder = None;
    }

    /// Select the interpreter execution mode (see [`ExecMode`]). Modes are
    /// bit-identical in all modeled state; this only trades host-side
    /// simulation speed.
    pub fn set_exec(&mut self, exec: ExecMode) {
        self.exec = exec;
    }

    /// The current interpreter execution mode.
    pub fn exec(&self) -> ExecMode {
        self.exec
    }

    /// Arm the injected hash-table-full fault (see [`crate::fault`]).
    pub fn inject_table_full(&mut self) {
        self.injected.table_full = true;
    }

    /// Arm the injected walk-watchdog fault (see [`crate::fault`]).
    pub fn inject_watchdog(&mut self) {
        self.injected.watchdog = true;
    }

    /// Arm the injected table squeeze: staging divides the hash table's
    /// main region by `divisor` (see [`crate::fault`]).
    pub fn inject_table_squeeze(&mut self, divisor: u32) {
        self.injected.table_squeeze = divisor.max(2);
    }

    /// Arm the injected mid-migration resize abort (see [`crate::fault`]).
    pub fn inject_resize_abort(&mut self) {
        self.injected.resize_abort = true;
    }

    /// Current injected-fault flags. Kernel fault checks read these; they
    /// cost nothing on the fault-free path beyond one branch per check
    /// site (never per instruction).
    pub fn injected_faults(&self) -> InjectedFaults {
        self.injected
    }

    /// Attach a [`TraceSink`], enabling span/event recording for this warp.
    pub fn enable_trace(&mut self, warp_id: u64) {
        self.trace = Some(Box::new(TraceSink::new(warp_id)));
    }

    /// Whether a trace sink is attached. Call sites that must *compute*
    /// an event payload (e.g. count probe rounds into a local) can skip
    /// that work when this is false.
    pub fn tracing(&self) -> bool {
        self.trace.is_some()
    }

    /// Enter a named phase (no-op without a sink or recorder). Phases nest;
    /// every enter must be matched by a [`Warp::phase_exit`] with the same
    /// name.
    pub fn phase_enter(&mut self, name: &'static str) {
        if self.trace.is_some() {
            let now = self.counters.warp_instructions;
            let snap = self.snapshot();
            self.trace.as_mut().unwrap().enter(name, now, snap);
        }
        if let Some(r) = self.recorder.as_deref_mut() {
            r.record_phase_enter(name, self.counters.warp_instructions);
        }
    }

    /// Exit the innermost phase, which must be named `name` (no-op
    /// without a sink or recorder).
    pub fn phase_exit(&mut self, name: &'static str) {
        if self.trace.is_some() {
            let now = self.counters.warp_instructions;
            let snap = self.snapshot();
            self.trace.as_mut().unwrap().exit(name, now, snap);
        }
        if let Some(r) = self.recorder.as_deref_mut() {
            r.record_phase_exit(self.counters.warp_instructions);
        }
    }

    /// Record an instantaneous event (no-op without a sink).
    pub fn trace_event(&mut self, kind: EventKind) {
        let now = self.counters.warp_instructions;
        if let Some(t) = self.trace.as_mut() {
            t.event(kind, now);
        }
    }

    /// Detach and seal the trace, if one was enabled. Call after
    /// [`Warp::finish`]; panics if a phase is still open.
    pub fn take_trace(&mut self) -> Option<WarpTrace> {
        let width = self.width;
        self.trace.take().map(|t| t.finish(width))
    }

    /// Attach a [`TimelineRecorder`], enabling per-instruction timeline
    /// recording for the scheduler replay. The grid launcher attaches one
    /// automatically when launching under [`ExecMode::Scheduled`].
    pub fn enable_recorder(&mut self, warp_id: u64) {
        self.recorder = Some(Box::new(TimelineRecorder::new(warp_id)));
    }

    /// Whether a timeline recorder is attached.
    pub fn recording(&self) -> bool {
        self.recorder.is_some()
    }

    /// Detach and seal the recorded timeline, if a recorder was attached.
    /// The timeline's total instruction count is the warp clock at this
    /// moment, so call after the kernel body completes.
    pub fn take_timeline(&mut self) -> Option<WarpTimeline> {
        let total = self.counters.warp_instructions;
        self.recorder.take().map(|r| r.finish(total))
    }

    /// Attach the warp sanitizer (see [`crate::san`]). A config with no
    /// check family armed attaches nothing, keeping the run's fast path.
    pub fn enable_sanitizer(&mut self, cfg: SanitizerConfig) {
        if cfg.enabled() {
            self.san = Some(Box::new(SanState::new(cfg)));
        }
    }

    /// Whether a sanitizer is attached. Kernel call sites that must
    /// *compute* a check input host-side (e.g. scan the hash table for
    /// invariants) can skip that work when this is false.
    pub fn sanitizing(&self) -> bool {
        self.san.is_some()
    }

    /// The attached sanitizer's config; all-off when none is attached.
    pub fn san_config(&self) -> SanitizerConfig {
        self.san.as_ref().map(|s| s.config()).unwrap_or_default()
    }

    /// Record a kernel-level sanitizer diagnostic (probe wrap, hash-table
    /// invariant violations). No-op without a sanitizer, and gated on the
    /// config wanting the kind — call sites never branch on the config.
    pub fn san_record(&mut self, kind: SanKind) {
        if let Some(s) = self.san.as_deref_mut() {
            s.record(self.counters.warp_instructions, kind);
        }
        self.san_drain_events();
    }

    /// Detach the sanitizer and seal its report, if one was attached.
    pub fn take_san_report(&mut self) -> Option<SanReport> {
        self.san.take().map(|s| s.into_report())
    }

    /// Collective hook: mask-width check + ordering-epoch advance.
    pub(crate) fn san_collective(&mut self, name: &'static str, mask: Mask) {
        if let Some(s) = self.san.as_deref_mut() {
            s.collective(self.counters.warp_instructions, name, mask, self.width);
        }
        self.san_drain_events();
    }

    /// Shuffle-source hook: out-of-range / inactive source lane checks.
    pub(crate) fn san_shfl(&mut self, mask: Mask, src: u32) {
        if let Some(s) = self.san.as_deref_mut() {
            s.shfl_src(self.counters.warp_instructions, mask, src, self.width);
        }
        self.san_drain_events();
    }

    /// Barrier hook: divergence check (`Some(mask)` only) + epoch advance.
    pub(crate) fn san_barrier(&mut self, mask: Option<Mask>) {
        if let Some(s) = self.san.as_deref_mut() {
            s.barrier(self.counters.warp_instructions, mask, self.width);
        }
        self.san_drain_events();
    }

    /// Emit queued sanitizer findings as trace events. Queued names are
    /// drained even without a trace sink so the buffer cannot grow.
    fn san_drain_events(&mut self) {
        if !self.san.as_ref().is_some_and(|s| s.has_pending()) {
            return;
        }
        let pending = match self.san.as_deref_mut() {
            Some(s) => s.take_pending(),
            None => return,
        };
        for check in pending {
            self.trace_event(EventKind::SanFinding { check });
        }
    }

    /// HBM transaction counts before a traced memory access
    /// (`None` when tracing is off — the common, free path).
    #[inline]
    fn hbm_pre(&self) -> Option<(u64, u64)> {
        self.trace.as_ref().map(|_| {
            let s = self.hier.stats();
            (s.hbm_read_transactions, s.hbm_write_transactions)
        })
    }

    /// Emit an [`EventKind::HbmTx`] if the access since `pre` reached HBM.
    #[inline]
    fn hbm_post(&mut self, pre: Option<(u64, u64)>) {
        if let Some((r0, w0)) = pre {
            let s = self.hier.stats();
            let (read, write) = (s.hbm_read_transactions - r0, s.hbm_write_transactions - w0);
            if read + write > 0 {
                self.trace_event(EventKind::HbmTx { read, write });
            }
        }
    }

    /// Warp width (32 CUDA / 64 HIP wavefront / 16 SYCL sub-group).
    pub fn width(&self) -> u32 {
        self.width
    }

    /// The full active mask for this warp.
    pub fn full_mask(&self) -> Mask {
        Mask::full(self.width)
    }

    /// Issue `n` integer warp instructions under `mask`.
    ///
    /// Cost model: every instruction is issued warp-wide (hardware lockstep),
    /// so INTOPs grow by `n × width` regardless of how many lanes are
    /// active; the active count only feeds the utilization statistic.
    #[inline]
    pub fn iop(&mut self, mask: Mask, n: u64) {
        self.counters.warp_instructions += n;
        self.counters.int_instructions += n;
        let active = mask.count();
        self.counters.lane_int_ops += n * active as u64;
        // Divergence profile: bucket by active-lane quartile.
        let q = ((4 * active).div_ceil(self.width).clamp(1, 4) - 1) as usize;
        self.counters.occupancy_quartiles[q] += n;
        if let Some(s) = self.san.as_deref_mut() {
            s.note_active(mask);
        }
    }

    fn mem_access(&mut self, mask: Mask, addrs: &LaneVec<Addr>, size: u32, kind: AccessKind) {
        let pre = self.hbm_pre();
        coalesce_sectors_into(&mut self.co_scratch, addrs.iter_masked(mask).map(|(_, a)| (a, size)));
        let level = match self.exec {
            ExecMode::Scalar => self.hier.access(&self.co_scratch, kind),
            ExecMode::Vectorized | ExecMode::Scheduled => {
                self.hier.access_batched(&self.co_scratch, kind)
            }
        };
        self.counters.warp_instructions += 1;
        if let Some(r) = self.recorder.as_deref_mut() {
            r.record_mem(self.counters.warp_instructions, level);
        }
        self.hbm_post(pre);
        if let Some(s) = self.san.as_deref_mut() {
            let at = self.counters.warp_instructions;
            s.lint_access(at, self.co_scratch.transactions(), self.co_scratch.lane_accesses);
            s.mem_op(at, mask, addrs.iter_masked(mask), size, kind == AccessKind::Write);
            self.san_drain_events();
        }
    }

    /// One single-lane memory access on the vectorized fast path.
    ///
    /// Models exactly what the whole-warp path does with a one-lane mask —
    /// same coalescing, hierarchy traffic, instruction count, trace events
    /// and sanitizer behaviour (for a single lane, `SanState::mem_op` and
    /// `SanState::scalar_op` are equivalent, and the uncoalesced lint can
    /// never fire below `LINT_MIN_LANES`) — without constructing the
    /// `LaneVec`s the scalar reference path pays for per access.
    fn scalar_access(&mut self, lane: u32, addr: Addr, size: u32, kind: AccessKind) {
        debug_assert!((lane as usize) < crate::MAX_LANES, "lane index {lane} out of range");
        let pre = self.hbm_pre();
        coalesce_sectors_into(&mut self.co_scratch, [(addr, size)]);
        let level = match self.exec {
            ExecMode::Scalar => self.hier.access(&self.co_scratch, kind),
            ExecMode::Vectorized | ExecMode::Scheduled => {
                self.hier.access_batched(&self.co_scratch, kind)
            }
        };
        self.counters.warp_instructions += 1;
        if let Some(r) = self.recorder.as_deref_mut() {
            r.record_mem(self.counters.warp_instructions, level);
        }
        self.hbm_post(pre);
        if let Some(s) = self.san.as_deref_mut() {
            let at = self.counters.warp_instructions;
            s.lint_access(at, self.co_scratch.transactions(), self.co_scratch.lane_accesses);
            s.scalar_op(at, lane, addr, size, kind == AccessKind::Write);
            self.san_drain_events();
        }
    }

    /// Warp-wide 32-bit load. Inactive lanes read as 0.
    pub fn load_u32(&mut self, mask: Mask, addrs: &LaneVec<Addr>) -> LaneVec<u32> {
        self.mem_access(mask, addrs, 4, AccessKind::Read);
        let mut out = LaneVec::splat(0u32);
        for (l, a) in addrs.iter_masked(mask) {
            out[l] = self.mem.read_u32(a);
        }
        out
    }

    /// Warp-wide 32-bit load whose value the kernel discards (the access
    /// is issued for its modeled memory traffic; the semantic bytes are
    /// read elsewhere host-side). Models exactly what [`Warp::load_u32`]
    /// models — same instruction count, coalescing, hierarchy traffic,
    /// trace and sanitizer behaviour. The scalar reference path still
    /// materializes the lane values like the original interpreter; the
    /// vectorized path skips the dead value assembly.
    pub fn touch_u32(&mut self, mask: Mask, addrs: &LaneVec<Addr>) {
        if self.exec == ExecMode::Scalar {
            let _ = self.load_u32(mask, addrs);
            return;
        }
        self.mem_access(mask, addrs, 4, AccessKind::Read);
    }

    /// [`Warp::touch_u32`] with a per-lane address function instead of a
    /// materialized [`LaneVec`]. The vectorized path streams `addr_of`
    /// straight into the coalescer — no 8-byte-per-lane vector is built for
    /// an access whose value the kernel discards; the scalar reference path
    /// (and any sanitized run, which wants the full per-lane address view)
    /// materializes the vector and takes the [`Warp::touch_u32`] route,
    /// charging identical modeled state either way.
    pub fn touch_u32_with(&mut self, mask: Mask, addr_of: impl Fn(u32) -> Addr) {
        if self.exec == ExecMode::Scalar || self.san.is_some() {
            let addrs = LaneVec::from_fn(self.width, &addr_of);
            self.touch_u32(mask, &addrs);
            return;
        }
        let pre = self.hbm_pre();
        coalesce_sectors_into(&mut self.co_scratch, mask.lanes().map(|l| (addr_of(l), 4)));
        let level = match self.exec {
            ExecMode::Scalar => self.hier.access(&self.co_scratch, AccessKind::Read),
            ExecMode::Vectorized | ExecMode::Scheduled => {
                self.hier.access_batched(&self.co_scratch, AccessKind::Read)
            }
        };
        self.counters.warp_instructions += 1;
        if let Some(r) = self.recorder.as_deref_mut() {
            r.record_mem(self.counters.warp_instructions, level);
        }
        self.hbm_post(pre);
    }

    /// Warp-wide 32-bit store.
    pub fn store_u32(&mut self, mask: Mask, addrs: &LaneVec<Addr>, vals: &LaneVec<u32>) {
        self.mem_access(mask, addrs, 4, AccessKind::Write);
        for (l, a) in addrs.iter_masked(mask) {
            self.mem.write_u32(a, vals[l]);
        }
    }

    /// Warp-wide byte load. Inactive lanes read as 0.
    pub fn load_u8(&mut self, mask: Mask, addrs: &LaneVec<Addr>) -> LaneVec<u8> {
        self.mem_access(mask, addrs, 1, AccessKind::Read);
        let mut out = LaneVec::splat(0u8);
        for (l, a) in addrs.iter_masked(mask) {
            out[l] = self.mem.read_u8(a);
        }
        out
    }

    /// Warp-wide byte store.
    pub fn store_u8(&mut self, mask: Mask, addrs: &LaneVec<Addr>, vals: &LaneVec<u8>) {
        self.mem_access(mask, addrs, 1, AccessKind::Write);
        for (l, a) in addrs.iter_masked(mask) {
            self.mem.write_u8(a, vals[l]);
        }
    }

    /// Single-lane 32-bit load (a divergent branch where one lane walks).
    pub fn load_u32_scalar(&mut self, lane: u32, addr: Addr) -> u32 {
        if self.exec == ExecMode::Scalar {
            let addrs = {
                let mut a = LaneVec::splat(0u64);
                a[lane] = addr;
                a
            };
            let out = self.load_u32(Mask::lane(lane), &addrs);
            return out[lane];
        }
        self.scalar_access(lane, addr, 4, AccessKind::Read);
        self.mem.read_u32(addr)
    }

    /// Single-lane byte load.
    pub fn load_u8_scalar(&mut self, lane: u32, addr: Addr) -> u8 {
        if self.exec == ExecMode::Scalar {
            let addrs = {
                let mut a = LaneVec::splat(0u64);
                a[lane] = addr;
                a
            };
            let out = self.load_u8(Mask::lane(lane), &addrs);
            return out[lane];
        }
        self.scalar_access(lane, addr, 1, AccessKind::Read);
        self.mem.read_u8(addr)
    }

    /// Single-lane 32-bit store.
    pub fn store_u32_scalar(&mut self, lane: u32, addr: Addr, v: u32) {
        if self.exec == ExecMode::Scalar {
            let addrs = {
                let mut a = LaneVec::splat(0u64);
                a[lane] = addr;
                a
            };
            let mut vals = LaneVec::splat(0u32);
            vals[lane] = v;
            self.store_u32(Mask::lane(lane), &addrs, &vals);
            return;
        }
        self.scalar_access(lane, addr, 4, AccessKind::Write);
        self.mem.write_u32(addr, v);
    }

    /// Single-lane 64-bit load (one instruction, 8-byte access).
    pub fn load_u64_scalar(&mut self, lane: u32, addr: Addr) -> u64 {
        self.scalar_access(lane, addr, 8, AccessKind::Read);
        self.mem.read_u64(addr)
    }

    /// Single-lane 64-bit store (one instruction, 8-byte access).
    pub fn store_u64_scalar(&mut self, lane: u32, addr: Addr, v: u64) {
        self.scalar_access(lane, addr, 8, AccessKind::Write);
        self.mem.write_u64(addr, v);
    }

    /// Single-lane byte store.
    pub fn store_u8_scalar(&mut self, lane: u32, addr: Addr, v: u8) {
        if self.exec == ExecMode::Scalar {
            let addrs = {
                let mut a = LaneVec::splat(0u64);
                a[lane] = addr;
                a
            };
            let mut vals = LaneVec::splat(0u8);
            vals[lane] = v;
            self.store_u8(Mask::lane(lane), &addrs, &vals);
            return;
        }
        self.scalar_access(lane, addr, 1, AccessKind::Write);
        self.mem.write_u8(addr, v);
    }

    /// `atomicCAS` on 32-bit words: for each active lane, if `*addr == cmp`
    /// then `*addr = new`; returns the old value per lane.
    ///
    /// Lanes are processed in ascending order (hardware serializes
    /// conflicting atomics; the order is unspecified there, ascending here
    /// for determinism). Each *unique address beyond the first* costs one
    /// replay instruction, modeling atomic serialization.
    pub fn atomic_cas_u32(
        &mut self,
        mask: Mask,
        addrs: &LaneVec<Addr>,
        cmp: &LaneVec<u32>,
        new: &LaneVec<u32>,
    ) -> LaneVec<u32> {
        self.atomic_traffic(mask, addrs);
        let mut out = LaneVec::splat(0u32);
        for (l, a) in addrs.iter_masked(mask) {
            let old = self.mem.read_u32(a);
            if old == cmp[l] {
                self.mem.write_u32(a, new[l]);
            }
            out[l] = old;
        }
        out
    }

    /// `atomicAdd` on 32-bit words; returns the old value per lane.
    pub fn atomic_add_u32(
        &mut self,
        mask: Mask,
        addrs: &LaneVec<Addr>,
        vals: &LaneVec<u32>,
    ) -> LaneVec<u32> {
        self.atomic_traffic(mask, addrs);
        let mut out = LaneVec::splat(0u32);
        for (l, a) in addrs.iter_masked(mask) {
            let old = self.mem.read_u32(a);
            self.mem.write_u32(a, old.wrapping_add(vals[l]));
            out[l] = old;
        }
        out
    }

    /// `atomicAdd` whose return value the kernel discards (counter bumps,
    /// vote accumulation). Models exactly what [`Warp::atomic_add_u32`]
    /// models — same traffic, serialization replays and memory effects.
    /// The scalar reference path still materializes the old values like
    /// the original interpreter; the vectorized path skips the dead
    /// result assembly.
    pub fn atomic_add_u32_discard(&mut self, mask: Mask, addrs: &LaneVec<Addr>, vals: &LaneVec<u32>) {
        if self.exec == ExecMode::Scalar {
            let _ = self.atomic_add_u32(mask, addrs, vals);
            return;
        }
        self.atomic_traffic(mask, addrs);
        for (l, a) in addrs.iter_masked(mask) {
            let old = self.mem.read_u32(a);
            self.mem.write_u32(a, old.wrapping_add(vals[l]));
        }
    }

    fn atomic_traffic(&mut self, mask: Mask, addrs: &LaneVec<Addr>) {
        let pre = self.hbm_pre();
        coalesce_sectors_into(&mut self.co_scratch, addrs.iter_masked(mask).map(|(_, a)| (a, 4)));
        let unique_sectors = self.co_scratch.transactions();
        let level = self.hier.access_atomic(&self.co_scratch);
        self.counters.atomic_instructions += 1;
        self.counters.warp_instructions += 1;
        if unique_sectors > 1 {
            let replays = unique_sectors - 1;
            self.counters.atomic_replays += replays;
            self.counters.warp_instructions += replays;
        }
        // Record after replay accounting: the atomic (plus its serialization
        // replays) occupies the issue port until the final post-increment
        // clock, then the warp stalls for the returned level's latency.
        if let Some(r) = self.recorder.as_deref_mut() {
            r.record_mem(self.counters.warp_instructions, level);
        }
        self.hbm_post(pre);
        // Atomics are exempt from the race shadow (the machine serializes
        // them), but their lanes still count as active for the divergence
        // check.
        if let Some(s) = self.san.as_deref_mut() {
            s.note_active(mask);
        }
    }

    /// A mid-kernel counter snapshot (memory stats included, without
    /// flushing the caches). Used for per-phase attribution: take one
    /// snapshot at a phase boundary and compute the next phase with
    /// [`WarpCounters::since`]-style arithmetic.
    pub fn snapshot(&self) -> WarpCounters {
        let mut c = self.counters;
        c.mem = *self.hier.stats();
        c
    }

    /// Finish the warp: flush dirty data to HBM and fold memory stats into
    /// the counters. Returns the final counter snapshot.
    pub fn finish(&mut self) -> WarpCounters {
        self.hier.flush();
        self.counters.mem = self.hier.take_stats();
        self.counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memhier::config::SECTOR_BYTES;

    fn warp() -> Warp {
        Warp::new(32, HierarchyConfig::tiny())
    }

    #[test]
    fn iop_counts_warp_level() {
        let mut w = warp();
        let half = Mask(0xffff); // 16 of 32 lanes
        w.iop(half, 10);
        assert_eq!(w.counters.int_instructions, 10);
        assert_eq!(w.counters.intops(), 320, "predication does not reduce INTOPs");
        assert_eq!(w.counters.lane_int_ops, 160);
        assert!((w.counters.lane_utilization() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn coalesced_load_roundtrip() {
        let mut w = warp();
        let base = w.mem.alloc(4 * 32);
        for i in 0..32u32 {
            w.mem.write_u32(base + 4 * i as u64, i * 7);
        }
        let addrs = LaneVec::from_fn(32, |l| base + 4 * l as u64);
        let vals = w.load_u32(w.full_mask(), &addrs);
        assert_eq!(vals[0], 0);
        assert_eq!(vals[31], 31 * 7);
        // 128 consecutive bytes = at most 5 sectors (alignment) → few HBM reads.
        let c = w.finish();
        assert!(c.mem.hbm_read_transactions <= 5);
        assert_eq!(c.mem.mem_instructions, 1);
    }

    #[test]
    fn scattered_load_moves_more_bytes() {
        let run = |stride: u64| {
            let mut w = warp();
            let base = w.mem.alloc(stride * 32 + 4);
            let addrs = LaneVec::from_fn(32, |l| base + stride * l as u64);
            let _ = w.load_u32(w.full_mask(), &addrs);
            w.finish().mem.hbm_bytes()
        };
        let coalesced = run(4);
        let scattered = run(SECTOR_BYTES * 4);
        assert!(scattered >= 4 * coalesced, "{scattered} vs {coalesced}");
    }

    #[test]
    fn store_then_load_sees_value() {
        let mut w = warp();
        let base = w.mem.alloc(128);
        let addrs = LaneVec::from_fn(32, |l| base + 4 * l as u64);
        let vals = LaneVec::from_fn(32, |l| l * 3);
        w.store_u32(w.full_mask(), &addrs, &vals);
        let back = w.load_u32(w.full_mask(), &addrs);
        assert_eq!(back[10], 30);
    }

    #[test]
    fn masked_lanes_do_not_touch_memory() {
        let mut w = warp();
        let base = w.mem.alloc(128);
        let addrs = LaneVec::from_fn(32, |l| base + 4 * l as u64);
        let vals = LaneVec::splat(9u32);
        w.store_u32(Mask::lane(3), &addrs, &vals);
        assert_eq!(w.mem.read_u32(base + 12), 9);
        assert_eq!(w.mem.read_u32(base + 16), 0, "inactive lane wrote nothing");
    }

    #[test]
    fn atomic_cas_semantics() {
        let mut w = warp();
        let a = w.mem.alloc(4);
        // All 32 lanes CAS the same address from 0 to lane-specific values:
        // only lane 0 (processed first) wins.
        let addrs = LaneVec::splat(a);
        let cmp = LaneVec::splat(0u32);
        let new = LaneVec::from_fn(32, |l| l + 100);
        let old = w.atomic_cas_u32(w.full_mask(), &addrs, &cmp, &new);
        assert_eq!(old[0], 0, "lane 0 saw EMPTY and won");
        assert_eq!(old[1], 100, "lane 1 saw lane 0's value");
        assert_eq!(w.mem.read_u32(a), 100);
        assert_eq!(w.counters.atomic_replays, 0, "same sector: no replay");
    }

    #[test]
    fn atomic_conflicting_sectors_replay() {
        let mut w = warp();
        let base = w.mem.alloc(SECTOR_BYTES * 32);
        let addrs = LaneVec::from_fn(32, |l| base + SECTOR_BYTES * l as u64);
        let vals = LaneVec::splat(1u32);
        w.atomic_add_u32(w.full_mask(), &addrs, &vals);
        assert_eq!(w.counters.atomic_instructions, 1);
        assert_eq!(w.counters.atomic_replays, 31);
    }

    #[test]
    fn atomic_add_accumulates() {
        let mut w = warp();
        let a = w.mem.alloc(4);
        let addrs = LaneVec::splat(a);
        let vals = LaneVec::splat(2u32);
        w.atomic_add_u32(w.full_mask(), &addrs, &vals);
        assert_eq!(w.mem.read_u32(a), 64, "32 lanes × 2");
    }

    #[test]
    fn scalar_helpers() {
        let mut w = warp();
        let a = w.mem.alloc(8);
        w.store_u8_scalar(5, a, 0xAB);
        assert_eq!(w.load_u8_scalar(5, a), 0xAB);
        w.mem.write_u32(a + 4, 123);
        assert_eq!(w.load_u32_scalar(0, a + 4), 123);
    }

    #[test]
    #[should_panic(expected = "width")]
    fn zero_width_rejected() {
        Warp::new(0, HierarchyConfig::tiny());
    }

    #[test]
    fn exec_modes_are_bit_identical() {
        // Same instruction stream under Scalar and Vectorized dispatch:
        // results, counters, traces and sanitizer reports must all match.
        let run = |exec: ExecMode| {
            let mut w = warp();
            w.set_exec(exec);
            w.enable_trace(7);
            w.enable_sanitizer(SanitizerConfig::all());
            let base = w.mem.alloc(4 * 32);
            let addrs = LaneVec::from_fn(32, |l| base + 4 * l as u64);
            let vals = LaneVec::from_fn(32, |l| l * 3);
            w.store_u32(w.full_mask(), &addrs, &vals);
            let loaded = w.load_u32(w.full_mask(), &addrs);
            w.store_u32_scalar(0, base, 9);
            let a = w.load_u32_scalar(0, base);
            w.store_u8_scalar(1, base + 40, 5);
            let b = w.load_u8_scalar(1, base + 40);
            w.store_u64_scalar(2, base + 48, 77);
            let c = w.load_u64_scalar(2, base + 48);
            let counters = w.finish();
            (loaded, a, b, c, counters, w.take_trace(), w.take_san_report())
        };
        let scalar = run(ExecMode::Scalar);
        let vectorized = run(ExecMode::Vectorized);
        let scheduled = run(ExecMode::Scheduled);
        assert_eq!(scalar, vectorized);
        assert_eq!(scalar, scheduled);
    }

    #[test]
    fn recorder_captures_mem_events_and_phases() {
        let mut w = warp();
        w.set_exec(ExecMode::Scheduled);
        w.enable_recorder(3);
        assert!(w.recording());
        let base = w.mem.alloc(4 * 32);
        let addrs = LaneVec::from_fn(32, |l| base + 4 * l as u64);
        w.phase_enter("io");
        let _ = w.load_u32(w.full_mask(), &addrs); // cold → HBM
        let _ = w.load_u32(w.full_mask(), &addrs); // warm → L1
        w.phase_exit("io");
        w.iop(w.full_mask(), 5);
        w.finish();
        let t = w.take_timeline().unwrap();
        assert_eq!(t.warp_id, 3);
        assert_eq!(t.total_instructions, w.counters.warp_instructions);
        let mems: Vec<_> = t
            .iter()
            .filter_map(|e| match e {
                crate::sched::TimelineEvent::Mem { at, level } => Some((at, level)),
                _ => None,
            })
            .collect();
        assert_eq!(mems.len(), 2);
        assert_eq!(mems[0], (1, memhier::MemLevel::Hbm), "cold load misses to HBM");
        assert_eq!(mems[1], (2, memhier::MemLevel::L1), "warm load hits in L1");
        assert!(w.take_timeline().is_none(), "recorder detaches on take");
    }

    #[test]
    fn reset_detaches_the_recorder() {
        let mut w = warp();
        w.enable_recorder(0);
        w.reset(32, HierarchyConfig::tiny());
        assert!(!w.recording());
        assert!(w.take_timeline().is_none());
    }

    #[test]
    fn finish_flushes_writes() {
        let mut w = warp();
        let a = w.mem.alloc(4);
        let addrs = LaneVec::splat(a);
        let vals = LaneVec::splat(7u32);
        w.store_u32(Mask::lane(0), &addrs, &vals);
        let c = w.finish();
        assert!(c.mem.hbm_write_transactions >= 1);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// atomic_add over arbitrary lane subsets accumulates exactly the
        /// sum of active lanes' values.
        #[test]
        fn atomic_add_sums(mask_bits in 0u64..(1u64 << 32), vals in proptest::collection::vec(0u32..1000, 32)) {
            let mut w = Warp::new(32, HierarchyConfig::tiny());
            let a = w.mem.alloc(4);
            let addrs = LaneVec::splat(a);
            let v = LaneVec::from_fn(32, |l| vals[l as usize]);
            let mask = Mask(mask_bits & 0xffff_ffff);
            w.atomic_add_u32(mask, &addrs, &v);
            let expect: u32 = mask.lanes().map(|l| vals[l as usize]).sum();
            prop_assert_eq!(w.mem.read_u32(a), expect);
        }

        /// Exactly one lane wins a contended CAS from EMPTY, and it is the
        /// lowest active lane (deterministic serialization order).
        #[test]
        fn cas_single_winner(mask_bits in 1u64..(1u64 << 32)) {
            let mut w = Warp::new(32, HierarchyConfig::tiny());
            let a = w.mem.alloc(4);
            let addrs = LaneVec::splat(a);
            let cmp = LaneVec::splat(0u32);
            let new = LaneVec::from_fn(32, |l| l + 1);
            let mask = Mask(mask_bits & 0xffff_ffff);
            let old = w.atomic_cas_u32(mask, &addrs, &cmp, &new);
            let winner = mask.first().unwrap();
            prop_assert_eq!(old[winner], 0);
            prop_assert_eq!(w.mem.read_u32(a), winner + 1);
            for l in mask.lanes().skip(1) {
                prop_assert_eq!(old[l], winner + 1, "losers observe the winner's value");
            }
        }

        /// Loads return exactly what memory holds, for any mask.
        #[test]
        fn load_faithful(mask_bits in 0u64..(1u64 << 32), seed in any::<u32>()) {
            let mut w = Warp::new(32, HierarchyConfig::tiny());
            let base = w.mem.alloc(4 * 32);
            for i in 0..32u32 {
                w.mem.write_u32(base + 4 * i as u64, seed.wrapping_mul(i + 1));
            }
            let addrs = LaneVec::from_fn(32, |l| base + 4 * l as u64);
            let mask = Mask(mask_bits & 0xffff_ffff);
            let got = w.load_u32(mask, &addrs);
            for l in mask.lanes() {
                prop_assert_eq!(got[l], seed.wrapping_mul(l + 1));
            }
        }
    }
}

#[cfg(test)]
mod trace_tests {
    use super::*;
    use crate::trace::EventKind;

    #[test]
    fn untraced_warp_yields_no_trace() {
        let mut w = Warp::new(32, HierarchyConfig::tiny());
        w.phase_enter("a");
        w.iop(w.full_mask(), 3);
        w.phase_exit("a");
        w.finish();
        assert!(!w.tracing());
        assert!(w.take_trace().is_none(), "phase markers are free no-ops when disabled");
    }

    #[test]
    fn spans_attribute_per_phase_counters() {
        let mut w = Warp::new(32, HierarchyConfig::tiny());
        w.enable_trace(42);
        assert!(w.tracing());
        w.phase_enter("construct");
        w.iop(w.full_mask(), 10);
        w.phase_exit("construct");
        w.phase_enter("walk");
        w.iop(Mask::lane(0), 7);
        w.phase_exit("walk");
        w.finish();
        let t = w.take_trace().unwrap();
        assert_eq!(t.warp_id, 42);
        assert_eq!(t.width, 32);
        assert_eq!(t.phase_names(), vec!["construct", "walk"]);
        assert_eq!(t.spans[0].delta.int_instructions, 10);
        assert_eq!(t.spans[1].delta.int_instructions, 7);
        // The walk phase ran single-lane: all its work in the first quartile.
        assert_eq!(t.spans[1].delta.occupancy_quartiles, [7, 0, 0, 0]);
    }

    #[test]
    fn memory_misses_emit_hbm_events() {
        let mut w = Warp::new(32, HierarchyConfig::tiny());
        w.enable_trace(0);
        let base = w.mem.alloc(4 * 32);
        let addrs = LaneVec::from_fn(32, |l| base + 4 * l as u64);
        let _ = w.load_u32(w.full_mask(), &addrs); // cold: misses to HBM
        let _ = w.load_u32(w.full_mask(), &addrs); // warm: cache hit
        w.finish();
        let t = w.take_trace().unwrap();
        let hbm: Vec<_> = t
            .events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::HbmTx { read, write } => Some((read, write)),
                _ => None,
            })
            .collect();
        assert_eq!(hbm.len(), 1, "only the cold access reaches HBM");
        assert!(hbm[0].0 >= 1, "cold load reads at least one sector");
    }

    #[test]
    fn trace_spans_cover_phase_memory_traffic() {
        let mut w = Warp::new(32, HierarchyConfig::tiny());
        w.enable_trace(0);
        let base = w.mem.alloc(4 * 32);
        let addrs = LaneVec::from_fn(32, |l| base + 4 * l as u64);
        w.phase_enter("io");
        let _ = w.load_u32(w.full_mask(), &addrs);
        w.phase_exit("io");
        w.finish();
        let t = w.take_trace().unwrap();
        let io = &t.spans[0];
        assert_eq!(io.delta.mem.mem_instructions, 1);
        assert!(io.delta.mem.hbm_read_transactions >= 1);
    }
}

#[cfg(test)]
mod divergence_tests {
    use super::*;

    #[test]
    fn iop_buckets_by_active_fraction() {
        let mut w = Warp::new(32, HierarchyConfig::tiny());
        w.iop(Mask::full(32), 10); // 100% → Q4
        w.iop(Mask(0xffff), 5); // 50% → Q2
        w.iop(Mask::lane(0), 3); // 1/32 → Q1
        w.iop(Mask(0xffffff), 2); // 75% → Q3
        assert_eq!(w.counters.occupancy_quartiles, [3, 5, 2, 10]);
    }

    #[test]
    fn single_lane_walk_is_all_first_quartile() {
        // Divergence signature of the mer-walk: one lane of 32 active.
        let mut w = Warp::new(32, HierarchyConfig::tiny());
        w.iop(Mask::lane(5), 100);
        let p = w.counters.divergence_profile();
        assert_eq!(p, [1.0, 0.0, 0.0, 0.0]);
    }
}
