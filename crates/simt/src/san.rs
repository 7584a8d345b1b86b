//! Warp sanitizer: opt-in correctness checking for lockstep kernels.
//!
//! The paper's kernel is warp-cooperative hash-table insertion expressed in
//! three dialects (`__match_any_sync` + `__syncwarp(mask)`, done-flag +
//! `__all`, sub-group barrier) — exactly the class of code where lane-level
//! races, divergent barriers and undefined shuffle sources corrupt results
//! silently. This module is the correctness analogue of [`crate::trace`]:
//! a shadow observer woven into [`crate::Warp`] that models **zero**
//! warp instructions and, when disabled (the default), leaves every counter,
//! extension and trace bit-identical to an un-sanitized run.
//!
//! Four check families, individually selectable via [`SanitizerConfig`]:
//!
//! * **Races** — a per-byte shadow map records which lane last wrote and
//!   which lanes have read each byte *since the last ordering point*. Two
//!   lanes touching the same byte with at least one write, without an
//!   intervening collective/barrier, is a [`SanKind::LaneRace`]. Atomics
//!   are exempt (the simulator serializes them, as hardware does).
//! * **Sync** — barriers whose mask names lanes that executed nothing since
//!   the previous barrier ([`SanKind::DivergentBarrier`]), collective masks
//!   with bits beyond the warp width ([`SanKind::MaskExceedsWidth`]), and
//!   shuffles reading an out-of-range or inactive source lane
//!   ([`SanKind::ShuffleSourceOutOfRange`], [`SanKind::ShuffleInactiveSource`]).
//! * **Lint** — advisory access-pattern diagnostics: global loads/stores
//!   whose sector count degenerates to one transaction per lane
//!   ([`SanKind::Uncoalesced`], reusing `memhier::coalesce` sector math),
//!   and probe chains that wrapped past `slots` rounds
//!   ([`SanKind::ProbeWrap`], recorded by the insert dialects at their
//!   wrap-guard fault sites).
//! * **Invariants** — post-construct hash-table checks run host-side:
//!   duplicate keys after insertion ([`SanKind::DuplicateKey`]) and
//!   occupancy beyond capacity ([`SanKind::TableOverflow`]).
//!
//! ## Ordering model
//!
//! Race detection needs a definition of "ordered". Epochs provide it: each
//! shadow byte is stamped with the epoch of its last accesses, and accesses
//! in *different* epochs never race. With `lockstep: false` (CUDA's
//! independent-thread-scheduling posture) the epoch advances at every
//! collective and barrier — lanes are unordered between sync points, as on
//! Volta+. With `lockstep: true` (HIP wavefronts, SYCL sub-groups, where
//! the ported kernels deliberately *rely* on implicit lockstep instead of
//! `__syncwarp`) the epoch advances at every memory instruction, so only
//! two lanes colliding on a byte *within one instruction* race.
//! [`crate::grid`]'s launcher picks the mode; the kernel dialect decides.
//!
//! Findings are deduplicated to at most one race per warp instruction and
//! capped per warp (the remainder counted in [`SanReport::suppressed`]),
//! so a systematic bug cannot bloat a report.

use crate::mask::Mask;
use std::collections::HashMap;

/// Hard cap on recorded findings (and, separately, lints) per warp.
/// Everything past the cap only bumps [`SanReport::suppressed`].
const MAX_RECORDED: usize = 64;

/// Uncoalesced-access lint threshold: flag a memory instruction only when
/// at least this many lanes participated *and* it needed one sector
/// transaction per lane (the fully-scattered worst case of §IV's HBM model).
const LINT_MIN_LANES: u32 = 4;

/// Which sanitizer check families are armed. Off by default; construct via
/// [`SanitizerConfig::all`] or by setting individual fields.
///
/// The struct is `Copy` and threaded through `LaunchConfig`/`GpuConfig`
/// exactly like the PR 4 fault plan: a disabled config costs one
/// `Option::is_none` branch per instrumented call site and changes no
/// modeled state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SanitizerConfig {
    /// Lane-level data-race detection (per-byte shadow memory).
    pub races: bool,
    /// Barrier-divergence and collective/shuffle mask checks.
    pub sync: bool,
    /// Advisory access-pattern lints (uncoalesced access, probe wrap).
    pub lint: bool,
    /// Post-construct hash-table invariant checks (duplicates, overflow).
    pub invariants: bool,
    /// Treat the warp as executing in strict lockstep: the race epoch
    /// advances at every memory instruction, so only intra-instruction
    /// lane collisions are races. Set for HIP wavefronts and SYCL
    /// sub-groups, whose ported kernels rely on implicit lockstep in
    /// place of `__syncwarp`; leave false for CUDA's independent thread
    /// scheduling, where lanes are unordered between collectives.
    pub lockstep: bool,
}

impl SanitizerConfig {
    /// Every check family armed, in independent-thread-scheduling mode
    /// (`lockstep: false`).
    pub fn all() -> SanitizerConfig {
        SanitizerConfig { races: true, sync: true, lint: true, invariants: true, lockstep: false }
    }

    /// Is any check family armed?
    pub fn enabled(&self) -> bool {
        self.races || self.sync || self.lint || self.invariants
    }

    /// Does this config want findings of the given kind recorded?
    pub fn wants(&self, kind: &SanKind) -> bool {
        match kind {
            SanKind::LaneRace { .. } => self.races,
            SanKind::DivergentBarrier { .. }
            | SanKind::MaskExceedsWidth { .. }
            | SanKind::ShuffleSourceOutOfRange { .. }
            | SanKind::ShuffleInactiveSource { .. } => self.sync,
            SanKind::Uncoalesced { .. } | SanKind::ProbeWrap { .. } => self.lint,
            SanKind::DuplicateKey { .. }
            | SanKind::TableOverflow { .. }
            | SanKind::MisplacedKey { .. }
            | SanKind::MigrationMismatch { .. } => self.invariants,
        }
    }
}

/// One class of defect the sanitizer can report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SanKind {
    /// Two lanes touched the same byte with at least one write and no
    /// ordering point (collective/barrier) in between.
    LaneRace {
        /// Byte address both lanes touched.
        addr: u64,
        /// The two conflicting lanes (earlier accessor first).
        lanes: (u32, u32),
        /// True for write-write, false for read-write conflicts.
        write_write: bool,
    },
    /// A masked barrier named lanes that executed no instruction since the
    /// previous barrier — the simulator's proxy for "not all named lanes
    /// can reach this `__syncwarp`".
    DivergentBarrier {
        /// The mask the barrier was called with.
        mask: u64,
        /// Lanes that actually executed something this barrier interval.
        active: u64,
    },
    /// A collective's mask has bits set at or beyond the warp width —
    /// undefined behaviour on hardware, and on pre-guard `simt::Mask` it
    /// silently aliased `lane % 64`.
    MaskExceedsWidth {
        /// Static name of the collective (`"ballot"`, `"shfl"`, …).
        name: &'static str,
        /// The offending mask bits.
        mask: u64,
        /// Warp width the collective ran at.
        width: u32,
    },
    /// A shuffle's source lane index is `>= width`; hardware wraps it to
    /// `src % width`, which the simulator now mirrors — but relying on the
    /// wrap is almost always a bug.
    ShuffleSourceOutOfRange {
        /// Source lane as passed by the kernel.
        src: u32,
        /// Warp width the shuffle ran at.
        width: u32,
    },
    /// A shuffle read from a source lane not in the shuffle's mask: the
    /// value delivered is undefined on hardware.
    ShuffleInactiveSource {
        /// Source lane the shuffle read.
        src: u32,
        /// The shuffle's active mask.
        mask: u64,
    },
    /// Advisory: a global memory instruction degenerated to one sector
    /// transaction per lane (fully scattered access).
    Uncoalesced {
        /// Sector transactions the instruction required.
        sectors: u64,
        /// Lanes that participated.
        lanes: u32,
    },
    /// A linear-probe chain wrapped past `slots` rounds — recorded by the
    /// insert dialects right where they raise `HashTableFull`.
    ProbeWrap {
        /// Probe rounds completed when the wrap guard fired.
        rounds: u32,
        /// Hash-table capacity in slots.
        slots: u32,
    },
    /// Post-construct invariant violation: the same key occupies two slots.
    DuplicateKey {
        /// First slot holding the key.
        slot_a: u32,
        /// Second slot holding the same key.
        slot_b: u32,
    },
    /// Post-construct invariant violation: the table is at (or beyond)
    /// capacity — a full open-addressed table cannot terminate unmatched
    /// probes, so the staging load-factor estimate was violated.
    TableOverflow {
        /// Occupied slots counted host-side.
        occupancy: u32,
        /// Table capacity in slots.
        capacity: u32,
    },
    /// Post-construct invariant violation: a stored key occupies a slot
    /// its own hash's probe sequence can never visit under the job's
    /// table layout — lookups for that key would miss it. Only layouts
    /// with position-restricted probe sequences (bucketed, iceberg) can
    /// violate this; a linear probe reaches every slot.
    MisplacedKey {
        /// Slot holding the unreachable key.
        slot: u32,
    },
    /// Post-construct invariant violation: live occupancy (occupied slots)
    /// disagrees with the job's host-side occupancy counter after
    /// migration — a slot was migrated twice (double counted) or dropped
    /// (lost) by an incremental resize.
    MigrationMismatch {
        /// Live entries the job's host-side counter claims.
        counted: u32,
        /// Live slots a full table scan actually found.
        scanned: u32,
    },
}

impl SanKind {
    /// Short stable identifier of the check that fired (used by trace
    /// events, the Chrome export and test assertions).
    pub fn check(&self) -> &'static str {
        match self {
            SanKind::LaneRace { .. } => "lane_race",
            SanKind::DivergentBarrier { .. } => "divergent_barrier",
            SanKind::MaskExceedsWidth { .. } => "mask_exceeds_width",
            SanKind::ShuffleSourceOutOfRange { .. } => "shfl_src_out_of_range",
            SanKind::ShuffleInactiveSource { .. } => "shfl_inactive_src",
            SanKind::Uncoalesced { .. } => "uncoalesced",
            SanKind::ProbeWrap { .. } => "probe_wrap",
            SanKind::DuplicateKey { .. } => "duplicate_key",
            SanKind::TableOverflow { .. } => "table_overflow",
            SanKind::MisplacedKey { .. } => "misplaced_key",
            SanKind::MigrationMismatch { .. } => "migration_mismatch",
        }
    }
}

/// One sanitizer diagnostic, stamped on the deterministic
/// warp-instruction clock (same time base as [`crate::trace`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SanFinding {
    /// Warp-instruction clock value when the check fired.
    pub at: u64,
    /// What the sanitizer found.
    pub kind: SanKind,
}

/// All diagnostics one warp (or, after merging, one launch) produced.
///
/// `findings` are correctness defects; `lints` are advisory pattern
/// diagnostics (uncoalesced access) that do **not** make a report dirty —
/// the kernel's probe chains are legitimately scattered, and the tier-1
/// `sanitizer_clean` gate asserts zero *findings*, not zero lints.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SanReport {
    /// Correctness defects, in detection order.
    pub findings: Vec<SanFinding>,
    /// Advisory access-pattern diagnostics, in detection order.
    pub lints: Vec<SanFinding>,
    /// Diagnostics dropped by per-instruction dedup or the per-warp cap.
    pub suppressed: u64,
}

impl SanReport {
    /// True when no correctness defect was found (lints do not count).
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Number of findings + lints whose [`SanKind::check`] matches `check`.
    pub fn count(&self, check: &str) -> usize {
        self.findings
            .iter()
            .chain(self.lints.iter())
            .filter(|f| f.kind.check() == check)
            .count()
    }

    /// Fold another warp's report into this one (launch-level merge; the
    /// launcher merges in job order, so merged reports are deterministic).
    pub fn merge(&mut self, other: SanReport) {
        self.findings.extend(other.findings);
        self.lints.extend(other.lints);
        self.suppressed += other.suppressed;
    }
}

/// Per-byte shadow cell. Epoch-stamped so the map never needs clearing:
/// entries from an earlier epoch are simply stale.
#[derive(Debug, Clone, Copy)]
struct ByteState {
    /// Epoch of the last write (0 = never written).
    w_epoch: u64,
    /// Lane that performed the last write (`u32::MAX` = none).
    w_lane: u32,
    /// Epoch of the last read (0 = never read).
    r_epoch: u64,
    /// Lanes that have read this byte in `r_epoch`.
    r_mask: u64,
}

const NO_LANE: u32 = u32::MAX;

impl Default for ByteState {
    fn default() -> Self {
        ByteState { w_epoch: 0, w_lane: NO_LANE, r_epoch: 0, r_mask: 0 }
    }
}

/// Live sanitizer state attached to a [`crate::Warp`]. Heap-boxed behind an
/// `Option` (like the trace sink) so the disabled path stays one branch.
#[derive(Debug, Default)]
pub(crate) struct SanState {
    cfg: SanitizerConfig,
    /// Current ordering epoch (starts at 1; shadow entries stamped 0 are
    /// "never accessed").
    epoch: u64,
    /// Union of op masks since the last barrier, for divergence checks.
    epoch_active: u64,
    /// Per-byte access shadow.
    shadow: HashMap<u64, ByteState>,
    /// Clock of the last recorded race, for per-instruction dedup.
    last_race_at: Option<u64>,
    findings: Vec<SanFinding>,
    lints: Vec<SanFinding>,
    suppressed: u64,
    /// Check names awaiting trace-event emission (drained by the warp
    /// after each hook, because emitting needs `&mut Warp`).
    pending: Vec<&'static str>,
}

impl SanState {
    pub(crate) fn new(cfg: SanitizerConfig) -> SanState {
        SanState { cfg, epoch: 1, ..Default::default() }
    }

    pub(crate) fn config(&self) -> SanitizerConfig {
        self.cfg
    }

    /// Note that `mask`'s lanes executed an instruction this barrier
    /// interval (feeds the divergence check; cheap enough to be ungated).
    pub(crate) fn note_active(&mut self, mask: Mask) {
        self.epoch_active |= mask.0;
    }

    /// Record a finding or lint, subject to config gating, the per-warp
    /// cap, and trace-event queueing. Returns nothing; callers never
    /// branch on the outcome.
    pub(crate) fn record(&mut self, at: u64, kind: SanKind) {
        if !self.cfg.wants(&kind) {
            return;
        }
        let dst = if matches!(kind, SanKind::Uncoalesced { .. }) {
            &mut self.lints
        } else {
            &mut self.findings
        };
        if dst.len() >= MAX_RECORDED {
            self.suppressed += 1;
            return;
        }
        dst.push(SanFinding { at, kind });
        self.pending.push(kind.check());
    }

    /// Shadow-check one warp memory instruction touching, for each lane in
    /// `mask`, `size` bytes at that lane's address.
    pub(crate) fn mem_op(
        &mut self,
        at: u64,
        mask: Mask,
        lane_addrs: impl Iterator<Item = (u32, u64)>,
        size: u32,
        write: bool,
    ) {
        self.note_active(mask);
        if !self.cfg.races {
            return;
        }
        if self.cfg.lockstep {
            // Strict lockstep: each instruction is its own epoch, so only
            // intra-instruction collisions below can race.
            self.epoch += 1;
        }
        for (lane, addr) in lane_addrs {
            if !mask.contains(lane) {
                continue;
            }
            for byte in addr..addr + size as u64 {
                self.touch_byte(at, byte, lane, write);
            }
        }
    }

    /// Shadow-check a single-lane access (the scalar load/store helpers).
    pub(crate) fn scalar_op(&mut self, at: u64, lane: u32, addr: u64, size: u32, write: bool) {
        self.note_active(Mask::lane(lane));
        if !self.cfg.races {
            return;
        }
        if self.cfg.lockstep {
            self.epoch += 1;
        }
        for byte in addr..addr + size as u64 {
            self.touch_byte(at, byte, lane, write);
        }
    }

    fn touch_byte(&mut self, at: u64, byte: u64, lane: u32, write: bool) {
        let st = self.shadow.entry(byte).or_default();
        let epoch = self.epoch;
        let mut race: Option<SanKind> = None;
        if write {
            if st.w_epoch == epoch && st.w_lane != lane {
                race = Some(SanKind::LaneRace {
                    addr: byte,
                    lanes: (st.w_lane, lane),
                    write_write: true,
                });
            } else if st.r_epoch == epoch && st.r_mask & !(1u64 << lane) != 0 {
                let reader = (st.r_mask & !(1u64 << lane)).trailing_zeros();
                race = Some(SanKind::LaneRace {
                    addr: byte,
                    lanes: (reader, lane),
                    write_write: false,
                });
            }
            st.w_epoch = epoch;
            st.w_lane = lane;
        } else {
            if st.w_epoch == epoch && st.w_lane != lane {
                race = Some(SanKind::LaneRace {
                    addr: byte,
                    lanes: (st.w_lane, lane),
                    write_write: false,
                });
            }
            if st.r_epoch == epoch {
                st.r_mask |= 1u64 << lane;
            } else {
                st.r_epoch = epoch;
                st.r_mask = 1u64 << lane;
            }
        }
        if let Some(kind) = race {
            // At most one race per warp instruction: a warp-wide collision
            // would otherwise report once per lane pair per byte.
            if self.last_race_at == Some(at) {
                self.suppressed += 1;
            } else {
                self.last_race_at = Some(at);
                self.record(at, kind);
            }
        }
    }

    /// Lint hook for one warp memory instruction's coalescing result.
    pub(crate) fn lint_access(&mut self, at: u64, sectors: u64, lanes: u32) {
        if !self.cfg.lint {
            return;
        }
        if lanes >= LINT_MIN_LANES && sectors >= lanes as u64 {
            self.record(at, SanKind::Uncoalesced { sectors, lanes });
        }
    }

    /// Hook for every collective (`ballot`/`match_any`/`all`/`any`/`shfl`):
    /// mask-width check, activity note, and — in ITS mode — an epoch
    /// advance (collectives are ordering points between lanes).
    pub(crate) fn collective(&mut self, at: u64, name: &'static str, mask: Mask, width: u32) {
        self.note_active(mask);
        if self.cfg.sync && mask.0 & !Mask::full(width).0 != 0 {
            self.record(at, SanKind::MaskExceedsWidth { name, mask: mask.0, width });
        }
        if self.cfg.races && !self.cfg.lockstep {
            self.epoch += 1;
        }
    }

    /// Extra shuffle-source checks (`collective` runs too, separately).
    pub(crate) fn shfl_src(&mut self, at: u64, mask: Mask, src: u32, width: u32) {
        if !self.cfg.sync {
            return;
        }
        if src >= width {
            self.record(at, SanKind::ShuffleSourceOutOfRange { src, width });
        } else if !mask.contains(src) {
            self.record(at, SanKind::ShuffleInactiveSource { src, mask: mask.0 });
        }
    }

    /// Hook for barriers. `mask` is `Some` for `syncwarp(mask)` (which gets
    /// the divergence check) and `None` for the unmasked sub-group barrier.
    /// Every barrier closes the activity interval and advances the epoch.
    pub(crate) fn barrier(&mut self, at: u64, mask: Option<Mask>, width: u32) {
        if self.cfg.sync {
            if let Some(m) = mask {
                let silent = m.0 & !self.epoch_active & Mask::full(width).0;
                if silent != 0 {
                    self.record(
                        at,
                        SanKind::DivergentBarrier { mask: m.0, active: self.epoch_active },
                    );
                }
            }
        }
        self.epoch_active = 0;
        if self.cfg.races {
            self.epoch += 1;
        }
    }

    /// Any trace events queued?
    pub(crate) fn has_pending(&self) -> bool {
        !self.pending.is_empty()
    }

    /// Drain queued trace-event check names.
    pub(crate) fn take_pending(&mut self) -> Vec<&'static str> {
        std::mem::take(&mut self.pending)
    }

    /// Seal the state into its report.
    pub(crate) fn into_report(self) -> SanReport {
        SanReport { findings: self.findings, lints: self.lints, suppressed: self.suppressed }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn armed() -> SanState {
        SanState::new(SanitizerConfig::all())
    }

    fn lockstep() -> SanState {
        SanState::new(SanitizerConfig { lockstep: true, ..SanitizerConfig::all() })
    }

    fn pair(s: &mut SanState, at: u64, lanes: [u32; 2], addrs: [u64; 2], write: bool) {
        let mask = Mask(lanes.iter().fold(0u64, |m, &l| m | 1 << l));
        s.mem_op(at, mask, lanes.iter().copied().zip(addrs.iter().copied()), 4, write);
    }

    #[test]
    fn config_defaults_off() {
        let cfg = SanitizerConfig::default();
        assert!(!cfg.enabled());
        assert!(SanitizerConfig::all().enabled());
        assert!(SanitizerConfig { lint: true, ..Default::default() }.enabled());
    }

    #[test]
    fn write_write_race_same_epoch() {
        let mut s = armed();
        pair(&mut s, 1, [0, 3], [100, 100], true);
        let r = s.into_report();
        assert_eq!(r.count("lane_race"), 1);
        match r.findings[0].kind {
            SanKind::LaneRace { addr, lanes, write_write } => {
                assert_eq!(addr, 100);
                assert_eq!(lanes, (0, 3));
                assert!(write_write);
            }
            k => panic!("wrong kind {k:?}"),
        }
    }

    #[test]
    fn read_write_race_same_epoch() {
        let mut s = armed();
        // Lane 1 reads at clock 1, lane 2 writes the same word at clock 2.
        pair(&mut s, 1, [1, 5], [100, 200], false);
        pair(&mut s, 2, [2, 6], [100, 300], true);
        let r = s.into_report();
        assert_eq!(r.count("lane_race"), 1);
        match r.findings[0].kind {
            SanKind::LaneRace { lanes, write_write, .. } => {
                assert_eq!(lanes, (1, 2));
                assert!(!write_write);
            }
            k => panic!("wrong kind {k:?}"),
        }
    }

    #[test]
    fn write_then_read_other_lane_races() {
        let mut s = armed();
        pair(&mut s, 1, [0, 4], [64, 128], true);
        pair(&mut s, 2, [3, 7], [64, 256], false);
        assert_eq!(s.into_report().count("lane_race"), 1);
    }

    #[test]
    fn same_lane_never_races_with_itself() {
        let mut s = armed();
        pair(&mut s, 1, [2, 5], [100, 200], true);
        pair(&mut s, 2, [2, 5], [100, 200], false);
        pair(&mut s, 3, [2, 5], [100, 200], true);
        assert!(s.into_report().is_clean());
    }

    #[test]
    fn collective_orders_conflicting_accesses() {
        let mut s = armed();
        pair(&mut s, 1, [0, 1], [100, 200], true);
        s.collective(2, "ballot", Mask(0b11), 32);
        // Same bytes, different lanes — but a collective intervened.
        pair(&mut s, 3, [1, 0], [100, 200], true);
        assert!(s.into_report().is_clean());
    }

    #[test]
    fn barrier_orders_conflicting_accesses() {
        let mut s = armed();
        pair(&mut s, 1, [0, 1], [100, 200], true);
        s.barrier(2, Some(Mask(0b11)), 32);
        pair(&mut s, 3, [1, 0], [100, 200], true);
        assert!(s.into_report().is_clean());
    }

    #[test]
    fn lockstep_suppresses_cross_instruction_races() {
        let mut s = lockstep();
        // Publish/compare with no collective in between: racy under ITS,
        // fine under strict lockstep (the HIP wavefront posture).
        pair(&mut s, 1, [0, 1], [100, 200], true);
        pair(&mut s, 2, [1, 0], [100, 200], false);
        assert!(s.into_report().is_clean());
    }

    #[test]
    fn lockstep_still_catches_intra_instruction_races() {
        let mut s = lockstep();
        pair(&mut s, 1, [0, 3], [100, 100], true);
        assert_eq!(s.into_report().count("lane_race"), 1);
    }

    #[test]
    fn races_deduplicate_per_instruction() {
        let mut s = armed();
        // All four lanes write the same word: one finding, rest suppressed.
        let mask = Mask(0b1111);
        s.mem_op(1, mask, (0..4).map(|l| (l, 100)), 4, true);
        let r = s.into_report();
        assert_eq!(r.count("lane_race"), 1);
        assert!(r.suppressed > 0);
    }

    #[test]
    fn finding_cap_counts_suppressed() {
        let mut s = armed();
        for i in 0..(MAX_RECORDED as u64 + 10) {
            // A fresh address each instruction: exactly one new race per
            // call (plus per-byte dedup suppression within the word).
            pair(&mut s, i + 1, [0, 1], [1000 + 8 * i, 1000 + 8 * i], true);
        }
        let r = s.into_report();
        assert_eq!(r.findings.len(), MAX_RECORDED, "cap bounds recorded findings");
        assert!(r.suppressed >= 10, "capped findings are counted, got {}", r.suppressed);
    }

    #[test]
    fn divergent_barrier_flags_silent_lanes() {
        let mut s = armed();
        // Only lanes 0-1 execute, but the barrier names lanes 0-3.
        pair(&mut s, 1, [0, 1], [100, 200], true);
        s.barrier(2, Some(Mask(0b1111)), 32);
        let r = s.into_report();
        assert_eq!(r.count("divergent_barrier"), 1);
        match r.findings[0].kind {
            SanKind::DivergentBarrier { mask, active } => {
                assert_eq!(mask, 0b1111);
                assert_eq!(active, 0b0011);
            }
            k => panic!("wrong kind {k:?}"),
        }
    }

    #[test]
    fn converged_barrier_is_clean() {
        let mut s = armed();
        pair(&mut s, 1, [0, 1], [100, 200], true);
        s.barrier(2, Some(Mask(0b11)), 32);
        // Activity resets per interval: next round's ops re-arm it.
        pair(&mut s, 3, [0, 1], [300, 400], true);
        s.barrier(4, Some(Mask(0b11)), 32);
        assert!(s.into_report().is_clean());
    }

    #[test]
    fn unmasked_barrier_never_flags_divergence() {
        let mut s = armed();
        s.barrier(1, None, 16);
        assert!(s.into_report().is_clean());
    }

    #[test]
    fn collective_mask_beyond_width_flags() {
        let mut s = armed();
        s.collective(1, "ballot", Mask(1 << 40), 32);
        let r = s.into_report();
        assert_eq!(r.count("mask_exceeds_width"), 1);
        match r.findings[0].kind {
            SanKind::MaskExceedsWidth { name, width, .. } => {
                assert_eq!(name, "ballot");
                assert_eq!(width, 32);
            }
            k => panic!("wrong kind {k:?}"),
        }
    }

    #[test]
    fn shfl_source_checks() {
        let mut s = armed();
        s.shfl_src(1, Mask(0b11), 40, 32); // out of range
        s.shfl_src(2, Mask(0b11), 5, 32); // in range but inactive
        s.shfl_src(3, Mask(0b11), 1, 32); // fine
        let r = s.into_report();
        assert_eq!(r.count("shfl_src_out_of_range"), 1);
        assert_eq!(r.count("shfl_inactive_src"), 1);
        assert_eq!(r.findings.len(), 2);
    }

    #[test]
    fn uncoalesced_is_a_lint_not_a_finding() {
        let mut s = armed();
        s.lint_access(1, 32, 32); // fully scattered: one sector per lane
        s.lint_access(2, 1, 32); // perfectly coalesced
        s.lint_access(3, 2, 2); // too few lanes to matter
        let r = s.into_report();
        assert!(r.is_clean(), "lints must not dirty the report");
        assert_eq!(r.count("uncoalesced"), 1);
        assert_eq!(r.lints.len(), 1);
    }

    #[test]
    fn record_is_config_gated() {
        let mut s = SanState::new(SanitizerConfig { races: true, ..Default::default() });
        s.record(1, SanKind::ProbeWrap { rounds: 9, slots: 8 });
        s.record(2, SanKind::DuplicateKey { slot_a: 0, slot_b: 3 });
        assert!(s.into_report().is_clean());
        let mut s = SanState::new(SanitizerConfig { invariants: true, ..Default::default() });
        s.record(1, SanKind::TableOverflow { occupancy: 9, capacity: 8 });
        assert_eq!(s.into_report().count("table_overflow"), 1);
    }

    #[test]
    fn pending_trace_names_drain() {
        let mut s = armed();
        pair(&mut s, 1, [0, 1], [100, 100], true);
        assert!(s.has_pending());
        assert_eq!(s.take_pending(), vec!["lane_race"]);
        assert!(!s.has_pending());
    }

    #[test]
    fn report_merge_accumulates() {
        let mut a = SanReport::default();
        let mut s = armed();
        pair(&mut s, 1, [0, 1], [100, 100], true);
        s.lint_access(2, 8, 8);
        let r = s.into_report();
        let sup = r.suppressed;
        a.merge(r);
        a.merge(SanReport { suppressed: 3, ..Default::default() });
        assert_eq!(a.findings.len(), 1);
        assert_eq!(a.lints.len(), 1);
        assert_eq!(a.suppressed, sup + 3);
        assert!(!a.is_clean());
    }
}
