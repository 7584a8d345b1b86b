//! Event-driven multi-warp scheduler — the timing half of
//! [`crate::ExecMode::Scheduled`].
//!
//! The counter model runs each warp to completion independently; real GPUs
//! hide memory latency by keeping many warps resident per SM and switching
//! to a ready warp whenever the current one blocks on an outstanding load.
//! This module replays recorded per-warp [`WarpTimeline`]s through an event
//! [`TimeQueue`] per SM, modeling:
//!
//! * **issue** — every warp instruction occupies the SM's issue port for a
//!   fixed number of ticks (the device's calibrated sustained issue rate),
//! * **memory latency** — each memory instruction carries the
//!   [`memhier::MemLevel`] it resolved at; the issuing warp
//!   blocks for that level's latency while the port stays free for the
//!   other resident warps (this is the latency *hiding*),
//! * **limited residency** — at most `residency` warps are resident per SM
//!   at once (occupancy from `layout::stage_footprint` vs. SM resources,
//!   computed by `gpu_specs::occupancy::scheduled_residency`); further
//!   warps wait for a resident warp to retire.
//!
//! The replay is **observational**: timelines are recorded during a
//! functionally Vectorized run (bit-identical results/counters/traces) and
//! scheduled afterwards, so the timing model can never perturb modeled
//! state — the same discipline the tracing and sanitizer layers follow.
//! Everything is deterministic: ties in the time queue break on a monotone
//! sequence number, and warps are admitted in job order.
//!
//! Ticks are **picoseconds** (1 tick = 1 ps). At the devices' calibrated
//! issue rates one warp instruction costs tens of thousands of ticks and
//! HBM latency costs hundreds of thousands, so `u64` tick arithmetic has
//! headroom for runs billions of instructions long.

use memhier::MemLevel;

/// One recorded occurrence on a warp's deterministic instruction clock —
/// the decoded view of a [`WarpTimeline`] word (see
/// [`WarpTimeline::iter`]).
///
/// `at` is the warp's cumulative `warp_instructions` count *after* the
/// instruction that produced the event — the same clock the tracing layer
/// stamps, so timelines and traces line up exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimelineEvent {
    /// A memory instruction issued at clock `at` and resolved at `level`.
    Mem {
        /// Warp-instruction clock after the instruction issued.
        at: u64,
        /// Deepest hierarchy level the access reached (its latency class).
        level: MemLevel,
    },
    /// A named phase was entered at clock `at` (instructions from here on
    /// are attributed to `name` until the matching exit).
    PhaseEnter {
        /// Static phase name (`"construct"`, `"walk"`, …).
        name: &'static str,
        /// Warp-instruction clock at entry.
        at: u64,
    },
    /// The innermost open phase exited at clock `at`.
    PhaseExit {
        /// Warp-instruction clock at exit.
        at: u64,
    },
}

// Packed timeline words. Each event is one byte: the low `TAG_BITS`
// say what happened, the high `DELTA_BITS` hold the instruction-clock
// delta since the previous event. A delta wider than the field is split
// into `TAG_CONT` words carrying its higher 5-bit chunks, most
// significant first; the event word itself carries the lowest chunk.
// The memory tags are the replay's latency-table indices.
const TAG_BITS: u32 = 3;
const TAG_MASK: u8 = (1 << TAG_BITS) - 1;
const DELTA_BITS: u32 = 8 - TAG_BITS;
const DELTA_MASK: u64 = (1 << DELTA_BITS) - 1;
const TAG_L1: u8 = 0;
const TAG_L2: u8 = 1;
const TAG_HBM: u8 = 2;
const TAG_ENTER: u8 = 3;
const TAG_EXIT: u8 = 4;
const TAG_CONT: u8 = 5;

/// The recorded execution of one warp: every memory instruction with its
/// resolved hierarchy level, phase boundaries, and the final instruction
/// count. Compute segments are implicit — the clock gaps between events.
///
/// Events are stored packed, one byte each: a 3-bit tag (memory access at
/// L1/L2/HBM, phase enter, phase exit, or continuation) under a 5-bit
/// clock delta. A gap of 32 or more instructions spends one continuation
/// byte per further 5-bit chunk. Phase-enter names live in a side list,
/// in entry order. Decode with [`WarpTimeline::iter`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WarpTimeline {
    /// Launch-order warp id (job index within the launch).
    pub warp_id: u64,
    /// Total warp instructions the warp issued.
    pub total_instructions: u64,
    /// Packed event bytes in clock order. `len()` is the number of
    /// recorded events, plus one continuation byte per 5-bit chunk above
    /// the lowest of any gap of 32 or more instructions.
    pub events: Vec<u8>,
    /// Names of the phase-enter events, in order.
    phase_names: Vec<&'static str>,
}

impl WarpTimeline {
    /// Decode the recorded events, in clock order.
    pub fn iter(&self) -> TimelineIter<'_> {
        TimelineIter { words: self.events.iter(), names: self.phase_names.iter(), clock: 0 }
    }
}

/// Decoding iterator over a [`WarpTimeline`]'s packed words (see
/// [`WarpTimeline::iter`]).
#[derive(Debug, Clone)]
pub struct TimelineIter<'a> {
    words: std::slice::Iter<'a, u8>,
    names: std::slice::Iter<'a, &'static str>,
    /// Clock of the last decoded event.
    clock: u64,
}

impl TimelineIter<'_> {
    /// Decode the next event as its clock and tag, folding in the
    /// continuation words of a wide gap.
    fn next_word(&mut self) -> Option<(u64, u8)> {
        let mut delta = 0u64;
        loop {
            let word = *self.words.next()?;
            delta = (delta << DELTA_BITS) | (word >> TAG_BITS) as u64;
            let tag = word & TAG_MASK;
            if tag != TAG_CONT {
                self.clock += delta;
                return Some((self.clock, tag));
            }
        }
    }

    /// Name of the next phase-enter event.
    fn next_name(&mut self) -> &'static str {
        self.names.next().copied().unwrap_or(OUTSIDE)
    }
}

impl Iterator for TimelineIter<'_> {
    type Item = TimelineEvent;

    fn next(&mut self) -> Option<TimelineEvent> {
        let (at, tag) = self.next_word()?;
        Some(match tag {
            TAG_L1 => TimelineEvent::Mem { at, level: MemLevel::L1 },
            TAG_L2 => TimelineEvent::Mem { at, level: MemLevel::L2 },
            TAG_HBM => TimelineEvent::Mem { at, level: MemLevel::Hbm },
            TAG_ENTER => TimelineEvent::PhaseEnter { name: self.next_name(), at },
            _ => TimelineEvent::PhaseExit { at },
        })
    }
}

/// Records a [`WarpTimeline`] during execution — attached to a warp the
/// same way a trace sink is (boxed, optional, zero modeled cost).
#[derive(Debug, Default)]
pub struct TimelineRecorder {
    timeline: WarpTimeline,
    /// Clock of the last recorded event (the base of the next delta).
    last_at: u64,
}

impl TimelineRecorder {
    /// Fresh recorder for the warp at `warp_id` (launch job order).
    pub fn new(warp_id: u64) -> Self {
        TimelineRecorder { timeline: WarpTimeline { warp_id, ..Default::default() }, last_at: 0 }
    }

    /// Append one event word (plus continuation words for a wide gap).
    fn push(&mut self, at: u64, tag: u8) {
        debug_assert!(at >= self.last_at, "timeline events must be recorded in clock order");
        let gap = at - self.last_at;
        self.last_at = at;
        let words = &mut self.timeline.events;
        if gap > DELTA_MASK {
            let mut shift = DELTA_BITS;
            while gap >> shift > DELTA_MASK {
                shift += DELTA_BITS;
            }
            while shift > 0 {
                words.push((((gap >> shift) & DELTA_MASK) as u8) << TAG_BITS | TAG_CONT);
                shift -= DELTA_BITS;
            }
        }
        words.push(((gap & DELTA_MASK) as u8) << TAG_BITS | tag);
    }

    /// Record a memory instruction that resolved at `level`, issued at
    /// post-increment clock `at`.
    pub fn record_mem(&mut self, at: u64, level: MemLevel) {
        let tag = match level {
            MemLevel::L1 => TAG_L1,
            MemLevel::L2 => TAG_L2,
            MemLevel::Hbm => TAG_HBM,
        };
        self.push(at, tag);
    }

    /// Record `n` memory instructions that resolved at L1, the first
    /// issued at post-increment clock `first_at` and each later one
    /// `stride` instructions after the one before. Appends exactly the
    /// words `n` calls of [`TimelineRecorder::record_mem`] would.
    pub fn record_l1_run(&mut self, first_at: u64, stride: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.push(first_at, TAG_L1);
        if stride <= DELTA_MASK {
            // Every later gap fits the delta field: one repeated word.
            let word = (stride as u8) << TAG_BITS | TAG_L1;
            let rest = (n - 1) as usize;
            self.timeline.events.extend(std::iter::repeat_n(word, rest));
            self.last_at = first_at + (n - 1) * stride;
        } else {
            for i in 1..n {
                self.push(first_at + i * stride, TAG_L1);
            }
        }
    }

    /// Record a phase entry.
    pub fn record_phase_enter(&mut self, name: &'static str, at: u64) {
        self.push(at, TAG_ENTER);
        self.timeline.phase_names.push(name);
    }

    /// Record a phase exit.
    pub fn record_phase_exit(&mut self, at: u64) {
        self.push(at, TAG_EXIT);
    }

    /// Finish recording: seal the total instruction count and return the
    /// timeline, its words shrunk to exact size (a launch holds every
    /// warp's timeline until the replay, so growth slack would add up).
    /// The phase-name list holds a handful of entries and is left as is.
    pub fn finish(mut self, total_instructions: u64) -> WarpTimeline {
        self.timeline.total_instructions = total_instructions;
        self.timeline.events.shrink_to_fit();
        self.timeline
    }
}

/// A deterministic event time-queue: entries pop in time order, and two
/// entries scheduled for the same tick pop in the order they were pushed,
/// so replays are exact.
///
/// Entries are kept in push order and `pop` scans for the first one with
/// the least time. The replay holds one entry per resident warp, at most
/// 8 per SM, where a scan costs less than keeping a heap.
#[derive(Debug)]
pub struct TimeQueue<T> {
    entries: Vec<(u64, T)>,
}

impl<T> Default for TimeQueue<T> {
    fn default() -> Self {
        TimeQueue { entries: Vec::new() }
    }
}

impl<T> TimeQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedule `item` to become ready at `time`.
    pub fn push(&mut self, time: u64, item: T) {
        self.entries.push((time, item));
    }

    /// Pop the earliest entry (FIFO among equal times) as `(time, item)`.
    pub fn pop(&mut self) -> Option<(u64, T)> {
        // `min_by_key` keeps the first of equal keys: the oldest push.
        let (first, _) = self.entries.iter().enumerate().min_by_key(|(_, e)| e.0)?;
        Some(self.entries.remove(first))
    }

    /// Number of scheduled entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Scheduler configuration: the device quantities the replay needs,
/// pre-converted to ticks (build one with
/// `gpu_specs::timing::sched_config`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchedConfig {
    /// Number of SMs (compute units) warps are distributed over.
    pub sms: u32,
    /// Maximum warps resident per SM at once (≥ 1).
    pub residency: u32,
    /// Issue-port occupancy of one warp instruction, in ticks.
    pub issue_ticks: u64,
    /// Load-to-use latency of an L1 hit, in ticks.
    pub l1_ticks: u64,
    /// Load-to-use latency of an L2 hit, in ticks.
    pub l2_ticks: u64,
    /// Load-to-use latency of an HBM access, in ticks.
    pub hbm_ticks: u64,
    /// Record per-warp execution slices ([`SmSlice`]) for timeline export.
    /// Off by default — slices are O(events) extra memory.
    pub record_tracks: bool,
}

impl SchedConfig {
    /// Latency (ticks) for an access that resolved at `level`.
    pub fn latency_ticks(&self, level: MemLevel) -> u64 {
        match level {
            MemLevel::L1 => self.l1_ticks,
            MemLevel::L2 => self.l2_ticks,
            MemLevel::Hbm => self.hbm_ticks,
        }
    }
}

/// Tick accounting for one phase of the scheduled replay.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseSched {
    /// Ticks the phase's instructions occupied issue ports (compute +
    /// memory issue; summed over warps, so overlapping warps both count).
    pub issue_ticks: u64,
    /// Ticks warps of this phase spent blocked on outstanding memory
    /// (summed over warps). This is the *hideable* latency.
    pub stall_ticks: u64,
    /// Ticks an SM's issue port sat idle waiting for a blocked warp of
    /// this phase — the latency that residency could **not** hide. This
    /// is the term that replaces the analytic `t_latency`.
    pub exposed_ticks: u64,
}

impl PhaseSched {
    /// Merge another phase aggregate into this one.
    pub fn merge(&mut self, o: &PhaseSched) {
        self.issue_ticks += o.issue_ticks;
        self.stall_ticks += o.stall_ticks;
        self.exposed_ticks += o.exposed_ticks;
    }
}

/// One contiguous execution slice of a warp on an SM's issue port
/// (collected only under [`SchedConfig::record_tracks`]; feeds the
/// Chrome-trace SM-occupancy lanes in `perfmodel`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SmSlice {
    /// SM the slice ran on.
    pub sm: u32,
    /// Warp id (launch job order).
    pub warp: u64,
    /// Start tick of the port occupancy.
    pub start: u64,
    /// End tick of the port occupancy.
    pub end: u64,
    /// Phase the slice's instructions belong to.
    pub phase: &'static str,
}

/// Result of scheduling a launch's timelines.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SchedResult {
    /// Number of SMs that actually received warps.
    pub sms_used: u32,
    /// Makespan of the replay in ticks (the busiest SM's completion time).
    pub makespan_ticks: u64,
    /// Ticks SM issue ports were busy, summed over used SMs.
    pub busy_ticks: u64,
    /// Ticks warp-residency slots were occupied, summed over warps (a
    /// warp is resident from admission to retirement). Divided by
    /// `residency × sms_used × makespan`, this is achieved occupancy.
    pub resident_ticks: u64,
    /// Residency limit the replay ran with (warps per SM).
    pub residency: u32,
    /// Per-phase tick breakdown, in first-encounter order. Instructions
    /// outside any recorded phase land under `"(outside)"`.
    pub phases: Vec<(&'static str, PhaseSched)>,
    /// Execution slices for timeline export (empty unless
    /// [`SchedConfig::record_tracks`]).
    pub tracks: Vec<SmSlice>,
}

impl SchedResult {
    /// Find a phase aggregate by name.
    pub fn phase(&self, name: &str) -> Option<&PhaseSched> {
        self.phases.iter().find(|(n, _)| *n == name).map(|(_, p)| p)
    }

    /// Total ticks across phases of the given accessor.
    fn phase_sum(&self, f: impl Fn(&PhaseSched) -> u64) -> u64 {
        self.phases.iter().map(|(_, p)| f(p)).sum()
    }

    /// Total issue ticks across all phases.
    pub fn issue_ticks(&self) -> u64 {
        self.phase_sum(|p| p.issue_ticks)
    }

    /// Total memory-stall ticks across all phases.
    pub fn stall_ticks(&self) -> u64 {
        self.phase_sum(|p| p.stall_ticks)
    }

    /// Total exposed (un-hidden) stall ticks across all phases.
    pub fn exposed_ticks(&self) -> u64 {
        self.phase_sum(|p| p.exposed_ticks)
    }

    /// Achieved occupancy: mean fraction of residency slots holding a
    /// live warp over the makespan (0 when nothing ran).
    pub fn occupancy(&self) -> f64 {
        let slots = self.residency as u64 * self.sms_used as u64;
        if slots == 0 || self.makespan_ticks == 0 {
            return 0.0;
        }
        self.resident_ticks as f64 / (slots * self.makespan_ticks) as f64
    }

    /// Fraction of memory-stall ticks hidden by warp interleaving, over
    /// all phases.
    pub fn latency_hidden_fraction(&self) -> f64 {
        let stall = self.stall_ticks();
        if stall == 0 {
            return 1.0;
        }
        1.0 - (self.exposed_ticks().min(stall) as f64 / stall as f64)
    }
}

/// The replay state of one warp walking its timeline's packed words.
struct WarpState<'a> {
    timeline: &'a WarpTimeline,
    /// Decoder positioned after the last decoded word.
    words: TimelineIter<'a>,
    /// A decoded phase marker `(at, tag)` ahead of the clock, applied
    /// once the clock reaches it.
    pending: Option<(u64, u8)>,
    /// Instruction clock consumed so far.
    clock: u64,
    /// Phase-name stack (innermost last).
    phase_stack: Vec<&'static str>,
    /// Index of the innermost phase in [`SchedResult::phases`]; resolved
    /// on the first step after a marker changes the stack.
    slot: Option<usize>,
}

const OUTSIDE: &str = "(outside)";

impl<'a> WarpState<'a> {
    fn new(timeline: &'a WarpTimeline) -> Self {
        WarpState {
            timeline,
            words: timeline.iter(),
            pending: None,
            clock: 0,
            phase_stack: Vec::new(),
            slot: None,
        }
    }

    /// Index of the warp's current phase in `phases`, appended on first
    /// use so phases keep their first-issue order.
    fn slot(&mut self, phases: &mut Vec<(&'static str, PhaseSched)>) -> usize {
        *self.slot.get_or_insert_with(|| {
            let name = self.phase_stack.last().copied().unwrap_or(OUTSIDE);
            phases.iter().position(|(n, _)| *n == name).unwrap_or_else(|| {
                phases.push((name, PhaseSched::default()));
                phases.len() - 1
            })
        })
    }

    /// Apply the phase markers the clock has reached, then take the warp's
    /// next step as `(instructions, stall)`: a segment ending in a memory
    /// instruction (`instructions` includes it) stalls for its level's
    /// `latency`, indexed by tag; a pure compute segment, up to the next
    /// phase marker or the end of the stream, stalls for 0 ticks. `None`
    /// when the timeline is consumed. A marker ahead of the clock stays
    /// pending, so [`Self::slot`] still names the phase the step issues
    /// under.
    fn next_step(&mut self, latency: &[u64; 3]) -> Option<(u64, u64)> {
        while let Some((at, tag)) = self.pending.take().or_else(|| self.words.next_word()) {
            if tag <= TAG_HBM {
                let instructions = at - self.clock;
                self.clock = at;
                return Some((instructions, latency[tag as usize]));
            }
            if at > self.clock {
                // Issue the compute segment up to the marker; the marker
                // itself (zero-width) applies on the warp's next step.
                self.pending = Some((at, tag));
                let instructions = at - self.clock;
                self.clock = at;
                return Some((instructions, 0));
            }
            if tag == TAG_ENTER {
                self.phase_stack.push(self.words.next_name());
            } else {
                self.phase_stack.pop();
            }
            self.slot = None;
        }
        let rest = self.timeline.total_instructions - self.clock;
        self.clock = self.timeline.total_instructions;
        (rest > 0).then_some((rest, 0))
    }
}

/// Replay a launch's recorded timelines through per-SM event queues.
///
/// Warps are assigned to SMs round-robin in job order (`warp j → SM
/// j % sms_used`, `sms_used = min(cfg.sms, warps)`) and admitted in job
/// order up to `cfg.residency` resident warps per SM; each SM has a
/// single issue port arbitrated FCFS through a [`TimeQueue`]. The result
/// is deterministic for a given `(timelines, cfg)` input.
pub fn schedule(timelines: &[WarpTimeline], cfg: &SchedConfig) -> SchedResult {
    let mut result = SchedResult {
        residency: cfg.residency.max(1),
        ..Default::default()
    };
    if timelines.is_empty() || cfg.sms == 0 {
        return result;
    }
    let sms_used = (cfg.sms as usize).min(timelines.len());
    result.sms_used = sms_used as u32;
    for sm in 0..sms_used {
        let assigned: Vec<&WarpTimeline> =
            timelines.iter().skip(sm).step_by(sms_used).collect();
        schedule_sm(sm as u32, &assigned, cfg, &mut result);
    }
    result
}

/// Replay one SM's assigned warps through its issue port.
fn schedule_sm(
    sm: u32,
    assigned: &[&WarpTimeline],
    cfg: &SchedConfig,
    result: &mut SchedResult,
) {
    let residency = cfg.residency.max(1) as usize;
    let mut states: Vec<WarpState<'_>> =
        assigned.iter().map(|t| WarpState::new(t)).collect();
    let mut queue: TimeQueue<usize> = TimeQueue::new();
    // Admit the first `residency` warps at tick 0, in job order.
    let mut next_admission = residency.min(states.len());
    for idx in 0..next_admission {
        queue.push(0, idx);
    }
    // Admission time of each warp (for resident_ticks).
    let mut admitted_at = vec![0u64; states.len()];

    let mut port_free: u64 = 0; // tick the issue port becomes free
    let mut busy: u64 = 0;
    let mut makespan: u64 = 0;
    // Stall per memory tag: `TAG_L1`, `TAG_L2`, `TAG_HBM` are 0, 1, 2.
    let latency = [MemLevel::L1, MemLevel::L2, MemLevel::Hbm].map(|l| cfg.latency_ticks(l));

    while let Some((ready, idx)) = queue.pop() {
        let warp = &mut states[idx];
        let Some((instructions, stall)) = warp.next_step(&latency) else {
            // Warp retired: free its residency slot for the next waiting
            // warp (admitted at the retirement tick, in job order).
            let retired_at = ready;
            result.resident_ticks += retired_at - admitted_at[idx];
            makespan = makespan.max(retired_at);
            if next_admission < states.len() {
                admitted_at[next_admission] = retired_at;
                queue.push(retired_at, next_admission);
                next_admission += 1;
            }
            continue;
        };
        let slot = warp.slot(&mut result.phases);
        let (phase, p) = &mut result.phases[slot];
        let phase = *phase;
        // The port serves requests FCFS, so an idle gap before this issue
        // means no resident warp was ready — latency the resident set
        // failed to hide, attributed to the issuing warp's current phase.
        // A busy port (`start == port_free`) exposes nothing.
        let start = ready.max(port_free);
        p.exposed_ticks += start - port_free.max(admitted_at[idx]);
        let dur = instructions * cfg.issue_ticks;
        let end = start + dur;
        busy += dur;
        port_free = end;
        makespan = makespan.max(end);
        p.issue_ticks += dur;
        if cfg.record_tracks {
            result.tracks.push(SmSlice { sm, warp: warp.timeline.warp_id, start, end, phase });
        }
        // A memory instruction blocks the warp for its latency while the
        // port is free — the window other warps hide in. The next pop
        // applies phase markers or retires the warp.
        p.stall_ticks += stall;
        queue.push(end + stall, idx);
    }
    result.busy_ticks += busy;
    result.makespan_ticks = result.makespan_ticks.max(makespan);
}

#[cfg(test)]
mod timeq_tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = TimeQueue::new();
        q.push(30, "c");
        q.push(10, "a");
        q.push(20, "b");
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop(), Some((10, "a")));
        assert_eq!(q.pop(), Some((20, "b")));
        assert_eq!(q.pop(), Some((30, "c")));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    /// Entries scheduled for the same tick pop in insertion order — the
    /// determinism the whole replay rests on.
    #[test]
    fn ties_break_on_insertion_order() {
        let mut q = TimeQueue::new();
        for label in ["first", "second", "third", "fourth"] {
            q.push(5, label);
        }
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, v)| v)).collect();
        assert_eq!(order, ["first", "second", "third", "fourth"]);
    }

    /// Tie-breaking is insertion-global, not per-time: an item pushed
    /// later for an *earlier* time still pops first, and re-pushing a
    /// popped item (suspend → resume) lands after existing entries at the
    /// same tick.
    #[test]
    fn suspend_resume_requeues_deterministically() {
        let mut q = TimeQueue::new();
        q.push(10, 'a');
        q.push(10, 'b');
        let (t, v) = q.pop().unwrap();
        assert_eq!((t, v), (10, 'a'));
        // 'a' suspends and resumes at the same tick: it re-queues *after*
        // 'b' (its seq is newer), modeling FCFS among equally-ready warps.
        q.push(10, 'a');
        assert_eq!(q.pop(), Some((10, 'b')));
        assert_eq!(q.pop(), Some((10, 'a')));
        // A later push for an earlier time still wins on time.
        q.push(50, 'z');
        q.push(1, 'y');
        assert_eq!(q.pop(), Some((1, 'y')));
        assert_eq!(q.pop(), Some((50, 'z')));
    }

    #[test]
    fn identical_streams_replay_identically() {
        let mut order_a = Vec::new();
        let mut order_b = Vec::new();
        for order in [&mut order_a, &mut order_b] {
            let mut q = TimeQueue::new();
            for (t, v) in [(3u64, 0u32), (1, 1), (3, 2), (2, 3), (1, 4)] {
                q.push(t, v);
            }
            while let Some(e) = q.pop() {
                order.push(e);
            }
        }
        assert_eq!(order_a, order_b);
        assert_eq!(order_a, [(1, 1), (1, 4), (2, 3), (3, 0), (3, 2)]);
    }
}

#[cfg(test)]
mod sched_tests {
    use super::*;

    /// A timeline with `pre` compute instructions before each of the given
    /// memory accesses and `tail` compute instructions at the end.
    fn mk_timeline(id: u64, pre: u64, accesses: &[MemLevel], tail: u64) -> WarpTimeline {
        let mut rec = TimelineRecorder::new(id);
        let mut clock = 0;
        rec.record_phase_enter("body", 0);
        for &level in accesses {
            clock += pre + 1; // pre compute instructions + the mem instruction
            rec.record_mem(clock, level);
        }
        clock += tail;
        rec.record_phase_exit(clock);
        rec.finish(clock)
    }

    fn cfg(sms: u32, residency: u32) -> SchedConfig {
        SchedConfig {
            sms,
            residency,
            issue_ticks: 10,
            l1_ticks: 20,
            l2_ticks: 140,
            hbm_ticks: 480,
            record_tracks: false,
        }
    }

    #[test]
    fn empty_input_schedules_to_nothing() {
        let r = schedule(&[], &cfg(4, 8));
        assert_eq!(r.makespan_ticks, 0);
        assert_eq!(r.sms_used, 0);
        assert_eq!(r.occupancy(), 0.0);
        assert_eq!(r.latency_hidden_fraction(), 1.0);
    }

    /// A single warp with no other residents cannot hide anything: every
    /// stall tick is exposed and the makespan is issue + latency, exactly.
    #[test]
    fn single_warp_exposes_all_latency() {
        let t = mk_timeline(0, 4, &[MemLevel::Hbm, MemLevel::Hbm], 3);
        let c = cfg(4, 8);
        let r = schedule(std::slice::from_ref(&t), &c);
        assert_eq!(r.sms_used, 1);
        // 13 instructions × 10 ticks + 2 × 480 latency.
        assert_eq!(r.busy_ticks, 130);
        assert_eq!(r.makespan_ticks, 130 + 960);
        let body = r.phase("body").unwrap();
        assert_eq!(body.issue_ticks, 130);
        assert_eq!(body.stall_ticks, 960);
        assert_eq!(body.exposed_ticks, 960);
        assert_eq!(r.latency_hidden_fraction(), 0.0);
    }

    /// Many resident warps on one SM hide each other's stalls: exposed
    /// ticks drop and the makespan approaches pure issue serialization.
    #[test]
    fn resident_warps_hide_latency() {
        let c = cfg(1, 8);
        let warps: Vec<WarpTimeline> =
            (0..8).map(|i| mk_timeline(i, 4, &[MemLevel::Hbm; 6], 2)).collect();
        let solo = schedule(&warps[..1], &c);
        let packed = schedule(&warps, &c);
        assert!(
            packed.latency_hidden_fraction() > 0.5,
            "8 residents must hide most HBM stalls, got {}",
            packed.latency_hidden_fraction()
        );
        assert!(
            packed.makespan_ticks < 8 * solo.makespan_ticks / 2,
            "interleaving must beat serial run-to-completion: {} vs 8×{}",
            packed.makespan_ticks,
            solo.makespan_ticks
        );
        // Port busy time is exact: 8 warps × 32 instructions × 10 ticks.
        assert_eq!(packed.busy_ticks, 8 * 32 * 10);
    }

    /// Residency 1 forbids interleaving: warps run strictly back-to-back
    /// and nothing is hidden.
    #[test]
    fn residency_one_serializes() {
        let c = cfg(1, 1);
        let warps: Vec<WarpTimeline> =
            (0..3).map(|i| mk_timeline(i, 2, &[MemLevel::L2], 1)).collect();
        let r = schedule(&warps, &c);
        // Each warp: 4 instructions × 10 + 140 stall, fully exposed.
        assert_eq!(r.makespan_ticks, 3 * (40 + 140));
        assert_eq!(r.exposed_ticks(), 3 * 140);
        assert_eq!(r.latency_hidden_fraction(), 0.0);
    }

    /// Warps spread round-robin over SMs; the makespan is the busiest
    /// SM's, not the sum.
    #[test]
    fn warps_distribute_over_sms() {
        let c = cfg(4, 8);
        let warps: Vec<WarpTimeline> =
            (0..4).map(|i| mk_timeline(i, 2, &[MemLevel::L1], 0)).collect();
        let r = schedule(&warps, &c);
        assert_eq!(r.sms_used, 4);
        let one = schedule(&warps[..1], &c);
        assert_eq!(r.makespan_ticks, one.makespan_ticks, "SMs run in parallel");
        assert_eq!(r.busy_ticks, 4 * one.busy_ticks);
    }

    #[test]
    fn deterministic_across_replays() {
        let c = cfg(3, 4);
        let warps: Vec<WarpTimeline> = (0..13)
            .map(|i| {
                let levels = [MemLevel::L1, MemLevel::L2, MemLevel::Hbm];
                let accesses: Vec<MemLevel> =
                    (0..(i % 5 + 1)).map(|j| levels[((i + j) % 3) as usize]).collect();
                mk_timeline(i, i % 7, &accesses, i % 3)
            })
            .collect();
        let a = schedule(&warps, &c);
        let b = schedule(&warps, &c);
        assert_eq!(a, b);
        assert!(a.makespan_ticks > 0);
        assert!(a.occupancy() > 0.0 && a.occupancy() <= 1.0);
    }

    /// With zero memory stalls the scheduled busy time per SM equals the
    /// pure issue cost — the property that anchors the scheduled estimate
    /// to the analytic compute term.
    #[test]
    fn stall_free_busy_equals_issue_cost() {
        let c = cfg(2, 8);
        let warps: Vec<WarpTimeline> = (0..6)
            .map(|i| {
                let mut rec = TimelineRecorder::new(i);
                rec.record_phase_enter("walk", 0);
                rec.record_phase_exit(100);
                rec.finish(100)
            })
            .collect();
        let r = schedule(&warps, &c);
        assert_eq!(r.busy_ticks, 6 * 100 * 10);
        assert_eq!(r.stall_ticks(), 0);
        assert_eq!(r.exposed_ticks(), 0);
        // 3 warps per SM, serialized on the issue port.
        assert_eq!(r.makespan_ticks, 3 * 100 * 10);
        assert_eq!(r.latency_hidden_fraction(), 1.0);
    }

    /// Phase attribution: a warp's stall lands in the phase its memory
    /// instruction issued under.
    #[test]
    fn stalls_attribute_to_their_phase() {
        let mut rec = TimelineRecorder::new(0);
        rec.record_phase_enter("construct", 0);
        rec.record_mem(3, MemLevel::Hbm);
        rec.record_phase_exit(3);
        rec.record_phase_enter("walk", 3);
        rec.record_mem(5, MemLevel::L2);
        rec.record_phase_exit(6);
        let t = rec.finish(6);
        let r = schedule(std::slice::from_ref(&t), &cfg(1, 2));
        let construct = r.phase("construct").unwrap();
        let walk = r.phase("walk").unwrap();
        assert_eq!(construct.stall_ticks, 480);
        assert_eq!(construct.issue_ticks, 30);
        assert_eq!(walk.stall_ticks, 140);
        assert_eq!(walk.issue_ticks, 30);
        assert!(r.phase("(outside)").is_none());
    }

    /// Instructions outside any phase marker are still accounted (under
    /// the `"(outside)"` bucket), so tick totals never silently drop.
    #[test]
    fn unphased_instructions_are_not_lost() {
        let mut rec = TimelineRecorder::new(0);
        rec.record_mem(4, MemLevel::L1);
        let t = rec.finish(10);
        let r = schedule(std::slice::from_ref(&t), &cfg(1, 2));
        let outside = r.phase("(outside)").unwrap();
        assert_eq!(outside.issue_ticks, 100);
        assert_eq!(outside.stall_ticks, 20);
        assert_eq!(r.busy_ticks, 100);
    }

    #[test]
    fn tracks_record_port_slices() {
        let mut c = cfg(1, 2);
        c.record_tracks = true;
        let warps: Vec<WarpTimeline> =
            (0..2).map(|i| mk_timeline(i, 2, &[MemLevel::Hbm], 1)).collect();
        let r = schedule(&warps, &c);
        assert!(!r.tracks.is_empty());
        for s in &r.tracks {
            assert!(s.end > s.start);
            assert_eq!(s.sm, 0);
            assert_eq!(s.phase, "body");
        }
        // Slices on one SM never overlap (single issue port).
        let mut sorted = r.tracks.clone();
        sorted.sort_by_key(|s| s.start);
        for w in sorted.windows(2) {
            assert!(w[0].end <= w[1].start, "port slices overlap: {w:?}");
        }
        // Without the flag the same replay is slice-free but otherwise equal.
        c.record_tracks = false;
        let bare = schedule(&warps, &c);
        assert!(bare.tracks.is_empty());
        assert_eq!(bare.makespan_ticks, r.makespan_ticks);
        assert_eq!(bare.phases, r.phases);
    }

    /// The recorder's finish() seals the clock; replaying a recorded
    /// timeline consumes exactly its instruction count in issue ticks.
    #[test]
    fn recorder_roundtrip_preserves_instruction_count() {
        let t = mk_timeline(7, 5, &[MemLevel::L1, MemLevel::Hbm, MemLevel::L2], 4);
        assert_eq!(t.total_instructions, 3 * 6 + 4);
        assert_eq!(t.warp_id, 7);
        let r = schedule(std::slice::from_ref(&t), &cfg(1, 1));
        assert_eq!(r.issue_ticks(), t.total_instructions * 10);
    }
}

#[cfg(test)]
mod codec_tests {
    use super::*;
    use proptest::prelude::*;

    const NAMES: [&str; 3] = ["construct", "walk", "stage"];

    /// A gap drawn from one of five classes: short enough for the 5-bit
    /// delta field (most real gaps), straddling its limit, below 4096
    /// (the k=77 benchmark workload's longest gap is 702), at least 2^32,
    /// and anywhere below 2^40 (small enough that replay ticks fit a
    /// `u64`; gaps of 2^60 and 2^63 are pinned by the unit test below).
    fn gap(class: u8, raw: u64) -> u64 {
        match class {
            0 => raw % (1 << DELTA_BITS),
            1 => (1 << DELTA_BITS) - 2 + raw % 4,
            2 => raw % 4096,
            3 => (1 << 32) + raw % (1 << 32),
            _ => raw >> 24,
        }
    }

    /// Words a gap takes: one per 5-bit chunk of its significant bits,
    /// and one for a gap of zero.
    fn words(gap: u64) -> usize {
        (64 - gap.leading_zeros() as usize).div_ceil(DELTA_BITS as usize).max(1)
    }

    fn cfg() -> SchedConfig {
        SchedConfig {
            sms: 1,
            residency: 1,
            issue_ticks: 10,
            l1_ticks: 20,
            l2_ticks: 140,
            hbm_ticks: 480,
            record_tracks: false,
        }
    }

    proptest! {
        /// Random mem/enter/exit sequences, with gaps up to 2^40 and
        /// nested phases, decode exactly; each gap takes exactly its
        /// words; the sealed word vector is exact-size; and the replay
        /// consumes exactly the recorded instructions and latencies.
        #[test]
        fn packed_timelines_decode_exactly(
            ops in proptest::collection::vec((0u8..5, 0u8..5, any::<u64>()), 0..48),
            tail in 0u64..100,
        ) {
            let mut rec = TimelineRecorder::new(9);
            let mut expected = Vec::new();
            let mut clock = 0u64;
            let mut depth = 0usize;
            let mut word_count = 0;
            let mut stall = 0u64;
            for (i, &(kind, class, raw)) in ops.iter().enumerate() {
                let g = gap(class, raw);
                word_count += words(g);
                clock += g;
                let event = match kind {
                    0..=2 => {
                        let level = [MemLevel::L1, MemLevel::L2, MemLevel::Hbm][kind as usize];
                        stall += cfg().latency_ticks(level);
                        rec.record_mem(clock, level);
                        TimelineEvent::Mem { at: clock, level }
                    }
                    4 if depth > 0 => {
                        depth -= 1;
                        rec.record_phase_exit(clock);
                        TimelineEvent::PhaseExit { at: clock }
                    }
                    _ => {
                        depth += 1;
                        let name = NAMES[i % NAMES.len()];
                        rec.record_phase_enter(name, clock);
                        TimelineEvent::PhaseEnter { name, at: clock }
                    }
                };
                expected.push(event);
            }
            let t = rec.finish(clock + tail);
            let decoded: Vec<TimelineEvent> = t.iter().collect();
            prop_assert_eq!(&decoded, &expected);
            prop_assert_eq!(t.events.len(), word_count);
            prop_assert_eq!(t.events.capacity(), t.events.len(), "sealed timeline is exact-size");

            let r = schedule(std::slice::from_ref(&t), &cfg());
            prop_assert_eq!(r.issue_ticks(), t.total_instructions * 10);
            prop_assert_eq!(r.busy_ticks, t.total_instructions * 10);
            prop_assert_eq!(r.stall_ticks(), stall);
        }

        /// `record_l1_run` writes byte for byte what repeated
        /// `record_mem(.., L1)` calls write, after and before other events,
        /// for every stride from 1 to 40 (both sides of the 5-bit delta
        /// field) and first gaps up to 2^40.
        #[test]
        fn l1_runs_append_what_repeated_records_do(
            lead in (0u8..5, any::<u64>()),
            n in 0u64..48,
            first in (0u8..5, any::<u64>()),
            next in (0u8..5, any::<u64>()),
        ) {
            for stride in 1..=40 {
                let lead_at = gap(lead.0, lead.1);
                let first_at = lead_at + gap(first.0, first.1);
                let end = first_at + n.saturating_sub(1) * stride;
                let next_at = end + gap(next.0, next.1);
                let record = |bulk: bool| {
                    let mut rec = TimelineRecorder::new(4);
                    rec.record_phase_enter("walk", 0);
                    rec.record_mem(lead_at, MemLevel::Hbm);
                    if bulk {
                        rec.record_l1_run(first_at, stride, n);
                    } else {
                        for i in 0..n {
                            rec.record_mem(first_at + i * stride, MemLevel::L1);
                        }
                    }
                    rec.record_mem(next_at, MemLevel::L2);
                    rec.record_phase_exit(next_at);
                    rec.finish(next_at + 3)
                };
                prop_assert_eq!(record(true), record(false), "stride {}", stride);
            }
        }
    }

    #[test]
    fn empty_timelines_decode_to_nothing() {
        let t = TimelineRecorder::new(0).finish(0);
        assert!(t.events.is_empty());
        assert_eq!(t.iter().next(), None);
        // No events but a clock: one compute segment, all "(outside)".
        let t = TimelineRecorder::new(0).finish(100);
        assert_eq!(t.iter().count(), 0);
        let r = schedule(std::slice::from_ref(&t), &cfg());
        assert_eq!(r.phase("(outside)").unwrap().issue_ticks, 1000);
    }

    /// Gaps at and beyond the delta field take continuation words — one
    /// per extra 5-bit chunk, up to 13 words for a gap of 2^63 — and
    /// still replay to exactly `total_instructions × issue_ticks` issue
    /// ticks.
    #[test]
    fn overflow_gaps_take_continuation_words_and_replay_exactly() {
        let mut rec = TimelineRecorder::new(0);
        rec.record_phase_enter("walk", 0); // 1 word
        let fits = DELTA_MASK; // 31: 1 word
        let two = fits + (1 << DELTA_BITS); // gap 32: 2 words
        let two_max = two + 1023; // gap 2^10 - 1: 2 words
        let three = two_max + 1024; // gap 2^10: 3 words
        let far = three + (1 << 60); // gap 2^60: 13 words
        let farthest = far + (1 << 63); // gap 2^63: 13 words
        rec.record_mem(fits, MemLevel::L1);
        rec.record_mem(two, MemLevel::Hbm);
        rec.record_mem(two_max, MemLevel::L2);
        rec.record_mem(three, MemLevel::L1);
        rec.record_phase_enter("stage", far);
        rec.record_phase_exit(farthest);
        let t = rec.finish(farthest + 5);
        assert_eq!(t.events.len(), 1 + 1 + 2 + 2 + 3 + 13 + 13);
        assert_eq!(
            t.iter().collect::<Vec<_>>(),
            [
                TimelineEvent::PhaseEnter { name: "walk", at: 0 },
                TimelineEvent::Mem { at: fits, level: MemLevel::L1 },
                TimelineEvent::Mem { at: two, level: MemLevel::Hbm },
                TimelineEvent::Mem { at: two_max, level: MemLevel::L2 },
                TimelineEvent::Mem { at: three, level: MemLevel::L1 },
                TimelineEvent::PhaseEnter { name: "stage", at: far },
                TimelineEvent::PhaseExit { at: farthest },
            ]
        );

        let mut rec = TimelineRecorder::new(0);
        rec.record_phase_enter("walk", 0);
        rec.record_mem(1 << 33, MemLevel::L2);
        rec.record_phase_exit((1 << 33) + 7);
        let t = rec.finish((1 << 33) + 9);
        let r = schedule(std::slice::from_ref(&t), &cfg());
        assert_eq!(r.issue_ticks(), t.total_instructions * 10);
        assert_eq!(r.phase("walk").unwrap().issue_ticks, ((1 << 33) + 7) * 10);
        assert_eq!(r.phase("walk").unwrap().stall_ticks, 140);
    }
}

/// The replay as first written — a `BinaryHeap` time queue, a `Peekable`
/// decoder and a phase-name search on every issue and stall — kept as the
/// reference the scan-queue replay must match on every field.
#[cfg(test)]
mod reference_tests {
    use super::*;
    use proptest::prelude::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    struct RefWarp<'a> {
        timeline: &'a WarpTimeline,
        events: std::iter::Peekable<TimelineIter<'a>>,
        clock: u64,
        phase_stack: Vec<&'static str>,
    }

    impl RefWarp<'_> {
        fn phase(&self) -> &'static str {
            self.phase_stack.last().copied().unwrap_or(OUTSIDE)
        }

        fn consume_markers(&mut self) {
            while let Some(&e) = self.events.peek() {
                match e {
                    TimelineEvent::PhaseEnter { name, at } if at <= self.clock => {
                        self.phase_stack.push(name);
                    }
                    TimelineEvent::PhaseExit { at } if at <= self.clock => {
                        self.phase_stack.pop();
                    }
                    _ => break,
                }
                self.events.next();
            }
        }

        fn next_step(&mut self) -> Option<(u64, Option<MemLevel>)> {
            self.consume_markers();
            if let Some(&e) = self.events.peek() {
                let (at, level) = match e {
                    TimelineEvent::Mem { at, level } => {
                        self.events.next();
                        (at, Some(level))
                    }
                    TimelineEvent::PhaseEnter { at, .. } | TimelineEvent::PhaseExit { at } => {
                        (at, None)
                    }
                };
                let instructions = at - self.clock;
                self.clock = at;
                return Some((instructions, level));
            }
            let rest = self.timeline.total_instructions - self.clock;
            self.clock = self.timeline.total_instructions;
            (rest > 0).then_some((rest, None))
        }
    }

    fn add_phase(result: &mut SchedResult, name: &'static str, f: impl Fn(&mut PhaseSched)) {
        match result.phases.iter_mut().find(|(n, _)| *n == name) {
            Some((_, p)) => f(p),
            None => {
                let mut p = PhaseSched::default();
                f(&mut p);
                result.phases.push((name, p));
            }
        }
    }

    fn reference_schedule(timelines: &[WarpTimeline], cfg: &SchedConfig) -> SchedResult {
        let mut result = SchedResult { residency: cfg.residency.max(1), ..Default::default() };
        if timelines.is_empty() || cfg.sms == 0 {
            return result;
        }
        let sms_used = (cfg.sms as usize).min(timelines.len());
        result.sms_used = sms_used as u32;
        for sm in 0..sms_used {
            let mut states: Vec<RefWarp<'_>> = timelines
                .iter()
                .skip(sm)
                .step_by(sms_used)
                .map(|t| RefWarp {
                    timeline: t,
                    events: t.iter().peekable(),
                    clock: 0,
                    phase_stack: Vec::new(),
                })
                .collect();
            let mut heap = BinaryHeap::new();
            let mut seq = 0u64;
            let mut push = |heap: &mut BinaryHeap<_>, time: u64, idx: usize| {
                heap.push(Reverse((time, seq, idx)));
                seq += 1;
            };
            let mut next_admission = (cfg.residency.max(1) as usize).min(states.len());
            for idx in 0..next_admission {
                push(&mut heap, 0, idx);
            }
            let mut admitted_at = vec![0u64; states.len()];
            let (mut port_free, mut busy, mut makespan) = (0u64, 0u64, 0u64);
            while let Some(Reverse((ready, _, idx))) = heap.pop() {
                states[idx].consume_markers();
                let phase = states[idx].phase();
                let Some((instructions, mem)) = states[idx].next_step() else {
                    result.resident_ticks += ready - admitted_at[idx];
                    makespan = makespan.max(ready);
                    if next_admission < states.len() {
                        admitted_at[next_admission] = ready;
                        push(&mut heap, ready, next_admission);
                        next_admission += 1;
                    }
                    continue;
                };
                let start = ready.max(port_free);
                if start > port_free {
                    let exposed = start - port_free.max(admitted_at[idx]);
                    add_phase(&mut result, phase, |p| p.exposed_ticks += exposed);
                }
                let dur = instructions * cfg.issue_ticks;
                let end = start + dur;
                busy += dur;
                port_free = end;
                makespan = makespan.max(end);
                add_phase(&mut result, phase, |p| p.issue_ticks += dur);
                if cfg.record_tracks {
                    let warp = states[idx].timeline.warp_id;
                    result.tracks.push(SmSlice { sm: sm as u32, warp, start, end, phase });
                }
                match mem {
                    Some(level) => {
                        let lat = cfg.latency_ticks(level);
                        add_phase(&mut result, phase, |p| p.stall_ticks += lat);
                        push(&mut heap, end + lat, idx);
                    }
                    None => push(&mut heap, end, idx),
                }
            }
            result.busy_ticks += busy;
            result.makespan_ticks = result.makespan_ticks.max(makespan);
        }
        result
    }

    const NAMES: [&str; 4] = ["stage", "construct", "walk", "probe"];

    /// Record one warp from `(kind, gap class, raw)` ops: kinds 0–2 are
    /// L1/L2/HBM accesses, 3 enters a phase, 4 exits the innermost one
    /// (or enters when none is open). Classes 0–2 draw a gap below 32, 3
    /// one from 32 up, 4 one of at least 2^32. Phases may stay open at
    /// the end.
    fn record(id: u64, ops: &[(u8, u8, u64)], tail: u64) -> WarpTimeline {
        let mut rec = TimelineRecorder::new(id);
        let mut clock = 0u64;
        let mut depth = 0usize;
        for &(kind, class, raw) in ops {
            clock += match class {
                0..=2 => raw % 32,
                3 => 32 + raw % 4096,
                _ => (1 << 32) + raw % (1 << 32),
            };
            match kind {
                0..=2 => {
                    let level = [MemLevel::L1, MemLevel::L2, MemLevel::Hbm][kind as usize];
                    rec.record_mem(clock, level);
                }
                4 if depth > 0 => {
                    depth -= 1;
                    rec.record_phase_exit(clock);
                }
                _ => {
                    depth += 1;
                    rec.record_phase_enter(NAMES[(raw % 4) as usize], clock);
                }
            }
        }
        rec.finish(clock + tail)
    }

    proptest! {
        /// Random launches — L1/L2/HBM events, gaps below 32, above 32
        /// and at least 2^32, nested phases, 1–4 SMs, residency 1–8,
        /// tracks on and off — replay to exactly the reference's result,
        /// `phases` order and `tracks` included.
        #[test]
        fn schedule_matches_the_reference_replay(
            warps in proptest::collection::vec(
                (
                    proptest::collection::vec((0u8..5, 0u8..5, any::<u64>()), 0..40),
                    0u64..50,
                ),
                0..14,
            ),
            sms in 1u32..5,
            residency in 1u32..9,
            record_tracks in any::<bool>(),
            issue_ticks in 1u64..40,
            latencies in (0u64..60, 0u64..400, 0u64..1200),
        ) {
            let timelines: Vec<WarpTimeline> = warps
                .iter()
                .enumerate()
                .map(|(i, (ops, tail))| record(i as u64, ops, *tail))
                .collect();
            let cfg = SchedConfig {
                sms,
                residency,
                issue_ticks,
                l1_ticks: latencies.0,
                l2_ticks: latencies.1,
                hbm_ticks: latencies.2,
                record_tracks,
            };
            prop_assert_eq!(schedule(&timelines, &cfg), reference_schedule(&timelines, &cfg));
        }
    }
}
