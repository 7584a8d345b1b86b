//! Warp-level tracing: spans and events recorded during kernel execution.
//!
//! The paper's whole analysis pipeline starts from profiler output —
//! NSight/rocprof/Advisor counters reduced to INTOP intensity, GINTOPs/s
//! and HBM bytes. The simulator's [`crate::AggCounters`] are the
//! end-of-run equivalent; this module is the equivalent of the *timeline*
//! views those profilers also provide. A [`TraceSink`] attached to a
//! [`crate::Warp`] records
//!
//! * **spans** — named phase enter/exit pairs ("stage", "construct",
//!   "walk", …) carrying the full [`WarpCounters`] delta accumulated
//!   inside the phase, so per-phase INTOP intensity and divergence fall
//!   out directly, and
//! * **events** — instantaneous markers: hash-table probe chains with
//!   their round count, ballot/match/shuffle collectives, mer-walk steps,
//!   HBM transactions.
//!
//! Time is measured on a deterministic clock: the warp's cumulative
//! `warp_instructions` count. That makes traces bit-identical across
//! runs and across `parallel: true`/`false` launches, and it is the
//! natural x-axis for an in-order lockstep machine.
//!
//! Tracing is strictly opt-in. A warp without a sink pays one
//! `Option::is_none` branch per *traced call site* (phase boundaries and
//! collective/probe markers — never per `iop`). Switched off, it adds no
//! heap traffic and no modeled work:
//! `host_throughput::switched_off_observers_cost_nothing`
//! (`crates/bench/tests`) requires a plain run after a traced one to make
//! the same heap calls and bytes and interpret the same warp instructions
//! as a plain run with no trace before it.

use crate::counters::WarpCounters;

/// Instantaneous (zero-duration) occurrences recorded in a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// One `ht_get_atomic` probe chain completed after `rounds` linear
    /// probe rounds (1 = no collision; more = hash or thread collisions).
    ProbeChain {
        /// Number of probe rounds the slowest lane needed.
        rounds: u32,
    },
    /// A warp collective issued (`shfl`, `ballot`, `match_any`, `all`,
    /// `any`) — the intrinsics whose availability drives the paper's
    /// porting story (§III).
    Collective {
        /// Static name of the collective (e.g. `"match_any"`).
        name: &'static str,
    },
    /// A warp sync (`__syncwarp` / sub-group `barrier()`).
    Sync,
    /// One mer-walk step: a visited-set scan plus a hash-table lookup
    /// that probed `probes` slots.
    WalkStep {
        /// Hash-table slots inspected by the lookup.
        probes: u32,
    },
    /// A memory instruction that missed all the way to HBM, moving
    /// `read` + `write` sector transactions.
    HbmTx {
        /// HBM read transactions caused by the instruction.
        read: u64,
        /// HBM write transactions caused by the instruction (evictions).
        write: u64,
    },
    /// The per-warp instruction watchdog tripped: the walk spent more
    /// warp instructions than its layout-derived budget allowed. The
    /// kernel aborts with a `WalkBudgetExceeded` fault right after
    /// recording this marker.
    Watchdog {
        /// Budget the walk was allowed (warp instructions).
        budget: u64,
        /// Instructions actually spent when the watchdog fired.
        spent: u64,
    },
    /// A warp-sanitizer check fired (see [`crate::san`]); the full typed
    /// diagnostic lives in the launch's `SanReport` — the trace event
    /// pins *when* it fired on the instruction clock.
    SanFinding {
        /// Stable check identifier (`"lane_race"`, `"divergent_barrier"`,
        /// …) — the same string `SanKind::check` returns.
        check: &'static str,
    },
}

impl EventKind {
    /// Short display name (used by the exporters).
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::ProbeChain { .. } => "probe_chain",
            EventKind::Collective { name } => name,
            EventKind::Sync => "sync",
            EventKind::WalkStep { .. } => "walk_step",
            EventKind::HbmTx { .. } => "hbm_tx",
            EventKind::Watchdog { .. } => "watchdog",
            EventKind::SanFinding { .. } => "san_finding",
        }
    }
}

/// An instantaneous event stamped on the warp-instruction clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Warp-instruction clock value when the event fired.
    pub at: u64,
    /// What happened.
    pub kind: EventKind,
}

/// A completed phase span.
///
/// Spans may nest; `depth` records the nesting level (0 = outermost) and
/// the counter `delta` is *inclusive* — a parent span's delta contains its
/// children's.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Static phase name (`"construct"`, `"walk"`, …).
    pub name: &'static str,
    /// Warp-instruction clock at phase enter.
    pub start: u64,
    /// Warp-instruction clock at phase exit.
    pub end: u64,
    /// Nesting depth at enter time (0 = outermost).
    pub depth: u32,
    /// Counters accumulated between enter and exit (memory stats
    /// included), for per-phase intensity/divergence attribution.
    pub delta: WarpCounters,
}

/// One open (entered, not yet exited) phase.
#[derive(Debug, Clone, Copy)]
struct OpenSpan {
    name: &'static str,
    start: u64,
    snapshot: WarpCounters,
}

/// Per-warp trace buffer.
///
/// Owned by the [`crate::Warp`] while the kernel runs; detached with
/// [`crate::Warp::take_trace`] as a [`WarpTrace`] afterwards. The grid
/// launcher does this automatically and returns the traces in job order,
/// so a traced launch is deterministic regardless of rayon scheduling.
#[derive(Debug, Clone, Default)]
pub struct TraceSink {
    warp_id: u64,
    spans: Vec<Span>,
    events: Vec<Event>,
    stack: Vec<OpenSpan>,
}

impl TraceSink {
    /// A new empty sink for warp `warp_id`.
    pub fn new(warp_id: u64) -> Self {
        TraceSink { warp_id, ..Default::default() }
    }

    /// Enter a phase at clock `now` with the given counter snapshot.
    pub(crate) fn enter(&mut self, name: &'static str, now: u64, snapshot: WarpCounters) {
        self.stack.push(OpenSpan { name, start: now, snapshot });
    }

    /// Exit the innermost phase; panics if `name` does not match it
    /// (mis-nested instrumentation is a bug worth failing loudly on).
    pub(crate) fn exit(&mut self, name: &'static str, now: u64, snapshot: WarpCounters) {
        let open = self
            .stack
            .pop()
            .unwrap_or_else(|| panic!("phase_exit(\"{name}\") with no open phase"));
        assert_eq!(
            open.name, name,
            "phase_exit(\"{name}\") does not match open phase \"{}\"",
            open.name
        );
        self.spans.push(Span {
            name,
            start: open.start,
            end: now,
            depth: self.stack.len() as u32,
            delta: snapshot.since(&open.snapshot),
        });
    }

    /// Record an instantaneous event.
    pub(crate) fn event(&mut self, kind: EventKind, now: u64) {
        self.events.push(Event { at: now, kind });
    }

    /// Seal the sink into an immutable [`WarpTrace`]; panics if a phase
    /// is still open.
    pub(crate) fn finish(self, width: u32) -> WarpTrace {
        assert!(
            self.stack.is_empty(),
            "trace finished with {} unclosed phase(s): {:?}",
            self.stack.len(),
            self.stack.iter().map(|o| o.name).collect::<Vec<_>>()
        );
        WarpTrace { warp_id: self.warp_id, width, spans: self.spans, events: self.events }
    }
}

/// The completed trace of one warp's kernel execution.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WarpTrace {
    /// Launch-assigned warp identifier (job index; re-numbered to a
    /// run-global id by multi-launch drivers).
    pub warp_id: u64,
    /// Warp width the trace was recorded at.
    pub width: u32,
    /// Completed spans, ordered by exit time.
    pub spans: Vec<Span>,
    /// Instantaneous events, ordered by clock.
    pub events: Vec<Event>,
}

impl WarpTrace {
    /// Distinct phase names appearing in this trace.
    pub fn phase_names(&self) -> Vec<&'static str> {
        let mut names: Vec<&'static str> = self.spans.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        names
    }

    /// Total clock span covered (max span end, or last event).
    pub fn end_clock(&self) -> u64 {
        let span_end = self.spans.iter().map(|s| s.end).max().unwrap_or(0);
        let event_end = self.events.iter().map(|e| e.at).max().unwrap_or(0);
        span_end.max(event_end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counters(instr: u64) -> WarpCounters {
        WarpCounters { width: 32, warp_instructions: instr, ..WarpCounters::new(32) }
    }

    #[test]
    fn spans_nest_and_carry_deltas() {
        let mut sink = TraceSink::new(7);
        sink.enter("outer", 0, counters(0));
        sink.enter("inner", 10, counters(10));
        sink.exit("inner", 25, counters(25));
        sink.exit("outer", 40, counters(40));
        let t = sink.finish(32);
        assert_eq!(t.warp_id, 7);
        assert_eq!(t.spans.len(), 2);
        // Inner completes first, deeper, with the inner delta only.
        assert_eq!(t.spans[0].name, "inner");
        assert_eq!(t.spans[0].depth, 1);
        assert_eq!(t.spans[0].delta.warp_instructions, 15);
        // Outer is inclusive of the inner phase.
        assert_eq!(t.spans[1].name, "outer");
        assert_eq!(t.spans[1].depth, 0);
        assert_eq!(t.spans[1].delta.warp_instructions, 40);
        assert_eq!(t.phase_names(), vec!["inner", "outer"]);
        assert_eq!(t.end_clock(), 40);
    }

    #[test]
    #[should_panic(expected = "does not match open phase")]
    fn mismatched_exit_panics() {
        let mut sink = TraceSink::new(0);
        sink.enter("a", 0, counters(0));
        sink.exit("b", 1, counters(1));
    }

    #[test]
    #[should_panic(expected = "no open phase")]
    fn exit_without_enter_panics() {
        let mut sink = TraceSink::new(0);
        sink.exit("a", 1, counters(1));
    }

    #[test]
    #[should_panic(expected = "unclosed phase")]
    fn unclosed_phase_panics_at_finish() {
        let mut sink = TraceSink::new(0);
        sink.enter("a", 0, counters(0));
        let _ = sink.finish(32);
    }

    #[test]
    fn events_record_kind_and_clock() {
        let mut sink = TraceSink::new(0);
        sink.event(EventKind::ProbeChain { rounds: 3 }, 5);
        sink.event(EventKind::Collective { name: "ballot" }, 9);
        let t = sink.finish(64);
        assert_eq!(t.events.len(), 2);
        assert_eq!(t.events[0], Event { at: 5, kind: EventKind::ProbeChain { rounds: 3 } });
        assert_eq!(t.events[1].kind.name(), "ballot");
        assert_eq!(t.end_clock(), 9);
    }

    #[test]
    fn event_names() {
        assert_eq!(EventKind::ProbeChain { rounds: 1 }.name(), "probe_chain");
        assert_eq!(EventKind::Sync.name(), "sync");
        assert_eq!(EventKind::WalkStep { probes: 2 }.name(), "walk_step");
        assert_eq!(EventKind::HbmTx { read: 1, write: 0 }.name(), "hbm_tx");
        assert_eq!(EventKind::Watchdog { budget: 10, spent: 11 }.name(), "watchdog");
        assert_eq!(EventKind::SanFinding { check: "lane_race" }.name(), "san_finding");
    }
}
