//! # simt — lockstep SIMT execution simulator
//!
//! Executes GPU-style kernels on the CPU in *warp-synchronous SOA form*:
//! kernel code operates on [`LaneVec`] per-lane value vectors under explicit
//! [`Mask`]s, mirroring how a warp/wavefront/sub-group executes in lockstep
//! with predication. The simulator provides
//!
//! * integer-instruction accounting at warp level (`smsp__inst_executed`
//!   style, so INTOPs = warp instructions × warp width, exactly as the paper
//!   measures on NVIDIA and AMD — Appendix B),
//! * warp collectives: `shfl`, `ballot`, `match_any` (CUDA
//!   `__match_any_sync`), `all` (HIP `__all`), `syncwarp`/sub-group barrier,
//! * global-memory atomics (`atomicCAS`, `atomicAdd`) with address-conflict
//!   serialization,
//! * per-access routing through the [`memhier`] cache/HBM simulator with
//!   warp-level coalescing,
//! * a rayon-parallel grid launcher for independent warps (the local
//!   assembly kernel assigns one contig per warp and warps share nothing).
//!
//! Warp widths are configurable (32 = CUDA warp, 64 = CDNA wavefront,
//! 16 = SYCL sub-group on Xe), up to [`MAX_LANES`].
//!
//! An optional warp-level tracing layer ([`trace`]) records phase spans and
//! instantaneous events (probe chains, collectives, HBM transactions) on a
//! deterministic warp-instruction clock — the simulator's analogue of the
//! vendor profiler timelines the paper's analysis is built on. Its
//! correctness counterpart is the opt-in warp sanitizer ([`san`]): lane-race
//! detection, barrier-divergence and shuffle-source checks, access-pattern
//! lints and hash-table invariants, all at zero modeled-instruction cost.
//!
//! A third opt-in layer is the event-driven scheduler ([`sched`]), enabled
//! through [`ExecMode::Scheduled`]: warps record per-instruction timelines
//! (memory touches annotated with the hierarchy level they resolved at)
//! that are replayed after the launch through per-SM event time-queues
//! with limited residency — modeling how resident warps hide memory
//! latency. Like tracing and sanitizing, scheduling never perturbs modeled
//! state: a Scheduled run is bit-identical to a Scalar/Vectorized one in
//! results, counters, traces and sanitizer reports.

#![warn(missing_docs)]

pub mod collectives;
pub mod counters;
pub mod fault;
pub mod grid;
pub mod lanevec;
pub mod mask;
pub mod mem;
pub mod san;
pub mod sched;
pub mod trace;
pub mod warp;

pub use counters::{AggCounters, WarpCounters};
pub use fault::{Fault, FaultPlan};
pub use grid::{launch_warps, pool_stats, LaunchConfig, LaunchOutput, PoolStats};
pub use lanevec::LaneVec;
pub use mask::Mask;
pub use mem::{AllocError, GlobalMem};
pub use san::{SanFinding, SanKind, SanReport, SanitizerConfig};
pub use sched::{
    schedule, PhaseSched, SchedConfig, SchedResult, SmSlice, TimeQueue, TimelineEvent,
    TimelineIter, TimelineRecorder, WarpTimeline,
};
pub use trace::{Event, EventKind, Span, TraceSink, WarpTrace};
pub use warp::{ExecMode, Warp};

/// Maximum number of lanes in a warp the simulator supports.
pub const MAX_LANES: usize = 64;
