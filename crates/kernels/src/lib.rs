//! # locassm-kernels — the GPU local assembly kernel, three dialects
//!
//! Warp-synchronous transcriptions of the paper's kernel (Fig. 4,
//! Appendix A), executed on the `simt` simulator:
//!
//! * [`insert_cuda`] — `ht_get_atomic` via `atomicCAS` +
//!   `__match_any_sync` + `__syncwarp(mask)` (the original optimized CUDA
//!   path, warp width 32),
//! * [`insert_hip`] — the HIP port: no `__match_any_sync` on CDNA, so a
//!   per-lane `done` flag with `__all(done)` loop termination
//!   (wavefront width 64),
//! * [`insert_sycl`] — the SYCL port: sub-group `barrier()` per probe
//!   round (sub-group width 16).
//!
//! [`construct`] drives warp-parallel hash-table construction
//! (Algorithm 1), [`walk`] the single-lane mer-walk with shuffle broadcast
//! (Algorithm 2), [`kernel`] composes them into the right/left extension
//! kernels, and [`launch`] is the host pipeline of Fig. 3 (binning → size
//! estimation → batching → kernel calls, planned up front by
//! [`plan_launches`]), producing a [`profile::KernelProfile`] with the
//! counters the paper collects via `ncu`/`rocprof`/Advisor.

pub mod construct;
pub mod fault;
pub mod insert_cuda;
pub mod insert_hip;
pub mod insert_sycl;
pub mod kernel;
pub mod launch;
pub mod layout;
pub mod probe;
pub mod profile;
pub mod resize;
pub mod table;
pub mod walk;

pub use fault::{JobOutcome, KernelFault};
pub use kernel::Dialect;
pub use launch::{
    dialect_sanitizer, job_order, plan_launches, run_local_assembly, GpuConfig, GpuRunResult,
    PlannedLaunch, Side,
};
pub use probe::ProbeStrategy;
pub use resize::{ensure_capacity, MAX_RESIZES};
pub use table::{TableGeometry, TableLayout, TableLayoutKind};
pub use profile::{KernelProfile, PhaseCounters, PhaseStats, SchedProfile, TraceProfile};
