//! # memhier — GPU memory-hierarchy simulator
//!
//! Models the part of a GPU memory subsystem that the paper's analysis
//! depends on: a two-level cache hierarchy (L1 per compute unit, a shared L2
//! slice) in front of HBM, with **sectored** cache lines and 32-byte HBM
//! transactions, plus a warp-level access **coalescer**.
//!
//! The simulator is a *traffic* model, not a timing model: it answers "how
//! many bytes moved between each pair of levels for this access stream",
//! which is exactly the quantity the paper extracts from `ncu`
//! (`dram__bytes.sum`), `rocprof` (`TCC_EA_*` request counts × 32/64 B) and
//! Intel Advisor. Timing is layered on top by `gpu-specs` — each access
//! additionally reports the deepest [`MemLevel`] it reached, the latency
//! class the scheduled-execution mode (`simt::sched`) converts into a
//! completion time.
//!
//! ## Structure
//!
//! * [`config`] — cache and hierarchy configuration,
//! * [`cache`] — one sectored, set-associative, LRU cache level,
//! * [`coalesce`] — warp access → unique-sector coalescing,
//! * [`hierarchy`] — the L1 → L2 → HBM stack with per-level counters,
//! * [`stats`] — counter containers that merge across warps.

pub mod cache;
pub mod coalesce;
pub mod config;
pub mod hierarchy;
pub mod stats;

pub use cache::Cache;
pub use coalesce::{coalesce_sectors, coalesce_sectors_into, CoalesceResult};
pub use config::{CacheConfig, HierarchyConfig};
pub use hierarchy::{AccessKind, MemHierarchy, MemLevel};
pub use stats::{LevelStats, MemStats};

/// Address within a simulated (per-warp) global-memory arena.
pub type Addr = u64;
