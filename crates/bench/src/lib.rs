//! Benchmark harness crate: see `src/bin/repro.rs` for the table/figure
//! regeneration binary and [`modeled`] for the deterministic scenarios
//! behind the committed `BENCH_modeled.json` golden, which tier-1 diffs
//! exactly.
//!
//! Every binary and test in this crate runs under [`alloc_count`]'s
//! counting global allocator so allocation deltas (the pooled engine's
//! whole point) are measurable, not just wall clock.

pub mod alloc_count;
pub mod cli;
pub mod modeled;

#[global_allocator]
static GLOBAL: alloc_count::CountingAlloc = alloc_count::CountingAlloc;
