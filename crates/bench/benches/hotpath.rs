//! The warp hot path: scalar vs vectorized interpreter throughput.
//!
//! Two groups of profiling evidence for the lane-vectorization work:
//!
//! * `hotpath_exec` — full simulated kernel runs, `scalar` vs
//!   `vectorized`, one pair per dialect on its native device. The
//!   acceptance bar (vectorized ≥ 1.15× scalar on CUDA/A100) is enforced
//!   by `crates/bench/tests/host_throughput.rs`; this group shows the margin.
//! * `warp_reset` — the micro-cost behind the pooled-path fix: resetting
//!   a dirty pooled warp is O(1) bookkeeping under lazy arena zeroing,
//!   versus constructing a fresh warp with its zeroed slab.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gpu_specs::DeviceId;
use locassm_kernels::{run_local_assembly, GpuConfig};
use memhier::HierarchyConfig;
use simt::{ExecMode, Warp};
use std::hint::black_box;
use workloads::paper_dataset;

fn bench_exec_modes(c: &mut Criterion) {
    let ds = paper_dataset(21, 0.005, 11);
    let mut g = c.benchmark_group("hotpath_exec");
    g.sample_size(10);
    for dev in [DeviceId::A100, DeviceId::Mi250x, DeviceId::Max1550] {
        let mut cfg = GpuConfig::for_device(dev);
        // Criterion runs inside its own harness; keep the simulation
        // single-threaded for stable measurements.
        cfg.parallel = false;
        cfg.exec = ExecMode::Scalar;
        g.bench_with_input(
            BenchmarkId::new("scalar", dev.spec().short_name),
            &ds,
            |b, ds| b.iter(|| run_local_assembly(black_box(ds), &cfg).profile.total.warps),
        );
        cfg.exec = ExecMode::Vectorized;
        g.bench_with_input(
            BenchmarkId::new("vectorized", dev.spec().short_name),
            &ds,
            |b, ds| b.iter(|| run_local_assembly(black_box(ds), &cfg).profile.total.warps),
        );
    }
    g.finish();
}

fn bench_warp_reset(c: &mut Criterion) {
    let mut g = c.benchmark_group("warp_reset");
    let hier = HierarchyConfig::tiny();
    g.bench_function("fresh_construct", |b| {
        b.iter(|| black_box(Warp::new(32, hier.clone())))
    });
    let mut warp = Warp::new(32, hier.clone());
    g.bench_function("pooled_reset", |b| {
        b.iter(|| {
            warp.reset(32, hier.clone());
            black_box(warp.width())
        })
    });
    g.finish();
}

criterion_group!(benches, bench_exec_modes, bench_warp_reset);
criterion_main!(benches);
