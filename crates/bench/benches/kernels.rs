//! End-to-end simulated kernel runs: one bench per paper dataset/device
//! pairing (the Fig. 5 matrix at reduced scale). Criterion measures the
//! *simulator's* wall time; the simulated kernel seconds are what `repro
//! fig5` reports.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use gpu_specs::DeviceId;
use locassm_kernels::{run_local_assembly, GpuConfig};
use std::hint::black_box;
use workloads::paper_dataset;

fn bench_devices(c: &mut Criterion) {
    let mut g = c.benchmark_group("simulated_kernel");
    g.sample_size(10);
    for k in [21usize, 77] {
        let ds = paper_dataset(k, 0.005, 11);
        for dev in DeviceId::ALL {
            let mut cfg = GpuConfig::for_device(dev);
            // Criterion runs inside its own harness; keep the simulation
            // single-threaded for stable measurements.
            cfg.parallel = false;
            g.bench_with_input(
                BenchmarkId::new(dev.spec().short_name, k),
                &ds,
                |b, ds| b.iter(|| run_local_assembly(black_box(ds), &cfg).profile.intops()),
            );
        }
    }
    g.finish();
}

fn bench_construct_vs_walk_split(c: &mut Criterion) {
    // Sanity bench: the construct phase dominates instruction counts.
    let ds = paper_dataset(21, 0.002, 13);
    let mut cfg = GpuConfig::for_device(DeviceId::A100);
    cfg.parallel = false;
    c.bench_function("profile_phase_split", |b| {
        b.iter(|| {
            let p = run_local_assembly(black_box(&ds), &cfg).profile;
            (p.phases.construct.int_instructions, p.phases.walk.int_instructions)
        })
    });
}

fn bench_launch_pooling(c: &mut Criterion) {
    // The pooled launch engine's throughput bar: `pooled` must stay within
    // noise of `fresh` on wall clock (kernel simulation dominates at this
    // scale; the engine's win is allocator traffic — ~46% fewer heap
    // allocations and ~83% fewer bytes per warp, measured in PR 6 with
    // the counting global allocator; `tests/host_throughput.rs` holds the
    // bar). Results are bit-identical either way — see the equivalence
    // tests in locassm-kernels.
    let ds = paper_dataset(21, 0.005, 11);
    let mut g = c.benchmark_group("launch_pooling");
    g.sample_size(10);
    g.throughput(Throughput::Elements(ds.jobs.len() as u64));
    let mut cfg = GpuConfig::for_device(DeviceId::A100);
    cfg.parallel = false;
    cfg.pool = false;
    g.bench_function("fresh", |b| {
        b.iter(|| run_local_assembly(black_box(&ds), &cfg).profile.total.warps)
    });
    cfg.pool = true;
    g.bench_function("pooled", |b| {
        b.iter(|| run_local_assembly(black_box(&ds), &cfg).profile.total.warps)
    });
    g.finish();
}

criterion_group!(benches, bench_devices, bench_construct_vs_walk_split, bench_launch_pooling);
criterion_main!(benches);
