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

fn bench_tracing_overhead(c: &mut Criterion) {
    // The tracing acceptance bar: with tracing *disabled* the simulator
    // must run at its untraced speed (the sink is an `Option` checked only
    // at phase boundaries and event call sites). Compare `trace_off`
    // against `baseline` — they should agree within noise (±2 %); the
    // `trace_on` row shows the real cost of recording.
    let ds = paper_dataset(21, 0.005, 17);
    let mut g = c.benchmark_group("tracing_overhead");
    g.sample_size(10);
    let mut cfg = GpuConfig::for_device(DeviceId::A100);
    cfg.parallel = false;
    g.bench_function("baseline", |b| {
        b.iter(|| run_local_assembly(black_box(&ds), &cfg).profile.intops())
    });
    g.bench_function("trace_off", |b| {
        b.iter(|| run_local_assembly(black_box(&ds), &cfg).profile.intops())
    });
    let mut traced = cfg.clone();
    traced.trace = true;
    g.bench_function("trace_on", |b| {
        b.iter(|| {
            let r = run_local_assembly(black_box(&ds), &traced);
            (r.profile.intops(), r.traces.len())
        })
    });
    g.finish();
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

fn bench_fault_injection(c: &mut Criterion) {
    // The fault model's acceptance bar: threading `Result` plumbing and
    // the watchdog check through the kernel hot path must cost < 2 % on a
    // fault-free run (compare `fault_free` against the pre-fault-model
    // `launch_pooling/pooled` numbers measured in PR 6). The
    // `plan_unarmed` row carries a fault plan targeting a job id past the
    // end of the run — every per-job arming check executes, nothing
    // fires — and must match `fault_free` within noise; `plan_armed`
    // shows the real cost of one injected fault plus its escalation
    // retry.
    let ds = paper_dataset(21, 0.005, 11);
    let mut g = c.benchmark_group("fault_injection");
    g.sample_size(10);
    g.throughput(Throughput::Elements(ds.jobs.len() as u64));
    let mut cfg = GpuConfig::for_device(DeviceId::A100);
    cfg.parallel = false;
    g.bench_function("fault_free", |b| {
        b.iter(|| run_local_assembly(black_box(&ds), &cfg).profile.total.warps)
    });
    cfg.fault = Some(simt::FaultPlan::table_full(u64::MAX));
    g.bench_function("plan_unarmed", |b| {
        b.iter(|| run_local_assembly(black_box(&ds), &cfg).profile.total.warps)
    });
    cfg.fault = Some(simt::FaultPlan::table_full(0));
    g.bench_function("plan_armed", |b| {
        b.iter(|| {
            let r = run_local_assembly(black_box(&ds), &cfg);
            (r.profile.total.warps, r.outcomes.iter().filter(|o| o.succeeded()).count())
        })
    });
    g.finish();
}

fn bench_sanitizer_overhead(c: &mut Criterion) {
    // The sanitizer's acceptance bar: with every check *off* (the
    // default), the instrumented hot paths cost < 1 % against the
    // pre-sanitizer numbers measured in PR 6 — each hook is one
    // branch on an `Option<Box<SanState>>` that stays `None`. Compare
    // `sanitize_off` against `baseline` (they must agree within noise);
    // `sanitize_on` shows the real cost of shadow-memory tracking, which
    // is allowed to be expensive — it is an opt-in debugging mode that
    // models zero kernel instructions either way.
    let ds = paper_dataset(21, 0.005, 11);
    let mut g = c.benchmark_group("sanitizer_overhead");
    g.sample_size(10);
    g.throughput(Throughput::Elements(ds.jobs.len() as u64));
    let mut cfg = GpuConfig::for_device(DeviceId::A100);
    cfg.parallel = false;
    g.bench_function("baseline", |b| {
        b.iter(|| run_local_assembly(black_box(&ds), &cfg).profile.total.warps)
    });
    g.bench_function("sanitize_off", |b| {
        b.iter(|| run_local_assembly(black_box(&ds), &cfg).profile.total.warps)
    });
    cfg.sanitize = simt::SanitizerConfig::all();
    g.bench_function("sanitize_on", |b| {
        b.iter(|| {
            let r = run_local_assembly(black_box(&ds), &cfg);
            (r.profile.total.warps, r.san.findings.len(), r.san.lints.len())
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_devices,
    bench_construct_vs_walk_split,
    bench_tracing_overhead,
    bench_launch_pooling,
    bench_fault_injection,
    bench_sanitizer_overhead
);
criterion_main!(benches);
