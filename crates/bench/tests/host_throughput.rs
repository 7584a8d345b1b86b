//! Host-side bars for the launch engine: pooled warps cut heap traffic per
//! warp, the vectorized interpreter beats the scalar baseline, and pooling
//! never costs wall clock. The benchmark package (`benchmark/`) reports
//! the same quantities per workload (`contigs_per_s`,
//! `simt.allocs_per_warp`, `simt.alloc_bytes_per_warp`,
//! `simt.pool_reuse_frac`); these tests keep the floors under `cargo test`.
//!
//! Both tests read process-global allocator counters and wall clock, so
//! each holds `alloc_count::measurement_lock` for its whole window.

use gpu_specs::DeviceId;
use locassm_bench::alloc_count::{self, measurement_lock};
use locassm_core::io::Dataset;
use locassm_kernels::{run_local_assembly, GpuConfig};
use simt::ExecMode;
use std::time::Instant;
use workloads::paper_dataset;

/// One measured window: wall clock, warps simulated, heap calls and bytes.
#[derive(Debug, Clone, Copy)]
struct Sample {
    wall_s: f64,
    warps: u64,
    allocs: u64,
    bytes: u64,
}

/// `iterations` runs of `cfg` after an unmeasured warm-up, so pooled warps
/// are measured at steady state and fresh warps pay no first-touch costs.
fn measure(ds: &Dataset, cfg: &GpuConfig, iterations: u32) -> Sample {
    let _ = run_local_assembly(ds, cfg);
    let before = alloc_count::snapshot();
    let t0 = Instant::now();
    let warps = (0..iterations).map(|_| run_local_assembly(ds, cfg).profile.total.warps).sum();
    let wall_s = t0.elapsed().as_secs_f64();
    let d = alloc_count::snapshot().since(&before);
    Sample { wall_s, warps, allocs: d.allocs, bytes: d.bytes }
}

/// The round with the median wall time. Min-vs-min would reward whichever
/// variant caught the quietest window; the median compares typical rounds.
fn median(mut rounds: Vec<Sample>) -> Sample {
    rounds.sort_by(|a, b| a.wall_s.total_cmp(&b.wall_s));
    rounds[rounds.len() / 2]
}

/// Single-threaded A100 runs, so wall clock is stable and the allocation
/// window holds no scheduler-dependent interleaving.
fn a100(pool: bool, exec: ExecMode) -> GpuConfig {
    GpuConfig { parallel: false, pool, exec, ..GpuConfig::for_device(DeviceId::A100) }
}

fn per_warp(x: u64, s: &Sample) -> f64 {
    x as f64 / s.warps as f64
}

/// Pooled warps must cut heap allocations per warp by ≥ 20 % and heap
/// bytes per warp at all, on the paper's k = 21 dataset.
#[test]
fn pooled_engine_cuts_allocations_per_warp() {
    let _serial = measurement_lock();
    let ds = paper_dataset(21, 0.002, 42);
    let fresh = measure(&ds, &a100(false, ExecMode::Vectorized), 2);
    let pooled = measure(&ds, &a100(true, ExecMode::Vectorized), 2);
    assert!(fresh.warps > 0);
    assert_eq!(fresh.warps, pooled.warps, "same work in both modes");

    let (fresh_allocs, pooled_allocs) =
        (per_warp(fresh.allocs, &fresh), per_warp(pooled.allocs, &pooled));
    let reduction = (fresh_allocs - pooled_allocs) / fresh_allocs * 100.0;
    assert!(
        reduction >= 20.0,
        "pooling must cut allocations/warp by ≥20%: fresh {fresh_allocs:.1} → pooled \
         {pooled_allocs:.1} ({reduction:.1}%)"
    );
    let (fresh_bytes, pooled_bytes) =
        (per_warp(fresh.bytes, &fresh), per_warp(pooled.bytes, &pooled));
    assert!(
        pooled_bytes < fresh_bytes,
        "pooling must cut bytes/warp: fresh {fresh_bytes:.0} → pooled {pooled_bytes:.0}"
    );
}

/// On CUDA/A100 the vectorized interpreter must be ≥ 1.15× the scalar
/// fresh-warp baseline, and pooled scalar warps no slower than fresh ones.
/// Eleven interleaved rounds with a median keep both ratios robust to
/// background noise even in unoptimized test builds; five rounds let the
/// pooled ratio dip to 0.98× on a noisy 2-core host. Below scale ~0.005
/// fixed per-launch host work drowns the construct/walk phases the bar is
/// about.
#[test]
fn hot_path_meets_the_throughput_bars() {
    let _serial = measurement_lock();
    let ds = paper_dataset(21, 0.005, 42);
    let cfgs = [
        a100(false, ExecMode::Scalar),
        a100(true, ExecMode::Scalar),
        a100(true, ExecMode::Vectorized),
    ];
    let mut samples: [Vec<Sample>; 3] = Default::default();
    for _ in 0..11 {
        for (slot, cfg) in cfgs.iter().enumerate() {
            samples[slot].push(measure(&ds, cfg, 1));
        }
    }
    let [scalar, pooled, vectorized] = samples.map(median);
    assert_eq!(scalar.warps, pooled.warps, "same work in all variants");
    assert_eq!(scalar.warps, vectorized.warps, "same work in all variants");

    let vectorized_speedup = scalar.wall_s / vectorized.wall_s;
    assert!(
        vectorized_speedup >= 1.15,
        "vectorized must be ≥1.15x the scalar baseline, got {vectorized_speedup:.2}x \
         ({:.3}s vs {:.3}s)",
        vectorized.wall_s,
        scalar.wall_s
    );
    let pooled_speedup = scalar.wall_s / pooled.wall_s;
    assert!(
        pooled_speedup >= 1.0,
        "pooled must not be slower than fresh warps, got {pooled_speedup:.2}x \
         ({:.3}s vs {:.3}s)",
        pooled.wall_s,
        scalar.wall_s
    );
}
