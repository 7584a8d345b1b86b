//! Scheduled-mode timelines are stored packed: one byte per recorded
//! event, plus a continuation byte per further 5-bit chunk of a gap of
//! 32 or more instructions, sealed exact-size, so a launch holding every
//! warp's timeline until the replay costs ~1 B per memory touch.

use locassm::core::BinningPolicy;
use locassm::kernels::kernel::extension_kernel;
use locassm::kernels::{plan_launches, GpuConfig};
use locassm::simt::{launch_warps, ExecMode, LaunchConfig};
use locassm::specs::DeviceId;
use locassm::workloads::paper_dataset;

/// Per-warp allowance for the sealed word vectors.
const SLACK_BYTES_PER_WARP: usize = 16;
/// Bytes per decoded event, continuation bytes included.
const BYTES_PER_EVENT: f64 = 1.05;

/// Heap bytes a sealed word vector holds.
fn heap_bytes<T>(words: &Vec<T>) -> usize {
    words.capacity() * std::mem::size_of::<T>()
}

#[test]
fn scheduled_launch_timelines_cost_about_one_byte_per_event() {
    let ds = paper_dataset(77, 0.002, 99);
    let cfg =
        GpuConfig { binning: BinningPolicy::Single, ..GpuConfig::for_device(DeviceId::Mi250x) };
    // One bin: the first launch is every contig's right side.
    let launch = &plan_launches(&ds, &cfg)[0];
    let jobs = launch.kernel_jobs(&ds, &cfg);
    assert!(jobs.len() > 1, "the dataset must launch several warps");
    let launch_cfg = LaunchConfig {
        width: cfg.width,
        hierarchy: launch.hierarchy,
        parallel: true,
        trace: false,
        pool: cfg.pool,
        arena_hint: launch.arena_hint,
        fault: None,
        fault_base: 0,
        sanitize: Default::default(),
        exec: ExecMode::Scheduled,
    };
    let out = launch_warps(launch_cfg, &jobs, extension_kernel);
    assert_eq!(out.timelines.len(), jobs.len(), "one timeline per warp");

    let events: usize = out.timelines.iter().map(|t| t.iter().count()).sum();
    let bytes: usize = out.timelines.iter().map(|t| heap_bytes(&t.events)).sum();
    assert!(events > 1000, "the launch must record memory traffic, got {events} events");
    let budget = BYTES_PER_EVENT * events as f64 + (SLACK_BYTES_PER_WARP * jobs.len()) as f64;
    assert!(
        bytes as f64 <= budget,
        "sealed timelines hold {bytes} B for {events} events ({:.4} B/event), budget {budget:.0} B",
        bytes as f64 / events as f64
    );
    for t in &out.timelines {
        assert!(t.iter().all(|e| match e {
            locassm::simt::TimelineEvent::Mem { at, .. }
            | locassm::simt::TimelineEvent::PhaseEnter { at, .. }
            | locassm::simt::TimelineEvent::PhaseExit { at } => at <= t.total_instructions,
        }));
    }
}
