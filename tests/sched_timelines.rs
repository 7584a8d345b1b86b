//! Scheduled-mode timelines are stored packed: one 4-byte word per
//! recorded event, sealed exact-size, so a launch holding every warp's
//! timeline until the replay costs ~4 B per memory touch.

use locassm::kernels::kernel::{extension_kernel, KernelJob};
use locassm::kernels::layout::arena_footprint;
use locassm::kernels::GpuConfig;
use locassm::simt::{launch_warps, ExecMode, LaunchConfig};
use locassm::specs::{effective_hierarchy, DeviceId};
use locassm::workloads::paper_dataset;

/// Per-warp allowance over 4 B × events for the sealed word vectors.
const SLACK_BYTES_PER_WARP: usize = 16;

#[test]
fn scheduled_launch_timelines_cost_four_bytes_per_event() {
    let ds = paper_dataset(77, 0.002, 99);
    let cfg = GpuConfig::for_device(DeviceId::Mi250x);
    let schedule = cfg.retry.schedule(ds.k);
    let jobs: Vec<KernelJob<'_>> = ds
        .jobs
        .iter()
        .filter(|j| j.contig.len() >= ds.k && !j.right_reads.is_empty())
        .map(|j| {
            KernelJob::borrowed(&j.contig, &j.right_reads, ds.k, cfg.walk, &cfg.retry, cfg.dialect)
        })
        .collect();
    assert!(jobs.len() > 1, "the dataset must launch several warps");
    let arena_hint = jobs
        .iter()
        .map(|j| {
            arena_footprint(
                j.contig.len(),
                &j.reads,
                &schedule,
                j.walk,
                j.slot_reserve,
                j.layout,
                j.resize,
            )
        })
        .max()
        .unwrap_or(0);
    let launch_cfg = LaunchConfig {
        width: cfg.width,
        hierarchy: effective_hierarchy(cfg.spec(), jobs.len() as u64),
        parallel: true,
        trace: false,
        pool: cfg.pool,
        arena_hint,
        fault: None,
        fault_base: 0,
        sanitize: Default::default(),
        exec: ExecMode::Scheduled,
    };
    let out = launch_warps(launch_cfg, &jobs, extension_kernel);
    assert_eq!(out.timelines.len(), jobs.len(), "one timeline per warp");

    let words: usize = out.timelines.iter().map(|t| t.events.len()).sum();
    let capacity: usize = out.timelines.iter().map(|t| t.events.capacity()).sum();
    assert!(words > 1000, "the launch must record memory traffic, got {words} words");
    assert!(
        capacity * 4 <= words * 4 + SLACK_BYTES_PER_WARP * out.timelines.len(),
        "sealed timelines keep growth slack: capacity {capacity} words for {words} recorded"
    );
    for t in &out.timelines {
        // Real gaps are far below 2^29 instructions, so no word is a
        // continuation and the word count is the event count.
        assert_eq!(t.events.len(), t.iter().count(), "warp {}: continuation words", t.warp_id);
        assert!(t.iter().all(|e| match e {
            locassm::simt::TimelineEvent::Mem { at, .. }
            | locassm::simt::TimelineEvent::PhaseEnter { at, .. }
            | locassm::simt::TimelineEvent::PhaseExit { at } => at <= t.total_instructions,
        }));
    }
}
