//! Warp-sanitizer system tests: the tier-1 `sanitizer_clean` gate and
//! detection coverage for each seeded defect class.
//!
//! The gate runs every kernel dialect on every dataset size with all
//! checks enabled and requires **zero findings** — the paper's kernels
//! are race-free by construction (ordered by `__match_any_sync` +
//! `__syncwarp`, wavefront lockstep, or sub-group barriers), so any
//! finding is a regression in the kernels or a false positive in the
//! sanitizer, and both must be fixed. Lints (access-pattern diagnostics)
//! are allowed: probe chains legitimately scatter.
//!
//! The detection half seeds one defect of each class and requires the
//! matching check to fire — the sanitizer's own regression suite.

use locassm_kernels::layout::{DeviceJob, OFF_KEY_LEN, OFF_KEY_OFF};
use locassm_kernels::probe::InsertArgs;
use locassm_kernels::{run_local_assembly, GpuConfig};
use memhier::HierarchyConfig;
use gpu_specs::DeviceId;
use locassm_core::walk::WalkConfig;
use locassm_core::Read;
use simt::{LaneVec, Mask, SanitizerConfig, Warp};
use workloads::paper_dataset;

const KS: [usize; 4] = [21, 33, 55, 77];

/// Tier-1 gate: three dialects × four datasets under the full sanitizer,
/// zero findings everywhere — and the sanitized run's results and modeled
/// counters are bit-identical to the plain run's.
#[test]
fn sanitizer_clean_three_dialects_four_datasets() {
    for k in KS {
        let ds = paper_dataset(k, 0.002, 7);
        for device in [DeviceId::A100, DeviceId::Mi250x, DeviceId::Max1550] {
            let mut cfg = GpuConfig::for_device(device);
            let plain = run_local_assembly(&ds, &cfg);
            cfg.sanitize = SanitizerConfig::all();
            let run = run_local_assembly(&ds, &cfg);
            assert!(
                run.san.is_clean(),
                "k={k} {device} ({}): expected zero findings, got {:?}",
                cfg.dialect,
                run.san.findings
            );
            assert_eq!(run.extensions, plain.extensions, "k={k} {device}: results");
            assert_eq!(run.profile.total, plain.profile.total, "k={k} {device}: counters");
        }
    }
}

fn sanitized_warp(width: u32) -> Warp {
    let mut w = Warp::new(width, HierarchyConfig::tiny());
    w.enable_sanitizer(SanitizerConfig::all());
    w
}

/// Seeded defect class 1: two lanes store the same word within one warp
/// step, no ordering collective between them.
#[test]
fn detects_injected_lane_race() {
    let mut w = sanitized_warp(32);
    let a = w.mem.alloc(4);
    let vals = LaneVec::from_fn(32, |l| l);
    w.store_u32(Mask(0b11), &LaneVec::splat(a), &vals);
    let r = w.take_san_report().unwrap();
    assert_eq!(r.count("lane_race"), 1, "{:?}", r.findings);

    // Control: the same two stores separated by a syncwarp are ordered.
    let mut w = sanitized_warp(32);
    let a = w.mem.alloc(4);
    w.store_u32(Mask(0b01), &LaneVec::splat(a), &vals);
    w.syncwarp(Mask(0b11));
    w.store_u32(Mask(0b10), &LaneVec::splat(a), &vals);
    let r = w.take_san_report().unwrap();
    assert_eq!(r.count("lane_race"), 0, "ordered stores are not a race");
}

/// Seeded defect class 2: `__syncwarp` naming lanes that executed nothing
/// since the last convergence point.
#[test]
fn detects_divergent_barrier() {
    let mut w = sanitized_warp(32);
    w.iop(Mask(0b11), 1); // only lanes 0-1 are live...
    w.syncwarp(Mask(0b1111)); // ...but the barrier claims lanes 0-3
    let r = w.take_san_report().unwrap();
    assert_eq!(r.count("divergent_barrier"), 1, "{:?}", r.findings);

    // Control: a barrier over exactly the live lanes is clean.
    let mut w = sanitized_warp(32);
    w.iop(Mask(0b1111), 1);
    w.syncwarp(Mask(0b1111));
    let r = w.take_san_report().unwrap();
    assert!(r.is_clean(), "{:?}", r.findings);
}

/// Seeded defect class 3: a shuffle reading from a source lane outside
/// the active mask (undefined on hardware), and one beyond the width.
#[test]
fn detects_inactive_and_out_of_range_shuffle_source() {
    let mut w = sanitized_warp(32);
    let vals = LaneVec::from_fn(32, |l| l);
    let _ = w.shfl_u32(Mask(0b11), &vals, 5); // lane 5 is not active
    let _ = w.shfl_u32(Mask(0b11), &vals, 40); // beyond width 32
    let _ = w.shfl_u32(Mask(0b11), &vals, 1); // clean
    let r = w.take_san_report().unwrap();
    assert_eq!(r.count("shfl_inactive_src"), 1, "{:?}", r.findings);
    assert_eq!(r.count("shfl_src_out_of_range"), 1, "{:?}", r.findings);
    assert_eq!(r.findings.len(), 2);
}

fn staged_job(warp: &mut Warp) -> DeviceJob {
    let reads = vec![Read::with_uniform_qual(b"ACGTACGTACGT", b'I')];
    DeviceJob::stage(warp, b"ACGTACGTACGT", &reads, 4, WalkConfig::default(), 1).unwrap()
}

/// Seeded defect class 4: two occupied slots holding the same key — the
/// corruption a lost claim/collision vote would produce. The post-
/// construct invariant scan must name both slots.
#[test]
fn detects_duplicate_key_insert() {
    let mut w = sanitized_warp(32);
    let mut job = staged_job(&mut w);

    // A genuine insert claims one slot for the k-mer at read offset 0...
    let args = InsertArgs {
        mask: Mask::lane(0),
        key_off: LaneVec::splat(0u32),
        hash: LaneVec::splat(2u32),
    };
    let slots = locassm_kernels::insert_cuda::ht_get_atomic(&mut w, &mut job, &args).unwrap();
    // ...then a doctored second slot claims the same key bytes.
    let dup = (slots[0] + 3) % job.slots;
    w.mem.write_u32(job.entry_field(dup, OFF_KEY_LEN), 4);
    w.mem.write_u32(job.entry_field(dup, OFF_KEY_OFF), 0);

    let found = locassm_kernels::layout::check_table_invariants(&w, &job);
    assert_eq!(found.len(), 1, "{found:?}");
    assert!(matches!(found[0], simt::SanKind::DuplicateKey { .. }), "{found:?}");
    for kind in found {
        w.san_record(kind);
    }
    let r = w.take_san_report().unwrap();
    assert_eq!(r.count("duplicate_key"), 1);
}

/// Seeded defect class: a live entry that survived in *both* regions'
/// slots after a migration (copied but never retired) — the occupancy
/// scan disagrees with the migration counter, and the duplicated key is
/// named too.
#[test]
fn detects_migrated_twice_slot() {
    let mut w = sanitized_warp(32);
    let mut job = staged_job(&mut w);
    job.resize = true;
    let args = InsertArgs {
        mask: Mask::lane(0),
        key_off: LaneVec::splat(0u32),
        hash: LaneVec::splat(2u32),
    };
    let slots = locassm_kernels::insert_cuda::ht_get_atomic(&mut w, &mut job, &args).unwrap();
    // Clone the live entry into a second slot, as a migration that copied
    // it but never retired the source would.
    let twin = (slots[0] + 5) % job.slots;
    for word in 0..(locassm_kernels::layout::ENTRY_STRIDE / 4) {
        let v = w.mem.read_u32(job.entry_field(slots[0], 4 * word));
        w.mem.write_u32(job.entry_field(twin, 4 * word), v);
    }

    let found = locassm_kernels::layout::check_table_invariants(&w, &job);
    for kind in found {
        w.san_record(kind);
    }
    let r = w.take_san_report().unwrap();
    assert_eq!(r.count("migration_mismatch"), 1, "{:?}", r.findings);
    assert_eq!(r.count("duplicate_key"), 1, "the cloned key is named as well");
}

/// Seeded defect class 5: a probe chain wrapping a (lied-about) 4-slot
/// table — the wrap guard faults *and* the sanitizer records the wrap.
#[test]
fn detects_probe_wrap_on_full_table() {
    let mut w = sanitized_warp(32);
    let seq: Vec<u8> = (0..160).map(|i| b"ACGT"[(i * 7 + i / 4) % 4]).collect();
    let reads = vec![Read::with_uniform_qual(&seq, b'I')];
    let mut job =
        DeviceJob::stage(&mut w, b"ACGTACGTACGT", &reads, 8, WalkConfig::default(), 1).unwrap();
    job.slots = 4;
    let mut faulted = false;
    for off in 0..8u32 {
        let args = InsertArgs {
            mask: Mask::lane(0),
            key_off: LaneVec::splat(off),
            hash: LaneVec::splat(off % 4),
        };
        if locassm_kernels::insert_cuda::ht_get_atomic(&mut w, &mut job, &args).is_err() {
            faulted = true;
            break;
        }
    }
    assert!(faulted, "the 5th distinct key must overflow the 4-slot table");
    let r = w.take_san_report().unwrap();
    assert_eq!(r.count("probe_wrap"), 1, "{:?}", r.findings);
}

/// The sanitizer's findings ride the trace stream too: a seeded race in a
/// traced, sanitized warp emits a `san_finding` instant event that the
/// Chrome exporter renders with its check name.
#[test]
fn findings_surface_as_trace_events() {
    let mut w = Warp::new(32, HierarchyConfig::tiny());
    w.enable_trace(0);
    w.enable_sanitizer(SanitizerConfig::all());
    let a = w.mem.alloc(4);
    let vals = LaneVec::from_fn(32, |l| l);
    w.store_u32(Mask(0b11), &LaneVec::splat(a), &vals);
    let trace = w.take_trace().unwrap();
    let hits: Vec<_> = trace
        .events
        .iter()
        .filter(|e| matches!(e.kind, simt::EventKind::SanFinding { check } if check == "lane_race"))
        .collect();
    assert_eq!(hits.len(), 1, "one san_finding event for the seeded race");
    let json = perfmodel::chrome_trace(std::slice::from_ref(&trace));
    assert!(json.contains("san_finding"), "exported timeline names the event");
    assert!(json.contains("lane_race"), "exported args carry the check name");
}
