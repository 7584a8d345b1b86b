//! Table-layout system tests: the layout matrix (every layout × every
//! dialect × every paper dataset, CPU-oracle bit-equal under the full
//! sanitizer), the tier-1 load-factor gate, and the acceptance test for
//! the iceberg backyard's real headroom — a workload whose violated slot
//! estimate pushes the linear layout into the grown-reserve escalation
//! ladder completes fault-free on iceberg.

use locassm::core::io::Dataset;
use locassm::core::{assemble_all, AssemblyConfig, ContigJob, Read, RetryPolicy};
use locassm::kernels::{
    job_order, plan_launches, run_local_assembly, GpuConfig, JobOutcome, TableLayoutKind,
};
use locassm::specs::DeviceId;
use locassm::workloads::paper_dataset;
use simt::{FaultPlan, SanitizerConfig};

const DEVICES: [DeviceId; 3] = [DeviceId::A100, DeviceId::Mi250x, DeviceId::Max1550];

/// The full matrix: three dialects × four paper datasets × every table
/// layout, all checks enabled — zero sanitizer findings and extensions
/// bit-identical to the CPU oracle everywhere. The oracle knows nothing
/// about table organization, which is exactly the point: a layout changes
/// probe order and capacity, never extensions (invariant 8).
#[test]
fn layout_matrix_is_oracle_exact_and_sanitizer_clean() {
    for k in [21usize, 33, 55, 77] {
        let ds = paper_dataset(k, 0.002, 7);
        let walk = GpuConfig::for_device(DeviceId::A100).walk;
        let cpu = assemble_all(
            &ds.jobs,
            &AssemblyConfig { k, walk, retry: RetryPolicy::none() },
            true,
        );
        for device in DEVICES {
            for layout in TableLayoutKind::ALL {
                let mut cfg = GpuConfig::for_device(device);
                cfg.layout = layout;
                cfg.sanitize = SanitizerConfig::all();
                let run = run_local_assembly(&ds, &cfg);
                assert!(
                    run.san.is_clean(),
                    "k={k} {device} layout={layout}: findings {:?}",
                    run.san.findings
                );
                assert_eq!(
                    run.extensions, cpu,
                    "k={k} {device} layout={layout}: CPU oracle mismatch"
                );
                assert!(run.outcomes.iter().all(|o| o.succeeded()), "k={k} {layout}");
            }
        }
    }
}

/// Aggregate staged slots and distinct keys over every job side the
/// launch plan runs — the host-side view of each layout's capacity.
fn capacity(ds: &Dataset, layout: TableLayoutKind) -> (u64, u64) {
    let cfg = GpuConfig { layout, ..GpuConfig::for_device(DeviceId::A100) };
    let lay = layout.as_layout();
    let mut slots = 0u64;
    let mut distinct = 0u64;
    for (idx, side) in job_order(&plan_launches(ds, &cfg)) {
        let reads = side.reads(&ds.jobs[idx]);
        let ins: usize = reads.iter().map(|r| r.kmer_count(ds.k)).sum();
        slots += lay.geometry(ins, 1, 0).expect("dataset insertions fit u32").slots as u64;
        let keys: std::collections::HashSet<&[u8]> =
            reads.iter().flat_map(|r| r.seq.windows(ds.k)).collect();
        distinct += keys.len() as u64;
    }
    (slots, distinct)
}

/// Tier-1 load-factor gate. On a repeat-heavy dataset (each read list
/// duplicated 4×, so insertions ≫ distinct keys) the bucketed and
/// iceberg layouts hold the same content in fewer slots than linear —
/// a strictly higher sustained load factor — without a single
/// `HashTableFull`, and with bit-identical extensions.
#[test]
fn bucketed_and_iceberg_sustain_higher_load_factor_fault_free() {
    let mut ds = paper_dataset(21, 0.002, 7);
    for job in &mut ds.jobs {
        let r = job.right_reads.clone();
        let l = job.left_reads.clone();
        for _ in 0..3 {
            job.right_reads.extend(r.iter().cloned());
            job.left_reads.extend(l.iter().cloned());
        }
    }

    let load = |layout: TableLayoutKind| {
        let (slots, distinct) = capacity(&ds, layout);
        assert!(slots > 0 && distinct > 0);
        distinct as f64 / slots as f64
    };
    let linear = load(TableLayoutKind::LinearProbe);
    let bucketed = load(TableLayoutKind::Bucketed);
    let iceberg = load(TableLayoutKind::Iceberg);
    assert!(
        bucketed > linear,
        "bucketed load factor {bucketed:.3} must beat linear {linear:.3}"
    );
    assert!(
        iceberg > linear,
        "iceberg load factor {iceberg:.3} must beat linear {linear:.3}"
    );

    let mut baseline = None;
    for layout in TableLayoutKind::ALL {
        let mut cfg = GpuConfig::for_device(DeviceId::A100);
        cfg.layout = layout;
        let run = run_local_assembly(&ds, &cfg);
        assert!(
            run.outcomes.iter().all(|o| *o == JobOutcome::Ok),
            "layout {layout}: the tighter table must hold without HashTableFull"
        );
        match &baseline {
            None => baseline = Some(run.extensions),
            Some(b) => assert_eq!(&run.extensions, b, "layout {layout}: extensions"),
        }
    }
}

/// A deterministic pseudo-random DNA sequence (fixed data, no RNG).
fn scrambled_seq(len: usize) -> Vec<u8> {
    let mut x = 0x2545_f491u32;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            b"ACGT"[(x % 4) as usize]
        })
        .collect()
}

/// Acceptance test for the iceberg backyard: the same violated slot
/// estimate (table squeezed to a third) that pushes the linear layout
/// into the grown-reserve escalation ladder is absorbed by the iceberg
/// backyard — every job `Ok`, no retries, extensions bit-identical to
/// the clean run. Grown-reserve escalation has become a last resort.
#[test]
fn iceberg_backyard_absorbs_what_escalates_linear() {
    let seq = scrambled_seq(100);
    let job = ContigJob::new(0, seq[..21].to_vec(), vec![Read::with_uniform_qual(&seq, b'I')], vec![]);
    let ds = Dataset::new(21, vec![job]);

    let run = |layout: TableLayoutKind, squeeze: bool| {
        let mut cfg = GpuConfig::for_device(DeviceId::A100);
        cfg.layout = layout;
        if squeeze {
            cfg.fault = Some(FaultPlan::table_squeeze(0, 3));
        }
        run_local_assembly(&ds, &cfg)
    };

    let clean = run(TableLayoutKind::LinearProbe, false);
    assert_eq!(clean.outcomes[0], JobOutcome::Ok);

    // Linear: the squeezed table overflows, the launch layer escalates.
    let linear = run(TableLayoutKind::LinearProbe, true);
    assert_eq!(
        linear.outcomes[0],
        JobOutcome::Recovered { attempts: 1 },
        "the squeezed linear table must enter the grown-reserve ladder"
    );

    // Iceberg: the backyard absorbs the overflow — no fault, no retry.
    let iceberg = run(TableLayoutKind::Iceberg, true);
    assert_eq!(
        iceberg.outcomes[0],
        JobOutcome::Ok,
        "the iceberg backyard must absorb the same violated estimate"
    );
    assert_eq!(iceberg.extensions, clean.extensions, "fault-free and bit-exact");
}

/// Tier-1 acceptance for in-kernel incremental resizing: the same
/// long-tail workload whose squeezed slot estimate pushes the linear
/// layout into the grown-reserve escalation ladder completes with *zero*
/// escalation attempts once resizing is armed — the warp grows the table
/// past its high-water mark mid-insert instead of faulting
/// `HashTableFull`. Every layout stays `Ok` (not `Recovered`), and
/// extensions are bit-identical to the unsqueezed clean run.
#[test]
fn in_kernel_resize_retires_the_escalation_ladder() {
    let seq = scrambled_seq(100);
    let job = ContigJob::new(0, seq[..21].to_vec(), vec![Read::with_uniform_qual(&seq, b'I')], vec![]);
    let ds = Dataset::new(21, vec![job]);

    let run = |layout: TableLayoutKind, squeeze: bool, resize: bool| {
        let mut cfg = GpuConfig::for_device(DeviceId::A100);
        cfg.layout = layout;
        cfg.resize = resize;
        if squeeze {
            cfg.fault = Some(FaultPlan::table_squeeze(0, 3));
        }
        run_local_assembly(&ds, &cfg)
    };

    // Baseline: without resizing, the squeezed linear table escalates.
    let clean = run(TableLayoutKind::LinearProbe, false, false);
    assert_eq!(clean.outcomes[0], JobOutcome::Ok);
    let escalated = run(TableLayoutKind::LinearProbe, true, false);
    assert_eq!(
        escalated.outcomes[0],
        JobOutcome::Recovered { attempts: 1 },
        "without resizing the squeezed table must still enter the ladder"
    );

    // With resizing armed: zero Recovered outcomes anywhere.
    for layout in TableLayoutKind::ALL {
        let resized = run(layout, true, true);
        assert_eq!(
            resized.outcomes[0],
            JobOutcome::Ok,
            "layout {layout}: in-kernel resize must absorb the squeeze with zero \
             escalation attempts"
        );
        assert_eq!(
            resized.extensions, clean.extensions,
            "layout {layout}: resizing changes capacity, never extensions"
        );
    }
}

/// Regression for the tail-chunk clamp: a k-mer ending exactly at a
/// reads buffer end that is not a multiple of 4 (here 18 bytes, k = 15 —
/// the final chunk would read bytes 15..19 unclamped). Every dialect and
/// every layout must stay CPU-oracle-exact and sanitizer-clean while the
/// clamped loads keep modeled traffic inside the buffer.
#[test]
fn tail_kmer_at_unaligned_buffer_end_is_exact_everywhere() {
    let seq = scrambled_seq(18);
    let job = ContigJob::new(0, seq[..15].to_vec(), vec![Read::with_uniform_qual(&seq, b'I')], vec![]);
    let ds = Dataset::new(15, vec![job]);
    let walk = GpuConfig::for_device(DeviceId::A100).walk;
    let cpu = assemble_all(
        &ds.jobs,
        &AssemblyConfig { k: 15, walk, retry: RetryPolicy::none() },
        true,
    );
    for device in DEVICES {
        for layout in TableLayoutKind::ALL {
            let mut cfg = GpuConfig::for_device(device);
            cfg.layout = layout;
            cfg.sanitize = SanitizerConfig::all();
            let run = run_local_assembly(&ds, &cfg);
            assert!(run.san.is_clean(), "{device} {layout}: {:?}", run.san.findings);
            assert_eq!(run.extensions, cpu, "{device} {layout}");
        }
    }
}
