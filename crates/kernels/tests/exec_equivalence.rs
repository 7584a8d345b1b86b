//! Scalar/Vectorized/Scheduled bit-identity across the whole pipeline.
//!
//! `ExecMode::Vectorized` is a host-side interpreter fast path: batched
//! memory-hierarchy walks, skipped `LaneVec` construction on single-lane
//! accesses, and fingerprint-rejected probe compares. None of it may be
//! observable in modeled state. `ExecMode::Scheduled` rides the same fast
//! path and additionally records per-warp timelines for the event-driven
//! replay; the recorder is observational only, so every modeled result and
//! counter must still match Scalar bit for bit. This suite pins that
//! contract at full pipeline scope: all three dialects (via their native
//! devices), the four paper k presets, parallel and serial execution —
//! comparing extensions, fault outcomes, every aggregate counter, both
//! phase splits, full warp traces, and sanitizer reports.
//!
//! The only quantities allowed to differ under `Scheduled` are the modeled
//! seconds (the walk latency term comes from the replay instead of the
//! analytic formula) and `phases.sched` itself (absent in counter mode).
//!
//! A sanitized warp runs the reference route of every fast path that
//! needs per-access shadow checks, so the matrix above, which sanitizes
//! every run, never compares those fast paths with `Scalar`;
//! `unsanitized_fast_paths_match_the_sanitized_scalar_baseline` does.

use gpu_specs::DeviceId;
use locassm_kernels::{run_local_assembly, GpuConfig, GpuRunResult, JobOutcome, TableLayoutKind};
use simt::{EventKind, ExecMode, FaultPlan, SanitizerConfig, WarpTrace};
use workloads::paper_dataset;

const DEVICES: [DeviceId; 3] = [DeviceId::A100, DeviceId::Mi250x, DeviceId::Max1550];

fn run_mode(
    ds: &locassm_core::io::Dataset,
    device: DeviceId,
    parallel: bool,
    exec: ExecMode,
) -> GpuRunResult {
    let mut cfg = GpuConfig::for_device(device);
    cfg.parallel = parallel;
    cfg.trace = true;
    cfg.sanitize = SanitizerConfig::all();
    cfg.exec = exec;
    run_local_assembly(ds, &cfg)
}

/// Everything that must match between `a` and the Scalar baseline `sca`,
/// regardless of execution mode. Modeled seconds are pinned separately:
/// Vectorized must reproduce them exactly, Scheduled legitimately differs
/// (simulated latency term).
fn assert_modeled_state_identical(a: &GpuRunResult, sca: &GpuRunResult, tag: &str) {
    assert_eq!(a.extensions, sca.extensions, "{tag}: extensions");
    assert_eq!(a.outcomes, sca.outcomes, "{tag}: outcomes");
    assert_eq!(a.profile.total, sca.profile.total, "{tag}: aggregate counters");
    assert_eq!(
        a.profile.phases.construct, sca.profile.phases.construct,
        "{tag}: construct phase"
    );
    assert_eq!(a.profile.phases.walk, sca.profile.phases.walk, "{tag}: walk phase");
    assert_eq!(
        a.profile.phases.walk_budget, sca.profile.phases.walk_budget,
        "{tag}: walk budget"
    );
    assert_eq!(
        a.profile.phases.watchdog_trips, sca.profile.phases.watchdog_trips,
        "{tag}: watchdog trips"
    );
    assert_eq!(a.traces, sca.traces, "{tag}: warp traces");
    assert_eq!(a.san, sca.san, "{tag}: sanitizer reports");
}

fn assert_bit_identical(ds: &locassm_core::io::Dataset, device: DeviceId, parallel: bool, tag: &str) {
    let sca = run_mode(ds, device, parallel, ExecMode::Scalar);

    let vec = run_mode(ds, device, parallel, ExecMode::Vectorized);
    assert_modeled_state_identical(&vec, &sca, &format!("{tag} vectorized"));
    assert_eq!(vec.profile.seconds(), sca.profile.seconds(), "{tag}: modeled seconds");
    assert!(vec.profile.phases.sched.is_none(), "{tag}: counter-mode sched profile");

    let schd = run_mode(ds, device, parallel, ExecMode::Scheduled);
    assert_modeled_state_identical(&schd, &sca, &format!("{tag} scheduled"));
    assert_sched_profile_sane(&schd, &format!("{tag} scheduled"));
}

/// Issue-port ticks covered by a run's SM slices.
fn port_ticks(r: &GpuRunResult) -> u64 {
    r.sched_tracks.iter().map(|s| s.end - s.start).sum()
}

/// A traced Scheduled run must surface a replay profile with physically
/// sensible counters: at least one SM used, a finite positive makespan,
/// occupancy in (0, 1], a hidden fraction in [0, 1], a finite modeled
/// time, and SM slices that cover every busy tick.
fn assert_sched_profile_sane(r: &GpuRunResult, tag: &str) {
    let sched = r
        .profile
        .phases
        .sched
        .expect("scheduled runs must populate phases.sched");
    assert!(sched.sms_used > 0, "{tag}: sms_used");
    assert!(sched.residency > 0, "{tag}: residency");
    assert!(sched.makespan_ticks > 0, "{tag}: makespan");
    assert!(sched.busy_ticks > 0, "{tag}: busy ticks");
    let occ = sched.occupancy();
    assert!(occ > 0.0 && occ <= 1.0, "{tag}: occupancy {occ}");
    let hidden = sched.latency_hidden_fraction();
    assert!((0.0..=1.0).contains(&hidden), "{tag}: hidden fraction {hidden}");
    assert!(
        r.profile.seconds().is_finite() && r.profile.seconds() > 0.0,
        "{tag}: scheduled seconds"
    );
    assert_eq!(port_ticks(r), sched.busy_ticks, "{tag}: slices cover every busy tick");
}

/// The full matrix on the primary k = 21 preset: three dialects ×
/// parallel/serial × all three execution modes, traced and fully sanitized.
#[test]
fn exec_modes_bit_identical_all_dialects_k21() {
    let ds = paper_dataset(21, 0.002, 42);
    for device in DEVICES {
        for parallel in [true, false] {
            assert_bit_identical(&ds, device, parallel, &format!("{device} parallel={parallel}"));
        }
    }
}

/// The remaining paper presets (k ∈ {33, 55, 77}), each on every dialect
/// (serial keeps the launch order deterministic in the tag output; the
/// parallel half of the matrix is pinned above).
#[test]
fn exec_modes_bit_identical_remaining_k_presets() {
    for (k, seed) in [(33usize, 7u64), (55, 13), (77, 99)] {
        let ds = paper_dataset(k, 0.002, seed);
        for device in DEVICES {
            assert_bit_identical(&ds, device, false, &format!("k={k} {device}"));
        }
    }
}

/// The table-layout axis of the matrix: every layout × every dialect must
/// hold the same Scalar/Vectorized/Scheduled bit-identity the linear
/// default does — the vectorized fast path's fingerprint rejection and
/// the scheduled recorder know nothing about bucket boundaries, so a
/// divergence here means a layout leaked into modeled state.
#[test]
fn exec_modes_bit_identical_across_table_layouts() {
    let ds = paper_dataset(21, 0.002, 42);
    for layout in TableLayoutKind::ALL {
        for device in DEVICES {
            let tag = format!("layout={layout} {device}");
            let run = |exec| {
                let mut cfg = GpuConfig::for_device(device);
                cfg.parallel = false;
                cfg.trace = true;
                cfg.sanitize = SanitizerConfig::all();
                cfg.exec = exec;
                cfg.layout = layout;
                run_local_assembly(&ds, &cfg)
            };
            let sca = run(ExecMode::Scalar);
            let vec = run(ExecMode::Vectorized);
            assert_modeled_state_identical(&vec, &sca, &format!("{tag} vectorized"));
            assert_eq!(vec.profile.seconds(), sca.profile.seconds(), "{tag}: seconds");
            let schd = run(ExecMode::Scheduled);
            assert_modeled_state_identical(&schd, &sca, &format!("{tag} scheduled"));
            assert_sched_profile_sane(&schd, &format!("{tag} scheduled"));
        }
    }
}

/// Arming in-kernel resizing is free until a resize actually triggers:
/// on the paper dataset every host-side slot estimate holds, the
/// high-water mark is never crossed, and the pre-insert capacity check
/// charges no modeled work. A resize-armed run must therefore be
/// bit-identical — extensions, outcomes, every counter, traces,
/// sanitizer reports, and modeled seconds — to the resize-disabled run
/// on every device, in every execution mode.
#[test]
fn armed_but_untriggered_resize_is_bit_identical() {
    let ds = paper_dataset(21, 0.002, 42);
    for device in DEVICES {
        for exec in [ExecMode::Scalar, ExecMode::Vectorized] {
            let run = |resize| {
                let mut cfg = GpuConfig::for_device(device);
                cfg.parallel = false;
                cfg.trace = true;
                cfg.sanitize = SanitizerConfig::all();
                cfg.exec = exec;
                cfg.resize = resize;
                run_local_assembly(&ds, &cfg)
            };
            let off = run(false);
            let on = run(true);
            let tag = format!("resize-armed {device} {exec:?}");
            assert_modeled_state_identical(&on, &off, &tag);
            assert_eq!(on.profile.seconds(), off.profile.seconds(), "{tag}: seconds");
        }
    }
}

/// The replay is a deterministic function of the recorded timelines:
/// two Scheduled runs over the same dataset must agree on every sched
/// counter and on the modeled seconds, and the serial/parallel launch
/// paths must agree with each other (timelines merge in job order).
#[test]
fn scheduled_replay_is_deterministic() {
    let ds = paper_dataset(21, 0.002, 42);
    for device in DEVICES {
        let a = run_mode(&ds, device, true, ExecMode::Scheduled);
        let b = run_mode(&ds, device, true, ExecMode::Scheduled);
        let serial = run_mode(&ds, device, false, ExecMode::Scheduled);
        assert_eq!(a.profile.phases.sched, b.profile.phases.sched, "{device}: repeat run");
        assert_eq!(a.profile.seconds(), b.profile.seconds(), "{device}: repeat seconds");
        assert_eq!(
            a.profile.phases.sched, serial.profile.phases.sched,
            "{device}: parallel vs serial replay"
        );
    }
}

/// SM tracks come with tracing: a traced Scheduled run produces non-empty
/// phase-labelled slices on a run-global clock, an untraced one records
/// none, and recording does not perturb the replay accounting. The slices
/// cover every issue-port tick the profile counts, escalation retries
/// included.
#[test]
fn sched_tracks_are_opt_in_and_consistent() {
    let ds = paper_dataset(21, 0.002, 42);
    let mut cfg = GpuConfig::for_device(DeviceId::A100);
    cfg.exec = ExecMode::Scheduled;
    cfg.trace = true;
    let tracked = run_local_assembly(&ds, &cfg);
    cfg.trace = false;
    let plain = run_local_assembly(&ds, &cfg);

    assert!(!tracked.sched_tracks.is_empty(), "traced run recorded no SM tracks");
    assert!(plain.sched_tracks.is_empty(), "SM tracks recorded without tracing");
    assert_eq!(
        tracked.profile.phases.sched, plain.profile.phases.sched,
        "track recording must not change the replay accounting"
    );
    let sched = tracked.profile.phases.sched.expect("sched profile");
    for s in &tracked.sched_tracks {
        assert!(s.start < s.end, "degenerate slice on SM {}", s.sm);
        assert!(s.sm < sched.sms_used, "slice on SM {} beyond sms_used", s.sm);
        assert!(!s.phase.is_empty(), "unlabelled slice on SM {}", s.sm);
    }
    assert_eq!(port_ticks(&tracked), sched.busy_ticks, "slices cover every busy tick");

    // A transient watchdog trip forces exactly one escalation retry; its
    // replay shifts the run clock, so its slices must land in the tracks.
    cfg.trace = true;
    cfg.fault = Some(FaultPlan::watchdog(2));
    let retried = run_local_assembly(&ds, &cfg);
    assert_eq!(
        retried.outcomes.iter().filter(|o| **o == JobOutcome::Recovered { attempts: 1 }).count(),
        1,
        "the plan must force exactly one retry"
    );
    let sched = retried.profile.phases.sched.expect("sched profile");
    assert_eq!(
        port_ticks(&retried),
        sched.busy_ticks,
        "the retry's slices must not drop out of the SM tracks"
    );
}

/// `traces` with the sanitizer's `SanFinding` events removed: everything
/// an unsanitized run must reproduce of a sanitized one.
fn without_san_findings(traces: &[WarpTrace]) -> Vec<WarpTrace> {
    let mut out = traces.to_vec();
    for t in &mut out {
        t.events.retain(|e| !matches!(e.kind, EventKind::SanFinding { .. }));
    }
    out
}

/// The fast paths a sanitized warp switches off (`touch_u32_with`'s
/// streaming route and the single-lane load runs of the mer-walk) against
/// the reference interpreter: unsanitized `Vectorized` and `Scheduled`
/// runs must reproduce the sanitized `Scalar` run's extensions, outcomes,
/// counters and traces (less its findings). Vectorized seconds match bit
/// for bit; the Scheduled replay profile, SM slices and seconds match the
/// sanitized Scheduled run's.
#[test]
fn unsanitized_fast_paths_match_the_sanitized_scalar_baseline() {
    for (k, scale, seed) in [(21usize, 0.003, 42u64), (77, 0.01, 99)] {
        let ds = paper_dataset(k, scale, seed);
        for device in DEVICES {
            let run = |exec, sanitize| {
                let mut cfg = GpuConfig::for_device(device);
                cfg.parallel = false;
                cfg.trace = true;
                cfg.sanitize = sanitize;
                cfg.exec = exec;
                run_local_assembly(&ds, &cfg)
            };
            let sca = run(ExecMode::Scalar, SanitizerConfig::all());
            let sca_traces = without_san_findings(&sca.traces);
            let sched_ref = run(ExecMode::Scheduled, SanitizerConfig::all());
            for exec in [ExecMode::Vectorized, ExecMode::Scheduled] {
                let tag = format!("k={k} {device} unsanitized {exec:?}");
                let fast = run(exec, SanitizerConfig::default());
                assert_eq!(fast.extensions, sca.extensions, "{tag}: extensions");
                assert_eq!(fast.outcomes, sca.outcomes, "{tag}: outcomes");
                assert_eq!(fast.profile.total, sca.profile.total, "{tag}: aggregate counters");
                let (p, q) = (&fast.profile.phases, &sca.profile.phases);
                assert_eq!(p.construct, q.construct, "{tag}: construct phase");
                assert_eq!(p.walk, q.walk, "{tag}: walk phase");
                assert_eq!(p.walk_budget, q.walk_budget, "{tag}: walk budget");
                assert_eq!(p.watchdog_trips, q.watchdog_trips, "{tag}: watchdog trips");
                assert_eq!(fast.traces, sca_traces, "{tag}: warp traces");
                if exec == ExecMode::Vectorized {
                    assert_eq!(fast.profile.seconds(), sca.profile.seconds(), "{tag}: seconds");
                } else {
                    // SM slices start and end where the recorded loads
                    // stall, so they pin every timeline word's clock.
                    let want = &sched_ref.profile;
                    assert_eq!(p.sched, want.phases.sched, "{tag}: sched profile");
                    assert_eq!(fast.sched_tracks, sched_ref.sched_tracks, "{tag}: SM slices");
                    assert_eq!(fast.profile.seconds(), want.seconds(), "{tag}: seconds");
                }
            }
        }
    }
}
