//! The modeled golden: every deterministic benchmark scenario in one flat
//! report, `BENCH_modeled.json` at the repo root.
//!
//! Each scenario is a pure function of its dataset and the device specs —
//! modeled kernel seconds, counters and virtual-clock service latencies,
//! never host wall clock — so the report reproduces bit for bit on any
//! host:
//!
//! * `sched.*` — k = 21 (scale 0.02, seed 11) on each dialect's native
//!   device, analytic ([`ExecMode::Vectorized`]) vs scheduled
//!   ([`ExecMode::Scheduled`]) modeled time, plus the replay's occupancy
//!   and latency-hiding counters (`docs/TIMING.md` explains every term).
//! * `layouts.*` — k = 21 (0.005, 11): every [`TableLayoutKind`] on every
//!   native device, plus each layout's staged slots and sustained load
//!   factor (distinct keys over slots).
//! * `service.*` — the service front end on A100, k = 21 (0.005, 11): a
//!   closed-loop capacity calibration, then an open-loop sweep at
//!   0.5/1/2/4× that capacity against a shallow queue.
//! * `resize.*` — a squeezed long-tail job on A100 (k = 21, 80 k-mers):
//!   per squeeze divisor, the grown-reserve escalation ladder vs in-kernel
//!   resizing, next to the unsqueezed clean run.
//!
//! The file holds one `"dotted.name": value` row per line, sorted by name.
//! Integers are exact and floats print in shortest round-trip form, so
//! the tier-1 test diffs the file exactly. Regenerate it after an
//! intentional model change with
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p locassm-bench --lib modeled
//! ```

use gpu_specs::{ticks_to_seconds, DeviceId};
use locassm_core::io::Dataset;
use locassm_core::{ContigJob, Read, RequestId, TenantId};
use locassm_kernels::{run_local_assembly, GpuConfig, JobOutcome, KernelProfile, TableLayoutKind};
use locassm_service::{run_service, ExtensionRequest, QueueConfig, ServiceConfig};
use simt::{ExecMode, FaultPlan};
use std::collections::{BTreeMap, HashSet};

#[derive(Debug)]
enum Value {
    Int(u64),
    Float(f64),
}

/// Named modeled values, kept sorted by name.
#[derive(Debug, Default)]
pub struct Rows(BTreeMap<String, Value>);

impl Rows {
    fn insert(&mut self, name: String, v: Value) {
        assert!(self.0.insert(name.clone(), v).is_none(), "modeled row {name} emitted twice");
    }

    fn int(&mut self, name: impl Into<String>, v: u64) {
        self.insert(name.into(), Value::Int(v));
    }

    fn float(&mut self, name: impl Into<String>, v: f64) {
        let name = name.into();
        assert!(v.is_finite(), "modeled row {name} is not finite: {v}");
        self.insert(name, Value::Float(v));
    }

    /// The value of row `name` (integers convert to `f64`).
    ///
    /// # Panics
    /// If no scenario emitted `name`.
    pub fn get(&self, name: &str) -> f64 {
        match self.0.get(name) {
            Some(Value::Int(v)) => *v as f64,
            Some(Value::Float(v)) => *v,
            None => panic!("no modeled row {name}"),
        }
    }

    /// The report: one JSON object, one sorted row per line.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .0
            .iter()
            .map(|(name, v)| match v {
                Value::Int(v) => format!("  \"{name}\": {v}"),
                Value::Float(v) => format!("  \"{name}\": {v:?}"),
            })
            .collect();
        format!("{{\n{}\n}}\n", rows.join(",\n"))
    }
}

/// Row-name segment for a device: `a100`, `mi250x`, `max1550`.
pub fn slug(device: DeviceId) -> String {
    format!("{device:?}").to_lowercase()
}

/// All four scenarios at their committed settings: the rows of
/// `BENCH_modeled.json`.
pub fn golden() -> Rows {
    let mut rows = Rows::default();
    sched(&mut rows, 0.02, 11);
    layouts(&mut rows);
    service(&mut rows);
    resize(&mut rows);
    rows
}

fn serial(device: DeviceId) -> GpuConfig {
    GpuConfig { parallel: false, ..GpuConfig::for_device(device) }
}

fn dataset_rows(rows: &mut Rows, scenario: &str, ds: &Dataset, scale: f64, seed: u64) {
    rows.int(format!("{scenario}.k"), ds.k as u64);
    rows.float(format!("{scenario}.scale"), scale);
    rows.int(format!("{scenario}.seed"), seed);
    rows.int(format!("{scenario}.contigs"), ds.jobs.len() as u64);
}

fn latency_sum(profile: &KernelProfile) -> f64 {
    profile.batches.iter().map(|b| b.time.latency_seconds).sum()
}

/// The k = 21 paper dataset through every dialect on its native device,
/// once with the analytic timing model and once with the scheduled
/// replay's walk-latency term (`sched.<device>.*` rows).
pub fn sched(rows: &mut Rows, scale: f64, seed: u64) {
    let ds = workloads::paper_dataset(21, scale, seed);
    dataset_rows(rows, "sched", &ds, scale, seed);
    for device in DeviceId::ALL {
        let mut cfg = serial(device);
        cfg.exec = ExecMode::Vectorized;
        let analytic = run_local_assembly(&ds, &cfg).profile;
        cfg.exec = ExecMode::Scheduled;
        let scheduled = run_local_assembly(&ds, &cfg).profile;
        let s = scheduled.phases.sched.expect("scheduled runs populate phases.sched");

        let p = format!("sched.{}", slug(device));
        let (a, t) = (analytic.seconds(), scheduled.seconds());
        rows.float(format!("{p}.analytic_s"), a);
        rows.float(format!("{p}.scheduled_s"), t);
        rows.float(format!("{p}.ratio"), if a == 0.0 { 1.0 } else { t / a });
        rows.float(format!("{p}.analytic_latency_s"), latency_sum(&analytic));
        rows.float(format!("{p}.scheduled_latency_s"), latency_sum(&scheduled));
        rows.int(format!("{p}.sms_used"), s.sms_used.into());
        rows.int(format!("{p}.residency"), s.residency.into());
        rows.float(format!("{p}.occupancy"), s.occupancy());
        rows.float(format!("{p}.latency_hidden_fraction"), s.latency_hidden_fraction());
        rows.float(format!("{p}.makespan_s"), ticks_to_seconds(s.makespan_ticks));
        rows.float(format!("{p}.stall_s"), ticks_to_seconds(s.stall_ticks()));
        rows.float(format!("{p}.exposed_s"), ticks_to_seconds(s.exposed_ticks()));
        rows.float(format!("{p}.walk_exposed_s"), ticks_to_seconds(s.walk.exposed_ticks));
    }
}

/// Aggregate staged slots and distinct k-mers for one layout, summed over
/// every job side the launch engine runs (non-empty reads, contig ≥ k).
fn capacity_summary(ds: &Dataset, layout: TableLayoutKind) -> (u64, u64) {
    let lay = layout.as_layout();
    let k = ds.k;
    let mut slots = 0u64;
    let mut distinct = 0u64;
    for job in ds.jobs.iter().filter(|j| j.contig.len() >= k) {
        for reads in [&job.right_reads, &job.left_reads] {
            if reads.is_empty() {
                continue;
            }
            let insertions: usize = reads.iter().map(|r| r.kmer_count(k)).sum();
            slots += lay.geometry(insertions, 1, 0).expect("insertions fit u32").slots as u64;
            let keys: HashSet<&[u8]> = reads.iter().flat_map(|r| r.seq.windows(k)).collect();
            distinct += keys.len() as u64;
        }
    }
    (slots, distinct)
}

/// Every table layout on every native device (`layouts.<layout>.*`).
/// Layouts change capacity and probe order, never results: every run must
/// be fault-free.
fn layouts(rows: &mut Rows) {
    let (scale, seed) = (0.005, 11);
    let ds = workloads::paper_dataset(21, scale, seed);
    dataset_rows(rows, "layouts", &ds, scale, seed);
    for layout in TableLayoutKind::ALL {
        let p = format!("layouts.{layout}");
        let (slots, distinct) = capacity_summary(&ds, layout);
        rows.int(format!("{p}.slots"), slots);
        rows.int(format!("{p}.distinct_keys"), distinct);
        let load = if slots == 0 { 0.0 } else { distinct as f64 / slots as f64 };
        rows.float(format!("{p}.load_factor"), load);
        for device in DeviceId::ALL {
            let cfg = GpuConfig { layout, ..serial(device) };
            let r = run_local_assembly(&ds, &cfg);
            assert!(
                r.outcomes.iter().all(|o| o.succeeded()),
                "layout {layout} on {device}: modeled runs must be fault-free"
            );
            let d = format!("{p}.{}", slug(device));
            rows.float(format!("{d}.modeled_s"), r.profile.seconds());
            rows.int(format!("{d}.intops"), r.profile.intops());
            rows.int(format!("{d}.hbm_bytes"), r.profile.hbm_bytes());
        }
    }
}

/// The service sweep's requests: dataset jobs round-robined across
/// `tenants`, arrivals evenly spaced by `spacing` modeled seconds.
fn requests(
    ds: &Dataset,
    tenants: u32,
    spacing: f64,
    deadline: Option<f64>,
) -> Vec<ExtensionRequest> {
    ds.jobs
        .iter()
        .enumerate()
        .map(|(i, job)| {
            let id = RequestId::new(TenantId(i as u32 % tenants), i as u32 / tenants);
            let mut req = ExtensionRequest::new(id, job.clone(), i as f64 * spacing);
            req.deadline = deadline;
            req
        })
        .collect()
}

/// Calibrate the A100 service's capacity closed-loop, then sweep offered
/// load open-loop (`service.*`, one `service.x<multiplier>.*` group per
/// load point, `0_5` for 0.5×).
fn service(rows: &mut Rows) {
    const TENANTS: u32 = 4;
    // Shallow enough that overload exercises backpressure.
    const SWEEP_DEPTH: usize = 32;
    // The deadline, in calibrated mean batch durations. A bounded queue
    // caps waiting at a few batch durations, so 32 of them is a backstop:
    // overload shows as rejections, and a timeout marks a genuine stall.
    const DEADLINE_BATCHES: f64 = 32.0;
    let (scale, seed) = (0.005, 11);
    let ds = workloads::paper_dataset(21, scale, seed);
    dataset_rows(rows, "service", &ds, scale, seed);
    let base = ServiceConfig::for_device(DeviceId::A100, ds.k);

    // Closed loop: everything queued at t = 0 against a queue that holds
    // the whole workload; its throughput is the service's capacity.
    let mut closed_cfg = base.clone();
    closed_cfg.queue = QueueConfig::bounded(ds.jobs.len().max(1));
    let closed = run_service(&requests(&ds, TENANTS, 0.0, None), &closed_cfg);
    let capacity = if closed.throughput() > 0.0 { closed.throughput() } else { 1.0 };
    let batch_seconds =
        if closed.batches.is_empty() { 1.0 } else { closed.makespan / closed.batches.len() as f64 };
    // Scaled from the batch duration, not from capacity: a lone request
    // still waits one full batch, however fast amortized throughput is.
    let deadline = DEADLINE_BATCHES * batch_seconds;
    rows.int("service.tenants", TENANTS.into());
    rows.int("service.queue_depth", SWEEP_DEPTH as u64);
    rows.float("service.capacity_rps", capacity);
    rows.float("service.deadline_s", deadline);

    let mut sweep_cfg = base;
    sweep_cfg.queue = QueueConfig::bounded(SWEEP_DEPTH);
    for m in [0.5, 1.0, 2.0, 4.0] {
        let offered = m * capacity;
        let report =
            run_service(&requests(&ds, TENANTS, 1.0 / offered, Some(deadline)), &sweep_cfg);
        let p = format!("service.x{}", m.to_string().replace('.', "_"));
        let pct = |q: f64| report.latency_percentile(q).unwrap_or(0.0);
        rows.float(format!("{p}.offered_rps"), offered);
        rows.int(format!("{p}.completed"), report.completed() as u64);
        rows.int(format!("{p}.rejected"), report.rejected() as u64);
        rows.int(format!("{p}.timed_out"), report.timed_out() as u64);
        rows.int(format!("{p}.quarantined"), report.quarantined() as u64);
        rows.float(format!("{p}.throughput_rps"), report.throughput());
        rows.float(format!("{p}.p50_latency_s"), pct(50.0));
        rows.float(format!("{p}.p90_latency_s"), pct(90.0));
        rows.float(format!("{p}.p99_latency_s"), pct(99.0));
    }
}

/// One contig whose single right read carries `n_kmers` effectively
/// distinct k-mers (fixed xorshift data, no RNG), so a squeezed table
/// genuinely overflows.
fn long_tail_dataset(k: usize, n_kmers: usize) -> Dataset {
    let mut x = 0x2545_f491u32;
    let seq: Vec<u8> = (0..n_kmers + k - 1)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            b"ACGT"[(x % 4) as usize]
        })
        .collect();
    let contig = seq[..k.max(8)].to_vec();
    let job = ContigJob::new(0, contig, vec![Read::with_uniform_qual(&seq, b'I')], vec![]);
    Dataset::new(k, vec![job])
}

/// The long-tail job squeezed to 1/2, 1/3 and 1/4 of its slot estimate,
/// recovered by the escalation ladder (`resize.div<d>.escalation_*`) and
/// by in-kernel resizing (`resize.div<d>.resize_*`). Both recoveries must
/// be bit-exact against the clean run, so the rows compare the costs of
/// equally correct results.
fn resize(rows: &mut Rows) {
    let (k, n_kmers) = (21, 80);
    let ds = long_tail_dataset(k, n_kmers);
    let clean = run_local_assembly(&ds, &serial(DeviceId::A100));
    assert!(
        clean.outcomes.iter().all(|o| *o == JobOutcome::Ok),
        "the clean run must be fault-free"
    );
    rows.int("resize.k", k as u64);
    rows.int("resize.n_kmers", n_kmers as u64);
    rows.float("resize.clean_s", clean.profile.seconds());

    let mut retired = 0;
    for divisor in [2u32, 3, 4] {
        let mut attempts = [0u32; 2];
        for (arm, resize_on) in [("escalation", false), ("resize", true)] {
            let cfg = GpuConfig {
                resize: resize_on,
                fault: Some(FaultPlan::table_squeeze(0, divisor)),
                ..serial(DeviceId::A100)
            };
            let r = run_local_assembly(&ds, &cfg);
            assert_eq!(
                r.extensions, clean.extensions,
                "÷{divisor} {arm}: recovery must be bit-exact"
            );
            let spent = r.outcomes.iter().map(|o| o.attempts()).sum();
            attempts[resize_on as usize] = spent;
            let p = format!("resize.div{divisor}.{arm}");
            rows.int(format!("{p}_attempts"), spent.into());
            rows.float(format!("{p}_s"), r.profile.seconds());
            rows.int(format!("{p}_intops"), r.profile.intops());
            rows.int(format!("{p}_hbm_bytes"), r.profile.hbm_bytes());
        }
        retired += attempts[0].saturating_sub(attempts[1]);
    }
    rows.int("resize.attempts_retired", retired.into());
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_modeled.json");

    /// The scenarios run once per test process; every test reads these rows.
    fn rows() -> &'static Rows {
        static ROWS: OnceLock<Rows> = OnceLock::new();
        ROWS.get_or_init(golden)
    }

    /// The tier-1 gate on every deterministic benchmark field: the
    /// scenarios must reproduce the committed report byte for byte.
    #[test]
    fn golden_matches_bench_modeled_json() {
        let actual = rows().to_json();
        if std::env::var_os("UPDATE_GOLDEN").is_some() {
            std::fs::write(GOLDEN_PATH, &actual).expect("write BENCH_modeled.json");
        }
        let expected = std::fs::read_to_string(GOLDEN_PATH)
            .expect("BENCH_modeled.json missing; regenerate with UPDATE_GOLDEN=1");
        let drift: Vec<String> = actual
            .lines()
            .zip(expected.lines())
            .filter(|(a, e)| a != e)
            .map(|(a, e)| format!("  now {a}\n  was {e}"))
            .collect();
        assert!(
            actual == expected,
            "modeled rows drifted from BENCH_modeled.json ({} vs {} lines); if intentional, \
             regenerate with UPDATE_GOLDEN=1:\n{}",
            actual.lines().count(),
            expected.lines().count(),
            drift.join("\n")
        );
    }

    /// The replay refines only the walk latency term, so scheduled time is
    /// finite, within a sanity band of the analytic estimate, and differs
    /// from it by no more than the latency terms do; occupancy and the
    /// hidden fraction are fractions.
    #[test]
    fn scheduled_time_is_finite_and_sane() {
        let r = rows();
        for device in DeviceId::ALL {
            let p = format!("sched.{}", slug(device));
            let get = |field: &str| r.get(&format!("{p}.{field}"));
            let (analytic, scheduled) = (get("analytic_s"), get("scheduled_s"));
            assert!(scheduled > 0.0, "{p}: scheduled time {scheduled}");
            assert!(get("walk_exposed_s").is_finite());
            let ratio = get("ratio");
            assert!(
                (0.1..=10.0).contains(&ratio),
                "{p}: scheduled/analytic ratio {ratio:.3} outside the sanity band \
                 (analytic {analytic:.6}s, scheduled {scheduled:.6}s)"
            );
            let dt = (scheduled - analytic).abs();
            let dlat = (get("scheduled_latency_s") - get("analytic_latency_s")).abs();
            assert!(dt <= dlat + 1e-12, "{p}: total drift {dt:e} exceeds latency drift {dlat:e}");
            let occ = get("occupancy");
            assert!(occ > 0.0 && occ <= 1.0, "{p}: occupancy {occ}");
            let hidden = get("latency_hidden_fraction");
            assert!((0.0..=1.0).contains(&hidden), "{p}: hidden {hidden}");
        }
    }

    /// The WarpSpeed premise: bucketed tables sustain a strictly higher
    /// load factor than linear probing (every run fault-free, asserted by
    /// the scenario itself).
    #[test]
    fn bucketed_layout_beats_linear_load_factor() {
        let r = rows();
        let linear = r.get("layouts.linear.load_factor");
        let bucketed = r.get("layouts.bucketed.load_factor");
        assert!(
            bucketed > linear,
            "bucketed load factor {bucketed:.3} must beat linear {linear:.3}"
        );
        for layout in TableLayoutKind::ALL {
            let p = format!("layouts.{layout}");
            assert!(
                r.get(&format!("{p}.slots")) > 0.0 && r.get(&format!("{p}.distinct_keys")) > 0.0
            );
            for device in DeviceId::ALL {
                let d = format!("{p}.{}", slug(device));
                assert!(r.get(&format!("{d}.modeled_s")) > 0.0, "{d}");
                assert!(r.get(&format!("{d}.intops")) > 0.0, "{d}");
                assert!(r.get(&format!("{d}.hbm_bytes")) > 0.0, "{d}");
            }
        }
    }

    /// Every request reaches exactly one terminal outcome at every load
    /// point, something always completes, and below capacity nothing is
    /// refused.
    #[test]
    fn service_sweep_conserves_requests() {
        let r = rows();
        assert!(r.get("service.capacity_rps") > 0.0);
        let requests = r.get("service.contigs");
        for p in ["service.x0_5", "service.x1", "service.x2", "service.x4"] {
            let get = |field: &str| r.get(&format!("{p}.{field}"));
            let terminal =
                get("completed") + get("rejected") + get("timed_out") + get("quarantined");
            assert_eq!(terminal, requests, "{p}: every request needs one terminal outcome");
            assert!(get("completed") > 0.0, "{p}: something must complete");
        }
        assert_eq!(r.get("service.x0_5.rejected"), 0.0, "0.5x load must not trigger backpressure");
    }

    /// In-kernel resizing absorbs the ÷3 squeeze that costs the ladder a
    /// whole-job re-run, and that re-run is priced: no escalation arm can
    /// be cheaper than the clean run it re-executes.
    #[test]
    fn resize_retires_the_ladder_and_retries_are_priced() {
        let r = rows();
        assert!(
            r.get("resize.div3.escalation_attempts") >= 1.0,
            "the ÷3 squeeze must push the fixed-capacity arm into the ladder"
        );
        assert_eq!(
            r.get("resize.div3.resize_attempts"),
            0.0,
            "the resize arm must absorb the ÷3 squeeze without escalating"
        );
        assert!(r.get("resize.attempts_retired") >= 1.0);
        let clean = r.get("resize.clean_s");
        assert!(clean > 0.0);
        for d in [2, 3, 4] {
            for arm in ["escalation", "resize"] {
                let p = format!("resize.div{d}.{arm}");
                assert!(r.get(&format!("{p}_s")) > 0.0, "{p}");
                assert!(r.get(&format!("{p}_intops")) > 0.0, "{p}");
                assert!(r.get(&format!("{p}_hbm_bytes")) > 0.0, "{p}");
            }
            let escalation = r.get(&format!("resize.div{d}.escalation_s"));
            assert!(
                escalation >= clean,
                "÷{d}: the ladder's {escalation}s must not undercut the clean run's {clean}s"
            );
        }
    }
}
