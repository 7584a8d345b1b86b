//! The four workloads: how each is set up, timed and checked, and the
//! metrics it reports.
//!
//! All load comes from one simulation thread (`GpuConfig::parallel =
//! false`, serial `assemble_all`): on a small shared host, two-thread
//! medians move several times more between sets than serial ones.
//! Modeled caches start cold for every warp.

use crate::replica::{self, LayerAcc};
use crate::report::{median, nearest_rank, peak_rss_mb, Metric, Report};
use crate::spans::Tracer;
use gpu_specs::DeviceId;
use locassm_core::io::Dataset;
use locassm_core::{assemble_all, AssemblyConfig, ExtensionResult, RequestId, TenantId};
use locassm_kernels::{run_local_assembly, GpuConfig, GpuRunResult, JobOutcome};
use locassm_service::{
    run_service, ExtensionRequest, QueueConfig, ServiceConfig, ServiceOutcome, ServiceReport,
};
use simt::ExecMode;
use std::collections::HashMap;
use std::time::Instant;

/// Dataset generation plus CPU oracle is timed at least this many times
/// per run, and `setup_s` reports the median...
pub const SETUP_REPEATS: usize = 5;
/// ...and repeats until it has run this long, so a set-up of a few tens of
/// milliseconds is still timed over enough repeats to ride out bursts of
/// host noise.
pub const SETUP_MIN_S: f64 = 1.0;
/// Service traffic: tenants the requests round-robin over.
pub const TENANTS: u32 = 4;
/// Service admission queue depth.
pub const QUEUE_DEPTH: usize = 32;
/// Per-request deadline, modeled seconds after the request is due.
pub const DEADLINE_S: f64 = 25e-3;
/// Latency limit of the service SLO, modeled seconds.
pub const SLO_S: f64 = 2e-3;
/// Share of offered requests that must meet [`SLO_S`] at a rate for that
/// rate to count as sustained.
pub const SLO_TARGET: f64 = 0.99;
/// The rate the host passes and the service's end-to-end metrics use.
pub const NOMINAL_RPS: f64 = 30_000.0;
/// Offered rates (modeled requests per second) for `max_rate_rps`.
pub const RATES_RPS: [f64; 6] = [20e3, 30e3, 35e3, 40e3, 45e3, 50e3];
/// Back-to-back (service run, replay) pairs behind `service.self_s`.
pub const SELF_PAIRS: usize = 3;
/// Latency assigned to a refused or timed-out request: it misses every
/// limit.
pub const MISSED_S: f64 = 1e9;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// A Table II dataset run as one `run_local_assembly` per pass.
    Paper(ExecMode),
    /// Open-loop multi-tenant requests through `run_service`.
    Service,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    pub name: &'static str,
    /// Table II dataset (k) and scale.
    pub k: usize,
    pub scale: f64,
    pub device: DeviceId,
    pub kind: Kind,
}

/// The workloads, in run order. Why each exists is recorded in
/// `BENCHMARK.json` and README.md.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "paper-k21-a100",
        k: 21,
        scale: 0.5,
        device: DeviceId::A100,
        kind: Kind::Paper(ExecMode::Vectorized),
    },
    Workload {
        name: "paper-k77-mi250x-sched",
        k: 77,
        scale: 0.5,
        device: DeviceId::Mi250x,
        kind: Kind::Paper(ExecMode::Scheduled),
    },
    Workload {
        name: "paper-k33-max1550",
        k: 33,
        scale: 1.0,
        device: DeviceId::Max1550,
        kind: Kind::Paper(ExecMode::Vectorized),
    },
    Workload {
        name: "service-k21-a100",
        k: 21,
        scale: 0.25,
        device: DeviceId::A100,
        kind: Kind::Service,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// How long and how a run measures.
#[derive(Debug, Clone, Copy)]
pub struct RunOpts {
    /// Dataset scale (the workload's own, or smaller in tests).
    pub scale: f64,
    /// Dataset generator seed.
    pub seed: u64,
    /// Timed passes continue until they add up to this many seconds
    /// (at least one pass).
    pub seconds: f64,
    /// Run the extra traced pass and report per-layer metrics.
    pub trace: bool,
}

/// A finished run: its report and, when traced, the recorded spans.
pub struct RunOutput {
    pub report: Report,
    pub tracer: Option<Tracer>,
}

/// Run one workload.
pub fn run(w: &Workload, opts: &RunOpts) -> Result<RunOutput, String> {
    match w.kind {
        Kind::Paper(exec) => run_paper(w, exec, opts),
        Kind::Service => run_service_workload(w, opts),
    }
}

fn gpu_config(device: DeviceId, exec: ExecMode) -> GpuConfig {
    let mut cfg = GpuConfig::for_device(device);
    cfg.parallel = false;
    cfg.exec = exec;
    cfg
}

struct Setup {
    ds: Dataset,
    oracle: Vec<ExtensionResult>,
    generate_s: Vec<f64>,
    oracle_s: Vec<f64>,
}

impl Setup {
    /// Median of the repeated generate + oracle times.
    fn median_s(&self) -> f64 {
        let totals: Vec<f64> =
            self.generate_s.iter().zip(&self.oracle_s).map(|(g, o)| g + o).collect();
        median(&totals)
    }
}

/// Generate the dataset and its CPU-oracle extensions repeatedly (see
/// [`SETUP_REPEATS`]), recording spans for each step.
fn setup(k: usize, opts: &RunOpts, cfg: &GpuConfig, tr: &mut Tracer) -> Setup {
    let asm = AssemblyConfig { k, walk: cfg.walk, retry: cfg.retry.clone() };
    let root = tr.open("bench.setup");
    let mut generate_s = Vec::new();
    let mut oracle_s = Vec::new();
    let mut last = None;
    while generate_s.len() < SETUP_REPEATS
        || generate_s.iter().chain(&oracle_s).sum::<f64>() < SETUP_MIN_S
    {
        let t0 = Instant::now();
        let ds = workloads::paper_dataset(k, opts.scale, opts.seed);
        let t1 = Instant::now();
        let oracle = assemble_all(&ds.jobs, &asm, false);
        let t2 = Instant::now();
        tr.record("workloads.generate", t0, t1);
        tr.record("core.oracle", t1, t2);
        generate_s.push((t1 - t0).as_secs_f64());
        oracle_s.push((t2 - t1).as_secs_f64());
        last = Some((ds, oracle));
    }
    tr.close(root);
    let (ds, oracle) = last.expect("set-up runs at least once");
    Setup { ds, oracle, generate_s, oracle_s }
}

/// Run `pass` until the timed passes add up to `seconds` (at least once),
/// returning each pass's wall time; `check` sees each pass's output
/// outside the timed region.
fn timed_passes<R>(
    seconds: f64,
    mut pass: impl FnMut() -> R,
    mut check: impl FnMut(R),
) -> Vec<f64> {
    let mut times = Vec::new();
    while times.is_empty() || times.iter().sum::<f64>() < seconds {
        let t = Instant::now();
        let out = pass();
        times.push(t.elapsed().as_secs_f64());
        check(out);
    }
    times
}

/// Failures and attempts over every checked run of a workload.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Tally {
    fn into_report(
        self,
        w: &Workload,
        opts: &RunOpts,
        passes: usize,
        end_to_end: Vec<Metric>,
        per_layer: Vec<Metric>,
    ) -> Report {
        Report {
            workload: w.name.to_string(),
            seed: opts.seed,
            passes,
            attempted: self.attempted,
            failed: self.failed,
            errors: self.errors,
            end_to_end,
            per_layer,
        }
    }

    /// A paper run: every contig must be `Ok` (no escalation, so modeled
    /// seconds cover every launch) and match the oracle.
    fn paper(&mut self, r: &GpuRunResult, oracle: &[ExtensionResult]) {
        self.attempted += oracle.len() as u64;
        if r.extensions.len() != oracle.len() || r.outcomes.len() != oracle.len() {
            self.failed += oracle.len() as u64;
            self.errors.push("run returned the wrong number of contigs".into());
            return;
        }
        let bad = r
            .extensions
            .iter()
            .zip(oracle)
            .zip(&r.outcomes)
            .filter(|((e, o), outcome)| e != o || **outcome != JobOutcome::Ok)
            .count();
        self.failed += bad as u64;
    }

    /// A service run: every request must complete, with an `Ok` kernel
    /// outcome and the oracle's extension.
    fn service(
        &mut self,
        r: &ServiceReport,
        index: &HashMap<u64, usize>,
        oracle: &[ExtensionResult],
    ) {
        self.attempted += oracle.len() as u64;
        let mut seen = 0u64;
        for rec in &r.records {
            let Some(&i) = index.get(&rec.id.uid()) else { continue };
            seen += 1;
            let ok = match &rec.outcome {
                ServiceOutcome::Completed { result, kernel, .. } => {
                    *kernel == JobOutcome::Ok && *result == oracle[i]
                }
                _ => false,
            };
            if !ok {
                self.failed += 1;
            }
        }
        self.failed += oracle.len() as u64 - seen;
    }
}

fn run_paper(w: &Workload, exec: ExecMode, opts: &RunOpts) -> Result<RunOutput, String> {
    let cfg = gpu_config(w.device, exec);
    let mut tr = Tracer::default();
    let s = setup(w.k, opts, &cfg, &mut tr);
    let contigs = s.ds.jobs.len() as f64;
    let mut tally = Tally::default();

    let t = Instant::now();
    let first = run_local_assembly(&s.ds, &cfg);
    let warm_s = t.elapsed().as_secs_f64();
    tally.paper(&first, &s.oracle);

    let pass_s = timed_passes(
        opts.seconds,
        || run_local_assembly(&s.ds, &cfg),
        |r| {
            tally.paper(&r, &s.oracle);
            if r.profile.total != first.profile.total
                || r.profile.seconds().to_bits() != first.profile.seconds().to_bits()
            {
                tally.errors.push("modeled counters or seconds differ between passes".into());
            }
        },
    );
    let peak_rss = peak_rss_mb()?;

    // `run_local_assembly` returns every contig at once, so each contig's
    // latency is the run's modeled time and the latency metrics repeat
    // `modeled_s`. They are emitted because every workload must report
    // every end-to-end metric with a non-zero value.
    let modeled_s = first.profile.seconds();
    let end_to_end = vec![
        Metric::host_median(
            "contigs_per_s",
            "1/s",
            &pass_s.iter().map(|t| contigs / t).collect::<Vec<_>>(),
        ),
        Metric::host("setup_s", "s", s.median_s()),
        Metric::host("peak_rss_mb", "MiB", peak_rss),
        Metric::modeled("modeled_s", "s", modeled_s),
        Metric::modeled("mean_latency_s", "s", modeled_s),
        Metric::modeled("p99_latency_s", "s", modeled_s),
        Metric::modeled("max_rate_rps", "1/s", contigs / modeled_s),
    ];
    let escalations: u64 = first.outcomes.iter().map(|o| o.attempts() as u64).sum();

    let (per_layer, tracer) = if opts.trace {
        let mut acc = LayerAcc::default();
        let root = tr.open("bench.pass");
        let rep = replica::replay(&s.ds, &cfg, &mut tr, &mut acc);
        let traced_s = tr.close(root);
        let rep = rep?;
        tally.errors.extend(replica::compare(&first, &rep));
        let inputs = LayerInputs {
            cfg: &cfg,
            setup: &s,
            warmup_excess_s: warm_s - median(&pass_s),
            acc: &acc,
            overhead_frac: traced_s / median(&pass_s) - 1.0,
            escalations,
            service: ServiceLayers::default(),
        };
        (layer_metrics(&inputs), Some(tr))
    } else {
        (Vec::new(), None)
    };

    let report = tally.into_report(w, opts, pass_s.len(), end_to_end, per_layer);
    Ok(RunOutput { report, tracer })
}

/// Service traffic at `rate`: dataset contigs round-robined over
/// [`TENANTS`], due at exact instants of the virtual clock (so the
/// generator is never late), each with a [`DEADLINE_S`] deadline.
fn requests(ds: &Dataset, rate: f64) -> Vec<ExtensionRequest> {
    ds.jobs
        .iter()
        .enumerate()
        .map(|(i, job)| {
            let id = RequestId::new(TenantId(i as u32 % TENANTS), i as u32 / TENANTS);
            ExtensionRequest::new(id, job.clone(), i as f64 / rate).with_deadline(DEADLINE_S)
        })
        .collect()
}

/// Per-request modeled latency from due time to completion, ascending;
/// refused, timed-out and quarantined requests count as [`MISSED_S`].
fn request_latencies(r: &ServiceReport, offered: usize) -> Vec<f64> {
    let mut lat: Vec<f64> = r
        .records
        .iter()
        .map(|rec| match rec.outcome {
            ServiceOutcome::Completed { completed_at, .. } => completed_at - rec.arrival,
            _ => MISSED_S,
        })
        .collect();
    lat.resize(offered.max(lat.len()), MISSED_S);
    lat.sort_by(f64::total_cmp);
    lat
}

/// The highest offered rate that meets the SLO: from the lowest grid
/// rate up, the last rate with attainment ≥ [`SLO_TARGET`], refined by
/// linear interpolation toward the first rate that misses it (so the
/// value moves smoothly instead of in grid steps). 0 when even the
/// lowest rate misses.
fn max_sustained_rate(attainment: &[(f64, f64)]) -> f64 {
    let mut best = 0.0;
    let mut prev: Option<(f64, f64)> = None;
    for &(rate, att) in attainment {
        if att < SLO_TARGET {
            if let Some((r0, a0)) = prev {
                best = r0 + (rate - r0) * (a0 - SLO_TARGET) / (a0 - att);
            }
            break;
        }
        best = rate;
        prev = Some((rate, att));
    }
    best
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

fn slo_attainment(lat: &[f64]) -> f64 {
    lat.iter().filter(|&&l| l <= SLO_S).count() as f64 / lat.len().max(1) as f64
}

fn run_service_workload(w: &Workload, opts: &RunOpts) -> Result<RunOutput, String> {
    let mut cfg = ServiceConfig::for_device(w.device, w.k);
    cfg.gpu.parallel = false;
    cfg.queue = QueueConfig::bounded(QUEUE_DEPTH);
    let mut tr = Tracer::default();
    let s = setup(w.k, opts, &cfg.gpu, &mut tr);
    let offered = s.ds.jobs.len();
    let index: HashMap<u64, usize> = (0..offered)
        .map(|i| (RequestId::new(TenantId(i as u32 % TENANTS), i as u32 / TENANTS).uid(), i))
        .collect();
    let mut tally = Tally::default();

    // Warm-up at the nominal rate, then the timed passes at that rate.
    let nominal = requests(&s.ds, NOMINAL_RPS);
    let t = Instant::now();
    let first = run_service(&nominal, &cfg);
    let warm_s = t.elapsed().as_secs_f64();
    tally.service(&first, &index, &s.oracle);

    let pass_s = timed_passes(
        opts.seconds,
        || run_service(&nominal, &cfg),
        |r| {
            tally.service(&r, &index, &s.oracle);
            if r != first {
                tally.errors.push("service report differs between passes".into());
            }
        },
    );
    // Memory of serving at the nominal rate: read before the overloaded
    // grid points, whose queues hold more requests at once.
    let peak_rss = peak_rss_mb()?;

    // The rate grid is modeled only, so it runs untimed.
    let grid: Vec<(f64, Vec<f64>)> = RATES_RPS
        .iter()
        .map(|&rate| {
            let lat = if rate == NOMINAL_RPS {
                request_latencies(&first, offered)
            } else {
                request_latencies(&run_service(&requests(&s.ds, rate), &cfg), offered)
            };
            (rate, lat)
        })
        .collect();

    let completed = first.completed() as f64;
    let lat = request_latencies(&first, offered);
    let attainment: Vec<(f64, f64)> =
        grid.iter().map(|(rate, l)| (*rate, slo_attainment(l))).collect();
    let end_to_end = vec![
        Metric::host_median(
            "contigs_per_s",
            "1/s",
            &pass_s.iter().map(|t| completed / t).collect::<Vec<_>>(),
        ),
        Metric::host("setup_s", "s", s.median_s()),
        Metric::host("peak_rss_mb", "MiB", peak_rss),
        Metric::modeled(
            "modeled_s",
            "s",
            first.batches.iter().map(|b| b.finished_at - b.started_at).sum(),
        ),
        Metric::modeled("mean_latency_s", "s", mean(&lat)),
        Metric::modeled("p99_latency_s", "s", nearest_rank(&lat, 99.0)),
        Metric::modeled("max_rate_rps", "1/s", max_sustained_rate(&attainment)),
    ];

    let (per_layer, tracer) = if opts.trace {
        let mut acc = LayerAcc::default();
        let mut gpu = cfg.gpu.clone();
        gpu.binning = locassm_core::BinningPolicy::Single;
        // `service.self_s` subtracts two ~1 s measurements, so it is the
        // median over back-to-back (run, replay) pairs; only the first pair
        // is kept as the trace and counted in the per-layer totals.
        let (mut runs, mut self_s) = (Vec::new(), Vec::new());
        for pair in 0..SELF_PAIRS {
            let (mut discard_tr, mut discard_acc) = (Tracer::default(), LayerAcc::default());
            let (t, a) =
                if pair == 0 { (&mut tr, &mut acc) } else { (&mut discard_tr, &mut discard_acc) };
            let root = t.open("bench.pass");
            let span = t.open("service.run");
            let r = run_service(&nominal, &cfg);
            let run_s = t.close(span);
            let replay_s = replay_service(&r, w.k, &s, &index, &gpu, t, a, &mut tally.errors);
            t.close(root);
            runs.push(run_s);
            self_s.push(run_s - replay_s?);
            if r != first {
                tally.errors.push("traced service run differs from the untraced one".into());
            }
        }
        let service = service_layers(&first, &cfg, offered, median(&runs), median(&self_s), &grid);
        let inputs = LayerInputs {
            cfg: &cfg.gpu,
            setup: &s,
            warmup_excess_s: warm_s - median(&pass_s),
            acc: &acc,
            overhead_frac: runs[0] / median(&pass_s) - 1.0,
            escalations: first
                .records
                .iter()
                .map(|r| match &r.outcome {
                    ServiceOutcome::Completed { kernel, .. } => kernel.attempts() as u64,
                    _ => 0,
                })
                .sum(),
            service,
        };
        (layer_metrics(&inputs), Some(tr))
    } else {
        (Vec::new(), None)
    };

    let report = tally.into_report(w, opts, pass_s.len(), end_to_end, per_layer);
    Ok(RunOutput { report, tracer })
}

/// Replay every batch of a service run through the traced replica and
/// return the replay's wall time. Each batch's modeled duration must equal
/// the service's bit for bit, and its extensions the oracle's.
#[allow(clippy::too_many_arguments)]
fn replay_service(
    r: &ServiceReport,
    k: usize,
    s: &Setup,
    index: &HashMap<u64, usize>,
    gpu: &GpuConfig,
    tr: &mut Tracer,
    acc: &mut LayerAcc,
    errors: &mut Vec<String>,
) -> Result<f64, String> {
    let mut replay_s = 0.0;
    for b in &r.batches {
        let span = tr.open("kernels.batch");
        let uids: Vec<String> = b.requests.iter().map(|id| id.uid().to_string()).collect();
        tr.set_args(span, format!("\"requests\": [{}]", uids.join(", ")));
        let idx: Vec<usize> = b.requests.iter().map(|id| index[&id.uid()]).collect();
        let ds = Dataset::new(k, idx.iter().map(|&i| s.ds.jobs[i].clone()).collect());
        let rep = replica::replay(&ds, gpu, tr, acc);
        replay_s += tr.close(span);
        let rep = rep?;
        if (b.started_at + rep.profile.seconds()).to_bits() != b.finished_at.to_bits() {
            errors.push(format!("replica: batch {} modeled duration differs", b.seq));
        }
        if idx.iter().zip(&rep.extensions).any(|(&i, e)| *e != s.oracle[i]) {
            errors.push(format!("replica: batch {} extensions differ from the oracle", b.seq));
        }
    }
    Ok(replay_s)
}

/// The service layer's own numbers (all zero on paper workloads).
#[derive(Debug, Clone, Default)]
struct ServiceLayers {
    run_s: f64,
    self_s: f64,
    batches: f64,
    mean_batch_jobs: f64,
    footprint_fill: f64,
    p50_latency_s: f64,
    queue_wait_p50_s: f64,
    queue_wait_p99_s: f64,
    exec_p50_s: f64,
    rejected: f64,
    requeues: f64,
    slo_attainment: f64,
    /// `(p99 latency, SLO attainment)` per entry of [`RATES_RPS`].
    rates: Vec<(f64, f64)>,
}

fn service_layers(
    r: &ServiceReport,
    cfg: &ServiceConfig,
    offered: usize,
    run_s: f64,
    self_s: f64,
    grid: &[(f64, Vec<f64>)],
) -> ServiceLayers {
    let n = r.batches.len().max(1) as f64;
    // The batch that finally ran each request (requeues run it again).
    let mut last_batch: HashMap<u64, usize> = HashMap::new();
    for (bi, b) in r.batches.iter().enumerate() {
        for id in &b.requests {
            last_batch.insert(id.uid(), bi);
        }
    }
    let mut wait = Vec::new();
    let mut exec = Vec::new();
    let mut requeues = 0u64;
    for rec in &r.records {
        match &rec.outcome {
            ServiceOutcome::Completed { requeues: q, .. } => {
                requeues += *q as u64;
                if let Some(&bi) = last_batch.get(&rec.id.uid()) {
                    let b = &r.batches[bi];
                    wait.push(b.started_at - rec.arrival);
                    exec.push(b.finished_at - b.started_at);
                }
            }
            ServiceOutcome::Quarantined { requeues: q, .. } => requeues += *q as u64,
            _ => {}
        }
    }
    wait.sort_by(f64::total_cmp);
    exec.sort_by(f64::total_cmp);
    ServiceLayers {
        run_s,
        self_s,
        batches: r.batches.len() as f64,
        mean_batch_jobs: r.batches.iter().map(|b| b.requests.len()).sum::<usize>() as f64 / n,
        footprint_fill: r
            .batches
            .iter()
            .map(|b| b.footprint as f64 / cfg.batch.byte_budget as f64)
            .sum::<f64>()
            / n,
        p50_latency_s: nearest_rank(&request_latencies(r, offered), 50.0),
        queue_wait_p50_s: nearest_rank(&wait, 50.0),
        queue_wait_p99_s: nearest_rank(&wait, 99.0),
        exec_p50_s: nearest_rank(&exec, 50.0),
        rejected: r.rejected() as f64,
        requeues: requeues as f64,
        slo_attainment: slo_attainment(&request_latencies(r, offered)),
        rates: grid.iter().map(|(_, l)| (nearest_rank(l, 99.0), slo_attainment(l))).collect(),
    }
}

struct LayerInputs<'a> {
    cfg: &'a GpuConfig,
    setup: &'a Setup,
    /// Untimed warm-up pass minus the median timed pass: lazy set-up the
    /// first pass pays (pool fill, first-touch memory).
    warmup_excess_s: f64,
    acc: &'a LayerAcc,
    /// Traced pass wall time over the untraced median, minus one.
    overhead_frac: f64,
    escalations: u64,
    service: ServiceLayers,
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Every per-layer metric, in a fixed order, for any workload.
fn layer_metrics(x: &LayerInputs<'_>) -> Vec<Metric> {
    let a = x.acc;
    let t = &a.total;
    let warps = t.warps as f64;
    let sched = a.phases.sched.unwrap_or_default();
    let intops = t.intops() as f64;
    let ii = t.intop_intensity();
    let ceiling = perfmodel::roofline_ceiling(x.cfg.spec(), ii);
    let achieved = ratio(intops, a.seconds);
    let sv = &x.service;
    let mut m = vec![
        Metric::host("workloads.generate_s", "s", median(&x.setup.generate_s)),
        Metric::host("core.oracle_s", "s", median(&x.setup.oracle_s)),
        Metric::host("bench.warmup_excess_s", "s", x.warmup_excess_s),
        Metric::host("core.bin_s", "s", a.bin_s),
        Metric::host("kernels.plan_s", "s", a.plan_s),
        Metric::host("simt.launch_s", "s", a.launch_s),
        Metric::modeled("simt.launches", "count", a.launches as f64),
        Metric::host("simt.launch_s_per_launch", "s", ratio(a.launch_s, a.launches as f64)),
        Metric::host(
            "simt.minstr_per_s",
            "Minstr/s",
            ratio(t.warp_instructions as f64 / 1e6, a.launch_s),
        ),
        Metric::host("simt.allocs_per_warp", "count", ratio(a.allocs as f64, warps)),
        Metric::host("simt.alloc_bytes_per_warp", "B", ratio(a.alloc_bytes as f64, warps)),
        Metric::host(
            "simt.pool_reuse_frac",
            "frac",
            ratio(a.pool_reused as f64, (a.pool_reused + a.pool_created) as f64),
        ),
        Metric::host("simt.sched_s", "s", a.sched_s),
        Metric::modeled("simt.sched.timeline_events", "count", a.timeline_events as f64),
        Metric::modeled("simt.sched.occupancy", "frac", sched.occupancy()),
        Metric::modeled(
            "simt.sched.latency_hidden_fraction",
            "frac",
            if a.phases.sched.is_some() { sched.latency_hidden_fraction() } else { 0.0 },
        ),
        Metric::modeled("simt.warp_instructions", "count", t.warp_instructions as f64),
        Metric::modeled(
            "simt.atomic_replay_ratio",
            "frac",
            ratio(t.atomic_replays as f64, t.atomic_instructions as f64),
        ),
        Metric::modeled("kernels.construct.intops", "count", a.phases.construct.intops() as f64),
        Metric::modeled(
            "kernels.construct.hbm_bytes",
            "B",
            a.phases.construct.mem.hbm_bytes() as f64,
        ),
        Metric::modeled("kernels.walk.intops", "count", a.phases.walk.intops() as f64),
        Metric::modeled("kernels.walk.hbm_bytes", "B", a.phases.walk.mem.hbm_bytes() as f64),
        Metric::modeled("kernels.lane_utilization", "frac", t.lane_utilization()),
        Metric::modeled("kernels.escalation_attempts", "count", x.escalations as f64),
        Metric::modeled("memhier.l1.hit_rate", "frac", t.mem.l1.hit_rate()),
        Metric::modeled("memhier.l2.requests", "count", t.mem.l2.requests as f64),
        Metric::modeled("memhier.l2.hit_rate", "frac", t.mem.l2.hit_rate()),
        Metric::modeled("memhier.hbm_bytes", "B", t.mem.hbm_bytes() as f64),
        Metric::modeled(
            "memhier.sectors_per_mem_instruction",
            "count",
            ratio(t.mem.l1.requests as f64, t.mem.mem_instructions as f64),
        ),
        Metric::modeled("gpu-specs.construct_s", "s", a.construct_s),
        Metric::modeled("gpu-specs.walk_s", "s", a.walk_s),
        Metric::modeled("gpu-specs.compute_s", "s", a.compute_s),
        Metric::modeled("gpu-specs.bandwidth_s", "s", a.bandwidth_s),
        Metric::modeled("gpu-specs.latency_s", "s", a.latency_s),
        Metric::modeled("perfmodel.gintops_per_s", "GINTOP/s", achieved / 1e9),
        Metric::modeled(
            "perfmodel.intop_intensity",
            "INTOP/B",
            if ii.is_finite() { ii } else { 0.0 },
        ),
        Metric::modeled("perfmodel.pct_roofline", "%", 100.0 * ratio(achieved, ceiling)),
        Metric::host("service.run_s", "s", sv.run_s),
        Metric::host("service.self_s", "s", sv.self_s),
        Metric::modeled("service.batches", "count", sv.batches),
        Metric::modeled("service.mean_batch_jobs", "count", sv.mean_batch_jobs),
        Metric::modeled("service.footprint_fill", "frac", sv.footprint_fill),
        Metric::modeled("service.p50_latency_s", "s", sv.p50_latency_s),
        Metric::modeled("service.queue_wait_p50_s", "s", sv.queue_wait_p50_s),
        Metric::modeled("service.queue_wait_p99_s", "s", sv.queue_wait_p99_s),
        Metric::modeled("service.exec_p50_s", "s", sv.exec_p50_s),
        Metric::modeled("service.rejected", "count", sv.rejected),
        Metric::modeled("service.requeues", "count", sv.requeues),
        Metric::modeled("service.slo_attainment", "frac", sv.slo_attainment),
    ];
    for (i, rate) in RATES_RPS.iter().enumerate() {
        let (p99, slo) = sv.rates.get(i).copied().unwrap_or_default();
        let k = rate / 1e3;
        m.push(Metric::modeled(&format!("service.rate_{k}k.p99_latency_s"), "s", p99));
        m.push(Metric::modeled(&format!("service.rate_{k}k.slo_attainment"), "frac", slo));
    }
    m.push(Metric::host("trace.overhead_frac", "frac", x.overhead_frac));
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_rate_interpolates_the_slo_crossing() {
        let grid = [(20e3, 1.0), (30e3, 1.0), (40e3, 0.995), (50e3, 0.985)];
        assert_eq!(max_sustained_rate(&grid), 45e3);
        assert_eq!(max_sustained_rate(&[(20e3, 1.0), (30e3, 0.999)]), 30e3);
        assert_eq!(max_sustained_rate(&[(20e3, 0.5), (30e3, 1.0)]), 0.0);
    }
}
