//! The deterministic service engine: a virtual-clock event loop that
//! admits requests, packs batches, runs them through the launch engine,
//! and settles every request into a terminal [`ServiceOutcome`].
//!
//! All time is *modeled* seconds — arrivals are part of the workload,
//! batch durations come from the launch engine's timing model
//! (`KernelProfile::seconds`), and backoff delays are pure arithmetic.
//! No wall clock, no randomness: the same workload under the same
//! [`ServiceConfig`] produces a bit-identical [`ServiceReport`], which is
//! what makes "replay the incident" a one-liner (invariant 9: admission
//! changes *when* a job runs, never its result).
//!
//! One loop iteration: (1) admit every arrival due at the current clock,
//! recording structured rejections; (2) release retries whose backoff has
//! elapsed; (3) sweep deadline-expired requests out of the queue; (4)
//! pack a batch by weighted fair-share under the footprint budget; (5)
//! run it as one launch-engine dataset and advance the clock by the
//! modeled duration; (6) settle each packed request — complete it, time
//! it out, park it for a backoff retry, or quarantine it. When nothing is
//! packable the clock jumps to the next arrival or retry-release instant.

use crate::batch::{request_footprint, BatchPolicy};
use crate::queue::{AdmissionQueue, QueueConfig, QueuedRequest};
use crate::request::{ExtensionRequest, ServiceOutcome, TimeoutStage};
use gpu_specs::DeviceId;
use locassm_core::io::Dataset;
use locassm_core::{BinningPolicy, ContigJob, RequestId};
use locassm_kernels::{run_local_assembly, GpuConfig, JobOutcome};
use simt::FaultPlan;
use std::collections::BTreeMap;

/// Service-level retry-with-backoff, layered *on top of* the kernel's
/// escalation ladder: a request whose run ends in a retryable
/// `JobOutcome::Failed` (the ladder already exhausted) is re-enqueued up
/// to `max_requeues` times, each release delayed by an exponentially
/// growing backoff on the virtual clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequeuePolicy {
    /// Service-level re-enqueues before a still-failing request is
    /// quarantined. `0` quarantines on the first exhausted ladder.
    pub max_requeues: u32,
    /// Backoff before the first re-enqueue, modeled seconds.
    pub backoff_base: f64,
    /// Multiplier applied per successive re-enqueue.
    pub backoff_factor: f64,
}

impl RequeuePolicy {
    /// No service-level retries: the kernel ladder is the only recovery.
    pub fn none() -> Self {
        RequeuePolicy { max_requeues: 0, backoff_base: 0.0, backoff_factor: 1.0 }
    }

    /// Exponential backoff: `base * 2^n` before the `n`-th re-enqueue.
    pub fn exponential(max_requeues: u32, backoff_base: f64) -> Self {
        RequeuePolicy { max_requeues, backoff_base, backoff_factor: 2.0 }
    }

    /// The delay before re-enqueue number `requeues` (0-based).
    pub fn backoff_for(&self, requeues: u32) -> f64 {
        self.backoff_base * self.backoff_factor.powi(requeues as i32)
    }
}

impl Default for RequeuePolicy {
    fn default() -> Self {
        RequeuePolicy::exponential(2, 1e-3)
    }
}

/// Everything the engine needs to run a workload.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// The launch-engine configuration batches run under. The service
    /// owns batching, so the engine's own binning policy is overridden
    /// to `Single` per packed batch.
    pub gpu: GpuConfig,
    /// Primary k-mer length for every request.
    pub k: usize,
    /// Admission limits: global depth, per-tenant quotas and weights.
    pub queue: QueueConfig,
    /// Batch packing limits (request cap, footprint byte budget).
    pub batch: BatchPolicy,
    /// Service-level retry-with-backoff policy.
    pub requeue: RequeuePolicy,
    /// Optional fault injection, with victim ids in *request uid* space
    /// ([`RequestId::uid`]): the engine retargets the plan onto each
    /// run's run-global job numbering just before launch, and feeds the
    /// victim's accumulated attempts back through `FaultPlan::consume`
    /// so a persistent fault's budget spans re-enqueues.
    pub fault: Option<FaultPlan>,
}

impl ServiceConfig {
    /// A default service for one device: 256-deep queue, default tenant
    /// quotas, L2-sized batches, two exponential-backoff requeues.
    pub fn for_device(device: DeviceId, k: usize) -> Self {
        let gpu = GpuConfig::for_device(device);
        let batch = BatchPolicy::for_gpu(&gpu);
        ServiceConfig {
            gpu,
            k,
            queue: QueueConfig::bounded(256),
            batch,
            requeue: RequeuePolicy::default(),
            fault: None,
        }
    }

    /// Attach a fault plan (victim ids in request-uid space).
    pub fn with_fault(mut self, plan: FaultPlan) -> Self {
        self.fault = Some(plan);
        self
    }
}

/// One request's terminal record.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestRecord {
    /// The request's deterministic identity.
    pub id: RequestId,
    /// Its arrival instant (modeled seconds).
    pub arrival: f64,
    /// How it ended.
    pub outcome: ServiceOutcome,
}

/// One packed batch as the engine ran it.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchRecord {
    /// 0-based launch order.
    pub seq: usize,
    /// Virtual instant the batch launched.
    pub started_at: f64,
    /// Virtual instant the batch's modeled execution finished.
    pub finished_at: f64,
    /// The packed requests, in fair-share dequeue order.
    pub requests: Vec<RequestId>,
    /// Summed request footprints, bytes (the packing cost charged
    /// against the byte budget).
    pub footprint: u64,
}

/// The engine's complete, replayable account of one workload.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ServiceReport {
    /// Terminal record per request, sorted by request uid.
    pub records: Vec<RequestRecord>,
    /// Every batch, in launch order.
    pub batches: Vec<BatchRecord>,
    /// The virtual instant the last batch finished (0 for an empty
    /// workload).
    pub makespan: f64,
}

impl ServiceReport {
    /// The record for one request, if it reached a terminal outcome.
    pub fn outcome(&self, id: RequestId) -> Option<&ServiceOutcome> {
        self.records
            .binary_search_by_key(&id.uid(), |r| r.id.uid())
            .ok()
            .map(|i| &self.records[i].outcome)
    }

    /// Requests that completed with a result.
    pub fn completed(&self) -> usize {
        self.records.iter().filter(|r| r.outcome.completed()).count()
    }

    /// Requests refused at admission.
    pub fn rejected(&self) -> usize {
        self.records
            .iter()
            .filter(|r| matches!(r.outcome, ServiceOutcome::Rejected { .. }))
            .count()
    }

    /// Requests whose deadline expired (queued or executed).
    pub fn timed_out(&self) -> usize {
        self.records
            .iter()
            .filter(|r| matches!(r.outcome, ServiceOutcome::TimedOut { .. }))
            .count()
    }

    /// Requests quarantined as poison jobs.
    pub fn quarantined(&self) -> usize {
        self.records
            .iter()
            .filter(|r| matches!(r.outcome, ServiceOutcome::Quarantined { .. }))
            .count()
    }

    /// Completed-request latencies (completion − arrival), ascending.
    pub fn latencies(&self) -> Vec<f64> {
        let mut lat: Vec<f64> = self
            .records
            .iter()
            .filter_map(|r| match r.outcome {
                ServiceOutcome::Completed { completed_at, .. } => Some(completed_at - r.arrival),
                _ => None,
            })
            .collect();
        lat.sort_by(f64::total_cmp);
        lat
    }

    /// Nearest-rank latency percentile over completed requests
    /// (`p` in [0, 100]); `None` when nothing completed.
    pub fn latency_percentile(&self, p: f64) -> Option<f64> {
        let lat = self.latencies();
        if lat.is_empty() {
            return None;
        }
        let rank = ((p / 100.0 * lat.len() as f64).ceil() as usize).clamp(1, lat.len());
        Some(lat[rank - 1])
    }

    /// Completed requests per modeled second of makespan.
    pub fn throughput(&self) -> f64 {
        if self.makespan > 0.0 {
            self.completed() as f64 / self.makespan
        } else {
            0.0
        }
    }
}

/// Replay the launch engine's run-global job numbering for a
/// single-batch run ({right, left} × job order, skipping sides the host
/// skips) and return the run-global id of `victim_pos`'s first launched
/// side — the id a retargeted fault plan must name.
fn run_job_id(jobs: &[ContigJob], min_k: usize, victim_pos: usize) -> Option<u64> {
    let mut id = 0u64;
    for side in 0..2usize {
        for (i, j) in jobs.iter().enumerate() {
            if j.contig.len() < min_k {
                continue;
            }
            let reads = if side == 0 { &j.right_reads } else { &j.left_reads };
            if reads.is_empty() {
                continue;
            }
            if i == victim_pos {
                return Some(id);
            }
            id += 1;
        }
    }
    None
}

/// Run a workload to completion and return its replayable report.
///
/// Pure function of `(requests, cfg)`: requests are processed in
/// `(arrival, uid)` order on a virtual clock, so two calls with the same
/// inputs return bit-identical reports.
pub fn run_service(requests: &[ExtensionRequest], cfg: &ServiceConfig) -> ServiceReport {
    let mut arrivals: Vec<&ExtensionRequest> = requests.iter().collect();
    arrivals.sort_by(|a, b| {
        a.arrival.total_cmp(&b.arrival).then(a.id.uid().cmp(&b.id.uid()))
    });

    let schedule = cfg.gpu.retry.schedule(cfg.k);
    let min_k = schedule.iter().copied().min().unwrap_or(cfg.k);

    let mut queue = AdmissionQueue::new(cfg.queue.clone());
    // Retries parked in backoff, sorted by (release instant, uid).
    let mut delayed: Vec<(f64, QueuedRequest)> = Vec::new();
    let mut records: BTreeMap<u64, RequestRecord> = BTreeMap::new();
    let mut batches: Vec<BatchRecord> = Vec::new();
    let mut next_arrival = 0usize;
    let mut clock = 0.0f64;
    let mut makespan = 0.0f64;

    loop {
        // (1) Admit every arrival due at the current clock.
        while next_arrival < arrivals.len() && arrivals[next_arrival].arrival <= clock {
            let req = arrivals[next_arrival].clone();
            next_arrival += 1;
            let id = req.id;
            let at = req.arrival;
            if let Err(reason) = queue.admit(QueuedRequest::new(req)) {
                records.insert(
                    id.uid(),
                    RequestRecord {
                        id,
                        arrival: at,
                        outcome: ServiceOutcome::Rejected { reason, at },
                    },
                );
            }
        }

        // (2) Release retries whose backoff has elapsed.
        let mut still_parked = Vec::with_capacity(delayed.len());
        for (ready, qr) in delayed.drain(..) {
            if ready <= clock {
                queue.requeue(qr);
            } else {
                still_parked.push((ready, qr));
            }
        }
        delayed = still_parked;

        // (3) Deadline sweep: queued and parked requests whose deadline
        // has passed time out without consuming further GPU time.
        for qr in queue.drop_expired(clock) {
            records.insert(
                qr.req.id.uid(),
                RequestRecord {
                    id: qr.req.id,
                    arrival: qr.req.arrival,
                    outcome: ServiceOutcome::TimedOut { stage: TimeoutStage::Queued, at: clock },
                },
            );
        }
        let mut keep = Vec::with_capacity(delayed.len());
        for (ready, qr) in delayed.drain(..) {
            if qr.expired(clock) {
                records.insert(
                    qr.req.id.uid(),
                    RequestRecord {
                        id: qr.req.id,
                        arrival: qr.req.arrival,
                        outcome: ServiceOutcome::TimedOut {
                            stage: TimeoutStage::Queued,
                            at: clock,
                        },
                    },
                );
            } else {
                keep.push((ready, qr));
            }
        }
        delayed = keep;

        // (4) Pack a batch: weighted fair share under the footprint
        // budget. The first request always fits (an oversized request
        // must still run — alone).
        let mut packed_bytes = 0u64;
        let mut first = true;
        let picked = queue.take_fair(cfg.batch.max_jobs, |qr| {
            let fp = request_footprint(&qr.req.job, &schedule, &cfg.gpu);
            if first || packed_bytes + fp <= cfg.batch.byte_budget {
                first = false;
                packed_bytes += fp;
                true
            } else {
                false
            }
        });

        if picked.is_empty() {
            // Nothing runnable now: jump to the next event, or finish.
            let next_t = match (
                arrivals.get(next_arrival).map(|r| r.arrival),
                delayed.first().map(|(t, _)| *t),
            ) {
                (Some(a), Some(r)) => a.min(r),
                (Some(a), None) => a,
                (None, Some(r)) => r,
                (None, None) => break,
            };
            clock = next_t.max(clock);
            continue;
        }

        // (5) Run the batch as one launch-engine dataset. The service is
        // the batcher, so the engine's own binning is forced to Single;
        // the fault plan (named in request-uid space) is retargeted onto
        // this run's job numbering and armed only when its victim is
        // actually aboard.
        let jobs: Vec<ContigJob> = picked.iter().map(|q| q.req.job.clone()).collect();
        let ds = Dataset::new(cfg.k, jobs);
        let mut gpu = cfg.gpu.clone();
        gpu.binning = BinningPolicy::Single;
        gpu.fault = None;
        if let Some(plan) = cfg.fault {
            if let Some(victim_uid) = plan.victim() {
                if let Some(pos) =
                    picked.iter().position(|q| q.req.id.uid() == victim_uid)
                {
                    if let Some(run_id) = run_job_id(&ds.jobs, min_k, pos) {
                        gpu.fault = plan
                            .consume(picked[pos].attempts_spent)
                            .map(|p| p.retargeted(victim_uid, run_id));
                    }
                }
            }
        }
        let out = run_local_assembly(&ds, &gpu);
        let finished = clock + out.profile.seconds();
        batches.push(BatchRecord {
            seq: batches.len(),
            started_at: clock,
            finished_at: finished,
            requests: picked.iter().map(|q| q.req.id).collect(),
            footprint: packed_bytes,
        });
        makespan = finished;

        // (6) Settle each packed request.
        for (i, mut qr) in picked.into_iter().enumerate() {
            let kernel = out.outcomes[i];
            qr.attempts_spent += 1 + kernel.attempts();
            let id = qr.req.id;
            let arrival = qr.req.arrival;
            if qr.deadline_at.is_some_and(|d| d < finished) {
                // The batch finished past the deadline: the late result
                // is discarded deterministically.
                records.insert(
                    id.uid(),
                    RequestRecord {
                        id,
                        arrival,
                        outcome: ServiceOutcome::TimedOut {
                            stage: TimeoutStage::Executed,
                            at: finished,
                        },
                    },
                );
                continue;
            }
            match kernel {
                JobOutcome::Failed { fault, .. } => {
                    if fault.retryable() && qr.requeues < cfg.requeue.max_requeues {
                        let ready = finished + cfg.requeue.backoff_for(qr.requeues);
                        qr.requeues += 1;
                        delayed.push((ready, qr));
                    } else {
                        records.insert(
                            id.uid(),
                            RequestRecord {
                                id,
                                arrival,
                                outcome: ServiceOutcome::Quarantined {
                                    fault,
                                    attempts: qr.attempts_spent,
                                    requeues: qr.requeues,
                                },
                            },
                        );
                    }
                }
                kernel => {
                    records.insert(
                        id.uid(),
                        RequestRecord {
                            id,
                            arrival,
                            outcome: ServiceOutcome::Completed {
                                result: out.extensions[i].clone(),
                                kernel,
                                requeues: qr.requeues,
                                completed_at: finished,
                            },
                        },
                    );
                }
            }
        }
        delayed.sort_by(|a, b| {
            a.0.total_cmp(&b.0).then(a.1.req.id.uid().cmp(&b.1.req.id.uid()))
        });
        clock = finished;
    }

    ServiceReport { records: records.into_values().collect(), batches, makespan }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::TenantQuota;
    use crate::request::RejectReason;
    use locassm_core::{Read, TenantId};

    fn k() -> usize {
        13
    }

    /// A job whose reads genuinely extend the contig (so the kernel
    /// stages a real table and the walk makes progress).
    fn extending_job(id: u32) -> ContigJob {
        let contig = b"ACGTTGCAAGGCTTAGGCATT".to_vec();
        let mut seq = contig.clone();
        seq.extend_from_slice(b"CCGGATACCGGT");
        let reads = vec![
            Read::with_uniform_qual(&seq[3..], b'I'),
            Read::with_uniform_qual(&seq[6..], b'I'),
            Read::with_uniform_qual(&seq[9..], b'I'),
        ];
        ContigJob::new(id, contig, reads.clone(), reads)
    }

    fn request(tenant: u32, seq: u32, arrival: f64) -> ExtensionRequest {
        ExtensionRequest::new(
            RequestId::new(TenantId(tenant), seq),
            extending_job(seq),
            arrival,
        )
    }

    fn service() -> ServiceConfig {
        ServiceConfig::for_device(DeviceId::A100, k())
    }

    #[test]
    fn completed_results_match_standalone_runs() {
        // Invariant 9: admission changes when a job runs, never its
        // result. Every completed extension must be bit-identical to a
        // standalone launch of the same job.
        let reqs: Vec<ExtensionRequest> =
            (0..3).flat_map(|t| (0..2).map(move |s| request(t, s, 0.0))).collect();
        let mut cfg = service();
        cfg.batch.max_jobs = 2; // force several batches
        let report = run_service(&reqs, &cfg);
        assert_eq!(report.completed(), reqs.len());
        assert!(report.batches.len() >= 3);
        for req in &reqs {
            let standalone =
                run_local_assembly(&Dataset::new(k(), vec![req.job.clone()]), &cfg.gpu);
            let got = report.outcome(req.id).and_then(ServiceOutcome::extension);
            assert_eq!(
                got,
                Some(&standalone.extensions[0]),
                "{}: batched result must equal the standalone run",
                req.id
            );
        }
    }

    #[test]
    fn replay_is_bit_identical() {
        let reqs: Vec<ExtensionRequest> = (0..4)
            .map(|s| request(s % 2, s / 2, 0.001 * s as f64))
            .collect();
        let cfg = service();
        assert_eq!(run_service(&reqs, &cfg), run_service(&reqs, &cfg));
    }

    #[test]
    fn backpressure_rejects_structured() {
        let mut cfg = service();
        cfg.queue = QueueConfig::bounded(2)
            .with_quota(TenantId(1), TenantQuota { max_queued: 1, weight: 1 });
        cfg.batch.max_jobs = 1;
        // All four arrive before anything runs: two fit, tenant 1's
        // second submission hits its quota, the last hits the global cap.
        let reqs =
            vec![request(1, 0, 0.0), request(1, 1, 0.0), request(2, 0, 0.0), request(2, 1, 0.0)];
        let report = run_service(&reqs, &cfg);
        assert_eq!(
            report.outcome(RequestId::new(TenantId(1), 1)),
            Some(&ServiceOutcome::Rejected {
                reason: RejectReason::TenantQuotaExceeded { quota: 1 },
                at: 0.0
            })
        );
        assert_eq!(
            report.outcome(RequestId::new(TenantId(2), 1)),
            Some(&ServiceOutcome::Rejected {
                reason: RejectReason::QueueFull { depth: 2 },
                at: 0.0
            })
        );
        assert_eq!(report.completed(), 2);
        assert_eq!(report.rejected(), 2);
    }

    #[test]
    fn deadlines_time_out_deterministically() {
        let mut cfg = service();
        cfg.batch.max_jobs = 1;
        // Request (0,0) rides the first batch, but any batch takes
        // longer than its microscopic deadline: it executes and then
        // times out. Request (0,1) waits behind it with a deadline far
        // shorter than one batch, so it expires still queued. Tenant 1's
        // deadline-free request completes.
        let reqs = vec![
            request(0, 0, 0.0).with_deadline(1e-12),
            request(0, 1, 0.0).with_deadline(1e-9),
            request(1, 0, 0.0),
        ];
        let report = run_service(&reqs, &cfg);
        assert!(matches!(
            report.outcome(reqs[0].id),
            Some(ServiceOutcome::TimedOut { stage: TimeoutStage::Executed, .. })
        ));
        assert!(matches!(
            report.outcome(reqs[1].id),
            Some(ServiceOutcome::TimedOut { stage: TimeoutStage::Queued, .. })
        ));
        assert!(report.outcome(reqs[2].id).is_some_and(ServiceOutcome::completed));
        assert_eq!(report.timed_out(), 2);
    }

    #[test]
    fn transient_fault_requeues_then_completes() {
        // The victim faults persistently enough to exhaust one run's
        // escalation ladder, gets re-enqueued with backoff, and
        // completes clean on the second run — proof that the fault
        // plan's attempt budget spans re-enqueues via consume().
        let victim = RequestId::new(TenantId(0), 0);
        let mut cfg = service().with_fault(FaultPlan::table_full(victim.uid()).persist(2));
        cfg.requeue = RequeuePolicy::exponential(3, 1e-3);
        let reqs = vec![request(0, 0, 0.0), request(1, 0, 0.0)];
        let report = run_service(&reqs, &cfg);
        match report.outcome(victim) {
            Some(ServiceOutcome::Completed { result, requeues, .. }) => {
                assert_eq!(*requeues, 1, "one service-level requeue");
                let standalone =
                    run_local_assembly(&Dataset::new(k(), vec![extending_job(0)]), &cfg.gpu);
                assert_eq!(
                    result, &standalone.extensions[0],
                    "post-requeue result still matches the standalone run"
                );
            }
            other => panic!("victim should complete after requeue, got {other:?}"),
        }
        // The backoff produced a later batch: victim's completion comes
        // from a batch launched after its first failing one.
        assert!(report.batches.len() >= 2);
    }

    #[test]
    fn poison_job_is_quarantined_and_isolated() {
        let victim = RequestId::new(TenantId(0), 0);
        let mut cfg = service().with_fault(FaultPlan::table_full(victim.uid()).persist(u32::MAX));
        cfg.requeue = RequeuePolicy::exponential(2, 1e-3);
        let reqs = vec![request(0, 0, 0.0), request(1, 0, 0.0), request(2, 0, 0.0)];
        let report = run_service(&reqs, &cfg);
        match report.outcome(victim) {
            Some(ServiceOutcome::Quarantined { attempts, requeues, .. }) => {
                assert_eq!(*requeues, 2, "every requeue was spent first");
                assert!(*attempts >= 3, "each run burned at least one attempt");
            }
            other => panic!("persistent fault must quarantine, got {other:?}"),
        }
        // Bystanders are untouched: identical to a fault-free service.
        let mut clean_cfg = cfg.clone();
        clean_cfg.fault = None;
        let clean = run_service(&reqs, &clean_cfg);
        for req in &reqs[1..] {
            assert_eq!(
                report.outcome(req.id).and_then(ServiceOutcome::extension),
                clean.outcome(req.id).and_then(ServiceOutcome::extension),
                "{}: co-tenant result must be fault-invariant",
                req.id
            );
        }
    }

    #[test]
    fn report_percentiles_are_nearest_rank() {
        let mk = |seq: u32, arrival: f64, done: f64| RequestRecord {
            id: RequestId::new(TenantId(0), seq),
            arrival,
            outcome: ServiceOutcome::Completed {
                result: locassm_core::ExtensionResult {
                    id: seq,
                    right: Vec::new(),
                    left: Vec::new(),
                    right_state: locassm_core::WalkState::End,
                    left_state: locassm_core::WalkState::End,
                },
                kernel: JobOutcome::Ok,
                requeues: 0,
                completed_at: done,
            },
        };
        let report = ServiceReport {
            records: vec![mk(0, 0.0, 1.0), mk(1, 0.0, 2.0), mk(2, 0.0, 4.0), mk(3, 0.0, 8.0)],
            batches: Vec::new(),
            makespan: 8.0,
        };
        assert_eq!(report.latency_percentile(50.0), Some(2.0));
        assert_eq!(report.latency_percentile(99.0), Some(8.0));
        assert_eq!(report.latencies(), vec![1.0, 2.0, 4.0, 8.0]);
        assert_eq!(report.throughput(), 0.5);
        assert_eq!(ServiceReport::default().latency_percentile(50.0), None);
    }

    #[test]
    fn staggered_arrivals_advance_the_virtual_clock() {
        let mut cfg = service();
        cfg.batch.max_jobs = 8;
        // Second wave arrives long after the first batch finishes: the
        // clock must jump, and the waves must land in separate batches.
        let reqs = vec![request(0, 0, 0.0), request(0, 1, 10.0), request(1, 0, 10.0)];
        let report = run_service(&reqs, &cfg);
        assert_eq!(report.completed(), 3);
        assert_eq!(report.batches.len(), 2);
        assert!(report.batches[1].started_at >= 10.0);
        assert!(report.makespan > 10.0);
    }
}
