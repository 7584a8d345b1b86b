//! Property-based fault-injection suite (the tentpole's proof harness):
//! for any job set and any injected single fault, every *other* job's
//! extension is bit-identical to the fault-free run, and recovered jobs
//! match the CPU reference at the k they recovered with.

use gpu_specs::DeviceId;
use locassm_core::io::Dataset;
use locassm_core::{assemble_all, AssemblyConfig, ContigJob, Read, RetryPolicy};
use locassm_kernels::{
    job_order, plan_launches, run_local_assembly, GpuConfig, GpuRunResult, JobOutcome, KernelFault,
    Side,
};
use proptest::prelude::*;
use simt::FaultPlan;
use std::sync::OnceLock;
use workloads::paper_dataset;

fn dataset() -> &'static Dataset {
    static DS: OnceLock<Dataset> = OnceLock::new();
    DS.get_or_init(|| paper_dataset(21, 0.002, 42))
}

fn config(retry: RetryPolicy) -> GpuConfig {
    let mut cfg = GpuConfig::for_device(DeviceId::A100);
    cfg.retry = retry;
    cfg
}

fn baseline_none() -> &'static GpuRunResult {
    static RUN: OnceLock<GpuRunResult> = OnceLock::new();
    RUN.get_or_init(|| run_local_assembly(dataset(), &config(RetryPolicy::none())))
}

fn baseline_ladder() -> &'static GpuRunResult {
    static RUN: OnceLock<GpuRunResult> = OnceLock::new();
    RUN.get_or_init(|| run_local_assembly(dataset(), &config(RetryPolicy::ladder(21))))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Any transient single fault — table-full, a failed arena
    /// allocation, or a tripped watchdog, at any job — leaves every
    /// extension bit-identical to the fault-free run (the victim
    /// recovers exactly) and marks exactly the victim `Recovered`.
    #[test]
    fn transient_single_fault_is_invisible_in_the_output(seed in 0u64..1_000_000) {
        let ds = dataset();
        let mut cfg = config(RetryPolicy::none());
        let jobs: Vec<_> = job_order(&plan_launches(ds, &cfg)).collect();
        let plan = FaultPlan::seeded(seed, jobs.len() as u64);
        let victim = plan.victim();
        cfg.fault = Some(plan);

        let faulted = run_local_assembly(ds, &cfg);
        let clean = baseline_none();
        prop_assert_eq!(&faulted.extensions, &clean.extensions);

        let (victim_idx, _) = jobs[victim as usize];
        for (i, o) in faulted.outcomes.iter().enumerate() {
            if i == victim_idx {
                prop_assert_eq!(*o, JobOutcome::Recovered { attempts: 1 });
            } else {
                prop_assert_eq!(*o, JobOutcome::Ok);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// A *persistent* single fault exhausts escalation: the victim ends
    /// `Failed` with its faulted side empty, and — the isolation
    /// property — every other job plus the victim's clean side stays
    /// bit-identical to the fault-free run.
    #[test]
    fn persistent_single_fault_isolates_to_the_victim(seed in 0u64..1_000_000) {
        let ds = dataset();
        let mut cfg = config(RetryPolicy::none());
        let jobs: Vec<_> = job_order(&plan_launches(ds, &cfg)).collect();
        let plan = FaultPlan::seeded(seed, jobs.len() as u64).persist(u32::MAX);
        let victim = plan.victim();
        cfg.fault = Some(plan);

        let faulted = run_local_assembly(ds, &cfg);
        let clean = baseline_none();
        let (victim_idx, side) = jobs[victim as usize];

        for (i, (c, f)) in clean.extensions.iter().zip(&faulted.extensions).enumerate() {
            if i != victim_idx {
                prop_assert_eq!(c, f, "job {} must be untouched", i);
            }
        }
        prop_assert!(!faulted.outcomes[victim_idx].succeeded());
        let v_clean = &clean.extensions[victim_idx];
        let v_faulted = &faulted.extensions[victim_idx];
        if side == Side::Right {
            prop_assert!(v_faulted.right.is_empty());
            prop_assert_eq!(&v_faulted.left, &v_clean.left);
        } else {
            prop_assert!(v_faulted.left.is_empty());
            prop_assert_eq!(&v_faulted.right, &v_clean.right);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// A table-full fault persisting through the grown same-k retry
    /// pushes escalation down the k-ladder: the victim recovers at the
    /// first fallback k and its faulted side matches the CPU reference
    /// assembled with that k as primary.
    #[test]
    fn ladder_recovery_matches_the_cpu_reference_at_fallback_k(victim_pick in 0usize..64) {
        let ds = dataset();
        let mut cfg = config(RetryPolicy::ladder(ds.k));
        let jobs: Vec<_> = job_order(&plan_launches(ds, &cfg)).collect();
        let victim = (victim_pick % jobs.len()) as u64;
        cfg.fault = Some(FaultPlan::table_full(victim).persist(2));

        let faulted = run_local_assembly(ds, &cfg);
        let clean = baseline_ladder();
        let (victim_idx, side) = jobs[victim as usize];

        for (i, (c, f)) in clean.extensions.iter().zip(&faulted.extensions).enumerate() {
            if i != victim_idx {
                prop_assert_eq!(c, f, "job {} must be untouched", i);
            }
        }
        prop_assert_eq!(faulted.outcomes[victim_idx], JobOutcome::Recovered { attempts: 2 });

        let fallback_k = cfg.retry.schedule(ds.k)[1];
        let oracle = assemble_all(
            std::slice::from_ref(&ds.jobs[victim_idx]),
            &AssemblyConfig { k: fallback_k, walk: cfg.walk, retry: cfg.retry.clone() },
            true,
        );
        let v = &faulted.extensions[victim_idx];
        if side == Side::Right {
            prop_assert_eq!(&v.right, &oracle[0].right);
        } else {
            prop_assert_eq!(&v.left, &oracle[0].left);
        }
    }
}

/// A deterministic pseudo-random DNA sequence (fixed data, no RNG): its
/// k-mers are effectively all distinct, so insertions ≈ occupied slots
/// and a squeezed table's overflow behaviour is predictable.
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

/// One contig whose single right read carries ~`n_kmers` distinct k-mers
/// — the minimal workload whose hash table genuinely fills up when its
/// host-side slot estimate is violated.
fn squeeze_dataset(k: usize, n_kmers: usize) -> Dataset {
    let seq = scrambled_seq(n_kmers + k - 1);
    let contig = seq[..k.max(8)].to_vec();
    let job = ContigJob::new(0, contig, vec![Read::with_uniform_qual(&seq, b'I')], vec![]);
    Dataset::new(k, vec![job])
}

/// A contig shorter than one 4-byte chunk (but long enough for k) is a
/// structured `MalformedJob`: the walk's tail arithmetic would wrap, so
/// the kernel refuses it outright — and escalation must not retry it,
/// nor may it disturb the healthy job sharing the run.
#[test]
fn sub_chunk_contig_is_malformed_and_not_retried() {
    let jobs = vec![
        ContigJob::new(0, b"ACG".to_vec(), vec![Read::with_uniform_qual(b"ACGTAC", b'I')], vec![]),
        ContigJob::new(
            1,
            b"ACGTACGT".to_vec(),
            vec![Read::with_uniform_qual(b"ACGTACGTAC", b'I')],
            vec![],
        ),
    ];
    let ds = Dataset::new(3, jobs);
    // A retry ladder is armed on purpose: MalformedJob must bypass it.
    let r = run_local_assembly(&ds, &config(RetryPolicy::ladder(3)));
    match r.outcomes[0] {
        JobOutcome::Failed { fault: KernelFault::MalformedJob { .. }, attempts: 0 } => {}
        other => panic!("expected Failed(MalformedJob) with zero retries, got {other:?}"),
    }
    assert!(r.extensions[0].right.is_empty());
    assert_eq!(r.outcomes[1], JobOutcome::Ok, "the healthy job is untouched");
}

/// A table squeeze (simulated violated host estimate) on the default
/// linear layout genuinely overflows the under-sized table — no
/// short-circuit — and the grown-reserve escalation recovers the job
/// bit-exactly on the first retry.
#[test]
fn table_squeeze_enters_the_grown_reserve_ladder_on_linear() {
    let ds = squeeze_dataset(21, 80);
    let cfg = config(RetryPolicy::none());
    let clean = run_local_assembly(&ds, &cfg);
    assert_eq!(clean.outcomes[0], JobOutcome::Ok, "unsqueezed run must be clean");

    let mut squeezed_cfg = cfg.clone();
    squeezed_cfg.fault = Some(FaultPlan::table_squeeze(0, 3));
    let squeezed = run_local_assembly(&ds, &squeezed_cfg);
    assert_eq!(
        squeezed.outcomes[0],
        JobOutcome::Recovered { attempts: 1 },
        "a squeezed linear table must overflow and recover via the grown reserve"
    );
    assert_eq!(squeezed.extensions, clean.extensions, "recovery is bit-exact");
}

/// A squeeze persisting through every escalation step exhausts the
/// ladder with a real `HashTableFull` carrying the squeezed capacity.
/// The divisor outpaces the doubled reserve of the grown retry (a ÷3
/// squeeze alone would be rescued by it — see the transient test above).
#[test]
fn persistent_table_squeeze_exhausts_escalation() {
    let ds = squeeze_dataset(21, 80);
    let mut cfg = config(RetryPolicy::none());
    cfg.fault = Some(FaultPlan::table_squeeze(0, 6).persist(u32::MAX));
    let r = run_local_assembly(&ds, &cfg);
    match r.outcomes[0] {
        JobOutcome::Failed { fault: KernelFault::HashTableFull { capacity, .. }, attempts } => {
            assert!(capacity > 0, "the overflow reports the squeezed table");
            assert!(attempts >= 1, "the exhausted ladder reports its attempt count");
        }
        other => panic!("expected Failed(HashTableFull), got {other:?}"),
    }
}

/// Non-property smoke check tying the suite together: a `Failed` job's
/// fault survives into the outcome with its diagnostic payload.
#[test]
fn failed_outcome_carries_the_fault_payload() {
    let ds = dataset();
    let mut cfg = config(RetryPolicy::none());
    cfg.fault = Some(FaultPlan::table_full(0).persist(u32::MAX));
    let r = run_local_assembly(ds, &cfg);
    let (victim_idx, _) = job_order(&plan_launches(ds, &cfg)).next().expect("a launched job");
    match r.outcomes[victim_idx] {
        JobOutcome::Failed { fault: KernelFault::HashTableFull { capacity, .. }, attempts } => {
            assert!(capacity > 0, "the fault reports the table that overflowed");
            assert!(attempts >= 1, "the fault payload carries the exact attempt count");
        }
        other => panic!("expected Failed(HashTableFull), got {other:?}"),
    }
}

/// Service-level saturation scenario (the tentpole's isolation proof):
/// one tenant's poison job, under full queue pressure, must leave every
/// other tenant's outcome untouched — identical admissions, identical
/// rejections, and bit-identical extensions — while the poison job
/// itself burns its requeues and lands in quarantine.
#[test]
fn poison_tenant_under_saturation_leaves_other_tenants_bit_identical() {
    use locassm_core::{RequestId, TenantId};
    use locassm_service::{
        run_service, ExtensionRequest, QueueConfig, RequeuePolicy, ServiceConfig, ServiceOutcome,
    };

    let ds = dataset();
    // Three tenants, four submissions each, arrivals interleaved
    // round-robin; the queue holds half of them, so admission is under
    // genuine backpressure and the rest are rejected.
    let reqs: Vec<ExtensionRequest> = (0..12)
        .map(|i| {
            let (tenant, seq) = (i as u32 % 3, i as u32 / 3);
            ExtensionRequest::new(
                RequestId::new(TenantId(tenant), seq),
                ds.jobs[i % ds.jobs.len()].clone(),
                i as f64 * 1e-6,
            )
        })
        .collect();
    let victim = RequestId::new(TenantId(0), 0);

    let mut cfg = ServiceConfig::for_device(DeviceId::A100, ds.k);
    cfg.queue = QueueConfig::bounded(6);
    cfg.batch.max_jobs = 2;
    cfg.requeue = RequeuePolicy::exponential(1, 1e-3);

    let clean = run_service(&reqs, &cfg);
    let poisoned = run_service(
        &reqs,
        &cfg.clone().with_fault(FaultPlan::table_full(victim.uid()).persist(u32::MAX)),
    );

    match poisoned.outcome(victim) {
        Some(ServiceOutcome::Quarantined { requeues, attempts, .. }) => {
            assert_eq!(*requeues, 1, "the requeue budget is spent before quarantine");
            assert!(*attempts >= 2, "both runs burned attempts");
        }
        other => panic!("poison job must be quarantined, got {other:?}"),
    }

    for req in reqs.iter().filter(|r| r.id != victim) {
        let (c, p) = (clean.outcome(req.id), poisoned.outcome(req.id));
        match (c, p) {
            (
                Some(ServiceOutcome::Completed { result: rc, .. }),
                Some(ServiceOutcome::Completed { result: rp, .. }),
            ) => assert_eq!(rc, rp, "{}: extension must be bit-identical", req.id),
            (
                Some(ServiceOutcome::Rejected { reason: a, .. }),
                Some(ServiceOutcome::Rejected { reason: b, .. }),
            ) => assert_eq!(a, b, "{}: rejection must be identical", req.id),
            other => panic!(
                "{}: outcome class must not change under a co-tenant's poison job: {other:?}",
                req.id
            ),
        }
    }
    assert!(
        clean.records.iter().any(|r| matches!(r.outcome, ServiceOutcome::Rejected { .. })),
        "the scenario must actually saturate the queue"
    );
}
