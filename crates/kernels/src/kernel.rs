//! The extension kernel: dialect dispatch + construct-then-walk per warp.

use crate::construct::construct_hash_table;
use crate::fault::KernelFault;
use crate::layout::DeviceJob;
use crate::probe::{InsertArgs, ProbeStrategy, SlotVec};
use crate::table::TableLayoutKind;
use crate::walk::mer_walk_kernel;
use gpu_specs::{DeviceId, ProgrammingModel};
use locassm_core::walk::{WalkConfig, WalkState};
use locassm_core::{Read, RetryPolicy};
use simt::{Warp, WarpCounters};
use std::borrow::Cow;

/// The three kernel dialects of the paper (Appendix A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dialect {
    Cuda,
    Hip,
    Sycl,
}

impl Dialect {
    /// The dialect written for a programming model (Table I).
    pub fn for_model(m: ProgrammingModel) -> Dialect {
        match m {
            ProgrammingModel::Cuda => Dialect::Cuda,
            ProgrammingModel::Hip => Dialect::Hip,
            ProgrammingModel::Sycl => Dialect::Sycl,
        }
    }

    /// The dialect the paper runs on a device (CUDA↔A100, HIP↔MI250X,
    /// SYCL↔Max 1550).
    pub fn native_for(device: DeviceId) -> Dialect {
        Dialect::for_model(device.spec().model)
    }

    /// Dispatch `ht_get_atomic`. The job is mutable because an armed
    /// in-kernel resize ([`DeviceJob::resize`]) may swap the table region
    /// and capacity mid-insert (see [`crate::resize`]).
    pub fn insert(
        self,
        warp: &mut Warp,
        job: &mut DeviceJob,
        args: &InsertArgs,
    ) -> Result<SlotVec, KernelFault> {
        match self {
            Dialect::Cuda => crate::insert_cuda::ht_get_atomic(warp, job, args),
            Dialect::Hip => crate::insert_hip::ht_get_atomic(warp, job, args),
            Dialect::Sycl => crate::insert_sycl::ht_get_atomic(warp, job, args),
        }
    }
}

impl std::fmt::Display for Dialect {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Dialect::Cuda => "CUDA",
            Dialect::Hip => "HIP",
            Dialect::Sycl => "SYCL",
        };
        f.write_str(s)
    }
}

/// One warp's work item.
///
/// The sequence data and retry policy are [`Cow`]s so the batch-assembly
/// hot path stays zero-copy: right-extension jobs *borrow* their contig
/// and reads straight from the `Dataset` (the host never duplicates
/// sequence bytes, mirroring how the real pipeline hands the kernel
/// pointers into pinned host buffers), while left-extension jobs own the
/// reverse-complemented transform that genuinely requires new storage.
#[derive(Debug, Clone)]
pub struct KernelJob<'a> {
    pub contig: Cow<'a, [u8]>,
    pub reads: Cow<'a, [Read]>,
    pub k: usize,
    pub walk: WalkConfig,
    pub retry: Cow<'a, RetryPolicy>,
    pub dialect: Dialect,
    /// Multiplier on the host-side hash-table slot estimate. 1 for first
    /// attempts; the launch layer raises it when escalating a
    /// `HashTableFull` fault (grown-table retry).
    pub slot_reserve: u32,
    /// Probe-cursor strategy for every table access of the job
    /// (extensions are invariant across strategies).
    pub probe: ProbeStrategy,
    /// Table organization for every hash-table access of the job (see
    /// [`crate::table`]); like `probe`, extensions are invariant across
    /// layouts.
    pub layout: TableLayoutKind,
    /// Arm in-kernel incremental resizing (see [`crate::resize`]): the
    /// insert dialects grow the table past its high-water mark instead of
    /// faulting `HashTableFull` for the grown-reserve escalation ladder.
    /// Like `probe`/`layout`, a pure capacity policy — extensions are
    /// invariant.
    pub resize: bool,
}

impl<'a> KernelJob<'a> {
    /// A zero-copy job borrowing its inputs (the right-extension path).
    pub fn borrowed(
        contig: &'a [u8],
        reads: &'a [Read],
        k: usize,
        walk: WalkConfig,
        retry: &'a RetryPolicy,
        dialect: Dialect,
    ) -> Self {
        KernelJob {
            contig: Cow::Borrowed(contig),
            reads: Cow::Borrowed(reads),
            k,
            walk,
            retry: Cow::Borrowed(retry),
            dialect,
            slot_reserve: 1,
            probe: ProbeStrategy::default(),
            layout: TableLayoutKind::default(),
            resize: false,
        }
    }

    /// A job owning transformed inputs (the left-extension path, which
    /// reverse-complements contig and reads), still borrowing the retry
    /// policy.
    pub fn transformed(
        contig: Vec<u8>,
        reads: Vec<Read>,
        k: usize,
        walk: WalkConfig,
        retry: &'a RetryPolicy,
        dialect: Dialect,
    ) -> Self {
        KernelJob {
            contig: Cow::Owned(contig),
            reads: Cow::Owned(reads),
            k,
            walk,
            retry: Cow::Borrowed(retry),
            dialect,
            slot_reserve: 1,
            probe: ProbeStrategy::default(),
            layout: TableLayoutKind::default(),
            resize: false,
        }
    }

    /// A fully owned job with no outside borrows (tests, single-shot runs).
    pub fn owned(
        contig: Vec<u8>,
        reads: Vec<Read>,
        k: usize,
        walk: WalkConfig,
        retry: RetryPolicy,
        dialect: Dialect,
    ) -> KernelJob<'static> {
        KernelJob {
            contig: Cow::Owned(contig),
            reads: Cow::Owned(reads),
            k,
            walk,
            retry: Cow::Owned(retry),
            dialect,
            slot_reserve: 1,
            probe: ProbeStrategy::default(),
            layout: TableLayoutKind::default(),
            resize: false,
        }
    }
}

/// What one warp returns to the host.
#[derive(Debug, Clone)]
pub struct KernelOut {
    pub extension: Vec<u8>,
    pub state: WalkState,
    /// Counter snapshot at the construct/walk phase boundary.
    pub construct: WarpCounters,
    /// The walk-phase instruction budget of the last k tried (the
    /// watchdog ceiling derived from the staged layout; 0 when nothing
    /// was staged).
    pub walk_budget: u64,
}

/// The per-warp extension kernel body: stage → Algorithm 1 → Algorithm 2,
/// repeated down the retry ladder while the walk is not accepted (Fig. 4's
/// "repeat with different k-mer size" loop — each retry rebuilds the hash
/// table at the smaller k, exactly as the diagram shows).
///
/// Faults (arena exhaustion, hash-table overflow, a tripped walk
/// watchdog, malformed inputs) propagate as `Err` instead of panicking;
/// the launch layer decides whether to retry. Every open trace phase is
/// closed before an `Err` return, so a faulting warp can still be
/// drained and returned to the pool.
pub fn extension_kernel(
    warp: &mut Warp,
    job: &KernelJob<'_>,
) -> Result<KernelOut, KernelFault> {
    if job.reads.is_empty() {
        return Ok(KernelOut {
            extension: Vec::new(),
            state: WalkState::End,
            construct: warp.snapshot(),
            walk_budget: 0,
        });
    }
    if job.k == 0 {
        return Err(KernelFault::MalformedJob { reason: "k must be positive" });
    }
    let mut best: Option<locassm_core::Walk> = None;
    let mut construct = warp.snapshot();
    let mut walk_budget = 0u64;
    for k in job.retry.schedule(job.k) {
        if job.contig.len() < k {
            continue;
        }
        if job.contig.len() < 4 {
            // The walk tail clamp reads the contig's last 4-byte chunk;
            // shorter contigs (that still cover k) cannot be staged.
            return Err(KernelFault::MalformedJob {
                reason: "contig shorter than one 4-base chunk",
            });
        }
        warp.phase_enter("stage");
        let staged = DeviceJob::stage_with_layout(
            warp,
            &job.contig,
            &job.reads,
            k,
            job.walk,
            job.slot_reserve,
            job.layout,
        );
        warp.phase_exit("stage");
        let mut dev = staged?;
        // The probe strategy travels on the job, not the stage call, so
        // the ~dozen direct `DeviceJob::stage` call sites keep their
        // signature (and their Linear default).
        dev.probe = job.probe;
        dev.resize = job.resize;
        warp.phase_enter("construct");
        if let Err(fault) = construct_hash_table(warp, &mut dev, job.dialect) {
            warp.phase_exit("construct");
            return Err(fault);
        }
        warp.phase_exit("construct");
        // Read the budget *after* construct: an in-kernel resize changes
        // the table capacity and probe cost, and re-derives the watchdog
        // ceiling for the grown geometry.
        walk_budget = dev.walk_budget;
        if warp.san_config().invariants {
            // Sanitizer invariant pass: host-side table scan, zero modeled
            // instructions (collected first — recording needs &mut).
            for kind in crate::layout::check_table_invariants(warp, &dev) {
                warp.san_record(kind);
            }
        }
        construct = warp.snapshot();
        warp.phase_enter("walk");
        let walk = mer_walk_kernel(warp, &dev);
        warp.phase_exit("walk");
        let walk = walk?;
        let accepted = job.retry.accepts(&walk);
        let longer = best.as_ref().is_none_or(|b| walk.extension.len() >= b.extension.len());
        if longer {
            best = Some(walk);
        }
        if accepted {
            break;
        }
    }
    Ok(match best {
        Some(walk) => KernelOut { extension: walk.extension, state: walk.state, construct, walk_budget },
        None => KernelOut {
            extension: Vec::new(),
            state: WalkState::End,
            construct: warp.snapshot(),
            walk_budget,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use memhier::HierarchyConfig;

    #[test]
    fn dialect_mappings() {
        assert_eq!(Dialect::native_for(DeviceId::A100), Dialect::Cuda);
        assert_eq!(Dialect::native_for(DeviceId::Mi250x), Dialect::Hip);
        assert_eq!(Dialect::native_for(DeviceId::Max1550), Dialect::Sycl);
        assert_eq!(Dialect::Cuda.to_string(), "CUDA");
    }

    #[test]
    fn degenerate_jobs_return_empty() {
        let mut warp = Warp::new(32, HierarchyConfig::tiny());
        let job = KernelJob::owned(
            b"ACG".to_vec(),
            vec![Read::with_uniform_qual(b"ACGTACGT", b'I')],
            5,
            WalkConfig::default(),
            RetryPolicy::none(),
            Dialect::Cuda,
        );
        let out = extension_kernel(&mut warp, &job).unwrap();
        assert!(out.extension.is_empty());
        assert_eq!(out.state, WalkState::End);
    }

    #[test]
    fn zero_k_is_a_malformed_job() {
        let mut warp = Warp::new(32, HierarchyConfig::tiny());
        let job = KernelJob::owned(
            b"ACGTACGT".to_vec(),
            vec![Read::with_uniform_qual(b"ACGTACGT", b'I')],
            0,
            WalkConfig::default(),
            RetryPolicy::none(),
            Dialect::Cuda,
        );
        match extension_kernel(&mut warp, &job) {
            Err(KernelFault::MalformedJob { .. }) => {}
            other => panic!("expected MalformedJob, got {other:?}"),
        }
    }

    #[test]
    fn kernel_extends_and_counts_phases() {
        let mut warp = Warp::new(32, HierarchyConfig::tiny());
        let job = KernelJob::owned(
            b"GGGGACGTACG".to_vec(),
            vec![Read::with_uniform_qual(b"ACGTACGGTTACCA", b'I')],
            4,
            WalkConfig { min_votes: 1, ..WalkConfig::default() },
            RetryPolicy::none(),
            Dialect::Cuda,
        );
        let out = extension_kernel(&mut warp, &job).unwrap();
        assert!(!out.extension.is_empty());
        assert!(out.walk_budget > 0, "a staged job reports its walk budget");
        let total = warp.finish();
        assert!(out.construct.int_instructions > 0);
        assert!(
            total.int_instructions > out.construct.int_instructions,
            "walk phase must add instructions"
        );
    }
}

#[cfg(test)]
mod capacity_boundary_tests {
    //! Regression tests pinning the unified wrap-guard boundary: every
    //! dialect allows exactly `job.slots` probing rounds (one full wrap)
    //! and faults on the round that would revisit the chain's origin.
    //! Before unification the HIP dialect allowed `slots + 2` rounds and
    //! CUDA/SYCL `slots + 1`, so a chain could re-probe its own origin.

    use super::*;
    use crate::probe::InsertArgs;
    use locassm_core::walk::WalkConfig;
    use locassm_core::Read;
    use memhier::HierarchyConfig;
    use simt::{LaneVec, Mask};

    const SLOTS: u32 = 4;

    /// Stage a job with plenty of distinct 8-mers, then lie about the
    /// table size so `SLOTS` distinct keys exactly fill it.
    fn tiny_table() -> (Warp, DeviceJob) {
        let mut warp = Warp::new(32, HierarchyConfig::tiny());
        let seq: Vec<u8> = (0..160).map(|i| b"ACGT"[(i * 7 + i / 4) % 4]).collect();
        let reads = vec![Read::with_uniform_qual(&seq, b'I')];
        let mut job =
            DeviceJob::stage(&mut warp, b"ACGTACGTACGT", &reads, 8, WalkConfig::default(), 1)
                .unwrap();
        job.slots = SLOTS;
        (warp, job)
    }

    fn insert_one(
        dialect: Dialect,
        warp: &mut Warp,
        job: &mut DeviceJob,
        off: u32,
    ) -> Result<SlotVec, KernelFault> {
        let args = InsertArgs {
            mask: Mask::lane(0),
            key_off: LaneVec::splat(off),
            hash: LaneVec::splat(0u32), // all chains start at slot 0
        };
        dialect.insert(warp, job, &args)
    }

    fn boundary(dialect: Dialect) {
        let (mut warp, mut job) = tiny_table();
        // SLOTS distinct keys, all hashed to slot 0: the last one probes
        // slots 0..SLOTS-1 — exactly `slots` rounds — and must succeed.
        for off in 0..SLOTS {
            let slot = insert_one(dialect, &mut warp, &mut job, off)
                .unwrap_or_else(|f| panic!("{dialect}: insert {off} must fit: {f}"));
            assert_eq!(slot[0], off, "{dialect}: linear probe claims slot {off}");
        }
        // One more distinct key needs a round beyond the full wrap.
        match insert_one(dialect, &mut warp, &mut job, SLOTS) {
            Err(KernelFault::HashTableFull { capacity, occupancy }) => {
                assert_eq!(capacity, SLOTS, "{dialect}: fault reports table capacity");
                assert_eq!(occupancy, SLOTS, "{dialect}: fault reports claimed slots");
            }
            other => panic!("{dialect}: expected HashTableFull, got {other:?}"),
        }
    }

    #[test]
    fn cuda_allows_exactly_slots_rounds() {
        boundary(Dialect::Cuda);
    }

    #[test]
    fn hip_allows_exactly_slots_rounds() {
        boundary(Dialect::Hip);
    }

    #[test]
    fn sycl_allows_exactly_slots_rounds() {
        boundary(Dialect::Sycl);
    }

    #[test]
    fn reinsertion_at_full_occupancy_still_succeeds() {
        // A *matching* key never needs the extra round: finding the entry
        // at the end of the wrap is within budget on every dialect.
        for dialect in [Dialect::Cuda, Dialect::Hip, Dialect::Sycl] {
            let (mut warp, mut job) = tiny_table();
            for off in 0..SLOTS {
                insert_one(dialect, &mut warp, &mut job, off).unwrap();
            }
            // Re-insert the key living in the last probed slot.
            let again = insert_one(dialect, &mut warp, &mut job, SLOTS - 1)
                .unwrap_or_else(|f| panic!("{dialect}: reinsertion must find its entry: {f}"));
            assert_eq!(again[0], SLOTS - 1, "{dialect}");
        }
    }
}
