//! SYCL-dialect `ht_get_atomic` (paper Appendix A, third listing).
//!
//! The SYCLomatic port replaces `__match_any_sync`/`__syncwarp(mask)` with
//! a sub-group `barrier()` after the claim+publish step of every probe
//! round (`dpct::atomic_compare_exchange_strong` + `sg.barrier()`). The
//! sub-group width is 16 — the size the paper found "most consistent and
//! optimal" on the Max 1550 (§III-C) — which also reduces predication
//! waste for ragged work.

use crate::fault::KernelFault;
use crate::layout::{table_occupancy, DeviceJob, EMPTY};
use crate::probe::{
    advance, bucket_crossing_vote, cas_claim, compare_stored_keys, publish_key, start_slots,
    InsertArgs, SlotVec,
};
use crate::resize::ensure_capacity;
use simt::{Fault, Mask, Warp};

/// Find-or-claim the entry for each active lane's k-mer. Returns the slot
/// index per lane, or `HashTableFull` if a probe chain wraps the table
/// (the guard is uniform across the three dialects: at most the layout's
/// probe bound rounds — `job.slots` for linear probing). The resize
/// high-water check follows the rule documented on
/// [`crate::insert_cuda::ht_get_atomic`].
pub fn ht_get_atomic(
    warp: &mut Warp,
    job: &mut DeviceJob,
    args: &InsertArgs,
) -> Result<SlotVec, KernelFault> {
    if warp.injected() == Some(Fault::TableFull) {
        return Err(KernelFault::HashTableFull {
            capacity: job.slots,
            occupancy: table_occupancy(warp, job),
        });
    }
    ensure_capacity(warp, job, args.mask.count())?;
    let probe_bound = job.layout.as_layout().probe_bound(job);
    let mut slot = start_slots(warp, job, args);
    let mut searching = args.mask;

    // Wrap guard ("*hashtable full*" in the listings).
    let mut rounds = 0u32;
    while !searching.is_empty() {
        rounds += 1;
        if rounds > probe_bound {
            warp.san_record(simt::SanKind::ProbeWrap { rounds, slots: job.slots });
            return Err(KernelFault::HashTableFull {
                capacity: job.slots,
                occupancy: table_occupancy(warp, job),
            });
        }
        // prev = dpct::atomic_compare_exchange_strong(...)
        let prev = cas_claim(warp, job, searching, &slot);

        // Winners publish the key before the barrier.
        let mut winners = Mask::NONE;
        for l in searching.lanes() {
            if prev[l] == EMPTY {
                winners.set(l);
            }
        }
        publish_key(warp, job, winners, &slot, args);
        job.occupied += winners.count();

        // sg.barrier(): the whole sub-group synchronizes every round.
        warp.subgroup_barrier();

        let losers = searching & !winners;
        let eq = compare_stored_keys(warp, job, losers, &slot, args);
        warp.iop(searching, 2);

        let mut still = Mask::NONE;
        for l in searching.lanes() {
            if !(prev[l] == EMPTY || eq[l]) {
                still.set(l);
            }
        }
        searching = still;
        bucket_crossing_vote(warp, job, searching, rounds - 1);
        advance(warp, job, searching, &args.hash, rounds, &mut slot);
    }
    warp.trace_event(simt::EventKind::ProbeChain { rounds });
    Ok(slot)
}

#[cfg(test)]
mod tests {
    use super::*;
    use locassm_core::walk::WalkConfig;
    use locassm_core::Read;
    use memhier::HierarchyConfig;
    use simt::LaneVec;

    fn setup(width: u32) -> (Warp, DeviceJob) {
        let mut warp = Warp::new(width, HierarchyConfig::tiny());
        let reads = vec![Read::with_uniform_qual(b"ACGTACGTACGT", b'I')];
        let job =
            DeviceJob::stage(&mut warp, b"ACGTACGTACGT", &reads, 4, WalkConfig::default(), 1)
                .unwrap();
        (warp, job)
    }

    #[test]
    fn subgroup_width_16() {
        let (mut warp, mut job) = setup(16);
        let args = InsertArgs {
            mask: Mask::full(16),
            key_off: LaneVec::from_fn(16, |l| l % 9),
            hash: LaneVec::from_fn(16, |l| (l % 9 * 5) % job.slots),
        };
        let slots = ht_get_atomic(&mut warp, &mut job, &args).unwrap();
        for l in 0..16u32 {
            assert_eq!(slots[l], slots[l % 9]);
        }
    }

    #[test]
    fn same_result_as_cuda_dialect() {
        let run = |sycl: bool| {
            let (mut warp, mut job) = setup(16);
            let args = InsertArgs {
                mask: Mask(0b111),
                key_off: LaneVec::from_fn(16, |l| l),
                hash: LaneVec::splat(3u32),
            };
            let slots = if sycl {
                ht_get_atomic(&mut warp, &mut job, &args)
            } else {
                crate::insert_cuda::ht_get_atomic(&mut warp, &mut job, &args)
            }
            .unwrap();
            (0..3).map(|l| slots[l]).collect::<Vec<_>>()
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn barrier_per_round() {
        let (mut warp, mut job) = setup(16);
        // Two distinct keys from the same start slot → 2 probe rounds for
        // the second lane.
        let args = InsertArgs {
            mask: Mask(0b11),
            key_off: LaneVec::from_fn(16, |l| l),
            hash: LaneVec::splat(0u32),
        };
        let _ = ht_get_atomic(&mut warp, &mut job, &args);
        assert_eq!(warp.counters.sync_instructions, 2, "one barrier per probe round");
        assert_eq!(warp.counters.collective_instructions, 0, "no match_any in SYCL");
    }
}
