//! HIP-dialect `ht_get_atomic` (paper Appendix A, second listing).
//!
//! AMD wavefronts lack `__match_any_sync` and `__syncwarp(mask)`, so the
//! port keeps every lane in the loop with a `done` flag and terminates via
//! `__all(done)` — two `__all` ballots per round in the listing. The whole
//! 64-lane wavefront keeps issuing until the slowest probe chain finishes,
//! and every round pays the extra vote collectives: this is the modeled
//! productivity/performance cost of the missing intrinsics (§III-B).

use crate::fault::KernelFault;
use crate::layout::{table_occupancy, DeviceJob, EMPTY};
use crate::probe::{
    advance, bucket_crossing_vote, cas_claim, compare_stored_keys, publish_key, start_slots,
    InsertArgs, SlotVec,
};
use crate::resize::ensure_capacity;
use simt::{Fault, LaneVec, Mask, Warp};

/// Find-or-claim the entry for each active lane's k-mer. Returns the slot
/// index per lane, or `HashTableFull` if a probe chain wraps the table.
///
/// The wrap guard counts *probing* rounds, exactly like the CUDA and SYCL
/// dialects: a loop-top `__all(done)` that terminates the warp is not a
/// probe, so `rounds` only advances once lanes actually claim/compare.
/// All three dialects fault on the round that would revisit the probe's
/// origin (`rounds` past the layout's probe bound — `job.slots` for
/// linear probing). The resize high-water check follows the rule
/// documented on [`crate::insert_cuda::ht_get_atomic`].
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
    let mut done = LaneVec::from_fn(warp.width(), |l| !args.mask.contains(l));

    // Wrap guard: the table is sized host-side, so a full wrap means the
    // estimate was violated ("*hashtable full*" in the listings).
    let mut rounds = 0u32;
    loop {
        // if (__all(done)) return …
        let done_preds = LaneVec::from_fn(warp.width(), |l| done[l]);
        if warp.all(warp.full_mask(), &done_preds) {
            warp.trace_event(simt::EventKind::ProbeChain { rounds });
            return Ok(slot);
        }
        rounds += 1;
        if rounds > probe_bound {
            warp.san_record(simt::SanKind::ProbeWrap { rounds, slots: job.slots });
            return Err(KernelFault::HashTableFull {
                capacity: job.slots,
                occupancy: table_occupancy(warp, job),
            });
        }

        let not_done = {
            let mut m = Mask::NONE;
            for l in args.mask.lanes() {
                if !done[l] {
                    m.set(l);
                }
            }
            m
        };

        // if (!done) prev = atomicCAS(...)
        let prev = cas_claim(warp, job, not_done, &slot);

        // Winners publish their key (implicit wavefront lockstep stands in
        // for the missing __syncwarp — §III-B's "implicit synchronization").
        let mut winners = Mask::NONE;
        for l in not_done.lanes() {
            if prev[l] == EMPTY {
                winners.set(l);
            }
        }
        publish_key(warp, job, winners, &slot, args);
        job.occupied += winners.count();

        // if (!done) { match/own checks set the done flag }.
        let losers = not_done & !winners;
        let eq = compare_stored_keys(warp, job, losers, &slot, args);
        warp.iop(not_done, 2); // done-flag updates
        for l in not_done.lanes() {
            if prev[l] == EMPTY || eq[l] {
                done[l] = true;
            }
        }

        // Second __all(done) check of the listing.
        let done_preds = LaneVec::from_fn(warp.width(), |l| done[l]);
        if warp.all(warp.full_mask(), &done_preds) {
            warp.trace_event(simt::EventKind::ProbeChain { rounds });
            return Ok(slot);
        }

        // if (!done) hash_val = (hash_val + 1) % max_size
        let still = {
            let mut m = Mask::NONE;
            for l in args.mask.lanes() {
                if !done[l] {
                    m.set(l);
                }
            }
            m
        };
        bucket_crossing_vote(warp, job, still, rounds - 1);
        advance(warp, job, still, &args.hash, rounds, &mut slot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::OFF_KEY_LEN;
    use locassm_core::walk::WalkConfig;
    use locassm_core::Read;
    use memhier::HierarchyConfig;

    fn setup(width: u32) -> (Warp, DeviceJob) {
        let mut warp = Warp::new(width, HierarchyConfig::tiny());
        let reads = vec![Read::with_uniform_qual(b"ACGTACGTACGT", b'I')];
        let job =
            DeviceJob::stage(&mut warp, b"ACGTACGTACGT", &reads, 4, WalkConfig::default(), 1)
                .unwrap();
        (warp, job)
    }

    #[test]
    fn wavefront_width_64_supported() {
        let (mut warp, mut job) = setup(64);
        let mask = Mask::full(64);
        // 9 distinct offsets 0..8 cycle ACGT…; offsets ≥ 9 reuse offset % 9.
        let args = InsertArgs {
            mask,
            key_off: LaneVec::from_fn(64, |l| l % 9),
            hash: LaneVec::from_fn(64, |l| {
                let key = (0..4).map(|_| 0).collect::<Vec<u8>>();
                let _ = key;
                // All start at slot (l % 9 * 3 % slots) — synthetic spread.
                (l % 9 * 3) % job.slots
            }),
        };
        let slots = ht_get_atomic(&mut warp, &mut job, &args).unwrap();
        // Lanes with the same key_off must land on the same slot.
        for l in 0..64u32 {
            assert_eq!(slots[l], slots[l % 9], "lane {l}");
        }
    }

    #[test]
    fn same_result_as_cuda_dialect() {
        // Insert identical work through both dialects; the resulting table
        // contents must agree (same claimed slots given same start hashes).
        let run = |cuda: bool| {
            let (mut warp, mut job) = setup(32);
            let args = InsertArgs {
                mask: Mask(0b111),
                key_off: LaneVec::from_fn(32, |l| l), // ACGT, CGTA, GTAC
                hash: LaneVec::splat(5u32),
            };
            let slots = if cuda {
                crate::insert_cuda::ht_get_atomic(&mut warp, &mut job, &args)
            } else {
                ht_get_atomic(&mut warp, &mut job, &args)
            }
            .unwrap();
            (0..3).map(|l| slots[l]).collect::<Vec<_>>()
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn hip_pays_two_ballots_per_probe_round() {
        // The done-flag loop issues two `__all` votes per round (the
        // listing's loop-top and post-update checks). A forced 2-round
        // probe chain therefore costs exactly 4 ballots — and, unlike
        // CUDA, they are full-wavefront vote collectives rather than
        // mask-scoped syncs; the dialect's larger cost shows up through
        // the 64-wide wavefront (see
        // `construct::tests::wider_warp_wastes_lanes_on_short_reads`).
        let (mut warp, mut job) = setup(32);
        let args = InsertArgs {
            mask: Mask(0b11),
            key_off: LaneVec::from_fn(32, |l| l), // distinct keys
            hash: LaneVec::splat(0u32),           // colliding start slot
        };
        let _ = ht_get_atomic(&mut warp, &mut job, &args);
        assert_eq!(warp.counters.collective_instructions, 4, "2 rounds × 2 __all");
        assert_eq!(warp.counters.sync_instructions, 0, "no __syncwarp on HIP");
    }

    #[test]
    fn empty_mask_returns_immediately() {
        let (mut warp, mut job) = setup(32);
        let args = InsertArgs {
            mask: Mask::NONE,
            key_off: LaneVec::splat(0u32),
            hash: LaneVec::splat(0u32),
        };
        let _ = ht_get_atomic(&mut warp, &mut job, &args);
        assert_eq!(warp.counters.atomic_instructions, 0);
        // One __all ballot was still issued (the loop-top check).
        assert_eq!(warp.counters.collective_instructions, 1);
        // Nothing claimed.
        assert_eq!(warp.mem.read_u32(job.entry_field(0, OFF_KEY_LEN)), EMPTY);
    }
}
