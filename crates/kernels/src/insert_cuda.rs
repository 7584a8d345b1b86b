//! CUDA-dialect `ht_get_atomic` (paper Appendix A, first listing).
//!
//! The original optimized path: lanes claim slots with `atomicCAS`, use
//! `__match_any_sync(__activemask(), &entry)` to group lanes that collided
//! on the same entry, and `__syncwarp(mask)` to order the winner's key
//! publication before the losers' key comparison. Lanes exit the probe
//! loop independently (divergent `return`), which on hardware means the
//! warp keeps issuing until the *longest* probe chain finishes — the cost
//! structure this transcription reproduces.

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
/// The wrap guard is uniform across the three dialects: a chain may probe
/// at most the layout's probe bound (one full wrap of the probe sequence —
/// `job.slots` rounds for linear probing, the listings'
/// `hash_val == orig_hash` condition; two buckets for the bucketed layout;
/// front bucket + backyard for iceberg); the round that would revisit its
/// origin faults instead. A successful insert never needs more rounds, so
/// fault-free runs are unaffected.
///
/// With [`DeviceJob::resize`] armed, the warp checks the layout's
/// high-water mark before probing and migrates into a grown region first
/// (see [`crate::resize`]).
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
    let warp_width = warp.width();
    let probe_bound = job.layout.as_layout().probe_bound(job);
    let mut slot = start_slots(warp, job, args);
    let mut searching = args.mask;

    // The CUDA listing detects `hash_val == orig_hash` after wrapping and
    // prints "*hashtable full*"; the simulator reports it as a structured
    // fault the launch layer can escalate on.
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
        // prev = atomicCAS(&ht[hash].key.length, EMPTY, len)
        let prev = cas_claim(warp, job, searching, &slot);

        // __match_any_sync(__activemask(), &thread_ht[hash_val]) — groups
        // lanes probing the same entry this round. The groups themselves are
        // unused (the CAS result resolves collisions); the collective is
        // issued for its modeled cost.
        warp.match_any_discard(searching, || {
            LaneVec::from_fn(warp_width, |l| job.entry_field(slot[l], 0))
        });

        // Winners publish the key.
        let mut winners = Mask::NONE;
        for l in searching.lanes() {
            if prev[l] == EMPTY {
                winners.set(l);
            }
        }
        publish_key(warp, job, winners, &slot, args);
        job.occupied += winners.count();

        // __syncwarp(mask): losers may now safely read the winner's key.
        warp.syncwarp(searching);

        // prev != EMPTY && key == kmer  → found existing entry.
        let losers = searching & !winners;
        let eq = compare_stored_keys(warp, job, losers, &slot, args);
        warp.iop(searching, 2); // branch resolution on (prev, eq)

        let mut still = Mask::NONE;
        for l in searching.lanes() {
            let done = prev[l] == EMPTY || eq[l];
            if !done {
                still.set(l);
            }
        }
        searching = still;

        // Leaving a bucket? The continuing lanes vote before the warp
        // jumps regions together (no-op on single-region layouts).
        bucket_crossing_vote(warp, job, searching, rounds - 1);
        // hash_val = (hash_val + 1) % max_size for the lanes that continue
        // — positionally, the `rounds`-th slot of each lane's sequence.
        advance(warp, job, searching, &args.hash, rounds, &mut slot);
    }
    warp.trace_event(simt::EventKind::ProbeChain { rounds });
    Ok(slot)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{OFF_KEY_LEN, OFF_KEY_OFF};
    use locassm_core::walk::WalkConfig;
    use locassm_core::Read;
    use memhier::HierarchyConfig;

    fn setup(read: &[u8], k: usize) -> (Warp, DeviceJob) {
        let mut warp = Warp::new(32, HierarchyConfig::tiny());
        let reads = vec![Read::with_uniform_qual(read, b'I')];
        let job =
            DeviceJob::stage(&mut warp, b"ACGTACGTACGT", &reads, k, WalkConfig::default(), 1)
                .unwrap();
        (warp, job)
    }

    fn hash_of(job: &DeviceJob, warp: &Warp, off: u32) -> u32 {
        let key = warp.mem.read_bytes(job.reads + off as u64, job.k as u64);
        locassm_core::murmur_hash_aligned2(key, locassm_core::murmur::DEFAULT_SEED)
            % job.slots
    }

    #[test]
    fn distinct_keys_get_distinct_slots() {
        // Read "ACGTACGT": k-mers at offsets 0..4 (ACGT CGTA GTAC TACG ACGT).
        let (mut warp, mut job) = setup(b"ACGTACGT", 4);
        let mask = Mask(0b1111); // lanes 0..3 insert offsets 0..3
        let args = InsertArgs {
            mask,
            key_off: LaneVec::from_fn(32, |l| l),
            hash: LaneVec::from_fn(32, |l| hash_of(&job, &warp, l)),
        };
        let slots = ht_get_atomic(&mut warp, &mut job, &args).unwrap();
        // All four k-mers are distinct → four distinct slots, all claimed.
        let mut seen: Vec<u32> = (0..4).map(|l| slots[l]).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 4);
        for l in 0..4u32 {
            assert_eq!(warp.mem.read_u32(job.entry_field(slots[l], OFF_KEY_LEN)), 4);
            let off = warp.mem.read_u32(job.entry_field(slots[l], OFF_KEY_OFF));
            assert_eq!(off, l);
        }
    }

    #[test]
    fn thread_collision_identical_kmers_share_slot() {
        // Offsets 0 and 4 are both "ACGT" — the thread-collision case the
        // paper resolves with __match_any_sync + atomicCAS.
        let (mut warp, mut job) = setup(b"ACGTACGT", 4);
        let mask = Mask(0b11);
        let mut key_off = LaneVec::splat(0u32);
        key_off[1] = 4;
        let h = hash_of(&job, &warp, 0);
        let args = InsertArgs { mask, key_off, hash: LaneVec::splat(h) };
        let slots = ht_get_atomic(&mut warp, &mut job, &args).unwrap();
        assert_eq!(slots[0], slots[1], "identical k-mers must resolve to one entry");
    }

    #[test]
    fn hash_collision_resolved_by_linear_probe() {
        let (mut warp, mut job) = setup(b"ACGTACGT", 4);
        // Force both distinct k-mers to the same starting slot.
        let mask = Mask(0b11);
        let mut key_off = LaneVec::splat(0u32);
        key_off[1] = 1; // "CGTA" ≠ "ACGT"
        let args = InsertArgs { mask, key_off, hash: LaneVec::splat(7) };
        let slots = ht_get_atomic(&mut warp, &mut job, &args).unwrap();
        assert_ne!(slots[0], slots[1]);
        assert_eq!(slots[0], 7);
        assert_eq!(slots[1], (7 + 1) % job.slots, "linear probe to the next slot");
    }

    #[test]
    fn reinsertion_finds_existing_entry() {
        let (mut warp, mut job) = setup(b"ACGTACGT", 4);
        let h = hash_of(&job, &warp, 2);
        let args = InsertArgs {
            mask: Mask::lane(0),
            key_off: LaneVec::splat(2u32),
            hash: LaneVec::splat(h),
        };
        let first = ht_get_atomic(&mut warp, &mut job, &args).unwrap();
        let second = ht_get_atomic(&mut warp, &mut job, &args).unwrap();
        assert_eq!(first[0], second[0]);
    }

    #[test]
    fn counts_collectives_and_atomics() {
        let (mut warp, mut job) = setup(b"ACGTACGT", 4);
        let args = InsertArgs {
            mask: Mask::lane(0),
            key_off: LaneVec::splat(0u32),
            hash: LaneVec::splat(0u32),
        };
        let _ = ht_get_atomic(&mut warp, &mut job, &args);
        let c = warp.counters;
        assert_eq!(c.atomic_instructions, 1, "one CAS round");
        assert_eq!(c.collective_instructions, 1, "one __match_any_sync");
        assert_eq!(c.sync_instructions, 1, "one __syncwarp");
    }
}

#[cfg(test)]
mod full_table_tests {
    use super::*;
    use crate::probe::InsertArgs;
    use locassm_core::walk::WalkConfig;
    use locassm_core::Read;
    use memhier::HierarchyConfig;
    use simt::{LaneVec, Mask, Warp};

    /// Fill every slot with distinct keys, then insert one more distinct
    /// key: the wrap guard must report `HashTableFull` instead of spinning
    /// forever (or panicking, as the pre-fault-model code did).
    #[test]
    fn full_table_faults_not_spins() {
        let mut warp = Warp::new(32, HierarchyConfig::tiny());
        // A long homopolymer-free read gives plenty of distinct 8-mers.
        let seq: Vec<u8> = (0..160).map(|i| b"ACGT"[(i * 7 + i / 4) % 4]).collect();
        let reads = vec![Read::with_uniform_qual(&seq, b'I')];
        let mut job = crate::layout::DeviceJob::stage(
            &mut warp,
            b"ACGTACGTACGT",
            &reads,
            8,
            WalkConfig::default(),
            1,
        )
        .unwrap();
        // Lie about the capacity: pretend the table has only 4 slots so a
        // handful of distinct keys overflows it.
        job.slots = 4;
        let mut fault = None;
        for off in 0..8u32 {
            let args = InsertArgs {
                mask: Mask::lane(0),
                key_off: LaneVec::splat(off),
                hash: LaneVec::splat(off % 4),
            };
            if let Err(f) = ht_get_atomic(&mut warp, &mut job, &args) {
                fault = Some(f);
                break;
            }
        }
        match fault.expect("the 5th distinct key must overflow the 4-slot table") {
            KernelFault::HashTableFull { capacity, occupancy } => {
                assert_eq!(capacity, 4);
                assert_eq!(occupancy, 4, "every slot was claimed when the probe wrapped");
            }
            other => panic!("wrong fault: {other:?}"),
        }
    }
}
