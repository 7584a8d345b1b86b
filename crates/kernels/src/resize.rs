//! Warp-cooperative in-kernel incremental resizing.
//!
//! The paper's kernel treats a full hash table as fatal pathology
//! (`"*hashtable full*"`), and the launch layer's grown-`slot_reserve`
//! escalation re-runs the whole job host-side. WarpSpeed-class GPU tables
//! manage their own capacity instead: when occupancy crosses the layout's
//! high-water mark mid-insert the warp allocates a successor region from
//! its arena, migrates live slots in bounded warp-width chunks
//! (ballot-coordinated, so every dialect stays warp-synchronous), and
//! retires the old region. `HashTableFull` escalation thereby demotes
//! from "common long-tail path" to "arena genuinely exhausted".
//!
//! Everything here is gated on [`DeviceJob::resize`]: with the knob off
//! (the default) no code in this module runs and every table access stays
//! bit-identical to the fixed-capacity engine.

use crate::fault::KernelFault;
use crate::layout::{
    key_hash, walk_budget, DeviceJob, EMPTY, ENTRY_STRIDE, OFF_KEY_LEN, OFF_KEY_OFF,
};
use simt::{LaneVec, Mask, Warp};

/// Incremental resizes one job may perform (base, 2×, 4×): past the cap
/// the insert falls back to the `HashTableFull` fault, which by then
/// genuinely means the arena cannot hold a bigger table. The footprint
/// estimates ([`crate::layout::stage_footprint`]) price exactly this many
/// successor slabs.
pub const MAX_RESIZES: u32 = 2;

/// Pre-insert capacity check, called by every dialect at the top of
/// `ht_get_atomic` when [`DeviceJob::resize`] is armed: while the claimed
/// slots plus the incoming warp-width burst would cross the layout's
/// high-water mark, migrate into the grown geometry.
/// Bounded by [`MAX_RESIZES`]; a job that outgrows the cap falls through
/// to the ordinary `HashTableFull` discipline.
pub fn ensure_capacity(
    warp: &mut Warp,
    job: &mut DeviceJob,
    incoming: u32,
) -> Result<(), KernelFault> {
    if !job.resize {
        return Ok(());
    }
    while job.resizes_done < MAX_RESIZES {
        let high = job.layout.as_layout().high_water(job);
        if job.occupied + incoming <= high {
            break;
        }
        grow(warp, job)?;
    }
    Ok(())
}

/// One warp-cooperative incremental resize: allocate the successor region
/// (zeroed by the arena, so every slot starts `EMPTY`), migrate live
/// entries chunk by chunk, retire the old region.
///
/// Migration is warp-synchronous: each chunk covers one warp-width window
/// of old slots, every lane loads its slot's key-length word, and one
/// ballot coordinates which lanes carry live entries before they re-probe
/// into the successor.
fn grow(warp: &mut Warp, job: &mut DeviceJob) -> Result<(), KernelFault> {
    let lay = job.layout.as_layout();
    let geo = lay.grown_geometry(job);
    let new_ht = warp.mem.try_alloc_aligned(geo.slots as u64 * ENTRY_STRIDE, 32)?;

    // The successor view: same job, new region — `slot_at` under the new
    // geometry is what the re-probe walks.
    let mut next = job.clone();
    next.ht = new_ht;
    next.slots = geo.slots;
    next.front_slots = geo.front_slots;
    let next_lay = next.layout.as_layout();
    let next_bound = next_lay.probe_bound(&next);

    let width = warp.width();
    let words = (ENTRY_STRIDE / 4) as u32;
    let mut migrated = 0u32;
    let mut chunk_start = 0u32;
    while chunk_start < job.slots {
        let lanes_in_chunk = width.min(job.slots - chunk_start);
        let mut active = Mask::NONE;
        for l in 0..lanes_in_chunk {
            active.set(l);
        }
        // Every lane loads its slot's key-length word…
        let len_addrs = LaneVec::from_fn(width, |l| {
            job.entry_field((chunk_start + l).min(job.slots - 1), OFF_KEY_LEN)
        });
        let lens = warp.load_u32(active, &len_addrs);
        warp.iop(active, 2); // EMPTY compare + branch
        let mut live = Mask::NONE;
        for l in active.lanes() {
            if lens[l] != EMPTY {
                live.set(l);
            }
        }
        // …and one ballot coordinates the chunk: which lanes re-probe.
        let preds = LaneVec::from_fn(width, |l| live.contains(l));
        warp.ballot(active, &preds);

        let offs = {
            let off_addrs = LaneVec::from_fn(width, |l| {
                job.entry_field((chunk_start + l).min(job.slots - 1), OFF_KEY_OFF)
            });
            warp.load_u32(live, &off_addrs)
        };
        for l in live.lanes() {
            let src = chunk_start + l;
            let key = warp
                .mem
                .read_bytes(job.reads + offs[l] as u64, lens[l] as u64)
                .to_vec();
            let h = key_hash(&key);
            let lm = Mask::lane(l);
            // Re-hash charged at the insert dialects' rate.
            warp.iop(lm, locassm_core::murmur::murmur_intops(job.k));
            // First EMPTY along the key's sequence under the *new*
            // geometry; a grown table always has one within the bound.
            let mut target = None;
            for idx in 0..next_bound {
                let t = next_lay.slot_at(&next, h, idx);
                warp.touch_u32_with(lm, |_| next.entry_field(t, OFF_KEY_LEN));
                warp.iop(lm, 2); // probe compare + cursor
                if warp.mem.read_u32(next.entry_field(t, OFF_KEY_LEN)) == EMPTY {
                    target = Some(t);
                    break;
                }
            }
            let Some(t) = target else {
                return Err(KernelFault::HashTableFull {
                    capacity: next.slots,
                    occupancy: migrated,
                });
            };
            // Copy the whole 48-byte entry, word by word (counts, quality
            // sums and the decided extension all travel with the key).
            for w in 0..words {
                let src_addr = job.ht + src as u64 * ENTRY_STRIDE + w as u64 * 4;
                let v = warp.mem.read_u32(src_addr);
                warp.touch_u32_with(lm, |_| src_addr);
                let dst = LaneVec::splat(next.ht + t as u64 * ENTRY_STRIDE + w as u64 * 4);
                warp.store_u32(lm, &dst, &LaneVec::splat(v));
            }
            migrated += 1;
        }
        chunk_start += lanes_in_chunk;
    }

    // Retire the old region: the job now points at the successor. The
    // walk budget tracks the new probe bound (invariant 10: resizing
    // changes capacity and probe cost, never extensions).
    job.ht = next.ht;
    job.slots = next.slots;
    job.front_slots = next.front_slots;
    job.occupied = migrated;
    job.resizes_done += 1;
    job.walk_budget = walk_budget(job.k, lay.probe_bound(job), job.walk);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::construct::construct_hash_table;
    use crate::insert_cuda::ht_get_atomic;
    use crate::kernel::Dialect;
    use crate::probe::InsertArgs;
    use locassm_core::walk::WalkConfig;
    use locassm_core::Read;
    use memhier::HierarchyConfig;
    use simt::Fault;

    fn scrambled_seq(len: usize) -> Vec<u8> {
        let mut state = 0x2545_f491u64;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                b"ACGT"[(state % 4) as usize]
            })
            .collect()
    }

    fn staged() -> (Warp, DeviceJob) {
        let mut warp = Warp::new(32, HierarchyConfig::tiny());
        let seq = scrambled_seq(120);
        let reads = vec![Read::with_uniform_qual(&seq, b'I')];
        let job = DeviceJob::stage(
            &mut warp,
            b"ACGTACGTACGTACGTACGTA",
            &reads,
            21,
            WalkConfig::default(),
            1,
        )
        .unwrap();
        (warp, job)
    }

    fn insert_all(warp: &mut Warp, job: &mut DeviceJob) {
        let span = job.spans[0];
        for start in 0..=(span.len as usize - job.k) {
            let off = span.offset + start as u32;
            let key = warp.mem.read_bytes(job.reads + off as u64, job.k as u64);
            let h = key_hash(key);
            let args = InsertArgs {
                mask: Mask::lane(0),
                key_off: LaneVec::splat(off),
                hash: LaneVec::splat(h),
            };
            ht_get_atomic(warp, job, &args).unwrap();
        }
    }

    /// Stage one read of `read_len` bases under a table squeeze, so that
    /// inserting its k-mers crosses the high-water mark and growth runs.
    fn squeezed(squeeze: u32, read_len: usize) -> (Warp, DeviceJob) {
        let mut warp = Warp::new(32, HierarchyConfig::tiny());
        warp.inject(Fault::TableSqueeze { divisor: squeeze });
        let seq = scrambled_seq(read_len);
        let reads = vec![Read::with_uniform_qual(&seq, b'I')];
        let mut job = DeviceJob::stage(
            &mut warp,
            b"ACGTACGTACGTACGTACGTA",
            &reads,
            21,
            WalkConfig::default(),
            1,
        )
        .unwrap();
        job.resize = true;
        (warp, job)
    }

    #[test]
    fn growth_triggers_at_the_high_water_mark_and_preserves_content() {
        let (mut warp, mut job) = squeezed(4, 120);
        let base_slots = job.slots;
        insert_all(&mut warp, &mut job);
        assert!(job.resizes_done >= 1, "the squeezed table must have grown");
        assert!(job.slots > base_slots);
        // Every inserted key is still found at its (new) slot.
        let span = job.spans[0];
        for start in 0..=(span.len as usize - job.k) {
            let off = span.offset + start as u32;
            let key = warp.mem.read_bytes(job.reads + off as u64, job.k as u64).to_vec();
            let args = InsertArgs {
                mask: Mask::lane(0),
                key_off: LaneVec::splat(off),
                hash: LaneVec::splat(key_hash(&key)),
            };
            let s = ht_get_atomic(&mut warp, &mut job, &args).unwrap()[0];
            let stored = warp.mem.read_u32(job.entry_field(s, OFF_KEY_OFF));
            let stored_key =
                warp.mem.read_bytes(job.reads + stored as u64, job.k as u64).to_vec();
            assert_eq!(stored_key, key, "lookup after growth finds the migrated entry");
        }
    }

    #[test]
    fn sanitizer_scans_stay_clean_after_growth() {
        let (mut warp, mut job) = squeezed(4, 120);
        insert_all(&mut warp, &mut job);
        assert!(job.resizes_done >= 1);
        let found = crate::layout::check_table_invariants(&warp, &job);
        assert!(found.is_empty(), "{found:?}");
    }

    /// Growth is checked once per warp-wide insert burst, against the
    /// linear layout's ⅞ high-water mark. The 80 distinct 21-mers of a
    /// 100-base read arrive in bursts of 32, 32 and 16, so the squeeze
    /// decides when the table grows and how many entries move: ÷2 (61
    /// slots) grows once, at 64 keys, moving 32; ÷3 (41 slots) grows at
    /// 64 keys to 83 and again at 80 keys to 167, moving 32 + 64; ÷4 (31
    /// slots) grows while still empty to 63, then at 64 keys to 127,
    /// moving 0 + 32. ÷3 moves three times the entries of the others and
    /// ends with the largest table.
    #[test]
    fn squeeze_depth_sets_how_often_the_table_grows() {
        for (divisor, base, resizes, slots) in [(2, 61, 1, 123), (3, 41, 2, 167), (4, 31, 2, 127)] {
            let (mut warp, mut job) = squeezed(divisor, 100);
            assert_eq!(job.slots, base, "÷{divisor} staged size");
            construct_hash_table(&mut warp, &mut job, Dialect::Cuda).unwrap();
            assert_eq!((job.resizes_done, job.slots), (resizes, slots), "÷{divisor}");
            assert_eq!(job.occupied, 80, "÷{divisor}");
        }
    }

    #[test]
    fn resize_disabled_never_runs_this_module() {
        let (mut warp, mut job) = staged();
        let before = warp.mem.allocated();
        insert_all(&mut warp, &mut job);
        assert_eq!(job.resizes_done, 0);
        assert_eq!(warp.mem.allocated(), before, "no successor slab without the knob");
    }
}
