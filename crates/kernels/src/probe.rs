//! Shared probe machinery for the three `ht_get_atomic` dialects.

use crate::layout::{DeviceJob, EMPTY, OFF_KEY_LEN, OFF_KEY_OFF};
use simt::{LaneVec, Mask, Warp};

/// Probe-cursor advance strategy for the open-addressed table.
///
/// Every staged table is odd-sized (`estimate_slots(..) | 1`), so any
/// stride coprime with 2 visits all slots before wrapping; insert and
/// walk lookup share the job's strategy, which is what keeps lookups
/// finding the keys inserts placed. Extensions are invariant across
/// strategies — the table is a content-addressed set and only the probe
/// *order* changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ProbeStrategy {
    /// `slot = (slot + 1) % slots` — the paper listings' linear probe.
    #[default]
    Linear,
    /// `slot = (slot + 2) % slots` — double-stride probe, spreading a
    /// cluster's chain across twice the address range. Degrades to the
    /// linear step on an even-sized table (stride 2 would only visit half
    /// the slots there), which only synthetic test tables have.
    Stride2,
}

impl ProbeStrategy {
    /// The cursor increment for a table of `slots` entries.
    #[inline]
    pub fn step(self, slots: u32) -> u32 {
        match self {
            ProbeStrategy::Linear => 1,
            ProbeStrategy::Stride2 => {
                if slots % 2 == 1 {
                    2
                } else {
                    1
                }
            }
        }
    }
}

/// Arguments to one warp-cooperative batch of hash-table claims: each
/// active lane wants the entry for the k-mer at `key_off` in the reads
/// buffer. `hash` is the *raw* 32-bit table hash — the job's
/// [`TableLayout`](crate::table::TableLayout) reduces it to a probe
/// sequence ([`slot_at`](crate::table::TableLayout::slot_at)), so the same
/// arguments drive any layout.
#[derive(Debug, Clone)]
pub struct InsertArgs {
    pub mask: Mask,
    pub key_off: LaneVec<u32>,
    pub hash: LaneVec<u32>,
}

/// The per-lane starting slot (probe index 0) of `args.hash` under the
/// job's layout. Free of modeled charge: the dialects charge the cursor
/// arithmetic exactly where the listings do (`construct` pays the initial
/// reduction, [`advance`] pays each step).
pub fn start_slots(warp: &Warp, job: &DeviceJob, args: &InsertArgs) -> SlotVec {
    let lay = job.layout.as_layout();
    LaneVec::from_fn(warp.width(), |l| lay.slot_at(job, args.hash[l], 0))
}

/// Result: the slot index each active lane ended up owning/finding.
pub type SlotVec = LaneVec<u32>;

/// Issue the warp-wide `atomicCAS(&ht[slot].key_len, EMPTY, k)` for the
/// lanes in `mask`; returns the per-lane `prev` values.
pub fn cas_claim(warp: &mut Warp, job: &DeviceJob, mask: Mask, slot: &LaneVec<u32>) -> LaneVec<u32> {
    let addrs = LaneVec::from_fn(warp.width(), |l| job.entry_field(slot[l], OFF_KEY_LEN));
    let cmp = LaneVec::splat(EMPTY);
    let new = LaneVec::splat(job.k as u32);
    warp.atomic_cas_u32(mask, &addrs, &cmp, &new)
}

/// For the winning lanes, publish the key: store `key_off` into the entry.
/// (The value struct was zero-initialized host-side; the CUDA listing's
/// `.val = {0}` init is modeled as one more store per winner.)
pub fn publish_key(warp: &mut Warp, job: &DeviceJob, winners: Mask, slot: &LaneVec<u32>, args: &InsertArgs) {
    if winners.is_empty() {
        return;
    }
    let addrs = LaneVec::from_fn(warp.width(), |l| job.entry_field(slot[l], OFF_KEY_OFF));
    warp.store_u32(winners, &addrs, &args.key_off);
}

/// Compare each active lane's k-mer against the stored key of its current
/// slot. Returns per-lane equality. Charges the modeled cost: one
/// `key_off` load plus `⌈k/4⌉` stored-key chunk loads and compares.
pub fn compare_stored_keys(
    warp: &mut Warp,
    job: &DeviceJob,
    mask: Mask,
    slot: &LaneVec<u32>,
    args: &InsertArgs,
) -> LaneVec<bool> {
    let mut eq = LaneVec::splat(false);
    if mask.is_empty() {
        return eq;
    }
    let off_addrs = LaneVec::from_fn(warp.width(), |l| job.entry_field(slot[l], OFF_KEY_OFF));
    let stored_off = warp.load_u32(mask, &off_addrs);

    let k = job.k;
    let chunks = k.div_ceil(4) as u64;
    for j in 0..chunks {
        // Clamped: the final chunk of a key ending within 3 bytes of the
        // reads buffer's end re-reads the last whole word, like the contig
        // tail load — never the neighboring buffer's sectors.
        warp.touch_u32_with(mask, |l| job.key_chunk_addr(stored_off[l], j));
        warp.iop(mask, 1); // chunk compare
    }
    warp.iop(mask, 2); // tail handling / result reduction

    // Semantic truth from memory contents. The modeled cost above is
    // already charged; what remains is host-side only, so the staged
    // fingerprint shadow (Vectorized runs) may reject mismatches without
    // the k-byte compare: equal offsets alias the same bytes, and unequal
    // fingerprints imply unequal keys. Equal fingerprints (or a missing
    // shadow — Scalar runs) fall back to the byte compare.
    for l in mask.lanes() {
        let s_off = stored_off[l];
        let k_off = args.key_off[l];
        eq[l] = s_off == k_off
            || match (job.key_fp(s_off), job.key_fp(k_off)) {
                (Some(a), Some(b)) if a != b => false,
                _ => {
                    warp.mem.read_bytes(job.reads + s_off as u64, k as u64)
                        == warp.mem.read_bytes(job.reads + k_off as u64, k as u64)
                }
            };
    }
    eq
}

/// Advance the probe cursor for the lanes still searching: move each to
/// position `idx` (0-based) of its hash's probe sequence under the job's
/// layout. For the linear layout this is exactly the historical
/// `(slot + step) % slots` cursor, computed positionally; bucketed and
/// iceberg sequences jump regions at their bucket boundaries.
pub fn advance(
    warp: &mut Warp,
    job: &DeviceJob,
    mask: Mask,
    hash: &LaneVec<u32>,
    idx: u32,
    slot: &mut LaneVec<u32>,
) {
    warp.iop(mask, 2); // increment + modulo
    let lay = job.layout.as_layout();
    slot.update_masked(mask, |l, _| lay.slot_at(job, hash[l], idx));
}

/// Warp-wide bucket-crossing vote: when advancing past probe index `idx`
/// leaves a bucket ([`bucket_crossing`](crate::table::TableLayout::bucket_crossing)),
/// the still-searching lanes ballot before the warp jumps to the next
/// region together — the warp-cooperative bucket scan of the bucketed and
/// iceberg layouts. Single-region layouts never cross, so the linear
/// dialects stay bit-identical (no ballot, no charge).
pub fn bucket_crossing_vote(warp: &mut Warp, job: &DeviceJob, mask: Mask, idx: u32) {
    if mask.is_empty() {
        return;
    }
    if job.layout.as_layout().bucket_crossing(job, idx) {
        let preds = LaneVec::splat(true);
        warp.ballot(mask, &preds);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::DeviceJob;
    use locassm_core::walk::WalkConfig;
    use locassm_core::Read;
    use memhier::HierarchyConfig;

    fn setup() -> (Warp, DeviceJob) {
        let mut warp = Warp::new(32, HierarchyConfig::tiny());
        let reads = vec![Read::with_uniform_qual(b"ACGTACGTACGT", b'I')];
        let job = DeviceJob::stage(&mut warp, b"ACGTACGT", &reads, 4, WalkConfig::default(), 1)
            .unwrap();
        (warp, job)
    }

    #[test]
    fn cas_claims_exactly_once() {
        let (mut warp, job) = setup();
        let mask = Mask(0b11); // two lanes contend for slot 5
        let slot = LaneVec::splat(5u32);
        let prev = cas_claim(&mut warp, &job, mask, &slot);
        assert_eq!(prev[0], EMPTY, "lane 0 wins");
        assert_eq!(prev[1], 4, "lane 1 sees the claimed key_len");
        assert_eq!(warp.mem.read_u32(job.entry_field(5, OFF_KEY_LEN)), 4);
    }

    #[test]
    fn publish_and_compare() {
        let (mut warp, job) = setup();
        let mask = Mask::lane(0);
        let slot = LaneVec::splat(3u32);
        // Lane 0 inserts the k-mer at offset 0 ("ACGT").
        let mut args = InsertArgs { mask, key_off: LaneVec::splat(0u32), hash: LaneVec::splat(3) };
        cas_claim(&mut warp, &job, mask, &slot);
        publish_key(&mut warp, &job, mask, &slot, &args);

        // Same k-mer appears at offset 4 ("ACGT"): equal.
        args.key_off[0] = 4;
        let eq = compare_stored_keys(&mut warp, &job, mask, &slot, &args);
        assert!(eq[0]);

        // Different k-mer at offset 1 ("CGTA"): not equal.
        args.key_off[0] = 1;
        let eq = compare_stored_keys(&mut warp, &job, mask, &slot, &args);
        assert!(!eq[0]);
    }

    #[test]
    fn advance_wraps() {
        let (mut warp, job) = setup();
        let hash = LaneVec::splat(job.slots - 1);
        let mut slot = hash.clone();
        advance(&mut warp, &job, Mask::lane(0), &hash, 1, &mut slot);
        assert_eq!(slot[0], 0);
    }

    #[test]
    fn start_slots_reduce_raw_hashes() {
        let (warp, job) = setup();
        let args = InsertArgs {
            mask: Mask::lane(0),
            key_off: LaneVec::splat(0u32),
            hash: LaneVec::splat(job.slots + 3), // raw hash past the table size
        };
        let slot = start_slots(&warp, &job, &args);
        assert_eq!(slot[0], 3, "the layout reduces the raw hash");
    }

    #[test]
    fn stride2_steps_by_two_on_odd_tables_only() {
        assert_eq!(ProbeStrategy::Linear.step(33), 1);
        assert_eq!(ProbeStrategy::Stride2.step(33), 2);
        assert_eq!(ProbeStrategy::Stride2.step(4), 1, "even tables degrade to linear");
    }

    #[test]
    fn stride2_advance_cycles_the_whole_odd_table() {
        let (mut warp, mut job) = setup();
        job.probe = ProbeStrategy::Stride2;
        assert_eq!(job.slots % 2, 1, "staged tables are odd");
        let hash = LaneVec::splat(0u32);
        let mut slot = LaneVec::splat(0u32);
        let mut seen = vec![false; job.slots as usize];
        for idx in 0..job.slots {
            seen[slot[0] as usize] = true;
            advance(&mut warp, &job, Mask::lane(0), &hash, idx + 1, &mut slot);
        }
        assert!(seen.iter().all(|&s| s), "stride 2 is coprime with an odd table");
        assert_eq!(slot[0], 0, "a full cycle returns to the origin");
    }

    /// The fingerprint shadow is a pure rejection filter: compare results
    /// and modeled counters are identical with and without it.
    #[test]
    fn fingerprint_fast_path_matches_byte_compare() {
        let run = |strip_fps: bool| {
            let (mut warp, mut job) = setup();
            if strip_fps {
                job.fps.clear();
            } else {
                assert!(!job.fps.is_empty(), "Vectorized staging interns fingerprints");
            }
            let mask = Mask(0b11);
            let slot = LaneVec::from_fn(32, |l| 3 + l);
            let mut args =
                InsertArgs { mask, key_off: LaneVec::from_fn(32, |l| l), hash: LaneVec::splat(0) };
            cas_claim(&mut warp, &job, mask, &slot);
            publish_key(&mut warp, &job, mask, &slot, &args);
            // Lane 0 re-compares an equal key at a different offset
            // ("ACGT" at 0 vs 4); lane 1 compares a mismatch.
            args.key_off[0] = 4;
            args.key_off[1] = 2;
            let eq = compare_stored_keys(&mut warp, &job, mask, &slot, &args);
            ((eq[0], eq[1]), warp.finish())
        };
        let (eq_fp, counters_fp) = run(false);
        let (eq_plain, counters_plain) = run(true);
        assert_eq!(eq_fp, (true, false));
        assert_eq!(eq_fp, eq_plain, "fingerprints must not change compare results");
        assert_eq!(counters_fp, counters_plain, "fingerprints are host-side only");
    }
}
