//! Device-memory layout of one warp's job.
//!
//! The host reserves, per contig: the contig bytes, the concatenated read
//! sequences and quality strings, the hash-table slab (sized by
//! `locassm_core::estimate_slots`), the walk's visited-fingerprint list and
//! the output extension buffer — mirroring the "Estimate Hash Table Sizes /
//! GPU Initialize" steps of Fig. 3. Input data is staged with direct
//! (uncounted) writes, modeling the host→device copy that precedes the
//! kernel; everything the *kernel* touches flows through the cache
//! simulator.

use crate::fault::KernelFault;
use crate::probe::ProbeStrategy;
use crate::table::TableLayoutKind;
use locassm_core::murmur::{murmur_hash_aligned2, murmur_intops, DEFAULT_SEED};
use locassm_core::walk::WalkConfig;
use locassm_core::Read;
use memhier::Addr;
use simt::{ExecMode, Fault, Warp};
use std::collections::HashMap;

/// Hash-table entry layout (stride and field offsets, bytes).
///
/// ```text
/// 0   key_len   u32  (0 = EMPTY sentinel; the atomicCAS claim target)
/// 4   key_off   u32  (offset of the key bytes in the reads buffer)
/// 8   hi_q[4]   u32 × 4
/// 24  low_q[4]  u32 × 4
/// 40  count     u32
/// 44  ext       u32  (decided extension; written by the walk)
/// ```
pub const ENTRY_STRIDE: u64 = 48;
pub const OFF_KEY_LEN: u64 = 0;
pub const OFF_KEY_OFF: u64 = 4;
pub const OFF_HI_Q: u64 = 8;
pub const OFF_LOW_Q: u64 = 24;
pub const OFF_COUNT: u64 = 40;

/// `key_len` value marking an empty slot.
pub const EMPTY: u32 = 0;

/// One read's placement in the device buffers.
#[derive(Debug, Clone, Copy)]
pub struct ReadSpan {
    /// Byte offset of the sequence (and, at the same offset in the quality
    /// buffer, its qualities).
    pub offset: u32,
    pub len: u32,
}

/// Resolved device addresses for one warp's job.
#[derive(Debug, Clone)]
pub struct DeviceJob {
    pub k: usize,
    pub walk: WalkConfig,
    pub contig: Addr,
    pub contig_len: u32,
    /// Concatenated read sequences.
    pub reads: Addr,
    /// Concatenated read qualities (same spans as `reads`).
    pub quals: Addr,
    pub spans: Vec<ReadSpan>,
    /// Hash-table slab.
    pub ht: Addr,
    pub slots: u32,
    /// Slots in the table's front (direct-indexed) region; equal to
    /// `slots` for single-region layouts, smaller for an iceberg table
    /// whose backyard occupies `front_slots..slots`.
    pub front_slots: u32,
    /// Table organization governing probe order and sizing (see
    /// [`crate::table`]). Never changes what the kernel computes — only
    /// where keys live and how long chains may get.
    pub layout: TableLayoutKind,
    /// Total bytes in the concatenated reads buffer — the clamp bound for
    /// tail-chunk key loads (see [`DeviceJob::key_chunk_addr`]).
    pub reads_len: u32,
    /// Visited-fingerprint list (u32 per potential walk step).
    pub visited: Addr,
    /// Output extension buffer.
    pub out: Addr,
    /// Warp-instruction budget for the mer walk (see [`walk_budget`]),
    /// enforced by the walk kernel's watchdog.
    pub walk_budget: u64,
    /// Probe-cursor strategy shared by every table access of this job.
    /// Staging defaults to [`ProbeStrategy::Linear`]; the extension kernel
    /// overrides it from its [`crate::kernel::KernelJob`].
    pub probe: ProbeStrategy,
    /// In-kernel incremental resizing enabled? Off (the default) keeps
    /// every table access bit-identical to the fixed-capacity engine;
    /// on, the insert dialects call
    /// [`ensure_capacity`](crate::resize::ensure_capacity) before each
    /// round and `HashTableFull` escalation demotes to "arena genuinely
    /// exhausted".
    pub resize: bool,
    /// Slots claimed so far — host-side bookkeeping the dialects bump per
    /// insert round, mirrored by the sanitizer's migration-consistency
    /// scan.
    pub occupied: u32,
    /// Incremental resizes already performed on this job (capped by
    /// [`crate::resize::MAX_RESIZES`]).
    pub resizes_done: u32,
    /// Host-side k-mer hash shadow of the reads buffer, indexed by byte
    /// offset: `fps[off]` is [`key_hash`] of the k-mer at `reads + off`
    /// (0 where no whole k-mer starts — readers treat 0 as "no
    /// fingerprint" and fall back to hashing/comparing the bytes).
    /// Because [`key_hash`] is exactly the table hash, the shadow serves
    /// double duty in Vectorized runs: construction reads its slot hash
    /// from it, and probe compares reject mismatched keys against it
    /// without touching the key bytes. Interned at stage time in
    /// Vectorized runs only; empty in Scalar runs, so the baseline's
    /// host work is untouched.
    pub fps: Vec<u32>,
}

impl DeviceJob {
    /// Stage a job into the warp's memory arena.
    ///
    /// `slot_reserve` multiplies the host-side slot estimate — 1 for a
    /// first attempt, > 1 when the launch layer retries a job whose table
    /// overflowed (the grown count stays odd, like the estimate). Staging
    /// reports allocation failure as a structured fault instead of
    /// panicking, so one oversized job cannot kill a batch.
    pub fn stage(
        warp: &mut Warp,
        contig: &[u8],
        reads: &[Read],
        k: usize,
        walk: WalkConfig,
        slot_reserve: u32,
    ) -> Result<Self, KernelFault> {
        Self::stage_with_layout(warp, contig, reads, k, walk, slot_reserve, TableLayoutKind::default())
    }

    /// [`DeviceJob::stage`] with an explicit table layout: the layout owns
    /// the hash-table geometry (slot count, region split) and later the
    /// probe sequence; everything else about staging is identical.
    ///
    /// An armed [`Fault::TableSqueeze`] divides the layout's main region
    /// here — the table is staged genuinely under-sized, so whether the
    /// kernel overflows depends on the layout's real headroom.
    pub fn stage_with_layout(
        warp: &mut Warp,
        contig: &[u8],
        reads: &[Read],
        k: usize,
        walk: WalkConfig,
        slot_reserve: u32,
        layout: TableLayoutKind,
    ) -> Result<Self, KernelFault> {
        // The three staging buffers are memcpy'd in full right here (the
        // read/qual spans pack contiguously over [0, total)), so a pooled
        // arena need not lazily re-zero them — cudaMemcpyHostToDevice
        // doesn't care what the buffer held before.
        let contig_addr = warp.mem.try_alloc_overwritten(contig.len() as u64)?;
        warp.mem.write_bytes(contig_addr, contig);

        let total: usize = reads.iter().map(Read::len).sum();
        let reads_addr = warp.mem.try_alloc_overwritten(total as u64)?;
        let quals_addr = warp.mem.try_alloc_overwritten(total as u64)?;
        let mut spans = Vec::with_capacity(reads.len());
        let mut off = 0u32;
        for r in reads {
            warp.mem.write_bytes(reads_addr + off as u64, &r.seq);
            warp.mem.write_bytes(quals_addr + off as u64, &r.qual);
            spans.push(ReadSpan { offset: off, len: r.len() as u32 });
            off += r.len() as u32;
        }

        let insertions: usize = reads.iter().map(|r| r.kmer_count(k)).sum();
        let squeeze = match warp.injected() {
            Some(Fault::TableSqueeze { divisor }) => divisor,
            _ => 0,
        };
        let geo = layout.as_layout().geometry(insertions, slot_reserve, squeeze)?;
        // GPU Initialize (Fig. 3): the table must be zero (EMPTY) before
        // launch. The arena guarantees zeroed bytes on every allocation
        // (pooled resets zero lazily on the next alloc), so the cudaMemset
        // is modeled by the allocation itself — no second pass here.
        let ht = warp.mem.try_alloc_aligned(geo.slots as u64 * ENTRY_STRIDE, 32)?;

        let visited = warp.mem.try_alloc(walk.max_walk_len as u64 * 4)?;
        let out = warp.mem.try_alloc(walk.max_walk_len as u64)?;

        // Vectorized runs intern one fingerprint per k-mer start so probe
        // compares can reject mismatches without touching the key bytes;
        // the Scalar baseline skips the shadow entirely.
        let fps = match warp.exec() {
            ExecMode::Vectorized | ExecMode::Scheduled => intern_fingerprints(reads, total, k),
            ExecMode::Scalar => Vec::new(),
        };

        let mut job = DeviceJob {
            k,
            walk,
            contig: contig_addr,
            contig_len: contig.len() as u32,
            reads: reads_addr,
            quals: quals_addr,
            spans,
            ht,
            slots: geo.slots,
            front_slots: geo.front_slots,
            layout,
            reads_len: total as u32,
            visited,
            out,
            walk_budget: 0,
            probe: ProbeStrategy::default(),
            resize: false,
            occupied: 0,
            resizes_done: 0,
            fps,
        };
        // The watchdog ceiling tracks the layout's probe bound, not the
        // raw slot count: a bucketed table's longest legal chain is two
        // buckets, so its runaway bound is commensurately tighter.
        let bound = layout.as_layout().probe_bound(&job);
        job.walk_budget = walk_budget(k, bound, walk);
        Ok(job)
    }

    /// Address of entry `slot`'s field at `field_off`.
    #[inline]
    pub fn entry_field(&self, slot: u32, field_off: u64) -> Addr {
        self.ht + slot as u64 * ENTRY_STRIDE + field_off
    }

    /// Address of the `j`-th 4-byte chunk of the key at reads-buffer
    /// offset `off`, clamped so the final (partial) chunk of a key ending
    /// within 3 bytes of the buffer end re-reads the last whole word
    /// instead of running past the allocation — the same clamp the contig
    /// tail load applies. Without it, modeled traffic for a tail k-mer
    /// lands in the neighboring buffer's sectors.
    #[inline]
    pub fn key_chunk_addr(&self, off: u32, j: u64) -> Addr {
        let clamp = (self.reads_len as u64).saturating_sub(4);
        self.reads + (off as u64 + 4 * j).min(clamp)
    }

    /// The interned hash of the k-mer at reads-buffer offset `off`, or
    /// `None` when no shadow exists (Scalar runs) or no whole k-mer
    /// starts there. `None` means "recompute / fall back to the byte
    /// compare", never "not equal".
    #[inline]
    pub fn key_fp(&self, off: u32) -> Option<u32> {
        match self.fps.get(off as usize) {
            Some(&f) if f != 0 => Some(f),
            _ => None,
        }
    }
}

/// The key fingerprint *and* table hash: `MurmurHashAligned2` under the
/// table seed, the same value `construct` reduces mod the slot count.
/// Host-side only — interning it never charges the simulated kernel,
/// which still pays `murmur_intops(k)` per hash exactly as before.
pub fn key_hash(bytes: &[u8]) -> u32 {
    murmur_hash_aligned2(bytes, DEFAULT_SEED)
}

/// One hash per k-mer start across the concatenated reads buffer
/// (`total` bytes laid out read-by-read, exactly as staging writes them).
/// Offsets where no whole k-mer starts keep the 0 sentinel; a genuine
/// hash of 0 (vanishingly rare) is also treated as "absent", which only
/// costs a harmless recompute/fallback on that key.
fn intern_fingerprints(reads: &[Read], total: usize, k: usize) -> Vec<u32> {
    let mut fps = vec![0u32; total];
    let mut off = 0usize;
    for r in reads {
        if r.len() >= k {
            for i in 0..=r.len() - k {
                fps[off + i] = key_hash(&r.seq[i..i + k]);
            }
        }
        off += r.len();
    }
    fps
}

/// Analytic warp-instruction budget for one mer walk — the watchdog bound
/// enforced by `mer_walk_kernel`.
///
/// Derived from the same layout quantities the footprint estimates use:
/// at most `max_walk_len + 1` steps, each hashing a k-mer, scanning at
/// most `max_walk_len` visited fingerprints, probing at most `probe_bound`
/// table entries (`⌈k/4⌉` chunk loads each) and scoring the vote —
/// `probe_bound` is the staged layout's chain ceiling
/// ([`crate::table::TableLayout::probe_bound`]): the full slot count for
/// linear probing, two buckets for the bucketed layout, front bucket plus
/// backyard for iceberg. The result is doubled for slack: the budget is a
/// runaway bound, not a tight estimate, and must never fire on a
/// terminating walk.
pub fn walk_budget(k: usize, probe_bound: u32, walk: WalkConfig) -> u64 {
    let chunks = k.div_ceil(4) as u64;
    let steps = walk.max_walk_len as u64 + 1;
    let per_step = murmur_intops(k)              // k-mer hash
        + walk.max_walk_len as u64 * 2           // visited scan: load + compare
        + probe_bound as u64 * (chunks * 2 + 5)  // probe: key compare + cursor math
        + 32;                                    // vote loads, scoring, bookkeeping
    2 * (chunks * 2 + steps * per_step + 8)
}

/// Occupied slots of a staged hash table — the diagnostic payload of a
/// `HashTableFull` fault. Host-side scan over direct memory: not charged
/// to the kernel (the real listings print from the abort handler).
pub fn table_occupancy(warp: &Warp, job: &DeviceJob) -> u32 {
    (0..job.slots)
        .filter(|&s| warp.mem.read_u32(job.entry_field(s, OFF_KEY_LEN)) != EMPTY)
        .count() as u32
}

/// Post-construct hash-table invariant scan — the warp sanitizer's
/// `invariants` check family. Verifies that every occupied slot holds a
/// *distinct* key (duplicate keys mean two lanes both won a claim for the
/// same k-mer — the exact corruption `__match_any_sync`/done-flag retry
/// loops exist to prevent), that the table is not completely full (a
/// full open-addressed table cannot terminate unmatched probes, so the
/// staging load-factor estimate was violated), and — for region-restricted
/// layouts — that every stored key is *reachable*: it sits on the probe
/// sequence its own hash generates under the job's layout
/// ([`crate::table::TableLayout::key_reachable`]). A misplaced key is
/// silent data loss: inserts of the same k-mer open a fresh slot and
/// lookups never find the stray's counts. Host-side direct reads, like
/// [`table_occupancy`]: not charged to the kernel.
///
/// The duplicate scan is a `HashMap` keyed by the key bytes — O(occupancy)
/// where the old `Vec::iter().find` was O(occupancy²), which matters once
/// iceberg tables raise sustainable occupancy. First-slot-wins reporting
/// is preserved: every duplicate pairs the *first* slot holding the key
/// with the offending later slot.
pub fn check_table_invariants(warp: &Warp, job: &DeviceJob) -> Vec<simt::SanKind> {
    let mut found = Vec::new();
    let mut seen: HashMap<Vec<u8>, u32> = HashMap::new();
    let mut occupancy = 0u32;
    let lay = job.layout.as_layout();
    let check_reachable = job.layout != TableLayoutKind::LinearProbe;
    for s in 0..job.slots {
        let len = warp.mem.read_u32(job.entry_field(s, OFF_KEY_LEN));
        if len == EMPTY {
            continue;
        }
        occupancy += 1;
        let off = warp.mem.read_u32(job.entry_field(s, OFF_KEY_OFF));
        let key = warp.mem.read_bytes(job.reads + off as u64, len as u64);
        if let Some(&slot_a) = seen.get(key) {
            found.push(simt::SanKind::DuplicateKey { slot_a, slot_b: s });
        } else {
            seen.insert(key.to_vec(), s);
        }
        if check_reachable && !lay.key_reachable(job, key_hash(key), s) {
            found.push(simt::SanKind::MisplacedKey { slot: s });
        }
    }
    if occupancy >= job.slots {
        found.push(simt::SanKind::TableOverflow { occupancy, capacity: job.slots });
    }
    // Migration-consistency scan, meaningful only when the resize engine
    // maintains the host-side counter: a mismatch means a slot was
    // migrated twice (or a live entry was lost mid-migration).
    if job.resize && occupancy != job.occupied {
        found.push(simt::SanKind::MigrationMismatch {
            counted: job.occupied,
            scanned: occupancy,
        });
    }
    found
}

/// Upper bound on the arena bytes one [`DeviceJob::stage`] pass allocates
/// (alignment padding included) — the host-side size estimation of Fig. 3,
/// reused by the pooled launch engine to pre-size warp arenas so staging
/// never regrows them.
pub fn stage_footprint(
    contig_len: usize,
    reads: &[Read],
    k: usize,
    walk: WalkConfig,
    slot_reserve: u32,
    layout: TableLayoutKind,
    resize: bool,
) -> u64 {
    const A: u64 = simt::mem::DEFAULT_ALIGN - 1; // worst-case pad per default alloc
    let total: u64 = reads.iter().map(|r| r.len() as u64).sum();
    let insertions: usize = reads.iter().map(|r| r.kmer_count(k)).sum();
    // A geometry the layout rejects (slot target past u32) would fault at
    // stage time; price it at the slot ceiling so packing rejects it too.
    let slots = layout
        .as_layout()
        .geometry(insertions, slot_reserve, 0)
        .map_or(u32::MAX as u64, |g| g.slots as u64);
    // With in-kernel resizing armed, up to MAX_RESIZES successor slabs of
    // roughly 2× and 4× the base live alongside it (the bump arena never
    // rewinds): 7× the base slab, plus the odd/floor adjustments growth
    // may add and the successors' alignment pads.
    let table = if resize {
        7 * slots * ENTRY_STRIDE + 4 * ENTRY_STRIDE + 3 * 31
    } else {
        slots * ENTRY_STRIDE + 31
    };
    (contig_len as u64 + A)               // contig
        + 2 * (total + A)                 // read sequences + qualities
        + table                           // hash-table slab(s) (32-aligned)
        + (walk.max_walk_len as u64 * 4 + A) // visited fingerprints
        + (walk.max_walk_len as u64 + A)  // output extension buffer
}

/// Upper bound on the arena bytes one warp's whole job allocates: each
/// retry in the ladder re-stages at its own k without rewinding the bump
/// allocator, so per-stage footprints sum over the schedule (skipping ks
/// the kernel itself skips because the contig is too short).
pub fn arena_footprint(
    contig_len: usize,
    reads: &[Read],
    schedule: &[usize],
    walk: WalkConfig,
    slot_reserve: u32,
    layout: TableLayoutKind,
    resize: bool,
) -> u64 {
    schedule
        .iter()
        .filter(|&&k| contig_len >= k)
        .map(|&k| stage_footprint(contig_len, reads, k, walk, slot_reserve, layout, resize))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use memhier::HierarchyConfig;

    fn reads() -> Vec<Read> {
        vec![
            Read::with_uniform_qual(b"ACGTACGTAC", b'I'),
            Read::with_uniform_qual(b"GGGTTTCCCA", b'#'),
        ]
    }

    fn stage_ok(warp: &mut Warp, contig: &[u8], reads: &[Read], k: usize) -> DeviceJob {
        DeviceJob::stage(warp, contig, reads, k, WalkConfig::default(), 1).unwrap()
    }

    #[test]
    fn staging_preserves_data() {
        let mut warp = Warp::new(32, HierarchyConfig::tiny());
        let job = stage_ok(&mut warp, b"ACGTACGT", &reads(), 4);
        assert_eq!(warp.mem.read_bytes(job.contig, 8), b"ACGTACGT");
        assert_eq!(job.spans.len(), 2);
        let s1 = job.spans[1];
        assert_eq!(warp.mem.read_bytes(job.reads + s1.offset as u64, s1.len as u64), b"GGGTTTCCCA");
        assert_eq!(warp.mem.read_bytes(job.quals + s1.offset as u64, 3), b"###");
    }

    #[test]
    fn table_is_zeroed_and_sized() {
        let mut warp = Warp::new(32, HierarchyConfig::tiny());
        let job = stage_ok(&mut warp, b"ACGTACGT", &reads(), 4);
        // 2 reads × 7 k-mers = 14 insertions → ≥ 14 / 0.66 slots.
        assert!(job.slots >= 21);
        for s in 0..job.slots {
            assert_eq!(warp.mem.read_u32(job.entry_field(s, OFF_KEY_LEN)), EMPTY);
        }
    }

    /// The "cudaMemset" of Fig. 3 is modeled by the arena's zero-on-alloc
    /// guarantee: even a pooled warp whose previous job dirtied the slab
    /// bytes must stage a fully EMPTY table after `reset()`.
    #[test]
    fn restaged_pooled_arena_sees_a_zeroed_table() {
        let mut warp = Warp::new(32, HierarchyConfig::tiny());
        let first = stage_ok(&mut warp, b"ACGTACGT", &reads(), 4);
        // Dirty the whole table slab, as a completed job would.
        for s in 0..first.slots {
            warp.mem.write_u32(first.entry_field(s, OFF_KEY_LEN), 0xdead_beef);
        }
        warp.reset(32, HierarchyConfig::tiny());
        let second = stage_ok(&mut warp, b"ACGTACGT", &reads(), 4);
        for s in 0..second.slots {
            assert_eq!(warp.mem.read_u32(second.entry_field(s, OFF_KEY_LEN)), EMPTY);
        }
    }

    #[test]
    fn fingerprints_cover_every_kmer_start() {
        let mut warp = Warp::new(32, HierarchyConfig::tiny());
        let job = stage_ok(&mut warp, b"ACGTACGT", &reads(), 4);
        assert_eq!(job.fps.len(), 20, "one slot per concatenated read byte");
        for span in &job.spans {
            for i in 0..span.len {
                let off = span.offset + i;
                let fp = job.key_fp(off);
                if i + 4 <= span.len {
                    let key = warp.mem.read_bytes(job.reads + off as u64, 4);
                    assert_eq!(fp, Some(key_hash(key)), "offset {off}");
                } else {
                    assert_eq!(fp, None, "offset {off} has no whole k-mer");
                }
            }
        }
        // Equal keys ⇒ equal fingerprints (offsets 0 and 4 are both "ACGT").
        assert_eq!(job.key_fp(0), job.key_fp(4));
        assert_ne!(job.key_fp(0), job.key_fp(1));
    }

    #[test]
    fn scalar_staging_skips_the_fingerprint_shadow() {
        let mut warp = Warp::new(32, HierarchyConfig::tiny());
        warp.set_exec(simt::ExecMode::Scalar);
        let job = stage_ok(&mut warp, b"ACGTACGT", &reads(), 4);
        assert!(job.fps.is_empty());
        assert_eq!(job.key_fp(0), None, "no shadow means byte-compare fallback");
    }

    #[test]
    fn staging_is_uncounted_host_traffic() {
        let mut warp = Warp::new(32, HierarchyConfig::tiny());
        let _ = stage_ok(&mut warp, b"ACGTACGT", &reads(), 4);
        let c = warp.finish();
        assert_eq!(c.mem.hbm_bytes(), 0, "host staging must not count as kernel traffic");
        assert_eq!(c.warp_instructions, 0);
    }

    #[test]
    fn stage_footprint_bounds_actual_allocation() {
        for (contig, k) in [(&b"ACGTACGT"[..], 4), (&b"ACGTACGTACGTACGTACGT"[..], 7)] {
            let mut warp = Warp::new(32, HierarchyConfig::tiny());
            let walk = WalkConfig::default();
            let before = warp.mem.allocated();
            let _ = DeviceJob::stage(&mut warp, contig, &reads(), k, walk, 1).unwrap();
            let actual = warp.mem.allocated() - before;
            let bound =
                stage_footprint(contig.len(), &reads(), k, walk, 1, TableLayoutKind::LinearProbe, false);
            assert!(actual <= bound, "actual {actual} > bound {bound} (k={k})");
            assert!(bound <= actual + 256, "bound {bound} is not tight around {actual}");
        }
    }

    #[test]
    fn arena_footprint_sums_over_the_viable_schedule() {
        let walk = WalkConfig::default();
        let contig_len = 8;
        let single =
            stage_footprint(contig_len, &reads(), 4, walk, 1, TableLayoutKind::LinearProbe, false);
        // k = 9 exceeds the contig and is skipped, just as the kernel skips it.
        let laddered = arena_footprint(
            contig_len,
            &reads(),
            &[4, 9, 4],
            walk,
            1,
            TableLayoutKind::LinearProbe,
            false,
        );
        assert_eq!(laddered, 2 * single);
    }

    /// Resize headroom is priced into the footprint: with resizing armed
    /// the bound covers the base slab plus both doubled successors (7× +
    /// growth adjustments), so pooled arenas sized from it never regrow
    /// mid-kernel even if a job resizes to its cap.
    #[test]
    fn resize_footprint_covers_the_successor_slabs() {
        let walk = WalkConfig::default();
        for layout in TableLayoutKind::ALL {
            let flat = stage_footprint(8, &reads(), 4, walk, 1, layout, false);
            let grown = stage_footprint(8, &reads(), 4, walk, 1, layout, true);
            let slots =
                layout.as_layout().geometry(14, 1, 0).unwrap().slots as u64;
            assert!(
                grown >= flat + 6 * slots * ENTRY_STRIDE,
                "{layout}: resize bound {grown} lacks successor headroom over {flat}"
            );
        }
    }

    #[test]
    fn entry_field_addresses_are_disjoint() {
        let mut warp = Warp::new(32, HierarchyConfig::tiny());
        let job = stage_ok(&mut warp, b"ACGTACGT", &reads(), 4);
        let a = job.entry_field(0, OFF_COUNT);
        let b = job.entry_field(1, OFF_KEY_LEN);
        assert_eq!(b - (a + 4), 4, "count(+ext pad) then next entry");
    }

    #[test]
    fn slot_reserve_grows_the_table_and_stays_odd() {
        let mut warp = Warp::new(32, HierarchyConfig::tiny());
        let base = stage_ok(&mut warp, b"ACGTACGT", &reads(), 4);
        for reserve in [2u32, 3, 5] {
            let mut w = Warp::new(32, HierarchyConfig::tiny());
            let grown =
                DeviceJob::stage(&mut w, b"ACGTACGT", &reads(), 4, WalkConfig::default(), reserve)
                    .unwrap();
            assert!(grown.slots > base.slots, "reserve {reserve}");
            assert_eq!(grown.slots % 2, 1, "grown table stays odd");
            let bound = stage_footprint(
                8,
                &reads(),
                4,
                WalkConfig::default(),
                reserve,
                TableLayoutKind::LinearProbe,
                false,
            );
            assert!(bound >= grown.slots as u64 * ENTRY_STRIDE, "footprint tracks the reserve");
        }
    }

    #[test]
    fn staging_surfaces_injected_alloc_failure_as_a_fault() {
        let mut warp = Warp::new(32, HierarchyConfig::tiny());
        warp.mem.arm_alloc_failure(4); // the hash-table slab (4th allocation)
        let err = DeviceJob::stage(&mut warp, b"ACGTACGT", &reads(), 4, WalkConfig::default(), 1)
            .unwrap_err();
        assert!(
            matches!(err, KernelFault::ArenaExhausted { requested, .. }
                if requested % ENTRY_STRIDE == 0),
            "{err:?}"
        );
    }

    #[test]
    fn walk_budget_bounds_every_terminating_walk() {
        // The budget must dominate the instructions a full-length walk can
        // issue; a loose factor-of-two slack is part of the contract.
        let walk = WalkConfig::default();
        for (k, slots) in [(4usize, 33u32), (21, 101), (77, 1001)] {
            let b = walk_budget(k, slots, walk);
            let per_step_floor = murmur_intops(k) + slots as u64;
            assert!(
                b > (walk.max_walk_len as u64) * per_step_floor,
                "budget {b} too small for k={k} slots={slots}"
            );
        }
    }

    #[test]
    fn table_occupancy_counts_claimed_slots() {
        let mut warp = Warp::new(32, HierarchyConfig::tiny());
        let job = stage_ok(&mut warp, b"ACGTACGT", &reads(), 4);
        assert_eq!(table_occupancy(&warp, &job), 0);
        warp.mem.write_u32(job.entry_field(2, OFF_KEY_LEN), 4);
        warp.mem.write_u32(job.entry_field(5, OFF_KEY_LEN), 4);
        assert_eq!(table_occupancy(&warp, &job), 2);
    }

    #[test]
    fn table_invariants_detect_duplicate_keys() {
        let mut warp = Warp::new(32, HierarchyConfig::tiny());
        let job = stage_ok(&mut warp, b"ACGTACGT", &reads(), 4);
        assert!(check_table_invariants(&warp, &job).is_empty(), "fresh table is clean");
        // Two slots claiming the same key bytes (reads offset 0, len 4):
        // the corruption a lost warp-collision vote would produce.
        for s in [1u32, 6] {
            warp.mem.write_u32(job.entry_field(s, OFF_KEY_LEN), 4);
            warp.mem.write_u32(job.entry_field(s, OFF_KEY_OFF), 0);
        }
        let found = check_table_invariants(&warp, &job);
        assert_eq!(found.len(), 1);
        assert!(
            matches!(found[0], simt::SanKind::DuplicateKey { slot_a: 1, slot_b: 6 }),
            "{found:?}"
        );
    }

    /// A key parked outside its hash's probe region is invisible to
    /// lookups under a region-restricted layout — the sanitizer must flag
    /// it. Linear tables reach every slot, so the same stray is legal
    /// there (covered by `table_invariants_detect_duplicate_keys` never
    /// reporting `MisplacedKey`).
    #[test]
    fn table_invariants_flag_misplaced_keys_on_bucketed_layouts() {
        use crate::table::{TableLayoutKind, BUCKET_SLOTS};
        let mut warp = Warp::new(32, HierarchyConfig::tiny());
        let job = DeviceJob::stage_with_layout(
            &mut warp,
            b"ACGTACGT",
            &reads(),
            4,
            WalkConfig::default(),
            4, // reserve up the bucket count so an out-of-region slot exists
            TableLayoutKind::Bucketed,
        )
        .unwrap();
        assert!(check_table_invariants(&warp, &job).is_empty());
        let lay = job.layout.as_layout();
        let h = key_hash(warp.mem.read_bytes(job.reads, 4));
        // Park the key at offset 0 in the first slot of a bucket its hash
        // cannot reach.
        let stray = (0..job.slots / BUCKET_SLOTS)
            .map(|b| b * BUCKET_SLOTS)
            .find(|&s| !lay.key_reachable(&job, h, s))
            .expect("a 4×-reserved bucketed table has unreachable buckets");
        warp.mem.write_u32(job.entry_field(stray, OFF_KEY_LEN), 4);
        warp.mem.write_u32(job.entry_field(stray, OFF_KEY_OFF), 0);
        let found = check_table_invariants(&warp, &job);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(matches!(found[0], simt::SanKind::MisplacedKey { slot } if slot == stray));
        // The same key in a reachable slot is clean.
        let home = lay.slot_at(&job, h, 0);
        warp.mem.write_u32(job.entry_field(stray, OFF_KEY_LEN), EMPTY);
        warp.mem.write_u32(job.entry_field(home, OFF_KEY_LEN), 4);
        warp.mem.write_u32(job.entry_field(home, OFF_KEY_OFF), 0);
        assert!(check_table_invariants(&warp, &job).is_empty());
    }

    #[test]
    fn key_chunk_addr_clamps_the_tail_chunk() {
        let mut warp = Warp::new(32, HierarchyConfig::tiny());
        let job = stage_ok(&mut warp, b"ACGTACGT", &reads(), 4);
        assert_eq!(job.reads_len, 20);
        // An in-bounds chunk is untouched…
        assert_eq!(job.key_chunk_addr(4, 0), job.reads + 4);
        // …but the last chunk of a key ending at the buffer end re-reads
        // the final whole word instead of running 3 bytes past it.
        assert_eq!(job.key_chunk_addr(14, 1), job.reads + 16);
        assert_eq!(job.key_chunk_addr(18, 0), job.reads + 16);
    }

    #[test]
    fn table_invariants_flag_a_full_table() {
        let mut warp = Warp::new(32, HierarchyConfig::tiny());
        let job = stage_ok(&mut warp, b"ACGTACGT", &reads(), 4);
        for s in 0..job.slots {
            warp.mem.write_u32(job.entry_field(s, OFF_KEY_LEN), 4);
            warp.mem.write_u32(job.entry_field(s, OFF_KEY_OFF), 0);
        }
        let found = check_table_invariants(&warp, &job);
        assert!(
            found.iter().any(|k| matches!(
                k,
                simt::SanKind::TableOverflow { occupancy, capacity } if occupancy == capacity
            )),
            "{found:?}"
        );
    }
}
