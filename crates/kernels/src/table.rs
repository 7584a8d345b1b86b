//! Hash-table organization as a first-class, swappable dimension.
//!
//! The paper's kernel hard-codes one table shape: a fixed-capacity
//! open-addressed array with linear probing, sized host-side for a 0.66
//! load factor. WarpSpeed-class GPU tables (bucketed power-of-two-choices,
//! iceberg two-level) sustain much higher load factors by restricting
//! where a key may live; this module abstracts the *probe geometry* behind
//! [`TableLayout`] so the three insert dialects and the walk kernel run
//! unchanged on any of them.
//!
//! A layout answers three questions, all as pure functions of the staged
//! [`DeviceJob`] and a key's 32-bit hash:
//!
//! 1. **Geometry** — how many slots does the table get for an insertion
//!    estimate (and how are they partitioned into regions)?
//! 2. **Probe sequence** — which slot does the `idx`-th probe of a key
//!    visit ([`TableLayout::slot_at`])? Insert and lookup share the
//!    sequence, and insert claims the *first empty slot along it*, which
//!    is what lets lookups terminate at the first `EMPTY` they see: if
//!    the key existed, insertion would have stopped at or before that
//!    hole.
//! 3. **Probe bound** — after how many probes is a chain declared wrapped
//!    ([`KernelFault::HashTableFull`](crate::fault::KernelFault))? This
//!    bound also feeds [`walk_budget`](crate::layout::walk_budget), so a
//!    bucketed table's watchdog ceiling is far tighter than a linear
//!    table's.
//!
//! The invariant every layout must honour (ARCHITECTURE.md invariant 8):
//! a layout changes probe order and capacity, **never extensions**. The
//! table is a content-addressed set; the layout only decides where its
//! members live and how long it takes to find them. In-kernel resizing
//! (invariant 10) is the same contract over time: a resize changes
//! capacity and probe cost, never extensions.

use crate::fault::KernelFault;
use crate::layout::DeviceJob;
use locassm_core::estimate_slots;

/// Slots per bucket in the bucketed and iceberg front-yard regions — one
/// 384-byte bucket spans three 128-byte cache lines at the 48-byte entry
/// stride, and eight ways is where power-of-two-choices analyses put the
/// knee of the overflow curve.
pub const BUCKET_SLOTS: u32 = 8;

/// Host-side table geometry for one staged job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableGeometry {
    /// Total slot count (every region summed).
    pub slots: u32,
    /// Slots in the front (direct-indexed) region. Equal to `slots` for
    /// single-region layouts; an iceberg table's backyard is
    /// `slots - front_slots`.
    pub front_slots: u32,
}

/// The identity of a table layout — the value that travels on configs
/// and jobs. [`TableLayoutKind::as_layout`] resolves it
/// to the shared static implementation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TableLayoutKind {
    /// The paper's layout: one open-addressed region, linear (or
    /// stride-2) probing, sized for a 0.66 load factor.
    #[default]
    LinearProbe,
    /// Power-of-two-choices buckets: each key may live in one of two
    /// 8-slot buckets, probed first-choice-then-second in a fixed order
    /// (the determinism lookups need). Sized for a 0.75 design load
    /// factor — tighter than linear — because a full bucket pair, not a
    /// full table, is the overflow condition.
    Bucketed,
    /// Iceberg two-level table: a dense direct-indexed front yard (one
    /// 8-slot bucket per key, 0.9 design load factor) plus a linear-probed
    /// backyard that absorbs front-bucket overflow. The backyard's floor
    /// size is real headroom: workloads that overflow a squeezed linear
    /// table complete fault-free here, making the launch layer's
    /// grown-reserve escalation a last resort.
    Iceberg,
}

impl TableLayoutKind {
    /// Every layout, in the fixed order sweeps and reports use.
    pub const ALL: [TableLayoutKind; 3] =
        [TableLayoutKind::LinearProbe, TableLayoutKind::Bucketed, TableLayoutKind::Iceberg];

    /// The shared static implementation behind this kind.
    pub fn as_layout(self) -> &'static dyn TableLayout {
        match self {
            TableLayoutKind::LinearProbe => &LinearLayout,
            TableLayoutKind::Bucketed => &BucketedLayout,
            TableLayoutKind::Iceberg => &IcebergLayout,
        }
    }

    /// Short stable name (report keys, test labels).
    pub fn name(self) -> &'static str {
        self.as_layout().name()
    }
}

impl std::fmt::Display for TableLayoutKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One table organization: geometry + probe sequence + probe bound.
///
/// Implementations are stateless statics; everything is a pure function
/// of the job and the key hash, which keeps every layout bit-reproducible
/// across runs, execution modes and hosts.
pub trait TableLayout: std::fmt::Debug + Sync {
    /// The kind tag this implementation answers to.
    fn kind(&self) -> TableLayoutKind;

    /// Short stable name (report keys, test labels).
    fn name(&self) -> &'static str;

    /// Size the table for `insertions` staged k-mers under a
    /// `slot_reserve` multiplier (the escalation ladder's grown-table
    /// knob). `squeeze > 1` divides the *main* region — the deterministic
    /// "host estimate violated" injection; regions that exist as overflow
    /// headroom (the iceberg backyard) keep their floor so the squeeze
    /// tests real absorption, not a uniformly smaller table.
    ///
    /// An insertion estimate whose slot count cannot be represented in
    /// `u32` is a [`KernelFault::MalformedJob`], not a silent truncation;
    /// an oversized `slot_reserve` clamps below saturation while keeping
    /// the layout's structural guarantee (odd slots for linear, even
    /// bucket counts for the bucketed cascade).
    fn geometry(
        &self,
        insertions: usize,
        slot_reserve: u32,
        squeeze: u32,
    ) -> Result<TableGeometry, KernelFault>;

    /// Occupancy high-water mark for in-kernel resizing: once
    /// `occupied + incoming` crosses it mid-insert, the warp
    /// migrates into [`Self::grown_geometry`] before claiming new slots.
    /// Sits below the layout's design load factor so resize triggers
    /// before the probe chains that precede `HashTableFull` get long.
    fn high_water(&self, job: &DeviceJob) -> u32;

    /// The successor geometry an in-kernel resize migrates into (capacity
    /// roughly doubled, clamped below `u32` saturation with the same
    /// structural guarantees as [`Self::geometry`]).
    fn grown_geometry(&self, job: &DeviceJob) -> TableGeometry;

    /// The slot the `idx`-th probe (0-based) of a key with table hash
    /// `hash` visits. Insert and lookup walk `idx = 0, 1, 2, …` in
    /// lockstep; the sequence must be deterministic and must not repeat a
    /// slot before `probe_bound` probes.
    fn slot_at(&self, job: &DeviceJob, hash: u32, idx: u32) -> u32;

    /// Maximum probes before a chain is declared wrapped. The insert
    /// dialects fault (`HashTableFull`) past it; the walk lookup gives up
    /// (key absent); [`walk_budget`](crate::layout::walk_budget) charges
    /// it as the per-step probe ceiling.
    fn probe_bound(&self, job: &DeviceJob) -> u32;

    /// Does advancing past probe `idx` (0-based, the probe just issued)
    /// cross a bucket boundary? The insert dialects issue one warp-wide
    /// ballot at each crossing — the warp-cooperative bucket scan: lanes
    /// vote on whether anyone still needs the next bucket before the warp
    /// jumps together. Single-region layouts never cross.
    fn bucket_crossing(&self, job: &DeviceJob, idx: u32) -> bool {
        let _ = (job, idx);
        false
    }

    /// Is `slot` on the probe sequence of a key hashing to `hash`? The
    /// sanitizer's per-layout invariant scan flags occupied slots whose
    /// stored key could never be found there
    /// ([`simt::SanKind::MisplacedKey`]). Single-region layouts reach
    /// every slot, so the default is vacuously true.
    fn key_reachable(&self, job: &DeviceJob, hash: u32, slot: u32) -> bool {
        let _ = (job, hash, slot);
        true
    }
}

/// Secondary hash: decorrelates the second bucket choice (bucketed) and
/// the backyard start (iceberg) from the primary table hash.
#[inline]
fn mix(hash: u32) -> u32 {
    (hash ^ (hash >> 16)).wrapping_mul(0x9E37_79B1)
}

/// Checked slot-target conversion: an insertion estimate whose slot count
/// does not fit `u32` is a structured fault, never an `as` truncation.
#[inline]
fn slot_target(estimate: u128) -> Result<u32, KernelFault> {
    u32::try_from(estimate).map_err(|_| KernelFault::MalformedJob {
        reason: "insertion estimate overflows the u32 slot space",
    })
}

/// The paper's single-region open-addressed layout.
#[derive(Debug)]
pub struct LinearLayout;

impl LinearLayout {
    /// Largest slot count a linear table may clamp to: odd (the coprime
    /// stride guarantee survives saturation) and below `u32::MAX` so slot
    /// arithmetic never wraps.
    pub const MAX_SLOTS: u32 = (u32::MAX - 2) | 1;
}

impl TableLayout for LinearLayout {
    fn kind(&self) -> TableLayoutKind {
        TableLayoutKind::LinearProbe
    }

    fn name(&self) -> &'static str {
        "linear"
    }

    fn geometry(
        &self,
        insertions: usize,
        slot_reserve: u32,
        squeeze: u32,
    ) -> Result<TableGeometry, KernelFault> {
        // Exactly the historical sizing: estimate × reserve, forced odd
        // (odd tables keep the stride-2 probe coprime with the size). The
        // reserve multiply runs in u64 and clamps *below* saturation: `| 1`
        // on a clamped value keeps the table odd, where `| 1` on a
        // saturating_mul result could not repair an even saturated count.
        let est = slot_target(estimate_slots(insertions) as u128)?;
        let raw = est as u64 * slot_reserve.max(1) as u64;
        let mut slots = (raw.min(Self::MAX_SLOTS as u64) as u32) | 1;
        if squeeze > 1 {
            slots = (slots / squeeze).max(3) | 1;
        }
        debug_assert_eq!(slots % 2, 1, "linear tables must stay odd");
        Ok(TableGeometry { slots, front_slots: slots })
    }

    fn slot_at(&self, job: &DeviceJob, hash: u32, idx: u32) -> u32 {
        // (h + idx·step) mod slots — identical to the historical
        // incremental cursor, computed positionally.
        let step = job.probe.step(job.slots) as u64;
        ((hash as u64 % job.slots as u64 + idx as u64 * step) % job.slots as u64) as u32
    }

    fn probe_bound(&self, job: &DeviceJob) -> u32 {
        // One full wrap — the listings' `hash_val == orig_hash` condition.
        job.slots
    }

    fn high_water(&self, job: &DeviceJob) -> u32 {
        // 87.5%: linear probing degrades sharply past it, and the ⅛
        // headroom keeps a warp-width insert burst from overshooting into
        // the wrap condition before the resize triggers.
        job.slots - job.slots / 8
    }

    fn grown_geometry(&self, job: &DeviceJob) -> TableGeometry {
        let slots = ((job.slots as u64 * 2).min(Self::MAX_SLOTS as u64) as u32) | 1;
        TableGeometry { slots, front_slots: slots }
    }
}

/// Power-of-two-choices bucketed layout with a bounded bucket cascade.
///
/// A key has two hash-derived candidate buckets of opposite parity; its
/// probe sequence interleaves two stride-2 bucket walks starting at them
/// (`b1, b2, b1+2, b2+2, …`), capped at [`Self::CASCADE_BUCKETS`]
/// buckets. The parity split is what makes the sequence collision-free:
/// bucket counts are always even (the geometry guarantees it), so the
/// two walks cover disjoint parity classes and never revisit a bucket.
/// Insertion takes the first empty slot along the sequence, so the
/// overflow condition is a full 8-bucket cascade — rare at the 0.75
/// design load — while lookups keep the first-`EMPTY` early exit.
#[derive(Debug)]
pub struct BucketedLayout;

impl BucketedLayout {
    /// Buckets a probe sequence may visit before the chain is declared
    /// wrapped: the two choices plus three more stride-2 steps of each.
    pub const CASCADE_BUCKETS: u32 = 8;

    /// Largest bucket count: even (the cascade's parity argument) and
    /// small enough that `buckets * BUCKET_SLOTS` never wraps `u32`.
    pub const MAX_BUCKETS: u32 = (u32::MAX / BUCKET_SLOTS) & !1;

    /// The two candidate buckets of a key: primary from the table hash,
    /// secondary from the mixed hash forced to the opposite parity (so
    /// the interleaved stride-2 walks are disjoint).
    #[inline]
    fn buckets(job: &DeviceJob, hash: u32) -> (u32, u32) {
        let nb = (job.slots / BUCKET_SLOTS).max(1);
        let b1 = hash % nb;
        let mut b2 = mix(hash) % nb;
        if nb > 1 && b2 % 2 == b1 % 2 {
            b2 = (b2 + 1) % nb;
        }
        (b1, b2)
    }

    /// The bucket the `visit`-th bucket of the cascade lands on.
    #[inline]
    fn cascade_bucket(job: &DeviceJob, hash: u32, visit: u32) -> u32 {
        let nb = (job.slots / BUCKET_SLOTS).max(1);
        let (b1, b2) = Self::buckets(job, hash);
        let base = if visit % 2 == 0 { b1 } else { b2 };
        (base + (visit / 2) * 2) % nb
    }
}

impl TableLayout for BucketedLayout {
    fn kind(&self) -> TableLayoutKind {
        TableLayoutKind::Bucketed
    }

    fn name(&self) -> &'static str {
        "bucketed"
    }

    fn geometry(
        &self,
        insertions: usize,
        slot_reserve: u32,
        squeeze: u32,
    ) -> Result<TableGeometry, KernelFault> {
        // 0.75 design load factor (vs linear's 0.66): overflow needs a
        // full 8-bucket cascade, which two parity-split choices keep rare
        // well past the single-region knee. The bucket count is forced
        // even so the cascade's parity argument holds (see the type doc),
        // and the reserve multiply clamps to an *even* ceiling so a
        // saturated table keeps both the parity and `×8` non-overflow
        // guarantees.
        let target = slot_target((insertions as u128 * 4).div_ceil(3))?.max(1);
        let raw = target.div_ceil(BUCKET_SLOTS) as u64 * slot_reserve.max(1) as u64;
        let mut buckets = (raw.min(Self::MAX_BUCKETS as u64) as u32).max(4);
        if squeeze > 1 {
            buckets = (buckets / squeeze).max(2);
        }
        buckets += buckets % 2;
        debug_assert_eq!(buckets % 2, 0, "bucket counts must stay even");
        Ok(TableGeometry { slots: buckets * BUCKET_SLOTS, front_slots: buckets * BUCKET_SLOTS })
    }

    fn slot_at(&self, job: &DeviceJob, hash: u32, idx: u32) -> u32 {
        // Total in idx (the cursor advance past the final probe still
        // computes a valid slot): past the cascade the sequence wraps
        // around the table's bucket interleave.
        let nb = (job.slots / BUCKET_SLOTS).max(1);
        let visit = (idx / BUCKET_SLOTS) % nb;
        Self::cascade_bucket(job, hash, visit) * BUCKET_SLOTS + idx % BUCKET_SLOTS
    }

    fn probe_bound(&self, job: &DeviceJob) -> u32 {
        // The full cascade, then the chain is wrapped. (A table smaller
        // than the cascade degenerates to a scan of every bucket.)
        (Self::CASCADE_BUCKETS * BUCKET_SLOTS).min(job.slots)
    }

    fn bucket_crossing(&self, job: &DeviceJob, idx: u32) -> bool {
        // A crossing at each bucket boundary the cascade passes: the
        // warp votes before jumping buckets together.
        idx + 1 < self.probe_bound(job) && (idx + 1) % BUCKET_SLOTS == 0
    }

    fn key_reachable(&self, job: &DeviceJob, hash: u32, slot: u32) -> bool {
        let nb = (job.slots / BUCKET_SLOTS).max(1);
        let b = slot / BUCKET_SLOTS;
        (0..Self::CASCADE_BUCKETS.min(nb))
            .any(|visit| Self::cascade_bucket(job, hash, visit) == b)
    }

    fn high_water(&self, job: &DeviceJob) -> u32 {
        // The 0.75 design load *is* the cliff for a bounded cascade, so
        // the resize trigger sits at it rather than above it.
        job.slots - job.slots / 4
    }

    fn grown_geometry(&self, job: &DeviceJob) -> TableGeometry {
        let buckets = (job.slots / BUCKET_SLOTS).max(2);
        let grown = ((buckets as u64 * 2).min(Self::MAX_BUCKETS as u64) as u32) & !1;
        let grown = grown.max(2);
        TableGeometry { slots: grown * BUCKET_SLOTS, front_slots: grown * BUCKET_SLOTS }
    }
}

/// Iceberg-style two-level layout: dense front yard + backyard overflow.
#[derive(Debug)]
pub struct IcebergLayout;

impl IcebergLayout {
    /// Backyard floor: headroom that exists even for tiny tables, so a
    /// squeezed front yard still has somewhere to overflow to.
    const BACKYARD_FLOOR: u32 = 64;

    /// Largest front-yard bucket count: `front + backyard` (9/8 of the
    /// front) must stay below `u32::MAX`.
    pub const MAX_BUCKETS: u32 = (u32::MAX / 9) & !1;

    #[inline]
    fn backyard_len(job: &DeviceJob) -> u32 {
        job.slots - job.front_slots
    }
}

impl TableLayout for IcebergLayout {
    fn kind(&self) -> TableLayoutKind {
        TableLayoutKind::Iceberg
    }

    fn name(&self) -> &'static str {
        "iceberg"
    }

    fn geometry(
        &self,
        insertions: usize,
        slot_reserve: u32,
        squeeze: u32,
    ) -> Result<TableGeometry, KernelFault> {
        // Front yard at a 0.9 design load factor — the densest region of
        // the three layouts — with a backyard of ⅛ the front (floor 64)
        // absorbing bucket overflow. The squeeze divides only the front:
        // the backyard *is* the headroom being tested. The reserve clamp
        // leaves room for the backyard (9/8 of the front fits `u32`).
        let target = slot_target((insertions as u128 * 10).div_ceil(9))?.max(1);
        let raw = target.div_ceil(BUCKET_SLOTS) as u64 * slot_reserve.max(1) as u64;
        let mut buckets = (raw.min(Self::MAX_BUCKETS as u64) as u32).max(4);
        if squeeze > 1 {
            buckets = (buckets / squeeze).max(2);
        }
        let front = buckets * BUCKET_SLOTS;
        let back = (front / 8).max(Self::BACKYARD_FLOOR);
        Ok(TableGeometry { slots: front + back, front_slots: front })
    }

    fn slot_at(&self, job: &DeviceJob, hash: u32, idx: u32) -> u32 {
        if idx < BUCKET_SLOTS {
            let fb = (job.front_slots / BUCKET_SLOTS).max(1);
            (hash % fb) * BUCKET_SLOTS + idx
        } else {
            let back = Self::backyard_len(job).max(1);
            let start = mix(hash) % back;
            job.front_slots + (start + (idx - BUCKET_SLOTS)) % back
        }
    }

    fn probe_bound(&self, job: &DeviceJob) -> u32 {
        // The front bucket plus one full wrap of the backyard.
        BUCKET_SLOTS + Self::backyard_len(job)
    }

    fn bucket_crossing(&self, _job: &DeviceJob, idx: u32) -> bool {
        // One crossing: front bucket exhausted, warp votes before the
        // spill into the backyard.
        idx + 1 == BUCKET_SLOTS
    }

    fn key_reachable(&self, job: &DeviceJob, hash: u32, slot: u32) -> bool {
        if slot < job.front_slots {
            let fb = (job.front_slots / BUCKET_SLOTS).max(1);
            slot / BUCKET_SLOTS == hash % fb
        } else {
            // Every backyard slot is on every key's (wrapping) overflow
            // sequence.
            true
        }
    }

    fn high_water(&self, job: &DeviceJob) -> u32 {
        // ⅛ headroom over the whole table: the backyard absorbs overflow
        // well past the front's 0.9 design load, so the trigger can sit
        // as high as linear's.
        job.slots - job.slots / 8
    }

    fn grown_geometry(&self, job: &DeviceJob) -> TableGeometry {
        // Double the front yard and re-derive the backyard, exactly as a
        // fresh geometry would.
        let buckets = (job.front_slots / BUCKET_SLOTS).max(2);
        let grown = ((buckets as u64 * 2).min(Self::MAX_BUCKETS as u64) as u32).max(2);
        let front = grown * BUCKET_SLOTS;
        let back = (front / 8).max(Self::BACKYARD_FLOOR);
        TableGeometry { slots: front + back, front_slots: front }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::DeviceJob;
    use locassm_core::walk::WalkConfig;
    use locassm_core::Read;
    use memhier::HierarchyConfig;
    use simt::Warp;

    fn staged(kind: TableLayoutKind) -> (Warp, DeviceJob) {
        let mut warp = Warp::new(32, HierarchyConfig::tiny());
        let reads = vec![Read::with_uniform_qual(b"ACGTACGTACGTACGTACGT", b'I')];
        let job = DeviceJob::stage_with_layout(
            &mut warp,
            b"ACGTACGTACGT",
            &reads,
            5,
            WalkConfig::default(),
            1,
            kind,
        )
        .unwrap();
        (warp, job)
    }

    #[test]
    fn linear_geometry_matches_the_historical_sizing() {
        let g = LinearLayout.geometry(14, 1, 0).unwrap();
        assert_eq!(g.slots, (estimate_slots(14) as u32) | 1);
        assert_eq!(g.front_slots, g.slots);
        let grown = LinearLayout.geometry(14, 3, 0).unwrap();
        assert!(grown.slots > g.slots);
        assert_eq!(grown.slots % 2, 1, "grown linear tables stay odd");
    }

    #[test]
    fn huge_insertion_estimates_fault_instead_of_truncating() {
        // u32::MAX insertions push every layout's slot target past u32:
        // the old `as u32` cast silently truncated; now it's a structured
        // MalformedJob the launch layer can report.
        let huge = u32::MAX as usize;
        for kind in TableLayoutKind::ALL {
            let got = kind.as_layout().geometry(huge, 1, 0);
            assert!(
                matches!(got, Err(crate::fault::KernelFault::MalformedJob { .. })),
                "{kind}: expected MalformedJob, got {got:?}"
            );
        }
        // Just below the boundary the linear estimate still fits.
        let fits = (u32::MAX as f64 * 0.6) as usize;
        assert!(LinearLayout.geometry(fits, 1, 0).is_ok());
    }

    #[test]
    fn saturated_reserves_clamp_below_saturation_with_structure_intact() {
        // A pathological slot_reserve used to saturating_mul to u32::MAX
        // and then `| 1` could not repair the structure. The clamp keeps
        // linear odd, bucketed an even bucket-multiple, and iceberg's
        // front+backyard sum inside u32.
        let lin = LinearLayout.geometry(1000, u32::MAX, 0).unwrap();
        assert_eq!(lin.slots % 2, 1, "saturated linear tables stay odd");
        assert_eq!(lin.slots, LinearLayout::MAX_SLOTS);

        let buc = BucketedLayout.geometry(1000, u32::MAX, 0).unwrap();
        assert_eq!(buc.slots % BUCKET_SLOTS, 0);
        assert_eq!((buc.slots / BUCKET_SLOTS) % 2, 0, "bucket count stays even");

        let ice = IcebergLayout.geometry(1000, u32::MAX, 0).unwrap();
        assert!(ice.front_slots < ice.slots, "backyard survives saturation");
        assert_eq!(ice.front_slots % BUCKET_SLOTS, 0);
    }

    #[test]
    fn high_water_sits_below_capacity_and_growth_doubles() {
        for kind in TableLayoutKind::ALL {
            let (_, job) = staged(kind);
            let lay = kind.as_layout();
            let hw = lay.high_water(&job);
            assert!(hw < job.slots, "{kind}: high water {hw} under slots {}", job.slots);
            assert!(hw > job.slots / 2, "{kind}: trigger is in the upper half");
            let g = lay.grown_geometry(&job);
            assert!(g.slots > job.slots, "{kind}: growth adds capacity");
            assert!(g.slots <= job.slots * 3, "{kind}: growth is bounded");
        }
        let (_, lin) = staged(TableLayoutKind::LinearProbe);
        let g = TableLayoutKind::LinearProbe.as_layout().grown_geometry(&lin);
        assert_eq!(g.slots % 2, 1, "grown linear tables stay odd");
        let (_, ice) = staged(TableLayoutKind::Iceberg);
        let g = TableLayoutKind::Iceberg.as_layout().grown_geometry(&ice);
        assert!(g.slots - g.front_slots >= 64, "grown iceberg keeps the backyard floor");
    }

    #[test]
    fn linear_sequence_is_the_incremental_cursor() {
        let (_, job) = staged(TableLayoutKind::LinearProbe);
        let lay = TableLayoutKind::LinearProbe.as_layout();
        let h = 0xdead_beefu32;
        let mut s = h % job.slots;
        for idx in 0..job.slots {
            assert_eq!(lay.slot_at(&job, h, idx), s, "idx {idx}");
            s = (s + job.probe.step(job.slots)) % job.slots;
        }
        assert_eq!(lay.probe_bound(&job), job.slots);
        assert!(!lay.bucket_crossing(&job, 0));
        assert!(lay.key_reachable(&job, h, job.slots - 1));
    }

    #[test]
    fn every_layout_visits_distinct_slots_within_its_bound() {
        for kind in TableLayoutKind::ALL {
            let (_, job) = staged(kind);
            let lay = kind.as_layout();
            for h in [0u32, 7, 0x1234_5678, u32::MAX] {
                let bound = lay.probe_bound(&job);
                let mut seen = std::collections::HashSet::new();
                for idx in 0..bound {
                    let s = lay.slot_at(&job, h, idx);
                    assert!(s < job.slots, "{kind}: slot {s} out of range");
                    assert!(seen.insert(s), "{kind}: hash {h:#x} revisits slot {s} before its bound");
                    assert!(
                        lay.key_reachable(&job, h, s),
                        "{kind}: sequence slot {s} must be self-reachable"
                    );
                }
            }
        }
    }

    #[test]
    fn bucketed_probes_two_distinct_buckets() {
        let (_, job) = staged(TableLayoutKind::Bucketed);
        assert_eq!(job.slots % BUCKET_SLOTS, 0, "bucketed tables are bucket-multiples");
        let lay = TableLayoutKind::Bucketed.as_layout();
        for h in [0u32, 1, 0xffff_0000, 31337] {
            let (b1, b2) = BucketedLayout::buckets(&job, h);
            assert_ne!(b1, b2, "second choice must be a distinct bucket");
            for idx in 0..BUCKET_SLOTS {
                assert_eq!(lay.slot_at(&job, h, idx) / BUCKET_SLOTS, b1);
                assert_eq!(lay.slot_at(&job, h, BUCKET_SLOTS + idx) / BUCKET_SLOTS, b2);
            }
            assert_ne!(b1 % 2, b2 % 2, "choices sit on opposite parities");
        }
        // On a table wider than the cascade, buckets past it are off the
        // key's probe sequence (reachability is non-vacuous).
        let mut big = job.clone();
        big.slots = 20 * BUCKET_SLOTS;
        big.front_slots = big.slots;
        for h in [0u32, 1, 0xffff_0000, 31337] {
            let nb = big.slots / BUCKET_SLOTS;
            let reachable: std::collections::HashSet<u32> =
                (0..BucketedLayout::CASCADE_BUCKETS * BUCKET_SLOTS)
                    .map(|idx| lay.slot_at(&big, h, idx) / BUCKET_SLOTS)
                    .collect();
            assert_eq!(reachable.len() as u32, BucketedLayout::CASCADE_BUCKETS);
            let other = (0..nb)
                .find(|b| !reachable.contains(b))
                .expect("a 20-bucket table has buckets past the cascade");
            assert!(!lay.key_reachable(&big, h, other * BUCKET_SLOTS + 3));
        }
        assert!(lay.bucket_crossing(&job, BUCKET_SLOTS - 1));
        assert!(!lay.bucket_crossing(&job, BUCKET_SLOTS));
    }

    #[test]
    fn iceberg_spills_into_the_backyard() {
        let (_, job) = staged(TableLayoutKind::Iceberg);
        assert!(job.front_slots < job.slots, "iceberg carries a backyard");
        assert!(job.slots - job.front_slots >= 64, "backyard floor is real headroom");
        let lay = TableLayoutKind::Iceberg.as_layout();
        let h = 0xcafe_babeu32;
        for idx in 0..BUCKET_SLOTS {
            assert!(lay.slot_at(&job, h, idx) < job.front_slots, "front first");
        }
        let back = job.slots - job.front_slots;
        for idx in BUCKET_SLOTS..(BUCKET_SLOTS + back) {
            let s = lay.slot_at(&job, h, idx);
            assert!(s >= job.front_slots, "overflow lands in the backyard");
        }
        assert_eq!(lay.probe_bound(&job), BUCKET_SLOTS + back);
    }

    #[test]
    fn tighter_layouts_allocate_fewer_slots_than_linear() {
        // The WarpSpeed premise: bucketed/iceberg run the same workload in
        // a smaller table (higher sustained load factor). The tier-1 gate
        // in tests/layouts.rs checks the fault-free half of the claim.
        // Iceberg is exempt at toy sizes: its 64-slot backyard floor
        // dominates a ~150-slot table, and that floor is the headroom the
        // escalation test depends on.
        for insertions in [100usize, 1000, 50_000] {
            let lin = LinearLayout.geometry(insertions, 1, 0).unwrap().slots;
            let buc = BucketedLayout.geometry(insertions, 1, 0).unwrap().slots;
            let ice = IcebergLayout.geometry(insertions, 1, 0).unwrap().slots;
            assert!(buc < lin, "insertions {insertions}: bucketed {buc} vs linear {lin}");
            if insertions >= 1000 {
                assert!(ice < lin, "insertions {insertions}: iceberg {ice} vs linear {lin}");
            }
            assert!(buc as usize >= insertions, "capacity still dominates insertions");
            assert!(ice as usize >= insertions, "capacity still dominates insertions");
        }
    }

    #[test]
    fn squeeze_shrinks_the_main_region_only() {
        let lin = LinearLayout.geometry(1000, 1, 4).unwrap();
        assert!(lin.slots < LinearLayout.geometry(1000, 1, 0).unwrap().slots / 3);
        let ice_full = IcebergLayout.geometry(1000, 1, 0).unwrap();
        let ice = IcebergLayout.geometry(1000, 1, 4).unwrap();
        assert!(ice.front_slots < ice_full.front_slots / 3, "front shrinks");
        assert!(
            ice.slots - ice.front_slots >= 64,
            "the backyard keeps its floor under a squeeze"
        );
    }
}
