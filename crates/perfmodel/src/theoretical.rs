//! The analytic model of the kernel (paper §V-D, Tables V and VI).
//!
//! One "loop cycle" of the algorithm pairs one hash-table insertion
//! (Algorithm 1) with one walk lookup (Algorithm 2):
//!
//! * integer ops: the hash function dominates both, so
//!   `INTOP1 = INTOP2 = murmur_intops(k)`;
//! * bytes: an insertion reads the k-mer and its quality score and writes
//!   the 13-byte entry footprint (4 B key pointer + 1 B extension + 4 B
//!   quality score + 4 B count): `B1 = 2k + 13`; a lookup reads the k-mer
//!   and the same 13 bytes: `B2 = k + 13`;
//! * theoretical intensity: `II = (INTOP1 + INTOP2) / (B1 + B2)`.

use locassm_core::murmur_intops;
use serde::{Deserialize, Serialize};

/// The Table VI row for one k.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TheoreticalModel {
    pub k: usize,
    /// Integer ops of one insertion (Table V's INTOP1).
    pub intop1: u64,
    /// Integer ops of one lookup (the same hash function).
    pub intop2: u64,
    /// HBM bytes of one insertion: 2k + 13.
    pub b1: u64,
    /// HBM bytes of one lookup: k + 13.
    pub b2: u64,
}

impl TheoreticalModel {
    pub fn for_k(k: usize) -> Self {
        let h = murmur_intops(k);
        TheoreticalModel { k, intop1: h, intop2: h, b1: 2 * k as u64 + 13, b2: k as u64 + 13 }
    }

    /// Integer operations per loop cycle (Table VI column 2).
    pub fn intops_per_cycle(&self) -> u64 {
        self.intop1 + self.intop2
    }

    /// Bytes per loop cycle (Table VI column 3).
    pub fn bytes_per_cycle(&self) -> u64 {
        self.b1 + self.b2
    }

    /// Theoretical INTOP intensity (Table VI column 4).
    pub fn ii(&self) -> f64 {
        self.intops_per_cycle() as f64 / self.bytes_per_cycle() as f64
    }
}

impl TheoreticalModel {
    /// The model under 2-bit packed k-mers (the §V-E locality proposal,
    /// modeled analytically; no kernel packs its keys): k-mer reads shrink
    /// from k bytes to ⌈k/4⌉ and the entry's 4-byte key pointer becomes an
    /// inline packed key of
    /// the same footprint class, so
    /// `B1 = 2·⌈k/4⌉ + 13` and `B2 = ⌈k/4⌉ + 13`, with the integer work
    /// unchanged (the hash now mixes ⌈k/4⌉ bytes, but word-at-a-time — the
    /// per-base mix cost is what Table V counts, so INTOP1 conservatively
    /// stays).
    pub fn for_k_packed(k: usize) -> TheoreticalModel {
        let h = murmur_intops(k);
        let pk = k.div_ceil(4) as u64;
        TheoreticalModel { k, intop1: h, intop2: h, b1: 2 * pk + 13, b2: pk + 13 }
    }

    /// Intensity gain of packing at this k: `packed.ii() / baseline.ii()`.
    pub fn packing_gain(k: usize) -> f64 {
        Self::for_k_packed(k).ii() / Self::for_k(k).ii()
    }
}

/// Shorthand: the theoretical II for a k-mer size.
pub fn theoretical_ii(k: usize) -> f64 {
    TheoreticalModel::for_k(k).ii()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table6_exact() {
        // Paper Table VI: (k, INTOPs/cycle, bytes/cycle, II).
        for (k, intops, bytes, ii) in [
            (21usize, 430u64, 89u64, 4.831),
            (33, 610, 125, 4.880),
            (55, 914, 191, 4.785),
            (77, 1270, 257, 4.942),
        ] {
            let m = TheoreticalModel::for_k(k);
            assert_eq!(m.intops_per_cycle(), intops, "k={k}");
            assert_eq!(m.bytes_per_cycle(), bytes, "k={k}");
            assert!((m.ii() - ii).abs() < 0.001, "k={k}: {} vs {ii}", m.ii());
        }
    }

    #[test]
    fn byte_formulas() {
        let m = TheoreticalModel::for_k(21);
        assert_eq!(m.b1, 2 * 21 + 13);
        assert_eq!(m.b2, 21 + 13);
    }

    #[test]
    fn packed_model_reduces_bytes_only() {
        for k in [21usize, 33, 55, 77] {
            let base = TheoreticalModel::for_k(k);
            let packed = TheoreticalModel::for_k_packed(k);
            assert_eq!(base.intops_per_cycle(), packed.intops_per_cycle());
            assert!(packed.bytes_per_cycle() < base.bytes_per_cycle());
            assert!(TheoreticalModel::packing_gain(k) > 1.9, "k={k}");
        }
        // The gain grows with k (pointer/fixed overhead amortizes).
        assert!(
            TheoreticalModel::packing_gain(77) > TheoreticalModel::packing_gain(21)
        );
    }

    #[test]
    fn intensity_is_stable_in_k() {
        // The paper notes II barely moves with k (4.78–4.94): both
        // numerator and denominator grow linearly.
        for k in [21, 33, 55, 77] {
            let ii = theoretical_ii(k);
            assert!((4.7..5.0).contains(&ii), "k={k}: {ii}");
        }
    }
}
