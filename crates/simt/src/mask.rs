//! Lane activity masks.

use std::fmt;
use std::ops::{BitAnd, BitAndAssign, BitOr, BitOrAssign, Not};

/// A predication mask over up to 64 lanes (bit *i* set ⇒ lane *i* active).
///
/// Equivalent to the `unsigned`/`unsigned long long` masks CUDA's
/// `__activemask()` / `__match_any_sync()` traffic in; wide enough for AMD's
/// 64-lane wavefronts.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Mask(pub u64);

impl Mask {
    /// The empty mask.
    pub const NONE: Mask = Mask(0);

    /// Mask with the `width` low lanes active (the full warp).
    pub fn full(width: u32) -> Mask {
        debug_assert!(width >= 1 && width as usize <= crate::MAX_LANES);
        if width == 64 {
            Mask(u64::MAX)
        } else {
            Mask((1u64 << width) - 1)
        }
    }

    /// Mask with exactly one lane active.
    ///
    /// Panics when `lane >= MAX_LANES` in every build profile: an unguarded
    /// `1u64 << lane` would silently alias `lane % 64` in release builds
    /// (Rust shift amounts wrap), turning an out-of-range lane index into a
    /// plausible-looking mask for some *other* lane.
    pub fn lane(lane: u32) -> Mask {
        assert!((lane as usize) < crate::MAX_LANES, "lane index {lane} out of range");
        Mask(1u64 << lane)
    }

    /// Is the lane active? Lane indices ≥ [`crate::MAX_LANES`] are never
    /// active (a total function: no mask has bits for them).
    pub fn contains(self, lane: u32) -> bool {
        (lane as usize) < crate::MAX_LANES && self.0 & (1u64 << lane) != 0
    }

    /// Activate a lane. Panics when `lane >= MAX_LANES` (see [`Mask::lane`]
    /// for why the shift must not be left unguarded).
    pub fn set(&mut self, lane: u32) {
        assert!((lane as usize) < crate::MAX_LANES, "lane index {lane} out of range");
        self.0 |= 1u64 << lane;
    }

    /// Deactivate a lane. Panics when `lane >= MAX_LANES` (see
    /// [`Mask::lane`]).
    pub fn clear(&mut self, lane: u32) {
        assert!((lane as usize) < crate::MAX_LANES, "lane index {lane} out of range");
        self.0 &= !(1u64 << lane);
    }

    /// Number of active lanes.
    pub fn count(self) -> u32 {
        self.0.count_ones()
    }

    /// No lanes active?
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Lowest active lane, if any (CUDA `__ffs(mask) - 1` idiom).
    pub fn first(self) -> Option<u32> {
        if self.0 == 0 {
            None
        } else {
            Some(self.0.trailing_zeros())
        }
    }

    /// Iterate active lane indices in ascending order.
    pub fn lanes(self) -> impl Iterator<Item = u32> {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            if bits == 0 {
                None
            } else {
                let l = bits.trailing_zeros();
                bits &= bits - 1;
                Some(l)
            }
        })
    }
}

impl BitAnd for Mask {
    type Output = Mask;
    fn bitand(self, rhs: Mask) -> Mask {
        Mask(self.0 & rhs.0)
    }
}

impl BitAndAssign for Mask {
    fn bitand_assign(&mut self, rhs: Mask) {
        self.0 &= rhs.0;
    }
}

impl BitOr for Mask {
    type Output = Mask;
    fn bitor(self, rhs: Mask) -> Mask {
        Mask(self.0 | rhs.0)
    }
}

impl BitOrAssign for Mask {
    fn bitor_assign(&mut self, rhs: Mask) {
        self.0 |= rhs.0;
    }
}

impl Not for Mask {
    type Output = Mask;
    fn not(self) -> Mask {
        Mask(!self.0)
    }
}

impl fmt::Debug for Mask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Mask({:#018x})", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_masks() {
        assert_eq!(Mask::full(32).0, 0xffff_ffff);
        assert_eq!(Mask::full(64).0, u64::MAX);
        assert_eq!(Mask::full(16).0, 0xffff);
        assert_eq!(Mask::full(32).count(), 32);
    }

    #[test]
    fn lane_ops() {
        let mut m = Mask::NONE;
        assert!(m.is_empty());
        m.set(5);
        m.set(63);
        assert!(m.contains(5) && m.contains(63) && !m.contains(4));
        assert_eq!(m.count(), 2);
        assert_eq!(m.first(), Some(5));
        m.clear(5);
        assert_eq!(m.first(), Some(63));
    }

    #[test]
    fn lanes_iterates_in_order() {
        let m = Mask(0b1010_0110);
        assert_eq!(m.lanes().collect::<Vec<_>>(), vec![1, 2, 5, 7]);
    }

    #[test]
    fn bit_ops() {
        let a = Mask(0b1100);
        let b = Mask(0b1010);
        assert_eq!((a & b).0, 0b1000);
        assert_eq!((a | b).0, 0b1110);
        assert_eq!((!a).0, !0b1100u64);
    }

    #[test]
    fn empty_first_is_none() {
        assert_eq!(Mask::NONE.first(), None);
        assert_eq!(Mask::NONE.lanes().count(), 0);
    }

    #[test]
    fn lane_63_is_the_last_valid_lane() {
        // Regression for the shift-overflow fix: the guard must not
        // disturb the topmost valid lane.
        let m = Mask::lane(63);
        assert_eq!(m.0, 1u64 << 63);
        assert!(m.contains(63));
        let mut n = Mask::NONE;
        n.set(63);
        assert_eq!(n, m);
        n.clear(63);
        assert!(n.is_empty());
    }

    #[test]
    fn contains_is_total_past_the_top_lane() {
        // Before the guard, `contains(64)` computed `1u64 << 64`, which in
        // release builds wraps to `1 << 0` and aliases lane 0.
        assert!(!Mask::full(64).contains(64));
        assert!(!Mask::lane(0).contains(64), "lane 64 must not alias lane 0");
        assert!(!Mask(u64::MAX).contains(u32::MAX));
    }

    #[test]
    #[should_panic(expected = "lane index 64 out of range")]
    fn lane_64_panics_in_every_build() {
        let _ = Mask::lane(64);
    }

    #[test]
    #[should_panic(expected = "lane index 64 out of range")]
    fn set_64_panics_in_every_build() {
        let mut m = Mask::NONE;
        m.set(64);
    }

    #[test]
    #[should_panic(expected = "lane index 64 out of range")]
    fn clear_64_panics_in_every_build() {
        Mask(u64::MAX).clear(64);
    }
}
