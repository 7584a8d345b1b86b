//! Per-lane SOA value vectors.

use crate::mask::Mask;
use crate::MAX_LANES;
use std::ops::{Index, IndexMut};

/// A fixed-width vector holding one `T` per lane of a warp.
///
/// The kernel code in `locassm-kernels` is written against `LaneVec`s, which
/// makes the warp-synchronous structure of the original CUDA code explicit:
/// a scalar variable in the CUDA source becomes a `LaneVec` here, and the
/// active-mask plumbing becomes visible instead of implicit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneVec<T> {
    vals: [T; MAX_LANES],
}

impl<T: Copy + Default> Default for LaneVec<T> {
    fn default() -> Self {
        LaneVec { vals: [T::default(); MAX_LANES] }
    }
}

impl<T: Copy + Default> LaneVec<T> {
    /// All lanes initialized to `v`.
    pub fn splat(v: T) -> Self {
        LaneVec { vals: [v; MAX_LANES] }
    }

    /// Lane *i* initialized to `f(i)` for the first `width` lanes.
    pub fn from_fn(width: u32, mut f: impl FnMut(u32) -> T) -> Self {
        let mut vals = [T::default(); MAX_LANES];
        for (i, slot) in vals.iter_mut().take(width as usize).enumerate() {
            *slot = f(i as u32);
        }
        LaneVec { vals }
    }

    /// Set `v` on every lane in `mask`.
    pub fn set_masked(&mut self, mask: Mask, v: T) {
        for l in mask.lanes() {
            self.vals[l as usize] = v;
        }
    }

    /// Apply `f` to every lane in `mask`, writing the result back.
    pub fn update_masked(&mut self, mask: Mask, mut f: impl FnMut(u32, T) -> T) {
        for l in mask.lanes() {
            self.vals[l as usize] = f(l, self.vals[l as usize]);
        }
    }

    /// Iterator of `(lane, value)` over active lanes.
    pub fn iter_masked(&self, mask: Mask) -> impl Iterator<Item = (u32, T)> + '_ {
        mask.lanes().map(move |l| (l, self.vals[l as usize]))
    }
}

impl<T> Index<u32> for LaneVec<T> {
    type Output = T;
    fn index(&self, lane: u32) -> &T {
        &self.vals[lane as usize]
    }
}

impl<T> IndexMut<u32> for LaneVec<T> {
    fn index_mut(&mut self, lane: u32) -> &mut T {
        &mut self.vals[lane as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_fn_fills_width() {
        let v = LaneVec::from_fn(4, |l| l * 10);
        assert_eq!(v[0], 0);
        assert_eq!(v[3], 30);
        assert_eq!(v[4], 0, "beyond width stays default");
    }

    #[test]
    fn splat_and_index_mut() {
        let mut v = LaneVec::splat(7u32);
        v[5] = 9;
        assert_eq!(v[4], 7);
        assert_eq!(v[5], 9);
    }

    #[test]
    fn masked_ops() {
        let mut v = LaneVec::splat(0u32);
        let m = Mask(0b101);
        v.set_masked(m, 3);
        assert_eq!((v[0], v[1], v[2]), (3, 0, 3));
        v.update_masked(m, |lane, x| x + lane);
        assert_eq!((v[0], v[1], v[2]), (3, 0, 5));
        let pairs: Vec<_> = v.iter_masked(m).collect();
        assert_eq!(pairs, vec![(0, 3), (2, 5)]);
    }
}
