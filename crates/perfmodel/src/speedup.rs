//! The potential speed-up plot (paper Fig. 9, after Antepara et al.).
//!
//! Each kernel run becomes a point whose x is the algorithm efficiency
//! (% of theoretical INTOP intensity) and y the architectural efficiency
//! (% of the roofline). The reciprocal axes read as *potential speed-up*:
//! a point at 25% roofline could go 4× faster with a better
//! implementation/compiler; a point at 25% theoretical II could move 4×
//! less data with better locality. Iso-curves of constant combined
//! speed-up are hyperbolas `x·y = const`.

use serde::{Deserialize, Serialize};

/// One device/dataset point on the Fig. 9 plane.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SpeedupPoint {
    /// Algorithm efficiency in [0, 1] (x-axis: % of theoretical AI/II).
    pub algorithm_eff: f64,
    /// Architectural efficiency in [0, 1] (y-axis: % of roofline).
    pub architectural_eff: f64,
}

impl SpeedupPoint {
    pub fn new(algorithm_eff: f64, architectural_eff: f64) -> Self {
        assert!((0.0..=1.0).contains(&algorithm_eff), "algorithm_eff out of range");
        assert!(
            (0.0..=1.0).contains(&architectural_eff),
            "architectural_eff out of range"
        );
        SpeedupPoint { algorithm_eff, architectural_eff }
    }

    /// Potential speed-up from improving data locality (top x-axis).
    pub fn speedup_from_ai(&self) -> f64 {
        1.0 / self.algorithm_eff.max(f64::MIN_POSITIVE)
    }

    /// Potential speed-up from improving kernel performance (right y-axis).
    pub fn speedup_from_performance(&self) -> f64 {
        1.0 / self.architectural_eff.max(f64::MIN_POSITIVE)
    }

    /// Combined potential speed-up (the iso-curve this point sits on).
    pub fn combined_speedup(&self) -> f64 {
        self.speedup_from_ai() * self.speedup_from_performance()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reciprocal_axes() {
        let p = SpeedupPoint::new(0.25, 0.125);
        assert!((p.speedup_from_ai() - 4.0).abs() < 1e-12);
        assert!((p.speedup_from_performance() - 8.0).abs() < 1e-12);
        assert!((p.combined_speedup() - 32.0).abs() < 1e-12);
    }

    #[test]
    fn perfect_point_has_no_speedup() {
        let p = SpeedupPoint::new(1.0, 1.0);
        assert_eq!(p.combined_speedup(), 1.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range() {
        SpeedupPoint::new(1.5, 0.5);
    }
}
