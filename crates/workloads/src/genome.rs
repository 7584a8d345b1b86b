//! Seeded random genome generation.

use locassm_core::dna::BASES;
use rand::{Rng, RngExt};

/// A uniform random DNA sequence of `len` bases.
pub fn random_genome<R: Rng>(len: usize, rng: &mut R) -> Vec<u8> {
    (0..len).map(|_| BASES[rng.random_range(0..4)]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn genome_is_valid_dna_of_requested_length() {
        let mut rng = StdRng::seed_from_u64(42);
        let g = random_genome(1000, &mut rng);
        assert_eq!(g.len(), 1000);
        assert!(locassm_core::dna::valid_seq(&g));
    }

    #[test]
    fn seeded_generation_is_deterministic() {
        let a = random_genome(500, &mut StdRng::seed_from_u64(7));
        let b = random_genome(500, &mut StdRng::seed_from_u64(7));
        let c = random_genome(500, &mut StdRng::seed_from_u64(8));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn composition_is_roughly_uniform() {
        let mut rng = StdRng::seed_from_u64(123);
        let g = random_genome(40_000, &mut rng);
        for &b in &locassm_core::dna::BASES {
            let n = g.iter().filter(|&&x| x == b).count();
            assert!((8_000..12_000).contains(&n), "base {} count {n}", b as char);
        }
    }
}
