//! `loc_ht` — the per-contig open-addressing hash table (CPU reference).
//!
//! Mirrors the GPU kernel's data structure (paper Fig. 1c and Appendix A):
//! a fixed-capacity array of entries, keyed by k-mer, probed linearly from
//! `MurmurHashAligned2(key) % capacity`, storing quality-stratified
//! extension votes. The capacity is reserved up-front from the host-side
//! size estimation (Fig. 3); running out of slots is the same "*hashtable
//! full*" condition the CUDA code prints.

use crate::murmur::{murmur_hash_aligned2, DEFAULT_SEED};

/// Extension vote counters of one k-mer entry (the `loc_ht` value struct:
/// `hi_q_exts[4]`, `low_q_exts[4]`, `ext`, `count`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HtValue {
    /// High-quality votes per extension base (A, C, G, T).
    pub hi_q: [u32; 4],
    /// Low-quality votes per extension base.
    pub low_q: [u32; 4],
    /// Occurrences of the k-mer (with or without an extension vote).
    pub count: u32,
}

impl HtValue {
    /// Record one occurrence, optionally voting for an extension base.
    pub fn record(&mut self, vote: Option<(usize, bool)>) {
        self.count += 1;
        if let Some((base, hi)) = vote {
            if hi {
                self.hi_q[base] += 1;
            } else {
                self.low_q[base] += 1;
            }
        }
    }
}

#[derive(Debug, Clone)]
struct Slot {
    key: Box<[u8]>,
    val: HtValue,
}

/// Fixed-capacity, linearly-probed k-mer hash table.
#[derive(Debug, Clone)]
pub struct CpuHashTable {
    slots: Vec<Option<Slot>>,
    len: usize,
}

/// The table ran out of slots (the kernel's "*hashtable full*").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableFull;

impl CpuHashTable {
    /// A table with `capacity` slots (from [`crate::estimate_slots`]).
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "hash table capacity must be non-zero");
        CpuHashTable { slots: vec![None; capacity], len: 0 }
    }

    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Number of distinct k-mers stored.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Current load factor.
    pub fn load_factor(&self) -> f64 {
        self.len as f64 / self.slots.len() as f64
    }

    #[inline]
    fn start_index(&self, key: &[u8]) -> usize {
        (murmur_hash_aligned2(key, DEFAULT_SEED) as usize) % self.slots.len()
    }

    /// Insert an occurrence of `key` with an optional extension vote,
    /// creating the entry if needed (Algorithm 1's `k-mer_ht.insert(k)`).
    pub fn insert(&mut self, key: &[u8], vote: Option<(usize, bool)>) -> Result<(), TableFull> {
        let cap = self.slots.len();
        let mut idx = self.start_index(key);
        for _ in 0..cap {
            match &mut self.slots[idx] {
                Some(s) if &*s.key == key => {
                    s.val.record(vote);
                    return Ok(());
                }
                Some(_) => idx = (idx + 1) % cap,
                empty @ None => {
                    let mut val = HtValue::default();
                    val.record(vote);
                    *empty = Some(Slot { key: key.into(), val });
                    self.len += 1;
                    return Ok(());
                }
            }
        }
        Err(TableFull)
    }

    /// Look up a k-mer (Algorithm 2's `k-mer_ht.lookup(k-mer)`).
    pub fn lookup(&self, key: &[u8]) -> Option<&HtValue> {
        let cap = self.slots.len();
        let mut idx = self.start_index(key);
        for _ in 0..cap {
            match &self.slots[idx] {
                Some(s) if &*s.key == key => return Some(&s.val),
                Some(_) => idx = (idx + 1) % cap,
                None => return None,
            }
        }
        None
    }

    /// Iterate stored `(key, value)` pairs in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (&[u8], &HtValue)> {
        self.slots.iter().filter_map(|s| s.as_ref().map(|s| (&*s.key, &s.val)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_lookup_roundtrip() {
        let mut ht = CpuHashTable::with_capacity(64);
        ht.insert(b"ACGT", Some((2, true))).unwrap();
        ht.insert(b"ACGT", Some((2, false))).unwrap();
        ht.insert(b"ACGT", None).unwrap();
        let v = ht.lookup(b"ACGT").unwrap();
        assert_eq!(v.count, 3);
        assert_eq!(v.hi_q, [0, 0, 1, 0]);
        assert_eq!(v.low_q, [0, 0, 1, 0]);
        assert_eq!(ht.len(), 1);
        assert!(ht.lookup(b"TTTT").is_none());
    }

    #[test]
    fn distinct_keys_get_distinct_entries() {
        let mut ht = CpuHashTable::with_capacity(64);
        ht.insert(b"AAAA", Some((0, true))).unwrap();
        ht.insert(b"CCCC", Some((1, true))).unwrap();
        assert_eq!(ht.len(), 2);
        assert_eq!(ht.lookup(b"AAAA").unwrap().hi_q[0], 1);
        assert_eq!(ht.lookup(b"CCCC").unwrap().hi_q[1], 1);
    }

    #[test]
    fn collisions_resolve_by_linear_probing() {
        // Capacity 2 forces collisions between any 2 distinct keys.
        let mut ht = CpuHashTable::with_capacity(2);
        ht.insert(b"AAAA", None).unwrap();
        ht.insert(b"CCCC", None).unwrap();
        assert_eq!(ht.len(), 2);
        assert!(ht.lookup(b"AAAA").is_some());
        assert!(ht.lookup(b"CCCC").is_some());
        assert_eq!(ht.load_factor(), 1.0);
    }

    #[test]
    fn full_table_errors() {
        let mut ht = CpuHashTable::with_capacity(2);
        ht.insert(b"AAAA", None).unwrap();
        ht.insert(b"CCCC", None).unwrap();
        assert_eq!(ht.insert(b"GGGG", None), Err(TableFull));
        // Existing keys still updatable when full.
        assert!(ht.insert(b"AAAA", None).is_ok());
        assert_eq!(ht.lookup(b"AAAA").unwrap().count, 2);
    }

    #[test]
    fn iter_sees_everything() {
        let mut ht = CpuHashTable::with_capacity(16);
        for key in [b"AAAA", b"CCCC", b"GGGG"] {
            ht.insert(key, None).unwrap();
        }
        let mut keys: Vec<&[u8]> = ht.iter().map(|(k, _)| k).collect();
        keys.sort();
        assert_eq!(keys, vec![&b"AAAA"[..], b"CCCC", b"GGGG"]);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_rejected() {
        CpuHashTable::with_capacity(0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    type Ops = Vec<(Vec<u8>, Option<(usize, bool)>)>;

    fn kmers() -> impl Strategy<Value = Ops> {
        let kmer = proptest::collection::vec(
            proptest::sample::select(crate::dna::BASES.to_vec()),
            5..=5,
        );
        let vote = proptest::option::of((0usize..4, any::<bool>()));
        proptest::collection::vec((kmer, vote), 0..200)
    }

    proptest! {
        /// The linearly-probed table behaves exactly like a model HashMap.
        #[test]
        fn behaves_like_model(ops in kmers()) {
            let mut ht = CpuHashTable::with_capacity(512);
            let mut model: HashMap<Vec<u8>, HtValue> = HashMap::new();
            for (key, vote) in &ops {
                ht.insert(key, *vote).unwrap();
                model.entry(key.clone()).or_default().record(*vote);
            }
            prop_assert_eq!(ht.len(), model.len());
            for (key, expect) in &model {
                prop_assert_eq!(ht.lookup(key), Some(expect));
            }
        }

        /// High load factors still resolve correctly.
        #[test]
        fn dense_table_correct(ops in kmers()) {
            let distinct: std::collections::HashSet<_> =
                ops.iter().map(|(k, _)| k.clone()).collect();
            if distinct.is_empty() { return Ok(()); }
            let mut ht = CpuHashTable::with_capacity(distinct.len());
            for (key, vote) in &ops {
                ht.insert(key, *vote).unwrap();
            }
            for key in &distinct {
                prop_assert!(ht.lookup(key).is_some());
            }
        }
    }
}
