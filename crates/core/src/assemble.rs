//! CPU reference local assembly: per-contig extension (Algorithms 1 + 2,
//! Fig. 3 workflow).
//!
//! This is the baseline against which all three GPU kernel dialects are
//! verified: `locassm-kernels` integration tests assert bit-identical
//! extensions on randomized workloads.

use crate::contig::ContigJob;
use crate::estimate::estimate_slots;
use crate::ht::CpuHashTable;
use crate::kmer::{ext_vote, KmerIter};
use crate::read::Read;
use crate::retry::RetryPolicy;
use crate::walk::{mer_walk, Walk, WalkConfig, WalkState};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// Assembly parameters.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AssemblyConfig {
    /// k-mer size for this round.
    pub k: usize,
    /// Walk parameters.
    pub walk: WalkConfig,
    /// Retry ladder for unaccepted walks (Fig. 4's outer loop).
    pub retry: RetryPolicy,
}

impl AssemblyConfig {
    pub fn new(k: usize) -> Self {
        AssemblyConfig { k, walk: WalkConfig::default(), retry: RetryPolicy::none() }
    }
}

/// The two-sided extension produced for one contig.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExtensionResult {
    pub id: u32,
    /// Bases appended to the right (3') end.
    pub right: Vec<u8>,
    /// Bases prepended to the left (5') end (already in forward
    /// orientation).
    pub left: Vec<u8>,
    pub right_state: WalkState,
    pub left_state: WalkState,
}

impl ExtensionResult {
    /// Total bases gained.
    pub fn total_len(&self) -> usize {
        self.right.len() + self.left.len()
    }

    /// The extended contig sequence.
    pub fn apply(&self, contig: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(contig.len() + self.total_len());
        out.extend_from_slice(&self.left);
        out.extend_from_slice(contig);
        out.extend_from_slice(&self.right);
        out
    }
}

/// Build the de Bruijn hash table for a set of reads (Algorithm 1).
pub fn build_table(reads: &[Read], k: usize) -> CpuHashTable {
    let insertions: usize = reads.iter().map(|r| r.kmer_count(k)).sum();
    let mut ht = CpuHashTable::with_capacity(estimate_slots(insertions));
    for r in reads {
        for (pos, kmer) in KmerIter::new(&r.seq, k) {
            // The reservation is an upper bound on distinct keys, so
            // insertion cannot fail.
            ht.insert(kmer, ext_vote(r, pos, k)).expect("table sized by estimate_slots");
        }
    }
    ht
}

/// Extend one end: build the table from `reads`, then walk from the end of
/// `contig`, retrying with the policy's smaller k values while the walk is
/// not accepted (Fig. 4). Returns an empty `End` walk when no k fits the
/// contig or there are no reads.
fn extend_one_side(contig: &[u8], reads: &[Read], cfg: &AssemblyConfig) -> Walk {
    let mut last = Walk { extension: Vec::new(), state: WalkState::End, steps: 0 };
    if reads.is_empty() {
        return last;
    }
    for k in cfg.retry.schedule(cfg.k) {
        if contig.len() < k {
            continue;
        }
        let ht = build_table(reads, k);
        let walk = mer_walk(&ht, contig, k, &cfg.walk);
        let accepted = cfg.retry.accepts(&walk);
        // Keep the best attempt seen so far (longest extension).
        if walk.extension.len() >= last.extension.len() {
            last = walk;
        }
        if accepted {
            break;
        }
    }
    last
}

/// Extend both ends of one contig (the per-warp unit of GPU work).
pub fn extend_contig(job: &ContigJob, cfg: &AssemblyConfig) -> ExtensionResult {
    let right = extend_one_side(&job.contig, &job.right_reads, cfg);

    // Left extension = right extension of the reverse complement.
    let rc_job = job.left_as_right();
    let left_walk = extend_one_side(&rc_job.contig, &rc_job.right_reads, cfg);
    let left = crate::dna::revcomp(&left_walk.extension);

    ExtensionResult {
        id: job.id,
        right: right.extension,
        left,
        right_state: right.state,
        left_state: left_walk.state,
    }
}

/// Extend every contig; `parallel` uses rayon across contigs (the CPU
/// baseline configuration benchmarked against the simulated kernels).
pub fn assemble_all(
    jobs: &[ContigJob],
    cfg: &AssemblyConfig,
    parallel: bool,
) -> Vec<ExtensionResult> {
    if parallel {
        jobs.par_iter().map(|j| extend_contig(j, cfg)).collect()
    } else {
        jobs.iter().map(|j| extend_contig(j, cfg)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(k: usize) -> AssemblyConfig {
        AssemblyConfig {
            walk: WalkConfig { min_votes: 1, ..WalkConfig::default() },
            ..AssemblyConfig::new(k)
        }
    }

    /// A contig that is a window of a longer "genome", with reads covering
    /// both junctions.
    fn two_sided_job() -> (ContigJob, &'static [u8]) {
        //            left ext      contig           right ext
        let genome = b"TTGCAGGCCA GACGTTACGGAT CCGTAAGGTCAT";
        let genome: Vec<u8> = genome.iter().copied().filter(|&b| b != b' ').collect();
        let contig = genome[10..22].to_vec(); // "GACGTTACGGAT"
        // Right reads: overlap the right junction.
        let right = vec![
            Read::with_uniform_qual(&genome[14..30], b'I'),
            Read::with_uniform_qual(&genome[16..32], b'I'),
        ];
        // Left reads: overlap the left junction.
        let left = vec![
            Read::with_uniform_qual(&genome[2..18], b'I'),
            Read::with_uniform_qual(&genome[0..16], b'I'),
        ];
        let job = ContigJob::new(1, contig, right, left);
        (job, Box::leak(genome.into_boxed_slice()))
    }

    #[test]
    fn extends_both_ends() {
        let (job, genome) = two_sided_job();
        let r = extend_contig(&job, &cfg(6));
        assert!(!r.right.is_empty(), "right extension expected");
        assert!(!r.left.is_empty(), "left extension expected");
        let extended = r.apply(&job.contig);
        // The extension must be a substring of the original genome.
        let g = genome;
        assert!(
            g.windows(extended.len()).any(|w| w == extended.as_slice()),
            "extended contig {:?} not found in genome {:?}",
            String::from_utf8_lossy(&extended),
            String::from_utf8_lossy(g)
        );
        assert!(extended.len() > job.contig.len());
    }

    #[test]
    fn no_reads_no_extension() {
        let job = ContigJob::new(0, b"ACGTACGTACGT".to_vec(), vec![], vec![]);
        let r = extend_contig(&job, &cfg(6));
        assert!(r.right.is_empty() && r.left.is_empty());
        assert_eq!(r.right_state, WalkState::End);
        assert_eq!(r.total_len(), 0);
    }

    #[test]
    fn short_contig_skipped_gracefully() {
        let job = ContigJob::new(
            0,
            b"ACG".to_vec(),
            vec![Read::with_uniform_qual(b"ACGTACGT", b'I')],
            vec![],
        );
        let r = extend_contig(&job, &cfg(6));
        assert!(r.right.is_empty());
    }

    #[test]
    fn parallel_matches_serial() {
        let (job, _) = two_sided_job();
        let jobs: Vec<ContigJob> = (0..32)
            .map(|i| {
                let mut j = job.clone();
                j.id = i;
                j
            })
            .collect();
        let a = assemble_all(&jobs, &cfg(6), true);
        let b = assemble_all(&jobs, &cfg(6), false);
        assert_eq!(a, b);
        assert_eq!(a.len(), 32);
    }

    #[test]
    fn apply_prepends_and_appends() {
        let r = ExtensionResult {
            id: 0,
            right: b"GG".to_vec(),
            left: b"TT".to_vec(),
            right_state: WalkState::End,
            left_state: WalkState::End,
        };
        assert_eq!(r.apply(b"ACGT"), b"TTACGTGG");
        assert_eq!(r.total_len(), 4);
    }

    #[test]
    fn build_table_counts_all_kmers() {
        let reads =
            vec![Read::with_uniform_qual(b"ACGTACGT", b'I'), Read::with_uniform_qual(b"ACGTAC", b'I')];
        let ht = build_table(&reads, 4);
        // Read 1 has 5 k-mers, read 2 has 3; ACGT appears 2+1 more times…
        let total: u32 = ht.iter().map(|(_, v)| v.count).sum();
        assert_eq!(total as usize, 5 + 3);
        assert_eq!(ht.lookup(b"ACGT").unwrap().count, 3);
    }
}
