//! # locassm-core — de Bruijn graph local assembly (CPU reference)
//!
//! The algorithmic heart of the paper: contigs are extended by building a
//! small de Bruijn graph per contig from the reads that align to its ends —
//! represented as an open-addressing hash table keyed by k-mers (Fig. 1c) —
//! and then walking the graph from the contig's terminal k-mer ("mer-walk",
//! Algorithms 1 and 2).
//!
//! This crate contains everything that is *algorithm*, independent of the
//! GPU simulation:
//!
//! * [`dna`] — bases, complements, validation,
//! * [`quality`] — Phred quality scores and the hi/low vote threshold,
//! * [`kmer`] — k-mer extraction and the extension-vote helper,
//! * [`murmur`] — the `MurmurHashAligned2` hash function the kernel uses,
//!   with the analytic integer-operation counts of the paper's Table V,
//! * [`ht`] — the `loc_ht` open-addressing table with linear probing,
//! * [`walk`] — the mer-walk with fork/loop/end semantics,
//! * [`assemble`] — per-contig extension (serial and rayon-parallel), the
//!   correctness oracle for the three GPU kernel dialects,
//! * [`binning`], [`estimate`] — the host-side pre-processing of Fig. 3,
//! * [`io`] — a plain-text dataset format mirroring the artifact's `.dat`
//!   files.

pub mod assemble;
pub mod binning;
pub mod contig;
pub mod dna;
pub mod estimate;
pub mod ht;
pub mod io;
pub mod kmer;
pub mod murmur;
pub mod quality;
pub mod read;
pub mod retry;
pub mod tenant;
pub mod walk;

pub use assemble::{assemble_all, extend_contig, AssemblyConfig, ExtensionResult};
pub use binning::{bin_contigs, Batch, BinningPolicy};
pub use contig::ContigJob;
pub use dna::{base_index, complement, index_base, revcomp, valid_seq};
pub use estimate::estimate_slots;
pub use ht::{CpuHashTable, HtValue};
pub use kmer::{ext_vote, KmerIter};
pub use murmur::{murmur_hash_aligned2, murmur_intops, MurmurOpBreakdown};
pub use read::Read;
pub use retry::RetryPolicy;
pub use tenant::{RequestId, TenantId};
pub use walk::{mer_walk, Walk, WalkConfig, WalkState};
