//! # workloads — synthetic metagenome workload generation
//!
//! The paper profiles four datasets extracted from MetaHipMer production
//! intermediates (one per k ∈ {21, 33, 55, 77}); those files are not
//! available here, so this crate synthesizes statistically equivalent
//! inputs: per-contig genomes, boundary reads with an error/quality model,
//! and the exact published contig/read counts and read lengths of Table II
//! (which pin the total hash-insertion counts, since
//! insertions = Σ(read_len − k + 1)).
//!
//! * [`genome`] — seeded random genome generation,
//! * [`sampler`] — junction read sampling with substitution errors,
//! * [`datasets`] — the four paper presets (scalable for tests and the
//!   benchmark),
//! * [`stats`] — Table II statistics computed from any dataset.

pub mod datasets;
pub mod genome;
pub mod sampler;
pub mod stats;

pub use datasets::{paper_dataset, paper_spec, DatasetSpec};
pub use sampler::ReadProfile;
pub use stats::{DatasetStats, ExtensionStats};
