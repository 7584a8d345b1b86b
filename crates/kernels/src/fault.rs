//! Structured kernel faults and per-job outcomes.
//!
//! The paper's kernel listings abort on pathology — `"*hashtable full*"`
//! when the host-side slot estimate is violated. A production launch
//! engine cannot afford that: one bad job would kill a pooled,
//! rayon-parallel batch. Instead the per-job hot path (staging, the three
//! insert dialects, construct, walk) returns a [`KernelFault`], the launch
//! layer isolates the faulting job, escalates deterministically (grown
//! hash table, then the `core::retry` k-ladder), and reports a per-job
//! [`JobOutcome`] — `Ok`, `Recovered`, or `Failed` — while every other
//! job's output stays bit-identical to a fault-free run.

use std::fmt;

/// A structured fault raised by the per-job kernel hot path.
///
/// Faults are values, not panics: they carry the diagnostic payload the
/// paper's aborts printed (capacity, occupancy) plus what escalation
/// needs (requested sizes, budgets).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelFault {
    /// The linear probe wrapped all the way around the hash table: every
    /// slot was claimed by a different key. The paper's listings abort
    /// here with `"*hashtable full*"`; the launch layer instead retries
    /// with a grown slot count, then falls down the k-ladder.
    HashTableFull {
        /// Slot count of the table that overflowed.
        capacity: u32,
        /// Slots occupied when the probe wrapped (host-side diagnostic
        /// scan, not charged to the kernel).
        occupancy: u32,
    },
    /// A device arena allocation failed during staging.
    ArenaExhausted {
        /// Bytes the failed allocation requested.
        requested: u64,
        /// Arena capacity at the time of the failure.
        limit: u64,
    },
    /// The mer walk exceeded its layout-derived instruction budget — the
    /// per-warp watchdog that bounds runaway walks.
    WalkBudgetExceeded {
        /// Warp-instruction budget the walk was allowed.
        budget: u64,
        /// Instructions spent when the watchdog fired.
        spent: u64,
    },
    /// The job cannot be staged at all (e.g. a contig shorter than one
    /// k-mer chunk, or a zero k). Not retryable.
    MalformedJob {
        /// Why the job was rejected.
        reason: &'static str,
    },
}

impl KernelFault {
    /// Whether escalation can plausibly clear this fault: growing the
    /// table (or dropping k) helps a full table; malformed jobs never
    /// recover.
    pub fn retryable(&self) -> bool {
        !matches!(self, KernelFault::MalformedJob { .. })
    }
}

impl fmt::Display for KernelFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KernelFault::HashTableFull { capacity, occupancy } => {
                write!(f, "*hashtable full* (capacity {capacity}, occupancy {occupancy})")
            }
            KernelFault::ArenaExhausted { requested, limit } => {
                write!(f, "arena exhausted ({requested} bytes requested, capacity {limit})")
            }
            KernelFault::WalkBudgetExceeded { budget, spent } => {
                write!(f, "walk budget exceeded ({spent} warp instructions, budget {budget})")
            }
            KernelFault::MalformedJob { reason } => write!(f, "malformed job: {reason}"),
        }
    }
}

impl std::error::Error for KernelFault {}

impl From<simt::AllocError> for KernelFault {
    fn from(e: simt::AllocError) -> Self {
        KernelFault::ArenaExhausted { requested: e.requested, limit: e.limit }
    }
}

/// Per-job outcome of a launch with fault isolation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JobOutcome {
    /// The job ran clean on the first attempt.
    #[default]
    Ok,
    /// The job faulted but escalation produced a result (clean retry,
    /// grown table, or a fallback k from the retry ladder).
    Recovered {
        /// Extra attempts the escalation spent (≥ 1).
        attempts: u32,
    },
    /// Every escalation step faulted; the job contributes an empty
    /// extension and the last fault observed.
    Failed {
        /// The fault that exhausted escalation.
        fault: KernelFault,
        /// Extra attempts escalation spent before giving up (0 for a
        /// non-retryable fault such as `MalformedJob`). Service-level
        /// retry accounting needs the exact count: a request re-enqueued
        /// by a front-end must charge its ladder walk against the
        /// tenant's retry budget, not rediscover it.
        attempts: u32,
    },
}

impl JobOutcome {
    /// Merge the outcomes of a job's two kernel runs (right and left
    /// extension): `Failed` dominates (keeping the first side's fault),
    /// then `Recovered`, then `Ok`. Attempts always sum, so the combined
    /// outcome charges every escalation retry either side spent.
    pub fn combine(self, other: JobOutcome) -> JobOutcome {
        match (self, other) {
            (JobOutcome::Failed { fault, attempts }, o) => {
                JobOutcome::Failed { fault, attempts: attempts + o.attempts() }
            }
            (o, JobOutcome::Failed { fault, attempts }) => {
                JobOutcome::Failed { fault, attempts: attempts + o.attempts() }
            }
            (JobOutcome::Recovered { attempts: a }, JobOutcome::Recovered { attempts: b }) => {
                JobOutcome::Recovered { attempts: a + b }
            }
            (r @ JobOutcome::Recovered { .. }, JobOutcome::Ok) => r,
            (JobOutcome::Ok, r) => r,
        }
    }

    /// Extra escalation attempts this outcome spent beyond the first run
    /// (0 for `Ok`). Exact for `Failed` too — the field the service
    /// layer's retry accounting consumes.
    pub fn attempts(&self) -> u32 {
        match self {
            JobOutcome::Ok => 0,
            JobOutcome::Recovered { attempts } | JobOutcome::Failed { attempts, .. } => *attempts,
        }
    }

    /// True unless the job ended in [`JobOutcome::Failed`].
    pub fn succeeded(&self) -> bool {
        !matches!(self, JobOutcome::Failed { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_keeps_the_papers_phrasing() {
        let f = KernelFault::HashTableFull { capacity: 33, occupancy: 33 };
        assert!(f.to_string().contains("*hashtable full*"));
        assert!(f.to_string().contains("33"));
    }

    #[test]
    fn retryability() {
        assert!(KernelFault::HashTableFull { capacity: 1, occupancy: 1 }.retryable());
        assert!(KernelFault::ArenaExhausted { requested: 8, limit: 4 }.retryable());
        assert!(KernelFault::WalkBudgetExceeded { budget: 1, spent: 2 }.retryable());
        assert!(!KernelFault::MalformedJob { reason: "x" }.retryable());
    }

    #[test]
    fn alloc_errors_convert() {
        let e = simt::AllocError { requested: 100, limit: 64 };
        assert_eq!(
            KernelFault::from(e),
            KernelFault::ArenaExhausted { requested: 100, limit: 64 }
        );
    }

    #[test]
    fn outcome_combination_is_worst_wins() {
        let fail = |n| JobOutcome::Failed {
            fault: KernelFault::MalformedJob { reason: "x" },
            attempts: n,
        };
        let rec = |n| JobOutcome::Recovered { attempts: n };
        assert_eq!(JobOutcome::Ok.combine(JobOutcome::Ok), JobOutcome::Ok);
        assert_eq!(JobOutcome::Ok.combine(rec(2)), rec(2));
        assert_eq!(rec(1).combine(rec(2)), rec(3));
        assert_eq!(rec(1).combine(fail(2)), fail(3), "attempts sum across sides");
        assert_eq!(fail(2).combine(JobOutcome::Ok), fail(2));
        assert_eq!(fail(1).combine(fail(2)), fail(3), "first side's fault wins, attempts sum");
        assert!(rec(1).succeeded() && JobOutcome::Ok.succeeded() && !fail(0).succeeded());
    }

    #[test]
    fn attempts_accessor_is_exact() {
        assert_eq!(JobOutcome::Ok.attempts(), 0);
        assert_eq!(JobOutcome::Recovered { attempts: 3 }.attempts(), 3);
        let f = JobOutcome::Failed {
            fault: KernelFault::HashTableFull { capacity: 1, occupancy: 1 },
            attempts: 4,
        };
        assert_eq!(f.attempts(), 4);
    }
}
