//! Deterministic fault injection for the launch engine.
//!
//! Production GPU pipelines must survive pathological jobs — a hash table
//! whose host-side slot estimate was violated, an arena that cannot grow,
//! a walk that never terminates. The kernel layer reports those as
//! structured faults; this module provides the *harness* that forces each
//! fault class on demand so recovery paths can be tested deterministically.
//!
//! A [`FaultPlan`] names one victim job (by run-global launch index) and
//! one fault class. The launch engine arms the plan on the victim's warp
//! just before its kernel runs; the kernel's ordinary fault checks then
//! observe the injected condition and return the same structured error a
//! real pathology would produce. Plans are plain `Copy` data — no global
//! state, no timers — so a seeded plan replays bit-identically.

use crate::warp::Warp;

/// One injectable fault class: what a [`FaultPlan`]'s victim observes.
///
/// Armed on a [`Warp`] by [`Warp::inject`] and cleared by [`Warp::reset`],
/// so pooled warps never leak an armed fault into the next job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Report `HashTableFull` when the victim first inserts.
    TableFull,
    /// Fail the victim's `nth` (1-based) arena allocation.
    AllocFailure {
        /// Which allocation fails, counting from 1.
        nth: u64,
    },
    /// Trip the walk watchdog on the victim's first budget check.
    Watchdog,
    /// Stage the victim's hash-table main region at `1/divisor` of its
    /// estimated size. Unlike [`Fault::TableFull`], which short-circuits
    /// the insert path, a squeeze simulates a *violated host-side slot
    /// estimate*: the kernel probes a genuinely under-sized table, so
    /// whether it overflows depends on the table layout's real headroom
    /// (an iceberg backyard can absorb what a squeezed linear table
    /// cannot).
    TableSqueeze {
        /// Main-region divisor; a divisor below 2 squeezes nothing.
        divisor: u32,
    },
}

/// A deterministic, seedable single-fault injection plan: one victim, one
/// fault, one attempt budget.
///
/// Job indices are *run-global*: the launch layer numbers every warp it
/// launches across batches and sides in deterministic order (the same
/// numbering the trace layer uses), and offsets each launch's local
/// indices by [`crate::grid::LaunchConfig::fault_base`].
///
/// The fields are private, so every plan comes from a constructor and is
/// one real fault: at least one attempt faults, an allocation fault
/// fails an allocation that happens (`nth ≥ 1`), and a squeeze divides
/// the table by at least 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    victim: u64,
    fault: Fault,
    attempts: u32,
}

impl FaultPlan {
    /// Force a hash-table-full fault at run-global job index `job`.
    pub fn table_full(job: u64) -> Self {
        Self { victim: job, fault: Fault::TableFull, attempts: 1 }
    }

    /// Fail the `nth` (1-based) arena allocation of job `job`.
    pub fn alloc_failure(job: u64, nth: u64) -> Self {
        Self { victim: job, fault: Fault::AllocFailure { nth: nth.max(1) }, attempts: 1 }
    }

    /// Trip the walk watchdog at run-global job index `job`.
    pub fn watchdog(job: u64) -> Self {
        Self { victim: job, fault: Fault::Watchdog, attempts: 1 }
    }

    /// Stage job `job`'s hash table at `1/divisor` of its estimated main
    /// region — a simulated host-estimate violation that exercises the
    /// real overflow paths instead of short-circuiting them.
    pub fn table_squeeze(job: u64, divisor: u32) -> Self {
        Self { victim: job, fault: Fault::TableSqueeze { divisor: divisor.max(2) }, attempts: 1 }
    }

    /// Make the fault persist for the victim's first `attempts` attempts
    /// (the original run counts as attempt one; 0 counts as 1).
    pub fn persist(mut self, attempts: u32) -> Self {
        self.attempts = attempts.max(1);
        self
    }

    /// The same plan aimed at job `victim` instead: a driver that names
    /// its victim in its own id space moves it onto a run's job numbering
    /// with this.
    pub fn with_victim(self, victim: u64) -> Self {
        Self { victim, ..self }
    }

    /// Index of the job that observes the fault.
    pub fn victim(&self) -> u64 {
        self.victim
    }

    /// The fault the victim observes.
    pub fn fault(&self) -> Fault {
        self.fault
    }

    /// How many attempts of the victim job observe the fault, at least 1.
    /// `1` (every constructor's default) models a transient fault: the
    /// first retry runs clean. `2` also faults the first (grown-table)
    /// retry, pushing recovery down the k-ladder; `u32::MAX` models a
    /// persistent fault that exhausts every escalation step and ends in
    /// `Failed`.
    pub fn attempts(&self) -> u32 {
        self.attempts
    }

    /// Derive a single-fault plan from a seed: a splitmix64 scramble
    /// picks the fault class, the victim among `n_jobs`, and (for
    /// allocation faults) which allocation fails. Same seed, same plan.
    pub fn seeded(seed: u64, n_jobs: u64) -> Self {
        let mut x = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut next = move || {
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let job = if n_jobs == 0 { 0 } else { next() % n_jobs };
        match next() % 3 {
            0 => Self::table_full(job),
            1 => Self::alloc_failure(job, 1 + next() % 5),
            _ => Self::watchdog(job),
        }
    }

    /// Deduct `spent` attempts already charged against this plan's budget
    /// (by earlier runs of the same victim) and return the remainder, or
    /// `None` once the budget is exhausted — the caller then launches
    /// with no plan at all, so the victim's next attempt runs clean.
    ///
    /// A driver that re-enqueues jobs (a service-level retry, a requeue
    /// after backpressure) names its victim in its own stable id space,
    /// feeds the attempts spent so far through this, and moves the
    /// victim onto each run's job numbering ([`FaultPlan::with_victim`])
    /// just before launch.
    /// That makes a persistent fault *globally* persistent: a
    /// `persist(3)` plan faults exactly three attempts of the same
    /// request even when those attempts span multiple separate runs.
    pub fn consume(&self, spent: u32) -> Option<Self> {
        let remaining = self.attempts.saturating_sub(spent);
        if remaining == 0 {
            return None;
        }
        Some(Self { attempts: remaining, ..*self })
    }

    /// Arm this plan on `warp` if it targets run-global job index `job`.
    /// Called by the launch engine after the warp is acquired (and reset)
    /// and before the kernel runs; a non-matching job is a no-op.
    pub fn arm(&self, job: u64, warp: &mut Warp) {
        if job == self.victim {
            warp.inject(self.fault);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memhier::HierarchyConfig;

    #[test]
    fn plans_are_deterministic_per_seed() {
        for seed in 0..64u64 {
            assert_eq!(FaultPlan::seeded(seed, 17), FaultPlan::seeded(seed, 17));
        }
    }

    #[test]
    fn seeded_plans_cover_all_fault_classes() {
        let mut table = 0;
        let mut alloc = 0;
        let mut dog = 0;
        for seed in 0..64u64 {
            let p = FaultPlan::seeded(seed, 9);
            assert!(p.victim() < 9);
            match p.fault() {
                Fault::TableFull => table += 1,
                Fault::AllocFailure { nth } => {
                    alloc += 1;
                    assert!((1..=5).contains(&nth));
                }
                Fault::Watchdog => dog += 1,
                Fault::TableSqueeze { .. } => panic!("seeded plans never squeeze"),
            }
        }
        assert!(table > 0 && alloc > 0 && dog > 0, "{table}/{alloc}/{dog}");
    }

    #[test]
    fn arming_is_job_selective() {
        let mut warp = Warp::new(8, HierarchyConfig::tiny());
        let plan = FaultPlan::table_full(3);
        plan.arm(2, &mut warp);
        assert_eq!(warp.injected(), None);
        plan.arm(3, &mut warp);
        assert_eq!(warp.injected(), Some(Fault::TableFull));
    }

    #[test]
    fn consume_tracks_a_cross_run_attempt_budget() {
        let plan = FaultPlan::table_full(0).persist(3);
        // Run 1 spent 2 attempts: one remains.
        let rest = plan.consume(2).expect("budget not yet exhausted");
        assert_eq!(rest, plan.persist(1));
        // Run 2 spent that one: the plan disarms entirely.
        assert_eq!(rest.consume(1), None);
        assert_eq!(plan.consume(3), None);
        assert_eq!(plan.consume(u32::MAX), None);
        // An inexhaustible plan never disarms.
        let forever = FaultPlan::watchdog(1).persist(u32::MAX);
        assert_eq!(forever.consume(1_000_000).map(|p| p.attempts()), Some(u32::MAX - 1_000_000));
    }

    #[test]
    fn reset_disarms_injected_faults() {
        let mut warp = Warp::new(8, HierarchyConfig::tiny());
        FaultPlan::alloc_failure(0, 2).arm(0, &mut warp);
        assert_eq!(warp.injected(), Some(Fault::AllocFailure { nth: 2 }));
        warp.reset(8, HierarchyConfig::tiny());
        assert_eq!(warp.injected(), None);
        assert!(warp.mem.try_alloc(16).is_ok(), "reset must disarm the allocation fault");
        assert!(warp.mem.try_alloc(16).is_ok());
    }

    /// Whether `p` faults something: at least one attempt, an allocation
    /// that happens, and a squeeze that shrinks the table.
    fn is_real_fault(p: &FaultPlan) -> bool {
        let fault_ok = match p.fault() {
            Fault::AllocFailure { nth } => nth >= 1,
            Fault::TableSqueeze { divisor } => divisor >= 2,
            Fault::TableFull | Fault::Watchdog => true,
        };
        p.attempts() >= 1 && fault_ok
    }

    #[test]
    fn every_constructible_plan_is_a_real_fault() {
        let mut plans: Vec<FaultPlan> =
            (0..512u64).map(|seed| FaultPlan::seeded(seed, 7)).collect();
        plans.extend((0..4).map(|divisor| FaultPlan::table_squeeze(1, divisor)));
        plans.extend((0..3).map(|nth| FaultPlan::alloc_failure(2, nth)));
        plans.extend([FaultPlan::table_full(0), FaultPlan::watchdog(0)]);
        for p in plans.clone() {
            plans.extend([p.persist(0), p.persist(1), p.persist(u32::MAX), p.with_victim(9)]);
            plans.extend(
                [0, 1, 2, u32::MAX].iter().filter_map(|&spent| p.persist(3).consume(spent)),
            );
        }
        for p in &plans {
            assert!(is_real_fault(p), "{p:?} faults nothing");
        }
        assert_eq!(FaultPlan::table_squeeze(0, 0), FaultPlan::table_squeeze(0, 2));
        assert_eq!(FaultPlan::table_full(0).persist(0).attempts(), 1);
        assert_eq!(FaultPlan::watchdog(3).persist(4).with_victim(8).attempts(), 4);
    }
}
