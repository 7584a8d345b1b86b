//! The device-side mer-walk (Algorithm 2, Fig. 4).
//!
//! One thread of the warp performs the walk — "relatively short graph
//! walks are faster if done serially" (§I) — while the rest are masked
//! out; the terminating state is then broadcast to the full warp with
//! shuffles. All the instruction cost is charged to the single-lane mask,
//! which is exactly the thread-predication effect the paper analyses:
//! every walk instruction still occupies the whole warp.
//!
//! The three word-by-word loops (the contig tail, the visited scan and the
//! stored-key compare) issue their loads as [`Warp::load_u32_scalar_run`]s.
//! Every load is still charged one by one; only the host work of loads
//! that re-read the sector just read is batched.

use crate::fault::KernelFault;
use crate::layout::{DeviceJob, EMPTY, OFF_HI_Q, OFF_KEY_LEN, OFF_KEY_OFF, OFF_LOW_Q};
use locassm_core::murmur::murmur_intops;
use locassm_core::walk::{decide_extension, window_fingerprint, Walk, WalkState};
use locassm_core::HtValue;
use simt::{Fault, LaneVec, Mask, Warp};

/// Walk lane (lane 0 performs the walk).
const WALK_LANE: u32 = 0;

/// Perform the mer-walk from the staged contig's terminal k-mer.
///
/// Semantics are identical to `locassm_core::mer_walk` on the CPU table —
/// the integration tests assert bit-equality of extensions — while every
/// memory access and integer operation is charged to the simulator.
///
/// A per-warp instruction watchdog bounds runaway walks: the budget is
/// `job.walk_budget` (derived from the staged layout, see
/// [`crate::layout::walk_budget`]); if the walk's instruction spend
/// crosses it the kernel emits a `Watchdog` trace event and returns
/// `WalkBudgetExceeded`. The check is host-side only — it issues no
/// modeled instructions — so fault-free runs are bit-identical to the
/// unchecked kernel. An injected watchdog fault shrinks the budget to 0
/// so the first loop iteration trips it deterministically.
pub fn mer_walk_kernel(warp: &mut Warp, job: &DeviceJob) -> Result<Walk, KernelFault> {
    let lane = WALK_LANE;
    let lm = Mask::lane(lane);
    let k = job.k;
    let chunks = k.div_ceil(4) as u64;
    let cfg = job.walk;
    let watchdog_start = warp.counters.warp_instructions;
    let budget = if warp.injected() == Some(Fault::Watchdog) { 0 } else { job.walk_budget };

    // A contig shorter than the k-mer (or than one 4-byte chunk) has no
    // terminal window to slice: the unsigned tail arithmetic below would
    // wrap to the top of the address space. Malformed input is a
    // structured, non-retryable fault — never an address-space walk.
    if (job.contig_len as usize) < k || job.contig_len < 4 {
        return Err(KernelFault::MalformedJob { reason: "contig shorter than the walk window" });
    }

    // Slice the terminal k-mer out of the contig (Algorithm 2 line 4).
    let tail = job.contig + job.contig_len as u64 - k as u64;
    // Chunked loads; the final chunk is clamped to stay in bounds.
    let last_word = job.contig + job.contig_len as u64 - 4;
    warp.load_u32_scalar_run(lane, chunks, 0, |j| (tail + 4 * j).min(last_word), |_| false);
    let mut window = warp.mem.read_bytes(tail, k as u64).to_vec();

    let mut visited = 0u64;
    let mut extension: Vec<u8> = Vec::new();
    let mut steps = 0u32;
    // Probe order and wrap bound come from the job's table layout — the
    // same sequence insertion walked, which is what lets the lookup stop
    // at the first EMPTY slot it meets.
    let lay = job.layout.as_layout();
    let probe_bound = lay.probe_bound(job);

    let walk = 'walk: loop {
        let spent = warp.counters.warp_instructions - watchdog_start;
        if spent > budget {
            warp.trace_event(simt::EventKind::Watchdog { budget, spent });
            return Err(KernelFault::WalkBudgetExceeded { budget, spent });
        }
        if extension.len() >= cfg.max_walk_len {
            break WalkState::MaxLen;
        }

        // Hash the window once: it is both the table index and the
        // visited-set fingerprint (the paper's INTOP2: one hash per lookup).
        warp.iop(lm, murmur_intops(k));
        let fp = window_fingerprint(&window);

        // loop_exists(k-mer): scan the visited list in device memory.
        let seen = warp.load_u32_scalar_run(lane, visited, 1, |i| job.visited + 4 * i, |v| v == fp);
        if seen.is_some() {
            break 'walk WalkState::Loop;
        }
        warp.store_u32_scalar(lane, job.visited + 4 * visited, fp);
        visited += 1;

        steps += 1;

        // ext = k-mer_ht.lookup(k-mer): probe the layout's sequence for
        // the window's hash. `fp` is the window's table hash, so in
        // Vectorized runs (which carry an interned hash shadow) the probe
        // loop can reject mismatched stored keys against it without the
        // k-byte compare. Modeled loads/iops are charged identically
        // either way. The walk is single-lane, so no bucket-crossing
        // votes are issued — collectives are the dialect loops' cost.
        let mut slot = lay.slot_at(job, fp, 0);
        warp.iop(lm, 2);
        let mut found = None;
        let mut probes = 0u32;
        for probe in 0..probe_bound {
            probes += 1;
            let len_v = warp.load_u32_scalar(lane, job.entry_field(slot, OFF_KEY_LEN));
            warp.iop(lm, 1);
            if len_v == EMPTY {
                break;
            }
            let off = warp.load_u32_scalar(lane, job.entry_field(slot, OFF_KEY_OFF));
            // Clamped like the contig tail: a key ending within 3 bytes of
            // the reads buffer's end re-reads the last whole word instead
            // of touching the next buffer's sectors.
            warp.load_u32_scalar_run(lane, chunks, 1, |j| job.key_chunk_addr(off, j), |_| false);
            let matches = match job.key_fp(off) {
                Some(f) if f != fp => false,
                _ => warp.mem.read_bytes(job.reads + off as u64, k as u64) == window.as_slice(),
            };
            if matches {
                found = Some(slot);
                break;
            }
            slot = lay.slot_at(job, fp, probe + 1);
            warp.iop(lm, 2);
        }
        warp.trace_event(simt::EventKind::WalkStep { probes });
        let Some(s) = found else {
            break WalkState::End;
        };

        // Load the vote counters and decide the extension.
        let mut val = HtValue::default();
        for b in 0..4u64 {
            val.hi_q[b as usize] =
                warp.load_u32_scalar(lane, job.entry_field(s, OFF_HI_Q + 4 * b));
            val.low_q[b as usize] =
                warp.load_u32_scalar(lane, job.entry_field(s, OFF_LOW_Q + 4 * b));
        }
        warp.iop(lm, 12); // vote scoring + winner/runner-up reduction

        match decide_extension(&val, cfg.min_votes) {
            Ok(base) => {
                let ch = locassm_core::index_base(base);
                warp.store_u8_scalar(lane, job.out + extension.len() as u64, ch);
                extension.push(ch);
                window.rotate_left(1);
                window[k - 1] = ch;
                warp.iop(lm, 4); // window shift + append bookkeeping
            }
            Err(state) => break state,
        }
    };

    // Broadcast the walk state and length to the warp (Fig. 4).
    let state_vec = LaneVec::splat(walk as u32);
    let _ = warp.shfl_u32(warp.full_mask(), &state_vec, lane);
    let len_vec = LaneVec::splat(extension.len() as u32);
    let _ = warp.shfl_u32(warp.full_mask(), &len_vec, lane);
    warp.syncwarp(warp.full_mask());

    Ok(Walk { extension, state: walk, steps })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::construct::construct_hash_table;
    use crate::kernel::Dialect;
    use locassm_core::walk::{mer_walk, WalkConfig};
    use locassm_core::{assemble, Read};
    use memhier::HierarchyConfig;

    fn run_gpu(contig: &[u8], reads: &[Read], k: usize, cfg: WalkConfig) -> Walk {
        let mut warp = Warp::new(32, HierarchyConfig::tiny());
        let mut job = DeviceJob::stage(&mut warp, contig, reads, k, cfg, 1).unwrap();
        construct_hash_table(&mut warp, &mut job, Dialect::Cuda).unwrap();
        mer_walk_kernel(&mut warp, &job).unwrap()
    }

    fn run_cpu(contig: &[u8], reads: &[Read], k: usize, cfg: WalkConfig) -> Walk {
        let ht = assemble::build_table(reads, k);
        mer_walk(&ht, contig, k, &cfg)
    }

    fn cfg() -> WalkConfig {
        WalkConfig { min_votes: 1, ..WalkConfig::default() }
    }

    #[test]
    fn gpu_walk_matches_cpu_unique_path() {
        let reads = vec![Read::with_uniform_qual(b"ACGTACGGTTACCA", b'I')];
        let contig = b"GGGGACGTACG";
        let gpu = run_gpu(contig, &reads, 4, cfg());
        let cpu = run_cpu(contig, &reads, 4, cfg());
        assert_eq!(gpu, cpu);
        assert!(!gpu.extension.is_empty());
    }

    #[test]
    fn gpu_walk_matches_cpu_on_fork() {
        let reads = vec![
            Read::with_uniform_qual(b"TACGTA", b'I'),
            Read::with_uniform_qual(b"TACGTC", b'I'),
        ];
        let gpu = run_gpu(b"TTACGT", &reads, 5, cfg());
        let cpu = run_cpu(b"TTACGT", &reads, 5, cfg());
        assert_eq!(gpu, cpu);
        assert_eq!(gpu.state, WalkState::Fork);
    }

    #[test]
    fn gpu_walk_matches_cpu_on_loop() {
        let reads = vec![Read::with_uniform_qual(b"AACCAACCAACC", b'I')];
        let gpu = run_gpu(b"GGAACC", &reads, 4, cfg());
        let cpu = run_cpu(b"GGAACC", &reads, 4, cfg());
        assert_eq!(gpu, cpu);
        assert_eq!(gpu.state, WalkState::Loop);
    }

    #[test]
    fn gpu_walk_max_len() {
        let reads = vec![Read::with_uniform_qual(b"AACCAACCAACC", b'I')];
        let short = WalkConfig { max_walk_len: 2, min_votes: 1, ..WalkConfig::default() };
        let gpu = run_gpu(b"GGAACC", &reads, 4, short);
        assert_eq!(gpu.state, WalkState::MaxLen);
        assert_eq!(gpu.extension.len(), 2);
    }

    #[test]
    fn walk_cost_is_single_lane() {
        let reads = vec![Read::with_uniform_qual(b"ACGTACGGTTACCA", b'I')];
        let mut warp = Warp::new(32, HierarchyConfig::tiny());
        let mut job = DeviceJob::stage(&mut warp, b"GGGGACGTACG", &reads, 4, cfg(), 1).unwrap();
        construct_hash_table(&mut warp, &mut job, Dialect::Cuda).unwrap();
        let before = warp.snapshot();
        let _ = mer_walk_kernel(&mut warp, &job).unwrap();
        let delta = warp.snapshot().since(&before);
        // All walk integer instructions ran with one active lane out of 32.
        assert!(delta.int_instructions > 0);
        assert!(
            delta.lane_utilization() < 0.05,
            "walk utilization should be ~1/32, got {}",
            delta.lane_utilization()
        );
    }

    #[test]
    fn watchdog_never_fires_on_terminating_walks() {
        // The budget formula over-approximates every terminating walk,
        // so none of the reference walks above can trip it.
        let cases: [(&[u8], &[u8], usize); 3] = [
            (b"GGGGACGTACG", b"ACGTACGGTTACCA", 4),
            (b"TTACGT", b"TACGTA", 5),
            (b"GGAACC", b"AACCAACCAACC", 4),
        ];
        for (contig, read, k) in cases {
            let reads = vec![Read::with_uniform_qual(read, b'I')];
            let mut warp = Warp::new(32, HierarchyConfig::tiny());
            let mut job = DeviceJob::stage(&mut warp, contig, &reads, k, cfg(), 1).unwrap();
            construct_hash_table(&mut warp, &mut job, Dialect::Cuda).unwrap();
            mer_walk_kernel(&mut warp, &job).unwrap();
        }
    }

    #[test]
    fn injected_watchdog_trips_deterministically() {
        let reads = vec![Read::with_uniform_qual(b"ACGTACGGTTACCA", b'I')];
        let mut warp = Warp::new(32, HierarchyConfig::tiny());
        let mut job = DeviceJob::stage(&mut warp, b"GGGGACGTACG", &reads, 4, cfg(), 1).unwrap();
        construct_hash_table(&mut warp, &mut job, Dialect::Cuda).unwrap();
        warp.inject(Fault::Watchdog);
        match mer_walk_kernel(&mut warp, &job) {
            Err(KernelFault::WalkBudgetExceeded { budget, spent }) => {
                assert_eq!(budget, 0, "injection zeroes the budget");
                assert!(spent > 0, "the tail-chunk loads precede the check");
            }
            other => panic!("expected WalkBudgetExceeded, got {other:?}"),
        }
    }

    #[test]
    fn watchdog_check_is_free() {
        // The watchdog must not perturb the modeled instruction stream:
        // a walk under an (unfired) watchdog spends exactly the same
        // instruction count as the counters predict from a twin run.
        let reads = vec![Read::with_uniform_qual(b"ACGTACGGTTACCA", b'I')];
        let run = || {
            let mut warp = Warp::new(32, HierarchyConfig::tiny());
            let mut job =
                DeviceJob::stage(&mut warp, b"GGGGACGTACG", &reads, 4, cfg(), 1).unwrap();
            construct_hash_table(&mut warp, &mut job, Dialect::Cuda).unwrap();
            let walk = mer_walk_kernel(&mut warp, &job).unwrap();
            (walk, warp.finish())
        };
        let (w1, c1) = run();
        let (w2, c2) = run();
        assert_eq!(w1, w2);
        assert_eq!(c1, c2);
    }
}
