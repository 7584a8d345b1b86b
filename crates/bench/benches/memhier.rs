//! Memory-hierarchy simulator throughput: how fast the substrate itself
//! processes sector streams (this bounds end-to-end simulation speed).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use memhier::{coalesce_sectors, AccessKind, CacheConfig, HierarchyConfig, MemHierarchy};
use std::hint::black_box;

fn hier() -> MemHierarchy {
    MemHierarchy::new(HierarchyConfig {
        l1: CacheConfig::new(24 * 1024, 128, 4),
        l2: CacheConfig::new(48 * 1024, 128, 16),
    })
}

fn bench_sequential_stream(c: &mut Criterion) {
    let mut g = c.benchmark_group("memhier");
    let n = 10_000u64;
    g.throughput(Throughput::Elements(n));
    g.bench_function("sequential_4B_reads", |b| {
        b.iter(|| {
            let mut h = hier();
            for i in 0..n {
                let acc = coalesce_sectors([(i * 4, 4u32)]);
                h.access(black_box(&acc), AccessKind::Read);
            }
            h.stats().hbm_bytes()
        })
    });
    g.bench_function("random_4B_reads", |b| {
        b.iter(|| {
            let mut h = hier();
            let mut x = 0x2545F4914F6CDD1Du64;
            for _ in 0..n {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let acc = coalesce_sectors([((x % (1 << 22)) & !3, 4u32)]);
                h.access(black_box(&acc), AccessKind::Read);
            }
            h.stats().hbm_bytes()
        })
    });
    g.bench_function("warp_coalesce_32_lanes", |b| {
        b.iter(|| {
            let acc = coalesce_sectors((0..32u64).map(|l| (l * 4, 4u32)));
            black_box(acc.transactions())
        })
    });
    // Hash-probe shaped lanes: 32 addresses in no order, so the coalescer
    // must sort and dedup (contiguous lanes above never do).
    let scattered: Vec<(u64, u32)> =
        (0..32u64).map(|l| ((l * 0x9E37_79B9 % 4099) * 64 + (l % 3) * 4, 4u32)).collect();
    g.bench_function("warp_coalesce_32_scattered", |b| {
        b.iter(|| {
            let acc = coalesce_sectors(black_box(&scattered).iter().copied());
            black_box(acc.transactions())
        })
    });
    g.bench_function("access_atomic_32_scattered", |b| {
        let acc = coalesce_sectors(scattered.iter().copied());
        let mut h = hier();
        b.iter(|| h.access_atomic(black_box(&acc)))
    });
    g.finish();
}

criterion_group!(benches, bench_sequential_stream);
criterion_main!(benches);
