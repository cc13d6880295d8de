//! Criterion benches for the sorting kernels: the BSU bitonic network,
//! chunk sorting, MSU+ merging, Dynamic Partial Sorting vs full re-sort,
//! and whole strategies in steady state.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use neo_sort::bitonic::{bitonic_sort, bsu_sort16};
use neo_sort::dps::{dynamic_partial_sort, DpsConfig};
use neo_sort::merge::{chunk_sort, merge_filtering};
use neo_sort::strategies::{SorterConfig, StrategyKind};
use neo_sort::{GaussianTable, TableEntry};

fn entries(n: usize, seed: u64) -> Vec<TableEntry> {
    let mut state = seed | 1;
    (0..n)
        .map(|i| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            TableEntry::new(i as u32, (state >> 33) as f32)
        })
        .collect()
}

fn bench_bitonic(c: &mut Criterion) {
    let mut group = c.benchmark_group("bitonic");
    let mut v16 = entries(16, 7);
    group.bench_function("bsu_sort16", |b| {
        b.iter(|| {
            bsu_sort16(black_box(&mut v16));
        })
    });
    for n in [64usize, 256, 1024] {
        group.bench_with_input(BenchmarkId::new("bitonic_sort", n), &n, |b, &n| {
            let template = entries(n, 11);
            b.iter_batched(
                || template.clone(),
                |mut v| bitonic_sort(black_box(&mut v)),
                criterion::BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

fn bench_chunk_and_merge(c: &mut Criterion) {
    let mut group = c.benchmark_group("chunk_merge");
    let chunk = entries(256, 3);
    group.bench_function("chunk_sort_256", |b| {
        b.iter(|| chunk_sort(black_box(&chunk)))
    });
    let mut a = entries(512, 5);
    let mut bb = entries(512, 9);
    a.sort_by_key(TableEntry::key);
    bb.sort_by_key(TableEntry::key);
    group.bench_function("merge_filtering_512_512", |b| {
        b.iter(|| merge_filtering(black_box(&a), black_box(&bb)))
    });
    group.finish();
}

fn bench_dps_vs_full(c: &mut Criterion) {
    let mut group = c.benchmark_group("dps_vs_full");
    for n in [1024usize, 8192] {
        // Nearly-sorted table (the reuse case).
        let mut base: Vec<TableEntry> = (0..n)
            .map(|i| TableEntry::new(i as u32, i as f32))
            .collect();
        for i in (0..n.saturating_sub(20)).step_by(17) {
            base.swap(i, i + 20);
        }
        group.bench_with_input(BenchmarkId::new("dynamic_partial_sort", n), &n, |b, _| {
            let cfg = DpsConfig::default();
            b.iter_batched(
                || GaussianTable::from_entries(base.clone()),
                |mut t| dynamic_partial_sort(black_box(&mut t), 0, &cfg),
                criterion::BatchSize::SmallInput,
            )
        });
        group.bench_with_input(BenchmarkId::new("full_std_sort", n), &n, |b, _| {
            b.iter_batched(
                || base.clone(),
                |mut v| v.sort_by_key(TableEntry::key),
                criterion::BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

fn bench_strategies(c: &mut Criterion) {
    let mut group = c.benchmark_group("strategies_steady_state");
    let ids: Vec<u32> = (0..4096).collect();
    let frame: Vec<(u32, f32)> = ids.iter().map(|&id| (id, id as f32)).collect();
    for (label, kind) in [
        ("reuse_update", StrategyKind::ReuseUpdate),
        ("full_resort", StrategyKind::FullResort),
        ("hierarchical", StrategyKind::Hierarchical),
    ] {
        group.bench_function(label, |b| {
            let mut sorter = kind.build(SorterConfig::default());
            sorter.begin_frame(0);
            sorter.order(&frame); // warm the table
            let mut next = 1;
            b.iter(|| {
                sorter.begin_frame(next);
                next += 1;
                sorter.order(black_box(&frame))
            })
        });
    }

    // A tile the size of the city capture's mean table (~360 entries)
    // whose depths drift and occasionally cross, with one ID swapped in
    // and out every few frames: the reuse-and-update kernel's steady
    // state, timed without the full benchmark.
    let frames: Vec<Vec<(u32, f32)>> = (0..64u32)
        .map(|f| {
            let t = f as f32 * 0.02;
            (0..360u32)
                .filter(|&id| id != f % 7 * 50)
                .map(|id| {
                    (
                        id,
                        10.0 + id as f32 * 0.1 + (id as f32 * 0.37 + t).sin() * 0.3,
                    )
                })
                .collect()
        })
        .collect();
    group.bench_function("reuse_update_drifting_360", |b| {
        let mut sorter = StrategyKind::ReuseUpdate.build(SorterConfig::default());
        let mut next = 0u64;
        for frame in &frames {
            sorter.begin_frame(next);
            next += 1;
            sorter.order(frame);
        }
        b.iter(|| {
            sorter.begin_frame(next);
            // Ping-pong over the sequence so the drift stays coherent.
            let i = (next % 126) as usize;
            let frame = &frames[if i < 64 { i } else { 126 - i }];
            next += 1;
            sorter.order(black_box(frame))
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_bitonic, bench_chunk_and_merge, bench_dps_vs_full, bench_strategies
}
criterion_main!(benches);
