//! Differential test of the reuse-and-update hot path against the code it
//! replaced (kept in `reference/mod.rs`): orders, tables and every
//! `SortCost` counter must be identical frame by frame, and the
//! closed-form cost of an already sorted chunk must equal what the kernel
//! counts for it.

#![allow(
    clippy::cast_possible_truncation,
    reason = "test fixtures index small generated frames with bare casts"
)]

mod reference;

use neo_sort::dps::{chunk_ranges, dynamic_partial_sort, DpsConfig};
use neo_sort::merge::{chunk_sort, chunk_sort_keeping, sorted_chunk_cost};
use neo_sort::strategies::{ReuseUpdateStrategy, SorterConfig, SortingStrategy};
use neo_sort::{GaussianTable, SortCost, TableEntry, ENTRY_BYTES};
use proptest::prelude::*;
use reference::{bits, ReferenceReuseUpdate};

/// SplitMix64: expands one generated seed into a whole frame sequence.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }
}

/// Depths from the corners of the key space, including the pad key's
/// quiet-NaN pattern.
fn special_depth(mix: &mut Mix) -> f32 {
    match mix.below(7) {
        0 => f32::NAN,
        1 => -f32::NAN,
        2 => f32::INFINITY,
        3 => f32::NEG_INFINITY,
        4 => 0.0,
        5 => -0.0,
        _ => f32::from_bits(0x7FFF_FFFF),
    }
}

/// A coherent tile sequence: a pool of IDs whose depths drift (and
/// sometimes cross) every frame, with churn at the pool's edges. Frames
/// may be empty, reordered, duplicated, or carry pathological depths.
fn frames(seed: u64, pool: u32, count: usize) -> Vec<Vec<(u32, f32)>> {
    let mut mix = Mix(seed);
    let base: Vec<f32> = (0..pool)
        .map(|id| id as f32 * 0.5 + (mix.below(64) as f32) * 0.25)
        .collect();
    let churn = mix.below(20);
    let jitter = [0.0f32, 0.05, 2.0, 50.0][mix.below(4) as usize];
    let mut out = Vec::with_capacity(count);
    for f in 0..count {
        if mix.chance(8) {
            out.push(Vec::new());
            continue;
        }
        let mut frame: Vec<(u32, f32)> = Vec::new();
        for id in 0..pool {
            if mix.chance(churn) {
                continue;
            }
            let drift = (f as f32) * jitter * ((id % 7) as f32 - 3.0) * 0.1;
            let depth = if mix.chance(2) {
                special_depth(&mut mix)
            } else {
                base[id as usize] + drift
            };
            frame.push((id, depth));
        }
        if mix.chance(10) {
            // The reserved maximum key as a real entry.
            frame.push((u32::MAX, f32::from_bits(0x7FFF_FFFF)));
        }
        if mix.chance(25) {
            // Custom caller: duplicate IDs, then either shuffled or sorted
            // by ID with the duplicates adjacent (not strictly ascending).
            for _ in 0..=mix.below(4) {
                if let Some(&(id, _)) = frame.get(mix.below(frame.len().max(1) as u64) as usize) {
                    frame.push((id, mix.below(1000) as f32));
                }
            }
            if mix.chance(50) {
                frame.sort_by_key(|&(id, _)| id);
            } else {
                for i in (1..frame.len()).rev() {
                    frame.swap(i, mix.below(i as u64 + 1) as usize);
                }
            }
        }
        out.push(frame);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn reuse_update_matches_the_btree_reference(
        seed in any::<u64>(),
        pool in 0u32..420,
        count in 1usize..9,
        chunk_size in 2usize..=300,
        passes in 1u32..=3,
        deferred in any::<bool>(),
    ) {
        let config = SorterConfig {
            dps: DpsConfig { chunk_size, passes },
            deferred_depth_update: deferred,
        };
        let mut strategy = ReuseUpdateStrategy::new(config);
        let mut reference = ReferenceReuseUpdate::new(config);
        for (f, input) in frames(seed, pool, count).iter().enumerate() {
            let f = f as u64;
            strategy.begin_frame(f);
            let got = strategy.order(input);
            let want = reference.order(f, input);
            prop_assert_eq!(bits(&got.order), bits(&want.order), "order, frame {}", f);
            prop_assert_eq!(got.cost, want.cost, "cost, frame {}", f);
            prop_assert_eq!(got.incoming, want.incoming, "incoming, frame {}", f);
            prop_assert_eq!(got.outgoing, want.outgoing, "outgoing, frame {}", f);
            let table = strategy.table().map(|t| bits(t.entries()));
            prop_assert_eq!(table, Some(bits(reference.table.entries())), "table, frame {}", f);
        }
    }

    #[test]
    fn chunk_kernels_match_the_allocating_reference(
        seed in any::<u64>(),
        len in 0usize..300,
        sortedness in 0u64..4,
    ) {
        // Random, nearly sorted and sorted-with-ties chunks, some entries
        // invalid, some on the corners of the key space.
        let mut mix = Mix(seed);
        let entries: Vec<TableEntry> = (0..len)
            .map(|i| {
                let depth = match sortedness {
                    0 => mix.below(1000) as f32,
                    1 => i as f32 + if mix.chance(5) { 40.0 } else { 0.0 },
                    2 => (i / 3) as f32,
                    _ => if mix.chance(20) { special_depth(&mut mix) } else { i as f32 },
                };
                let id = match sortedness {
                    2 => (i % 5) as u32,
                    // The reserved maximum key as a real entry.
                    3 if depth.to_bits() == 0x7FFF_FFFF && mix.chance(50) => u32::MAX,
                    _ => i as u32,
                };
                TableEntry { id, depth, valid: !mix.chance(10) }
            })
            .collect();
        let (got, got_cost) = chunk_sort(&entries);
        let (want, want_cost) = reference::chunk_sort_impl(&entries, true);
        prop_assert_eq!(bits(&got), bits(&want));
        prop_assert_eq!(got_cost, want_cost);
        let (got, got_cost) = chunk_sort_keeping(&entries);
        let (want, want_cost) = reference::chunk_sort_impl(&entries, false);
        prop_assert_eq!(bits(&got), bits(&want));
        prop_assert_eq!(got_cost, want_cost);
    }
}

#[test]
fn sorted_chunk_closed_form_equals_the_kernel_count() {
    for len in 0..=600usize {
        let ascending: Vec<TableEntry> = (0..len)
            .map(|i| TableEntry::new(i as u32, i as f32 * 0.5 - 10.0))
            .collect();
        let closed = sorted_chunk_cost(len);
        let (_, reference_cost) = reference::chunk_sort_impl(&ascending, false);
        assert_eq!(closed, reference_cost, "len {len}");
        let (out, kernel_cost) = chunk_sort_keeping(&ascending);
        assert_eq!(kernel_cost, reference_cost, "len {len}");
        assert_eq!(bits(&out), bits(&ascending), "len {len}");

        for chunk_size in [2usize, 16, 17, 256, 300] {
            let config = DpsConfig {
                chunk_size,
                passes: 1,
            };
            for frame in 0..2u64 {
                let mut fast = GaussianTable::from_entries(ascending.clone());
                let mut slow = fast.clone();
                let got = dynamic_partial_sort(&mut fast, frame, &config);
                let want = reference::dynamic_partial_sort(&mut slow, frame, &config);
                assert_eq!(got, want, "len {len}, chunk {chunk_size}, frame {frame}");
                assert_eq!(bits(fast.entries()), bits(slow.entries()));

                let mut closed = SortCost::new();
                for (start, end) in chunk_ranges(len, frame, chunk_size) {
                    closed += sorted_chunk_cost(end - start);
                    let bytes = ((end - start) * ENTRY_BYTES) as u64;
                    closed.bytes_read += bytes;
                    closed.bytes_written += bytes;
                }
                closed.passes = 1;
                assert_eq!(got, closed, "len {len}, chunk {chunk_size}, frame {frame}");
            }
        }
    }
}
