//! Property-based tests on the sorting substrate: the invariants Neo's
//! hardware relies on must hold for arbitrary inputs.

use neo_sort::bitonic::bitonic_sort;
use neo_sort::dps::{chunk_ranges, dynamic_partial_sort, DpsConfig};
use neo_sort::hierarchical::{hierarchical_sort, HierarchicalConfig};
use neo_sort::merge::{chunk_sort, chunk_sort_keeping, merge_filtering, merge_keeping};
use neo_sort::radix::radix_sort;
use neo_sort::strategies::{FrameOrder, StrategyKind};
use neo_sort::{GaussianTable, TableEntry};
use proptest::prelude::*;

/// The kernels as they were before the allocation-free rewrite: the
/// oracle the library's kernels must match in output and cost.
#[path = "../crates/sort/tests/reference/mod.rs"]
mod reference;

/// Builds `kind` and orders `frames` through it, numbering frames from 0.
fn run_frames(kind: StrategyKind, frames: &[&[(u32, f32)]]) -> Vec<FrameOrder> {
    let mut strategy = kind.build(Default::default());
    (0u64..)
        .zip(frames)
        .map(|(f, input)| {
            strategy.begin_frame(f);
            strategy.order(input)
        })
        .collect()
}

fn arb_entries(max_len: usize) -> impl Strategy<Value = Vec<TableEntry>> {
    prop::collection::vec(
        (0u32..10_000, -1000.0f32..1000.0, any::<bool>()),
        0..max_len,
    )
    .prop_map(|v| {
        v.into_iter()
            .map(|(id, depth, valid)| TableEntry { id, depth, valid })
            .collect()
    })
}

/// Entries whose depths are drawn from the pathological corners of the
/// f32 space: ±NaN, ±inf, ±0.0, subnormals, and huge magnitudes. These
/// must sort identically (IEEE total order by `TableEntry::key`) through
/// every kernel in the crate.
fn arb_pathological_entries(max_len: usize) -> impl Strategy<Value = Vec<TableEntry>> {
    let depth = (0usize..10, -4.0f32..4.0).prop_map(|(pick, fallback)| match pick {
        0 => f32::NAN,
        1 => -f32::NAN,
        2 => f32::INFINITY,
        3 => f32::NEG_INFINITY,
        4 => 0.0,
        5 => -0.0,
        6 => f32::MIN_POSITIVE / 2.0, // subnormal
        7 => -1e38,
        8 => 1e38,
        _ => fallback,
    });
    prop::collection::vec((0u32..64, depth), 0..max_len).prop_map(|v| {
        v.into_iter()
            .map(|(id, depth)| TableEntry::new(id, depth))
            .collect()
    })
}

fn is_sorted(v: &[TableEntry]) -> bool {
    v.windows(2).all(|w| w[0].key() <= w[1].key())
}

/// Key-plus-depth-bits view: equal iff the orderings agree bit-for-bit
/// (NaN payloads included — `PartialEq` on depth would treat them as
/// always-unequal).
fn key_bits(v: &[TableEntry]) -> Vec<(u32, u32, u32)> {
    v.iter()
        .map(|e| (e.key().0, e.id, e.depth.to_bits()))
        .collect()
}

proptest! {
    #[test]
    fn bitonic_sorts_any_input(mut entries in arb_entries(300)) {
        let mut expect: Vec<u32> = entries.iter().map(|e| e.id).collect();
        bitonic_sort(&mut entries);
        prop_assert!(is_sorted(&entries));
        // Multiset of IDs preserved.
        let mut got: Vec<u32> = entries.iter().map(|e| e.id).collect();
        expect.sort_unstable();
        got.sort_unstable();
        prop_assert_eq!(expect, got);
    }

    #[test]
    fn bitonic_matches_the_reference_network(entries in arb_entries(300)) {
        let mut got = entries.clone();
        let mut want = entries;
        let got_cost = bitonic_sort(&mut got);
        let want_cost = reference::bitonic_sort(&mut want);
        prop_assert_eq!(reference::bits(&got), reference::bits(&want));
        prop_assert_eq!(got_cost, want_cost);
    }

    #[test]
    fn chunk_sorts_match_the_reference_kernel(
        entries in arb_entries(300),
        pathological in arb_pathological_entries(200),
    ) {
        for input in [&entries, &pathological] {
            let (got, got_cost) = chunk_sort(input);
            let (want, want_cost) = reference::chunk_sort_impl(input, true);
            prop_assert_eq!(reference::bits(&got), reference::bits(&want));
            prop_assert_eq!(got_cost, want_cost);
            let (got, got_cost) = chunk_sort_keeping(input);
            let (want, want_cost) = reference::chunk_sort_impl(input, false);
            prop_assert_eq!(reference::bits(&got), reference::bits(&want));
            prop_assert_eq!(got_cost, want_cost);
        }
    }

    #[test]
    fn merges_match_the_reference_merge(
        mut a in arb_entries(120),
        mut b in arb_entries(120),
        presort in any::<bool>(),
    ) {
        // Sorted streams and, like an approximately sorted table after one
        // DPS pass, unsorted ones.
        if presort {
            a.sort_by_key(TableEntry::key);
            b.sort_by_key(TableEntry::key);
        }
        let (got, got_cost) = merge_filtering(&a, &b);
        let (want, want_cost) = reference::merge_impl(&a, &b, true);
        prop_assert_eq!(reference::bits(&got), reference::bits(&want));
        prop_assert_eq!(got_cost, want_cost);
        let (got, got_cost) = merge_keeping(&a, &b);
        let (want, want_cost) = reference::merge_impl(&a, &b, false);
        prop_assert_eq!(reference::bits(&got), reference::bits(&want));
        prop_assert_eq!(got_cost, want_cost);
    }

    #[test]
    fn merge_filtering_output_is_sorted_and_valid(
        mut a in arb_entries(120),
        mut b in arb_entries(120),
    ) {
        a.sort_by_key(TableEntry::key);
        b.sort_by_key(TableEntry::key);
        let (out, _) = merge_filtering(&a, &b);
        prop_assert!(is_sorted(&out));
        prop_assert!(out.iter().all(|e| e.valid));
        let expected = a.iter().chain(&b).filter(|e| e.valid).count();
        prop_assert_eq!(out.len(), expected);
    }

    #[test]
    fn merge_keeping_preserves_everything(
        mut a in arb_entries(120),
        mut b in arb_entries(120),
    ) {
        a.sort_by_key(TableEntry::key);
        b.sort_by_key(TableEntry::key);
        let (out, _) = merge_keeping(&a, &b);
        prop_assert!(is_sorted(&out));
        prop_assert_eq!(out.len(), a.len() + b.len());
    }

    #[test]
    fn chunk_sort_equals_full_sort_plus_filter(entries in arb_entries(300)) {
        let (out, _) = chunk_sort(&entries);
        let mut expect: Vec<TableEntry> =
            entries.iter().copied().filter(|e| e.valid).collect();
        expect.sort_by_key(TableEntry::key);
        let got_keys: Vec<_> = out.iter().map(TableEntry::key).collect();
        let want_keys: Vec<_> = expect.iter().map(TableEntry::key).collect();
        prop_assert_eq!(got_keys, want_keys);
    }

    #[test]
    fn chunk_ranges_partition_exactly(
        len in 0usize..5000,
        frame in 0u64..8,
        chunk in 2usize..600,
    ) {
        let ranges = chunk_ranges(len, frame, chunk);
        let covered: usize = ranges.iter().map(|(s, e)| e - s).sum();
        prop_assert_eq!(covered, len);
        for w in ranges.windows(2) {
            prop_assert_eq!(w[0].1, w[1].0);
        }
        for &(s, e) in &ranges {
            prop_assert!(e > s);
            prop_assert!(e - s <= chunk);
        }
    }

    #[test]
    fn dps_never_loses_entries_and_reduces_disorder(
        entries in arb_entries(600),
        frames in 1u64..6,
    ) {
        let mut table = GaussianTable::from_entries(entries.clone());
        let before_inversions = table.inversions();
        let cfg = DpsConfig { chunk_size: 64, passes: 1 };
        for f in 0..frames {
            dynamic_partial_sort(&mut table, f, &cfg);
        }
        prop_assert_eq!(table.len(), entries.len());
        prop_assert!(table.inversions() <= before_inversions,
            "DPS must never increase disorder");
    }

    #[test]
    fn dps_converges_for_bounded_displacement(n in 1usize..800) {
        // Sorted table with local perturbations ≤ 16 positions: must be
        // fully sorted after two alternating-parity passes (chunk 64).
        let mut depths: Vec<f32> = (0..n).map(|i| i as f32).collect();
        for i in (0..n.saturating_sub(16)).step_by(13) {
            depths.swap(i, i + 16);
        }
        let mut table = GaussianTable::from_entries(
            depths.into_iter().enumerate().map(|(i, d)| TableEntry::new(i as u32, d)),
        );
        let cfg = DpsConfig { chunk_size: 64, passes: 1 };
        dynamic_partial_sort(&mut table, 0, &cfg);
        dynamic_partial_sort(&mut table, 1, &cfg);
        prop_assert!(table.is_sorted());
    }

    #[test]
    fn all_kernels_agree_with_comparison_sort_on_pathological_depths(
        entries in arb_pathological_entries(200),
    ) {
        // The reference: the comparison sort by the documented total-order
        // key (what `GaussianTable::sort_full` and `sort_by_key` run).
        let mut expect = entries.clone();
        expect.sort_by_key(TableEntry::key);
        let want = key_bits(&expect);

        // GPU-model LSD radix sort (stable on the same composite key).
        let (radix, _) = radix_sort(&entries);
        prop_assert_eq!(key_bits(&radix), want.clone(), "radix diverged");

        // Bitonic network (pads with the reserved maximum key — the old
        // +inf padding lost NaN entries).
        let mut bitonic = entries.clone();
        bitonic_sort(&mut bitonic);
        prop_assert_eq!(key_bits(&bitonic), want.clone(), "bitonic diverged");

        // BSU+MSU chunk sort (all entries valid here, so no filtering).
        let (chunked, _) = chunk_sort(&entries);
        prop_assert_eq!(key_bits(&chunked), want.clone(), "chunk_sort diverged");

        // GSCore-style hierarchical sort.
        let (hier, _) = hierarchical_sort(&entries, &HierarchicalConfig::default());
        prop_assert_eq!(key_bits(&hier), want, "hierarchical diverged");
    }

    #[test]
    fn full_resort_and_hierarchical_strategies_agree_on_pathological_depths(
        entries in arb_pathological_entries(120),
    ) {
        // Strategy level: the two exact strategies must produce identical
        // blend orders even for NaN/infinite depths.
        let input: Vec<(u32, f32)> =
            entries.iter().map(|e| (e.id, e.depth)).collect();
        let a = run_frames(StrategyKind::FullResort, &[&input]);
        let b = run_frames(StrategyKind::Hierarchical, &[&input]);
        prop_assert_eq!(key_bits(&a[0].order), key_bits(&b[0].order));
    }

    #[test]
    fn reuse_update_membership_matches_input(
        ids in prop::collection::btree_set(0u32..500, 1..120),
    ) {
        // After two frames with the same membership, the table contains
        // exactly the input IDs (duplicates removed, stale pruned).
        let frame: Vec<(u32, f32)> =
            ids.iter().map(|&id| (id, id as f32 * 0.5)).collect();
        let out = run_frames(StrategyKind::ReuseUpdate, &[&frame, &frame]);
        let mut got: Vec<u32> =
            out[1].order.iter().filter(|e| e.valid).map(|e| e.id).collect();
        got.sort_unstable();
        got.dedup();
        let want: Vec<u32> = ids.into_iter().collect();
        prop_assert_eq!(got, want);
    }
}
