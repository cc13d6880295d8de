//! GSCore-style hierarchical sorting: a functional implementation of the
//! baseline Neo is compared against in Figure 19.
//!
//! Hierarchical sorting splits the work into a **coarse** pass that
//! scatters entries into `2^k` depth buckets (one read + one write of the
//! table) and a **fine** pass that sorts each bucket independently with
//! the chunk machinery (another read + write). Buckets bound the range a
//! fine sort must handle, letting small on-chip sorters process large
//! tables — at the cost of a second full off-chip pass, which is exactly
//! the traffic Dynamic Partial Sorting avoids.

use crate::merge::{sort_chunk, ChunkScratch};
use crate::{SortCost, TableEntry, ENTRY_BYTES};

/// Configuration for hierarchical sorting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierarchicalConfig {
    /// Number of coarse buckets as a power of two (GSCore uses a small
    /// bucket array indexed by the depth key's top bits).
    pub bucket_bits: u32,
    /// Fine-sort chunk capacity (on-chip buffer size in entries).
    pub chunk_size: usize,
}

impl Default for HierarchicalConfig {
    fn default() -> Self {
        Self {
            bucket_bits: 6,
            chunk_size: 256,
        }
    }
}

/// Sorts `entries` with coarse bucketing + fine per-bucket sorting.
///
/// The output is exactly sorted by [`TableEntry::key`]. The returned
/// [`SortCost`] charges the two off-chip passes (coarse scatter, fine
/// sort) plus extra passes for buckets that overflow the on-chip chunk
/// and must be merged hierarchically.
///
/// # Panics
///
/// Panics when `bucket_bits` exceeds 16 (a 65536-entry bucket array no
/// longer resembles on-chip metadata).
pub fn hierarchical_sort(
    entries: &[TableEntry],
    config: &HierarchicalConfig,
) -> (Vec<TableEntry>, SortCost) {
    assert!(config.bucket_bits <= 16, "bucket_bits must be ≤ 16");
    let mut cost = SortCost::new();
    if entries.is_empty() {
        return (Vec::new(), cost);
    }
    let n_buckets = 1usize << config.bucket_bits;
    let table_bytes = neo_math::num::u64_from_usize(entries.len() * ENTRY_BYTES);

    // Coarse pass: bucket by the top bits of the order-preserving depth
    // key. One read + one write of the table.
    let mut buckets: Vec<Vec<TableEntry>> = vec![Vec::new(); n_buckets];
    for e in entries {
        let (depth_key, _) = e.key();
        let b = if config.bucket_bits == 0 {
            0
        } else {
            neo_math::num::usize_from_u32(depth_key >> (32 - config.bucket_bits))
        };
        buckets[b].push(*e);
        cost.moves += 1;
    }
    cost.bytes_read += table_bytes;
    cost.bytes_written += table_bytes;
    cost.passes += 1;

    // Fine pass: sort each bucket. Buckets that fit in one chunk sort
    // entirely on-chip; larger buckets pay extra merge passes (log of the
    // overflow factor), mirroring how a fixed-capacity sorter spills.
    let mut out = Vec::with_capacity(entries.len());
    let mut extra_pass_bytes = 0u64;
    let mut scratch = ChunkScratch::default();
    for mut bucket in buckets {
        if bucket.is_empty() {
            continue;
        }
        if bucket.len() > config.chunk_size {
            let overflow = (bucket.len() as f64 / config.chunk_size as f64)
                .log2()
                .ceil();
            #[expect(
                clippy::cast_possible_truncation,
                clippy::cast_sign_loss,
                reason = "overflow = ceil(log2(len/chunk)) is a small non-negative f64; the saturating f64->u64 cast is exact and floats have no try_from"
            )]
            let extra_passes = overflow as u64;
            extra_pass_bytes +=
                neo_math::num::u64_from_usize(bucket.len() * ENTRY_BYTES) * extra_passes;
        }
        cost += sort_chunk(&mut bucket, false, &mut scratch).1;
        out.extend(bucket);
    }
    cost.bytes_read += table_bytes + extra_pass_bytes;
    cost.bytes_written += table_bytes + extra_pass_bytes;
    cost.passes += 1;

    (out, cost)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entries(n: usize, seed: u64) -> Vec<TableEntry> {
        let mut state = seed | 1;
        (0..n)
            .map(|i| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                // Mix of negative and positive depths.
                TableEntry::new(i as u32, ((state >> 33) as f32) / 1e6 - 1000.0)
            })
            .collect()
    }

    fn is_sorted(v: &[TableEntry]) -> bool {
        v.windows(2).all(|w| w[0].key() <= w[1].key())
    }

    #[test]
    fn matches_full_sort() {
        for n in [0usize, 1, 7, 100, 1000, 5000] {
            let input = entries(n, 42);
            let (out, _) = hierarchical_sort(&input, &HierarchicalConfig::default());
            assert_eq!(out.len(), n);
            assert!(is_sorted(&out), "n = {n}");
            let mut expect = input.clone();
            expect.sort_by_key(TableEntry::key);
            let got: Vec<_> = out.iter().map(TableEntry::key).collect();
            let want: Vec<_> = expect.iter().map(TableEntry::key).collect();
            assert_eq!(got, want, "n = {n}");
        }
    }

    #[test]
    fn charges_two_base_passes() {
        let input = entries(512, 7);
        let (_, cost) = hierarchical_sort(&input, &HierarchicalConfig::default());
        assert_eq!(cost.passes, 2);
        // At least 2 read+write passes over the table.
        assert!(cost.bytes_read >= 2 * 512 * ENTRY_BYTES as u64);
    }

    #[test]
    fn overflowing_buckets_cost_extra() {
        // One bucket (bucket_bits 0) of 4096 entries with a 256 chunk:
        // overflow factor log2(16) = 4 extra passes.
        let input = entries(4096, 3);
        let cfg = HierarchicalConfig {
            bucket_bits: 0,
            chunk_size: 256,
        };
        let (_, cost) = hierarchical_sort(&input, &cfg);
        let base = 2 * 4096 * ENTRY_BYTES as u64;
        assert!(cost.bytes_read > base, "{} > {base}", cost.bytes_read);
    }

    #[test]
    fn more_buckets_reduce_fine_cost() {
        let input = entries(8192, 11);
        let coarse = HierarchicalConfig {
            bucket_bits: 2,
            chunk_size: 256,
        };
        let fine = HierarchicalConfig {
            bucket_bits: 8,
            chunk_size: 256,
        };
        let (_, c_coarse) = hierarchical_sort(&input, &coarse);
        let (_, c_fine) = hierarchical_sort(&input, &fine);
        assert!(
            c_fine.bytes_total() <= c_coarse.bytes_total(),
            "finer bucketing must not increase traffic: {} vs {}",
            c_fine.bytes_total(),
            c_coarse.bytes_total()
        );
    }

    #[test]
    fn preserves_invalid_entries() {
        let mut input = entries(100, 5);
        input[3].valid = false;
        let (out, _) = hierarchical_sort(&input, &HierarchicalConfig::default());
        assert_eq!(out.len(), 100);
        assert_eq!(out.iter().filter(|e| !e.valid).count(), 1);
    }

    #[test]
    #[should_panic(expected = "bucket_bits")]
    fn oversized_bucket_bits_rejected() {
        let _ = hierarchical_sort(
            &[],
            &HierarchicalConfig {
                bucket_bits: 20,
                chunk_size: 256,
            },
        );
    }
}
