//! Dynamic Partial Sorting (the paper's Algorithm 1).
//!
//! The Gaussian table inherited from the previous frame is *almost*
//! sorted, so instead of a full (multi-pass, bandwidth-hungry) sort, Neo
//! splits the table into chunks that fit in on-chip memory, sorts each
//! chunk locally, and writes it back — a **single off-chip pass**.
//!
//! Fixed chunk boundaries would trap entries that need to cross them
//! (Figure 9a), so on alternating frames the boundaries are shifted by
//! half a chunk (Figure 9b): the first chunk covers only `C/2` entries,
//! and subsequent chunks are offset accordingly. Over a few frames every
//! entry can migrate to its correct position.
//!
//! The pseudocode in the paper advances `range.start` by `C` from a
//! half-chunk first range, which as written leaves gaps; we implement the
//! contiguous-coverage interpretation that Figure 9 depicts (chunks
//! `[0, C/2), [C/2, C/2 + C), …` on even frames).

use crate::bitonic::strictly_ascending;
use crate::merge::{sort_chunk, sorted_chunk_cost, ChunkScratch};
use crate::{GaussianTable, SortCost, ENTRY_BYTES};

/// Configuration for Dynamic Partial Sorting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DpsConfig {
    /// Chunk capacity in entries (paper: 256, sized to on-chip buffers).
    pub chunk_size: usize,
    /// Number of off-chip passes per frame (paper: 1 — more passes trade
    /// bandwidth for faster order recovery, Section 4.3). At most 16;
    /// [`DpsConfig::validate`] rejects more.
    pub passes: u32,
}

/// The most DPS passes one frame may run. Each pass walks the whole
/// table, so the count bounds frame time; 16 covers the paper's single
/// pass and the 1–4 pass ablation with room to spare.
const MAX_PASSES: u32 = 16;

impl Default for DpsConfig {
    fn default() -> Self {
        Self {
            chunk_size: 256,
            passes: 1,
        }
    }
}

impl DpsConfig {
    /// Checks the parameters, returning a description of the first
    /// problem found: a `chunk_size` below 2, or more than 16 `passes`.
    /// `neo-core`'s engine builder surfaces this as an `InvalidConfig`
    /// error at build time instead of panicking deep in the sorting
    /// substrate or running a frame that never finishes.
    pub fn validate(&self) -> Result<(), String> {
        if self.chunk_size < 2 {
            return Err(format!(
                "DPS chunk_size must be at least 2, got {}",
                self.chunk_size
            ));
        }
        if self.passes > MAX_PASSES {
            return Err(format!(
                "DPS passes must be at most {MAX_PASSES}, got {}",
                self.passes
            ));
        }
        Ok(())
    }
}

/// Chunk boundaries for a table of `len` entries at frame `frame_index`.
///
/// Odd frames use aligned chunks `[0, C), [C, 2C), …`; even frames shift
/// boundaries by half a chunk (`[0, C/2), [C/2, 3C/2), …`) so entries can
/// cross the other parity's boundaries.
///
/// A `chunk_size` below 2 cannot interleave (and 0 would never advance),
/// so it is clamped to 2; reject such configurations up front with
/// [`DpsConfig::validate`].
pub fn chunk_ranges(len: usize, frame_index: u64, chunk_size: usize) -> Vec<(usize, usize)> {
    chunk_bounds(len, frame_index, chunk_size).collect()
}

/// [`chunk_ranges`] without the allocation.
fn chunk_bounds(
    len: usize,
    frame_index: u64,
    chunk_size: usize,
) -> impl Iterator<Item = (usize, usize)> {
    let chunk_size = chunk_size.max(2);
    let first = if frame_index % 2 == 1 {
        chunk_size
    } else {
        chunk_size / 2
    };
    let mut start = 0usize;
    std::iter::from_fn(move || {
        if start >= len {
            return None;
        }
        let end = if start == 0 {
            first
        } else {
            start + chunk_size
        }
        .min(len);
        let range = (start, end);
        start = end;
        Some(range)
    })
}

/// Applies one frame of Dynamic Partial Sorting to `table` in place.
///
/// Sorts each chunk locally by the entries' *stored* keys (which may be
/// one frame stale under deferred depth updates — that is by design).
/// Returns the cost: each pass reads and writes the whole table exactly
/// once, which is the bandwidth win over global sorting.
pub fn dynamic_partial_sort(
    table: &mut GaussianTable,
    frame_index: u64,
    config: &DpsConfig,
) -> SortCost {
    dps_with_scratch(table, frame_index, config, &mut ChunkScratch::default())
}

/// [`dynamic_partial_sort`] with caller-owned kernel buffers.
///
/// A chunk whose keys are already strictly ascending (the common case on
/// temporally coherent tables) is left in place and charged
/// [`sorted_chunk_cost`], exactly what the kernel would count for it.
pub(crate) fn dps_with_scratch(
    table: &mut GaussianTable,
    frame_index: u64,
    config: &DpsConfig,
    scratch: &mut ChunkScratch,
) -> SortCost {
    let mut cost = SortCost::new();
    for pass in 0..config.passes {
        // Alternate boundary phase across *passes* too, so multi-pass
        // configurations converge faster.
        let phase = frame_index + u64::from(pass);
        for (start, end) in chunk_bounds(table.len(), phase, config.chunk_size) {
            let chunk = &mut table.entries_mut()[start..end];
            cost += if strictly_ascending(chunk) {
                sorted_chunk_cost(chunk.len())
            } else {
                sort_chunk(chunk, false, scratch).1
            };
            let bytes = neo_math::num::u64_from_usize((end - start) * ENTRY_BYTES);
            cost.bytes_read += bytes;
            cost.bytes_written += bytes;
        }
        cost.passes += 1;
    }
    cost
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TableEntry;

    fn table_from(depths: Vec<f32>) -> GaussianTable {
        GaussianTable::from_entries(
            depths
                .into_iter()
                .enumerate()
                .map(|(i, d)| TableEntry::new(i as u32, d)),
        )
    }

    #[test]
    fn odd_frame_ranges_are_aligned() {
        assert_eq!(chunk_ranges(10, 1, 4), vec![(0, 4), (4, 8), (8, 10)]);
        assert_eq!(chunk_ranges(8, 3, 4), vec![(0, 4), (4, 8)]);
    }

    #[test]
    fn even_frame_ranges_are_half_shifted() {
        assert_eq!(chunk_ranges(10, 0, 4), vec![(0, 2), (2, 6), (6, 10)]);
        assert_eq!(chunk_ranges(3, 2, 4), vec![(0, 2), (2, 3)]);
    }

    #[test]
    fn ranges_cover_exactly() {
        for len in [0usize, 1, 5, 255, 256, 257, 1000] {
            for frame in 0..4u64 {
                let ranges = chunk_ranges(len, frame, 256);
                let covered: usize = ranges.iter().map(|(s, e)| e - s).sum();
                assert_eq!(covered, len, "len={len} frame={frame}");
                for w in ranges.windows(2) {
                    assert_eq!(w[0].1, w[1].0, "gap at len={len} frame={frame}");
                }
            }
        }
    }

    #[test]
    fn single_pass_sorts_locally() {
        // Entries displaced within one chunk get fixed in a single pass.
        let mut depths: Vec<f32> = (0..256).map(|i| i as f32).collect();
        depths.swap(10, 20);
        depths.swap(100, 90);
        let mut t = table_from(depths);
        dynamic_partial_sort(&mut t, 1, &DpsConfig::default());
        assert!(t.is_sorted());
    }

    #[test]
    fn fixed_boundaries_trap_entries_interleaving_frees_them() {
        // An entry 300 positions from home cannot cross a 256-entry chunk
        // boundary in one aligned pass, but alternating passes free it.
        let mut depths: Vec<f32> = (0..512).map(|i| i as f32).collect();
        depths.swap(0, 400);
        let mut t = table_from(depths.clone());

        // Frame parity fixed at 1 (aligned chunks only): never converges.
        let cfg = DpsConfig::default();
        for _ in 0..6 {
            dynamic_partial_sort(&mut t, 1, &cfg);
        }
        assert!(!t.is_sorted(), "aligned-only chunking must not converge");

        // Alternating parities: converges in a few frames.
        let mut t = table_from(depths);
        for frame in 0..8 {
            dynamic_partial_sort(&mut t, frame, &cfg);
        }
        assert!(t.is_sorted(), "interleaved boundaries must converge");
    }

    #[test]
    fn bounded_displacement_converges_fast() {
        // Paper Figure 7: 99th-percentile displacement ≤ ~31 positions.
        // With C = 256, displacements ≪ C/2 resolve within two frames.
        let mut depths: Vec<f32> = (0..2048).map(|i| i as f32).collect();
        // Shift blocks by up to 32 positions.
        for i in (0..2000).step_by(61) {
            depths.swap(i, i + 31);
        }
        let mut t = table_from(depths);
        let cfg = DpsConfig::default();
        dynamic_partial_sort(&mut t, 0, &cfg);
        dynamic_partial_sort(&mut t, 1, &cfg);
        assert!(t.is_sorted());
    }

    #[test]
    fn cost_is_single_pass_traffic() {
        let mut t = table_from((0..1000).map(|i| i as f32).collect());
        let cost = dynamic_partial_sort(&mut t, 0, &DpsConfig::default());
        assert_eq!(cost.bytes_read, 8000);
        assert_eq!(cost.bytes_written, 8000);
        assert_eq!(cost.passes, 1);
    }

    #[test]
    fn multi_pass_charges_linearly() {
        let mut t = table_from((0..1000).rev().map(|i| i as f32).collect());
        let cost = dynamic_partial_sort(
            &mut t,
            0,
            &DpsConfig {
                chunk_size: 256,
                passes: 3,
            },
        );
        assert_eq!(cost.bytes_read, 24000);
        assert_eq!(cost.passes, 3);
    }

    #[test]
    fn preserves_invalid_entries() {
        let mut entries: Vec<TableEntry> = (0..100)
            .map(|i| TableEntry::new(i, (100 - i) as f32))
            .collect();
        entries[5].valid = false;
        let mut t = GaussianTable::from_entries(entries);
        dynamic_partial_sort(&mut t, 1, &DpsConfig::default());
        assert_eq!(t.len(), 100);
        assert_eq!(t.valid_count(), 99);
    }

    #[test]
    fn empty_table_is_noop() {
        let mut t = GaussianTable::new();
        let cost = dynamic_partial_sort(&mut t, 0, &DpsConfig::default());
        assert_eq!(cost.bytes_total(), 0);
    }

    #[test]
    fn validate_rejects_tiny_chunks() {
        assert!(DpsConfig {
            chunk_size: 1,
            passes: 1
        }
        .validate()
        .is_err());
        assert!(DpsConfig::default().validate().is_ok());
    }

    #[test]
    fn validate_bounds_passes() {
        let with = |passes| DpsConfig {
            passes,
            ..DpsConfig::default()
        };
        for passes in [0, 1, 4, MAX_PASSES] {
            assert!(with(passes).validate().is_ok(), "{passes} passes");
        }
        for passes in [MAX_PASSES + 1, u32::MAX] {
            assert!(with(passes).validate().is_err(), "{passes} passes");
        }
    }

    #[test]
    fn tiny_chunk_size_is_clamped_not_panicking() {
        // chunk_size 0/1 clamps to 2: ranges still partition the table.
        for chunk in [0usize, 1] {
            let ranges = chunk_ranges(10, 1, chunk);
            let covered: usize = ranges.iter().map(|(s, e)| e - s).sum();
            assert_eq!(covered, 10);
        }
    }
}
