//! Temporal-similarity statistics (the measurements behind Figures 6–7).
//!
//! * **Retention**: the proportion of a tile's Gaussians shared with the
//!   previous frame (Figure 6 plots the CDF of this over tiles) — see
//!   `neo_pipeline::diff_tile_population`.
//! * **Order difference**: how far each shared Gaussian moves within the
//!   tile's depth ordering between consecutive frames (Figure 7 reports
//!   the 90th/95th/99th percentiles).

// BTree collections keep every derived iteration order a pure function
// of the keys (architecture contract §4); hash maps are seeded per
// process.
use std::collections::BTreeMap;

/// Per-Gaussian rank displacement between two orderings.
///
/// Both slices list Gaussian IDs in depth order. Only IDs present in both
/// are compared; each is ranked among the *shared* IDs in each ordering
/// (so insertions/removals do not inflate displacements), and the absolute
/// rank difference is returned per shared ID.
pub fn order_differences(prev: &[u32], cur: &[u32]) -> Vec<usize> {
    let cur_ranks: BTreeMap<u32, usize> = cur.iter().enumerate().map(|(i, &id)| (id, i)).collect();
    // Shared IDs in prev order with their positions in cur.
    let shared_prev: Vec<u32> = prev
        .iter()
        .copied()
        .filter(|id| cur_ranks.contains_key(id))
        .collect();
    let mut shared_cur: Vec<u32> = shared_prev.clone();
    shared_cur.sort_by_key(|id| cur_ranks[id]);
    let cur_shared_rank: BTreeMap<u32, usize> = shared_cur
        .iter()
        .enumerate()
        .map(|(i, &id)| (id, i))
        .collect();
    shared_prev
        .iter()
        .enumerate()
        .map(|(rank_prev, id)| rank_prev.abs_diff(cur_shared_rank[id]))
        .collect()
}

/// Nearest-rank index (0-based) for `p` in `[0, 100]` over `n > 0`
/// samples: `rank = clamp(ceil(p/100 · n), 1, n)`, returned as
/// `rank - 1`.
///
/// The clamp makes the `p = 0.0` edge explicit: the textbook nearest-rank
/// formula yields rank 0 there, which would underflow the 1-based rank;
/// we define `p = 0.0` as the minimum sample (rank 1). The upper clamp is
/// defensive against float round-up at `p = 100.0`.
#[expect(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    reason = "f64->usize is a saturating cast and the clamp(1, n) pins the rank in range; floats have no try_from"
)]
fn nearest_rank_index(n: usize, p: f64) -> usize {
    assert!((0.0..=100.0).contains(&p), "percentile must be in [0, 100]");
    (((p / 100.0) * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Nearest-rank percentile of a sample set (`p` in `[0, 100]`).
///
/// Contract (deliberately `Option`-free so figure code stays plain):
///
/// * **Empty input** returns the `0` sentinel — callers plotting
///   percentiles of "no displacement samples" want 0, not a panic.
/// * **`p = 0.0`** returns the minimum sample (nearest-rank rank is
///   clamped to 1; the unclamped formula would underflow).
/// * **`p = 100.0`** returns the maximum sample.
///
/// # Panics
///
/// Panics when `p` is outside `[0, 100]`.
pub fn percentile(samples: &[usize], p: f64) -> usize {
    if samples.is_empty() {
        assert!((0.0..=100.0).contains(&p), "percentile must be in [0, 100]");
        return 0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    sorted[nearest_rank_index(sorted.len(), p)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_differences_identical_orders() {
        let prev = [10, 20, 30, 40];
        let diffs = order_differences(&prev, &prev);
        assert_eq!(diffs, vec![0, 0, 0, 0]);
    }

    #[test]
    fn order_differences_one_swap() {
        let prev = [1, 2, 3, 4];
        let cur = [1, 3, 2, 4];
        let diffs = order_differences(&prev, &cur);
        assert_eq!(diffs, vec![0, 1, 1, 0]);
    }

    #[test]
    fn order_differences_ignore_membership_churn() {
        // IDs 9/8 inserted in cur; shared IDs keep their relative order,
        // so displacements must be zero.
        let prev = [1, 2, 3];
        let cur = [9, 1, 8, 2, 3];
        let diffs = order_differences(&prev, &cur);
        assert_eq!(diffs, vec![0, 0, 0]);
    }

    #[test]
    fn order_differences_disjoint_is_empty() {
        assert!(order_differences(&[1, 2], &[3, 4]).is_empty());
    }

    #[test]
    fn percentile_nearest_rank() {
        let v = [1usize, 2, 3, 4, 5, 6, 7, 8, 9, 10];
        assert_eq!(percentile(&v, 50.0), 5);
        assert_eq!(percentile(&v, 90.0), 9);
        assert_eq!(percentile(&v, 99.0), 10);
        assert_eq!(percentile(&v, 100.0), 10);
        assert_eq!(percentile(&[], 50.0), 0);
    }

    #[test]
    #[should_panic(expected = "percentile")]
    fn percentile_out_of_range_panics() {
        let _ = percentile(&[1], 150.0);
    }

    #[test]
    #[should_panic(expected = "percentile")]
    fn percentile_out_of_range_panics_on_empty_too() {
        // The range check must not be short-circuited by the empty-input
        // sentinel: bad `p` is a caller bug regardless of the data.
        let _ = percentile(&[], -1.0);
    }

    #[test]
    fn percentile_zero_is_the_minimum() {
        // p = 0.0 used to rely on an implicit saturating clamp; the
        // contract is now explicit: nearest rank 1, i.e. the minimum.
        let v = [7usize, 3, 9, 1];
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[42], 0.0), 42);
        assert_eq!(percentile(&[], 0.0), 0, "empty-input sentinel");
    }

    #[test]
    fn percentile_tiny_p_still_hits_rank_one() {
        // Any p in (0, 100/n] is rank 1 under nearest-rank.
        let v = [10usize, 20, 30, 40];
        assert_eq!(percentile(&v, 0.001), 10);
        assert_eq!(percentile(&v, 25.0), 10);
        assert_eq!(percentile(&v, 25.1), 20);
    }
}
