//! GPU-style LSD radix sort — a functional model of the CUB sort the
//! original 3DGS implementation uses (NVIDIA CCCL), with faithful
//! pass-count accounting.
//!
//! 3DGS sorts 64-bit `(tile | depth)` keys with 8-bit digits: 8
//! scatter/gather passes, each streaming the whole key-value array through
//! DRAM. That pass count is why per-frame sorting saturates edge-device
//! bandwidth (Figures 4–5), and it is the baseline [`SortCost`] model used
//! by `neo-sim`'s Orin device.

use crate::{SortCost, TableEntry, ENTRY_BYTES};

/// Number of digit passes for a 64-bit key at 8 bits per digit.
pub const RADIX64_PASSES: u32 = 8;

/// Stable LSD radix sort by [`TableEntry::key`] (depth-major, ID-minor —
/// the 64-bit composite key), counting one read+write pass over the array
/// per 8-bit digit.
///
/// The composite key is bit-for-bit the lexicographic `(depth_key, id)`
/// pair of [`TableEntry::key`], so the output agrees exactly with the
/// comparison sort `sort_by_key(TableEntry::key)` — including on
/// pathological depths (`±0.0`, `±inf`, NaNs of either sign), which
/// follow the IEEE total order documented on [`TableEntry::key`]. The
/// property suite (`tests/property_sort.rs`) enforces this agreement
/// across every sorting kernel in the crate.
///
/// ```
/// use neo_sort::radix::radix_sort;
/// use neo_sort::TableEntry;
/// let v = vec![TableEntry::new(1, 3.5), TableEntry::new(0, -1.0)];
/// let (out, cost) = radix_sort(&v);
/// assert_eq!(out[0].id, 0);
/// assert_eq!(cost.passes, 8);
/// ```
pub fn radix_sort(entries: &[TableEntry]) -> (Vec<TableEntry>, SortCost) {
    let mut cost = SortCost::new();
    let n = entries.len();
    // A fixed-function radix pipeline runs its passes regardless of input
    // size; we still charge the (empty) passes but skip the work.
    cost.passes = RADIX64_PASSES;
    if n == 0 {
        return (Vec::new(), cost);
    }

    // Composite 64-bit key: depth-ordered bits in the high word, ID in the
    // low word — LSD over the low word first preserves depth-major order.
    let key64 = |e: &TableEntry| -> u64 {
        let (depth_key, id) = e.key();
        (u64::from(depth_key) << 32) | u64::from(id)
    };

    let mut src: Vec<TableEntry> = entries.to_vec();
    let mut dst: Vec<TableEntry> = Vec::with_capacity(n);
    let pass_bytes = neo_math::num::u64_from_usize(n * ENTRY_BYTES);

    for pass in 0..RADIX64_PASSES {
        let shift = pass * 8;
        // Counting pass (histogram) is on-chip; scatter is the DRAM pass.
        let mut counts = [0usize; 256];
        for e in &src {
            counts[((key64(e) >> shift) & 0xFF) as usize] += 1;
        }
        let mut offsets = [0usize; 256];
        let mut acc = 0;
        for (o, c) in offsets.iter_mut().zip(counts.iter()) {
            *o = acc;
            acc += c;
        }
        dst.clear();
        dst.resize(n, src[0]);
        for e in &src {
            let d = ((key64(e) >> shift) & 0xFF) as usize;
            dst[offsets[d]] = *e;
            offsets[d] += 1;
            cost.moves += 1;
        }
        std::mem::swap(&mut src, &mut dst);
        cost.bytes_read += pass_bytes;
        cost.bytes_written += pass_bytes;
    }
    (src, cost)
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
                TableEntry::new(i as u32, ((state >> 40) as f32) * 0.37 - 4000.0)
            })
            .collect()
    }

    #[test]
    fn matches_comparison_sort() {
        for n in [0usize, 1, 2, 100, 2048] {
            let input = entries(n, 9);
            let (out, _) = radix_sort(&input);
            let mut expect = input.clone();
            expect.sort_by_key(TableEntry::key);
            let got: Vec<_> = out.iter().map(|e| (e.key(), e.valid)).collect();
            let want: Vec<_> = expect.iter().map(|e| (e.key(), e.valid)).collect();
            assert_eq!(got, want, "n = {n}");
        }
    }

    #[test]
    fn handles_negative_and_special_depths() {
        let input = vec![
            TableEntry::new(0, 5.0),
            TableEntry::new(1, -3.0),
            TableEntry::new(2, 0.0),
            TableEntry::new(3, -0.0),
            TableEntry::new(4, 1e30),
            TableEntry::new(5, -1e30),
        ];
        let (out, _) = radix_sort(&input);
        let depths: Vec<f32> = out.iter().map(|e| e.depth).collect();
        assert_eq!(depths[0], -1e30);
        assert_eq!(*depths.last().unwrap(), 1e30);
        // IEEE total order: -0.0 sorts strictly before +0.0, so entry 3
        // (depth -0.0) precedes entry 2 (depth 0.0).
        let zero_ids: Vec<u32> = out
            .iter()
            .filter(|e| e.depth == 0.0)
            .map(|e| e.id)
            .collect();
        assert_eq!(zero_ids, vec![3, 2]);
    }

    #[test]
    fn nan_depths_follow_ieee_total_order() {
        // NaNs must neither vanish nor destabilize the sort: negative
        // NaNs sort before -inf, positive NaNs after +inf, and the
        // ID tiebreak keeps equal-bit NaNs deterministic.
        let input = vec![
            TableEntry::new(0, f32::NAN),
            TableEntry::new(1, f32::INFINITY),
            TableEntry::new(2, -f32::NAN),
            TableEntry::new(3, f32::NEG_INFINITY),
            TableEntry::new(4, 0.0),
            TableEntry::new(5, f32::NAN),
        ];
        let (out, _) = radix_sort(&input);
        let mut expect = input.clone();
        expect.sort_by_key(TableEntry::key);
        let got: Vec<_> = out.iter().map(|e| (e.id, e.depth.to_bits())).collect();
        let want: Vec<_> = expect.iter().map(|e| (e.id, e.depth.to_bits())).collect();
        assert_eq!(got, want);
        assert_eq!(out.len(), 6);
        let ids: Vec<u32> = out.iter().map(|e| e.id).collect();
        assert_eq!(ids, vec![2, 3, 4, 1, 0, 5]);
    }

    #[test]
    fn charges_eight_passes() {
        let (_, cost) = radix_sort(&entries(1000, 5));
        assert_eq!(cost.passes, RADIX64_PASSES);
        assert_eq!(cost.bytes_read, 8 * 1000 * ENTRY_BYTES as u64);
        assert_eq!(cost.bytes_written, 8 * 1000 * ENTRY_BYTES as u64);
    }

    #[test]
    fn radix_traffic_exceeds_dps_by_pass_ratio() {
        use crate::dps::{dynamic_partial_sort, DpsConfig};
        use crate::GaussianTable;
        let input = entries(4096, 13);
        let (_, radix_cost) = radix_sort(&input);
        let mut table = GaussianTable::from_entries(input);
        let dps_cost = dynamic_partial_sort(&mut table, 0, &DpsConfig::default());
        let ratio = radix_cost.bytes_total() as f64 / dps_cost.bytes_total() as f64;
        assert!(
            (7.0..=9.0).contains(&ratio),
            "expected ~8× traffic, got {ratio:.2}"
        );
    }

    #[test]
    fn empty_input() {
        let (out, cost) = radix_sort(&[]);
        assert!(out.is_empty());
        assert_eq!(cost.bytes_total(), 0);
    }
}
