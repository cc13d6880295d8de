//! Bitonic sorting network — the model of Neo's Bitonic Sorting Unit (BSU).
//!
//! Each Sorting Core's BSU sorts 16-entry sub-chunks in hardware; the
//! MSU+ then merges them into a sorted 256-entry chunk. The functions here
//! perform the same computation in software while counting the
//! compare-exchange operations and network stages the hardware would
//! execute, so the cycle model in `neo-sim` can charge accurate latencies.

use crate::{SortCost, TableEntry};

/// Native width of the BSU (entries sorted per invocation).
pub const BSU_WIDTH: usize = 16;

/// Sentinel entry used to pad the network to a power of two; its key is
/// the *maximum of the key space* so padding sorts strictly after every
/// real entry and `[..n]` truncation recovers exactly the input set.
///
/// The sentinel used to be `+inf`, but [`TableEntry::key`]'s IEEE total
/// order places positive NaNs *after* `+inf` — a real NaN-depth entry
/// would sort behind the padding and be truncated away (and a pad entry
/// leaked in its place). The fix pads with the largest quiet-NaN bit
/// pattern (`0x7FFF_FFFF`) and ID `u32::MAX`, the reserved maximum key
/// documented on [`TableEntry::key`].
pub(crate) fn pad_entry() -> TableEntry {
    TableEntry {
        id: u32::MAX,
        depth: f32::from_bits(0x7FFF_FFFF),
        valid: false,
    }
}

/// [`TableEntry::packed_key`] of [`pad_entry`]: the maximum of the key
/// space.
pub(crate) const PAD_KEY: u64 = u64::MAX;

/// Swaps the BSU network makes on a block of each length `0..=16` whose
/// keys are strictly ascending and below [`PAD_KEY`]. Every compare
/// outcome then depends only on position (pad slots included), so the
/// count is a function of the length alone. Computed at compile time by
/// the same network the kernel runs.
pub(crate) const SORTED_BLOCK_SWAPS: [u64; BSU_WIDTH + 1] = sorted_block_swaps();

const fn sorted_block_swaps() -> [u64; BSU_WIDTH + 1] {
    let mut out = [0; BSU_WIDTH + 1];
    let mut n = 2;
    while n <= BSU_WIDTH {
        let mut keys = [PAD_KEY; BSU_WIDTH];
        let mut slots = [0; BSU_WIDTH];
        let mut i = 0;
        while i < n {
            keys[i] = neo_math::num::u64_from_usize(i);
            i += 1;
        }
        let p = n.next_power_of_two();
        out[n] = network(keys.split_at_mut(p).0, slots.split_at_mut(p).0);
        n += 1;
    }
    out
}

/// Runs the bitonic network over `keys` (length a power of two), moving
/// `slots` along with them, and returns the number of swaps.
///
/// Compare-exchanges are branch-free: a swap XORs both words with a mask
/// derived from the compare outcome. Equal keys never swap.
const fn network(keys: &mut [u64], slots: &mut [usize]) -> u64 {
    let p = keys.len();
    let mut swaps = 0;
    let mut k = 2;
    while k <= p {
        let mut j = k / 2;
        while j > 0 {
            let mut i = 0;
            while i < p {
                let l = i ^ j;
                if l > i {
                    let (a, b) = (keys[i], keys[l]);
                    let swap = if i & k == 0 { a > b } else { a < b };
                    let key_mask = if swap { u64::MAX } else { 0 };
                    let slot_mask = if swap { usize::MAX } else { 0 };
                    let dk = (a ^ b) & key_mask;
                    keys[i] = a ^ dk;
                    keys[l] = b ^ dk;
                    let ds = (slots[i] ^ slots[l]) & slot_mask;
                    slots[i] ^= ds;
                    slots[l] ^= ds;
                    swaps += key_mask & 1;
                }
                i += 1;
            }
            j /= 2;
        }
        k *= 2;
    }
    swaps
}

/// Compare-exchanges a bitonic network of `n` entries executes: `n`
/// padded to a power of two `p`, `p / 2` per stage.
pub(crate) fn network_compares(n: usize) -> u64 {
    if n <= 1 {
        return 0;
    }
    neo_math::num::u64_from_usize(n.next_power_of_two() / 2) * u64::from(network_stages(n))
}

/// True when the entries' keys are strictly ascending and below
/// [`PAD_KEY`]: no ties and no collision with the padding, so the
/// network and the merge tree leave them in place.
pub(crate) fn strictly_ascending(entries: &[TableEntry]) -> bool {
    entries
        .windows(2)
        .all(|w| w[0].packed_key() < w[1].packed_key())
        && entries.last().is_none_or(|e| e.packed_key() < PAD_KEY)
}

/// Sorts `entries` in place with a bitonic network, padding physically to
/// the next power of two like the hardware does (pad slots hold the
/// reserved maximum key documented on [`TableEntry::key`] and are
/// discarded afterwards), with output ordered by that key's total order
/// even for NaN and infinite depths.
///
/// # Examples
///
/// ```
/// use neo_sort::{bitonic::bitonic_sort, TableEntry};
/// let mut v: Vec<_> = (0..10).rev().map(|i| TableEntry::new(i, i as f32)).collect();
/// bitonic_sort(&mut v);
/// assert!(v.windows(2).all(|w| w[0].depth <= w[1].depth));
/// ```
pub fn bitonic_sort(entries: &mut [TableEntry]) -> SortCost {
    let n = entries.len();
    if n <= 1 {
        return SortCost::new();
    }
    let p = n.next_power_of_two();
    let mut keys: Vec<u64> = entries.iter().map(TableEntry::packed_key).collect();
    keys.resize(p, PAD_KEY);
    let mut slots: Vec<usize> = (0..p).collect();
    let swaps = network(&mut keys, &mut slots);
    let original = entries.to_vec();
    for (e, &slot) in entries.iter_mut().zip(&slots) {
        *e = original.get(slot).copied().unwrap_or_else(pad_entry);
    }
    SortCost {
        compares: network_compares(n),
        moves: 2 * swaps,
        ..SortCost::new()
    }
}

/// The BSU kernel: sorts a block of at most [`BSU_WIDTH`] entries in
/// place on stack arrays with precomputed packed keys. A block that is
/// already strictly ascending is left as is and charged
/// [`SORTED_BLOCK_SWAPS`]; the result and cost equal [`bitonic_sort`]'s.
pub(crate) fn bsu_block(block: &mut [TableEntry]) -> SortCost {
    let n = block.len();
    debug_assert!(n <= BSU_WIDTH);
    let mut cost = SortCost {
        compares: network_compares(n),
        ..SortCost::new()
    };
    if n <= 1 {
        return cost;
    }
    if strictly_ascending(block) {
        cost.moves = 2 * SORTED_BLOCK_SWAPS[n];
        return cost;
    }
    let mut original = [pad_entry(); BSU_WIDTH];
    let mut keys = [PAD_KEY; BSU_WIDTH];
    let mut slots: [usize; BSU_WIDTH] = std::array::from_fn(|i| i);
    for (i, e) in block.iter().enumerate() {
        original[i] = *e;
        keys[i] = e.packed_key();
    }
    let p = n.next_power_of_two();
    cost.moves = 2 * network(&mut keys[..p], &mut slots[..p]);
    for (e, &slot) in block.iter_mut().zip(&slots) {
        *e = original[slot];
    }
    cost
}

/// Sorts exactly one BSU-width (16-entry) group in place; shorter slices
/// are allowed and padded virtually.
///
/// # Panics
///
/// Panics when given more than [`BSU_WIDTH`] entries.
pub fn bsu_sort16(entries: &mut [TableEntry]) -> SortCost {
    assert!(
        entries.len() <= BSU_WIDTH,
        "BSU sorts at most {BSU_WIDTH} entries, got {}",
        entries.len()
    );
    bsu_block(entries)
}

/// Number of pipeline stages a bitonic network of width `n` (rounded up to
/// a power of two) executes: `log n · (log n + 1) / 2`. The cycle model
/// charges one cycle per stage.
pub fn network_stages(n: usize) -> u32 {
    if n <= 1 {
        return 0;
    }
    let log = (n.next_power_of_two()).trailing_zeros();
    log * (log + 1) / 2
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entries(depths: &[f32]) -> Vec<TableEntry> {
        depths
            .iter()
            .enumerate()
            .map(|(i, &d)| TableEntry::new(i as u32, d))
            .collect()
    }

    fn is_sorted(v: &[TableEntry]) -> bool {
        v.windows(2).all(|w| w[0].key() <= w[1].key())
    }

    #[test]
    fn sorts_power_of_two() {
        let mut v = entries(&[5.0, 1.0, 4.0, 2.0, 8.0, 7.0, 3.0, 6.0]);
        bitonic_sort(&mut v);
        assert!(is_sorted(&v));
    }

    #[test]
    fn sorts_non_power_of_two() {
        for n in [1usize, 2, 3, 5, 7, 10, 13, 15, 16, 17, 100, 255] {
            let mut v: Vec<_> = (0..n)
                .map(|i| TableEntry::new(i as u32, ((i * 7919) % (n + 3)) as f32))
                .collect();
            bitonic_sort(&mut v);
            assert!(is_sorted(&v), "n = {n}");
            assert_eq!(v.len(), n);
            assert!(v.iter().all(|e| e.id != u32::MAX), "pad leaked at n = {n}");
        }
    }

    #[test]
    fn empty_and_single_are_noops() {
        let mut v: Vec<TableEntry> = vec![];
        assert_eq!(bitonic_sort(&mut v).compares, 0);
        let mut v = entries(&[1.0]);
        assert_eq!(bitonic_sort(&mut v).compares, 0);
    }

    #[test]
    fn bsu16_counts_network_compares() {
        let mut v: Vec<_> = (0..16)
            .rev()
            .map(|i| TableEntry::new(i, i as f32))
            .collect();
        let cost = bsu_sort16(&mut v);
        assert!(is_sorted(&v));
        // Width-16 bitonic network: 10 stages × 8 CEs = 80 compares.
        assert_eq!(cost.compares, 80);
    }

    #[test]
    #[should_panic(expected = "BSU sorts at most")]
    fn bsu_rejects_oversize() {
        let depths = [0.0f32; 17];
        let mut v = entries(&depths);
        let _ = bsu_sort16(&mut v);
    }

    #[test]
    fn stage_counts() {
        assert_eq!(network_stages(16), 10);
        assert_eq!(network_stages(2), 1);
        assert_eq!(network_stages(256), 36);
        assert_eq!(network_stages(1), 0);
    }

    #[test]
    fn preserves_multiset() {
        let mut v = entries(&[3.0, 3.0, 1.0, 2.0, 1.0]);
        let mut before: Vec<u32> = v.iter().map(|e| e.id).collect();
        bitonic_sort(&mut v);
        let mut after: Vec<u32> = v.iter().map(|e| e.id).collect();
        before.sort_unstable();
        after.sort_unstable();
        assert_eq!(before, after);
    }

    #[test]
    fn pathological_depths_match_comparison_sort() {
        // Regression: padding used to be +inf, so NaN-depth entries (which
        // IEEE total order places *after* +inf) were truncated away and a
        // pad entry leaked in their place.
        let specials = [
            f32::NAN,
            -f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            -0.0,
            0.0,
            1.5,
            -3.25,
        ];
        let mut v: Vec<TableEntry> = specials
            .iter()
            .cycle()
            .take(21)
            .enumerate()
            .map(|(i, &d)| TableEntry::new(i as u32, d))
            .collect();
        let mut expect = v.clone();
        expect.sort_by_key(TableEntry::key);
        bitonic_sort(&mut v);
        assert_eq!(v.len(), 21, "no entry lost to padding");
        assert!(v.iter().all(|e| e.id != u32::MAX), "no pad leaked");
        let got: Vec<_> = v.iter().map(TableEntry::key).collect();
        let want: Vec<_> = expect.iter().map(TableEntry::key).collect();
        assert_eq!(got, want);
        // A NaN-depth entry must survive and sort last (after +inf).
        assert!(v.last().unwrap().depth.is_nan());
    }

    #[test]
    fn negative_depths_sort_first() {
        let mut v = entries(&[1.0, -2.0, 0.0, -0.5]);
        bitonic_sort(&mut v);
        let depths: Vec<f32> = v.iter().map(|e| e.depth).collect();
        assert_eq!(depths, vec![-2.0, -0.5, 0.0, 1.0]);
    }
}
