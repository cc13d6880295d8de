//! Merge kernels — the model of Neo's Merge Sorting Unit+ (MSU+).
//!
//! The MSU+ extends a conventional merge unit with an **invalid-bit
//! filter** on each input stream: entries whose valid bit was cleared by
//! the previous frame's rasterization are dropped *during* the merge, so
//! deleting outgoing Gaussians costs no extra pass (Section 5.3). The same
//! merge simultaneously inserts the freshly sorted incoming-Gaussian
//! table.

use crate::bitonic::{bsu_block, network_compares, pad_entry, BSU_WIDTH, SORTED_BLOCK_SWAPS};
use crate::{SortCost, TableEntry};

/// Merges two key-sorted entry slices into a sorted output, dropping
/// invalid entries from both inputs (MSU+ behaviour).
///
/// # Examples
///
/// ```
/// use neo_sort::{merge::merge_filtering, TableEntry};
/// let a = vec![TableEntry::new(0, 1.0), TableEntry::new(1, 3.0)];
/// let mut dead = TableEntry::new(2, 2.0);
/// dead.valid = false;
/// let b = vec![dead, TableEntry::new(3, 4.0)];
/// let (out, _) = merge_filtering(&a, &b);
/// let ids: Vec<u32> = out.iter().map(|e| e.id).collect();
/// assert_eq!(ids, vec![0, 1, 3]);
/// ```
pub fn merge_filtering(a: &[TableEntry], b: &[TableEntry]) -> (Vec<TableEntry>, SortCost) {
    merge_to_vec(a, b, true)
}

/// Merges two key-sorted entry slices *without* the invalid filter —
/// the mode the MSU+ uses while reordering (valid bits pass through and
/// deletion is deferred to the insertion merge).
pub fn merge_keeping(a: &[TableEntry], b: &[TableEntry]) -> (Vec<TableEntry>, SortCost) {
    merge_to_vec(a, b, false)
}

fn merge_to_vec(a: &[TableEntry], b: &[TableEntry], filter: bool) -> (Vec<TableEntry>, SortCost) {
    let mut out = vec![pad_entry(); a.len() + b.len()];
    let (len, cost) = merge_into(a, b, filter, &mut out);
    out.truncate(len);
    (out, cost)
}

/// The MSU+ merge: writes the merge of `a` and `b` to the front of `out`
/// (at least `a.len() + b.len()` long) and returns the number written.
///
/// Inputs are *expected* to be key-sorted; like the hardware MSU+, the
/// merge tolerates approximately sorted streams (e.g. a table after a
/// single Dynamic Partial Sorting pass) — output order quality then
/// follows input order quality. With `filter`, invalid entries are
/// skipped ahead of the comparator and cost nothing. Every emitted entry
/// is one move; every emission before one input runs out is one compare.
pub(crate) fn merge_into(
    a: &[TableEntry],
    b: &[TableEntry],
    filter: bool,
    out: &mut [TableEntry],
) -> (usize, SortCost) {
    let mut cost = SortCost::new();
    let (mut i, mut j, mut w) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        // Invalid-bit filters sit ahead of the comparator.
        if filter && !a[i].valid {
            i += 1;
            continue;
        }
        if filter && !b[j].valid {
            j += 1;
            continue;
        }
        cost.compares += 1;
        if a[i].packed_key() <= b[j].packed_key() {
            out[w] = a[i];
            i += 1;
        } else {
            out[w] = b[j];
            j += 1;
        }
        w += 1;
    }
    for e in a[i..].iter().chain(&b[j..]) {
        if !filter || e.valid {
            out[w] = *e;
            w += 1;
        }
    }
    cost.moves = neo_math::num::u64_from_usize(w);
    (w, cost)
}

/// Sorts a chunk the way a Sorting Core does: split into 16-entry
/// sub-chunks, BSU-sort each, then MSU-merge the runs. Invalid entries are
/// filtered out by the merge.
///
/// Functionally equivalent to a full sort + filter, but the returned
/// [`SortCost`] reflects the hardware's operation counts.
pub fn chunk_sort(entries: &[TableEntry]) -> (Vec<TableEntry>, SortCost) {
    chunk_sort_to_vec(entries, true)
}

/// [`chunk_sort`] without invalid filtering — used by Dynamic Partial
/// Sorting's reorder pass, where deletion is deferred to the insertion
/// merge.
pub fn chunk_sort_keeping(entries: &[TableEntry]) -> (Vec<TableEntry>, SortCost) {
    chunk_sort_to_vec(entries, false)
}

fn chunk_sort_to_vec(entries: &[TableEntry], filter: bool) -> (Vec<TableEntry>, SortCost) {
    let mut out = entries.to_vec();
    let (len, cost) = sort_chunk(&mut out, filter, &mut ChunkScratch::default());
    out.truncate(len);
    (out, cost)
}

/// Buffers the chunk-sort kernel reuses across calls: the merge
/// ping-pong buffer and the run lengths of the current merge level.
#[derive(Debug, Default)]
pub(crate) struct ChunkScratch {
    buf: Vec<TableEntry>,
    runs: Vec<usize>,
}

/// The chunk-sort kernel: sorts `entries` in place and returns how many
/// it kept at the front (all of them unless `filter` drops invalid ones)
/// plus the hardware cost.
///
/// BSU-sorts each 16-entry block on the stack, then merges the runs
/// bottom up, ping-ponging between `entries` and the scratch buffer.
/// Runs pair as `(0, 1), (2, 3), …` at every level and an odd last run
/// is carried up at no cost. With `filter`, merges drop invalid entries
/// (a carried run keeps them) and the survivors are compacted at the
/// end. Allocates only to grow `scratch`.
pub(crate) fn sort_chunk(
    entries: &mut [TableEntry],
    filter: bool,
    scratch: &mut ChunkScratch,
) -> (usize, SortCost) {
    let mut cost = SortCost::new();
    let ChunkScratch { buf, runs } = scratch;
    runs.clear();
    for block in entries.chunks_mut(BSU_WIDTH) {
        cost += bsu_block(block);
        runs.push(block.len());
    }
    if runs.len() > 1 {
        let n = entries.len();
        if buf.len() < n {
            buf.resize(n, pad_entry());
        }
        let mut src: &mut [TableEntry] = &mut *entries;
        let mut dst: &mut [TableEntry] = &mut buf[..n];
        let mut in_scratch = false;
        while runs.len() > 1 {
            let (mut r, mut w) = (0, 0);
            let merged_runs = runs.len().div_ceil(2);
            for k in 0..merged_runs {
                let la = runs[2 * k];
                let len = match runs.get(2 * k + 1) {
                    Some(&lb) => {
                        let (a, rest) = src[r..r + la + lb].split_at(la);
                        let (len, c) = merge_into(a, rest, filter, &mut dst[w..]);
                        cost += c;
                        r += la + lb;
                        len
                    }
                    None => {
                        dst[w..w + la].copy_from_slice(&src[r..r + la]);
                        r += la;
                        la
                    }
                };
                runs[k] = len;
                w += len;
            }
            runs.truncate(merged_runs);
            std::mem::swap(&mut src, &mut dst);
            in_scratch = !in_scratch;
        }
        if in_scratch {
            dst[..runs[0]].copy_from_slice(&src[..runs[0]]);
        }
    }
    let len = runs.first().copied().unwrap_or(0);
    if !filter {
        return (len, cost);
    }
    let mut kept = 0;
    for i in 0..len {
        if entries[i].valid {
            entries[kept] = entries[i];
            kept += 1;
        }
    }
    (kept, cost)
}

/// The cost [`chunk_sort_keeping`] charges for a chunk of `len` entries
/// whose keys are strictly ascending and below the pad key — the
/// closed form behind Dynamic Partial Sorting's sorted-chunk fast path.
///
/// Every compare outcome then depends only on position. Each BSU block
/// makes its fixed network compares and a number of swaps (two moves
/// each) set by its length alone. Each merge of runs `a`, `b` compares
/// every entry of `a` against `b`'s head and moves both runs once:
/// `len(a)` compares and `len(a) + len(b)` moves.
pub fn sorted_chunk_cost(len: usize) -> SortCost {
    let u = neo_math::num::u64_from_usize;
    let (blocks, rest) = (len / BSU_WIDTH, len % BSU_WIDTH);
    let mut cost = SortCost {
        compares: u(blocks) * network_compares(BSU_WIDTH) + network_compares(rest),
        moves: 2 * (u(blocks) * SORTED_BLOCK_SWAPS[BSU_WIDTH] + SORTED_BLOCK_SWAPS[rest]),
        ..SortCost::new()
    };
    // Level by level: `count` runs, all of length `run` but the last.
    let mut run = BSU_WIDTH;
    let mut count = len.div_ceil(BSU_WIDTH);
    let mut last = len.saturating_sub(count.saturating_sub(1) * BSU_WIDTH);
    while count > 1 {
        let pairs = count / 2;
        // The left run of every pair is a full one.
        cost.compares += u(pairs * run);
        if count.is_multiple_of(2) {
            cost.moves += u((pairs - 1) * 2 * run + run + last);
            last += run;
        } else {
            cost.moves += u(pairs * 2 * run);
        }
        count = count.div_ceil(2);
        run *= 2;
    }
    cost
}

#[cfg(test)]
mod tests {
    use super::*;

    fn is_key_sorted(v: &[TableEntry]) -> bool {
        v.windows(2).all(|w| w[0].key() <= w[1].key())
    }

    fn run(depths: &[f32]) -> Vec<TableEntry> {
        let mut v: Vec<_> = depths
            .iter()
            .enumerate()
            .map(|(i, &d)| TableEntry::new(i as u32 * 2, d))
            .collect();
        v.sort_by_key(TableEntry::key);
        v
    }

    #[test]
    fn merge_interleaves() {
        let a = run(&[1.0, 3.0, 5.0]);
        let b = run(&[2.0, 4.0]);
        let (out, cost) = merge_filtering(&a, &b);
        let depths: Vec<f32> = out.iter().map(|e| e.depth).collect();
        assert_eq!(depths, vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        assert!(cost.compares >= 4);
    }

    #[test]
    fn merge_drops_invalid_from_both_sides() {
        let mut a = run(&[1.0, 3.0]);
        a[0].valid = false;
        let mut b = run(&[2.0, 4.0]);
        b[1].valid = false;
        let (out, _) = merge_filtering(&a, &b);
        let depths: Vec<f32> = out.iter().map(|e| e.depth).collect();
        assert_eq!(depths, vec![2.0, 3.0]);
    }

    #[test]
    fn merge_with_empty() {
        let a = run(&[1.0, 2.0]);
        let (out, cost) = merge_filtering(&a, &[]);
        assert_eq!(out.len(), 2);
        assert_eq!(cost.compares, 0);
    }

    #[test]
    fn chunk_sort_sorts_256() {
        let entries: Vec<_> = (0..256)
            .map(|i| TableEntry::new(i as u32, ((i * 167) % 251) as f32))
            .collect();
        let (sorted, cost) = chunk_sort(&entries);
        assert_eq!(sorted.len(), 256);
        assert!(is_key_sorted(&sorted));
        // 16 BSU invocations at 80 compares each, plus merge compares.
        assert!(cost.compares >= 16 * 80);
    }

    #[test]
    fn chunk_sort_filters_invalid() {
        let mut entries: Vec<_> = (0..40)
            .map(|i| TableEntry::new(i as u32, (40 - i) as f32))
            .collect();
        entries[3].valid = false;
        entries[25].valid = false;
        let (sorted, _) = chunk_sort(&entries);
        assert_eq!(sorted.len(), 38);
        assert!(is_key_sorted(&sorted));
    }

    #[test]
    fn chunk_sort_empty() {
        let (out, _) = chunk_sort(&[]);
        assert!(out.is_empty());
    }

    #[test]
    fn merge_is_stable_by_key_tiebreak() {
        // Same depth, different IDs: key() breaks ties by ID.
        let a = vec![TableEntry::new(1, 2.0)];
        let b = vec![TableEntry::new(0, 2.0)];
        let (out, _) = merge_filtering(&a, &b);
        assert_eq!(out[0].id, 0);
        assert_eq!(out[1].id, 1);
    }
}
