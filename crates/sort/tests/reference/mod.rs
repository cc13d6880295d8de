//! Frozen copies of the sorting kernels and the reuse-and-update body as
//! they were before the linear-time rewrite: the bitonic network sorting
//! a padded `Vec` with tuple keys, the push-based MSU+ merge, the
//! allocating chunk sort (one `Vec` per 16-entry run, one per merge), and
//! `ReuseUpdateStrategy::order` with its `BTreeSet` membership and
//! `BTreeMap` depth refresh.
//!
//! They are the differential oracle for the library's kernels: every
//! order, table and `SortCost` counter must match them exactly. The only
//! intended difference is `outgoing`, which here reports the entries
//! flagged this frame (the old body also added the entries it merged out,
//! counting every departure twice).
//!
//! Shared by `crates/sort/tests/reuse_update_reference.rs` and the
//! workspace's `tests/property_sort.rs`.

#![allow(
    dead_code,
    reason = "each including test binary uses a different subset"
)]

use neo_sort::dps::{chunk_ranges, DpsConfig};
use neo_sort::strategies::SorterConfig;
use neo_sort::{GaussianTable, SortCost, TableEntry, ENTRY_BYTES};
use std::collections::{BTreeMap, BTreeSet};

const BSU_WIDTH: usize = 16;

fn pad_entry() -> TableEntry {
    TableEntry {
        id: u32::MAX,
        depth: f32::from_bits(0x7FFF_FFFF),
        valid: false,
    }
}

/// The bitonic network over a physically padded copy.
pub fn bitonic_sort(entries: &mut [TableEntry]) -> SortCost {
    let mut cost = SortCost::new();
    let n = entries.len();
    if n <= 1 {
        return cost;
    }
    let padded = n.next_power_of_two();
    let mut buf: Vec<TableEntry> = Vec::with_capacity(padded);
    buf.extend_from_slice(entries);
    buf.resize(padded, pad_entry());

    let mut k = 2;
    while k <= padded {
        let mut j = k / 2;
        while j > 0 {
            for i in 0..padded {
                let l = i ^ j;
                if l > i {
                    cost.compares += 1;
                    let ascending = (i & k) == 0;
                    let out_of_order = if ascending {
                        buf[i].key() > buf[l].key()
                    } else {
                        buf[i].key() < buf[l].key()
                    };
                    if out_of_order {
                        buf.swap(i, l);
                        cost.moves += 2;
                    }
                }
            }
            j /= 2;
        }
        k *= 2;
    }
    entries.copy_from_slice(&buf[..n]);
    cost
}

/// The MSU+ merge, pushing into a fresh `Vec`.
pub fn merge_impl(a: &[TableEntry], b: &[TableEntry], filter: bool) -> (Vec<TableEntry>, SortCost) {
    let mut cost = SortCost::new();
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if filter && !a[i].valid {
            i += 1;
            continue;
        }
        if filter && !b[j].valid {
            j += 1;
            continue;
        }
        cost.compares += 1;
        if a[i].key() <= b[j].key() {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
        cost.moves += 1;
    }
    for e in &a[i..] {
        if !filter || e.valid {
            out.push(*e);
            cost.moves += 1;
        }
    }
    for e in &b[j..] {
        if !filter || e.valid {
            out.push(*e);
            cost.moves += 1;
        }
    }
    (out, cost)
}

/// The allocating chunk sort: BSU runs, then a `chunks(2)` merge tree.
pub fn chunk_sort_impl(entries: &[TableEntry], filter: bool) -> (Vec<TableEntry>, SortCost) {
    let mut cost = SortCost::new();
    if entries.is_empty() {
        return (Vec::new(), cost);
    }
    let mut runs: Vec<Vec<TableEntry>> = Vec::with_capacity(entries.len().div_ceil(BSU_WIDTH));
    for sub in entries.chunks(BSU_WIDTH) {
        let mut run = sub.to_vec();
        cost += bitonic_sort(&mut run);
        runs.push(run);
    }
    let mut current = runs;
    while current.len() > 1 {
        let mut next = Vec::with_capacity(current.len().div_ceil(2));
        for pair in current.chunks(2) {
            if pair.len() == 2 {
                let (merged, c) = merge_impl(&pair[0], &pair[1], filter);
                cost += c;
                next.push(merged);
            } else {
                next.push(pair[0].clone());
            }
        }
        current = next;
    }
    let mut sorted = current.pop().unwrap_or_default();
    if filter {
        sorted.retain(|e| e.valid);
    }
    (sorted, cost)
}

/// Dynamic Partial Sorting through the allocating chunk sort.
pub fn dynamic_partial_sort(
    table: &mut GaussianTable,
    frame_index: u64,
    config: &DpsConfig,
) -> SortCost {
    let mut cost = SortCost::new();
    for pass in 0..config.passes {
        let phase = frame_index + u64::from(pass);
        let ranges = chunk_ranges(table.len(), phase, config.chunk_size);
        for (start, end) in ranges {
            let (sorted, c) = chunk_sort_impl(&table.entries()[start..end], false);
            table.entries_mut()[start..end].copy_from_slice(&sorted);
            cost += c;
            let bytes = ((end - start) * ENTRY_BYTES) as u64;
            cost.bytes_read += bytes;
            cost.bytes_written += bytes;
        }
        cost.passes += 1;
    }
    cost
}

/// One frame of the reference reuse-and-update strategy.
#[derive(Debug, Clone, PartialEq)]
pub struct ReferenceFrame {
    pub order: Vec<TableEntry>,
    pub cost: SortCost,
    pub incoming: usize,
    pub outgoing: usize,
}

/// `ReuseUpdateStrategy` with B-tree membership and depth refresh.
#[derive(Debug, Clone)]
pub struct ReferenceReuseUpdate {
    config: SorterConfig,
    pub table: GaussianTable,
}

impl ReferenceReuseUpdate {
    pub fn new(config: SorterConfig) -> Self {
        Self {
            config,
            table: GaussianTable::new(),
        }
    }

    pub fn order(&mut self, frame: u64, current: &[(u32, f32)]) -> ReferenceFrame {
        let mut cost = SortCost::new();
        cost += dynamic_partial_sort(&mut self.table, frame, &self.config.dps);

        let valid_ids: BTreeSet<u32> = self
            .table
            .entries()
            .iter()
            .filter(|e| e.valid)
            .map(|e| e.id)
            .collect();
        let incoming_entries: Vec<TableEntry> = current
            .iter()
            .filter(|(id, _)| !valid_ids.contains(id))
            .map(|&(id, d)| TableEntry::new(id, d))
            .collect();
        let incoming = incoming_entries.len();
        let (incoming_sorted, c_in) = chunk_sort_impl(&incoming_entries, true);
        cost += c_in;
        let incoming_bytes = (incoming * ENTRY_BYTES) as u64;
        cost.bytes_read += incoming_bytes;
        cost.bytes_written += incoming_bytes;

        let (merged, c_merge) = merge_impl(self.table.entries(), &incoming_sorted, true);
        cost += c_merge;
        self.table.set_entries(merged);

        let order = self.table.entries().to_vec();

        let current_map: BTreeMap<u32, f32> = current.iter().copied().collect();
        let mut outgoing = 0;
        for e in self.table.entries_mut() {
            match current_map.get(&e.id) {
                Some(&d) => e.depth = d,
                None => {
                    if e.valid {
                        outgoing += 1;
                    }
                    e.valid = false;
                }
            }
        }
        if !self.config.deferred_depth_update {
            let bytes = self.table.byte_size();
            cost.bytes_read += bytes;
            cost.bytes_written += bytes;
            cost.passes += 1;
        }

        ReferenceFrame {
            order,
            cost,
            incoming,
            outgoing,
        }
    }
}

/// Entries compared bit for bit (`PartialEq` on `f32` treats NaN depths
/// as unequal and `-0.0 == 0.0`).
pub fn bits(v: &[TableEntry]) -> Vec<(u32, u32, bool)> {
    v.iter()
        .map(|e| (e.id, e.depth.to_bits(), e.valid))
        .collect()
}
