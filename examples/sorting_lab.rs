//! Sorting lab: poke at the paper's core algorithm in isolation.
//!
//! Builds a per-tile Gaussian table, perturbs it like a camera motion
//! would, and shows how Dynamic Partial Sorting's interleaved chunk
//! boundaries restore order over a few frames while a fixed-boundary
//! partial sort gets stuck (the Figure 9 experiment). Part 3 compares
//! reuse-and-update sorting with a full re-sort on a drifting tile, and
//! Part 4 runs a naive single-pass strategy written against the
//! [`SortingStrategy`] trait beside it on the same tile.
//!
//! Run: `cargo run --release --example sorting_lab`

use neo_sort::dps::{chunk_ranges, dynamic_partial_sort, DpsConfig};
use neo_sort::strategies::{FrameOrder, StrategyKind};
use neo_sort::{GaussianTable, SortCost, SortingStrategy, TableEntry, ENTRY_BYTES};

fn perturbed_table(n: usize, max_shift: usize) -> GaussianTable {
    let mut depths: Vec<f32> = (0..n).map(|i| i as f32).collect();
    // Deterministic pseudo-random block swaps with bounded displacement.
    let mut state = 0x9E3779B9u64;
    for i in 0..n {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        let shift = (state >> 33) as usize % (max_shift + 1);
        if i + shift < n {
            depths.swap(i, i + shift);
        }
    }
    GaussianTable::from_entries(
        depths
            .into_iter()
            .enumerate()
            .map(|(i, d)| TableEntry::new(i as u32, d)),
    )
}

/// A sorting strategy implemented against the public trait alone: keep
/// the inherited order, refresh membership (drop departed
/// IDs, append newcomers), and run **one odd-even transposition pass**
/// per frame — a deliberately naive single-pass reuse scheme to compare
/// against Dynamic Partial Sorting.
#[derive(Debug, Default)]
struct OddEvenTouchup {
    order: Vec<TableEntry>,
    frame: u64,
}

impl SortingStrategy for OddEvenTouchup {
    fn name(&self) -> &str {
        "odd-even-touchup"
    }

    fn begin_frame(&mut self, frame_index: u64) {
        self.frame = frame_index;
    }

    fn order(&mut self, current: &[(u32, f32)]) -> FrameOrder {
        let depth_of: std::collections::HashMap<u32, f32> = current.iter().copied().collect();
        // Membership refresh: drop departed entries, update depths,
        // append newcomers at the back (they bubble in over time).
        let before: std::collections::HashSet<u32> = self.order.iter().map(|e| e.id).collect();
        self.order.retain(|e| depth_of.contains_key(&e.id));
        let outgoing = before.len() - self.order.len();
        for e in &mut self.order {
            e.depth = depth_of[&e.id];
        }
        let mut incoming = 0;
        for &(id, d) in current {
            if !before.contains(&id) {
                self.order.push(TableEntry::new(id, d));
                incoming += 1;
            }
        }
        // One odd-even transposition pass (parity alternates per frame).
        let start = (self.frame % 2) as usize;
        let mut cost = SortCost::new();
        for i in (start..self.order.len().saturating_sub(1)).step_by(2) {
            cost.compares += 1;
            if self.order[i].key() > self.order[i + 1].key() {
                self.order.swap(i, i + 1);
                cost.moves += 2;
            }
        }
        // Single read+write pass over the table, like DPS.
        let bytes = (self.order.len() * ENTRY_BYTES) as u64;
        cost.bytes_read += bytes;
        cost.bytes_written += bytes;
        cost.passes += 1;
        FrameOrder {
            order: self.order.clone(),
            cost,
            incoming,
            outgoing,
        }
    }
}

/// Frame `f` of a 4096-entry tile whose depths drift a little per frame.
fn drifting_tile(f: u64) -> Vec<(u32, f32)> {
    let t = f as f32 * 0.05;
    (0..4096u32)
        .map(|id| (id, (id as f32 * 0.11 + t).sin() * 100.0 + id as f32 * 0.01))
        .collect()
}

/// Pairs of `order` out of depth order under this frame's true depths
/// (`frame` is indexed by ID).
fn inversions(order: &FrameOrder, frame: &[(u32, f32)]) -> u64 {
    GaussianTable::from_entries(
        order
            .order
            .iter()
            .filter(|e| e.valid)
            .map(|e| TableEntry::new(e.id, frame[e.id as usize].1)),
    )
    .inversions()
}

fn main() {
    let cfg = DpsConfig::default();
    println!(
        "Dynamic Partial Sorting lab (chunk = {} entries)\n",
        cfg.chunk_size
    );

    // Part 1: interleaved vs fixed boundaries (Figure 9).
    println!("table of 2048 entries, displacements ≤ 200:");
    println!("frame | inversions (interleaved) | inversions (fixed)");
    let mut inter = perturbed_table(2048, 200);
    let mut fixed = inter.clone();
    for frame in 0..6u64 {
        println!(
            "  {frame:>3} | {:>25} | {:>18}",
            inter.inversions(),
            fixed.inversions()
        );
        dynamic_partial_sort(&mut inter, frame, &cfg); // alternating parity
        dynamic_partial_sort(&mut fixed, 1, &cfg); // always aligned
    }
    println!(
        "  end | {:>25} | {:>18}\n",
        inter.inversions(),
        fixed.inversions()
    );

    // Part 2: the chunk layout itself.
    println!("chunk boundaries for a 1000-entry table:");
    for frame in [0u64, 1] {
        let ranges = chunk_ranges(1000, frame, cfg.chunk_size);
        let preview: Vec<String> = ranges.iter().take(4).map(|r| format!("{r:?}")).collect();
        println!("  frame parity {}: {} ...", frame % 2, preview.join(" "));
    }

    // Part 3: full reuse-and-update strategy vs full resort, cost-wise.
    println!("\nper-frame sorting cost on a drifting 4096-entry tile:");
    let mut neo = StrategyKind::ReuseUpdate.build(Default::default());
    let mut full = StrategyKind::FullResort.build(Default::default());
    println!("frame | neo bytes | full-resort bytes");
    for f in 0..5u64 {
        let frame = drifting_tile(f);
        neo.begin_frame(f);
        full.begin_frame(f);
        let a = neo.order(&frame);
        let b = full.order(&frame);
        println!(
            "  {f:>3} | {:>9} | {:>17}",
            a.cost.bytes_total(),
            b.cost.bytes_total()
        );
    }
    println!("\nReuse-and-update touches each entry once; radix re-sort makes 8 passes.");

    // Part 4: a strategy written outside neo-sort, against the trait
    // alone, beside reuse-and-update on the same drifting tile.
    let mut neo = StrategyKind::ReuseUpdate.build(Default::default());
    let mut touchup: Box<dyn SortingStrategy> = Box::new(OddEvenTouchup::default());
    println!(
        "\n{} vs {} on the drifting tile:",
        touchup.name(),
        neo.name()
    );
    println!(
        "frame | {:>22} | {:>22}",
        "neo inversions / bytes", "touchup inversions / bytes"
    );
    for f in 0..8u64 {
        let frame = drifting_tile(f);
        neo.begin_frame(f);
        touchup.begin_frame(f);
        let a = neo.order(&frame);
        let b = touchup.order(&frame);
        println!(
            "  {f:>3} | {:>12} {:>9} | {:>12} {:>9}",
            inversions(&a, &frame),
            a.cost.bytes_total(),
            inversions(&b, &frame),
            b.cost.bytes_total()
        );
    }
    println!(
        "\nBoth touch the table once per frame. One odd-even pass moves an entry\n\
         one slot per frame, so the touch-up stays near its unsorted start, while\n\
         DPS keeps reuse-and-update within its one-frame depth lag."
    );
}
