//! Sorting substrate for the Neo reproduction.
//!
//! This crate implements stage ❸ of the 3DGS pipeline in all the variants
//! the paper studies:
//!
//! * **Kernels** that mirror the Sorting Engine's hardware units — a
//!   16-wide bitonic sorting network ([`bitonic`], the BSU) and a merge
//!   unit with invalid-entry filtering ([`merge`], the MSU+).
//! * **Dynamic Partial Sorting** ([`dps`]) — Algorithm 1: chunk-local
//!   sorting with boundaries interleaved by half a chunk on alternating
//!   frames, so entries can migrate across chunk boundaries over time.
//! * **Per-tile sorting strategies** ([`strategies`]) — the open
//!   [`SortingStrategy`] trait plus five built-in implementors:
//!   sort-from-scratch, GSCore-style hierarchical sorting, periodic
//!   sorting, background sorting, and Neo's reuse-and-update sorting,
//!   each with faithful cost accounting (compares, element moves, DRAM
//!   bytes). User-defined strategies implement the same trait and run
//!   through `neo-core`'s `RenderEngine` unchanged.
//! * **Temporal statistics** ([`stats`]) — order differences and their
//!   percentiles (Figure 7); retention (Figure 6) is
//!   `neo_pipeline::diff_tile_population`.
//! * **Warm-start temporal sorting** ([`warm`]) — a cache wrapper over
//!   any strategy that carries the previous frame's order across frames
//!   and repairs it instead of re-sorting, exploiting exactly the
//!   coherence those statistics measure.
//!
//! # Examples
//!
//! ```
//! use neo_sort::{GaussianTable, TableEntry};
//! use neo_sort::dps::{dynamic_partial_sort, DpsConfig};
//!
//! let mut table = GaussianTable::from_entries(
//!     (0..1000).rev().map(|i| TableEntry::new(i as u32, i as f32)));
//! // A few interleaved passes fully restore order for bounded displacement.
//! for frame in 0..20 {
//!     dynamic_partial_sort(&mut table, frame, &DpsConfig::default());
//! }
//! assert!(table.inversions() < 1000 * 999 / 4);
//! ```

#![deny(missing_docs)]
#![cfg_attr(
    test,
    allow(
        clippy::float_cmp,
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "unit tests compare exact expected floats and index small fixtures with bare casts"
    )
)]

pub mod bitonic;
pub mod dps;
pub mod hierarchical;
pub mod merge;
pub mod radix;
pub mod stats;
pub mod strategies;
pub mod warm;

mod cost;
mod table;

pub use cost::SortCost;
pub use strategies::{SortingStrategy, StrategyKind};
pub use table::{GaussianTable, TableEntry, ENTRY_BYTES};
pub use warm::{WarmStartConfig, WarmStartSorter};
