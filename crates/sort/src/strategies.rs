//! Per-tile sorting strategies: the design space of Section 4.1 and the
//! comparison targets of Figure 19.
//!
//! Each strategy is a state machine fed one frame at a time with the
//! tile's *true* `(id, depth)` entries. It returns the ordering the
//! rasterizer should blend in — which may be stale or approximate,
//! depending on the strategy — together with a faithful [`SortCost`].
//!
//! The open [`SortingStrategy`] trait is the extension point: the five
//! built-in strategies below implement it, and out-of-crate code can
//! implement it too and run through `neo-core`'s `RenderEngine` without
//! touching this crate. [`StrategyKind`] survives as a closed convenience
//! constructor over the built-ins.
//!
//! | Strategy | Order quality | Traffic profile |
//! |---|---|---|
//! | [`StrategyKind::FullResort`] | exact | multi-pass radix every frame |
//! | [`StrategyKind::Hierarchical`] | exact | two passes every frame (GSCore) |
//! | [`StrategyKind::Periodic`] | stale between refreshes | spiky |
//! | [`StrategyKind::Background`] | lagged by `K` frames | sustained full sort |
//! | [`StrategyKind::ReuseUpdate`] | approx. (≤1-frame depth lag) | single pass over table |

use crate::bitonic::pad_entry;
use crate::dps::{dps_with_scratch, DpsConfig};
use crate::hierarchical::{hierarchical_sort, HierarchicalConfig};
use crate::merge::{merge_into, sort_chunk, ChunkScratch};
use crate::radix::radix_sort;
use crate::{GaussianTable, SortCost, TableEntry, ENTRY_BYTES};
use std::borrow::Cow;
use std::collections::VecDeque;

/// Number of read+write passes a GPU radix sort makes over the key array
/// (64-bit composite keys, 8-bit digits — the CUB configuration 3DGS
/// uses). Re-exported from [`crate::radix`].
pub const RADIX_PASSES: u32 = crate::radix::RADIX64_PASSES;

/// Number of passes GSCore's hierarchical sorting makes: one coarse
/// bucketing pass plus one fine per-bucket pass.
pub const HIERARCHICAL_PASSES: u32 = 2;

/// A per-tile sorting strategy: the open extension point of the sorting
/// subsystem.
///
/// A strategy is a state machine owning whatever per-tile state it needs
/// (persisted tables, pending queues). Each frame the driver calls
/// [`SortingStrategy::begin_frame`] with the tile's frame index, then
/// [`SortingStrategy::order`] with the tile's true `(id, depth)` entries;
/// the strategy returns the blend order plus the traffic it cost.
///
/// The trait is object-safe: `neo-core`'s `RenderEngine` drives boxed
/// strategies created by a per-tile factory, so implementations outside
/// this crate plug in without any enum edits. Implementors must be
/// [`Send`] for two reasons: render sessions move across threads, and
/// `neo-core`'s intra-frame worker pool partitions the per-tile strategy
/// slots into contiguous shards and hands each shard to a different
/// scoped worker. A strategy never observes any tile but its own, so any
/// shard partition is safe and cannot change its outputs — that
/// independence is what backs the renderer's byte-identical parallelism
/// guarantee.
///
/// # Examples
///
/// ```
/// use neo_sort::strategies::{SortingStrategy, StrategyKind};
///
/// let mut s = StrategyKind::FullResort.build(Default::default());
/// s.begin_frame(0);
/// let out = s.order(&[(2, 5.0), (7, 1.0)]);
/// assert_eq!(out.order[0].id, 7);
/// ```
pub trait SortingStrategy: std::fmt::Debug + Send {
    /// Short human-readable name for diagnostics and experiment labels.
    fn name(&self) -> &str;

    /// Announces the tile-local frame index about to be ordered. Called
    /// exactly once before each [`SortingStrategy::order`] call; indices
    /// start at 0 and increase by 1 (they drive parity-sensitive logic
    /// such as DPS boundary interleaving and periodic refresh phase).
    fn begin_frame(&mut self, frame_index: u64);

    /// Produces the blend order for the tile's true `(id, depth)` entries
    /// this frame, advancing all internal state.
    fn order(&mut self, current: &[(u32, f32)]) -> FrameOrder;

    /// The table carried across frames, when the strategy persists one.
    fn table(&self) -> Option<&GaussianTable> {
        None
    }

    /// Drops any cross-frame cached state, forcing the next frame to be
    /// computed from scratch.
    ///
    /// Called by the renderer when it *knows* the tile's population
    /// changed wholesale — e.g. a cluster in the tile flipped between
    /// proxy and member rendering under the LOD path — so temporal
    /// caches skip the doomed warm attempt. Stateless (per-frame)
    /// strategies need not do anything; the default is a no-op. Must not
    /// change the strategy's *output* for populations that would have
    /// gone cold anyway — only its cost/diagnostics may differ.
    fn invalidate_cache(&mut self) {}
}

/// Which built-in sorting strategy to build.
///
/// This enum is a *convenience constructor* over the open
/// [`SortingStrategy`] trait — see [`StrategyKind::build`]. New
/// strategies do not need a variant here; they implement the trait
/// directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrategyKind {
    /// Sort from scratch every frame with a GPU-style radix sort.
    FullResort,
    /// GSCore's hierarchical sorting: coarse bucketing + fine sort, still
    /// from scratch every frame but fewer passes than radix.
    Hierarchical,
    /// Full sort every `interval` frames; intermediate frames reuse the
    /// stale table unchanged (no insertions, no deletions).
    Periodic(u32),
    /// Full sort runs continuously in the background; the order used for
    /// rendering is the one computed `lag` frames ago.
    Background(u32),
    /// Neo's reuse-and-update sorting: Dynamic Partial Sorting + incoming
    /// insertion + valid-bit deletion + deferred depth update.
    ReuseUpdate,
}

impl StrategyKind {
    /// Checks the variant's parameters, returning a description of the
    /// first problem found. `neo-core`'s engine builder surfaces this as
    /// an `InvalidConfig` error instead of panicking.
    pub fn validate(self) -> Result<(), String> {
        match self {
            StrategyKind::Periodic(0) => {
                Err("periodic sorting interval must be positive".to_string())
            }
            _ => Ok(()),
        }
    }

    /// Builds a boxed [`SortingStrategy`] for this kind — the convenience
    /// constructor over the open trait.
    ///
    /// # Panics
    ///
    /// Panics if [`StrategyKind::validate`] fails (e.g. a zero periodic
    /// interval); validate first when the parameters are untrusted.
    #[must_use]
    pub fn build(self, config: SorterConfig) -> Box<dyn SortingStrategy> {
        assert!(self.validate().is_ok(), "invalid strategy: {self:?}");
        match self {
            StrategyKind::FullResort => Box::new(FullResortStrategy::new()),
            StrategyKind::Hierarchical => Box::new(HierarchicalStrategy::new()),
            StrategyKind::Periodic(interval) => Box::new(PeriodicStrategy::new(interval)),
            StrategyKind::Background(lag) => Box::new(BackgroundStrategy::new(lag)),
            StrategyKind::ReuseUpdate => Box::new(ReuseUpdateStrategy::new(config)),
        }
    }

    /// Short human-readable label (matches the built strategy's
    /// [`SortingStrategy::name`]).
    pub fn name(self) -> &'static str {
        match self {
            StrategyKind::FullResort => "full-resort",
            StrategyKind::Hierarchical => "hierarchical",
            StrategyKind::Periodic(_) => "periodic",
            StrategyKind::Background(_) => "background",
            StrategyKind::ReuseUpdate => "reuse-update",
        }
    }
}

/// Options for the built-in strategies ([`StrategyKind::build`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SorterConfig {
    /// Dynamic Partial Sorting parameters (ReuseUpdate only).
    pub dps: DpsConfig,
    /// When false, models the ablation *without* deferred depth updates:
    /// refreshing depths costs an extra read+write pass over the table
    /// (Section 4.4 reports +33.2% traffic without the optimization).
    pub deferred_depth_update: bool,
}

impl Default for SorterConfig {
    fn default() -> Self {
        Self {
            dps: DpsConfig::default(),
            deferred_depth_update: true,
        }
    }
}

/// Per-tile temporal-reuse diagnostics a cache-carrying strategy (see
/// [`crate::warm::WarmStartSorter`]) attaches to its [`FrameOrder`].
///
/// Strategies without a temporal cache leave [`FrameOrder::reuse`] as
/// `None`; the renderer aggregates the `Some` values into the per-frame
/// hit-rate/repair-cost statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TileReuse {
    /// True when this frame was served from the warm cache (repair path);
    /// false when the tile fell back to a cold inner sort.
    pub warm: bool,
    /// Fraction of the cached entries still present this frame.
    pub retention: f64,
    /// Cached entries reused (retained in place) this frame.
    pub reused: usize,
    /// Element moves spent repairing the retained order this frame.
    pub repair_moves: u64,
}

/// Output of one frame of sorting for one tile.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameOrder {
    /// Entries in the order the rasterizer should blend. IDs may include
    /// stale Gaussians (strategy-dependent); the rasterizer skips IDs it
    /// has no current features for.
    pub order: Vec<TableEntry>,
    /// Cost of producing the order this frame.
    pub cost: SortCost,
    /// Newly visible Gaussians inserted this frame (ReuseUpdate only).
    pub incoming: usize,
    /// Table entries flagged outgoing this frame: their valid bit was
    /// cleared and the next frame's merge drops them (ReuseUpdate only).
    pub outgoing: usize,
    /// Temporal-cache diagnostics (`None` for cache-less strategies).
    pub reuse: Option<TileReuse>,
}

/// Exact sort of the current entries with the GPU-style LSD radix sort
/// (CUB model): multi-pass, bandwidth-hungry, but exact. The "original
/// 3DGS" baseline.
#[derive(Debug, Clone, Default)]
pub struct FullResortStrategy;

impl FullResortStrategy {
    /// Creates the stateless full-resort baseline.
    pub fn new() -> Self {
        Self
    }
}

impl SortingStrategy for FullResortStrategy {
    fn name(&self) -> &str {
        "full-resort"
    }

    fn begin_frame(&mut self, _frame_index: u64) {}

    fn order(&mut self, current: &[(u32, f32)]) -> FrameOrder {
        let entries: Vec<TableEntry> = current
            .iter()
            .map(|&(id, d)| TableEntry::new(id, d))
            .collect();
        let (order, cost) = radix_sort(&entries);
        FrameOrder {
            order,
            cost,
            incoming: 0,
            outgoing: 0,
            reuse: None,
        }
    }
}

/// Exact sort with GSCore's hierarchical (coarse bucket + fine chunk)
/// method: fewer off-chip passes than radix, still from scratch.
#[derive(Debug, Clone, Default)]
pub struct HierarchicalStrategy;

impl HierarchicalStrategy {
    /// Creates the stateless GSCore-style hierarchical sorter.
    pub fn new() -> Self {
        Self
    }
}

impl SortingStrategy for HierarchicalStrategy {
    fn name(&self) -> &str {
        "hierarchical"
    }

    fn begin_frame(&mut self, _frame_index: u64) {}

    fn order(&mut self, current: &[(u32, f32)]) -> FrameOrder {
        let entries: Vec<TableEntry> = current
            .iter()
            .map(|&(id, d)| TableEntry::new(id, d))
            .collect();
        let (order, cost) = hierarchical_sort(&entries, &HierarchicalConfig::default());
        FrameOrder {
            order,
            cost,
            incoming: 0,
            outgoing: 0,
            reuse: None,
        }
    }
}

/// Full sort every `interval` frames; intermediate frames reuse the stale
/// table unchanged — the latency-spike / quality-decay point of Figure 19.
///
/// # Examples
///
/// ```
/// use neo_sort::strategies::{PeriodicStrategy, SortingStrategy};
///
/// let mut s = PeriodicStrategy::new(3);
/// s.begin_frame(0);
/// let refreshed = s.order(&[(1, 2.0), (2, 1.0)]);
/// assert!(refreshed.cost.bytes_total() > 0, "frame 0 sorts");
/// s.begin_frame(1);
/// // Membership changed, but the stale table is reused at zero cost.
/// let stale = s.order(&[(1, 2.0), (2, 1.0), (3, 0.5)]);
/// assert_eq!(stale.cost.bytes_total(), 0);
/// assert_eq!(stale.order.len(), 2, "newcomer 3 is missing until refresh");
/// ```
#[derive(Debug, Clone)]
pub struct PeriodicStrategy {
    interval: u32,
    frame: u64,
    table: GaussianTable,
}

impl PeriodicStrategy {
    /// Creates a periodic sorter refreshing every `interval` frames.
    ///
    /// # Panics
    ///
    /// Panics when `interval` is zero.
    pub fn new(interval: u32) -> Self {
        assert!(interval > 0, "periodic interval must be positive");
        Self {
            interval,
            frame: 0,
            table: GaussianTable::new(),
        }
    }

    /// The refresh interval in frames.
    pub fn interval(&self) -> u32 {
        self.interval
    }
}

impl SortingStrategy for PeriodicStrategy {
    fn name(&self) -> &str {
        "periodic"
    }

    fn begin_frame(&mut self, frame_index: u64) {
        self.frame = frame_index;
    }

    fn order(&mut self, current: &[(u32, f32)]) -> FrameOrder {
        if self.frame.is_multiple_of(u64::from(self.interval)) {
            let entries: Vec<TableEntry> = current
                .iter()
                .map(|&(id, d)| TableEntry::new(id, d))
                .collect();
            let (order, cost) = radix_sort(&entries);
            self.table.set_entries(order.clone());
            FrameOrder {
                order,
                cost,
                incoming: 0,
                outgoing: 0,
                reuse: None,
            }
        } else {
            // Reuse the stale table: no sorting work, no updates. New
            // Gaussians are missing and departed ones linger — the quality
            // decay Figure 19(b) shows.
            FrameOrder {
                order: self.table.entries().to_vec(),
                cost: SortCost::new(),
                incoming: 0,
                outgoing: 0,
                reuse: None,
            }
        }
    }

    fn table(&self) -> Option<&GaussianTable> {
        Some(&self.table)
    }
}

/// Full sort running continuously in the background; rendering consumes
/// the order computed `lag` frames ago.
#[derive(Debug, Clone)]
pub struct BackgroundStrategy {
    lag: u32,
    pending: VecDeque<Vec<TableEntry>>,
}

impl BackgroundStrategy {
    /// Creates a background sorter publishing orders `lag` frames late.
    pub fn new(lag: u32) -> Self {
        Self {
            lag,
            pending: VecDeque::new(),
        }
    }

    /// The publication lag in frames.
    pub fn lag(&self) -> u32 {
        self.lag
    }
}

impl SortingStrategy for BackgroundStrategy {
    fn name(&self) -> &str {
        "background"
    }

    fn begin_frame(&mut self, _frame_index: u64) {}

    fn order(&mut self, current: &[(u32, f32)]) -> FrameOrder {
        // The background engine sorts every frame (sustained traffic)...
        let entries: Vec<TableEntry> = current
            .iter()
            .map(|&(id, d)| TableEntry::new(id, d))
            .collect();
        let (fresh, cost) = radix_sort(&entries);
        self.pending.push_back(fresh);
        // ...but rendering consumes the sort finished `lag` frames ago.
        while self.pending.len() > neo_math::num::usize_from_u32(self.lag) + 1 {
            self.pending.pop_front();
        }
        // During warm-up fewer than `lag` sorts exist; use the oldest.
        let order = self.pending.front().cloned().unwrap_or_default();
        FrameOrder {
            order,
            cost,
            incoming: 0,
            outgoing: 0,
            reuse: None,
        }
    }
}

/// Neo's reuse-and-update flow (Figure 8):
/// ❶ reorder the inherited table with Dynamic Partial Sorting,
/// ❷ sort + insert incoming Gaussians, ❸ delete invalidated entries
/// during the same merge, then ❹ defer depth updates to rasterization
/// (modelled by refreshing stored depths *after* the order is taken).
///
/// Membership needs no search structure. After ❸ the table holds every
/// input ID and ❹ clears the valid bit of every other entry, so the valid
/// IDs at the start of a frame are exactly the previous frame's input
/// IDs (short of a pad-key collision in ❶, handled separately). The
/// strategy keeps them sorted and deduplicated; incoming
/// detection is one merge pass against this frame's input and the depth
/// refresh is a lookup by ID into it. Binning emits tile inputs strictly
/// ascending by ID; any other input is first sorted into a copy.
///
/// # Examples
///
/// ```
/// use neo_sort::strategies::{ReuseUpdateStrategy, SortingStrategy};
///
/// let mut s = ReuseUpdateStrategy::new(Default::default());
/// s.begin_frame(0);
/// let f0 = s.order(&[(10, 3.0), (11, 1.0)]);
/// assert_eq!(f0.incoming, 2, "first frame inserts everything");
/// s.begin_frame(1);
/// // ID 10 departs, ID 12 arrives; the table tracks membership.
/// let f1 = s.order(&[(11, 1.0), (12, 2.0)]);
/// assert_eq!((f1.incoming, f1.outgoing), (1, 1));
/// ```
#[derive(Debug, Clone)]
pub struct ReuseUpdateStrategy {
    config: SorterConfig,
    frame: u64,
    table: GaussianTable,
    /// IDs of the table's valid entries: the previous frame's input IDs,
    /// sorted and deduplicated.
    valid_ids: Vec<u32>,
}

impl ReuseUpdateStrategy {
    /// Creates the reuse-and-update sorter with the given configuration.
    pub fn new(config: SorterConfig) -> Self {
        Self {
            config,
            frame: 0,
            table: GaussianTable::new(),
            valid_ids: Vec::new(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &SorterConfig {
        &self.config
    }
}

/// `current` sorted by ID with one entry per ID, the last one given
/// winning (what collecting into a map does).
fn by_id_last_wins(current: &[(u32, f32)]) -> Vec<(u32, f32)> {
    let mut by_id = current.to_vec();
    by_id.sort_by_key(|&(id, _)| id);
    by_id.dedup_by(|later, kept| {
        let same = later.0 == kept.0;
        if same {
            kept.1 = later.1;
        }
        same
    });
    by_id
}

/// A tile's `(id, depth)` input prepared for membership queries against
/// a sorted ID list: the hash-map-free lookup [`ReuseUpdateStrategy`] and
/// [`crate::warm::WarmStartSorter`] share.
///
/// Its ID-ascending view is the input itself when that is strictly
/// ascending by ID, as binning emits it, and a `by_id_last_wins` copy
/// otherwise.
pub(crate) struct TileInput<'a> {
    current: &'a [(u32, f32)],
    by_id: Cow<'a, [(u32, f32)]>,
}

impl<'a> TileInput<'a> {
    pub(crate) fn new(current: &'a [(u32, f32)]) -> Self {
        let by_id = if current.windows(2).all(|w| w[0].0 < w[1].0) {
            Cow::Borrowed(current)
        } else {
            Cow::Owned(by_id_last_wins(current))
        };
        Self { current, by_id }
    }

    /// This frame's depth of `id`, by binary search.
    #[inline]
    pub(crate) fn depth(&self, id: u32) -> Option<f32> {
        let i = self.by_id.binary_search_by_key(&id, |&(id, _)| id).ok()?;
        Some(self.by_id[i].1)
    }

    /// The input's IDs, ascending and deduplicated.
    pub(crate) fn ids(&self) -> impl Iterator<Item = u32> + '_ {
        self.by_id.iter().map(|&(id, _)| id)
    }

    /// The input entries, in input order, whose ID is not in the ascending
    /// `sorted_ids`: one merge pass when the input is ascending by ID, a
    /// binary search per entry otherwise.
    pub(crate) fn not_in(&self, sorted_ids: &[u32]) -> Vec<TableEntry> {
        let entry = |&(id, d): &(u32, f32)| TableEntry::new(id, d);
        if let Cow::Borrowed(_) = self.by_id {
            let mut known = sorted_ids.iter().peekable();
            self.current
                .iter()
                .filter(|&&(id, _)| {
                    while known.next_if(|&&k| k < id).is_some() {}
                    known.peek() != Some(&&id)
                })
                .map(entry)
                .collect()
        } else {
            self.current
                .iter()
                .filter(|(id, _)| sorted_ids.binary_search(id).is_err())
                .map(entry)
                .collect()
        }
    }
}

impl SortingStrategy for ReuseUpdateStrategy {
    fn name(&self) -> &str {
        "reuse-update"
    }

    fn begin_frame(&mut self, frame_index: u64) {
        self.frame = frame_index;
    }

    fn order(&mut self, current: &[(u32, f32)]) -> FrameOrder {
        let mut cost = SortCost::new();
        // Kernel buffers for ❶ and ❷. They allocate only if a chunk is out
        // of order or more than 16 Gaussians arrive, and no per-tile memory
        // stays pinned between frames.
        let mut scratch = ChunkScratch::default();

        // ❶ Reordering: single-pass DPS over the inherited table, keyed by
        // the (one-frame-stale) stored depths.
        cost += dps_with_scratch(&mut self.table, self.frame, &self.config.dps, &mut scratch);
        // The one way ❶ changes membership: an entry carrying the reserved
        // maximum key (ID `u32::MAX`, see `TableEntry::key`) can lose its
        // valid bit to a pad slot of the BSU network.
        if self.valid_ids.last() == Some(&u32::MAX)
            && !self
                .table
                .entries()
                .iter()
                .any(|e| e.valid && e.id == u32::MAX)
        {
            self.valid_ids.pop();
        }

        // ❷ Insertion: newly visible Gaussians, in input order, are the
        // input IDs that were not valid.
        let input = TileInput::new(current);
        let mut incoming_entries = input.not_in(&self.valid_ids);
        let incoming = incoming_entries.len();
        let (sorted_len, c_in) = sort_chunk(&mut incoming_entries, true, &mut scratch);
        // Freed before the merge allocates the order, which can then reuse
        // the block: on a cold frame both are the size of the whole tile.
        drop(scratch);
        cost += c_in;
        let incoming_bytes = neo_math::num::u64_from_usize(incoming * ENTRY_BYTES);
        cost.bytes_read += incoming_bytes;
        cost.bytes_written += incoming_bytes;

        // ❸ Deletion happens inside the same MSU+ merge that inserts the
        // incoming table: invalid entries are dropped with no extra pass.
        // The merged table is this frame's blend order as-is.
        let mut order = vec![pad_entry(); self.table.len() + sorted_len];
        let (merged_len, c_merge) = merge_into(
            self.table.entries(),
            &incoming_entries[..sorted_len],
            true,
            &mut order,
        );
        cost += c_merge;
        order.truncate(merged_len);
        self.table.assign(&order);

        // ❹ Deferred depth update + outgoing detection, performed "during
        // rasterization": stored depths become this frame's depths, and
        // entries that no longer intersect the tile lose their valid bit.
        let mut outgoing = 0;
        for e in self.table.entries_mut() {
            match input.depth(e.id) {
                Some(depth) => e.depth = depth,
                None => {
                    if e.valid {
                        outgoing += 1;
                    }
                    e.valid = false;
                }
            }
        }
        self.valid_ids.clear();
        self.valid_ids.extend(input.ids());
        if !self.config.deferred_depth_update {
            // Ablation: a separate depth-refresh pass re-reads and
            // re-writes the whole table.
            let bytes = self.table.byte_size();
            cost.bytes_read += bytes;
            cost.bytes_written += bytes;
            cost.passes += 1;
        }

        FrameOrder {
            order,
            cost,
            incoming,
            outgoing,
            reuse: None,
        }
    }

    fn table(&self) -> Option<&GaussianTable> {
        Some(&self.table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drives a built strategy one frame at a time, numbering frames from 0.
    struct Frames {
        strategy: Box<dyn SortingStrategy>,
        next: u64,
    }

    impl Frames {
        fn new(kind: StrategyKind) -> Self {
            Self::with_config(kind, SorterConfig::default())
        }

        fn with_config(kind: StrategyKind, config: SorterConfig) -> Self {
            Self {
                strategy: kind.build(config),
                next: 0,
            }
        }

        fn process_frame(&mut self, current: &[(u32, f32)]) -> FrameOrder {
            self.strategy.begin_frame(self.next);
            self.next += 1;
            self.strategy.order(current)
        }
    }

    fn frame(ids: &[u32], depth_of: impl Fn(u32) -> f32) -> Vec<(u32, f32)> {
        ids.iter().map(|&id| (id, depth_of(id))).collect()
    }

    fn ids_of(order: &[TableEntry]) -> Vec<u32> {
        order.iter().map(|e| e.id).collect()
    }

    #[test]
    fn full_resort_is_exact_every_frame() {
        let mut s = Frames::new(StrategyKind::FullResort);
        let f = frame(&[3, 1, 2], |id| (10 - id) as f32);
        let out = s.process_frame(&f);
        assert_eq!(ids_of(&out.order), vec![3, 2, 1]);
        assert_eq!(out.cost.passes, RADIX_PASSES);
        assert_eq!(out.cost.bytes_read, 3 * 8 * RADIX_PASSES as u64);
    }

    #[test]
    fn hierarchical_is_exact_with_fewer_passes() {
        let mut s = Frames::new(StrategyKind::Hierarchical);
        let f = frame(&[5, 6, 7], |id| id as f32);
        let out = s.process_frame(&f);
        assert_eq!(ids_of(&out.order), vec![5, 6, 7]);
        assert_eq!(out.cost.passes, HIERARCHICAL_PASSES);
    }

    #[test]
    fn periodic_skips_between_refreshes() {
        let mut s = Frames::new(StrategyKind::Periodic(3));
        let f0 = frame(&[1, 2], |id| id as f32);
        let out0 = s.process_frame(&f0);
        assert!(out0.cost.bytes_total() > 0);
        // Frame 1: membership changed, but periodic returns the stale
        // order at zero cost.
        let f1 = frame(&[1, 2, 3], |id| (10 - id) as f32);
        let out1 = s.process_frame(&f1);
        assert_eq!(ids_of(&out1.order), vec![1, 2]);
        assert_eq!(out1.cost.bytes_total(), 0);
        // Frame 2: still stale.
        let out2 = s.process_frame(&f1);
        assert_eq!(out2.cost.bytes_total(), 0);
        // Frame 3: refresh picks up the new world.
        let out3 = s.process_frame(&f1);
        assert_eq!(ids_of(&out3.order), vec![3, 2, 1]);
        assert!(out3.cost.bytes_total() > 0);
    }

    #[test]
    fn background_lags_by_k_frames() {
        let mut s = Frames::new(StrategyKind::Background(2));
        let f0 = frame(&[1], |_| 0.0);
        let f1 = frame(&[2], |_| 0.0);
        let f2 = frame(&[3], |_| 0.0);
        assert_eq!(ids_of(&s.process_frame(&f0).order), vec![1]);
        assert_eq!(ids_of(&s.process_frame(&f1).order), vec![1]);
        let out2 = s.process_frame(&f2);
        assert_eq!(ids_of(&out2.order), vec![1], "lag 2: frame 2 sees frame 0");
        // Sustained cost every frame.
        assert!(out2.cost.bytes_total() > 0);
        let f3 = frame(&[4], |_| 0.0);
        assert_eq!(ids_of(&s.process_frame(&f3).order), vec![2]);
    }

    #[test]
    fn reuse_update_first_frame_inserts_everything() {
        let mut s = Frames::new(StrategyKind::ReuseUpdate);
        let f = frame(&[4, 5, 6], |id| (10 - id) as f32);
        let out = s.process_frame(&f);
        assert_eq!(out.incoming, 3);
        assert_eq!(ids_of(&out.order), vec![6, 5, 4]);
    }

    #[test]
    fn reuse_update_tracks_membership() {
        let mut s = Frames::new(StrategyKind::ReuseUpdate);
        let f0 = frame(&[1, 2, 3], |id| id as f32);
        s.process_frame(&f0);
        // ID 2 leaves, ID 9 arrives.
        let f1 = frame(&[1, 3, 9], |id| id as f32);
        let out1 = s.process_frame(&f1);
        assert_eq!(out1.incoming, 1);
        assert_eq!(out1.outgoing, 1);
        // Next frame, the departed entry is physically merged out.
        let f2 = frame(&[1, 3, 9], |id| id as f32);
        let out2 = s.process_frame(&f2);
        let ids = ids_of(&out2.order);
        assert!(
            !ids.contains(&2),
            "departed entry must be deleted, got {ids:?}"
        );
        assert_eq!(ids.len(), 3);
    }

    #[test]
    fn reuse_update_converges_to_true_order_under_drift() {
        // Smoothly drifting depths: reuse-and-update must track the true
        // order with at most transient error.
        let ids: Vec<u32> = (0..400).collect();
        let n = ids.len() as u64;
        let mut s = Frames::new(StrategyKind::ReuseUpdate);
        let mut last_ratio = 1.0f64;
        for f in 0..30 {
            let t = f as f32 * 0.1;
            // Depths drift and cross over time.
            let fr = frame(&ids, |id| {
                100.0 + (id as f32 * 0.37 + t).sin() * 50.0 + id as f32 * 0.01
            });
            let out = s.process_frame(&fr);
            // Re-key the returned order with the *true* current depths and
            // count inversions: measures real blend-order error, tolerant
            // of the by-design one-frame depth lag.
            let depth_of: std::collections::BTreeMap<u32, f32> = fr.iter().copied().collect();
            let rekeyed = GaussianTable::from_entries(
                out.order
                    .iter()
                    .filter(|e| e.valid && depth_of.contains_key(&e.id))
                    .map(|e| TableEntry::new(e.id, depth_of[&e.id])),
            );
            let worst = n * (n - 1) / 2;
            last_ratio = rekeyed.inversions() as f64 / worst as f64;
        }
        assert!(
            last_ratio < 0.10,
            "order should track truth closely, inversion ratio {last_ratio:.4}"
        );
    }

    #[test]
    fn reuse_update_single_pass_traffic_beats_full_resort() {
        let ids: Vec<u32> = (0..1000).collect();
        let fr = frame(&ids, |id| id as f32);
        let mut reuse = Frames::new(StrategyKind::ReuseUpdate);
        let mut full = Frames::new(StrategyKind::FullResort);
        reuse.process_frame(&fr);
        full.process_frame(&fr);
        // Steady state (no churn): reuse touches the table once; full
        // resort makes RADIX_PASSES passes.
        let out_r = reuse.process_frame(&fr);
        let out_f = full.process_frame(&fr);
        assert!(
            out_r.cost.bytes_total() * 3 < out_f.cost.bytes_total(),
            "reuse {} vs full {}",
            out_r.cost.bytes_total(),
            out_f.cost.bytes_total()
        );
    }

    #[test]
    fn non_deferred_depth_update_costs_extra_pass() {
        let ids: Vec<u32> = (0..500).collect();
        let fr = frame(&ids, |id| id as f32);
        let mut deferred = Frames::new(StrategyKind::ReuseUpdate);
        let mut eager = Frames::with_config(
            StrategyKind::ReuseUpdate,
            SorterConfig {
                deferred_depth_update: false,
                ..Default::default()
            },
        );
        deferred.process_frame(&fr);
        eager.process_frame(&fr);
        let d = deferred.process_frame(&fr).cost.bytes_total();
        let e = eager.process_frame(&fr).cost.bytes_total();
        assert!(e > d, "eager {e} must exceed deferred {d}");
        // Roughly double (extra read+write pass over the table).
        let ratio = e as f64 / d as f64;
        assert!(ratio > 1.5 && ratio < 2.5, "ratio {ratio}");
    }

    #[test]
    fn reuse_update_depths_lag_one_frame() {
        let mut s = Frames::new(StrategyKind::ReuseUpdate);
        s.process_frame(&frame(&[1, 2], |id| id as f32));
        // Depths change radically; the *order* this frame still reflects
        // last frame's depths (deferred update), then catches up.
        let f1 = frame(&[1, 2], |id| (10 - id) as f32);
        let out1 = s.process_frame(&f1);
        assert_eq!(
            ids_of(&out1.order),
            vec![1, 2],
            "stale order used for frame 1"
        );
        let out2 = s.process_frame(&f1);
        assert_eq!(
            ids_of(&out2.order),
            vec![2, 1],
            "order catches up next frame"
        );
    }

    #[test]
    #[should_panic(expected = "periodic interval")]
    fn zero_periodic_interval_rejected() {
        let _ = PeriodicStrategy::new(0);
    }

    #[test]
    fn strategy_kind_validate_flags_zero_interval() {
        assert!(StrategyKind::Periodic(0).validate().is_err());
        assert!(StrategyKind::Periodic(1).validate().is_ok());
        assert!(StrategyKind::Background(0).validate().is_ok());
        assert!(StrategyKind::ReuseUpdate.validate().is_ok());
    }

    #[test]
    fn built_strategies_are_named_after_their_kind() {
        for kind in [
            StrategyKind::FullResort,
            StrategyKind::Hierarchical,
            StrategyKind::Periodic(2),
            StrategyKind::Background(1),
            StrategyKind::ReuseUpdate,
        ] {
            assert_eq!(kind.build(SorterConfig::default()).name(), kind.name());
        }
    }

    #[test]
    fn reuse_update_reports_each_departure_once() {
        // ID 10 departs at frame 1: flagged there, merged out silently at
        // frame 2 (it used to be counted again as it was dropped).
        let mut s = Frames::new(StrategyKind::ReuseUpdate);
        let outgoing: Vec<usize> = [
            vec![(10, 3.0), (11, 1.0)],
            vec![(11, 1.0), (12, 2.0)],
            vec![(11, 1.0), (12, 2.0)],
            vec![(11, 1.0), (12, 2.0)],
        ]
        .iter()
        .map(|f| s.process_frame(f).outgoing)
        .collect();
        assert_eq!(outgoing, vec![0, 1, 0, 0]);
    }

    #[test]
    fn trait_objects_are_send() {
        fn assert_send<T: Send + ?Sized>() {}
        assert_send::<dyn SortingStrategy>();
        assert_send::<Box<dyn SortingStrategy>>();
    }

    #[test]
    fn every_builtin_strategy_is_send() {
        // The intra-frame worker pool in neo-core moves per-tile strategy
        // state to scoped workers; each built-in must stay Send.
        fn assert_send<T: Send>() {}
        assert_send::<FullResortStrategy>();
        assert_send::<HierarchicalStrategy>();
        assert_send::<PeriodicStrategy>();
        assert_send::<BackgroundStrategy>();
        assert_send::<ReuseUpdateStrategy>();
    }
}
