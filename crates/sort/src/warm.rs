//! Warm-start temporal sorting: reuse the previous frame's per-tile
//! depth order instead of re-sorting from scratch.
//!
//! The paper's central measurement (Figures 6–7, reproduced by
//! [`crate::stats`] and `neo-workloads`) is that consecutive frames
//! retain ≥78% of a tile's Gaussians with p99 rank displacement around
//! 1% of the tile population. [`WarmStartSorter`] exploits that
//! coherence for *any* inner [`SortingStrategy`]: it caches the blend
//! order it produced last frame and, on the next frame,
//!
//! 1. drops the IDs that departed the tile,
//! 2. refreshes the depths of the retained IDs and repairs their order
//!    with a **bounded insertion pass** (near-linear on the almost-sorted
//!    tables temporal coherence produces),
//! 3. sorts the newcomers and merge-inserts them by depth.
//!
//! When retention falls below [`WarmStartConfig::retention_threshold`],
//! or the repair pass exceeds its move budget (the input was *not*
//! almost-sorted), the sorter falls back to a cold sort by the inner
//! strategy — so pathological frames cost one full sort, never a
//! quadratic repair.
//!
//! # Modes
//!
//! * [`WarmStartMode::Repair`] (default) — the warm path above. Over an
//!   *exact* inner strategy (full-resort, hierarchical) the repaired
//!   order is itself exact — identical IDs and depths to the cold sort,
//!   by construction of the key-ordered repair and merge — so rendered
//!   images are byte-identical while the sorting traffic drops to a
//!   single pass. Only the [`SortCost`] differs from cold sorting.
//! * [`WarmStartMode::Exact`] — a validation/shadow mode: every call is
//!   delegated verbatim to the inner strategy (output, cost, and
//!   diagnostics are *byte-identical* to running the inner strategy
//!   alone, preserving the renderer's determinism contract), while the
//!   cache and its statistics are maintained in shadow and exposed via
//!   [`WarmStartSorter::stats`].
//!
//! # Examples
//!
//! ```
//! use neo_sort::strategies::{SortingStrategy, StrategyKind};
//! use neo_sort::warm::{WarmStartConfig, WarmStartSorter};
//!
//! let inner = StrategyKind::FullResort.build(Default::default());
//! let mut warm = WarmStartSorter::new(inner, WarmStartConfig::default());
//! warm.begin_frame(0);
//! let cold = warm.order(&[(1, 2.0), (2, 1.0)]); // first frame: cold sort
//! assert!(!cold.reuse.unwrap().warm);
//! warm.begin_frame(1);
//! let hit = warm.order(&[(1, 2.5), (2, 1.5), (3, 9.0)]); // warm repair
//! assert!(hit.reuse.unwrap().warm);
//! assert_eq!(hit.order.len(), 3);
//! assert!(hit.cost.bytes_total() < cold.cost.bytes_total());
//! assert!(warm.stats().hit_rate() > 0.0);
//! ```

use crate::merge::{chunk_sort, merge_keeping};
use crate::strategies::{FrameOrder, SortingStrategy, TileReuse};
use crate::{GaussianTable, SortCost, TableEntry, ENTRY_BYTES};

/// Minimal open-addressing `id → depth` map for the per-tile hot path.
///
/// `std::collections::HashMap`'s DoS-resistant SipHash costs more than
/// the repair pass it serves here (two map builds + two probes per entry
/// per frame); Fibonacci multiply + linear probing at ≤0.5 load factor
/// is deterministic and an order of magnitude cheaper. The slot sentinel
/// is `u32::MAX`, which [`TableEntry::key`] reserves for the bitonic
/// padding anyway; a real `u32::MAX` ID is still handled, via a
/// dedicated side slot.
struct IdMap {
    mask: usize,
    slots: Vec<(u32, u32)>, // (id, depth bits); EMPTY_ID marks a free slot
    taken: Vec<bool>,       // per-slot "consumed by the retained scan" flag
    max_id_depth: Option<u32>,
    max_id_taken: bool,
}

const EMPTY_ID: u32 = u32::MAX;

impl IdMap {
    fn build(entries: impl ExactSizeIterator<Item = (u32, f32)>) -> Self {
        let cap = (entries.len().max(1) * 2).next_power_of_two().max(8);
        let mut map = Self {
            mask: cap - 1,
            slots: vec![(EMPTY_ID, 0); cap],
            taken: vec![false; cap],
            max_id_depth: None,
            max_id_taken: false,
        };
        for (id, depth) in entries {
            map.insert(id, depth);
        }
        map
    }

    #[inline]
    fn home(&self, id: u32) -> usize {
        ((u64::from(id).wrapping_mul(0x9E37_79B9_7F4A_7C15)) >> 32) as usize & self.mask
    }

    /// Probes to the slot holding `id`, or the empty slot ending its
    /// chain. `None` encodes the reserved-ID side slot.
    #[inline]
    fn probe(&self, id: u32) -> Option<usize> {
        if id == EMPTY_ID {
            return None;
        }
        let mut i = self.home(id);
        loop {
            let slot_id = self.slots[i].0;
            if slot_id == id || slot_id == EMPTY_ID {
                return Some(i);
            }
            i = (i + 1) & self.mask;
        }
    }

    fn insert(&mut self, id: u32, depth: f32) {
        match self.probe(id) {
            None => self.max_id_depth = Some(depth.to_bits()),
            Some(i) => self.slots[i] = (id, depth.to_bits()),
        }
    }

    #[inline]
    fn get(&self, id: u32) -> Option<f32> {
        match self.probe(id) {
            None => self.max_id_depth.map(f32::from_bits),
            Some(i) => {
                let (slot_id, bits) = self.slots[i];
                (slot_id == id).then(|| f32::from_bits(bits))
            }
        }
    }

    /// [`IdMap::get`] that also marks the entry as consumed, so a later
    /// scan over the inserted population can partition it into consumed
    /// (retained) and unconsumed (arrived) without a second map.
    #[inline]
    fn take(&mut self, id: u32) -> Option<f32> {
        match self.probe(id) {
            None => {
                self.max_id_taken = self.max_id_depth.is_some();
                self.max_id_depth.map(f32::from_bits)
            }
            Some(i) => {
                let (slot_id, bits) = self.slots[i];
                if slot_id == id {
                    self.taken[i] = true;
                    Some(f32::from_bits(bits))
                } else {
                    None
                }
            }
        }
    }

    /// Whether `id` was consumed by a previous [`IdMap::take`]. Only
    /// meaningful for IDs that were inserted.
    #[inline]
    fn was_taken(&self, id: u32) -> bool {
        match self.probe(id) {
            None => self.max_id_taken,
            Some(i) => self.slots[i].0 == id && self.taken[i],
        }
    }
}

/// Why a repair-mode frame went cold, carrying the membership diff the
/// warm attempt measured so the cold result can still report it.
#[derive(Debug, Clone, Copy)]
struct ColdCause {
    retention: f64,
    incoming: usize,
    outgoing: usize,
}

/// Output contract of a [`WarmStartSorter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WarmStartMode {
    /// Serve warm frames from the repaired cache (the fast path).
    #[default]
    Repair,
    /// Delegate every frame to the inner strategy verbatim; maintain the
    /// cache and statistics in shadow only. Output is byte-identical to
    /// the bare inner strategy.
    Exact,
}

/// Configuration for [`WarmStartSorter`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WarmStartConfig {
    /// Minimum fraction of cached entries that must survive into the
    /// current frame for the warm path to run; below it the tile falls
    /// back to a cold inner sort. Default 0.5 (the paper measures ≥0.78
    /// retention for >90% of tiles at 30 fps).
    pub retention_threshold: f64,
    /// Bound on the repair pass: the insertion repair may move at most
    /// `repair_budget_factor × retained_entries` elements before
    /// aborting to a cold sort. Default 4 — far above the ~1%-of-tile
    /// displacements coherent frames produce, far below the quadratic
    /// worst case.
    pub repair_budget_factor: u32,
    /// Output contract; see [`WarmStartMode`].
    pub mode: WarmStartMode,
}

impl Default for WarmStartConfig {
    fn default() -> Self {
        Self {
            retention_threshold: 0.5,
            repair_budget_factor: 4,
            mode: WarmStartMode::Repair,
        }
    }
}

impl WarmStartConfig {
    /// The default configuration in [`WarmStartMode::Exact`].
    #[must_use]
    pub fn exact() -> Self {
        Self {
            mode: WarmStartMode::Exact,
            ..Self::default()
        }
    }

    /// Sets the retention threshold (validated, not clamped — see
    /// [`WarmStartConfig::validate`]).
    #[must_use]
    pub fn with_retention_threshold(mut self, threshold: f64) -> Self {
        self.retention_threshold = threshold;
        self
    }

    /// Sets the repair move-budget factor.
    #[must_use]
    pub fn with_repair_budget_factor(mut self, factor: u32) -> Self {
        self.repair_budget_factor = factor;
        self
    }

    /// Sets the output mode.
    #[must_use]
    pub fn with_mode(mut self, mode: WarmStartMode) -> Self {
        self.mode = mode;
        self
    }

    /// Checks the parameters, returning a description of the first
    /// problem found. `neo-core`'s engine builder surfaces this as an
    /// `InvalidConfig` error at build time.
    pub fn validate(&self) -> Result<(), String> {
        if !self.retention_threshold.is_finite() || !(0.0..=1.0).contains(&self.retention_threshold)
        {
            return Err(format!(
                "warm-start retention threshold must be in [0, 1], got {}",
                self.retention_threshold
            ));
        }
        if self.repair_budget_factor == 0 {
            return Err("warm-start repair budget factor must be positive".to_string());
        }
        Ok(())
    }
}

/// Cumulative warm-start statistics across every frame a
/// [`WarmStartSorter`] has ordered.
///
/// In [`WarmStartMode::Exact`] these are *shadow* statistics: warm/cold
/// classification records what the repair path would have chosen (by
/// retention), even though every frame is actually served by the inner
/// strategy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WarmStartStats {
    /// Frames ordered.
    pub frames: u64,
    /// Frames served from the warm cache (repair path).
    pub warm_frames: u64,
    /// Frames served by a cold inner sort (first frame, low retention,
    /// or repair-budget abort).
    pub cold_frames: u64,
    /// Cold frames caused by retention below the threshold.
    pub fallbacks: u64,
    /// Cold frames caused by the repair pass exceeding its move budget.
    pub budget_aborts: u64,
    /// Cached entries reused across all warm frames.
    pub reused_entries: u64,
    /// Newcomers merge-inserted across all warm frames.
    pub inserted_entries: u64,
    /// Departed entries dropped across all warm frames.
    pub dropped_entries: u64,
    /// Element moves spent in repair passes.
    pub repair_moves: u64,
    /// External cache invalidations honoured (see
    /// [`SortingStrategy::invalidate_cache`]).
    pub invalidations: u64,
}

impl WarmStartStats {
    /// Fraction of frames served warm (0 when no frames were ordered).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        if self.frames == 0 {
            0.0
        } else {
            self.warm_frames as f64 / self.frames as f64
        }
    }
}

/// A temporal-cache wrapper around any inner [`SortingStrategy`] — see
/// the [module docs](crate::warm) for the algorithm and modes.
///
/// The cache is strictly tile-local state, like every other strategy's
/// tables, so warm-start sorting composes with `neo-core`'s intra-frame
/// worker pool unchanged: shard geometry cannot affect its output.
///
/// # Precondition: unique IDs per frame
///
/// In [`WarmStartMode::Repair`], each [`SortingStrategy::order`] call's
/// entries must have **distinct Gaussian IDs** (the membership diff is
/// keyed by ID, so duplicates collapse to one depth and the repaired
/// order can disagree with a cold sort of the duplicated input). Tile
/// binning never assigns a splat to the same tile twice, so every input
/// produced by the rendering pipeline satisfies this; direct callers
/// feeding synthetic duplicate IDs should deduplicate first or use
/// [`WarmStartMode::Exact`], which delegates verbatim.
#[derive(Debug)]
pub struct WarmStartSorter {
    inner: Box<dyn SortingStrategy>,
    config: WarmStartConfig,
    name: String,
    /// Previous frame's blend order (valid entries only); meaningful only
    /// once `primed` is set.
    cache: GaussianTable,
    primed: bool,
    /// Frame indices forwarded to the inner strategy. In repair mode the
    /// inner strategy only sees the frames it actually sorts, as a
    /// contiguous 0,1,2,… sequence (parity-sensitive inner logic such as
    /// DPS interleaving must not observe gaps).
    inner_frames: u64,
    total_cost: SortCost,
    stats: WarmStartStats,
}

impl WarmStartSorter {
    /// Wraps `inner` with a warm-start temporal cache.
    #[must_use]
    pub fn new(inner: Box<dyn SortingStrategy>, config: WarmStartConfig) -> Self {
        let name = format!("warm-start({})", inner.name());
        Self {
            inner,
            config,
            name,
            cache: GaussianTable::new(),
            primed: false,
            inner_frames: 0,
            total_cost: SortCost::new(),
            stats: WarmStartStats::default(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &WarmStartConfig {
        &self.config
    }

    /// Cumulative warm-start statistics.
    pub fn stats(&self) -> WarmStartStats {
        self.stats
    }

    /// The wrapped inner strategy.
    pub fn inner(&self) -> &dyn SortingStrategy {
        self.inner.as_ref()
    }

    /// Replaces the cache with the valid entries of `order`.
    fn store(&mut self, order: &[TableEntry]) {
        self.cache
            .set_entries(order.iter().copied().filter(|e| e.valid).collect());
        self.primed = true;
    }

    /// Retention of the current population against the cache — count
    /// only, no allocation (the shadow path runs this every frame).
    /// Returns `None` when the cache is empty or unprimed.
    fn retention_against_cache(&self, current: &IdMap) -> Option<(f64, usize)> {
        if !self.primed || self.cache.is_empty() {
            return None;
        }
        let retained = self
            .cache
            .entries()
            .iter()
            .filter(|e| current.get(e.id).is_some())
            .count();
        Some((retained as f64 / self.cache.len() as f64, retained))
    }

    /// The warm repair path. Returns `Err(ColdCause)` when the frame must
    /// be served cold (unprimed cache, retention below threshold, or
    /// repair budget exceeded); the cause carries the membership diff so
    /// the cold result can still report churn against the cache.
    fn try_warm(&mut self, current: &[(u32, f32)]) -> Result<FrameOrder, ColdCause> {
        if !self.primed || self.cache.is_empty() {
            return Err(ColdCause {
                retention: 0.0,
                incoming: current.len(),
                outgoing: 0,
            });
        }
        let mut current_map = IdMap::build(current.iter().copied());
        // Retained scan, in cached order: `take` consumes each current
        // entry still cached, so the leftover (untaken) current entries
        // are exactly the arrivals — one map serves both partitions.
        let mut retained: Vec<TableEntry> = Vec::with_capacity(self.cache.len());
        for e in self.cache.entries() {
            if let Some(d) = current_map.take(e.id) {
                retained.push(TableEntry::new(e.id, d));
            }
        }
        let retention = retained.len() as f64 / self.cache.len() as f64;
        let cause = ColdCause {
            retention,
            incoming: current.len() - retained.len(),
            outgoing: self.cache.len() - retained.len(),
        };
        if retention < self.config.retention_threshold {
            self.stats.fallbacks += 1;
            return Err(cause);
        }

        // Bounded insertion repair: temporal coherence keeps displacements
        // tiny, so this is near-linear; the move budget converts the
        // adversarial quadratic case into a cold-sort fallback instead.
        let budget = neo_math::num::u64_from_usize(retained.len())
            * u64::from(self.config.repair_budget_factor);
        let mut repair_moves = 0u64;
        let mut repair_compares = 0u64;
        for i in 1..retained.len() {
            let e = retained[i];
            let key = e.key();
            let mut j = i;
            while j > 0 {
                repair_compares += 1;
                if retained[j - 1].key() <= key {
                    break;
                }
                retained[j] = retained[j - 1];
                repair_moves += 1;
                if repair_moves > budget {
                    self.stats.budget_aborts += 1;
                    return Err(cause);
                }
                j -= 1;
            }
            if j != i {
                retained[j] = e;
                repair_moves += 1;
            }
        }

        let arrived: Vec<TableEntry> = current
            .iter()
            .filter(|&&(id, _)| !current_map.was_taken(id))
            .map(|&(id, d)| TableEntry::new(id, d))
            .collect();
        let incoming = arrived.len();
        let outgoing = self.cache.len() - retained.len();
        let (arrived_sorted, cost_in) = chunk_sort(&arrived);
        let (merged, cost_merge) = merge_keeping(&retained, &arrived_sorted);

        // Traffic model: one read of the inherited table + the arrivals,
        // one write of the merged table — a single off-chip pass, the
        // bandwidth win over a cold multi-pass sort.
        let mut cost = SortCost::new();
        cost.compares = repair_compares + cost_in.compares + cost_merge.compares;
        cost.moves = repair_moves + cost_in.moves + cost_merge.moves;
        cost.bytes_read =
            self.cache.byte_size() + neo_math::num::u64_from_usize(incoming * ENTRY_BYTES);
        cost.bytes_written = neo_math::num::u64_from_usize(merged.len() * ENTRY_BYTES);
        cost.passes = 1;

        self.stats.warm_frames += 1;
        self.stats.reused_entries += neo_math::num::u64_from_usize(retained.len());
        self.stats.inserted_entries += neo_math::num::u64_from_usize(incoming);
        self.stats.dropped_entries += neo_math::num::u64_from_usize(outgoing);
        self.stats.repair_moves += repair_moves;
        let reuse = TileReuse {
            warm: true,
            retention,
            reused: retained.len(),
            repair_moves,
        };
        self.cache.set_entries(merged.clone());
        Ok(FrameOrder {
            order: merged,
            cost,
            incoming,
            outgoing,
            reuse: Some(reuse),
        })
    }

    /// The cold path: delegate this frame to the inner strategy and
    /// re-prime the cache from its output. Churn is reported against the
    /// (old) cache — the same semantics warm frames use — rather than
    /// whatever the inner strategy tracks, so tile loads stay comparable
    /// across warm and cold frames.
    fn cold(&mut self, current: &[(u32, f32)], cause: ColdCause) -> FrameOrder {
        let frame = self.inner_frames;
        self.inner_frames += 1;
        self.inner.begin_frame(frame);
        let mut out = self.inner.order(current);
        self.stats.cold_frames += 1;
        self.store(&out.order);
        out.incoming = cause.incoming;
        out.outgoing = cause.outgoing;
        out.reuse = Some(TileReuse {
            warm: false,
            retention: cause.retention,
            reused: 0,
            repair_moves: 0,
        });
        out
    }

    /// Shadow bookkeeping for [`WarmStartMode::Exact`]: classify the
    /// frame the way the repair path would have, without touching the
    /// delegated output.
    fn shadow_account(&mut self, current: &[(u32, f32)]) {
        let current_map = IdMap::build(current.iter().copied());
        match self.retention_against_cache(&current_map) {
            Some((retention, retained)) if retention >= self.config.retention_threshold => {
                self.stats.warm_frames += 1;
                self.stats.reused_entries += neo_math::num::u64_from_usize(retained);
            }
            Some(_) => {
                self.stats.fallbacks += 1;
                self.stats.cold_frames += 1;
            }
            None => self.stats.cold_frames += 1,
        }
    }
}

impl SortingStrategy for WarmStartSorter {
    fn name(&self) -> &str {
        &self.name
    }

    fn begin_frame(&mut self, frame_index: u64) {
        if self.config.mode == WarmStartMode::Exact {
            // Pure delegation: the inner strategy sees the true indices.
            self.inner.begin_frame(frame_index);
        }
        // Repair mode forwards lazily from `cold` with its own contiguous
        // counter, so the inner strategy never observes index gaps.
    }

    fn order(&mut self, current: &[(u32, f32)]) -> FrameOrder {
        self.stats.frames += 1;
        let out = match self.config.mode {
            WarmStartMode::Exact => {
                let out = self.inner.order(current);
                self.shadow_account(current);
                self.store(&out.order);
                out
            }
            WarmStartMode::Repair => match self.try_warm(current) {
                Ok(out) => out,
                // The Err carries this frame's membership diff against
                // the cache, recorded on the cold result for diagnostics.
                Err(cause) => self.cold(current, cause),
            },
        };
        self.total_cost += out.cost;
        out
    }

    fn cost(&self) -> SortCost {
        self.total_cost
    }

    fn table(&self) -> Option<&GaussianTable> {
        // Exact mode delegates *all* observable behaviour to the inner
        // strategy — including which table it reports.
        if self.config.mode == WarmStartMode::Exact || !self.primed {
            self.inner.table()
        } else {
            Some(&self.cache)
        }
    }

    fn invalidate_cache(&mut self) {
        if self.primed {
            self.stats.invalidations += 1;
        }
        self.primed = false;
        self.cache.set_entries(Vec::new());
        self.inner.invalidate_cache();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategies::StrategyKind;

    fn warm(kind: StrategyKind, config: WarmStartConfig) -> WarmStartSorter {
        WarmStartSorter::new(kind.build(Default::default()), config)
    }

    fn frame(ids: &[u32], depth_of: impl Fn(u32) -> f32) -> Vec<(u32, f32)> {
        ids.iter().map(|&id| (id, depth_of(id))).collect()
    }

    fn ids_of(order: &[TableEntry]) -> Vec<u32> {
        order.iter().map(|e| e.id).collect()
    }

    fn drive(s: &mut WarmStartSorter, frame_index: u64, input: &[(u32, f32)]) -> FrameOrder {
        s.begin_frame(frame_index);
        s.order(input)
    }

    #[test]
    fn first_frame_is_cold_then_warm() {
        let mut s = warm(StrategyKind::FullResort, WarmStartConfig::default());
        let f0 = drive(&mut s, 0, &frame(&[1, 2, 3], |id| id as f32));
        assert!(!f0.reuse.unwrap().warm);
        assert_eq!(
            (f0.incoming, f0.outgoing),
            (3, 0),
            "cold frames report churn against the (empty) cache"
        );
        let f1 = drive(&mut s, 1, &frame(&[1, 2, 3], |id| id as f32 + 0.1));
        let r = f1.reuse.unwrap();
        assert!(r.warm);
        assert_eq!(r.reused, 3);
        assert_eq!(s.stats().warm_frames, 1);
        assert_eq!(s.stats().cold_frames, 1);
    }

    #[test]
    fn warm_repair_matches_cold_exact_sort() {
        // Over an exact inner strategy, the repaired order must be the
        // exact sorted order — same IDs and depths as a cold sort —
        // across drifting depths and churning membership.
        let mut s = warm(
            StrategyKind::FullResort,
            WarmStartConfig::default().with_repair_budget_factor(64),
        );
        let mut cold = StrategyKind::FullResort.build(Default::default());
        for f in 0..12u64 {
            let ids: Vec<u32> = (0..300)
                .filter(|i| !(i + f as u32).is_multiple_of(11)) // ~9% churn per frame
                .collect();
            let input = frame(&ids, |id| {
                ((id as f32 * 0.37 + f as f32 * 0.05).sin() * 50.0) + id as f32 * 0.01
            });
            let a = drive(&mut s, f, &input);
            cold.begin_frame(f);
            let b = cold.order(&input);
            assert_eq!(a.order, b.order, "order diverged on frame {f}");
        }
        assert!(s.stats().warm_frames >= 10, "{:?}", s.stats());
    }

    #[test]
    fn warm_traffic_beats_cold_radix() {
        let ids: Vec<u32> = (0..2000).collect();
        let mut s = warm(StrategyKind::FullResort, WarmStartConfig::default());
        drive(&mut s, 0, &frame(&ids, |id| id as f32));
        let cold_bytes = s.cost().bytes_total();
        let f1 = drive(&mut s, 1, &frame(&ids, |id| id as f32 + 0.5));
        assert!(
            f1.cost.bytes_total() * 3 < cold_bytes,
            "warm {} vs cold {cold_bytes}",
            f1.cost.bytes_total()
        );
        assert_eq!(f1.cost.passes, 1, "warm path is a single off-chip pass");
    }

    #[test]
    fn low_retention_falls_back_to_inner() {
        let mut s = warm(
            StrategyKind::FullResort,
            WarmStartConfig::default().with_retention_threshold(0.9),
        );
        drive(&mut s, 0, &frame(&[1, 2, 3, 4], |id| id as f32));
        // Half the population departs: 0.5 < 0.9 threshold.
        let f1 = drive(&mut s, 1, &frame(&[1, 2, 9, 10], |id| id as f32));
        assert!(!f1.reuse.unwrap().warm);
        assert_eq!(s.stats().fallbacks, 1);
        assert_eq!(ids_of(&f1.order), vec![1, 2, 9, 10]);
        assert_eq!(
            (f1.incoming, f1.outgoing),
            (2, 2),
            "fallback frames still report the membership diff"
        );
    }

    #[test]
    fn repair_budget_abort_falls_back() {
        // Same membership (retention 1.0) but fully reversed depths: the
        // insertion repair blows its budget and the frame goes cold.
        let ids: Vec<u32> = (0..200).collect();
        let mut s = warm(
            StrategyKind::FullResort,
            WarmStartConfig::default().with_repair_budget_factor(1),
        );
        drive(&mut s, 0, &frame(&ids, |id| id as f32));
        let f1 = drive(&mut s, 1, &frame(&ids, |id| -(id as f32)));
        assert!(!f1.reuse.unwrap().warm);
        assert_eq!(s.stats().budget_aborts, 1);
        // Output is still the exact sorted order (cold inner sort).
        assert_eq!(ids_of(&f1.order), (0..200).rev().collect::<Vec<u32>>());
    }

    #[test]
    fn exact_mode_is_byte_identical_to_inner() {
        for kind in [
            StrategyKind::FullResort,
            StrategyKind::Hierarchical,
            StrategyKind::Periodic(2),
            StrategyKind::Background(1),
            StrategyKind::ReuseUpdate,
        ] {
            let mut shadow = warm(kind, WarmStartConfig::exact());
            let mut bare = kind.build(Default::default());
            for f in 0..6u64 {
                let ids: Vec<u32> = (0..80 + (f as u32 * 13) % 17).collect();
                let input = frame(&ids, |id| ((id * 31 + f as u32 * 7) % 97) as f32);
                let a = drive(&mut shadow, f, &input);
                bare.begin_frame(f);
                let b = bare.order(&input);
                assert_eq!(a, b, "{kind:?} exact mode diverged on frame {f}");
            }
            assert_eq!(shadow.cost(), bare.cost(), "{kind:?} cumulative cost");
            // Shadow statistics still ran.
            assert_eq!(shadow.stats().frames, 6);
            assert!(shadow.stats().warm_frames > 0, "{kind:?}");
        }
    }

    #[test]
    fn repair_mode_keeps_inner_frame_indices_contiguous() {
        // Periodic(2) refreshes on its even *inner* frames. With warm
        // frames in between, the inner counter must not skip, or the
        // refresh phase would drift.
        let mut s = warm(StrategyKind::Periodic(2), WarmStartConfig::default());
        // Frame 0: cold (inner frame 0, refresh).
        let f0 = drive(&mut s, 0, &frame(&[1, 2], |id| id as f32));
        assert!(f0.cost.bytes_total() > 0);
        // Frames 1..4 fully retained: warm, inner untouched.
        for f in 1..4 {
            assert!(
                drive(&mut s, f, &frame(&[1, 2], |id| id as f32))
                    .reuse
                    .unwrap()
                    .warm
            );
        }
        // Total membership change: cold again — inner frame 1, which for
        // Periodic(2) is a *stale* frame (no refresh, zero cost).
        let f4 = drive(&mut s, 4, &frame(&[8, 9], |id| id as f32));
        assert!(!f4.reuse.unwrap().warm);
        assert_eq!(f4.cost.bytes_total(), 0, "inner saw frame 1, not 4");
    }

    #[test]
    fn empty_cache_and_empty_frames_are_safe() {
        let mut s = warm(StrategyKind::FullResort, WarmStartConfig::default());
        let f0 = drive(&mut s, 0, &[]);
        assert!(f0.order.is_empty());
        assert!(!f0.reuse.unwrap().warm);
        // Empty cache ⇒ next populated frame is cold, not a 0/0 retention.
        let f1 = drive(&mut s, 1, &frame(&[5], |_| 1.0));
        assert!(!f1.reuse.unwrap().warm);
        let f2 = drive(&mut s, 2, &frame(&[5], |_| 2.0));
        assert!(f2.reuse.unwrap().warm);
    }

    #[test]
    fn validate_rejects_out_of_range_parameters() {
        assert!(WarmStartConfig::default().validate().is_ok());
        assert!(WarmStartConfig::default()
            .with_retention_threshold(1.5)
            .validate()
            .is_err());
        assert!(WarmStartConfig::default()
            .with_retention_threshold(f64::NAN)
            .validate()
            .is_err());
        assert!(WarmStartConfig::default()
            .with_repair_budget_factor(0)
            .validate()
            .is_err());
    }

    #[test]
    fn name_and_table_surface_the_wrapper() {
        let mut s = warm(StrategyKind::Hierarchical, WarmStartConfig::default());
        assert_eq!(s.name(), "warm-start(hierarchical)");
        assert!(s.table().is_none(), "unprimed: inner (table-less)");
        drive(&mut s, 0, &frame(&[3, 1], |id| id as f32));
        let t = s.table().expect("primed cache");
        assert_eq!(ids_of(t.entries()), vec![1, 3]);
    }

    #[test]
    fn invalidate_cache_forces_cold_and_counts() {
        let mut s = warm(StrategyKind::FullResort, WarmStartConfig::default());
        let ids: Vec<u32> = (0..50).collect();
        drive(&mut s, 0, &frame(&ids, |id| id as f32));
        assert!(
            drive(&mut s, 1, &frame(&ids, |id| id as f32 + 0.1))
                .reuse
                .unwrap()
                .warm
        );
        s.invalidate_cache();
        // Invalidating an already-empty cache is not double-counted.
        s.invalidate_cache();
        assert_eq!(s.stats().invalidations, 1);
        // Identical population, but the cache is gone: cold, exact order.
        let f2 = drive(&mut s, 2, &frame(&ids, |id| id as f32 + 0.2));
        assert!(!f2.reuse.unwrap().warm);
        assert_eq!(ids_of(&f2.order), ids);
        // The cache re-primes afterwards.
        assert!(
            drive(&mut s, 3, &frame(&ids, |id| id as f32 + 0.3))
                .reuse
                .unwrap()
                .warm
        );
    }

    #[test]
    fn warm_sorter_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<WarmStartSorter>();
    }

    #[test]
    fn cumulative_cost_sums_warm_and_cold_frames() {
        let mut s = warm(StrategyKind::FullResort, WarmStartConfig::default());
        let ids: Vec<u32> = (0..100).collect();
        let c0 = drive(&mut s, 0, &frame(&ids, |id| id as f32)).cost;
        let c1 = drive(&mut s, 1, &frame(&ids, |id| id as f32 + 0.5)).cost;
        assert_eq!(s.cost().bytes_total(), c0.bytes_total() + c1.bytes_total());
        assert_eq!(s.cost().compares, c0.compares + c1.compares);
    }
}
