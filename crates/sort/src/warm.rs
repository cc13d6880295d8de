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
//! Over an *exact* inner strategy (full-resort, hierarchical) the
//! repaired order is itself exact — identical IDs and depths to the cold
//! sort, by construction of the key-ordered repair and merge — so
//! rendered images are byte-identical while the sorting traffic drops to
//! a single pass. Only the [`SortCost`] differs from cold sorting.
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
//! ```

use crate::bitonic::pad_entry;
use crate::merge::{merge_into, sort_chunk, ChunkScratch};
use crate::strategies::{FrameOrder, SortingStrategy, TileInput, TileReuse};
use crate::{GaussianTable, SortCost, TableEntry, ENTRY_BYTES};

/// Why a frame went cold, carrying the membership diff the warm attempt
/// measured so the cold result can still report it.
#[derive(Debug, Clone, Copy)]
struct ColdCause {
    retention: f64,
    incoming: usize,
    outgoing: usize,
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
}

impl Default for WarmStartConfig {
    fn default() -> Self {
        Self {
            retention_threshold: 0.5,
            repair_budget_factor: 4,
        }
    }
}

impl WarmStartConfig {
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

/// A temporal-cache wrapper around any inner [`SortingStrategy`] — see
/// the [module docs](crate::warm) for the algorithm.
///
/// The cache is strictly tile-local state, like every other strategy's
/// tables, so warm-start sorting composes with `neo-core`'s intra-frame
/// worker pool unchanged: shard geometry cannot affect its output.
///
/// # Precondition: unique IDs per frame
///
/// Each [`SortingStrategy::order`] call's entries should have **distinct
/// Gaussian IDs**: the membership diff is keyed by ID, so duplicates
/// collapse to the last depth given and the repaired order can disagree
/// with a cold sort of the duplicated input. Tile binning never assigns
/// a splat to the same tile twice, so every input produced by the
/// rendering pipeline satisfies this; direct callers feeding synthetic
/// duplicate IDs should deduplicate first.
#[derive(Debug)]
pub struct WarmStartSorter {
    inner: Box<dyn SortingStrategy>,
    config: WarmStartConfig,
    name: String,
    /// Previous frame's blend order (valid entries only); meaningful only
    /// once `primed` is set.
    cache: GaussianTable,
    /// IDs of the cached entries, sorted and deduplicated.
    cached_ids: Vec<u32>,
    primed: bool,
    /// Frame indices forwarded to the inner strategy. The inner strategy
    /// only sees the frames it actually sorts, as a contiguous 0,1,2,…
    /// sequence (parity-sensitive inner logic such as DPS interleaving
    /// must not observe gaps).
    inner_frames: u64,
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
            cached_ids: Vec::new(),
            primed: false,
            inner_frames: 0,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &WarmStartConfig {
        &self.config
    }

    /// The wrapped inner strategy.
    pub fn inner(&self) -> &dyn SortingStrategy {
        self.inner.as_ref()
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
        let input = TileInput::new(current);
        // Retained entries in cached order, at this frame's depths; the
        // arrivals are the input entries whose ID was not cached.
        let mut retained: Vec<TableEntry> = self
            .cache
            .entries()
            .iter()
            .filter_map(|e| Some(TableEntry::new(e.id, input.depth(e.id)?)))
            .collect();
        let mut arrived = input.not_in(&self.cached_ids);
        let retention = retained.len() as f64 / self.cache.len() as f64;
        let cause = ColdCause {
            retention,
            incoming: arrived.len(),
            outgoing: self.cache.len() - retained.len(),
        };
        if retention < self.config.retention_threshold {
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
                    return Err(cause);
                }
                j -= 1;
            }
            if j != i {
                retained[j] = e;
                repair_moves += 1;
            }
        }

        let mut scratch = ChunkScratch::default();
        let (arrived_len, cost_in) = sort_chunk(&mut arrived, true, &mut scratch);
        drop(scratch);
        let mut order = vec![pad_entry(); retained.len() + arrived_len];
        let (merged_len, cost_merge) =
            merge_into(&retained, &arrived[..arrived_len], false, &mut order);
        order.truncate(merged_len);

        // Traffic model: one read of the inherited table + the arrivals,
        // one write of the merged table — a single off-chip pass, the
        // bandwidth win over a cold multi-pass sort.
        let cost = SortCost {
            compares: repair_compares + cost_in.compares + cost_merge.compares,
            moves: repair_moves + cost_in.moves + cost_merge.moves,
            bytes_read: self.cache.byte_size()
                + neo_math::num::u64_from_usize(cause.incoming * ENTRY_BYTES),
            bytes_written: neo_math::num::u64_from_usize(merged_len * ENTRY_BYTES),
            passes: 1,
        };
        let reuse = TileReuse {
            warm: true,
            retention,
            reused: retained.len(),
            repair_moves,
        };
        self.cache.assign(&order);
        // The merged order holds exactly this frame's input IDs.
        self.cached_ids.clear();
        self.cached_ids.extend(input.ids());
        Ok(FrameOrder {
            order,
            cost,
            incoming: cause.incoming,
            outgoing: cause.outgoing,
            reuse: Some(reuse),
        })
    }

    /// The cold path: delegate this frame to the inner strategy and
    /// re-prime the cache from the valid entries of its output. Churn is
    /// reported against the (old) cache — the same semantics warm frames
    /// use — rather than whatever the inner strategy tracks, so tile loads
    /// stay comparable across warm and cold frames.
    fn cold(&mut self, current: &[(u32, f32)], cause: ColdCause) -> FrameOrder {
        let frame = self.inner_frames;
        self.inner_frames += 1;
        self.inner.begin_frame(frame);
        let mut out = self.inner.order(current);
        self.cache
            .set_entries(out.order.iter().copied().filter(|e| e.valid).collect());
        self.cached_ids.clear();
        self.cached_ids
            .extend(self.cache.entries().iter().map(|e| e.id));
        self.cached_ids.sort_unstable();
        self.cached_ids.dedup();
        self.primed = true;
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
}

impl SortingStrategy for WarmStartSorter {
    fn name(&self) -> &str {
        &self.name
    }

    fn begin_frame(&mut self, _frame_index: u64) {
        // Forwarded lazily from `cold` with its own contiguous counter, so
        // the inner strategy never observes index gaps.
    }

    fn order(&mut self, current: &[(u32, f32)]) -> FrameOrder {
        match self.try_warm(current) {
            Ok(out) => out,
            Err(cause) => self.cold(current, cause),
        }
    }

    fn table(&self) -> Option<&GaussianTable> {
        if self.primed {
            Some(&self.cache)
        } else {
            self.inner.table()
        }
    }

    fn invalidate_cache(&mut self) {
        self.primed = false;
        self.cache.set_entries(Vec::new());
        self.cached_ids.clear();
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

    /// An order with depths as bits, so NaN depths compare equal to
    /// themselves.
    fn bits(order: &[TableEntry]) -> Vec<(u32, u32, bool)> {
        order
            .iter()
            .map(|e| (e.id, e.depth.to_bits(), e.valid))
            .collect()
    }

    fn drive(s: &mut WarmStartSorter, frame_index: u64, input: &[(u32, f32)]) -> FrameOrder {
        s.begin_frame(frame_index);
        s.order(input)
    }

    /// A deterministic generator for the hostile-input tests.
    struct Lcg(u64);

    impl Lcg {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (self.0 >> 33) % n
        }
    }

    /// `frames` frames over IDs `0..300` with ~9% churn per frame and
    /// smoothly drifting depths, a fifth of them replaced by `special`
    /// depths; with `shuffle`, each frame's entries are in a random
    /// order instead of ascending by ID.
    fn hostile_frames(frames: u64, special: &[f32], shuffle: bool) -> Vec<Vec<(u32, f32)>> {
        let mut rng = Lcg(0x5EED);
        (0..frames)
            .map(|f| {
                let mut input: Vec<(u32, f32)> = (0..300u32)
                    .filter(|i| !(i + f as u32).is_multiple_of(11))
                    .map(|id| {
                        let drift = (id as f32 * 0.37 + f as f32 * 0.05).sin() * 50.0;
                        let depth = if special.is_empty() || rng.below(5) != 0 {
                            drift
                        } else {
                            special[rng.below(special.len() as u64) as usize]
                        };
                        (id, depth)
                    })
                    .collect();
                if shuffle {
                    for i in (1..input.len()).rev() {
                        input.swap(i, rng.below(i as u64 + 1) as usize);
                    }
                }
                input
            })
            .collect()
    }

    const HOSTILE_DEPTHS: [f32; 7] = [
        f32::NAN,
        -f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        0.0,
        -0.0,
        // The pad key's NaN pattern, legal with any ID but `u32::MAX`.
        f32::from_bits(0x7FFF_FFFF),
    ];

    /// Runs `frames` through a warm sorter and a bare one over `kind` and
    /// asserts the warm order equals the cold order every frame; returns
    /// how many frames were served warm.
    fn assert_warm_matches_cold(kind: StrategyKind, frames: &[Vec<(u32, f32)>]) -> usize {
        let mut s = warm(
            kind,
            WarmStartConfig::default().with_repair_budget_factor(64),
        );
        let mut cold = kind.build(Default::default());
        let mut warm_frames = 0;
        for (f, input) in frames.iter().enumerate() {
            let a = drive(&mut s, f as u64, input);
            cold.begin_frame(f as u64);
            let b = cold.order(input);
            assert_eq!(bits(&a.order), bits(&b.order), "{kind:?} frame {f}");
            warm_frames += usize::from(a.reuse.unwrap().warm);
        }
        warm_frames
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
    }

    #[test]
    fn warm_repair_matches_cold_exact_sort() {
        // Over an exact inner strategy, the repaired order must be the
        // exact sorted order — same IDs and depths as a cold sort —
        // across drifting depths and churning membership. Hostile depths
        // (NaN of both signs, ±inf, ±0) are ordered totally by
        // `TableEntry::key`, so they must match bit for bit too; shuffled
        // input takes the sorted-copy branch of the membership lookup.
        for special in [&[][..], &HOSTILE_DEPTHS] {
            for shuffle in [false, true] {
                let frames = hostile_frames(12, special, shuffle);
                for kind in [StrategyKind::FullResort, StrategyKind::Hierarchical] {
                    let warm_frames = assert_warm_matches_cold(kind, &frames);
                    assert!(warm_frames >= 10, "{kind:?}: {warm_frames} warm frames");
                }
            }
        }
    }

    #[test]
    fn hostile_depths_are_deterministic_over_approximate_inners() {
        let frames = hostile_frames(12, &HOSTILE_DEPTHS, false);
        for kind in [
            StrategyKind::Periodic(3),
            StrategyKind::Background(2),
            StrategyKind::ReuseUpdate,
        ] {
            let mut a = warm(kind, WarmStartConfig::default());
            let mut b = warm(kind, WarmStartConfig::default());
            for (f, input) in frames.iter().enumerate() {
                let (x, y) = (
                    drive(&mut a, f as u64, input),
                    drive(&mut b, f as u64, input),
                );
                assert_eq!(bits(&x.order), bits(&y.order), "{kind:?} frame {f}");
                assert_eq!(
                    (x.cost, x.incoming, x.outgoing, x.reuse),
                    (y.cost, y.incoming, y.outgoing, y.reuse),
                    "{kind:?} frame {f}"
                );
            }
        }
    }

    #[test]
    fn warm_traffic_beats_cold_radix() {
        let ids: Vec<u32> = (0..2000).collect();
        let mut s = warm(StrategyKind::FullResort, WarmStartConfig::default());
        let cold_bytes = drive(&mut s, 0, &frame(&ids, |id| id as f32))
            .cost
            .bytes_total();
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
        let r = f1.reuse.unwrap();
        assert!(!r.warm);
        assert_eq!(
            r.retention, 0.5,
            "a fallback: retention under the threshold"
        );
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
        let r = f1.reuse.unwrap();
        assert!(!r.warm);
        assert_eq!(r.retention, 1.0, "an abort: retention over the threshold");
        // Output is still the exact sorted order (cold inner sort).
        assert_eq!(ids_of(&f1.order), (0..200).rev().collect::<Vec<u32>>());
    }

    #[test]
    fn duplicate_cached_ids_count_arrivals_without_underflow() {
        // The inner order caches ID 5 twice. Retention counts both cached
        // entries (2 of 5 = 0.4, a fallback) while the input holds one
        // entry, which is no arrival: the cold frame reports 0 incoming.
        let mut s = warm(StrategyKind::FullResort, WarmStartConfig::default());
        drive(
            &mut s,
            0,
            &[(5, 1.0), (5, 2.0), (6, 3.0), (7, 4.0), (8, 5.0)],
        );
        let f1 = drive(&mut s, 1, &[(5, 1.5)]);
        let r = f1.reuse.unwrap();
        assert!(!r.warm);
        assert_eq!(r.retention, 0.4);
        assert_eq!((f1.incoming, f1.outgoing), (0, 3));
        assert_eq!(bits(&f1.order), bits(&[TableEntry::new(5, 1.5)]));
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
    fn invalidate_cache_forces_cold() {
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
        s.invalidate_cache();
        // Identical population, but the cache is gone: cold with
        // retention 0, exact order.
        let f2 = drive(&mut s, 2, &frame(&ids, |id| id as f32 + 0.2));
        let r = f2.reuse.unwrap();
        assert!(!r.warm);
        assert_eq!(r.retention, 0.0);
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
}
