//! Per-frame render results.

use neo_pipeline::{FrameStats, Image};
use neo_sort::SortCost;

/// Stable identity of a [`crate::RenderSession`] within a serving or
/// multi-session context.
///
/// The engine does not mint identifiers itself (a global counter would
/// make identity depend on session-creation scheduling); callers that
/// need identity — the `neo-serve` scheduler, a capture harness — assign
/// ids via [`crate::RenderEngine::session_with_id`] in whatever order is
/// deterministic for them. Sessions created with
/// [`crate::RenderEngine::session`] carry [`SessionId::ANONYMOUS`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SessionId(pub u32);

impl SessionId {
    /// The id of sessions minted without an explicit identity.
    pub const ANONYMOUS: SessionId = SessionId(u32::MAX);
}

impl std::fmt::Display for SessionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if *self == SessionId::ANONYMOUS {
            write!(f, "s?")
        } else {
            write!(f, "s{}", self.0)
        }
    }
}

/// Aggregate warm-start temporal-cache statistics for one frame.
///
/// Populated only when the session's strategies carry a temporal cache
/// (see [`crate::RendererConfig::with_temporal_cache`]); all-zero
/// otherwise. Every field is an order-independent integer sum over
/// tiles, so the values are byte-identical across thread counts and shard
/// plans like the rest of the frame result.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TemporalCacheStats {
    /// Tiles served from the warm cache (repair path) this frame.
    pub warm_tiles: u64,
    /// Cache-carrying tiles that fell back to a cold inner sort this
    /// frame (first touch, low retention, or repair-budget abort).
    pub cold_tiles: u64,
    /// Cached entries reused across all warm tiles this frame.
    pub reused_entries: u64,
    /// Element moves spent repairing retained orders this frame.
    pub repair_moves: u64,
}

impl TemporalCacheStats {
    /// Tiles whose strategy carries a temporal cache (warm + cold).
    #[must_use]
    pub fn cached_tiles(&self) -> u64 {
        self.warm_tiles + self.cold_tiles
    }

    /// Fraction of cache-carrying tiles served warm this frame (0.0 when
    /// no tile carries a cache).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.cached_tiles();
        if total == 0 {
            0.0
        } else {
            self.warm_tiles as f64 / total as f64
        }
    }

    /// Mean repair moves per warm tile (the per-frame repair cost).
    #[must_use]
    pub fn repair_cost_per_warm_tile(&self) -> f64 {
        if self.warm_tiles == 0 {
            0.0
        } else {
            self.repair_moves as f64 / self.warm_tiles as f64
        }
    }
}

impl std::ops::AddAssign for TemporalCacheStats {
    fn add_assign(&mut self, rhs: Self) {
        self.warm_tiles += rhs.warm_tiles;
        self.cold_tiles += rhs.cold_tiles;
        self.reused_entries += rhs.reused_entries;
        self.repair_moves += rhs.repair_moves;
    }
}

/// Per-tile load snapshot, the workload record the performance model
/// consumes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TileLoad {
    /// Flat tile index.
    pub tile: u32,
    /// Table length after this frame's merge.
    pub table_len: u32,
    /// Incoming Gaussians inserted this frame.
    pub incoming: u32,
    /// Outgoing Gaussians flagged this frame.
    pub outgoing: u32,
}

/// Everything produced by rendering one frame.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameResult {
    /// The rendered image (absent in workload-statistics mode).
    pub image: Option<Image>,
    /// Functional pipeline statistics, including the DRAM-traffic ledger.
    pub stats: FrameStats,
    /// Aggregate sorting cost across all tiles.
    pub sort_cost: SortCost,
    /// Total incoming Gaussians across tiles.
    pub incoming: usize,
    /// Total table entries flagged outgoing this frame across tiles.
    pub outgoing: usize,
    /// Per-tile loads for occupied tiles.
    pub tile_loads: Vec<TileLoad>,
    /// Warm-start temporal-cache hit-rate/repair statistics (all-zero
    /// when no strategy carries a temporal cache).
    pub temporal: TemporalCacheStats,
}

impl FrameResult {
    /// Mean per-tile table length this frame.
    #[must_use]
    pub fn mean_table_len(&self) -> f64 {
        if self.tile_loads.is_empty() {
            0.0
        } else {
            // Indexed loop: the summation order is explicit (r10).
            let mut total = 0.0f64;
            for i in 0..self.tile_loads.len() {
                total += f64::from(self.tile_loads[i].table_len);
            }
            total / self.tile_loads.len() as f64
        }
    }

    /// Total table entries across tiles.
    #[must_use]
    pub fn total_table_entries(&self) -> u64 {
        self.tile_loads.iter().map(|t| u64::from(t.table_len)).sum()
    }

    /// Deterministic scalar summarizing how much work this frame did —
    /// the per-frame cost hook consumed by `neo-serve` cost models.
    ///
    /// Defined as the frame's total DRAM traffic in bytes plus weighted
    /// compute proxies: `traffic + 32·blend_ops + 4·pixel_visits`. Every
    /// term is a shard-invariant integer sum, so the value is
    /// byte-identical across thread counts and shard plans — which is
    /// what lets a virtual clock built on it replay identically at any
    /// [`crate::Parallelism`]. The value does depend on functional
    /// configuration (storage format, raster fast path, strategy), since
    /// those change the work actually performed.
    #[must_use]
    pub fn work_units(&self) -> u64 {
        self.stats.traffic.total() + 32 * self.stats.blend_ops + 4 * self.stats.pixel_visits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_table_len() {
        let fr = FrameResult {
            image: None,
            stats: FrameStats::default(),
            sort_cost: SortCost::new(),
            incoming: 0,
            outgoing: 0,
            tile_loads: vec![
                TileLoad {
                    tile: 0,
                    table_len: 10,
                    incoming: 1,
                    outgoing: 0,
                },
                TileLoad {
                    tile: 1,
                    table_len: 30,
                    incoming: 0,
                    outgoing: 2,
                },
            ],
            temporal: TemporalCacheStats::default(),
        };
        assert_eq!(fr.mean_table_len(), 20.0);
        assert_eq!(fr.total_table_entries(), 40);
        assert_eq!(fr.temporal.hit_rate(), 0.0);
    }

    #[test]
    fn temporal_stats_rates() {
        let t = TemporalCacheStats {
            warm_tiles: 3,
            cold_tiles: 1,
            reused_entries: 300,
            repair_moves: 12,
        };
        assert_eq!(t.cached_tiles(), 4);
        assert!((t.hit_rate() - 0.75).abs() < 1e-12);
        assert!((t.repair_cost_per_warm_tile() - 4.0).abs() < 1e-12);
        let mut sum = TemporalCacheStats::default();
        sum += t;
        sum += t;
        assert_eq!(sum.warm_tiles, 6);
        assert_eq!(sum.repair_moves, 24);
        assert_eq!(
            TemporalCacheStats::default().repair_cost_per_warm_tile(),
            0.0
        );
    }
}
