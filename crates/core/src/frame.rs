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
}

impl FrameResult {
    /// Mean per-tile table length this frame.
    #[must_use]
    pub fn mean_table_len(&self) -> f64 {
        if self.tile_loads.is_empty() {
            0.0
        } else {
            // Indexed loop: the summation order is explicit
            // (ARCHITECTURE.md § "Determinism contract", clause 3).
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
    /// configuration (SH degree, LOD, raster fast path, strategy), since
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
        };
        assert_eq!(fr.mean_table_len(), 20.0);
        assert_eq!(fr.total_table_entries(), 40);
    }
}
