//! Pipeline-stage bookkeeping: stage labels, DRAM-traffic ledger, and
//! per-frame statistics.
//!
//! Every component that touches (modelled) off-chip memory charges bytes to
//! a [`TrafficLedger`]; the performance models in `neo-sim` convert ledgers
//! into latency. This mirrors the paper's methodology of attributing DRAM
//! traffic to the pipeline stages (Figure 5).

use std::fmt;
use std::ops::{Add, AddAssign};

/// The 3DGS pipeline stages used for traffic attribution.
///
/// Frustum culling and feature extraction are merged in the paper's traffic
/// breakdowns ("Feature Extraction"), so the ledger uses three buckets plus
/// a catch-all for table metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// ❶+❷ Frustum culling and feature extraction (projection, SH color).
    FeatureExtraction,
    /// ❸ Depth sorting, including Gaussian-table reads/writes.
    Sorting,
    /// ❹ α-blending rasterization (feature fetches, pixel writes).
    Rasterization,
}

impl Stage {
    /// All stages in pipeline order.
    pub const ALL: [Stage; 3] = [
        Stage::FeatureExtraction,
        Stage::Sorting,
        Stage::Rasterization,
    ];

    /// Stage name as used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Stage::FeatureExtraction => "Feature Extraction",
            Stage::Sorting => "Sorting",
            Stage::Rasterization => "Rasterization",
        }
    }

    fn index(self) -> usize {
        match self {
            Stage::FeatureExtraction => 0,
            Stage::Sorting => 1,
            Stage::Rasterization => 2,
        }
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-stage DRAM read/write byte counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrafficLedger {
    reads: [u64; 3],
    writes: [u64; 3],
}

impl TrafficLedger {
    /// A ledger with all counters at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Charges `bytes` of DRAM reads to `stage`.
    pub fn read(&mut self, stage: Stage, bytes: u64) {
        self.reads[stage.index()] += bytes;
    }

    /// Charges `bytes` of DRAM writes to `stage`.
    pub fn write(&mut self, stage: Stage, bytes: u64) {
        self.writes[stage.index()] += bytes;
    }

    /// Read bytes charged to `stage`.
    pub fn reads(&self, stage: Stage) -> u64 {
        self.reads[stage.index()]
    }

    /// Write bytes charged to `stage`.
    pub fn writes(&self, stage: Stage) -> u64 {
        self.writes[stage.index()]
    }

    /// Total (read + write) bytes for `stage`.
    pub fn stage_total(&self, stage: Stage) -> u64 {
        self.reads(stage) + self.writes(stage)
    }

    /// Total bytes across all stages.
    pub fn total(&self) -> u64 {
        Stage::ALL.iter().map(|&s| self.stage_total(s)).sum()
    }
}

impl Add for TrafficLedger {
    type Output = Self;
    fn add(self, rhs: Self) -> Self {
        let mut out = self;
        out += rhs;
        out
    }
}

impl AddAssign for TrafficLedger {
    fn add_assign(&mut self, rhs: Self) {
        for i in 0..3 {
            self.reads[i] += rhs.reads[i];
            self.writes[i] += rhs.writes[i];
        }
    }
}

/// Counters summarizing one rendered frame.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FrameStats {
    /// Gaussians in the input cloud.
    pub input: usize,
    /// Gaussians surviving frustum culling.
    pub projected: usize,
    /// Total tile assignments after duplication (Σ per-tile counts).
    pub duplicates: usize,
    /// Tiles with at least one Gaussian.
    pub occupied_tiles: usize,
    /// α-blend operations performed during rasterization.
    pub blend_ops: u64,
    /// Pixels that saturated (early-terminated) during blending.
    pub saturated_pixels: u64,
    /// (splat, pixel) pairs visited by the rasterizer's blend loop — the
    /// work metric the exact-clipped row-interval fast path reduces
    /// (see [`crate::RenderConfig::raster_fast_path`]). The only frame
    /// statistic allowed to differ between the fast path and full-row
    /// spans.
    pub pixel_visits: u64,
    /// DRAM traffic attributed to this frame.
    pub traffic: TrafficLedger,
    /// Clusters in the spatial index consulted this frame (0 when the
    /// LOD path is disabled — the flat walk consults no index).
    pub clusters_total: u64,
    /// Clusters rejected by whole-cluster frustum culling.
    pub clusters_culled: u64,
    /// Clusters rendered from merged LOD proxies instead of members.
    pub clusters_lod: u64,
    /// Member splats whose per-splat projection was skipped thanks to
    /// the cluster index (culled-cluster members plus the
    /// member-minus-proxy surplus of proxied clusters).
    pub lod_splats_saved: u64,
}

impl FrameStats {
    /// Mean number of Gaussians per occupied tile.
    pub fn mean_tile_population(&self) -> f64 {
        if self.occupied_tiles == 0 {
            0.0
        } else {
            self.duplicates as f64 / self.occupied_tiles as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_accumulates_per_stage() {
        let mut l = TrafficLedger::new();
        l.read(Stage::Sorting, 100);
        l.write(Stage::Sorting, 50);
        l.read(Stage::Rasterization, 10);
        assert_eq!(l.stage_total(Stage::Sorting), 150);
        assert_eq!(l.stage_total(Stage::Rasterization), 10);
        assert_eq!(l.total(), 160);
    }

    #[test]
    fn empty_ledger_total_is_zero() {
        assert_eq!(TrafficLedger::new().total(), 0);
    }

    #[test]
    fn ledgers_add() {
        let mut a = TrafficLedger::new();
        a.read(Stage::FeatureExtraction, 5);
        let mut b = TrafficLedger::new();
        b.write(Stage::FeatureExtraction, 7);
        let c = a + b;
        assert_eq!(c.stage_total(Stage::FeatureExtraction), 12);
    }

    #[test]
    fn stage_names_match_paper() {
        assert_eq!(Stage::Sorting.to_string(), "Sorting");
        assert_eq!(Stage::ALL.len(), 3);
    }

    #[test]
    fn mean_tile_population() {
        let stats = FrameStats {
            duplicates: 100,
            occupied_tiles: 4,
            ..Default::default()
        };
        assert_eq!(stats.mean_tile_population(), 25.0);
        assert_eq!(FrameStats::default().mean_tile_population(), 0.0);
    }
}
