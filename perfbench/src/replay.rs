//! The traced replay: one frame rebuilt from the layers' public
//! functions, with a span timed around each layer call.
//!
//! The replay keeps the same per-session state the engine keeps (tile
//! grid, one sorting strategy per occupied tile with its tile-local frame
//! counter and LOD tag set, reused raster scratch), so on a trajectory it
//! reproduces the engine's `FrameResult` exactly. The benchmark checks
//! that on every traced frame. Work the replay does between spans (the
//! `by_id` table, strategy creation, blend-list gather, accounting) is
//! the engine's orchestration, reported as `core` overhead.

use neo_core::{FrameResult, RendererConfig, StrategyKind};
use neo_pipeline::{
    bin_to_tiles, bin_to_tiles_with_clusters, project_clusters, project_storage,
    rasterize_tile_with_scratch, Image, ProjectedGaussian, RasterScratch, RenderConfig, TileGrid,
};
use neo_scene::{Camera, CloudStorage, ClusteredCloud};
use neo_sort::SortingStrategy;
use std::time::Instant;

/// Nanoseconds spent inside each layer's calls during one frame.
#[derive(Debug, Clone, Copy, Default)]
pub struct Spans {
    /// `project_storage` / `project_clusters`.
    pub project: u64,
    /// `bin_to_tiles` / `bin_to_tiles_with_clusters`.
    pub bin: u64,
    /// Per-tile `SortingStrategy::begin_frame` + `order`.
    pub sort: u64,
    /// Per-tile `rasterize_tile_with_scratch`.
    pub raster: u64,
    /// Per-tile `RasterScratch::blit_to`.
    pub merge: u64,
}

impl Spans {
    pub fn total(&self) -> u64 {
        self.project + self.bin + self.sort + self.raster + self.merge
    }
}

impl std::ops::AddAssign for Spans {
    fn add_assign(&mut self, o: Self) {
        self.project += o.project;
        self.bin += o.bin;
        self.sort += o.sort;
        self.raster += o.raster;
        self.merge += o.merge;
    }
}

/// What the replay computed for one frame: the image plus the counts the
/// benchmark compares against the engine and reports per layer.
#[derive(Debug, Clone, Default)]
pub struct ReplayFrame {
    pub image: Option<Image>,
    pub input: u64,
    pub projected: u64,
    pub assignments: u64,
    pub entries: u64,
    pub incoming: u64,
    pub sort_bytes: u64,
    pub pixel_visits: u64,
    pub blend_ops: u64,
    pub clusters_total: u64,
    pub clusters_culled: u64,
    pub clusters_proxied: u64,
    pub splats_visited: u64,
    /// Per occupied tile, its binned entry count (the loads a
    /// `ShardPlan` balances).
    pub tile_loads: Vec<usize>,
}

impl ReplayFrame {
    /// Names the first field where the replay disagrees with the engine's
    /// result, or `None` when they agree.
    pub fn mismatch(&self, fr: &FrameResult) -> Option<&'static str> {
        let s = &fr.stats;
        let checks = [
            (self.image == fr.image, "image"),
            (self.projected == s.projected as u64, "projected"),
            (self.assignments == s.duplicates as u64, "duplicates"),
            (self.pixel_visits == s.pixel_visits, "pixel_visits"),
            (self.blend_ops == s.blend_ops, "blend_ops"),
            (self.entries == fr.total_table_entries(), "table entries"),
            (self.incoming == fr.incoming as u64, "incoming"),
            (self.sort_bytes == fr.sort_cost.bytes_total(), "sort bytes"),
            (self.clusters_culled == s.clusters_culled, "clusters_culled"),
            (self.clusters_proxied == s.clusters_lod, "clusters_lod"),
        ];
        checks.iter().find(|(ok, _)| !ok).map(|&(_, what)| what)
    }
}

struct Slot {
    strategy: Box<dyn SortingStrategy>,
    next_frame: u64,
    prev_tags: Vec<u32>,
}

/// One replayed session. Supports what the benchmark's engines use: a
/// built-in strategy, serial rendering, image on or off, LOD on or off,
/// no warm-start cache.
pub struct Replay {
    config: RendererConfig,
    kind: StrategyKind,
    grid: Option<TileGrid>,
    slots: Vec<Option<Slot>>,
    scratch: RasterScratch,
}

impl Replay {
    pub fn new(config: RendererConfig, kind: StrategyKind) -> Self {
        assert!(
            config.temporal_cache.is_none(),
            "the replay models cache-less strategies only"
        );
        Self {
            config,
            kind,
            grid: None,
            slots: Vec::new(),
            scratch: RasterScratch::new(),
        }
    }

    /// Renders `cam` through the layers' public functions, timing each.
    pub fn frame(
        &mut self,
        cam: &Camera,
        storage: &dyn CloudStorage,
        index: Option<&ClusteredCloud>,
    ) -> (ReplayFrame, Spans) {
        let mut spans = Spans::default();
        let mut out = ReplayFrame {
            input: storage.len() as u64,
            ..ReplayFrame::default()
        };
        let grid = TileGrid::new(cam.width, cam.height, self.config.tile_size);
        if self.grid != Some(grid) {
            self.slots.clear();
            self.slots.resize_with(grid.tile_count(), || None);
            self.grid = Some(grid);
        }
        let lod = self.config.lod.as_ref().zip(index);

        let t = Instant::now();
        let (projected, tags) = match lod {
            Some((cfg, index)) => {
                let cp = project_clusters(cam, storage, index, cfg);
                out.clusters_total = cp.clusters_total;
                out.clusters_culled = cp.clusters_culled;
                out.clusters_proxied = cp.clusters_proxied;
                out.splats_visited = cp.splats_visited;
                (cp.projected, Some(cp.tags))
            }
            None => (project_storage(cam, storage), None),
        };
        spans.project = elapsed_ns(t);

        let t = Instant::now();
        let (assignments, tile_tags) = match &tags {
            Some(tags) => {
                let (a, tt) = bin_to_tiles_with_clusters(&grid, &projected, tags);
                (a, Some(tt))
            }
            None => (bin_to_tiles(&grid, &projected), None),
        };
        spans.bin = elapsed_ns(t);
        out.projected = projected.len() as u64;
        out.assignments = assignments.total_assignments() as u64;

        let id_space = storage.len() + lod.map_or(0, |(_, index)| index.proxy_count());
        let mut by_id: Vec<Option<usize>> = vec![None; id_space];
        for (i, p) in projected.iter().enumerate() {
            by_id[p.id as usize] = Some(i);
        }
        let sorter_config = self.config.sorter_config();
        for (tile, _) in assignments.iter_occupied() {
            self.slots[tile].get_or_insert_with(|| Slot {
                strategy: self.kind.build(sorter_config),
                next_frame: 0,
                prev_tags: Vec::new(),
            });
        }
        let raster_cfg = RenderConfig {
            tile_size: self.config.tile_size,
            background: self.config.background,
            subtiling: self.config.subtiling,
            raster_fast_path: self.config.raster_fast_path,
            ..RenderConfig::default()
        };
        let mut image = self
            .config
            .render_image
            .then(|| Image::new(cam.width, cam.height, self.config.background));

        for (tile, entries) in assignments.iter_occupied() {
            out.tile_loads.push(entries.len());
            let slot = self.slots[tile].as_mut().expect("created above");
            if let Some(all) = &tile_tags {
                if tags_flipped(&slot.prev_tags, &all[tile]) {
                    slot.strategy.invalidate_cache();
                }
                slot.prev_tags.clone_from(&all[tile]);
            }
            let frame = slot.next_frame;
            slot.next_frame += 1;

            let t = Instant::now();
            slot.strategy.begin_frame(frame);
            let order = slot.strategy.order(entries);
            spans.sort += elapsed_ns(t);
            out.entries += order.order.len() as u64;
            out.incoming += order.incoming as u64;
            out.sort_bytes += order.cost.bytes_total();

            let Some(img) = image.as_mut() else {
                continue;
            };
            // Blend in the strategy's order, skipping stale IDs.
            let blend: Vec<&ProjectedGaussian> = order
                .order
                .iter()
                .filter(|e| e.valid)
                .filter_map(|e| by_id.get(e.id as usize).copied().flatten())
                .map(|i| &projected[i])
                .collect();
            let t = Instant::now();
            let ts =
                rasterize_tile_with_scratch(&mut self.scratch, &grid, tile, &blend, &raster_cfg);
            spans.raster += elapsed_ns(t);
            let t = Instant::now();
            self.scratch.blit_to(img, &grid, tile);
            spans.merge += elapsed_ns(t);
            out.pixel_visits += ts.pixel_visits;
            out.blend_ops += ts.blend_ops;
        }
        out.image = image;
        (out, spans)
    }
}

/// Whether a cluster present in both sorted tag sets flipped between
/// proxy and member rendering (the engine's cache-invalidation rule).
fn tags_flipped(prev: &[u32], cur: &[u32]) -> bool {
    let (mut i, mut j) = (0, 0);
    while i < prev.len() && j < cur.len() {
        match (prev[i] >> 1).cmp(&(cur[j] >> 1)) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                if prev[i] != cur[j] {
                    return true;
                }
                i += 1;
                j += 1;
            }
        }
    }
    false
}

pub fn elapsed_ns(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flips_are_detected_only_for_shared_clusters() {
        // Cluster 3 as members (6) then as proxy (7): a flip.
        assert!(tags_flipped(&[2, 6], &[2, 7]));
        // Cluster 3 leaves and cluster 4 arrives: no shared cluster flips.
        assert!(!tags_flipped(&[2, 6], &[2, 8]));
        assert!(!tags_flipped(&[], &[1]));
    }
}
