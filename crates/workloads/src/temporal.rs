//! Temporal-similarity measurement (the data behind Figures 6 and 7).

use neo_pipeline::{bin_to_tiles, diff_tile_population, project_storage, TileGrid};
use neo_scene::{presets::ScenePreset, FrameSampler, Resolution};
use neo_sort::stats::{order_differences, percentile};

/// Per-scene temporal-similarity measurements.
#[derive(Debug, Clone, PartialEq)]
pub struct TemporalStats {
    /// Scene measured.
    pub scene: ScenePreset,
    /// Per-tile per-frame-pair retention samples (Figure 6's CDF input).
    pub retention_samples: Vec<f64>,
    /// Per-Gaussian order-difference samples pooled over tiles and frames
    /// (Figure 7's percentile input).
    pub order_diff_samples: Vec<usize>,
    /// Mean occupied-tile population, scaled to full scene size — the
    /// denominator that makes order differences comparable across scales.
    pub mean_tile_population: f64,
}

impl TemporalStats {
    /// Fraction of tiles retaining at least `threshold` of their
    /// Gaussians (the paper reports >90% of tiles retain ≥78%).
    pub fn tiles_retaining_at_least(&self, threshold: f64) -> f64 {
        if self.retention_samples.is_empty() {
            return 0.0;
        }
        let n = self
            .retention_samples
            .iter()
            .filter(|&&r| r >= threshold)
            .count();
        n as f64 / self.retention_samples.len() as f64
    }

    /// Order-difference percentile (90/95/99 in Figure 7).
    pub fn order_diff_percentile(&self, p: f64) -> usize {
        percentile(&self.order_diff_samples, p)
    }

    /// Order-difference percentile as a fraction of the mean tile
    /// population (the paper's p99 of 31 positions is ≈1% of a tile's
    /// thousands of Gaussians).
    pub fn relative_order_diff(&self, p: f64) -> f64 {
        if self.mean_tile_population <= 0.0 {
            return 0.0;
        }
        self.order_diff_percentile(p) as f64 / self.mean_tile_population
    }
}

/// Measures retention and order differences for `scene` over `frames`
/// consecutive frames at `resolution`, using a `scale`-sized build.
///
/// Order differences are measured between the *true* depth orders of
/// consecutive frames, scaled back up by `1/scale` (rank displacements
/// scale linearly with tile population).
pub fn measure_temporal(
    scene: ScenePreset,
    resolution: Resolution,
    frames: usize,
    scale: f64,
    speed: f32,
) -> TemporalStats {
    assert!(frames >= 2, "need at least two frames to compare");
    let cloud = scene.build_scaled(scale);
    let sampler = FrameSampler::new(scene.trajectory(), 30.0, resolution).with_speed(speed);
    let (w, h) = resolution.dims();
    let grid = TileGrid::new(w, h, 64);
    let inv = 1.0 / scale;

    let mut retention_samples = Vec::new();
    let mut order_diff_samples = Vec::new();
    // Per tile: the raw (id, depth) population (for the membership diff —
    // the same measurement the warm-start cache acts on) and the true
    // depth order (for rank displacements).
    type FrameTiles = (Vec<Vec<(u32, f32)>>, Vec<Vec<u32>>);
    let mut prev: Option<FrameTiles> = None;
    let mut pop_sum = 0.0f64;
    let mut pop_count = 0u64;

    for i in 0..frames {
        let cam = sampler.frame(i);
        let projected = project_storage(&cam, &cloud);
        let assignments = bin_to_tiles(&grid, &projected);
        let mut raw: Vec<Vec<(u32, f32)>> = vec![Vec::new(); grid.tile_count()];
        let mut tiles: Vec<Vec<u32>> = vec![Vec::new(); grid.tile_count()];
        for (tile, entries) in assignments.iter_occupied() {
            raw[tile] = entries.to_vec();
            // True depth order.
            let mut order: Vec<(u32, f32)> = entries.to_vec();
            order.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
            tiles[tile] = order.into_iter().map(|(id, _)| id).collect();
        }
        for tile in tiles.iter().filter(|t| !t.is_empty()) {
            pop_sum += tile.len() as f64 * inv;
            pop_count += 1;
        }
        if let Some((prev_raw, prev_tiles)) = &prev {
            for (t, (p, c)) in prev_tiles.iter().zip(&tiles).enumerate() {
                if p.is_empty() {
                    continue;
                }
                retention_samples.push(diff_tile_population(&prev_raw[t], &raw[t]).retention());
                for d in order_differences(p, c) {
                    // Scale rank displacement to full tile population.
                    order_diff_samples.push((d as f64 * inv).round() as usize);
                }
            }
        }
        prev = Some((raw, tiles));
    }

    TemporalStats {
        scene,
        retention_samples,
        order_diff_samples,
        mean_tile_population: if pop_count == 0 {
            0.0
        } else {
            pop_sum / pop_count as f64
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> TemporalStats {
        measure_temporal(
            ScenePreset::Family,
            Resolution::Custom(640, 360),
            4,
            0.005,
            1.0,
        )
    }

    #[test]
    fn retention_is_high_at_30fps() {
        let stats = quick();
        assert!(!stats.retention_samples.is_empty());
        // Paper Figure 6: >90% of tiles retain ≥78% of Gaussians.
        let frac = stats.tiles_retaining_at_least(0.78);
        assert!(frac > 0.80, "retention fraction {frac:.3}");
    }

    #[test]
    fn order_differences_are_small() {
        let stats = quick();
        // Paper Figure 7: p99 ≈ 31 positions on tiles holding thousands —
        // about 1% of the tile population. Assert the relative measure.
        let rel = stats.relative_order_diff(99.0);
        assert!(rel < 0.10, "relative p99 displacement {rel:.4}");
        let p90 = stats.order_diff_percentile(90.0);
        assert!(p90 <= stats.order_diff_percentile(99.0));
        assert!(stats.mean_tile_population > 0.0);
    }

    #[test]
    fn faster_camera_reduces_retention() {
        let slow = quick();
        let fast = measure_temporal(
            ScenePreset::Family,
            Resolution::Custom(640, 360),
            4,
            0.005,
            16.0,
        );
        let slow_mean: f64 =
            slow.retention_samples.iter().sum::<f64>() / slow.retention_samples.len() as f64;
        let fast_mean: f64 =
            fast.retention_samples.iter().sum::<f64>() / fast.retention_samples.len() as f64;
        assert!(
            fast_mean < slow_mean,
            "fast {fast_mean:.3} vs slow {slow_mean:.3}"
        );
    }

    #[test]
    #[should_panic(expected = "two frames")]
    fn single_frame_rejected() {
        let _ = measure_temporal(ScenePreset::Family, Resolution::Hd, 1, 0.01, 1.0);
    }
}
