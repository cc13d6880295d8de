//! Tile binning (the "duplication" step of stage ❸).
//!
//! Each projected splat is assigned to every tile its 3σ disc overlaps,
//! exactly like the duplication units in GSCore/Neo's Preprocessing
//! Engine. The result — per-tile lists of `(gaussian_id, depth)` — is the
//! unsorted input to the sorting stage.

use crate::projection::ProjectedGaussian;
use crate::tiles::TileGrid;

/// Membership diff between one tile's populations in consecutive frames
/// — the retention of Figure 6, which reuse-and-update sorting exploits.
///
/// Counts are over *unique* Gaussian IDs (binning never assigns a splat
/// to the same tile twice, so for binned populations the counts equal
/// the entry counts).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TilePopulationDiff {
    /// IDs present in both frames.
    pub retained: usize,
    /// IDs present only in the previous frame.
    pub departed: usize,
    /// IDs present only in the current frame.
    pub arrived: usize,
}

impl TilePopulationDiff {
    /// Fraction of the previous population still present (1.0 when the
    /// previous frame was empty — an empty tile retains everything
    /// vacuously).
    #[must_use]
    pub fn retention(&self) -> f64 {
        let prev = self.retained + self.departed;
        if prev == 0 {
            1.0
        } else {
            self.retained as f64 / prev as f64
        }
    }
}

/// Diffs one tile's `(id, depth)` population between two frames — the
/// inputs are per-tile slices as produced by [`TileAssignments::tile`].
///
/// # Examples
///
/// ```
/// use neo_pipeline::diff_tile_population;
///
/// let prev = [(1, 2.0), (2, 1.0), (3, 4.0)];
/// let cur = [(2, 1.1), (3, 3.9), (9, 0.5)];
/// let d = diff_tile_population(&prev, &cur);
/// assert_eq!((d.retained, d.departed, d.arrived), (2, 1, 1));
/// assert!((d.retention() - 2.0 / 3.0).abs() < 1e-12);
/// ```
pub fn diff_tile_population(prev: &[(u32, f32)], cur: &[(u32, f32)]) -> TilePopulationDiff {
    // Sorted-vec set intersection instead of HashSet: same O(n log n)
    // bound, and iteration order (hence any future use of the sets
    // themselves) is deterministic per the architecture contract.
    let mut prev_ids: Vec<u32> = prev.iter().map(|&(id, _)| id).collect();
    let mut cur_ids: Vec<u32> = cur.iter().map(|&(id, _)| id).collect();
    prev_ids.sort_unstable();
    prev_ids.dedup();
    cur_ids.sort_unstable();
    cur_ids.dedup();
    let mut retained = 0usize;
    let (mut i, mut j) = (0usize, 0usize);
    while i < prev_ids.len() && j < cur_ids.len() {
        match prev_ids[i].cmp(&cur_ids[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                retained += 1;
                i += 1;
                j += 1;
            }
        }
    }
    TilePopulationDiff {
        retained,
        departed: prev_ids.len() - retained,
        arrived: cur_ids.len() - retained,
    }
}

/// Per-tile lists of `(gaussian_id, depth)` pairs.
#[derive(Debug, Clone, PartialEq)]
pub struct TileAssignments {
    grid: TileGrid,
    tiles: Vec<Vec<(u32, f32)>>,
}

impl TileAssignments {
    /// Creates empty assignments for a grid.
    pub fn new(grid: TileGrid) -> Self {
        Self {
            grid,
            tiles: vec![Vec::new(); grid.tile_count()],
        }
    }

    /// The underlying grid.
    pub fn grid(&self) -> &TileGrid {
        &self.grid
    }

    /// Entries of one tile, in insertion (cloud) order.
    pub fn tile(&self, index: usize) -> &[(u32, f32)] {
        &self.tiles[index]
    }

    /// Number of tiles (occupied or not).
    pub fn tile_count(&self) -> usize {
        self.tiles.len()
    }

    /// Total assignments across tiles (Σ duplicates).
    pub fn total_assignments(&self) -> usize {
        self.tiles.iter().map(Vec::len).sum()
    }

    /// Number of tiles with at least one entry.
    pub fn occupied_tiles(&self) -> usize {
        self.tiles.iter().filter(|t| !t.is_empty()).count()
    }

    /// Iterates `(tile_index, entries)` over occupied tiles.
    pub fn iter_occupied(&self) -> impl Iterator<Item = (usize, &[(u32, f32)])> {
        self.tiles
            .iter()
            .enumerate()
            .filter(|(_, t)| !t.is_empty())
            .map(|(i, t)| (i, t.as_slice()))
    }
}

/// Bins projected splats into tiles.
///
/// Entries within a tile keep the input order (ascending Gaussian ID),
/// making the output deterministic.
///
/// # Examples
///
/// ```
/// use neo_math::{Vec2, Vec3};
/// use neo_pipeline::{bin_to_tiles, ProjectedGaussian, TileGrid};
///
/// let grid = TileGrid::new(256, 256, 64);
/// // A splat centered on the corner shared by four tiles is duplicated
/// // into each of them.
/// let splat = ProjectedGaussian {
///     id: 7,
///     mean2d: Vec2::new(64.0, 64.0),
///     depth: 2.5,
///     conic: (1.0, 0.0, 1.0),
///     radius: 6.0,
///     color: Vec3::ONE,
///     opacity: 0.9,
/// };
/// let binned = bin_to_tiles(&grid, &[splat]);
/// assert_eq!(binned.total_assignments(), 4);
/// assert_eq!(binned.occupied_tiles(), 4);
/// assert_eq!(binned.tile(grid.tile_index(0, 0)), &[(7, 2.5)]);
/// ```
pub fn bin_to_tiles(grid: &TileGrid, projected: &[ProjectedGaussian]) -> TileAssignments {
    let mut out = TileAssignments::new(*grid);
    for p in projected {
        let Some((tx0, ty0, tx1, ty1)) = grid.tiles_for_splat(p.mean2d, p.radius) else {
            continue;
        };
        for ty in ty0..=ty1 {
            for tx in tx0..=tx1 {
                out.tiles[grid.tile_index(tx, ty)].push((p.id, p.depth));
            }
        }
    }
    out
}

/// [`bin_to_tiles`] with cluster tags threaded through: additionally
/// returns, per tile, the sorted deduplicated set of cluster tags
/// (`(cluster_index << 1) | proxy_bit`, as produced by
/// [`crate::project_clusters`]) whose splats landed in that tile.
///
/// The renderer bins LOD frames with [`bin_to_tiles`] and reads no
/// tags. This function stays only because the repository benchmark
/// (`perfbench/`) still calls it; it goes with the benchmark's next
/// change.
///
/// `tags` must be parallel to `projected` (same length).
///
/// # Panics
///
/// Panics when `tags.len() != projected.len()`.
pub fn bin_to_tiles_with_clusters(
    grid: &TileGrid,
    projected: &[ProjectedGaussian],
    tags: &[u32],
) -> (TileAssignments, Vec<Vec<u32>>) {
    assert_eq!(projected.len(), tags.len(), "tags must parallel projected");
    let mut out = TileAssignments::new(*grid);
    let mut tile_tags: Vec<Vec<u32>> = vec![Vec::new(); grid.tile_count()];
    for (p, &tag) in projected.iter().zip(tags) {
        let Some((tx0, ty0, tx1, ty1)) = grid.tiles_for_splat(p.mean2d, p.radius) else {
            continue;
        };
        for ty in ty0..=ty1 {
            for tx in tx0..=tx1 {
                let ti = grid.tile_index(tx, ty);
                out.tiles[ti].push((p.id, p.depth));
                tile_tags[ti].push(tag);
            }
        }
    }
    for t in &mut tile_tags {
        t.sort_unstable();
        t.dedup();
    }
    (out, tile_tags)
}

#[cfg(test)]
mod tests {
    use super::*;
    use neo_math::{Vec2, Vec3};

    fn splat(id: u32, x: f32, y: f32, radius: f32, depth: f32) -> ProjectedGaussian {
        ProjectedGaussian {
            id,
            mean2d: Vec2::new(x, y),
            depth,
            conic: (1.0, 0.0, 1.0),
            radius,
            color: Vec3::ONE,
            opacity: 0.9,
        }
    }

    #[test]
    fn small_splat_lands_in_one_tile() {
        let grid = TileGrid::new(256, 256, 64);
        let binned = bin_to_tiles(&grid, &[splat(0, 100.0, 30.0, 5.0, 2.0)]);
        assert_eq!(binned.total_assignments(), 1);
        assert_eq!(binned.occupied_tiles(), 1);
        assert_eq!(binned.tile(grid.tile_index(1, 0)), &[(0, 2.0)]);
    }

    #[test]
    fn straddling_splat_is_duplicated() {
        let grid = TileGrid::new(256, 256, 64);
        let binned = bin_to_tiles(&grid, &[splat(3, 64.0, 64.0, 6.0, 1.0)]);
        assert_eq!(binned.total_assignments(), 4);
        for (tx, ty) in [(0, 0), (1, 0), (0, 1), (1, 1)] {
            assert_eq!(binned.tile(grid.tile_index(tx, ty)).len(), 1);
        }
    }

    #[test]
    fn off_screen_splat_is_skipped() {
        let grid = TileGrid::new(256, 256, 64);
        let binned = bin_to_tiles(&grid, &[splat(0, -100.0, 10.0, 5.0, 1.0)]);
        assert_eq!(binned.total_assignments(), 0);
        assert_eq!(binned.occupied_tiles(), 0);
    }

    #[test]
    fn order_within_tile_is_input_order() {
        let grid = TileGrid::new(128, 128, 64);
        let splats = vec![
            splat(0, 30.0, 30.0, 3.0, 5.0),
            splat(1, 35.0, 30.0, 3.0, 1.0),
            splat(2, 40.0, 30.0, 3.0, 3.0),
        ];
        let binned = bin_to_tiles(&grid, &splats);
        let tile = binned.tile(0);
        assert_eq!(tile.iter().map(|e| e.0).collect::<Vec<_>>(), vec![0, 1, 2]);
    }

    #[test]
    fn diff_tile_population_counts_membership_churn() {
        let prev = [(0u32, 1.0f32), (1, 2.0), (2, 3.0)];
        let cur = [(1u32, 2.5f32), (2, 2.9), (3, 0.5), (4, 9.0)];
        let d = diff_tile_population(&prev, &cur);
        assert_eq!(d.retained, 2);
        assert_eq!(d.departed, 1);
        assert_eq!(d.arrived, 2);
        assert!((d.retention() - 2.0 / 3.0).abs() < 1e-12);
        // Vacuous retention for an empty previous population.
        assert_eq!(diff_tile_population(&[], &cur).retention(), 1.0);
        // Disjoint populations retain nothing.
        assert_eq!(diff_tile_population(&prev, &[]).retention(), 0.0);
    }

    #[test]
    fn clustered_binning_matches_plain_and_collects_tags() {
        let grid = TileGrid::new(128, 128, 64);
        let splats = vec![
            splat(0, 30.0, 30.0, 3.0, 5.0),
            splat(1, 35.0, 30.0, 3.0, 1.0),
            splat(2, 100.0, 100.0, 3.0, 3.0),
            splat(3, -500.0, 0.0, 3.0, 2.0), // off-grid: no tile, no tag
        ];
        let tags = vec![4, 4, 7, 9];
        let (binned, tile_tags) = bin_to_tiles_with_clusters(&grid, &splats, &tags);
        assert_eq!(binned, bin_to_tiles(&grid, &splats));
        assert_eq!(tile_tags.len(), grid.tile_count());
        assert_eq!(tile_tags[0], vec![4]); // two splats, one cluster tag
        assert_eq!(tile_tags[grid.tile_index(1, 1)], vec![7]);
        let mentioned: usize = tile_tags.iter().map(Vec::len).sum();
        assert_eq!(mentioned, 2, "off-grid splat contributes no tag");
    }

    #[test]
    fn population_stats() {
        let grid = TileGrid::new(128, 128, 64);
        let splats = vec![
            splat(0, 30.0, 30.0, 3.0, 5.0),
            splat(1, 35.0, 30.0, 3.0, 1.0),
            splat(2, 100.0, 100.0, 3.0, 3.0),
        ];
        let binned = bin_to_tiles(&grid, &splats);
        assert_eq!(binned.iter_occupied().count(), 2);
    }
}
