//! Functional 3D Gaussian Splatting rendering pipeline.
//!
//! Implements the four-stage pipeline of the paper's Figure 2: ❶ frustum
//! culling, ❷ feature extraction (EWA projection + spherical-harmonics
//! color), ❸ depth sorting (delegated to `neo-sort` / `neo-core` — this
//! crate only *bins* Gaussians to tiles), and ❹ tile-based α-blending
//! rasterization with 8×8-pixel subtiles (GSCore-style subtiling).
//!
//! The pipeline is a *functional* model: it produces real images so that
//! rendering-quality experiments (Table 2, Figure 19) measure actual PSNR,
//! and it produces the per-tile workload statistics that drive the
//! cycle-level performance model in `neo-sim`.
//!
//! # Examples
//!
//! ```
//! use neo_pipeline::{render_reference, RenderConfig};
//! use neo_scene::{presets::ScenePreset, FrameSampler, Resolution};
//!
//! let cloud = ScenePreset::Family.build_scaled(0.003);
//! let sampler = FrameSampler::new(
//!     ScenePreset::Family.trajectory(), 30.0, Resolution::Custom(160, 90));
//! let (image, stats) = render_reference(&cloud, &sampler.frame(0), &RenderConfig::default());
//! assert_eq!(image.width(), 160);
//! assert!(stats.projected > 0);
//! ```

#![deny(missing_docs)]
#![cfg_attr(
    test,
    allow(
        clippy::float_cmp,
        clippy::cast_possible_truncation,
        reason = "unit tests compare exact expected floats and index small fixtures with bare casts"
    )
)]

mod binning;
mod culling;
mod framebuffer;
pub mod lod;
mod pipeline;
mod projection;
mod scratch;
pub mod stats;
mod tiles;

pub use binning::{
    bin_to_tiles, bin_to_tiles_with_clusters, diff_tile_population, TileAssignments,
    TilePopulationDiff,
};
pub use framebuffer::Image;
pub use lod::{cluster_visible, project_clusters, ClusterProjection, LodConfig};
pub use pipeline::{render_reference, RenderConfig, TileRasterStats};
pub use projection::{project_gaussian, project_storage, ProjectedGaussian};
pub use scratch::{RasterScratch, ShardScratch};
pub use stats::{FrameStats, Stage, TrafficLedger};
pub use tiles::{subtile_bitmap, TileGrid, SUBTILES_PER_TILE, SUBTILE_SIZE};

/// Rasterizes one tile's Gaussians (already depth-ordered) into `image`.
///
/// Re-exported from the rasterizer module for callers (like `neo-core`)
/// that manage their own per-tile ordering.
pub use pipeline::rasterize_tile;

/// Scratch-buffer variant of [`rasterize_tile`]: leaves the finished
/// pixel block in a reusable [`RasterScratch`] for deferred, deterministic
/// merging — the rasterization primitive of `neo-core`'s intra-frame
/// worker pool.
pub use pipeline::rasterize_tile_with_scratch;
