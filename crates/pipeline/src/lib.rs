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
//! This crate holds the stages; `neo-core`'s `RenderSession` is the one
//! frame body that runs them. [`render_oracle`] is the exception on
//! purpose: an independent `f64` renderer with no tiles, the ground
//! truth of the quality experiments and the differential tests.
//!
//! # Examples
//!
//! ```
//! use neo_math::Vec3;
//! use neo_pipeline::{project_storage, render_oracle};
//! use neo_scene::{presets::ScenePreset, FrameSampler, Resolution};
//!
//! let cloud = ScenePreset::Family.build_scaled(0.003);
//! let sampler = FrameSampler::new(
//!     ScenePreset::Family.trajectory(), 30.0, Resolution::Custom(160, 90));
//! let cam = sampler.frame(0);
//! let projected = project_storage(&cam, &cloud);
//! assert!(!projected.is_empty());
//! let image = render_oracle(&projected, cam.width, cam.height, Vec3::ZERO);
//! assert_eq!(image.width(), 160);
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
mod oracle;
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
pub use lod::{
    cluster_colors, cluster_visible, project_clusters, project_clusters_geometry,
    project_flat_geometry, ClusterProjection, LodConfig,
};
pub use oracle::render_oracle;
pub use pipeline::{rasterize_tile_with_scratch, RenderConfig, TileRasterStats};
pub use projection::{
    color_pass, project_gaussian, project_storage, project_storage_geometry, ProjectedGaussian,
};
pub use scratch::{RasterScratch, ShardScratch};
pub use stats::{FrameStats, Stage, TrafficLedger};
pub use tiles::{subtile_bitmap, TileGrid, SUBTILE_SIZE};
