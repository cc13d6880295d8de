//! Workspace umbrella crate for the Neo reproduction.
//!
//! Re-exports the member crates and a [`prelude`] so examples, tests and
//! downstream experiments can depend on one crate. See the individual
//! crates for full documentation:
//!
//! * [`neo_core`] — the `RenderEngine`/`RenderSession` front door over the
//!   reuse-and-update renderer (the paper's contribution)
//! * [`neo_sort`] — Dynamic Partial Sorting and the five per-tile
//!   sorting strategies behind `SortingStrategy`
//! * [`neo_pipeline`] — the functional 3DGS pipeline
//! * [`neo_scene`] — benchmark scenes, cameras, trajectories
//! * [`neo_sim`] — device performance models and the area/power tables
//! * [`neo_metrics`] — PSNR / SSIM / LPIPS-proxy
//! * [`neo_workloads`] — workload capture and experiment presets

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub use neo_core;
pub use neo_math;
pub use neo_metrics;
pub use neo_pipeline;
pub use neo_scene;
pub use neo_sim;
pub use neo_sort;
pub use neo_workloads;

/// The most common imports for writing an experiment.
pub mod prelude {
    pub use neo_core::{
        FrameResult, FrameStream, NeoError, NeoResult, Parallelism, RenderEngine, RenderSession,
        RendererConfig, ShardPlan, SortingStrategy, StrategyKind,
    };
    pub use neo_metrics::{lpips_proxy, psnr, ssim};
    pub use neo_pipeline::{render_oracle, Image, RenderConfig, Stage};
    pub use neo_scene::{presets::ScenePreset, Camera, FrameSampler, GaussianCloud, Resolution};
    pub use neo_sim::devices::{Device, GsCore, NeoDevice, OrinAgx};
    pub use neo_sim::{dram::DramModel, WorkloadFrame};
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_compiles_and_links() {
        use crate::prelude::*;
        let cloud = GaussianCloud::new();
        assert!(cloud.is_empty());
        let neo = NeoDevice::paper_default();
        assert_eq!(neo.name(), "Neo");
    }
}
