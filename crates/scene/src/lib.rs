//! Scene representation for the Neo 3DGS reproduction: Gaussian primitives,
//! cameras, camera trajectories, and procedural scene generators.
//!
//! The paper evaluates on six Tanks & Temples scenes plus two Mill 19 aerial
//! scenes. Trained 3DGS checkpoints for those scenes are not redistributable,
//! so this crate provides seeded procedural generators ([`presets`]) whose
//! *sorting-relevant statistics* (Gaussian counts, per-tile populations,
//! temporal retention under camera motion) match the paper's
//! characterization; see `DESIGN.md` for the substitution argument.
//!
//! # Examples
//!
//! ```
//! use neo_scene::presets::ScenePreset;
//!
//! // A reduced-size "Family"-like scene for quick experiments.
//! let cloud = ScenePreset::Family.build_scaled(0.01);
//! assert!(cloud.len() > 1_000);
//! let path = ScenePreset::Family.trajectory();
//! let cam = path.camera_at(0.0, neo_scene::Resolution::Hd);
//! assert_eq!(cam.width, 1280);
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

mod camera;
mod cloud;
pub mod cluster;
mod gaussian;
pub mod io;
pub mod presets;
pub mod synth;
mod trajectory;

pub use camera::{Camera, Resolution};
pub use cloud::{CloudStorage, GaussianCloud};
pub use cluster::{Cluster, ClusterParams, ClusteredCloud};
pub use gaussian::{Gaussian, SplatGeometry};
pub use trajectory::{CameraPath, FrameSampler};
