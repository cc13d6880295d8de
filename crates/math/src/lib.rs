//! Minimal linear-algebra and spherical-harmonics toolkit for the Neo
//! 3D Gaussian Splatting (3DGS) reproduction.
//!
//! The crate deliberately implements only what the 3DGS pipeline needs:
//! small fixed-size vectors and matrices ([`Vec3`], [`Mat3`], [`Mat4`]),
//! unit quaternions ([`Quat`]) for Gaussian orientations, axis-aligned
//! bounding boxes ([`Aabb`]) for scene extents and frustum tests, and
//! real spherical harmonics ([`sh`]) for view-dependent color.
//!
//! Everything is `f32`, matching the precision used by 3DGS renderers and
//! the Neo accelerator's datapath.
//!
//! # Examples
//!
//! ```
//! use neo_math::{Vec3, Quat, Mat3};
//!
//! let q = Quat::from_axis_angle(Vec3::new(0.0, 1.0, 0.0), std::f32::consts::FRAC_PI_2);
//! let r: Mat3 = q.to_mat3();
//! let v = r * Vec3::new(1.0, 0.0, 0.0);
//! assert!((v - Vec3::new(0.0, 0.0, -1.0)).length() < 1e-5);
//! ```

#![deny(missing_docs)]
#![cfg_attr(
    test,
    allow(clippy::float_cmp, reason = "unit tests compare exact expected floats")
)]

mod aabb;
pub mod f16;
mod mat;
pub mod num;
mod quat;
pub mod sh;
mod util;
mod vec;

pub use aabb::Aabb;
pub use mat::{Mat3, Mat4};
pub use quat::Quat;
pub use util::{approx_eq, clamp, inv_sigmoid, lerp, sigmoid};
pub use vec::{Vec2, Vec3, Vec4};
