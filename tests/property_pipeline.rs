//! Property-based tests on the functional pipeline: tiling, binning and
//! projection invariants for arbitrary splats and cameras, the
//! byte-identity contract of the exact-clipped rasterization fast path,
//! and projection against a frozen per-splat reference.

use neo_math::sh::{basis_count, ShCoefficients, MAX_COEFFS};
use neo_math::{Mat3, Mat4, Quat, Vec2, Vec3};
use neo_pipeline::{
    bin_to_tiles, color_pass, project_gaussian, project_storage, project_storage_geometry,
    rasterize_tile_with_scratch, subtile_bitmap, Image, ProjectedGaussian, RasterScratch,
    RenderConfig, TileGrid,
};
use neo_scene::{Camera, CloudStorage, Gaussian, GaussianCloud, Resolution};
use proptest::prelude::*;

fn arb_splat() -> impl Strategy<Value = ProjectedGaussian> {
    (
        0u32..1000,
        -200.0f32..1200.0,
        -200.0f32..900.0,
        0.5f32..200.0,
        0.1f32..100.0,
    )
        .prop_map(|(id, x, y, radius, depth)| ProjectedGaussian {
            id,
            mean2d: Vec2::new(x, y),
            depth,
            conic: (1.0, 0.0, 1.0),
            radius,
            color: Vec3::ONE,
            opacity: 0.5,
        })
}

/// A splat with a well-formed (positive-definite, anisotropic) conic
/// derived from a random 2D covariance — the realistic population for
/// the fast-path parity check — with occasional degenerate poisoning
/// (NaN opacity / NaN conic) to pin the skip-guard parity too.
fn arb_blendable_splat() -> impl Strategy<Value = ProjectedGaussian> {
    (
        -60.0f32..220.0, // mean x (straddles the 150x100 image's borders)
        -60.0f32..160.0, // mean y
        0.3f32..400.0,   // cov xx (σ up to 20 px)
        0.3f32..400.0,   // cov yy
        -0.95f32..0.95,  // correlation
        0.0f32..1.2,     // opacity (past the 0.99 clamp)
        0.1f32..100.0,   // depth
        0.0f32..300.0,   // binning radius: zero to image-dwarfing
        0u8..24,         // degeneracy selector (0/1 poison the splat)
    )
        .prop_map(
            |(x, y, sxx, syy, rho, opacity, depth, radius, degenerate)| {
                let sxy = rho * (sxx * syy).sqrt();
                let det = sxx * syy - sxy * sxy;
                let mut conic = (syy / det, -sxy / det, sxx / det);
                let mut opacity = opacity;
                match degenerate {
                    0 => opacity = f32::NAN,
                    1 => conic.0 = f32::NAN,
                    _ => {}
                }
                ProjectedGaussian {
                    id: 0,
                    mean2d: Vec2::new(x, y),
                    depth,
                    conic,
                    radius,
                    color: Vec3::new(0.8, 0.4, 0.2),
                    opacity,
                }
            },
        )
}

proptest! {
    /// The exact-clipped row-interval fast path is byte-identical to the
    /// legacy every-pixel loop: same pixels, same counters (pixel_visits
    /// excepted, and never more of them), over random splat mixes —
    /// splats straddling tile borders, subtiling on and off, zero and
    /// huge radii, cutoff-grazing opacities, and non-finite poison.
    #[test]
    fn raster_fast_path_is_byte_identical_to_legacy(
        mut splats in prop::collection::vec(arb_blendable_splat(), 0..30),
        subtiling in any::<bool>(),
    ) {
        for (i, s) in splats.iter_mut().enumerate() {
            s.id = i as u32;
        }
        splats.sort_by(|a, b| a.depth.total_cmp(&b.depth));
        let ordered: Vec<&ProjectedGaussian> = splats.iter().collect();
        // 150x100 at 32-px tiles: interior tiles plus clipped border
        // tiles (22 and 4 px wide), so spans clamp against real edges.
        let grid = TileGrid::new(150, 100, 32);
        let fast_cfg = RenderConfig {
            tile_size: 32,
            subtiling,
            ..Default::default()
        };
        let legacy_cfg = RenderConfig {
            raster_fast_path: false,
            ..fast_cfg.clone()
        };
        let mut fast_img = Image::new(150, 100, Vec3::ZERO);
        let mut legacy_img = Image::new(150, 100, Vec3::ZERO);
        let mut scratch = RasterScratch::new();
        for tile in 0..grid.tile_count() {
            let fast = rasterize_tile_with_scratch(&mut scratch, &grid, tile, &ordered, &fast_cfg);
            scratch.blit_to(&mut fast_img, &grid, tile);
            let legacy =
                rasterize_tile_with_scratch(&mut scratch, &grid, tile, &ordered, &legacy_cfg);
            scratch.blit_to(&mut legacy_img, &grid, tile);
            prop_assert_eq!(fast.blend_ops, legacy.blend_ops, "tile {}", tile);
            prop_assert_eq!(fast.saturated_pixels, legacy.saturated_pixels, "tile {}", tile);
            prop_assert_eq!(fast.zero_coverage, legacy.zero_coverage, "tile {}", tile);
            prop_assert!(
                fast.pixel_visits <= legacy.pixel_visits,
                "tile {}: fast path visited more pixels ({} > {})",
                tile, fast.pixel_visits, legacy.pixel_visits
            );
        }
        prop_assert_eq!(&fast_img, &legacy_img);
    }

    #[test]
    fn binning_covers_every_overlapped_tile(mut splats in prop::collection::vec(arb_splat(), 0..60)) {
        // IDs must be unique to attribute tile hits per splat.
        for (i, s) in splats.iter_mut().enumerate() {
            s.id = i as u32;
        }
        let grid = TileGrid::new(1024, 768, 64);
        let binned = bin_to_tiles(&grid, &splats);
        // Each splat appears in exactly the tiles its bounding square
        // overlaps (conservative disc-to-rect binning).
        for s in &splats {
            let hits: usize = (0..grid.tile_count())
                .map(|t| binned.tile(t).iter().filter(|(id, _)| *id == s.id).count())
                .sum();
            match grid.tiles_for_splat(s.mean2d, s.radius) {
                Some((tx0, ty0, tx1, ty1)) => {
                    let expect = ((tx1 - tx0 + 1) * (ty1 - ty0 + 1)) as usize;
                    prop_assert_eq!(hits, expect);
                }
                None => prop_assert_eq!(hits, 0),
            }
        }
    }

    #[test]
    fn tile_ranges_are_within_grid(x in -500.0f32..3000.0, y in -500.0f32..2000.0, r in 0.1f32..500.0) {
        let grid = TileGrid::new(2560, 1440, 64);
        if let Some((tx0, ty0, tx1, ty1)) = grid.tiles_for_splat(Vec2::new(x, y), r) {
            prop_assert!(tx0 <= tx1 && ty0 <= ty1);
            prop_assert!(tx1 < grid.tiles_x());
            prop_assert!(ty1 < grid.tiles_y());
        }
    }

    #[test]
    fn subtile_bitmap_is_subset_of_big_radius(
        x in 0.0f32..256.0,
        y in 0.0f32..256.0,
        r in 0.5f32..40.0,
    ) {
        let grid = TileGrid::new(256, 256, 64);
        let small = subtile_bitmap(&grid, 1, 1, Vec2::new(x, y), r);
        let big = subtile_bitmap(&grid, 1, 1, Vec2::new(x, y), r * 2.0);
        // Monotonicity: growing the radius can only set more bits.
        prop_assert_eq!(small & big, small);
    }

    #[test]
    fn subtile_bitmap_rows_are_contiguous_runs(
        x in -40.0f32..300.0,
        y in -40.0f32..300.0,
        r in 0.1f32..80.0,
        tile_size in 8u32..=64,
    ) {
        // The blend kernel reduces each subtile row of the bitmap to one
        // [first, last] run of 8-pixel chunks; that is exact only because
        // a disk meets a contiguous run of every subtile row.
        let grid = TileGrid::new(256, 256, tile_size);
        let per_edge = grid.subtiles_per_edge();
        let bm = subtile_bitmap(&grid, 1, 1, Vec2::new(x, y), r);
        for sy in 0..per_edge {
            let bits = (bm >> (sy * per_edge)) & ((1u64 << per_edge) - 1);
            if bits != 0 {
                let run = bits >> bits.trailing_zeros();
                prop_assert_eq!(run & (run + 1), 0, "row {} bits {:#b}", sy, bits);
            }
        }
    }

    #[test]
    fn projection_depth_matches_camera_distance_along_axis(
        gx in -3.0f32..3.0,
        gy in -2.0f32..2.0,
        gz in -3.0f32..3.0,
    ) {
        let cam = Camera::look_at(
            Vec3::new(0.0, 0.0, -8.0),
            Vec3::ZERO,
            Vec3::Y,
            1.0,
            Resolution::Custom(640, 360),
        );
        let g = Gaussian::isotropic(Vec3::new(gx, gy, gz), 0.05, 0.9, Vec3::ONE);
        if let Some(p) = neo_pipeline::project_gaussian(&cam, 0, &g) {
            let cam_space = cam.world_to_camera(g.mean);
            prop_assert!((p.depth - cam_space.z).abs() < 1e-3);
            prop_assert!(p.depth >= cam.near);
            prop_assert!(p.radius >= 1.0);
            // Falloff is maximal at the splat center.
            let center = p.falloff(p.mean2d);
            let off = p.falloff(p.mean2d + Vec2::new(3.0, 3.0));
            prop_assert!(center >= off);
        }
    }

    #[test]
    fn camera_projection_roundtrip_is_stable(
        px in 10.0f32..630.0,
        py in 10.0f32..350.0,
        depth in 1.0f32..50.0,
    ) {
        // Unproject a pixel to a camera-space point, then reproject.
        let cam = Camera::look_at(
            Vec3::new(1.0, 2.0, -6.0),
            Vec3::ZERO,
            Vec3::Y,
            1.1,
            Resolution::Custom(640, 360),
        );
        let f = cam.focal();
        let cam_space = Vec3::new(
            (px - 320.0) * depth / f.x,
            (py - 180.0) * depth / f.y,
            depth,
        );
        let back = cam.camera_to_pixel(cam_space).unwrap();
        prop_assert!((back.x - px).abs() < 0.01);
        prop_assert!((back.y - py).abs() < 0.01);
    }

    /// Projection computes its camera constants once per frame, and runs
    /// as a geometry pass plus a color pass over the split cloud. This
    /// pins both, bit for bit, to a frozen copy of the fused per-splat
    /// formulation they replaced, over random mixed-degree Gaussians ×
    /// cameras: splats straddling the near plane, fields of view at both
    /// ends of the valid `(0, π)` range, and odd resolutions and clip
    /// planes.
    #[test]
    fn projection_matches_the_frozen_per_splat_formulation(
        cam in arb_projection_camera(),
        placed in prop::collection::vec(arb_camera_space_gaussian(), 1..48),
    ) {
        let to_world = cam.rotation_matrix();
        let cloud: GaussianCloud = placed
            .into_iter()
            .map(|(t, mut g)| {
                g.mean = to_world * t + cam.position;
                g
            })
            .collect();
        let view = cam.view_matrix();
        let frozen: Vec<ProjectedGaussian> = cloud
            .iter()
            .filter_map(|(id, g)| frozen::project_gaussian_with_view(&cam, &view, id, &g))
            .collect();
        let hoisted = project_storage(&cam, &cloud);
        prop_assert_eq!(bits(&hoisted), bits(&frozen));
        // The two passes the engine runs: geometry leaves color unset,
        // and the color pass fills in the fused formulation's bits.
        let mut split = project_storage_geometry(&cam, &cloud);
        prop_assert!(split.iter().all(|p| p.color == Vec3::ZERO));
        color_pass(&mut split, |id| cloud.color(id, &cam));
        prop_assert_eq!(bits(&split), bits(&frozen));
        for (id, g) in cloud.iter() {
            let one = project_gaussian(&cam, id, &g);
            let reference = frozen::project_gaussian_with_view(&cam, &view, id, &g);
            prop_assert_eq!(
                one.as_ref().map(splat_bits),
                reference.as_ref().map(splat_bits)
            );
        }
    }
}

/// Every field of a projected splat as raw bits (NaN-safe equality).
fn splat_bits(p: &ProjectedGaussian) -> [u32; 12] {
    [
        p.id,
        p.mean2d.x.to_bits(),
        p.mean2d.y.to_bits(),
        p.depth.to_bits(),
        p.conic.0.to_bits(),
        p.conic.1.to_bits(),
        p.conic.2.to_bits(),
        p.radius.to_bits(),
        p.color.x.to_bits(),
        p.color.y.to_bits(),
        p.color.z.to_bits(),
        p.opacity.to_bits(),
    ]
}

fn bits(ps: &[ProjectedGaussian]) -> Vec<[u32; 12]> {
    ps.iter().map(splat_bits).collect()
}

/// A camera anywhere, looking anywhere, with a vertical field of view
/// drawn from near 0, near π, or the usual range, and random clip planes
/// and resolution.
fn arb_projection_camera() -> impl Strategy<Value = Camera> {
    (
        (-50.0f32..50.0, -50.0f32..50.0, -50.0f32..50.0),
        (-1.0f32..1.0, -1.0f32..1.0, -1.0f32..1.0),
        (0u32..3, 0.0f32..1.0),
        (0.01f32..2.0, 1.0f32..1000.0),
        (1u32..400, 1u32..400),
    )
        .prop_map(|(p, d, (band, t), (near, depth_range), (w, h))| {
            let fov_y = match band {
                0 => 1e-4 + t * 0.05,
                1 => std::f32::consts::PI - 1e-3 - t * 0.05,
                _ => 0.2 + t * 2.6,
            };
            let position = Vec3::new(p.0, p.1, p.2);
            let dir = Vec3::new(d.0, d.1, d.2 + 1.5);
            let mut cam = Camera::look_at(
                position,
                position + dir,
                Vec3::Y,
                fov_y,
                Resolution::Custom(w, h),
            );
            cam.near = near;
            cam.far = near + depth_range;
            cam
        })
}

/// A valid Gaussian with its mean given in camera space: depths from
/// behind the camera through the near plane to far beyond it, lateral
/// offsets inside and outside the frustum, and SH degrees 0–3.
fn arb_camera_space_gaussian() -> impl Strategy<Value = (Vec3, Gaussian)> {
    (
        (-4.0f32..4.0, -4.0f32..4.0, -1.0f32..1.0, 0u32..3),
        (0.001f32..3.0, 0.001f32..3.0, 0.001f32..3.0),
        (-1.0f32..1.0, -1.0f32..1.0, -1.0f32..1.0, -1.0f32..1.0),
        0.0f32..=1.0,
        0usize..=3,
        prop::collection::vec(-2.0f32..2.0, 3 * MAX_COEFFS),
    )
        .prop_map(|((x, y, z, band), s, q, opacity, degree, sh_vals)| {
            // Band 0 straddles the near plane (0.01–2), band 1 sits in
            // front of the camera, band 2 reaches past typical far planes.
            let depth = match band {
                0 => z * 2.5,
                1 => 6.0 + z * 5.0,
                _ => 500.0 + z * 600.0,
            };
            let lateral = depth.abs() + 1.0;
            let mut coeffs = [[0.0f32; MAX_COEFFS]; 3];
            for (c, channel) in coeffs.iter_mut().enumerate() {
                for (i, coeff) in channel.iter_mut().take(basis_count(degree)).enumerate() {
                    *coeff = sh_vals[c * MAX_COEFFS + i];
                }
            }
            let g = Gaussian {
                mean: Vec3::ZERO,
                scale: Vec3::new(s.0, s.1, s.2),
                rotation: Quat::new(q.0.max(0.01), q.1, q.2, q.3).normalized(),
                opacity,
                sh: ShCoefficients { coeffs, degree },
            };
            (Vec3::new(x * lateral, y * lateral, depth), g)
        })
}

/// A frozen copy of the per-splat projection as it stood before the
/// camera constants were hoisted out of it and color split into its own
/// pass: every splat re-derives the frustum tangents, the focal length
/// and the pixel mapping from the [`Camera`], and its covariance, radius
/// and SH color from the whole [`Gaussian`]. Kept verbatim so any drift
/// of the production path shows; only its covariance block was
/// re-frozen, to the factored `(J·W)·(R·S)` form that replaced the
/// `Σ = R·S²·Rᵀ` triple products (which moved conic bits by ulps).
mod frozen {
    use super::*;

    const COV2D_DILATION: f32 = 0.3;

    /// `M = R·S`, with `R` from one `2/|q|²` scale (re-frozen when the
    /// kernel stopped forming `Σ`).
    fn rotation_scale(g: &Gaussian) -> Mat3 {
        let q = g.rotation;
        let n2 = q.norm_squared();
        let (q, n2) = if n2.is_normal() {
            (q, n2)
        } else {
            (q.normalized(), 1.0)
        };
        let s = 2.0 / n2;
        let (w, x, y, z) = (q.w, q.x, q.y, q.z);
        let (xs, ys, zs) = (x * s, y * s, z * s);
        let (xx, yy, zz) = (x * xs, y * ys, z * zs);
        let (xy, xz, yz) = (x * ys, x * zs, y * zs);
        let (wx, wy, wz) = (w * xs, w * ys, w * zs);
        Mat3::from_cols(
            Vec3::new(1.0 - (yy + zz), xy + wz, xz - wy) * g.scale.x,
            Vec3::new(xy - wz, 1.0 - (xx + zz), yz + wx) * g.scale.y,
            Vec3::new(xz + wy, yz - wx, 1.0 - (xx + yy)) * g.scale.z,
        )
    }

    fn sh_eval(sh: &ShCoefficients, dir: Vec3) -> Vec3 {
        let mut basis = [0.0; MAX_COEFFS];
        neo_math::sh::eval_basis(sh.degree, dir, &mut basis);
        let n = basis_count(sh.degree);
        let mut rgb = [0.0f32; 3];
        for (c, out) in rgb.iter_mut().enumerate() {
            let mut acc = 0.0;
            for (coeff, b) in sh.coeffs[c].iter().zip(&basis).take(n) {
                acc += coeff * b;
            }
            *out = (acc + 0.5).clamp(0.0, 1.0);
        }
        Vec3::new(rgb[0], rgb[1], rgb[2])
    }

    fn in_frustum(cam: &Camera, t: Vec3, radius: f32) -> bool {
        if t.z + radius < cam.near || t.z - radius > cam.far {
            return false;
        }
        let z = t.z.max(cam.near);
        let tan_x = (cam.fov_x() * 0.5).tan();
        let tan_y = (cam.fov_y * 0.5).tan();
        t.x.abs() <= z * tan_x + radius && t.y.abs() <= z * tan_y + radius
    }

    pub fn project_gaussian_with_view(
        cam: &Camera,
        view: &Mat4,
        id: u32,
        g: &Gaussian,
    ) -> Option<ProjectedGaussian> {
        let t = view.transform_point(g.mean);
        if !in_frustum(cam, t, 3.0 * g.scale.max_element()) {
            return None;
        }

        let focal = cam.focal();
        let mean2d = cam.camera_to_pixel(t)?;

        // 2D covariance U·Uᵀ for U = (J·W)·(R·S); the rows of W are
        // the columns of its transpose.
        let inv_z = 1.0 / t.z;
        let inv_z2 = inv_z * inv_z;
        let w = view.to_mat3().transpose();
        let t0 = w.x_axis * (focal.x * inv_z) + w.z_axis * (-focal.x * t.x * inv_z2);
        let t1 = w.y_axis * (focal.y * inv_z) + w.z_axis * (-focal.y * t.y * inv_z2);
        let m = rotation_scale(g);
        let u0 = Vec3::new(t0.dot(m.x_axis), t0.dot(m.y_axis), t0.dot(m.z_axis));
        let u1 = Vec3::new(t1.dot(m.x_axis), t1.dot(m.y_axis), t1.dot(m.z_axis));

        let a = u0.dot(u0) + COV2D_DILATION;
        let b = u0.dot(u1);
        let c = u1.dot(u1) + COV2D_DILATION;

        let det = a * c - b * b;
        if det <= 0.0 || !det.is_finite() {
            return None;
        }
        let inv_det = 1.0 / det;
        let conic = (c * inv_det, -b * inv_det, a * inv_det);

        let mid = 0.5 * (a + c);
        let lambda_max = mid + (mid * mid - det).max(0.01).sqrt();
        let radius = (3.0 * lambda_max.sqrt()).ceil();

        if mean2d.x + radius < 0.0
            || mean2d.y + radius < 0.0
            || mean2d.x - radius >= cam.width as f32
            || mean2d.y - radius >= cam.height as f32
        {
            return None;
        }

        let color = sh_eval(&g.sh, cam.view_direction(g.mean));

        Some(ProjectedGaussian {
            id,
            mean2d,
            depth: t.z,
            conic,
            radius,
            color,
            opacity: g.opacity,
        })
    }
}
