//! Cluster-granular culling and footprint-driven LOD selection.
//!
//! The flat pipeline walks every Gaussian of the cloud each frame. This
//! module consults a [`ClusteredCloud`] spatial index first: whole
//! clusters are rejected with a conservative frustum test, distant
//! clusters whose screen footprint falls below a threshold are replaced
//! by their precomputed merged proxies, and only the surviving clusters'
//! members are projected.
//!
//! # Streaming
//!
//! [`project_clusters_geometry`] is a streaming kernel. The camera
//! constants are computed once per frame, and each visible cluster's
//! member geometry is read as a subslice of the cloud's geometry, one
//! per consecutive-ID run; proxies run through the same projection
//! kernel from the index's geometry table. No SH is read: color is the
//! separate [`color_pass`] over [`cluster_colors`], which
//! [`project_clusters`] adds for callers that want colored output. The
//! render engine renumbers its scene into cluster order at build time
//! ([`ClusteredCloud::renumber`]), so there every cluster is a single run
//! and the frame reads the geometry front to back, in ascending ID order.
//! Members and proxies are collected separately and the proxies appended
//! last, which leaves a renumbered index's output already ascending by
//! pipeline ID; the final ordering step is then one linear check. An
//! index that was never renumbered still works and is sorted.
//!
//! # Determinism and parity
//!
//! The cluster cull is *provably conservative* with respect to the
//! per-splat frustum test: a cluster is rejected only when every member
//! is guaranteed to fail `in_frustum`. With proxy substitution disabled
//! (`proxy_footprint_px == 0`), the output of [`project_clusters`] is
//! therefore byte-identical to
//! [`project_storage`](crate::projection::project_storage) over the same
//! cloud — same splats, same arithmetic, same ascending-ID order. The
//! `lod_parity` suite pins this, for raw and renumbered indexes.
//!
//! Proxy splats are addressed by **pipeline IDs**
//! `source_len() + proxy_index`, so they never collide with member IDs
//! and downstream binning/sorting stay deterministic.

use crate::projection::{color_pass, project_in, ProjectedGaussian, ProjectionContext};
use neo_math::num::{u64_from_usize, usize_from_u32};
use neo_math::{Aabb, Mat4, Vec3};
use neo_scene::{Camera, CloudStorage, ClusteredCloud, GaussianCloud, SplatGeometry};

/// Configuration of the cluster-index LOD path.
///
/// Attached to the renderer via `RendererConfig::with_lod`; absent
/// (the default) the renderer keeps the flat projection walk and its
/// byte-exact legacy output.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LodConfig {
    /// Target member count per cluster handed to the index builder
    /// (`ClusterParams::target_cluster_size`). Must be ≥ 1.
    pub cluster_size: u32,
    /// Screen-footprint threshold (pixels): a visible cluster whose
    /// conservative projected diameter is below this is rendered from
    /// its merged proxies instead of its members. `0.0` disables proxy
    /// substitution (culling still applies), which keeps the output
    /// byte-identical to the flat path.
    pub proxy_footprint_px: f32,
}

impl Default for LodConfig {
    fn default() -> Self {
        Self {
            cluster_size: 512,
            proxy_footprint_px: 12.0,
        }
    }
}

impl LodConfig {
    /// Validates the configuration, returning a description of the
    /// first problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.cluster_size == 0 {
            return Err("lod.cluster_size must be >= 1".to_string());
        }
        if !self.proxy_footprint_px.is_finite() || self.proxy_footprint_px < 0.0 {
            return Err(format!(
                "lod.proxy_footprint_px must be finite and >= 0, got {}",
                self.proxy_footprint_px
            ));
        }
        Ok(())
    }
}

/// Result of projecting a cloud through its cluster index.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterProjection {
    /// Projected splats, ascending by pipeline ID (member IDs first,
    /// proxy IDs — `source_len() + proxy_index` — after them).
    pub projected: Vec<ProjectedGaussian>,
    /// Per-splat cluster tag, parallel to `projected`:
    /// `(cluster_index << 1) | proxy_bit`; empty from
    /// [`project_clusters_geometry`]. The renderer reads none; the field
    /// stays only because the repository benchmark (`perfbench/`) still
    /// bins with it through [`project_clusters`], and goes with the
    /// benchmark's next change.
    pub tags: Vec<u32>,
    /// Clusters in the index.
    pub clusters_total: u64,
    /// Clusters rejected by the conservative whole-cluster frustum test.
    pub clusters_culled: u64,
    /// Visible clusters rendered from proxies instead of members.
    pub clusters_proxied: u64,
    /// Member splats whose individual projection was skipped: all
    /// members of culled clusters plus the member-minus-proxy surplus of
    /// proxied clusters.
    pub splats_saved: u64,
    /// Records actually read from the cloud or the proxy table — the
    /// feature-extraction traffic unit (multiply by record bytes).
    pub splats_visited: u64,
}

/// Camera-space AABB of a world-space box under `view`, inflated by a
/// small epsilon so that any f32-rounded `view.transform_point(p)` of a
/// point `p` inside the box stays inside.
fn camera_space_box(view: &Mat4, b: Aabb) -> (Vec3, Vec3) {
    let mut lo = Vec3::splat(f32::INFINITY);
    let mut hi = Vec3::splat(f32::NEG_INFINITY);
    for i in 0..8u32 {
        let corner = Vec3::new(
            if i & 1 == 0 { b.min.x } else { b.max.x },
            if i & 2 == 0 { b.min.y } else { b.max.y },
            if i & 4 == 0 { b.min.z } else { b.max.z },
        );
        let t = view.transform_point(corner);
        lo = lo.min(t);
        hi = hi.max(t);
    }
    let mag = lo
        .abs()
        .max(hi.abs())
        .max_element()
        .max(b.min.abs().max(b.max.abs()).max_element());
    let eps = Vec3::splat(1e-4 + 1e-5 * mag);
    (lo - eps, hi + eps)
}

/// Smallest |v| over the interval `[lo, hi]` (0 when it straddles 0).
fn min_abs(lo: f32, hi: f32) -> f32 {
    if lo <= 0.0 && hi >= 0.0 {
        0.0
    } else {
        lo.abs().min(hi.abs())
    }
}

/// Conservative whole-cluster frustum test.
///
/// `bounds` is the world-space AABB of the member means, `max_radius`
/// the largest member 3σ radius. Returns `false` only when **every**
/// member is guaranteed to fail the per-splat `in_frustum` test: a
/// member's camera-space center `t` lies inside the (inflated)
/// camera-space bounds box `[lo, hi]` and its radius `r ≤ R`, so
/// `t.z + r ≤ hi.z + R`, `t.z − r ≥ lo.z − R`,
/// `|t.x| ≥ min_abs(lo.x, hi.x)` while its allowance
/// `max(t.z, near)·tan + r ≤ max(hi.z, near)·tan + R` — each cluster
/// inequality failing implies the member inequality fails.
pub fn cluster_visible(cam: &Camera, bounds: Aabb, max_radius: f32) -> bool {
    let ctx = ProjectionContext::new(cam);
    let (lo, hi) = camera_space_box(&ctx.view, bounds);
    visible_box(&ctx, lo, hi, max_radius)
}

/// [`cluster_visible`] on a precomputed camera-space box (the hot path
/// shares the box with the footprint estimate).
fn visible_box(ctx: &ProjectionContext, lo: Vec3, hi: Vec3, max_radius: f32) -> bool {
    let cam = &ctx.cam;
    let r = max_radius;
    if hi.z + r < cam.near || lo.z - r > cam.far {
        return false;
    }
    let z = hi.z.max(cam.near);
    min_abs(lo.x, hi.x) <= z * ctx.tan_half_fov.x + r
        && min_abs(lo.y, hi.y) <= z * ctx.tan_half_fov.y + r
}

/// Conservative screen footprint (pixel diameter) of a cluster from its
/// camera-space bounds box and member radius bound.
fn cluster_footprint_px(ctx: &ProjectionContext, lo: Vec3, hi: Vec3, max_radius: f32) -> f32 {
    let center = (lo + hi) * 0.5;
    let half_diag = ((hi - lo) * 0.5).length();
    let r = half_diag + max_radius;
    let z = (center.z - r).max(ctx.cam.near);
    ctx.focal.y * (2.0 * r) / z
}

/// Projects a cloud through its cluster `index` with colors and cluster
/// tags: [`project_clusters_geometry`] plus the tags, then the
/// [`color_pass`] over [`cluster_colors`]. A plain `&GaussianCloud`
/// coerces; the [`CloudStorage`] parameter stays for the repository
/// benchmark's replay, which names it.
pub fn project_clusters(
    cam: &Camera,
    storage: &dyn CloudStorage,
    index: &ClusteredCloud,
    cfg: &LodConfig,
) -> ClusterProjection {
    let cloud = storage.cloud();
    let mut cp = cluster_pass(cam, cloud.geometry(), index, cfg, true);
    color_pass(&mut cp.projected, cluster_colors(cam, cloud, index));
    cp
}

/// The per-pipeline-ID color source of a cluster projection over
/// `cloud` and its `index`, for the [`color_pass`]. Member IDs read
/// their SH toward the camera from `cloud`; proxy IDs
/// (`source_len() + proxy_index`) read the index's view-independent
/// proxy color.
///
/// The source panics on an ID outside both ranges.
pub fn cluster_colors<'a>(
    cam: &'a Camera,
    cloud: &'a GaussianCloud,
    index: &'a ClusteredCloud,
) -> impl Fn(u32) -> Vec3 + 'a {
    let proxy_base = index.source_len();
    move |id| match id.checked_sub(proxy_base) {
        Some(k) => index.proxy_color(usize_from_u32(k)),
        None => cloud.color(id, cam),
    }
}

/// The geometry pass through a cluster index: culls whole clusters,
/// substitutes proxies for sub-threshold clusters, and projects
/// surviving members from `geometry` (a cloud's
/// [`GaussianCloud::geometry`]) in consecutive-ID runs. Color is left
/// unset and [`ClusterProjection::tags`] empty.
///
/// `index` must have been built over the cloud `geometry` belongs to,
/// or renumbered together with it. The output is sorted ascending by
/// pipeline ID. For a renumbered index every visible cluster is one
/// subslice and the output comes out ascending, so ordering it costs
/// one linear pass; otherwise the runs interleave and the output is
/// sorted.
///
/// # Panics
///
/// Panics when a member ID of `index` lies outside `geometry`.
pub fn project_clusters_geometry(
    cam: &Camera,
    geometry: &[SplatGeometry],
    index: &ClusteredCloud,
    cfg: &LodConfig,
) -> ClusterProjection {
    cluster_pass(cam, geometry, index, cfg, false)
}

/// [`project_clusters_geometry`], recording each splat's cluster tag when
/// `tagged`.
fn cluster_pass(
    cam: &Camera,
    geometry: &[SplatGeometry],
    index: &ClusteredCloud,
    cfg: &LodConfig,
    tagged: bool,
) -> ClusterProjection {
    let ctx = ProjectionContext::new(cam);
    let proxy_base = index.source_len();
    let substitution = cfg.proxy_footprint_px > 0.0;

    let mut projected: Vec<ProjectedGaussian> = Vec::new();
    let mut tags: Vec<u32> = Vec::new();
    let mut proxies: Vec<ProjectedGaussian> = Vec::new();
    let mut proxy_tags: Vec<u32> = Vec::new();
    let mut clusters_culled = 0u64;
    let mut clusters_proxied = 0u64;
    let mut splats_saved = 0u64;
    let mut splats_visited = 0u64;

    for (ci, cluster) in index.clusters().iter().enumerate() {
        let (lo, hi) = camera_space_box(&ctx.view, cluster.bounds());
        if !visible_box(&ctx, lo, hi, cluster.max_radius()) {
            clusters_culled += 1;
            splats_saved += u64_from_usize(cluster.len());
            continue;
        }
        let tag_base = u32::try_from(ci).unwrap_or(u32::MAX >> 1) << 1;
        let (proxy_start, proxy_len) = cluster.proxy_range();
        let proxied = substitution
            && proxy_len > 0
            && cluster_footprint_px(&ctx, lo, hi, cluster.max_radius()) < cfg.proxy_footprint_px;
        if proxied {
            clusters_proxied += 1;
            splats_saved += u64_from_usize(cluster.len()) - u64::from(proxy_len);
            for (k, p) in index.cluster_proxies(ci).iter().enumerate() {
                splats_visited += 1;
                let pid = proxy_base
                    .saturating_add(proxy_start)
                    .saturating_add(u32::try_from(k).unwrap_or(u32::MAX));
                if let Some(pp) = project_in(&ctx, pid, p) {
                    proxies.push(pp);
                    if tagged {
                        proxy_tags.push(tag_base | 1);
                    }
                }
            }
        } else {
            for (start, end) in consecutive_runs(cluster.members()) {
                let run = &geometry[usize_from_u32(start)..usize_from_u32(end)];
                splats_visited += u64_from_usize(run.len());
                for (id, g) in (start..).zip(run) {
                    if let Some(p) = project_in(&ctx, id, g) {
                        projected.push(p);
                        if tagged {
                            tags.push(tag_base);
                        }
                    }
                }
            }
        }
    }

    // Proxy IDs lie above every member ID, so appending them keeps an
    // ascending member list ascending.
    projected.append(&mut proxies);
    tags.append(&mut proxy_tags);
    sort_by_id(&mut projected, &mut tags);
    ClusterProjection {
        projected,
        tags,
        clusters_total: u64_from_usize(index.cluster_count()),
        clusters_culled,
        clusters_proxied,
        splats_saved,
        splats_visited,
    }
}

/// Orders `projected` and its parallel `tags` (when not empty)
/// ascending by pipeline ID.
///
/// Pipeline IDs are unique (members < `source_len` ≤ proxy IDs), so the
/// ID alone is a total, deterministic order. Input that is already
/// ascending — every frame of a renumbered index — costs one linear
/// check; anything else is sorted, as `(splat, tag)` pairs when tagged.
fn sort_by_id(projected: &mut Vec<ProjectedGaussian>, tags: &mut Vec<u32>) {
    if projected.is_sorted_by_key(|p| p.id) {
        return;
    }
    if tags.is_empty() {
        projected.sort_unstable_by_key(|p| p.id);
        return;
    }
    let mut items: Vec<(ProjectedGaussian, u32)> =
        projected.drain(..).zip(tags.drain(..)).collect();
    items.sort_unstable_by_key(|&(p, _)| p.id);
    (*projected, *tags) = items.into_iter().unzip();
}

/// Maximal runs of consecutive member IDs, as `(start, end)` half-open
/// ranges of the cloud's geometry. A renumbered cluster is one run.
fn consecutive_runs(members: &[u32]) -> impl Iterator<Item = (u32, u32)> + '_ {
    let mut rest = members;
    std::iter::from_fn(move || {
        let &start = rest.first()?;
        let mut len = 1;
        while len < rest.len() && rest[len] == rest[len - 1] + 1 {
            len += 1;
        }
        let end = rest[len - 1] + 1;
        rest = &rest[len..];
        Some((start, end))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::culling::in_frustum;
    use crate::projection::project_storage;
    use neo_scene::synth::CityParams;
    use neo_scene::{ClusterParams, Resolution};

    fn city() -> neo_scene::GaussianCloud {
        CityParams {
            splats_per_block: 150,
            ..CityParams::default().scaled(4.0)
        }
        .build()
    }

    fn street_cam(cloud_extent: f32) -> Camera {
        Camera::look_at(
            Vec3::new(0.0, 1.7, -0.4 * cloud_extent),
            Vec3::new(0.0, 4.0, cloud_extent),
            Vec3::Y,
            0.9,
            Resolution::Custom(320, 180),
        )
    }

    fn cull_only() -> LodConfig {
        LodConfig {
            proxy_footprint_px: 0.0,
            ..LodConfig::default()
        }
    }

    #[test]
    fn cull_parity_with_flat_path() {
        let cloud = city();
        let idx = ClusteredCloud::build(&cloud, ClusterParams::default());
        let cam = street_cam(40.0);
        let flat = project_storage(&cam, &cloud);
        let clustered = project_clusters(&cam, &cloud, &idx, &cull_only());
        assert_eq!(clustered.projected, flat);
        assert!(clustered.clusters_culled > 0, "street cam should cull");
        assert_eq!(clusters_tag_proxy_count(&clustered), 0);
    }

    #[test]
    fn culled_cluster_members_all_fail_per_splat_test() {
        let cloud = city();
        let idx = ClusteredCloud::build(&cloud, ClusterParams::default());
        let cam = street_cam(40.0);
        let ctx = ProjectionContext::new(&cam);
        let mut culled = 0;
        for c in idx.clusters() {
            if cluster_visible(&cam, c.bounds(), c.max_radius()) {
                continue;
            }
            culled += 1;
            for &id in c.members() {
                let g = cloud.get(id).unwrap();
                let t = ctx.view.transform_point(g.mean);
                assert!(
                    !in_frustum(&ctx, t, g.bounding_radius()),
                    "cluster cull dropped visible splat {id}"
                );
            }
        }
        assert!(culled > 0, "test needs at least one culled cluster");
    }

    #[test]
    fn proxies_substitute_far_clusters_and_save_work() {
        let cloud = city();
        let idx = ClusteredCloud::build(&cloud, ClusterParams::default());
        let cam = street_cam(40.0);
        let cfg = LodConfig {
            proxy_footprint_px: 48.0,
            ..LodConfig::default()
        };
        let out = project_clusters(&cam, &cloud, &idx, &cfg);
        let flat = project_storage(&cam, &cloud);
        assert!(out.clusters_proxied > 0, "far clusters should be proxied");
        assert!(out.projected.len() < flat.len());
        assert!(out.splats_visited < u64_from_usize(cloud.len()));
        // Proxy IDs live above the member ID space and match their tag.
        for (p, &tag) in out.projected.iter().zip(&out.tags) {
            if tag & 1 == 1 {
                assert!(p.id >= idx.source_len());
            } else {
                assert!(p.id < idx.source_len());
                let c = &idx.clusters()[(tag >> 1) as usize];
                assert!(c.members().binary_search(&p.id).is_ok());
            }
        }
        // Output stays sorted by pipeline ID.
        for w in out.projected.windows(2) {
            assert!(w[0].id < w[1].id);
        }
    }

    #[test]
    fn stats_are_consistent() {
        let cloud = city();
        let idx = ClusteredCloud::build(&cloud, ClusterParams::default());
        let cam = street_cam(40.0);
        let out = project_clusters(&cam, &cloud, &idx, &LodConfig::default());
        assert_eq!(out.clusters_total, u64_from_usize(idx.cluster_count()));
        assert!(out.clusters_culled + out.clusters_proxied <= out.clusters_total);
        assert_eq!(out.projected.len(), out.tags.len());
        // Visited + saved covers every member (proxied clusters also visit
        // their proxies, hence ≥).
        assert!(out.splats_visited + out.splats_saved >= u64_from_usize(cloud.len()));
    }

    #[test]
    fn lod_config_validates() {
        assert!(LodConfig::default().validate().is_ok());
        assert!(LodConfig {
            cluster_size: 0,
            ..LodConfig::default()
        }
        .validate()
        .is_err());
        assert!(LodConfig {
            proxy_footprint_px: f32::NAN,
            ..LodConfig::default()
        }
        .validate()
        .is_err());
        assert!(LodConfig {
            proxy_footprint_px: -1.0,
            ..LodConfig::default()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn consecutive_runs_cover_members() {
        let cloud = city();
        let idx = ClusteredCloud::build(&cloud, ClusterParams::default());
        for c in idx.clusters() {
            let expanded: Vec<u32> = consecutive_runs(c.members())
                .flat_map(|(s, e)| s..e)
                .collect();
            assert_eq!(expanded, c.members());
        }
        // After renumbering, every cluster streams as one run.
        let mut idx = idx;
        idx.renumber().expect("a city is not in cluster order");
        for c in idx.clusters() {
            let runs: Vec<(u32, u32)> = consecutive_runs(c.members()).collect();
            assert_eq!(runs.len(), 1);
        }
        assert_eq!(consecutive_runs(&[]).count(), 0);
    }

    fn clusters_tag_proxy_count(out: &ClusterProjection) -> usize {
        out.tags.iter().filter(|&&t| t & 1 == 1).count()
    }
}
