//! Deterministic spatial clustering of splat clouds.
//!
//! [`ClusteredCloud`] is the scene-side half of the hierarchical-LOD
//! pipeline: it groups the splats of a [`GaussianCloud`] into
//! Morton-ordered spatial clusters, each carrying conservative bounds
//! (member-mean AABB plus the largest member 3σ radius), and a coarse
//! LOD proxy — up to eight merged representative splats per cluster,
//! one per occupied bounds octant. A proxy is degree-0: it is stored as
//! a [`SplatGeometry`] plus its view-independent color.
//!
//! # Determinism
//!
//! Clustering is a pure function of the cloud's contents and
//! [`ClusterParams`]: the grid resolution is derived from the splat
//! count by integer search, cell keys come from f32 arithmetic on the
//! (fixed) member means, clusters are emitted in ascending Morton-key
//! order, members keep their ascending cloud-ID order within a cluster,
//! and every proxy accumulation runs in that member order. Building the
//! same cloud twice — or on different machines — yields byte-identical
//! indexes and byte-identical cluster-ordered clouds.
//!
//! # Cluster order
//!
//! [`ClusteredCloud::build`] puts the cloud it indexes into cluster
//! order: clusters follow each other in Morton order, and within a
//! cluster the members keep their original relative order. Each cluster
//! is then one contiguous ID range of the cloud ([`Cluster::ids`]), so a
//! frame reads a visible cluster as one subslice of the geometry. The
//! permutation ([`GaussianCloud::permute`]) runs in place and only when
//! the order changes: a cloud that is already in cluster order (the
//! output of an earlier build with the same parameters) is left alone,
//! and a shared one is copied only when it has to move. Bounds and
//! proxies are the same as over the original order, bit for bit, since
//! each accumulation still runs in the members' original order.

use crate::gaussian::SplatGeometry;
use crate::GaussianCloud;
use neo_math::num::usize_from_u32;
use neo_math::sh::ShCoefficients;
use neo_math::{Aabb, Quat, Vec3};
use std::ops::Range;
use std::sync::Arc;

/// Upper bound on grid cells per axis (keeps Morton keys in 24 bits and
/// the empty-cell scan bounded).
const MAX_CELLS_PER_AXIS: u32 = 256;

/// Number of bounds octants a cluster's proxy set is built over.
const OCTANTS: usize = 8;

/// Parameters controlling how a [`ClusteredCloud`] is built.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterParams {
    /// Target member count per cluster; drives the grid resolution
    /// (smaller targets mean more, finer clusters). Must be ≥ 1.
    pub target_cluster_size: u32,
}

impl Default for ClusterParams {
    fn default() -> Self {
        Self {
            target_cluster_size: 512,
        }
    }
}

impl ClusterParams {
    /// Returns the parameters with a non-zero cluster-size target.
    #[must_use]
    pub fn sanitized(self) -> Self {
        Self {
            target_cluster_size: self.target_cluster_size.max(1),
        }
    }
}

/// One spatial cluster: a contiguous range of member splat IDs with
/// conservative world-space bounds and a slice of proxy splats in the
/// parent [`ClusteredCloud`].
#[derive(Debug, Clone, PartialEq)]
pub struct Cluster {
    start: u32,
    len: u32,
    bounds: Aabb,
    max_radius: f32,
    proxy_start: u32,
    proxy_len: u32,
}

impl Cluster {
    /// Member splat IDs: one contiguous range of the cloud the index
    /// put into cluster order.
    pub fn ids(&self) -> Range<u32> {
        self.start..self.start + self.len
    }

    /// Number of member splats.
    pub fn len(&self) -> usize {
        usize_from_u32(self.len)
    }

    /// True when the cluster has no members.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// AABB of the member **means** (world space). Combined with
    /// [`Cluster::max_radius`] this conservatively bounds every member's
    /// 3σ extent: any point of any member ellipsoid lies within
    /// `bounds` inflated by `max_radius`.
    pub fn bounds(&self) -> Aabb {
        self.bounds
    }

    /// Largest member 3σ bounding radius.
    pub fn max_radius(&self) -> f32 {
        self.max_radius
    }

    /// Range of this cluster's proxy splats in
    /// [`ClusteredCloud::proxies`]: `(start, len)`.
    pub fn proxy_range(&self) -> (u32, u32) {
        (self.proxy_start, self.proxy_len)
    }
}

/// A cluster index over a splat cloud: Morton-ordered spatial clusters,
/// each one ID range of the cloud, with per-cluster bounds and merged LOD
/// proxy splats.
///
/// Built once per scene (or on scene upload) by [`ClusteredCloud::build`];
/// the renderer consults it every frame for whole-cluster frustum
/// culling and footprint-driven proxy substitution.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusteredCloud {
    clusters: Vec<Cluster>,
    proxies: Vec<SplatGeometry>,
    /// Each proxy's color: the DC term of its merged SH, which no view
    /// direction changes.
    proxy_colors: Vec<Vec3>,
    source_len: u32,
}

impl ClusteredCloud {
    /// Builds a cluster index over `cloud` and puts `cloud` into the
    /// index's cluster order (see the module docs).
    ///
    /// The cloud is permuted in place, through [`Arc::make_mut`], and only
    /// when its order changes: a cloud already in cluster order keeps its
    /// allocation even while shared, and a shared cloud out of order is
    /// copied once while other holders keep the original.
    ///
    /// Deterministic: see the module docs. Costs two streaming passes
    /// over the cloud plus a linear-time radix sort of `(cell, id)`
    /// keys. The first pass reads geometry only; the second reads
    /// geometry and each splat's DC SH term, which its proxy accumulates.
    pub fn build(cloud: &mut Arc<GaussianCloud>, params: ClusterParams) -> Self {
        Self::build_with(cloud, params, radix_sort_keyed)
    }

    /// [`ClusteredCloud::build`] with the `(cell, id)` key sort supplied
    /// by the caller (the tests swap in a comparison sort).
    fn build_with(
        cloud: &mut Arc<GaussianCloud>,
        params: ClusterParams,
        sort_keyed: fn(Vec<u64>) -> Vec<u64>,
    ) -> Self {
        let params = params.sanitized();
        let n = cloud.len();
        let Ok(source_len) = u32::try_from(n) else {
            // Splat IDs are u32 everywhere in the pipeline; a cloud
            // this large cannot have been constructed.
            return Self::empty();
        };
        if n == 0 {
            return Self::empty();
        }

        // Pass 1: member means, radii, and the global mean bounds.
        let mut means: Vec<Vec3> = Vec::with_capacity(n);
        let mut radii: Vec<f32> = Vec::with_capacity(n);
        let mut world = Aabb::EMPTY;
        for g in cloud.geometry() {
            means.push(g.mean);
            radii.push(g.bounding_radius());
            world = world.union_point(g.mean);
        }

        let cells = cells_per_axis(n, params.target_cluster_size);
        let grid = CellGrid::new(world, cells);

        // Key every splat by the Morton code of its grid cell, packed
        // above its ID, then sort: equal keys group into clusters, and the
        // (key, id) order keeps each cluster's members in ascending ID
        // order. The sorted IDs are the cluster order.
        let keyed = sort_keyed(
            (0u32..source_len)
                .map(|id| (grid.morton_key(means[usize_from_u32(id)]) << 32) | u64::from(id))
                .collect(),
        );
        let order: Vec<u32> = keyed.iter().map(|&word| low_u32(word)).collect();

        // Group into clusters: runs of equal keys, each the range of
        // positions it will occupy in cluster order.
        let mut clusters: Vec<Cluster> = Vec::new();
        let mut i = 0usize;
        while i < keyed.len() {
            let key = keyed[i] >> 32;
            let start = i;
            let mut bounds = Aabb::EMPTY;
            let mut max_radius = 0.0f32;
            while i < keyed.len() && keyed[i] >> 32 == key {
                let id = usize_from_u32(order[i]);
                bounds = bounds.union_point(means[id]);
                max_radius = max_radius.max(radii[id]);
                i += 1;
            }
            clusters.push(Cluster {
                start: u32::try_from(start).unwrap_or(u32::MAX),
                len: u32::try_from(i - start).unwrap_or(u32::MAX),
                bounds,
                max_radius,
                proxy_start: 0,
                proxy_len: 0,
            });
        }
        // Free the build's scratch before the permutation, which may copy
        // the cloud.
        drop((keyed, means, radii));

        if !order.iter().zip(0u32..).all(|(&id, k)| id == k) {
            Arc::make_mut(cloud).permute(&order);
        }

        // Pass 2: accumulate each cluster's octant statistics over its
        // range, in member order — the members' original ascending-ID
        // order — which fixes the f32 summation order independently of
        // cluster shape.
        let geometry = cloud.geometry();
        let mut proxies: Vec<SplatGeometry> = Vec::new();
        let mut proxy_colors: Vec<Vec3> = Vec::new();
        for cluster in &mut clusters {
            let center = cluster.bounds.center();
            let mut acc = [OctantAcc::default(); OCTANTS];
            for j in cluster.ids() {
                let j = usize_from_u32(j);
                let g = &geometry[j];
                acc[octant_of(center, g.mean)].accumulate(g, cloud.dc(j));
            }
            // Finalize proxies in (cluster, octant) order.
            let start = u32::try_from(proxies.len()).unwrap_or(u32::MAX);
            for oct in &acc {
                if let Some((p, color)) = oct.finalize() {
                    proxies.push(p);
                    proxy_colors.push(color);
                }
            }
            cluster.proxy_start = start;
            cluster.proxy_len = u32::try_from(proxies.len())
                .unwrap_or(u32::MAX)
                .saturating_sub(start);
        }

        Self {
            clusters,
            proxies,
            proxy_colors,
            source_len,
        }
    }

    fn empty() -> Self {
        Self {
            clusters: Vec::new(),
            proxies: Vec::new(),
            proxy_colors: Vec::new(),
            source_len: 0,
        }
    }

    /// The clusters, in ascending Morton-key order; their ID ranges
    /// start at 0, abut, and end at [`ClusteredCloud::source_len`].
    pub fn clusters(&self) -> &[Cluster] {
        &self.clusters
    }

    /// Number of clusters.
    pub fn cluster_count(&self) -> usize {
        self.clusters.len()
    }

    /// All proxy splats' geometry, flat, in (cluster, octant) order. A
    /// proxy's **pipeline ID** is `source_len() + index` into this slice,
    /// so proxy IDs never collide with member IDs.
    pub fn proxies(&self) -> &[SplatGeometry] {
        &self.proxies
    }

    /// Color of proxy `index` (into [`ClusteredCloud::proxies`]). Proxies
    /// are SH degree 0, so it is the same from every direction: the bits
    /// `sh.eval(dir)` gives for any `dir`.
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of range.
    pub fn proxy_color(&self, index: usize) -> Vec3 {
        self.proxy_colors[index]
    }

    /// Number of proxy splats across all clusters.
    pub fn proxy_count(&self) -> usize {
        self.proxies.len()
    }

    /// Geometry of cluster `c`'s proxy splats.
    pub fn cluster_proxies(&self, c: usize) -> &[SplatGeometry] {
        let (start, len) = self.clusters[c].proxy_range();
        let start = usize_from_u32(start);
        &self.proxies[start..start + usize_from_u32(len)]
    }

    /// Length of the source cloud the index was built over.
    pub fn source_len(&self) -> u32 {
        self.source_len
    }
}

/// Bits per radix digit: two passes cover the 24-bit Morton key.
const RADIX_BITS: u32 = 12;

/// Sorts `(key << 32) | id` words whose key fits in 24 bits, by a stable
/// two-pass LSD radix sort on the key alone. The words arrive in
/// ascending ID order, so IDs stay ascending within a key and the result
/// equals a comparison sort of the whole words.
fn radix_sort_keyed(mut keyed: Vec<u64>) -> Vec<u64> {
    const BUCKETS: usize = 1 << RADIX_BITS;
    const MASK: u32 = (1 << RADIX_BITS) - 1;
    let digit =
        |word: u64, pass: u32| usize_from_u32(low_u32(word >> (32 + pass * RADIX_BITS)) & MASK);
    let mut out = vec![0u64; keyed.len()];
    for pass in 0..2 {
        let mut offsets = vec![0usize; BUCKETS];
        for &word in &keyed {
            offsets[digit(word, pass)] += 1;
        }
        let mut sum = 0usize;
        for slot in &mut offsets {
            let count = *slot;
            *slot = sum;
            sum += count;
        }
        for &word in &keyed {
            let d = digit(word, pass);
            out[offsets[d]] = word;
            offsets[d] += 1;
        }
        std::mem::swap(&mut keyed, &mut out);
    }
    keyed
}

/// The ID half of a packed `(key << 32) | id` word.
fn low_u32(word: u64) -> u32 {
    u32::try_from(word & u64::from(u32::MAX)).unwrap_or(u32::MAX)
}

/// Smallest cell count per axis such that `cells³ · target ≥ n`,
/// clamped to [`MAX_CELLS_PER_AXIS`]. Integer search keeps the result
/// platform-independent.
fn cells_per_axis(n: usize, target: u32) -> u32 {
    let n = neo_math::num::u64_from_usize(n);
    let target = u64::from(target.max(1));
    let mut cells = 1u32;
    while cells < MAX_CELLS_PER_AXIS {
        let c = u64::from(cells);
        if c * c * c * target >= n {
            break;
        }
        cells += 1;
    }
    cells
}

/// Uniform grid over `world` used only during construction.
struct CellGrid {
    lo: Vec3,
    inv_cell: Vec3,
    cells: u32,
}

impl CellGrid {
    fn new(world: Aabb, cells: u32) -> Self {
        let extent = (world.max - world.min).max(Vec3::splat(1e-6));
        let cells_f = cells_to_f32(cells);
        Self {
            lo: world.min,
            inv_cell: Vec3::new(cells_f / extent.x, cells_f / extent.y, cells_f / extent.z),
            cells,
        }
    }

    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "f32->u32 after floor().max(0.0): non-negative, and min() below clamps to the grid; floats have no try_from"
    )]
    fn cell_coord(&self, x: f32, lo: f32, inv: f32) -> u32 {
        let c = ((x - lo) * inv).floor().max(0.0);
        (c as u32).min(self.cells - 1)
    }

    fn morton_key(&self, m: Vec3) -> u64 {
        let cx = self.cell_coord(m.x, self.lo.x, self.inv_cell.x);
        let cy = self.cell_coord(m.y, self.lo.y, self.inv_cell.y);
        let cz = self.cell_coord(m.z, self.lo.z, self.inv_cell.z);
        morton3(cx, cy, cz)
    }
}

/// Exact f32 value of a cell count in `1..=256`.
fn cells_to_f32(cells: u32) -> f32 {
    // u32 -> f32 is lossy in general but exact for values ≤ 2^24;
    // `cells` is clamped to MAX_CELLS_PER_AXIS = 256.
    cells as f32
}

/// Spreads the low 8 bits of `x` so consecutive bits land 3 apart.
fn spread3(x: u32) -> u64 {
    let mut v = u64::from(x) & 0xFF;
    v = (v | (v << 8)) & 0x000F_00F0_0F00_F00F;
    v = (v | (v << 4)) & 0x00C3_0C30_C30C_30C3;
    v = (v | (v << 2)) & 0x1249_2492_4924_9249;
    v
}

/// 24-bit Morton (Z-order) interleave of three 8-bit cell coordinates.
fn morton3(x: u32, y: u32, z: u32) -> u64 {
    spread3(x) | (spread3(y) << 1) | (spread3(z) << 2)
}

/// Octant of `point` relative to `center` (bit 0 = +x, 1 = +y, 2 = +z).
fn octant_of(center: Vec3, point: Vec3) -> usize {
    usize::from(point.x >= center.x)
        | (usize::from(point.y >= center.y) << 1)
        | (usize::from(point.z >= center.z) << 2)
}

/// Streaming accumulator for one bounds-octant proxy.
///
/// All state is order-dependent f32 arithmetic fed in ascending member
/// ID; the finalize step is a pure function of the accumulated state.
#[derive(Debug, Clone, Copy)]
struct OctantAcc {
    count: u32,
    weight: f32,
    pos_sum: Vec3,
    dc_sum: Vec3,
    transparency: f32,
    mean_bounds: Aabb,
    max_radius: f32,
}

impl Default for OctantAcc {
    fn default() -> Self {
        Self {
            count: 0,
            weight: 0.0,
            pos_sum: Vec3::ZERO,
            dc_sum: Vec3::ZERO,
            transparency: 1.0,
            mean_bounds: Aabb::EMPTY,
            max_radius: 0.0,
        }
    }
}

impl OctantAcc {
    /// Adds one member: its geometry and the DC term of its SH.
    fn accumulate(&mut self, g: &SplatGeometry, dc: Vec3) {
        let w = g.opacity.max(1e-4);
        self.count += 1;
        self.weight += w;
        self.pos_sum += g.mean * w;
        self.dc_sum += dc * w;
        self.transparency *= 1.0 - g.opacity.clamp(0.0, 1.0);
        self.mean_bounds = self.mean_bounds.union_point(g.mean);
        self.max_radius = self.max_radius.max(g.bounding_radius());
    }

    /// Merged representative splat and its color, or `None` for an
    /// empty octant.
    fn finalize(&self) -> Option<(SplatGeometry, Vec3)> {
        if self.count == 0 || self.weight <= 0.0 {
            return None;
        }
        let mean = self.pos_sum * (1.0 / self.weight);
        // Isotropic scale whose 3σ sphere covers every member's 3σ
        // extent: the farthest mean-bounds corner plus the largest
        // member radius.
        let he = self.mean_bounds.half_extent();
        let center = self.mean_bounds.center();
        let corner_dist = ((center - mean).abs() + he).length();
        let cover = corner_dist + self.max_radius;
        let mut sh = ShCoefficients::from_constant_color(Vec3::splat(0.5));
        sh.coeffs[0][0] = self.dc_sum.x / self.weight;
        sh.coeffs[1][0] = self.dc_sum.y / self.weight;
        sh.coeffs[2][0] = self.dc_sum.z / self.weight;
        // Degree 0 reads no direction: any one gives the frame's bits.
        let color = sh.eval(Vec3::Z);
        Some((
            SplatGeometry {
                mean,
                scale: Vec3::splat((cover / 3.0).max(1e-4)),
                rotation: Quat::IDENTITY,
                opacity: (1.0 - self.transparency).clamp(0.01, 0.9999),
            },
            color,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::SynthParams;
    use std::collections::BTreeMap;

    fn small_cloud() -> crate::GaussianCloud {
        SynthParams {
            gaussian_count: 3_000,
            ..Default::default()
        }
        .build()
    }

    /// Builds the default index over a copy of `cloud`, returning the
    /// cloud in cluster order with it.
    fn ordered(cloud: &GaussianCloud) -> (Arc<GaussianCloud>, ClusteredCloud) {
        let mut ordered = Arc::new(cloud.clone());
        let index = ClusteredCloud::build(&mut ordered, ClusterParams::default());
        (ordered, index)
    }

    /// The ID in `original` of every splat of `ordered`, matched by the
    /// bits of its mean (unique in the synthetic clouds used here).
    fn original_ids(original: &GaussianCloud, ordered: &GaussianCloud) -> Vec<u32> {
        let bits = |m: Vec3| [m.x.to_bits(), m.y.to_bits(), m.z.to_bits()];
        let by_mean: BTreeMap<[u32; 3], u32> = (0u32..)
            .zip(original.geometry())
            .map(|(id, g)| (bits(g.mean), id))
            .collect();
        assert_eq!(by_mean.len(), original.len(), "means must be unique");
        ordered
            .geometry()
            .iter()
            .map(|g| by_mean[&bits(g.mean)])
            .collect()
    }

    #[test]
    fn clusters_are_abutting_ranges_of_the_cluster_ordered_cloud() {
        let cloud = small_cloud();
        let (ordered, idx) = ordered(&cloud);
        assert!(idx.cluster_count() > 1, "3k splats should split");
        let mut next = 0u32;
        for c in idx.clusters() {
            assert!(!c.is_empty());
            assert_eq!(c.ids().start, next, "ranges must abut");
            assert_eq!(c.ids().len(), c.len());
            next = c.ids().end;
        }
        assert_eq!(next, idx.source_len());
        assert_eq!(idx.source_len() as usize, cloud.len());
        // The ordered cloud is a permutation of the original that keeps
        // the members of each cluster in their original relative order.
        let sources = original_ids(&cloud, &ordered);
        let mut sorted = sources.clone();
        sorted.sort_unstable();
        assert!(
            sorted.into_iter().eq(0..idx.source_len()),
            "not a permutation"
        );
        for c in idx.clusters() {
            let members = &sources[c.ids().start as usize..c.ids().end as usize];
            assert!(
                members.windows(2).all(|w| w[0] < w[1]),
                "member order changed"
            );
            for (k, &src) in c.ids().zip(members) {
                assert_eq!(ordered.get(k), cloud.get(src));
            }
        }
        assert_ne!(*ordered, cloud, "3k splats are not in cluster order");
    }

    #[test]
    fn bounds_cover_members_conservatively() {
        let (cloud, idx) = ordered(&small_cloud());
        for c in idx.clusters() {
            for id in c.ids() {
                let g = cloud.get(id).unwrap();
                assert!(c.bounds().contains(g.mean));
                assert!(g.bounding_radius() <= c.max_radius() + 1e-6);
            }
        }
    }

    #[test]
    fn build_is_deterministic() {
        let cloud = small_cloud();
        assert_eq!(ordered(&cloud), ordered(&cloud));
    }

    #[test]
    fn proxies_are_valid_and_bounded() {
        let cloud = small_cloud();
        let (_, idx) = ordered(&cloud);
        assert!(idx.proxy_count() > 0);
        let mut total = 0usize;
        for ci in 0..idx.cluster_count() {
            let proxies = idx.cluster_proxies(ci);
            assert!(proxies.len() <= 8);
            assert!(!proxies.is_empty(), "non-empty cluster has a proxy");
            total += proxies.len();
            for p in proxies {
                assert!(p.is_valid(), "proxy must be a valid gaussian");
            }
        }
        assert_eq!(total, idx.proxy_count());
        // Proxies compress: far fewer proxies than members.
        assert!(idx.proxy_count() * 4 < cloud.len());
    }

    #[test]
    fn proxy_covers_member_extents() {
        let (cloud, idx) = ordered(&small_cloud());
        // Every member's 3σ sphere lies inside some proxy's 3σ sphere of
        // its cluster (the octant it was accumulated into).
        for (ci, c) in idx.clusters().iter().enumerate() {
            let proxies = idx.cluster_proxies(ci);
            for id in c.ids() {
                let g = cloud.get(id).unwrap();
                let covered = proxies.iter().any(|p| {
                    g.mean.distance(p.mean) + g.bounding_radius() <= p.bounding_radius() + 1e-3
                });
                assert!(covered, "member {id} not covered in cluster {ci}");
            }
        }
    }

    #[test]
    fn target_cluster_size_scales_resolution() {
        let cloud = small_cloud();
        let build = |target_cluster_size| {
            ClusteredCloud::build(
                &mut Arc::new(cloud.clone()),
                ClusterParams {
                    target_cluster_size,
                },
            )
        };
        assert!(build(32).cluster_count() > build(2_000).cluster_count());
    }

    #[test]
    fn empty_cloud_builds_empty_index() {
        let (_, idx) = ordered(&crate::GaussianCloud::default());
        assert_eq!(idx.cluster_count(), 0);
        assert_eq!(idx.proxy_count(), 0);
        assert_eq!(idx.source_len(), 0);
    }

    #[test]
    fn radix_sort_builds_the_comparison_sort_index() {
        let comparison_sort = |mut keyed: Vec<u64>| {
            keyed.sort_unstable();
            keyed
        };
        let clouds = [
            small_cloud(),
            crate::synth::CityParams {
                splats_per_block: 60,
                ..crate::synth::CityParams::default().scaled(2.0)
            }
            .build(),
            SynthParams {
                gaussian_count: 40_000,
                seed: 11,
                ..Default::default()
            }
            .build(),
        ];
        for cloud in &clouds {
            for target_cluster_size in [1, 32, 512] {
                let params = ClusterParams {
                    target_cluster_size,
                };
                let mut radix = Arc::new(cloud.clone());
                let mut comparison = Arc::new(cloud.clone());
                assert_eq!(
                    ClusteredCloud::build(&mut radix, params),
                    ClusteredCloud::build_with(&mut comparison, params, comparison_sort),
                    "{} splats, target {target_cluster_size}",
                    cloud.len()
                );
                assert_eq!(radix, comparison);
            }
        }
    }

    #[test]
    fn building_over_the_cluster_ordered_cloud_changes_nothing() {
        let cloud = small_cloud();
        let (ordered, idx) = ordered(&cloud);
        // The ordered cloud is already in cluster order: a second build
        // keeps even a shared allocation, and gives the same clusters,
        // bounds, proxy geometry and proxy colors bit for bit.
        let mut again = Arc::clone(&ordered);
        let rebuilt = ClusteredCloud::build(&mut again, ClusterParams::default());
        assert!(Arc::ptr_eq(&again, &ordered));
        assert_eq!(rebuilt.clusters(), idx.clusters());
        assert_eq!(rebuilt.proxies(), idx.proxies());
        let color_bits = |index: &ClusteredCloud| -> Vec<[u32; 3]> {
            (0..index.proxy_count())
                .map(|k| {
                    let c = index.proxy_color(k);
                    [c.x.to_bits(), c.y.to_bits(), c.z.to_bits()]
                })
                .collect()
        };
        assert!(idx.proxy_count() > 0);
        assert_eq!(color_bits(&rebuilt), color_bits(&idx));
        // A shared cloud out of order is copied; its other holders keep
        // the original.
        let shared = Arc::new(cloud.clone());
        let mut moved = Arc::clone(&shared);
        ClusteredCloud::build(&mut moved, ClusterParams::default());
        assert!(!Arc::ptr_eq(&moved, &shared));
        assert_eq!(*shared, cloud);
        assert_eq!(moved, ordered);
    }

    #[test]
    fn morton_interleave_orders_neighbors_near() {
        assert_eq!(morton3(0, 0, 0), 0);
        assert_eq!(morton3(1, 0, 0), 1);
        assert_eq!(morton3(0, 1, 0), 2);
        assert_eq!(morton3(0, 0, 1), 4);
        assert_eq!(morton3(255, 255, 255), (1 << 24) - 1);
    }

    #[test]
    fn cells_per_axis_matches_target() {
        assert_eq!(cells_per_axis(0, 512), 1);
        assert_eq!(cells_per_axis(512, 512), 1);
        assert_eq!(cells_per_axis(513, 512), 2);
        // Clamped at the cap.
        assert_eq!(cells_per_axis(usize::MAX, 1), MAX_CELLS_PER_AXIS);
    }
}
