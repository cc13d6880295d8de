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
//! order, member lists are ascending by splat ID, and every proxy
//! accumulation runs in ascending-member order. Building the same cloud
//! twice — or on different machines — yields byte-identical indexes.
//!
//! # Renumbering
//!
//! A freshly built index stores the cloud IDs of its members, so a
//! cluster's members are scattered across the cloud. The render engine
//! renumbers the scene once, at build time, into the index's member
//! order: [`ClusteredCloud::renumber`] relabels every cluster to one
//! contiguous, ascending ID range (clusters in Morton order) and hands
//! back the permutation the cloud must undergo
//! ([`GaussianCloud::permute`]). Afterwards each cluster is a single
//! range of the cloud's geometry, and
//! [`ClusteredCloud::source_ids`] maps the new IDs back to the original
//! ones. Relabeling changes no bound or proxy: within a cluster the new
//! IDs keep the members' original relative order, so every per-cluster
//! accumulation runs in the same order as before.

use crate::gaussian::SplatGeometry;
use crate::GaussianCloud;
use neo_math::num::usize_from_u32;
use neo_math::sh::ShCoefficients;
use neo_math::{Aabb, Quat, Vec3};

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

/// One spatial cluster: a set of member splat IDs with conservative
/// world-space bounds and a slice of proxy splats in the parent
/// [`ClusteredCloud`].
#[derive(Debug, Clone, PartialEq)]
pub struct Cluster {
    members: Vec<u32>,
    bounds: Aabb,
    max_radius: f32,
    proxy_start: u32,
    proxy_len: u32,
}

impl Cluster {
    /// Member splat IDs, ascending.
    pub fn members(&self) -> &[u32] {
        &self.members
    }

    /// Number of member splats.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True when the cluster has no members.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
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

/// A cluster index over a splat cloud: Morton-ordered spatial clusters
/// with per-cluster bounds and merged LOD proxy splats.
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
    /// New ID → original ID, set by [`ClusteredCloud::renumber`].
    source_ids: Option<Vec<u32>>,
}

impl ClusteredCloud {
    /// Builds a cluster index over `cloud`.
    ///
    /// Deterministic: see the module docs. Costs two streaming passes
    /// over the cloud plus a linear-time radix sort of `(cell, id)`
    /// keys. The first pass reads geometry only; the second reads
    /// geometry and each splat's DC SH term, which its proxy accumulates.
    pub fn build(cloud: &GaussianCloud, params: ClusterParams) -> Self {
        Self::build_with(cloud, params, radix_sort_keyed)
    }

    /// [`ClusteredCloud::build`] with the `(cell, id)` key sort supplied
    /// by the caller (the tests swap in a comparison sort).
    fn build_with(
        cloud: &GaussianCloud,
        params: ClusterParams,
        sort_keyed: fn(Vec<u64>) -> Vec<u64>,
    ) -> Self {
        let params = params.sanitized();
        let geometry = cloud.geometry();
        let n = geometry.len();
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
        for g in geometry {
            means.push(g.mean);
            radii.push(g.bounding_radius());
            world = world.union_point(g.mean);
        }

        let cells = cells_per_axis(n, params.target_cluster_size);
        let grid = CellGrid::new(world, cells);

        // Key every splat by the Morton code of its grid cell, packed
        // above its ID, then sort: equal keys group into clusters, and the
        // (key, id) order makes member lists ascending by construction.
        let keyed = sort_keyed(
            (0u32..source_len)
                .map(|id| (grid.morton_key(means[usize_from_u32(id)]) << 32) | u64::from(id))
                .collect(),
        );

        // Group into clusters and record each splat's cluster index for
        // the proxy-accumulation pass.
        let mut clusters: Vec<Cluster> = Vec::new();
        let mut cluster_of: Vec<u32> = vec![0; n];
        let mut i = 0usize;
        while i < keyed.len() {
            let key = keyed[i] >> 32;
            let mut members = Vec::new();
            let mut bounds = Aabb::EMPTY;
            let mut max_radius = 0.0f32;
            while i < keyed.len() && keyed[i] >> 32 == key {
                let id = low_u32(keyed[i]);
                members.push(id);
                bounds = bounds.union_point(means[usize_from_u32(id)]);
                max_radius = max_radius.max(radii[usize_from_u32(id)]);
                i += 1;
            }
            let cluster_idx = u32::try_from(clusters.len()).unwrap_or(u32::MAX);
            for &id in &members {
                cluster_of[usize_from_u32(id)] = cluster_idx;
            }
            clusters.push(Cluster {
                members,
                bounds,
                max_radius,
                proxy_start: 0,
                proxy_len: 0,
            });
        }

        // Pass 2: accumulate per-cluster octant statistics in ascending
        // splat-ID order, which fixes the f32 summation order
        // independently of cluster shape.
        let mut accs: Vec<[OctantAcc; OCTANTS]> =
            vec![[OctantAcc::default(); OCTANTS]; clusters.len()];
        for (j, (g, &c)) in geometry.iter().zip(&cluster_of).enumerate() {
            let c = usize_from_u32(c);
            let o = octant_of(clusters[c].bounds.center(), g.mean);
            accs[c][o].accumulate(g, cloud.dc(j));
        }

        // Finalize proxies in (cluster, octant) order.
        let mut proxies: Vec<SplatGeometry> = Vec::new();
        let mut proxy_colors: Vec<Vec3> = Vec::new();
        for (cluster, acc) in clusters.iter_mut().zip(&accs) {
            let start = u32::try_from(proxies.len()).unwrap_or(u32::MAX);
            for oct in acc {
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
            source_ids: None,
        }
    }

    fn empty() -> Self {
        Self {
            clusters: Vec::new(),
            proxies: Vec::new(),
            proxy_colors: Vec::new(),
            source_len: 0,
            source_ids: None,
        }
    }

    /// Relabels the members so that each cluster owns one contiguous,
    /// ascending ID range, clusters following each other in Morton order.
    ///
    /// Returns the member order — new ID → source ID — that the cloud
    /// the index was built over must be permuted by to match, or `None`
    /// when that order is the identity (as it is for an already
    /// renumbered index) and nothing changed. Bounds and proxies
    /// stay as they are (see the module docs); the order is kept as
    /// [`ClusteredCloud::source_ids`].
    pub fn renumber(&mut self) -> Option<&[u32]> {
        let mut order = Vec::with_capacity(usize_from_u32(self.source_len));
        for cluster in &self.clusters {
            order.extend_from_slice(&cluster.members);
        }
        if order.iter().zip(0u32..).all(|(&id, k)| id == k) {
            return None;
        }
        let mut next = 0u32;
        for cluster in &mut self.clusters {
            for id in &mut cluster.members {
                *id = next;
                next += 1;
            }
        }
        Some(self.source_ids.insert(order).as_slice())
    }

    /// The source ID of every member, indexed by its current ID, once
    /// [`ClusteredCloud::renumber`] has relabeled the index; `None` while
    /// member IDs are still the IDs of the cloud it was built over.
    pub fn source_ids(&self) -> Option<&[u32]> {
        self.source_ids.as_deref()
    }

    /// The clusters, in ascending Morton-key order.
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

    /// Total members across clusters (equals `source_len()` by
    /// construction; exposed for invariants in tests).
    pub fn total_members(&self) -> usize {
        self.clusters.iter().map(Cluster::len).sum()
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

    fn small_cloud() -> crate::GaussianCloud {
        SynthParams {
            gaussian_count: 3_000,
            ..Default::default()
        }
        .build()
    }

    #[test]
    fn clustering_partitions_ids_exactly() {
        let cloud = small_cloud();
        let idx = ClusteredCloud::build(&cloud, ClusterParams::default());
        assert_eq!(idx.total_members(), cloud.len());
        let mut seen = vec![false; cloud.len()];
        for c in idx.clusters() {
            assert!(!c.is_empty());
            for w in c.members().windows(2) {
                assert!(w[0] < w[1], "member ids must be strictly ascending");
            }
            for &id in c.members() {
                assert!(!seen[id as usize], "id {id} in two clusters");
                seen[id as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
        assert!(idx.cluster_count() > 1, "3k splats should split");
    }

    #[test]
    fn bounds_cover_members_conservatively() {
        let cloud = small_cloud();
        let idx = ClusteredCloud::build(&cloud, ClusterParams::default());
        for c in idx.clusters() {
            for &id in c.members() {
                let g = cloud.get(id).unwrap();
                assert!(c.bounds().contains(g.mean));
                assert!(g.bounding_radius() <= c.max_radius() + 1e-6);
            }
        }
    }

    #[test]
    fn build_is_deterministic() {
        let cloud = small_cloud();
        let a = ClusteredCloud::build(&cloud, ClusterParams::default());
        let b = ClusteredCloud::build(&cloud, ClusterParams::default());
        assert_eq!(a, b);
    }

    #[test]
    fn proxies_are_valid_and_bounded() {
        let cloud = small_cloud();
        let idx = ClusteredCloud::build(&cloud, ClusterParams::default());
        assert!(idx.proxy_count() > 0);
        let mut total = 0usize;
        for (ci, c) in idx.clusters().iter().enumerate() {
            let proxies = idx.cluster_proxies(ci);
            assert!(proxies.len() <= 8);
            assert!(!proxies.is_empty(), "non-empty cluster has a proxy");
            total += proxies.len();
            for p in proxies {
                assert!(p.is_valid(), "proxy must be a valid gaussian");
            }
            let _ = c;
        }
        assert_eq!(total, idx.proxy_count());
        // Proxies compress: far fewer proxies than members.
        assert!(idx.proxy_count() * 4 < cloud.len());
    }

    #[test]
    fn proxy_covers_member_extents() {
        let cloud = small_cloud();
        let idx = ClusteredCloud::build(&cloud, ClusterParams::default());
        // Every member's 3σ sphere lies inside some proxy's 3σ sphere of
        // its cluster (the octant it was accumulated into).
        for (ci, c) in idx.clusters().iter().enumerate() {
            let proxies = idx.cluster_proxies(ci);
            for &id in c.members() {
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
        let coarse = ClusteredCloud::build(
            &cloud,
            ClusterParams {
                target_cluster_size: 2_000,
            },
        );
        let fine = ClusteredCloud::build(
            &cloud,
            ClusterParams {
                target_cluster_size: 32,
            },
        );
        assert!(fine.cluster_count() > coarse.cluster_count());
    }

    #[test]
    fn empty_cloud_builds_empty_index() {
        let cloud = crate::GaussianCloud::default();
        let idx = ClusteredCloud::build(&cloud, ClusterParams::default());
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
                assert_eq!(
                    ClusteredCloud::build(cloud, params),
                    ClusteredCloud::build_with(cloud, params, comparison_sort),
                    "{} splats, target {target_cluster_size}",
                    cloud.len()
                );
            }
        }
    }

    #[test]
    fn renumbering_makes_clusters_contiguous_and_keeps_bounds_and_proxies() {
        let cloud = small_cloud();
        let built = ClusteredCloud::build(&cloud, ClusterParams::default());
        let mut idx = built.clone();
        let order = idx
            .renumber()
            .expect("3k splats are not in cluster order")
            .to_vec();
        assert_eq!(idx.source_ids(), Some(order.as_slice()));
        let mut next = 0u32;
        for (c, before) in idx.clusters().iter().zip(built.clusters()) {
            let len = c.len() as u32;
            assert_eq!(c.members(), (next..next + len).collect::<Vec<_>>());
            // New ID k stands for source ID order[k].
            let sources: Vec<u32> = c.members().iter().map(|&k| order[k as usize]).collect();
            assert_eq!(sources, before.members());
            next += len;
        }
        assert_eq!(next, idx.source_len());
        // Rebuilding over the permuted cloud gives the relabeled index:
        // clusters, bounds, proxy geometry and proxy colors are unchanged
        // bit for bit.
        let mut permuted = cloud.clone();
        permuted.permute(&order);
        let rebuilt = ClusteredCloud::build(&permuted, ClusterParams::default());
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
        // A renumbered index is already in order.
        assert!(idx.clone().renumber().is_none());
        assert!(built.source_ids().is_none());
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
