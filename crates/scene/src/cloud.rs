//! A collection of Gaussians forming a scene, stored split into a hot
//! geometry array and degree-sized SH.
//!
//! The frame path reads geometry for every splat it visits and color only
//! for the splats an image draws, so the cloud keeps the two apart: one
//! 44-byte [`SplatGeometry`] per splat, contiguous, and the SH
//! coefficients in a second array at the cloud's max-degree stride of
//! `3·(d+1)²` floats per splat. That is the record
//! [`GaussianCloud::record_bytes`] charges, `44 + 12·(d+1)²` bytes, plus
//! one byte for each splat's own SH degree.

use crate::gaussian::SplatGeometry;
use crate::{Camera, Gaussian};
use neo_math::num::usize_from_u32;
use neo_math::sh::{basis_count, eval_rgb, ShCoefficients, MAX_COEFFS, MAX_DEGREE};
use neo_math::{Aabb, Vec3};

/// An ordered collection of [`Gaussian`]s; Gaussian IDs used throughout the
/// pipeline are indices into this collection.
///
/// Stored split (see the module docs): [`GaussianCloud::geometry`] lends
/// the geometry records in place, and [`GaussianCloud::get`] joins a
/// record with its SH back into the [`Gaussian`] that was pushed. SH
/// coefficients above a Gaussian's own degree are not stored (SH
/// evaluation never reads them) and come back as zero. Two clouds are
/// equal when they hold the same Gaussians in the same order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GaussianCloud {
    geometry: Vec<SplatGeometry>,
    /// Splat `j`'s basis `i` of channel `c` sits at
    /// `j·3n + c·n + i`, with `n = basis_count(max_degree)`; bases above
    /// the splat's own degree are zero.
    sh: Vec<f32>,
    /// Each splat's own SH degree.
    degrees: Vec<u8>,
    /// The highest degree in `degrees` (0 when empty): sets the SH stride.
    max_degree: usize,
}

impl GaussianCloud {
    /// Creates an empty cloud.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty cloud with room for `len` Gaussians of SH degree
    /// up to `sh_degree` (clamped to
    /// [`MAX_DEGREE`](neo_math::sh::MAX_DEGREE)), so that pushing them
    /// reallocates nothing.
    pub fn with_capacity(len: usize, sh_degree: usize) -> Self {
        Self {
            geometry: Vec::with_capacity(len),
            sh: Vec::with_capacity(len * 3 * basis_count(sh_degree.min(MAX_DEGREE))),
            degrees: Vec::with_capacity(len),
            max_degree: 0,
        }
    }

    /// Creates a cloud from a vector of Gaussians.
    pub fn from_gaussians(gaussians: Vec<Gaussian>) -> Self {
        gaussians.into_iter().collect()
    }

    /// Number of Gaussians.
    pub fn len(&self) -> usize {
        self.geometry.len()
    }

    /// True when the cloud holds no Gaussians.
    pub fn is_empty(&self) -> bool {
        self.geometry.is_empty()
    }

    /// The geometry records, indexed by ID.
    pub fn geometry(&self) -> &[SplatGeometry] {
        &self.geometry
    }

    /// Bytes of one splat's resident record, `44 + 12·(d+1)²` at the
    /// cloud's max SH degree `d`: its [`SplatGeometry`] plus SH at the
    /// max-degree stride. The traffic ledger charges this per splat read.
    pub fn record_bytes(&self) -> usize {
        std::mem::size_of::<SplatGeometry>() + 12 * self.sh_bases()
    }

    /// View-dependent color of splat `id` seen from `cam`: its SH
    /// evaluated toward `cam.view_direction(mean)`, bit-identical to
    /// `g.sh.eval(cam.view_direction(g.mean))` on the [`get`] result.
    /// This is the frame path's one SH read, made per projected splat
    /// by the color pass.
    ///
    /// # Panics
    ///
    /// Panics when `id` is out of range.
    ///
    /// [`get`]: GaussianCloud::get
    pub fn color(&self, id: u32, cam: &Camera) -> Vec3 {
        let j = usize_from_u32(id);
        let (sh, degree) = self.sh_at(j);
        let dir = cam.view_direction(self.geometry[j].mean);
        eval_rgb(degree, sh, self.sh_bases(), dir)
    }

    /// Bases per channel of every splat's stored SH: `(d+1)²` at the
    /// cloud's max degree `d`.
    pub(crate) fn sh_bases(&self) -> usize {
        basis_count(self.max_degree)
    }

    /// The stored SH of splat `j`, channel-major at
    /// [`GaussianCloud::sh_bases`] per channel, and its own degree.
    pub(crate) fn sh_at(&self, j: usize) -> (&[f32], usize) {
        let stride = 3 * self.sh_bases();
        (
            &self.sh[j * stride..][..stride],
            usize::from(self.degrees[j]),
        )
    }

    /// The DC (degree-0) term of splat `j`'s SH, one per channel.
    pub(crate) fn dc(&self, j: usize) -> Vec3 {
        let n = self.sh_bases();
        let (sh, _) = self.sh_at(j);
        Vec3::new(sh[0], sh[n], sh[2 * n])
    }

    /// Gaussian by ID, if in range.
    pub fn get(&self, id: u32) -> Option<Gaussian> {
        let j = usize_from_u32(id);
        let geometry = *self.geometry.get(j)?;
        let (stored, degree) = self.sh_at(j);
        let n = self.sh_bases();
        let mut coeffs = [[0.0f32; MAX_COEFFS]; 3];
        for (c, channel) in coeffs.iter_mut().enumerate() {
            channel[..n].copy_from_slice(&stored[c * n..][..n]);
        }
        Some(Gaussian::from_parts(
            geometry,
            ShCoefficients { coeffs, degree },
        ))
    }

    /// Appends a Gaussian, returning its ID.
    ///
    /// # Panics
    ///
    /// Panics when the Gaussian's SH degree exceeds
    /// [`MAX_DEGREE`](neo_math::sh::MAX_DEGREE).
    pub fn push(&mut self, g: Gaussian) -> u32 {
        let degree = g.sh.degree;
        assert!(
            degree <= MAX_DEGREE,
            "SH degree {degree} exceeds {MAX_DEGREE}"
        );
        if degree > self.max_degree {
            self.restride(degree);
        }
        #[expect(
            clippy::cast_possible_truncation,
            reason = "the ID space is u32 by design (file format and tile entries store u32 IDs); clouds beyond u32::MAX Gaussians are out of scope"
        )]
        let id = self.geometry.len() as u32;
        self.geometry.push(g.geometry());
        // The splat's block at the stored stride, bases above its own
        // degree zeroed.
        let (n, own) = (self.sh_bases(), basis_count(degree));
        for channel in &g.sh.coeffs {
            self.sh.extend_from_slice(&channel[..own]);
            self.sh.resize(self.sh.len() + (n - own), 0.0);
        }
        #[expect(
            clippy::cast_possible_truncation,
            reason = "degree <= MAX_DEGREE = 3, asserted above"
        )]
        self.degrees.push(degree as u8);
        id
    }

    /// Re-lays the SH array out at the stride of a higher max degree,
    /// zero-padding every stored splat. Runs at most once per degree.
    fn restride(&mut self, degree: usize) {
        if self.is_empty() {
            // Nothing to move; keep any reserved capacity.
            self.max_degree = degree;
            return;
        }
        let (old, new) = (self.sh_bases(), basis_count(degree));
        let mut sh = vec![0.0f32; self.len() * 3 * new];
        for (dst, src) in sh
            .chunks_exact_mut(3 * new)
            .zip(self.sh.chunks_exact(3 * old))
        {
            for c in 0..3 {
                dst[c * new..][..old].copy_from_slice(&src[c * old..][..old]);
            }
        }
        self.sh = sh;
        self.max_degree = degree;
    }

    /// Iterates over `(id, gaussian)` pairs, each joined from its stored
    /// parts.
    pub fn iter(&self) -> impl Iterator<Item = (u32, Gaussian)> + '_ {
        (0u32..).map_while(|id| self.get(id).map(|g| (id, g)))
    }

    /// Tight bounds over all means (ignores Gaussian extents).
    pub fn bounds(&self) -> Aabb {
        Aabb::from_points(self.geometry.iter().map(|g| g.mean))
    }

    /// Bounds inflated by each Gaussian's 3σ radius.
    pub fn bounds_inflated(&self) -> Aabb {
        self.geometry.iter().fold(Aabb::EMPTY, |acc, g| {
            acc.union(Aabb::from_center_half_extent(
                g.mean,
                Vec3::splat(g.bounding_radius()),
            ))
        })
    }

    /// Highest SH degree used by any Gaussian (0 for an empty cloud).
    ///
    /// Tracked as Gaussians are pushed, so it costs nothing to ask. SH is
    /// stored at this degree's stride, serialization homogenizes mixed
    /// clouds to it (zero-padding the missing coefficients), and the
    /// traffic ledger charges every record at it.
    pub fn max_sh_degree(&self) -> usize {
        self.max_degree
    }

    /// Reorders the cloud in place so that Gaussian `k` afterwards is the
    /// one that had ID `order[k]` (`order` maps new ID → old ID).
    ///
    /// Walks each cycle of the permutation once, moving every geometry
    /// record and SH block exactly once through a single held copy; the
    /// only extra memory is one flag per Gaussian, never a second copy of
    /// the cloud.
    ///
    /// # Panics
    ///
    /// Panics when `order` is not a permutation of `0..len()`.
    pub fn permute(&mut self, order: &[u32]) {
        let n = self.len();
        assert_eq!(order.len(), n, "permutation length must match the cloud");
        // First pass validates `order` and marks every ID as pending; the
        // cycle walk then clears each flag as it places that record.
        let mut pending = vec![false; n];
        for &src in order {
            let src = usize_from_u32(src);
            assert!(src < n && !pending[src], "order must be a permutation");
            pending[src] = true;
        }
        let stride = 3 * self.sh_bases();
        let mut held_sh = [0.0f32; 3 * MAX_COEFFS];
        for start in 0..n {
            if !pending[start] {
                continue;
            }
            pending[start] = false;
            let mut src = usize_from_u32(order[start]);
            if src == start {
                continue;
            }
            // Each position is read (as the source of its predecessor in
            // the cycle) before it is written, so one held record closes
            // the cycle.
            let held = (self.geometry[start], self.degrees[start]);
            held_sh[..stride].copy_from_slice(&self.sh[start * stride..][..stride]);
            let mut dst = start;
            while src != start {
                self.geometry[dst] = self.geometry[src];
                self.degrees[dst] = self.degrees[src];
                self.sh
                    .copy_within(src * stride..(src + 1) * stride, dst * stride);
                pending[src] = false;
                dst = src;
                src = usize_from_u32(order[src]);
            }
            (self.geometry[dst], self.degrees[dst]) = held;
            self.sh[dst * stride..][..stride].copy_from_slice(&held_sh[..stride]);
        }
    }

    /// Drops Gaussians failing [`Gaussian::is_valid`], returning how many
    /// were removed. IDs are reassigned (they are positional), and the SH
    /// stride shrinks to the survivors' max degree.
    pub fn retain_valid(&mut self) -> usize {
        let before = self.len();
        *self = self
            .iter()
            .map(|(_, g)| g)
            .filter(Gaussian::is_valid)
            .collect();
        before - self.len()
    }
}

/// The splat store as the repository benchmark's replay names it:
/// `&dyn CloudStorage` in its signatures, `len()` on it, and the colored
/// `project_storage`/`project_clusters` wrappers that take it.
/// [`GaussianCloud`] is its one implementor. It stays only for that
/// replay and goes with the benchmark's next change; everything else
/// takes `&GaussianCloud` or its [`geometry`](GaussianCloud::geometry)
/// slice.
pub trait CloudStorage {
    /// The cloud behind the trait object.
    fn cloud(&self) -> &GaussianCloud;

    /// Number of splats stored.
    fn len(&self) -> usize {
        self.cloud().len()
    }

    /// True when no splats are stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl CloudStorage for GaussianCloud {
    fn cloud(&self) -> &GaussianCloud {
        self
    }
}

impl FromIterator<Gaussian> for GaussianCloud {
    fn from_iter<T: IntoIterator<Item = Gaussian>>(iter: T) -> Self {
        let mut cloud = Self::new();
        cloud.extend(iter);
        cloud
    }
}

impl Extend<Gaussian> for GaussianCloud {
    fn extend<T: IntoIterator<Item = Gaussian>>(&mut self, iter: T) {
        let iter = iter.into_iter();
        let (lower, _) = iter.size_hint();
        self.geometry.reserve(lower);
        self.degrees.reserve(lower);
        for g in iter {
            self.push(g);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn probe(x: f32) -> Gaussian {
        Gaussian::isotropic(Vec3::new(x, 0.0, 0.0), 0.1, 0.5, Vec3::ONE)
    }

    #[test]
    fn push_assigns_sequential_ids() {
        let mut c = GaussianCloud::new();
        assert_eq!(c.push(probe(0.0)), 0);
        assert_eq!(c.push(probe(1.0)), 1);
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(1).unwrap().mean.x, 1.0);
        assert!(c.get(2).is_none());
    }

    #[test]
    fn bounds_cover_means() {
        let c: GaussianCloud = (0..5).map(|i| probe(i as f32)).collect();
        let b = c.bounds();
        assert_eq!(b.min.x, 0.0);
        assert_eq!(b.max.x, 4.0);
        let bi = c.bounds_inflated();
        assert!(bi.min.x < b.min.x && bi.max.x > b.max.x);
    }

    #[test]
    fn retain_valid_drops_bad_entries() {
        let mut c = GaussianCloud::new();
        c.push(probe(0.0));
        let mut bad = probe(1.0);
        bad.opacity = 2.0;
        c.push(bad);
        assert_eq!(c.retain_valid(), 1);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn max_sh_degree_tracks_pushes() {
        let mut c = GaussianCloud::new();
        assert_eq!(c.max_sh_degree(), 0);
        c.push(probe(0.0)); // degree 0
        let mut hi = probe(1.0);
        hi.sh.degree = 2;
        c.push(hi);
        c.push(probe(2.0));
        assert_eq!(c.max_sh_degree(), 2);
    }

    /// The out-of-place definition `permute` must match.
    fn gathered(c: &GaussianCloud, order: &[u32]) -> GaussianCloud {
        order.iter().map(|&i| c.get(i).unwrap()).collect()
    }

    fn assert_permutes_like_gather(order: &[u32]) {
        let c: GaussianCloud = (0..order.len()).map(|i| probe(i as f32)).collect();
        let mut p = c.clone();
        p.permute(order);
        assert_eq!(p, gathered(&c, order), "order {order:?}");
    }

    #[test]
    fn permute_matches_gather_on_identity_cycles_and_fixed_points() {
        assert_permutes_like_gather(&[]);
        assert_permutes_like_gather(&[0, 1, 2, 3]);
        // One cycle through every element, in both directions.
        assert_permutes_like_gather(&[1, 2, 3, 4, 5, 0]);
        assert_permutes_like_gather(&[5, 0, 1, 2, 3, 4]);
        // Fixed points between a 2-cycle and a 3-cycle.
        assert_permutes_like_gather(&[1, 0, 2, 5, 4, 6, 3, 7]);
    }

    #[test]
    fn permute_matches_gather_on_random_orders() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
        for n in [2usize, 17, 256] {
            // Fisher–Yates.
            let mut order: Vec<u32> = (0..n as u32).collect();
            for i in (1..n).rev() {
                order.swap(i, rng.gen_range(0..=i));
            }
            assert_permutes_like_gather(&order);
        }
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn permute_rejects_a_repeated_id() {
        let mut c: GaussianCloud = (0..3).map(|i| probe(i as f32)).collect();
        c.permute(&[0, 0, 2]);
    }

    #[test]
    fn extend_and_collect() {
        let mut c = GaussianCloud::new();
        c.extend((0..3).map(|i| probe(i as f32)));
        assert_eq!(c.len(), 3);
        assert!(!c.is_empty());
        assert_eq!(c.iter().count(), 3);
    }
}
