//! A collection of Gaussians forming a scene.

use crate::Gaussian;
use neo_math::Aabb;

/// An ordered collection of [`Gaussian`]s; Gaussian IDs used throughout the
/// pipeline are indices into this collection.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GaussianCloud {
    gaussians: Vec<Gaussian>,
}

impl GaussianCloud {
    /// Creates an empty cloud.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a cloud from a vector of Gaussians.
    pub fn from_gaussians(gaussians: Vec<Gaussian>) -> Self {
        Self { gaussians }
    }

    /// Number of Gaussians.
    pub fn len(&self) -> usize {
        self.gaussians.len()
    }

    /// True when the cloud holds no Gaussians.
    pub fn is_empty(&self) -> bool {
        self.gaussians.is_empty()
    }

    /// Immutable view of the Gaussians.
    pub fn gaussians(&self) -> &[Gaussian] {
        &self.gaussians
    }

    /// Gaussian by ID, if in range.
    pub fn get(&self, id: u32) -> Option<&Gaussian> {
        self.gaussians.get(neo_math::num::usize_from_u32(id))
    }

    /// Appends a Gaussian, returning its ID.
    pub fn push(&mut self, g: Gaussian) -> u32 {
        #[expect(
            clippy::cast_possible_truncation,
            reason = "the ID space is u32 by design (file format and tile entries store u32 IDs); clouds beyond u32::MAX Gaussians are out of scope"
        )]
        let id = self.gaussians.len() as u32;
        self.gaussians.push(g);
        id
    }

    /// Iterates over `(id, gaussian)` pairs.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "the ID space is u32 by design (file format and tile entries store u32 IDs); clouds beyond u32::MAX Gaussians are out of scope"
    )]
    pub fn iter(&self) -> impl Iterator<Item = (u32, &Gaussian)> {
        self.gaussians
            .iter()
            .enumerate()
            .map(|(i, g)| (i as u32, g))
    }

    /// Tight bounds over all means (ignores Gaussian extents).
    pub fn bounds(&self) -> Aabb {
        Aabb::from_points(self.gaussians.iter().map(|g| g.mean))
    }

    /// Bounds inflated by each Gaussian's 3σ radius.
    pub fn bounds_inflated(&self) -> Aabb {
        self.gaussians.iter().fold(Aabb::EMPTY, |acc, g| {
            acc.union(Aabb::from_center_half_extent(
                g.mean,
                neo_math::Vec3::splat(g.bounding_radius()),
            ))
        })
    }

    /// Highest SH degree used by any Gaussian (0 for an empty cloud).
    ///
    /// Serialization and the storage backends homogenize mixed clouds to
    /// this degree (zero-padding the missing coefficients) so no
    /// coefficient is ever truncated; the traffic ledger charges every
    /// record at it.
    pub fn max_sh_degree(&self) -> usize {
        self.gaussians
            .iter()
            .map(|g| g.sh.degree)
            .max()
            .unwrap_or(0)
    }

    /// Reorders the cloud in place so that Gaussian `k` afterwards is the
    /// one that had ID `order[k]` (`order` maps new ID → old ID).
    ///
    /// Walks each cycle of the permutation once, moving every Gaussian
    /// exactly once through a single held record; the only extra memory
    /// is one flag per Gaussian, never a second copy of the cloud.
    ///
    /// # Panics
    ///
    /// Panics when `order` is not a permutation of `0..len()`.
    pub fn permute(&mut self, order: &[u32]) {
        let n = self.gaussians.len();
        assert_eq!(order.len(), n, "permutation length must match the cloud");
        // First pass validates `order` and marks every ID as pending; the
        // cycle walk then clears each flag as it places that record.
        let mut pending = vec![false; n];
        for &src in order {
            let src = neo_math::num::usize_from_u32(src);
            assert!(src < n && !pending[src], "order must be a permutation");
            pending[src] = true;
        }
        for start in 0..n {
            if !pending[start] {
                continue;
            }
            pending[start] = false;
            let mut src = neo_math::num::usize_from_u32(order[start]);
            if src == start {
                continue;
            }
            // Each position is read (as the source of its predecessor in
            // the cycle) before it is written, so one held record closes
            // the cycle.
            let held = self.gaussians[start].clone();
            let mut dst = start;
            while src != start {
                self.gaussians[dst] = self.gaussians[src].clone();
                pending[src] = false;
                dst = src;
                src = neo_math::num::usize_from_u32(order[src]);
            }
            self.gaussians[dst] = held;
        }
    }

    /// Drops Gaussians failing [`Gaussian::is_valid`], returning how many
    /// were removed. IDs are reassigned (they are positional).
    pub fn retain_valid(&mut self) -> usize {
        let before = self.gaussians.len();
        self.gaussians.retain(Gaussian::is_valid);
        before - self.gaussians.len()
    }
}

impl FromIterator<Gaussian> for GaussianCloud {
    fn from_iter<T: IntoIterator<Item = Gaussian>>(iter: T) -> Self {
        Self {
            gaussians: iter.into_iter().collect(),
        }
    }
}

impl Extend<Gaussian> for GaussianCloud {
    fn extend<T: IntoIterator<Item = Gaussian>>(&mut self, iter: T) {
        self.gaussians.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neo_math::Vec3;

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
    fn max_sh_degree_scans_all_gaussians() {
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
        order
            .iter()
            .map(|&i| c.gaussians[i as usize].clone())
            .collect()
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
