//! Per-tile Gaussian tables: the data structure Neo reuses across frames.

/// Bytes per table entry as stored off-chip: 4-byte Gaussian ID (with the
/// valid bit folded into the MSB, as in Neo's design) + 4-byte depth.
pub const ENTRY_BYTES: usize = 8;

/// One row of a per-tile Gaussian table: a Gaussian ID, its (possibly
/// one-frame-stale) depth, and a valid bit maintained by rasterization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TableEntry {
    /// Gaussian ID (index into the cloud / feature table).
    pub id: u32,
    /// Depth key. Updated *during rasterization* in Neo's deferred-depth
    /// scheme, so it may lag the true depth by one frame.
    pub depth: f32,
    /// Cleared by the ITU when the Gaussian no longer intersects the tile;
    /// invalid entries are physically removed at the next merge.
    pub valid: bool,
}

impl TableEntry {
    /// Creates a valid entry.
    #[inline]
    pub fn new(id: u32, depth: f32) -> Self {
        Self {
            id,
            depth,
            valid: true,
        }
    }

    /// Total-order sort key: depth first (IEEE-754 total order), ID as
    /// the tiebreaker so orderings are deterministic.
    ///
    /// This key is **the** ordering contract of the sorting substrate:
    /// every kernel ([`crate::radix`], [`crate::bitonic`],
    /// [`crate::merge`], [`crate::hierarchical`]) and every strategy
    /// orders by it, so all of them agree bit-for-bit even on
    /// pathological depths. Under IEEE total order:
    ///
    /// * negative values sort ascending, `-0.0` strictly before `+0.0`;
    /// * `-inf` / `+inf` sort before / after every finite value;
    /// * NaNs are ordered by their bit patterns: negative-signed NaNs
    ///   sort before `-inf`, positive-signed NaNs after `+inf`.
    ///
    /// The depth word of the key maps `f32` bits to lexicographically
    /// ordered `u32` (negative ⇒ flip all bits, non-negative ⇒ set the
    /// sign bit), which realizes exactly that order. The maximum possible
    /// key — the quiet-NaN pattern `0x7FFF_FFFF` with ID `u32::MAX` — is
    /// reserved as the padding sentinel of the bitonic network
    /// ([`crate::bitonic`]); real entries must not use it.
    #[inline]
    pub fn key(&self) -> (u32, u32) {
        // Map f32 to lexicographically ordered u32 (flip sign bit tricks).
        let bits = self.depth.to_bits();
        let ordered = if bits & 0x8000_0000 != 0 {
            !bits
        } else {
            bits | 0x8000_0000
        };
        (ordered, self.id)
    }

    /// [`TableEntry::key`] packed into one `u64` (depth word high, ID
    /// low), so one integer compare orders exactly like the tuple. The
    /// kernels precompute it once per entry.
    #[inline]
    pub(crate) fn packed_key(&self) -> u64 {
        let (depth, id) = self.key();
        (u64::from(depth) << 32) | u64::from(id)
    }
}

/// A per-tile Gaussian table: the sorted list of `(id, depth, valid)` rows
/// carried from frame to frame by Neo's reuse-and-update scheme.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GaussianTable {
    entries: Vec<TableEntry>,
}

impl GaussianTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a table from entries, preserving their order.
    pub fn from_entries<I: IntoIterator<Item = TableEntry>>(entries: I) -> Self {
        Self {
            entries: entries.into_iter().collect(),
        }
    }

    /// Number of entries (valid or not).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the table has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entries in table order.
    pub fn entries(&self) -> &[TableEntry] {
        &self.entries
    }

    /// Mutable entries (kernels operate in place, like the on-chip units).
    pub fn entries_mut(&mut self) -> &mut [TableEntry] {
        &mut self.entries
    }

    /// Replaces the backing entries.
    pub fn set_entries(&mut self, entries: Vec<TableEntry>) {
        self.entries = entries;
    }

    /// Replaces the entries with a copy of `entries`, keeping the
    /// backing allocation.
    pub(crate) fn assign(&mut self, entries: &[TableEntry]) {
        self.entries.clear();
        self.entries.reserve_exact(entries.len());
        self.entries.extend_from_slice(entries);
    }

    /// Number of valid entries.
    pub fn valid_count(&self) -> usize {
        self.entries.iter().filter(|e| e.valid).count()
    }

    /// True when entries are sorted by [`TableEntry::key`].
    pub fn is_sorted(&self) -> bool {
        self.entries.windows(2).all(|w| w[0].key() <= w[1].key())
    }

    /// Number of inversions (pairs out of order) — the Kendall-tau
    /// distance to the fully sorted table. O(n log n) via merge counting.
    pub fn inversions(&self) -> u64 {
        fn count(keys: &mut [(u32, u32)], buf: &mut Vec<(u32, u32)>) -> u64 {
            let n = keys.len();
            if n <= 1 {
                return 0;
            }
            let mid = n / 2;
            let (left, right) = keys.split_at_mut(mid);
            let mut inv = count(left, buf) + count(right, buf);
            buf.clear();
            let (mut i, mut j) = (0, 0);
            while i < left.len() && j < right.len() {
                if left[i] <= right[j] {
                    buf.push(left[i]);
                    i += 1;
                } else {
                    inv += neo_math::num::u64_from_usize(left.len() - i);
                    buf.push(right[j]);
                    j += 1;
                }
            }
            buf.extend_from_slice(&left[i..]);
            buf.extend_from_slice(&right[j..]);
            keys.copy_from_slice(buf);
            inv
        }
        let mut keys: Vec<_> = self.entries.iter().map(TableEntry::key).collect();
        let mut buf = Vec::with_capacity(keys.len());
        count(&mut keys, &mut buf)
    }

    /// Size of the table in off-chip bytes.
    pub fn byte_size(&self) -> u64 {
        neo_math::num::u64_from_usize(self.entries.len() * ENTRY_BYTES)
    }
}

impl FromIterator<TableEntry> for GaussianTable {
    fn from_iter<T: IntoIterator<Item = TableEntry>>(iter: T) -> Self {
        Self::from_entries(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(depths: &[f32]) -> GaussianTable {
        GaussianTable::from_entries(
            depths
                .iter()
                .enumerate()
                .map(|(i, &d)| TableEntry::new(i as u32, d)),
        )
    }

    #[test]
    fn key_orders_negative_and_positive_depths() {
        let a = TableEntry::new(0, -1.0);
        let b = TableEntry::new(1, 0.0);
        let c = TableEntry::new(2, 1.5);
        assert!(a.key() < b.key());
        assert!(b.key() < c.key());
    }

    #[test]
    fn packed_key_orders_like_the_tuple_key() {
        let depths = [f32::NAN, -f32::NAN, f32::INFINITY, -0.0, 0.0, -2.5, 1.0];
        let entries: Vec<TableEntry> = depths
            .iter()
            .enumerate()
            .flat_map(|(i, &d)| [TableEntry::new(i as u32, d), TableEntry::new(u32::MAX, d)])
            .collect();
        for a in &entries {
            for b in &entries {
                assert_eq!(a.key().cmp(&b.key()), a.packed_key().cmp(&b.packed_key()));
            }
        }
    }

    #[test]
    fn key_breaks_ties_by_id() {
        let a = TableEntry::new(3, 2.0);
        let b = TableEntry::new(7, 2.0);
        assert!(a.key() < b.key());
    }

    #[test]
    fn inversions_count() {
        assert_eq!(table(&[1.0, 2.0, 3.0]).inversions(), 0);
        assert_eq!(table(&[3.0, 2.0, 1.0]).inversions(), 3);
        assert_eq!(table(&[2.0, 1.0, 3.0]).inversions(), 1);
        assert_eq!(GaussianTable::new().inversions(), 0);
    }

    #[test]
    fn byte_size_is_8_per_entry() {
        assert_eq!(table(&[1.0, 2.0, 3.0]).byte_size(), 24);
    }
}
