//! Renderer configuration.

use crate::{NeoError, NeoResult};
use neo_math::Vec3;
use neo_pipeline::LodConfig;
use neo_sort::dps::DpsConfig;
use neo_sort::strategies::SorterConfig;
use neo_sort::warm::WarmStartConfig;
use std::sync::OnceLock;

/// How a session's tiles are spread over worker threads *within* a frame.
///
/// Whatever the setting, output is byte-identical to serial rendering:
/// tiles are independent, workers rasterize into shard-local scratch
/// buffers, and the merge replays per-tile results in tile order (see
/// `ARCHITECTURE.md`, "Determinism contract").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// Render every tile on the calling thread (the default).
    #[default]
    Serial,
    /// Shard tiles across up to `n` scoped worker threads. The knob is
    /// clamped, never rejected: `0` behaves like `1`, and values above
    /// the machine's available parallelism are capped to it.
    Threads(u32),
    /// One worker per available CPU core.
    Auto,
}

/// Cached `std::thread::available_parallelism()` (1 when unknown).
fn available_parallelism() -> usize {
    static AVAILABLE: OnceLock<usize> = OnceLock::new();
    *AVAILABLE.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

impl Parallelism {
    /// The worker count actually used, after clamping: at least 1, at
    /// most the machine's available parallelism.
    ///
    /// ```
    /// use neo_core::Parallelism;
    ///
    /// assert_eq!(Parallelism::Serial.effective_threads(), 1);
    /// assert_eq!(Parallelism::Threads(0).effective_threads(), 1); // clamped up
    /// assert!(Parallelism::Threads(u32::MAX).effective_threads() >= 1); // capped
    /// assert!(Parallelism::Auto.effective_threads() >= 1);
    /// ```
    #[must_use]
    pub fn effective_threads(self) -> usize {
        match self {
            Parallelism::Serial => 1,
            Parallelism::Threads(n) => {
                neo_math::num::usize_from_u32(n.max(1)).min(available_parallelism())
            }
            Parallelism::Auto => available_parallelism(),
        }
    }
}

/// Configuration for a [`crate::RenderEngine`] and the sessions it mints.
///
/// Builder-style setters allow one-liner construction:
///
/// ```
/// use neo_core::RendererConfig;
/// let cfg = RendererConfig::default().with_tile_size(32).without_image();
/// assert_eq!(cfg.tile_size, 32);
/// assert!(!cfg.render_image);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RendererConfig {
    /// Tile edge in pixels (paper Table 1: 64).
    pub tile_size: u32,
    /// Background color.
    pub background: Vec3,
    /// Skip per-pixel blending and produce no image — used for large-scale
    /// workload-statistics runs where only the sorting behaviour matters.
    pub render_image: bool,
    /// Use subtile bitmaps during rasterization (GSCore/Neo subtiling).
    pub subtiling: bool,
    /// Use the exact-clipped row-interval rasterization fast path
    /// (default `true`): per splat, only the pixels inside the true
    /// α-cutoff ellipse are visited instead of every pixel of the tile.
    /// Output is byte-identical either way — only
    /// [`neo_pipeline::FrameStats::pixel_visits`] changes. Disable via
    /// [`RendererConfig::with_raster_fast_path`] to feed the blend
    /// kernel full-row spans instead (the baseline of the `fig_raster`
    /// ablation and `tests/raster_parity.rs`).
    pub raster_fast_path: bool,
    /// Dynamic Partial Sorting parameters (ReuseUpdate strategy).
    pub dps: DpsConfig,
    /// Model deferred depth updates (true = Neo's design; false = the
    /// extra-pass ablation of Section 4.4).
    pub deferred_depth_update: bool,
    /// Intra-frame tile parallelism (default [`Parallelism::Serial`]).
    /// Output is byte-identical at any setting.
    pub parallelism: Parallelism,
    /// Warm-start temporal sorting cache (default `None`): when set,
    /// every per-tile strategy is wrapped in a
    /// [`neo_sort::WarmStartSorter`] that carries the previous frame's
    /// order across frames and repairs it instead of re-sorting. See
    /// [`RendererConfig::with_temporal_cache`]. The repository
    /// benchmark's replay (`perfbench/`) reads this field to refuse
    /// cached engines, so it must stay a public field.
    pub temporal_cache: Option<WarmStartConfig>,
    /// Cluster-index LOD path (default `None` = the flat projection
    /// walk, byte-identical to the pre-index renderer — pinned by
    /// `tests/lod_parity.rs`). When set, the engine builds a
    /// [`neo_scene::ClusteredCloud`] over the scene at build time and
    /// each frame culls whole clusters and substitutes merged proxies for
    /// sub-threshold-footprint clusters. See [`RendererConfig::with_lod`].
    pub lod: Option<LodConfig>,
}

impl Default for RendererConfig {
    fn default() -> Self {
        Self {
            tile_size: 64,
            background: Vec3::ZERO,
            render_image: true,
            subtiling: true,
            raster_fast_path: true,
            dps: DpsConfig::default(),
            deferred_depth_update: true,
            parallelism: Parallelism::Serial,
            temporal_cache: None,
            lod: None,
        }
    }
}

impl RendererConfig {
    /// Sets the tile size in pixels.
    ///
    /// Out-of-range values are reported by [`RendererConfig::validate`]
    /// (which [`crate::RenderEngine`] runs at build time) rather than
    /// panicking here.
    #[must_use]
    pub fn with_tile_size(mut self, tile_size: u32) -> Self {
        self.tile_size = tile_size;
        self
    }

    /// Sets the background color.
    #[must_use]
    pub fn with_background(mut self, background: Vec3) -> Self {
        self.background = background;
        self
    }

    /// Disables image output (workload-statistics mode).
    #[must_use]
    pub fn without_image(mut self) -> Self {
        self.render_image = false;
        self
    }

    /// Sets the DPS chunk size in entries.
    ///
    /// Out-of-range values are reported by [`RendererConfig::validate`]
    /// (which [`crate::RenderEngine`] runs at build time) rather than
    /// panicking here.
    #[must_use]
    pub fn with_chunk_size(mut self, chunk_size: usize) -> Self {
        self.dps.chunk_size = chunk_size;
        self
    }

    /// Sets the number of DPS passes per frame.
    #[must_use]
    pub fn with_dps_passes(mut self, passes: u32) -> Self {
        self.dps.passes = passes;
        self
    }

    /// Disables the deferred depth update (ablation mode).
    #[must_use]
    pub fn without_deferred_depth_update(mut self) -> Self {
        self.deferred_depth_update = false;
        self
    }

    /// Turns the exact-clipped rasterization fast path on or off. Off
    /// blends every pixel of the tile for every splat (full-row spans)
    /// instead. Output is byte-identical; only `FrameStats::pixel_visits`
    /// (and wall-clock time) changes. Off is the ablation baseline of
    /// `fig_raster`.
    #[must_use]
    pub fn with_raster_fast_path(mut self, enabled: bool) -> Self {
        self.raster_fast_path = enabled;
        self
    }

    /// Shards each frame's tiles across up to `threads` worker threads
    /// (shorthand for [`Parallelism::Threads`]).
    ///
    /// The knob is clamped rather than rejected: `0` renders serially,
    /// and values above the machine's available parallelism are capped
    /// to it (see [`RendererConfig::effective_threads`]). Output is
    /// byte-identical at any thread count.
    #[must_use]
    pub fn with_threads(mut self, threads: u32) -> Self {
        self.parallelism = Parallelism::Threads(threads);
        self
    }

    /// Sets the intra-frame parallelism policy.
    #[must_use]
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Enables warm-start temporal sorting: each tile's strategy is
    /// wrapped in a [`neo_sort::WarmStartSorter`] that keeps the previous
    /// frame's depth order in the session and repairs it — departed IDs
    /// dropped, newcomers merge-inserted, retained IDs fixed up with a
    /// bounded insertion pass — instead of re-sorting from scratch,
    /// falling back to a cold inner sort when inter-frame retention drops
    /// below `config.retention_threshold`.
    ///
    /// The cache is per-tile session state, so it shards with the
    /// intra-frame worker pool and survives re-planning; hit-rate and
    /// repair cost surface per frame in
    /// [`crate::FrameResult::temporal`]. Over *exact* inner strategies
    /// (full-resort, hierarchical) images stay byte-identical to cold
    /// sorting while sorting traffic drops to a single pass on warm
    /// frames.
    ///
    /// This example is the README's warm-start quickstart, kept honest by
    /// `cargo test --doc`:
    ///
    /// ```
    /// use neo_core::{RenderEngine, RendererConfig, StrategyKind, WarmStartConfig};
    /// use neo_scene::{presets::ScenePreset, FrameSampler, Resolution};
    ///
    /// let engine = RenderEngine::builder()
    ///     .scene(ScenePreset::Family.build_scaled(0.002))
    ///     .strategy(StrategyKind::FullResort) // exact sort, warm-started
    ///     .config(
    ///         RendererConfig::default()
    ///             .with_tile_size(32)
    ///             .with_temporal_cache(WarmStartConfig::default()),
    ///     )
    ///     .build()?;
    /// let sampler = FrameSampler::new(
    ///     ScenePreset::Family.trajectory(), 30.0, Resolution::Custom(160, 96));
    /// let mut session = engine.session();
    /// let cold = session.render_frame(&sampler.frame(0))?; // primes the cache
    /// let warm = session.render_frame(&sampler.frame(1))?;
    /// assert!(warm.temporal.hit_rate() > 0.5, "most tiles served warm");
    /// assert!(warm.sort_cost.bytes_total() < cold.sort_cost.bytes_total() / 2);
    /// # Ok::<(), neo_core::NeoError>(())
    /// ```
    #[must_use]
    pub fn with_temporal_cache(mut self, config: WarmStartConfig) -> Self {
        self.temporal_cache = Some(config);
        self
    }

    /// Enables the cluster-index LOD path: the engine builds a
    /// [`neo_scene::ClusteredCloud`] over the scene at build time
    /// (deterministic Morton clustering, `config.cluster_size` splats
    /// per cluster) and, each frame, rejects whole clusters with a
    /// conservative frustum test, renders clusters whose screen
    /// footprint falls below `config.proxy_footprint_px` from their
    /// merged proxy splats. The frame is then binned and sorted exactly
    /// like a flat one; a warm-start cache
    /// ([`RendererConfig::with_temporal_cache`]) sees a cluster that
    /// flips between proxy and member rendering as departed and arrived
    /// IDs, like any other change of a tile's population.
    ///
    /// Off by default. With `proxy_footprint_px == 0` the LOD path only
    /// culls — output stays byte-identical to the flat walk; with a
    /// positive threshold distant clusters render from proxies, which
    /// changes pixels (that is the point) but remains deterministic
    /// across thread counts and shard plans.
    ///
    /// ```
    /// use neo_core::{LodConfig, RendererConfig};
    /// let cfg = RendererConfig::default().with_lod(LodConfig::default());
    /// assert!(cfg.lod.is_some());
    /// assert!(cfg.validate().is_ok());
    /// ```
    #[must_use]
    pub fn with_lod(mut self, lod: LodConfig) -> Self {
        self.lod = Some(lod);
        self
    }

    /// The clamped worker count a session will actually use per frame.
    #[must_use]
    pub fn effective_threads(&self) -> usize {
        self.parallelism.effective_threads()
    }

    /// Checks every parameter, reporting the first problem as
    /// [`NeoError::InvalidConfig`]. [`crate::RenderEngine`] calls this at
    /// build time so misconfiguration surfaces as a value, not a panic
    /// mid-render.
    pub fn validate(&self) -> NeoResult<()> {
        if self.tile_size == 0 {
            return Err(NeoError::invalid_config("tile size must be positive"));
        }
        self.dps.validate().map_err(NeoError::invalid_config)?;
        if let Some(warm) = &self.temporal_cache {
            warm.validate().map_err(NeoError::invalid_config)?;
        }
        if let Some(lod) = &self.lod {
            lod.validate().map_err(NeoError::invalid_config)?;
        }
        Ok(())
    }

    /// The per-tile sorter configuration implied by this renderer config.
    #[must_use]
    pub fn sorter_config(&self) -> SorterConfig {
        SorterConfig {
            dps: self.dps,
            deferred_depth_update: self.deferred_depth_update,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_table1() {
        let cfg = RendererConfig::default();
        assert_eq!(cfg.tile_size, 64);
        assert_eq!(cfg.dps.chunk_size, 256);
        assert_eq!(cfg.dps.passes, 1);
        assert!(cfg.deferred_depth_update);
    }

    #[test]
    fn builder_chain() {
        let cfg = RendererConfig::default()
            .with_tile_size(16)
            .with_chunk_size(64)
            .with_dps_passes(2)
            .without_deferred_depth_update()
            .with_background(Vec3::ONE)
            .without_image();
        assert_eq!(cfg.tile_size, 16);
        assert_eq!(cfg.dps.chunk_size, 64);
        assert_eq!(cfg.dps.passes, 2);
        assert!(!cfg.deferred_depth_update);
        assert!(!cfg.render_image);
        assert_eq!(cfg.sorter_config().dps.chunk_size, 64);
    }

    #[test]
    fn zero_tile_size_rejected_by_validate() {
        let cfg = RendererConfig::default().with_tile_size(0);
        assert!(matches!(cfg.validate(), Err(NeoError::InvalidConfig(_))));
    }

    #[test]
    fn tiny_chunk_size_rejected_by_validate() {
        let cfg = RendererConfig::default().with_chunk_size(1);
        assert!(matches!(cfg.validate(), Err(NeoError::InvalidConfig(_))));
        assert!(RendererConfig::default().validate().is_ok());
    }

    #[test]
    fn temporal_cache_defaults_off_and_validates() {
        let cfg = RendererConfig::default();
        assert!(cfg.temporal_cache.is_none());
        let cfg = cfg.with_temporal_cache(WarmStartConfig::default());
        assert!(cfg.validate().is_ok());
        let bad =
            cfg.with_temporal_cache(WarmStartConfig::default().with_retention_threshold(-0.5));
        assert!(matches!(bad.validate(), Err(NeoError::InvalidConfig(_))));
    }

    #[test]
    fn raster_fast_path_defaults_on() {
        let cfg = RendererConfig::default();
        assert!(cfg.raster_fast_path);
        let cfg = cfg.with_raster_fast_path(false);
        assert!(!cfg.raster_fast_path);
        assert!(cfg.validate().is_ok(), "legacy loop is a valid config");
        assert!(cfg.with_raster_fast_path(true).raster_fast_path);
    }

    #[test]
    fn lod_defaults_off_and_validates() {
        let cfg = RendererConfig::default();
        assert!(cfg.lod.is_none());
        let cfg = cfg.with_lod(LodConfig::default());
        assert!(cfg.validate().is_ok());
        let bad = cfg.with_lod(LodConfig {
            cluster_size: 0,
            ..LodConfig::default()
        });
        assert!(matches!(bad.validate(), Err(NeoError::InvalidConfig(_))));
    }

    #[test]
    fn default_parallelism_is_serial() {
        let cfg = RendererConfig::default();
        assert_eq!(cfg.parallelism, Parallelism::Serial);
        assert_eq!(cfg.effective_threads(), 1);
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        // Thread counts are normalized, never rejected.
        let cfg = RendererConfig::default().with_threads(0);
        assert_eq!(cfg.parallelism, Parallelism::Threads(0));
        assert_eq!(cfg.effective_threads(), 1);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn huge_thread_counts_cap_at_available_parallelism() {
        let avail = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let cfg = RendererConfig::default().with_threads(u32::MAX);
        assert_eq!(cfg.effective_threads(), avail);
        assert_eq!(
            RendererConfig::default()
                .with_parallelism(Parallelism::Auto)
                .effective_threads(),
            avail
        );
    }

    #[test]
    fn thread_counts_within_the_cap_pass_through() {
        let cfg = RendererConfig::default().with_threads(1);
        assert_eq!(cfg.effective_threads(), 1);
        let avail = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        for n in 1..=avail as u32 {
            assert_eq!(
                RendererConfig::default()
                    .with_threads(n)
                    .effective_threads(),
                n as usize
            );
        }
    }
}
