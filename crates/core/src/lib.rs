//! Neo's reuse-and-update 3DGS renderer — the paper's core contribution as
//! a reusable library.
//!
//! The front door is the [`RenderEngine`]: it validates configuration
//! fallibly (no asserts, no panics — see [`NeoError`]), owns an immutable
//! shared scene behind an `Arc`, and mints any number of independent
//! [`RenderSession`]s. Each session carries its own per-tile Gaussian
//! tables across frames; with [`StrategyKind::ReuseUpdate`] it implements
//! the full Neo algorithm of Figure 8:
//!
//! 1. **Reordering** — Dynamic Partial Sorting of each inherited table
//!    (single off-chip pass, interleaved chunk boundaries);
//! 2. **Insertion** — newly visible Gaussians are chunk-sorted and merged;
//! 3. **Deletion** — entries invalidated by the previous frame's
//!    rasterization are dropped during the same merge;
//! 4. **Depth update** — depths in the table are refreshed from the values
//!    rasterization already fetched (deferred, one frame stale).
//!
//! Any other [`StrategyKind`] gives a baseline renderer over the same
//! functional pipeline: per-frame full sorting ("original 3DGS"),
//! GSCore-style hierarchical sorting, periodic sorting, or background
//! sorting — the comparison set of Figure 19. Beyond the built-ins, any
//! [`neo_sort::SortingStrategy`] implementation — including one defined
//! outside this workspace — plugs in through
//! [`RenderEngineBuilder::strategy_factory`].
//!
//! Frames can additionally be rendered tile-parallel *within* a frame:
//! [`RendererConfig::with_threads`] (or [`Parallelism`]) shards the
//! binned tile list across a `std::thread::scope` worker pool, and the
//! deterministic shard merge guarantees output byte-identical to serial
//! rendering at any thread count — see [`ShardPlan`] and
//! `ARCHITECTURE.md` for the contract.
//!
//! Any strategy can additionally be **warm-started** across frames:
//! [`RendererConfig::with_temporal_cache`] wraps each tile's strategy in
//! a [`neo_sort::WarmStartSorter`] that keeps the previous frame's depth
//! order in the session and repairs it (departed IDs dropped, newcomers
//! merge-inserted, retained IDs fixed with a bounded insertion pass)
//! instead of re-sorting, with per-frame hit-rate/repair statistics in
//! [`FrameResult::temporal`] — see [`WarmStartConfig`].
//!
//! # Examples
//!
//! ```
//! use neo_core::{RenderEngine, RendererConfig};
//! use neo_scene::{presets::ScenePreset, FrameSampler, Resolution};
//!
//! let engine = RenderEngine::builder()
//!     .scene(ScenePreset::Family.build_scaled(0.002))
//!     .config(RendererConfig::default())
//!     .build()
//!     .expect("valid config and non-empty scene");
//! let sampler = FrameSampler::new(
//!     ScenePreset::Family.trajectory(), 30.0, Resolution::Custom(128, 72));
//! let mut session = engine.session();
//! let f0 = session.render_frame(&sampler.frame(0)).unwrap();
//! let f1 = session.render_frame(&sampler.frame(1)).unwrap();
//! // Frame 1 reuses frame 0's tables: most Gaussians are retained.
//! assert!(f1.incoming < f0.incoming);
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

mod config;
mod engine;
mod error;
mod frame;
mod shard;

pub use config::{Parallelism, RendererConfig};
pub use engine::{FrameStream, RenderEngine, RenderEngineBuilder, RenderSession};
pub use error::{NeoError, NeoResult};
pub use frame::{FrameResult, SessionId, TemporalCacheStats, TileLoad};
pub use neo_pipeline::LodConfig;
pub use neo_scene::{CloudStorage, ClusterParams, ClusteredCloud, StorageFormat};
pub use neo_sort::strategies::StrategyKind;
pub use neo_sort::warm::WarmStartConfig;
pub use neo_sort::SortingStrategy;
pub use shard::ShardPlan;
