//! The engine/session front door: validated construction, shared scenes,
//! and concurrent per-session rendering state.
//!
//! A [`RenderEngine`] owns an immutable scene behind an
//! [`Arc<GaussianCloud>`] plus a validated configuration and a sorting
//! strategy. It is cheap to share (`&RenderEngine` is all a
//! thread needs) and never mutates after [`RenderEngineBuilder::build`].
//!
//! Each [`RenderEngine::session`] call mints an independent
//! [`RenderSession`] carrying its own per-tile sorting tables, so many
//! sessions — one per user, camera stream, or rollout — render the same
//! scene concurrently from `std::thread::scope` without locks. Within a
//! single session, each frame's tiles can additionally be sharded across
//! an intra-frame worker pool ([`RendererConfig::with_threads`] /
//! [`RenderSession::render_frame_with_plan`]) with byte-identical
//! output:
//!
//! ```
//! use neo_core::{RenderEngine, RendererConfig, StrategyKind};
//! use neo_scene::{presets::ScenePreset, FrameSampler, Resolution};
//!
//! let engine = RenderEngine::builder()
//!     .scene(ScenePreset::Family.build_scaled(0.002))
//!     .config(RendererConfig::default().with_tile_size(32))
//!     .strategy(StrategyKind::ReuseUpdate)
//!     .build()
//!     .expect("valid configuration");
//!
//! let sampler = FrameSampler::new(
//!     ScenePreset::Family.trajectory(), 30.0, Resolution::Custom(128, 72));
//! let frames: Vec<_> = std::thread::scope(|scope| {
//!     let handles: Vec<_> = (0..2)
//!         .map(|_| {
//!             let mut session = engine.session();
//!             let sampler = &sampler;
//!             scope.spawn(move || session.render_frame(&sampler.frame(0)))
//!         })
//!         .collect();
//!     handles.into_iter().map(|h| h.join().unwrap()).collect()
//! });
//! assert!(frames.iter().all(|f| f.is_ok()));
//! ```

use crate::{FrameResult, NeoError, NeoResult, RendererConfig, SessionId, ShardPlan, TileLoad};
use neo_pipeline::{
    bin_to_tiles, cluster_colors, color_pass, project_clusters_geometry, project_flat_geometry,
    FrameStats, Image, ProjectedGaussian, RenderConfig, ShardScratch, Stage, TileGrid,
    TileRasterStats, TrafficLedger,
};
use neo_scene::{Camera, ClusterParams, ClusteredCloud, FrameSampler, GaussianCloud};
use neo_sort::strategies::{SorterConfig, StrategyKind};
use neo_sort::{SortCost, SortingStrategy};
use std::sync::Arc;

/// One tile's sorting strategy plus its tile-local frame counter.
///
/// Counters are per tile (not per session) because tiles become occupied
/// at different times; a tile first touched on session frame 7 starts its
/// strategy at frame 0, exactly like the original per-tile sorters.
#[derive(Debug)]
struct TileStrategy {
    strategy: Box<dyn SortingStrategy>,
    next_frame: u64,
}

/// The [`RenderSession`] `by_id` entry of an ID with no projected splat
/// this frame.
const ABSENT: u32 = u32::MAX;

/// Read-only per-frame inputs shared by every render worker.
struct ShardContext<'a> {
    projected: &'a [ProjectedGaussian],
    /// Pipeline ID → index into `projected`, [`ABSENT`] when the ID has
    /// no splat this frame (a stale table entry).
    by_id: &'a [u32],
    grid: &'a TileGrid,
    raster_cfg: &'a RenderConfig,
    render_image: bool,
    feature_bytes: u64,
}

/// One worker's frame contribution, merged on the main thread in shard
/// order. Every field is an order-independent integer accumulation or an
/// in-tile-order list, which is what makes the merge deterministic.
#[derive(Default)]
struct ShardOutput {
    traffic: TrafficLedger,
    sort_cost: SortCost,
    incoming: usize,
    outgoing: usize,
    blend_ops: u64,
    saturated_pixels: u64,
    pixel_visits: u64,
    tile_loads: Vec<TileLoad>,
}

/// Renders one shard's tiles: advances each tile's sorting strategy and
/// hands each tile's blend list to `rasterize` (the shard-arena sink on
/// workers, the direct-blit sink on the serial path). `sorters` is the
/// contiguous slice of per-tile state covering this shard's tile
/// indices, offset by `base`; every strategy has already been created in
/// tile order by the caller. This is the exact per-tile body the serial
/// renderer runs — sharding only changes which thread executes it.
fn run_shard(
    ctx: &ShardContext<'_>,
    occupied: &[(usize, &[(u32, f32)])],
    sorters: &mut [Option<TileStrategy>],
    base: usize,
    rasterize: &mut dyn FnMut(usize, &[&ProjectedGaussian]) -> TileRasterStats,
) -> ShardOutput {
    let mut out = ShardOutput {
        tile_loads: Vec::with_capacity(occupied.len()),
        ..Default::default()
    };
    // One gather buffer for the whole shard, refilled per tile.
    let mut blend: Vec<&ProjectedGaussian> = Vec::new();
    for &(tile_index, entries) in occupied {
        #[expect(
            clippy::expect_used,
            reason = "invariant: render_validated creates every occupied tile's strategy before sharding; a miss is a caller bug worth halting on"
        )]
        let slot = sorters[tile_index - base]
            .as_mut()
            .expect("strategies are pre-created in tile order before sharding");
        let frame = slot.next_frame;
        slot.next_frame += 1;
        slot.strategy.begin_frame(frame);
        let order = slot.strategy.order(entries);
        out.sort_cost += order.cost;
        out.incoming += order.incoming;
        out.outgoing += order.outgoing;
        out.traffic.read(Stage::Sorting, order.cost.bytes_read);
        out.traffic.write(Stage::Sorting, order.cost.bytes_written);
        // Diagnostics counters: every quantity is bounded by the u32
        // Gaussian-ID space, so saturation is unreachable; `unwrap_or`
        // keeps the conversion total without a panic path.
        out.tile_loads.push(TileLoad {
            tile: u32::try_from(tile_index).unwrap_or(u32::MAX),
            table_len: u32::try_from(order.order.len()).unwrap_or(u32::MAX),
            incoming: u32::try_from(order.incoming).unwrap_or(u32::MAX),
            outgoing: u32::try_from(order.outgoing).unwrap_or(u32::MAX),
        });

        // Rasterization fetches features for every entry in the blend
        // order (stale entries included — they are fetched, found
        // non-intersecting by the ITU, and skipped).
        out.traffic.read(
            Stage::Rasterization,
            neo_math::num::u64_from_usize(order.order.len()) * ctx.feature_bytes,
        );

        if ctx.render_image {
            // Blend in the strategy's order; IDs without current
            // features (stale entries) are skipped.
            blend.clear();
            blend.extend(order.order.iter().filter(|e| e.valid).filter_map(|e| {
                ctx.by_id
                    .get(neo_math::num::usize_from_u32(e.id))
                    .filter(|&&i| i != ABSENT)
                    .map(|&i| &ctx.projected[neo_math::num::usize_from_u32(i)])
            }));
            let ts = rasterize(tile_index, &blend);
            out.blend_ops += ts.blend_ops;
            out.saturated_pixels += ts.saturated_pixels;
            out.pixel_visits += ts.pixel_visits;
        }
    }
    out
}

impl RenderSession {
    /// Renders one frame of an already validated camera with an explicit
    /// shard plan.
    ///
    /// The frame pipeline: project and bin on the calling thread, resolve the
    /// plan into contiguous shards of the occupied-tile list, run one worker
    /// per shard on a `std::thread::scope` pool (each owning a disjoint slice
    /// of the per-tile sorting state and a shard-local scratch), then merge
    /// shard outputs *in shard order* — integer accumulations plus disjoint
    /// tile blits, so the result is byte-identical to serial rendering for
    /// any plan.
    fn render_validated(&mut self, cam: &Camera, plan: &ShardPlan) -> FrameResult {
        let grid = self.ensure_grid(cam);
        let config = &self.config;
        let scene = self.scene.as_ref();
        let lod_index = self.lod_index.as_deref();

        // Projection's geometry pass, the one LOD branch of the frame: the
        // cluster walk culls whole clusters, substitutes proxies and
        // streams each surviving cluster's ID range; without an index the
        // flat walk streams the whole cloud as one range. Both return the
        // same record and bin the same way: a tile's sorter tracks its
        // own population, so LOD frames need no cluster-level signal
        // downstream.
        let mut walk = match config.lod.as_ref().zip(lod_index) {
            Some((lod_cfg, index)) => {
                project_clusters_geometry(cam, scene.geometry(), index, lod_cfg)
            }
            None => project_flat_geometry(cam, scene.geometry()),
        };
        // Color is read by the rasterizer alone, so only frames with an
        // image read SH: one color pass over the projected splats.
        if config.render_image {
            #[cfg(test)]
            tests::COLOR_PASSES.with(|n| n.set(n.get() + 1));
            color_pass(&mut walk.projected, cluster_colors(cam, scene, lod_index));
        }
        let projected = walk.projected;
        let assignments = bin_to_tiles(&grid, &projected);

        // ID → projected-splat lookup for the rasterizer's gather, so only
        // frames with an image need it. It spans this frame's IDs, whose
        // largest is the last: both walks emit ascending IDs, proxies
        // (`source_len + proxy_index`) after the members. The table
        // persists in the session with every slot absent between frames:
        // only this frame's IDs are set here, and the same walk clears
        // them once the tiles are rendered.
        if config.render_image {
            let id_space = projected
                .last()
                .map_or(0, |p| neo_math::num::usize_from_u32(p.id) + 1);
            if self.by_id.len() < id_space {
                self.by_id.resize(id_space, ABSENT);
            }
            for (i, p) in (0u32..).zip(&projected) {
                self.by_id[neo_math::num::usize_from_u32(p.id)] = i;
            }
        }

        // Occupied tiles in ascending tile-index order.
        let occupied: Vec<(usize, &[(u32, f32)])> = assignments.iter_occupied().collect();
        let ranges = match plan {
            // The default serial config resolves to one shard no matter the
            // loads; skip materializing the per-tile entry counts.
            ShardPlan::Balanced { shards: 0 | 1 } if !occupied.is_empty() => {
                std::iter::once(0..occupied.len()).collect()
            }
            _ => {
                // Per-tile entry counts cost-balance the shards.
                let loads: Vec<usize> = occupied.iter().map(|(_, e)| e.len()).collect();
                plan.resolve(&loads)
            }
        };

        // Charge the resident record per splat read: every record on the
        // flat walk, only the surviving members and proxies on the
        // cluster walk — the traffic the index exists to cut.
        let feature_bytes = neo_math::num::u64_from_usize(scene.record_bytes());
        let mut stats = FrameStats {
            input: scene.len(),
            projected: projected.len(),
            duplicates: assignments.total_assignments(),
            occupied_tiles: occupied.len(),
            clusters_total: walk.clusters_total,
            clusters_culled: walk.clusters_culled,
            clusters_lod: walk.clusters_proxied,
            lod_splats_saved: walk.splats_saved,
            ..Default::default()
        };
        stats.traffic.read(
            Stage::FeatureExtraction,
            walk.splats_visited * feature_bytes,
        );

        let raster_cfg = RenderConfig {
            tile_size: config.tile_size,
            background: config.background,
            subtiling: config.subtiling,
            raster_fast_path: config.raster_fast_path,
        };
        let ctx = ShardContext {
            projected: &projected,
            by_id: &self.by_id,
            grid: &grid,
            raster_cfg: &raster_cfg,
            render_image: config.render_image,
            feature_bytes,
        };

        // Every occupied tile's strategy is created here, before sharding:
        // the workers below receive disjoint `split_at_mut` windows of
        // `sorters` and expect each of their tiles' slots to be filled.
        for &(tile_index, _) in &occupied {
            self.sorters[tile_index].get_or_insert_with(|| TileStrategy {
                strategy: self.kind.build(self.sorter_config),
                next_frame: 0,
            });
        }

        // Shard-local scratch buffers persist in the session and are only
        // grown, never reallocated per frame.
        if self.scratch.len() < ranges.len() {
            self.scratch.resize_with(ranges.len(), ShardScratch::new);
        }
        let sorters = self.sorters.as_mut_slice();
        let scratches = &mut self.scratch[..ranges.len()];

        let mut image = config
            .render_image
            .then(|| Image::new(cam.width, cam.height, config.background));

        let outputs: Vec<ShardOutput> = if ranges.len() <= 1 {
            // Serial fast path: no threads, same per-tile body, and each
            // tile blits straight into the framebuffer — no deferred-merge
            // arena, no extra frame copy.
            match ranges.first() {
                None => Vec::new(),
                Some(r) => {
                    let scratch = &mut scratches[0];
                    let mut rasterize = |tile_index: usize, blend: &[&ProjectedGaussian]| {
                        #[expect(
                            clippy::expect_used,
                            reason = "invariant: run_shard only calls the rasterize sink when ctx.render_image is set, and render_image is what populated `image`"
                        )]
                        let img = image
                            .as_mut()
                            .expect("rasterize sink is only called when an image is rendered");
                        scratch.rasterize_direct(img, &grid, tile_index, blend, &raster_cfg)
                    };
                    vec![run_shard(
                        &ctx,
                        &occupied[r.clone()],
                        sorters,
                        0,
                        &mut rasterize,
                    )]
                }
            }
        } else {
            // One scoped worker per shard. Each worker gets the contiguous
            // slice of `sorters` spanning its shard's tile indices (shards
            // are in ascending tile order, so repeated split_at_mut hands
            // out disjoint windows), plus its own scratch to rasterize into.
            // Workers are joined in shard order; panics propagate.
            #[expect(
                clippy::expect_used,
                reason = "deliberate panic propagation: a worker panic must abort the frame, not yield a partial image"
            )]
            let outputs: Vec<ShardOutput> = std::thread::scope(|scope| {
                let mut handles = Vec::with_capacity(ranges.len());
                let mut rest = sorters;
                let mut base = 0usize;
                let mut scratch_iter = scratches.iter_mut();
                for (k, range) in ranges.iter().enumerate() {
                    let next_base = match ranges.get(k + 1) {
                        Some(next) => occupied[next.start].0,
                        None => base + rest.len(),
                    };
                    let (window, tail) = rest.split_at_mut(next_base - base);
                    rest = tail;
                    let occ = &occupied[range.clone()];
                    #[expect(
                        clippy::expect_used,
                        reason = "invariant: `scratches` is resized to ranges.len() a few lines above; one scratch per shard by construction"
                    )]
                    let scratch = scratch_iter.next().expect("scratch sized to shard count");
                    let ctx = &ctx;
                    let window_base = base;
                    base = next_base;
                    handles.push(scope.spawn(move || {
                        scratch.begin_frame();
                        let mut rasterize = |tile_index: usize, blend: &[&ProjectedGaussian]| {
                            scratch.rasterize(ctx.grid, tile_index, blend, ctx.raster_cfg)
                        };
                        run_shard(ctx, occ, window, window_base, &mut rasterize)
                    }));
                }
                handles
                    .into_iter()
                    .map(|h| h.join().expect("render worker panicked"))
                    .collect()
            });
            if let Some(img) = image.as_mut() {
                // Tiles own disjoint pixel rects, so replaying each shard's
                // buffered blocks yields the serial image exactly.
                for scratch in scratches.iter() {
                    scratch.blit_to(img, &grid);
                }
            }
            outputs
        };

        // Deterministic merge: shard order is tile order, and every counter
        // is an order-independent integer sum.
        let mut sort_cost = SortCost::new();
        let mut incoming_total = 0usize;
        let mut outgoing_total = 0usize;
        let mut tile_loads = Vec::with_capacity(stats.occupied_tiles);
        for out in outputs {
            stats.traffic += out.traffic;
            sort_cost += out.sort_cost;
            incoming_total += out.incoming;
            outgoing_total += out.outgoing;
            stats.blend_ops += out.blend_ops;
            stats.saturated_pixels += out.saturated_pixels;
            stats.pixel_visits += out.pixel_visits;
            tile_loads.extend(out.tile_loads);
        }

        stats.traffic.write(
            Stage::Rasterization,
            u64::from(cam.width) * u64::from(cam.height) * 4,
        );
        if config.render_image {
            for p in &projected {
                self.by_id[neo_math::num::usize_from_u32(p.id)] = ABSENT;
            }
        }

        self.frames_rendered += 1;
        FrameResult {
            image,
            stats,
            sort_cost,
            incoming: incoming_total,
            outgoing: outgoing_total,
            tile_loads,
        }
    }

    /// The tile grid for `cam`; a new resolution or tile size drops every
    /// tile's strategy, because tables are layout-specific.
    fn ensure_grid(&mut self, cam: &Camera) -> TileGrid {
        let want = TileGrid::new(cam.width, cam.height, self.config.tile_size);
        match self.grid {
            Some(g) if g == want => g,
            _ => {
                self.sorters.clear();
                self.sorters.resize_with(want.tile_count(), || None);
                self.grid = Some(want);
                want
            }
        }
    }
}

/// Rejects cameras that cannot produce a well-defined projection.
fn validate_camera(cam: &Camera) -> NeoResult<()> {
    if cam.width == 0 || cam.height == 0 {
        return Err(NeoError::DegenerateCamera(format!(
            "resolution must be non-zero, got {}x{}",
            cam.width, cam.height
        )));
    }
    if !cam.position.is_finite() {
        return Err(NeoError::DegenerateCamera(
            "position must be finite".to_string(),
        ));
    }
    let q = cam.rotation;
    if ![q.w, q.x, q.y, q.z].iter().all(|c| c.is_finite()) {
        return Err(NeoError::DegenerateCamera(
            "rotation must be finite".to_string(),
        ));
    }
    // At π and beyond the frustum half-angle reaches 90°, where `tan`
    // blows up and then wraps around to a plausible-looking narrow view.
    if !(cam.fov_y > 0.0 && cam.fov_y < std::f32::consts::PI) {
        return Err(NeoError::DegenerateCamera(format!(
            "vertical field of view must lie in (0, π) radians, got {}",
            cam.fov_y
        )));
    }
    if !cam.near.is_finite() || !cam.far.is_finite() || cam.near <= 0.0 || cam.far <= cam.near {
        return Err(NeoError::DegenerateCamera(format!(
            "clip planes must satisfy 0 < near < far, got near {} far {}",
            cam.near, cam.far
        )));
    }
    Ok(())
}

/// Builder for [`RenderEngine`]: collects a scene, a configuration, and a
/// sorting strategy, then validates everything in one fallible
/// [`RenderEngineBuilder::build`] call.
#[derive(Debug)]
#[must_use = "a builder does nothing until .build() is called"]
pub struct RenderEngineBuilder {
    scene: Option<Arc<GaussianCloud>>,
    config: RendererConfig,
    strategy: StrategyKind,
}

impl Default for RenderEngineBuilder {
    fn default() -> Self {
        Self {
            scene: None,
            config: RendererConfig::default(),
            strategy: StrategyKind::ReuseUpdate,
        }
    }
}

impl RenderEngineBuilder {
    /// Sets the scene to render. Accepts an owned cloud or an existing
    /// `Arc` (to share one scene across several engines).
    pub fn scene(mut self, scene: impl Into<Arc<GaussianCloud>>) -> Self {
        self.scene = Some(scene.into());
        self
    }

    /// Sets the renderer configuration (validated at build time).
    pub fn config(mut self, config: RendererConfig) -> Self {
        self.config = config;
        self
    }

    /// Selects the sorting strategy each occupied tile runs. Defaults to
    /// [`StrategyKind::ReuseUpdate`] (the paper's algorithm).
    pub fn strategy(mut self, kind: StrategyKind) -> Self {
        self.strategy = kind;
        self
    }

    /// Validates the assembled configuration and produces the engine.
    ///
    /// # Errors
    ///
    /// * [`NeoError::EmptyCloud`] — no scene was provided, or the scene
    ///   contains no Gaussians.
    /// * [`NeoError::InvalidConfig`] — the configuration fails
    ///   [`RendererConfig::validate`] (zero tile size, DPS chunk size
    ///   below 2) or the strategy kind is invalid (zero periodic
    ///   interval).
    pub fn build(self) -> NeoResult<RenderEngine> {
        let mut scene = self.scene.ok_or(NeoError::EmptyCloud)?;
        if scene.is_empty() {
            return Err(NeoError::EmptyCloud);
        }
        self.config.validate()?;
        self.strategy.validate().map_err(NeoError::invalid_config)?;
        let mut lod_index = None;
        if let Some(lod) = &self.config.lod {
            // The build puts the scene into cluster order, so each cluster
            // is one ID range of the geometry: in place when the builder
            // holds the only reference to the scene, on a private copy of
            // a shared scene that has to move.
            let index = ClusteredCloud::build(
                &mut scene,
                ClusterParams {
                    target_cluster_size: lod.cluster_size,
                },
            );
            lod_index = Some(Arc::new(index));
        }
        Ok(RenderEngine {
            scene,
            lod_index,
            sorter_config: self.config.sorter_config(),
            config: self.config,
            kind: self.strategy,
        })
    }
}

/// The validated, immutable rendering front door.
///
/// An engine owns the scene (shared behind an [`Arc`]), the validated
/// [`RendererConfig`], and the sorting strategy. All mutable
/// state lives in the [`RenderSession`]s it mints, so one engine can
/// serve any number of concurrent sessions — see the module docs for a
/// `std::thread::scope` example.
#[derive(Debug)]
pub struct RenderEngine {
    scene: Arc<GaussianCloud>,
    lod_index: Option<Arc<ClusteredCloud>>,
    config: RendererConfig,
    kind: StrategyKind,
    sorter_config: SorterConfig,
}

impl RenderEngine {
    /// Starts building an engine.
    pub fn builder() -> RenderEngineBuilder {
        RenderEngineBuilder::default()
    }

    /// Creates an independent rendering session over this engine's scene.
    ///
    /// Each session carries its own per-tile sorting tables; sessions
    /// never observe each other and may run on different threads.
    #[must_use]
    pub fn session(&self) -> RenderSession {
        self.session_with_id(SessionId::ANONYMOUS)
    }

    /// Creates an independent rendering session carrying an explicit
    /// identity ([`RenderSession::id`]).
    ///
    /// The engine deliberately does not mint ids from an internal counter
    /// — that would make identity depend on the scheduling of concurrent
    /// `session()` calls. Callers that need stable identity (the
    /// `neo-serve` scheduler, capture harnesses) assign ids in an order
    /// that is deterministic for them. Identity never affects rendering:
    /// two sessions with different ids produce byte-identical frames.
    #[must_use]
    pub fn session_with_id(&self, id: SessionId) -> RenderSession {
        RenderSession {
            id,
            scene: Arc::clone(&self.scene),
            lod_index: self.lod_index.clone(),
            config: self.config.clone(),
            kind: self.kind,
            sorter_config: self.sorter_config,
            grid: None,
            sorters: Vec::new(),
            scratch: Vec::new(),
            by_id: Vec::new(),
            frames_rendered: 0,
        }
    }

    /// The shared scene, in the order the pipeline's IDs index.
    ///
    /// On the flat path this is the scene the builder was given. With
    /// [`RendererConfig::with_lod`] it is that scene in the cluster
    /// order [`ClusteredCloud::build`] put it into: clusters in Morton
    /// order, members in their original relative order. The permutation
    /// runs in place when the builder held the only reference to the
    /// scene. A shared scene `Arc` already in cluster order (such as
    /// another LOD engine's `scene()` with the same cluster size) is kept
    /// as it is, allocation and all; one out of order is left untouched
    /// and the engine keeps a reordered private copy.
    pub fn scene(&self) -> &Arc<GaussianCloud> {
        &self.scene
    }

    /// The scene again: the same `Arc` as [`RenderEngine::scene`].
    ///
    /// The repository benchmark (`perfbench/`) pins this name: it passes
    /// `engine.storage().as_ref()` where it takes a
    /// [`neo_scene::CloudStorage`] trait object. It goes with the
    /// benchmark's next change; call [`RenderEngine::scene`] instead.
    pub fn storage(&self) -> &Arc<GaussianCloud> {
        &self.scene
    }

    /// The cluster index built at construction when
    /// [`RendererConfig::with_lod`] is set; `None` on the flat path.
    ///
    /// Its member IDs are the IDs of [`RenderEngine::scene`], which the
    /// build put into cluster order: each cluster is one contiguous
    /// range ([`neo_scene::Cluster::ids`]).
    pub fn lod_index(&self) -> Option<&Arc<ClusteredCloud>> {
        self.lod_index.as_ref()
    }

    /// The validated configuration.
    pub fn config(&self) -> &RendererConfig {
        &self.config
    }

    /// The sorting strategy's diagnostic name.
    pub fn strategy_name(&self) -> &str {
        self.kind.name()
    }
}

/// An independent frame-to-frame rendering stream over an engine's scene.
///
/// The session owns one [`SortingStrategy`] per occupied tile; tables
/// persist across [`RenderSession::render_frame`] calls, which is what
/// enables Neo's reuse-and-update sorting. Changing the camera
/// resolution or tile size resets the state (tables are layout-specific).
///
/// Sessions are [`Send`]: move them into scoped threads to render many
/// camera streams of the same scene concurrently.
#[derive(Debug)]
pub struct RenderSession {
    id: SessionId,
    scene: Arc<GaussianCloud>,
    lod_index: Option<Arc<ClusteredCloud>>,
    config: RendererConfig,
    kind: StrategyKind,
    sorter_config: SorterConfig,
    grid: Option<TileGrid>,
    /// One strategy per tile of `grid`, created when the tile is first
    /// occupied.
    sorters: Vec<Option<TileStrategy>>,
    /// Per-shard raster buffers, grown to the largest shard count seen
    /// and reused across frames.
    scratch: Vec<ShardScratch>,
    /// Pipeline ID → index of its projected splat, [`ABSENT`] outside a
    /// frame; grown to the ID space by the first frame with an image and
    /// reused across frames.
    by_id: Vec<u32>,
    frames_rendered: u64,
}

impl RenderSession {
    /// This session's identity — [`SessionId::ANONYMOUS`] unless the
    /// session was minted via [`RenderEngine::session_with_id`].
    #[must_use]
    pub fn id(&self) -> SessionId {
        self.id
    }

    /// Renders one frame, advancing all per-tile sorting state.
    ///
    /// # Errors
    ///
    /// [`NeoError::DegenerateCamera`] when the camera has zero
    /// resolution, a non-finite pose, a vertical field of view outside
    /// (0, π), or inverted clip planes. Valid cameras never fail.
    pub fn render_frame(&mut self, cam: &Camera) -> NeoResult<FrameResult> {
        validate_camera(cam)?;
        let plan = ShardPlan::balanced(self.config.effective_threads());
        Ok(self.render_validated(cam, &plan))
    }

    /// Renders one frame with an explicit [`ShardPlan`] instead of the
    /// plan [`RendererConfig::parallelism`] would derive.
    ///
    /// Output is byte-identical to [`RenderSession::render_frame`] for
    /// *any* plan — sharding only changes which thread rasterizes which
    /// tiles (see `ARCHITECTURE.md`, "Determinism contract"). This is the
    /// escape hatch for benchmarks, determinism tests, and external
    /// schedulers that want to pin shard boundaries; note that
    /// [`ShardPlan::balanced`] counts are *not* capped to the machine's
    /// available parallelism the way [`crate::Parallelism::Threads`] is.
    ///
    /// ```
    /// use neo_core::{RenderEngine, RendererConfig, ShardPlan};
    /// use neo_scene::{presets::ScenePreset, FrameSampler, Resolution};
    ///
    /// let engine = RenderEngine::builder()
    ///     .scene(ScenePreset::Family.build_scaled(0.002))
    ///     .config(RendererConfig::default().with_tile_size(32))
    ///     .build()
    ///     .unwrap();
    /// let sampler = FrameSampler::new(
    ///     ScenePreset::Family.trajectory(), 30.0, Resolution::Custom(128, 72));
    /// let cam = sampler.frame(0);
    /// let serial = engine.session().render_frame(&cam).unwrap();
    /// let sharded = engine
    ///     .session()
    ///     .render_frame_with_plan(&cam, &ShardPlan::balanced(4))
    ///     .unwrap();
    /// assert_eq!(serial, sharded);
    /// ```
    ///
    /// # Errors
    ///
    /// [`NeoError::DegenerateCamera`] under exactly the same conditions
    /// as [`RenderSession::render_frame`].
    pub fn render_frame_with_plan(
        &mut self,
        cam: &Camera,
        plan: &ShardPlan,
    ) -> NeoResult<FrameResult> {
        validate_camera(cam)?;
        Ok(self.render_validated(cam, plan))
    }

    /// Iterates rendered frames along a [`FrameSampler`] trajectory:
    /// frame `i` of the stream is the render of `sampler.frame(i)`.
    ///
    /// ```
    /// use neo_core::{RenderEngine, RendererConfig, StrategyKind};
    /// use neo_scene::{presets::ScenePreset, FrameSampler, Resolution};
    ///
    /// let engine = RenderEngine::builder()
    ///     .scene(ScenePreset::Family.build_scaled(0.002))
    ///     .config(RendererConfig::default().with_tile_size(32).without_image())
    ///     .build()
    ///     .unwrap();
    /// let sampler = FrameSampler::new(
    ///     ScenePreset::Family.trajectory(), 30.0, Resolution::Custom(128, 72));
    /// let mut session = engine.session();
    /// let frames: Result<Vec<_>, _> = session.stream(&sampler, 3).collect();
    /// assert_eq!(frames.unwrap().len(), 3);
    /// ```
    pub fn stream<'s>(&'s mut self, sampler: &'s FrameSampler, frames: usize) -> FrameStream<'s> {
        FrameStream {
            session: self,
            sampler,
            next: 0,
            end: frames,
        }
    }

    /// Drops all per-tile state (tables, strategy queues).
    pub fn reset(&mut self) {
        self.grid = None;
        self.sorters.clear();
        self.scratch.clear();
        self.frames_rendered = 0;
    }

    /// Frames rendered since construction (or the last reset).
    pub fn frames_rendered(&self) -> u64 {
        self.frames_rendered
    }

    /// The shared scene this session renders.
    pub fn scene(&self) -> &Arc<GaussianCloud> {
        &self.scene
    }

    /// The session's configuration.
    pub fn config(&self) -> &RendererConfig {
        &self.config
    }

    /// The sorting strategy's diagnostic name.
    pub fn strategy_name(&self) -> &str {
        self.kind.name()
    }
}

/// Iterator of rendered frames along a trajectory — see
/// [`RenderSession::stream`].
#[derive(Debug)]
#[must_use = "iterators are lazy; nothing renders until the stream is consumed"]
pub struct FrameStream<'s> {
    session: &'s mut RenderSession,
    sampler: &'s FrameSampler,
    next: usize,
    end: usize,
}

impl Iterator for FrameStream<'_> {
    type Item = NeoResult<FrameResult>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.next >= self.end {
            return None;
        }
        let cam = self.sampler.frame(self.next);
        self.next += 1;
        Some(self.session.render_frame(&cam))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.end - self.next;
        (left, Some(left))
    }
}

impl ExactSizeIterator for FrameStream<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use neo_math::Vec3;
    use neo_scene::{presets::ScenePreset, Resolution};
    use std::cell::Cell;

    thread_local! {
        /// Color passes run by frames rendered on this thread.
        pub(super) static COLOR_PASSES: Cell<u64> = const { Cell::new(0) };
    }

    fn small_engine() -> RenderEngine {
        RenderEngine::builder()
            .scene(ScenePreset::Family.build_scaled(0.002))
            .config(RendererConfig::default().with_tile_size(32))
            .build()
            .expect("valid")
    }

    fn small_sampler() -> FrameSampler {
        FrameSampler::new(
            ScenePreset::Family.trajectory(),
            30.0,
            Resolution::Custom(160, 96),
        )
    }

    #[test]
    fn builder_requires_a_scene() {
        let err = RenderEngine::builder().build().unwrap_err();
        assert_eq!(err, NeoError::EmptyCloud);
    }

    #[test]
    fn builder_rejects_empty_cloud() {
        let err = RenderEngine::builder()
            .scene(GaussianCloud::new())
            .build()
            .unwrap_err();
        assert_eq!(err, NeoError::EmptyCloud);
    }

    #[test]
    fn builder_rejects_zero_tile_size() {
        let err = RenderEngine::builder()
            .scene(ScenePreset::Family.build_scaled(0.002))
            .config(RendererConfig::default().with_tile_size(0))
            .build()
            .unwrap_err();
        assert!(matches!(err, NeoError::InvalidConfig(_)), "{err:?}");
    }

    #[test]
    fn builder_rejects_tiny_dps_chunk() {
        let err = RenderEngine::builder()
            .scene(ScenePreset::Family.build_scaled(0.002))
            .config(RendererConfig::default().with_chunk_size(1))
            .build()
            .unwrap_err();
        assert!(matches!(err, NeoError::InvalidConfig(_)), "{err:?}");
    }

    #[test]
    fn builder_rejects_zero_periodic_interval() {
        let err = RenderEngine::builder()
            .scene(ScenePreset::Family.build_scaled(0.002))
            .strategy(StrategyKind::Periodic(0))
            .build()
            .unwrap_err();
        assert!(matches!(err, NeoError::InvalidConfig(_)), "{err:?}");
    }

    #[test]
    fn session_renders_and_counts_frames() {
        let engine = small_engine();
        let sampler = small_sampler();
        let mut session = engine.session();
        let f0 = session.render_frame(&sampler.frame(0)).unwrap();
        let f1 = session.render_frame(&sampler.frame(1)).unwrap();
        // Frame 1 reuses frame 0's tables: most Gaussians are retained.
        assert!(f0.incoming > 0);
        let churn = f1.incoming as f64 / f0.incoming as f64;
        assert!(
            churn < 0.25,
            "frame-1 churn should be small, got {churn:.3}"
        );
        assert_eq!(session.frames_rendered(), 2);
        session.reset();
        assert_eq!(session.frames_rendered(), 0);
    }

    #[test]
    fn degenerate_cameras_error_not_panic() {
        let engine = small_engine();
        let mut session = engine.session();
        let good = Camera::look_at(
            Vec3::new(0.0, 0.0, -5.0),
            Vec3::ZERO,
            Vec3::Y,
            1.0,
            Resolution::Custom(64, 64),
        );

        let mut zero_res = good;
        zero_res.width = 0;
        assert!(matches!(
            session.render_frame(&zero_res),
            Err(NeoError::DegenerateCamera(_))
        ));

        // 7.0 would otherwise render as a ≈0.72 rad view: tan wraps.
        for fov in [0.0, std::f32::consts::PI, 4.0, 7.0, f32::NAN] {
            let mut bad_fov = good;
            bad_fov.fov_y = fov;
            assert!(
                matches!(
                    session.render_frame(&bad_fov),
                    Err(NeoError::DegenerateCamera(_))
                ),
                "fov_y {fov} accepted"
            );
        }

        let mut nan_pos = good;
        nan_pos.position = Vec3::new(f32::NAN, 0.0, 0.0);
        assert!(matches!(
            session.render_frame(&nan_pos),
            Err(NeoError::DegenerateCamera(_))
        ));

        let mut inverted_clip = good;
        inverted_clip.far = inverted_clip.near;
        assert!(matches!(
            session.render_frame(&inverted_clip),
            Err(NeoError::DegenerateCamera(_))
        ));

        // The session stays usable after errors.
        assert!(session.render_frame(&good).is_ok());
    }

    #[test]
    fn sessions_are_independent() {
        let engine = small_engine();
        let sampler = small_sampler();
        let mut a = engine.session();
        let mut b = engine.session();
        // Session A warms up; session B starts cold. Their frame-0 results
        // must not be affected by each other.
        for i in 0..3 {
            a.render_frame(&sampler.frame(i)).unwrap();
        }
        let fa = a.render_frame(&sampler.frame(3)).unwrap();
        let fb = b.render_frame(&sampler.frame(3)).unwrap();
        // Cold session re-inserts everything; warm one reuses its tables.
        assert!(fb.incoming > fa.incoming);
        assert_eq!(Arc::as_ptr(a.scene()), Arc::as_ptr(b.scene()));
    }

    #[test]
    fn stream_renders_the_trajectory() {
        let engine = small_engine();
        let sampler = small_sampler();
        let mut session = engine.session();
        let stream = session.stream(&sampler, 4);
        assert_eq!(stream.len(), 4);
        let frames: NeoResult<Vec<_>> = stream.collect();
        let frames = frames.unwrap();
        assert_eq!(frames.len(), 4);
        assert_eq!(session.frames_rendered(), 4);
        // Reuse kicks in after the first frame of the stream.
        assert!(frames[1].incoming < frames[0].incoming);
    }

    #[test]
    fn lod_engine_culls_counts_and_stays_shard_invariant() {
        use neo_pipeline::LodConfig;
        let scene = Arc::new(
            neo_scene::synth::CityParams {
                splats_per_block: 150,
                ..neo_scene::synth::CityParams::default().scaled(4.0)
            }
            .build(),
        );
        let sampler = FrameSampler::new(
            neo_scene::synth::CityParams::default()
                .scaled(4.0)
                .trajectory(),
            30.0,
            Resolution::Custom(160, 96),
        );
        let build = |lod: Option<LodConfig>| {
            let mut cfg = RendererConfig::default().with_tile_size(32);
            if let Some(lod) = lod {
                cfg = cfg.with_lod(lod);
            }
            RenderEngine::builder()
                .scene(Arc::clone(&scene))
                .config(cfg)
                .build()
                .unwrap()
        };
        let flat = build(None);
        let lod = build(Some(LodConfig::default()));
        assert!(flat.lod_index().is_none());
        assert!(lod.lod_index().unwrap().cluster_count() > 1);

        let mut flat_s = flat.session();
        let mut lod_s = lod.session();
        let mut lod_sharded = lod.session();
        for i in 0..3 {
            let cam = sampler.frame(i);
            let f = flat_s.render_frame(&cam).unwrap();
            let l = lod_s.render_frame(&cam).unwrap();
            let ls = lod_sharded
                .render_frame_with_plan(&cam, &ShardPlan::balanced(4))
                .unwrap();
            assert_eq!(l, ls, "LOD path diverged across shard plans (frame {i})");
            assert_eq!(f.stats.clusters_total, 0, "flat path consults no index");
            assert!(l.stats.clusters_total > 0);
            assert!(l.stats.clusters_culled > 0, "street cam must cull");
            assert!(l.stats.lod_splats_saved > 0);
            assert!(
                l.stats.traffic.reads(Stage::FeatureExtraction)
                    < f.stats.traffic.reads(Stage::FeatureExtraction),
                "index must cut feature-extraction traffic (frame {i})"
            );
        }
    }

    #[test]
    fn image_off_frames_never_run_the_color_pass() {
        use neo_pipeline::LodConfig;
        let scene = Arc::new(
            neo_scene::synth::CityParams {
                splats_per_block: 150,
                ..neo_scene::synth::CityParams::default().scaled(4.0)
            }
            .build(),
        );
        let sampler = FrameSampler::new(
            neo_scene::synth::CityParams::default()
                .scaled(4.0)
                .trajectory(),
            30.0,
            Resolution::Custom(160, 96),
        );
        let lod = LodConfig {
            proxy_footprint_px: 48.0,
            ..LodConfig::default()
        };
        let passes = || COLOR_PASSES.with(Cell::get);
        for lod in [None, Some(lod)] {
            for image in [false, true] {
                let mut config = RendererConfig::default().with_tile_size(32);
                if !image {
                    config = config.without_image();
                }
                if let Some(lod) = lod {
                    config = config.with_lod(lod);
                }
                let engine = RenderEngine::builder()
                    .scene(Arc::clone(&scene))
                    .config(config)
                    .build()
                    .unwrap();
                let mut session = engine.session();
                let before = passes();
                let mut proxied = 0;
                for i in 0..8 {
                    let frame = session.render_frame(&sampler.frame(i * 4)).unwrap();
                    proxied += frame.stats.clusters_lod;
                }
                // One color pass per frame with an image, none without.
                let expected = if image { 8 } else { 0 };
                assert_eq!(passes() - before, expected, "lod {lod:?}, image {image}");
                assert_eq!(proxied > 0, lod.is_some(), "proxies must be exercised");
            }
        }
    }

    #[test]
    fn lod_engines_renumber_the_scene_into_cluster_order() {
        use neo_pipeline::LodConfig;
        let original = neo_scene::synth::CityParams {
            splats_per_block: 60,
            ..neo_scene::synth::CityParams::default().scaled(2.0)
        }
        .build();
        let build = |scene: Arc<GaussianCloud>| {
            RenderEngine::builder()
                .scene(scene)
                .config(RendererConfig::default().with_lod(LodConfig::default()))
                .build()
                .unwrap()
        };
        // A scene shared with the caller is left as it was: the engine
        // reorders a private copy.
        let shared = Arc::new(original.clone());
        let engine = build(Arc::clone(&shared));
        assert_eq!(*shared, original);
        assert!(!Arc::ptr_eq(engine.scene(), &shared));
        // The engine's scene and index are a standalone build's over the
        // original cloud.
        let mut standalone = Arc::new(original.clone());
        let index = ClusteredCloud::build(
            &mut standalone,
            ClusterParams {
                target_cluster_size: LodConfig::default().cluster_size,
            },
        );
        assert_ne!(*standalone, original, "a city is not in cluster order");
        assert_eq!(engine.scene(), &standalone);
        assert_eq!(**engine.lod_index().unwrap(), index);
        // An owned scene is reordered in place into the same order.
        let scene = Arc::new(original.clone());
        let allocation = Arc::as_ptr(&scene);
        let owned = build(scene);
        assert_eq!(Arc::as_ptr(owned.scene()), allocation);
        assert_eq!(owned.scene(), engine.scene());
        // A shared scene already in cluster order keeps the caller's
        // allocation.
        let again = build(Arc::clone(engine.scene()));
        assert!(Arc::ptr_eq(again.scene(), engine.scene()));
        assert_eq!(again.lod_index(), engine.lod_index());
        // The flat path keeps the scene allocation and order untouched.
        let flat = RenderEngine::builder()
            .scene(Arc::clone(&shared))
            .build()
            .unwrap();
        assert!(Arc::ptr_eq(flat.scene(), &shared));
    }

    #[test]
    fn sessions_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<RenderSession>();
        assert_send::<RenderEngine>();
    }

    #[test]
    fn sharded_frames_match_serial_across_a_sequence() {
        let engine = small_engine();
        let sampler = small_sampler();
        let mut serial = engine.session();
        let mut sharded = engine.session();
        let mut explicit = engine.session();
        for i in 0..4 {
            let cam = sampler.frame(i);
            let a = serial.render_frame(&cam).unwrap();
            let b = sharded
                .render_frame_with_plan(&cam, &ShardPlan::balanced(5))
                .unwrap();
            let c = explicit
                .render_frame_with_plan(&cam, &ShardPlan::explicit(vec![1, 4, 9]))
                .unwrap();
            assert_eq!(a, b, "balanced plan diverged on frame {i}");
            assert_eq!(a, c, "explicit plan diverged on frame {i}");
        }
    }

    #[test]
    fn config_threads_path_matches_serial() {
        let scene = ScenePreset::Family.build_scaled(0.002);
        let sampler = small_sampler();
        let serial_engine = RenderEngine::builder()
            .scene(Arc::new(scene))
            .config(RendererConfig::default().with_tile_size(32))
            .build()
            .unwrap();
        let threaded_engine = RenderEngine::builder()
            .scene(Arc::clone(serial_engine.scene()))
            .config(RendererConfig::default().with_tile_size(32).with_threads(4))
            .build()
            .unwrap();
        let mut a = serial_engine.session();
        let mut b = threaded_engine.session();
        for i in 0..3 {
            let cam = sampler.frame(i);
            assert_eq!(
                a.render_frame(&cam).unwrap(),
                b.render_frame(&cam).unwrap(),
                "threaded config diverged on frame {i}"
            );
        }
    }

    #[test]
    fn storage_is_the_scene_arc_itself() {
        let engine = small_engine();
        assert!(Arc::ptr_eq(engine.storage(), engine.scene()));
    }

    #[test]
    fn workload_mode_is_shard_invariant_too() {
        let engine = RenderEngine::builder()
            .scene(ScenePreset::Family.build_scaled(0.002))
            .config(RendererConfig::default().with_tile_size(32).without_image())
            .build()
            .unwrap();
        let cam = small_sampler().frame(0);
        let a = engine.session().render_frame(&cam).unwrap();
        let b = engine
            .session()
            .render_frame_with_plan(&cam, &ShardPlan::balanced(3))
            .unwrap();
        assert!(a.image.is_none());
        assert_eq!(a.stats.blend_ops, 0);
        assert!(!a.tile_loads.is_empty());
        assert!(a.mean_table_len() > 0.0);
        assert_eq!(a, b);
    }

    #[test]
    fn resolution_change_resets_the_tables() {
        let engine = small_engine();
        let sampler = small_sampler();
        let mut session = engine.session();
        session.render_frame(&sampler.frame(0)).unwrap();
        let big = sampler
            .frame(1)
            .with_resolution(Resolution::Custom(320, 192));
        let f = session.render_frame(&big).unwrap();
        // Every binned Gaussian is incoming again on the new grid.
        assert_eq!(f.incoming, f.stats.duplicates);
    }

    #[test]
    fn periodic_skip_frame_charges_no_sorting_but_renders() {
        let engine = RenderEngine::builder()
            .scene(ScenePreset::Family.build_scaled(0.002))
            .config(RendererConfig::default().with_tile_size(32))
            .strategy(StrategyKind::Periodic(4))
            .build()
            .unwrap();
        let sampler = small_sampler();
        let mut session = engine.session();
        let f0 = session.render_frame(&sampler.frame(0)).unwrap();
        let f1 = session.render_frame(&sampler.frame(1)).unwrap();
        assert!(f0.stats.traffic.stage_total(Stage::Sorting) > 0);
        assert_eq!(
            f1.stats.traffic.stage_total(Stage::Sorting),
            0,
            "skip frame"
        );
        assert!(f1.image.is_some());
    }

    #[test]
    fn reuse_cuts_sorting_traffic_against_full_resort() {
        let scene = Arc::new(ScenePreset::Family.build_scaled(0.002));
        let sampler = small_sampler();
        let session = |kind: StrategyKind| {
            RenderEngine::builder()
                .scene(Arc::clone(&scene))
                .config(RendererConfig::default().with_tile_size(32))
                .strategy(kind)
                .build()
                .unwrap()
                .session()
        };
        let mut neo = session(StrategyKind::ReuseUpdate);
        let mut base = session(StrategyKind::FullResort);
        let (mut neo_bytes, mut base_bytes) = (0u64, 0u64);
        for i in 0..6 {
            let cam = sampler.frame(i);
            let a = neo.render_frame(&cam).unwrap();
            let b = base.render_frame(&cam).unwrap();
            if i > 0 {
                neo_bytes += a.stats.traffic.stage_total(Stage::Sorting);
                base_bytes += b.stats.traffic.stage_total(Stage::Sorting);
            }
        }
        assert!(
            (neo_bytes as f64) < base_bytes as f64 * 0.55,
            "neo {neo_bytes} vs full resort {base_bytes}"
        );
    }

    #[test]
    fn background_fills_a_frame_that_sees_no_splat() {
        let mut cloud = GaussianCloud::new();
        // Behind a camera at z = -5 looking toward +z.
        cloud.push(neo_scene::Gaussian::isotropic(
            Vec3::new(0.0, 0.0, -50.0),
            0.1,
            0.9,
            Vec3::ONE,
        ));
        let background = Vec3::new(1.0, 0.0, 0.0);
        let engine = RenderEngine::builder()
            .scene(cloud)
            .config(RendererConfig::default().with_background(background))
            .build()
            .unwrap();
        let cam = Camera::look_at(
            Vec3::new(0.0, 0.0, -5.0),
            Vec3::ZERO,
            Vec3::Y,
            1.0,
            Resolution::Custom(64, 64),
        );
        let f = engine.session().render_frame(&cam).unwrap();
        assert_eq!(f.stats.projected, 0);
        assert_eq!(f.stats.traffic.stage_total(Stage::Sorting), 0);
        let image = f.image.unwrap();
        assert!(image.pixels().iter().all(|&p| p == background));
    }

    /// One full-resort frame of `cloud` from `(0, 0, -5)` toward the
    /// origin.
    fn render_one(cloud: GaussianCloud, size: u32, config: RendererConfig) -> FrameResult {
        let cam = Camera::look_at(
            Vec3::new(0.0, 0.0, -5.0),
            Vec3::ZERO,
            Vec3::Y,
            1.0,
            Resolution::Custom(size, size),
        );
        let engine = RenderEngine::builder()
            .scene(cloud)
            .config(config)
            .strategy(StrategyKind::FullResort)
            .build()
            .unwrap();
        engine.session().render_frame(&cam).unwrap()
    }

    fn blob(z: f32, sigma: f32, opacity: f32, rgb: Vec3) -> neo_scene::Gaussian {
        neo_scene::Gaussian::isotropic(Vec3::new(0.0, 0.0, z), sigma, opacity, rgb)
    }

    fn cloud_of(gaussians: Vec<neo_scene::Gaussian>) -> GaussianCloud {
        GaussianCloud::from_gaussians(gaussians)
    }

    const RED: Vec3 = Vec3::new(1.0, 0.0, 0.0);

    #[test]
    fn single_gaussian_renders_red_center_and_charges_every_stage() {
        let f = render_one(
            cloud_of(vec![blob(0.0, 0.3, 0.95, RED)]),
            128,
            RendererConfig::default(),
        );
        let center = f.image.as_ref().unwrap().get(64, 64);
        assert!(center.x > 0.5 && center.y < 0.2, "center = {center}");
        assert!(f.stats.blend_ops > 0);
        assert_eq!(f.stats.projected, 1);
        for stage in Stage::ALL {
            assert!(f.stats.traffic.stage_total(stage) > 0, "{stage:?}");
        }
    }

    #[test]
    fn occlusion_front_wins() {
        // Red at depth 4 in front of green at depth 6.
        let green = Vec3::new(0.0, 1.0, 0.0);
        let cloud = cloud_of(vec![
            blob(-1.0, 0.25, 0.99, RED),
            blob(1.0, 0.25, 0.99, green),
        ]);
        let c = render_one(cloud, 128, RendererConfig::default())
            .image
            .unwrap()
            .get(64, 64);
        assert!(c.x > c.y * 2.0, "front red must dominate: {c}");
    }

    #[test]
    fn subtiling_skips_only_faint_pixels() {
        let mut green = blob(0.0, 0.1, 0.8, Vec3::new(0.0, 1.0, 0.0));
        green.mean = Vec3::new(0.8, 0.4, 0.0);
        let cloud = cloud_of(vec![blob(0.0, 0.3, 0.95, RED), green]);
        let without = RendererConfig {
            subtiling: false,
            ..RendererConfig::default()
        };
        let on = render_one(cloud.clone(), 128, RendererConfig::default());
        let off = render_one(cloud, 128, without);
        let max_diff = on
            .image
            .unwrap()
            .pixels()
            .iter()
            .zip(off.image.unwrap().pixels())
            .map(|(p, q)| (*p - *q).abs().max_element())
            .fold(0.0f32, f32::max);
        assert!(max_diff < 0.02, "max diff {max_diff}");
        assert!(on.stats.blend_ops <= off.stats.blend_ops);
    }

    #[test]
    fn degenerate_scale_cloud_renders_finite() {
        // A Gaussian whose covariance overflows f32 is culled at
        // projection, and a NaN-opacity Gaussian is skipped by the blend
        // guard: neither may change the frame.
        let red = blob(0.0, 0.3, 0.95, RED);
        let mut huge = blob(0.0, 0.2, 0.9, Vec3::ONE);
        huge.scale = Vec3::splat(1e25);
        let nan_opacity = blob(0.1, 0.2, f32::NAN, Vec3::ONE);
        let f = render_one(
            cloud_of(vec![red.clone(), huge, nan_opacity]),
            96,
            RendererConfig::default(),
        );
        let clean = render_one(cloud_of(vec![red]), 96, RendererConfig::default());
        assert!(f
            .image
            .as_ref()
            .unwrap()
            .pixels()
            .iter()
            .all(|p| p.is_finite()));
        assert_eq!(
            f.image, clean.image,
            "degenerate Gaussians changed the image"
        );
        assert_eq!(f.stats.blend_ops, clean.stats.blend_ops);
    }

    #[test]
    fn stacked_opaque_gaussians_saturate() {
        let stack = (0..8u8).map(|i| blob(f32::from(i) * 0.05, 0.5, 0.99, Vec3::ONE));
        assert!(
            render_one(cloud_of(stack.collect()), 64, RendererConfig::default())
                .stats
                .saturated_pixels
                > 0
        );
    }
}
