//! LOD parity suite — the safety net under the cluster-indexed scene.
//!
//! Three contracts are pinned here:
//!
//! 1. **Cull parity** (property): with proxy substitution disabled,
//!    [`neo_pipeline::project_clusters`] produces byte-identical output
//!    to the flat [`neo_pipeline::project_storage`] path for arbitrary
//!    clouds and cameras — cluster culling may only skip splats the
//!    per-splat frustum test would reject anyway.
//!    After renumbering into cluster order, the cull-only cluster path
//!    equals the flat path over the permuted cloud and streams its output
//!    strictly ID-ascending; with proxies on, members come first,
//!    ascending, then proxies above `source_len`.
//! 2. **LOD-off identity**: a [`RendererConfig`] without `with_lod` and
//!    one with a cull-only `LodConfig` agree on every statistic except
//!    the index's own bookkeeping (cluster counters and the
//!    feature-extraction traffic the cull saves), across all five
//!    sorting strategies and thread counts. A LOD engine renumbers its
//!    scene into cluster order, so the whole `FrameResult` matches a flat
//!    engine over that renumbered scene. Against the original order the
//!    images and every count match too, except the sorting network's
//!    `compares`/`moves`: tiles sorted from scratch see their entries in
//!    a different ID order.
//! 3. **LOD-on determinism**: with proxy substitution active, frames
//!    are byte-identical across thread counts and shard plans.

use neo_core::{
    FrameResult, LodConfig, RenderEngine, RendererConfig, ShardPlan, StorageFormat, StrategyKind,
};
use neo_math::num::u64_from_usize;
use neo_math::sh::{basis_count, ShCoefficients, MAX_COEFFS};
use neo_math::{Quat, Vec3};
use neo_pipeline::{project_clusters, project_storage, Stage};
use neo_scene::synth::CityParams;
use neo_scene::{
    Camera, ClusterParams, ClusteredCloud, FrameSampler, Gaussian, GaussianCloud, Resolution,
};
use proptest::prelude::*;
use std::sync::Arc;

const ALL_STRATEGIES: [StrategyKind; 5] = [
    StrategyKind::FullResort,
    StrategyKind::Hierarchical,
    StrategyKind::Periodic(3),
    StrategyKind::Background(2),
    StrategyKind::ReuseUpdate,
];

/// Cull-only configuration: the cluster index runs (and culls), but no
/// proxy ever substitutes for members.
fn cull_only() -> LodConfig {
    LodConfig {
        proxy_footprint_px: 0.0,
        ..LodConfig::default()
    }
}

fn city_scene() -> (Arc<GaussianCloud>, FrameSampler) {
    let params = CityParams {
        splats_per_block: 150,
        ..CityParams::default().scaled(4.0)
    };
    let cloud = Arc::new(params.build());
    let sampler = FrameSampler::new(params.trajectory(), 30.0, Resolution::Custom(160, 96));
    (cloud, sampler)
}

fn build_engine(
    cloud: &Arc<GaussianCloud>,
    lod: Option<LodConfig>,
    kind: StrategyKind,
    threads: u32,
) -> RenderEngine {
    let mut config = RendererConfig::default()
        .with_tile_size(32)
        .with_threads(threads);
    if let Some(lod) = lod {
        config = config.with_lod(lod);
    }
    RenderEngine::builder()
        .scene(Arc::clone(cloud))
        .config(config)
        .strategy(kind)
        .build()
        .expect("valid test configuration")
}

fn render(engine: &RenderEngine, sampler: &FrameSampler, frames: usize) -> Vec<FrameResult> {
    let mut session = engine.session();
    (0..frames)
        .map(|i| session.render_frame(&sampler.frame(i)).expect("camera"))
        .collect()
}

fn render_frames(
    cloud: &Arc<GaussianCloud>,
    sampler: &FrameSampler,
    lod: Option<LodConfig>,
    kind: StrategyKind,
    threads: u32,
    frames: usize,
) -> Vec<FrameResult> {
    render(&build_engine(cloud, lod, kind, threads), sampler, frames)
}

/// Everything the flat path and the cull-only LOD path must share: the
/// index is allowed to differ only in its own counters and in the
/// feature-extraction reads its culling avoided.
fn normalized(frame: &FrameResult, reference: &FrameResult) -> FrameResult {
    let mut f = frame.clone();
    f.stats.clusters_total = reference.stats.clusters_total;
    f.stats.clusters_culled = reference.stats.clusters_culled;
    f.stats.clusters_lod = reference.stats.clusters_lod;
    f.stats.lod_splats_saved = reference.stats.lod_splats_saved;
    f.stats.traffic = reference.stats.traffic;
    f
}

#[test]
fn cull_only_lod_matches_flat_path_across_strategies_and_threads() {
    let (cloud, sampler) = city_scene();
    for kind in ALL_STRATEGIES {
        for threads in [1, 4] {
            let lod_engine = build_engine(&cloud, Some(cull_only()), kind, threads);
            let renumbered = Arc::clone(lod_engine.scene());
            assert_ne!(*renumbered, *cloud, "the city is not in cluster order");
            let lod = render(&lod_engine, &sampler, 3);
            let flat = render_frames(&renumbered, &sampler, None, kind, threads, 3);
            let original = render_frames(&cloud, &sampler, None, kind, threads, 3);
            for (i, ((f, l), o)) in flat.iter().zip(&lod).zip(&original).enumerate() {
                assert_eq!(
                    *f,
                    normalized(l, f),
                    "cull-only LOD diverged: {kind:?}, {threads} thread(s), frame {i}"
                );
                // Renumbering keeps every image bit and count; only the
                // sorting network's work on from-scratch tiles depends on
                // the ID order it is handed.
                let mut renumbering_only = f.clone();
                renumbering_only.sort_cost.compares = o.sort_cost.compares;
                renumbering_only.sort_cost.moves = o.sort_cost.moves;
                assert_eq!(
                    renumbering_only, *o,
                    "renumbering changed more than compares/moves: {kind:?}, \
                     {threads} thread(s), frame {i}"
                );
                // The index must actually have run — and saved traffic.
                assert!(l.stats.clusters_total > 0, "{kind:?}: index did not run");
                assert!(
                    l.stats.traffic.reads(Stage::FeatureExtraction)
                        <= f.stats.traffic.reads(Stage::FeatureExtraction),
                    "{kind:?}: culling must never add feature-extraction reads"
                );
            }
        }
    }
}

#[test]
fn lod_on_is_deterministic_across_threads_and_shard_plans() {
    let (cloud, sampler) = city_scene();
    let lod = LodConfig {
        cluster_size: 128,
        proxy_footprint_px: 96.0,
    };
    for kind in [StrategyKind::FullResort, StrategyKind::ReuseUpdate] {
        let serial = render_frames(&cloud, &sampler, Some(lod), kind, 1, 3);
        let threaded = render_frames(&cloud, &sampler, Some(lod), kind, 4, 3);
        assert_eq!(serial, threaded, "{kind:?}: LOD output depends on threads");
        // Proxy substitution must be exercised, or this test pins nothing.
        assert!(
            serial.iter().any(|f| f.stats.clusters_lod > 0),
            "{kind:?}: no cluster was ever proxied"
        );

        // Explicit shard plans through the same session must also agree.
        let engine = RenderEngine::builder()
            .scene(Arc::clone(&cloud))
            .config(RendererConfig::default().with_tile_size(32).with_lod(lod))
            .strategy(kind)
            .build()
            .expect("valid test configuration");
        let mut session = engine.session();
        for (i, reference) in serial.iter().enumerate() {
            let sharded = session
                .render_frame_with_plan(&sampler.frame(i), &ShardPlan::balanced(3))
                .expect("camera");
            assert_eq!(reference, &sharded, "{kind:?}: frame {i} shard divergence");
        }
    }
}

#[test]
fn lod_stats_account_for_every_splat() {
    let (cloud, sampler) = city_scene();
    let frames = render_frames(
        &cloud,
        &sampler,
        Some(LodConfig {
            cluster_size: 128,
            proxy_footprint_px: 96.0,
        }),
        StrategyKind::ReuseUpdate,
        1,
        3,
    );
    for f in &frames {
        // Visited + saved covers the whole cloud: every member is either
        // decoded for projection or skipped by a cull/proxy decision.
        let visited = f.stats.traffic.reads(Stage::FeatureExtraction)
            / u64_from_usize(StorageFormat::AosF32.record_bytes(cloud.max_sh_degree()));
        assert_eq!(
            visited + f.stats.lod_splats_saved,
            u64_from_usize(cloud.len()),
            "visited/saved accounting leak"
        );
    }
}

/// A valid Gaussian spanning the whole scene volume the cameras below
/// look at, including tiny and strongly anisotropic scales.
fn arb_gaussian() -> impl Strategy<Value = Gaussian> {
    (
        (-60.0f32..60.0, -60.0f32..60.0, -60.0f32..60.0),
        (0.001f32..4.0, 0.001f32..4.0, 0.001f32..4.0),
        (-1.0f32..1.0, -1.0f32..1.0, -1.0f32..1.0, -1.0f32..1.0),
        0.0f32..=1.0,
        0usize..=2,
        prop::collection::vec(-2.0f32..2.0, 3 * MAX_COEFFS),
    )
        .prop_map(|(m, s, q, opacity, degree, sh_vals)| {
            let mut coeffs = [[0.0f32; MAX_COEFFS]; 3];
            for c in 0..3 {
                for i in 0..basis_count(degree) {
                    coeffs[c][i] = sh_vals[c * MAX_COEFFS + i];
                }
            }
            Gaussian {
                mean: Vec3::new(m.0, m.1, m.2),
                scale: Vec3::new(s.0, s.1, s.2),
                rotation: Quat::new(q.0.max(0.01), q.1, q.2, q.3).normalized(),
                opacity,
                sh: ShCoefficients { coeffs, degree },
            }
        })
}

/// An arbitrary camera orbiting the origin at varying radius and height,
/// so clusters land inside, outside, and straddling the frustum.
fn arb_camera() -> impl Strategy<Value = Camera> {
    (
        0.0f32..std::f32::consts::TAU,
        5.0f32..90.0,
        -20.0f32..40.0,
        0.4f32..1.4,
    )
        .prop_map(|(theta, radius, height, fov_y)| {
            let position = Vec3::new(radius * theta.cos(), height, radius * theta.sin());
            Camera::look_at(
                position,
                Vec3::new(0.0, 0.0, 0.0),
                Vec3::new(0.0, 1.0, 0.0),
                fov_y,
                Resolution::Custom(128, 72),
            )
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Cull parity as a property: for arbitrary clouds, cameras, and
    /// cluster sizes, the cull-only cluster path is byte-identical to
    /// flat per-splat projection.
    #[test]
    fn cluster_cull_parity_over_random_clouds_and_cameras(
        gaussians in prop::collection::vec(arb_gaussian(), 1..96),
        cam in arb_camera(),
        cluster_size in 1u32..64,
    ) {
        let cloud = GaussianCloud::from_gaussians(gaussians);
        let index = ClusteredCloud::build(&cloud, ClusterParams {
            target_cluster_size: cluster_size,
        });
        let flat = project_storage(&cam, &cloud);
        let clustered = project_clusters(&cam, &cloud, &index, &cull_only());
        prop_assert_eq!(&flat, &clustered.projected,
            "cull-only cluster projection diverged from the flat path");
        prop_assert_eq!(clustered.clusters_proxied, 0);
        prop_assert_eq!(
            clustered.splats_visited + clustered.splats_saved,
            u64_from_usize(cloud.len())
        );
    }

    /// Renumbering as a property: over the cloud permuted into cluster
    /// order, the cull-only cluster path equals the flat path and comes
    /// out strictly ID-ascending without reordering; with proxies on,
    /// ascending members come first, then proxies above `source_len`.
    #[test]
    fn renumbered_cluster_path_streams_in_id_order(
        gaussians in prop::collection::vec(arb_gaussian(), 1..96),
        cam in arb_camera(),
        cluster_size in 1u32..64,
        proxy_footprint_px in 1.0f32..400.0,
    ) {
        let cloud = GaussianCloud::from_gaussians(gaussians);
        let mut index = ClusteredCloud::build(&cloud, ClusterParams {
            target_cluster_size: cluster_size,
        });
        let mut permuted = cloud.clone();
        if let Some(order) = index.renumber() {
            permuted.permute(order);
        }
        let clustered = project_clusters(&cam, &permuted, &index, &cull_only());
        prop_assert_eq!(&clustered.projected, &project_storage(&cam, &permuted));
        prop_assert!(clustered.projected.windows(2).all(|w| w[0].id < w[1].id));

        let lod = LodConfig { cluster_size, proxy_footprint_px };
        let out = project_clusters(&cam, &permuted, &index, &lod);
        let members = out.tags.iter().take_while(|&&t| t & 1 == 0).count();
        prop_assert!(out.tags[members..].iter().all(|&t| t & 1 == 1),
            "members and proxies interleave");
        prop_assert!(out.projected[..members].windows(2).all(|w| w[0].id < w[1].id));
        prop_assert!(out.projected[members..].windows(2).all(|w| w[0].id < w[1].id));
        prop_assert!(out.projected[members..].iter().all(|p| p.id >= index.source_len()));
        // Members are exactly the flat projections of unproxied clusters.
        for (p, &tag) in out.projected[..members].iter().zip(&out.tags) {
            let cluster = &index.clusters()[(tag >> 1) as usize];
            prop_assert!(cluster.members().contains(&p.id));
            prop_assert_eq!(Some(*p), neo_pipeline::project_gaussian(
                &cam, p.id, &permuted.gaussians()[p.id as usize]));
        }
    }
}
