//! Workload capture: run the functional pipeline on reduced scenes and
//! extrapolate the counts to full scene size.

use neo_core::{LodConfig, RenderEngine, RendererConfig};
use neo_scene::{presets::ScenePreset, FrameSampler, Resolution};
use neo_sim::WorkloadFrame;

/// Parameters for a workload capture run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CaptureConfig {
    /// Scene to run.
    pub scene: ScenePreset,
    /// Target resolution (tile binning runs at this real resolution).
    pub resolution: Resolution,
    /// Number of frames to capture.
    pub frames: usize,
    /// Fraction of the full Gaussian count actually instantiated; counts
    /// in the output are scaled back by `1/scale`. Duplicates, incoming
    /// and outgoing all scale linearly with Gaussian count, so a few
    /// percent suffices for stable statistics.
    pub scale: f64,
    /// Camera-speed multiplier (Figure 17b).
    pub speed: f32,
    /// Cluster-index LOD configuration. `None` (the default) captures
    /// the flat pipeline; `Some` enables cluster culling and proxy
    /// substitution, so projected/duplicate counts reflect the index.
    pub lod: Option<LodConfig>,
}

impl Default for CaptureConfig {
    fn default() -> Self {
        Self {
            scene: ScenePreset::Family,
            resolution: Resolution::Qhd,
            frames: 60,
            scale: 0.01,
            speed: 1.0,
            lod: None,
        }
    }
}

/// Runs the reuse-and-update pipeline on a `scale`-sized build of the
/// scene and returns per-frame workload statistics extrapolated to full
/// scene size.
///
/// Blend operations are estimated from resolution and overdraw
/// ([`neo_sim::BLEND_OVERDRAW`] — measured per-pixel saturation
/// depth), since per-pixel blending is skipped in capture mode.
///
/// # Panics
///
/// Panics when `scale` or `frames` is zero/non-positive.
pub fn capture_workload(cfg: &CaptureConfig) -> Vec<WorkloadFrame> {
    assert!(cfg.scale > 0.0, "capture scale must be positive");
    assert!(cfg.frames > 0, "frame count must be positive");

    let mut renderer_config = RendererConfig::default().without_image();
    if let Some(lod) = cfg.lod {
        renderer_config = renderer_config.with_lod(lod);
    }
    let engine = RenderEngine::builder()
        .scene(cfg.scene.build_scaled(cfg.scale))
        .config(renderer_config)
        .build()
        .expect("default capture config is valid and preset scenes are non-empty");
    let cloud = std::sync::Arc::clone(engine.scene());
    // The resident record the engine's ledger charged per splat read,
    // which the simulator charges per feature fetch.
    let feature_bytes = cloud.record_bytes() as u64;
    let sampler =
        FrameSampler::new(cfg.scene.trajectory(), 30.0, cfg.resolution).with_speed(cfg.speed);
    let mut session = engine.session();
    let inv = 1.0 / cfg.scale;
    let (w, h) = cfg.resolution.dims();
    let pixels = w as u64 * h as u64;

    let mut out = Vec::with_capacity(cfg.frames);
    for i in 0..cfg.frames {
        let cam = sampler.frame(i);
        let fr = session
            .render_frame(&cam)
            .expect("trajectory cameras are well-formed");
        let s = |v: usize| (v as f64 * inv).round() as u64;
        out.push(WorkloadFrame {
            n_gaussians: s(cloud.len()),
            n_projected: s(fr.stats.projected),
            duplicates: s(fr.stats.duplicates),
            occupied_tiles: fr.stats.occupied_tiles as u64,
            pixels,
            incoming: s(fr.incoming),
            outgoing: s(fr.outgoing),
            table_entries: (fr.total_table_entries() as f64 * inv).round() as u64,
            blend_ops: (pixels as f64 * neo_sim::BLEND_OVERDRAW) as u64,
            feature_bytes,
        });
    }
    out
}

/// Mean workload over the steady-state portion of a capture (first frame
/// excluded — it has no table to reuse, so everything is "incoming").
pub fn steady_state_mean(frames: &[WorkloadFrame]) -> WorkloadFrame {
    assert!(!frames.is_empty(), "need at least one frame");
    let body = if frames.len() > 1 {
        &frames[1..]
    } else {
        frames
    };
    let n = body.len() as f64;
    let avg =
        |f: fn(&WorkloadFrame) -> u64| (body.iter().map(f).sum::<u64>() as f64 / n).round() as u64;
    WorkloadFrame {
        n_gaussians: avg(|w| w.n_gaussians),
        n_projected: avg(|w| w.n_projected),
        duplicates: avg(|w| w.duplicates),
        occupied_tiles: avg(|w| w.occupied_tiles),
        pixels: body[0].pixels,
        incoming: avg(|w| w.incoming),
        outgoing: avg(|w| w.outgoing),
        table_entries: avg(|w| w.table_entries),
        blend_ops: avg(|w| w.blend_ops),
        feature_bytes: body[0].feature_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> CaptureConfig {
        CaptureConfig {
            scene: ScenePreset::Horse,
            resolution: Resolution::Custom(640, 360),
            frames: 4,
            scale: 0.002,
            speed: 1.0,
            lod: None,
        }
    }

    #[test]
    fn capture_produces_scaled_counts() {
        let cfg = quick_cfg();
        let frames = capture_workload(&cfg);
        assert_eq!(frames.len(), 4);
        let full_n = ScenePreset::Horse.params().gaussian_count as u64;
        // n_gaussians extrapolates back to ~full scene size.
        let ratio = frames[0].n_gaussians as f64 / full_n as f64;
        assert!((0.8..=1.2).contains(&ratio), "ratio {ratio}");
        assert!(frames[0].duplicates >= frames[0].n_projected);
    }

    #[test]
    fn first_frame_is_all_incoming() {
        let frames = capture_workload(&quick_cfg());
        assert_eq!(frames[0].incoming, frames[0].duplicates);
        // Steady state: small churn.
        assert!(frames[2].incoming < frames[2].duplicates / 4);
    }

    #[test]
    fn shorter_capture_is_a_prefix_of_a_longer_one() {
        let short = capture_workload(&quick_cfg());
        let long = capture_workload(&CaptureConfig {
            frames: 2 * quick_cfg().frames,
            ..quick_cfg()
        });
        assert_eq!(short.as_slice(), &long[..short.len()]);
    }

    #[test]
    fn steady_state_mean_excludes_first_frame() {
        let frames = capture_workload(&quick_cfg());
        let mean = steady_state_mean(&frames);
        assert!(mean.incoming < frames[0].incoming);
        assert_eq!(mean.pixels, frames[0].pixels);
    }

    #[test]
    fn speedup_increases_churn() {
        let slow = capture_workload(&quick_cfg());
        let fast = capture_workload(&CaptureConfig {
            speed: 8.0,
            ..quick_cfg()
        });
        let slow_churn = steady_state_mean(&slow).incoming;
        let fast_churn = steady_state_mean(&fast).incoming;
        assert!(
            fast_churn > slow_churn,
            "8× camera speed must increase churn: {fast_churn} vs {slow_churn}"
        );
    }

    #[test]
    fn lod_capture_never_projects_more_than_flat() {
        let flat = capture_workload(&quick_cfg());
        let lod = capture_workload(&CaptureConfig {
            lod: Some(LodConfig {
                proxy_footprint_px: 0.0,
                ..LodConfig::default()
            }),
            ..quick_cfg()
        });
        for (f, l) in flat.iter().zip(&lod) {
            assert!(
                l.n_projected <= f.n_projected,
                "cull-only LOD must not add projected splats: {} vs {}",
                l.n_projected,
                f.n_projected
            );
        }
    }

    #[test]
    #[should_panic(expected = "capture scale")]
    fn zero_scale_rejected() {
        let _ = capture_workload(&CaptureConfig {
            scale: 0.0,
            ..quick_cfg()
        });
    }
}
