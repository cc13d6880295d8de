//! The two single-session stream workloads: `flythrough_raster` and
//! `city_lod_capture`.

use crate::replay::{elapsed_ns, Replay};
use crate::report::Report;
use crate::setup::Setup;
use crate::stats::{median, percentile, quartile_spread, tail_is_resolved};
use crate::trace::{ratio, render, set_layer_metrics, traced_frame, Totals};
use crate::{min_psnr_db, rss_peak_mb, RunArgs};
use neo_core::{FrameResult, LodConfig, RenderEngine, RendererConfig, ShardPlan, StrategyKind};
use neo_scene::presets::ScenePreset;
use neo_scene::synth::CityParams;
use neo_scene::{Camera, CameraPath, FrameSampler, GaussianCloud, Resolution};
use std::time::Instant;

/// One stream workload's fixed inputs.
pub struct Stream {
    scene: Box<dyn Fn() -> GaussianCloud>,
    trajectory: CameraPath,
    resolution: (u32, u32),
    image: bool,
    lod: Option<LodConfig>,
    /// The trajectory ping-pongs over this many frames (a lap is twice
    /// that), so any number of laps stays inside the scene and coherent
    /// from frame to frame. Its `window + 1` cameras are the timed
    /// samples: 101 leave ten beyond p90.
    window: usize,
    /// Minimum timed laps.
    min_laps: usize,
    /// Frames of a fixed camera run whose ReuseUpdate image is compared
    /// with a FullResort render of the same camera.
    psnr_frames: Vec<usize>,
    /// Stream frames compared byte for byte between 1 and 2 shards.
    shard_frames: Vec<usize>,
    /// Traced frames 1..=prefix give the per-layer counts, which must
    /// repeat exactly; later traced frames only add to the times.
    prefix: usize,
}

/// Building preset at 10.8k splats, 640×360, image on: the render loop
/// of an AR/VR device, bound by rasterization.
pub fn flythrough(smoke: bool) -> Stream {
    Stream {
        scene: Box::new(|| ScenePreset::Building.build_scaled(0.002)),
        trajectory: ScenePreset::Building.trajectory(),
        resolution: if smoke { (160, 90) } else { (640, 360) },
        image: true,
        lod: None,
        window: if smoke { 4 } else { 100 },
        min_laps: if smoke { 2 } else { 3 },
        psnr_frames: if smoke { vec![4] } else { vec![10, 20, 30, 40] },
        shard_frames: if smoke { vec![4] } else { vec![12, 24, 36, 48] },
        prefix: if smoke { 4 } else { 64 },
    }
}

/// City preset at 64× (307k splats) with cluster LOD, image off: the
/// capture mode that feeds the device models, bound by projection/LOD
/// and sorting.
pub fn city(smoke: bool) -> Stream {
    let params = if smoke {
        CityParams {
            splats_per_block: 150,
            ..CityParams::default().scaled(4.0)
        }
    } else {
        CityParams {
            splats_per_block: 300,
            ..CityParams::default().scaled(64.0)
        }
    };
    Stream {
        trajectory: params.trajectory(),
        scene: Box::new(move || params.build()),
        resolution: if smoke { (160, 90) } else { (640, 360) },
        image: false,
        lod: Some(LodConfig {
            cluster_size: 128,
            proxy_footprint_px: 96.0,
        }),
        window: if smoke { 4 } else { 100 },
        min_laps: if smoke { 2 } else { 3 },
        psnr_frames: if smoke { vec![4] } else { vec![8, 16] },
        shard_frames: Vec::new(),
        prefix: if smoke { 4 } else { 64 },
    }
}

/// Camera of stream frame `k`: a ping-pong over `window` frames from a
/// seed-chosen trajectory frame.
struct Cameras {
    sampler: FrameSampler,
    start: usize,
    window: usize,
}

impl Cameras {
    fn new(w: &Stream, seed: u64) -> Self {
        let (width, height) = w.resolution;
        Self {
            sampler: FrameSampler::new(
                w.trajectory.clone(),
                30.0,
                Resolution::Custom(width, height),
            ),
            start: (seed % 4) as usize,
            window: w.window,
        }
    }

    /// Which of the window's cameras stream frame `k` shows.
    fn offset(&self, k: usize) -> usize {
        let c = k % (2 * self.window);
        if c <= self.window {
            c
        } else {
            2 * self.window - c
        }
    }

    fn at(&self, k: usize) -> Camera {
        self.sampler.frame(self.start + self.offset(k))
    }
}

impl Stream {
    fn engine(&self, scene: GaussianCloud, kind: StrategyKind, image: bool) -> RenderEngine {
        let mut config = RendererConfig::default().with_tile_size(32);
        if !image {
            config = config.without_image();
        }
        if let Some(lod) = self.lod {
            config = config.with_lod(lod);
        }
        RenderEngine::builder()
            .scene(scene)
            .config(config)
            .strategy(kind)
            .build()
            .expect("benchmark configuration is valid")
    }

    fn setup(&self) -> Setup {
        Setup::run(&self.scene, |scene| {
            self.engine(scene, StrategyKind::ReuseUpdate, self.image)
        })
    }

    /// Min PSNR of ReuseUpdate against an exact FullResort sort on the
    /// `psnr_frames` of a fixed, seed-independent camera run (image on,
    /// outside any timing).
    fn quality(&self, report: &mut Report) -> f64 {
        let cams = Cameras::new(self, 0);
        let reuse_engine = self.engine((self.scene)(), StrategyKind::ReuseUpdate, true);
        let exact_engine = self.engine((self.scene)(), StrategyKind::FullResort, true);
        let (mut reuse_session, mut exact_session) =
            (reuse_engine.session(), exact_engine.session());
        let (mut reuse, mut exact) = (Vec::new(), Vec::new());
        let last = self.psnr_frames.iter().copied().max().unwrap_or(0);
        for k in 0..=last {
            let fr = render(&mut reuse_session, &cams.at(k), report);
            if self.psnr_frames.contains(&k) {
                reuse.extend(fr.and_then(|f| f.image));
                exact.extend(render(&mut exact_session, &cams.at(k), report).and_then(|f| f.image));
            }
        }
        report.check(reuse.len() == self.psnr_frames.len(), || {
            "missing quality frames".into()
        });
        min_psnr_db(&reuse, &exact)
    }
}

/// Untraced run: the end-to-end metrics.
pub fn run(w: &Stream, args: &RunArgs, report: &mut Report) {
    let setup = w.setup();
    let engine = &setup.engine;
    let cams = Cameras::new(w, args.seed);
    let mut session = engine.session();
    let mut kept: Vec<(usize, FrameResult)> = Vec::new();
    render(&mut session, &cams.at(0), report);

    // The stream runs whole laps, at least `min_laps`. A lap visits each
    // of the window's cameras twice (once each way), and each camera's
    // time is its fastest visit: much host interference comes in bursts
    // shorter than a lap and rarely hits a camera on every visit, while a
    // code change slows every visit alike.
    let lap = 2 * w.window;
    let mut best_ms = vec![f64::INFINITY; w.window + 1];
    let started = Instant::now();
    let mut k = 0;
    while !(k >= w.min_laps * lap && k % lap == 0 && started.elapsed() >= args.duration) {
        k += 1;
        let t = Instant::now();
        let fr = session.render_frame(&cams.at(k));
        let ms = elapsed_ns(t) as f64 / 1e6;
        let best = &mut best_ms[cams.offset(k)];
        *best = best.min(ms);
        report.check(fr.is_ok(), || format!("frame {k} failed"));
        if let Ok(fr) = fr {
            if w.shard_frames.contains(&k) {
                kept.push((k, fr));
            }
        }
    }
    let cameras = best_ms.len();
    report.set("fps", cameras as f64 * 1e3 / best_ms.iter().sum::<f64>());
    report.set("frame_ms_p50", median(&best_ms));
    // A closed-loop stream's frame is due when the previous one finishes.
    report.set("latency_ms_p50", median(&best_ms));
    report.set("frame_ms_p90", percentile(&best_ms, 90.0));
    report.check(args.smoke || tail_is_resolved(cameras, 90.0), || {
        format!("only {cameras} cameras: p90 is unresolved")
    });
    eprintln!(
        "{k} timed frames in {} laps; frame-time spread over the cameras (IQR/median) {:.3}",
        k / lap,
        quartile_spread(&best_ms).unwrap_or(0.0)
    );

    // Memory peaks before the checks below build engines of their own.
    report.set("peak_rss_mb", rss_peak_mb());

    // Quality guard: ReuseUpdate against an exact sort.
    let psnr = w.quality(report);
    report.set("psnr_db", psnr);

    // Determinism: sampled frames are byte-identical on 2 shards.
    if let Some(last) = w.shard_frames.iter().copied().max() {
        let mut sharded = engine.session();
        for k in 0..=last {
            let fr = sharded.render_frame_with_plan(&cams.at(k), &ShardPlan::balanced(2));
            if w.shard_frames.contains(&k) {
                let serial = kept.iter().find(|(i, _)| *i == k).map(|(_, f)| f);
                let same = matches!((&fr, serial), (Ok(a), Some(b)) if a == b);
                report.check(same, || format!("frame {k} differs between 1 and 2 shards"));
            }
        }
    }

    report.set("setup_s", setup.total_s());
}

/// Traced run: the per-layer metrics.
pub fn run_traced(w: &Stream, args: &RunArgs, report: &mut Report) {
    let setup = w.setup();
    let engine = &setup.engine;
    report.set("setup.scene_s", setup.scene_s());
    report.set("setup.engine_s", setup.engine_s());
    let cams = Cameras::new(w, args.seed);
    let mut session = engine.session();
    let mut replay = Replay::new(engine.config().clone(), StrategyKind::ReuseUpdate);

    // Frame 0 is the warm-up: checked, not counted.
    let first = traced_frame(
        engine,
        &mut session,
        &mut replay,
        &cams.at(0),
        report,
        &mut [],
    );
    let (mut all, mut prefix) = (Totals::default(), Totals::default());
    let started = Instant::now();
    let mut k = 0;
    while !(k >= w.prefix && started.elapsed() >= args.duration) {
        k += 1;
        let cam = cams.at(k);
        let into: &mut [&mut Totals] = if k <= w.prefix {
            &mut [&mut all, &mut prefix]
        } else {
            &mut [&mut all]
        };
        traced_frame(engine, &mut session, &mut replay, &cam, report, into);
    }
    set_layer_metrics(report, &all, &prefix);

    // The counts repeat exactly: a fresh session renders frame 0 alike.
    let again = engine.session().render_frame(&cams.at(0));
    report.check(
        matches!((&again, &first), (Ok(a), Some(b)) if a == b),
        || "a fresh session rendered frame 0 differently".into(),
    );

    // Side phase: the first frames on 1 and on 2 shards, byte-identical.
    if !w.shard_frames.is_empty() {
        let (mut serial, mut sharded) = (engine.session(), engine.session());
        let (mut serial_ns, mut sharded_ns) = (0u64, 0u64);
        for k in 0..=w.prefix {
            let cam = cams.at(k);
            let t = Instant::now();
            let a = serial.render_frame(&cam);
            let a_ns = elapsed_ns(t);
            let t = Instant::now();
            let b = sharded.render_frame_with_plan(&cam, &ShardPlan::balanced(2));
            let b_ns = elapsed_ns(t);
            if k > 0 {
                serial_ns += a_ns;
                sharded_ns += b_ns;
            }
            report.check(matches!((&a, &b), (Ok(a), Ok(b)) if a == b), || {
                format!("frame {k} differs between 1 and 2 shards")
            });
        }
        report.set(
            "core.shard_speedup_2t",
            ratio(serial_ns as f64, sharded_ns as f64),
        );
    }
}
