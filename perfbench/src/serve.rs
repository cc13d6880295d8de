//! The `serve_sessions` workload: many short sessions through
//! `neo-serve`'s real-clock driver, first offered at a fixed absolute
//! rate (open loop), then all released at once to measure capacity.

use crate::replay::Replay;
use crate::report::Report;
use crate::setup::Setup;
use crate::stats::{median, percentile, tail_is_resolved};
use crate::trace::{ratio, render, set_layer_metrics, traced_frame, Totals};
use crate::{min_psnr_db, rss_peak_mb, RunArgs};
use neo_core::{RenderEngine, RendererConfig, SessionId, StrategyKind};
use neo_pipeline::Image;
use neo_scene::presets::ScenePreset;
use neo_scene::{FrameSampler, GaussianCloud, Resolution};
use neo_serve::{
    AdmissionConfig, DeadlineEdf, FrameBudget, ServeConfig, ServeDriver, ServeReport, SessionSpec,
    WorkloadSpec,
};
use std::collections::BTreeMap;

/// Sessions offered per second of the open loop's arrival window.
const ARRIVALS_PER_S: f64 = 2.5;
/// Rounds of plays in an untraced run.
const ROUNDS: usize = 3;

fn engine_over(scene: GaussianCloud, kind: StrategyKind, image: bool) -> RenderEngine {
    let mut config = RendererConfig::default().with_tile_size(32);
    if !image {
        config = config.without_image();
    }
    RenderEngine::builder()
        .scene(scene)
        .config(config)
        .strategy(kind)
        .build()
        .expect("benchmark configuration is valid")
}

const RESOLUTIONS: [(u32, u32); 3] = [(128, 72), (160, 96), (320, 180)];

/// The offered sessions: arrivals spread over a sixth of the run, 30–90
/// frames each at 30/60/90 Hz, at three resolutions, all from `seed`.
fn sessions(args: &RunArgs) -> Vec<SessionSpec> {
    let spread_s = if args.smoke {
        0.1
    } else {
        args.duration.as_secs_f64() / 6.0
    };
    let mut specs = WorkloadSpec {
        sessions: if args.smoke {
            3
        } else {
            3 * (ARRIVALS_PER_S * spread_s / 3.0).round().max(1.0) as u32
        },
        seed: args.seed,
        frames: if args.smoke { (3, 6) } else { (30, 90) },
        refresh_choices: vec![30.0, 60.0, 90.0],
        resolutions: RESOLUTIONS.to_vec(),
        arrival_spread_us: (spread_s * 1e6) as u64,
        deadline_slack_pct: 100,
    }
    .generate()
    .expect("valid workload");
    // Sessions come in groups of three, one per resolution, sharing the
    // group's frame count: every resolution gets the same share of the
    // frames, so the time percentiles do not jump between resolutions
    // from seed to seed.
    let group_frames: BTreeMap<u32, u32> = specs
        .iter()
        .filter(|s| s.id.0 % 3 == 0)
        .map(|s| (s.id.0, s.frames))
        .collect();
    for s in &mut specs {
        (s.width, s.height) = RESOLUTIONS[s.id.0 as usize % 3];
        s.frames = group_frames[&(s.id.0 - s.id.0 % 3)];
    }
    specs
}

/// The same sessions all arriving at t=0 with every frame released at
/// once: the driver never idles, so frames per second is capacity.
fn saturating(specs: &[SessionSpec]) -> Vec<SessionSpec> {
    specs
        .iter()
        .map(|s| SessionSpec {
            arrival_us: 0,
            budget: FrameBudget::from_period_us(1),
            ..s.clone()
        })
        .collect()
}

fn serve(engine: &RenderEngine, specs: &[SessionSpec], report: &mut Report) -> Option<ServeReport> {
    let config = ServeConfig {
        admission: AdmissionConfig {
            max_active: 64,
            queue_bound: 64,
        },
        ..ServeConfig::default()
    };
    let driver = ServeDriver::new(engine, ScenePreset::Family.trajectory(), config)
        .expect("valid serve configuration");
    let run = driver.run_real_clock(specs, &mut DeadlineEdf::new());
    report.check(run.is_ok(), || {
        format!("serve run failed: {:?}", run.as_ref().err())
    });
    let run = run.ok()?;
    check_accounting(&run, specs, report);
    Some(run)
}

/// Every offered session is admitted or refused, none is refused, and
/// every admitted session gets every frame it asked for.
fn check_accounting(run: &ServeReport, specs: &[SessionSpec], report: &mut Report) {
    let a = &run.admission;
    report.check(
        a.offered == a.admitted + a.rejected && a.offered as usize == specs.len(),
        || format!("admission does not balance: {a:?}"),
    );
    for spec in specs {
        let done = run.sessions.iter().find(|s| s.id == spec.id);
        report.check(
            done.is_some_and(|s| s.frames_completed == spec.frames),
            || format!("session {} was refused or not fully served", spec.id),
        );
    }
    let requested: u64 = run
        .sessions
        .iter()
        .map(|s| u64::from(s.frames_requested))
        .sum();
    report.check(run.frames_served() == requested, || {
        format!(
            "{} frames served of {requested} admitted",
            run.frames_served()
        )
    });
}

fn setup() -> Setup {
    Setup::run(
        || ScenePreset::Family.build_scaled(0.002),
        |scene| engine_over(scene, StrategyKind::ReuseUpdate, false),
    )
}

fn sampler(spec: &SessionSpec) -> FrameSampler {
    FrameSampler::new(
        ScenePreset::Family.trajectory(),
        30.0,
        Resolution::Custom(spec.width, spec.height),
    )
    .with_speed(spec.speed)
}

/// Min PSNR of a fixed 160×96 camera run's ReuseUpdate frames against
/// FullResort renders of the same cameras, every `every`-th frame (image
/// on, outside any timing, independent of the seed).
fn quality(frames: usize, every: usize, report: &mut Report) -> f64 {
    let engine = |kind| engine_over(ScenePreset::Family.build_scaled(0.002), kind, true);
    let (reuse_engine, exact_engine) = (
        engine(StrategyKind::ReuseUpdate),
        engine(StrategyKind::FullResort),
    );
    let (mut reuse_session, mut exact_session) = (reuse_engine.session(), exact_engine.session());
    let cams = FrameSampler::new(
        ScenePreset::Family.trajectory(),
        30.0,
        Resolution::Custom(160, 96),
    );
    let (mut reuse, mut exact): (Vec<Image>, Vec<Image>) = (Vec::new(), Vec::new());
    for k in 0..frames {
        let cam = cams.frame(k);
        let fr = render(&mut reuse_session, &cam, report);
        if k > 0 && k % every == 0 {
            reuse.extend(fr.and_then(|f| f.image));
            exact.extend(render(&mut exact_session, &cam, report).and_then(|f| f.image));
        }
    }
    report.check(!reuse.is_empty() && reuse.len() == exact.len(), || {
        "missing quality frames".into()
    });
    min_psnr_db(&reuse, &exact)
}

/// Untraced run: the end-to-end metrics.
pub fn run(args: &RunArgs, report: &mut Report) {
    let setup = setup();
    let engine = &setup.engine;
    let specs = sessions(args);
    // Rounds of one open-loop play and two saturated plays, interleaved
    // so that every kind of play samples the whole run. Each frame keeps
    // its lowest latency and render time over the plays, and capacity is
    // the best play's: host interference comes in bursts and rarely hits
    // a frame in every play, while a code change slows every play alike.
    let saturated = saturating(&specs);
    let mut best: BTreeMap<(SessionId, u32), (u64, u64)> = BTreeMap::new();
    let mut capacity = 0.0f64;
    for _ in 0..ROUNDS {
        if let Some(open) = serve(engine, &specs, report) {
            for e in &open.trace.events {
                let b = best
                    .entry((e.session, e.frame))
                    .or_insert((u64::MAX, u64::MAX));
                *b = (b.0.min(e.latency_us()), b.1.min(e.cost_us));
            }
        }
        for _ in 0..2 {
            if let Some(sat) = serve(engine, &saturated, report) {
                capacity = capacity.max(sat.aggregate_fps());
            }
        }
    }
    let latency_ms: Vec<f64> = best.values().map(|b| b.0 as f64 / 1e3).collect();
    let render_ms: Vec<f64> = best.values().map(|b| b.1 as f64 / 1e3).collect();
    report.set("fps", capacity);
    report.set("latency_ms_p50", median(&latency_ms));
    report.set("frame_ms_p50", median(&render_ms));
    report.set("frame_ms_p90", percentile(&render_ms, 90.0));
    report.check(
        args.smoke || tail_is_resolved(render_ms.len(), 90.0),
        || format!("only {} frames: p90 is unresolved", render_ms.len()),
    );
    // Memory peaks before the quality check builds engines of its own.
    report.set("peak_rss_mb", rss_peak_mb());
    let psnr = if args.smoke {
        quality(6, 2, report)
    } else {
        quality(60, 10, report)
    };
    report.set("psnr_db", psnr);
    report.set("setup_s", setup.total_s());
}

/// Traced run: the serve layer's own metrics from the open loop, then the
/// per-stage split from replaying every even-numbered session's frames.
pub fn run_traced(args: &RunArgs, report: &mut Report) {
    let setup = setup();
    let engine = &setup.engine;
    report.set("setup.scene_s", setup.scene_s());
    report.set("setup.engine_s", setup.engine_s());
    let specs = sessions(args);
    if let Some(open) = serve(engine, &specs, report) {
        let events = &open.trace.events;
        let ms = |us: u64| us as f64 / 1e3;
        let render_ms: Vec<f64> = events.iter().map(|e| ms(e.cost_us)).collect();
        let wait_ms: Vec<f64> = events
            .iter()
            .map(|e| ms(e.start_us.saturating_sub(e.release_us)))
            .collect();
        let latency_ms: Vec<f64> = events.iter().map(|e| ms(e.latency_us())).collect();
        let lag_ms = open
            .sessions
            .iter()
            .filter_map(|s| {
                let spec = specs.iter().find(|p| p.id == s.id)?;
                Some(ms(s.activated_us.saturating_sub(spec.arrival_us)))
            })
            .fold(0.0, f64::max);
        report.set("serve.render_ms_p50", median(&render_ms));
        report.set("serve.queue_wait_ms_p50", median(&wait_ms));
        report.set("serve.queue_wait_ms_p99", percentile(&wait_ms, 99.0));
        report.set("serve.latency_ms_p99", percentile(&latency_ms, 99.0));
        report.set("serve.admission_lag_ms_max", lag_ms);
        report.set(
            "serve.deadline_met_share",
            1.0 - ratio(open.missed_deadlines() as f64, events.len() as f64),
        );
        report.set("serve.sessions_rejected", open.admission.rejected as f64);
        report.set("serve.peak_active", open.admission.peak_active as f64);
        report.set(
            "serve.frames_per_tick",
            ratio(open.frames_served() as f64, open.ticks as f64),
        );
    }

    // Per-stage split: each replayed session is a fresh engine session
    // paired with a fresh replay, as the driver mints them. The replayed
    // set is fixed by the seed, so every frame counts toward the counts.
    let mut totals = Totals::default();
    for spec in specs.iter().filter(|s| s.id.0 % 2 == 0) {
        let cams = sampler(spec);
        let mut session = engine.session_with_id(spec.id);
        let mut replay = Replay::new(engine.config().clone(), StrategyKind::ReuseUpdate);
        for k in 0..spec.frames {
            let cam = cams.frame((spec.start_frame + k) as usize);
            traced_frame(
                engine,
                &mut session,
                &mut replay,
                &cam,
                report,
                &mut [&mut totals],
            );
        }
    }
    set_layer_metrics(report, &totals, &totals);
}
