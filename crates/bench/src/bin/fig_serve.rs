//! Multi-session serving figure: 300 sessions offered to one engine
//! under two schedulers (round-robin, EDF), reporting sessions ×
//! throughput × p99 latency, plus the determinism shape checks the
//! serving layer promises — virtual-clock schedule traces byte-identical
//! across repeat runs and across engine thread counts.
//!
//! Virtual-clock runs give the reproducible scheduler comparison; one
//! real-clock round-robin run at the end reports measured throughput on
//! this host, with each frame's latency split into queue wait and render
//! time (nonreproducible by nature, excluded from shape checks).
//!
//! Run: `cargo run --release -p neo-bench --bin fig_serve`

use neo_bench::{ExperimentRecord, TextTable};
use neo_core::{RenderEngine, RendererConfig};
use neo_scene::presets::ScenePreset;
use neo_serve::{
    AdmissionConfig, DeadlineEdf, RoundRobin, Scheduler, ServeConfig, ServeDriver, ServeReport,
    WorkUnitsCost, WorkloadSpec,
};
/// Offered sessions; admission caps active at 220, queues 40, and
/// rejects the rest, so the figure exercises every admission outcome
/// while still driving 200+ concurrent sessions.
const OFFERED: u32 = 300;
const MAX_ACTIVE: usize = 220;
const QUEUE_BOUND: usize = 40;
const TILE: u32 = 32;

fn engine(threads: u32) -> RenderEngine {
    let mut config = RendererConfig::default()
        .with_tile_size(TILE)
        .without_image();
    if threads > 1 {
        config = config.with_threads(threads);
    }
    RenderEngine::builder()
        .scene(ScenePreset::Family.build_scaled(0.002))
        .config(config)
        .build()
        .expect("figure configuration is valid")
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        admission: AdmissionConfig {
            max_active: MAX_ACTIVE,
            queue_bound: QUEUE_BOUND,
        },
        ..ServeConfig::default()
    }
}

fn workload() -> WorkloadSpec {
    WorkloadSpec {
        sessions: OFFERED,
        seed: 0xC0FFEE,
        frames: (3, 6),
        refresh_choices: vec![30.0, 60.0, 90.0],
        resolutions: vec![(128, 72), (160, 96)],
        arrival_spread_us: 50_000,
        // Generous slack: this figure compares throughput and tail
        // latency, not schedulability margins.
        deadline_slack_pct: 400,
    }
}

fn run_virtual(eng: &RenderEngine, scheduler: &mut dyn Scheduler) -> ServeReport {
    let specs = workload().generate().expect("valid workload");
    let driver =
        ServeDriver::new(eng, ScenePreset::Family.trajectory(), serve_config()).expect("config");
    driver
        .run_virtual(&specs, scheduler, &WorkUnitsCost::default())
        .expect("serve run completes")
}

/// Nearest-rank percentile `p` of per-frame microsecond samples, in ms.
fn percentile_ms(samples_us: impl Iterator<Item = u64>, p: f64) -> f64 {
    let samples: Vec<usize> = samples_us
        .map(|us| usize::try_from(us).unwrap_or(usize::MAX))
        .collect();
    neo_sort::stats::percentile(&samples, p) as f64 / 1e3
}

fn main() {
    println!(
        "fig_serve: {OFFERED} sessions offered (max_active {MAX_ACTIVE}, queue {QUEUE_BOUND}), \
         '{}' scene, virtual clock\n",
        ScenePreset::Family.name()
    );

    let eng = engine(1);
    let rr = run_virtual(&eng, &mut RoundRobin::new());
    let edf = run_virtual(&eng, &mut DeadlineEdf::new());

    let mut table = TextTable::new([
        "scheduler",
        "admitted",
        "rejected",
        "frames",
        "ticks",
        "fps",
        "p99 ms",
        "misses",
    ]);
    let runs = [&rr, &edf];
    for r in runs {
        table.row([
            r.scheduler.clone(),
            r.admission.admitted.to_string(),
            r.admission.rejected.to_string(),
            r.frames_served().to_string(),
            r.ticks.to_string(),
            format!("{:.0}", r.aggregate_fps()),
            format!("{:.2}", r.p99_latency_us() as f64 / 1e3),
            r.missed_deadlines().to_string(),
        ]);
    }
    println!("{}", table.render());

    // Shape checks. 1: the figure actually drives 200+ concurrent
    // sessions and exercises rejection.
    for r in runs {
        assert!(
            r.admission.peak_active >= 200,
            "{}: peak_active {} never reached 200 concurrent sessions",
            r.scheduler,
            r.admission.peak_active
        );
        assert!(
            r.admission.rejected > 0,
            "{}: workload never exercised rejection",
            r.scheduler
        );
        assert_eq!(
            r.admission.offered,
            r.admission.admitted + r.admission.rejected,
            "{}: admission counters do not balance",
            r.scheduler
        );
    }

    // 2: repeat-run byte-identity of the schedule trace.
    let rr_again = run_virtual(&eng, &mut RoundRobin::new());
    let repeat_identical = rr_again.trace.canonical_bytes() == rr.trace.canonical_bytes();

    // 3: thread-count invariance — a 4-thread engine must produce the
    // byte-identical schedule (costs are functions of shard-invariant
    // frame results, so the whole trace is parallelism-invariant).
    let rr_threads = run_virtual(&engine(4), &mut RoundRobin::new());
    let threads_identical = rr_threads.trace.canonical_bytes() == rr.trace.canonical_bytes();

    println!(
        "shape check: repeat-run trace identity: {} | 1-vs-4-thread trace identity: {}",
        if repeat_identical { "PASS" } else { "FAIL" },
        if threads_identical { "PASS" } else { "FAIL" },
    );
    assert!(repeat_identical, "virtual-clock trace changed across runs");
    assert!(
        threads_identical,
        "virtual-clock trace changed with engine thread count"
    );

    // Real-clock measurement on this host (reporting only — wall-clock
    // latency is machine-dependent and never shape-checked).
    let specs = workload().generate().expect("valid workload");
    let pool = engine(4);
    let driver =
        ServeDriver::new(&pool, ScenePreset::Family.trajectory(), serve_config()).expect("config");
    let real = driver
        .run_real_clock(&specs, &mut RoundRobin::new())
        .expect("real-clock run completes");
    // Latency = queue wait (release to render start) + render time.
    let events = &real.trace.events;
    let wait = |p| {
        percentile_ms(
            events
                .iter()
                .map(|e| e.start_us.saturating_sub(e.release_us)),
            p,
        )
    };
    let render = |p| percentile_ms(events.iter().map(|e| e.cost_us), p);
    let modeled = |p| percentile_ms(rr.trace.events.iter().map(|e| e.cost_us), p);
    println!(
        "\nreal clock (4 threads, round-robin): {} frames in {:.1} ms wall, {:.0} fps, p99 {:.2} ms\n  \
         queue wait p50/p99 {:.2}/{:.2} ms | render p50/p99 {:.2}/{:.2} ms \
         (virtual cost p50/p99 {:.2}/{:.2} ms)",
        real.frames_served(),
        real.makespan_us as f64 / 1e3,
        real.aggregate_fps(),
        real.p99_latency_us() as f64 / 1e3,
        wait(50.0),
        wait(99.0),
        render(50.0),
        render(99.0),
        modeled(50.0),
        modeled(99.0),
    );

    let mut record = ExperimentRecord::new(
        "fig_serve",
        "Multi-session serving: 300 offered sessions under round-robin and EDF schedulers on the \
         virtual clock, plus a real-clock throughput measurement with its queue-wait and render \
         tails",
    );
    record.push_series("sessions_offered", vec![f64::from(OFFERED); runs.len()]);
    record.push_series(
        "sessions_admitted",
        runs.iter().map(|r| r.admission.admitted as f64).collect(),
    );
    record.push_series(
        "sessions_rejected",
        runs.iter().map(|r| r.admission.rejected as f64).collect(),
    );
    record.push_series("fps", runs.iter().map(|r| r.aggregate_fps()).collect());
    record.push_series(
        "p99_latency_ms",
        runs.iter()
            .map(|r| r.p99_latency_us() as f64 / 1e3)
            .collect(),
    );
    record.push_series(
        "missed_deadlines",
        runs.iter().map(|r| r.missed_deadlines() as f64).collect(),
    );
    record.push_series(
        "scheduler_ticks",
        runs.iter().map(|r| r.ticks as f64).collect(),
    );
    record.push_series("real_clock_fps", vec![real.aggregate_fps()]);
    record.push_series(
        "real_clock_p99_ms",
        vec![real.p99_latency_us() as f64 / 1e3],
    );
    record.push_series("real_clock_wait_p99_ms", vec![wait(99.0)]);
    record.push_series("real_clock_render_p99_ms", vec![render(99.0)]);
    match record.save() {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not persist results: {e}"),
    }
}
