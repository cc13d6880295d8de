//! VR-headset latency budget: can each device render *two* QHD eyes
//! within a 90 Hz (11.1 ms) budget? This is the paper's motivating
//! scenario — per-eye high resolution at headset refresh rates.
//!
//! The budget arithmetic lives in `neo_serve::FrameBudget`, and each
//! device's verdict is cross-checked by actually *scheduling* a 90 Hz
//! session through the `neo-serve` virtual clock with the device's
//! simulated frame time as the injected cost: the printed miss rate must
//! agree with the simple `both_eyes <= budget` comparison.
//!
//! Run: `cargo run --release --example vr_headset_budget`

use neo_core::{RenderEngine, RendererConfig};
use neo_scene::{presets::ScenePreset, Resolution};
use neo_serve::{FixedCost, FrameBudget, RoundRobin, ServeConfig, ServeDriver, SessionSpec};
use neo_sim::devices::{Device, GsCore, NeoDevice, OrinAgx};
use neo_workloads::capture::{capture_workload, steady_state_mean, CaptureConfig};

/// Schedule `frames` frames of one 90 Hz session whose every frame costs
/// `cost_us` virtual microseconds; return the deadline miss rate.
fn serve_miss_rate(driver: &ServeDriver<'_>, budget: FrameBudget, cost_us: u64) -> f64 {
    let spec = SessionSpec {
        id: neo_core::SessionId(0),
        arrival_us: 0,
        frames: 30,
        budget,
        width: 96,
        height: 54,
        start_frame: 0,
        speed: 1.0,
    };
    let report = driver
        .run_virtual(&[spec], &mut RoundRobin::new(), &FixedCost(cost_us))
        .expect("valid single-session workload");
    report.missed_deadlines() as f64 / report.frames_served() as f64
}

fn main() {
    let budget = FrameBudget::from_refresh_hz(90.0);
    let budget_ms = budget.frame_ms();
    println!("VR budget check: 2× QHD eyes @ 90 Hz → {budget_ms:.1} ms per frame pair\n");

    let scene = ScenePreset::Playground;
    let w = steady_state_mean(&capture_workload(&CaptureConfig {
        scene,
        resolution: Resolution::Qhd,
        frames: 20,
        scale: 0.01,
        speed: 1.0,
        ..Default::default()
    }));

    // A tiny engine backs the serve simulation: the cost model is fixed
    // per device, so the rendered frames only drive the schedule shape.
    let engine = RenderEngine::builder()
        .scene(ScenePreset::Playground.build_scaled(0.002))
        .config(RendererConfig::default().with_tile_size(32).without_image())
        .build()
        .expect("valid engine");
    let driver = ServeDriver::new(
        &engine,
        ScenePreset::Playground.trajectory(),
        ServeConfig::default(),
    )
    .expect("valid serve config");

    let orin = OrinAgx::new();
    let gscore = GsCore::scaled_16();
    let neo = NeoDevice::paper_default();
    println!(
        "scene: {} | per-eye workload: {} tile assignments\n",
        scene.name(),
        w.duplicates
    );
    println!(
        "{:<10} {:>12} {:>14} {:>10} {:>10}",
        "device", "per-eye ms", "both eyes ms", "miss rate", "verdict"
    );
    for dev in [&orin as &dyn Device, &gscore, &neo] {
        let t = dev.simulate_frame(&w);
        let per_eye = t.latency_ms();
        let both = per_eye * 2.0;
        let cost_us = (both * 1e3).round() as u64;
        let miss_rate = serve_miss_rate(&driver, budget, cost_us);
        // The scheduled miss rate must agree with the plain comparison:
        // a single 90 Hz session with a fixed per-frame cost misses no
        // deadlines iff the cost fits the budget.
        assert_eq!(
            miss_rate == 0.0,
            cost_us <= budget.deadline_us,
            "serve simulation disagrees with the budget comparison for {}",
            dev.name()
        );
        let verdict = if both <= budget_ms {
            "90 Hz"
        } else if both <= 2.0 * budget_ms {
            "45 Hz"
        } else if both <= 3.0 * budget_ms {
            "30 Hz"
        } else {
            "slideshow"
        };
        println!(
            "{:<10} {:>12.2} {:>14.2} {:>9.0}% {:>10}",
            dev.name(),
            per_eye,
            both,
            miss_rate * 100.0,
            verdict
        );
    }
    println!(
        "\nNeo turns a slideshow into a playable frame rate by removing the\n\
         sorting bottleneck (on the paper's densest scene; lighter scenes reach\n\
         45–90 Hz) — try `cargo run -p neo-bench --bin paper_figures`.\n\
         Multi-session scheduling lives in `neo-serve`; see\n\
         `cargo run -p neo-bench --bin fig_serve`."
    );
}
