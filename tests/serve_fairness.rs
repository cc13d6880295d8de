//! Fairness and isolation properties of the `neo-serve` layer.
//!
//! * **No starvation** — under 10:1 skewed demand, round-robin serves
//!   every admitted session within a bounded number of scheduler ticks
//!   (the active-set size), and every admitted session completes.
//! * **Admission accounting** — rejection statistics balance exactly:
//!   `offered == admitted + rejected`, and the rejected-id list matches
//!   the counter.

use neo_core::{RenderEngine, RendererConfig, SessionId};
use neo_scene::presets::ScenePreset;
use neo_serve::{
    AdmissionConfig, FixedCost, FrameBudget, RoundRobin, ServeConfig, ServeDriver, SessionSpec,
};

fn engine() -> RenderEngine {
    RenderEngine::builder()
        .scene(ScenePreset::Family.build_scaled(0.002))
        .config(RendererConfig::default().with_tile_size(16).without_image())
        .build()
        .expect("test configuration is valid")
}

fn spec(id: u32, frames: u32) -> SessionSpec {
    SessionSpec {
        id: SessionId(id),
        arrival_us: 0,
        frames,
        // Frames release every 1 ms but each costs 5 ms, so every session
        // stays backlogged the whole run; deadlines are irrelevant here.
        budget: FrameBudget::from_period_us(1_000).with_deadline_us(1_000_000),
        width: 64,
        height: 36,
        start_frame: id * 3,
        speed: 1.0,
    }
}

#[test]
fn skewed_demand_starves_no_session() {
    // One heavy session demands 10x the frames of each of seven light
    // sessions; all are permanently backlogged.
    let mut specs = vec![spec(0, 40)];
    specs.extend((1..8).map(|i| spec(i, 4)));
    let eng = engine();
    let driver = ServeDriver::new(
        &eng,
        ScenePreset::Family.trajectory(),
        ServeConfig::default(),
    )
    .expect("valid config");
    let report = driver
        .run_virtual(&specs, &mut RoundRobin::new(), &FixedCost(5_000))
        .expect("serve run completes");

    assert_eq!(report.admission.admitted, 8);
    assert_eq!(report.sessions.len(), 8);
    let active_bound = report.admission.peak_active as u64;
    for s in &report.sessions {
        // Round-robin progress guarantee: while a session is backlogged,
        // at most one serve of every other active session separates its
        // consecutive serves.
        assert!(
            s.max_tick_gap() <= active_bound,
            "session {} waited {} ticks (active bound {})",
            s.id,
            s.max_tick_gap(),
            active_bound
        );
        assert_eq!(
            s.frames_completed, s.frames_requested,
            "session {} starved",
            s.id
        );
    }
    // The heavy session got its 10x demand served, not just the light ones.
    let heavy = &report.sessions[0];
    assert_eq!(heavy.id, SessionId(0));
    assert_eq!(heavy.frames_completed, 40);
}

#[test]
fn rejection_statistics_balance_exactly() {
    let specs: Vec<SessionSpec> = (0..12).map(|i| spec(i, 2)).collect();
    let eng = engine();
    let driver = ServeDriver::new(
        &eng,
        ScenePreset::Family.trajectory(),
        ServeConfig {
            admission: AdmissionConfig {
                max_active: 2,
                queue_bound: 3,
            },
            ..ServeConfig::default()
        },
    )
    .expect("valid config");
    let report = driver
        .run_virtual(&specs, &mut RoundRobin::new(), &FixedCost(1_000))
        .expect("serve run completes");

    // All 12 arrive at t=0 against capacity 2 + 3: exactly 5 admitted.
    assert_eq!(report.admission.offered, 12);
    assert_eq!(report.admission.admitted, 5);
    assert_eq!(report.admission.rejected, 7);
    assert_eq!(
        report.admission.offered,
        report.admission.admitted + report.admission.rejected
    );
    assert_eq!(report.rejected.len() as u64, report.admission.rejected);
    assert_eq!(report.sessions.len() as u64, report.admission.admitted);
    assert!(report.admission.peak_active <= 2);
    assert!(report.admission.peak_queue <= 3);
}
