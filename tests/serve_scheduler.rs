//! Property suite for the `neo-serve` scheduling layer.
//!
//! Three contracts, property-tested over seeded random workloads, and
//! the driver's fallback for picks outside the ready set:
//!
//! 1. **Trace determinism** — the virtual-clock schedule trace is a pure
//!    function of `(workload spec, seed, scheduler)`: byte-identical
//!    across repeat runs and across `Parallelism::Serial` vs
//!    `Parallelism::Threads(4)` engines.
//! 2. **EDF dominance** — on any workload where round-robin (a
//!    non-idling, non-preemptive policy) meets every deadline, EDF meets
//!    every deadline too: non-preemptive EDF is optimal among non-idling
//!    non-preemptive single-server schedulers.
//! 3. **Admission bounds** — the wait queue never exceeds its bound and
//!    the active set never exceeds its capacity, for any workload and
//!    any (valid) admission configuration.

use neo_core::{RenderEngine, RendererConfig, SessionId};
use neo_scene::presets::ScenePreset;
use neo_serve::{
    AdmissionConfig, DeadlineEdf, RoundRobin, Scheduler, ServeConfig, ServeDriver, ServeReport,
    SessionView, WorkUnitsCost, WorkloadSpec,
};
use proptest::prelude::*;

fn engine(threads: u32) -> RenderEngine {
    let mut config = RendererConfig::default().with_tile_size(16).without_image();
    if threads > 1 {
        config = config.with_threads(threads);
    }
    RenderEngine::builder()
        .scene(ScenePreset::Family.build_scaled(0.002))
        .config(config)
        .build()
        .expect("test configuration is valid")
}

/// Small, fast workloads: tiny resolutions, a handful of sessions.
fn workload(sessions: u32, seed: u64, slack_pct: u32) -> WorkloadSpec {
    WorkloadSpec {
        sessions,
        seed,
        frames: (2, 4),
        refresh_choices: vec![30.0, 60.0, 90.0],
        resolutions: vec![(64, 36), (96, 54)],
        arrival_spread_us: 30_000,
        deadline_slack_pct: slack_pct,
    }
}

fn run(
    eng: &RenderEngine,
    spec: &WorkloadSpec,
    scheduler: &mut dyn Scheduler,
    config: ServeConfig,
    cost: &WorkUnitsCost,
) -> ServeReport {
    let sessions = spec.generate().expect("valid workload");
    ServeDriver::new(eng, ScenePreset::Family.trajectory(), config)
        .expect("valid config")
        .run_virtual(&sessions, scheduler, cost)
        .expect("serve run completes")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Contract 1: byte-identical traces across repeat runs and across
    /// engine thread counts, for every built-in scheduler.
    #[test]
    fn virtual_traces_are_thread_and_run_invariant(
        sessions in 2u32..6,
        seed in 0u64..1_000,
    ) {
        let spec = workload(sessions, seed, 200);
        let config = ServeConfig::default();
        let cost = WorkUnitsCost::default();
        let serial = engine(1);
        let threaded = engine(4);
        let make: [fn() -> Box<dyn Scheduler>; 2] = [
            || Box::new(RoundRobin::new()),
            || Box::new(DeadlineEdf::new()),
        ];
        for mk in make {
            let a = run(&serial, &spec, mk().as_mut(), config, &cost);
            let b = run(&serial, &spec, mk().as_mut(), config, &cost);
            let c = run(&threaded, &spec, mk().as_mut(), config, &cost);
            prop_assert_eq!(
                a.trace.canonical_bytes(),
                b.trace.canonical_bytes(),
                "{} trace changed across repeat runs",
                a.scheduler
            );
            prop_assert_eq!(
                a.trace.canonical_bytes(),
                c.trace.canonical_bytes(),
                "{} trace changed between Serial and Threads(4) engines",
                a.scheduler
            );
            prop_assert_eq!(a.frames_served(), c.frames_served());
        }
    }

    /// Contract 2: on any workload round-robin can fully schedule, EDF
    /// misses nothing either. (Both policies are non-idling and
    /// non-preemptive; admission capacity exceeds the session count, so
    /// both see the identical job set.)
    #[test]
    fn edf_meets_every_deadline_round_robin_meets(
        sessions in 2u32..6,
        seed in 0u64..1_000,
        slack_index in 0usize..4,
        units_index in 0usize..3,
    ) {
        let slack_pct = [100u32, 200, 400, 800][slack_index];
        let units_per_us = [512u64, 4096, 32_768][units_index];
        let spec = workload(sessions, seed, slack_pct);
        let config = ServeConfig::default();
        let cost = WorkUnitsCost { units_per_us, fixed_us: 50 };
        let eng = engine(1);
        let rr = run(&eng, &spec, &mut RoundRobin::new(), config, &cost);
        prop_assert_eq!(rr.admission.rejected, 0, "capacity covers all sessions");
        if rr.missed_deadlines() == 0 {
            let edf = run(&eng, &spec, &mut DeadlineEdf::new(), config, &cost);
            prop_assert_eq!(
                edf.missed_deadlines(),
                0,
                "EDF missed a deadline on a workload round-robin fully scheduled"
            );
        }
    }

    /// Contract 3: admission bounds hold for arbitrary tight capacities,
    /// and the counters balance.
    #[test]
    fn admission_never_exceeds_bounds(
        sessions in 3u32..8,
        seed in 0u64..1_000,
        max_active in 1usize..4,
        queue_bound in 0usize..3,
    ) {
        let spec = workload(sessions, seed, 400);
        let config = ServeConfig {
            admission: AdmissionConfig { max_active, queue_bound },
            ..ServeConfig::default()
        };
        let r = run(
            &engine(1),
            &spec,
            &mut RoundRobin::new(),
            config,
            &WorkUnitsCost::default(),
        );
        prop_assert!(r.admission.peak_active <= max_active);
        prop_assert!(r.admission.peak_queue <= queue_bound);
        prop_assert_eq!(r.admission.offered, u64::from(sessions));
        prop_assert_eq!(
            r.admission.offered,
            r.admission.admitted + r.admission.rejected
        );
        // Every admitted session completes all its frames.
        prop_assert_eq!(r.sessions.len() as u64, r.admission.admitted);
        for s in &r.sessions {
            prop_assert_eq!(s.frames_completed, s.frames_requested);
        }
    }
}

/// A policy that picks outside the ready set on every other tick and the
/// highest-id ready session otherwise, recording the session it expects
/// each tick to serve.
#[derive(Default)]
struct Wayward {
    expected: Vec<SessionId>,
    /// Fallback ticks with more than one session ready.
    contested_fallbacks: usize,
}

impl Scheduler for Wayward {
    fn name(&self) -> &str {
        "wayward"
    }

    fn pick(&mut self, ready: &[SessionView]) -> SessionId {
        if self.expected.len().is_multiple_of(2) {
            self.expected.push(ready[0].id);
            self.contested_fallbacks += usize::from(ready.len() > 1);
            SessionId(u32::MAX)
        } else {
            let last = ready[ready.len() - 1].id;
            self.expected.push(last);
            last
        }
    }
}

/// The driver serves an out-of-set pick's tick to the lowest-id ready
/// session and honours every valid pick, so every session still gets
/// every frame.
#[test]
fn picks_outside_the_ready_set_fall_back_to_the_lowest_ready_id() {
    // Simultaneous arrivals: the first ticks see every session ready.
    let spec = WorkloadSpec {
        arrival_spread_us: 0,
        ..workload(5, 11, 200)
    };
    let mut policy = Wayward::default();
    let r = run(
        &engine(1),
        &spec,
        &mut policy,
        ServeConfig::default(),
        &WorkUnitsCost::default(),
    );
    let served: Vec<SessionId> = r.trace.events.iter().map(|e| e.session).collect();
    assert_eq!(served, policy.expected);
    assert!(
        policy.contested_fallbacks > 0,
        "no fallback tick had a choice to make"
    );
    assert_eq!(r.sessions.len(), 5);
    for s in &r.sessions {
        assert_eq!(s.frames_completed, s.frames_requested);
    }
}
