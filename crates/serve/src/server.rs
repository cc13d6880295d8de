//! The serve driver: admission, scheduling, and the shared render loop
//! behind both the virtual-clock simulator and real-clock serving.
//!
//! One loop, two time sources. The driver admits offered sessions into a
//! bounded active set (overflow into a bounded wait queue, then
//! rejection), repeatedly asks the configured [`Scheduler`] which ready
//! frames to render next, renders them *functionally* through ordinary
//! [`neo_core::RenderSession`]s (so the existing intra-frame shard
//! worker pool, LOD index, and temporal caches all apply), and
//! advances time:
//!
//! * **virtual mode** ([`ServeDriver::run_virtual`]) — time advances
//!   only by what a [`CostModel`] says each frame cost. No wall-clock
//!   read happens anywhere on this path, so the full [`ScheduleTrace`]
//!   is a pure function of `(sessions, scheduler, cost model, config)`
//!   and is byte-identical across repeat runs, machines, and
//!   [`neo_core::Parallelism`] settings.
//! * **real mode** ([`ServeDriver::run_real_clock`]) — the same loop,
//!   same scheduler code, but time is the host monotonic clock and the
//!   trace records measured latencies. Inherently nonreproducible; this
//!   is the throughput-measurement path of `fig_serve`.

use crate::{
    AdmissionConfig, AdmissionStats, CostModel, ScheduleTrace, Scheduler, ServeError, ServeResult,
    SessionSpec, SessionView, TraceEvent,
};
use neo_core::{RenderEngine, RenderSession, SessionId, TemporalCacheStats};
use neo_scene::{CameraPath, FrameSampler, Resolution};
use std::collections::VecDeque;

/// Driver-level configuration: capacities, batching, and safety bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Active-set and wait-queue capacities.
    pub admission: AdmissionConfig,
    /// Hard cap on frames served per scheduler tick (scheduler picks
    /// beyond it are truncated).
    pub max_batch: usize,
    /// Virtual microseconds of dispatch overhead charged per batch, on
    /// top of the maximum member cost.
    pub batch_overhead_us: u64,
    /// Safety bound on scheduler ticks; exceeding it aborts the run with
    /// [`ServeError::TickLimit`] instead of looping forever.
    pub max_ticks: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            admission: AdmissionConfig::default(),
            max_batch: 8,
            batch_overhead_us: 20,
            max_ticks: 1 << 22,
        }
    }
}

impl ServeConfig {
    /// Rejects zero batch capacity or a zero tick bound.
    pub fn validate(&self) -> ServeResult<()> {
        self.admission.validate()?;
        if self.max_batch == 0 {
            return Err(ServeError::invalid_spec(
                "max_batch must allow at least one frame per tick",
            ));
        }
        if self.max_ticks == 0 {
            return Err(ServeError::invalid_spec("max_ticks must be positive"));
        }
        Ok(())
    }
}

/// Everything one admitted session experienced across the run.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionReport {
    /// Session identity.
    pub id: SessionId,
    /// When the session entered the active set (virtual µs).
    pub activated_us: u64,
    /// Frames actually rendered.
    pub frames_completed: u32,
    /// Frames the spec requested.
    pub frames_requested: u32,
    /// Deadline misses among completed frames.
    pub misses: u32,
    /// Completion latency of each frame, release → finish (virtual µs).
    pub latencies_us: Vec<u64>,
    /// Scheduler tick at which each frame was served (for fairness/gap
    /// analysis).
    pub serve_ticks: Vec<u64>,
    /// Warm-start temporal-cache statistics accumulated over *this
    /// session's* frames only. Sessions never bleed cache statistics
    /// into one another even when they share a scene `Arc` — the cache
    /// itself is per-session state.
    pub temporal: TemporalCacheStats,
    /// Total deterministic work units across the session's frames.
    pub work_units: u64,
}

impl SessionReport {
    /// Largest gap, in scheduler ticks, between consecutive serves of
    /// this session (0 when served fewer than twice). The fairness suite
    /// bounds this under skewed load.
    #[must_use]
    pub fn max_tick_gap(&self) -> u64 {
        self.serve_ticks
            .windows(2)
            .map(|w| w[1].saturating_sub(w[0]))
            .max()
            .unwrap_or(0)
    }
}

/// Aggregate result of one serve run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// The scheduler that produced the run.
    pub scheduler: String,
    /// Admission counters.
    pub admission: AdmissionStats,
    /// The full decision sequence.
    pub trace: ScheduleTrace,
    /// Per-session reports for every admitted session, in id order.
    pub sessions: Vec<SessionReport>,
    /// Ids of rejected sessions, in arrival order.
    pub rejected: Vec<SessionId>,
    /// Scheduler ticks executed.
    pub ticks: u64,
    /// Time at which the last batch finished (virtual µs; wall-clock µs
    /// in real mode).
    pub makespan_us: u64,
}

impl ServeReport {
    /// Frames served across all sessions.
    #[must_use]
    pub fn frames_served(&self) -> u64 {
        neo_math::num::u64_from_usize(self.trace.len())
    }

    /// Total deadline misses.
    #[must_use]
    pub fn missed_deadlines(&self) -> u64 {
        self.trace.missed_deadlines()
    }

    /// Aggregate throughput: frames served per second of makespan (0.0
    /// for an empty run).
    #[must_use]
    pub fn aggregate_fps(&self) -> f64 {
        if self.makespan_us == 0 {
            0.0
        } else {
            self.frames_served() as f64 * 1e6 / self.makespan_us as f64
        }
    }

    /// Nearest-rank p99 of frame completion latency in microseconds (the
    /// serving tail-latency figure; 0 for an empty run).
    #[must_use]
    pub fn p99_latency_us(&self) -> u64 {
        self.percentile_latency_us(99.0)
    }

    /// Nearest-rank latency percentile in microseconds, `p` in
    /// `[0, 100]` (contract of [`neo_sort::stats::percentile`]).
    #[must_use]
    pub fn percentile_latency_us(&self, p: f64) -> u64 {
        let samples: Vec<usize> = self
            .trace
            .events
            .iter()
            // Diagnostics bound: latencies fit usize on every supported
            // target; saturate rather than panic if they somehow don't.
            .map(|e| usize::try_from(e.latency_us()).unwrap_or(usize::MAX))
            .collect();
        neo_math::num::u64_from_usize(neo_sort::stats::percentile(&samples, p))
    }
}

/// How the shared loop advances time.
enum Pace<'c> {
    /// Injected per-frame costs; no wall-clock reads at all.
    Virtual(&'c dyn CostModel),
    /// Host monotonic clock; costs are measured render durations.
    #[expect(
        clippy::disallowed_types,
        reason = "real-clock serving is explicitly nondeterministic and quarantined behind this variant; the virtual-clock path never constructs it"
    )]
    Real(std::time::Instant),
}

impl Pace<'_> {
    /// Current time: the virtual cursor (passed through) or the elapsed
    /// wall clock.
    fn now(&self, virtual_now: u64) -> u64 {
        match self {
            Pace::Virtual(_) => virtual_now,
            Pace::Real(start) => u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX),
        }
    }
}

/// One admitted session's live state.
struct Active {
    spec: SessionSpec,
    session: RenderSession,
    sampler: FrameSampler,
    /// Release time of the next frame (virtual µs).
    next_release_us: u64,
    /// Next frame index within the session.
    frame: u32,
    report: SessionReport,
}

impl Active {
    fn view(&self) -> SessionView {
        SessionView {
            id: self.spec.id,
            frame: self.frame,
            release_us: self.next_release_us,
            deadline_us: self.next_release_us + self.spec.budget.deadline_us,
            compat_key: self.spec.compat_key(),
            frames_left: self.spec.frames - self.frame,
        }
    }
}

/// The serving front end over one [`RenderEngine`].
///
/// The driver owns no mutable state between runs; each
/// [`ServeDriver::run_virtual`] / [`ServeDriver::run_real_clock`] call
/// mints fresh sessions via [`RenderEngine::session_with_id`] and plays
/// the workload to completion.
pub struct ServeDriver<'e> {
    engine: &'e RenderEngine,
    trajectory: CameraPath,
    config: ServeConfig,
}

impl<'e> ServeDriver<'e> {
    /// Creates a driver serving `engine`'s scene along `trajectory`.
    /// Per-session cameras sample the trajectory at the session's speed
    /// and start offset (see [`SessionSpec`]).
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidSpec`] when `config` fails
    /// [`ServeConfig::validate`].
    pub fn new(
        engine: &'e RenderEngine,
        trajectory: CameraPath,
        config: ServeConfig,
    ) -> ServeResult<Self> {
        config.validate()?;
        Ok(Self {
            engine,
            trajectory,
            config,
        })
    }

    /// The driver's configuration.
    #[must_use]
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Plays the workload under the virtual clock: time advances only by
    /// `cost`'s verdicts, so the returned report (trace included) is a
    /// pure function of `(specs, scheduler state, cost, config)` — equal
    /// inputs give byte-identical traces at any thread count.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidSpec`] for invalid or duplicate session
    /// specs, [`ServeError::TickLimit`] if the run exceeds
    /// [`ServeConfig::max_ticks`], [`ServeError::Render`] if a session's
    /// camera degenerates (impossible for validated specs).
    pub fn run_virtual(
        &self,
        specs: &[SessionSpec],
        scheduler: &mut dyn Scheduler,
        cost: &dyn CostModel,
    ) -> ServeResult<ServeReport> {
        self.run_inner(specs, scheduler, Pace::Virtual(cost))
    }

    /// Plays the workload against the host monotonic clock: the same
    /// admission/scheduling loop, but each frame's cost is its measured
    /// render duration. Traces are *not* reproducible on this path; use
    /// it for throughput measurement (`fig_serve`), never in tests of
    /// scheduling behavior.
    ///
    /// # Errors
    ///
    /// As [`ServeDriver::run_virtual`], minus any cost-model concerns.
    #[expect(
        clippy::disallowed_types,
        reason = "real-clock mode is the explicitly nondeterministic measurement path; determinism tests run run_virtual, which never reads a clock"
    )]
    pub fn run_real_clock(
        &self,
        specs: &[SessionSpec],
        scheduler: &mut dyn Scheduler,
    ) -> ServeResult<ServeReport> {
        self.run_inner(specs, scheduler, Pace::Real(std::time::Instant::now()))
    }

    fn activate(&self, spec: SessionSpec, now_us: u64) -> Active {
        let sampler = FrameSampler::new(
            self.trajectory.clone(),
            30.0,
            Resolution::Custom(spec.width, spec.height),
        )
        .with_speed(spec.speed);
        Active {
            session: self.engine.session_with_id(spec.id),
            sampler,
            next_release_us: now_us,
            frame: 0,
            report: SessionReport {
                id: spec.id,
                activated_us: now_us,
                frames_completed: 0,
                frames_requested: spec.frames,
                misses: 0,
                latencies_us: Vec::with_capacity(neo_math::num::usize_from_u32(spec.frames)),
                serve_ticks: Vec::with_capacity(neo_math::num::usize_from_u32(spec.frames)),
                temporal: TemporalCacheStats::default(),
                work_units: 0,
            },
            spec,
        }
    }

    fn run_inner(
        &self,
        specs: &[SessionSpec],
        scheduler: &mut dyn Scheduler,
        pace: Pace<'_>,
    ) -> ServeResult<ServeReport> {
        for spec in specs {
            spec.validate()?;
        }
        let mut ids: Vec<SessionId> = specs.iter().map(|s| s.id).collect();
        ids.sort_unstable();
        ids.dedup();
        if ids.len() != specs.len() {
            return Err(ServeError::invalid_spec("duplicate session ids offered"));
        }

        // Offered sessions in arrival order (id tiebreak), stable across
        // caller ordering.
        let mut pending: VecDeque<SessionSpec> = {
            let mut v = specs.to_vec();
            v.sort_by_key(|s| (s.arrival_us, s.id));
            v.into()
        };
        let mut queue: VecDeque<SessionSpec> = VecDeque::new();
        let mut active: Vec<Active> = Vec::new();
        let mut finished: Vec<SessionReport> = Vec::new();
        let mut rejected: Vec<SessionId> = Vec::new();
        let mut stats = AdmissionStats::default();
        let mut trace = ScheduleTrace::default();

        let mut now_us: u64 = 0;
        let mut tick: u64 = 0;
        let mut seq: u64 = 0;
        let mut makespan_us: u64 = 0;

        loop {
            now_us = pace.now(now_us);

            // Admission: offer every arrival due by now.
            while pending.front().is_some_and(|s| s.arrival_us <= now_us) {
                let Some(spec) = pending.pop_front() else {
                    break;
                };
                stats.offered += 1;
                if active.len() < self.config.admission.max_active {
                    stats.admitted += 1;
                    let start = now_us.max(spec.arrival_us);
                    active.push(self.activate(spec, start));
                } else if queue.len() < self.config.admission.queue_bound {
                    stats.admitted += 1;
                    queue.push_back(spec);
                } else {
                    stats.rejected += 1;
                    rejected.push(spec.id);
                }
                stats.peak_queue = stats.peak_queue.max(queue.len());
                stats.peak_active = stats.peak_active.max(active.len());
            }

            // Ready set, in session-id order.
            let mut ready: Vec<SessionView> = active
                .iter()
                .filter(|a| a.next_release_us <= now_us)
                .map(Active::view)
                .collect();
            ready.sort_by_key(|v| v.id);

            if ready.is_empty() {
                // Idle: fast-forward to the next event, or finish.
                let next_arrival = pending.front().map(|s| s.arrival_us);
                let next_release = active.iter().map(|a| a.next_release_us).min();
                match [next_arrival, next_release].into_iter().flatten().min() {
                    Some(t) => {
                        now_us = now_us.max(t);
                        continue;
                    }
                    None => break,
                }
            }

            tick += 1;
            if tick > self.config.max_ticks {
                return Err(ServeError::TickLimit {
                    max_ticks: self.config.max_ticks,
                });
            }

            // Sanitize the scheduler's pick: dedupe, restrict to the
            // ready set, cap the batch; fall back to the first ready
            // session so the loop is non-idling whatever the policy does.
            let raw = scheduler.pick(now_us, &ready);
            let mut picks: Vec<SessionId> =
                Vec::with_capacity(raw.len().min(self.config.max_batch));
            for id in raw {
                if picks.len() >= self.config.max_batch {
                    break;
                }
                if ready.iter().any(|v| v.id == id) && !picks.contains(&id) {
                    picks.push(id);
                }
            }
            if picks.is_empty() {
                picks.push(ready[0].id);
            }

            // Render the batch's frames functionally; collect costs.
            struct Served {
                id: SessionId,
                frame: u32,
                release_us: u64,
                deadline_us: u64,
                cost_us: u64,
            }
            let mut served: Vec<Served> = Vec::with_capacity(picks.len());
            let mut batch_cost: u64 = 0;
            for id in &picks {
                let Some(a) = active.iter_mut().find(|a| a.spec.id == *id) else {
                    continue;
                };
                let view = a.view();
                let cam_index = neo_math::num::usize_from_u32(a.spec.start_frame)
                    + neo_math::num::usize_from_u32(a.frame);
                let cam = a.sampler.frame(cam_index);
                let render_started = pace.now(now_us);
                let fr = a.session.render_frame(&cam)?;
                let cost_us = match &pace {
                    Pace::Virtual(model) => model.frame_cost_us(&view, &fr),
                    Pace::Real(_) => pace.now(now_us).saturating_sub(render_started),
                };
                a.report.temporal += fr.temporal;
                a.report.work_units += fr.work_units();
                batch_cost = batch_cost.max(cost_us);
                served.push(Served {
                    id: *id,
                    frame: a.frame,
                    release_us: view.release_us,
                    deadline_us: view.deadline_us,
                    cost_us,
                });
            }

            let finish_us = match &pace {
                Pace::Virtual(_) => now_us + batch_cost + self.config.batch_overhead_us,
                Pace::Real(_) => pace.now(now_us),
            };
            makespan_us = makespan_us.max(finish_us);

            // Record events and advance the served sessions.
            for s in &served {
                let missed = finish_us > s.deadline_us;
                trace.events.push(TraceEvent {
                    seq,
                    tick,
                    session: s.id,
                    frame: s.frame,
                    release_us: s.release_us,
                    start_us: now_us,
                    finish_us,
                    deadline_us: s.deadline_us,
                    cost_us: s.cost_us,
                    missed,
                });
                seq += 1;
                let Some(idx) = active.iter().position(|a| a.spec.id == s.id) else {
                    continue;
                };
                {
                    let a = &mut active[idx];
                    a.report.latencies_us.push(finish_us - s.release_us);
                    a.report.serve_ticks.push(tick);
                    a.report.frames_completed += 1;
                    if missed {
                        a.report.misses += 1;
                    }
                    a.frame += 1;
                    a.next_release_us += a.spec.budget.period_us;
                }
                if active[idx].frame >= active[idx].spec.frames {
                    // Session complete: retire it and backfill the slot
                    // from the wait queue at the batch finish time.
                    let done = active.swap_remove(idx);
                    finished.push(done.report);
                    if let Some(next) = queue.pop_front() {
                        let start = finish_us.max(next.arrival_us);
                        active.push(self.activate(next, start));
                        stats.peak_active = stats.peak_active.max(active.len());
                    }
                }
            }

            now_us = finish_us;
        }

        // Every admitted session finishes before the loop exits (active
        // sessions always become ready again, and the queue backfills on
        // retirement), so `finished` is the complete admitted set.
        finished.sort_by_key(|r| r.id);
        Ok(ServeReport {
            scheduler: scheduler.name().to_string(),
            admission: stats,
            trace,
            sessions: finished,
            rejected,
            ticks: tick,
            makespan_us,
        })
    }
}

impl std::fmt::Debug for ServeDriver<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeDriver")
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DeadlineEdf, FixedCost, FrameBudget, RoundRobin, WorkUnitsCost, WorkloadSpec};
    use neo_core::RendererConfig;
    use neo_scene::presets::ScenePreset;

    fn small_engine() -> RenderEngine {
        RenderEngine::builder()
            .scene(ScenePreset::Family.build_scaled(0.002))
            .config(RendererConfig::default().with_tile_size(32).without_image())
            .build()
            .expect("valid")
    }

    fn driver(engine: &RenderEngine, config: ServeConfig) -> ServeDriver<'_> {
        ServeDriver::new(engine, ScenePreset::Family.trajectory(), config).expect("valid config")
    }

    fn tiny_specs(n: u32) -> Vec<SessionSpec> {
        WorkloadSpec {
            sessions: n,
            seed: 7,
            frames: (2, 3),
            resolutions: vec![(96, 54)],
            arrival_spread_us: 10_000,
            ..WorkloadSpec::default()
        }
        .generate()
        .expect("valid workload")
    }

    #[test]
    fn virtual_runs_are_reproducible() {
        let engine = small_engine();
        let d = driver(&engine, ServeConfig::default());
        let specs = tiny_specs(4);
        let cost = WorkUnitsCost::default();
        let a = d
            .run_virtual(&specs, &mut RoundRobin::new(), &cost)
            .expect("run");
        let b = d
            .run_virtual(&specs, &mut RoundRobin::new(), &cost)
            .expect("run");
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.trace.canonical_bytes(), b.trace.canonical_bytes());
        assert_eq!(
            a.frames_served(),
            specs.iter().map(|s| u64::from(s.frames)).sum::<u64>()
        );
        assert!(a.makespan_us > 0);
        assert!(a.aggregate_fps() > 0.0);
    }

    #[test]
    fn rejection_occurs_beyond_capacity() {
        let engine = small_engine();
        let d = driver(
            &engine,
            ServeConfig {
                admission: AdmissionConfig {
                    max_active: 1,
                    queue_bound: 1,
                },
                ..ServeConfig::default()
            },
        );
        // Three sessions all arriving at t=0: one active, one queued, one
        // rejected.
        let mut specs = tiny_specs(3);
        for s in &mut specs {
            s.arrival_us = 0;
        }
        let r = d
            .run_virtual(&specs, &mut DeadlineEdf::new(), &FixedCost(100))
            .expect("run");
        assert_eq!(r.admission.offered, 3);
        assert_eq!(r.admission.admitted, 2);
        assert_eq!(r.admission.rejected, 1);
        assert_eq!(r.rejected.len(), 1);
        assert_eq!(r.sessions.len(), 2);
        assert!(r.admission.peak_active <= 1);
        assert!(r.admission.peak_queue <= 1);
    }

    #[test]
    fn duplicate_ids_are_rejected() {
        let engine = small_engine();
        let d = driver(&engine, ServeConfig::default());
        let mut specs = tiny_specs(2);
        specs[1].id = specs[0].id;
        assert!(matches!(
            d.run_virtual(&specs, &mut RoundRobin::new(), &FixedCost(1)),
            Err(ServeError::InvalidSpec(_))
        ));
    }

    #[test]
    fn tick_limit_guards_runaway_runs() {
        let engine = small_engine();
        let d = driver(
            &engine,
            ServeConfig {
                max_ticks: 2,
                ..ServeConfig::default()
            },
        );
        let specs = tiny_specs(4);
        assert!(matches!(
            d.run_virtual(&specs, &mut RoundRobin::new(), &FixedCost(1)),
            Err(ServeError::TickLimit { max_ticks: 2 })
        ));
    }

    #[test]
    fn fixed_cost_meets_or_misses_deadlines_exactly() {
        let engine = small_engine();
        let d = driver(
            &engine,
            ServeConfig {
                batch_overhead_us: 0,
                ..ServeConfig::default()
            },
        );
        let make = |cost_us: u64| {
            let specs = vec![SessionSpec {
                id: SessionId(0),
                arrival_us: 0,
                frames: 5,
                budget: FrameBudget::from_period_us(1_000),
                width: 96,
                height: 54,
                start_frame: 0,
                speed: 1.0,
            }];
            d.run_virtual(&specs, &mut RoundRobin::new(), &FixedCost(cost_us))
                .expect("run")
        };
        // Cost within the budget: no misses. Cost beyond: every frame
        // misses (the backlog only grows).
        assert_eq!(make(900).missed_deadlines(), 0);
        assert_eq!(make(1_100).missed_deadlines(), 5);
    }

    #[test]
    fn config_validation() {
        assert!(ServeConfig::default().validate().is_ok());
        assert!(ServeConfig {
            max_batch: 0,
            ..ServeConfig::default()
        }
        .validate()
        .is_err());
        assert!(ServeConfig {
            max_ticks: 0,
            ..ServeConfig::default()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn real_clock_runs_complete() {
        let engine = small_engine();
        let d = driver(&engine, ServeConfig::default());
        let specs = tiny_specs(2);
        let r = d
            .run_real_clock(&specs, &mut RoundRobin::new())
            .expect("run");
        assert_eq!(
            r.frames_served(),
            specs.iter().map(|s| u64::from(s.frames)).sum::<u64>()
        );
        assert!(r.makespan_us > 0);
    }
}
