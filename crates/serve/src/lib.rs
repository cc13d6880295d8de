//! `neo-serve`: a multi-session render service over the `neo-core`
//! engine — admission control, pluggable frame schedulers, and a
//! deterministic virtual-clock load simulator.
//!
//! # What this crate is
//!
//! The rest of the workspace renders one frame for one camera as fast and
//! as reproducibly as possible. `neo-serve` stacks a *serving* layer on
//! top: hundreds of concurrent [`neo_core::RenderSession`]s, each with its
//! own cadence ([`FrameBudget`]), resolution, and camera trajectory
//! offset, competing for one render engine. The pieces:
//!
//! * **Admission** ([`AdmissionConfig`], [`AdmissionStats`]) — a bounded
//!   active set plus a bounded wait queue; arrivals beyond both are
//!   rejected and counted.
//! * **Scheduling** ([`Scheduler`]) — a deterministic policy picks which
//!   released frame renders next, one frame per tick. Built-ins:
//!   [`RoundRobin`] (cyclic fairness) and [`DeadlineEdf`]
//!   (earliest-deadline-first).
//! * **The driver** ([`ServeDriver`]) — runs the loop in either of two
//!   paces that share every line of scheduler code:
//!   [`ServeDriver::run_virtual`] advances time only by an injected
//!   [`CostModel`], and [`ServeDriver::run_real_clock`] uses the host
//!   monotonic clock.
//!
//! # The determinism contract, extended
//!
//! The workspace-wide contract says a frame's result is byte-identical
//! across thread counts and shard plans. `neo-serve` lifts that to whole
//! *schedules*: in virtual-clock mode, the full [`ScheduleTrace`] is a
//! pure function of `(workload spec, seed, scheduler)`. The chain is
//! short: workload generation is seeded ChaCha; cost models are pure
//! functions of shard-invariant [`neo_core::FrameResult`]s; schedulers
//! are deterministic policy objects that only ever observe an id-sorted
//! ready set. No wall clock, RNG, or map iteration
//! order touches the path, so `tests/serve_scheduler.rs` can assert
//! byte-equal traces across repeat runs *and* across
//! `Parallelism::Serial` vs `Parallelism::Threads(4)` engines.
//!
//! # Quickstart
//!
//! ```
//! use neo_core::{RenderEngine, RendererConfig};
//! use neo_scene::presets::ScenePreset;
//! use neo_serve::{
//!     DeadlineEdf, ServeConfig, ServeDriver, WorkUnitsCost, WorkloadSpec,
//! };
//!
//! let engine = RenderEngine::builder()
//!     .scene(ScenePreset::Family.build_scaled(0.002))
//!     .config(RendererConfig::default().with_tile_size(32).without_image())
//!     .build()?;
//! let driver = ServeDriver::new(
//!     &engine,
//!     ScenePreset::Family.trajectory(),
//!     ServeConfig::default(),
//! )?;
//! let sessions = WorkloadSpec { sessions: 4, ..WorkloadSpec::default() }.generate()?;
//! let report = driver.run_virtual(
//!     &sessions,
//!     &mut DeadlineEdf::new(),
//!     &WorkUnitsCost::default(),
//! )?;
//! assert_eq!(report.frames_served(),
//!            sessions.iter().map(|s| u64::from(s.frames)).sum::<u64>());
//! println!("p99 latency: {} us, misses: {}",
//!          report.p99_latency_us(), report.missed_deadlines());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(missing_docs)]
#![cfg_attr(
    test,
    allow(clippy::float_cmp, reason = "unit tests compare exact expected floats")
)]

mod admission;
mod budget;
mod cost;
mod error;
mod scheduler;
mod server;
mod trace;
mod workload;

pub use admission::{AdmissionConfig, AdmissionStats};
pub use budget::FrameBudget;
pub use cost::{CostModel, FixedCost, WorkUnitsCost};
pub use error::{ServeError, ServeResult};
pub use scheduler::{DeadlineEdf, RoundRobin, Scheduler, SessionView};
pub use server::{ServeConfig, ServeDriver, ServeReport, SessionReport};
pub use trace::{ScheduleTrace, TraceEvent};
pub use workload::{SessionSpec, WorkloadSpec};
