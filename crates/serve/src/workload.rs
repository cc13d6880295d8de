//! Workload specifications: per-session demands and seeded generation.
//!
//! A [`WorkloadSpec`] is the *generator* side of the determinism
//! contract: [`WorkloadSpec::generate`] expands it into concrete
//! [`SessionSpec`]s using a ChaCha stream seeded from `seed` alone, so a
//! `(workload spec, seed, scheduler)` triple fully determines every
//! scheduling decision the virtual-clock simulator will make.

use crate::{FrameBudget, ServeError, ServeResult};
use neo_core::SessionId;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// One session's demand: when it arrives, how many frames it wants, at
/// what cadence, resolution, and camera motion.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSpec {
    /// Identity carried into [`neo_core::RenderSession`] and the trace.
    pub id: SessionId,
    /// Offered-arrival time in virtual microseconds.
    pub arrival_us: u64,
    /// Number of frames the session wants rendered.
    pub frames: u32,
    /// Release cadence and deadline for each frame.
    pub budget: FrameBudget,
    /// Render width in pixels.
    pub width: u32,
    /// Render height in pixels.
    pub height: u32,
    /// Trajectory offset: the session's frame `k` samples trajectory
    /// frame `start_frame + k`, so sessions spread over the camera path.
    pub start_frame: u32,
    /// Camera speed multiplier (trajectory churn; 1.0 = capture speed).
    pub speed: f32,
}

impl SessionSpec {
    /// Rejects degenerate sessions (no frames, zero resolution, bad
    /// budget, non-finite speed).
    pub fn validate(&self) -> ServeResult<()> {
        if self.frames == 0 {
            return Err(ServeError::invalid_spec(format!(
                "session {} requests zero frames",
                self.id
            )));
        }
        if self.width == 0 || self.height == 0 {
            return Err(ServeError::invalid_spec(format!(
                "session {} has zero resolution {}x{}",
                self.id, self.width, self.height
            )));
        }
        if !self.speed.is_finite() || self.speed <= 0.0 {
            return Err(ServeError::invalid_spec(format!(
                "session {} has non-positive camera speed {}",
                self.id, self.speed
            )));
        }
        self.budget.validate()
    }
}

/// Seeded generator of mixed-session workloads.
///
/// Every knob is a plain value; [`WorkloadSpec::generate`] is a pure
/// function of the spec (including `seed`), which the
/// `tests/serve_scheduler.rs` proptests rely on.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Number of sessions to offer.
    pub sessions: u32,
    /// RNG seed; equal seeds yield equal workloads on every platform.
    pub seed: u64,
    /// Inclusive range of frames per session.
    pub frames: (u32, u32),
    /// Refresh-rate choices in Hz, sampled uniformly per session.
    pub refresh_choices: Vec<f64>,
    /// Resolution choices, sampled uniformly per session.
    pub resolutions: Vec<(u32, u32)>,
    /// Arrivals are sampled uniformly from `[0, arrival_spread_us]`.
    pub arrival_spread_us: u64,
    /// Deadline as a percentage of the period (100 = deadline one
    /// period, 400 = four periods of slack).
    pub deadline_slack_pct: u32,
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        Self {
            sessions: 8,
            seed: 0,
            frames: (4, 12),
            refresh_choices: vec![30.0, 60.0, 90.0],
            resolutions: vec![(128, 72), (160, 96)],
            arrival_spread_us: 50_000,
            deadline_slack_pct: 100,
        }
    }
}

impl WorkloadSpec {
    /// Rejects empty choice lists and inverted frame ranges.
    pub fn validate(&self) -> ServeResult<()> {
        if self.sessions == 0 {
            return Err(ServeError::invalid_spec("workload offers zero sessions"));
        }
        if self.frames.0 == 0 || self.frames.0 > self.frames.1 {
            return Err(ServeError::invalid_spec(format!(
                "frame range {:?} must satisfy 1 <= lo <= hi",
                self.frames
            )));
        }
        if self.refresh_choices.is_empty() || self.resolutions.is_empty() {
            return Err(ServeError::invalid_spec(
                "refresh and resolution choice lists must be non-empty",
            ));
        }
        if self.deadline_slack_pct == 0 {
            return Err(ServeError::invalid_spec(
                "deadline slack must be a positive percentage",
            ));
        }
        Ok(())
    }

    /// Expands the spec into concrete sessions, deterministically from
    /// `seed`. Sessions are returned in arrival order (ties broken by
    /// id), ids dense in `0..sessions`.
    ///
    /// # Errors
    ///
    /// Propagates [`WorkloadSpec::validate`] failures; generated sessions
    /// themselves always validate.
    pub fn generate(&self) -> ServeResult<Vec<SessionSpec>> {
        self.validate()?;
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        let mut specs: Vec<SessionSpec> = (0..self.sessions)
            .map(|i| {
                let arrival_us = if self.arrival_spread_us == 0 {
                    0
                } else {
                    rng.gen_range(0..self.arrival_spread_us + 1)
                };
                let frames = rng.gen_range(self.frames.0..self.frames.1 + 1);
                let hz = self.refresh_choices[rng.gen_range(0..self.refresh_choices.len())];
                let (width, height) = self.resolutions[rng.gen_range(0..self.resolutions.len())];
                let period = FrameBudget::from_refresh_hz(hz).period_us;
                let deadline = (period * u64::from(self.deadline_slack_pct)).div_euclid(100);
                SessionSpec {
                    id: SessionId(i),
                    arrival_us,
                    frames,
                    budget: FrameBudget::from_period_us(period).with_deadline_us(deadline.max(1)),
                    width,
                    height,
                    start_frame: rng.gen_range(0u32..48),
                    speed: rng.gen_range(0.5f32..2.0),
                }
            })
            .collect();
        specs.sort_by_key(|s| (s.arrival_us, s.id));
        Ok(specs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_a_pure_function_of_the_spec() {
        let spec = WorkloadSpec {
            sessions: 16,
            seed: 42,
            ..WorkloadSpec::default()
        };
        let a = spec.generate().unwrap();
        let b = spec.generate().unwrap();
        assert_eq!(a, b);
        assert_eq!(a.len(), 16);
        for s in &a {
            s.validate().expect("generated sessions validate");
        }
        let other_seed = WorkloadSpec { seed: 43, ..spec }.generate().unwrap();
        assert_ne!(a, other_seed, "different seeds give different workloads");
    }

    #[test]
    fn arrival_order_with_id_tiebreak() {
        let specs = WorkloadSpec {
            sessions: 32,
            arrival_spread_us: 0,
            ..WorkloadSpec::default()
        }
        .generate()
        .unwrap();
        // All arrivals collapse to 0, so order must be id order.
        let ids: Vec<u32> = specs.iter().map(|s| s.id.0).collect();
        assert_eq!(ids, (0..32).collect::<Vec<_>>());
    }

    #[test]
    fn invalid_specs_are_rejected() {
        assert!(WorkloadSpec {
            sessions: 0,
            ..WorkloadSpec::default()
        }
        .generate()
        .is_err());
        assert!(WorkloadSpec {
            frames: (5, 2),
            ..WorkloadSpec::default()
        }
        .generate()
        .is_err());
        assert!(WorkloadSpec {
            refresh_choices: vec![],
            ..WorkloadSpec::default()
        }
        .generate()
        .is_err());
        assert!(WorkloadSpec {
            deadline_slack_pct: 0,
            ..WorkloadSpec::default()
        }
        .generate()
        .is_err());
    }
}
