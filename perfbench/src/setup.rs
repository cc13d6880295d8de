//! Timed, repeated set-up: scene synthesis plus engine build.

use crate::stats::median;
use neo_core::RenderEngine;
use neo_scene::GaussianCloud;
use std::time::{Duration, Instant};

/// Set-up repeats at least this often and for at least this long, so
/// that millisecond set-ups report a median of many samples.
const MIN_REPS: usize = 3;
const MAX_REPS: usize = 50;
const MIN_TIME: Duration = Duration::from_millis(250);

/// The engine of the last repetition and every repetition's timings.
pub struct Setup {
    pub engine: RenderEngine,
    pub scene_s: Vec<f64>,
    pub engine_s: Vec<f64>,
}

impl Setup {
    /// Builds the scene and the engine over it, repeatedly.
    pub fn run(
        scene: impl Fn() -> GaussianCloud,
        engine: impl Fn(GaussianCloud) -> RenderEngine,
    ) -> Self {
        let (mut scene_s, mut engine_s) = (Vec::new(), Vec::new());
        let mut last = None;
        let started = Instant::now();
        while scene_s.len() < MAX_REPS && (scene_s.len() < MIN_REPS || started.elapsed() < MIN_TIME)
        {
            drop(last.take());
            let t = Instant::now();
            let cloud = scene();
            scene_s.push(t.elapsed().as_secs_f64());
            let t = Instant::now();
            last = Some(engine(cloud));
            engine_s.push(t.elapsed().as_secs_f64());
        }
        Self {
            engine: last.expect("at least one repetition"),
            scene_s,
            engine_s,
        }
    }

    /// Median seconds of one whole set-up.
    pub fn total_s(&self) -> f64 {
        let totals: Vec<f64> = self
            .scene_s
            .iter()
            .zip(&self.engine_s)
            .map(|(a, b)| a + b)
            .collect();
        median(&totals)
    }

    pub fn scene_s(&self) -> f64 {
        median(&self.scene_s)
    }

    pub fn engine_s(&self) -> f64 {
        median(&self.engine_s)
    }
}
