//! Per-session frame budgets: release cadence and deadlines.
//!
//! A [`FrameBudget`] generalizes the ad-hoc `1000 / 90 Hz` arithmetic of
//! the `vr_headset_budget` example into a first-class type the scheduler
//! can reason about: frame `k` of a session is *released* (becomes
//! schedulable) `k × period` after the session activates, and must
//! *finish* within `deadline` of its release to count as on time.

use crate::{ServeError, ServeResult};

/// Release cadence plus deadline for one session's frames.
///
/// All quantities are integer virtual microseconds, so budget arithmetic
/// is exact and identical on every platform — a prerequisite for the
/// byte-reproducible schedule traces of the virtual-clock simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameBudget {
    /// Microseconds between successive frame releases (the frame period;
    /// 11 111 µs for a 90 Hz headset).
    pub period_us: u64,
    /// Microseconds after its release by which a frame must finish.
    /// Defaults to the period (finish before the next frame is due).
    pub deadline_us: u64,
}

impl FrameBudget {
    /// Budget for a display refreshing at `hz`: period = deadline =
    /// `1e6 / hz` microseconds, rounded to the nearest microsecond.
    ///
    /// Non-finite or non-positive rates produce a zero period, which
    /// [`FrameBudget::validate`] (run by the serve driver on every spec)
    /// rejects — construction itself never panics.
    ///
    /// ```
    /// use neo_serve::FrameBudget;
    /// let b = FrameBudget::from_refresh_hz(90.0);
    /// assert_eq!(b.period_us, 11_111);
    /// assert_eq!(b.deadline_us, b.period_us);
    /// assert!(b.validate().is_ok());
    /// assert!(FrameBudget::from_refresh_hz(0.0).validate().is_err());
    /// ```
    #[must_use]
    pub fn from_refresh_hz(hz: f64) -> Self {
        #[expect(
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss,
            reason = "f64->u64 of a positive finite value in (0, 1e6/hz]; floats have no try_from and validate() rejects the 0 edge"
        )]
        let period_us = if hz.is_finite() && hz > 0.0 {
            (1e6 / hz).round() as u64
        } else {
            0
        };
        Self {
            period_us,
            deadline_us: period_us,
        }
    }

    /// Budget with an explicit period in microseconds (deadline = period).
    #[must_use]
    pub fn from_period_us(period_us: u64) -> Self {
        Self {
            period_us,
            deadline_us: period_us,
        }
    }

    /// Replaces the deadline offset, keeping the period.
    #[must_use]
    pub fn with_deadline_us(mut self, deadline_us: u64) -> Self {
        self.deadline_us = deadline_us;
        self
    }

    /// The frame period in milliseconds (11.1 for 90 Hz).
    #[must_use]
    pub fn frame_ms(&self) -> f64 {
        self.period_us as f64 / 1e3
    }

    /// The deadline offset in milliseconds.
    #[must_use]
    pub fn deadline_ms(&self) -> f64 {
        self.deadline_us as f64 / 1e3
    }

    /// Whether a frame latency (in milliseconds) meets the deadline.
    #[must_use]
    pub fn meets_ms(&self, latency_ms: f64) -> bool {
        latency_ms.is_finite() && latency_ms * 1e3 <= self.deadline_us as f64
    }

    /// Fraction of `latencies_ms` that miss the deadline (0.0 for an
    /// empty sample set).
    #[must_use]
    pub fn miss_rate_ms(&self, latencies_ms: &[f64]) -> f64 {
        if latencies_ms.is_empty() {
            return 0.0;
        }
        let misses = latencies_ms.iter().filter(|&&l| !self.meets_ms(l)).count();
        misses as f64 / latencies_ms.len() as f64
    }

    /// Rejects degenerate budgets: a zero period would release infinitely
    /// many frames per instant, and a zero deadline is unmeetable.
    pub fn validate(&self) -> ServeResult<()> {
        if self.period_us == 0 {
            return Err(ServeError::invalid_spec(
                "frame budget period must be positive",
            ));
        }
        if self.deadline_us == 0 {
            return Err(ServeError::invalid_spec(
                "frame budget deadline must be positive",
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn refresh_rates_round_trip() {
        assert_eq!(FrameBudget::from_refresh_hz(90.0).period_us, 11_111);
        assert_eq!(FrameBudget::from_refresh_hz(60.0).period_us, 16_667);
        assert_eq!(FrameBudget::from_refresh_hz(30.0).period_us, 33_333);
        assert!((FrameBudget::from_refresh_hz(90.0).frame_ms() - 11.111).abs() < 1e-9);
    }

    #[test]
    fn degenerate_rates_fail_validation_not_construction() {
        for hz in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let b = FrameBudget::from_refresh_hz(hz);
            assert!(b.validate().is_err(), "hz {hz} should be invalid");
        }
        assert!(FrameBudget::from_period_us(0).validate().is_err());
        assert!(FrameBudget::from_period_us(1)
            .with_deadline_us(0)
            .validate()
            .is_err());
    }

    #[test]
    fn deadline_checks() {
        let b = FrameBudget::from_refresh_hz(90.0);
        assert!(b.meets_ms(11.0));
        assert!(!b.meets_ms(11.2));
        assert!(!b.meets_ms(f64::NAN));
        let rate = b.miss_rate_ms(&[5.0, 11.0, 20.0, 30.0]);
        assert!((rate - 0.5).abs() < 1e-12);
        assert_eq!(b.miss_rate_ms(&[]), 0.0);
    }

    #[test]
    fn explicit_deadline_overrides_period() {
        let b = FrameBudget::from_period_us(10_000).with_deadline_us(25_000);
        assert_eq!(b.period_us, 10_000);
        assert_eq!(b.deadline_us, 25_000);
        assert!(b.meets_ms(24.9));
        assert!(b.validate().is_ok());
    }
}
