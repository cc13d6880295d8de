//! Schedule traces: the byte-reproducible record of every scheduling
//! decision a serve run made.

use neo_core::SessionId;

/// One served frame, as recorded by the driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Monotonic event number across the whole run; the scheduler tick
    /// that served the frame is `seq + 1`.
    pub seq: u64,
    /// Which session.
    pub session: SessionId,
    /// Frame index within the session.
    pub frame: u32,
    /// Release time of the frame (virtual µs).
    pub release_us: u64,
    /// When the frame's render started (virtual µs).
    pub start_us: u64,
    /// When the frame's render finished (virtual µs).
    pub finish_us: u64,
    /// The frame's absolute deadline (virtual µs).
    pub deadline_us: u64,
    /// The frame's cost: modeled on the virtual clock, where
    /// `finish_us == start_us + cost_us`; the measured render time on the
    /// real clock, where `finish_us` also counts the loop's own work.
    pub cost_us: u64,
    /// Whether the frame finished after its deadline.
    pub missed: bool,
}

impl TraceEvent {
    /// Completion latency relative to release (virtual µs).
    #[must_use]
    pub fn latency_us(&self) -> u64 {
        self.finish_us.saturating_sub(self.release_us)
    }
}

/// The full decision sequence of one serve run.
///
/// Two runs are *the same schedule* iff their traces are equal — and the
/// determinism contract requires exactly that for equal
/// `(workload spec, seed, scheduler)` triples in virtual-clock mode,
/// regardless of thread count ([`ScheduleTrace::canonical_bytes`] is the
/// byte-level witness the test suites compare).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScheduleTrace {
    /// Events in `seq` order.
    pub events: Vec<TraceEvent>,
}

impl ScheduleTrace {
    /// Number of served frames.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the run served no frames.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Total deadline misses across the run.
    #[must_use]
    pub fn missed_deadlines(&self) -> u64 {
        neo_math::num::u64_from_usize(self.events.iter().filter(|e| e.missed).count())
    }

    /// Canonical byte serialization: one fixed-format ASCII line per
    /// event, in `seq` order. Equal schedules produce equal bytes on
    /// every platform; the determinism suites compare these directly.
    #[must_use]
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut out = String::with_capacity(self.events.len() * 64);
        for e in &self.events {
            out.push_str(&format!(
                "{} {} {} {} {} {} {} {} {}\n",
                e.seq,
                e.session.0,
                e.frame,
                e.release_us,
                e.start_us,
                e.finish_us,
                e.deadline_us,
                e.cost_us,
                u8::from(e.missed),
            ));
        }
        out.into_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(seq: u64, missed: bool) -> TraceEvent {
        TraceEvent {
            seq,
            session: SessionId(7),
            frame: 0,
            release_us: 100,
            start_us: 120,
            finish_us: 180,
            deadline_us: 150,
            cost_us: 60,
            missed,
        }
    }

    #[test]
    fn canonical_bytes_distinguish_schedules() {
        let a = ScheduleTrace {
            events: vec![event(0, false), event(1, true)],
        };
        let b = ScheduleTrace {
            events: vec![event(0, false), event(1, false)],
        };
        assert_eq!(a.canonical_bytes(), a.clone().canonical_bytes());
        assert_ne!(a.canonical_bytes(), b.canonical_bytes());
        assert_eq!(a.missed_deadlines(), 1);
        assert_eq!(a.len(), 2);
        assert!(!a.is_empty());
        assert!(ScheduleTrace::default().is_empty());
    }

    #[test]
    fn latency_is_release_to_finish() {
        assert_eq!(event(0, false).latency_us(), 80);
    }
}
