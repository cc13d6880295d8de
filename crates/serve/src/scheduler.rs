//! The scheduler trait and the two built-in policies.
//!
//! A scheduler is a deterministic policy object: given the *ready set*
//! (sessions whose next frame has been released), it picks which
//! session's frame renders next. Policies never see wall-clock time,
//! thread ids, or iteration order beyond the ready set itself, which
//! arrives sorted by session id — so a policy's decision sequence is a
//! pure function of the workload it observes.
//!
//! The driver serves the pick if that session is ready and otherwise the
//! first ready session, so a buggy external policy degrades to
//! lowest-id-first progress instead of wedging or crashing the serve
//! loop. Non-idling is therefore a *driver* guarantee, not a policy
//! obligation — which is what makes the EDF-dominance property of
//! `tests/serve_scheduler.rs` well-posed.

use neo_core::SessionId;

/// What a scheduler sees about one ready session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionView {
    /// Session identity.
    pub id: SessionId,
    /// Absolute deadline of the session's pending frame, virtual
    /// microseconds.
    pub deadline_us: u64,
}

/// A frame-scheduling policy.
///
/// Implementations must be deterministic: equal `ready` inputs and equal
/// internal state must produce equal picks. The ready set is sorted by
/// session id and non-empty.
pub trait Scheduler: Send {
    /// Diagnostic name for traces, tables, and figures.
    fn name(&self) -> &str;

    /// Picks the session whose pending frame renders next. An id not in
    /// `ready` is tolerated: the driver serves the first ready session
    /// instead.
    fn pick(&mut self, ready: &[SessionView]) -> SessionId;
}

/// Cyclic fair scheduling: serve the lowest session id strictly greater
/// than the last-served id, wrapping around. Starvation-free by
/// construction — every ready session is served within one cycle of the
/// active set (`tests/serve_fairness.rs` pins the bound).
#[derive(Debug, Clone, Default)]
pub struct RoundRobin {
    last: Option<SessionId>,
}

impl RoundRobin {
    /// A fresh round-robin policy (cursor before the first session).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl Scheduler for RoundRobin {
    fn name(&self) -> &str {
        "round-robin"
    }

    fn pick(&mut self, ready: &[SessionView]) -> SessionId {
        let next = self
            .last
            .and_then(|last| ready.iter().find(|v| v.id > last))
            .or_else(|| ready.first())
            .map_or(SessionId(0), |v| v.id);
        self.last = Some(next);
        next
    }
}

/// Earliest-deadline-first: serve the ready frame with the smallest
/// absolute deadline (ties broken by session id, so the policy is a
/// total order). Non-preemptive EDF is optimal among non-idling
/// single-server policies: on any workload where *some* such policy
/// (e.g. [`RoundRobin`]) meets every deadline, EDF does too — the
/// property `tests/serve_scheduler.rs` checks.
#[derive(Debug, Clone, Copy, Default)]
pub struct DeadlineEdf;

impl DeadlineEdf {
    /// A fresh (stateless) EDF policy.
    #[must_use]
    pub fn new() -> Self {
        Self
    }
}

impl Scheduler for DeadlineEdf {
    fn name(&self) -> &str {
        "deadline-edf"
    }

    fn pick(&mut self, ready: &[SessionView]) -> SessionId {
        ready
            .iter()
            .min_by_key(|v| (v.deadline_us, v.id))
            .map_or(SessionId(0), |v| v.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(id: u32, deadline: u64) -> SessionView {
        SessionView {
            id: SessionId(id),
            deadline_us: deadline,
        }
    }

    #[test]
    fn round_robin_cycles_in_id_order() {
        let ready: Vec<SessionView> = (0..3).map(|i| view(i, 100)).collect();
        let mut rr = RoundRobin::new();
        let picks: Vec<u32> = (0..7).map(|_| rr.pick(&ready).0).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2, 0]);
    }

    #[test]
    fn round_robin_skips_unready_sessions() {
        let mut rr = RoundRobin::new();
        assert_eq!(rr.pick(&[view(0, 9), view(2, 9)]), SessionId(0));
        // Session 1 becomes ready; cursor is at 0, so 1 is next.
        let all: Vec<SessionView> = (0..3).map(|i| view(i, 9)).collect();
        assert_eq!(rr.pick(&all), SessionId(1));
        // Only session 0 ready: wrap around.
        assert_eq!(rr.pick(&[view(0, 9)]), SessionId(0));
    }

    #[test]
    fn edf_picks_earliest_deadline_with_id_tiebreak() {
        let mut edf = DeadlineEdf::new();
        let ready = [view(0, 50), view(1, 20), view(2, 20)];
        assert_eq!(edf.pick(&ready), SessionId(1));
    }
}
