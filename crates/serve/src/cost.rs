//! Per-frame cost models — the injected time source of the virtual
//! clock.
//!
//! In virtual-clock mode the simulator never reads a wall clock: after
//! rendering a frame (functionally, on the real shard pool), it asks a
//! [`CostModel`] how many virtual microseconds that frame "took". Because
//! [`neo_core::FrameResult`] is byte-identical across thread counts and
//! shard plans, any cost model that is a function of the frame result is
//! automatically shard-invariant too — which is what makes the whole
//! schedule trace a pure function of `(workload spec, seed, scheduler)`.

use neo_core::FrameResult;

/// Maps a rendered frame to a virtual duration in microseconds.
///
/// Implementations must be pure: equal frames give equal costs.
/// Wall-clock reads, RNGs, or mutable state would break the
/// byte-reproducibility contract of the virtual-clock traces.
pub trait CostModel {
    /// Diagnostic name for tables and figures.
    fn name(&self) -> &str;

    /// Virtual microseconds charged for rendering `frame`.
    fn frame_cost_us(&self, frame: &FrameResult) -> u64;
}

/// Cost proportional to the frame's deterministic work counter
/// ([`FrameResult::work_units`]): `fixed_us + work_units / units_per_us`.
///
/// `units_per_us` is the modeled machine throughput (work units per
/// microsecond, clamped up to 1); `fixed_us` models per-frame dispatch
/// overhead that even an empty frame pays.
#[derive(Debug, Clone, Copy)]
pub struct WorkUnitsCost {
    /// Work units retired per virtual microsecond (throughput).
    pub units_per_us: u64,
    /// Fixed per-frame overhead in microseconds.
    pub fixed_us: u64,
}

impl Default for WorkUnitsCost {
    fn default() -> Self {
        // Not fitted to the wall clock: on `fig_serve`'s 128×72 and
        // 160×96 Family frames this charges a p50 of 0.24 ms, while the
        // same frames' real-clock render p50 is 0.69–0.81 ms (4-thread
        // engine on a 2-vCPU host).
        Self {
            units_per_us: 4096,
            fixed_us: 70,
        }
    }
}

impl CostModel for WorkUnitsCost {
    fn name(&self) -> &str {
        "work-units"
    }

    fn frame_cost_us(&self, frame: &FrameResult) -> u64 {
        self.fixed_us + frame.work_units() / self.units_per_us.max(1)
    }
}

/// Constant per-frame cost — the simplest model, used to port externally
/// measured latencies (e.g. the `neo-sim` device models in the
/// `vr_headset_budget` example) onto the scheduler.
#[derive(Debug, Clone, Copy)]
pub struct FixedCost(pub u64);

impl CostModel for FixedCost {
    fn name(&self) -> &str {
        "fixed"
    }

    fn frame_cost_us(&self, _frame: &FrameResult) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neo_sort::SortCost;

    fn dummy_frame() -> FrameResult {
        FrameResult {
            image: None,
            stats: Default::default(),
            sort_cost: SortCost::new(),
            incoming: 0,
            outgoing: 0,
            tile_loads: Vec::new(),
        }
    }

    #[test]
    fn fixed_cost_is_constant() {
        let m = FixedCost(1234);
        assert_eq!(m.frame_cost_us(&dummy_frame()), 1234);
    }

    #[test]
    fn work_units_cost_scales_with_throughput_and_floors_at_fixed() {
        let mut frame = dummy_frame();
        frame.stats.blend_ops = 1000; // work_units = 32_000
        let fast = WorkUnitsCost {
            units_per_us: 32,
            fixed_us: 10,
        };
        assert_eq!(fast.frame_cost_us(&frame), 10 + 1000);
        let slow = WorkUnitsCost {
            units_per_us: 16,
            fixed_us: 10,
        };
        assert_eq!(slow.frame_cost_us(&frame), 10 + 2000);
        // Empty frame pays only the fixed overhead.
        assert_eq!(fast.frame_cost_us(&dummy_frame()), 10);
        // Zero throughput clamps instead of dividing by zero.
        let degenerate = WorkUnitsCost {
            units_per_us: 0,
            fixed_us: 0,
        };
        assert_eq!(degenerate.frame_cost_us(&frame), 32_000);
    }
}
