//! Traced frames: the engine renders a camera untraced, the replay
//! renders it again through the layers' public functions with spans, the
//! two results are checked against each other, and both feed the
//! per-layer totals.

use crate::replay::{elapsed_ns, Replay, ReplayFrame, Spans};
use crate::report::Report;
use neo_core::{FrameResult, RenderEngine, RenderSession, ShardPlan};
use neo_scene::Camera;
use std::time::Instant;

/// Sums over traced frames.
#[derive(Default)]
pub struct Totals {
    frames: u64,
    engine_ns: u64,
    replay_ns: u64,
    spans: Spans,
    input: u64,
    projected: u64,
    assignments: u64,
    entries: u64,
    incoming: u64,
    sort_bytes: u64,
    pixel_visits: u64,
    blend_ops: u64,
    clusters_total: u64,
    clusters_culled: u64,
    clusters_proxied: u64,
    splats_visited: u64,
    work_units: u64,
    dram_bytes: u64,
    imbalance_sum: f64,
}

impl Totals {
    fn add(
        &mut self,
        fr: &FrameResult,
        rf: &ReplayFrame,
        engine_ns: u64,
        replay_ns: u64,
        spans: Spans,
    ) {
        self.frames += 1;
        self.engine_ns += engine_ns;
        self.replay_ns += replay_ns;
        self.spans += spans;
        self.input += rf.input;
        self.projected += rf.projected;
        self.assignments += rf.assignments;
        self.entries += rf.entries;
        self.incoming += rf.incoming;
        self.sort_bytes += rf.sort_bytes;
        self.pixel_visits += rf.pixel_visits;
        self.blend_ops += rf.blend_ops;
        self.clusters_total += rf.clusters_total;
        self.clusters_culled += rf.clusters_culled;
        self.clusters_proxied += rf.clusters_proxied;
        self.splats_visited += rf.splats_visited;
        self.work_units += fr.work_units();
        self.dram_bytes += fr.stats.traffic.total();
        self.imbalance_sum += imbalance_2(&rf.tile_loads);
    }
}

/// Max over mean shard load when `ShardPlan::balanced(2)` splits a
/// frame's occupied tiles by their binned entries (1.0 is even).
fn imbalance_2(loads: &[usize]) -> f64 {
    let shards: Vec<usize> = ShardPlan::balanced(2)
        .resolve(loads)
        .into_iter()
        .map(|r| loads[r].iter().sum())
        .collect();
    let total: usize = shards.iter().sum();
    let max = shards.iter().copied().max().unwrap_or(0);
    ratio(max as f64 * 2.0, total as f64).max(1.0)
}

pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Renders `cam` through the engine and records the outcome.
pub fn render(
    session: &mut RenderSession,
    cam: &Camera,
    report: &mut Report,
) -> Option<FrameResult> {
    let fr = session.render_frame(cam);
    report.check(fr.is_ok(), || {
        format!("render failed: {:?}", fr.as_ref().err())
    });
    fr.ok()
}

/// One traced frame: engine (timed whole), replay (timed per span),
/// output check, and accumulation into every total in `into`.
pub fn traced_frame(
    engine: &RenderEngine,
    session: &mut RenderSession,
    replay: &mut Replay,
    cam: &Camera,
    report: &mut Report,
    into: &mut [&mut Totals],
) -> Option<FrameResult> {
    let t = Instant::now();
    let fr = render(session, cam, report)?;
    let engine_ns = elapsed_ns(t);
    let t = Instant::now();
    let (rf, spans) = replay.frame(
        cam,
        engine.storage().as_ref(),
        engine.lod_index().map(|i| &**i),
    );
    let replay_ns = elapsed_ns(t);
    let mismatch = rf.mismatch(&fr);
    report.check(mismatch.is_none(), || {
        format!(
            "replay differs from the engine in {}",
            mismatch.unwrap_or_default()
        )
    });
    for totals in into.iter_mut() {
        totals.add(&fr, &rf, engine_ns, replay_ns, spans);
    }
    Some(fr)
}

/// Sets the per-layer metrics: times from `all` traced frames, counts
/// (which must repeat exactly) from the fixed `prefix` of them.
pub fn set_layer_metrics(report: &mut Report, all: &Totals, prefix: &Totals) {
    let n = all.frames.max(1) as f64;
    let ms = |ns: u64| ns as f64 / 1e6 / n;
    let s = &all.spans;
    report.set("project.ms_per_frame", ms(s.project));
    report.set(
        "project.ns_per_input_splat",
        ratio(s.project as f64, all.input as f64),
    );
    report.set("bin.ms_per_frame", ms(s.bin));
    report.set(
        "bin.ns_per_assignment",
        ratio(s.bin as f64, all.assignments as f64),
    );
    report.set("sort.ms_per_frame", ms(s.sort));
    report.set(
        "sort.ns_per_entry",
        ratio(s.sort as f64, all.entries as f64),
    );
    report.set("raster.ms_per_frame", ms(s.raster));
    report.set(
        "raster.ns_per_pixel_visit",
        ratio(s.raster as f64, all.pixel_visits as f64),
    );
    report.set("merge.ms_per_frame", ms(s.merge));
    report.set(
        "core.overhead_ms_per_frame",
        (all.engine_ns as f64 - s.total() as f64) / 1e6 / n,
    );
    report.set(
        "model.ns_per_work_unit",
        ratio(all.engine_ns as f64, all.work_units as f64),
    );
    report.set(
        "trace.overhead_share",
        ratio(
            all.replay_ns as f64 - all.engine_ns as f64,
            all.engine_ns as f64,
        ),
    );

    let p = &prefix;
    let per = |v: u64| ratio(v as f64, p.frames as f64);
    report.set("project.splats_out_per_frame", per(p.projected));
    report.set(
        "lod.clusters_culled_share",
        ratio(p.clusters_culled as f64, p.clusters_total as f64),
    );
    report.set(
        "lod.clusters_proxied_share",
        ratio(p.clusters_proxied as f64, p.clusters_total as f64),
    );
    report.set("lod.splats_visited_per_frame", per(p.splats_visited));
    report.set("bin.assignments_per_frame", per(p.assignments));
    report.set("sort.entries_per_frame", per(p.entries));
    report.set(
        "sort.incoming_share",
        ratio(p.incoming as f64, p.entries as f64),
    );
    report.set("sort.modeled_bytes_per_frame", per(p.sort_bytes));
    report.set("raster.pixel_visits_per_frame", per(p.pixel_visits));
    report.set("raster.blend_ops_per_frame", per(p.blend_ops));
    report.set(
        "raster.useful_visit_share",
        ratio(p.blend_ops as f64, p.pixel_visits as f64),
    );
    report.set("model.work_units_per_frame", per(p.work_units));
    report.set("model.dram_bytes_per_frame", per(p.dram_bytes));
    report.set(
        "core.shard_imbalance",
        ratio(p.imbalance_sum, p.frames as f64),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn imbalance_is_max_over_mean() {
        assert_eq!(imbalance_2(&[5, 5, 5, 5]), 1.0);
        // One heavy tile cannot be split: shards {9} and {1, 1, 1}.
        assert_eq!(imbalance_2(&[9, 1, 1, 1]), 9.0 / 6.0);
        assert_eq!(imbalance_2(&[]), 1.0);
    }
}
