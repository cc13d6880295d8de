//! Metric names, the run's result record, and its JSON line.

use std::collections::BTreeMap;

/// End-to-end metrics: `(name, unit)`. Printed by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("fps", "1/s"),
    ("frame_ms_p50", "ms"),
    ("frame_ms_p90", "ms"),
    ("latency_ms_p50", "ms"),
    ("psnr_db", "dB"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: `(name, unit, deterministic)`. Printed by every
/// traced run; a layer a workload does not exercise reads 0.
/// Deterministic metrics are counts of work that repeat exactly across
/// runs of the same code and seed; they feed the run's count digest.
pub const PER_LAYER: &[(&str, &str, bool)] = &[
    ("setup.scene_s", "s", false),
    ("setup.engine_s", "s", false),
    ("project.ms_per_frame", "ms", false),
    ("project.ns_per_input_splat", "ns", false),
    ("project.splats_out_per_frame", "count", true),
    ("lod.clusters_culled_share", "share", true),
    ("lod.clusters_proxied_share", "share", true),
    ("lod.splats_visited_per_frame", "count", true),
    ("bin.ms_per_frame", "ms", false),
    ("bin.ns_per_assignment", "ns", false),
    ("bin.assignments_per_frame", "count", true),
    ("sort.ms_per_frame", "ms", false),
    ("sort.ns_per_entry", "ns", false),
    ("sort.entries_per_frame", "count", true),
    ("sort.incoming_share", "share", true),
    ("sort.modeled_bytes_per_frame", "B", true),
    ("raster.ms_per_frame", "ms", false),
    ("raster.ns_per_pixel_visit", "ns", false),
    ("raster.pixel_visits_per_frame", "count", true),
    ("raster.blend_ops_per_frame", "count", true),
    ("raster.useful_visit_share", "share", true),
    ("merge.ms_per_frame", "ms", false),
    ("core.overhead_ms_per_frame", "ms", false),
    ("core.shard_speedup_2t", "x", false),
    ("core.shard_imbalance", "x", true),
    ("serve.render_ms_p50", "ms", false),
    ("serve.queue_wait_ms_p50", "ms", false),
    ("serve.queue_wait_ms_p99", "ms", false),
    ("serve.latency_ms_p99", "ms", false),
    ("serve.admission_lag_ms_max", "ms", false),
    ("serve.deadline_met_share", "share", false),
    ("serve.sessions_rejected", "count", false),
    ("serve.peak_active", "count", false),
    ("serve.frames_per_tick", "count", false),
    ("model.work_units_per_frame", "count", true),
    ("model.dram_bytes_per_frame", "B", true),
    ("model.ns_per_work_unit", "ns", false),
    ("trace.overhead_share", "share", false),
];

/// What one run measured and how many of its operations failed.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted: frames rendered, sessions offered, output
    /// checks made.
    pub attempted: u64,
    /// Operations that failed: render errors, refused sessions, failed
    /// output checks.
    pub failed: u64,
    values: BTreeMap<&'static str, f64>,
    failures: Vec<String>,
}

impl Report {
    /// Records one operation's outcome; `what` names a failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 16 {
                self.failures.push(what());
            }
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().any(|&(n, _)| n == name)
                || PER_LAYER.iter().any(|&(n, _, _)| n == name),
            "unknown metric {name}"
        );
        self.values.insert(name, value);
    }

    pub fn failures(&self) -> &[String] {
        &self.failures
    }

    /// The metrics one mode prints, with units, in table order. A metric
    /// the run did not set reads 0 (its layer is not on this workload's
    /// path); a non-finite value is a failed run.
    pub fn metrics(&self, traced: bool) -> Vec<(&'static str, f64, &'static str)> {
        let names: Vec<(&'static str, &'static str)> = if traced {
            PER_LAYER.iter().map(|&(n, u, _)| (n, u)).collect()
        } else {
            END_TO_END.to_vec()
        };
        names
            .into_iter()
            .map(|(n, u)| (n, self.values.get(n).copied().unwrap_or(0.0), u))
            .collect()
    }

    /// FNV-1a over the deterministic count metrics, so a change to the
    /// workload (rather than to its speed) shows as a changed digest.
    pub fn count_digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &(name, _, deterministic) in PER_LAYER {
            if !deterministic {
                continue;
            }
            let v = self.values.get(name).copied().unwrap_or(0.0);
            for b in name.bytes().chain(v.to_bits().to_le_bytes()) {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        h
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn json(&mut self, traced: bool) -> String {
        let metrics = self.metrics(traced);
        let mut body = Vec::with_capacity(metrics.len());
        for (name, value, unit) in metrics {
            let value = if value.is_finite() {
                value
            } else {
                self.check(false, || format!("metric {name} is not finite"));
                0.0
            };
            body.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            ));
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            body.join(", ")
        )
    }
}

/// A finite f64 as a JSON number with every digit Rust's shortest
/// round-trip formatting gives.
fn json_number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_every_metric_of_the_mode() {
        let mut r = Report::default();
        r.set("fps", 12.5);
        r.check(true, String::new);
        let line = r.json(false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        for (name, unit) in END_TO_END {
            assert!(
                line.contains(&format!("\"{name}\": {{\"value\": ")),
                "{name}"
            );
            assert!(line.contains(&format!("\"unit\": \"{unit}\"")), "{unit}");
        }
        assert!(line.contains("\"fps\": {\"value\": 12.5, \"unit\": \"1/s\"}"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.0,"));
    }

    #[test]
    fn non_finite_values_fail_the_run() {
        let mut r = Report::default();
        r.set("psnr_db", f64::INFINITY);
        let line = r.json(false);
        assert!(line.starts_with("{\"correct\": false"));
        assert_eq!(r.failed, 1);
    }

    #[test]
    fn digest_covers_only_counts() {
        let mut a = Report::default();
        a.set("sort.entries_per_frame", 10.0);
        let mut b = Report::default();
        b.set("sort.entries_per_frame", 10.0);
        b.set("sort.ms_per_frame", 3.0);
        assert_eq!(a.count_digest(), b.count_digest());
        b.set("sort.entries_per_frame", 11.0);
        assert_ne!(a.count_digest(), b.count_digest());
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let listed = |section: &str| -> Vec<(String, String)> {
            let start = text.find(&format!("\"{section}\"")).expect(section);
            let end = start + text[start..].find(']').expect("array end");
            text[start..end]
                .split("\"name\": \"")
                .skip(1)
                .map(|chunk| {
                    let name = chunk.split('"').next().expect("name").to_string();
                    let unit = chunk
                        .split("\"unit\": \"")
                        .nth(1)
                        .and_then(|u| u.split('"').next())
                        .expect("unit")
                        .to_string();
                    (name, unit)
                })
                .collect()
        };
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        let layer: Vec<(String, String)> = PER_LAYER
            .iter()
            .map(|&(n, u, _)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(listed("end_to_end"), e2e);
        assert_eq!(listed("per_layer"), layer);
    }
}
