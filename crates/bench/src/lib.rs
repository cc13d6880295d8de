//! Shared harness utilities for the figure/table reproduction binaries.
//!
//! Every binary under `src/bin/` regenerates one figure or table from the
//! paper (see `DESIGN.md` for the index). This crate provides the common
//! pieces: aligned text tables, JSON result records, and the
//! device-evaluation helpers the binaries share.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use neo_pipeline::{project_storage, render_oracle, Image};
use neo_scene::{presets::ScenePreset, FrameSampler, GaussianCloud, Resolution};
use neo_sim::devices::Device;
use serde::Serialize;
use std::path::PathBuf;

/// A text table with aligned columns for terminal output.
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given header.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(header: I) -> Self {
        Self {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (padded/truncated to the header width).
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) -> &mut Self {
        let mut row: Vec<String> = cells.into_iter().map(Into::into).collect();
        row.resize(self.header.len(), String::new());
        self.rows.push(row);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when there are no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(cols) {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// One experiment result record, serialized to `results/<id>.json` so the
/// regenerated figures are machine-readable.
#[derive(Debug, Clone)]
pub struct ExperimentRecord {
    /// Experiment identifier ("fig15", "table2", ...).
    pub id: String,
    /// One-line description.
    pub description: String,
    /// Arbitrary per-series data: `(label, values)`.
    pub series: Vec<(String, Vec<f64>)>,
}

impl Serialize for ExperimentRecord {
    fn write_json(&self, out: &mut String) {
        let mut ser = serde::StructSer::new(out);
        ser.field("id", &self.id)
            .field("description", &self.description)
            .field("series", &self.series);
        ser.end();
    }
}

impl ExperimentRecord {
    /// Creates a record.
    pub fn new(id: &str, description: &str) -> Self {
        Self {
            id: id.into(),
            description: description.into(),
            series: Vec::new(),
        }
    }

    /// Adds a named series.
    pub fn push_series(&mut self, label: impl Into<String>, values: Vec<f64>) {
        self.series.push((label.into(), values));
    }

    /// Writes the record to `results/<id>.json` under the workspace root
    /// (best effort: printing is the primary output, persistence is a
    /// convenience).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors from directory creation or writing.
    pub fn save(&self) -> std::io::Result<PathBuf> {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(|p| p.parent())
            .map(|p| p.join("results"))
            .unwrap_or_else(|| PathBuf::from("results"));
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{}.json", self.id));
        std::fs::write(
            &path,
            serde_json::to_string_pretty(self).expect("serializable"),
        )?;
        Ok(path)
    }
}

/// Formats bytes as gigabytes with one decimal.
pub fn gb(bytes: u64) -> String {
    format!("{:.1}", bytes as f64 / 1e9)
}

/// Mean FPS of `device` over a 60-frame captured workload for
/// `scene` × `resolution` (shared by Figures 3, 15, 16, 17).
pub fn device_fps(device: &dyn Device, scene: ScenePreset, resolution: Resolution) -> f64 {
    let frames = neo_workloads::experiments::scene_workload(scene, resolution);
    device.mean_fps(&frames)
}

/// Ground-truth images of the first `frames` frames of `sampler`:
/// [`render_oracle`] over the projected scene, on a black background.
/// The oracle computes in `f64`, covers each splat's whole α ≥ 1/255
/// ellipse and never terminates early, and it shares no tile, binning or
/// blend code with the renderers these images grade.
pub fn ground_truth(cloud: &GaussianCloud, sampler: &FrameSampler, frames: usize) -> Vec<Image> {
    (0..frames)
        .map(|i| {
            let cam = sampler.frame(i);
            let projected = project_storage(&cam, cloud);
            render_oracle(&projected, cam.width, cam.height, neo_math::Vec3::ZERO)
        })
        .collect()
}

/// Maps `f` over `items` on up to `available_parallelism` scoped threads,
/// preserving order. Workload captures per scene are independent, so the
/// multi-scene harnesses (Figures 15, 16, ...) fan out across cores.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    if items.is_empty() {
        return Vec::new();
    }
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(items.len());
    let mut out: Vec<Option<R>> = Vec::with_capacity(items.len());
    out.resize_with(items.len(), || None);
    let chunk = items.len().div_ceil(threads);
    std::thread::scope(|s| {
        for (slot_chunk, item_chunk) in out.chunks_mut(chunk).zip(items.chunks(chunk)) {
            let f = &f;
            s.spawn(move || {
                for (slot, item) in slot_chunk.iter_mut().zip(item_chunk) {
                    *slot = Some(f(item));
                }
            });
        }
    });
    out.into_iter().map(|r| r.expect("slot filled")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = TextTable::new(["Scene", "FPS"]);
        t.row(["Family", "99.3"]);
        t.row(["Train", "101.0"]);
        let s = t.render();
        assert!(s.contains("Family"));
        assert!(s.lines().count() == 4);
        // Header and data lines are equally wide.
        let widths: Vec<usize> = s.lines().map(|l| l.chars().count()).collect();
        assert_eq!(widths[0], widths[2]);
        assert!(!t.is_empty());
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn short_rows_are_padded() {
        let mut t = TextTable::new(["A", "B", "C"]);
        t.row(["only-one"]);
        assert!(t.render().contains("only-one"));
    }

    #[test]
    fn gb_formats() {
        assert_eq!(gb(19_600_000_000), "19.6");
        assert_eq!(gb(0), "0.0");
    }

    #[test]
    fn record_serializes() {
        let mut r = ExperimentRecord::new("test_fig", "demo");
        r.push_series("fps", vec![1.0, 2.0]);
        let json = serde_json::to_string(&r).unwrap();
        assert!(json.contains("test_fig"));
    }

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<u64> = (0..37).collect();
        let out = par_map(&items, |&x| x * x);
        assert_eq!(out, items.iter().map(|x| x * x).collect::<Vec<_>>());
        assert!(par_map::<u64, u64, _>(&[], |&x| x).is_empty());
    }
}
