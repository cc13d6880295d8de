//! Shared harness utilities for the figure/table reproduction binaries.
//!
//! Each binary under `src/bin/` regenerates one figure or table from the
//! paper, except `paper_figures`, which regenerates every figure that
//! reads the captured Tanks & Temples workloads from one capture per
//! scene × resolution. This crate provides the common pieces: aligned
//! text tables, JSON result records, ground-truth images and a parallel
//! map.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use neo_pipeline::{project_storage, render_oracle, Image};
use neo_scene::{FrameSampler, GaussianCloud};
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
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }

    /// The record as JSON, two-space indented with one value per line.
    /// Non-finite values are written as `null`, which JSON has in place
    /// of NaN and infinities.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"id\": ");
        push_json_string(&mut out, &self.id);
        out.push_str(",\n  \"description\": ");
        push_json_string(&mut out, &self.description);
        out.push_str(",\n  \"series\": ");
        push_json_array(&mut out, 1, &self.series, |out, (label, values)| {
            out.push_str("[\n      ");
            push_json_string(out, label);
            out.push_str(",\n      ");
            push_json_array(out, 3, values, |out, v| {
                out.push_str(&if v.is_finite() {
                    v.to_string()
                } else {
                    "null".into()
                });
            });
            out.push_str("\n    ]");
        });
        out.push_str("\n}");
        out
    }
}

/// Appends `s` as a JSON string literal.
fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends `items` as a JSON array nested `depth` levels deep: one item
/// per line, indented two spaces per level, or `[]` when empty.
fn push_json_array<T>(
    out: &mut String,
    depth: usize,
    items: &[T],
    mut push_item: impl FnMut(&mut String, &T),
) {
    if items.is_empty() {
        out.push_str("[]");
        return;
    }
    let indent = "  ".repeat(depth + 1);
    for (i, item) in items.iter().enumerate() {
        out.push_str(if i == 0 { "[\n" } else { ",\n" });
        out.push_str(&indent);
        push_item(out, item);
    }
    out.push('\n');
    out.push_str(&indent[2..]);
    out.push(']');
}

/// Formats bytes as gigabytes with one decimal.
pub fn gb(bytes: u64) -> String {
    format!("{:.1}", bytes as f64 / 1e9)
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
/// multi-scene harnesses (`paper_figures`, ...) fan out across cores.
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
        let mut r = ExperimentRecord::new("test_fig", "a \"quoted\"\tdemo\\\n\u{1}é");
        r.push_series(
            "fps",
            vec![1.0, 2.5, f64::NAN, -0.125, 1e-7, f64::INFINITY, 12345678.9],
        );
        r.push_series("empty", vec![]);
        assert_eq!(
            r.to_json(),
            "{\n  \"id\": \"test_fig\",\n  \"description\": \"a \\\"quoted\\\"\\tdemo\\\\\\n\\u0001é\",\n  \"series\": [\n    [\n      \"fps\",\n      [\n        1,\n        2.5,\n        null,\n        -0.125,\n        0.0000001,\n        null,\n        12345678.9\n      ]\n    ],\n    [\n      \"empty\",\n      []\n    ]\n  ]\n}"
        );
        assert_eq!(
            ExperimentRecord::new("e", "").to_json(),
            "{\n  \"id\": \"e\",\n  \"description\": \"\",\n  \"series\": []\n}"
        );
    }

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<u64> = (0..37).collect();
        let out = par_map(&items, |&x| x * x);
        assert_eq!(out, items.iter().map(|x| x * x).collect::<Vec<_>>());
        assert!(par_map::<u64, u64, _>(&[], |&x| x).is_empty());
    }
}
