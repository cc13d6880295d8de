//! The paper's figures that run on captured Tanks & Temples workloads,
//! from one capture per (scene, resolution) cell.
//!
//! The six scenes are captured once each at HD, FHD and QHD (60 frames
//! at `CAPTURE_SCALE`, 18 cells, fanned out across cores). Every section
//! below then reads those frames, prints its tables and saves its
//! `results/<id>.json`:
//!
//! - `fig03`: GSCore FPS at HD/FHD/QHD (4 cores, 51.2 GB/s);
//! - `fig04`: GSCore QHD FPS across cores × DRAM bandwidth;
//! - `fig05`: DRAM traffic per 60 frames and its stage breakdown, GPU
//!   and GSCore;
//! - `fig10`: original 3DGS vs software-only Neo on the Orin AGX;
//! - `fig15`: end-to-end FPS of Orin AGX, GSCore and Neo;
//! - `fig16`: DRAM traffic per 60 QHD frames;
//! - `fig18`: the GSCore → Neo-S → Neo hardware ablation;
//! - `extension_energy`: per-frame energy, GSCore vs Neo (not a paper
//!   figure);
//! - `ablation_depth_update`: deferred depth update (Section 4.4), in
//!   the device model and in the live sorters;
//! - `validate_cycle_model`: the event-driven Sorting Engine model vs
//!   the analytic stage model;
//! - `calibrate`: steady-state workload statistics (no record).
//!
//! Run: `cargo run --release -p neo-bench --bin paper_figures`

use neo_bench::{par_map, ExperimentRecord, TextTable};
use neo_core::{RenderEngine, RendererConfig};
use neo_pipeline::Stage;
use neo_scene::{presets::ScenePreset, Resolution};
use neo_sim::asic::{frame_energy_mj, gscore_totals, LPDDR4_PJ_PER_BYTE};
use neo_sim::cycle::{jobs_from_tables, simulate_sorting_engine};
use neo_sim::devices::{Device, GsCore, NeoDevice, OrinAgx};
use neo_sim::dram::DramModel;
use neo_sim::WorkloadFrame;
use neo_workloads::capture::steady_state_mean;
use neo_workloads::experiments::{scene_workload, RESOLUTIONS};

/// Leading frames `calibrate` and `validate_cycle_model` average: the
/// short window they were calibrated on, a prefix of each 60-frame
/// capture.
const SHORT_WINDOW: usize = 10;

/// The 60-frame captures of every Tanks & Temples scene × resolution.
struct Captures {
    /// `(scene, resolution, frames)` in `TANKS_AND_TEMPLES` × `RESOLUTIONS`
    /// order.
    cells: Vec<(ScenePreset, Resolution, Vec<WorkloadFrame>)>,
    /// The six scenes' QHD frames, concatenated in scene order.
    qhd: Vec<WorkloadFrame>,
}

impl Captures {
    fn capture() -> Self {
        let keys: Vec<(ScenePreset, Resolution)> = ScenePreset::TANKS_AND_TEMPLES
            .iter()
            .flat_map(|&s| RESOLUTIONS.iter().map(move |&r| (s, r)))
            .collect();
        let frames = par_map(&keys, |&(s, r)| scene_workload(s, r));
        let cells: Vec<_> = keys
            .into_iter()
            .zip(frames)
            .map(|((s, r), f)| (s, r, f))
            .collect();
        let qhd = cells
            .iter()
            .filter(|(_, r, _)| *r == Resolution::Qhd)
            .flat_map(|(_, _, f)| f.iter().copied())
            .collect();
        Self { cells, qhd }
    }

    fn cell(&self, scene: ScenePreset, resolution: Resolution) -> &[WorkloadFrame] {
        self.cells
            .iter()
            .find(|(s, r, _)| *s == scene && *r == resolution)
            .map(|(_, _, f)| f.as_slice())
            .expect("every Tanks & Temples scene × resolution is captured")
    }
}

fn save(record: &ExperimentRecord) {
    if let Ok(p) = record.save() {
        println!("saved {}", p.display());
    }
}

fn fig03(cap: &Captures) {
    let gscore = GsCore::paper_default();
    println!("Figure 3 — GSCore FPS vs resolution (4 cores, 51.2 GB/s)\n");

    let mut table = TextTable::new(["Scene", "HD", "FHD", "QHD"]);
    let mut record = ExperimentRecord::new("fig03", "GSCore FPS at HD/FHD/QHD, 4 cores, 51.2 GB/s");
    let mut means = [0.0f64; 3];

    for scene in ScenePreset::TANKS_AND_TEMPLES {
        let fps: Vec<f64> = RESOLUTIONS
            .iter()
            .map(|&res| gscore.mean_fps(cap.cell(scene, res)))
            .collect();
        for (m, f) in means.iter_mut().zip(&fps) {
            *m += f / 6.0;
        }
        table.row([
            scene.name().to_string(),
            format!("{:.1}", fps[0]),
            format!("{:.1}", fps[1]),
            format!("{:.1}", fps[2]),
        ]);
        record.push_series(scene.name(), fps);
    }
    table.row([
        "MEAN".to_string(),
        format!("{:.1}", means[0]),
        format!("{:.1}", means[1]),
        format!("{:.1}", means[2]),
    ]);
    println!("{}", table.render());
    println!(
        "Paper reference: HD 66.7 / FHD 31.1 / QHD 15.8 FPS (means); shape\n\
         to check: monotone collapse with resolution, QHD ≪ 60 FPS SLO."
    );
    save(&record);
}

fn fig04(cap: &Captures) {
    println!("Figure 4 — GSCore QHD FPS vs cores × DRAM bandwidth\n");
    let workloads = &cap.qhd;

    let bandwidths = [
        ("51.2 GB/s", DramModel::lpddr4_51_2()),
        ("102.4 GB/s", DramModel::lpddr4_102_4()),
        ("204.8 GB/s", DramModel::lpddr5_204_8()),
    ];
    let cores = [4u32, 8, 16];

    let mut table = TextTable::new(["Bandwidth", "4 cores", "8 cores", "16 cores"]);
    let mut record = ExperimentRecord::new("fig04", "GSCore QHD FPS vs cores and bandwidth");
    for (label, dram) in &bandwidths {
        let fps: Vec<f64> = cores
            .iter()
            .map(|&c| GsCore::new(c, *dram).mean_fps(workloads))
            .collect();
        table.row([
            label.to_string(),
            format!("{:.1}", fps[0]),
            format!("{:.1}", fps[1]),
            format!("{:.1}", fps[2]),
        ]);
        record.push_series(*label, fps);
    }
    println!("{}", table.render());

    let base = GsCore::new(4, DramModel::lpddr4_51_2()).mean_fps(workloads);
    let core_gain = GsCore::new(16, DramModel::lpddr4_51_2()).mean_fps(workloads) / base;
    let bw_gain = GsCore::new(4, DramModel::lpddr5_204_8()).mean_fps(workloads) / base;
    println!(
        "4→16 cores at 51.2 GB/s: {core_gain:.2}×   |   51.2→204.8 GB/s at 4 cores: {bw_gain:.2}×"
    );
    println!(
        "\nPaper reference: rows 15.4/17.0/17.3, 24.3/31.4/34.6, 34.4/50.8/66.3;\n\
         shape to check: core scaling ≈1.1× under 51.2 GB/s, bandwidth scaling ≫ core scaling."
    );
    save(&record);
}

fn fig05_breakdown(
    cap: &Captures,
    device: &dyn Device,
    label: &str,
    record: &mut ExperimentRecord,
) {
    let mut table = TextTable::new(["Res", "Total GB", "FeatExt %", "Sorting %", "Raster %"]);
    for &res in &RESOLUTIONS {
        let mut stage_bytes = [0u64; 3];
        for scene in ScenePreset::TANKS_AND_TEMPLES {
            for w in cap.cell(scene, res) {
                let t = device.simulate_frame(w);
                for (i, s) in t.stages.iter().enumerate() {
                    stage_bytes[i] += s.bytes;
                }
            }
        }
        // Mean over the six scenes.
        let total: u64 = stage_bytes.iter().sum::<u64>() / 6;
        let stage_bytes: Vec<u64> = stage_bytes.iter().map(|b| b / 6).collect();
        let pct = |i: usize| 100.0 * stage_bytes[i] as f64 / total.max(1) as f64;
        table.row([
            res.label(),
            format!("{:.1}", total as f64 / 1e9),
            format!("{:.1}", pct(0)),
            format!("{:.1}", pct(1)),
            format!("{:.1}", pct(2)),
        ]);
        record.push_series(
            format!("{label}-{}", res.label()),
            vec![total as f64 / 1e9, pct(0), pct(1), pct(2)],
        );
    }
    println!(
        "({label}) traffic for 60 frames, mean of six scenes:\n{}",
        table.render()
    );
}

fn fig05(cap: &Captures) {
    println!("Figure 5 — DRAM traffic breakdown, 60 frames\n");
    let mut record = ExperimentRecord::new(
        "fig05",
        "DRAM traffic (GB/60 frames) and stage shares for GPU and GSCore",
    );
    fig05_breakdown(cap, &OrinAgx::new(), "GPU", &mut record);
    fig05_breakdown(cap, &GsCore::scaled_16(), "GSCore", &mut record);
    println!(
        "Paper reference: sorting ({}) dominates — up to 90.8% on GPU and 69.3% on GSCore;\n\
         GPU QHD ≈ 282 GB, GSCore QHD ≈ 90 GB per 60 frames.",
        Stage::Sorting.name()
    );
    save(&record);
}

fn fig10(cap: &Captures) {
    println!("Figure 10 — original 3DGS vs Neo-SW on Orin AGX (QHD, 60 frames)\n");
    let workloads = &cap.qhd;
    let n_scenes = 6u64;

    let orin = OrinAgx::new();
    let neo_sw = OrinAgx::new().neo_sw();

    let mut record = ExperimentRecord::new(
        "fig10",
        "Orin AGX: original 3DGS vs software Neo — traffic and latency breakdown",
    );

    let mut traffic = TextTable::new([
        "System",
        "FeatExt GB",
        "Sorting GB",
        "Raster GB",
        "Total GB",
    ]);
    let mut latency = TextTable::new([
        "System",
        "FeatExt ms",
        "Sorting ms",
        "Raster ms",
        "Total ms",
    ]);
    for (label, dev) in [("Original 3DGS", &orin as &dyn Device), ("Neo-SW", &neo_sw)] {
        let mut bytes = [0u64; 3];
        let mut lat = [0.0f64; 3];
        let n_frames = workloads.len() as f64;
        for w in workloads {
            let t = dev.simulate_frame(w);
            for (i, s) in t.stages.iter().enumerate() {
                bytes[i] += s.bytes;
                lat[i] += s.latency_s() * 1e3;
            }
        }
        let total_gb: f64 = bytes.iter().sum::<u64>() as f64 / n_scenes as f64 / 1e9;
        traffic.row([
            label.to_string(),
            format!("{:.1}", bytes[0] as f64 / n_scenes as f64 / 1e9),
            format!("{:.1}", bytes[1] as f64 / n_scenes as f64 / 1e9),
            format!("{:.1}", bytes[2] as f64 / n_scenes as f64 / 1e9),
            format!("{:.1}", total_gb),
        ]);
        let mean_lat: Vec<f64> = lat.iter().map(|l| l / n_frames).collect();
        latency.row([
            label.to_string(),
            format!("{:.1}", mean_lat[0]),
            format!("{:.1}", mean_lat[1]),
            format!("{:.1}", mean_lat[2]),
            format!("{:.1}", mean_lat.iter().sum::<f64>()),
        ]);
        record.push_series(
            format!("{label}-traffic-gb"),
            bytes
                .iter()
                .map(|&b| b as f64 / n_scenes as f64 / 1e9)
                .collect(),
        );
        record.push_series(format!("{label}-latency-ms"), mean_lat);
    }
    println!(
        "(a) DRAM traffic per 60 frames (mean of six scenes):\n{}",
        traffic.render()
    );
    println!("(b) per-frame latency breakdown:\n{}", latency.render());

    let t0 = orin.total_traffic(workloads) as f64;
    let t1 = neo_sw.total_traffic(workloads) as f64;
    let l0: f64 = workloads
        .iter()
        .map(|w| orin.simulate_frame(w).latency_s())
        .sum();
    let l1: f64 = workloads
        .iter()
        .map(|w| neo_sw.simulate_frame(w).latency_s())
        .sum();
    println!(
        "traffic cut: {:.1}%   end-to-end speedup: {:.2}×",
        (1.0 - t1 / t0) * 100.0,
        l0 / l1
    );
    println!(
        "\nPaper reference: 282 GB → 48 GB traffic (70.4% cut, 82.8% in sorting)\n\
         but only ~1.1× latency (sorting 26.6 → 17.3 ms; rasterization unchanged)."
    );
    save(&record);
}

fn fig15(cap: &Captures) {
    println!("Figure 15 — end-to-end throughput (FPS)\n");
    let mut record = ExperimentRecord::new("fig15", "End-to-end FPS per scene/resolution/device");
    let mut table = TextTable::new([
        "Scene",
        "Res",
        "Orin AGX",
        "GSCore",
        "Neo",
        "Neo/Orin",
        "Neo/GSCore",
    ]);
    let mut sums = vec![[0.0f64; 3]; RESOLUTIONS.len()];
    let orin = OrinAgx::new();
    let gscore = GsCore::scaled_16();
    let neo = NeoDevice::paper_default();

    for scene in ScenePreset::TANKS_AND_TEMPLES {
        for (ri, &res) in RESOLUTIONS.iter().enumerate() {
            let frames = cap.cell(scene, res);
            let fps = vec![
                orin.mean_fps(frames),
                gscore.mean_fps(frames),
                neo.mean_fps(frames),
            ];
            for (s, f) in sums[ri].iter_mut().zip(&fps) {
                *s += f / 6.0;
            }
            table.row([
                scene.name().to_string(),
                res.label(),
                format!("{:.1}", fps[0]),
                format!("{:.1}", fps[1]),
                format!("{:.1}", fps[2]),
                format!("{:.1}×", fps[2] / fps[0]),
                format!("{:.1}×", fps[2] / fps[1]),
            ]);
            record.push_series(format!("{}-{}", scene.name(), res.label()), fps);
        }
    }
    for (ri, &res) in RESOLUTIONS.iter().enumerate() {
        let m = sums[ri];
        table.row([
            "MEAN".to_string(),
            res.label(),
            format!("{:.1}", m[0]),
            format!("{:.1}", m[1]),
            format!("{:.1}", m[2]),
            format!("{:.1}×", m[2] / m[0]),
            format!("{:.1}×", m[2] / m[1]),
        ]);
        record.push_series(format!("MEAN-{}", res.label()), m.to_vec());
    }
    println!("{}", table.render());
    println!(
        "Paper reference: Neo speedups 5.0/7.2/10.0× over Orin and 1.8/3.3/5.6×\n\
         over GSCore at HD/FHD/QHD; Neo ≈ 99.3 FPS mean at QHD (real-time)."
    );
    save(&record);
}

fn fig16(cap: &Captures) {
    println!("Figure 16 — DRAM traffic for 60 frames at QHD (GB)\n");
    let orin = OrinAgx::new();
    let gscore = GsCore::scaled_16();
    let neo = NeoDevice::paper_default();

    let mut table = TextTable::new(["Scene", "Orin AGX", "GSCore", "Neo", "vs Orin", "vs GSCore"]);
    let mut record = ExperimentRecord::new("fig16", "DRAM traffic (GB) per 60 QHD frames");
    let mut totals = [0.0f64; 3];

    for scene in ScenePreset::TANKS_AND_TEMPLES {
        let frames = cap.cell(scene, Resolution::Qhd);
        let gb: Vec<f64> = [&orin as &dyn Device, &gscore, &neo]
            .iter()
            .map(|d| d.total_traffic(frames) as f64 / 1e9)
            .collect();
        for (t, g) in totals.iter_mut().zip(&gb) {
            *t += g / 6.0;
        }
        table.row([
            scene.name().to_string(),
            format!("{:.1}", gb[0]),
            format!("{:.1}", gb[1]),
            format!("{:.1}", gb[2]),
            format!("-{:.1}%", (1.0 - gb[2] / gb[0]) * 100.0),
            format!("-{:.1}%", (1.0 - gb[2] / gb[1]) * 100.0),
        ]);
        record.push_series(scene.name(), gb);
    }
    table.row([
        "MEAN".to_string(),
        format!("{:.1}", totals[0]),
        format!("{:.1}", totals[1]),
        format!("{:.1}", totals[2]),
        format!("-{:.1}%", (1.0 - totals[2] / totals[0]) * 100.0),
        format!("-{:.1}%", (1.0 - totals[2] / totals[1]) * 100.0),
    ]);
    println!("{}", table.render());
    println!(
        "Paper reference: means 346.5 GB (Orin) / 104.6 GB (GSCore) / 19.6 GB (Neo):\n\
         94.4% and 81.3% reductions respectively."
    );
    save(&record);
}

fn fig18(cap: &Captures) {
    println!("Figure 18 — ablation: GSCore / Neo-S / Neo (QHD, six-scene mean)\n");
    let workloads = &cap.qhd;

    let gscore = GsCore::scaled_16();
    let neo_s = NeoDevice::paper_default().sorting_engine_only();
    let neo = NeoDevice::paper_default();

    let base_latency: f64 = workloads
        .iter()
        .map(|w| gscore.simulate_frame(w).latency_s())
        .sum();
    let base_traffic = gscore.total_traffic(workloads) as f64;

    let mut table = TextTable::new(["System", "Speedup", "Relative traffic"]);
    let mut record =
        ExperimentRecord::new("fig18", "Ablation speedup and traffic normalized to GSCore");
    for (label, dev) in [
        ("GSCore", &gscore as &dyn Device),
        ("Neo-S", &neo_s),
        ("Neo", &neo),
    ] {
        let lat: f64 = workloads
            .iter()
            .map(|w| dev.simulate_frame(w).latency_s())
            .sum();
        let traffic = dev.total_traffic(workloads) as f64;
        let speedup = base_latency / lat;
        let rel = traffic / base_traffic;
        table.row([
            label.to_string(),
            format!("{speedup:.2}×"),
            format!("{rel:.3}"),
        ]);
        record.push_series(label, vec![speedup, rel]);
    }
    println!("{}", table.render());
    println!(
        "Paper reference: Neo-S cuts traffic 71.1% and speeds up 3.3× over GSCore;\n\
         the full Neo adds a further 35.8% traffic cut and 1.7× speedup."
    );
    save(&record);
}

/// Per-frame energy, which the paper does not report: Table 3–4 power
/// over the stage latencies plus DRAM access energy, where Neo's
/// traffic reduction pays a second time.
fn extension_energy(cap: &Captures) {
    println!("Extension — per-frame energy at QHD (Table 3/4 power × stage time + DRAM)\n");
    let workloads = &cap.qhd;
    let n = workloads.len() as f64;

    let gscore = GsCore::scaled_16();
    let neo = NeoDevice::paper_default();
    let (_, gscore_power_mw) = gscore_totals();

    let mut table = TextTable::new([
        "System",
        "compute mJ",
        "DRAM mJ",
        "total mJ/frame",
        "mJ per 60 frames",
    ]);
    let mut record =
        ExperimentRecord::new("extension_energy", "per-frame energy: GSCore vs Neo at QHD");

    // GSCore: its whole power budget for the whole frame (coarser model —
    // no per-engine breakdown is published for the scaled configuration).
    let mut gs_compute = 0.0;
    let mut gs_dram = 0.0;
    for w in workloads {
        let t = gscore.simulate_frame(w);
        gs_compute += t.latency_s() * gscore_power_mw; // mW × s = mJ
        gs_dram += t.total_bytes() as f64 * LPDDR4_PJ_PER_BYTE * 1e-9; // mJ
    }
    let (gs_c, gs_d) = (gs_compute / n, gs_dram / n);
    table.row([
        "GSCore".to_string(),
        format!("{gs_c:.2}"),
        format!("{gs_d:.2}"),
        format!("{:.2}", gs_c + gs_d),
        format!("{:.0}", (gs_c + gs_d) * 60.0),
    ]);
    record.push_series("gscore", vec![gs_c, gs_d]);

    // Neo: per-engine power over per-stage latency.
    let mut neo_total = 0.0;
    let mut neo_dram = 0.0;
    for w in workloads {
        let t = neo.simulate_frame(w);
        let secs = [
            t.stages[0].latency_s(),
            t.stages[1].latency_s(),
            t.stages[2].latency_s(),
        ];
        let bytes = [t.stages[0].bytes, t.stages[1].bytes, t.stages[2].bytes];
        neo_total += frame_energy_mj(secs, bytes, LPDDR4_PJ_PER_BYTE);
        neo_dram += bytes.iter().sum::<u64>() as f64 * LPDDR4_PJ_PER_BYTE * 1e-9;
    }
    let neo_mj = neo_total / n;
    let neo_d = neo_dram / n;
    table.row([
        "Neo".to_string(),
        format!("{:.2}", neo_mj - neo_d),
        format!("{neo_d:.2}"),
        format!("{neo_mj:.2}"),
        format!("{:.0}", neo_mj * 60.0),
    ]);
    record.push_series("neo", vec![neo_mj - neo_d, neo_d]);

    println!("{}", table.render());
    println!(
        "Energy ratio (GSCore / Neo): {:.1}× — latency reduction and traffic\n\
         reduction compound: the sorting engine both finishes sooner and moves\n\
         far fewer DRAM bytes per frame.",
        (gs_c + gs_d) / neo_mj
    );
    save(&record);
}

/// Section 4.4: without piggybacking the depth refresh on rasterization,
/// the table needs an extra random-access memory pass (the paper reports
/// +33.2% traffic).
fn ablation_depth_update(cap: &Captures) {
    println!("Ablation — deferred depth update (Section 4.4)\n");
    let workloads = &cap.qhd;
    let mut record = ExperimentRecord::new(
        "ablation_depth_update",
        "traffic/latency with and without deferred depth updates",
    );

    // Hardware model view.
    let neo = NeoDevice::paper_default();
    let eager = NeoDevice::paper_default().without_deferred_depth_update();
    let mut hw = TextTable::new(["Config", "GB / 60 frames", "mean ms", "overhead"]);
    let base_traffic = neo.total_traffic(workloads) as f64 / 6.0;
    for (label, dev) in [("deferred (Neo)", &neo), ("separate pass", &eager)] {
        let traffic = dev.total_traffic(workloads) as f64 / 6.0;
        let lat: f64 = workloads
            .iter()
            .map(|w| dev.simulate_frame(w).latency_ms())
            .sum::<f64>()
            / workloads.len() as f64;
        hw.row([
            label.to_string(),
            format!("{:.1}", traffic / 1e9),
            format!("{lat:.2}"),
            format!("{:+.1}%", (traffic / base_traffic - 1.0) * 100.0),
        ]);
        record.push_series(label, vec![traffic / 1e9, lat]);
    }
    println!("(a) hardware model (QHD, six-scene mean):\n{}", hw.render());

    // Algorithm view: measured sorting bytes from the live sorters.
    let cloud = std::sync::Arc::new(ScenePreset::Family.build_scaled(0.005));
    let sampler = neo_scene::FrameSampler::new(
        ScenePreset::Family.trajectory(),
        30.0,
        Resolution::Custom(640, 360),
    );
    let mut algo = TextTable::new(["Config", "sort KB/frame"]);
    for (label, deferred) in [("deferred (Neo)", true), ("separate pass", false)] {
        let mut cfg = RendererConfig::default().without_image();
        if !deferred {
            cfg = cfg.without_deferred_depth_update();
        }
        let engine = RenderEngine::builder()
            .scene(std::sync::Arc::clone(&cloud))
            .config(cfg)
            .build()
            .expect("ablation configuration is valid");
        let mut session = engine.session();
        let mut bytes = 0u64;
        let mut counted = 0u64;
        for i in 0..10 {
            let fr = session
                .render_frame(&sampler.frame(i))
                .expect("trajectory camera");
            if i >= 2 {
                bytes += fr.sort_cost.bytes_total();
                counted += 1;
            }
        }
        algo.row([label.to_string(), format!("{}", bytes / counted / 1024)]);
        record.push_series(format!("algo-{label}"), vec![(bytes / counted) as f64]);
    }
    println!(
        "(b) measured sorting traffic in the live algorithm:\n{}",
        algo.render()
    );
    println!("Paper reference: +33.2% traffic without deferred depth updates.");
    save(&record);
}

/// The event-driven cycle model of the Sorting Engine against
/// `NeoDevice`'s analytic `max(compute, traffic/bandwidth)` sorting
/// stage, across Figure 4's core-count × bandwidth grid. If the analytic
/// abstraction is sound, the two agree within tens of percent
/// everywhere.
fn validate_cycle_model(cap: &Captures) {
    println!("Cycle-model validation — Sorting Engine, Family @ QHD\n");
    let w = steady_state_mean(&cap.cell(ScenePreset::Family, Resolution::Qhd)[..SHORT_WINDOW]);
    let mean_table = (w.table_entries / w.occupied_tiles.max(1)) as u32;
    let tables = vec![mean_table; w.occupied_tiles as usize];
    let jobs = jobs_from_tables(&tables, 256);

    let mut table = TextTable::new(["Bandwidth", "Cores", "cycle ms", "analytic ms", "ratio"]);
    let mut record = ExperimentRecord::new(
        "validate_cycle_model",
        "event-driven vs analytic sorting-stage latency",
    );
    let mut worst: f64 = 1.0;
    for (label, dram) in [
        ("51.2", DramModel::lpddr4_51_2()),
        ("102.4", DramModel::lpddr4_102_4()),
        ("204.8", DramModel::lpddr5_204_8()),
    ] {
        for cores in [4usize, 8, 16] {
            let r = simulate_sorting_engine(&jobs, cores, &dram, 1e9);
            let cyc_ms = r.seconds(1e9) * 1e3;
            let neo = NeoDevice {
                sorting_cores: cores as u32,
                dram,
                ..NeoDevice::paper_default()
            };
            let ana_ms = neo.simulate_frame(&w).stages[1].latency_s() * 1e3;
            let ratio = cyc_ms / ana_ms;
            worst = worst.max(ratio.max(1.0 / ratio));
            table.row([
                format!("{label} GB/s"),
                cores.to_string(),
                format!("{cyc_ms:.2}"),
                format!("{ana_ms:.2}"),
                format!("{ratio:.2}"),
            ]);
            record.push_series(format!("{label}-{cores}"), vec![cyc_ms, ana_ms]);
        }
    }
    println!("{}", table.render());
    println!("worst-case disagreement: {worst:.2}× — the analytic stage model is a faithful\nabstraction of the queueing behaviour (expected < 2×).");
    save(&record);
}

/// Steady-state workload statistics of Family and Train at HD and QHD,
/// the numbers the device models were calibrated against.
fn calibrate(cap: &Captures) {
    for res in [Resolution::Hd, Resolution::Qhd] {
        for scene in [ScenePreset::Family, ScenePreset::Train] {
            let w = steady_state_mean(&cap.cell(scene, res)[..SHORT_WINDOW]);
            println!(
                "{:<12} {:>4}: N={:>9} proj={:>9} dup={:>10} tiles/g={:.2} occ={:>4} inc={:>8} out={:>8} table={:>10}",
                scene.name(), res.label(), w.n_gaussians, w.n_projected, w.duplicates,
                w.duplicates as f64 / w.n_projected.max(1) as f64,
                w.occupied_tiles, w.incoming, w.outgoing, w.table_entries
            );
        }
    }
}

/// A printed section: its record id and the function that prints it.
type Section = (&'static str, fn(&Captures));

fn main() {
    let cap = Captures::capture();
    let sections: [Section; 11] = [
        ("fig03", fig03),
        ("fig04", fig04),
        ("fig05", fig05),
        ("fig10", fig10),
        ("fig15", fig15),
        ("fig16", fig16),
        ("fig18", fig18),
        ("extension_energy", extension_energy),
        ("ablation_depth_update", ablation_depth_update),
        ("validate_cycle_model", validate_cycle_model),
        ("calibrate", calibrate),
    ];
    for (id, section) in sections {
        println!("=== {id} ===");
        section(&cap);
    }
}
