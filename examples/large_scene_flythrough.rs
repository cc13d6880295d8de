//! Large-scene flythrough: reuse-and-update sorting over a Mill 19
//! style aerial scene — per-frame churn (incoming/outgoing Gaussians),
//! the share of table entries that arrive new, and the sorting traffic
//! as the camera sweeps, the stress scenario of Figure 17(a).
//!
//! Each tile's table is carried across frames: newcomers are
//! chunk-sorted and merged in, departures dropped, and the inherited
//! order repaired by one Dynamic Partial Sorting pass, so the sorting
//! traffic stays near one pass over the table.
//!
//! Run: `cargo run --release --example large_scene_flythrough`

use neo_core::{NeoError, Parallelism, RenderEngine, RendererConfig, StrategyKind};
use neo_scene::{presets::ScenePreset, FrameSampler, Resolution};
use neo_sim::devices::{Device, NeoDevice};
use neo_sim::WorkloadFrame;

fn main() -> Result<(), NeoError> {
    let scene = ScenePreset::Building;
    // 0.2% of 5.4M Gaussians ≈ 10.8k — enough for stable statistics.
    let scale = 0.002;
    // Large frames are where the intra-frame worker pool pays off: shard
    // each frame's tiles across every available core. Output is
    // byte-identical to serial rendering at any thread count, and each
    // tile's table, being per-tile session state, shards with it.
    let config = RendererConfig::default()
        .without_image()
        .with_parallelism(Parallelism::Auto);
    println!(
        "intra-frame parallelism: {} worker thread(s)",
        config.effective_threads()
    );
    let engine = RenderEngine::builder()
        .scene(scene.build_scaled(scale))
        .config(config)
        .strategy(StrategyKind::ReuseUpdate)
        .build()?;
    println!("sorting strategy: {}", engine.strategy_name());
    let cloud = std::sync::Arc::clone(engine.scene());
    // Bytes per feature record, at the cloud's max SH degree.
    let feature_bytes = cloud.record_bytes() as u64;
    let sampler = FrameSampler::new(scene.trajectory(), 30.0, Resolution::Qhd);
    let mut session = engine.session();
    let device = NeoDevice::paper_default();
    let inv = 1.0 / scale;

    println!(
        "flythrough over '{}' ({}k Gaussians instantiated, ~{:.1}M at full scale)\n",
        scene.name(),
        cloud.len() / 1000,
        cloud.len() as f64 * inv / 1e6
    );
    println!(
        "frame | table entries | incoming | outgoing | incoming share | sort KB | est. FPS (Neo hw)"
    );
    println!(
        "------+---------------+----------+----------+----------------+---------+------------------"
    );
    for i in 0..24 {
        let cam = sampler.frame(i);
        let fr = session.render_frame(&cam)?;
        let s = |v: usize| (v as f64 * inv).round() as u64;
        let w = WorkloadFrame {
            n_gaussians: s(cloud.len()),
            n_projected: s(fr.stats.projected),
            duplicates: s(fr.stats.duplicates),
            occupied_tiles: fr.stats.occupied_tiles as u64,
            pixels: 2560 * 1440,
            incoming: s(fr.incoming),
            outgoing: s(fr.outgoing),
            table_entries: (fr.total_table_entries() as f64 * inv).round() as u64,
            blend_ops: (2560.0 * 1440.0 * neo_sim::BLEND_OVERDRAW) as u64,
            feature_bytes,
        };
        let fps = device.simulate_frame(&w).fps();
        let entries = fr.total_table_entries();
        let share = if entries == 0 {
            0.0
        } else {
            fr.incoming as f64 / entries as f64
        };
        println!(
            "  {i:>3} | {:>13} | {:>8} | {:>8} | {:>13.1}% | {:>7} | {fps:>8.1}",
            w.table_entries,
            w.incoming,
            w.outgoing,
            share * 100.0,
            fr.sort_cost.bytes_total() / 1024
        );
    }
    println!(
        "\nEven with millions of Gaussians, per-frame churn stays a small fraction\n\
         of the table, so after the first frame each tile's sort is one pass over\n\
         its inherited table plus the few newcomers."
    );
    Ok(())
}
