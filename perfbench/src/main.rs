//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <flythrough_raster|city_lod_capture|serve_sessions|all> \
//!     [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! ```
//!
//! An untraced run (`--trace 0`) times the engine's public entry points
//! and prints the end-to-end metrics; a traced run (`--trace 1`) replays
//! every frame through the layers' public functions, times each call,
//! checks that the replay reproduces the engine, and prints the
//! per-layer metrics. The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed`, `metrics`. A table of every
//! metric goes to standard error. `METRICS.md` documents them.

mod replay;
mod report;
mod serve;
mod setup;
mod stats;
mod stream;
mod trace;

use neo_pipeline::Image;
use report::Report;
use std::time::Duration;

/// The seed used when none is given. Seed 2 is held out: a claim is
/// checked on it after the change was written against this one.
const DEFAULT_SEED: u64 = 1;

/// PSNR reported when every compared frame is identical (infinite PSNR
/// has no JSON number).
const PSNR_CAP_DB: f64 = 100.0;

const WORKLOADS: [&str; 3] = ["flythrough_raster", "city_lod_capture", "serve_sessions"];

const USAGE: &str =
    "usage: neo-perfbench --workload <flythrough_raster|city_lod_capture|serve_sessions|all> \
[--seed N] [--seconds S] [--trace 0|1] [--smoke]";

/// Arguments shared by every workload.
pub struct RunArgs {
    pub seed: u64,
    /// How long the timed (or traced) loop runs, at least.
    pub duration: Duration,
    /// Tiny inputs that run end to end in seconds, for testing.
    pub smoke: bool,
}

struct Cli {
    workload: String,
    traced: bool,
    run: RunArgs,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: String::new(),
        traced: false,
        run: RunArgs {
            seed: DEFAULT_SEED,
            duration: Duration::from_secs(30),
            smoke: false,
        },
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            cli.run.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => cli.workload.clone_from(value),
            "--seed" => cli.run.seed = number()?,
            "--seconds" => cli.run.duration = Duration::from_secs(number()?),
            "--trace" => {
                cli.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if cli.run.smoke {
        cli.run.duration = Duration::ZERO;
    }
    if cli.workload != "all" && !WORKLOADS.contains(&cli.workload.as_str()) {
        return Err(format!("unknown workload '{}'", cli.workload));
    }
    Ok(cli)
}

/// Runs one workload in one mode.
fn run_workload(name: &str, traced: bool, args: &RunArgs) -> Report {
    let mut report = Report::default();
    match (name, traced) {
        ("flythrough_raster", false) => {
            stream::run(&stream::flythrough(args.smoke), args, &mut report)
        }
        ("flythrough_raster", true) => {
            stream::run_traced(&stream::flythrough(args.smoke), args, &mut report)
        }
        ("city_lod_capture", false) => stream::run(&stream::city(args.smoke), args, &mut report),
        ("city_lod_capture", true) => {
            stream::run_traced(&stream::city(args.smoke), args, &mut report)
        }
        ("serve_sessions", false) => serve::run(args, &mut report),
        ("serve_sessions", true) => serve::run_traced(args, &mut report),
        _ => unreachable!("workload names are validated by parse"),
    }
    report
}

/// Minimum PSNR over paired frames, capped at `PSNR_CAP_DB` for frames
/// that match exactly; 0 when the pairs are missing.
pub fn min_psnr_db(reuse: &[Image], exact: &[Image]) -> f64 {
    if reuse.is_empty() || reuse.len() != exact.len() {
        return 0.0;
    }
    reuse
        .iter()
        .zip(exact)
        .map(|(a, b)| neo_metrics::psnr(a, b).min(PSNR_CAP_DB))
        .fold(PSNR_CAP_DB, f64::min)
}

/// Peak resident set size of this process (VmHWM) in MiB.
pub fn rss_peak_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&argv) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let names: Vec<&str> = if cli.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![cli.workload.as_str()]
    };
    for name in names {
        let mut report = run_workload(name, cli.traced, &cli.run);
        let mode = if cli.traced { "traced" } else { "untraced" };
        eprintln!("{name} ({mode}, seed {})", cli.run.seed);
        for (metric, value, unit) in report.metrics(cli.traced) {
            eprintln!("  {metric:<32} {value:>16.4} {unit}");
        }
        eprintln!(
            "  failed_share {}/{} = {}",
            report.failed,
            report.attempted,
            report.failed as f64 / report.attempted.max(1) as f64
        );
        for f in report.failures() {
            eprintln!("  FAILED: {f}");
        }
        if cli.traced {
            println!(
                "count digest {name} seed {}: {:016x}",
                cli.run.seed,
                report.count_digest()
            );
        }
        println!("{}", report.json(cli.traced));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let cli = parse(&args(
            "--workload serve_sessions --seed 7 --seconds 3 --trace 1",
        ))
        .expect("valid");
        assert_eq!(cli.workload, "serve_sessions");
        assert!(cli.traced);
        assert_eq!(cli.run.seed, 7);
        assert_eq!(cli.run.duration, Duration::from_secs(3));
        assert!(parse(&args("--workload nope")).is_err());
        assert!(parse(&args("--workload all --trace 2")).is_err());
        assert!(parse(&args("--workload all --seed")).is_err());
        assert_eq!(
            parse(&args("--workload all")).expect("valid").run.seed,
            DEFAULT_SEED
        );
    }

    /// Every workload, untraced and traced, end to end at smoke size:
    /// no failed operation, and every metric of the mode is finite.
    #[test]
    fn smoke_runs_every_workload() {
        let run = RunArgs {
            seed: 3,
            duration: Duration::ZERO,
            smoke: true,
        };
        for name in WORKLOADS {
            for traced in [false, true] {
                let mut report = run_workload(name, traced, &run);
                assert_eq!(
                    report.failed,
                    0,
                    "{name} traced={traced}: {:?}",
                    report.failures()
                );
                let line = report.json(traced);
                assert!(line.starts_with("{\"correct\": true"), "{name}: {line}");
            }
        }
    }

    #[test]
    fn traced_counts_repeat_exactly() {
        let run = RunArgs {
            seed: 5,
            duration: Duration::ZERO,
            smoke: true,
        };
        for name in WORKLOADS {
            let a = run_workload(name, true, &run).count_digest();
            let b = run_workload(name, true, &run).count_digest();
            assert_eq!(a, b, "{name}");
        }
    }
}
