//! Offline stand-in for `criterion`.
//!
//! Provides the API subset the workspace benches use — `Criterion`,
//! benchmark groups, `iter` / `iter_batched`, `BenchmarkId`, `BatchSize`,
//! `black_box`, and the `criterion_group!` / `criterion_main!` macros —
//! with a plain warm-up + timed-samples loop instead of criterion's
//! statistical machinery. Each benchmark reports the mean ns/iteration
//! over all timed iterations, and the median and minimum of the
//! per-sample ns/iteration, which a noisy host moves less than the mean.

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// How `iter_batched` amortizes setup (ignored by the shim's simple loop).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// Small per-iteration inputs.
    SmallInput,
    /// Large per-iteration inputs.
    LargeInput,
    /// One setup per iteration.
    PerIteration,
}

/// Identifier for a parameterized benchmark.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    name: String,
}

impl BenchmarkId {
    /// An id rendered as `name/parameter`.
    pub fn new(name: impl Into<String>, parameter: impl std::fmt::Display) -> Self {
        Self {
            name: format!("{}/{}", name.into(), parameter),
        }
    }

    /// An id from the parameter alone.
    pub fn from_parameter(parameter: impl std::fmt::Display) -> Self {
        Self {
            name: parameter.to_string(),
        }
    }
}

/// The timing loop handle passed to benchmark closures.
pub struct Bencher {
    samples: usize,
    /// Mean time per iteration of the last run, filled by `iter*`.
    result: Option<Duration>,
    /// Nanoseconds per iteration of each timed sample of the last run.
    sample_ns: Vec<f64>,
}

impl Bencher {
    /// Times `routine`, called repeatedly.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        // Warm-up, and calibrate the per-sample iteration count so a
        // sample takes ~1ms even for nanosecond-scale routines.
        let warm_start = Instant::now();
        black_box(routine());
        let once = warm_start.elapsed().max(Duration::from_nanos(1));
        let iters_per_sample =
            (Duration::from_millis(1).as_nanos() / once.as_nanos()).clamp(1, 1_000_000) as usize;

        let mut total = Duration::ZERO;
        let mut iters = 0usize;
        self.sample_ns.clear();
        for _ in 0..self.samples {
            let start = Instant::now();
            for _ in 0..iters_per_sample {
                black_box(routine());
            }
            let elapsed = start.elapsed();
            total += elapsed;
            iters += iters_per_sample;
            self.sample_ns
                .push(elapsed.as_nanos() as f64 / iters_per_sample as f64);
        }
        self.result = Some(total / iters.max(1) as u32);
    }

    /// Times `routine` on fresh inputs built by `setup` (setup excluded
    /// from the measurement).
    pub fn iter_batched<I, O, S, F>(&mut self, mut setup: S, mut routine: F, _size: BatchSize)
    where
        S: FnMut() -> I,
        F: FnMut(I) -> O,
    {
        let mut total = Duration::ZERO;
        let mut iters = 0usize;
        self.sample_ns.clear();
        for _ in 0..self.samples {
            let input = setup();
            let start = Instant::now();
            black_box(routine(input));
            let elapsed = start.elapsed();
            total += elapsed;
            iters += 1;
            self.sample_ns.push(elapsed.as_nanos() as f64);
        }
        self.result = Some(total / iters.max(1) as u32);
    }

    /// Like [`Bencher::iter_batched`] but hands the routine `&mut I`.
    pub fn iter_batched_ref<I, O, S, F>(&mut self, mut setup: S, mut routine: F, _size: BatchSize)
    where
        S: FnMut() -> I,
        F: FnMut(&mut I) -> O,
    {
        self.iter_batched(&mut setup, |mut i| routine(&mut i), _size);
    }
}

/// Top-level benchmark driver.
pub struct Criterion {
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Self { sample_size: 10 }
    }
}

impl Criterion {
    /// Sets the number of timed samples per benchmark.
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n.max(1);
        self
    }

    /// Opens a named group of benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            sample_size: None,
        }
    }

    /// Runs one ungrouped benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, f: F) -> &mut Self {
        run_one(self.sample_size, id, f);
        self
    }

    /// Prints the final summary (no-op in the shim).
    pub fn final_summary(&mut self) {}
}

fn run_one<F: FnMut(&mut Bencher)>(samples: usize, label: &str, mut f: F) {
    let mut b = Bencher {
        samples,
        result: None,
        sample_ns: Vec::new(),
    };
    f(&mut b);
    match b.result {
        Some(mean) => {
            let (median, min) = median_and_min(&mut b.sample_ns);
            println!(
                "{label:<50} {:>12.1} ns/iter  (median {median:.1}, min {min:.1})",
                mean.as_nanos() as f64
            );
        }
        None => println!("{label:<50} (no measurement)"),
    }
}

/// Median and minimum of the non-empty `samples`, sorted in place. An
/// even count takes the mean of the two middle samples.
fn median_and_min(samples: &mut [f64]) -> (f64, f64) {
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    let median = if n % 2 == 1 {
        samples[n / 2]
    } else {
        (samples[n / 2 - 1] + samples[n / 2]) / 2.0
    };
    (median, samples[0])
}

/// A named collection of related benchmarks.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    /// Group-scoped override; upstream criterion resets it at `finish()`.
    sample_size: Option<usize>,
}

impl BenchmarkGroup<'_> {
    fn samples(&self) -> usize {
        self.sample_size.unwrap_or(self.criterion.sample_size)
    }

    /// Runs one benchmark in the group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl IntoBenchmarkId,
        f: F,
    ) -> &mut Self {
        let label = format!("{}/{}", self.name, id.into_benchmark_id().name);
        run_one(self.samples(), &label, f);
        self
    }

    /// Runs one parameterized benchmark in the group.
    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let label = format!("{}/{}", self.name, id.name);
        run_one(self.samples(), &label, |b| f(b, input));
        self
    }

    /// Overrides the sample count for this group only.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = Some(n.max(1));
        self
    }

    /// Closes the group.
    pub fn finish(self) {}
}

/// Conversion into a [`BenchmarkId`], so `bench_function` accepts both
/// string labels and explicit ids.
pub trait IntoBenchmarkId {
    /// Converts to an id.
    fn into_benchmark_id(self) -> BenchmarkId;
}

impl IntoBenchmarkId for BenchmarkId {
    fn into_benchmark_id(self) -> BenchmarkId {
        self
    }
}

impl IntoBenchmarkId for &str {
    fn into_benchmark_id(self) -> BenchmarkId {
        BenchmarkId {
            name: self.to_string(),
        }
    }
}

impl IntoBenchmarkId for String {
    fn into_benchmark_id(self) -> BenchmarkId {
        BenchmarkId { name: self }
    }
}

/// Declares a group of benchmark functions.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $config;
            $( $target(&mut criterion); )+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group! {
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        }
    };
}

/// Declares the benchmark `main` running the listed groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iter_measures_something() {
        let mut c = Criterion::default().sample_size(3);
        let mut group = c.benchmark_group("g");
        group.bench_function("sum", |b| b.iter(|| (0..100u64).sum::<u64>()));
        group.bench_with_input(BenchmarkId::new("param", 4), &4u64, |b, &n| {
            b.iter_batched(
                || vec![n; 8],
                |v| v.iter().sum::<u64>(),
                BatchSize::SmallInput,
            )
        });
        group.finish();
    }

    #[test]
    fn group_sample_size_does_not_leak() {
        let mut c = Criterion::default().sample_size(9);
        {
            let mut group = c.benchmark_group("g");
            group.sample_size(2);
            assert_eq!(group.samples(), 2);
            group.finish();
        }
        assert_eq!(c.sample_size, 9);
        let fresh = c.benchmark_group("h");
        assert_eq!(fresh.samples(), 9);
    }

    #[test]
    fn median_and_min_of_samples() {
        assert_eq!(median_and_min(&mut [3.0, 1.0, 2.0]), (2.0, 1.0));
        assert_eq!(median_and_min(&mut [4.0, 1.0, 3.0, 2.0]), (2.5, 1.0));
    }

    #[test]
    fn iter_records_one_timing_per_sample() {
        let mut b = Bencher {
            samples: 5,
            result: None,
            sample_ns: Vec::new(),
        };
        b.iter(|| (0..100u64).sum::<u64>());
        assert_eq!(b.sample_ns.len(), 5);
        b.iter_batched(|| 7u64, |x| x * 2, BatchSize::SmallInput);
        assert_eq!(b.sample_ns.len(), 5);
        assert!(b.sample_ns.iter().all(|&ns| ns >= 0.0));
    }

    #[test]
    fn id_formats() {
        assert_eq!(BenchmarkId::new("s", 3).name, "s/3");
        assert_eq!(BenchmarkId::from_parameter(9).name, "9");
    }
}
