//! A std-only wall-clock micro-benchmark harness.
//!
//! [`run`] executes a closure for a configurable number of warmup and
//! timed iterations and summarizes the per-iteration wall-clock times
//! (min / median / p90 / mean / max); callers render each result as one
//! machine-readable JSON line (timings plus their own observability
//! counters), so repeated runs can be appended to a `BENCH_*.jsonl` file
//! and tracked over time.
//!
//! This replaces the Criterion benches the workspace used to carry: no
//! statistical outlier rejection, no plotting — just deterministic
//! iteration counts and honest order statistics, with zero dependencies.

use std::time::Instant;

/// Re-export of [`std::hint::black_box`], the optimization barrier every
/// bench body should wrap its inputs and outputs in.
pub use std::hint::black_box;

/// Iteration counts for one benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BenchSpec {
    /// Untimed warmup iterations (cache/branch-predictor settling).
    pub warmup: u32,
    /// Timed iterations; each contributes one sample.
    pub iters: u32,
}

impl BenchSpec {
    /// `iters` timed iterations after `warmup` untimed ones.
    ///
    /// # Panics
    ///
    /// Panics if `iters` is zero.
    pub fn new(warmup: u32, iters: u32) -> Self {
        assert!(iters > 0, "at least one timed iteration is required");
        BenchSpec { warmup, iters }
    }

    /// The spec scaled down for smoke tests (1 warmup, 2 iters).
    pub fn smoke() -> Self {
        BenchSpec::new(1, 2)
    }
}

/// Summary statistics for one benchmark, in nanoseconds per iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchResult {
    /// Benchmark name (the JSON `bench` field).
    pub name: String,
    /// Timed iteration count.
    pub iters: u32,
    /// Fastest iteration.
    pub min_ns: u64,
    /// Median iteration (lower-median for even counts).
    pub median_ns: u64,
    /// 90th-percentile iteration.
    pub p90_ns: u64,
    /// Slowest iteration.
    pub max_ns: u64,
    /// Arithmetic mean.
    pub mean_ns: u64,
}

/// Runs `body` for `spec.warmup` untimed and `spec.iters` timed
/// iterations and returns the timing summary.
pub fn run<F: FnMut()>(name: &str, spec: BenchSpec, mut body: F) -> BenchResult {
    for _ in 0..spec.warmup {
        body();
    }
    let mut samples: Vec<u64> = Vec::with_capacity(spec.iters as usize);
    for _ in 0..spec.iters {
        let t0 = Instant::now();
        body();
        samples.push(t0.elapsed().as_nanos() as u64);
    }
    samples.sort_unstable();
    let n = samples.len();
    BenchResult {
        name: name.to_string(),
        iters: spec.iters,
        min_ns: samples[0],
        median_ns: samples[(n - 1) / 2],
        p90_ns: samples[(n * 9 / 10).min(n - 1)],
        max_ns: samples[n - 1],
        mean_ns: (samples.iter().sum::<u64>() / n as u64),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_collects_ordered_statistics() {
        let mut count = 0u64;
        let r = run("spin", BenchSpec::new(2, 9), || {
            count += 1;
            let mut acc = 0u64;
            for i in 0..(1000 * count % 5000) {
                acc = acc.wrapping_add(black_box(i));
            }
            black_box(acc);
        });
        assert_eq!(count, 11, "warmup + timed iterations all execute");
        assert_eq!(r.iters, 9);
        assert!(r.min_ns <= r.median_ns);
        assert!(r.median_ns <= r.p90_ns);
        assert!(r.p90_ns <= r.max_ns);
        assert!(r.mean_ns >= r.min_ns && r.mean_ns <= r.max_ns);
    }

    #[test]
    #[should_panic(expected = "at least one timed iteration")]
    fn zero_iters_rejected() {
        let _ = BenchSpec::new(0, 0);
    }
}
