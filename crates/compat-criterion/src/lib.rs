//! Offline stand-in for the `criterion` crate.
//!
//! The build environment has no access to crates.io, so this workspace
//! vendors the slice of criterion's API its microbenchmarks use:
//! [`Criterion::bench_function`], [`Bencher::iter`] /
//! [`Bencher::iter_batched`], [`BatchSize`], and the
//! [`criterion_group!`] / [`criterion_main!`] macros. It measures and
//! reports a median wall-clock time per call — no statistical
//! regression analysis, plotting, or HTML reports.

#![warn(missing_docs)]

use std::time::{Duration, Instant};

/// Opaque value barrier preventing the optimizer from deleting the
/// benchmarked computation.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// How much setup output to batch per timing run. All variants behave
/// identically here (one setup per measured iteration).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// Small per-iteration input.
    SmallInput,
    /// Large per-iteration input.
    LargeInput,
    /// Input of unknown size.
    PerIteration,
}

/// The least a timed sample of [`Bencher::iter`] spans: a few hundred
/// clock reads' worth, so the read itself is noise.
const SAMPLE_SPAN: Duration = Duration::from_micros(10);

/// How many calls of `routine` one sample times: doubled from one until
/// a batch spans [`SAMPLE_SPAN`] (one for a routine that long already).
fn batch_for<O>(routine: &mut impl FnMut() -> O) -> u32 {
    let mut batch = 1u32;
    loop {
        let start = Instant::now();
        for _ in 0..batch {
            black_box(routine());
        }
        if start.elapsed() >= SAMPLE_SPAN || batch >= 1 << 24 {
            return batch;
        }
        batch *= 2;
    }
}

/// Times closures handed to it by a benchmark body.
pub struct Bencher {
    samples: Vec<Duration>,
    target: usize,
}

impl Bencher {
    fn new(target: usize) -> Self {
        Bencher {
            samples: Vec::with_capacity(target),
            target,
        }
    }

    /// Times `routine` repeatedly. A sample is a batch of calls spanning
    /// at least `SAMPLE_SPAN` (see `batch_for`) and records the time
    /// per call, so a call shorter than a clock read is still measured.
    pub fn iter<O>(&mut self, mut routine: impl FnMut() -> O) {
        let batch = batch_for(&mut routine);
        for _ in 0..self.target {
            let start = Instant::now();
            for _ in 0..batch {
                black_box(routine());
            }
            self.samples.push(start.elapsed() / batch);
        }
    }

    /// Times `routine` on fresh input from `setup`; setup time is not
    /// counted.
    pub fn iter_batched<I, O>(
        &mut self,
        mut setup: impl FnMut() -> I,
        mut routine: impl FnMut(I) -> O,
        _size: BatchSize,
    ) {
        for _ in 0..self.target {
            let input = setup();
            let start = Instant::now();
            black_box(routine(input));
            self.samples.push(start.elapsed());
        }
    }

    fn median(&mut self) -> Duration {
        if self.samples.is_empty() {
            return Duration::ZERO;
        }
        self.samples.sort();
        self.samples[self.samples.len() / 2]
    }
}

/// Benchmark driver; create with [`Criterion::default`].
pub struct Criterion {
    iterations: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        // Keep runs quick: these benches exist as smoke tests and rough
        // numbers, not publication-grade statistics.
        let iterations = std::env::var("CRITERION_ITERS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(30);
        Criterion { iterations }
    }
}

impl Criterion {
    /// Runs `body` with a [`Bencher`] and prints the median iteration
    /// time under `name`.
    pub fn bench_function(&mut self, name: &str, body: impl FnMut(&mut Bencher)) -> &mut Self {
        let mut body = body;
        let mut b = Bencher::new(self.iterations);
        body(&mut b);
        let med = b.median();
        println!("{name:<40} median {med:>12.3?} ({} iters)", self.iterations);
        self
    }
}

/// Declares a group of benchmark functions, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut c = $crate::Criterion::default();
            $( $target(&mut c); )+
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
    fn bench_function_runs_and_reports() {
        let mut c = Criterion { iterations: 5 };
        let mut count = 0u64;
        c.bench_function("smoke", |b| b.iter(|| count += 1));
        assert!(count >= 5, "{count}");
    }

    /// A call far shorter than a clock read is timed in batches that
    /// grow until a sample spans `SAMPLE_SPAN`; a long one alone.
    #[test]
    fn iter_batches_a_trivial_routine() {
        let mut x = 0u64;
        assert!(batch_for(&mut || x = black_box(x + 1)) > 1);
        assert_eq!(batch_for(&mut || std::thread::sleep(SAMPLE_SPAN)), 1);
        let mut b = Bencher::new(3);
        b.iter(|| x = black_box(x + 1));
        assert_eq!(b.samples.len(), 3);
    }

    #[test]
    fn iter_batched_separates_setup() {
        let mut b = Bencher::new(4);
        let mut setups = 0u64;
        b.iter_batched(
            || {
                setups += 1;
                vec![1u8; 8]
            },
            |v| v.len(),
            BatchSize::SmallInput,
        );
        assert_eq!(setups, 4);
        assert_eq!(b.samples.len(), 4);
    }
}
