//! Offline stand-in for `criterion`, covering the harness API this
//! workspace's benches use: `Criterion`, `benchmark_group`,
//! `bench_function`, `sample_size`, `Bencher::{iter, iter_batched}`,
//! `BatchSize`, and the `criterion_group!`/`criterion_main!` macros.
//!
//! Timing is a plain wall-clock median over the configured samples —
//! good enough for coarse comparisons and for keeping `cargo test`
//! (which compiles and smoke-runs bench targets) green without the real
//! crate. When the binary is invoked with `--test` (as `cargo test`
//! does), each benchmark runs exactly once as a smoke test.

#![warn(clippy::all)]

use std::time::{Duration, Instant};

/// How `iter_batched` amortises setup cost. This shim runs setup once
/// per iteration regardless; the variants exist only for API parity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// Small per-iteration inputs.
    SmallInput,
    /// Large per-iteration inputs.
    LargeInput,
    /// One batch per iteration.
    PerIteration,
}

/// Per-benchmark timing driver handed to the closure registered with
/// [`BenchmarkGroup::bench_function`].
pub struct Bencher {
    iterations: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Times `routine`, discarding its output.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        let start = Instant::now();
        for _ in 0..self.iterations {
            std::hint::black_box(routine());
        }
        self.elapsed = start.elapsed();
    }

    /// Times `routine` over inputs built (untimed) by `setup`. The clock
    /// stops before the routine's output is dropped, so freeing it is
    /// not timed either.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        let mut elapsed = Duration::ZERO;
        for _ in 0..self.iterations {
            let input = setup();
            let start = Instant::now();
            let output = std::hint::black_box(routine(input));
            elapsed += start.elapsed();
            drop(output);
        }
        self.elapsed = elapsed;
    }
}

/// A named group of related benchmarks.
pub struct BenchmarkGroup<'a> {
    name: String,
    samples: usize,
    smoke: bool,
    _criterion: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Sets how many timed samples each benchmark collects.
    pub fn sample_size(&mut self, samples: usize) -> &mut Self {
        self.samples = samples.max(1);
        self
    }

    /// Registers and immediately runs one benchmark.
    pub fn bench_function<F>(&mut self, id: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let samples = if self.smoke { 1 } else { self.samples };
        let mut times: Vec<Duration> = Vec::with_capacity(samples);
        for _ in 0..samples {
            let mut b = Bencher { iterations: 1, elapsed: Duration::ZERO };
            f(&mut b);
            times.push(b.elapsed);
        }
        times.sort();
        let median = times[times.len() / 2];
        if self.smoke {
            println!("test {}/{} ... ok ({median:.2?})", self.name, id);
        } else {
            println!("{}/{}: median {median:.2?} over {samples} samples", self.name, id);
        }
        self
    }

    /// Ends the group (printing nothing extra in this shim).
    pub fn finish(&mut self) {}
}

/// Entry point mirroring `criterion::Criterion`.
pub struct Criterion {
    smoke: bool,
}

impl Default for Criterion {
    fn default() -> Self {
        // `cargo test` invokes bench binaries with `--test`; `cargo bench`
        // passes `--bench`. Anything test-like downgrades to one smoke run.
        let smoke = std::env::args().any(|a| a == "--test");
        Criterion { smoke }
    }
}

impl Criterion {
    /// Opens a named benchmark group.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        let smoke = self.smoke;
        BenchmarkGroup { name: name.to_string(), samples: 100, smoke, _criterion: self }
    }

    /// Runs a single benchmark outside any group.
    pub fn bench_function<F>(&mut self, id: &str, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        self.benchmark_group("bench").bench_function(id, f);
        self
    }
}

/// Declares a function that runs the listed benchmarks in order.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Declares `main` running each group declared by `criterion_group!`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bench_square(c: &mut Criterion) {
        let mut group = c.benchmark_group("math");
        group.sample_size(3);
        group.bench_function("square", |b| b.iter(|| std::hint::black_box(7u64 * 7)));
        group.bench_function("batched", |b| {
            b.iter_batched(|| vec![1u64; 16], |v| v.iter().sum::<u64>(), BatchSize::SmallInput)
        });
        group.finish();
    }

    #[test]
    fn harness_runs_groups() {
        criterion_group!(benches, bench_square);
        benches();
    }

    /// An output whose drop takes 20 ms.
    struct SlowDrop;

    impl Drop for SlowDrop {
        fn drop(&mut self) {
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    #[test]
    fn iter_batched_does_not_time_dropping_the_output() {
        let mut b = Bencher { iterations: 1, elapsed: Duration::ZERO };
        b.iter_batched(|| (), |()| SlowDrop, BatchSize::PerIteration);
        assert!(b.elapsed < Duration::from_millis(20), "timed the output's drop: {:?}", b.elapsed);
    }
}
