//! Offline stand-in for `criterion`.
//!
//! The build container has no crates.io access, so the workspace patches
//! `criterion` to this crate (see `[patch.crates-io]` in the root manifest).
//! It implements the API subset the `bep-bench` benches use — groups,
//! `bench_function`, `bench_with_input`, `Bencher::iter`,
//! `Bencher::iter_batched` — with a simple
//! measure-and-print harness: a short warm-up, then timed batches, reporting
//! the median per-iteration time. No statistics engine, no HTML reports.

use std::fmt;
use std::time::{Duration, Instant};

/// Re-export of `std::hint::black_box` under criterion's name.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// A benchmark identifier with an optional parameter (e.g. `views/8`).
pub struct BenchmarkId {
    name: String,
}

impl BenchmarkId {
    /// An id made of a function name and a parameter.
    pub fn new(name: impl Into<String>, param: impl fmt::Display) -> BenchmarkId {
        BenchmarkId {
            name: format!("{}/{}", name.into(), param),
        }
    }

    /// An id carrying only a parameter.
    pub fn from_parameter(param: impl fmt::Display) -> BenchmarkId {
        BenchmarkId {
            name: param.to_string(),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> BenchmarkId {
        BenchmarkId {
            name: s.to_string(),
        }
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> BenchmarkId {
        BenchmarkId { name: s }
    }
}

/// How many inputs `iter_batched` sets up per batch. The stand-in times
/// every routine call on its own, so the size is accepted and ignored.
#[derive(Debug, Clone, Copy)]
pub enum BatchSize {
    /// Inputs cheap to hold many of.
    SmallInput,
}

/// The timing loop handed to each benchmark closure.
pub struct Bencher {
    samples: usize,
    last_per_iter: Duration,
}

impl Bencher {
    /// Times `f`, recording the median per-iteration cost.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        self.sample(|| {
            let start = Instant::now();
            black_box(f());
            start.elapsed()
        });
    }

    /// Times `routine` on inputs made by `setup`, which is not timed; nor
    /// is dropping what `routine` returns.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        self.sample(|| {
            let input = setup();
            let start = Instant::now();
            let out = black_box(routine(input));
            let elapsed = start.elapsed();
            drop(out);
            elapsed
        });
    }

    /// Runs `timed` twice to warm up, then once per sample, and records
    /// the median of the durations it returns.
    fn sample(&mut self, mut timed: impl FnMut() -> Duration) {
        for _ in 0..2 {
            timed();
        }
        let mut per_iter: Vec<Duration> = (0..self.samples).map(|_| timed()).collect();
        per_iter.sort_unstable();
        self.last_per_iter = per_iter[per_iter.len() / 2];
    }
}

/// A named group of benchmarks.
pub struct BenchmarkGroup<'a> {
    name: String,
    samples: usize,
    _criterion: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Sets how many timed samples each benchmark takes.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.samples = n.max(1);
        self
    }

    fn run(&mut self, id: String, f: impl FnOnce(&mut Bencher)) {
        let mut b = Bencher {
            samples: self.samples,
            last_per_iter: Duration::ZERO,
        };
        f(&mut b);
        println!(
            "{}/{}: median {:?} per iteration ({} samples)",
            self.name, id, b.last_per_iter, self.samples
        );
    }

    /// Benchmarks one closure.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        self.run(id.name, |b| f(b));
        self
    }

    /// Benchmarks one closure with an input value.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let id = id.into();
        self.run(id.name, |b| f(b, input));
        self
    }

    /// Ends the group (printing is incremental, so this is a no-op).
    pub fn finish(&mut self) {}
}

/// The benchmark harness entry point.
#[derive(Default)]
pub struct Criterion {}

impl Criterion {
    /// Opens a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            samples: 10,
            _criterion: self,
        }
    }

    /// Benchmarks one closure outside any group.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        let mut group = self.benchmark_group("bench");
        group.run(id.name, |b| f(b));
        self
    }
}

/// Declares a group of benchmark functions (criterion-compatible).
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
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
    fn group_times_and_prints() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("g");
        group.sample_size(5);
        let mut ran = 0;
        group.bench_function("count", |b| b.iter(|| ran += 1));
        assert!(ran >= 5, "closure ran {ran} times");
        group.bench_with_input(BenchmarkId::new("param", 3), &3, |b, n| {
            b.iter(|| black_box(*n * 2))
        });
        let (mut set_up, mut routed) = (0, 0);
        group.bench_function("batched", |b| {
            b.iter_batched(
                || {
                    set_up += 1;
                    set_up
                },
                |n| routed += n,
                BatchSize::SmallInput,
            )
        });
        assert!(set_up >= 5 && routed > 0, "{set_up} inputs, sum {routed}");
        group.finish();
    }
}
