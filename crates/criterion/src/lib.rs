//! A minimal, dependency-free benchmark harness exposing the subset of the
//! `criterion` crate's API that this workspace's benches use.
//!
//! The build environment has no access to a crates registry, so the real
//! `criterion` cannot be resolved; this in-tree substitute keeps
//! `cargo bench` working. Each benchmark is warmed up briefly, then timed
//! over enough iterations to fill a fixed measurement window; the harness
//! reports the mean wall-clock time per iteration.

use std::time::{Duration, Instant};

/// Top-level harness handle, passed to every `criterion_group!` target.
pub struct Criterion {
    warm_up: Duration,
    measurement: Duration,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion { warm_up: Duration::from_millis(150), measurement: Duration::from_millis(400) }
    }
}

impl Criterion {
    /// Starts a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        println!("group: {name}");
        BenchmarkGroup { criterion: self, name: name.to_string(), measurement: self.measurement }
    }
}

/// A named collection of benchmarks sharing configuration.
pub struct BenchmarkGroup<'a> {
    criterion: &'a Criterion,
    name: String,
    /// This group's measurement window; it starts as the harness default
    /// and [`BenchmarkGroup::sample_size`] changes it for this group only.
    measurement: Duration,
}

impl BenchmarkGroup<'_> {
    /// Accepted for API compatibility; sampling here is time-based, so the
    /// requested sample count only scales this group's measurement window
    /// a little.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        let scaled = 400u64.saturating_mul(n as u64) / 100;
        self.measurement = Duration::from_millis(scaled.clamp(100, 2_000));
        self
    }

    /// Runs one benchmark and prints its mean time per iteration.
    pub fn bench_function<F>(&mut self, id: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut bencher = Bencher {
            warm_up: self.criterion.warm_up,
            measurement: self.measurement,
            result: None,
        };
        f(&mut bencher);
        match bencher.result {
            Some((iters, total)) => {
                let per_iter = total.as_nanos() / u128::from(iters.max(1));
                println!("  {}/{}: {} iters, {} ns/iter", self.name, id, iters, per_iter);
            }
            None => println!("  {}/{}: no measurement taken", self.name, id),
        }
        self
    }

    /// Ends the group (no-op; output is printed eagerly).
    pub fn finish(self) {}
}

/// Times a closure over repeated iterations.
pub struct Bencher {
    warm_up: Duration,
    measurement: Duration,
    result: Option<(u64, Duration)>,
}

impl Bencher {
    /// Benchmarks `routine`, keeping its return value alive so the work is
    /// not optimized away.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // Warm-up: run until the warm-up window elapses.
        let warm_start = Instant::now();
        let mut warm_iters: u64 = 0;
        while warm_start.elapsed() < self.warm_up {
            std::hint::black_box(routine());
            warm_iters += 1;
        }
        // Measurement: batched timing until the window elapses.
        let batch = warm_iters.clamp(1, 1 << 20);
        let mut iters: u64 = 0;
        let mut total = Duration::ZERO;
        while total < self.measurement {
            let start = Instant::now();
            for _ in 0..batch {
                std::hint::black_box(routine());
            }
            total += start.elapsed();
            iters += batch;
        }
        self.result = Some((iters, total));
    }
}

/// Bundles benchmark functions into a runnable group.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Emits `main` for a `harness = false` bench target.
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
    fn bencher_measures_something() {
        let mut c =
            Criterion { warm_up: Duration::from_millis(1), measurement: Duration::from_millis(2) };
        let mut group = c.benchmark_group("smoke");
        let mut ran = false;
        group.bench_function("noop", |b| {
            b.iter(|| std::hint::black_box(1 + 1));
            ran = true;
        });
        group.finish();
        assert!(ran);
    }

    #[test]
    fn sample_size_sets_only_its_own_group() {
        let mut c = Criterion::default();
        let default = c.measurement;
        let mut short = c.benchmark_group("short");
        short.sample_size(20);
        short.finish();
        assert_eq!(c.measurement, default, "a later group must keep the default window");
    }
}
