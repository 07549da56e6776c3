//! A minimal wall-clock timing harness for the bench targets.
//!
//! The bench binaries measure the *simulator's* host cost so engine
//! regressions show up; they need repeatable min/mean timings and a
//! stable text format, not statistical machinery.

use std::hint::black_box;
use std::time::Instant;

/// A named group of timed benchmarks.
#[derive(Debug)]
pub struct BenchGroup {
    name: String,
    samples: usize,
}

impl BenchGroup {
    /// A group printing under `name`, defaulting to 10 samples per bench.
    #[must_use]
    pub fn new(name: &str) -> Self {
        println!("group {name}");
        Self {
            name: name.to_string(),
            samples: 10,
        }
    }

    /// Set how many timed samples each bench takes.
    pub fn sample_size(&mut self, samples: usize) {
        self.samples = samples.max(1);
    }

    /// Time `f`: one warm-up call, then the configured number of samples.
    /// Prints `group/id  min  mean  max` in milliseconds and returns the
    /// minimum with the last call's result.
    pub fn bench<R>(&mut self, id: &str, mut f: impl FnMut() -> R) -> (f64, R) {
        let mut last = black_box(f());
        let mut times = Vec::with_capacity(self.samples);
        for _ in 0..self.samples {
            let start = Instant::now();
            last = black_box(f());
            times.push(start.elapsed().as_secs_f64() * 1e3);
        }
        let min = times.iter().copied().fold(f64::INFINITY, f64::min);
        let max = times.iter().copied().fold(0.0f64, f64::max);
        let mean = times.iter().sum::<f64>() / times.len() as f64;
        println!(
            "  {}/{id:<28} min {min:>9.3} ms  mean {mean:>9.3} ms  max {max:>9.3} ms",
            self.name
        );
        (min, last)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_runs_the_closure() {
        let mut calls = 0u32;
        let mut g = BenchGroup::new("test");
        g.sample_size(3);
        let (min, last) = g.bench("count", || {
            calls += 1;
            calls
        });
        // one warm-up + three samples; the result is the last call's
        assert_eq!(calls, 4);
        assert_eq!(last, 4);
        assert!(min >= 0.0 && min.is_finite());
    }
}
