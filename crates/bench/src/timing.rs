//! Minimal wall-clock timing harness for the microbenches.
//!
//! Replaces the former Criterion dependency under the workspace's
//! zero-dependency policy: each bench target is a plain `fn main()`
//! (`harness = false` in the manifest), so `cargo bench` still runs
//! every target.
//!
//! For each benchmark the harness warms the closure up, calibrates an
//! iteration count so one sample takes a measurable slice of time, then
//! records `k` samples and reports the median/min/mean seconds per
//! iteration. Medians are robust to the occasional scheduler hiccup,
//! which is all a laptop-scale harness can promise. One JSON line per
//! benchmark is also printed (prefixed `JSON`) for machine consumption.
//!
//! Sample count: per-group default (Criterion's old `sample_size`
//! knob), overridable globally with `TERASEM_BENCH_SAMPLES`.

use std::time::Instant;

/// Warm the closure up for this long before calibrating.
const WARMUP_SECS: f64 = 0.05;
/// Target duration of one recorded sample (many iterations batched).
const TARGET_SAMPLE_SECS: f64 = 0.01;

/// Summary statistics for one benchmark, in seconds per iteration.
#[derive(Clone, Copy, Debug)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub mean: f64,
    pub samples: usize,
    pub iters_per_sample: u64,
}

/// The global `TERASEM_BENCH_SAMPLES` override, if set and valid.
fn env_samples() -> Option<usize> {
    sem_obs::env::int("TERASEM_BENCH_SAMPLES", 1)
}

/// A named group of benchmarks (mirrors Criterion's `benchmark_group`).
pub struct BenchGroup {
    group: String,
    samples: usize,
}

impl BenchGroup {
    pub fn new(group: &str) -> Self {
        Self {
            group: group.to_string(),
            samples: env_samples().unwrap_or(11),
        }
    }

    /// Set the number of recorded samples (env override wins).
    pub fn sample_size(&mut self, k: usize) -> &mut Self {
        if env_samples().is_none() {
            self.samples = k.max(1);
        }
        self
    }

    /// Time a closure; report seconds per iteration.
    pub fn bench(&mut self, name: &str, f: impl FnMut()) -> Summary {
        self.run(name, None, f)
    }

    /// Time a closure that processes `elems` elements (flops, points, …)
    /// per call; additionally report the element rate.
    pub fn throughput(&mut self, name: &str, elems: u64, f: impl FnMut()) -> Summary {
        self.run(name, Some(elems), f)
    }

    fn run(&mut self, name: &str, elems: Option<u64>, mut f: impl FnMut()) -> Summary {
        // Warmup doubles as calibration: estimate the per-iteration cost.
        let t0 = Instant::now();
        let mut warm_iters = 0u64;
        loop {
            f();
            warm_iters += 1;
            if t0.elapsed().as_secs_f64() >= WARMUP_SECS {
                break;
            }
        }
        let approx = t0.elapsed().as_secs_f64() / warm_iters as f64;
        let iters = ((TARGET_SAMPLE_SECS / approx).ceil() as u64).max(1);

        let mut times = Vec::with_capacity(self.samples);
        for _ in 0..self.samples {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            times.push(t.elapsed().as_secs_f64() / iters as f64);
        }
        times.sort_by(f64::total_cmp);
        let min = times[0];
        let median = if times.len() % 2 == 1 {
            times[times.len() / 2]
        } else {
            0.5 * (times[times.len() / 2 - 1] + times[times.len() / 2])
        };
        let mean = times.iter().sum::<f64>() / times.len() as f64;
        let summary = Summary {
            median,
            min,
            mean,
            samples: self.samples,
            iters_per_sample: iters,
        };
        self.report(name, elems, summary);
        summary
    }

    fn report(&self, name: &str, elems: Option<u64>, s: Summary) {
        let mut line = format!(
            "{}/{name}: median {} (min {}, mean {}, {} samples x {} iters)",
            self.group,
            crate::fmt_secs(s.median),
            crate::fmt_secs(s.min),
            crate::fmt_secs(s.mean),
            s.samples,
            s.iters_per_sample,
        );
        if let Some(e) = elems {
            line.push_str(&format!(", {}", fmt_rate(e as f64 / s.median)));
        }
        println!("{line}");
        let elems_json = elems.map_or("null".to_string(), |e| e.to_string());
        println!(
            "JSON {{\"group\":\"{}\",\"bench\":\"{name}\",\"median_s\":{:e},\"min_s\":{:e},\"mean_s\":{:e},\"samples\":{},\"iters_per_sample\":{},\"elems_per_iter\":{elems_json}}}",
            self.group, s.median, s.min, s.mean, s.samples, s.iters_per_sample,
        );
    }
}

/// Format an element rate with SI prefixes (`2.34 Gelem/s`).
fn fmt_rate(per_sec: f64) -> String {
    if per_sec >= 1e9 {
        format!("{:.2} Gelem/s", per_sec / 1e9)
    } else if per_sec >= 1e6 {
        format!("{:.2} Melem/s", per_sec / 1e6)
    } else if per_sec >= 1e3 {
        format!("{:.2} kelem/s", per_sec / 1e3)
    } else {
        format!("{per_sec:.2} elem/s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_orders_min_median_mean_sanely() {
        let mut g = BenchGroup::new("timing_selftest");
        g.sample_size(5);
        let mut acc = 0.0_f64;
        let s = g.bench("spin", || {
            for i in 0..100 {
                acc += (i as f64).sqrt();
            }
            std::hint::black_box(&mut acc);
        });
        assert!(s.min > 0.0);
        assert!(s.min <= s.median);
        assert!(s.median <= s.mean * 2.0);
        assert!(s.iters_per_sample >= 1);
        assert_eq!(s.samples, 5);
    }

    #[test]
    fn rate_units() {
        assert!(fmt_rate(2.5e9).contains("Gelem"));
        assert!(fmt_rate(2.5e6).contains("Melem"));
        assert!(fmt_rate(2.5e3).contains("kelem"));
        assert!(fmt_rate(12.0).contains("elem/s"));
    }
}
