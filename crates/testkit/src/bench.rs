//! Wall-clock bench harness (in-tree `criterion` replacement).
//!
//! Each bench target (`harness = false`) builds a [`Harness`], registers
//! labelled closures, and calls [`Harness::finish`]. Every benchmark runs
//! a warmup, then N timed iterations, and reports min / mean / median /
//! p95 wall time. `finish` prints a human table and writes the raw
//! statistics as JSON to `BENCH_<harness>.json` in the working directory
//! (the workspace root under `cargo bench`), so perf PRs can diff
//! machine-readable numbers across commits.
//!
//! Iteration counts are wall-clock-budget-free and explicit — override
//! globally with `ILPC_BENCH_ITERS` / `ILPC_BENCH_WARMUP`, or per
//! benchmark via [`Harness::bench_n`].

use std::hint::black_box;
use std::time::Instant;

/// Default timed iterations per benchmark.
const DEFAULT_ITERS: u32 = 30;
/// Default warmup iterations per benchmark.
const DEFAULT_WARMUP: u32 = 3;

/// Statistics for one benchmark, all times in nanoseconds.
#[derive(Debug, Clone)]
pub struct Stats {
    pub name: String,
    pub iters: u32,
    pub min_ns: u64,
    pub mean_ns: u64,
    pub median_ns: u64,
    pub p95_ns: u64,
    pub max_ns: u64,
    /// Elements processed per iteration (throughput benches), if set.
    pub elems: Option<u64>,
}

impl Stats {
    /// Elements per second at the median, for throughput benches.
    pub fn elems_per_sec(&self) -> Option<f64> {
        self.elems
            .map(|e| e as f64 / (self.median_ns.max(1) as f64 / 1e9))
    }
}

/// A named collection of benchmarks.
pub struct Harness {
    name: String,
    iters: u32,
    warmup: u32,
    results: Vec<Stats>,
}

fn env_u32(key: &str, default: u32) -> u32 {
    std::env::var(key).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

fn fmt_ns(ns: u64) -> String {
    match ns {
        0..=9_999 => format!("{ns}ns"),
        10_000..=9_999_999 => format!("{:.1}µs", ns as f64 / 1e3),
        10_000_000..=9_999_999_999 => format!("{:.1}ms", ns as f64 / 1e6),
        _ => format!("{:.2}s", ns as f64 / 1e9),
    }
}

impl Harness {
    /// A harness named after its bench target (`BENCH_<name>.json`).
    pub fn new(name: &str) -> Harness {
        Harness {
            name: name.to_string(),
            iters: env_u32("ILPC_BENCH_ITERS", DEFAULT_ITERS),
            warmup: env_u32("ILPC_BENCH_WARMUP", DEFAULT_WARMUP),
            results: Vec::new(),
        }
    }

    /// Benchmark `f` with the harness-default iteration count.
    pub fn bench<T>(&mut self, label: &str, f: impl FnMut() -> T) {
        self.run(label, self.iters, None, f);
    }

    /// Benchmark with an explicit iteration count (slow benches).
    pub fn bench_n<T>(&mut self, label: &str, iters: u32, f: impl FnMut() -> T) {
        self.run(label, iters.min(self.iters), None, f);
    }

    /// Throughput benchmark: `elems` elements processed per iteration.
    pub fn bench_elems<T>(&mut self, label: &str, elems: u64, f: impl FnMut() -> T) {
        self.run(label, self.iters, Some(elems), f);
    }

    /// Throughput benchmark with an explicit iteration count (slow benches).
    pub fn bench_n_elems<T>(&mut self, label: &str, iters: u32, elems: u64, f: impl FnMut() -> T) {
        self.run(label, iters.min(self.iters), Some(elems), f);
    }

    fn run<T>(
        &mut self,
        label: &str,
        iters: u32,
        elems: Option<u64>,
        mut f: impl FnMut() -> T,
    ) {
        let iters = iters.max(1);
        for _ in 0..self.warmup {
            black_box(f());
        }
        let mut samples: Vec<u64> = Vec::with_capacity(iters as usize);
        for _ in 0..iters {
            let t0 = Instant::now();
            black_box(f());
            samples.push(t0.elapsed().as_nanos() as u64);
        }
        samples.sort_unstable();
        let idx = |q: f64| samples[((samples.len() - 1) as f64 * q) as usize];
        let stats = Stats {
            name: label.to_string(),
            iters,
            min_ns: samples[0],
            mean_ns: samples.iter().sum::<u64>() / samples.len() as u64,
            median_ns: idx(0.5),
            p95_ns: idx(0.95),
            max_ns: *samples.last().unwrap(),
            elems,
        };
        let thr = stats
            .elems_per_sec()
            .map(|e| format!("  {:.1} Melem/s", e / 1e6))
            .unwrap_or_default();
        println!(
            "{:<44} median {:>9}  p95 {:>9}  ({} iters){thr}",
            stats.name,
            fmt_ns(stats.median_ns),
            fmt_ns(stats.p95_ns),
            stats.iters,
        );
        self.results.push(stats);
    }

    /// JSON for all collected results (hand-rolled: std-only workspace).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("{{\n  \"harness\": \"{}\",\n  \"results\": [", self.name));
        for (k, s) in self.results.iter().enumerate() {
            if k > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"name\": \"{}\", \"iters\": {}, \"min_ns\": {}, \
                 \"mean_ns\": {}, \"median_ns\": {}, \"p95_ns\": {}, \
                 \"max_ns\": {}, \"elems\": {}}}",
                s.name.replace('"', "'"),
                s.iters,
                s.min_ns,
                s.mean_ns,
                s.median_ns,
                s.p95_ns,
                s.max_ns,
                s.elems.map(|e| e.to_string()).unwrap_or_else(|| "null".into()),
            ));
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Print the summary and write `BENCH_<name>.json`.
    pub fn finish(self) {
        let path = format!("BENCH_{}.json", self.name);
        match std::fs::write(&path, self.to_json()) {
            Ok(()) => println!("\nwrote {} results to {path}", self.results.len()),
            Err(e) => eprintln!("warning: could not write {path}: {e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_are_ordered_and_json_is_well_formed() {
        let mut h = Harness::new("selftest");
        h.bench_n("noop", 5, || 1 + 1);
        h.bench_elems("spin", 1000, || {
            (0..1000u64).map(black_box).sum::<u64>()
        });
        let s = &h.results[0];
        assert!(s.min_ns <= s.median_ns && s.median_ns <= s.p95_ns && s.p95_ns <= s.max_ns);
        let json = h.to_json();
        assert!(json.contains("\"harness\": \"selftest\""));
        assert!(json.contains("\"name\": \"noop\""));
        assert!(json.contains("\"elems\": 1000"));
        // Balanced braces/brackets (cheap well-formedness check).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn elems_per_sec_uses_median() {
        let s = Stats {
            name: "x".into(),
            iters: 1,
            min_ns: 1,
            mean_ns: 2,
            median_ns: 1_000_000, // 1ms
            p95_ns: 3,
            max_ns: 4,
            elems: Some(10_000),
        };
        let eps = s.elems_per_sec().unwrap();
        assert!((eps - 10_000_000.0).abs() < 1.0, "{eps}");
    }
}
