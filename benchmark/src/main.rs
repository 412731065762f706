//! `ilpc-bench-e2e` — the repository's end-to-end benchmark.
//!
//! ```text
//! bash benchmark/run.sh --workload grid-paper --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Workloads: `grid-paper` (the paper grid `report` runs), `sweep-mem`
//! (one eight-scenario memory sweep over a fresh artifact cache) and
//! `serve-mixed` (open-loop mixed traffic against the `ilpc-serve`
//! binary). With `--trace 0` the last stdout line carries the end-to-end
//! metrics; with `--trace 1` a separate traced run calls each layer's
//! public function in pipeline order and reports per-layer metrics.
//! See `benchmark/README.md` for the metric table.

mod calib;
mod paper;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::time::Instant;

/// One benchmark run's outcome: its JSON result line.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Default for Report {
    fn default() -> Report {
        Report {
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
        }
    }
}

impl Report {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// Record a failed correctness check (reported on stderr, and the run
    /// reads `"correct": false`).
    pub fn fail(&mut self, why: impl AsRef<str>) {
        eprintln!("CHECK FAILED: {}", why.as_ref());
        self.correct = false;
    }

    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| {
                let v = if v.is_finite() {
                    format!("{v}")
                } else {
                    "null".to_string()
                };
                format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The `ilpc-serve` binary `serve-mixed` drives.
    pub serve_bin: Option<PathBuf>,
    /// Run one evaluation and print its figures (the per-repeat child).
    pub once: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        serve_bin: None,
        once: false,
    };
    let mut k = 0;
    while k < argv.len() {
        let val = argv
            .get(k + 1)
            .ok_or_else(|| format!("{} needs a value", argv[k]))?;
        let bad = || format!("bad value {val:?} for {}", argv[k]);
        match argv[k].as_str() {
            "--workload" => args.workload = val.clone(),
            "--seed" => args.seed = val.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = val.parse::<f64>().map_err(|_| bad())?,
            "--trace" => args.trace = val.parse::<u8>().map_err(|_| bad())? == 1,
            "--serve-bin" => args.serve_bin = Some(PathBuf::from(val)),
            "--once" => args.once = val == "1",
            other => return Err(format!("unknown argument {other}")),
        }
        k += 2;
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Peak resident set (`VmHWM`) of process `pid`, in MB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Median of `reps` timed calls of `f`, in seconds.
pub fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    stats::median(&times).expect("at least one repetition")
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ilpc-bench-e2e: {e}");
            std::process::exit(2);
        }
    };
    if args.once {
        match paper::once(&args.workload) {
            Ok(line) => println!("{line}"),
            Err(e) => {
                eprintln!("ilpc-bench-e2e --once: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    eprintln!(
        "ilpc-bench-e2e: workload {} seed {} seconds {} trace {} ({} cores)",
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let report = match args.workload.as_str() {
        "grid-paper" => paper::grid_paper(&args),
        "sweep-mem" => paper::sweep_mem(&args),
        "serve-mixed" => serve::serve_mixed(&args),
        other => {
            eprintln!("ilpc-bench-e2e: unknown workload {other:?}");
            std::process::exit(2);
        }
    };
    match report {
        Ok(r) => println!("{}", r.to_json()),
        Err(e) => {
            eprintln!("ilpc-bench-e2e: {e}");
            std::process::exit(1);
        }
    }
}
