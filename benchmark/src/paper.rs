//! `grid-paper` and `sweep-mem`: the paper grid and a memory sweep, timed
//! end to end (`--trace 0`) or stage by stage (`--trace 1`).

use crate::calib::{scaled, Prober};
use crate::stats::{geomean, median, RedundancyLedger};
use crate::trace::{evaluate_staged, Layers, Spans, StagedCache};
use crate::{peak_rss_mb, Args, Report};
use ilpc_core::level::{passes, Level};
use ilpc_harness::steal::{self, StealStats};
use ilpc_harness::{run_grid, run_sweep, EvalPoint, Grid, GridConfig, Scenario, SweepConfig};
use ilpc_machine::{CacheParams, Machine, MemConfig};
use ilpc_workloads::{build_all, Workload};
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::Instant;

/// Fewest timed repeats a run makes, however short `--seconds` is.
const MIN_REPS: usize = 3;

/// Catalog builds per repeat; the repeat's set-up time is their median.
const SETUP_BUILDS: usize = 9;

/// The sweep's scenarios: perfect memory plus seven finite L1s spanning
/// size, associativity and miss latency (as `cache-sensitivity` does).
pub fn sweep_scenarios() -> Vec<Scenario> {
    let mut s = vec![Scenario::mem(MemConfig::Perfect)];
    for (sets, ways, miss) in [
        (16, 2, 30),  // 1 KiB, the harness's small cache
        (64, 2, 30),  // 4 KiB
        (256, 2, 30), // 16 KiB
        (32, 1, 30),  // 1 KiB direct-mapped
        (8, 4, 30),   // 1 KiB 4-way
        (16, 2, 10),  // short miss
        (16, 2, 100), // long miss
    ] {
        s.push(Scenario::mem(MemConfig::Cache(CacheParams::new(
            4, sets, ways, miss, miss,
        ))));
    }
    s
}

fn sweep_config() -> SweepConfig {
    SweepConfig {
        scenarios: sweep_scenarios(),
        artifacts: Some(Arc::new(ilpc_harness::ArtifactCache::new())),
        ..SweepConfig::default()
    }
}

/// The deterministic outputs a run must repeat exactly.
#[derive(Debug, Clone)]
struct Outputs {
    points: usize,
    errors: usize,
    checksum: u64,
    speedup_geomean: f64,
    regs_mean: f64,
    /// The artifact cache compiled each key once and hit on the rest.
    cache_ok: bool,
}

/// FNV-1a over every point's cycles, dynamic instructions, static size
/// and register use, in the grid's deterministic order.
fn checksum<'a>(points: impl Iterator<Item = (&'a str, Level, u32, &'a EvalPoint)>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    };
    for (name, level, width, p) in points {
        name.bytes().for_each(|b| eat(b as u64));
        eat(level as u64);
        eat(width as u64);
        eat(p.cycles);
        eat(p.dyn_insts);
        eat(p.static_insts as u64);
        eat(p.regs.total() as u64);
    }
    h
}

/// Conv/issue-1 cycles of `base` ÷ Lev4/issue-8 cycles of `g`, per loop.
fn speedups(base: &Grid, g: &Grid) -> Vec<f64> {
    g.meta
        .iter()
        .map(|m| {
            let b = base
                .point(m.name, Level::Conv, 1)
                .map_or(0.0, |p| p.cycles as f64);
            let t = g
                .point(m.name, Level::Lev4, 8)
                .map_or(f64::INFINITY, |p| p.cycles as f64);
            b / t
        })
        .collect()
}

/// Mean total registers at Lev4/issue-8 (`NaN` unless every loop has it).
fn regs_mean(g: &Grid) -> f64 {
    g.mean_regs(g.meta.iter().map(|m| m.name), Level::Lev4, 8)
        .complete()
        .unwrap_or(f64::NAN)
}

fn grid_outputs(g: &Grid) -> Outputs {
    Outputs {
        points: g.completed(),
        errors: g.errors.len(),
        checksum: checksum(g.iter_points()),
        speedup_geomean: geomean(&speedups(g, g)).unwrap_or(f64::NAN),
        regs_mean: regs_mean(g),
        cache_ok: true,
    }
}

/// As [`grid_outputs`], with the speedup mean taken over every scenario
/// against the perfect-memory base. Register use does not depend on the
/// memory model, so `regs_mean` is the perfect grid's.
fn sweep_outputs(s: &ilpc_harness::Sweep) -> Outputs {
    let perfect = &s.grids[0];
    let ratios: Vec<f64> = s.grids.iter().flat_map(|g| speedups(perfect, g)).collect();
    Outputs {
        points: s.grids.iter().map(Grid::completed).sum(),
        errors: s.total_errors(),
        checksum: checksum(s.grids.iter().flat_map(Grid::iter_points)),
        speedup_geomean: geomean(&ratios).unwrap_or(f64::NAN),
        regs_mean: regs_mean(perfect),
        cache_ok: s.cache.compiles == GRID_POINTS as u64
            && s.cache.hits == (GRID_POINTS * (s.grids.len() - 1)) as u64,
    }
}

/// Set-up: building the 40-loop catalog at paper scale, the inputs every
/// grid point starts from, in seconds.
fn build_catalog() -> (Vec<Workload>, f64) {
    let t = Instant::now();
    let workloads = build_all(1.0);
    (workloads, t.elapsed().as_secs_f64())
}

/// One evaluation in a fresh process, as a user runs it: the child
/// (`--once 1`) builds the catalog [`SETUP_BUILDS`] times (its set-up; a
/// single build takes about a millisecond, too short to time alone), runs
/// the workload once and prints the median build time, the wall time, its
/// own peak RSS and its deterministic outputs on one line.
pub fn once(workload: &str) -> Result<String, String> {
    let builds: Vec<f64> = (0..SETUP_BUILDS)
        .map(|_| std::hint::black_box(build_catalog()).1)
        .collect();
    let setup = median(&builds).expect("at least one build");
    let t = Instant::now();
    let (out, wall) = match workload {
        "grid-paper" => {
            let g = run_grid(&GridConfig::default()).map_err(|e| e.to_string())?;
            let wall = t.elapsed().as_secs_f64();
            (grid_outputs(&g), wall)
        }
        "sweep-mem" => {
            let s = run_sweep(&sweep_config()).map_err(|e| e.to_string())?;
            let wall = t.elapsed().as_secs_f64();
            (sweep_outputs(&s), wall)
        }
        other => return Err(format!("--once does not apply to {other:?}")),
    };
    let peak = peak_rss_mb("self").ok_or("no VmHWM in /proc/self/status")?;
    Ok(format!(
        "{setup} {wall} {peak} {} {} {} {} {} {}",
        out.points,
        out.errors,
        out.checksum,
        out.speedup_geomean.to_bits(),
        out.regs_mean.to_bits(),
        out.cache_ok
    ))
}

/// Run [`once`] in a child process and parse its line.
fn run_once(workload: &str) -> Result<([f64; 3], Outputs), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let child = Command::new(exe)
        .args(["--workload", workload, "--once", "1"])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn --once child: {e}"))?;
    if !child.status.success() {
        return Err(format!("--once child exited with {}", child.status));
    }
    let text = String::from_utf8_lossy(&child.stdout);
    let f: Vec<&str> = text.split_whitespace().collect();
    let bad = || format!("malformed --once line {text:?}");
    if f.len() != 9 {
        return Err(bad());
    }
    let num = |k: usize| f[k].parse::<u64>().map_err(|_| bad());
    let out = Outputs {
        points: num(3)? as usize,
        errors: num(4)? as usize,
        checksum: num(5)?,
        speedup_geomean: f64::from_bits(num(6)?),
        regs_mean: f64::from_bits(num(7)?),
        cache_ok: f[8] == "true",
    };
    let time = |k: usize| f[k].parse::<f64>().map_err(|_| bad());
    Ok(([time(0)?, time(1)?, time(2)?], out))
}

/// Runs `workload` in fresh processes until `seconds` have passed (at
/// least [`MIN_REPS`] times), checks each repeat's outputs against the
/// first, and reports the end-to-end metrics: the mean set-up time, the
/// median wall time scaled by the host probes around each repeat (see
/// [`crate::calib`]), and the median peak RSS.
fn timed_repeats(args: &Args, r: &mut Report, expect_points: usize) -> Result<(), String> {
    let start = Instant::now();
    let mut host = Prober::start();
    let (mut setups, mut walls, mut peaks) = (Vec::new(), Vec::new(), Vec::new());
    let mut raw_walls = Vec::new();
    let mut first: Option<Outputs> = None;
    while walls.len() < MIN_REPS || start.elapsed().as_secs_f64() < args.seconds {
        let ([setup, wall, peak], out) = run_once(&args.workload)?;
        let (before, after) = host.next();
        setups.push(setup);
        walls.push(scaled(wall, before, after));
        raw_walls.push(wall);
        peaks.push(peak);
        r.attempted += expect_points as u64;
        r.failed += (out.errors + expect_points.saturating_sub(out.points + out.errors)) as u64;
        if out.errors != 0 || out.points != expect_points {
            r.fail(format!(
                "{} errors, {}/{expect_points} points",
                out.errors, out.points
            ));
        }
        if !out.cache_ok {
            r.fail("artifact cache did not compile each key exactly once");
        }
        match &first {
            None => first = Some(out),
            Some(f) if outputs_equal(f, &out) => {}
            Some(f) => r.fail(format!("repeat differs: {f:?} vs {out:?}")),
        }
    }
    let f = first.expect("at least one repeat");
    eprintln!(
        "set-ups {setups:.5?} s, raw walls {raw_walls:.3?} s, probes {:.4?} s, \
         peaks {peaks:.1?} MB, checksum {:016x}",
        host.times, f.checksum
    );
    // Each repeat's set-up is already a median over its process's builds,
    // but those medians are bimodal: a fresh process lands on a fast or a
    // slow core and memory placement of the virtual machine and keeps it
    // for its short life, so a median across repeats jumps between the two
    // modes from run to run. Their mean moves smoothly. It is not scaled:
    // a one-thread, one-millisecond build does not slow down with the
    // two-core probe (in a phase where the probe ran twice as slow, the
    // builds did not), so scaling would only add the probe's noise.
    let setup = setups.iter().sum::<f64>() / setups.len() as f64;
    r.metric("setup_s", setup, "s");
    r.metric("wall_s", median(&walls).expect("timed repeats"), "s");
    r.metric("peak_rss_mb", median(&peaks).expect("timed repeats"), "MB");
    r.metric("speedup_geomean", f.speedup_geomean, "x");
    r.metric("regs_mean", f.regs_mean, "regs");
    let ok = r.attempted - r.failed;
    r.metric(
        "success_rate",
        ok as f64 / r.attempted.max(1) as f64,
        "ratio",
    );
    Ok(())
}

/// Bit-identity of every deterministic output.
fn outputs_equal(a: &Outputs, b: &Outputs) -> bool {
    a.points == b.points
        && a.errors == b.errors
        && a.checksum == b.checksum
        && a.speedup_geomean.to_bits() == b.speedup_geomean.to_bits()
        && a.regs_mean.to_bits() == b.regs_mean.to_bits()
        && a.cache_ok == b.cache_ok
}

const GRID_POINTS: usize = 40 * 6 * 4;

pub fn grid_paper(args: &Args) -> Result<Report, String> {
    let mut r = Report::default();
    if args.trace {
        return traced_grid_paper(r);
    }
    timed_repeats(args, &mut r, GRID_POINTS)?;
    Ok(r)
}

pub fn sweep_mem(args: &Args) -> Result<Report, String> {
    let mut r = Report::default();
    if args.trace {
        return traced_sweep_mem(r);
    }
    timed_repeats(args, &mut r, GRID_POINTS * sweep_scenarios().len())?;
    Ok(r)
}

/// One traced grid item: the point's key, its outcome and its spans.
type Traced = ((usize, usize, Level, u32), Result<EvalPoint, String>, Spans);

/// Run `items` (scenario, workload, level, width) on the stealing pool,
/// each through `eval` inside a busy-time span.
fn traced_pool(
    items: &[(usize, usize, Level, u32)],
    eval: impl Fn(&(usize, usize, Level, u32), &mut Spans) -> Result<EvalPoint, String> + Sync,
) -> (Vec<Traced>, StealStats, f64) {
    let threads = GridConfig::default().threads;
    let t = Instant::now();
    let (out, steals) = steal::execute(items, threads, |_, item| {
        let t = Instant::now();
        let mut sp = Spans::default();
        let res = eval(item, &mut sp);
        sp.busy = t.elapsed().as_secs_f64();
        (*item, res, sp)
    });
    (out, steals, t.elapsed().as_secs_f64())
}

/// Fold traced items, checking each against the untraced run's point.
fn fold_traced(
    r: &mut Report,
    workloads: &[Workload],
    traced: &[Traced],
    untraced: impl Fn(usize, &str, Level, u32) -> Option<EvalPoint>,
) -> (Spans, RedundancyLedger) {
    let mut total = Spans::default();
    let mut ledger = RedundancyLedger::default();
    let mut mismatches = 0;
    for ((si, wi, level, width), res, sp) in traced {
        total.merge(sp);
        let name = workloads[*wi].meta.name;
        r.attempted += 1;
        let want = untraced(*si, name, *level, *width);
        match res {
            Ok(p) if Some(*p) == want => {}
            Ok(p) => {
                mismatches += 1;
                eprintln!("trace fidelity: {name} {level} issue-{width}: {p:?} vs {want:?}");
            }
            Err(e) => {
                r.failed += 1;
                eprintln!("traced point failed: {e}");
            }
        }
    }
    // The front end runs once per compile; count compiles by key.
    for ((_, wi, level, _), _, sp) in traced {
        if sp.calls[crate::trace::LOWER] > 0 {
            let n = passes(*level).count() as u64;
            ledger.record(workloads[*wi].meta.name, level.name(), 1, n);
        }
    }
    if mismatches > 0 || r.failed > 0 {
        r.fail(format!(
            "{mismatches} trace-fidelity mismatches, {} failed points",
            r.failed
        ));
    }
    (total, ledger)
}

fn grid_items(scenarios: usize, workloads: usize) -> Vec<(usize, usize, Level, u32)> {
    let mut items = Vec::new();
    for si in 0..scenarios {
        for wi in 0..workloads {
            for level in Level::ALL {
                for width in [1, 2, 4, 8] {
                    items.push((si, wi, level, width));
                }
            }
        }
    }
    items
}

fn traced_grid_paper(mut r: Report) -> Result<Report, String> {
    let (workloads, build_s) = build_catalog();
    let t = Instant::now();
    let grid = run_grid(&GridConfig::default()).map_err(|e| e.to_string())?;
    let untraced_wall = t.elapsed().as_secs_f64();
    let items = grid_items(1, workloads.len());
    let (traced, steals, traced_wall) = traced_pool(&items, |&(_, wi, level, width), sp| {
        evaluate_staged(&workloads[wi], level, &Machine::issue(width), sp)
    });
    let (spans, ledger) = fold_traced(&mut r, &workloads, &traced, |_, n, l, w| {
        grid.point(n, l, w).copied()
    });
    let layers = Layers {
        build_s,
        redundant_share: ledger.share(),
        steals,
        overhead_s: traced_wall - untraced_wall,
        ..Layers::new(spans)
    };
    layers.emit(&mut r);
    Ok(r)
}

fn traced_sweep_mem(mut r: Report) -> Result<Report, String> {
    let (workloads, build_s) = build_catalog();
    let t = Instant::now();
    let sweep = run_sweep(&sweep_config()).map_err(|e| e.to_string())?;
    let untraced_wall = t.elapsed().as_secs_f64();
    let scenarios = sweep_scenarios();
    let items = grid_items(scenarios.len(), workloads.len());
    let cache = StagedCache::default();
    let (traced, _, traced_wall) = traced_pool(&items, |&(si, wi, level, width), sp| {
        let s = &scenarios[si];
        let machine = Machine {
            latency: s.latency,
            ..Machine::issue(width).with_mem(s.mem).with_vlen(s.vlen)
        };
        cache.evaluate(wi, &workloads[wi], level, &machine, sp)
    });
    let (spans, ledger) = fold_traced(&mut r, &workloads, &traced, |si, n, l, w| {
        sweep.grids[si].point(n, l, w).copied()
    });
    let staged = (cache.compiles.into_inner(), cache.hits.into_inner());
    if staged != (sweep.cache.compiles, sweep.cache.hits) {
        r.fail(format!(
            "staged cache {staged:?} vs artifact cache {:?}",
            sweep.cache
        ));
    }
    let layers = Layers {
        build_s,
        redundant_share: ledger.share(),
        artifact: (sweep.cache.compiles, sweep.cache.hits),
        steals: sweep.steals,
        overhead_s: traced_wall - untraced_wall,
        ..Layers::new(spans)
    };
    layers.emit(&mut r);
    Ok(r)
}
