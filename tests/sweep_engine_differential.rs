//! Differential guarantee between the grid's two engines.
//!
//! `run_grid` evaluates the paper grid staged, one work item per workload;
//! `run_sweep` evaluates every (scenario, workload, level, width) point on
//! its own against a shared [`ArtifactCache`]. Per scenario the two must be
//! indistinguishable on every observable — the deterministic
//! `(name, level, width)` point stream, the measured [`EvalPoint`]s, the
//! typed per-point error list in the grid's order, and every
//! coverage-carrying aggregate — across the full grid (40 workloads ×
//! every level × widths {1, 4, 8}), for a sweep over perfect memory and a
//! finite cache, and with a sabotaged point degrading both engines
//! identically. One shared cache feeds both sweeps, so this suite also
//! proves scheduling order never leaks into compile artifacts; and the
//! staged grid must not depend on its thread count.
//!
//! [`EvalPoint`]: ilp_compiler::harness::EvalPoint

use ilp_compiler::harness::grid::PointError;
use ilp_compiler::harness::{ArtifactCache, Grid};
use ilp_compiler::prelude::*;
use std::sync::Arc;

const SCALE: f64 = 0.02;
const WIDTHS: [u32; 3] = [1, 4, 8];
const POINTS: usize = 40 * Level::ALL.len() * 3;

fn grid_cfg(mem: MemConfig, sabotage: Option<Sabotage>, threads: usize) -> GridConfig {
    GridConfig {
        scale: SCALE,
        levels: Level::ALL.to_vec(),
        widths: WIDTHS.to_vec(),
        threads,
        mem,
        sabotage,
    }
}

fn sweep_cfg(
    mems: &[MemConfig],
    sabotage: Option<Sabotage>,
    cache: &Arc<ArtifactCache>,
) -> SweepConfig {
    SweepConfig {
        scale: SCALE,
        levels: Level::ALL.to_vec(),
        widths: WIDTHS.to_vec(),
        threads: 4,
        scenarios: mems.iter().map(|&mem| Scenario::mem(mem)).collect(),
        sabotage,
        artifacts: Some(Arc::clone(cache)),
    }
}

/// Every observable of the two grids must match exactly.
fn assert_grids_identical(tag: &str, staged: &Grid, oracle: &Grid) {
    assert_eq!(staged.levels, oracle.levels, "{tag}: levels");
    assert_eq!(staged.widths, oracle.widths, "{tag}: widths");
    assert_eq!(staged.completed(), oracle.completed(), "{tag}: completed count");

    let staged_points: Vec<_> = staged.iter_points().collect();
    let oracle_points: Vec<_> = oracle.iter_points().collect();
    assert_eq!(staged_points.len(), oracle_points.len(), "{tag}: point stream length");
    for (a, b) in staged_points.iter().zip(&oracle_points) {
        assert_eq!(a, b, "{tag}: point stream diverged");
    }

    // Unsorted: both engines report errors in (workload, level, width)
    // submission order, whatever thread finished first.
    assert_eq!(staged.errors, oracle.errors, "{tag}: typed error list");

    // Aggregates (value AND coverage) agree at every coordinate.
    let names: Vec<&str> = staged.meta.iter().map(|m| m.name).collect();
    for &level in Level::ALL.iter() {
        for width in WIDTHS {
            assert_eq!(
                staged.mean_speedup(names.iter().copied(), level, width),
                oracle.mean_speedup(names.iter().copied(), level, width),
                "{tag}: mean_speedup at ({level}, issue-{width})"
            );
            assert_eq!(
                staged.mean_regs(names.iter().copied(), level, width),
                oracle.mean_regs(names.iter().copied(), level, width),
                "{tag}: mean_regs at ({level}, issue-{width})"
            );
        }
    }
}

/// The one differential drive: a two-scenario sweep (perfect memory and
/// a finite cache) and a sabotaged one-scenario sweep, off a single shared
/// artifact cache, each scenario against its own staged grid. Sequential
/// on purpose — sharing the cache across both sweeps is itself under test.
#[test]
fn staged_grid_equals_sweep_on_full_grid() {
    let cache = Arc::new(ArtifactCache::new());

    // Perfect memory (the paper's model) and a finite cache, whose miss
    // latencies perturb every cycle count: the engines must still agree
    // point for point.
    let mems = [MemConfig::Perfect, MemConfig::Cache(CacheParams::small())];
    let sweep = run_sweep(&sweep_cfg(&mems, None, &cache)).expect("valid config");
    assert_eq!(sweep.grids.len(), mems.len());
    for (mem, oracle) in mems.iter().zip(&sweep.grids) {
        let tag = mem.name();
        let staged = run_grid(&grid_cfg(*mem, None, 4)).expect("valid config");
        assert_eq!(staged.completed(), POINTS, "{tag}: full grid completes");
        assert!(staged.errors.is_empty(), "{tag}: {:?}", staged.errors);
        assert_grids_identical(&tag, &staged, oracle);
    }
    // Memory hierarchy is not compile-relevant, so the cached scenario
    // reuses the perfect scenario's artifacts instead of recompiling.
    let counters = cache.counters();
    assert!(
        counters.hits >= counters.compiles,
        "cross-run artifact reuse missing: {counters:?}"
    );

    // A sabotaged point must degrade both engines to the same typed error
    // while every other point stays identical.
    let sabotage = Sabotage {
        workload: "dotprod".to_string(),
        level: Level::Lev3,
        width: 8,
        mode: SabotageMode::Panic,
    };
    let mut sweep = run_sweep(&sweep_cfg(&[MemConfig::Perfect], Some(sabotage.clone()), &cache))
        .expect("valid config");
    let oracle = sweep.grids.pop().expect("one grid per scenario");
    let staged = run_grid(&grid_cfg(MemConfig::Perfect, Some(sabotage), 4)).expect("valid config");
    assert_eq!(staged.completed(), POINTS - 1, "sabotage: one hole");
    assert_eq!(staged.errors.len(), 1);
    assert_eq!(staged.errors[0].workload, "dotprod");
    assert!(matches!(staged.errors[0].error, PointError::Panic(_)));
    assert_grids_identical("sabotaged", &staged, &oracle);
    assert!(staged.point("dotprod", Level::Lev3, 8).is_none());
    // Coverage accounting carries the hole identically in both engines.
    let names: Vec<&str> = staged.meta.iter().map(|m| m.name).collect();
    let agg = staged.mean_speedup(names.iter().copied(), Level::Lev3, 8);
    assert_eq!((agg.covered(), agg.requested()), (39, 40));
}

/// Determinism: the staged grid is the same `Grid` on one worker thread
/// as on four — points, aggregates and the typed error list in its
/// order. A one-line cache whose 20 000-cycle misses exhaust the cycle
/// budget on part of the grid gives errors across many workloads, so
/// the error order is visible.
#[test]
fn staged_grid_is_identical_at_one_and_four_threads() {
    let mem = MemConfig::Cache(CacheParams::new(1, 1, 1, 20_000, 20_000));
    let one = run_grid(&grid_cfg(mem, None, 1)).expect("valid config");
    let four = run_grid(&grid_cfg(mem, None, 4)).expect("valid config");
    assert_eq!(one.completed() + one.errors.len(), POINTS);
    assert!(one.completed() > 0, "no point survived the starved cache");
    let mut failed: Vec<&str> = one.errors.iter().map(|e| e.workload.as_str()).collect();
    failed.dedup();
    assert!(failed.len() > 1, "errors must span workloads: {failed:?}");
    assert!(one.errors.iter().all(|e| matches!(e.error, PointError::Eval(_))));
    let names = |g: &Grid| g.meta.iter().map(|m| m.name).collect::<Vec<_>>();
    assert_eq!(names(&one), names(&four), "workload order");
    assert_grids_identical("threads 1 vs 4", &one, &four);
}
