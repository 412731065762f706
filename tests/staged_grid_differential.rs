//! Differential guarantee for the staged paper grid.
//!
//! `run_grid` builds each workload's front end once (one reference run,
//! one lowering, one walk of the cumulative level chain, one superblock
//! formation per level) and runs only the back end per issue width. A
//! one-scenario `run_sweep` compiles every point on its own and is the
//! oracle: the two must agree on the full `(name, level, width)` point
//! stream and on the typed error list, in the order the grid reports it,
//! under perfect memory, under a finite cache, with a sabotaged point of
//! either failure shape, and for an unsorted level list.

use ilp_compiler::harness::grid::PointError;
use ilp_compiler::harness::Grid;
use ilp_compiler::prelude::*;

const SCALE: f64 = 0.02;
const WIDTHS: [u32; 3] = [1, 4, 8];

fn cfg(levels: &[Level], mem: MemConfig, sabotage: Option<SabotageMode>) -> GridConfig {
    GridConfig {
        scale: SCALE,
        levels: levels.to_vec(),
        widths: WIDTHS.to_vec(),
        threads: 2,
        mem,
        sabotage: sabotage.map(|mode| Sabotage {
            workload: "dotprod".to_string(),
            level: Level::Lev3,
            width: 8,
            mode,
        }),
    }
}

/// The per-point oracle for `cfg`: a one-scenario sweep over the same
/// axes, memory and sabotage.
fn oracle(cfg: &GridConfig) -> Grid {
    let mut sweep = run_sweep(&SweepConfig {
        scale: cfg.scale,
        levels: cfg.levels.clone(),
        widths: cfg.widths.clone(),
        threads: cfg.threads,
        scenarios: vec![Scenario::mem(cfg.mem)],
        sabotage: cfg.sabotage.clone(),
        artifacts: None,
    })
    .expect("valid config");
    sweep.grids.pop().expect("one grid per scenario")
}

/// Run the staged grid and its oracle on `cfg` and require identical
/// observables.
fn staged_vs_oracle(tag: &str, cfg: &GridConfig) -> Grid {
    let staged = run_grid(cfg).expect("valid config");
    let oracle = oracle(cfg);
    assert_eq!(staged.levels, oracle.levels, "{tag}: levels");
    assert_eq!(staged.widths, oracle.widths, "{tag}: widths");
    let a: Vec<_> = staged.iter_points().collect();
    let b: Vec<_> = oracle.iter_points().collect();
    assert_eq!(a.len(), b.len(), "{tag}: point stream length");
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x, y, "{tag}: point stream diverged");
    }
    // Unsorted: the staged grid must emit errors in the grid's order.
    assert_eq!(staged.errors, oracle.errors, "{tag}: typed error list");
    staged
}

#[test]
fn staged_grid_equals_per_point_oracle_under_perfect_memory() {
    let g = staged_vs_oracle("perfect", &cfg(&Level::ALL, MemConfig::Perfect, None));
    assert_eq!(g.completed(), 40 * Level::ALL.len() * WIDTHS.len());
    assert!(g.errors.is_empty(), "{:?}", g.errors);
}

#[test]
fn staged_grid_equals_per_point_oracle_under_finite_cache() {
    let mem = MemConfig::Cache(CacheParams::small());
    let g = staged_vs_oracle("cached", &cfg(&Level::ALL, mem, None));
    assert_eq!(g.completed(), 40 * Level::ALL.len() * WIDTHS.len());
    assert!(g.errors.is_empty(), "{:?}", g.errors);
}

#[test]
fn staged_grid_contains_sabotaged_points_like_the_oracle() {
    for mode in [SabotageMode::Panic, SabotageMode::Corrupt] {
        let tag = format!("{mode:?}");
        let g = staged_vs_oracle(&tag, &cfg(&Level::ALL, MemConfig::Perfect, Some(mode)));
        assert_eq!(
            g.completed(),
            40 * Level::ALL.len() * WIDTHS.len() - 1,
            "{tag}"
        );
        assert_eq!(g.errors.len(), 1, "{tag}: {:?}", g.errors);
        let e = &g.errors[0];
        assert_eq!(
            (e.workload.as_str(), e.level, e.width),
            ("dotprod", Level::Lev3, 8)
        );
        match (mode, &e.error) {
            (SabotageMode::Panic, PointError::Panic(msg)) => {
                assert!(msg.contains("sabotaged grid point"), "{msg}")
            }
            (SabotageMode::Corrupt, PointError::Eval(_)) => {}
            other => panic!("{tag}: wrong error shape {other:?}"),
        }
        // The sabotaged point's neighbours on the shared front end stand.
        for width in [1, 4] {
            assert!(g.point("dotprod", Level::Lev3, width).is_some(), "{tag}");
        }
        assert!(g.point("dotprod", Level::Lev4, 8).is_some(), "{tag}");
    }
}

#[test]
fn staged_grid_keeps_an_unsorted_level_order() {
    let levels = [Level::Lev4, Level::Conv, Level::Lev2];
    let g = staged_vs_oracle("unsorted", &cfg(&levels, MemConfig::Perfect, None));
    assert_eq!(g.levels, levels);
    assert_eq!(g.completed(), 40 * levels.len() * WIDTHS.len());
}
