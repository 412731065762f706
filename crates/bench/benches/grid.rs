//! Perf-trajectory bench: end-to-end evaluation-grid wall time and
//! simulator throughput in *simulated cycles per second*.
//!
//! ```text
//! cargo bench -p ilpc-bench --bench grid
//! ```
//!
//! Writes `BENCH_grid.json` at the **repository root** (the cwd is pinned
//! there regardless of how cargo invokes the target), so successive
//! commits can diff the same file: `grid/wall` tracks the wall time of a
//! reduced 40-workload grid (elems = grid points, so `Melem/s` reads as
//! verified points per microsecond), and the `*/sim_cycles` entries track
//! raw simulator throughput (elems = simulated cycles, so `Melem/s` reads
//! as simulated Mcycles/s).

use ilpc_core::level::Level;
use ilpc_harness::compile::compile;
use ilpc_harness::grid::{run_grid, GridConfig};
use ilpc_harness::sweep::{run_sweep, Scenario, SweepConfig};
use ilpc_harness::ArtifactCache;
use ilpc_machine::{CacheParams, Machine, MemConfig};
use std::sync::Arc;
use ilpc_sim::reference::simulate_reference;
use ilpc_sim::{decode, memory_from_init, simulate, simulate_decoded, SimLimits};
use ilpc_testkit::bench::Harness;
use ilpc_workloads::{build, table2};

fn bench_grid_wall(h: &mut Harness) {
    // A reduced but representative grid: all levels, the two widths that
    // bracket the paper's sweep, 40 workloads.
    let cfg = GridConfig {
        scale: 0.05,
        levels: Level::ALL.to_vec(),
        widths: vec![1, 8],
        threads: 4,
        ..GridConfig::default()
    };
    let points = (40 * cfg.levels.len() * cfg.widths.len()) as u64;
    let mut cycles_per_run = 0u64;
    h.bench_n_elems("grid/wall", 5, points, || {
        let grid = run_grid(&cfg).expect("grid config rejected");
        assert!(grid.errors.is_empty(), "{:#?}", grid.errors);
        assert_eq!(grid.completed() as u64, points);
        cycles_per_run = 0;
        for m in &grid.meta {
            for &level in &cfg.levels {
                for &width in &cfg.widths {
                    cycles_per_run += grid.point(m.name, level, width).unwrap().cycles;
                }
            }
        }
        cycles_per_run
    });
    println!("grid/wall simulates {cycles_per_run} cycles per run");
}

fn bench_sim_throughput(h: &mut Harness) {
    // Raw simulator throughput, perfect memory vs a finite cache — the
    // per-access model cost is the hot-path regression to watch.
    //
    // Three engine regimes per memory model, same workload and machine:
    //  - `*/sim_cycles_legacy`     — the tree-walking reference interpreter
    //    (`ilpc_sim::reference`, the executable specification);
    //  - `*/sim_cycles`            — the default entry point: one decode
    //    pass + the pre-decoded engine (what `simulate` does today);
    //  - `*/sim_cycles_predecoded` — decode hoisted out of the loop, i.e.
    //    the steady state an [`ArtifactCache`] sweep runs in.
    let meta = table2().into_iter().find(|m| m.name == "NAS-3").unwrap();
    let w = build(&meta, 0.25);
    for (tag, machine) in [
        ("perfect", Machine::issue(8)),
        ("cached", Machine::issue(8).with_cache(CacheParams::small())),
    ] {
        let compiled = compile(&w, Level::Lev4, &machine);
        let mem = memory_from_init(&compiled.module.symtab, &w.init);
        let cycles = simulate(&compiled.module, &machine, mem.clone(), u64::MAX)
            .unwrap()
            .cycles;
        // The engines must agree before their throughput is comparable.
        let legacy = simulate_reference(&compiled.module, &machine, mem.clone(), u64::MAX)
            .unwrap()
            .cycles;
        assert_eq!(cycles, legacy, "{tag}: engine cycle counts diverge");
        h.bench_elems(&format!("{tag}/sim_cycles_legacy"), cycles, || {
            simulate_reference(&compiled.module, &machine, mem.clone(), u64::MAX).unwrap()
        });
        h.bench_elems(&format!("{tag}/sim_cycles"), cycles, || {
            simulate(&compiled.module, &machine, mem.clone(), u64::MAX).unwrap()
        });
        let decoded = decode(&compiled.module, &machine);
        h.bench_elems(&format!("{tag}/sim_cycles_predecoded"), cycles, || {
            simulate_decoded(&decoded, &machine, mem.clone(), SimLimits::cycles(u64::MAX))
                .unwrap()
        });
    }
    // Make sure the cached machine really differs from the perfect one.
    assert!(!matches!(
        Machine::issue(8).with_cache(CacheParams::small()).mem,
        MemConfig::Perfect
    ));
}

fn bench_artifact_sweep(h: &mut Harness) {
    // A memory-hierarchy sweep varies only simulator-side parameters, so
    // a shared [`ArtifactCache`] compiles each (workload, level) exactly
    // once and serves every further memory configuration from cache.
    // `elems` counts the cache hits per iteration — lookups that skipped a
    // compile+decode — so `Melem/s` here is "deduplicated work per second".
    let workloads: Vec<_> = table2().into_iter().take(6).map(|m| build(&m, 0.05)).collect();
    let levels = [Level::Lev2, Level::Lev4];
    let mems = [
        MemConfig::Perfect,
        MemConfig::Cache(CacheParams::small()),
        MemConfig::Cache(CacheParams::new(4, 8, 2, 30, 10)),
    ];
    let expected_compiles = (workloads.len() * levels.len()) as u64;
    let expected_hits = expected_compiles * (mems.len() as u64 - 1);
    h.bench_elems("artifact_sweep/wall", expected_hits, || {
        let cache = ArtifactCache::new();
        for w in &workloads {
            for &level in &levels {
                for mem in mems {
                    let machine = Machine::issue(8).with_mem(mem);
                    cache.evaluate(w, level, &machine).unwrap();
                }
            }
        }
        let c = cache.counters();
        assert_eq!(c.compiles, expected_compiles, "{c:?}");
        assert_eq!(c.hits, expected_hits, "{c:?}");
        c
    });
    println!(
        "artifact_sweep: {expected_compiles} compiles serve \
         {} evaluations per iteration",
        expected_compiles + expected_hits
    );
}

fn bench_skewed_sweep(h: &mut Harness) {
    // Skewed multi-config sweep: one cheap scenario (perfect memory) and
    // one expensive scenario (a tiny cache with long miss latencies), so
    // per-point costs are deliberately unbalanced, evaluated through
    // `run_sweep`'s single work-stealing pool. A pre-warmed artifact
    // cache makes the measured quantity scheduling + simulation, and
    // `elems` counts evaluated points, so `elem/s` is point throughput.
    let scale = 0.02;
    let levels = vec![Level::Conv, Level::Lev2, Level::Lev4];
    let widths = vec![1u32, 8];
    let slow_cache = MemConfig::Cache(CacheParams::new(4, 8, 2, 100, 100));
    let scenarios = vec![Scenario::mem(MemConfig::Perfect), Scenario::mem(slow_cache)];
    let points = (40 * levels.len() * widths.len() * scenarios.len()) as u64;

    let artifacts = Arc::new(ArtifactCache::new());
    // Warm the cache before timing.
    let warm = run_sweep(&SweepConfig {
        scale,
        levels: levels.clone(),
        widths: widths.clone(),
        threads: 4,
        scenarios: scenarios.clone(),
        sabotage: None,
        artifacts: Some(Arc::clone(&artifacts)),
    })
    .expect("sweep config rejected");
    assert_eq!(warm.total_errors(), 0);

    h.bench_elems("sweep/worksteal", points, || {
        let sweep = run_sweep(&SweepConfig {
            scale,
            levels: levels.clone(),
            widths: widths.clone(),
            threads: 4,
            scenarios: scenarios.clone(),
            sabotage: None,
            artifacts: Some(Arc::clone(&artifacts)),
        })
        .expect("sweep config rejected");
        assert_eq!(sweep.total_errors(), 0);
        let completed: usize = sweep.grids.iter().map(|g| g.completed()).sum();
        assert_eq!(completed as u64, points);
        completed
    });
}

fn bench_vlen_sweep(h: &mut Harness) {
    // The vectorization axis: Conv/Lev4/Lev6 across VLEN {1, 4, 8}
    // scenarios on one pool. VLEN is compile-relevant (it sits in the
    // compile key), so unlike the memory sweep every scenario compiles
    // its own artifacts — the pre-warmed cache serves all of them and the
    // measured quantity is scheduling + vector simulation. `elems` counts
    // evaluated points, comparable with the other `sweep/*` entries.
    let scale = 0.02;
    let levels = vec![Level::Conv, Level::Lev4, Level::Lev6];
    let widths = vec![1u32, 8];
    let scenarios: Vec<Scenario> = [1u32, 4, 8].iter().map(|&v| Scenario::vlen(v)).collect();
    let points = (40 * levels.len() * widths.len() * scenarios.len()) as u64;

    let artifacts = Arc::new(ArtifactCache::new());
    let cfg = SweepConfig {
        scale,
        levels,
        widths,
        threads: 4,
        scenarios,
        sabotage: None,
        artifacts: Some(Arc::clone(&artifacts)),
    };
    let warm = run_sweep(&cfg).expect("sweep config rejected");
    assert_eq!(warm.total_errors(), 0);

    h.bench_elems("sweep/vlen", points, || {
        let sweep = run_sweep(&cfg).expect("sweep config rejected");
        assert_eq!(sweep.total_errors(), 0);
        let completed: usize = sweep.grids.iter().map(|g| g.completed()).sum();
        assert_eq!(completed as u64, points);
        completed
    });
}

fn main() {
    // Pin the output location: BENCH_grid.json always lands at the repo
    // root, not wherever cargo happens to set the cwd.
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    std::env::set_current_dir(root).expect("chdir to repo root");
    let mut h = Harness::new("grid");
    bench_grid_wall(&mut h);
    bench_sim_throughput(&mut h);
    bench_artifact_sweep(&mut h);
    bench_skewed_sweep(&mut h);
    bench_vlen_sweep(&mut h);
    h.finish();
}
