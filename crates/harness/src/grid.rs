//! The evaluation grid: every (loop, level, issue width) combination.
//!
//! Work is distributed over worker threads by the work-stealing scheduler
//! in [`crate::steal`] (per-worker deques, steal-half). [`run_grid`] is
//! **staged**: one work item per workload interprets the AST once, lowers
//! once, walks the cumulative level chain once ([`walk_levels`]), forms
//! superblocks once per level and runs only the machine-dependent back end
//! per issue width. Per-point evaluation against an [`ArtifactCache`] is
//! the sweep engine's job ([`crate::sweep::run_sweep`]); a one-scenario
//! sweep is the oracle the differential suites hold the staged grid to:
//! same points, same cycles, same memory statistics, same typed errors in
//! the same order.
//!
//! Each point is additionally **fault-isolated**: a panic inside one
//! point's compile/simulate path is contained with `catch_unwind` and
//! becomes a typed [`GridError`] in the report, and the result merge
//! recovers from poisoning — one bad point can never take down the rest
//! of the grid or abort the whole sweep.
//!
//! Aggregations over the grid ([`Grid::mean_speedup`], [`Grid::mem_stats`],
//! [`Grid::mean_regs`], [`Grid::hit_rate`]) return an [`Aggregate`] that
//! carries the covered/requested point counts, so a grid with holes (failed
//! points in [`Grid::errors`], or a subset the grid never evaluated) can
//! never be mistaken for a complete one: callers choose
//! [`Aggregate::complete`] (value only at full coverage) or
//! [`Aggregate::partial`] (best-effort value plus visible coverage).

use crate::artifact::ArtifactCache;
use crate::compile::{unroll_config, FrontEnd};
use crate::run::{simulate_verified, EvalPoint};
use crate::steal;
use ilpc_core::level::{walk_levels, Level};
use ilpc_guard::panic_message;
use ilpc_ir::interp::{interpret, ExecState};
use ilpc_ir::lower::lower;
use ilpc_ir::{Module, Opcode};
use ilpc_machine::{Machine, MemConfig};
use ilpc_mem::MemStats;
use ilpc_sim::decode;
use ilpc_workloads::{build_all, Workload, WorkloadMeta};
use std::cell::OnceCell;
use std::collections::HashMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Grid configuration. Each workload's front end is built once and shared
/// by all of its points; nothing outlives the grid. To reuse compiled
/// artifacts across memory configurations, run one
/// [`crate::sweep::run_sweep`] over them instead.
#[derive(Debug, Clone)]
pub struct GridConfig {
    /// Trip-count scale (1.0 = the paper's Table 2 counts).
    pub scale: f64,
    /// Levels to evaluate. [`Level::Conv`] is required: it anchors the
    /// speedup baseline. Duplicates are deduplicated up front.
    pub levels: Vec<Level>,
    /// Issue widths to evaluate. Width 1 is required: it is the speedup
    /// base. Duplicates are deduplicated up front.
    pub widths: Vec<u32>,
    /// Worker threads.
    pub threads: usize,
    /// Memory hierarchy applied to every machine in the grid (perfect by
    /// default — the paper's model).
    pub mem: MemConfig,
    /// Deliberately break one point (fault drills and tests only).
    pub sabotage: Option<Sabotage>,
}

impl Default for GridConfig {
    fn default() -> GridConfig {
        GridConfig {
            scale: 1.0,
            levels: Level::ALL.to_vec(),
            widths: vec![1, 2, 4, 8],
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            mem: MemConfig::Perfect,
            sabotage: None,
        }
    }
}

/// Why a [`GridConfig`] (or sweep configuration) was rejected before any
/// point ran. Surfaced by [`run_grid`] instead of silently producing a
/// grid whose aggregations are meaningless.
#[derive(Debug, Clone, PartialEq)]
pub enum GridConfigError {
    /// `levels` is empty.
    NoLevels,
    /// `widths` is empty.
    NoWidths,
    /// `widths` lacks the required base width 1 — without it every
    /// `speedup()` is `None` and mean speedups would quietly aggregate
    /// nothing.
    MissingBaseWidth,
    /// `levels` lacks [`Level::Conv`] — the other half of the (Conv,
    /// issue-1) speedup baseline.
    MissingBaseLevel,
    /// A width of 0: `Machine::issue` would silently clamp it to 1,
    /// aliasing the base configuration under a different key.
    ZeroWidth,
    /// `scale` is not a finite positive number.
    BadScale(f64),
    /// A sweep was configured with an empty scenario list.
    NoScenarios,
}

impl fmt::Display for GridConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GridConfigError::NoLevels => write!(f, "config: `levels` is empty"),
            GridConfigError::NoWidths => write!(f, "config: `widths` is empty"),
            GridConfigError::MissingBaseWidth => {
                write!(f, "config: `widths` must include the base width 1 (speedup baseline)")
            }
            GridConfigError::MissingBaseLevel => {
                write!(f, "config: `levels` must include Conv (speedup baseline)")
            }
            GridConfigError::ZeroWidth => {
                write!(f, "config: width 0 is invalid (it would alias the base width 1)")
            }
            GridConfigError::BadScale(s) => {
                write!(f, "config: scale {s} must be finite and > 0")
            }
            GridConfigError::NoScenarios => {
                write!(f, "config: sweep has no scenarios")
            }
        }
    }
}

impl std::error::Error for GridConfigError {}

/// The one rule for a trip-count scale: finite and > 0.
pub(crate) fn check_scale(scale: f64) -> Result<f64, GridConfigError> {
    if scale.is_finite() && scale > 0.0 {
        Ok(scale)
    } else {
        Err(GridConfigError::BadScale(scale))
    }
}

/// Validate grid axes shared by [`run_grid`] and the sweep engine:
/// returns the deduplicated (order-preserving) levels and widths, or the
/// first typed configuration error.
pub(crate) fn validate_axes(
    scale: f64,
    levels: &[Level],
    widths: &[u32],
) -> Result<(Vec<Level>, Vec<u32>), GridConfigError> {
    check_scale(scale)?;
    if levels.is_empty() {
        return Err(GridConfigError::NoLevels);
    }
    if widths.is_empty() {
        return Err(GridConfigError::NoWidths);
    }
    if widths.contains(&0) {
        return Err(GridConfigError::ZeroWidth);
    }
    if !widths.contains(&1) {
        return Err(GridConfigError::MissingBaseWidth);
    }
    if !levels.contains(&Level::Conv) {
        return Err(GridConfigError::MissingBaseLevel);
    }
    // Dedupe preserving first-occurrence order: duplicates would
    // double-evaluate points and silently overwrite map entries.
    let mut seen_l = Vec::new();
    let levels = levels
        .iter()
        .copied()
        .filter(|l| !seen_l.contains(l) && {
            seen_l.push(*l);
            true
        })
        .collect();
    let mut seen_w = Vec::new();
    let widths = widths
        .iter()
        .copied()
        .filter(|w| !seen_w.contains(w) && {
            seen_w.push(*w);
            true
        })
        .collect();
    Ok((levels, widths))
}

/// Deliberate sabotage of one grid point. Used by tests and fault drills
/// to prove the isolation property: the matching point degrades to a
/// typed [`GridError`] while every other point completes normally.
#[derive(Debug, Clone)]
pub struct Sabotage {
    pub workload: String,
    pub level: Level,
    pub width: u32,
    pub mode: SabotageMode,
}

/// How a sabotaged point fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SabotageMode {
    /// The point's evaluation panics mid-flight; per-point `catch_unwind`
    /// must contain it.
    Panic,
    /// The compiled module's arithmetic is corrupted before execution; the
    /// differential check must flag it.
    Corrupt,
}

/// Why one grid point failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PointError {
    /// The differential evaluation rejected the point (wrong results,
    /// simulator rejection, budget exhaustion).
    Eval(String),
    /// The point's compile/simulate path panicked; the panic was contained.
    Panic(String),
}

impl fmt::Display for PointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PointError::Eval(e) => write!(f, "evaluation failed: {e}"),
            PointError::Panic(e) => write!(f, "panicked (contained): {e}"),
        }
    }
}

/// A typed per-point failure in an otherwise-complete grid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GridError {
    pub workload: String,
    pub level: Level,
    pub width: u32,
    pub error: PointError,
}

impl fmt::Display for GridError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} issue-{}: {}", self.workload, self.level, self.width, self.error)
    }
}

/// An aggregation result that cannot hide holes: the value travels with
/// how many of the requested points actually contributed.
///
/// Produced by [`Grid::mean_speedup`], [`Grid::mem_stats`],
/// [`Grid::mean_regs`] and [`Grid::hit_rate`]. A partial grid (failed
/// points, or a name subset the grid never contained) yields
/// `covered < requested`; an empty subset yields `covered == 0` instead of
/// a fabricated `0.0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Aggregate<T> {
    covered: usize,
    requested: usize,
    value: T,
}

impl<T> Aggregate<T> {
    fn new(covered: usize, requested: usize, value: T) -> Aggregate<T> {
        Aggregate { covered, requested, value }
    }

    /// Points that contributed to the value.
    pub fn covered(&self) -> usize {
        self.covered
    }

    /// Points the caller asked to aggregate over.
    pub fn requested(&self) -> usize {
        self.requested
    }

    /// True when every requested point contributed (and there was at
    /// least one).
    pub fn is_complete(&self) -> bool {
        self.covered == self.requested && self.covered > 0
    }

    /// The value, only when coverage is complete — the safe default for
    /// reports that must not average over holes.
    pub fn complete(self) -> Option<T> {
        if self.is_complete() {
            Some(self.value)
        } else {
            None
        }
    }

    /// The best-effort value over whatever was covered; `None` when
    /// nothing was. Callers that accept partial coverage must surface
    /// [`Aggregate::covered`]/[`Aggregate::requested`] alongside it.
    pub fn partial(self) -> Option<T> {
        if self.covered > 0 {
            Some(self.value)
        } else {
            None
        }
    }
}

impl<T: fmt::Display> fmt::Display for Aggregate<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.covered == 0 {
            write!(f, "n/a (0/{} points)", self.requested)
        } else if self.is_complete() {
            self.value.fmt(f)
        } else {
            self.value.fmt(f)?;
            write!(f, " ({}/{} points)", self.covered, self.requested)
        }
    }
}

/// Results over the grid.
#[derive(Debug)]
pub struct Grid {
    pub meta: Vec<WorkloadMeta>,
    /// Levels evaluated (validated, deduplicated, in request order).
    pub levels: Vec<Level>,
    /// Widths evaluated (validated, deduplicated, in request order).
    pub widths: Vec<u32>,
    /// Workload name → completed points. Two-level map so lookups borrow
    /// the caller's `&str` instead of allocating a fresh `String` per
    /// probe (the lookup sits inside figure bins and bench hot loops).
    points: HashMap<String, HashMap<(Level, u32), EvalPoint>>,
    /// Per-point failures, if any (fail loudly in reports). The grid
    /// itself always completes: failed points are typed entries here, not
    /// aborts.
    pub errors: Vec<GridError>,
}

impl Grid {
    /// Measured point for `(loop, level, width)`. Borrows `name` — no
    /// allocation per lookup.
    pub fn point(&self, name: &str, level: Level, width: u32) -> Option<&EvalPoint> {
        self.points.get(name)?.get(&(level, width))
    }

    /// Completed points in deterministic (name, level, width) order —
    /// the observable the engine-differential suite compares.
    pub fn iter_points(
        &self,
    ) -> impl Iterator<Item = (&str, Level, u32, &EvalPoint)> + '_ {
        let mut names: Vec<&String> = self.points.keys().collect();
        names.sort();
        names.into_iter().flat_map(move |name| {
            let inner = &self.points[name];
            let mut keys: Vec<&(Level, u32)> = inner.keys().collect();
            keys.sort();
            keys.into_iter()
                .map(move |k| (name.as_str(), k.0, k.1, &inner[k]))
        })
    }

    /// Number of completed points.
    pub fn completed(&self) -> usize {
        self.points.values().map(|m| m.len()).sum()
    }

    /// Speedup of `(level, width)` over the paper's base configuration
    /// (issue-1, Conv) for one loop.
    pub fn speedup(&self, name: &str, level: Level, width: u32) -> Option<f64> {
        let base = self.point(name, Level::Conv, 1)?.cycles as f64;
        let this = self.point(name, level, width)?.cycles as f64;
        Some(base / this)
    }

    /// Arithmetic-mean speedup over a subset of loops. A loop covers the
    /// aggregate only if both its base point (Conv, issue-1) and the
    /// requested point completed.
    pub fn mean_speedup<'a>(
        &self,
        names: impl Iterator<Item = &'a str>,
        level: Level,
        width: u32,
    ) -> Aggregate<f64> {
        let mut sum = 0.0;
        let mut covered = 0usize;
        let mut requested = 0usize;
        for name in names {
            requested += 1;
            if let Some(s) = self.speedup(name, level, width) {
                sum += s;
                covered += 1;
            }
        }
        let value = if covered == 0 { 0.0 } else { sum / covered as f64 };
        Aggregate::new(covered, requested, value)
    }

    /// Aggregate memory-hierarchy counters over a subset of loops.
    pub fn mem_stats<'a>(
        &self,
        names: impl Iterator<Item = &'a str>,
        level: Level,
        width: u32,
    ) -> Aggregate<MemStats> {
        let mut sum = MemStats::default();
        let mut covered = 0usize;
        let mut requested = 0usize;
        for name in names {
            requested += 1;
            if let Some(p) = self.point(name, level, width) {
                sum.merge(&p.mem);
                covered += 1;
            }
        }
        Aggregate::new(covered, requested, sum)
    }

    /// Aggregate L1 hit rate over a subset of loops (1.0 when perfect).
    pub fn hit_rate<'a>(
        &self,
        names: impl Iterator<Item = &'a str>,
        level: Level,
        width: u32,
    ) -> Aggregate<f64> {
        let stats = self.mem_stats(names, level, width);
        Aggregate::new(stats.covered, stats.requested, stats.value.hit_rate())
    }

    /// Mean total register usage over a subset of loops.
    pub fn mean_regs<'a>(
        &self,
        names: impl Iterator<Item = &'a str>,
        level: Level,
        width: u32,
    ) -> Aggregate<f64> {
        let mut sum = 0u64;
        let mut covered = 0usize;
        let mut requested = 0usize;
        for name in names {
            requested += 1;
            if let Some(p) = self.point(name, level, width) {
                sum += p.regs.total() as u64;
                covered += 1;
            }
        }
        let value = if covered == 0 { 0.0 } else { sum as f64 / covered as f64 };
        Aggregate::new(covered, requested, value)
    }
}

/// Flip every addition to a subtraction — the kind of systematic
/// miscompile a corrupted pass would produce. Guaranteed to be caught by
/// the differential check (or the simulator) on any workload that
/// computes anything.
fn corrupt_arithmetic(m: &mut Module) {
    let blocks: Vec<_> = m.func.layout_order().to_vec();
    for b in blocks {
        for inst in &mut m.func.block_mut(b).insts {
            match inst.op {
                Opcode::Add => inst.op = Opcode::Sub,
                Opcode::FAdd => inst.op = Opcode::FSub,
                _ => {}
            }
        }
    }
}

/// Whether `sabotage` targets this point: a `Panic` directive fires here,
/// a `Corrupt` one returns true so the caller corrupts the compiled module.
fn sabotaged(sabotage: Option<&Sabotage>, w: &Workload, level: Level, width: u32) -> bool {
    let Some(s) = sabotage else { return false };
    if s.workload != w.meta.name || s.level != level || s.width != width {
        return false;
    }
    match s.mode {
        SabotageMode::Panic => {
            panic!("sabotaged grid point: {} {level} issue-{width}", w.meta.name)
        }
        SabotageMode::Corrupt => true,
    }
}

/// Evaluate one point against the artifact cache, honouring a matching
/// sabotage directive.
pub(crate) fn eval_point(
    w: &Workload,
    level: Level,
    width: u32,
    machine: &Machine,
    sabotage: Option<&Sabotage>,
    artifacts: &ArtifactCache,
) -> Result<EvalPoint, String> {
    if sabotaged(sabotage, w, level, width) {
        // Sabotage must never pollute (or be masked by) the shared cache:
        // compile privately and corrupt that.
        let mut c = crate::compile::compile(w, level, machine);
        corrupt_arithmetic(&mut c.module);
        return crate::run::run_compiled(w, &c, machine);
    }
    artifacts.evaluate(w, level, machine)
}

/// Evaluate one point with per-point panic containment: the sweep's
/// fault-isolation wrapper.
pub(crate) fn eval_point_contained(
    w: &Workload,
    level: Level,
    width: u32,
    machine: &Machine,
    sabotage: Option<&Sabotage>,
    artifacts: &ArtifactCache,
) -> Result<EvalPoint, PointError> {
    match catch_unwind(AssertUnwindSafe(|| {
        eval_point(w, level, width, machine, sabotage, artifacts)
    })) {
        Ok(Ok(p)) => Ok(p),
        Ok(Err(e)) => Err(PointError::Eval(e)),
        Err(payload) => Err(PointError::Panic(panic_message(payload))),
    }
}

/// One grid point's coordinates and outcome.
pub(crate) type Outcome = ((String, Level, u32), Result<EvalPoint, PointError>);

/// Assemble a [`Grid`] from per-point outcomes.
pub(crate) fn collect_grid(
    meta: Vec<WorkloadMeta>,
    levels: Vec<Level>,
    widths: Vec<u32>,
    outcomes: impl IntoIterator<Item = Outcome>,
) -> Grid {
    let mut points: HashMap<String, HashMap<(Level, u32), EvalPoint>> = HashMap::new();
    let mut errors = Vec::new();
    for ((workload, level, width), r) in outcomes {
        match r {
            Ok(p) => {
                points.entry(workload).or_default().insert((level, width), p);
            }
            Err(error) => errors.push(GridError { workload, level, width, error }),
        }
    }
    Grid { meta, levels, widths, points, errors }
}

/// Every point of one workload, staged: the reference execution, lowering
/// and the level chain run once, superblock formation once per level, and
/// only the back end, decode and simulation once per point. Each point is
/// checked against the shared reference exactly as
/// [`crate::run::evaluate`] checks it.
///
/// Containment matches per-point compilation. A sabotaged or panicking
/// point fails alone; a superblock panic fails every point of its level;
/// a panic while lowering or advancing the chain fails every point at or
/// above the level being built. Outcomes come in (level as requested,
/// width) order.
fn eval_workload_staged(
    w: &Workload,
    levels: &[Level],
    machines: &[(u32, Machine)],
    sabotage: Option<&Sabotage>,
) -> Vec<Outcome> {
    // Built on first use, so a panicking interpreter fails each point the
    // way it does under per-point evaluation.
    let reference: OnceCell<ExecState> = OnceCell::new();
    let point = |level: Level, width: u32, machine: &Machine, fe: Result<&FrontEnd, &str>| {
        catch_unwind(AssertUnwindSafe(|| {
            let corrupt = sabotaged(sabotage, w, level, width);
            let fe = fe.map_err(|msg| PointError::Panic(msg.to_string()))?;
            let mut c = fe.clone().backend(machine);
            if corrupt {
                corrupt_arithmetic(&mut c.module);
            }
            let decoded = decode(&c.module, machine);
            let reference = reference.get_or_init(|| interpret(&w.program, &w.init));
            simulate_verified(w, &c, &decoded, reference, machine).map_err(PointError::Eval)
        }))
        .unwrap_or_else(|payload| Err(PointError::Panic(panic_message(payload))))
    };

    // One slot per (requested level, width), in request order.
    let nw = machines.len();
    let mut slots: Vec<Option<Result<EvalPoint, PointError>>> = vec![None; levels.len() * nw];
    // The grid has no VLEN axis: every machine shares the first's.
    let ucfg = unroll_config(&machines[0].1);
    let walked = catch_unwind(AssertUnwindSafe(|| {
        let lowered = lower(&w.program);
        let mut chain = lowered.module;
        walk_levels(&mut chain, levels, &ucfg, |level, module, report| {
            let fe = catch_unwind(AssertUnwindSafe(|| {
                FrontEnd::new(module.clone(), lowered.shadow_syms.clone(), report.clone())
            }))
            .map_err(panic_message);
            let li = levels.iter().position(|&l| l == level).expect("a requested level");
            for (k, (width, machine)) in machines.iter().enumerate() {
                let r = point(level, *width, machine, fe.as_ref().map_err(String::as_str));
                slots[li * nw + k] = Some(r);
            }
        });
    }));
    if let Err(payload) = walked {
        let msg = panic_message(payload);
        for (i, slot) in slots.iter_mut().enumerate() {
            if slot.is_none() {
                let (width, machine) = &machines[i % nw];
                *slot = Some(point(levels[i / nw], *width, machine, Err(&msg)));
            }
        }
    }
    slots
        .into_iter()
        .enumerate()
        .map(|(i, r)| {
            let key = (w.meta.name.to_string(), levels[i / nw], machines[i % nw].0);
            (key, r.expect("every slot filled"))
        })
        .collect()
}

/// Run the grid on the work-stealing engine, one staged item per workload.
pub fn run_grid(cfg: &GridConfig) -> Result<Grid, GridConfigError> {
    let (levels, widths) = validate_axes(cfg.scale, &cfg.levels, &cfg.widths)?;
    let workloads: Vec<Workload> = build_all(cfg.scale);
    let meta: Vec<WorkloadMeta> = workloads.iter().map(|w| w.meta.clone()).collect();
    let machines: Vec<(u32, Machine)> = widths
        .iter()
        .map(|&width| (width, Machine::issue(width).with_mem(cfg.mem)))
        .collect();
    let (results, _stats) = steal::execute(&workloads, cfg.threads.max(1), |_, w| {
        eval_workload_staged(w, &levels, &machines, cfg.sabotage.as_ref())
    });
    Ok(collect_grid(meta, levels, widths, results.into_iter().flatten()))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A miniature grid end-to-end; the full-scale grid runs in integration
    /// tests and `report`.
    #[test]
    fn mini_grid_runs_clean() {
        let cfg = GridConfig {
            scale: 0.02,
            levels: vec![Level::Conv, Level::Lev2],
            widths: vec![1, 8],
            threads: 4,
            mem: MemConfig::Perfect,
            sabotage: None,
        };
        let grid = run_grid(&cfg).unwrap();
        assert!(grid.errors.is_empty(), "{:#?}", grid.errors);
        assert_eq!(grid.meta.len(), 40);
        // Every point present.
        for m in &grid.meta {
            for level in [Level::Conv, Level::Lev2] {
                for width in [1u32, 8] {
                    assert!(
                        grid.point(m.name, level, width).is_some(),
                        "missing {} {level} issue-{width}",
                        m.name
                    );
                }
            }
        }
        assert_eq!(grid.completed(), 40 * 2 * 2);
        // Speedups of Lev2/issue-8 exceed 1 for most DOALL loops.
        let fast = grid
            .meta
            .iter()
            .filter(|m| m.ltype.is_doall())
            .filter(|m| grid.speedup(m.name, Level::Lev2, 8).unwrap() > 1.5)
            .count();
        assert!(fast >= 10, "only {fast} DOALL loops sped up");
        // Perfect memory: every access a hit on every point.
        let stats = grid
            .mem_stats(grid.meta.iter().map(|m| m.name), Level::Lev2, 8)
            .complete()
            .expect("clean grid must aggregate completely");
        assert!(stats.accesses() > 0);
        assert_eq!(stats.misses(), 0);
        let hit = grid.hit_rate(grid.meta.iter().map(|m| m.name), Level::Lev2, 8);
        assert!(hit.is_complete());
        assert_eq!(hit.complete(), Some(1.0));
    }

    /// Invalid configurations are rejected with typed errors before any
    /// point runs — the fail-silent `mean_speedup == 0.0` trap is gone.
    #[test]
    fn invalid_configs_are_typed_errors() {
        let base = GridConfig {
            scale: 0.02,
            levels: vec![Level::Conv, Level::Lev2],
            widths: vec![1, 8],
            threads: 2,
            ..GridConfig::default()
        };
        let cases: Vec<(GridConfig, GridConfigError)> = vec![
            (
                GridConfig { widths: vec![2, 8], ..base.clone() },
                GridConfigError::MissingBaseWidth,
            ),
            (
                GridConfig { levels: vec![Level::Lev2], ..base.clone() },
                GridConfigError::MissingBaseLevel,
            ),
            (GridConfig { widths: vec![], ..base.clone() }, GridConfigError::NoWidths),
            (GridConfig { levels: vec![], ..base.clone() }, GridConfigError::NoLevels),
            (
                GridConfig { widths: vec![1, 0], ..base.clone() },
                GridConfigError::ZeroWidth,
            ),
            (
                GridConfig { scale: 0.0, ..base.clone() },
                GridConfigError::BadScale(0.0),
            ),
            (
                GridConfig { scale: f64::NAN, ..base.clone() },
                GridConfigError::BadScale(f64::NAN),
            ),
        ];
        for (cfg, want) in cases {
            let got = run_grid(&cfg).expect_err("config must be rejected");
            // NaN != NaN, so compare the discriminant via Display.
            assert_eq!(
                std::mem::discriminant(&got),
                std::mem::discriminant(&want),
                "{got} vs {want}"
            );
            // The sweep engine agrees on validation.
            let sweep = crate::sweep::run_sweep(&crate::sweep::SweepConfig {
                scale: cfg.scale,
                levels: cfg.levels.clone(),
                widths: cfg.widths.clone(),
                ..crate::sweep::SweepConfig::default()
            })
            .expect_err("the sweep must also reject");
            assert_eq!(std::mem::discriminant(&sweep), std::mem::discriminant(&want));
        }
    }

    /// Duplicate levels/widths are deduplicated up front: each point is
    /// evaluated once and the grid's axes record the deduplicated shape.
    #[test]
    fn duplicate_axes_are_deduplicated() {
        let cfg = GridConfig {
            scale: 0.02,
            levels: vec![Level::Conv, Level::Lev2, Level::Conv],
            widths: vec![1, 8, 1, 8],
            threads: 2,
            ..GridConfig::default()
        };
        let grid = run_grid(&cfg).unwrap();
        assert!(grid.errors.is_empty(), "{:#?}", grid.errors);
        assert_eq!(grid.levels, vec![Level::Conv, Level::Lev2]);
        assert_eq!(grid.widths, vec![1, 8]);
        assert_eq!(grid.completed(), 40 * 2 * 2);
    }

    /// The aggregate of an empty subset is visibly empty, not 0.0.
    #[test]
    fn empty_subset_aggregates_are_not_zero() {
        let cfg = GridConfig {
            scale: 0.02,
            levels: vec![Level::Conv, Level::Lev2],
            widths: vec![1, 8],
            threads: 4,
            ..GridConfig::default()
        };
        let grid = run_grid(&cfg).unwrap();
        let none = grid.mean_speedup(std::iter::empty(), Level::Lev2, 8);
        assert_eq!(none.covered(), 0);
        assert_eq!(none.requested(), 0);
        assert!(!none.is_complete());
        assert_eq!(none.complete(), None);
        assert_eq!(none.partial(), None);
        assert!(format!("{none}").contains("n/a"));
        // A subset of unknown names is counted as requested-but-uncovered.
        let ghost = grid.mean_speedup(["no-such-loop"].into_iter(), Level::Lev2, 8);
        assert_eq!((ghost.covered(), ghost.requested()), (0, 1));
        assert_eq!(ghost.partial(), None);
        // A width the grid never evaluated is likewise visible.
        let missing = grid.mean_speedup(grid.meta.iter().map(|m| m.name), Level::Lev2, 4);
        assert_eq!(missing.covered(), 0);
        assert_eq!(missing.requested(), 40);
        assert_eq!(missing.complete(), None);
    }

    /// One sabotaged point must degrade to a typed error while every
    /// other point completes — for both failure shapes (contained panic
    /// and corrupted-output rejection) — and partial aggregates must say
    /// so instead of passing for complete.
    #[test]
    fn sabotaged_point_is_isolated_and_typed() {
        for mode in [SabotageMode::Panic, SabotageMode::Corrupt] {
            let cfg = GridConfig {
                scale: 0.02,
                levels: vec![Level::Conv, Level::Lev2],
                widths: vec![1, 8],
                threads: 4,
                mem: MemConfig::Perfect,
                sabotage: Some(Sabotage {
                    workload: "dotprod".to_string(),
                    level: Level::Lev2,
                    width: 8,
                    mode,
                }),
                };
            let grid = run_grid(&cfg).unwrap();
            assert_eq!(grid.errors.len(), 1, "{mode:?}: {:#?}", grid.errors);
            let err = &grid.errors[0];
            assert_eq!(err.workload, "dotprod");
            assert_eq!((err.level, err.width), (Level::Lev2, 8));
            match (mode, &err.error) {
                (SabotageMode::Panic, PointError::Panic(msg)) => {
                    assert!(msg.contains("sabotaged grid point"), "{msg}");
                }
                (SabotageMode::Corrupt, PointError::Eval(_)) => {}
                other => panic!("wrong error shape: {other:?}"),
            }
            // The sabotaged point is absent; every other point completed.
            assert!(grid.point("dotprod", Level::Lev2, 8).is_none());
            assert_eq!(grid.completed(), 40 * 2 * 2 - 1, "{mode:?}");
            // The holed aggregate is visibly partial: it cannot pass for a
            // complete mean any more.
            let agg = grid.mean_speedup(grid.meta.iter().map(|m| m.name), Level::Lev2, 8);
            assert_eq!((agg.covered(), agg.requested()), (39, 40), "{mode:?}");
            assert!(!agg.is_complete());
            assert_eq!(agg.complete(), None);
            assert!(agg.partial().unwrap() > 1.0);
            assert!(format!("{agg}").contains("39/40"), "{agg}");
        }
    }

    /// The grid under a finite cache: still differentially correct, with
    /// consistent per-point cache statistics.
    #[test]
    fn cached_mini_grid_is_correct_with_consistent_stats() {
        use ilpc_machine::CacheParams;
        let cfg = GridConfig {
            scale: 0.02,
            levels: vec![Level::Conv, Level::Lev4],
            widths: vec![1, 8],
            threads: 4,
            mem: MemConfig::Cache(CacheParams::small()),
            sabotage: None,
        };
        let grid = run_grid(&cfg).unwrap();
        assert!(grid.errors.is_empty(), "{:#?}", grid.errors);
        let mut missed_somewhere = false;
        for m in &grid.meta {
            for level in [Level::Conv, Level::Lev4] {
                for width in [1u32, 8] {
                    let p = grid.point(m.name, level, width).unwrap();
                    let s = &p.mem;
                    assert_eq!(
                        s.accesses(),
                        s.hits() + s.misses(),
                        "{} {level} issue-{width}",
                        m.name
                    );
                    assert!(s.accesses() > 0, "{} executes no memory ops?", m.name);
                    missed_somewhere |= s.misses() > 0;
                }
            }
        }
        assert!(missed_somewhere, "a 1 KiB cache must miss somewhere");
    }

    /// A workload whose lowering panics fails every point with the typed
    /// panic per-point compilation gives, in the same order: the staged
    /// path's containment of a front-end panic.
    #[test]
    fn staged_front_end_panic_fails_every_point_like_per_point_compiles() {
        use ilpc_ir::ast::{Expr, Stmt, VarId};
        let meta = ilpc_workloads::table2().into_iter().find(|m| m.name == "add").unwrap();
        let mut w = ilpc_workloads::build(&meta, 0.02);
        w.program.body.push(Stmt::SetScalar(VarId(999), Expr::Var(VarId(999))));
        let levels = [Level::Lev2, Level::Conv];
        let machines: Vec<(u32, Machine)> = [1, 8].map(|k| (k, Machine::issue(k))).to_vec();
        let staged = eval_workload_staged(&w, &levels, &machines, None);
        let cache = ArtifactCache::new();
        let mut per_point = Vec::new();
        for &level in &levels {
            for (width, machine) in &machines {
                let r = eval_point_contained(&w, level, *width, machine, None, &cache);
                per_point.push(((w.meta.name.to_string(), level, *width), r));
            }
        }
        assert_eq!(staged, per_point);
        assert!(staged.iter().all(|(_, r)| matches!(r, Err(PointError::Panic(_)))), "{staged:?}");
    }
}
