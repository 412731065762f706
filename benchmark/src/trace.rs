//! The traced pipeline: the same stages `compile` and
//! `ArtifactCache::evaluate` run, called one public layer function at a
//! time from the benchmark's own code, with a span around each call.
//!
//! Nothing inside the program is instrumented. Each grid point runs on one
//! worker thread and accumulates its spans into its own [`Spans`]; the
//! per-point records are folded after the pool joins. A point's busy time
//! is the wall time of the whole point, so `covered ÷ busy` says how much
//! of the workers' time the named stages explain.

use crate::Report;
use ilpc_core::level::{Level, TransformReport, PASSES};
use ilpc_core::unroll::UnrollConfig;
use ilpc_harness::run::{cycle_budget, verify_against_reference};
use ilpc_harness::steal::StealStats;
use ilpc_harness::{Compiled, EvalPoint};
use ilpc_ir::interp::{interpret, ExecState};
use ilpc_ir::lower::lower;
use ilpc_machine::Machine;
use ilpc_mem::MemStats;
use ilpc_sched::{form_superblocks, schedule_module, SuperblockConfig};
use ilpc_sim::{decode, memory_from_init, simulate_decoded, DecodedProgram, SimLimits};
use ilpc_workloads::Workload;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Stage indices: `LOWER`, one per entry of `PASSES`, then the backend,
/// simulator and harness stages.
pub const LOWER: usize = 0;
pub const PASS0: usize = 1;
pub const SUPERBLOCK: usize = PASS0 + PASSES.len();
pub const SCHEDULE: usize = SUPERBLOCK + 1;
pub const REGALLOC: usize = SCHEDULE + 1;
pub const DECODE: usize = REGALLOC + 1;
pub const INTERPRET: usize = DECODE + 1;
pub const SIMULATE: usize = INTERPRET + 1;
pub const VERIFY: usize = SIMULATE + 1;
/// Time an artifact lookup spent waiting on (or fetching) an entry another
/// thread built.
pub const ARTIFACT_WAIT: usize = VERIFY + 1;
pub const NSTAGES: usize = ARTIFACT_WAIT + 1;

/// Accumulated spans and counters of one or more grid points.
#[derive(Debug, Clone)]
pub struct Spans {
    /// Seconds spent in each stage.
    pub secs: [f64; NSTAGES],
    /// Calls of each stage.
    pub calls: [u64; NSTAGES],
    /// Sum over calls of the IR size (instructions) after the stage.
    pub insts_out: [u64; NSTAGES],
    /// Wall time of the points themselves (the workers' busy time).
    pub busy: f64,
    pub superblock_merges: u64,
    pub dyn_insts: u64,
    pub mem: MemStats,
}

impl Default for Spans {
    fn default() -> Spans {
        Spans {
            secs: [0.0; NSTAGES],
            calls: [0; NSTAGES],
            insts_out: [0; NSTAGES],
            busy: 0.0,
            superblock_merges: 0,
            dyn_insts: 0,
            mem: MemStats::default(),
        }
    }
}

impl Spans {
    /// Run `f` inside a span of `stage`.
    pub fn time<T>(&mut self, stage: usize, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.secs[stage] += t.elapsed().as_secs_f64();
        self.calls[stage] += 1;
        out
    }

    pub fn merge(&mut self, o: &Spans) {
        for k in 0..NSTAGES {
            self.secs[k] += o.secs[k];
            self.calls[k] += o.calls[k];
            self.insts_out[k] += o.insts_out[k];
        }
        self.busy += o.busy;
        self.superblock_merges += o.superblock_merges;
        self.dyn_insts += o.dyn_insts;
        self.mem.merge(&o.mem);
    }

    /// Seconds covered by named stages.
    pub fn covered(&self) -> f64 {
        self.secs.iter().sum()
    }

    /// Mean IR size after `stage` (0 if it never ran).
    pub fn mean_insts(&self, stage: usize) -> f64 {
        if self.calls[stage] == 0 {
            0.0
        } else {
            self.insts_out[stage] as f64 / self.calls[stage] as f64
        }
    }
}

/// `compile`, one stage at a time: lower, each `PASSES` entry the level
/// runs, superblock formation, list scheduling, register measurement.
pub fn compile_staged(w: &Workload, level: Level, machine: &Machine, sp: &mut Spans) -> Compiled {
    let lowered = sp.time(LOWER, || lower(&w.program));
    sp.insts_out[LOWER] += lowered.module.func.num_insts() as u64;
    let mut module = lowered.module;
    let ucfg = UnrollConfig {
        vlen: machine.vlen,
        ..Default::default()
    };
    let mut report = TransformReport::default();
    for (i, pass) in PASSES.iter().enumerate().filter(|(_, p)| level >= p.level) {
        sp.time(PASS0 + i, || pass.execute(&mut module, &ucfg, &mut report));
        sp.insts_out[PASS0 + i] += module.func.num_insts() as u64;
    }
    let superblocks = sp.time(SUPERBLOCK, || {
        form_superblocks(&mut module, &SuperblockConfig::default())
    });
    sp.superblock_merges += superblocks.merges as u64;
    let schedules = sp.time(SCHEDULE, || schedule_module(&mut module, machine));
    let regs = sp.time(REGALLOC, || ilpc_regalloc::measure(&module.func));
    let static_insts = module.func.num_insts();
    Compiled {
        module,
        shadow: lowered.shadow_syms,
        report,
        superblocks,
        regs,
        static_insts,
        schedules,
    }
}

/// Simulate a decoded artifact and check it against the reference run,
/// exactly as the harness does.
fn simulate_checked(
    w: &Workload,
    compiled: &Compiled,
    decoded: &DecodedProgram,
    reference: &ExecState,
    machine: &Machine,
    sp: &mut Spans,
) -> Result<EvalPoint, String> {
    let res = sp
        .time(SIMULATE, || {
            let mem = memory_from_init(&compiled.module.symtab, &w.init);
            let limits = SimLimits::cycles(cycle_budget(reference.stmts_executed));
            simulate_decoded(decoded, machine, mem, limits)
        })
        .map_err(|e| format!("{}: {e}", w.meta.name))?;
    sp.time(VERIFY, || {
        verify_against_reference(w, compiled, reference, &res.memory)
    })?;
    sp.dyn_insts += res.dyn_insts;
    sp.mem.merge(&res.mem);
    Ok(EvalPoint {
        cycles: res.cycles,
        dyn_insts: res.dyn_insts,
        regs: compiled.regs,
        static_insts: compiled.static_insts,
        mem: res.mem,
    })
}

/// The uncached `evaluate` path (what `run_grid` runs without an artifact
/// cache), stage by stage.
pub fn evaluate_staged(
    w: &Workload,
    level: Level,
    machine: &Machine,
    sp: &mut Spans,
) -> Result<EvalPoint, String> {
    let compiled = compile_staged(w, level, machine, sp);
    let decoded = sp.time(DECODE, || decode(&compiled.module, machine));
    let reference = sp.time(INTERPRET, || interpret(&w.program, &w.init));
    simulate_checked(w, &compiled, &decoded, &reference, machine, sp)
}

struct StagedArtifact {
    compiled: Compiled,
    decoded: DecodedProgram,
}

type Cell<T> = Arc<OnceLock<Arc<T>>>;

/// The `ArtifactCache` protocol (one compile per workload × level ×
/// compile key, one reference run per workload, exactly-once under
/// concurrency) over the staged pipeline.
#[derive(Default)]
pub struct StagedCache {
    artifacts: Mutex<HashMap<(usize, Level, u64), Cell<StagedArtifact>>>,
    refs: Mutex<HashMap<usize, Cell<ExecState>>>,
    pub compiles: AtomicU64,
    pub hits: AtomicU64,
}

fn cell<K: std::hash::Hash + Eq, T>(map: &Mutex<HashMap<K, Cell<T>>>, key: K) -> Cell<T> {
    let mut m = map.lock().expect("staged cache map lock poisoned");
    Arc::clone(m.entry(key).or_default())
}

impl StagedCache {
    /// `ArtifactCache::evaluate` for workload number `wi`, stage by stage.
    /// Time a lookup spends on an entry another thread built counts as
    /// [`ARTIFACT_WAIT`].
    pub fn evaluate(
        &self,
        wi: usize,
        w: &Workload,
        level: Level,
        machine: &Machine,
        sp: &mut Spans,
    ) -> Result<EvalPoint, String> {
        let t = Instant::now();
        let before = sp.covered();
        let slot = cell(&self.artifacts, (wi, level, machine.compile_config_hash()));
        let mut built = false;
        let art = Arc::clone(slot.get_or_init(|| {
            built = true;
            let compiled = compile_staged(w, level, machine, sp);
            let decoded = sp.time(DECODE, || decode(&compiled.module, machine));
            Arc::new(StagedArtifact { compiled, decoded })
        }));
        let counter = if built { &self.compiles } else { &self.hits };
        counter.fetch_add(1, Ordering::Relaxed);
        let slot = cell(&self.refs, wi);
        let reference = Arc::clone(
            slot.get_or_init(|| Arc::new(sp.time(INTERPRET, || interpret(&w.program, &w.init)))),
        );
        // Whatever the lookups took beyond the stages they ran is waiting.
        let lookup = t.elapsed().as_secs_f64() - (sp.covered() - before);
        sp.secs[ARTIFACT_WAIT] += lookup.max(0.0);
        sp.calls[ARTIFACT_WAIT] += 1;
        simulate_checked(w, &art.compiled, &art.decoded, &reference, machine, sp)
    }
}

/// Rates the serve workload reports per-op figures at.
pub const SERVE_RATES: [&str; 2] = ["lo", "hi"];
/// Ops the serve workload mixes.
pub const SERVE_OPS: [&str; 3] = ["simulate", "compile", "sweep"];

/// Every per-layer metric a traced run reports. A workload that never
/// reaches a layer reports its work there as 0.
pub struct Layers {
    pub spans: Spans,
    /// `workloads.build_s`: median catalog build.
    pub build_s: f64,
    pub redundant_share: f64,
    /// Artifact-cache (compiles, hits).
    pub artifact: (u64, u64),
    pub steals: StealStats,
    /// Traced wall minus untraced wall.
    pub overhead_s: f64,
    /// Guard, lint and serve figures by metric name (see [`extra_names`]).
    pub extra: HashMap<String, f64>,
}

/// Names and units of the guard, lint, serve and load-generator metrics.
pub fn extra_names() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = vec![
        ("guard.compile_guarded_s".into(), "s"),
        ("guard.overhead_ratio".into(), "ratio"),
        ("guard.incidents".into(), "count"),
        ("lint.audit_s".into(), "s"),
        ("lint.diags".into(), "count"),
    ];
    // Served latency over all ops at each fixed rate: the median, the
    // highest percentile (at most 99) with ten samples beyond it, which
    // percentile that was, and the sample count.
    for rate in SERVE_RATES {
        v.push((format!("serve.p50_ms.{rate}"), "ms"));
        v.push((format!("serve.p99_ms.{rate}"), "ms"));
        v.push((format!("serve.tail_pct.{rate}"), "pct"));
        v.push((format!("serve.samples.{rate}"), "count"));
    }
    v.push(("serve.max_rate_rps".into(), "1/s"));
    for op in SERVE_OPS {
        for rate in SERVE_RATES {
            v.push((format!("serve.{op}.p50_ms.{rate}"), "ms"));
            v.push((format!("serve.{op}.p99_ms.{rate}"), "ms"));
            v.push((format!("serve.{op}.tail_pct.{rate}"), "pct"));
            v.push((format!("serve.{op}.wait_ms.{rate}"), "ms"));
        }
        v.push((format!("serve.{op}.exec_ms"), "ms"));
    }
    v.push(("serve.queue_depth_max".into(), "count"));
    v.push(("serve.overloaded".into(), "count"));
    v.push(("loadgen.lag_ms_max".into(), "ms"));
    v
}

impl Layers {
    pub fn new(spans: Spans) -> Layers {
        Layers {
            spans,
            build_s: 0.0,
            redundant_share: 0.0,
            artifact: (0, 0),
            steals: StealStats::default(),
            overhead_s: 0.0,
            extra: HashMap::new(),
        }
    }

    pub fn emit(&self, r: &mut Report) {
        let sp = &self.spans;
        r.metric("workloads.build_s", self.build_s, "s");
        r.metric("ir.lower_s", sp.secs[LOWER], "s");
        r.metric("ir.lower_insts", sp.mean_insts(LOWER), "insts");
        for (i, pass) in PASSES.iter().enumerate() {
            r.metric(format!("pass.{}_s", pass.name), sp.secs[PASS0 + i], "s");
            r.metric(
                format!("pass.{}.insts_out", pass.name),
                sp.mean_insts(PASS0 + i),
                "insts",
            );
        }
        r.metric("frontend.redundant_share", self.redundant_share, "ratio");
        r.metric("sched.superblock_s", sp.secs[SUPERBLOCK], "s");
        r.metric(
            "sched.superblock_merges",
            sp.superblock_merges as f64,
            "count",
        );
        r.metric("sched.schedule_s", sp.secs[SCHEDULE], "s");
        r.metric("regalloc.measure_s", sp.secs[REGALLOC], "s");
        r.metric("sim.decode_s", sp.secs[DECODE], "s");
        r.metric("sim.simulate_s", sp.secs[SIMULATE], "s");
        r.metric("sim.dyn_insts", sp.dyn_insts as f64, "insts");
        let rate = if sp.secs[SIMULATE] > 0.0 {
            sp.dyn_insts as f64 / sp.secs[SIMULATE]
        } else {
            0.0
        };
        r.metric("sim.dyn_insts_per_s", rate, "insts/s");
        r.metric("mem.accesses", sp.mem.accesses() as f64, "count");
        let miss = if sp.mem.accesses() > 0 {
            sp.mem.misses() as f64 / sp.mem.accesses() as f64
        } else {
            0.0
        };
        r.metric("mem.miss_ratio", miss, "ratio");
        r.metric("harness.interpret_s", sp.secs[INTERPRET], "s");
        r.metric("harness.verify_s", sp.secs[VERIFY], "s");
        let (compiles, hits) = self.artifact;
        r.metric("artifact.compiles", compiles as f64, "count");
        r.metric("artifact.hits", hits as f64, "count");
        let lookups = compiles + hits;
        let ratio = if lookups > 0 {
            hits as f64 / lookups as f64
        } else {
            0.0
        };
        r.metric("artifact.hit_ratio", ratio, "ratio");
        r.metric("artifact.wait_s", sp.secs[ARTIFACT_WAIT], "s");
        r.metric("steal.steals", self.steals.steals as f64, "count");
        r.metric(
            "steal.stolen_items",
            self.steals.stolen_items as f64,
            "count",
        );
        for (name, unit) in extra_names() {
            let v = self.extra.get(&name).copied().unwrap_or(0.0);
            r.metric(name, v, unit);
        }
        r.metric("trace.busy_s", sp.busy, "s");
        let coverage = if sp.busy > 0.0 {
            sp.covered() / sp.busy
        } else {
            0.0
        };
        r.metric("trace.coverage", coverage, "ratio");
        r.metric("trace.overhead_s", self.overhead_s, "s");
        // The host's speed at the end of the traced run, in the units the
        // timed end-to-end metrics are scaled by (see `crate::calib`).
        r.metric("host.probe_s", crate::calib::Prober::start().times[0], "s");
        eprintln!(
            "trace: {:.3} s busy, {:.1} % covered by stage spans, overhead {:+.3} s",
            sp.busy,
            coverage * 100.0,
            self.overhead_s
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ilpc_harness::{evaluate, ArtifactCache};
    use ilpc_machine::{CacheParams, MemConfig};
    use ilpc_workloads::build_all;

    /// The staged pipeline reproduces `evaluate` and
    /// `ArtifactCache::evaluate` exactly, and its spans cover every stage
    /// it ran.
    #[test]
    fn staged_pipeline_matches_the_harness() {
        let workloads = build_all(0.02);
        let cache = ArtifactCache::new();
        let staged = StagedCache::default();
        let mut sp = Spans::default();
        for (wi, w) in workloads.iter().enumerate().step_by(7) {
            for level in Level::ALL {
                for width in [1, 8] {
                    let m = Machine::issue(width);
                    let want = evaluate(w, level, &m).unwrap();
                    assert_eq!(evaluate_staged(w, level, &m, &mut sp).unwrap(), want);
                    let m = m.with_mem(MemConfig::Cache(CacheParams::small()));
                    let want = cache.evaluate(w, level, &m).unwrap();
                    assert_eq!(staged.evaluate(wi, w, level, &m, &mut sp).unwrap(), want);
                }
            }
        }
        let c = cache.counters();
        assert_eq!(staged.compiles.load(Ordering::Relaxed), c.compiles);
        assert_eq!(staged.hits.load(Ordering::Relaxed), c.hits);
        for stage in [
            LOWER, PASS0, SUPERBLOCK, SCHEDULE, REGALLOC, DECODE, INTERPRET, SIMULATE,
        ] {
            assert!(sp.calls[stage] > 0, "stage {stage} never ran");
        }
        assert!(sp.mem.misses() > 0 && sp.dyn_insts > 0);
    }
}
