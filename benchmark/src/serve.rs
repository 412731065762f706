//! `serve-mixed`: seeded open-loop traffic against the `ilpc-serve`
//! binary at its defaults (one process, JSON lines over stdin/stdout).
//!
//! The generator is one writer (this thread) and one reader thread. Each
//! request is timed from the moment it was due, so a stalled writer or a
//! stalled server both show up as latency; the writer's own lateness is
//! reported as generator lag.

use crate::calib::{scaled, Prober};
use crate::stats::{geomean, ladder, max_rate, median, tail, StepVerdict};
use crate::trace::{compile_staged, Layers, Spans, StagedCache, SERVE_OPS};
use crate::{median_secs, peak_rss_mb, Args, Report};
use ilpc_core::level::Level;
use ilpc_guard::GuardConfig;
use ilpc_harness::{compile_guarded, run_sweep, ArtifactCache, Scenario, SweepConfig};
use ilpc_machine::{CacheParams, Machine, MemConfig};
use ilpc_serve::json::{parse, Json};
use ilpc_testkit::rng::TestRng;
use ilpc_workloads::{build_all, Workload};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Trip-count scale of `simulate` and `compile` requests.
const POINT_SCALE: f64 = 0.05;
/// Trip-count scale of `sweep` requests.
const SWEEP_SCALE: f64 = 0.25;
/// Latency limit on the p99 over all ops.
pub const LIMIT_MS: f64 = 200.0;
/// The ladder: ×1.25 per step from 100 rps. Its first rung is the fixed
/// `lo` rate; `hi` is the second fixed rate.
const LADDER_BASE: f64 = 100.0;
const LADDER_FACTOR: f64 = 1.25;
const LADDER_STEPS: usize = 12;
const HI_RPS: f64 = 250.0;
/// Shares of `--seconds` given to the lo and hi phases, and (in the traced
/// run, which also climbs the ladder) to each further ladder step. At 30 s
/// lo and hi each carry well over 1000 requests, enough for a p99 with ten
/// samples beyond it.
const LO_SHARE: f64 = 0.6;
const HI_SHARE: f64 = 0.3;
const STEP_SHARE: f64 = 0.1;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// In-flight requests during the closed-loop warm-up.
const WARM_WINDOW: usize = 8;
/// Simulate replies checked against a direct `evaluate`.
const CHECK_SAMPLES: usize = 64;
/// How long a phase may take to drain after its last arrival.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(60);
/// Interval of `status` probes in the traced run.
const STATUS_EVERY: Duration = Duration::from_millis(50);

/// One (workload, level, width) point key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Key {
    workload: usize,
    level: Level,
    width: u32,
}

/// All 960 point keys in catalog order.
fn keys(workloads: &[Workload]) -> Vec<Key> {
    let mut v = Vec::new();
    for workload in 0..workloads.len() {
        for level in Level::ALL {
            for width in [1, 2, 4, 8] {
                v.push(Key {
                    workload,
                    level,
                    width,
                });
            }
        }
    }
    v
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Simulate(Key),
    Compile(Key, bool),
    Sweep,
}

impl Op {
    fn kind(self) -> usize {
        match self {
            Op::Simulate(_) => 0,
            Op::Compile(..) => 1,
            Op::Sweep => 2,
        }
    }
}

/// The request line for `op` (deterministic, byte for byte).
fn line(id: u64, op: Op, names: &[&str]) -> String {
    let point = |k: Key| {
        format!(
            "\"workload\":\"{}\",\"level\":\"{}\",\"width\":{},\"scale\":{POINT_SCALE}",
            names[k.workload], k.level, k.width
        )
    };
    match op {
        Op::Simulate(k) => format!("{{\"id\":{id},\"op\":\"simulate\",{}}}", point(k)),
        Op::Compile(k, lint) => {
            let lint = if lint { ",\"lint\":true" } else { "" };
            format!("{{\"id\":{id},\"op\":\"compile\",{}{lint}}}", point(k))
        }
        Op::Sweep => format!(
            "{{\"id\":{id},\"op\":\"sweep\",\"scale\":{SWEEP_SCALE},\
             \"mems\":[{{\"kind\":\"perfect\"}},{{\"kind\":\"cache\"}}]}}"
        ),
    }
}

/// One planned request: due `due` seconds after its phase starts.
#[derive(Debug, Clone)]
struct Planned {
    id: u64,
    due: f64,
    op: Op,
}

/// One phase of the open loop.
#[derive(Debug, Clone)]
struct Phase {
    name: String,
    rate: f64,
    secs: f64,
    reqs: Vec<Planned>,
}

/// Shuffle `v` in place (Fisher–Yates).
fn shuffle<T>(rng: &mut TestRng, v: &mut [T]) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..i + 1));
    }
}

/// Every `SWEEP_EVERY`-th request is a sweep (2 %).
const SWEEP_EVERY: usize = 50;

/// Poisson arrivals at `rate` for `secs`, with an exact mix: every
/// [`SWEEP_EVERY`]-th request is a sweep (2 %), and the others are, in
/// shuffled order, 18 % compile (a quarter of them with lint) and the rest
/// simulate, each on a key drawn uniformly from the warm keys.
///
/// Spacing the sweeps keeps the long jobs a regular stream inside the
/// Poisson arrivals (a sweep's gap to the next is a sum of 50 exponential
/// gaps, ±14 %), so the tail a run reports depends on the load rather
/// than on how many sweeps a seed happens to bunch together.
fn plan_phase(
    rng: &mut TestRng,
    name: String,
    rate: f64,
    secs: f64,
    first_id: u64,
    keys: &[Key],
) -> Phase {
    let mut dues = Vec::new();
    let mut t = 0.0;
    loop {
        t += -(1.0 - rng.next_f64()).ln() / rate;
        if t >= secs {
            break;
        }
        dues.push(t);
    }
    let n = dues.len();
    let offset = rng.gen_range(0..SWEEP_EVERY);
    let is_sweep = |k: usize| k % SWEEP_EVERY == offset;
    let others = (0..n).filter(|&k| !is_sweep(k)).count();
    let compiles = (n as f64 * 0.18).round().min(others as f64) as usize;
    let linted = (compiles as f64 * 0.25).round() as usize;
    // 0 = simulate, 1 = compile with lint, 2 = compile.
    let mut deck = vec![0u8; others - compiles];
    deck.extend(std::iter::repeat_n(1, linted));
    deck.extend(std::iter::repeat_n(2, compiles - linted));
    shuffle(rng, &mut deck);
    let mut deck = deck.into_iter();
    let reqs = dues
        .into_iter()
        .enumerate()
        .map(|(k, due)| {
            let op = if is_sweep(k) {
                Op::Sweep
            } else {
                let key = keys[rng.gen_range(0..keys.len())];
                match deck.next() {
                    Some(1) => Op::Compile(key, true),
                    Some(2) => Op::Compile(key, false),
                    _ => Op::Simulate(key),
                }
            };
            Planned {
                id: first_id + k as u64,
                due,
                op,
            }
        })
        .collect();
    Phase {
        name,
        rate,
        secs,
        reqs,
    }
}

/// The whole open-loop plan for `seed`: lo (the ladder's first rung), hi,
/// then the rest of the ladder.
fn plan(seed: u64, seconds: f64, keys: &[Key]) -> Vec<Phase> {
    let mut rng = TestRng::seed_from_u64(seed);
    let rates = ladder(LADDER_BASE, LADDER_FACTOR, LADDER_STEPS);
    let mut phases = vec![
        plan_phase(
            &mut rng,
            "lo".into(),
            rates[0],
            seconds * LO_SHARE,
            1_000_000,
            keys,
        ),
        plan_phase(
            &mut rng,
            "hi".into(),
            HI_RPS,
            seconds * HI_SHARE,
            2_000_000,
            keys,
        ),
    ];
    for (k, &rate) in rates.iter().enumerate().skip(1) {
        let first = 1_000_000 * (2 + k as u64);
        phases.push(plan_phase(
            &mut rng,
            format!("step{k}"),
            rate,
            seconds * STEP_SHARE,
            first,
            keys,
        ));
    }
    phases
}

/// Whether phase `name` is a rung of the ladder.
fn on_ladder(name: &str) -> bool {
    name == "lo" || name.starts_with("step")
}

/// The plan as the exact bytes it sends, with due times.
fn plan_bytes(phases: &[Phase], names: &[&str]) -> String {
    let mut s = String::new();
    for p in phases {
        for r in &p.reqs {
            s.push_str(&format!(
                "{} {:.9} {}\n",
                p.name,
                r.due,
                line(r.id, r.op, names)
            ));
        }
    }
    s
}

/// What the reader keeps of a reply.
#[derive(Debug, Clone)]
struct Reply {
    at: Instant,
    ok: bool,
    kind: String,
    /// cycles, dyn_insts, static_insts, regs of a simulate reply.
    sim: Option<[u64; 4]>,
    queue_depth: Option<u64>,
}

#[derive(Default)]
struct Replies {
    by_id: HashMap<u64, Reply>,
    duplicates: Vec<u64>,
    unparsed: usize,
    eof: bool,
}

struct Shared {
    state: Mutex<Replies>,
    cv: Condvar,
}

fn parse_reply(text: &str, at: Instant) -> Option<(u64, Reply)> {
    let v = parse(text).ok()?;
    let id = v.get("id")?.as_u64()?;
    let ok = v.get("ok")?.as_bool()?;
    let res = v.get("result");
    let num = |k: &str| res.and_then(|r| r.get(k)).and_then(Json::as_u64);
    let sim = match (
        num("cycles"),
        num("dyn_insts"),
        num("static_insts"),
        num("regs"),
    ) {
        (Some(a), Some(b), Some(c), Some(d)) => Some([a, b, c, d]),
        _ => None,
    };
    let kind = v
        .get("error")
        .and_then(|e| e.get("kind"))
        .and_then(Json::as_str)
        .unwrap_or("")
        .to_string();
    Some((
        id,
        Reply {
            at,
            ok,
            kind,
            sim,
            queue_depth: num("queue_depth"),
        },
    ))
}

/// A running `ilpc-serve` child with its reader thread.
struct ServerProc {
    child: Child,
    stdin: Option<ChildStdin>,
    shared: Arc<Shared>,
    reader: Option<JoinHandle<()>>,
}

impl ServerProc {
    fn spawn(bin: &std::path::Path) -> Result<ServerProc, String> {
        let mut child = Command::new(bin)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().ok_or("child stdout")?;
        let shared = Arc::new(Shared {
            state: Mutex::new(Replies::default()),
            cv: Condvar::new(),
        });
        let sh = Arc::clone(&shared);
        let reader = std::thread::spawn(move || {
            for text in BufReader::new(stdout).lines() {
                let Ok(text) = text else { break };
                let at = Instant::now();
                let parsed = parse_reply(&text, at);
                let mut st = sh.state.lock().expect("reply state lock");
                match parsed {
                    Some((id, r)) => {
                        if st.by_id.insert(id, r).is_some() {
                            st.duplicates.push(id);
                        }
                    }
                    None => st.unparsed += 1,
                }
                drop(st);
                sh.cv.notify_all();
            }
            sh.state.lock().expect("reply state lock").eof = true;
            sh.cv.notify_all();
        });
        Ok(ServerProc {
            child,
            stdin,
            shared,
            reader: Some(reader),
        })
    }

    fn send(&mut self, text: &str) -> Result<(), String> {
        let stdin = self.stdin.as_mut().ok_or("stdin closed")?;
        stdin
            .write_all(format!("{text}\n").as_bytes())
            .map_err(|e| format!("write to ilpc-serve: {e}"))
    }

    /// Wait until every id in `ids` has a reply, or `timeout` passes.
    fn wait_for(&self, ids: &[u64], timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut st = self.shared.state.lock().expect("reply state lock");
        loop {
            if ids.iter().all(|id| st.by_id.contains_key(id)) {
                return true;
            }
            let now = Instant::now();
            if now >= deadline || st.eof {
                return false;
            }
            st = self
                .shared
                .cv
                .wait_timeout(st, deadline - now)
                .expect("reply state lock")
                .0;
        }
    }

    fn reply(&self, id: u64) -> Option<Reply> {
        self.shared
            .state
            .lock()
            .expect("reply state lock")
            .by_id
            .get(&id)
            .cloned()
    }

    fn peak_rss_mb(&self) -> Option<f64> {
        peak_rss_mb(&self.child.id().to_string())
    }

    /// Close stdin, let the server finish, reap it and the reader.
    fn close(mut self) -> Result<Replies, String> {
        drop(self.stdin.take());
        let status = self
            .child
            .wait()
            .map_err(|e| format!("wait for ilpc-serve: {e}"))?;
        if let Some(r) = self.reader.take() {
            r.join().map_err(|_| "reader thread panicked")?;
        }
        if !status.success() {
            return Err(format!("ilpc-serve exited with {status}"));
        }
        let st = std::mem::take(&mut *self.shared.state.lock().expect("reply state lock"));
        Ok(st)
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        // Only reached on an error path: make sure the child is gone.
        if self.reader.is_some() {
            drop(self.stdin.take());
            let _ = self.child.kill();
            let _ = self.child.wait();
            if let Some(r) = self.reader.take() {
                let _ = r.join();
            }
        }
    }
}

/// Closed-loop set-up: every simulate key at the point scale with
/// [`WARM_WINDOW`] requests in flight, then one warm-up sweep. Every reply
/// must be ok. Returns the ids it used and the simulate figures (cycles,
/// dynamic and static instructions, registers) in key order.
fn warm_up(
    s: &mut ServerProc,
    keys: &[Key],
    names: &[&str],
) -> Result<(Vec<u64>, Vec<[u64; 4]>), String> {
    let mut ids = Vec::new();
    for (k, key) in keys.iter().enumerate() {
        let id = 1 + k as u64;
        if k >= WARM_WINDOW && !s.wait_for(&[id - WARM_WINDOW as u64], DRAIN_TIMEOUT) {
            return Err("warm-up reply never came".into());
        }
        s.send(&line(id, Op::Simulate(*key), names))?;
        ids.push(id);
    }
    let sweep = 1 + keys.len() as u64;
    s.send(&line(sweep, Op::Sweep, names))?;
    ids.push(sweep);
    if !s.wait_for(&ids, DRAIN_TIMEOUT) {
        return Err("warm-up did not drain".into());
    }
    let mut sims = Vec::new();
    for &id in &ids {
        let r = s.reply(id).ok_or("missing warm-up reply")?;
        if !r.ok {
            return Err(format!("warm-up request {id} failed: {}", r.kind));
        }
        if id != sweep {
            sims.push(r.sim.ok_or("simulate reply without figures")?);
        }
    }
    Ok((ids, sims))
}

/// What one open-loop phase measured.
#[derive(Debug, Default)]
struct PhaseResult {
    /// Latency from due time, ms, by op kind; only ok replies.
    ok_ms: [Vec<f64>; 3],
    /// Every request's latency, misses as infinity (for the limit).
    all_ms: Vec<f64>,
    sent: usize,
    failed: usize,
    overloaded: usize,
    /// Replies that arrived after the phase ended.
    backlog: usize,
    lag_ms_max: f64,
    queue_depth_max: u64,
}

fn run_phase(
    s: &mut ServerProc,
    phase: &Phase,
    names: &[&str],
    probe_ids: &mut u64,
) -> Result<PhaseResult, String> {
    let start = Instant::now() + Duration::from_millis(5);
    let mut dues = Vec::with_capacity(phase.reqs.len());
    let mut probes = Vec::new();
    let mut next_probe = start;
    let mut lag_ms_max: f64 = 0.0;
    for r in &phase.reqs {
        let due = start + Duration::from_secs_f64(r.due);
        loop {
            let now = Instant::now();
            if *probe_ids > 0 && now >= next_probe {
                *probe_ids += 1;
                s.send(&format!("{{\"id\":{},\"op\":\"status\"}}", *probe_ids))?;
                probes.push(*probe_ids);
                next_probe += STATUS_EVERY;
                continue;
            }
            if now >= due {
                break;
            }
            let wake = if *probe_ids > 0 {
                due.min(next_probe)
            } else {
                due
            };
            std::thread::sleep(wake.saturating_duration_since(now));
        }
        s.send(&line(r.id, r.op, names))?;
        lag_ms_max = lag_ms_max.max(due.elapsed().as_secs_f64() * 1000.0);
        dues.push(due);
    }
    let end = start + Duration::from_secs_f64(phase.secs);
    let ids: Vec<u64> = phase.reqs.iter().map(|r| r.id).collect();
    let drained = s.wait_for(&ids, DRAIN_TIMEOUT);
    let mut out = PhaseResult {
        sent: ids.len(),
        lag_ms_max,
        ..PhaseResult::default()
    };
    for (r, due) in phase.reqs.iter().zip(&dues) {
        match s.reply(r.id) {
            Some(rep) => {
                if rep.at > end {
                    out.backlog += 1;
                }
                let ms = rep.at.saturating_duration_since(*due).as_secs_f64() * 1000.0;
                if rep.ok {
                    out.ok_ms[r.op.kind()].push(ms);
                    out.all_ms.push(ms);
                } else {
                    out.failed += 1;
                    out.overloaded += usize::from(rep.kind == "overloaded");
                    out.all_ms.push(f64::INFINITY);
                }
            }
            None => {
                out.failed += 1;
                out.all_ms.push(f64::INFINITY);
            }
        }
    }
    if !drained {
        eprintln!(
            "phase {}: {} replies missing after drain",
            phase.name, out.failed
        );
    }
    s.wait_for(&probes, DRAIN_TIMEOUT);
    for id in probes {
        if let Some(d) = s.reply(id).and_then(|r| r.queue_depth) {
            out.queue_depth_max = out.queue_depth_max.max(d);
        }
    }
    Ok(out)
}

/// Sweeps that [`solo_sweeps`] sends.
const SOLO_SWEEPS: usize = 15;

/// Scaled times, raw times and ids of the solo sweeps.
type SoloSweeps = (Vec<f64>, Vec<f64>, Vec<u64>);

/// The wall time of a served sweep: [`SOLO_SWEEPS`] sweeps sent one at a
/// time to the warm server once the load has drained, each timed from send
/// to reply and scaled by the host probes around it. Unlike a sweep's
/// latency under load, this does not multiply a slow phase of a shared
/// host by the queueing it causes.
fn solo_sweeps(s: &mut ServerProc, names: &[&str]) -> Result<SoloSweeps, String> {
    let (mut secs, mut raw, mut ids) = (Vec::new(), Vec::new(), Vec::new());
    let mut host = Prober::start();
    for k in 0..SOLO_SWEEPS {
        let id = 800_000_000 + k as u64;
        let t = Instant::now();
        s.send(&line(id, Op::Sweep, names))?;
        if !s.wait_for(&[id], DRAIN_TIMEOUT) {
            return Err("a solo sweep got no reply".into());
        }
        let rep = s.reply(id).ok_or("a solo sweep got no reply")?;
        if !rep.ok {
            return Err(format!("a solo sweep failed: {}", rep.kind));
        }
        let wall = rep.at.saturating_duration_since(t).as_secs_f64();
        let (before, after) = host.next();
        secs.push(scaled(wall, before, after));
        raw.push(wall);
        ids.push(id);
    }
    eprintln!("solo-sweep probes {:.4?} s", host.times);
    Ok((secs, raw, ids))
}

fn all_ok_ms(p: &PhaseResult) -> Vec<f64> {
    p.ok_ms.iter().flatten().copied().collect()
}

/// The serve workload's inputs.
struct Inputs {
    workloads: Vec<Workload>,
    names: Vec<&'static str>,
    keys: Vec<Key>,
}

impl Inputs {
    fn key_index(&self, workload: usize, level: Level, width: u32) -> usize {
        let key = Key {
            workload,
            level,
            width,
        };
        self.keys
            .iter()
            .position(|k| *k == key)
            .expect("every grid key is planned")
    }

    /// `speedup_geomean` (Conv/issue-1 ÷ Lev4/issue-8 cycles) and
    /// `regs_mean` (Lev4/issue-8) of the served grid, from the set-up's
    /// simulate replies.
    fn served_outputs(&self, sims: &[[u64; 4]]) -> (f64, f64) {
        let n = self.workloads.len();
        let base = |w| sims[self.key_index(w, Level::Conv, 1)];
        let top = |w| sims[self.key_index(w, Level::Lev4, 8)];
        let ratios: Vec<f64> = (0..n)
            .map(|w| base(w)[0] as f64 / top(w)[0] as f64)
            .collect();
        let regs = (0..n).map(|w| top(w)[3] as f64).sum::<f64>() / n as f64;
        (geomean(&ratios).unwrap_or(f64::NAN), regs)
    }
}

pub fn serve_mixed(args: &Args) -> Result<Report, String> {
    let bin = args
        .serve_bin
        .as_deref()
        .ok_or("serve-mixed needs --serve-bin")?;
    let workloads = build_all(POINT_SCALE);
    let names: Vec<&'static str> = workloads.iter().map(|w| w.meta.name).collect();
    let keys = keys(&workloads);
    let inp = Inputs {
        workloads,
        names,
        keys,
    };
    let phases = plan(args.seed, args.seconds, &inp.keys);
    let bytes = plan_bytes(&phases, &inp.names);
    eprintln!(
        "request stream: {} requests planned, fnv {:016x}",
        phases.iter().map(|p| p.reqs.len()).sum::<usize>(),
        fnv(bytes.as_bytes())
    );

    let mut r = Report::default();
    // Set-up: a fresh server warmed in closed loop, [`SETUP_REPS`] times;
    // every server must reply identically, and the last serves the load.
    // Each set-up is scaled by the host probes around it.
    let mut host = Prober::start();
    let (mut setups, mut raw_setups) = (Vec::new(), Vec::new());
    let mut first: Option<Vec<[u64; 4]>> = None;
    let mut server = None;
    let mut warm_ids = Vec::new();
    for k in 0..SETUP_REPS {
        let t = Instant::now();
        let mut s = ServerProc::spawn(bin)?;
        let (ids, sims) = warm_up(&mut s, &inp.keys, &inp.names)?;
        let setup = t.elapsed().as_secs_f64();
        match &first {
            None => first = Some(sims),
            Some(f) if *f == sims => {}
            Some(_) => r.fail("set-up replies differ between servers"),
        }
        warm_ids = ids;
        if k + 1 < SETUP_REPS {
            check_replies(&mut r, &s.close()?, &warm_ids);
        } else {
            server = Some(s);
        }
        let (before, after) = host.next();
        setups.push(scaled(setup, before, after));
        raw_setups.push(setup);
    }
    let mut s = server.expect("at least one set-up");
    let (speedup, regs) = inp.served_outputs(&first.expect("at least one set-up"));
    eprintln!(
        "raw set-ups {raw_setups:.3?} s, probes {:.4?} s",
        host.times
    );

    // Load: lo, hi, and (traced run only) the rest of the ladder until its
    // first missed step.
    let mut probe_ids: u64 = if args.trace { 900_000_000 } else { 0 };
    let mut results: Vec<PhaseResult> = Vec::new();
    let mut steps = Vec::new();
    let mut climbing = true;
    let mut sent_ids = warm_ids;
    for phase in &phases {
        let step = on_ladder(&phase.name);
        if step && phase.name != "lo" && !(args.trace && climbing) {
            continue;
        }
        let res = run_phase(&mut s, phase, &inp.names, &mut probe_ids)?;
        sent_ids.extend(phase.reqs.iter().map(|q| q.id));
        let v = StepVerdict::new(phase.rate, &res.all_ms, res.backlog);
        eprintln!(
            "{:>6} {:>7.1} rps: {} sent, {} failed ({} overloaded), judged p{} = {:.1} ms \
             over {} requests, backlog {}, lag max {:.2} ms",
            phase.name,
            phase.rate,
            res.sent,
            res.failed,
            res.overloaded,
            v.tail.pct,
            v.tail.value,
            v.tail.samples,
            res.backlog,
            res.lag_ms_max
        );
        results.push(res);
        if step {
            steps.push(v);
            climbing &= v.meets(LIMIT_MS);
        }
    }
    let (solo_s, solo_raw, solo_ids) = solo_sweeps(&mut s, &inp.names)?;
    sent_ids.extend(solo_ids);
    let rss = s.peak_rss_mb();
    let replies = s.close()?;
    check_replies(&mut r, &replies, &sent_ids);
    check_simulate_sample(&mut r, args.seed, &inp, &phases, &replies);

    let (lo, hi) = (&results[0], &results[1]);
    r.attempted = (lo.sent + hi.sent) as u64;
    r.failed = (lo.failed + hi.failed) as u64;
    if args.trace {
        let layers = traced_layers(&inp, &phases, &results, &steps)?;
        layers.emit(&mut r);
        return Ok(r);
    }
    r.metric("setup_s", median(&setups).expect("set-ups ran"), "s");
    eprintln!("raw solo sweeps {solo_raw:.4?} s");
    r.metric("wall_s", median(&solo_s).expect("solo sweeps ran"), "s");
    r.metric("peak_rss_mb", rss.unwrap_or(f64::NAN), "MB");
    r.metric("speedup_geomean", speedup, "x");
    r.metric("regs_mean", regs, "regs");
    r.metric(
        "success_rate",
        (r.attempted - r.failed) as f64 / r.attempted.max(1) as f64,
        "ratio",
    );
    Ok(r)
}

/// Every id in `ids` answered exactly once, and nothing unparseable.
fn check_replies(r: &mut Report, replies: &Replies, ids: &[u64]) {
    let missing = ids
        .iter()
        .filter(|id| !replies.by_id.contains_key(id))
        .count();
    if missing > 0 || !replies.duplicates.is_empty() || replies.unparsed > 0 {
        r.fail(format!(
            "{missing} ids unanswered, {} answered twice, {} unparseable replies",
            replies.duplicates.len(),
            replies.unparsed
        ));
    }
}

/// Compare [`CHECK_SAMPLES`] seeded ok simulate replies with an in-process
/// `ArtifactCache::evaluate` of the same key.
fn check_simulate_sample(
    r: &mut Report,
    seed: u64,
    inp: &Inputs,
    phases: &[Phase],
    replies: &Replies,
) {
    let sims: Vec<(Key, [u64; 4])> = phases
        .iter()
        .flat_map(|p| &p.reqs)
        .filter_map(|q| match (q.op, replies.by_id.get(&q.id)) {
            (Op::Simulate(k), Some(rep)) if rep.ok => rep.sim.map(|v| (k, v)),
            _ => None,
        })
        .collect();
    if sims.is_empty() {
        r.fail("no ok simulate replies to check");
        return;
    }
    let mut rng = TestRng::seed_from_u64(seed ^ 0x5eed_c4ec);
    let cache = ArtifactCache::new();
    let mut bad = 0;
    for _ in 0..CHECK_SAMPLES {
        let (k, got) = sims[rng.gen_range(0..sims.len())];
        let m = Machine::issue(k.width);
        let want = cache
            .evaluate(&inp.workloads[k.workload], k.level, &m)
            .map(|p| {
                [
                    p.cycles,
                    p.dyn_insts,
                    p.static_insts as u64,
                    p.regs.total() as u64,
                ]
            });
        if want != Ok(got) {
            bad += 1;
            eprintln!("simulate reply {k:?}: {got:?} vs direct {want:?}");
        }
    }
    if bad > 0 {
        r.fail(format!(
            "{bad}/{CHECK_SAMPLES} sampled simulate replies differ"
        ));
    }
}

fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
    })
}

/// Requests of the `lo` phase used for direct-call exec times.
const EXEC_SAMPLES: [usize; 3] = [200, 60, 3];

/// The traced run's layer figures: served latency per op and rate, the
/// direct-call exec time of the same requests, and the layers the
/// compile and simulate handlers run.
fn traced_layers(
    inp: &Inputs,
    phases: &[Phase],
    results: &[PhaseResult],
    steps: &[StepVerdict],
) -> Result<Layers, String> {
    let lo_ops: Vec<Op> = phases[0].reqs.iter().map(|q| q.op).collect();
    let of_kind = |k: usize| lo_ops.iter().copied().filter(move |op| op.kind() == k);
    let mut extra = HashMap::new();
    let mut spans = Spans::default();

    // simulate: ArtifactCache::evaluate on a warm cache.
    let cache = ArtifactCache::new();
    let staged = StagedCache::default();
    for key in &inp.keys {
        let m = Machine::issue(key.width);
        cache.evaluate(&inp.workloads[key.workload], key.level, &m)?;
    }
    let mut exec = [Vec::new(), Vec::new(), Vec::new()];
    for op in of_kind(0).take(EXEC_SAMPLES[0]) {
        let Op::Simulate(k) = op else { continue };
        let (w, m) = (&inp.workloads[k.workload], Machine::issue(k.width));
        let t = Instant::now();
        cache.evaluate(w, k.level, &m)?;
        exec[0].push(t.elapsed().as_secs_f64() * 1000.0);
        let t = Instant::now();
        staged.evaluate(k.workload, w, k.level, &m, &mut spans)?;
        spans.busy += t.elapsed().as_secs_f64();
    }

    // compile: compile_guarded plus lint, against plain compile (staged).
    let (mut guarded_s, mut plain_s, mut lint_s) = (0.0, 0.0, 0.0);
    let (mut incidents, mut diags) = (0usize, 0usize);
    for op in of_kind(1).take(EXEC_SAMPLES[1]) {
        let Op::Compile(k, lint) = op else { continue };
        let (w, m) = (&inp.workloads[k.workload], Machine::issue(k.width));
        let t = Instant::now();
        let g = compile_guarded(w, k.level, &m, GuardConfig::default(), None);
        let gs = t.elapsed().as_secs_f64();
        incidents += g.guard.incidents.len();
        let mut ls = 0.0;
        if lint {
            let t = Instant::now();
            let mut d = ilpc_lint::lint_module(&g.compiled.module);
            d.extend(ilpc_lint::audit_schedules(
                &g.compiled.module,
                &g.compiled.schedules,
                &m,
            ));
            ls = t.elapsed().as_secs_f64();
            diags += d.len();
        }
        exec[1].push((gs + ls) * 1000.0);
        guarded_s += gs;
        lint_s += ls;
        let t = Instant::now();
        let plain = compile_staged(w, k.level, &m, &mut spans);
        let ps = t.elapsed().as_secs_f64();
        spans.busy += ps;
        plain_s += ps;
        if plain.static_insts != g.compiled.static_insts || plain.regs != g.compiled.regs {
            return Err(format!("guarded compile of {k:?} differs from compile"));
        }
    }

    // sweep: run_sweep over a warm cache, as the handler runs it.
    let sweep_cache = Arc::new(ArtifactCache::new());
    let sweep_cfg = || SweepConfig {
        scale: SWEEP_SCALE,
        levels: Level::ALL.to_vec(),
        widths: vec![1, 8],
        scenarios: vec![
            Scenario::mem(MemConfig::Perfect),
            Scenario::mem(MemConfig::Cache(CacheParams::new(4, 16, 2, 30, 30))),
        ],
        artifacts: Some(Arc::clone(&sweep_cache)),
        ..SweepConfig::default()
    };
    run_sweep(&sweep_cfg()).map_err(|e| e.to_string())?;
    let reps = of_kind(2).count().clamp(1, EXEC_SAMPLES[2]);
    let sweep_ms = median_secs(reps, || {
        run_sweep(&sweep_cfg()).expect("valid sweep config");
    }) * 1000.0;
    exec[2].push(sweep_ms);

    extra.insert("guard.compile_guarded_s".to_string(), guarded_s);
    extra.insert(
        "guard.overhead_ratio".to_string(),
        if plain_s > 0.0 {
            guarded_s / plain_s
        } else {
            0.0
        },
    );
    extra.insert("guard.incidents".to_string(), incidents as f64);
    extra.insert("lint.audit_s".to_string(), lint_s);
    extra.insert("lint.diags".to_string(), diags as f64);
    let mut overloaded = 0;
    let (mut depth, mut lag): (u64, f64) = (0, 0.0);
    for p in results {
        overloaded += p.overloaded;
        depth = depth.max(p.queue_depth_max);
        lag = lag.max(p.lag_ms_max);
    }
    let rates = [("lo", &results[0]), ("hi", &results[1])];
    for (rate, p) in rates {
        let ms = all_ok_ms(p);
        let t = tail(&ms, 99.0);
        extra.insert(format!("serve.p50_ms.{rate}"), median(&ms).unwrap_or(0.0));
        extra.insert(format!("serve.p99_ms.{rate}"), t.map_or(0.0, |t| t.value));
        extra.insert(format!("serve.tail_pct.{rate}"), t.map_or(0.0, |t| t.pct));
        extra.insert(format!("serve.samples.{rate}"), ms.len() as f64);
    }
    extra.insert("serve.max_rate_rps".to_string(), max_rate(steps, LIMIT_MS));
    for (k, op) in SERVE_OPS.iter().enumerate() {
        let exec_ms = median(&exec[k]).unwrap_or(0.0);
        extra.insert(format!("serve.{op}.exec_ms"), exec_ms);
        for (rate, p) in rates {
            let ms = &p.ok_ms[k];
            let p50 = median(ms).unwrap_or(0.0);
            let t = tail(ms, 99.0);
            extra.insert(format!("serve.{op}.p50_ms.{rate}"), p50);
            extra.insert(
                format!("serve.{op}.p99_ms.{rate}"),
                t.map_or(0.0, |t| t.value),
            );
            extra.insert(
                format!("serve.{op}.tail_pct.{rate}"),
                t.map_or(0.0, |t| t.pct),
            );
            extra.insert(format!("serve.{op}.wait_ms.{rate}"), p50 - exec_ms);
        }
    }
    extra.insert("serve.queue_depth_max".to_string(), depth as f64);
    extra.insert("serve.overloaded".to_string(), overloaded as f64);
    extra.insert("loadgen.lag_ms_max".to_string(), lag);
    let artifact = (staged.compiles.into_inner(), staged.hits.into_inner());
    Ok(Layers {
        artifact,
        extra,
        ..Layers::new(spans)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inputs() -> (Vec<&'static str>, Vec<Key>) {
        let ws = build_all(0.02);
        (ws.iter().map(|w| w.meta.name).collect(), keys(&ws))
    }

    #[test]
    fn same_seed_same_request_stream_bytes() {
        let (names, keys) = inputs();
        let a = plan_bytes(&plan(7, 20.0, &keys), &names);
        let b = plan_bytes(&plan(7, 20.0, &keys), &names);
        assert_eq!(a, b);
        assert_ne!(a, plan_bytes(&plan(8, 20.0, &keys), &names));
    }

    #[test]
    fn plan_rates_and_mix_match_the_spec() {
        let (_, keys) = inputs();
        assert_eq!(keys.len(), 960);
        let phases = plan(3, 100.0, &keys);
        let lo = &phases[0];
        // 100 rps for 60 s: about 6000 arrivals.
        assert!((5600..6400).contains(&lo.reqs.len()), "{}", lo.reqs.len());
        let count = |k| lo.reqs.iter().filter(|q| q.op.kind() == k).count() as f64;
        let n = lo.reqs.len() as f64;
        assert!((count(0) / n - 0.80).abs() < 0.03);
        assert!((count(1) / n - 0.18).abs() < 0.03);
        assert!((count(2) / n - 0.02).abs() < 0.01);
        // Ids are unique across the whole plan and dues increase.
        let mut ids: Vec<u64> = phases
            .iter()
            .flat_map(|p| p.reqs.iter().map(|q| q.id))
            .collect();
        let total = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), total);
        assert!(lo.reqs.windows(2).all(|w| w[0].due < w[1].due));
        // lo is the first rung; the other rungs follow hi.
        assert_eq!(phases.len(), 1 + LADDER_STEPS);
        assert_eq!(lo.rate, LADDER_BASE);
        assert_eq!(phases[1].rate, HI_RPS);
        assert_eq!(phases[2].rate, LADDER_BASE * LADDER_FACTOR);
        let rungs: Vec<&str> = phases
            .iter()
            .map(|p| p.name.as_str())
            .filter(|n| on_ladder(n))
            .collect();
        assert_eq!(rungs.len(), LADDER_STEPS);
    }

    #[test]
    fn request_lines_parse_as_requests() {
        let (names, keys) = inputs();
        for op in [Op::Simulate(keys[5]), Op::Compile(keys[9], true), Op::Sweep] {
            let text = line(42, op, &names);
            let v = parse(&text).unwrap();
            ilpc_serve::parse_request(&v).unwrap();
        }
    }
}
