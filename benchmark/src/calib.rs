//! Host-speed calibration for the timed end-to-end metrics.
//!
//! On a shared host the speed of the same code drifts by ±20 % over tens
//! of seconds to minutes (other tenants' load on the same cores and
//! caches), far more than a 25 % regression bound can absorb. The timed
//! metrics therefore divide out the host's speed, measured by a fixed
//! probe kernel run right before and right after each timed sample:
//!
//! ```text
//! scaled = raw × PROBE_REF_S / mean(probe before, probe after)
//! ```
//!
//! The probe lives here, in the benchmark, and calls nothing of the
//! program under test, so a change to the program moves the scaled time
//! exactly as it moves the raw time; only the host's drift cancels. Its
//! mix (hash-table churn over 4 MB, small-allocation churn and a branchy
//! bytecode interpreter) follows the program's own: compiler passes are
//! map- and allocation-heavy, the simulator is an interpreter loop over
//! decoded instructions. It runs on two long-lived threads at once,
//! because every timed workload keeps both cores busy, and it reuses
//! buffers it has already touched, so that it times the cores rather than
//! the cost of first-touch page faults (which varies from process to
//! process on a virtual machine).

use crate::stats::median;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;
use std::time::Instant;

/// The probe's time on the reference host (2 vCPUs): scaled times are
/// seconds on a host as fast as that one.
pub const PROBE_REF_S: f64 = 0.030;

/// Probe rounds per measurement; the measurement is their median.
const PROBE_REPS: usize = 3;

/// Threads the probe runs on at once.
const PROBE_THREADS: u64 = 2;

/// Slots of a probe thread's hash table (4 MB of `u64`).
const TABLE_SLOTS: usize = 1 << 19;

/// One thread's round of the probe: a fixed amount of work over the
/// thread's own buffers, seeded so each round's data differs. Returns a
/// checksum so nothing is elided.
#[inline(never)]
fn kernel(seed: u64, table: &mut [u64], pool: &mut Vec<Vec<u32>>) -> u64 {
    let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut rnd = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut acc = 0u64;
    // Open-addressing hash-table churn over 200 k keys.
    table.fill(0);
    let mask = table.len() - 1;
    for _ in 0..300_000 {
        let key = rnd() % 200_000 + 1;
        let mut i = (key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40) as usize & mask;
        loop {
            match table[i] {
                0 => {
                    table[i] = key;
                    break;
                }
                k if k == key => {
                    acc += 1;
                    break;
                }
                _ => i = (i + 1) & mask,
            }
        }
    }
    // Small-allocation churn, as IR rewriting does.
    pool.clear();
    for i in 0..100_000u32 {
        let n = (rnd() % 24) as u32;
        pool.push((0..n).map(|j| j ^ i).collect());
        if pool.len() > 512 {
            let k = (rnd() % 512) as usize;
            acc = acc.wrapping_add(pool.swap_remove(k).iter().map(|&v| v as u64).sum());
        }
    }
    // A branchy interpreter loop, as the simulator runs.
    let prog: Vec<(u8, usize, usize)> = (0..64)
        .map(|_| {
            (
                (rnd() % 5) as u8,
                (rnd() % 16) as usize,
                (rnd() % 16) as usize,
            )
        })
        .collect();
    let mut regs = [1u64; 16];
    for _ in 0..40_000 {
        for &(op, a, b) in &prog {
            regs[a] = match op {
                0 => regs[a].wrapping_add(regs[b]),
                1 => regs[a].wrapping_mul(regs[b] | 1),
                2 => regs[a] ^ (regs[b] >> 3),
                3 if regs[b] & 1 == 0 => regs[a].wrapping_add(1),
                3 => regs[a].wrapping_sub(1),
                _ => regs[(regs[b] % 16) as usize],
            };
        }
    }
    acc.wrapping_add(regs.iter().fold(0, |s, &r| s ^ r))
}

/// `raw` seconds measured between two probes, scaled to the reference
/// host's speed.
pub fn scaled(raw: f64, before: f64, after: f64) -> f64 {
    raw * PROBE_REF_S / ((before + after) / 2.0)
}

/// The probe's threads and the probes of one series of timed samples:
/// probe, sample, probe, sample, probe, … (each probe closes one sample
/// and opens the next).
pub struct Prober {
    go: Vec<Sender<u64>>,
    done: Receiver<u64>,
    workers: Vec<JoinHandle<()>>,
    rounds: u64,
    /// Every probe of the series, in seconds.
    pub times: Vec<f64>,
}

impl Prober {
    /// Start the probe threads, warm their buffers with one untimed round
    /// and take the series' first probe.
    pub fn start() -> Prober {
        let (done_tx, done) = channel();
        let (mut go, mut workers) = (Vec::new(), Vec::new());
        for _ in 0..PROBE_THREADS {
            let (tx, rx) = channel::<u64>();
            let done_tx = done_tx.clone();
            go.push(tx);
            workers.push(std::thread::spawn(move || {
                let mut table = vec![0u64; TABLE_SLOTS];
                let mut pool = Vec::new();
                for seed in rx {
                    let sum = kernel(seed, &mut table, &mut pool);
                    if done_tx.send(sum).is_err() {
                        break;
                    }
                }
            }));
        }
        let mut p = Prober {
            go,
            done,
            workers,
            rounds: 0,
            times: Vec::new(),
        };
        p.round();
        let first = p.probe();
        p.times.push(first);
        p
    }

    /// One round on every probe thread at once; its wall time in seconds.
    fn round(&mut self) -> f64 {
        let t = Instant::now();
        for tx in &self.go {
            self.rounds += 1;
            tx.send(self.rounds).expect("probe thread alive");
        }
        for _ in &self.go {
            std::hint::black_box(self.done.recv().expect("probe thread alive"));
        }
        t.elapsed().as_secs_f64()
    }

    /// The host's current speed: the median of [`PROBE_REPS`] rounds.
    pub fn probe(&mut self) -> f64 {
        let times: Vec<f64> = (0..PROBE_REPS).map(|_| self.round()).collect();
        median(&times).expect("at least one probe round")
    }

    /// Close the sample taken since the last probe: probe again and
    /// return the (before, after) pair to scale it by.
    pub fn next(&mut self) -> (f64, f64) {
        let before = *self.times.last().expect("a series starts with a probe");
        let after = self.probe();
        self.times.push(after);
        (before, after)
    }
}

impl Drop for Prober {
    fn drop(&mut self) {
        // Closing the channels ends the threads' loops.
        self.go.clear();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_is_identity_at_reference_speed() {
        assert_eq!(scaled(1.5, PROBE_REF_S, PROBE_REF_S), 1.5);
    }

    #[test]
    fn a_uniformly_slower_host_scales_back() {
        // Host twice as slow: the raw time and both probes double.
        let slow = scaled(3.0, 2.0 * PROBE_REF_S, 2.0 * PROBE_REF_S);
        assert!((slow - 1.5).abs() < 1e-12);
        // The probe pair is averaged.
        let drift = scaled(1.0, PROBE_REF_S, 3.0 * PROBE_REF_S);
        assert!((drift - 0.5).abs() < 1e-12);
    }

    #[test]
    fn kernel_is_deterministic_per_seed() {
        let run = |seed| kernel(seed, &mut vec![0; TABLE_SLOTS], &mut Vec::new());
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4));
    }

    #[test]
    fn a_series_probes_once_per_sample_and_stops_its_threads() {
        let mut p = Prober::start();
        let (before, after) = p.next();
        assert_eq!(p.times, [before, after]);
        assert!(before > 0.0 && after > 0.0);
    }
}
