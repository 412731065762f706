//! The benchmark's own arithmetic: medians, the percentile rule, the
//! geometric mean, the rate ladder and the front-end redundancy ledger.
//! Every rule here is unit-tested, because every reported number goes
//! through one of them.

use std::collections::HashSet;

/// Median of `xs` (mean of the two middle values for an even count).
/// `None` for an empty sample.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// A latency percentile chosen by the reporting rule: the highest of the
/// candidate percentiles (capped at `cap`) that leaves at least
/// [`TAIL_SAMPLES`] samples beyond it, with the sample count it rests on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile actually reported, e.g. `99.0`.
    pub pct: f64,
    /// Its value (nearest-rank).
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_SAMPLES: usize = 10;

/// Percentiles the rule may report, highest first.
const CANDIDATES: [f64; 7] = [99.9, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0];

/// Nearest-rank percentile of a sorted sample: the smallest value with at
/// least `pct` % of the sample at or below it.
fn nearest_rank(sorted: &[f64], pct: f64) -> f64 {
    let n = sorted.len();
    let rank = ((pct / 100.0) * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// The highest percentile ≤ `cap` with at least [`TAIL_SAMPLES`] samples
/// strictly beyond its rank. `None` for an empty sample; a sample too
/// small for any tail reports its median.
pub fn tail(xs: &[f64], cap: f64) -> Option<Tail> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let pct = CANDIDATES
        .iter()
        .copied()
        .filter(|&p| p <= cap)
        .find(|&p| {
            let rank = ((p / 100.0) * n as f64).ceil() as usize;
            n.saturating_sub(rank) >= TAIL_SAMPLES
        })
        .unwrap_or(50.0);
    Some(Tail {
        pct,
        value: nearest_rank(&v, pct),
        samples: n,
    })
}

/// Geometric mean of strictly positive ratios; `None` if empty or if any
/// ratio is not a finite positive number.
pub fn geomean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() || xs.iter().any(|&x| !(x.is_finite() && x > 0.0)) {
        return None;
    }
    Some((xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp())
}

/// The fixed geometric rate ladder: `base × factor^k` for `k < steps`.
pub fn ladder(base: f64, factor: f64, steps: usize) -> Vec<f64> {
    (0..steps).map(|k| base * factor.powi(k as i32)).collect()
}

/// The outcome of one ladder step (or fixed-rate phase).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepVerdict {
    pub rate: f64,
    /// The tail latency (ms) the limit is judged on, by [`tail`] over every
    /// request of the step, with refused, failed and unanswered requests
    /// counted as infinitely late.
    pub tail: Tail,
    /// Replies of the step that arrived after the step ended.
    pub backlog: usize,
}

impl StepVerdict {
    /// Judge a step from its per-request latencies (`f64::INFINITY` for a
    /// miss) and its backlog.
    pub fn new(rate: f64, latencies_ms: &[f64], backlog: usize) -> StepVerdict {
        let tail = tail(latencies_ms, 99.0).unwrap_or(Tail {
            pct: 99.0,
            value: f64::INFINITY,
            samples: 0,
        });
        StepVerdict {
            rate,
            tail,
            backlog,
        }
    }

    /// By Little's law a step that meets a `limit_ms` latency limit at
    /// `rate` holds at most `rate × limit` requests in flight, so at most
    /// that many of its replies can arrive after its last arrival; a
    /// larger backlog is work arriving faster than it is served.
    pub fn backlog_grew(&self, limit_ms: f64) -> bool {
        self.backlog as f64 > self.rate * limit_ms / 1000.0
    }

    /// A step meets the limit when its tail is within it and its backlog
    /// did not grow.
    pub fn meets(&self, limit_ms: f64) -> bool {
        self.tail.value <= limit_ms && !self.backlog_grew(limit_ms)
    }
}

/// `max_rate_rps`: the highest ladder rate reached before the first step
/// that misses the limit (steps are judged in ladder order and the ladder
/// stops at the first miss). `0.0` when even the first step misses.
pub fn max_rate(steps: &[StepVerdict], limit_ms: f64) -> f64 {
    steps
        .iter()
        .take_while(|s| s.meets(limit_ms))
        .last()
        .map_or(0.0, |s| s.rate)
}

/// Counts pass executions whose input was already produced earlier in the
/// same run. The front end (lower + level passes) depends only on the
/// workload, the level and the vector length — never on issue width — so
/// every compile whose `(workload, level, vlen)` key was seen before
/// re-derives a module the run already built.
#[derive(Debug, Default)]
pub struct RedundancyLedger {
    seen: HashSet<(String, String, u32)>,
    executions: u64,
    redundant: u64,
}

impl RedundancyLedger {
    /// Record one compile that ran `passes` pass executions.
    pub fn record(&mut self, workload: &str, level: &str, vlen: u32, passes: u64) {
        self.executions += passes;
        if !self
            .seen
            .insert((workload.to_string(), level.to_string(), vlen))
        {
            self.redundant += passes;
        }
    }

    /// Redundant ÷ total pass executions (`0.0` before any).
    pub fn share(&self) -> f64 {
        if self.executions == 0 {
            0.0
        } else {
            self.redundant as f64 / self.executions as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_reports_p99_only_with_ten_samples_beyond() {
        // 1000 samples: rank 990 leaves exactly 10 beyond → p99.
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&xs, 99.0).unwrap();
        assert_eq!((t.pct, t.value, t.samples), (99.0, 990.0, 1000));
        // 999 samples: p99 leaves 9 beyond → fall back to p98.
        let t = tail(&xs[..999], 99.0).unwrap();
        assert_eq!(t.pct, 98.0);
        assert_eq!(t.value, 980.0);
        // 200 samples: p95 leaves 10 → p95.
        let t = tail(&xs[..200], 99.0).unwrap();
        assert_eq!((t.pct, t.value), (95.0, 190.0));
        // 20 samples: only the median has 10 beyond.
        let t = tail(&xs[..20], 99.0).unwrap();
        assert_eq!((t.pct, t.value), (50.0, 10.0));
        // Too small for any tail: the median, still with its count.
        let t = tail(&[5.0, 7.0, 6.0], 99.0).unwrap();
        assert_eq!((t.pct, t.value, t.samples), (50.0, 6.0, 3));
        // The cap is honoured even when the sample supports more.
        let big: Vec<f64> = (1..=100_000).map(f64::from).collect();
        assert_eq!(tail(&big, 99.0).unwrap().pct, 99.0);
        assert_eq!(tail(&big, 99.9).unwrap().pct, 99.9);
        assert_eq!(tail(&[], 99.0), None);
    }

    #[test]
    fn tail_is_order_independent() {
        let mut xs: Vec<f64> = (0..500).map(|k| ((k * 7919) % 500) as f64).collect();
        let a = tail(&xs, 99.0).unwrap();
        xs.reverse();
        assert_eq!(tail(&xs, 99.0).unwrap(), a);
    }

    #[test]
    fn geomean_rules() {
        let g = geomean(&[2.0, 8.0]).unwrap();
        assert!((g - 4.0).abs() < 1e-12);
        let g = geomean(&[1.0, 10.0, 100.0]).unwrap();
        assert!((g - 10.0).abs() < 1e-9);
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
        assert_eq!(geomean(&[1.0, f64::NAN]), None);
    }

    #[test]
    fn ladder_is_geometric_from_base() {
        let l = ladder(100.0, 1.25, 5);
        let want = [100.0, 125.0, 156.25, 195.3125, 244.140625];
        assert_eq!(l.len(), 5);
        for (a, b) in l.iter().zip(want) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    /// A step of `n` requests at 10 ms with `late` of them at `ms`.
    fn step(rate: f64, n: usize, late: usize, ms: f64, backlog: usize) -> StepVerdict {
        let mut xs = vec![10.0; n - late];
        xs.extend(std::iter::repeat_n(ms, late));
        StepVerdict::new(rate, &xs, backlog)
    }

    #[test]
    fn max_rate_stops_at_first_miss() {
        let l = ladder(100.0, 1.25, 4);
        let ok: Vec<_> = l.iter().map(|&r| step(r, 1000, 0, 0.0, 1)).collect();
        assert_eq!(max_rate(&ok, 200.0), l[3]);
        // Rung 2's p99 is over the limit: rung 1 is the answer, even
        // though a later rung passes again.
        let mut s = ok.clone();
        s[2] = step(l[2], 1000, 11, 250.0, 1);
        assert_eq!(s[2].tail.value, 250.0);
        assert_eq!(max_rate(&s, 200.0), l[1]);
        // Misses count as infinitely late: 11 refused requests in 1000
        // put the p99 at infinity; 10 sit beyond the p99 and pass.
        let mut s = ok.clone();
        s[1] = step(l[1], 1000, 11, f64::INFINITY, 1);
        assert_eq!(max_rate(&s, 200.0), l[0]);
        s[1] = step(l[1], 1000, 10, f64::INFINITY, 1);
        assert_eq!(max_rate(&s, 200.0), l[3]);
        // A first-rung miss leaves no passing rate; an empty step misses.
        let mut s = ok.clone();
        s[0] = step(l[0], 1000, 20, 201.0, 1);
        assert_eq!(max_rate(&s, 200.0), 0.0);
        assert!(!StepVerdict::new(100.0, &[], 0).meets(200.0));
        assert_eq!(max_rate(&[], 200.0), 0.0);
    }

    #[test]
    fn backlog_beyond_littles_law_bound_misses() {
        // 250 rps × 0.2 s = 50 replies may arrive after the step ends.
        assert!(!step(250.0, 1000, 0, 0.0, 50).backlog_grew(200.0));
        assert!(step(250.0, 1000, 0, 0.0, 51).backlog_grew(200.0));
        assert!(!step(250.0, 1000, 0, 0.0, 51).meets(200.0));
        assert!(step(250.0, 1000, 0, 0.0, 50).meets(200.0));
    }

    #[test]
    fn redundancy_is_keyed_by_workload_level_vlen_not_width() {
        // The paper grid: 40 loops × 6 levels × 4 widths, 3 passes each.
        let mut l = RedundancyLedger::default();
        for w in 0..40 {
            for level in ["Conv", "Lev1", "Lev2", "Lev3", "Lev4", "Lev6"] {
                for _width in [1, 2, 4, 8] {
                    l.record(&format!("w{w}"), level, 1, 3);
                }
            }
        }
        assert!((l.share() - 0.75).abs() < 1e-12);
        // A different vlen is a different front end: nothing redundant.
        let mut v = RedundancyLedger::default();
        for vlen in [1, 2, 4, 8] {
            v.record("dotprod", "Lev6", vlen, 18);
        }
        assert_eq!(v.share(), 0.0);
        // Redundancy is weighted by pass executions: a repeated Lev6
        // compile (18 passes) outweighs a repeated Conv one (1 pass).
        let mut m = RedundancyLedger::default();
        m.record("a", "Conv", 1, 1);
        m.record("a", "Conv", 1, 1);
        m.record("a", "Lev6", 1, 18);
        m.record("a", "Lev6", 1, 18);
        assert!((m.share() - 19.0 / 38.0).abs() < 1e-12);
        assert_eq!(RedundancyLedger::default().share(), 0.0);
    }
}
