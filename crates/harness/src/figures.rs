//! Rendering of the paper's tables and figures as text.
//!
//! Each figure in the paper is a histogram: the number of loops whose
//! speedup (or register usage) falls into each range, with one series per
//! transformation level. [`FIGURES`] lists every table and figure once;
//! `report` prints them (`report --only ID` a chosen few), the `figures`
//! bench times them, and the integration tests assert their shape.

use crate::grid::Grid;
use crate::run::EvalPoint;
use ilpc_core::level::Level;
use ilpc_workloads::WorkloadMeta;
use std::fmt::Write;

/// One paper artifact: a table, a figure, or a block of statistics.
pub struct Figure {
    /// Stable name for `report --only` and the bench label.
    pub id: &'static str,
    /// First line of the rendered text.
    pub title: &'static str,
    /// The text under the title. Tables 1 and 2 ignore the grid.
    body: fn(&Grid) -> String,
}

impl Figure {
    /// The title line followed by the table.
    pub fn render(&self, grid: &Grid) -> String {
        format!("{}\n{}", self.title, (self.body)(grid))
    }
}

/// Every table and figure of the paper, in the paper's order, then the
/// per-loop appendix.
pub static FIGURES: &[Figure] = &[
    Figure {
        id: "table1",
        title: "Table 1: Instruction latencies",
        body: |_| render_table1(),
    },
    Figure {
        id: "table2",
        title: "Table 2: Description of loop nests",
        body: |_| render_table2(),
    },
    Figure {
        id: "fig08",
        title: "Figure 8: speedup distribution, issue-2",
        body: |g| render_histogram(&speedup_histogram(g, 2, Bins::fig8(), Subset::All)),
    },
    Figure {
        id: "fig09",
        title: "Figure 9: speedup distribution, issue-4",
        body: |g| render_histogram(&speedup_histogram(g, 4, Bins::fig9(), Subset::All)),
    },
    Figure {
        id: "fig10",
        title: "Figure 10: speedup distribution, issue-8",
        body: |g| render_histogram(&speedup_histogram(g, 8, Bins::fig10(), Subset::All)),
    },
    Figure {
        id: "fig11",
        title: "Figure 11: register usage distribution, issue-8",
        body: |g| render_histogram(&regs_histogram(g, 8, Subset::All)),
    },
    Figure {
        id: "fig12",
        title: "Figure 12: speedup distribution, DOALL loops, issue-8",
        body: |g| render_histogram(&speedup_histogram(g, 8, Bins::fig10(), Subset::Doall)),
    },
    Figure {
        id: "fig13",
        title: "Figure 13: register usage, DOALL loops, issue-8",
        body: |g| render_histogram(&regs_histogram(g, 8, Subset::Doall)),
    },
    Figure {
        id: "fig14",
        title: "Figure 14: speedup distribution, non-DOALL loops, issue-8",
        body: |g| render_histogram(&speedup_histogram(g, 8, Bins::fig10(), Subset::NonDoall)),
    },
    Figure {
        id: "fig15",
        title: "Figure 15: register usage, non-DOALL loops, issue-8",
        body: |g| render_histogram(&regs_histogram(g, 8, Subset::NonDoall)),
    },
    Figure {
        id: "summary",
        title: "== Average speedups over issue-1 Conv ==",
        body: render_summary,
    },
    Figure {
        id: "per-loop",
        title: "== Per-loop speedups (issue-8) ==",
        body: |g| render_per_loop(g, 8),
    },
];

/// Bin edges for a histogram; bin `k` covers `[edges[k], edges[k+1])`, the
/// last bin is open-ended.
#[derive(Debug, Clone)]
struct Bins {
    edges: Vec<f64>,
    labels: Vec<String>,
}

impl Bins {
    fn from_edges(edges: Vec<f64>, fmt1: impl Fn(f64, f64) -> String) -> Bins {
        let mut labels = Vec::new();
        for k in 0..edges.len() {
            if k + 1 < edges.len() {
                labels.push(fmt1(edges[k], edges[k + 1]));
            } else {
                labels.push(format!("{:.2}+", edges[k]));
            }
        }
        Bins { edges, labels }
    }

    /// Speedup bins of Figure 8 (issue-2).
    fn fig8() -> Bins {
        Bins::from_edges(
            vec![0.0, 1.25, 1.5, 1.75, 2.0, 2.5, 3.0],
            |a, b| format!("{a:.2}-{:.2}", b - 0.01),
        )
    }

    /// Speedup bins of Figure 9 (issue-4).
    fn fig9() -> Bins {
        Bins::from_edges(
            vec![0.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 5.0, 6.0],
            |a, b| format!("{a:.2}-{:.2}", b - 0.01),
        )
    }

    /// Speedup bins of Figure 10 (issue-8; also Figures 12 and 14).
    fn fig10() -> Bins {
        Bins::from_edges(
            vec![0.0, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0],
            |a, b| format!("{a:.2}-{:.2}", b - 0.01),
        )
    }

    /// Register usage bins of Figure 11 (also Figures 13 and 15).
    fn fig11() -> Bins {
        Bins {
            edges: vec![0.0, 16.0, 32.0, 48.0, 64.0, 96.0, 128.0],
            labels: vec![
                "0-15".into(),
                "16-31".into(),
                "32-47".into(),
                "48-63".into(),
                "64-95".into(),
                "96-127".into(),
                "128+".into(),
            ],
        }
    }

    /// Index of the bin containing `v`.
    fn bin_of(&self, v: f64) -> usize {
        let mut k = 0;
        while k + 1 < self.edges.len() && v >= self.edges[k + 1] {
            k += 1;
        }
        k
    }
}

/// Loop subset selector for Figures 12-15.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Subset {
    All,
    Doall,
    NonDoall,
}

impl Subset {
    fn includes(self, m: &WorkloadMeta) -> bool {
        match self {
            Subset::All => true,
            Subset::Doall => m.ltype.is_doall(),
            Subset::NonDoall => !m.ltype.is_doall(),
        }
    }
}

/// Histogram counts: `counts[level][bin]`.
struct Histogram {
    bins: Bins,
    levels: Vec<Level>,
    counts: Vec<Vec<usize>>,
}

/// Histogram of `value(loop, level)` over the loops in `subset`, one
/// column per level of the grid. A loop without a value at a level is left
/// out of that level's column.
fn histogram(
    grid: &Grid,
    bins: Bins,
    subset: Subset,
    value: impl Fn(&str, Level) -> Option<f64>,
) -> Histogram {
    let levels = grid.levels.clone();
    let mut counts = vec![vec![0usize; bins.labels.len()]; levels.len()];
    for m in grid.meta.iter().filter(|m| subset.includes(m)) {
        for (li, &level) in levels.iter().enumerate() {
            if let Some(v) = value(m.name, level) {
                counts[li][bins.bin_of(v)] += 1;
            }
        }
    }
    Histogram { bins, levels, counts }
}

/// Build the speedup distribution histogram for `width` over `subset`.
fn speedup_histogram(
    grid: &Grid,
    width: u32,
    bins: Bins,
    subset: Subset,
) -> Histogram {
    histogram(grid, bins, subset, |name, level| grid.speedup(name, level, width))
}

/// Build the register usage histogram for `width` over `subset`.
fn regs_histogram(grid: &Grid, width: u32, subset: Subset) -> Histogram {
    histogram(grid, Bins::fig11(), subset, |name, level| {
        grid.point(name, level, width).map(|p| p.regs.total() as f64)
    })
}

/// Write one header cell per level, each right-aligned in `width` columns
/// after a single space.
fn level_header(out: &mut String, levels: &[Level], width: usize) {
    for l in levels {
        let _ = write!(out, " {:>width$}", l.name());
    }
}

/// Render a histogram as a text table (ranges as rows, levels as columns).
fn render_histogram(h: &Histogram) -> String {
    let mut out = String::new();
    let _ = write!(out, "{:<14}", "range");
    for l in &h.levels {
        let _ = write!(out, "{:>6}", l.name());
    }
    let _ = writeln!(out);
    for (bi, label) in h.bins.labels.iter().enumerate() {
        let _ = write!(out, "{label:<14}");
        for counts in &h.counts {
            let _ = write!(out, "{:>6}", counts[bi]);
        }
        let _ = writeln!(out);
    }
    out
}

/// Per-loop speedups at `width` for every level of the grid, plus the
/// loop's Lev4 register count.
fn render_per_loop(grid: &Grid, width: u32) -> String {
    let mut out = String::new();
    let _ = write!(out, "{:<12} {:>9} {:>6} |", "loop", "type", "conds");
    level_header(&mut out, &grid.levels, 7);
    let _ = writeln!(out, " | {:>5}", "regs4");
    for m in &grid.meta {
        let _ = write!(
            out,
            "{:<12} {:>9} {:>6} |",
            m.name,
            m.ltype.name(),
            if m.conds { "yes" } else { "no" }
        );
        for &level in &grid.levels {
            let s = grid.speedup(m.name, level, width).unwrap_or(f64::NAN);
            let _ = write!(out, " {s:>7.2}");
        }
        let regs = grid
            .point(m.name, Level::Lev4, width)
            .map(|p| p.regs.total())
            .unwrap_or(0);
        let _ = writeln!(out, " | {regs:>5}");
    }
    out
}

/// The paper's §3.2/§4 summary statistics, below the
/// "== Average speedups over issue-1 Conv ==" title.
fn render_summary(grid: &Grid) -> String {
    let mut out = String::new();
    let names = |subset: Subset| {
        grid.meta
            .iter()
            .filter(move |m| subset.includes(m))
            .map(|m| m.name)
    };

    let _ = write!(out, "{:<8}", "config");
    level_header(&mut out, &grid.levels, 7);
    let _ = writeln!(out);
    for width in [2u32, 4, 8] {
        let _ = write!(out, "issue-{width:<2}");
        for &level in &grid.levels {
            let v = grid.mean_speedup(names(Subset::All), level, width);
            let _ = write!(out, " {v:>7.2}");
        }
        let _ = writeln!(out);
    }

    let _ = writeln!(out, "\n== Issue-8 by loop class (paper §4) ==");
    let _ = write!(out, "{:<10}", "class");
    level_header(&mut out, &grid.levels, 7);
    let _ = writeln!(out);
    for (label, subset) in [("DOALL", Subset::Doall), ("non-DOALL", Subset::NonDoall)] {
        let _ = write!(out, "{label:<10}");
        for &level in &grid.levels {
            let v = grid.mean_speedup(names(subset), level, 8);
            let _ = write!(out, " {v:>7.2}");
        }
        let _ = writeln!(out);
    }

    // Transformation cost: dynamic and static instruction overhead.
    let _ = writeln!(out, "\n== Instruction overhead vs Conv (issue-8) ==");
    let _ = writeln!(out, "{:<5} {:>10} {:>10}", "level", "dyn", "static");
    let total = |level: Level, count: fn(&EvalPoint) -> f64| -> f64 {
        grid.meta
            .iter()
            .filter_map(|m| grid.point(m.name, level, 8))
            .map(count)
            .sum()
    };
    let dyn_insts = |p: &EvalPoint| p.dyn_insts as f64;
    let static_insts = |p: &EvalPoint| p.static_insts as f64;
    let conv_dyn = total(Level::Conv, dyn_insts).max(1.0);
    let conv_static = total(Level::Conv, static_insts).max(1.0);
    for &level in &grid.levels {
        let _ = writeln!(
            out,
            "{:<5} {:>9.2}x {:>9.2}x",
            level.name(),
            total(level, dyn_insts) / conv_dyn,
            total(level, static_insts) / conv_static
        );
    }

    let _ = writeln!(out, "\n== Average registers (issue-8) ==");
    for &level in &grid.levels {
        let _ = writeln!(
            out,
            "{:<5} {:>7.1}",
            level.name(),
            grid.mean_regs(names(Subset::All), level, 8)
        );
    }
    // Register growth only over full coverage: a ratio of two partial
    // means (different holes in each) would be meaningless.
    let conv = grid.mean_regs(names(Subset::All), Level::Conv, 8).complete();
    let lev4 = grid.mean_regs(names(Subset::All), Level::Lev4, 8).complete();
    match (conv, lev4) {
        (Some(c), Some(l)) if c > 0.0 => {
            let _ = writeln!(out, "register growth Conv -> Lev4: {:.2}x", l / c);
        }
        _ => {
            let _ = writeln!(out, "register growth Conv -> Lev4: n/a (incomplete grid)");
        }
    }
    let under128 = grid
        .meta
        .iter()
        .filter(|m| {
            grid.point(m.name, Level::Lev4, 8)
                .map(|p| p.regs.total() < 128)
                .unwrap_or(false)
        })
        .count();
    let _ = writeln!(
        out,
        "loops under 128 registers at Lev4: {under128} / {}",
        grid.meta.len()
    );
    out
}

/// The body of the paper's Table 1 (instruction latencies) from the
/// machine model.
fn render_table1() -> String {
    let t = ilpc_machine::TABLE1;
    let mut out = String::new();
    let rows = [
        ("Int ALU", t.int_alu.to_string(), "FP ALU", t.fp_alu.to_string()),
        ("Int multiply", t.int_mul.to_string(), "FP conversion", t.fp_cvt.to_string()),
        ("Int divide", t.int_div.to_string(), "FP multiply", t.fp_mul.to_string()),
        ("branch", format!("{} / 1 slot", t.branch), "FP divide", t.fp_div.to_string()),
        ("memory load", t.load.to_string(), "memory store", t.store.to_string()),
    ];
    for (a, av, b, bv) in rows {
        let _ = writeln!(out, "{a:<14}{av:<12}{b:<15}{bv}");
    }
    out
}

/// The body of the paper's Table 2 (loop nest descriptions) from the
/// catalog.
fn render_table2() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<14}{:>6}{:>8}{:>6}  {:<10}{:>6}",
        "Name", "Size", "Iters", "Nest", "Type", "Conds"
    );
    for m in ilpc_workloads::table2() {
        let _ = writeln!(
            out,
            "{:<14}{:>6}{:>8}{:>6}  {:<10}{:>6}",
            m.name,
            m.size,
            m.iters,
            m.nest,
            m.ltype.name(),
            if m.conds { "yes" } else { "no" }
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bin_indexing() {
        let b = Bins::fig10();
        assert_eq!(b.bin_of(0.5), 0);
        assert_eq!(b.bin_of(2.0), 1);
        assert_eq!(b.bin_of(2.49), 1);
        assert_eq!(b.bin_of(7.2), 7);
        assert_eq!(b.bin_of(100.0), 8);
        assert_eq!(b.labels.len(), 9);
        let r = Bins::fig11();
        assert_eq!(r.bin_of(15.0), 0);
        assert_eq!(r.bin_of(16.0), 1);
        assert_eq!(r.bin_of(130.0), 6);
    }

    #[test]
    fn figure_ids_are_unique() {
        for (i, f) in FIGURES.iter().enumerate() {
            assert!(FIGURES[..i].iter().all(|g| g.id != f.id), "duplicate id {}", f.id);
        }
    }

    #[test]
    fn subset_filters() {
        let t = ilpc_workloads::table2();
        let doall = t.iter().filter(|m| Subset::Doall.includes(m)).count();
        let non = t.iter().filter(|m| Subset::NonDoall.includes(m)).count();
        assert_eq!(doall + non, 40);
        assert_eq!(doall, 18);
        assert!(t.iter().all(|m| Subset::All.includes(m)));
    }
}
