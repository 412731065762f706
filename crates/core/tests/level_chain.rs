//! The level chain against fresh per-level compiles: for every workload,
//! the module and report `walk_levels` hands out at each level boundary
//! must equal `apply_level` run from freshly lowered IR to that level, and
//! that must equal the level's pass plan (`passes`) driven by hand.
//! The staged paper grid builds every level from one chain walk, so this
//! is the front-end half of its bit-identity with per-point compilation.

use ilpc_core::level::{apply_level, passes, walk_levels, Level, TransformReport};
use ilpc_core::unroll::UnrollConfig;
use ilpc_ir::lower::lower;
use ilpc_ir::text::serialize;
use ilpc_workloads::{build_all, Workload};

/// `(level, serialized module, report)` at each boundary of one walk.
fn walk(
    w: &Workload,
    levels: &[Level],
    ucfg: &UnrollConfig,
) -> Vec<(Level, String, TransformReport)> {
    let mut m = lower(&w.program).module;
    let mut seen = Vec::new();
    let last = walk_levels(&mut m, levels, ucfg, |level, m, rep| {
        seen.push((level, serialize(m), rep.clone()));
    });
    // The returned report is the highest level's.
    assert_eq!(
        Some(&last),
        seen.last().map(|(_, _, r)| r),
        "{}",
        w.meta.name
    );
    seen
}

/// `apply_level` from fresh IR, checked against the pass plan of `level`
/// driven by hand (`apply_level` is itself a one-level walk).
fn fresh(w: &Workload, level: Level, ucfg: &UnrollConfig) -> (String, TransformReport) {
    let mut m = lower(&w.program).module;
    let rep = apply_level(&mut m, level, ucfg);
    let mut by_hand = lower(&w.program).module;
    let mut rep_by_hand = TransformReport::default();
    for pass in passes(level) {
        pass.execute(&mut by_hand, ucfg, &mut rep_by_hand);
    }
    let text = serialize(&m);
    assert_eq!(
        rep, rep_by_hand,
        "{} {level}: apply_level report",
        w.meta.name
    );
    assert!(
        text == serialize(&by_hand),
        "{} {level}: apply_level module",
        w.meta.name
    );
    (text, rep)
}

fn assert_chain_matches_fresh(levels: &[Level], expect: &[Level]) {
    let workloads = build_all(0.05);
    assert_eq!(workloads.len(), 40);
    for vlen in [1, 4] {
        let ucfg = UnrollConfig {
            vlen,
            ..Default::default()
        };
        for w in &workloads {
            let seen = walk(w, levels, &ucfg);
            let order: Vec<Level> = seen.iter().map(|(l, _, _)| *l).collect();
            assert_eq!(order, expect, "{} vlen {vlen}: boundary order", w.meta.name);
            for (level, text, rep) in &seen {
                let (want_text, want_rep) = fresh(w, *level, &ucfg);
                let tag = format!("{} {level} vlen {vlen}", w.meta.name);
                assert_eq!(rep, &want_rep, "{tag}: transform report");
                assert!(
                    *text == want_text,
                    "{tag}: module differs from a fresh apply_level"
                );
            }
        }
    }
}

#[test]
fn every_level_snapshot_equals_a_fresh_compile() {
    assert_chain_matches_fresh(&Level::ALL, &Level::ALL);
}

#[test]
fn non_contiguous_unsorted_levels_walk_in_level_order() {
    assert_chain_matches_fresh(
        &[Level::Lev6, Level::Conv, Level::Lev2, Level::Conv],
        &[Level::Conv, Level::Lev2, Level::Lev6],
    );
}

#[test]
fn empty_level_list_runs_nothing() {
    let w = &build_all(0.05)[0];
    let mut m = lower(&w.program).module;
    let before = serialize(&m);
    let rep = walk_levels(&mut m, &[], &UnrollConfig::default(), |_, _, _| {
        panic!("no boundary to visit")
    });
    assert_eq!(rep, TransformReport::default());
    assert_eq!(serialize(&m), before);
}
