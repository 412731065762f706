//! Integration tests for the transformation firewall (`ilpc-guard`).
//!
//! Three system-level guarantees:
//!
//! 1. **Zero overhead on healthy input**: a guarded compile of unfaulted
//!    IR is byte-identical to the bare pipeline — the firewall changes
//!    nothing unless something is wrong.
//! 2. **Grid isolation**: one deliberately-faulted point in the full
//!    720-point evaluation grid degrades to a typed error while the other
//!    719 points complete.
//! 3. **No silent escapes**: a deterministic seeded fault campaign never
//!    produces wrong architectural results without a flag.

use ilp_compiler::guard::GuardConfig;
use ilp_compiler::harness::campaign::{run_campaign, CampaignConfig};
use ilp_compiler::harness::compile::{compile, compile_guarded};
use ilp_compiler::harness::grid::{
    run_grid, GridConfig, PointError, Sabotage, SabotageMode,
};
use ilp_compiler::ir::text::serialize;
use ilp_compiler::prelude::*;

/// Guarding an unfaulted compilation is invisible: same module bytes,
/// same transformation counts, clean report — across workloads, levels
/// and widths.
#[test]
fn guarded_compile_is_byte_identical_on_healthy_input() {
    for name in ["add", "dotprod", "maxval", "merge", "SDS-4"] {
        let meta = table2().into_iter().find(|m| m.name == name).unwrap();
        let w = build(&meta, 0.04);
        for level in Level::ALL {
            for width in [1u32, 8] {
                let machine = Machine::issue(width);
                let plain = compile(&w, level, &machine);
                let guarded =
                    compile_guarded(&w, level, &machine, GuardConfig::default(), None);
                assert!(
                    guarded.guard.clean(),
                    "{name} {level} issue-{width}: {:#?}",
                    guarded.guard.incidents
                );
                assert_eq!(guarded.guard.achieved, Some(level), "{name} {level}");
                assert_eq!(
                    serialize(&guarded.compiled.module),
                    serialize(&plain.module),
                    "{name} {level} issue-{width}: guarded module diverged"
                );
                assert_eq!(guarded.compiled.report, plain.report, "{name} {level}");
                assert_eq!(
                    guarded.compiled.static_insts, plain.static_insts,
                    "{name} {level}"
                );
            }
        }
    }
}

/// The full 40 × 6 × 3 = 720-point grid with one sabotaged point: the
/// fault becomes a typed error and the remaining 719 points complete.
#[test]
fn full_grid_survives_a_faulted_point() {
    let levels = Level::ALL.to_vec();
    let widths = vec![1u32, 4, 8];
    let cfg = GridConfig {
        scale: 0.02,
        levels: levels.clone(),
        widths: widths.clone(),
        sabotage: Some(Sabotage {
            workload: "dotprod".to_string(),
            level: Level::Lev3,
            width: 4,
            mode: SabotageMode::Panic,
        }),
        ..GridConfig::default()
    };
    let grid = run_grid(&cfg).expect("grid config rejected");
    assert_eq!(grid.meta.len(), 40);

    // Exactly one typed failure, at the sabotaged coordinates.
    assert_eq!(grid.errors.len(), 1, "{:#?}", grid.errors);
    let err = &grid.errors[0];
    assert_eq!(err.workload, "dotprod");
    assert_eq!((err.level, err.width), (Level::Lev3, 4));
    assert!(
        matches!(&err.error, PointError::Panic(msg) if msg.contains("sabotaged")),
        "{err}"
    );

    // The other 719 points all completed.
    let mut present = 0;
    for m in &grid.meta {
        for &level in &levels {
            for &width in &widths {
                present += grid.point(m.name, level, width).is_some() as usize;
            }
        }
    }
    assert_eq!(present, 40 * levels.len() * widths.len() - 1);
    assert!(grid.point("dotprod", Level::Lev3, 4).is_none());

    // Aggregations see the hole instead of passing for complete: the
    // sabotaged point punches a visible 39/40 coverage hole in the
    // all-loops mean at exactly (Lev3, issue-4).
    let names: Vec<&str> = grid.meta.iter().map(|m| m.name).collect();
    let agg = grid.mean_speedup(names.iter().copied(), Level::Lev3, 4);
    assert_eq!(agg.requested(), names.len());
    assert_eq!(agg.covered(), names.len() - 1);
    assert!(!agg.is_complete());
    assert_eq!(agg.complete(), None);
    assert!(agg.partial().unwrap() > 1.0);
    // Any other coordinate is untouched and aggregates completely — as
    // does the DOALL subset, which the Serial dotprod never belonged to.
    assert!(grid.mean_speedup(names.iter().copied(), Level::Lev3, 8).is_complete());
    let doall: Vec<&str> =
        grid.meta.iter().filter(|m| m.ltype.is_doall()).map(|m| m.name).collect();
    assert!(grid.mean_speedup(doall.iter().copied(), Level::Lev3, 4).is_complete());
}

/// A seeded campaign across all fault classes: deterministic and free of
/// silent escapes. (The `fault-campaign` binary runs the full ≥500-fault
/// version; this keeps debug-build test time bounded.)
#[test]
fn fault_campaign_never_escapes_silently() {
    let cfg = CampaignConfig { faults: 96, seed: 0xDEC0DE, ..CampaignConfig::default() };
    let report = run_campaign(&cfg);
    assert_eq!(report.records.len(), 96);
    assert_eq!(report.silent_escapes(), 0, "\n{}", report.render());

    // Determinism: identical reruns, fault for fault.
    let again = run_campaign(&cfg);
    assert_eq!(report.render(), again.render());
    for (a, b) in report.records.iter().zip(&again.records) {
        assert_eq!(
            (a.workload, a.kind, a.step, &a.fault, a.outcome),
            (b.workload, b.kind, b.step, &b.fault, b.outcome)
        );
    }

    // Breadth: every fault class was exercised.
    for kind in ilp_compiler::guard::inject::FaultKind::ALL {
        assert!(
            report.records.iter().any(|r| r.kind == kind.name()),
            "fault class {kind} never drawn — seed/count too small"
        );
    }
    assert!(report.records.iter().any(|r| r.kind == "latency"));
}
