//! Adversarial mapping from the firewall's injectable fault classes to
//! the static analyzer: every structural fault class is either caught
//! *statically* by `ilpc-lint` (module lints or pass-delta rules, no
//! execution) for at least one injection site, or is explicitly declared
//! dynamic-only below — and the declaration is enforced in both
//! directions, so the mapping can never silently rot.
//!
//! Also pins the healthy-pipeline contract the 720-point grid audit
//! relies on: compiled artifacts at every level are free of
//! error-severity lints, their schedules audit clean, and every
//! trip-preserving pass-delta over the healthy pipeline is accepted.

use ilp_compiler::guard::inject::{inject, FaultKind};
use ilp_compiler::ir::Module;
use ilp_compiler::lint::{check_step, has_errors, TRIP_PRESERVING};
use ilp_compiler::prelude::*;
use ilpc_testkit::TestRng;

/// Fault classes no static rule can see: they corrupt values and
/// metadata, not structure. `ExtDisp` skews a memory displacement (the
/// address is wrong but perfectly well-formed — only the differential
/// spot-check can tell), and `ProbMeta` perturbs branch-probability
/// metadata (performance-only; by design not a legality property).
const DYNAMIC_ONLY: &[FaultKind] = &[FaultKind::ExtDisp, FaultKind::ProbMeta];

/// "Caught statically": the module lints report an error, or some
/// trip-preserving pass-delta rule rejects the before → after pair.
fn statically_caught(before: &Module, after: &Module) -> bool {
    if has_errors(&lint_module(after)) {
        return true;
    }
    TRIP_PRESERVING.iter().any(|p| !check_step(before, after, p).is_empty())
}

fn compiled_dotprod() -> Module {
    let meta = table2().into_iter().find(|m| m.name == "dotprod").unwrap();
    let w = build(&meta, 0.05);
    compile(&w, Level::Lev2, &Machine::issue(8)).module
}

/// A vectorized artifact — `VecLane` faults need vector instructions to
/// strike; every scalar fault class still has sites here too.
fn compiled_dotprod_vectorized() -> Module {
    let meta = table2().into_iter().find(|m| m.name == "dotprod").unwrap();
    let w = build(&meta, 0.05);
    compile(&w, Level::Lev6, &Machine::issue(8).with_vlen(4)).module
}

#[test]
fn every_fault_class_is_statically_caught_or_declared_dynamic() {
    let scalar = compiled_dotprod();
    let vector = compiled_dotprod_vectorized();
    assert!(!has_errors(&lint_module(&scalar)), "the scalar baseline must be lint-clean");
    assert!(!has_errors(&lint_module(&vector)), "the vector baseline must be lint-clean");

    for kind in FaultKind::ALL {
        let clean = if kind == FaultKind::VecLane { &vector } else { &scalar };
        let mut injected = 0usize;
        let mut caught = 0usize;
        for seed in 0..32u64 {
            let mut m = clean.clone();
            if inject(&mut m, kind, &mut TestRng::seed_from_u64(seed)).is_none() {
                continue;
            }
            injected += 1;
            if statically_caught(clean, &m) {
                caught += 1;
            }
        }
        assert!(injected > 0, "{kind}: no injection site in the test module");
        if DYNAMIC_ONLY.contains(&kind) {
            assert_eq!(
                caught, 0,
                "{kind} is declared dynamic-only, but a static lint caught it — \
                 move it out of DYNAMIC_ONLY"
            );
        } else {
            assert!(
                caught > 0,
                "{kind}: {injected} injections, none caught statically — \
                 either add a lint or declare the class dynamic-only"
            );
        }
    }
}

/// The healthy pipeline is statically legal end to end: module lints
/// carry no errors, retained schedules audit clean against the machine
/// model, and no trip-preserving delta rule rejects a healthy step.
#[test]
fn healthy_artifacts_are_lint_clean_across_levels() {
    for name in ["dotprod", "maxval", "merge", "SDS-4"] {
        let meta = table2().into_iter().find(|m| m.name == name).unwrap();
        let w = build(&meta, 0.04);
        for level in Level::ALL {
            for machine in [Machine::issue(1), Machine::issue(8), Machine::issue(8).with_vlen(4)] {
                let c = compile(&w, level, &machine);
                let diags = lint_module(&c.module);
                assert!(
                    !has_errors(&diags),
                    "{name}/{level}/{}: {diags:?}", machine.name()
                );
                let audit = audit_schedules(&c.module, &c.schedules, &machine);
                assert!(audit.is_empty(), "{name}/{level}/{}: {audit:?}", machine.name());
            }
        }
    }
}

/// An identity delta over a fully-compiled artifact passes every rule for
/// every registered pass name — the delta rules never reject "nothing
/// happened", at any pipeline position.
#[test]
fn identity_deltas_are_accepted_for_all_passes() {
    let m = compiled_dotprod();
    let names = ilp_compiler::core_transforms::level::passes(Level::Lev6)
        .map(|p| p.name)
        .chain(["superblock-formation", "list-schedule"]);
    for pass in names {
        let diags = check_step(&m, &m, pass);
        assert!(diags.is_empty(), "{pass}: {diags:?}");
    }
}
