//! Differential harness for the inclusion-decision pipeline: the on-the-fly product walk
//! (the default) must produce exactly the verdicts of the materialising DFA-pair
//! baseline, while a failing check must exit early — visiting strictly fewer product
//! states than the materialised pair builds. Configurations are generated with the same
//! deterministic xorshift stream the other differential harnesses use
//! (`tests/common/mod.rs`).

use hat_logic::{Formula, Solver, Sort, Term};
use hat_sfa::{InclusionChecker, InclusionMode, OpSig, Sfa, VarCtx};

mod common;

use common::{random_case, XorShift};

fn ops() -> Vec<OpSig> {
    vec![
        OpSig::new("tick", vec![("x".into(), Sort::Int)], Sort::Unit),
        OpSig::new("probe", vec![], Sort::Bool),
        OpSig::new("noop", vec![], Sort::Unit),
    ]
}

#[test]
fn onthefly_and_materialised_inclusion_are_verdict_identical() {
    let mut rng = XorShift(0x1d872b41dbd8f3a7);
    let mut failed_somewhere = false;
    let mut passed_somewhere = false;
    for case in 0..24 {
        let (ctx, ops, a, b) = random_case(&mut rng, &ops());

        let mut materialised_checker = InclusionChecker::new(ops.clone());
        materialised_checker.mode = InclusionMode::Materialise;
        let mut materialised_solver = Solver::default();
        let materialised = materialised_checker.check(&ctx, &a, &b, &mut materialised_solver);

        let mut otf_checker = InclusionChecker::new(ops);
        assert_eq!(
            otf_checker.mode,
            InclusionMode::OnTheFly,
            "on-the-fly must be the default"
        );
        let mut otf_solver = Solver::default();
        let onthefly = otf_checker.check(&ctx, &a, &b, &mut otf_solver);

        match (materialised, onthefly) {
            (Ok(vm), Ok(vo)) => {
                assert_eq!(
                    vm, vo,
                    "case {case}: the product walk changed the verdict of {a} ⊆ {b}"
                );
                failed_somewhere |= !vm;
                passed_somewhere |= vm;
            }
            (Err(_), Err(_)) => continue,
            // The one permitted asymmetry: an early counterexample lets the walk decide
            // an instance whose materialised pipeline exceeds the DFA state bound. The
            // verdict must then be a refutation — a passing walk explores the whole
            // product and would have hit the same bound.
            (Err(_), Ok(vo)) => {
                assert!(
                    !vo,
                    "case {case}: the walk passed an instance the materialised pipeline \
                     could not complete — it must have explored the full product"
                );
                failed_somewhere = true;
                // The aborted pipeline's work counters are partial; skip the
                // construction-work comparison below.
                continue;
            }
            (m, o) => {
                panic!("case {case}: impossible asymmetry: materialised={m:?} onthefly={o:?}")
            }
        }
        // The lazy walk derives rows only for frontier-reached residual states, so it
        // can never do more construction work than the two complete builds.
        assert!(
            otf_checker.stats.dfa_states <= materialised_checker.stats.dfa_states,
            "case {case}: the walk discovered more states than the complete builds"
        );
        assert!(
            otf_checker.stats.dfa_transitions <= materialised_checker.stats.dfa_transitions,
            "case {case}: the walk derived more transitions than the complete builds"
        );
        assert_eq!(
            materialised_checker.stats.product_states, 0,
            "the materialised path must not report product states"
        );
    }
    assert!(
        failed_somewhere && passed_somewhere,
        "the random stream must exercise both verdicts"
    );
}

#[test]
fn failing_check_visits_strictly_fewer_product_states_than_the_dfa_pair() {
    // at_most_once ⊄ never: the first insert of el is already a counterexample, so the
    // walk must stop after a handful of product states while the materialised pipeline
    // builds both complete DFAs.
    let ins_el = Sfa::event(
        "insert",
        vec!["x".into()],
        "v",
        Formula::eq(Term::var("x"), Term::var("el")),
    );
    let never = Sfa::globally(Sfa::not(ins_el.clone()));
    let at_most_once = Sfa::globally(Sfa::implies(
        ins_el.clone(),
        Sfa::next(Sfa::not(Sfa::eventually(ins_el))),
    ));
    let ops = vec![
        OpSig::new("insert", vec![("x".into(), Sort::Int)], Sort::Unit),
        OpSig::new("mem", vec![("x".into(), Sort::Int)], Sort::Bool),
    ];
    let ctx = VarCtx::new(vec![("el".into(), Sort::Int)], vec![]);

    let mut materialised = InclusionChecker::new(ops.clone());
    materialised.mode = InclusionMode::Materialise;
    let mut solver = Solver::default();
    assert!(!materialised
        .check(&ctx, &at_most_once, &never, &mut solver)
        .unwrap());

    let mut onthefly = InclusionChecker::new(ops);
    let mut otf_solver = Solver::default();
    assert!(!onthefly
        .check(&ctx, &at_most_once, &never, &mut otf_solver)
        .unwrap());

    assert!(onthefly.stats.product_states > 0, "the walk must have run");
    assert!(
        onthefly.stats.product_states < materialised.stats.dfa_states,
        "early exit must visit fewer product states ({}) than the materialised DFA pair \
         builds ({})",
        onthefly.stats.product_states,
        materialised.stats.dfa_states
    );
    assert!(
        onthefly.stats.dfa_transitions < materialised.stats.dfa_transitions,
        "early exit must derive fewer transitions ({}) than the complete builds ({})",
        onthefly.stats.dfa_transitions,
        materialised.stats.dfa_transitions
    );
}
