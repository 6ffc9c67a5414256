//! Differential harness for the DFA-construction pipeline: per-group alphabet pruning
//! (and the state α-normalisation that backs the transition memo) must be observationally
//! identical to the unpruned path — the same inclusion verdicts and the same DFA state
//! counts, with never more transitions. Configurations are generated with the same
//! deterministic xorshift stream the other differential harnesses use
//! (`tests/common/mod.rs`).

use hat_logic::{Formula, Solver, Sort, Term};
use hat_sfa::{InclusionChecker, OpSig, Sfa, VarCtx};

mod common;

use common::{random_case, XorShift};

fn ops() -> Vec<OpSig> {
    // The `probe` and `noop` operators are referenced by no automaton: their per-group
    // minterm families are exactly what pruning is expected to collapse.
    vec![
        OpSig::new("tick", vec![("x".into(), Sort::Int)], Sort::Unit),
        OpSig::new("probe", vec![], Sort::Bool),
        OpSig::new("noop", vec![], Sort::Unit),
    ]
}

#[test]
fn pruned_construction_is_verdict_and_state_count_identical() {
    let mut rng = XorShift(0xc0ffee123456789f);
    let mut pruned_something = false;
    for case in 0..24 {
        let (ctx, ops, a, b) = random_case(&mut rng, &ops());

        let mut unpruned_checker = InclusionChecker::new(ops.clone());
        unpruned_checker.prune = false;
        let mut unpruned_solver = Solver::default();
        let unpruned = unpruned_checker.check(&ctx, &a, &b, &mut unpruned_solver);

        let mut pruned_checker = InclusionChecker::new(ops);
        assert!(pruned_checker.prune, "pruning must be the default");
        let mut pruned_solver = Solver::default();
        let pruned = pruned_checker.check(&ctx, &a, &b, &mut pruned_solver);

        match (unpruned, pruned) {
            (Ok(vu), Ok(vp)) => assert_eq!(
                vu, vp,
                "case {case}: pruning changed the verdict of {a} ⊆ {b}"
            ),
            (Err(_), Err(_)) => continue,
            (u, p) => panic!("case {case}: one path errored: unpruned={u:?} pruned={p:?}"),
        }
        assert_eq!(
            unpruned_checker.stats.dfa_states, pruned_checker.stats.dfa_states,
            "case {case}: pruning changed the reachable state set of {a} ⊆ {b}"
        );
        assert!(
            pruned_checker.stats.dfa_transitions <= unpruned_checker.stats.dfa_transitions,
            "case {case}: pruning produced more transitions"
        );
        assert_eq!(
            unpruned_checker.stats.alphabet_pruned, 0,
            "the unpruned path must not drop symbols"
        );
        pruned_something |= pruned_checker.stats.alphabet_pruned > 0;
    }
    assert!(
        pruned_something,
        "no case exercised the pruner (unreferenced operators must collapse)"
    );
}

#[test]
fn unreferenced_operators_collapse_to_one_symbol_per_group() {
    // One referenced operator, three irrelevant ones: each group's alphabet must shed
    // the duplicate all-false columns of `probe`/`noop`/`spare`.
    let ev = Sfa::event(
        "tick",
        vec!["x".into()],
        "v",
        Formula::eq(Term::var("x"), Term::var("el")),
    );
    let a = Sfa::globally(Sfa::not(ev.clone()));
    let b = Sfa::globally(Sfa::implies(
        ev.clone(),
        Sfa::next(Sfa::not(Sfa::eventually(ev))),
    ));
    let ctx = VarCtx::new(vec![("el".into(), Sort::Int)], vec![]);
    let ops = vec![
        OpSig::new("tick", vec![("x".into(), Sort::Int)], Sort::Unit),
        OpSig::new("probe", vec![], Sort::Bool),
        OpSig::new("noop", vec![], Sort::Unit),
        OpSig::new("spare", vec![], Sort::Unit),
    ];
    let mut checker = InclusionChecker::new(ops);
    let mut solver = Solver::default();
    assert!(checker.check(&ctx, &a, &b, &mut solver).unwrap());
    // tick splits on x = el (2 minterms), the three irrelevant operators add one symbol
    // each; the three irrelevant symbols and tick's non-matching one all behave
    // identically, so at least 3 of the 5 columns must be pruned.
    assert!(
        checker.stats.alphabet_pruned >= 3,
        "expected ≥3 pruned symbols, got {}",
        checker.stats.alphabet_pruned
    );
}
