//! Differential verdict-equivalence harness: naive vs. incremental minterm enumeration.
//!
//! The incremental enumeration (`EnumerationMode::Incremental`) must be observationally
//! identical to the paper-faithful naive walk: the same minterm sets (bit for bit,
//! including order), the same inclusion verdicts, and never more solver work. This
//! harness generates a deterministic stream of random configurations — contexts, facts,
//! operator signatures and automata — with the same xorshift generator the suite's
//! end-to-end tests use, and checks all three properties on every case.

use hat_logic::{Formula, Solver, Sort, Term};
use hat_sfa::minterm::{build_minterms_with, EnumerationMode, MintermSet};
use hat_sfa::{InclusionChecker, OpSig, Sfa, SolverOracle, VarCtx};

mod common;

use common::{random_case, XorShift};

fn ops() -> Vec<OpSig> {
    vec![
        OpSig::new("tick", vec![("x".into(), Sort::Int)], Sort::Unit),
        OpSig::new("probe", vec![], Sort::Bool),
    ]
}

/// Naive work = standalone queries; incremental work = standalone queries (fallbacks,
/// transition resolution, …) plus scoped-session checks.
fn total_work(solver: &Solver, set: &MintermSet) -> usize {
    solver.stats.queries + set.enum_queries
}

#[test]
fn minterm_sets_are_bit_identical_across_modes() {
    let mut rng = XorShift(0x2545f4914f6cdd1d);
    for case in 0..32 {
        let (ctx, ops, a, b) = random_case(&mut rng, &ops());
        let mut naive_solver = Solver::default();
        let naive = build_minterms_with(
            &ctx,
            &ops,
            &[&a, &b],
            &mut naive_solver,
            EnumerationMode::Naive,
        );
        let mut inc_solver = Solver::default();
        let incremental = build_minterms_with(
            &ctx,
            &ops,
            &[&a, &b],
            &mut inc_solver,
            EnumerationMode::Incremental,
        );
        assert_eq!(
            naive.minterms, incremental.minterms,
            "case {case}: minterm sets diverged for automata {a} vs {b} (ctx facts {:?})",
            ctx.facts
        );
        assert_eq!(
            naive.uniform_literals, incremental.uniform_literals,
            "case {case}: uniform literal pools diverged"
        );
        assert!(
            total_work(&inc_solver, &incremental) <= total_work(&naive_solver, &naive),
            "case {case}: incremental issued more solver work ({} + {} checks) than naive ({} queries)",
            inc_solver.stats.queries,
            incremental.enum_queries,
            naive_solver.stats.queries,
        );
    }
}

#[test]
fn inclusion_verdicts_are_identical_across_modes() {
    let mut rng = XorShift(0x9e3779b97f4a7c15);
    for case in 0..16 {
        let (ctx, ops, a, b) = random_case(&mut rng, &ops());
        let mut naive_checker = InclusionChecker::new(ops.clone());
        naive_checker.enumeration = EnumerationMode::Naive;
        let mut naive_solver = Solver::default();
        let naive = naive_checker.check(&ctx, &a, &b, &mut naive_solver);

        let mut inc_checker = InclusionChecker::new(ops);
        inc_checker.enumeration = EnumerationMode::Incremental;
        let mut inc_solver = Solver::default();
        let incremental = inc_checker.check(&ctx, &a, &b, &mut inc_solver);

        match (naive, incremental) {
            (Ok(vn), Ok(vi)) => assert_eq!(
                vn, vi,
                "case {case}: inclusion verdict diverged for {a} ⊆ {b}"
            ),
            (Err(_), Err(_)) => {}
            (n, i) => panic!("case {case}: one mode errored: naive={n:?} incremental={i:?}"),
        }
        assert_eq!(
            naive_checker.stats.minterms, inc_checker.stats.minterms,
            "case {case}: modes built different alphabets"
        );
        let naive_work = naive_solver.stats.queries;
        let inc_work = inc_solver.stats.queries + inc_checker.stats.enum_queries;
        assert!(
            inc_work <= naive_work,
            "case {case}: incremental work {inc_work} exceeds naive {naive_work}"
        );
    }
}

/// A solver keeps the theory conflict cores it finds as lemmas for its lifetime. One
/// solver reused across every case, and so carrying lemmas from earlier cases, must
/// build the minterm sets and reach the inclusion verdicts of a fresh, lemma-free
/// solver per case, in both enumeration modes, while making fewer theory checks.
#[test]
fn a_solver_carrying_lemmas_matches_fresh_solvers() {
    for mode in [EnumerationMode::Naive, EnumerationMode::Incremental] {
        let mut rng = XorShift(0x6a09e667f3bcc909);
        let mut carrying = Solver::default();
        let mut fresh_theory_checks = 0;
        for case in 0..24 {
            let (ctx, ops, a, b) = random_case(&mut rng, &ops());
            let mut fresh = Solver::default();
            let expected = build_minterms_with(&ctx, &ops, &[&a, &b], &mut fresh, mode);
            let got = build_minterms_with(&ctx, &ops, &[&a, &b], &mut carrying, mode);
            assert_eq!(
                got.minterms, expected.minterms,
                "{mode:?} case {case}: minterm sets diverged for {a} vs {b}"
            );
            assert_eq!(got.uniform_literals, expected.uniform_literals);

            let verdict = |solver: &mut Solver| {
                let mut checker = InclusionChecker::new(ops.clone());
                checker.enumeration = mode;
                checker.check(&ctx, &a, &b, solver).ok()
            };
            let mut fresh_for_verdict = Solver::default();
            assert_eq!(
                verdict(&mut carrying),
                verdict(&mut fresh_for_verdict),
                "{mode:?} case {case}: inclusion verdict diverged for {a} ⊆ {b}"
            );
            fresh_theory_checks +=
                fresh.stats.theory_checks + fresh_for_verdict.stats.theory_checks;
        }
        assert!(
            carrying.stats.theory_checks < fresh_theory_checks,
            "{mode:?}: lemmas saved no theory check ({} vs {fresh_theory_checks})",
            carrying.stats.theory_checks
        );
    }
}

#[test]
fn incremental_reduces_queries_on_a_pruning_heavy_space() {
    // Three events over the same operator argument with pairwise-distinct context terms:
    // most of the 2^n candidate space is unsatisfiable, which is where the incremental
    // search pays off — and the reduction must be at least 3x.
    let mk_event = |rhs: Term| {
        Sfa::event(
            "put",
            vec!["key".into()],
            "v",
            Formula::eq(Term::var("key"), rhs),
        )
    };
    let a = Sfa::and(vec![
        mk_event(Term::var("p")),
        mk_event(Term::var("q")),
        mk_event(Term::var("r")),
        mk_event(Term::int(7)),
    ]);
    let b = Sfa::globally(Sfa::or(vec![
        mk_event(Term::var("p")),
        Sfa::guard(Formula::lt(Term::var("p"), Term::var("q"))),
    ]));
    let ctx = VarCtx::new(
        vec![
            ("p".into(), Sort::Int),
            ("q".into(), Sort::Int),
            ("r".into(), Sort::Int),
        ],
        vec![
            Formula::lt(Term::var("p"), Term::var("q")),
            Formula::lt(Term::var("q"), Term::var("r")),
        ],
    );
    let ops = vec![OpSig::new(
        "put",
        vec![("key".into(), Sort::Int)],
        Sort::Unit,
    )];

    let mut naive_solver = Solver::default();
    let naive = build_minterms_with(
        &ctx,
        &ops,
        &[&a, &b],
        &mut naive_solver,
        EnumerationMode::Naive,
    );
    let mut inc_solver = Solver::default();
    let incremental = build_minterms_with(
        &ctx,
        &ops,
        &[&a, &b],
        &mut inc_solver,
        EnumerationMode::Incremental,
    );
    assert_eq!(naive.minterms, incremental.minterms);
    let naive_work = naive_solver.stats.queries;
    let inc_work = inc_solver.stats.queries + incremental.enum_queries;
    assert!(
        inc_work * 3 <= naive_work,
        "expected a >=3x query reduction, got naive={naive_work} incremental={inc_work}"
    );
}

#[test]
fn oracle_without_scoped_sessions_falls_back_to_naive() {
    /// An oracle that forwards to a solver but refuses scoped sessions.
    struct NoScope(Solver);
    impl SolverOracle for NoScope {
        fn is_sat(&mut self, vars: &[(String, Sort)], facts: &[Formula]) -> bool {
            self.0.is_sat(vars, facts)
        }
        fn entails(&mut self, vars: &[(String, Sort)], facts: &[Formula], goal: &Formula) -> bool {
            SolverOracle::entails(&mut self.0, vars, facts, goal)
        }
        fn query_count(&self) -> usize {
            self.0.query_count()
        }
        fn query_time(&self) -> std::time::Duration {
            self.0.query_time()
        }
    }

    let mut rng = XorShift(0xdeadbeefcafef00d);
    let (ctx, ops, a, b) = random_case(&mut rng, &ops());
    let mut plain = Solver::default();
    let naive = build_minterms_with(&ctx, &ops, &[&a, &b], &mut plain, EnumerationMode::Naive);
    let mut fallback = NoScope(Solver::default());
    let incremental = build_minterms_with(
        &ctx,
        &ops,
        &[&a, &b],
        &mut fallback,
        EnumerationMode::Incremental,
    );
    assert_eq!(naive.minterms, incremental.minterms);
    assert_eq!(
        incremental.enum_queries, 0,
        "fallback must not report scoped checks"
    );
    assert_eq!(fallback.query_count(), plain.query_count());
}
