//! Differential harness for the residual arena (`hat_sfa::residual`): every interned
//! derivative must materialise to exactly the tree reference
//! `derivative(state, m).alpha_normal()`, intern back to the id it was derived as, and
//! carry the reference's nullability. The walks covered are every per-group product
//! walk of `dfa_differential.rs`'s xorshift configurations (pruned and unpruned
//! alphabets), of the richer random grammar of `tests/common/mod.rs` that makes every
//! smart-constructor rule fire, and of the suite's inclusion obligations; each
//! automaton is closed under derivation over its group alphabet, uncapped: the
//! absorption rules of `Sfa::and`/`Sfa::or` keep every closure finite.

use hat_logic::{Atom, Formula, Ident, ScopedSession, Solver, Sort};
use hat_sfa::dfa::{derivative, nullable, TransitionOracle};
use hat_sfa::minterm::{arg_name, res_name};
use hat_sfa::residual::Residuals;
use hat_sfa::{
    InclusionChecker, MemoAnswer, MemoKind, MemoQuery, Minterm, OpSig, Sfa, SolverOracle,
    SymbolicEvent, VarCtx,
};
use std::cell::RefCell;
use std::collections::{BTreeSet, VecDeque};
use std::rc::Rc;
use std::time::Duration;

mod common;

use common::{random_case, rich_sfa, XorShift, CTX_VARS};

/// One per-group product walk: the two automata and the group alphabet.
type Walk = (Sfa, Sfa, Vec<Minterm>);

/// A solver that records every per-group walk the inclusion checker asks the shape memo
/// about, and memoises nothing.
struct Recorder {
    solver: Solver,
    walks: Rc<RefCell<BTreeSet<Walk>>>,
}

impl SolverOracle for Recorder {
    fn is_sat(&mut self, vars: &[(Ident, Sort)], facts: &[Formula]) -> bool {
        SolverOracle::is_sat(&mut self.solver, vars, facts)
    }

    fn entails(&mut self, vars: &[(Ident, Sort)], facts: &[Formula], goal: &Formula) -> bool {
        SolverOracle::entails(&mut self.solver, vars, facts, goal)
    }

    fn query_count(&self) -> usize {
        self.solver.query_count()
    }

    fn query_time(&self) -> Duration {
        self.solver.query_time()
    }

    fn scoped_session<'a>(
        &'a mut self,
        vars: &[(Ident, Sort)],
        base: &[Formula],
        literals: &[Atom],
    ) -> Option<ScopedSession<'a>> {
        self.solver.scoped_session(vars, base, literals)
    }

    fn memoises(&self, kind: MemoKind) -> bool {
        kind == MemoKind::Shape
    }

    fn memo_lookup(&mut self, query: &MemoQuery) -> Option<MemoAnswer<'static>> {
        if let MemoQuery::Shape { a, b, alphabet, .. } = query {
            self.walks
                .borrow_mut()
                .insert(((*a).clone(), (*b).clone(), alphabet.to_vec()));
        }
        None
    }
}

/// Resolves leaves by evaluating their qualifier under the minterm's assignment, as the
/// inclusion checker does; an atom the minterm leaves open reads as false. Arena and
/// reference ask the same oracle, which is all the differential needs.
struct Propositional;

fn holds(f: &Formula, assignment: &[(Atom, bool)]) -> bool {
    match f {
        Formula::True => true,
        Formula::False => false,
        Formula::Atom(a) => assignment.iter().any(|(x, v)| x == a && *v),
        Formula::Not(g) => !holds(g, assignment),
        Formula::And(fs) => fs.iter().all(|g| holds(g, assignment)),
        Formula::Or(fs) => fs.iter().any(|g| holds(g, assignment)),
        Formula::Implies(p, q) => !holds(p, assignment) || holds(q, assignment),
        Formula::Iff(p, q) => holds(p, assignment) == holds(q, assignment),
        Formula::Forall(..) => false,
    }
}

impl TransitionOracle for Propositional {
    fn event_matches(&mut self, e: &SymbolicEvent, m: &Minterm) -> bool {
        let renamed = e.phi.rename_free_vars(&|v: &str| {
            if v == e.result {
                Some(res_name())
            } else {
                e.args.iter().position(|x| x == v).map(arg_name)
            }
        });
        holds(&renamed, &m.assignment)
    }

    fn guard_holds(&mut self, phi: &Formula, m: &Minterm) -> bool {
        holds(phi, &m.assignment)
    }
}

/// Closes `start` under derivation over `alphabet` in one arena, checking every state
/// and derivative against the tree reference. Returns the number of states.
fn check_closure(start: &Sfa, alphabet: &[Minterm]) -> usize {
    let mut oracle = Propositional;
    let mut arena = Residuals::new(alphabet);
    let first = arena.intern(start);
    assert_eq!(
        arena.to_sfa(first),
        start.alpha_normal(),
        "interning {start}"
    );
    assert_eq!(
        arena.intern(&start.alpha_normal()),
        first,
        "re-interning {start}"
    );
    let mut seen = BTreeSet::from([first]);
    let mut queue = VecDeque::from([first]);
    while let Some(id) = queue.pop_front() {
        let state = arena.to_sfa(id);
        assert_eq!(
            arena.nullable(id),
            nullable(&state),
            "nullability of {state}"
        );
        for (symbol, m) in alphabet.iter().enumerate() {
            let d = arena.derive(id, symbol, &mut oracle);
            let reference = derivative(&state, m, &mut oracle).alpha_normal();
            assert_eq!(arena.to_sfa(d), reference, "derivative of {state} by {m:?}");
            assert_eq!(
                arena.intern(&reference),
                d,
                "{reference} interned apart from the derivative it equals"
            );
            if seen.insert(d) {
                queue.push_back(d);
            }
        }
    }
    seen.len()
}

/// Checks both automata of every recorded walk; returns the states covered.
fn check_walks(walks: &BTreeSet<Walk>) -> usize {
    walks
        .iter()
        .map(|(a, b, alphabet)| check_closure(a, alphabet) + check_closure(b, alphabet))
        .sum()
}

fn ops() -> Vec<OpSig> {
    vec![
        OpSig::new("tick", vec![("x".into(), Sort::Int)], Sort::Unit),
        OpSig::new("probe", vec![], Sort::Bool),
        OpSig::new("noop", vec![], Sort::Unit),
    ]
}

#[test]
fn random_configurations_derive_exactly_the_tree_reference() {
    let walks = Rc::new(RefCell::new(BTreeSet::new()));
    let mut rng = XorShift(0xc0ffee123456789f);
    for _ in 0..24 {
        let (ctx, ops, a, b) = random_case(&mut rng, &ops());
        for prune in [true, false] {
            let mut checker = InclusionChecker::new(ops.clone());
            checker.prune = prune;
            let mut recorder = Recorder {
                solver: Solver::default(),
                walks: Rc::clone(&walks),
            };
            let _ = checker.check(&ctx, &a, &b, &mut recorder);
        }
    }
    let walks = walks.borrow();
    assert!(walks.len() >= 24, "only {} walks recorded", walks.len());
    let states = check_walks(&walks);
    assert!(
        states > walks.len() * 2,
        "closures stayed trivial ({states})"
    );
}

/// The rich grammar reaches untils over universe-headed concatenations, whose
/// residuals nest one level deeper per step unless the smart constructors absorb the
/// repeated disjuncts; uncapped, this test overflows or runs away without those rules.
#[test]
fn rich_configurations_derive_exactly_the_tree_reference() {
    let walks = Rc::new(RefCell::new(BTreeSet::new()));
    let vars = CTX_VARS
        .iter()
        .map(|v| (v.to_string(), Sort::Int))
        .collect();
    let ctx = VarCtx::new(vars, vec![]);
    let mut rng = XorShift(0x5eed_da7a_0b5e_55ed);
    for _ in 0..48 {
        let (a, b) = (rich_sfa(&mut rng, 3), rich_sfa(&mut rng, 3));
        let mut recorder = Recorder {
            solver: Solver::default(),
            walks: Rc::clone(&walks),
        };
        let _ = InclusionChecker::new(ops()).check(&ctx, &a, &b, &mut recorder);
    }
    let walks = walks.borrow();
    assert!(walks.len() >= 24, "only {} walks recorded", walks.len());
    check_walks(&walks);
}

#[test]
fn suite_obligations_derive_exactly_the_tree_reference() {
    let walks = Rc::new(RefCell::new(BTreeSet::new()));
    for bench in hat_suite::all_benchmarks() {
        let recorder = Recorder {
            solver: Solver::with_axioms(bench.delta.axioms.clone()),
            walks: Rc::clone(&walks),
        };
        let mut checker = hat_core::Checker::with_oracle(bench.delta.clone(), Box::new(recorder));
        for m in &bench.methods {
            let _ = checker.check_method(&m.sig, &m.body);
        }
    }
    let walks = walks.borrow();
    assert!(walks.len() > 100, "only {} walks recorded", walks.len());
    check_walks(&walks);
}
