//! Deterministic finite automata over a minterm alphabet, built with Brzozowski-style
//! derivatives of symbolic-automaton formulas (the "alphabet transformation" of paper
//! Algorithm 2 followed by classical automaton construction).
//!
//! Two consumers drive this module:
//!
//! * [`Dfa::build`] materialises the *complete* DFA of one automaton — every state
//!   reachable from the start formula, with a full transition row per state. This is the
//!   paper-faithful pipeline (build both DFAs, then BFS their product).
//! * [`product_included`] decides `L(A) ⊆ L(B)` *on the fly*: it walks the product
//!   `A × complement(B)` pair by pair, deriving transition rows only for residual states
//!   the product frontier actually reaches, and stops at the first accepting product
//!   state (a counterexample). Neither DFA is ever materialised.
//!
//! Both derive in a hash-consed arena of residual states ([`crate::residual`]), one per
//! walk or build: a state is a `u32` id, a successor is derived once per (node, symbol),
//! and nothing outlives the walk. The smart constructors close residual sets under
//! Boolean absorption ([`Sfa::or`]), so a state is never materialised as a tree: the
//! walk compares ids only. The tree [`derivative`] is the reference the arena is tested
//! against.

use crate::ast::{Sfa, SymbolicEvent};
use crate::minterm::Minterm;
use crate::residual::{Residuals, StateId};
use hat_logic::Formula;
use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;

/// Decides whether a minterm (an equivalence class of concrete events) is covered by a
/// symbolic event or guard. Implementations typically answer by SMT entailment queries.
pub trait TransitionOracle {
    /// Does every event described by `m` match the symbolic event `e`?
    fn event_matches(&mut self, e: &SymbolicEvent, m: &Minterm) -> bool;
    /// Does the (event-independent) guard `phi` hold under the minterm's context valuation?
    fn guard_holds(&mut self, phi: &Formula, m: &Minterm) -> bool;
}

/// Errors raised while constructing a DFA.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DfaBuildError {
    /// The derivative construction exceeded the state bound (the formula is too complex).
    TooManyStates(usize),
}

impl fmt::Display for DfaBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DfaBuildError::TooManyStates(n) => {
                write!(f, "derivative construction exceeded {n} states")
            }
        }
    }
}

impl std::error::Error for DfaBuildError {}

/// A complete DFA over a finite minterm alphabet. State 0 is the initial state.
#[derive(Debug, Clone)]
pub struct Dfa {
    /// Whether each state accepts (i.e. its residual language contains the empty trace).
    pub accepting: Vec<bool>,
    /// `transitions[s][c]` is the successor of state `s` on alphabet symbol `c`.
    pub transitions: Vec<Vec<usize>>,
}

/// Whether the automaton accepts the empty trace (`ν` in derivative terminology).
pub fn nullable(a: &Sfa) -> bool {
    match a {
        Sfa::Zero | Sfa::Event(_) | Sfa::Guard(_) | Sfa::Until(_, _) => false,
        Sfa::Epsilon | Sfa::Star(_) => true,
        Sfa::Not(x) => !nullable(x),
        Sfa::And(parts) => parts.iter().all(nullable),
        Sfa::Or(parts) => parts.iter().any(nullable),
        Sfa::Concat(x, y) => nullable(x) && nullable(y),
        // Positions past the end of a trace behave like the empty suffix (see `accept`).
        Sfa::Next(x) => nullable(x),
    }
}

/// The Brzozowski derivative of `a` with respect to the minterm `m`: a formula accepted by
/// exactly the traces `α` such that `e·α` is accepted by `a` for events `e` in class `m`.
///
/// This tree version is the reference for [`Residuals::derive`], which the walk and
/// [`Dfa::build`] use: an interned derivative materialises to exactly
/// `derivative(state, m).alpha_normal()` (`tests/derivative_differential.rs`).
pub fn derivative(a: &Sfa, m: &Minterm, oracle: &mut dyn TransitionOracle) -> Sfa {
    match a {
        Sfa::Zero | Sfa::Epsilon => Sfa::Zero,
        Sfa::Event(e) => {
            if e.op == m.op && oracle.event_matches(e, m) {
                Sfa::universe()
            } else {
                Sfa::Zero
            }
        }
        Sfa::Guard(phi) => {
            if oracle.guard_holds(phi, m) {
                Sfa::universe()
            } else {
                Sfa::Zero
            }
        }
        Sfa::Not(x) => Sfa::not(derivative(x, m, oracle)),
        Sfa::And(parts) => Sfa::and(parts.iter().map(|p| derivative(p, m, oracle)).collect()),
        Sfa::Or(parts) => Sfa::or(parts.iter().map(|p| derivative(p, m, oracle)).collect()),
        Sfa::Concat(x, y) => {
            let left = Sfa::concat(derivative(x, m, oracle), (**y).clone());
            if nullable(x) {
                Sfa::or(vec![left, derivative(y, m, oracle)])
            } else {
                left
            }
        }
        Sfa::Next(x) => (**x).clone(),
        Sfa::Until(x, y) => {
            let dy = derivative(y, m, oracle);
            let dx = derivative(x, m, oracle);
            Sfa::or(vec![dy, Sfa::and(vec![dx, a.clone()])])
        }
        Sfa::Star(x) => Sfa::concat(derivative(x, m, oracle), a.clone()),
    }
}

/// One side of the lazy product walk: the residual states discovered so far, as arena
/// ids, and their transition rows, filled only when the product frontier first visits
/// a state.
struct LazySide {
    ids: Vec<StateId>,
    index: HashMap<StateId, usize>,
    rows: Vec<Option<Vec<usize>>>,
}

impl LazySide {
    fn new(start: StateId) -> LazySide {
        LazySide {
            ids: vec![start],
            index: HashMap::from([(start, 0)]),
            rows: vec![None],
        }
    }

    /// Ensures the transition row of state `s` is derived; read it back through
    /// [`LazySide::row`]. Split from the read so callers can hold two sides' rows by
    /// shared reference at once (the derivation needs `&mut self`).
    fn ensure_row(
        &mut self,
        s: usize,
        residuals: &mut Residuals,
        oracle: &mut dyn TransitionOracle,
        max_states: usize,
    ) -> Result<(), DfaBuildError> {
        if self.rows[s].is_some() {
            return Ok(());
        }
        let row = (0..residuals.alphabet().len())
            .map(|symbol| {
                let d = residuals.derive(self.ids[s], symbol, oracle);
                self.state_of(d, max_states)
            })
            .collect::<Result<Vec<usize>, DfaBuildError>>()?;
        self.rows[s] = Some(row);
        Ok(())
    }

    /// The index of residual `id`, discovering it when new.
    fn state_of(&mut self, id: StateId, max_states: usize) -> Result<usize, DfaBuildError> {
        if let Some(&t) = self.index.get(&id) {
            return Ok(t);
        }
        let t = self.ids.len();
        if t >= max_states {
            return Err(DfaBuildError::TooManyStates(max_states));
        }
        self.ids.push(id);
        self.index.insert(id, t);
        self.rows.push(None);
        Ok(t)
    }

    /// The transition row of state `s`; [`LazySide::ensure_row`] must have run first.
    fn row(&self, s: usize) -> &[usize] {
        self.rows[s].as_deref().expect("row derived by ensure_row")
    }

    /// Number of states discovered.
    fn num_states(&self) -> usize {
        self.ids.len()
    }

    /// Number of transitions actually derived (filled rows × alphabet size).
    fn num_transitions(&self) -> usize {
        self.rows
            .iter()
            .map(|r| r.as_ref().map(Vec::len).unwrap_or(0))
            .sum()
    }
}

/// The outcome of one on-the-fly product walk (see [`product_included`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProductRun {
    /// Whether `L(A) ⊆ L(B)` over the given alphabet (no accepting product state).
    pub included: bool,
    /// Residual states of `A` discovered by the frontier.
    pub left_states: usize,
    /// Residual states of `B` discovered by the frontier.
    pub right_states: usize,
    /// Transitions derived on `A`'s side (filled rows × alphabet symbols).
    pub left_transitions: usize,
    /// Transitions derived on `B`'s side.
    pub right_transitions: usize,
    /// Distinct product states explored (enqueued) before the walk finished or exited
    /// early.
    pub product_states: usize,
}

/// Decides `L(a) ⊆ L(b)` over the minterm alphabet by on-the-fly emptiness of the
/// product `a × complement(b)`, without materialising either DFA.
///
/// In the Brzozowski representation determinisation is implicit (a formula's derivative
/// is again a single formula) and complementation is nullability negation, so the
/// "subset construction driven by the product frontier" degenerates to a breadth-first
/// walk over pairs of residual formulas: a pair `(ra, rb)` is *accepting* — a
/// counterexample trace leads to it — iff `ra` accepts the empty suffix and `rb` does
/// not. Transition rows are derived only for residual states the frontier actually
/// reaches, and the walk returns at the first accepting pair, so failing checks touch a
/// fraction of the state space the materialised pipeline would build.
///
/// The walk explores exactly the reachable pairs the materialised product
/// ([`Dfa::included_in`] over two [`Dfa::build`] results) explores, in the same
/// breadth-first order, so whenever both pipelines complete they return the same
/// verdict (the differential harnesses in `tests/` and the suite enforce this). The one
/// asymmetry is the state bound: an early counterexample can let the walk refute an
/// instance whose complete builds would exceed `max_states` — see
/// [`crate::inclusion::InclusionMode`].
pub fn product_included(
    a: &Sfa,
    b: &Sfa,
    alphabet: &[Minterm],
    oracle: &mut dyn TransitionOracle,
    max_states: usize,
) -> Result<ProductRun, DfaBuildError> {
    let mut residuals = Residuals::new(alphabet);
    let mut left = LazySide::new(residuals.intern(a));
    let mut right = LazySide::new(residuals.intern(b));
    let mut seen: HashSet<(usize, usize)> = HashSet::from([(0, 0)]);
    let mut queue: VecDeque<(usize, usize)> = VecDeque::from([(0, 0)]);
    let mut included = true;
    while let Some((sa, sb)) = queue.pop_front() {
        if residuals.nullable(left.ids[sa]) && !residuals.nullable(right.ids[sb]) {
            included = false;
            break;
        }
        left.ensure_row(sa, &mut residuals, oracle, max_states)?;
        right.ensure_row(sb, &mut residuals, oracle, max_states)?;
        for (&na, &nb) in left.row(sa).iter().zip(right.row(sb)) {
            if seen.insert((na, nb)) {
                queue.push_back((na, nb));
            }
        }
    }
    Ok(ProductRun {
        included,
        left_states: left.num_states(),
        right_states: right.num_states(),
        left_transitions: left.num_transitions(),
        right_transitions: right.num_transitions(),
        product_states: seen.len(),
    })
}

impl Dfa {
    /// Builds the complete DFA of `a` over the alphabet `alphabet`.
    pub fn build(
        a: &Sfa,
        alphabet: &[Minterm],
        oracle: &mut dyn TransitionOracle,
        max_states: usize,
    ) -> Result<Dfa, DfaBuildError> {
        let mut residuals = Residuals::new(alphabet);
        let mut side = LazySide::new(residuals.intern(a));
        let mut s = 0;
        while s < side.num_states() {
            side.ensure_row(s, &mut residuals, oracle, max_states)?;
            s += 1;
        }
        let accepting = side.ids.iter().map(|&id| residuals.nullable(id)).collect();
        let transitions = side.rows.into_iter().flatten().collect();
        Ok(Dfa {
            accepting,
            transitions,
        })
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.accepting.len()
    }

    /// Number of transitions (states × alphabet symbols actually stored).
    pub fn num_transitions(&self) -> usize {
        self.transitions.iter().map(Vec::len).sum()
    }

    /// Runs the DFA on a word of alphabet-symbol indices.
    pub fn accepts_word(&self, word: &[usize]) -> bool {
        let mut s = 0usize;
        for &c in word {
            s = self.transitions[s][c];
        }
        self.accepting[s]
    }

    /// Checks `L(self) ⊆ L(other)`; both DFAs must be over the same alphabet.
    /// Returns a counterexample word on failure.
    pub fn included_in(&self, other: &Dfa) -> Result<(), Vec<usize>> {
        let alphabet_len = self.transitions.first().map(Vec::len).unwrap_or(0);
        let mut seen = std::collections::BTreeSet::new();
        let mut queue = std::collections::VecDeque::new();
        queue.push_back((0usize, 0usize, Vec::new()));
        seen.insert((0usize, 0usize));
        while let Some((sa, sb, word)) = queue.pop_front() {
            if self.accepting[sa] && !other.accepting[sb] {
                return Err(word);
            }
            for c in 0..alphabet_len {
                let na = self.transitions[sa][c];
                let nb = other.transitions[sb][c];
                if seen.insert((na, nb)) {
                    let mut w = word.clone();
                    w.push(c);
                    queue.push_back((na, nb, w));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hat_logic::{Atom, Term};

    /// A purely syntactic oracle for tests: a minterm matches a symbolic event iff every
    /// atom of the event's qualifier appears positively in the minterm (after the canonical
    /// renaming already used to build the minterm), and guards are evaluated the same way.
    #[derive(Default)]
    struct SyntacticOracle;

    fn atom_holds(m: &Minterm, atom: &Atom) -> bool {
        m.assignment.iter().any(|(a, v)| a == atom && *v)
    }

    impl TransitionOracle for SyntacticOracle {
        fn event_matches(&mut self, e: &SymbolicEvent, m: &Minterm) -> bool {
            let renamed = e.phi.rename_free_vars(&|v: &str| {
                if v == e.result {
                    Some(crate::minterm::res_name())
                } else {
                    e.args
                        .iter()
                        .position(|x| x == v)
                        .map(crate::minterm::arg_name)
                }
            });
            match renamed {
                Formula::True => true,
                Formula::Atom(a) => atom_holds(m, &a),
                Formula::And(fs) => fs.iter().all(|f| match f {
                    Formula::Atom(a) => atom_holds(m, a),
                    Formula::True => true,
                    _ => false,
                }),
                _ => false,
            }
        }
        fn guard_holds(&mut self, phi: &Formula, m: &Minterm) -> bool {
            match phi {
                Formula::True => true,
                Formula::Atom(a) => atom_holds(m, a),
                _ => false,
            }
        }
    }

    fn ins_el() -> Sfa {
        Sfa::event(
            "insert",
            vec!["x".into()],
            "v",
            Formula::eq(Term::var("x"), Term::var("el")),
        )
    }

    /// Alphabet with two minterms: insert of el (index 0), insert of something else (1).
    fn alphabet() -> Vec<Minterm> {
        let lit = Atom::Eq(Term::var("#arg0"), Term::var("el"));
        vec![
            Minterm {
                op: "insert".into(),
                assignment: vec![(lit.clone(), true)],
            },
            Minterm {
                op: "insert".into(),
                assignment: vec![(lit, false)],
            },
        ]
    }

    #[test]
    fn nullable_matches_acceptance_of_empty_trace() {
        assert!(nullable(&Sfa::universe()));
        assert!(nullable(&Sfa::Epsilon));
        assert!(!nullable(&ins_el()));
        assert!(!nullable(&Sfa::eventually(ins_el())));
        assert!(nullable(&Sfa::globally(ins_el())));
        assert!(nullable(&Sfa::last()));
    }

    #[test]
    fn derivative_of_event_literal() {
        let mut o = SyntacticOracle;
        let a = ins_el();
        let d_match = derivative(&a, &alphabet()[0], &mut o);
        assert!(d_match.is_universe());
        let d_miss = derivative(&a, &alphabet()[1], &mut o);
        assert_eq!(d_miss, Sfa::Zero);
    }

    #[test]
    fn dfa_for_uniqueness_invariant() {
        // I = □(ins_el ⇒ ◯¬♦ins_el): at most one insert of el.
        let inv = Sfa::globally(Sfa::implies(
            ins_el(),
            Sfa::next(Sfa::not(Sfa::eventually(ins_el()))),
        ));
        let mut o = SyntacticOracle;
        let dfa = Dfa::build(&inv, &alphabet(), &mut o, 1000).unwrap();
        assert!(dfa.num_states() >= 2);
        // [], [other], [el], [el, other] accepted; [el, el], [el, other, el] rejected.
        assert!(dfa.accepts_word(&[]));
        assert!(dfa.accepts_word(&[1]));
        assert!(dfa.accepts_word(&[0]));
        assert!(dfa.accepts_word(&[0, 1]));
        assert!(!dfa.accepts_word(&[0, 0]));
        assert!(!dfa.accepts_word(&[0, 1, 0]));
    }

    #[test]
    fn inclusion_between_dfas() {
        let mut o = SyntacticOracle;
        let at_most_one = Sfa::globally(Sfa::implies(
            ins_el(),
            Sfa::next(Sfa::not(Sfa::eventually(ins_el()))),
        ));
        let no_insert_el = Sfa::globally(Sfa::not(ins_el()));
        let d_strict = Dfa::build(&no_insert_el, &alphabet(), &mut o, 1000).unwrap();
        let d_weak = Dfa::build(&at_most_one, &alphabet(), &mut o, 1000).unwrap();
        // never inserting el ⊆ inserting at most once
        assert!(d_strict.included_in(&d_weak).is_ok());
        // the converse fails, with a counterexample containing an insert of el
        let cex = d_weak.included_in(&d_strict).unwrap_err();
        assert!(cex.contains(&0));
    }

    #[test]
    fn universe_dfa_accepts_everything() {
        let mut o = SyntacticOracle;
        let dfa = Dfa::build(&Sfa::universe(), &alphabet(), &mut o, 100).unwrap();
        assert!(dfa.accepts_word(&[]));
        assert!(dfa.accepts_word(&[0, 1, 0, 1]));
        let zero = Dfa::build(&Sfa::Zero, &alphabet(), &mut o, 100).unwrap();
        assert!(zero.included_in(&dfa).is_ok());
        assert!(dfa.included_in(&zero).is_err());
    }

    #[test]
    fn concatenation_with_last() {
        // □⟨⊤⟩ ; (ins_el ∧ LAST): last event inserts el.
        let mut o = SyntacticOracle;
        let a = Sfa::concat(Sfa::universe(), Sfa::and(vec![ins_el(), Sfa::last()]));
        let dfa = Dfa::build(&a, &alphabet(), &mut o, 1000).unwrap();
        assert!(!dfa.accepts_word(&[]));
        assert!(dfa.accepts_word(&[0]));
        assert!(dfa.accepts_word(&[1, 0]));
        assert!(!dfa.accepts_word(&[0, 1]));
    }

    #[test]
    fn product_walk_agrees_with_materialised_inclusion() {
        let mut o = SyntacticOracle;
        let at_most_one = Sfa::globally(Sfa::implies(
            ins_el(),
            Sfa::next(Sfa::not(Sfa::eventually(ins_el()))),
        ));
        let no_insert_el = Sfa::globally(Sfa::not(ins_el()));
        let universe = Sfa::universe();
        let cases = [
            (&no_insert_el, &at_most_one),
            (&at_most_one, &no_insert_el),
            (&at_most_one, &universe),
            (&universe, &at_most_one),
        ];
        for (a, b) in cases {
            let da = Dfa::build(a, &alphabet(), &mut o, 1000).unwrap();
            let db = Dfa::build(b, &alphabet(), &mut o, 1000).unwrap();
            let run = product_included(a, b, &alphabet(), &mut o, 1000).unwrap();
            assert_eq!(
                run.included,
                da.included_in(&db).is_ok(),
                "product walk diverged on {a} ⊆ {b}"
            );
            // The lazy sides can only discover states the complete builds contain.
            assert!(run.left_states <= da.num_states());
            assert!(run.right_states <= db.num_states());
        }
    }

    #[test]
    fn failing_product_walk_exits_before_materialising_the_state_space() {
        let mut o = SyntacticOracle;
        let at_most_one = Sfa::globally(Sfa::implies(
            ins_el(),
            Sfa::next(Sfa::not(Sfa::eventually(ins_el()))),
        ));
        let no_insert_el = Sfa::globally(Sfa::not(ins_el()));
        // at_most_one ⊄ no_insert_el: the first insert of el is already a counterexample.
        let run = product_included(&at_most_one, &no_insert_el, &alphabet(), &mut o, 1000).unwrap();
        assert!(!run.included);
        let da = Dfa::build(&at_most_one, &alphabet(), &mut o, 1000).unwrap();
        let db = Dfa::build(&no_insert_el, &alphabet(), &mut o, 1000).unwrap();
        assert!(
            run.left_transitions + run.right_transitions
                < da.num_transitions() + db.num_transitions(),
            "early exit must derive fewer transitions than the two complete builds"
        );
    }

    #[test]
    fn product_walk_respects_the_state_bound() {
        let mut o = SyntacticOracle;
        let inv = Sfa::globally(Sfa::implies(
            ins_el(),
            Sfa::next(Sfa::not(Sfa::eventually(ins_el()))),
        ));
        // A passing check must explore the whole product, so `inv`'s side outgrows a
        // one-state bound. (A failing check can exit before ever hitting the bound.)
        let err = product_included(&inv, &Sfa::universe(), &alphabet(), &mut o, 1).unwrap_err();
        assert!(matches!(err, DfaBuildError::TooManyStates(1)));
    }

    #[test]
    fn state_bound_is_enforced() {
        let mut o = SyntacticOracle;
        let inv = Sfa::globally(Sfa::implies(
            ins_el(),
            Sfa::next(Sfa::not(Sfa::eventually(ins_el()))),
        ));
        let err = Dfa::build(&inv, &alphabet(), &mut o, 1).unwrap_err();
        assert!(matches!(err, DfaBuildError::TooManyStates(1)));
    }
}
