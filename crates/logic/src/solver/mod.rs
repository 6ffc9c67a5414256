//! An SMT-lite decision procedure for HAT verification conditions.
//!
//! The original Marple tool discharges its verification conditions with Z3. The conditions
//! fall into a small fragment: boolean combinations of literals over equality, integer
//! orderings, and uninterpreted method predicates, universally closed over the typing
//! context, with method-predicate axioms as background lemmas. This module decides that
//! fragment with a classical lazy-SMT loop:
//!
//! 1. method-predicate axioms are ground-instantiated over the query's terms (EPR style);
//! 2. quantifiers are eliminated (skolemisation for existential strength, finite
//!    instantiation for universal strength — sound for entailment);
//! 3. the propositional skeleton is Tseitin-encoded and searched by DPLL;
//! 4. each propositional model is checked against the theory (congruence closure over
//!    uninterpreted functions + integer difference bounds); a theory conflict is
//!    minimised to a core with QuickXplain and becomes a blocking clause;
//! 5. every core is also kept as a lemma of the [`Solver`] (see `lemma.rs`), and every
//!    later query or session it applies to starts with its blocking clause, so a
//!    conflict is explained once per solver rather than once per query.
//!
//! Verdicts are a pure function of the query: the fresh-name counter restarts per query,
//! so a canonically renamed query reproduces the same computation up to the lemmas the
//! solver already holds, which only ever save theory checks — the invariant the
//! `hat-engine` cache relies on. For incremental workloads (minterm enumeration),
//! [`Solver::scoped`] opens a [`ScopedSession`] that preprocesses the context and a
//! literal pool once and answers each assumption-stack check with one DPLL+theory pass.
//!
//! ```
//! use hat_logic::{Formula, Solver, Sort, Term};
//!
//! let mut solver = Solver::default();
//! let vars = vec![("x".to_string(), Sort::Int), ("y".to_string(), Sort::Int)];
//! // x < y ∧ y < x is unsatisfiable...
//! let cycle = Formula::and(vec![
//!     Formula::lt(Term::var("x"), Term::var("y")),
//!     Formula::lt(Term::var("y"), Term::var("x")),
//! ]);
//! assert!(!solver.is_satisfiable(&vars, &cycle));
//! // ...and transitivity is entailed.
//! let hyps = [
//!     Formula::lt(Term::var("x"), Term::var("y")),
//!     Formula::lt(Term::var("y"), Term::int(7)),
//! ];
//! assert!(solver.entails(&vars, &hyps, &Formula::lt(Term::var("x"), Term::int(7))));
//! assert_eq!(solver.stats.queries, 2);
//! ```

mod cnf;
mod lemma;
mod sat;
mod theory;

pub use cnf::{CnfBuilder, Lit};
pub use sat::SatSolver;
pub use theory::TheoryCheck;

use crate::axioms::AxiomSet;
use crate::formula::{Atom, Formula};
use crate::simplify::{simplify, to_nnf};
use crate::sort::Sort;
use crate::term::{FuncSym, Term};
use crate::Ident;
use lemma::Lemmas;
use sat::Model;
use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

/// Counters describing solver work, mirroring the `#SAT` / `t_SAT` columns of the paper.
#[derive(Debug, Clone, Default)]
pub struct SolverStats {
    /// Number of satisfiability queries answered.
    pub queries: usize,
    /// Number of queries answered "satisfiable".
    pub sat: usize,
    /// Number of queries answered "unsatisfiable".
    pub unsat: usize,
    /// Total time spent inside the solver.
    pub time: Duration,
    /// Number of theory (congruence/difference-bound) consistency checks performed,
    /// including those made while minimising conflict cores.
    pub theory_checks: usize,
    /// Number of incremental checks answered by scoped sessions ([`Solver::scoped`]).
    /// These are *not* counted in `queries`: a scoped check reuses a preprocessed CNF
    /// and is orders of magnitude cheaper than a standalone query.
    pub scoped_checks: usize,
}

impl SolverStats {
    /// Resets all counters to zero.
    pub fn reset(&mut self) {
        *self = SolverStats::default();
    }
}

/// The solver. Construction is cheap; axioms can be shared across queries.
///
/// A solver keeps every theory conflict core it finds as a lemma for its lifetime and
/// hands each applicable one to later queries and sessions as a blocking clause. Lemmas
/// save theory checks and never change an answer; a fresh solver holds none.
#[derive(Debug, Clone, Default)]
pub struct Solver {
    /// Background axioms (method-predicate lemmas and function signatures).
    pub axioms: AxiomSet,
    /// Work counters.
    pub stats: SolverStats,
    /// Maximum number of axiom instantiations per query (guards against blow-up).
    pub max_instantiations: usize,
    fresh: usize,
    lemmas: Lemmas,
}

/// Declared sorts of the free variables of a query.
pub type SortEnv = [(Ident, Sort)];

impl Solver {
    /// Creates a solver with the given background axioms.
    pub fn with_axioms(axioms: AxiomSet) -> Self {
        Solver {
            axioms,
            stats: SolverStats::default(),
            max_instantiations: 4096,
            fresh: 0,
            lemmas: Lemmas::default(),
        }
    }

    fn fresh_var(&mut self, prefix: &str) -> Ident {
        self.fresh += 1;
        format!("{prefix}%{}", self.fresh)
    }

    /// Is `f` satisfiable, treating the given variables as free constants of their sorts?
    pub fn is_satisfiable(&mut self, vars: &SortEnv, f: &Formula) -> bool {
        let start = Instant::now();
        self.stats.queries += 1;
        // Fresh names are scoped to one query; restarting the counter makes every answer a
        // pure function of (axioms, vars, f), which result caches and parallel verification
        // rely on (instantiation order depends on generated names).
        self.fresh = 0;
        let result = self.check_sat(vars, f);
        if result {
            self.stats.sat += 1;
        } else {
            self.stats.unsat += 1;
        }
        self.stats.time += start.elapsed();
        result
    }

    /// Is `f` valid (true under every interpretation of the free variables)?
    pub fn is_valid(&mut self, vars: &SortEnv, f: &Formula) -> bool {
        !self.is_satisfiable(vars, &Formula::not(f.clone()))
    }

    /// Does the conjunction of `hyps` entail `goal`?
    pub fn entails(&mut self, vars: &SortEnv, hyps: &[Formula], goal: &Formula) -> bool {
        let hyp = Formula::and(hyps.to_vec());
        self.is_valid(vars, &Formula::implies(hyp, goal.clone()))
    }

    fn check_sat(&mut self, vars: &SortEnv, f: &Formula) -> bool {
        let simplified = simplify(f);
        match simplified {
            Formula::True => return true,
            Formula::False => return false,
            _ => {}
        }

        // Quantifier elimination.
        let mut env: BTreeMap<Ident, Sort> = vars.iter().cloned().collect();
        let nnf = to_nnf(&simplified, false);
        let ground = self.collect_ground_terms(&nnf, &env);
        let qfree = self.eliminate_quantifiers(&nnf, &mut env, &ground);

        // Axiom instantiation.
        let with_axioms = {
            let insts = self.instantiate_axioms(&qfree, &env);
            Formula::and(std::iter::once(qfree).chain(insts).collect())
        };
        let final_formula = simplify(&with_axioms);
        match final_formula {
            Formula::True => return true,
            Formula::False => return false,
            _ => {}
        }

        // Propositional encoding.
        let mut builder = CnfBuilder::new();
        let root = builder.encode(&final_formula);
        builder.assert_lit(root);
        let atoms = builder.atoms().to_vec();
        let mut sat = self.sat_with_lemmas(&mut builder, &env);

        // Lazy theory loop.
        loop {
            let Some(model) = sat.solve() else {
                return false;
            };
            match self.theory_conflict(&env, &atoms, &model) {
                None => return true,
                // Block this (partial) assignment.
                Some(clause) => sat.add_clause(clause),
            }
        }
    }

    /// The SAT solver over a built CNF, seeded with the blocking clause of every lemma
    /// that applies to the CNF's atoms under `env`.
    fn sat_with_lemmas(&self, builder: &mut CnfBuilder, env: &BTreeMap<Ident, Sort>) -> SatSolver {
        let lemma_clauses = self.lemmas.clauses_for(builder.atoms(), env, &self.axioms);
        let mut sat = SatSolver::new(builder.num_vars(), builder.take_clauses());
        for clause in lemma_clauses {
            sat.add_clause(clause);
        }
        sat
    }

    /// Checks a DPLL model against the theory. `None` if it is consistent; otherwise
    /// the clause that blocks its minimised conflict core, which the solver also keeps
    /// as a lemma.
    fn theory_conflict(
        &mut self,
        env: &BTreeMap<Ident, Sort>,
        atoms: &[(Atom, usize)],
        model: &Model,
    ) -> Option<Vec<Lit>> {
        let lits: Vec<(Atom, bool)> = atoms
            .iter()
            .filter_map(|(atom, var)| model.get(*var).map(|b| (atom.clone(), b)))
            .collect();
        let check = TheoryCheck::new(env, &self.axioms);
        let verdict = check.consistent(&lits);
        self.stats.theory_checks += check.checks();
        let core = verdict.err()?;
        let clause = core
            .iter()
            .filter_map(|(atom, val)| {
                atoms.iter().find(|(a, _)| a == atom).map(|(_, var)| Lit {
                    var: *var,
                    positive: !*val,
                })
            })
            .collect();
        self.lemmas.learn(&core, env, &self.axioms);
        Some(clause)
    }

    /// Collects ground-ish terms of the formula bucketed by (best-effort) sort,
    /// used for quantifier and axiom instantiation.
    fn collect_ground_terms(
        &self,
        f: &Formula,
        env: &BTreeMap<Ident, Sort>,
    ) -> BTreeMap<Sort, BTreeSet<Term>> {
        let mut atoms = Vec::new();
        f.collect_atoms(&mut atoms);
        let mut out: BTreeMap<Sort, BTreeSet<Term>> = BTreeMap::new();
        let mut add = |sort: Sort, t: Term| {
            out.entry(sort).or_default().insert(t);
        };
        let mut terms = Vec::new();
        for a in &atoms {
            match a {
                Atom::Eq(l, r) | Atom::Lt(l, r) | Atom::Le(l, r) => {
                    terms.push(l.clone());
                    terms.push(r.clone());
                }
                Atom::Pred(_, args) => terms.extend(args.iter().cloned()),
                Atom::BoolTerm(t) => terms.push(t.clone()),
            }
        }
        // Also include all subterms.
        let mut all = Vec::new();
        while let Some(t) = terms.pop() {
            if let Term::App(_, args) = &t {
                for a in args {
                    terms.push(a.clone());
                }
            }
            all.push(t);
        }
        for t in all {
            if let Some(sort) = self.guess_sort(&t, env) {
                add(sort, t);
            } else {
                add(Sort::Named("?".into()), t);
            }
        }
        out
    }

    /// Best-effort sort inference for instantiation purposes.
    pub(crate) fn guess_sort(&self, t: &Term, env: &BTreeMap<Ident, Sort>) -> Option<Sort> {
        match t {
            Term::Var(x) => env.get(x).cloned(),
            Term::Const(c) => match c {
                crate::constant::Constant::Atom(_) => None,
                other => Some(other.sort()),
            },
            Term::App(FuncSym::Named(f), _) => self.axioms.func_ret_sort(f).cloned(),
            Term::App(_, _) => Some(Sort::Int),
        }
    }

    /// Eliminates quantifiers from an NNF formula.
    ///
    /// * `∀x. φ` in positive position is replaced by a finite conjunction of instances over
    ///   the known ground terms of a compatible sort plus one fresh constant (a sound
    ///   weakening for entailment checking);
    /// * `¬∀x. φ` is skolemised: `¬φ[x ↦ fresh]`.
    fn eliminate_quantifiers(
        &mut self,
        f: &Formula,
        env: &mut BTreeMap<Ident, Sort>,
        ground: &BTreeMap<Sort, BTreeSet<Term>>,
    ) -> Formula {
        match f {
            Formula::True | Formula::False | Formula::Atom(_) => f.clone(),
            Formula::Not(inner) => match inner.as_ref() {
                Formula::Forall(x, s, body) => {
                    let fresh = self.fresh_var(x);
                    env.insert(fresh.clone(), s.clone());
                    let skolemised = body.subst_var(x, &Term::Var(fresh));
                    let neg = to_nnf(&Formula::not(skolemised), false);
                    self.eliminate_quantifiers(&neg, env, ground)
                }
                _ => Formula::not(self.eliminate_quantifiers(inner, env, ground)),
            },
            Formula::And(fs) => Formula::and(
                fs.iter()
                    .map(|g| self.eliminate_quantifiers(g, env, ground))
                    .collect(),
            ),
            Formula::Or(fs) => Formula::or(
                fs.iter()
                    .map(|g| self.eliminate_quantifiers(g, env, ground))
                    .collect(),
            ),
            Formula::Implies(p, q) => Formula::implies(
                self.eliminate_quantifiers(p, env, ground),
                self.eliminate_quantifiers(q, env, ground),
            ),
            Formula::Iff(p, q) => Formula::iff(
                self.eliminate_quantifiers(p, env, ground),
                self.eliminate_quantifiers(q, env, ground),
            ),
            Formula::Forall(x, s, body) => {
                let mut instances: Vec<Term> = Vec::new();
                if let Some(set) = ground.get(s) {
                    instances.extend(set.iter().cloned());
                }
                if let Some(set) = ground.get(&Sort::Named("?".into())) {
                    instances.extend(set.iter().cloned());
                }
                let fresh = self.fresh_var(x);
                env.insert(fresh.clone(), s.clone());
                instances.push(Term::Var(fresh));
                let parts: Vec<Formula> = instances
                    .into_iter()
                    .take(64)
                    .map(|t| {
                        let inst = body.subst_var(x, &t);
                        self.eliminate_quantifiers(&to_nnf(&inst, false), env, ground)
                    })
                    .collect();
                Formula::and(parts)
            }
        }
    }

    /// Opens a scoped incremental session over a fixed base formula and a pool of
    /// candidate literals.
    ///
    /// The expensive, per-query part of [`Solver::is_satisfiable`] — simplification,
    /// quantifier elimination, axiom instantiation and CNF construction — is performed
    /// exactly once here, over the *union* of the base facts and every candidate literal
    /// (the same ground-term basis a standalone query over a full literal assignment
    /// would use, which is what makes session verdicts coincide with standalone
    /// verdicts on full assignments). Afterwards each [`ScopedSession::check`] costs one
    /// DPLL search plus theory validation: candidate literals are pushed and retracted
    /// as *assumptions* ([`ScopedSession::assume`] / [`ScopedSession::retract`]) without
    /// rebuilding any state, so an enumeration can walk a search tree and abandon a
    /// subtree the moment a partial assignment is unsatisfiable.
    ///
    /// Theory conflicts discovered during any check are learned as blocking clauses and
    /// persist for the lifetime of the session (they are assumption-independent facts),
    /// so later checks never re-discover them; they are also kept as lemmas of the
    /// solver, and the session starts with every earlier lemma that applies to it.
    pub fn scoped<'a>(
        &'a mut self,
        vars: &SortEnv,
        base: &[Formula],
        literals: &[Atom],
    ) -> ScopedSession<'a> {
        // Fresh names are scoped to the session, exactly as they are scoped to one
        // standalone query: the counter restarts so session construction is a pure
        // function of (axioms, vars, base, literals).
        self.fresh = 0;
        let mut env: BTreeMap<Ident, Sort> = vars.iter().cloned().collect();

        // Ground-term basis: the base facts *and* every candidate literal, mirroring what
        // a standalone query over a full literal assignment would collect (literal signs
        // do not matter — ground terms are sign-blind).
        let atom_formulas: Vec<Formula> =
            literals.iter().map(|a| Formula::Atom(a.clone())).collect();
        let basis = Formula::and(
            base.iter()
                .cloned()
                .chain(atom_formulas.iter().cloned())
                .collect(),
        );
        let basis_nnf = to_nnf(&simplify(&basis), false);
        let ground = self.collect_ground_terms(&basis_nnf, &env);

        // Assert only the base facts (quantifier-eliminated over the full basis); the
        // literals themselves enter and leave through assumptions.
        let base_nnf = to_nnf(&simplify(&Formula::and(base.to_vec())), false);
        let qfree_base = self.eliminate_quantifiers(&base_nnf, &mut env, &ground);
        let inst_source = Formula::and(
            std::iter::once(qfree_base.clone())
                .chain(atom_formulas)
                .collect(),
        );
        let insts = self.instantiate_axioms(&inst_source, &env);
        let asserted = simplify(&Formula::and(
            std::iter::once(qfree_base).chain(insts).collect(),
        ));

        let base_false = matches!(asserted, Formula::False);
        let mut builder = CnfBuilder::new();
        if !base_false {
            let root = builder.encode(&asserted);
            builder.assert_lit(root);
        }
        // Register a propositional variable for every candidate literal, whether or not
        // it occurs in the asserted base.
        let literal_vars: Vec<usize> = literals
            .iter()
            .map(|a| builder.encode(&Formula::Atom(a.clone())).var)
            .collect();
        let atoms = builder.atoms().to_vec();
        let sat = self.sat_with_lemmas(&mut builder, &env);
        ScopedSession {
            solver: self,
            env,
            sat,
            atoms,
            literal_vars,
            assumptions: Vec::new(),
            base_false,
            checks: 0,
            conflicts: 0,
        }
    }

    /// Instantiates background axioms over the ground terms of the query.
    fn instantiate_axioms(&self, f: &Formula, env: &BTreeMap<Ident, Sort>) -> Vec<Formula> {
        if self.axioms.axioms.is_empty() {
            return Vec::new();
        }
        let ground = self.collect_ground_terms(f, env);
        let unknown = Sort::Named("?".into());
        let mut out = Vec::new();
        let mut count = 0usize;
        for ax in &self.axioms.axioms {
            // Candidate terms per quantified variable.
            let candidates: Vec<Vec<Term>> = ax
                .vars
                .iter()
                .map(|(_, s)| {
                    let mut v: Vec<Term> = ground.get(s).into_iter().flatten().cloned().collect();
                    v.extend(ground.get(&unknown).into_iter().flatten().cloned());
                    v
                })
                .collect();
            if candidates.iter().any(|c| c.is_empty()) {
                continue;
            }
            let mut indices = vec![0usize; candidates.len()];
            'outer: loop {
                let mut inst = ax.body.clone();
                for (i, (x, _)) in ax.vars.iter().enumerate() {
                    inst = inst.subst_var(x, &candidates[i][indices[i]]);
                }
                out.push(inst);
                count += 1;
                if count >= self.max_instantiations {
                    return out;
                }
                // advance odometer
                let mut k = 0;
                loop {
                    indices[k] += 1;
                    if indices[k] < candidates[k].len() {
                        break;
                    }
                    indices[k] = 0;
                    k += 1;
                    if k == candidates.len() {
                        break 'outer;
                    }
                }
            }
        }
        out
    }
}

/// An incremental solving session opened with [`Solver::scoped`]: a fixed base formula,
/// a pool of candidate literals, and a stack of assumed literal polarities.
///
/// The session owns one SAT solver instance whose clause database (base CNF, axiom
/// instances, the solver's applicable lemmas, learned theory conflicts) persists across
/// checks. Assumptions are scoped to each check, so `assume`/`retract` are O(1): nothing
/// is rebuilt when the search moves between branches.
pub struct ScopedSession<'a> {
    solver: &'a mut Solver,
    env: BTreeMap<Ident, Sort>,
    sat: SatSolver,
    atoms: Vec<(Atom, usize)>,
    literal_vars: Vec<usize>,
    assumptions: Vec<Lit>,
    base_false: bool,
    checks: usize,
    conflicts: usize,
}

impl std::fmt::Debug for ScopedSession<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScopedSession")
            .field("literals", &self.literal_vars.len())
            .field("depth", &self.assumptions.len())
            .field("checks", &self.checks)
            .field("conflicts", &self.conflicts)
            .finish_non_exhaustive()
    }
}

impl ScopedSession<'_> {
    /// Number of candidate literals in the session's pool.
    pub fn num_literals(&self) -> usize {
        self.literal_vars.len()
    }

    /// Current assumption depth (number of `assume`s not yet retracted).
    pub fn depth(&self) -> usize {
        self.assumptions.len()
    }

    /// Number of incremental checks issued so far.
    pub fn checks(&self) -> usize {
        self.checks
    }

    /// Number of theory conflicts discovered (and learned) so far.
    pub fn conflicts(&self) -> usize {
        self.conflicts
    }

    /// Pushes an assumption: candidate literal `index` takes polarity `value`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range of the literal pool.
    pub fn assume(&mut self, index: usize, value: bool) {
        let var = self.literal_vars[index];
        self.assumptions.push(Lit {
            var,
            positive: value,
        });
    }

    /// Pops the most recent assumption.
    ///
    /// # Panics
    ///
    /// Panics if no assumption is active.
    pub fn retract(&mut self) {
        self.assumptions
            .pop()
            .expect("retract without a matching assume");
    }

    /// Is the base formula together with the current assumptions satisfiable?
    ///
    /// On success, returns a *witness projection*: the polarity the satisfying model
    /// assigns to every candidate literal (index-aligned with the pool). The witness is a
    /// full, theory-consistent assignment, so it certifies an entire satisfiable leaf of
    /// the enumeration tree, not just the current partial assignment. On failure the
    /// whole subtree under the current assumptions is unsatisfiable.
    pub fn check(&mut self) -> Option<Vec<bool>> {
        let start = Instant::now();
        self.checks += 1;
        self.solver.stats.scoped_checks += 1;
        let result = self.check_inner();
        self.solver.stats.time += start.elapsed();
        result
    }

    fn check_inner(&mut self) -> Option<Vec<bool>> {
        if self.base_false {
            return None;
        }
        loop {
            // Branch on the candidate pool first: blocking clauses live entirely within
            // the pool variables, so AllSAT enumeration conflicts surface within the
            // first |pool| decisions instead of deep inside the Tseitin encoding.
            let model = self
                .sat
                .solve_prioritised(&self.assumptions, &self.literal_vars)?;
            let Some(clause) = self.solver.theory_conflict(&self.env, &self.atoms, &model) else {
                return Some(
                    self.literal_vars
                        .iter()
                        // Totality is load-bearing: a defaulted polarity would bypass the
                        // theory check just performed.
                        .map(|v| model.get(*v).expect("dpll models are total"))
                        .collect(),
                );
            };
            // A theory conflict is assumption-independent: the blocked assignment is
            // inconsistent with the theory itself, so the learned clause is sound for every
            // later check too.
            self.conflicts += 1;
            self.sat.add_clause(clause);
        }
    }

    /// Permanently excludes a full literal projection from all later checks (AllSAT-style
    /// enumeration: block each witness as it is emitted). With an empty literal pool this
    /// adds the empty clause, making every later check unsatisfiable — the enumeration of
    /// zero literals has exactly one leaf.
    pub fn block(&mut self, projection: &[bool]) {
        assert_eq!(
            projection.len(),
            self.literal_vars.len(),
            "projection must cover the whole literal pool"
        );
        let clause: Vec<Lit> = self
            .literal_vars
            .iter()
            .zip(projection)
            .map(|(var, value)| Lit {
                var: *var,
                positive: !value,
            })
            .collect();
        self.sat.add_clause(clause);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::axioms::Axiom;
    use crate::constant::Constant;

    fn int_env() -> Vec<(Ident, Sort)> {
        vec![
            ("x".into(), Sort::Int),
            ("y".into(), Sort::Int),
            ("z".into(), Sort::Int),
        ]
    }

    #[test]
    fn trivial_sat_and_unsat() {
        let mut s = Solver::default();
        assert!(s.is_satisfiable(&[], &Formula::True));
        assert!(!s.is_satisfiable(&[], &Formula::False));
        assert!(s.is_valid(&[], &Formula::True));
    }

    #[test]
    fn propositional_reasoning() {
        let mut s = Solver::default();
        let p = Formula::pred("p", vec![Term::var("x")]);
        let q = Formula::pred("q", vec![Term::var("x")]);
        // (p ∧ (p ⇒ q)) ⇒ q is valid.
        let f = Formula::implies(
            Formula::and(vec![p.clone(), Formula::implies(p.clone(), q.clone())]),
            q.clone(),
        );
        let env = vec![("x".to_string(), Sort::named("T"))];
        assert!(s.is_valid(&env, &f));
        // p ∧ ¬p unsat.
        assert!(!s.is_satisfiable(&env, &Formula::and(vec![p.clone(), Formula::not(p)])));
    }

    #[test]
    fn equality_reasoning_with_congruence() {
        let mut s = Solver::default();
        let env = vec![
            ("a".to_string(), Sort::named("T")),
            ("b".to_string(), Sort::named("T")),
        ];
        // a = b ⊢ f(a) = f(b)
        let hyp = Formula::eq(Term::var("a"), Term::var("b"));
        let goal = Formula::eq(
            Term::app("f", vec![Term::var("a")]),
            Term::app("f", vec![Term::var("b")]),
        );
        assert!(s.entails(&env, std::slice::from_ref(&hyp), &goal));
        // a = b does not entail g(a) = h(b)
        let bad = Formula::eq(
            Term::app("g", vec![Term::var("a")]),
            Term::app("h", vec![Term::var("b")]),
        );
        assert!(!s.entails(&env, &[hyp], &bad));
    }

    #[test]
    fn distinct_constants_are_distinct() {
        let mut s = Solver::default();
        let f = Formula::eq(Term::atom("/a"), Term::atom("/b"));
        assert!(!s.is_satisfiable(&[], &f));
        let g = Formula::eq(Term::int(1), Term::int(2));
        assert!(!s.is_satisfiable(&[], &g));
    }

    #[test]
    fn arithmetic_ordering_entailment() {
        let mut s = Solver::default();
        let env = int_env();
        // x < y ∧ y < z ⊢ x < z
        let hyps = vec![
            Formula::lt(Term::var("x"), Term::var("y")),
            Formula::lt(Term::var("y"), Term::var("z")),
        ];
        assert!(s.entails(&env, &hyps, &Formula::lt(Term::var("x"), Term::var("z"))));
        // x < y does not entail y < x
        assert!(!s.entails(
            &env,
            &[Formula::lt(Term::var("x"), Term::var("y"))],
            &Formula::lt(Term::var("y"), Term::var("x"))
        ));
        // x <= y ∧ y <= x ⊢ x = y
        let hyps = vec![
            Formula::le(Term::var("x"), Term::var("y")),
            Formula::le(Term::var("y"), Term::var("x")),
        ];
        assert!(s.entails(&env, &hyps, &Formula::eq(Term::var("x"), Term::var("y"))));
    }

    #[test]
    fn numeric_constant_bounds() {
        let mut s = Solver::default();
        let env = int_env();
        // x < 3 ∧ 5 < x is unsat
        let f = Formula::and(vec![
            Formula::lt(Term::var("x"), Term::int(3)),
            Formula::lt(Term::int(5), Term::var("x")),
        ]);
        assert!(!s.is_satisfiable(&env, &f));
        // 0 <= x ∧ x <= 0 ∧ x != 0 is unsat
        let g = Formula::and(vec![
            Formula::le(Term::int(0), Term::var("x")),
            Formula::le(Term::var("x"), Term::int(0)),
            Formula::not(Formula::eq(Term::var("x"), Term::int(0))),
        ]);
        assert!(!s.is_satisfiable(&env, &g));
    }

    #[test]
    fn method_predicate_axioms_are_used() {
        let mut axioms = AxiomSet::new();
        axioms.declare_pred("isDir", vec![Sort::named("Bytes.t")]);
        axioms.declare_pred("isDel", vec![Sort::named("Bytes.t")]);
        axioms.add_axiom(Axiom::new(
            "dir-not-del",
            vec![("b".into(), Sort::named("Bytes.t"))],
            Formula::implies(
                Formula::pred("isDir", vec![Term::var("b")]),
                Formula::not(Formula::pred("isDel", vec![Term::var("b")])),
            ),
        ));
        let mut s = Solver::with_axioms(axioms);
        let env = vec![("v".to_string(), Sort::named("Bytes.t"))];
        // isDir(v) ⊢ ¬isDel(v)
        assert!(s.entails(
            &env,
            &[Formula::pred("isDir", vec![Term::var("v")])],
            &Formula::not(Formula::pred("isDel", vec![Term::var("v")]))
        ));
        // isDir(v) ∧ isDel(v) is unsat under the axioms
        assert!(!s.is_satisfiable(
            &env,
            &Formula::and(vec![
                Formula::pred("isDir", vec![Term::var("v")]),
                Formula::pred("isDel", vec![Term::var("v")]),
            ])
        ));
        // but isFile is unconstrained
        assert!(s.is_satisfiable(&env, &Formula::pred("isFile", vec![Term::var("v")])));
    }

    #[test]
    fn quantified_goal_is_skolemised() {
        let mut s = Solver::default();
        // ⊢ ∀x:int. x = x
        let f = Formula::forall("x", Sort::Int, Formula::eq(Term::var("x"), Term::var("x")));
        assert!(s.is_valid(&[], &f));
        // ⊬ ∀x:int. x < 0
        let g = Formula::forall("x", Sort::Int, Formula::lt(Term::var("x"), Term::int(0)));
        assert!(!s.is_valid(&[], &g));
    }

    #[test]
    fn bool_terms_as_propositions() {
        let mut s = Solver::default();
        let env = vec![("b".to_string(), Sort::Bool)];
        let b = Term::var("b");
        // b = true ⊢ b
        assert!(s.entails(
            &env,
            &[Formula::eq(b.clone(), Term::bool(true))],
            &Formula::bool_term(b.clone())
        ));
        // b = false ⊢ ¬b
        assert!(s.entails(
            &env,
            &[Formula::eq(b.clone(), Term::bool(false))],
            &Formula::not(Formula::bool_term(b))
        ));
    }

    #[test]
    fn stats_are_recorded() {
        let mut s = Solver::default();
        let before = s.stats.queries;
        let _ = s.is_satisfiable(&[], &Formula::pred("p", vec![]));
        assert_eq!(s.stats.queries, before + 1);
        assert!(s.stats.sat >= 1);
    }

    #[test]
    fn scoped_push_pop_nesting_matches_standalone_queries() {
        // Base: x < y.  Literals: y < z, x < z, z < x.
        let env = int_env();
        let base = vec![Formula::lt(Term::var("x"), Term::var("y"))];
        let literals = vec![
            Atom::Lt(Term::var("y"), Term::var("z")),
            Atom::Lt(Term::var("x"), Term::var("z")),
            Atom::Lt(Term::var("z"), Term::var("x")),
        ];
        let mut s = Solver::default();
        let mut session = s.scoped(&env, &base, &literals);
        assert_eq!(session.num_literals(), 3);
        assert_eq!(session.depth(), 0);
        assert!(session.check().is_some(), "base alone is satisfiable");

        // y < z pushed: still satisfiable; nested x < z: still satisfiable.
        session.assume(0, true);
        assert_eq!(session.depth(), 1);
        assert!(session.check().is_some());
        session.assume(1, true);
        assert_eq!(session.depth(), 2);
        assert!(session.check().is_some());
        // Deepest level: z < x contradicts x < y < z.
        session.assume(2, true);
        assert!(session.check().is_none(), "x<y ∧ y<z ∧ x<z ∧ z<x is unsat");
        session.retract();
        // After retracting the contradiction the previous level is intact.
        assert!(session.check().is_some());
        session.retract();
        session.retract();
        assert_eq!(session.depth(), 0);
        assert!(session.check().is_some());
    }

    #[test]
    fn scoped_unsat_at_depth_prunes_the_subtree() {
        // Base: x < y ∧ y < z. The assumption z < x is unsat at depth 1; every deeper
        // assumption keeps it unsat (the whole subtree is pruned).
        let env = int_env();
        let base = vec![
            Formula::lt(Term::var("x"), Term::var("y")),
            Formula::lt(Term::var("y"), Term::var("z")),
        ];
        let literals = vec![
            Atom::Lt(Term::var("z"), Term::var("x")),
            Atom::Lt(Term::var("x"), Term::var("z")),
        ];
        let mut s = Solver::default();
        let mut session = s.scoped(&env, &base, &literals);
        session.assume(0, true);
        assert!(session.check().is_none());
        for value in [true, false] {
            session.assume(1, value);
            assert!(
                session.check().is_none(),
                "children of an unsat node are unsat"
            );
            session.retract();
        }
        session.retract();
        // The sibling branch (¬(z < x)) is satisfiable.
        session.assume(0, false);
        assert!(session.check().is_some());
    }

    #[test]
    fn scoped_witness_certifies_a_full_leaf_and_block_excludes_it() {
        let env = int_env();
        let literals = vec![
            Atom::Lt(Term::var("x"), Term::var("y")),
            Atom::Lt(Term::var("y"), Term::var("z")),
        ];
        let mut s = Solver::default();
        let mut session = s.scoped(&env, &[], &literals);
        let mut seen = std::collections::BTreeSet::new();
        // AllSAT: every check yields a fresh projection until the space is exhausted.
        while let Some(projection) = session.check() {
            assert_eq!(projection.len(), 2);
            assert!(seen.insert(projection.clone()), "projections never repeat");
            session.block(&projection);
        }
        assert_eq!(seen.len(), 4, "all four sign combinations are satisfiable");
        assert_eq!(
            session.checks(),
            5,
            "one check per leaf plus the closing unsat"
        );
    }

    #[test]
    fn scoped_empty_literal_pool_has_one_leaf() {
        let mut s = Solver::default();
        let mut session = s.scoped(&[], &[], &[]);
        let w = session
            .check()
            .expect("the empty conjunction is satisfiable");
        assert!(w.is_empty());
        session.block(&w);
        assert!(
            session.check().is_none(),
            "blocking the empty projection closes the space"
        );
    }

    #[test]
    fn scoped_theory_conflicts_are_learned_once() {
        // isDir(v) ∧ isDel(v) is a pure theory conflict under the axiom; once learned it
        // must not be re-discovered by later checks.
        let mut axioms = AxiomSet::new();
        axioms.declare_pred("isDir", vec![Sort::named("Bytes.t")]);
        axioms.declare_pred("isDel", vec![Sort::named("Bytes.t")]);
        axioms.add_axiom(Axiom::new(
            "dir-not-del",
            vec![("b".into(), Sort::named("Bytes.t"))],
            Formula::implies(
                Formula::pred("isDir", vec![Term::var("b")]),
                Formula::not(Formula::pred("isDel", vec![Term::var("b")])),
            ),
        ));
        let env = vec![("v".to_string(), Sort::named("Bytes.t"))];
        let literals = vec![
            Atom::Pred("isDir".into(), vec![Term::var("v")]),
            Atom::Pred("isDel".into(), vec![Term::var("v")]),
        ];
        let mut s = Solver::with_axioms(axioms);
        let mut session = s.scoped(&env, &[], &literals);
        session.assume(0, true);
        session.assume(1, true);
        assert!(session.check().is_none());
        let conflicts_after_first = session.conflicts();
        assert!(session.check().is_none());
        assert_eq!(
            session.conflicts(),
            conflicts_after_first,
            "the second check reuses the learned clause"
        );
        session.retract();
        assert!(session.check().is_some(), "isDir(v) alone is satisfiable");
    }

    #[test]
    fn scoped_sessions_keep_fresh_name_counter_hygiene() {
        // Verdicts and solver work must be a pure function of the query, with or without
        // an interleaved scoped session: the fresh-name counter restarts every time.
        let probe = |s: &mut Solver| {
            let env = vec![("a".to_string(), Sort::named("T"))];
            let f = Formula::forall(
                "q",
                Sort::named("T"),
                Formula::implies(
                    Formula::pred("p", vec![Term::var("q")]),
                    Formula::pred("p", vec![Term::var("q")]),
                ),
            );
            let before = s.stats.theory_checks;
            let verdict = s.is_satisfiable(&env, &f);
            (verdict, s.stats.theory_checks - before)
        };
        let mut plain = Solver::default();
        let baseline = probe(&mut plain);

        let mut with_session = Solver::default();
        let first = probe(&mut with_session);
        {
            let env = vec![("x".to_string(), Sort::Int)];
            let literals = vec![Atom::Lt(Term::var("x"), Term::int(0))];
            let mut session = with_session.scoped(&env, &[], &literals);
            session.assume(0, true);
            let _ = session.check();
        }
        let second = probe(&mut with_session);
        assert_eq!(first, baseline);
        assert_eq!(
            second, baseline,
            "a scoped session must not leak fresh names"
        );
        assert!(with_session.stats.scoped_checks >= 1);
    }

    /// Theory checks `s` spends refuting `x < y ∧ y < x` with `x` of sort `x_sort`.
    fn refute_cycle(s: &mut Solver, x_sort: Sort) -> usize {
        let vars = vec![("x".to_string(), x_sort), ("y".to_string(), Sort::Int)];
        let cycle = Formula::and(vec![
            Formula::lt(Term::var("x"), Term::var("y")),
            Formula::lt(Term::var("y"), Term::var("x")),
        ]);
        let before = s.stats.theory_checks;
        assert!(!s.is_satisfiable(&vars, &cycle));
        s.stats.theory_checks - before
    }

    #[test]
    fn lemmas_are_reused_only_under_the_variable_sorts_they_were_found_with() {
        let fresh = refute_cycle(&mut Solver::default(), Sort::named("T"));
        let mut s = Solver::default();
        assert!(
            refute_cycle(&mut s, Sort::Int) > 0,
            "the first refutation needs the theory"
        );
        assert_eq!(
            refute_cycle(&mut s, Sort::Int),
            0,
            "the lemma blocks the conflict before DPLL proposes it"
        );
        assert_eq!(
            refute_cycle(&mut s, Sort::named("T")),
            fresh,
            "a lemma found with x: Int is not reused where x has another sort"
        );
    }

    #[test]
    fn lemmas_over_a_function_are_dropped_when_its_result_sort_changes() {
        let env = vec![
            ("a".to_string(), Sort::named("T")),
            ("y".to_string(), Sort::Int),
        ];
        let len_a = Term::app("len", vec![Term::var("a")]);
        let cycle = Formula::and(vec![
            Formula::lt(len_a.clone(), Term::var("y")),
            Formula::lt(Term::var("y"), len_a),
        ]);
        let with_len_sort = |ret: Sort| {
            let mut axioms = AxiomSet::new();
            axioms.declare_func("len", vec![Sort::named("T")], ret);
            axioms
        };
        let refute = |s: &mut Solver| {
            let before = s.stats.theory_checks;
            assert!(!s.is_satisfiable(&env, &cycle));
            s.stats.theory_checks - before
        };
        let fresh = refute(&mut Solver::with_axioms(with_len_sort(Sort::named("N"))));
        let mut s = Solver::with_axioms(with_len_sort(Sort::Int));
        assert!(refute(&mut s) > 0);
        assert_eq!(refute(&mut s), 0, "same axioms: the lemma is reused");
        s.axioms = with_len_sort(Sort::named("N"));
        assert_eq!(
            refute(&mut s),
            fresh,
            "a lemma over len(..) is not reused once len's result sort differs"
        );
    }

    #[test]
    fn sessions_start_with_the_lemmas_of_earlier_queries() {
        let env = int_env();
        let literals = vec![
            Atom::Lt(Term::var("x"), Term::var("y")),
            Atom::Lt(Term::var("y"), Term::var("x")),
        ];
        let conflicts = |s: &mut Solver| {
            let mut session = s.scoped(&env, &[], &literals);
            while let Some(projection) = session.check() {
                session.block(&projection);
            }
            session.conflicts()
        };
        let mut s = Solver::default();
        assert_eq!(conflicts(&mut s), 1, "x < y ∧ y < x is found once");
        assert_eq!(conflicts(&mut s), 0, "and never again by this solver");
        assert_eq!(
            conflicts(&mut Solver::default()),
            1,
            "a fresh solver holds no lemmas"
        );
    }

    #[test]
    fn atom_constants_vs_variables() {
        let mut s = Solver::default();
        let env = vec![("p".to_string(), Sort::named("Path.t"))];
        // p = "/" is satisfiable; p = "/" ∧ p = "/a" is not.
        assert!(s.is_satisfiable(&env, &Formula::eq(Term::var("p"), Term::atom("/"))));
        let f = Formula::and(vec![
            Formula::eq(Term::var("p"), Term::atom("/")),
            Formula::eq(Term::var("p"), Term::atom("/a")),
        ]);
        assert!(!s.is_satisfiable(&env, &f));
        let _ = Constant::Atom("/".into());
    }
}
