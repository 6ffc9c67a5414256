//! Symbolic-automaton language inclusion (paper §5.1, Algorithm 1).
//!
//! `Γ ⊢ A ⊆ B` holds when, under every closing substitution of the typing context `Γ`,
//! every trace accepted by `A` is accepted by `B`. The check follows the paper:
//!
//! 1. collect the literals of `Γ`, `A` and `B` and build the satisfiable minterms
//!    (SMT queries — the `#SAT` column of the evaluation);
//! 2. for every valuation of the *context* literals (the outer loop over `φ_Γ`),
//!    translate both automata to classical automata over the minterm alphabet
//!    (alphabet transformation, Algorithm 2) and
//! 3. decide language inclusion over that alphabet (the `#FA⊆` column of the
//!    evaluation), in one of two ways selected by [`InclusionMode`]:
//!
//! * **On the fly** (the default): emptiness of the product `A × complement(det(B))`,
//!   walked pair by pair without materialising either DFA
//!   ([`crate::dfa::product_included`]). Transition rows are derived only for residual
//!   states the product frontier reaches, and the walk returns at the first accepting
//!   product state — a counterexample word — so failing checks touch a fraction of the
//!   state space.
//! * **Materialised** (the paper-faithful baseline, kept behind a flag for differential
//!   testing and measurement): build both complete DFAs with [`Dfa::build`], then BFS
//!   their product with [`Dfa::included_in`].
//!
//! On top of either pipeline, oracles can *memoise per-group product walks by shape*
//! ([`MemoQuery::Shape`]): the α-renamed (automaton pair, pruned alphabet) fully
//! determines the walk's verdict — transitions are resolved propositionally from minterm
//! assignments that are part of the key — so α-equal shapes skip the walk entirely, even
//! across different typing contexts and benchmarks.
//!
//! # Example
//!
//! ```
//! use hat_logic::{Formula, Solver, Sort, Term};
//! use hat_sfa::{InclusionChecker, OpSig, Sfa, VarCtx};
//!
//! // ⟨insert x = v | x = el⟩ under a context binding el.
//! let ins_el = Sfa::event("insert", vec!["x".into()], "v",
//!     Formula::eq(Term::var("x"), Term::var("el")));
//! let never = Sfa::globally(Sfa::not(ins_el.clone()));
//! let at_most_once = Sfa::globally(Sfa::implies(
//!     ins_el.clone(),
//!     Sfa::next(Sfa::not(Sfa::eventually(ins_el))),
//! ));
//! let ops = vec![OpSig::new("insert", vec![("x".into(), Sort::Int)], Sort::Unit)];
//! let ctx = VarCtx::new(vec![("el".into(), Sort::Int)], vec![]);
//! let mut checker = InclusionChecker::new(ops);
//! let mut solver = Solver::default();
//! assert!(checker.check(&ctx, &never, &at_most_once, &mut solver).unwrap());
//! assert!(!checker.check(&ctx, &at_most_once, &never, &mut solver).unwrap());
//! ```

use crate::ast::{OpSig, Sfa, SymbolicEvent};
use crate::dfa::{product_included_with, Dfa, DfaBuildError, TransitionOracle};
use crate::minterm::{
    arg_name, build_minterms_with, res_name, EnumerationMode, LiteralPool, Minterm, MintermSet,
};
use crate::stats::CheckStats;
use crate::subsume::SubsumptionMode;
use hat_logic::{Atom, Formula, Ident, ScopedSession, Sort};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// The logical part of a typing context: in-scope variables with their sorts, and the
/// facts (refinement qualifiers) known about them.
#[derive(Debug, Clone, Default)]
pub struct VarCtx {
    /// Variables in scope (function parameters, ghost variables, let-bound values).
    pub vars: Vec<(Ident, Sort)>,
    /// Facts known about those variables.
    pub facts: Vec<Formula>,
}

impl VarCtx {
    /// Creates a context.
    pub fn new(vars: Vec<(Ident, Sort)>, facts: Vec<Formula>) -> Self {
        VarCtx { vars, facts }
    }

    /// Adds a variable binding.
    pub fn push_var(&mut self, name: impl Into<Ident>, sort: Sort) {
        self.vars.push((name.into(), sort));
    }

    /// Adds a fact.
    pub fn push_fact(&mut self, fact: Formula) {
        self.facts.push(fact);
    }
}

/// The record kinds of the memo hierarchy — every whole unit of work an oracle may
/// memoise above the raw solver-verdict cache (which is internal to oracle
/// implementations). Each kind corresponds to one [`MemoQuery`] variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MemoKind {
    /// A whole alphabet transformation (one enumerated [`MintermSet`]).
    Minterms,
    /// A whole automata-inclusion check `Γ ⊢ A ⊆ B`.
    Inclusion,
    /// One per-group product walk over an (automaton pair, pruned alphabet) shape.
    Shape,
    /// One Brzozowski derivative `state × answers → successor`.
    Transition,
    /// One simulation-subsumption verdict `L(a) ⊆ L(b)` between two residual states
    /// over a pruned group alphabet.
    Subsumption,
}

/// One memoisable unit of work, carrying everything an oracle needs to canonicalise its
/// key. The same value is passed to the paired [`SolverOracle::memo_store`], so oracles
/// can cache the canonicalisation of the preceding lookup miss instead of redoing it.
#[derive(Debug, Clone, Copy)]
pub enum MemoQuery<'a> {
    /// The alphabet transformation of `ctx`/`ops`/`pool` (answer:
    /// [`MemoAnswer::Minterms`]). Axiom-dependent: minterm satisfiability consults the
    /// background axioms.
    Minterms {
        /// The typing context the literals were collected under.
        ctx: &'a VarCtx,
        /// The operator alphabet.
        ops: &'a [OpSig],
        /// The collected literal pool.
        pool: &'a LiteralPool,
    },
    /// A whole inclusion check `Γ ⊢ A ⊆ B` (answer: [`MemoAnswer::Verdict`]).
    /// Axiom-dependent, like every solver verdict feeding it.
    Inclusion {
        /// The typing context `Γ`.
        ctx: &'a VarCtx,
        /// The operator alphabet.
        ops: &'a [OpSig],
        /// The DFA state bound the check ran under.
        max_states: usize,
        /// The included automaton.
        a: &'a Sfa,
        /// The including automaton.
        b: &'a Sfa,
    },
    /// One per-group product walk (answer: [`MemoAnswer::Verdict`]). Every transition of
    /// the walk is resolved propositionally from a minterm assignment and a qualifier
    /// that are both part of this data, so the verdict is a pure function of the
    /// α-renamed query: equal shapes share one verdict across contexts and benchmarks
    /// with different axiom sets. Callers only store when no context-dependent SMT
    /// fallback fired during the walk.
    Shape {
        /// The included automaton.
        a: &'a Sfa,
        /// The including automaton.
        b: &'a Sfa,
        /// The (pruned) group alphabet the walk ran over.
        alphabet: &'a [Minterm],
        /// The DFA state bound the walk ran under.
        max_states: usize,
    },
    /// One simulation-subsumption verdict (answer: [`MemoAnswer::Verdict`]): whether
    /// `L(a) ⊆ L(b)` over the pruned group alphabet, as certified (or definitely
    /// refuted) by the simulation fixpoint. Like [`MemoQuery::Shape`], the verdict is a
    /// semantic fact about the α-renamed (residual pair, alphabet) — transitions are
    /// resolved propositionally from minterm assignments that are part of the key — so
    /// it is shared across contexts and benchmarks with different axiom sets. Callers
    /// only store when no context-dependent SMT fallback fired.
    Subsumption {
        /// The smaller residual.
        a: &'a Sfa,
        /// The larger residual.
        b: &'a Sfa,
        /// The (pruned) group alphabet the order is relative to.
        alphabet: &'a [Minterm],
    },
    /// One DFA transition (answer: [`MemoAnswer::Transition`]). A Brzozowski successor
    /// is a pure syntactic function of the state formula and the signed answers for the
    /// symbolic events and guards occurring in it — axioms, context facts and the
    /// concrete minterm only enter through those answers — so the query carries exactly
    /// that data and the memo is shared across benchmarks with different axiom sets.
    /// Oracles must return the successor renamed back into the caller's variable names.
    Transition {
        /// The residual state being derived.
        state: &'a Sfa,
        /// The signed answer for every symbolic event occurring in `state`.
        events: &'a [(&'a SymbolicEvent, bool)],
        /// The signed answer for every guard occurring in `state`.
        guards: &'a [(&'a Formula, bool)],
    },
}

impl MemoQuery<'_> {
    /// The record kind this query belongs to.
    pub fn kind(&self) -> MemoKind {
        match self {
            MemoQuery::Minterms { .. } => MemoKind::Minterms,
            MemoQuery::Inclusion { .. } => MemoKind::Inclusion,
            MemoQuery::Shape { .. } => MemoKind::Shape,
            MemoQuery::Subsumption { .. } => MemoKind::Subsumption,
            MemoQuery::Transition { .. } => MemoKind::Transition,
        }
    }
}

/// The memoised answer for a [`MemoQuery`], in the shape its kind expects.
///
/// Values are [`Cow`]s so the hot store path pays no clone: callers pass freshly
/// computed results by reference (`Cow::Borrowed`), while lookups hand back owned
/// values (`Cow::Owned`, renamed into the query's variable names by the oracle).
#[derive(Debug, Clone)]
pub enum MemoAnswer<'a> {
    /// A boolean verdict ([`MemoKind::Inclusion`] and [`MemoKind::Shape`]).
    Verdict(bool),
    /// A whole minterm set ([`MemoKind::Minterms`]).
    Minterms(Cow<'a, MintermSet>),
    /// A successor automaton ([`MemoKind::Transition`]).
    Transition(Cow<'a, Sfa>),
}

impl MemoAnswer<'_> {
    /// The verdict bit, when this answer is one.
    pub fn verdict(&self) -> Option<bool> {
        match self {
            MemoAnswer::Verdict(v) => Some(*v),
            _ => None,
        }
    }
}

/// The SMT interface needed by minterm construction and transition resolution.
/// Implemented by [`hat_logic::Solver`]; wrappers can intercept calls to collect
/// statistics.
///
/// Beyond raw satisfiability, an oracle may memoise whole units of work through the
/// single typed memo interface ([`SolverOracle::memo_lookup`] /
/// [`SolverOracle::memo_store`], with [`SolverOracle::memoises`] as the capability
/// probe): one [`MemoQuery`] variant per record kind, uniformly for minterm sets,
/// inclusion verdicts, per-group shapes and DFA transitions. The defaults memoise
/// nothing.
pub trait SolverOracle {
    /// Is the conjunction of `facts` satisfiable, with `vars` as free constants?
    fn is_sat(&mut self, vars: &[(Ident, Sort)], facts: &[Formula]) -> bool;
    /// Does the conjunction of `facts` entail `goal`?
    fn entails(&mut self, vars: &[(Ident, Sort)], facts: &[Formula], goal: &Formula) -> bool;
    /// Number of SMT queries issued so far (for the `#SAT` column).
    fn query_count(&self) -> usize;
    /// Total time spent answering queries (for the `t_SAT` column).
    fn query_time(&self) -> Duration;
    /// Number of theory consistency checks the underlying solver made, core
    /// minimisation included (0 for an oracle that does not count them).
    fn theory_checks(&self) -> usize {
        0
    }
    /// Number of queries answered from a shared result cache (0 for an uncached solver).
    fn cache_hits(&self) -> usize {
        0
    }
    /// Number of queries that reached the underlying decision procedure.
    fn cache_misses(&self) -> usize {
        self.query_count()
    }
    /// Number of shared-tier lock acquisitions this oracle performed (0 for an oracle
    /// without a shared tiered store). Per-worker local read-through tiers exist to
    /// drive this number down; `CheckStats` reports it per method.
    fn shared_tier_locks(&self) -> usize {
        0
    }

    /// Opens an incremental scoped-assumption session over the underlying solver, used
    /// by incremental minterm enumeration. `None` (the default) makes enumeration fall
    /// back to one standalone query per assignment-tree node.
    fn scoped_session<'a>(
        &'a mut self,
        vars: &[(Ident, Sort)],
        base: &[Formula],
        literals: &[Atom],
    ) -> Option<ScopedSession<'a>> {
        let _ = (vars, base, literals);
        None
    }

    /// Whether this oracle can ever answer a [`SolverOracle::memo_lookup`] for the given
    /// record kind. Lets callers skip assembling a query — notably the signed answer
    /// signature of a [`MemoQuery::Transition`] — when the oracle memoises nothing.
    fn memoises(&self, kind: MemoKind) -> bool {
        let _ = kind;
        false
    }

    /// Looks a memoised unit of work up. Oracles are responsible for canonicalising the
    /// query into their key space (α-renaming, axiom fingerprints where the answer
    /// depends on axioms) and for renaming a stored value back into the query's variable
    /// names. `None` (the default) means "not memoised" — either a miss or an
    /// unsupported kind.
    fn memo_lookup(&mut self, query: &MemoQuery) -> Option<MemoAnswer<'static>> {
        let _ = query;
        None
    }

    /// Memoises a computed unit of work for later [`SolverOracle::memo_lookup`]s of a
    /// structurally equal query. Callers pair every store with a preceding lookup miss
    /// for the same query, so oracles may reuse the canonicalisation computed there.
    fn memo_store(&mut self, query: &MemoQuery, answer: &MemoAnswer) {
        let _ = (query, answer);
    }

    /// Publishes any batched memo writes (oracles with write-behind tiers). The checker
    /// calls this at the end of each method check, *before* harvesting the oracle's
    /// counters, so the publication cost is attributed to the method that incurred it.
    fn flush_memos(&mut self) {}
}

impl SolverOracle for hat_logic::Solver {
    fn is_sat(&mut self, vars: &[(Ident, Sort)], facts: &[Formula]) -> bool {
        self.is_satisfiable(vars, &Formula::and(facts.to_vec()))
    }

    fn entails(&mut self, vars: &[(Ident, Sort)], facts: &[Formula], goal: &Formula) -> bool {
        hat_logic::Solver::entails(self, vars, facts, goal)
    }

    fn query_count(&self) -> usize {
        self.stats.queries
    }

    fn query_time(&self) -> Duration {
        self.stats.time
    }

    fn theory_checks(&self) -> usize {
        self.stats.theory_checks
    }

    fn scoped_session<'a>(
        &'a mut self,
        vars: &[(Ident, Sort)],
        base: &[Formula],
        literals: &[Atom],
    ) -> Option<ScopedSession<'a>> {
        Some(self.scoped(vars, base, literals))
    }
}

/// Resolves DFA transitions by SMT entailment, with caching.
struct MatchOracle<'a> {
    ctx: &'a VarCtx,
    ops: &'a [OpSig],
    oracle: &'a mut dyn SolverOracle,
    /// Keyed on (operator, canonically-renamed qualifier, minterm): event binder
    /// spellings never reach the entailment query, so they must not split the cache
    /// either (DFA states carry α-normalised binders, the original automata the
    /// user's).
    event_cache: BTreeMap<(String, Formula, Minterm), bool>,
    guard_cache: BTreeMap<(Formula, Minterm), bool>,
    /// The signature assembled by the last `derivative_lookup` miss. `Dfa::build` always
    /// pairs a miss with a `derivative_store` for the same transition, so the store
    /// reuses it instead of re-walking the state and re-probing the answer caches.
    pending_signature: Option<Signature>,
    /// Number of successors answered from the oracle's transition memo.
    memo_hits: usize,
    /// Number of answers that fell back to a context-dependent SMT entailment because
    /// `eval_under` found an atom outside the minterm's assignment. While this stays at
    /// zero a group's verdict is a pure function of its (automata, alphabet) shape, so
    /// it may be stored in the shape memo.
    fallback_queries: usize,
}

impl<'a> MatchOracle<'a> {
    fn new(ctx: &'a VarCtx, ops: &'a [OpSig], oracle: &'a mut dyn SolverOracle) -> Self {
        MatchOracle {
            ctx,
            ops,
            oracle,
            event_cache: BTreeMap::new(),
            guard_cache: BTreeMap::new(),
            pending_signature: None,
            memo_hits: 0,
            fallback_queries: 0,
        }
    }

    fn event_vars(&self, op: &str) -> Vec<(Ident, Sort)> {
        let mut vars = self.ctx.vars.clone();
        if let Some(sig) = self.ops.iter().find(|o| o.name == op) {
            for (i, (_, sort)) in sig.args.iter().enumerate() {
                vars.push((arg_name(i), sort.clone()));
            }
            vars.push((res_name(), sig.ret.clone()));
        }
        vars
    }

    /// The signed answers for every event and guard of `state` under `m` — the complete
    /// oracle data a derivative of `state` with respect to `m` can consult. The
    /// underlying entailment queries share the per-check caches with the derivative
    /// computation itself, so resolving the signature never duplicates solver work.
    fn answer_signature(&mut self, state: &Sfa, m: &Minterm) -> Signature {
        let mut events = Vec::new();
        let mut guards = Vec::new();
        state.collect_events_guards(&mut events, &mut guards);
        let events: Vec<(SymbolicEvent, bool)> = events
            .into_iter()
            .map(|e| {
                let e = e.clone();
                let ans = self.event_matches(&e, m);
                (e, ans)
            })
            .collect();
        let guards: Vec<(Formula, bool)> = guards
            .into_iter()
            .map(|phi| {
                let phi = phi.clone();
                let ans = self.guard_holds(&phi, m);
                (phi, ans)
            })
            .collect();
        Signature { events, guards }
    }
}

/// The signed event/guard answers of one minterm with respect to a pair of automata:
/// minterms with equal signatures are interchangeable alphabet symbols (they induce the
/// same successor on every residual state), so only one representative per signature has
/// to survive into product construction.
struct Signature {
    events: Vec<(SymbolicEvent, bool)>,
    guards: Vec<(Formula, bool)>,
}

impl Signature {
    fn event_refs(&self) -> Vec<(&SymbolicEvent, bool)> {
        self.events.iter().map(|(e, b)| (e, *b)).collect()
    }

    fn guard_refs(&self) -> Vec<(&Formula, bool)> {
        self.guards.iter().map(|(phi, b)| (phi, *b)).collect()
    }
}

impl TransitionOracle for MatchOracle<'_> {
    fn event_matches(&mut self, e: &SymbolicEvent, m: &Minterm) -> bool {
        if e.op != m.op {
            return false;
        }
        let renamed = e.phi.rename_free_vars(&|v: &str| {
            if v == e.result {
                Some(res_name())
            } else {
                e.args.iter().position(|x| x == v).map(arg_name)
            }
        });
        // A minterm is a complete truth assignment over the literal pool, and the pool
        // collected every atom of this (canonically renamed) qualifier, so the entailment
        // `Γ ∧ m ⊨ φ` is decided by evaluating φ under the assignment: if φ evaluates
        // true it is entailed propositionally; if false, any model of the (satisfiable)
        // minterm falsifies it. No SMT query is needed — the solver fallback only fires
        // for qualifiers with atoms from outside the pool.
        if let Some(v) = eval_under(&renamed, &m.assignment) {
            return v;
        }
        // Context-dependent answer: the verdict is no longer a pure function of the
        // (automata, alphabet) shape, so the surrounding group must not be shape-stored.
        self.fallback_queries += 1;
        let key = (e.op.clone(), renamed, m.clone());
        if let Some(&v) = self.event_cache.get(&key) {
            return v;
        }
        let mut facts = self.ctx.facts.clone();
        facts.push(m.formula());
        let vars = self.event_vars(&m.op);
        let result = self.oracle.entails(&vars, &facts, &key.1);
        self.event_cache.insert(key, result);
        result
    }

    fn guard_holds(&mut self, phi: &Formula, m: &Minterm) -> bool {
        // Guards mention only context variables; their atoms are uniform literals of the
        // pool, all assigned by the minterm (see `event_matches`).
        if let Some(v) = eval_under(phi, &m.assignment) {
            return v;
        }
        self.fallback_queries += 1;
        let key = (phi.clone(), m.clone());
        if let Some(&v) = self.guard_cache.get(&key) {
            return v;
        }
        let mut facts = self.ctx.facts.clone();
        facts.push(m.formula());
        let vars = self.event_vars(&m.op);
        let result = self.oracle.entails(&vars, &facts, phi);
        self.guard_cache.insert(key, result);
        result
    }

    fn derivative_lookup(&mut self, state: &Sfa, m: &Minterm) -> Option<Sfa> {
        if !self.oracle.memoises(MemoKind::Transition) {
            return None;
        }
        let sig = self.answer_signature(state, m);
        let events = sig.event_refs();
        let guards = sig.guard_refs();
        let query = MemoQuery::Transition {
            state,
            events: &events,
            guards: &guards,
        };
        let found = match self.oracle.memo_lookup(&query) {
            Some(MemoAnswer::Transition(succ)) => Some(succ.into_owned()),
            _ => None,
        };
        if found.is_some() {
            self.memo_hits += 1;
        }
        self.pending_signature = found.is_none().then_some(sig);
        found
    }

    fn derivative_store(&mut self, state: &Sfa, m: &Minterm, succ: &Sfa) {
        if !self.oracle.memoises(MemoKind::Transition) {
            return;
        }
        // The paired lookup (a miss) left its signature behind; recompute (from the
        // per-check answer caches it filled) only if the pairing was broken by an
        // unexpected call sequence.
        let sig = self
            .pending_signature
            .take()
            .unwrap_or_else(|| self.answer_signature(state, m));
        let events = sig.event_refs();
        let guards = sig.guard_refs();
        let query = MemoQuery::Transition {
            state,
            events: &events,
            guards: &guards,
        };
        self.oracle
            .memo_store(&query, &MemoAnswer::Transition(Cow::Borrowed(succ)));
    }

    fn subsumption_lookup(&mut self, a: &Sfa, b: &Sfa, alphabet: &[Minterm]) -> Option<bool> {
        if !self.oracle.memoises(MemoKind::Subsumption) {
            return None;
        }
        let query = MemoQuery::Subsumption { a, b, alphabet };
        self.oracle
            .memo_lookup(&query)
            .and_then(|ans| ans.verdict())
    }

    fn subsumption_store(&mut self, a: &Sfa, b: &Sfa, alphabet: &[Minterm], verdict: bool) {
        if !self.oracle.memoises(MemoKind::Subsumption) {
            return;
        }
        // The `shape_key` purity discipline: an SMT fallback anywhere in this check
        // means transition rows may have consulted the typing context behind the key's
        // back, so nothing computed from them is a pure function of its key.
        if self.fallback_queries > 0 {
            return;
        }
        let query = MemoQuery::Subsumption { a, b, alphabet };
        self.oracle
            .memo_store(&query, &MemoAnswer::Verdict(verdict));
    }
}

/// How each per-group language-inclusion problem over the minterm alphabet is decided.
///
/// Whenever both pipelines complete they return the same verdict (they explore the same
/// reachable product pairs). The one asymmetry is the DFA state bound: an early
/// counterexample can let the on-the-fly walk decide an instance whose materialised
/// pipeline would abort with [`DfaBuildError::TooManyStates`] — the verdict is still
/// correct (the counterexample word exists regardless of the bound). The converse cannot
/// happen: the walk only discovers residual states the complete builds also contain, so
/// if the walk exceeds the bound, materialisation would too.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InclusionMode {
    /// On-the-fly emptiness of `A × complement(det(B))`: derive transition rows only for
    /// residual states the product frontier reaches, exit at the first accepting product
    /// state. Never materialises either DFA.
    #[default]
    OnTheFly,
    /// Build both complete DFAs, then BFS their product (the paper-faithful baseline,
    /// kept for differential testing and measurement).
    Materialise,
}

/// The symbolic-automaton inclusion checker.
///
/// It is parameterised by the alphabet of effectful operators in scope (the library API)
/// and a bound on the number of DFA states.
#[derive(Debug, Clone)]
pub struct InclusionChecker {
    /// Signatures of every effectful operator that may appear in traces.
    pub ops: Vec<OpSig>,
    /// Bound on the number of DFA states per automaton.
    pub max_states: usize,
    /// How minterm satisfiability is established during alphabet transformation.
    pub enumeration: EnumerationMode,
    /// Whether per-group alphabet pruning runs before product construction (on by
    /// default; the unpruned path is kept for differential testing and measurement).
    /// Pruning collapses alphabet symbols with identical transition behaviour — e.g.
    /// the one-minterm families of operators referenced by neither automaton — and is
    /// verdict- and state-count-preserving.
    pub prune: bool,
    /// How each per-group inclusion problem is decided (on-the-fly product walk by
    /// default; the materialising path is kept for differential testing and
    /// measurement).
    pub mode: InclusionMode,
    /// How the on-the-fly walk prunes its frontier (antichain subsumption, see
    /// [`crate::subsume`]; simulation by default, verdict-identical in every mode).
    /// Ignored by [`InclusionMode::Materialise`], which is the unpruned baseline.
    pub subsume: SubsumptionMode,
    /// Running totals of the counters inclusion checking owns (the oracle readings
    /// stay zero here; `fa_time` includes solver time).
    pub stats: CheckStats,
}

impl InclusionChecker {
    /// Creates a checker for the given operator alphabet.
    pub fn new(ops: Vec<OpSig>) -> Self {
        InclusionChecker {
            ops,
            max_states: 8192,
            enumeration: EnumerationMode::default(),
            prune: true,
            mode: InclusionMode::default(),
            subsume: SubsumptionMode::default(),
            stats: CheckStats::default(),
        }
    }

    /// Checks `Γ ⊢ A ⊆ B`.
    pub fn check(
        &mut self,
        ctx: &VarCtx,
        a: &Sfa,
        b: &Sfa,
        oracle: &mut dyn SolverOracle,
    ) -> Result<bool, DfaBuildError> {
        let start = Instant::now();
        let result = self.check_inner(ctx, a, b, oracle);
        self.stats.fa_time += start.elapsed();
        result
    }

    fn check_inner(
        &mut self,
        ctx: &VarCtx,
        a: &Sfa,
        b: &Sfa,
        oracle: &mut dyn SolverOracle,
    ) -> Result<bool, DfaBuildError> {
        // Trivial cases avoid minterm construction entirely.
        if a == b || matches!(a, Sfa::Zero) || b.is_universe() {
            return Ok(true);
        }
        // Structurally equal inclusion checks (same context, operators and automata up to
        // α-renaming) skip minterm construction and DFA building entirely.
        let memoises_inclusion = oracle.memoises(MemoKind::Inclusion);
        if memoises_inclusion {
            let query = MemoQuery::Inclusion {
                ctx,
                ops: &self.ops,
                max_states: self.max_states,
                a,
                b,
            };
            if let Some(verdict) = oracle.memo_lookup(&query).and_then(|ans| ans.verdict()) {
                self.stats.inclusion_memo_hits += 1;
                return Ok(verdict);
            }
        }
        let set = build_minterms_with(ctx, &self.ops, &[a, b], oracle, self.enumeration);
        self.stats.minterms += set.minterms.len();
        self.stats.enum_queries += set.enum_queries;
        self.stats.pruned_subtrees += set.pruned;
        if set.from_memo {
            self.stats.minterm_memo_hits += 1;
        }
        let mut matcher = MatchOracle::new(ctx, &self.ops, oracle);
        let mut verdict = true;
        for group in set.uniform_groups() {
            let mut alphabet: Vec<Minterm> = set
                .group_indices(&group)
                .into_iter()
                .map(|i| set.minterms[i].clone())
                .collect();
            if self.prune {
                let before = alphabet.len();
                alphabet = prune_alphabet(a, b, alphabet, &mut matcher);
                self.stats.alphabet_pruned += before - alphabet.len();
            }
            // Shape memoisation: the α-renamed (A, B, pruned alphabet) determines the
            // group verdict, so α-equal shapes skip the walk — across contexts, methods
            // and benchmarks.
            let memoises_shape = matcher.oracle.memoises(MemoKind::Shape);
            let shape_query = MemoQuery::Shape {
                a,
                b,
                alphabet: &alphabet,
                max_states: self.max_states,
            };
            if memoises_shape {
                if let Some(hit) = matcher
                    .oracle
                    .memo_lookup(&shape_query)
                    .and_then(|ans| ans.verdict())
                {
                    self.stats.shape_memo_hits += 1;
                    if !hit {
                        verdict = false;
                        break;
                    }
                    continue;
                }
            }
            let fallbacks_before = matcher.fallback_queries;
            let included = match self.mode {
                InclusionMode::OnTheFly => {
                    let run = product_included_with(
                        a,
                        b,
                        &alphabet,
                        &mut matcher,
                        self.max_states,
                        self.subsume,
                    )?;
                    self.stats += run.stats;
                    self.stats.dfas_built += 2;
                    self.stats.dfa_states += run.left_states + run.right_states;
                    self.stats.dfa_transitions += run.left_transitions + run.right_transitions;
                    run.included
                }
                InclusionMode::Materialise => {
                    let da = Dfa::build(a, &alphabet, &mut matcher, self.max_states)?;
                    let db = Dfa::build(b, &alphabet, &mut matcher, self.max_states)?;
                    self.stats.dfas_built += 2;
                    self.stats.dfa_states += da.num_states() + db.num_states();
                    self.stats.dfa_transitions += da.num_transitions() + db.num_transitions();
                    da.included_in(&db).is_ok()
                }
            };
            self.stats.fa_inclusions += 1;
            if memoises_shape {
                // Only a fully propositional walk is a pure function of its shape; an
                // SMT fallback would have consulted the typing context behind the key's
                // back (unreachable for alphabets built from the automata's own literal
                // pool, but guarded rather than assumed).
                if matcher.fallback_queries == fallbacks_before {
                    matcher
                        .oracle
                        .memo_store(&shape_query, &MemoAnswer::Verdict(included));
                }
            }
            if !included {
                verdict = false;
                break;
            }
        }
        self.stats.transition_memo_hits += matcher.memo_hits;
        if memoises_inclusion {
            let query = MemoQuery::Inclusion {
                ctx,
                ops: &self.ops,
                max_states: self.max_states,
                a,
                b,
            };
            matcher
                .oracle
                .memo_store(&query, &MemoAnswer::Verdict(verdict));
        }
        Ok(verdict)
    }
}

/// Three-valued evaluation of a formula under a (partial) truth assignment to its atoms:
/// `Some(v)` when the assigned atoms determine the value, `None` when an unassigned atom
/// (or a quantifier) leaves it open. Short-circuiting is sound: a falsified conjunct
/// decides a conjunction even when siblings are undetermined. Shared with the
/// subsumption order's leaf-support comparison ([`crate::subsume`]).
pub(crate) fn eval_under(f: &Formula, assignment: &[(Atom, bool)]) -> Option<bool> {
    match f {
        Formula::True => Some(true),
        Formula::False => Some(false),
        Formula::Atom(a) => assignment.iter().find(|(x, _)| x == a).map(|(_, v)| *v),
        Formula::Not(g) => eval_under(g, assignment).map(|b| !b),
        Formula::And(fs) => {
            let mut all_known = true;
            for g in fs {
                match eval_under(g, assignment) {
                    Some(false) => return Some(false),
                    Some(true) => {}
                    None => all_known = false,
                }
            }
            all_known.then_some(true)
        }
        Formula::Or(fs) => {
            let mut all_known = true;
            for g in fs {
                match eval_under(g, assignment) {
                    Some(true) => return Some(true),
                    Some(false) => {}
                    None => all_known = false,
                }
            }
            all_known.then_some(false)
        }
        Formula::Implies(p, q) => match (eval_under(p, assignment), eval_under(q, assignment)) {
            (Some(false), _) | (_, Some(true)) => Some(true),
            (Some(true), Some(false)) => Some(false),
            _ => None,
        },
        Formula::Iff(p, q) => Some(eval_under(p, assignment)? == eval_under(q, assignment)?),
        Formula::Forall(_, _, _) => None,
    }
}

/// Per-group alphabet pruning: keeps one representative of every transition-behaviour
/// class of the group's minterms.
///
/// Within one uniform group, two minterms whose signed answers agree on every symbolic
/// event and guard of `a` and `b` induce the same successor on every residual state of
/// either DFA (a derivative can only consult the events and guards of the formula it
/// derives, all of which occur in the original pair), so the product construction over
/// the pruned alphabet reaches exactly the same states and the same inclusion verdict —
/// only the duplicate columns disappear. The classic win is operators referenced by
/// neither automaton: each contributes one all-false column per group, and they all
/// collapse into one.
///
/// The signature entailments are answered through the same per-check caches the DFA
/// construction uses, so pruning issues no query the unpruned build would not.
fn prune_alphabet(
    a: &Sfa,
    b: &Sfa,
    alphabet: Vec<Minterm>,
    matcher: &mut MatchOracle,
) -> Vec<Minterm> {
    let mut events = Vec::new();
    let mut guards = Vec::new();
    a.collect_events_guards(&mut events, &mut guards);
    b.collect_events_guards(&mut events, &mut guards);
    let mut seen: std::collections::BTreeSet<Vec<bool>> = std::collections::BTreeSet::new();
    let mut kept = Vec::with_capacity(alphabet.len());
    for m in alphabet {
        let mut bits: Vec<bool> = Vec::with_capacity(events.len() + guards.len());
        for e in &events {
            bits.push(matcher.event_matches(e, &m));
        }
        for phi in &guards {
            bits.push(matcher.guard_holds(phi, &m));
        }
        if seen.insert(bits) {
            kept.push(m);
        }
    }
    kept
}

/// Helpers shared by this crate's unit tests.
#[cfg(test)]
pub mod tests_support {
    /// In tests the "oracle" is simply the real solver.
    pub type PlainOracle = hat_logic::Solver;
}

#[cfg(test)]
mod tests {
    use super::*;
    use hat_logic::{Solver, Term};

    fn set_ops() -> Vec<OpSig> {
        vec![
            OpSig::new("insert", vec![("x".into(), Sort::Int)], Sort::Unit),
            OpSig::new("mem", vec![("x".into(), Sort::Int)], Sort::Bool),
        ]
    }

    fn ins_el() -> Sfa {
        Sfa::event(
            "insert",
            vec!["x".into()],
            "v",
            Formula::eq(Term::var("x"), Term::var("el")),
        )
    }

    /// I_Set(el): once el is inserted it is never inserted again.
    fn uniqueness_invariant() -> Sfa {
        Sfa::globally(Sfa::implies(
            ins_el(),
            Sfa::next(Sfa::not(Sfa::eventually(ins_el()))),
        ))
    }

    fn ctx_el() -> VarCtx {
        VarCtx::new(vec![("el".into(), Sort::Int)], vec![])
    }

    #[test]
    fn reflexivity_and_trivial_cases() {
        let mut checker = InclusionChecker::new(set_ops());
        let mut solver = Solver::default();
        let inv = uniqueness_invariant();
        assert!(checker.check(&ctx_el(), &inv, &inv, &mut solver).unwrap());
        assert!(checker
            .check(&ctx_el(), &Sfa::Zero, &inv, &mut solver)
            .unwrap());
        assert!(checker
            .check(&ctx_el(), &inv, &Sfa::universe(), &mut solver)
            .unwrap());
    }

    #[test]
    fn strictly_smaller_language_is_included() {
        let mut checker = InclusionChecker::new(set_ops());
        let mut solver = Solver::default();
        let never = Sfa::globally(Sfa::not(ins_el()));
        let at_most_once = uniqueness_invariant();
        assert!(checker
            .check(&ctx_el(), &never, &at_most_once, &mut solver)
            .unwrap());
        assert!(!checker
            .check(&ctx_el(), &at_most_once, &never, &mut solver)
            .unwrap());
        assert!(checker.stats.fa_inclusions >= 2);
        assert!(checker.stats.minterms >= 2);
        // Transition resolution is propositional (minterms assign every qualifier atom),
        // so the remaining solver work is the scoped enumeration of the alphabet.
        assert!(solver.stats.queries + checker.stats.enum_queries > 0);
    }

    #[test]
    fn insert_preserves_uniqueness_only_when_not_present() {
        let mut checker = InclusionChecker::new(set_ops());
        let mut solver = Solver::default();
        let inv = uniqueness_invariant();
        // Context automaton: invariant holds and el has never been inserted.
        let ctx_auto = Sfa::and(vec![inv.clone(), Sfa::not(Sfa::eventually(ins_el()))]);
        // After appending a single insert of el, the invariant must still hold:
        //   (ctx; ⟨insert el⟩ ∧ LAST) ⊆ I
        let post = Sfa::concat(ctx_auto, Sfa::and(vec![ins_el(), Sfa::last()]));
        assert!(checker.check(&ctx_el(), &post, &inv, &mut solver).unwrap());

        // Without the "not present" assumption the insertion may duplicate el:
        let bad_post = Sfa::concat(inv.clone(), Sfa::and(vec![ins_el(), Sfa::last()]));
        assert!(!checker
            .check(&ctx_el(), &bad_post, &inv, &mut solver)
            .unwrap());
    }

    #[test]
    fn guard_disjunct_splits_into_uniform_groups() {
        // A = □⟨isRoot(p)⟩ ∨ □¬⟨put key _ = v | key = p⟩ is included in itself but not in
        // □¬⟨put key _ = v | key = p⟩ alone (the root case allows puts of p).
        let kv_ops = vec![OpSig::new(
            "put",
            vec![
                ("key".into(), Sort::named("Path.t")),
                ("val".into(), Sort::named("Bytes.t")),
            ],
            Sort::Unit,
        )];
        let put_p = Sfa::event(
            "put",
            vec!["key".into(), "val".into()],
            "v",
            Formula::eq(Term::var("key"), Term::var("p")),
        );
        let root_guard = Sfa::globally(Sfa::guard(Formula::pred("isRoot", vec![Term::var("p")])));
        let no_put_p = Sfa::globally(Sfa::not(put_p));
        let a = Sfa::or(vec![root_guard, no_put_p.clone()]);
        let ctx = VarCtx::new(vec![("p".into(), Sort::named("Path.t"))], vec![]);
        let mut checker = InclusionChecker::new(kv_ops);
        let mut solver = Solver::default();
        assert!(checker.check(&ctx, &a, &a, &mut solver).unwrap());
        assert!(!checker.check(&ctx, &a, &no_put_p, &mut solver).unwrap());
        // With the context fact isRoot(p), A collapses to the universe, so inclusion in
        // the no-put automaton still fails...
        let ctx_root = VarCtx::new(
            vec![("p".into(), Sort::named("Path.t"))],
            vec![Formula::pred("isRoot", vec![Term::var("p")])],
        );
        assert!(!checker
            .check(&ctx_root, &a, &no_put_p, &mut solver)
            .unwrap());
        // ...but inclusion of the no-put automaton in A succeeds trivially under that fact.
        assert!(checker
            .check(&ctx_root, &no_put_p, &a, &mut solver)
            .unwrap());
    }

    #[test]
    fn context_facts_prune_impossible_events() {
        // Under the fact el < 0, an insert with argument 0 can never be the element el.
        let ops = set_ops();
        let insert_zero = Sfa::event(
            "insert",
            vec!["x".into()],
            "v",
            Formula::eq(Term::var("x"), Term::int(0)),
        );
        let not_ins_el = Sfa::globally(Sfa::not(ins_el()));
        let only_zero = Sfa::globally(Sfa::or(vec![Sfa::not(Sfa::any_event()), insert_zero]));
        let ctx = VarCtx::new(
            vec![("el".into(), Sort::Int)],
            vec![Formula::lt(Term::var("el"), Term::int(0))],
        );
        let mut checker = InclusionChecker::new(ops);
        let mut solver = Solver::default();
        // Every trace of inserts of 0 never inserts el (because el < 0 ≠ 0).
        assert!(checker
            .check(&ctx, &only_zero, &not_ins_el, &mut solver)
            .unwrap());
        // Without the context fact the inclusion must fail (el could be 0).
        let ctx_plain = ctx_el();
        assert!(!checker
            .check(&ctx_plain, &only_zero, &not_ins_el, &mut solver)
            .unwrap());
    }

    #[test]
    fn stats_accumulate() {
        let mut checker = InclusionChecker::new(set_ops());
        let mut solver = Solver::default();
        let inv = uniqueness_invariant();
        let never = Sfa::globally(Sfa::not(ins_el()));
        let _ = checker.check(&ctx_el(), &never, &inv, &mut solver).unwrap();
        assert!(checker.stats.dfas_built >= 2);
        assert!(checker.stats.dfa_transitions > 0);
        assert!(checker.stats.avg_fa_size() > 0.0);
        let mut other = CheckStats::default();
        other += checker.stats;
        assert_eq!(other.fa_inclusions, checker.stats.fa_inclusions);
    }
}
