//! Canonical forms for solver queries.
//!
//! Two satisfiability queries that differ only in the *names* of their variables have the
//! same answer, and — after the determinism fix in `hat-logic` (the fresh-name counter is
//! restarted per query) — the solver produces that answer by an identical computation on
//! the renamed form. This module exploits that: it α-renames a query into a canonical form
//! whose free variables are numbered `$k0, $k1, …` in order of first occurrence and whose
//! bound variables are numbered `$q0, $q1, …` in traversal order, then serialises the
//! result into a stable textual key.
//!
//! Keys are *sound*, not complete: α-equivalent queries (same sorts, renamed variables,
//! renamed binders) collide; queries that differ in structure — reordered conjuncts,
//! distinct sorts that merely share a display name, different goals — do not. Every
//! user-supplied identifier (predicate names, function symbols, named sorts, atom
//! constants) is length-prefixed in the key, so no crafted name can alias another key.

use hat_logic::{Atom, AxiomSet, Constant, Formula, FuncSym, Ident, Sort, Term};
use hat_sfa::{LiteralPool, MemoQuery, Minterm, MintermSet, OpSig, Sfa, VarCtx};
use std::collections::BTreeMap;

/// A query in canonical form: the renamed sort environment, the renamed formula, and the
/// stable cache key. Solving `formula` under `vars` is equivalent to solving the original
/// query, and depends only on `key`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CanonicalQuery {
    /// Sorts of the canonical free variables, in order of first occurrence.
    pub vars: Vec<(Ident, Sort)>,
    /// The α-renamed formula.
    pub formula: Formula,
    /// The stable textual key identifying the query up to α-equivalence.
    pub key: String,
}

struct Renamer<'a> {
    /// Declared sorts of the original free variables.
    env: BTreeMap<&'a str, &'a Sort>,
    /// Original free-variable name → canonical name.
    free: BTreeMap<Ident, Ident>,
    /// Canonical environment, in assignment order.
    out_vars: Vec<(Ident, Sort)>,
    /// Number of binders renamed so far.
    binders: usize,
}

impl Renamer<'_> {
    fn free_name(&mut self, x: &str) -> Ident {
        if let Some(c) = self.free.get(x) {
            return c.clone();
        }
        let canon = format!("$k{}", self.free.len());
        self.free.insert(x.to_string(), canon.clone());
        if let Some(sort) = self.env.get(x) {
            self.out_vars.push((canon.clone(), (*sort).clone()));
        }
        canon
    }

    fn term(&mut self, t: &Term, bound: &[(Ident, Ident)]) -> Term {
        match t {
            Term::Var(x) => match bound.iter().rev().find(|(orig, _)| orig == x) {
                Some((_, canon)) => Term::Var(canon.clone()),
                None => Term::Var(self.free_name(x)),
            },
            Term::Const(_) => t.clone(),
            Term::App(f, args) => Term::App(
                f.clone(),
                args.iter().map(|a| self.term(a, bound)).collect(),
            ),
        }
    }

    fn atom(&mut self, a: &Atom, bound: &[(Ident, Ident)]) -> Atom {
        match a {
            Atom::Eq(l, r) => Atom::Eq(self.term(l, bound), self.term(r, bound)),
            Atom::Lt(l, r) => Atom::Lt(self.term(l, bound), self.term(r, bound)),
            Atom::Le(l, r) => Atom::Le(self.term(l, bound), self.term(r, bound)),
            Atom::Pred(p, args) => Atom::Pred(
                p.clone(),
                args.iter().map(|t| self.term(t, bound)).collect(),
            ),
            Atom::BoolTerm(t) => Atom::BoolTerm(self.term(t, bound)),
        }
    }

    fn formula(&mut self, f: &Formula, bound: &mut Vec<(Ident, Ident)>) -> Formula {
        match f {
            Formula::True | Formula::False => f.clone(),
            Formula::Atom(a) => Formula::Atom(self.atom(a, bound)),
            Formula::Not(g) => Formula::Not(Box::new(self.formula(g, bound))),
            Formula::And(fs) => Formula::And(fs.iter().map(|g| self.formula(g, bound)).collect()),
            Formula::Or(fs) => Formula::Or(fs.iter().map(|g| self.formula(g, bound)).collect()),
            Formula::Implies(p, q) => Formula::Implies(
                Box::new(self.formula(p, bound)),
                Box::new(self.formula(q, bound)),
            ),
            Formula::Iff(p, q) => Formula::Iff(
                Box::new(self.formula(p, bound)),
                Box::new(self.formula(q, bound)),
            ),
            Formula::Forall(x, s, body) => {
                let canon = format!("$q{}", self.binders);
                self.binders += 1;
                bound.push((x.clone(), canon.clone()));
                let renamed = self.formula(body, bound);
                bound.pop();
                Formula::Forall(canon, s.clone(), Box::new(renamed))
            }
        }
    }
}

/// Canonicalises a satisfiability query. Variables declared in `vars` but not occurring in
/// `f` are dropped (they cannot affect satisfiability: every sort is inhabited).
///
/// ```
/// use hat_engine::canonicalize;
/// use hat_logic::{Formula, Sort, Term};
///
/// let env = |names: &[&str]| -> Vec<(String, Sort)> {
///     names.iter().map(|n| (n.to_string(), Sort::Int)).collect()
/// };
/// // α-equivalent queries share a key — including y < x, which first-occurrence
/// // numbering renames to the same canonical form ($k0 < $k1)...
/// let xy = canonicalize(&env(&["x", "y"]), &Formula::lt(Term::var("x"), Term::var("y")));
/// let ab = canonicalize(&env(&["a", "b"]), &Formula::lt(Term::var("a"), Term::var("b")));
/// let yx = canonicalize(&env(&["x", "y"]), &Formula::lt(Term::var("y"), Term::var("x")));
/// assert_eq!(xy.key, ab.key);
/// assert_eq!(xy.key, yx.key);
/// // ...while structurally different queries never collide.
/// let le = canonicalize(&env(&["x", "y"]), &Formula::le(Term::var("x"), Term::var("y")));
/// assert_ne!(xy.key, le.key);
/// ```
pub fn canonicalize(vars: &[(Ident, Sort)], f: &Formula) -> CanonicalQuery {
    let mut renamer = Renamer {
        env: vars.iter().map(|(x, s)| (x.as_str(), s)).collect(),
        free: BTreeMap::new(),
        out_vars: Vec::new(),
        binders: 0,
    };
    let mut bound = Vec::new();
    let formula = renamer.formula(f, &mut bound);
    let mut key = String::with_capacity(128);
    key.push_str("sat|");
    for (x, s) in &renamer.out_vars {
        key.push_str(x);
        key.push(':');
        ser_sort(s, &mut key);
        key.push(',');
    }
    key.push('|');
    ser_formula(&formula, &mut key);
    CanonicalQuery {
        vars: renamer.out_vars,
        formula,
        key,
    }
}

/// A canonical key for one alphabet transformation — the typing context, the operator
/// alphabet and the collected literal pool, α-renamed — together with the renaming that
/// produced it. Two structurally equal transformations (e.g. the same obligation under
/// differently-freshened ghost variables) share a key; the renaming moves a memoised
/// [`MintermSet`] between them.
#[derive(Debug, Clone)]
pub struct AlphabetKey {
    /// The stable textual key (prefix it with an axiom-set fingerprint before sharing a
    /// cache across benchmarks).
    pub key: String,
    /// Original free-variable name → canonical name, in order of first occurrence.
    forward: BTreeMap<Ident, Ident>,
}

impl AlphabetKey {
    fn rename_set(set: &MintermSet, rename: &dyn Fn(&str) -> Option<Ident>) -> MintermSet {
        MintermSet {
            minterms: set
                .minterms
                .iter()
                .map(|m| Minterm {
                    op: m.op.clone(),
                    assignment: m
                        .assignment
                        .iter()
                        .map(|(a, v)| (a.rename_vars(rename), *v))
                        .collect(),
                })
                .collect(),
            uniform_literals: set
                .uniform_literals
                .iter()
                .map(|a| a.rename_vars(rename))
                .collect(),
            pruned: set.pruned,
            enum_queries: set.enum_queries,
            from_memo: set.from_memo,
        }
    }

    /// Renames a minterm set built for this key's original query into canonical names
    /// (the form stored in a shared memo).
    pub fn to_canonical(&self, set: &MintermSet) -> MintermSet {
        Self::rename_set(set, &|x| self.forward.get(x).cloned())
    }

    /// Renames a memoised canonical minterm set back into this key's original names.
    pub fn from_canonical(&self, set: &MintermSet) -> MintermSet {
        let inverse: BTreeMap<&str, &Ident> = self
            .forward
            .iter()
            .map(|(orig, canon)| (canon.as_str(), orig))
            .collect();
        Self::rename_set(set, &|x| inverse.get(x).map(|orig| (*orig).clone()))
    }
}

fn renamer_for<'a>(ctx: &'a VarCtx) -> Renamer<'a> {
    Renamer {
        env: ctx.vars.iter().map(|(x, s)| (x.as_str(), s)).collect(),
        free: BTreeMap::new(),
        out_vars: Vec::new(),
        binders: 0,
    }
}

fn ser_ops(ops: &[OpSig], out: &mut String) {
    for op in ops {
        out.push('O');
        ser_name(&op.name, out);
        out.push(':');
        // Argument names are irrelevant (minterm literals use the canonical `#argN`
        // names); only the sorts and the arity matter.
        for (_, sort) in &op.args {
            ser_sort(sort, out);
        }
        out.push('>');
        ser_sort(&op.ret, out);
    }
}

/// Canonicalises an alphabet transformation: the context facts, operator alphabet and
/// literal pool, α-renamed with one shared renamer so a memoised minterm set can be
/// transported between α-equivalent queries.
pub fn alphabet_key(ctx: &VarCtx, ops: &[OpSig], pool: &LiteralPool) -> AlphabetKey {
    let mut renamer = renamer_for(ctx);
    let mut bound = Vec::new();
    let mut body = String::with_capacity(256);
    for fact in &ctx.facts {
        body.push('f');
        ser_formula(&renamer.formula(fact, &mut bound), &mut body);
    }
    ser_ops(ops, &mut body);
    for (op, atoms) in &pool.per_op {
        body.push('p');
        ser_name(op, &mut body);
        for a in atoms {
            ser_atom(&renamer.atom(a, &bound), &mut body);
        }
    }
    body.push('u');
    for a in &pool.uniform {
        ser_atom(&renamer.atom(a, &bound), &mut body);
    }
    let mut key = String::with_capacity(body.len() + 64);
    key.push_str("mt|");
    for (x, s) in &renamer.out_vars {
        key.push_str(x);
        key.push(':');
        ser_sort(s, &mut key);
        key.push(',');
    }
    key.push('|');
    key.push_str(&body);
    AlphabetKey {
        key,
        forward: renamer.free,
    }
}

/// A canonical key for one DFA transition — the residual state formula together with the
/// signed oracle answers for every symbolic event and guard occurring in it, α-renamed —
/// plus the renaming that produced it.
///
/// A Brzozowski successor is a pure *syntactic* function of exactly this data: the
/// derivative construction consults the oracle only for events and guards of the formula
/// it derives, and axioms, context facts and the concrete minterm influence the successor
/// only through those answers (which are part of the key). The key therefore carries no
/// axiom fingerprint — structurally equal transitions are shared across benchmarks.
#[derive(Debug, Clone)]
pub struct TransitionKey {
    /// The stable textual key.
    pub key: String,
    /// Original free-variable name → canonical name, in order of first occurrence.
    forward: BTreeMap<Ident, Ident>,
}

impl TransitionKey {
    /// Renames a successor computed for this key's original state into canonical names
    /// (the form stored in a shared memo). The caller must pass the successor in
    /// [`Sfa::alpha_normal`] form, so its binders are `$q…` and cannot collide with the
    /// canonical `$k…` free names.
    pub fn to_canonical(&self, succ: &Sfa) -> Sfa {
        succ.rename_free_vars(&|x| self.forward.get(x).cloned())
    }

    /// Renames a memoised canonical successor back into this key's original names. The
    /// result is re-sorted by the caller (`Sfa::alpha_normal`): `And`/`Or` children were
    /// ordered under the storer's names.
    pub fn from_canonical(&self, succ: &Sfa) -> Sfa {
        let inverse: BTreeMap<&str, &Ident> = self
            .forward
            .iter()
            .map(|(orig, canon)| (canon.as_str(), orig))
            .collect();
        succ.rename_free_vars(&|x| inverse.get(x).map(|orig| (*orig).clone()))
    }
}

/// Canonicalises one DFA transition: the residual state and the signed event/guard
/// answers, α-renamed with one shared renamer so a memoised successor can be transported
/// between α-equivalent states.
pub fn transition_key(
    state: &Sfa,
    event_answers: &[(&hat_sfa::SymbolicEvent, bool)],
    guard_answers: &[(&Formula, bool)],
) -> TransitionKey {
    let mut renamer = Renamer {
        env: BTreeMap::new(),
        free: BTreeMap::new(),
        out_vars: Vec::new(),
        binders: 0,
    };
    let mut bound = Vec::new();
    let mut key = String::with_capacity(256);
    key.push_str("tr|");
    ser_sfa(&mut renamer, state, &mut bound, &mut key);
    key.push('|');
    for (e, answer) in event_answers {
        ser_event(&mut renamer, e, &mut bound, &mut key);
        key.push(if *answer { '1' } else { '0' });
    }
    key.push('|');
    for (phi, answer) in guard_answers {
        ser_formula(&renamer.formula(phi, &mut bound), &mut key);
        key.push(if *answer { '1' } else { '0' });
    }
    TransitionKey {
        key,
        forward: renamer.free,
    }
}

/// Canonicalises a whole automata-inclusion check `Γ ⊢ A ⊆ B` into a stable key: the
/// context facts, the operator alphabet, the DFA state bound and both automata, α-renamed
/// with one shared renamer. The verdict of an inclusion check is a pure function of this
/// key (given the axiom-set fingerprint callers prefix), so structurally equal checks can
/// share one memoised verdict and skip minterm construction and DFA building entirely.
pub fn inclusion_check_key(
    ctx: &VarCtx,
    ops: &[OpSig],
    max_states: usize,
    a: &Sfa,
    b: &Sfa,
) -> String {
    let mut renamer = renamer_for(ctx);
    let mut bound = Vec::new();
    let mut body = String::with_capacity(256);
    for fact in &ctx.facts {
        body.push('f');
        ser_formula(&renamer.formula(fact, &mut bound), &mut body);
    }
    ser_ops(ops, &mut body);
    body.push('a');
    ser_sfa(&mut renamer, a, &mut bound, &mut body);
    body.push('b');
    ser_sfa(&mut renamer, b, &mut bound, &mut body);
    let mut key = String::with_capacity(body.len() + 64);
    key.push_str("incl|");
    key.push_str(&max_states.to_string());
    key.push('|');
    for (x, s) in &renamer.out_vars {
        key.push_str(x);
        key.push(':');
        ser_sort(s, &mut key);
        key.push(',');
    }
    key.push('|');
    key.push_str(&body);
    key
}

/// Serialises a symbolic event under the shared renamer. Argument and result names are
/// binders scoping over the event qualifier: they are renamed like quantifier binders,
/// so two events differing only in those names collide.
fn ser_event(
    renamer: &mut Renamer,
    e: &hat_sfa::SymbolicEvent,
    bound: &mut Vec<(Ident, Ident)>,
    out: &mut String,
) {
    out.push_str("(E");
    ser_name(&e.op, out);
    let before = bound.len();
    for arg in &e.args {
        let canon = format!("$q{}", renamer.binders);
        renamer.binders += 1;
        bound.push((arg.clone(), canon));
    }
    let res_canon = format!("$q{}", renamer.binders);
    renamer.binders += 1;
    bound.push((e.result.clone(), res_canon));
    out.push(' ');
    ser_formula(&renamer.formula(&e.phi, bound), out);
    bound.truncate(before);
    out.push(')');
}

/// Serialises a symbolic automaton under the shared renamer (see [`ser_event`] for the
/// binder discipline).
fn ser_sfa(renamer: &mut Renamer, sfa: &Sfa, bound: &mut Vec<(Ident, Ident)>, out: &mut String) {
    match sfa {
        Sfa::Zero => out.push('0'),
        Sfa::Epsilon => out.push('1'),
        Sfa::Event(e) => ser_event(renamer, e, bound, out),
        Sfa::Guard(phi) => {
            out.push_str("(G ");
            ser_formula(&renamer.formula(phi, bound), out);
            out.push(')');
        }
        Sfa::Not(x) => {
            out.push_str("(N ");
            ser_sfa(renamer, x, bound, out);
            out.push(')');
        }
        Sfa::Next(x) => {
            out.push_str("(X ");
            ser_sfa(renamer, x, bound, out);
            out.push(')');
        }
        Sfa::Star(x) => {
            out.push_str("(S ");
            ser_sfa(renamer, x, bound, out);
            out.push(')');
        }
        Sfa::And(parts) => {
            out.push_str("(C ");
            for p in parts {
                ser_sfa(renamer, p, bound, out);
            }
            out.push(')');
        }
        Sfa::Or(parts) => {
            out.push_str("(D ");
            for p in parts {
                ser_sfa(renamer, p, bound, out);
            }
            out.push(')');
        }
        Sfa::Concat(x, y) => {
            out.push_str("(; ");
            ser_sfa(renamer, x, bound, out);
            ser_sfa(renamer, y, bound, out);
            out.push(')');
        }
        Sfa::Until(x, y) => {
            out.push_str("(U ");
            ser_sfa(renamer, x, bound, out);
            ser_sfa(renamer, y, bound, out);
            out.push(')');
        }
    }
}

/// Canonicalises one per-group product walk — its *DFA shape* — into a stable key: both
/// automata in [`Sfa::alpha_normal`] form and every minterm of the (pruned) group
/// alphabet (operator plus signed literal assignment), α-renamed with one shared
/// renamer, plus the DFA state bound.
///
/// The walk's verdict is a pure function of this key: every transition it takes is
/// resolved by evaluating a qualifier of `a`/`b` (or of one of their derivatives, whose
/// qualifiers are subterms) under a minterm's complete literal assignment — both parts
/// of the key — so neither the typing context, the background axioms nor the concrete
/// benchmark enter the computation. The key therefore carries no axiom fingerprint:
/// α-equal shapes share one memoised verdict *across benchmarks*, like the transition
/// memo one level below. (The inclusion checker additionally refuses to store a verdict
/// if an out-of-pool atom ever forced a context-dependent SMT fallback.)
pub fn shape_key(a: &Sfa, b: &Sfa, alphabet: &[Minterm], max_states: usize) -> String {
    let mut renamer = Renamer {
        env: BTreeMap::new(),
        free: BTreeMap::new(),
        out_vars: Vec::new(),
        binders: 0,
    };
    let mut bound = Vec::new();
    let mut key = String::with_capacity(512);
    key.push_str("shape|");
    key.push_str(&max_states.to_string());
    key.push('|');
    ser_sfa(&mut renamer, &a.alpha_normal(), &mut bound, &mut key);
    key.push('|');
    ser_sfa(&mut renamer, &b.alpha_normal(), &mut bound, &mut key);
    key.push('|');
    for m in alphabet {
        key.push('m');
        ser_name(&m.op, &mut key);
        for (atom, value) in &m.assignment {
            ser_atom(&renamer.atom(atom, &bound), &mut key);
            key.push(if *value { '1' } else { '0' });
        }
    }
    key
}

/// Canonicalises one simulation-subsumption verdict `L(a) ⊆ L(b)` over a pruned group
/// alphabet, following [`shape_key`]'s construction (one shared renamer, α-normal
/// residuals, signed minterm assignments) and its axiom-independence argument: the
/// simulation fixpoint only chases transition rows, each resolved by evaluating a
/// qualifier of `a`/`b` (or of a derivative, whose qualifiers are subterms) under a
/// minterm assignment that is part of this key. No state bound is included — the
/// verdict is a semantic fact about the residual pair, not about any walk's budget.
/// (The inclusion checker refuses to store when an SMT fallback fired, and the walk
/// refuses to store pessimistic verdicts that depend on which rows happen to exist.)
pub fn subsumption_key(a: &Sfa, b: &Sfa, alphabet: &[Minterm]) -> String {
    let mut renamer = Renamer {
        env: BTreeMap::new(),
        free: BTreeMap::new(),
        out_vars: Vec::new(),
        binders: 0,
    };
    let mut bound = Vec::new();
    let mut key = String::with_capacity(512);
    key.push_str("subsume|");
    ser_sfa(&mut renamer, &a.alpha_normal(), &mut bound, &mut key);
    key.push('|');
    ser_sfa(&mut renamer, &b.alpha_normal(), &mut bound, &mut key);
    key.push('|');
    for m in alphabet {
        key.push('m');
        ser_name(&m.op, &mut key);
        for (atom, value) in &m.assignment {
            ser_atom(&renamer.atom(atom, &bound), &mut key);
            key.push(if *value { '1' } else { '0' });
        }
    }
    key
}

/// The canonical key of one [`MemoQuery`], together with the renaming needed to
/// transport a stored value back into the query's own variable names (for the kinds
/// whose values contain variables).
///
/// This is the single entry point tying the unified memo interface of
/// [`hat_sfa::SolverOracle`] to the per-kind key constructors of this module; the
/// axiom-fingerprint discipline (prefix [`Minterms`](CanonicalMemoKey::Minterms) and
/// [`Inclusion`](CanonicalMemoKey::Inclusion) keys, never
/// [`Shape`](CanonicalMemoKey::Shape) or [`Transition`](CanonicalMemoKey::Transition)
/// ones) is applied by the caller, which knows its axiom set.
#[derive(Debug, Clone)]
pub enum CanonicalMemoKey {
    /// An [`alphabet_key`] (axiom-dependent: prefix before sharing).
    Minterms(AlphabetKey),
    /// An [`inclusion_check_key`] (axiom-dependent: prefix before sharing).
    Inclusion(String),
    /// A [`shape_key`] (axiom-independent by construction).
    Shape(String),
    /// A [`subsumption_key`] (axiom-independent by construction).
    Subsumption(String),
    /// A [`transition_key`] (axiom-independent by construction).
    Transition(TransitionKey),
}

impl CanonicalMemoKey {
    /// The stable textual key, before any axiom prefix.
    pub(crate) fn key(&self) -> &str {
        match self {
            CanonicalMemoKey::Minterms(alphabet) => &alphabet.key,
            CanonicalMemoKey::Transition(transition) => &transition.key,
            CanonicalMemoKey::Inclusion(key)
            | CanonicalMemoKey::Shape(key)
            | CanonicalMemoKey::Subsumption(key) => key,
        }
    }

    /// Whether verdicts under this key depend on the background axiom set (and the key
    /// must therefore be prefixed with an axiom fingerprint before use in a store shared
    /// across benchmarks).
    pub fn axiom_dependent(&self) -> bool {
        matches!(
            self,
            CanonicalMemoKey::Minterms(_) | CanonicalMemoKey::Inclusion(_)
        )
    }
}

/// Canonicalises one memo query: dispatches each [`MemoQuery`] variant to its key
/// constructor.
pub fn memo_key(query: &MemoQuery) -> CanonicalMemoKey {
    match query {
        MemoQuery::Minterms { ctx, ops, pool } => {
            CanonicalMemoKey::Minterms(alphabet_key(ctx, ops, pool))
        }
        MemoQuery::Inclusion {
            ctx,
            ops,
            max_states,
            a,
            b,
        } => CanonicalMemoKey::Inclusion(inclusion_check_key(ctx, ops, *max_states, a, b)),
        MemoQuery::Shape {
            a,
            b,
            alphabet,
            max_states,
        } => CanonicalMemoKey::Shape(shape_key(a, b, alphabet, *max_states)),
        MemoQuery::Subsumption { a, b, alphabet } => {
            CanonicalMemoKey::Subsumption(subsumption_key(a, b, alphabet))
        }
        MemoQuery::Transition {
            state,
            events,
            guards,
        } => CanonicalMemoKey::Transition(transition_key(state, events, guards)),
    }
}

/// A stable fingerprint of an axiom set, for inclusion in cache keys.
///
/// A solver verdict is a function of *(axioms, vars, formula)* — axioms are instantiated
/// into every query — so a cache shared across oracles with different axiom sets (the
/// engine shares one cache across all benchmarks) must separate their entries. Function
/// and predicate declarations come from sorted maps; axioms are canonicalised
/// individually (so binder names don't matter) and then sorted (so declaration order
/// doesn't matter). The serialisation is hashed (FNV-1a, two 64-bit lanes) to keep keys
/// short.
pub fn axioms_fingerprint(ax: &AxiomSet) -> String {
    let mut s = String::new();
    for (name, (args, ret)) in &ax.functions {
        s.push('F');
        ser_name(name, &mut s);
        s.push(':');
        for a in args {
            ser_sort(a, &mut s);
        }
        s.push('>');
        ser_sort(ret, &mut s);
    }
    for (name, pred) in &ax.predicates {
        s.push('P');
        ser_name(name, &mut s);
        s.push(':');
        for a in &pred.args {
            ser_sort(a, &mut s);
        }
    }
    let mut axiom_keys: Vec<String> = ax
        .axioms
        .iter()
        .map(|a| {
            // Close the axiom over its quantified variables; canonicalisation then makes
            // the key independent of the variable names the axiom was written with.
            let closed = a.vars.iter().rev().fold(a.body.clone(), |acc, (x, sort)| {
                Formula::Forall(x.clone(), sort.clone(), Box::new(acc))
            });
            canonicalize(&[], &closed).key
        })
        .collect();
    axiom_keys.sort();
    for k in axiom_keys {
        s.push('A');
        s.push_str(&k);
    }
    format!(
        "{:016x}{:016x}",
        fnv1a64(&s, 0xcbf29ce484222325),
        fnv1a64(&s, 0x811c9dc5a003f285)
    )
}

fn fnv1a64(s: &str, offset_basis: u64) -> u64 {
    let mut h = offset_basis;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Serialises a user-supplied name with a length prefix, so names containing the key's
/// delimiter characters cannot forge a different key. Control characters (and the escape
/// character itself) are escaped so keys never contain tabs or newlines — the disk-log
/// format (`<verdict>\t<key>\n` lines) depends on that invariant; the length prefix
/// counts the escaped form, which keeps the encoding injective.
fn ser_name(n: &str, out: &mut String) {
    let escaped: String = n
        .chars()
        .flat_map(|c| match c {
            '\\' => "\\\\".chars().collect::<Vec<_>>(),
            c if (c as u32) < 0x20 || c == '\u{7f}' => {
                format!("\\x{:02x}", c as u32).chars().collect()
            }
            c => vec![c],
        })
        .collect();
    out.push_str(&escaped.len().to_string());
    out.push('#');
    out.push_str(&escaped);
}

fn ser_sort(s: &Sort, out: &mut String) {
    match s {
        Sort::Unit => out.push('u'),
        Sort::Bool => out.push('b'),
        Sort::Int => out.push('i'),
        Sort::Named(n) => {
            out.push('N');
            ser_name(n, out);
        }
    }
}

fn ser_const(c: &Constant, out: &mut String) {
    match c {
        Constant::Unit => out.push_str("cu"),
        Constant::Bool(b) => out.push_str(if *b { "ct" } else { "cf" }),
        Constant::Int(i) => {
            out.push_str("ci");
            out.push_str(&i.to_string());
        }
        Constant::Atom(a) => {
            out.push_str("ca");
            ser_name(a, out);
        }
    }
}

fn ser_func(f: &FuncSym, out: &mut String) {
    match f {
        FuncSym::Add => out.push('+'),
        FuncSym::Sub => out.push('-'),
        FuncSym::Mul => out.push('*'),
        FuncSym::Mod => out.push('%'),
        FuncSym::Neg => out.push('~'),
        FuncSym::Named(n) => {
            out.push('f');
            ser_name(n, out);
        }
    }
}

fn ser_term(t: &Term, out: &mut String) {
    match t {
        // Canonical variable names ($k…/$q…) contain no delimiters, so they are safe raw.
        Term::Var(x) => {
            out.push('v');
            out.push_str(x);
            out.push(';');
        }
        Term::Const(c) => {
            ser_const(c, out);
            out.push(';');
        }
        Term::App(f, args) => {
            out.push('(');
            ser_func(f, out);
            out.push(' ');
            for a in args {
                ser_term(a, out);
            }
            out.push(')');
        }
    }
}

fn ser_atom(a: &Atom, out: &mut String) {
    match a {
        Atom::Eq(l, r) => {
            out.push_str("(= ");
            ser_term(l, out);
            ser_term(r, out);
            out.push(')');
        }
        Atom::Lt(l, r) => {
            out.push_str("(< ");
            ser_term(l, out);
            ser_term(r, out);
            out.push(')');
        }
        Atom::Le(l, r) => {
            out.push_str("(<= ");
            ser_term(l, out);
            ser_term(r, out);
            out.push(')');
        }
        Atom::Pred(p, args) => {
            out.push_str("(P");
            ser_name(p, out);
            out.push(' ');
            for t in args {
                ser_term(t, out);
            }
            out.push(')');
        }
        Atom::BoolTerm(t) => {
            out.push_str("(B ");
            ser_term(t, out);
            out.push(')');
        }
    }
}

fn ser_formula(f: &Formula, out: &mut String) {
    match f {
        Formula::True => out.push('T'),
        Formula::False => out.push('F'),
        Formula::Atom(a) => ser_atom(a, out),
        Formula::Not(g) => {
            out.push_str("(! ");
            ser_formula(g, out);
            out.push(')');
        }
        Formula::And(fs) => {
            out.push_str("(& ");
            for g in fs {
                ser_formula(g, out);
            }
            out.push(')');
        }
        Formula::Or(fs) => {
            out.push_str("(| ");
            for g in fs {
                ser_formula(g, out);
            }
            out.push(')');
        }
        Formula::Implies(p, q) => {
            out.push_str("(-> ");
            ser_formula(p, out);
            ser_formula(q, out);
            out.push(')');
        }
        Formula::Iff(p, q) => {
            out.push_str("(<-> ");
            ser_formula(p, out);
            ser_formula(q, out);
            out.push(')');
        }
        Formula::Forall(x, s, body) => {
            out.push_str("(A ");
            out.push_str(x);
            out.push(':');
            ser_sort(s, out);
            out.push('.');
            ser_formula(body, out);
            out.push(')');
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(vars: &[(Ident, Sort)], f: &Formula) -> String {
        canonicalize(vars, f).key
    }

    fn int_env(names: &[&str]) -> Vec<(Ident, Sort)> {
        names.iter().map(|n| (n.to_string(), Sort::Int)).collect()
    }

    #[test]
    fn renamed_free_variables_collide() {
        let f = Formula::lt(Term::var("x"), Term::var("y"));
        let g = Formula::lt(Term::var("a"), Term::var("b"));
        assert_eq!(
            key(&int_env(&["x", "y"]), &f),
            key(&int_env(&["a", "b"]), &g)
        );
    }

    #[test]
    fn swapped_binder_names_collide() {
        let f = Formula::forall("x", Sort::Int, Formula::lt(Term::var("x"), Term::int(3)));
        let g = Formula::forall("y", Sort::Int, Formula::lt(Term::var("y"), Term::int(3)));
        assert_eq!(key(&[], &f), key(&[], &g));
    }

    #[test]
    fn nested_binders_respect_shadowing() {
        // ∀x. (x > 0 ∧ ∀x. x < 9) vs ∀x. (x > 0 ∧ ∀y. y < 9): α-equivalent.
        let inner_x = Formula::forall("x", Sort::Int, Formula::lt(Term::var("x"), Term::int(9)));
        let inner_y = Formula::forall("y", Sort::Int, Formula::lt(Term::var("y"), Term::int(9)));
        let outer = |inner: Formula| {
            Formula::forall(
                "x",
                Sort::Int,
                Formula::And(vec![Formula::lt(Term::int(0), Term::var("x")), inner]),
            )
        };
        assert_eq!(key(&[], &outer(inner_x)), key(&[], &outer(inner_y.clone())));
        // ...but ∀x. (x > 0 ∧ ∀y. x < 9) refers to the *outer* binder: different key.
        let inner_outer_ref =
            Formula::forall("y", Sort::Int, Formula::lt(Term::var("x"), Term::int(9)));
        assert_ne!(key(&[], &outer(inner_y)), key(&[], &outer(inner_outer_ref)));
    }

    #[test]
    fn reordered_conjuncts_do_not_collide() {
        let p = Formula::pred("p", vec![Term::var("x")]);
        let q = Formula::pred("q", vec![Term::var("y")]);
        let env = int_env(&["x", "y"]);
        let pq = Formula::And(vec![p.clone(), q.clone()]);
        let qp = Formula::And(vec![q, p]);
        assert_ne!(key(&env, &pq), key(&env, &qp));
    }

    #[test]
    fn swapped_predicates_do_not_collide() {
        // p(x) ∧ q(y) vs q(x) ∧ p(y): same shape after naive renaming, different meaning.
        let env = int_env(&["x", "y"]);
        let f = Formula::And(vec![
            Formula::pred("p", vec![Term::var("x")]),
            Formula::pred("q", vec![Term::var("y")]),
        ]);
        let g = Formula::And(vec![
            Formula::pred("q", vec![Term::var("x")]),
            Formula::pred("p", vec![Term::var("y")]),
        ]);
        assert_ne!(key(&env, &f), key(&env, &g));
    }

    #[test]
    fn distinct_sorts_with_same_display_name_do_not_collide() {
        // Sort::Int and Sort::Named("int") both display as "int" but must key differently.
        let f = Formula::pred("p", vec![Term::var("x")]);
        let as_int = vec![("x".to_string(), Sort::Int)];
        let as_named = vec![("x".to_string(), Sort::named("int"))];
        assert_ne!(key(&as_int, &f), key(&as_named, &f));
    }

    #[test]
    fn declared_and_undeclared_variables_do_not_collide() {
        let f = Formula::pred("p", vec![Term::var("x")]);
        assert_ne!(key(&int_env(&["x"]), &f), key(&[], &f));
    }

    #[test]
    fn crafted_names_cannot_alias_keys() {
        // A predicate named "p(v$k0;)" must not produce the key of p applied to a variable.
        let env = int_env(&["x"]);
        let f = Formula::pred("p", vec![Term::var("x")]);
        let crafted = Formula::pred("p(v$k0;)", vec![]);
        assert_ne!(key(&env, &f), key(&env, &crafted));
    }

    #[test]
    fn control_characters_in_names_are_escaped_out_of_keys() {
        // The disk log stores one `<verdict>\t<key>\n` record per line, so keys must never
        // contain raw tabs or newlines, and the escaping must stay injective.
        let f = Formula::pred("p\n1\tinjected", vec![]);
        let k = key(&[], &f);
        assert!(
            !k.contains('\n') && !k.contains('\t'),
            "raw control chars leaked: {k:?}"
        );
        // A name spelling out the escape sequence must not collide with the escaped name.
        let spelled = Formula::pred("p\\x0a1\\x09injected", vec![]);
        assert_ne!(key(&[], &f), key(&[], &spelled));
    }

    #[test]
    fn unused_context_variables_are_dropped() {
        let f = Formula::lt(Term::var("x"), Term::int(0));
        assert_eq!(
            key(&int_env(&["x"]), &f),
            key(&int_env(&["x", "unused"]), &f)
        );
    }

    #[test]
    fn fuzzed_names_never_break_key_invariants() {
        // A proptest-free fuzz loop (deterministic xorshift, as in the suite's
        // end-to-end tests) over name escaping: keys must never contain record
        // delimiters, and distinct name multisets must never collide.
        struct XorShift(u64);
        impl XorShift {
            fn next(&mut self) -> u64 {
                let mut x = self.0;
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                self.0 = x;
                x
            }
        }
        let mut rng = XorShift(0x6a09e667f3bcc909);
        // An alphabet biased towards the characters the escaping must defend against.
        let alphabet: Vec<char> = vec![
            '\t', '\n', '\r', '\\', '#', '|', ';', '(', ')', ':', ',', '$', 'a', 'b', '0',
            '\u{7f}', '\u{1}', 'é', '→',
        ];
        let random_name = |rng: &mut XorShift| -> String {
            let len = (rng.next() % 12) as usize;
            (0..len)
                .map(|_| alphabet[(rng.next() % alphabet.len() as u64) as usize])
                .collect()
        };
        let mut seen: BTreeMap<String, String> = BTreeMap::new();
        for _ in 0..512 {
            let name = random_name(&mut rng);
            let f = Formula::pred(name.clone(), vec![Term::atom(random_name(&mut rng))]);
            let k = key(&[], &f);
            assert!(
                !k.contains('\t') && !k.contains('\n') && !k.contains('\r'),
                "key for {name:?} leaks a record delimiter: {k:?}"
            );
            // Same formula → same key; a different pred/constant pair → different key.
            assert_eq!(k, key(&[], &f), "keys must be deterministic");
            if let Some(prev) = seen.get(&k) {
                assert_eq!(
                    prev,
                    &format!("{f}"),
                    "two distinct formulas collided on key {k:?}"
                );
            } else {
                seen.insert(k, format!("{f}"));
            }
        }
    }

    #[test]
    fn alphabet_keys_share_across_renamings_and_transport_minterm_sets() {
        let pool_for = |var: &str| LiteralPool {
            per_op: vec![(
                "put".to_string(),
                vec![Atom::Eq(Term::var("#arg0"), Term::var(var))],
            )],
            uniform: vec![Atom::Lt(Term::int(0), Term::var(var))],
        };
        let ops = vec![hat_sfa::OpSig::new(
            "put",
            vec![("key".to_string(), Sort::Int)],
            Sort::Unit,
        )];
        let ctx_p = VarCtx::new(vec![("p".to_string(), Sort::Int)], vec![]);
        let ctx_q = VarCtx::new(vec![("q".to_string(), Sort::Int)], vec![]);
        let key_p = alphabet_key(&ctx_p, &ops, &pool_for("p"));
        let key_q = alphabet_key(&ctx_q, &ops, &pool_for("q"));
        assert_eq!(
            key_p.key, key_q.key,
            "α-equivalent transformations share a key"
        );

        // A set built under `p` transports to `q` through the canonical form.
        let set_p = MintermSet {
            minterms: vec![Minterm {
                op: "put".into(),
                assignment: vec![(Atom::Eq(Term::var("#arg0"), Term::var("p")), true)],
            }],
            uniform_literals: vec![Atom::Lt(Term::int(0), Term::var("p"))],
            ..MintermSet::default()
        };
        let transported = key_q.from_canonical(&key_p.to_canonical(&set_p));
        assert_eq!(
            transported.minterms[0].assignment[0].0,
            Atom::Eq(Term::var("#arg0"), Term::var("q"))
        );
        assert_eq!(
            transported.uniform_literals[0],
            Atom::Lt(Term::int(0), Term::var("q"))
        );

        // Different literal pools must not collide.
        let mut bigger = pool_for("p");
        bigger.uniform.push(Atom::Le(Term::var("p"), Term::int(9)));
        assert_ne!(key_p.key, alphabet_key(&ctx_p, &ops, &bigger).key);
    }

    #[test]
    fn inclusion_keys_distinguish_direction_and_share_alpha_equivalent_checks() {
        let ops = vec![hat_sfa::OpSig::new(
            "put",
            vec![("key".to_string(), Sort::Int)],
            Sort::Unit,
        )];
        let ev = |ctx_var: &str| {
            Sfa::event(
                "put",
                vec!["key".into()],
                "v",
                Formula::eq(Term::var("key"), Term::var(ctx_var)),
            )
        };
        let ctx_p = VarCtx::new(vec![("p".to_string(), Sort::Int)], vec![]);
        let ctx_q = VarCtx::new(vec![("q".to_string(), Sort::Int)], vec![]);
        let a_p = Sfa::globally(Sfa::not(ev("p")));
        let b_p = Sfa::eventually(ev("p"));
        let forward = inclusion_check_key(&ctx_p, &ops, 64, &a_p, &b_p);
        let backward = inclusion_check_key(&ctx_p, &ops, 64, &b_p, &a_p);
        assert_ne!(
            forward, backward,
            "A ⊆ B and B ⊆ A must not share a verdict"
        );
        // α-renamed contexts (freshened ghosts) share keys.
        let a_q = Sfa::globally(Sfa::not(ev("q")));
        let b_q = Sfa::eventually(ev("q"));
        assert_eq!(forward, inclusion_check_key(&ctx_q, &ops, 64, &a_q, &b_q));
        // A different state bound is a different key.
        assert_ne!(forward, inclusion_check_key(&ctx_p, &ops, 65, &a_p, &b_p));
        // Event binder names do not matter...
        let ev_renamed = Sfa::event(
            "put",
            vec!["k2".into()],
            "w",
            Formula::eq(Term::var("k2"), Term::var("p")),
        );
        assert_eq!(
            forward,
            inclusion_check_key(&ctx_p, &ops, 64, &Sfa::globally(Sfa::not(ev_renamed)), &b_p)
        );
        // ...but the automaton structure does.
        assert_ne!(
            forward,
            inclusion_check_key(&ctx_p, &ops, 64, &Sfa::globally(ev("p")), &b_p)
        );
    }

    #[test]
    fn shape_keys_share_alpha_equivalent_walks_and_distinguish_alphabets() {
        let ev = |ctx_var: &str, binder: &str| {
            Sfa::event(
                "put",
                vec![binder.into()],
                "v",
                Formula::eq(Term::var(binder), Term::var(ctx_var)),
            )
        };
        let alphabet_for = |var: &str| {
            vec![
                Minterm {
                    op: "put".into(),
                    assignment: vec![(Atom::Eq(Term::var("#arg0"), Term::var(var)), true)],
                },
                Minterm {
                    op: "put".into(),
                    assignment: vec![(Atom::Eq(Term::var("#arg0"), Term::var(var)), false)],
                },
            ]
        };
        let a_p = Sfa::globally(Sfa::not(ev("p", "key")));
        let b_p = Sfa::eventually(ev("p", "key"));
        let forward = shape_key(&a_p, &b_p, &alphabet_for("p"), 64);
        // Direction matters.
        assert_ne!(forward, shape_key(&b_p, &a_p, &alphabet_for("p"), 64));
        // Renamed context variables and event binders share a key.
        let a_q = Sfa::globally(Sfa::not(ev("q", "k2")));
        let b_q = Sfa::eventually(ev("q", "k2"));
        assert_eq!(forward, shape_key(&a_q, &b_q, &alphabet_for("q"), 64));
        // A different alphabet (one symbol dropped) is a different shape.
        assert_ne!(
            forward,
            shape_key(&a_p, &b_p, &alphabet_for("p")[..1], 64),
            "the pruned alphabet is part of the shape"
        );
        // Flipped symbol polarity is a different shape.
        let mut flipped = alphabet_for("p");
        flipped[0].assignment[0].1 = false;
        flipped[1].assignment[0].1 = true;
        assert_ne!(forward, shape_key(&a_p, &b_p, &flipped, 64));
        // A different state bound is a different key.
        assert_ne!(forward, shape_key(&a_p, &b_p, &alphabet_for("p"), 65));
    }

    #[test]
    fn canonical_form_is_alpha_renamed_and_solvable() {
        let f = Formula::lt(Term::var("n"), Term::var("m"));
        let c = canonicalize(&int_env(&["n", "m"]), &f);
        assert_eq!(
            c.vars,
            vec![
                ("$k0".to_string(), Sort::Int),
                ("$k1".to_string(), Sort::Int)
            ]
        );
        assert_eq!(c.formula, Formula::lt(Term::var("$k0"), Term::var("$k1")));
        let mut solver = hat_logic::Solver::default();
        assert!(solver.is_satisfiable(&c.vars, &c.formula));
    }
}
