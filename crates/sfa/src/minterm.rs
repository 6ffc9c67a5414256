//! Minterm construction (paper §5.1, Algorithm 1).
//!
//! Symbolic automata have an infinite alphabet (all possible concrete events). To reduce
//! language inclusion to a classical finite-automaton check, the alphabet is partitioned
//! into finitely many equivalence classes called *minterms*: maximal satisfiable boolean
//! combinations of the literals appearing in the automata (and typing context), one family
//! per effectful operator. Satisfiability of each combination is established with the SMT
//! solver — these are the `#SAT` queries reported in the paper's evaluation.
//!
//! # Enumeration strategies
//!
//! Two enumeration strategies produce that alphabet, selected by [`EnumerationMode`]:
//!
//! * **Naive** (the paper's reading of Algorithm 1): a depth-first walk over the literal
//!   assignment tree issuing one standalone SMT query per node. Unsatisfiable subtrees are
//!   abandoned early, but every query repeats the whole solver pipeline — simplification,
//!   quantifier elimination, axiom instantiation, CNF construction — and in a mostly
//!   satisfiable literal space the query count still grows as `O(2^n)`.
//! * **Incremental** (the default): one scoped solver session per operator
//!   ([`hat_logic::Solver::scoped`]) preprocesses the context and the literal pool once;
//!   the search tree then lives inside the session's DPLL search, where assigned literals
//!   branch one at a time and a falsified clause prunes an entire subtree without a new
//!   query. Each incremental check returns a *witness*: a full, theory-consistent literal
//!   projection, i.e. one satisfiable leaf. Blocking each witness and re-checking
//!   enumerates exactly the satisfiable minterms in `|minterms| + 1` checks — the query
//!   count is proportional to the satisfiable frontier, not the candidate space.
//!
//! Both strategies provably produce the same minterm set: the incremental session is
//! built over the same ground-term basis a naive *leaf* query uses (the context plus the
//! whole literal pool), so a full assignment is satisfiable in the session iff the naive
//! leaf query says so — and the interior of the naive tree only ever prunes assignments
//! whose every completion is unsatisfiable. The differential harness in
//! `tests/minterm_differential.rs` enforces this equivalence.

use crate::ast::{OpSig, Sfa};
use crate::inclusion::{SolverOracle, VarCtx};
use hat_logic::{Atom, Formula, Ident, Sort};
use std::cmp::Ordering;
use std::collections::BTreeSet;

/// How [`build_minterms`] establishes satisfiability of candidate literal assignments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EnumerationMode {
    /// One standalone SMT query per node of the assignment tree.
    Naive,
    /// One scoped incremental session per operator; checks proportional to the
    /// satisfiable frontier. Falls back to naive when the oracle cannot provide a
    /// scoped session.
    #[default]
    Incremental,
}

/// Canonical name of the `i`-th argument of an event inside minterm literals.
pub fn arg_name(i: usize) -> Ident {
    format!("#arg{i}")
}

/// Canonical name of the result of an event inside minterm literals.
pub fn res_name() -> Ident {
    "#res".to_string()
}

/// An equivalence class of concrete events of one operator: a truth assignment to the
/// literals relevant to that operator.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Minterm {
    /// The operator this minterm belongs to.
    pub op: String,
    /// Literal polarities over canonical event-variable names (`#arg0`, ..., `#res`)
    /// and context variables.
    pub assignment: Vec<(Atom, bool)>,
}

impl Minterm {
    /// The conjunction of the (signed) literals of this minterm.
    pub fn formula(&self) -> Formula {
        Formula::and(
            self.assignment
                .iter()
                .map(|(a, v)| {
                    let f = Formula::Atom(a.clone());
                    if *v {
                        f
                    } else {
                        Formula::not(f)
                    }
                })
                .collect(),
        )
    }

    /// The projection of the assignment onto the given (uniform) literals, used to group
    /// minterms by context-literal valuation.
    pub fn project(&self, literals: &[Atom]) -> Vec<(Atom, bool)> {
        self.assignment
            .iter()
            .filter(|(a, _)| literals.contains(a))
            .cloned()
            .collect()
    }
}

/// The finite alphabet obtained by alphabet transformation: all satisfiable minterms,
/// together with the subset of literals that do not mention event-local variables
/// ("uniform" literals, whose value cannot change within one trace).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MintermSet {
    /// All satisfiable minterms, across operators.
    pub minterms: Vec<Minterm>,
    /// Literals over context variables only.
    pub uniform_literals: Vec<Atom>,
    /// Number of unsatisfiable branches abandoned during enumeration: pruned subtrees of
    /// the naive walk, or learned conflicts plus closing-unsat answers of the
    /// incremental search.
    pub pruned: usize,
    /// Number of incremental scoped-session checks issued (0 in naive mode, where all
    /// work is visible through the oracle's query count instead).
    pub enum_queries: usize,
    /// Whether this set was answered from a minterm-set memo rather than enumerated.
    pub from_memo: bool,
}

impl MintermSet {
    /// The distinct uniform-literal valuations realised by the minterms. Each valuation
    /// corresponds to one iteration of the outer loop of Algorithm 1 (one `φ_Γ`).
    pub fn uniform_groups(&self) -> Vec<Vec<(Atom, bool)>> {
        let mut groups: Vec<Vec<(Atom, bool)>> = Vec::new();
        for m in &self.minterms {
            let proj = m.project(&self.uniform_literals);
            if !groups.contains(&proj) {
                groups.push(proj);
            }
        }
        if groups.is_empty() {
            groups.push(Vec::new());
        }
        groups
    }

    /// Indices of the minterms belonging to a uniform group.
    pub fn group_indices(&self, group: &[(Atom, bool)]) -> Vec<usize> {
        self.minterms
            .iter()
            .enumerate()
            .filter(|(_, m)| m.project(&self.uniform_literals) == group)
            .map(|(i, _)| i)
            .collect()
    }
}

/// Collects the literals relevant to each operator from the given automata, following
/// `GetLits` of the paper: literals qualifying events of that operator, literals of guard
/// atoms, and literals of the typing context.
#[derive(Debug, Default)]
pub struct LiteralPool {
    /// Per-operator event-local literals (canonical names).
    pub per_op: Vec<(String, Vec<Atom>)>,
    /// Literals mentioning only context variables.
    pub uniform: Vec<Atom>,
}

impl LiteralPool {
    /// Gathers literals from the context facts and a list of automata.
    pub fn collect(ctx: &VarCtx, automata: &[&Sfa]) -> Self {
        let mut pool = LiteralPool::default();
        for fact in &ctx.facts {
            let mut atoms = Vec::new();
            fact.collect_atoms(&mut atoms);
            for a in atoms {
                pool.add_uniform(a);
            }
        }
        for a in automata {
            pool.visit(a);
        }
        pool.derive_bridges();
        pool
    }

    /// Derives "bridge" literals between context terms: if one symbolic event constrains an
    /// argument with `x = t₁` and another event of the same operator constrains the same
    /// argument with `x = t₂`, the relation between `t₁` and `t₂` (which is constant along a
    /// trace) determines whether one concrete event can match both. These equalities play
    /// the role of the context-literal valuations `φ_Γ` enumerated by the outer loop of the
    /// paper's Algorithm 1; without them the finite-alphabet abstraction would admit traces
    /// that assume `t₁ = t₂` at one position and `t₁ ≠ t₂` at another.
    fn derive_bridges(&mut self) {
        use hat_logic::Term;
        let mut bridges: Vec<Atom> = Vec::new();
        for (_, lits) in &self.per_op {
            // Group the context-side terms by the event variable they are equated with.
            let mut by_var: Vec<(Ident, Vec<Term>)> = Vec::new();
            for lit in lits {
                if let Atom::Eq(a, b) = lit {
                    let (event_var, ctx_term) = match (a, b) {
                        (Term::Var(x), t) if x.starts_with('#') && !mentions_event_var(t) => {
                            (x.clone(), t.clone())
                        }
                        (t, Term::Var(x)) if x.starts_with('#') && !mentions_event_var(t) => {
                            (x.clone(), t.clone())
                        }
                        _ => continue,
                    };
                    match by_var.iter_mut().find(|(v, _)| *v == event_var) {
                        Some((_, terms)) => {
                            if !terms.contains(&ctx_term) {
                                terms.push(ctx_term);
                            }
                        }
                        None => by_var.push((event_var, vec![ctx_term])),
                    }
                }
            }
            for (_, terms) in by_var {
                for i in 0..terms.len() {
                    for j in (i + 1)..terms.len() {
                        let bridge = Atom::Eq(terms[i].clone(), terms[j].clone());
                        if !bridges.contains(&bridge) {
                            bridges.push(bridge);
                        }
                    }
                }
            }
        }
        for b in bridges {
            self.add_uniform(b);
        }
    }

    fn add_uniform(&mut self, a: Atom) {
        if is_trivial(&a) {
            return;
        }
        if !self.uniform.contains(&a) {
            self.uniform.push(a);
        }
    }

    fn add_for_op(&mut self, op: &str, a: Atom) {
        if is_trivial(&a) {
            return;
        }
        if let Some((_, v)) = self.per_op.iter_mut().find(|(o, _)| o == op) {
            if !v.contains(&a) {
                v.push(a);
            }
        } else {
            self.per_op.push((op.to_string(), vec![a]));
        }
    }

    fn visit(&mut self, a: &Sfa) {
        match a {
            Sfa::Zero | Sfa::Epsilon => {}
            Sfa::Event(e) => {
                // Canonicalise event-local names so that literals of different symbolic
                // events over the same operator can be compared.
                let renamed = e.phi.rename_free_vars(&|v: &str| {
                    if v == e.result {
                        Some(res_name())
                    } else {
                        e.args.iter().position(|x| x == v).map(arg_name)
                    }
                });
                let mut atoms = Vec::new();
                renamed.collect_atoms(&mut atoms);
                for atom in atoms {
                    let mut vars = BTreeSet::new();
                    atom.collect_vars(&mut vars);
                    if vars.iter().any(|v| v.starts_with('#')) {
                        self.add_for_op(&e.op, atom);
                    } else {
                        self.add_uniform(atom);
                    }
                }
            }
            Sfa::Guard(phi) => {
                let mut atoms = Vec::new();
                phi.collect_atoms(&mut atoms);
                for a in atoms {
                    self.add_uniform(a);
                }
            }
            Sfa::Not(x) | Sfa::Next(x) | Sfa::Star(x) => self.visit(x),
            Sfa::And(parts) | Sfa::Or(parts) => {
                for p in parts {
                    self.visit(p);
                }
            }
            Sfa::Concat(x, y) | Sfa::Until(x, y) => {
                self.visit(x);
                self.visit(y);
            }
        }
    }
}

fn is_trivial(a: &Atom) -> bool {
    match a {
        Atom::Eq(l, r) => l == r,
        _ => false,
    }
}

/// Whether a term mentions a canonical event-local variable (`#arg0`, ..., `#res`).
fn mentions_event_var(t: &hat_logic::Term) -> bool {
    t.free_vars().iter().any(|v| v.starts_with('#'))
}

/// Builds the satisfiable minterms of the given automata under the typing context, with
/// the default (incremental) enumeration mode. See [`build_minterms_with`].
pub fn build_minterms(
    ctx: &VarCtx,
    ops: &[OpSig],
    automata: &[&Sfa],
    oracle: &mut dyn SolverOracle,
) -> MintermSet {
    build_minterms_with(ctx, ops, automata, oracle, EnumerationMode::default())
}

/// Builds the satisfiable minterms of the given automata under the typing context.
///
/// Every declared operator in `ops` gets a family of minterms (operators with no literals
/// get a single unconstrained minterm, so that events of "irrelevant" operators can still
/// appear in traces). Unsatisfiable boolean combinations are pruned eagerly; the strategy
/// for establishing satisfiability is chosen by `mode` (see the module docs).
///
/// Oracles that support minterm-set memoisation (see
/// [`crate::inclusion::MemoQuery::Minterms`]) can answer the whole construction from a
/// memo when a structurally equal alphabet transformation — same context, same
/// operators, same literal pool up to α-renaming — has already been enumerated.
pub fn build_minterms_with(
    ctx: &VarCtx,
    ops: &[OpSig],
    automata: &[&Sfa],
    oracle: &mut dyn SolverOracle,
    mode: EnumerationMode,
) -> MintermSet {
    use crate::inclusion::{MemoAnswer, MemoKind, MemoQuery};
    let pool = LiteralPool::collect(ctx, automata);
    let memoised = oracle.memoises(MemoKind::Minterms);
    if memoised {
        let query = MemoQuery::Minterms {
            ctx,
            ops,
            pool: &pool,
        };
        if let Some(MemoAnswer::Minterms(cached)) = oracle.memo_lookup(&query) {
            // A memo hit costs no enumeration work; the counters describe this call, not
            // the call that originally built the set.
            let mut cached = cached.into_owned();
            cached.enum_queries = 0;
            cached.pruned = 0;
            cached.from_memo = true;
            return cached;
        }
    }
    let mut set = MintermSet {
        uniform_literals: pool.uniform.clone(),
        ..MintermSet::default()
    };

    for op in ops {
        // Event-local literals for this operator + all uniform literals.
        let mut literals: Vec<Atom> = pool
            .per_op
            .iter()
            .find(|(o, _)| o == &op.name)
            .map(|(_, v)| v.clone())
            .unwrap_or_default();
        for u in &pool.uniform {
            if !literals.contains(u) {
                literals.push(u.clone());
            }
        }

        // Sort environment: context variables plus canonical event variables.
        let mut vars: Vec<(Ident, Sort)> = ctx.vars.clone();
        for (i, (_, sort)) in op.args.iter().enumerate() {
            vars.push((arg_name(i), sort.clone()));
        }
        vars.push((res_name(), op.ret.clone()));

        let incremental = mode == EnumerationMode::Incremental
            && enumerate_incremental(ctx, oracle, &vars, &literals, &op.name, &mut set);
        if !incremental {
            let mut assignment: Vec<(Atom, bool)> = Vec::new();
            enumerate(
                ctx,
                oracle,
                &vars,
                &literals,
                0,
                &mut assignment,
                &op.name,
                &mut set,
            );
        }
    }
    if memoised {
        let query = MemoQuery::Minterms {
            ctx,
            ops,
            pool: &pool,
        };
        oracle.memo_store(
            &query,
            &MemoAnswer::Minterms(std::borrow::Cow::Borrowed(&set)),
        );
    }
    set
}

/// Incremental enumeration of one operator's minterms over a scoped solver session.
/// Returns `false` when the oracle cannot provide a session (the caller falls back to the
/// naive walk).
///
/// Each successful check yields a witness projection — one satisfiable leaf — which is
/// recorded and blocked; the session's internal search prunes unsatisfiable subtrees by
/// clause propagation instead of per-node queries. When every boolean combination has
/// been found the closing unsatisfiability check is skipped (the space is exhausted by
/// counting), which keeps the incremental check count at or below the naive query count
/// even for literal-free operators.
fn enumerate_incremental(
    ctx: &VarCtx,
    oracle: &mut dyn SolverOracle,
    vars: &[(Ident, Sort)],
    literals: &[Atom],
    op: &str,
    out: &mut MintermSet,
) -> bool {
    let Some(mut session) = oracle.scoped_session(vars, &ctx.facts, literals) else {
        return false;
    };
    let exhaustive = literals.len() < usize::BITS as usize - 1;
    let mut found: Vec<Vec<bool>> = Vec::new();
    loop {
        if exhaustive && found.len() == 1usize << literals.len() {
            break; // every combination is satisfiable; nothing left to close.
        }
        let conflicts_before = session.conflicts();
        match session.check() {
            None => {
                out.pruned += session.conflicts() - conflicts_before + 1;
                break;
            }
            Some(projection) => {
                out.pruned += session.conflicts() - conflicts_before;
                session.block(&projection);
                found.push(projection);
            }
        }
    }
    out.enum_queries += session.checks();

    // Emit in the naive depth-first order (true explored before false at every level) so
    // both modes produce bit-identical minterm sets.
    found.sort_by(|a, b| {
        for (x, y) in a.iter().zip(b.iter()) {
            match (x, y) {
                (true, false) => return Ordering::Less,
                (false, true) => return Ordering::Greater,
                _ => {}
            }
        }
        Ordering::Equal
    });
    for projection in found {
        out.minterms.push(Minterm {
            op: op.to_string(),
            assignment: literals.iter().cloned().zip(projection).collect(),
        });
    }
    true
}

#[allow(clippy::too_many_arguments)]
fn enumerate(
    ctx: &VarCtx,
    oracle: &mut dyn SolverOracle,
    vars: &[(Ident, Sort)],
    literals: &[Atom],
    index: usize,
    assignment: &mut Vec<(Atom, bool)>,
    op: &str,
    out: &mut MintermSet,
) {
    // Check that the partial assignment is still satisfiable together with the context.
    let mut facts = ctx.facts.clone();
    facts.push(
        Minterm {
            op: op.to_string(),
            assignment: assignment.clone(),
        }
        .formula(),
    );
    if !oracle.is_sat(vars, &facts) {
        out.pruned += 1;
        return;
    }
    if index == literals.len() {
        out.minterms.push(Minterm {
            op: op.to_string(),
            assignment: assignment.clone(),
        });
        return;
    }
    for value in [true, false] {
        assignment.push((literals[index].clone(), value));
        enumerate(ctx, oracle, vars, literals, index + 1, assignment, op, out);
        assignment.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inclusion::tests_support::PlainOracle;
    use hat_logic::Term;

    fn kv_ops() -> Vec<OpSig> {
        vec![
            OpSig::new(
                "put",
                vec![
                    ("key".into(), Sort::named("Path.t")),
                    ("val".into(), Sort::named("Bytes.t")),
                ],
                Sort::Unit,
            ),
            OpSig::new(
                "exists",
                vec![("key".into(), Sort::named("Path.t"))],
                Sort::Bool,
            ),
        ]
    }

    #[test]
    fn literal_pool_separates_event_and_uniform_literals() {
        let a = Sfa::event(
            "put",
            vec!["key".into(), "val".into()],
            "v",
            Formula::and(vec![
                Formula::eq(Term::var("key"), Term::var("p")),
                Formula::pred("isRoot", vec![Term::var("p")]),
            ]),
        );
        let ctx = VarCtx::new(vec![("p".into(), Sort::named("Path.t"))], vec![]);
        let pool = LiteralPool::collect(&ctx, &[&a]);
        assert_eq!(pool.per_op.len(), 1);
        assert_eq!(pool.per_op[0].0, "put");
        assert_eq!(pool.per_op[0].1.len(), 1, "key = p is event-local");
        assert_eq!(pool.uniform.len(), 1, "isRoot(p) is uniform");
    }

    #[test]
    fn minterms_partition_each_operator() {
        let a = Sfa::event(
            "put",
            vec!["key".into(), "val".into()],
            "v",
            Formula::eq(Term::var("key"), Term::var("p")),
        );
        let ctx = VarCtx::new(vec![("p".into(), Sort::named("Path.t"))], vec![]);
        let mut oracle = PlainOracle::default();
        let set = build_minterms(&ctx, &kv_ops(), &[&a], &mut oracle);
        // put splits on key = p (2 minterms); exists has no literals of its own but inherits
        // the uniform set (empty here), so it yields exactly 1.
        let put_count = set.minterms.iter().filter(|m| m.op == "put").count();
        let exists_count = set.minterms.iter().filter(|m| m.op == "exists").count();
        assert_eq!(put_count, 2);
        assert_eq!(exists_count, 1);
    }

    #[test]
    fn unsatisfiable_combinations_are_pruned() {
        // key = p and key = q with the context fact p ≠ q: the combination
        // (key = p ∧ key = q) must be pruned.
        let a = Sfa::and(vec![
            Sfa::event(
                "put",
                vec!["key".into(), "val".into()],
                "v",
                Formula::eq(Term::var("key"), Term::var("p")),
            ),
            Sfa::event(
                "put",
                vec!["key".into(), "val".into()],
                "v",
                Formula::eq(Term::var("key"), Term::var("q")),
            ),
        ]);
        let ctx = VarCtx::new(
            vec![
                ("p".into(), Sort::named("Path.t")),
                ("q".into(), Sort::named("Path.t")),
            ],
            vec![Formula::not(Formula::eq(Term::var("p"), Term::var("q")))],
        );
        let mut oracle = PlainOracle::default();
        let ops = vec![OpSig::new(
            "put",
            vec![
                ("key".into(), Sort::named("Path.t")),
                ("val".into(), Sort::named("Bytes.t")),
            ],
            Sort::Unit,
        )];
        let set = build_minterms(&ctx, &ops, &[&a], &mut oracle);
        assert_eq!(
            set.minterms.len(),
            3,
            "2^2 combinations minus the contradictory one"
        );
        assert!(set.pruned >= 1);
    }

    #[test]
    fn uniform_groups_split_on_context_literals() {
        let a = Sfa::or(vec![
            Sfa::globally(Sfa::guard(Formula::pred("isRoot", vec![Term::var("p")]))),
            Sfa::event(
                "put",
                vec!["key".into(), "val".into()],
                "v",
                Formula::eq(Term::var("key"), Term::var("p")),
            ),
        ]);
        let ctx = VarCtx::new(vec![("p".into(), Sort::named("Path.t"))], vec![]);
        let mut oracle = PlainOracle::default();
        let set = build_minterms(&ctx, &kv_ops(), &[&a], &mut oracle);
        let groups = set.uniform_groups();
        assert_eq!(groups.len(), 2, "isRoot(p) true / false");
        for g in groups {
            assert!(!set.group_indices(&g).is_empty());
        }
    }

    #[test]
    fn minterm_formula_is_signed_conjunction() {
        let m = Minterm {
            op: "put".into(),
            assignment: vec![
                (Atom::Pred("isDir".into(), vec![Term::var("#arg1")]), true),
                (Atom::Eq(Term::var("#arg0"), Term::var("p")), false),
            ],
        };
        let f = m.formula();
        assert_eq!(f.literal_count(), 2);
        assert!(f.to_string().contains("isDir"));
        assert!(f.to_string().contains("!("));
    }
}
