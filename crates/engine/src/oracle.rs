//! A caching [`SolverOracle`]: the bridge between the checker layers and the shared
//! [`MemoStore`], composing the memo tiers into one read-through stack.
//!
//! Every oracle query — context-consistency checks and subtyping entailments from
//! `hat-core`, minterm-satisfiability and transition queries from `hat-sfa` — is reduced
//! to one satisfiability problem, canonicalised ([`crate::canon`]), and looked up
//! tier by tier: the worker's lock-free [`LocalTier`] first (when one is attached), then
//! the shared sharded tier of the [`MemoStore`], promoting shared hits into the local
//! tier on the way back so the next lookup of the same key touches no lock. The whole
//! memo hierarchy above the solver cache — minterm sets, inclusion verdicts, DFA shapes,
//! transitions, subsumption verdicts — flows through the same two methods via the
//! single typed [`SolverOracle::memo_lookup`]/[`SolverOracle::memo_store`] interface,
//! keyed by [`crate::canon::memo_key`].
//!
//! On a miss the *canonical* form is handed to the worker's own [`Solver`], so the
//! verdict depends only on the cache key; this is what makes cached parallel runs
//! produce exactly the verdicts of a sequential run — and what makes read-through
//! caching trivially coherent: a value can never be stale, only absent.

use crate::cache::{MemoStore, MemoValue, RecordKind};
use crate::canon::{axioms_fingerprint, canonicalize, memo_key, CanonicalMemoKey};
use crate::tier::LocalTier;
use hat_logic::{Atom, AxiomSet, Formula, Ident, ScopedSession, Solver, Sort};
use hat_sfa::{MemoAnswer, MemoKind, MemoQuery, SolverOracle};
use std::borrow::Cow;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Duration;

/// A solver wrapped with the tiered memo store. Each worker owns one per job (the
/// underlying solver is not thread-safe); the shared store is shared through an [`Arc`],
/// and the worker's local tier — shared by every oracle the worker creates — through an
/// [`Rc`].
pub struct CachingOracle {
    solver: Solver,
    store: Arc<MemoStore>,
    /// The worker's lock-free read-through tier; `None` runs shared-only (the
    /// measurement baseline for `--local-tier off`).
    local: Option<Rc<LocalTier>>,
    /// Fingerprint of the solver's axiom set, prefixed onto every axiom-dependent cache
    /// key: a verdict depends on the axioms instantiated into the query, and the store
    /// is shared across oracles with *different* axiom sets (one per benchmark).
    key_prefix: String,
    /// The store key and canonicalisation computed by the last memo-lookup miss of each
    /// kind (indexed by `kind as usize`). Every store is paired with a preceding miss
    /// for the same query, so the store reuses these instead of re-canonicalising; the
    /// fallback only fires if that pairing is ever broken by an unexpected call
    /// sequence.
    pending: [Option<(String, CanonicalMemoKey)>; 6],
    queries: usize,
    hits: usize,
    misses: usize,
    /// Shared-tier shard-lock acquisitions performed by this oracle (each shared get or
    /// put is exactly one). Local-tier hits bypass the shared tier entirely, so this is
    /// the number the read-through tier drives down.
    shared_locks: usize,
}

impl CachingOracle {
    /// Creates an oracle over the given background axioms and shared store.
    pub fn new(axioms: AxiomSet, store: Arc<MemoStore>) -> Self {
        let key_prefix = Self::key_prefix_for(&axioms);
        Self::with_key_prefix(axioms, store, key_prefix)
    }

    /// The cache-key prefix [`CachingOracle::new`] would derive for an axiom set. Callers
    /// spawning many oracles over the same axioms (one per method job) can compute it
    /// once and pass it to [`CachingOracle::with_key_prefix`].
    pub fn key_prefix_for(axioms: &AxiomSet) -> String {
        format!("ax{}|", axioms_fingerprint(axioms))
    }

    /// Creates an oracle with a precomputed key prefix. The prefix must be
    /// [`CachingOracle::key_prefix_for`] of the same axiom set, or cache entries would be
    /// shared across incompatible axiom sets.
    pub fn with_key_prefix(axioms: AxiomSet, store: Arc<MemoStore>, key_prefix: String) -> Self {
        CachingOracle {
            solver: Solver::with_axioms(axioms),
            store,
            local: None,
            key_prefix,
            pending: Default::default(),
            queries: 0,
            hits: 0,
            misses: 0,
            shared_locks: 0,
        }
    }

    /// Attaches a worker-local read-through tier: lookups probe it lock-free before the
    /// shared tier, and shared hits are promoted into it. Values are pure functions of
    /// their keys, so promotion cannot introduce staleness — the jobs=6 coherence test
    /// in `tests/tiers.rs` asserts verdict identity against shared-only and sequential
    /// runs.
    pub fn with_local_tier(mut self, local: Rc<LocalTier>) -> Self {
        self.local = Some(local);
        self
    }

    /// The shared store this oracle reads and writes.
    pub fn cache(&self) -> &Arc<MemoStore> {
        &self.store
    }

    /// Read-through lookup: local tier (lock-free), then the store's shared tier (one
    /// shard lock) and disk tier, promoting a store hit into the local tier.
    fn read_through(&mut self, kind: RecordKind, key: &str) -> Option<MemoValue> {
        if let Some(local) = &self.local {
            if let Some(value) = local.get(kind, key) {
                self.store.note_local_hit(kind);
                return Some(value);
            }
        }
        self.shared_locks += 1;
        let found = self.store.lookup(kind, key);
        if let (Some(value), Some(local)) = (&found, &self.local) {
            local.put(kind, key.to_string(), value.clone());
        }
        found
    }

    /// Write-through store: local tier first (the worker will ask again), then the
    /// store's shared tier (which logs the record to disk when fresh).
    fn write_through(&mut self, kind: RecordKind, key: String, value: MemoValue) {
        if let Some(local) = &self.local {
            local.put(kind, key.clone(), value.clone());
        }
        self.shared_locks += 1;
        self.store.insert(kind, key, value);
    }

    /// The store key of a canonical memo key. Axiom-dependent kinds (minterm sets,
    /// inclusion verdicts) carry this oracle's axiom prefix; shapes, subsumption
    /// verdicts and transitions are pure syntactic functions of data inside the key, so
    /// α-equal ones are shared across benchmarks with different axiom sets (the checker
    /// refuses to store a shape or subsumption verdict if a context-dependent SMT
    /// fallback ever fired).
    fn store_key<'k>(&self, canonical: &'k CanonicalMemoKey) -> Cow<'k, str> {
        if canonical.axiom_dependent() {
            Cow::Owned(format!("{}{}", self.key_prefix, canonical.key()))
        } else {
            Cow::Borrowed(canonical.key())
        }
    }

    /// Answers a satisfiability query through the tiers, solving the canonical form on a
    /// miss.
    fn cached_sat(&mut self, vars: &[(Ident, Sort)], f: &Formula) -> bool {
        self.queries += 1;
        // Constant formulas need no solver and would only pollute the cache.
        match f {
            Formula::True => return true,
            Formula::False => return false,
            _ => {}
        }
        let canonical = canonicalize(vars, f);
        let key = format!("{}{}", self.key_prefix, canonical.key);
        if let Some(MemoValue::Verdict(verdict)) = self.read_through(RecordKind::Solver, &key) {
            self.hits += 1;
            return verdict;
        }
        self.misses += 1;
        let verdict = self
            .solver
            .is_satisfiable(&canonical.vars, &canonical.formula);
        self.write_through(RecordKind::Solver, key, verdict.into());
        verdict
    }
}

/// Transports a stored canonical value back into the names of the query that asked;
/// `None` for a (kind, value) mismatch.
fn from_canonical(canonical: &CanonicalMemoKey, value: MemoValue) -> Option<MemoAnswer<'static>> {
    Some(match (canonical, value) {
        (CanonicalMemoKey::Minterms(alphabet), MemoValue::Minterms(set)) => {
            MemoAnswer::Minterms(Cow::Owned(alphabet.from_canonical(&set)))
        }
        (CanonicalMemoKey::Transition(tk), MemoValue::Transition(succ)) => {
            MemoAnswer::Transition(Cow::Owned(tk.from_canonical(&succ)))
        }
        (
            CanonicalMemoKey::Inclusion(_)
            | CanonicalMemoKey::Shape(_)
            | CanonicalMemoKey::Subsumption(_),
            MemoValue::Verdict(verdict),
        ) => MemoAnswer::Verdict(verdict),
        _ => return None,
    })
}

/// Transports a computed answer into the canonical names it is stored under; `None`
/// for a (kind, answer) mismatch.
fn to_canonical(canonical: &CanonicalMemoKey, answer: &MemoAnswer) -> Option<MemoValue> {
    Some(match (canonical, answer) {
        (CanonicalMemoKey::Minterms(alphabet), MemoAnswer::Minterms(set)) => {
            alphabet.to_canonical(set).into()
        }
        (CanonicalMemoKey::Transition(tk), MemoAnswer::Transition(succ)) => {
            tk.to_canonical(succ).into()
        }
        (
            CanonicalMemoKey::Inclusion(_)
            | CanonicalMemoKey::Shape(_)
            | CanonicalMemoKey::Subsumption(_),
            MemoAnswer::Verdict(verdict),
        ) => MemoValue::Verdict(*verdict),
        _ => return None,
    })
}

impl SolverOracle for CachingOracle {
    fn is_sat(&mut self, vars: &[(Ident, Sort)], facts: &[Formula]) -> bool {
        let f = Formula::and(facts.to_vec());
        self.cached_sat(vars, &f)
    }

    fn entails(&mut self, vars: &[(Ident, Sort)], facts: &[Formula], goal: &Formula) -> bool {
        // facts ⊨ goal iff facts ∧ ¬goal is unsatisfiable — the same reduction the plain
        // solver applies, phrased so entailments and satisfiability share cache entries.
        let f = Formula::and(
            facts
                .iter()
                .cloned()
                .chain(std::iter::once(Formula::not(goal.clone())))
                .collect(),
        );
        !self.cached_sat(vars, &f)
    }

    fn query_count(&self) -> usize {
        self.queries
    }

    fn query_time(&self) -> Duration {
        self.solver.stats.time
    }

    fn theory_checks(&self) -> usize {
        self.solver.stats.theory_checks
    }

    fn cache_hits(&self) -> usize {
        self.hits
    }

    fn cache_misses(&self) -> usize {
        self.misses
    }

    fn shared_tier_locks(&self) -> usize {
        self.shared_locks
    }

    fn scoped_session<'a>(
        &'a mut self,
        vars: &[(Ident, Sort)],
        base: &[Formula],
        literals: &[Atom],
    ) -> Option<ScopedSession<'a>> {
        // Incremental checks bypass the per-query cache (they are cheaper than a cache
        // round-trip); the whole enumeration is instead memoised as a minterm set.
        Some(self.solver.scoped(vars, base, literals))
    }

    fn memoises(&self, _kind: MemoKind) -> bool {
        // Every kind has a tier stack; the store decides per kind what reaches disk.
        true
    }

    fn memo_lookup(&mut self, query: &MemoQuery) -> Option<MemoAnswer<'static>> {
        let kind = RecordKind::from(query.kind());
        let canonical = memo_key(query);
        let key = self.store_key(&canonical);
        let found = self
            .read_through(kind, &key)
            .and_then(|value| from_canonical(&canonical, value));
        self.pending[kind as usize] = match found {
            Some(_) => None,
            None => Some((key.into_owned(), canonical)),
        };
        found
    }

    fn memo_store(&mut self, query: &MemoQuery, answer: &MemoAnswer) {
        let kind = RecordKind::from(query.kind());
        let (key, canonical) = self.pending[kind as usize].take().unwrap_or_else(|| {
            let canonical = memo_key(query);
            (self.store_key(&canonical).into_owned(), canonical)
        });
        // A mismatched (kind, answer) pair is a caller bug; storing nothing is the safe
        // response (the memo is an accelerator, not a source of truth).
        if let Some(value) = to_canonical(&canonical, answer) {
            self.write_through(kind, key, value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hat_logic::Term;

    fn env(names: &[&str]) -> Vec<(Ident, Sort)> {
        names.iter().map(|n| (n.to_string(), Sort::Int)).collect()
    }

    #[test]
    fn verdicts_match_the_plain_solver() {
        let cache = Arc::new(MemoStore::in_memory());
        let mut cached = CachingOracle::new(AxiomSet::new(), cache);
        let mut plain = Solver::default();
        let vars = env(&["x", "y", "z"]);
        let cases: Vec<(Vec<Formula>, Formula)> = vec![
            (
                vec![
                    Formula::lt(Term::var("x"), Term::var("y")),
                    Formula::lt(Term::var("y"), Term::var("z")),
                ],
                Formula::lt(Term::var("x"), Term::var("z")),
            ),
            (
                vec![Formula::lt(Term::var("x"), Term::var("y"))],
                Formula::lt(Term::var("y"), Term::var("x")),
            ),
            (
                vec![Formula::eq(Term::var("x"), Term::int(2))],
                Formula::lt(Term::var("x"), Term::int(3)),
            ),
        ];
        for (facts, goal) in &cases {
            assert_eq!(
                SolverOracle::entails(&mut cached, &vars, facts, goal),
                plain.entails(&vars, facts, goal),
                "entailment mismatch for {facts:?} ⊢ {goal}"
            );
            assert_eq!(
                SolverOracle::is_sat(&mut cached, &vars, facts),
                plain.is_satisfiable(&vars, &Formula::and(facts.clone())),
            );
        }
    }

    #[test]
    fn repeated_queries_hit_without_touching_the_solver() {
        let cache = Arc::new(MemoStore::in_memory());
        let mut oracle = CachingOracle::new(AxiomSet::new(), cache);
        let vars = env(&["x"]);
        let facts = vec![Formula::lt(Term::int(0), Term::var("x"))];
        let goal = Formula::le(Term::int(0), Term::var("x"));
        assert!(SolverOracle::entails(&mut oracle, &vars, &facts, &goal));
        let solver_queries = oracle.solver.stats.queries;
        assert!(SolverOracle::entails(&mut oracle, &vars, &facts, &goal));
        assert_eq!(
            oracle.solver.stats.queries, solver_queries,
            "second run must be a pure hit"
        );
        assert_eq!(oracle.cache_hits(), 1);
        assert_eq!(oracle.cache_misses(), 1);
        assert_eq!(oracle.query_count(), 2);
    }

    #[test]
    fn local_tier_absorbs_repeat_lookups_without_shared_locks() {
        let cache = Arc::new(MemoStore::in_memory());
        let local = Rc::new(LocalTier::default());
        let mut oracle =
            CachingOracle::new(AxiomSet::new(), cache.clone()).with_local_tier(local.clone());
        let vars = env(&["x"]);
        let facts = vec![Formula::lt(Term::int(0), Term::var("x"))];
        assert!(SolverOracle::is_sat(&mut oracle, &vars, &facts));
        let locks_after_miss = oracle.shared_tier_locks();
        assert_eq!(locks_after_miss, 2, "one shared lookup + one shared insert");
        for _ in 0..10 {
            assert!(SolverOracle::is_sat(&mut oracle, &vars, &facts));
        }
        assert_eq!(
            oracle.shared_tier_locks(),
            locks_after_miss,
            "repeat lookups must be answered by the local tier, lock-free"
        );
        assert_eq!(oracle.cache_hits(), 10);
        assert_eq!(
            cache.stats().hits,
            10,
            "local hits still count as memo hits in the store snapshot"
        );

        // A second oracle of the same worker shares the local tier: the promotion
        // made by the first oracle serves it without a shared lookup for the hit
        // (the shared tier was touched only while the entry was still missing).
        let mut second = CachingOracle::new(AxiomSet::new(), cache.clone()).with_local_tier(local);
        assert!(SolverOracle::is_sat(&mut second, &vars, &facts));
        assert_eq!(second.shared_tier_locks(), 0);

        // A shared-only oracle pays one shared lock per lookup.
        let mut shared_only = CachingOracle::new(AxiomSet::new(), cache);
        for _ in 0..5 {
            assert!(SolverOracle::is_sat(&mut shared_only, &vars, &facts));
        }
        assert_eq!(shared_only.shared_tier_locks(), 5);
    }

    #[test]
    fn alpha_equivalent_queries_share_entries() {
        let cache = Arc::new(MemoStore::in_memory());
        let mut oracle = CachingOracle::new(AxiomSet::new(), cache.clone());
        let f1 = vec![Formula::lt(Term::var("a"), Term::var("b"))];
        let f2 = vec![Formula::lt(Term::var("p"), Term::var("q"))];
        assert!(SolverOracle::is_sat(&mut oracle, &env(&["a", "b"]), &f1));
        assert!(SolverOracle::is_sat(&mut oracle, &env(&["p", "q"]), &f2));
        assert_eq!(oracle.cache_hits(), 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn constant_formulas_bypass_the_cache() {
        let cache = Arc::new(MemoStore::in_memory());
        let mut oracle = CachingOracle::new(AxiomSet::new(), cache.clone());
        assert!(SolverOracle::is_sat(&mut oracle, &[], &[]));
        assert!(!SolverOracle::is_sat(&mut oracle, &[], &[Formula::False]));
        assert!(cache.is_empty());
        assert_eq!(oracle.shared_tier_locks(), 0);
    }

    #[test]
    fn shape_memo_shares_product_walks_across_axiom_sets() {
        use hat_sfa::{InclusionChecker, OpSig, Sfa, VarCtx};
        let cache = Arc::new(MemoStore::in_memory());
        let ops = vec![OpSig::new(
            "insert",
            vec![("x".into(), Sort::Int)],
            Sort::Unit,
        )];
        let ins = Sfa::event(
            "insert",
            vec!["x".into()],
            "v",
            Formula::eq(Term::var("x"), Term::var("el")),
        );
        let never = Sfa::globally(Sfa::not(ins.clone()));
        let at_most_once = Sfa::globally(Sfa::implies(
            ins.clone(),
            Sfa::next(Sfa::not(Sfa::eventually(ins))),
        ));
        let ctx = VarCtx::new(vec![("el".into(), Sort::Int)], vec![]);

        let mut first = CachingOracle::new(AxiomSet::new(), cache.clone());
        let mut checker = InclusionChecker::new(ops.clone());
        assert!(checker
            .check(&ctx, &never, &at_most_once, &mut first)
            .unwrap());
        assert_eq!(checker.stats.shape_memo_hits, 0, "the first walk is cold");
        assert!(checker.stats.fa_inclusions > 0);

        // Under a *different* axiom set the axiom-prefixed inclusion memo cannot answer,
        // but a per-group product walk is a pure function of its shape — the `D` entries
        // are shared and every walk is skipped.
        let mut other_axioms = AxiomSet::new();
        other_axioms.declare_pred("unrelated", vec![Sort::Int]);
        let mut second = CachingOracle::new(other_axioms, cache);
        let mut fresh_checker = InclusionChecker::new(ops);
        assert!(fresh_checker
            .check(&ctx, &never, &at_most_once, &mut second)
            .unwrap());
        assert_eq!(
            fresh_checker.stats.inclusion_memo_hits, 0,
            "different axiom sets must not share whole-check verdicts"
        );
        assert_eq!(
            fresh_checker.stats.shape_memo_hits, checker.stats.fa_inclusions,
            "every per-group walk must be answered from the shape memo"
        );
        assert_eq!(
            fresh_checker.stats.fa_inclusions, 0,
            "no walk may run when its shape is memoised"
        );
    }

    #[test]
    fn oracles_with_different_axiom_sets_do_not_share_entries() {
        // Regression test: verdicts depend on the axiom set, so a cache shared by
        // benchmarks with different axioms must keep their entries apart.
        use hat_logic::axioms::Axiom;
        let sort = Sort::named("Bytes.t");
        let vars = vec![("v".to_string(), sort.clone())];
        let query = vec![
            Formula::pred("isDir", vec![Term::var("v")]),
            Formula::pred("isDel", vec![Term::var("v")]),
        ];
        let mut strict = AxiomSet::new();
        strict.declare_pred("isDir", vec![sort.clone()]);
        strict.declare_pred("isDel", vec![sort.clone()]);
        strict.add_axiom(Axiom::new(
            "dir-not-del",
            vec![("b".into(), sort)],
            Formula::implies(
                Formula::pred("isDir", vec![Term::var("b")]),
                Formula::not(Formula::pred("isDel", vec![Term::var("b")])),
            ),
        ));
        let cache = Arc::new(MemoStore::in_memory());
        // Under no axioms the conjunction is satisfiable...
        let mut lax_oracle = CachingOracle::new(AxiomSet::new(), cache.clone());
        assert!(SolverOracle::is_sat(&mut lax_oracle, &vars, &query));
        // ...under the disjointness axiom it is not, even with the lax verdict cached.
        let mut strict_oracle = CachingOracle::new(strict, cache.clone());
        assert!(!SolverOracle::is_sat(&mut strict_oracle, &vars, &query));
        assert_eq!(
            strict_oracle.cache_hits(),
            0,
            "must not reuse the lax entry"
        );
        assert_eq!(cache.len(), 2);
    }
}
