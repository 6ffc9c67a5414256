//! Theory consistency checking: congruence closure over uninterpreted functions and
//! predicates, plus integer difference-bound reasoning.

use crate::axioms::AxiomSet;
use crate::constant::Constant;
use crate::formula::Atom;
use crate::sort::Sort;
use crate::term::{FuncSym, Term};
use crate::Ident;
use std::cell::Cell;
use std::collections::BTreeMap;

/// A theory consistency checker for a fixed sort environment and axiom set.
#[derive(Debug)]
pub struct TheoryCheck<'a> {
    env: &'a BTreeMap<Ident, Sort>,
    axioms: &'a AxiomSet,
    /// Consistency checks made so far, core minimisation included.
    checks: Cell<usize>,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Node {
    Var(Ident),
    Const(Constant),
    App(String, Vec<usize>),
}

#[derive(Debug, Default)]
struct Egraph {
    nodes: Vec<Node>,
    parent: Vec<usize>,
}

impl Egraph {
    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        self.parent[ra] = rb;
        true
    }

    fn intern(&mut self, node: Node) -> usize {
        if let Some(i) = self.nodes.iter().position(|n| *n == node) {
            return i;
        }
        self.nodes.push(node);
        self.parent.push(self.nodes.len() - 1);
        self.nodes.len() - 1
    }

    fn intern_term(&mut self, t: &Term) -> usize {
        match t {
            Term::Var(x) => self.intern(Node::Var(x.clone())),
            Term::Const(c) => self.intern(Node::Const(c.clone())),
            Term::App(sym, args) => {
                let arg_ids: Vec<usize> = args.iter().map(|a| self.intern_term(a)).collect();
                self.intern(Node::App(format!("f:{}", sym.name()), arg_ids))
            }
        }
    }

    /// Closes the relation under congruence: apps with the same symbol and congruent
    /// arguments are merged. Quadratic fixpoint; fine at this scale.
    fn congruence_closure(&mut self) {
        loop {
            let mut merged = false;
            let apps: Vec<(usize, String, Vec<usize>)> = self
                .nodes
                .iter()
                .enumerate()
                .filter_map(|(i, n)| match n {
                    Node::App(s, args) => Some((i, s.clone(), args.clone())),
                    _ => None,
                })
                .collect();
            for i in 0..apps.len() {
                for j in (i + 1)..apps.len() {
                    let (ni, si, ai) = &apps[i];
                    let (nj, sj, aj) = &apps[j];
                    if si != sj || ai.len() != aj.len() {
                        continue;
                    }
                    if self.find(*ni) == self.find(*nj) {
                        continue;
                    }
                    let congruent = ai
                        .iter()
                        .zip(aj.iter())
                        .all(|(a, b)| self.find(*a) == self.find(*b));
                    if congruent && self.union(*ni, *nj) {
                        merged = true;
                    }
                }
            }
            if !merged {
                break;
            }
        }
    }

    /// Returns a conflict if two distinct constants ended up in the same class.
    fn constant_conflict(&mut self) -> bool {
        let n = self.nodes.len();
        let mut class_const: BTreeMap<usize, Constant> = BTreeMap::new();
        for i in 0..n {
            if let Node::Const(c) = self.nodes[i].clone() {
                let r = self.find(i);
                match class_const.get(&r) {
                    Some(existing) if *existing != c => return true,
                    _ => {
                        class_const.insert(r, c);
                    }
                }
            }
        }
        false
    }
}

impl<'a> TheoryCheck<'a> {
    /// Creates a checker for the given variable sorts and axioms.
    pub fn new(env: &'a BTreeMap<Ident, Sort>, axioms: &'a AxiomSet) -> Self {
        TheoryCheck {
            env,
            axioms,
            checks: Cell::new(0),
        }
    }

    /// Number of consistency checks made so far: one per [`TheoryCheck::consistent`]
    /// call, plus those its core minimisation made.
    pub fn checks(&self) -> usize {
        self.checks.get()
    }

    fn term_is_int(&self, t: &Term) -> bool {
        match t {
            Term::Var(x) => self.env.get(x) == Some(&Sort::Int),
            Term::Const(Constant::Int(_)) => true,
            Term::Const(_) => false,
            Term::App(FuncSym::Named(f), _) => self.axioms.func_ret_sort(f) == Some(&Sort::Int),
            Term::App(_, _) => true,
        }
    }

    /// Checks whether the literal set is consistent with the theory.
    ///
    /// On conflict, returns a *minimised* conflict core: a subset of the literals that is
    /// still theory-inconsistent and from which no single literal can be removed, in the
    /// order the literals were given. Small cores matter enormously for the lazy-SMT
    /// loop: a blocking clause built from the full literal set excludes exactly one
    /// propositional model, so the loop can cycle through exponentially many
    /// theory-equivalent models; a blocking clause built from a minimal core excludes
    /// the whole family at once.
    pub fn consistent(&self, lits: &[(Atom, bool)]) -> Result<(), Vec<(Atom, bool)>> {
        let all: Vec<&(Atom, bool)> = lits.iter().collect();
        if self.check(&all) {
            return Ok(());
        }
        // QuickXplain keeps the candidates it is handed first wherever it can. Handed
        // the literals last-first, it returns the core that deleting literals one at a
        // time from the front would: the same core for the same model, deterministically.
        let last_first: Vec<usize> = (0..lits.len()).rev().collect();
        let mut core = self.quickxplain(lits, &mut Vec::new(), false, &last_first);
        core.sort_unstable();
        Err(core.into_iter().map(|i| lits[i].clone()).collect())
    }

    /// QuickXplain (Junker, AAAI'04): a minimal subset of `candidates` (indices into
    /// `lits`) that is inconsistent together with `background`, given that the two
    /// together are. It needs O(k log(n/k)) checks for a k-literal core among n
    /// candidates, where deleting one literal at a time needs n. `grew` says whether
    /// the caller just added to `background`; if not, `background` is known consistent
    /// and is not checked again. `background` is restored before returning.
    fn quickxplain(
        &self,
        lits: &[(Atom, bool)],
        background: &mut Vec<usize>,
        grew: bool,
        candidates: &[usize],
    ) -> Vec<usize> {
        if grew && !self.check(&background.iter().map(|&i| &lits[i]).collect::<Vec<_>>()) {
            return Vec::new();
        }
        if candidates.len() <= 1 {
            return candidates.to_vec();
        }
        let (first, second) = candidates.split_at(candidates.len() / 2);
        let mark = background.len();
        background.extend_from_slice(first);
        let mut core = self.quickxplain(lits, background, true, second);
        background.truncate(mark);
        background.extend_from_slice(&core);
        let first_core = self.quickxplain(lits, background, !core.is_empty(), first);
        background.truncate(mark);
        core.extend(first_core);
        core
    }

    fn check(&self, lits: &[&(Atom, bool)]) -> bool {
        self.checks.set(self.checks.get() + 1);
        let mut eg = Egraph::default();
        let true_node = eg.intern(Node::Const(Constant::Bool(true)));
        let false_node = eg.intern(Node::Const(Constant::Bool(false)));

        let mut disequalities: Vec<(usize, usize)> = Vec::new();
        let mut ordering: Vec<(Term, Term, bool, bool)> = Vec::new(); // (a, b, strict, positive)

        for (atom, value) in lits {
            match atom {
                Atom::Eq(l, r) => {
                    let (a, b) = (eg.intern_term(l), eg.intern_term(r));
                    if *value {
                        eg.union(a, b);
                    } else {
                        disequalities.push((a, b));
                    }
                }
                Atom::Lt(l, r) => ordering.push((l.clone(), r.clone(), true, *value)),
                Atom::Le(l, r) => ordering.push((l.clone(), r.clone(), false, *value)),
                Atom::Pred(p, args) => {
                    let arg_ids: Vec<usize> = args.iter().map(|a| eg.intern_term(a)).collect();
                    let node = eg.intern(Node::App(format!("p:{p}"), arg_ids));
                    eg.union(node, if *value { true_node } else { false_node });
                }
                Atom::BoolTerm(t) => {
                    let node = eg.intern_term(t);
                    eg.union(node, if *value { true_node } else { false_node });
                }
            }
        }

        eg.congruence_closure();

        if eg.constant_conflict() {
            return false;
        }
        for (a, b) in &disequalities {
            if eg.find(*a) == eg.find(*b) {
                return false;
            }
        }

        // Integer difference-bound reasoning on top of the equivalence classes.
        self.check_orderings(&mut eg, &ordering, &disequalities, lits)
    }

    fn check_orderings(
        &self,
        eg: &mut Egraph,
        ordering: &[(Term, Term, bool, bool)],
        disequalities: &[(usize, usize)],
        lits: &[&(Atom, bool)],
    ) -> bool {
        // Collect integer-sorted terms: those in ordering atoms plus integer constants and
        // arithmetic offsets appearing anywhere.
        let mut int_terms: Vec<Term> = Vec::new();
        let push = |t: &Term, v: &mut Vec<Term>| {
            if !v.contains(t) {
                v.push(t.clone());
            }
        };
        for (a, b, _, _) in ordering {
            push(a, &mut int_terms);
            push(b, &mut int_terms);
        }
        for (atom, _) in lits {
            if let Atom::Eq(l, r) = atom {
                if self.term_is_int(l) || self.term_is_int(r) {
                    push(l, &mut int_terms);
                    push(r, &mut int_terms);
                }
            }
        }
        if int_terms.is_empty() {
            return true;
        }

        // Node mapping: congruence class representative of each int term, plus a zero node.
        let mut ids: Vec<usize> = Vec::new();
        let class_of = |eg: &mut Egraph, t: &Term, ids: &mut Vec<usize>| -> usize {
            let n = eg.intern_term(t);
            let r = eg.find(n);
            if let Some(i) = ids.iter().position(|x| *x == r) {
                i
            } else {
                ids.push(r);
                ids.len() - 1
            }
        };

        #[derive(Clone)]
        struct Edge {
            from: usize,
            to: usize,
            weight: i64,
        }
        let mut edges: Vec<Edge> = Vec::new();
        // constraint: to - from <= weight
        let add_le = |to: usize, from: usize, weight: i64, edges: &mut Vec<Edge>| {
            edges.push(Edge { from, to, weight });
        };

        let zero = {
            ids.push(usize::MAX); // sentinel representative for the zero node
            ids.len() - 1
        };

        let mut term_node: BTreeMap<Term, usize> = BTreeMap::new();
        for t in &int_terms {
            let idx = class_of(eg, t, &mut ids);
            term_node.insert(t.clone(), idx);
            // Integer constants pin the class to a value.
            if let Term::Const(Constant::Int(k)) = t {
                add_le(idx, zero, *k, &mut edges);
                add_le(zero, idx, -*k, &mut edges);
            }
            // Arithmetic offsets t' ± k.
            if let Term::App(sym, args) = t {
                if args.len() == 2 {
                    let (base, k, sign) = match (&args[0], &args[1], sym) {
                        (b, Term::Const(Constant::Int(k)), FuncSym::Add) => (Some(b), *k, 1),
                        (Term::Const(Constant::Int(k)), b, FuncSym::Add) => (Some(b), *k, 1),
                        (b, Term::Const(Constant::Int(k)), FuncSym::Sub) => (Some(b), *k, -1),
                        _ => (None, 0, 0),
                    };
                    if let Some(base) = base {
                        let b_idx = class_of(eg, base, &mut ids);
                        let off = k * sign as i64;
                        // t - base <= off and base - t <= -off
                        add_le(idx, b_idx, off, &mut edges);
                        add_le(b_idx, idx, -off, &mut edges);
                    }
                }
            }
        }

        for (a, b, strict, positive) in ordering {
            let ia = *term_node.get(a).expect("collected above");
            let ib = *term_node.get(b).expect("collected above");
            match (strict, positive) {
                // a < b  ⇒ a - b <= -1
                (true, true) => add_le(ia, ib, -1, &mut edges),
                // ¬(a < b) ⇒ b <= a ⇒ b - a <= 0
                (true, false) => add_le(ib, ia, 0, &mut edges),
                // a <= b ⇒ a - b <= 0
                (false, true) => add_le(ia, ib, 0, &mut edges),
                // ¬(a <= b) ⇒ b < a ⇒ b - a <= -1
                (false, false) => add_le(ib, ia, -1, &mut edges),
            }
        }

        // Equal classes collapse to the same node already (class_of uses representatives).

        // Bellman-Ford negative-cycle detection from a virtual source.
        let n = ids.len();
        let mut dist = vec![0i64; n];
        for _ in 0..n {
            let mut changed = false;
            for e in &edges {
                if dist[e.from].saturating_add(e.weight) < dist[e.to] {
                    dist[e.to] = dist[e.from].saturating_add(e.weight);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        for e in &edges {
            if dist[e.from].saturating_add(e.weight) < dist[e.to] {
                return false; // negative cycle
            }
        }

        // Disequalities between integer classes that the bounds force equal.
        if !disequalities.is_empty() {
            // all-pairs tightest bounds (Floyd–Warshall); n is small.
            const INF: i64 = i64::MAX / 4;
            let mut d = vec![vec![INF; n]; n];
            for (i, row) in d.iter_mut().enumerate() {
                row[i] = 0;
            }
            for e in &edges {
                // bound on (to - from)
                if e.weight < d[e.from][e.to] {
                    d[e.from][e.to] = e.weight;
                }
            }
            for k in 0..n {
                for i in 0..n {
                    for j in 0..n {
                        let via = d[i][k].saturating_add(d[k][j]);
                        if via < d[i][j] {
                            d[i][j] = via;
                        }
                    }
                }
            }
            for (a, b) in disequalities {
                let (ra, rb) = (eg.find(*a), eg.find(*b));
                let ia = ids.iter().position(|x| *x == ra);
                let ib = ids.iter().position(|x| *x == rb);
                if let (Some(ia), Some(ib)) = (ia, ib) {
                    if d[ia][ib] == 0 && d[ib][ia] == 0 {
                        return false; // forced equal but asserted distinct
                    }
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hat_testkit::XorShift;

    fn env() -> BTreeMap<Ident, Sort> {
        let mut m = BTreeMap::new();
        m.insert("x".to_string(), Sort::Int);
        m.insert("y".to_string(), Sort::Int);
        m.insert("a".to_string(), Sort::named("T"));
        m.insert("b".to_string(), Sort::named("T"));
        m
    }

    fn check(lits: Vec<(Atom, bool)>) -> bool {
        let e = env();
        let ax = AxiomSet::new();
        TheoryCheck::new(&e, &ax).consistent(&lits).is_ok()
    }

    #[test]
    fn transitive_equality_conflict() {
        // a = b, b = "k1", a = "k2" is inconsistent.
        let lits = vec![
            (Atom::Eq(Term::var("a"), Term::var("b")), true),
            (Atom::Eq(Term::var("b"), Term::atom("k1")), true),
            (Atom::Eq(Term::var("a"), Term::atom("k2")), true),
        ];
        assert!(!check(lits));
    }

    #[test]
    fn congruence_propagates_through_functions() {
        // a = b ∧ f(a) ≠ f(b) is inconsistent.
        let lits = vec![
            (Atom::Eq(Term::var("a"), Term::var("b")), true),
            (
                Atom::Eq(
                    Term::app("f", vec![Term::var("a")]),
                    Term::app("f", vec![Term::var("b")]),
                ),
                false,
            ),
        ];
        assert!(!check(lits));
    }

    #[test]
    fn predicate_congruence() {
        // a = b ∧ p(a) ∧ ¬p(b) is inconsistent.
        let lits = vec![
            (Atom::Eq(Term::var("a"), Term::var("b")), true),
            (Atom::Pred("p".into(), vec![Term::var("a")]), true),
            (Atom::Pred("p".into(), vec![Term::var("b")]), false),
        ];
        assert!(!check(lits));
    }

    #[test]
    fn ordering_cycle_detected() {
        // x < y ∧ y < x inconsistent.
        let lits = vec![
            (Atom::Lt(Term::var("x"), Term::var("y")), true),
            (Atom::Lt(Term::var("y"), Term::var("x")), true),
        ];
        assert!(!check(lits));
        // x < y ∧ y <= x inconsistent.
        let lits = vec![
            (Atom::Lt(Term::var("x"), Term::var("y")), true),
            (Atom::Le(Term::var("y"), Term::var("x")), true),
        ];
        assert!(!check(lits));
        // x <= y ∧ y <= x consistent.
        let lits = vec![
            (Atom::Le(Term::var("x"), Term::var("y")), true),
            (Atom::Le(Term::var("y"), Term::var("x")), true),
        ];
        assert!(check(lits));
    }

    #[test]
    fn bounds_with_constants() {
        // x < 3 ∧ 5 < x inconsistent.
        let lits = vec![
            (Atom::Lt(Term::var("x"), Term::int(3)), true),
            (Atom::Lt(Term::int(5), Term::var("x")), true),
        ];
        assert!(!check(lits));
        // x < 3 ∧ 1 < x consistent (x = 2).
        let lits = vec![
            (Atom::Lt(Term::var("x"), Term::int(3)), true),
            (Atom::Lt(Term::int(1), Term::var("x")), true),
        ];
        assert!(check(lits));
    }

    #[test]
    fn forced_equality_vs_disequality() {
        // x <= y ∧ y <= x ∧ x ≠ y inconsistent.
        let lits = vec![
            (Atom::Le(Term::var("x"), Term::var("y")), true),
            (Atom::Le(Term::var("y"), Term::var("x")), true),
            (Atom::Eq(Term::var("x"), Term::var("y")), false),
        ];
        assert!(!check(lits));
        // x <= y ∧ x ≠ y consistent.
        let lits = vec![
            (Atom::Le(Term::var("x"), Term::var("y")), true),
            (Atom::Eq(Term::var("x"), Term::var("y")), false),
        ];
        assert!(check(lits));
    }

    #[test]
    fn equality_feeds_arithmetic() {
        // x = 3 ∧ x < 2 inconsistent (equality merges class with the constant 3).
        let lits = vec![
            (Atom::Eq(Term::var("x"), Term::int(3)), true),
            (Atom::Lt(Term::var("x"), Term::int(2)), true),
        ];
        assert!(!check(lits));
    }

    #[test]
    fn negated_ordering() {
        // ¬(x < y) ∧ ¬(y < x) ∧ x ≠ y inconsistent (x = y forced).
        let lits = vec![
            (Atom::Lt(Term::var("x"), Term::var("y")), false),
            (Atom::Lt(Term::var("y"), Term::var("x")), false),
            (Atom::Eq(Term::var("x"), Term::var("y")), false),
        ];
        assert!(!check(lits));
    }

    #[test]
    fn arithmetic_offsets() {
        // x + 1 <= y ∧ y <= x inconsistent.
        let xp1 = Term::add(Term::var("x"), Term::int(1));
        let lits = vec![
            (Atom::Le(xp1, Term::var("y")), true),
            (Atom::Le(Term::var("y"), Term::var("x")), true),
        ];
        assert!(!check(lits));
    }

    /// A random literal over equalities, orderings with integer constants and offsets,
    /// predicates and function applications, drawn from a small term pool so that
    /// random sets conflict often.
    fn random_literal(rng: &mut XorShift) -> (Atom, bool) {
        let int_terms = [
            Term::var("x"),
            Term::var("y"),
            Term::int(0),
            Term::int(2),
            Term::add(Term::var("x"), Term::int(1)),
            Term::sub(Term::var("y"), Term::int(1)),
            Term::app("len", vec![Term::var("a")]),
            Term::app("len", vec![Term::var("b")]),
        ];
        let named_terms = [
            Term::var("a"),
            Term::var("b"),
            Term::atom("k1"),
            Term::atom("k2"),
            Term::app("f", vec![Term::var("a")]),
            Term::app("f", vec![Term::var("b")]),
        ];
        let atom = match rng.below(5) {
            0 => Atom::Eq(rng.pick(&int_terms).clone(), rng.pick(&int_terms).clone()),
            1 => Atom::Lt(rng.pick(&int_terms).clone(), rng.pick(&int_terms).clone()),
            2 => Atom::Le(rng.pick(&int_terms).clone(), rng.pick(&int_terms).clone()),
            3 => Atom::Eq(
                rng.pick(&named_terms).clone(),
                rng.pick(&named_terms).clone(),
            ),
            _ => Atom::Pred("p".into(), vec![rng.pick(&named_terms).clone()]),
        };
        (atom, rng.flip())
    }

    #[test]
    fn quickxplain_cores_are_inconsistent_and_irreducible() {
        let env = env();
        let mut axioms = AxiomSet::new();
        axioms.declare_func("len", vec![Sort::named("T")], Sort::Int);
        axioms.declare_func("f", vec![Sort::named("T")], Sort::named("T"));
        let theory = TheoryCheck::new(&env, &axioms);
        let mut rng = XorShift(0x51c0_ffee_d00d_f00d);
        let mut conflicts = 0;
        for case in 0..400 {
            // A DPLL model assigns each atom once.
            let mut lits: Vec<(Atom, bool)> = Vec::new();
            for _ in 0..2 + rng.below(14) {
                let lit = random_literal(&mut rng);
                if lits.iter().all(|(a, _)| *a != lit.0) {
                    lits.push(lit);
                }
            }
            let Err(core) = theory.consistent(&lits) else {
                continue;
            };
            conflicts += 1;
            let positions: Vec<usize> = core
                .iter()
                .map(|l| lits.iter().position(|m| m == l).expect("core ⊆ literals"))
                .collect();
            assert!(
                positions.windows(2).all(|w| w[0] < w[1]),
                "case {case}: the core keeps the literals' order: {core:?}"
            );
            assert!(
                theory.consistent(&core).is_err(),
                "case {case}: core {core:?} of {lits:?} is consistent"
            );
            for i in 0..core.len() {
                let mut smaller = core.clone();
                let dropped = smaller.remove(i);
                assert!(
                    theory.consistent(&smaller).is_ok(),
                    "case {case}: core {core:?} stays inconsistent without {dropped:?}"
                );
            }
        }
        assert!(conflicts >= 100, "only {conflicts} of 400 sets conflicted");
    }

    #[test]
    fn checks_count_core_minimisation() {
        let e = env();
        let ax = AxiomSet::new();
        let theory = TheoryCheck::new(&e, &ax);
        let cycle = vec![
            (Atom::Lt(Term::var("x"), Term::var("y")), true),
            (Atom::Pred("p".into(), vec![Term::var("a")]), true),
            (Atom::Lt(Term::var("y"), Term::var("x")), true),
        ];
        assert!(theory.consistent(&cycle[..2]).is_ok());
        assert_eq!(theory.checks(), 1, "a consistent set costs one check");
        assert_eq!(theory.consistent(&cycle).unwrap_err().len(), 2);
        assert!(theory.checks() > 2, "minimisation checks are counted too");
    }

    #[test]
    fn consistent_mixed_assignment() {
        let lits = vec![
            (Atom::Pred("isDir".into(), vec![Term::var("a")]), true),
            (Atom::Pred("isDir".into(), vec![Term::var("b")]), false),
            (Atom::Eq(Term::var("x"), Term::int(0)), true),
            (Atom::Lt(Term::var("x"), Term::var("y")), true),
        ];
        assert!(check(lits));
    }
}
