//! The symbolic-automaton formula AST (symbolic LTL on finite traces).

use hat_logic::{Formula, Ident, Sort, Term};
use std::collections::BTreeSet;
use std::fmt;

/// The signature of an effectful operator: argument names/sorts and result sort.
///
/// The inclusion checker needs the full operator alphabet (paper Algorithm 1, line 5) and
/// the argument sorts to type the event variables of minterm satisfiability queries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpSig {
    /// Operator name (e.g. `put`).
    pub name: String,
    /// Formal argument names and sorts.
    pub args: Vec<(Ident, Sort)>,
    /// Result sort.
    pub ret: Sort,
}

impl OpSig {
    /// Creates an operator signature.
    pub fn new(name: impl Into<String>, args: Vec<(Ident, Sort)>, ret: Sort) -> Self {
        OpSig {
            name: name.into(),
            args,
            ret,
        }
    }
}

/// A symbolic event `⟨op x̄ = ν | φ⟩`: an application of the effectful operator `op` to
/// arguments named `args` producing `result`, constrained by the qualifier `phi`
/// (which may also mention variables of the typing context).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct SymbolicEvent {
    /// Operator name.
    pub op: String,
    /// Names binding the operator's arguments inside `phi`.
    pub args: Vec<Ident>,
    /// Name binding the operator's result inside `phi`.
    pub result: Ident,
    /// Qualifier over the arguments, result and context variables.
    pub phi: Formula,
}

impl SymbolicEvent {
    /// Creates a symbolic event.
    pub fn new(
        op: impl Into<String>,
        args: Vec<Ident>,
        result: impl Into<Ident>,
        phi: Formula,
    ) -> Self {
        SymbolicEvent {
            op: op.into(),
            args,
            result: result.into(),
            phi,
        }
    }

    /// The event-local variables (argument names and the result name).
    pub fn local_vars(&self) -> BTreeSet<Ident> {
        let mut s: BTreeSet<Ident> = self.args.iter().cloned().collect();
        s.insert(self.result.clone());
        s
    }

    /// Free context variables of the qualifier (free variables that are not event-local).
    pub fn context_vars(&self) -> BTreeSet<Ident> {
        let locals = self.local_vars();
        self.phi
            .free_vars()
            .into_iter()
            .filter(|v| !locals.contains(v))
            .collect()
    }

    /// Substitutes a context variable by a term inside the qualifier.
    /// Event-local variables are binders and are never substituted; binders that would
    /// capture variables of the replacement term are alpha-renamed first.
    pub fn subst(&self, var: &str, t: &Term) -> SymbolicEvent {
        if self.local_vars().contains(var) {
            return self.clone();
        }
        let mut event = self.clone();
        let replacement_vars = t.free_vars();
        let locals: Vec<Ident> = event.local_vars().into_iter().collect();
        for local in locals {
            if replacement_vars.contains(&local) {
                // Freshen the clashing binder.
                let mut fresh = format!("{local}'");
                while replacement_vars.contains(&fresh)
                    || event.local_vars().contains(&fresh)
                    || event.phi.free_vars().contains(&fresh)
                {
                    fresh.push('\'');
                }
                event.phi = event.phi.subst_var(&local, &Term::Var(fresh.clone()));
                if event.result == local {
                    event.result = fresh.clone();
                }
                for a in &mut event.args {
                    if *a == local {
                        *a = fresh.clone();
                    }
                }
            }
        }
        SymbolicEvent {
            phi: event.phi.subst_var(var, t),
            ..event
        }
    }

    /// The event with its argument and result binders renamed to `$q0, $q1, …`
    /// positionally (the leaf case of [`Sfa::alpha_normal`]).
    pub fn alpha_normal(&self) -> SymbolicEvent {
        let mut map: Vec<(Ident, Ident)> = Vec::new();
        let args: Vec<Ident> = self
            .args
            .iter()
            .enumerate()
            .map(|(i, a)| {
                let canon = format!("$q{i}");
                map.push((a.clone(), canon.clone()));
                canon
            })
            .collect();
        let result = format!("$q{}", self.args.len());
        map.push((self.result.clone(), result.clone()));
        // Later binders shadow earlier ones with the same name (reversed search).
        let phi = self.phi.rename_free_vars(&|v: &str| {
            map.iter()
                .rev()
                .find(|(orig, _)| orig == v)
                .map(|(_, c)| c.clone())
        });
        SymbolicEvent {
            op: self.op.clone(),
            args,
            result,
            phi,
        }
    }
}

impl fmt::Display for SymbolicEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<{}", self.op)?;
        for a in &self.args {
            write!(f, " {a}")?;
        }
        write!(f, " = {} | {}>", self.result, self.phi)
    }
}

/// A symbolic finite automaton, written as a formula of symbolic LTLf
/// (paper Fig. 4, "Symbolic Finite Automata" production).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum Sfa {
    /// The empty language (no trace accepted). Not part of the surface syntax but needed
    /// internally by derivatives.
    Zero,
    /// The language containing only the empty trace.
    Epsilon,
    /// A symbolic event `⟨op x̄ = ν | φ⟩`: the trace is non-empty and its first event
    /// matches; the remainder of the trace is unconstrained.
    Event(SymbolicEvent),
    /// `⟨φ⟩`: the trace is non-empty and the (event-independent) formula `φ` holds.
    Guard(Formula),
    /// Complement.
    Not(Box<Sfa>),
    /// Intersection.
    And(Vec<Sfa>),
    /// Union.
    Or(Vec<Sfa>),
    /// Concatenation `A; B`.
    Concat(Box<Sfa>, Box<Sfa>),
    /// Temporal next `◯A`.
    Next(Box<Sfa>),
    /// Temporal until `A U B`.
    Until(Box<Sfa>, Box<Sfa>),
    /// Kleene star (used by the `□⟨⊤⟩`-style "any trace" automata and by derivatives).
    Star(Box<Sfa>),
}

impl Sfa {
    /// `⟨op x̄ = ν | φ⟩`.
    pub fn event(
        op: impl Into<String>,
        args: Vec<Ident>,
        result: impl Into<Ident>,
        phi: Formula,
    ) -> Sfa {
        Sfa::Event(SymbolicEvent::new(op, args, result, phi))
    }

    /// `⟨φ⟩`.
    pub fn guard(phi: Formula) -> Sfa {
        Sfa::Guard(phi)
    }

    /// `⟨⊤⟩` — any single event.
    pub fn any_event() -> Sfa {
        Sfa::Guard(Formula::True)
    }

    /// The universal language (any trace), written `□⟨⊤⟩` in the paper.
    pub fn universe() -> Sfa {
        Sfa::Star(Box::new(Sfa::any_event()))
    }

    /// Is this syntactically the universal language?
    pub fn is_universe(&self) -> bool {
        matches!(self, Sfa::Star(inner) if matches!(inner.as_ref(), Sfa::Guard(Formula::True)))
    }

    /// Complement (with light simplification).
    #[allow(clippy::should_implement_trait)] // associated constructor, not operator overloading
    pub fn not(a: Sfa) -> Sfa {
        match a {
            Sfa::Not(inner) => *inner,
            Sfa::Zero => Sfa::universe(),
            other if other.is_universe() => Sfa::Zero,
            other => Sfa::Not(Box::new(other)),
        }
    }

    /// Intersection (flattening, absorbing `Zero` and the universe, and closed under
    /// absorption: `x ∧ (x ∨ y) = x` and `x ∧ (y ∨ (x ∧ z)) = x ∧ (y ∨ z)`).
    pub fn and(parts: Vec<Sfa>) -> Sfa {
        let mut out: Vec<Sfa> = Vec::new();
        for p in parts {
            match p {
                Sfa::Zero => return Sfa::Zero,
                other if other.is_universe() => {}
                Sfa::And(inner) => out.extend(inner),
                other => out.push(other),
            }
        }
        out.sort();
        out.dedup();
        if let Some(absorbed) = absorb(&out, false) {
            return Sfa::and(absorbed);
        }
        match out.len() {
            0 => Sfa::universe(),
            1 => out.into_iter().next().expect("len checked"),
            _ => Sfa::And(out),
        }
    }

    /// Union (flattening, absorbing `Zero` and the universe, and closed under
    /// absorption: `x ∨ (x ∧ y) = x` and `x ∨ (y ∧ (x ∨ z)) = x ∨ (y ∧ z)`).
    ///
    /// The absorption rules are what keep Brzozowski derivatives finite here: until's
    /// derivative `dy ∨ (dx ∧ (x U y))` nests one level deeper per step unless the
    /// disjuncts it repeats are absorbed (Brzozowski, JACM 1964, "similarity").
    pub fn or(parts: Vec<Sfa>) -> Sfa {
        let mut out: Vec<Sfa> = Vec::new();
        for p in parts {
            match p {
                Sfa::Zero => {}
                other if other.is_universe() => return Sfa::universe(),
                Sfa::Or(inner) => out.extend(inner),
                other => out.push(other),
            }
        }
        out.sort();
        out.dedup();
        if let Some(absorbed) = absorb(&out, true) {
            return Sfa::or(absorbed);
        }
        match out.len() {
            0 => Sfa::Zero,
            1 => out.into_iter().next().expect("len checked"),
            _ => Sfa::Or(out),
        }
    }

    /// Concatenation `A; B` (right-associated, with absorption of the universe so the
    /// derivative construction cannot grow `□⟨⊤⟩; □⟨⊤⟩; ...` chains without bound).
    pub fn concat(a: Sfa, b: Sfa) -> Sfa {
        match (a, b) {
            (Sfa::Zero, _) | (_, Sfa::Zero) => Sfa::Zero,
            (Sfa::Epsilon, b) => b,
            (a, Sfa::Epsilon) => a,
            (Sfa::Concat(x, y), b) => Sfa::concat(*x, Sfa::concat(*y, b)),
            (a, b) => {
                if a.is_universe() {
                    if b.is_universe() {
                        return b;
                    }
                    if let Sfa::Concat(head, _) = &b {
                        if head.is_universe() {
                            return b;
                        }
                    }
                }
                if let (Sfa::Star(x), Sfa::Star(y)) = (&a, &b) {
                    if x == y {
                        return b;
                    }
                }
                Sfa::Concat(Box::new(a), Box::new(b))
            }
        }
    }

    /// Temporal next `◯A`.
    pub fn next(a: Sfa) -> Sfa {
        Sfa::Next(Box::new(a))
    }

    /// Temporal until `A U B`.
    pub fn until(a: Sfa, b: Sfa) -> Sfa {
        Sfa::Until(Box::new(a), Box::new(b))
    }

    /// Kleene star.
    pub fn star(a: Sfa) -> Sfa {
        match a {
            Sfa::Zero | Sfa::Epsilon => Sfa::Epsilon,
            Sfa::Star(inner) => Sfa::Star(inner),
            other => Sfa::Star(Box::new(other)),
        }
    }

    /// `♦A ≐ ⟨⊤⟩ U A` — eventually.
    pub fn eventually(a: Sfa) -> Sfa {
        Sfa::until(Sfa::any_event(), a)
    }

    /// `□A ≐ ¬♦¬A` — globally.
    pub fn globally(a: Sfa) -> Sfa {
        Sfa::not(Sfa::eventually(Sfa::not(a)))
    }

    /// `LAST ≐ ¬◯⟨⊤⟩` — the current event is the last one.
    pub fn last() -> Sfa {
        Sfa::not(Sfa::next(Sfa::any_event()))
    }

    /// `A ⇒ B ≐ ¬A ∨ B`.
    pub fn implies(a: Sfa, b: Sfa) -> Sfa {
        Sfa::or(vec![Sfa::not(a), b])
    }

    /// Free context variables of the automaton: free variables of qualifiers that are
    /// not bound as event arguments.
    pub fn free_vars(&self) -> BTreeSet<Ident> {
        let mut out = BTreeSet::new();
        self.collect_free_vars(&mut out);
        out
    }

    fn collect_free_vars(&self, out: &mut BTreeSet<Ident>) {
        match self {
            Sfa::Zero | Sfa::Epsilon => {}
            Sfa::Event(e) => out.extend(e.context_vars()),
            Sfa::Guard(phi) => out.extend(phi.free_vars()),
            Sfa::Not(a) | Sfa::Next(a) | Sfa::Star(a) => a.collect_free_vars(out),
            Sfa::And(parts) | Sfa::Or(parts) => {
                for p in parts {
                    p.collect_free_vars(out);
                }
            }
            Sfa::Concat(a, b) | Sfa::Until(a, b) => {
                a.collect_free_vars(out);
                b.collect_free_vars(out);
            }
        }
    }

    /// Substitutes a context variable by a term in every qualifier.
    pub fn subst(&self, var: &str, t: &Term) -> Sfa {
        match self {
            Sfa::Zero | Sfa::Epsilon => self.clone(),
            Sfa::Event(e) => Sfa::Event(e.subst(var, t)),
            Sfa::Guard(phi) => Sfa::Guard(phi.subst_var(var, t)),
            Sfa::Not(a) => Sfa::not(a.subst(var, t)),
            Sfa::And(parts) => Sfa::and(parts.iter().map(|p| p.subst(var, t)).collect()),
            Sfa::Or(parts) => Sfa::or(parts.iter().map(|p| p.subst(var, t)).collect()),
            Sfa::Concat(a, b) => Sfa::concat(a.subst(var, t), b.subst(var, t)),
            Sfa::Next(a) => Sfa::next(a.subst(var, t)),
            Sfa::Until(a, b) => Sfa::until(a.subst(var, t), b.subst(var, t)),
            Sfa::Star(a) => Sfa::star(a.subst(var, t)),
        }
    }

    /// Applies a substitution for several variables.
    pub fn subst_all<'a>(&self, bindings: impl IntoIterator<Item = (&'a str, &'a Term)>) -> Sfa {
        let mut out = self.clone();
        for (v, t) in bindings {
            out = out.subst(v, t);
        }
        out
    }

    /// Renames free (context) variables through the mapping. Event argument and result
    /// names are binders scoping over their qualifier: they shadow the mapping and are
    /// left untouched. The mapping's target names must not collide with binder names
    /// (callers renaming into `$`-prefixed canonical names, or out of them into ordinary
    /// identifiers, satisfy this by construction).
    pub fn rename_free_vars(&self, f: &dyn Fn(&str) -> Option<Ident>) -> Sfa {
        match self {
            Sfa::Zero | Sfa::Epsilon => self.clone(),
            Sfa::Event(e) => {
                let locals = e.local_vars();
                let phi =
                    e.phi
                        .rename_free_vars(&|v: &str| if locals.contains(v) { None } else { f(v) });
                Sfa::Event(SymbolicEvent {
                    op: e.op.clone(),
                    args: e.args.clone(),
                    result: e.result.clone(),
                    phi,
                })
            }
            Sfa::Guard(phi) => Sfa::Guard(phi.rename_free_vars(f)),
            Sfa::Not(a) => Sfa::Not(Box::new(a.rename_free_vars(f))),
            Sfa::And(parts) => Sfa::And(parts.iter().map(|p| p.rename_free_vars(f)).collect()),
            Sfa::Or(parts) => Sfa::Or(parts.iter().map(|p| p.rename_free_vars(f)).collect()),
            Sfa::Concat(a, b) => Sfa::Concat(
                Box::new(a.rename_free_vars(f)),
                Box::new(b.rename_free_vars(f)),
            ),
            Sfa::Next(a) => Sfa::Next(Box::new(a.rename_free_vars(f))),
            Sfa::Until(a, b) => Sfa::Until(
                Box::new(a.rename_free_vars(f)),
                Box::new(b.rename_free_vars(f)),
            ),
            Sfa::Star(a) => Sfa::Star(Box::new(a.rename_free_vars(f))),
        }
    }

    /// The α-normal form of the automaton: every event's argument and result binders are
    /// renamed to `$q0, $q1, …` *positionally and locally to that event* (free context
    /// variables are untouched; `$` never starts an ordinary identifier, so no capture is
    /// possible), and the tree is rebuilt through the smart constructors so `And`/`Or`
    /// children are re-sorted and re-deduplicated under the canonical binder names.
    ///
    /// Local (per-event) numbering makes the form compositional — the normal form of a
    /// node depends only on the normal forms of its children — so it is idempotent, and
    /// two automata that differ only in event binder spellings normalise to equal values.
    /// The residual arena of the DFA construction ([`crate::residual::Residuals`])
    /// interns every state in this form, so two residuals get one id exactly when
    /// their α-normal trees are equal.
    ///
    /// ```
    /// use hat_logic::{Formula, Term};
    /// use hat_sfa::Sfa;
    ///
    /// let spelled = |arg: &str, res: &str| {
    ///     Sfa::event("put", vec![arg.into()], res,
    ///         Formula::eq(Term::var(arg), Term::var("p")))
    /// };
    /// assert_ne!(spelled("key", "v"), spelled("k2", "w"));
    /// assert_eq!(
    ///     spelled("key", "v").alpha_normal(),
    ///     spelled("k2", "w").alpha_normal(),
    /// );
    /// ```
    pub fn alpha_normal(&self) -> Sfa {
        match self {
            Sfa::Zero | Sfa::Epsilon | Sfa::Guard(_) => self.clone(),
            Sfa::Event(e) => Sfa::Event(e.alpha_normal()),
            Sfa::Not(a) => Sfa::not(a.alpha_normal()),
            Sfa::And(parts) => Sfa::and(parts.iter().map(Sfa::alpha_normal).collect()),
            Sfa::Or(parts) => Sfa::or(parts.iter().map(Sfa::alpha_normal).collect()),
            Sfa::Concat(a, b) => Sfa::concat(a.alpha_normal(), b.alpha_normal()),
            Sfa::Next(a) => Sfa::next(a.alpha_normal()),
            Sfa::Until(a, b) => Sfa::until(a.alpha_normal(), b.alpha_normal()),
            Sfa::Star(a) => Sfa::star(a.alpha_normal()),
        }
    }

    /// Collects the distinct symbolic events and guard formulas of the automaton, in
    /// first-occurrence order. These are exactly the oracle queries a derivative of the
    /// automaton can make: every event/guard of a Brzozowski derivative is a subterm of
    /// the formula it was derived from, so the answers for this list fully determine the
    /// successor of any residual state under a given alphabet symbol.
    pub fn collect_events_guards<'a>(
        &'a self,
        events: &mut Vec<&'a SymbolicEvent>,
        guards: &mut Vec<&'a Formula>,
    ) {
        match self {
            Sfa::Zero | Sfa::Epsilon => {}
            Sfa::Event(e) => {
                if !events.contains(&e) {
                    events.push(e);
                }
            }
            Sfa::Guard(phi) => {
                if !guards.contains(&phi) {
                    guards.push(phi);
                }
            }
            Sfa::Not(a) | Sfa::Next(a) | Sfa::Star(a) => a.collect_events_guards(events, guards),
            Sfa::And(parts) | Sfa::Or(parts) => {
                for p in parts {
                    p.collect_events_guards(events, guards);
                }
            }
            Sfa::Concat(a, b) | Sfa::Until(a, b) => {
                a.collect_events_guards(events, guards);
                b.collect_events_guards(events, guards);
            }
        }
    }

    /// Number of symbolic-event / guard literal occurrences — the paper's `s_I` metric.
    pub fn literal_count(&self) -> usize {
        match self {
            Sfa::Zero | Sfa::Epsilon => 0,
            Sfa::Event(e) => 1.max(e.phi.literal_count()),
            Sfa::Guard(phi) => 1.max(phi.literal_count()),
            Sfa::Not(a) | Sfa::Next(a) | Sfa::Star(a) => a.literal_count(),
            Sfa::And(parts) | Sfa::Or(parts) => parts.iter().map(Sfa::literal_count).sum(),
            Sfa::Concat(a, b) | Sfa::Until(a, b) => a.literal_count() + b.literal_count(),
        }
    }

    /// Number of AST nodes.
    pub fn size(&self) -> usize {
        match self {
            Sfa::Zero | Sfa::Epsilon | Sfa::Event(_) | Sfa::Guard(_) => 1,
            Sfa::Not(a) | Sfa::Next(a) | Sfa::Star(a) => 1 + a.size(),
            Sfa::And(parts) | Sfa::Or(parts) => 1 + parts.iter().map(Sfa::size).sum::<usize>(),
            Sfa::Concat(a, b) | Sfa::Until(a, b) => 1 + a.size() + b.size(),
        }
    }

    /// Names of the operators mentioned by symbolic events of the automaton.
    pub fn ops(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        self.collect_ops(&mut out);
        out
    }

    fn collect_ops(&self, out: &mut BTreeSet<String>) {
        match self {
            Sfa::Zero | Sfa::Epsilon | Sfa::Guard(_) => {}
            Sfa::Event(e) => {
                out.insert(e.op.clone());
            }
            Sfa::Not(a) | Sfa::Next(a) | Sfa::Star(a) => a.collect_ops(out),
            Sfa::And(parts) | Sfa::Or(parts) => {
                for p in parts {
                    p.collect_ops(out);
                }
            }
            Sfa::Concat(a, b) | Sfa::Until(a, b) => {
                a.collect_ops(out);
                b.collect_ops(out);
            }
        }
    }
}

/// The operands of `a` when it is a union (`union`) or an intersection (`!union`).
fn junction(a: &Sfa, union: bool) -> Option<&[Sfa]> {
    match (a, union) {
        (Sfa::Or(parts), true) | (Sfa::And(parts), false) => Some(parts),
        _ => None,
    }
}

/// One absorption step over the sorted, deduplicated operands of a union (`union`) or
/// an intersection (`!union`), or `None` when no rule applies. Writing `∨` for the
/// outer connective and `∧` for its dual: an operand `x ∧ y` one of whose parts is an
/// operand goes (`x ∨ (x ∧ y) = x`), and inside an operand `y ∧ (x ∨ z)` the nested
/// `∨` loses every operand the outer one has (`x ∨ (y ∧ (x ∨ z)) = x ∨ (y ∧ z)`).
/// Both rules read only the operand set, so the result does not depend on its order;
/// [`crate::residual::Residuals`] applies the same step to ids.
fn absorb(operands: &[Sfa], union: bool) -> Option<Vec<Sfa>> {
    let first = operands
        .iter()
        .position(|op| absorb_operand(op, operands, union).is_some())?;
    let mut out = operands[..first].to_vec();
    for op in &operands[first..] {
        match absorb_operand(op, operands, union) {
            None => out.push(op.clone()),
            Some(rewritten) => out.extend(rewritten),
        }
    }
    Some(out)
}

/// The rewrite of one operand by [`absorb`]: `None` when no rule applies, `Some(None)`
/// when it goes, `Some(Some(x))` when it becomes `x`.
fn absorb_operand(op: &Sfa, operands: &[Sfa], union: bool) -> Option<Option<Sfa>> {
    let junct = |parts: Vec<Sfa>, union: bool| {
        if union {
            Sfa::or(parts)
        } else {
            Sfa::and(parts)
        }
    };
    let outer = |x: &Sfa| operands.binary_search(x).is_ok();
    let parts = junction(op, !union)?;
    if parts.iter().any(outer) {
        return Some(None);
    }
    if !parts
        .iter()
        .any(|p| junction(p, union).is_some_and(|nested| nested.iter().any(outer)))
    {
        return None;
    }
    let parts = parts
        .iter()
        .map(|p| match junction(p, union) {
            Some(nested) if nested.iter().any(outer) => junct(
                nested.iter().filter(|n| !outer(n)).cloned().collect(),
                union,
            ),
            _ => p.clone(),
        })
        .collect();
    Some(Some(junct(parts, !union)))
}

impl fmt::Display for Sfa {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Sfa::Zero => write!(f, "∅"),
            Sfa::Epsilon => write!(f, "ε"),
            Sfa::Event(e) => write!(f, "{e}"),
            Sfa::Guard(phi) => write!(f, "<{phi}>"),
            Sfa::Not(a) => write!(f, "not ({a})"),
            Sfa::And(parts) => {
                write!(f, "(")?;
                for (i, p) in parts.iter().enumerate() {
                    if i > 0 {
                        write!(f, " && ")?;
                    }
                    write!(f, "{p}")?;
                }
                write!(f, ")")
            }
            Sfa::Or(parts) => {
                write!(f, "(")?;
                for (i, p) in parts.iter().enumerate() {
                    if i > 0 {
                        write!(f, " || ")?;
                    }
                    write!(f, "{p}")?;
                }
                write!(f, ")")
            }
            Sfa::Concat(a, b) => write!(f, "({a}; {b})"),
            Sfa::Next(a) => write!(f, "next ({a})"),
            Sfa::Until(a, b) => write!(f, "({a} until {b})"),
            Sfa::Star(a) => write!(f, "({a})*"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hat_logic::Term;

    fn put_event(phi: Formula) -> Sfa {
        Sfa::event("put", vec!["key".into(), "val".into()], "v", phi)
    }

    #[test]
    fn smart_constructors_absorb_constants() {
        let e = put_event(Formula::True);
        assert_eq!(Sfa::and(vec![Sfa::Zero, e.clone()]), Sfa::Zero);
        assert_eq!(Sfa::and(vec![Sfa::universe(), e.clone()]), e);
        assert_eq!(Sfa::or(vec![Sfa::Zero, e.clone()]), e);
        assert!(Sfa::or(vec![Sfa::universe(), e.clone()]).is_universe());
        assert_eq!(Sfa::not(Sfa::not(e.clone())), e);
        assert!(Sfa::not(Sfa::Zero).is_universe());
        assert_eq!(Sfa::not(Sfa::universe()), Sfa::Zero);
        assert_eq!(Sfa::concat(Sfa::Epsilon, e.clone()), e);
        assert_eq!(Sfa::concat(e.clone(), Sfa::Zero), Sfa::Zero);
        assert_eq!(Sfa::star(Sfa::Zero), Sfa::Epsilon);
    }

    #[test]
    fn and_or_dedup_and_sort() {
        let e = put_event(Formula::True);
        let f = Sfa::and(vec![e.clone(), e.clone()]);
        assert_eq!(f, e);
        let g = Sfa::or(vec![e.clone(), Sfa::Epsilon, e.clone()]);
        match g {
            Sfa::Or(parts) => assert_eq!(parts.len(), 2),
            other => panic!("expected Or, got {other}"),
        }
    }

    /// Three distinct leaves for the absorption identities.
    fn xyz() -> (Sfa, Sfa, Sfa) {
        let guard = |name: &str| Sfa::guard(Formula::pred(name, vec![Term::var("p")]));
        (guard("x"), guard("y"), guard("z"))
    }

    #[test]
    fn unions_absorb_conjunctions_of_their_disjuncts() {
        let (x, y, z) = xyz();
        // x ∨ (x ∧ y) = x
        assert_eq!(
            Sfa::or(vec![x.clone(), Sfa::and(vec![x.clone(), y.clone()])]),
            x
        );
        // x ∨ (y ∧ (x ∨ z)) = x ∨ (y ∧ z)
        assert_eq!(
            Sfa::or(vec![
                x.clone(),
                Sfa::and(vec![y.clone(), Sfa::or(vec![x.clone(), z.clone()])]),
            ]),
            Sfa::or(vec![x.clone(), Sfa::and(vec![y.clone(), z.clone()])]),
        );
        // The stripped union empties: x ∨ z ∨ (y ∧ (x ∨ z)) = x ∨ z.
        let x_or_z = Sfa::or(vec![x.clone(), z.clone()]);
        assert_eq!(
            Sfa::or(vec![x_or_z.clone(), Sfa::and(vec![y, x_or_z.clone()])]),
            x_or_z
        );
    }

    #[test]
    fn intersections_absorb_disjunctions_of_their_conjuncts() {
        let (x, y, z) = xyz();
        // x ∧ (x ∨ y) = x
        assert_eq!(
            Sfa::and(vec![x.clone(), Sfa::or(vec![x.clone(), y.clone()])]),
            x
        );
        // x ∧ (y ∨ (x ∧ z)) = x ∧ (y ∨ z)
        assert_eq!(
            Sfa::and(vec![
                x.clone(),
                Sfa::or(vec![y.clone(), Sfa::and(vec![x.clone(), z.clone()])]),
            ]),
            Sfa::and(vec![x.clone(), Sfa::or(vec![y.clone(), z.clone()])]),
        );
        // The stripped intersection empties: x ∧ z ∧ (y ∨ (x ∧ z)) = x ∧ z.
        let x_and_z = Sfa::and(vec![x.clone(), z.clone()]);
        assert_eq!(
            Sfa::and(vec![x_and_z.clone(), Sfa::or(vec![y, x_and_z.clone()])]),
            x_and_z
        );
    }

    #[test]
    fn derived_operators_expand_as_in_the_paper() {
        let e = put_event(Formula::True);
        // ♦e = ⟨⊤⟩ U e
        assert_eq!(
            Sfa::eventually(e.clone()),
            Sfa::until(Sfa::any_event(), e.clone())
        );
        // □e = ¬(⟨⊤⟩ U ¬e)
        assert_eq!(
            Sfa::globally(e.clone()),
            Sfa::not(Sfa::until(Sfa::any_event(), Sfa::not(e.clone())))
        );
        // LAST = ¬◯⟨⊤⟩
        assert_eq!(Sfa::last(), Sfa::not(Sfa::next(Sfa::any_event())));
    }

    #[test]
    fn free_vars_exclude_event_locals() {
        let phi = Formula::and(vec![
            Formula::eq(Term::var("key"), Term::var("p")),
            Formula::pred("isDir", vec![Term::var("val")]),
        ]);
        let e = put_event(phi);
        let fv = e.free_vars();
        assert!(fv.contains("p"));
        assert!(!fv.contains("key"));
        assert!(!fv.contains("val"));
    }

    #[test]
    fn substitution_respects_event_binders() {
        let phi = Formula::eq(Term::var("key"), Term::var("p"));
        let e = put_event(phi);
        let s = e.subst("p", &Term::atom("/a"));
        match &s {
            Sfa::Event(ev) => {
                assert_eq!(ev.phi, Formula::eq(Term::var("key"), Term::atom("/a")));
            }
            other => panic!("expected event, got {other}"),
        }
        // substituting the bound arg name must be a no-op
        let t = e.subst("key", &Term::atom("/a"));
        assert_eq!(t, e);
    }

    #[test]
    fn ops_and_literal_count() {
        let inv = Sfa::globally(Sfa::implies(
            Sfa::event(
                "insert",
                vec!["x".into()],
                "v",
                Formula::eq(Term::var("x"), Term::var("el")),
            ),
            Sfa::next(Sfa::not(Sfa::eventually(Sfa::event(
                "insert",
                vec!["x".into()],
                "v",
                Formula::eq(Term::var("x"), Term::var("el")),
            )))),
        ));
        assert!(inv.ops().contains("insert"));
        assert!(inv.literal_count() >= 2);
        assert!(inv.size() > 4);
        assert!(inv.free_vars().contains("el"));
    }

    #[test]
    fn display_is_readable() {
        let e = put_event(Formula::True);
        assert_eq!(e.to_string(), "<put key val = v | true>");
        assert!(Sfa::universe().to_string().contains("*"));
    }
}
