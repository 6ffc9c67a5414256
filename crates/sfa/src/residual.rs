//! Hash-consed residual states: the arena one product walk (or one [`Dfa::build`])
//! derives its residual languages in.
//!
//! A Brzozowski derivative of a formula is again a formula, so the DFA construction
//! needs state identity on formulas. Comparing and copying whole [`Sfa`] trees for
//! that makes every transition cost the size of its state. Here every residual is an
//! interned node with a `u32` id whose children are ids, and the smart-constructor
//! rules of [`Sfa::not`], [`Sfa::and`], [`Sfa::or`], [`Sfa::concat`] and [`Sfa::star`]
//! run on ids (`And`/`Or` children sorted by id and deduplicated). Interning goes
//! through the same rules [`Sfa::alpha_normal`] applies, with event binders renamed the
//! same way, so equal ids are equal α-normal trees and state equality is an id compare.
//! This is how derivative-based symbolic regex engines run (Owens, Reppy and Turon,
//! "Regular-expression derivatives re-examined", JFP'09; Saarikivi, Veanes, Wan and
//! Xu, "Symbolic Regex Matcher", TACAS'19).
//!
//! Those rules include Boolean absorption: `x ∨ (x ∧ y) = x`,
//! `x ∨ (y ∧ (x ∨ z)) = x ∨ (y ∧ z)` and their duals. Until's derivative
//! `dy ∨ (dx ∧ (x U y))` nests one level deeper per step, and without absorption an
//! until over a universe-headed concatenation can have unboundedly many residuals; with it,
//! the residual set of every formula the differential tests draw is finite, so the
//! product walk needs no pruning to terminate.
//!
//! The arena is bound to one alphabet. It resolves each event or guard leaf against
//! each symbol once through the [`TransitionOracle`], memoises every derivative per
//! (node, symbol) and stores nullability per node. The walk never reads a state as a
//! tree; [`Residuals::to_sfa`] materialises a node through the smart constructors for
//! the differential test, where the result must equal
//! `derivative(state, m).alpha_normal()` of the tree reference
//! ([`crate::dfa::derivative`]) (`tests/derivative_differential.rs`). Nothing outlives
//! the arena: it is dropped with its walk.
//!
//! [`Dfa::build`]: crate::dfa::Dfa::build

use crate::ast::Sfa;
use crate::dfa::TransitionOracle;
use crate::minterm::Minterm;
use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;

/// The id of one interned residual state.
pub type StateId = u32;

/// `∅`.
const ZERO: StateId = 0;
/// `ε`.
const EPSILON: StateId = 1;
/// `□⟨⊤⟩`, the universe (`Star` of the `⟨⊤⟩` leaf interned right before it).
const UNIVERSE: StateId = 3;
/// Marks a derivative not computed yet.
const UNDERIVED: StateId = StateId::MAX;

/// One interned node. Children are ids, so hashing and comparing a node costs its
/// arity, never the size of the formula it denotes.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Node {
    Zero,
    Epsilon,
    /// A symbolic event or guard, by index into [`Residuals::leaves`].
    Leaf(u32),
    Not(StateId),
    And(Rc<[StateId]>),
    Or(Rc<[StateId]>),
    Concat(StateId, StateId),
    Next(StateId),
    Until(StateId, StateId),
    Star(StateId),
}

/// The residual states of one walk over one alphabet.
#[derive(Debug)]
pub struct Residuals<'a> {
    alphabet: &'a [Minterm],
    nodes: Vec<Node>,
    ids: HashMap<Node, StateId>,
    nullable: Vec<bool>,
    /// The α-normal event and guard leaves (`Sfa::Event`/`Sfa::Guard`), each once.
    leaves: Vec<Sfa>,
    leaf_ids: BTreeMap<Sfa, u32>,
    /// `derivatives[id * alphabet.len() + symbol]`, or [`UNDERIVED`].
    derivatives: Vec<StateId>,
}

impl<'a> Residuals<'a> {
    /// An empty arena over `alphabet`.
    pub fn new(alphabet: &'a [Minterm]) -> Residuals<'a> {
        let mut arena = Residuals {
            alphabet,
            nodes: Vec::new(),
            ids: HashMap::new(),
            nullable: Vec::new(),
            leaves: Vec::new(),
            leaf_ids: BTreeMap::new(),
            derivatives: Vec::new(),
        };
        let zero = arena.node(Node::Zero);
        let epsilon = arena.node(Node::Epsilon);
        let any = arena.leaf(Sfa::any_event());
        let universe = arena.node(Node::Star(any));
        debug_assert_eq!((zero, epsilon, universe), (ZERO, EPSILON, UNIVERSE));
        arena
    }

    /// Interns `a` in α-normal form: the node [`Residuals::to_sfa`] materialises back to
    /// `a.alpha_normal()`.
    pub fn intern(&mut self, a: &Sfa) -> StateId {
        match a {
            Sfa::Zero => ZERO,
            Sfa::Epsilon => EPSILON,
            Sfa::Event(e) => self.leaf(Sfa::Event(e.alpha_normal())),
            Sfa::Guard(_) => self.leaf(a.clone()),
            Sfa::Not(x) => {
                let x = self.intern(x);
                self.not(x)
            }
            Sfa::And(parts) => {
                let parts: Vec<StateId> = parts.iter().map(|p| self.intern(p)).collect();
                self.and(parts)
            }
            Sfa::Or(parts) => {
                let parts: Vec<StateId> = parts.iter().map(|p| self.intern(p)).collect();
                self.or(parts)
            }
            Sfa::Concat(x, y) => {
                let (x, y) = (self.intern(x), self.intern(y));
                self.concat(x, y)
            }
            Sfa::Next(x) => {
                let x = self.intern(x);
                self.node(Node::Next(x))
            }
            Sfa::Until(x, y) => {
                let (x, y) = (self.intern(x), self.intern(y));
                self.node(Node::Until(x, y))
            }
            Sfa::Star(x) => {
                let x = self.intern(x);
                self.star(x)
            }
        }
    }

    /// The alphabet this arena derives over.
    pub fn alphabet(&self) -> &'a [Minterm] {
        self.alphabet
    }

    /// Whether state `id` accepts the empty trace ([`crate::dfa::nullable`]).
    pub fn nullable(&self, id: StateId) -> bool {
        self.nullable[id as usize]
    }

    /// The derivative of state `id` with respect to alphabet symbol `symbol`, computed
    /// once per (node, symbol) by the rules of [`crate::dfa::derivative`].
    pub fn derive(
        &mut self,
        id: StateId,
        symbol: usize,
        oracle: &mut dyn TransitionOracle,
    ) -> StateId {
        let slot = id as usize * self.alphabet.len() + symbol;
        if self.derivatives[slot] != UNDERIVED {
            return self.derivatives[slot];
        }
        let d = match self.nodes[id as usize].clone() {
            Node::Zero | Node::Epsilon => ZERO,
            Node::Leaf(leaf) => {
                let m = &self.alphabet[symbol];
                let holds = match &self.leaves[leaf as usize] {
                    Sfa::Event(e) => e.op == m.op && oracle.event_matches(e, m),
                    Sfa::Guard(phi) => oracle.guard_holds(phi, m),
                    other => unreachable!("{other} is not a leaf"),
                };
                if holds {
                    UNIVERSE
                } else {
                    ZERO
                }
            }
            Node::Not(x) => {
                let dx = self.derive(x, symbol, oracle);
                self.not(dx)
            }
            Node::And(parts) => {
                let parts: Vec<StateId> = parts
                    .iter()
                    .map(|&p| self.derive(p, symbol, oracle))
                    .collect();
                self.and(parts)
            }
            Node::Or(parts) => {
                let parts: Vec<StateId> = parts
                    .iter()
                    .map(|&p| self.derive(p, symbol, oracle))
                    .collect();
                self.or(parts)
            }
            Node::Concat(x, y) => {
                let dx = self.derive(x, symbol, oracle);
                let left = self.concat(dx, y);
                if self.nullable(x) {
                    let dy = self.derive(y, symbol, oracle);
                    self.or(vec![left, dy])
                } else {
                    left
                }
            }
            Node::Next(x) => x,
            Node::Until(x, y) => {
                let dy = self.derive(y, symbol, oracle);
                let dx = self.derive(x, symbol, oracle);
                let stay = self.and(vec![dx, id]);
                self.or(vec![dy, stay])
            }
            Node::Star(x) => {
                let dx = self.derive(x, symbol, oracle);
                self.concat(dx, id)
            }
        };
        self.derivatives[slot] = d;
        d
    }

    /// Materialises state `id` as a tree, through the smart constructors.
    pub fn to_sfa(&self, id: StateId) -> Sfa {
        match &self.nodes[id as usize] {
            Node::Zero => Sfa::Zero,
            Node::Epsilon => Sfa::Epsilon,
            Node::Leaf(leaf) => self.leaves[*leaf as usize].clone(),
            Node::Not(x) => Sfa::not(self.to_sfa(*x)),
            Node::And(parts) => Sfa::and(parts.iter().map(|&p| self.to_sfa(p)).collect()),
            Node::Or(parts) => Sfa::or(parts.iter().map(|&p| self.to_sfa(p)).collect()),
            Node::Concat(x, y) => Sfa::concat(self.to_sfa(*x), self.to_sfa(*y)),
            Node::Next(x) => Sfa::next(self.to_sfa(*x)),
            Node::Until(x, y) => Sfa::until(self.to_sfa(*x), self.to_sfa(*y)),
            Node::Star(x) => Sfa::star(self.to_sfa(*x)),
        }
    }

    /// The id of `node`, interning it (with its nullability and an empty derivative
    /// row) when new.
    fn node(&mut self, node: Node) -> StateId {
        if let Some(&id) = self.ids.get(&node) {
            return id;
        }
        let nullable = match &node {
            Node::Zero | Node::Leaf(_) | Node::Until(_, _) => false,
            Node::Epsilon | Node::Star(_) => true,
            Node::Not(x) => !self.nullable(*x),
            Node::And(parts) => parts.iter().all(|&p| self.nullable(p)),
            Node::Or(parts) => parts.iter().any(|&p| self.nullable(p)),
            Node::Concat(x, y) => self.nullable(*x) && self.nullable(*y),
            // Positions past the end of a trace behave like the empty suffix.
            Node::Next(x) => self.nullable(*x),
        };
        let id = StateId::try_from(self.nodes.len()).expect("fewer than 2^32 residual nodes");
        self.nodes.push(node.clone());
        self.ids.insert(node, id);
        self.nullable.push(nullable);
        self.derivatives
            .resize(self.derivatives.len() + self.alphabet.len(), UNDERIVED);
        id
    }

    /// The node of an event or guard leaf (already α-normal).
    fn leaf(&mut self, leaf: Sfa) -> StateId {
        let index = match self.leaf_ids.get(&leaf) {
            Some(&index) => index,
            None => {
                let index = u32::try_from(self.leaves.len()).expect("fewer than 2^32 leaves");
                self.leaves.push(leaf.clone());
                self.leaf_ids.insert(leaf, index);
                index
            }
        };
        self.node(Node::Leaf(index))
    }

    /// [`Sfa::not`] on ids.
    fn not(&mut self, a: StateId) -> StateId {
        match self.nodes[a as usize] {
            Node::Not(inner) => inner,
            _ if a == ZERO => UNIVERSE,
            _ if a == UNIVERSE => ZERO,
            _ => self.node(Node::Not(a)),
        }
    }

    /// [`Sfa::and`] on ids: flattening, absorbing `∅` and the universe, closed under
    /// absorption.
    fn and(&mut self, parts: Vec<StateId>) -> StateId {
        let mut out = Vec::with_capacity(parts.len());
        for p in parts {
            match &self.nodes[p as usize] {
                _ if p == ZERO => return ZERO,
                _ if p == UNIVERSE => {}
                Node::And(inner) => out.extend_from_slice(inner),
                _ => out.push(p),
            }
        }
        out.sort_unstable();
        out.dedup();
        if let Some(absorbed) = self.absorb(&out, false) {
            return self.and(absorbed);
        }
        match out.len() {
            0 => UNIVERSE,
            1 => out[0],
            _ => self.node(Node::And(out.into())),
        }
    }

    /// [`Sfa::or`] on ids: flattening, absorbing `∅` and the universe, closed under
    /// absorption.
    fn or(&mut self, parts: Vec<StateId>) -> StateId {
        let mut out = Vec::with_capacity(parts.len());
        for p in parts {
            match &self.nodes[p as usize] {
                _ if p == ZERO => {}
                _ if p == UNIVERSE => return UNIVERSE,
                Node::Or(inner) => out.extend_from_slice(inner),
                _ => out.push(p),
            }
        }
        out.sort_unstable();
        out.dedup();
        if let Some(absorbed) = self.absorb(&out, true) {
            return self.or(absorbed);
        }
        match out.len() {
            0 => ZERO,
            1 => out[0],
            _ => self.node(Node::Or(out.into())),
        }
    }

    /// The operands of `id` when it is a union (`union`) or an intersection (`!union`).
    fn junction(&self, id: StateId, union: bool) -> Option<Rc<[StateId]>> {
        match (&self.nodes[id as usize], union) {
            (Node::Or(parts), true) | (Node::And(parts), false) => Some(Rc::clone(parts)),
            _ => None,
        }
    }

    /// [`Residuals::or`] (`union`) or [`Residuals::and`].
    fn junct(&mut self, parts: Vec<StateId>, union: bool) -> StateId {
        if union {
            self.or(parts)
        } else {
            self.and(parts)
        }
    }

    /// The absorption step of [`Sfa::and`] and [`Sfa::or`] on the sorted, deduplicated
    /// ids of a union (`union`) or an intersection: `None` when no rule applies.
    fn absorb(&mut self, operands: &[StateId], union: bool) -> Option<Vec<StateId>> {
        let first = (0..operands.len())
            .find(|&i| self.absorb_operand(operands[i], operands, union).is_some())?;
        let mut out = operands[..first].to_vec();
        for &op in &operands[first..] {
            match self.absorb_operand(op, operands, union) {
                None => out.push(op),
                Some(rewritten) => out.extend(rewritten),
            }
        }
        Some(out)
    }

    /// The rewrite of one operand by [`Residuals::absorb`]: `None` when no rule
    /// applies, `Some(None)` when it goes, `Some(Some(x))` when it becomes `x`.
    fn absorb_operand(
        &mut self,
        op: StateId,
        operands: &[StateId],
        union: bool,
    ) -> Option<Option<StateId>> {
        let outer = |x: &StateId| operands.binary_search(x).is_ok();
        let parts = self.junction(op, !union)?;
        if parts.iter().any(outer) {
            return Some(None);
        }
        if !parts.iter().any(|&p| {
            self.junction(p, union)
                .is_some_and(|nested| nested.iter().any(outer))
        }) {
            return None;
        }
        let parts = parts
            .iter()
            .map(|&p| match self.junction(p, union) {
                Some(nested) if nested.iter().any(outer) => {
                    let kept = nested.iter().copied().filter(|n| !outer(n)).collect();
                    self.junct(kept, union)
                }
                _ => p,
            })
            .collect();
        Some(Some(self.junct(parts, !union)))
    }

    /// [`Sfa::concat`] on ids: right-associated, absorbing the universe.
    fn concat(&mut self, a: StateId, b: StateId) -> StateId {
        if a == ZERO || b == ZERO {
            return ZERO;
        }
        if a == EPSILON {
            return b;
        }
        if b == EPSILON {
            return a;
        }
        if let Node::Concat(x, y) = self.nodes[a as usize] {
            let tail = self.concat(y, b);
            return self.concat(x, tail);
        }
        if a == UNIVERSE {
            if b == UNIVERSE {
                return b;
            }
            if let Node::Concat(head, _) = self.nodes[b as usize] {
                if head == UNIVERSE {
                    return b;
                }
            }
        }
        if let (Node::Star(x), Node::Star(y)) = (&self.nodes[a as usize], &self.nodes[b as usize]) {
            if x == y {
                return b;
            }
        }
        self.node(Node::Concat(a, b))
    }

    /// [`Sfa::star`] on ids.
    fn star(&mut self, a: StateId) -> StateId {
        match self.nodes[a as usize] {
            _ if a == ZERO || a == EPSILON => EPSILON,
            Node::Star(_) => a,
            _ => self.node(Node::Star(a)),
        }
    }
}
