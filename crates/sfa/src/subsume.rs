//! Subsumption orders for the antichain-pruned on-the-fly product walk.
//!
//! The on-the-fly inclusion check ([`crate::dfa::product_included`]) decides
//! `L(A) ⊆ L(B)` by breadth-first emptiness of `A × complement(det(B))` over pairs of
//! Brzozowski residuals. Antichain-based inclusion checking (De Wulf, Doyen, Henzinger,
//! Raskin, CAV 2006) keeps the visited set as an *antichain* under a subsumption order
//! and discards any newly-derived pair a visited pair subsumes; simulation-based
//! subsumption (Abdulla, Chen, Holík, Mayr, Vojnar, TACAS 2010) strengthens the order.
//! In the residual representation both reduce to language-inclusion orders between
//! residual formulas:
//!
//! > pair `(a, b)` is subsumed by visited `(a', b')` iff `L(a) ⊆ L(a')` and
//! > `L(b') ⊆ L(b)`.
//!
//! Dropping a subsumed pair is verdict-preserving: a counterexample suffix `w` from
//! `(a, b)` (`w ∈ L(a)`, `w ∉ L(b)`) is also one from `(a', b')` (`w ∈ L(a')` by the
//! first inclusion, `w ∉ L(b')` by the second), so the walk that explores `(a', b')`
//! instead finds a violation whenever the unpruned walk would — and a subsumed
//! *accepting* pair forces its subsumer to be accepting too, so early exit happens no
//! later. Soundness never depends on *which* valid subsumptions fire, so the order only
//! has to be a sound under-approximation of language inclusion; every `true` must be
//! semantically justified, `false` simply means "not pruned".
//!
//! Two tiers implement the order, selected by [`SubsumptionMode`]:
//!
//! * **Syntactic/propositional** ([`SubsumptionMode::Syntactic`]): a structural
//!   recursion over the residual formulas — congruence and monotonicity rules for the
//!   regular/temporal connectives, with event and guard leaves compared by their
//!   *support* over the group's minterm alphabet, evaluated propositionally from the
//!   minterm assignments (`eval_under`, zero SMT). Memoised per walk in the per-side
//!   order cache.
//! * **Memoised simulation** ([`SubsumptionMode::Simulation`]): the syntactic order
//!   strengthened by a greatest-fixpoint simulation preorder over the residual states
//!   whose transition rows the product frontier has *already derived* — it never derives
//!   a row of its own, so it cannot reach a state (or a state-bound error) the unpruned
//!   walk would not. Definite verdicts are memoised in the engine's store, for the
//!   process's lifetime, as an axiom-independent record kind (`U`), following the
//!   `shape_key` discipline: oracles refuse to store when a context-dependent SMT
//!   fallback fired.

use crate::ast::{Sfa, SymbolicEvent};
use crate::dfa::{nullable, TransitionOracle};
use crate::inclusion::eval_under;
use crate::minterm::{arg_name, res_name, Minterm};
use crate::stats::CheckStats;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// How the on-the-fly product walk prunes its frontier.
///
/// All three modes are verdict-identical (the differential harnesses enforce it); they
/// differ only in how many product pairs the walk explores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SubsumptionMode {
    /// Plain breadth-first search over exact pairs (the pre-antichain baseline, kept
    /// for differential testing and measurement).
    Off,
    /// Syntactic/propositional subsumption only: structural rules plus leaf supports
    /// evaluated from the minterm assignments. Zero SMT, zero persistence.
    Syntactic,
    /// Syntactic subsumption strengthened by the lazily-computed simulation preorder
    /// over already-derived transition rows, memoised across runs through the engine's
    /// store.
    #[default]
    Simulation,
}

impl SubsumptionMode {
    /// Parses a CLI spelling.
    pub fn parse(s: &str) -> Option<SubsumptionMode> {
        match s {
            "off" => Some(SubsumptionMode::Off),
            "syntactic" => Some(SubsumptionMode::Syntactic),
            "simulation" => Some(SubsumptionMode::Simulation),
            _ => None,
        }
    }

    /// The CLI spelling.
    pub fn as_str(&self) -> &'static str {
        match self {
            SubsumptionMode::Off => "off",
            SubsumptionMode::Syntactic => "syntactic",
            SubsumptionMode::Simulation => "simulation",
        }
    }
}

/// Node-visit budget of one syntactic order query: the structural rules try several
/// decompositions, so an explicit fuel keeps a single query linear-ish in practice and
/// bounded always. Exhausted fuel answers `false` ("not provably included"), which is
/// always sound.
const SYNTACTIC_FUEL: usize = 2048;

/// The signed answer of one alphabet symbol for an event leaf, resolved propositionally
/// from the minterm's assignment (exactly the renaming `MatchOracle::event_matches`
/// performs before its own `eval_under` — but with *no* SMT fallback: an undetermined
/// atom makes the whole support unknown).
fn event_bit(e: &SymbolicEvent, m: &Minterm) -> Option<bool> {
    if e.op != m.op {
        return Some(false);
    }
    let renamed = e.phi.rename_free_vars(&|v: &str| {
        if v == e.result {
            Some(res_name())
        } else {
            e.args.iter().position(|x| x == v).map(arg_name)
        }
    });
    eval_under(&renamed, &m.assignment)
}

/// The support of a leaf over the alphabet: which symbols it matches. `None` when any
/// symbol's answer is not determined propositionally.
fn leaf_support(leaf: &Sfa, alphabet: &[Minterm]) -> Option<Vec<bool>> {
    alphabet
        .iter()
        .map(|m| match leaf {
            Sfa::Event(e) => event_bit(e, m),
            Sfa::Guard(phi) => eval_under(phi, &m.assignment),
            _ => None,
        })
        .collect()
}

/// The syntactic/propositional order: `true` only when `L(phi) ⊆ L(psi)` over the given
/// alphabet is provable by the structural rules below. Every rule is sound; none is
/// complete, so `false` means "unknown".
fn leq_syntactic(phi: &Sfa, psi: &Sfa, alphabet: &[Minterm], fuel: &mut usize) -> bool {
    if *fuel == 0 {
        return false;
    }
    *fuel -= 1;
    if phi == psi || matches!(phi, Sfa::Zero) || psi.is_universe() {
        return true;
    }
    // Necessary condition: ε ∈ L(phi) requires ε ∈ L(psi).
    if nullable(phi) && !nullable(psi) {
        return false;
    }
    // Complete decompositions: a union on the left (or an intersection on the right)
    // is included iff every part is.
    if let Sfa::Or(parts) = phi {
        if parts.iter().all(|p| leq_syntactic(p, psi, alphabet, fuel)) {
            return true;
        }
    }
    if let Sfa::And(parts) = psi {
        if parts.iter().all(|p| leq_syntactic(phi, p, alphabet, fuel)) {
            return true;
        }
    }
    // Congruences: complement is antitone, the other connectives monotone. A failed
    // guard falls through to the decompositions below, like any unmatched pair.
    match (phi, psi) {
        (Sfa::Not(x), Sfa::Not(y)) if leq_syntactic(y, x, alphabet, fuel) => return true,
        (Sfa::Concat(x1, y1), Sfa::Concat(x2, y2))
            if leq_syntactic(x1, x2, alphabet, fuel) && leq_syntactic(y1, y2, alphabet, fuel) =>
        {
            return true
        }
        (Sfa::Star(x), Sfa::Star(y)) if leq_syntactic(x, y, alphabet, fuel) => return true,
        (Sfa::Next(x), Sfa::Next(y)) if leq_syntactic(x, y, alphabet, fuel) => return true,
        (Sfa::Until(x1, y1), Sfa::Until(x2, y2))
            if leq_syntactic(x1, x2, alphabet, fuel) && leq_syntactic(y1, y2, alphabet, fuel) =>
        {
            return true
        }
        _ => {}
    }
    // Sufficient decompositions: one intersected part already below, or inclusion into
    // one union member.
    if let Sfa::And(parts) = phi {
        if parts.iter().any(|p| leq_syntactic(p, psi, alphabet, fuel)) {
            return true;
        }
    }
    if let Sfa::Or(parts) = psi {
        if parts.iter().any(|p| leq_syntactic(phi, p, alphabet, fuel)) {
            return true;
        }
    }
    // L(ε) = {ε}: included in anything nullable.
    if matches!(phi, Sfa::Epsilon) && nullable(psi) {
        return true;
    }
    // Leaves denote "one matching symbol, then anything" (their derivative is the
    // universe on a match, Zero otherwise), so leaf-vs-leaf inclusion is support
    // inclusion over the alphabet.
    if matches!(phi, Sfa::Event(_) | Sfa::Guard(_)) && matches!(psi, Sfa::Event(_) | Sfa::Guard(_))
    {
        if let (Some(sp), Some(sq)) = (leaf_support(phi, alphabet), leaf_support(psi, alphabet)) {
            return sp.iter().zip(&sq).all(|(&a, &b)| !a || b);
        }
    }
    false
}

/// One cached order verdict. `true` and *definite* `false` verdicts are semantic facts
/// about the two residuals and never expire; a `false` that was pessimistic (some
/// transition row of the pair closure was not derived yet) is only valid while the
/// side's derived-row generation is unchanged — later rows can flip it. The two flags
/// record which tiers already ran for the pair, so a generation retry resumes at the
/// simulation tier instead of re-proving what cannot change within a walk.
#[derive(Debug, Clone, Copy)]
struct Entry {
    verdict: bool,
    definite: bool,
    gen: usize,
    /// The syntactic tier already answered `false`. A fixed formula pair's syntactic
    /// verdict never changes within a walk, so retries skip the structural recursion.
    syn_false: bool,
    /// The run-wide memo was already consulted and missed. Any verdict the store
    /// could gain for this pair mid-walk would also be in this cache as definite, so
    /// one key construction per pair per walk suffices.
    memo_missed: bool,
}

/// Fixpoint marks of the simulation closure. `Good` nodes form a post-fixed point of
/// the simulation operator over derived rows, so they certify language inclusion;
/// `BadDefinite` nodes carry a concrete counterexample word (a nullability violation
/// reached through derived rows); `BadPessimistic` nodes only failed because a row was
/// missing (or a budget was hit) and may become good once more rows exist.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mark {
    Good,
    BadDefinite,
    BadPessimistic,
}

/// Bound on the pair closure explored by one simulation query, a safety valve against
/// pathological products (the closure is normally far smaller than the derived state
/// count squared). Exceeding it yields a pessimistic `false`.
const SIMULATION_CLOSURE_BUDGET: usize = 4096;

/// The memoised subsumption order over one side's residual states (indices into a
/// `LazySide`). Both tiers answer through [`SideOrder::leq`]; results are cached per
/// walk, keyed by the state-index pair.
#[derive(Debug, Default)]
struct SideOrder {
    cache: BTreeMap<(usize, usize), Entry>,
}

impl SideOrder {
    /// Is `L(states[i]) ⊆ L(states[j])` provable under `mode`?
    #[allow(clippy::too_many_arguments)]
    fn leq(
        &mut self,
        i: usize,
        j: usize,
        states: &[Sfa],
        rows: &[Option<Vec<usize>>],
        alphabet: &[Minterm],
        gen: usize,
        mode: SubsumptionMode,
        oracle: &mut dyn TransitionOracle,
        stats: &mut CheckStats,
    ) -> bool {
        if i == j {
            return true;
        }
        let (syn_false, memo_missed) = match self.cache.get(&(i, j)) {
            Some(e) => {
                if e.verdict || e.definite || e.gen == gen {
                    return e.verdict;
                }
                // A stale pessimistic entry: resume at the first tier it has not
                // already exhausted.
                (e.syn_false, e.memo_missed)
            }
            None => (false, false),
        };
        if !syn_false {
            let mut fuel = SYNTACTIC_FUEL;
            if leq_syntactic(&states[i], &states[j], alphabet, &mut fuel) {
                self.cache.insert(
                    (i, j),
                    Entry {
                        verdict: true,
                        definite: true,
                        gen,
                        syn_false: false,
                        memo_missed,
                    },
                );
                return true;
            }
        }
        if mode != SubsumptionMode::Simulation {
            // The syntactic verdict of a fixed formula pair never changes within a walk.
            self.cache.insert(
                (i, j),
                Entry {
                    verdict: false,
                    definite: true,
                    gen,
                    syn_false: true,
                    memo_missed,
                },
            );
            return false;
        }
        if rows[i].is_none() || rows[j].is_none() {
            // Nothing to simulate on yet; retry once this side derives more rows. The
            // run-wide memo is deliberately not consulted here: a probe costs a key
            // serialisation plus a shared-tier lookup, which is only worth paying when
            // the alternative is running the local fixpoint.
            self.cache.insert(
                (i, j),
                Entry {
                    verdict: false,
                    definite: false,
                    gen,
                    syn_false: true,
                    memo_missed,
                },
            );
            return false;
        }
        // Simulation tier: memoised verdicts first — a hit replaces the fixpoint
        // below, and the stored verdicts are semantic facts about the (residual pair,
        // alphabet), so a hit is valid regardless of which rows are derived locally.
        if !memo_missed {
            if let Some(v) = oracle.subsumption_lookup(&states[i], &states[j], alphabet) {
                stats.simulation_memo_hits += 1;
                self.cache.insert(
                    (i, j),
                    Entry {
                        verdict: v,
                        definite: true,
                        gen,
                        syn_false: true,
                        memo_missed: false,
                    },
                );
                return v;
            }
        }
        // Record the exhausted tiers before the fixpoint runs: its harvest preserves
        // these flags, and the sentinel generation keeps the entry "stale" so the
        // closure re-examines the root instead of trusting a pessimistic placeholder.
        self.cache.insert(
            (i, j),
            Entry {
                verdict: false,
                definite: false,
                gen: usize::MAX,
                syn_false: true,
                memo_missed: true,
            },
        );
        self.simulate(i, j, states, rows, alphabet, gen, oracle)
    }

    /// Greatest-fixpoint simulation over the pair closure of `(root_i, root_j)` on
    /// already-derived transition rows. Caches every closure verdict and stores the
    /// root in the run-wide memo when it is definite.
    #[allow(clippy::too_many_arguments)]
    fn simulate(
        &mut self,
        root_i: usize,
        root_j: usize,
        states: &[Sfa],
        rows: &[Option<Vec<usize>>],
        alphabet: &[Minterm],
        gen: usize,
        oracle: &mut dyn TransitionOracle,
    ) -> bool {
        let root = (root_i, root_j);
        let mut marks: BTreeMap<(usize, usize), Mark> = BTreeMap::new();
        let mut edges: BTreeMap<(usize, usize), Vec<(usize, usize)>> = BTreeMap::new();
        let mut queue: VecDeque<(usize, usize)> = VecDeque::new();
        let mut over_budget = false;
        queue.push_back(root);
        while let Some((p, q)) = queue.pop_front() {
            if p == q || marks.contains_key(&(p, q)) || edges.contains_key(&(p, q)) {
                continue;
            }
            if marks.len() + edges.len() >= SIMULATION_CLOSURE_BUDGET {
                over_budget = true;
                marks.insert((p, q), Mark::BadPessimistic);
                continue;
            }
            if let Some(e) = self.cache.get(&(p, q)) {
                if e.verdict {
                    marks.insert((p, q), Mark::Good);
                    continue;
                }
                if e.definite {
                    marks.insert((p, q), Mark::BadDefinite);
                    continue;
                }
                if e.gen == gen {
                    marks.insert((p, q), Mark::BadPessimistic);
                    continue;
                }
                // A stale pessimistic verdict: re-examine against the current rows.
            }
            if nullable(&states[p]) && !nullable(&states[q]) {
                marks.insert((p, q), Mark::BadDefinite);
                continue;
            }
            let (Some(rp), Some(rq)) = (&rows[p], &rows[q]) else {
                // No rows to chase: the syntactic order is the only recourse here.
                let mut fuel = SYNTACTIC_FUEL;
                let mark = if leq_syntactic(&states[p], &states[q], alphabet, &mut fuel) {
                    Mark::Good
                } else {
                    Mark::BadPessimistic
                };
                marks.insert((p, q), mark);
                continue;
            };
            let succ: BTreeSet<(usize, usize)> =
                rp.iter().zip(rq.iter()).map(|(&x, &y)| (x, y)).collect();
            queue.extend(succ.iter().copied());
            edges.insert((p, q), succ.into_iter().collect());
        }
        // Greatest fixpoint: interior nodes start good; a bad successor knocks a node
        // out, definite badness dominating pessimistic badness. Marks only move upward
        // (Good → BadPessimistic → BadDefinite), so the sweep terminates.
        loop {
            let mut changed = false;
            for (node, succs) in &edges {
                let current = marks.get(node).copied();
                if current == Some(Mark::BadDefinite) {
                    continue;
                }
                let mut worst: Option<Mark> = None;
                for s in succs {
                    let m = if s.0 == s.1 {
                        Mark::Good
                    } else {
                        marks.get(s).copied().unwrap_or(Mark::Good)
                    };
                    match m {
                        Mark::BadDefinite => {
                            worst = Some(Mark::BadDefinite);
                            break;
                        }
                        Mark::BadPessimistic => worst = Some(Mark::BadPessimistic),
                        Mark::Good => {}
                    }
                }
                if let Some(w) = worst {
                    if current != Some(w) {
                        marks.insert(*node, w);
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        // Harvest: every closure node's verdict is cached; surviving (Good) nodes form
        // a simulation relation on derived rows, hence genuine language inclusions.
        let mark_of = |node: &(usize, usize)| marks.get(node).copied().unwrap_or(Mark::Good);
        let nodes: Vec<(usize, usize)> = edges.keys().chain(marks.keys()).copied().collect();
        for node in nodes {
            let mark = mark_of(&node);
            // Preserve the tier flags an earlier `leq` recorded for this pair; closure
            // nodes seen here for the first time have exhausted neither tier.
            let (syn_false, memo_missed) = self
                .cache
                .get(&node)
                .map(|e| (e.syn_false, e.memo_missed))
                .unwrap_or((false, false));
            self.cache.insert(
                node,
                Entry {
                    verdict: mark == Mark::Good,
                    definite: mark != Mark::BadPessimistic,
                    gen,
                    syn_false,
                    memo_missed,
                },
            );
        }
        let root_mark = mark_of(&root);
        let verdict = root_mark == Mark::Good;
        // Store only definite verdicts: a pessimistic `false` depends on which rows
        // happen to be derived, which is not part of the memo key. (An over-budget
        // closure can under-mark interior nodes, so nothing is stored then either.)
        if root_mark != Mark::BadPessimistic && !over_budget {
            oracle.subsumption_store(&states[root_i], &states[root_j], alphabet, verdict);
        }
        verdict
    }
}

/// The antichain filter of one product walk: a [`SideOrder`] per side plus the walk's
/// counters. A candidate pair is dropped when any antichain member subsumes it.
#[derive(Debug, Default)]
pub(crate) struct Subsumer {
    mode: SubsumptionMode,
    left: SideOrder,
    right: SideOrder,
    pub(crate) stats: CheckStats,
}

impl Subsumer {
    pub(crate) fn new(mode: SubsumptionMode) -> Subsumer {
        Subsumer {
            mode,
            ..Subsumer::default()
        }
    }

    /// Is the candidate pair `(na, nb)` subsumed by some member of `antichain`?
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn subsumed(
        &mut self,
        na: usize,
        nb: usize,
        antichain: &[(usize, usize)],
        left_states: &[Sfa],
        left_rows: &[Option<Vec<usize>>],
        right_states: &[Sfa],
        right_rows: &[Option<Vec<usize>>],
        alphabet: &[Minterm],
        oracle: &mut dyn TransitionOracle,
    ) -> bool {
        if self.mode == SubsumptionMode::Off {
            return false;
        }
        let left_gen = left_rows.iter().filter(|r| r.is_some()).count();
        let right_gen = right_rows.iter().filter(|r| r.is_some()).count();
        for &(va, vb) in antichain {
            self.stats.subsumption_checks += 1;
            if self.left.leq(
                na,
                va,
                left_states,
                left_rows,
                alphabet,
                left_gen,
                self.mode,
                oracle,
                &mut self.stats,
            ) && self.right.leq(
                vb,
                nb,
                right_states,
                right_rows,
                alphabet,
                right_gen,
                self.mode,
                oracle,
                &mut self.stats,
            ) {
                self.stats.subsumed_pairs += 1;
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hat_logic::{Atom, Formula, Term};

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

    fn syn(phi: &Sfa, psi: &Sfa) -> bool {
        let mut fuel = SYNTACTIC_FUEL;
        leq_syntactic(phi, psi, &alphabet(), &mut fuel)
    }

    #[test]
    fn mode_spellings_round_trip() {
        for mode in [
            SubsumptionMode::Off,
            SubsumptionMode::Syntactic,
            SubsumptionMode::Simulation,
        ] {
            assert_eq!(SubsumptionMode::parse(mode.as_str()), Some(mode));
        }
        assert_eq!(SubsumptionMode::parse("nope"), None);
        assert_eq!(SubsumptionMode::default(), SubsumptionMode::Simulation);
    }

    #[test]
    fn syntactic_order_trivia() {
        let e = ins_el();
        assert!(syn(&Sfa::Zero, &e));
        assert!(syn(&e, &Sfa::universe()));
        assert!(syn(&e, &e));
        // ε is included exactly in nullable languages.
        assert!(syn(&Sfa::Epsilon, &Sfa::universe()));
        assert!(!syn(&Sfa::Epsilon, &e));
        // Nullability is a necessary condition.
        assert!(!syn(&Sfa::universe(), &e));
    }

    #[test]
    fn syntactic_order_decomposes_unions_and_intersections() {
        let e = ins_el();
        let other = Sfa::globally(Sfa::not(e.clone()));
        let union = Sfa::Or(vec![e.clone(), other.clone()]);
        // Every member is below the union; an intersection is below every member.
        assert!(syn(&e, &union));
        assert!(syn(&other, &union));
        let inter = Sfa::And(vec![e.clone(), other.clone()]);
        assert!(syn(&inter, &e));
        assert!(syn(&inter, &other));
        // Complement is antitone.
        assert!(syn(&Sfa::Not(Box::new(union)), &Sfa::Not(Box::new(e))));
    }

    #[test]
    fn leaf_supports_decide_event_inclusion() {
        // ⟨insert | x = el⟩ matches only minterm 0; ⟨insert | ⊤⟩ matches both.
        let narrow = ins_el();
        let wide = Sfa::event("insert", vec!["x".into()], "v", Formula::True);
        assert!(syn(&narrow, &wide));
        assert!(!syn(&wide, &narrow));
        // Guard leaves compare the same way.
        assert!(syn(&narrow, &Sfa::Guard(Formula::True)));
    }

    #[test]
    fn simulation_certifies_inclusion_on_derived_rows() {
        // Two states with identical derived rows and compatible nullability: state 0
        // loops to itself, state 1 loops to itself; 0 non-nullable, 1 nullable. The
        // syntactic order cannot relate the (structurally alien) formulas, but the
        // simulation fixpoint over the rows can.
        let a = Sfa::eventually(ins_el());
        // Semantically the universe, but not syntactically (`is_universe` only matches
        // the `□⟨⊤⟩` spelling), so the syntactic tier cannot answer.
        let b = Sfa::globally(Sfa::any_event());
        let states = [a, b];
        let rows = [Some(vec![0, 0]), Some(vec![1, 1])];
        struct NoOracle;
        impl TransitionOracle for NoOracle {
            fn event_matches(&mut self, _: &SymbolicEvent, _: &Minterm) -> bool {
                unreachable!("simulation must not resolve transitions")
            }
            fn guard_holds(&mut self, _: &Formula, _: &Minterm) -> bool {
                unreachable!("simulation must not resolve transitions")
            }
        }
        let mut order = SideOrder::default();
        let mut stats = CheckStats::default();
        // ◇⟨insert el⟩ ⊑ □⟨⊤⟩ — the universe simulates everything.
        assert!(order.leq(
            0,
            1,
            &states,
            &rows,
            &alphabet(),
            2,
            SubsumptionMode::Simulation,
            &mut NoOracle,
            &mut stats,
        ));
        // The converse fails definitely: state 1 is nullable, state 0 is not.
        assert!(!order.leq(
            1,
            0,
            &states,
            &rows,
            &alphabet(),
            2,
            SubsumptionMode::Simulation,
            &mut NoOracle,
            &mut stats,
        ));
    }

    #[test]
    fn pessimistic_verdicts_expire_with_the_row_generation() {
        let a = Sfa::eventually(ins_el());
        let b = Sfa::globally(Sfa::not(ins_el()));
        let states = [a, b];
        struct NoOracle;
        impl TransitionOracle for NoOracle {
            fn event_matches(&mut self, _: &SymbolicEvent, _: &Minterm) -> bool {
                unreachable!()
            }
            fn guard_holds(&mut self, _: &Formula, _: &Minterm) -> bool {
                unreachable!()
            }
        }
        let mut order = SideOrder::default();
        let mut stats = CheckStats::default();
        // With no rows derived the query is pessimistically false...
        let no_rows: [Option<Vec<usize>>; 2] = [None, None];
        assert!(!order.leq(
            0,
            1,
            &states,
            &no_rows,
            &alphabet(),
            0,
            SubsumptionMode::Simulation,
            &mut NoOracle,
            &mut stats,
        ));
        let entry = order.cache.get(&(0, 1)).copied().expect("cached");
        assert!(!entry.verdict && !entry.definite, "must stay retryable");
        // ...and re-examined once the generation moves: rows where 0 steps into a
        // definite nullability violation produce a *definite* false.
        let rows = [Some(vec![1, 0]), Some(vec![0, 1])];
        assert!(!order.leq(
            0,
            1,
            &states,
            &rows,
            &alphabet(),
            2,
            SubsumptionMode::Simulation,
            &mut NoOracle,
            &mut stats,
        ));
    }
}
