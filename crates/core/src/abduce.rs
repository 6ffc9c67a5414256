//! Ghost-variable instantiation by abduction (paper §5.2, Algorithm 3).
//!
//! When an effectful operator's signature carries ghost variables (e.g. the value ghost `a`
//! of `get`), the checker must strengthen the typing context with a qualifier over the
//! ghost that is sufficient for the operator's precondition automaton to cover the current
//! effect context. Following the spirit of `Abduce`, candidate qualifiers are boolean
//! combinations of literals *transferred* from the automata: a literal of the target
//! automaton that links an event variable to the ghost (e.g. `val = a`) is matched with the
//! literals the context automaton knows about that same event variable (e.g. `isDir(val)`),
//! yielding candidate ghost facts such as `isDir(a)`.
//!
//! The full CEGIS loop of the paper is replaced by a weakest-first search over these
//! candidates; this is sufficient for the library signatures shipped in `hat-stdlib` and is
//! recorded under "Deviations from the paper" in `docs/ARCHITECTURE.md`.

use hat_logic::{Atom, Formula, Ident, Term};
use hat_sfa::Sfa;
use std::collections::BTreeSet;

/// Collects `(op, literal)` pairs from every symbolic event of an automaton, keeping the
/// event's own argument names.
fn event_literals(a: &Sfa, out: &mut Vec<(String, Vec<Ident>, Ident, Atom)>) {
    match a {
        Sfa::Zero | Sfa::Epsilon | Sfa::Guard(_) => {}
        Sfa::Event(e) => {
            let mut atoms = Vec::new();
            e.phi.collect_atoms(&mut atoms);
            for at in atoms {
                out.push((e.op.clone(), e.args.clone(), e.result.clone(), at));
            }
        }
        Sfa::Not(x) | Sfa::Next(x) | Sfa::Star(x) => event_literals(x, out),
        Sfa::And(parts) | Sfa::Or(parts) => {
            for p in parts {
                event_literals(p, out);
            }
        }
        Sfa::Concat(x, y) | Sfa::Until(x, y) => {
            event_literals(x, out);
            event_literals(y, out);
        }
    }
}

/// Candidate qualifiers for the given ghost variables, derived from a context automaton
/// `ctx_auto` and the target (operator precondition) automaton `target`.
///
/// The result is ordered from weakest (fewest conjuncts) to strongest; `Formula::True` is
/// always a valid first candidate and is therefore not included.
pub fn ghost_candidates(ghosts: &[Ident], ctx_auto: &Sfa, target: &Sfa) -> Vec<Formula> {
    let mut target_lits = Vec::new();
    event_literals(target, &mut target_lits);
    let mut ctx_lits = Vec::new();
    event_literals(ctx_auto, &mut ctx_lits);

    let ghost_set: BTreeSet<&Ident> = ghosts.iter().collect();
    let mut singles: Vec<Formula> = Vec::new();

    for (op, args, result, lit) in &target_lits {
        let mut vars = BTreeSet::new();
        lit.collect_vars(&mut vars);
        // Literals of the form `eventvar = ghost` (or symmetric) link an event variable to
        // a ghost; transfer what the context automaton knows about that event variable.
        let locals: BTreeSet<&Ident> = args.iter().chain(std::iter::once(result)).collect();
        let linked: Vec<(&Ident, &Ident)> = match lit {
            Atom::Eq(Term::Var(a), Term::Var(b)) => {
                let mut v = Vec::new();
                if locals.contains(a) && ghost_set.contains(b) {
                    v.push((a, b));
                }
                if locals.contains(b) && ghost_set.contains(a) {
                    v.push((b, a));
                }
                v
            }
            _ => Vec::new(),
        };
        for (event_var, ghost) in linked {
            for (op2, args2, result2, lit2) in &ctx_lits {
                if op2 != op {
                    continue;
                }
                // Map the other event's variable in the same position onto `event_var`.
                let position = args.iter().position(|a| a == event_var);
                let other_var: Option<&Ident> = match position {
                    Some(i) => args2.get(i),
                    None if event_var == result => Some(result2),
                    None => None,
                };
                let Some(other_var) = other_var else { continue };
                let mut vars2 = BTreeSet::new();
                lit2.collect_vars(&mut vars2);
                if !vars2.contains(other_var) {
                    continue;
                }
                // Drop literals that still mention other event-local variables after the
                // transfer (they would be ill-scoped as ghost facts).
                let locals2: BTreeSet<&Ident> =
                    args2.iter().chain(std::iter::once(result2)).collect();
                if vars2.iter().any(|v| v != other_var && locals2.contains(v)) {
                    continue;
                }
                let transferred =
                    Formula::Atom(lit2.subst_var(other_var, &Term::Var(ghost.clone())));
                if !singles.contains(&transferred) {
                    singles.push(transferred);
                }
            }
        }
        let _ = vars;
    }

    let mut out = singles.clone();
    if singles.len() > 1 {
        out.push(Formula::and(singles));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn put_event(phi: Formula) -> Sfa {
        Sfa::event("put", vec!["key".into(), "val".into()], "res", phi)
    }

    #[test]
    fn transfers_context_knowledge_to_the_ghost() {
        // Target (precondition of `get k` with ghost a): ♦⟨put key val | key = k ∧ val = a⟩
        let target = Sfa::eventually(put_event(Formula::and(vec![
            Formula::eq(Term::var("key"), Term::var("k")),
            Formula::eq(Term::var("val"), Term::var("a")),
        ])));
        // Context automaton knows ♦⟨put key val | key = k ∧ isDir(val)⟩.
        let ctx_auto = Sfa::eventually(put_event(Formula::and(vec![
            Formula::eq(Term::var("key"), Term::var("k")),
            Formula::pred("isDir", vec![Term::var("val")]),
        ])));
        let cands = ghost_candidates(&["a".into()], &ctx_auto, &target);
        assert!(
            cands.contains(&Formula::pred("isDir", vec![Term::var("a")])),
            "expected isDir(a) among candidates, got {cands:?}"
        );
    }

    #[test]
    fn no_candidates_without_ghost_links() {
        let target = Sfa::eventually(put_event(Formula::eq(Term::var("key"), Term::var("k"))));
        let ctx_auto = Sfa::eventually(put_event(Formula::pred("isDir", vec![Term::var("val")])));
        let cands = ghost_candidates(&["a".into()], &ctx_auto, &target);
        assert!(cands.is_empty());
    }

    #[test]
    fn result_variable_links_are_supported() {
        // Target: ♦⟨read = ν | ν = a⟩; context knows ♦⟨read = ν | 0 <= ν⟩.
        let target = Sfa::eventually(Sfa::event(
            "read",
            vec![],
            "out",
            Formula::eq(Term::var("out"), Term::var("a")),
        ));
        let ctx_auto = Sfa::eventually(Sfa::event(
            "read",
            vec![],
            "r",
            Formula::le(Term::int(0), Term::var("r")),
        ));
        let cands = ghost_candidates(&["a".into()], &ctx_auto, &target);
        assert!(cands.contains(&Formula::le(Term::int(0), Term::var("a"))));
    }
}
