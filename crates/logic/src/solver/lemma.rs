//! Theory lemmas: the minimised conflict cores a [`Solver`](super::Solver) has found,
//! kept for the solver's lifetime so that no later query re-derives them.
//!
//! A core is inconsistent in the theory for the sorts [`TheoryCheck`](super::TheoryCheck)
//! read when it found the core: each variable's sort in the query's environment and each
//! named function's result sort in the axioms. A lemma is keyed on its literals plus
//! those sorts, and applies to a later query (standalone or a scoped session) when every
//! atom of the lemma occurs in the query's CNF and every recorded sort is the query's.
//! It then enters the query as the clause that blocks the core, in the DPLL(T) manner
//! of Nieuwenhuis, Oliveras and Tinelli (JACM 2006), so DPLL never proposes a model the
//! theory would reject for that reason. Matches are found through an index by atom.
//!
//! Lemmas are never persisted and are not a memo kind: they change how much work a
//! query takes, never its answer, and they live and die with their solver.

use super::cnf::Lit;
use crate::axioms::AxiomSet;
use crate::formula::Atom;
use crate::sort::Sort;
use crate::term::{FuncSym, Term};
use crate::Ident;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// One learned conflict core and the sorts it was found under.
#[derive(Debug, Clone)]
struct Lemma {
    /// Number of literals in the core.
    len: usize,
    /// The environment sort of every variable the core mentions (`None`: undeclared).
    vars: Vec<(Ident, Option<Sort>)>,
    /// The declared result sort of every named function the core mentions.
    funcs: Vec<(String, Option<Sort>)>,
}

impl Lemma {
    /// Whether the sorts the core was found under are the given query's.
    fn sorts_hold(&self, env: &BTreeMap<Ident, Sort>, axioms: &AxiomSet) -> bool {
        self.vars.iter().all(|(x, s)| env.get(x) == s.as_ref())
            && self
                .funcs
                .iter()
                .all(|(f, s)| axioms.func_ret_sort(f) == s.as_ref())
    }
}

/// The lemmas of one solver, indexed by atom.
#[derive(Debug, Clone, Default)]
pub(crate) struct Lemmas {
    lemmas: Vec<Lemma>,
    /// For each atom, every lemma that contains it and the polarity it has there.
    by_atom: HashMap<Atom, Vec<(usize, bool)>>,
}

impl Lemmas {
    /// Keeps a minimised conflict core found under `env` and `axioms`.
    pub(crate) fn learn(
        &mut self,
        core: &[(Atom, bool)],
        env: &BTreeMap<Ident, Sort>,
        axioms: &AxiomSet,
    ) {
        let mut vars = BTreeSet::new();
        let mut funcs = BTreeSet::new();
        for (atom, _) in core {
            atom.collect_vars(&mut vars);
            for_each_term(atom, &mut |t| collect_funcs(t, &mut funcs));
        }
        let id = self.lemmas.len();
        self.lemmas.push(Lemma {
            len: core.len(),
            vars: vars
                .into_iter()
                .map(|x| {
                    let sort = env.get(&x).cloned();
                    (x, sort)
                })
                .collect(),
            funcs: funcs
                .into_iter()
                .map(|f| {
                    let sort = axioms.func_ret_sort(&f).cloned();
                    (f, sort)
                })
                .collect(),
        });
        for (atom, value) in core {
            self.by_atom
                .entry(atom.clone())
                .or_default()
                .push((id, *value));
        }
    }

    /// The blocking clause of every lemma that applies to a query with the given CNF
    /// atoms, environment and axioms, in the order the lemmas were learned.
    pub(crate) fn clauses_for(
        &self,
        atoms: &[(Atom, usize)],
        env: &BTreeMap<Ident, Sort>,
        axioms: &AxiomSet,
    ) -> Vec<Vec<Lit>> {
        let mut partial: BTreeMap<usize, Vec<Lit>> = BTreeMap::new();
        for (atom, var) in atoms {
            for &(id, value) in self.by_atom.get(atom).into_iter().flatten() {
                partial.entry(id).or_default().push(Lit {
                    var: *var,
                    positive: !value,
                });
            }
        }
        partial
            .into_iter()
            .filter(|(id, clause)| {
                let lemma = &self.lemmas[*id];
                clause.len() == lemma.len && lemma.sorts_hold(env, axioms)
            })
            .map(|(_, clause)| clause)
            .collect()
    }
}

fn for_each_term(atom: &Atom, visit: &mut dyn FnMut(&Term)) {
    match atom {
        Atom::Eq(l, r) | Atom::Lt(l, r) | Atom::Le(l, r) => {
            visit(l);
            visit(r);
        }
        Atom::Pred(_, args) => args.iter().for_each(visit),
        Atom::BoolTerm(t) => visit(t),
    }
}

fn collect_funcs(t: &Term, out: &mut BTreeSet<String>) {
    if let Term::App(sym, args) = t {
        if let FuncSym::Named(f) = sym {
            out.insert(f.clone());
        }
        for a in args {
            collect_funcs(a, out);
        }
    }
}
