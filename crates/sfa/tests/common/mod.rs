//! Shared deterministic configuration generator for the differential harnesses
//! (`minterm_differential`, `dfa_differential`, `inclusion_differential`,
//! `derivative_differential`).
//!
//! One copy of the xorshift stream and the random-SFA grammar keeps the harnesses from
//! drifting apart: a tweak to the generator reaches every differential test at once.
//! The draw order is part of the contract — the harnesses pin their fixed seeds to
//! streams produced in exactly this order.

#![allow(dead_code)] // each test binary uses a different subset of these helpers

use hat_logic::{Atom, Formula, Sort, Term};
use hat_sfa::{OpSig, Sfa, VarCtx};

/// The deterministic xorshift generator shared across the workspace's randomised
/// harnesses (re-exported from `hat-testkit`, which pins the stream's draw order).
pub use hat_testkit::XorShift;

pub const CTX_VARS: [&str; 3] = ["el", "lo", "hi"];

pub fn random_ctx_term(rng: &mut XorShift) -> Term {
    if rng.below(3) == 0 {
        Term::int(rng.below(3) as i64)
    } else {
        Term::var(CTX_VARS[rng.below(CTX_VARS.len() as u64) as usize])
    }
}

/// A random atom over the event argument `x` and/or the context variables.
pub fn random_atom(rng: &mut XorShift, event_local: bool) -> Atom {
    let l = if event_local {
        Term::var("x")
    } else {
        random_ctx_term(rng)
    };
    let r = random_ctx_term(rng);
    match rng.below(3) {
        0 => Atom::Eq(l, r),
        1 => Atom::Lt(l, r),
        _ => Atom::Le(l, r),
    }
}

pub fn random_fact(rng: &mut XorShift) -> Formula {
    let atom = Formula::Atom(random_atom(rng, false));
    if rng.flip() {
        atom
    } else {
        Formula::not(atom)
    }
}

pub fn random_event(rng: &mut XorShift) -> Sfa {
    let mut conjuncts = Vec::new();
    for _ in 0..=rng.below(2) {
        let f = Formula::Atom(random_atom(rng, true));
        conjuncts.push(if rng.flip() { f } else { Formula::not(f) });
    }
    Sfa::event("tick", vec!["x".into()], "v", Formula::and(conjuncts))
}

pub fn random_sfa(rng: &mut XorShift, depth: u64) -> Sfa {
    if depth == 0 {
        return if rng.flip() {
            random_event(rng)
        } else {
            Sfa::guard(Formula::Atom(random_atom(rng, false)))
        };
    }
    match rng.below(6) {
        0 => Sfa::not(random_sfa(rng, depth - 1)),
        1 => Sfa::globally(random_sfa(rng, depth - 1)),
        2 => Sfa::eventually(random_sfa(rng, depth - 1)),
        3 => Sfa::and(vec![random_sfa(rng, depth - 1), random_sfa(rng, depth - 1)]),
        4 => Sfa::or(vec![random_sfa(rng, depth - 1), random_sfa(rng, depth - 1)]),
        _ => Sfa::concat(random_sfa(rng, depth - 1), random_sfa(rng, depth - 1)),
    }
}

/// A richer grammar than [`random_sfa`]: it adds `ε`, the universe, `◯`, `*`, until
/// and universe-headed concatenations, so the rules of the smart constructors that the
/// shared grammar's formulas never reach fire too (the universe absorption of
/// `Sfa::concat` and the Boolean absorption of `Sfa::and`/`Sfa::or` among them). Two of
/// its shapes are built raw, not through the smart constructors, so interning has to
/// normalise them. An until over a universe-headed concatenation has finitely many
/// residuals only because the smart constructors absorb repeated disjuncts.
pub fn rich_sfa(rng: &mut XorShift, depth: u64) -> Sfa {
    if depth == 0 {
        return match rng.below(4) {
            0 => random_event(rng),
            1 => Sfa::guard(Formula::Atom(random_atom(rng, false))),
            2 => Sfa::Epsilon,
            _ => Sfa::universe(),
        };
    }
    let x = rich_sfa(rng, depth - 1);
    match rng.below(11) {
        0 => Sfa::not(x),
        1 => Sfa::next(x),
        2 => Sfa::star(x),
        3 => Sfa::eventually(x),
        4 => Sfa::and(vec![x, rich_sfa(rng, depth - 1)]),
        5 => Sfa::or(vec![x, rich_sfa(rng, depth - 1)]),
        6 => Sfa::concat(x, rich_sfa(rng, depth - 1)),
        7 => Sfa::concat(x, Sfa::concat(Sfa::universe(), rich_sfa(rng, depth - 1))),
        8 => Sfa::until(x, rich_sfa(rng, depth - 1)),
        9 => Sfa::Star(Box::new(Sfa::star(x))),
        _ => Sfa::Concat(Box::new(Sfa::star(x.clone())), Box::new(Sfa::star(x))),
    }
}

/// One random inclusion problem: an integer context with 0–2 random facts, the given
/// operator alphabet, and two random automata over `tick`. The operator list does not
/// consume randomness, so harnesses with different alphabets share one draw order.
pub fn random_case(rng: &mut XorShift, ops: &[OpSig]) -> (VarCtx, Vec<OpSig>, Sfa, Sfa) {
    let vars: Vec<(String, Sort)> = CTX_VARS
        .iter()
        .map(|v| (v.to_string(), Sort::Int))
        .collect();
    let mut facts = Vec::new();
    for _ in 0..rng.below(3) {
        facts.push(random_fact(rng));
    }
    let ctx = VarCtx::new(vars, facts);
    let a = random_sfa(rng, 2);
    let b = random_sfa(rng, 2);
    (ctx, ops.to_vec(), a, b)
}
