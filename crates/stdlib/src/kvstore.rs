//! The persistent key-value store library (paper Fig. 1 / Examples 3.1 and 4.2).
//!
//! Operators: `put : Path.t → Bytes.t → unit`, `exists : Path.t → bool`,
//! `get : Path.t → Bytes.t`.

use crate::preds::filesystem_axioms;
use crate::sorts;
use hat_core::delta::events::{appends, ev};
use hat_core::{Delta, EffOpSig, HoareCase, PureOpSig, RType, NU};
use hat_lang::interp::{InterpError, LibraryModel};
use hat_logic::{Constant, Formula, Sort, Term};
use hat_sfa::Sfa;

/// `P_exists(k)`: some `put` of key `k` appears in the trace (Example 4.1).
pub fn p_exists(k: Term) -> Sfa {
    Sfa::eventually(ev("put", &["key", "val"], Formula::eq(Term::var("key"), k)))
}

/// `P_stored(k, a)`: the most recent `put` of key `k` stored the value `a` (Example 4.1).
pub fn p_stored(k: Term, a: Term) -> Sfa {
    Sfa::eventually(Sfa::and(vec![
        ev(
            "put",
            &["key", "val"],
            Formula::and(vec![
                Formula::eq(Term::var("key"), k.clone()),
                Formula::eq(Term::var("val"), a),
            ]),
        ),
        Sfa::next(Sfa::globally(Sfa::not(ev(
            "put",
            &["key", "val"],
            Formula::eq(Term::var("key"), k),
        )))),
    ]))
}

/// The HAT signatures of the key-value store (the `Δ` of Example 4.2, with the weaker
/// ghost-free `get` signature recorded under "Deviations from the paper" in
/// `docs/ARCHITECTURE.md`).
pub fn kvstore_delta() -> Delta {
    let mut d = Delta::new();
    let path = RType::base(sorts::path());
    let bytes = RType::base(sorts::bytes());

    // put : k:Path.t → a:Bytes.t → [□⟨⊤⟩] unit [□⟨⊤⟩; ⟨put k a⟩ ∧ LAST]
    let put_event = ev(
        "put",
        &["key", "val"],
        Formula::and(vec![
            Formula::eq(Term::var("key"), Term::var("k")),
            Formula::eq(Term::var("val"), Term::var("a")),
        ]),
    );
    d.declare_eff(
        "put",
        EffOpSig {
            ghosts: vec![],
            params: vec![("k".into(), path.clone()), ("a".into(), bytes.clone())],
            cases: vec![HoareCase {
                pre: Sfa::universe(),
                ty: RType::base(Sort::Unit),
                post: appends(&Sfa::universe(), put_event),
            }],
        },
    );

    // exists : k:Path.t → ([P_exists(k)] {ν = true} [...]) ⊓ ([¬P_exists(k)] {ν = false} [...])
    let exists_event = |r: bool| {
        ev(
            "exists",
            &["key"],
            Formula::and(vec![
                Formula::eq(Term::var("key"), Term::var("k")),
                Formula::eq(Term::var(NU), Term::bool(r)),
            ]),
        )
    };
    let present = p_exists(Term::var("k"));
    let absent = Sfa::not(present.clone());
    d.declare_eff(
        "exists",
        EffOpSig {
            ghosts: vec![],
            params: vec![("k".into(), path.clone())],
            cases: vec![
                HoareCase {
                    pre: present.clone(),
                    ty: RType::bool_singleton(true),
                    post: appends(&present, exists_event(true)),
                },
                HoareCase {
                    pre: absent.clone(),
                    ty: RType::bool_singleton(false),
                    post: appends(&absent, exists_event(false)),
                },
            ],
        },
    );

    // get : k:Path.t → [P_exists(k)] Bytes.t [P_exists(k); ⟨get k⟩ ∧ LAST]
    let get_event = ev(
        "get",
        &["key"],
        Formula::eq(Term::var("key"), Term::var("k")),
    );
    d.declare_eff(
        "get",
        EffOpSig {
            ghosts: vec![],
            params: vec![("k".into(), path.clone())],
            cases: vec![HoareCase {
                pre: p_exists(Term::var("k")),
                ty: RType::base(sorts::bytes()),
                post: appends(&p_exists(Term::var("k")), get_event),
            }],
        },
    );

    // Pure helpers of the FileSystem client.
    d.declare_pure(
        "parent",
        PureOpSig {
            params: vec![("p".into(), path.clone())],
            ret: RType::singleton(sorts::path(), Term::app("parent", vec![Term::var("p")])),
        },
    );
    for pred in ["isDir", "isFile", "isDel"] {
        d.declare_pure(
            pred,
            PureOpSig {
                params: vec![("b".into(), bytes.clone())],
                ret: RType::refined(
                    Sort::Bool,
                    Formula::iff(
                        Formula::bool_term(Term::var(NU)),
                        Formula::pred(pred, vec![Term::var("b")]),
                    ),
                ),
            },
        );
    }
    d.declare_pure(
        "isRoot",
        PureOpSig {
            params: vec![("p".into(), path.clone())],
            ret: RType::refined(
                Sort::Bool,
                Formula::iff(
                    Formula::bool_term(Term::var(NU)),
                    Formula::pred("isRoot", vec![Term::var("p")]),
                ),
            ),
        },
    );
    d.declare_pure(
        "addChild",
        PureOpSig {
            params: vec![("b".into(), bytes.clone()), ("p".into(), path.clone())],
            ret: RType::singleton(
                sorts::bytes(),
                Term::app("addChild", vec![Term::var("b"), Term::var("p")]),
            ),
        },
    );
    d.declare_pure(
        "delChild",
        PureOpSig {
            params: vec![("b".into(), bytes.clone()), ("p".into(), path.clone())],
            ret: RType::singleton(
                sorts::bytes(),
                Term::app("delChild", vec![Term::var("b"), Term::var("p")]),
            ),
        },
    );
    d.declare_pure(
        "setDeleted",
        PureOpSig {
            params: vec![("b".into(), bytes.clone())],
            ret: RType::singleton(
                sorts::bytes(),
                Term::app("setDeleted", vec![Term::var("b")]),
            ),
        },
    );

    d.axioms = filesystem_axioms();
    d
}

/// The executable trace semantics of the key-value store (paper Fig. 10).
pub fn kvstore_model() -> LibraryModel {
    let mut m = LibraryModel::new();
    m.define("put", |_trace, args| match args {
        [_, _] => Ok(Constant::Unit),
        _ => Err(InterpError::TypeError("put expects 2 arguments".into())),
    });
    m.define("exists", |trace, args| match args {
        [k] => Ok(Constant::Bool(
            trace.any(|e| e.op == "put" && e.args.first() == Some(k)),
        )),
        _ => Err(InterpError::TypeError("exists expects 1 argument".into())),
    });
    m.define("get", |trace, args| match args {
        [k] => trace
            .last_matching(|e| e.op == "put" && e.args.first() == Some(k))
            .map(|e| e.args[1].clone())
            .ok_or_else(|| InterpError::Stuck(format!("get {k}: key never put"))),
        _ => Err(InterpError::TypeError("get expects 1 argument".into())),
    });
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use hat_logic::Interpretation;
    use hat_sfa::{accepts, Event, Trace, TraceModel};

    #[test]
    fn delta_declares_the_full_api() {
        let d = kvstore_delta();
        for op in ["put", "exists", "get"] {
            assert!(d.eff_ops.contains_key(op));
        }
        for op in [
            "parent",
            "isDir",
            "isFile",
            "isDel",
            "isRoot",
            "addChild",
            "setDeleted",
        ] {
            assert!(d.pure_ops.contains_key(op), "missing pure op {op}");
        }
        assert!(!d.axioms.axioms.is_empty());
    }

    #[test]
    fn p_stored_matches_the_operational_get() {
        // P_stored(k, a) accepts exactly traces where the last put of k wrote a.
        let model = TraceModel::new(Interpretation::filesystem())
            .bind("k", Constant::atom("/a"))
            .bind("a", Constant::atom("dir:new"));
        let put = |k: &str, v: &str| {
            Event::new(
                "put",
                vec![Constant::atom(k), Constant::atom(v)],
                Constant::Unit,
            )
        };
        let sfa = p_stored(Term::var("k"), Term::var("a"));
        let good = Trace::from_events(vec![
            put("/a", "dir:old"),
            put("/a", "dir:new"),
            put("/b", "x"),
        ]);
        assert!(accepts(&model, &good, &sfa).unwrap());
        let stale = Trace::from_events(vec![put("/a", "dir:new"), put("/a", "dir:old")]);
        assert!(!accepts(&model, &stale, &sfa).unwrap());
        let missing = Trace::from_events(vec![put("/b", "dir:new")]);
        assert!(!accepts(&model, &missing, &sfa).unwrap());
    }

    #[test]
    fn exists_signature_splits_on_history() {
        let d = kvstore_delta();
        let exists = &d.eff_ops["exists"];
        assert_eq!(exists.cases.len(), 2);
    }
}
