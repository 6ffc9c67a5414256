//! The FileSystem configurations (rows 14–15 of Table 1/2) — the motivating example of the
//! paper (§2): a Unix-like directory hierarchy layered over a tree or key-value store.

use crate::{inv_sig, Benchmark, Method};
use hat_core::delta::events::ev;
use hat_core::{PureOpSig, RType};
use hat_lang::builder::*;
use hat_lang::Value;
use hat_logic::{Formula, Sort, Term};
use hat_sfa::Sfa;
use hat_stdlib::{kvstore_delta, kvstore_model, sorts, tree_delta, tree_model};

/// `P_isDir(p)` from §2: `p` was stored as a directory and not subsequently deleted or
/// overwritten by a file.
fn p_is_dir(p: Term) -> Sfa {
    Sfa::eventually(Sfa::and(vec![
        ev(
            "put",
            &["key", "val"],
            Formula::and(vec![
                Formula::eq(Term::var("key"), p.clone()),
                Formula::pred("isDir", vec![Term::var("val")]),
            ]),
        ),
        Sfa::next(Sfa::globally(Sfa::not(ev(
            "put",
            &["key", "val"],
            Formula::and(vec![
                Formula::eq(Term::var("key"), p),
                Formula::or(vec![
                    Formula::pred("isDel", vec![Term::var("val")]),
                    Formula::pred("isFile", vec![Term::var("val")]),
                ]),
            ]),
        )))),
    ]))
}

/// `P_exists(p)`: some put of key `p`.
fn p_exists(p: Term) -> Sfa {
    Sfa::eventually(ev("put", &["key", "val"], Formula::eq(Term::var("key"), p)))
}

/// The representation invariant `I_FS(p)` of §2, Example 2.2: either `p` is the root, or if
/// `p` is stored in the file system then its parent is stored as a (non-deleted) directory.
pub fn i_fs(p: Term) -> Sfa {
    let parent = Term::app("parent", vec![p.clone()]);
    Sfa::or(vec![
        Sfa::globally(Sfa::guard(Formula::pred("isRoot", vec![p.clone()]))),
        Sfa::implies(p_exists(p), p_is_dir(parent)),
    ])
}

/// FileSystem over the key-value store (Fig. 1): keys are paths, values are byte blobs.
fn filesystem_kvstore() -> Benchmark {
    let ghosts = vec![("p".to_string(), sorts::path())];
    let inv = i_fs(Term::var("p"));
    let path = RType::base(sorts::path());
    let bytes = RType::base(sorts::bytes());

    // add (Fig. 1): insert a file/directory only when it is absent and its parent is a
    // stored directory, updating the parent's child list.
    let add_body = let_eff(
        "present",
        "exists",
        vec![Value::var("path")],
        ite(
            Value::var("present"),
            ret(Value::bool(false)),
            let_pure(
                "pp",
                "parent",
                vec![Value::var("path")],
                let_eff(
                    "pp_present",
                    "exists",
                    vec![Value::var("pp")],
                    ite(
                        Value::var("pp_present"),
                        let_eff(
                            "pbytes",
                            "get",
                            vec![Value::var("pp")],
                            let_pure(
                                "pdir",
                                "isDir",
                                vec![Value::var("pbytes")],
                                ite(
                                    Value::var("pdir"),
                                    let_pure(
                                        "dir_payload",
                                        "addChild",
                                        vec![Value::var("pbytes"), Value::var("path")],
                                        let_eff(
                                            "u1",
                                            "put",
                                            vec![Value::var("path"), Value::var("dir_payload")],
                                            let_eff(
                                                "u2",
                                                "put",
                                                vec![Value::var("pp"), Value::var("dir_payload")],
                                                ret(Value::bool(true)),
                                            ),
                                        ),
                                    ),
                                    ret(Value::bool(false)),
                                ),
                            ),
                        ),
                        ret(Value::bool(false)),
                    ),
                ),
            ),
        ),
    );

    // init: store the root directory.
    let init_body = let_pure(
        "root_is_root",
        "isRoot",
        vec![Value::var("root")],
        ite(
            Value::var("root_is_root"),
            let_eff(
                "u",
                "put",
                vec![Value::var("root"), Value::var("root_bytes")],
                ret(Value::unit()),
            ),
            ret(Value::unit()),
        ),
    );

    // The naïve add of Example 2.1, which registers a path unconditionally.
    let add_bad_body = let_eff(
        "u",
        "put",
        vec![Value::var("path"), Value::var("payload")],
        ret(Value::bool(true)),
    );

    let methods = vec![
        Method::ok(
            inv_sig(
                "add",
                &ghosts,
                vec![
                    ("path".into(), path.clone()),
                    ("payload".into(), bytes.clone()),
                ],
                RType::base(Sort::Bool),
                &inv,
            ),
            add_body,
        ),
        Method::ok(
            inv_sig(
                "init",
                &ghosts,
                vec![
                    ("root".into(), path.clone()),
                    (
                        "root_bytes".into(),
                        RType::refined(
                            sorts::bytes(),
                            Formula::pred("isDir", vec![Term::var(hat_core::NU)]),
                        ),
                    ),
                ],
                RType::base(Sort::Unit),
                &inv,
            ),
            init_body,
        ),
        Method::ok(
            inv_sig(
                "exists_path",
                &ghosts,
                vec![("path".into(), path.clone())],
                RType::base(Sort::Bool),
                &inv,
            ),
            let_eff(
                "present",
                "exists",
                vec![Value::var("path")],
                ret(Value::var("present")),
            ),
        ),
        Method::buggy(
            inv_sig(
                "add_bad",
                &ghosts,
                vec![
                    ("path".into(), path.clone()),
                    ("payload".into(), bytes.clone()),
                ],
                RType::base(Sort::Bool),
                &inv,
            ),
            add_bad_body,
        ),
    ];
    Benchmark {
        adt: "FileSystem".into(),
        library: "KVStore".into(),
        invariant_description: "Unix-like path policy".into(),
        policy: "Any non-root path stored as a key must have its parent stored as a non-deleted directory".into(),
        ghosts,
        invariant: inv,
        delta: kvstore_delta(),
        model: kvstore_model(),
        methods,
        // ~2–3 s cold in release with the default pipeline, which every other `table1`
        // knob run checks, but its naive-enumeration baseline takes ~4 min.
        slow: true,
    }
}

/// FileSystem over the tree library: paths are attached below their parent path, so the
/// parent/child structure is maintained by construction and the remaining obligation is
/// that children are only attached below their own parent.
fn filesystem_tree() -> Benchmark {
    let ghosts = vec![("p".to_string(), Sort::Int)];
    // □ ¬⟨addchild parent child | parent ≠ parent(child)⟩ for the ghost path p (as child).
    let violating = ev(
        "addchild",
        &["par", "child"],
        Formula::and(vec![
            Formula::eq(Term::var("child"), Term::var("p")),
            Formula::not(Formula::eq(
                Term::var("par"),
                Term::app("parentOf", vec![Term::var("p")]),
            )),
        ]),
    );
    let inv = Sfa::globally(Sfa::not(violating));
    let int = RType::base(Sort::Int);
    let mut delta = tree_delta();
    delta.declare_pure(
        "parentOf",
        PureOpSig {
            params: vec![("x".into(), int.clone())],
            ret: RType::singleton(Sort::Int, Term::app("parentOf", vec![Term::var("x")])),
        },
    );
    delta
        .axioms
        .declare_func("parentOf", vec![Sort::Int], Sort::Int);
    let methods = vec![
        Method::ok(
            inv_sig(
                "add",
                &ghosts,
                vec![("path".into(), int.clone())],
                RType::base(Sort::Bool),
                &inv,
            ),
            let_pure(
                "pp",
                "parentOf",
                vec![Value::var("path")],
                let_eff(
                    "pp_present",
                    "contains",
                    vec![Value::var("pp")],
                    ite(
                        Value::var("pp_present"),
                        let_eff(
                            "u",
                            "addchild",
                            vec![Value::var("pp"), Value::var("path")],
                            ret(Value::bool(true)),
                        ),
                        ret(Value::bool(false)),
                    ),
                ),
            ),
        ),
        Method::ok(
            inv_sig(
                "init",
                &ghosts,
                vec![("root".into(), int.clone())],
                RType::base(Sort::Unit),
                &inv,
            ),
            let_eff("u", "addroot", vec![Value::var("root")], ret(Value::unit())),
        ),
        Method::ok(
            inv_sig(
                "exists_path",
                &ghosts,
                vec![("path".into(), int.clone())],
                RType::base(Sort::Bool),
                &inv,
            ),
            let_eff(
                "present",
                "contains",
                vec![Value::var("path")],
                ret(Value::var("present")),
            ),
        ),
        Method::buggy(
            inv_sig(
                "add_bad",
                &ghosts,
                vec![
                    ("path".into(), int.clone()),
                    ("somewhere".into(), int.clone()),
                ],
                RType::base(Sort::Bool),
                &inv,
            ),
            // Attaches the path below an arbitrary node instead of its parent.
            let_eff(
                "u",
                "addchild",
                vec![Value::var("somewhere"), Value::var("path")],
                ret(Value::bool(true)),
            ),
        ),
    ];
    Benchmark {
        adt: "FileSystem".into(),
        library: "Tree".into(),
        invariant_description: "Unix-like path policy".into(),
        policy: "A parent node stores a path that is a prefix of its children's paths".into(),
        ghosts,
        invariant: inv,
        delta,
        model: tree_model(),
        methods,
        slow: false,
    }
}

/// The configurations defined in this module.
pub fn benchmarks() -> Vec<Benchmark> {
    vec![filesystem_tree(), filesystem_kvstore()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use hat_logic::{Constant, Interpretation};
    use hat_sfa::{accepts, Event, Trace, TraceModel};

    #[test]
    fn the_invariant_distinguishes_the_paper_traces() {
        // α1 (add_bad) violates I_FS for p = "/a/b.txt"; α2 (correct add) satisfies it.
        let model =
            TraceModel::new(Interpretation::filesystem()).bind("p", Constant::atom("/a/b.txt"));
        let inv = i_fs(Term::var("p"));
        let put = |k: &str, v: &str| {
            Event::new(
                "put",
                vec![Constant::atom(k), Constant::atom(v)],
                Constant::Unit,
            )
        };
        let alpha1 = Trace::from_events(vec![put("/", "dir:root"), put("/a/b.txt", "file:1")]);
        assert!(!accepts(&model, &alpha1, &inv).unwrap());
        let alpha2 = Trace::from_events(vec![
            put("/", "dir:root"),
            Event::new(
                "exists",
                vec![Constant::atom("/a/b.txt")],
                Constant::Bool(false),
            ),
            Event::new("exists", vec![Constant::atom("/a")], Constant::Bool(false)),
        ]);
        assert!(accepts(&model, &alpha2, &inv).unwrap());
    }

    #[test]
    fn two_configurations() {
        assert_eq!(benchmarks().len(), 2);
    }
}
