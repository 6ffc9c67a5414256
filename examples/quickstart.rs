//! Quickstart: define a tiny stateful Set client, state its representation invariant as a
//! symbolic automaton, and verify it with the HAT type checker.
//!
//! Run with `cargo run -p marple --example quickstart`.

use hat_core::delta::events::ev;
use hat_core::{Checker, MethodSig, RType};
use hat_lang::builder::*;
use hat_lang::Value;
use hat_logic::{Formula, Sort, Term};
use hat_sfa::Sfa;
use hat_stdlib::set_delta;

fn main() {
    // I_Set(el): once `el` has been inserted it is never inserted again.
    let ins_el = || {
        ev(
            "insert",
            &["x"],
            Formula::eq(Term::var("x"), Term::var("el")),
        )
    };
    let invariant = Sfa::globally(Sfa::implies(
        ins_el(),
        Sfa::next(Sfa::not(Sfa::eventually(ins_el()))),
    ));

    // insert elem = if mem elem then () else insert elem
    let body = let_eff(
        "present",
        "mem",
        vec![Value::var("elem")],
        ite(
            Value::var("present"),
            ret(Value::unit()),
            let_eff("u", "insert", vec![Value::var("elem")], ret(Value::unit())),
        ),
    );

    let sig = MethodSig {
        name: "insert".into(),
        ghosts: vec![("el".into(), Sort::Int)],
        params: vec![("elem".into(), RType::base(Sort::Int))],
        pre: invariant.clone(),
        ret: RType::base(Sort::Unit),
        post: invariant.clone(),
    };

    let mut checker = Checker::new(set_delta());
    let report = checker.check_method(&sig, &body).expect("checking runs");
    println!("insert verified: {}", report.verified);
    println!(
        "  SMT queries: {}, FA inclusions: {}, avg FA size: {:.1}, time: {:.2}s",
        report.stats.sat_queries,
        report.stats.fa_inclusions,
        report.stats.avg_fa_size(),
        report.stats.total_time.as_secs_f64()
    );

    // The unguarded insert is rejected.
    let bad = let_eff("u", "insert", vec![Value::var("elem")], ret(Value::unit()));
    let report = checker.check_method(&sig, &bad).expect("checking runs");
    println!(
        "unguarded insert verified: {} (expected false)",
        report.verified
    );
    for f in &report.failures {
        println!("  reason: {f}");
    }
}
