//! # hat-suite
//!
//! The benchmark suite of the paper's evaluation (Tables 1 and 2): nine ADTs, each
//! implemented against one or more backing stateful libraries, for a total of nineteen
//! (ADT, library) configurations. Every configuration bundles:
//!
//! * the library specification (`Δ`) it type checks against,
//! * its representation invariant as a symbolic automaton (with its ghost variables),
//! * its methods as λᴱ programs together with their HAT signatures, and
//! * an executable library model so the interpreter-based tests can replay methods and
//!   validate Corollary 4.9 (well-typed methods preserve the invariant on every run).
//!
//! Buggy variants (such as `add_bad` from §2 of the paper) are included as negative
//! entries: the checker must reject them.

pub mod filesystem;
pub mod graphs;
pub mod sets;
pub mod stacks;

use hat_core::{Checker, Delta, MethodReport, MethodSig};
use hat_lang::interp::LibraryModel;
use hat_lang::Expr;
use hat_logic::{Ident, Sort};
use hat_sfa::Sfa;

/// One ADT method: its HAT signature, its λᴱ body, and whether the checker is expected to
/// verify it (`false` for the deliberately buggy variants).
#[derive(Debug, Clone)]
pub struct Method {
    /// Signature (ghosts, parameters, pre/postcondition automata).
    pub sig: MethodSig,
    /// Body in monadic normal form.
    pub body: Expr,
    /// Expected verification outcome.
    pub expect_verified: bool,
}

impl Method {
    /// A method expected to verify.
    pub fn ok(sig: MethodSig, body: Expr) -> Self {
        Method {
            sig,
            body,
            expect_verified: true,
        }
    }

    /// A deliberately buggy method expected to be rejected.
    pub fn buggy(sig: MethodSig, body: Expr) -> Self {
        Method {
            sig,
            body,
            expect_verified: false,
        }
    }
}

/// One (ADT, backing library) configuration of Table 1.
#[derive(Debug, Clone)]
pub struct Benchmark {
    /// ADT name (e.g. `Stack`; `gen` for configurations produced by `hat-gen`).
    pub adt: String,
    /// Backing library name (e.g. `LinkedList`; a `(seed, index)` recipe for `hat-gen`).
    pub library: String,
    /// The Table 2 description of the representation invariant.
    pub invariant_description: String,
    /// The Table 2 description of the policy on library interactions.
    pub policy: String,
    /// Ghost variables of the representation invariant.
    pub ghosts: Vec<(Ident, Sort)>,
    /// The representation invariant automaton.
    pub invariant: Sfa,
    /// The library specification the ADT is checked against.
    pub delta: Delta,
    /// Executable semantics of the backing library (for interpreter-based validation).
    pub model: LibraryModel,
    /// The ADT methods.
    pub methods: Vec<Method>,
    /// Whether naive minterm enumeration is infeasible on this configuration, so the
    /// naive-enumeration run of the `table1` ablation leaves it out (and debug-build
    /// snapshot tests skip it for time). Only `FileSystem/KVStore` is flagged: the
    /// default pipeline checks it cold in ~2–3 s in release, its naive baseline takes
    /// ~4 min.
    pub slow: bool,
}

impl Benchmark {
    /// The size of the invariant formula (the paper's `s_I` column).
    pub fn invariant_size(&self) -> usize {
        self.invariant.literal_count()
    }

    /// Number of ghost variables (the paper's `#Ghost` column).
    pub fn ghost_count(&self) -> usize {
        self.ghosts.len()
    }

    /// Number of methods expected to verify (the paper's `#Method` column counts only the
    /// real API, not the buggy variants).
    pub fn method_count(&self) -> usize {
        self.methods.iter().filter(|m| m.expect_verified).count()
    }

    /// A fresh checker for this configuration.
    pub fn checker(&self) -> Checker {
        Checker::new(self.delta.clone())
    }

    /// Runs the checker on every method, returning the reports in method order.
    pub fn check_all(&self) -> Vec<MethodReport> {
        let mut checker = self.checker();
        self.methods
            .iter()
            .map(|m| {
                checker.check_method(&m.sig, &m.body).unwrap_or_else(|e| {
                    panic!("checking {}::{} failed to run: {e}", self.adt, m.sig.name)
                })
            })
            .collect()
    }
}

/// A standard `[I] t [I]` method signature: the representation invariant as both the
/// pre- and postcondition automaton.
pub fn inv_sig(
    name: &str,
    ghosts: &[(Ident, Sort)],
    params: Vec<(Ident, hat_core::RType)>,
    ret: hat_core::RType,
    invariant: &Sfa,
) -> MethodSig {
    MethodSig {
        name: name.to_string(),
        ghosts: ghosts.to_vec(),
        params,
        pre: invariant.clone(),
        ret,
        post: invariant.clone(),
    }
}

/// Every configuration of Table 1, in the paper's order.
pub fn all_benchmarks() -> Vec<Benchmark> {
    let mut v = Vec::new();
    v.extend(stacks::benchmarks());
    v.extend(sets::benchmarks());
    v.extend(filesystem::benchmarks());
    v.extend(graphs::benchmarks());
    v
}

/// Looks a configuration up by ADT and library name (case-insensitive).
pub fn find(adt: &str, library: &str) -> Option<Benchmark> {
    all_benchmarks()
        .into_iter()
        .find(|b| b.adt.eq_ignore_ascii_case(adt) && b.library.eq_ignore_ascii_case(library))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_suite_has_all_nineteen_configurations() {
        let benches = all_benchmarks();
        assert_eq!(benches.len(), 19, "Table 1 lists 19 (ADT, library) rows");
        let adts: std::collections::BTreeSet<&str> =
            benches.iter().map(|b| b.adt.as_str()).collect();
        assert_eq!(adts.len(), 9, "Table 1 covers 9 distinct ADTs");
    }

    #[test]
    fn every_configuration_is_well_formed() {
        for b in all_benchmarks() {
            assert!(
                !b.methods.is_empty(),
                "{}/{} has no methods",
                b.adt,
                b.library
            );
            assert!(
                b.invariant_size() > 0,
                "{}/{} has a trivial invariant",
                b.adt,
                b.library
            );
            assert!(
                !b.delta.alphabet().is_empty(),
                "{}/{} has an empty operator alphabet",
                b.adt,
                b.library
            );
            // Method bodies must be basically well-typed with respect to the library.
            let basic = b.delta.basic_ctx();
            for m in &b.methods {
                let mut ctx = basic.clone();
                for (g, s) in &m.sig.ghosts {
                    ctx.bind(g.clone(), hat_lang::BasicType::Base(s.clone()));
                }
                for (p, t) in &m.sig.params {
                    ctx.bind(p.clone(), t.erase());
                }
                ctx.check_expr(&m.body).unwrap_or_else(|e| {
                    panic!(
                        "{}/{}::{} is not basically typed: {e}",
                        b.adt, b.library, m.sig.name
                    )
                });
            }
        }
    }

    #[test]
    fn lookup_by_name() {
        assert!(find("set", "kvstore").is_some());
        assert!(find("FileSystem", "Tree").is_some());
        assert!(find("nope", "kvstore").is_none());
    }
}
