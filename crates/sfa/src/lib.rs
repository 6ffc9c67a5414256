//! # hat-sfa
//!
//! Symbolic finite automata (SFA) for the HAT verifier.
//!
//! SFAs are written as formulas of symbolic linear temporal logic on finite traces
//! (LTLf, De Giacomo & Vardi 2013) whose atoms are *symbolic events*
//! `⟨op x̄ = ν | φ⟩` describing a call to an effectful library operator together with a
//! qualifier over its arguments and result. This crate provides:
//!
//! * concrete [`Event`]s and [`Trace`]s produced by the `hat-lang` interpreter,
//! * the [`Sfa`] formula AST with the paper's derived operators (`♦`, `□`, `LAST`, ...),
//! * the denotational acceptance judgement `α, i ⊨ A` ([`accept`]),
//! * minterm construction over the symbolic alphabet ([`minterm`]),
//! * derivative-based DFA construction over a minterm alphabet ([`dfa`]), both
//!   materialised ([`Dfa::build`]) and as an on-the-fly product walk
//!   ([`dfa::product_included`]), deriving in a hash-consed arena of residual states
//!   ([`residual`]),
//! * the language-inclusion check used by HAT subtyping ([`inclusion`]), which mirrors
//!   Algorithm 1 of the paper (including its use of SMT queries to keep only satisfiable
//!   minterms), deciding each per-group problem on the fly by default
//!   ([`InclusionMode`]) by a plain breadth-first walk of the product,
//! * the work-counter schema ([`stats`]): the [`counters!`] declaration macro and
//!   [`CheckStats`], the per-method counters every consumer iterates.

pub mod accept;
pub mod ast;
pub mod dfa;
pub mod event;
pub mod inclusion;
pub mod minterm;
pub mod residual;
pub mod stats;

pub use accept::{accepts, TraceModel};
pub use ast::{OpSig, Sfa, SymbolicEvent};
pub use dfa::{product_included, Dfa, DfaBuildError, ProductRun};
pub use event::{Event, Trace};
pub use inclusion::{
    InclusionChecker, InclusionMode, MemoAnswer, MemoKind, MemoQuery, SolverOracle,
    SubsumptionMode, VarCtx,
};
pub use minterm::{EnumerationMode, LiteralPool, Minterm, MintermSet};
pub use stats::{CheckStats, Counter, CounterField, CounterMut};
