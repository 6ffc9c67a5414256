//! The bidirectional HAT type checker (paper §5.2, Fig. 8/15).
//!
//! The checker verifies one ADT method at a time against its HAT-enriched signature
//! (ghost variables, refined parameters, and a pre/postcondition automaton pair — usually
//! both equal to the ADT's representation invariant). It closely tracks the effect context
//! as an automaton: every use of an effectful operator refines that automaton with the
//! operator's postcondition (`ChkEOpApp`), branches refine the typing context with path
//! conditions (`ChkMatch`), and at every tail position the accumulated automaton must be
//! included in the method's postcondition automaton (`ChkSub`, via SFA inclusion).

use crate::abduce::ghost_candidates;
use crate::ctx::TypeCtx;
use crate::delta::{Delta, HoareCase};
use crate::rty::{HType, RType, NU};
use crate::subtype::sub_base;
use hat_lang::{Expr, Value};
use hat_logic::{Constant, Formula, Ident, Solver, Sort, Term};
pub use hat_sfa::CheckStats;
use hat_sfa::{InclusionChecker, Sfa, SolverOracle};
use std::fmt;
use std::time::Instant;

/// The HAT-enriched signature of an ADT method, e.g.
/// `p:Path.t ⇢ path:Path.t → bytes:Bytes.t → [I_FS(p)] bool [I_FS(p)]`.
#[derive(Debug, Clone)]
pub struct MethodSig {
    /// Method name (used in reports).
    pub name: String,
    /// Ghost variables scoping over the whole signature.
    pub ghosts: Vec<(Ident, Sort)>,
    /// Parameters with their refinement types.
    pub params: Vec<(Ident, RType)>,
    /// Precondition automaton (normally the representation invariant).
    pub pre: Sfa,
    /// Result refinement type.
    pub ret: RType,
    /// Postcondition automaton (normally the representation invariant again).
    pub post: Sfa,
}

/// The outcome of checking one method.
#[derive(Debug, Clone, PartialEq)]
pub struct MethodReport {
    /// Method name.
    pub name: String,
    /// `true` when every proof obligation was discharged.
    pub verified: bool,
    /// Human-readable descriptions of the failed obligations (empty when verified).
    pub failures: Vec<String>,
    /// Work counters.
    pub stats: CheckStats,
    /// Number of control-flow branches of the method body (`#Branch`).
    pub branches: usize,
    /// Number of operator/function applications of the method body (`#App`).
    pub apps: usize,
}

/// Errors that prevent checking from running at all (ill-formed input rather than a failed
/// proof obligation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckError {
    /// An effectful operator has no signature in `Δ`.
    UnknownEffOp(String),
    /// A pure operator has no signature in `Δ` and is not a built-in.
    UnknownPureOp(String),
    /// The program uses a feature outside the supported MNF fragment.
    Unsupported(String),
    /// The DFA construction blew up.
    AutomatonTooLarge(String),
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckError::UnknownEffOp(op) => write!(f, "unknown effectful operator `{op}`"),
            CheckError::UnknownPureOp(op) => write!(f, "unknown pure operator `{op}`"),
            CheckError::Unsupported(m) => write!(f, "unsupported program form: {m}"),
            CheckError::AutomatonTooLarge(m) => write!(f, "automaton construction failed: {m}"),
        }
    }
}

impl std::error::Error for CheckError {}

/// The HAT type checker for one library specification `Δ`.
///
/// The SMT backend is a [`SolverOracle`] trait object: by default a bare
/// [`hat_logic::Solver`], but callers (notably the `hat-engine` crate) can inject a
/// caching or instrumented oracle via [`Checker::with_oracle`].
pub struct Checker {
    /// The library specification (operator signatures and axioms).
    pub delta: Delta,
    /// The SMT backend.
    pub oracle: Box<dyn SolverOracle>,
    /// The SFA inclusion backend.
    pub inclusion: InclusionChecker,
    fresh: usize,
}

impl fmt::Debug for Checker {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Checker")
            .field("delta", &self.delta)
            .field("inclusion", &self.inclusion)
            .finish_non_exhaustive()
    }
}

impl Checker {
    /// Creates a checker for a library specification, backed by a plain solver.
    pub fn new(delta: Delta) -> Self {
        let solver = Solver::with_axioms(delta.axioms.clone());
        Checker::with_oracle(delta, Box::new(solver))
    }

    /// Creates a checker whose SMT queries go through the given oracle. The oracle must
    /// already know the library's axioms (a bare solver would be built with
    /// `Solver::with_axioms(delta.axioms.clone())`).
    pub fn with_oracle(delta: Delta, oracle: Box<dyn SolverOracle>) -> Self {
        let inclusion = InclusionChecker::new(delta.alphabet());
        Checker {
            delta,
            oracle,
            inclusion,
            fresh: 0,
        }
    }

    /// The running totals behind a method's counters: the inclusion checker's plus the
    /// six the oracle reads out. `check_method` reports the difference across a check.
    fn counter_totals(&self) -> CheckStats {
        let mut totals = self.inclusion.stats;
        totals += CheckStats {
            sat_queries: self.oracle.query_count(),
            sat_time: self.oracle.query_time(),
            theory_checks: self.oracle.theory_checks(),
            cache_hits: self.oracle.cache_hits(),
            cache_misses: self.oracle.cache_misses(),
            shared_tier_locks: self.oracle.shared_tier_locks(),
            ..CheckStats::default()
        };
        totals
    }

    fn fresh_name(&mut self, prefix: &str) -> Ident {
        self.fresh += 1;
        format!("{prefix}%{}", self.fresh)
    }

    /// Verifies a method body against its HAT signature, returning a report with the
    /// outcome and the work counters of Tables 1/3/4.
    pub fn check_method(
        &mut self,
        sig: &MethodSig,
        body: &Expr,
    ) -> Result<MethodReport, CheckError> {
        let start = Instant::now();
        let before = self.counter_totals();

        // ν-shadowing regression (found by `marple fuzz`, reproducer `gen/s1-i17-n0`):
        // a *program* variable named like the reserved refinement binder ν is silently
        // captured by every RType qualifier that mentions ν — e.g. the pure result
        // type of `let v = … in` becomes self-referential — flipping the verdict of a
        // provably correct method. Program binders are freely α-renamable, so move any
        // such variable into the internal `%` namespace before checking.
        let renamed: Option<(MethodSig, Expr)> = if sig.params.iter().any(|(p, _)| p == NU)
            || sig.ghosts.iter().any(|(g, _)| g == NU)
            || body.mentions_var(NU)
        {
            let fresh = self.fresh_name(NU);
            let away = |x: &str| {
                if x == NU {
                    fresh.clone()
                } else {
                    x.to_string()
                }
            };
            Some((
                MethodSig {
                    name: sig.name.clone(),
                    ghosts: sig
                        .ghosts
                        .iter()
                        .map(|(g, s)| (away(g), s.clone()))
                        .collect(),
                    params: sig
                        .params
                        .iter()
                        .map(|(p, t)| (away(p), t.clone()))
                        .collect(),
                    // Event-local occurrences of ν (result binders) are shadowed and
                    // left alone by `Sfa::subst`; only genuinely free ones — which can
                    // only have referred to the renamed program variable — move.
                    pre: sig.pre.subst(NU, &Term::var(fresh.clone())),
                    ret: sig.ret.clone(),
                    post: sig.post.subst(NU, &Term::var(fresh.clone())),
                },
                body.rename_var(NU, &fresh),
            ))
        } else {
            None
        };
        let (sig, body) = match &renamed {
            Some((s, b)) => (s, b),
            None => (sig, body),
        };

        let mut ctx = TypeCtx::new();
        for (g, sort) in &sig.ghosts {
            ctx = ctx.push(g.clone(), RType::base(sort.clone()));
        }
        for (p, t) in &sig.params {
            ctx = ctx.push(p.clone(), t.clone());
        }

        let mut failures = Vec::new();
        let mut assumed = 0usize;
        self.check_expr(
            &ctx,
            body,
            &sig.pre,
            &sig.ret,
            &sig.post,
            &mut failures,
            &mut assumed,
        )?;

        // Publish write-behind memo batches before harvesting counters, so the flush's
        // shared-tier locks are attributed to this method rather than lost in drop.
        self.oracle.flush_memos();
        let mut stats = self.counter_totals() - before;
        stats.fa_time = stats.fa_time.saturating_sub(stats.sat_time);
        stats.total_time = start.elapsed();
        stats.assumed_preconditions = assumed;
        Ok(MethodReport {
            name: sig.name.clone(),
            verified: failures.is_empty(),
            failures,
            stats,
            branches: body.branch_count(),
            apps: body.app_count(),
        })
    }

    /// `Γ ⊢ e ⇐ [pre] ret [post]`.
    #[allow(clippy::too_many_arguments)]
    fn check_expr(
        &mut self,
        ctx: &TypeCtx,
        e: &Expr,
        pre: &Sfa,
        ret: &RType,
        post: &Sfa,
        failures: &mut Vec<String>,
        assumed: &mut usize,
    ) -> Result<(), CheckError> {
        match e {
            Expr::Value(v) => self.check_tail_value(ctx, v, pre, ret, post, failures, assumed),
            Expr::LetPureOp { x, op, args, body } => {
                let arg_terms = self.arg_terms(args)?;
                let result_ty = self.pure_result_type(op, &arg_terms)?;
                let ctx2 = ctx.push(x.clone(), result_ty);
                self.check_expr(&ctx2, body, pre, ret, post, failures, assumed)
            }
            Expr::LetEffOp { x, op, args, body } => {
                let sig = self
                    .delta
                    .eff_ops
                    .get(op)
                    .cloned()
                    .ok_or_else(|| CheckError::UnknownEffOp(op.clone()))?;
                let arg_terms = self.arg_terms(args)?;
                let cases = sig.instantiate(&arg_terms);
                let ghosts = sig.ghosts.clone();
                self.check_cases(
                    ctx, x, op, &ghosts, cases, body, true, pre, ret, post, failures, assumed,
                )
            }
            Expr::LetApp { x, func, arg, body } => {
                let fname = match func {
                    Value::Var(f) => f.clone(),
                    other => {
                        return Err(CheckError::Unsupported(format!(
                            "application of a non-variable function value `{other}`"
                        )))
                    }
                };
                let fty = ctx
                    .lookup(&fname)
                    .cloned()
                    .ok_or_else(|| CheckError::Unsupported(format!("unbound function `{fname}`")))?;
                self.check_app(ctx, x, &fname, &fty, arg, body, pre, ret, post, failures, assumed)
            }
            Expr::Let { x, rhs, body } => match rhs.as_ref() {
                Expr::Value(v) => {
                    let t = self.synth_value(ctx, v)?;
                    let ctx2 = ctx.push(x.clone(), t);
                    self.check_expr(&ctx2, body, pre, ret, post, failures, assumed)
                }
                _ => Err(CheckError::Unsupported(
                    "general `let x = e1 in e2` with an effectful right-hand side; normalise the program first".into(),
                )),
            },
            Expr::Match { scrutinee, arms } => {
                let scrut_term = self.value_term(scrutinee);
                for arm in arms {
                    let mut ctx2 = ctx.clone();
                    match (arm.ctor.as_str(), &scrut_term) {
                        ("true", Some(t)) => {
                            ctx2 = ctx2.assume(Formula::eq(t.clone(), Term::bool(true)));
                        }
                        ("false", Some(t)) => {
                            ctx2 = ctx2.assume(Formula::eq(t.clone(), Term::bool(false)));
                        }
                        _ => {
                            for b in &arm.binders {
                                ctx2 = ctx2.push(b.clone(), RType::base(Sort::named("?")));
                            }
                        }
                    }
                    self.check_expr(&ctx2, &arm.body, pre, ret, post, failures, assumed)?;
                }
                Ok(())
            }
        }
    }

    /// A tail position returning a value: the result type must be a subtype of the target
    /// and the accumulated effect context must be included in the postcondition automaton.
    #[allow(clippy::too_many_arguments)]
    fn check_tail_value(
        &mut self,
        ctx: &TypeCtx,
        v: &Value,
        pre: &Sfa,
        ret: &RType,
        post: &Sfa,
        failures: &mut Vec<String>,
        assumed: &mut usize,
    ) -> Result<(), CheckError> {
        // Returning a function: check the lambda body against the arrow's HAT.
        if let (
            Value::Lambda { param, body, .. },
            (
                RType::Arrow {
                    param: p,
                    param_ty,
                    ret: fun_ret,
                },
                ctx2,
            ),
        ) = (v, self.strip_ghosts(ctx, ret))
        {
            let mut inner = ctx2.push(param.clone(), (*param_ty).clone());
            if &p != param {
                // The signature's parameter name scopes over the result; rename by
                // substituting it with the lambda's actual parameter.
                inner = inner.push(p.clone(), (*param_ty).clone());
            }
            match fun_ret.as_ref() {
                HType::Pure(t) => {
                    return self.check_expr(
                        &inner,
                        body,
                        &Sfa::Zero,
                        t,
                        &Sfa::universe(),
                        failures,
                        assumed,
                    )
                }
                HType::Hoare { pre, ty, post } => {
                    return self.check_expr(&inner, body, pre, ty, post, failures, assumed)
                }
                HType::Inter(cases) => {
                    for c in cases {
                        if let HType::Hoare { pre, ty, post } = c {
                            self.check_expr(&inner, body, pre, ty, post, failures, assumed)?;
                        }
                    }
                    return Ok(());
                }
            }
        }

        if !self.context_consistent(ctx) {
            return Ok(());
        }
        match self.synth_value(ctx, v) {
            Ok(t) => {
                if let RType::Base { .. } = ret {
                    if !sub_base(self.oracle.as_mut(), ctx, &t, ret) {
                        failures.push(format!("return value `{v}` does not satisfy `{ret}`"));
                    }
                }
            }
            Err(e) => failures.push(format!("cannot type return value `{v}`: {e}")),
        }
        let ok = self.sfa_included(ctx, pre, post)?;
        if !ok {
            failures.push(format!(
                "effect context at `return {v}` is not included in the method postcondition"
            ));
        }
        let _ = assumed;
        Ok(())
    }

    /// `ChkEOpApp` / `ChkApp`: instantiate ghosts, check the precondition coverage and
    /// check the continuation under every case of the operator's intersection type.
    #[allow(clippy::too_many_arguments)]
    fn check_cases(
        &mut self,
        ctx: &TypeCtx,
        x: &str,
        op: &str,
        ghosts: &[(Ident, Sort)],
        cases: Vec<HoareCase>,
        body: &Expr,
        single_event: bool,
        pre: &Sfa,
        ret: &RType,
        post: &Sfa,
        failures: &mut Vec<String>,
        assumed: &mut usize,
    ) -> Result<(), CheckError> {
        // Freshen and bind ghost variables.
        let mut ctx2 = ctx.clone();
        let mut cases = cases;
        let mut ghost_names = Vec::new();
        for (g, sort) in ghosts {
            let fresh = self.fresh_name(g);
            cases = cases
                .iter()
                .map(|c| HoareCase {
                    pre: c.pre.subst(g, &Term::var(fresh.clone())),
                    ty: c.ty.subst(g, &Term::var(fresh.clone())),
                    post: c.post.subst(g, &Term::var(fresh.clone())),
                })
                .collect();
            ctx2 = ctx2.push(fresh.clone(), RType::base(sort.clone()));
            ghost_names.push(fresh);
        }

        // Precondition coverage: Γ ⊢ pre ⊆ ⋁ᵢ preᵢ, possibly after abducing ghost facts.
        let union_pre = Sfa::or(cases.iter().map(|c| c.pre.clone()).collect());
        if self.context_consistent(&ctx2) {
            let mut covered = self.sfa_included(&ctx2, pre, &union_pre)?;
            if !covered && !ghost_names.is_empty() {
                let candidates = ghost_candidates(&ghost_names, pre, &union_pre);
                for cand in candidates {
                    let trial = ctx2.assume(cand.clone());
                    if !self.context_consistent(&trial) {
                        continue;
                    }
                    if self.sfa_included(&trial, pre, &union_pre)? {
                        ctx2 = trial;
                        covered = true;
                        break;
                    }
                    // Keep the (satisfiable) ghost fact even if coverage still fails: it is
                    // the best description of the hidden value we can justify.
                    ctx2 = trial;
                }
            }
            if !covered {
                if ghost_names.is_empty() {
                    failures.push(format!(
                        "effect context before `{op}` is not covered by the operator's precondition"
                    ));
                } else {
                    // The hidden value is trace-determined (e.g. `get`'s result); record
                    // that the precondition was assumed rather than proved.
                    *assumed += 1;
                }
            }
        }

        // Check the continuation under every case. For a single-event library operator
        // the extension of the effect context is exactly one event (the operator's own),
        // so the paper's `(A; □⟨⊤⟩) ∧ A'ᵢ` refines to `(A; ⟨⊤⟩ ∧ LAST) ∧ A'ᵢ`; calls to
        // full methods (which may perform arbitrarily many effects) keep the general form.
        let extension = if single_event {
            Sfa::and(vec![Sfa::any_event(), Sfa::last()])
        } else {
            Sfa::universe()
        };
        for case in &cases {
            let new_pre = Sfa::and(vec![
                Sfa::concat(pre.clone(), extension.clone()),
                case.post.clone(),
            ]);
            let ctx3 = ctx2.push(x.to_string(), case.ty.clone());
            self.check_expr(&ctx3, body, &new_pre, ret, post, failures, assumed)?;
        }
        Ok(())
    }

    /// Function application (`ChkApp`), including calls to thunks and helper methods bound
    /// in the typing context.
    #[allow(clippy::too_many_arguments)]
    fn check_app(
        &mut self,
        ctx: &TypeCtx,
        x: &str,
        fname: &str,
        fty: &RType,
        arg: &Value,
        body: &Expr,
        pre: &Sfa,
        ret: &RType,
        post: &Sfa,
        failures: &mut Vec<String>,
        assumed: &mut usize,
    ) -> Result<(), CheckError> {
        let (arrow, ctx_with_ghosts) = self.strip_ghosts(ctx, fty);
        let RType::Arrow {
            param,
            param_ty,
            ret: fret,
        } = arrow
        else {
            return Err(CheckError::Unsupported(format!(
                "application of `{fname}` which does not have an arrow type"
            )));
        };
        // Check the argument against the parameter type.
        if let RType::Base { .. } = *param_ty {
            if self.context_consistent(ctx) {
                match self.synth_value(ctx, arg) {
                    Ok(at) => {
                        if !sub_base(self.oracle.as_mut(), ctx, &at, &param_ty) {
                            failures.push(format!(
                                "argument `{arg}` of `{fname}` does not satisfy `{param_ty}`"
                            ));
                        }
                    }
                    Err(e) => failures.push(format!("cannot type argument `{arg}`: {e}")),
                }
            }
        }
        // Substitute the argument for the parameter in the result type (first-order only).
        let fret = match self.value_term(arg) {
            Some(t) => fret.subst(&param, &t),
            None => (*fret).clone(),
        };
        match fret {
            HType::Pure(t) => {
                let ctx2 = ctx_with_ghosts.push(x.to_string(), t);
                self.check_expr(&ctx2, body, pre, ret, post, failures, assumed)
            }
            other => {
                let cases: Vec<HoareCase> = other
                    .cases()
                    .into_iter()
                    .map(|(p, t, q)| HoareCase {
                        pre: p,
                        ty: t,
                        post: q,
                    })
                    .collect();
                self.check_cases(
                    &ctx_with_ghosts,
                    x,
                    fname,
                    &[],
                    cases,
                    body,
                    false,
                    pre,
                    ret,
                    post,
                    failures,
                    assumed,
                )
            }
        }
    }

    /// Peels ghost binders off a type, binding them (unconstrained) in the returned context.
    fn strip_ghosts(&mut self, ctx: &TypeCtx, t: &RType) -> (RType, TypeCtx) {
        let mut ctx = ctx.clone();
        let mut t = t.clone();
        while let RType::Ghost { var, sort, body } = t {
            ctx = ctx.push(var.clone(), RType::base(sort.clone()));
            t = *body;
        }
        (t, ctx)
    }

    /// The first-order term denoted by a value, if any.
    fn value_term(&self, v: &Value) -> Option<Term> {
        match v {
            Value::Const(c) => Some(Term::Const(c.clone())),
            Value::Var(x) => Some(Term::var(x.clone())),
            Value::Ctor(d, args) if args.is_empty() && d == "true" => {
                Some(Term::Const(Constant::Bool(true)))
            }
            Value::Ctor(d, args) if args.is_empty() && d == "false" => {
                Some(Term::Const(Constant::Bool(false)))
            }
            _ => None,
        }
    }

    fn arg_terms(&self, args: &[Value]) -> Result<Vec<Term>, CheckError> {
        args.iter()
            .map(|a| {
                self.value_term(a).ok_or_else(|| {
                    CheckError::Unsupported(format!("higher-order operator argument `{a}`"))
                })
            })
            .collect()
    }

    /// Synthesis mode for values (`Γ ⊢ v ⇒ t`).
    fn synth_value(&mut self, ctx: &TypeCtx, v: &Value) -> Result<RType, CheckError> {
        match v {
            Value::Const(c) => Ok(RType::singleton(c.sort(), Term::Const(c.clone()))),
            Value::Var(x) => match ctx.lookup(x) {
                Some(RType::Base { sort, .. }) => {
                    Ok(RType::singleton(sort.clone(), Term::var(x.clone())))
                }
                Some(other) => Ok(other.clone()),
                None => Err(CheckError::Unsupported(format!("unbound variable `{x}`"))),
            },
            Value::Ctor(d, args) if args.is_empty() && (d == "true" || d == "false") => {
                Ok(RType::bool_singleton(d == "true"))
            }
            other => Err(CheckError::Unsupported(format!(
                "cannot synthesise a type for value `{other}`"
            ))),
        }
    }

    /// Result refinement type of a pure operator application.
    fn pure_result_type(&mut self, op: &str, args: &[Term]) -> Result<RType, CheckError> {
        let nu = Term::var(NU);
        let bool_iff = |phi: Formula| {
            RType::refined(
                Sort::Bool,
                Formula::iff(Formula::bool_term(nu.clone()), phi),
            )
        };
        let binary =
            |f: fn(Term, Term) -> Formula, args: &[Term]| f(args[0].clone(), args[1].clone());
        match (op, args.len()) {
            ("+", 2) => Ok(RType::refined(
                Sort::Int,
                Formula::eq(nu.clone(), Term::add(args[0].clone(), args[1].clone())),
            )),
            ("-", 2) => Ok(RType::refined(
                Sort::Int,
                Formula::eq(nu.clone(), Term::sub(args[0].clone(), args[1].clone())),
            )),
            ("*", 2) | ("mod", 2) => Ok(RType::base(Sort::Int)),
            ("<", 2) => Ok(bool_iff(binary(Formula::lt, args))),
            ("<=", 2) => Ok(bool_iff(binary(Formula::le, args))),
            (">", 2) => Ok(bool_iff(Formula::lt(args[1].clone(), args[0].clone()))),
            (">=", 2) => Ok(bool_iff(Formula::le(args[1].clone(), args[0].clone()))),
            ("==", 2) => Ok(bool_iff(binary(Formula::eq, args))),
            ("!=", 2) => Ok(bool_iff(Formula::not(binary(Formula::eq, args)))),
            ("not", 1) => Ok(bool_iff(Formula::not(Formula::bool_term(args[0].clone())))),
            ("&&", 2) => Ok(bool_iff(Formula::and(vec![
                Formula::bool_term(args[0].clone()),
                Formula::bool_term(args[1].clone()),
            ]))),
            ("||", 2) => Ok(bool_iff(Formula::or(vec![
                Formula::bool_term(args[0].clone()),
                Formula::bool_term(args[1].clone()),
            ]))),
            _ => match self.delta.pure_ops.get(op) {
                Some(sig) => Ok(sig.instantiate(args)),
                None => Err(CheckError::UnknownPureOp(op.to_string())),
            },
        }
    }

    /// Is the typing context logically consistent? Inconsistent contexts make every
    /// obligation hold vacuously (dead branches).
    fn context_consistent(&mut self, ctx: &TypeCtx) -> bool {
        let l = ctx.logical();
        self.oracle.is_sat(&l.vars, &l.facts)
    }

    /// `Γ ⊢ A ⊆ B` with vacuous success for inconsistent contexts.
    fn sfa_included(&mut self, ctx: &TypeCtx, a: &Sfa, b: &Sfa) -> Result<bool, CheckError> {
        if !self.context_consistent(ctx) {
            return Ok(true);
        }
        let l = ctx.logical();
        self.inclusion
            .check(&l, a, b, self.oracle.as_mut())
            .map_err(|e| CheckError::AutomatonTooLarge(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::{events::*, EffOpSig, PureOpSig};
    use hat_lang::builder::*;

    /// A minimal stateful Set library: `insert` and `mem`, with `mem` given an
    /// intersection type distinguishing whether the element was previously inserted.
    fn set_delta() -> Delta {
        let mut d = Delta::new();
        let int = RType::base(Sort::Int);
        // insert : x:int → [□⟨⊤⟩] unit [□⟨⊤⟩; ⟨insert x⟩ ∧ LAST]
        let ins_event = ev(
            "insert",
            &["y"],
            Formula::eq(Term::var("y"), Term::var("x")),
        );
        d.declare_eff(
            "insert",
            EffOpSig {
                ghosts: vec![],
                params: vec![("x".into(), int.clone())],
                cases: vec![HoareCase {
                    pre: Sfa::universe(),
                    ty: RType::base(Sort::Unit),
                    post: appends(&Sfa::universe(), ins_event),
                }],
            },
        );
        // mem : x:int → ([♦⟨insert x⟩] {ν=true} [..]) ⊓ ([¬♦⟨insert x⟩] {ν=false} [..])
        let present = Sfa::eventually(ev(
            "insert",
            &["y"],
            Formula::eq(Term::var("y"), Term::var("x")),
        ));
        let absent = Sfa::not(present.clone());
        let mem_ev = |r: bool| {
            ev(
                "mem",
                &["y"],
                Formula::and(vec![
                    Formula::eq(Term::var("y"), Term::var("x")),
                    Formula::eq(Term::var(NU), Term::bool(r)),
                ]),
            )
        };
        d.declare_eff(
            "mem",
            EffOpSig {
                ghosts: vec![],
                params: vec![("x".into(), int)],
                cases: vec![
                    HoareCase {
                        pre: present.clone(),
                        ty: RType::bool_singleton(true),
                        post: appends(&present, mem_ev(true)),
                    },
                    HoareCase {
                        pre: absent.clone(),
                        ty: RType::bool_singleton(false),
                        post: appends(&absent, mem_ev(false)),
                    },
                ],
            },
        );
        d
    }

    /// I_Set(el): el is never inserted twice.
    fn uniqueness_invariant() -> Sfa {
        let ins_el = || {
            ev(
                "insert",
                &["y"],
                Formula::eq(Term::var("y"), Term::var("el")),
            )
        };
        Sfa::globally(Sfa::implies(
            ins_el(),
            Sfa::next(Sfa::not(Sfa::eventually(ins_el()))),
        ))
    }

    fn set_insert_sig() -> MethodSig {
        MethodSig {
            name: "insert".into(),
            ghosts: vec![("el".into(), Sort::Int)],
            params: vec![("elem".into(), RType::base(Sort::Int))],
            pre: uniqueness_invariant(),
            ret: RType::base(Sort::Unit),
            post: uniqueness_invariant(),
        }
    }

    /// The guarded insert: only insert when `mem` says the element is absent.
    fn guarded_insert() -> Expr {
        let_eff(
            "b",
            "mem",
            vec![Value::var("elem")],
            ite(
                Value::var("b"),
                ret(Value::unit()),
                let_eff("u", "insert", vec![Value::var("elem")], ret(Value::unit())),
            ),
        )
    }

    /// The buggy insert: always insert, which may duplicate `el`.
    fn unguarded_insert() -> Expr {
        let_eff("u", "insert", vec![Value::var("elem")], ret(Value::unit()))
    }

    #[test]
    fn guarded_insert_preserves_the_invariant() {
        let mut checker = Checker::new(set_delta());
        let report = checker
            .check_method(&set_insert_sig(), &guarded_insert())
            .unwrap();
        assert!(report.verified, "failures: {:?}", report.failures);
        assert_eq!(report.branches, 2);
        assert_eq!(report.apps, 2);
        assert!(report.stats.sat_queries > 0);
        assert!(report.stats.fa_inclusions > 0);
        assert!(report.stats.avg_fa_size() > 0.0);
        assert_eq!(report.stats.assumed_preconditions, 0);
    }

    #[test]
    fn a_program_variable_named_nu_is_renamed_not_captured() {
        // Regression: found by `marple fuzz` (reproducer `gen/s1-i17-n0`). A method
        // parameter (or let binder) named like the reserved refinement binder ν used
        // to be captured by RType qualifiers — the pure guard's result type became
        // self-referential and a provably correct method was rejected. The checker
        // now α-renames such program variables up front.
        let mut checker = Checker::new(set_delta());
        let sig = MethodSig {
            name: "insert_pair".into(),
            ghosts: vec![("el".into(), Sort::Int)],
            params: vec![
                ("q".into(), RType::base(Sort::Int)),
                (NU.into(), RType::base(Sort::Int)), // the reserved name, as a param
            ],
            pre: uniqueness_invariant(),
            ret: RType::base(Sort::Unit),
            post: uniqueness_invariant(),
        };
        // let b = mem v in if b then () else insert v — the guarded-insert template,
        // writing the ν-named parameter.
        let body = let_eff(
            "b",
            "mem",
            vec![Value::var(NU)],
            ite(
                Value::var("b"),
                ret(Value::unit()),
                let_eff("u", "insert", vec![Value::var(NU)], ret(Value::unit())),
            ),
        );
        let report = checker.check_method(&sig, &body).unwrap();
        assert!(report.verified, "failures: {:?}", report.failures);

        // And a let binder named ν in an otherwise pure method.
        let sig2 = MethodSig {
            name: "probe".into(),
            ghosts: vec![("el".into(), Sort::Int)],
            params: vec![("q".into(), RType::base(Sort::Int))],
            pre: uniqueness_invariant(),
            ret: RType::base(Sort::Bool),
            post: uniqueness_invariant(),
        };
        let body2 = let_eff(NU, "mem", vec![Value::var("q")], ret(Value::var(NU)));
        let report2 = checker.check_method(&sig2, &body2).unwrap();
        assert!(report2.verified, "failures: {:?}", report2.failures);
    }

    #[test]
    fn unguarded_insert_is_rejected() {
        let mut checker = Checker::new(set_delta());
        let report = checker
            .check_method(&set_insert_sig(), &unguarded_insert())
            .unwrap();
        assert!(!report.verified);
        assert!(!report.failures.is_empty());
    }

    #[test]
    fn pure_reasoning_flows_through_branches() {
        // Insert only when the new element provably differs from the ghost `el`:
        // inserting a different element can never duplicate `el`, so the invariant is
        // preserved even without consulting `mem`.
        let mut checker = Checker::new(set_delta());
        let sig = set_insert_sig();
        let body = let_pure(
            "same",
            "==",
            vec![Value::var("elem"), Value::var("el")],
            ite(
                Value::var("same"),
                ret(Value::unit()),
                let_eff("u", "insert", vec![Value::var("elem")], ret(Value::unit())),
            ),
        );
        let report = checker.check_method(&sig, &body).unwrap();
        assert!(report.verified, "failures: {:?}", report.failures);
    }

    #[test]
    fn unknown_operator_is_an_error() {
        let mut checker = Checker::new(set_delta());
        let sig = set_insert_sig();
        let body = let_eff("u", "frobnicate", vec![], ret(Value::unit()));
        assert!(matches!(
            checker.check_method(&sig, &body),
            Err(CheckError::UnknownEffOp(_))
        ));
    }

    #[test]
    fn return_value_refinements_are_checked() {
        let mut d = set_delta();
        d.declare_pure(
            "choose",
            PureOpSig {
                params: vec![("x".into(), RType::base(Sort::Int))],
                ret: RType::base(Sort::Int),
            },
        );
        let mut checker = Checker::new(d);
        // Signature demands the result be positive, body returns 0: must fail.
        let sig = MethodSig {
            name: "positive".into(),
            ghosts: vec![],
            params: vec![],
            pre: Sfa::universe(),
            ret: RType::refined(Sort::Int, Formula::lt(Term::int(0), Term::var(NU))),
            post: Sfa::universe(),
        };
        let report = checker.check_method(&sig, &ret(Value::int(0))).unwrap();
        assert!(!report.verified);
        let report_ok = checker.check_method(&sig, &ret(Value::int(3))).unwrap();
        assert!(report_ok.verified);
    }
}
