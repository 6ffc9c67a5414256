//! Per-layer tracing from outside the program: a [`SolverOracle`] wrapper around the
//! engine's [`CachingOracle`] that timestamps every trait call, and a replica of one
//! scheduler worker that builds its checkers exactly as `engine/src/schedule.rs`
//! does (axiom key prefix, worker-local tier, the engine's default knobs).
//!
//! The trait pairs every memo store with a preceding lookup miss for the same query,
//! so the work of one layer is the interval from a miss to its store:
//!
//! | memo kind   | span        | layer                               |
//! |-------------|-------------|-------------------------------------|
//! | Inclusion   | `inclusion` | `hat-sfa` inclusion (pool, pruning, grouping) |
//! | Minterms    | `enumerate` | `hat-sfa` minterm enumeration       |
//! | Shape       | `walk`      | `hat-sfa` on-the-fly product walk   |
//! | Transition  | `derive`    | `hat-sfa` derivatives               |
//! | Subsumption | `subsume`   | `hat-sfa` antichain subsumption     |
//!
//! Solver calls (`is_sat`/`entails`), memo lookups, memo stores and the end-of-method
//! flush are leaf spans inside whichever span is open. A store the checker skips (a
//! Shape walk after an SMT fallback, a pessimistic subsumption verdict) leaves its
//! span open; the next call that cannot nest inside it closes it, and it is counted
//! as unclosed rather than dropped.

use hat_core::{CheckError, Checker, MethodReport};
use hat_engine::{CachingOracle, EngineConfig, LocalTier, MemoStore};
use hat_logic::{Atom, Formula, Ident, ScopedSession, Sort};
use hat_sfa::{MemoAnswer, MemoKind, MemoQuery, SolverOracle};
use hat_suite::Benchmark;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The memo kinds, in the order metrics are reported.
pub const MEMO_KINDS: [MemoKind; 5] = [
    MemoKind::Inclusion,
    MemoKind::Shape,
    MemoKind::Minterms,
    MemoKind::Transition,
    MemoKind::Subsumption,
];

/// Metric name of a memo kind (`memo.<name>.…`).
pub fn memo_name(kind: MemoKind) -> &'static str {
    match kind {
        MemoKind::Inclusion => "inclusion",
        MemoKind::Shape => "shape",
        MemoKind::Minterms => "minterms",
        MemoKind::Transition => "transition",
        MemoKind::Subsumption => "subsumption",
    }
}

/// Span name of the work a memo kind's miss-to-store interval covers (`sfa.<name>…`).
pub fn work_name(kind: MemoKind) -> &'static str {
    match kind {
        MemoKind::Inclusion => "inclusion",
        MemoKind::Shape => "walk",
        MemoKind::Minterms => "enumerate",
        MemoKind::Transition => "derive",
        MemoKind::Subsumption => "subsume",
    }
}

fn slot(kind: MemoKind) -> usize {
    MEMO_KINDS
        .iter()
        .position(|&k| k == kind)
        .expect("every memo kind is listed")
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    /// One `Checker::check_method` call: the root of a method job.
    Method,
    /// From a memo lookup miss to the paired store.
    Work(MemoKind),
    Solve {
        hit: bool,
    },
    Lookup {
        kind: MemoKind,
        hit: bool,
    },
    Store(MemoKind),
    Flush,
}

impl Kind {
    fn memo(self) -> Option<MemoKind> {
        match self {
            Kind::Work(k) | Kind::Lookup { kind: k, .. } | Kind::Store(k) => Some(k),
            _ => None,
        }
    }
}

/// Whether a span of kind `parent` can contain a call of kind `child`. This is the
/// call structure of `hat-sfa`: enumeration and derivatives only reach the solver, a
/// product walk derives and probes subsumption, and the subsumption fixpoint runs on
/// rows already derived, so nothing nests inside it.
fn admits(parent: Kind, child: Kind) -> bool {
    use MemoKind::*;
    if matches!(child, Kind::Method | Kind::Flush) {
        return parent == Kind::Method;
    }
    let memo = child.memo();
    match parent {
        Kind::Method => true,
        Kind::Work(Inclusion) => memo != Some(Inclusion),
        Kind::Work(Shape) => matches!(memo, None | Some(Transition) | Some(Subsumption)),
        Kind::Work(Minterms) | Kind::Work(Transition) => memo.is_none(),
        _ => false,
    }
}

const ROOT: u32 = u32::MAX;

struct Span {
    kind: Kind,
    start: Instant,
    end: Instant,
    parent: u32,
    job: u32,
    unclosed: bool,
}

/// The spans of one traced pass, kept in memory until the pass ends.
#[derive(Default)]
pub struct TraceLog {
    spans: Vec<Span>,
    stack: Vec<u32>,
    job: u32,
    unpaired_stores: [usize; 5],
}

impl TraceLog {
    fn top(&self) -> u32 {
        self.stack.last().copied().unwrap_or(ROOT)
    }

    fn push(&mut self, kind: Kind, start: Instant, end: Instant) -> u32 {
        let index = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        self.spans.push(Span {
            kind,
            start,
            end,
            parent: self.top(),
            job: self.job,
            unclosed: false,
        });
        index
    }

    fn pop_unclosed(&mut self, at: Instant) {
        if let Some(top) = self.stack.pop() {
            let span = &mut self.spans[top as usize];
            span.end = at;
            span.unclosed = true;
        }
    }

    /// Closes the open spans that cannot contain `child`: their store was skipped.
    fn admit(&mut self, child: Kind, at: Instant) {
        while let Some(&top) = self.stack.last() {
            if admits(self.spans[top as usize].kind, child) {
                break;
            }
            self.pop_unclosed(at);
        }
    }

    fn leaf(&mut self, kind: Kind, start: Instant, end: Instant) {
        self.admit(kind, start);
        self.push(kind, start, end);
    }

    fn open(&mut self, kind: Kind, at: Instant) {
        self.admit(kind, at);
        let index = self.push(kind, at, at);
        self.stack.push(index);
    }

    /// Closes the innermost open span of `kind` at `at`, first closing any span above
    /// it as unclosed.
    fn close(&mut self, kind: Kind, at: Instant) {
        let Some(pos) = self
            .stack
            .iter()
            .rposition(|&i| self.spans[i as usize].kind == kind)
        else {
            if let Kind::Work(memo) = kind {
                self.unpaired_stores[slot(memo)] += 1;
            }
            return;
        };
        while self.stack.len() > pos + 1 {
            self.pop_unclosed(at);
        }
        let index = self.stack.pop().expect("position is on the stack");
        self.spans[index as usize].end = at;
    }

    fn begin_method(&mut self, at: Instant) {
        self.job += 1;
        self.stack.clear();
        self.open(Kind::Method, at);
    }

    fn end_method(&mut self, at: Instant) {
        while self.stack.len() > 1 {
            self.pop_unclosed(at);
        }
        self.close(Kind::Method, at);
    }

    /// Folds the spans into per-layer totals.
    pub fn profile(&self) -> Profile {
        let mut p = Profile {
            unpaired_stores: self.unpaired_stores,
            ..Profile::default()
        };
        let dur = |s: &Span| s.end.saturating_duration_since(s.start).as_nanos() as i128;
        let mut child_ns = vec![0i128; self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                child_ns[s.parent as usize] += dur(s);
            }
        }
        // Per job: the sum of every span's self time plus the residual, to check it
        // against the method's duration.
        let mut job_sum: BTreeMap<u32, i128> = BTreeMap::new();
        let mut job_dur: BTreeMap<u32, i128> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(&child_ns) {
            let d = dur(s);
            let own = d - children;
            if own < 0 || (s.end < s.start) {
                p.invalid_spans += 1;
            }
            *job_sum.entry(s.job).or_default() += own;
            match s.kind {
                Kind::Method => {
                    p.methods += 1;
                    p.method_ns += d;
                    p.critical_ns = p.critical_ns.max(d);
                    p.residual_ns += own;
                    job_dur.insert(s.job, d);
                }
                Kind::Work(k) => {
                    let i = slot(k);
                    p.work_calls[i] += 1;
                    p.work_self_ns[i] += own;
                    p.work_unclosed[i] += usize::from(s.unclosed);
                }
                Kind::Solve { hit } => {
                    p.solve_calls += 1;
                    p.solve_hits += usize::from(hit);
                    if hit {
                        p.solve_hit_ns += d;
                    } else {
                        p.solve_miss_ns += d;
                    }
                }
                Kind::Lookup { kind, hit } => {
                    let i = slot(kind);
                    p.lookups[i] += 1;
                    p.hits[i] += usize::from(hit);
                    p.lookup_ns[i] += d;
                }
                Kind::Store(_) => p.store_ns += d,
                Kind::Flush => p.flush_ns += d,
            }
        }
        for (job, d) in job_dur {
            if job_sum.get(&job).copied().unwrap_or_default() != d {
                p.invalid_spans += 1;
            }
        }
        p
    }
}

/// Per-layer totals of one traced pass. Times are in nanoseconds.
#[derive(Debug, Default, Clone)]
pub struct Profile {
    pub methods: usize,
    pub method_ns: i128,
    pub critical_ns: i128,
    pub residual_ns: i128,
    pub work_calls: [usize; 5],
    pub work_self_ns: [i128; 5],
    pub work_unclosed: [usize; 5],
    pub solve_calls: usize,
    pub solve_hits: usize,
    pub solve_hit_ns: i128,
    pub solve_miss_ns: i128,
    pub lookups: [usize; 5],
    pub hits: [usize; 5],
    pub lookup_ns: [i128; 5],
    pub store_ns: i128,
    pub flush_ns: i128,
    /// Stores with no open miss of their kind: the subsumption fixpoint re-runs and
    /// stores a pair whose memo missed earlier without asking the memo again.
    pub unpaired_stores: [usize; 5],
    /// Spans whose children overrun them, or jobs whose self times and residual do
    /// not add up to the method's duration. Always 0 for a well-formed trace.
    pub invalid_spans: usize,
}

impl Profile {
    pub fn work_self_ms(&self, kind: MemoKind) -> f64 {
        ms(self.work_self_ns[slot(kind)])
    }

    pub fn work_calls(&self, kind: MemoKind) -> usize {
        self.work_calls[slot(kind)]
    }

    pub fn work_unclosed(&self, kind: MemoKind) -> usize {
        self.work_unclosed[slot(kind)]
    }

    /// Memo and solver-cache lookups answered without recomputation.
    pub fn total_hits(&self) -> usize {
        self.hits.iter().sum::<usize>() + self.solve_hits
    }
}

pub fn ms(ns: i128) -> f64 {
    ns as f64 / 1e6
}

/// Times every trait call of the wrapped oracle into a shared [`TraceLog`].
struct TracingOracle {
    inner: CachingOracle,
    log: Rc<RefCell<TraceLog>>,
}

impl TracingOracle {
    fn solve(&mut self, call: impl FnOnce(&mut CachingOracle) -> bool) -> bool {
        let misses = self.inner.cache_misses();
        let start = Instant::now();
        let verdict = call(&mut self.inner);
        let end = Instant::now();
        let hit = self.inner.cache_misses() == misses;
        self.log.borrow_mut().leaf(Kind::Solve { hit }, start, end);
        verdict
    }
}

impl SolverOracle for TracingOracle {
    fn is_sat(&mut self, vars: &[(Ident, Sort)], facts: &[Formula]) -> bool {
        self.solve(|o| o.is_sat(vars, facts))
    }

    fn entails(&mut self, vars: &[(Ident, Sort)], facts: &[Formula], goal: &Formula) -> bool {
        self.solve(|o| o.entails(vars, facts, goal))
    }

    fn query_count(&self) -> usize {
        self.inner.query_count()
    }

    fn query_time(&self) -> Duration {
        self.inner.query_time()
    }

    fn cache_hits(&self) -> usize {
        self.inner.cache_hits()
    }

    fn cache_misses(&self) -> usize {
        self.inner.cache_misses()
    }

    fn shared_tier_locks(&self) -> usize {
        self.inner.shared_tier_locks()
    }

    fn scoped_session<'a>(
        &'a mut self,
        vars: &[(Ident, Sort)],
        base: &[Formula],
        literals: &[Atom],
    ) -> Option<ScopedSession<'a>> {
        self.inner.scoped_session(vars, base, literals)
    }

    fn memoises(&self, kind: MemoKind) -> bool {
        self.inner.memoises(kind)
    }

    fn memo_lookup(&mut self, query: &MemoQuery) -> Option<MemoAnswer<'static>> {
        let kind = query.kind();
        let start = Instant::now();
        let found = self.inner.memo_lookup(query);
        let end = Instant::now();
        let mut log = self.log.borrow_mut();
        let hit = found.is_some();
        log.leaf(Kind::Lookup { kind, hit }, start, end);
        if !hit {
            log.open(Kind::Work(kind), end);
        }
        found
    }

    fn memo_store(&mut self, query: &MemoQuery, answer: &MemoAnswer) {
        let kind = query.kind();
        let start = Instant::now();
        self.log.borrow_mut().close(Kind::Work(kind), start);
        self.inner.memo_store(query, answer);
        let end = Instant::now();
        self.log.borrow_mut().leaf(Kind::Store(kind), start, end);
    }

    fn flush_memos(&mut self) {
        let start = Instant::now();
        self.inner.flush_memos();
        let end = Instant::now();
        self.log.borrow_mut().leaf(Kind::Flush, start, end);
    }
}

/// One configuration to verify, with the verdict each method is known to have.
pub struct Job {
    pub bench: Benchmark,
    pub expect: Vec<bool>,
    pub key_prefix: String,
}

impl Job {
    pub fn new(bench: Benchmark, expect: Vec<bool>) -> Self {
        let key_prefix = CachingOracle::key_prefix_for(&bench.delta.axioms);
        Job {
            bench,
            expect,
            key_prefix,
        }
    }

    /// A suite configuration, checked against `Method::expect_verified`.
    pub fn suite(bench: Benchmark) -> Self {
        let expect = bench.methods.iter().map(|m| m.expect_verified).collect();
        Job::new(bench, expect)
    }
}

/// The outcome of running jobs on a [`Worker`].
#[derive(Default)]
pub struct Outcome {
    pub reports: Vec<MethodReport>,
    /// Method checks attempted.
    pub attempted: usize,
    /// Wrong verdicts plus checks that failed to run.
    pub failed: usize,
}

impl Outcome {
    fn absorb(&mut self, expect: bool, result: Result<MethodReport, CheckError>) {
        self.attempted += 1;
        match result {
            Ok(report) => {
                self.failed += usize::from(report.verified != expect);
                self.reports.push(report);
            }
            Err(_) => self.failed += 1,
        }
    }

    pub fn merge(&mut self, other: Outcome) {
        self.reports.extend(other.reports);
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    pub fn sum(&self, field: impl Fn(&MethodReport) -> usize) -> usize {
        self.reports.iter().map(field).sum()
    }
}

/// A replica of one engine worker (`JobPool::run_job` in `engine/src/schedule.rs`):
/// one oracle and checker per method job, the worker's local tier shared across
/// jobs, the shared store behind it. With a log attached every oracle is traced.
pub struct Worker {
    store: Arc<MemoStore>,
    local: Option<Rc<LocalTier>>,
    config: EngineConfig,
    log: Option<Rc<RefCell<TraceLog>>>,
}

impl Worker {
    pub fn new(store: Arc<MemoStore>, log: Option<Rc<RefCell<TraceLog>>>) -> Self {
        let config = EngineConfig::default();
        Worker {
            store,
            local: config.local_tiers.then(|| Rc::new(LocalTier::default())),
            config,
            log,
        }
    }

    pub fn run(&self, job: &Job) -> Outcome {
        let mut outcome = Outcome::default();
        for (method, &expect) in job.bench.methods.iter().zip(&job.expect) {
            let mut oracle = CachingOracle::with_key_prefix(
                job.bench.delta.axioms.clone(),
                Arc::clone(&self.store),
                job.key_prefix.clone(),
            );
            if let Some(local) = &self.local {
                oracle = oracle.with_local_tier(Rc::clone(local));
            }
            let oracle: Box<dyn SolverOracle> = match &self.log {
                Some(log) => Box::new(TracingOracle {
                    inner: oracle,
                    log: Rc::clone(log),
                }),
                None => Box::new(oracle),
            };
            let mut checker = Checker::with_oracle(job.bench.delta.clone(), oracle);
            checker.inclusion.enumeration = self.config.enumeration;
            checker.inclusion.prune = self.config.prune;
            checker.inclusion.mode = self.config.inclusion;
            checker.inclusion.subsume = self.config.subsume;
            if let Some(log) = &self.log {
                log.borrow_mut().begin_method(Instant::now());
            }
            let result = checker.check_method(&method.sig, &method.body);
            if let Some(log) = &self.log {
                log.borrow_mut().end_method(Instant::now());
            }
            outcome.absorb(expect, result);
        }
        outcome
    }
}

/// The work counters that must repeat exactly across two `--jobs 1` traced passes.
pub fn work_counters(profile: &Profile, outcome: &Outcome) -> BTreeMap<String, u64> {
    let mut counters = BTreeMap::new();
    let mut put = |name: String, value: usize| {
        counters.insert(name, value as u64);
    };
    put(
        "sfa.enum_checks".into(),
        outcome.sum(|r| r.stats.enum_queries),
    );
    put(
        "sfa.product_states".into(),
        outcome.sum(|r| r.stats.product_states),
    );
    put("oracle.solve_calls".into(), profile.solve_calls);
    for kind in MEMO_KINDS {
        let i = slot(kind);
        put(format!("memo.{}.hits", memo_name(kind)), profile.hits[i]);
        put(
            format!("memo.{}.misses", memo_name(kind)),
            profile.lookups[i] - profile.hits[i],
        );
    }
    counters
}
