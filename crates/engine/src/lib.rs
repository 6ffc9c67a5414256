//! # hat-engine
//!
//! The parallel verification engine of the HAT checker: a worker pool over
//! (benchmark, method) verification jobs, sharing one solver-query cache that is optionally
//! persisted to disk so repeated runs start warm. This is the subsystem behind
//! `marple check-all --jobs N --cache <path>`.
//!
//! ## Tiered memo store
//!
//! Every SMT query the checker issues — subtyping entailments and context-consistency
//! checks from `hat-core`, minterm-satisfiability and transition queries from
//! `hat-sfa::inclusion` — funnels through one [`hat_sfa::SolverOracle`] implementation,
//! [`CachingOracle`]. The oracle reduces each query to a satisfiability problem,
//! α-renames it into a canonical form ([`canon`]) — free variables become `$k0, $k1, …`
//! in order of first occurrence (with their sorts), bound variables `$q0, $q1, …` in
//! traversal order — and serialises that form into a stable textual key. Queries that
//! differ only in variable or binder names therefore share one cache entry, while
//! structurally different queries (reordered conjuncts, a named sort shadowing a built-in
//! sort's name, crafted predicate names) never collide: user-supplied names are
//! length-prefixed in the key. On a miss the oracle solves the *canonical* form, so every
//! verdict is a pure function of its key — which is why `--jobs N` produces verdicts
//! identical to a sequential run no matter how the cache interleaves.
//!
//! Each key is served by a two-level tier stack ([`tier`]) above the store file,
//! instantiated once per record kind in the [`MemoStore`]: a worker-local lock-free map
//! (read-through, hits promoted on the way back — this is what keeps shard-lock traffic
//! flat under `--jobs N`) and the shared sharded map, which opening a store fills from
//! its file. All four record kinds take this one path, with one [`MemoValue`] type.
//!
//! ## Memo hierarchy
//!
//! Beyond the per-query cache, whole units of work are memoised at three higher levels
//! through the single typed [`hat_sfa::MemoQuery`] interface, all keyed α-canonically
//! (see [`canon::memo_key`] and `docs/ARCHITECTURE.md` for the hierarchy diagram):
//! minterm sets (whole alphabet transformations), per-group *DFA shapes* (one product
//! walk over an (automaton pair, pruned alphabet) — shared across benchmarks, no axiom
//! fingerprint) and whole inclusion checks. A hit at an outer level skips every inner
//! level. Nothing beneath the walk is memoised: each walk derives in its own residual
//! arena.
//!
//! ## Store file
//!
//! With [`EngineConfig::cache_path`] set, solver, inclusion, shape and minterm-set
//! records persist in one file (`hat-engine-cache v7`, see [`store_file`]): a header,
//! the record lines, sorted, and a trailing checksum. Opening reads it whole, straight
//! into the shared tier, so the run starts warm; the end of a run that added records
//! writes it whole (temporary file, `sync_all`, atomic rename). The record grammar,
//! single-writer locking, crash consistency and foreign-file rules are specified in
//! `docs/CACHE_FORMAT.md` and summarised in [`cache`]. A file of any other format (the
//! v6 manifest and the flat v1–v5 logs included) is left untouched and counted as
//! stale, and a torn file opens cold.
//!
//! ## Scheduler
//!
//! [`Engine::check_benchmarks`] flattens the benchmark suite into (benchmark, method)
//! jobs, queues them per submission and drains the queues round-robin with `jobs`
//! worker threads (each with its own solver and local tier, all with the shared store),
//! and reassembles reports into input order — so output is deterministic regardless of
//! which worker finishes first.
//!
//! ```
//! use hat_engine::{Engine, EngineConfig};
//!
//! let benches = vec![hat_suite::find("Stack", "LinkedList").expect("configuration exists")];
//! let engine = Engine::new(EngineConfig { jobs: 2, ..EngineConfig::default() }).expect("engine");
//! let summary = engine.check_benchmarks(&benches);
//! assert!(summary.benchmarks[0].reports.iter().any(|r| r.verified));
//! ```

pub mod atomio;
pub mod cache;
pub mod canon;
pub mod oracle;
pub mod schedule;
pub mod store_file;
pub mod tier;

pub use cache::{
    addr_path_for, CacheFileStats, CacheStatsSnapshot, LockHolder, MemoStore, MemoValue, RecordKind,
};
pub use canon::{canonicalize, memo_key, CanonicalMemoKey, CanonicalQuery};
pub use oracle::CachingOracle;
pub use schedule::{
    verdict_mismatches, BenchmarkRun, Engine, EngineConfig, JobReport, PollReport, RunHandle,
    RunSummary,
};
pub use store_file::{LsmConfig, LsmStatsSnapshot};
pub use tier::{LocalTier, SharedTier};
