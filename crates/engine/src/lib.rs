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
//! Each key is served by a three-level tier stack ([`tier`]), instantiated once per
//! record kind in the [`MemoStore`]: a worker-local lock-free map (read-through, hits
//! promoted on the way back — this is what keeps shard-lock traffic flat under
//! `--jobs N`), the shared sharded map, and the disk tier replayed from the segment
//! store. All six record kinds take this one path, with one [`MemoValue`] type.
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
//! ## Disk store (LSM)
//!
//! With [`EngineConfig::cache_path`] set, solver, inclusion, shape and minterm-set
//! records flow through an LSM-structured store (`hat-engine-cache v6`): writes land
//! in an in-memory memtable that rotates at a size threshold into frozen tables,
//! which a dedicated background thread flushes as sorted, fingerprint-partitioned,
//! per-kind segment files under `<path>.d/` — the cache path itself holds only the
//! manifest naming the live segments. The same thread merges segment families
//! levelled-up and drops dead records, so compaction never blocks a reader or a
//! scheduler worker. The record grammar, single-writer locking, crash-consistency
//! and foreign-file rules are specified in `docs/CACHE_FORMAT.md` and summarised in
//! [`cache`] and [`lsm`]. The next run replays manifest + segments into memory and
//! starts warm; files of any other format version (the flat v1–v5 logs included) are
//! ignored wholesale and counted as stale, and a store crowded with dead records is
//! compacted — automatically past a threshold at open, or explicitly via
//! [`MemoStore::compact`] / `marple cache compact`.
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
pub mod lsm;
pub mod oracle;
pub mod schedule;
pub mod tier;

pub use cache::{
    addr_path_for, CacheFileStats, CacheStatsSnapshot, CompactionReport, LockHolder, MemoStore,
    MemoValue, RecordKind,
};
pub use canon::{canonicalize, memo_key, CanonicalMemoKey, CanonicalQuery};
pub use lsm::{LsmConfig, LsmStatsSnapshot, ManifestState, SegmentMeta};
pub use oracle::CachingOracle;
pub use schedule::{
    verdict_mismatches, BenchmarkRun, Engine, EngineConfig, JobReport, PollReport, RunHandle,
    RunSummary,
};
pub use tier::{DiskTier, LocalTier, SharedTier};
