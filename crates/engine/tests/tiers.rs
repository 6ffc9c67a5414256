//! Coherence and lock-traffic tests for the per-worker read-through tiers.
//!
//! Read-through caching is only sound because every memo value is a pure function of
//! its canonical key — a local copy can be absent, never stale. These tests assert the
//! observable consequences: at `jobs=6`, local-tier promotion changes **no verdict**
//! relative to a shared-only run or a sequential (`jobs=1`) run, while shared-tier
//! shard-lock traffic drops.

use hat_engine::{verdict_mismatches, Engine, EngineConfig, RunSummary};
use hat_suite::Benchmark;

/// A handful of real configurations, small enough for debug-mode CI but covering
/// several libraries (distinct axiom sets, so the axiom-fingerprint discipline is
/// exercised across workers too).
fn benches() -> Vec<Benchmark> {
    ["ConnectedGraph/Set", "Stack/LinkedList", "MinSet/KVStore"]
        .iter()
        .map(|name| {
            let (adt, lib) = name.split_once('/').unwrap();
            hat_suite::find(adt, lib).expect("configuration exists")
        })
        .collect()
}

fn verdicts(summary: &RunSummary) -> Vec<Vec<bool>> {
    summary
        .benchmarks
        .iter()
        .map(|b| b.reports.iter().map(|r| r.verified).collect())
        .collect()
}

fn run(jobs: usize, local_tiers: bool) -> RunSummary {
    Engine::new(EngineConfig {
        jobs,
        local_tiers,
        ..EngineConfig::default()
    })
    .expect("in-memory engine")
    .check_benchmarks(&benches())
}

#[test]
fn jobs6_local_tier_promotion_never_changes_a_verdict() {
    let sequential = run(1, false);
    let shared_only = run(6, false);
    let read_through = run(6, true);
    assert_eq!(
        verdicts(&sequential),
        verdicts(&shared_only),
        "jobs=6 shared-only must match jobs=1"
    );
    assert_eq!(
        verdicts(&sequential),
        verdicts(&read_through),
        "jobs=6 with local-tier promotion must match jobs=1"
    );
    assert_eq!(
        verdict_mismatches("jobs=6 read-through", &benches(), &read_through.benchmarks),
        Vec::<String>::new()
    );
}

#[test]
fn jobs6_read_through_tiers_cut_shared_lock_traffic() {
    let shared_only = run(6, false);
    let read_through = run(6, true);
    let shared_locks = shared_only.stats().shared_tier_locks;
    let tiered_locks = read_through.stats().shared_tier_locks;
    assert!(shared_locks > 0, "the shared-only run must count its locks");
    // On this deliberately tiny suite each worker sees only a couple of methods, so
    // most lookups are a worker's *first* sight of a key (which must go shared once in
    // any design); assert a strict reduction here and leave the default-suite
    // figure to the measurement (the jobs=6 runs in BENCH_engine.json).
    assert!(
        tiered_locks < shared_locks,
        "local tiers should absorb part of the shard-lock traffic even on this small \
         suite (got {tiered_locks} vs {shared_locks})"
    );
    // The per-run snapshot agrees with the per-method counters on magnitude: local
    // promotion, not fewer hits, is where the reduction comes from.
    assert!(
        read_through.cache.hits >= shared_only.cache.hits / 2,
        "read-through must not trade hits away ({} vs {})",
        read_through.cache.hits,
        shared_only.cache.hits
    );
    assert!(
        read_through.cache.lock_acquisitions < shared_only.cache.lock_acquisitions,
        "the store-side lock counter must drop too ({} vs {})",
        read_through.cache.lock_acquisitions,
        shared_only.cache.lock_acquisitions
    );
}

#[test]
fn sequential_runs_also_benefit_from_the_local_tier() {
    // One worker, many methods: the worker's local tier persists across its jobs, so
    // repeat lookups of invariant-level entries stay lock-free.
    let shared_only = run(1, false);
    let read_through = run(1, true);
    assert_eq!(verdicts(&shared_only), verdicts(&read_through));
    assert!(
        read_through.cache.lock_acquisitions < shared_only.cache.lock_acquisitions,
        "a single worker's repeat lookups should be absorbed locally ({} vs {})",
        read_through.cache.lock_acquisitions,
        shared_only.cache.lock_acquisitions
    );
}
