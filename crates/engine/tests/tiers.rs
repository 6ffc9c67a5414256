//! Coherence and lock-traffic tests for the per-worker read-through tiers.
//!
//! Read-through caching is only sound because every memo value is a pure function of
//! its canonical key — a local copy can be absent, never stale. These tests assert the
//! observable consequences: at `jobs=6`, local-tier promotion changes **no verdict**
//! relative to a shared-only run or a sequential (`jobs=1`) run, while shared-tier
//! shard-lock traffic drops.

use hat_engine::{verdict_mismatches, Engine, EngineConfig, MemoStore, RunSummary};
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
        tiered_locks * 4 <= shared_locks * 3,
        "local tiers should absorb a meaningful share of the shard-lock traffic even \
         on this small suite (got {tiered_locks} vs {shared_locks})"
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

/// The v6 acceptance bar for the LSM backend: memtable rotation, background flush and
/// background compaction all run on the dedicated LSM thread and never acquire a
/// memo-tier lock. A worker pays disk-tier locks only for its own probes and
/// promotions, so two sequential cold runs — one that never rotates, one that rotates
/// and compacts constantly — must count *identical* disk-tier lock traffic.
#[test]
fn background_flush_and_compaction_take_no_tier_locks() {
    let cleanup = |p: &std::path::Path| {
        let _ = std::fs::remove_file(p);
        let _ = std::fs::remove_file(p.with_extension("compacting"));
        let mut lock = p.to_path_buf().into_os_string();
        lock.push(".lock");
        let _ = std::fs::remove_file(std::path::PathBuf::from(lock));
        let _ = std::fs::remove_dir_all(hat_engine::lsm::segment_dir_for(p));
    };
    let config_for = |name: &str, memtable: usize| {
        let mut path = std::env::temp_dir();
        path.push(format!(
            "hat-engine-tiers-lsm-{name}-{}",
            std::process::id()
        ));
        cleanup(&path);
        EngineConfig {
            jobs: 1, // sequential, so the two cold probe sequences are identical
            cache_path: Some(path.clone()),
            memtable_bytes: Some(memtable),
            ..EngineConfig::default()
        }
    };

    // Baseline: a memtable the run can never fill — zero rotations, one drain flush.
    let quiet_config = config_for("quiet", 1 << 30);
    let quiet_engine = Engine::new(quiet_config.clone()).expect("disk-backed engine");
    let quiet = quiet_engine.check_benchmarks(&benches());
    assert!(
        quiet_engine
            .cache()
            .lsm_stats()
            .expect("persistent store")
            .rotations
            <= 1,
        "the huge memtable must absorb the whole run: only the end-of-run drain rotates"
    );
    let quiet_disk_locks = quiet_engine.cache().stats().disk_lock_acquisitions;
    drop(quiet_engine);

    // Same workload over a toy memtable: constant rotation, flushing and merging on
    // the background thread while the worker runs.
    let busy_config = config_for("busy", 512);
    let busy_engine = Engine::new(busy_config.clone()).expect("disk-backed engine");
    let busy = busy_engine.check_benchmarks(&benches());
    let lsm = busy_engine.cache().lsm_stats().expect("persistent store");
    assert!(lsm.rotations > 0, "the toy memtable must rotate mid-run");
    assert!(lsm.flushes > 0, "rotated tables must reach segment files");
    assert!(
        lsm.compactions > 0,
        "enough flushes must trigger background merges (got {})",
        lsm.flushes
    );
    assert_eq!(verdicts(&quiet), verdicts(&busy));
    assert_eq!(
        busy_engine.cache().stats().disk_lock_acquisitions,
        quiet_disk_locks,
        "{} flushes and {} compactions ran in the background, yet the worker observed \
         exactly the disk-tier lock traffic of the rotation-free run — flush and \
         compaction never go through the tiers",
        lsm.flushes,
        lsm.compactions
    );
    drop(busy_engine);

    // Warm restart over the rotated-and-compacted segments: identical verdicts,
    // nothing re-solved, and the only disk-tier traffic is the workers' own
    // read-through promotions.
    let warm_engine = Engine::new(EngineConfig {
        jobs: 4,
        ..busy_config.clone()
    })
    .expect("warm disk-backed engine");
    let warm = warm_engine.check_benchmarks(&benches());
    assert_eq!(
        verdicts(&busy),
        verdicts(&warm),
        "verdicts must be bit-identical across rotation and background compaction"
    );
    assert_eq!(
        warm.cache.misses, 0,
        "every solver query of the warm run must be served from the segments"
    );
    assert_eq!(
        warm.cache.transition_misses, 0,
        "no transition successor is re-derived on a warm run"
    );
    // The outer memo levels (inclusion, shape) hit first on a warm run and skip the
    // product walk, so transitions are rarely *consulted* — assert instead that the
    // compacted store really holds transition segments for a warm run to replay.
    assert!(
        MemoStore::inspect(busy_config.cache_path.as_ref().unwrap())
            .expect("inspect")
            .transitions
            > 0,
        "transition successors must be served from their own segment kind on disk"
    );
    assert!(
        warm_engine.cache().stats().disk_lock_acquisitions > 0,
        "warm lookups pay their own promotion locks — that is the only disk-tier traffic"
    );
    drop(warm_engine);
    cleanup(quiet_config.cache_path.as_ref().unwrap());
    cleanup(busy_config.cache_path.as_ref().unwrap());
}
