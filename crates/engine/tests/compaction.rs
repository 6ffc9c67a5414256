//! Compaction-semantics property test: compacting a disk log must be observationally
//! invisible to the checker. For a spread of real configurations, a cold disk-backed
//! run followed by `compact` followed by a warm run must (a) report bit-identical
//! verdicts, and (b) answer **every** solver query and alphabet transformation from the
//! compacted log — 0 misses, 0 enumeration checks — exactly like a warm run over the
//! uncompacted log.

use hat_engine::{Engine, EngineConfig, MemoStore, RunSummary};
use std::path::{Path, PathBuf};

fn temp_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "hat-engine-compaction-{}-{name}",
        std::process::id()
    ));
    p
}

fn cleanup(path: &Path) {
    let _ = std::fs::remove_file(path);
    let mut lock = path.to_path_buf().into_os_string();
    lock.push(".lock");
    let _ = std::fs::remove_file(PathBuf::from(lock));
    let _ = std::fs::remove_file(path.with_extension("compacting"));
    let _ = std::fs::remove_dir_all(hat_engine::lsm::segment_dir_for(path));
}

fn verdicts(summary: &RunSummary) -> Vec<Vec<bool>> {
    summary
        .benchmarks
        .iter()
        .map(|b| b.reports.iter().map(|r| r.verified).collect())
        .collect()
}

fn disk_run(path: &Path, jobs: usize, benches: &[hat_suite::Benchmark]) -> RunSummary {
    Engine::new(EngineConfig {
        jobs,
        cache_path: Some(path.to_path_buf()),
        ..EngineConfig::default()
    })
    .expect("disk-backed engine")
    .check_benchmarks(benches)
}

#[test]
fn warm_run_after_compact_reports_zero_solver_queries_and_identical_verdicts() {
    // Several distinct configurations (different libraries, different axiom sets), each
    // checked independently: a per-configuration property, not one lucky aggregate.
    for (i, name) in ["ConnectedGraph/Set", "Stack/LinkedList", "MinSet/KVStore"]
        .iter()
        .enumerate()
    {
        let (adt, lib) = name.split_once('/').unwrap();
        let benches = vec![hat_suite::find(adt, lib).expect("configuration exists")];
        let path = temp_path(&format!("prop-{i}"));
        cleanup(&path);

        let cold = disk_run(&path, 2, &benches);
        assert!(
            cold.cache.misses > 0,
            "{name}: the cold run must actually solve something"
        );

        // Compact between the cold and warm runs (a fresh store, as `marple cache
        // compact` would use), and remember the store shrank or stayed equal — it can
        // never grow: compaction writes a subset of the records. `bytes` sums the
        // manifest and every live segment file.
        let before = MemoStore::inspect(&path).expect("inspect").bytes;
        {
            let store = MemoStore::with_disk_log(&path).expect("reopen for compaction");
            let report = store.compact().expect("compaction runs");
            assert!(
                report.bytes_after <= before,
                "{name}: compaction must never grow the store ({} -> {})",
                before,
                report.bytes_after
            );
            assert_eq!(
                report.records_after,
                MemoStore::inspect(&path).expect("inspect").live(),
                "{name}: the compacted segments hold exactly the live records"
            );
        }
        assert_eq!(
            MemoStore::inspect(&path).expect("inspect").dead(),
            0,
            "{name}: no dead records survive compaction"
        );

        let warm = disk_run(&path, 2, &benches);
        assert_eq!(
            verdicts(&cold),
            verdicts(&warm),
            "{name}: verdicts must be bit-identical across compaction"
        );
        assert_eq!(
            warm.cache.misses, 0,
            "{name}: every solver query of the warm run must hit the compacted log"
        );
        let warm_enum = warm.stats().enum_queries;
        assert_eq!(
            warm_enum, 0,
            "{name}: minterm sets must replay from the compacted log (no enumeration)"
        );
        assert!(warm.cache.hits > 0, "{name}: the warm run hits the cache");
        cleanup(&path);
    }
}

#[test]
fn compaction_is_idempotent_on_a_clean_log() {
    let benches = vec![hat_suite::find("Stack", "LinkedList").expect("configuration exists")];
    let path = temp_path("idempotent");
    cleanup(&path);
    disk_run(&path, 1, &benches);
    let store = MemoStore::with_disk_log(&path).expect("reopen");
    let first = store.compact().expect("first pass");
    let second = store.compact().expect("second pass");
    assert_eq!(first.records_after, second.records_before);
    assert_eq!(second.records_before, second.records_after);
    assert_eq!(first.bytes_after, second.bytes_after);
    drop(store);
    cleanup(&path);
}
