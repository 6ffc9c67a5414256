//! Warm-restart property of the store file: a cold disk-backed run followed by a warm
//! run over the file it wrote must (a) report bit-identical verdicts, (b) answer
//! **every** solver query and alphabet transformation from the file — 0 misses, 0
//! enumeration checks — and (c) leave the file alone: byte-identical, same inode, same
//! modification time. The repository benchmark's store guard relies on (c).

use hat_engine::{Engine, EngineConfig, MemoStore, RunSummary};
use std::os::unix::fs::MetadataExt;
use std::path::{Path, PathBuf};
use std::time::SystemTime;

fn temp_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "hat-engine-warm-restart-{}-{name}",
        std::process::id()
    ));
    p
}

fn cleanup(path: &Path) {
    let _ = std::fs::remove_file(path);
    for suffix in [".lock", ".tmp"] {
        let mut sidecar = path.as_os_str().to_os_string();
        sidecar.push(suffix);
        let _ = std::fs::remove_file(PathBuf::from(sidecar));
    }
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

/// The file's bytes, inode and modification time.
fn snapshot(path: &Path) -> (Vec<u8>, u64, SystemTime) {
    let meta = std::fs::metadata(path).expect("the store file exists");
    (
        std::fs::read(path).expect("readable"),
        meta.ino(),
        meta.modified().expect("mtime"),
    )
}

fn find(name: &str) -> hat_suite::Benchmark {
    let (adt, lib) = name.split_once('/').unwrap();
    hat_suite::find(adt, lib).expect("configuration exists")
}

#[test]
fn warm_run_reports_zero_solver_queries_and_identical_verdicts() {
    // Several distinct configurations (different libraries, different axiom sets), each
    // checked independently: a per-configuration property, not one lucky aggregate.
    for (i, name) in ["ConnectedGraph/Set", "Stack/LinkedList", "MinSet/KVStore"]
        .iter()
        .enumerate()
    {
        let benches = vec![find(name)];
        let path = temp_path(&format!("prop-{i}"));
        cleanup(&path);

        let cold = disk_run(&path, 2, &benches);
        assert!(
            cold.cache.misses > 0,
            "{name}: the cold run must actually solve something"
        );
        let stored = MemoStore::inspect(&path).expect("inspect");
        assert_eq!(stored.version, Some(7), "{name}");
        assert_eq!((stored.torn_segments, stored.dead()), (0, 0), "{name}");
        let before = snapshot(&path);

        let warm = disk_run(&path, 2, &benches);
        assert_eq!(
            verdicts(&cold),
            verdicts(&warm),
            "{name}: verdicts must be bit-identical across a restart"
        );
        assert_eq!(
            warm.cache.misses, 0,
            "{name}: every solver query of the warm run must hit the file"
        );
        assert_eq!(
            warm.stats().enum_queries,
            0,
            "{name}: minterm sets must load from the file (no enumeration)"
        );
        assert!(warm.cache.hits > 0, "{name}: the warm run hits the cache");
        assert!(
            snapshot(&path) == before,
            "{name}: a warm run that adds no record must leave the file byte-identical, \
             with the same inode and modification time"
        );
        cleanup(&path);
    }
}

#[test]
fn only_a_run_that_adds_records_rewrites_the_file() {
    let path = temp_path("grow");
    cleanup(&path);
    let stack = vec![find("Stack/LinkedList")];
    let both = vec![find("Stack/LinkedList"), find("Set/Tree")];
    disk_run(&path, 1, &stack);
    let first = MemoStore::inspect(&path).expect("inspect").live();

    // Half warm: the new configuration's records join the file, the old ones stay.
    let grown = disk_run(&path, 1, &both);
    assert!(grown.cache.misses > 0, "Set/Tree is new to the store");
    let second = MemoStore::inspect(&path).expect("inspect").live();
    assert!(second > first, "{first} -> {second} records");

    let before = snapshot(&path);
    let warm = disk_run(&path, 1, &both);
    assert_eq!(warm.cache.misses, 0);
    assert_eq!(verdicts(&warm), verdicts(&grown));
    assert!(
        snapshot(&path) == before,
        "the fully warm run rewrote the file"
    );
    cleanup(&path);
}
