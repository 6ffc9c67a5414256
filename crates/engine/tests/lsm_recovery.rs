//! Crash-recovery fuzz for the v6 LSM store.
//!
//! The flush and compaction protocols are tmp-file + `sync_all` + atomic-rename, so a
//! kill can only leave (a) stray tmp/orphan files next to an untouched manifest or
//! (b) a manifest naming segments that a later media fault tears. This suite simulates
//! both — plus gratuitous corruption *stronger* than any kill can produce (random
//! truncation and byte flips inside committed files) — and asserts the one invariant
//! that must survive anything: a damaged record **degrades to cold, never to a wrong
//! verdict**. Ground truth is a pure function of each key, so any `Some` answer can be
//! checked exactly; the golden suite then covers end-to-end verdict fidelity of a
//! reloaded store.
//!
//! Deterministic xorshift seeding (the shared `hat-testkit` stream), like the atomio
//! fuzz loops.

use hat_engine::lsm;
use hat_engine::{MemoStore, RecordKind};
use hat_logic::{Atom, Term};
use hat_sfa::{Minterm, MintermSet};
use hat_testkit::XorShift;
use std::path::{Path, PathBuf};

fn temp_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "hat-engine-lsm-recovery-{}-{name}",
        std::process::id()
    ));
    p
}

fn cleanup(path: &Path) {
    let _ = std::fs::remove_file(path);
    let _ = std::fs::remove_file(path.with_extension("compacting"));
    let mut lock = path.to_path_buf().into_os_string();
    lock.push(".lock");
    let _ = std::fs::remove_file(PathBuf::from(lock));
    let _ = std::fs::remove_dir_all(lsm::segment_dir_for(path));
}

const KEYS: usize = 24;

/// Ground truth: every record value is a pure function of its key index.
fn truth_sat(i: usize) -> bool {
    i.is_multiple_of(2)
}
fn truth_incl(i: usize) -> bool {
    i.is_multiple_of(3)
}
/// A payload record, so torn and bit-flipped payloads are exercised too.
fn truth_mt(i: usize) -> MintermSet {
    MintermSet {
        minterms: vec![Minterm {
            op: format!("op{i}"),
            assignment: vec![(
                Atom::Eq(Term::var("#arg0"), Term::int(i as i64)),
                i.is_multiple_of(8),
            )],
        }],
        pruned: i,
        ..MintermSet::default()
    }
}

fn populate(path: &Path) {
    let store = MemoStore::with_disk_log(path).expect("populate open");
    for i in 0..KEYS {
        store.insert(RecordKind::Solver, format!("sat|k{i}"), truth_sat(i).into());
        store.insert(
            RecordKind::Inclusion,
            format!("incl|k{i}"),
            truth_incl(i).into(),
        );
        if i.is_multiple_of(4) {
            store.insert(RecordKind::Minterms, format!("mt|k{i}"), truth_mt(i).into());
        }
    }
}

/// Opens the store and checks every answer it still gives against ground truth.
/// Returns how many of the known keys survived. Panics on any wrong value — the
/// property no corruption may violate.
fn verify_no_wrong_answers(path: &Path) -> usize {
    let store = MemoStore::with_disk_log(path).expect("recovery open never errors");
    assert!(!store.degraded(), "no crash shape may leave the lock stuck");
    let mut present = 0;
    for i in 0..KEYS {
        if let Some(v) = store.lookup(RecordKind::Solver, &format!("sat|k{i}")) {
            assert_eq!(
                v,
                truth_sat(i).into(),
                "sat|k{i}: torn data produced a wrong verdict"
            );
            present += 1;
        }
        if let Some(v) = store.lookup(RecordKind::Inclusion, &format!("incl|k{i}")) {
            assert_eq!(
                v,
                truth_incl(i).into(),
                "incl|k{i}: torn data produced a wrong verdict"
            );
            present += 1;
        }
        if !i.is_multiple_of(4) {
            continue;
        }
        if let Some(v) = store.lookup(RecordKind::Minterms, &format!("mt|k{i}")) {
            assert_eq!(
                v,
                truth_mt(i).into(),
                "mt|k{i}: torn data produced a wrong minterm set"
            );
            present += 1;
        }
    }
    present
}

fn segment_files(path: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(lsm::segment_dir_for(path))
        .map(|entries| entries.flatten().map(|e| e.path()).collect())
        .unwrap_or_default();
    files.sort();
    files
}

/// The fuzz loop: populate, crash in a random way, reload, check, repair-by-use.
#[test]
fn random_crash_shapes_degrade_to_cold_never_to_wrong_verdicts() {
    let mut rng = XorShift(0x9e3779b97f4a7c15);
    for round in 0..30 {
        let path = temp_path(&format!("fuzz-{round}"));
        cleanup(&path);
        populate(&path);
        let files = segment_files(&path);
        assert!(
            !files.is_empty(),
            "round {round}: populate must flush segments"
        );

        match rng.below(5) {
            // Kill during flush, before the manifest commit: a stray tmp next to a
            // committed store. The reopen must GC it and lose nothing.
            0 => {
                let dir = lsm::segment_dir_for(&path);
                std::fs::write(dir.join("S-p0-L0-99999999.seg.tmp"), "half a segment").unwrap();
            }
            // Kill during compaction, before the manifest rename: a stray
            // `.compacting` manifest image plus an orphan merged segment.
            1 => {
                std::fs::write(path.with_extension("compacting"), "torn manifest image").unwrap();
                let dir = lsm::segment_dir_for(&path);
                std::fs::write(
                    dir.join("S-p0-L7-99999998.seg"),
                    "hat-engine-segment v6\tS\t1\nS1\tsat|bogus\n",
                )
                .unwrap();
            }
            // Media fault: truncate a committed segment at a random byte.
            2 => {
                let victim = &files[rng.below(files.len() as u64) as usize];
                let data = std::fs::read(victim).unwrap();
                let cut = rng.below(data.len().max(1) as u64) as usize;
                std::fs::write(victim, &data[..cut]).unwrap();
            }
            // Media fault: flip bytes inside a committed segment.
            3 => {
                let victim = &files[rng.below(files.len() as u64) as usize];
                let mut data = std::fs::read(victim).unwrap();
                for _ in 0..3 {
                    let at = rng.below(data.len().max(1) as u64) as usize;
                    data[at] = data[at].wrapping_add(1 + rng.below(255) as u8);
                }
                std::fs::write(victim, &data).unwrap();
            }
            // Delete a committed segment outright.
            _ => {
                let victim = &files[rng.below(files.len() as u64) as usize];
                std::fs::remove_file(victim).unwrap();
            }
        }

        let present = verify_no_wrong_answers(&path);
        // Tmp/orphan-only crash shapes (cases 0 and 1) lose nothing; the destructive
        // faults lose at most the records of the damaged segment family.
        assert!(
            present > 0,
            "round {round}: a single damaged file must never empty the store"
        );

        // The store stays writable after recovery, and re-deriving the lost records
        // (what a real run would do on the cold misses) heals it completely.
        populate(&path);
        let healed = {
            let store = MemoStore::with_disk_log(&path).expect("healed open");
            (0..KEYS).all(|i| {
                store.lookup(RecordKind::Solver, &format!("sat|k{i}")) == Some(truth_sat(i).into())
            })
        };
        assert!(
            healed,
            "round {round}: re-derivation must repopulate the segments"
        );
        cleanup(&path);
    }
}

/// A torn manifest (damaged in place — something no kill can produce, since manifest
/// updates are atomic renames) must still never yield a wrong verdict: unreadable
/// lines are dropped and their segments become unreferenced, i.e. cold.
#[test]
fn a_torn_manifest_degrades_its_segments_to_cold() {
    let mut rng = XorShift(0xdeadbeefcafef00d);
    for round in 0..10 {
        let path = temp_path(&format!("manifest-{round}"));
        cleanup(&path);
        populate(&path);
        let data = std::fs::read(&path).unwrap();
        let cut = (rng.below(data.len() as u64 - 1) + 1) as usize;
        std::fs::write(&path, &data[..cut]).unwrap();
        let store = MemoStore::with_disk_log(&path).expect("open after manifest damage");
        for i in 0..KEYS {
            if let Some(v) = store.lookup(RecordKind::Solver, &format!("sat|k{i}")) {
                assert_eq!(
                    v,
                    truth_sat(i).into(),
                    "round {round}: wrong verdict after manifest tear"
                );
            }
        }
        drop(store);
        // Whatever the tear left, the next generation of the store must be clean.
        populate(&path);
        verify_no_wrong_answers(&path);
        cleanup(&path);
    }
}

/// The exact crash window of a compaction — outputs written, manifest rename pending —
/// leaves the pre-compaction manifest fully live: nothing may be lost and the stray
/// files must be collected on the next open.
#[test]
fn a_kill_between_compaction_write_and_rename_loses_nothing() {
    let path = temp_path("compaction-window");
    cleanup(&path);
    populate(&path);
    // Forge the crash artefacts.
    std::fs::write(path.with_extension("compacting"), "arbitrary bytes").unwrap();
    let dir = lsm::segment_dir_for(&path);
    std::fs::write(dir.join("I-p2-L9-99999997.seg"), "orphan").unwrap();

    let store = MemoStore::with_disk_log(&path).expect("reopen in the crash window");
    assert_eq!(
        store.stats().stale,
        0,
        "the committed manifest is untouched"
    );
    for i in 0..KEYS {
        assert_eq!(
            store.lookup(RecordKind::Solver, &format!("sat|k{i}")),
            Some(truth_sat(i).into())
        );
        assert_eq!(
            store.lookup(RecordKind::Inclusion, &format!("incl|k{i}")),
            Some(truth_incl(i).into())
        );
    }
    drop(store);
    assert!(
        !dir.join("I-p2-L9-99999997.seg").exists(),
        "the orphan of the interrupted compaction is collected under the writer lock"
    );
    cleanup(&path);
}
