//! Crash-recovery fuzz for the store file (`hat-engine-cache v7`).
//!
//! A write goes to `<path>.tmp`, is synced and renamed over the file, so a kill can
//! only leave a stray `<path>.tmp` next to an untouched file. This suite simulates that,
//! plus damage *stronger* than any kill can produce — random truncation, byte flips, a
//! deleted file and a damaged header — and asserts the one invariant that must survive
//! anything: a damaged store **degrades to cold, never to a wrong verdict**. A file
//! with the v7 header that fails its checksum is torn: it loads nothing and the next
//! writer replaces it. A file whose header no longer reads as v7 is foreign: it loads
//! nothing and is never written. Ground truth is a pure function of each key, so any
//! `Some` answer can be checked exactly; the golden suite then covers end-to-end
//! verdict fidelity of a reloaded store.
//!
//! Deterministic xorshift seeding (the shared `hat-testkit` stream), like the atomio
//! fuzz loops.

use hat_engine::{MemoStore, RecordKind};
use hat_logic::{Atom, Term};
use hat_sfa::{Minterm, MintermSet};
use hat_testkit::XorShift;
use std::path::{Path, PathBuf};

const HEADER: &str = "hat-engine-cache v7";

fn temp_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "hat-engine-store-recovery-{}-{name}",
        std::process::id()
    ));
    p
}

fn sidecar(path: &Path, suffix: &str) -> PathBuf {
    let mut name = path.as_os_str().to_os_string();
    name.push(suffix);
    PathBuf::from(name)
}

fn cleanup(path: &Path) {
    let _ = std::fs::remove_file(path);
    let _ = std::fs::remove_file(sidecar(path, ".lock"));
    let _ = std::fs::remove_file(sidecar(path, ".tmp"));
}

const KEYS: usize = 24;
/// Records [`populate`] writes: a solver and an inclusion verdict per key, and a
/// minterm set for every fourth key.
const RECORDS: usize = 2 * KEYS + KEYS / 4;

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

/// One run that derives every record (what a real run does on its cold misses); the
/// store writes its file when it drops, if any insert was fresh.
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

/// What one open of a damaged store served.
struct Served {
    /// Known keys that answered (every answer checked against ground truth).
    present: usize,
    /// Records the open loaded from the file.
    loaded: usize,
    /// Stale entries the open counted.
    stale: usize,
}

/// Opens the store and checks every answer it still gives against ground truth.
/// Panics on any wrong value — the property no damage may violate.
fn verify_no_wrong_answers(path: &Path) -> Served {
    let store = MemoStore::with_disk_log(path).expect("recovery open never errors");
    assert!(!store.degraded(), "no crash shape may leave the lock stuck");
    let mut present = 0;
    for i in 0..KEYS {
        if let Some(v) = store.lookup(RecordKind::Solver, &format!("sat|k{i}")) {
            assert_eq!(
                v,
                truth_sat(i).into(),
                "sat|k{i}: damaged data produced a wrong verdict"
            );
            present += 1;
        }
        if let Some(v) = store.lookup(RecordKind::Inclusion, &format!("incl|k{i}")) {
            assert_eq!(
                v,
                truth_incl(i).into(),
                "incl|k{i}: damaged data produced a wrong verdict"
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
                "mt|k{i}: damaged data produced a wrong minterm set"
            );
            present += 1;
        }
    }
    let stats = store.stats();
    Served {
        present,
        loaded: stats.disk_loaded,
        stale: stats.stale,
    }
}

/// Whether a damaged file's first line is still the v7 header: then it is ours and
/// torn, otherwise foreign (or empty, hence fresh).
fn header_intact(bytes: &[u8]) -> bool {
    bytes.split(|&b| b == b'\n').next() == Some(HEADER.as_bytes())
}

/// The fuzz loop: populate, crash in a random way, reload, check, repair-by-use.
#[test]
fn random_crash_shapes_degrade_to_cold_never_to_wrong_verdicts() {
    let mut rng = XorShift(0x9e3779b97f4a7c15);
    for round in 0..40 {
        let path = temp_path(&format!("fuzz-{round}"));
        cleanup(&path);
        populate(&path);
        let intact = std::fs::read(&path).expect("populate writes the file");
        assert!(header_intact(&intact), "round {round}");

        let shape = rng.below(5);
        match shape {
            // Kill during a write, before the rename: a stray temporary file next to
            // the committed store.
            0 => {
                let cut = rng.below(intact.len() as u64) as usize;
                std::fs::write(sidecar(&path, ".tmp"), &intact[..cut]).unwrap();
            }
            // Media fault: truncate the file at a random byte.
            1 => {
                let cut = rng.below(intact.len() as u64) as usize;
                std::fs::write(&path, &intact[..cut]).unwrap();
            }
            // Media fault: flip bytes anywhere in the file.
            2 => {
                let mut data = intact.clone();
                for _ in 0..3 {
                    let at = rng.below(data.len() as u64) as usize;
                    data[at] = data[at].wrapping_add(1 + rng.below(255) as u8);
                }
                std::fs::write(&path, &data).unwrap();
            }
            // Delete the file outright.
            3 => std::fs::remove_file(&path).unwrap(),
            // Damage the header line.
            _ => {
                let mut data = intact.clone();
                let at = rng.below(HEADER.len() as u64) as usize;
                data[at] = data[at].wrapping_add(1 + rng.below(255) as u8);
                std::fs::write(&path, &data).unwrap();
            }
        }
        let damaged = std::fs::read(&path).ok();

        let served = verify_no_wrong_answers(&path);
        if shape == 0 {
            assert_eq!(
                (served.present, served.loaded, served.stale),
                (RECORDS, RECORDS, 0),
                "round {round}: a stray temporary file loses nothing"
            );
        } else {
            assert_eq!(
                (served.present, served.loaded),
                (0, 0),
                "round {round}: a damaged file (shape {shape}) must load no record"
            );
        }

        // Re-deriving the lost records heals the store: the next writer replaces a
        // torn, empty or missing file — with exactly the bytes of the intact one, since
        // a write is the sorted image of the same records — while a foreign file is
        // never written.
        populate(&path);
        let after = std::fs::read(&path).ok();
        let ours = damaged
            .as_deref()
            .is_none_or(|bytes| bytes.is_empty() || header_intact(bytes));
        if ours {
            assert_eq!(
                after.as_deref(),
                Some(&intact[..]),
                "round {round}: the next writer must replace the damaged file"
            );
            let healed = verify_no_wrong_answers(&path);
            assert_eq!(
                (healed.present, healed.loaded, healed.stale),
                (RECORDS, RECORDS, 0),
                "round {round}: the reopened store must be warm and exact"
            );
        } else {
            assert_eq!(
                after, damaged,
                "round {round}: a foreign file is never written"
            );
            let again = verify_no_wrong_answers(&path);
            assert_eq!((again.loaded, again.stale), (0, 1), "round {round}");
        }
        cleanup(&path);
    }
}

/// A header damaged in place (something no kill can produce) makes the file foreign:
/// every open runs cold, counts the file as one stale entry and leaves it alone.
#[test]
fn a_damaged_header_is_foreign_and_never_overwritten() {
    let path = temp_path("header");
    for at in 0..HEADER.len() {
        cleanup(&path);
        populate(&path);
        let mut data = std::fs::read(&path).unwrap();
        data[at] ^= 0x20;
        std::fs::write(&path, &data).unwrap();
        let served = verify_no_wrong_answers(&path);
        assert_eq!(
            (served.present, served.loaded, served.stale),
            (0, 0, 1),
            "byte {at}"
        );
        populate(&path);
        assert_eq!(std::fs::read(&path).unwrap(), data, "byte {at}");
        assert!(!sidecar(&path, ".tmp").exists(), "byte {at}");
        let stats = MemoStore::inspect(&path).unwrap();
        assert_eq!(stats.version, None, "byte {at}");
    }
    cleanup(&path);
}

/// The exact crash window of a write — the temporary file written, the rename pending —
/// leaves the committed file fully live: nothing is lost, and the next write replaces
/// the stray temporary file.
#[test]
fn a_kill_before_the_rename_loses_nothing() {
    let path = temp_path("rename-window");
    cleanup(&path);
    populate(&path);
    let committed = std::fs::read(&path).unwrap();
    std::fs::write(sidecar(&path, ".tmp"), "arbitrary bytes").unwrap();

    let store = MemoStore::with_disk_log(&path).expect("reopen in the crash window");
    assert_eq!(store.stats().stale, 0, "the committed file is untouched");
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
    store.insert(RecordKind::Solver, "sat|fresh".into(), true.into());
    drop(store);
    assert!(
        !sidecar(&path, ".tmp").exists(),
        "the next write went through the temporary file and renamed it"
    );
    let stats = MemoStore::inspect(&path).unwrap();
    assert_eq!((stats.live(), stats.torn_segments), (RECORDS + 1, 0));
    assert_ne!(std::fs::read(&path).unwrap(), committed);
    cleanup(&path);
}
