//! The shared tiered memo store: one [`SharedTier`] per record kind, optionally backed
//! by the LSM-structured disk store of [`crate::lsm`] so repeated runs start warm, and
//! optionally fronted by per-worker [`crate::tier::LocalTier`]s (composed in
//! [`crate::oracle::CachingOracle`]) so hot lookups touch no lock at all.
//!
//! Six record kinds share the store (see [`RecordKind`]), and every kind takes the same
//! path: [`MemoStore::lookup`] probes the shared tier, reads through to the disk tier
//! and promotes a disk hit; [`MemoStore::insert`] logs a record line to the LSM
//! memtable only when the shared insert is fresh and the kind is one a warm run reads.
//! Values of every kind travel as one [`MemoValue`]:
//!
//! * **Solver verdicts** (`S` records): one satisfiability bit per canonical query key.
//! * **Inclusion verdicts** (`I` records): one bit per canonical automata-inclusion key —
//!   a hit skips minterm construction and DFA building entirely.
//! * **DFA-shape verdicts** (`D` records): one bit per canonical per-group product walk,
//!   keyed by [`crate::canon::shape_key`] (automaton pair + pruned alphabet + state
//!   bound, no axiom fingerprint) — a hit skips the product walk across contexts and
//!   benchmarks.
//! * **Minterm sets** (`M` records): whole memoised alphabet transformations keyed by
//!   [`crate::canon::alphabet_key`], persisted through the line-safe atom serialisation
//!   of [`crate::atomio`] — a warm run skips minterm enumeration entirely.
//! * **DFA transitions** (`T`, in-process only): memoised `state × answers → successor`
//!   derivatives keyed by [`crate::canon::transition_key`].
//! * **Subsumption verdicts** (`U`, in-process only): one simulation-preorder bit per
//!   canonical residual pair, keyed by [`crate::canon::subsumption_key`] (no axiom
//!   fingerprint, no state bound — a semantic fact about the pair) — a hit lets the
//!   antichain walk prune a product pair whose transition rows were never even derived
//!   by this walk.
//!
//! `T` and `U` live beneath the product walk, and a warm run answers its obligations
//! from `I`, `D` and `S` records before it reaches the walk, so neither kind is written
//! to disk (see `RecordKind::is_persisted`).
//!
//! # Disk format (v6)
//!
//! The persistent tier is a small LSM store (see [`crate::lsm`] for the mechanics and
//! `docs/CACHE_FORMAT.md` for the full grammar): the cache path itself is a
//! *manifest* (`hat-engine-cache v6` header plus one line per live segment), and the
//! records live in sorted, fingerprint-partitioned, per-kind *segment files* under
//! `<path>.d/`. Fresh records are appended to an in-memory memtable and reach disk when
//! the memtable rotates (size threshold, end-of-run flush, or drop) — a dedicated
//! background thread writes segments, commits the manifest atomically, and merges
//! segment families without taking a single tier lock. Record lines inside segments are
//! `<kind><verdict>\t<key>` for `S`/`I`/`D` and `M\t<key>\t<payload>` for minterm sets.
//! `T` and `U` segments left by binaries that persisted those kinds are never read: a
//! locked open drops them from the manifest and unlinks their files.
//!
//! Properties:
//!
//! * **Single-writer locking.** Opening takes a sidecar lock (`<path>.lock`, holder PID
//!   inside). A second process finds the lock held and **degrades to in-memory** with a
//!   warning (entries are still replayed read-only for a warm start). A lock whose
//!   holder is dead is reclaimed. [`MemoStore::inspect`] never takes the lock at all —
//!   `marple cache stats` prints honest numbers even while a daemon owns the store.
//! * **Compaction.** [`MemoStore::compact`] (CLI: `marple cache compact`) is a
//!   *nudge*: it drains the memtable and asks the background thread to merge every
//!   multi-segment family, newest record winning, duplicates and torn lines dropped.
//!   Opening a store whose dead-record share passes a threshold nudges automatically.
//! * **Foreign files.** A file with any header other than the v6 manifest's — the
//!   flat v1–v5 logs of older binaries included — is ignored wholesale and counted as
//!   stale rather than half-trusted (the store runs in-memory and never writes to the
//!   foreign file). Malformed lines and torn segments are skipped and counted as
//!   stale, never corrupting verdicts.

use crate::atomio::{parse_minterm_set, ser_minterm_set};
use crate::lsm::{self, Lsm, LsmConfig, LsmStatsSnapshot, ManifestState};
use crate::tier::{DiskTier, SharedTier};
use hat_sfa::{MemoKind, MintermSet, Sfa};
use std::collections::HashSet;
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// An open-time compaction nudge fires when at least this many dead records are found…
const AUTO_COMPACT_MIN_DEAD: usize = 16;
/// …and they make up at least `1/AUTO_COMPACT_RATIO` of the replayed records.
const AUTO_COMPACT_RATIO: usize = 4;

/// The record kinds of the store, doubling as the disk-record tags. `kind as usize`
/// indexes the per-kind tier and counter arrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RecordKind {
    /// Solver verdicts (`S`).
    Solver,
    /// Inclusion verdicts (`I`).
    Inclusion,
    /// DFA-shape verdicts (`D`).
    Shape,
    /// Minterm sets (`M`).
    Minterms,
    /// DFA transitions (`T`, in-process only).
    Transition,
    /// Simulation-subsumption verdicts (`U`, in-process only).
    Subsumption,
}

impl RecordKind {
    /// Every kind, in disk order.
    pub(crate) const ALL: [RecordKind; 6] = [
        RecordKind::Solver,
        RecordKind::Inclusion,
        RecordKind::Shape,
        RecordKind::Minterms,
        RecordKind::Transition,
        RecordKind::Subsumption,
    ];

    /// The disk tag of this kind: the first byte of its record lines and of its segment
    /// file names.
    pub fn tag(self) -> &'static str {
        match self {
            RecordKind::Solver => "S",
            RecordKind::Inclusion => "I",
            RecordKind::Shape => "D",
            RecordKind::Minterms => "M",
            RecordKind::Transition => "T",
            RecordKind::Subsumption => "U",
        }
    }

    /// The kind a disk tag names, if this binary knows it.
    pub(crate) fn from_tag(tag: &str) -> Option<RecordKind> {
        RecordKind::ALL.into_iter().find(|kind| kind.tag() == tag)
    }

    /// Whether records of this kind hold a verdict bit (rather than a payload).
    pub(crate) fn is_verdict(self) -> bool {
        !matches!(self, RecordKind::Minterms | RecordKind::Transition)
    }

    /// Whether records of this kind are written to the disk store: the kinds a warm run
    /// reads. `T` and `U` sit beneath the product walk, which a warm run never reaches,
    /// so they stay in-process; a store that still names their segments has them
    /// dropped unread at open.
    pub(crate) fn is_persisted(self) -> bool {
        !matches!(self, RecordKind::Transition | RecordKind::Subsumption)
    }

    /// A human-readable label (used by `marple cache stats`).
    pub fn label(self) -> &'static str {
        match self {
            RecordKind::Solver => "solver verdicts (S)",
            RecordKind::Inclusion => "inclusion verdicts (I)",
            RecordKind::Shape => "DFA-shape verdicts (D)",
            RecordKind::Minterms => "minterm sets (M)",
            RecordKind::Transition => "DFA transitions (T)",
            RecordKind::Subsumption => "subsumption verdicts (U)",
        }
    }
}

impl From<MemoKind> for RecordKind {
    fn from(kind: MemoKind) -> Self {
        match kind {
            MemoKind::Minterms => RecordKind::Minterms,
            MemoKind::Inclusion => RecordKind::Inclusion,
            MemoKind::Shape => RecordKind::Shape,
            MemoKind::Transition => RecordKind::Transition,
            MemoKind::Subsumption => RecordKind::Subsumption,
        }
    }
}

/// The value of one memo record, whatever its kind, in the canonical names of its key
/// (a [`hat_sfa::MemoAnswer`] carries the same value in the asking query's names).
/// Payloads sit behind an [`Arc`], so promoting a record between tiers or answering a
/// lookup never deep-copies it.
#[derive(Debug, Clone, PartialEq)]
pub enum MemoValue {
    /// A verdict bit (`S`, `I`, `D` and `U` records).
    Verdict(bool),
    /// A canonical minterm set (`M` records).
    Minterms(Arc<MintermSet>),
    /// A canonical successor automaton (`T` records, never written to disk).
    Transition(Arc<Sfa>),
}

impl From<bool> for MemoValue {
    fn from(verdict: bool) -> Self {
        MemoValue::Verdict(verdict)
    }
}

impl From<MintermSet> for MemoValue {
    fn from(set: MintermSet) -> Self {
        MemoValue::Minterms(Arc::new(set))
    }
}

impl From<Sfa> for MemoValue {
    fn from(succ: Sfa) -> Self {
        MemoValue::Transition(Arc::new(succ))
    }
}

/// Serialises one record of a persisted kind as the line it occupies in a segment.
fn record_line(kind: RecordKind, key: &str, value: &MemoValue) -> String {
    let tag = kind.tag();
    match value {
        MemoValue::Verdict(verdict) => format!("{tag}{}\t{key}", u8::from(*verdict)),
        MemoValue::Minterms(set) => format!("{tag}\t{key}\t{}", ser_minterm_set(set)),
        MemoValue::Transition(_) => unreachable!("`T` records are never written"),
    }
}

/// Parses one record line of a segment body.
/// `None` for a line no record grammar of a persisted kind accepts, including an `M`
/// line whose payload does not parse exactly: a torn payload degrades to a cold entry,
/// never a wrong one.
fn parse_record(line: &str) -> Option<(RecordKind, &str, MemoValue)> {
    let (head, rest) = line.split_once('\t')?;
    let kind = RecordKind::from_tag(head.get(..1)?).filter(|kind| kind.is_persisted())?;
    let (key, value) = match (kind, &head[1..]) {
        (RecordKind::Minterms, "") => {
            let (key, payload) = rest.split_once('\t')?;
            (key, parse_minterm_set(payload)?.into())
        }
        (RecordKind::Minterms, _) => return None,
        (_, "0") => (rest, MemoValue::Verdict(false)),
        (_, "1") => (rest, MemoValue::Verdict(true)),
        _ => return None,
    };
    Some((kind, key, value))
}

hat_sfa::counters! {
    /// A point-in-time snapshot of the store counters (or the delta between two).
    pub struct CacheStatsSnapshot {
        /// Queries answered from a memo tier (local, shared or disk).
        hits: usize,
        /// Queries that missed every tier and had to be solved.
        misses: usize,
        /// Entries replayed from segments at startup.
        disk_loaded: usize,
        /// Disk lines, segments (by record count) or whole files ignored as unreadable or
        /// from another version.
        stale: usize,
        /// Alphabet transformations answered from the minterm-set memo.
        minterm_hits: usize,
        /// Alphabet transformations that had to be enumerated.
        minterm_misses: usize,
        /// DFA transitions answered from the transition memo.
        transition_hits: usize,
        /// DFA transitions that had to be derived.
        transition_misses: usize,
        /// Simulation-subsumption orders answered from the `U` memo.
        subsumption_hits: usize,
        /// Simulation-subsumption probes that missed the `U` memo (the walk falls back to
        /// its local fixpoint — no solver query is implied, which is why these are counted
        /// apart from [`misses`](CacheStatsSnapshot::misses)).
        subsumption_misses: usize,
        /// Shared-tier shard-lock acquisitions, across every record kind. Per-worker local
        /// tiers exist to keep this flat while hit counts grow.
        lock_acquisitions: usize,
        /// Disk-tier lock acquisitions (read-through fallbacks and promotions). The
        /// background LSM thread never contributes here — asserted in
        /// `engine/tests/tiers.rs`.
        disk_lock_acquisitions: usize,
    }
}

impl CacheStatsSnapshot {
    /// Fraction of lookups answered from the cache, in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The store counters. Hits and misses are counted per kind (indexed by
/// `kind as usize`) and split into the [`CacheStatsSnapshot`] fields by
/// [`MemoStore::stats`].
#[derive(Debug, Default)]
struct CacheCounters {
    hits: [AtomicUsize; 6],
    misses: [AtomicUsize; 6],
    disk_loaded: AtomicUsize,
    stale: AtomicUsize,
}

/// The sidecar lock guarding a disk store against concurrent writers. Created with
/// `create_new` (atomic on every serious filesystem), holding the owner's PID; removed
/// on drop. A lock whose holder no longer exists (per `/proc`) is reclaimed.
#[derive(Debug)]
struct CacheLock {
    path: PathBuf,
}

fn lock_path_for(log_path: &Path) -> PathBuf {
    let mut name = log_path.file_name().unwrap_or_default().to_os_string();
    name.push(".lock");
    log_path.with_file_name(name)
}

/// The advertised-address sidecar of a cache: a long-lived `marpled` daemon that owns
/// `<path>` writes its listen address to `<path>.addr` so batch invocations that find
/// the lock held can tell the user exactly how to reach the warm store.
pub fn addr_path_for(log_path: &Path) -> PathBuf {
    let mut name = log_path.file_name().unwrap_or_default().to_os_string();
    name.push(".addr");
    log_path.with_file_name(name)
}

/// Who holds a cache's single-writer lock (see [`MemoStore::lock_holder`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockHolder {
    /// PID written into the sidecar lock file.
    pub pid: u32,
    /// The holder's process name (`/proc/<pid>/comm`), when it can be read.
    pub name: Option<String>,
    /// The holder's advertised service address (`<path>.addr`), when one exists —
    /// written by a `marpled` daemon so lock-contended batch runs can suggest
    /// `--remote`.
    pub service_addr: Option<String>,
}

impl LockHolder {
    /// Whether the holder looks like a `marpled` verification daemon.
    pub fn is_daemon(&self) -> bool {
        self.name.as_deref() == Some("marpled") || self.service_addr.is_some()
    }
}

fn lock_holder_is_alive(lock_path: &Path) -> bool {
    let Ok(contents) = std::fs::read_to_string(lock_path) else {
        // Unreadable (racing creation, permissions): assume the holder is alive.
        return true;
    };
    let Ok(pid) = contents.trim().parse::<u32>() else {
        return true;
    };
    if !Path::new("/proc").is_dir() {
        // No way to probe liveness on this platform: assume alive (degrading to
        // in-memory is always safe; deleting a live writer's lock is not).
        return true;
    }
    Path::new(&format!("/proc/{pid}")).exists()
}

impl CacheLock {
    /// Tries to take the single-writer lock for `log_path`. `Ok(None)` means another
    /// live process holds it — the caller must degrade to in-memory operation. Real I/O
    /// failures (unwritable or missing directory) are propagated so the caller can
    /// report the actual problem instead of mis-diagnosing it as contention.
    fn acquire(log_path: &Path) -> std::io::Result<Option<CacheLock>> {
        let path = lock_path_for(log_path);
        // Two attempts: the second retries after reclaiming a stale lock.
        for _ in 0..2 {
            match OpenOptions::new().write(true).create_new(true).open(&path) {
                Ok(mut file) => {
                    let _ = write!(file, "{}", std::process::id());
                    return Ok(Some(CacheLock { path }));
                }
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                    if lock_holder_is_alive(&path) {
                        return Ok(None);
                    }
                    // The holder died without cleaning up. Reclaim atomically: rename
                    // the stale file to a per-process name, so of two racing
                    // reclaimers exactly one wins the rename — remove-then-create
                    // would let the loser delete the winner's freshly taken lock and
                    // reintroduce the double-writer hazard. Whoever loses any race
                    // here simply finds a *live* lock on the retry and degrades.
                    let mut claim = path.clone().into_os_string();
                    claim.push(format!(".reclaim.{}", std::process::id()));
                    let claim = PathBuf::from(claim);
                    if std::fs::rename(&path, &claim).is_ok() {
                        let _ = std::fs::remove_file(&claim);
                    }
                }
                Err(e) => return Err(e),
            }
        }
        Ok(None)
    }
}

impl Drop for CacheLock {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// The result of one [`MemoStore::compact`] pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactionReport {
    /// Segment bytes before the pass.
    pub bytes_before: u64,
    /// Segment bytes after the pass.
    pub bytes_after: u64,
    /// Record lines across live segments before the pass.
    pub records_before: usize,
    /// Record lines after the pass — exactly the live entries.
    pub records_after: usize,
}

/// What a read-only scan of a cache (manifest + segments) found (CLI: `marple cache
/// stats`). Never takes the writer lock, so it works — and prints honest numbers —
/// while a daemon owns the store.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheFileStats {
    /// The header line, when the file is non-empty.
    pub header: Option<String>,
    /// The format version, when the header is a known `hat-engine-cache` header.
    pub version: Option<u32>,
    /// Live (first-occurrence, well-formed) solver-verdict records.
    pub solver: usize,
    /// Live inclusion-verdict records.
    pub inclusion: usize,
    /// Live DFA-shape records.
    pub shape: usize,
    /// Live minterm-set records.
    pub minterms: usize,
    /// Records in `T` segments the manifest still names. Only a store last written by
    /// a binary that persisted transitions has any: they are never read, count as
    /// neither live nor dead, and the next locked open drops them.
    pub transitions: usize,
    /// Records in `U` segments the manifest still names, on the same terms as
    /// [`transitions`](CacheFileStats::transitions).
    pub subsumption: usize,
    /// Records whose key already occurred in a newer segment or earlier line
    /// (superseded — compaction drops them).
    pub duplicates: usize,
    /// Lines that parse under no record grammar, plus the claimed records of torn
    /// segments (compaction drops them).
    pub malformed: usize,
    /// Segment files named by the manifest.
    pub segments: usize,
    /// Segments named by the manifest but missing, header-mismatched or truncated —
    /// every record in them degrades to cold.
    pub torn_segments: usize,
    /// Manifest plus the bytes of the segments read (a foreign file: its size).
    pub bytes: u64,
}

impl CacheFileStats {
    /// Total live records: those a warm open loads.
    pub fn live(&self) -> usize {
        self.solver + self.inclusion + self.shape + self.minterms
    }

    /// Total dead records (duplicates plus malformed lines).
    pub fn dead(&self) -> usize {
        self.duplicates + self.malformed
    }

    /// Dead share of all records, in `[0, 1]`.
    pub fn dead_ratio(&self) -> f64 {
        let total = self.live() + self.dead();
        if total == 0 {
            0.0
        } else {
            self.dead() as f64 / total as f64
        }
    }

    /// Tallies one record line, deduplicating against the keys already `seen` per kind
    /// (newest segment first).
    fn tally(&mut self, line: &str, seen: &mut [HashSet<String>; 6]) {
        match parse_record(line) {
            Some((kind, key, _)) if seen[kind as usize].insert(key.to_string()) => {
                *self.count_mut(kind) += 1;
            }
            Some(_) => self.duplicates += 1,
            None => self.malformed += 1,
        }
    }

    fn count_mut(&mut self, kind: RecordKind) -> &mut usize {
        match kind {
            RecordKind::Solver => &mut self.solver,
            RecordKind::Inclusion => &mut self.inclusion,
            RecordKind::Shape => &mut self.shape,
            RecordKind::Minterms => &mut self.minterms,
            RecordKind::Transition => &mut self.transitions,
            RecordKind::Subsumption => &mut self.subsumption,
        }
    }
}

/// The concurrent tiered memo store shared by every worker of a verification run: the
/// shared-tier and disk-tier levels of the hierarchy (workers add their own local tier
/// in front; see [`crate::tier`]), plus the LSM write path that makes fresh records
/// durable (see [`crate::lsm`]).
pub struct MemoStore {
    /// One shared tier per kind, indexed by `kind as usize`.
    shared: [SharedTier<MemoValue>; 6],
    /// One disk tier per kind: the image of the segment stack, replayed at open.
    disk: [DiskTier<MemoValue>; 6],
    /// Declared before `lock`: struct fields drop in declaration order, so the LSM
    /// backend drains its memtable and joins its background thread while the
    /// single-writer lock is still held.
    lsm: Option<Lsm>,
    /// Held for the lifetime of a disk-backed store; releasing it (drop) lets the next
    /// opener write.
    #[allow(dead_code)]
    lock: Option<CacheLock>,
    path: Option<PathBuf>,
    /// Set when another live process held the store's lock at open time: the store
    /// loaded what it could read-only and runs in-memory, never writing to the
    /// contested files.
    degraded: bool,
    counters: CacheCounters,
}

impl std::fmt::Debug for MemoStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemoStore")
            .field("entries", &self.len())
            .field("path", &self.path)
            .field("degraded", &self.degraded)
            .field("stats", &self.stats())
            .finish()
    }
}

impl Default for MemoStore {
    fn default() -> Self {
        Self::in_memory()
    }
}

impl MemoStore {
    fn empty() -> Self {
        MemoStore {
            shared: Default::default(),
            disk: Default::default(),
            lsm: None,
            lock: None,
            path: None,
            degraded: false,
            counters: CacheCounters::default(),
        }
    }

    /// A purely in-memory store (no persistence).
    ///
    /// ```
    /// use hat_engine::{MemoStore, MemoValue, RecordKind};
    ///
    /// let cache = MemoStore::in_memory();
    /// assert_eq!(cache.lookup(RecordKind::Solver, "sat|k"), None);
    /// cache.insert(RecordKind::Solver, "sat|k".into(), true.into());
    /// assert_eq!(cache.lookup(RecordKind::Solver, "sat|k"), Some(MemoValue::Verdict(true)));
    /// let stats = cache.stats();
    /// assert_eq!((stats.hits, stats.misses), (1, 1));
    /// ```
    pub fn in_memory() -> Self {
        Self::empty()
    }

    /// A store backed by the LSM disk store at `path`, with the default
    /// [`LsmConfig::from_env`] tuning. See [`MemoStore::with_disk_log_config`].
    pub fn with_disk_log(path: impl AsRef<Path>) -> std::io::Result<Self> {
        Self::with_disk_log_config(path, LsmConfig::from_env())
    }

    /// A store backed by the LSM disk store at `path` (`path` is the manifest;
    /// segments live under `<path>.d/`). Existing segments are replayed into the disk
    /// tiers (warm start) and fresh verdicts flow through the memtable to new segments.
    /// Segments of the in-process kinds `T` and `U` are skipped unread; a locked open
    /// drops them from the manifest and deletes their files.
    /// A store whose replay found enough dead records gets an immediate compaction
    /// nudge. A file whose header belongs to any other format version, older or newer,
    /// is left untouched: the store runs in-memory only and counts the file as stale
    /// (destroying data a newer binary wrote would be worse than running cold).
    ///
    /// Opening takes the sidecar lock `<path>.lock`. If another live process holds it,
    /// this store **degrades to in-memory** (entries are still replayed read-only for a
    /// warm start, but nothing is flushed, compacted or garbage-collected)
    /// and [`MemoStore::degraded`] reports `true`.
    pub fn with_disk_log_config(
        path: impl AsRef<Path>,
        config: LsmConfig,
    ) -> std::io::Result<Self> {
        let mut cache = Self::empty();
        let path = path.as_ref();
        cache.path = Some(path.to_path_buf());
        let lock = CacheLock::acquire(path)?;
        if lock.is_none() {
            cache.degraded = true;
            match Self::lock_holder(path) {
                Some(holder) if holder.is_daemon() => {
                    let reach = match &holder.service_addr {
                        Some(addr) => format!("rerun with `--remote {addr}` to use its warm store"),
                        None => {
                            "rerun with `--remote <its address>` to use its warm store".to_string()
                        }
                    };
                    eprintln!(
                        "warning: cache `{}` is owned by a running marpled daemon (pid {}); \
                         {reach} — this run keeps its verdicts in memory only",
                        path.display(),
                        holder.pid
                    );
                }
                Some(holder) => eprintln!(
                    "warning: cache `{}` is locked by another process (pid {}{}); this run \
                     keeps its verdicts in memory only",
                    path.display(),
                    holder.pid,
                    holder
                        .name
                        .as_deref()
                        .map(|n| format!(", `{n}`"))
                        .unwrap_or_default()
                ),
                None => eprintln!(
                    "warning: cache `{}` is locked by another process; this run keeps its \
                     verdicts in memory only",
                    path.display()
                ),
            }
        }
        let mut duplicates = 0usize;
        let mut stale_lines = 0usize;
        let mut manifest = None;
        let mut dropped_segments = false;
        if path.exists() {
            if let Some((mut state, malformed)) = lsm::read_manifest(path)? {
                stale_lines += malformed;
                // `T` and `U` segments of a store written when those kinds were persisted:
                // never read, neither loaded nor stale. A locked open commits the
                // manifest without them below, and `gc_orphans` unlinks their files.
                let named = state.segments.len();
                state.segments.retain(|s| s.kind.is_persisted());
                dropped_segments = state.segments.len() < named;
                let dir = lsm::segment_dir_for(path);
                // Newest segment first, so the first occurrence of a key — the one
                // `put_quiet` keeps — is the newest record.
                let mut segments = state.segments.clone();
                segments.sort_by_key(|s| std::cmp::Reverse(s.seq));
                for meta in &segments {
                    let scan = lsm::read_segment(&dir, meta);
                    if scan.torn {
                        // The whole segment degrades to cold: losing cache entries is
                        // recoverable, trusting a half-written segment is not.
                        stale_lines += meta.records;
                        continue;
                    }
                    for line in &scan.lines {
                        cache.replay(line, &mut duplicates, &mut stale_lines);
                    }
                }
                manifest = Some(state);
            } else if BufReader::new(File::open(path)?).lines().next().is_some() {
                // Not a v6 manifest and not empty: a different format version (v5 and
                // older included) or not a cache file at all. Do not write to it — and
                // release the writer lock, since this store will never use it.
                cache.counters.stale.fetch_add(1, Ordering::Relaxed);
                return Ok(cache);
            }
        }
        cache
            .counters
            .stale
            .fetch_add(stale_lines, Ordering::Relaxed);
        if cache.degraded {
            // Another process owns the store: warm entries are loaded, but no writes,
            // no compaction, no orphan GC.
            return Ok(cache);
        }
        // A missing or empty file gets the empty manifest up front, so the path always
        // carries the v6 header — a pre-v6 binary opening it later sees a foreign
        // version and safely runs in-memory instead of appending to a manifest. A
        // manifest that named `T`/`U` segments is committed without them before
        // `Lsm::start` collects their files as orphans.
        let (state, commit) = match manifest {
            Some(state) => (state, dropped_segments),
            None => (ManifestState::default(), true),
        };
        if commit {
            lsm::write_manifest(path, &state)?;
        }
        let lsm = Lsm::start(path, state, config)?;
        // Dead records (cross-segment duplicates from merged runs, torn segments,
        // malformed lines) past the threshold get the compaction nudge a CLI
        // `cache compact` would give.
        let dead = duplicates + stale_lines;
        let live = cache.counters.disk_loaded.load(Ordering::Relaxed);
        if dead >= AUTO_COMPACT_MIN_DEAD && dead * AUTO_COMPACT_RATIO >= live + dead {
            let _ = lsm.compact();
        }
        cache.lsm = Some(lsm);
        cache.lock = lock;
        Ok(cache)
    }

    /// Replays one record line into the disk tier of its kind, counting it loaded,
    /// duplicate (an earlier replayed line held the key) or stale (malformed).
    fn replay(&self, line: &str, duplicates: &mut usize, stale: &mut usize) {
        match parse_record(line) {
            Some((kind, key, value)) => {
                if self.disk[kind as usize].put_quiet(key.to_string(), value) {
                    self.counters.disk_loaded.fetch_add(1, Ordering::Relaxed);
                } else {
                    *duplicates += 1;
                }
            }
            None => *stale += 1,
        }
    }

    /// Whether lock contention forced this store to run in-memory despite a configured
    /// disk store.
    pub fn degraded(&self) -> bool {
        self.degraded
    }

    /// Who currently holds the single-writer lock of the store at `path`, if anyone:
    /// the PID from the sidecar lock file, the process name from `/proc` when
    /// available, and the advertised service address from `<path>.addr` when a
    /// `marpled` daemon wrote one. `None` when no lock file exists or it is
    /// unreadable.
    pub fn lock_holder(path: impl AsRef<Path>) -> Option<LockHolder> {
        let path = path.as_ref();
        let contents = std::fs::read_to_string(lock_path_for(path)).ok()?;
        let pid = contents.trim().parse::<u32>().ok()?;
        let name = std::fs::read_to_string(format!("/proc/{pid}/comm"))
            .ok()
            .map(|s| s.trim().to_string());
        let service_addr = std::fs::read_to_string(addr_path_for(path))
            .ok()
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty());
        Some(LockHolder {
            pid,
            name,
            service_addr,
        })
    }

    /// Drains the memtable, then compacts only when some segment family has reached
    /// the merge fan-in — i.e. when a compaction would actually do work. Returns
    /// `Ok(None)` when the store is healthy (or in-memory / degraded — nothing to
    /// compact then). A long-lived daemon calls this on graceful shutdown so the
    /// segment stack it leaves behind is tidy without paying a merge on every exit.
    pub fn compact_if_needed(&self) -> std::io::Result<Option<CompactionReport>> {
        let Some(lsm) = &self.lsm else {
            return Ok(None);
        };
        lsm.drain();
        if lsm.wants_compaction() {
            self.compact().map(Some)
        } else {
            Ok(None)
        }
    }

    /// Scans the cache at `path` read-only — no lock taken, nothing written — and
    /// reports per-kind live counts, dead records, segment counts and the header
    /// version. Works while another process (e.g. a live daemon) owns the
    /// store: the manifest and segments are immutable once written, so the worst a
    /// concurrent commit can do is make the scan see the previous manifest, which was
    /// equally honest.
    pub fn inspect(path: impl AsRef<Path>) -> std::io::Result<CacheFileStats> {
        let path = path.as_ref();
        let mut stats = CacheFileStats {
            bytes: std::fs::metadata(path)?.len(),
            ..CacheFileStats::default()
        };
        if let Some((state, malformed)) = lsm::read_manifest(path)? {
            stats.version = Some(6);
            stats.header = Some(lsm::MANIFEST_HEADER_V6.to_string());
            stats.malformed += malformed;
            stats.segments = state.segments.len();
            let dir = lsm::segment_dir_for(path);
            let mut segments = state.segments.clone();
            segments.sort_by_key(|s| std::cmp::Reverse(s.seq));
            let mut seen: [HashSet<String>; 6] = Default::default();
            for meta in &segments {
                if !meta.kind.is_persisted() {
                    *stats.count_mut(meta.kind) += meta.records;
                    continue;
                }
                let scan = lsm::read_segment(&dir, meta);
                if scan.torn {
                    stats.torn_segments += 1;
                    stats.malformed += meta.records;
                    continue;
                }
                stats.bytes += std::fs::metadata(dir.join(meta.file_name()))
                    .map(|m| m.len())
                    .unwrap_or(meta.bytes);
                for line in &scan.lines {
                    stats.tally(line, &mut seen);
                }
            }
            return Ok(stats);
        }
        // A foreign file (v5 and older included): nothing beyond the header is ours to
        // judge.
        if let Some(Ok(header)) = BufReader::new(File::open(path)?).lines().next() {
            stats.header = Some(header);
        }
        Ok(stats)
    }

    /// Compacts the segment stack: drains the memtable, then asks the background
    /// thread to merge every multi-segment family down to one segment — newest record
    /// wins; duplicates, torn segments and malformed lines are gone. Blocks for the
    /// outcome but never blocks concurrent readers or workers (the merge itself runs
    /// on the background thread and takes no tier locks). Errors for an in-memory
    /// store and for one that degraded at open (the contested store belongs to the
    /// lock holder).
    pub fn compact(&self) -> std::io::Result<CompactionReport> {
        let Some(lsm) = &self.lsm else {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                if self.degraded {
                    "cache degraded to in-memory (log locked by another process)"
                } else {
                    "cache has no disk log to compact"
                },
            ));
        };
        let outcome = lsm.compact();
        Ok(CompactionReport {
            bytes_before: outcome.bytes_before,
            bytes_after: outcome.bytes_after,
            records_before: outcome.records_before,
            records_after: outcome.records_after,
        })
    }

    /// A snapshot of the LSM backend counters (rotations, flushes, merges, write
    /// amplification), when this store writes to disk.
    pub fn lsm_stats(&self) -> Option<LsmStatsSnapshot> {
        self.lsm.as_ref().map(|l| l.stats_snapshot())
    }

    /// A clone of the live manifest state (segment set), when this store writes to
    /// disk.
    pub fn manifest(&self) -> Option<ManifestState> {
        self.lsm.as_ref().map(|l| l.state_snapshot())
    }

    /// Records buffered in the memtable, not yet rotated to the background thread.
    pub fn memtable_records(&self) -> usize {
        self.lsm.as_ref().map(|l| l.memtable_records()).unwrap_or(0)
    }

    /// Records a local-tier hit for `kind` in the store-wide hit counters, so snapshots
    /// keep meaning "answered from a memo" no matter which tier answered.
    pub fn note_local_hit(&self, kind: RecordKind) {
        self.counters.hits[kind as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// Looks a record up: shared tier first, then read-through to the disk tier,
    /// promoting (moving) a disk hit into the shared tier so each warm record pays its
    /// disk-tier lock at most once. Counts a hit or a miss for `kind` either way.
    pub fn lookup(&self, kind: RecordKind, key: &str) -> Option<MemoValue> {
        let shared = &self.shared[kind as usize];
        let disk = &self.disk[kind as usize];
        let found = shared.get(key).or_else(|| {
            let found = disk.get(key)?;
            // Promotion is replay-like bookkeeping, not new contention: uncounted in
            // the shared tier. Racing promotions both write the same value.
            shared.put_quiet(key.to_string(), found.clone());
            disk.evict(key);
            Some(found)
        });
        let counter = match found {
            Some(_) => &self.counters.hits[kind as usize],
            None => &self.counters.misses[kind as usize],
        };
        counter.fetch_add(1, Ordering::Relaxed);
        found
    }

    /// Records a value in the shared tier of `kind`; when the insert is fresh, the kind
    /// is one a warm run reads (not `T` or `U`) and this store writes to disk,
    /// serialises the record and logs it to the LSM memtable. Racing inserts of the
    /// same key are harmless: canonical keys determine their value. (An insert whose
    /// key was never looked up can duplicate a record that sits un-promoted in the disk
    /// tier — compaction drops such duplicates.)
    pub fn insert(&self, kind: RecordKind, key: String, value: MemoValue) {
        let fresh = self.shared[kind as usize].put(key.clone(), value.clone());
        if let (true, Some(lsm)) = (fresh && kind.is_persisted(), &self.lsm) {
            lsm.log(kind, &key, record_line(kind, &key, &value));
        }
    }

    /// Drains the memtable to durable segments (called at the end of a run; also
    /// happens on drop). Cheap when the memtable is empty.
    pub fn flush(&self) {
        if let Some(lsm) = &self.lsm {
            lsm.drain();
        }
    }

    /// Number of cached verdicts (the four verdict kinds `S`, `I`, `D` and `U`; shared
    /// and un-promoted disk entries together — promotion moves records between the
    /// two, keeping the total stable).
    pub fn len(&self) -> usize {
        RecordKind::ALL
            .into_iter()
            .filter(|kind| kind.is_verdict())
            .map(|kind| self.shared[kind as usize].len() + self.disk[kind as usize].len())
            .sum()
    }

    /// Whether the store holds no verdicts.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A snapshot of the hit/miss/disk/lock counters. Subsumption probes keep their
    /// own counters: a `U` miss costs a local fixpoint, not a solver query, so it must
    /// not dilute the solver-facing miss count.
    pub fn stats(&self) -> CacheStatsSnapshot {
        let hits = |kind: RecordKind| self.counters.hits[kind as usize].load(Ordering::Relaxed);
        let misses = |kind: RecordKind| self.counters.misses[kind as usize].load(Ordering::Relaxed);
        let solver_facing = [RecordKind::Solver, RecordKind::Inclusion, RecordKind::Shape];
        CacheStatsSnapshot {
            hits: solver_facing.into_iter().map(hits).sum(),
            misses: solver_facing.into_iter().map(misses).sum(),
            disk_loaded: self.counters.disk_loaded.load(Ordering::Relaxed),
            stale: self.counters.stale.load(Ordering::Relaxed),
            minterm_hits: hits(RecordKind::Minterms),
            minterm_misses: misses(RecordKind::Minterms),
            transition_hits: hits(RecordKind::Transition),
            transition_misses: misses(RecordKind::Transition),
            subsumption_hits: hits(RecordKind::Subsumption),
            subsumption_misses: misses(RecordKind::Subsumption),
            lock_acquisitions: self.shared.iter().map(SharedTier::lock_acquisitions).sum(),
            disk_lock_acquisitions: self.disk.iter().map(DiskTier::lock_acquisitions).sum(),
        }
    }
}

impl Drop for MemoStore {
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("hat-engine-test-{}-{name}", std::process::id()));
        p
    }

    /// Removes a test store: manifest, sidecar lock, rename scratch and segment dir.
    fn cleanup(path: &Path) {
        let _ = std::fs::remove_file(path);
        let _ = std::fs::remove_file(lock_path_for(path));
        let _ = std::fs::remove_file(path.with_extension("compacting"));
        let _ = std::fs::remove_dir_all(lsm::segment_dir_for(path));
    }

    /// Writes a v6 store by hand: one level-0 segment per entry of `segments`, holding
    /// its record lines verbatim (malformed ones included), newest last, then the
    /// manifest naming them all.
    fn write_store(path: &Path, segments: &[(RecordKind, &[&str])]) {
        let dir = lsm::segment_dir_for(path);
        std::fs::create_dir_all(&dir).unwrap();
        let mut state = ManifestState::default();
        for (kind, lines) in segments {
            let lines: Vec<(String, String)> = lines
                .iter()
                .map(|line| (String::new(), line.to_string()))
                .collect();
            let seq = state.next_seq;
            state.next_seq += 1;
            let meta = lsm::write_segment(&dir, *kind, 0, 0, seq, &lines).unwrap();
            state.segments.push(meta);
        }
        lsm::write_manifest(path, &state).unwrap();
    }

    #[test]
    fn lookup_miss_then_hit() {
        let cache = MemoStore::in_memory();
        assert_eq!(cache.lookup(RecordKind::Solver, "k"), None);
        cache.insert(RecordKind::Solver, "k".into(), true.into());
        assert_eq!(cache.lookup(RecordKind::Solver, "k"), Some(true.into()));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert!((stats.hit_rate() - 0.5).abs() < 1e-9);
        assert_eq!(
            stats.lock_acquisitions, 3,
            "two lookups and one insert are one shard lock each"
        );
        assert_eq!(
            stats.disk_lock_acquisitions, 1,
            "only the miss fell through to the (empty) disk tier"
        );
    }

    #[test]
    fn disk_log_roundtrip() {
        let path = temp_path("roundtrip");
        cleanup(&path);
        {
            let cache = MemoStore::with_disk_log(&path).unwrap();
            cache.insert(RecordKind::Solver, "alpha".into(), true.into());
            cache.insert(RecordKind::Solver, "beta".into(), false.into());
            cache.flush();
        }
        let warm = MemoStore::with_disk_log(&path).unwrap();
        assert_eq!(warm.len(), 2);
        assert_eq!(warm.stats().disk_loaded, 2);
        assert_eq!(warm.lookup(RecordKind::Solver, "alpha"), Some(true.into()));
        assert_eq!(warm.lookup(RecordKind::Solver, "beta"), Some(false.into()));
        assert_eq!(warm.stats().stale, 0);
        let contents = std::fs::read_to_string(&path).unwrap();
        assert!(
            contents.starts_with(lsm::MANIFEST_HEADER_V6),
            "the cache path is the v6 manifest, got: {contents:?}"
        );
        cleanup(&path);
    }

    #[test]
    fn duplicate_inserts_are_logged_once() {
        let path = temp_path("dedup");
        cleanup(&path);
        {
            let cache = MemoStore::with_disk_log(&path).unwrap();
            cache.insert(RecordKind::Solver, "k".into(), true.into());
            cache.insert(RecordKind::Solver, "k".into(), true.into());
        }
        let warm = MemoStore::with_disk_log(&path).unwrap();
        assert_eq!(warm.stats().disk_loaded, 1);
        drop(warm);
        let stats = MemoStore::inspect(&path).unwrap();
        assert_eq!((stats.solver, stats.duplicates), (1, 0));
        cleanup(&path);
    }

    #[test]
    fn unknown_header_is_ignored_and_left_untouched() {
        let path = temp_path("stale");
        // A newer binary's header, and the flat-log headers of older binaries, which
        // are no longer migrated: each is as foreign as the other.
        for header in [
            "hat-engine-cache v999",
            "hat-engine-cache v1",
            "hat-engine-cache v2",
            "hat-engine-cache v3",
            "hat-engine-cache v4",
            "hat-engine-cache v5",
        ] {
            cleanup(&path);
            let foreign = format!("{header}\nS1\tk\n");
            std::fs::write(&path, &foreign).unwrap();
            let cache = MemoStore::with_disk_log(&path).unwrap();
            assert_eq!(cache.len(), 0, "{header}");
            assert_eq!(cache.stats().stale, 1, "{header}");
            // The cache degrades to in-memory: inserts work but are not persisted, and
            // the foreign file's contents survive byte for byte.
            cache.insert(RecordKind::Solver, "k2".into(), false.into());
            cache.flush();
            drop(cache);
            assert_eq!(std::fs::read_to_string(&path).unwrap(), foreign);
            assert!(
                !lsm::segment_dir_for(&path).exists(),
                "no segment directory may appear next to a foreign file ({header})"
            );
        }
        cleanup(&path);
    }

    #[test]
    fn shape_verdicts_roundtrip_through_the_disk_log() {
        let path = temp_path("shape-roundtrip");
        cleanup(&path);
        {
            let cache = MemoStore::with_disk_log(&path).unwrap();
            assert_eq!(cache.lookup(RecordKind::Shape, "shape|a"), None);
            cache.insert(RecordKind::Shape, "shape|a".into(), true.into());
            cache.insert(RecordKind::Shape, "shape|b".into(), false.into());
        }
        let warm = MemoStore::with_disk_log(&path).unwrap();
        assert_eq!(warm.stats().disk_loaded, 2);
        assert_eq!(warm.lookup(RecordKind::Shape, "shape|a"), Some(true.into()));
        assert_eq!(
            warm.lookup(RecordKind::Shape, "shape|b"),
            Some(false.into())
        );
        cleanup(&path);
    }

    #[test]
    fn solver_inclusion_and_shape_namespaces_never_collide() {
        let cache = MemoStore::in_memory();
        cache.insert(RecordKind::Solver, "shared-key".into(), true.into());
        assert_eq!(cache.lookup(RecordKind::Inclusion, "shared-key"), None);
        assert_eq!(cache.lookup(RecordKind::Shape, "shared-key"), None);
        cache.insert(RecordKind::Inclusion, "shared-key".into(), false.into());
        cache.insert(RecordKind::Shape, "shared-key".into(), true.into());
        assert_eq!(
            cache.lookup(RecordKind::Solver, "shared-key"),
            Some(true.into())
        );
        assert_eq!(
            cache.lookup(RecordKind::Inclusion, "shared-key"),
            Some(false.into())
        );
        assert_eq!(
            cache.lookup(RecordKind::Shape, "shared-key"),
            Some(true.into())
        );
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn inclusion_verdicts_roundtrip_through_the_disk_log() {
        let path = temp_path("incl-roundtrip");
        cleanup(&path);
        {
            let cache = MemoStore::with_disk_log(&path).unwrap();
            cache.insert(RecordKind::Inclusion, "incl|a".into(), true.into());
            cache.insert(RecordKind::Solver, "sat|b".into(), false.into());
        }
        let warm = MemoStore::with_disk_log(&path).unwrap();
        assert_eq!(warm.stats().disk_loaded, 2);
        assert_eq!(
            warm.lookup(RecordKind::Inclusion, "incl|a"),
            Some(true.into())
        );
        assert_eq!(warm.lookup(RecordKind::Solver, "sat|b"), Some(false.into()));
        cleanup(&path);
    }

    #[test]
    fn minterm_sets_roundtrip_through_the_disk_log() {
        use hat_logic::{Atom, Term};
        use hat_sfa::Minterm;
        let path = temp_path("minterm-roundtrip");
        cleanup(&path);
        let set = MintermSet {
            minterms: vec![Minterm {
                op: "put".into(),
                assignment: vec![(Atom::Eq(Term::var("#arg0"), Term::var("$k0")), true)],
            }],
            uniform_literals: vec![Atom::Lt(Term::int(0), Term::var("$k0"))],
            pruned: 3,
            enum_queries: 5,
            from_memo: false,
        };
        {
            let cache = MemoStore::with_disk_log(&path).unwrap();
            assert!(cache.lookup(RecordKind::Minterms, "mt|x").is_none());
            cache.insert(RecordKind::Minterms, "mt|x".into(), set.clone().into());
            assert!(cache.lookup(RecordKind::Minterms, "mt|x").is_some());
            let stats = cache.stats();
            assert_eq!((stats.minterm_hits, stats.minterm_misses), (1, 1));
        }
        let warm = MemoStore::with_disk_log(&path).unwrap();
        let replayed = warm
            .lookup(RecordKind::Minterms, "mt|x")
            .expect("minterm sets are persisted as M records");
        let MemoValue::Minterms(replayed) = replayed else {
            panic!("an M record replays as a minterm set, got {replayed:?}");
        };
        assert_eq!(replayed.minterms, set.minterms);
        assert_eq!(replayed.uniform_literals, set.uniform_literals);
        assert_eq!(warm.stats().stale, 0);
        assert_eq!(warm.stats().disk_loaded, 1);
        cleanup(&path);
    }

    #[test]
    fn torn_minterm_payload_degrades_to_a_cold_entry() {
        let path = temp_path("torn-minterm");
        cleanup(&path);
        write_store(
            &path,
            &[
                (RecordKind::Solver, &["S1\tgood"]),
                (RecordKind::Minterms, &["M\tmt|x\tU0;M1;O3#put"]),
            ],
        );
        let cache = MemoStore::with_disk_log(&path).unwrap();
        assert_eq!(cache.lookup(RecordKind::Solver, "good"), Some(true.into()));
        assert!(
            cache.lookup(RecordKind::Minterms, "mt|x").is_none(),
            "a torn payload must not produce a wrong alphabet"
        );
        assert_eq!(cache.stats().stale, 1);
        cleanup(&path);
    }

    #[test]
    fn transition_and_subsumption_memos_stay_in_process() {
        let path = temp_path("in-process-kinds");
        cleanup(&path);
        {
            let cache = MemoStore::with_disk_log(&path).unwrap();
            assert!(cache.lookup(RecordKind::Transition, "tr|x").is_none());
            cache.insert(RecordKind::Transition, "tr|x".into(), Sfa::Zero.into());
            cache.insert(RecordKind::Subsumption, "sub|x".into(), true.into());
            assert_eq!(cache.memtable_records(), 0, "neither kind is logged");
            assert_eq!(
                cache.lookup(RecordKind::Transition, "tr|x"),
                Some(Sfa::Zero.into())
            );
            assert_eq!(
                cache.lookup(RecordKind::Subsumption, "sub|x"),
                Some(true.into())
            );
            let stats = cache.stats();
            assert_eq!((stats.transition_hits, stats.transition_misses), (1, 1));
            assert_eq!((stats.subsumption_hits, stats.subsumption_misses), (1, 0));
        }
        let warm = MemoStore::with_disk_log(&path).unwrap();
        assert_eq!(warm.lookup(RecordKind::Transition, "tr|x"), None);
        assert_eq!(warm.lookup(RecordKind::Subsumption, "sub|x"), None);
        assert_eq!((warm.stats().disk_loaded, warm.stats().stale), (0, 0));
        assert!(warm.manifest().unwrap().segments.is_empty());
        drop(warm);
        let stats = MemoStore::inspect(&path).unwrap();
        assert_eq!(
            (stats.transitions, stats.subsumption, stats.live()),
            (0, 0, 0)
        );
        cleanup(&path);
    }

    /// Writes a store the way binaries that persisted `T` and `U` left it: one
    /// segment for each of the six kinds, under the three-field segment header
    /// (no checksum) those binaries wrote.
    fn write_store_with_retired_kinds(path: &Path) {
        write_store(
            path,
            &[
                (RecordKind::Solver, &["S1\tsat|k"]),
                (RecordKind::Inclusion, &["I0\tincl|k"]),
                (RecordKind::Shape, &["D1\tshape|k"]),
                (RecordKind::Minterms, &["M\tmt|k\tU0;M0;P0;Q0;"]),
                (RecordKind::Transition, &["T\ttr|k\tZ", "T\ttr|j\tE"]),
                (RecordKind::Subsumption, &["U1\tsub|k"]),
            ],
        );
        for entry in std::fs::read_dir(lsm::segment_dir_for(path)).unwrap() {
            let file = entry.unwrap().path();
            let text = std::fs::read_to_string(&file).unwrap();
            let (header, body) = text.split_once('\n').unwrap();
            let (legacy, _checksum) = header.rsplit_once('\t').unwrap();
            std::fs::write(&file, format!("{legacy}\n{body}")).unwrap();
        }
    }

    /// Every file of a store — manifest and segment directory — by name, with its bytes.
    fn store_files(path: &Path) -> Vec<(String, Vec<u8>)> {
        let dir = lsm::segment_dir_for(path);
        let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .map(|e| {
                let name = e.file_name().to_string_lossy().into_owned();
                (name, std::fs::read(e.path()).unwrap())
            })
            .collect();
        files.sort();
        files.push(("<manifest>".into(), std::fs::read(path).unwrap()));
        files
    }

    /// Asserts what every open of [`write_store_with_retired_kinds`]'s store serves: the
    /// four persisted records, nothing stale, and no `T` or `U` record.
    fn assert_serves_only_persisted_kinds(cache: &MemoStore) {
        let stats = cache.stats();
        assert_eq!((stats.disk_loaded, stats.stale), (4, 0));
        assert_eq!(cache.lookup(RecordKind::Solver, "sat|k"), Some(true.into()));
        assert_eq!(
            cache.lookup(RecordKind::Inclusion, "incl|k"),
            Some(false.into())
        );
        assert_eq!(
            cache.lookup(RecordKind::Shape, "shape|k"),
            Some(true.into())
        );
        assert!(cache.lookup(RecordKind::Minterms, "mt|k").is_some());
        assert_eq!(cache.lookup(RecordKind::Transition, "tr|k"), None);
        assert_eq!(cache.lookup(RecordKind::Subsumption, "sub|k"), None);
    }

    #[test]
    fn a_locked_open_drops_retired_transition_and_subsumption_segments() {
        let path = temp_path("retired-kinds");
        cleanup(&path);
        write_store_with_retired_kinds(&path);
        let before = MemoStore::inspect(&path).unwrap();
        assert_eq!((before.transitions, before.subsumption), (2, 1));
        assert_eq!(before.live(), 4);
        {
            let cache = MemoStore::with_disk_log(&path).unwrap();
            assert!(!cache.degraded());
            assert_serves_only_persisted_kinds(&cache);
            let manifest = cache.manifest().unwrap();
            assert_eq!(manifest.segments.len(), 4);
            assert!(manifest.segments.iter().all(|s| s.kind.is_persisted()));
        }
        let (on_disk, _) = lsm::read_manifest(&path).unwrap().expect("v6 manifest");
        assert!(
            on_disk.segments.iter().all(|s| s.kind.is_persisted()),
            "the committed manifest names no `T` or `U` segment: {on_disk:?}"
        );
        let names: Vec<String> = store_files(&path).into_iter().map(|f| f.0).collect();
        assert!(
            !names
                .iter()
                .any(|n| n.starts_with("T-") || n.starts_with("U-")),
            "the retired segment files are unlinked: {names:?}"
        );
        let after = MemoStore::inspect(&path).unwrap();
        assert_eq!((after.transitions, after.subsumption), (0, 0));
        assert_eq!((after.live(), after.dead()), (4, 0));
        cleanup(&path);
    }

    #[test]
    fn a_degraded_open_skips_retired_segments_and_leaves_every_file_alone() {
        let path = temp_path("retired-kinds-degraded");
        cleanup(&path);
        write_store_with_retired_kinds(&path);
        // This process is alive, so its PID in the lock file makes the open degrade.
        std::fs::write(lock_path_for(&path), std::process::id().to_string()).unwrap();
        let before = store_files(&path);
        let cache = MemoStore::with_disk_log(&path).unwrap();
        assert!(cache.degraded());
        assert_serves_only_persisted_kinds(&cache);
        drop(cache);
        assert_eq!(
            store_files(&path),
            before,
            "a degraded open must leave the manifest and the segment files byte-identical"
        );
        cleanup(&path);
    }

    #[test]
    fn second_opener_degrades_to_in_memory_while_the_lock_is_held() {
        let path = temp_path("lock-contention");
        cleanup(&path);
        let first = MemoStore::with_disk_log(&path).unwrap();
        first.insert(RecordKind::Solver, "sat|k1".into(), true.into());
        first.flush();
        assert!(!first.degraded());
        // A second store on the same path (another process in real life) must not
        // write — two writers would race the manifest and the memtable.
        let second = MemoStore::with_disk_log(&path).unwrap();
        assert!(second.degraded(), "the lock is held by `first`");
        assert_eq!(
            second.lookup(RecordKind::Solver, "sat|k1"),
            Some(true.into()),
            "a degraded opener still warm-starts from the segments"
        );
        second.insert(RecordKind::Solver, "sat|k2".into(), false.into());
        second.flush();
        assert!(
            second.compact().is_err(),
            "a degraded store must not rewrite the contested store"
        );
        drop(second);
        drop(first);
        let reopened = MemoStore::with_disk_log(&path).unwrap();
        assert!(!reopened.degraded(), "the lock is released on drop");
        assert_eq!(
            reopened.lookup(RecordKind::Solver, "sat|k1"),
            Some(true.into())
        );
        assert_eq!(
            reopened.lookup(RecordKind::Solver, "sat|k2"),
            None,
            "the degraded store's inserts were memory-only"
        );
        cleanup(&path);
    }

    #[test]
    fn stale_lock_of_a_dead_process_is_reclaimed() {
        let path = temp_path("lock-stale");
        cleanup(&path);
        // No live process has this PID (PID_MAX on Linux is well below u32::MAX).
        std::fs::write(lock_path_for(&path), "4294967294").unwrap();
        let cache = MemoStore::with_disk_log(&path).unwrap();
        if Path::new("/proc").is_dir() {
            assert!(!cache.degraded(), "a dead holder's lock must be reclaimed");
            cache.insert(RecordKind::Solver, "sat|k".into(), true.into());
            drop(cache);
            let warm = MemoStore::with_disk_log(&path).unwrap();
            assert_eq!(warm.lookup(RecordKind::Solver, "sat|k"), Some(true.into()));
        } else {
            // Without /proc, liveness cannot be probed: degrading is the safe answer.
            assert!(cache.degraded());
        }
        cleanup(&path);
    }

    #[test]
    fn compact_drops_cross_segment_duplicates_and_keeps_every_live_record() {
        let path = temp_path("compact");
        cleanup(&path);
        {
            let cache = MemoStore::with_disk_log(&path).unwrap();
            for i in 0..10 {
                cache.insert(RecordKind::Solver, format!("sat|k{i}"), true.into());
            }
        }
        {
            // Second session: re-insert the same keys *without looking them up* — the
            // warm copies sit un-promoted in the disk tier, so the shared-tier inserts
            // are fresh and logged again, duplicating each record across segments.
            let cache = MemoStore::with_disk_log(&path).unwrap();
            for i in 0..10 {
                cache.insert(RecordKind::Solver, format!("sat|k{i}"), true.into());
            }
        }
        let stats = MemoStore::inspect(&path).unwrap();
        assert_eq!(stats.version, Some(6));
        assert_eq!((stats.solver, stats.duplicates), (10, 10));
        {
            let cache = MemoStore::with_disk_log(&path).unwrap();
            let report = cache.compact().unwrap();
            assert_eq!(report.records_after, 10);
            assert!(report.records_before > report.records_after);
            assert!(report.bytes_after < report.bytes_before);
            // Inserts after the compaction pass land in fresh segments.
            cache.insert(RecordKind::Solver, "sat|fresh".into(), true.into());
        }
        let stats = MemoStore::inspect(&path).unwrap();
        assert_eq!((stats.duplicates, stats.malformed), (0, 0));
        assert_eq!(stats.live(), 11);
        let warm = MemoStore::with_disk_log(&path).unwrap();
        for i in 0..10 {
            assert_eq!(
                warm.lookup(RecordKind::Solver, &format!("sat|k{i}")),
                Some(true.into())
            );
        }
        assert_eq!(
            warm.lookup(RecordKind::Solver, "sat|fresh"),
            Some(true.into())
        );
        cleanup(&path);
    }

    #[test]
    fn dead_records_past_the_threshold_compact_automatically() {
        let path = temp_path("auto-compact");
        cleanup(&path);
        for _ in 0..2 {
            let cache = MemoStore::with_disk_log(&path).unwrap();
            for i in 0..AUTO_COMPACT_MIN_DEAD {
                cache.insert(RecordKind::Solver, format!("sat|d{i}"), true.into());
            }
        }
        // The third open replays 16 live + 16 duplicate records: over the 1-in-4
        // ratio, so it nudges the compactor before returning.
        drop(MemoStore::with_disk_log(&path).unwrap());
        let stats = MemoStore::inspect(&path).unwrap();
        assert_eq!(
            stats.duplicates, 0,
            "opening must have merged the duplicate records away"
        );
        assert_eq!(stats.live(), AUTO_COMPACT_MIN_DEAD);
        let warm = MemoStore::with_disk_log(&path).unwrap();
        assert_eq!(warm.lookup(RecordKind::Solver, "sat|d0"), Some(true.into()));
        cleanup(&path);
    }

    #[test]
    fn a_few_dead_records_do_not_trigger_auto_compaction() {
        let path = temp_path("no-auto-compact");
        cleanup(&path);
        for _ in 0..2 {
            let cache = MemoStore::with_disk_log(&path).unwrap();
            cache.insert(RecordKind::Solver, "sat|k1".into(), true.into());
        }
        drop(MemoStore::with_disk_log(&path).unwrap());
        assert_eq!(
            MemoStore::inspect(&path).unwrap().duplicates,
            1,
            "below the threshold the segments are left as-is"
        );
        cleanup(&path);
    }

    #[test]
    fn warm_lookups_promote_out_of_the_disk_tier() {
        let path = temp_path("promote");
        cleanup(&path);
        {
            let cache = MemoStore::with_disk_log(&path).unwrap();
            for i in 0..3 {
                cache.insert(RecordKind::Solver, format!("sat|p{i}"), true.into());
            }
            cache.insert(
                RecordKind::Minterms,
                "mt|p".into(),
                MintermSet::default().into(),
            );
        }
        let warm = MemoStore::with_disk_log(&path).unwrap();
        assert_eq!(warm.len(), 3);
        assert_eq!(
            warm.stats().disk_lock_acquisitions,
            0,
            "replay is uncounted"
        );
        assert_eq!(warm.lookup(RecordKind::Solver, "sat|p0"), Some(true.into()));
        let after = warm.stats();
        assert_eq!(
            after.disk_lock_acquisitions, 2,
            "one read-through get plus one promotion evict"
        );
        assert_eq!(
            warm.len(),
            3,
            "promotion moves records, never duplicates them"
        );
        // The promoted key is now served by the shared tier: disk locks stay flat.
        assert_eq!(warm.lookup(RecordKind::Solver, "sat|p0"), Some(true.into()));
        assert_eq!(warm.stats().disk_lock_acquisitions, 2);
        // A minterm set takes the same path as a verdict.
        assert_eq!(
            warm.lookup(RecordKind::Minterms, "mt|p"),
            Some(MintermSet::default().into())
        );
        assert_eq!(
            warm.stats().disk_lock_acquisitions,
            4,
            "one read-through get plus one promotion evict"
        );
        assert_eq!(
            warm.lookup(RecordKind::Minterms, "mt|p"),
            Some(MintermSet::default().into())
        );
        assert_eq!(warm.stats().disk_lock_acquisitions, 4);
        assert_eq!(
            (warm.stats().minterm_hits, warm.stats().minterm_misses),
            (2, 0)
        );
        cleanup(&path);
    }

    #[test]
    fn inspect_reads_a_live_v6_store_without_its_lock() {
        let path = temp_path("inspect-live");
        cleanup(&path);
        let cache = MemoStore::with_disk_log(&path).unwrap();
        cache.insert(RecordKind::Solver, "sat|a".into(), true.into());
        cache.insert(
            RecordKind::Minterms,
            "mt|b".into(),
            MintermSet::default().into(),
        );
        cache.flush();
        // The store is alive and holds the writer lock; inspection must neither
        // block, nor degrade anything, nor touch the lock.
        assert!(lock_path_for(&path).exists());
        let stats = MemoStore::inspect(&path).unwrap();
        assert_eq!(stats.version, Some(6));
        assert_eq!((stats.solver, stats.minterms), (1, 1));
        assert!(stats.segments >= 1);
        assert_eq!(stats.torn_segments, 0);
        assert!(stats.bytes > 0);
        assert!(!cache.degraded());
        assert!(lock_path_for(&path).exists(), "inspect left the lock alone");
        drop(cache);
        cleanup(&path);
    }

    #[test]
    fn torn_segment_degrades_to_cold_not_corrupt() {
        let path = temp_path("torn-segment");
        cleanup(&path);
        {
            let cache = MemoStore::with_disk_log(&path).unwrap();
            cache.insert(RecordKind::Solver, "sat|solo".into(), true.into());
        }
        // Simulate a crash that mangled the segment after the manifest named it.
        let (state, _) = lsm::read_manifest(&path).unwrap().expect("v6 manifest");
        assert_eq!(state.segments.len(), 1);
        let seg_file = lsm::segment_dir_for(&path).join(state.segments[0].file_name());
        std::fs::write(&seg_file, "garbage").unwrap();
        {
            let warm = MemoStore::with_disk_log(&path).unwrap();
            assert_eq!(
                warm.lookup(RecordKind::Solver, "sat|solo"),
                None,
                "a torn segment is cold, never half-trusted"
            );
            assert_eq!(warm.stats().stale, 1, "the torn segment's record is stale");
            assert!(!warm.degraded());
            warm.insert(RecordKind::Solver, "sat|recovered".into(), true.into());
        }
        let warm = MemoStore::with_disk_log(&path).unwrap();
        assert_eq!(
            warm.lookup(RecordKind::Solver, "sat|recovered"),
            Some(true.into())
        );
        cleanup(&path);
    }

    #[test]
    fn inspect_reports_per_kind_counts_and_dead_records() {
        let path = temp_path("inspect");
        cleanup(&path);
        write_store(
            &path,
            &[
                (RecordKind::Solver, &["S1\tsat|k1", "S0\tsat|k2"]),
                (RecordKind::Solver, &["S1\tsat|k1", "torn-line"]),
                (RecordKind::Inclusion, &["I1\tincl|k3"]),
                (RecordKind::Shape, &["D0\tshape|k4"]),
                (
                    RecordKind::Minterms,
                    &["M\tmt|k5\tU0;M0;P0;Q0;", "M\tmt|k6\tU0;M1;O3#put"],
                ),
            ],
        );
        let stats = MemoStore::inspect(&path).unwrap();
        assert_eq!(stats.version, Some(6));
        assert_eq!(stats.solver, 2);
        assert_eq!(stats.inclusion, 1);
        assert_eq!(stats.shape, 1);
        assert_eq!(stats.minterms, 1);
        assert_eq!(stats.duplicates, 1);
        assert_eq!(stats.malformed, 2, "torn payload + torn line");
        assert_eq!(stats.live(), 5);
        assert_eq!(stats.dead(), 3);
        assert!(stats.dead_ratio() > 0.3 && stats.dead_ratio() < 0.4);
        // Inspection is read-only: same result twice, no lock left behind.
        assert_eq!(MemoStore::inspect(&path).unwrap(), stats);
        assert!(!lock_path_for(&path).exists());
        cleanup(&path);
    }

    #[test]
    fn inspect_on_a_foreign_file_reads_only_the_header() {
        let path = temp_path("inspect-foreign");
        cleanup(&path);
        std::fs::write(&path, "hat-engine-cache v999\nS1\tk\n").unwrap();
        let stats = MemoStore::inspect(&path).unwrap();
        assert_eq!(stats.version, None);
        assert_eq!(stats.header.as_deref(), Some("hat-engine-cache v999"));
        assert_eq!(stats.live(), 0);
        cleanup(&path);
    }
}
