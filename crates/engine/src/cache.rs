//! The shared memo store: one [`SharedTier`] per record kind, optionally backed by
//! one store file ([`crate::store_file`]) so repeated runs start warm, and optionally
//! fronted by per-worker [`crate::tier::LocalTier`]s (composed in
//! [`crate::oracle::CachingOracle`]) so hot lookups touch no lock at all.
//!
//! Four record kinds share the store (see [`RecordKind`]), and every kind takes the
//! same path: [`MemoStore::lookup`] probes the shared tier, and [`MemoStore::insert`]
//! marks the store dirty when the shared insert is fresh. Values of every kind travel
//! as one [`MemoValue`]:
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
//!
//! # Disk format (v7)
//!
//! The cache path is one file (see [`crate::store_file`] and `docs/CACHE_FORMAT.md`):
//! the `hat-engine-cache v7` header, one record line per record, sorted, and a trailing
//! checksum. Record lines are `<kind><verdict>\t<key>` for `S`/`I`/`D` and
//! `M\t<key>\t<payload>` for minterm sets. Opening reads the file whole, straight into
//! the shared tiers; [`MemoStore::flush`] (at the end of every run, and on drop) writes
//! the shared tiers whole when a fresh record arrived since the last write.
//!
//! Properties:
//!
//! * **Single-writer locking.** Opening takes a sidecar lock (`<path>.lock`, holder PID
//!   inside). A second process finds the lock held and **degrades to in-memory** with a
//!   warning (the file is still read for a warm start, never written). A lock whose
//!   holder is dead is reclaimed. [`MemoStore::inspect`] never takes the lock at all —
//!   `marple cache stats` prints honest numbers even while a daemon owns the store.
//! * **Foreign files.** A file whose first line is not the v7 header — the v6 manifest
//!   and the flat v1–v5 logs of older binaries included — is ignored wholesale and
//!   counted as one stale entry: the store runs in-memory and never writes to it.
//! * **Torn files.** A v7 file whose checksum fails opens cold, counted as one stale
//!   entry, and the next write replaces it. A malformed line inside an intact file is
//!   skipped and counted stale. Neither can corrupt a verdict.

use crate::atomio::{parse_minterm_set, ser_minterm_set};
use crate::store_file::{self, Contents, LsmConfig, LsmStatsSnapshot, Writer};
use crate::tier::SharedTier;
use hat_sfa::MintermSet;
use std::collections::HashSet;
use std::fs::OpenOptions;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

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
}

impl RecordKind {
    /// Every kind, in disk order.
    pub(crate) const ALL: [RecordKind; 4] = [
        RecordKind::Solver,
        RecordKind::Inclusion,
        RecordKind::Shape,
        RecordKind::Minterms,
    ];

    /// The disk tag of this kind: the first byte of its record lines.
    pub fn tag(self) -> &'static str {
        match self {
            RecordKind::Solver => "S",
            RecordKind::Inclusion => "I",
            RecordKind::Shape => "D",
            RecordKind::Minterms => "M",
        }
    }

    /// The kind a disk tag names, if this binary knows it.
    pub(crate) fn from_tag(tag: &str) -> Option<RecordKind> {
        RecordKind::ALL.into_iter().find(|kind| kind.tag() == tag)
    }

    /// Whether records of this kind hold a verdict bit (rather than a payload).
    pub(crate) fn is_verdict(self) -> bool {
        self != RecordKind::Minterms
    }

    /// A human-readable label (used by `marple cache stats`).
    pub fn label(self) -> &'static str {
        match self {
            RecordKind::Solver => "solver verdicts (S)",
            RecordKind::Inclusion => "inclusion verdicts (I)",
            RecordKind::Shape => "DFA-shape verdicts (D)",
            RecordKind::Minterms => "minterm sets (M)",
        }
    }
}

/// The value of one memo record, whatever its kind, in the canonical names of its key
/// (a [`hat_sfa::MemoAnswer`] carries the same value in the asking query's names).
/// Minterm sets sit behind an [`Arc`], so promoting a record between tiers or answering
/// a lookup never deep-copies one.
#[derive(Debug, Clone, PartialEq)]
pub enum MemoValue {
    /// A verdict bit (`S`, `I` and `D` records).
    Verdict(bool),
    /// A canonical minterm set (`M` records).
    Minterms(Arc<MintermSet>),
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

/// Serialises one record as the line it occupies in the store file.
fn record_line(kind: RecordKind, key: &str, value: &MemoValue) -> String {
    let tag = kind.tag();
    match value {
        MemoValue::Verdict(verdict) => format!("{tag}{}\t{key}", u8::from(*verdict)),
        MemoValue::Minterms(set) => format!("{tag}\t{key}\t{}", ser_minterm_set(set)),
    }
}

/// Parses one record line of the store file.
/// `None` for a line no record grammar accepts, including an `M` line whose payload
/// does not parse exactly: a torn payload degrades to a cold entry, never a wrong one.
fn parse_record(line: &str) -> Option<(RecordKind, &str, MemoValue)> {
    let (head, rest) = line.split_once('\t')?;
    let kind = RecordKind::from_tag(head.get(..1)?)?;
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
        /// Queries answered from a memo tier (local or shared).
        hits: usize,
        /// Queries that missed every tier and had to be solved.
        misses: usize,
        /// Records read from the store file at startup.
        disk_loaded: usize,
        /// Malformed lines, torn files and foreign files ignored at startup (a whole
        /// file counts once).
        stale: usize,
        /// Alphabet transformations answered from the minterm-set memo.
        minterm_hits: usize,
        /// Alphabet transformations that had to be enumerated.
        minterm_misses: usize,
        /// Shared-tier shard-lock acquisitions, across every record kind. Per-worker local
        /// tiers exist to keep this flat while hit counts grow.
        lock_acquisitions: usize,
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
    hits: [AtomicUsize; 4],
    misses: [AtomicUsize; 4],
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

/// What a read-only scan of a store file found (CLI: `marple cache stats`). Never takes
/// the writer lock, so it works — and prints honest numbers — while a daemon owns the
/// store.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheFileStats {
    /// The header line, when the file is non-empty.
    pub header: Option<String>,
    /// The format version (7), when the header is the v7 header.
    pub version: Option<u32>,
    /// Live (first-occurrence, well-formed) solver-verdict records.
    pub solver: usize,
    /// Live inclusion-verdict records.
    pub inclusion: usize,
    /// Live DFA-shape records.
    pub shape: usize,
    /// Live minterm-set records.
    pub minterms: usize,
    /// Retired, always 0: no store this binary reads holds `T` records. It stays only
    /// because the repository benchmark's helper reads it.
    pub transitions: usize,
    /// Retired, always 0, like [`transitions`](CacheFileStats::transitions).
    pub subsumption: usize,
    /// Records whose key already occurred on an earlier line (the next write drops
    /// them).
    pub duplicates: usize,
    /// Lines that parse under no record grammar (the next write drops them).
    pub malformed: usize,
    /// 1 for a v7 file; 0 otherwise. The name is retired (the log-structured store
    /// counted its segment files here); it stays because the benchmark's helper reads
    /// it.
    pub segments: usize,
    /// 1 when a v7 file fails its checksum (its records degrade to cold); 0 otherwise.
    pub torn_segments: usize,
    /// The file's size.
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

    /// Tallies one record line, deduplicating against the keys already `seen` per kind.
    fn tally<'a>(&mut self, line: &'a str, seen: &mut [HashSet<&'a str>; 4]) {
        match parse_record(line) {
            Some((kind, key, _)) if seen[kind as usize].insert(key) => {
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
        }
    }
}

/// The concurrent memo store shared by every worker of a verification run: the shared
/// tier of the hierarchy (workers add their own local tier in front; see
/// [`crate::tier`]), plus the store file that makes it durable across runs (see
/// [`crate::store_file`]).
pub struct MemoStore {
    /// One shared tier per kind, indexed by `kind as usize`.
    shared: [SharedTier<MemoValue>; 4],
    /// Present when this store owns its file: it holds the lock and the file is not
    /// foreign. Degraded, foreign and in-memory stores never write.
    writer: Option<Writer>,
    /// Held for the lifetime of a disk-backed store; releasing it (drop) lets the next
    /// opener write. [`Drop`] writes the file before the fields drop, so while the lock
    /// is still held.
    #[allow(dead_code)]
    lock: Option<CacheLock>,
    path: Option<PathBuf>,
    /// Set when another live process held the store's lock at open time: the store
    /// loaded what it could read-only and runs in-memory, never writing to the
    /// contested file.
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
        MemoStore {
            shared: Default::default(),
            writer: None,
            lock: None,
            path: None,
            degraded: false,
            counters: CacheCounters::default(),
        }
    }

    /// A store backed by the store file at `path`. See
    /// [`MemoStore::with_disk_log_config`].
    pub fn with_disk_log(path: impl AsRef<Path>) -> std::io::Result<Self> {
        Self::with_disk_log_config(path, LsmConfig)
    }

    /// A store backed by the store file at `path`. The file is read whole, straight
    /// into the shared tiers (warm start); [`MemoStore::flush`] writes it whole. A
    /// missing or empty file is a fresh store, and nothing is written until a record
    /// exists. A torn v7 file (failed checksum, truncated, not UTF-8) opens cold and is
    /// replaced by the next write. A file whose first line is not the v7 header — an
    /// older or newer format, the v6 manifest included — is left untouched: the store
    /// runs in-memory only and counts the file as one stale entry (destroying data
    /// another binary wrote would be worse than running cold). The retired
    /// [`LsmConfig`] is read by nothing.
    ///
    /// Opening takes the sidecar lock `<path>.lock`. If another live process holds it,
    /// this store **degrades to in-memory** (the file is still read for a warm start,
    /// but never written) and [`MemoStore::degraded`] reports `true`.
    pub fn with_disk_log_config(
        path: impl AsRef<Path>,
        _config: LsmConfig,
    ) -> std::io::Result<Self> {
        let mut cache = Self::in_memory();
        let path = path.as_ref();
        cache.path = Some(path.to_path_buf());
        let lock = CacheLock::acquire(path)?;
        if lock.is_none() {
            cache.degraded = true;
            warn_locked(path);
        }
        let bytes = match std::fs::read(path) {
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            read => read?,
        };
        let mut image_bytes = 0;
        match store_file::decode(&bytes) {
            Contents::Fresh => {}
            // Another format: never write to it, and release the writer lock, since
            // this store will never use it.
            Contents::Foreign => {
                cache.counters.stale.fetch_add(1, Ordering::Relaxed);
                return Ok(cache);
            }
            // Losing cache entries is recoverable, trusting a damaged file is not.
            Contents::Torn => {
                cache.counters.stale.fetch_add(1, Ordering::Relaxed);
            }
            Contents::Intact(body) => {
                body.lines().for_each(|line| cache.replay(line));
                image_bytes = bytes.len() as u64;
            }
        }
        if !cache.degraded {
            cache.writer = Some(Writer::new(path, image_bytes));
            cache.lock = lock;
        }
        Ok(cache)
    }

    /// Replays one record line into the shared tier of its kind, uncounted (replay is
    /// not contention), counting it loaded or — malformed — stale. A key an earlier
    /// line already held is neither.
    fn replay(&self, line: &str) {
        match parse_record(line) {
            Some((kind, key, value)) => {
                if self.shared[kind as usize].put_quiet(key.to_string(), value) {
                    self.counters.disk_loaded.fetch_add(1, Ordering::Relaxed);
                }
            }
            None => {
                self.counters.stale.fetch_add(1, Ordering::Relaxed);
            }
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

    /// Scans the store file at `path` read-only — no lock taken, nothing written — and
    /// reports per-kind live counts, dead records, whether the file is torn, and the
    /// header version. Works while another process (e.g. a live daemon) owns the store:
    /// writes replace the file by an atomic rename, so the scan sees the previous file
    /// or the next, each equally honest.
    pub fn inspect(path: impl AsRef<Path>) -> std::io::Result<CacheFileStats> {
        let bytes = std::fs::read(path)?;
        let mut stats = CacheFileStats {
            bytes: bytes.len() as u64,
            ..CacheFileStats::default()
        };
        match store_file::decode(&bytes) {
            Contents::Fresh => return Ok(stats),
            Contents::Foreign => {
                // Nothing beyond the header is ours to judge.
                let header = bytes.split(|&b| b == b'\n').next().unwrap_or_default();
                stats.header = Some(String::from_utf8_lossy(header).into_owned());
                return Ok(stats);
            }
            Contents::Torn => stats.torn_segments = 1,
            Contents::Intact(body) => {
                let mut seen: [HashSet<&str>; 4] = Default::default();
                body.lines().for_each(|line| stats.tally(line, &mut seen));
            }
        }
        stats.header = Some(store_file::HEADER.to_string());
        stats.version = Some(7);
        stats.segments = 1;
        Ok(stats)
    }

    /// A snapshot of the write counters (whole-file writes and bytes), when this store
    /// writes its file.
    pub fn lsm_stats(&self) -> Option<LsmStatsSnapshot> {
        self.writer.as_ref().map(Writer::stats)
    }

    /// Records a local-tier hit for `kind` in the store-wide hit counters, so snapshots
    /// keep meaning "answered from a memo" no matter which tier answered.
    pub fn note_local_hit(&self, kind: RecordKind) {
        self.counters.hits[kind as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// Looks a record up in the shared tier (one counted shard lock), counting a hit or
    /// a miss for `kind`.
    pub fn lookup(&self, kind: RecordKind, key: &str) -> Option<MemoValue> {
        let found = self.shared[kind as usize].get(key);
        let counter = match found {
            Some(_) => &self.counters.hits[kind as usize],
            None => &self.counters.misses[kind as usize],
        };
        counter.fetch_add(1, Ordering::Relaxed);
        found
    }

    /// Records a value in the shared tier of `kind`; when the insert is fresh and this
    /// store writes its file, marks the store dirty so the next [`MemoStore::flush`]
    /// writes it. Racing inserts of the same key are harmless: canonical keys determine
    /// their value.
    pub fn insert(&self, kind: RecordKind, key: String, value: MemoValue) {
        let fresh = self.shared[kind as usize].put(key, value);
        if let (true, Some(writer)) = (fresh, &self.writer) {
            writer.mark_dirty();
        }
    }

    /// Writes the store file — the image of the shared tiers, iterated uncounted — when
    /// a fresh record arrived since the last write. Called at the end of every run and
    /// on drop; a no-op for in-memory, degraded and foreign stores. When it returns,
    /// every insert made before the call is on disk, unless the write failed: then it
    /// warns, the previous file stays and the next call retries.
    pub fn flush(&self) {
        if let Some(writer) = &self.writer {
            writer.flush(|| self.image());
        }
    }

    /// Every record of the shared tiers as its record line, unsorted.
    fn image(&self) -> Vec<String> {
        let mut lines = Vec::new();
        for kind in RecordKind::ALL {
            self.shared[kind as usize]
                .for_each(|key, value| lines.push(record_line(kind, key, value)));
        }
        lines
    }

    /// Number of cached verdicts (the three verdict kinds `S`, `I` and `D`).
    pub fn len(&self) -> usize {
        RecordKind::ALL
            .into_iter()
            .filter(|kind| kind.is_verdict())
            .map(|kind| self.shared[kind as usize].len())
            .sum()
    }

    /// Whether the store holds no verdicts.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A snapshot of the hit/miss/disk/lock counters.
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
            lock_acquisitions: self.shared.iter().map(SharedTier::lock_acquisitions).sum(),
        }
    }
}

impl Drop for MemoStore {
    fn drop(&mut self) {
        self.flush();
    }
}

/// Warns that the store at `path` is locked by another live process, naming the holder
/// and, for a daemon, how to reach its warm store.
fn warn_locked(path: &Path) {
    match MemoStore::lock_holder(path) {
        Some(holder) if holder.is_daemon() => {
            let reach = match &holder.service_addr {
                Some(addr) => format!("rerun with `--remote {addr}` to use its warm store"),
                None => "rerun with `--remote <its address>` to use its warm store".to_string(),
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

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("hat-engine-test-{}-{name}", std::process::id()));
        p
    }

    fn sidecar(path: &Path, suffix: &str) -> PathBuf {
        let mut name = path.as_os_str().to_os_string();
        name.push(suffix);
        PathBuf::from(name)
    }

    /// Removes a test store: the file, its sidecar lock and its temporary file.
    fn cleanup(path: &Path) {
        let _ = std::fs::remove_file(path);
        let _ = std::fs::remove_file(lock_path_for(path));
        let _ = std::fs::remove_file(sidecar(path, ".tmp"));
        let _ = std::fs::remove_dir_all(sidecar(path, ".tmp"));
    }

    /// Writes a v7 store file by hand, holding `lines` verbatim (malformed ones
    /// included) under a valid checksum.
    fn write_store(path: &Path, lines: &[&str]) {
        let lines: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
        store_file::write(path, &lines).unwrap();
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
    }

    #[test]
    fn disk_log_roundtrip() {
        let path = temp_path("roundtrip");
        cleanup(&path);
        {
            let cache = MemoStore::with_disk_log(&path).unwrap();
            cache.insert(RecordKind::Solver, "alpha".into(), true.into());
            cache.insert(RecordKind::Solver, "beta".into(), false.into());
            assert!(!path.exists(), "nothing is written before the run ends");
            cache.flush();
            cache.flush();
            let writes = cache.lsm_stats().unwrap();
            assert_eq!(writes.flushes, 1, "a clean store is not rewritten");
            assert_eq!(writes.compactions, 0);
            assert_eq!(writes.write_amplification(), 1.0);
        }
        let warm = MemoStore::with_disk_log(&path).unwrap();
        assert_eq!(warm.len(), 2);
        assert_eq!(warm.stats().disk_loaded, 2);
        assert_eq!(warm.lookup(RecordKind::Solver, "alpha"), Some(true.into()));
        assert_eq!(warm.lookup(RecordKind::Solver, "beta"), Some(false.into()));
        assert_eq!(warm.stats().stale, 0);
        let contents = std::fs::read_to_string(&path).unwrap();
        assert_eq!(
            contents.lines().take(3).collect::<Vec<_>>(),
            [store_file::HEADER, "S0\tbeta", "S1\talpha"],
            "the header, then the record lines, sorted"
        );
        assert!(contents.lines().last().unwrap().starts_with("end\t"));
        assert!(!sidecar(&path, ".tmp").exists() && !sidecar(&path, ".d").exists());
        drop(warm);
        cleanup(&path);
    }

    #[test]
    fn warm_lookups_cost_one_shared_get_each() {
        let path = temp_path("warm-gets");
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
        assert_eq!(warm.stats().disk_loaded, 4);
        assert_eq!(
            warm.stats().lock_acquisitions,
            0,
            "loading the file is uncounted"
        );
        assert_eq!(warm.lookup(RecordKind::Solver, "sat|p0"), Some(true.into()));
        assert_eq!(warm.stats().lock_acquisitions, 1, "one shared get");
        // A second lookup of the same key costs the same: there is no tier to leave.
        assert_eq!(warm.lookup(RecordKind::Solver, "sat|p0"), Some(true.into()));
        assert_eq!(warm.stats().lock_acquisitions, 2);
        assert_eq!(warm.len(), 3, "lookups never duplicate a record");
        // A minterm set takes the same path as a verdict.
        for expected in [3, 4] {
            assert_eq!(
                warm.lookup(RecordKind::Minterms, "mt|p"),
                Some(MintermSet::default().into())
            );
            assert_eq!(warm.stats().lock_acquisitions, expected);
        }
        let stats = warm.stats();
        assert_eq!((stats.hits, stats.misses), (2, 0));
        assert_eq!((stats.minterm_hits, stats.minterm_misses), (2, 0));
        drop(warm);
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
        // A newer binary's header, the v6 manifest, and the flat-log headers of older
        // binaries: each is as foreign as the other.
        for header in [
            "hat-engine-cache v999",
            "hat-engine-cache v1",
            "hat-engine-cache v2",
            "hat-engine-cache v3",
            "hat-engine-cache v4",
            "hat-engine-cache v5",
            "hat-engine-cache v6",
        ] {
            cleanup(&path);
            let foreign = format!("{header}\nS1\tk\n");
            std::fs::write(&path, &foreign).unwrap();
            let cache = MemoStore::with_disk_log(&path).unwrap();
            assert_eq!(cache.len(), 0, "{header}");
            assert_eq!(cache.stats().stale, 1, "{header}");
            // The cache runs in-memory: inserts work but are not persisted, and the
            // foreign file's contents survive byte for byte.
            cache.insert(RecordKind::Solver, "k2".into(), false.into());
            cache.flush();
            assert!(cache.lsm_stats().is_none(), "{header}");
            drop(cache);
            assert_eq!(std::fs::read_to_string(&path).unwrap(), foreign);
            assert!(!sidecar(&path, ".tmp").exists(), "{header}");
        }
        cleanup(&path);
    }

    #[test]
    fn a_v6_store_is_foreign_and_stays_byte_identical() {
        let path = temp_path("v6-store");
        let dir = sidecar(&path, ".d");
        cleanup(&path);
        let _ = std::fs::remove_dir_all(&dir);
        // A manifest and two segments as the log-structured store laid them out.
        std::fs::create_dir_all(&dir).unwrap();
        let files = [
            (
                path.clone(),
                "hat-engine-cache v6\nseq\t3\nseg\tS\t2\t0\t1\t1\t44\nseg\tM\t0\t1\t2\t1\t60\n",
            ),
            (
                dir.join("S-p2-L0-00000001.seg"),
                "hat-engine-segment v6\tS\t1\t0123456789abcdef\nS1\tsat|k\n",
            ),
            (
                dir.join("M-p0-L1-00000002.seg"),
                "hat-engine-segment v6\tM\t1\t0123456789abcdef\nM\tmt|k\tU0;M0;P0;Q0;\n",
            ),
        ];
        for (file, text) in &files {
            std::fs::write(file, text).unwrap();
        }
        {
            let cache = MemoStore::with_disk_log(&path).unwrap();
            assert!(!cache.degraded());
            let stats = cache.stats();
            assert_eq!((stats.disk_loaded, stats.stale), (0, 1));
            assert_eq!(cache.lookup(RecordKind::Solver, "sat|k"), None);
            cache.insert(RecordKind::Solver, "sat|fresh".into(), true.into());
            cache.flush();
        }
        for (file, text) in &files {
            assert_eq!(
                std::fs::read_to_string(file).unwrap(),
                *text,
                "{} must stay byte-identical",
                file.display()
            );
        }
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 2);
        assert!(!sidecar(&path, ".tmp").exists());
        assert!(!lock_path_for(&path).exists(), "the lock is released");
        let stats = MemoStore::inspect(&path).unwrap();
        assert_eq!(stats.version, None);
        assert_eq!(stats.header.as_deref(), Some("hat-engine-cache v6"));
        let _ = std::fs::remove_dir_all(&dir);
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
        drop(warm);
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
        // The same holds for records read back from a store file.
        let path = temp_path("namespaces");
        cleanup(&path);
        write_store(
            &path,
            &[
                "D1\tshared-key",
                "I0\tshared-key",
                "M\tshared-key\tU0;M0;P0;Q0;",
                "S1\tshared-key",
            ],
        );
        let warm = MemoStore::with_disk_log(&path).unwrap();
        assert_eq!(warm.stats().disk_loaded, 4);
        assert_eq!(
            warm.lookup(RecordKind::Solver, "shared-key"),
            Some(true.into())
        );
        assert_eq!(
            warm.lookup(RecordKind::Inclusion, "shared-key"),
            Some(false.into())
        );
        assert_eq!(
            warm.lookup(RecordKind::Shape, "shared-key"),
            Some(true.into())
        );
        assert_eq!(
            warm.lookup(RecordKind::Minterms, "shared-key"),
            Some(MintermSet::default().into())
        );
        drop(warm);
        cleanup(&path);
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
        drop(warm);
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
        drop(warm);
        cleanup(&path);
    }

    #[test]
    fn torn_minterm_payload_degrades_to_a_cold_entry() {
        let path = temp_path("torn-minterm");
        cleanup(&path);
        // The checksum is valid: only the record grammar can reject the payload.
        write_store(&path, &["M\tmt|x\tU0;M1;O3#put", "S1\tgood"]);
        let cache = MemoStore::with_disk_log(&path).unwrap();
        assert_eq!(cache.lookup(RecordKind::Solver, "good"), Some(true.into()));
        assert!(
            cache.lookup(RecordKind::Minterms, "mt|x").is_none(),
            "a torn payload must not produce a wrong alphabet"
        );
        assert_eq!(cache.stats().stale, 1);
        drop(cache);
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
        // write — two writers would race the file.
        let second = MemoStore::with_disk_log(&path).unwrap();
        assert!(second.degraded(), "the lock is held by `first`");
        assert_eq!(
            second.lookup(RecordKind::Solver, "sat|k1"),
            Some(true.into()),
            "a degraded opener still warm-starts from the file"
        );
        second.insert(RecordKind::Solver, "sat|k2".into(), false.into());
        second.flush();
        assert!(
            second.lsm_stats().is_none(),
            "a degraded store has no writer"
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
        drop(reopened);
        cleanup(&path);
    }

    #[test]
    fn a_degraded_open_writes_nothing() {
        let path = temp_path("degraded-writes-nothing");
        cleanup(&path);
        write_store(&path, &["S1\tsat|k"]);
        let before = std::fs::read(&path).unwrap();
        // This process is alive, so its PID in the lock file makes the open degrade.
        std::fs::write(lock_path_for(&path), std::process::id().to_string()).unwrap();
        {
            let cache = MemoStore::with_disk_log(&path).unwrap();
            assert!(cache.degraded());
            assert_eq!(cache.lookup(RecordKind::Solver, "sat|k"), Some(true.into()));
            cache.insert(RecordKind::Solver, "sat|fresh".into(), false.into());
            cache.flush();
        }
        assert_eq!(std::fs::read(&path).unwrap(), before);
        assert!(!sidecar(&path, ".tmp").exists());
        // Nor does it create a file where there was none.
        std::fs::remove_file(&path).unwrap();
        let cache = MemoStore::with_disk_log(&path).unwrap();
        cache.insert(RecordKind::Solver, "sat|fresh".into(), false.into());
        drop(cache);
        assert!(!path.exists());
        cleanup(&path);
    }

    #[test]
    fn a_failed_write_keeps_the_previous_file() {
        let path = temp_path("failed-write");
        cleanup(&path);
        write_store(&path, &["S1\tsat|old"]);
        let before = std::fs::read(&path).unwrap();
        let cache = MemoStore::with_disk_log(&path).unwrap();
        cache.insert(RecordKind::Solver, "sat|new".into(), false.into());
        // A directory where the temporary file must go makes the write fail.
        std::fs::create_dir(sidecar(&path, ".tmp")).unwrap();
        cache.flush();
        assert_eq!(std::fs::read(&path).unwrap(), before);
        assert_eq!(cache.lsm_stats().unwrap().flushes, 0);
        // The store stays dirty, so the next flush retries and lands.
        std::fs::remove_dir(sidecar(&path, ".tmp")).unwrap();
        cache.flush();
        assert_eq!(cache.lsm_stats().unwrap().flushes, 1);
        drop(cache);
        let warm = MemoStore::with_disk_log(&path).unwrap();
        assert_eq!(warm.stats().disk_loaded, 2);
        assert_eq!(
            warm.lookup(RecordKind::Solver, "sat|new"),
            Some(false.into())
        );
        drop(warm);
        cleanup(&path);
    }

    #[test]
    fn drop_writes_fresh_records() {
        let path = temp_path("drop-writes");
        cleanup(&path);
        {
            let cache = MemoStore::with_disk_log(&path).unwrap();
            cache.insert(RecordKind::Inclusion, "incl|x".into(), true.into());
            cache.insert(
                RecordKind::Minterms,
                "mt|y".into(),
                MintermSet::default().into(),
            );
        }
        let warm = MemoStore::with_disk_log(&path).unwrap();
        assert_eq!(warm.stats().disk_loaded, 2);
        assert_eq!(
            warm.lookup(RecordKind::Inclusion, "incl|x"),
            Some(true.into())
        );
        drop(warm);
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
    fn inspect_reads_a_live_store_without_its_lock() {
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
        assert_eq!(stats.version, Some(7));
        assert_eq!(stats.header.as_deref(), Some(store_file::HEADER));
        assert_eq!((stats.solver, stats.minterms), (1, 1));
        assert_eq!((stats.segments, stats.torn_segments), (1, 0));
        assert_eq!((stats.transitions, stats.subsumption), (0, 0));
        assert_eq!(stats.bytes, std::fs::metadata(&path).unwrap().len());
        assert!(!cache.degraded());
        assert!(lock_path_for(&path).exists(), "inspect left the lock alone");
        drop(cache);
        cleanup(&path);
    }

    #[test]
    fn torn_segment_degrades_to_cold_not_corrupt() {
        let path = temp_path("torn-file");
        cleanup(&path);
        {
            let cache = MemoStore::with_disk_log(&path).unwrap();
            cache.insert(RecordKind::Solver, "sat|solo".into(), true.into());
        }
        // A media fault flips the verdict: the record still parses, so only the
        // checksum can tell.
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.replace("S1\tsat|solo", "S0\tsat|solo")).unwrap();
        let stats = MemoStore::inspect(&path).unwrap();
        assert_eq!((stats.torn_segments, stats.live()), (1, 0));
        {
            let warm = MemoStore::with_disk_log(&path).unwrap();
            assert_eq!(
                warm.lookup(RecordKind::Solver, "sat|solo"),
                None,
                "a torn file is cold, never half-trusted"
            );
            assert_eq!(warm.stats().stale, 1, "the torn file counts once");
            assert!(!warm.degraded());
            warm.insert(RecordKind::Solver, "sat|recovered".into(), true.into());
        }
        // The next write replaced the torn file.
        let warm = MemoStore::with_disk_log(&path).unwrap();
        assert_eq!(warm.stats().stale, 0);
        assert_eq!(
            warm.lookup(RecordKind::Solver, "sat|recovered"),
            Some(true.into())
        );
        drop(warm);
        cleanup(&path);
    }

    #[test]
    fn inspect_reports_per_kind_counts_and_dead_records() {
        let path = temp_path("inspect");
        cleanup(&path);
        write_store(
            &path,
            &[
                "S1\tsat|k1",
                "S0\tsat|k2",
                "S1\tsat|k1",
                "torn-line",
                "I1\tincl|k3",
                "D0\tshape|k4",
                "M\tmt|k5\tU0;M0;P0;Q0;",
                "M\tmt|k6\tU0;M1;O3#put",
            ],
        );
        let stats = MemoStore::inspect(&path).unwrap();
        assert_eq!(stats.version, Some(7));
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
    fn a_write_drops_duplicate_records_and_keeps_every_live_record() {
        let path = temp_path("write-drops-dead");
        cleanup(&path);
        {
            let cache = MemoStore::with_disk_log(&path).unwrap();
            for i in 0..10 {
                cache.insert(RecordKind::Solver, format!("sat|k{i}"), true.into());
            }
        }
        let first = std::fs::read(&path).unwrap();
        {
            // Second session: re-insert the same keys without looking them up. The
            // file loaded them into the shared tier, so no insert is fresh and nothing
            // is written twice.
            let cache = MemoStore::with_disk_log(&path).unwrap();
            for i in 0..10 {
                cache.insert(RecordKind::Solver, format!("sat|k{i}"), true.into());
            }
            cache.flush();
            assert_eq!(cache.lsm_stats().unwrap().flushes, 0);
        }
        assert_eq!(std::fs::read(&path).unwrap(), first);
        let stats = MemoStore::inspect(&path).unwrap();
        assert_eq!(
            (stats.solver, stats.duplicates, stats.malformed),
            (10, 0, 0)
        );
        // A file that does hold dead records (a duplicate, a malformed line, a torn
        // payload) under a valid checksum loses them at the next write, and only them.
        let mut lines: Vec<String> = (0..10).map(|i| format!("S1\tsat|k{i}")).collect();
        lines.extend(["S1\tsat|k0", "torn-line", "M\tmt|x\tU0;M1;O3#put"].map(String::from));
        lines.push("M\tmt|y\tU0;M0;P0;Q0;".into());
        let lines: Vec<&str> = lines.iter().map(String::as_str).collect();
        write_store(&path, &lines);
        let before = MemoStore::inspect(&path).unwrap();
        assert_eq!((before.live(), before.dead()), (11, 3));
        {
            let cache = MemoStore::with_disk_log(&path).unwrap();
            assert_eq!((cache.stats().disk_loaded, cache.stats().stale), (11, 2));
            cache.insert(RecordKind::Solver, "sat|fresh".into(), true.into());
        }
        let after = MemoStore::inspect(&path).unwrap();
        assert_eq!((after.duplicates, after.malformed), (0, 0));
        assert_eq!(after.live(), 12);
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
        assert_eq!(
            warm.lookup(RecordKind::Minterms, "mt|y"),
            Some(MintermSet::default().into())
        );
        assert!(warm.lookup(RecordKind::Minterms, "mt|x").is_none());
        assert_eq!(warm.stats().stale, 0);
        drop(warm);
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
