//! The LSM-structured disk backend of the memo store (`hat-engine-cache v6`): a small
//! log-structured merge store holding the records a warm run reads (`S`, `I`, `D` and
//! `M`; see `RecordKind::is_persisted`).
//!
//! * **Memtable.** Fresh records are appended to an in-memory memtable (a mutex-guarded
//!   vector of pre-serialised record lines). When the memtable passes
//!   [`LsmConfig::memtable_bytes`] it is *rotated*: the frozen contents are handed to
//!   the background thread and workers continue into a fresh memtable without waiting
//!   on any I/O.
//! * **Segments.** The background thread flushes a frozen memtable as sorted,
//!   fingerprint-partitioned, per-kind *segment files* under `<path>.d/`: records are
//!   grouped by `(kind, partition)` where `partition = fnv1a(key) % 4`, deduplicated,
//!   sorted by key and written to `<tag>-p<partition>-L<level>-<seq>.seg` via a
//!   temporary file, `sync_all` and an atomic rename. Because the fingerprint is a pure
//!   function of the canonical key, a key lives in exactly one partition family and
//!   compaction never needs to look outside a family. A segment's header carries the
//!   fingerprint of its body, so a flipped byte tears the segment instead of changing a
//!   record.
//! * **Manifest.** `<path>` itself becomes the *manifest*: the `hat-engine-cache v6`
//!   header, a sequence cursor and one `seg` line per live segment. Every flush or
//!   compaction commits by atomically rewriting the manifest; a segment file not named
//!   by the manifest is an orphan from an interrupted flush and is garbage-collected at
//!   the next locked open. Crash recovery therefore never sees a half-trusted state:
//!   either the manifest names the new segment (which was synced and renamed first) or
//!   it does not (and the orphan is invisible).
//! * **Background compaction.** After each flush the background thread merges any
//!   `(kind, partition)` family holding at least [`LsmConfig::compact_fanin`] segments
//!   into one segment at the next level, newest record wins, dead records (duplicates,
//!   unparseable lines, torn segments) dropped. Compaction touches only segment files
//!   and the manifest — never the shared or disk tiers — so scheduler workers observe
//!   zero tier-lock acquisitions from it (asserted in `engine/tests/tiers.rs`).
//!
//! Commands to the background thread (`Flush`, `Compact`, `Drain`) are processed in
//! order, so a `Drain` reply means every previously rotated memtable has reached disk —
//! this is what the daemon's graceful shutdown waits on before releasing the
//! single-writer lock.

use crate::cache::RecordKind;
use std::collections::HashMap;
use std::fs::{self, File};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread;

/// The v6 manifest header (the first line of the cache path itself).
pub const MANIFEST_HEADER_V6: &str = "hat-engine-cache v6";
/// The header prefix of every segment file:
/// `hat-engine-segment v6\t<tag>\t<records>\t<checksum>`.
pub const SEGMENT_HEADER_V6: &str = "hat-engine-segment v6";
/// Fingerprint partitions per record kind. Each partition family compacts
/// independently, so damage to one segment cools a quarter of one kind's keys at most.
pub const PARTITIONS: u8 = 4;

const DEFAULT_MEMTABLE_BYTES: usize = 256 * 1024;
const DEFAULT_COMPACT_FANIN: usize = 4;

/// Tuning of the LSM backend. [`LsmConfig::from_env`] honours `HAT_MEMTABLE_BYTES`,
/// which CI uses to force rotations and compactions on small workloads; tests pass a
/// config directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LsmConfig {
    /// Rotate the memtable into a frozen flush once it holds this many bytes.
    pub memtable_bytes: usize,
    /// Merge a `(kind, partition)` family once it holds this many segments (≥ 2).
    pub compact_fanin: usize,
}

impl Default for LsmConfig {
    fn default() -> Self {
        LsmConfig {
            memtable_bytes: DEFAULT_MEMTABLE_BYTES,
            compact_fanin: DEFAULT_COMPACT_FANIN,
        }
    }
}

impl LsmConfig {
    /// The default configuration with the `HAT_MEMTABLE_BYTES` override applied.
    pub fn from_env() -> Self {
        let defaults = LsmConfig::default();
        LsmConfig {
            memtable_bytes: std::env::var("HAT_MEMTABLE_BYTES")
                .ok()
                .and_then(|v| v.parse().ok())
                .filter(|&n| n > 0)
                .unwrap_or(defaults.memtable_bytes),
            ..defaults
        }
    }
}

/// 64-bit FNV-1a. Hand-rolled so the segment partition of a key is stable across Rust
/// releases (`DefaultHasher` makes no such promise, and a partition flip would strand
/// records in segments compaction never merges them against).
pub fn fingerprint(key: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in key.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// The segment partition of a canonical key.
pub fn partition_of(key: &str) -> u8 {
    (fingerprint(key) % u64::from(PARTITIONS)) as u8
}

/// One live segment as named by the manifest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentMeta {
    /// Record kind stored in the segment (one kind per segment).
    pub kind: RecordKind,
    /// Fingerprint partition ([`partition_of`]) of every key in the segment.
    pub partition: u8,
    /// Compaction level: flushes write level 0, each merge writes max(level)+1.
    pub level: u32,
    /// Globally unique, monotone sequence number — newer segments shadow older ones.
    pub seq: u64,
    /// Record lines in the segment (also in the segment's own header, cross-checked).
    pub records: usize,
    /// Segment file size in bytes.
    pub bytes: u64,
}

impl SegmentMeta {
    /// The segment's file name under the segment directory.
    pub fn file_name(&self) -> String {
        format!(
            "{}-p{}-L{}-{:08}.seg",
            self.kind.tag(),
            self.partition,
            self.level,
            self.seq
        )
    }
}

/// The manifest: the live segment set and the next segment sequence number.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ManifestState {
    /// Sequence number the next flushed or merged segment will take.
    pub next_seq: u64,
    /// Live segments, in manifest order.
    pub segments: Vec<SegmentMeta>,
}

impl ManifestState {
    /// Total record lines across live segments (including cross-segment duplicates).
    pub fn records(&self) -> usize {
        self.segments.iter().map(|s| s.records).sum()
    }

    /// Total segment bytes across live segments.
    pub fn segment_bytes(&self) -> u64 {
        self.segments.iter().map(|s| s.bytes).sum()
    }

    /// Live segment count for one record kind.
    pub fn segments_of(&self, kind: RecordKind) -> usize {
        self.segments.iter().filter(|s| s.kind == kind).count()
    }
}

/// Parses the manifest at `path`. Returns `Ok(None)` when the file's header is not the
/// v6 manifest header (an older flat log, a foreign version, or not a cache file at
/// all — the caller treats it as foreign). Malformed body lines are skipped and counted, never trusted:
/// a segment the manifest fails to name cleanly is simply invisible (cold), which can
/// lose cache entries but never corrupt verdicts.
pub fn read_manifest(path: &Path) -> std::io::Result<Option<(ManifestState, usize)>> {
    let reader = BufReader::new(File::open(path)?);
    let mut lines = reader.lines();
    match lines.next() {
        Some(Ok(header)) if header == MANIFEST_HEADER_V6 => {}
        _ => return Ok(None),
    }
    let mut state = ManifestState::default();
    let mut malformed = 0usize;
    for line in lines {
        let Ok(line) = line else {
            malformed += 1;
            continue;
        };
        let mut fields = line.split('\t');
        match fields.next() {
            Some("seq") => match fields.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(seq) if fields.next().is_none() => {
                    state.next_seq = state.next_seq.max(seq);
                }
                _ => malformed += 1,
            },
            Some("seg") => {
                let parsed = (|| {
                    let kind = RecordKind::from_tag(fields.next()?)?;
                    let partition: u8 = fields.next()?.parse().ok()?;
                    let level: u32 = fields.next()?.parse().ok()?;
                    let seq: u64 = fields.next()?.parse().ok()?;
                    let records: usize = fields.next()?.parse().ok()?;
                    let bytes: u64 = fields.next()?.parse().ok()?;
                    if fields.next().is_some() || partition >= PARTITIONS {
                        return None;
                    }
                    Some(SegmentMeta {
                        kind,
                        partition,
                        level,
                        seq,
                        records,
                        bytes,
                    })
                })();
                match parsed {
                    Some(meta) => state.segments.push(meta),
                    None => malformed += 1,
                }
            }
            _ => malformed += 1,
        }
    }
    // A crash can only lose the `seq` line to truncation along with `seg` lines after
    // it; recover monotonicity from the segments themselves.
    if let Some(max_seq) = state.segments.iter().map(|s| s.seq).max() {
        state.next_seq = state.next_seq.max(max_seq + 1);
    }
    Ok(Some((state, malformed)))
}

/// Atomically rewrites the manifest at `path`: temporary file, `sync_all`, rename.
pub fn write_manifest(path: &Path, state: &ManifestState) -> std::io::Result<()> {
    let mut tmp = path.to_path_buf();
    tmp.set_extension("compacting");
    {
        let mut out = BufWriter::new(File::create(&tmp)?);
        writeln!(out, "{MANIFEST_HEADER_V6}")?;
        writeln!(out, "seq\t{}", state.next_seq)?;
        for s in &state.segments {
            writeln!(
                out,
                "seg\t{}\t{}\t{}\t{}\t{}\t{}",
                s.kind.tag(),
                s.partition,
                s.level,
                s.seq,
                s.records,
                s.bytes
            )?;
        }
        out.flush()?;
        out.get_ref().sync_all()?;
    }
    fs::rename(&tmp, path)
}

/// The segment directory of a cache at `log_path` (`<path>.d`, a sibling directory).
pub fn segment_dir_for(log_path: &Path) -> PathBuf {
    let mut name = log_path.file_name().unwrap_or_default().to_os_string();
    name.push(".d");
    log_path.with_file_name(name)
}

/// What reading one segment file found.
#[derive(Debug, Default)]
pub struct SegmentScan {
    /// The record lines, in file order. Empty when the segment is torn.
    pub lines: Vec<String>,
    /// Set when the file is missing or not UTF-8, its header is wrong, its body fails
    /// the header's checksum, or its line count does not match the header — the whole
    /// segment degrades to cold rather than being half trusted.
    pub torn: bool,
}

/// Reads a segment file. Never errors: any malformation marks the scan torn. The
/// checksum is the [`fingerprint`] of the body (every byte after the header line),
/// in hex; a segment written before segments carried one has a three-field header and
/// is read unchecked.
pub fn read_segment(dir: &Path, meta: &SegmentMeta) -> SegmentScan {
    let torn = SegmentScan {
        lines: Vec::new(),
        torn: true,
    };
    let Ok(text) = fs::read_to_string(dir.join(meta.file_name())) else {
        return torn;
    };
    let (header, body) = text.split_once('\n').unwrap_or((&text, ""));
    let mut fields = header.split('\t');
    let header_ok = fields.next() == Some(SEGMENT_HEADER_V6)
        && fields.next().and_then(RecordKind::from_tag) == Some(meta.kind)
        && fields.next().and_then(|n| n.parse::<usize>().ok()) == Some(meta.records)
        && match fields.next() {
            None => true,
            Some(sum) => {
                fields.next().is_none()
                    && u64::from_str_radix(sum, 16).ok() == Some(fingerprint(body))
            }
        };
    let lines: Vec<String> = body.lines().map(str::to_string).collect();
    if !header_ok || lines.len() != meta.records {
        return torn;
    }
    SegmentScan { lines, torn: false }
}

/// Writes one segment file (already grouped, deduplicated and sorted) via a temporary
/// file, `sync_all` and an atomic rename, and returns its manifest entry. Crate-visible
/// so the store's tests can lay down hand-written segments.
pub(crate) fn write_segment(
    dir: &Path,
    kind: RecordKind,
    partition: u8,
    level: u32,
    seq: u64,
    lines: &[(String, String)],
) -> std::io::Result<SegmentMeta> {
    let mut meta = SegmentMeta {
        kind,
        partition,
        level,
        seq,
        records: lines.len(),
        bytes: 0,
    };
    let final_path = dir.join(meta.file_name());
    let tmp_path = dir.join(format!("{}.tmp", meta.file_name()));
    let mut body = String::new();
    for (_, line) in lines {
        body.push_str(line);
        body.push('\n');
    }
    {
        let mut out = BufWriter::new(File::create(&tmp_path)?);
        writeln!(
            out,
            "{SEGMENT_HEADER_V6}\t{}\t{}\t{:016x}",
            kind.tag(),
            lines.len(),
            fingerprint(&body)
        )?;
        out.write_all(body.as_bytes())?;
        out.flush()?;
        out.get_ref().sync_all()?;
    }
    meta.bytes = fs::metadata(&tmp_path)?.len();
    fs::rename(&tmp_path, &final_path)?;
    Ok(meta)
}

/// Deletes segment-directory files the manifest does not name: leftovers of a flush or
/// compaction interrupted between writing a file and committing the manifest (and any
/// abandoned `.tmp`). Only called under the single-writer lock — a read-only inspector
/// must never delete another writer's in-flight files. Segment files whose tag this
/// binary does not know are spared: they are a *newer* binary's record kind riding the
/// same v6 layout (as `U` did when it extended the five original kinds), not orphans —
/// an older writer must degrade them to stale, never destroy them.
pub fn gc_orphans(dir: &Path, state: &ManifestState) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let live: Vec<String> = state.segments.iter().map(|s| s.file_name()).collect();
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else {
            continue;
        };
        if future_kind_segment(name) {
            continue;
        }
        if !live.iter().any(|l| l == name) {
            let _ = fs::remove_file(entry.path());
        }
    }
}

/// Whether a directory entry looks like a well-formed segment file of a record kind
/// this binary does not know (`<tag>-p<partition>-L<level>-<seq>.seg` with an
/// unrecognised tag).
fn future_kind_segment(name: &str) -> bool {
    let Some(stem) = name.strip_suffix(".seg") else {
        return false;
    };
    let mut parts = stem.split('-');
    let unknown_tag = parts
        .next()
        .is_some_and(|tag| RecordKind::from_tag(tag).is_none());
    unknown_tag
        && parts.next().is_some_and(|p| p.starts_with('p'))
        && parts.next().is_some_and(|l| l.starts_with('L'))
        && parts.next().is_some_and(|s| !s.is_empty())
        && parts.next().is_none()
}

/// One memtable record: the kind, the canonical key (for sorting and deduplication)
/// and the fully serialised record line it will occupy in a segment.
#[derive(Debug)]
pub struct MemRecord {
    kind: RecordKind,
    key: String,
    line: String,
}

#[derive(Debug, Default)]
struct MemTable {
    records: Vec<MemRecord>,
    bytes: usize,
}

/// Point-in-time counters of the LSM backend (for `marple cache stats`, daemon status
/// and the `lsm` bench section).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LsmStatsSnapshot {
    /// Memtable rotations (frozen memtables handed to the background thread).
    pub rotations: usize,
    /// Frozen memtables flushed to segment files.
    pub flushes: usize,
    /// Segment files written by flushes.
    pub segments_written: usize,
    /// Input segments consumed by merges.
    pub segments_merged: usize,
    /// Merge passes performed.
    pub compactions: usize,
    /// Bytes written by flushes (user data reaching disk the first time).
    pub bytes_flushed: usize,
    /// Bytes written by compaction merges (rewritten data).
    pub bytes_compacted: usize,
}

impl LsmStatsSnapshot {
    /// Total bytes written over bytes of user data flushed, ≥ 1.0 once anything was
    /// flushed — the classic LSM write-amplification figure.
    pub fn write_amplification(&self) -> f64 {
        if self.bytes_flushed == 0 {
            1.0
        } else {
            (self.bytes_flushed + self.bytes_compacted) as f64 / self.bytes_flushed as f64
        }
    }
}

#[derive(Debug, Default)]
struct LsmStats {
    rotations: AtomicUsize,
    flushes: AtomicUsize,
    segments_written: AtomicUsize,
    segments_merged: AtomicUsize,
    compactions: AtomicUsize,
    bytes_flushed: AtomicUsize,
    bytes_compacted: AtomicUsize,
}

/// The outcome of one explicit compaction pass, totalled over the whole store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactOutcome {
    /// Record lines across live segments before the pass.
    pub records_before: usize,
    /// Record lines after the pass.
    pub records_after: usize,
    /// Segment bytes before the pass.
    pub bytes_before: u64,
    /// Segment bytes after the pass.
    pub bytes_after: u64,
    /// Input segments consumed by this pass.
    pub segments_merged: usize,
}

enum BgCmd {
    Flush(Vec<MemRecord>),
    Compact { reply: Sender<CompactOutcome> },
    Drain(Sender<()>),
}

/// The live write side of the LSM backend: the memtable and the handle to the
/// background flush-and-compaction thread. Constructed only by a store that holds the
/// single-writer lock.
pub struct Lsm {
    config: LsmConfig,
    mem: Mutex<MemTable>,
    state: Arc<Mutex<ManifestState>>,
    stats: Arc<LsmStats>,
    tx: Option<Sender<BgCmd>>,
    handle: Option<thread::JoinHandle<()>>,
}

impl std::fmt::Debug for Lsm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Lsm")
            .field("config", &self.config)
            .field("state", &self.state_snapshot())
            .field("stats", &self.stats_snapshot())
            .finish()
    }
}

impl Lsm {
    /// Starts the backend over an already-read manifest: creates the segment directory,
    /// garbage-collects orphans and spawns the background thread. The caller holds the
    /// single-writer lock and has already replayed the on-disk state.
    pub fn start(
        manifest_path: &Path,
        state: ManifestState,
        config: LsmConfig,
    ) -> std::io::Result<Lsm> {
        let dir = segment_dir_for(manifest_path);
        fs::create_dir_all(&dir)?;
        gc_orphans(&dir, &state);
        let state = Arc::new(Mutex::new(state));
        let stats = Arc::new(LsmStats::default());
        let worker = Worker {
            dir,
            manifest_path: manifest_path.to_path_buf(),
            state: Arc::clone(&state),
            stats: Arc::clone(&stats),
            fanin: config.compact_fanin,
        };
        let (tx, rx) = mpsc::channel();
        let handle = thread::Builder::new()
            .name("hat-lsm".into())
            .spawn(move || worker.run(rx))?;
        Ok(Lsm {
            config,
            mem: Mutex::new(MemTable::default()),
            state,
            stats,
            tx: Some(tx),
            handle: Some(handle),
        })
    }

    /// Appends one pre-serialised record line to the memtable, rotating it into a
    /// background flush once it passes the size threshold. Never blocks on I/O.
    pub fn log(&self, kind: RecordKind, key: &str, line: String) {
        let frozen = {
            let mut mem = self.mem.lock().expect("memtable poisoned");
            mem.bytes += line.len() + 1;
            mem.records.push(MemRecord {
                kind,
                key: key.to_string(),
                line,
            });
            if mem.bytes >= self.config.memtable_bytes {
                Some(std::mem::take(&mut *mem).records)
            } else {
                None
            }
        };
        if let Some(records) = frozen {
            self.rotate_frozen(records);
        }
    }

    /// Rotates whatever the memtable currently holds into a background flush.
    fn rotate(&self) {
        let mem = std::mem::take(&mut *self.mem.lock().expect("memtable poisoned"));
        if !mem.records.is_empty() {
            self.rotate_frozen(mem.records);
        }
    }

    fn rotate_frozen(&self, records: Vec<MemRecord>) {
        self.stats.rotations.fetch_add(1, Ordering::Relaxed);
        if let Some(tx) = &self.tx {
            let _ = tx.send(BgCmd::Flush(records));
        }
    }

    /// Rotates the memtable and blocks until the background thread has flushed every
    /// frozen table and gone idle. After `drain` returns, everything ever logged is in
    /// segment files named by the manifest.
    pub fn drain(&self) {
        self.rotate();
        let (reply, done) = mpsc::channel();
        if let Some(tx) = &self.tx {
            if tx.send(BgCmd::Drain(reply)).is_ok() {
                let _ = done.recv();
            }
        }
    }

    /// Drains, then merges every multi-segment family down to one segment (newest
    /// record wins, dead records dropped) and blocks for the outcome.
    pub fn compact(&self) -> CompactOutcome {
        self.rotate();
        let (reply, done) = mpsc::channel();
        match &self.tx {
            Some(tx) if tx.send(BgCmd::Compact { reply }).is_ok() => {
                done.recv().unwrap_or_default()
            }
            _ => CompactOutcome::default(),
        }
    }

    /// Whether any `(kind, partition)` family has reached the merge fan-in (an explicit
    /// compaction would actually do work).
    pub fn wants_compaction(&self) -> bool {
        let state = self.state.lock().expect("manifest state poisoned");
        let mut families: HashMap<(RecordKind, u8), usize> = HashMap::new();
        for s in &state.segments {
            *families.entry((s.kind, s.partition)).or_default() += 1;
        }
        families.values().any(|&n| n >= self.config.compact_fanin)
    }

    /// A clone of the current manifest state.
    pub fn state_snapshot(&self) -> ManifestState {
        self.state.lock().expect("manifest state poisoned").clone()
    }

    /// A snapshot of the backend counters.
    pub fn stats_snapshot(&self) -> LsmStatsSnapshot {
        LsmStatsSnapshot {
            rotations: self.stats.rotations.load(Ordering::Relaxed),
            flushes: self.stats.flushes.load(Ordering::Relaxed),
            segments_written: self.stats.segments_written.load(Ordering::Relaxed),
            segments_merged: self.stats.segments_merged.load(Ordering::Relaxed),
            compactions: self.stats.compactions.load(Ordering::Relaxed),
            bytes_flushed: self.stats.bytes_flushed.load(Ordering::Relaxed),
            bytes_compacted: self.stats.bytes_compacted.load(Ordering::Relaxed),
        }
    }

    /// Records currently buffered in the memtable (not yet rotated).
    pub fn memtable_records(&self) -> usize {
        self.mem.lock().expect("memtable poisoned").records.len()
    }
}

impl Drop for Lsm {
    fn drop(&mut self) {
        // Rotate any leftovers, close the channel so the worker exits after the final
        // flush, and join it — a dropped store leaves everything durable.
        self.rotate();
        drop(self.tx.take());
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// The background thread: flushes frozen memtables and merges segment families. It
/// owns every mutation of the manifest; the foreground only reads snapshots.
struct Worker {
    dir: PathBuf,
    manifest_path: PathBuf,
    state: Arc<Mutex<ManifestState>>,
    stats: Arc<LsmStats>,
    fanin: usize,
}

impl Worker {
    fn run(self, rx: Receiver<BgCmd>) {
        while let Ok(cmd) = rx.recv() {
            match cmd {
                BgCmd::Flush(records) => {
                    if let Err(e) = self.flush(records) {
                        eprintln!("warning: cache segment flush failed: {e}");
                    }
                    if let Err(e) = self.compact_families(self.fanin) {
                        eprintln!("warning: cache compaction failed: {e}");
                    }
                }
                BgCmd::Compact { reply } => {
                    let before = self.state.lock().expect("manifest state poisoned").clone();
                    let merged = match self.compact_families(2) {
                        Ok(n) => n,
                        Err(e) => {
                            eprintln!("warning: cache compaction failed: {e}");
                            0
                        }
                    };
                    let after = self.state.lock().expect("manifest state poisoned").clone();
                    let _ = reply.send(CompactOutcome {
                        records_before: before.records(),
                        records_after: after.records(),
                        bytes_before: before.segment_bytes(),
                        bytes_after: after.segment_bytes(),
                        segments_merged: merged,
                    });
                }
                BgCmd::Drain(reply) => {
                    let _ = reply.send(());
                }
            }
        }
    }

    /// Flushes one frozen memtable: group by `(kind, partition)`, dedup within each
    /// group (last write wins — values are pure functions of keys anyway), sort by key,
    /// write level-0 segments, commit the manifest once.
    fn flush(&self, records: Vec<MemRecord>) -> std::io::Result<()> {
        if records.is_empty() {
            return Ok(());
        }
        let mut groups: HashMap<(RecordKind, u8), Vec<(String, String)>> = HashMap::new();
        for r in records {
            let partition = partition_of(&r.key);
            groups
                .entry((r.kind, partition))
                .or_default()
                .push((r.key, r.line));
        }
        let mut keys: Vec<(RecordKind, u8)> = groups.keys().copied().collect();
        keys.sort();
        let mut state = self.state.lock().expect("manifest state poisoned").clone();
        let mut written = 0usize;
        let mut flushed_bytes = 0usize;
        for family in keys {
            let mut lines = groups.remove(&family).expect("family listed");
            lines.sort_by(|a, b| a.0.cmp(&b.0));
            // Last write wins within the frozen table: keep the final occurrence.
            lines.reverse();
            lines.dedup_by(|a, b| a.0 == b.0);
            lines.reverse();
            let seq = state.next_seq;
            state.next_seq += 1;
            let meta = write_segment(&self.dir, family.0, family.1, 0, seq, &lines)?;
            flushed_bytes += meta.bytes as usize;
            state.segments.push(meta);
            written += 1;
        }
        self.commit(state)?;
        self.stats.flushes.fetch_add(1, Ordering::Relaxed);
        self.stats
            .segments_written
            .fetch_add(written, Ordering::Relaxed);
        self.stats
            .bytes_flushed
            .fetch_add(flushed_bytes, Ordering::Relaxed);
        Ok(())
    }

    /// Merges every `(kind, partition)` family holding at least `fanin` segments down
    /// to one segment. Returns the number of input segments consumed.
    fn compact_families(&self, fanin: usize) -> std::io::Result<usize> {
        let fanin = fanin.max(2);
        let mut consumed = 0usize;
        loop {
            let state = self.state.lock().expect("manifest state poisoned").clone();
            let mut families: HashMap<(RecordKind, u8), Vec<SegmentMeta>> = HashMap::new();
            for s in &state.segments {
                families.entry((s.kind, s.partition)).or_default().push(*s);
            }
            let mut ripe: Vec<_> = families
                .into_iter()
                .filter(|(_, segs)| segs.len() >= fanin)
                .collect();
            ripe.sort_by_key(|(family, _)| *family);
            let Some((family, segs)) = ripe.into_iter().next() else {
                return Ok(consumed);
            };
            consumed += self.merge_family(state, family, segs)?;
        }
    }

    /// Merges one family's segments into a single segment at the next level and
    /// commits: newest sequence wins per key, torn segments contribute nothing (their
    /// records degrade to cold), input files are unlinked only after the manifest no
    /// longer names them.
    fn merge_family(
        &self,
        mut state: ManifestState,
        family: (RecordKind, u8),
        mut segs: Vec<SegmentMeta>,
    ) -> std::io::Result<usize> {
        segs.sort_by_key(|s| std::cmp::Reverse(s.seq));
        let mut merged: Vec<(String, String)> = Vec::new();
        let mut seen: std::collections::HashSet<String> = std::collections::HashSet::new();
        for meta in &segs {
            let scan = read_segment(&self.dir, meta);
            for line in scan.lines {
                // A record line's key is its second tab-separated field; lines that do
                // not even have one are torn and dropped here.
                let Some(key) = line.split('\t').nth(1) else {
                    continue;
                };
                if seen.insert(key.to_string()) {
                    merged.push((key.to_string(), line));
                }
            }
        }
        merged.sort_by(|a, b| a.0.cmp(&b.0));
        let level = segs.iter().map(|s| s.level).max().unwrap_or(0) + 1;
        let seq = state.next_seq;
        state.next_seq += 1;
        let out = write_segment(&self.dir, family.0, family.1, level, seq, &merged)?;
        let out_bytes = out.bytes as usize;
        state.segments.retain(|s| {
            !segs
                .iter()
                .any(|old| old.seq == s.seq && old.kind == s.kind)
        });
        state.segments.push(out);
        self.commit(state)?;
        for old in &segs {
            let _ = fs::remove_file(self.dir.join(old.file_name()));
        }
        self.stats.compactions.fetch_add(1, Ordering::Relaxed);
        self.stats
            .segments_merged
            .fetch_add(segs.len(), Ordering::Relaxed);
        self.stats
            .bytes_compacted
            .fetch_add(out_bytes, Ordering::Relaxed);
        Ok(segs.len())
    }

    /// Commits a new manifest state: atomic rewrite on disk first, then publish to the
    /// shared snapshot.
    fn commit(&self, state: ManifestState) -> std::io::Result<()> {
        write_manifest(&self.manifest_path, &state)?;
        *self.state.lock().expect("manifest state poisoned") = state;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_manifest(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("hat-lsm-test-{}-{name}", std::process::id()));
        p
    }

    fn cleanup(path: &Path) {
        let _ = fs::remove_file(path);
        let _ = fs::remove_dir_all(segment_dir_for(path));
    }

    #[test]
    fn fingerprint_partitions_are_stable() {
        // Pin the FNV-1a values: a silent change would strand existing segments.
        assert_eq!(fingerprint(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fingerprint("a"), 0xaf63_dc4c_8601_ec8c);
        let p: Vec<u8> = ["sat|k0", "sat|k1", "inc|k2", "tr|k3"]
            .iter()
            .map(|k| partition_of(k))
            .collect();
        assert!(p.iter().all(|&x| x < PARTITIONS));
        assert_eq!(
            p,
            vec![2, 1, 0, 3],
            "partition assignment must never change"
        );
    }

    #[test]
    fn manifest_roundtrips_and_recovers_seq() {
        let path = temp_manifest("manifest-roundtrip");
        cleanup(&path);
        let state = ManifestState {
            next_seq: 7,
            segments: vec![
                SegmentMeta {
                    kind: RecordKind::Solver,
                    partition: 1,
                    level: 0,
                    seq: 3,
                    records: 10,
                    bytes: 222,
                },
                SegmentMeta {
                    kind: RecordKind::Transition,
                    partition: 0,
                    level: 2,
                    seq: 6,
                    records: 4,
                    bytes: 999,
                },
            ],
        };
        write_manifest(&path, &state).expect("writes");
        let (back, malformed) = read_manifest(&path).expect("reads").expect("v6");
        assert_eq!(back, state);
        assert_eq!(malformed, 0);
        // Drop the seq line: next_seq recovers from the max segment seq.
        let contents = fs::read_to_string(&path).expect("readable");
        let without_seq: String = contents
            .lines()
            .filter(|l| !l.starts_with("seq\t"))
            .map(|l| format!("{l}\n"))
            .collect();
        fs::write(&path, without_seq).expect("writable");
        let (back, _) = read_manifest(&path).expect("reads").expect("v6");
        assert_eq!(back.next_seq, 7);
        cleanup(&path);
    }

    #[test]
    fn manifest_malformed_lines_are_counted_not_trusted() {
        let path = temp_manifest("manifest-malformed");
        cleanup(&path);
        fs::write(
            &path,
            format!(
                "{MANIFEST_HEADER_V6}\nseq\t5\nseg\tS\t0\t0\t1\t2\t33\nseg\tS\t9\t0\t2\t2\t33\nwhat\nseg\tZ\t0\t0\t3\t2\t33\n"
            ),
        )
        .expect("writable");
        let (state, malformed) = read_manifest(&path).expect("reads").expect("v6");
        assert_eq!(
            state.segments.len(),
            1,
            "partition 9 and tag Z are rejected"
        );
        assert_eq!(malformed, 3);
        cleanup(&path);
    }

    #[test]
    fn non_v6_headers_are_not_manifests() {
        let path = temp_manifest("manifest-foreign");
        cleanup(&path);
        fs::write(&path, "hat-engine-cache v5\nS1\tk\n").expect("writable");
        assert!(read_manifest(&path).expect("reads").is_none());
        cleanup(&path);
    }

    #[test]
    fn torn_segments_degrade_to_cold() {
        let path = temp_manifest("torn-segment");
        cleanup(&path);
        let dir = segment_dir_for(&path);
        fs::create_dir_all(&dir).expect("mkdir");
        let lines = vec![
            ("k0".to_string(), "S1\tk0".to_string()),
            ("k1".to_string(), "S0\tk1".to_string()),
        ];
        let meta = write_segment(&dir, RecordKind::Solver, 0, 0, 1, &lines).expect("writes");
        assert_eq!(read_segment(&dir, &meta).lines.len(), 2);
        // Truncate a record: the count mismatch marks the whole segment torn.
        let file = dir.join(meta.file_name());
        let contents = fs::read_to_string(&file).expect("readable");
        let cut: String = contents.lines().take(2).map(|l| format!("{l}\n")).collect();
        fs::write(&file, cut).expect("writable");
        let scan = read_segment(&dir, &meta);
        assert!(scan.torn && scan.lines.is_empty());
        // Missing file: torn too.
        fs::remove_file(&file).expect("removable");
        assert!(read_segment(&dir, &meta).torn);
        cleanup(&path);
    }

    #[test]
    fn a_body_that_fails_its_checksum_is_torn() {
        let path = temp_manifest("checksum");
        cleanup(&path);
        let dir = segment_dir_for(&path);
        fs::create_dir_all(&dir).expect("mkdir");
        let lines = vec![("k0".to_string(), "S1\tk0".to_string())];
        let meta = write_segment(&dir, RecordKind::Solver, 0, 0, 1, &lines).expect("writes");
        let file = dir.join(meta.file_name());
        let contents = fs::read_to_string(&file).expect("readable");
        // Same length, same line count, well-formed record: only the checksum can tell.
        fs::write(&file, contents.replace("S1\tk0", "S0\tk0")).expect("writable");
        assert!(read_segment(&dir, &meta).torn);
        // A segment written before segments carried a checksum is read unchecked.
        fs::write(&file, "hat-engine-segment v6\tS\t1\nS0\tk0\n").expect("writable");
        assert_eq!(read_segment(&dir, &meta).lines, vec!["S0\tk0".to_string()]);
        cleanup(&path);
    }

    #[test]
    fn flush_rotation_and_compaction_lifecycle() {
        let path = temp_manifest("lifecycle");
        cleanup(&path);
        let config = LsmConfig {
            memtable_bytes: 64,
            compact_fanin: 3,
        };
        let lsm = Lsm::start(&path, ManifestState::default(), config).expect("starts");
        for i in 0..40 {
            let key = format!("sat|k{i}");
            lsm.log(RecordKind::Solver, &key, format!("S1\t{key}"));
        }
        // Duplicates for dead records:
        for i in 0..10 {
            let key = format!("sat|k{i}");
            lsm.log(RecordKind::Solver, &key, format!("S1\t{key}"));
        }
        lsm.drain();
        let stats = lsm.stats_snapshot();
        assert!(stats.rotations >= 2, "tiny memtable must rotate repeatedly");
        assert!(stats.flushes >= 2);
        let state = lsm.state_snapshot();
        assert!(!state.segments.is_empty());
        assert!(
            state.segments.iter().all(|s| s.kind == RecordKind::Solver),
            "only solver records were logged"
        );
        // Fan-in 3 auto-compaction has likely already merged some families; an explicit
        // pass leaves each family with exactly one segment and drops every duplicate.
        let outcome = lsm.compact();
        let state = lsm.state_snapshot();
        let mut families: HashMap<(RecordKind, u8), usize> = HashMap::new();
        for s in &state.segments {
            *families.entry((s.kind, s.partition)).or_default() += 1;
        }
        assert!(families.values().all(|&n| n == 1));
        assert_eq!(state.records(), 40, "40 distinct keys survive");
        assert!(outcome.records_after <= outcome.records_before);
        // Replay every segment: all 40 keys present, none duplicated.
        let dir = segment_dir_for(&path);
        let mut seen = std::collections::HashSet::new();
        for meta in &state.segments {
            let scan = read_segment(&dir, meta);
            assert!(!scan.torn);
            for line in scan.lines {
                let key = line.split('\t').nth(1).expect("keyed").to_string();
                assert_eq!(partition_of(&key), meta.partition);
                assert!(seen.insert(key), "no duplicates after compaction");
            }
        }
        assert_eq!(seen.len(), 40);
        // Idempotence: a second compaction has nothing to merge.
        let second = lsm.compact();
        assert_eq!(second.segments_merged, 0);
        assert_eq!(second.bytes_before, second.bytes_after);
        drop(lsm);
        cleanup(&path);
    }

    #[test]
    fn drop_drains_the_memtable() {
        let path = temp_manifest("drop-drains");
        cleanup(&path);
        let lsm =
            Lsm::start(&path, ManifestState::default(), LsmConfig::default()).expect("starts");
        lsm.log(RecordKind::Inclusion, "inc|x", "I1\tinc|x".to_string());
        lsm.log(
            RecordKind::Minterms,
            "ab|y",
            "M\tab|y\tU0;M0;P0;Q0;".to_string(),
        );
        assert_eq!(lsm.memtable_records(), 2);
        drop(lsm);
        let (state, _) = read_manifest(&path).expect("reads").expect("v6");
        assert_eq!(state.records(), 2, "drop must flush the memtable");
        let dir = segment_dir_for(&path);
        for meta in &state.segments {
            assert!(!read_segment(&dir, meta).torn);
        }
        cleanup(&path);
    }

    #[test]
    fn gc_removes_only_orphans() {
        let path = temp_manifest("gc");
        cleanup(&path);
        let dir = segment_dir_for(&path);
        fs::create_dir_all(&dir).expect("mkdir");
        let lines = vec![("k".to_string(), "S1\tk".to_string())];
        let live = write_segment(&dir, RecordKind::Solver, 0, 0, 1, &lines).expect("writes");
        let orphan = write_segment(&dir, RecordKind::Solver, 0, 0, 2, &lines).expect("writes");
        fs::write(dir.join("stray.seg.tmp"), b"partial").expect("writable");
        let state = ManifestState {
            next_seq: 3,
            segments: vec![live],
        };
        // A well-formed segment of a kind this binary does not know belongs to a newer
        // binary extending v6 (as `U` did): it must be spared, not collected.
        fs::write(dir.join("X-p0-L0-00000009.seg"), b"future kind").expect("writable");
        // An unknown-tag name that is not segment-shaped is an ordinary stray.
        fs::write(dir.join("X-junk.seg"), b"stray").expect("writable");
        gc_orphans(&dir, &state);
        assert!(dir.join(live.file_name()).exists());
        assert!(!dir.join(orphan.file_name()).exists());
        assert!(!dir.join("stray.seg.tmp").exists());
        assert!(dir.join("X-p0-L0-00000009.seg").exists());
        assert!(!dir.join("X-junk.seg").exists());
        cleanup(&path);
    }
}
