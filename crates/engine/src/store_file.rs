//! The store file (`hat-engine-cache v7`): the whole persistent memo store in one file,
//! read whole when a [`crate::cache::MemoStore`] opens and written whole when a run that
//! added records ends.
//!
//! ```text
//! hat-engine-cache v7
//! <record line>           one per record, sorted (grammar: docs/CACHE_FORMAT.md)
//! …
//! end\t<checksum>         FNV-1a 64 of every preceding byte, 16 hex digits
//! ```
//!
//! The checksum alone decides whether a file with the v7 header is intact: a truncated
//! file has no trailer that matches, and a flipped byte fails the sum, so either opens
//! cold rather than half trusted. A write goes to `<path>.tmp`, is synced and renamed
//! over the file, so a kill leaves the old file or the new one, plus at most a stray
//! `<path>.tmp` that the next write replaces.

use std::fmt::Write as _;
use std::fs::File;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, PoisonError};

/// The first line of a store file.
pub const HEADER: &str = "hat-engine-cache v7";

/// The last line of a store file is this prefix followed by the checksum.
const TRAILER: &str = "end\t";

/// 64-bit FNV-1a, hand-rolled so that a file's checksum never depends on the Rust
/// release that wrote it.
fn fingerprint(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// What a store file holds, judged by its first line and its checksum alone.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Contents<'a> {
    /// A missing or empty file: a fresh store.
    Fresh,
    /// A first line other than [`HEADER`]: another format or version, a v6 manifest
    /// included. Never written.
    Foreign,
    /// The v7 header without an intact body: the trailer is missing, its checksum does
    /// not match, or the body is not UTF-8. Opens cold; the next write replaces it.
    Torn,
    /// An intact file: the record lines between the header and the trailer.
    Intact(&'a str),
}

/// Classifies the bytes of a store file without copying them.
pub(crate) fn decode(bytes: &[u8]) -> Contents<'_> {
    if bytes.is_empty() {
        return Contents::Fresh;
    }
    let header_end = bytes.iter().position(|&b| b == b'\n');
    if &bytes[..header_end.unwrap_or(bytes.len())] != HEADER.as_bytes() {
        return Contents::Foreign;
    }
    let (Some(header_end), Some(rest)) = (header_end, bytes.strip_suffix(b"\n")) else {
        return Contents::Torn;
    };
    // The trailer is the last line; the checksum covers everything before it.
    let body_end = rest.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
    let sum = rest[body_end..]
        .strip_prefix(TRAILER.as_bytes())
        .and_then(|hex| std::str::from_utf8(hex).ok())
        .and_then(|hex| u64::from_str_radix(hex, 16).ok());
    if body_end <= header_end || sum != Some(fingerprint(&bytes[..body_end])) {
        return Contents::Torn;
    }
    match std::str::from_utf8(&bytes[header_end + 1..body_end]) {
        Ok(body) => Contents::Intact(body),
        Err(_) => Contents::Torn,
    }
}

/// The temporary file a write goes through: `<path>.tmp`, named by appending to the
/// file name as `<path>.lock` is, so that two store paths never share one.
fn tmp_path_for(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Writes a store file holding `lines` in the given order: temporary file, `sync_all`,
/// atomic rename, then `sync_all` of the directory so the rename is durable too.
/// Returns the bytes written. A failure before the rename leaves the file at `path`
/// untouched.
pub(crate) fn write(path: &Path, lines: &[String]) -> std::io::Result<u64> {
    let mut image =
        String::with_capacity(HEADER.len() + 24 + lines.iter().map(|l| l.len() + 1).sum::<usize>());
    image.push_str(HEADER);
    image.push('\n');
    for line in lines {
        image.push_str(line);
        image.push('\n');
    }
    let sum = fingerprint(image.as_bytes());
    let _ = writeln!(image, "{TRAILER}{sum:016x}");
    let tmp = tmp_path_for(path);
    let written = File::create(&tmp).and_then(|mut file| {
        file.write_all(image.as_bytes())?;
        file.sync_all()?;
        std::fs::rename(&tmp, path)
    });
    if written.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    written?;
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
    File::open(dir.unwrap_or(Path::new(".")))?.sync_all()?;
    Ok(image.len() as u64)
}

/// Retired: the tuning of the log-structured store that the v7 file replaced. It has no
/// fields and [`LsmConfig::from_env`] reads nothing; it stays only because the
/// repository benchmark's helper passes one to
/// [`crate::MemoStore::with_disk_log_config`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LsmConfig;

impl LsmConfig {
    /// The one configuration. Reads no environment variable.
    pub fn from_env() -> Self {
        LsmConfig
    }
}

/// Counters of a store's file writes. The name is retired (it described the
/// log-structured store); it stays because the repository benchmark's helper reads it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LsmStatsSnapshot {
    /// Whole-file writes.
    pub flushes: usize,
    /// Always 0: the store file is never compacted.
    pub compactions: usize,
    /// Bytes written over every write.
    pub bytes_written: u64,
    /// Bytes the fresh records added: each write's growth over the file this store
    /// last read intact or wrote.
    pub bytes_fresh: u64,
}

impl LsmStatsSnapshot {
    /// Bytes written over bytes of fresh records; 1.0 before any write.
    pub fn write_amplification(&self) -> f64 {
        if self.bytes_fresh == 0 {
            1.0
        } else {
            self.bytes_written as f64 / self.bytes_fresh as f64
        }
    }
}

/// The write side of a store that owns its file: it holds the single-writer lock, and
/// the file was missing, empty, torn or v7.
#[derive(Debug)]
pub(crate) struct Writer {
    path: PathBuf,
    /// Set by every fresh insert; cleared, under `stats`' mutex, by the write that
    /// covers it.
    dirty: AtomicBool,
    /// The writer mutex: one write at a time.
    stats: Mutex<WriterStats>,
}

#[derive(Debug, Default)]
struct WriterStats {
    counters: LsmStatsSnapshot,
    /// Size of the file this store last read intact or wrote.
    image_bytes: u64,
}

impl Writer {
    /// A writer for the file at `path`, which currently holds `image_bytes` bytes of
    /// records this store loaded (0 when it loaded none).
    pub(crate) fn new(path: &Path, image_bytes: u64) -> Self {
        Writer {
            path: path.to_path_buf(),
            dirty: AtomicBool::new(false),
            stats: Mutex::new(WriterStats {
                image_bytes,
                ..WriterStats::default()
            }),
        }
    }

    /// Notes a fresh insert (called after it reached the shared tier). The `Release`
    /// store pairs with the `Acquire` half of the swap in [`Writer::flush`]: a flush
    /// that sees the flag also sees the insert that set it.
    pub(crate) fn mark_dirty(&self) {
        self.dirty.store(true, Ordering::Release);
    }

    /// Writes the record lines `image` returns, sorted, when a fresh insert arrived
    /// since the last write. When this returns, every insert made before the call is
    /// on disk, unless the write failed: then it warns, the previous file stays and
    /// the store stays dirty. Never panics on a poisoned mutex, since [`Drop`] calls
    /// it: the counters it guards are valid after every update.
    pub(crate) fn flush(&self, image: impl FnOnce() -> Vec<String>) {
        let mut stats = self.stats.lock().unwrap_or_else(PoisonError::into_inner);
        if !self.dirty.swap(false, Ordering::AcqRel) {
            return;
        }
        let mut lines = image();
        lines.sort_unstable();
        match write(&self.path, &lines) {
            Ok(bytes) => {
                stats.counters.flushes += 1;
                stats.counters.bytes_written += bytes;
                stats.counters.bytes_fresh += bytes.saturating_sub(stats.image_bytes);
                stats.image_bytes = bytes;
            }
            Err(e) => {
                eprintln!(
                    "warning: cannot write cache `{}` ({e}); the next write retries",
                    self.path.display()
                );
                self.dirty.store(true, Ordering::Release);
            }
        }
    }

    /// A snapshot of the write counters.
    pub(crate) fn stats(&self) -> LsmStatsSnapshot {
        self.stats
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bytes [`write`] puts on disk for `lines`.
    fn written(name: &str, lines: &[&str]) -> Vec<u8> {
        let path =
            std::env::temp_dir().join(format!("hat-store-file-{}-{name}", std::process::id()));
        let lines: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
        write(&path, &lines).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        bytes
    }

    #[test]
    fn the_checksum_is_pinned() {
        // A silent change would make every existing file read as torn.
        assert_eq!(fingerprint(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fingerprint(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn decode_tells_fresh_foreign_torn_and_intact_apart() {
        let bytes = written("decode", &["I1\tb", "S0\ta"]);
        assert_eq!(decode(&bytes), Contents::Intact("I1\tb\nS0\ta\n"));
        assert_eq!(decode(b""), Contents::Fresh);
        assert_eq!(decode(b"hat-engine-cache v6\nseq\t1\n"), Contents::Foreign);
        assert_eq!(decode(&bytes[..bytes.len() - 1]), Contents::Torn);
        // A trailer whose checksum vouches for other bytes than the body it follows.
        let empty = format!("{HEADER}\n{TRAILER}{:016x}\n", fingerprint(b"x"));
        assert_eq!(decode(empty.as_bytes()), Contents::Torn);
        // A store with no records is intact and empty.
        assert_eq!(decode(&written("decode-empty", &[])), Contents::Intact(""));
    }

    #[test]
    fn a_truncated_file_is_torn() {
        let bytes = written("truncated", &["I1\tb", "S0\ta"]);
        for cut in 0..bytes.len() {
            let expected = if cut == 0 {
                Contents::Fresh
            } else if cut < HEADER.len() {
                // A prefix of the header is some other first line.
                Contents::Foreign
            } else {
                Contents::Torn
            };
            assert_eq!(decode(&bytes[..cut]), expected, "cut at {cut}");
        }
    }

    #[test]
    fn a_body_that_fails_its_checksum_is_torn() {
        let bytes = written("checksum", &["S1\tk0"]);
        let text = std::str::from_utf8(&bytes).unwrap();
        // Same length, same line count, well-formed record: only the checksum can tell.
        let flipped = text.replace("S1\tk0", "S0\tk0");
        assert_eq!(flipped.len(), text.len());
        assert_eq!(decode(flipped.as_bytes()), Contents::Torn);
        // A damaged checksum fails the same way.
        let (body, trailer) = text.trim_end().rsplit_once('\n').unwrap();
        let sum = trailer.strip_prefix(TRAILER).unwrap();
        let other = if sum.starts_with('0') { "1" } else { "0" };
        let resummed = format!("{body}\n{TRAILER}{other}{}\n", &sum[1..]);
        assert_eq!(decode(resummed.as_bytes()), Contents::Torn);
        // Without the trailer nothing vouches for the body, intact or not.
        assert_eq!(decode(format!("{body}\n").as_bytes()), Contents::Torn);
        // A body that is not UTF-8 is torn even under a checksum that matches it.
        let mut raw = format!("{HEADER}\nS1\tk").into_bytes();
        raw.extend_from_slice(&[0xff, b'\n']);
        let sum = fingerprint(&raw);
        raw.extend_from_slice(format!("{TRAILER}{sum:016x}\n").as_bytes());
        assert_eq!(decode(&raw), Contents::Torn);
        assert_eq!(decode(&bytes), Contents::Intact("S1\tk0\n"));
    }

    #[test]
    fn non_v7_headers_are_foreign() {
        // The v6 manifest, the flat logs before it, a newer release, and near misses of
        // the header: none is read, so none can be misread.
        for header in [
            "hat-engine-cache v6",
            "hat-engine-cache v5",
            "hat-engine-cache v1",
            "hat-engine-cache v8",
            "hat-engine-cache v7x",
            "hat-engine-cache v7 ",
            "hat-engine-cache  v7",
            "hat-engine-segment v6\tS\t1\t0123456789abcdef",
            "S1\tk",
        ] {
            let text = format!("{header}\nS1\tk\n");
            assert_eq!(decode(text.as_bytes()), Contents::Foreign, "{header:?}");
            assert_eq!(decode(header.as_bytes()), Contents::Foreign, "{header:?}");
        }
        // A v7 body under another header stays foreign, its valid checksum aside.
        let bytes = written("foreign", &["S1\tk"]);
        let renamed = String::from_utf8(bytes).unwrap().replacen("v7", "v6", 1);
        assert_eq!(decode(renamed.as_bytes()), Contents::Foreign);
    }
}
