//! The tiers of the memo hierarchy.
//!
//! Every record kind of the [`crate::cache::MemoStore`] — solver verdicts, inclusion
//! verdicts, DFA shapes, minterm sets — is served by the same two in-memory tiers,
//! instantiated once per kind, above the store file:
//!
//! 1. a **local tier** ([`LocalMap`], grouped per worker in [`LocalTier`]): a plain
//!    lock-free hash map owned by one scheduler worker. Lookups and promotions touch no
//!    lock at all, which is what cuts shared-shard lock traffic under `--jobs N`;
//! 2. a **shared tier** ([`SharedTier`]): a sharded `RwLock` map shared by every worker
//!    of the run, counting its lock acquisitions so the local tier's effect is
//!    measurable. Opening a store reads its file straight into the shared tiers,
//!    uncounted, and a write of the file iterates them, uncounted too (see
//!    [`crate::store_file`]).
//!
//! The read-through composition (probe local → fall through to shared → promote the hit
//! into local) lives in [`crate::oracle::CachingOracle`] and
//! [`crate::cache::MemoStore::lookup`]; this module provides the tiers themselves.
//!
//! Correctness of read-through caching rests on the same invariant as the rest of the
//! cache: every value is a **pure function of its canonical key**, so a stale local copy
//! cannot exist — two tiers can only ever disagree by one not yet holding a key.

use crate::cache::{MemoValue, RecordKind};
use std::cell::RefCell;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::RwLock;

/// A worker-local lock-free tier for one record kind.
///
/// Interior mutability (instead of `&mut`) lets one worker share a single tier across
/// the many short-lived oracles it creates — one per (benchmark, method) job — behind an
/// `Rc`, without threading mutable borrows through the checker stack.
///
/// ```
/// use hat_engine::tier::LocalMap;
///
/// let tier: LocalMap<bool> = LocalMap::default();
/// assert_eq!(tier.get("k"), None);
/// assert!(tier.put("k".into(), true));
/// assert!(!tier.put("k".into(), true), "second put is not fresh");
/// assert_eq!(tier.get("k"), Some(true));
/// ```
#[derive(Debug)]
pub struct LocalMap<V> {
    map: RefCell<HashMap<String, V>>,
}

impl<V> Default for LocalMap<V> {
    fn default() -> Self {
        LocalMap {
            map: RefCell::new(HashMap::new()),
        }
    }
}

impl<V: Clone> LocalMap<V> {
    /// Looks a key up without any locking.
    pub fn get(&self, key: &str) -> Option<V> {
        self.map.borrow().get(key).cloned()
    }

    /// Stores a value without any locking; `true` when the key is new.
    pub fn put(&self, key: String, value: V) -> bool {
        self.map.borrow_mut().insert(key, value).is_none()
    }
}

/// One worker's local tier set: one [`LocalMap`] per record kind, shared by every oracle
/// the worker creates (via `Rc`). Dropping it at the end of the worker's job stream
/// discards the promotions — the shared tier remains the source of truth.
#[derive(Debug, Default)]
pub struct LocalTier {
    maps: [LocalMap<MemoValue>; 4],
}

impl LocalTier {
    /// Looks a record of `kind` up without any locking.
    pub(crate) fn get(&self, kind: RecordKind, key: &str) -> Option<MemoValue> {
        self.maps[kind as usize].get(key)
    }

    /// Stores a record of `kind` without any locking; `true` when the key is new.
    pub(crate) fn put(&self, kind: RecordKind, key: String, value: MemoValue) -> bool {
        self.maps[kind as usize].put(key, value)
    }
}

/// Shard count of a [`SharedTier`].
const SHARDS: usize = 64;

/// The shared sharded tier for one record kind: 64 independently locked hash maps,
/// plus a relaxed counter of every shard-lock acquisition (reads and writes alike) so
/// the traffic the local tiers absorb is visible in statistics.
#[derive(Debug)]
pub struct SharedTier<V> {
    shards: Vec<RwLock<HashMap<String, V>>>,
    locks: AtomicUsize,
}

impl<V> Default for SharedTier<V> {
    fn default() -> Self {
        SharedTier {
            shards: (0..SHARDS).map(|_| RwLock::default()).collect(),
            locks: AtomicUsize::new(0),
        }
    }
}

impl<V> SharedTier<V> {
    fn shard(&self, key: &str) -> &RwLock<HashMap<String, V>> {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % self.shards.len()]
    }

    /// Total shard-lock acquisitions since construction.
    pub fn lock_acquisitions(&self) -> usize {
        self.locks.load(Ordering::Relaxed)
    }

    /// Number of entries across every shard (uncounted, like replay).
    pub(crate) fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().expect("shared tier shard poisoned").len())
            .sum()
    }
}

impl<V: Clone> SharedTier<V> {
    /// Looks a key up (one read-lock acquisition).
    pub fn get(&self, key: &str) -> Option<V> {
        self.locks.fetch_add(1, Ordering::Relaxed);
        self.shard(key)
            .read()
            .expect("shared tier shard poisoned")
            .get(key)
            .cloned()
    }

    /// Stores a value (one write-lock acquisition); `true` when the key is new.
    pub fn put(&self, key: String, value: V) -> bool {
        self.locks.fetch_add(1, Ordering::Relaxed);
        self.put_quiet(key, value)
    }

    /// Stores a value without counting the lock acquisition — used when replaying the
    /// store file at open, which is bookkeeping and should not pollute the contention
    /// statistics the local tiers are measured by.
    pub(crate) fn put_quiet(&self, key: String, value: V) -> bool {
        self.shard(&key)
            .write()
            .expect("shared tier shard poisoned")
            .insert(key, value)
            .is_none()
    }

    /// Visits every entry, shard by shard, without counting the lock acquisitions —
    /// used to write the store file.
    pub(crate) fn for_each(&self, mut visit: impl FnMut(&str, &V)) {
        for shard in &self.shards {
            let shard = shard.read().expect("shared tier shard poisoned");
            shard.iter().for_each(|(key, value)| visit(key, value));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_tier_counts_lock_acquisitions() {
        let tier: SharedTier<bool> = SharedTier::default();
        assert_eq!(tier.get("a"), None);
        assert!(tier.put("a".into(), true));
        assert!(!tier.put("a".into(), true));
        assert_eq!(tier.get("a"), Some(true));
        assert_eq!(tier.lock_acquisitions(), 4);
        assert!(tier.put_quiet("b".into(), false));
        assert_eq!(
            tier.lock_acquisitions(),
            4,
            "replay inserts are not counted"
        );
        assert_eq!(tier.len(), 2);
    }
}
