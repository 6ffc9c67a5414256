//! The tiers of the memo hierarchy.
//!
//! Every record kind of the [`crate::cache::MemoStore`] — solver verdicts, inclusion
//! verdicts, DFA shapes, minterm sets — is served by
//! the same three-level tier stack, instantiated once per kind:
//!
//! 1. a **local tier** ([`LocalMap`], grouped per worker in [`LocalTier`]): a plain
//!    lock-free hash map owned by one scheduler worker. Lookups and promotions touch no
//!    lock at all, which is what cuts shared-shard lock traffic under `--jobs N`;
//! 2. a **shared tier** ([`SharedTier`]): a sharded `RwLock` map shared by every worker
//!    of the run, counting its lock acquisitions so the local tier's effect is
//!    measurable;
//! 3. a **disk tier** ([`DiskTier`]): the in-memory image of the persistent LSM segment
//!    stack owned by [`crate::cache::MemoStore`] (see [`crate::lsm`]). Segments are
//!    replayed into it at open; a shared-tier miss falls through to it and a hit is
//!    *promoted* — moved — up into the shared tier, so each warm record pays its
//!    disk-tier lock at most once. Fresh shared-tier inserts are written through to the
//!    LSM memtable, which flushes and compacts on a background thread that takes no
//!    tier locks at all.
//!
//! The read-through composition (probe local → fall through to shared and disk →
//! promote the hit into local) lives in [`crate::oracle::CachingOracle`] and
//! [`crate::cache::MemoStore::lookup`]; this module provides the tiers themselves.
//!
//! Correctness of read-through caching rests on the same invariant as the rest of the
//! cache: every value is a **pure function of its canonical key**, so a stale local copy
//! cannot exist — two tiers can only ever disagree by one not yet holding a key.

use crate::cache::{MemoValue, RecordKind};
use std::cell::RefCell;
use std::collections::hash_map::{DefaultHasher, Entry};
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
    maps: [LocalMap<MemoValue>; 6],
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

    /// Stores a value without counting the lock acquisition — used when promoting a
    /// disk-tier hit, which is replay-like bookkeeping and should not pollute the
    /// contention statistics the local tiers are measured by.
    pub(crate) fn put_quiet(&self, key: String, value: V) -> bool {
        self.shard(&key)
            .write()
            .expect("shared tier shard poisoned")
            .insert(key, value)
            .is_none()
    }
}

/// The disk tier of one record kind: the in-memory image of what the LSM segment stack
/// holds for that kind, replayed once at open. It sits *below* the shared tier: a
/// shared-tier miss falls through to `get` here, and a hit is promoted into the shared
/// tier and evicted from this tier (the segments on disk still hold the record; this
/// map only exists so warm lookups need not re-read segment files). Like the shared
/// tier it counts its lock acquisitions, so `engine/tests/tiers.rs` can assert that
/// background compaction — which touches only segment files and the manifest — never
/// acquires one.
///
/// A single `RwLock` (not shards) is deliberate: after the open-time replay the tier is
/// read-mostly and every hot key migrates out of it after its first warm lookup.
#[derive(Debug)]
pub struct DiskTier<V> {
    map: RwLock<HashMap<String, V>>,
    locks: AtomicUsize,
}

impl<V> Default for DiskTier<V> {
    fn default() -> Self {
        DiskTier {
            map: RwLock::new(HashMap::new()),
            locks: AtomicUsize::new(0),
        }
    }
}

impl<V> DiskTier<V> {
    /// Total lock acquisitions since construction (reads and writes alike).
    pub fn lock_acquisitions(&self) -> usize {
        self.locks.load(Ordering::Relaxed)
    }

    /// Number of un-promoted entries (uncounted, like replay).
    pub(crate) fn len(&self) -> usize {
        self.map.read().expect("disk tier poisoned").len()
    }
}

impl<V: Clone> DiskTier<V> {
    /// Looks a key up (one counted read-lock acquisition).
    pub fn get(&self, key: &str) -> Option<V> {
        self.locks.fetch_add(1, Ordering::Relaxed);
        self.map
            .read()
            .expect("disk tier poisoned")
            .get(key)
            .cloned()
    }

    /// Stores a replayed record without counting the lock — open-time replay is
    /// sequential and should not pollute the contention statistics. `true` when fresh
    /// (replay feeds segments newest-first, so the first occurrence wins).
    pub fn put_quiet(&self, key: String, value: V) -> bool {
        match self.map.write().expect("disk tier poisoned").entry(key) {
            Entry::Occupied(_) => false,
            Entry::Vacant(slot) => {
                slot.insert(value);
                true
            }
        }
    }

    /// Drops a record that was just promoted into the shared tier (one counted
    /// write-lock acquisition). Racing promotions are harmless: the second eviction is
    /// a no-op and both workers promoted the same pure-function-of-key value.
    pub fn evict(&self, key: &str) {
        self.locks.fetch_add(1, Ordering::Relaxed);
        self.map.write().expect("disk tier poisoned").remove(key);
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
            "promotion inserts are not counted"
        );
        assert_eq!(tier.len(), 2);
    }

    #[test]
    fn disk_tier_counts_locks_and_evicts_promotions() {
        let tier: DiskTier<bool> = DiskTier::default();
        assert!(tier.put_quiet("warm".into(), true));
        assert!(!tier.put_quiet("warm".into(), false), "first replay wins");
        assert_eq!(tier.lock_acquisitions(), 0, "replay is uncounted");
        assert_eq!(tier.get("warm"), Some(true));
        assert_eq!(tier.lock_acquisitions(), 1);
        tier.evict("warm");
        assert_eq!(tier.get("warm"), None);
        assert_eq!(tier.lock_acquisitions(), 3);
        assert_eq!(tier.len(), 0);
    }
}
