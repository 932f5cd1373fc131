//! Sharded, capacity-bounded cache for per-user neighbor selections.
//!
//! The online phase caches each user's top-`K` like-minded-user selection
//! ("caching intermediate results", §V-D). A single global
//! `RwLock<HashMap>` serializes every cold miss across all serving
//! threads and grows without bound; this cache shards by user id so
//! concurrent `predict_batch` traffic touches disjoint locks, and bounds
//! memory with per-shard second-chance (clock) eviction so the footprint
//! stays fixed at millions of users.
//!
//! Sharding is by `user.index() % SHARDS`: user ids are dense row indices,
//! so consecutive users — the common batch layout — spread perfectly
//! evenly. Each shard holds `capacity / SHARDS` slots in a clock ring; a
//! hit sets the slot's reference bit (an atomic, so read locks suffice),
//! and an insert into a full shard advances the clock hand, giving each
//! recently-referenced entry a second chance before evicting.
//!
//! The insert/evict/poison-reset logic lives in [`ShardedCacheCore`],
//! generic over the [`cf_obs::sync::Shim`] primitive family: production
//! instantiates it with [`StdShim`] (this module's [`ShardedCache`]),
//! while the `cf-analysis` loom-lite model checker instantiates the
//! *same* logic with scheduler-instrumented primitives and exhaustively
//! explores thread interleavings against its invariants (bounded
//! capacity, no lost entries, poison reset never breaks structure).

#![warn(clippy::disallowed_methods)]

use std::collections::HashMap;
use std::sync::Arc;

use cf_matrix::UserId;
use cf_obs::sync::{Ordering, Shim, ShimAtomicBool, ShimRwLock, StdShim};

/// A cached selection: the user's top-`K` like-minded users.
pub(crate) type Selection = Arc<Vec<(UserId, f64)>>;

/// Number of shards in the production cache. A small power of two:
/// enough to keep a typical thread pool off each other's locks, few
/// enough that per-shard capacity stays meaningful for small caches.
const SHARDS: usize = 16;

/// Default total capacity (entries across all shards). At the paper's
/// `K = 25` a full cache is ~a few hundred MB at this bound — bounded no
/// matter how many millions of distinct users a serving process sees.
pub(crate) const DEFAULT_CAPACITY: usize = 1 << 20;

/// One clock-ring slot: a key, its value, and the second-chance bit.
struct Slot<S: Shim, V> {
    key: u32,
    value: V,
    /// Second-chance reference bit; set on hit under the shard read lock.
    referenced: S::AtomicBool,
}

/// One shard's data, guarded by a `S::RwLock`.
struct Shard<S: Shim, V> {
    /// key → index into `slots`.
    map: HashMap<u32, usize>,
    slots: Vec<Slot<S, V>>,
    /// Clock hand for second-chance eviction.
    hand: usize,
}

impl<S: Shim, V> Default for Shard<S, V> {
    fn default() -> Self {
        Self {
            map: HashMap::new(),
            slots: Vec::new(),
            hand: 0,
        }
    }
}

/// The schedulable cache core: sharded second-chance eviction with
/// poisoned-shard self-reset, generic over the synchronization shim.
///
/// All methods take `&self`; interior mutability is per-shard. Keys are
/// raw `u32` (production wraps [`cf_matrix::UserId`]); values are any
/// cheaply-cloneable type (production uses an `Arc`).
pub struct ShardedCacheCore<S: Shim, V: Clone + Send + Sync + 'static> {
    shards: Vec<S::RwLock<Shard<S, V>>>,
    shard_capacity: usize,
}

impl<S: Shim, V: Clone + Send + Sync + 'static> ShardedCacheCore<S, V> {
    /// A cache of `shards` shards bounded at (roughly) `capacity` total
    /// entries, rounded up to a multiple of the shard count.
    pub fn new(shards: usize, capacity: usize) -> Self {
        let shards = shards.max(1);
        Self {
            shards: (0..shards)
                .map(|_| S::RwLock::new(Shard::default()))
                .collect(),
            shard_capacity: capacity.div_ceil(shards).max(1),
        }
    }

    #[inline]
    fn shard(&self, key: u32) -> &S::RwLock<Shard<S, V>> {
        &self.shards[key as usize % self.shards.len()]
    }

    /// Recovers a shard whose lock was poisoned by a panicking holder:
    /// clears the poison flag and resets the shard to empty. The cache is
    /// pure derived state, so dropping one shard's entries costs a few
    /// re-selections — strictly better than every later request on the
    /// shard panicking on `expect`.
    fn reset_poisoned(lock: &S::RwLock<Shard<S, V>>) {
        cf_obs::counter!("cache.poison_reset").inc();
        lock.clear_poison();
        let mut s = lock.write_recover();
        s.map.clear();
        s.slots.clear();
        s.hand = 0;
    }

    /// Looks up a cached value, marking it recently used.
    pub fn get(&self, key: u32) -> Option<V> {
        let lock = self.shard(key);
        let shard = match lock.read() {
            Ok(g) => g,
            Err(_) => {
                // Poisoned shard: reset it and report a miss.
                Self::reset_poisoned(lock);
                return None;
            }
        };
        let &slot = shard.map.get(&key)?;
        let s = &shard.slots[slot];
        s.referenced.store(true, Ordering::Relaxed);
        Some(s.value.clone())
    }

    /// Inserts a computed value, returning the cached one. When a racing
    /// thread inserted the same key first, the incumbent wins and is
    /// returned — all racers end up sharing one value, so an entry is
    /// never silently replaced ("no lost updates").
    pub fn insert(&self, key: u32, value: V) -> V {
        let lock = self.shard(key);
        let mut shard = match lock.write() {
            Ok(g) => g,
            Err(_) => {
                Self::reset_poisoned(lock);
                // A second poisoning between reset and re-acquire: the
                // shard was just emptied, the data is usable regardless.
                lock.write_recover()
            }
        };
        #[cfg(feature = "faultinject")]
        cf_faultinject::maybe_panic("cache.poison");
        if let Some(&slot) = shard.map.get(&key) {
            let s = &shard.slots[slot];
            s.referenced.store(true, Ordering::Relaxed);
            return s.value.clone();
        }
        let slot = if shard.slots.len() < self.shard_capacity {
            shard.slots.push(Slot {
                key,
                value: value.clone(),
                referenced: S::AtomicBool::new(false),
            });
            shard.slots.len() - 1
        } else {
            // Second chance: clear reference bits until an unreferenced
            // victim turns up. Terminates within two laps.
            let victim = loop {
                let hand = shard.hand;
                shard.hand = (hand + 1) % shard.slots.len();
                let s = &shard.slots[hand];
                if s.referenced.swap(false, Ordering::Relaxed) {
                    continue;
                }
                break hand;
            };
            let old = shard.slots[victim].key;
            shard.map.remove(&old);
            shard.slots[victim] = Slot {
                key,
                value: value.clone(),
                referenced: S::AtomicBool::new(false),
            };
            victim
        };
        shard.map.insert(key, slot);
        value
    }

    /// Number of cached entries across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| match s.read() {
                Ok(g) => g.map.len(),
                Err(_) => {
                    Self::reset_poisoned(s);
                    0
                }
            })
            .sum()
    }

    /// True when no entry is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total entry bound (never exceeded by [`Self::len`]).
    pub fn capacity(&self) -> usize {
        self.shard_capacity * self.shards.len()
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Drops every cached entry. A poisoned shard is recovered on the
    /// way through — clearing is exactly the reset anyway.
    pub fn clear(&self) {
        for shard in &self.shards {
            if shard.is_poisoned() {
                cf_obs::counter!("cache.poison_reset").inc();
                shard.clear_poison();
            }
            let mut s = shard.write_recover();
            s.map.clear();
            s.slots.clear();
            s.hand = 0;
        }
    }

    /// Instrumentation (tests and the model checker): poisons shard
    /// `idx`'s lock exactly as a panicking writer would.
    pub fn poison_shard(&self, idx: usize) {
        self.shards[idx % self.shards.len()].poison();
    }

    /// Whether shard `idx`'s lock is currently poisoned.
    pub fn is_shard_poisoned(&self, idx: usize) -> bool {
        self.shards[idx % self.shards.len()].is_poisoned()
    }

    /// Structural integrity check (model checker / tests): every map
    /// entry points at a slot holding its key, the map and slot tables
    /// agree in size, and no shard exceeds its capacity. Ignores poison
    /// (inspects whatever data is there).
    pub fn integrity(&self) -> Result<(), String> {
        for (i, lock) in self.shards.iter().enumerate() {
            let s = lock.write_recover();
            if s.slots.len() > self.shard_capacity {
                return Err(format!(
                    "shard {i}: {} slots exceed capacity {}",
                    s.slots.len(),
                    self.shard_capacity
                ));
            }
            if s.map.len() != s.slots.len() {
                return Err(format!(
                    "shard {i}: map has {} entries but {} slots",
                    s.map.len(),
                    s.slots.len()
                ));
            }
            for (&key, &slot) in &s.map {
                if slot >= s.slots.len() {
                    return Err(format!("shard {i}: key {key} → dangling slot {slot}"));
                }
                if s.slots[slot].key != key {
                    return Err(format!(
                        "shard {i}: key {key} → slot {slot} holding key {}",
                        s.slots[slot].key
                    ));
                }
            }
        }
        Ok(())
    }
}

/// The production neighbor cache: [`ShardedCacheCore`] over std
/// primitives, keyed by [`UserId`].
pub(crate) struct ShardedCache {
    core: ShardedCacheCore<StdShim, Selection>,
}

impl ShardedCache {
    /// A cache bounded at (roughly) `capacity` entries, rounded up to a
    /// multiple of the shard count.
    pub(crate) fn new(capacity: usize) -> Self {
        Self {
            core: ShardedCacheCore::new(SHARDS, capacity),
        }
    }

    /// Looks up a cached selection, marking it recently used.
    pub(crate) fn get(&self, user: UserId) -> Option<Selection> {
        self.core.get(user.0)
    }

    /// Inserts a computed selection, returning the cached `Arc`. When a
    /// racing thread inserted the same user first, the incumbent wins and
    /// is returned — all racers end up sharing one allocation.
    pub(crate) fn insert(&self, user: UserId, value: Selection) -> Selection {
        self.core.insert(user.0, value)
    }

    /// Number of cached selections across all shards.
    pub(crate) fn len(&self) -> usize {
        self.core.len()
    }

    /// Total entry bound (never exceeded by [`Self::len`]).
    pub(crate) fn capacity(&self) -> usize {
        self.core.capacity()
    }

    /// Drops every cached selection.
    pub(crate) fn clear(&self) {
        self.core.clear()
    }
}

impl std::fmt::Debug for ShardedCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedCache")
            .field("len", &self.len())
            .field("capacity", &self.capacity())
            .field("shards", &SHARDS)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sel(u: u32) -> Selection {
        Arc::new(vec![(UserId::new(u), 1.0)])
    }

    /// Poisons a shard's lock as a panicking writer would.
    fn poison_shard(c: &ShardedCache, shard: usize) {
        c.core.poison_shard(shard);
        assert!(c.core.is_shard_poisoned(shard));
    }

    #[test]
    fn poisoned_shard_recovers_on_get() {
        let c = ShardedCache::new(64);
        c.insert(UserId::new(0), sel(0));
        c.insert(UserId::new(1), sel(1)); // different shard, must survive
        poison_shard(&c, 0);
        // First touch reports a miss and resets the shard.
        assert!(c.get(UserId::new(0)).is_none());
        assert!(!c.core.is_shard_poisoned(0));
        // The shard serves again; other shards were never affected.
        let v = c.insert(UserId::new(0), sel(0));
        assert!(Arc::ptr_eq(&v, &c.get(UserId::new(0)).unwrap()));
        assert!(c.get(UserId::new(1)).is_some());
    }

    #[test]
    fn poisoned_shard_recovers_on_insert_len_and_clear() {
        let c = ShardedCache::new(64);
        poison_shard(&c, 0);
        let v = c.insert(UserId::new(16), sel(16));
        assert!(Arc::ptr_eq(&v, &c.get(UserId::new(16)).unwrap()));

        poison_shard(&c, 1);
        assert_eq!(c.len(), 1); // poisoned shard counts as empty
        poison_shard(&c, 2);
        c.clear();
        assert_eq!(c.len(), 0);
        assert!((0..3).all(|s| !c.core.is_shard_poisoned(s)));
    }

    #[test]
    fn insert_then_get_shares_the_arc() {
        let c = ShardedCache::new(64);
        let v = c.insert(UserId::new(3), sel(3));
        let hit = c.get(UserId::new(3)).expect("cached");
        assert!(Arc::ptr_eq(&v, &hit));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn racing_insert_keeps_the_incumbent() {
        let c = ShardedCache::new(64);
        let first = c.insert(UserId::new(5), sel(5));
        let second = c.insert(UserId::new(5), sel(99));
        assert!(Arc::ptr_eq(&first, &second), "incumbent must win");
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn capacity_is_a_hard_bound_and_misses_still_serve() {
        let c = ShardedCache::new(32);
        for u in 0..500u32 {
            c.insert(UserId::new(u), sel(u));
        }
        assert!(c.len() <= c.capacity(), "{} > {}", c.len(), c.capacity());
        // Every user remains insertable/fetchable after heavy eviction.
        let v = c.insert(UserId::new(1000), sel(1000));
        assert!(Arc::ptr_eq(&v, &c.get(UserId::new(1000)).unwrap()));
        c.core.integrity().expect("structure intact after eviction");
    }

    #[test]
    fn second_chance_prefers_evicting_unreferenced_entries() {
        // One shard gets 2 slots (capacity 32 / 16 shards); users 0, 16,
        // 32 share shard 0. Touch user 0, insert user 32: user 16 (never
        // referenced since insert) must be the victim.
        let c = ShardedCache::new(32);
        c.insert(UserId::new(0), sel(0));
        c.insert(UserId::new(16), sel(16));
        assert!(c.get(UserId::new(0)).is_some()); // sets the ref bit
        c.insert(UserId::new(32), sel(32));
        assert!(c.get(UserId::new(0)).is_some(), "referenced entry kept");
        assert!(c.get(UserId::new(16)).is_none(), "unreferenced evicted");
        assert!(c.get(UserId::new(32)).is_some());
    }

    #[test]
    fn clear_empties_every_shard() {
        let c = ShardedCache::new(64);
        for u in 0..40u32 {
            c.insert(UserId::new(u), sel(u));
        }
        c.clear();
        assert_eq!(c.len(), 0);
        assert!(c.get(UserId::new(7)).is_none());
    }

    #[test]
    fn core_integrity_holds_through_poison_reset() {
        let c: ShardedCacheCore<StdShim, u32> = ShardedCacheCore::new(2, 4);
        for k in 0..10 {
            c.insert(k, k * 100);
        }
        c.integrity().expect("intact before poisoning");
        c.poison_shard(0);
        assert!(c.get(0).is_none(), "poisoned shard misses after reset");
        c.integrity().expect("intact after reset");
        assert_eq!(c.insert(0, 7), 7);
        assert_eq!(c.get(0), Some(7));
    }
}
