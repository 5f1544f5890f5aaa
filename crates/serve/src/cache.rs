//! The sharded result cache: finished `/v1/solve` response bodies
//! keyed by a 128-bit request fingerprint, with per-shard LRU
//! eviction under a byte budget.
//!
//! Solvers are deterministic, so a response is a pure function of
//! (solver name, engine options, instance) — exactly what the
//! fingerprint hashes. The instance component is the *canonical*
//! compact JSON of the parsed instance, so two clients formatting the
//! same instance differently (whitespace, indentation) still share an
//! entry. Shards are independently mutex-guarded, so concurrent
//! workers only contend when their fingerprints land on the same
//! shard; the DP workspaces stay per-worker and shared-nothing
//! underneath, as in the batch pipeline.
//!
//! Entries store the serialized body (`Arc<str>`), so a hit skips the
//! solve *and* re-serialization, and hit/miss responses are
//! byte-identical by construction.

use parking_lot::Mutex;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::Hasher;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Slab sentinel for "no slot".
const NIL: usize = usize::MAX;

/// Bookkeeping bytes charged per entry on top of the body itself
/// (fingerprint, slab links, map slot — a rough, stable estimate).
const ENTRY_OVERHEAD: usize = 64;

/// A 128-bit request fingerprint: two independently salted 64-bit
/// hashes of the canonical request text. `DefaultHasher` with default
/// keys is deterministic within a process (and across processes for a
/// given std release), and 128 bits make an accidental collision over
/// any realistic cache population vanishingly unlikely.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Fingerprint(u64, u64);

/// Fingerprint the canonical request text (see [`ResultCache`]).
pub fn fingerprint(text: &str) -> Fingerprint {
    let mut a = DefaultHasher::new();
    a.write(text.as_bytes());
    let mut b = DefaultHasher::new();
    // A salt byte decorrelates the halves: same input, different hash.
    b.write_u8(0x9e);
    b.write(text.as_bytes());
    Fingerprint(a.finish(), b.finish())
}

/// One cached response body in a shard's slab.
struct Slot {
    key: Fingerprint,
    body: Arc<str>,
    prev: usize,
    next: usize,
}

/// One mutex-guarded shard: an intrusive doubly-linked LRU list over
/// a slab, plus the fingerprint index. `head` is most recent, `tail`
/// is next to evict.
struct Shard {
    index: HashMap<Fingerprint, usize>,
    slots: Vec<Slot>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
    bytes: usize,
}

impl Shard {
    fn new() -> Self {
        Shard {
            index: HashMap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            bytes: 0,
        }
    }

    fn unlink(&mut self, at: usize) {
        let (prev, next) = (self.slots[at].prev, self.slots[at].next);
        match prev {
            NIL => self.head = next,
            p => self.slots[p].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n].prev = prev,
        }
    }

    fn push_front(&mut self, at: usize) {
        self.slots[at].prev = NIL;
        self.slots[at].next = self.head;
        match self.head {
            NIL => self.tail = at,
            h => self.slots[h].prev = at,
        }
        self.head = at;
    }

    /// Drop the least-recently-used entry; returns false when empty.
    fn evict_tail(&mut self) -> bool {
        let victim = self.tail;
        if victim == NIL {
            return false;
        }
        self.unlink(victim);
        self.index.remove(&self.slots[victim].key);
        self.bytes -= entry_cost(&self.slots[victim].body);
        self.slots[victim].body = Arc::from("");
        self.free.push(victim);
        true
    }
}

fn entry_cost(body: &Arc<str>) -> usize {
    body.len() + ENTRY_OVERHEAD
}

/// Aggregate cache counters, surfaced in `/metrics`.
#[derive(Clone, Copy, Debug)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to a solve.
    pub misses: u64,
    /// Entries dropped to stay under the byte budget.
    pub evictions: u64,
    /// Live entries across every shard.
    pub entries: usize,
    /// Estimated live bytes (bodies + per-entry overhead).
    pub bytes: usize,
}

/// The sharded LRU result cache (see module docs).
pub struct ResultCache {
    shards: Vec<Mutex<Shard>>,
    shard_budget: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl ResultCache {
    /// A cache of `shards` independent LRUs splitting `byte_budget`
    /// evenly. Shard count is clamped to at least 1; a zero budget
    /// disables storage (every insert evicts immediately to empty).
    pub fn new(shards: usize, byte_budget: usize) -> Self {
        let shards = shards.max(1);
        ResultCache {
            shard_budget: byte_budget / shards,
            shards: (0..shards).map(|_| Mutex::new(Shard::new())).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: Fingerprint) -> &Mutex<Shard> {
        &self.shards[(key.0 % self.shards.len() as u64) as usize]
    }

    /// Look `key` up, refreshing its recency on a hit.
    pub fn get(&self, key: Fingerprint) -> Option<Arc<str>> {
        let mut shard = self.shard(key).lock();
        match shard.index.get(&key).copied() {
            Some(at) => {
                shard.unlink(at);
                shard.push_front(at);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(Arc::clone(&shard.slots[at].body))
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Like [`get`](Self::get), but absence is not counted as a miss:
    /// the event loop probes speculatively before dispatching to a
    /// worker, and the worker's own `get` will record the miss for
    /// exactly one count per request.
    pub fn peek(&self, key: Fingerprint) -> Option<Arc<str>> {
        let mut shard = self.shard(key).lock();
        let at = shard.index.get(&key).copied()?;
        shard.unlink(at);
        shard.push_front(at);
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(Arc::clone(&shard.slots[at].body))
    }

    /// Insert (or refresh) `key → body`, then evict from the shard's
    /// LRU tail until the shard is back under budget. A body too large
    /// for a whole shard is not stored at all — caching it would only
    /// wipe the shard and then evict itself.
    pub fn insert(&self, key: Fingerprint, body: Arc<str>) {
        let cost = entry_cost(&body);
        if cost > self.shard_budget {
            return;
        }
        let mut shard = self.shard(key).lock();
        if let Some(at) = shard.index.get(&key).copied() {
            // Deterministic solvers make a changed body impossible;
            // refresh recency and keep the original bytes.
            shard.unlink(at);
            shard.push_front(at);
            return;
        }
        let at = match shard.free.pop() {
            Some(at) => {
                shard.slots[at] = Slot {
                    key,
                    body,
                    prev: NIL,
                    next: NIL,
                };
                at
            }
            None => {
                shard.slots.push(Slot {
                    key,
                    body,
                    prev: NIL,
                    next: NIL,
                });
                shard.slots.len() - 1
            }
        };
        shard.index.insert(key, at);
        shard.push_front(at);
        shard.bytes += cost;
        while shard.bytes > self.shard_budget {
            if !shard.evict_tail() {
                break;
            }
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Aggregate counters across every shard.
    pub fn stats(&self) -> CacheStats {
        let (mut entries, mut bytes) = (0, 0);
        for shard in &self.shards {
            let shard = shard.lock();
            entries += shard.index.len();
            bytes += shard.bytes;
        }
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries,
            bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn body(text: &str) -> Arc<str> {
        Arc::from(text)
    }

    #[test]
    fn fingerprints_are_stable_and_distinct() {
        assert_eq!(fingerprint("csr\n{}"), fingerprint("csr\n{}"));
        assert_ne!(fingerprint("csr\n{}"), fingerprint("four\n{}"));
        let Fingerprint(a, b) = fingerprint("csr\n{}");
        assert_ne!(a, b, "the two halves must be decorrelated");
    }

    #[test]
    fn hits_and_misses_are_counted() {
        let cache = ResultCache::new(4, 4096);
        let key = fingerprint("solo");
        assert!(cache.get(key).is_none());
        cache.insert(key, body("value"));
        assert_eq!(cache.get(key).as_deref(), Some("value"));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    }

    #[test]
    fn lru_evicts_oldest_first_and_get_refreshes() {
        // One shard so the LRU order is globally observable.
        let cache = ResultCache::new(1, 3 * (ENTRY_OVERHEAD + 1));
        let (a, b, c, d) = (
            fingerprint("a"),
            fingerprint("b"),
            fingerprint("c"),
            fingerprint("d"),
        );
        cache.insert(a, body("1"));
        cache.insert(b, body("2"));
        cache.insert(c, body("3"));
        assert!(cache.get(a).is_some()); // refresh a: b is now oldest
        cache.insert(d, body("4")); // evicts b
        assert!(cache.get(b).is_none());
        assert!(cache.get(a).is_some());
        assert!(cache.get(c).is_some());
        assert!(cache.get(d).is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn byte_budget_bounds_live_bytes() {
        let budget = 2048;
        let cache = ResultCache::new(2, budget);
        for i in 0..200 {
            cache.insert(fingerprint(&format!("key{i}")), body(&"x".repeat(100)));
        }
        let stats = cache.stats();
        assert!(stats.bytes <= budget, "{stats:?}");
        assert!(stats.evictions > 0);
        assert!(stats.entries > 0);
    }

    #[test]
    fn oversized_bodies_are_not_cached() {
        let cache = ResultCache::new(1, 256);
        let key = fingerprint("huge");
        cache.insert(key, body(&"x".repeat(10_000)));
        assert!(cache.get(key).is_none());
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn reinsert_refreshes_recency_without_duplicating() {
        let cache = ResultCache::new(1, 4096);
        let key = fingerprint("k");
        cache.insert(key, body("v"));
        cache.insert(key, body("v"));
        let stats = cache.stats();
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.bytes, 1 + ENTRY_OVERHEAD);
    }
}
