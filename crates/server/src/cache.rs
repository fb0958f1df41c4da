//! The sharded, byte-capacity LRU tile cache.
//!
//! Tiles are immutable once rendered — a cache key pins every input
//! that affects the bytes (address, query parameter, kernel bandwidth)
//! — so the cache never invalidates, only evicts for space. Capacity
//! is counted in *payload bytes*, not entries: one z0 PNG of a dense
//! map can outweigh a hundred empty ocean tiles, and an entry-count
//! cap would let memory use drift by two orders of magnitude.
//!
//! Concurrency: the key hashes (FNV-1a, fixed seed — deterministic
//! across runs and platforms) to one of N shards, each a small
//! mutex-guarded LRU. Worker threads rendering different tiles
//! contend only when their tiles share a shard; the monotone hit/miss
//! counters live outside the locks entirely
//! ([`kdv_telemetry::CacheCounters`]).
//!
//! Eviction within a shard is exact LRU via access stamps. Beside the
//! key map, each shard keeps its keys ordered by stamp, so the victim
//! is the first entry of that index, found in O(log n) under the shard
//! lock. Compressed tiles are small (a few hundred bytes to a few
//! kilobytes), so a shard of a few megabytes holds thousands of them:
//! a linear victim scan would grow with the cache it serves.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};

use kdv_telemetry::{CacheCounters, CacheSnapshot, Family, Reading, Unit};

use crate::tile::TileAddr;

/// Everything that determines a rendered tile's bytes.
///
/// The float parameters enter as IEEE-754 bit patterns: bitwise
/// equality is exactly "same render", and `NaN`/`-0.0` oddities cannot
/// poison `Eq`/`Hash`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TileKey {
    /// Catalog slot index of the dataset (0 in single-dataset mode).
    /// Two datasets can share an address, ε, and γ yet render
    /// different bytes, so the dataset is part of the key.
    pub dataset: u32,
    /// The pyramid address (kind, z, x, y).
    pub addr: TileAddr,
    /// `ε.to_bits()` for εKDV tiles, `τ.to_bits()` for τKDV tiles.
    pub param_bits: u64,
    /// Kernel bandwidth `γ.to_bits()`.
    pub gamma_bits: u64,
    /// Coreset pyramid level that rendered the tile
    /// ([`crate::server::FULL_LEVEL`] for the full index). A compaction
    /// that re-certifies the ladder can shift the pick; keying on the
    /// level keeps stale-level bytes from surviving the swap.
    pub level: u8,
}

struct Entry {
    data: Arc<Vec<u8>>,
    /// Shard-clock reading of the last access (higher = more recent).
    stamp: u64,
}

struct Shard {
    map: HashMap<TileKey, Entry>,
    /// Every key by its entry's stamp, least recently used first.
    lru: BTreeMap<u64, TileKey>,
    /// Payload bytes currently held.
    bytes: usize,
    /// Monotone access clock feeding the LRU stamps.
    clock: u64,
}

/// A sharded LRU cache of encoded tiles with a byte-capacity bound.
pub struct TileCache {
    shards: Vec<Mutex<Shard>>,
    shard_capacity: usize,
    counters: CacheCounters,
}

impl TileCache {
    /// A cache holding at most `capacity_bytes` of payload across
    /// `shards` independent shards (each gets an equal slice of the
    /// capacity). `shards` is clamped to at least 1.
    pub fn new(capacity_bytes: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        Self {
            shards: (0..shards)
                .map(|_| {
                    Mutex::new(Shard {
                        map: HashMap::new(),
                        lru: BTreeMap::new(),
                        bytes: 0,
                        clock: 0,
                    })
                })
                .collect(),
            shard_capacity: capacity_bytes / shards,
            counters: CacheCounters::default(),
        }
    }

    /// Which shard `key` lives in. Deterministic across cache
    /// instances, runs, and platforms (fixed-seed FNV-1a) — so a test
    /// or an operator can reason about shard placement offline.
    pub fn shard_index(&self, key: &TileKey) -> usize {
        // FNV-1a over the key's canonical little-endian bytes.
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(PRIME);
            }
        };
        eat(&key.dataset.to_le_bytes());
        eat(&[key.addr.kind as u8, key.addr.z]);
        eat(&key.addr.x.to_le_bytes());
        eat(&key.addr.y.to_le_bytes());
        eat(&key.param_bits.to_le_bytes());
        eat(&key.gamma_bits.to_le_bytes());
        eat(&[key.level]);
        (h % self.shards.len() as u64) as usize
    }

    /// Looks up a tile, refreshing its recency on a hit.
    pub fn get(&self, key: &TileKey) -> Option<Arc<Vec<u8>>> {
        let mut shard = self.shards[self.shard_index(key)]
            .lock()
            .expect("cache shard poisoned");
        shard.clock += 1;
        let stamp = shard.clock;
        match shard.map.get_mut(key) {
            Some(entry) => {
                let old = std::mem::replace(&mut entry.stamp, stamp);
                let data = Arc::clone(&entry.data);
                shard.lru.remove(&old);
                shard.lru.insert(stamp, *key);
                drop(shard);
                self.counters.hit();
                Some(data)
            }
            None => {
                drop(shard);
                self.counters.miss();
                None
            }
        }
    }

    /// Inserts (or refreshes) a tile, evicting least-recently-used
    /// entries from its shard until the shard fits its capacity slice.
    /// Returns `false` when the payload alone exceeds a whole shard's
    /// capacity — such a tile is served but never cached, rather than
    /// flushing everything else to make room for one entry.
    pub fn insert(&self, key: TileKey, data: Arc<Vec<u8>>) -> bool {
        if data.len() > self.shard_capacity {
            return false;
        }
        let mut shard = self.shards[self.shard_index(&key)]
            .lock()
            .expect("cache shard poisoned");
        shard.clock += 1;
        let stamp = shard.clock;
        let added = data.len();
        if let Some(old) = shard.map.insert(key, Entry { data, stamp }) {
            shard.bytes -= old.data.len();
            shard.lru.remove(&old.stamp);
        }
        shard.lru.insert(stamp, key);
        shard.bytes += added;
        // The new entry holds the newest stamp and fits a shard alone,
        // so it is never its own victim.
        let mut evicted = Vec::new();
        while shard.bytes > self.shard_capacity {
            let (_, victim) = shard
                .lru
                .pop_first()
                .expect("shard over capacity implies an evictable entry");
            let entry = shard.map.remove(&victim).expect("indexed key is mapped");
            shard.bytes -= entry.data.len();
            evicted.push(entry.data.len() as u64);
        }
        drop(shard);
        self.counters.insert();
        for bytes in evicted {
            self.counters.evict(bytes);
        }
        true
    }

    /// Removes one entry if present, returning whether it was there.
    /// Used by a renderer cancelling its own just-inserted tile after
    /// detecting that a concurrent write invalidated the region
    /// between its freshness check and the insert.
    pub fn remove(&self, key: &TileKey) -> bool {
        let mut shard = self.shards[self.shard_index(key)]
            .lock()
            .expect("cache shard poisoned");
        match shard.map.remove(key) {
            Some(entry) => {
                shard.bytes -= entry.data.len();
                shard.lru.remove(&entry.stamp);
                true
            }
            None => false,
        }
    }

    /// Removes every entry whose key satisfies `pred`, returning how
    /// many were dropped. This is the ingest path's correctness hook:
    /// a cached tile whose pixels a new point could have changed must
    /// not outlive the write, so the server invalidates by
    /// MBR-intersection after each acked batch. Shards are swept one
    /// at a time — readers of other shards never block — and the
    /// predicate runs under the shard lock, so it must be cheap (a
    /// rectangle test, not a render).
    pub fn invalidate_where(&self, pred: impl Fn(&TileKey) -> bool) -> u64 {
        let mut removed = 0u64;
        for s in &self.shards {
            let mut shard = s.lock().expect("cache shard poisoned");
            let victims: Vec<TileKey> = shard.map.keys().filter(|k| pred(k)).copied().collect();
            for k in victims {
                let entry = shard.map.remove(&k).expect("victim exists");
                shard.bytes -= entry.data.len();
                shard.lru.remove(&entry.stamp);
                removed += 1;
            }
        }
        removed
    }

    /// Total payload bytes currently held, across shards.
    pub fn bytes_used(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").bytes)
            .sum()
    }

    /// Number of cached tiles, across shards.
    pub fn entries(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").map.len())
            .sum()
    }

    /// One reading of the monotone hit/miss/eviction counters.
    pub fn snapshot(&self) -> CacheSnapshot {
        self.counters.snapshot()
    }

    /// Recomputes every shard's byte occupancy from its entries and
    /// asserts it matches the running total and fits the capacity, and
    /// that the LRU index holds exactly the mapped keys by their stamps.
    /// Cheap enough to call from tests after concurrent hammering.
    pub fn assert_consistent(&self) {
        for (i, s) in self.shards.iter().enumerate() {
            let shard = s.lock().expect("cache shard poisoned");
            let actual: usize = shard.map.values().map(|e| e.data.len()).sum();
            assert_eq!(shard.bytes, actual, "shard {i} byte accounting drifted");
            assert_eq!(
                shard.lru.len(),
                shard.map.len(),
                "shard {i} LRU index drifted"
            );
            for (k, e) in &shard.map {
                assert_eq!(
                    shard.lru.get(&e.stamp),
                    Some(k),
                    "shard {i} stamp unindexed"
                );
            }
            assert!(
                shard.bytes <= self.shard_capacity,
                "shard {i} over capacity: {} > {}",
                shard.bytes,
                self.shard_capacity
            );
        }
    }
}

kdv_telemetry::metric_table! {
    /// The `cache` block's occupancy gauges, written after the counters
    /// of [`kdv_telemetry::CACHE`].
    pub static OCCUPANCY: TileCache = "cache" {
        "bytes_used": Family::gauge("kdv_cache_bytes_used",
            "Payload bytes resident in the tile cache.").unit(Unit::Bytes)
            => |c| Reading::U(c.bytes_used() as u64),
        "entries": Family::gauge("kdv_cache_entries", "Tiles resident in the cache.")
            => |c| Reading::U(c.entries() as u64),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tile::TileKind;

    fn key(z: u8, x: u32, y: u32) -> TileKey {
        TileKey {
            dataset: 0,
            addr: TileAddr {
                kind: TileKind::Eps,
                z,
                x,
                y,
            },
            param_bits: 0.05f64.to_bits(),
            gamma_bits: 1.5f64.to_bits(),
            level: 0xFF,
        }
    }

    fn payload(n: usize, fill: u8) -> Arc<Vec<u8>> {
        Arc::new(vec![fill; n])
    }

    #[test]
    fn hits_after_insert_and_misses_before() {
        let cache = TileCache::new(1 << 20, 4);
        assert!(cache.get(&key(0, 0, 0)).is_none());
        assert!(cache.insert(key(0, 0, 0), payload(100, 1)));
        assert_eq!(cache.get(&key(0, 0, 0)).expect("hit").len(), 100);
        // Same address, different ε: a different tile.
        let mut other = key(0, 0, 0);
        other.param_bits = 0.01f64.to_bits();
        assert!(cache.get(&other).is_none());
        // Same address, different dataset: also a different tile.
        let mut other_ds = key(0, 0, 0);
        other_ds.dataset = 1;
        assert!(cache.get(&other_ds).is_none());
        // Same address, different pyramid level: also a different tile.
        let mut other_lv = key(0, 0, 0);
        other_lv.level = 1;
        assert!(cache.get(&other_lv).is_none());
        let s = cache.snapshot();
        assert_eq!((s.hits, s.misses, s.insertions), (1, 4, 1));
    }

    #[test]
    fn evicts_least_recently_used_first() {
        // One shard, room for exactly two 100-byte tiles.
        let cache = TileCache::new(200, 1);
        cache.insert(key(1, 0, 0), payload(100, 1));
        cache.insert(key(1, 0, 1), payload(100, 2));
        // Touch the older entry so the *other* one becomes LRU.
        assert!(cache.get(&key(1, 0, 0)).is_some());
        cache.insert(key(1, 1, 0), payload(100, 3));
        assert!(cache.get(&key(1, 0, 0)).is_some(), "recently used survives");
        assert!(cache.get(&key(1, 0, 1)).is_none(), "LRU entry evicted");
        assert!(cache.get(&key(1, 1, 0)).is_some());
        let s = cache.snapshot();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.evicted_bytes, 100);
        cache.assert_consistent();
    }

    #[test]
    fn thousands_of_tiny_tiles_evict_in_exact_lru_order() {
        // One shard of 20 kB under a seeded mix of lookups and inserts
        // over 5000 keys of 1–64 bytes (~600 resident), checked step by
        // step against a reference LRU kept as a recency-ordered list.
        let cache = TileCache::new(20_000, 1);
        let mut model: Vec<(TileKey, usize)> = Vec::new();
        let (mut model_bytes, mut evictions, mut evicted_bytes) = (0usize, 0u64, 0u64);
        let mut s = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |m: u64| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s % m
        };
        for _ in 0..20_000 {
            let n = next(5000) as u32;
            let k = key(9, n % 100, n / 100);
            let at = model.iter().position(|(mk, _)| *mk == k);
            if next(3) == 0 {
                assert_eq!(cache.get(&k).is_some(), at.is_some(), "lookup of {n}");
                if let Some(at) = at {
                    let entry = model.remove(at);
                    model.push(entry);
                }
            } else {
                let len = 1 + next(64) as usize;
                assert!(cache.insert(k, payload(len, n as u8)));
                if let Some(at) = at {
                    model_bytes -= model.remove(at).1;
                }
                model.push((k, len));
                model_bytes += len;
                while model_bytes > 20_000 {
                    let (_, victim) = model.remove(0);
                    model_bytes -= victim;
                    evictions += 1;
                    evicted_bytes += victim as u64;
                }
            }
        }
        assert!(evictions > 1000, "the run must evict heavily: {evictions}");
        let snap = cache.snapshot();
        assert_eq!(
            (snap.evictions, snap.evicted_bytes),
            (evictions, evicted_bytes)
        );
        assert_eq!(
            (cache.entries(), cache.bytes_used()),
            (model.len(), model_bytes)
        );
        cache.assert_consistent();
        for (k, len) in &model {
            assert_eq!(
                cache.get(k).map(|d| d.len()),
                Some(*len),
                "resident set differs"
            );
        }
    }

    #[test]
    fn byte_accounting_tracks_inserts_replacements_and_evictions() {
        let cache = TileCache::new(1000, 1);
        cache.insert(key(2, 0, 0), payload(300, 1));
        cache.insert(key(2, 1, 0), payload(300, 2));
        assert_eq!(cache.bytes_used(), 600);
        // Replacing a key swaps its bytes, not adds them.
        cache.insert(key(2, 0, 0), payload(500, 3));
        assert_eq!(cache.bytes_used(), 800);
        assert_eq!(cache.entries(), 2);
        // Overflow evicts until it fits again.
        cache.insert(key(2, 0, 1), payload(400, 4));
        assert!(cache.bytes_used() <= 1000);
        cache.assert_consistent();
        // A payload larger than a whole shard is refused, not churned.
        assert!(!cache.insert(key(2, 1, 1), payload(2000, 5)));
        assert!(cache.get(&key(2, 1, 1)).is_none());
        cache.assert_consistent();
    }

    #[test]
    fn invalidate_where_removes_matches_and_keeps_accounting() {
        let cache = TileCache::new(1 << 20, 4);
        for z in 0..3u8 {
            for x in 0..4u32 {
                assert!(cache.insert(key(z, x, 0), payload(50, z)));
            }
        }
        assert_eq!(cache.entries(), 12);
        let removed = cache.invalidate_where(|k| k.addr.z == 1);
        assert_eq!(removed, 4);
        assert_eq!(cache.entries(), 8);
        assert_eq!(cache.bytes_used(), 8 * 50);
        assert!(cache.get(&key(1, 0, 0)).is_none());
        assert!(cache.get(&key(0, 0, 0)).is_some());
        assert_eq!(cache.invalidate_where(|_| false), 0);
        cache.assert_consistent();
    }

    #[test]
    fn remove_drops_one_entry_and_keeps_accounting() {
        let cache = TileCache::new(1 << 20, 4);
        assert!(!cache.remove(&key(0, 0, 0)), "removing a miss is a no-op");
        cache.insert(key(0, 0, 0), payload(100, 1));
        cache.insert(key(0, 1, 0), payload(100, 2));
        assert!(cache.remove(&key(0, 0, 0)));
        assert!(cache.get(&key(0, 0, 0)).is_none());
        assert!(cache.get(&key(0, 1, 0)).is_some());
        assert_eq!(cache.bytes_used(), 100);
        cache.assert_consistent();
    }

    #[test]
    fn shard_placement_is_deterministic() {
        let a = TileCache::new(1 << 20, 8);
        let b = TileCache::new(1 << 30, 8);
        let mut seen = std::collections::HashSet::new();
        for z in 0..4u8 {
            for x in 0..8u32 {
                for y in 0..8u32 {
                    let k = key(z, x, y);
                    let idx = a.shard_index(&k);
                    assert_eq!(
                        idx,
                        b.shard_index(&k),
                        "placement differs between instances"
                    );
                    assert!(idx < 8);
                    seen.insert(idx);
                }
            }
        }
        assert!(seen.len() > 4, "FNV should spread tiles across shards");
    }

    #[test]
    fn concurrent_hammering_loses_no_updates() {
        let cache = Arc::new(TileCache::new(64 * 100, 4));
        let threads = 8;
        let per_thread = 2000u32;
        let mut handles = Vec::new();
        for t in 0..threads {
            let cache = Arc::clone(&cache);
            handles.push(std::thread::spawn(move || {
                for i in 0..per_thread {
                    // 32 distinct keys, far more traffic than capacity:
                    // constant eviction pressure plus real hits.
                    let k = key(5, (i + t) % 8, i % 4);
                    if cache.get(&k).is_none() {
                        cache.insert(k, payload(100, t as u8));
                    }
                }
            }));
        }
        for h in handles {
            h.join().expect("hammer thread panicked");
        }
        cache.assert_consistent();
        let s = cache.snapshot();
        assert_eq!(
            s.hits + s.misses,
            (threads as u64) * (per_thread as u64),
            "every lookup is counted exactly once"
        );
        assert_eq!(
            s.misses, s.insertions,
            "each miss triggered exactly one insert (all payloads fit)"
        );
        assert!(s.hits > 0, "the keyspace is small enough to produce hits");
    }
}
