//! Sharded, content-addressed result cache for the compile service.
//!
//! Keyed by an FNV-1a hash of the *full request content* — source text
//! plus every compile-relevant option (config preset, pipeline flag, emit
//! mode, guard override, effective time budget) — so two requests share an
//! entry exactly when the service would produce byte-identical output for
//! both. The key material itself is stored alongside each entry and
//! compared on lookup, so a 64-bit hash collision degrades to a miss, never
//! to serving the wrong artifact.
//!
//! Shards are independent `Mutex`-protected maps selected by the key's top
//! bits; workers contend only within a shard. Eviction is LRU-ish: every
//! entry carries a last-access stamp from a global monotonic counter, and
//! an insert into a full shard evicts that shard's least-recently-stamped
//! entry (a linear scan — shards are small by construction).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Cache occupancy gauges for the `STATS` `cache:` line. Hits and misses
/// are request outcomes, so the service counts them in its
/// [`lslp::Statistics`] registry, once per request.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Entries dropped to make room.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: u64,
}

/// The cached artifact for one `(source, options)` content key.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CachedResult {
    /// The response payload (IR text or report).
    pub output: String,
    /// Vectorized tree count summed over the module's functions.
    pub trees: usize,
    /// Applied vectorization cost summed over the module's functions.
    pub cost: i64,
    /// Guard incidents observed while compiling (kept so a cache hit
    /// reports the same diagnostics as the original compile).
    pub incidents: usize,
}

/// Does `material` equal `parts.join("\0")`, compared without building
/// the joined string?
fn material_matches(material: &str, parts: &[&str]) -> bool {
    let m = material.as_bytes();
    let mut off = 0usize;
    for (i, p) in parts.iter().enumerate() {
        if i > 0 {
            if m.get(off) != Some(&0) {
                return false;
            }
            off += 1;
        }
        let end = off + p.len();
        if m.len() < end || &m[off..end] != p.as_bytes() {
            return false;
        }
        off = end;
    }
    off == m.len()
}

/// FNV-1a over the request's content fields, with `\0` separators so field
/// boundaries cannot alias (`("ab","c")` vs `("a","bc")`).
pub fn content_key(parts: &[&str]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for part in parts {
        for &b in part.as_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        h ^= 0;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// The same FNV-1a construction over raw byte slices — used by the disk
/// tier ([`crate::persist`]) to checksum entry files (header + payload).
pub fn content_key_bytes(parts: &[&[u8]]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for part in parts {
        for &b in *part {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        h ^= 0;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

struct Entry {
    /// Full key material, compared on lookup to rule out hash collisions.
    material: String,
    result: CachedResult,
    stamp: u64,
}

#[derive(Default)]
struct Shard {
    map: HashMap<u64, Entry>,
}

/// The sharded cache proper.
pub struct ResultCache {
    shards: Vec<Mutex<Shard>>,
    /// Capacity per shard (total capacity / shard count, at least 1).
    shard_capacity: usize,
    clock: AtomicU64,
    evictions: AtomicU64,
}

impl ResultCache {
    /// A cache holding at most `capacity` entries across `shards` shards.
    pub fn new(capacity: usize, shards: usize) -> ResultCache {
        let shards = shards.max(1);
        ResultCache {
            shard_capacity: (capacity.max(1)).div_ceil(shards),
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            clock: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: u64) -> &Mutex<Shard> {
        // Top bits: FNV mixes low bits heavily, top bits are fine too and
        // keep shard choice independent of map bucketing.
        let idx = (key >> 56) as usize % self.shards.len();
        &self.shards[idx]
    }

    /// Look up `key` (with its full `material` for collision rejection).
    pub fn get(&self, key: u64, material: &str) -> Option<CachedResult> {
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed);
        let mut shard = self.shard(key).lock().expect("cache shard lock");
        match shard.map.get_mut(&key) {
            Some(entry) if entry.material == material => {
                entry.stamp = stamp;
                Some(entry.result.clone())
            }
            _ => None,
        }
    }

    /// [`ResultCache::get`] for a caller holding the key material as
    /// parts (the serve fast path): the collision check compares the
    /// stored joined material piecewise, so no joined string is
    /// allocated per probe.
    pub fn get_parts(&self, key: u64, parts: &[&str]) -> Option<CachedResult> {
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed);
        let mut shard = self.shard(key).lock().expect("cache shard lock");
        match shard.map.get_mut(&key) {
            Some(entry) if material_matches(&entry.material, parts) => {
                entry.stamp = stamp;
                Some(entry.result.clone())
            }
            _ => None,
        }
    }

    /// Insert a result, evicting the shard's least-recently-used entry when
    /// the shard is at capacity. Returns the evicted key (if any) so a
    /// tiered caller can tombstone the disk copy.
    pub fn insert(&self, key: u64, material: &str, result: CachedResult) -> Option<u64> {
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed);
        let mut shard = self.shard(key).lock().expect("cache shard lock");
        let mut evicted = None;
        if !shard.map.contains_key(&key) && shard.map.len() >= self.shard_capacity {
            let victim = shard.map.iter().min_by_key(|(_, entry)| entry.stamp).map(|(&k, _)| k);
            if let Some(victim) = victim {
                shard.map.remove(&victim);
                self.evictions.fetch_add(1, Ordering::Relaxed);
                evicted = Some(victim);
            }
        }
        shard.map.insert(key, Entry { material: material.to_string(), result, stamp });
        evicted
    }

    /// Every resident entry's last-access stamp, plus the clock's current
    /// value. Test/diagnostic aid: stamps must all be strictly below the
    /// clock, and distinct per assignment (the clock only moves forward).
    #[doc(hidden)]
    pub fn debug_stamps(&self) -> (Vec<u64>, u64) {
        let stamps = self
            .shards
            .iter()
            .flat_map(|s| {
                s.lock()
                    .expect("cache shard lock")
                    .map
                    .values()
                    .map(|e| e.stamp)
                    .collect::<Vec<_>>()
            })
            .collect();
        (stamps, self.clock.load(Ordering::Relaxed))
    }

    /// Point-in-time counters.
    pub fn counters(&self) -> CacheCounters {
        let entries =
            self.shards.iter().map(|s| s.lock().expect("cache shard lock").map.len() as u64).sum();
        CacheCounters { evictions: self.evictions.load(Ordering::Relaxed), entries }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(tag: &str) -> CachedResult {
        CachedResult { output: tag.to_string(), trees: 1, cost: -4, incidents: 0 }
    }

    #[test]
    fn key_separators_prevent_aliasing() {
        assert_ne!(content_key(&["ab", "c"]), content_key(&["a", "bc"]));
        assert_ne!(content_key(&["x"]), content_key(&["x", ""]));
        assert_eq!(content_key(&["src", "LSLP"]), content_key(&["src", "LSLP"]));
    }

    #[test]
    fn miss_then_hit() {
        let cache = ResultCache::new(8, 2);
        let key = content_key(&["src", "LSLP"]);
        assert_eq!(cache.get(key, "src\0LSLP"), None);
        cache.insert(key, "src\0LSLP", result("out"));
        assert_eq!(cache.get(key, "src\0LSLP").unwrap().output, "out");
        assert_eq!(cache.counters().entries, 1);
    }

    #[test]
    fn colliding_key_with_different_material_is_a_miss() {
        let cache = ResultCache::new(8, 1);
        cache.insert(42, "materialA", result("A"));
        assert_eq!(cache.get(42, "materialB"), None, "same hash, different content");
        assert_eq!(cache.get(42, "materialA").unwrap().output, "A");
    }

    #[test]
    fn lru_eviction_keeps_recently_used() {
        let cache = ResultCache::new(2, 1);
        cache.insert(1, "k1", result("1"));
        cache.insert(2, "k2", result("2"));
        // Touch 1 so 2 becomes the LRU victim.
        assert!(cache.get(1, "k1").is_some());
        cache.insert(3, "k3", result("3"));
        assert_eq!(cache.counters().evictions, 1);
        assert!(cache.get(1, "k1").is_some(), "recently used survives");
        assert!(cache.get(2, "k2").is_none(), "LRU entry evicted");
        assert!(cache.get(3, "k3").is_some());
    }

    #[test]
    fn reinserting_an_existing_key_does_not_evict() {
        let cache = ResultCache::new(2, 1);
        cache.insert(1, "k1", result("1"));
        cache.insert(2, "k2", result("2"));
        cache.insert(1, "k1", result("1b"));
        assert_eq!(cache.counters().evictions, 0);
        assert_eq!(cache.get(1, "k1").unwrap().output, "1b");
        assert!(cache.get(2, "k2").is_some());
    }

    #[test]
    fn eviction_storm_keeps_stamps_monotone_and_reports_victims() {
        // Tiny capacity + concurrent hit/miss/evict churn: every eviction
        // must be reported exactly once (the tier-2 tombstone contract),
        // and LRU stamps must stay monotone — strictly below the clock and
        // unique among residents (each assignment gets a fresh tick).
        let cache = ResultCache::new(4, 1);
        let evicted = Mutex::new(Vec::new());
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let (cache, evicted) = (&cache, &evicted);
                s.spawn(move || {
                    for i in 0..200u64 {
                        let material = format!("m{}", (t * 31 + i) % 16);
                        let key = content_key(&[&material]);
                        if cache.get(key, &material).is_none() {
                            if let Some(v) = cache.insert(key, &material, result(&material)) {
                                evicted.lock().unwrap().push(v);
                            }
                        }
                    }
                });
            }
        });
        let c = cache.counters();
        assert!(c.entries <= 4, "capacity respected: {}", c.entries);
        assert_eq!(
            evicted.lock().unwrap().len() as u64,
            c.evictions,
            "every eviction reported exactly once"
        );
        assert!(c.evictions > 0, "a 16-key storm over 4 slots must evict");
        let (stamps, clock) = cache.debug_stamps();
        assert!(stamps.iter().all(|&s| s < clock), "stamps below clock: {stamps:?} vs {clock}");
        let mut sorted = stamps.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), stamps.len(), "stamps unique per assignment: {stamps:?}");
    }

    #[test]
    fn concurrent_access_is_consistent() {
        let cache = ResultCache::new(64, 8);
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let cache = &cache;
                s.spawn(move || {
                    for i in 0..100u64 {
                        let material = format!("m{}", (t * 100 + i) % 32);
                        let key = content_key(&[&material]);
                        if cache.get(key, &material).is_none() {
                            cache.insert(key, &material, result(&material));
                        }
                    }
                });
            }
        });
        assert!(cache.counters().entries <= 64);
        // Every resident entry serves its own content back.
        for m in 0..32u64 {
            let material = format!("m{m}");
            if let Some(r) = cache.get(content_key(&[&material]), &material) {
                assert_eq!(r.output, material);
            }
        }
    }
}
