//! Bounded key→value cache with SIEVE eviction.
//!
//! Every decision-amortizing map in the proxy (template plans, per-session
//! allow/deny caches) used to grow without bound — fatal at the
//! million-user scale ROADMAP item 2 targets. [`BoundedCache`] bounds both
//! the entry count and the resident byte total (callers supply per-entry
//! byte weights from the [`crate::mem::HeapUsage`] substrate) and evicts
//! with SIEVE (Zhang et al., NSDI '24): entries sit in insertion order, a
//! hand sweeps oldest→newest, a hit only sets a per-entry visited bit, and
//! the hand evicts the first unvisited entry it meets (clearing bits as it
//! passes). SIEVE is scan-resistant (a one-pass scan cannot flush the
//! working set: scanned-once entries are never re-visited, so the hand
//! takes them first) and cheap to hit: a hit only sets the entry's bit,
//! through a `Cell`, so a lookup takes `&self` and reorders nothing.
//!
//! Observational contract (property-tested in `tests/bounded_cache.rs`):
//! a hit always returns exactly the value originally inserted — the cache
//! differs from an unbounded map only by *misses*, never by wrong values —
//! and `inserted_total - evicted_total == len()` at all times.
//!
//! An entry's weight is fixed when it is inserted: a value whose footprint
//! changes is re-inserted under its key with its new weight.

use std::cell::Cell;
use std::collections::HashMap;
use std::hash::Hash;
use std::mem::size_of;

/// One resident entry: the value, its byte weight, and the SIEVE
/// visited bit (a `Cell` so hits can set it through a shared reference).
#[derive(Debug, Clone)]
struct Slot<V> {
    value: V,
    bytes: usize,
    visited: Cell<bool>,
}

/// A bounded map with SIEVE eviction. See the module docs for the policy
/// and the observational contract.
#[derive(Debug, Clone)]
pub struct BoundedCache<K, V> {
    map: HashMap<K, Slot<V>>,
    /// Insertion order, oldest first — the SIEVE ring.
    order: Vec<K>,
    /// Next position in `order` the SIEVE hand examines.
    hand: usize,
    /// Maximum resident entries; `0` = unlimited.
    max_entries: usize,
    /// Maximum resident bytes (sum of per-entry weights); `0` = unlimited.
    budget_bytes: usize,
    resident_bytes: usize,
    inserted: u64,
    evicted: u64,
}

impl<K: Eq + Hash + Clone, V> BoundedCache<K, V> {
    /// Creates a cache bounded by `max_entries` entries and `budget_bytes`
    /// resident bytes; either bound may be `0` for "unlimited".
    pub fn new(max_entries: usize, budget_bytes: usize) -> BoundedCache<K, V> {
        BoundedCache {
            map: HashMap::new(),
            order: Vec::new(),
            hand: 0,
            max_entries,
            budget_bytes,
            resident_bytes: 0,
            inserted: 0,
            evicted: 0,
        }
    }

    /// Resident entry count.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` when nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Sum of the byte weights of resident entries.
    pub fn resident_bytes(&self) -> usize {
        self.resident_bytes
    }

    /// The configured byte budget (`0` = unlimited).
    pub fn budget_bytes(&self) -> usize {
        self.budget_bytes
    }

    /// Total inserts of *new* keys over the cache's lifetime.
    pub fn inserted_total(&self) -> u64 {
        self.inserted
    }

    /// Total SIEVE evictions over the cache's lifetime.
    pub fn evicted_total(&self) -> u64 {
        self.evicted
    }

    /// Looks a key up, marking the entry visited (the SIEVE hit path).
    pub fn get(&self, key: &K) -> Option<&V> {
        self.map.get(key).map(|s| {
            s.visited.set(true);
            &s.value
        })
    }

    /// Inserts (or updates) an entry with the given byte weight, then
    /// enforces both bounds. Returns the evicted `(key, value)` pairs
    /// (usually empty — no allocation on the happy path). The key just
    /// inserted is never evicted by its own insertion.
    pub fn insert(&mut self, key: K, value: V, bytes: usize) -> Vec<(K, V)> {
        match self.map.get_mut(&key) {
            Some(slot) => {
                self.resident_bytes = self.resident_bytes - slot.bytes + bytes;
                slot.value = value;
                slot.bytes = bytes;
                slot.visited.set(true);
            }
            None => {
                self.map.insert(
                    key.clone(),
                    Slot {
                        value,
                        bytes,
                        visited: Cell::new(false),
                    },
                );
                self.order.push(key.clone());
                self.resident_bytes += bytes;
                self.inserted += 1;
            }
        }
        self.enforce(&key)
    }

    /// Iterates resident entries in no particular order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.map.iter().map(|(k, s)| (k, &s.value))
    }

    /// Structural heap bytes (ring + table) plus the byte weights the
    /// resident values were inserted with.
    pub fn heap_bytes(&self) -> usize {
        self.resident_bytes
            + self.order.capacity() * size_of::<K>()
            + self.map.capacity() * size_of::<(K, Slot<V>)>()
    }

    fn over_bounds(&self) -> bool {
        (self.max_entries != 0 && self.map.len() > self.max_entries)
            || (self.budget_bytes != 0 && self.resident_bytes > self.budget_bytes)
    }

    /// The SIEVE sweep: clear visited bits as the hand passes, evict the
    /// first unvisited entry, repeat until both bounds hold. `protect` (the
    /// entry that triggered enforcement) is skipped, so a single entry
    /// larger than the whole budget stays resident rather than thrashing.
    fn enforce(&mut self, protect: &K) -> Vec<(K, V)> {
        let mut out = Vec::new();
        while self.over_bounds() && self.map.len() > 1 {
            if self.hand >= self.order.len() {
                self.hand = 0;
            }
            let key = self.order[self.hand].clone();
            if key == *protect {
                self.hand += 1;
                continue;
            }
            let visited = self
                .map
                .get(&key)
                .expect("order and map agree")
                .visited
                .replace(false);
            if visited {
                self.hand += 1;
                continue;
            }
            let slot = self.map.remove(&key).expect("order and map agree");
            self.order.remove(self.hand); // successor shifts into `hand`
            self.resident_bytes -= slot.bytes;
            self.evicted += 1;
            out.push((key, slot.value));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_returns_inserted_value_and_marks_visited() {
        let mut c: BoundedCache<u64, String> = BoundedCache::new(4, 0);
        c.insert(1, "one".into(), 3);
        assert_eq!(c.get(&1).map(String::as_str), Some("one"));
        assert_eq!(c.get(&2), None);
    }

    #[test]
    fn entry_bound_evicts_unvisited_oldest_first() {
        let mut c: BoundedCache<u64, u64> = BoundedCache::new(3, 0);
        let mut evicted = Vec::new();
        for k in 0..5 {
            evicted.extend(c.insert(k, k * 10, 8).into_iter().map(|(k, _)| k));
        }
        assert_eq!(c.len(), 3);
        // Nothing was ever hit, so the hand took the oldest each time.
        assert_eq!(evicted, vec![0, 1]);
        assert!(c.get(&4).is_some(), "newest always survives its insert");
    }

    #[test]
    fn sieve_is_scan_resistant() {
        // A frequently-hit entry survives a scan of one-shot keys that
        // overflows the cache several times over.
        let mut c: BoundedCache<u64, u64> = BoundedCache::new(4, 0);
        c.insert(999, 1, 8);
        for k in 0..16 {
            c.get(&999); // keep the working set hot
            c.insert(k, k, 8);
        }
        assert!(c.get(&999).is_some(), "hot entry must survive the scan");
        assert_eq!(c.len(), 4);
    }

    #[test]
    fn byte_budget_is_enforced() {
        let mut c: BoundedCache<u64, Vec<u8>> = BoundedCache::new(0, 100);
        for k in 0..10 {
            c.insert(k, vec![0u8; 30], 30);
        }
        assert!(c.resident_bytes() <= 100);
        assert!(c.evicted_total() > 0);
    }

    #[test]
    fn oversized_entry_is_protected_not_thrashed() {
        let mut c: BoundedCache<u64, u64> = BoundedCache::new(0, 10);
        c.insert(1, 1, 50); // alone over budget: stays
        assert_eq!(c.len(), 1);
        c.insert(2, 2, 4); // newcomer protected; 1 is evictable now
        assert!(c.get(&2).is_some());
    }

    #[test]
    fn counters_account_exactly() {
        let mut c: BoundedCache<u64, u64> = BoundedCache::new(3, 0);
        for k in 0..10 {
            c.insert(k, k, 8);
        }
        c.insert(5, 50, 8); // update, not an insert
        assert_eq!(c.inserted_total() - c.evicted_total(), c.len() as u64);
    }

    #[test]
    fn update_replaces_value_and_bytes() {
        let mut c: BoundedCache<u64, String> = BoundedCache::new(0, 0);
        c.insert(1, "a".into(), 10);
        c.insert(1, "b".into(), 25);
        assert_eq!(c.get(&1).map(String::as_str), Some("b"));
        assert_eq!(c.resident_bytes(), 25);
        assert_eq!(c.inserted_total(), 1);
    }
}
