//! Model-based properties of [`BoundedCache`] (the SIEVE-bounded map
//! behind the plan cache and the per-session concrete caches).
//!
//! A bounded cache is allowed to *forget*, never to *lie*: against an
//! unbounded `HashMap` model driven by the same operations, every hit
//! must return exactly the value the model holds for that key (evictions
//! only ever manifest as misses), the counters must account for every
//! entry (`inserted - evicted = len`), and the byte budget must
//! hold whenever more than one entry is resident.

use std::collections::HashMap;

use bep_core::BoundedCache;
use proptest::prelude::*;

/// One generated cache operation. Keys are drawn from a small range so
/// workloads revisit them (hits and updates both actually fire).
#[derive(Debug, Clone)]
enum Op {
    /// `insert(key, value, bytes)`
    Insert(u8, u32, usize),
    /// `get(&key)` — marks visited on a hit.
    Get(u8),
}

fn op() -> impl Strategy<Value = Op> {
    // Inserts and gets repeated to bias the mix toward them (the stub's
    // `prop_oneof!` draws arms uniformly).
    prop_oneof![
        (0u8..24, any::<u32>(), 1usize..512).prop_map(|(k, v, b)| Op::Insert(k, v, b)),
        (0u8..24, any::<u32>(), 1usize..512).prop_map(|(k, v, b)| Op::Insert(k, v, b)),
        (0u8..24, any::<u32>(), 1usize..512).prop_map(|(k, v, b)| Op::Insert(k, v, b)),
        (0u8..24).prop_map(Op::Get),
        (0u8..24).prop_map(Op::Get),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn bounded_cache_is_a_forgetful_map_with_exact_accounting(
        ops in proptest::collection::vec(op(), 1..120),
        max_entries in prop_oneof![Just(0usize), 1usize..12],
        budget in prop_oneof![Just(0usize), 64usize..2048],
    ) {
        let mut cache: BoundedCache<u8, u32> = BoundedCache::new(max_entries, budget);
        let mut model: HashMap<u8, u32> = HashMap::new();
        let mut evicted: HashMap<u8, ()> = HashMap::new();

        for op in &ops {
            match *op {
                Op::Insert(k, v, b) => {
                    let out = cache.insert(k, v, b);
                    model.insert(k, v);
                    // Evicted pairs must carry the value the model knew —
                    // eviction hands back truth, it doesn't corrupt it.
                    for (ek, ev) in out {
                        prop_assert_eq!(model.get(&ek), Some(&ev),
                            "evicted pair ({}, {}) disagrees with the model", ek, ev);
                        evicted.insert(ek, ());
                    }
                }
                Op::Get(k) => {
                    match cache.get(&k) {
                        // The cardinal property: a hit returns exactly
                        // what was inserted, no matter what was evicted
                        // around it.
                        Some(v) => prop_assert_eq!(Some(v), model.get(&k),
                            "hit on {} returned a value the model never held", k),
                        // A miss is only legal if the key was never
                        // inserted, or left via eviction.
                        None => prop_assert!(
                            !model.contains_key(&k) || evicted.contains_key(&k),
                            "key {} vanished without an eviction", k
                        ),
                    }
                }
            }

            // Counters account for every entry at every step: what came
            // in minus what provably left is what is resident.
            prop_assert_eq!(
                cache.inserted_total() - cache.evicted_total(),
                cache.len() as u64,
                "inserted {} - evicted {} != len {}",
                cache.inserted_total(), cache.evicted_total(), cache.len()
            );
            // Bounds hold whenever they can: a single oversized entry is
            // deliberately retained (a cache that can hold nothing would
            // thrash), so the budget claim applies from two entries up.
            if max_entries > 0 {
                prop_assert!(cache.len() <= max_entries.max(1));
            }
            if budget > 0 && cache.len() > 1 {
                prop_assert!(
                    cache.resident_bytes() <= budget,
                    "{} resident bytes exceed the {} budget with {} entries",
                    cache.resident_bytes(), budget, cache.len()
                );
            }
        }

        // Post-workload: every surviving entry is still exactly the
        // model's value (sweep without marking, via iter).
        for (k, v) in cache.iter() {
            prop_assert_eq!(Some(v), model.get(k));
        }
    }
}
