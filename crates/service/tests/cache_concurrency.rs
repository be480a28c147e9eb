//! Hammers the [`CompileCache`] from many threads — the exact access
//! pattern of `sna serve --listen` (one thread per connection) and the
//! batch worker pool. Entries must be shared (`Arc::ptr_eq`), counters
//! must balance, and the lazily built NA model must come out identical
//! from every thread.

use std::collections::HashMap;
use std::sync::Arc;

use sna_service::{CacheLimits, CompileCache, CompiledEntry, Lookup};

/// A family of *structurally* distinct one-pole filters (`k` extra
/// feed-forward taps) — none of them can shape-alias another, so every
/// first compile is a deterministic miss. Coefficient-only families go
/// through the shape tier instead (tested separately below).
fn source(k: usize) -> String {
    format!(
        "input x in [-1, 1];\nt = delay y;\ny = 0.3*x + 0.5*t{};\noutput y;\n",
        " + x".repeat(k)
    )
}

#[test]
fn n_threads_on_same_and_distinct_sources_share_entries_and_balance_counters() {
    const THREADS: usize = 8;
    const ITERS: usize = 50;
    const DISTINCT: usize = 4;

    let cache = CompileCache::new();
    let sources: Vec<String> = (0..DISTINCT).map(source).collect();

    let entries: Vec<Vec<(usize, Arc<CompiledEntry>)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let cache = &cache;
                let sources = &sources;
                scope.spawn(move || {
                    let mut seen = Vec::new();
                    for i in 0..ITERS {
                        // Interleave one shared source with the distinct
                        // ones so both contention patterns occur.
                        let k = (t + i) % DISTINCT;
                        let (entry, _) = cache.get_or_compile(&sources[k]).unwrap();
                        seen.push((k, entry));
                    }
                    seen
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Every thread got the *same* Arc for the same source.
    let mut canonical: HashMap<usize, Arc<CompiledEntry>> = HashMap::new();
    for (k, entry) in entries.iter().flatten() {
        let slot = canonical.entry(*k).or_insert_with(|| entry.clone());
        assert!(
            Arc::ptr_eq(slot, entry),
            "source {k} produced two distinct cache entries"
        );
    }
    assert_eq!(canonical.len(), DISTINCT);

    // Counters balance: every lookup was a hit or a miss, the entry
    // count is the number of distinct programs, and exactly one miss is
    // charged per program — racing first-compiles may duplicate the
    // *work*, but only the winning insert counts as a miss, so the
    // numbers are deterministic however the threads interleave.
    let stats = cache.stats();
    assert_eq!(stats.entries, DISTINCT);
    assert_eq!(stats.hits + stats.misses, (THREADS * ITERS) as u64);
    assert_eq!(stats.misses, DISTINCT as u64);
}

#[test]
fn concurrent_coefficient_swaps_ride_the_shape_tier() {
    // One warm skeleton, then many threads requesting coefficient-only
    // variants: every variant must come back consistent, and none may
    // charge a full-compile miss (the donor absorbs them all).
    let cache = CompileCache::new();
    let base = "input x in [-1, 1];\nlet k = 0.5;\noutput y = k*x;\n";
    let (donor, _) = cache.get_or_compile(base).unwrap();
    donor.session.na_model().unwrap();

    let variant = |k: usize| format!("input x in [-1, 1];\nlet k = 0.5{k};\noutput y = k*x;\n");
    let donor_shape = donor.shape_fingerprint;
    std::thread::scope(|scope| {
        for t in 0..8 {
            let cache = &cache;
            let variant = &variant;
            scope.spawn(move || {
                for i in 0..20 {
                    let (entry, lookup) = cache.get_or_compile(&variant((t + i) % 4 + 1)).unwrap();
                    assert!(lookup.is_hit(), "coefficient variants never fully compile");
                    assert_eq!(entry.shape_fingerprint, donor_shape);
                    assert!(entry.session.na_model_built() || entry.session.na_model().is_ok());
                }
            });
        }
    });
    let stats = cache.stats();
    assert_eq!(stats.misses, 1, "{stats:?}");
    assert!(stats.shape_hits >= 4, "{stats:?}");
    assert_eq!(stats.entries, 5, "{stats:?}");
}

#[test]
fn hot_shape_tier_entries_survive_concurrent_eviction_pressure() {
    // LRU hammer: a bounded cache under concurrent streams of one-off
    // programs (pure eviction pressure), while the main thread keeps one
    // shape-tier skeleton hot through coefficient respins. After every
    // round the donor must still be resident: each swap refreshes its
    // recency, and at most 64 distinct programs land between touches —
    // under the 128-entry cap, so a true LRU can never pick the donor.
    const ROUNDS: usize = 8;
    const THREADS: usize = 4;
    const PER_THREAD: usize = 16;

    let cache = CompileCache::with_limits(CacheLimits {
        max_entries: 128,
        ..CacheLimits::default()
    });
    let base = "input x in [-1, 1];\nlet k = 0.5;\noutput y = k*x;\n";
    let (donor, _) = cache.get_or_compile(base).unwrap();
    donor.session.na_model().unwrap();
    let donor_shape = donor.shape_fingerprint;

    for round in 0..ROUNDS {
        // Pressure: THREADS × PER_THREAD distinct programs, all misses.
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let cache = &cache;
                scope.spawn(move || {
                    for i in 0..PER_THREAD {
                        let k = 1 + round * THREADS * PER_THREAD + t * PER_THREAD + i;
                        cache.get_or_compile(&source(k)).unwrap();
                    }
                });
            }
            // The hot path, concurrent with the pressure: coefficient
            // respins of the donor's shape.
            for i in 0..PER_THREAD {
                let swapped = format!(
                    "input x in [-1, 1];\nlet k = 0.5{}{i};\noutput y = k*x;\n",
                    round + 1
                );
                let (entry, lookup) = cache.get_or_compile(&swapped).unwrap();
                assert!(lookup.is_hit(), "round {round}: swap was {lookup:?}");
                assert_eq!(entry.shape_fingerprint, donor_shape);
            }
        });
        // The donor survived the round's churn.
        let (entry, lookup) = cache.get_or_compile(base).unwrap();
        assert!(
            lookup.is_hit(),
            "round {round}: the hot shape donor was evicted ({lookup:?})"
        );
        assert!(
            Arc::ptr_eq(&entry, &donor),
            "round {round}: the donor was recompiled, not retained"
        );
    }

    let stats = cache.stats();
    assert!(stats.entries <= 128, "{stats:?}");
    assert!(
        stats.evictions > 0,
        "the pressure must actually overflow the cap: {stats:?}"
    );
    assert!(stats.shape_hits >= ROUNDS as u64, "{stats:?}");
}

#[test]
fn concurrent_na_model_builds_converge_to_one_shared_model() {
    let cache = CompileCache::new();
    let src = source(0);
    let (entry, _) = cache.get_or_compile(&src).unwrap();

    let models: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let entry = entry.clone();
                scope.spawn(move || entry.session.na_model().unwrap())
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for model in &models[1..] {
        assert!(Arc::ptr_eq(&models[0], model));
    }
}

#[test]
fn mixed_spellings_of_one_program_converge_on_one_entry() {
    let cache = CompileCache::new();
    let spellings = [
        "input x;\noutput y = 0.5*x;\n".to_string(),
        "# comment\ninput x;\noutput y = 0.5 * x;\n".to_string(),
        "input   x;\n\noutput y = 0.5*x;".to_string(),
    ];
    let entries: Vec<Arc<CompiledEntry>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..6)
            .map(|t| {
                let cache = &cache;
                let spellings = &spellings;
                scope.spawn(move || {
                    let (entry, _) = cache.get_or_compile(&spellings[t % 3]).unwrap();
                    entry
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for entry in &entries[1..] {
        assert!(Arc::ptr_eq(&entries[0], entry));
    }
    assert_eq!(cache.stats().entries, 1);
    // A final lookup of each spelling is now a pure source-hash hit.
    for s in &spellings {
        let (_, lookup) = cache.get_or_compile(s).unwrap();
        assert_eq!(lookup, Lookup::SourceHit);
    }
}
