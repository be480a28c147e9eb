//! The hash-keyed compile cache: the piece that turns "every invocation
//! re-lexes, re-lowers, and rebuilds the model" into "the first request
//! pays, every repeat goes straight to evaluation".
//!
//! Two key levels:
//!
//! * **source text** — the raw bytes, hashed by the map. The fast path: a
//!   repeat of the identical text hits without parsing anything.
//! * **canonical form** — the parsed program's canonical rendering (whose
//!   FNV-1a hash is the entry's reported fingerprint). Sources that
//!   differ only in whitespace or comments share one entry; the second
//!   spelling pays one parse, then aliases the existing compiled model.
//!
//! Anything else is a miss. A program that differs from a cached one only
//! in coefficient values — the inner loop of design-space exploration —
//! compiles cold: with ranges and gains built cold anyway, sharing the
//! cached design's stages would save only its VM compile.
//!
//! Both levels compare the full key text on lookup, so a hash collision
//! can never hand one program another program's model.
//!
//! Entries hold a [`Session`] — graph, ranges, gain model, histogram
//! memo — behind an `Arc`; every stage is `Send + Sync`, so a worker
//! pool or one thread per connection can share them freely.
//!
//! The cache lives in memory only. A restarted process compiles each
//! program again on its first request, which costs less than a
//! millisecond on every shipped example (range analysis included), so
//! there is no disk tier to warm it from.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};

use sna_core::Session;
use sna_lang::{fnv1a_64, Diagnostic, Lowered};

/// One compiled program: the shared [`Session`] holding its artifact
/// chain, plus the cache's identifying fingerprints.
#[derive(Debug)]
pub struct CompiledEntry {
    /// The compiled session (graph, ranges, models), shared across
    /// threads.
    pub session: Arc<Session>,
    /// Canonical fingerprint of the program this was compiled from.
    pub fingerprint: u64,
    /// Always 0: the cache has no shape tier any more. Kept because the
    /// end-to-end benchmark (`e2e/`) reads it; goes when it next changes.
    pub shape_fingerprint: u64,
}

impl CompiledEntry {
    /// Wraps an already compiled program (used both by the cache and by
    /// uncached single-shot paths that still want lazy artifact sharing).
    #[must_use]
    pub fn new(lowered: Lowered, fingerprint: u64) -> Self {
        let session = Session::new(lowered.dfg, lowered.input_ranges)
            .expect("lowering guarantees input/range consistency");
        CompiledEntry {
            session: Arc::new(session),
            fingerprint,
            shape_fingerprint: 0,
        }
    }
}

/// How a [`CompileCache::get_or_compile`] call was satisfied.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Lookup {
    /// Raw source bytes seen before; nothing was parsed.
    SourceHit,
    /// New spelling of a known program; one parse, no lowering or model
    /// build.
    CanonHit,
    /// Never returned: the cache has no shape tier any more. Kept because
    /// the end-to-end benchmark (`e2e/`) reads it; goes when it next
    /// changes.
    ShapeHit,
    /// Fully compiled on this call.
    Miss,
}

impl Lookup {
    /// `true` for any hit flavour.
    #[must_use]
    pub fn is_hit(self) -> bool {
        !matches!(self, Lookup::Miss)
    }

    /// Protocol wire word: `"hit"` / `"canon-hit"` / `"miss"`.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Lookup::SourceHit => "hit",
            Lookup::CanonHit => "canon-hit",
            Lookup::ShapeHit => "shape-hit",
            Lookup::Miss => "miss",
        }
    }
}

/// Cache counters, as reported in batch summaries and `stats` requests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache (either key level).
    pub hits: u64,
    /// Always 0: the cache has no shape tier any more. Kept because the
    /// end-to-end benchmark (`e2e/`) reads it; goes when it next changes.
    pub shape_hits: u64,
    /// Lookups that compiled from scratch.
    pub misses: u64,
    /// Distinct compiled programs currently held.
    pub entries: usize,
    /// Entries evicted (least-recently-used first) because a limit in
    /// [`CacheLimits`] would have been exceeded.
    pub evictions: u64,
}

/// Growth bounds for a [`CompileCache`].
///
/// The cache is shared with untrusted TCP peers, who can stream an
/// endless supply of *distinct* valid programs (each request line up to
/// 1 MiB); without bounds the key maps and their compiled models grow
/// until the server is OOM-killed. When inserting a *newly compiled*
/// program would push the cache past either limit, **least-recently-used
/// entries are evicted one at a time** until it fits (each counted in
/// [`CacheStats::evictions`]). Every hit — source or canonical tier —
/// refreshes its entry's recency, so a hot working set (a busy server's
/// steady traffic) survives a stream of one-off programs instead of
/// being wiped by a whole-cache sweep. In-flight `Arc`s keep evicted
/// entries alive regardless.
///
/// Only the full-compile (miss) path evicts. Hit-path alias
/// registration (a new spelling of a cached program) never does: past a
/// cap the spelling simply stays unrecorded, so cheap hit traffic cannot
/// evict other clients' entries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheLimits {
    /// Maximum distinct compiled programs held at once.
    pub max_entries: usize,
    /// Maximum total bytes across all key texts (raw sources and
    /// canonical renderings). Bounds the alias map, which can grow
    /// without adding entries — every whitespace respelling of one
    /// program is a new up-to-1-MiB source key.
    pub max_key_bytes: usize,
}

impl Default for CacheLimits {
    fn default() -> Self {
        CacheLimits {
            max_entries: 256,
            max_key_bytes: 64 << 20,
        }
    }
}

/// One cached program plus its place in the recency list and the
/// reverse index needed to evict it cleanly.
///
/// A source text is `Arc<str>` shared between `State::by_source` and
/// the slot's reverse index, so each distinct text (an up-to-1-MiB
/// source line, say) is stored once however many structures point at
/// it — the accounted `key_bytes` track real memory, not a fraction of
/// it.  The same sharing means evicting a slot under the lock only drops
/// reference counts: the texts and the entry are freed with the slot
/// itself, after the lock is released.
struct Slot {
    entry: Arc<CompiledEntry>,
    /// The canonical rendering, filed in `State::by_canon` under
    /// `entry.fingerprint`.
    canon: String,
    /// Raw-source spellings registered for this entry (keys of
    /// `State::by_source` to drop on eviction; shared allocations).
    aliases: Vec<Arc<str>>,
    /// The next less recently used slot, toward [`State::oldest`].
    older: Option<usize>,
    /// The next more recently used slot, toward [`State::newest`].
    newer: Option<usize>,
}

/// The maps, slots and counters behind the cache's lock.
///
/// Canonical renderings are filed under their FNV-1a fingerprints, which
/// every lookup past the source tier computes before it takes the lock;
/// the slot keeps the full text, and a lookup only matches when the text
/// is equal. Two texts with one fingerprint therefore never share an
/// entry: the later one is served uncached. The lock therefore never
/// hashes a multi-kilobyte key except the raw source text, the fast
/// path's key.
#[derive(Default)]
struct State {
    /// Raw source text → slot of its entry. Full-text keys (not bare
    /// hashes): the map's own hashing gives the fast path, and key
    /// equality makes a hash collision between two different programs
    /// impossible — which matters once untrusted TCP clients share the
    /// cache.
    by_source: HashMap<Arc<str>, usize>,
    /// Canonical fingerprint → slot. One key per live slot.
    by_canon: HashMap<u64, usize>,
    /// The slots, indexed by the maps; `None` marks a free index.
    slots: Vec<Option<Slot>>,
    /// Free indices of `slots`, reused before the vector grows.
    free: Vec<usize>,
    /// The least recently used live slot: the next eviction victim.
    oldest: Option<usize>,
    /// The most recently used live slot.
    newest: Option<usize>,
    /// Total bytes across all key texts (sources and canonical
    /// renderings), compared against [`CacheLimits::max_key_bytes`].
    key_bytes: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl State {
    fn slot(&self, i: usize) -> &Slot {
        self.slots[i].as_ref().expect("maps point at live slots")
    }

    fn slot_mut(&mut self, i: usize) -> &mut Slot {
        self.slots[i].as_mut().expect("maps point at live slots")
    }

    /// Takes slot `i` out of the recency list.
    fn unlink(&mut self, i: usize) {
        let (older, newer) = {
            let slot = self.slot(i);
            (slot.older, slot.newer)
        };
        match older {
            Some(o) => self.slot_mut(o).newer = newer,
            None => self.oldest = newer,
        }
        match newer {
            Some(n) => self.slot_mut(n).older = older,
            None => self.newest = older,
        }
    }

    /// Puts slot `i` at the most recently used end of the list.
    fn link_newest(&mut self, i: usize) {
        let prev = self.newest;
        let slot = self.slot_mut(i);
        slot.older = prev;
        slot.newer = None;
        match prev {
            Some(p) => self.slot_mut(p).newer = Some(i),
            None => self.oldest = Some(i),
        }
        self.newest = Some(i);
    }

    /// Marks slot `i` as just used and returns its entry.
    fn touch(&mut self, i: usize) -> Arc<CompiledEntry> {
        if self.newest != Some(i) {
            self.unlink(i);
            self.link_newest(i);
        }
        self.slot(i).entry.clone()
    }

    /// The slot holding the program `canon` (with canonical fingerprint
    /// `fingerprint`), marked as just used.
    fn touch_canon(
        &mut self,
        fingerprint: u64,
        canon: &str,
    ) -> Option<(usize, Arc<CompiledEntry>)> {
        let i = *self.by_canon.get(&fingerprint)?;
        (self.slot(i).canon == canon).then(|| (i, self.touch(i)))
    }

    /// Evicts least-recently-used entries until one more compiled
    /// program with `incoming` key bytes fits the limits, and returns
    /// them: the caller drops them once the lock is released, so freeing
    /// a session never stalls other lookups. Only the full-compile path
    /// calls this — the caller has just paid a lower, so a peer cannot
    /// trigger evictions with cheap requests.
    #[must_use]
    fn make_room(&mut self, limits: &CacheLimits, incoming: usize) -> Vec<Slot> {
        let mut evicted = Vec::new();
        while let Some(oldest) = self.oldest {
            if self.by_canon.len() < limits.max_entries
                && self.key_bytes.saturating_add(incoming) <= limits.max_key_bytes
            {
                break;
            }
            evicted.push(self.evict(oldest));
        }
        evicted
    }

    /// Removes slot `i` and every key pointing at it.
    fn evict(&mut self, i: usize) -> Slot {
        self.unlink(i);
        let slot = self.slots[i].take().expect("maps point at live slots");
        self.free.push(i);
        self.by_canon.remove(&slot.entry.fingerprint);
        self.key_bytes = self.key_bytes.saturating_sub(slot.canon.len());
        for alias in &slot.aliases {
            self.by_source.remove(alias);
            self.key_bytes = self.key_bytes.saturating_sub(alias.len());
        }
        self.evictions += 1;
        slot
    }

    /// Registers `source` as an alias of slot `i`, with byte accounting
    /// (a racing thread may have inserted the same key already). The
    /// text is shared between the alias map and the slot's reverse
    /// index.
    fn insert_source(&mut self, source: Arc<str>, i: usize) {
        if let Entry::Vacant(vacant) = self.by_source.entry(Arc::clone(&source)) {
            vacant.insert(i);
            self.key_bytes += source.len();
            self.slot_mut(i).aliases.push(source);
        }
    }

    /// Files a freshly compiled entry for the program `canon` as the
    /// most recently used slot, with byte accounting; returns its index.
    /// `None` when another program already holds its fingerprint: the
    /// entry then stays unfiled.
    fn insert_slot(&mut self, canon: String, entry: Arc<CompiledEntry>) -> Option<usize> {
        let Entry::Vacant(vacant) = self.by_canon.entry(entry.fingerprint) else {
            return None;
        };
        let i = self.free.pop().unwrap_or(self.slots.len());
        vacant.insert(i);
        self.key_bytes += canon.len();
        let slot = Slot {
            entry,
            canon,
            aliases: Vec::new(),
            older: None,
            newer: None,
        };
        if i == self.slots.len() {
            self.slots.push(Some(slot));
        } else {
            self.slots[i] = Some(slot);
        }
        self.link_newest(i);
        Some(i)
    }
}

/// A thread-safe source → compiled-model cache.
///
/// Compilation runs *outside* the lock: concurrent misses on the same new
/// source may compile twice, but the first insert wins, every caller
/// receives the same shared entry, and only the winner counts as a miss —
/// the lock is only ever held for map operations, never for parsing or
/// model building.
///
/// Growth is bounded by [`CacheLimits`] (see there for the policy); the
/// defaults suit a long-running server on untrusted input. Recency is a
/// linked list through the cached slots, so picking the
/// least-recently-used victim takes O(1) whatever the cache's size, and
/// evicted entries are freed after the lock is released: a miss holds
/// the lock for a few map and list updates, never for freeing a
/// session.
#[derive(Default)]
pub struct CompileCache {
    state: Mutex<State>,
    limits: CacheLimits,
}

impl CompileCache {
    /// An empty cache with the default [`CacheLimits`].
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty cache with explicit growth bounds.
    #[must_use]
    pub fn with_limits(limits: CacheLimits) -> Self {
        CompileCache {
            state: Mutex::default(),
            limits,
        }
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect("cache lock")
    }

    /// The compiled entry for `source`, compiling it if unseen.
    ///
    /// # Errors
    ///
    /// The compiler's diagnostics for sources that do not parse or lower.
    /// Failures are not cached (they are cheap to reproduce and carry
    /// spans into the offending text).
    pub fn get_or_compile(
        &self,
        source: &str,
    ) -> Result<(Arc<CompiledEntry>, Lookup), Vec<Diagnostic>> {
        {
            let mut state = self.lock();
            if let Some(&slot) = state.by_source.get(source) {
                // Aliases always point at live slots (eviction removes
                // them together).
                let entry = state.touch(slot);
                state.hits += 1;
                return Ok((entry, Lookup::SourceHit));
            }
        }

        // Parse outside the lock; the canonical rendering may still
        // alias an entry compiled from a different spelling. Key texts
        // are hashed and copied here too, so the lock covers only map
        // and list updates.
        let program = sna_lang::parse(source)?;
        let canon = program.to_string();
        let fingerprint = fnv1a_64(canon.as_bytes());
        let source_key: Arc<str> = Arc::from(source);
        {
            let mut state = self.lock();
            if let Some((slot, entry)) = state.touch_canon(fingerprint, &canon) {
                // Record the spelling as an alias only while it fits the
                // byte budget. Never evict on this path: hit requests
                // are cheap for the peer, so evicting here would let an
                // attacker spam respellings of one cached program to
                // push out every other client's entries without ever
                // paying a compile. Past the cap the spelling simply
                // stays unrecorded and keeps resolving through its
                // canonical form (one parse per request).
                if state.key_bytes.saturating_add(source.len()) <= self.limits.max_key_bytes {
                    state.insert_source(source_key, slot);
                }
                state.hits += 1;
                return Ok((entry, Lookup::CanonHit));
            }
        }

        let lowered = sna_lang::lower(&program)?;
        let entry = Arc::new(CompiledEntry::new(lowered, fingerprint));
        let mut state = self.lock();
        // A racing thread may have inserted the same program meanwhile;
        // the first insert wins (so every caller shares one allocation)
        // and counts as the one miss — the losers found an entry, which
        // is a hit however the work raced. This is a hit path, so the
        // alias registers only within the byte budget (same guard as
        // the canon-hit path — no eviction, no cap overshoot).
        if let Some((slot, existing)) = state.touch_canon(fingerprint, &canon) {
            if state.key_bytes.saturating_add(source.len()) <= self.limits.max_key_bytes {
                state.insert_source(source_key, slot);
            }
            state.hits += 1;
            // This call's own compile (`entry`) is freed after the unlock.
            drop(state);
            return Ok((existing, Lookup::CanonHit));
        }
        let evicted = state.make_room(&self.limits, canon.len() + source.len());
        if let Some(slot) = state.insert_slot(canon, entry.clone()) {
            state.insert_source(source_key, slot);
        }
        state.misses += 1;
        // Free the evicted sessions without holding up other lookups.
        drop(state);
        drop(evicted);
        Ok((entry, Lookup::Miss))
    }

    /// Current counters.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        let state = self.lock();
        CacheStats {
            hits: state.hits,
            shape_hits: 0,
            misses: state.misses,
            entries: state.by_canon.len(),
            evictions: state.evictions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = "input x in [-1, 1];\ny = 0.5*x;\noutput y;\n";

    #[test]
    fn repeat_sources_hit_and_share_the_entry() {
        let cache = CompileCache::new();
        let (first, l1) = cache.get_or_compile(SRC).unwrap();
        let (second, l2) = cache.get_or_compile(SRC).unwrap();
        assert_eq!(l1, Lookup::Miss);
        assert_eq!(l2, Lookup::SourceHit);
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 1,
                shape_hits: 0,
                misses: 1,
                entries: 1,
                evictions: 0
            }
        );
    }

    #[test]
    fn reformatted_source_aliases_via_the_canonical_fingerprint() {
        let cache = CompileCache::new();
        let (first, _) = cache.get_or_compile(SRC).unwrap();
        let respelled = "# comment\ninput x in [ -1, 1 ];\n\ny = 0.5 * x;\noutput y;";
        let (second, lookup) = cache.get_or_compile(respelled).unwrap();
        assert_eq!(lookup, Lookup::CanonHit);
        assert!(Arc::ptr_eq(&first, &second));
        // The alias is remembered: the respelled text now hits on bytes.
        let (_, lookup) = cache.get_or_compile(respelled).unwrap();
        assert_eq!(lookup, Lookup::SourceHit);
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn na_model_is_built_once_and_shared() {
        let cache = CompileCache::new();
        let (entry, _) = cache.get_or_compile(SRC).unwrap();
        assert!(!entry.session.na_model_built());
        let a = entry.session.na_model().unwrap();
        assert!(entry.session.na_model_built());
        let b = entry.session.na_model().unwrap();
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn nonlinear_graphs_report_a_model_error_without_poisoning_compile() {
        let cache = CompileCache::new();
        let (entry, _) = cache.get_or_compile("input x;\noutput y = x*x;\n").unwrap();
        assert!(entry.session.na_model().is_err());
        // The compiled graph is still usable for other engines.
        assert!(entry.session.dfg().is_combinational());
    }

    /// A *structurally* distinct single-output program per index.
    fn program(i: usize) -> String {
        format!(
            "input x in [-1, 1];\ny = 0.5*x{};\noutput y;\n",
            " + x".repeat(i)
        )
    }

    #[test]
    fn entry_cap_evicts_least_recently_used_first() {
        let cache = CompileCache::with_limits(CacheLimits {
            max_entries: 4,
            ..CacheLimits::default()
        });
        for i in 1..=20 {
            let (entry, lookup) = cache.get_or_compile(&program(i)).unwrap();
            assert_eq!(lookup, Lookup::Miss);
            assert!(entry.session.dfg().is_combinational());
        }
        let stats = cache.stats();
        assert!(stats.entries <= 4, "{stats:?}");
        // One LRU eviction per insert past the cap, not whole-cache
        // sweeps: 16 of the 20 distinct programs were pushed out.
        assert_eq!(stats.evictions, 16, "{stats:?}");
        // The recent tail survived; the oldest recompiles.
        for i in 17..=20 {
            assert!(
                cache.get_or_compile(&program(i)).unwrap().1.is_hit(),
                "program {i} should still be cached"
            );
        }
        assert_eq!(cache.get_or_compile(&program(1)).unwrap().1, Lookup::Miss);
    }

    #[test]
    fn hits_refresh_recency_so_hot_entries_survive_churn() {
        let cache = CompileCache::with_limits(CacheLimits {
            max_entries: 4,
            ..CacheLimits::default()
        });
        let hot = program(0);
        cache.get_or_compile(&hot).unwrap();
        // Stream 50 one-off programs, touching the hot one between every
        // insert: with a true LRU the hot entry is never the victim.
        for i in 1..=50 {
            assert!(cache.get_or_compile(&hot).unwrap().1.is_hit());
            assert_eq!(cache.get_or_compile(&program(i)).unwrap().1, Lookup::Miss);
        }
        assert_eq!(
            cache.get_or_compile(&hot).unwrap().1,
            Lookup::SourceHit,
            "the hot entry must survive 50 insertions past the cap"
        );
        let stats = cache.stats();
        assert!(stats.entries <= 4, "{stats:?}");
        assert_eq!(stats.misses, 51, "{stats:?}");
    }

    #[test]
    fn respins_at_the_cap_evict_like_misses_and_repeat_as_source_hits() {
        let cache = CompileCache::with_limits(CacheLimits {
            max_entries: 4,
            ..CacheLimits::default()
        });
        let respin = |k: usize| format!("input x in [-1, 1];\nlet k = 0.{k}1;\noutput y = k*x;\n");
        let base = respin(0);
        cache.get_or_compile(&base).unwrap();
        for i in 1..=3 {
            cache.get_or_compile(&program(i)).unwrap();
        }
        assert_eq!(cache.stats().entries, 4);
        // At the cap, a coefficient respin of a cached design is an
        // ordinary miss: it evicts the least recently used entry.
        let (first, lookup) = cache.get_or_compile(&respin(1)).unwrap();
        assert_eq!(lookup, Lookup::Miss);
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.evictions), (4, 1), "{stats:?}");
        assert_eq!(cache.get_or_compile(&base).unwrap().1, Lookup::Miss);
        // Its exact repeat is a source hit on the same entry.
        let (again, lookup) = cache.get_or_compile(&respin(1)).unwrap();
        assert_eq!(lookup, Lookup::SourceHit);
        assert!(Arc::ptr_eq(&first, &again));
        // A stream of respins keeps the cache at its cap.
        for k in 2..=20 {
            assert_eq!(cache.get_or_compile(&respin(k)).unwrap().1, Lookup::Miss);
            assert!(cache.stats().entries <= 4);
        }
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.shape_hits), (1, 0), "{stats:?}");
    }

    #[test]
    fn key_byte_cap_stops_alias_growth_without_sweeping() {
        // One program, many spellings: every spelling is a new source
        // key, so the byte cap must stop alias recording — but hit
        // requests must never sweep the cache out from under other
        // clients (a peer could otherwise evict everything by spamming
        // cheap respellings of one cached program).
        let cache = CompileCache::with_limits(CacheLimits {
            max_entries: 1024,
            max_key_bytes: 4096,
        });
        let (first, _) = cache.get_or_compile(SRC).unwrap();
        let mut spellings = Vec::new();
        for i in 0..200 {
            let respelled = format!("# pad {i} {}\n{SRC}", "x".repeat(64));
            let (entry, lookup) = cache.get_or_compile(&respelled).unwrap();
            assert!(Arc::ptr_eq(&first, &entry));
            assert!(lookup.is_hit());
            spellings.push(respelled);
        }
        let stats = cache.stats();
        assert_eq!(stats.evictions, 0, "{stats:?}");
        assert_eq!(stats.entries, 1, "{stats:?}");
        // Alias recording stopped at the cap: an early spelling was
        // remembered (byte-level hit), a late one was not — it still
        // resolves, but through the canonical form each time.
        assert_eq!(
            cache.get_or_compile(&spellings[0]).unwrap().1,
            Lookup::SourceHit
        );
        assert_eq!(
            cache.get_or_compile(&spellings[199]).unwrap().1,
            Lookup::CanonHit
        );
    }

    /// The eviction policy as a scan: each slot carries the tick of its
    /// last use and the victim is the minimum, the way the cache picked
    /// it before it kept a recency list. Mirrors `get_or_compile`.
    #[derive(Default)]
    struct ScanModel {
        /// Source → canonical text.
        by_source: HashMap<String, String>,
        /// Canonical text → (last use, aliases).
        slots: HashMap<String, (u64, Vec<String>)>,
        key_bytes: usize,
        tick: u64,
        stats: CacheStats,
    }

    impl ScanModel {
        fn touch(&mut self, canon: &str) -> bool {
            self.tick += 1;
            let tick = self.tick;
            self.slots.get_mut(canon).map(|s| s.0 = tick).is_some()
        }

        fn alias(&mut self, source: &str, canon: &str) {
            if !self.by_source.contains_key(source) {
                self.key_bytes += source.len();
                self.by_source.insert(source.into(), canon.into());
                self.slots.get_mut(canon).unwrap().1.push(source.into());
            }
        }

        fn insert(&mut self, source: &str, canon: &str) {
            self.tick += 1;
            self.key_bytes += canon.len();
            self.slots.insert(canon.into(), (self.tick, Vec::new()));
            self.alias(source, canon);
        }

        fn lookup(&mut self, source: &str, limits: &CacheLimits) -> Lookup {
            let fits =
                |bytes: usize, extra: usize| bytes.saturating_add(extra) <= limits.max_key_bytes;
            if let Some(canon) = self.by_source.get(source).cloned() {
                assert!(self.touch(&canon));
                self.stats.hits += 1;
                return Lookup::SourceHit;
            }
            let program = sna_lang::parse(source).unwrap();
            let canon = program.to_string();
            if self.touch(&canon) {
                if fits(self.key_bytes, source.len()) {
                    self.alias(source, &canon);
                }
                self.stats.hits += 1;
                return Lookup::CanonHit;
            }
            while !self.slots.is_empty()
                && (self.slots.len() >= limits.max_entries
                    || !fits(self.key_bytes, canon.len() + source.len()))
            {
                let victim = self
                    .slots
                    .iter()
                    .min_by_key(|(_, slot)| slot.0)
                    .map(|(canon, _)| canon.clone())
                    .unwrap();
                let (_, aliases) = self.slots.remove(&victim).unwrap();
                self.key_bytes -= victim.len();
                for alias in aliases {
                    self.by_source.remove(&alias);
                    self.key_bytes -= alias.len();
                }
                self.stats.evictions += 1;
            }
            self.insert(source, &canon);
            self.stats.misses += 1;
            Lookup::Miss
        }
    }

    /// A splitmix64 stream: the test's only source of randomness.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % n as u64) as usize
        }
    }

    #[test]
    fn recency_list_evicts_what_the_scan_would() {
        for seed in 0..24u64 {
            let mut rng = Rng(seed);
            let limits = CacheLimits {
                max_entries: 4 + rng.below(5),
                // Every third sequence also runs into the key-byte cap.
                max_key_bytes: if seed % 3 == 0 { 1500 } else { 64 << 20 },
            };
            let cache = CompileCache::with_limits(limits);
            let mut model = ScanModel::default();
            let mut shapes = 0;
            let mut sent: Vec<String> = Vec::new();
            for call in 0..300 {
                let source = match rng.below(8) {
                    // A fresh shape.
                    0 | 1 => {
                        shapes += 1;
                        program(shapes)
                    }
                    // A respin of one of the latest shapes.
                    2..=4 if shapes > 0 => {
                        let c = (1 + rng.below(32)) as f64 / 64.0;
                        let terms = " + x".repeat(shapes - rng.below(shapes.min(6)));
                        format!("input x in [-1, 1];\ny = {c}*x{terms};\noutput y;\n")
                    }
                    // A new spelling of something sent lately.
                    5 if !sent.is_empty() => {
                        let earlier = &sent[sent.len() - 1 - rng.below(sent.len().min(12))];
                        format!("# spelling {call}\n{earlier}")
                    }
                    // An exact repeat of something sent lately.
                    _ if !sent.is_empty() => {
                        sent[sent.len() - 1 - rng.below(sent.len().min(12))].clone()
                    }
                    _ => program(0),
                };
                let want = model.lookup(&source, &limits);
                let (_, got) = cache.get_or_compile(&source).unwrap();
                assert_eq!(got, want, "seed {seed}, call {call}: {source:?}");
                assert_eq!(
                    cache.stats(),
                    CacheStats {
                        entries: model.slots.len(),
                        ..model.stats
                    },
                    "seed {seed}, call {call}"
                );
                sent.push(source);
            }
            assert!(model.stats.evictions > 0, "seed {seed} never evicted");
        }
    }

    #[test]
    fn make_room_hands_the_evicted_entries_back_alive() {
        let limits = CacheLimits {
            max_entries: 2,
            ..CacheLimits::default()
        };
        let mut state = State::default();
        let compiled = |i: usize| {
            let lowered = sna_lang::compile(&program(i)).unwrap();
            Arc::new(CompiledEntry::new(lowered, i as u64))
        };
        let a = state.insert_slot("a".into(), compiled(1)).unwrap();
        state.insert_slot("b".into(), compiled(2)).unwrap();
        state.touch(a);
        let evicted = state.make_room(&limits, 1);
        // "b" was the least recently used; the state no longer holds it,
        // so the returned slot owns the last reference to its entry.
        assert_eq!(evicted.len(), 1);
        assert_eq!(evicted[0].canon, "b");
        assert_eq!(Arc::strong_count(&evicted[0].entry), 1);
        assert_eq!((state.by_canon.len(), state.evictions), (1, 1));
        assert_eq!((state.oldest, state.newest), (Some(a), Some(a)));
    }

    #[test]
    fn compile_errors_are_reported_not_cached() {
        let cache = CompileCache::new();
        assert!(cache.get_or_compile("input x;\ny = ;\n").is_err());
        assert_eq!(cache.stats().entries, 0);
        assert_eq!(cache.stats().misses, 0);
    }
}
