//! The hash-keyed compile cache: the piece that turns "every invocation
//! re-lexes, re-lowers, and rebuilds the model" into "the first request
//! pays, every repeat goes straight to evaluation".
//!
//! Three key levels:
//!
//! * **source text** — the raw bytes, hashed by the map. The fast path: a
//!   repeat of the identical text hits without parsing anything.
//! * **canonical form** — the parsed program's canonical rendering (whose
//!   FNV-1a hash is the entry's reported fingerprint). Sources that
//!   differ only in whitespace or comments share one entry; the second
//!   spelling pays one parse, then aliases the existing compiled model.
//! * **shape** — the lowered graph with `Const` values masked
//!   ([`Lowered::shape_key`]). A program that differs from a cached one
//!   *only in coefficient values* — the inner loop of design-space
//!   exploration — pays parse + lower, then maps onto the cached entry's
//!   skeleton via [`Session::with_coefficients`]: it shares the donor's
//!   VM program and builds ranges and the gain model cold, so its
//!   answers are a cold compile's bytes.
//!
//! All levels compare the full key text on lookup, so a hash collision
//! can never hand one program another program's model.
//!
//! Entries hold a [`Session`] — graph, ranges, gain model, histogram
//! memo — behind an `Arc`; every stage is `Send + Sync`, so a worker
//! pool or one thread per connection can share them freely.
//!
//! # Persistent tier
//!
//! With [`CompileCache::with_store`] the cache gains a disk-backed
//! fourth tier below the in-memory ones: compiled skeletons
//! ([`Session::export_wire`]) are spilled to a [`sna_store::Store`] by
//! [`CompileCache::spill`] (servers call it on graceful drain, batches
//! at the end) and warm-loaded on a later process's miss — `"skel"`
//! objects keyed by the canonical fingerprint, plus small `"shape"`
//! pointer objects keyed by the shape fingerprint so coefficient
//! respins of a stored skeleton also warm-load.  Every stored payload
//! embeds the full key text it was derived from, so a fingerprint
//! collision reads as a plain miss; any frame- or schema-level damage
//! is discarded (counted in [`sna_store::StoreStats::corrupt`]) and the
//! program recompiles from scratch — corruption can never panic, poison
//! the in-memory cache, or resurrect a stale artifact.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use sna_core::Session;
use sna_lang::{fnv1a_64, Diagnostic, Lowered};
use sna_store::{Store, WireReader, WireWriter};

/// Store object kind holding serialized compiled skeletons, keyed by
/// the canonical fingerprint.
pub const SKEL_KIND: &str = "skel";

/// Store object kind holding shape → skeleton pointers, keyed by the
/// shape fingerprint.
pub const SHAPE_PTR_KIND: &str = "shape";

/// One compiled program: the shared [`Session`] holding its artifact
/// chain, plus the cache's identifying fingerprints.
#[derive(Debug)]
pub struct CompiledEntry {
    /// The compiled session (graph, ranges, models), shared across
    /// threads.
    pub session: Arc<Session>,
    /// Canonical fingerprint of the program this was compiled from.
    pub fingerprint: u64,
    /// Coefficient-normalized shape fingerprint
    /// ([`Lowered::shape_fingerprint`]).
    pub shape_fingerprint: u64,
}

impl CompiledEntry {
    /// Wraps an already compiled program (used both by the cache and by
    /// uncached single-shot paths that still want lazy artifact sharing).
    #[must_use]
    pub fn new(lowered: Lowered, fingerprint: u64) -> Self {
        let shape_fingerprint = lowered.shape_fingerprint();
        let session = Session::new(lowered.dfg, lowered.input_ranges)
            .expect("lowering guarantees input/range consistency");
        Self::from_session(session, fingerprint, shape_fingerprint)
    }

    /// Wraps a session produced by coefficient-level reuse.
    fn from_session(session: Session, fingerprint: u64, shape_fingerprint: u64) -> Self {
        CompiledEntry {
            session: Arc::new(session),
            fingerprint,
            shape_fingerprint,
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
    /// A new program whose graph *shape* matches a cached one (only
    /// constant values differ): parse + lower ran, the cached skeleton's
    /// VM program is shared, and ranges and gains build cold on first
    /// use.
    ShapeHit,
    /// Absent from memory but warm-loaded from the persistent artifact
    /// store (directly or through a shape pointer): parse + lower ran,
    /// but every stage the stored skeleton carried was reused.
    StoreHit,
    /// Fully compiled on this call.
    Miss,
}

impl Lookup {
    /// `true` for any hit flavour.
    #[must_use]
    pub fn is_hit(self) -> bool {
        !matches!(self, Lookup::Miss)
    }

    /// Protocol wire word: `"hit"` / `"canon-hit"` / `"shape-hit"` /
    /// `"store-hit"` / `"miss"`.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Lookup::SourceHit => "hit",
            Lookup::CanonHit => "canon-hit",
            Lookup::ShapeHit => "shape-hit",
            Lookup::StoreHit => "store-hit",
            Lookup::Miss => "miss",
        }
    }
}

/// Cache counters, as reported in batch summaries and `stats` requests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache (any key level, shape included).
    pub hits: u64,
    /// The subset of `hits` answered through the shape tier (coefficient
    /// swap onto a cached skeleton).
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
/// [`CacheStats::evictions`]). Every hit — source, canonical, or shape
/// tier — refreshes its entry's recency, so a hot working set (a busy
/// server's steady traffic, a sweep's shape donor) survives a stream of
/// one-off programs instead of being wiped by a whole-cache sweep.
/// In-flight `Arc`s keep evicted entries alive regardless.
///
/// Only the full-compile (miss) path evicts. Hit-path alias
/// registration (a new spelling of a cached program) and shape-tier
/// variant registration never do: past a cap the spelling/variant
/// simply stays unrecorded, so cheap hit traffic cannot evict other
/// clients' entries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheLimits {
    /// Maximum distinct compiled programs held at once.
    pub max_entries: usize,
    /// Maximum total bytes across all key texts (raw sources, canonical
    /// renderings, shape keys). Bounds the alias map, which can grow
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

/// One cached program plus its recency and the reverse index needed to
/// evict it cleanly.
///
/// Key texts are `Arc<str>` shared between the maps and these reverse
/// indices, so each distinct text (an up-to-1-MiB source line, say) is
/// stored once however many structures point at it — the accounted
/// `key_bytes` track real memory, not a fraction of it.
struct Slot {
    entry: Arc<CompiledEntry>,
    /// Raw-source spellings registered for this entry (keys of
    /// `State::by_source` to drop on eviction; shared allocations).
    aliases: Vec<Arc<str>>,
    /// The shape key this entry donates its skeleton under, when it is
    /// the registered donor (key of `State::by_shape` to drop on
    /// eviction; shared allocation).
    shape_key: Option<Arc<str>>,
    /// Logical timestamp of the last lookup that returned this entry.
    last_used: u64,
}

#[derive(Default)]
struct State {
    /// Raw source text → canonical key of its entry. Full-text keys
    /// (not bare hashes): the map's own hashing gives the fast path,
    /// and key equality makes a hash collision between two different
    /// programs impossible — which matters once untrusted TCP clients
    /// share the cache.
    by_source: HashMap<Arc<str>, Arc<str>>,
    /// Canonical rendering → the compiled slot, same full-text
    /// reasoning. The one map that owns entries; all other maps point
    /// into it.
    slots: HashMap<Arc<str>, Slot>,
    /// Const-masked shape rendering ([`Lowered::shape_key`]) → canonical
    /// key of the skeleton donor for coefficient swaps (the first entry
    /// compiled with each shape, replaced when it is evicted).
    by_shape: HashMap<Arc<str>, Arc<str>>,
    /// Total bytes across all maps' keys, compared against
    /// [`CacheLimits::max_key_bytes`].
    key_bytes: usize,
    /// Logical clock for LRU recency (bumped on every lookup that
    /// touches an entry).
    tick: u64,
    hits: u64,
    shape_hits: u64,
    misses: u64,
    evictions: u64,
}

impl State {
    /// Marks the slot under `canon` as just-used and returns its entry.
    fn touch(&mut self, canon: &str) -> Option<Arc<CompiledEntry>> {
        self.tick += 1;
        let tick = self.tick;
        self.slots.get_mut(canon).map(|slot| {
            slot.last_used = tick;
            slot.entry.clone()
        })
    }

    /// Evicts least-recently-used entries until one more compiled
    /// program with `incoming` key bytes fits the limits. Only the
    /// full-compile path calls this — the caller has just paid a lower,
    /// so a peer cannot trigger evictions with cheap requests.
    fn make_room(&mut self, limits: &CacheLimits, incoming: usize) {
        while !self.slots.is_empty()
            && (self.slots.len() >= limits.max_entries
                || self.key_bytes.saturating_add(incoming) > limits.max_key_bytes)
        {
            let coldest = self
                .slots
                .iter()
                .min_by_key(|(_, slot)| slot.last_used)
                .map(|(canon, _)| canon.clone())
                .expect("non-empty");
            self.evict(&coldest);
        }
    }

    /// Removes one entry and every key pointing at it.
    fn evict(&mut self, canon: &str) {
        let Some(slot) = self.slots.remove(canon) else {
            return;
        };
        self.key_bytes = self.key_bytes.saturating_sub(canon.len());
        for alias in &slot.aliases {
            self.by_source.remove(alias);
            self.key_bytes = self.key_bytes.saturating_sub(alias.len());
        }
        if let Some(shape_key) = &slot.shape_key {
            self.by_shape.remove(shape_key);
            self.key_bytes = self.key_bytes.saturating_sub(shape_key.len());
        }
        self.evictions += 1;
    }

    /// Registers `source` as an alias of the slot under `canon`, with
    /// byte accounting (a racing thread may have inserted the same key
    /// already). The source text is allocated once and shared between
    /// the alias map and the slot's reverse index.
    fn insert_source(&mut self, source: &str, canon: &str) {
        if self.by_source.contains_key(source) {
            return;
        }
        let Some((canon_arc, _)) = self.slots.get_key_value(canon) else {
            return;
        };
        let canon_arc = Arc::clone(canon_arc);
        let source_arc: Arc<str> = Arc::from(source);
        self.key_bytes += source.len();
        self.by_source.insert(Arc::clone(&source_arc), canon_arc);
        self.slots
            .get_mut(canon)
            .expect("resolved above")
            .aliases
            .push(source_arc);
    }

    /// Inserts a freshly compiled slot under `canon` (which must be
    /// vacant), with byte accounting.
    fn insert_slot(&mut self, canon: Arc<str>, entry: Arc<CompiledEntry>) {
        self.tick += 1;
        self.key_bytes += canon.len();
        let slot = Slot {
            entry,
            aliases: Vec::new(),
            shape_key: None,
            last_used: self.tick,
        };
        let prev = self.slots.insert(canon, slot);
        debug_assert!(prev.is_none(), "insert_slot requires a vacant key");
    }

    /// Registers the slot under `canon` as the donor for `shape_key`
    /// (first occupant wins) while it fits the byte budget.
    fn register_shape(&mut self, shape_key: &str, canon: &str, limits: &CacheLimits) {
        if self.by_shape.contains_key(shape_key)
            || self.key_bytes.saturating_add(shape_key.len()) > limits.max_key_bytes
        {
            return;
        }
        let Some((canon_arc, _)) = self.slots.get_key_value(canon) else {
            return;
        };
        let canon_arc = Arc::clone(canon_arc);
        let shape_arc: Arc<str> = Arc::from(shape_key);
        self.key_bytes += shape_key.len();
        self.slots.get_mut(canon).expect("resolved above").shape_key = Some(Arc::clone(&shape_arc));
        self.by_shape.insert(shape_arc, canon_arc);
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
/// defaults suit a long-running server on untrusted input.
#[derive(Default)]
pub struct CompileCache {
    state: Mutex<State>,
    limits: CacheLimits,
    store: Option<Arc<Store>>,
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
            store: None,
        }
    }

    /// Attaches a persistent artifact store: misses warm-load stored
    /// skeletons and [`CompileCache::spill`] writes compiled entries
    /// back.
    #[must_use]
    pub fn with_store(mut self, store: Arc<Store>) -> Self {
        self.store = Some(store);
        self
    }

    /// The attached artifact store, if any (for stats reporting and
    /// maintenance verbs).
    #[must_use]
    pub fn store(&self) -> Option<&Store> {
        self.store.as_deref()
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
            let mut state = self.state.lock().expect("cache lock");
            if let Some(canon) = state.by_source.get(source).cloned() {
                // Aliases always point at live slots (eviction removes
                // them together), so the touch cannot miss.
                let entry = state.touch(&canon).expect("aliases track live slots");
                state.hits += 1;
                return Ok((entry, Lookup::SourceHit));
            }
        }

        // Parse outside the lock; the canonical rendering may still
        // alias an entry compiled from a different spelling.
        let program = sna_lang::parse(source)?;
        let canon = program.to_string();
        let fingerprint = fnv1a_64(canon.as_bytes());
        {
            let mut state = self.state.lock().expect("cache lock");
            if let Some(entry) = state.touch(&canon) {
                // Record the spelling as an alias only while it fits the
                // byte budget. Never evict on this path: hit requests
                // are cheap for the peer, so evicting here would let an
                // attacker spam respellings of one cached program to
                // push out every other client's entries without ever
                // paying a compile. Past the cap the spelling simply
                // stays unrecorded and keeps resolving through its
                // canonical form (one parse per request).
                if state.key_bytes.saturating_add(source.len()) <= self.limits.max_key_bytes {
                    state.insert_source(source, &canon);
                }
                state.hits += 1;
                return Ok((entry, Lookup::CanonHit));
            }
        }

        let lowered = sna_lang::lower(&program)?;
        let canon_len = canon.len();
        let shape_key = lowered.shape_key();
        let shape_fingerprint = lowered.shape_fingerprint();

        // Shape tier: a cached program with the same const-masked shape
        // absorbs this one as a coefficient swap — its VM program is
        // shared, ranges and gains build cold on first use. Serving a swap
        // *uses* the donor, so its recency is refreshed: a hot skeleton
        // under a parameter sweep outlives streams of one-off programs.
        let donor = {
            let mut state = self.state.lock().expect("cache lock");
            let donor_canon = state.by_shape.get(shape_key.as_str()).cloned();
            donor_canon.and_then(|c| state.touch(&c))
        };
        if let Some(donor) = donor {
            if let Ok(session) = donor.session.with_coefficients(&lowered.dfg.const_values()) {
                let entry = Arc::new(CompiledEntry::from_session(
                    session,
                    fingerprint,
                    shape_fingerprint,
                ));
                let mut state = self.state.lock().expect("cache lock");
                // Never evict on this path: evicting here would let an
                // attacker stream coefficient respins of one cached shape
                // to push out every other client's compiled programs.
                // Past a limit the variant is served but simply stays
                // unregistered.
                let over_entries = state.slots.len() >= self.limits.max_entries;
                let over_bytes = state.key_bytes.saturating_add(canon_len + source.len())
                    > self.limits.max_key_bytes;
                if over_entries || over_bytes {
                    state.hits += 1;
                    state.shape_hits += 1;
                    return Ok((entry, Lookup::ShapeHit));
                }
                if let Some(existing) = state.touch(&canon) {
                    // A racer registered the identical program meanwhile;
                    // share its entry.
                    state.insert_source(source, &canon);
                    state.hits += 1;
                    return Ok((existing, Lookup::CanonHit));
                }
                state.insert_slot(Arc::from(canon.as_str()), entry.clone());
                state.insert_source(source, &canon);
                state.hits += 1;
                state.shape_hits += 1;
                return Ok((entry, Lookup::ShapeHit));
            }
        }

        // Persistent tier: a previous process may have spilled this
        // program's (or its shape's) compiled skeleton to disk.
        if let Some(session) =
            self.store_warm_load(&canon, fingerprint, &shape_key, shape_fingerprint, &lowered)
        {
            let entry = Arc::new(CompiledEntry::from_session(
                session,
                fingerprint,
                shape_fingerprint,
            ));
            let mut state = self.state.lock().expect("cache lock");
            if let Some(existing) = state.touch(&canon) {
                state.insert_source(source, &canon);
                state.hits += 1;
                return Ok((existing, Lookup::CanonHit));
            }
            // A warm load takes a full slot, exactly like a compile
            // would have (the peer paid a compile for it once).
            state.make_room(&self.limits, canon_len + source.len());
            state.insert_slot(Arc::from(canon.as_str()), entry.clone());
            state.insert_source(source, &canon);
            state.register_shape(&shape_key, &canon, &self.limits);
            state.hits += 1;
            return Ok((entry, Lookup::StoreHit));
        }

        let entry = Arc::new(CompiledEntry::new(lowered, fingerprint));
        let mut state = self.state.lock().expect("cache lock");
        // A racing thread may have inserted the same program meanwhile;
        // the first insert wins (so every caller shares one allocation)
        // and counts as the one miss — the losers found an entry, which
        // is a hit however the work raced. This is a hit path, so the
        // alias registers only within the byte budget (same guard as
        // the canon-hit path — no eviction, no cap overshoot).
        if let Some(existing) = state.touch(&canon) {
            if state.key_bytes.saturating_add(source.len()) <= self.limits.max_key_bytes {
                state.insert_source(source, &canon);
            }
            state.hits += 1;
            return Ok((existing, Lookup::CanonHit));
        }
        state.make_room(&self.limits, canon_len + source.len());
        state.insert_slot(Arc::from(canon.as_str()), entry.clone());
        state.insert_source(source, &canon);
        // Register the new shape's skeleton donor (first occupant wins)
        // while it fits the byte budget.
        state.register_shape(&shape_key, &canon, &self.limits);
        state.misses += 1;
        Ok((entry, Lookup::Miss))
    }

    /// Tries both persistent tiers for a warm skeleton: the canonical
    /// fingerprint first (exact program), then the shape pointer
    /// (coefficient respin of a stored skeleton).  Any failure — frame
    /// damage, schema damage, key collision, coefficient-count mismatch
    /// — returns `None` and the caller compiles from scratch.
    fn store_warm_load(
        &self,
        canon: &str,
        fingerprint: u64,
        shape_key: &str,
        shape_fingerprint: u64,
        lowered: &Lowered,
    ) -> Option<Session> {
        let store = self.store.as_deref()?;
        if let Some((stored_canon, _, session)) = load_skeleton(store, fingerprint) {
            if stored_canon == canon {
                return Some(session);
            }
            // Fingerprint collision with a different program: a miss,
            // not corruption. Fall through to the shape tier.
        }
        let pointer = store.get(SHAPE_PTR_KIND, shape_fingerprint)?;
        let (stored_shape, skel_fp) = match decode_shape_pointer(&pointer) {
            Ok(decoded) => decoded,
            Err(_) => {
                store.discard(SHAPE_PTR_KIND, shape_fingerprint);
                return None;
            }
        };
        if stored_shape != shape_key {
            return None; // shape-fingerprint collision: plain miss
        }
        let (_, skel_shape, session) = load_skeleton(store, skel_fp)?;
        if skel_shape != shape_key {
            return None; // the pointer's donor was replaced by another shape
        }
        session.with_coefficients(&lowered.dfg.const_values()).ok()
    }

    /// Writes every resident entry's current skeleton (and each shape
    /// donor's pointer) to the attached store; returns the number of
    /// objects written.  Stages built since the last spill ride along —
    /// callers invoke this at quiet points (server drain, end of a
    /// batch), so a later process warm-loads fully built sessions.
    ///
    /// A cache without a store (or one hitting I/O errors) spills
    /// nothing; failures are reflected in the return count only.
    pub fn spill(&self) -> usize {
        let Some(store) = self.store.as_deref() else {
            return 0;
        };
        // Snapshot under the lock, write outside it.
        type SpillRow = (Arc<str>, Option<Arc<str>>, Arc<CompiledEntry>);
        let snapshot: Vec<SpillRow> = {
            let state = self.state.lock().expect("cache lock");
            state
                .slots
                .iter()
                .map(|(canon, slot)| (canon.clone(), slot.shape_key.clone(), slot.entry.clone()))
                .collect()
        };
        let mut written = 0;
        for (canon, shape_key, entry) in snapshot {
            let shape_text = shape_key.as_deref().map(str::to_owned).unwrap_or_default();
            let mut w = WireWriter::new();
            w.str(&canon);
            w.str(&shape_text);
            w.bytes(&entry.session.export_wire());
            if store.put(SKEL_KIND, entry.fingerprint, &w.finish()).is_ok() {
                written += 1;
            }
            if let Some(shape) = shape_key {
                let mut w = WireWriter::new();
                w.str(&shape);
                w.u64(entry.fingerprint);
                if store
                    .put(SHAPE_PTR_KIND, entry.shape_fingerprint, &w.finish())
                    .is_ok()
                {
                    written += 1;
                }
            }
        }
        written
    }

    /// Current counters.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        let state = self.state.lock().expect("cache lock");
        CacheStats {
            hits: state.hits,
            shape_hits: state.shape_hits,
            misses: state.misses,
            entries: state.slots.len(),
            evictions: state.evictions,
        }
    }
}

/// Loads and decodes a `"skel"` object: `(canonical text, shape key,
/// imported session)`.  Schema damage discards the object (the store
/// already counted and dropped frame-level damage in `get`).
fn load_skeleton(store: &Store, key: u64) -> Option<(String, String, Session)> {
    let payload = store.get(SKEL_KIND, key)?;
    let decode = || -> Result<(String, String, Session), sna_store::WireError> {
        let mut r = WireReader::new(&payload);
        let canon = r.str()?;
        let shape = r.str()?;
        let session = Session::import_wire(&r.bytes()?)?;
        r.expect_end()?;
        Ok((canon, shape, session))
    };
    match decode() {
        Ok(decoded) => Some(decoded),
        Err(_) => {
            store.discard(SKEL_KIND, key);
            None
        }
    }
}

/// Decodes a `"shape"` pointer object: `(shape key text, skeleton
/// fingerprint)`.
fn decode_shape_pointer(payload: &[u8]) -> Result<(String, u64), sna_store::WireError> {
    let mut r = WireReader::new(payload);
    let shape = r.str()?;
    let skel_fp = r.u64()?;
    r.expect_end()?;
    Ok((shape, skel_fp))
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

    #[test]
    fn coefficient_swaps_hit_the_shape_tier() {
        let cache = CompileCache::new();
        let base = "input x in [-1, 1];\nlet k = 0.5;\noutput y = k*x;\n";
        let (first, l0) = cache.get_or_compile(base).unwrap();
        assert_eq!(l0, Lookup::Miss);
        // Build every stage of the donor; the swap shares only the VM
        // program.
        first.session.na_model().unwrap();
        let _ = first.session.vm_program();

        let swapped = "input x in [-1, 1];\nlet k = 0.25;\noutput y = k*x;\n";
        let (second, lookup) = cache.get_or_compile(swapped).unwrap();
        assert_eq!(lookup, Lookup::ShapeHit);
        assert_eq!(second.shape_fingerprint, first.shape_fingerprint);
        assert_ne!(second.fingerprint, first.fingerprint);
        assert_eq!(second.session.coefficients(), vec![0.25]);
        // The value-dependent stages build cold on first use and equal
        // a cold compile's.
        assert!(second.session.vm_program_built());
        assert!(!second.session.na_model_built());
        let (cold, _) = CompileCache::new().get_or_compile(swapped).unwrap();
        assert!(
            second.session.na_model().unwrap().to_wire()
                == cold.session.na_model().unwrap().to_wire()
        );
        let family = second.session.stats();
        assert_eq!((family.na_builds, family.vm_compiles), (2, 1), "{family:?}");
        let stats = cache.stats();
        assert_eq!(stats.shape_hits, 1, "{stats:?}");
        assert_eq!(stats.hits, 1, "{stats:?}");
        assert_eq!(stats.misses, 1, "{stats:?}");
        assert_eq!(stats.entries, 2, "{stats:?}");

        // The swapped spelling is now cached in its own right.
        let (_, l2) = cache.get_or_compile(swapped).unwrap();
        assert_eq!(l2, Lookup::SourceHit);

        // A genuinely different shape misses.
        let reshaped = "input x in [-1, 1];\nlet k = 0.5;\noutput y = k*x + x;\n";
        assert_eq!(cache.get_or_compile(reshaped).unwrap().1, Lookup::Miss);
    }

    #[test]
    fn shape_hit_analyses_match_a_cold_compile() {
        let base = "input x in [-1, 1];\n\
                    x1 = delay x;\n\
                    x2 = delay x1;\n\
                    let a = 0.25;\n\
                    let b = 0.5;\n\
                    y = a*x + b*x1 + a*x2;\n\
                    output y;\n";
        let swapped = base.replace("0.25", "0.3").replace("0.5", "0.45");

        let warm = CompileCache::new();
        let (e0, _) = warm.get_or_compile(base).unwrap();
        e0.session.na_model().unwrap();
        let (via_shape, lookup) = warm.get_or_compile(&swapped).unwrap();
        assert_eq!(lookup, Lookup::ShapeHit);

        let cold = CompileCache::new();
        let (scratch, _) = cold.get_or_compile(&swapped).unwrap();

        let cfg_a = via_shape
            .session
            .wl_config(&sna_core::WlChoice::Uniform(12))
            .unwrap();
        let cfg_b = scratch
            .session
            .wl_config(&sna_core::WlChoice::Uniform(12))
            .unwrap();
        let a = via_shape
            .session
            .na_model()
            .unwrap()
            .evaluate(via_shape.session.dfg(), &cfg_a);
        let b = scratch
            .session
            .na_model()
            .unwrap()
            .evaluate(scratch.session.dfg(), &cfg_b);
        for ((n1, ra), (n2, rb)) in a.iter().zip(&b) {
            assert_eq!(n1, n2);
            let tol = 1e-12 * rb.variance.abs().max(1e-300);
            assert!(
                (ra.variance - rb.variance).abs() <= tol,
                "variance {} vs {}",
                ra.variance,
                rb.variance
            );
        }
    }

    /// A *structurally* distinct single-output program per index (the
    /// shapes differ, so none of these can shape-alias another).
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
    fn shape_donors_are_refreshed_by_swaps_and_cleaned_up_on_eviction() {
        let cache = CompileCache::with_limits(CacheLimits {
            max_entries: 4,
            ..CacheLimits::default()
        });
        let base = "input x in [-1, 1];\nlet k = 0.5;\noutput y = k*x;\n";
        let (donor, _) = cache.get_or_compile(base).unwrap();
        donor.session.na_model().unwrap();
        // Keep the donor hot through its shape tier only (coefficient
        // respins), while distinct programs churn the rest of the cache.
        for i in 1..=20 {
            let swapped = format!("input x in [-1, 1];\nlet k = 0.{i}1;\noutput y = k*x;\n");
            let (_, lookup) = cache.get_or_compile(&swapped).unwrap();
            assert!(lookup.is_hit(), "iteration {i}: {lookup:?}");
            cache.get_or_compile(&program(i)).unwrap();
        }
        // The donor was touched by every swap: still resident.
        assert!(cache.get_or_compile(base).unwrap().1.is_hit());

        // Push the donor out for real (no more touches) and verify the
        // shape tier was cleaned up: the next swap is a full compile.
        for i in 21..=40 {
            cache.get_or_compile(&program(i)).unwrap();
        }
        assert_eq!(cache.get_or_compile(base).unwrap().1, Lookup::Miss);
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

    #[test]
    fn compile_errors_are_reported_not_cached() {
        let cache = CompileCache::new();
        assert!(cache.get_or_compile("input x;\ny = ;\n").is_err());
        assert_eq!(cache.stats().entries, 0);
        assert_eq!(cache.stats().misses, 0);
    }

    // ------------------------------------------------------------------
    // Persistent tier
    // ------------------------------------------------------------------

    fn store_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("sna-cache-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn cache_on(dir: &std::path::Path) -> CompileCache {
        CompileCache::new().with_store(Arc::new(Store::open(dir).unwrap()))
    }

    /// Compile `source`, force every stage, spill — the state a drained
    /// server leaves behind. Returns the canonical fingerprint.
    fn seed(dir: &std::path::Path, source: &str) -> u64 {
        let cache = cache_on(dir);
        let (entry, lookup) = cache.get_or_compile(source).unwrap();
        assert_eq!(lookup, Lookup::Miss);
        entry.session.node_ranges().unwrap();
        entry.session.na_model().unwrap();
        let _ = entry.session.vm_program();
        assert!(cache.spill() >= 1);
        entry.fingerprint
    }

    #[test]
    fn warm_load_reuses_every_stored_stage() {
        let dir = store_dir("warm");
        seed(&dir, SRC);

        let cache = cache_on(&dir);
        let (entry, lookup) = cache.get_or_compile(SRC).unwrap();
        assert_eq!(lookup, Lookup::StoreHit);
        assert!(entry.session.na_model_built());
        assert!(entry.session.vm_program_built());
        let stats = entry.session.stats();
        assert_eq!(stats.range_builds, 0, "{stats:?}");
        assert_eq!(stats.na_builds, 0, "{stats:?}");
        assert_eq!(stats.vm_compiles, 0, "{stats:?}");
        assert!(cache.store().unwrap().stats().hits >= 1);

        // Now resident: the next lookup is a plain memory hit.
        assert_eq!(cache.get_or_compile(SRC).unwrap().1, Lookup::SourceHit);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn coefficient_respins_warm_load_through_the_shape_pointer() {
        let dir = store_dir("shape-ptr");
        let base = "input x in [-1, 1];\nlet k = 0.5;\noutput y = k*x;\n";
        seed(&dir, base);

        let swapped = "input x in [-1, 1];\nlet k = 0.25;\noutput y = k*x;\n";
        let cache = cache_on(&dir);
        let (entry, lookup) = cache.get_or_compile(swapped).unwrap();
        assert_eq!(lookup, Lookup::StoreHit);
        assert_eq!(entry.session.coefficients(), vec![0.25]);
        // The stored VM program rides along; the gains build cold.
        assert!(entry.session.vm_program_built());
        assert!(!entry.session.na_model_built());
        let (cold, _) = CompileCache::new().get_or_compile(swapped).unwrap();
        assert!(
            entry.session.na_model().unwrap().to_wire()
                == cold.session.na_model().unwrap().to_wire()
        );
        let stats = entry.session.stats();
        assert_eq!((stats.na_builds, stats.vm_compiles), (1, 0), "{stats:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn frame_level_corruption_recompiles_cleanly() {
        use std::io::{Read, Seek, SeekFrom, Write};
        // Three damage modes against the stored skeleton: truncation,
        // a payload bit-flip, and a format-version bump. Every one must
        // come back as a clean recompile with the corruption counted —
        // never a panic, never a stale artifact.
        for (mode, damage) in [("truncate", 0u8), ("bitflip", 1u8), ("version", 2u8)] {
            let dir = store_dir(&format!("corrupt-{mode}"));
            let fp = seed(&dir, SRC);
            let path = Store::open(&dir).unwrap().object_path(SKEL_KIND, fp);
            let mut f = std::fs::OpenOptions::new()
                .read(true)
                .write(true)
                .open(&path)
                .unwrap();
            match damage {
                0 => {
                    let len = f.metadata().unwrap().len();
                    f.set_len(len / 2).unwrap();
                }
                1 => {
                    let len = f.metadata().unwrap().len();
                    f.seek(SeekFrom::Start(len - 3)).unwrap();
                    let mut b = [0u8; 1];
                    f.read_exact(&mut b).unwrap();
                    f.seek(SeekFrom::Start(len - 3)).unwrap();
                    f.write_all(&[b[0] ^ 0x40]).unwrap();
                }
                _ => {
                    // Bytes 4..8 hold the little-endian format version.
                    f.seek(SeekFrom::Start(4)).unwrap();
                    f.write_all(&[0xFF, 0xFF, 0xFF, 0xFF]).unwrap();
                }
            }
            drop(f);

            let cache = cache_on(&dir);
            let (entry, lookup) = cache.get_or_compile(SRC).unwrap();
            assert_eq!(lookup, Lookup::Miss, "{mode}: must recompile");
            assert!(entry.session.dfg().is_linear());
            assert!(
                cache.store().unwrap().stats().corrupt >= 1,
                "{mode}: corruption must be counted"
            );
            // And the recompiled entry serves correctly from memory.
            assert_eq!(cache.get_or_compile(SRC).unwrap().1, Lookup::SourceHit);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn schema_level_corruption_is_discarded_not_trusted() {
        let dir = store_dir("schema");
        let fp = seed(&dir, SRC);
        {
            // A frame that passes magic/version/CRC but whose payload is
            // not a skeleton.
            let store = Store::open(&dir).unwrap();
            store
                .put(SKEL_KIND, fp, b"perfectly valid garbage")
                .unwrap();
        }
        let cache = cache_on(&dir);
        let (_, lookup) = cache.get_or_compile(SRC).unwrap();
        assert_eq!(lookup, Lookup::Miss);
        let store = cache.store().unwrap();
        assert!(store.stats().corrupt >= 1);
        // The poisoned object was dropped from the store entirely.
        assert!(store.get(SKEL_KIND, fp).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The skeleton `Session::export_wire` wrote while the NA stage was
    /// tag 1: the model carried a table of impulse-response sequences
    /// between its gains and its coefficient sites. Ranges and bytecode
    /// are left unbuilt (tag 0).
    fn tag1_skeleton(session: &Session) -> Vec<u8> {
        let dfg = session.dfg();
        let ranges = session.node_ranges().unwrap();
        let opts = sna_dfg::LtiOptions::default();
        let mut m = WireWriter::new();
        m.len(dfg.outputs().len());
        for (name, _) in dfg.outputs() {
            m.str(name);
        }
        let responses: Vec<_> = dfg
            .nodes()
            .map(|(id, _)| dfg.impulse_response(id, &opts).unwrap())
            .collect();
        m.len(responses.len());
        for (g, _) in &responses {
            m.u8(1);
            m.u64(g.source.index() as u64);
            m.len(g.per_output.len());
            for og in &g.per_output {
                m.f64(og.l1);
                m.f64(og.l2_squared);
                m.f64(og.dc);
            }
        }
        m.len(responses.len());
        for (_, seqs) in &responses {
            m.u8(1);
            m.len(seqs.len());
            for seq in seqs {
                m.len(seq.len());
                for &v in seq {
                    m.f64(v);
                }
            }
        }
        let sites = session.na_model().unwrap().coeff_sites().to_vec();
        m.len(sites.len());
        for cs in &sites {
            let sna_dfg::Op::Const(c) = dfg.node(cs.const_node()).op() else {
                panic!("coefficient sites name constants");
            };
            let args = dfg.node(cs.site()).args();
            let other = if args[0] == cs.const_node() {
                args[1]
            } else {
                args[0]
            };
            let r = ranges[other.index()];
            m.u64(cs.const_node().index() as u64);
            m.f64(c);
            m.u64(cs.site().index() as u64);
            m.u8(0); // a multiplier factor
            m.f64(r.mid());
            m.f64(r.rad());
        }

        let mut w = WireWriter::new();
        w.bytes(&dfg.to_wire());
        w.len(session.input_ranges().len());
        for r in session.input_ranges() {
            w.f64(r.lo());
            w.f64(r.hi());
        }
        w.u8(0);
        w.u8(1);
        w.bytes(&m.finish());
        w.u8(0);
        w.finish()
    }

    #[test]
    fn tag1_skeletons_are_discarded_and_recompiled() {
        let dir = store_dir("tag1");
        let fp = seed(&dir, SRC);
        let (canon, shape, seeded) = load_skeleton(&Store::open(&dir).unwrap(), fp).unwrap();
        let old = tag1_skeleton(&seeded);
        assert!(Session::import_wire(&old).is_err());
        {
            let mut w = WireWriter::new();
            w.str(&canon);
            w.str(&shape);
            w.bytes(&old);
            Store::open(&dir)
                .unwrap()
                .put(SKEL_KIND, fp, &w.finish())
                .unwrap();
        }

        let cache = cache_on(&dir);
        let (entry, lookup) = cache.get_or_compile(SRC).unwrap();
        assert_eq!(lookup, Lookup::Miss);
        let store = cache.store().unwrap();
        assert!(store.stats().corrupt >= 1);
        assert!(store.get(SKEL_KIND, fp).is_none());

        let req = sna_core::AnalysisRequest {
            engine: sna_core::EngineKind::Na,
            words: sna_core::WlChoice::Uniform(8),
            ..sna_core::AnalysisRequest::default()
        };
        let (fresh, _) = CompileCache::new().get_or_compile(SRC).unwrap();
        let a = entry.session.analyze(&req).unwrap();
        let b = fresh.session.analyze(&req).unwrap();
        for ((n1, ra), (n2, rb)) in a.reports.iter().zip(&b.reports) {
            assert_eq!(n1, n2);
            assert_eq!(ra.mean.to_bits(), rb.mean.to_bits());
            assert_eq!(ra.variance.to_bits(), rb.variance.to_bits());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn respill_overwrites_with_newly_built_stages() {
        let dir = store_dir("respill");
        // First spill with no stages forced: a later warm load imports
        // a cold skeleton and builds lazily.
        {
            let cache = cache_on(&dir);
            cache.get_or_compile(SRC).unwrap();
            assert!(cache.spill() >= 1);
        }
        {
            let cache = cache_on(&dir);
            let (entry, lookup) = cache.get_or_compile(SRC).unwrap();
            assert_eq!(lookup, Lookup::StoreHit);
            assert!(!entry.session.na_model_built());
            entry.session.na_model().unwrap();
            assert_eq!(entry.session.stats().na_builds, 1);
            assert!(cache.spill() >= 1);
        }
        // The respill carried the built model.
        let cache = cache_on(&dir);
        let (entry, lookup) = cache.get_or_compile(SRC).unwrap();
        assert_eq!(lookup, Lookup::StoreHit);
        assert!(entry.session.na_model_built());
        assert_eq!(entry.session.stats().na_builds, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
