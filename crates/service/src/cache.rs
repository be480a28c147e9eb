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
//!   exploration — pays parse + lower, then the cached entry adopts its
//!   freshly lowered graph ([`Session::adopt_graph`]): the new session
//!   shares the donor's VM program and builds ranges and the gain model
//!   cold, so its answers are a cold compile's bytes.
//!
//! A lookup that gets past the source tier builds each key once: one
//! parse and canonical rendering, and — past the canonical tier — one
//! lowering and one shape key, whose hash is the shape fingerprint.
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

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};

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
    /// Coefficient-normalized shape fingerprint: FNV-1a of
    /// [`Lowered::shape_key`].
    pub shape_fingerprint: u64,
}

impl CompiledEntry {
    /// Wraps an already compiled program (used both by the cache and by
    /// uncached single-shot paths that still want lazy artifact sharing).
    #[must_use]
    pub fn new(lowered: Lowered, fingerprint: u64) -> Self {
        let shape_fingerprint = fnv1a_64(lowered.shape_key().as_bytes());
        Self::from_session(cold_session(lowered), fingerprint, shape_fingerprint)
    }

    /// Wraps a compiled session whose shape fingerprint the caller
    /// already holds.
    fn from_session(session: Session, fingerprint: u64, shape_fingerprint: u64) -> Self {
        CompiledEntry {
            session: Arc::new(session),
            fingerprint,
            shape_fingerprint,
        }
    }
}

/// A fresh session over a lowered program.
fn cold_session(lowered: Lowered) -> Session {
    Session::new(lowered.dfg, lowered.input_ranges)
        .expect("lowering guarantees input/range consistency")
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
    /// The shape key this entry donates its skeleton under, when it is
    /// the registered donor (filed in `State::by_shape` under
    /// `entry.shape_fingerprint`).
    shape_key: Option<String>,
    /// The next less recently used slot, toward [`State::oldest`].
    older: Option<usize>,
    /// The next more recently used slot, toward [`State::newest`].
    newer: Option<usize>,
}

/// The maps, slots and counters behind the cache's lock.
///
/// Canonical renderings and shape keys are filed under their FNV-1a
/// fingerprints, which every lookup past the source tier computes
/// before it takes the lock; the slot keeps the full text, and a lookup
/// only matches when the text is equal. Two texts with one fingerprint
/// therefore never share an entry: the later one is served uncached
/// (and, for a shape, donates nothing), as the store treats such a
/// collision. The lock therefore never hashes a multi-kilobyte key
/// except the raw source text, the fast path's key.
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
    /// Shape fingerprint (of [`Lowered::shape_key`]) → slot of the
    /// skeleton donor for coefficient swaps (the first entry compiled
    /// with each shape, replaced when it is evicted).
    by_shape: HashMap<u64, usize>,
    /// The slots, indexed by the maps; `None` marks a free index.
    slots: Vec<Option<Slot>>,
    /// Free indices of `slots`, reused before the vector grows.
    free: Vec<usize>,
    /// The least recently used live slot: the next eviction victim.
    oldest: Option<usize>,
    /// The most recently used live slot.
    newest: Option<usize>,
    /// Total bytes across all key texts (sources, canonical renderings,
    /// shape keys), compared against [`CacheLimits::max_key_bytes`].
    key_bytes: usize,
    hits: u64,
    shape_hits: u64,
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

    /// The donor slot of shape `shape_key` (with fingerprint
    /// `fingerprint`), marked as just used.
    fn touch_shape(&mut self, fingerprint: u64, shape_key: &str) -> Option<Arc<CompiledEntry>> {
        let i = *self.by_shape.get(&fingerprint)?;
        (self.slot(i).shape_key.as_deref() == Some(shape_key)).then(|| self.touch(i))
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
        if let Some(shape_key) = &slot.shape_key {
            self.by_shape.remove(&slot.entry.shape_fingerprint);
            self.key_bytes = self.key_bytes.saturating_sub(shape_key.len());
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
            shape_key: None,
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

    /// Registers slot `i` as the donor for its shape, `shape_key`
    /// (first occupant of the fingerprint wins), while it fits the byte
    /// budget.
    fn register_shape(&mut self, shape_key: String, i: usize, limits: &CacheLimits) {
        if self.key_bytes.saturating_add(shape_key.len()) > limits.max_key_bytes {
            return;
        }
        let fingerprint = self.slot(i).entry.shape_fingerprint;
        if let Entry::Vacant(vacant) = self.by_shape.entry(fingerprint) {
            vacant.insert(i);
            self.key_bytes += shape_key.len();
            self.slot_mut(i).shape_key = Some(shape_key);
        }
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
        let incoming = canon.len() + source.len();
        let shape_key = lowered.shape_key();
        let shape_fingerprint = fnv1a_64(shape_key.as_bytes());

        // Shape tier: a cached program with the same const-masked shape
        // adopts this one's lowered graph — its VM program is shared,
        // ranges and gains build cold on first use. Serving a swap *uses*
        // the donor, so its recency is refreshed: a hot skeleton under a
        // parameter sweep outlives streams of one-off programs.
        let donor = self.lock().touch_shape(shape_fingerprint, &shape_key);
        if let Some(donor) = donor {
            let session = donor.session.adopt_graph(lowered.dfg);
            let entry = Arc::new(CompiledEntry::from_session(
                session,
                fingerprint,
                shape_fingerprint,
            ));
            let mut state = self.lock();
            state.hits += 1;
            // Never evict on this path: evicting here would let an
            // attacker stream coefficient respins of one cached shape
            // to push out every other client's compiled programs.
            // Past a limit the variant is served but simply stays
            // unregistered.
            if state.by_canon.len() >= self.limits.max_entries
                || state.key_bytes.saturating_add(incoming) > self.limits.max_key_bytes
            {
                state.shape_hits += 1;
                return Ok((entry, Lookup::ShapeHit));
            }
            if let Some((slot, existing)) = state.touch_canon(fingerprint, &canon) {
                // A racer registered the identical program meanwhile;
                // share its entry.
                state.insert_source(source_key, slot);
                return Ok((existing, Lookup::CanonHit));
            }
            if let Some(slot) = state.insert_slot(canon, entry.clone()) {
                state.insert_source(source_key, slot);
            }
            state.shape_hits += 1;
            return Ok((entry, Lookup::ShapeHit));
        }

        // Persistent tier: a previous process may have spilled this
        // program's (or its shape's) compiled skeleton to disk.
        let (session, lookup) = match self.store_warm_load(
            &canon,
            fingerprint,
            &shape_key,
            shape_fingerprint,
            &lowered,
        ) {
            Some(session) => (session, Lookup::StoreHit),
            None => (cold_session(lowered), Lookup::Miss),
        };
        let entry = Arc::new(CompiledEntry::from_session(
            session,
            fingerprint,
            shape_fingerprint,
        ));
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
        // A warm load takes a full slot, exactly like a compile would
        // have (the peer paid a compile for it once).
        let evicted = state.make_room(&self.limits, incoming);
        if let Some(slot) = state.insert_slot(canon, entry.clone()) {
            state.insert_source(source_key, slot);
            // Register the new shape's skeleton donor (first occupant
            // wins) while it fits the byte budget.
            state.register_shape(shape_key, slot, &self.limits);
        }
        match lookup {
            Lookup::Miss => state.misses += 1,
            _ => state.hits += 1,
        }
        // Free the evicted sessions without holding up other lookups.
        drop(state);
        drop(evicted);
        Ok((entry, lookup))
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
        type SpillRow = (String, Option<String>, Arc<CompiledEntry>);
        let snapshot: Vec<SpillRow> = {
            let state = self.lock();
            state
                .slots
                .iter()
                .flatten()
                .map(|slot| {
                    (
                        slot.canon.clone(),
                        slot.shape_key.clone(),
                        slot.entry.clone(),
                    )
                })
                .collect()
        };
        let mut written = 0;
        for (canon, shape_key, entry) in snapshot {
            let mut w = WireWriter::new();
            w.str(&canon);
            w.str(shape_key.as_deref().unwrap_or_default());
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
        let state = self.lock();
        CacheStats {
            hits: state.hits,
            shape_hits: state.shape_hits,
            misses: state.misses,
            entries: state.by_canon.len(),
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

    /// The eviction policy as a scan: each slot carries the tick of its
    /// last use and the victim is the minimum, the way the cache picked
    /// it before it kept a recency list. Mirrors `get_or_compile`
    /// without a store.
    #[derive(Default)]
    struct ScanModel {
        /// Source → canonical text.
        by_source: HashMap<String, String>,
        /// Canonical text → (last use, aliases, donated shape key).
        slots: HashMap<String, (u64, Vec<String>, Option<String>)>,
        /// Shape key → canonical text of its donor.
        by_shape: HashMap<String, String>,
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
            self.slots
                .insert(canon.into(), (self.tick, Vec::new(), None));
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
            let shape = sna_lang::lower(&program).unwrap().shape_key();
            if let Some(donor) = self.by_shape.get(&shape).cloned() {
                assert!(self.touch(&donor));
                self.stats.hits += 1;
                self.stats.shape_hits += 1;
                if self.slots.len() < limits.max_entries
                    && fits(self.key_bytes, canon.len() + source.len())
                {
                    self.insert(source, &canon);
                }
                return Lookup::ShapeHit;
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
                let (_, aliases, shape) = self.slots.remove(&victim).unwrap();
                self.key_bytes -= victim.len();
                for alias in aliases {
                    self.by_source.remove(&alias);
                    self.key_bytes -= alias.len();
                }
                if let Some(shape) = shape {
                    self.by_shape.remove(&shape);
                    self.key_bytes -= shape.len();
                }
                self.stats.evictions += 1;
            }
            self.insert(source, &canon);
            if !self.by_shape.contains_key(&shape) && fits(self.key_bytes, shape.len()) {
                self.key_bytes += shape.len();
                self.slots.get_mut(&canon).unwrap().2 = Some(shape.clone());
                self.by_shape.insert(shape, canon);
            }
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
