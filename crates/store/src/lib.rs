//! Disk-backed, content-addressed artifact store.
//!
//! The optimizer's Pareto sweep and the trace fitter keep results that
//! cost real time to recompute: a killed sweep would restart from zero.
//! This crate is where they persist — a directory of versioned,
//! CRC-framed objects keyed by 64-bit hashes of what produced them:
//!
//! ```text
//! <store-dir>/
//!   index                      # text index: size + LRU tick per object
//!   objects/<kind>/<key>.obj   # key rendered as 16 lowercase hex digits
//! ```
//!
//! Object **kinds** partition the key space (`pareto-ckpt` sweep
//! checkpoints keyed by the sweep spec hash, `tracefit` fitted input
//! ranges keyed by program fingerprint ⊕ trace hash — the store itself
//! is payload-agnostic and just moves bytes). Compiled models are not
//! stored: a cold compile is cheaper than a load.
//!
//! Every object is framed as
//!
//! ```text
//! magic "SNAS" · format version (u32 LE) · payload length (u64 LE)
//! · CRC-32 of payload (u32 LE) · payload
//! ```
//!
//! and every failure mode degrades the same way: a load that fails the
//! magic/version/length/CRC check (or any I/O error past "file not
//! found") counts as **corrupt**, deletes the object, and returns
//! `None` — the caller recomputes, the store never panics and never
//! serves a stale or damaged artifact. Writes are atomic
//! (unique tmp file + `rename`), so a crash mid-write leaves either the
//! old object or none, never a torn frame under a live key.
//!
//! The index file makes `ls`/`gc`/`verify` cheap: it records each
//! object's size and a monotone last-use tick, giving
//! [`Store::gc`] its size-budgeted LRU eviction order. The index is
//! advisory — if it is missing or damaged it is rebuilt by scanning the
//! objects directory (ticks reset, nothing is lost).
//!
//! Serialization of the artifacts themselves lives with their owners
//! (checkpoints in `sna-opt`, fitted ranges in the `sna trace` command),
//! both built on the shared [`wire`] primitives so the whole on-disk
//! format follows one set of encoding rules.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod wire;

pub use wire::{WireError, WireReader, WireWriter};

use std::collections::BTreeMap;
use std::fs;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// The four bytes opening every stored object.
pub const MAGIC: [u8; 4] = *b"SNAS";

/// The on-disk frame format version. Bumping it invalidates every
/// existing object (they all degrade to a clean recompute).
pub const FORMAT_VERSION: u32 = 1;

/// Frame header bytes: magic + version + payload length + CRC.
const HEADER_BYTES: usize = 4 + 4 + 8 + 4;

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB8_8320`) over a byte
/// slice — the payload checksum in every object frame.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    const TABLE: [u32; 256] = {
        let mut table = [0u32; 256];
        let mut i = 0;
        while i < 256 {
            let mut c = i as u32;
            let mut k = 0;
            while k < 8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
                k += 1;
            }
            table[i] = c;
            i += 1;
        }
        table
    };
    let mut c = !0u32;
    for &b in bytes {
        c = TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// FNV-1a 64-bit hash — the store-key derivation hash for callers that
/// key objects by a canonical text (the same function the language
/// layer uses for program fingerprints, so keys agree across layers).
///
/// Keys derived this way can collide; store payloads therefore embed
/// the full text they were keyed by, and loaders treat a text mismatch
/// as a plain miss.
#[must_use]
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A point-in-time snapshot of the store's lifetime counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Objects loaded and verified successfully.
    pub hits: u64,
    /// Lookups for keys with no stored object.
    pub misses: u64,
    /// Objects written.
    pub writes: u64,
    /// Loads that failed verification (bad magic/version/CRC, short
    /// file, I/O error) — each one also deleted the offending object.
    pub corrupt: u64,
}

/// One row of [`Store::ls`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ObjectInfo {
    /// Object kind (subdirectory name).
    pub kind: String,
    /// Content key (fingerprint).
    pub key: u64,
    /// On-disk size in bytes, frame header included.
    pub size: u64,
    /// Last-use tick (higher = more recent).
    pub tick: u64,
}

/// The outcome of a [`Store::gc`] pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Objects surviving the pass.
    pub kept: u64,
    /// Objects evicted (least-recently used first).
    pub removed: u64,
    /// Bytes freed by eviction.
    pub freed_bytes: u64,
    /// Bytes still stored after the pass.
    pub kept_bytes: u64,
}

/// The outcome of a [`Store::verify`] pass.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct VerifyReport {
    /// Objects that passed the magic/version/CRC check.
    pub ok: u64,
    /// Objects that failed it (deleted when `repair` was set).
    pub corrupt: Vec<ObjectInfo>,
}

#[derive(Clone, Copy, Debug)]
struct Entry {
    size: u64,
    tick: u64,
}

#[derive(Debug, Default)]
struct Index {
    tick: u64,
    entries: BTreeMap<(String, u64), Entry>,
}

impl Index {
    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    fn total_bytes(&self) -> u64 {
        self.entries.values().map(|e| e.size).sum()
    }
}

/// The store handle. Cheap to share behind an `Arc`; all operations
/// take `&self` and are thread-safe (one internal mutex serializes
/// index mutation, counters are atomics).
#[derive(Debug)]
pub struct Store {
    root: PathBuf,
    index: Mutex<Index>,
    tmp_seq: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    writes: AtomicU64,
    corrupt: AtomicU64,
}

impl Store {
    /// Opens (creating if necessary) a store rooted at `dir`. A
    /// missing or damaged index file is rebuilt by scanning the
    /// objects directory.
    ///
    /// # Errors
    ///
    /// I/O errors creating the directory tree or scanning it.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<Store> {
        let root = dir.as_ref().to_path_buf();
        fs::create_dir_all(root.join("objects"))?;
        let index = match load_index(&root) {
            Some(idx) => idx,
            None => scan_objects(&root)?,
        };
        Ok(Store {
            root,
            index: Mutex::new(index),
            tmp_seq: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            corrupt: AtomicU64::new(0),
        })
    }

    /// The store's root directory.
    #[must_use]
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The path holding (or that would hold) one object — exposed so
    /// tests can damage objects deliberately.
    #[must_use]
    pub fn object_path(&self, kind: &str, key: u64) -> PathBuf {
        self.root.join("objects").join(kind).join(object_file(key))
    }

    /// Writes one object atomically (unique tmp file + `rename`),
    /// replacing any previous object under the same `(kind, key)`.
    ///
    /// # Errors
    ///
    /// I/O errors writing; an invalid `kind` (anything but
    /// `[a-z0-9_-]`) is rejected as [`io::ErrorKind::InvalidInput`].
    pub fn put(&self, kind: &str, key: u64, payload: &[u8]) -> io::Result<()> {
        check_kind(kind)?;
        let frame = frame(payload);
        let dir = self.root.join("objects").join(kind);
        fs::create_dir_all(&dir)?;
        let tmp = dir.join(format!(
            ".tmp-{}-{}",
            std::process::id(),
            self.tmp_seq.fetch_add(1, Ordering::Relaxed)
        ));
        // Write-all then rename: a crash leaves the old object (or no
        // object), never a torn frame under the live name.
        let mut f = fs::File::create(&tmp)?;
        let written = f.write_all(&frame).and_then(|()| f.sync_all());
        drop(f);
        if let Err(e) = written {
            let _ = fs::remove_file(&tmp);
            return Err(e);
        }
        fs::rename(&tmp, dir.join(object_file(key)))?;
        self.writes.fetch_add(1, Ordering::Relaxed);

        let mut idx = self.index.lock().unwrap();
        let tick = idx.next_tick();
        idx.entries.insert(
            (kind.to_string(), key),
            Entry {
                size: frame.len() as u64,
                tick,
            },
        );
        persist_index(&self.root, &idx);
        Ok(())
    }

    /// Loads and verifies one object's payload.
    ///
    /// `None` means either *miss* (no such object) or *corrupt* (frame
    /// failed verification — the object is deleted so the next write
    /// starts clean); the two are distinguished only in [`Self::stats`].
    /// Callers recompute on `None`; this can never panic or return
    /// damaged bytes.
    #[must_use]
    pub fn get(&self, kind: &str, key: u64) -> Option<Vec<u8>> {
        let path = self.object_path(kind, key);
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
            Err(_) => {
                self.discard_corrupt(kind, key, &path);
                return None;
            }
        };
        match unframe(&bytes) {
            Ok(payload) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                let mut idx = self.index.lock().unwrap();
                let tick = idx.next_tick();
                idx.entries
                    .entry((kind.to_string(), key))
                    .and_modify(|e| e.tick = tick)
                    .or_insert(Entry {
                        size: bytes.len() as u64,
                        tick,
                    });
                Some(payload)
            }
            Err(_) => {
                self.discard_corrupt(kind, key, &path);
                None
            }
        }
    }

    /// Reports a corrupt object: counts it, deletes the file, drops the
    /// index entry. Public so callers that decode *payloads* (and find
    /// them schema-corrupt even though the CRC passed) degrade the same
    /// way a frame failure does.
    pub fn discard(&self, kind: &str, key: u64) {
        let path = self.object_path(kind, key);
        self.discard_corrupt(kind, key, &path);
    }

    fn discard_corrupt(&self, kind: &str, key: u64, path: &Path) {
        self.corrupt.fetch_add(1, Ordering::Relaxed);
        let _ = fs::remove_file(path);
        let mut idx = self.index.lock().unwrap();
        if idx.entries.remove(&(kind.to_string(), key)).is_some() {
            persist_index(&self.root, &idx);
        }
    }

    /// Every stored object, sorted by `(kind, key)`.
    #[must_use]
    pub fn ls(&self) -> Vec<ObjectInfo> {
        let idx = self.index.lock().unwrap();
        idx.entries
            .iter()
            .map(|((kind, key), e)| ObjectInfo {
                kind: kind.clone(),
                key: *key,
                size: e.size,
                tick: e.tick,
            })
            .collect()
    }

    /// Total stored bytes (frame headers included).
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.index.lock().unwrap().total_bytes()
    }

    /// Evicts least-recently-used objects until the store fits
    /// `budget_bytes`. Recency is the index tick: bumped on every
    /// write and every verified load in this process, persisted with
    /// the index, so warm objects survive across restarts too.
    ///
    /// # Errors
    ///
    /// None in practice — file deletion failures are ignored (the next
    /// pass retries); the signature reserves the right to report them.
    pub fn gc(&self, budget_bytes: u64) -> io::Result<GcReport> {
        let mut idx = self.index.lock().unwrap();
        let mut total = idx.total_bytes();
        let mut order: Vec<((String, u64), Entry)> =
            idx.entries.iter().map(|(k, e)| (k.clone(), *e)).collect();
        // Oldest tick first; (kind, key) breaks ties deterministically.
        order.sort_by(|a, b| (a.1.tick, &a.0).cmp(&(b.1.tick, &b.0)));
        let mut report = GcReport::default();
        for ((kind, key), e) in order {
            if total <= budget_bytes {
                break;
            }
            let _ = fs::remove_file(self.object_path(&kind, key));
            idx.entries.remove(&(kind, key));
            total -= e.size;
            report.removed += 1;
            report.freed_bytes += e.size;
        }
        report.kept = idx.entries.len() as u64;
        report.kept_bytes = total;
        persist_index(&self.root, &idx);
        Ok(report)
    }

    /// Re-verifies every object frame on disk. With `repair` set,
    /// corrupt objects are deleted (and counted in [`Self::stats`]);
    /// otherwise they are only reported.
    #[must_use]
    pub fn verify(&self, repair: bool) -> VerifyReport {
        let mut report = VerifyReport::default();
        for info in self.ls() {
            let path = self.object_path(&info.kind, info.key);
            let ok = fs::read(&path)
                .ok()
                .is_some_and(|bytes| unframe(&bytes).is_ok());
            if ok {
                report.ok += 1;
            } else {
                if repair {
                    self.discard_corrupt(&info.kind, info.key, &path);
                }
                report.corrupt.push(info);
            }
        }
        report
    }

    /// A snapshot of the lifetime counters.
    #[must_use]
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            corrupt: self.corrupt.load(Ordering::Relaxed),
        }
    }
}

fn object_file(key: u64) -> String {
    format!("{key:016x}.obj")
}

fn check_kind(kind: &str) -> io::Result<()> {
    let ok = !kind.is_empty()
        && kind.len() <= 32
        && kind
            .bytes()
            .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_' || b == b'-');
    if ok {
        Ok(())
    } else {
        Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("invalid object kind `{kind}`"),
        ))
    }
}

/// Wraps a payload in the on-disk frame.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(HEADER_BYTES + payload.len());
    buf.extend_from_slice(&MAGIC);
    buf.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    buf.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    buf.extend_from_slice(&crc32(payload).to_le_bytes());
    buf.extend_from_slice(payload);
    buf
}

/// Verifies a frame and returns its payload.
fn unframe(bytes: &[u8]) -> Result<Vec<u8>, WireError> {
    if bytes.len() < HEADER_BYTES {
        return Err(WireError::new("short frame"));
    }
    if bytes[..4] != MAGIC {
        return Err(WireError::new("bad magic"));
    }
    let version = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
    if version != FORMAT_VERSION {
        return Err(WireError::new(format!("unsupported version {version}")));
    }
    let len = u64::from_le_bytes([
        bytes[8], bytes[9], bytes[10], bytes[11], bytes[12], bytes[13], bytes[14], bytes[15],
    ]);
    let crc = u32::from_le_bytes([bytes[16], bytes[17], bytes[18], bytes[19]]);
    let payload = &bytes[HEADER_BYTES..];
    if payload.len() as u64 != len {
        return Err(WireError::new("payload length mismatch"));
    }
    if crc32(payload) != crc {
        return Err(WireError::new("CRC mismatch"));
    }
    Ok(payload.to_vec())
}

const INDEX_HEADER: &str = "snastore-index v1";

fn persist_index(root: &Path, idx: &Index) {
    let mut text = format!("{INDEX_HEADER}\ntick {}\n", idx.tick);
    for ((kind, key), e) in &idx.entries {
        text.push_str(&format!("{kind} {key:016x} {} {}\n", e.size, e.tick));
    }
    // Best-effort and atomic: the index is advisory (rebuildable by
    // scan), so a failed persist degrades recency, never correctness.
    let tmp = root.join(".index.tmp");
    if fs::write(&tmp, &text).is_ok() {
        let _ = fs::rename(&tmp, root.join("index"));
    }
}

fn load_index(root: &Path) -> Option<Index> {
    let mut text = String::new();
    fs::File::open(root.join("index"))
        .ok()?
        .read_to_string(&mut text)
        .ok()?;
    let mut lines = text.lines();
    if lines.next()? != INDEX_HEADER {
        return None;
    }
    let tick = lines.next()?.strip_prefix("tick ")?.parse().ok()?;
    let mut entries = BTreeMap::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split(' ');
        let kind = parts.next()?.to_string();
        let key = u64::from_str_radix(parts.next()?, 16).ok()?;
        let size = parts.next()?.parse().ok()?;
        let entry_tick = parts.next()?.parse().ok()?;
        if parts.next().is_some() {
            return None;
        }
        entries.insert(
            (kind, key),
            Entry {
                size,
                tick: entry_tick,
            },
        );
    }
    Some(Index { tick, entries })
}

/// Rebuilds the index by scanning `objects/` (sizes from the
/// filesystem, recency reset).
fn scan_objects(root: &Path) -> io::Result<Index> {
    let mut entries = BTreeMap::new();
    let objects = root.join("objects");
    for kind_dir in fs::read_dir(&objects)? {
        let kind_dir = kind_dir?;
        if !kind_dir.file_type()?.is_dir() {
            continue;
        }
        let kind = kind_dir.file_name().to_string_lossy().into_owned();
        if check_kind(&kind).is_err() {
            continue;
        }
        for obj in fs::read_dir(kind_dir.path())? {
            let obj = obj?;
            let name = obj.file_name().to_string_lossy().into_owned();
            let Some(hex) = name.strip_suffix(".obj") else {
                continue;
            };
            let Ok(key) = u64::from_str_radix(hex, 16) else {
                continue;
            };
            entries.insert(
                (kind.clone(), key),
                Entry {
                    size: obj.metadata()?.len(),
                    tick: 0,
                },
            );
        }
    }
    Ok(Index { tick: 0, entries })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_store(tag: &str) -> (PathBuf, Store) {
        let dir = std::env::temp_dir().join(format!("sna-store-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = Store::open(&dir).unwrap();
        (dir, store)
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The standard IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn put_get_round_trips_and_counts() {
        let (dir, store) = temp_store("roundtrip");
        assert_eq!(store.get("tracefit", 7), None);
        store.put("tracefit", 7, b"hello artifact").unwrap();
        assert_eq!(store.get("tracefit", 7).unwrap(), b"hello artifact");
        store.put("tracefit", 7, b"replaced").unwrap();
        assert_eq!(store.get("tracefit", 7).unwrap(), b"replaced");
        let s = store.stats();
        assert_eq!((s.hits, s.misses, s.writes, s.corrupt), (2, 1, 2, 0));
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn survives_reopen_via_the_index() {
        let (dir, store) = temp_store("reopen");
        store.put("tracefit", 1, b"one").unwrap();
        store.put("ckpt", 2, b"two").unwrap();
        drop(store);
        let store = Store::open(&dir).unwrap();
        assert_eq!(store.get("tracefit", 1).unwrap(), b"one");
        assert_eq!(store.get("ckpt", 2).unwrap(), b"two");
        assert_eq!(store.ls().len(), 2);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn damaged_index_is_rebuilt_by_scanning() {
        let (dir, store) = temp_store("index-rebuild");
        store.put("tracefit", 0xABCD, b"payload").unwrap();
        drop(store);
        fs::write(dir.join("index"), "not an index at all").unwrap();
        let store = Store::open(&dir).unwrap();
        assert_eq!(store.get("tracefit", 0xABCD).unwrap(), b"payload");
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn truncation_bitflip_and_version_bump_all_degrade_to_misses() {
        let (dir, store) = temp_store("corruption");
        for (i, damage) in [0usize, 1, 2].into_iter().enumerate() {
            let key = 100 + i as u64;
            store.put("tracefit", key, b"precious bytes").unwrap();
            let path = store.object_path("tracefit", key);
            let mut bytes = fs::read(&path).unwrap();
            match damage {
                // Truncate mid-payload.
                0 => bytes.truncate(bytes.len() - 3),
                // Flip one payload bit.
                1 => {
                    let n = bytes.len();
                    bytes[n - 1] ^= 0x40;
                }
                // Bump the format version.
                _ => bytes[4] = bytes[4].wrapping_add(1),
            }
            fs::write(&path, &bytes).unwrap();
            assert_eq!(store.get("tracefit", key), None, "damage mode {damage}");
            // The object is gone; the next load is a plain miss.
            assert!(!path.exists());
            assert_eq!(store.get("tracefit", key), None);
        }
        let s = store.stats();
        assert_eq!(s.corrupt, 3);
        assert_eq!(s.misses, 3);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn bad_magic_is_corrupt() {
        let (dir, store) = temp_store("magic");
        store.put("tracefit", 5, b"x").unwrap();
        let path = store.object_path("tracefit", 5);
        let mut bytes = fs::read(&path).unwrap();
        bytes[0] = b'X';
        fs::write(&path, &bytes).unwrap();
        assert_eq!(store.get("tracefit", 5), None);
        assert_eq!(store.stats().corrupt, 1);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn gc_evicts_least_recently_used_first() {
        let (dir, store) = temp_store("gc");
        let payload = vec![0u8; 100];
        for key in 0..5u64 {
            store.put("tracefit", key, &payload).unwrap();
        }
        // Touch 0 and 3 so they are the most recent.
        assert!(store.get("tracefit", 0).is_some());
        assert!(store.get("tracefit", 3).is_some());
        let per_object = 100 + HEADER_BYTES as u64;
        let report = store.gc(2 * per_object).unwrap();
        assert_eq!(report.removed, 3);
        assert_eq!(report.kept, 2);
        assert_eq!(report.kept_bytes, 2 * per_object);
        let kept: Vec<u64> = store.ls().iter().map(|o| o.key).collect();
        assert_eq!(kept, vec![0, 3]);
        // A zero budget clears the store.
        let report = store.gc(0).unwrap();
        assert_eq!(report.kept, 0);
        assert_eq!(store.total_bytes(), 0);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn verify_reports_and_optionally_repairs() {
        let (dir, store) = temp_store("verify");
        store.put("tracefit", 1, b"good").unwrap();
        store.put("tracefit", 2, b"bad").unwrap();
        let path = store.object_path("tracefit", 2);
        let mut bytes = fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 1] ^= 1;
        fs::write(&path, &bytes).unwrap();

        let report = store.verify(false);
        assert_eq!(report.ok, 1);
        assert_eq!(report.corrupt.len(), 1);
        assert_eq!(report.corrupt[0].key, 2);
        assert!(path.exists(), "verify without repair keeps the file");

        let report = store.verify(true);
        assert_eq!(report.corrupt.len(), 1);
        assert!(!path.exists(), "repair deletes it");
        assert_eq!(store.verify(true).corrupt.len(), 0);
        assert_eq!(store.stats().corrupt, 1);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn invalid_kinds_are_rejected() {
        let (dir, store) = temp_store("kinds");
        assert!(store.put("../escape", 1, b"x").is_err());
        assert!(store.put("", 1, b"x").is_err());
        assert!(store.put("UPPER", 1, b"x").is_err());
        assert!(store.put("ok-kind_2", 1, b"x").is_ok());
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn concurrent_writers_and_readers_stay_consistent() {
        let (dir, store) = temp_store("concurrent");
        let store = std::sync::Arc::new(store);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let store = std::sync::Arc::clone(&store);
                s.spawn(move || {
                    for i in 0..25u64 {
                        let key = t * 100 + i;
                        store.put("tracefit", key, &key.to_le_bytes()).unwrap();
                        assert_eq!(store.get("tracefit", key).unwrap(), key.to_le_bytes());
                    }
                });
            }
        });
        assert_eq!(store.ls().len(), 100);
        assert_eq!(store.stats().corrupt, 0);
        let _ = fs::remove_dir_all(dir);
    }
}
