//! The memoized evaluation cache.
//!
//! An [`EvalCache`] maps a canonical [`Digest`] of one
//! `(configuration, mode assignment)` pair to its measured
//! [`EnergyDelay`]. The explorer consults it before every analytical-
//! model simulation, so revisited assignments (hill-climb backtracks,
//! restart overlap, the greedy baseline's trajectory) cost a hash
//! lookup instead of a simulation.
//!
//! The cache also persists: [`EvalCache::save`] serializes every
//! entry with the `uecgra-probe` canonical JSON writer, entries
//! sorted by key, floats in shortest-round-trip form — so the file's
//! bytes are a pure function of its contents (no insertion-order or
//! thread-count residue), and a warm rerun re-reads *exactly* the
//! floats it wrote.
//!
//! A save with nothing new to write does not write. The cache
//! remembers the file it last matched (path, length and modification
//! time, recorded by [`EvalCache::load`] and by every write) and
//! whether any entry was added or changed since. Saving a clean cache
//! back to that unchanged file is a no-op, so a fully-warm rerun
//! leaves its cache file's bytes *and* mtime alone. Any other save
//! writes the canonical rendering: a new entry, a different path, a
//! file edited or removed on disk, or a cache that never came from a
//! file. One consequence: a hand-formatted file that loads cleanly is
//! left as it is, not re-canonicalised, until something is added.
//!
//! The stamp also holds the file's inode (on Unix), so a file another
//! process replaced by rename is always seen. One change goes unseen:
//! another writer rewriting the same file in place, to the same
//! length, within one tick of the filesystem's mtime clock (a few
//! milliseconds on Linux). The skipped save then leaves that writer's
//! file in place, and entries this run loaded that it lacks must be
//! measured again by a later run. Nothing wrong is ever read back.

use crate::key::{Digest, DigestMap};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::SystemTime;
use uecgra_model::EnergyDelay;
use uecgra_probe::Json;

/// Version stamp of the on-disk cache format.
pub const CACHE_FORMAT_VERSION: u64 = 1;

/// In-memory (optionally disk-backed) memo table keyed by canonical
/// digests.
#[derive(Debug, Default)]
pub struct EvalCache {
    table: Mutex<Table>,
    hits: AtomicU64,
    misses: AtomicU64,
}

#[derive(Debug, Default)]
struct Table {
    entries: DigestMap<EnergyDelay>,
    /// The file these entries last matched; cleared by any insert
    /// that adds or changes an entry.
    synced: Option<FileStamp>,
}

/// What identifies one version of a cache file on disk.
#[derive(Debug, Clone, PartialEq, Eq)]
struct FileStamp {
    path: PathBuf,
    /// The file's inode on Unix (0 elsewhere), so a file replaced by
    /// rename never matches, however close its mtime.
    inode: u64,
    len: u64,
    modified: SystemTime,
}

impl FileStamp {
    fn new(path: &str, meta: &std::fs::Metadata) -> Option<FileStamp> {
        #[cfg(unix)]
        let inode = std::os::unix::fs::MetadataExt::ino(meta);
        #[cfg(not(unix))]
        let inode = 0;
        Some(FileStamp {
            path: path.into(),
            inode,
            len: meta.len(),
            modified: meta.modified().ok()?,
        })
    }

    /// The stamp of `path` as it is on disk now, if it exists.
    fn of(path: &str) -> Option<FileStamp> {
        FileStamp::new(path, &std::fs::metadata(path).ok()?)
    }
}

impl EvalCache {
    /// An empty cache.
    pub fn new() -> EvalCache {
        EvalCache::default()
    }

    fn table(&self) -> std::sync::MutexGuard<'_, Table> {
        self.table.lock().expect("cache lock")
    }

    /// Look up a key, counting a hit or a miss.
    pub fn lookup(&self, key: Digest) -> Option<EnergyDelay> {
        let found = self.table().entries.get(&key.as_u128()).copied();
        match found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Insert (or overwrite — measurements are deterministic, so a
    /// duplicate insert always carries the same value).
    pub fn insert(&self, key: Digest, value: EnergyDelay) {
        let mut table = self.table();
        if table.entries.insert(key.as_u128(), value) != Some(value) {
            table.synced = None;
        }
    }

    /// Number of memoized entries.
    pub fn len(&self) -> usize {
        self.table().entries.len()
    }

    /// True when no entry is memoized.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups that found an entry.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that missed.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Hit fraction of all lookups so far (0 when none were made).
    pub fn hit_rate(&self) -> f64 {
        let h = self.hits() as f64;
        let m = self.misses() as f64;
        if h + m == 0.0 {
            0.0
        } else {
            h / (h + m)
        }
    }

    /// Serialize to the canonical on-disk document (entries sorted by
    /// key, so the rendering is independent of insertion order).
    pub fn to_json(&self) -> Json {
        render_entries(&self.table().entries)
    }

    /// Write the cache to `path` in canonical form, unless the cache
    /// is clean and `path` is the unchanged file it last matched (see
    /// the module doc). Returns whether the file was written.
    ///
    /// # Errors
    ///
    /// Returns the I/O error text.
    pub fn save(&self, path: &str) -> Result<bool, String> {
        let mut table = self.table();
        if table.synced.is_some() && table.synced == FileStamp::of(path) {
            return Ok(false);
        }
        std::fs::write(path, render_entries(&table.entries).render())
            .map_err(|e| format!("writing {path}: {e}"))?;
        table.synced = FileStamp::of(path);
        Ok(true)
    }

    /// Parse a cache document previously produced by
    /// [`to_json`](EvalCache::to_json).
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed field.
    pub fn from_json(doc: &Json) -> Result<EvalCache, String> {
        let version = doc
            .get("cache_format_version")
            .and_then(Json::as_u64)
            .ok_or("missing cache_format_version")?;
        if version != CACHE_FORMAT_VERSION {
            return Err(format!("unsupported cache format version {version}"));
        }
        let fields = match doc.get("entries") {
            Some(Json::Object(fields)) => fields,
            _ => return Err("`entries` must be an object".into()),
        };
        let mut entries = DigestMap::with_capacity_and_hasher(fields.len(), Default::default());
        for (key, value) in fields {
            let key = Digest::parse(key).ok_or_else(|| format!("bad cache key `{key}`"))?;
            let throughput = value
                .get("throughput")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("entry {key}: missing throughput"))?;
            let energy_per_iter = value
                .get("energy_per_iter")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("entry {key}: missing energy_per_iter"))?;
            entries.insert(
                key.as_u128(),
                EnergyDelay {
                    throughput,
                    energy_per_iter,
                },
            );
        }
        Ok(EvalCache {
            table: Mutex::new(Table {
                entries,
                synced: None,
            }),
            ..EvalCache::default()
        })
    }

    /// Load a cache file; a missing file yields an empty cache (a
    /// cold start), any other failure is an error. The loaded cache
    /// remembers the file, so saving it back unchanged is a no-op.
    ///
    /// # Errors
    ///
    /// Returns a description of an unreadable or malformed file.
    pub fn load(path: &str) -> Result<EvalCache, String> {
        let mut file = match std::fs::File::open(path) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Ok(EvalCache::new());
            }
            Err(e) => return Err(format!("reading {path}: {e}")),
        };
        // Stamp before reading: an edit racing the read moves the
        // mtime past the stamp, so the next save still writes.
        let stamp = file.metadata().ok().and_then(|m| FileStamp::new(path, &m));
        let mut text = String::new();
        std::io::Read::read_to_string(&mut file, &mut text)
            .map_err(|e| format!("reading {path}: {e}"))?;
        let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        let cache = EvalCache::from_json(&doc).map_err(|e| format!("{path}: {e}"))?;
        cache.table().synced = stamp;
        Ok(cache)
    }
}

/// The canonical on-disk document for `entries`, sorted by key.
fn render_entries(entries: &DigestMap<EnergyDelay>) -> Json {
    let mut rows: Vec<(u128, EnergyDelay)> = entries.iter().map(|(&k, &ed)| (k, ed)).collect();
    rows.sort_unstable_by_key(|&(k, _)| k);
    Json::object(vec![
        ("cache_format_version", Json::Uint(CACHE_FORMAT_VERSION)),
        (
            "entries",
            Json::Object(
                rows.into_iter()
                    .map(|(k, ed)| {
                        (
                            Digest::from_u128(k).to_string(),
                            Json::object(vec![
                                ("energy_per_iter", Json::Float(ed.energy_per_iter)),
                                ("throughput", Json::Float(ed.throughput)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::digest_bytes;

    fn ed(t: f64, e: f64) -> EnergyDelay {
        EnergyDelay {
            throughput: t,
            energy_per_iter: e,
        }
    }

    #[test]
    fn lookup_counts_hits_and_misses() {
        let c = EvalCache::new();
        let k = digest_bytes(b"k");
        assert_eq!(c.lookup(k), None);
        c.insert(k, ed(0.5, 2.0));
        assert_eq!(c.lookup(k), Some(ed(0.5, 2.0)));
        assert_eq!((c.hits(), c.misses()), (1, 1));
        assert_eq!(c.hit_rate(), 0.5);
    }

    #[test]
    fn round_trips_exactly_and_sorts_entries() {
        let c = EvalCache::new();
        // Insert in descending key order; the rendering must not care.
        let keys: Vec<Digest> = (0..16u64)
            .rev()
            .map(|i| digest_bytes(&i.to_le_bytes()))
            .collect();
        for (i, &k) in keys.iter().enumerate() {
            c.insert(k, ed(1.0 / (i as f64 + 3.0), 0.1 * i as f64 + 0.77));
        }
        let text = c.to_json().render();
        let back = EvalCache::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.len(), c.len());
        // Byte-identical re-rendering: floats survive the round trip
        // exactly and ordering is canonical.
        assert_eq!(back.to_json().render(), text);
        for &k in &keys {
            assert_eq!(back.lookup(k), c.lookup(k));
        }
    }

    #[test]
    fn missing_file_is_a_cold_start() {
        let c = EvalCache::load("/nonexistent/uecgra-dse-cache.json").unwrap();
        assert!(c.is_empty());
    }

    #[test]
    fn malformed_documents_are_rejected() {
        assert!(EvalCache::from_json(&Json::object(vec![])).is_err());
        let bad = Json::object(vec![
            ("cache_format_version", Json::Uint(CACHE_FORMAT_VERSION)),
            ("entries", Json::object(vec![("zz", Json::Uint(1))])),
        ]);
        assert!(EvalCache::from_json(&bad).is_err());
    }
}
