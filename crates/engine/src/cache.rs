//! The two cache tiers: a bounded in-memory LRU and an optional on-disk
//! store.
//!
//! Both tiers are keyed by the request fingerprint
//! ([`crate::request::ScenarioRequest::fingerprint`]). The tiers differ in
//! what they hold:
//!
//! * The **memory tier** keeps the full [`CacheEntry`], including the node
//!   voltage vector of solves performed this process, which seeds warm
//!   starts for neighbouring scenarios.
//! * The **disk tier** stores one JSON file per fingerprint with only the
//!   request and summary — voltages are large and cheap to regenerate, so
//!   they never touch disk. Every file is stamped with
//!   [`crate::SCHEMA_VERSION`]; an entry written by a different schema is
//!   *rejected*, never misread, and the stored request's recomputed
//!   fingerprint must match the key or the entry is treated as corrupt.
//!
//! # Crash safety
//!
//! The disk tier assumes it can be killed at any instruction and reopened:
//!
//! * **Writes are atomic and durable**: an entry is written to a `*.tmp`
//!   sibling, `fsync`ed, and renamed into place, so a crash mid-store
//!   leaves either the old entry or a stray temp file — never a
//!   half-written entry under the live name.
//! * **Every entry is checksummed**: the payload (fingerprint + request +
//!   summary) carries a FNV-1a checksum over its canonical emission. A
//!   torn write that somehow survives the rename discipline (filesystem
//!   reordering, truncation, bit rot) fails the checksum on load.
//! * **Corrupt entries are quarantined, never fatal**: any undecodable or
//!   checksum-failing file is renamed to `<name>.corrupt` (best effort),
//!   logged once per process, counted in the `serve_cache_quarantined`
//!   metric, and reported as [`DiskLoad::Corrupt`] — a cache miss. One
//!   bad file can never wedge its fingerprint: the next store simply
//!   writes a fresh entry under the live name.

use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

use vstack_obs::warn_once;

use crate::json::Json;
use crate::request::{fnv1a_64, ScenarioRequest};
use crate::summary::SolveSummary;
use crate::SCHEMA_VERSION;

/// One cached result.
#[derive(Debug, Clone)]
pub struct CacheEntry {
    /// The canonical request this entry answers.
    pub request: ScenarioRequest,
    /// The solve result.
    pub summary: SolveSummary,
    /// Node voltages, present only for solves performed in this process
    /// (disk-loaded entries carry `None`). Used as warm-start donors.
    pub voltages: Option<Vec<f64>>,
}

/// Bounded in-memory LRU keyed by fingerprint.
///
/// Implemented as a most-recent-first vector: capacities are small
/// (hundreds), so O(n) promotion beats hash-map bookkeeping and keeps
/// iteration order — and therefore warm-start donor scans — deterministic.
#[derive(Debug)]
pub struct LruCache {
    capacity: usize,
    /// Front = most recently used.
    entries: Vec<(u64, CacheEntry)>,
}

impl LruCache {
    /// Creates a cache bounded to `capacity` entries (minimum 1).
    pub fn new(capacity: usize) -> Self {
        LruCache {
            capacity: capacity.max(1),
            entries: Vec::new(),
        }
    }

    /// Looks up and promotes `fingerprint` to most-recently-used.
    pub fn get(&mut self, fingerprint: u64) -> Option<&CacheEntry> {
        let idx = self.entries.iter().position(|(fp, _)| *fp == fingerprint)?;
        let entry = self.entries.remove(idx);
        self.entries.insert(0, entry);
        Some(&self.entries[0].1)
    }

    /// Looks up without touching recency.
    pub fn peek(&self, fingerprint: u64) -> Option<&CacheEntry> {
        self.entries
            .iter()
            .find(|(fp, _)| *fp == fingerprint)
            .map(|(_, e)| e)
    }

    /// Inserts (or replaces) an entry as most-recently-used, evicting the
    /// least-recently-used entry when over capacity.
    pub fn insert(&mut self, fingerprint: u64, entry: CacheEntry) {
        self.entries.retain(|(fp, _)| *fp != fingerprint);
        self.entries.insert(0, (fingerprint, entry));
        self.entries.truncate(self.capacity);
    }

    /// Iterates entries from most- to least-recently-used.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &CacheEntry)> {
        self.entries.iter().map(|(fp, e)| (*fp, e))
    }
}

/// Outcome of a disk lookup.
#[derive(Debug)]
pub enum DiskLoad {
    /// No file for this fingerprint.
    Missing,
    /// A file exists but was written under a different schema version; the
    /// caller must treat this as a miss (and may count it).
    SchemaMismatch,
    /// A file exists but cannot be trusted (unparsable, or its stored
    /// request does not hash to its key). Treated as a miss.
    Corrupt(String),
    /// A valid entry (voltages are never stored, so the entry carries
    /// `None`).
    Hit(Box<CacheEntry>),
}

/// One-file-per-fingerprint store under a cache directory.
#[derive(Debug)]
pub struct DiskCache {
    dir: PathBuf,
}

impl DiskCache {
    /// Opens (creating if needed) the store at `dir`.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn open(dir: &Path) -> io::Result<Self> {
        fs::create_dir_all(dir)?;
        Ok(DiskCache {
            dir: dir.to_path_buf(),
        })
    }

    fn path_for(&self, fingerprint: u64) -> PathBuf {
        self.dir.join(format!(
            "{}.json",
            ScenarioRequest::format_fingerprint(fingerprint)
        ))
    }

    /// Loads the entry for `fingerprint`, enforcing the schema stamp, the
    /// payload checksum and key integrity. Never panics on a bad file; an
    /// undecodable or checksum-failing file is quarantined to `*.corrupt`
    /// and reported as a (logged, counted) miss.
    pub fn load(&self, fingerprint: u64) -> DiskLoad {
        let path = self.path_for(fingerprint);
        let text = match fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return DiskLoad::Missing,
            Err(e) => return DiskLoad::Corrupt(format!("read failed: {e}")),
        };
        match Self::decode(&text, fingerprint) {
            Ok(Decoded::Entry(entry)) => DiskLoad::Hit(entry),
            Ok(Decoded::SchemaMismatch) => DiskLoad::SchemaMismatch,
            Err(why) => {
                self.quarantine(&path, &why);
                DiskLoad::Corrupt(why)
            }
        }
    }

    /// Decodes one entry file. `Err` means the file cannot be trusted and
    /// must be quarantined; a clean schema mismatch is *not* an error —
    /// entries from older/newer builds are intact, just unusable here.
    fn decode(text: &str, fingerprint: u64) -> Result<Decoded, String> {
        let doc = Json::parse(text).map_err(|e| format!("parse failed: {e}"))?;
        match doc.get("schema").and_then(Json::as_usize) {
            Some(v) if v == SCHEMA_VERSION as usize => {}
            Some(_) => return Ok(Decoded::SchemaMismatch),
            // No readable schema stamp at all: not an old version, junk.
            None => return Err("no schema stamp".to_string()),
        }
        // A current-schema entry without a verifiable checksum is treated
        // as corrupt, not legacy: every writer of this schema checksums.
        let stored_sum = doc
            .get("checksum")
            .and_then(Json::as_str)
            .and_then(ScenarioRequest::parse_fingerprint)
            .ok_or("checksum missing or unreadable")?;
        let payload = doc.get("payload").ok_or("no payload")?;
        // The payload re-emits canonically (`parse(emit(x)) == x` per the
        // json module), so the checksum domain is stable across round
        // trips; any mutation of the stored bytes surfaces here.
        if fnv1a_64(payload.emit().as_bytes()) != stored_sum {
            return Err("payload checksum mismatch (torn or corrupted write)".to_string());
        }
        let request = payload
            .get("request")
            .ok_or("no request")
            .and_then(|r| ScenarioRequest::from_json(r).map_err(|_| "bad request"))?;
        if request.fingerprint() != fingerprint {
            return Err("stored request does not match its key".to_string());
        }
        let summary = payload
            .get("summary")
            .ok_or_else(|| "no summary".to_string())
            .and_then(SolveSummary::from_json)?;
        Ok(Decoded::Entry(Box::new(CacheEntry {
            request,
            summary,
            voltages: None,
        })))
    }

    /// Moves a corrupt entry aside so subsequent loads are clean misses
    /// (and the evidence survives for inspection). Best effort: if the
    /// rename itself fails the entry stays and keeps reporting corrupt,
    /// which is still only a miss.
    fn quarantine(&self, path: &Path, why: &str) {
        vstack_obs::metrics::global().serve_cache_quarantined.inc();
        warn_once!(
            "serve",
            "quarantining corrupt cache entry {} ({why}); further corrupt entries are \
             quarantined silently",
            path.display()
        );
        let mut corrupt = path.as_os_str().to_os_string();
        corrupt.push(".corrupt");
        let _ = fs::rename(path, PathBuf::from(corrupt));
    }

    /// Writes an entry atomically and durably: checksummed payload, temp
    /// file + `fsync` + rename. A crash at any point leaves either the
    /// previous entry or no entry — never a torn one.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn store(
        &self,
        fingerprint: u64,
        request: &ScenarioRequest,
        summary: &SolveSummary,
    ) -> io::Result<()> {
        let payload = Json::obj(vec![
            (
                "fingerprint",
                Json::Str(ScenarioRequest::format_fingerprint(fingerprint)),
            ),
            ("request", request.to_json()),
            ("summary", summary.to_json()),
        ]);
        let body = payload.emit();
        let doc = Json::obj(vec![
            ("schema", Json::Num(f64::from(SCHEMA_VERSION))),
            (
                "checksum",
                Json::Str(ScenarioRequest::format_fingerprint(fnv1a_64(
                    body.as_bytes(),
                ))),
            ),
            ("payload", payload),
        ]);
        let mut text = doc.emit() + "\n";
        crate::server::chaos::cache_store_hook(&mut text)?;
        let path = self.path_for(fingerprint);
        let tmp = path.with_extension("json.tmp");
        {
            let mut file = fs::File::create(&tmp)?;
            file.write_all(text.as_bytes())?;
            file.sync_all()?;
        }
        fs::rename(&tmp, &path)
    }
}

/// Outcome of [`DiskCache::decode`]: a live entry or a clean version skew.
enum Decoded {
    Entry(Box<CacheEntry>),
    SchemaMismatch,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(req: ScenarioRequest) -> CacheEntry {
        CacheEntry {
            summary: SolveSummary {
                max_ir_drop_frac: 0.04,
                mean_ir_drop_frac: 0.02,
                worst_layer: 0,
                efficiency: 0.9,
                em_c4_hours: 1e5,
                em_tsv_hours: 1e6,
                overloaded_converters: 0,
                solver_iterations: 10,
                solver_setup_us: 0,
                solver_trail: "cg+amgf32".to_string(),
                solver_path: "csr+f64".to_string(),
                coupling_iterations: 0,
                coupling_converged: true,
                peak_temperature_c: 0.0,
            },
            request: req,
            voltages: None,
        }
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut lru = LruCache::new(2);
        let reqs: Vec<_> = (1..=3).map(ScenarioRequest::regular).collect();
        let fps: Vec<_> = reqs.iter().map(ScenarioRequest::fingerprint).collect();
        lru.insert(fps[0], entry(reqs[0].clone()));
        lru.insert(fps[1], entry(reqs[1].clone()));
        assert!(lru.get(fps[0]).is_some()); // promote 0; 1 is now LRU
        lru.insert(fps[2], entry(reqs[2].clone()));
        assert_eq!(lru.iter().count(), 2);
        assert!(lru.peek(fps[0]).is_some());
        assert!(lru.peek(fps[1]).is_none(), "LRU entry must be evicted");
        assert!(lru.peek(fps[2]).is_some());
    }

    #[test]
    fn lru_reinsert_does_not_grow() {
        let mut lru = LruCache::new(4);
        let req = ScenarioRequest::regular(2);
        let fp = req.fingerprint();
        for _ in 0..10 {
            lru.insert(fp, entry(req.clone()));
        }
        assert_eq!(lru.iter().count(), 1);
    }
}
