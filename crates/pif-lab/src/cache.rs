//! Content-addressed persistent result cache for sweep cells.
//!
//! Each grid cell's metrics are keyed by [`CacheKey`] — the pair of
//!
//! * **trace hash**: `pif_trace`'s FNV-1a 64 content hash of the cell's
//!   workload instruction stream at the run scale and seed (container-
//!   independent, so a recorded trace file and the generator stream it
//!   came from address the same entries), and
//! * **config fingerprint**: an FNV-1a 64 over an *injective* canonical
//!   string covering the spec identity, the cell coordinate, the scale,
//!   and the cell's applied configuration summary (the same flat block
//!   reports embed for drift detection, with the parameter axis applied
//!   to the cell's point).
//!
//! Canonical strings length-prefix every field and every value, so two
//! distinct `(spec, scale, coordinate, config)` tuples can never
//! concatenate to the same bytes — `tests/cache.rs` proptests this
//! injectivity over differing config blocks.
//!
//! # On-disk layout and invalidation
//!
//! ```text
//! <cache_dir>/pif-lab-cell/v1/<trace_hash:016x>/<config_fp:016x>.json
//! ```
//!
//! One JSON document per cell, storing each metric as a
//! `[name, kind, token]` triple where `kind` tags the value as counter
//! (`"u"`) or float (`"f"`) and `token` is the exact decimal token the
//! report emitter renders (shortest-round-trip for floats). Replaying a
//! cached cell therefore reproduces report bytes exactly — a warm-cache
//! rerun is byte-identical to the cold run that populated it.
//!
//! Invalidation is purely key-based: any change to the trace content,
//! the scale, the seed, the cell coordinate, or any summarized
//! configuration knob derives a different key, and the stale entry is
//! simply never addressed again. The versioned `pif-lab-cell/v1`
//! directory segment invalidates the whole cache when the storage format
//! itself changes. Corrupt or unreadable entries are treated as misses
//! and re-simulated.
//!
//! # The trace-hash memo
//!
//! A synthetic workload's trace hash costs a full generation of its
//! trace, the same work as the first half of a simulation. So each
//! [`ResultCache`] remembers the hashes it has derived, keyed by every
//! input of the generator: the scaled profile (name, class and every
//! generator parameter), the instruction count and the execution seed.
//! Within one process the same inputs always generate the same trace,
//! which is what makes the memo safe. It is in memory only, lives as
//! long as its cache (one per `piflab run` invocation, one per daemon),
//! holds 8-byte hashes and never a trace, and keeps at most 1,024 of
//! them, evicting the oldest first. A run without a cache never reaches
//! it. Recorded workloads bypass it: their file can change on disk under
//! the same name, so they are loaded and hashed on every run.

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use pif_trace::hash::fnv1a_64_once;
use pif_workloads::WorkloadProfile;

use crate::json::{escape, Json};
use crate::report::Metric;
use crate::scale::Scale;
use crate::spec::{JobCoord, Measure, SweepSpec};

/// Storage schema identifier; bump to invalidate every existing entry.
const CELL_SCHEMA: &str = "pif-lab-cell/v1";

/// The content address of one cached cell result.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Content hash of the cell's workload instruction stream.
    pub trace_hash: u64,
    /// Fingerprint of the cell's full configuration identity.
    pub config_fp: u64,
}

/// Hit/miss counters of one [`ResultCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from disk.
    pub hits: u64,
    /// Lookups that missed (including corrupt entries).
    pub misses: u64,
    /// The subset of misses where the entry file existed but failed to
    /// parse or echo its key — evidence of on-disk damage, not absence.
    pub corrupt: u64,
    /// Corrupt entries moved aside to `<dir>/quarantine/` (a subset of
    /// `corrupt`: a quarantine that itself fails leaves the file in
    /// place).
    pub quarantined: u64,
    /// Synthetic trace hashes derived by generating the trace (memo
    /// misses). Two workers racing on one key both count.
    pub hashes_derived: u64,
    /// Synthetic trace hashes answered by the in-memory memo.
    pub hash_memo_hits: u64,
}

/// Most trace hashes one [`ResultCache`] remembers. An entry is one
/// scaled profile plus three integers, a few hundred bytes, so a full
/// memo stays well under a megabyte.
const HASH_MEMO_CAP: usize = 1024;

/// One memoized trace hash and the generator inputs it was derived from.
#[derive(Debug)]
struct MemoEntry {
    instructions: usize,
    seed_offset: u64,
    profile: WorkloadProfile,
    hash: u64,
}

/// The trace-hash memo: a bounded first-in, first-out list. Lookups scan
/// it; the cheap integer inputs are compared before the profile.
#[derive(Debug, Default)]
struct HashMemo {
    entries: VecDeque<MemoEntry>,
}

impl HashMemo {
    fn get(&self, profile: &WorkloadProfile, instructions: usize, seed_offset: u64) -> Option<u64> {
        self.entries
            .iter()
            .find(|e| {
                e.instructions == instructions
                    && e.seed_offset == seed_offset
                    && e.profile == *profile
            })
            .map(|e| e.hash)
    }

    /// Remembers `hash`, evicting the oldest entry when full. A key that
    /// a racing worker stored first is not stored twice.
    fn insert(
        &mut self,
        profile: &WorkloadProfile,
        instructions: usize,
        seed_offset: u64,
        hash: u64,
    ) {
        if self.get(profile, instructions, seed_offset).is_some() {
            return;
        }
        if self.entries.len() == HASH_MEMO_CAP {
            self.entries.pop_front();
        }
        self.entries.push_back(MemoEntry {
            instructions,
            seed_offset,
            profile: profile.clone(),
            hash,
        });
    }
}

/// Appends one `key=value` field to a canonical string with length
/// prefixes on both sides, so no two field sequences share an encoding.
fn push_field(s: &mut String, key: &str, value: &str) {
    s.push_str(&format!("{}:{}={}:{};", key.len(), key, value.len(), value));
}

/// The metric's kind tag and exact report-emission token.
fn metric_token(m: Metric) -> (char, String) {
    match m {
        Metric::U64(v) => ('u', v.to_string()),
        Metric::F64(v) => ('f', crate::json::fmt_f64(v)),
    }
}

/// Canonical, injective encoding of a flat `config` metric block (the
/// drift-detection summary embedded in reports). Two blocks encode to
/// the same string only if they have identical names, kinds, and exact
/// rendered values in identical order.
pub fn config_block_canon(entries: &[(String, Metric)]) -> String {
    let mut s = String::new();
    for (name, m) in entries {
        let (kind, tok) = metric_token(*m);
        s.push_str(&format!(
            "{}:{}={}{}:{};",
            name.len(),
            name,
            kind,
            tok.len(),
            tok
        ));
    }
    s
}

/// The canonical identity string a cell's config fingerprint hashes.
/// Exposed (crate-wide) so tests can assert injectivity on the string
/// itself, not just on its 64-bit digest.
pub(crate) fn cell_identity(
    spec: &SweepSpec,
    scale: &Scale,
    workload: &str,
    coord: JobCoord,
) -> String {
    let mut pif = spec.pif_base;
    spec.axis.apply(coord.point, &mut pif);
    let entries = crate::config_entries(&spec.engine_base, &pif, spec.seed_offset);

    let mut s = String::new();
    push_field(&mut s, "spec", spec.name);
    push_field(&mut s, "measure", &format!("{:?}", spec.measure));
    push_field(&mut s, "axis", spec.axis.name());
    push_field(&mut s, "point", &spec.axis.label(coord.point));
    push_field(&mut s, "workload", workload);
    push_field(
        &mut s,
        "prefetcher",
        coord.prefetcher.map(|p| p.label()).unwrap_or("-"),
    );
    // Sampled cells derive their window seeds from the job index, so the
    // index is part of the result's identity, not just its position.
    push_field(&mut s, "index", &coord.index.to_string());
    // Sampled semantics moved from continuous to per-window predictor
    // warming; the driver version keys the identity so results produced
    // under the old warming can never replay from the cache.
    if matches!(spec.measure, Measure::Sampled { .. }) {
        push_field(&mut s, "sampled_driver", "per-window-v2");
    }
    push_field(
        &mut s,
        "scale",
        &format!(
            "{}:{}:{}",
            scale.instructions,
            crate::json::fmt_f64(scale.footprint),
            crate::json::fmt_f64(scale.warmup_fraction)
        ),
    );
    s.push_str(&config_block_canon(&entries));
    s
}

/// Derives the config-fingerprint half of a cell's [`CacheKey`].
pub fn cell_fingerprint(spec: &SweepSpec, scale: &Scale, workload: &str, coord: JobCoord) -> u64 {
    fnv1a_64_once(cell_identity(spec, scale, workload, coord).as_bytes())
}

/// A persistent, content-addressed store of cell metrics.
///
/// Lookups and stores are safe to issue concurrently from many threads
/// (and many processes: stores write a temp file and atomically rename).
/// See the module docs for layout and invalidation.
#[derive(Debug)]
pub struct ResultCache {
    root: PathBuf,
    /// The user-facing cache directory (`root`'s grandparent): the
    /// quarantine directory lives here, *outside* the versioned root
    /// that `entries`/`verify_entries` walk.
    quarantine_dir: PathBuf,
    hits: AtomicU64,
    misses: AtomicU64,
    corrupt: AtomicU64,
    quarantined: AtomicU64,
    hash_memo: Mutex<HashMemo>,
    hashes_derived: AtomicU64,
    hash_memo_hits: AtomicU64,
}

impl ResultCache {
    /// Opens (creating if needed) a cache rooted at `dir`.
    ///
    /// Entries live under `dir/pif-lab-cell/v1/`.
    ///
    /// # Errors
    ///
    /// Fails if the versioned subdirectory cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        let dir = dir.into();
        let root = dir.join(CELL_SCHEMA);
        std::fs::create_dir_all(&root)?;
        Ok(ResultCache {
            root,
            quarantine_dir: dir.join("quarantine"),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            corrupt: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
            hash_memo: Mutex::default(),
            hashes_derived: AtomicU64::new(0),
            hash_memo_hits: AtomicU64::new(0),
        })
    }

    /// The default cache directory: `$PIFD_CACHE_DIR`, else
    /// `$XDG_CACHE_HOME/pifd`, else `$HOME/.cache/pifd`, else a
    /// `.pifd-cache` directory under the working directory.
    pub fn default_dir() -> PathBuf {
        if let Ok(dir) = std::env::var("PIFD_CACHE_DIR") {
            return PathBuf::from(dir);
        }
        if let Ok(xdg) = std::env::var("XDG_CACHE_HOME") {
            return Path::new(&xdg).join("pifd");
        }
        if let Ok(home) = std::env::var("HOME") {
            return Path::new(&home).join(".cache").join("pifd");
        }
        PathBuf::from(".pifd-cache")
    }

    /// The versioned root directory entries are stored under.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn entry_path(&self, key: &CacheKey) -> PathBuf {
        self.root
            .join(format!("{:016x}", key.trace_hash))
            .join(format!("{:016x}.json", key.config_fp))
    }

    /// Looks up a cell's stored metrics. Corrupt, unreadable, or
    /// kind-mismatched entries count as misses (and additionally as
    /// corrupt when the file was readable but failed validation).
    pub fn lookup(&self, key: &CacheKey) -> Option<Vec<(String, Metric)>> {
        let path = self.entry_path(key);
        // An injected read fault (EIO) degrades to a plain miss: the
        // cell re-simulates, the run stays correct.
        pif_fail::fail_point!("cache.lookup.read", |e: pif_fail::FailError| {
            self.misses.fetch_add(1, Ordering::Relaxed);
            pif_obs::log::warn(
                "pif_lab::cache",
                "cache read failed; re-simulating",
                &[("error", &e)],
            );
            None
        });
        match std::fs::read_to_string(&path) {
            Ok(text) => match parse_entry(&text, key) {
                Some(metrics) => {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    Some(metrics)
                }
                None => {
                    // Readable but invalid: damaged or hand-moved entry.
                    // Quarantine it so the damage is preserved for
                    // inspection but never rescanned or re-trusted.
                    self.corrupt.fetch_add(1, Ordering::Relaxed);
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    let quarantined = self.quarantine(key, &path);
                    pif_obs::log::warn(
                        "pif_lab::cache",
                        "corrupt cache entry; re-simulating",
                        &[("path", &path.display()), ("quarantined", &quarantined)],
                    );
                    None
                }
            },
            Err(_) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Moves a corrupt entry into the quarantine directory (named by its
    /// full key, so entries from different shards cannot collide).
    /// Best-effort: on failure the file stays where it is and only the
    /// `corrupt` counter records the damage.
    fn quarantine(&self, key: &CacheKey, path: &Path) -> bool {
        let moved = std::fs::create_dir_all(&self.quarantine_dir).is_ok()
            && std::fs::rename(
                path,
                self.quarantine_dir.join(format!(
                    "{:016x}-{:016x}.json",
                    key.trace_hash, key.config_fp
                )),
            )
            .is_ok();
        if moved {
            self.quarantined.fetch_add(1, Ordering::Relaxed);
        }
        moved
    }

    /// Where corrupt entries are moved: `<dir>/quarantine/`.
    pub fn quarantine_dir(&self) -> &Path {
        &self.quarantine_dir
    }

    /// Persists a cell's metrics under `key`.
    ///
    /// The entry is written to a temp file and renamed into place, so
    /// concurrent readers never observe a partial document.
    ///
    /// # Errors
    ///
    /// Refuses non-finite float metrics (they cannot round-trip through
    /// the token encoding and would poison reports), and reports I/O
    /// failures.
    pub fn store(&self, key: &CacheKey, metrics: &[(String, Metric)]) -> Result<(), String> {
        for (name, m) in metrics {
            if let Metric::F64(v) = m {
                if !v.is_finite() {
                    return Err(format!(
                        "metric {name:?} is non-finite ({v}); refusing to cache"
                    ));
                }
            }
        }
        let path = self.entry_path(key);
        let dir = path.parent().expect("entry path has a parent");
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let mut doc = String::new();
        doc.push_str(&format!(
            "{{\"schema\": \"{CELL_SCHEMA}\", \"trace\": \"{:016x}\", \"fp\": \"{:016x}\", \"metrics\": [",
            key.trace_hash, key.config_fp
        ));
        for (i, (name, m)) in metrics.iter().enumerate() {
            let (kind, tok) = metric_token(*m);
            if i > 0 {
                doc.push_str(", ");
            }
            doc.push_str(&format!("[\"{}\", \"{kind}\", \"{tok}\"]", escape(name)));
        }
        doc.push_str("]}\n");
        let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
        let write = (|| -> Result<(), String> {
            pif_fail::fail_point!("cache.store.write", |e: pif_fail::FailError| Err(
                e.to_string()
            ));
            let mut file = std::fs::File::create(&tmp)
                .map_err(|e| format!("create {}: {e}", tmp.display()))?;
            use std::io::Write as _;
            file.write_all(doc.as_bytes())
                .map_err(|e| format!("write {}: {e}", tmp.display()))?;
            // fsync before rename: without it a crash can publish the
            // entry's *name* while its bytes never reached the disk,
            // leaving a zero-length (corrupt) entry under a valid key.
            file.sync_all()
                .map_err(|e| format!("fsync {}: {e}", tmp.display()))
        })();
        if let Err(e) = write {
            let _ = std::fs::remove_file(&tmp);
            return Err(e);
        }
        std::fs::rename(&tmp, &path).map_err(|e| {
            let _ = std::fs::remove_file(&tmp);
            format!("rename {}: {e}", path.display())
        })
    }

    /// The content hash of `profile`'s trace of `instructions` records at
    /// execution seed `seed_offset` — the trace half of a synthetic
    /// cell's [`CacheKey`] — from this cache's memo, or derived by
    /// generating the trace and remembered (see the module docs).
    pub(crate) fn trace_hash(
        &self,
        profile: &WorkloadProfile,
        instructions: usize,
        seed_offset: u64,
    ) -> u64 {
        if let Some(hash) = self.memo().get(profile, instructions, seed_offset) {
            self.hash_memo_hits.fetch_add(1, Ordering::Relaxed);
            return hash;
        }
        // Derived outside the lock, so other workers' lookups never wait
        // for a generation. Two workers missing on the same key both
        // derive it, and both count.
        let hash = crate::measure::generated_trace_hash(profile, instructions, seed_offset);
        self.hashes_derived.fetch_add(1, Ordering::Relaxed);
        self.memo().insert(profile, instructions, seed_offset, hash);
        hash
    }

    fn memo(&self) -> MutexGuard<'_, HashMemo> {
        // The memo is consistent between statements, so a poisoned lock
        // is still safe to use.
        self.hash_memo
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// This cache's hit/miss counters (process-local).
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            corrupt: self.corrupt.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
            hashes_derived: self.hashes_derived.load(Ordering::Relaxed),
            hash_memo_hits: self.hash_memo_hits.load(Ordering::Relaxed),
        }
    }

    /// Number of entries on disk.
    ///
    /// # Errors
    ///
    /// Reports directory-walk failures.
    pub fn entries(&self) -> std::io::Result<usize> {
        let mut n = 0;
        for shard in std::fs::read_dir(&self.root)? {
            let shard = shard?.path();
            if shard.is_dir() {
                n += std::fs::read_dir(&shard)?
                    .filter_map(Result::ok)
                    .filter(|e| e.path().extension().is_some_and(|x| x == "json"))
                    .count();
            }
        }
        Ok(n)
    }

    /// Walks the store, validating every entry against its path-derived
    /// key, and returns `(valid, corrupt)` counts. Files with non-hex
    /// names count as corrupt — they can never be addressed by a lookup.
    ///
    /// # Errors
    ///
    /// Reports directory-walk failures.
    pub fn verify_entries(&self) -> std::io::Result<(usize, usize)> {
        let hex =
            |s: &std::ffi::OsStr| -> Option<u64> { u64::from_str_radix(s.to_str()?, 16).ok() };
        let (mut valid, mut corrupt) = (0, 0);
        for shard in std::fs::read_dir(&self.root)? {
            let shard = shard?.path();
            if !shard.is_dir() {
                continue;
            }
            let trace_hash = shard.file_name().and_then(hex);
            for entry in std::fs::read_dir(&shard)? {
                let path = entry?.path();
                if path.extension().is_none_or(|x| x != "json") {
                    continue;
                }
                let key = trace_hash.zip(path.file_stem().and_then(hex)).map(
                    |(trace_hash, config_fp)| CacheKey {
                        trace_hash,
                        config_fp,
                    },
                );
                let ok = key.is_some_and(|key| {
                    std::fs::read_to_string(&path)
                        .ok()
                        .and_then(|text| parse_entry(&text, &key))
                        .is_some()
                });
                if ok {
                    valid += 1;
                } else {
                    corrupt += 1;
                }
            }
        }
        Ok((valid, corrupt))
    }

    /// Removes every entry, returning how many were deleted.
    ///
    /// # Errors
    ///
    /// Reports filesystem failures; entries removed before the failure
    /// stay removed.
    pub fn clear(&self) -> std::io::Result<usize> {
        let n = self.entries()?;
        for shard in std::fs::read_dir(&self.root)? {
            let shard = shard?.path();
            if shard.is_dir() {
                std::fs::remove_dir_all(&shard)?;
            }
        }
        Ok(n)
    }
}

/// Parses a stored entry, validating schema and key echo.
fn parse_entry(text: &str, key: &CacheKey) -> Option<Vec<(String, Metric)>> {
    let j = Json::parse(text).ok()?;
    if j.get("schema")?.as_str()? != CELL_SCHEMA {
        return None;
    }
    // The embedded key must echo the path-derived one; a mismatch means
    // a hand-moved or corrupted file.
    if j.get("trace")?.as_str()? != format!("{:016x}", key.trace_hash)
        || j.get("fp")?.as_str()? != format!("{:016x}", key.config_fp)
    {
        return None;
    }
    let mut metrics = Vec::new();
    for triple in j.get("metrics")?.as_arr()? {
        let [name, kind, tok] = triple.as_arr()? else {
            return None;
        };
        let (name, kind, tok) = (name.as_str()?, kind.as_str()?, tok.as_str()?);
        let m = match kind {
            "u" => Metric::U64(tok.parse().ok()?),
            "f" => {
                let v: f64 = tok.parse().ok()?;
                if !v.is_finite() {
                    return None;
                }
                Metric::F64(v)
            }
            _ => return None,
        };
        metrics.push((name.to_string(), m));
    }
    Some(metrics)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(t: u64, f: u64) -> CacheKey {
        CacheKey {
            trace_hash: t,
            config_fp: f,
        }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("pif-lab-cache-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn store_then_lookup_roundtrips_exact_tokens() {
        let cache = ResultCache::open(tmpdir("roundtrip")).unwrap();
        let metrics = vec![
            ("demand_misses".into(), Metric::U64(123_456)),
            ("uipc".into(), Metric::F64(1.5)),
            ("ratio".into(), Metric::F64(0.1 + 0.2)),
        ];
        let k = key(0xdead_beef, 0x1234_5678);
        cache.store(&k, &metrics).unwrap();
        let back = cache.lookup(&k).expect("hit");
        assert_eq!(back, metrics);
        // Exact render equality, not just value equality.
        for ((_, a), (_, b)) in metrics.iter().zip(&back) {
            assert_eq!(metric_token(*a), metric_token(*b));
        }
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 1,
                ..CacheStats::default()
            }
        );
    }

    #[test]
    fn missing_and_corrupt_entries_are_misses() {
        let cache = ResultCache::open(tmpdir("corrupt")).unwrap();
        let k = key(1, 2);
        assert!(cache.lookup(&k).is_none());
        cache.store(&k, &[("x".into(), Metric::U64(1))]).unwrap();
        std::fs::write(
            cache.root().join("0000000000000001/0000000000000002.json"),
            "{oops",
        )
        .unwrap();
        assert!(cache.lookup(&k).is_none());
        assert_eq!(cache.stats().misses, 2);
        // Only the damaged file counts as corrupt; the absent one is a
        // plain miss.
        assert_eq!(cache.stats().corrupt, 1);
        // The damaged file was moved aside, out of the addressable
        // store, and preserved under the quarantine directory.
        assert_eq!(cache.stats().quarantined, 1);
        assert!(!cache.entry_path(&k).exists());
        assert!(cache
            .quarantine_dir()
            .join("0000000000000001-0000000000000002.json")
            .exists());
        // A fresh store under the same key works again.
        cache.store(&k, &[("x".into(), Metric::U64(2))]).unwrap();
        assert_eq!(cache.lookup(&k).unwrap()[0].1, Metric::U64(2));
    }

    #[test]
    fn verify_entries_splits_valid_from_corrupt() {
        let cache = ResultCache::open(tmpdir("verify")).unwrap();
        for i in 0..3 {
            cache
                .store(&key(i, i), &[("m".into(), Metric::U64(i))])
                .unwrap();
        }
        assert_eq!(cache.verify_entries().unwrap(), (3, 0));
        std::fs::write(cache.entry_path(&key(1, 1)), "{oops").unwrap();
        // A hand-moved entry fails the key echo.
        std::fs::copy(cache.entry_path(&key(2, 2)), cache.entry_path(&key(2, 9))).unwrap();
        assert_eq!(cache.verify_entries().unwrap(), (2, 2));
    }

    #[test]
    fn nonfinite_metrics_refuse_to_cache() {
        let cache = ResultCache::open(tmpdir("nonfinite")).unwrap();
        let err = cache
            .store(&key(1, 1), &[("bad".into(), Metric::F64(f64::NAN))])
            .unwrap_err();
        assert!(err.contains("non-finite"), "{err}");
    }

    #[test]
    fn clear_and_entries_count() {
        let cache = ResultCache::open(tmpdir("clear")).unwrap();
        for i in 0..5 {
            cache
                .store(&key(i, i), &[("m".into(), Metric::U64(i))])
                .unwrap();
        }
        assert_eq!(cache.entries().unwrap(), 5);
        assert_eq!(cache.clear().unwrap(), 5);
        assert_eq!(cache.entries().unwrap(), 0);
    }

    #[test]
    fn key_echo_mismatch_is_a_miss() {
        let cache = ResultCache::open(tmpdir("echo")).unwrap();
        let k1 = key(10, 20);
        cache.store(&k1, &[("m".into(), Metric::U64(7))]).unwrap();
        // Simulate a hand-moved file: copy the entry under a different key.
        let moved = key(10, 21);
        std::fs::copy(cache.entry_path(&k1), cache.entry_path(&moved)).unwrap();
        assert!(cache.lookup(&moved).is_none());
    }

    #[test]
    fn full_hash_memo_evicts_its_oldest_entry() {
        let profile = WorkloadProfile::oltp_db2();
        let mut memo = HashMemo::default();
        for i in 0..=HASH_MEMO_CAP {
            memo.insert(&profile, i, 0, i as u64);
        }
        assert_eq!(memo.entries.len(), HASH_MEMO_CAP);
        assert_eq!(memo.get(&profile, 0, 0), None, "the oldest entry goes");
        assert_eq!(memo.get(&profile, 1, 0), Some(1));
        assert_eq!(
            memo.get(&profile, HASH_MEMO_CAP, 0),
            Some(HASH_MEMO_CAP as u64)
        );
        // A key already present is not stored again, and evicts nothing.
        memo.insert(&profile, 1, 0, 1);
        assert_eq!(memo.get(&profile, 1, 0), Some(1));
        assert_eq!(memo.entries.len(), HASH_MEMO_CAP);
    }

    #[test]
    fn memoized_trace_hashes_equal_generated_ones() {
        let cache = ResultCache::open(tmpdir("memo")).unwrap();
        let scale = Scale::tiny();
        let seeds = [0, 1];
        let n = scale.workloads().len() * seeds.len();
        for pass in 1..=2 {
            for profile in scale.workloads() {
                for seed in seeds {
                    assert_eq!(
                        cache.trace_hash(&profile, scale.instructions, seed),
                        crate::measure::generated_trace_hash(&profile, scale.instructions, seed),
                        "{} at seed {seed}, pass {pass}",
                        profile.name()
                    );
                }
            }
        }
        let stats = cache.stats();
        assert_eq!(
            (stats.hashes_derived, stats.hash_memo_hits),
            (n as u64, n as u64)
        );
    }

    #[test]
    fn config_block_canon_is_order_and_kind_sensitive() {
        let a = vec![
            ("x".to_string(), Metric::U64(1)),
            ("y".to_string(), Metric::U64(2)),
        ];
        let b = vec![
            ("y".to_string(), Metric::U64(2)),
            ("x".to_string(), Metric::U64(1)),
        ];
        assert_ne!(config_block_canon(&a), config_block_canon(&b));
        let as_float = vec![
            ("x".to_string(), Metric::F64(1.0)),
            ("y".to_string(), Metric::U64(2)),
        ];
        assert_ne!(config_block_canon(&a), config_block_canon(&as_float));
        // Name/value boundary ambiguity is defeated by length prefixes.
        let c = vec![("ab".to_string(), Metric::U64(12))];
        let d = vec![("a".to_string(), Metric::U64(212))];
        assert_ne!(config_block_canon(&c), config_block_canon(&d));
    }
}
