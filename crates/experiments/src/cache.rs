//! On-disk cache of run results.
//!
//! Simulation runs are pure functions of `(ScenarioConfig, seed)`, so their
//! results are cached as JSON under `results/cache/` (local, not tracked
//! in git; `sweep` fills it). Re-running a figure binary reuses every run
//! it shares with previous figures (the whole study is one 810-cell grid
//! viewed from different angles).
//!
//! Robustness properties:
//!
//! * An entry is named by [`ScenarioConfig::cache_key`], which hashes the
//!   whole config, plus [`CACHE_SCHEMA_VERSION`]: a different run or a
//!   different `RunResult` shape is a different file, never a stale hit.
//!   Old entries are not read or migrated; they are recomputed.
//! * An entry that exists but cannot be decoded is **quarantined** (renamed to
//!   `*.quarantine`, counted, warned about) rather than silently
//!   recomputed — corruption is a signal worth surfacing, and the rename
//!   stops the next run from tripping over the same bytes.
//! * Write failures are counted per cache instance ([`RunCache::put_errors`])
//!   and surfaced in sweep summaries instead of being swallowed: a full
//!   disk should not masquerade as a cold cache.
//!
//! The cache is also what carries `--check` to the runs it makes: every
//! sweep and figure goes through [`RunCache::run_checked`], so the mode set
//! with [`RunCache::check`] reaches each cell without process-wide state,
//! and what the checker found is counted next to the other incidents.

use crate::runner::{RunError, RunOutcome, RunResult, Runner};
use crate::scenario::ScenarioConfig;
use elephants_json::{FromJson, ToJson};
use elephants_netsim::CheckMode;
use std::io::ErrorKind;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Version stamp embedded in every cache filename. Bump when the
/// `RunResult` JSON schema (or the meaning of any field) changes, or when
/// the simulator changes what a given config computes. A `ScenarioConfig`
/// change needs no bump: the config is hashed into the key.
pub const CACHE_SCHEMA_VERSION: u32 = 6;

/// Per-instance incident counters, shared by every clone of one
/// [`RunCache`] (sweep workers clone the cache; their increments must
/// land on the same counters the summary reads).
#[derive(Debug, Default)]
struct CacheStats {
    put_errors: AtomicU64,
    quarantined: AtomicU64,
    checked_runs: AtomicU64,
    check_violations: AtomicU64,
}

/// A JSON file-per-run cache.
#[derive(Debug, Clone)]
pub struct RunCache {
    dir: PathBuf,
    enabled: bool,
    check: CheckMode,
    stats: Arc<CacheStats>,
}

impl RunCache {
    /// Cache rooted at `dir` (created on first write).
    pub fn new(dir: impl AsRef<Path>) -> Self {
        RunCache {
            dir: dir.as_ref().to_path_buf(),
            enabled: true,
            check: CheckMode::Off,
            stats: Arc::default(),
        }
    }

    /// A disabled cache (always recompute).
    pub fn disabled() -> Self {
        RunCache { enabled: false, ..RunCache::new("") }
    }

    /// Invariant-checking mode for the runs this cache makes on a miss
    /// (default off). A hit is served as stored and checks nothing.
    pub fn check(mut self, mode: CheckMode) -> Self {
        self.check = mode;
        self
    }

    /// Cache writes that failed on this instance (and its clones).
    pub fn put_errors(&self) -> u64 {
        self.stats.put_errors.load(Ordering::Relaxed)
    }

    /// Entries this instance (and its clones) quarantined as unparsable.
    pub fn quarantined(&self) -> u64 {
        self.stats.quarantined.load(Ordering::Relaxed)
    }

    /// Runs this instance (and its clones) made under the checker.
    pub fn checked_runs(&self) -> u64 {
        self.stats.checked_runs.load(Ordering::Relaxed)
    }

    /// Invariant violations the checker counted over those runs (audit
    /// mode; a strict run panics on its first one instead).
    pub fn check_violations(&self) -> u64 {
        self.stats.check_violations.load(Ordering::Relaxed)
    }

    /// Add what the checker found over `outcome`'s runs to the counters:
    /// for a run made under this cache's `--check` mode but not through
    /// [`RunCache::run_checked`] (a recorded run has no cache entry).
    pub fn count_checks(&self, outcome: &RunOutcome) {
        self.stats.checked_runs.fetch_add(outcome.check_reports.len() as u64, Ordering::Relaxed);
        self.stats.check_violations.fetch_add(outcome.check_violations(), Ordering::Relaxed);
    }

    fn path_for(&self, cfg: &ScenarioConfig, seed: u64) -> PathBuf {
        self.dir.join(format!("{}-v{}.json", cfg.cache_key(seed), CACHE_SCHEMA_VERSION))
    }

    /// Fetch a cached result if present and decodable. Only a missing
    /// file is a miss: an entry that cannot be read, is not UTF-8 or does
    /// not parse is quarantined (renamed, counted, warned about), not
    /// silently recomputed over.
    pub fn get(&self, cfg: &ScenarioConfig, seed: u64) -> Option<RunResult> {
        if !self.enabled {
            return None;
        }
        let path = self.path_for(cfg, seed);
        let decoded = match std::fs::read_to_string(&path) {
            // No such entry, or no such cache directory yet.
            Err(e) if matches!(e.kind(), ErrorKind::NotFound | ErrorKind::NotADirectory) => {
                return None
            }
            Err(e) => Err(e.to_string()),
            Ok(text) => RunResult::from_json_str(&text).map_err(|e| e.to_string()),
        };
        match decoded {
            Ok(result) => Some(result),
            Err(e) => {
                let quarantine = path.with_extension("quarantine");
                let moved = std::fs::rename(&path, &quarantine).is_ok();
                self.stats.quarantined.fetch_add(1, Ordering::Relaxed);
                eprintln!(
                    "warning: quarantined unparsable cache entry {} ({}){}",
                    path.display(),
                    e,
                    if moved { "" } else { " [rename failed]" },
                );
                None
            }
        }
    }

    /// Store a result. IO errors are counted in [`RunCache::put_errors`] so
    /// sweeps can surface them; the run itself still succeeds.
    pub fn put(&self, cfg: &ScenarioConfig, seed: u64, result: &RunResult) {
        if !self.enabled {
            return;
        }
        let write = std::fs::create_dir_all(&self.dir)
            .and_then(|_| std::fs::write(self.path_for(cfg, seed), result.to_json_pretty()));
        if write.is_err() {
            self.stats.put_errors.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Run (or fetch) one seed of a scenario, reporting failures instead
    /// of aborting. Only successful runs are cached; only a run made here
    /// is checked.
    pub fn run_checked(&self, cfg: &ScenarioConfig, seed: u64) -> Result<RunResult, RunError> {
        if let Some(hit) = self.get(cfg, seed) {
            return Ok(hit);
        }
        let outcome = Runner::new(cfg).seed(seed).check(self.check).run()?;
        self.count_checks(&outcome);
        let result = outcome.into_first();
        self.put(cfg, seed, &result);
        Ok(result)
    }

    /// Run (or fetch) one seed of a scenario.
    ///
    /// # Panics
    /// Panics if the run fails; use [`RunCache::run_checked`] (or the
    /// fault-tolerant sweep) for graceful degradation.
    pub fn run(&self, cfg: &ScenarioConfig, seed: u64) -> RunResult {
        self.run_checked(cfg, seed)
            .unwrap_or_else(|e| panic!("run failed ({}, seed {seed}): {e}", cfg.label()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::RunOptions;
    use elephants_aqm::AqmKind;
    use elephants_cca::CcaKind;

    fn quick_cfg() -> ScenarioConfig {
        ScenarioConfig::new(
            CcaKind::Cubic,
            CcaKind::Cubic,
            AqmKind::Fifo,
            1.0,
            100_000_000,
            &RunOptions::quick(),
        )
    }

    #[test]
    fn cache_round_trip() {
        let tmp = std::env::temp_dir().join(format!("elephants-cache-test-{}", std::process::id()));
        let cache = RunCache::new(&tmp);
        let cfg = quick_cfg();
        assert!(cache.get(&cfg, 1).is_none());
        let fresh = cache.run(&cfg, 1);
        let cached = cache.get(&cfg, 1).expect("must be cached now");
        assert_eq!(fresh.events, cached.events);
        assert_eq!(fresh.sender_mbps, cached.sender_mbps);
        std::fs::remove_dir_all(&tmp).ok();
    }

    #[test]
    fn configs_the_old_key_merged_get_their_own_results() {
        let tmp = std::env::temp_dir().join(format!("elephants-cache-merge-{}", std::process::id()));
        let cache = RunCache::new(&tmp);
        // `--bw 100M` vs `--bw 100900K` shared one fixed-precision key, so
        // the second run was handed the first one's result.
        let (a, mut b) = (quick_cfg(), quick_cfg());
        b.bw_bps = 100_900_000;
        let fresh = RunCache::disabled().run(&b, 1);
        assert_ne!(cache.run(&a, 1).events, fresh.events, "the pair must differ to bite");
        assert_eq!(cache.run(&b, 1).events, fresh.events);
        assert_eq!(cache.get(&b, 1).map(|r| r.events), Some(fresh.events));
        // So did 0.50 and 0.504 BDP. Those two queues hold the same number
        // of packets and the runs agree, so count the entries instead.
        let (mut c, mut d) = (quick_cfg(), quick_cfg());
        (c.queue_bdp, d.queue_bdp) = (0.5, 0.504);
        cache.run(&c, 1);
        cache.run(&d, 1);
        assert_eq!(std::fs::read_dir(&tmp).unwrap().count(), 4, "one entry per config");
        std::fs::remove_dir_all(&tmp).ok();
    }

    #[test]
    fn disabled_cache_never_stores() {
        let cache = RunCache::disabled();
        let cfg = quick_cfg();
        assert!(cache.get(&cfg, 1).is_none());
    }

    #[test]
    fn filenames_carry_schema_version() {
        let cache = RunCache::new("x");
        let path = cache.path_for(&quick_cfg(), 1);
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        assert!(
            name.ends_with(&format!("-v{CACHE_SCHEMA_VERSION}.json")),
            "cache filename {name} must end with the schema version"
        );
    }

    #[test]
    fn unparsable_entry_is_quarantined_not_silently_recomputed() {
        let tmp =
            std::env::temp_dir().join(format!("elephants-cache-quarantine-{}", std::process::id()));
        let cache = RunCache::new(&tmp);
        let cfg = quick_cfg();
        std::fs::create_dir_all(&tmp).unwrap();
        // The counter belongs to this cache alone, so the exact count
        // holds under parallel test execution.
        assert_eq!(cache.quarantined(), 0);
        // The second body is the one that used to overflow the parser's
        // stack and take the whole sweep down with it; the third is not
        // UTF-8 and used to read as a plain miss.
        let corrupt =
            [b"{ this is not json".to_vec(), b"[".repeat(200_000), vec![0xff, 0xfe]];
        for (n, body) in corrupt.iter().enumerate() {
            let seed = 9 + n as u64;
            let path = cache.path_for(&cfg, seed);
            std::fs::write(&path, body).unwrap();
            assert!(cache.get(&cfg, seed).is_none());
            assert_eq!(cache.quarantined(), n as u64 + 1, "each quarantine is counted once");
            assert!(!path.exists(), "corrupt entry must be renamed away");
            assert!(path.with_extension("quarantine").exists(), "quarantine file must exist");
        }
        assert_eq!(cache.put_errors(), 0, "a quarantine is not a put error");
        std::fs::remove_dir_all(&tmp).ok();
    }

    #[test]
    fn put_failures_are_counted() {
        // Point the cache directory *at a file* so create_dir_all fails.
        let tmp = std::env::temp_dir().join(format!("elephants-cache-file-{}", std::process::id()));
        std::fs::write(&tmp, "occupied").unwrap();
        let cache = RunCache::new(&tmp);
        let cfg = quick_cfg();
        let result = cache.run(&cfg, 2); // run succeeds, put fails
        assert!(result.events > 0);
        assert_eq!(cache.put_errors(), 1, "failed put must be counted exactly");
        assert_eq!(cache.quarantined(), 0);
        std::fs::remove_file(&tmp).ok();
    }

    #[test]
    fn clones_share_one_set_of_instance_counters() {
        let tmp = std::env::temp_dir().join(format!("elephants-cache-clone-{}", std::process::id()));
        std::fs::write(&tmp, "occupied").unwrap(); // puts will fail
        let cache = RunCache::new(&tmp);
        let clone = cache.clone();
        clone.run(&quick_cfg(), 3);
        assert_eq!(
            cache.put_errors(),
            1,
            "a clone's incidents must land on the original's counters \
             (sweep workers clone the cache; the summary reads the original)"
        );
        let fresh = RunCache::new(&tmp);
        assert_eq!(fresh.put_errors(), 0, "a fresh instance starts clean");
        std::fs::remove_file(&tmp).ok();
    }
}
