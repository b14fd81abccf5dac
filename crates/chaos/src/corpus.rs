//! The replayable regression corpus.
//!
//! Every failure the fuzzer ever finds is shrunk and committed as a JSON
//! fixture under `tests/fixtures/chaos/`; [`replay_all`] re-judges every
//! fixture and is wired into `cargo test`, so a once-found bug that
//! reappears fails CI immediately.
//!
//! ## Fixture contract
//!
//! * A fixture records the **minimal** (post-shrink) config, the case
//!   seed that found it, the oracle it tripped and the failure detail at
//!   the time of discovery.
//! * A committed fixture's config must judge **clean** (`Pass`, or `Skip`
//!   under load) on current code: committing a fixture asserts "this bug
//!   is fixed and must stay fixed". A still-failing find lives in a
//!   branch alongside the fix, never alone on main.
//! * Filenames are `chaos-<ScenarioConfig::fingerprint>.json`, so the same
//!   minimal repro never commits twice and names are diff-stable.

use crate::oracle::{judge, CaseOutcome};
use elephants_experiments::ScenarioConfig;
use elephants_json::{impl_json_struct, FromJson, ToJson};
use std::path::{Path, PathBuf};

/// One committed repro (or curated corner case).
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosFixture {
    /// Case seed the fuzzer found the failure at (0 for curated seeds).
    pub found_by_seed: u64,
    /// The oracle the original case tripped — `"Invariant"`,
    /// `"Termination"`, `"Determinism"`, `"RoundTrip"`, or `"curated"`
    /// for hand-picked hardening cases that never failed.
    pub oracle: String,
    /// Failure detail at discovery time (or the curation rationale).
    pub detail: String,
    /// The minimal config. Must currently judge clean.
    pub config: ScenarioConfig,
}

impl_json_struct!(ChaosFixture { found_by_seed, oracle, detail, config });

/// The committed corpus directory (repo-relative; resolved from this
/// crate's manifest so `cargo test` finds it from any working directory).
pub fn default_corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/chaos")
}

/// The fixture's identity: the config's content hash.
pub fn fixture_stem(cfg: &ScenarioConfig) -> String {
    format!("chaos-{:016x}", cfg.fingerprint())
}

/// Write `fixture` into `dir`, creating it if needed. Returns the path
/// (existing identical fixtures are simply overwritten — the name is a
/// content hash of the config, so this is idempotent).
pub fn save_fixture(dir: &Path, fixture: &ChaosFixture) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{}.json", fixture_stem(&fixture.config)));
    std::fs::write(&path, fixture.to_json_pretty())?;
    Ok(path)
}

/// Load every `chaos-*.json` fixture in `dir`, sorted by filename for a
/// deterministic replay order. A missing directory is an empty corpus.
pub fn load_corpus(dir: &Path) -> Result<Vec<(PathBuf, ChaosFixture)>, String> {
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(format!("reading corpus dir {}: {e}", dir.display())),
    };
    let mut paths: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.extension().is_some_and(|x| x == "json")
                && p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("chaos-"))
        })
        .collect();
    paths.sort();
    let mut corpus = Vec::with_capacity(paths.len());
    for path in paths {
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("reading fixture {}: {e}", path.display()))?;
        let fixture = ChaosFixture::from_json_str(&text)
            .map_err(|e| format!("parsing fixture {}: {e}", path.display()))?;
        corpus.push((path, fixture));
    }
    Ok(corpus)
}

/// One fixture's replay result.
#[derive(Debug)]
pub struct ReplayResult {
    /// The fixture file.
    pub path: PathBuf,
    /// The judge's verdict on its config today.
    pub outcome: CaseOutcome,
}

/// Re-judge every fixture in `dir`. Per the contract, every outcome must
/// be `Pass` (or `Skip` on an overloaded machine); the returned list lets
/// callers report which fixture regressed.
pub fn replay_all(dir: &Path) -> Result<Vec<ReplayResult>, String> {
    Ok(load_corpus(dir)?
        .into_iter()
        .map(|(path, fixture)| ReplayResult { path, outcome: judge(&fixture.config) })
        .collect())
}

/// The failures among a replay run (anything that is neither Pass nor
/// Skip).
pub fn replay_failures(results: &[ReplayResult]) -> Vec<&ReplayResult> {
    results
        .iter()
        .filter(|r| matches!(r.outcome, CaseOutcome::Fail { .. }))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::generate_case;

    fn tmp_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("elephants-chaos-{tag}-{}", std::process::id()))
    }

    fn fixture_for(seed: u64) -> ChaosFixture {
        ChaosFixture {
            found_by_seed: seed,
            oracle: "curated".to_string(),
            detail: "unit-test fixture".to_string(),
            config: generate_case(seed),
        }
    }

    #[test]
    fn fixture_json_round_trips() {
        let fx = fixture_for(17);
        let json = fx.to_json_string();
        let back = ChaosFixture::from_json_str(&json).unwrap();
        assert_eq!(back, fx);
        assert_eq!(back.to_json_string(), json);
    }

    #[test]
    fn save_load_cycle_is_idempotent_and_sorted() {
        let dir = tmp_dir("corpus");
        std::fs::remove_dir_all(&dir).ok();
        let (a, b) = (fixture_for(1), fixture_for(2));
        save_fixture(&dir, &a).unwrap();
        save_fixture(&dir, &b).unwrap();
        save_fixture(&dir, &a).unwrap(); // same content hash: no duplicate
        let corpus = load_corpus(&dir).unwrap();
        assert_eq!(corpus.len(), 2);
        let stems: Vec<String> = corpus
            .iter()
            .map(|(p, _)| p.file_stem().unwrap().to_string_lossy().into_owned())
            .collect();
        let mut sorted = stems.clone();
        sorted.sort();
        assert_eq!(stems, sorted, "replay order must be filename-sorted");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_corpus_dir_is_empty_not_an_error() {
        let dir = tmp_dir("no-such-corpus");
        std::fs::remove_dir_all(&dir).ok();
        assert!(load_corpus(&dir).unwrap().is_empty());
        assert!(replay_all(&dir).unwrap().is_empty());
    }

    #[test]
    fn unparsable_fixture_is_a_loud_error() {
        let dir = tmp_dir("bad-fixture");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("chaos-zzzz.json"), "{ nope").unwrap();
        let err = load_corpus(&dir).unwrap_err();
        assert!(err.contains("chaos-zzzz"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn committed_corpus_directory_exists() {
        // The default dir is committed with the repo (seed fixtures +
        // README); a broken path here would make replay silently vacuous.
        assert!(
            default_corpus_dir().is_dir(),
            "missing committed corpus dir {}",
            default_corpus_dir().display()
        );
    }
}
