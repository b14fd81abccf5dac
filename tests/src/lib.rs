//! Cross-crate integration tests for the `elephants` workspace live in
//! `tests/tests/`. This library only hosts shared helpers.

use elephants::experiments::{AveragedResult, RunOptions, Runner, ScenarioBuilder, ScenarioConfig};
use elephants::SimDuration;
use std::str::FromStr;

/// The paper dumbbell for one study: the named CCA pair and AQM (the
/// `CcaKind` / `AqmKind` names), `mbps` bottleneck, `queue_bdp` queue,
/// `secs` simulated, seed 1 and Table 2's full flow count.
pub fn study_config(
    cca1: &str,
    cca2: &str,
    aqm: &str,
    queue_bdp: f64,
    mbps: u64,
    secs: u64,
) -> ScenarioBuilder {
    let opts = RunOptions::standard();
    ScenarioConfig::builder(kind(cca1), kind(cca2), kind(aqm), queue_bdp, mbps * 1_000_000, &opts)
        .duration(SimDuration::from_secs(secs))
}

/// A `CcaKind` / `AqmKind` by name; panics with the known names otherwise.
fn kind<K: FromStr<Err = String>>(name: &str) -> K {
    name.parse().unwrap_or_else(|e| panic!("{e}"))
}

/// Run `cfg` at seeds `cfg.seed..cfg.seed + repeats` and average them.
pub fn run_study(cfg: &ScenarioConfig, repeats: u32) -> AveragedResult {
    Runner::new(cfg)
        .repeats(repeats)
        .run()
        .unwrap_or_else(|e| panic!("run failed ({}): {e}", cfg.label()))
        .into_averaged()
}

/// Run a study for an explicit simulated duration.
pub fn study_secs(
    cca1: &str,
    cca2: &str,
    aqm: &str,
    queue_bdp: f64,
    mbps: u64,
    secs: u64,
) -> AveragedResult {
    let cfg = study_config(cca1, cca2, aqm, queue_bdp, mbps, secs).build().expect("valid study");
    run_study(&cfg, 1)
}

/// Run a short study with sane defaults for integration testing.
///
/// Uses 100–500 Mbps bandwidths and small durations so the whole suite
/// stays fast in debug builds while still exercising every crate. Slow
/// equilibria (deep buffers, who-overtakes-whom) need [`study_secs`] with
/// an explicit longer duration.
pub fn quick_study(cca1: &str, cca2: &str, aqm: &str, queue_bdp: f64, mbps: u64) -> AveragedResult {
    study_secs(cca1, cca2, aqm, queue_bdp, mbps, if mbps > 200 { 8 } else { 12 })
}

/// Compare `got` with the pinned `tests/fixtures/<subdir>/<name>`, or, with
/// `UPDATE_FIXTURES` set, write it there. Re-baseline only from a build
/// whose behaviour is known-good: the fixtures are the "before" side of a
/// byte-identity contract.
pub fn assert_pinned(subdir: &str, name: &str, got: &str, label: &str) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures").join(subdir);
    let path = dir.join(name);
    if std::env::var_os("UPDATE_FIXTURES").is_some() {
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(&path, got).unwrap();
        eprintln!("regenerated fixture {}", path.display());
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {} ({e}); regenerate with UPDATE_FIXTURES=1 \
             only from a known-good build",
            path.display()
        )
    });
    assert_eq!(got, want, "{label}: diverged from the pre-change pinned fixture");
}
