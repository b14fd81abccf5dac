//! Cross-crate integration tests for the `elephants` workspace live in
//! `tests/tests/`. This library hosts shared helpers, [`pinned`], the
//! table of pinned runs, and [`check_claim`], which judges one row of the
//! claims table.

pub mod pinned;

use elephants::experiments::claims::{Claim, Reading};
use elephants::experiments::{
    AveragedResult, Recording, RunOptions, Runner, ScenarioBuilder, ScenarioConfig,
};

/// Run `cfg` at seeds `cfg.seed..cfg.seed + repeats` and average them.
pub fn run_study(cfg: &ScenarioConfig, repeats: u32) -> AveragedResult {
    Runner::new(cfg)
        .repeats(repeats)
        .run()
        .unwrap_or_else(|e| panic!("run failed ({}): {e}", cfg.label()))
        .into_averaged()
}

/// Runs the scenarios of the claim `id` of the claims table at seed 1 (or
/// its row's own), each recorded, reads them as the row does and fails
/// with its judge's line unless the claim holds.
pub fn check_claim(id: &str) {
    let claim = Claim::find(id);
    let name = format!("elephants-claim-{}-{}", id.replace('/', "-"), std::process::id());
    let records = std::env::temp_dir().join(name);
    let read = |scenario: ScenarioBuilder| {
        let cfg = scenario.build().unwrap_or_else(|e| panic!("{id}: {e}"));
        let recording = Recording::flows_only().out_dir(&records).svg(false);
        let outcome = Runner::new(&cfg).recorder(recording).run();
        (claim.read)(&outcome.unwrap_or_else(|e| panic!("{id}: {e}")))
    };
    let readings: Vec<Reading> = (claim.runs)(&RunOptions::standard()).into_iter().map(read).collect();
    let judgement = claim.judge(&readings);
    std::fs::remove_dir_all(&records).ok();
    assert!(judgement.holds, "{}", judgement.line);
}

/// `claim_tests!("file":` one `claim,` a line `)`: one test per claim,
/// named after it, that judges the row `file/claim` through
/// [`check_claim`].
#[macro_export]
macro_rules! claim_tests {
    ($judge:literal: $($claim:ident,)+) => {$(
        #[test]
        fn $claim() {
            $crate::check_claim(concat!($judge, "/", stringify!($claim)));
        }
    )+};
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
