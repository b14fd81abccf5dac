//! Chaos corpus replay: once-found bugs stay fixed.
//!
//! PR 8 adds the deterministic chaos harness (`crates/chaos`). Every
//! failure it ever finds is shrunk and committed as a fixture under
//! `tests/fixtures/chaos/`; this test re-judges the whole corpus through
//! the four-oracle stack on every `cargo test`, so a regression on any
//! previously-found minimal repro fails CI immediately.
//!
//! The corpus is seeded with a few **curated** generated cases (fault
//! plans, loss models, coalescing) so the replay path is exercised even
//! while the fuzzer has found no real bugs. A fixture stores a config, not
//! a seed, so what is asserted is that some committed cheap fixture
//! *covers* each corner — a change to the generator's seed -> case mapping
//! (a new CCA or AQM in its menus, say) leaves the corpus alone. When a
//! corner is uncovered, fill it from the generator with:
//!
//! ```sh
//! UPDATE_FIXTURES=1 cargo test -q -p integration-tests --test chaos_corpus
//! ```
//!
//! (then re-run without the env var to confirm everything judges clean).

use elephants::chaos::{
    case_cost, default_corpus_dir, fixture_stem, generate_case, load_corpus, replay_all,
    replay_failures, save_fixture, CaseOutcome, ChaosFixture,
};
use elephants::experiments::ScenarioConfig;
use elephants::json::ToJson;

/// Debug-mode budget per curated case: the judge runs every config twice
/// (determinism oracle), so keep each run to a few megabytes of traffic.
const CURATED_COST_CAP: u64 = 4_000_000;

type Corner = (&'static str, fn(&ScenarioConfig) -> bool);

/// The corners the corpus must cover with a cheap case each.
const CURATED_CORNERS: [Corner; 5] = [
    ("faulted", |c| !c.faults.is_empty()),
    ("lossy", |c| c.loss != elephants::netsim::LossModel::None),
    ("coalescing", |c| c.coalesce),
    ("multi-bottleneck", |c| c.topology.n_bottlenecks() > 1),
    ("staggered", |c| c.is_staggered()),
];

#[test]
fn curated_seed_fixtures_are_committed_and_current() {
    let dir = default_corpus_dir();
    let mut corpus: Vec<ScenarioConfig> = load_corpus(&dir)
        .expect("corpus must parse")
        .into_iter()
        .map(|(_, fixture)| fixture.config)
        .collect();
    for (tag, corner) in CURATED_CORNERS {
        let covers = |c: &ScenarioConfig| case_cost(c) < CURATED_COST_CAP && corner(c);
        if corpus.iter().any(covers) {
            continue;
        }
        assert!(
            std::env::var_os("UPDATE_FIXTURES").is_some(),
            "no cheap committed fixture covers `{tag}` — add one with UPDATE_FIXTURES=1"
        );
        // A deterministic scan over the generator's seed space.
        let (seed, config) = (0..10_000u64)
            .map(|s| (s, generate_case(s)))
            .find(|(_, c)| covers(c))
            .unwrap_or_else(|| panic!("no cheap generated case matching `{tag}` in 10k seeds"));
        let fixture = ChaosFixture {
            found_by_seed: seed,
            oracle: "curated".to_string(),
            detail: format!("curated seed corpus: cheap {tag} case"),
            config,
        };
        let path = save_fixture(&dir, &fixture).expect("write curated fixture");
        eprintln!("updated {}", path.display());
        corpus.push(fixture.config);
    }
}

/// A fixture is written by `save_fixture` as its `to_json_pretty()` under
/// the name of its config's content hash: re-encoding the committed files
/// pins both the pretty writer and the fingerprint.
#[test]
fn committed_fixtures_re_encode_to_their_bytes_and_names() {
    let corpus = load_corpus(&default_corpus_dir()).expect("corpus must parse");
    for (path, fixture) in &corpus {
        let text = std::fs::read_to_string(path).unwrap();
        let stem = path.file_stem().unwrap().to_str().unwrap();
        assert_eq!(fixture.to_json_pretty(), text, "{stem} re-encodes to its bytes");
        assert_eq!(fixture_stem(&fixture.config), stem, "{stem} is named by its config");
    }
}

#[test]
fn committed_corpus_replays_clean() {
    let dir = default_corpus_dir();
    let corpus = load_corpus(&dir).expect("corpus must parse");
    assert!(
        !corpus.is_empty(),
        "committed corpus must not be empty (curated seeds live in {})",
        dir.display()
    );
    let results = replay_all(&dir).expect("corpus must parse");
    let failures = replay_failures(&results);
    assert!(
        failures.is_empty(),
        "corpus regressions: {:?}",
        failures
            .iter()
            .map(|f| (f.path.display().to_string(), format!("{:?}", f.outcome)))
            .collect::<Vec<_>>()
    );
    // Skips are tolerated (wall-clock watchdog under load) but should be
    // loud in the log: a corpus that always skips checks nothing.
    for r in &results {
        if let CaseOutcome::Skip { reason } = &r.outcome {
            eprintln!("chaos fixture {} skipped: {reason}", r.path.display());
        }
    }
}
