//! The chaos rows of the pinned-run table: once-found bugs stay fixed.
//!
//! The fuzzer (`crates/chaos`) prints each finding's shrunk config as one
//! line of JSON. Pasted under a new name into the `chaos/` section of
//! `integration_tests::pinned`, that config is a row like any other: run
//! once under the strict checker at the seed in its line, the one the
//! case failed at, and pinned as its line of `tests/fixtures/runs.jsonl`.
//! Each row is also judged again by the fuzzer's four oracles, so a
//! finding in the determinism or round-trip oracle stays fixed too.
//!
//! The section is seeded with **curated** generated cases from the
//! corners of the fuzzer's space, so the path is exercised even while the
//! fuzzer has found no real bugs. A row stores a config, not a seed, so
//! what is asserted is that some cheap row *covers* each corner: a change
//! to the generator's seed -> case mapping (a new CCA or AQM in its menus,
//! say) leaves the rows alone.

use elephants::chaos::{case_cost, judge};
use elephants::experiments::{Runner, ScenarioConfig};
use elephants::json::ToJson;
use integration_tests::pinned;

/// Debug-mode budget per curated row: a few megabytes of traffic.
const CURATED_COST_CAP: u64 = 4_000_000;

type Corner = (&'static str, fn(&ScenarioConfig) -> bool);

/// The corners the `chaos/` rows must cover with a cheap case each.
const CURATED_CORNERS: [Corner; 5] = [
    ("faulted", |c| !c.faults.is_empty()),
    ("lossy", |c| c.loss != elephants::netsim::LossModel::None),
    ("coalescing", |c| c.coalesce),
    ("multi-bottleneck", |c| c.topology.n_bottlenecks() > 1),
    ("staggered", |c| c.is_staggered()),
];

#[test]
fn curated_seed_fixtures_are_committed_and_current() {
    let rows = pinned::configs("chaos/");
    for (tag, corner) in CURATED_CORNERS {
        assert!(
            rows.iter().any(|c| case_cost(c) < CURATED_COST_CAP && corner(c)),
            "no cheap chaos/ row covers `{tag}`: add a generated case that does"
        );
    }
}

#[test]
fn committed_corpus_replays_clean() {
    pinned::check("chaos/");
    for cfg in pinned::configs("chaos/") {
        let outcome = judge(&cfg);
        assert!(outcome.failed_oracle().is_none(), "{}: {outcome:?}", cfg.to_json_string());
    }
}

/// A row's line is its run at the seed in its config. Some row's run at
/// seed 42, the seed of every hand-built row, is another run, so the pins
/// show which seed the rows run at.
#[test]
fn chaos_rows_run_at_the_seed_in_their_line() {
    let fixture = concat!(env!("CARGO_MANIFEST_DIR"), "/fixtures/runs.jsonl");
    let text = std::fs::read_to_string(fixture).unwrap();
    let pinned: Vec<u64> = text
        .lines()
        .filter(|l| l.starts_with(r#"{"cell":"chaos/"#))
        .map(|l| {
            let n = l.split(r#""events_processed":"#).nth(1).and_then(|n| n.split(',').next());
            n.and_then(|n| n.parse().ok()).unwrap_or_else(|| panic!("no event count: {l}"))
        })
        .collect();
    let rows = pinned::configs("chaos/");
    assert_eq!(rows.len(), pinned.len(), "one line per chaos/ row");
    let mut moved = 0;
    for (cfg, want) in rows.iter().zip(pinned) {
        let events = |seed| Runner::new(cfg).seed(seed).run().unwrap().first().events;
        assert_eq!(events(cfg.seed), want, "seed {}: not the pinned run", cfg.seed);
        moved += usize::from(events(42) != want);
    }
    assert!(moved > 0, "every chaos/ row runs alike at seed 42");
}
