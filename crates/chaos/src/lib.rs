//! Deterministic chaos harness for the elephants simulator.
//!
//! The repo's scenario space (CCA × AQM × RTT × queue × loss × fault
//! timing × coalescing) is far larger than any hand-written test grid;
//! pathologies live in the corners. This crate drives the existing
//! ingredients adversarially:
//!
//! * [`gen`] — a seeded generator sampling random-but-valid
//!   [`ScenarioConfig`]s (faults, loss models, coalescing included),
//! * [`oracle`] — the four-oracle judge (invariants, graceful
//!   termination, determinism, artifact round-trip) running each case
//!   under `CheckMode::Strict` inside `catch_unwind`,
//! * [`shrink`](mod@shrink) — a greedy deterministic minimizer for failing cases,
//! * [`corpus`] — committed minimal repros replayed forever by
//!   `cargo test`.
//!
//! The `chaos` binary ties them together; `scripts/ci.sh --fuzz-smoke`
//! runs a bounded fixed-seed pass plus the corpus replay offline.
//!
//! Everything is deterministic in the seeds: the fuzzer itself is a
//! reproducible experiment.
//!
//! [`ScenarioConfig`]: elephants_experiments::ScenarioConfig

pub mod corpus;
pub mod gen;
pub mod oracle;
pub mod shrink;

pub use corpus::{
    default_corpus_dir, fixture_stem, load_corpus, replay_all, replay_failures, save_fixture,
    ChaosFixture, ReplayResult,
};
pub use gen::{case_cost, generate_case, CASE_EVENT_BUDGET};
pub use oracle::{judge, CaseOutcome, OracleKind};
pub use shrink::{shrink, ShrinkOutcome};

use elephants_experiments::{ScenarioConfig, SharedFlags};

/// Options for one fuzzing campaign.
#[derive(Debug, Clone)]
pub struct FuzzOptions {
    /// Number of cases (seeds `base_seed .. base_seed + cases`).
    pub cases: u32,
    /// First case seed. The last, `base_seed + cases - 1`, must not pass
    /// `u64::MAX`; the `chaos` binary refuses flags that would.
    pub base_seed: u64,
    /// Shrink failing cases before reporting them (at most
    /// 200 evaluations each).
    pub shrink: bool,
    /// Shared scenario flags pinned over every generated case (the chaos
    /// binary's `--loss`/`--flap`/`--coalesce`/`--topology`/`--fault-link`).
    /// A case the pins cannot validly apply to is counted as a skip.
    pub overrides: Option<SharedFlags>,
}

impl Default for FuzzOptions {
    fn default() -> Self {
        FuzzOptions {
            cases: 200,
            base_seed: 1,
            shrink: true,
            overrides: None,
        }
    }
}

/// One failing case, minimized when shrinking was on.
#[derive(Debug, Clone)]
pub struct Finding {
    /// The case seed.
    pub seed: u64,
    /// The oracle it tripped.
    pub oracle: OracleKind,
    /// Failure detail from the original (pre-shrink) judgment.
    pub detail: String,
    /// The config as generated.
    pub original: ScenarioConfig,
    /// The minimal config still failing the same oracle (equals
    /// `original` when shrinking was off or could not simplify).
    pub shrunk: ScenarioConfig,
    /// Shrink statistics, when shrinking ran.
    pub shrink_evals: u32,
}

impl Finding {
    /// The corpus fixture for this finding.
    pub fn fixture(&self) -> ChaosFixture {
        ChaosFixture {
            found_by_seed: self.seed,
            oracle: self.oracle.to_string(),
            detail: self.detail.clone(),
            config: self.shrunk.clone(),
        }
    }
}

/// Aggregate result of a fuzzing campaign.
#[derive(Debug, Default)]
pub struct FuzzReport {
    /// Cases executed.
    pub cases: u32,
    /// Cases passing all four oracles.
    pub passed: u32,
    /// Cases skipped (wall-clock watchdog under machine load).
    pub skipped: u32,
    /// Failing cases, in seed order.
    pub findings: Vec<Finding>,
}

impl FuzzReport {
    /// The one-line machine-greppable summary (`scripts/ci.sh` asserts
    /// on this exact shape).
    pub fn summary_line(&self) -> String {
        format!(
            "chaos-summary: cases={} passed={} skipped={} failed={}",
            self.cases,
            self.passed,
            self.skipped,
            self.findings.len(),
        )
    }
}

/// Run a fuzzing campaign. `on_case` is called after each case with its
/// seed and outcome (progress reporting; pass `|_, _| {}` to ignore).
pub fn fuzz(opts: &FuzzOptions, mut on_case: impl FnMut(u64, &CaseOutcome)) -> FuzzReport {
    let mut report = FuzzReport::default();
    for i in 0..opts.cases {
        let seed = opts.base_seed + i as u64;
        let mut cfg = generate_case(seed);
        if let Some(pins) = &opts.overrides {
            if let Err(e) = pins.apply(&mut cfg) {
                // e.g. a pinned --fault-link outside a generated dumbbell:
                // not a simulator failure, just not a runnable combination.
                let outcome = CaseOutcome::Skip { reason: format!("pinned flags: {e}") };
                on_case(seed, &outcome);
                report.cases += 1;
                report.skipped += 1;
                continue;
            }
        }
        let outcome = judge(&cfg);
        on_case(seed, &outcome);
        report.cases += 1;
        match outcome {
            CaseOutcome::Pass => report.passed += 1,
            CaseOutcome::Skip { .. } => report.skipped += 1,
            CaseOutcome::Fail { oracle, detail } => {
                let (shrunk, shrink_evals) = if opts.shrink {
                    let out = shrink(
                        &cfg,
                        |candidate| judge(candidate).failed_oracle() == Some(oracle),
                        shrink::DEFAULT_SHRINK_EVALS,
                    );
                    (out.config, out.evals)
                } else {
                    (cfg.clone(), 0)
                };
                report.findings.push(Finding {
                    seed,
                    oracle,
                    detail,
                    original: cfg,
                    shrunk,
                    shrink_evals,
                });
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_line_shape_is_stable() {
        let mut report = FuzzReport { cases: 7, passed: 5, skipped: 2, ..Default::default() };
        assert_eq!(report.summary_line(), "chaos-summary: cases=7 passed=5 skipped=2 failed=0");
        report.findings.push(Finding {
            seed: 3,
            oracle: OracleKind::Invariant,
            detail: "x".into(),
            original: generate_case(3),
            shrunk: generate_case(3),
            shrink_evals: 0,
        });
        assert!(report.summary_line().ends_with("failed=1"));
    }

    #[test]
    fn unapplicable_pins_skip_instead_of_failing() {
        // No generated topology has 6 bottleneck hops, so a pinned
        // --fault-link 5 can never validate: every case must skip (and
        // none must reach the simulator, keeping this debug-mode cheap).
        let opts = FuzzOptions {
            cases: 3,
            overrides: Some(SharedFlags { fault_link: Some(5), ..Default::default() }),
            ..Default::default()
        };
        let report = fuzz(&opts, |_, _| {});
        assert_eq!(report.cases, 3);
        assert_eq!(report.skipped, 3);
        assert!(report.findings.is_empty());
    }

    #[test]
    fn tiny_campaign_passes_and_counts_every_case() {
        // Two known-cheap seeds through the full judge (each case runs
        // twice for the determinism oracle): the real end-to-end path,
        // small enough for debug-mode CI. The ≥200-case campaign runs in
        // release via `scripts/ci.sh --fuzz-smoke` and the acceptance run.
        let seed = (0..)
            .find(|&s| {
                let c = generate_case(s);
                case_cost(&c) < 4_000_000 && !c.coalesce
            })
            .unwrap();
        let opts = FuzzOptions { cases: 1, base_seed: seed, ..Default::default() };
        let mut seen = Vec::new();
        let report = fuzz(&opts, |s, outcome| seen.push((s, outcome.clone())));
        assert_eq!(report.cases, 1);
        assert_eq!(seen.len(), 1);
        assert_eq!(seen[0].0, seed);
        assert_eq!(report.passed + report.skipped, 1, "{:?}", report.findings);
        assert!(report.findings.is_empty(), "{:?}", report.findings);
    }
}
