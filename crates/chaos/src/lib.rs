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
//! * [`shrink`](mod@shrink) — a greedy deterministic minimizer for failing cases.
//!
//! The `chaos` binary ties them together and prints each finding's
//! shrunk config as one line of JSON; pasted under a new name into the
//! `chaos/` section of the pinned-run table (`tests/src/pinned.rs`), that
//! line is strict-checked and pinned by `cargo test` from then on.
//! `scripts/ci.sh --fuzz-smoke` runs a bounded fixed-seed pass offline.
//!
//! Everything is deterministic in the seeds: the fuzzer itself is a
//! reproducible experiment.
//!
//! [`ScenarioConfig`]: elephants_experiments::ScenarioConfig

pub mod gen;
pub mod oracle;
pub mod shrink;

pub use gen::{case_cost, generate_case, CASE_EVENT_BUDGET};
pub use oracle::{judge, CaseOutcome, OracleKind};
pub use shrink::{shrink, ShrinkOutcome};

use elephants_experiments::{ScenarioConfig, SharedFlags};
use oracle::{judge_with, strict_run, RunFn};
use std::ops::RangeInclusive;

/// Options for one fuzzing campaign.
#[derive(Debug, Clone)]
pub struct FuzzOptions {
    /// Number of cases (seeds `base_seed .. base_seed + cases`).
    pub cases: u32,
    /// First case seed. The last, `base_seed + cases - 1`, must not pass
    /// `u64::MAX`; [`fuzz`] refuses options that would.
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
/// Options with no cases, or whose last seed passes `u64::MAX`, are
/// refused before any case runs.
pub fn fuzz(
    opts: &FuzzOptions,
    on_case: impl FnMut(u64, &CaseOutcome),
) -> Result<FuzzReport, String> {
    fuzz_with(opts, strict_run, on_case)
}

/// The seeds of `opts`' cases, or why there are none to run.
fn case_seeds(opts: &FuzzOptions) -> Result<RangeInclusive<u64>, String> {
    let last = opts.cases.checked_sub(1).ok_or("zero cases run nothing")?;
    let end = opts.base_seed.checked_add(u64::from(last)).ok_or_else(|| {
        format!("the last case's seed runs past the largest seed, {}", u64::MAX)
    })?;
    Ok(opts.base_seed..=end)
}

/// [`fuzz`], judging every case through `run`.
fn fuzz_with(
    opts: &FuzzOptions,
    run: RunFn,
    mut on_case: impl FnMut(u64, &CaseOutcome),
) -> Result<FuzzReport, String> {
    let mut report = FuzzReport::default();
    for seed in case_seeds(opts)? {
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
        let outcome = judge_with(&cfg, run);
        on_case(seed, &outcome);
        report.cases += 1;
        match outcome {
            CaseOutcome::Pass => report.passed += 1,
            CaseOutcome::Skip { .. } => report.skipped += 1,
            CaseOutcome::Fail { oracle, detail } => {
                let (shrunk, shrink_evals) = if opts.shrink {
                    let out = shrink(
                        &cfg,
                        |candidate| judge_with(candidate, run).failed_oracle() == Some(oracle),
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
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use elephants_experiments::{RunError, RunOutcome};
    use elephants_json::ToJson;
    use elephants_netsim::{SimDuration, STRICT_VIOLATION_PREFIX};

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
        let report = fuzz(&opts, |_, _| {}).unwrap();
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
        let report = fuzz(&opts, |s, outcome| seen.push((s, outcome.clone()))).unwrap();
        assert_eq!(report.cases, 1);
        assert_eq!(seen.len(), 1);
        assert_eq!(seen[0].0, seed);
        assert_eq!(report.passed + report.skipped, 1, "{:?}", report.findings);
        assert!(report.findings.is_empty(), "{:?}", report.findings);
    }

    #[test]
    fn a_campaign_without_cases_or_past_the_last_seed_is_refused() {
        let refused = |cases, base_seed| {
            let opts = FuzzOptions { cases, base_seed, ..Default::default() };
            let mut ran = 0;
            let err = fuzz(&opts, |_, _| ran += 1).unwrap_err();
            assert_eq!(ran, 0, "{err}");
            err
        };
        assert!(refused(0, 1).contains("zero cases"));
        assert!(refused(2, u64::MAX).contains("largest seed"));
        assert!(refused(u32::MAX, u64::MAX - u64::from(u32::MAX) + 2).contains("largest seed"));
        let last = FuzzOptions { cases: 2, base_seed: u64::MAX - 1, ..Default::default() };
        assert_eq!(case_seeds(&last).unwrap(), u64::MAX - 1..=u64::MAX);
    }

    /// The seeded break: a strict run of this many events or more fails as
    /// the strict checker does.
    const BREAK_AT_EVENTS: u64 = 2_000;

    /// The name the break reports itself under.
    const BREAK: &str = "seeded_break";

    /// The real strict run, then a strict-checker panic once the run is at
    /// least [`BREAK_AT_EVENTS`] long: a failure monotone in run size, so
    /// shrinking it is a real search.
    fn broken_run(cfg: &ScenarioConfig) -> Result<RunOutcome, RunError> {
        let outcome = strict_run(cfg)?;
        let events = outcome.first().events;
        if events >= BREAK_AT_EVENTS {
            panic!("{STRICT_VIOLATION_PREFIX}: {BREAK}: {events} events >= {BREAK_AT_EVENTS}");
        }
        Ok(outcome)
    }

    /// A fuzzer whose oracles never fire is indistinguishable from one
    /// that checks nothing: the fuzzer must find a seeded break, classify
    /// it as an invariant failure, and shrink it to the same minimal case
    /// on every run.
    #[test]
    fn seeded_invariant_break_is_found_and_shrunk_deterministically() {
        // A debug-mode-friendly victim seed: cheap case, no fault plan (the
        // generator is deterministic, so this scan always lands on the same
        // seed).
        let seed = (0..500u64)
            .find(|&s| {
                let c = generate_case(s);
                case_cost(&c) < 3_000_000 && c.faults.is_empty()
            })
            .expect("some cheap unfaulted case in 500 seeds");

        // 1. The fuzzer finds the break and classifies it.
        let opts = FuzzOptions {
            cases: 1,
            base_seed: seed,
            shrink: false, // shrink separately below, twice
            ..Default::default()
        };
        let report = fuzz_with(&opts, broken_run, |_, _| {}).unwrap();
        assert_eq!(report.findings.len(), 1, "the broken run must be a finding");
        let finding = &report.findings[0];
        assert_eq!(finding.oracle, OracleKind::Invariant, "detail: {}", finding.detail);
        assert!(finding.detail.contains(BREAK), "failure must name the break: {}", finding.detail);

        // 2. Shrinking is deterministic: two independent runs from the same
        //    finding produce byte-identical minimal configs.
        let predicate = |c: &ScenarioConfig| {
            matches!(
                judge_with(c, broken_run),
                CaseOutcome::Fail { oracle: OracleKind::Invariant, .. }
            )
        };
        let a = shrink(&finding.original, predicate, 100);
        let b = shrink(&finding.original, predicate, 100);
        assert_eq!(
            a.config.to_json_string(),
            b.config.to_json_string(),
            "shrinking must be deterministic"
        );
        assert_eq!(a.evals, b.evals);
        assert!(!a.budget_exhausted, "shrink must reach a fixpoint in budget");

        // 3. The minimal case is actually minimal for this bug: the break
        //    fires in any run this long, so every dimension shrinks to its
        //    floor.
        let min = &a.config;
        assert_eq!(min.flow_scale, 0.25);
        assert_eq!(min.duration, SimDuration::from_millis(500));
        assert!(min.warmup.is_zero());
        assert!(min.faults.is_empty());
        assert!(!min.coalesce && !min.ecn);
        assert_eq!(min.mss, 8900);
        assert_eq!(min.rtt_ms, 62);
        assert_eq!((min.queue_bdp, min.bw_bps), (2.0, 100_000_000));

        // 4. The shrunk case still reproduces (the line the fuzzer would
        //    print is a live repro while the bug exists).
        match judge_with(min, broken_run) {
            CaseOutcome::Fail { oracle: OracleKind::Invariant, detail } => {
                assert!(detail.contains(BREAK), "{detail}");
            }
            other => panic!("minimal case must still fail the invariant oracle: {other:?}"),
        }
    }
}
