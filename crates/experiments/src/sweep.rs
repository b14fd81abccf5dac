//! Parallel execution of scenario grids, with graceful degradation.
//!
//! Every `(config, seed)` run is an independent deterministic simulation, so
//! the grid is embarrassingly parallel: flatten configs × seeds into one
//! work list and hand it to the executor in [`crate::par`]. Each worker owns
//! its simulator — no shared mutable state, no locks (the "share nothing"
//! idiom from the hpc-parallel guides).
//!
//! The fault-tolerant entry points ([`try_sweep_with_workers`],
//! [`try_sweep_reporting`]) never abort the grid: a panicking cell is
//! isolated by [`par_try_map_with_workers`], a runaway cell is stopped by the
//! runner's event-budget/wall-clock watchdogs, and each failure is recorded
//! as a [`FailedRun`] in the [`SweepOutput`]. Every failure whose
//! [`RunError::is_retryable`] holds — the environment-dependent classes:
//! wall-clock overruns (machine load) and Io (filesystem) — gets a single
//! bounded retry before being reported; deterministic classes (panic,
//! event budget, invalid config) would fail identically and are not
//! retried. [`sweep`] keeps the all-or-nothing contract figure assembly
//! wants.

use crate::cache::RunCache;
use crate::par::par_try_map_with_workers;
use crate::runner::{average_runs, repeat_seeds, AveragedResult, RunError, RunResult};
use crate::scenario::ScenarioConfig;
use elephants_json::impl_json_struct;

/// One `(config, seed)` cell that did not produce a result.
#[derive(Debug, Clone, PartialEq)]
pub struct FailedRun {
    /// The scenario that failed.
    pub config: ScenarioConfig,
    /// The seed that failed.
    pub seed: u64,
    /// Why.
    pub error: RunError,
}

impl_json_struct!(FailedRun { config, seed, error });

/// Everything a fault-tolerant sweep produces.
#[derive(Debug, Clone)]
pub struct SweepOutput {
    /// Averages for every config with at least one successful run, in
    /// input order. A config whose every seed failed appears only in
    /// `failed`.
    pub results: Vec<AveragedResult>,
    /// Every failed `(config, seed)` cell, in work order.
    pub failed: Vec<FailedRun>,
    /// Retries attempted for retryable-class failures (wall-clock, Io).
    pub retried: u64,
    /// Cache write failures observed by *this sweep's* cache instance
    /// (zero when the sweep ran without a cache, e.g. in the generic test
    /// seam).
    pub cache_put_errors: u64,
    /// Unparsable cache entries quarantined by this sweep's cache instance
    /// (same scoping as `cache_put_errors`).
    pub cache_quarantined: u64,
    /// Runs the cache instance made under the invariant checker (cells
    /// served from the cache are not re-run, so not checked).
    pub checked_runs: u64,
    /// Invariant violations counted over those runs.
    pub check_violations: u64,
}

impl SweepOutput {
    /// One-line health summary for sweep binaries and logs.
    pub fn summary_line(&self) -> String {
        format!(
            "configs_ok: {}  failed_cells: {}  retried: {}  cache_put_errors: {}  \
             cache_quarantined: {}  checked_runs: {}  check_violations: {}",
            self.results.len(),
            self.failed.len(),
            self.retried,
            self.cache_put_errors,
            self.cache_quarantined,
            self.checked_runs,
            self.check_violations,
        )
    }
}

/// The `(config index, seed)` cells to run. A config whose last repeat's
/// seed would overflow `u64` is not run: it becomes one failed cell at its
/// base seed.
fn work_list(configs: &[ScenarioConfig], repeats: u32) -> (Vec<(usize, u64)>, Vec<FailedRun>) {
    let mut work = Vec::new();
    let mut failed = Vec::new();
    for (i, cfg) in configs.iter().enumerate() {
        match repeat_seeds(cfg.seed, repeats) {
            Ok(seeds) => work.extend(seeds.map(|seed| (i, seed))),
            Err(error) => failed.push(FailedRun { config: cfg.clone(), seed: cfg.seed, error }),
        }
    }
    (work, failed)
}

/// The engine under every sweep entry point: run the work list through the
/// panic-isolating executor, retry wall-clock failures once, regroup.
///
/// Generic over the runner so tests can inject failing cells; production
/// callers go through [`try_sweep_cached`], which plugs in the cached runner.
fn try_sweep_impl<F>(
    configs: &[ScenarioConfig],
    repeats: u32,
    workers: usize,
    runner: F,
    progress: Option<&(dyn Fn(usize, usize) + Sync)>,
) -> SweepOutput
where
    F: Fn(&ScenarioConfig, u64) -> Result<RunResult, RunError> + Sync,
{
    let repeats = repeats.max(1);
    let (work, mut failed) = work_list(configs, repeats);
    let total = work.len();
    let counter = std::sync::atomic::AtomicUsize::new(0);

    let run_one = |&(i, seed): &(usize, u64)| {
        let out = runner(&configs[i], seed);
        if let Some(progress) = progress {
            let done = counter.fetch_add(1, std::sync::atomic::Ordering::Relaxed) + 1;
            progress(done, total);
        }
        out
    };

    // First pass: a panic inside the runner becomes Err(payload) for that
    // cell; everything else keeps running.
    let mut outcomes: Vec<Result<RunResult, RunError>> =
        par_try_map_with_workers(&work, workers, run_one)
            .into_iter()
            .map(|r| match r {
                Ok(inner) => inner,
                Err(payload) => Err(RunError::panic(payload)),
            })
            .collect();

    // Single bounded retry for every retryable failure class: wall-clock
    // overruns depend on machine load and Io on the filesystem, so one
    // more attempt is cheap and often enough. Deterministic failures
    // (panic, event budget, invalid config) would fail identically and
    // are not retried.
    let retry_idx: Vec<usize> = outcomes
        .iter()
        .enumerate()
        .filter(|(_, o)| o.as_ref().err().is_some_and(|e| e.is_retryable()))
        .map(|(idx, _)| idx)
        .collect();
    let retried = retry_idx.len() as u64;
    if !retry_idx.is_empty() {
        let retry_work: Vec<(usize, u64)> = retry_idx.iter().map(|&idx| work[idx]).collect();
        let second: Vec<Result<RunResult, RunError>> =
            par_try_map_with_workers(&retry_work, workers, run_one)
                .into_iter()
                .map(|r| match r {
                    Ok(inner) => inner,
                    Err(payload) => Err(RunError::panic(payload)),
                })
                .collect();
        for (&idx, outcome) in retry_idx.iter().zip(second) {
            outcomes[idx] = outcome;
        }
    }

    // Regroup by config, preserving seed order; collect failures in work
    // order, after the configs whose seeds overflowed.
    let mut grouped: Vec<Vec<RunResult>> =
        vec![Vec::with_capacity(repeats as usize); configs.len()];
    for (&(i, seed), outcome) in work.iter().zip(outcomes) {
        match outcome {
            Ok(run) => grouped[i].push(run),
            Err(error) => {
                failed.push(FailedRun { config: configs[i].clone(), seed, error })
            }
        }
    }
    let results = configs
        .iter()
        .zip(grouped)
        .filter(|(_, runs)| !runs.is_empty())
        .map(|(cfg, runs)| average_runs(cfg.clone(), runs))
        .collect();
    SweepOutput {
        results,
        failed,
        retried,
        // The generic engine has no cache; `try_sweep_cached` fills these
        // from its instance's counters after the sweep finishes.
        cache_put_errors: 0,
        cache_quarantined: 0,
        checked_runs: 0,
        check_violations: 0,
    }
}

/// Run every config for `repeats` seeds, in parallel, through the cache,
/// degrading gracefully: failed cells are recorded, not fatal.
fn try_sweep_cached(
    configs: &[ScenarioConfig],
    repeats: u32,
    cache: &RunCache,
    workers: usize,
    progress: Option<&(dyn Fn(usize, usize) + Sync)>,
) -> SweepOutput {
    let mut out = try_sweep_impl(
        configs,
        repeats,
        workers,
        |cfg, seed| cache.run_checked(cfg, seed),
        progress,
    );
    // The instance's own counters: a concurrent sweep (or parallel test)
    // on another cache cannot leak its incidents into this summary.
    out.cache_put_errors = cache.put_errors();
    out.cache_quarantined = cache.quarantined();
    out.checked_runs = cache.checked_runs();
    out.check_violations = cache.check_violations();
    out
}

/// Fault-tolerant sweep with an explicit worker count (`0` means the
/// default).
///
/// The output must not depend on `workers`: runs are independent and
/// reassembled in input order, so any thread count yields byte-identical
/// results — the determinism suite pins this for faulted scenarios.
pub fn try_sweep_with_workers(
    configs: &[ScenarioConfig],
    repeats: u32,
    cache: &RunCache,
    workers: usize,
) -> SweepOutput {
    try_sweep_cached(configs, repeats, cache, workers, None)
}

/// Progress-reporting fault-tolerant sweep: calls `progress(done, total)`
/// as runs finish.
pub fn try_sweep_reporting(
    configs: &[ScenarioConfig],
    repeats: u32,
    cache: &RunCache,
    progress: impl Fn(usize, usize) + Sync,
) -> SweepOutput {
    try_sweep_cached(configs, repeats, cache, 0, Some(&progress))
}

/// Run every config for `repeats` seeds, in parallel, through the cache.
///
/// Results come back in the same order as `configs`.
///
/// # Panics
/// Panics if any cell fails — figure assembly needs the full grid. Use
/// [`try_sweep_with_workers`] for graceful degradation.
pub fn sweep(configs: &[ScenarioConfig], repeats: u32, cache: &RunCache) -> Vec<AveragedResult> {
    let out = try_sweep_with_workers(configs, repeats, cache, 0);
    if let Some(first) = out.failed.first() {
        panic!(
            "{} cell(s) failed; first: ({}, seed {}): {}",
            out.failed.len(),
            first.config.label(),
            first.seed,
            first.error,
        );
    }
    out.results
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{RunErrorKind, Runner};
    use crate::scenario::{RunOptions, ScenarioConfig};
    use elephants_aqm::AqmKind;
    use elephants_cca::CcaKind;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn cfgs() -> Vec<ScenarioConfig> {
        let opts = RunOptions::quick();
        vec![
            ScenarioConfig::new(CcaKind::Cubic, CcaKind::Cubic, AqmKind::Fifo, 1.0, 100_000_000, &opts),
            ScenarioConfig::new(CcaKind::Reno, CcaKind::Cubic, AqmKind::Fifo, 1.0, 100_000_000, &opts),
        ]
    }

    #[test]
    fn sweep_preserves_order_and_matches_serial() {
        let cache = RunCache::disabled();
        let results = sweep(&cfgs(), 1, &cache);
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].config.cca1, CcaKind::Cubic);
        assert_eq!(results[1].config.cca1, CcaKind::Reno);
        // Parallel result equals a direct serial run (determinism).
        let serial = Runner::new(&cfgs()[0]).run().unwrap().into_first();
        assert_eq!(results[0].runs[0].events, serial.events);
    }

    #[test]
    fn progress_counts_every_run() {
        let cache = RunCache::disabled();
        let n = std::sync::atomic::AtomicUsize::new(0);
        let _ = try_sweep_reporting(&cfgs(), 2, &cache, |_, total| {
            assert_eq!(total, 4);
            n.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        });
        assert_eq!(n.load(std::sync::atomic::Ordering::Relaxed), 4);
    }

    #[test]
    fn audit_sweep_reports_what_it_checked_and_a_warm_pass_checks_nothing() {
        use elephants_netsim::CheckMode;
        let tmp = std::env::temp_dir().join(format!("elephants-sweep-audit-{}", std::process::id()));
        let cold = try_sweep_with_workers(&cfgs(), 2, &RunCache::new(&tmp).check(CheckMode::Audit), 0);
        assert!(cold.failed.is_empty(), "{:?}", cold.failed);
        assert_eq!((cold.checked_runs, cold.check_violations), (4, 0), "2 configs x 2 seeds, clean");
        assert!(
            cold.summary_line().ends_with("checked_runs: 4  check_violations: 0"),
            "{}",
            cold.summary_line()
        );
        // Same directory, fresh counters: every cell is a hit, none is re-run.
        let warm = try_sweep_with_workers(&cfgs(), 2, &RunCache::new(&tmp).check(CheckMode::Audit), 0);
        assert_eq!(warm.checked_runs, 0, "a cached cell must not pay the checker");
        assert_eq!(warm.results[1].runs[1].events, cold.results[1].runs[1].events);
        std::fs::remove_dir_all(&tmp).ok();
    }

    /// The acceptance scenario: one panicking cell, one event-budget cell,
    /// the rest healthy. The sweep completes every remaining cell and
    /// reports exactly the two failures with their causes.
    #[test]
    fn one_panic_and_one_budget_cell_degrade_gracefully() {
        let opts = RunOptions::quick();
        let mut configs = vec![
            ScenarioConfig::new(CcaKind::Cubic, CcaKind::Cubic, AqmKind::Fifo, 1.0, 100_000_000, &opts),
            ScenarioConfig::new(CcaKind::Reno, CcaKind::Cubic, AqmKind::Fifo, 1.0, 100_000_000, &opts),
            ScenarioConfig::new(CcaKind::Reno, CcaKind::Reno, AqmKind::Fifo, 1.0, 100_000_000, &opts),
        ];
        // Cell 1 exceeds a deliberately tiny event budget (a real watchdog
        // trip, not an injected error).
        configs[1].max_events = 1_000;

        let out = try_sweep_impl(
            &configs,
            1,
            0,
            |cfg, seed| {
                if cfg.cca1 == CcaKind::Cubic {
                    panic!("injected poison for {}", cfg.label());
                }
                Runner::new(cfg).seed(seed).run().map(crate::runner::RunOutcome::into_first)
            },
            None,
        );

        assert_eq!(out.failed.len(), 2, "exactly two FailedRun entries: {:?}", out.failed);
        let panic_fail =
            out.failed.iter().find(|f| f.error.kind == RunErrorKind::Panic).expect("panic cell");
        assert!(panic_fail.error.detail.contains("injected poison"), "{}", panic_fail.error);
        let budget_fail = out
            .failed
            .iter()
            .find(|f| f.error.kind == RunErrorKind::EventBudget)
            .expect("budget cell");
        assert!(budget_fail.error.detail.contains("event budget"), "{}", budget_fail.error);
        // The healthy cell completed.
        assert_eq!(out.results.len(), 1);
        assert_eq!(out.results[0].config.cca1, CcaKind::Reno);
        assert_eq!(out.results[0].config.cca2, CcaKind::Reno);
        assert_eq!(out.retried, 0, "neither class is retryable");
    }

    #[test]
    fn wall_clock_failures_get_one_retry() {
        let opts = RunOptions::quick();
        let configs = vec![ScenarioConfig::new(
            CcaKind::Reno,
            CcaKind::Reno,
            AqmKind::Fifo,
            1.0,
            100_000_000,
            &opts,
        )];
        let attempts = AtomicU64::new(0);
        let out = try_sweep_impl(
            &configs,
            1,
            0,
            |cfg, seed| {
                if attempts.fetch_add(1, Ordering::Relaxed) == 0 {
                    // Transient overload on the first attempt only.
                    Err(RunError {
                        kind: RunErrorKind::WallClock,
                        detail: "simulated transient stall".to_string(),
                    })
                } else {
                    Runner::new(cfg).seed(seed).run().map(crate::runner::RunOutcome::into_first)
                }
            },
            None,
        );
        assert_eq!(out.retried, 1);
        assert!(out.failed.is_empty(), "retry must clear the transient failure");
        assert_eq!(out.results.len(), 1);
        assert_eq!(attempts.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn transient_io_failures_get_one_retry() {
        let opts = RunOptions::quick();
        let configs = vec![ScenarioConfig::new(
            CcaKind::Reno,
            CcaKind::Reno,
            AqmKind::Fifo,
            1.0,
            100_000_000,
            &opts,
        )];
        let attempts = AtomicU64::new(0);
        let out = try_sweep_impl(
            &configs,
            1,
            0,
            |cfg, seed| {
                if attempts.fetch_add(1, Ordering::Relaxed) == 0 {
                    // e.g. a record write racing a disk-full blip.
                    Err(RunError {
                        kind: RunErrorKind::Io,
                        detail: "simulated transient write failure".to_string(),
                    })
                } else {
                    Runner::new(cfg).seed(seed).run().map(crate::runner::RunOutcome::into_first)
                }
            },
            None,
        );
        assert_eq!(out.retried, 1, "Io is retryable and must be retried");
        assert!(out.failed.is_empty(), "retry must clear the transient Io failure");
        assert_eq!(out.results.len(), 1);
        assert_eq!(attempts.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn persistent_io_failure_is_recorded_after_its_single_retry() {
        let opts = RunOptions::quick();
        let configs = vec![ScenarioConfig::new(
            CcaKind::Reno,
            CcaKind::Reno,
            AqmKind::Fifo,
            1.0,
            100_000_000,
            &opts,
        )];
        let attempts = AtomicU64::new(0);
        let out = try_sweep_impl(
            &configs,
            1,
            0,
            |_cfg, _seed| {
                attempts.fetch_add(1, Ordering::Relaxed);
                Err(RunError {
                    kind: RunErrorKind::Io,
                    detail: "simulated persistent write failure".to_string(),
                })
            },
            None,
        );
        assert_eq!(out.retried, 1, "one bounded retry, then give up");
        assert_eq!(attempts.load(Ordering::Relaxed), 2, "exactly two attempts total");
        assert_eq!(out.failed.len(), 1, "persistent failure becomes a FailedRun");
        assert_eq!(out.failed[0].error.kind, RunErrorKind::Io);
        assert!(out.results.is_empty());
    }

    #[test]
    fn all_seeds_failing_drops_the_config_from_results() {
        let mut configs = cfgs();
        // Its second seed would be past u64::MAX: failed before it runs.
        configs.push(ScenarioConfig { seed: u64::MAX, ..configs[0].clone() });
        let out = try_sweep_impl(
            &configs,
            2,
            0,
            |cfg, seed| {
                if cfg.cca1 == CcaKind::Reno {
                    panic!("always fails");
                }
                Runner::new(cfg).seed(seed).run().map(crate::runner::RunOutcome::into_first)
            },
            None,
        );
        assert_eq!(out.results.len(), 1, "failed config must not appear in results");
        assert_eq!(out.failed.len(), 3, "both seeds recorded, plus the overflowing config");
        assert_eq!(out.failed[0].error.kind, RunErrorKind::InvalidConfig);
        assert_eq!(out.failed[0].seed, u64::MAX);
        // Surviving config averaged over both seeds.
        assert_eq!(out.results[0].runs.len(), 2);
    }

    #[test]
    #[should_panic(expected = "cell(s) failed")]
    fn legacy_sweep_panics_on_failure() {
        let opts = RunOptions::quick();
        let mut cfg = ScenarioConfig::new(
            CcaKind::Cubic,
            CcaKind::Cubic,
            AqmKind::Fifo,
            1.0,
            100_000_000,
            &opts,
        );
        cfg.max_events = 100; // guaranteed budget trip
        let cache = RunCache::disabled();
        let _ = sweep(&[cfg], 1, &cache);
    }
}
