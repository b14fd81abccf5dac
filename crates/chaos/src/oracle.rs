//! The oracle stack: what "this case passed" means.
//!
//! Every case is executed through [`Runner`] under `CheckMode::Strict`
//! inside `catch_unwind`, and judged against four oracles:
//!
//! 1. **Invariant** — the strict runtime checker must not fire (a strict
//!    violation panics with a payload that starts with
//!    [`STRICT_VIOLATION_PREFIX`], which the judge catches and classifies).
//! 2. **Termination** — the run must end in `Ok` or a *classified*
//!    [`RunError`]; any other panic escaping the runner is a failure.
//! 3. **Determinism** — executing the same `(config, seed)` twice must
//!    produce byte-identical `RunMetrics` JSON (or byte-identical error
//!    JSON: failures must be as reproducible as successes).
//! 4. **RoundTrip** — every emitted JSON artifact (the config itself,
//!    the metrics, the error) must re-parse to a value that re-serializes
//!    to the same bytes.
//!
//! Wall-clock errors are the one machine-load-dependent outcome; a case
//! hitting the watchdog is reported as a [`CaseOutcome::Skip`], never a
//! failure — a loaded CI box must not manufacture chaos findings.

use elephants_experiments::par::payload_to_string;
use elephants_experiments::{RunError, RunErrorKind, RunOutcome, Runner, ScenarioConfig};
use elephants_json::{FromJson, ToJson};
use elephants_metrics::RunMetrics;
use elephants_netsim::{CheckMode, STRICT_VIOLATION_PREFIX};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

/// Per-run wall-clock watchdog for fuzz cases. Generated cases simulate
/// ≤ 3 s at ≤ 500 Mbps — seconds of wall time in release; a minute means
/// the machine is swamped (→ Skip), not that the case is interesting.
const CASE_WALL_LIMIT: Duration = Duration::from_secs(60);

/// Which oracle a failing case tripped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OracleKind {
    /// The strict invariant checker fired inside the run.
    Invariant,
    /// A panic other than a strict-checker violation escaped the run.
    Termination,
    /// Two executions of the same case disagreed.
    Determinism,
    /// An emitted JSON artifact did not survive parse → re-serialize.
    RoundTrip,
}

impl std::fmt::Display for OracleKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{self:?}")
    }
}

/// The judge's verdict on one case.
#[derive(Debug, Clone, PartialEq)]
pub enum CaseOutcome {
    /// All four oracles clean.
    Pass,
    /// Environment-dependent outcome (wall-clock watchdog); not a finding.
    Skip {
        /// Why the case was skipped.
        reason: String,
    },
    /// An oracle failed.
    Fail {
        /// Which oracle.
        oracle: OracleKind,
        /// Human-readable failure detail.
        detail: String,
    },
}

impl CaseOutcome {
    /// The failing oracle, if this is a failure.
    pub fn failed_oracle(&self) -> Option<OracleKind> {
        match self {
            CaseOutcome::Fail { oracle, .. } => Some(*oracle),
            _ => None,
        }
    }
}

/// What one strict-checked execution of a case produced.
enum ExecResult {
    /// Run succeeded; canonical `RunMetrics` JSON of the base-seed run.
    Metrics(String),
    /// Run failed with a classified error.
    Error(RunError),
    /// A panic escaped the runner.
    Panic {
        /// Whether the payload is a strict-checker violation.
        invariant: bool,
        /// The panic payload, stringified.
        payload: String,
    },
}

/// How the judge runs a case: [`strict_run`] outside this crate's tests.
pub(crate) type RunFn = fn(&ScenarioConfig) -> Result<RunOutcome, RunError>;

/// One run of `cfg` at its own base seed under the strict checker and
/// the 60 s wall-clock watchdog.
pub(crate) fn strict_run(cfg: &ScenarioConfig) -> Result<RunOutcome, RunError> {
    Runner::new(cfg).wall_limit(CASE_WALL_LIMIT).check(CheckMode::Strict).run()
}

/// Execute `cfg` once through `run`.
fn exec(cfg: &ScenarioConfig, run: RunFn) -> ExecResult {
    match catch_unwind(AssertUnwindSafe(|| run(cfg))) {
        Ok(Ok(outcome)) => ExecResult::Metrics(outcome.into_first().metrics().to_json_string()),
        Ok(Err(e)) => ExecResult::Error(e),
        Err(payload) => {
            let payload = payload_to_string(payload);
            ExecResult::Panic { invariant: payload.starts_with(STRICT_VIOLATION_PREFIX), payload }
        }
    }
}

/// Check that `json` re-parses (as `T`) to a value that re-serializes to
/// the same bytes.
fn round_trips<T: FromJson + ToJson>(what: &str, json: &str) -> Result<(), String> {
    match T::from_json_str(json) {
        Ok(value) => {
            let again = value.to_json_string();
            if again == json {
                Ok(())
            } else {
                Err(format!("{what}: re-serialized JSON differs from the original"))
            }
        }
        Err(e) => Err(format!("{what}: emitted JSON failed to parse: {e}")),
    }
}

/// Canonical string form of an execution, for the determinism comparison.
fn canon(r: &ExecResult) -> String {
    match r {
        ExecResult::Metrics(json) => format!("metrics:{json}"),
        ExecResult::Error(e) => format!("error:{}", e.to_json_string()),
        ExecResult::Panic { payload, .. } => format!("panic:{payload}"),
    }
}

/// Run the full oracle stack on one case, executing it (up to twice)
/// through `run`.
pub(crate) fn judge_with(cfg: &ScenarioConfig, run: RunFn) -> CaseOutcome {
    // Oracle 4a: the input config itself must round-trip — it is the
    // line `chaos` prints for a finding, the text of a pinned-table row.
    if let Err(detail) = round_trips::<ScenarioConfig>("config", &cfg.to_json_string()) {
        return CaseOutcome::Fail { oracle: OracleKind::RoundTrip, detail };
    }

    let first = exec(cfg, run);
    match &first {
        ExecResult::Panic { invariant: true, payload } => {
            return CaseOutcome::Fail {
                oracle: OracleKind::Invariant,
                detail: payload.clone(),
            };
        }
        ExecResult::Panic { invariant: false, payload } => {
            return CaseOutcome::Fail {
                oracle: OracleKind::Termination,
                detail: format!("unclassified panic escaped the runner: {payload}"),
            };
        }
        ExecResult::Error(e) if e.kind == RunErrorKind::WallClock => {
            return CaseOutcome::Skip { reason: format!("wall-clock watchdog: {}", e.detail) };
        }
        ExecResult::Error(e) => {
            // Graceful termination holds (the error is classified); its
            // JSON must round-trip like any other artifact.
            if let Err(detail) = round_trips::<RunError>("run error", &e.to_json_string()) {
                return CaseOutcome::Fail { oracle: OracleKind::RoundTrip, detail };
            }
        }
        ExecResult::Metrics(json) => {
            if let Err(detail) = round_trips::<RunMetrics>("run metrics", json) {
                return CaseOutcome::Fail { oracle: OracleKind::RoundTrip, detail };
            }
        }
    }

    // Oracle 3: replay the identical case; outcomes must agree byte for
    // byte. A wall-clock skip on either side skips the whole case.
    let second = exec(cfg, run);
    if let ExecResult::Error(e) = &second {
        if e.kind == RunErrorKind::WallClock {
            return CaseOutcome::Skip {
                reason: format!("wall-clock watchdog on replay: {}", e.detail),
            };
        }
    }
    let (a, b) = (canon(&first), canon(&second));
    if a != b {
        return CaseOutcome::Fail {
            oracle: OracleKind::Determinism,
            detail: format!(
                "replay diverged: first {} bytes vs second {} bytes ({} vs {})",
                a.len(),
                b.len(),
                a.chars().take(96).collect::<String>(),
                b.chars().take(96).collect::<String>(),
            ),
        };
    }
    CaseOutcome::Pass
}

/// Run the full oracle stack on one case, each execution under a 60 s
/// wall-clock watchdog (a run that hits it is a [`CaseOutcome::Skip`]).
pub fn judge(cfg: &ScenarioConfig) -> CaseOutcome {
    judge_with(cfg, strict_run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use elephants_aqm::AqmKind;
    use elephants_cca::CcaKind;
    use elephants_experiments::RunOptions;

    fn tiny_cfg() -> ScenarioConfig {
        let mut opts = RunOptions::quick();
        opts.seed = 11;
        let mut cfg = ScenarioConfig::new(
            CcaKind::Cubic,
            CcaKind::Cubic,
            AqmKind::Fifo,
            1.0,
            25_000_000,
            &opts,
        );
        cfg.duration = elephants_netsim::SimDuration::from_millis(500);
        cfg.warmup = elephants_netsim::SimDuration::ZERO;
        cfg
    }

    #[test]
    fn healthy_case_passes_all_oracles() {
        assert_eq!(judge(&tiny_cfg()), CaseOutcome::Pass);
    }

    #[test]
    fn event_budget_case_is_a_classified_pass_not_a_failure() {
        // Graceful termination: a budget trip is a classified RunError,
        // which the termination oracle accepts and the determinism oracle
        // requires to reproduce identically.
        let mut cfg = tiny_cfg();
        cfg.max_events = 1_000;
        assert_eq!(judge(&cfg), CaseOutcome::Pass);
    }

    #[test]
    fn wall_clock_overrun_is_a_skip_not_a_finding() {
        let out = judge_with(&tiny_cfg(), |cfg| {
            Runner::new(cfg).wall_limit(Duration::from_nanos(1)).check(CheckMode::Strict).run()
        });
        assert!(
            matches!(&out, CaseOutcome::Skip { reason } if reason.contains("wall-clock")),
            "{out:?}"
        );
    }
}
