//! Deterministic chaos fuzzer for the elephants simulator.
//!
//! ```text
//! chaos [--cases N] [--seed S] [--no-shrink] [--verbose]
//!       [--loss MODEL] [--flap START,DUR] [--coalesce]
//!       [--topology SPEC] [--fault-link N]
//! ```
//!
//! Fuzzes `N` generated scenarios (seeds `S .. S+N`) through the
//! four-oracle judge and shrinks any failure. Each finding ends in a
//! `shrunk (N evals) to: {...}` line: that JSON, pasted under a new name
//! into the `chaos/` section of the pinned-run table
//! (`tests/src/pinned.rs`), becomes a row `cargo test` strict-checks and
//! pins. Fully deterministic in `--seed`.
//!
//! The scenario-shaping flags are the shared set from
//! `elephants_experiments::cli` and act as *pins*: each is forced onto
//! every generated case (a case a pin cannot validly apply to counts as
//! a skip). The judge always runs the strict checker and owns its own
//! artifacts, so `--record`, `--check` and `--sample-interval` are
//! refused like any flag off chaos's list (`chaos --help` prints it).
//!
//! Exit codes: `0` — all oracles clean; `1` — findings; `2` — usage
//! error (a flag off the list, zero cases, or a last seed past
//! `u64::MAX`).

use elephants_chaos::{fuzz, CaseOutcome, FuzzOptions};
use elephants_experiments::cli::{exit_usage, Flag, CHAOS};
use elephants_experiments::Cli;
use elephants_json::ToJson;

/// Chaos's own flags; it also takes the shared ones in [`CHAOS`].
const OWN: &[Flag] = &[
    ("--cases", "N", "generated cases, seeds --seed .. --seed + N (default 200)"),
    ("--no-shrink", "", "report failing cases unshrunk"),
    ("--verbose", "", "print every case, passes too"),
];

fn main() {
    let cli = Cli::parse("chaos", CHAOS, OWN);
    let opts = FuzzOptions {
        cases: cli.value("--cases", FuzzOptions::default().cases),
        base_seed: cli.opts.seed,
        shrink: !cli.given("--no-shrink"),
        overrides: cli.shared.scenario_flag().map(|_| cli.shared.clone()),
    };
    // Every own flag is read here, before any work, so a read under a name
    // off `OWN` fails on every run.
    let verbose = cli.given("--verbose");

    // Announced with the first case, so a campaign `fuzz` refuses prints
    // only its usage error.
    let mut announced = false;
    let report = fuzz(&opts, |seed, outcome| {
        if !std::mem::replace(&mut announced, true) {
            eprintln!(
                "chaos: fuzzing {} cases from seed {} (strict checker, 4 oracles)",
                opts.cases, opts.base_seed
            );
        }
        match outcome {
            CaseOutcome::Pass if verbose => eprintln!("  case {seed}: pass"),
            CaseOutcome::Skip { reason } => eprintln!("  case {seed}: SKIP ({reason})"),
            CaseOutcome::Fail { oracle, detail } => {
                eprintln!("  case {seed}: FAIL [{oracle}] {detail}")
            }
            _ => {}
        }
    })
    .unwrap_or_else(|e| {
        exit_usage(&format!("--seed {} with --cases {}: {e}", opts.base_seed, opts.cases))
    });
    for finding in &report.findings {
        eprintln!(
            "chaos: finding at seed {} [{}]: {}",
            finding.seed, finding.oracle, finding.detail
        );
        eprintln!(
            "chaos: shrunk ({} evals) to: {}",
            finding.shrink_evals,
            finding.shrunk.to_json_string()
        );
    }
    println!("{}", report.summary_line());
    std::process::exit(if report.findings.is_empty() { 0 } else { 1 });
}
