//! Deterministic chaos fuzzer for the elephants simulator.
//!
//! ```text
//! chaos [--cases N] [--seed S] [--corpus DIR] [--no-commit]
//!       [--no-shrink] [--replay-only] [--verbose]
//!       [--loss MODEL] [--flap START,DUR] [--coalesce]
//!       [--topology SPEC] [--fault-link N]
//! ```
//!
//! Fuzzes `N` generated scenarios (seeds `S .. S+N`) through the
//! four-oracle judge, shrinks any failure, and (unless `--no-commit`)
//! writes each minimal repro into the corpus; then replays the whole
//! committed corpus. Fully deterministic in `--seed`.
//!
//! The scenario-shaping flags are the shared set from
//! `elephants_experiments::cli` and act as *pins*: each is forced onto
//! every generated case (a case a pin cannot validly apply to counts as
//! a skip). The judge always runs the strict checker and owns its own
//! artifacts, so `--record`, `--check` and `--sample-interval` are
//! refused like any flag off chaos's list (`chaos --help` prints it).
//!
//! Exit codes: `0` — all oracles clean and corpus green; `1` — findings
//! or corpus regressions; `2` — usage error.

use elephants_chaos::{
    default_corpus_dir, fuzz, replay_all, replay_failures, save_fixture, CaseOutcome,
    FuzzOptions,
};
use elephants_experiments::cli::{exit_usage, Flag, CHAOS};
use elephants_experiments::Cli;
use elephants_json::ToJson;

/// Chaos's own flags; it also takes the shared ones in [`CHAOS`].
const OWN: &[Flag] = &[
    ("--cases", "N", "generated cases, seeds --seed .. --seed + N (default 200)"),
    ("--corpus", "DIR", "corpus of committed repros to write and replay"),
    ("--no-commit", "", "do not write shrunk failures into the corpus"),
    ("--no-shrink", "", "report failing cases unshrunk"),
    ("--replay-only", "", "replay the corpus without fuzzing"),
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
    let corpus = cli.value("--corpus", default_corpus_dir());
    let (commit, replay_only) = (!cli.given("--no-commit"), cli.given("--replay-only"));
    let verbose = cli.given("--verbose");
    let (seed, cases) = (opts.base_seed, opts.cases);
    if cases > 0 && seed.checked_add(u64::from(cases - 1)).is_none() {
        exit_usage(&format!(
            "--seed {seed} with --cases {cases} runs past the largest seed, {}",
            u64::MAX
        ));
    }

    let mut dirty = false;

    if !replay_only {
        eprintln!(
            "chaos: fuzzing {} cases from seed {} (strict checker, 4 oracles)",
            opts.cases, opts.base_seed
        );
        let report = fuzz(&opts, |seed, outcome| match outcome {
            CaseOutcome::Pass if verbose => eprintln!("  case {seed}: pass"),
            CaseOutcome::Skip { reason } => eprintln!("  case {seed}: SKIP ({reason})"),
            CaseOutcome::Fail { oracle, detail } => {
                eprintln!("  case {seed}: FAIL [{oracle}] {detail}")
            }
            _ => {}
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
            if commit {
                match save_fixture(&corpus, &finding.fixture()) {
                    Ok(path) => eprintln!("chaos: committed repro {}", path.display()),
                    Err(e) => eprintln!("chaos: FAILED to write repro: {e}"),
                }
            }
        }
        println!("{}", report.summary_line());
        dirty |= !report.findings.is_empty();
    }

    match replay_all(&corpus) {
        Ok(results) => {
            let failures = replay_failures(&results);
            for f in &failures {
                eprintln!(
                    "chaos: corpus REGRESSION {}: {:?}",
                    f.path.display(),
                    f.outcome
                );
            }
            println!(
                "chaos-corpus: fixtures={} failures={}",
                results.len(),
                failures.len()
            );
            dirty |= !failures.is_empty();
        }
        Err(e) => {
            eprintln!("chaos: corpus replay failed: {e}");
            dirty = true;
        }
    }

    std::process::exit(if dirty { 1 } else { 0 });
}
