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
//! a skip). `--record`/`--check`/`--sample-interval` are rejected — the
//! judge always runs the strict checker and owns its own artifacts.
//!
//! Exit codes: `0` — all oracles clean and corpus green; `1` — findings
//! or corpus regressions; `2` — usage error.

use elephants_chaos::{
    default_corpus_dir, fuzz, replay_all, replay_failures, save_fixture, CaseOutcome,
    FuzzOptions,
};
use elephants_experiments::SharedFlags;
use elephants_json::ToJson;
use std::path::PathBuf;

struct Args {
    opts: FuzzOptions,
    corpus: PathBuf,
    commit: bool,
    replay_only: bool,
    verbose: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        opts: FuzzOptions::default(),
        corpus: default_corpus_dir(),
        commit: true,
        replay_only: false,
        verbose: false,
    };
    let mut shared = SharedFlags::default();
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        if shared.try_parse(&arg, &mut it)? {
            continue;
        }
        let mut value = |flag: &str| {
            it.next().ok_or_else(|| format!("{flag} requires a value"))
        };
        match arg.as_str() {
            "--cases" => {
                args.opts.cases = value("--cases")?
                    .parse()
                    .map_err(|e| format!("--cases: {e}"))?;
            }
            "--seed" => {
                args.opts.base_seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--corpus" => args.corpus = PathBuf::from(value("--corpus")?),
            "--no-commit" => args.commit = false,
            "--no-shrink" => args.opts.shrink = false,
            "--replay-only" => args.replay_only = true,
            "--verbose" => args.verbose = true,
            "--help" | "-h" => {
                print_usage();
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    if shared.record.is_some() || shared.check.is_some() || shared.sample_interval.is_some() {
        return Err(
            "the chaos judge always runs the strict checker and owns its artifacts; \
             drop --record/--check/--sample-interval"
                .to_string(),
        );
    }
    if shared.scenario_flag().is_some() {
        args.opts.overrides = Some(shared);
    }
    Ok(args)
}

fn print_usage() {
    eprintln!(
        "usage: chaos [--cases N] [--seed S] [--corpus DIR] [--no-commit] \
         [--no-shrink] [--replay-only] [--verbose] [--loss MODEL] \
         [--flap START,DUR] [--coalesce] [--topology SPEC] [--fault-link N]"
    );
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("chaos: {msg}");
            print_usage();
            std::process::exit(2);
        }
    };

    let mut dirty = false;

    if !args.replay_only {
        eprintln!(
            "chaos: fuzzing {} cases from seed {} (strict checker, 4 oracles)",
            args.opts.cases, args.opts.base_seed
        );
        let verbose = args.verbose;
        let report = fuzz(&args.opts, |seed, outcome| match outcome {
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
            if args.commit {
                match save_fixture(&args.corpus, &finding.fixture()) {
                    Ok(path) => eprintln!("chaos: committed repro {}", path.display()),
                    Err(e) => eprintln!("chaos: FAILED to write repro: {e}"),
                }
            }
        }
        println!("{}", report.summary_line());
        dirty |= !report.findings.is_empty();
    }

    match replay_all(&args.corpus) {
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
