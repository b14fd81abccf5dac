#!/usr/bin/env bash
# CI entry point: the workspace must build and test fully offline.
#
# The workspace is hermetic — every dependency is an in-repo path crate —
# so `--offline` is not a restriction but an enforcement: any reintroduced
# registry dependency fails resolution here before it fails review.
#
# Modes:
#   scripts/ci.sh                build + lint + docs + test (the default
#                                gate); the docs step builds every crate's
#                                rustdoc with warnings as errors, so a doc
#                                link to a renamed, deleted or private item
#                                fails here
#   scripts/ci.sh --fault-smoke  also run one link-flap and one
#                                variable-loss scenario through the
#                                fault-tolerant sweep binary in quick mode
#                                and assert zero failed cells
#   scripts/ci.sh --record-smoke also run one short recorded scenario
#                                through the probe binary with the full
#                                flight recorder on; probe re-parses its own
#                                record through FlightRecord::parse, so a
#                                schema regression fails here; then the
#                                quick 100 Mbps dataset slice, whose count
#                                line only counts records that parsed back;
#                                then a two-cell cached sweep run cold and
#                                warm into one directory: the warm run reads
#                                every entry back (none quarantined), writes
#                                a byte-identical grid.csv and adds no entry
#   scripts/ci.sh --check-smoke  also run the table of pinned runs
#                                (tests/src/pinned.rs: every CCA x AQM cell
#                                plain and coalesced, the loss-recovery,
#                                BBR-phase, ECN, multi-bottleneck and
#                                chaos cells, one test per section), each
#                                row under `CheckMode::Strict` and compared
#                                with its line of tests/fixtures/runs.jsonl,
#                                built in the `checked` profile (release
#                                speed + debug assertions): a runtime-
#                                invariant violation or a scoreboard /
#                                `BbrCore` `debug_assert!` panics the run and
#                                fails the lane; then the CCA property suite
#                                at 25600 cases in the same profile drives
#                                every CCA through arbitrary ACK / loss / RTO
#                                / undo scripts with overflow checks on and
#                                `check_invariants` after every step, and the
#                                netsim property suite at the same depth runs
#                                the event queue and its delivery pipes
#                                against a sorted reference model
#   scripts/ci.sh --fuzz-smoke   also run the chaos fuzzer: ~25 fixed-seed
#                                generated scenarios through the strict
#                                four-oracle judge (invariants, graceful
#                                termination, determinism, artifact
#                                round-trip); any finding fails the lane
#   scripts/ci.sh --topo-smoke   also run the topology lane: every
#                                shape's layout vs
#                                tests/fixtures/topology/shapes.json, the
#                                table of pinned runs (its dumbbell, 3-hop
#                                parking-lot and two-RTT multi-dumbbell rows
#                                among them), a strict-checked 3-hop
#                                parking-lot probe run with one link report
#                                per hop, a strict-checked multi-dumbbell
#                                probe run, and `repro rtt_unfair` (which
#                                exits nonzero unless the claims-table row
#                                rtt_unfair/short_rtt_bbr1_share_grows_with_the_rtt_ratio
#                                holds)
#   scripts/ci.sh --dynamics-smoke  also run the fairness-dynamics lane:
#                                `repro dynamics` under the strict checker
#                                (exits nonzero unless the claims-table rows
#                                dynamics/bbr1_suppresses_cubic_early_with_partial_recovery
#                                and dynamics/late_cubic_joiner_reaches_fair_share_in_finite_time
#                                hold; all six
#                                recorded runs must be checked clean and its
#                                CSVs written) plus the flight-record
#                                integration suite (recording perturbs
#                                nothing, records round-trip through the
#                                parser)
#   scripts/ci.sh --benchmark-smoke  also build and exercise `benchmark/`,
#                                the standalone package BENCHMARK.json
#                                points at: its own unit tests, then
#                                `benchmark/run.sh --smoke --traced` (debug
#                                build, 100 Mbps cells, every check, ~10 s
#                                a workload). No PR that claims a gain may
#                                edit that directory, so a crate API change
#                                that stops it compiling or trips one of
#                                its checks has to fail here, not in the
#                                benchmark driver afterwards
#   scripts/ci.sh --bench-gate   also run `scripts/ab.sh HEAD`: the working
#                                tree against its last commit, ten
#                                interleaved pairs a workload in one sitting;
#                                fails when an end-to-end metric's median is
#                                worse by more than its BENCHMARK.json bound
#                                or a run failed or was incorrect
set -euo pipefail

cd "$(dirname "$0")/.."

fault_smoke=0
record_smoke=0
check_smoke=0
fuzz_smoke=0
topo_smoke=0
dynamics_smoke=0
benchmark_smoke=0
bench_gate=0
for arg in "$@"; do
  case "$arg" in
    --fault-smoke) fault_smoke=1 ;;
    --record-smoke) record_smoke=1 ;;
    --check-smoke) check_smoke=1 ;;
    --fuzz-smoke) fuzz_smoke=1 ;;
    --topo-smoke) topo_smoke=1 ;;
    --dynamics-smoke) dynamics_smoke=1 ;;
    --benchmark-smoke) benchmark_smoke=1 ;;
    --bench-gate) bench_gate=1 ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

# Everything under results/ is output that `repro` / `sweep` / `dataset`
# regenerate from this tree; a tracked copy is one no build can be trusted
# to reproduce.
if git rev-parse --is-inside-work-tree >/dev/null 2>&1 \
    && [[ -n "$(git ls-files results)" ]]; then
  echo "results/ must not be tracked in git (git rm -r --cached results)" >&2
  exit 1
fi

# --locked: a manifest change that would rewrite a tracked lock file fails
# here instead of silently moving Cargo.lock or benchmark/Cargo.lock.
cargo build --release --offline --locked
cargo clippy --offline --locked --workspace --all-targets -- -D warnings
RUSTDOCFLAGS="-D warnings" cargo doc --offline --locked --no-deps --workspace
cargo test -q --offline --locked

if [[ "$benchmark_smoke" -eq 1 ]]; then
  # run.sh exits nonzero when any workload reports `correct: false` or a
  # failed cell; its results go to benchmark/target/ (ignored by git).
  cargo test -q --offline --locked --manifest-path benchmark/Cargo.toml
  benchmark/run.sh --smoke --traced
fi

if [[ "$bench_gate" -eq 1 ]]; then
  scripts/ab.sh HEAD
fi

if [[ "$fault_smoke" -eq 1 ]]; then
  # Two anomaly scenarios on a tiny grid: a mid-run bottleneck flap and
  # Gilbert-Elliott variable loss. Each must complete with zero failed
  # cells — the watchdogs and panic isolation exist for real failures,
  # not for routine fault injection.
  out_dir="$(mktemp -d)"
  trap 'rm -rf "$out_dir"' EXIT
  for knobs in "--flap 1.5,0.4" "--loss ge:0.002,0.2"; do
    # shellcheck disable=SC2086  # knobs is deliberately word-split
    summary="$(cargo run --release --offline -p elephants-experiments --bin sweep -- \
      --quick --bw 100M --limit 2 --no-cache --out "$out_dir" $knobs 2>&1 | \
      tee -a /dev/stderr | grep 'failed_cells:')"
    if ! grep -q 'failed_cells: 0 ' <<<"$summary"; then
      echo "fault smoke ($knobs) reported failed cells: $summary" >&2
      exit 1
    fi
  done
fi

if [[ "$record_smoke" -eq 1 ]]; then
  # One short recorded run with every channel on. The probe binary reads
  # its record back through FlightRecord::parse (which rejects schema
  # mismatches), so success here means the artifact is valid end to end;
  # the grep asserts it actually got that far.
  rec_dir="$(mktemp -d)"
  trap 'rm -rf "$rec_dir"' EXIT
  out="$(cargo run --release --offline -p elephants-experiments --bin probe -- \
    --cca1 bbr1 --cca2 cubic --aqm fifo --queue 2 --bw 100M --secs 5 \
    --record flows,queue,events --out "$rec_dir" 2>&1 | tee -a /dev/stderr)"
  if ! grep -q 'record       :' <<<"$out"; then
    echo "record smoke: probe did not verify a flight record" >&2
    exit 1
  fi
  # The dataset is the same recorder over a grid slice: 9 pairs x 3 AQMs,
  # each record read back through the parser before it is counted.
  out="$(cargo run --release --offline -p elephants-experiments --bin dataset -- \
    --quick --bw 100M --out "$rec_dir" 2>&1 | tee -a /dev/stderr)"
  if ! grep -q '^dataset: 27 ' <<<"$out"; then
    echo "record smoke: dataset did not write and re-read 27 flight records" >&2
    exit 1
  fi
  # The run cache through a binary: the cold sweep writes one JSON entry
  # per cell, the warm one must read them all back instead of re-running.
  cache_dir="$rec_dir/cached"
  for run in cold warm; do
    out="$(cargo run --release --offline -p elephants-experiments --bin sweep -- \
      --quick --bw 100M --limit 2 --out "$cache_dir" 2>&1 | tee -a /dev/stderr)"
    cp "$cache_dir/sweep/grid.csv" "$rec_dir/grid.$run.csv"
    entries="$(find "$cache_dir/cache" -name '*.json' | wc -l)"
    if [[ "$run" == cold ]]; then
      cold_entries="$entries"
    fi
  done
  if ! grep -q 'cache_quarantined: 0 ' <<<"$out"; then
    echo "record smoke: the warm sweep quarantined cache entries" >&2
    exit 1
  fi
  if ! cmp -s "$rec_dir/grid.cold.csv" "$rec_dir/grid.warm.csv"; then
    echo "record smoke: the warm sweep's grid.csv differs from the cold one" >&2
    exit 1
  fi
  if [[ "$cold_entries" -eq 0 || "$entries" -ne "$cold_entries" ]]; then
    echo "record smoke: $cold_entries cache entries cold, $entries warm" >&2
    exit 1
  fi
fi

if [[ "$fuzz_smoke" -eq 1 ]]; then
  # A bounded fixed-seed chaos campaign; it writes nothing. A finding
  # fails the lane and is reproduced locally (same seed, same case), where
  # its printed config becomes a `chaos/` row of the pinned-run table
  # alongside the fix. The grep pins the machine-readable summary line, so
  # a silently-vacuous run also fails.
  out="$(cargo run --release --offline -p elephants-chaos --bin chaos -- \
    --cases 25 --seed 1 2>&1 | tee -a /dev/stderr)"
  if ! grep -Eq 'chaos-summary: cases=25 passed=[0-9]+ skipped=[0-9]+ failed=0' <<<"$out"; then
    echo "fuzz smoke: campaign reported findings (or ran no cases)" >&2
    exit 1
  fi
fi

if [[ "$topo_smoke" -eq 1 ]]; then
  # The topology subsystem's safety envelope plus its two new behaviors.
  # 1. Equivalence: every shape the chain builder lays out (dumbbell,
  #    parking lot, multi-dumbbell) identical to
  #    tests/fixtures/topology/shapes.json, and the runs on each shape
  #    identical to their lines of tests/fixtures/runs.jsonl.
  cargo test -q --offline -p integration-tests --test topology_equiv

  # 2. Strict runs on the other two chain shapes: a 3-hop parking lot and
  #    a two-RTT multi-dumbbell must finish with zero violations under the
  #    strict checker. probe prints one `  link` line per shaped hop when
  #    there is more than one: exactly three on the parking lot, none on
  #    the multi-dumbbell's single shared bottleneck.
  for case in parking-lot:3=3 multi-dumbbell:31,124=0; do
    topology="${case%=*}"
    hop_lines="${case#*=}"
    out="$(cargo run --release --offline -p elephants-experiments --bin probe -- \
      --cca1 cubic --cca2 cubic --aqm fifo --queue 2 --bw 100M --secs 5 \
      --topology "$topology" --check strict 2>&1 | tee -a /dev/stderr)"
    if ! grep -q 'check        : mode=Strict' <<<"$out"; then
      echo "topo smoke: strict checker did not report on $topology" >&2
      exit 1
    fi
    if ! grep -q 'violations=0' <<<"$out"; then
      echo "topo smoke: violations reported on $topology" >&2
      exit 1
    fi
    if [[ "$(grep -c '^  link' <<<"$out" || true)" -ne "$hop_lines" ]]; then
      echo "topo smoke: expected $hop_lines per-hop link lines on $topology" >&2
      exit 1
    fi
  done

  # 3. RTT-unfairness: `repro rtt_unfair` exits nonzero unless the
  #    claims-table row rtt_unfair/short_rtt_bbr1_share_grows_with_the_rtt_ratio
  #    holds.
  rtt_dir="$(mktemp -d)"
  out="$(cargo run --release --offline -p elephants-experiments --bin repro -- \
    rtt_unfair --out "$rtt_dir" 2>&1 | tee -a /dev/stderr)"
  rm -rf "$rtt_dir"
  if ! grep -q 'rtt-unfair: monotone=yes' <<<"$out"; then
    echo "topo smoke: repro rtt_unfair did not report monotone shares" >&2
    exit 1
  fi
fi

if [[ "$dynamics_smoke" -eq 1 ]]; then
  # The fairness-dynamics lane: windowed-analysis claims plus the record
  # suite they rest on.
  # 1. `repro dynamics` runs the CCA-pair matrix with the recorder on
  #    and exits nonzero unless both `dynamics/` rows of the claims table
  #    (crates/experiments/src/claims.rs) hold; the greps pin the
  #    machine-readable summary and the strict checker's count (five pairs
  #    plus the late joiner) so a silently-vacuous run also fails.
  dyn_dir="$(mktemp -d)"
  trap 'rm -rf "$dyn_dir"' EXIT
  out="$(cargo run --release --offline -p elephants-experiments --bin repro -- \
    dynamics --check strict --out "$dyn_dir" 2>&1 | tee -a /dev/stderr)"
  if ! grep -q 'dynamics: pairs=5 shape=ok late_join=ok' <<<"$out"; then
    echo "dynamics smoke: shape or late-join gate failed" >&2
    exit 1
  fi
  if ! grep -q 'checked_runs: 6  check_violations: 0' <<<"$out"; then
    echo "dynamics smoke: the six runs were not all strict-checked clean" >&2
    exit 1
  fi
  if ! find "$dyn_dir/dynamics" -name '*.csv' -size +0 2>/dev/null | grep -q .; then
    echo "dynamics smoke: no CSV written under $dyn_dir/dynamics/" >&2
    exit 1
  fi

  # 2. The flight-record suite: recording changes no metric, and a
  #    written record parses back to the same bytes.
  cargo test -q --offline -p integration-tests --test telemetry
fi

if [[ "$check_smoke" -eq 1 ]]; then
  # Every row of the pinned-run table (the CCA x AQM grid whatever
  # `CcaKind::ALL` and `AqmKind::ALL` hold, plain and coalesced, plus the
  # recovery, BBR, ECN, multi-bottleneck and chaos cells) under the strict
  # checker in the `checked` profile, so debug assertions guard the hot
  # path at release speed. The test fails on a violation, unless every
  # row's checker reports events it observed, and on any line that differs
  # from tests/fixtures/runs.jsonl; the greps fail a silently-vacuous lane.
  out="$(cargo test --profile checked --offline -p integration-tests --test pinned_runs \
    --test coalesce --test topology_equiv --test recovery --test bbr_phases \
    --test chaos_corpus 2>&1 | \
    tee -a /dev/stderr)"
  for t in every_row_has_one_section_and_one_pinned_line \
    ecn_rows_run_strict_clean_and_match_their_pinned_lines \
    coalesce_on_conserves_delivery_across_the_grid_under_strict_check \
    dumbbell_topology_is_byte_identical_to_pre_change_fixtures \
    multi_bottleneck_metrics_are_byte_identical_to_pre_change_fixtures \
    parking_lot_runs_strict_clean_with_per_link_reports \
    loss_recovery_is_byte_identical_to_pre_change_fixtures \
    bbr_phase_machines_are_byte_identical_to_pre_change_fixtures \
    committed_corpus_replays_clean; do
    if ! grep -q "$t ... ok" <<<"$out"; then
      echo "check smoke: $t did not run" >&2
      exit 1
    fi
  done
  # Every congestion controller, the loss-based window core included,
  # through every entry point under overflow checks and debug assertions.
  ELEPHANTS_PROP_CASES=25600 cargo test -q --profile checked --offline -p elephants-cca --test properties
  # The event queue (timer wheel, overflow heap, per-link delivery pipes)
  # against its sorted reference model, deliveries stepping backwards on a
  # link included, with each pipe's (at, seq) order debug-asserted.
  ELEPHANTS_PROP_CASES=25600 cargo test -q --profile checked --offline -p elephants-netsim --test properties
fi
