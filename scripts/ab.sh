#!/usr/bin/env bash
# Same-sitting A/B of the repository benchmark: <rev> against this checkout.
#
#   scripts/ab.sh <rev> [--workload W]... [--pairs N] [--seed N]
#
# This box drifts 10-20% within minutes, so two benchmark runs taken apart
# cannot be compared. This script exports <rev> (`git archive`, committed
# files only, as the benchmark driver sees them) into a scratch directory
# with a CARGO_TARGET_DIR of its own, then runs that copy's and this
# checkout's `benchmark/run.sh --workload W` as N interleaved pairs (default
# and minimum 10), alternating which side goes first. Each side runs its own
# copy of `benchmark/`, so when <rev> is the parent of a change that may not
# touch `benchmark/`, both sides measure with identical benchmark code.
#
# Per workload and end-to-end metric (names, units and direction are read
# from BENCHMARK.json) it prints both sides' median and quartiles over the N
# runs, the change's median relative to the parent's, and how many pairs the
# change won (ties count for neither side). A gain may be claimed when the
# change wins at least nine tenths of the pairs and the medians differ by
# more than the parent's own inter-quartile distance; the last column says
# whether that holds.
#
# It is also the regression gate (the rule the benchmark driver applies):
# the exit status is nonzero when, on any workload, the change's median of
# an end-to-end metric is worse than the parent's by more than that
# metric's `bound` in BENCHMARK.json (the last column reads `regression`),
# or when either side had a failed or incorrect run.
#
# AB_WORK=<dir> keeps the export and its build there for the next call
# (otherwise a temporary directory, removed on exit).
set -euo pipefail

cd "$(dirname "$0")/.."

usage() { sed -n '2,4p' "$0" >&2; exit 2; }

rev=""
workloads=()
pairs=10
seed=1
while [[ $# -gt 0 ]]; do
  case "$1" in
    --workload) workloads+=("${2:?--workload needs a name}"); shift 2 ;;
    --pairs) pairs="${2:?--pairs needs a count}"; shift 2 ;;
    --seed) seed="${2:?--seed needs a number}"; shift 2 ;;
    -*) usage ;;
    *) [[ -z "$rev" ]] || usage; rev="$1"; shift ;;
  esac
done
[[ -n "$rev" ]] || usage
if [[ "$pairs" -lt 10 ]]; then
  echo "ab: --pairs must be at least 10 (fewer cannot show nine wins in ten)" >&2
  exit 2
fi
if [[ ${#workloads[@]} -eq 0 ]]; then
  mapfile -t workloads < <(python3 -c '
import json
for w in json.load(open("BENCHMARK.json"))["workloads"]:
    print(w["name"])')
fi

sha="$(git rev-parse --short "$rev^{commit}")"
if [[ -n "${AB_WORK:-}" ]]; then
  work="$AB_WORK"
  mkdir -p "$work"
else
  work="$(mktemp -d)"
  trap 'rm -rf "$work"' EXIT
fi
parent="$work/src-$sha"
if [[ ! -d "$parent" ]]; then
  mkdir -p "$parent"
  git archive "$sha" | tar -x -C "$parent"
fi

# One run of one side; prints the run's result line (the last line of stdout).
run_side() { # <checkout> <target dir or empty> <workload>
  ( cd "$1" && CARGO_TARGET_DIR="${2:-benchmark/target}" \
      bash benchmark/run.sh --workload "$3" --seed "$seed" | tail -n 1 )
}

status=0
for w in "${workloads[@]}"; do
  echo "== $w: parent $sha vs change (this checkout), $pairs pairs, seed $seed ==" >&2
  # Build both sides (and warm the page cache) outside the pairs.
  run_side "$parent" "$work/target-$sha" "$w" >/dev/null
  run_side "$PWD" "" "$w" >/dev/null
  results="$(mktemp)"
  for ((i = 0; i < pairs; i++)); do
    if ((i % 2 == 0)); then order=(parent change); else order=(change parent); fi
    for side in "${order[@]}"; do
      if [[ "$side" == parent ]]; then
        line="$(run_side "$parent" "$work/target-$sha" "$w")"
      else
        line="$(run_side "$PWD" "" "$w")"
      fi
      printf '%d\t%s\t%s\n' "$i" "$side" "$line" >>"$results"
      echo "  pair $((i + 1))/$pairs $side done" >&2
    done
  done
  python3 - "$results" "$w" "$sha" "$pairs" "$seed" <<'PY' || status=1
import json, statistics, sys

path, workload, sha, pairs, seed = sys.argv[1:6]
metrics = [(m["name"], m["unit"], m["better"], m["bound"])
           for m in json.load(open("BENCHMARK.json"))["end_to_end"]]
runs = {"parent": {}, "change": {}}
for row in open(path):
    pair, side, line = row.rstrip("\n").split("\t", 2)
    runs[side][int(pair)] = json.loads(line)

def quartiles(xs):
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3

print(f"== {workload}: parent {sha} vs change (this checkout), {pairs} pairs, seed {seed} ==")
bad = False
for side in ("parent", "change"):
    rs = runs[side].values()
    failed, incorrect = sum(r["failed"] for r in rs), sum(not r["correct"] for r in rs)
    bad = bad or failed > 0 or incorrect > 0
    print(f"{side}: attempted {sum(r['attempted'] for r in rs)} failed {failed} "
          f"incorrect runs {incorrect}")
print(f"{'metric':<20}{'better':<8}{'parent median [q1, q3]':<48}{'change median [q1, q3]':<48}"
      f"{'change/parent':<15}{'pairs won':<11}gain by the 9-in-10 + IQR rule, or regression")
for name, unit, better, bound in metrics:
    value = lambda side, i: runs[side][i]["metrics"][name]["value"]
    idx = sorted(runs["parent"])
    a = [value("parent", i) for i in idx]
    b = [value("change", i) for i in idx]
    sign = -1.0 if better == "lower" else 1.0
    wins = sum(sign * (y - x) > 0 for x, y in zip(a, b))
    losses = sum(sign * (y - x) < 0 for x, y in zip(a, b))
    (aq1, am, aq3), (bq1, bm, bq3) = quartiles(a), quartiles(b)
    beyond_iqr = abs(bm - am) > (aq3 - aq1)
    if sign * (bm - am) < -bound * abs(am):
        verdict = f"regression: median worse by more than the {bound:.0%} bound"
        bad = True
    elif wins * 10 >= 9 * len(idx) and beyond_iqr and sign * (bm - am) > 0:
        verdict = "yes"
    elif losses * 10 >= 9 * len(idx) and beyond_iqr:
        verdict = "no: worse by the same rule"
    else:
        verdict = "no"
    fmt = lambda q1, m, q3: f"{m:.6g} [{q1:.6g}, {q3:.6g}] {unit}"
    ratio = f"{bm / am:.3f}" if am else "n/a"
    print(f"{name:<20}{better:<8}{fmt(aq1, am, aq3):<48}{fmt(bq1, bm, bq3):<48}"
          f"{ratio:<15}{f'{wins}/{len(idx)}':<11}{verdict}")
sys.exit(bad)
PY
  rm -f "$results"
done
exit "$status"
