#!/usr/bin/env bash
# Same-sitting A/B of the repository benchmark: <rev> against this checkout.
#
#   scripts/ab.sh <rev> [--workload W]... [--pairs N] [--seed N]
#
# This box drifts 10-20% within minutes, so two benchmark runs taken apart
# cannot be compared. This script exports <rev> (`git archive`, committed
# files only, as the benchmark driver sees them) and copies this checkout
# once, at start (tracked and untracked files, not ignored ones), into a
# scratch directory, each with a CARGO_TARGET_DIR of its own. It then runs
# the two copies' `benchmark/run.sh --workload W` as N interleaved pairs
# (default and minimum 10), alternating which side goes first. An edit made
# to the checkout while the pairs run therefore measures nothing. Each side
# runs its own copy of `benchmark/`, so when <rev> is the parent of a change
# that may not touch `benchmark/`, both sides measure with identical
# benchmark code.
#
# Per workload it says whether both sides ran the same simulation: `same
# simulation` when every run of both printed one `sim_events N  sim_digest X`
# line, otherwise `different simulation: <parent> / <change>`.
#
# Per workload and end-to-end metric (names, units and direction are read
# from BENCHMARK.json) it prints both sides' median and quartiles over the N
# runs, the change's median relative to the parent's, and how many pairs the
# change won (ties count for neither side). A gain may be claimed when both
# sides ran the same simulation, the change wins at least nine tenths of the
# pairs and the medians differ by more than the parent's own inter-quartile
# distance; the last column says whether that holds.
#
# It is also the regression gate (the rule the benchmark driver applies):
# the exit status is nonzero when, on any workload, the change's median of
# an end-to-end metric is worse than the parent's by more than that
# metric's `bound` in BENCHMARK.json (the last column reads `regression`),
# or when either side had a failed or incorrect run. A run that exits
# nonzero is counted as failed and left out of the medians; the pairs go on
# and the table still prints. It also fails when a side's benchmark binary
# is not the same file after the last pair as after its warm-up run (the
# table header prints both sha256 sums): a rebuild mid-pairs measures two
# programs as one.
#
# AB_WORK=<dir> keeps the copies and their builds there for the next call
# (otherwise a temporary directory, removed on exit); the checkout's copy is
# made, and so rebuilt, on every call.
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
# The copy's files get the time of copying (`tar -m`): a kept target
# directory must not take a file older than its last build for unchanged.
change="$work/src-change"
rm -rf "$change"
mkdir -p "$change"
git ls-files -z --cached --others --exclude-standard \
  | while IFS= read -r -d '' f; do if [[ -e "$f" ]]; then printf '%s\0' "$f"; fi; done \
  | tar --null -T - -c | tar -x -m -C "$change"
declare -A src=([parent]="$parent" [change]="$change")
declare -A tgt=([parent]="$work/target-$sha" [change]="$work/target-change")

# One run of one side. Prints its exit status, its `sim_events N  sim_digest
# X` line and its result line (the last line of stdout), tab-separated, and
# exits as the run did.
run_side() { # <side> <workload>
  local out status=0
  out="$(cd "${src[$1]}" && CARGO_TARGET_DIR="${tgt[$1]}" \
      bash benchmark/run.sh --workload "$2" --seed "$seed")" || status=$?
  printf '%s\t%s\t%s\n' "$status" \
    "$(grep -m 1 -oE 'sim_events [0-9]+ +sim_digest [0-9a-f]+' <<<"$out" || true)" \
    "$(tail -n 1 <<<"$out")"
  return "$status"
}

# The sha256 of a side's built benchmark binary, or `missing`.
bin_sha() { # <side>
  local bin="${tgt[$1]}/release/elephants-benchmark"
  if [[ -f "$bin" ]]; then sha256sum "$bin" | cut -d ' ' -f 1; else echo missing; fi
}

status=0
for w in "${workloads[@]}"; do
  echo "== $w: parent $sha vs change (this checkout), $pairs pairs, seed $seed ==" >&2
  # Build both sides (and warm the page cache) outside the pairs.
  for side in parent change; do
    run_side "$side" "$w" >/dev/null || echo "  warm-up run of $side failed" >&2
  done
  declare -A built=([parent]="$(bin_sha parent)" [change]="$(bin_sha change)")
  results="$(mktemp)"
  for ((i = 0; i < pairs; i++)); do
    if ((i % 2 == 0)); then order=(parent change); else order=(change parent); fi
    for side in "${order[@]}"; do
      if row="$(run_side "$side" "$w")"; then note=done; else note=FAILED; fi
      printf '%d\t%s\t%s\n' "$i" "$side" "$row" >>"$results"
      echo "  pair $((i + 1))/$pairs $side $note" >&2
    done
  done
  python3 - "$results" "$w" "$sha" "$pairs" "$seed" \
      "${built[parent]}" "$(bin_sha parent)" "${built[change]}" "$(bin_sha change)" <<'PY' || status=1
import json, statistics, sys

path, workload, sha, pairs, seed = sys.argv[1:6]
binary = {"parent": sys.argv[6:8], "change": sys.argv[8:10]}
metrics = [(m["name"], m["unit"], m["better"], m["bound"])
           for m in json.load(open("BENCHMARK.json"))["end_to_end"]]
runs = {"parent": {}, "change": {}}
exited = {"parent": 0, "change": 0}
sims = {"parent": set(), "change": set()}
for row in open(path):
    pair, side, code, sim, line = row.rstrip("\n").split("\t", 4)
    sims[side].add(" ".join(sim.split()) or "none")
    try:
        result = json.loads(line)
    except ValueError:
        result = None
    if code != "0" or not isinstance(result, dict):
        exited[side] += 1
    else:
        runs[side][int(pair)] = result

def quartiles(xs):
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3

print(f"== {workload}: parent {sha} vs change (this checkout), {pairs} pairs, seed {seed} ==")
bad = False
for side, (warm, last) in binary.items():
    print(f"{side} binary sha256: after warm-up {warm}, after last pair {last}")
    if warm != last:
        print(f"{side}: benchmark binary changed during the pairs")
        bad = True
for side in ("parent", "change"):
    rs = runs[side].values()
    failed, incorrect = sum(r["failed"] for r in rs), sum(not r["correct"] for r in rs)
    bad = bad or failed > 0 or incorrect > 0 or exited[side] > 0
    print(f"{side}: attempted {sum(r['attempted'] for r in rs)} failed {failed} "
          f"incorrect runs {incorrect} runs that exited nonzero {exited[side]}")
same = len(sims["parent"]) == 1 and sims["parent"] == sims["change"]
if same:
    print("same simulation")
else:
    shown = lambda side: ", ".join(sorted(sims[side]))
    print(f"different simulation: {shown('parent')} / {shown('change')}")
idx = sorted(set(runs["parent"]) & set(runs["change"]))
print(f"{'metric':<20}{'better':<8}{'parent median [q1, q3]':<48}{'change median [q1, q3]':<48}"
      f"{'change/parent':<15}{'pairs won':<11}gain by the 9-in-10 + IQR rule, or regression")
for name, unit, better, bound in metrics:
    if len(idx) < 2:
        print(f"{name:<20}{better:<8}fewer than two pairs ran on both sides")
        bad = True
        continue
    value = lambda side, i: runs[side][i]["metrics"][name]["value"]
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
        verdict = "yes" if same else "no: the simulations differ"
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
