#!/usr/bin/env bash
# Judges a change against its parent the way benchmark/README.md describes:
# builds the parent commit's benchmark in a temporary copy (`git archive`),
# then alternates parent and change runs of a workload (the order flips
# every pair, so drift of the host hits both sides alike) and prints, per
# end-to-end metric, both medians and quartiles, the change of the median,
# in how many pairs the change came out better, and a verdict against the
# metric's bound in BENCHMARK.json:
#   ok          the change's median is no worse than the parent's by more
#               than the bound
#   worse       it is
#   unresolved  the parent's own runs spread (q3 − q1, relative to their
#               median) wider than the bound, so the pairs cannot tell
#
# Usage: ci/bench_pair.sh <workload>|all [pairs] [seconds=25] [seed=2016] [parent=HEAD^]
#   workload  fsi_cols_n64 | fsi_diag_n144 | dqmc_step_n64 | service_mix_n64,
#             or `all` for every workload BENCHMARK.json lists, one table each
#   pairs     default 10 for one workload (what a claimed gain needs), 4 for
#             `all` (enough to judge a no-gain change against the bounds)
#   parent    any commit-ish; pass HEAD to judge uncommitted work
#
# The change is whatever the working tree holds. Nothing is written outside
# the two benchmark/target directories and the temporary copy, which is
# removed on exit.
set -euo pipefail
cd "$(dirname "$0")/.."

usage="usage: ci/bench_pair.sh <workload>|all [pairs] [seconds=25] [seed=2016] [parent=HEAD^]"
spec="$(tr -d ' \n' <BENCHMARK.json)"
if [[ "${1:?$usage}" == all ]]; then
  workloads="${spec#*\"workloads\":}"
  workloads="$(grep -o '"name":"[^"]*"' <<<"${workloads%%\]*}" | cut -d'"' -f4)"
  pairs="${2:-4}"
else
  workloads="$1"
  pairs="${2:-10}"
fi
seconds="${3:-25}"
seed="${4:-2016}"
parent="${5:-HEAD^}"

change_root="$PWD"
tmp="$(mktemp -d)"
parent_root="$tmp/parent"
trap 'rm -rf "$tmp"' EXIT
mkdir "$parent_root"
git archive "$parent" | tar -x -C "$parent_root"

build() {
  (cd "$1" && cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml)
}
echo "== building parent ($(git rev-parse --short "$parent")) and change =="
build "$parent_root"
build "$change_root"

# One untraced run from its own checkout root; prints the result object.
run() { # <checkout root> <workload>
  (cd "$1" && ./benchmark/target/release/fsi-benchmark \
    --workload "$2" --seed "$seed" --seconds "$seconds" --trace 0 2>/dev/null | tail -n 1)
}

metrics=(setup_s op_p50_s op_p90_s ops_per_s peak_rss_mb)
value() { # <result object> <metric>
  grep -o "\"$2\":{\"value\":[^,]*" <<<"$1" | cut -d: -f3
}
declared() { # <metric> <key>: the metric's entry in BENCHMARK.json's end_to_end
  grep -o "\"name\":\"$1\",[^}]*" <<<"$spec" | grep -o "\"$2\":[^,]*" | cut -d: -f2 | tr -d '"'
}

# Quartiles by linear interpolation between order statistics.
quartiles() {
  sort -g "$1" | awk '{v[NR] = $1} END {
    split("0.25 0.5 0.75", p, " ")
    for (k = 1; k <= 3; k++) {
      h = (NR - 1) * p[k] + 1; lo = int(h); hi = lo < NR ? lo + 1 : lo
      printf "%s%.6g", (k > 1 ? " " : ""), v[lo] + (h - lo) * (v[hi] - v[lo])
    }
  }'
}

for workload in $workloads; do
  for m in "${metrics[@]}"; do : >"$tmp/parent.$m"; : >"$tmp/change.$m"; done
  for ((i = 1; i <= pairs; i++)); do
    if ((i % 2)); then order=(parent change); else order=(change parent); fi
    for side in "${order[@]}"; do
      root="${side}_root"
      result="$(run "${!root}" "$workload")"
      grep -q '"correct":true' <<<"$result" || { echo "$workload pair $i: $side run failed: $result" >&2; exit 1; }
      for m in "${metrics[@]}"; do value "$result" "$m" >>"$tmp/$side.$m"; done
    done
    echo "$workload pair $i/$pairs: op_p50_s parent $(tail -n 1 "$tmp/parent.op_p50_s") change $(tail -n 1 "$tmp/change.op_p50_s")"
  done

  echo
  echo "== $workload, $pairs pairs of ${seconds}s, seed $seed =="
  printf "%-12s %-32s %-32s %9s %6s %6s  %s\n" metric "parent q1/median/q3" "change q1/median/q3" "median" "wins" "bound" "verdict"
  for m in "${metrics[@]}"; do
    pq="$(quartiles "$tmp/parent.$m")"
    cq="$(quartiles "$tmp/change.$m")"
    read -r pq1 pm pq3 <<<"$pq"
    read -r _ cm _ <<<"$cq"
    hi="$([[ "$(declared "$m" better)" == higher ]] && echo 1 || echo 0)"
    bound="$(declared "$m" bound)"
    wins="$(paste "$tmp/parent.$m" "$tmp/change.$m" |
      awk -v hi="$hi" '(hi && $2 > $1) || (!hi && $2 < $1) {w++} END {print w + 0}')"
    delta="$(awk -v p="$pm" -v c="$cm" 'BEGIN {printf "%+.1f%%", 100 * (c - p) / p}')"
    verdict="$(awk -v p="$pm" -v c="$cm" -v q1="$pq1" -v q3="$pq3" -v b="$bound" -v hi="$hi" 'BEGIN {
      if ((q3 - q1) / p > b) print "unresolved"
      else if ((hi ? p - c : c - p) / p > b) print "worse"
      else print "ok"
    }')"
    printf "%-12s %-32s %-32s %9s %3d/%-2d %6s  %s\n" "$m" \
      "${pq// //}" "${cq// //}" "$delta" "$wins" "$pairs" "$bound" "$verdict"
  done
  echo
done
