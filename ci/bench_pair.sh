#!/usr/bin/env bash
# Judges a change against its parent the way benchmark/README.md describes:
# builds the parent commit's benchmark in a temporary `git worktree`, then
# alternates parent and change runs of one workload (the order flips every
# pair, so drift of the host hits both sides alike) and prints, per
# end-to-end metric, both medians and quartiles, the change of the median,
# and in how many pairs the change came out better.
#
# Usage: ci/bench_pair.sh <workload> [pairs=10] [seconds=25] [seed=2016] [parent=HEAD^]
#   workload  fsi_cols_n64 | fsi_diag_n144 | dqmc_step_n64 | service_mix_n64
#   parent    any commit-ish; pass HEAD to judge uncommitted work
#
# The change is whatever the working tree holds. Nothing is written outside
# the two benchmark/target directories and the temporary worktree, which is
# removed on exit.
set -euo pipefail
cd "$(dirname "$0")/.."

workload="${1:?usage: ci/bench_pair.sh <workload> [pairs=10] [seconds=25] [seed=2016] [parent=HEAD^]}"
pairs="${2:-10}"
seconds="${3:-25}"
seed="${4:-2016}"
parent="${5:-HEAD^}"

change_root="$PWD"
tmp="$(mktemp -d)"
parent_root="$tmp/parent"
cleanup() {
  git worktree remove --force "$parent_root" 2>/dev/null || true
  rm -rf "$tmp"
}
trap cleanup EXIT
git worktree add --quiet --detach "$parent_root" "$parent"

build() {
  (cd "$1" && cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml)
}
echo "== building parent ($(git rev-parse --short "$parent")) and change =="
build "$parent_root"
build "$change_root"

# One untraced run from its own checkout root; prints the result object.
run() {
  (cd "$1" && ./benchmark/target/release/fsi-benchmark \
    --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 2>/dev/null | tail -n 1)
}

metrics=(setup_s op_p50_s op_p90_s ops_per_s peak_rss_mb)
value() { # <result object> <metric>
  grep -o "\"$2\":{\"value\":[^,]*" <<<"$1" | cut -d: -f3
}

for m in "${metrics[@]}"; do : >"$tmp/parent.$m"; : >"$tmp/change.$m"; done
for ((i = 1; i <= pairs; i++)); do
  if ((i % 2)); then order=(parent change); else order=(change parent); fi
  for side in "${order[@]}"; do
    root="${side}_root"
    result="$(run "${!root}")"
    grep -q '"correct":true' <<<"$result" || { echo "pair $i: $side run failed: $result" >&2; exit 1; }
    for m in "${metrics[@]}"; do value "$result" "$m" >>"$tmp/$side.$m"; done
  done
  echo "pair $i/$pairs: op_p50_s parent $(tail -n 1 "$tmp/parent.op_p50_s") change $(tail -n 1 "$tmp/change.op_p50_s")"
done

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

echo
echo "== $workload, $pairs pairs of ${seconds}s, seed $seed =="
printf "%-12s %-32s %-32s %9s %6s\n" metric "parent q1/median/q3" "change q1/median/q3" "median" "wins"
for m in "${metrics[@]}"; do
  read -r _ pm _ <<<"$(quartiles "$tmp/parent.$m")"
  read -r _ cm _ <<<"$(quartiles "$tmp/change.$m")"
  # ops_per_s is the one metric where higher is better.
  wins="$(paste "$tmp/parent.$m" "$tmp/change.$m" |
    awk -v hi="$([[ $m == ops_per_s ]] && echo 1 || echo 0)" \
      '(hi && $2 > $1) || (!hi && $2 < $1) {w++} END {print w + 0}')"
  delta="$(awk -v p="$pm" -v c="$cm" 'BEGIN {printf "%+.1f%%", 100 * (c - p) / p}')"
  printf "%-12s %-32s %-32s %9s %3d/%d\n" "$m" \
    "$(quartiles "$tmp/parent.$m" | tr ' ' '/')" "$(quartiles "$tmp/change.$m" | tr ' ' '/')" \
    "$delta" "$wins" "$pairs"
done
