#!/usr/bin/env bash
# Offline-friendly CI gate: formatting, lints, build, tests, and every
# paper figure at its smoke shape.
#
# Usage: ci/check.sh [--quick]
#   --quick   skip the tests (format + lint + build only)
#
# Everything runs with --offline so the gate works in sandboxes without
# registry access (all third-party deps are vendored in vendor/).
set -euo pipefail
cd "$(dirname "$0")/.."

quick=0
[[ "${1:-}" == "--quick" ]] && quick=1

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (deny warnings) =="
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "== cargo build --release =="
cargo build --offline --workspace --release

# The doc gate spans every workspace member, including fsi-service,
# which additionally compiles under #![deny(missing_docs)]: an
# undocumented public item in the service API fails this step.
echo "== cargo doc (deny warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps

if [[ $quick -eq 0 ]]; then
  # Runs every crate's doc tests too (the `Doc-tests <crate>` sections).
  echo "== cargo test =="
  cargo test --offline --workspace -q

  # Metrics-enabled lane: the always-on registry and flight recorder are
  # exercised with stage tracing live and a real dump directory, so the
  # span→flight wiring, the incident path (one counter, one ring entry and
  # one collector span per health event, sweep rung, checkpoint or service
  # incident) and the incident-dump file path run inside the test suite
  # instead of only in production incidents. The root package's
  # observability and prop_health targets drive injected faults through
  # the sweep's recovery ladder with that tracing on.
  echo "== cargo test (metrics lane: FSI_TRACE=stages + flight dir) =="
  FLIGHT_DIR="$(mktemp -d)"
  FSI_TRACE=stages FSI_FLIGHT_DIR="$FLIGHT_DIR" \
    cargo test --offline -q -p fsi-runtime -p fsi-dqmc -p fsi-service
  FSI_TRACE=stages FSI_FLIGHT_DIR="$FLIGHT_DIR" \
    cargo test --offline -q -p fsi --test observability --test prop_health
  rm -rf "$FLIGHT_DIR"

  # Kernel-equivalence lane with the dispatch forced to the scalar tier
  # (FSI_KERNEL is read once per process, so the forced choice covers the
  # whole run): the batched/blocked/chain paths and all tier-parity
  # proptests must hold when every consumer rides the portable kernel —
  # this is the lane that would catch a vector-tier result leaking into a
  # scalar-pinned run, and it keeps the suite meaningful on hosts without
  # AVX.
  echo "== cargo test (kernel lane: FSI_KERNEL=scalar) =="
  FSI_KERNEL=scalar cargo test --offline -q -p fsi-dense

  # The checked profile keeps release optimization but turns debug
  # assertions and overflow checks back on — numeric guardrail bugs that
  # only trip under assertions surface here. It is also the lane in which
  # the block pool's stale-data guard is armed at optimized codegen: every
  # pooled buffer is NaN-filled when it changes hands, so
  # tests/steady_state_memory.rs and fsi-selinv's prop_pool (with its
  # poisoned-wrap case) catch an output block that is not fully
  # overwritten. --workspace takes in fsi-dqmc's unit tests, so the
  # measurement kernels' oracle proptests (meas::tests::*_the_reference)
  # run here with slice bounds and debug assertions live at the codegen
  # the benchmark times; those kernels are plain safe Rust outside
  # fsi-dense's tier dispatch, so the FSI_KERNEL=scalar lane above has
  # nothing of theirs to pin.
  echo "== cargo test --profile checked =="
  cargo test --offline --workspace -q --profile checked

  # The layered benchmark is a package of its own (benchmark/): its tests
  # pin the staged composition it times to fsi_with_q / fsi_measurement_set
  # bit for bit on all four patterns, which gates every fsi-selinv
  # refactor. Default (unoptimised) profile: tests/alloc.rs counts
  # allocations the optimiser may elide.
  echo "== cargo test (benchmark package) =="
  cargo test --offline -q --manifest-path benchmark/Cargo.toml

  # Every table and figure end to end at its smoke shape, on the release
  # build above; `reproduce` exits 1 when a paper-shape verdict fails.
  # It runs last so that a failed verdict cannot hide the lanes above. It
  # runs in a scratch directory, removed on exit, because `validate`
  # writes results/validate.json under the working directory. Smoke `all`
  # starts at most 12 pool threads at once (the Fig. 8 bottom / Fig. 10 /
  # Fig. 11 pools, one after another).
  echo "== reproduce all (smoke shapes) =="
  REPRO_DIR="$(mktemp -d)"
  trap 'rm -rf "$REPRO_DIR"' EXIT
  (cd "$REPRO_DIR" && "$OLDPWD/target/release/reproduce" all)
fi

echo "== all checks passed =="
