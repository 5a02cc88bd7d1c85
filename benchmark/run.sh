#!/usr/bin/env bash
# The one command. Builds this package (release, offline, its own
# lockfile) and runs it:
#
#   benchmark/run.sh                      all five workloads, untraced then traced
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   benchmark/run.sh --list               workloads, metrics, units, bounds
#   benchmark/run.sh compare A.json B.json
#
# Outputs land in benchmark/out/ (results.json, one Chrome trace per workload).
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# Unless the caller chose a target directory, share the root workspace's,
# so the crates it has already compiled are not compiled twice.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/../target}"

# `workload::run_cell` and typed BBP errors dump the obs flight recorder to
# $FLIGHT_DUMP_DIR (default: target/flight under the current directory);
# keep those files with the benchmark's other outputs.
export FLIGHT_DUMP_DIR="${FLIGHT_DUMP_DIR:-$here/out/flight}"

cargo build --quiet --release --offline --manifest-path "$here/Cargo.toml"
exec "$CARGO_TARGET_DIR/release/benchmark" "$@"
