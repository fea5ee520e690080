#!/usr/bin/env bash
# The benchmark's one command (the `command` of BENCHMARK.json).
#
#   bash benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one run: `--trace 0` prints the end-to-end metrics (bin `bench`),
#       `--trace 1` the per-layer metrics (bin `trace`), each as one JSON
#       object on the last line of standard output;
#   bash benchmark/run.sh [--seed N] [--repeat N] [--quick]
#       the whole suite: six workloads, untraced then traced, one report.
#
# Builds from source into $CARGO_TARGET_DIR (default benchmark/target).
# Only the binary a run needs is built, so the gate (`bench`, facade
# imports only) keeps working when a refactor breaks a kernel probe.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
manifest="$here/Cargo.toml"

bin=bench
suite=1
args=("$@")
for ((i = 0; i < ${#args[@]}; i++)); do
    case "${args[i]}" in
    --workload) suite=0 ;;
    --trace) [[ "${args[i + 1]:-0}" == 1 ]] && bin=trace ;;
    esac
done

if ((suite)); then
    cargo build --release --quiet --offline --manifest-path "$manifest" --bin trace
fi
exec cargo run --release --quiet --offline --manifest-path "$manifest" --bin "$bin" -- "$@"
