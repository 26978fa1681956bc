#!/usr/bin/env bash
# The performance benchmark of deadline-dcn. Builds perf/ (a package of
# its own) and runs it pinned to one CPU. Run from anywhere:
#
#   perf/run.sh                      every workload: 5 untraced runs + 1
#                                    traced run each -> perf/out/result.json
#   perf/run.sh --smoke              the same on tiny sizes (not for numbers)
#   perf/run.sh --workload W --seed S --seconds N --trace 0|1
#                                    one run; the last line of stdout is
#                                    the JSON result (see BENCHMARK.json)
#   perf/run.sh compare A.json B.json
#   perf/run.sh --lint               fmt + clippy + unit tests of perf/
#
# Everything but --lint and --workload is passed through to `dcn-perf`
# (`suite` is implied when no --workload is given).
set -euo pipefail

perf=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
cd "$perf/.."

if [[ "${1:-}" == "--lint" ]]; then
    cargo fmt --manifest-path perf/Cargo.toml --check
    cargo clippy --manifest-path perf/Cargo.toml --offline --all-targets -- -D warnings
    cargo test --manifest-path perf/Cargo.toml --offline
    exit
fi

# A relative CARGO_TARGET_DIR is resolved against the repository root.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-perf/target}"
cargo build --manifest-path perf/Cargo.toml --release --offline --quiet >&2
bin="$CARGO_TARGET_DIR/release/dcn-perf"
case "${1:-}" in
    compare | manifest) exec "$bin" "$@" ;;
esac

DCN_PERF_COMMIT=$(git rev-parse HEAD 2>/dev/null || echo unknown)
DCN_PERF_RUSTC=$(rustc --version)
DCN_PERF_NPROC=$(nproc)
export DCN_PERF_COMMIT DCN_PERF_RUSTC DCN_PERF_NPROC

# Every workload uses at most two threads; on one CPU the hand-off between
# them costs the same on every request instead of 4 or 44 us depending on
# where the scheduler put the worker.
pin=()
if command -v taskset >/dev/null; then
    cpu=$((DCN_PERF_NPROC - 1))
    if taskset -c "$cpu" true 2>/dev/null; then
        pin=(taskset -c "$cpu")
        export DCN_PERF_PINNED=$cpu
    fi
fi
if [[ ${#pin[@]} -eq 0 ]]; then
    echo "perf/run.sh: taskset unavailable, running unpinned" >&2
fi

if read -r load1 _ </proc/loadavg && awk -v l="$load1" 'BEGIN { exit !(l > 0.5) }'; then
    echo "perf/run.sh: warning: 1-minute load average is $load1 (> 0.5); timings will be noisy" >&2
fi

case "${1:-}" in
    --workload | suite) exec "${pin[@]}" "$bin" "$@" ;;
    *) exec "${pin[@]}" "$bin" suite "$@" ;;
esac
