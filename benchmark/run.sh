#!/usr/bin/env bash
# End-to-end benchmark of the simulator. Builds wsl-bench into
# benchmark/build/ (from the sources one directory up) and runs it.
#
#   benchmark/run.sh --workload W --seed S --seconds T --trace 0|1
#       One workload in one process. Prints "workload metric value unit"
#       lines, then one JSON line: the end-to-end metrics (--trace 0) or
#       the per-layer metrics of a traced run (--trace 1, which also
#       writes benchmark/build/trace-W.json).
#   benchmark/run.sh [--seed S] [--seconds T] [--trace 0|1]
#       Every workload in turn, metric lines only.
#
# Exits non-zero when the build fails or any correctness check fails.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$here/build"
workloads=(sweep-serial sweep-jobs4 dc-corun serve-mix)

workload="" seed=1 seconds=5 trace=0
while [[ $# -gt 0 ]]; do
    case "$1" in
        --workload) workload="$2" ;;
        --seed) seed="$2" ;;
        --seconds) seconds="$2" ;;
        --trace) trace="$2" ;;
        *) echo "usage: $0 [--workload W] [--seed S] [--seconds T]" \
                "[--trace 0|1]" >&2; exit 2 ;;
    esac
    shift 2
done

# Windows and thread counts are fixed by the workloads; nothing may
# leak in from the simulator's environment knobs.
while read -r var; do unset "$var"; done < <(compgen -e | grep '^WSL_' || true)

mkdir -p "$build"
if ! { cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release &&
       cmake --build "$build" -j 4 --target wsl-bench; } \
        > "$build/build.log" 2>&1; then
    tail -n 40 "$build/build.log" >&2
    echo "run.sh: build failed (log: $build/build.log)" >&2
    exit 1
fi

run_one() {  # workload traced?
    local args=(--workload "$1" --seed "$seed" --seconds "$seconds")
    [[ "$2" == 1 ]] && args+=(--trace "$build/trace-$1.json")
    "$build/wsl-bench" "${args[@]}"
}

if [[ -n "$workload" ]]; then
    run_one "$workload" "$trace"
    exit $?
fi

modes=(0)
[[ "$trace" == 1 ]] && modes+=(1)
status=0
for w in "${workloads[@]}"; do
    for t in "${modes[@]}"; do
        out="$(run_one "$w" "$t")" || status=1
        grep -v '^{' <<< "$out" || true
    done
done
exit "$status"
