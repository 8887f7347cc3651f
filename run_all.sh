#!/bin/bash
# Final capture: full test suite + every bench binary of the checkout
# this script lives in, written next to it.
# WSL_WINDOW can be set by the caller; the checked-in capture was made
# with WSL_WINDOW=30000 to fit a laptop-scale time budget.
cd "$(dirname "$0")" || exit 1
ctest --test-dir build > test_output.txt 2>&1
ORDER="bench_table2 bench_fig1 bench_fig2 bench_fig3 bench_fig5 \
bench_fig6 bench_fig7 bench_fig8 bench_fig9 bench_fig10 bench_large \
bench_power bench_preemption bench_ablation bench_overhead"
{
  for name in $ORDER; do
    b="build/bench/$name"
    [ -f "$b" ] && [ -x "$b" ] || continue
    echo "=== $name ==="
    "$b"
    echo
  done
} > bench_output.txt 2>&1
echo FINAL_RUN_COMPLETE >> bench_output.txt
