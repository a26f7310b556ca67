#!/bin/sh
# The output gate's fixed list: fixed-seed commands whose stdout must stay
# the same from a change's base to its head, unless the change means to move
# it. Prints each command, its stdout and its exit status. None of these
# commands prints a wall-clock time, so two builds' results diff clean when
# their outputs agree:
#
#   sh tests/outputs/gate.sh base/build > base.out
#   sh tests/outputs/gate.sh build > head.out
#   diff -u base.out head.out
#
# The build needs the pushpart_cli, fault_sweep, latency_ablation,
# topology_star, fig13_surface, fig14_commtime, candidates_matrix and
# nproc_explore targets. `pushpart plan` and `pushpart drift` print
# latencies, so they stay out of this list.
set -u
build=$(cd "$1" && pwd)
repo=$(cd "$(dirname "$0")/../.." && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work" || exit 1

run() {
  tool=$1
  shift
  echo "\$ $tool $*"
  "$build/$tool" "$@"
  echo "exit $?"
}

run bench/fault_sweep --n=48
run bench/latency_ablation --n=64
run bench/topology_star --n=60
# The failover paths on the recommended shape: a death at 30% of the
# fault-free run fails over mid-run, one at 99% of a PIO run in its final
# drain (the failover comes at pivot n).
run tools/pushpart recommend --n=64 --ratio=5:2:1 --out=rec64.pp
for algo in SCB PIO; do
  for frac in 0.3 0.99; do
    for proc in R S P; do
      for drop in 0 0.02; do
        run tools/pushpart faults --in=rec64.pp --ratio=5:2:1 --algo="$algo" \
          --death-proc="$proc" --death-frac="$frac" --timeout=1e-7 \
          --drop="$drop"
      done
    done
  done
done

# The paper's figures, the candidate families over the Fig. 13 grid and
# over k-owner speed lists, the recommendation across every family, and the
# verifier's corpus replay.
run bench/fig13_surface
run bench/fig14_commtime
run bench/candidates_matrix --n=90
run bench/nproc_explore
run bench/nproc_explore --n=5 --speeds=8:4:2:1 --runs=2
run tools/pushpart recommend --n=90 --ratio=7:3:1 --families=all
run tools/pushpart verify --corpus="$repo/tests/corpus"
