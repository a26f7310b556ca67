#!/bin/sh
# The output gate's fixed list: fixed-seed commands whose stdout must stay
# the same from a change's base to its head, unless the change means to move
# it. Prints each command, its stdout and its exit status. Wall-clock times
# print as microseconds after an `=` (`latency=12.5us`, `p50=3.1us`); one
# pattern masks them to `=<t>us`, so two builds' results diff clean when
# their outputs agree:
#
#   sh tests/outputs/gate.sh base/build > base.out
#   sh tests/outputs/gate.sh build > head.out
#   diff -u base.out head.out
#
# The build needs the pushpart_cli, fault_sweep, latency_ablation,
# topology_star, fig13_surface, fig14_commtime, candidates_matrix and
# nproc_explore targets.
set -u
build=$(cd "$1" && pwd)
repo=$(cd "$(dirname "$0")/../.." && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work" || exit 1

# Runs a tool with its stdout masked. The status is the tool's own: the
# output goes through a file, since a pipe would report sed's.
run() {
  tool=$1
  shift
  echo "\$ $tool $*"
  "$build/$tool" "$@" > "$work/stdout"
  status=$?
  sed -E 's/=[0-9.e+-]+us\b/=<t>us/g' "$work/stdout"
  echo "exit $status"
}

# For a tool whose stdout reports its own run time in another form.
quiet() {
  tool=$1
  shift
  echo "\$ $tool $* > /dev/null"
  "$build/$tool" "$@" > /dev/null
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

# The serving tiers. A search-backed atlas, its winner map, and the query's
# verdicts: certified, over a tight bound, a boundary miss, out of range and
# off the grid points.
quiet tools/pushpart atlas build --out=gate.atlas --pr-max=12 --pr-steps=12 \
  --rr-max=4 --rr-steps=4 --n=64 --search-runs=2
run tools/pushpart atlas inspect --file=gate.atlas
run tools/pushpart atlas query --file=gate.atlas --n=300 --ratio=6:2:1
run tools/pushpart atlas query --file=gate.atlas --n=300 --ratio=6:2:1 \
  --gap-pct=1
run tools/pushpart atlas query --file=gate.atlas --n=300 --ratio=9:1:1
run tools/pushpart atlas query --file=gate.atlas --n=300 --ratio=30:2:1
run tools/pushpart atlas query --file=gate.atlas --n=97 --ratio=3:2.9:1
# Tier B with no atlas, on a full network and on a star with hub R.
run tools/pushpart plan --n=90 --ratio=6:3:3 --algo=SCO --tier=search --runs=2
run tools/pushpart plan --n=200 --ratio=7:2:1 --algo=PIO --topology=star \
  --hub=R --tier=search --runs=3 --seed=5
# One serving session over the atlas: certified, a boundary miss served by
# tier B, a PCB search, a cache hit and a tier-A request.
cat > session.txt <<'EOF'
n=300 ratio=6:2:1 tier=search runs=2
n=300 ratio=9:1:1 tier=search runs=2
n=120 ratio=5:1.5:1 algo=PCB tier=search runs=2
n=300 ratio=6:2:1 tier=search runs=2
n=300 ratio=4:1:1
EOF
echo "\$ cat session.txt"
cat session.txt
run tools/pushpart plan --atlas=gate.atlas --no-atlas-prefetch --repl \
  < session.txt
# The drift drills: a slowed node, and a killed one replanned through the
# atlas at the search tier. Every valid cell of the atlas is solved, so its
# prefetcher never runs.
run tools/pushpart drift --phases=80 --drill=slow --node=0 --at=20 --until=40 \
  --factor=2
run tools/pushpart drift --phases=60 --drill=kill --node=1 --at=20 --until=40 \
  --tier=search --atlas=gate.atlas
