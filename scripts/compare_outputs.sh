#!/usr/bin/env bash
# Compare every CLI output of scripts/output_digests.py between two source trees.
#
# Usage: scripts/compare_outputs.sh BASE_SRC [WORKDIR]
#
# BASE_SRC is the `src` directory of the tree to compare against (say,
# the parent commit's, unpacked with `git archive`); the other side is
# the `src` of the checkout that holds this script. Under WORKDIR (a new
# temporary directory if none is given) the script writes the benchmark
# inputs of seeds 1-3 of every workload (`stagebench/inputs.py`), plus a
# directory of three 3,000-vertex rings (`gen cycle_plus_chords --chords
# 2, 5, 20`) and 8 glued arborescences over 400 vertices (`gen
# known_packing`). It digests each directory under both trees with the
# same `--seed-base` (1000 S for seed S, 1000 for the rings), prints a
# diff for each, and exits 1 if any digest differs. `PYTHON` names the
# interpreter (default python3).
set -euo pipefail

if [ $# -lt 1 ] || [ $# -gt 2 ] || [ ! -d "$1/arborpack" ]; then
  echo "usage: $0 BASE_SRC [WORKDIR]  (BASE_SRC holds an arborpack package)" >&2
  exit 2
fi
base_src=$(cd "$1" && pwd)
work=${2:-$(mktemp -d)}
mkdir -p "$work"
work=$(cd "$work" && pwd)
python=${PYTHON:-python3}
cd "$(dirname "$0")/.."
head_src=$(pwd)/src

status=0
# compare NAME DIR SEED_BASE: digest DIR under both trees and diff them.
compare() {
  PYTHONPATH="$base_src" "$python" scripts/output_digests.py "$2" --seed-base "$3" > "$work/$1-base.json"
  PYTHONPATH="$head_src" "$python" scripts/output_digests.py "$2" --seed-base "$3" > "$work/$1-head.json"
  echo "== $1: base vs head"
  diff -U2 "$work/$1-base.json" "$work/$1-head.json" || status=1
}

for w in trees clusters long_cycles; do
  for seed in 1 2 3; do
    inputs="$work/inputs/$w-$seed"
    "$python" stagebench/inputs.py --workload "$w" --seed "$seed" --out "$inputs" > /dev/null
    compare "$w-$seed" "$inputs" $((1000 * seed))
  done
done

rings="$work/inputs/rings"
mkdir -p "$rings"
for chords in 2 5 20; do
  PYTHONPATH="$head_src" "$python" -m arborpack gen cycle_plus_chords --n 3000 \
    --chords "$chords" --seed 1 --out "$rings/ring-$chords.dmc"
done
PYTHONPATH="$head_src" "$python" -m arborpack gen known_packing --n 400 --k 8 --seed 1 \
  --out "$rings/known_packing-400-8.dmc"
compare rings "$rings" 1000

exit $status
