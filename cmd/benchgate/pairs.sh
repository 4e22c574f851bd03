#!/usr/bin/env bash
# Runs perfbench in five alternating pairs, one run on a checkout of the
# parent commit and one on this checkout per pair, then gates the change
# with benchgate. Run from the repository root:
#
#   bash cmd/benchgate/pairs.sh <parent-checkout> <out-dir>
#
# Each run's full output goes to <out-dir>/parent/<i>.txt or
# <out-dir>/change/<i>.txt. Odd pairs run the parent first and even pairs
# the change first, so drift in the host's speed over the run falls
# on both sides. The gate's report is printed and kept as
# <out-dir>/report.txt; the script exits with benchgate's status.
set -euo pipefail
parent=$(cd "$1" && pwd)
change=$(pwd)
mkdir -p "$2/parent" "$2/change"
out=$(cd "$2" && pwd)

# one <side> <checkout> <pair>
one() {
	echo "pair $3: $1" >&2
	(cd "$2" && bash perfbench/run.sh --workload all --seed 1 --seconds 5 --trace 0) > "$out/$1/$3.txt"
}
for i in 1 2 3 4 5; do
	if ((i % 2)); then
		one parent "$parent" "$i"
		one change "$change" "$i"
	else
		one change "$change" "$i"
		one parent "$parent" "$i"
	fi
done
go run ./cmd/benchgate -parent "$out/parent" -change "$out/change" | tee "$out/report.txt"
