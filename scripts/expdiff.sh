#!/bin/sh
# Experiment-output diff: ROADMAP's "E1–E20 outputs diff-clean" gate.
#
#   scripts/expdiff.sh <rev>     build cmd/nodsim at <rev> (from a
#                                `git archive` snapshot in a temporary
#                                directory) and in the working tree, run
#                                `-exp all` on both and diff the outputs.
#                                Prints nothing and exits 0 when they agree.
#
# Three tables differ between two runs of one commit and are masked: E9's
# wall-clock column, E19's rows (open-loop arrivals against real time) and
# E20's goodput column. Everything else is deterministic.
set -eu

cd "$(dirname "$0")/.."

rev="${1:?usage: scripts/expdiff.sh <rev>}"
commit=$(git rev-parse --verify "$rev^{commit}")

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

mkdir "$tmp/rev"
git archive "$commit" | tar -x -C "$tmp/rev"
(cd "$tmp/rev" && go build -o "$tmp/nodsim.rev" ./cmd/nodsim)
go build -o "$tmp/nodsim.work" ./cmd/nodsim

# mask: blank the cells that depend on the clock.
mask() {
	awk '
	/^=== / { sect = $2 }
	sect == "E9:" && /^[0-9]+ +[0-9]+ +[0-9]+ +[0-9.]+(ns|µs|ms|s)$/ { $NF = "<time>" }
	sect == "E19:" && /^(steady|bursty|diurnal|faulty) +[0-9]+x / { $0 = $1 " " $2 " <timing-driven>" }
	sect == "E20:" && /^(clean|faulty) +(static|bandit) / { $NF = "<goodput>" }
	{ print }'
}

"$tmp/nodsim.rev" -exp all | mask >"$tmp/rev.txt"
"$tmp/nodsim.work" -exp all | mask >"$tmp/work.txt"
diff -u --label "$rev" --label "working tree" "$tmp/rev.txt" "$tmp/work.txt"
