#!/bin/sh
# Benchmark runner.
#
#   scripts/bench.sh -smoke      run every benchmark once (the check.sh gate)
#   scripts/bench.sh [count]     run the root-package experiment benchmarks
#                                `count` times (default 3) and write
#                                BENCH_<date>.json with ns/op, B/op and
#                                allocs/op per run
#   scripts/bench.sh -compare <baseline.json> [count] [maxpct] [benchtime]
#                                rerun the suite `count` times (default 3,
#                                benchtime default 1s) and print a min/median
#                                ns/op delta table against the baseline JSON.
#                                Exits non-zero when any E6 negotiation,
#                                WireRPC or NegotiateParallel benchmark
#                                regresses by more than maxpct percent
#                                (default 10) on its minimum.
set -eu

cd "$(dirname "$0")/.."

if [ "${1:-}" = "-smoke" ]; then
	exec go test -run '^$' -bench . -benchtime=1x ./...
fi

# bench_lines <file>: reduce `go test -bench` output to "name ns_per_op".
bench_lines() {
	awk '
	/^Benchmark/ {
		name = $1; sub(/-[0-9]+$/, "", name)
		for (i = 3; i <= NF; i++) if ($i == "ns/op") print name, $(i-1)
	}' "$1"
}

# json_lines <file>: reduce a BENCH_*.json file to "name ns_per_op".
json_lines() {
	sed -n 's/.*"name": "\([^"]*\)".*"ns_per_op": \([0-9.eE+-]*\).*/\1 \2/p' "$1"
}

if [ "${1:-}" = "-compare" ]; then
	base="${2:?usage: scripts/bench.sh -compare <baseline.json> [count] [maxpct] [benchtime]}"
	count="${3:-3}"
	maxpct="${4:-10}"
	benchtime="${5:-1s}"
	[ -f "$base" ] || { echo "bench: baseline $base not found" >&2; exit 2; }
	tmp=$(mktemp)
	basetmp=$(mktemp)
	trap 'rm -f "$tmp" "$basetmp"' EXIT

	go test -run '^$' -bench . -benchtime "$benchtime" -count "$count" . | tee "$tmp" >&2
	json_lines "$base" >"$basetmp"

	bench_lines "$tmp" | awk -v maxpct="$maxpct" '
	# stats(s) sorts the space-separated values in s and sets MIN and MED.
	function stats(s,    a, k, i, j, t) {
		k = split(s, a, " ")
		for (i = 2; i <= k; i++)
			for (j = i; j > 1 && a[j-1] + 0 > a[j] + 0; j--) {
				t = a[j]; a[j] = a[j-1]; a[j-1] = t
			}
		MIN = a[1] + 0
		if (k % 2) MED = a[(k + 1) / 2] + 0
		else MED = (a[k / 2] + a[k / 2 + 1]) / 2
	}
	FNR == NR { bvals[$1] = bvals[$1] " " $2; next }
	{
		cvals[$1] = cvals[$1] " " $2
		if (!($1 in seen)) { order[++n] = $1; seen[$1] = 1 }
	}
	END {
		printf "%-52s %12s %12s %8s %12s %12s %8s\n", "benchmark",
			"base-min", "cur-min", "min", "base-med", "cur-med", "med"
		fail = 0
		for (i = 1; i <= n; i++) {
			name = order[i]
			if (!(name in bvals)) {
				printf "%-52s %s\n", name, "(not in baseline)"
				continue
			}
			stats(bvals[name]); bmin = MIN; bmed = MED
			stats(cvals[name]); cmin = MIN; cmed = MED
			dmin = (cmin - bmin) / bmin * 100
			dmed = (cmed - bmed) / bmed * 100
			flag = ""
			if (name ~ /^Benchmark(E6|WireRPC|NegotiateParallel)/ && cmin > bmin * (1 + maxpct / 100)) {
				flag = "  REGRESSION"
				fail = 1
			}
			printf "%-52s %12.0f %12.0f %+7.1f%% %12.0f %12.0f %+7.1f%%%s\n",
				name, bmin, cmin, dmin, bmed, cmed, dmed, flag
		}
		for (name in bvals)
			if (!(name in seen))
				printf "%-52s %s\n", name, "(removed since baseline)"
		if (fail) {
			printf "bench: E6 negotiation, WireRPC or NegotiateParallel regressed more than %s%% vs baseline\n", maxpct > "/dev/stderr"
			exit 1
		}
	}
	' "$basetmp" -
	exit $?
fi

count="${1:-3}"
out="BENCH_$(date +%Y-%m-%d).json"
tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT

go test -run '^$' -bench . -benchmem -count "$count" . | tee "$tmp"

# Convert the standard benchmark lines into a JSON array. Every line looks
# like: BenchmarkName-8  1234  56789 ns/op  100 B/op  3 allocs/op
awk '
BEGIN { print "["; first = 1 }
/^Benchmark/ {
	name = $1; sub(/-[0-9]+$/, "", name)
	iters = $2; ns = ""; bytes = ""; allocs = ""
	for (i = 3; i <= NF; i++) {
		if ($i == "ns/op") ns = $(i-1)
		if ($i == "B/op") bytes = $(i-1)
		if ($i == "allocs/op") allocs = $(i-1)
	}
	if (ns == "") next
	if (!first) printf ",\n"
	first = 0
	printf "  {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s", name, iters, ns
	if (bytes != "") printf ", \"bytes_per_op\": %s", bytes
	if (allocs != "") printf ", \"allocs_per_op\": %s", allocs
	printf "}"
}
END { print "\n]" }
' "$tmp" >"$out"

echo "bench: wrote $out"
